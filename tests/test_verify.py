"""The sample loops of the verify checks against the exact Fraction
routes they replace, and the exact gates beside them."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import toricball as tb
from toricball import verify
from toricball.charts import delta_chain_violation, exp_flag, monomial_eval, theta
from toricball.cones import dual_generators
from toricball.exact import pair
from toricball.homeo import bary_to_delta, param_boundary_point, phi_coords

WPS_1_1_1_9 = Path(__file__).parent / "data" / "golden" / "verify_wps_1_1_1_9" / "fan.json"
FANS = ("p2", "p112", "twisted_p3", "wps_1_1_1_9")


def _atlas(name):
    if name == "wps_1_1_1_9":
        return tb.Atlas(tb.parse_and_validate(WPS_1_1_1_9.read_text()))
    return tb.Atlas(tb.load_bundled(name))


@pytest.fixture(scope="module", params=FANS)
def atlas(request):
    return _atlas(request.param)


def _context(fan, atlas=None, samples=0):
    chart_list = atlas.charts() if atlas else []
    flags = [c.flag for c in chart_list]
    return verify.Context(fan, atlas, chart_list, flags, fan.dim, 1e-9, samples, 0, random.Random(0))


def _fraction_residuals(atlas, chart, rng, count):
    """monomial_diagram's samples through the exact point: x built from
    Fraction coordinates, then Atlas.commutativity_residual."""
    gens = chart.flag.barycenters
    for _ in range(count):
        u = [Fraction(rng.randint(0, 4000), 1000) for _ in gens]
        x = tuple(sum(ui * g[i] for ui, g in zip(u, gens)) for i in range(len(gens[0])))
        yield atlas.commutativity_residual(chart, x)


def _fraction_composite(atlas, chart, rng, count):
    """barycentric_composite's samples through the exact barycentric
    vector: limit_denominator on each draw and on their total,
    param_boundary_point, and psi as a row-by-row monomial_eval."""
    n = len(chart.flag)
    for _ in range(count):
        raw = [rng.random() + 0.01 for _ in range(n + 1)]
        total = sum(raw)
        xi = tuple(Fraction(x).limit_denominator(10**6) / Fraction(total).limit_denominator(10**6) for x in raw)
        xi = tuple(x / sum(xi) for x in xi)
        direct = param_boundary_point(atlas, chart.flag, xi)
        u = tuple(float(x / xi[0]) for x in xi[1:])
        z = theta(exp_flag(phi_coords(u)))
        composite = [monomial_eval(chart.b[i], z) for i in chart.hilbert_rows]
        gap = max(abs(a - b) for a, b in zip(direct.values, composite))
        w = bary_to_delta(xi)
        ratio = [(1 + sum(u[:j])) / (1 + sum(u)) for j in range(n)]
        gap = max(gap, max(abs(float(a) - b) for a, b in zip(w, ratio)))
        yield gap, delta_chain_violation(w) == 0


@pytest.mark.parametrize("seed", [3, 11])
def test_diagram_residuals_match_fraction_route(atlas, seed):
    for chart in atlas.charts():
        pairings = [[pair(g, b) for b in chart.flag.barycenters] for g in chart.generators]
        new = list(verify._diagram_residuals(chart, pairings, random.Random(seed), 10))
        old = list(_fraction_residuals(atlas, chart, random.Random(seed), 10))
        assert new == old


@pytest.mark.parametrize("seed", [3, 11])
def test_composite_samples_match_fraction_route(atlas, seed):
    for chart in atlas.charts():
        new = list(verify._composite_samples(atlas, chart, random.Random(seed), 10))
        old = list(_fraction_composite(atlas, chart, random.Random(seed), 10))
        assert new == old


def test_limit_denominator_matches_fractions():
    rng = random.Random(7)
    floats = [rng.random() + 0.01 for _ in range(2000)]
    floats += [0.5, 1.0, 0.01, 1 / 3, 2 / 7, 1e-7, 123.456, 0.1 + 0.2]
    for x in floats:
        expected = Fraction(x).limit_denominator(10**6)
        assert verify._limit_denominator(x, 10**6) == (expected.numerator, expected.denominator)
    # Small bounds reach the semiconvergents and the tie rule.
    for x in floats[:200] + [0.5, 0.25, 0.75, 1.5]:
        for bound in (1, 2, 3, 7, 10):
            expected = Fraction(x).limit_denominator(bound)
            assert Fraction(*verify._limit_denominator(x, bound)) == expected


def test_partial_sums_chain_is_exact():
    assert verify._partial_sums([1, 1, 2]) == ([0.25, 0.5], True)
    assert verify._partial_sums([3]) == ([], True)
    # Same floats as bary_to_delta of the exact barycentric vector.
    nums = [7, 13, 1, 29]
    xi = [Fraction(x, sum(nums)) for x in nums]
    assert verify._partial_sums(nums)[0] == [float(w) for w in bary_to_delta(xi)]
    # A negative numerator breaks the chain: w_2 < w_1, or w_1 < 0.
    assert verify._partial_sums([2, -1, 3]) == ([0.5, 0.25], False)
    assert verify._partial_sums([-1, 2, 3])[1] is False


def test_dual_basis_gate_names_perturbed_inverse():
    """With one entry of a flag's left inverse off by 1/7, the samples
    cannot see it (they never solve for coordinates), but the exact gate
    fails and names the flag, the row j and the column i."""
    fan = tb.load_bundled("p2")
    atlas = tb.Atlas(fan)
    ctx = _context(fan, atlas, samples=5)
    passed, details = verify._monomial_diagram(ctx)
    assert passed and "dual_witness" not in details
    flag = ctx.flags[3]
    left, annihilator = flag.inverse
    left = [list(row) for row in left]
    left[1][0] += Fraction(1, 7)
    flag.__dict__["inverse"] = (tuple(map(tuple, left)), annihilator)
    ctx.rng = random.Random(0)
    passed, bad = verify._monomial_diagram(ctx)
    assert not passed
    assert bad["worst_residual"] == details["worst_residual"]
    # Flag 3 is [1] < [1, 2], with B = ((0, 1), (-1, 0)): beta_1 is now
    # (-6/7, 0), which still vanishes on B_0 but pairs to 6/7 with B_1.
    assert bad["dual_witness"] == {"flag": 3, "row": 1, "column": 1, "found": "6/7", "expected": 1}


def test_regularity_names_failing_cells():
    """On the complete p2 the entry is the cell count alone; on an
    unvalidated incomplete fan (p2 without one maximal cone) the check
    names each failing cone with the tests it failed."""
    p2 = tb.load_bundled("p2")
    assert verify._regularity(_context(p2)) == (True, {"cells": 7})
    fan = tb.validate_fan(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2]], require_complete=False)
    failed = ["star_complete", "euler", "pseudomanifold"]
    assert verify._regularity(_context(fan)) == (
        False,
        {"cells": 6, "failures": [{"rays": rays, "failed": failed} for rays in ([], [0], [2])]},
    )
    # At most five failing cells are named.
    fan = tb.validate_fan(
        3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], [[0, 1, 2], [1, 2, 3], [0, 2, 3]], require_complete=False
    )
    passed, details = verify._regularity(_context(fan))
    assert not passed and details["cells"] == 14
    assert [f["rays"] for f in details["failures"]] == [[], [0], [1], [3], [0, 1]]
    # The link of every failing cell is no sphere.
    assert all("euler" in f["failed"] for f in details["failures"])


def test_ball_model_fails_on_incomplete_fan():
    """The ball model's own Euler characteristic is 1 for every fan, so
    it is reported but not tested; the boundary and pseudomanifold tests
    still fail on p2 without one maximal cone."""
    passed, details = verify._ball_model(_context(tb.load_bundled("p2")))
    assert passed and details["euler"] == 1
    fan = tb.validate_fan(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2]], require_complete=False)
    passed, details = verify._ball_model(_context(fan))
    assert not passed
    assert details["euler"] == 1 and details["boundary_euler"] == 1 and not details["pseudomanifold"]


@pytest.mark.parametrize("name, budget", [("p3", 130), ("twisted_p3", 388)])
def test_verify_dual_description_budget(monkeypatch, name, budget):
    """Parsing, validating and verifying a fan runs the double
    description on the cones of the fan and of its star fans and on
    their pairs of maximal cones, not again on cones they describe."""
    calls = []
    monkeypatch.setattr("toricball.cones.dual_generators", lambda *args: calls.append(args) or dual_generators(*args))
    fan = tb.parse_and_validate(Path(tb.bundled_path(name)).read_text())
    assert verify.run_verification(fan, seed=0)["passed"]
    assert len(calls) <= budget


def _gluing_after_gates(fan, atlas):
    """intersection_gluing as run_verification runs it: after the
    monomial_diagram and cover checks, whose results it reads."""
    ctx = _context(fan, atlas, samples=5)
    checks = dict(verify.CHECKS)
    for name in ("monomial_diagram", "cover"):
        ctx.results[name] = checks[name](ctx)
    return ctx, verify._intersection_gluing(ctx)


def test_perturbed_terms_fail_locate_cross_check_with_exact_gates_passing():
    """Only Chart.terms of flag 0 changes (its first triangular row loses
    its w1): the float evaluators are wrong, the exact data is not.  The
    gates of the distinct half hold, and the locate cross-check fails,
    naming flag 0 and where its samples were located."""
    fan = tb.load_bundled("p2")
    atlas = tb.Atlas(fan)
    chart = atlas.chart(atlas.charts()[0].flag)
    chart.hilbert_terms  # cached from the unperturbed terms
    terms = list(chart.terms)
    terms[0] = terms[0][1:]
    chart.__dict__["terms"] = tuple(terms)
    ctx, (passed, details) = _gluing_after_gates(fan, atlas)
    diagram = ctx.results["monomial_diagram"][1]
    assert "witness" not in diagram and "dual_witness" not in diagram
    assert details["gates"] == {"monomial_diagram": True, "cover": True}
    assert details["coverage"] == {"shared": "exact", "distinct": "exact"}
    assert not passed
    assert details["counterexamples"] and all(
        c["kind"] == "locate" and c["flag"] == 0 and c["located"] not in (0, None) for c in details["counterexamples"]
    )


def test_distinct_half_fails_with_a_failed_gate():
    """A left inverse off by 1/7 fails monomial_diagram's dual_witness:
    the samples of intersection_gluing still pass, its verdict does not.
    A gate that has not run counts as failed."""
    fan = tb.load_bundled("p2")
    atlas = tb.Atlas(fan)
    flag = atlas.charts()[3].flag
    left, annihilator = flag.inverse
    left = [list(row) for row in left]
    left[1][0] += Fraction(1, 7)
    flag.__dict__["inverse"] = (tuple(map(tuple, left)), annihilator)
    ctx, (passed, details) = _gluing_after_gates(fan, atlas)
    assert "dual_witness" in ctx.results["monomial_diagram"][1]
    assert details["gates"] == {"monomial_diagram": False, "cover": True}
    assert details["counterexamples"] == [] and not passed
    assert verify._distinct_gates({}) == {"monomial_diagram": False, "cover": False}


def test_tamper_names_monomial_diagram_as_failed_gate(tmp_path):
    from toricball.cli import main

    assert main(["verify", str(tb.bundled_path("p2")), "--samples", "20", "--tamper", "--out", str(tmp_path)]) == 4
    report = json.loads((tmp_path / "report.json").read_text())
    gluing = next(c for c in report["checks"] if c["name"] == "intersection_gluing")
    assert not gluing["passed"]
    assert gluing["gates"] == {"monomial_diagram": False, "cover": True}


WPS_1_1_20 = Path(__file__).parent / "data" / "gluing_wps_1_1_20_seed5" / "fan.json"
WPS_1_1_1_27 = {
    "name": "wps_1_1_1_27",
    "dim": 3,
    "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -27]],
    "max_cones": [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]],
}


@pytest.mark.parametrize("fan, seed", [("wps_1_1_20", 5), ("wps_1_1_1_27", 0)])
def test_verify_passes_where_sampled_distinct_half_failed(fan, seed, tmp_path):
    """P(1,1,20) at seed 5 and P(1,1,1,27) at seed 0 failed verify with
    only sampled distinct counterexamples, points that points_equal
    wrongly calls equal (test_complex.py::test_points_equal_distinct_pin);
    the distinct half is now exact, and verify passes."""
    from toricball.cli import main

    path = WPS_1_1_20 if fan == "wps_1_1_20" else tmp_path / "fan.json"
    if fan == "wps_1_1_1_27":
        path.write_text(json.dumps(WPS_1_1_1_27))
    assert main(["verify", str(path), "--seed", str(seed), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    gluing = next(c for c in report["checks"] if c["name"] == "intersection_gluing")
    assert gluing["coverage"]["distinct"] == "exact" and gluing["passed"]
    assert gluing["located"] == {"wps_1_1_20": 6, "wps_1_1_1_27": 24}[fan] * 25
