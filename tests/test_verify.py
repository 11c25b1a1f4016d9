"""The sample loops of the verify checks against the exact Fraction
routes they replace, and the exact gates beside them."""

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
