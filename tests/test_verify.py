"""The sample loops of the verify checks against the exact Fraction
routes they replace, the exact gates beside them, and a negative
control for every check."""

import dataclasses
import json
import math
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import toricball as tb
from toricball import charts, homeo, verify
from toricball.cones import dual_generators
from toricball.exact import pair

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


@pytest.mark.parametrize("seed", [3, 11])
def test_diagram_residuals_match_fraction_route(atlas, seed):
    for chart in atlas.charts():
        pairings = [[pair(g, b) for b in chart.flag.barycenters] for g in chart.generators]
        new = list(verify._diagram_residuals(chart, pairings, random.Random(seed), 10))
        old = list(_fraction_residuals(atlas, chart, random.Random(seed), 10))
        assert new == old


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


def _incomplete_fans():
    """p2 without one maximal cone, and P^3 without one: unvalidated
    incomplete fans of rank 2 and 3."""
    return (
        tb.validate_fan(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2]], require_complete=False),
        tb.validate_fan(
            3,
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
            [[0, 1, 2], [1, 2, 3], [0, 2, 3]],
            require_complete=False,
        ),
    )


def test_regularity_names_failing_cells():
    """On the complete p2 the entry is the cell count alone; on an
    unvalidated incomplete fan (p2 without one maximal cone) the check
    names each failing cone with the tests it failed."""
    p2 = tb.load_bundled("p2")
    assert verify._regularity(_context(p2)) == (True, {"cells": 7})
    fan, rank3 = _incomplete_fans()
    failed = ["star_complete", "euler", "pseudomanifold"]
    assert verify._regularity(_context(fan)) == (
        False,
        {"cells": 6, "failures": [{"rays": rays, "failed": failed} for rays in ([], [0], [2])]},
    )
    # At most five failing cells are named.
    passed, details = verify._regularity(_context(rank3))
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


def test_cover_fails_on_incomplete_fans():
    """The incomplete fans of test_regularity_names_failing_cells fail
    cover with a witness.  This is where the retired orbit_complex gate
    could have failed: on a complete fan its Euler sum and top cell
    count are 1 whatever the fan."""
    for fan in _incomplete_fans():
        passed, details = verify._cover(_context(fan))
        assert not passed and details["witness"]


def _psi_route_inversion(ctx):
    """simplex_inversion through all m rows: psi_eval, then psi_invert
    with its residual over the m - n non-triangular rows."""
    worst = 0.0
    ok = True
    for chart in ctx.charts:
        for w in verify._delta_samples(ctx.rng, ctx.n, 500):
            try:
                back = charts.psi_invert(chart, charts.psi_eval(chart, w), tol=1e-8)
            except charts.NotInImage:
                ok = False
                continue
            worst = max(worst, verify._sup_gap(w, back))
    return ok and worst <= 1e-10, {"worst_gap": worst}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", ["p112", "twisted_p3", "wps_1_1_1_9"])
def test_simplex_inversion_matches_psi_route(name, seed):
    """Reading only the triangular rows gives the entry of the all-rows
    route on every chart."""
    atlas = _atlas(name)
    ctx = _context(atlas.fan, atlas)
    ctx.rng = random.Random(seed)
    new = verify._simplex_inversion(ctx)
    ctx.rng = random.Random(seed)
    assert new == _psi_route_inversion(ctx)


def test_simplex_inversion_evaluates_triangular_rows_only(monkeypatch):
    """On P(1,1,1,27), whose charts have up to 408 rows, each sample
    evaluates exactly the n = 3 triangular monomials."""
    atlas = tb.Atlas(tb.parse_and_validate(json.dumps(WPS_1_1_1_27)))
    ctx = _context(atlas.fan, atlas)
    rows = []
    monomials = charts._monomials
    monkeypatch.setattr(charts, "_monomials", lambda terms, w: rows.append(len(terms)) or monomials(terms, w))
    assert verify._simplex_inversion(ctx)[0]
    assert rows == [3] * (500 * len(ctx.charts))


def _steep(k):
    """The complete rank-2 fan with rays (1,0), (-1,k), (-1,0), (0,-1)."""
    return tb.validate_fan(2, [(1, 0), (-1, k), (-1, 0), (0, -1)], [[0, 1], [1, 2], [2, 3], [3, 0]])


_UNDERFLOW = pytest.mark.xfail(
    strict=True,
    reason="w**119 underflows to 0.0 in the linear-value points; log-domain points (ROADMAP item 1)",
)


@pytest.mark.parametrize("name", ["simplex_inversion", "nonextension_probe"])
@pytest.mark.parametrize("k", [50, pytest.param(119, marks=_UNDERFLOW)])
def test_steep_fan_underflow_pin(name, k):
    """At k = 50 both checks pass.  At k = 119 simplex_inversion's worst
    gap is 0.027 and nonextension_probe's second coordinates are both
    0.0: the monomials underflow."""
    fan = _steep(k)
    atlas = tb.Atlas(fan)
    ctx = _context(fan, atlas)
    ctx.rng = random.Random(f"0:{name}")
    assert dict(verify.CHECKS)[name](ctx)[0]


def _replace_chart(monkeypatch, ctx):
    """An exponent below the diagonal of the first chart's b."""
    b = [list(row) for row in ctx.charts[0].b]
    b[1][0] += 1
    ctx.charts[0] = dataclasses.replace(ctx.charts[0], b=tuple(map(tuple, b)))


def _off_inversion(monkeypatch, ctx):
    invert = charts.invert_triangular
    monkeypatch.setattr(charts, "invert_triangular", lambda b, y: tuple(w + 1e-6 for w in invert(b, y)))


def _path_independent_probe(monkeypatch, ctx):
    # Both coordinates tend to 0 along every path: an embedding that extends.
    monkeypatch.setattr(
        homeo, "nonextension_probe", lambda atlas, flag, c, s: (math.exp(-charts.TWO_PI * (s + c)), math.exp(-s))
    )


CONTROLS = {
    "chart_invariants": _replace_chart,
    "simplex_inversion": _off_inversion,
    "nonextension_probe": _path_independent_probe,
}


@pytest.mark.parametrize("name", list(CONTROLS))
def test_check_fails_under_its_control(monkeypatch, name):
    """Each check passes on p112 (rank 2, with a singular cone) and fails
    with one chart replaced or one helper it reads monkeypatched."""
    fan = tb.load_bundled("p112")
    check = dict(verify.CHECKS)[name]
    assert check(_context(fan, tb.Atlas(fan), samples=5))[0]
    ctx = _context(fan, tb.Atlas(fan), samples=5)
    CONTROLS[name](monkeypatch, ctx)
    assert not check(ctx)[0]


def test_every_check_lists_its_negative_control():
    section = verify.__doc__.split("Negative controls")[1]
    listed = {name.strip() for bullet in section.split("\n- ")[1:] for name in bullet.split(":")[0].split(",")}
    assert [name for name, _ in verify.CHECKS if name not in listed] == []


def _entries(fan, **kwargs):
    return {c["name"]: c for c in verify.run_verification(fan, samples=10, **kwargs)["checks"]}


@pytest.mark.parametrize("dropped", [name for name, _ in verify.CHECKS if name not in ("monomial_diagram", "cover")])
def test_entries_survive_a_dropped_check(monkeypatch, dropped):
    """Each check draws from a generator seeded by its own name, so
    dropping one leaves every other entry unchanged (monomial_diagram
    and cover are gates that intersection_gluing reads)."""
    fan = tb.load_bundled("p2")
    full = _entries(fan, seed=3)
    monkeypatch.setattr(verify, "CHECKS", tuple(c for c in verify.CHECKS if c[0] != dropped))
    assert _entries(fan, seed=3) == {name: entry for name, entry in full.items() if name != dropped}


def test_entries_survive_a_reversed_table(monkeypatch):
    """In reverse order every entry is unchanged except
    intersection_gluing's, whose gates have not run yet and count as
    failed."""
    fan = tb.load_bundled("p2")
    full = _entries(fan)
    monkeypatch.setattr(verify, "CHECKS", verify.CHECKS[::-1])
    reversed_ = _entries(fan)
    assert list(reversed_) == list(full)[::-1]
    gluing = reversed_.pop("intersection_gluing")
    assert gluing["gates"] == {"monomial_diagram": False, "cover": False} and not gluing["passed"]
    assert reversed_ == {name: entry for name, entry in full.items() if name != "intersection_gluing"}


def test_verify_p4_passes(tmp_path):
    """Rank 4: P^4 (120 maximal flags) passes verify at seed 0."""
    from toricball.cli import main

    rays = [[int(i == j) for i in range(4)] for j in range(4)] + [[-1] * 4]
    doc = {"name": "p4", "dim": 4, "rays": rays, "max_cones": [list(c) for c in combinations(range(5), 4)]}
    path = tmp_path / "p4.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--seed", "0", "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["dim"] == 4 and all(c["passed"] for c in report["checks"])


@pytest.mark.parametrize("name", ["p3", "twisted_p3"])
def test_verify_runs_no_dual_description_after_validation(monkeypatch, name):
    """Validation runs the double description on the fan's maximal cones
    and their pairs; verification reads every cone's facets and every
    cell's star off the validated face lattice and runs none."""
    fan = tb.parse_and_validate(Path(tb.bundled_path(name)).read_text())
    calls = []
    monkeypatch.setattr("toricball.cones.dual_generators", lambda *args: calls.append(args) or dual_generators(*args))
    assert verify.run_verification(fan, seed=0)["passed"]
    assert calls == []


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


def _wps_1_1_1(k):
    """Fan JSON of P(1,1,1,k): its cone {0, 1, 3} has multiplicity k."""
    rays = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -k]]
    return {"name": f"wps_1_1_1_{k}", "dim": 3, "rays": rays, "max_cones": [list(c) for c in combinations(range(4), 3)]}


def test_verify_wps_1_1_1_60_passes(tmp_path):
    """High multiplicity: P(1,1,1,60), whose largest Hilbert basis has
    1,891 generators, passes verify at seed 0 with a report, not a
    traceback."""
    from toricball.cli import main

    path = tmp_path / "wps_1_1_1_60.json"
    path.write_text(json.dumps(_wps_1_1_1(60)))
    assert main(["verify", str(path), "--seed", "0", "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] and all(c["passed"] for c in report["checks"])


@pytest.mark.xfail(
    strict=True,
    raises=OverflowError,
    reason="e^(-2 pi <h, x>) overflows a float for a large Hilbert generator h; log-domain points (ROADMAP item 1)",
)
def test_expi_point_high_multiplicity_pin():
    """At x = (-2, -2, 2) the generator h = (60, 0, -1) of P(1,1,1,60)'s
    cone {0, 1, 3} pairs to -122, and e^(2 pi 122) is not a float."""
    doc = _wps_1_1_1(60)
    fan = tb.validate_fan(3, doc["rays"], doc["max_cones"])
    point = tb.Atlas(fan).expi_point((Fraction(-2), Fraction(-2), Fraction(2)), fan.cone({0, 1, 3}))
    assert all(math.isfinite(v) for v in point.values)
