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
from conftest import drop_first_term, incomplete_fans, p2_with_terms, stellar_fan, wps_fan
from toricball import cellcomplex, charts, homeo, verify
from toricball.cli import main
from toricball.cones import dual_generators
from toricball.exact import vscale

WPS_1_1_1_9 = Path(__file__).parent / "data" / "golden" / "verify_wps_1_1_1_9" / "fan.json"


def _atlas(name):
    if name == "wps_1_1_1_9":
        return tb.Atlas(tb.parse_and_validate(WPS_1_1_1_9.read_text()))
    return tb.Atlas(tb.load_bundled(name))


def _context(fan, atlas=None):
    chart_list = atlas.charts() if atlas else []
    return verify.Context(fan, atlas, chart_list, random.Random(0))


def _spy_monomial_columns(monkeypatch):
    """Record the (rows, points) shape of every batch that verify's
    float checks evaluate through charts.monomial_columns, and that no
    other evaluator of psi is called."""
    shapes = []
    monomial_columns = charts.monomial_columns

    def spy(rows, columns, count):
        values = monomial_columns(rows, columns, count)
        shapes.append((len(values), len(values[0])))
        return values

    def other(*args):
        raise AssertionError("an evaluator other than monomial_columns")

    monkeypatch.setattr(charts, "monomial_columns", spy)
    monkeypatch.setattr(charts, "_monomials", other)
    return shapes


def _inversion_with_monomial_columns(monkeypatch, edit):
    """simplex_inversion on p112 with the triangular values of each
    sample point, from charts.monomial_columns, passed through edit."""
    fan = tb.load_bundled("p112")
    monomial_columns = charts.monomial_columns
    monkeypatch.setattr(
        charts,
        "monomial_columns",
        lambda rows, columns, count: [list(r) for r in zip(*map(edit, zip(*monomial_columns(rows, columns, count))))],
    )
    return verify._simplex_inversion(_context(fan, tb.Atlas(fan)))


def test_monomial_diagram_fails_on_off_triangular_evaluator(monkeypatch):
    """The control of monomial_diagram's retired float residual, now
    failed by simplex_inversion: a triangular-row evaluator off by 1e-6
    moves the values off psi's image, so back-substitution lands far
    from w.  The worst gap is 1.0, and the witness names flag 0, whose
    group all 4 charts of p112 share, with w and the recovered point
    that far apart."""
    passed, details = _inversion_with_monomial_columns(monkeypatch, lambda y: tuple(v + 1e-6 for v in y))
    witness = details["witness"]
    assert not passed and details["worst_gap"] == 1.0
    assert (witness["flag"], witness["shared_by"]) == (0, 4)
    assert verify._sup_gap(witness["w"], witness["recovered"]) == 1.0


def test_monomial_diagram_fails_on_nan_residual(monkeypatch):
    """The control of monomial_diagram's retired float residual, now
    failed by simplex_inversion: a NaN in the second triangular value,
    where max alone would drop it, fails the check; the worst gap is
    reported as null, and the witness is reported, strict JSON."""
    passed, details = _inversion_with_monomial_columns(monkeypatch, lambda y: (y[0], math.nan, *y[2:]))
    assert not passed and details["worst_gap"] is None
    witness = details["witness"]
    assert (witness["flag"], witness["shared_by"]) == (0, 4) and None in witness["recovered"]
    json.dumps(details, allow_nan=False)


def test_sup_gap_keeps_nan():
    assert verify._sup_gap((0.5, 0.25), (0.5, 0.5)) == 0.25
    assert math.isnan(verify._sup_gap((0.5, math.nan), (0.5, 0.5)))
    assert math.isnan(verify._sup_gap((math.nan, 0.5), (0.5, 0.5)))
    assert verify._sup_gap((), ()) == 0.0


def _perturb_inverse(flag):
    """Put the flag's integer inverse (L, d, A) over 7 * d, the same
    rational rows, then add 1 to the integer entry L[1][0]: beta_1 moves
    by (1/(7d), 0)."""
    left, d, annihilator = flag.inverse
    left = [[7 * a for a in row] for row in left]
    left[1][0] += 1
    flag.__dict__["inverse"] = (tuple(map(tuple, left)), 7 * d, annihilator)


def test_dual_basis_gate_names_perturbed_inverse():
    """With one integer entry of a flag's left inverse off by one (beta_1
    off by 1/7), every identity on b still holds, but the dual-basis
    gate fails and names the flag, the row j and the column i, with the
    pairing found as a fraction."""
    fan = tb.load_bundled("p2")
    atlas = tb.Atlas(fan)
    ctx = _context(fan, atlas)
    passed, details = verify._monomial_diagram(ctx)
    assert passed and "dual_witness" not in details
    flag = ctx.charts[3].flag
    assert flag.inverse[1] == 1
    _perturb_inverse(flag)
    passed, bad = verify._monomial_diagram(ctx)
    assert not passed and "witness" not in bad
    # Flag 3 is [1] < [1, 2], with B = ((0, 1), (-1, 0)): L_1 is now
    # (-6, 0) over d = 7, which still vanishes on B_0 but pairs to 6, not
    # 7, with B_1.
    assert bad["dual_witness"] == {"flag": 3, "row": 1, "column": 1, "found": "6/7", "expected": 1}


def test_regularity_names_failing_cells():
    """On the complete p2 the entry is the cell count alone; on an
    unvalidated incomplete fan (p2 without one maximal cone) the check
    names each failing cone with the tests it failed and the
    pseudomanifold issues.  The zero-cone cell is the retired
    ball_model check: its link is the boundary of build_ball_model(fan),
    whose unpaired faces it names."""
    p2 = tb.load_bundled("p2")
    assert verify._regularity(_context(p2)) == (True, {"cells": 7})
    fan, rank3 = incomplete_fans()
    failed = ["euler", "pseudomanifold"]
    ray_issues = ["face [0] lies in 1 top simplices, expected 2"]
    zero_issues = [
        "face [0, 1] lies in 1 top simplices, expected 2",
        "face [0, 3] lies in 1 top simplices, expected 2",
    ]
    assert list(cellcomplex.pseudomanifold_check(cellcomplex.build_ball_model(fan)).issues) == zero_issues
    assert verify._regularity(_context(fan)) == (
        False,
        {
            "cells": 6,
            "failures": [
                {"rays": rays, "failed": failed, "issues": issues}
                for rays, issues in (([], zero_issues), ([0], ray_issues), ([2], ray_issues))
            ],
        },
    )
    # At most five failing cells are named.
    passed, details = verify._regularity(_context(rank3))
    assert not passed and details["cells"] == 14
    assert [f["rays"] for f in details["failures"]] == [[], [0], [1], [3], [0, 1]]
    # The link of every failing cell is no sphere.
    assert all("euler" in f["failed"] and f["issues"] for f in details["failures"])


def test_ball_model_fails_on_incomplete_fan():
    """The facts the retired ball_model check tested, now run by
    regularity's zero-cone cell: the ball model's own Euler
    characteristic is 1 for every fan, while the boundary and
    pseudomanifold tests fail on p2 without one maximal cone."""
    p2 = cellcomplex.build_ball_model(tb.load_bundled("p2"))
    assert cellcomplex.euler_characteristic(p2.simplices) == 1
    assert cellcomplex.euler_characteristic(p2.boundary_simplices()) == cellcomplex.sphere_euler(1)
    assert cellcomplex.pseudomanifold_check(p2).passed
    model = cellcomplex.build_ball_model(incomplete_fans()[0])
    assert cellcomplex.euler_characteristic(model.simplices) == 1
    assert cellcomplex.euler_characteristic(model.boundary_simplices()) == 1 != cellcomplex.sphere_euler(1)
    assert not cellcomplex.pseudomanifold_check(model).passed


def test_cover_fails_on_incomplete_fans():
    """The incomplete fans of test_regularity_names_failing_cells fail
    cover with a witness.  This is where the retired orbit_complex gate
    could have failed: on a complete fan its Euler sum and top cell
    count are 1 whatever the fan."""
    for fan in incomplete_fans():
        passed, details = verify._cover(_context(fan))
        assert not passed and details["witness"]


def _psi_route_inversion(ctx):
    """simplex_inversion through all m rows: psi_eval, then psi_invert
    with its residual over the m - n non-triangular rows, on every chart.
    Each distinct (terms[:n], b[:n]) draws its 500 points once, in order
    of first chart, and every chart that shares it is run at them."""
    worst = 0.0
    ok = True
    points = {}
    for chart in ctx.charts:
        key = (chart.terms[: chart.n], chart.b[: chart.n])
        if key not in points:
            points[key] = verify._delta_samples(ctx.rng, ctx.fan.dim, 500)
        for w in points[key]:
            try:
                back = charts.psi_invert(chart, charts.psi_eval(chart, w), tol=1e-8)
            except charts.NotInImage:
                ok = False
                continue
            worst = max(worst, verify._sup_gap(w, back))
    details = {"charts": len(ctx.charts), "groups": len(points), "samples_per_group": 500, "worst_gap": worst}
    return ok and worst <= 1e-10, details


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
    """On P(1,1,1,27), whose charts have up to 408 rows, each of the
    500 samples of a group evaluates exactly the n = 3 triangular
    monomials, in one batch per group: its 24 charts have two distinct
    pairs of triangular terms and b rows."""
    atlas = tb.Atlas(tb.parse_and_validate(json.dumps(WPS_1_1_1_27)))
    ctx = _context(atlas.fan, atlas)
    shapes = _spy_monomial_columns(monkeypatch)
    passed, details = verify._simplex_inversion(ctx)
    assert passed and (details["charts"], details["groups"]) == (24, 2)
    assert shapes == [(3, 500)] * 2


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


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="w**k underflows to 0.0 in the linear-value floats; log-domain points (ROADMAP item 1)",
)
@pytest.mark.parametrize(
    "weights, seed",
    [((1, 1, 90), 0), ((1, 1, 400), 0), ((1, 1, 1, 60), 7)],
    ids=["1_1_90-0", "1_1_400-0", "1_1_1_60-7"],
)
def test_wps_underflow_gate(weights, seed):
    """ROADMAP item 1's gates on valid complete fans that verify rejects
    today.  P(1,1,90) fails simplex_inversion at seed 0 (worst gap
    7.7e-4); P(1,1,400) fails it (0.374); its witness, on flag 1, which
    shares its group with one other flag, is recovered at w_1 = 0.0.
    P(1,1,1,60) passes at seed 0 (a CI step runs it) but fails
    simplex_inversion at seed 7, and nothing else: worst gap 5.1e-4 on
    flag 1, where w_1 underflows."""
    assert verify.run_verification(wps_fan(len(weights) - 1, weights[-1]), seed=seed)["passed"]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="w**k underflows to 0.0 in the linear-value floats; log-domain points (ROADMAP item 1)",
)
@pytest.mark.parametrize("seed", [0, 3])
def test_stellar_underflow_gate(seed):
    """ROADMAP item 1's gates on stellar subdivisions of p3 that verify
    rejects today: stellar_fan(p3, 6, 12, s) fails simplex_inversion for
    s = 0 (worst gap 0.157, 43 groups of 96 charts) and s = 3 (0.484,
    50 groups of 96).  Their largest triangular exponents are 280 and
    540."""
    assert verify.run_verification(stellar_fan(tb.load_bundled("p3"), 6, 12, seed), seed=0)["passed"]


def _replace_chart(monkeypatch, ctx):
    """An exponent below the diagonal of the first chart's b."""
    b = [list(row) for row in ctx.charts[0].b]
    b[1][0] += 1
    ctx.charts[0] = dataclasses.replace(ctx.charts[0], b=tuple(map(tuple, b)))


def _off_inversion(monkeypatch, ctx):
    invert = charts.invert_triangular
    monkeypatch.setattr(charts, "invert_triangular", lambda b, y: [[w + 1e-6 for w in col] for col in invert(b, y)])


def test_simplex_inversion_fails_on_nan_gaps(monkeypatch):
    """invert_triangular returning NaN for every sample fails the check,
    with the worst gap reported as None and the first sample of the
    first group (flag 0, shared by 4 of p112's 6 flags), on the w_1 = 0
    stratum, as the witness, its recovered w as nulls."""
    fan = tb.load_bundled("p112")
    monkeypatch.setattr(charts, "invert_triangular", lambda b, y: [[math.nan] * len(y[0]) for _ in b])
    ctx = _context(fan, tb.Atlas(fan))
    (w,) = verify._delta_samples(random.Random(0), 2, 1)
    witness = {"flag": 0, "shared_by": 4, "w": list(w), "recovered": [None, None], "zeros": 1}
    details = {"charts": 6, "groups": 2, "samples_per_group": 500, "worst_gap": None, "witness": witness}
    assert verify._simplex_inversion(ctx) == (False, details)
    json.dumps(witness, allow_nan=False)


def _path_independent_probe(monkeypatch, ctx):
    # Both coordinates tend to 0 along every path: an embedding that extends.
    monkeypatch.setattr(
        homeo, "nonextension_probe", lambda atlas, flag, c, s: (math.exp(-charts.TWO_PI * (s + c)), math.exp(-s))
    )


@pytest.mark.parametrize("entry", ["terms", "hilbert_terms"])
def test_chart_invariants_fail_on_perturbed_terms(entry):
    """Only Chart.terms of p2's flag-0 chart changes (drop_first_term:
    its first row loses its w1), or only its first hilbert_terms row: b
    and c are as built, and chart_invariants counts the one entry that
    no longer matches b."""
    fan = tb.load_bundled("p2")
    ctx = _context(fan, tb.Atlas(fan))
    assert verify._chart_invariants(ctx) == (True, {"charts": 6, "violations": 0})
    chart = ctx.charts[0]
    chart.hilbert_terms  # cached from the unperturbed terms
    chart.__dict__[entry] = drop_first_term(getattr(chart, entry))
    assert verify._chart_invariants(ctx) == (False, {"charts": 6, "violations": 1})


def test_chart_invariants_fail_on_zero_diagonal():
    """p2's flag-0 chart with b's second diagonal entry set to 0: the row
    stays nonnegative, nothing below the diagonal changes, and Chart.terms
    follow the new b, so only the positive-diagonal clause counts it."""
    fan = tb.load_bundled("p2")
    ctx = _context(fan, tb.Atlas(fan))
    b = [list(row) for row in ctx.charts[0].b]
    assert b[1][1] > 0
    b[1][1] = 0
    ctx.charts[0] = dataclasses.replace(ctx.charts[0], b=tuple(map(tuple, b)))
    assert charts.chart_violations(ctx.charts[0]) == 1
    assert verify._chart_invariants(ctx) == (False, {"charts": 6, "violations": 1})


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
    assert check(_context(fan, tb.Atlas(fan)))[0]
    ctx = _context(fan, tb.Atlas(fan))
    CONTROLS[name](monkeypatch, ctx)
    assert not check(ctx)[0]


def test_every_check_lists_its_negative_control():
    section = verify.__doc__.split("Negative controls")[1]
    listed = {name.strip() for bullet in section.split("\n- ")[1:] for name in bullet.split(":")[0].split(",")}
    assert [name for name, _ in verify.CHECKS if name not in listed] == []


def _entries(fan, **kwargs):
    return {c["name"]: c for c in verify.run_verification(fan, **kwargs)["checks"]}


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


@pytest.mark.parametrize("name, shared", [("p1", 0), ("p2", 6 * 1 * 25)])
def test_verify_reports_intersection_gluing_shared_samples(name, shared, tmp_path, capsys):
    """intersection_gluing's entry counts its shared samples: (maximal
    flags) x (nonempty proper prefixes) x SHARED_SAMPLES.  A rank-1 fan
    has no nonempty proper prefix, so its worst_shared_gap of 0.0 rests
    on no sample, and the count of 0 says so."""
    assert main(["verify", str(tb.bundled_path(name)), "--seed", "0", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    checks = {c["name"]: c for c in json.loads((tmp_path / "report.json").read_text())["checks"]}
    assert checks["intersection_gluing"]["shared_samples"] == shared


def _gluing_after_gates(fan, atlas):
    """intersection_gluing as run_verification runs it: after the
    monomial_diagram and cover checks, whose results it reads."""
    ctx = _context(fan, atlas)
    checks = dict(verify.CHECKS)
    for name in ("monomial_diagram", "cover"):
        ctx.results[name] = checks[name](ctx)
    return ctx, verify._intersection_gluing(ctx)


def test_perturbed_terms_fail_simplex_inversion_with_exact_gates_passing():
    """Only Chart.terms of flag 0 changes (its first triangular row, w1 *
    w2, loses its w1): the float evaluators are wrong, the exact data is
    not.  The exact gates of monomial_diagram and the gluing identities
    hold, and simplex_inversion fails.  Its witness is flag 0's first
    sample on the w_1 = 0 stratum, recovered at w_1 = w_2 / w_2 = 1."""
    fan, atlas = p2_with_terms(drop_first_term)
    ctx, (_, details) = _gluing_after_gates(fan, atlas)
    diagram = ctx.results["monomial_diagram"][1]
    assert "witness" not in diagram and "dual_witness" not in diagram
    assert details["gates"] == {"monomial_diagram": True, "cover": True}
    assert details["identities"] == 6 * 2 + 3 * 13 and details["counterexamples"] == []
    passed, details = verify._simplex_inversion(ctx)
    witness = details["witness"]
    assert not passed and details["worst_gap"] == 1.0 and details["groups"] == 2
    assert witness["flag"] == 0 and witness["shared_by"] == 1 and witness["zeros"] == 1
    assert witness["w"][0] == 0.0 and witness["recovered"] == [1.0, witness["w"][1]]


def test_perturbed_terms_fail_locate_cross_check_with_exact_gates_passing(monkeypatch):
    """The edit that intersection_gluing's retired locate cross-check
    failed on (drop_first_term on flag 0's Chart.terms) still fails verify
    end to end.  In the report, intersection_gluing passes with its exact
    gates and has no located field; simplex_inversion, which runs the
    same round trip, fails with a witness on flag 0."""
    fan, atlas = p2_with_terms(drop_first_term)
    monkeypatch.setattr(charts, "Atlas", lambda _: atlas)
    report = verify.run_verification(fan, seed=0)
    checks = {c["name"]: c for c in report["checks"]}
    diagram, gluing, inversion = (checks[n] for n in ("monomial_diagram", "intersection_gluing", "simplex_inversion"))
    assert not report["passed"]
    assert "witness" not in diagram and "dual_witness" not in diagram
    assert gluing["passed"] and gluing["gates"] == {"monomial_diagram": True, "cover": True}
    assert gluing["coverage"] == {"shared": "exact", "distinct": "exact"} and "located" not in gluing
    assert not inversion["passed"] and inversion["witness"]["flag"] == 0


def test_simplex_inversion_names_underflowed_values():
    """With w1^2000 for flag 0's first triangular row, that value
    underflows to 0.0 for w_1 below about 0.7, and is recovered at
    w_1 = 0.0; above, at w_1^2000 / w_2, which is far below w_1.
    simplex_inversion fails with a witness on flag 0, not an error."""
    fan, atlas = p2_with_terms(lambda terms: (((0, 2000),), *terms[1:]))
    passed, details = verify._simplex_inversion(_context(fan, atlas))
    witness = details["witness"]
    assert not passed and witness["flag"] == 0 and witness["zeros"] == 0
    assert witness["recovered"][0] < 1e-30 and details["worst_gap"] == witness["w"][0] - witness["recovered"][0]


P3_MIDDLE = 11  # a flag of p3 in the middle of its 24


def test_perturbed_chart_forms_its_own_inversion_group():
    """All 24 charts of p3 share their triangular rows, so
    simplex_inversion samples them as one group.  With one triangular
    row of a middle flag's Chart.terms short of a term, that chart forms
    a group of its own, sampled in full: the check fails, and its
    witness names that flag, shared by it alone."""
    fan = tb.load_bundled("p3")
    atlas = tb.Atlas(fan)
    passed, details = verify._simplex_inversion(_context(fan, atlas))
    assert passed and (details["charts"], details["groups"]) == (24, 1)
    chart = atlas.charts()[P3_MIDDLE]
    chart.__dict__["terms"] = drop_first_term(chart.terms)
    passed, details = verify._simplex_inversion(_context(fan, atlas))
    assert not passed and (details["charts"], details["groups"]) == (24, 2)
    assert details["witness"]["flag"] == P3_MIDDLE and details["witness"]["shared_by"] == 1


def _diagram_with_first_generator(replace):
    """monomial_diagram on p3 with a middle flag's first triangular
    generator g_0 replaced by replace(chart), its b left as it was."""
    fan = tb.load_bundled("p3")
    ctx = _context(fan, tb.Atlas(fan))
    assert verify._monomial_diagram(ctx)[0]
    chart = ctx.charts[P3_MIDDLE]
    ctx.charts[P3_MIDDLE] = dataclasses.replace(chart, generators=(replace(chart), *chart.generators[1:]))
    return verify._monomial_diagram(ctx)


def test_off_pairing_row_forms_its_own_residual_group():
    """The control of monomial_diagram's retired residual groups, now
    failed by its identities: a middle flag of p3 whose first triangular
    generator is replaced by its last has the off first pairing row
    (0, 0, 1) in place of (1, 2, 3), so its b row's first partial sum,
    1, is not <g, B_0> = 0.  The identity witness names that flag at
    column 0."""
    passed, details = _diagram_with_first_generator(lambda chart: chart.generators[2])
    witness = details["witness"]
    assert not passed and "dual_witness" not in details
    assert (witness["flag"], witness["column"], witness["found"], witness["expected"]) == (P3_MIDDLE, 0, 1, 0)


def test_doubled_pairing_row_fails_the_identities():
    """A middle flag of p3 whose first triangular generator is doubled
    has the off first pairing row (2, 4, 6) in place of (1, 2, 3).  The
    retired float residual read 3.85e-14 there over 20 draws, a pass,
    since the values it compared were tiny; the exact identities fail
    it, and the witness names that flag at column 0, found 1 where
    <2 g_0, B_0> = 2 is expected."""
    passed, details = _diagram_with_first_generator(lambda chart: vscale(2, chart.generators[0]))
    witness = details["witness"]
    assert not passed and "dual_witness" not in details
    assert (witness["flag"], witness["column"], witness["found"], witness["expected"]) == (P3_MIDDLE, 0, 1, 2)


def test_nonextension_probe_names_its_flag(monkeypatch):
    """The probe runs in the chart of the first maximal flag, and the
    report names it."""
    fan = tb.load_bundled("p2")
    ctx = _context(fan, tb.Atlas(fan))
    seen, probe = [], homeo.nonextension_probe
    monkeypatch.setattr(homeo, "nonextension_probe", lambda a, flag, *rest: seen.append(flag) or probe(a, flag, *rest))
    passed, details = verify._nonextension_probe(ctx)
    assert passed and details["flag"] == 0
    assert set(seen) == {tb.enumerate_flags(fan)[0]}


def test_distinct_half_fails_with_a_failed_gate():
    """A left inverse with one integer entry off by one fails
    monomial_diagram's dual_witness: the samples of intersection_gluing
    still pass, its verdict does not.  A gate that has not run counts as
    failed."""
    fan = tb.load_bundled("p2")
    atlas = tb.Atlas(fan)
    _perturb_inverse(atlas.charts()[3].flag)
    ctx, (passed, details) = _gluing_after_gates(fan, atlas)
    assert "dual_witness" in ctx.results["monomial_diagram"][1]
    assert details["gates"] == {"monomial_diagram": False, "cover": True}
    assert details["counterexamples"] == [] and not passed
    assert verify._distinct_gates({}) == {"monomial_diagram": False, "cover": False}


def test_tamper_names_monomial_diagram_as_failed_gate(tmp_path):
    from toricball.cli import main

    assert main(["verify", str(tb.bundled_path("p2")), "--tamper", "--out", str(tmp_path)]) == 4
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
