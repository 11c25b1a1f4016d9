"""The certification suite: a table of named checks over one context.

Each check reads the shared Context (fan, atlas, maximal flag charts,
its own seeded generator and the results of the checks before it; the
rank is the fan's) and returns (passed, details), or None when it does
not apply to the fan.  Checks run in table order.
Each draws from a generator seeded by the run's seed and its own name,
intersection_gluing included (it hands its generator to
cellcomplex.verify_gluing), so a fixed seed and configuration give a
byte-identical report, and adding, removing or reordering a check
leaves every other entry unchanged.  Each sampling check fixes its own
sample count and tolerance, its contract: INVERSION_SAMPLES points per
group for simplex_inversion, each recovered within INVERSION_TOL
(1e-10); cellcomplex.SHARED_SAMPLES per prefix for intersection_gluing,
each scaled gap within charts.EQUAL_TOL (1e-9), the report's
"tolerance".  nonextension_probe (rank 2) samples two fixed paths and
holds them to three named thresholds: each path's second coordinate
moves by at most PROBE_STABLE_TOL (1e-12), the two paths' second
coordinates differ by more than PROBE_SEPARATION (0.1) of the larger,
and each first coordinate at the last point is below PROBE_LIMIT_TOL
(1e-10).

The float cross-checks are sized by the rank n, not by the Hilbert
basis.  A chart's point is fixed by its n triangular rows, and the exact
gates certify every other row: monomial_diagram's identities each b row
as linear in h (the only certificate of b's values), chart_invariants
that Chart.terms is exactly b's nonzero entries, and intersection_gluing's
identities, with that gate, every localized row (each flag's Hilbert
rows by generator, and each localization rule once, in M).
So simplex_inversion evaluates the n triangular rows only, and
intersection_gluing's shared half only the rows each localization rule
reads (cellcomplex._subflag_cross_check).
A NaN gap fails its check and is reported as null, so that the report
stays strict JSON.

simplex_inversion samples once per group of charts, not once per
chart.  Its kernels read a chart's terms[:n] and b[:n] and nothing
else; the charts whose inputs are equal form a group, and groups are
ordered by their first chart.  Each group is sampled as one chart was
before (500 points of _delta_samples, from the check's own generator),
through its first chart.  Equal inputs give bit-equal floats at equal
points, so more points spread over the duplicates of a group would
show nothing that the same points on its first chart do not: a
duplicate can differ only in its point set, never in its map.  A chart
whose inputs are perturbed has a different key and forms a group of
its own, sampled in full.  On many fans every chart has the same
triangular rows (all 24 charts of p3 are one group, all 3,840 of
(P^1)^5); P(1,1,1,27) has two groups of 24 charts.  A witness names its
group's first flag and, as shared_by, how many flags share the group.
The exact checks, chart_invariants and monomial_diagram, run per chart.

The triangular rows are evaluated, and inverted, over each group's
whole sample batch at once, one column of the batch at a time, by the
bare batch kernels: charts.monomial_columns on the chart's terms[:n],
then charts.invert_triangular.  Per point, the kernels do the float
operations of the single-point evaluator charts._monomials and of
point-by-point back-substitution, in the same order: every product
starts from 1.0 and multiplies the row's terms in column order.
intersection_gluing's shared half runs the same way, one batch per
(maximal flag, nonempty proper prefix subflag): the read Hilbert rows
and the telescoped rows through the same monomial kernel, the rule through
charts.shifted_columns, the batch form of charts._shifted, and the gaps
through charts.scaled_gaps, the terms of Atlas.points_equal.  So
each sampled float, and each report, is the one a point-by-point loop
gives (tests/test_charts.py and tests/test_complex.py keep those loops
as the reference).

Retired checks, which no input that verify accepts can fail or which
another check already runs, and the facts that cover them:

- rescale_gluing: Phi on a subflag is Phi on the flag, bit for bit
  (homeo.rescale_in_flag).
- barycentric_composite: a fan-independent telescoping identity
  (homeo.param_boundary_point).
- orbit_complex: sum over cones of (-1)^(n - dim sigma) is 1 on a
  complete fan (the open cones partition N_R, and their compactly
  supported Euler characteristics (-1)^dim sigma sum to (-1)^n), and the
  zero cone is the only top cell.  Only an incomplete fan could fail
  it, and cover fails there too.  regularity reports the cell count.
- theta_map: theta maps [0, 1]^n onto the chain
  0 <= w_1 <= ... <= w_n <= 1 (z_j = w_j / w_(j+1) is a preimage), a
  float identity at the rank n whatever the fan
  (tests/test_charts.py::test_theta_image_in_simplex, for n <= 8).
- rescale_roundtrip: the closed-form inverse
  u_j = (e^(2 pi v_j) - 1) e^(2 pi (v_1 + ... + v_(j-1))) inverts
  phi_coords, likewise (tests/test_homeo.py::test_phi_roundtrip_property,
  for k <= 8).
- semigroup_law: an embedded point's values multiply along every
  relation h_i + h_j = h_k + h_l of a Hilbert basis.  Its values are
  e^(-2 pi <h, x>) of an exact bilinear pairing (charts.exp_pairings),
  and monomial_diagram's exact identities certify every chart row as
  b_h = (<h, B_j - B_(j-1)>)_j, which is linear in h.  intersection_gluing
  certifies each localization rule sigma -> tau in M, as
  sum_h c_h h = h' + k alpha (cellcomplex.gluing_identities), so by
  that linearity each localized row is b_h' as well.  Equal generator
  sums thus give equal monomials exactly.
- ball_model: the Euler characteristic of the ball model's boundary
  against S^(n-1), and the pseudomanifold check of the model.
  regularity's zero-cone cell runs both tests on the same model,
  build_ball_model(fan) (cellcomplex.verify_regularity), so ball_model
  could fail only where regularity fails.  Each failing regularity cell
  names its pseudomanifold issues.
- star completeness, per regularity cell: the facet-pairing test of
  the maximal cones containing sigma, the completeness of
  star_fan(fan, sigma).  On a validated fan every cell that fails it
  fails regularity's pseudomanifold test too: two tops over each
  interior ridge pair the (n-1)-cones above sigma, connected tops make
  the n-cones above sigma facet-connected, and by the degree argument
  of bary.cover_check those n-cones cover a neighbourhood of sigma's
  relative interior, so no lower-dimensional cone above sigma is
  maximal (the proof is in cellcomplex.verify_regularity).
- intersection_gluing's locate cross-check: 25 interior points per
  maximal flag through the chart's triangular rows and
  charts.invert_triangular, whose recovered simplicial coordinates had
  to be positive and within charts.EQUAL_TOL of their own.
  simplex_inversion runs the same round trip on 500 points per group of
  charts and compares w itself within INVERSION_TOL.  In a sweep at
  seed 0 (P(1,1,k) up to k = 400, P(1,1,1,27), steep and seeded stellar
  fans) every fan that it failed also failed simplex_inversion, and
  every other had gaps <= 4e-16.
- monomial_diagram's float residual: psi(theta(e^(-2 pi u))) against
  e^(-2 pi <g, x>) at seeded points x = sum_i u_i B_i, on each group's
  triangular rows.  theta gives w_j = e^(-2 pi (u_j + ... + u_n)), so
  psi's row b_g has log -2 pi sum_j b_gj (u_j + ... + u_n)
  = -2 pi sum_i u_i (b_g1 + ... + b_gi), a telescoping sum.  The check's
  exact identities certify each partial sum b_g1 + ... + b_gi as
  <g, B_i>, so that log is -2 pi <g, x>, and its dual-basis gate
  certifies that u are x's simplicial coordinates.  The two routes thus
  agree on every fan, and the residual measured only the rounding of
  charts.theta and charts.monomial_columns, fan-independent kernels
  that simplex_inversion runs on the same rows
  (tests/test_charts.py::test_batch_kernels_match_pointwise_reference
  and test_theta_image_in_simplex).  Being absolute, it also missed a
  doubled triangular generator whose values stay far below
  charts.EQUAL_TOL, an edit the identities fail
  (test_doubled_pairing_row_fails_the_identities).
- intersection_gluing's shared samples at the origin: the empty prefix
  subflag of each maximal flag, and the vertex e_0 of every other
  prefix.  At the origin every w_j is 1.0, so every Hilbert value,
  v_alpha, localized row and telescoped row is exactly 1.0 and every
  gap is 0.0, for any integer chart data
  (cellcomplex._subflag_cross_check).

Negative controls, each a test in tests/test_verify.py unless named:

- chart_invariants: a replaced chart (test_check_fails_under_its_control);
  Chart.terms alone perturbed, or one Chart.hilbert_terms row
  (test_chart_invariants_fail_on_perturbed_terms); a zero diagonal
  entry of b, with Chart.terms following b, which the positive-diagonal
  clause alone counts (test_chart_invariants_fail_on_zero_diagonal).
- simplex_inversion, nonextension_probe: a replaced helper
  (test_check_fails_under_its_control); for simplex_inversion also an
  inversion that returns NaN (test_simplex_inversion_fails_on_nan_gaps),
  and flag 0's first triangular row in Chart.terms alone short of its
  w1, with the exact gates passing, or raised to w1^2000, each named by
  the witness (test_perturbed_terms_fail_simplex_inversion_with_exact_gates_passing,
  test_simplex_inversion_names_underflowed_values); one chart of p3,
  not the first, with a perturbed triangular row in Chart.terms, which
  forms a group of its own that the witness names
  (test_perturbed_chart_forms_its_own_inversion_group).  The float
  edits that monomial_diagram's retired residual caught fail it too:
  the triangular-row evaluator off by 1e-6
  (test_monomial_diagram_fails_on_off_triangular_evaluator) and a NaN
  in a later triangular value (test_monomial_diagram_fails_on_nan_residual).
- monomial_diagram: --tamper (test_cli.py::test_verify_tamper_fails);
  an integer left inverse with one entry off by one, so a row off by
  1/7 (test_dual_basis_gate_names_perturbed_inverse); one chart of p3,
  not the first, with its first triangular generator replaced by its
  last, or doubled, each named by the identity witness
  (test_off_pairing_row_forms_its_own_residual_group,
  test_doubled_pairing_row_fails_the_identities).
- cover: incomplete fans of rank 2 and 3 (test_cover_fails_on_incomplete_fans).
- regularity: incomplete fans of rank 2 and 3, where the zero-cone
  cell names its pseudomanifold issues (test_regularity_names_failing_cells);
  the ball model of two copies of P^2, every interior ridge in two tops,
  which pseudomanifold_check fails by its connectivity clause alone
  (test_complex.py::test_pseudomanifold_fails_on_two_disjoint_spheres).
- hilbert_minimality: a generator sum added to every basis
  (test_cli.py::test_hilbert_minimality_names_witnesses).
- intersection_gluing: a perturbed localization rule row or cutting
  functional, two Hilbert rows swapped in hilbert_rows (which
  chart_invariants and monomial_diagram pass), hilbert_rows one row
  short or one row long, named by the row-count witness with no float
  cross-check of that flag
  (test_complex.py::test_gluing_identity_fails_on_hilbert_row_count),
  and a perturbed Hilbert
  row of b or --tamper's b (failed through the monomial_diagram gate),
  each also failing the per-flag reference test_complex.py::_per_flag_identities
  (test_complex.py::test_gluing_identity_fails_on_*); --tamper on p2,
  which names monomial_diagram as a failed gate; a NaN localized value
  (test_complex.py::test_subflag_cross_check_fails_on_nan_gap); a
  localization rule cut short by one row, which the per-flag reference
  misses (test_complex.py::test_gluing_identity_fails_on_truncated_rule);
  a zero cutting functional, which vanishes on sigma's rays off tau
  (test_complex.py::test_gluing_identity_fails_on_zero_cutting_functional).
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from operator import sub

from . import cellcomplex, charts, homeo
from . import cones as _ck
from .bary import cover_check
from .exact import pair
from .fan import Fan


class SettingsError(ValueError):
    """A setting that run_verification rejects: a tamper with no chart
    to perturb."""


@dataclass
class Context:
    fan: Fan
    atlas: charts.Atlas
    charts: list  # one per maximal flag, in enumeration order
    rng: random.Random  # the running check's own generator
    results: dict = field(default_factory=dict)  # check name -> (passed, details), as they run


INVERSION_SAMPLES = 500  # simplex_inversion's points per group
INVERSION_TOL = 1e-10  # simplex_inversion's bound on each recovered point's gap
PROBE_STABLE_TOL = 1e-12  # nonextension_probe: a second coordinate's drift along its path
PROBE_LIMIT_TOL = 1e-10  # nonextension_probe: a first coordinate at the path's end, tending to 0
PROBE_SEPARATION = 0.1  # nonextension_probe: the two paths' relative gap in the second coordinate


def _delta_samples(rng, n, count):
    """Simplex-chain samples: 50 on each zero-prefix boundary stratum,
    then interior ones."""
    draw = rng.random
    out = []
    for j in range(1, n + 1):
        zeros = (0.0,) * j
        out += [zeros + tuple(sorted([draw() for _ in range(n - j)])) for _ in range(50)]
    while len(out) < count:
        out.append(tuple(sorted([draw() for _ in range(n)])))
    return out[:count]


def _sup_gap(a, b) -> float:
    """The sup of |a_i - b_i|, NaN when some gap is NaN (charts.sup_gap)."""
    return charts.sup_gap(map(abs, map(sub, a, b)))


def _json_float(x):
    """A float for the report: None in place of NaN or an infinity, so
    that the report stays strict JSON."""
    return x if math.isfinite(x) else None


def _chart_invariants(ctx):
    """Exponent matrices carry the triangular shape, and the terms that
    the float evaluators read are exactly the nonzero entries of b."""
    bad = sum(charts.chart_violations(chart) for chart in ctx.charts)
    return bad == 0, {"charts": len(ctx.charts), "violations": bad}


def _monomial_diagram(ctx):
    """Both routes into the ambient chart agree, exactly, per chart: each
    partial sum b_g1 + ... + b_gi of the exponent rows equals <g, B_i>,
    computed from the chart's generators and barycenters; and the flag's
    left inverse is dual to the barycenters, <beta_j, B_i> = delta_ij, so
    the simplicial coordinates of x = sum_i u_i B_i are u at every point
    of the cone.  On failure, the first witness of each.
    """
    identities = 0
    witness = dual_witness = None
    for index, chart in enumerate(ctx.charts):
        barys = chart.flag.barycenters
        for g, row in zip(chart.generators, chart.b):
            for i, (found, want) in enumerate(zip(accumulate(row), (pair(g, bary) for bary in barys))):
                identities += 1
                if witness is None and found != want:
                    witness = {"flag": index, "generator": list(g), "column": i, "found": found, "expected": want}
        if dual_witness is None:
            dual_witness = _dual_basis_witness(index, chart.flag)
    details = {"charts": len(ctx.charts), "identities": identities}
    if witness is not None:
        details["witness"] = witness
    if dual_witness is not None:
        details["dual_witness"] = dual_witness
    return witness is None and dual_witness is None, details


def _dual_basis_witness(index, flag):
    """The first (row j, column i) where the flag's left inverse breaks
    <beta_j, B_i> = delta_ij, named with the flag's index; None when it
    is dual to the barycenters.  The inverse is integer rows L over one
    denominator d > 0, beta_j = L_j / d, so the test is the integer one
    <L_j, B_i> = d * delta_ij; found is <beta_j, B_i> as a fraction."""
    left, d, _ = flag.inverse
    for j, row in enumerate(left):
        for i, bary in enumerate(flag.barycenters):
            found, expected = pair(row, bary), int(i == j)
            if found != d * expected:
                return {"flag": index, "row": j, "column": i, "found": str(Fraction(found, d)), "expected": expected}
    return None


def _simplex_inversion(ctx):
    """The triangular inversion recovers simplex points: per group of
    charts with equal terms[:n] and b[:n] (see the module docstring),
    500 seeded points w of Delta_n are mapped by psi's n triangular rows
    and recovered by back-substitution, each step one call of a batch
    kernel over the group's 500 points (charts.monomial_columns on
    terms[:n], then charts.invert_triangular).  Per point, the kernels do the float
    operations of the point-by-point evaluation and back-substitution,
    in the same order, so every gap is the float of a point-by-point
    loop.

    Only those rows determine the preimage.  psi(w) lies in psi's image
    by construction, so a residual over the other m - n rows would
    measure only their float evaluation, which the exact gates certify
    (see the module docstring).  A NaN gap fails the check and is reported
    as null.  On failure, the witness is the worst sample, or the first
    with a NaN gap: its group's first flag, how many flags share the
    group, w, the recovered w and the number of leading zeros of w, its
    boundary stratum.
    """
    groups = {}  # (terms[:n], b[:n]) -> chart indices
    for index, chart in enumerate(ctx.charts):
        groups.setdefault((chart.terms[: chart.n], chart.b[: chart.n]), []).append(index)
    worst, worst_group = 0.0, None
    for flags in groups.values():
        chart = ctx.charts[flags[0]]
        points = _delta_samples(ctx.rng, ctx.fan.dim, INVERSION_SAMPLES)
        values = charts.monomial_columns(chart.terms[: chart.n], list(zip(*points)), len(points))
        back = charts.invert_triangular(chart.b[: chart.n], values)
        gap = charts.sup_gap(map(_sup_gap, zip(*points), back))
        if worst == worst and not gap <= worst:  # a new worst, or the first NaN
            worst, worst_group = gap, (flags, points, back)
    details = {
        "charts": len(ctx.charts),
        "groups": len(groups),
        "samples_per_group": INVERSION_SAMPLES,
        "worst_gap": _json_float(worst),
    }
    passed = worst <= INVERSION_TOL
    if not passed:
        flags, points, back = worst_group
        w, v = next((w, v) for w, v in zip(points, zip(*back)) if (gap := _sup_gap(w, v)) == worst or gap != gap)
        zeros = next((i for i, x in enumerate(w) if x != 0.0), len(w))
        details["witness"] = {
            "flag": flags[0],
            "shared_by": len(flags),
            "w": list(w),
            "recovered": list(map(_json_float, v)),
            "zeros": zeros,
        }
    return passed, details


def _cover(ctx):
    """The maximal flag cones cover N_R, by the exact certificate of
    bary.cover_check; on failure, its witness."""
    passed, witness = cover_check(ctx.fan)
    return passed, {} if passed else {"witness": witness}


def _intersection_gluing(ctx):
    """Closed flag simplices meet exactly in their shared faces: exact
    identities on the shared faces, whose b values rest on the
    monomial_diagram gate; distinct interior points by the exact
    corollary of cellcomplex.verify_gluing, which rests on both gates of
    _distinct_gates; float cross-checks of the evaluators on both halves."""
    glue = cellcomplex.verify_gluing(ctx.atlas, rng=ctx.rng)
    gates = _distinct_gates(ctx.results)
    return glue.passed and all(gates.values()), {
        "identities": glue.identities,
        "coverage": {"shared": "exact", "distinct": "exact"},
        "gates": gates,
        "shared_samples": glue.shared_samples,
        "worst_shared_gap": glue.worst_shared_gap,
        "counterexamples": glue.counterexamples[:5],
    }


def _distinct_gates(results):
    """The verdicts the distinct half rests on, and for monomial_diagram
    the shared half too, read from the checks already run:
    monomial_diagram and cover.  A gate that has not run counts as
    failed."""
    diagram, cover = results.get("monomial_diagram"), results.get("cover")
    return {"monomial_diagram": diagram is not None and diagram[0], "cover": cover is not None and cover[0]}


def _regularity(ctx):
    """Every cell closure is a combinatorial ball: each cone's star ball
    model, read off the fan's face lattice, is a pseudomanifold whose
    boundary, the cell's link, has the Euler characteristic of a sphere
    (see cellcomplex.verify_regularity; star completeness follows).  On
    failure, up to five failing cells, each named by its cone's rays
    with the tests it failed, Euler characteristic of the link sphere
    and pseudomanifold, and the pseudomanifold check's issues."""
    reg = cellcomplex.verify_regularity(ctx.fan)
    if reg.passed:
        return True, {"cells": len(reg.cells)}
    failures = [{key: cell[key] for key in ("rays", "failed", "issues")} for cell in reg.cells if cell["failed"]]
    return False, {"cells": len(reg.cells), "failures": failures[:5]}


def _hilbert_minimality(ctx):
    """Every stored semigroup basis is minimal; on failure, names up to
    five generators with a reducer (see cones.minimality_violations)."""
    cones = ctx.fan.cones()
    witnesses = [
        {"cone": sorted(cone.rays), "generator": list(g), "reducer": list(h)}
        for cone in cones
        for g, h in _ck.minimality_violations(ctx.atlas.hilbert(cone))
    ]
    if not witnesses:
        return True, {"cones": len(cones)}
    return False, {"cones": len(cones), "witnesses": witnesses[:5]}


def _nonextension_probe(ctx):
    """Rank 2 only: the plain exponential limit is path dependent.  The
    probe runs in the chart of the first maximal flag, which the report
    names, along u = (s, c) for c = 1, 2 and s = 0.5, 3, 9, held to
    PROBE_STABLE_TOL, PROBE_SEPARATION and PROBE_LIMIT_TOL."""
    if ctx.fan.dim != 2:
        return None
    vals = [homeo.nonextension_probe(ctx.atlas, ctx.charts[0].flag, c, s) for c in (1.0, 2.0) for s in (0.5, 3.0, 9.0)]
    second = [v[1] for v in vals]
    stable = max(abs(second[i] - second[i + 1]) for i in (0, 1, 3, 4))
    separated = abs(second[0] - second[3]) > PROBE_SEPARATION * max(second[0], second[3])
    firsts_to_zero = vals[2][0] < PROBE_LIMIT_TOL and vals[5][0] < PROBE_LIMIT_TOL
    passed = stable <= PROBE_STABLE_TOL and separated and firsts_to_zero
    return passed, {"flag": 0, "second_coordinates": [second[0], second[3]]}


CHECKS = (
    ("chart_invariants", _chart_invariants),
    ("monomial_diagram", _monomial_diagram),
    ("simplex_inversion", _simplex_inversion),
    ("cover", _cover),
    ("intersection_gluing", _intersection_gluing),
    ("regularity", _regularity),
    ("hilbert_minimality", _hilbert_minimality),
    ("nonextension_probe", _nonextension_probe),
)


def run_verification(fan: Fan, seed: int = 0, tamper: bool = False, timings=None):
    """Run every certification check on a complete fan.

    Returns a JSON-ready report; report["passed"] is the overall verdict.
    With tamper=True one chart's exponent matrix is perturbed first, as a
    negative control: the monomial-diagram check must then fail.  When
    timings is a dict, the wall seconds of each check that applies are
    stored in it under the check's name; the report does not change.
    Raises SettingsError, a ValueError, once the charts are built, when
    tamper is set on a fan with no chart (rank 0), where a negative
    control would perturb nothing and pass.  The report's "tolerance" is
    charts.EQUAL_TOL, the bound of intersection_gluing's scaled gaps.
    """
    atlas = charts.Atlas(fan)
    chart_list = atlas.charts()
    if tamper:
        if not chart_list:
            raise SettingsError("tamper needs a chart to perturb, and a rank-0 fan has none")
        # Negative control: perturb the last exponent of the first chart.
        first = chart_list[0]
        b = [list(r) for r in first.b]
        b[-1][-1] += 1
        atlas._charts[first.flag] = dataclasses.replace(first, b=tuple(tuple(r) for r in b))
        chart_list = atlas.charts()
    ctx = Context(fan=fan, atlas=atlas, charts=chart_list, rng=None)
    checks = []
    for name, check in CHECKS:
        # A str seed: tuple seeds raise TypeError on Python >= 3.11.
        ctx.rng = random.Random(f"{seed}:{name}")
        start = time.perf_counter()
        result = check(ctx)
        if result is None:
            continue
        if timings is not None:
            timings[name] = time.perf_counter() - start
        ctx.results[name] = result
        passed, details = result
        checks.append({"name": name, "passed": bool(passed), **details})
    return {
        "fan": fan.name,
        "dim": fan.dim,
        "seed": seed,
        "tolerance": charts.EQUAL_TOL,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
