"""The certification suite: a table of named checks over one context.

Each check reads the shared Context (fan, atlas, charts, maximal flags,
rank, tolerance, sample count, its own seeded generator and the results
of the checks before it) and returns (passed, details), or None when it
does not apply to the fan.  Checks run in table order.  Each draws from
a generator seeded by the run's seed and its own name, so a fixed seed
and configuration give a byte-identical report, and adding, removing or
reordering a check leaves every other entry unchanged.

Retired checks, which no input that verify accepts can fail, and the
facts that cover them:

- rescale_gluing: Phi on a subflag is Phi on the flag, bit for bit
  (homeo.rescale_in_flag).
- barycentric_composite: a fan-independent telescoping identity
  (homeo.param_boundary_point).
- orbit_complex: sum over cones of (-1)^(n - dim sigma) is 1 on a
  complete fan (the open cones partition N_R, and their compactly
  supported Euler characteristics (-1)^dim sigma sum to (-1)^n), and the
  zero cone is the only top cell.  Only an incomplete fan could fail
  it, and cover fails there too.  regularity reports the cell count.
- theta_map: theta maps [0, 1]^n into the chain
  0 <= w_1 <= ... <= w_n <= 1 and theta_preimage inverts it, a float
  identity at the rank n whatever the fan
  (tests/test_charts.py::test_theta_image_in_simplex, for n <= 8).
- rescale_roundtrip: phi_inverse_coords inverts phi_coords, likewise
  (tests/test_homeo.py::test_phi_roundtrip_property, for k <= 8).
- semigroup_law: an embedded point's values multiply along every
  relation h_i + h_j = h_k + h_l of a Hilbert basis.  Its values are
  e^(-2 pi <h, x>) of an exact bilinear pairing (charts.exp_pairings),
  and monomial_diagram's exact identities certify every chart row as
  b_h = (<h, B_j - B_(j-1)>)_j, which is linear in h; intersection_gluing
  certifies the same of the localized rows (cellcomplex.gluing_identities).  Equal generator sums thus
  give equal monomials exactly.

Negative controls, each a test in tests/test_verify.py unless named:

- chart_invariants, simplex_inversion, nonextension_probe: a replaced
  chart or helper
  (test_check_fails_under_its_control).
- monomial_diagram: --tamper (test_cli.py::test_verify_tamper_fails);
  a left inverse off by 1/7 (test_dual_basis_gate_names_perturbed_inverse).
- cover: incomplete fans of rank 2 and 3 (test_cover_fails_on_incomplete_fans).
- ball_model: p2 less a maximal cone (test_ball_model_fails_on_incomplete_fan).
- regularity: incomplete fans of rank 2 and 3 (test_regularity_names_failing_cells).
- hilbert_minimality: a generator sum added to every basis
  (test_cli.py::test_hilbert_minimality_names_witnesses).
- intersection_gluing: a perturbed localization rule or exponent row
  (test_complex.py); a sign flipped in cellcomplex._log_pairings, or in
  cellcomplex._cone_point's back-substitution (test_complex.py);
  Chart.terms alone perturbed, with the exact gates passing; --tamper on
  p2, which names monomial_diagram as a failed gate.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from dataclasses import dataclass, field
from itertools import accumulate
from operator import mul, sub

from . import cellcomplex, charts, homeo
from . import cones as _ck
from .bary import cover_check, enumerate_flags
from .charts import TWO_PI
from .exact import pair
from .fan import Fan


@dataclass
class Context:
    fan: Fan
    atlas: charts.Atlas
    charts: list
    flags: list  # maximal flags, in enumeration order
    n: int
    tol: float
    samples: int
    seed: int
    rng: random.Random  # the running check's own generator
    results: dict = field(default_factory=dict)  # check name -> (passed, details), as they run


def _delta_samples(rng, n, count):
    """Simplex-chain samples: 50 on each zero-prefix boundary stratum,
    then interior ones."""
    out = []
    for j in range(1, n + 1):
        for _ in range(50):
            tail = sorted(rng.random() for _ in range(n - j))
            out.append(tuple([0.0] * j + tail))
    while len(out) < count:
        out.append(tuple(sorted(rng.random() for _ in range(n))))
    return out[:count]


def _sup_gap(a, b) -> float:
    return max(map(abs, map(sub, a, b)), default=0.0)


def _chart_invariants(ctx):
    """Exponent matrices carry the triangular shape."""
    bad = sum(charts.chart_violations(chart) for chart in ctx.charts)
    return bad == 0, {"charts": len(ctx.charts), "violations": bad}


def _monomial_diagram(ctx):
    """Both routes into the ambient chart agree.

    Exactly, per chart: each partial sum b_g1 + ... + b_gi of the
    exponent rows equals <g, B_i>, computed from the chart's generators
    and barycenters; and the flag's left inverse is dual to the
    barycenters, <beta_j, B_i> = delta_ij, so the simplicial coordinates
    of x = sum_i u_i B_i are u at every point of the cone.  On failure,
    the first witness of each.  As a cross-check of the evaluators, the
    seeded residuals of _diagram_residuals.
    """
    identities = 0
    witness = dual_witness = None
    worst = 0.0
    for index, chart in enumerate(ctx.charts):
        barys = chart.flag.barycenters
        pairings = [[pair(g, bary) for bary in barys] for g in chart.generators]
        for g, row, expected in zip(chart.generators, chart.b, pairings):
            for i, (found, want) in enumerate(zip(accumulate(row), expected)):
                identities += 1
                if witness is None and found != want:
                    witness = {"flag": index, "generator": list(g), "column": i, "found": found, "expected": want}
        if dual_witness is None:
            dual_witness = _dual_basis_witness(index, chart.flag)
        worst = max([worst, *_diagram_residuals(chart, pairings, ctx.rng, ctx.samples)])
    details = {"identities": identities, "worst_residual": worst, "samples_per_chart": ctx.samples}
    if witness is not None:
        details["witness"] = witness
    if dual_witness is not None:
        details["dual_witness"] = dual_witness
    return witness is None and dual_witness is None and worst <= ctx.tol, details


def _dual_basis_witness(index, flag):
    """The first (row j, column i) where the flag's left inverse breaks
    <beta_j, B_i> = delta_ij, named with the flag's index; None when it
    is dual to the barycenters."""
    for j, beta in enumerate(flag.inverse[0]):
        for i, bary in enumerate(flag.barycenters):
            found, expected = pair(beta, bary), int(i == j)
            if found != expected:
                return {"flag": index, "row": j, "column": i, "found": str(found), "expected": expected}
    return None


def _diagram_residuals(chart, pairings, rng, count):
    """Per seeded point x = sum_i u_i B_i of the flag cone, u_i = k_i/1000
    with k_i drawn from 0..4000: the sup gap between the monomial route
    psi(theta(exp(-2 pi u))) and the direct route exp(-2 pi <g, x>) =
    exp(-2 pi (sum_i k_i <g, B_i>) / 1000), read from the integer
    pairings <g, B_i>.  Int / int division is correctly rounded, so these
    are the floats of Atlas.commutativity_residual at x (which recovers u
    through the left inverse that _monomial_diagram certifies)."""
    for _ in range(count):
        k = [rng.randint(0, 4000) for _ in chart.flag.barycenters]
        monomial = charts.psi_eval(chart, charts.theta([math.exp(-TWO_PI * (ki / 1000)) for ki in k]))
        direct = [math.exp(-TWO_PI * (sum(map(mul, k, row)) / 1000)) for row in pairings]
        yield _sup_gap(monomial, direct)


def _simplex_inversion(ctx):
    """The triangular inversion recovers simplex points: per chart, 500
    seeded points w of Delta_n are mapped by psi's n triangular rows
    (charts.triangular_eval) and recovered by back-substitution
    (charts.invert_triangular).

    Only those rows determine the preimage.  psi(w) lies in psi's image
    by construction, so a residual over the other m - n rows would
    measure only their float evaluation, which _diagram_residuals
    cross-checks on every row of every chart.
    """
    worst = 0.0
    for chart in ctx.charts:
        rows = chart.b[: chart.n]
        for w in _delta_samples(ctx.rng, ctx.n, 500):
            worst = max(worst, _sup_gap(w, charts.invert_triangular(rows, charts.triangular_eval(chart, w))))
    return worst <= 1e-10, {"worst_gap": worst}


def _cover(ctx):
    """The maximal flag cones cover N_R, by the exact certificate of
    bary.cover_check; on failure, its witness."""
    passed, witness = cover_check(ctx.fan)
    return passed, {} if passed else {"witness": witness}


def _ball_model(ctx):
    """The ball model's boundary has the Euler characteristic of
    S^(n-1) and the model is a pseudomanifold.  The model is a cone over
    its boundary, so its own Euler characteristic is 1 for any fan: it
    is reported, not tested."""
    model = cellcomplex.build_ball_model(ctx.fan)
    chi = cellcomplex.euler_characteristic(model.simplices)
    boundary_chi = cellcomplex.euler_characteristic(model.boundary_simplices())
    pm = cellcomplex.pseudomanifold_check(model)
    return boundary_chi == cellcomplex.sphere_euler(ctx.n - 1) and pm.passed, {
        "euler": chi,
        "boundary_euler": boundary_chi,
        "top_simplices": len(model.maximal_simplices()),
        "pseudomanifold": pm.passed,
        "issues": list(pm.issues),
    }


def _intersection_gluing(ctx):
    """Closed flag simplices meet exactly in their shared faces: exact
    identities on the shared faces; distinct interior points by the
    exact corollary of cellcomplex.verify_gluing, which rests on the
    gates of _distinct_gates; float cross-checks of the evaluators on
    both halves."""
    glue = cellcomplex.verify_gluing(ctx.atlas, samples_per_pair=50, tol=ctx.tol, seed=ctx.seed)
    gates = _distinct_gates(ctx.results)
    return glue.passed and all(gates.values()), {
        "identities": glue.identities,
        "coverage": {"shared": "exact", "distinct": "exact"},
        "gates": gates,
        "located": glue.located_samples,
        "worst_shared_gap": glue.worst_shared_gap,
        "counterexamples": glue.counterexamples[:5],
    }


def _distinct_gates(results):
    """The verdicts the distinct half rests on, read from the checks
    already run: monomial_diagram's exact part (no identity witness and
    no dual_witness; its float residuals are not a gate) and cover.  A
    gate that has not run counts as failed."""
    diagram, cover = results.get("monomial_diagram"), results.get("cover")
    return {
        "monomial_diagram": diagram is not None and not {"witness", "dual_witness"} & diagram[1].keys(),
        "cover": cover is not None and cover[0],
    }


def _regularity(ctx):
    """Every cell closure is a combinatorial ball: each cone's star,
    read off the fan's face lattice, is complete and its link is a
    sphere (see cellcomplex.verify_regularity).  On failure, up to five
    failing cells, each named by its cone's rays with the tests it
    failed: star completeness, Euler characteristic of the link sphere,
    pseudomanifold."""
    reg = cellcomplex.verify_regularity(ctx.fan)
    if reg.passed:
        return True, {"cells": len(reg.cells)}
    failures = [{"rays": cell["rays"], "failed": cell["failed"]} for cell in reg.cells if cell["failed"]]
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
    """Rank 2 only: the plain exponential limit is path dependent."""
    if ctx.n != 2:
        return None
    vals = [homeo.nonextension_probe(ctx.atlas, ctx.flags[0], c, s) for c in (1.0, 2.0) for s in (0.5, 3.0, 9.0)]
    second = [v[1] for v in vals]
    stable = max(abs(second[i] - second[i + 1]) for i in (0, 1, 3, 4))
    separated = abs(second[0] - second[3]) > 0.1 * max(second[0], second[3])
    firsts_to_zero = vals[2][0] < 1e-10 and vals[5][0] < 1e-10
    return stable <= 1e-12 and separated and firsts_to_zero, {"second_coordinates": [second[0], second[3]]}


CHECKS = (
    ("chart_invariants", _chart_invariants),
    ("monomial_diagram", _monomial_diagram),
    ("simplex_inversion", _simplex_inversion),
    ("cover", _cover),
    ("ball_model", _ball_model),
    ("intersection_gluing", _intersection_gluing),
    ("regularity", _regularity),
    ("hilbert_minimality", _hilbert_minimality),
    ("nonextension_probe", _nonextension_probe),
)


def run_verification(
    fan: Fan, tol: float = 1e-9, samples: int = 100, seed: int = 0, tamper: bool = False, timings=None
):
    """Run every certification check on a complete fan.

    Returns a JSON-ready report; report["passed"] is the overall verdict.
    With tamper=True one chart's exponent matrix is perturbed first, as a
    negative control: the monomial-diagram check must then fail.  When
    timings is a dict, the wall seconds of each check that applies are
    stored in it under the check's name; the report does not change.
    """
    atlas = charts.Atlas(fan)
    chart_list = atlas.charts()
    if tamper and chart_list:
        # Negative control: perturb the last exponent of the first chart.
        first = chart_list[0]
        b = [list(r) for r in first.b]
        b[-1][-1] += 1
        atlas._charts[first.flag] = dataclasses.replace(first, b=tuple(tuple(r) for r in b))
        chart_list = atlas.charts()
    ctx = Context(
        fan=fan,
        atlas=atlas,
        charts=chart_list,
        flags=enumerate_flags(fan, only_maximal=True),
        n=fan.dim,
        tol=tol,
        samples=samples,
        seed=seed,
        rng=None,
    )
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
        "tolerance": tol,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
