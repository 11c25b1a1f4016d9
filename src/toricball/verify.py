"""The certification suite: a table of named checks over one context.

Each check reads the shared Context (fan, atlas, charts, maximal flags,
rank, tolerance, sample count and one seeded generator) and returns
(passed, details), or None when it does not apply to the fan.  Checks
run in table order and draw from the shared generator in turn, so a
fixed seed and configuration give a byte-identical report.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import cellcomplex, charts, homeo
from . import cones as _ck
from .bary import Flag, cover_check, enumerate_flags, flag_cone, simplicial_coords
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
    rng: random.Random


def _random_cone_point(rng, flag, scale=4):
    """Exact rational point of the flag's cone (nonnegative coordinates)."""
    gens = flag_cone(flag).generators
    u = [Fraction(rng.randint(0, 1000 * scale), 1000) for _ in gens]
    return tuple(sum(ui * g[i] for ui, g in zip(u, gens)) for i in range(len(gens[0])))


def _delta_samples(rng, n, count, strata_each=50):
    """Simplex-chain samples, including zero-prefix boundary strata."""
    out = []
    for j in range(1, n + 1):
        for _ in range(strata_each):
            tail = sorted(rng.random() for _ in range(n - j))
            out.append(tuple([0.0] * j + tail))
    while len(out) < count:
        out.append(tuple(sorted(rng.random() for _ in range(n))))
    return out[:count]


def _sup_gap(a, b) -> float:
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def _chart_invariants(ctx):
    """Exponent matrices carry the triangular shape."""
    bad = sum(charts.chart_violations(chart) for chart in ctx.charts)
    return bad == 0, {"charts": len(ctx.charts), "violations": bad}


def _monomial_diagram(ctx):
    """Both routes into the ambient chart agree: exactly, each partial
    sum b_g1 + ... + b_gi of the exponent rows equals <g, B_i> computed
    from the chart's generators and barycenters (on failure, the first
    witness); and at seeded points, as a cross-check of the evaluators."""
    identities = 0
    witness = None
    for index, chart in enumerate(ctx.charts):
        for g, row in zip(chart.generators, chart.b):
            for i, bary in enumerate(chart.flag.barycenters):
                identities += 1
                found, expected = sum(row[: i + 1]), pair(g, bary)
                if witness is None and found != expected:
                    witness = {
                        "flag": index,
                        "generator": list(g),
                        "column": i,
                        "found": found,
                        "expected": expected,
                    }
    worst = 0.0
    for chart in ctx.charts:
        for _ in range(ctx.samples):
            x = _random_cone_point(ctx.rng, chart.flag)
            worst = max(worst, ctx.atlas.commutativity_residual(chart, x))
    details = {"identities": identities, "worst_residual": worst, "samples_per_chart": ctx.samples}
    if witness is not None:
        details["witness"] = witness
    return witness is None and worst <= ctx.tol, details


def _simplex_inversion(ctx):
    """The triangular inversion recovers simplex points."""
    worst = 0.0
    ok = True
    for chart in ctx.charts:
        for w in _delta_samples(ctx.rng, ctx.n, 500):
            try:
                back = charts.psi_invert(chart, charts.psi_eval(chart, w), tol=1e-8)
            except charts.NotInImage:
                ok = False
                continue
            worst = max(worst, _sup_gap(w, back))
    return ok and worst <= 1e-10, {"worst_gap": worst}


def _theta_map(ctx):
    """theta lands in the simplex chain; suffix ratios invert it."""
    worst = 0.0
    for _ in range(500):
        w = charts.theta(tuple(ctx.rng.random() for _ in range(ctx.n)))
        back = charts.theta(charts.theta_preimage(w))
        worst = max(worst, charts.delta_chain_violation(w), _sup_gap(w, back))
    return worst <= 1e-12, {"worst_gap": worst}


def _rescale_roundtrip(ctx):
    """phi_inverse_coords inverts phi_coords."""
    worst = 0.0
    for k in range(1, ctx.n + 1):
        for _ in range(1000):
            u = tuple(ctx.rng.random() * 5 for _ in range(k))
            worst = max(worst, _sup_gap(u, homeo.phi_inverse_coords(homeo.phi_coords(u))))
    return worst <= 1e-10, {"worst_gap": worst}


def _rescale_gluing(ctx):
    """Phi on a subflag agrees with Phi on the full flag, and subflag
    points have zero coordinates off the subflag."""
    n = ctx.n
    worst = 0.0
    subflag_ok = True
    for flag in ctx.flags:
        members = list(flag.cones)
        for mask in range(1, 2**n - 1):
            sub = Flag(tuple(members[i] for i in range(n) if mask >> i & 1))
            x = _random_cone_point(ctx.rng, sub)
            worst = max(worst, _sup_gap(homeo.rescale_in_flag(sub, x), homeo.rescale_in_flag(flag, x)))
            u_full = simplicial_coords(flag, x)
            if any(not mask >> i & 1 and u_full[i] != 0 for i in range(n)):
                subflag_ok = False
    return subflag_ok and worst <= 1e-12, {"worst_gap": worst}


def _barycentric_composite(ctx):
    """The boundary parameterization agrees with psi . theta . exp . Phi
    on the interior, and with the ratio formula."""
    n, rng = ctx.n, ctx.rng
    worst = 0.0
    chain_ok = True
    for chart in ctx.charts:
        for _ in range(50):
            raw = [rng.random() + 0.01 for _ in range(n + 1)]
            total = sum(raw)
            xi = tuple(Fraction(x).limit_denominator(10**6) / Fraction(total).limit_denominator(10**6) for x in raw)
            xi = tuple(x / sum(xi) for x in xi)
            direct = homeo.param_boundary_point(ctx.atlas, chart.flag, xi)
            u = tuple(float(x / xi[0]) for x in xi[1:])
            composite = charts.psi_eval(chart, charts.theta(charts.exp_flag(homeo.phi_coords(u))))
            comp_point = tuple(composite[i] for i in chart.hilbert_rows)
            worst = max(worst, _sup_gap(direct.values, comp_point))
            w = homeo.bary_to_delta(xi)
            ratio = [(1 + sum(u[:j])) / (1 + sum(u)) for j in range(n)]
            worst = max(worst, max(abs(float(a) - b) for a, b in zip(w, ratio)))
            chain_ok = chain_ok and charts.delta_chain_violation(w) == 0
    return chain_ok and worst <= ctx.tol, {"worst_gap": worst}


def _cover(ctx):
    """The maximal flag cones cover N_R, by the exact certificate of
    bary.cover_check; on failure, its witness."""
    passed, witness = cover_check(ctx.fan)
    return passed, {} if passed else {"witness": witness}


def _ball_model(ctx):
    model = cellcomplex.build_ball_model(ctx.fan)
    chi = cellcomplex.euler_characteristic(model.simplices)
    boundary_chi = cellcomplex.euler_characteristic(model.boundary_simplices())
    pm = cellcomplex.pseudomanifold_check(model)
    return chi == 1 and boundary_chi == 1 + (-1) ** (ctx.n - 1) and pm.passed, {
        "euler": chi,
        "boundary_euler": boundary_chi,
        "top_simplices": len(model.maximal_simplices()),
        "pseudomanifold": pm.passed,
        "issues": list(pm.issues),
    }


def _orbit_complex(ctx):
    orbit = cellcomplex.build_orbit_complex(ctx.fan)
    euler, top = orbit.euler_characteristic(), len(orbit.top_cells())
    return euler == 1 and top == 1, {"euler": euler, "top_cells": top}


def _intersection_gluing(ctx):
    """Closed flag simplices meet exactly in their shared faces: exact
    identities on the shared faces, seeded samples for distinct points
    (see cellcomplex.verify_gluing)."""
    glue = cellcomplex.verify_gluing(ctx.atlas, samples_per_pair=50, tol=ctx.tol, seed=ctx.seed)
    return glue.passed, {
        "pairs": glue.pairs_checked,
        "identities": glue.identities,
        "coverage": {"shared": "exact", "distinct": glue.distinct_coverage},
        "worst_shared_gap": glue.worst_shared_gap,
        "counterexamples": glue.counterexamples[:5],
    }


def _regularity(ctx):
    reg = cellcomplex.verify_regularity(ctx.fan)
    return reg.passed, {"cells": len(reg.cells)}


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


def _semigroup_law(ctx):
    """The semigroup law holds on embedded points."""
    worst = 0.0
    for cone in ctx.fan.maximal_cones():
        for _ in range(10):
            x = tuple(Fraction(ctx.rng.randint(-2000, 2000), 1000) for _ in range(ctx.n))
            worst = max(worst, ctx.atlas.semigroup_residual(ctx.atlas.expi_point(x, cone)))
    return worst <= ctx.tol, {"worst_gap": worst}


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
    ("theta_map", _theta_map),
    ("rescale_roundtrip", _rescale_roundtrip),
    ("rescale_gluing", _rescale_gluing),
    ("barycentric_composite", _barycentric_composite),
    ("cover", _cover),
    ("ball_model", _ball_model),
    ("orbit_complex", _orbit_complex),
    ("intersection_gluing", _intersection_gluing),
    ("regularity", _regularity),
    ("hilbert_minimality", _hilbert_minimality),
    ("semigroup_law", _semigroup_law),
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
        rng=random.Random(seed),
    )
    checks = []
    for name, check in CHECKS:
        start = time.perf_counter()
        result = check(ctx)
        if result is None:
            continue
        if timings is not None:
            timings[name] = time.perf_counter() - start
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
