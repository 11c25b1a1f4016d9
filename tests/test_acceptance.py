"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a `criterion-NN PASS/FAIL` line (visible with -s or in
captured output on failure) and asserts the criterion.  The bundled fan
corpus is the full set of example fans shipped with the package.
"""

import math
import random
from fractions import Fraction

import toricball as tb
from toricball.cellcomplex import (
    build_ball_model,
    build_orbit_complex,
    euler_characteristic,
    pseudomanifold_check,
    verify_gluing,
    verify_regularity,
)
from toricball.charts import exp_flag, psi_eval, psi_invert, theta
from toricball.cli import main
from toricball.homeo import (
    nonextension_probe,
    param_boundary_point,
    phi_coords,
)

from conftest import get_atlas, get_fan, phi_inverse_coords
from test_cones import box_points_in_dual, oracle_generates

BUNDLED = list(tb.BUNDLED_FANS)
TWO_PI = 2 * math.pi


def report(number, ok, detail=""):
    print(f"criterion-{number:02d} {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_simplex_counts():
    counts = {}
    for n, name in ((1, "p1"), (2, "p1xp1"), (3, "p1xp1xp1")):
        model = build_ball_model(get_fan(name))
        counts[name] = len(model.simplices[model.n])
        if counts[name] != 2**n * math.factorial(n):
            report(1, False, f"{name}: {counts[name]}")
    report(1, True, str(counts))


def test_criterion_02_ball_sphere_combinatorics():
    for name in BUNDLED:
        fan = get_fan(name)
        model = build_ball_model(fan)
        chi = euler_characteristic(model.simplices)
        bchi = euler_characteristic(model.boundary_simplices())
        pm = pseudomanifold_check(model)
        ok = chi == 1 and bchi == 1 + (-1) ** (fan.dim - 1) and pm.passed
        if not ok:
            report(2, False, f"{name}: chi={chi} boundary={bchi} pm={pm.passed}")
    report(2, True, f"{len(BUNDLED)} fans")


def test_criterion_03_orbit_complex():
    for name in BUNDLED:
        fan = get_fan(name)
        orbit = build_orbit_complex(fan)
        ok = orbit.euler_characteristic() == 1 and sum(d == fan.dim for _, d in orbit.cells) == 1
        if not ok:
            report(3, False, name)
    report(3, True, f"{len(BUNDLED)} fans")


def test_criterion_04_chart_commutativity():
    worst = 0.0
    rng = random.Random(4)
    for name in BUNDLED:
        atlas = get_atlas(name)
        for chart in atlas.charts():
            gens = tb.flag_cone(chart.flag).generators
            for _ in range(100):
                u = [Fraction(rng.randint(0, 5000), 1000) for _ in gens]
                x = tuple(
                    sum(ui * g[t] for ui, g in zip(u, gens)) for t in range(atlas.fan.dim)
                )
                worst = max(worst, atlas.commutativity_residual(chart, x))
    report(4, worst <= 1e-9, f"worst residual {worst:.3e}")


def _delta_samples_with_strata(rng, n):
    samples = []
    for j in range(1, n + 1):  # >= 50 per zero-prefix stratum
        for _ in range(50):
            tail = sorted(rng.random() for _ in range(n - j))
            samples.append(tuple([0.0] * j + tail))
    while len(samples) < 500:
        samples.append(tuple(sorted(rng.random() for _ in range(n))))
    return samples[:500]


def test_criterion_05_inversion():
    worst = 0.0
    rng = random.Random(5)
    for name in BUNDLED:
        atlas = get_atlas(name)
        n = atlas.fan.dim
        for chart in atlas.charts():
            for w in _delta_samples_with_strata(rng, n):
                back = psi_invert(chart, psi_eval(chart, w), tol=1e-8)
                gap = max((abs(a - b) for a, b in zip(w, back)), default=0.0)
                worst = max(worst, gap)
    report(5, worst <= 1e-10, f"worst roundtrip gap {worst:.3e}")


def test_criterion_06_rescaling_calculus():
    rng = random.Random(6)
    # (a) inverse roundtrip at 1e-10.
    worst_round = 0.0
    for k in (1, 2, 3, 4):
        for _ in range(1000):
            u = tuple(rng.random() * 5 for _ in range(k))
            back = phi_inverse_coords(phi_coords(u))
            worst_round = max(worst_round, max(abs(a - b) for a, b in zip(u, back)))
    # (b) subflag gluing at 1e-12, over every bundled fan.
    worst_glue = 0.0
    for name in BUNDLED:
        fan = get_fan(name)
        n = fan.dim
        from toricball.bary import Flag
        from toricball.homeo import rescale_in_flag

        for flag in tb.enumerate_flags(fan):
            members = list(flag.cones)
            for mask in range(1, 2**n - 1):
                sub = Flag(tuple(members[i] for i in range(n) if mask >> i & 1))
                gens = tb.flag_cone(sub).generators
                coeff = [rng.randint(0, 4000) for _ in gens]
                x = tuple(sum(c * g[t] for c, g in zip(coeff, gens)) for t in range(n))
                a = rescale_in_flag(sub, x)
                b = rescale_in_flag(flag, x)
                worst_glue = max(worst_glue, max((abs(p - q) for p, q in zip(a, b)), default=0.0))
    # (c) barycentric composite at 1e-9 on interior samples.
    worst_comp = 0.0
    for name in BUNDLED:
        atlas = get_atlas(name)
        n = atlas.fan.dim
        for chart in atlas.charts():
            for _ in range(20):
                raw = [rng.random() + 0.02 for _ in range(n + 1)]
                total = sum(raw)
                xi = tuple(x / total for x in raw)
                direct = param_boundary_point(atlas, chart.flag, xi)
                u = tuple(x / xi[0] for x in xi[1:])
                y = psi_eval(chart, theta(exp_flag(phi_coords(u))))
                composite = tuple(y[i] for i in chart.hilbert_rows)
                worst_comp = max(
                    worst_comp, max(abs(a - b) for a, b in zip(direct.values, composite))
                )
    ok = worst_round <= 1e-10 and worst_glue <= 1e-12 and worst_comp <= 1e-9
    report(6, ok, f"roundtrip {worst_round:.2e} gluing {worst_glue:.2e} composite {worst_comp:.2e}")


def test_criterion_07_intersection_gluing():
    worst = 0.0
    for name in BUNDLED:
        atlas = get_atlas(name)
        rep = verify_gluing(atlas, rng=random.Random(7))
        worst = max(worst, rep.worst_shared_gap)
        if not rep.passed:
            report(7, False, f"{name}: {rep.counterexamples[:2]}")
    report(7, True, f"worst shared gap {worst:.3e}")


def test_criterion_08_regularity():
    cells = 0
    for name in BUNDLED:
        rep = verify_regularity(get_fan(name))
        cells += len(rep.cells)
        if not rep.passed:
            bad = [c for c in rep.cells if c["failed"]]
            report(8, False, f"{name}: {bad[:3]}")
    report(8, True, f"{cells} cells across {len(BUNDLED)} fans")


def test_criterion_09_nonextension_witness():
    atlas = get_atlas("p2")
    flag = tb.enumerate_flags(atlas.fan)[0]
    seconds = {}
    firsts = {}
    for c in (1.0, 2.0):
        vals = [nonextension_probe(atlas, flag, c, s) for s in (0.25, 2.0, 12.0)]
        secs = [v[1] for v in vals]
        # The second coordinate is e^(-2 pi c), independent of the path.
        if max(abs(x - math.exp(-TWO_PI * c)) for x in secs) > 1e-15:
            report(9, False, f"c={c}: {secs}")
        seconds[c] = secs[0]
        firsts[c] = vals[-1][0]
    # The two limits are far apart on a relative scale (the absolute gap
    # e^(-2pi) - e^(-4pi) ~ 1.9e-3 is necessarily below 0.1), and the
    # recovered exponents differ by 1.
    rel = abs(seconds[1.0] - seconds[2.0]) / max(seconds.values())
    log_gap = abs(math.log(seconds[1.0]) - math.log(seconds[2.0])) / TWO_PI
    ok = rel > 0.1 and log_gap > 0.1 and firsts[1.0] < 1e-12 and firsts[2.0] < 1e-12
    report(9, ok, f"relative gap {rel:.3f}, exponent gap {log_gap:.3f}")


def test_criterion_10_hilbert_oracle():
    checked = 0
    for name in BUNDLED:
        atlas = get_atlas(name)
        for cone in atlas.fan.cones():
            sem = atlas.hilbert(cone)
            coord_max = max((abs(x) for g in sem.generators for x in g), default=1)
            for p in box_points_in_dual(sem, 2 * coord_max):
                if not oracle_generates(sem, p):
                    report(10, False, f"{name} cone {sorted(cone.rays)}: {p} not generated")
            for g in sem.pointed:
                if oracle_generates(sem, g, skip=g):
                    report(10, False, f"{name} cone {sorted(cone.rays)}: {g} reducible")
            checked += 1
    report(10, True, f"{checked} cones")


def test_criterion_11_negative_controls(tmp_path):
    incomplete = tmp_path / "a2.json"
    incomplete.write_text('{"dim": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}')
    code_incomplete = main(["validate", str(incomplete)])
    code_tamper = main(["verify", str(tb.bundled_path("p2")), "--tamper", "--out", str(tmp_path)])
    ok = code_incomplete == 3 and code_tamper == 4
    report(11, ok, f"incomplete exit {code_incomplete}, tampered exit {code_tamper}")
