"""Ball model, orbit complex, gluing and regularity verification."""

import json
from collections import defaultdict
from itertools import combinations, product
from pathlib import Path

import pytest

import toricball as tb
from conftest import cube_faces_fan
from toricball import cellcomplex
from toricball.bary import locate_flag
from toricball.cellcomplex import (
    build_ball_model,
    build_orbit_complex,
    euler_characteristic,
    gluing_identities,
    pseudomanifold_check,
    verify_gluing,
    verify_regularity,
)
from toricball.charts import triangular_eval
from toricball.exact import pair
from toricball.fan import star_fan, validate_fan
from toricball.homeo import bary_to_delta


def test_ball_model_p1(p1):
    model = build_ball_model(p1)
    assert len(model.maximal_simplices()) == 2
    assert euler_characteristic(model.simplices) == 1
    boundary = model.boundary_simplices()
    assert euler_characteristic(boundary) == 2  # two points
    assert len(boundary.get(0, ())) == 2


def test_ball_model_p2(p2):
    model = build_ball_model(p2)
    # 7 vertices (origin + 6 cones), 12 edges, 6 triangles.
    assert model.f_vector() == (7, 12, 6)
    assert euler_characteristic(model.simplices) == 1
    boundary = model.boundary_simplices()
    # Boundary hexagon: 6 vertices, 6 edges.
    assert len(boundary[0]) == 6 and len(boundary[1]) == 6
    assert euler_characteristic(boundary) == 0
    assert pseudomanifold_check(model).passed


def test_ball_model_cube_fan(cube_fan):
    model = build_ball_model(cube_fan)
    assert len(model.maximal_simplices()) == 48
    assert euler_characteristic(model.simplices) == 1
    assert euler_characteristic(model.boundary_simplices()) == 2
    assert pseudomanifold_check(model).passed


def test_ball_model_matches_flag_count(p3, twisted_p3):
    for fan in (p3, twisted_p3):
        model = build_ball_model(fan)
        flags = tb.enumerate_flags(fan, only_maximal=True)
        assert len(model.maximal_simplices()) == len(flags)
        boundary = model.boundary_simplices()
        assert len(boundary[fan.dim - 1]) == len(flags)


def test_flag_simplex_order_isomorphism(p2, p3):
    # The model is exactly the order complex of the nonzero-cone poset,
    # coned at the origin vertex: boundary simplices = chains, interior
    # simplices = chains plus the origin, bijectively with flags.
    for fan in (p2, p3):
        model = build_ball_model(fan)
        flags = tb.enumerate_flags(fan, only_maximal=False)
        interior = {s for ss in model.simplices.values() for s in ss if 0 in s}
        boundary = {s for ss in model.simplices.values() for s in ss if 0 not in s}
        assert len(flags) == len(interior)
        cones_by_vid = {i + 1: c for i, c in enumerate(c for c in fan.cones() if c.dim > 0)}
        chains = set()
        for flag in flags:
            ids = frozenset(
                vid for vid, c in cones_by_vid.items() if c.rays in {d.rays for d in flag.cones}
            )
            if ids:
                chains.add(ids)
            assert ids | {0} in interior
        assert boundary == chains
        # Every boundary simplex really is a chain: pairwise comparable.
        for s in boundary:
            members = [cones_by_vid[v] for v in s]
            for a in members:
                for b in members:
                    assert a.rays <= b.rays or b.rays <= a.rays


def test_pseudomanifold_fails_on_incomplete():
    fan = validate_fan(2, [(1, 0), (0, 1)], [[0, 1]], require_complete=False)
    model = build_ball_model(fan)
    report = pseudomanifold_check(model)
    assert not report.passed
    assert report.issues  # names the unpaired faces


def test_orbit_complex_p2(p2):
    orbit = build_orbit_complex(p2)
    # 3 zero-cells (max cones), 3 one-cells (rays), 1 two-cell.
    dims = sorted(d for _, d in orbit.cells)
    assert dims == [0, 0, 0, 1, 1, 1, 2]
    assert orbit.euler_characteristic() == 1
    assert orbit.top_cells() == [()]


def test_orbit_complex_incidence(p2):
    orbit = build_orbit_complex(p2)
    # Closure of the ray cell contains the adjacent fixed points.
    assert orbit.in_closure((0, 1), (0,))
    assert not orbit.in_closure((0,), (0, 1))


def test_orbit_euler_all(p1, p2, p1xp1, p3, cube_fan, p112, twisted_p3):
    for fan in (p1, p2, p1xp1, p3, cube_fan, p112, twisted_p3):
        orbit = build_orbit_complex(fan)
        assert orbit.euler_characteristic() == 1
        assert len(orbit.top_cells()) == 1


def test_verify_gluing_p2(atlas_p2):
    report = verify_gluing(atlas_p2, samples_per_pair=30, tol=1e-9, seed=0)
    assert report.passed
    assert report.worst_shared_gap <= 1e-9
    # Per flag: |H| is 2 on the top cone, 3 on each ray and 4 on the zero
    # cone, plus one cutting functional per proper face: 2 + 2*3 + 4 + 3.
    assert report.identities == 6 * 15
    assert report.shared_samples == 6 * 2**2 * 15  # (flag, subflag) x samples
    assert report.located_samples == 6 * 15  # maximal flag x samples


def _perturbed_gluing(edit):
    """gluing_identities and verify_gluing on a fresh p2 atlas after
    edit(atlas, flag) has changed the exact data of flag 0."""
    atlas = tb.Atlas(tb.load_bundled("p2"))
    flags = tb.enumerate_flags(atlas.fan, only_maximal=True)
    edit(atlas, flags[0])
    return flags, gluing_identities(atlas, flags), verify_gluing(atlas, samples_per_pair=10, seed=0)


def test_gluing_identity_fails_on_perturbed_rule():
    state = {}

    def edit(atlas, flag):
        sigma, tau = flag.cones[-1], flag.cones[0]
        kind, alpha_terms, rows = atlas._localization_rule(sigma, tau)
        (k, ((i, c), *rest)), *others = rows
        atlas._local_rules[(sigma.rays, tau.rays)] = (kind, alpha_terms, ((k, ((i, c + 1), *rest)), *others))
        state.update(face=sorted(tau.rays), generator=list(atlas.hilbert(tau).generators[0]), sigma=sigma)

    flags, (count, failures), report = _perturbed_gluing(edit)
    assert count == 6 * 15
    # Every flag ending in sigma reads the perturbed rule, and only those.
    ending = [i for i, f in enumerate(flags) if f.cones[-1] == state["sigma"]]
    assert [(w["flag"], w["face"], w["generator"]) for w in failures] == [
        (i, state["face"], state["generator"]) for i in ending
    ]
    assert all(w["found"] != w["expected"] for w in failures)
    assert not report.passed
    kinds = [c["kind"] for c in report.counterexamples]
    assert kinds[: len(ending)] == ["identity"] * len(ending)
    assert "shared" in kinds  # the float cross-check sees the rule too


def test_gluing_identity_fails_on_perturbed_cutting_functional():
    state = {}

    def edit(atlas, flag):
        # Cut the first ray of flag 0 with a functional positive on it.
        sigma, tau = flag.cones[-1], flag.cones[0]
        kind, alpha_terms, rows = atlas._localization_rule(sigma, tau)
        gens = atlas.hilbert(sigma).generators
        i = next(i for i, g in enumerate(gens) if all(pair(g, r) > 0 for r in tau.generators))
        atlas._local_rules[(sigma.rays, tau.rays)] = (kind, ((i, 1),), rows)
        state.update(face=sorted(tau.rays), alpha=list(gens[i]))

    _, (_, failures), report = _perturbed_gluing(edit)
    cuts = [w for w in failures if "cutting_functional" in w]
    assert cuts and all(w["face"] == state["face"] and w["cutting_functional"] == state["alpha"] for w in cuts)
    assert 0 in [w["flag"] for w in cuts] and not report.passed


def test_gluing_identity_fails_on_perturbed_b():
    import dataclasses

    state = {}

    def edit(atlas, flag):
        chart = atlas.chart(flag)
        b = [list(row) for row in chart.b]
        row = chart.hilbert_rows[0]
        b[row][0] += 1
        atlas._charts[flag] = dataclasses.replace(chart, b=tuple(map(tuple, b)))
        state.update(generator=list(chart.generators[row]), sigma=sorted(chart.top_cone.rays))

    _, (_, failures), report = _perturbed_gluing(edit)
    assert failures and all(w["flag"] == 0 for w in failures)
    # On the top cone itself the rule is the identity: the row is read as is.
    top = [w for w in failures if w["face"] == state["sigma"]]
    assert [(w["generator"], w["found"][0] - w["expected"][0]) for w in top] == [(state["generator"], 1)]
    assert not report.passed and report.counterexamples[0]["kind"] == "identity"


def test_verify_gluing_distinct_pin():
    """P(1,1,20) at seed 5, where the sampled distinct half used to report
    the pair stored in distinct.json: verify_gluing now passes, and each
    point of the stored pair is located back to its own flag from its
    chart values, so the locate cross-check tells the two apart."""
    data = Path(__file__).parent / "data" / "gluing_wps_1_1_20_seed5"
    atlas = tb.Atlas(tb.parse_and_validate((data / "fan.json").read_text()))
    report = verify_gluing(atlas, samples_per_pair=50, tol=1e-9, seed=5)
    assert report.passed and report.counterexamples == []
    flags = tb.enumerate_flags(atlas.fan, only_maximal=True)
    assert report.located_samples == len(flags) * 25
    (pin,) = json.loads((data / "distinct.json").read_text())
    for f, xi in zip(pin["flags"], pin["xi"]):
        chart = atlas.chart(flags[f])
        ells = cellcomplex._log_pairings(triangular_eval(chart, bary_to_delta(xi)))
        assert locate_flag(atlas.fan, cellcomplex._cone_point(chart, ells)[1]) == flags[f]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="points_equal compares absolute value gaps, which vanish near the toric boundary; "
    "log-domain points with equality in ball coordinates (ROADMAP item 1) fix it",
)
def test_points_equal_distinct_pin():
    """The known defect of Atlas.points_equal, pinned on points_equal
    itself: P(1,1,20) keeps the pair of interior points of flags 1 and 4
    that the pair sampler found at seed 5.  Interior points of two
    different flag simplices are distinct, but points_equal calls them
    equal."""
    data = Path(__file__).parent / "data" / "gluing_wps_1_1_20_seed5"
    atlas = tb.Atlas(tb.parse_and_validate((data / "fan.json").read_text()))
    flags = tb.enumerate_flags(atlas.fan, only_maximal=True)
    (pin,) = json.loads((data / "distinct.json").read_text())
    i, j = pin["flags"]
    assert i != j
    p, q = (atlas.chart_point(atlas.chart(flags[f]), bary_to_delta(xi)) for f, xi in zip(pin["flags"], pin["xi"]))
    assert not atlas.points_equal(p, q), "distinct"


def _p2_with_terms(edit):
    """A fresh p2 atlas whose flag-0 chart has Chart.terms changed by
    edit and nothing else: its exponent matrices, and the Hilbert-row
    terms of the face maps, stay as built."""
    atlas = tb.Atlas(tb.load_bundled("p2"))
    flags = tb.enumerate_flags(atlas.fan, only_maximal=True)
    chart = atlas.chart(flags[0])
    chart.hilbert_terms  # cached from the unperturbed terms
    chart.__dict__["terms"] = edit(list(chart.terms))
    return atlas, flags


def _drop_diagonal(terms):
    # Row 0 is w1 * w2; without its w1 the recovered point leaves flag 0.
    terms[0] = terms[0][1:]
    return tuple(terms)


def test_locate_cross_check_fails_on_perturbed_terms():
    atlas, flags = _p2_with_terms(_drop_diagonal)
    count, failures = gluing_identities(atlas, flags)
    assert count == 6 * 15 and failures == []
    report = verify_gluing(atlas, samples_per_pair=10, seed=0)
    assert not report.passed
    assert {c["kind"] for c in report.counterexamples} == {"locate"}
    assert len(report.counterexamples) == 5
    assert all(c["flag"] == 0 and c["located"] not in (0, None) for c in report.counterexamples)


def test_locate_cross_check_fails_on_flipped_log_sign(monkeypatch):
    """With -log(y) / 2 pi read as +log(y) / 2 pi, every sample of every
    flag is recovered as -x, which lies in another flag's cone; each
    counterexample names the flag and the flag it was located in."""
    log_pairings = cellcomplex._log_pairings
    monkeypatch.setattr(cellcomplex, "_log_pairings", lambda values: [-v for v in log_pairings(values)])
    report = verify_gluing(tb.Atlas(tb.load_bundled("p2")), samples_per_pair=10, seed=0)
    assert not report.passed
    assert [c["kind"] for c in report.counterexamples] == ["locate"] * 6 * 5
    assert [c["flag"] for c in report.counterexamples] == [f for f in range(6) for _ in range(5)]
    assert all(c["located"] not in (c["flag"], None) for c in report.counterexamples)


def test_locate_cross_check_fails_on_flipped_back_substitution(monkeypatch):
    """With + for - in _cone_point's back-substitution every recovered
    point of p2 stays in its own flag's cone, so locating alone passes;
    the comparison with each sample's own coordinates fails it."""

    def flipped(chart, ells):
        n = chart.n
        u = [0.0] * n
        for i in reversed(range(n)):
            row = chart.c[i]
            u[i] = (ells[i] + sum(row[k] * u[k] for k in range(i + 1, n))) / row[i]
        return u, tuple(sum(uk * b[t] for uk, b in zip(u, chart.flag.barycenters)) for t in range(n))

    monkeypatch.setattr(cellcomplex, "_cone_point", flipped)
    report = verify_gluing(tb.Atlas(tb.load_bundled("p2")), samples_per_pair=10, seed=0)
    assert not report.passed
    expected = [("coordinates", f) for f in range(6) for _ in range(5)]
    assert [(c["kind"], c["flag"]) for c in report.counterexamples] == expected
    assert all(c["gap"] > 1e-9 for c in report.counterexamples)


def test_locate_cross_check_names_underflowed_values():
    """A triangular value that underflows to 0.0 is a counterexample
    with no located flag, not a math.log error."""
    atlas, flags = _p2_with_terms(lambda terms: (((0, 2000),), *terms[1:]))
    report = verify_gluing(atlas, samples_per_pair=10, seed=0)
    assert [(c["kind"], c["flag"], c["located"]) for c in report.counterexamples] == [("locate", 0, None)] * 5
    assert cellcomplex._log_pairings([0.5, 0.0]) is None
    assert cellcomplex._log_pairings([float("inf")]) is None
    assert cellcomplex._log_pairings([float("nan")]) is None
    assert cellcomplex._log_pairings([1.0, -0.5]) is None


def test_subflag_face_maps_skip_unread_rows_of_multiplicity_27_chart(monkeypatch):
    """The subflag cross-check of P(1,1,1,27) reaches every proper face of
    the multiplicity-27 cone through face maps that read only the rows
    of the localization rule, never all 406 Hilbert rows of that cone's
    charts; on the cone itself the face map reads every row, since the
    cross-check reports its full gap.  Each row evaluation iterates the
    row's terms once, so a row that records its iterations counts them;
    the face maps are told apart by wrapping Atlas.face_map."""
    fan = validate_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -27)], [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
    atlas = tb.Atlas(fan)
    sigma = fan.cone({0, 1, 3})
    flags = tb.enumerate_flags(fan, only_maximal=True)
    current = [None]
    evaluated = defaultdict(set)

    class CountedRow(tuple):
        def __iter__(self):
            if current[0] is not None:
                evaluated[current[0]].add(self.row)
            return super().__iter__()

    on_sigma = [f for f in flags if f.cones[-1] == sigma]
    for flag in on_sigma:
        chart = atlas.chart(flag)
        rows = []
        for r, terms in enumerate(chart.hilbert_terms):
            rows.append(CountedRow(terms))
            rows[-1].row = r
        chart.__dict__["hilbert_terms"] = tuple(rows)
    assert len(on_sigma) == 6 and len(rows) == 406

    face_map = atlas.face_map

    def traced_face_map(chart, tau):
        inner = face_map(chart, tau)

        def call(w):
            current[0] = (chart.flag, tau.rays)
            return inner(w)

        return call

    monkeypatch.setattr(atlas, "face_map", traced_face_map)
    report = verify_gluing(atlas, samples_per_pair=50, tol=1e-9, seed=0)
    assert report.passed
    proper = [key for key in evaluated if key[0] in on_sigma and key[1] != sigma.rays]
    assert len(proper) == 6 * 3  # the zero cone, a ray and a 2-face per flag
    assert all(0 < len(evaluated[key]) < 406 for key in proper), max(len(evaluated[key]) for key in proper)
    assert all(len(evaluated[(flag, sigma.rays)]) == 406 for flag in on_sigma)


def test_verify_gluing_disjoint_flags_share_only_origin(atlas_p1xp1):
    # Flags in opposite quadrants: the only common image is the origin's.
    from toricball.bary import Flag, enumerate_flags
    from toricball.homeo import param_boundary_point

    fan = atlas_p1xp1.fan
    f1 = Flag((fan.cone({0}), fan.cone({0, 1})))
    f2 = Flag((fan.cone({2}), fan.cone({2, 3})))
    origin1 = param_boundary_point(atlas_p1xp1, f1, (1.0, 0.0, 0.0))
    origin2 = param_boundary_point(atlas_p1xp1, f2, (1.0, 0.0, 0.0))
    assert atlas_p1xp1.points_equal(origin1, origin2)
    interior1 = param_boundary_point(atlas_p1xp1, f1, (0.2, 0.3, 0.5))
    interior2 = param_boundary_point(atlas_p1xp1, f2, (0.2, 0.3, 0.5))
    assert not atlas_p1xp1.points_equal(interior1, interior2)


def test_adjacent_flags_share_boundary_edge(atlas_p2):
    # Two charts over flags sharing a ray: fifty boundary points of the
    # shared closed edge agree through both parameterizations.
    import random

    from toricball.bary import Flag
    from toricball.homeo import param_boundary_point

    fan = atlas_p2.fan
    f1 = Flag((fan.cone({0}), fan.cone({0, 1})))
    f2 = Flag((fan.cone({0}), fan.cone({0, 2})))
    rng = random.Random(1)
    for k in range(50):
        # k = 0 pins the vertex at infinity, k = 1 the origin's image.
        t = 1.0 if k == 0 else (0.0 if k == 1 else rng.random())
        sub_xi = (1.0 - t, t)
        p1 = param_boundary_point(atlas_p2, f1, (sub_xi[0], sub_xi[1], 0.0))
        p2 = param_boundary_point(atlas_p2, f2, (sub_xi[0], sub_xi[1], 0.0))
        assert atlas_p2.points_equal(p1, p2, tol=1e-9)


def test_verify_regularity_small(p1, p2, p1xp1, p112):
    for fan in (p1, p2, p1xp1, p112):
        report = verify_regularity(fan)
        assert report.passed
        assert len(report.cells) == len(fan.cones())


def test_verify_regularity_maximal_cell_is_point(p2):
    report = verify_regularity(p2)
    for entry in report.cells:
        if len(entry["rays"]) == 2:
            assert entry["cell_dim"] == 0
            # The link of a point cell is the empty sphere S^-1.
            assert entry["euler"] == 0
            assert entry["failed"] == [] and entry["ok"]


def test_nonsimplicial_fan_end_to_end():
    fan = cube_faces_fan()
    model = build_ball_model(fan)
    # Flags through square cones: 6 cones x (4 ridges x 2 rays) = 48.
    assert len(model.maximal_simplices()) == 48
    assert euler_characteristic(model.simplices) == 1
    assert pseudomanifold_check(model).passed
    atlas = tb.Atlas(fan)
    charts = atlas.charts()
    assert len(charts) == 48
    # Non-simplicial duals exercise the triangulating Hilbert path.
    import random
    from fractions import Fraction

    rng = random.Random(0)
    for chart in charts[:4]:
        for _ in range(20):
            gens = tb.flag_cone(chart.flag).generators
            coeff = [Fraction(rng.randint(0, 2000), 1000) for _ in gens]
            x = tuple(sum(c * g[t] for c, g in zip(coeff, gens)) for t in range(3))
            assert atlas.commutativity_residual(chart, x) <= 1e-9
    report = verify_regularity(fan)
    assert report.passed


def _regularity_reference_fans():
    """Complete, non-simplicial, rank-4 and incomplete fans."""
    units = [[int(i == j) for i in range(4)] for j in range(4)]
    p4 = validate_fan(4, units + [[-1] * 4], list(combinations(range(5), 4)), name="p4")
    signed = units + [[-a for a in u] for u in units]
    orthants = [[i + 4 * s for i, s in enumerate(signs)] for signs in product((0, 1), repeat=4)]
    p1_4 = validate_fan(4, signed, orthants, name="p1^4")
    cube = cube_faces_fan()
    cube.name = "cube_faces"
    fans = [tb.load_bundled(name) for name in tb.BUNDLED_FANS] + [cube, p4, p1_4]
    for name in ("p2", "p3"):
        fan = tb.load_bundled(name)
        fans.append(validate_fan(fan.dim, fan.rays, fan.max_cones[1:], require_complete=False, name=f"{name}-1"))
    fans.append(validate_fan(2, [(1, 0), (-1, 0)], [[0], [1]], require_complete=False, name="line"))
    return fans


@pytest.mark.parametrize("fan", _regularity_reference_fans(), ids=lambda fan: fan.name)
def test_regularity_matches_star_fan_reference(monkeypatch, fan):
    """Each cell's tests read off the face lattice agree with those of
    the star fan rebuilt in the quotient lattice, and verify_regularity
    builds no star fan and no subdivision of one."""
    from toricball import bary
    from toricball import fan as fan_module

    bary.subdivision(fan)
    before = list(bary._SUBDIVISIONS)
    for name in ("star_fan", "quotient_projection", "validate_fan"):
        monkeypatch.setattr(fan_module, name, lambda *args, _n=name: pytest.fail(f"{_n} called"))
    report = verify_regularity(fan)
    monkeypatch.undo()
    assert set(bary._SUBDIVISIONS) <= set(before)

    for cone, cell in zip(fan.cones(), report.cells, strict=True):
        star = star_fan(fan, cone)
        complete = star.is_complete()[0]
        model = build_ball_model(star)
        chi = euler_characteristic(model.boundary_simplices())
        pm = pseudomanifold_check(model)
        expected = {
            "star_complete": complete,
            "euler": chi,
            "pseudomanifold": pm.passed,
            "failed": [
                test
                for test, ok in (
                    ("star_complete", complete),
                    ("euler", chi == cellcomplex.sphere_euler(star.dim - 1)),
                    ("pseudomanifold", pm.passed),
                )
                if not ok
            ],
        }
        assert {key: cell[key] for key in expected} == expected, (fan.name, sorted(cone.rays))
        assert cell["rays"] == sorted(cone.rays)
