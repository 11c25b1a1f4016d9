"""Ball model, orbit complex, gluing and regularity verification."""

import toricball as tb
from conftest import cube_faces_fan
from toricball.cellcomplex import (
    build_ball_model,
    build_orbit_complex,
    euler_characteristic,
    pseudomanifold_check,
    verify_gluing,
    verify_regularity,
)
from toricball.fan import validate_fan


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
    assert report.pairs_checked == 21  # 6 flags, ordered pairs with repeats
    assert report.worst_shared_gap <= 1e-9


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
            assert entry["euler"] == 1


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
