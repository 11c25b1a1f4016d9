"""Barycenters, flags, flag cones, covering."""

import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import toricball as tb
from conftest import cover_samples, cube_faces_fan, get_atlas, get_fan
from toricball import bary
from toricball.bary import (
    Flag,
    NotInCone,
    barycenter,
    containing_flags,
    coords_in_flag,
    cover_check,
    enumerate_flags,
    flag_cone,
    flag_contains,
    flag_intersection,
    locate_flag,
    simplicial_coords,
)
from toricball.exact import dual_basis, rank, solve_in_basis, unit_vector
from toricball.fan import Fan, _build_cone

GOLDEN = Path(__file__).parent / "data" / "golden"


def test_barycenter_examples(p2, cube_fan):
    assert barycenter(p2.cone({0, 1})) == (1, 1)
    assert barycenter(p2.cone({2})) == (-1, -1)
    assert barycenter(cube_fan.cone({0, 1, 2})) == (1, 1, 1)
    with pytest.raises(ValueError):
        barycenter(p2.zero_cone())


def test_flag_counts(p1, p2, cube_fan, p3):
    assert len(enumerate_flags(p1, only_maximal=True)) == 2
    assert len(enumerate_flags(p2, only_maximal=True)) == 6
    assert len(enumerate_flags(cube_fan, only_maximal=True)) == 48
    assert len(enumerate_flags(p3, only_maximal=True)) == 24


def test_all_flags_p2(p2):
    # Empty flag + 6 singleton flags + 6 length-2 chains.
    assert len(enumerate_flags(p2)) == 13


def test_flag_strictness(p2):
    with pytest.raises(ValueError):
        Flag((p2.cone({0, 1}), p2.cone({0})))
    with pytest.raises(ValueError):
        Flag((p2.zero_cone(),))


def test_flag_intersection(p2):
    f1 = Flag((p2.cone({0}), p2.cone({0, 1})))
    f2 = Flag((p2.cone({0}), p2.cone({0, 2})))
    shared = flag_intersection(f1, f2)
    assert [c.rays for c in shared.cones] == [frozenset({0})]
    assert flag_intersection(f1, f1) == f1


def test_flag_intersection_disjoint(p1xp1):
    f1 = Flag((p1xp1.cone({0}), p1xp1.cone({0, 1})))
    f2 = Flag((p1xp1.cone({2}), p1xp1.cone({2, 3})))
    assert len(flag_intersection(f1, f2)) == 0


def test_flag_cone_property(p2, cube_fan, twisted_p3):
    # Barycenters of each maximal flag are linearly independent.
    for fan in (p2, cube_fan, twisted_p3):
        for flag in enumerate_flags(fan, only_maximal=True):
            fc = flag_cone(flag)
            assert rank(fc.generators) == fan.dim


def test_simplicial_coords_examples(p2):
    flag = Flag((p2.cone({0}), p2.cone({0, 1})))
    # x = B_{sigma_1}.
    assert simplicial_coords(flag, (1, 0)) == (1, 0)
    # Solve (3,2) = u1*e1 + u2*(1,1) by hand: u = (1, 2).
    assert simplicial_coords(flag, (3, 2)) == (1, 2)
    with pytest.raises(NotInCone) as err:
        simplicial_coords(flag, (-1, 0))
    assert err.value.coords is not None


def test_cone_membership_intersection_identity(p2, p1xp1):
    # x in C_F1 and C_F2 iff x in C_(F1 cap F2), on exact samples.
    for fan in (p2, p1xp1):
        flags = enumerate_flags(fan, only_maximal=True)
        for x in cover_samples(fan, count=40, seed=3):
            for i in range(len(flags)):
                for j in range(i + 1, len(flags)):
                    both = flag_contains(flags[i], x) and flag_contains(flags[j], x)
                    shared = flag_intersection(flags[i], flags[j])
                    assert both == flag_contains(shared, x)


def test_subflag_coordinates_vanish(p1xp1):
    full = Flag((p1xp1.cone({0}), p1xp1.cone({0, 1})))
    sub = Flag((p1xp1.cone({0, 1}),))
    # Points of the subflag cone have zero coordinates off its positions.
    x = tuple(3 * v for v in barycenter(p1xp1.cone({0, 1})))
    u = simplicial_coords(full, x)
    assert u == (0, 3)


def test_cover_check():
    # The rank-0 fan is covered by the empty flag.
    for fan in [get_fan(name) for name in tb.BUNDLED_FANS] + [tb.validate_fan(0, [], [[]])]:
        assert cover_check(fan) == (True, None), fan.name


def test_cover_check_agrees_with_samples():
    # The sampled covering test the certificate replaced, kept as a
    # cross-check: every sample lies in some maximal flag cone.
    for name in tb.BUNDLED_FANS:
        fan = get_fan(name)
        for x in cover_samples(fan, count=200, seed=0):
            assert containing_flags(fan, x), (name, x)


def _unvalidated_fan(rays, max_cones):
    """A simplicial Fan built directly, for inputs validate_fan rejects."""

    def subsets(s):
        return {frozenset(c) for k in range(len(s) + 1) for c in itertools.combinations(sorted(s), k)}

    faces_of = {face: subsets(face) for mc in max_cones for face in subsets(mc)}
    cones = {face: _build_cone(face, rays, len(rays[0])) for face in faces_of}
    return Fan(len(rays[0]), tuple(rays), tuple(frozenset(mc) for mc in max_cones), cones, faces_of)


def test_cover_check_fails_count_on_quadrant():
    fan = tb.validate_fan(2, [(1, 0), (0, 1)], [[0, 1]], require_complete=False)
    witness = {"reason": "ridge not shared by exactly two maximal flags", "ridge": [[0]], "count": 1}
    assert cover_check(fan) == (False, witness)


def test_cover_check_fails_sign_on_same_side_rays():
    fan = _unvalidated_fan([(1,), (2,)], [[0], [1]])
    witness = {"reason": "flags on the same side of their shared ridge", "ridge": [], "flags": [0, 1]}
    assert cover_check(fan) == (False, witness)


def test_cover_check_fails_point_on_double_winding():
    # Six rays winding twice round the origin: every ridge pairs with a
    # flag on its other side, yet each point is covered twice.
    rays = [(1, 0), (0, 1), (-1, -1)] * 2
    fan = _unvalidated_fan(rays, [[i, (i + 1) % 6] for i in range(6)])
    witness = {"reason": "point not in exactly one flag cone", "point": [2, 1], "count": 2}
    assert cover_check(fan) == (False, witness)


def test_cover_membership_example(p1xp1):
    # (5, -3): the e1 coordinate dominates, so the containing flag starts
    # at cone(e1); solved exactly: (5,-3) = 2*(1,0) + 3*(1,-1).
    x = (5, -3)
    flags = containing_flags(p1xp1, x)
    assert len(flags) == 1
    flag = flags[0]
    assert [sorted(c.rays) for c in flag.cones] == [[0], [0, 3]]
    assert simplicial_coords(flag, x) == (2, 3)
    other = Flag((p1xp1.cone({3}), p1xp1.cone({0, 3})))
    assert not flag_contains(other, x)


def test_origin_in_all_flags(p2):
    assert flag_contains(Flag(()), (0, 0))
    for flag in enumerate_flags(p2, only_maximal=True):
        assert flag_contains(flag, (0, 0))


def test_locate_flag_deterministic(p2):
    flags = enumerate_flags(p2, only_maximal=True)
    # The origin is in every flag cone; locate picks the least.
    assert locate_flag(p2, (0, 0)) == flags[0]


LOCATE_FANS = list(tb.BUNDLED_FANS) + ["cube_faces", "wps_1_1_1_9"]


def _locate_fan(name):
    if name == "cube_faces":
        return cube_faces_fan()
    if name == "wps_1_1_1_9":
        return tb.parse_and_validate((GOLDEN / "verify_wps_1_1_1_9" / "fan.json").read_text())
    return get_fan(name)


@pytest.mark.parametrize("name", LOCATE_FANS)
def test_locate_flag_matches_scan(name):
    # The very object the exhaustive scan finds first, on ties and
    # boundary points (box points, barycenters, their midpoints) as well
    # as generic rationals and a float.
    fan = _locate_fan(name)
    rng = random.Random(0)
    points = list(itertools.product(range(-2, 3), repeat=fan.dim))
    points += cover_samples(fan, count=0, seed=0)
    points += [tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(fan.dim)) for _ in range(40)]
    points.append(tuple(rng.uniform(-3, 3) for _ in range(fan.dim)))
    for x in points:
        assert locate_flag(fan, x) is containing_flags(fan, x)[0], x


def test_locate_flag_does_not_scan(monkeypatch, twisted_p3):
    # On a simplicial fan the flag comes from sorting ray coordinates, so
    # no per-flag membership test runs.
    calls = []
    for name in ("flag_contains", "coords_in_flag"):
        original = getattr(bary, name)
        monkeypatch.setattr(bary, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
    for x in cover_samples(twisted_p3, count=20, seed=1):
        locate_flag(twisted_p3, x)
    assert calls == []
    containing_flags(twisted_p3, (1, 2, 3))
    assert calls  # the counters do see a scan


def test_locate_flag_incomplete_raises():
    fan = tb.validate_fan(2, [(1, 0), (0, 1)], [[0, 1]], require_complete=False)
    with pytest.raises(NotInCone):
        locate_flag(fan, (-5, -7))


def _solve_columns(basis, points, n):
    """solve_in_basis(basis, x) for every x in points, by one
    fraction-free Gauss-Jordan elimination of [basis^T | D * points^T],
    where D clears the points' denominators.  The basis vectors must be
    linearly independent, so column c gets its pivot in row c."""
    k = len(basis)
    scale = math.lcm(*(Fraction(a).denominator for x in points for a in x))
    rows = [[b[i] for b in basis] + [int(x[i] * scale) for x in points] for i in range(n)]
    for c in range(k):
        p = next(i for i in range(c, n) if rows[i][c])
        rows[c], rows[p] = rows[p], rows[c]
        top = rows[c]
        for i, row in enumerate(rows):
            if i != c and row[c]:
                rows[i] = [top[c] * a - row[c] * b for a, b in zip(row, top)]
    return [
        None
        if any(row[k + j] for row in rows[k:])
        else tuple(Fraction(rows[c][k + j], rows[c][c] * scale) for c in range(k))
        for j in range(len(points))
    ]


@pytest.mark.parametrize("name", ["p2", "p112", "twisted_p3"])
def test_coords_in_flag_matches_reference_solve(name):
    # The per-flag exact inverse must agree with a fresh elimination on
    # every flag (empty, partial, maximal), including None off the span.
    # Each flag's points are solved as extra columns of one elimination.
    fan = get_fan(name)
    units = [unit_vector(i, fan.dim) for i in range(fan.dim)]
    samples = cover_samples(fan, count=20, seed=0)
    for flag in enumerate_flags(fan):
        gens = flag_cone(flag).generators
        points = list(samples)
        if 0 < len(flag) < fan.dim:
            e = next(u for u in units if solve_in_basis(gens, u) is None)
            off_span = tuple(a + b for a, b in zip(gens[0], e))
            assert coords_in_flag(flag, off_span) is None
            points.append(off_span)
        assert [coords_in_flag(flag, x) for x in points] == _solve_columns(gens, points, fan.dim)
    for chart in get_atlas(name).charts():
        assert chart.flag.inverse[0] == dual_basis(chart.flag.barycenters)
