"""Barycenters, flags, flag cones, covering."""

import dataclasses
import itertools
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import toricball as tb
from conftest import (
    all_flags,
    cover_samples,
    cube_faces_fan,
    get_atlas,
    get_fan,
    incomplete_fans,
    stellar_fan,
    unvalidated_fan,
    wps_fan,
)
from toricball import bary, homeo
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
from toricball.exact import DimensionMismatch, dual_basis, pair, rank, solve_in_basis, unit_vector, vsum
from toricball.fan import Fan
from toricball.homeo import rescale_global, rescale_in_flag

GOLDEN = Path(__file__).parent / "data" / "golden"


def test_barycenter_examples(p2, cube_fan):
    assert barycenter(p2.cone({0, 1})) == (1, 1)
    assert barycenter(p2.cone({2})) == (-1, -1)
    assert barycenter(cube_fan.cone({0, 1, 2})) == (1, 1, 1)
    with pytest.raises(ValueError):
        barycenter(p2.zero_cone())


def test_flag_counts(p1, p2, cube_fan, p3):
    assert len(enumerate_flags(p1)) == 2
    assert len(enumerate_flags(p2)) == 6
    assert len(enumerate_flags(cube_fan)) == 48
    assert len(enumerate_flags(p3)) == 24


def test_all_flags_p2(p2):
    # Empty flag + 6 singleton flags + 6 length-2 chains.
    assert len(all_flags(p2)) == 13


def test_enumerate_flags_refuses_all_flags(p2):
    """Only the maximal flags are built, so asking for every flag is an
    error that names the tests' reference, never the maximal flags
    returned in silence."""
    with pytest.raises(ValueError, match="all_flags in tests/conftest.py"):
        enumerate_flags(p2, only_maximal=False)
    assert enumerate_flags(p2, only_maximal=True) == enumerate_flags(p2)


def _p1_power(k):
    rays = [[s * (i == j) for j in range(k)] for i in range(k) for s in (1, -1)]
    cones = [[2 * i + b for i, b in enumerate(p)] for p in itertools.product((0, 1), repeat=k)]
    return tb.validate_fan(k, rays, cones, name=f"p1^{k}")


def _subdivision_fans():
    """Complete, non-simplicial, generated and incomplete fans, one
    without a full-dimensional cone, and the rank-0 fan."""
    fans = [get_fan(name) for name in tb.BUNDLED_FANS] + [cube_faces_fan(), _p1_power(4)]
    fans += [wps_fan(n, k) for n in (2, 3) for k in (2, 9, 27)]
    fans += [stellar_fan(get_fan("p3"), 3, 5, seed) for seed in range(3)]
    fans += incomplete_fans()
    fans.append(tb.validate_fan(2, [(1, 0), (-1, 0)], [[0], [1]], require_complete=False, name="line"))
    return fans + [tb.validate_fan(0, [], [[]], name="rank0")]


def _maximal_reference(fan):
    """The maximal flags filtered out of every flag: length n, ending in
    a maximal cone (so none at rank 0)."""
    tops = set(fan.max_cones)
    return [f for f in all_flags(fan) if len(f) == fan.dim and f.cones and f.cones[-1].rays in tops]


def test_subdivision_is_the_maximal_flags_of_the_reference():
    """Subdivision.maximal is the reference's maximal flags, in order,
    and the order tables and the scanned cones of the locate index hold
    exactly those flags, each once with its position; at rank 0 there
    is no maximal flag, and the index holds the empty flag alone."""
    for fan in _subdivision_fans():
        sub = bary.subdivision(fan)
        maximal = _maximal_reference(fan)
        assert list(sub.maximal) == maximal, fan.name
        indexed = maximal if fan.dim else [Flag(())]
        pairs = [entry for _, _, table in sub.simplicial for entry in table.values()]
        pairs += [entry for _, entries in sub.other for entry in entries]
        pairs.sort(key=lambda entry: entry[0])
        assert [p for p, _ in pairs] == list(range(len(indexed))), fan.name
        assert [f for _, f in pairs] == indexed, fan.name
        if fan.dim:
            assert all(f is sub.maximal[p] for p, f in pairs), fan.name


def test_subdivision_walks_no_chain_above(monkeypatch):
    """bary.subdivision on fresh fans builds the maximal flags without
    Fan.chains_above, the walk of every chain: with it patched to fail,
    the flags still equal the reference taken before the patch."""
    make = [lambda: tb.load_bundled("twisted_p3"), cube_faces_fan, lambda: _p1_power(3), lambda: incomplete_fans()[1]]
    expected = [_maximal_reference(m()) for m in make]
    monkeypatch.setattr(Fan, "chains_above", lambda *args: pytest.fail("Fan.chains_above called"))
    for m, flags in zip(make, expected):
        fan = m()
        assert fan not in bary._SUBDIVISIONS
        assert list(bary.subdivision(fan).maximal) == flags


def test_flag_strictness(p2):
    with pytest.raises(ValueError):
        Flag((p2.cone({0, 1}), p2.cone({0})))
    with pytest.raises(ValueError):
        Flag((p2.zero_cone(),))


def test_flag_errors_name_order_then_zero_cone(p2):
    """The order test comes first: (zero, ray) is increasing and names
    the zero cone, (ray, zero) is not increasing and says so."""
    zero, ray = p2.zero_cone(), p2.cone({0})
    with pytest.raises(ValueError, match="^flags do not contain the zero cone$"):
        Flag((zero, ray))
    with pytest.raises(ValueError, match="^flag chain must be strictly increasing$"):
        Flag((ray, zero))


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
        for flag in enumerate_flags(fan):
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
        flags = enumerate_flags(fan)
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


def test_cover_check_fails_count_on_quadrant():
    fan = tb.validate_fan(2, [(1, 0), (0, 1)], [[0, 1]], require_complete=False)
    witness = {"reason": "ridge not shared by exactly two maximal flags", "ridge": [[0]], "count": 1}
    assert cover_check(fan) == (False, witness)


def test_cover_check_fails_sign_on_same_side_rays():
    fan = unvalidated_fan([(1,), (2,)], [[0], [1]])
    witness = {"reason": "flags on the same side of their shared ridge", "ridge": [], "flags": [0, 1]}
    assert cover_check(fan) == (False, witness)


def test_cover_check_fails_point_on_double_winding():
    # Six rays winding twice round the origin: every ridge pairs with a
    # flag on its other side, yet each point is covered twice.
    rays = [(1, 0), (0, 1), (-1, -1)] * 2
    fan = unvalidated_fan(rays, [[i, (i + 1) % 6] for i in range(6)])
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
    for flag in enumerate_flags(p2):
        assert flag_contains(flag, (0, 0))


def test_locate_flag_deterministic(p2):
    flags = enumerate_flags(p2)
    # The origin is in every flag cone; locate picks the least.
    assert locate_flag(p2, (0, 0)) == flags[0]


LOCATE_FANS = list(tb.BUNDLED_FANS) + ["cube_faces", "wps_1_1_1_9"]


def _locate_fan(name):
    if name == "cube_faces":
        return cube_faces_fan()
    if name == "rank_0":
        return tb.validate_fan(0, [], [[]])
    if name.startswith("p3_stellar_"):
        return stellar_fan(get_fan("p3"), 3, 5, int(name.rpartition("_")[2]))
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


# The rank-0 fan's zero cone has no rows, so its lambda is empty and
# its answer the empty flag; p1 is the rank-1 fan.
REFERENCE_FANS = LOCATE_FANS + [f"p3_stellar_{seed}" for seed in range(3)] + ["rank_0"]


def _query_points(fan, rng, per_flag):
    """The benchmark's locate queries: x = sum u_j B_j in each maximal
    flag's cone, each u_j 0 with probability 1/4, else k / 1000 with k
    drawn from 1..4000."""
    for flag in enumerate_flags(fan):
        for _ in range(per_flag):
            u = [0 if rng.random() < 0.25 else Fraction(rng.randint(1, 4000), 1000) for _ in flag.cones]
            yield tuple(sum(uj * b[i] for uj, b in zip(u, flag.barycenters)) for i in range(fan.dim))


@pytest.mark.parametrize("name", REFERENCE_FANS)
@pytest.mark.python_O
def test_rescale_global_matches_reference(name):
    """rescale_global's one exact pass against the reference route: Phi
    in the exhaustive scan's first flag, through coords_in_flag's
    Fractions, equal float for float (repr tells -0.0 from 0.0), and
    locate_flag returns that very flag.  Points: lattice box points (ties
    and boundary points), barycenters and their midpoints, random
    rationals, floats of every magnitude, and the benchmark's queries.
    The rank-0 fan has no maximal flag of positive length; its empty
    flag covers its one point."""
    fan = _locate_fan(name)
    rng = random.Random(1)
    points = list(itertools.product(range(-2, 3), repeat=fan.dim))
    points += cover_samples(fan, count=0, seed=0)
    points += [tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(fan.dim)) for _ in range(40)]
    points += [tuple(rng.uniform(-3, 3) * scale for _ in range(fan.dim)) for scale in (1.0, 1e-300, 1e300)]
    points.append(tuple(5e-324 if i == 0 else 1.0 for i in range(fan.dim)))
    points += _query_points(fan, rng, per_flag=2)
    if not fan.dim:  # the one flag of all_flags, held by the zero cone's table
        ((_, _, table),) = bary.subdivision(fan).simplicial
        position, empty = table[()]
        assert position == 0 and all_flags(fan) == [empty]
    for x in points:
        flag = containing_flags(fan, x)[0] if fan.dim else empty
        assert locate_flag(fan, x) is flag, x
        assert repr(rescale_global(fan, x)) == repr(rescale_in_flag(flag, x)), x


def _counted(monkeypatch, names):
    """Record the name of each call to the given bary and homeo functions."""
    calls = []
    for module in (bary, homeo):
        for name in names:
            if hasattr(module, name):
                original = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
    return calls


@pytest.mark.parametrize("name", ["twisted_p3", "wps_1_1_1_9"])
def test_rescale_global_makes_one_exact_pass(monkeypatch, name):
    """One rescale_global call clears x's denominators once, and neither
    solves for nor sign-tests coordinates flag by flag: the located
    flag's inverse rows pair with the numerators of the locate scan."""
    fan = _locate_fan(name)
    points = cover_samples(fan, count=20, seed=2) + list(_query_points(fan, random.Random(2), per_flag=1))
    calls = _counted(monkeypatch, ("integer_numerators", "simplicial_coords", "coords_in_flag", "flag_contains"))
    for x in points + [tuple(0.5 + i for i in range(fan.dim))]:
        calls.clear()
        rescale_global(fan, x)
        assert calls == ["integer_numerators"], x


class _Unread:
    """A locate index entry that fails when the scan unpacks it."""

    def __iter__(self):
        raise AssertionError("a cone after the one holding x in its interior was read")


@pytest.mark.parametrize("name", ["twisted_p3", "wps_1_1_1_9"])
def test_locate_stops_at_the_interior_cone(monkeypatch, name):
    """x = sum_j B_j is interior to its flag's top cone, so the scan
    stops there: every later entry of the locate index is replaced by
    one that raises when read, and the answer is unchanged."""
    fan = _locate_fan(name)
    sub = bary.subdivision(fan)
    index = [rays for rays, _, _ in sub.simplicial]
    for flag in sub.maximal:
        x = vsum(flag.barycenters, fan.dim)
        k = index.index(tuple(sorted(flag.cones[-1].rays)))
        cut = sub.simplicial[: k + 1] + (_Unread(),) * (len(index) - k - 1)
        monkeypatch.setitem(bary._SUBDIVISIONS, fan, dataclasses.replace(sub, simplicial=cut))
        assert locate_flag(fan, x) is flag
        assert repr(rescale_global(fan, x)) == repr(rescale_in_flag(flag, x))


def test_locate_index_rows_are_scaled_dual_rays():
    """The stated contract of Subdivision.simplicial, read directly: on
    every full-dimensional simplicial maximal cone the index rows d_i
    pair with its rays r_j as <d_i, r_j> = c * delta_ij, with one
    integer c > 0 per cone, and every other full-dimensional maximal
    cone is listed in Subdivision.other."""
    fans = [get_fan(name) for name in tb.BUNDLED_FANS]
    fans += [wps_fan(n, k) for n in (2, 3) for k in (2, 3, 7, 9, 20, 27)]
    fans += [tb.validate_fan(0, [], [[]]), cube_faces_fan()]
    fans += [stellar_fan(get_fan("p3"), 3, 5, seed) for seed in range(4)]
    for fan in fans:
        sub = bary.subdivision(fan)
        tops = [c for c in fan.maximal_cones() if c.dim == fan.dim]
        assert sorted(rays for rays, _, _ in sub.simplicial) == sorted(
            tuple(sorted(c.rays)) for c in tops if len(c.rays) == c.dim
        )
        assert [cone for cone, _ in sub.other] == [c for c in tops if len(c.rays) != c.dim]
        for rays, duals, _ in sub.simplicial:
            gens = fan.cone(frozenset(rays)).generators
            assert all(type(a) is int for d in duals for a in d)
            table = [[pair(d, r) for r in gens] for d in duals]
            c = table[0][0] if rays else 1
            assert c > 0, (fan.name, rays)
            assert table == [[c * (i == j) for j in range(len(rays))] for i in range(len(duals))], (fan.name, rays)


def test_locate_order_tables_are_the_cones_flags():
    """Each simplicial cone's order table is keyed by exactly the n!
    orders of its n rays, and maps each to its position and the flag
    that adds the cone's sorted rays in that order; every maximal flag
    of a simplicial cone is in its cone's table once, and every other
    one is listed, in enumeration order, with its non-simplicial cone."""
    for fan in _subdivision_fans():
        sub = bary.subdivision(fan)
        tabled = []
        for rays, _, table in sub.simplicial:
            assert sorted(table) == list(itertools.permutations(range(len(rays)))), (fan.name, rays)
            for order, (p, f) in table.items():
                if fan.dim:
                    assert sub.maximal[p] is f, (fan.name, order)
                else:
                    assert (p, f) == (0, Flag(()))
                assert [c.rays for c in f.cones] == [
                    frozenset(rays[i] for i in order[: k + 1]) for k in range(len(order))
                ], (fan.name, order)
                tabled.append(p)
        if fan.dim:
            simplicial = [p for p, f in enumerate(sub.maximal) if len(f.cones[-1].rays) == fan.dim]
            assert sorted(tabled) == simplicial, fan.name
        for cone, entries in sub.other:
            assert [p for p, _ in entries] == [p for p, f in enumerate(sub.maximal) if f.cones[-1].rays == cone.rays]
            assert all(f is sub.maximal[p] for p, f in entries), fan.name


def _fresh_locate_fan(name):
    """A fan object that no subdivision has been built for."""
    return tb.load_bundled(name) if name in tb.BUNDLED_FANS else _locate_fan(name)


def test_locate_hashes_no_flag(monkeypatch):
    """Neither the locate index's build nor a locate hashes a Flag: with
    Flag.__hash__ patched to fail, fresh fans give the reference answers
    taken before the patch, the exhaustive scan's first flag (by
    position) and Phi in it, on ties, boundary points, rationals, a
    float and the benchmark's queries."""
    cases = []
    for name in ("twisted_p3", "wps_1_1_1_9", "cube_faces", "rank_0"):
        fan = _fresh_locate_fan(name)
        rng = random.Random(3)
        points = list(itertools.product(range(-1, 2), repeat=fan.dim)) + cover_samples(fan, count=0, seed=0)
        points += [tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(fan.dim)) for _ in range(10)]
        points += [tuple(rng.uniform(-3, 3) for _ in range(fan.dim))] + list(_query_points(fan, rng, per_flag=1))
        flags = enumerate_flags(fan) if fan.dim else [Flag(())]
        reference = []
        for x in points:
            flag = containing_flags(fan, x)[0] if fan.dim else flags[0]
            reference.append((x, flags.index(flag), repr(rescale_in_flag(flag, x))))
        cases.append((name, reference))
    monkeypatch.setattr(Flag, "__hash__", lambda self: pytest.fail("a Flag was hashed"))
    for name, reference in cases:
        fan = _fresh_locate_fan(name)
        assert fan not in bary._SUBDIVISIONS
        sub = bary.subdivision(fan)
        flags = sub.maximal if fan.dim else [sub.simplicial[0][2][()][1]]
        for x, position, phi in reference:
            assert locate_flag(fan, x) is flags[position], (name, x)
            assert repr(rescale_global(fan, x)) == phi, (name, x)


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
    for flag in all_flags(fan):
        gens = flag_cone(flag).generators
        points = list(samples)
        if 0 < len(flag) < fan.dim:
            e = next(u for u in units if solve_in_basis(gens, u) is None)
            off_span = tuple(a + b for a, b in zip(gens[0], e))
            assert coords_in_flag(flag, off_span) is None
            points.append(off_span)
        assert [coords_in_flag(flag, x) for x in points] == _solve_columns(gens, points, fan.dim)
    for chart in get_atlas(name).charts():
        left, d, annihilator = chart.flag.inverse
        assert d > 0 and annihilator == ()
        assert tuple(tuple(Fraction(a, d) for a in row) for row in left) == dual_basis(chart.flag.barycenters)


# Input errors of the bary module that no other test reaches: the call,
# the exception class and its message.
BARY_INPUT_ERRORS = {
    "coords-off-span": (
        lambda: simplicial_coords(Flag((get_fan("p2").cone({0}),)), (0, 1)),
        NotInCone,
        "(0, 1) is not in the span of Flag([0])",
    ),
    "locate-wrong-length": (
        lambda: locate_flag(get_fan("p2"), (1, 2, 3)),
        DimensionMismatch,
        "point of length 3 in a rank-2 fan",
    ),
    "rescale-wrong-length": (
        lambda: rescale_global(get_fan("p2"), (1, 2, 3)),
        DimensionMismatch,
        "point of length 3 in a rank-2 fan",
    ),
    "rescale-non-finite": (
        lambda: rescale_global(get_fan("p2"), (1.0, math.nan)),
        ValueError,
        "coordinates must be finite, got nan",
    ),
    "rescale-incomplete-fan": (
        lambda: rescale_global(tb.validate_fan(2, [(1, 0), (0, 1)], [[0, 1]], require_complete=False), (-5, -7)),
        NotInCone,
        "(-5, -7) is not covered by any maximal flag cone (incomplete fan?)",
    ),
}


@pytest.mark.parametrize("case", BARY_INPUT_ERRORS)
def test_bary_input_errors(case):
    call, error, message = BARY_INPUT_ERRORS[case]
    with pytest.raises(error, match=re.escape(message)) as err:
        call()
    assert type(err.value) is error
    if error is NotInCone:
        assert err.value.coords is None
