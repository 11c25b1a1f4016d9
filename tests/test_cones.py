"""Dual cones, Hilbert bases, relative interior points, triangular picks."""

import dataclasses
import itertools
import random
import re
import time
from fractions import Fraction

import pytest

import toricball as tb
from conftest import cube_faces_fan, stellar_fan, wps_fan
from toricball import cones
from toricball.cones import (
    SemigroupGens,
    cutting_functional,
    decompose,
    dual_generators,
    facets_of,
    hilbert_basis,
    minimality_violations,
    relative_interior_point,
    triangular_generators,
)
from toricball.exact import (
    invert,
    is_zero_vec,
    pair,
    primitive,
    quotient_projection,
    rank,
    solve_in_basis,
    unit_vector,
    vadd,
    vneg,
    vscale,
    vsub,
)
from toricball.fan import validate_fan


def _fan(dim, rays, maxc):
    return validate_fan(dim, rays, maxc, require_complete=False)


ORTHANT = _fan(2, [(1, 0), (0, 1)], [[0, 1]])
SINGULAR = _fan(2, [(1, 0), (1, 2)], [[0, 1]])
RAY2 = _fan(2, [(1, 0)], [[0]])


def test_dual_cone_orthant():
    cone = ORTHANT.cone({0, 1})
    assert sorted(cone.dual_rays) == [(0, 1), (1, 0)]
    assert cone.dual_lineality == ()


def test_dual_cone_singular():
    # Halfplane intersection done by hand: m1 >= 0 and m1 + 2 m2 >= 0.
    cone = SINGULAR.cone({0, 1})
    assert sorted(cone.dual_rays) == [(0, 1), (2, -1)]


def test_dual_cone_of_ray_has_lineality():
    cone = RAY2.cone({0})
    gens = set(cone.dual_generators)
    assert (1, 0) in gens
    assert (0, 1) in gens and (0, -1) in gens
    assert len(cone.dual_lineality) == 1


def test_double_dual_is_identity():
    for fan in (ORTHANT, SINGULAR):
        for cone in fan.cones():
            if cone.dim == 0:
                continue
            _, back = dual_generators(cone.dual_generators, 2)
            assert sorted(back) == sorted(cone.generators)


def test_hilbert_basis_smooth():
    sem = hilbert_basis(ORTHANT.cone({0, 1}))
    assert sem.generators == ((0, 1), (1, 0))


def test_hilbert_basis_singular():
    # Box-enumeration oracle output frozen: the dual of cone((1,0),(1,2))
    # needs the interior point (1,0) of the fundamental parallelepiped.
    sem = hilbert_basis(SINGULAR.cone({0, 1}))
    assert sem.generators == ((0, 1), (1, 0), (2, -1))


def test_hilbert_basis_halfplane():
    sem = hilbert_basis(RAY2.cone({0}))
    assert set(sem.generators) == {(1, 0), (0, 1), (0, -1)}
    assert len(sem.lineality) == 1


def test_hilbert_basis_deeper_singularity():
    # Index-5 cone: the parallelepiped points (k, 0) for k = 1..4 reduce
    # to the single irreducible (1, 0); derived by hand, oracle-checked.
    fan = _fan(2, [(1, 0), (1, 5)], [[0, 1]])
    sem = hilbert_basis(fan.cone({0, 1}))
    assert sem.generators == ((0, 1), (1, 0), (5, -1))
    for g in sem.generators:
        assert oracle_generates(sem, g)
        assert not oracle_generates(sem, g, skip=g)


def test_hilbert_basis_nonsimplicial_dual():
    # Cone over a square: the dual is again a cone over a square and the
    # axis point (1,0,0) is the one non-ray irreducible.
    fan = _fan(
        3,
        [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)],
        [[0, 1, 2, 3]],
    )
    sem = hilbert_basis(fan.cone({0, 1, 2, 3}))
    assert sem.generators == (
        (1, -1, 0),
        (1, 0, -1),
        (1, 0, 0),
        (1, 0, 1),
        (1, 1, 0),
    )
    assert oracle_generates(sem, (2, 1, 1))
    assert not oracle_generates(sem, (1, 0, 0), skip=(1, 0, 0))


def test_hilbert_basis_zero_cone():
    sem = hilbert_basis(ORTHANT.zero_cone())
    assert set(sem.generators) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_hilbert_basis_of_full_cone_reads_its_generators(monkeypatch):
    # A full-dimensional cone's generators are the facet normals of its
    # dual, so a simplicial one (whose dual needs no triangulation) runs
    # no double description at all.
    cones = [
        SINGULAR.cone({0, 1}),
        _fan(2, [(1, 0), (1, 5)], [[0, 1]]).cone({0, 1}),
        _fan(3, [(1, 0, 0), (0, 1, 0), (-1, -1, -9)], [[0, 1, 2]]).cone({0, 1, 2}),
    ]
    calls = []
    monkeypatch.setattr("toricball.cones.dual_generators", lambda *args: calls.append(args) or dual_generators(*args))
    assert [len(hilbert_basis(c).pointed) for c in cones] == [3, 3, 55]
    assert calls == []


def test_cutting_functional_sums_the_vanishing_dual_rays():
    # The dual of cone((1,0),(1,2)) has rays (0,1) and (2,-1).
    cone = SINGULAR.cone({0, 1})
    assert cutting_functional(cone, SINGULAR.cone({0})) == (0, 1)
    assert cutting_functional(cone, SINGULAR.cone({1})) == (2, -1)
    assert cutting_functional(cone, SINGULAR.zero_cone()) == (2, 0)
    with pytest.raises(ValueError):
        cutting_functional(cone, cone)


def test_dual_rays_are_orthogonal_to_the_lineality():
    # Rays are canonical modulo the lineality space: its orthogonal
    # projection onto the complement, made primitive.
    fan = _fan(3, [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)], [[0, 1, 2, 3]])
    cones = [c for f in (ORTHANT, SINGULAR, RAY2, fan) for c in f.cones()]
    assert sum(len(c.dual_lineality) > 0 for c in cones) == 17
    for c in cones:
        assert all(pair(r, l) == 0 for r in c.dual_rays for l in c.dual_lineality)
    assert dual_generators([(2, 1, 0)], 3) == (((-1, 2, 0), (0, 0, 1)), ((2, 1, 0),))


def test_decompose_roundtrip():
    sem = hilbert_basis(SINGULAR.cone({0, 1}))
    for target in [(1, 0), (3, 1), (4, -2), (5, 0)]:
        coeffs = decompose(sem, target)
        assert coeffs is not None
        total = (0, 0)
        for c, g in zip(coeffs, sem.generators):
            total = (total[0] + c * g[0], total[1] + c * g[1])
        assert total == target
    assert decompose(sem, (-1, 0)) is None


def test_decompose_with_lineality():
    sem = hilbert_basis(RAY2.cone({0}))
    for target in [(2, -5), (0, 3), (7, 0)]:
        coeffs = decompose(sem, target)
        assert coeffs is not None
        total = (0, 0)
        for c, g in zip(coeffs, sem.generators):
            total = (total[0] + c * g[0], total[1] + c * g[1])
        assert total == target
    assert decompose(sem, (-1, 2)) is None


def _unpruned_decompose(sem, m):
    """Reference for decompose: the same depth-first search (generator
    order, coefficients tried from the top down) without its prunings."""
    pointed = list(sem.pointed)
    weights = [pair(h, sem.interior_point) for h in pointed]
    order = sorted(range(len(pointed)), key=lambda i: -weights[i])
    coeffs = [0] * len(pointed)

    def search(pos, residual, remaining):
        if pos == len(order):
            if remaining != 0:
                return None
            if not sem.lineality:
                return [] if not any(residual) else None
            c = solve_in_basis(sem.lineality, residual)
            if c is None or any(Fraction(x).denominator != 1 for x in c):
                return None
            return [int(x) for x in c]
        i = order[pos]
        for a in range(int(remaining // weights[i]), -1, -1):
            coeffs[i] = a
            got = search(pos + 1, vsub(residual, tuple(a * x for x in pointed[i])), remaining - a * weights[i])
            if got is not None:
                return got
        return None

    target = pair(m, sem.interior_point)
    lin = search(0, tuple(m), target) if target >= 0 else None
    if lin is None:
        return None
    return tuple(coeffs) + tuple(x for c in lin for x in (max(c, 0), max(-c, 0)))


def test_decompose_matches_unpruned_search():
    """The greedy pass gives the search's first solution, or its None."""
    cones = [SINGULAR.cone({0, 1}), RAY2.cone({0}), _fan(2, [(1, 0), (1, 5)], [[0, 1]]).cone({0, 1})]
    cones += tb.load_bundled("p112").cones()
    for cone in cones:
        sem = hilbert_basis(cone)
        for p in itertools.product(range(-7, 8), repeat=2):
            assert decompose(sem, p) == _unpruned_decompose(sem, p), (cone, p)


def test_decompose_deeper_than_recursion_limit():
    # 1500 pointed generators, more than Python's default recursion
    # limit: the pass takes them in a loop, not one call level each.
    sem = SemigroupGens(
        cone_rays=((1,),), pointed=tuple((k,) for k in range(1, 1501)), lineality=(), interior_point=(1,)
    )
    assert decompose(sem, (3000,)) == tuple(2 if k == 1500 else 0 for k in range(1, 1501))


def test_minimality_violations_empty():
    for fan in (ORTHANT, SINGULAR, RAY2):
        for cone in fan.cones():
            assert minimality_violations(hilbert_basis(cone)) == ()


def _with_pointed(sem, extra):
    return dataclasses.replace(sem, pointed=sem.pointed + (extra,))


@pytest.mark.parametrize("cone", [SINGULAR.cone({0, 1}), RAY2.cone({0})], ids=["singular", "halfplane"])
def test_minimality_violations_negative_controls(cone):
    sem = hilbert_basis(cone)
    a, b = sem.generators[:2]
    total = tuple(x + y for x, y in zip(a, b))
    # With a lineality, a + b also makes a redundant (a = (a + b) - b).
    bad = dict(minimality_violations(_with_pointed(sem, total)))
    assert list(bad) == ([a, total] if sem.lineality else [total])
    assert sem.contains(vsub(total, bad[total]))
    # A duplicate is reduced by its twin, in both positions.
    assert minimality_violations(_with_pointed(sem, a)) == ((a, a), (a, a))


def test_minimality_violations_match_oracle():
    """The pairwise certificate names exactly the generators the
    enumeration oracle finds redundant, on genuine bases and on bases
    with the sum of two generators appended."""
    for name in ("p2", "p112", "twisted_p3"):
        for cone in tb.load_bundled(name).cones():
            sem = hilbert_basis(cone)
            variants = [sem]
            if sem.pointed and len(sem.generators) > 1:
                g0, g1 = sem.generators[:2]
                variants.append(_with_pointed(sem, tuple(x + y for x, y in zip(g0, g1))))
            for s in variants:
                expected = [g for g in s.pointed if oracle_generates(s, g, skip=g)]
                assert [g for g, _ in minimality_violations(s)] == expected


def test_double_dual_over_bundled_fans():
    for name in tb.BUNDLED_FANS:
        fan = tb.load_bundled(name)
        for cone in fan.cones():
            _, back = dual_generators(cone.dual_generators, fan.dim)
            assert sorted(back) == sorted(cone.generators)


def test_facet_normals_sign_pattern():
    for name in ("p2", "p112", "p3"):
        fan = tb.load_bundled(name)
        for cone in fan.cones():
            if cone.dim == 0:
                continue
            for normal, _ in facets_of(cone.generators, cone.dual_rays):
                values = [pair(normal, g) for g in cone.generators]
                assert all(v >= 0 for v in values)
                # Vanishing locus is a proper face spanning one dim less.
                face = [g for g, v in zip(cone.generators, values) if v == 0]
                from toricball.exact import rank

                assert rank(face) == cone.dim - 1


def test_relative_interior_point():
    assert relative_interior_point([(0, 1)]) == (0, 1)
    assert relative_interior_point([(0, 1), (2, -1)]) == (2, 0)
    assert relative_interior_point([(1, 0), (0, 1)]) == (1, 1)
    with pytest.raises(ValueError):
        relative_interior_point([])


def test_triangular_generators_p2():
    fan = validate_fan(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [0, 2]])
    chain = (fan.cone({0}), fan.cone({0, 1}))
    alphas = triangular_generators(chain)
    assert alphas == ((1, 1), (0, 1))


def test_triangular_generators_rank1():
    fan = validate_fan(1, [(1,), (-1,)], [[0], [1]])
    assert triangular_generators((fan.cone({0}),)) == ((1,),)


def test_triangular_generators_p1xp1():
    fan = validate_fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [[0, 1], [1, 2], [2, 3], [0, 3]])
    chain = (fan.cone({1}), fan.cone({0, 1}))
    assert triangular_generators(chain) == ((1, 1), (1, 0))


def test_triangular_pattern_generic(p3=None):
    # Strict/zero pattern against barycenters holds for every maximal
    # flag of a bigger fan (verify's chart_invariants certifies it
    # through charts.chart_violations; re-check here).
    fan = tb.load_bundled("p3")
    for flag in tb.enumerate_flags(fan):
        alphas = triangular_generators(flag.cones)
        barys = [tb.barycenter(c) for c in flag.cones]
        for i, a in enumerate(alphas):
            for j, B in enumerate(barys):
                v = pair(a, B)
                if j < i:
                    assert v == 0
                elif j == i:
                    assert v > 0


# -- double description kernel properties ------------------------------------


from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def generator_sets(draw, dim=3):
    count = draw(st.integers(min_value=1, max_value=5))
    gens = []
    for _ in range(count):
        v = tuple(draw(st.integers(min_value=-4, max_value=4)) for _ in range(dim))
        if any(v):
            gens.append(v)
    if not gens:
        gens = [tuple([1] + [0] * (dim - 1))]
    return gens


@given(generator_sets())
@settings(max_examples=120, deadline=None)
def test_dual_generators_separation_property(gens):
    """The dual description separates exactly the cone's points.

    Every conic combination of the generators pairs >= 0 with every dual
    generator, and every dual generator pairs >= 0 with every primal
    generator; double dualization reproduces a generating set of the
    same cone (checked by mutual membership).
    """
    n = 3
    dlin, drays = dual_generators(gens, n)
    duals = list(drays) + [d for l in dlin for d in (tuple(l), tuple(-x for x in l))]
    for d in duals:
        assert all(pair(d, g) >= 0 for g in gens)
    lin2, rays2 = dual_generators(duals, n)
    back = list(rays2) + [v for l in lin2 for v in (tuple(l), tuple(-x for x in l))]
    # Mutual membership: original generators satisfy the recovered dual
    # description and vice versa.
    for g in gens:
        assert all(pair(d, g) >= 0 for d in duals)
    for r in back:
        assert all(pair(d, r) >= 0 for d in duals)
    # And the recovered cone contains the original generators: each g
    # must be a nonnegative rational combination of `back`, certified by
    # the recovered cone's own dual description.
    dlin3, drays3 = dual_generators(back, n)
    duals3 = list(drays3) + [d for l in dlin3 for d in (tuple(l), tuple(-x for x in l))]
    for g in gens:
        assert all(pair(d, g) >= 0 for d in duals3)


@given(generator_sets(dim=2))
@settings(max_examples=80, deadline=None)
def test_face_lattice_closure(gens):
    from toricball.cones import face_index_sets

    faces = face_index_sets(gens, dual_generators(gens, 2)[1])
    assert frozenset(range(len(gens))) in faces
    for a in faces:
        for b in faces:
            assert a & b in faces


# -- independent generation oracle -----------------------------------------


def oracle_generates(sem, target, skip=None):
    """Membership by direct bounded coefficient enumeration.

    Independent of cones.decompose: recursion over the positive-weight
    generators bounded by the exact weight identity (the weight being
    the pairing with the sum of the base cone's rays), then an inline
    elimination solve for the weight-zero (lineality) part.  `skip`
    excludes one generator, for minimality checks.
    """
    cone_rays = sem.cone_rays
    n = len(target)
    y0 = tuple(sum(r[i] for r in cone_rays) for i in range(n)) if cone_rays else tuple([0] * n)
    gens = [g for g in sem.generators if g != skip]
    pos = [(g, pair(g, y0)) for g in gens if pair(g, y0) > 0]
    zero = [g for g in gens if pair(g, y0) == 0]
    target_weight = pair(target, y0)
    if target_weight < 0:
        return False

    def lin_solvable(residual):
        if not zero:
            return all(x == 0 for x in residual)
        rows = [[Fraction(c[i]) for c in zero] + [Fraction(residual[i])] for i in range(n)]
        r = 0
        for c in range(len(zero)):
            piv = next((i for i in range(r, n) if rows[i][c] != 0), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = 1 / rows[r][c]
            rows[r] = [v * inv for v in rows[r]]
            for i in range(n):
                if i != r and rows[i][c] != 0:
                    f = rows[i][c]
                    rows[i] = [v - f * u for v, u in zip(rows[i], rows[r])]
            r += 1
        if any(rows[i][-1] != 0 for i in range(r, n)):
            return False
        # Coefficients may have any sign (the +- pairs absorb signs) but
        # must be integral.
        return all(rows[i][-1].denominator == 1 for i in range(r))

    def rec(i, remaining, partial):
        if i == len(pos):
            return remaining == 0 and lin_solvable(vsub(target, partial))
        g, w = pos[i]
        for a in range(int(remaining // w) + 1):
            shifted = tuple(p + a * x for p, x in zip(partial, g))
            if rec(i + 1, remaining - a * w, shifted):
                return True
        return False

    return rec(0, target_weight, tuple([0] * n))


def box_points_in_dual(sem, bound):
    """All lattice points of the dual cone with sup-norm at most bound."""
    n = len(sem.interior_point)
    out = []
    for p in itertools.product(range(-bound, bound + 1), repeat=n):
        if all(pair(p, r) >= 0 for r in sem.cone_rays):
            out.append(p)
    return out


def test_oracle_generation_certificate():
    for fan in (ORTHANT, SINGULAR, RAY2):
        for cone in fan.cones():
            sem = hilbert_basis(cone)
            coord_max = max((abs(x) for g in sem.generators for x in g), default=1)
            for p in box_points_in_dual(sem, 2 * coord_max):
                assert oracle_generates(sem, p), (cone, p)


# -- the dominance kernel against the pairwise routines it replaced ---------


def _pairwise_dominated_by(values):
    return [sum(1 << j for j, vj in enumerate(values) if all(b <= a for a, b in zip(vi, vj))) for vi in values]


@given(
    st.integers(min_value=0, max_value=3).flatmap(
        lambda d: st.lists(st.tuples(*[st.integers(min_value=-2, max_value=2)] * d), max_size=12)
    )
)
@settings(max_examples=300, deadline=None)
def test_dominated_by_matches_pairwise(values):
    """Small coordinates make ties and duplicate vectors common."""
    assert cones._dominated_by(values) == _pairwise_dominated_by(values)


def _pairwise_minimality_violations(sem):
    """The reference: scan the pointed generators in index order for the
    first reducer of each."""
    values = [[pair(g, v) for v in sem.cone_rays] for g in sem.pointed]
    bad = []
    for i, (g, vg) in enumerate(zip(sem.pointed, values)):
        for j, (h, vh) in enumerate(zip(sem.pointed, values)):
            if j != i and all(a >= b for a, b in zip(vg, vh)):
                bad.append((g, h))
                break
    return tuple(bad)


def _pairwise_pointed_semigroup_generators(rays, normals, n):
    """The reference: test each candidate, in degree order, against the
    elements kept so far."""
    if not rays:
        return ()
    candidates = list(dict.fromkeys(primitive(r) for r in rays))
    for simplex in cones._placing_triangulation(list(rays), n, n):
        candidates.extend(cones._parallelepiped_points(simplex))
    y = tuple(sum(d[i] for d in normals) for i in range(n))
    kept = []
    for g in sorted(dict.fromkeys(candidates), key=lambda v: pair(v, y)):
        vg = [pair(d, g) for d in normals]
        if not any(all(a >= b for a, b in zip(vg, vh)) for _, vh in kept):
            kept.append((g, vg))
    return tuple(sorted(g for g, _ in kept))


WPS_FANS = {f"wps_{'1_' * (n - 1)}{k}": (n, k) for n, k in ((2, 2), (2, 7), (2, 20), (3, 3), (3, 9), (3, 27))}


def _named_fan(name):
    if name in WPS_FANS:
        return wps_fan(*WPS_FANS[name])
    if name == "wps_1_1_1_60":
        return wps_fan(3, 60)
    if name == "p4":
        return wps_fan(4, 1)
    if name == "p1^4":
        rays = [tuple(s * int(i == j) for i in range(4)) for j in range(4) for s in (1, -1)]
        return validate_fan(4, rays, [[2 * i + s for i, s in enumerate(p)] for p in itertools.product((0, 1), repeat=4)])
    return tb.load_bundled(name)


@pytest.mark.parametrize("name", [*tb.BUNDLED_FANS, *WPS_FANS])
def test_minimality_violations_match_pairwise_scan(name):
    """Same (g, h) pairs as the pairwise scan on every cone, on genuine
    bases and on bases with a generator sum in front and a duplicate in
    the middle, so that both the first reducer by index and duplicates
    are compared."""
    for cone in _named_fan(name).cones():
        sem = hilbert_basis(cone)
        variants = [sem]
        if sem.pointed:
            g0, g1 = sem.generators[0], sem.generators[-1]
            head, tail = sem.pointed[: len(sem.pointed) // 2], sem.pointed[len(sem.pointed) // 2 :]
            total = tuple(x + y for x, y in zip(g0, g1))
            variants.append(dataclasses.replace(sem, pointed=(total, *head, sem.pointed[-1], *tail)))
        for s in variants:
            assert minimality_violations(s) == _pairwise_minimality_violations(s)


@pytest.mark.parametrize("name", [*tb.BUNDLED_FANS, *WPS_FANS, "wps_1_1_1_60", "p4", "p1^4"])
def test_hilbert_bases_match_pairwise_reduction(monkeypatch, name):
    """Same basis, in the same order, as testing each candidate against
    the elements kept so far, on every cone (lineality quotients
    included)."""
    fan = _named_fan(name)
    found = [hilbert_basis(cone) for cone in fan.cones()]
    monkeypatch.setattr(cones, "_pointed_semigroup_generators", _pairwise_pointed_semigroup_generators)
    assert found == [hilbert_basis(cone) for cone in fan.cones()]


# -- coset enumeration against the bounding-box scan it replaced ------------


def _box_parallelepiped_points(simplex_rays):
    """The reference: scan the bounding box of the parallelepiped's 2^n
    corners and keep the nonzero points with 0 <= t_i < 1."""
    n = len(simplex_rays)
    inv = invert(list(zip(*simplex_rays)))
    lo = [0] * n
    hi = [0] * n
    for eps in itertools.product((0, 1), repeat=len(simplex_rays)):
        corner = [sum(r[i] for e, r in zip(eps, simplex_rays) if e) for i in range(n)]
        lo = [min(l, c) for l, c in zip(lo, corner)]
        hi = [max(h, c) for h, c in zip(hi, corner)]
    points = []
    for coords in itertools.product(*[range(l, h + 1) for l, h in zip(lo, hi)]):
        t = [pair(row, coords) for row in inv]
        if any(coords) and all(0 <= ti < 1 for ti in t):
            points.append(coords)
    return points


def _quotient_simplices(cone):
    """The simplices of the placing triangulation that hilbert_basis
    enumerates: of the dual's image in the quotient by its lineality
    space."""
    proj = quotient_projection(cone.dual_lineality, cone.ambient_dim)
    rays = [primitive(proj.apply(r)) for r in cone.dual_rays]
    m = proj.target_dim
    return cones._placing_triangulation(rays, m, m) if rays else []


@pytest.mark.parametrize("name", [*tb.BUNDLED_FANS, *WPS_FANS, "wps_1_1_1_60", "p4", "p1^4", "cube_faces"])
def test_parallelepiped_points_match_box_scan(name):
    """The same points as the box scan, each once, on every simplex of
    every cone (lineality quotients included)."""
    fan = cube_faces_fan() if name == "cube_faces" else _named_fan(name)
    simplices = [simplex for cone in fan.cones() for simplex in _quotient_simplices(cone)]
    assert simplices
    for simplex in simplices:
        assert sorted(cones._parallelepiped_points(simplex)) == _box_parallelepiped_points(simplex), simplex


def test_stellar_fan_hilbert_bases_finish():
    """Six seeded stellar subdivisions of p3 with c_i <= 12 reach a dual
    cone of multiplicity 4,050; the bounding boxes of all the fan's
    parallelepipeds hold 2.3 million points (about 2 minutes of box
    scan on a 2-core VM).  Every Hilbert basis builds within the budget
    and is minimal."""
    fan = stellar_fan(tb.load_bundled("p3"), 6, 12, 0)
    start = time.perf_counter()
    bases = [hilbert_basis(cone) for cone in fan.cones()]
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0, elapsed
    assert max(len(sem.pointed) for sem in bases) == 85
    assert [minimality_violations(sem) for sem in bases] == [()] * len(bases)


# -- decompose against the one-level-per-generator search it replaced ------


def _level_by_level_decompose(sem, m):
    """The reference: decompose as it was before forced-zero coefficients
    were skipped.  Every generator takes one search level, its
    coefficient-0 child is tested against the cone like the others, and
    a negative weight is the only test up front."""
    y0 = sem.interior_point
    pointed = list(sem.pointed)
    weights = [pair(h, y0) for h in pointed]
    target = pair(m, y0)
    if target < 0:
        return None
    order = sorted(range(len(pointed)), key=lambda i: -weights[i])
    coeffs = [0] * len(pointed)
    failed = set()

    def close(residual):
        if sem.lineality:
            c = solve_in_basis(sem.lineality, residual)
            if c is None or any(Fraction(x).denominator != 1 for x in c):
                return None
            return [int(x) for x in c]
        return [] if is_zero_vec(residual) else None

    def children(pos, residual, remaining):
        i = order[pos]
        for a in range(int(remaining // weights[i]), -1, -1):
            rest = vsub(residual, vscale(a, pointed[i]))
            if sem.contains(rest):
                coeffs[i] = a
                yield pos + 1, rest, remaining - a * weights[i]

    path = []
    state = (0, tuple(m), target)
    while True:
        if state is not None:
            pos, residual, remaining = state
            if pos == len(order):
                lin_coeffs = close(residual) if remaining == 0 else None
                if lin_coeffs is not None:
                    break
            elif (pos, residual) not in failed:
                path.append((pos, residual, children(pos, residual, remaining)))
        if not path:
            return None
        pos, residual, kids = path[-1]
        state = next(kids, None)
        if state is None:
            failed.add((pos, residual))
            path.pop()
    out = list(coeffs)
    for c in lin_coeffs:
        out.append(max(c, 0))
        out.append(max(-c, 0))
    return tuple(out)


def _localization_targets(atlas, sigma, tau):
    """What Atlas._localization_rule decomposes in H(sigma) for tau: the
    cutting functional alpha and each h + k*alpha, h in H(tau), k the
    rule's shift; and h + (k - 1)*alpha where k > 0, which may fall
    outside the semigroup."""
    alpha = cutting_functional(sigma, tau)
    _, _, rows, _ = atlas._localization_rule(sigma, tau)
    targets = [alpha]
    for h, (k, _) in zip(atlas.hilbert(tau).generators, rows):
        targets += [vadd(h, vscale(j, alpha)) for j in range(max(k - 1, 0), k + 1)]
    return targets


@pytest.mark.parametrize("name", [*tb.BUNDLED_FANS, *WPS_FANS, "wps_1_1_1_60", "p4", "p1^4"])
def test_decompose_matches_level_by_level_search_on_localization_targets(name):
    """The same coefficients, or None, as the level-by-level search on
    every target of every localization rule sigma -> tau, tau a proper
    face of sigma."""
    fan = _named_fan(name)
    atlas = tb.Atlas(fan)
    checked = 0
    for sigma in fan.cones():
        sem = atlas.hilbert(sigma)
        for tau in fan.faces(sigma):
            if tau.rays == sigma.rays:
                continue
            for m in _localization_targets(atlas, sigma, tau):
                assert decompose(sem, m) == _level_by_level_decompose(sem, m), (sigma.rays, tau.rays, m)
                checked += 1
    assert checked


@pytest.mark.parametrize("name", [*tb.BUNDLED_FANS, "wps_1_7", "wps_1_1_9"])
def test_decompose_matches_level_by_level_search_on_seeded_points(name):
    """The same answers on seeded points of every cone's semigroup
    (sums of up to four generators) and on seeded lattice points of a
    box, most of them outside it.  Every fan has cones with lineality
    (its rays and the zero cone) and without (its maximal cones)."""
    rng = random.Random(f"decompose:{name}")
    found = {True: 0, False: 0}
    for cone in _named_fan(name).cones():
        sem = hilbert_basis(cone)
        gens = sem.generators
        for _ in range(10):
            inside = tuple(sum(col) for col in zip(*(rng.choice(gens) for _ in range(rng.randint(1, 4)))))
            box = tuple(rng.randint(-6, 6) for _ in range(cone.ambient_dim))
            for m in (inside, box):
                answer = decompose(sem, m)
                assert answer == _level_by_level_decompose(sem, m), (cone.rays, m)
                found[answer is not None] += 1
    assert found[True] and found[False]


@pytest.mark.parametrize("name", ["p2", "p112", "wps_1_1_9"])
def test_decompose_needs_a_generating_set_not_a_minimal_one(name):
    """With the sum of two generators appended to H(sigma), as in the
    minimality negative controls, the greedy pass still gives the
    level-by-level search's answer on every localization target, and it
    takes the appended generator in some of them."""
    fan = _named_fan(name)
    atlas = tb.Atlas(fan)
    checked = used = 0
    for sigma in fan.cones():
        sem = atlas.hilbert(sigma)
        if not sem.pointed:
            continue
        a, b = sem.generators[:2]
        padded = _with_pointed(sem, vadd(a, b))
        for tau in fan.faces(sigma):
            if tau.rays == sigma.rays:
                continue
            for m in _localization_targets(atlas, sigma, tau):
                answer = decompose(padded, m)
                assert answer == _level_by_level_decompose(padded, m), (sigma.rays, tau.rays, m)
                checked += 1
                used += bool(answer and answer[len(sem.pointed)])
    assert checked and used


@pytest.mark.parametrize("name", ["twisted_p3", "wps_1_1_27"])
def test_decompose_tests_cone_membership_once(monkeypatch, name):
    """One pass, no search: SemigroupGens.contains runs once per call,
    on m itself, for every localization target."""
    fan = _named_fan(name)
    atlas = tb.Atlas(fan)
    cases = [
        (atlas.hilbert(sigma), m)
        for sigma in fan.cones()
        for tau in fan.faces(sigma)
        if tau.rays != sigma.rays
        for m in _localization_targets(atlas, sigma, tau)
    ]
    calls = []
    contains = SemigroupGens.contains
    monkeypatch.setattr(SemigroupGens, "contains", lambda sem, m: calls.append(m) or contains(sem, m))
    for sem, m in cases:
        calls.clear()
        decompose(sem, m)
        assert calls == [m], (sem.cone_rays, m)
    assert cases


def test_decompose_pairs_generators_with_rays_once_per_basis(monkeypatch):
    """Once a basis's greedy plan is warm, a call makes at most
    2 * len(cone_rays) pairings, contains(m) and m's ray values, however
    many pointed generators there are; a copy made by dataclasses.replace
    plans for its own generators."""
    fan = _named_fan("wps_1_1_27")
    atlas = tb.Atlas(fan)
    cases = [
        (atlas.hilbert(sigma), m)
        for sigma in fan.cones()
        for tau in fan.faces(sigma)
        if tau.rays != sigma.rays
        for m in _localization_targets(atlas, sigma, tau)
    ]
    assert max(len(sem.pointed) for sem, _ in cases) > 400
    calls = []
    real = cones.pair
    monkeypatch.setattr(cones, "pair", lambda a, b: calls.append(a) or real(a, b))
    for sem, m in cases:
        decompose(sem, m)
        calls.clear()
        decompose(sem, m)
        assert len(calls) <= 2 * len(sem.cone_rays), (sem.cone_rays, m)

    sem = max((sem for sem, _ in cases), key=lambda s: len(s.pointed))
    a, b = sem.pointed[:2]
    padded = _with_pointed(sem, vadd(a, b))
    assert "greedy_plan" in vars(sem) and "greedy_plan" not in vars(padded)
    plan = dict(padded.greedy_plan)
    assert plan.keys() == set(range(len(sem.pointed) + 1))
    cuts = tuple((k, c) for k, r in enumerate(sem.cone_rays) if (c := real(a, r) + real(b, r)) > 0)
    assert plan[len(sem.pointed)] == cuts
    copy = dataclasses.replace(sem)
    assert copy == sem and hash(copy) == hash(sem) and "greedy_plan" not in vars(copy)
    assert copy.greedy_plan == sem.greedy_plan and copy.greedy_plan is not sem.greedy_plan


# -- double description against the rank-pruned pass it replaced ----------


def _rank_pruned_dual_generators(constraints, n):
    """The reference: at each constraint, every positive x negative
    combination, then a Fraction rank test per ray (extreme iff its
    active constraints have rank n - dim(lineality) - 1) and the
    projection off the current lineality.  Returns the answer and the
    number of candidate rays the rank test dropped."""
    lineality = [unit_vector(i, n) for i in range(n)]
    rays, processed, dropped = [], [], 0
    for h in map(tuple, constraints):
        if is_zero_vec(h):
            continue
        lv = [pair(h, l) for l in lineality]
        if any(lv):
            i0 = next(i for i, v in enumerate(lv) if v != 0)
            l0, v0 = lineality[i0], lv[i0]
            if v0 < 0:
                l0, v0 = vneg(l0), -v0
            lineality = [primitive(vsub(vscale(v0, l), vscale(lv[j], l0))) for j, l in enumerate(lineality) if j != i0]
            rays = [primitive(vsub(vscale(v0, r), vscale(pair(h, r), l0))) for r in rays] + [primitive(l0)]
        else:
            pos = [r for r in rays if pair(h, r) > 0]
            neg = [r for r in rays if pair(h, r) < 0]
            rays = [r for r in rays if pair(h, r) == 0] + pos
            rays += [primitive(vsub(vscale(pair(h, p), q), vscale(pair(h, q), p))) for p in pos for q in neg]
            rays = list(dict.fromkeys(rays))
        processed.append(h)
        need = n - len(lineality) - 1
        extreme = [r for r in rays if rank([c for c in processed if pair(c, r) == 0] or [(0,) * n]) == need]
        dropped += len(rays) - len(extreme)
        rays = list(dict.fromkeys(primitive(r) for r in cones._canonical(extreme, lineality) if not is_zero_vec(r)))
    return (tuple(lineality), tuple(rays)), dropped


def _random_constraint_sets(count, seed):
    """Constraint sets in dimension 1-5 drawn from a random subspace of
    rank 1-n, so that the cone often has lineality, with zero vectors,
    repeated and negated constraints mixed in."""
    rng = random.Random(seed)
    sets = []
    for _ in range(count):
        n = rng.randint(1, 5)
        basis = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, n))]
        constraints = []
        for _ in range(rng.randint(0, 9)):
            constraints.append(tuple(sum(rng.randint(-2, 2) * b[i] for b in basis) for i in range(n)))
            extra = rng.choice([None] * 7 + [(0,) * n, constraints[-1], vneg(constraints[-1])])
            if extra is not None:
                constraints.append(extra)
        sets.append((constraints, n))
    return sets


def test_dual_generators_match_rank_pruned_pass_on_random_sets():
    """Equal (lineality, rays), order included, on seeded random sets;
    among them cones with both lineality and rays, and non-adjacent
    pairs."""
    mixed = dropped = 0
    for constraints, n in _random_constraint_sets(400, seed=27):
        expected, k = _rank_pruned_dual_generators(constraints, n)
        assert dual_generators(constraints, n) == expected, (constraints, n)
        mixed += bool(expected[0]) and bool(expected[1])
        dropped += k
    assert mixed > 50 and dropped > 100


def test_dual_generators_match_rank_pruned_pass_on_fans(monkeypatch):
    """Equal (lineality, rays), order included, on every cone and every
    pairwise-intersection constraint set that validating the bundled
    fans, the cube-faces fan and stellar subdivisions of P^3 asks for.
    Among them are non-adjacent positive/negative pairs, whose
    combinations the rank test drops.  These sets are small: with the
    adjacency test off, later constraints happen to cut every spurious
    ray here, and only the random sets catch it."""
    calls = []
    monkeypatch.setattr("toricball.cones.dual_generators", lambda *args: calls.append(args) or dual_generators(*args))
    for name in tb.BUNDLED_FANS:
        fan = tb.load_bundled(name)
        validate_fan(fan.dim, fan.rays, [sorted(c) for c in fan.max_cones])
    cube_faces_fan()
    for seed in range(4):
        stellar_fan(tb.load_bundled("p3"), 3, 5, seed)
    dropped = 0
    for constraints, n in calls:
        expected, k = _rank_pruned_dual_generators(constraints, n)
        assert dual_generators(constraints, n) == expected, (constraints, n)
        dropped += k
    assert len(calls) > 800 and dropped > 0


# Input errors of the cones module that no other test reaches: the call,
# the exception class and its message.
CONES_INPUT_ERRORS = {
    "triangular-top-not-full": (
        lambda: triangular_generators([tb.load_bundled("p2").cone({0})]),
        ValueError,
        "top cone of the chain must be full-dimensional",
    ),
}


@pytest.mark.parametrize("case", CONES_INPUT_ERRORS)
def test_cones_input_errors(case):
    call, error, message = CONES_INPUT_ERRORS[case]
    with pytest.raises(error, match=re.escape(message)):
        call()
