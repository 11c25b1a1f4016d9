"""Polyhedral engine: dual cones, Hilbert bases, interior points.

The low-level kernel works on raw tuples of integers (generators of
cones in either lattice), so it is usable both below the fan layer and
on top of it.  All computations are exact; the only algorithms here are

  * a double description pass (halfspace-at-a-time) for dual cones and
    facet enumeration, deciding adjacency by incidence bitmasks,
  * a placing triangulation plus lattice-coset enumeration of each
    simplex's fundamental parallelepiped for semigroup generators,
    reduced to irreducibles in increasing degree against an interior
    functional (as in Normaliz): a candidate is kept unless it minus an
    earlier candidate stays in the cone,
  * a greedy decomposition over a generating set of a semigroup: each
    generator, heaviest first, takes the largest coefficient that keeps
    the residual in the dual cone, which never backtracks; the order and
    each generator's pairings with the cone's rays are planned once per
    generating set, so a call pairs only m with the rays,
  * a minimality certificate: a pointed generator g is flagged when
    g - h lies in the dual cone for another pointed generator h.
    An empty answer certifies minimality outright; a flagged g is
    redundant provided the set generates the semigroup,
  * the upper-triangular generator selection for a maximal flag of
    cones.

Everything returned is immutable; functions are pure and safe to call
concurrently.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import or_
from typing import Sequence

from .exact import (
    is_zero_vec,
    pair,
    primitive,
    quotient_projection,
    row_hermite,
    solve_in_basis,
    span_inverse,
    unit_vector,
    vneg,
    vscale,
    vsub,
    vsum,
)


def _canonical(rays, lineality):
    """Each ray's orthogonal projection onto the complement of the
    lineality space, scaled to stay integral.

    The projection is I - L^T (L L^T)^-1 L, from one Gram inverse
    G / d in integers (the Gram matrix is symmetric, so it is the left
    inverse of its rows), times d so that it applies in integers
    (primitive() drops the factor d > 0).
    """
    if not lineality:
        return rays
    columns = list(zip(*lineality))
    gram_inv, d, _ = span_inverse([[pair(a, b) for b in lineality] for a in lineality])
    solved = [[pair(row, col) for row in gram_inv] for col in columns]
    project = [[d * (i == j) - pair(a, b) for j, b in enumerate(solved)] for i, a in enumerate(columns)]
    return [tuple(pair(row, r) for row in project) for r in rays]


def dual_generators(constraints: Sequence, n: int):
    """Generators of the cone {x : pair(h, x) >= 0 for all h}.

    Returns (lineality_basis, extreme_rays): the cone is the sum of the
    linear span of the basis and the conic hull of the rays.  Rays are
    primitive and canonical modulo the lineality space.

    One double description pass, a halfspace at a time, after Fukuda
    and Prodon, "Double description method revisited" (1996).  Each ray
    carries a bitmask, zeros, of the processed nonzero constraints it
    lies on.  The rays are one representative per extreme ray of the
    cone so far, so the face spanned by rays p and q has as its rays
    exactly those whose mask contains zeros[p] & zeros[q], and it is a
    2-face (p and q are adjacent) iff no third ray is among them.  Only
    adjacent pairs across a new constraint give new extreme rays, each
    from one pair, so nothing is pruned.  A constraint nonzero on the
    lineality space cuts it down by l0 instead: every ray moves onto
    the constraint along l0, and l0 joins the rays, on every earlier
    constraint (they vanish on the lineality) but not this one.  Each
    step acts on rays modulo the current lineality, which only shrinks,
    so projecting off the final one once, at the end, gives the
    canonical representatives.
    """
    lineality = [unit_vector(i, n) for i in range(n)]
    rays: list = []
    zeros: list = []
    bit = 1
    for h in constraints:
        h = tuple(h)
        if is_zero_vec(h):
            continue
        lv = [pair(h, l) for l in lineality]
        if any(v != 0 for v in lv):
            i0 = next(i for i, v in enumerate(lv) if v != 0)
            l0, v0 = lineality[i0], lv[i0]
            if v0 < 0:
                l0, v0 = vneg(l0), -v0
            lineality = [primitive(vsub(vscale(v0, l), vscale(lv[j], l0))) for j, l in enumerate(lineality) if j != i0]
            rays = [primitive(vsub(vscale(v0, r), vscale(pair(h, r), l0))) for r in rays]
            rays.append(primitive(l0))
            zeros = [z | bit for z in zeros] + [bit - 1]
        else:
            values = [pair(h, r) for r in rays]
            pos = [i for i, v in enumerate(values) if v > 0]
            neg = [i for i, v in enumerate(values) if v < 0]
            keep = [i for i, v in enumerate(values) if v == 0] + pos
            new_rays = [rays[i] for i in keep]
            new_zeros = [zeros[i] | bit if values[i] == 0 else zeros[i] for i in keep]
            for p in pos:
                for q in neg:
                    common = zeros[p] & zeros[q]
                    if any(z & common == common for k, z in enumerate(zeros) if k != p and k != q):
                        continue
                    new_rays.append(primitive(vsub(vscale(values[p], rays[q]), vscale(values[q], rays[p]))))
                    new_zeros.append(common | bit)
            rays, zeros = new_rays, new_zeros
        bit <<= 1
    return tuple(lineality), tuple(dict.fromkeys(primitive(r) for r in _canonical(rays, lineality)))


def generator_list(lineality, rays):
    """Flat generating set: extreme rays plus +-pairs for the lineality."""
    out = list(rays)
    for l in lineality:
        out.append(tuple(l))
        out.append(vneg(l))
    return tuple(out)


def facets_of(gens: Sequence, drays: Sequence):
    """Facets of cone(gens), given the dual's extreme rays drays, as
    (normal, generator-index frozenset) pairs ordered by index set.

    Rays cutting the same generator subset are reported once, by the
    first of them.
    """
    facets = {}
    for d in drays:
        face = frozenset(i for i, g in enumerate(gens) if pair(d, g) == 0)
        facets.setdefault(face, d)
    return tuple((normal, face) for face, normal in sorted(facets.items(), key=lambda kv: sorted(kv[0])))


def face_index_sets(gens: Sequence, drays: Sequence):
    """All faces of cone(gens), given the dual's extreme rays drays, as
    frozensets of generator indices.

    Includes the cone itself and, for pointed cones, the zero face (the
    empty set).  Faces are exactly the intersections of facets.
    """
    top = frozenset(range(len(gens)))
    facets = [face for _, face in facets_of(gens, drays)]
    faces = {top}
    frontier = {top}
    while frontier:
        new = set()
        for f in frontier:
            for ft in facets:
                g = f & ft
                if g not in faces:
                    new.add(g)
        faces |= new
        frontier = new
    return faces


# ---------------------------------------------------------------------------
# Semigroup generators (Hilbert bases)
# ---------------------------------------------------------------------------


def _placing_triangulation(rays: Sequence, n: int, dim: int):
    """Simplicial subcones (tuples of rays) triangulating a pointed cone.

    rays are the cone's extreme rays in Z^n and dim its dimension, so
    the cone is simplicial exactly when it has dim rays.  Standard
    placing recursion: the first ray is joined to the triangulations of
    the facets that do not contain it, each of dimension dim - 1.
    """
    rays = list(rays)
    if len(rays) == dim:
        return [tuple(rays)]
    r0 = rays[0]
    simplices = []
    for _, face in facets_of(rays, dual_generators(rays, n)[1]):
        face_rays = [rays[i] for i in sorted(face)]
        if r0 in face_rays or not face_rays:
            continue
        for sub in _placing_triangulation(face_rays, n, dim - 1):
            simplices.append((r0,) + sub)
    return simplices


def _parallelepiped_points(simplex_rays: Sequence):
    """Nonzero lattice points of {sum t_i r_i : 0 <= t_i < 1}, one per
    nonzero class of Z^n modulo the rays' lattice (as in Normaliz).

    The rays' row Hermite form is upper triangular with pivots d_i > 0,
    so the x with 0 <= x_i < d_i represent the classes, and x minus
    sum floor(t_i) r_i, t = R^-1 x, lies in the parallelepiped.
    """
    pivots = [row[i] for i, row in enumerate(row_hermite(simplex_rays)[0])]
    # R^-1 (R's columns are the rays) is L / d in integers, so floor(t_i)
    # is an integer division.
    left, d, _ = span_inverse(simplex_rays)
    points = []
    for x in itertools.islice(itertools.product(*map(range, pivots)), 1, None):
        point = x
        for row, r in zip(left, simplex_rays):
            shift = pair(row, x) // d
            if shift:
                point = vsub(point, vscale(shift, r))
        points.append(point)
    return points


def _dominated_by(values):
    """Per value vector v_i of values, the bitmask of the indices j with
    v_j <= v_i in every coordinate (bit i included).

    One pass per coordinate: sort the indices by it, OR them into prefix
    masks, and find each v_i's prefix (ties included) by bisection; the
    answer is the AND of v_i's prefixes over the coordinates.  That is
    O(m d) big-int operations for m vectors of length d, in place of m^2
    pairwise comparisons.
    """
    masks = [(1 << len(values)) - 1] * len(values)
    for column in zip(*values):
        order = sorted(range(len(column)), key=column.__getitem__)
        keys = [column[j] for j in order]
        prefixes = list(itertools.accumulate((1 << j for j in order), or_, initial=0))
        for i, v in enumerate(column):
            masks[i] &= prefixes[bisect_right(keys, v)]
    return masks


def _pointed_semigroup_generators(rays: Sequence, normals: Sequence, n: int):
    """Hilbert basis of (full-dimensional pointed cone) intersect Z^n.

    rays are the cone's extreme rays and normals its facet normals (the
    extreme rays of its dual, which the callers already hold).
    Candidates are reduced in increasing degree against y, the sum of
    the normals, which is positive on every nonzero point of the cone.
    A candidate g is reducible iff g - h lies in the cone for some
    candidate h of smaller degree (equal degree forces g == h), and then
    also for an irreducible one, by induction on degree.

    g - h lies in the cone iff g pairs at least as high as h with every
    normal, so a candidate is kept iff no earlier candidate in degree
    order is dominated by it (_dominated_by).  This is the basis that
    testing against the kept elements alone gives: domination is
    transitive, and every rejected candidate dominates an earlier kept
    one, so a rejected h below g puts a kept h' below g.  Of two equal
    value vectors the earlier is kept.
    """
    if not rays:
        return ()
    candidates = list(dict.fromkeys(primitive(r) for r in rays))
    # The cone is full-dimensional, so its dimension is n.
    for simplex in _placing_triangulation(list(rays), n, n):
        candidates.extend(_parallelepiped_points(simplex))
    y = vsum(normals, n)
    ordered = sorted(dict.fromkeys(candidates), key=lambda v: pair(v, y))
    below = _dominated_by([[pair(d, g) for d in normals] for g in ordered])
    return tuple(sorted(g for i, g in enumerate(ordered) if not below[i] & ((1 << i) - 1)))


@dataclass(frozen=True)
class SemigroupGens:
    """Minimal generating set of the semigroup (dual cone) intersect M.

    For a full-dimensional base cone the dual is pointed and `pointed`
    is the honest Hilbert basis.  Otherwise the dual has a lineality
    space; the generating set is a lifted Hilbert basis of the pointed
    quotient together with a +- lattice basis of the lineality.

    interior_point is a lattice point of the relative interior of the
    base cone; it pairs strictly positively with every pointed generator
    and to zero with the lineality part.  decompose orders the pointed
    generators by that weight, and needs only that the set generates.

    greedy_plan is decompose's plan, computed on first use and cached on
    the instance.  It reads only the fields, which are frozen, so it can
    never go stale; it is not a field, so ==, hashing and
    dataclasses.replace see only the four fields, and a replaced copy
    plans afresh.
    """

    cone_rays: tuple
    pointed: tuple
    lineality: tuple
    interior_point: tuple

    @property
    def generators(self):
        return generator_list(self.lineality, self.pointed)

    def contains(self, m) -> bool:
        return all(pair(m, v) >= 0 for v in self.cone_rays)

    @cached_property
    def greedy_plan(self):
        """(i, cuts) per pointed generator h = pointed[i], heaviest
        against interior_point first (ties in index order), cuts the
        (k, <h, cone_rays[k]>) pairs with a positive pairing.

        A generator lies in the dual cone, so its other pairings are 0.
        """
        y0 = self.interior_point
        order = sorted(range(len(self.pointed)), key=lambda i: -pair(self.pointed[i], y0))
        return tuple(
            (i, tuple((k, c) for k, r in enumerate(self.cone_rays) if (c := pair(self.pointed[i], r)) > 0))
            for i in order
        )


def hilbert_basis(cone) -> SemigroupGens:
    """Generators of the semigroup of lattice points of the dual cone.

    The dual is projected along its lineality space (the identity when
    the cone is full-dimensional), and the pointed quotient's Hilbert
    basis is lifted back.  The dual's facet normals are the cone's own
    generators: a generator g reads as the functional (<g, s_i>)_i on
    the quotient, s_i the projection's section.
    """
    gens = tuple(cone.generators)
    n = cone.ambient_dim
    interior = vsum(gens, n)
    proj = quotient_projection(cone.dual_lineality, n)
    # The dual's rays are canonical modulo its lineality, so their
    # images are the distinct extreme rays of the pointed quotient.
    image_rays = [primitive(proj.apply(r)) for r in cone.dual_rays]
    image_normals = [tuple(pair(g, s) for s in proj.section) for g in gens]
    image_basis = _pointed_semigroup_generators(image_rays, image_normals, proj.target_dim)
    lifts = [tuple(pair(row, h) for row in zip(*proj.section)) for h in image_basis]
    return SemigroupGens(
        cone_rays=gens,
        pointed=tuple(sorted(lifts)),
        lineality=proj.kernel,
        interior_point=interior,
    )


def decompose(sem: SemigroupGens, m) -> "tuple | None":
    """Nonnegative integer coefficients over sem.generators summing to m,
    or None when m is not in the semigroup.

    sem.generators must generate the semigroup (dual cone) intersect M,
    as hilbert_basis's do; minimality is not needed.  Over a set that
    does not generate it the answer may be None for an m of the
    subsemigroup the set generates.

    One greedy pass along sem.greedy_plan: the pointed generators are
    taken heaviest against interior_point first (ties in index order),
    each with the largest coefficient a that keeps the residual in the
    dual cone, the least floor(<residual, r> / <h, r>) over the cone
    rays r with <h, r> > 0.  The residual's pairings with the rays are
    kept up to date by subtracting a * <h, r>, so m is paired with the
    rays once.  What is left is solved exactly in the lineality basis.

    - It never dead-ends.  Once h is taken, residual - h stays outside
      the cone, because every later residual is smaller by elements of
      the cone.  A final residual off the lineality space would be a sum
      of generators with some pointed h among them (the lineality pairs
      to zero with interior_point), so residual - h would lie in the
      cone, a contradiction.  So the residual ends in the lineality
      lattice, and the lineality basis is a lattice basis of it.
    - It gives the answer of the depth-first search that tries the
      generators in this order and each coefficient from the top down:
      the first coefficient that search tries that stays in the cone is
      the greedy one, and it never leaves that first path.
    - It may stop as soon as the residual pairs to zero with every
      cone ray.  The residual then lies in the dual's lineality space,
      and every later generator h pairs positively with some ray (it
      does with interior_point, a positive combination of the rays), so
      its coefficient, a least floor(0 / <h, r>), would be 0.
    """
    if not sem.contains(m):
        return None
    values = [pair(m, r) for r in sem.cone_rays]
    out = [0] * len(sem.pointed)
    residual = tuple(m)
    for i, cuts in sem.greedy_plan:
        if not any(values):
            break
        a = min(values[k] // c for k, c in cuts)
        if a:
            out[i] = a
            for k, c in cuts:
                values[k] -= a * c
            residual = vsub(residual, vscale(a, sem.pointed[i]))
    lin = solve_in_basis(sem.lineality, residual)
    if lin is None or any(Fraction(x).denominator != 1 for x in lin):
        return None
    for c in map(int, lin):
        out += (max(c, 0), max(-c, 0))
    return tuple(out)


def minimality_violations(sem: SemigroupGens):
    """(g, h) pairs of pointed generators, g at index i and h at some
    index j != i (so duplicates are caught), with g - h in the dual cone;
    h is the first such reducer.

    Soundness: if g is a combination of the other generators, some
    pointed h occurs in it, because pointed generators pair strictly
    positively with interior_point and the lineality pairs to zero; then
    g - h is a combination of generators, hence in the dual cone.  So an
    empty answer certifies minimality unconditionally.  A flagged g is
    redundant whenever the set generates the semigroup (g - h is then a
    combination of generators).  The +- lineality pairs are minimal by
    construction (their images vanish in the pointed quotient, so no
    nonnegative combination of the others reaches them) and are not
    re-tested.
    """
    # sem.contains(g - h) iff g pairs at least as high as h with every ray.
    values = [[pair(g, v) for v in sem.cone_rays] for g in sem.pointed]
    bad = []
    for i, (g, below) in enumerate(zip(sem.pointed, _dominated_by(values))):
        others = below & ~(1 << i)
        if others:
            bad.append((g, sem.pointed[(others & -others).bit_length() - 1]))
    return tuple(bad)


# ---------------------------------------------------------------------------
# Relative interior points and the triangular generator selection
# ---------------------------------------------------------------------------


def relative_interior_point(face_rays: Sequence):
    """Lattice point interior to the cone spanned by the given primitive rays.

    The sum of the rays works: it pairs strictly positively with every
    functional that is positive somewhere on the face.  Rejects the
    zero-dimensional face.
    """
    face_rays = list(face_rays)
    if not face_rays:
        raise ValueError("the zero face has no relative interior lattice point")
    return vsum(face_rays, len(face_rays[0]))


def cutting_functional(sigma, tau):
    """The sum of sigma's dual rays that vanish on its face tau.

    It lies in the relative interior of the face of sigma's dual cut
    out by tau, so it is positive on sigma exactly off tau.
    """
    return relative_interior_point(
        [d for d in sigma.dual_rays if all(pair(d, g) == 0 for g in tau.generators)]
    )


def triangular_generators(chain: Sequence):
    """Distinguished generators alpha_1..alpha_n for a maximal chain of cones.

    chain is sigma_1 < sigma_2 < ... < sigma_n with dim(sigma_i) = i and
    sigma_n full-dimensional.  alpha_1 is the sum of the extreme rays of
    the dual of sigma_n, and alpha_i for i > 1 the cutting functional of
    sigma_(i-1) in sigma_n: a lattice point in the relative interior of
    the face of the dual cut out by sigma_(i-1).  The resulting pairing
    matrix against the chain's barycenters is lower triangular: zero
    below the diagonal, positive on it.
    """
    top = chain[-1]
    if top.dual_lineality or len(top.dual_rays) == 0:
        raise ValueError("top cone of the chain must be full-dimensional")
    alphas = [relative_interior_point(top.dual_rays)]
    alphas.extend(cutting_functional(top, lower) for lower in chain[:-1])
    return tuple(alphas)
