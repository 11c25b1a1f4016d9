"""Barycentric subdivision of a fan: barycenters, flags, flag cones.

A flag is a strictly increasing chain of nonzero fan cones; the empty
flag is allowed and its cone is the origin.  The cone of a flag is
spanned by the barycenters of its members, where the barycenter of a
cone is the sum of its primitive ray generators.

The library reads only the maximal flags, one cone of each dimension
1, ..., n, so those are the only flags built: Fan.maximal_chains
grows each down from an n-dimensional cone through faces of one
dimension less, once per fan object (see subdivision), and lists them
in the flag order that the fan fixes (see the fan module).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .exact import DimensionMismatch, integer_numerators, pair, span_inverse, vsub, vsum
from .fan import Cone, Fan, ridge_pairing


class NotInCone(ValueError):
    """Point is outside a flag cone; carries the signed coordinates
    (None when the point is off the linear span)."""

    def __init__(self, message, coords=None):
        super().__init__(message)
        self.coords = coords


def barycenter(cone: Cone):
    """Sum of the primitive ray generators of a nonzero cone."""
    if cone.dim == 0:
        raise ValueError("the zero cone has no barycenter")
    return vsum(cone.generators, cone.ambient_dim)


@dataclass(frozen=True)
class Flag:
    """Strictly increasing chain of nonzero cones (possibly empty)."""

    cones: tuple

    def __post_init__(self):
        for a, b in zip(self.cones, self.cones[1:]):
            if not (a.rays < b.rays):
                raise ValueError("flag chain must be strictly increasing")
        if any(c.dim == 0 for c in self.cones):
            raise ValueError("flags do not contain the zero cone")

    def __len__(self):
        return len(self.cones)

    # Flags key the chart cache, and hashing the cones walks every
    # generator and dual ray, so the hash is computed once per object.
    # An explicit __hash__ is kept by @dataclass(frozen=True); the value
    # is the one the dataclass would generate.
    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.cones,))

    @cached_property
    def barycenters(self) -> tuple:
        return tuple(barycenter(c) for c in self.cones)

    @cached_property
    def steps(self) -> tuple:
        """B_j - B_(j-1) for the barycenters B_1..B_k (B_0 = 0): h pairs
        with them to its exponent row in the flag's chart."""
        barys = self.barycenters
        return tuple(b if j == 0 else vsub(b, barys[j - 1]) for j, b in enumerate(barys))

    @cached_property
    def inverse(self) -> tuple:
        """Exact left inverse of the barycenters in integers, computed
        once per flag object: (L, d, A) with integer rows L over one
        positive denominator d, <L_j, B_i> = d * delta_ij, and integer
        annihilator rows A of the barycenters' span; see
        exact.span_inverse.  The barycenters of a flag are always
        linearly independent, so SingularMatrix here is a bug.
        Undefined for the empty flag."""
        return span_inverse(self.barycenters)

    def __repr__(self):
        return "Flag(" + " < ".join(str(sorted(c.rays)) for c in self.cones) + ")"


@dataclass(frozen=True)
class FlagCone:
    """Simplicial cone spanned by the barycenters of a flag's members.

    The library reads Flag.barycenters directly; FlagCone and flag_cone
    remain public API (the benchmark tracer wraps flag_cone by name).
    """

    flag: Flag
    generators: tuple


def flag_cone(flag: Flag) -> FlagCone:
    return FlagCone(flag=flag, generators=flag.barycenters)


@dataclass(frozen=True)
class Subdivision:
    """The maximal flags of one fan, built once per fan object: the
    chains of Fan.maximal_chains, each grown down from an n-cone, in the
    flag order they come in; no other flag is built.

    maximal lists the maximal flags (length n, ending in a maximal
    cone) in enumeration order; a flag's position is its index there,
    so the least of some flags is the one of least position.
    simplicial and other are the index of locate_flag, which holds each
    flag as the pair (position, flag).  simplicial lists, for every
    full-dimensional simplicial maximal cone, its sorted ray indices,
    the rows d_i of the integer left inverse of its rays r_j
    (exact.span_inverse: <d_i, r_j> = c * delta_ij for one c > 0 per
    cone, so the pairings <d_i, x> are the ray coordinates of x up to
    that common positive factor), and its order table, which maps the
    order in which a flag of the cone adds the cone's rays (indices
    into its sorted rays) to that flag's pair.  other lists every other
    full-dimensional maximal cone with its flags' pairs in enumeration
    order.  At rank 0 maximal is empty, and the zero cone's table maps
    the empty order () to (0, the empty flag), which covers the one
    point.
    """

    maximal: tuple
    simplicial: tuple
    other: tuple


# Keyed by the fan object and dropped with it, so the fan itself stays
# immutable and the subdivisions of discarded fans do not accumulate.
_SUBDIVISIONS = weakref.WeakKeyDictionary()


def subdivision(fan: Fan) -> Subdivision:
    """The fan's Subdivision, built on first use, its flags in the order
    of Fan.maximal_chains.  A flag's order in its top cone's table is
    read off its chain, the one ray each member adds to the one below;
    no Flag is hashed."""
    sub = _SUBDIVISIONS.get(fan)
    if sub is not None:
        return sub
    # At rank 0 the one chain is the empty one: locate's, not a maximal flag.
    flags = list(map(Flag, fan.maximal_chains()))
    simplicial, tables, scanned = [], {}, {}
    for cone in fan.maximal_cones():
        if cone.dim != fan.dim:
            continue
        gens = cone.generators
        if len(gens) != cone.dim:
            scanned[cone.rays] = []
            continue
        rays = tuple(sorted(cone.rays))
        table = {}
        tables[cone.rays] = table, {r: i for i, r in enumerate(rays)}
        # The zero cone of the rank-0 fan has no rays and no rows.
        simplicial.append((rays, span_inverse(gens)[0] if gens else (), table))
    for p, flag in enumerate(flags):
        top = flag.cones[-1].rays if flag.cones else frozenset()
        if top in scanned:
            scanned[top].append((p, flag))
            continue
        # Each member of a simplicial cone's flag adds one of its rays.
        table, at = tables[top]
        order, below = [], frozenset()
        for c in flag.cones:
            (ray,) = c.rays - below
            order.append(at[ray])
            below = c.rays
        table[tuple(order)] = p, flag
    sub = _SUBDIVISIONS[fan] = Subdivision(
        maximal=tuple(flags) if fan.dim else (),
        simplicial=tuple(simplicial),
        other=tuple((fan.cone(rays), tuple(pairs)) for rays, pairs in scanned.items()),
    )
    return sub


def enumerate_flags(fan: Fan, only_maximal: bool = True):
    """The maximal flags of the fan (length n, ending in a maximal
    cone), in deterministic order.  only_maximal=False raises
    ValueError: no other flags are built, and the enumeration of every
    flag is the tests' reference (all_flags in tests/conftest.py)."""
    if not only_maximal:
        raise ValueError("only the maximal flags are built; all_flags in tests/conftest.py lists every flag")
    return list(subdivision(fan).maximal)


def flag_intersection(f1: Flag, f2: Flag) -> Flag:
    """The flag of cones common to both; may be empty."""
    common_rays = {c.rays for c in f2.cones}
    return Flag(tuple(c for c in f1.cones if c.rays in common_rays))


def _pairings(flag: Flag, x):
    """x's coordinates in the flag's barycenter basis as integer
    numerators over one positive denominator, or None when x is off the
    linear span: with x = nums / denom and the flag's integer inverse
    (L, d, A), the j-th coordinate is <L_j, nums> / (d * denom).  The
    empty flag spans only the origin."""
    nums, denom = integer_numerators(x)
    if not flag.cones:
        return None if any(nums) else ((), denom)
    left, d, annihilator = flag.inverse
    if any(pair(a, nums) for a in annihilator):
        return None
    return [pair(row, nums) for row in left], d * denom


def coords_in_flag(flag: Flag, x):
    """Coordinates of x in the barycenter basis of the flag's cone.

    Returns exact rationals, or None when x is off the linear span.
    The empty flag spans only the origin.  Every pairing is an integer
    one (see _pairings).
    """
    found = _pairings(flag, x)
    if found is None:
        return None
    pairings, denom = found
    return tuple(Fraction(a, denom) for a in pairings)


def simplicial_coords(flag: Flag, x):
    """Unique u with x = sum u_j * B_j, requiring membership in the cone.

    Raises NotInCone (carrying the signed coordinates) when some u_j is
    negative or x is off the span.
    """
    u = coords_in_flag(flag, x)
    if u is None:
        raise NotInCone(f"{x} is not in the span of {flag}", coords=None)
    if any(c < 0 for c in u):
        raise NotInCone(f"{x} has negative simplicial coordinates in {flag}", coords=u)
    return u


def flag_contains(flag: Flag, x) -> bool:
    """Whether x lies in the flag's cone: the sign test on the integer
    pairings of _pairings, whose denominator is positive."""
    found = _pairings(flag, x)
    return found is not None and min(found[0], default=0) >= 0


def containing_flags(fan: Fan, x):
    """Maximal flags whose cone contains x, in enumeration order."""
    return [f for f in enumerate_flags(fan) if flag_contains(f, x)]


def locate_flag(fan: Fan, x) -> Flag:
    """Lexicographically least maximal flag whose cone contains x.

    On a simplicial maximal cone with rays r_i, x = sum lambda_i r_i lies
    in the cone iff every lambda_i >= 0, and then in the cone of the flag
    whose k-th member is spanned by k rays of largest lambda: its
    simplicial coordinates are the successive differences of the sorted
    lambda.  Sorting by (-lambda_i, ray index) gives the least such flag
    of that cone; the least over all cones containing x is the answer.
    A non-simplicial cone that passes the dual sign test is scanned flag
    by flag.  Same result as containing_flags(fan, x)[0], which stays as
    the exhaustive reference.

    The scan (see _locate) stops at the first cone sigma where every
    lambda_i > 0, with at least one lambda: x is then in sigma's
    interior, and in no other maximal cone tau.  In a fan sigma and tau
    meet in a common face, which contains x; the only face of sigma
    that meets its interior is sigma itself, so sigma lies in tau, and
    two maximal cones of the same dimension that nest are equal.
    """
    return _locate(fan, x)[0]


def _locate(fan: Fan, x):
    """(flag, u): locate_flag's flag, and x's coordinates u in it as
    floats.  With x = nums / den (integer_numerators, run once) and the
    flag's integer inverse (L, d), u_j = <L_j, nums> / (d * den), an int
    over an int, which Python rounds correctly: bit for bit
    float(Fraction(...)) of coords_in_flag, with no second sign test,
    since the flag contains x by construction.  A simplicial cone's rows
    are paired up to the first negative lambda; when none is negative,
    the order of the cone's rays by decreasing lambda is the key of its
    table, and the least flag found is the one of least position."""
    sub = subdivision(fan)
    if len(x) != fan.dim:
        raise DimensionMismatch(f"point of length {len(x)} in a rank-{fan.dim} fan")
    # One common denominator makes every sign test an integer pairing.
    nums, den = integer_numerators(x)
    found = []
    for _, duals, table in sub.simplicial:
        lam = []
        for dual in duals:
            a = sum(map(mul, dual, nums))  # pair() without its length check
            if a < 0:
                break  # x is not in this cone
            lam.append(a)
        else:
            # The sort is stable under reverse=True too, so tied
            # coordinates keep ray-index order.
            found.append(table[tuple(sorted(range(len(lam)), key=lam.__getitem__, reverse=True))])
            if lam and 0 not in lam:  # every lambda > 0, as none is negative
                break  # x is interior to this cone, hence in no other: end the scan
    else:  # no simplicial cone holds x in its interior
        for cone, entries in sub.other:
            if cone.contains(nums):
                hit = next((entry for entry in entries if flag_contains(entry[1], x)), None)
                if hit is not None:
                    found.append(hit)
    if not found:
        raise NotInCone(f"{x} is not covered by any maximal flag cone (incomplete fan?)")
    # Positions are distinct, so the pairs compare by position alone.
    flag = min(found)[1]
    left, d, _ = flag.inverse if flag.cones else ((), 1, ())
    return flag, [sum(map(mul, row, nums)) / (d * den) for row in left]


def cover_check(fan: Fan):
    """Exact certificate that the maximal flag cones cover N_R exactly once.

    Returns (True, None), or (False, witness) naming the first violated
    condition, in this order:

      1. every ridge of a maximal flag (the flag without its member k)
         bounds exactly two maximal flags (witness: ridge, count);
      2. the two lie on opposite sides of it: row k of the first flag's
         integer left inverse vanishes on the ridge and is d > 0 on B_k,
         so it must be negative at the other flag's dropped barycenter
         (witness: ridge and the two flag indices);
      3. the interior point sum_j B_j of the first maximal flag lies in
         exactly one maximal flag cone (witness: point, count).

    Soundness (the degree argument, Fulton, Introduction to Toric
    Varieties, section 2): off the union W of the faces of codimension
    two, a point on the boundary of a flag cone lies in the relative
    interior of exactly one of its ridges, and by 1 and 2 the partner
    across that ridge fills the other half of a neighbourhood.  So the
    number of cones over a point, with boundary points counted one half
    per cone, is locally constant on the connected set N_R minus W.  By
    3 the interior point lies in no other cone, hence not in W, and the
    number is 1 there, so it is 1 everywhere: the cones cover a dense
    set, hence all of N_R (they are closed), and their interiors are
    disjoint.  Rank 0 is covered by the empty flag.
    """
    n = fan.dim
    if n == 0:
        return True, None
    flags = enumerate_flags(fan)
    ridges = [[tuple(c.rays for j, c in enumerate(f.cones) if j != k) for k in range(n)] for f in flags]
    bounds, _ = ridge_pairing((i, ridge) for i, rs in enumerate(ridges) for ridge in rs)
    for i, flag in enumerate(flags):
        for k, ridge in enumerate(ridges[i]):
            incident = bounds[ridge]
            if len(incident) != 2:
                return False, {
                    "reason": "ridge not shared by exactly two maximal flags",
                    "ridge": [sorted(rays) for rays in ridge],
                    "count": len(incident),
                }
            other = incident[1] if incident[0] == i else incident[0]
            if other < i:
                continue  # this pair was tested from the other side
            dropped = next(
                b for c, b in zip(flags[other].cones, flags[other].barycenters) if c.rays not in ridge
            )
            # Never 0 on a valid fan, so "> 0" would decide the same: the
            # nonzero row vanishes on the ridge's barycenters, which the
            # other flag shares, so a 0 at its dropped one would make the
            # other flag's n barycenters dependent, which Flag.inverse
            # rejects.
            if pair(flag.inverse[0][k], dropped) >= 0:
                return False, {
                    "reason": "flags on the same side of their shared ridge",
                    "ridge": [sorted(rays) for rays in ridge],
                    "flags": [i, other],
                }
    point = vsum(flags[0].barycenters if flags else (), n)
    count = len(containing_flags(fan, point))
    # The point is interior to flag 0's own cone, so count >= 1 and
    # "> 1" would decide the same.
    if count != 1:
        return False, {"reason": "point not in exactly one flag cone", "point": list(point), "count": count}
    return True, None
