"""Complete rational fans: data model, validation, face and star calculus.

A fan is stored by its primitive ray vectors and the ray-index sets of
its maximal cones; validation enumerates the full face lattice (all
faces of all listed cones, down to the zero cone) and checks the fan
axioms exactly.  Non-simplicial maximal cones are supported; facet data
comes from the double description kernel in `cones`.  A cone's
dimension and strong convexity are read off its one double description
and the face lattice built on it, with no rank computation, and one
path validates every rank, 0 included.

Fans are immutable after validation and safe for concurrent reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd
from typing import Sequence

from . import cones as _ck
from .exact import is_zero_vec, pair, primitive, quotient_projection


class FanError(Exception):
    """Base class for fan construction problems."""


class ParseError(FanError):
    """The fan description is not well-formed."""


class FanValidationError(FanError):
    """The description is well-formed but does not define a fan."""


class NotPrimitiveRay(FanValidationError):
    pass


class NotStronglyConvex(FanValidationError):
    pass


class FaceIntersectionViolation(FanValidationError):
    pass


class IncompleteFan(FanValidationError):
    pass


@dataclass(frozen=True)
class Cone:
    """A cone of a fan, identified by its set of ray indices.

    generators are the primitive ray vectors (sorted by ray index), and
    the dual description (extreme rays + lineality of the dual cone) is
    precomputed so membership tests are simple sign checks.  The zero
    cone has an empty ray set.
    """

    rays: frozenset
    dim: int
    ambient_dim: int
    generators: tuple
    dual_rays: tuple
    dual_lineality: tuple

    @property
    def dual_generators(self):
        return _ck.generator_list(self.dual_lineality, self.dual_rays)

    def contains(self, x) -> bool:
        return all(pair(d, x) >= 0 for d in self.dual_generators)

    def sort_key(self):
        return (self.dim, tuple(sorted(self.rays)))

    def __repr__(self):
        return f"Cone({sorted(self.rays)})"


def _build_cone(ray_indices: frozenset, fan_rays: Sequence, n: int) -> Cone:
    """The cone on the given rays, with its dual description.

    The dual's lineality basis spans sigma^perp, of dimension
    n - dim sigma: the double description starts from n unit vectors,
    and each constraint it cuts them with drops one and keeps the rest
    independent.
    """
    gens = tuple(fan_rays[i] for i in sorted(ray_indices))
    dlin, drays = _ck.dual_generators(gens, n)
    return Cone(
        rays=ray_indices,
        dim=n - len(dlin),
        ambient_dim=n,
        generators=gens,
        dual_rays=drays,
        dual_lineality=dlin,
    )


def ridge_pairing(incidences):
    """Pair top cells along shared ridges.

    incidences are (top, ridge) pairs of hashable labels, one per ridge
    of each top.  Returns (bounds, reached): bounds maps each ridge to
    the list of tops it bounds, in input order, and reached is the
    number of tops connected to the first top through shared ridges
    (the size of its component in the dual graph; 0 without tops).
    """
    bounds = {}
    ridges_of = {}
    for top, ridge in incidences:
        bounds.setdefault(ridge, []).append(top)
        ridges_of.setdefault(top, []).append(ridge)
    seen = set()
    stack = list(ridges_of)[:1]
    while stack:
        top = stack.pop()
        if top not in seen:
            seen.add(top)
            stack.extend(t for ridge in ridges_of[top] for t in bounds[ridge])
    return bounds, len(seen)


class Fan:
    """Validated fan: rays, maximal cones, and the full face lattice."""

    def __init__(self, dim, rays, max_cones, cones_by_rays, faces_of, name="fan"):
        self.dim = dim
        self.rays = rays
        self.max_cones = max_cones
        self._cones = cones_by_rays
        self._faces_of = faces_of
        self.name = name

    def cone(self, ray_indices) -> Cone:
        key = frozenset(ray_indices)
        if key not in self._cones:
            raise KeyError(f"no cone with rays {sorted(key)} in this fan")
        return self._cones[key]

    def cones(self):
        return sorted(self._cones.values(), key=Cone.sort_key)

    def maximal_cones(self):
        return [self._cones[r] for r in self.max_cones]

    def faces(self, cone: Cone):
        """All faces of a cone, including the zero cone and itself."""
        if cone.rays not in self._cones:
            raise KeyError("cone does not belong to this fan")
        return sorted((self._cones[f] for f in self._faces_of[cone.rays]), key=Cone.sort_key)

    def is_face(self, tau: Cone, sigma: Cone) -> bool:
        return tau.rays in self._faces_of.get(sigma.rays, ())

    def zero_cone(self) -> Cone:
        return self._cones[frozenset()]

    def chains_above(self, sigma: Cone):
        """Each nonempty chain of cones strictly containing sigma, once,
        as a tuple from its smallest cone up, in no fixed order.

        The descent of the face lattice that reaches every such chain:
        each is grown down from its largest cone through faces still
        strictly above sigma.  Cell links read it (see
        cellcomplex.build_ball_model); the flags read maximal_chains.
        """
        stack = [[c] for rays, c in self._cones.items() if sigma.rays < rays]
        while stack:
            chain = stack.pop()
            yield tuple(reversed(chain))
            low = chain[-1].rays
            stack.extend(chain + [self._cones[f]] for f in self._faces_of[low] if sigma.rays < f < low)

    def maximal_chains(self):
        """Each chain of cones of dimensions 1, ..., n once, as a tuple
        from its ray up, in no fixed order; rank 0 has the empty chain.

        The descent of the face lattice that reaches only these chains:
        each is grown down from an n-dimensional cone through faces of
        one dimension less, down to a ray.
        """
        n = self.dim
        chains = [(c,) for c in self.maximal_cones() if c.dim == n] if n else [()]
        cone = self._cones.__getitem__
        for d in range(n - 1, 0, -1):
            chains = [(f, *chain) for chain in chains for f in map(cone, self._faces_of[chain[0].rays]) if f.dim == d]
        return chains

    def is_complete(self):
        """Facet-pairing completeness test with a certificate.

        True iff every maximal cone is full-dimensional, every
        (n-1)-dimensional cone is a facet of exactly two maximal cones,
        and the facet-adjacency graph of maximal cones is connected.
        The certificate names the first violation found.
        """
        n = self.dim
        if n == 0:
            return True, None
        maxc = self.maximal_cones()
        if not maxc:
            return False, {"reason": "no maximal cones"}
        for c in maxc:
            if c.dim != n:
                return False, {"reason": "maximal cone not full-dimensional", "cone": sorted(c.rays)}
        bounds, reached = ridge_pairing(
            (c.rays, f) for c in maxc for f in self._faces_of[c.rays] if self._cones[f].dim == n - 1
        )
        for ridge, incident in sorted(bounds.items(), key=lambda kv: sorted(kv[0])):
            if len(incident) != 2:
                return False, {
                    "reason": "facet not shared by exactly two maximal cones",
                    "facet": sorted(ridge),
                    "count": len(incident),
                }
        if reached != len(maxc):
            return False, {"reason": "maximal cones not facet-connected", "reached": reached}
        return True, None


def _integer(value, what):
    """value as an int; FanValidationError naming what when value is not
    a finite integer (int() alone would truncate 1.5 and 0.7)."""
    try:
        if value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise FanValidationError(f"{what}: {value!r} is not a finite integer")


def validate_fan(dim, rays, max_cones, require_complete=True, name="fan") -> Fan:
    """Build a Fan after checking the fan axioms exactly.

    Raises NotPrimitiveRay / NotStronglyConvex / FaceIntersectionViolation
    for axiom violations, FanValidationError for other malformations
    (an entry of dim, a ray or a cone that is not a finite integer among
    them), and IncompleteFan when require_complete is set and the support
    is proper.

    Each cone's dimension and strong convexity are read off its double
    description and the face lattice built on it, and one path serves
    every rank: in rank 0 the only fan is the zero cone, listed as [[]].
    """
    n = _integer(dim, "dimension")
    if n < 0:
        raise FanValidationError("dimension must be nonnegative")
    rays = tuple(tuple(_integer(a, f"ray {idx}") for a in r) for idx, r in enumerate(rays))
    for idx, r in enumerate(rays):
        if len(r) != n:
            raise FanValidationError(f"ray {idx} has length {len(r)}, expected {n}")
        if is_zero_vec(r):
            raise NotPrimitiveRay(f"ray {idx} is zero")
        if gcd(*r) != 1:
            raise NotPrimitiveRay(f"ray {idx} = {r} is not primitive")
    if len(set(rays)) != len(rays):
        raise FanValidationError("duplicate ray vectors")

    max_sets = []
    for ci, mc in enumerate(max_cones):
        s = frozenset(_integer(i, f"maximal cone {ci}") for i in mc)
        for i in s:
            if not 0 <= i < len(rays):
                raise FanValidationError(f"ray index {i} out of range")
        if s in max_sets:
            raise FanValidationError(f"maximal cone {sorted(s)} listed twice")
        max_sets.append(s)
    if not max_sets:
        raise FanValidationError("fan needs at least one cone")
    for a in max_sets:
        for b in max_sets:
            if a != b and a <= b:
                raise FanValidationError(f"listed cone {sorted(a)} is a face of {sorted(b)}")
    used = set().union(*max_sets)
    if used != set(range(len(rays))):
        missing = sorted(set(range(len(rays))) - used)
        raise FanValidationError(f"rays {missing} appear in no maximal cone")

    # One dual description per cone: a maximal cone's own gives its
    # faces, and the faces of a face f are the faces of the maximal
    # cone that lie inside f.
    cones_by_rays = {}
    faces_of = {}
    for s in max_sets:
        cone = cones_by_rays[s] = _build_cone(s, rays, n)
        face_sets = _ck.face_index_sets(cone.generators, cone.dual_rays)
        # Strong convexity: the least face of cone(gens) is its lineality
        # space L, and a face is spanned by the generators it holds, so
        # L holds a generator exactly when L != {0}.  Every face contains
        # L, so the empty index set is a face exactly when L = {0}.
        if frozenset() not in face_sets:
            raise NotStronglyConvex(f"cone {sorted(s)} contains a line")
        # Every listed ray must span a one-dimensional face (extremality).
        if sum(len(f) == 1 for f in face_sets) != len(s):
            raise FanValidationError(f"cone {sorted(s)} lists a non-extremal generator")
        order = sorted(s)
        faces = {frozenset(order[i] for i in f) for f in face_sets}
        for f in faces:
            faces_of.setdefault(f, {g for g in faces if g <= f})
            if f not in cones_by_rays:
                cones_by_rays[f] = _build_cone(f, rays, n)

    # Pairwise intersections of maximal cones must be common faces: the
    # shared rays must span a face of both cones, and that face must be
    # the intersection, whose extreme rays the dual description of the
    # sum of the two duals gives.  Its lineality part is empty, so it is
    # not read: the intersection lies in a, which passed the strong
    # convexity test above.  The face tests come first, so the shared
    # rays then key cones_by_rays, which holds every face of every
    # maximal cone.
    for i, a in enumerate(max_sets):
        for b in max_sets[i + 1 :]:
            shared = a & b
            ca, cb = cones_by_rays[a], cones_by_rays[b]
            _, extreme = _ck.dual_generators([*ca.dual_generators, *cb.dual_generators], n)
            if (
                shared not in faces_of[a]
                or shared not in faces_of[b]
                or {primitive(r) for r in extreme} != set(cones_by_rays[shared].generators)
            ):
                raise FaceIntersectionViolation(f"cones {sorted(a)} and {sorted(b)} do not meet in a common face")

    fan = Fan(n, rays, tuple(max_sets), cones_by_rays, faces_of, name)
    if require_complete:
        ok, cert = fan.is_complete()
        if not ok:
            raise IncompleteFan(f"fan is not complete: {cert}")
    return fan


def parse_fan(source) -> dict:
    """Parse a fan description (JSON text or an already-decoded dict).

    Required fields: dim (int), rays (list of integer vectors),
    max_cones (list of ray-index lists).  Optional: name, a non-empty
    string with no "/", "\\" or NUL, other than "." and "..".
    """
    if isinstance(source, (str, bytes)):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e}") from e
    elif isinstance(source, dict):
        data = source
    else:
        raise ParseError(f"cannot parse fan from {type(source).__name__}")
    if not isinstance(data, dict):
        raise ParseError("fan description must be an object")
    for key in ("dim", "rays", "max_cones"):
        if key not in data:
            raise ParseError(f"missing field {key!r}")
    # Not isinstance: JSON true and false decode to bool, an int subclass.
    if type(data["dim"]) is not int:
        raise ParseError("dim must be an integer")
    for coll, kind in ((data["rays"], "rays"), (data["max_cones"], "max_cones")):
        if not isinstance(coll, list) or any(not isinstance(x, list) for x in coll):
            raise ParseError(f"{kind} must be a list of lists")
        for x in coll:
            if any(type(v) is not int for v in x):
                raise ParseError(f"{kind} entries must be integers")
    # mesh names its files after the fan, so a name must stay one plain
    # path component.  Not in validate_fan: star_fan names contain "/".
    name = data.get("name", "fan")
    if not isinstance(name, str) or name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ParseError("name must be a string naming one plain path component")
    return data


def parse_and_validate(source, require_complete=True) -> Fan:
    data = parse_fan(source)
    return validate_fan(
        data["dim"],
        data["rays"],
        data["max_cones"],
        require_complete=require_complete,
        name=data.get("name", "fan"),
    )


def star_fan(fan: Fan, sigma: Cone) -> Fan:
    """Fan of the cones containing sigma, in the quotient lattice.

    The quotient is by the saturation of the span of sigma.  Each cone
    tau one dimension above sigma maps to a ray, spanned by the image of
    any generator of tau outside sigma; a maximal cone containing sigma
    maps to the cone of the rays of the taus it contains (its faces
    containing sigma are the faces of its image).  The result is
    revalidated as a fan of rank n - dim(sigma).  A full-dimensional
    sigma has no tau and is the one maximal cone containing itself, so
    its star is the rank-0 fan [[]].
    """
    if sigma.rays not in fan._cones:
        raise KeyError("cone does not belong to this fan")
    proj = quotient_projection(sigma.generators, fan.dim)
    taus = [tau for tau in fan.cones() if tau.dim == sigma.dim + 1 and sigma.rays < tau.rays]
    rays = [primitive(proj.apply(fan.rays[min(tau.rays - sigma.rays)])) for tau in taus]
    tops = [c for c in fan.maximal_cones() if sigma.rays <= c.rays]
    max_cones = [[i for i, tau in enumerate(taus) if tau.rays <= c.rays] for c in tops]
    name = f"{fan.name}/star{sorted(sigma.rays)}"
    return validate_fan(proj.target_dim, rays, max_cones, require_complete=False, name=name)
