"""Ball model and orbit complex of the nonnegative part, with checks.

The ball model is the abstract simplicial complex with one vertex for
the origin and one per nonzero cone; each flag of length k contributes
the k-simplex {origin} u {members} and, for nonempty flags, the
boundary (k-1)-simplex {members} (its face at infinity).  For a
complete fan this complex triangulates the closed n-ball and its
boundary subcomplex (the order complex of the nonzero cone poset)
triangulates the (n-1)-sphere.

The orbit complex has one open cell per cone, of dimension
n - dim(cone), with incidence reversing cone inclusion; for a complete
fan it is a regular cell structure with a single top cell.

The verification routines certify, by exact combinatorics plus seeded
numerical sampling, that the closed flag simplices glue along exactly
their shared sub-simplices and that every cell closure is again a
combinatorial ball (via star fans).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .bary import Flag, enumerate_flags, flag_intersection
from .charts import Atlas
from .fan import Fan, ridge_pairing, star_fan
from .homeo import param_boundary_point


@dataclass
class BallModel:
    fan: Fan
    n: int
    vertex_labels: tuple  # index 0 is the origin; others name cones by ray set
    simplices: dict  # dim -> frozenset of frozensets of vertex ids

    def f_vector(self):
        top = max(self.simplices) if self.simplices else -1
        return tuple(len(self.simplices.get(d, ())) for d in range(top + 1))

    def boundary_simplices(self):
        """Simplices omitting the origin vertex: the faces at infinity."""
        out = {}
        for d, simps in self.simplices.items():
            keep = frozenset(s for s in simps if 0 not in s)
            if keep:
                out[d] = keep
        return out

    def maximal_simplices(self):
        return sorted(self.simplices.get(self.n, ()), key=sorted)


def build_ball_model(fan: Fan) -> BallModel:
    cones = [c for c in fan.cones() if c.dim > 0]
    vid = {c.rays: i + 1 for i, c in enumerate(cones)}
    labels = ("origin",) + tuple(tuple(sorted(c.rays)) for c in cones)
    simplices = {}

    def add(simplex):
        d = len(simplex) - 1
        simplices.setdefault(d, set()).add(frozenset(simplex))

    for flag in enumerate_flags(fan, only_maximal=False):
        ids = [vid[c.rays] for c in flag.cones]
        add([0] + ids)
        if ids:
            add(ids)
    return BallModel(
        fan=fan,
        n=fan.dim,
        vertex_labels=labels,
        simplices={d: frozenset(s) for d, s in simplices.items()},
    )


def euler_characteristic(simplices: dict) -> int:
    """Alternating sum of face counts of a simplicial complex by dim."""
    return sum((-1) ** d * len(s) for d, s in simplices.items())


@dataclass(frozen=True)
class PseudomanifoldReport:
    passed: bool
    issues: tuple
    top_count: int
    connected: bool

    def __bool__(self):
        return self.passed


def pseudomanifold_check(model: BallModel) -> PseudomanifoldReport:
    """Ball/sphere combinatorics of the model, dimension by dimension.

    Interior (n-1)-simplices (containing the origin) must lie in exactly
    two n-simplices, boundary ones in exactly one; the boundary complex
    must itself be closed (every boundary (n-2)-simplex in exactly two
    boundary (n-1)-simplices); and the dual adjacency graph of the
    n-simplices must be connected.
    """
    n = model.n
    issues = []
    tops = list(model.simplices.get(n, ()))
    if not tops:
        return PseudomanifoldReport(False, ("no top-dimensional simplices",), 0, False)

    def facets(simplices):
        return ((s, s - {v}) for s in simplices for v in s)

    bounds, reached = ridge_pairing(facets(tops))
    for ridge in sorted(model.simplices.get(n - 1, ()), key=sorted):
        count = len(bounds.get(ridge, ()))
        expected = 2 if 0 in ridge else 1
        if count != expected:
            issues.append(f"face {sorted(ridge)} lies in {count} top simplices, expected {expected}")
    if n >= 2:
        boundary_tops = [s for s in model.simplices.get(n - 1, ()) if 0 not in s]
        boundary_bounds, _ = ridge_pairing(facets(boundary_tops))
        boundary_ridges = [s for s in model.simplices.get(n - 2, ()) if 0 not in s]
        for ridge in sorted(boundary_ridges, key=sorted):
            count = len(boundary_bounds.get(ridge, ()))
            if count != 2:
                issues.append(
                    f"boundary face {sorted(ridge)} lies in {count} boundary facets, expected 2"
                )
    connected = reached == len(tops)
    if not connected:
        issues.append("dual adjacency graph of top simplices is disconnected")
    return PseudomanifoldReport(not issues, tuple(issues), len(tops), connected)


@dataclass(frozen=True)
class OrbitComplex:
    """One cell per cone; cell dimension n - dim(cone); incidence is
    reversed inclusion of cones (the zero cone carries the open torus)."""

    fan: Fan
    cells: tuple  # (rayset tuple, cell dimension), sorted

    def euler_characteristic(self) -> int:
        return sum((-1) ** d for _, d in self.cells)

    def top_cells(self):
        n = self.fan.dim
        return [c for c, d in self.cells if d == n]

    def in_closure(self, inner, outer) -> bool:
        """cell(inner) lies in the closure of cell(outer) iff the cone of
        outer is a face of the cone of inner."""
        return frozenset(outer) <= frozenset(inner)


def build_orbit_complex(fan: Fan) -> OrbitComplex:
    n = fan.dim
    cells = tuple((tuple(sorted(c.rays)), n - c.dim) for c in fan.cones())
    return OrbitComplex(fan=fan, cells=cells)


# ---------------------------------------------------------------------------
# Gluing verification
# ---------------------------------------------------------------------------


@dataclass
class GluingReport:
    passed: bool
    pairs_checked: int
    shared_samples: int
    distinct_samples: int
    worst_shared_gap: float
    counterexamples: list = field(default_factory=list)

    def __bool__(self):
        return self.passed


def _embed_xi(sub_xi, flag: Flag, members):
    """Barycentric coordinates on a full flag simplex supported on the
    sub-simplex of the given members (plus the origin vertex)."""
    xi = [0.0] * (len(flag) + 1)
    xi[0] = sub_xi[0]
    positions = [j for j, c in enumerate(flag.cones) if c.rays in members]
    for t, j in enumerate(positions):
        xi[j + 1] = sub_xi[t + 1]
    return tuple(xi)


def _simplex_samples(rng, dim, count, include_vertices=True):
    """Points of the standard dim-simplex: vertices, then seeded random
    points, some forced onto the xi_0 = 0 boundary stratum."""
    out = []
    if include_vertices:
        for i in range(dim + 1):
            out.append(tuple(1.0 if j == i else 0.0 for j in range(dim + 1)))
    while len(out) < count:
        raw = [rng.random() for _ in range(dim + 1)]
        if dim >= 1 and len(out) % 3 == 2:
            raw[0] = 0.0  # face at infinity
        total = sum(raw)
        out.append(tuple(x / total for x in raw))
    return out[:count]


def _interior_samples(rng, dim, count, margin=0.05):
    out = []
    for _ in range(count):
        raw = [margin + rng.random() for _ in range(dim + 1)]
        total = sum(raw)
        out.append(tuple(x / total for x in raw))
    return out


def verify_gluing(
    atlas: Atlas,
    samples_per_pair: int = 50,
    tol: float = 1e-9,
    seed: int = 0,
    max_pairs: int = 500,
) -> GluingReport:
    """Certify that closed flag simplices intersect exactly in the closed
    simplex of the intersection flag.

    For each pair of maximal flags: (i) points of the shared closed
    sub-simplex, parameterized through both charts, must agree under
    points_equal at tol; (ii) interior points of the two simplices away
    from the shared face must be distinct.  All pairs are checked when
    there are at most 200 maximal flags, otherwise max_pairs seeded
    random pairs.
    """
    fan = atlas.fan
    flags = enumerate_flags(fan, only_maximal=True)
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(len(flags)) for j in range(i, len(flags))]
    if len(flags) > 200:
        pairs = [tuple(sorted(rng.sample(range(len(flags)), 2))) for _ in range(max_pairs)]
    report = GluingReport(True, 0, 0, 0, 0.0)
    half = max(samples_per_pair // 2, 1)
    for i, j in pairs:
        f1, f2 = flags[i], flags[j]
        shared = flag_intersection(f1, f2)
        members = {c.rays for c in shared.cones}
        report.pairs_checked += 1
        for sub_xi in _simplex_samples(rng, len(shared), half):
            p1 = param_boundary_point(atlas, f1, _embed_xi(sub_xi, f1, members))
            p2 = param_boundary_point(atlas, f2, _embed_xi(sub_xi, f2, members))
            gap = atlas.value_gap(p1, p2)
            report.shared_samples += 1
            if gap is None or gap > tol:
                report.passed = False
                report.counterexamples.append(
                    {"kind": "shared", "flags": [i, j], "xi": list(sub_xi), "gap": gap}
                )
            else:
                report.worst_shared_gap = max(report.worst_shared_gap, gap)
        if i == j:
            continue
        for xi1, xi2 in zip(
            _interior_samples(rng, len(f1), half), _interior_samples(rng, len(f2), half)
        ):
            p1 = param_boundary_point(atlas, f1, xi1)
            p2 = param_boundary_point(atlas, f2, xi2)
            report.distinct_samples += 1
            if atlas.points_equal(p1, p2, tol=tol):
                report.passed = False
                report.counterexamples.append(
                    {"kind": "distinct", "flags": [i, j], "xi": [list(xi1), list(xi2)]}
                )
    return report


# ---------------------------------------------------------------------------
# Regularity of the cell structure
# ---------------------------------------------------------------------------


@dataclass
class RegularityReport:
    passed: bool
    cells: list  # per-cone dicts: rays, cell dim, euler, pseudomanifold

    def __bool__(self):
        return self.passed


def verify_regularity(fan: Fan) -> RegularityReport:
    """Each cell closure must be a combinatorial ball.

    For every cone, the star fan (quotient fan of the cones containing
    it) is built; it must be complete, and its ball model must have
    Euler characteristic 1 and pass the pseudomanifold check.  This is
    the checkable footprint of every closed cell being attached along a
    sphere.
    """
    report = RegularityReport(True, [])
    for cone in fan.cones():
        star = star_fan(fan, cone)
        complete, cert = star.is_complete()
        model = build_ball_model(star)
        chi = euler_characteristic(model.simplices)
        pm = pseudomanifold_check(model)
        ok = complete and chi == 1 and pm.passed
        report.cells.append(
            {
                "rays": sorted(cone.rays),
                "cell_dim": fan.dim - cone.dim,
                "star_complete": complete,
                "euler": chi,
                "pseudomanifold": pm.passed,
                "ok": ok,
            }
        )
        if not ok:
            report.passed = False
    return report
