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

The verification routines certify that the closed flag simplices glue
along exactly their shared sub-simplices (by integer identities on the
charts' exponents, with seeded samples as a cross-check of the float
evaluators; distinct points separate by the exact gates of verify) and
that every cell closure is again a combinatorial ball (by the link of
each cone, read off the face lattice).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import pairwise

from .bary import Flag, NotInCone, enumerate_flags, locate_flag
from .charts import TWO_PI, Atlas, _monomials, scaled_gaps, triangular_eval
from .exact import pair, vsub
from .fan import Cone, Fan, ridge_pairing
from .homeo import bary_to_delta


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


def build_ball_model(fan: Fan, sigma: Cone | None = None) -> BallModel:
    """The ball model of the fan, or with sigma that of its star.

    The vertices past the origin are the cones strictly containing sigma
    (the zero cone by default), and the simplices come from the flags
    whose first cone strictly contains sigma, the empty flag included;
    the model has rank fan.dim - sigma.dim.  Its boundary is the order
    complex of those cones: the link of sigma's cell.
    """
    sigma = sigma or fan.zero_cone()
    cones = [c for c in fan.cones() if sigma.rays < c.rays]
    vid = {c.rays: i + 1 for i, c in enumerate(cones)}
    labels = ("origin",) + tuple(tuple(sorted(c.rays)) for c in cones)
    simplices = {}

    def add(simplex):
        d = len(simplex) - 1
        simplices.setdefault(d, set()).add(frozenset(simplex))

    for flag in enumerate_flags(fan, only_maximal=False):
        if flag.cones and flag.cones[0].rays not in vid:
            continue
        ids = [vid[c.rays] for c in flag.cones]
        add([0] + ids)
        if ids:
            add(ids)
    return BallModel(
        fan=fan,
        n=fan.dim - sigma.dim,
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
    shared_samples: int
    worst_shared_gap: float
    counterexamples: list = field(default_factory=list)
    identities: int = 0
    located_samples: int = 0

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


def _simplex_samples(rng, dim, count):
    """Points of the standard dim-simplex: vertices, then seeded random
    points, some forced onto the xi_0 = 0 boundary stratum."""
    out = [tuple(1.0 if j == i else 0.0 for j in range(dim + 1)) for i in range(dim + 1)]
    while len(out) < count:
        raw = [rng.random() for _ in range(dim + 1)]
        if dim >= 1 and len(out) % 3 == 2:
            raw[0] = 0.0  # face at infinity
        total = sum(raw)
        out.append(tuple(x / total for x in raw))
    return out[:count]


def _interior_samples(rng, dim, count):
    """Seeded points of the open dim-simplex, each weight at least
    0.05 before normalizing."""
    out = []
    for _ in range(count):
        raw = [0.05 + rng.random() for _ in range(dim + 1)]
        total = sum(raw)
        out.append(tuple(x / total for x in raw))
    return out


def _steps(barycenters):
    """B_j - B_{j-1} for barycenters B_1..B_k, with B_0 = 0."""
    return [b if j == 0 else vsub(b, barycenters[j - 1]) for j, b in enumerate(barycenters)]


def _compose(terms, rows, n):
    """Exponent vector of a decomposition's terms under the exponent rows."""
    out = [0] * n
    for i, c in terms:
        for j in range(n):
            out[j] += c * rows[i][j]
    return out


def gluing_identities(atlas: Atlas, flags):
    """Exact certificate that the maximal flag charts glue on shared faces.

    Returns (number of identities checked, witnesses of the failed ones).

    The chart of a maximal flag F, with top cone sigma and barycenters
    B_1..B_n (B_0 = 0), gives h in H(sigma) the value prod_j w_j^b_hj.
    The localization rule sigma -> tau writes h' + k*alpha (h' in
    H(tau)) and alpha in H(sigma); composed with the Hilbert rows of b
    it gives the exponent of w_j in h''s localized value,
    sum_h c_h b_hj - k sum_h a_h b_hj.  For every face tau of sigma
    (sigma itself included, where the rule is the identity) and every
    h' in H(tau), that exponent must equal <h', B_j> - <h', B_{j-1}>
    for every j.  For tau != sigma the rule's alpha = sum_h a_h h must
    also vanish on tau's rays and be positive on sigma's other rays.

    Why this certifies the gluing.  Let S be a subflag of F at positions
    s_1 < ... < s_k, with top cone tau (the zero cone if S is empty).  A
    point of S's closed simplex has xi = 0 off the origin vertex and S,
    so w_j = xi_0 + ... + xi_{j-1} is constant between members of S:
    w_j = W_t = xi_0 + xi_{s_1} + ... + xi_{s_t} for s_t < j <= s_{t+1}
    (s_0 = 0), and w_j = 1 past s_k.  By the tau = sigma identities the
    exponent of w_j in alpha's value is <alpha, B_j - B_{j-1}>, zero up
    to s_k since alpha vanishes on tau, so alpha's value is 1 and the
    point lies in tau's chart.  There the value of h' is

        prod_j w_j^<h', B_j - B_{j-1}>  =  prod_{t<k} W_t^<h', B_{s_{t+1}} - B_{s_t}>,

    the product telescoping over each run of equal w_j.  The right side
    depends only on S (its barycenters and its own coordinates), not on
    F, so every maximal flag containing S gives the same point of tau's
    chart at every point of S's closed simplex; that chart is an open
    part of every chart containing it, so they give the same point of
    the space.  Faces of sigma that top no subflag of F certify the
    rules that the comparison of points in different charts uses.
    """
    count = 0
    failures = []
    for fi, flag in enumerate(flags):
        chart = atlas.chart(flag)
        sigma, n = chart.top_cone, chart.n
        gens = atlas.hilbert(sigma).generators
        rows = [chart.b[r] for r in chart.hilbert_rows]
        steps = _steps(flag.barycenters)
        for tau in atlas.fan.faces(sigma):
            rule = atlas._localization_rule(sigma, tau)
            if rule[0] == "identity":
                found = [(h, list(row)) for h, row in zip(gens, rows)]
            else:
                _, alpha_terms, shifts = rule
                alpha = _compose(alpha_terms, gens, len(gens[0]))
                count += 1
                others = [r for i, r in zip(sorted(sigma.rays), sigma.generators) if i not in tau.rays]
                if any(pair(alpha, r) != 0 for r in tau.generators) or any(pair(alpha, r) <= 0 for r in others):
                    failures.append({"flag": fi, "face": sorted(tau.rays), "cutting_functional": alpha})
                cut = _compose(alpha_terms, rows, n)
                found = [
                    (h, [e - k * a for e, a in zip(_compose(terms, rows, n), cut)])
                    for h, (k, terms) in zip(atlas.hilbert(tau).generators, shifts)
                ]
            for h, exponents in found:
                count += 1
                expected = [pair(h, d) for d in steps]
                if exponents != expected:
                    failures.append(
                        {
                            "flag": fi,
                            "face": sorted(tau.rays),
                            "generator": list(h),
                            "found": exponents,
                            "expected": expected,
                        }
                    )
    return count, failures


def _subflag_cross_check(atlas: Atlas, flags, rng, count, tol, report):
    """Float cross-check of the evaluators behind the identities above:
    at count seeded points of each subflag S of each maximal flag
    (vertices and the face at infinity included), the chart point
    localized to S's top cone (through the flag's face map) must match
    the telescoped monomials prod_t W_t^<h', B_{s_{t+1}} - B_{s_t}>,
    computed from S alone.  Returns the counterexamples; the worst
    passing gap goes to report, so every gap is computed in full."""
    zero = atlas.fan.zero_cone()
    out = []
    for fi, flag in enumerate(flags):
        chart = atlas.chart(flag)
        n = len(flag)
        for mask in range(2**n):
            members = [c for j, c in enumerate(flag.cones) if mask >> j & 1]
            tau = members[-1] if members else zero
            face = atlas.face_map(chart, tau)
            steps = _steps([b for j, b in enumerate(flag.barycenters) if mask >> j & 1])
            # Each generator's nonzero (column, exponent) terms, so
            # _monomials gives the floats of monomial_eval.
            terms = [
                tuple((t, e) for t, d in enumerate(steps) if (e := pair(h, d)))
                for h in atlas.hilbert(tau).generators
            ]
            rays = {c.rays for c in members}
            for sub_xi in _simplex_samples(rng, len(members), count):
                local = face(bary_to_delta(_embed_xi(sub_xi, flag, rays)))
                telescoped = _monomials(terms, bary_to_delta(sub_xi))  # at W_0..W_{k-1}
                report.shared_samples += 1
                gap = None if local is None else max(scaled_gaps(local, telescoped), default=0.0)
                if gap is None or gap > tol:
                    out.append(
                        {
                            "kind": "shared",
                            "flag": fi,
                            "subflag": [sorted(c.rays) for c in members],
                            "xi": list(sub_xi),
                            "gap": gap,
                        }
                    )
                else:
                    report.worst_shared_gap = max(report.worst_shared_gap, gap)
    return out


def _log_pairings(values):
    """ell = -log(y) / 2 pi for each chart value y, the pairing <g, x>
    when y = e^(-2 pi <g, x>); None when some y is 0.0 or not finite."""
    if not all(0.0 < y < math.inf for y in values):
        return None
    return [-math.log(y) / TWO_PI for y in values]


def _cone_point(chart, ells):
    """The simplicial coordinates u and the point x = sum_k u_k B_k of
    N_R whose pairings with the chart's n triangular generators are
    ells.  Row i of the triangular block of chart.c, <alpha_i, B_k>,
    vanishes for k < i and is positive at k = i, so u is found by
    back-substitution."""
    n = chart.n
    u = [0.0] * n
    for i in reversed(range(n)):
        row = chart.c[i]
        u[i] = (ells[i] - sum(row[k] * u[k] for k in range(i + 1, n))) / row[i]
    return u, tuple(sum(uk * b[t] for uk, b in zip(u, chart.flag.barycenters)) for t in range(n))


def _sample_coords(w):
    """The simplicial coordinates of a simplex-chain point w, the u with
    theta(e^(-2 pi u)) = w: u_j = -log(w_j / w_(j+1)) / 2 pi, w_(n+1) = 1."""
    return [-math.log(a / b) / TWO_PI for a, b in pairwise([*w, 1.0])]


def _locate_cross_check(atlas: Atlas, flags, rng, count, tol):
    """Float cross-check of the evaluators behind the distinct half:
    count seeded interior points of each maximal flag F's simplex are
    mapped through the chart's triangular rows, u and x are recovered
    from the values (_log_pairings, _cone_point), bary.locate_flag must
    return F, and u must match the sample's own coordinates
    (_sample_coords) within tol, each gap scaled by max(1, |u_j|).  Each
    point lies a fixed margin inside F's open cone, so F is the only
    answer.  Returns the counterexamples: a "locate" one names F, the
    located flag (None when a chart value is 0.0 or not finite, or
    nothing is located) and the sample; a "coordinates" one names F, the
    worst scaled gap and the sample."""
    index = {flag: fi for fi, flag in enumerate(flags)}
    out = []
    for fi, flag in enumerate(flags):
        chart = atlas.chart(flag)
        for xi in _interior_samples(rng, len(flag), count):
            w = bary_to_delta(xi)
            ells = _log_pairings(triangular_eval(chart, w))
            u = located = None
            if ells is not None:
                u, x = _cone_point(chart, ells)
                try:
                    located = index.get(locate_flag(atlas.fan, x))
                except NotInCone:
                    pass
            if located != fi:
                out.append({"kind": "locate", "flag": fi, "located": located, "xi": list(xi)})
                continue
            gaps = [abs(a - b) / max(1.0, abs(b)) for a, b in zip(u, _sample_coords(w))]
            if not all(g <= tol for g in gaps):
                out.append({"kind": "coordinates", "flag": fi, "gap": max(gaps), "xi": list(xi)})
    return out


def verify_gluing(atlas: Atlas, samples_per_pair: int = 50, tol: float = 1e-9, seed: int = 0) -> GluingReport:
    """Certify that closed flag simplices intersect exactly in the closed
    simplex of the intersection flag.

    (i) Shared faces agree: exactly, by gluing_identities, with a float
    cross-check of the evaluators on every (maximal flag, subflag); see
    _subflag_cross_check.

    (ii) Interior points of two different maximal flag simplices are
    distinct.  This is a corollary of three exact facts, not a sample:

      1. The identities of verify's monomial_diagram check: the partial
         sums of each exponent row are b_g1 + ... + b_gi = <g, B_i>, and
         the flag's left inverse is dual to its barycenters.  So at
         w = theta(e^(-2 pi u)) the chart value of g is
         e^(-2 pi <g, x>) with x = sum_i u_i B_i, and u are the
         simplicial coordinates of x.  An interior point of F's simplex
         has 0 < w_1 < ... < w_n < 1, hence u > 0: it is the image of a
         point x of F's open flag cone.
      2. The cover certificate (bary.cover_check): the open flag cones of
         distinct maximal flags are disjoint, so the two points come
         from different x != x'.
      3. Every cone of a validated fan is strongly convex, so the
         Hilbert basis of the intersection tau of the two top cones
         spans M_Q.  Both points lie in the open torus, where the
         localized values on H(tau) are e^(-2 pi <h, x>), and
         x -> e^(-2 pi <., x>) is injective: some h in H(tau) pairs
         differently with x and x', so the points differ.

    verify reports this half as exact and fails it when either gate
    fails.  What the identities do not cover is the float evaluators;
    _locate_cross_check locates samples of each maximal flag back to
    it and compares their recovered simplicial coordinates with their
    own, at samples_per_pair // 2 points per flag.

    One seeded generator feeds the subflag cross-check, then the locate
    cross-check.  Counterexamples are listed identities first, then
    shared, then those of the locate cross-check.
    """
    flags = enumerate_flags(atlas.fan, only_maximal=True)
    rng = random.Random(seed)
    report = GluingReport(True, 0, 0.0)
    report.identities, witnesses = gluing_identities(atlas, flags)
    half = max(samples_per_pair // 2, 1)
    shared = _subflag_cross_check(atlas, flags, rng, half, tol, report)
    located = _locate_cross_check(atlas, flags, rng, half, tol)
    report.located_samples = len(flags) * half
    report.counterexamples = [{"kind": "identity", **w} for w in witnesses] + shared + located
    report.passed = not report.counterexamples
    return report


# ---------------------------------------------------------------------------
# Regularity of the cell structure
# ---------------------------------------------------------------------------


@dataclass
class RegularityReport:
    passed: bool
    cells: list  # per-cone dicts: rays, cell dim, the three tests, failed, ok

    def __bool__(self):
        return self.passed


def sphere_euler(dim: int) -> int:
    """Euler characteristic of the dim-sphere; the empty S^-1 has 0."""
    return 1 - (-1) ** (dim + 1)


def verify_regularity(fan: Fan) -> RegularityReport:
    """Each cell closure must be a combinatorial ball.

    For every cone sigma, the star of sigma must be complete
    (fan.is_complete(sigma)), the boundary of its ball model
    (build_ball_model(fan, sigma): the link of the cell, a sphere of one
    dimension less than the star's rank m = n - dim sigma) must have the
    Euler characteristic of S^(m-1), and the model must pass the
    pseudomanifold check.  This is the checkable footprint of every
    closed cell being attached along a sphere.  The whole ball model is
    a cone over that boundary, so its own Euler characteristic is 1 for
    any fan and tests nothing.

    Why no star fan is built.  For a validated fan, the cones of
    star_fan(fan, sigma) match the cones of fan containing sigma one for
    one; the match keeps inclusion and lowers each dimension by
    dim sigma.  So the star's maximal cones, its facets and their
    pairing, its nonzero cones and its flags are those of the face
    lattice above sigma, and the completeness test and the ball model
    read off that lattice give the star fan's answers exactly.
    """
    report = RegularityReport(True, [])
    for cone in fan.cones():
        complete, _ = fan.is_complete(cone)
        model = build_ball_model(fan, cone)
        chi = euler_characteristic(model.boundary_simplices())
        pm = pseudomanifold_check(model)
        failed = [
            test
            for test, ok in (
                ("star_complete", complete),
                ("euler", chi == sphere_euler(model.n - 1)),
                ("pseudomanifold", pm.passed),
            )
            if not ok
        ]
        report.cells.append(
            {
                "rays": sorted(cone.rays),
                "cell_dim": fan.dim - cone.dim,
                "star_complete": complete,
                "euler": chi,
                "pseudomanifold": pm.passed,
                "failed": failed,
                "ok": not failed,
            }
        )
        if failed:
            report.passed = False
    return report
