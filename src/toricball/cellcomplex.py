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
charts' Hilbert rows and, once each, on the localization rules, with
seeded samples as a cross-check of the float evaluators; b's values and
distinct points rest on the exact gates of verify) and that every cell
closure is again a combinatorial ball (by the link of each cone, read
off the face lattice).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import reduce
from operator import add

from .bary import enumerate_flags
from .charts import EQUAL_TOL, Atlas, monomial_columns, scaled_gaps, shifted_columns, sup_gap
from .exact import pair
from .fan import Cone, Fan, ridge_pairing


@dataclass
class BallModel:
    fan: Fan
    n: int
    simplices: dict  # dim -> frozenset of frozensets of vertex ids; 0 is the origin

    def boundary_simplices(self):
        """Simplices omitting the origin vertex: the faces at infinity."""
        out = {}
        for d, simps in self.simplices.items():
            keep = frozenset(s for s in simps if 0 not in s)
            if keep:
                out[d] = keep
        return out


def build_ball_model(fan: Fan, sigma: Cone | None = None) -> BallModel:
    """The ball model of the fan, or with sigma that of its star.

    The vertices past the origin are the cones strictly containing sigma
    (the zero cone by default), numbered in fan.cones() order.  The
    simplices are {0}, and {0} u C and C for each chain C of those cones
    that fan.chains_above(sigma) yields, so the model reads the face
    lattice above sigma and no flag of the fan; it has rank
    fan.dim - sigma.dim.  Its boundary is the order complex of those
    cones: the link of sigma's cell.
    """
    sigma = sigma or fan.zero_cone()
    cones = [c for c in fan.cones() if sigma.rays < c.rays]
    vid = {c.rays: i + 1 for i, c in enumerate(cones)}
    simplices = {0: {frozenset([0])}}
    for chain in fan.chains_above(sigma):
        ids = frozenset(vid[c.rays] for c in chain)
        simplices.setdefault(len(ids), set()).add(ids | {0})
        simplices.setdefault(len(ids) - 1, set()).add(ids)
    return BallModel(
        fan=fan,
        n=fan.dim - sigma.dim,
        simplices={d: frozenset(s) for d, s in simplices.items()},
    )


def euler_characteristic(simplices: dict) -> int:
    """Alternating sum of face counts of a simplicial complex by dim."""
    return sum((-1) ** d * len(s) for d, s in simplices.items())


@dataclass(frozen=True)
class PseudomanifoldReport:
    passed: bool
    issues: tuple


def pseudomanifold_check(model: BallModel) -> PseudomanifoldReport:
    """Ball combinatorics of the model: every interior (m-1)-simplex (one
    through the origin) lies in exactly two top m-simplices, and the dual
    adjacency graph of the tops is connected.

    Every model that build_ball_model(fan, sigma) makes is the cone from
    the origin over the chains of cones strictly above sigma, of rank
    m = n - dim sigma (model.n).  Its tops are {0} u C, C a chain of m cones; since
    dimensions run from dim sigma + 1 to n, each step of C raises the
    dimension by one.  Two ridge counts are therefore not tested, as
    neither can decide a verdict:

      a boundary (m-1)-simplex C lies only in the top {0} u C (no chain
      of m + 1 cones exists above sigma), so it lies in exactly one top;

      a boundary (m-2)-simplex R, a chain of m - 1 cones, lies in the
      boundary facets C that contain R, and these are exactly the tops
      {0} u C over the interior ridge {0} u R; so R lies in two boundary
      facets exactly where {0} u R lies in two tops, and the boundary
      is closed exactly where the interior count passes.

    ridge_pairing reads every facet of every top: a boundary facet lies
    in one top only, so it joins no two tops, and it lets the single top
    {0} of a rank-0 model count as reached.
    """
    n = model.n
    tops = list(model.simplices.get(n, ()))
    if not tops:
        return PseudomanifoldReport(False, ("no top-dimensional simplices",))
    bounds, reached = ridge_pairing((s, s - {v}) for s in tops for v in s)
    # Only the failing interior ridges are sorted: a passing model has none.
    unpaired = [r for r in model.simplices.get(n - 1, ()) if 0 in r and len(bounds.get(r, ())) != 2]
    issues = [
        f"face {sorted(ridge)} lies in {len(bounds.get(ridge, ()))} top simplices, expected 2"
        for ridge in sorted(unpaired, key=sorted)
    ]
    if reached != len(tops):
        issues.append("dual adjacency graph of top simplices is disconnected")
    return PseudomanifoldReport(not issues, tuple(issues))


@dataclass(frozen=True)
class OrbitComplex:
    """One cell per cone; cell dimension n - dim(cone); incidence is
    reversed inclusion of cones (the zero cone carries the open torus)."""

    fan: Fan
    cells: tuple  # (rayset tuple, cell dimension), sorted

    def euler_characteristic(self) -> int:
        return sum((-1) ** d for _, d in self.cells)


def build_orbit_complex(fan: Fan) -> OrbitComplex:
    n = fan.dim
    cells = tuple((tuple(sorted(c.rays)), n - c.dim) for c in fan.cones())
    return OrbitComplex(fan=fan, cells=cells)


# ---------------------------------------------------------------------------
# Gluing verification
# ---------------------------------------------------------------------------

SHARED_SAMPLES = 25  # verify_gluing's points per (maximal flag, nonempty proper prefix)


@dataclass(frozen=True)
class GluingReport:
    passed: bool
    shared_samples: int
    worst_shared_gap: float
    counterexamples: list
    identities: int


def _simplex_samples(rng, dim, count):
    """count points of the standard dim-simplex, dim >= 1: its vertices
    but e_0 (the origin, where the cross-check cannot fail), then seeded
    random points, every third of them forced onto the xi_0 = 0 stratum
    (the face at infinity) when dim >= 2; at dim 1 that point is the
    vertex e_1 again.  The random points' numbers are drawn in one list,
    dim + 1 per point, in generator order."""
    width = dim + 1
    out = [tuple(float(j == i) for j in range(width)) for i in range(1, width)][:count]
    draw = rng.random
    raws = [draw() for _ in range((count - len(out)) * width)]
    for p, raw in enumerate(zip(*[iter(raws)] * width)):
        if dim >= 2 and p % 3 == 2:
            raw = (0.0, *raw[1:])  # face at infinity
        # Left to right: from Python 3.12 on, sum() of floats compensates
        # its rounding and would move the samples off the 3.10/3.11 floats.
        total = reduce(add, raw)
        out.append(tuple([x / total for x in raw]))
    return out


def _compose(terms, vectors):
    """sum_i c_i * vectors[i] over a decomposition's (i, c_i) terms."""
    out = [0] * len(vectors[0])
    for i, c in terms:
        for j, v in enumerate(vectors[i]):
            out[j] += c * v
    return out


def gluing_identities(atlas: Atlas, flags):
    """Exact certificate that the maximal flag charts glue on shared faces.

    Returns (number of identities checked, witnesses of the failed ones).

    Two kinds of identity are checked, each fact once:

      rows, per maximal flag F with top cone sigma: the chart has one
      Hilbert row per h in H(sigma) (witness: flag, face = sigma, rows,
      expected_rows; a precondition of the identities that follow,
      not counted as one), and the generator at
      the Hilbert row of each h in H(sigma) is h (witness: flag, face =
      sigma, generator = h, found = the generator at that row).  With
      verify's monomial_diagram identities, b_gj = <g, B_j - B_(j-1)>
      for every row g (B_0 = 0), this is b_hj = <h, B_j - B_(j-1)>;

      rules, once per localization rule sigma -> tau, for sigma the
      distinct top cones of flags in first-seen order and tau each
      proper face of sigma in fan.faces order: the rule's alpha =
      sum_h a_h h vanishes on tau's rays and is positive on sigma's
      other rays (witness: cone, face, cutting_functional) and the rule
      has one row per h' in H(tau) (witness: cone, face, rows,
      expected_rows), both counted as one identity; and its row
      of each h' in H(tau) satisfies sum_h c_h h = h' + k*alpha in M
      (witness: cone, face, generator = h', found = sum_h c_h h,
      expected = h' + k*alpha).

    The rules hold for every flag ending in sigma.  For such a flag,
    the rule composed with the Hilbert rows gives the exponent of w_j in
    h''s localized value, sum_h c_h b_hj - k sum_h a_h b_hj.  By the
    rows this is <sum_h c_h h - k*alpha, B_j - B_(j-1)>, and by the rule
    <h', B_j - B_(j-1)>: the exponent of w_j in h''s value on tau's own
    flag charts.  Conversely, the steps B_j - B_(j-1) form a basis of
    N_Q (the barycenters do, and the steps are a unitriangular change of
    them), so that exponent identity for every j forces the rule's
    identity in M.  The rows and the rules thus certify exactly the
    per-flag identities "the localized row of h' is
    (<h', B_j - B_(j-1)>)_j, for every face tau of sigma", at
    sum_F |H(sigma_F)| + sum_sigma sum_(tau < sigma) (1 + |H(tau)|)
    identities rather than once per flag ending in sigma.  Each chart
    has its own rows, so they stay per flag; b's values rest on
    monomial_diagram, which verify's intersection_gluing reads as a gate.

    Why this certifies the gluing.  Let S be a subflag of F at positions
    s_1 < ... < s_k, with top cone tau (the zero cone if S is empty).  A
    point of S's closed simplex has xi = 0 off the origin vertex and S,
    so w_j = xi_0 + ... + xi_{j-1} is constant between members of S:
    w_j = W_t = xi_0 + xi_{s_1} + ... + xi_{s_t} for s_t < j <= s_{t+1}
    (s_0 = 0), and w_j = 1 past s_k.  By the rows, the exponent of w_j
    in alpha's value is <alpha, B_j - B_{j-1}>, zero up to s_k since
    alpha vanishes on tau, so alpha's value is 1 and the point lies in
    tau's chart.  There the value of h' is

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
        gens, face = atlas.hilbert(chart.top_cone).generators, sorted(chart.top_cone.rays)
        if len(chart.hilbert_rows) != len(gens):
            failures.append({"flag": fi, "face": face, "rows": len(chart.hilbert_rows), "expected_rows": len(gens)})
        for h, r in zip(gens, chart.hilbert_rows):
            count += 1
            if chart.generators[r] != h:
                failures.append({"flag": fi, "face": face, "generator": list(h), "found": list(chart.generators[r])})
    for sigma in dict.fromkeys(flag.cones[-1] for flag in flags):
        gens = atlas.hilbert(sigma).generators
        for tau in atlas.fan.faces(sigma):
            if tau.rays == sigma.rays:
                continue
            _, alpha_terms, shifts, _ = atlas._localization_rule(sigma, tau)
            alpha = _compose(alpha_terms, gens)
            where = {"cone": sorted(sigma.rays), "face": sorted(tau.rays)}
            count += 1
            others = [r for i, r in zip(sorted(sigma.rays), sigma.generators) if i not in tau.rays]
            if any(pair(alpha, r) != 0 for r in tau.generators) or any(pair(alpha, r) <= 0 for r in others):
                failures.append({**where, "cutting_functional": alpha})
            tau_gens = atlas.hilbert(tau).generators
            if len(shifts) != len(tau_gens):
                failures.append({**where, "rows": len(shifts), "expected_rows": len(tau_gens)})
            for h, (k, terms) in zip(tau_gens, shifts):
                count += 1
                found, expected = _compose(terms, gens), [e + k * a for e, a in zip(h, alpha)]
                if found != expected:
                    failures.append({**where, "generator": list(h), "found": found, "expected": expected})
    return count, failures


def _telescoped_terms(generators, steps):
    """Per generator h, the nonzero (t, <h, B_(t+1) - B_t>) pairs of the
    telescoped monomial prod_t W_t^<h, B_(t+1) - B_t> (B_0 = 0, steps
    a prefix of Flag.steps), in column order, so that monomial_columns
    gives, per point, the floats of charts._monomials."""
    return [tuple((t, e) for t, d in enumerate(steps) if (e := pair(h, d))) for h in generators]


def _subflag_cross_check(atlas: Atlas, flags, rng, count):
    """Float cross-check of the evaluators behind the identities above:
    at count seeded points of each nonempty proper prefix subflag
    S = F[:k], k = 1..n-1, of each maximal flag F (the vertices but the
    origin, and the face at infinity, included), the chart point
    localized to S's top cone tau (by the rule that the identities
    certify) must match, within EQUAL_TOL, the telescoped monomials
    prod_t W_t^<h', B_{t+1} - B_t>, computed from S alone.  Each face
    map F -> tau between the zero cone and the top is sampled once, on
    the prefix that ends at tau.

    Each (F, k) is one batch, held a column per coordinate.  Its count
    samples are drawn from rng in loop order, one list of numbers per
    batch (_simplex_samples); the w columns are
    homeo.check_barycentric's partial sums, added one column at a time
    (past W_k the zero padding adds 0.0, which moves no float); the Hilbert
    rows that the rule sigma -> tau reads (its alpha_terms and the terms
    of each of its rows) and the telescoped rows go through
    charts.monomial_columns; charts.shifted_columns, the batch form of
    charts._shifted, applies the rule; and the gaps are charts.scaled_gaps'
    terms, taken row by row and reduced per sample by sup_gap.  The
    floats are the per-point floats: per point, each kernel does the
    operations of its single-point form in the same order.  A product
    starts from 1.0 and multiplies the same powers in term order, as
    charts._monomials and charts._value_at do; a row is divided by
    v_alpha**k only after charts._shifted's off-chart test; and each
    float operation is correctly rounded, so equal operands give equal
    results in a list or one at a time.  So every value, gap and
    counterexample is the one of Atlas.localize(Atlas.chart_point(chart,
    w), tau), point by point (tests/test_complex.py keeps that loop as
    the reference), at a cost that follows the rule rather than
    |H(sigma)|.  Each rule sigma -> tau is fetched from
    Atlas._localization_rule once per call and kept with its read set,
    and the telescoped terms of each prefix, which every maximal flag
    through it shares, are computed once per call.

    The origin is certified instead of sampled: the empty prefix, k = 0,
    whose only point it is, and the vertex e_0 of every other prefix.
    There every w_j is 1.0, so every Hilbert value, v_alpha, localized
    row and telescoped row is a product of integer powers of 1.0 (a
    localized row one over v_alpha's), exactly 1.0, and every gap is
    0.0, for any integer chart data.

    The full flag, k = n, is certified instead of sampled.  Its rule is
    the identity, and its telescoped terms (_telescoped_terms) are the
    nonzero (j, <h, B_j - B_(j-1)>) pairs of each h in H(sigma).  By
    gluing_identities' rows and monomial_diagram's identities (a gate of
    intersection_gluing) those are the nonzero entries of h's row of b,
    which chart_invariants certifies to be exactly chart.hilbert_terms.
    Both sides would multiply the same terms at the same w, so the gap
    is 0.0 by construction.

    A flag whose chart has the wrong number of Hilbert rows is skipped:
    its Chart.hilbert_terms do not line up with H(sigma), which the
    rules index, and gluing_identities already names the flag.

    Returns (counterexamples, samples drawn, worst passing gap), the
    counterexamples with gap None where the point does not localize or
    a gap is NaN; every gap is computed in full."""
    rules, telescoped = {}, {}
    out, drawn, worst = [], 0, 0.0
    for fi, flag in enumerate(flags):
        chart = atlas.chart(flag)
        sigma = chart.top_cone
        if len(chart.hilbert_rows) != len(atlas.hilbert(sigma).generators):
            continue  # gluing_identities names the row count; the rules' terms would not line up
        n = len(flag)
        for k in range(1, n):
            members = flag.cones[:k]
            tau = members[-1]
            if (sigma.rays, tau.rays) not in rules:
                rule = atlas._localization_rule(sigma, tau)
                _, alpha_terms, rows, _ = rule
                read = {i for i, _ in alpha_terms}.union(i for _, terms in rows for i, _ in terms)
                rules[sigma.rays, tau.rays] = rule, sorted(read)
            rule, read = rules[sigma.rays, tau.rays]
            prefix = tuple(c.rays for c in members)
            if prefix not in telescoped:
                telescoped[prefix] = _telescoped_terms(atlas.hilbert(tau).generators, flag.steps[:k])
            samples = _simplex_samples(rng, k, count)
            size = len(samples)
            sums, acc = [], [0.0] * size  # W_0..W_k: check_barycentric's partial sums
            for column in zip(*samples):
                acc = list(map(add, acc, column))
                sums.append(acc)
            w = sums + sums[-1:] * (n - k - 1)  # past W_k, the zero padding adds 0.0
            values = monomial_columns([chart.hilbert_terms[i] for i in read], w, size)
            off, local = shifted_columns(rule, dict(zip(read, values)), size)
            tele = monomial_columns(telescoped[prefix], sums, size)
            gaps = [sup_gap(g) for g in zip(*map(scaled_gaps, local, tele))]
            drawn += size
            for sub_xi, gap, o in zip(samples, gaps, off):
                if o or not gap <= EQUAL_TOL:
                    out.append(
                        {
                            "kind": "shared",
                            "flag": fi,
                            "subflag": [sorted(c.rays) for c in members],
                            "xi": list(sub_xi),
                            "gap": None if o or math.isnan(gap) else gap,
                        }
                    )
                else:
                    worst = max(worst, gap)
    return out, drawn, worst


def verify_gluing(atlas: Atlas, rng: random.Random | None = None) -> GluingReport:
    """Certify that closed flag simplices intersect exactly in the closed
    simplex of the intersection flag.

    (i) Shared faces agree: exactly, by gluing_identities and, for b's
    values, verify's monomial_diagram identities (a gate, as in (ii)),
    with a float cross-check of the evaluators on the n - 1 nonempty
    proper prefix subflags of each maximal flag, one per face map
    between the zero cone and the top cone, at SHARED_SAMPLES points
    each drawn from rng (random.Random(0) when None); the gap is 0.0 by
    construction at the origin and on the full flag.  Each prefix's samples
    are one batch, evaluated one column at a time by kernels whose
    floats are those of the point-by-point route through
    Atlas.localize.  See _subflag_cross_check.

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
      2. The cover certificate (bary.cover_check, read off the face
         lattice: the flags are its maximal chains, facets pair on
         opposite sides, intervals of length 2 are diamonds, and one
         point lies in one flag cone): the open flag cones of distinct
         maximal flags are disjoint, so the two points come from
         different x != x'.
      3. Every cone of a validated fan is strongly convex, so the
         Hilbert basis of the intersection tau of the two top cones
         spans M_Q.  Both points lie in the open torus, where the
         localized values on H(tau) are e^(-2 pi <h, x>), and
         x -> e^(-2 pi <., x>) is injective: some h in H(tau) pairs
         differently with x and x', so the points differ.

    verify reports this half as exact and fails it when either gate
    fails.  The float evaluators it rests on, the chart's triangular
    rows and their inversion, are sampled by verify's simplex_inversion.

    Counterexamples are listed identities first, then shared.
    """
    flags = enumerate_flags(atlas.fan)
    identities, witnesses = gluing_identities(atlas, flags)
    rng = random.Random(0) if rng is None else rng
    shared, drawn, worst = _subflag_cross_check(atlas, flags, rng, SHARED_SAMPLES)
    counterexamples = [{"kind": "identity", **w} for w in witnesses] + shared
    return GluingReport(not counterexamples, drawn, worst, counterexamples, identities)


# ---------------------------------------------------------------------------
# Regularity of the cell structure
# ---------------------------------------------------------------------------


@dataclass
class RegularityReport:
    passed: bool
    cells: list  # per-cone dicts: rays, cell dim, euler, pseudomanifold, failed, issues


def sphere_euler(dim: int) -> int:
    """Euler characteristic of the dim-sphere; the empty S^-1 has 0."""
    return 1 - (-1) ** (dim + 1)


def verify_regularity(fan: Fan) -> RegularityReport:
    """Each cell closure must be a combinatorial ball.

    For every cone sigma, of star rank m = n - dim sigma, two tests on
    its ball model build_ball_model(fan, sigma): the cone from the
    origin over the order complex of the cones strictly above sigma,
    whose boundary is the link of sigma's cell.  euler: the link has
    the Euler characteristic of S^(m-1).  pseudomanifold: the model
    passes pseudomanifold_check.  This is the checkable footprint of
    every closed cell being attached along a sphere.  The whole model
    is a cone over its link, so its own Euler characteristic is 1 for
    any fan and tests nothing.  At the zero cone the model is
    build_ball_model(fan), so that cell certifies the fan's ball model.
    Both tests are read off the face table the fan stores: no model,
    chain, flag or star fan is built.  Each cell lists the tests it
    failed and, as issues, the witness of a failed pseudomanifold test.

    Why no star fan is needed.  For a validated fan, the cones of
    star_fan(fan, sigma) match the cones of fan containing sigma one for
    one; the match keeps inclusion and lowers each dimension by
    dim sigma.  So the star's nonzero cones and its flags are those of
    the face lattice above sigma.

    Euler, by P. Hall's theorem.  The link is the order complex of the
    open interval (sigma, 1) of the face poset with a top 1 adjoined,
    and Hall's theorem (R. P. Stanley, Enumerative Combinatorics I,
    ch. 3) makes its reduced Euler characteristic the Moebius value
    mu(sigma, 1).  So chi(link) = 1 + mu(sigma, 1), and one pass down
    reversed(fan.cones()), a top-down order, gives every
    mu(sigma, 1) = -1 - sum of mu(tau, 1) over the cones tau strictly
    above sigma: each cone pushes its value to its proper faces once it
    is final.  The theorem holds for every finite poset, so this is the
    model's boundary count on every face table, validated or not.

    Pseudomanifold: the star test fan.is_complete(sigma) and the diamond
    test fan.broken_intervals(), run once per fan: every interval
    tau < rho of the face table with dim rho - dim tau = 2 holds exactly
    two cones strictly between.  The cell's issues are the star's
    certificate, or else the first broken interval tau < rho with sigma
    in tau, in the test's top-down order, named by (tau, rho) and the
    count of cones between.  On a validated fan no interval breaks
    (see Fan.broken_intervals).  The face lattice is graded, so a top
    {0} u C of the model has a chain C of m cones of dimensions
    dim sigma + 1, ..., n, and an interior ridge {0} u R has a chain R
    of m - 1 cones that skips one dimension.

    Star complete and diamonds imply pseudomanifold.  Every maximal cone
    containing sigma is n-dimensional, so the model has tops.  Ridges:
    where R skips n, it ends in an (n-1)-cone tau above sigma, and its
    tops add the n-cones containing tau, two by the facet pairing;
    where R skips a lower dimension, its tops add a cone strictly
    between R's neighbours there (sigma below the first), two by the
    diamond test.  Connected tops: two tops that end in the same n-cone
    rho are joined inside the interval (sigma, rho], the face lattice of
    a polytope, whose maximal chains are connected by changing one
    member at a time; and two n-cones over a shared facet tau above
    sigma carry tops that differ in their last cone alone, adjacent
    across a ridge that ends in tau.  So facet-connected maximal cones
    give connected tops.

    Pseudomanifold implies star complete, on a validated fan.  Each
    (n-1)-cone tau containing sigma ends a chain R of cones above
    sigma whose dimensions rise by one at each step.

      R extends only by an n-cone containing tau, so two tops over the
      interior ridge {0} u R mean that tau is a facet of exactly two
      maximal cones containing sigma.

      Two adjacent tops end in the same n-cone or in two n-cones that
      share a facet (they differ in one cone of the chain), so
      connected tops give facet-connected maximal cones.

      A maximal cone rho of dimension below n containing sigma: by the
      degree argument (Fulton, Introduction to Toric Varieties,
      section 2; bary.cover_check runs it on the whole fan), the
      n-cones containing sigma, paired along their facets and
      connected, cover a neighbourhood of the relative interior of
      sigma.  So the relative interior of rho meets one of them, rho',
      and the fan axiom makes rho a face of rho': rho is not maximal
      after all.

      If sigma itself is maximal with dim sigma < n, the model has no
      tops and the check fails.

    A broken interval tau < rho with sigma in tau lies, with chains from
    sigma up to tau and from rho up to an n-cone, in an interior ridge
    of sigma's model with other than two tops.  So the two tests decide
    the pseudomanifold check cell for cell.
    """
    cones = fan.cones()
    mobius, broken = {c.rays: -1 for c in cones}, fan.broken_intervals()
    for rho in reversed(cones):
        for tau in fan.faces(rho):
            if tau.rays < rho.rays:
                mobius[tau.rays] -= mobius[rho.rays]
    cells = []
    for sigma in cones:
        m, chi = fan.dim - sigma.dim, 1 + mobius[sigma.rays]
        witness = fan.is_complete(sigma)[1] or next((w for rays, w in broken if sigma.rays <= rays), None)
        tests = (("euler", chi == sphere_euler(m - 1)), ("pseudomanifold", witness is None))
        cell = {"rays": sorted(sigma.rays), "cell_dim": m, "euler": chi, "pseudomanifold": witness is None}
        cells.append({**cell, "failed": [test for test, ok in tests if not ok], "issues": [witness] if witness else []})
    return RegularityReport(not any(cell["failed"] for cell in cells), cells)
