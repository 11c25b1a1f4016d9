"""Per-flag chart machinery for the nonnegative part of a toric variety.

For each maximal flag the chart holds the distinguished semigroup
generators (upper-triangular selection first, then the Hilbert basis of
the top cone's dual) and the integer exponent matrix

    b[i][j] = <alpha_i, B_(j+1) - B_j>   (B_0 = 0, Flag.steps),

which defines the monomial map psi carrying the simplex
Delta_n = {0 <= w_1 <= ... <= w_n <= 1} onto the closure of the flag
cone inside the ambient affine chart.  Only verify's monomial_diagram
certifies b's values (intersection_gluing reads it as a gate).

Points of the space itself are represented intrinsically as nonnegative
values on the Hilbert basis of a carrier cone's semigroup (ToricPoint);
localization moves a point to a face's chart when the face-cutting
coordinate is nonzero, and cross-chart equality compares localizations
on the intersection cone.  A simplex point reaches a face's chart as
Atlas.localize(Atlas.chart_point(chart, w), tau).

Convention used throughout the monomial evaluations: 0**0 == 1.
Floating point appears only here and downstream (exp/log/roots); the
exponent data stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat, zip_longest
from operator import mul, sub

from . import cones as _ck
from .bary import Flag, enumerate_flags, simplicial_coords
from .exact import DimensionMismatch, integer_numerators, pair, vadd, vscale
from .fan import Cone, Fan

TWO_PI = 2.0 * math.pi
# The one equality tolerance: values are equal when each of their
# scaled_gaps is within it (Atlas.points_equal, and psi_invert's
# residual, an absolute gap that is the scaled gap on Delta_n, whose
# chart values lie in [0, 1]).  No check of verify reads it.
EQUAL_TOL = 1e-9


class NotInImage(ValueError):
    """Triangular inversion left a residual beyond tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NotInOpenSet(ValueError):
    """The point does not lie in the requested face's open chart."""


@dataclass(frozen=True)
class Chart:
    """Chart data attached to one maximal flag (see module docstring);
    b's values are certified by verify's monomial_diagram alone."""

    flag: Flag
    generators: tuple  # alpha_1..alpha_m, triangular selection first
    b: tuple  # m x n exponent matrix of psi, nonnegative
    hilbert_rows: tuple  # row index of each Hilbert basis element

    @property
    def top_cone(self) -> Cone:
        return self.flag.cones[-1]

    @property
    def n(self) -> int:
        return len(self.flag)

    @property
    def m(self) -> int:
        return len(self.generators)

    @cached_property
    def terms(self) -> tuple:
        """Per row of b, its (column, exponent) pairs with a nonzero
        exponent, in column order: psi's monomials, each multiplied
        from 1.0 in that order (_monomials)."""
        return tuple(tuple((j, e) for j, e in enumerate(row) if e) for row in self.b)

    @cached_property
    def hilbert_terms(self) -> tuple:
        """The terms of the Hilbert rows (shared, not copied): the
        monomials of Atlas.chart_point."""
        return tuple(self.terms[i] for i in self.hilbert_rows)

    def monomial_strings(self):
        out = []
        for row in self.b:
            factors = [f"w{j + 1}^{e}" if e != 1 else f"w{j + 1}" for j, e in enumerate(row) if e != 0]
            out.append(" * ".join(factors) if factors else "1")
        return out


@dataclass(frozen=True)
class ToricPoint:
    """A point of the nonnegative part, as values on a Hilbert basis.

    values[i] is the (nonnegative real) value of the semigroup
    homomorphism at generator i of the carrier cone's semigroup; the
    generator order is the one produced by cones.hilbert_basis.
    """

    cone: Cone
    values: tuple


def theta(z):
    """Suffix-product map: w_j = prod_{i >= j} z_i, on [0, inf)^n."""
    out = []
    acc = 1.0
    for zi in reversed(list(z)):
        acc *= zi
        out.append(acc)
    return tuple(reversed(out))


def _monomials(rows, w) -> tuple:
    """Each row's monomial at w, a row given by its nonzero (column,
    exponent) terms in column order: prod_j w_j**e_j, multiplied from
    1.0 in column order (a zero exponent has no term, so 0**0 == 1).

    The single-point evaluator, behind psi_eval and Atlas.chart_point.
    monomial_columns is its batch form: per point it starts from 1.0
    and multiplies the same powers in the same order, so the two give
    the same floats."""
    w = [float(x) for x in w]
    values = []
    for terms in rows:
        out = 1.0
        for j, e in terms:
            out *= w[j] ** e
        values.append(out)
    return tuple(values)


def psi_eval(chart: Chart, w):
    """All m monomial coordinates of the chart at w (w_j >= 0)."""
    return _monomials(chart.terms, w)


def monomial_columns(rows, columns, count):
    """Each row's monomial at every point of a batch of count points, a
    row given by its (column, exponent) terms as for _monomials.

    columns[j] holds coordinate j of every point (columns may be any
    mapping, read only at the rows' columns); the answer holds one list
    per row, its value at every point.  Each value is the float
    _monomials gives at that point: the product starts from 1.0 and
    multiplies x_j ** e over the row's terms in order, one column of the
    batch at a time."""
    out = []
    for terms in rows:
        acc = [1.0] * count
        for j, e in terms:
            acc = list(map(mul, acc, map(pow, columns[j], repeat(e))))
        out.append(acc)
    return out


def invert_triangular(b, columns):
    """Invert an upper-triangular monomial map on Delta_n, over a batch.

    b is an n x n nonnegative integer matrix with b[i][i] > 0 and
    b[i][j] == 0 for j < i; columns[i] holds the image coordinate y_i
    of every point of the batch, and the answer holds w_j of every
    point, one list per j.  Implements the largest-zero-index rule: if
    y_i = 0 with i maximal, then w_j = 0 for all j <= i and the
    remaining w_j are recovered by back-substitution and root
    extraction.

    Back-substitution runs one column j at a time, from j = n - 1 down.
    Column j's mask holds the points whose largest zero index is below
    j; only those are multiplied, divided or raised to a power, and
    every other point gets 0.0 (powering it could raise OverflowError,
    where the point-by-point rule never computes it).  Per masked point,
    acc starts from 1.0 and multiplies w_k ** b[j][k] for k > j in
    order, then w_j is (y_j / acc) ** (1 / b[j][j]): the operations of
    back-substitution point by point, so the floats are the same."""
    n = len(b)
    columns = list(columns) or [[]] * n  # an empty batch
    count = len(columns[0])
    zero = [-1] * count  # per point, its largest i with y_i <= 0
    for i, col in enumerate(columns):
        zero = [i if y <= 0.0 else z for y, z in zip(col, zero)]
    w = [None] * n
    for j in reversed(range(n)):
        live = [z < j for z in zero]
        acc = [1.0] * count
        for k in range(j + 1, n):
            if e := b[j][k]:
                acc = [a * x**e if m else a for a, x, m in zip(acc, w[k], live)]
        root = 1.0 / b[j][j]
        w[j] = [(y / a) ** root if m else 0.0 for y, a, m in zip(columns[j], acc, live)]
    return w


def psi_invert(chart: Chart, y, tol: float = EQUAL_TOL):
    """Preimage in Delta_n of a chart point, using the triangular rows.

    y must hold all m coordinates (DimensionMismatch otherwise).  Only
    the first n determine the answer; the remaining m - n are checked as
    a residual and NotInImage is raised when the worst mismatch exceeds
    tol or is NaN (see sup_gap).
    """
    if len(y) != chart.m:
        raise DimensionMismatch(f"chart point of length {len(y)}, expected {chart.m}")
    n = chart.n
    w = tuple(col[0] for col in invert_triangular(chart.b[:n], [[float(y[i])] for i in range(n)]))
    residual = sup_gap(map(abs, map(sub, _monomials(chart.terms, w), map(float, y))))
    if not residual <= tol:
        raise NotInImage(f"residual {residual} exceeds {tol}", residual=residual)
    return w


def exp_flag(u):
    """Coordinatewise e^(-2 pi u_j), the flag cone's exponential chart."""
    return tuple(math.exp(-TWO_PI * float(c)) for c in u)


def exp_pairings(gens, x):
    """e^(-2 pi <g, x>) for each g in gens, at an exact rational x.

    The pairings are taken against x's integer numerators over one common
    denominator d; int / int true division is correctly rounded, so each
    float equals float(pair(g, x)) without Fraction arithmetic per g.
    """
    nums, d = integer_numerators(x)
    return tuple(math.exp(-TWO_PI * (pair(g, nums) / d)) for g in gens)


def chart_violations(chart: Chart) -> int:
    """Number of broken invariants of the exponent data: one per b row
    with a negative entry (its prefix sums <g, B_k> would be negative or
    decreasing), per triangular row with a nonzero entry below the
    diagonal or a nonpositive diagonal, and per entry of Chart.terms or
    Chart.hilbert_terms (a missing or extra one included) that is not
    its b row's nonzero (column, exponent) pairs: the float evaluators
    read only the terms, and the exact identities only b."""
    n, b = chart.n, chart.b
    expected = [tuple((j, e) for j, e in enumerate(row) if e) for row in b]
    hilbert = [expected[i] for i in chart.hilbert_rows]
    pairs = chain(zip_longest(chart.terms, expected), zip_longest(chart.hilbert_terms, hilbert))
    bad = sum(found != want for found, want in pairs)
    bad += sum(any(v < 0 for v in row) for row in b)
    bad += sum(any(b[i][j] != 0 for j in range(i)) or b[i][i] <= 0 for i in range(n))
    return bad


class Atlas:
    """All charts of a complete fan, with shared semigroup caches.

    Charts, Hilbert bases and localization rules are computed lazily
    and memoized; everything handed out is immutable, so an Atlas may
    be read from several threads once warm.
    """

    def __init__(self, fan: Fan):
        self.fan = fan
        self._charts = {}
        self._hilbert = {}
        self._local_rules = {}
        self._maximal = frozenset(fan.max_cones)

    # -- semigroups -----------------------------------------------------

    def hilbert(self, cone: Cone) -> _ck.SemigroupGens:
        key = cone.rays
        if key not in self._hilbert:
            self._hilbert[key] = _ck.hilbert_basis(cone)
        return self._hilbert[key]

    # -- charts ---------------------------------------------------------

    def charts(self):
        return [self.chart(f) for f in enumerate_flags(self.fan)]

    def chart(self, flag: Flag) -> Chart:
        if flag not in self._charts:
            self._charts[flag] = self._build_chart(flag)
        return self._charts[flag]

    def _build_chart(self, flag: Flag) -> Chart:
        if not flag.cones or len(flag) != self.fan.dim or flag.cones[-1].rays not in self._maximal:
            raise ValueError("charts are attached to maximal flags only")
        tri = _ck.triangular_generators(flag.cones)
        hb = self.hilbert(flag.cones[-1])
        # Each generator's row is its first occurrence, the triangular
        # ones first (they are distinct: their pairing rows are triangular).
        row_of = {}
        for h in chain(tri, hb.generators):
            row_of.setdefault(h, len(row_of))
        gens = tuple(row_of)
        # The flag's exact inverse is built with its chart, so that once
        # the charts are built, locating a point needs no elimination.
        flag.inverse
        steps = flag.steps
        chart = Chart(
            flag=flag,
            generators=gens,
            b=tuple(tuple(int(pair(g, d)) for d in steps) for g in gens),
            hilbert_rows=tuple(row_of[h] for h in hb.generators),
        )
        return chart

    # -- points ---------------------------------------------------------

    def expi_point(self, x, cone: Cone) -> ToricPoint:
        """Image of x in N_R under the exponential embedding, read off on
        the Hilbert basis of the carrier cone: value e^(-2 pi <h, x>)."""
        values = exp_pairings(self.hilbert(cone).generators, x)
        return ToricPoint(cone=cone, values=values)

    def chart_point(self, chart: Chart, w) -> ToricPoint:
        """ToricPoint of the chart's top cone at simplex coordinates w:
        psi's monomials at the Hilbert rows only, by psi_eval's kernel
        (_monomials), so each value is the float psi_eval gives at that
        row."""
        return ToricPoint(cone=chart.top_cone, values=_monomials(chart.hilbert_terms, w))

    def commutativity_residual(self, chart: Chart, x) -> float:
        """Sup-norm gap between the monomial route psi(theta(exp_F(x)))
        and the direct exponential embedding, over all m coordinates."""
        u = simplicial_coords(chart.flag, x)
        lhs = psi_eval(chart, theta(exp_flag(u)))
        rhs = exp_pairings(chart.generators, x)
        return max(abs(a - b) for a, b in zip(lhs, rhs))

    # -- localization and equality ---------------------------------------

    def _localization_rule(self, sigma: Cone, tau: Cone):
        """Exponent data moving values on H(S_sigma) to values on H(S_tau).

        tau must be a face of sigma, cut out by the sum alpha of the dual
        cone's extreme rays vanishing on tau (cones.cutting_functional);
        every Hilbert generator h of S_tau satisfies h + k*alpha in
        S_sigma for a least k >= 0, so its value is
        value(h + k*alpha) / value(alpha)^k.  The least k is the largest
        of 0 and the ceilings of -<h, r> / <alpha, r> over sigma's rays r
        with <alpha, r> > 0 (alpha is positive on sigma's rays off tau,
        and h is nonnegative on tau's).

        The rule is ("identity",) when tau is sigma, else
        ("shift", alpha_terms, rows, top) with one (k, terms) row per
        generator of S_tau and top the largest k.  A decomposition in
        H(S_sigma) is stored as its terms: the (generator index,
        coefficient) pairs with a nonzero coefficient, in generator order.
        """
        key = (sigma.rays, tau.rays)
        if key in self._local_rules:
            return self._local_rules[key]
        if not self.fan.is_face(tau, sigma):
            raise ValueError("localization target must be a face of the carrier")
        sem_s = self.hilbert(sigma)
        sem_t = self.hilbert(tau)
        if sigma.rays == tau.rays:
            rule = ("identity",)
        else:
            alpha = _ck.cutting_functional(sigma, tau)
            if (alpha_coeffs := _ck.decompose(sem_s, alpha)) is None:
                raise AssertionError("cutting functional must lie in the semigroup")
            cuts = [(r, a) for r in sigma.generators if (a := pair(alpha, r)) > 0]
            rows = []
            for h in sem_t.generators:
                k = max([0, *(-(pair(h, r) // a) for r, a in cuts)])
                if (coeffs := _ck.decompose(sem_s, vadd(h, vscale(k, alpha)))) is None:
                    raise AssertionError("shifted generator must decompose")
                rows.append((k, _terms(coeffs)))
            rule = ("shift", _terms(alpha_coeffs), tuple(rows), max(k for k, _ in rows))
        self._local_rules[key] = rule
        return rule

    def localize(self, p: ToricPoint, tau: Cone) -> ToricPoint:
        """Extension of p to the face chart of tau, or NotInOpenSet."""
        values = self._local_values(p, tau)
        if values is None:
            raise NotInOpenSet("value at the cutting functional is zero or underflows")
        return ToricPoint(cone=tau, values=tuple(values))

    def points_equal(self, p: ToricPoint, q: ToricPoint, tol: float = EQUAL_TOL) -> bool:
        """Whether two intrinsic points coincide in the variety: both
        localize to the shared chart and their value gap is within tol.
        Localized values are computed only up to the first coordinate
        whose gap exceeds tol (see values_within)."""
        shared = self.fan.cone(p.cone.rays & q.cone.rays)
        lp = self._local_values(p, shared)
        lq = self._local_values(q, shared)
        return lp is not None and lq is not None and values_within(lp, lq, tol)

    def _local_values(self, p: ToricPoint, tau: Cone):
        """p's values on the chart of tau, lazily, or None off it: the
        one route from a point to a face chart, for localize and
        points_equal."""
        rule = self._localization_rule(p.cone, tau)
        return p.values if rule[0] == "identity" else _shifted(rule, p.values)

    def semigroup_residual(self, p: ToricPoint) -> float:
        """Worst violation of the semigroup law among pairwise additive
        relations h_i + h_j = h_k + h_l detected in the Hilbert basis:
        each pair i <= j, in scan order, against the first pair of equal
        sum.

        Gaps are scaled by the magnitude of the products, which may leave
        [0, 1] when the carrier's semigroup contains negative directions.
        """
        v = p.values
        gens = self.hilbert(p.cone).generators
        firsts = {}
        worst = 0.0
        for i in range(len(v)):
            for j in range(i, len(v)):
                prod = v[i] * v[j]
                first = firsts.setdefault(vadd(gens[i], gens[j]), prod)
                worst = max(worst, abs(first - prod) / max(1.0, abs(first), abs(prod)))
        return worst


def _terms(coeffs) -> tuple:
    """The (index, coefficient) pairs of the nonzero coefficients."""
    return tuple((i, c) for i, c in enumerate(coeffs) if c)


def _value_at(values, terms) -> float:
    out = 1.0
    for i, c in terms:
        out *= values[i] ** c
    return out


def _shifted(rule, values):
    """A shift rule applied to a point's values on H(S_sigma): the
    values on H(S_tau) as a lazy iterator, in generator order, or None
    off tau's open chart: when the cutting functional's value v_alpha
    is zero, or so small that v_alpha**k underflows to 0.0 for the
    rule's largest k, so that no row would divide by zero.
    Atlas._local_values reads it."""
    _, alpha_terms, rows, top = rule
    v_alpha = _value_at(values, alpha_terms)
    if v_alpha <= 0.0 or v_alpha**top == 0.0:
        return None
    return (_value_at(values, terms) / v_alpha**k for k, terms in rows)


def sup_gap(gaps) -> float:
    """The largest of some nonnegative gaps (0.0 when there are none),
    or NaN as soon as one of them is NaN, so that a check reading it
    with "gap <= tol" fails.  max alone keeps a leading NaN and drops a
    later one."""
    worst = 0.0
    for gap in gaps:
        if not gap <= worst:
            if gap != gap:
                return gap
            worst = gap
    return worst


def scaled_gaps(xs, ys):
    """|a - b| / max(1, |a|, |b|) for each pair of values, lazily: the
    terms of Atlas.points_equal's test (values_within).  Lazy, since
    values_within stops at the first gap past tol of values that
    _shifted yields one at a time."""
    return (abs(a - b) / max(1.0, abs(a), abs(b)) for a, b in zip(xs, ys))


def values_within(xs, ys, tol: float) -> bool:
    """sup_gap(scaled_gaps(xs, ys)) <= tol, stopping at the first gap
    past tol: False as soon as a gap is NaN or exceeds tol."""
    return all(g <= tol for g in scaled_gaps(xs, ys))
