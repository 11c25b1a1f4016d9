"""Exact rational linear algebra and integer lattice utilities.

Vectors are tuples of ints or Fractions, matrices are tuples of row
vectors.  Everything in this module is exact; floating point never
enters, so the combinatorial layers built on top can certify their
identities by equality instead of tolerances.

One fraction-free elimination kernel, _rref, serves every solve, and
the library reads it through one front end alone: span_inverse, the
integer left inverse and annihilator of independent vectors.  invert,
dual_basis and solve_in_basis are its Fraction readers.  rank, which
reads the pivots alone, remains for callers outside the library (the
tests' reference and the benchmark's tracer); no library module calls
it.

All values are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, lcm
from typing import Sequence

class DimensionMismatch(ValueError):
    """Operands have inconsistent dimensions."""


class SingularMatrix(ValueError):
    """Exact solve or inversion hit a rank-deficient matrix."""


def vec(entries) -> tuple:
    """Coerce an iterable of finite numbers to a tuple of exact rationals;
    an infinite or NaN entry, which has no exact value, is a ValueError."""
    return tuple(x if isinstance(x, (int, Fraction)) else _rational(x) for x in entries)


def _rational(x) -> Fraction:
    if x != x or x in (inf, -inf):
        raise ValueError(f"coordinates must be finite, got {x!r}")
    return Fraction(x)


def pair(alpha, x) -> "int | Fraction":
    """Bilinear pairing sum_i alpha_i * x_i between dual vectors.

    Raises DimensionMismatch when the lengths differ.
    """
    if len(alpha) != len(x):
        raise DimensionMismatch(f"pairing {len(alpha)}-vector with {len(x)}-vector")
    return sum(a * b for a, b in zip(alpha, x))


def vadd(u, v):
    if len(u) != len(v):
        raise DimensionMismatch("vector addition")
    return tuple(a + b for a, b in zip(u, v))


def vsum(vectors, n: int):
    """The sum of a sequence of n-vectors, each coordinate added in
    order; the zero vector of length n when there are none."""
    return tuple(sum(v[i] for v in vectors) for i in range(n))


def vsub(u, v):
    if len(u) != len(v):
        raise DimensionMismatch("vector subtraction")
    return tuple(a - b for a, b in zip(u, v))


def vneg(u):
    return tuple(-a for a in u)


def vscale(c, u):
    return tuple(c * a for a in u)


def is_zero_vec(u) -> bool:
    return all(a == 0 for a in u)


def unit_vector(i: int, n: int) -> tuple:
    return tuple(1 if j == i else 0 for j in range(n))


def primitive(v) -> tuple:
    """Primitive integer vector spanning the same ray as v.

    Accepts rational entries: denominators are cleared first, then the
    gcd is divided out.  The direction (sign) is preserved.  Raises on
    the zero vector.
    """
    nums, _ = integer_numerators(v)
    g = gcd(*nums)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(a // g for a in nums)


def integer_numerators(v) -> tuple:
    """v's integer numerators over one positive common denominator:
    (nums, den) with v = nums / den.  Integer input, the common case,
    skips the Fractions."""
    v = tuple(v)
    if all(type(a) is int for a in v):
        return list(v), 1
    exact = vec(v)
    den = lcm(*(c.denominator for c in exact))
    return [c.numerator * (den // c.denominator) for c in exact], den


def _lowest(nums: list, den: int) -> tuple:
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return [a // g for a in nums], den // g


def _rref(rows, ncols: int):
    """Gauss-Jordan elimination over the first ncols columns, in integers.

    The one elimination kernel of this module: rows may carry augmented
    columns past ncols, which are reduced along.  Each row is integer
    numerators over one positive denominator, in lowest terms, so no
    step pays a Fraction's gcd per entry (integer-preserving
    elimination, Bareiss, Math. Comp. 22, 1968): a pivot row p gets
    denominator p_c > 0, and a row with entry a in the pivot column
    becomes (p_c * row - a * p) / (den * p_c), its gcd divided out.
    Returns the reduced rows as (numerators, denominator) pairs, pivot
    rows on top (each pivot 1 and alone in its column), and the pivot
    column indices: row by row, the rows of the elimination over Q.
    """
    work = [_lowest(*integer_numerators(r)) for r in rows]
    m = len(work)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if work[i][0][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r][0]
        if prow[c] < 0:
            prow = [-a for a in prow]
        prow, p = _lowest(prow, prow[c])
        work[r] = prow, p
        for i in range(m):
            nums, den = work[i]
            a = nums[c]
            if a and i != r:
                work[i] = _lowest([p * x - a * y for x, y in zip(nums, prow)], den * p)
        pivots.append(c)
    return work, pivots


def rank(rows) -> int:
    """Rank of a matrix over the rationals, by exact elimination."""
    if not rows:
        return 0
    return len(_rref(rows, len(rows[0]))[1])


def span_inverse(basis: Sequence) -> tuple:
    """Exact left inverse and annihilator of independent vectors, in
    integers: returns (L, d, A).

    For k linearly independent n-vectors (k >= 1), L is a k x n integer
    matrix and d > 0 with L @ basis_j = d * e_j, and the n - k integer
    rows of A span the functionals vanishing on their span: x lies in
    the span iff A @ x == 0, and then L @ x / d are its coordinates.
    One elimination of [basis^T | I]; raises SingularMatrix on
    dependent input.
    """
    k, n = len(basis), len(basis[0])
    if any(len(b) != n for b in basis):
        raise DimensionMismatch("basis vectors of different lengths")
    work, pivots = _rref([[b[i] for b in basis] + [int(i == j) for j in range(n)] for i in range(n)], k)
    if len(pivots) < k:
        raise SingularMatrix("basis vectors are linearly dependent")
    # The pivot rows over their least common denominator.
    d = lcm(*(den for _, den in work[:k]))
    left = tuple(tuple(a * (d // den) for a in nums[k:]) for nums, den in work[:k])
    return left, d, tuple(tuple(nums[k:]) for nums, _ in work[k:])


def invert(rows) -> tuple:
    """Exact inverse of a square rational matrix (rows of rows): the
    left inverse of its columns."""
    if any(len(r) != len(rows) for r in rows):
        raise DimensionMismatch("inversion needs a square matrix")
    return dual_basis(tuple(zip(*rows)))


def dual_basis(basis: Sequence) -> tuple:
    """Basis beta_1..beta_n dual to B_1..B_n: pair(beta_i, B_j) = delta_ij.

    The input vectors must be linearly independent over Q; the result is
    exact, the rows L / d of span_inverse.
    """
    if any(len(b) != len(basis) for b in basis):
        raise DimensionMismatch("dual basis needs n vectors of length n")
    if not basis:
        return ()
    left, d, _ = span_inverse(basis)
    return tuple(tuple(Fraction(a, d) for a in row) for row in left)


def solve_in_basis(basis: Sequence, x) -> "tuple | None":
    """Coordinates u with sum_j u_j * basis_j = x, or None if x is off-span.

    The basis vectors must be linearly independent (k of them, ambient
    dimension n >= k); uniqueness then holds whenever a solution exists.
    With x = nums / den, u_j = <L_j, nums> / (d * den) for span_inverse's
    (L, d, A), and x is off the span iff some row of A pairs nonzero
    with nums.
    """
    if not basis:
        return () if is_zero_vec(x) else None
    if len(x) != len(basis[0]):
        raise DimensionMismatch("solve_in_basis")
    left, d, annihilator = span_inverse(basis)
    nums, den = integer_numerators(x)
    if any(pair(a, nums) for a in annihilator):
        return None
    return tuple(Fraction(pair(row, nums), d * den) for row in left)


def row_hermite(rows: Sequence) -> tuple:
    """Integer row echelon form H = U @ A with U unimodular.

    Pivot rows are placed on top, pivots are positive; entries above the
    pivots are not reduced (full Hermite normalization is not needed by
    the lattice quotients built on this).
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    H = [[int(a) for a in r] for r in rows]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    r = 0
    for c in range(n):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if H[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(H[i][c]))
            if i0 != r:
                H[r], H[i0] = H[i0], H[r]
                U[r], U[i0] = U[i0], U[r]
            clean = True
            for i in range(r + 1, m):
                if H[i][c] != 0:
                    q = H[i][c] // H[r][c]
                    H[i] = [a - q * b for a, b in zip(H[i], H[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
                    if H[i][c] != 0:
                        clean = False
            if clean:
                break
        if r < m and H[r][c] != 0:
            if H[r][c] < 0:
                H[r] = [-a for a in H[r]]
                U[r] = [-a for a in U[r]]
            r += 1
    return tuple(tuple(row) for row in H), tuple(tuple(row) for row in U)


@dataclass(frozen=True)
class LatticeProjection:
    """Surjection Z^n -> Z^(n-k) whose kernel is a saturated sublattice.

    matrix   : the (n-k) x n projection.
    kernel   : lattice basis (k vectors) of the kernel, i.e. the
               saturation of the span of the defining generators.
    section  : n-vectors s_1..s_(n-k) with matrix @ s_i = e_i, witnessing
               surjectivity.
    """

    matrix: tuple
    kernel: tuple
    section: tuple
    source_dim: int
    target_dim: int

    def apply(self, v) -> tuple:
        if len(v) != self.source_dim:
            raise DimensionMismatch("projection applied to wrong dimension")
        return tuple(pair(row, v) for row in self.matrix)


def quotient_projection(gens: Sequence, n: int) -> LatticeProjection:
    """Projection of Z^n along the saturation of the span of gens.

    The kernel is torsion-free by construction (no index: the kernel is
    the saturated span, so the quotient is again a lattice).  Rank-zero
    input yields the identity.
    """
    gens = [tuple(int(a) for a in g) for g in gens]
    for g in gens:
        if len(g) != n:
            raise DimensionMismatch("generator has wrong length")
    if not gens:
        ident = tuple(unit_vector(i, n) for i in range(n))
        return LatticeProjection(matrix=ident, kernel=(), section=ident, source_dim=n, target_dim=n)
    # Columns of A are the generators; U @ A has its k nonzero rows on top.
    A = [tuple(g[i] for g in gens) for i in range(n)]
    H, U = row_hermite(A)
    k = sum(1 for row in H if not is_zero_vec(row))
    # The rows of span_inverse(U) are the columns of U^-1.
    uinv_cols, d, _ = span_inverse(U)
    if d != 1:
        raise AssertionError("unimodular inverse must be integral")
    return LatticeProjection(
        matrix=tuple(tuple(int(a) for a in U[i]) for i in range(k, n)),
        kernel=tuple(uinv_cols[:k]),
        section=tuple(uinv_cols[k:]),
        source_dim=n,
        target_dim=n - k,
    )
