"""Exact linear algebra and lattice utilities."""

import math
import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricball.exact import (
    DimensionMismatch,
    SingularMatrix,
    _rref,
    dual_basis,
    integer_numerators,
    invert,
    pair,
    primitive,
    quotient_projection,
    rank,
    row_hermite,
    solve_in_basis,
    span_inverse,
    unit_vector,
    vadd,
    vec,
    vsub,
)


def test_pair_examples():
    assert pair((1, 0), (1, 2)) == 1
    assert pair((0, 1), (1, 2)) == 2
    assert pair((2, -1), (1, 2)) == 0


def test_pair_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        pair((1, 0), (1, 2, 3))


def test_dual_basis_examples():
    # B = (e1, e1+e2): solved by hand via <beta_i, B_j> = delta_ij.
    beta = dual_basis(((1, 0), (1, 1)))
    assert beta == ((Fraction(1), Fraction(-1)), (Fraction(0), Fraction(1)))
    # Standard basis is self-dual.
    assert dual_basis(((1, 0), (0, 1))) == ((1, 0), (0, 1))
    # Rank one with a non-unit generator.
    assert dual_basis(((2,),)) == ((Fraction(1, 2),),)


def test_dual_basis_singular():
    with pytest.raises(SingularMatrix):
        dual_basis(((1, 1), (2, 2)))


def test_dual_basis_pairing_identity():
    basis = ((3, 1, 0), (1, 2, 1), (0, 5, 2))
    beta = dual_basis(basis)
    for i, b in enumerate(beta):
        for j, v in enumerate(basis):
            assert pair(b, v) == (1 if i == j else 0)


def test_solve_in_basis():
    u = solve_in_basis(((1, 0), (1, 1)), (3, 2))
    assert u == (Fraction(1), Fraction(2))
    assert solve_in_basis(((1, 0, 0), (0, 1, 0)), (0, 0, 1)) is None
    assert solve_in_basis((), (0, 0)) == ()
    assert solve_in_basis((), (1, 0)) is None


def test_inverse_edge_inputs():
    """invert, dual_basis and solve_in_basis on empty, non-square,
    ragged and dependent input; span_inverse on ragged and dependent
    input."""
    assert invert(()) == ()
    assert dual_basis(()) == ()
    for ragged in (((1, 2),), ((1, 2), (3,)), ((1, 0, 5), (0, 1)), ((1, 0), (0, 1), (1, 1))):
        with pytest.raises(DimensionMismatch):
            invert(ragged)
        with pytest.raises(DimensionMismatch):
            dual_basis(ragged)
    with pytest.raises(DimensionMismatch):
        solve_in_basis(((1, 0),), (1, 0, 0))
    # Vectors of different lengths, read through span_inverse.
    for ragged in (((1, 0), (1,)), ((1,), (1, 0))):
        with pytest.raises(DimensionMismatch):
            span_inverse(ragged)
        with pytest.raises(DimensionMismatch):
            solve_in_basis(ragged, (1,) * len(ragged[0]))
    for dependent in (((1, 2), (2, 4)), ((0, 0), (0, 1))):
        with pytest.raises(SingularMatrix):
            invert(dependent)
        with pytest.raises(SingularMatrix):
            dual_basis(dependent)
    for dependent in (((1, 0), (2, 0)), ((1, 0), (0, 1), (1, 1))):
        with pytest.raises(SingularMatrix):
            span_inverse(dependent)
        # Raised before the point is read, on the span or off it.
        for x in ((1, 0), (0, 1)):
            with pytest.raises(SingularMatrix):
                solve_in_basis(dependent, x)


def test_primitive():
    assert primitive((2, 4)) == (1, 2)
    assert primitive((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
    assert primitive((0, -6)) == (0, -1)
    with pytest.raises(ValueError):
        primitive((0, 0))


def _primitive_via_fractions(v):
    """primitive before its integer fast path: every entry through
    Fraction, denominators cleared, then the gcd divided out."""
    fracs = [Fraction(a) for a in v]
    if all(f == 0 for f in fracs):
        raise ValueError("zero vector has no primitive representative")
    denom_lcm = 1
    for f in fracs:
        denom_lcm = denom_lcm * f.denominator // gcd(denom_lcm, f.denominator)
    ints = [int(f * denom_lcm) for f in fracs]
    g = 0
    for a in ints:
        g = gcd(g, abs(a))
    return tuple(a // g for a in ints)


_ENTRY = st.one_of(
    st.integers(-10**6, 10**6),
    st.sampled_from([0, 1, -1]),
    st.fractions(max_denominator=50).filter(lambda f: abs(f) < 10**4),
)


@given(st.one_of(st.lists(st.integers(-50, 50), max_size=5), st.lists(_ENTRY, max_size=5)))
@settings(max_examples=300, deadline=None)
def test_primitive_matches_fraction_route(v):
    """Integer and rational vectors, signs included, give the old
    function's tuple (with int entries); zero vectors raise alike."""
    try:
        expected = _primitive_via_fractions(v)
    except ValueError:
        with pytest.raises(ValueError, match="zero vector"):
            primitive(v)
        return
    got = primitive(v)
    assert got == expected and all(type(a) is int for a in got)


def test_row_hermite_identity():
    H, U = row_hermite(((1, 0), (0, 1)))
    assert H == ((1, 0), (0, 1))
    assert U == ((1, 0), (0, 1))


@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=100, deadline=None)
def test_row_hermite_properties(rows):
    rows = [tuple(r) for r in rows]
    H, U = row_hermite(rows)
    # H = U @ A exactly.
    for i in range(len(rows)):
        for j in range(3):
            assert H[i][j] == sum(U[i][k] * rows[k][j] for k in range(len(rows)))
    # U is unimodular: exact inverse with integer entries.
    uinv = invert(U)
    assert all(Fraction(x).denominator == 1 for row in uinv for x in row)
    # Echelon: zero rows at the bottom, count matches the rank.
    nonzero = [i for i, row in enumerate(H) if any(row)]
    assert nonzero == list(range(len(nonzero)))
    assert len(nonzero) == rank(rows)


def test_quotient_projection_coordinate():
    proj = quotient_projection([(1, 0)], 2)
    assert proj.target_dim == 1
    assert proj.apply((1, 0)) == (0,)
    assert proj.apply((5, 7)) == (7,) or proj.apply((5, 7)) == (-7,)


def test_quotient_projection_diagonal():
    # Quotient by the span of (1, 1): the map is +-(x - y).
    proj = quotient_projection([(1, 1)], 2)
    assert proj.target_dim == 1
    assert proj.apply((1, 1)) == (0,)
    img = proj.apply((1, 0))
    assert img in ((1,), (-1,))
    assert proj.apply((0, 1)) == ((-img[0]),)


def test_quotient_projection_zero_rank():
    proj = quotient_projection([], 3)
    assert proj.target_dim == 3
    assert proj.apply((1, 2, 3)) == (1, 2, 3)


@given(
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
        min_size=0,
        max_size=3,
    )
)
@settings(max_examples=100, deadline=None)
def test_quotient_projection_properties(gens):
    gens = [tuple(g) for g in gens]
    proj = quotient_projection(gens, 3)
    # Kernel contains every generator.
    for g in gens:
        assert proj.apply(g) == tuple([0] * proj.target_dim)
    # Sections witness surjectivity.
    for i, s in enumerate(proj.section):
        assert proj.apply(s) == unit_vector(i, proj.target_dim)
    # Kernel basis has the right rank and dies under the projection.
    assert len(proj.kernel) + proj.target_dim == 3
    assert rank(list(proj.kernel) + list(proj.section)) == 3
    for k in proj.kernel:
        assert proj.apply(k) == tuple([0] * proj.target_dim)
    if gens:
        assert rank(proj.kernel) == rank(gens)


def _rref_reference(rows, ncols: int):
    """Gauss-Jordan elimination over the first ncols columns in Fractions:
    the elimination kernel before it went fraction-free, kept as the
    reference.  Returns the reduced rows (lists of Fractions, pivot rows
    on top, each pivot 1 and alone in its column) and the pivot column
    indices."""
    work = [[Fraction(a) for a in r] for r in rows]
    m = len(work)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][c]
        work[r] = [a * inv for a in work[r]]
        for i in range(m):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
    return work, pivots


_SMALL_INT = st.integers(-6, 6)
_SMALL_RATIONAL = st.one_of(_SMALL_INT, st.fractions(min_value=-6, max_value=6, max_denominator=7))


@st.composite
def _matrices(draw, square=False):
    """(rows, ncols): a matrix over ncols eliminated columns plus up to
    three augmented ones, integer or rational, with zero rows and
    integer combinations of the other rows mixed in at random places,
    so rank deficiency is common."""
    ncols = draw(st.integers(1, 4))
    width = ncols if square else ncols + draw(st.integers(0, 3))
    entry = draw(st.sampled_from([_SMALL_INT, _SMALL_RATIONAL]))
    row = st.lists(entry, min_size=width, max_size=width)
    base = draw(st.lists(row, min_size=1, max_size=ncols if square else 4))
    rows = list(base)
    for _ in range(ncols - len(base) if square else draw(st.integers(0, 2))):
        if draw(st.booleans()):
            rows.append([0] * width)
        else:
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, base)) for j in range(width)])
    return [tuple(r) for r in draw(st.permutations(rows))], ncols


def _as_fractions(nums, den):
    return [Fraction(a, den) for a in nums]


@given(_matrices())
@settings(max_examples=250, deadline=None)
def test_rref_matches_fraction_reference(case):
    """Every row of the fraction-free kernel, pivot or not, is exactly the
    Fraction elimination's row, in lowest terms over a positive
    denominator, with the same pivots."""
    rows, ncols = case
    work, pivots = _rref(rows, ncols)
    expected, expected_pivots = _rref_reference(rows, ncols)
    assert pivots == expected_pivots
    assert [_as_fractions(nums, den) for nums, den in work] == expected
    for nums, den in work:
        assert den > 0 and gcd(den, *nums) == 1
        assert all(type(a) is int for a in nums)
    assert rank(rows) == len(_rref_reference(rows, len(rows[0]))[1])


@given(_matrices(square=True))
@settings(max_examples=200, deadline=None)
def test_invert_matches_fraction_reference(case):
    rows, m = case
    expected, pivots = _rref_reference([list(r) + list(unit_vector(i, m)) for i, r in enumerate(rows)], m)
    if len(pivots) < m:
        with pytest.raises(SingularMatrix):
            invert(rows)
        return
    inv = invert(rows)
    assert inv == tuple(tuple(row[m:]) for row in expected)
    assert all(type(a) is Fraction for row in inv for a in row)


@given(_matrices(square=True))
@settings(max_examples=200, deadline=None)
def test_dual_basis_matches_fraction_reference(case):
    """dual_basis(B) is the inverse of B's transpose: the Fraction
    elimination of [B^T | I]."""
    basis, m = case
    columns = [[b[i] for b in basis] for i in range(m)]
    expected, pivots = _rref_reference([c + list(unit_vector(i, m)) for i, c in enumerate(columns)], m)
    if len(pivots) < m:
        with pytest.raises(SingularMatrix):
            dual_basis(basis)
        return
    beta = dual_basis(basis)
    assert beta == tuple(tuple(row[m:]) for row in expected)
    assert all(type(a) is Fraction for row in beta for a in row)


@st.composite
def _bases(draw):
    """(basis, x): k independent n-vectors (integer or rational) and a
    point that is a combination of them or arbitrary, so often off
    their span."""
    n = draw(st.integers(1, 4))
    entry = draw(st.sampled_from([_SMALL_INT, _SMALL_RATIONAL]))
    vector = st.lists(entry, min_size=n, max_size=n).map(tuple)
    basis = draw(st.lists(vector, min_size=1, max_size=n).filter(lambda b: rank(b) == len(b)))
    if draw(st.booleans()):
        coeffs = draw(st.lists(_SMALL_RATIONAL, min_size=len(basis), max_size=len(basis)))
        x = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(n))
    else:
        x = draw(vector)
    return basis, x


@given(_bases())
@settings(max_examples=200, deadline=None)
def test_solve_and_span_inverse_match_fraction_reference(case):
    """solve_in_basis (None off the span) and span_inverse's (L, d, A)
    against the Fraction elimination of [basis^T | x] and [basis^T | I]:
    L / d is its pivot rows, and each integer row of A is a positive
    multiple of a non-pivot row."""
    basis, x = case
    k, n = len(basis), len(basis[0])
    columns = [[b[i] for b in basis] for i in range(n)]
    solved, _ = _rref_reference([c + [a] for c, a in zip(columns, x)], k)
    on_span = all(row[k] == 0 for row in solved[k:])
    expected = tuple(row[k] for row in solved[:k]) if on_span else None
    assert solve_in_basis(basis, x) == expected
    reduced, _ = _rref_reference([c + list(unit_vector(i, n)) for i, c in enumerate(columns)], k)
    left, d, annihilator = span_inverse(basis)
    assert d > 0 and all(type(a) is int for row in left + annihilator for a in row)
    assert [_as_fractions(row, d) for row in left] == [row[k:] for row in reduced[:k]]
    assert len(annihilator) == n - k
    for row, ref in zip(annihilator, reduced[k:]):
        scale = next(a / b for a, b in zip(row, ref[k:]) if b)
        assert scale > 0 and list(row) == [scale * b for b in ref[k:]]
    if on_span:
        assert tuple(_as_fractions([pair(row, x) for row in left], d)) == expected
    assert any(pair(row, x) for row in annihilator) == (not on_span)


# Input errors of the exact module that no other test reaches: the call,
# the exception class and its message.
def _numerators_via_vec(v):
    """integer_numerators through vec on every input: each entry made an
    exact rational, then one lcm of the denominators."""
    exact = vec(v)
    den = math.lcm(*(c.denominator for c in exact))
    return [c.numerator * (den // c.denominator) for c in exact], den


def test_integer_numerators_matches_the_vec_route():
    """Mixes of ints and Fractions give the vec route's numerators and
    denominator, as ints; bools and floats still take that route, and a
    NaN or an infinity still raises its ValueError."""
    rng = random.Random(0)
    cases = [(), (0,), (3, -4), (Fraction(1, 2),), (Fraction(-3, 4), 0, Fraction(5, 6))]
    for _ in range(300):
        entries = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(rng.randint(1, 6))]
        cases.append(tuple(rng.randint(-10**6, 10**6) if rng.random() < 0.4 else f for f in entries))
    cases += [(True, 2), (False, Fraction(1, 3)), (0.5, 1), (Fraction(1, 3), 0.25, -2), (1e-300, 3.0), (-0.0, 0)]
    for v in cases:
        nums, den = integer_numerators(v)
        assert (nums, den) == _numerators_via_vec(v), v
        assert all(type(a) is int for a in nums) and type(den) is int and den > 0, v
    assert integer_numerators((Fraction(1, 2), Fraction(-1, 3), 4)) == ([3, -2, 24], 6)
    assert integer_numerators((True, 0.5)) == ([2, 1], 2)
    for bad in ((math.nan, 1), (Fraction(1, 2), math.inf), (-math.inf,)):
        with pytest.raises(ValueError, match="coordinates must be finite"):
            integer_numerators(bad)


EXACT_INPUT_ERRORS = {
    "vadd-lengths": (lambda: vadd((1,), (1, 2)), DimensionMismatch, "vector addition"),
    "vsub-lengths": (lambda: vsub((1,), (1, 2)), DimensionMismatch, "vector subtraction"),
    "apply-wrong-length": (
        lambda: quotient_projection([(1, 0)], 2).apply((1, 2, 3)),
        DimensionMismatch,
        "projection applied to wrong dimension",
    ),
    "quotient-generator-length": (
        lambda: quotient_projection([(1, 2, 3)], 2),
        DimensionMismatch,
        "generator has wrong length",
    ),
}


@pytest.mark.parametrize("case", EXACT_INPUT_ERRORS)
def test_exact_input_errors(case):
    call, error, message = EXACT_INPUT_ERRORS[case]
    with pytest.raises(error, match=re.escape(message)):
        call()
