"""Chart matrices, monomial maps, intrinsic points, localization."""

import itertools
import math
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricball as tb
from conftest import get_atlas, wps_fan
from toricball import charts, cones, verify
from toricball.bary import Flag
from toricball.cones import cutting_functional
from toricball.exact import DimensionMismatch, pair, vadd, vscale
from toricball.charts import (
    Atlas,
    NotInImage,
    NotInOpenSet,
    ToricPoint,
    exp_pairings,
    invert_triangular,
    monomial_columns,
    psi_eval,
    psi_invert,
    theta,
)

TWO_PI = 2 * math.pi


def _monomial_eval(exponents, w) -> float:
    """prod_j w_j**e_j with the 0**0 == 1 convention, from a dense
    exponent row: the reference of psi_eval."""
    out = 1.0
    for e, x in zip(exponents, w):
        if e != 0:
            out *= float(x) ** e
    return out


def _theta_preimage(w):
    """A z in [0,1]^n with theta(z) = w, for w in Delta_n: z_j =
    w_j / w_{j+1}, and 1 when w_{j+1} = 0."""
    w = list(w)
    n = len(w)
    z = [0.0] * n
    for j in range(n):
        if j == n - 1:
            z[j] = w[j]
        else:
            z[j] = w[j] / w[j + 1] if w[j + 1] != 0 else 1.0
    return tuple(z)


def _chart(atlas, *raysets):
    fan = atlas.fan
    return atlas.chart(Flag(tuple(fan.cone(r) for r in raysets)))


def test_p2_chart_matrices(atlas_p2):
    # Hand-paired against B = (e1, (1,1)): triangular picks (1,1), (0,1),
    # then the leftover Hilbert element (1,0).
    chart = _chart(atlas_p2, {0}, {0, 1})
    assert chart.generators == ((1, 1), (0, 1), (1, 0))
    assert chart.b == ((1, 1), (0, 1), (1, 0))
    # The pairings <g, B_k>, b's prefix sums.
    assert [list(itertools.accumulate(row)) for row in chart.b] == [[1, 2], [0, 1], [1, 1]]
    assert chart.flag.inverse[0] == ((1, -1), (0, 1))


def test_charts_build_their_flags_inverse():
    """Building the charts computes each maximal flag's exact inverse
    (Flag.inverse: integer rows L over one positive denominator d, and
    the annihilator, empty for a maximal flag), so that once an Atlas is
    warm, locating a point needs no elimination."""
    fan = tb.load_bundled("p112")
    flags = tb.enumerate_flags(fan)
    assert not any("inverse" in flag.__dict__ for flag in flags)
    Atlas(fan).charts()
    assert all("inverse" in flag.__dict__ for flag in flags)
    for flag in flags:
        left, d, annihilator = flag.__dict__["inverse"]
        assert type(d) is int and d > 0 and annihilator == ()
        assert all(type(a) is int for row in left for a in row)
        pairings = [[pair(row, b) for b in flag.barycenters] for row in left]
        assert pairings == [[d * (i == j) for j in range(2)] for i in range(2)]
    assert {flag.inverse[1] for flag in flags} == {1, 2}


def test_p1_chart():
    atlas = Atlas(tb.load_bundled("p1"))
    charts = atlas.charts()
    assert len(charts) == 2
    for chart in charts:
        assert chart.b == ((1,),)
        assert [list(itertools.accumulate(row)) for row in chart.b] == [[1]]
        # psi is the identity in rank one.
        assert psi_eval(chart, (0.37,)) == (0.37,)


def test_p1xp1_charts_unit_diagonal(atlas_p1xp1):
    for chart in atlas_p1xp1.charts():
        n = chart.n
        for i in range(n):
            assert chart.b[i][i] > 0
            assert all(chart.b[i][j] == 0 for j in range(i))


def test_last_triangular_row_concentrated(atlas_p2):
    # The row of the generator interior to the last dual face has all
    # its exponent weight in the final column.
    for chart in atlas_p2.charts():
        n = chart.n
        assert all(chart.b[n - 1][j] == 0 for j in range(n - 1))
        assert chart.b[n - 1][n - 1] > 0


def test_theta_four_coordinates():
    z = (2.0, 3.0, 5.0, 7.0)
    assert theta(z) == (2 * 3 * 5 * 7, 3 * 5 * 7, 5 * 7, 7)


def test_theta_examples():
    assert theta((1.0, 1.0, 1.0)) == (1.0, 1.0, 1.0)
    assert theta((0.5, 0.5)) == (0.25, 0.5)
    # A zero coordinate zeroes every w_j at or below it.
    assert theta((1.0, 0.0, 0.5)) == (0.0, 0.0, 0.5)


@given(st.integers(1, 8).flatmap(lambda n: st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
@settings(max_examples=300, deadline=None)
def test_theta_image_in_simplex(z):
    """theta maps [0, 1]^n into the chain 0 <= w_1 <= ... <= w_n <= 1,
    compared exactly, and onto it: _theta_preimage inverts it to 1e-12."""
    w = theta(z)
    assert 0.0 <= w[0] and all(a <= b for a, b in zip(w, w[1:])) and w[-1] <= 1.0
    assert max(abs(a - b) for a, b in zip(theta(_theta_preimage(w)), w)) <= 1e-12


def test_psi_eval_examples(atlas_p2):
    chart = _chart(atlas_p2, {0}, {0, 1})
    # Rows are (w1*w2, w2, w1); the Hilbert rows give the chart point.
    assert psi_eval(chart, (1.0, 1.0)) == (1.0, 1.0, 1.0)
    y = psi_eval(chart, (0.0, 0.5))
    assert y == (0.0, 0.5, 0.0)


def test_monomial_zero_conventions():
    # A zero exponent has no term, so 0**0 == 1; rows as Chart.terms.
    assert charts._monomials([(), ((0, 2),)], (0.0, 0.7)) == (1.0, 0.0)
    assert _monomial_eval((0, 0), (0.0, 0.0)) == 1.0
    assert _monomial_eval((2, 0), (0.0, 0.7)) == 0.0


def test_invert_triangular_by_hand():
    b = ((1, 1), (0, 1))
    # One batch of three points, given and answered column by column.
    assert invert_triangular(b, [[0.12, 0.0, 1.0], [0.4, 0.5, 1.0]]) == [[0.12 / 0.4, 0.0, 1.0], [0.4, 0.5, 1.0]]
    assert invert_triangular(b, [[], []]) == [[], []]


def test_psi_invert_roundtrip(atlas_p2):
    chart = _chart(atlas_p2, {0}, {0, 1})
    rng = random.Random(11)
    for _ in range(300):
        w = tuple(sorted(rng.random() for _ in range(2)))
        back = psi_invert(chart, psi_eval(chart, w))
        assert max(abs(a - b) for a, b in zip(w, back)) < 1e-10
    # Boundary strata with zero prefixes.
    for w in [(0.0, 0.6), (0.0, 0.0)]:
        back = psi_invert(chart, psi_eval(chart, w))
        assert back == w


def test_invert_triangular_synthetic_family():
    # The inversion works for any nonnegative upper-triangular exponent
    # matrix with positive diagonal, not just chart-derived ones.
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(1, 4)
        b = [[0] * n for _ in range(n)]
        for i in range(n):
            b[i][i] = rng.randint(1, 3)
            for j in range(i + 1, n):
                b[i][j] = rng.randint(0, 3)
        prefix = rng.randint(0, n)
        tail = sorted(rng.random() for _ in range(n - prefix))
        w = tuple([0.0] * prefix + tail)
        y = [_monomial_eval(row, w) for row in b]
        back = [v for (v,) in invert_triangular(b, [[v] for v in y])]
        assert max(abs(a - c) for a, c in zip(w, back)) < 1e-10


def test_psi_invert_rejects_off_image(atlas_p2):
    chart = _chart(atlas_p2, {0}, {0, 1})
    # Consistent triangular part but broken extra coordinate.
    with pytest.raises(NotInImage):
        psi_invert(chart, (0.12, 0.4, 0.9))


def test_psi_invert_rejects_nan_in_a_non_triangular_row(atlas_p2):
    """A NaN in the last row, after the triangular ones, where max alone
    would drop its gap: NotInImage, with the residual NaN."""
    chart = _chart(atlas_p2, {0}, {0, 1})
    assert chart.m == chart.n + 1
    y = psi_eval(chart, (0.3, 0.7))
    assert psi_invert(chart, y) == pytest.approx((0.3, 0.7))
    with pytest.raises(NotInImage) as caught:
        psi_invert(chart, (*y[: chart.n], math.nan))
    assert math.isnan(caught.value.residual)


def test_psi_invert_rejects_points_of_the_wrong_length(p112):
    """A chart point must carry all m coordinates: on p112's first chart
    (m = 3, n = 2) a point cut to its n triangular rows, or with an
    extra coordinate, is refused instead of inverted without a residual."""
    chart = tb.Atlas(p112).charts()[0]
    assert (chart.m, chart.n) == (3, 2)
    y = psi_eval(chart, (0.3, 0.6))
    assert psi_invert(chart, y) == pytest.approx((0.3, 0.6))
    for bad in (y[:2], (*y, 123.0)):
        with pytest.raises(DimensionMismatch):
            psi_invert(chart, bad)


def test_expi_embed_rank1():
    atlas = Atlas(tb.load_bundled("p1"))
    cone = atlas.fan.cone({0})
    p = atlas.expi_point((Fraction(3, 2),), cone)
    assert p.values == (math.exp(-TWO_PI * 1.5),)
    q = atlas.expi_point((0,), cone)
    assert q.values == (1.0,)


def test_expi_embed_p2(atlas_p2):
    # x = u1*e1 + u2*(1,1): values e^(-2pi u2) on (0,1), e^(-2pi(u1+u2))
    # on (1,0) (Hilbert order is lexicographic).
    u1, u2 = Fraction(1, 3), Fraction(1, 5)
    x = (u1 + u2, u2)
    cone = atlas_p2.fan.cone({0, 1})
    sem = atlas_p2.hilbert(cone)
    assert sem.generators == ((0, 1), (1, 0))
    p = atlas_p2.expi_point(x, cone)
    assert abs(p.values[0] - math.exp(-TWO_PI * float(u2))) < 1e-15
    assert abs(p.values[1] - math.exp(-TWO_PI * float(u1 + u2))) < 1e-15


def test_commutativity_residual(atlas_p2):
    chart = _chart(atlas_p2, {0}, {0, 1})
    assert atlas_p2.commutativity_residual(chart, (0, 0)) == 0.0
    assert atlas_p2.commutativity_residual(chart, (3, 2)) <= 1e-12
    rng = random.Random(2)
    for chart in atlas_p2.charts():
        for _ in range(50):
            u = [Fraction(rng.randint(0, 4000), 1000) for _ in range(2)]
            x = tuple(
                u[0] * g0 + u[1] * g1
                for g0, g1 in zip(*[tb.flag_cone(chart.flag).generators[i] for i in (0, 1)])
            )
            assert atlas_p2.commutativity_residual(chart, x) <= 1e-9


def test_localize_interior_point(atlas_p2):
    cone = atlas_p2.fan.cone({0, 1})
    p = atlas_p2.expi_point((Fraction(1, 2), Fraction(1, 3)), cone)
    for face in atlas_p2.fan.faces(cone):
        q = atlas_p2.localize(p, face)
        assert all(v > 0 for v in q.values)


def test_localize_boundary_blocked():
    atlas = Atlas(tb.load_bundled("p1"))
    cone = atlas.fan.cone({0})
    fixed = ToricPoint(cone=cone, values=(0.0,))
    with pytest.raises(NotInOpenSet):
        atlas.localize(fixed, atlas.fan.zero_cone())


def test_localize_torus_coordinate_preserved(atlas_p1xp1):
    # Carrier quadrant: Hilbert order ((0,1),(1,0)); the point has value
    # 0 at e2* and 0.5 at e1*, so it lies on the y = 0 divisor with
    # invertible x and localizes to the cone(e2) chart.
    fan = atlas_p1xp1.fan
    quadrant = fan.cone({0, 1})
    assert atlas_p1xp1.hilbert(quadrant).generators == ((0, 1), (1, 0))
    p = ToricPoint(cone=quadrant, values=(0.0, 0.5))
    tau = fan.cone({1})
    q = atlas_p1xp1.localize(p, tau)
    assert atlas_p1xp1.hilbert(tau).generators == ((0, 1), (1, 0), (-1, 0))
    assert q.values == (0.0, 0.5, 2.0)
    # It does not localize off the divisor.
    with pytest.raises(NotInOpenSet):
        atlas_p1xp1.localize(p, fan.zero_cone())


def test_points_equal_same_point(atlas_p2):
    cone = atlas_p2.fan.cone({0, 1})
    p = atlas_p2.expi_point((Fraction(1, 4), Fraction(2, 3)), cone)
    assert atlas_p2.points_equal(p, p)


def test_points_equal_cross_chart(atlas_p2):
    # The same x through two charts sharing the ray cone(e1).
    fan = atlas_p2.fan
    x = (Fraction(5, 2), Fraction(0))  # on the shared ray
    p = atlas_p2.expi_point(x, fan.cone({0, 1}))
    q = atlas_p2.expi_point(x, fan.cone({0, 2}))
    assert atlas_p2.points_equal(p, q, tol=1e-9)
    # A nearby but different point is distinct.
    r = atlas_p2.expi_point((Fraction(5, 2), Fraction(1, 10)), fan.cone({0, 1}))
    assert not atlas_p2.points_equal(q, r, tol=1e-9)


def test_points_equal_fixed_points_differ(atlas_p2):
    fan = atlas_p2.fan
    a = fan.cone({0, 1})
    b = fan.cone({1, 2})
    pa = ToricPoint(cone=a, values=(0.0, 0.0))
    pb = ToricPoint(cone=b, values=tuple([0.0] * len(atlas_p2.hilbert(b).generators)))
    assert not atlas_p2.points_equal(pa, pb)


def test_semigroup_residual_singular():
    atlas = Atlas(tb.load_bundled("p112"))
    cone = atlas.fan.cone({0, 2})
    sem = atlas.hilbert(cone)
    # The singular cone carries the relation h1 + h3 = 2 h2.
    assert sem.generators == ((0, -1), (1, -1), (2, -1))
    p = atlas.expi_point((Fraction(1, 3), Fraction(-1, 2)), cone)
    assert atlas.semigroup_residual(p) < 1e-12
    broken = ToricPoint(cone=cone, values=(0.5, 0.5, 0.7))
    assert atlas.semigroup_residual(broken) > 0.01
    assert atlas.semigroup_residual(broken) == _pairwise_scan_residual(atlas, broken)


def _pairwise_scan_residual(atlas, p):
    """The reference: rebuild the table of generator sums for this point
    and compare each pair's product with the first pair of equal sum."""
    gens = atlas.hilbert(p.cone).generators
    sums = {}
    worst = 0.0
    for i in range(len(gens)):
        for j in range(i, len(gens)):
            s = vadd(gens[i], gens[j])
            prod = p.values[i] * p.values[j]
            if s in sums:
                gap = abs(sums[s] - prod) / max(1.0, abs(sums[s]), abs(prod))
                worst = max(worst, gap)
            else:
                sums[s] = prod
    return worst


def test_semigroup_residual_matches_pairwise_scan():
    """The per-cone relation table gives the same float as the scan, on
    every cone of P(1,1,1,9), at embedded points and at perturbed ones."""
    path = Path(__file__).parent / "data" / "golden" / "verify_wps_1_1_1_9" / "fan.json"
    atlas = Atlas(tb.parse_and_validate(path.read_text()))
    rng = random.Random(3)
    for cone in atlas.fan.cones():
        for _ in range(3):
            x = tuple(Fraction(rng.randint(-2000, 2000), 1000) for _ in range(3))
            p = atlas.expi_point(x, cone)
            bent = ToricPoint(cone=cone, values=tuple(v * (1 + rng.random()) for v in p.values))
            for q in (p, bent):
                assert atlas.semigroup_residual(q) == _pairwise_scan_residual(atlas, q)


def test_concurrent_reads_consistent(atlas_p2):
    # Charts/hilbert caches are warm here, so parallel readers must see
    # identical results to the serial baseline.
    from concurrent.futures import ThreadPoolExecutor

    fan = atlas_p2.fan
    atlas_p2.charts()  # warm
    # Points with x >= y >= 0 lie in the first chart's flag cone.
    xs = [(Fraction(k + 5, 3), Fraction(k, 4)) for k in range(20)]
    chart = atlas_p2.charts()[0]

    def job(x):
        p = atlas_p2.expi_point(x, fan.cone({0, 1}))
        q = atlas_p2.expi_point(x, fan.cone({0, 2}))
        return (
            atlas_p2.commutativity_residual(chart, x),
            atlas_p2.points_equal(p, q),
        )

    serial = [job(x) for x in xs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(job, xs))
    assert serial == parallel


def test_psi_eval_matches_row_by_row_monomial_eval():
    """psi_eval and psi_invert's residual read Chart.terms; both give
    the floats of _monomial_eval row by row, including 0**0 == 1 where a
    zero coordinate meets a zero exponent.  Chart.hilbert_terms are the
    same tuples as the Hilbert rows' terms, not a copy."""
    path = Path(__file__).parent / "data" / "golden" / "verify_wps_1_1_1_9" / "fan.json"
    atlas = Atlas(tb.parse_and_validate(path.read_text()))
    rng = random.Random(2)
    for chart in atlas.charts():
        assert all(chart.hilbert_terms[k] is chart.terms[i] for k, i in enumerate(chart.hilbert_rows))
        for _ in range(10):
            w = tuple(sorted(rng.choice((0.0, rng.random())) for _ in range(chart.n)))
            y = psi_eval(chart, w)
            assert y == tuple(_monomial_eval(row, w) for row in chart.b)
            back = psi_invert(chart, y, tol=1.0)
            residual = max(abs(_monomial_eval(row, back) - yi) for row, yi in zip(chart.b, y))
            if residual > 0:
                with pytest.raises(NotInImage) as err:
                    psi_invert(chart, y, tol=residual / 2)
                assert err.value.residual == residual
    chart = atlas.charts()[0]
    zeros = psi_eval(chart, (0.0,) * chart.n)
    assert zeros == tuple(1.0 if not any(row) else 0.0 for row in chart.b)
    assert psi_eval(chart, (Fraction(1, 2),) * chart.n) == psi_eval(chart, (0.5,) * chart.n)


def test_chart_point_extracts_hilbert_rows(atlas_p2):
    chart = _chart(atlas_p2, {0}, {0, 1})
    p = atlas_p2.chart_point(chart, (0.3, 0.4))
    # Hilbert generators of the orthant dual are ((0,1),(1,0)):
    # values (w2, w1).
    assert p.values == (0.4, 0.3)


def test_chart_point_and_localize_match_dense_reference():
    """chart_point and localize give the same floats as the dense
    evaluation they replace: psi_eval's Hilbert rows, and each localized
    value multiplied over every generator in order, skipping zero
    exponents.  P(1,1,1,9) has rows with several nonzero exponents, so a
    change in the order of the products shows."""
    path = Path(__file__).parent / "data" / "golden" / "verify_wps_1_1_1_9" / "fan.json"
    atlas = Atlas(tb.parse_and_validate(path.read_text()))
    rng = random.Random(5)

    def dense_value(values, terms):
        coeffs = [0] * len(values)
        for i, c in terms:
            coeffs[i] = c
        out = 1.0
        for v, c in zip(values, coeffs):
            if c:
                out *= v**c
        return out

    for chart in atlas.charts():
        sigma = chart.top_cone
        for _ in range(10):
            w = tuple(sorted(rng.choice((0.0, rng.random())) for _ in range(chart.n)))
            p = atlas.chart_point(chart, w)
            assert p.values == tuple(psi_eval(chart, w)[i] for i in chart.hilbert_rows)
            for tau in atlas.fan.faces(sigma):
                rule = atlas._localization_rule(sigma, tau)
                try:
                    local = atlas.localize(p, tau).values
                except NotInOpenSet:
                    continue
                if rule[0] == "shift":
                    _, alpha_terms, rows, _ = rule
                    cut = dense_value(p.values, alpha_terms)
                    assert local == tuple(dense_value(p.values, terms) / cut**k for k, terms in rows)


@st.composite
def _rational(draw):
    kind = draw(st.sampled_from(["int", "negative", "large"]))
    if kind == "int":
        return draw(st.integers(-5, 5))
    den = draw(st.integers(1, 50) if kind == "negative" else st.integers(10**6, 10**30))
    num = draw(st.integers(-5 * den, -1 if kind == "negative" else 5 * den))
    return Fraction(num, den)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=6),
            st.tuples(*[_rational()] * n),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_exp_pairings_matches_fraction_pairing(case):
    gens, x = case
    assert exp_pairings(gens, x) == tuple(math.exp(-TWO_PI * float(pair(g, x))) for g in gens)


def test_localization_rule_high_multiplicity_bounded():
    """The slowest rule of P(1,1,1,27), from its multiplicity-27 cone to
    the zero cone, stays within a budget (10 s on a 2-core VM), and
    every row recombines exactly to h + k*alpha."""
    fan = wps_fan(3, 27)
    atlas = Atlas(fan)
    sigma, zero = fan.cone({0, 1, 3}), fan.zero_cone()
    start = time.perf_counter()
    kind, alpha_coeffs, rows, _ = atlas._localization_rule(sigma, zero)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, elapsed
    gens = atlas.hilbert(sigma).generators

    def combine(terms):
        total = (0, 0, 0)
        for i, c in terms:
            total = vadd(total, vscale(c, gens[i]))
        return total

    alpha = combine(alpha_coeffs)
    assert kind == "shift" and all(c > 0 for _, c in alpha_coeffs)
    for h, (k, terms) in zip(atlas.hilbert(zero).generators, rows):
        assert all(c > 0 for _, c in terms)
        assert combine(terms) == vadd(h, vscale(k, alpha))


@pytest.mark.parametrize(
    "make_fan", [lambda: tb.load_bundled("twisted_p3"), lambda: wps_fan(3, 27)], ids=["twisted_p3", "wps_1_1_1_27"]
)
def test_localization_shift_matches_probing_loop(make_fan):
    """Every row's shift k, taken in closed form from sigma's rays, is
    the least k >= 0 with h + k*alpha in S_sigma, found by probing
    k = 0, 1, 2, ...; and the row's terms recombine to h + k*alpha.
    Over every (maximal cone, face) pair."""
    fan = make_fan()
    atlas = Atlas(fan)
    for sigma in fan.maximal_cones():
        sem = atlas.hilbert(sigma)
        for tau in fan.faces(sigma):
            rule = atlas._localization_rule(sigma, tau)
            if tau.rays == sigma.rays:
                assert rule == ("identity",)
                continue
            alpha = cutting_functional(sigma, tau)
            _, _, rows, top = rule
            assert top == max(k for k, _ in rows)
            for h, (k, terms) in zip(atlas.hilbert(tau).generators, rows):
                least = 0
                while not sem.contains(vadd(h, vscale(least, alpha))):
                    least += 1
                assert k == least, (sigma, tau, h)
                total = tuple([0] * fan.dim)
                for i, c in terms:
                    total = vadd(total, vscale(c, sem.generators[i]))
                assert total == vadd(h, vscale(k, alpha))


@pytest.mark.parametrize(
    "target, message",
    [("alpha", "cutting functional must lie in the semigroup"), ("shifted", "shifted generator must decompose")],
)
def test_localization_rule_guards_hold_under_O(monkeypatch, target, message):
    """A basis in which the cutting functional alpha, or a shifted
    generator h + k*alpha, has no decomposition stops the rule with its
    AssertionError, raised explicitly so that python -O keeps it (a None
    decomposition would otherwise end in a TypeError from _terms)."""
    fan = tb.load_bundled("p2")
    atlas = Atlas(fan)
    sigma, tau = fan.cone({0, 1}), fan.cone({0})
    alpha = cutting_functional(sigma, tau)
    decompose = cones.decompose

    def failing(semigroup, v):
        return None if (tuple(v) == tuple(alpha)) == (target == "alpha") else decompose(semigroup, v)

    monkeypatch.setattr(cones, "decompose", failing)
    with pytest.raises(AssertionError, match=f"^{message}$"):
        atlas._localization_rule(sigma, tau)


_SPECIAL = st.sampled_from([0.0, 1.0, 0.5, 1e-9, 1e-200, math.inf, math.nan])
_VALUE = st.one_of(_SPECIAL, st.floats(0.0, 1.0), st.floats(0.0, 1e-3))


@st.composite
def _point_pair(draw, atlas):
    """Two points of p112 on drawn cones, with values drawn from [0, 1],
    0.0, values whose powers underflow, inf and NaN; q may copy p's
    values in part, for exact ties."""
    cones = atlas.fan.cones()
    points = []
    for _ in range(2):
        cone = draw(st.sampled_from(cones))
        size = len(atlas.hilbert(cone).generators)
        points.append(ToricPoint(cone, tuple(draw(st.lists(_VALUE, min_size=size, max_size=size)))))
    p, q = points
    if p.cone == q.cone and draw(st.booleans()):
        keep = draw(st.integers(0, len(p.values)))
        q = ToricPoint(q.cone, p.values[:keep] + q.values[keep:])
    return p, q


_P112 = get_atlas("p112")


def _value_gap(atlas, p, q):
    """Sup gap between two points after localizing both to the chart of
    their carriers' intersection cone, each term scaled by the magnitude
    of the values; NaN when some term is NaN (see sup_gap), and None
    when at most one of them localizes.  The reference of points_equal,
    which stops at the first gap past tol."""
    shared = atlas.fan.cone(p.cone.rays & q.cone.rays)
    lp = atlas._local_values(p, shared)
    lq = atlas._local_values(q, shared)
    if lp is None or lq is None:
        return None
    return charts.sup_gap(charts.scaled_gaps(lp, lq))


@given(_point_pair(_P112), st.sampled_from([1e-9, 0.0, 0.5, math.inf, math.nan]))
@settings(max_examples=400, deadline=None)
def test_points_equal_matches_value_gap(points, tol):
    """points_equal stops at the first coordinate whose gap exceeds tol
    or is NaN, yet answers as _value_gap(p, q) <= tol does: the gap is
    NaN when any gap is (charts.sup_gap), so a NaN anywhere makes both
    say "not equal".  Each coordinate's own gap is tried as tol too, so
    ties at tol are covered."""
    p, q = points
    shared = _P112.fan.cone(p.cone.rays & q.cone.rays)
    gap = _value_gap(_P112, p, q)
    tols = [tol]
    if gap is not None:
        lp, lq = _P112.localize(p, shared).values, _P112.localize(q, shared).values
        tols += [abs(a - b) / max(1.0, abs(a), abs(b)) for a, b in zip(lp, lq)]
    for t in tols:
        assert _P112.points_equal(p, q, tol=t) is (gap is not None and gap <= t), (p, q, t, gap)


def test_underflowing_shift_is_off_the_open_chart():
    """A positive v_alpha whose power v_alpha**k underflows to 0.0 for
    the rule's largest k puts the point off the face's open chart: the
    localized values would divide by zero.  On p112 the rule from cone
    {1, 2} to the zero cone has k up to 2, and (1e-200)**2 == 0.0."""
    fan = _P112.fan
    p = ToricPoint(fan.cone({1, 2}), (1e-200, 1.0))
    assert _P112._localization_rule(p.cone, fan.zero_cone())[3] == 2
    with pytest.raises(NotInOpenSet):
        _P112.localize(p, fan.zero_cone())
    ray0 = fan.cone({0})
    for values in [(0.5, 0.5, 0.5), (1.0, 1.0, 1.0), (0.0, 1e-200, 1.0)]:
        q = ToricPoint(ray0, values)
        assert _value_gap(_P112, p, q) is None and _value_gap(_P112, q, p) is None
        assert _P112.points_equal(p, q) is False and _P112.points_equal(q, p) is False


def test_nan_after_the_first_value_is_not_equal():
    """On p112 at cone {0}, a NaN in a later value: _value_gap is NaN and
    points_equal answers False, however loose the tolerance (max alone
    would keep the first gap, 0.0, and drop the NaN)."""
    ray0 = _P112.fan.cone({0})
    p = ToricPoint(ray0, (0.5, 0.5, 0.5))
    for values in [(0.5, math.nan, math.nan), (0.5, 0.5, math.nan), (math.nan, 0.5, 0.5)]:
        q = ToricPoint(ray0, values)
        assert math.isnan(_value_gap(_P112, p, q)) and math.isnan(_value_gap(_P112, q, p))
        assert _P112.points_equal(p, q, tol=math.inf) is False and _P112.points_equal(q, p) is False


def _triangular_columns(chart, points):
    """The chart's n triangular rows over a batch of points, through the
    batch kernel monomial_columns, as verify's float checks call it."""
    return monomial_columns(chart.terms[: chart.n], list(zip(*points)), len(points))


def _pointwise_triangular_rows(chart, w):
    """The reference for _triangular_columns: the triangular rows at one
    point, through the single-point evaluator."""
    return charts._monomials(chart.terms[: chart.n], w)


def _pointwise_invert_triangular(b, y):
    """The reference for invert_triangular: the largest-zero-index rule
    and back-substitution at one point, as they were before the batch
    kernel."""
    n = len(b)
    w = [0.0] * n
    i0 = -1
    for i in range(n):
        if y[i] <= 0.0:
            i0 = i
    for j in range(n - 1, i0, -1):
        acc = 1.0
        for k in range(j + 1, n):
            if b[j][k]:
                acc *= w[k] ** b[j][k]
        val = y[j] / acc
        w[j] = val ** (1.0 / b[j][j])
    return tuple(w)


def _bits(columns):
    """A batch's floats, point by point, by repr: equal exactly when the
    floats are equal bit for bit (0.0 and -0.0 apart, NaN matching NaN)."""
    return [tuple(map(repr, point)) for point in zip(*columns)]


def _assert_kernels_match_pointwise(chart, points):
    b = chart.b[: chart.n]
    values = _triangular_columns(chart, points)
    expected = [_pointwise_triangular_rows(chart, w) for w in points]
    assert _bits(values) == _bits(zip(*expected)), chart.flag
    back = invert_triangular(b, values)
    assert _bits(back) == _bits(zip(*[_pointwise_invert_triangular(b, y) for y in expected])), chart.flag


_KERNEL_FANS = {
    **{name: (lambda name=name: tb.load_bundled(name)) for name in tb.BUNDLED_FANS},
    **{f"wps_{'1_' * (n - 1)}{k}": (lambda n=n, k=k: wps_fan(n, k)) for n, k in ((2, 2), (2, 7), (2, 20), (3, 3), (3, 9), (3, 27))},
    "steep_119": lambda: tb.validate_fan(2, [(1, 0), (-1, 119), (-1, 0), (0, -1)], [[0, 1], [1, 2], [2, 3], [3, 0]]),
    "wps_1_1_90": lambda: wps_fan(2, 90),
    "wps_1_1_1_80": lambda: wps_fan(3, 80),
    "wps_1_1_400": lambda: wps_fan(2, 400),
}


@pytest.mark.parametrize("name", list(_KERNEL_FANS))
def test_batch_kernels_match_pointwise_reference(name):
    """On every chart, at the points of every _delta_samples stratum
    (50 per zero prefix, then 50 interior ones) at seeds 0-2, the batch
    kernels give the floats of the point-by-point references bit for
    bit: monomial_columns those of _monomials, and invert_triangular,
    applied to them, those of back-substitution point by point.  The
    fans are the benchmark's 13 and the four on which verify fails
    today by underflow, where the floats are least tame."""
    fan = _KERNEL_FANS[name]()
    for chart in Atlas(fan).charts():
        for seed in range(3):
            _assert_kernels_match_pointwise(chart, verify._delta_samples(random.Random(seed), fan.dim, 50 * fan.dim + 50))


_SPECIALS = (0.0, 5e-324, 1e-200, 0.25, 0.5, 1.0, math.inf, math.nan)


def test_batch_kernels_match_pointwise_on_special_values():
    """Hand-made batches of every triple of 0.0, a subnormal, 1e-200,
    0.25, 0.5, 1.0, inf and NaN, in any order, so that zeros sit below
    nonzeros and NaN anywhere: on p3's and P(1,1,1,9)'s charts, and on a
    triangular matrix with every entry above the diagonal set, the
    kernels match the references bit for bit.  A point on which the
    reference inversion raises (a zero acc to divide by) raises the
    same error in the batch kernel.  A point whose zero prefix covers
    column j is not powered there: at y = (0, 1e200, 1), w_1 = 1e200
    and 1e200**2 would raise OverflowError in column 0, which the
    largest-zero-index rule never computes."""
    points = list(itertools.product(_SPECIALS, repeat=3))
    for chart in [*get_atlas("p3").charts(), *Atlas(wps_fan(3, 9)).charts()]:
        values = _triangular_columns(chart, points)
        assert _bits(values) == _bits(zip(*[_pointwise_triangular_rows(chart, w) for w in points])), chart.flag
    raised = 0
    for b in [((2, 1, 3), (0, 1, 2), (0, 0, 1)), ((1, 0, 0), (0, 3, 0), (0, 0, 2))]:
        inverted, raising = [], []
        for y in points:
            try:
                inverted.append((y, _pointwise_invert_triangular(b, y)))
            except ArithmeticError as err:
                raising.append((y, type(err)))
        assert len(inverted) > len(points) // 2
        ys, expected = zip(*inverted)
        assert _bits(invert_triangular(b, list(zip(*ys)))) == _bits(zip(*expected))
        for y, error in raising:
            with pytest.raises(error):
                invert_triangular(b, [[v] for v in y])
        raised += len(raising)
    assert raised
    trap = ((1, 2, 0), (0, 1, 0), (0, 0, 1))
    ys = [(0.0, 1e200, 1.0), (0.5, 0.5, 1.0)]
    expected = [_pointwise_invert_triangular(trap, y) for y in ys]
    assert _bits(invert_triangular(trap, list(zip(*ys)))) == _bits(zip(*expected))
    assert invert_triangular(trap, [[0.0], [1e200], [1.0]]) == [[0.0], [1e200], [1.0]]
    # The largest zero index wins: y_1 = 0 zeroes w_0 and w_1, whatever y_0.
    b = ((2, 1, 3), (0, 1, 2), (0, 0, 1))
    assert invert_triangular(b, [[0.5, 0.0], [0.0, 0.5], [0.25, 0.25]]) == [[0.0, 0.0], [0.0, 8.0], [0.25, 0.25]]


# Input errors of the charts module that no other test reaches: the
# call, the exception class and its message.
CHARTS_INPUT_ERRORS = {
    "chart-non-maximal-flag": (
        lambda atlas, fan: atlas.chart(Flag((fan.cone({0}),))),
        "charts are attached to maximal flags only",
    ),
    "chart-rank-0-empty-flag": (
        lambda atlas, fan: tb.Atlas(tb.validate_fan(0, [], [[]])).chart(Flag(())),
        "charts are attached to maximal flags only",
    ),
    "localize-to-non-face": (
        lambda atlas, fan: atlas.localize(atlas.expi_point((1, 1), fan.cone({0, 1})), fan.cone({1, 2})),
        "localization target must be a face of the carrier",
    ),
}


@pytest.mark.parametrize("case", CHARTS_INPUT_ERRORS)
def test_charts_input_errors(case):
    call, message = CHARTS_INPUT_ERRORS[case]
    atlas = get_atlas("p2")
    with pytest.raises(ValueError, match=re.escape(message)):
        call(atlas, atlas.fan)
