"""Rescaling map calculus and the boundary parameterization."""

import math
import random
import re
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toricball as tb
from toricball.bary import Flag, NotInCone, enumerate_flags, locate_flag
from toricball.charts import exp_flag, psi_eval, theta
from toricball.homeo import (
    check_barycentric,
    nonextension_probe,
    param_boundary_point,
    phi_columns,
    phi_coords,
    phi_point,
    rescale_global,
    rescale_in_flag,
)

from conftest import bary_to_delta, get_atlas, phi_inverse_coords

TWO_PI = 2 * math.pi


def phi_jk(u, j: int) -> float:
    """The j-th rescaling coordinate (1-indexed) of u from fresh prefix
    sums, the per-coordinate reference of phi_coords.  Each sum adds
    left to right from 0.0, as sum() does before Python 3.12 (from 3.12
    on it compensates the rounding, and phi_coords does not)."""
    upper = 1.0 + reduce(add, map(float, u[:j]), 0.0)
    lower = 1.0 + reduce(add, map(float, u[: j - 1]), 0.0)
    return math.log(upper / lower) / TWO_PI


def test_phi_jk_examples():
    assert abs(phi_jk((1.0, 0.0, 0.0), 1) - math.log(2) / TWO_PI) < 1e-15
    assert phi_jk((0.0, 0.0, 0.0), 1) == 0.0
    assert phi_jk((0.0, 0.0), 2) == 0.0
    assert abs(phi_jk((1.0, 1.0), 2) - math.log(1.5) / TWO_PI) < 1e-15


def test_phi_coords_k3_formula():
    # Spelled-out ratios for k = 3.
    u = (0.3, 1.2, 0.7)
    v = phi_coords(u)
    s = [1.0, 1.3, 2.5, 3.2]
    expected = tuple(math.log(s[j + 1] / s[j]) / TWO_PI for j in range(3))
    assert max(abs(a - b) for a, b in zip(v, expected)) < 1e-15


_PHI_INPUT = st.one_of(
    st.fractions(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**9),
    st.floats(min_value=0.0, max_value=1e300),  # zeros and subnormals included
)


@given(st.lists(_PHI_INPUT, max_size=8))
@example([1.0, 1e-16, 1e-16])
@example([0.0, 5e-324, Fraction(1, 3), 7, 0.0])
@settings(max_examples=300, deadline=None)
def test_phi_coords_matches_the_per_coordinate_reference(u):
    """phi_coords, from one pass of prefix sums, gives phi_jk's floats
    bit for bit, on Fractions, ints and floats up to k = 8.  The first
    example is one where a compensated sum would differ in the last bit
    from the left-to-right one."""
    assert list(map(float.hex, phi_coords(u))) == [phi_jk(u, j).hex() for j in range(1, len(u) + 1)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.python_O
def test_phi_columns_matches_phi_point_bit_for_bit(n):
    """The batch kernel gives phi_point's floats, compared as hex, at
    every point of a seeded batch: each point on its own integer
    barycenters, about a quarter of its coordinates exactly 0.0 (whole
    points among them), the rest scaled by 1e-12 to 1e6."""
    rng = random.Random(f"phi-columns/{n}")
    scales = [1e-12, 1e-9, 1e-6, 1e-3, 1.0, 16.0, 1e3, 1e6]
    points = []
    for _ in range(240):
        gens = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n)]
        scale = rng.choice(scales) * rng.uniform(0.5, 2.0)
        points.append((gens, [0.0 if rng.random() < 0.25 else scale * rng.random() for _ in range(n)]))
    u = [[p[1][j] for p in points] for j in range(n)]
    barycenters = [[[p[0][j][i] for p in points] for i in range(n)] for j in range(n)]
    columns = phi_columns(barycenters, u, n, len(points))
    assert len(columns) == n and all(len(c) == len(points) for c in columns)
    got = [[c[k].hex() for c in columns] for k in range(len(points))]
    assert got == [[x.hex() for x in phi_point(gens, coords, n)] for gens, coords in points]
    assert any(not any(coords) for _, coords in points)


def test_phi_roundtrip_property():
    rng = random.Random(9)
    for k in range(1, 9):
        for _ in range(500):
            u = tuple(rng.random() * 5 for _ in range(k))
            back = phi_inverse_coords(phi_coords(u))
            assert max(abs(a - b) for a, b in zip(u, back)) < 1e-10


def test_phi_faces_to_faces():
    v = phi_coords((1.0, 0.0))
    assert abs(v[0] - math.log(2) / TWO_PI) < 1e-15
    assert v[1] == 0.0


def test_rescale_fixed_point(p2):
    assert rescale_global(p2, (0, 0)) == (0.0, 0.0)


def test_rescale_barycenter_of_max_cone(p2):
    B = tb.barycenter(p2.cone({0, 1}))
    out = rescale_global(p2, B)
    scale = math.log(2) / TWO_PI
    assert max(abs(o - scale * b) for o, b in zip(out, B)) < 1e-15


def test_rescale_global_rank_zero():
    # validate_fan and cover_check call the rank-0 fan complete: the
    # empty flag covers its one point.
    fan = tb.validate_fan(0, [], [[]])
    assert locate_flag(fan, ()) == Flag(())
    assert rescale_global(fan, ()) == ()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rescale_global_rejects_nonfinite_points(p2, bad):
    """A non-finite coordinate has no exact value: exact.vec names it,
    where Fraction raised OverflowError or "cannot convert NaN"."""
    for x in ((bad, 0.0), (0.0, bad)):
        with pytest.raises(ValueError, match="coordinates must be finite"):
            rescale_global(p2, x)


def test_rescale_requires_membership(p2):
    flag = Flag((p2.cone({0}), p2.cone({0, 1})))
    with pytest.raises(NotInCone):
        rescale_in_flag(flag, (-1, 0))


def test_rescale_gluing_on_shared_faces(p2, p1xp1):
    # Points on a shared face evaluate identically through both flags.
    for fan in (p2, p1xp1):
        flags = enumerate_flags(fan)
        for i in range(len(flags)):
            for j in range(i + 1, len(flags)):
                shared = tb.flag_intersection(flags[i], flags[j])
                if not len(shared):
                    continue
                x = tb.barycenter(shared.cones[-1])
                a = rescale_in_flag(flags[i], x)
                b = rescale_in_flag(flags[j], x)
                assert max(abs(p - q) for p, q in zip(a, b)) < 1e-12


def test_rescale_subflag_restriction(cube_fan):
    rng = random.Random(4)
    flags = enumerate_flags(cube_fan)
    for flag in flags[:6]:
        members = list(flag.cones)
        for mask in (1, 2, 4, 3, 5, 6):
            sub = Flag(tuple(members[i] for i in range(3) if mask >> i & 1))
            gens = tb.flag_cone(sub).generators
            coeff = [rng.randint(0, 3000) for _ in sub.cones]
            x = tuple(sum(c * g[t] for c, g in zip(coeff, gens)) for t in range(3))
            # Bit for bit: the fact that replaced verify's rescale_gluing.
            assert rescale_in_flag(sub, x) == rescale_in_flag(flag, x)


def test_bary_to_delta_partial_sums():
    """conftest.bary_to_delta, the reference, and check_barycentric,
    which returns the same partial sums w of an accepted xi."""
    xi = (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))
    assert bary_to_delta(xi) == check_barycentric(xi) == (Fraction(1, 6), Fraction(1, 2))
    # Monotone chain, exactly.
    w = bary_to_delta((Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(4, 10)))
    assert all(a <= b for a, b in zip(w, w[1:])) and w[-1] <= 1
    assert check_barycentric((0, 1, 0)) == (0, 1)
    assert check_barycentric((1.0,)) == ()
    assert check_barycentric((0.1, 0.2, 0.7)) == (0.1, 0.1 + 0.2)
    # Exact up to the first float entry, floats from it on.
    assert check_barycentric((Fraction(1, 3), Fraction(1, 3), 1 / 3)) == (Fraction(1, 3), Fraction(2, 3))
    assert check_barycentric((0.25, Fraction(1, 4), Fraction(1, 2))) == (0.25, 0.5)
    # The total is added left to right: 6e-17 is below half an ulp of
    # 1.0000000000009999, so it stays within BARYCENTRIC_TOL of 1, where
    # a compensated sum() (Python 3.12 on) rounds it up past it.
    assert check_barycentric((1.0000000000009999, 6e-17, 6e-17)) == (1.0000000000009999,) * 2


def test_check_barycentric():
    check_barycentric((0.25, 0.25, 0.5))
    with pytest.raises(ValueError, match="sum to 1"):
        check_barycentric((0.5, 0.6))
    with pytest.raises(ValueError, match="nonnegative"):
        check_barycentric((-0.1, 1.1))
    # Floats are held to tol: round-off and tiny negatives pass.
    check_barycentric((0.1, 0.2, 0.7))
    check_barycentric((-1e-13, 1.0))
    # Exact entries (int, Fraction) must sum to exactly 1.
    check_barycentric((0, 1, 0))
    check_barycentric((Fraction(1, 3), Fraction(2, 3)))
    with pytest.raises(ValueError, match="sum to 1"):
        check_barycentric((1, Fraction(1, 10**13)))
    with pytest.raises(ValueError, match="nonnegative"):
        check_barycentric((Fraction(-1, 2), Fraction(3, 2)))
    with pytest.raises(ValueError, match="sum to 1"):
        check_barycentric(())
    # A float entry makes the sum a float sum, held to tol.
    check_barycentric((1, 1e-13))
    check_barycentric((Fraction(1, 3), 2 / 3))
    with pytest.raises(ValueError, match="sum to 1"):
        check_barycentric((Fraction(1, 2), 0.5 + 1e-9))
    with pytest.raises(ValueError, match="nonnegative"):
        check_barycentric((Fraction(-1, 10), 1.1))
    # Non-finite entries fail every comparison, so they are refused first.
    for bad in ((math.nan,), (math.nan, 0.5, 0.5), (math.inf, 0.0), (0.5, -math.inf, 0.5)):
        with pytest.raises(ValueError, match="finite"):
            check_barycentric(bad)
    # Acceptance is decided on the one pass's running total; a rejection
    # is then told in the order above: not finite, negative, the sum.
    for bad, message in [
        ((1.0, math.nan), "finite"),
        ((0.0, math.inf, 0.0), "finite"),
        ((math.inf, -math.inf), "finite"),  # a NaN total
        ((-math.inf, 2.0, math.nan), "finite"),  # not "nonnegative"
        ((1e308, 1e308), "sum to 1"),  # finite entries, an inf total
        ((1e308, -1e308, 1.0), "nonnegative"),  # a total of exactly 1.0
        ((Fraction(1, 2), Fraction(1, 2) - Fraction(1, 10**13)), "sum to 1"),  # exactly 1 - 1e-13
        ((0.5, 0.6, -1e-11), "nonnegative"),
    ]:
        with pytest.raises(ValueError, match=message):
            check_barycentric(bad)


def _seeded_xi(rng, n):
    """Valid barycentric vectors of length n + 1: float, Fraction, int
    and mixed, on the interior, on the face xi_0 = 0 and at vertices."""
    raw = [rng.random() + 0.01 for _ in range(n + 1)]
    total = sum(raw)
    floats = [x / total for x in raw]
    face = [0.0] + [x / (total - raw[0]) for x in raw[1:]]
    weights = [rng.randint(1, 50) for _ in range(n + 1)]
    fractions = [Fraction(x, sum(weights)) for x in weights]
    out = [tuple(floats), tuple(face), (-0.0, *face[1:])]  # the face xi_0 = 0, as 0.0 and as -0.0
    out += [tuple(fractions), (Fraction(0), *fractions[1:-1], 1 - sum(fractions[1:-1]))]
    out += [tuple(int(i == k) for i in range(n + 1)) for k in range(n + 1)]  # int vertices
    out += [tuple(float(i == k) for i in range(n + 1)) for k in range(n + 1)]  # float vertices
    # Mixed: a float first, then Fractions; and Fractions, then a float.
    out.append((1.0 - float(sum(fractions[1:])), *fractions[1:]))
    out.append((*fractions[:-1], float(fractions[-1])))
    return out


@pytest.mark.parametrize("name", ["p2", "p112", "twisted_p3"])
def test_param_matches_two_step_route(name):
    """param_boundary_point's one pass gives, bit for bit, the values of
    the two-step route it replaced: the float partial sums of
    conftest.bary_to_delta into Atlas.chart_point."""
    atlas = get_atlas(name)
    rng = random.Random(4301)
    for chart in atlas.charts():
        n = len(chart.flag)
        for _ in range(4):
            for xi in _seeded_xi(rng, n):
                direct = param_boundary_point(atlas, chart.flag, xi)
                route = atlas.chart_point(chart, tuple(float(v) for v in bary_to_delta(xi)))
                assert direct.cone == route.cone
                assert [v.hex() for v in direct.values] == [v.hex() for v in route.values], xi


def test_param_vertices(atlas_p2):
    flags = enumerate_flags(atlas_p2.fan)
    # xi = (1,0,...,0): the origin's image, all chart values 1.
    p = param_boundary_point(atlas_p2, flags[0], (1.0, 0.0, 0.0))
    assert p.values == (1.0, 1.0)
    # xi = (0,...,0,1): the torus-fixed point, all values 0.
    q = param_boundary_point(atlas_p2, flags[0], (0.0, 0.0, 1.0))
    assert q.values == (0.0, 0.0)
    # Strictly increasing partial sums for the uniform weights.
    r = param_boundary_point(atlas_p2, flags[0], (Fraction(1, 3),) * 3)
    assert r.values == (2.0 / 3.0, 1.0 / 3.0)


def test_param_p2_mid_edge(atlas_p2):
    flags = enumerate_flags(atlas_p2.fan)
    p = param_boundary_point(atlas_p2, flags[0], (0.0, 1.0, 0.0))
    # w = (0, 1): chart rows (w1*w2, w2, w1) restricted to Hilbert rows.
    assert p.values == (1.0, 0.0)


def test_param_wrong_length(atlas_p2):
    flags = enumerate_flags(atlas_p2.fan)
    with pytest.raises(ValueError):
        param_boundary_point(atlas_p2, flags[0], (0.5, 0.5))


def test_composite_identity_interior(atlas_p2):
    # For interior xi the parameterization equals psi.theta.exp.Phi at
    # u_i = xi_i / xi_0.
    rng = random.Random(17)
    for chart in atlas_p2.charts():
        for _ in range(60):
            raw = [rng.random() + 0.05 for _ in range(3)]
            total = sum(raw)
            xi = tuple(x / total for x in raw)
            direct = param_boundary_point(atlas_p2, chart.flag, xi)
            u = tuple(x / xi[0] for x in xi[1:])
            y = psi_eval(chart, theta(exp_flag(phi_coords(u))))
            composite = tuple(y[i] for i in chart.hilbert_rows)
            assert max(abs(a - b) for a, b in zip(direct.values, composite)) < 1e-9
            # And the ratio formula for the composite's coordinates.
            w = bary_to_delta(xi)
            ratios = [(1 + sum(u[:j])) / (1 + sum(u)) for j in range(2)]
            assert max(abs(a - b) for a, b in zip(w, ratios)) < 1e-12


@given(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_telescoping_identity(u):
    """theta(e^(-2 pi Phi(u)))_j = (1 + u_1 + ... + u_(j-1)) / (1 + sum u)
    = bary_to_delta(xi)_j over u >= 0, at the compactifying chart's
    xi_0 = 1 / (1 + sum u), xi_j = u_j / (1 + sum u): the
    fan-independent identity behind param_boundary_point on the
    interior, which replaced verify's barycentric_composite."""
    ratios = [(1 + sum(u[:j])) / (1 + sum(u)) for j in range(len(u))]
    total = 1 + sum(u)
    xi = (1 / total, *(uj / total for uj in u))
    for route in (theta(exp_flag(phi_coords(u))), bary_to_delta(xi)):
        assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(route, ratios, strict=True))


def test_nonextension_probe(atlas_p2):
    flag = enumerate_flags(atlas_p2.fan)[0]
    e2pi = math.exp(-TWO_PI)
    e4pi = math.exp(-2 * TWO_PI)
    # Second triangular coordinate is e^(-2 pi c) for every s.
    for s in (0.1, 1.0, 7.0):
        y1 = nonextension_probe(atlas_p2, flag, 1.0, s)
        y2 = nonextension_probe(atlas_p2, flag, 2.0, s)
        assert abs(y1[1] - e2pi) < 1e-15
        assert abs(y2[1] - e4pi) < 1e-18
    # First coordinate goes to 0 along both paths.
    assert nonextension_probe(atlas_p2, flag, 1.0, 10.0)[0] < 1e-25
    assert nonextension_probe(atlas_p2, flag, 2.0, 10.0)[0] < 1e-25


def test_nonextension_requires_rank2(cube_fan):
    atlas = tb.Atlas(cube_fan)
    flag = enumerate_flags(cube_fan)[0]
    with pytest.raises(ValueError):
        nonextension_probe(atlas, flag, 1.0, 1.0)


# Input errors of the homeo module that no other test reaches: the call,
# the exception class and its message.
HOMEO_INPUT_ERRORS = {
    "param-rank-0-empty-flag": (
        lambda atlas: param_boundary_point(tb.Atlas(tb.validate_fan(0, [], [[]])), Flag(()), (1.0,)),
        "charts are attached to maximal flags only",
    ),
    "probe-c-zero": (
        lambda atlas: nonextension_probe(atlas, enumerate_flags(atlas.fan)[0], 0.0, 1.0),
        "the probe path needs c > 0",
    ),
}


@pytest.mark.parametrize("case", HOMEO_INPUT_ERRORS)
def test_homeo_input_errors(case, atlas_p2):
    call, message = HOMEO_INPUT_ERRORS[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        call(atlas_p2)
