import itertools
import math
import random
from fractions import Fraction

import pytest

import toricball as tb
from toricball.bary import Flag, barycenter
from toricball.charts import TWO_PI
from toricball.exact import primitive, vec, vscale
from toricball.fan import Fan, _build_cone

# Atlases are expensive to warm up (Hilbert bases, localization rules),
# so they are shared per session.  Everything in the library is
# immutable after construction, which makes that safe.

_FAN_CACHE = {}
_ATLAS_CACHE = {}


def get_fan(name):
    if name not in _FAN_CACHE:
        _FAN_CACHE[name] = tb.load_bundled(name)
    return _FAN_CACHE[name]


def get_atlas(name):
    if name not in _ATLAS_CACHE:
        _ATLAS_CACHE[name] = tb.Atlas(get_fan(name))
    return _ATLAS_CACHE[name]


def all_flags(fan):
    """Every flag of the fan, the empty one first, in enumeration order:
    the chains above the zero cone that Fan.chains_above yields, sorted
    lexicographically by (dimension, sorted ray indices) of their cones.
    The library builds only the maximal flags; this is the reference of
    the tests that read the others."""
    chains = [(), *fan.chains_above(fan.zero_cone())]
    return [Flag(chain) for chain in sorted(chains, key=lambda chain: [(c.dim, sorted(c.rays)) for c in chain])]


def cover_samples(fan, count, seed, box=7):
    """Deterministic exact sample points of N_R: every barycenter, all
    pairwise barycenter midpoints (exact halves hit low-dimensional
    strata), then uniform integer vectors in a box."""
    rng = random.Random(seed)
    barys = [vec(barycenter(c)) for c in fan.cones() if c.dim > 0]
    samples = list(barys)
    for i, b1 in enumerate(barys):
        for b2 in barys[i + 1 :]:
            samples.append(tuple((a + b) * Fraction(1, 2) for a, b in zip(b1, b2)))
    for _ in range(count):
        samples.append(tuple(rng.randint(-box, box) for _ in range(fan.dim)))
    return samples


def phi_inverse_coords(v):
    """The closed-form inverse of homeo.phi_coords, the reference of its
    round trips: u_j = (e^(2 pi v_j) - 1) e^(2 pi sum_{i<j} v_i)."""
    out = []
    prefix = 0.0
    for vj in v:
        out.append((math.exp(TWO_PI * float(vj)) - 1.0) * math.exp(TWO_PI * prefix))
        prefix += float(vj)
    return tuple(out)


def bary_to_delta(xi):
    """The partial sums w_j = xi_0 + ... + xi_(j-1) one addition at a
    time from xi_0 * 0, exact for ints and Fractions: the reference route
    of homeo.param_boundary_point, which takes them from
    check_barycentric's single pass."""
    out = []
    acc = xi[0] * 0  # keeps Fractions exact, floats float
    for x in xi[:-1]:
        acc = acc + x
        out.append(acc)
    return tuple(out)


def cube_faces_fan():
    """The fan over the cube's faces: singular, non-simplicial, complete."""
    rays = [
        (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
        (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1),
    ]
    maxc = [
        [0, 1, 2, 3], [4, 5, 6, 7], [0, 1, 4, 5],
        [2, 3, 6, 7], [0, 2, 4, 6], [1, 3, 5, 7],
    ]
    return tb.validate_fan(3, rays, maxc)


def nonprojective_fan():
    """A complete simplicial fan of rank 3 that is the normal fan of no
    polytope, so its toric variety is proper but not projective.

    Rays e1, e2, e3, -e1-e2-e3, p4 = (2,1,1), p5 = (1,2,1) and
    p6 = (1,1,2), at indices 0-6.  The first three maximal cones and the
    positive orthant make the fan of P^3; the last seven subdivide the
    orthant, as the cone over the twisted triangulation of the nested
    triangles e1 e2 e3 and p4 p5 p6 (J. A. De Loera, J. Rambau and
    F. Santos, Triangulations, Springer 2010: the "mother of all
    examples").

    Proof that no strictly convex support function exists.  The walls
    {e1, p5}, {e2, p6} and {e3, p4} each lie in exactly two maximal
    cones, [0,1,5] and [0,5,4], [1,2,6] and [1,6,5], [2,0,4] and
    [2,4,6], and the rays off each wall satisfy the integer relations
        e2 + p4 = e1 + p5,  e3 + p5 = e2 + p6,  e1 + p6 = e3 + p4.
    Take the heights h of a support function on the rays, linear on
    each cone and the maximum of those linear functions.  Across the
    first wall, let m be the linear function of the cone [0,1,5]; then
    h(e2) + m(p4) = m(e1 + p5) = h(e1) + h(p5), and strict convexity
    puts h(p4) > m(p4).  So, wall by wall,
        h(e2) + h(p4) > h(e1) + h(p5),
        h(e3) + h(p5) > h(e2) + h(p6),
        h(e1) + h(p6) > h(e3) + h(p4).
    Each height appears once on each side of their sum, which reads
    0 > 0.  (Support functions taken as minima flip all three signs.)
    """
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (2, 1, 1), (1, 2, 1), (1, 1, 2)]
    maxc = [
        [3, 1, 2], [3, 0, 2], [3, 0, 1], [4, 5, 6], [0, 1, 5],
        [1, 2, 6], [2, 0, 4], [0, 5, 4], [1, 6, 5], [2, 4, 6],
    ]
    return tb.validate_fan(3, rays, maxc, name="nonprojective")


def incomplete_fans():
    """p2 without one maximal cone, and P^3 without one: incomplete fans
    of rank 2 and 3, validated with require_complete=False."""
    return (
        tb.validate_fan(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2]], require_complete=False),
        tb.validate_fan(
            3,
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
            [[0, 1, 2], [1, 2, 3], [0, 2, 3]],
            require_complete=False,
        ),
    )


def unvalidated_fan(rays, max_cones):
    """A simplicial Fan built directly, for inputs validate_fan rejects."""

    def subsets(s):
        return {frozenset(c) for k in range(len(s) + 1) for c in itertools.combinations(sorted(s), k)}

    faces_of = {face: subsets(face) for mc in max_cones for face in subsets(mc)}
    cones = {face: _build_cone(face, rays, len(rays[0])) for face in faces_of}
    return Fan(len(rays[0]), tuple(rays), tuple(frozenset(mc) for mc in max_cones), cones, faces_of)


def drop_face(fan, rays):
    """fan with the cone on rays taken out of its face table: an
    unvalidated Fan whose other cones, faces and maximal cones stay."""
    drop = frozenset(rays)
    cones = {r: c for r, c in fan._cones.items() if r != drop}
    faces_of = {r: set(faces) - {drop} for r, faces in fan._faces_of.items() if r != drop}
    return Fan(fan.dim, fan.rays, fan.max_cones, cones, faces_of, name=f"{fan.name}-without{sorted(drop)}")


def wps_fan(n, k):
    """P(1,...,1,k) of rank n: the unit vectors and (-1,...,-1,-k)."""
    rays = [tuple(int(i == j) for i in range(n)) for j in range(n)] + [(-1,) * (n - 1) + (-k,)]
    return tb.validate_fan(n, rays, [[i for i in range(n + 1) if i != s] for s in range(n + 1)])


def stellar_fan(base, steps, c_max, seed):
    """Seeded stellar subdivisions of a simplicial fan.

    Each step picks a face sigma, with at least two rays r_i, of a
    random maximal cone, adds the ray v = primitive(sum c_i r_i) with
    c_i drawn from [1, c_max], and replaces every maximal cone
    tau containing sigma by the cones (tau - {r}) + {v}, one for each
    ray r of sigma.  The result is complete when base is; its cones'
    multiplicities grow with c_max.
    """
    rng = random.Random(seed)
    rays = list(base.rays)
    max_cones = [sorted(c.rays) for c in base.maximal_cones()]
    assert all(len(c) == base.dim for c in max_cones), "stellar_fan needs a simplicial fan"
    for _ in range(steps):
        top = rng.choice(max_cones)
        sigma = set(rng.sample(top, rng.randint(2, len(top))))
        scaled = [vscale(rng.randint(1, c_max), rays[i]) for i in sorted(sigma)]
        rays.append(primitive(tuple(map(sum, zip(*scaled)))))
        cut = len(rays) - 1
        max_cones = [c for c in max_cones if not sigma <= set(c)] + [
            sorted(set(c) - {r} | {cut}) for c in max_cones if sigma <= set(c) for r in sorted(sigma)
        ]
    return tb.validate_fan(base.dim, rays, max_cones, name=f"{base.name}_stellar_{steps}_{c_max}_{seed}")


@pytest.fixture(scope="session")
def p1():
    return get_fan("p1")


@pytest.fixture(scope="session")
def p2():
    return get_fan("p2")


@pytest.fixture(scope="session")
def p1xp1():
    return get_fan("p1xp1")


@pytest.fixture(scope="session")
def p3():
    return get_fan("p3")


@pytest.fixture(scope="session")
def cube_fan():
    return get_fan("p1xp1xp1")


@pytest.fixture(scope="session")
def p112():
    return get_fan("p112")


@pytest.fixture(scope="session")
def twisted_p3():
    return get_fan("twisted_p3")


@pytest.fixture(scope="session")
def atlas_p2():
    return get_atlas("p2")


@pytest.fixture(scope="session")
def atlas_p1xp1():
    return get_atlas("p1xp1")


def drop_first_term(rows):
    """rows less the first term of its first row: for Chart.terms of
    p2's flag 0, the triangular row w1 * w2 loses its w1."""
    rows = list(rows)
    assert rows[0]
    rows[0] = rows[0][1:]
    return tuple(rows)


def p2_with_terms(edit):
    """p2 whose flag-0 chart has Chart.terms changed by edit and nothing
    else: its exponent matrices, and the Hilbert-row terms that
    Atlas.chart_point reads, stay as built."""
    fan = tb.load_bundled("p2")
    atlas = tb.Atlas(fan)
    chart = atlas.charts()[0]
    chart.hilbert_terms  # cached from the unperturbed terms
    chart.__dict__["terms"] = edit(chart.terms)
    return fan, atlas
