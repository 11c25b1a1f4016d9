import random
from fractions import Fraction

import pytest

import toricball as tb
from toricball.bary import barycenter
from toricball.exact import vec

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
