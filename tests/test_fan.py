"""Fan validation, face lattice, completeness, star fans."""

import itertools
import json
import math
import re
from pathlib import Path

import pytest

import toricball as tb
from conftest import cube_faces_fan, get_fan, incomplete_fans, nonprojective_fan, unvalidated_fan, wps_fan
from toricball.cones import dual_generators, face_index_sets, generator_list
from toricball.exact import is_zero_vec, primitive, quotient_projection, rank, vsum
from toricball.fan import (
    FaceIntersectionViolation,
    FanValidationError,
    IncompleteFan,
    NotPrimitiveRay,
    NotStronglyConvex,
    ParseError,
    parse_and_validate,
    parse_fan,
    ridge_pairing,
    star_fan,
    validate_fan,
)


def test_p1_counts(p1):
    assert p1.dim == 1
    assert len(p1.cones()) == 3  # zero cone + two rays
    assert p1.is_complete() == (True, None)


def test_p2_counts(p2):
    # 1 zero cone + 3 rays + 3 two-cones, enumerated by hand.
    assert len(p2.cones()) == 7
    assert len([c for c in p2.cones() if c.dim == 1]) == 3
    assert len([c for c in p2.cones() if c.dim == 2]) == 3
    assert p2.is_complete()[0]


def test_p1xp1_counts(p1xp1):
    assert len(p1xp1.cones()) == 9


def test_p3_counts(p3):
    # Binomial face counts of a simplicial 3-cone fan: 1 + 4 + 6 + 4.
    assert len(p3.cones()) == 15


def test_incomplete_rejected():
    with pytest.raises(IncompleteFan):
        validate_fan(2, [(1, 0), (0, 1)], [[0, 1]])
    fan = validate_fan(2, [(1, 0), (0, 1)], [[0, 1]], require_complete=False)
    ok, cert = fan.is_complete()
    assert not ok
    # The certificate names a violating facet (a single ray here).
    assert cert["facet"] in ([0], [1])
    assert cert["count"] == 1


def test_p2_missing_cone_incomplete(p2):
    fan = validate_fan(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2]], require_complete=False)
    assert not fan.is_complete()[0]


def test_not_primitive():
    with pytest.raises(NotPrimitiveRay):
        validate_fan(2, [(2, 0), (0, 1)], [[0, 1]], require_complete=False)


def test_not_strongly_convex():
    # A half-plane, a line, a line plus a ray, and a plane.
    for dim, rays in [
        (2, [(1, 0), (-1, 0), (0, 1)]),
        (2, [(1, 0), (-1, 0)]),
        (3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0)]),
        (3, [(1, 0, 0), (0, 1, 0), (-1, -1, 0)]),
    ]:
        cone = list(range(len(rays)))
        with pytest.raises(NotStronglyConvex, match=re.escape(f"cone {cone} contains a line")):
            validate_fan(dim, rays, [cone], require_complete=False)
    # A pointed cone below full dimension is strongly convex.
    fan = validate_fan(3, [(1, 0, 0), (0, 1, 0)], [[0, 1]], require_complete=False)
    assert [c.dim for c in fan.cones()] == [0, 1, 1, 2]
    assert fan.is_complete()[1] == {"reason": "maximal cone not full-dimensional", "cone": [0, 1]}


def test_face_intersection_violation():
    for dim, rays, cones in [
        # Two quadrant-like cones overlapping in a 2-dimensional wedge.
        (2, [(1, 0), (0, 1), (1, -1)], [[0, 1], [1, 2]]),
        # A T-junction: the cones meet in the face cone(e1, e1 + e3) of
        # the second, which is not a face of the first (the octant).
        (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, -1, 0)], [[0, 1, 2], [0, 3, 4]]),
    ]:
        a, b = cones
        with pytest.raises(FaceIntersectionViolation, match=re.escape(f"cones {a} and {b} do not meet in a common face")):
            validate_fan(dim, rays, cones, require_complete=False)


def test_non_extremal_generator_rejected():
    with pytest.raises(FanValidationError):
        validate_fan(2, [(1, 0), (0, 1), (1, 1)], [[0, 1, 2]], require_complete=False)


P2_RAYS = [(1, 0), (0, 1), (-1, -1)]
P2_CONES = [[0, 1], [1, 2], [2, 0]]


@pytest.mark.parametrize(
    "dim, rays, cones, named",
    [
        (2, [(1.5, 0), *P2_RAYS[1:]], P2_CONES, "ray 0: 1.5"),
        (2.9, P2_RAYS, P2_CONES, "dimension: 2.9"),
        (2, P2_RAYS, [*P2_CONES[:2], [2, 0.7]], "maximal cone 2: 0.7"),
        (2, [P2_RAYS[0], (0, math.inf), P2_RAYS[2]], P2_CONES, "ray 1: inf"),
        (2, [*P2_RAYS[:2], (math.nan, -1)], P2_CONES, "ray 2: nan"),
    ],
    ids=["fractional-ray", "fractional-dim", "fractional-index", "inf-ray", "nan-ray"],
)
def test_validate_fan_rejects_non_integral_entries(dim, rays, cones, named):
    """The Python API, unlike parse_fan, takes any numbers: a non-finite
    or fractional entry is named, not truncated by int()."""
    with pytest.raises(FanValidationError, match=re.escape(named) + " is not a finite integer"):
        validate_fan(dim, rays, cones)


def test_validate_fan_accepts_integral_floats():
    fan = validate_fan(2.0, [(1.0, 0), *P2_RAYS[1:]], [[0, 1.0], *P2_CONES[1:]])
    assert fan.dim == 2 and fan.rays == tuple(P2_RAYS) and type(fan.rays[0][0]) is int


# Each input error of the fan module and of load_bundled that no other
# test reaches: the call, the exception class and its message.
FAN_INPUT_ERRORS = {
    "cone-unknown-rays": (lambda: get_fan("p2").cone({0, 5}), KeyError, "no cone with rays [0, 5] in this fan"),
    "faces-foreign-cone": (
        lambda: get_fan("p2").faces(get_fan("p1xp1").cone({2, 3})),
        KeyError,
        "cone does not belong to this fan",
    ),
    "negative-dim": (lambda: validate_fan(-1, [], [[]]), FanValidationError, "dimension must be nonnegative"),
    "ray-length": (
        lambda: validate_fan(2, [(1, 0), (0, 1, 0), (-1, -1)], P2_CONES),
        FanValidationError,
        "ray 1 has length 3, expected 2",
    ),
    "duplicate-rays": (
        lambda: validate_fan(2, [(1, 0), (1, 0), (0, 1)], [[0, 2], [1, 2]]),
        FanValidationError,
        "duplicate ray vectors",
    ),
    "cone-twice": (
        lambda: validate_fan(2, P2_RAYS, [[0, 1], [1, 0], *P2_CONES[1:]]),
        FanValidationError,
        "maximal cone [0, 1] listed twice",
    ),
    "ray-twice-in-cone": (
        lambda: validate_fan(2, P2_RAYS, [[0, 0, 1], *P2_CONES[1:]]),
        FanValidationError,
        "maximal cone 0 lists ray 0 twice",
    ),
    "cone-is-face": (
        lambda: validate_fan(2, P2_RAYS, [[0, 1], [0]]),
        FanValidationError,
        "listed cone [0] is a face of [0, 1]",
    ),
    "unused-ray": (
        lambda: validate_fan(2, P2_RAYS, [[0, 1]], require_complete=False),
        FanValidationError,
        "rays [2] appear in no maximal cone",
    ),
    "parse-int": (lambda: parse_fan(5), ParseError, "cannot parse fan from int"),
    "parse-not-object": (lambda: parse_fan("[1, 2]"), ParseError, "fan description must be an object"),
    "parse-rays-not-list": (
        lambda: parse_fan('{"dim": 2, "rays": 5, "max_cones": []}'),
        ParseError,
        "rays must be a list of lists",
    ),
    "unknown-bundled": (lambda: tb.load_bundled("p9"), KeyError, "unknown bundled fan 'p9'"),
}


@pytest.mark.parametrize("case", FAN_INPUT_ERRORS)
def test_fan_input_errors(case):
    call, error, message = FAN_INPUT_ERRORS[case]
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_parse_fan_accepts_a_decoded_dict():
    data = {"dim": 2, "rays": [list(r) for r in P2_RAYS], "max_cones": P2_CONES}
    assert parse_fan(data) is data


@pytest.mark.parametrize(
    "fan, certificate",
    [
        (lambda: unvalidated_fan(P2_RAYS, []), {"reason": "no maximal cones"}),
        (
            lambda: unvalidated_fan(P2_RAYS * 2, [*P2_CONES, *([i + 3 for i in c] for c in P2_CONES)]),
            {"reason": "maximal cones not facet-connected", "reached": 3},
        ),
    ],
    ids=["no-maximal-cone", "two-copies-of-p2"],
)
def test_is_complete_negative_controls(fan, certificate):
    """The two clauses of Fan.is_complete that validation makes
    unreachable, on Fans built without it: validate_fan needs a cone,
    and rejects the duplicate rays of two copies of P^2, whose facets
    each pair within their copy."""
    assert fan().is_complete() == (False, certificate)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_and_validate("not json {")
    with pytest.raises(ParseError):
        parse_and_validate('{"dim": 2, "rays": [[1, 0]]}')
    with pytest.raises(ParseError):
        parse_and_validate('{"dim": "2", "rays": [], "max_cones": []}')


@pytest.mark.parametrize(
    "text",
    [
        '{"dim": true, "rays": [[1], [-1]], "max_cones": [[0], [1]]}',
        '{"dim": 1, "rays": [[true], [-1]], "max_cones": [[0], [1]]}',
        '{"dim": 1, "rays": [[1], [-1]], "max_cones": [[false], [1]]}',
    ],
    ids=["dim", "rays", "max_cones"],
)
def test_parse_rejects_booleans(text):
    """JSON true and false decode to bool, a subclass of int, so each
    field would otherwise read them as 1 and 0: these are P^1 with one
    number spelt as a boolean."""
    with pytest.raises(ParseError):
        parse_and_validate(text)
    assert parse_and_validate(text.replace("true", "1").replace("false", "0")).dim == 1


def test_faces_of_two_cone(p2):
    c = p2.cone({0, 1})
    faces = p2.faces(c)
    assert len(faces) == 4  # zero, two rays, itself
    assert {f.dim for f in faces} == {0, 1, 1, 2}


def test_faces_of_ray(p2):
    faces = p2.faces(p2.cone({0}))
    assert len(faces) == 2


def test_faces_of_octant(cube_fan):
    # All 2^3 subsets of a simplicial 3-cone's rays are faces.
    c = cube_fan.cone({0, 1, 2})
    assert len(cube_fan.faces(c)) == 8


def test_face_lattice_closed_under_intersection(p2, p1xp1, p112):
    for fan in (p2, p1xp1, p112):
        cones = fan.cones()
        for a, b in itertools.combinations(cones, 2):
            shared = a.rays & b.rays
            assert fan.cone(shared) is not None


# Three walls of each fan, as (wall, the two rays off it): each wall lies
# in exactly the two maximal cones it spans with one of those rays, and
# the rays off it sum to the rays on it.
NONPROJECTIVE_WALLS = {
    "nonprojective": [((0, 5), (1, 4)), ((1, 6), (2, 5)), ((2, 4), (0, 6))],
    "twisted_p3": [((2, 4), (1, 5)), ((1, 6), (3, 4)), ((3, 5), (2, 6))],
}


@pytest.mark.parametrize("name", NONPROJECTIVE_WALLS)
def test_nonprojective_fans_have_no_convex_support_function(name):
    """The premises of the proof in conftest.nonprojective_fan, in
    integers, for that fan and for the bundled twisted_p3: across each
    of three walls {a, b}, the rays c and d off it satisfy
    r_c + r_d = r_a + r_b, and the wall lies in exactly the maximal
    cones {a, b, c} and {a, b, d}.  Every ray appears as often on a wall
    as off one, so the three strict inequalities that a strictly convex
    support function gives, h(c) + h(d) > h(a) + h(b), sum to 0 > 0.
    The fans are complete with 33 cones and 60 maximal flags, and the
    cover certificate passes; the golden input file of nonprojective_fan
    holds its rays and maximal cones."""
    fan = nonprojective_fan() if name == "nonprojective" else tb.load_bundled(name)
    walls = NONPROJECTIVE_WALLS[name]
    for wall, (c, d) in walls:
        on, off = [fan.rays[i] for i in wall], [fan.rays[c], fan.rays[d]]
        assert vsum(on, 3) == vsum(off, 3), wall
        tops = sorted(sorted(cone.rays) for cone in fan.maximal_cones() if cone.rays >= set(wall))
        assert tops == sorted([sorted({*wall, c}), sorted({*wall, d})]), wall
    assert sorted(i for wall, _ in walls for i in wall) == sorted(i for _, off in walls for i in off)
    assert fan.is_complete() == (True, None)
    assert len(fan.cones()) == 33
    assert fan.chain_count() == len(tb.enumerate_flags(fan)) == 60
    assert tb.cover_check(fan) == (True, None)
    if name == "nonprojective":
        golden = Path(__file__).parent / "data" / "golden" / "verify_nonprojective" / "fan.json"
        stored = parse_and_validate(golden.read_text())
        assert (stored.name, stored.rays, stored.max_cones) == (fan.name, fan.rays, fan.max_cones)


def _reference_fans():
    """Every bundled fan, P(1,1,1,9) and the cube-faces fan."""
    fans = [get_fan(name) for name in tb.BUNDLED_FANS]
    golden = Path(__file__).parent / "data" / "golden" / "verify_wps_1_1_1_9" / "fan.json"
    fans.append(parse_and_validate(golden.read_text()))
    fans.append(cube_faces_fan())
    return fans


def _face_lattice_fans():
    """The reference fans and every star fan of twisted_p3."""
    twisted = get_fan("twisted_p3")
    return _reference_fans() + [star_fan(twisted, c) for c in twisted.cones()]


def test_face_lattice_matches_each_cones_own_dual():
    # The faces of every cone are read off its maximal cone's dual rays;
    # the reference reruns the double description on the cone's own
    # generators and reads its faces off that.
    for fan in _face_lattice_fans():
        for cone in fan.cones():
            dlin, drays = dual_generators(cone.generators, fan.dim)
            assert (cone.dual_lineality, cone.dual_rays) == (dlin, drays)
            order = sorted(cone.rays)
            expected = {frozenset(order[i] for i in f) for f in face_index_sets(cone.generators, drays)}
            assert {f.rays for f in fan.faces(cone)} == expected, (fan.name, cone)


def _cone_key(cone):
    return cone.dim, sorted(cone.rays)


def _order_fans():
    """The bundled fans, cube-faces, both incomplete fans, the double
    winding that validate_fan rejects (built directly, its face table
    from unordered sets), every star fan of twisted_p3 and rank 0."""
    twisted = get_fan("twisted_p3")
    return [
        *(get_fan(name) for name in tb.BUNDLED_FANS),
        cube_faces_fan(),
        *incomplete_fans(),
        unvalidated_fan(P2_RAYS * 2, [[i, (i + 1) % 6] for i in range(6)]),
        *(star_fan(twisted, c) for c in twisted.cones()),
        validate_fan(0, [], [[]]),
    ]


def test_fan_fixes_one_order_of_cones_and_flags():
    """cones(), faces(sigma) and maximal_chains() list the fan's cones
    and maximal flags in one order, by (dimension, sorted ray indices)
    of each cone: each equals a reference sorted here, the chains grown
    up through `rays <` over the cones of each dimension."""
    for fan in _order_fans():
        cones = fan.cones()
        assert cones == sorted(cones, key=_cone_key), fan.name
        assert len({c.rays for c in cones}) == len(cones), fan.name
        for sigma in cones:
            faces = [tau for tau in cones if tau.rays <= sigma.rays]
            assert fan.faces(sigma) == sorted(faces, key=_cone_key), (fan.name, sigma)
        chains = [()]
        for d in range(1, fan.dim + 1):
            chains = [(*ch, c) for ch in chains for c in cones if c.dim == d and (not ch or ch[-1].rays < c.rays)]
        expected = sorted(chains, key=lambda chain: [_cone_key(c) for c in chain])
        assert fan.maximal_chains() == expected, fan.name


def test_is_complete_tests_the_star_of_a_cone(p2):
    """Fan.is_complete(sigma) is the facet-pairing test of sigma's star:
    on p2 a ray's star passes, and so do a 2-cone, its own star with no
    facet to pair, and the zero cone, whose star is the fan (the default,
    with the same certificate).  On p2 without the cone [2, 0], the star
    of ray 0 has one maximal cone, [0, 1], and names its unpaired facet,
    ray 0 itself; ray 1 lies in both remaining cones and passes."""
    for rays in ({0}, {0, 1}, ()):
        assert p2.is_complete(p2.cone(rays)) == (True, None)
    fan = incomplete_fans()[0]
    reason = "facet not shared by exactly two maximal cones"
    assert fan.is_complete(fan.cone({0})) == (False, {"reason": reason, "facet": [0], "count": 1})
    assert fan.is_complete(fan.cone({1})) == (True, None)
    assert fan.is_complete(fan.zero_cone()) == fan.is_complete() == (False, {"reason": reason, "facet": [0], "count": 1})


def test_is_complete_names_the_least_unpaired_facet():
    """Fan.is_complete walks the (n-1)-cones in the fan's order, so its
    certificate names the facet of least sorted ray indices among those
    not in exactly two maximal cones."""
    p3 = get_fan("p3")
    fans = [*incomplete_fans(), validate_fan(3, p3.rays, p3.max_cones[1:3], require_complete=False)]
    for fan in fans:
        n = fan.dim
        count = {c.rays: sum(c.rays < m for m in fan.max_cones) for c in fan.cones() if c.dim == n - 1}
        facet = min((rays for rays, k in count.items() if k != 2), key=sorted)
        reason = "facet not shared by exactly two maximal cones"
        assert fan.is_complete() == (False, {"reason": reason, "facet": sorted(facet), "count": count[facet]}), fan.name


@pytest.mark.parametrize("name", tb.BUNDLED_FANS)
def test_validate_fan_one_dual_description_per_cone(monkeypatch, name):
    # One per cone plus one per pair of maximal cones (their
    # intersection): 33 + 45 = 78 on twisted_p3.
    doc = json.loads(Path(tb.bundled_path(name)).read_text())
    calls = []
    monkeypatch.setattr("toricball.cones.dual_generators", lambda *args: calls.append(args) or dual_generators(*args))
    fan = validate_fan(doc["dim"], doc["rays"], doc["max_cones"])
    m = len(fan.max_cones)
    assert len(calls) == len(fan.cones()) + m * (m - 1) // 2
    if name == "twisted_p3":
        assert len(calls) == 78


def test_annotations_resolve():
    # Annotations are strings under `from __future__ import annotations`;
    # each name they use must be importable from its module.
    import importlib
    import inspect
    import typing

    for name in ("bary", "cellcomplex", "charts", "cli", "cones", "exact", "fan", "homeo", "verify"):
        module = importlib.import_module(f"toricball.{name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) == module.__name__ and inspect.isfunction(obj):
                typing.get_type_hints(obj)


def test_euler_like_sum(p1, p2, p1xp1, p3, cube_fan, p112, twisted_p3):
    for fan in (p1, p2, p1xp1, p3, cube_fan, p112, twisted_p3):
        total = sum((-1) ** (fan.dim - c.dim) for c in fan.cones())
        assert total == 1


def test_nonsimplicial_fan_over_cube_faces():
    # The normal fan of the octahedron: six square-based maximal cones.
    rays = [
        (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
        (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1),
    ]
    maxc = [
        [0, 1, 2, 3],  # x = 1 face
        [4, 5, 6, 7],  # x = -1
        [0, 1, 4, 5],  # y = 1
        [2, 3, 6, 7],  # y = -1
        [0, 2, 4, 6],  # z = 1
        [1, 3, 5, 7],  # z = -1
    ]
    fan = validate_fan(3, rays, maxc)
    assert fan.is_complete()[0]
    sq = fan.cone({0, 1, 2, 3})
    assert sq.dim == 3
    # A cone over a square has 1 + 4 + 4 + 1 faces.
    assert len(fan.faces(sq)) == 10
    # 1 + 8 rays + 12 edges + 6 maximal cones.
    assert len(fan.cones()) == 27


def test_star_fan_of_ray_in_p1xp1(p1xp1):
    star = star_fan(p1xp1, p1xp1.cone({0}))
    assert star.dim == 1
    assert star.is_complete()[0]
    assert sorted(star.rays) == [(-1,), (1,)]


def test_star_fan_zero_cone(p2):
    star = star_fan(p2, p2.zero_cone())
    assert star.dim == 2
    assert len(star.max_cones) == 3
    assert star.is_complete()[0]


def test_star_fan_of_p2_ray(p2):
    star = star_fan(p2, p2.cone({0}))
    assert star.dim == 1
    assert star.is_complete()[0]


def test_star_fan_maximal_cone(p2):
    star = star_fan(p2, p2.cone({0, 1}))
    assert star.dim == 0
    assert star.is_complete()[0]


def test_star_fan_of_a_full_cone_is_the_rank_zero_fan(p2):
    star, point = star_fan(p2, p2.cone({0, 1})), validate_fan(0, [], [[]])
    assert (star.dim, star.rays, star.max_cones) == (point.dim, point.rays, point.max_cones)
    assert [(c.rays, c.dim) for c in star.cones()] == [(c.rays, c.dim) for c in point.cones()]
    assert star.faces(star.zero_cone()) == point.faces(point.zero_cone())
    assert star.is_complete() == point.is_complete() == (True, None)
    assert star.name == "p2/star[0, 1]"


def test_star_fans_complete_everywhere(cube_fan, twisted_p3):
    for fan in (cube_fan, twisted_p3):
        for cone in fan.cones():
            assert star_fan(fan, cone).is_complete()[0]


def _double_description_star(fan, sigma):
    """The star fan built without the face lattice: the image of each
    maximal cone containing sigma, reduced to its extreme rays by two
    double descriptions (the dual, then the dual's dual)."""
    proj = quotient_projection(sigma.generators, fan.dim)
    m = proj.target_dim
    if m == 0:
        return validate_fan(0, (), [()], require_complete=False)
    pool, image_cones = [], []
    for c in fan.maximal_cones():
        if sigma.rays <= c.rays:
            images = [primitive(v) for v in map(proj.apply, c.generators) if not is_zero_vec(v)]
            _, extreme = dual_generators(generator_list(*dual_generators(images, m)), m)
            pool.extend(r for r in extreme if r not in pool)
            image_cones.append(frozenset(pool.index(r) for r in extreme))
    return validate_fan(m, pool, list(dict.fromkeys(image_cones)), require_complete=False)


def test_star_fan_matches_double_description_reference():
    # Rays, maximal cones (as sets of ray vectors) and completeness agree
    # for every cone; only the ray numbering may differ.
    def described(star):
        tops = {frozenset(star.rays[i] for i in c) for c in star.max_cones}
        return star.dim, sorted(star.rays), tops, star.is_complete()[0]

    for fan in _reference_fans():
        for cone in fan.cones():
            assert described(star_fan(fan, cone)) == described(_double_description_star(fan, cone)), (fan.name, cone)


def test_star_fan_runs_only_validation_dual_descriptions(monkeypatch):
    # The star's rays and cones come from the face lattice; the only
    # double descriptions are those of validating the result.
    fans = _reference_fans()
    calls = []
    monkeypatch.setattr("toricball.cones.dual_generators", lambda *args: calls.append(args) or dual_generators(*args))
    for fan in fans:
        for cone in fan.cones():
            calls.clear()
            star = star_fan(fan, cone)
            made = len(calls)
            calls.clear()
            validate_fan(star.dim, star.rays, star.max_cones, require_complete=False)
            assert made == len(calls), (fan.name, cone)


def test_low_dimensional_maximal_cones_allowed_but_incomplete():
    # A line's fan sitting in rank two: a valid fan whose support is a line.
    fan = validate_fan(2, [(1, 0), (-1, 0)], [[0], [1]], require_complete=False)
    assert len(fan.cones()) == 3
    ok, cert = fan.is_complete()
    assert not ok
    assert cert["reason"] == "maximal cone not full-dimensional"


def test_single_zero_cone_fan():
    fan = validate_fan(2, [], [[]], require_complete=False)
    assert len(fan.cones()) == 1
    assert not fan.is_complete()[0]
    # In rank 0 it is the fan of the point N_R = R^0, which is complete.
    fan = validate_fan(0, [], [[]])
    assert [(c.rays, c.dim) for c in fan.cones()] == [(frozenset(), 0)]
    assert fan.max_cones == (frozenset(),) and fan.faces(fan.zero_cone()) == [fan.zero_cone()]
    assert fan.is_complete() == (True, None)


@pytest.mark.parametrize(
    "rays, cones, error, message",
    [
        ([], [], FanValidationError, "fan needs at least one cone"),
        ([], [[0]], FanValidationError, "ray index 0 out of range"),
        ([], [[5], [2]], FanValidationError, "ray index 5 out of range"),
        ([[]], [[0]], NotPrimitiveRay, "ray 0 is zero"),
    ],
    ids=["no-cone", "index-0", "index-5", "zero-ray"],
)
def test_rank_zero_malformed_rejected(rays, cones, error, message):
    # Rank 0 is validated by the path of every other rank.
    with pytest.raises(error, match=re.escape(message)):
        validate_fan(0, rays, cones)


# The benchmark's six P(1,...,1,k) and P^4, as (rank, k).
DIM_WPS = {f"wps_{'1_' * (n - 1)}{k}": (n, k) for n, k in ((2, 2), (2, 7), (2, 20), (3, 3), (3, 9), (3, 27), (4, 1))}


def _dim_reference_fans(name):
    if name == "rank0":
        return [validate_fan(0, [], [[]])]
    if name == "cube_faces":
        return [cube_faces_fan()]
    if name == "p1^4":
        rays = [tuple(s * int(i == j) for i in range(4)) for j in range(4) for s in (1, -1)]
        return [validate_fan(4, rays, [[2 * i + s for i, s in enumerate(p)] for p in itertools.product((0, 1), repeat=4)])]
    if name == "p3_stars":
        p3 = get_fan("p3")
        return [star_fan(p3, cone) for cone in p3.cones()]
    if name in DIM_WPS:
        return [wps_fan(*DIM_WPS[name])]
    return [get_fan(name)]


@pytest.mark.parametrize("name", [*tb.BUNDLED_FANS, *DIM_WPS, "p1^4", "cube_faces", "rank0", "p3_stars"])
def test_cone_dim_is_rank_of_generators(name):
    fans = _dim_reference_fans(name)
    for fan in fans:
        for cone in fan.cones():
            assert cone.dim == rank(cone.generators), (fan.name, cone)


def test_star_fan_foreign_cone_rejected(p2, p1xp1):
    with pytest.raises(KeyError):
        star_fan(p2, p1xp1.cone({2, 3}))


def test_twisted_p3_is_smooth(twisted_p3):
    # |det| = 1 for every maximal cone: the fan is regular everywhere.
    from toricball.exact import invert

    for c in twisted_p3.maximal_cones():
        inv = invert(c.generators)
        from fractions import Fraction

        assert all(Fraction(x).denominator == 1 for row in inv for x in row)


def test_ridge_pairing():
    # Two triangles glued along the edge {1, 2}, and a third triangle
    # touching them only at a vertex.
    tris = [frozenset(t) for t in ({0, 1, 2}, {1, 2, 3}, {3, 4, 5})]
    bounds, reached = ridge_pairing((t, t - {v}) for t in tris for v in t)
    assert bounds[frozenset({1, 2})] == tris[:2]
    assert bounds[frozenset({0, 1})] == tris[:1]
    assert reached == 2
    assert ridge_pairing([]) == ({}, 0)
