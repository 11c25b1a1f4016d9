"""Ball model, orbit complex, gluing and regularity verification."""

import dataclasses
import json
import math
import random
from itertools import combinations, product
from pathlib import Path

import pytest

import toricball as tb
from conftest import (
    all_flags,
    bary_to_delta,
    cube_faces_fan,
    drop_first_term,
    incomplete_fans,
    p2_with_terms,
    stellar_fan,
    unvalidated_fan,
    wps_fan,
)
from toricball import bary, cellcomplex, charts, verify
from toricball.bary import locate_flag
from toricball.cellcomplex import (
    build_ball_model,
    build_orbit_complex,
    euler_characteristic,
    gluing_identities,
    pseudomanifold_check,
    verify_gluing,
    verify_regularity,
)
from toricball.charts import TWO_PI, invert_triangular, monomial_columns
from toricball.exact import pair
from toricball.fan import ridge_pairing, star_fan, validate_fan

WPS_1_1_1_9 = Path(__file__).parent / "data" / "golden" / "verify_wps_1_1_1_9" / "fan.json"


def test_ball_model_p1(p1):
    model = build_ball_model(p1)
    assert len(model.simplices[model.n]) == 2
    assert euler_characteristic(model.simplices) == 1
    boundary = model.boundary_simplices()
    assert euler_characteristic(boundary) == 2  # two points
    assert len(boundary.get(0, ())) == 2


def test_ball_model_p2(p2):
    model = build_ball_model(p2)
    # 7 vertices (origin + 6 cones), 12 edges, 6 triangles.
    assert {d: len(s) for d, s in model.simplices.items()} == {0: 7, 1: 12, 2: 6}
    assert euler_characteristic(model.simplices) == 1
    boundary = model.boundary_simplices()
    # Boundary hexagon: 6 vertices, 6 edges.
    assert len(boundary[0]) == 6 and len(boundary[1]) == 6
    assert euler_characteristic(boundary) == 0
    assert pseudomanifold_check(model).passed


def test_ball_model_cube_fan(cube_fan):
    model = build_ball_model(cube_fan)
    assert len(model.simplices[model.n]) == 48
    assert euler_characteristic(model.simplices) == 1
    assert euler_characteristic(model.boundary_simplices()) == 2
    assert pseudomanifold_check(model).passed


def test_ball_model_matches_flag_count(p3, twisted_p3):
    for fan in (p3, twisted_p3):
        model = build_ball_model(fan)
        flags = tb.enumerate_flags(fan)
        assert len(model.simplices[model.n]) == len(flags)
        boundary = model.boundary_simplices()
        assert len(boundary[fan.dim - 1]) == len(flags)


def test_flag_simplex_order_isomorphism(p2, p3):
    # The model is exactly the order complex of the nonzero-cone poset,
    # coned at the origin vertex: boundary simplices = chains, interior
    # simplices = chains plus the origin, bijectively with flags.
    for fan in (p2, p3):
        model = build_ball_model(fan)
        flags = all_flags(fan)
        interior = {s for ss in model.simplices.values() for s in ss if 0 in s}
        boundary = {s for ss in model.simplices.values() for s in ss if 0 not in s}
        assert len(flags) == len(interior)
        cones_by_vid = {i + 1: c for i, c in enumerate(c for c in fan.cones() if c.dim > 0)}
        chains = set()
        for flag in flags:
            ids = frozenset(
                vid for vid, c in cones_by_vid.items() if c.rays in {d.rays for d in flag.cones}
            )
            if ids:
                chains.add(ids)
            assert ids | {0} in interior
        assert boundary == chains
        # Every boundary simplex really is a chain: pairwise comparable.
        for s in boundary:
            members = [cones_by_vid[v] for v in s]
            for a in members:
                for b in members:
                    assert a.rays <= b.rays or b.rays <= a.rays


def test_pseudomanifold_fails_on_incomplete():
    fan = validate_fan(2, [(1, 0), (0, 1)], [[0, 1]], require_complete=False)
    model = build_ball_model(fan)
    report = pseudomanifold_check(model)
    assert not report.passed
    assert report.issues  # names the unpaired faces


def test_pseudomanifold_fails_on_two_disjoint_spheres():
    """The ball model of two copies of P^2 (a Fan that validate_fan
    rejects for its duplicate rays): every interior ridge lies in two
    tops, so the connectivity clause alone fails it."""
    rays, cones = [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [2, 0]]
    fan = unvalidated_fan(rays * 2, [*cones, *([i + 3 for i in c] for c in cones)])
    report = pseudomanifold_check(build_ball_model(fan))
    assert report.issues == ("dual adjacency graph of top simplices is disconnected",)
    assert not report.passed


def _pseudomanifold_issues_reference(model):
    """pseudomanifold_check's ridge issues as they were: every
    (m-1)-simplex sorted, then the interior ones whose top count is not
    2 kept."""
    n = model.n
    bounds, _ = ridge_pairing((s, s - {v}) for s in model.simplices.get(n, ()) for v in s)
    return [
        f"face {sorted(ridge)} lies in {count} top simplices, expected 2"
        for ridge in sorted(model.simplices.get(n - 1, ()), key=sorted)
        if 0 in ridge and (count := len(bounds.get(ridge, ()))) != 2
    ]


def test_pseudomanifold_issues_match_the_sort_then_filter_reference():
    """Filtering before the sort keeps the issue list: on every cell
    link of the non-sphere controls (the incomplete fans of rank 2 and 3,
    p2's first maximal cone alone, and two disjoint copies of P^2) the
    ridge issues equal the reference's, in order."""
    rays, cones = [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [2, 0]]
    fans = [
        *incomplete_fans(),
        validate_fan(2, [(1, 0), (0, 1)], [[0, 1]], require_complete=False),
        unvalidated_fan(rays * 2, [*cones, *([i + 3 for i in c] for c in cones)]),
    ]
    failing = 0
    for fan in fans:
        for sigma in fan.cones():
            model = build_ball_model(fan, sigma)
            expected = _pseudomanifold_issues_reference(model)
            issues = list(pseudomanifold_check(model).issues)
            assert issues[: len(expected)] == expected, (fan.name, sorted(sigma.rays))
            assert issues[len(expected) :] in ([], ["dual adjacency graph of top simplices is disconnected"])
            failing += bool(expected)
    assert failing >= 5


def test_orbit_complex_p2(p2):
    orbit = build_orbit_complex(p2)
    # 3 zero-cells (max cones), 3 one-cells (rays), 1 two-cell.
    dims = sorted(d for _, d in orbit.cells)
    assert dims == [0, 0, 0, 1, 1, 1, 2]
    assert orbit.euler_characteristic() == 1
    assert [c for c, d in orbit.cells if d == p2.dim] == [()]


def test_orbit_complex_incidence(p2):
    orbit = build_orbit_complex(p2)
    # Incidence reverses cone inclusion: the closure of the ray cell
    # contains the fixed points of the two maximal cones through the ray,
    # and a cell lies in the closure of a cell of a face of its cone only
    # when its dimension is lower.
    dims = dict(orbit.cells)
    assert [c for c in dims if {0} < set(c)] == [(0, 1), (0, 2)]
    assert all(dims[inner] < dims[outer] for inner in dims for outer in dims if set(outer) < set(inner))


def test_orbit_euler_all(p1, p2, p1xp1, p3, cube_fan, p112, twisted_p3):
    for fan in (p1, p2, p1xp1, p3, cube_fan, p112, twisted_p3):
        orbit = build_orbit_complex(fan)
        assert orbit.euler_characteristic() == 1
        assert sum(d == fan.dim for _, d in orbit.cells) == 1


def test_verify_gluing_p2(atlas_p2):
    report = verify_gluing(atlas_p2)
    assert report.passed
    assert report.worst_shared_gap <= 1e-9
    # Rows: |H(sigma)| = 2 per maximal flag.  Rules, once per maximal cone
    # sigma: one cutting functional plus |H(tau)| rows per proper face
    # tau, with |H| = 3 on each of its two rays and 4 on the zero cone:
    # (1 + 3) + (1 + 3) + (1 + 4) = 13.
    assert report.identities == 6 * 2 + 3 * 13
    assert report.shared_samples == 6 * 1 * 25  # (flag, nonempty proper prefix subflag) x samples


def test_verify_gluing_defaults_draw_25_samples_per_prefix(atlas_p2):
    """Called with its defaults, verify_gluing samples 25 points of each
    (maximal flag, nonempty proper prefix) of P^2: 6 flags, 1 prefix
    each, the flag's ray."""
    report = verify_gluing(atlas_p2)
    assert report.passed and report.shared_samples == 6 * 1 * 25


@pytest.mark.parametrize("name", ["p2", "p3"])
def test_subflag_cross_check_samples_each_prefix_top(monkeypatch, name):
    """The shared half localizes one batch of count samples of each
    maximal flag's chart to each of its n - 1 nonempty proper prefix
    tops (each cone of the flag but the last, in order; never the zero
    cone), through charts.shifted_columns and nothing else."""
    atlas = tb.Atlas(tb.load_bundled(name))
    flags = tb.enumerate_flags(atlas.fan)
    calls = []
    shifted_columns = cellcomplex.shifted_columns

    def spy(rule, columns, count):
        calls.append((*_rule_key(atlas, rule), count, {len(c) for c in columns.values()}))
        return shifted_columns(rule, columns, count)

    monkeypatch.setattr(cellcomplex, "shifted_columns", spy)
    monkeypatch.setattr(atlas, "localize", lambda p, tau: pytest.fail("a sample localized point by point"))
    report = verify_gluing(atlas)
    assert report.passed
    count, n = 25, atlas.fan.dim
    assert calls == [(flag.cones[-1].rays, tau.rays, count, {count}) for flag in flags for tau in flag.cones[:-1]]
    assert report.shared_samples == len(flags) * (n - 1) * count


def _rule_key(atlas, rule):
    """The (sigma rays, tau rays) under which atlas cached a
    localization rule: shifted_columns gets the rule alone."""
    return next(key for key, cached in atlas._local_rules.items() if cached is rule)


def _gluing_fan(name):
    if name == "wps_1_1_1_9":
        return tb.parse_and_validate(WPS_1_1_1_9.read_text())
    if name == "wps_1_1_400":
        return wps_fan(2, 400)
    if name == "steep_119":
        return validate_fan(2, [(1, 0), (-1, 119), (-1, 0), (0, -1)], [[0, 1], [1, 2], [2, 3], [3, 0]])
    return tb.load_bundled(name)


@pytest.mark.parametrize("name", [*tb.BUNDLED_FANS, "wps_1_1_1_9"])
def test_subflag_read_rows_localize_as_the_chart_point(monkeypatch, name):
    """Each batch of the shared half carries only the Hilbert rows that
    the rule sigma -> tau reads, and localizes each of its samples to
    the floats of Atlas.localize(Atlas.chart_point(chart, w), tau), bit
    for bit: the samples are replayed from verify_gluing's seed in its
    loop order."""
    atlas = tb.Atlas(_gluing_fan(name))
    flags = tb.enumerate_flags(atlas.fan)
    seen = []
    shifted_columns = cellcomplex.shifted_columns

    def spy(rule, columns, count):
        off, rows = shifted_columns(rule, columns, count)
        tau = atlas.fan.cone(_rule_key(atlas, rule)[1])
        seen.extend((set(columns), tau, o, [row[s] for row in rows]) for s, o in enumerate(off))
        return off, rows

    monkeypatch.setattr(cellcomplex, "shifted_columns", spy)
    assert verify_gluing(atlas, rng=random.Random(3)).passed
    rng, count = random.Random(3), 25
    expected = []
    for flag in flags:
        chart, n = atlas.chart(flag), len(flag)
        for k in range(1, n):
            tau = flag.cones[k - 1]
            _, alpha_terms, rows, _ = atlas._localization_rule(chart.top_cone, tau)
            read = {i for i, _ in alpha_terms} | {i for _, terms in rows for i, _ in terms}
            for xi in cellcomplex._simplex_samples(rng, k, count):
                w = bary_to_delta(xi + (0.0,) * (n - k))
                expected.append((read, tau, atlas.localize(atlas.chart_point(chart, w), tau).values))
    assert len(seen) == len(expected) == len(flags) * (atlas.fan.dim - 1) * count
    for (read, tau, off, local), (want_read, want_tau, want) in zip(seen, expected):
        assert read == want_read and tau == want_tau and not off
        assert list(map(float.hex, local)) == list(map(float.hex, want))


@pytest.mark.parametrize("name", [*tb.BUNDLED_FANS, "wps_1_1_1_9"])
def test_full_prefix_telescoped_terms_are_the_hilbert_terms(name):
    """The certificate for the unsampled prefix k = n: on every maximal
    flag, the telescoped terms of H(sigma) over the whole flag are
    chart.hilbert_terms, so both sides of the shared half would multiply
    the same terms at the same point."""
    atlas = tb.Atlas(_gluing_fan(name))
    for chart in atlas.charts():
        generators = atlas.hilbert(chart.top_cone).generators
        assert tuple(cellcomplex._telescoped_terms(generators, chart.flag.steps)) == chart.hilbert_terms


def _per_point_cross_check(atlas, flags, rng, count):
    """The point-by-point loop that cellcomplex._subflag_cross_check
    batches, kept as its reference: each sample becomes a ToricPoint
    carrying the read Hilbert rows, is localized by Atlas.localize and
    compared with the telescoped monomials of its own subflag.  Returns
    (counterexamples, samples drawn, worst passing gap)."""
    out, drawn, worst = [], 0, 0.0
    for fi, flag in enumerate(flags):
        chart = atlas.chart(flag)
        if len(chart.hilbert_rows) != len(atlas.hilbert(chart.top_cone).generators):
            continue
        n = len(flag)
        for k in range(1, n):
            members = flag.cones[:k]
            tau = members[-1]
            _, alpha_terms, rows, _ = atlas._localization_rule(chart.top_cone, tau)
            read = sorted({i for i, _ in alpha_terms}.union(i for _, terms in rows for i, _ in terms))
            read_terms = [chart.hilbert_terms[i] for i in read]
            terms = cellcomplex._telescoped_terms(atlas.hilbert(tau).generators, flag.steps[:k])
            for sub_xi in cellcomplex._simplex_samples(rng, k, count):
                w = bary_to_delta(sub_xi + (0.0,) * (n - k))
                point = tb.ToricPoint(chart.top_cone, dict(zip(read, charts._monomials(read_terms, w))))
                telescoped = charts._monomials(terms, bary_to_delta(sub_xi))  # at W_0..W_{k-1}
                drawn += 1
                try:
                    gap = charts.sup_gap(charts.scaled_gaps(atlas.localize(point, tau).values, telescoped))
                except charts.NotInOpenSet:
                    gap = math.nan
                if not gap <= charts.EQUAL_TOL:
                    out.append(
                        {
                            "kind": "shared",
                            "flag": fi,
                            "subflag": [sorted(c.rays) for c in members],
                            "xi": list(sub_xi),
                            "gap": None if math.isnan(gap) else gap,
                        }
                    )
                else:
                    worst = max(worst, gap)
    return out, drawn, worst


def test_simplex_samples_normalize_by_a_left_to_right_sum():
    """A sample is its draws over their left-to-right sum, the float
    sum() of Python 3.10/3.11, not a compensated one: on these draws
    0.5 + 2^-54 + 2^-54 is 0.5 left to right and 0.5 + 2^-53 exactly."""
    draws = [0.5, 2.0**-54, 2.0**-54]

    class Stub:
        def __init__(self):
            self.draws = iter(draws)

        def random(self):
            return next(self.draws)

    assert math.fsum(draws) != (draws[0] + draws[1]) + draws[2] == 0.5
    vertices = [(0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    assert cellcomplex._simplex_samples(Stub(), 2, 3) == [*vertices, (1.0, 2.0**-53, 2.0**-53)]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_simplex_samples_skip_the_origin(dim):
    """The samples of a dim-simplex are its vertices e_1..e_dim, then
    random points, never e_0 (the origin of the prefix's simplex).  From
    dim 2 on, every third random point lies on xi_0 = 0; at dim 1 no
    point is forced there, where it would be e_1 again, so all 25 points
    are distinct (the sampler that listed e_0 and forced every third
    point gave 17 distinct points at dim 1 from random.Random(0))."""
    samples = cellcomplex._simplex_samples(random.Random(0), dim, 25)
    origin = (1.0,) + (0.0,) * dim
    vertices = [tuple(float(j == i) for j in range(dim + 1)) for i in range(1, dim + 1)]
    assert len(samples) == len(set(samples)) == 25 and origin not in samples
    assert samples[:dim] == vertices
    forced = [p for p, xi in enumerate(samples[dim:]) if xi[0] == 0.0]
    assert forced == (list(range(2, 25 - dim, 3)) if dim >= 2 else [])


@pytest.mark.parametrize("dim, count", [(1, 25), (2, 25), (3, 25), (4, 25), (3, 2), (3, 3)])
def test_simplex_samples_draw_one_list_per_batch(dim, count):
    """One batch draws dim + 1 numbers per random point, count - dim
    points, and nothing for the vertices e_1..e_dim, of which it keeps
    the first count; the points take the numbers in generator order, the
    forced xi_0 = 0 included (its number is drawn and dropped)."""

    class Counting:
        calls = 0

        def random(self):
            self.calls += 1
            return float(self.calls)

    rng = Counting()
    samples = cellcomplex._simplex_samples(rng, dim, count)
    width, points = dim + 1, max(count - dim, 0)
    assert rng.calls == points * width and len(samples) == count
    assert samples[:dim] == [tuple(float(j == i) for j in range(width)) for i in range(1, width)][:count]
    for p, xi in enumerate(samples[dim:]):
        raw = [float(p * width + j + 1) for j in range(width)]
        if dim >= 2 and p % 3 == 2:
            raw[0] = 0.0
        assert xi == tuple(x / sum(raw) for x in raw)


def _tamper(atlas):
    """verify --tamper's edit: the last exponent of the first chart's b
    plus one."""
    chart = atlas.charts()[0]
    b = [list(row) for row in chart.b]
    b[-1][-1] += 1
    atlas._charts[chart.flag] = dataclasses.replace(chart, b=tuple(map(tuple, b)))


@pytest.mark.parametrize("tampered", [False, True], ids=["intact", "tamper"])
@pytest.mark.parametrize("name", tb.BUNDLED_FANS)
def test_shared_half_cannot_fail_at_the_origin(monkeypatch, name, tampered):
    """The certificate for the unsampled origin: at w = (1, ..., 1), on
    every maximal flag and every proper prefix, the empty one included,
    the shared half's kernels give every read Hilbert value, v_alpha,
    localized row and telescoped row exactly 1.0, no point off tau's
    chart and every gap 0.0; also with --tamper's edit of b.  So
    verify_gluing draws no sample there (xi_0 = 1)."""
    atlas = tb.Atlas(tb.load_bundled(name))
    if tampered:
        _tamper(atlas)
    batches = []
    simplex_samples = cellcomplex._simplex_samples
    monkeypatch.setattr(
        cellcomplex, "_simplex_samples", lambda *args: batches.append(simplex_samples(*args)) or batches[-1]
    )
    verify_gluing(atlas)
    assert len(batches) == len(atlas.charts()) * (atlas.fan.dim - 1)
    assert all(xi[0] < 1.0 for batch in batches for xi in batch)
    zero = atlas.fan.zero_cone()
    for chart in atlas.charts():
        flag, n = chart.flag, chart.n
        ones = [[1.0]] * n
        for k in range(n):
            tau = flag.cones[k - 1] if k else zero
            rule = atlas._localization_rule(chart.top_cone, tau)
            _, alpha_terms, rows, _ = rule
            read = sorted({i for i, _ in alpha_terms} | {i for _, terms in rows for i, _ in terms})
            values = monomial_columns([chart.hilbert_terms[i] for i in read], ones, 1)
            (v_alpha,) = monomial_columns([alpha_terms], dict(zip(read, values)), 1)
            off, local = charts.shifted_columns(rule, dict(zip(read, values)), 1)
            generators = atlas.hilbert(tau).generators
            tele = monomial_columns(cellcomplex._telescoped_terms(generators, flag.steps[:k]), ones[: k + 1], 1)
            assert off == [False] and len(local) == len(tele) == len(generators)
            assert {x for row in (*values, v_alpha, *local, *tele) for x in row} <= {1.0}
            assert [g for a, b in zip(local, tele) for g in charts.scaled_gaps(a, b)] == [0.0] * len(generators)


def _batch_and_per_point(atlas, seed):
    """The batch cross-check and its per-point reference at one seed,
    SHARED_SAMPLES per prefix as in verify_gluing: each as
    (counterexamples with xi and gap written by float.hex, worst passing
    gap by float.hex, samples drawn)."""
    flags = tb.enumerate_flags(atlas.fan)
    out = []
    for check in (cellcomplex._subflag_cross_check, _per_point_cross_check):
        found, drawn, worst = check(atlas, flags, random.Random(seed), cellcomplex.SHARED_SAMPLES)
        hexed = [
            {**c, "xi": list(map(float.hex, c["xi"])), "gap": None if c["gap"] is None else c["gap"].hex()}
            for c in found
        ]
        out.append((hexed, worst.hex(), drawn))
    return out


@pytest.mark.parametrize("name", [*tb.BUNDLED_FANS, "wps_1_1_1_9", "wps_1_1_400", "steep_119"])
def test_subflag_cross_check_matches_the_per_point_reference(name):
    """The batch cross-check gives the per-point loop's counterexamples
    in order, its worst_shared_gap bit for bit and its sample count, at
    seeds 0 and 3."""
    atlas = tb.Atlas(_gluing_fan(name))
    for seed in (0, 3):
        batch, reference = _batch_and_per_point(atlas, seed)
        assert batch == reference, seed
        assert batch[2] == len(tb.enumerate_flags(atlas.fan)) * (atlas.fan.dim - 1) * 25


def _with_w1_in_alpha(atlas, exponent):
    """P(1,1,2)'s flag-3 chart with w1^exponent put in front of one
    Hilbert row's terms, a row that the rule to the flag's first ray
    reads for alpha (so it has no w1 term); that rule's largest shift
    is 2.  The chart's b and Chart.terms stay as built."""
    chart = atlas.charts()[3]
    _, alpha_terms, _, top = atlas._localization_rule(chart.top_cone, chart.flag.cones[0])
    i = alpha_terms[0][0]
    rows = list(chart.hilbert_terms)
    assert top == 2 and rows[i][0][0] != 0
    rows[i] = ((0, exponent), *rows[i])
    chart.__dict__["hilbert_terms"] = tuple(rows)


@pytest.mark.parametrize("exponent", [1, math.nan, 1000], ids=["extra_w1", "nan_value", "off_chart"])
def test_subflag_cross_check_matches_the_per_point_reference_on_failures(monkeypatch, exponent):
    """Three injected failures of the shared half, each seen alike by
    the batch and by the per-point loop: alpha's value times w1 (real
    gaps above tol), times w1^NaN (gap None) and times w1^1000, which is
    0.0 or, for w1 in about (0.47, 0.69), squares to 0.0 (points off
    tau's chart, gap None)."""
    atlas = tb.Atlas(wps_fan(2, 2))
    _with_w1_in_alpha(atlas, exponent)
    offs = []
    shifted_columns = cellcomplex.shifted_columns

    def spy(rule, columns, count):
        off, rows = shifted_columns(rule, columns, count)
        offs.extend(off)
        return off, rows

    monkeypatch.setattr(cellcomplex, "shifted_columns", spy)
    batch, reference = _batch_and_per_point(atlas, 0)
    assert batch == reference
    gaps = [c["gap"] for c in batch[0]]
    if exponent == 1:
        assert any(g is not None and float.fromhex(g) > 1e-9 for g in gaps)
    else:
        assert None in gaps and any(offs) == (exponent == 1000)


def _nan_in_second_value(monkeypatch):
    """charts.shifted_columns, where the shared half reads it, with its
    second row replaced by NaN at every point, where max alone would
    drop it."""
    shifted_columns = cellcomplex.shifted_columns

    def patched(rule, columns, count):
        off, rows = shifted_columns(rule, columns, count)
        rows[1] = [math.nan] * count
        return off, rows

    monkeypatch.setattr(cellcomplex, "shifted_columns", patched)


def test_subflag_cross_check_fails_on_nan_gap(monkeypatch):
    """A NaN localized value fails the shared half, and its counterexample
    writes the gap as None."""
    atlas = tb.Atlas(tb.load_bundled("p2"))
    _nan_in_second_value(monkeypatch)
    report = verify_gluing(atlas)
    shared = [c for c in report.counterexamples if c["kind"] == "shared"]
    assert not report.passed and shared and all(c["gap"] is None for c in shared)
    assert report.worst_shared_gap == 0.0


@pytest.mark.parametrize("nan", [False, True], ids=["intact", "nan_gaps"])
@pytest.mark.parametrize("name", ["p2", "p112", "p3"])
def test_intersection_gluing_draws_from_its_own_generator(monkeypatch, name, nan):
    """intersection_gluing's report entry is verify_gluing's report on
    the check's own generator, random.Random(f"{seed}:intersection_gluing"),
    the seeding of every check, at seeds 0 and 3.  With every gap NaN
    each sample is a counterexample, so the entry names the drawn
    points."""
    if nan:
        _nan_in_second_value(monkeypatch)
    fan = tb.load_bundled(name)
    for seed in (0, 3):
        checks = verify.run_verification(fan, seed=seed)["checks"]
        (entry,) = [c for c in checks if c["name"] == "intersection_gluing"]
        glue = verify_gluing(tb.Atlas(fan), rng=random.Random(f"{seed}:intersection_gluing"))
        assert entry["passed"] == glue.passed != nan
        found = (entry["identities"], entry["worst_shared_gap"], entry["counterexamples"])
        assert found == (glue.identities, glue.worst_shared_gap, glue.counterexamples[:5])
        assert len(glue.counterexamples) == (glue.shared_samples if nan else 0)


def _compose_rows(terms, rows, n):
    """Exponent vector of a decomposition's terms under the exponent rows."""
    out = [0] * n
    for i, c in terms:
        for j in range(n):
            out[j] += c * rows[i][j]
    return out


def _per_flag_identities(atlas, flags):
    """The per-flag certificate that gluing_identities replaced, kept as
    its reference: for every maximal flag F with top cone sigma, every
    face tau of sigma (sigma itself included, where the rule is the
    identity) and every h' in H(tau), the rule sigma -> tau composed
    with F's Hilbert rows of b, in exponent space, must give h''s
    localized row (<h', B_j - B_(j-1)>)_j; for tau != sigma the rule's
    alpha must vanish on tau and be positive on sigma's other rays.
    Each rule is checked once per flag ending in sigma.  Returns
    (count, failures), with the failures named by flag and face."""
    count = 0
    failures = []
    for fi, flag in enumerate(flags):
        chart = atlas.chart(flag)
        sigma, n = chart.top_cone, chart.n
        gens = atlas.hilbert(sigma).generators
        rows = [chart.b[r] for r in chart.hilbert_rows]
        steps = flag.steps
        for tau in atlas.fan.faces(sigma):
            rule = atlas._localization_rule(sigma, tau)
            if rule[0] == "identity":
                found = [(h, list(row)) for h, row in zip(gens, rows)]
            else:
                _, alpha_terms, shifts, _ = rule
                alpha = _compose_rows(alpha_terms, gens, len(gens[0]))
                count += 1
                others = [r for i, r in zip(sorted(sigma.rays), sigma.generators) if i not in tau.rays]
                if any(pair(alpha, r) != 0 for r in tau.generators) or any(pair(alpha, r) <= 0 for r in others):
                    failures.append({"flag": fi, "face": sorted(tau.rays), "cutting_functional": alpha})
                cut = _compose_rows(alpha_terms, rows, n)
                found = [
                    (h, [e - k * a for e, a in zip(_compose_rows(terms, rows, n), cut)])
                    for h, (k, terms) in zip(atlas.hilbert(tau).generators, shifts)
                ]
            for h, exponents in found:
                count += 1
                expected = [pair(h, d) for d in steps]
                if exponents != expected:
                    failures.append(
                        {"flag": fi, "face": sorted(tau.rays), "generator": list(h), "found": exponents, "expected": expected}
                    )
    return count, failures


def _identity_fans():
    """The bundled fans, the six benchmark P(1,...,1,k) and P^4."""
    wps = [(f"wps_1_1_{k}", 2, k) for k in (2, 7, 20)] + [(f"wps_1_1_1_{k}", 3, k) for k in (3, 9, 27)]
    return [*tb.BUNDLED_FANS, *wps, ("p4", 4, 1)]


@pytest.mark.parametrize("spec", _identity_fans(), ids=lambda spec: spec if isinstance(spec, str) else spec[0])
def test_gluing_identities_pass_with_the_per_flag_reference(spec):
    """gluing_identities and its per-flag reference both pass, and
    gluing_identities counts the Hilbert rows of every maximal flag plus,
    once per maximal cone sigma, one cutting functional and |H(tau)|
    rule rows per proper face tau."""
    fan = tb.load_bundled(spec) if isinstance(spec, str) else wps_fan(*spec[1:])
    atlas = tb.Atlas(fan)
    flags = tb.enumerate_flags(fan)
    count, failures = gluing_identities(atlas, flags)
    assert failures == [] and _per_flag_identities(atlas, flags)[1] == []
    size = {cone.rays: len(atlas.hilbert(cone).generators) for cone in fan.cones()}
    tops = dict.fromkeys(flag.cones[-1] for flag in flags)
    rules = sum(1 + size[tau.rays] for sigma in tops for tau in fan.faces(sigma) if tau != sigma)
    assert count == sum(size[flag.cones[-1].rays] for flag in flags) + rules


def test_gluing_identities_read_each_rule_once(monkeypatch, twisted_p3):
    """Each localization rule sigma -> tau is read once per call, for
    every proper face tau of every maximal cone sigma."""
    atlas = tb.Atlas(twisted_p3)
    flags = tb.enumerate_flags(twisted_p3)
    calls = []
    rule = atlas._localization_rule
    monkeypatch.setattr(atlas, "_localization_rule", lambda s, t: calls.append((s.rays, t.rays)) or rule(s, t))
    gluing_identities(atlas, flags)
    tops = dict.fromkeys(flag.cones[-1] for flag in flags)
    assert calls == [(s.rays, t.rays) for s in tops for t in twisted_p3.faces(s) if t != s]


def _perturbed_gluing(edit, name="p2"):
    """gluing_identities, its per-flag reference and verify_gluing on a
    fresh atlas after edit(atlas, flag) has changed the exact data of
    flag 0."""
    atlas = tb.Atlas(tb.load_bundled(name))
    flags = tb.enumerate_flags(atlas.fan)
    edit(atlas, flags[0])
    return (
        flags,
        gluing_identities(atlas, flags),
        _per_flag_identities(atlas, flags),
        verify_gluing(atlas),
    )


def test_gluing_identity_fails_on_perturbed_rule():
    state = {}

    def edit(atlas, flag):
        sigma, tau = flag.cones[-1], flag.cones[0]
        kind, alpha_terms, rows, top = atlas._localization_rule(sigma, tau)
        (k, ((i, c), *rest)), *others = rows
        atlas._local_rules[(sigma.rays, tau.rays)] = (kind, alpha_terms, ((k, ((i, c + 1), *rest)), *others), top)
        state.update(face=sorted(tau.rays), generator=list(atlas.hilbert(tau).generators[0]), sigma=sigma)

    flags, (count, failures), (_, reference), report = _perturbed_gluing(edit)
    assert count == 6 * 2 + 3 * 13
    # The rule is checked once, named by its cone and face.
    cone = sorted(state["sigma"].rays)
    assert [(w["cone"], w["face"], w["generator"]) for w in failures] == [(cone, state["face"], state["generator"])]
    assert all(w["found"] != w["expected"] for w in failures)
    # The reference reads it once per flag ending in sigma, and only there.
    ending = [i for i, f in enumerate(flags) if f.cones[-1] == state["sigma"]]
    assert [(w["flag"], w["face"], w["generator"]) for w in reference] == [
        (i, state["face"], state["generator"]) for i in ending
    ]
    assert not report.passed
    kinds = [c["kind"] for c in report.counterexamples]
    assert kinds[:1] == ["identity"] and kinds.count("identity") == 1
    assert "shared" in kinds  # the float cross-check sees the rule too


def test_gluing_identity_fails_on_perturbed_cutting_functional():
    state = {}

    def edit(atlas, flag):
        # Cut the first ray of flag 0 with a functional positive on it.
        sigma, tau = flag.cones[-1], flag.cones[0]
        kind, alpha_terms, rows, top = atlas._localization_rule(sigma, tau)
        gens = atlas.hilbert(sigma).generators
        i = next(i for i, g in enumerate(gens) if all(pair(g, r) > 0 for r in tau.generators))
        atlas._local_rules[(sigma.rays, tau.rays)] = (kind, ((i, 1),), rows, top)
        state.update(cone=sorted(sigma.rays), face=sorted(tau.rays), alpha=list(gens[i]))

    _, (_, failures), (_, reference), report = _perturbed_gluing(edit)
    cuts = [w for w in failures if "cutting_functional" in w]
    assert [(w["cone"], w["face"], w["cutting_functional"]) for w in cuts] == [
        (state["cone"], state["face"], state["alpha"])
    ]
    old_cuts = [w for w in reference if "cutting_functional" in w]
    assert old_cuts and all(w["face"] == state["face"] and w["cutting_functional"] == state["alpha"] for w in old_cuts)
    assert 0 in [w["flag"] for w in old_cuts] and not report.passed


def test_gluing_identity_fails_on_zero_cutting_functional():
    """A rule whose cutting functional is 0 (no alpha terms): it
    vanishes on tau's rays, as it should, but also on sigma's rays off
    tau, which the certificate names by the cutting_functional witness."""
    state = {}

    def edit(atlas, flag):
        sigma, tau = flag.cones[-1], flag.cones[0]
        kind, _, rows, top = atlas._localization_rule(sigma, tau)
        atlas._local_rules[(sigma.rays, tau.rays)] = (kind, (), rows, top)
        state.update(cone=sorted(sigma.rays), face=sorted(tau.rays))

    _, (_, failures), _, report = _perturbed_gluing(edit)
    cuts = [w for w in failures if "cutting_functional" in w]
    assert cuts == [{"cone": state["cone"], "face": state["face"], "cutting_functional": [0, 0]}]
    assert not report.passed


def test_gluing_identity_fails_on_truncated_rule():
    """A localization rule missing a row fails the certificate, with the
    count of rows it has and should have, though its other rows hold;
    the per-flag reference, which zips H(tau) with the rows, misses it.
    The count of identities stays that of the intact rule."""
    state = {}

    def edit(atlas, flag):
        sigma, tau = flag.cones[-1], atlas.fan.zero_cone()
        kind, alpha_terms, rows, top = atlas._localization_rule(sigma, tau)
        assert len(rows) == 4
        atlas._local_rules[(sigma.rays, tau.rays)] = (kind, alpha_terms, rows[:3], top)
        state.update(cone=sorted(sigma.rays))

    _, (count, failures), (_, reference), report = _perturbed_gluing(edit)
    assert count == 6 * 2 + 3 * 13 - 1
    assert failures == [{"cone": state["cone"], "face": [], "rows": 3, "expected_rows": 4}]
    assert reference == []
    assert not report.passed
    assert [c for c in report.counterexamples if c["kind"] == "identity"] == [{"kind": "identity", **failures[0]}]


def _verified_checks(monkeypatch, atlas):
    """run_verification's checks, by name, on atlas as edited."""
    monkeypatch.setattr(charts, "Atlas", lambda _: atlas)
    return {c["name"]: c for c in verify.run_verification(atlas.fan, seed=0)["checks"]}


def _b_caught_by_the_diagram_gate(monkeypatch, edit, name):
    """After edit(atlas, flag 0) has changed one Hilbert row of b: the
    per-flag reference, which pairs the rows afresh, fails on flag 0;
    gluing_identities, which names each Hilbert row by its generator and
    pairs none, passes with its count unchanged; and run_verification
    fails intersection_gluing through its monomial_diagram gate.
    Returns the reference's witnesses and monomial_diagram's."""
    atlas = tb.Atlas(tb.load_bundled(name))
    flags = tb.enumerate_flags(atlas.fan)
    edit(atlas, flags[0])
    count, failures = gluing_identities(atlas, flags)
    reference = _per_flag_identities(atlas, flags)[1]
    assert failures == [] and count == gluing_identities(tb.Atlas(atlas.fan), flags)[0]
    assert reference and all(w["flag"] == 0 for w in reference)
    checks = _verified_checks(monkeypatch, atlas)
    gluing = checks["intersection_gluing"]
    assert not gluing["passed"] and gluing["gates"] == {"monomial_diagram": False, "cover": True}
    assert not any(c["kind"] == "identity" for c in gluing["counterexamples"])
    return reference, checks["monomial_diagram"]["witness"]


def test_gluing_identity_fails_on_perturbed_b(monkeypatch):
    """Flag 0's first Hilbert row of b, its first entry one up: the
    reference names it on the top cone, where the rule is the identity
    and the row is read as is, and monomial_diagram's witness names it
    at column 0."""
    state = {}

    def edit(atlas, flag):
        chart = atlas.chart(flag)
        b = [list(row) for row in chart.b]
        row = chart.hilbert_rows[0]
        b[row][0] += 1
        atlas._charts[flag] = dataclasses.replace(chart, b=tuple(map(tuple, b)))
        state.update(generator=list(chart.generators[row]), sigma=sorted(chart.top_cone.rays))

    reference, witness = _b_caught_by_the_diagram_gate(monkeypatch, edit, "p2")
    top = [w for w in reference if w["face"] == state["sigma"]]
    assert [(w["generator"], w["found"][0] - w["expected"][0]) for w in top] == [(state["generator"], 1)]
    assert (witness["flag"], witness["generator"], witness["column"]) == (0, state["generator"], 0)
    assert witness["found"] == witness["expected"] + 1


@pytest.mark.parametrize("name", ["p2", "p112"])
def test_gluing_identity_fails_on_tampered_b(monkeypatch, name):
    """verify --tamper's change, the last exponent of the first chart's
    b plus one, on a Hilbert row of flag 0: monomial_diagram's witness
    names that generator at the last column."""
    state = {}

    def edit(atlas, flag):
        chart = atlas.chart(flag)
        b = [list(row) for row in chart.b]
        b[-1][-1] += 1
        atlas._charts[flag] = dataclasses.replace(chart, b=tuple(map(tuple, b)))
        assert chart.m - 1 in chart.hilbert_rows
        state.update(generator=list(chart.generators[-1]), column=chart.n - 1)

    _, witness = _b_caught_by_the_diagram_gate(monkeypatch, edit, name)
    assert (witness["flag"], witness["generator"], witness["column"]) == (0, state["generator"], state["column"])
    assert witness["found"] == witness["expected"] + 1


def test_gluing_identity_fails_on_swapped_hilbert_rows(monkeypatch):
    """p112's flag 0 with its first two Hilbert rows swapped in
    hilbert_rows: b, the generators and the terms stay consistent, so
    chart_invariants and monomial_diagram pass, but each row now stands
    for the other generator.  gluing_identities names both, with the
    generator found at the row, and intersection_gluing fails with both
    gates passing."""
    atlas = tb.Atlas(tb.load_bundled("p112"))
    flags = tb.enumerate_flags(atlas.fan)
    chart = atlas.chart(flags[0])
    first, second, *rest = chart.hilbert_rows
    atlas._charts[flags[0]] = dataclasses.replace(chart, hilbert_rows=(second, first, *rest))
    count, failures = gluing_identities(atlas, flags)
    face = sorted(chart.top_cone.rays)
    h = [list(g) for g in atlas.hilbert(chart.top_cone).generators[:2]]
    assert failures == [
        {"flag": 0, "face": face, "generator": h[0], "found": h[1]},
        {"flag": 0, "face": face, "generator": h[1], "found": h[0]},
    ]
    assert count == gluing_identities(tb.Atlas(atlas.fan), flags)[0]
    assert _per_flag_identities(atlas, flags)[1]
    checks = _verified_checks(monkeypatch, atlas)
    assert checks["chart_invariants"]["passed"] and checks["monomial_diagram"]["passed"]
    gluing = checks["intersection_gluing"]
    assert not gluing["passed"] and gluing["gates"] == {"monomial_diagram": True, "cover": True}
    assert gluing["counterexamples"][:2] == [{"kind": "identity", **w} for w in failures]


@pytest.mark.parametrize("edit", ["short", "long"])
def test_gluing_identity_fails_on_hilbert_row_count(monkeypatch, edit):
    """p112's flag 0 with hilbert_rows one row short, or with one row
    appended: chart_invariants and monomial_diagram pass, zip would pair
    the rows that are there, and the shared half would index past the
    short terms.  gluing_identities names the row count, and
    intersection_gluing fails with both gates passing, raises nothing,
    and samples no point of that flag."""
    atlas = tb.Atlas(tb.load_bundled("p112"))
    flags = tb.enumerate_flags(atlas.fan)
    chart = atlas.chart(flags[0])
    rows = chart.hilbert_rows[:-1] if edit == "short" else (*chart.hilbert_rows, 0)
    atlas._charts[flags[0]] = dataclasses.replace(chart, hilbert_rows=rows)
    _, failures = gluing_identities(atlas, flags)
    witness = {"flag": 0, "face": sorted(chart.top_cone.rays), "rows": len(rows), "expected_rows": len(chart.hilbert_rows)}
    assert failures == [witness]
    checks = _verified_checks(monkeypatch, atlas)
    assert checks["chart_invariants"]["passed"] and checks["monomial_diagram"]["passed"]
    gluing = checks["intersection_gluing"]
    assert not gluing["passed"] and gluing["gates"] == {"monomial_diagram": True, "cover": True}
    assert gluing["counterexamples"] == [{"kind": "identity", **witness}]
    report = verify_gluing(atlas)
    full = verify_gluing(tb.Atlas(atlas.fan))
    assert report.shared_samples == full.shared_samples - 25 * (len(flags[0]) - 1)


def test_verify_gluing_distinct_pin():
    """P(1,1,20) at seed 5, where the sampled distinct half used to report
    the pair stored in distinct.json: verify_gluing now passes, and each
    point of the stored pair is recovered from its chart values
    (charts.invert_triangular, simplex_inversion's route) at simplicial
    coordinates u_j = -log(w_j / w_(j+1)) / 2 pi that locate back to its
    own flag."""
    data = Path(__file__).parent / "data" / "gluing_wps_1_1_20_seed5"
    atlas = tb.Atlas(tb.parse_and_validate((data / "fan.json").read_text()))
    report = verify_gluing(atlas, rng=random.Random(5))
    assert report.passed and report.counterexamples == []
    flags = tb.enumerate_flags(atlas.fan)
    (pin,) = json.loads((data / "distinct.json").read_text())
    for f, xi in zip(pin["flags"], pin["xi"]):
        chart = atlas.chart(flags[f])
        y = monomial_columns(chart.terms[: chart.n], [[float(v)] for v in bary_to_delta(xi)], 1)
        back = invert_triangular(chart.b[: chart.n], y)
        w = [v for (v,) in back] + [1.0]
        u = [-math.log(a / b) / TWO_PI for a, b in zip(w, w[1:])]
        assert all(uk > 0 for uk in u)
        x = tuple(sum(uk * b[t] for uk, b in zip(u, flags[f].barycenters)) for t in range(chart.n))
        assert locate_flag(atlas.fan, x) == flags[f]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="points_equal compares absolute value gaps, which vanish near the toric boundary; "
    "log-domain points with equality in ball coordinates (ROADMAP item 1) fix it",
)
def test_points_equal_distinct_pin():
    """The known defect of Atlas.points_equal, pinned on points_equal
    itself: P(1,1,20) keeps the pair of interior points of flags 1 and 4
    that the pair sampler found at seed 5.  Interior points of two
    different flag simplices are distinct, but points_equal calls them
    equal."""
    data = Path(__file__).parent / "data" / "gluing_wps_1_1_20_seed5"
    atlas = tb.Atlas(tb.parse_and_validate((data / "fan.json").read_text()))
    flags = tb.enumerate_flags(atlas.fan)
    (pin,) = json.loads((data / "distinct.json").read_text())
    i, j = pin["flags"]
    assert i != j
    p, q = (atlas.chart_point(atlas.chart(flags[f]), bary_to_delta(xi)) for f, xi in zip(pin["flags"], pin["xi"]))
    assert not atlas.points_equal(p, q), "distinct"


def _simplex_inversion(fan, atlas):
    """verify's simplex_inversion check on atlas, which may be perturbed."""
    chart_list = atlas.charts()
    ctx = verify.Context(fan, atlas, chart_list, random.Random(0))
    return verify._simplex_inversion(ctx)


def test_locate_cross_check_fails_on_perturbed_terms():
    """Flag 0's first triangular row short of its w1, the edit that
    verify_gluing's retired locate cross-check failed on: the exact
    gluing identities hold, and verify_gluing, which no longer
    round-trips chart values, passes.  simplex_inversion runs that round
    trip and fails on flag 0."""
    fan, atlas = p2_with_terms(drop_first_term)
    count, failures = gluing_identities(atlas, tb.enumerate_flags(fan))
    assert count == 6 * 2 + 3 * 13 and failures == []
    assert verify_gluing(atlas).passed
    passed, details = _simplex_inversion(fan, atlas)
    assert not passed and details["witness"]["flag"] == 0


def test_locate_cross_check_fails_on_off_inversion(monkeypatch):
    """With every w recovered by charts.invert_triangular off by 1e-6,
    the retired locate cross-check's failure is simplex_inversion's: its
    witness is recovered 1e-6 off in each coordinate.  verify_gluing,
    which inverts nothing, still passes."""
    invert = charts.invert_triangular
    monkeypatch.setattr(charts, "invert_triangular", lambda b, y: [[w + 1e-6 for w in col] for col in invert(b, y)])
    fan = tb.load_bundled("p2")
    atlas = tb.Atlas(fan)
    assert verify_gluing(atlas).passed
    passed, details = _simplex_inversion(fan, atlas)
    witness = details["witness"]
    assert not passed and details["worst_gap"] > 1e-9
    assert witness["recovered"] == pytest.approx([w + 1e-6 for w in witness["w"]], rel=0, abs=1e-12)


def test_verify_gluing_disjoint_flags_share_only_origin(atlas_p1xp1):
    # Flags in opposite quadrants: the only common image is the origin's.
    from toricball.bary import Flag, enumerate_flags
    from toricball.homeo import param_boundary_point

    fan = atlas_p1xp1.fan
    f1 = Flag((fan.cone({0}), fan.cone({0, 1})))
    f2 = Flag((fan.cone({2}), fan.cone({2, 3})))
    origin1 = param_boundary_point(atlas_p1xp1, f1, (1.0, 0.0, 0.0))
    origin2 = param_boundary_point(atlas_p1xp1, f2, (1.0, 0.0, 0.0))
    assert atlas_p1xp1.points_equal(origin1, origin2)
    interior1 = param_boundary_point(atlas_p1xp1, f1, (0.2, 0.3, 0.5))
    interior2 = param_boundary_point(atlas_p1xp1, f2, (0.2, 0.3, 0.5))
    assert not atlas_p1xp1.points_equal(interior1, interior2)


def test_adjacent_flags_share_boundary_edge(atlas_p2):
    # Two charts over flags sharing a ray: fifty boundary points of the
    # shared closed edge agree through both parameterizations.
    import random

    from toricball.bary import Flag
    from toricball.homeo import param_boundary_point

    fan = atlas_p2.fan
    f1 = Flag((fan.cone({0}), fan.cone({0, 1})))
    f2 = Flag((fan.cone({0}), fan.cone({0, 2})))
    rng = random.Random(1)
    for k in range(50):
        # k = 0 pins the vertex at infinity, k = 1 the origin's image.
        t = 1.0 if k == 0 else (0.0 if k == 1 else rng.random())
        sub_xi = (1.0 - t, t)
        p1 = param_boundary_point(atlas_p2, f1, (sub_xi[0], sub_xi[1], 0.0))
        p2 = param_boundary_point(atlas_p2, f2, (sub_xi[0], sub_xi[1], 0.0))
        assert atlas_p2.points_equal(p1, p2, tol=1e-9)


def test_verify_regularity_small(p1, p2, p1xp1, p112):
    for fan in (p1, p2, p1xp1, p112):
        report = verify_regularity(fan)
        assert report.passed
        assert len(report.cells) == len(fan.cones())


def test_verify_regularity_maximal_cell_is_point(p2):
    report = verify_regularity(p2)
    for entry in report.cells:
        if len(entry["rays"]) == 2:
            assert entry["cell_dim"] == 0
            # The link of a point cell is the empty sphere S^-1.
            assert entry["euler"] == 0
            assert entry["failed"] == []


def test_nonsimplicial_fan_end_to_end():
    fan = cube_faces_fan()
    model = build_ball_model(fan)
    # Flags through square cones: 6 cones x (4 ridges x 2 rays) = 48.
    assert len(model.simplices[model.n]) == 48
    assert euler_characteristic(model.simplices) == 1
    assert pseudomanifold_check(model).passed
    atlas = tb.Atlas(fan)
    charts = atlas.charts()
    assert len(charts) == 48
    # Non-simplicial duals exercise the triangulating Hilbert path.
    import random
    from fractions import Fraction

    rng = random.Random(0)
    for chart in charts[:4]:
        for _ in range(20):
            gens = tb.flag_cone(chart.flag).generators
            coeff = [Fraction(rng.randint(0, 2000), 1000) for _ in gens]
            x = tuple(sum(c * g[t] for c, g in zip(coeff, gens)) for t in range(3))
            assert atlas.commutativity_residual(chart, x) <= 1e-9
    report = verify_regularity(fan)
    assert report.passed


def _regularity_reference_fans():
    """Complete, non-simplicial, rank-4 and incomplete fans."""
    units = [[int(i == j) for i in range(4)] for j in range(4)]
    p4 = validate_fan(4, units + [[-1] * 4], list(combinations(range(5), 4)), name="p4")
    signed = units + [[-a for a in u] for u in units]
    orthants = [[i + 4 * s for i, s in enumerate(signs)] for signs in product((0, 1), repeat=4)]
    p1_4 = validate_fan(4, signed, orthants, name="p1^4")
    cube = cube_faces_fan()
    cube.name = "cube_faces"
    fans = [tb.load_bundled(name) for name in tb.BUNDLED_FANS] + [cube, p4, p1_4]
    for name in ("p2", "p3"):
        fan = tb.load_bundled(name)
        fans.append(validate_fan(fan.dim, fan.rays, fan.max_cones[1:], require_complete=False, name=f"{name}-1"))
    fans.append(validate_fan(2, [(1, 0), (-1, 0)], [[0], [1]], require_complete=False, name="line"))
    return fans


def _chains_above_reference(fan, sigma):
    """The chains above sigma read off the fan's flags: the flags of
    all_flags(fan) whose first cone strictly contains sigma."""
    return [f.cones for f in all_flags(fan) if f.cones and sigma.rays < f.cones[0].rays]


def _ball_model_reference(fan, sigma):
    """The simplices of sigma's ball model built by filtering every flag
    of the fan: {0} u C for the empty flag and for each flag C whose
    first cone strictly contains sigma, and C itself when nonempty."""
    vid = {c.rays: i + 1 for i, c in enumerate(c for c in fan.cones() if sigma.rays < c.rays)}
    simplices = {}
    for flag in all_flags(fan):
        if flag.cones and flag.cones[0].rays not in vid:
            continue
        ids = [vid[c.rays] for c in flag.cones]
        for simplex in ([0, *ids], ids) if ids else ([0],):
            simplices.setdefault(len(simplex) - 1, set()).add(frozenset(simplex))
    return {d: frozenset(s) for d, s in simplices.items()}


def _chains_above_fans():
    """The regularity reference fans (the bundled fans, the cube-faces
    fan, P^4, (P^1)^4 and three incomplete fans), the incomplete fans
    of the verify tests and the rank-0 fan."""
    fans = _regularity_reference_fans()
    for fan, name in zip(incomplete_fans(), ("p2-minus-cone", "p3-minus-cone")):
        fan.name = name
        fans.append(fan)
    return fans + [validate_fan(0, [], [[]], name="rank0")]


@pytest.mark.parametrize("fan", _chains_above_fans(), ids=lambda fan: fan.name)
def test_chains_above_matches_flag_filter(fan):
    """For every cone sigma, Fan.chains_above(sigma) yields each chain of
    the flag filter exactly once, smallest cone first (sorted, the two
    lists agree, and the filter's flags are distinct), and
    build_ball_model(fan, sigma) has the filter's simplices."""
    for sigma in fan.cones():
        chains = sorted(fan.chains_above(sigma), key=lambda chain: tuple(c.sort_key() for c in chain))
        assert chains == _chains_above_reference(fan, sigma), (fan.name, sorted(sigma.rays))
        assert build_ball_model(fan, sigma).simplices == _ball_model_reference(fan, sigma)


def test_regularity_reads_no_flag(monkeypatch):
    """verify_regularity reads the face lattice through Fan.chains_above
    alone: on freshly validated fans, passing and failing, it gives the
    same report while bary.subdivision and cellcomplex.enumerate_flags
    fail when called, and it leaves no subdivision behind."""
    make = [lambda: tb.load_bundled("twisted_p3"), cube_faces_fan, lambda: incomplete_fans()[1]]
    expected = [verify_regularity(m()) for m in make]
    for module, name in ((bary, "subdivision"), (cellcomplex, "enumerate_flags")):
        monkeypatch.setattr(module, name, lambda *args, _n=name, **kwargs: pytest.fail(f"{_n} called"))
    for m, report in zip(make, expected):
        fan = m()
        assert verify_regularity(fan) == report
        assert fan not in bary._SUBDIVISIONS
    assert [r.passed for r in expected] == [True, True, False]


def _regularity_against_star_fans(monkeypatch, fan):
    """verify_regularity on fan, with no star fan and no subdivision of
    one built, checked cell by cell against the star fan of each cone
    rebuilt in the quotient lattice: the Euler characteristic of its
    ball model's boundary, the pseudomanifold check of that model and
    the failed tests agree, and the star fan is complete exactly where
    the cell passes pseudomanifold (verify_regularity's proof that star
    completeness needs no test of its own).  Returns the number of cells
    whose star is incomplete."""
    from toricball import fan as fan_module

    bary.subdivision(fan)
    before = list(bary._SUBDIVISIONS)
    for name in ("star_fan", "quotient_projection", "validate_fan"):
        monkeypatch.setattr(fan_module, name, lambda *args, _n=name: pytest.fail(f"{_n} called"))
    report = verify_regularity(fan)
    monkeypatch.undo()
    assert set(bary._SUBDIVISIONS) <= set(before)

    incomplete = 0
    for cone, cell in zip(fan.cones(), report.cells, strict=True):
        star = star_fan(fan, cone)
        complete = star.is_complete()[0]
        model = build_ball_model(star)
        chi = euler_characteristic(model.boundary_simplices())
        pm = pseudomanifold_check(model)
        expected = {
            "rays": sorted(cone.rays),
            "euler": chi,
            "pseudomanifold": pm.passed,
            "failed": [
                test
                for test, ok in (
                    ("euler", chi == cellcomplex.sphere_euler(star.dim - 1)),
                    ("pseudomanifold", pm.passed),
                )
                if not ok
            ],
        }
        where = (fan.name, sorted(cone.rays))
        assert {key: cell[key] for key in expected} == expected, where
        assert complete == cell["pseudomanifold"], where
        incomplete += not complete
    assert report.passed == (not any(cell["failed"] for cell in report.cells))
    return incomplete


@pytest.mark.parametrize("fan", _regularity_reference_fans(), ids=lambda fan: fan.name)
def test_regularity_matches_star_fan_reference(monkeypatch, fan):
    """Each cell's tests read off the face lattice agree with those of
    the star fan rebuilt in the quotient lattice, and verify_regularity
    builds no star fan and no subdivision of one."""
    _regularity_against_star_fans(monkeypatch, fan)


def _drop_maximal_cones(fan, rng):
    """fan without one to three of its maximal cones, chosen by rng, and
    without the rays that no remaining cone uses; not required complete."""
    tops = [sorted(c) for c in fan.max_cones]
    keep = sorted(rng.sample(tops, len(tops) - rng.randint(1, 3)))
    index = {r: i for i, r in enumerate(sorted(set().union(*keep)))}
    rays = [fan.rays[r] for r in index]
    return validate_fan(fan.dim, rays, [[index[r] for r in c] for c in keep], require_complete=False, name=f"{fan.name}-dropped")


def test_regularity_star_fan_reference_on_seeded_corpus(monkeypatch):
    """The star-fan reference on seeded stellar subdivisions of p2, p3
    and twisted_p3 (three steps, coefficients up to 5, seeds 0 and 1),
    each also with two copies that drop one to three maximal cones:
    every cell agrees, and the dropped copies give incomplete stars, on
    which star completeness and pseudomanifold must agree."""
    incomplete = 0
    for name in ("p2", "p3", "twisted_p3"):
        for seed in (0, 1):
            fan = stellar_fan(tb.load_bundled(name), 3, 5, seed)
            assert _regularity_against_star_fans(monkeypatch, fan) == 0
            rng = random.Random(fan.name)
            for _ in range(2):
                dropped = _drop_maximal_cones(fan, rng)
                assert not dropped.is_complete()[0]
                incomplete += _regularity_against_star_fans(monkeypatch, dropped)
    assert incomplete > 0
