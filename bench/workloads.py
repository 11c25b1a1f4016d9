"""Set-up and the timed work of one benchmark pass.

A pass reads every layer from outside, through the public functions of
toricball: ``cli.main`` for verify and mesh, ``rescale_global``,
``param_boundary_point`` and ``Atlas.points_equal`` for queries.  Every
answer is compared with an answer the benchmark knows without asking
the library (fan JSON, the Phi formula, the exit-code contract).
"""

from __future__ import annotations

import importlib
import io
import json
import math
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import fans

WORKLOADS = ("bundled-corpus", "wps-family")
TAMPERED = ("p2", "p112")  # negative controls: verify must exit 4
QUERY_FAN = {"bundled-corpus": "twisted_p3", "wps-family": "wps_1_1_1_9"}
# Queries per second of --seconds: about what one client gets through at
# the reference speed of speed.py.  The count, not a clock, ends the
# loop, so a seed always gives the same queries and the same answers.
QUERY_RATE = {"bundled-corpus": 1460, "wps-family": 2475}
EVALS_PER_LOCATE = 8
MESH_ROUNDS = 3
MESH_RADII = "1,4,16"
MESH_RES = 8
LOCATE_TOL = 1e-12
TWO_PI = 2.0 * math.pi


@dataclass
class Case:
    label: str
    path: str
    doc: dict
    tamper: bool = False


@dataclass
class QueryTarget:
    """A warm Atlas with its maximal flags and their barycenters, the
    latter computed here from the fan JSON."""

    tb: object
    fan: object
    atlas: object
    flags: list
    barycenters: list


@dataclass
class Fixture:
    cli: object
    verify: list
    mesh: list
    query: QueryTarget


@dataclass
class Tally:
    """Answers checked against their known answers.

    A wrong answer always counts in `failed`.  It is `known` when it has
    the signature of the documented defect (see NOTES.md) and
    `unexpected` otherwise; only unexpected ones make the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    known: list = field(default_factory=list)
    unexpected: list = field(default_factory=list)

    def record(self, ok, what, known_defect=False):
        """Count one answer; `what` is a message, or a callable making it."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            (self.known if known_defect else self.unexpected).append(what() if callable(what) else what)


def import_fresh():
    """Import toricball from scratch, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "toricball" or m.startswith("toricball.")]:
        del sys.modules[name]
    return importlib.import_module("toricball"), importlib.import_module("toricball.cli")


def _quiet_main(cli, argv):
    """cli.main with its stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def prepare(tb, cli, workload, work) -> Fixture:
    """Load or generate the fans and warm the query Atlas."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "bundled-corpus":
        cases = []
        for name in tb.BUNDLED_FANS:
            path = tb.bundled_path(name)
            cases.append(Case(name, str(path), json.loads(path.read_text())))
    else:
        cases = [_generated_case(tb, cli, fans.wps_fan(w), work) for w in fans.WPS_WEIGHTS]
    by_label = {c.label: c for c in cases}
    verify = cases + [Case(f"{n}-tamper", by_label[n].path, by_label[n].doc, True) for n in TAMPERED if n in by_label]
    mesh = [c for c in cases if c.doc["dim"] in (2, 3)]
    return Fixture(cli, verify, mesh, _warm_target(tb, by_label[QUERY_FAN[workload]]))


def _generated_case(tb, cli, doc, work) -> Case:
    """Write a generated fan and check it before use."""
    path = fans.write_fan(doc, work)
    out = work / f"validate-{doc['name']}"
    code, _ = _quiet_main(cli, ["validate", path, "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    flags = len(tb.enumerate_flags(tb.parse_and_validate(json.dumps(doc)), only_maximal=True))
    if code != 0 or not report["complete"] or flags != fans.maximal_flag_count(doc):
        raise RuntimeError(f"generated fan {doc['name']} failed validation: exit {code}, {flags} maximal flags")
    return Case(doc["name"], path, doc)


def _warm_target(tb, case) -> QueryTarget:
    fan = tb.parse_and_validate(json.dumps(case.doc))
    atlas = tb.Atlas(fan)
    flags = tb.enumerate_flags(fan, only_maximal=True)
    rays = case.doc["rays"]
    barys = [
        [tuple(sum(rays[r][i] for r in cone.rays) for i in range(fan.dim)) for cone in flag.cones] for flag in flags
    ]
    target = QueryTarget(tb, fan, atlas, flags, barys)
    atlas.charts()
    # One eval per flag pair fills every localization rule a query can use.
    for i in range(len(flags)):
        for j in range(i + 1, len(flags)):
            _eval(target, i, j, *_shared_xi(target, i, j, None))
    tb.rescale_global(fan, (0,) * fan.dim)
    return target


# ---------------------------------------------------------------------------
# verify, mesh and query
# ---------------------------------------------------------------------------


def _is_known_defect(code, report) -> bool:
    """The absolute-tolerance defect of Atlas.points_equal: only the
    distinct half of intersection_gluing fails, with interior points of
    two different flag simplices reported equal."""
    failing = [c for c in report["checks"] if not c["passed"]]
    return (
        code == 4
        and [c["name"] for c in failing] == ["intersection_gluing"]
        and all(x["kind"] == "distinct" for x in failing[0]["counterexamples"])
    )


def verify_one(fx: Fixture, case: Case, seed, out_root, tally: Tally, clock):
    """Verify one case in-process; returns the clock marks around it."""
    out = out_root / f"verify-{case.label}"
    argv = ["verify", case.path, "--seed", str(seed), "--out", str(out)] + (["--tamper"] if case.tamper else [])
    m0 = clock.now()
    code, _ = _quiet_main(fx.cli, argv)
    m1 = clock.now()
    report = json.loads((out / "report.json").read_text())
    if case.tamper:
        diagram = [c["passed"] for c in report["checks"] if c["name"] == "monomial_diagram"]
        tally.record(code == 4 and diagram == [False], f"verify {case.label}: exit {code}")
    else:
        ok = code == 0 and report["passed"] and all(c["passed"] for c in report["checks"])
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        tally.record(ok, f"verify {case.label} seed {seed}: exit {code}, failing {failing}", _is_known_defect(code, report))
    return m0, m1


def _off_counts(path):
    with open(path) as fh:
        fh.readline()
        v, f, _ = fh.readline().split()
    return int(v), int(f)


def mesh_all(fx: Fixture, out_root, tally: Tally, clock):
    """Mesh every rank-2/3 case; returns the clock marks around each."""
    marks = []
    for case in fx.mesh:
        out = out_root / f"mesh-{case.label}"
        argv = ["mesh", case.path, "--radii", MESH_RADII, "--res", str(MESH_RES), "--out", str(out)]
        m0 = clock.now()
        code, stdout = _quiet_main(fx.cli, argv)
        marks.append((m0, clock.now()))
        name = case.doc["name"]
        expected = [f"{name}_r{r}.off" for r in MESH_RADII.split(",")] + [f"{name}_boundary.off"]
        sphere, boundary = fans.expected_mesh_counts(case.doc, MESH_RES)
        ok = code == 0 and json.loads(stdout)["written"] == expected
        ok = ok and all(_off_counts(out / f) == sphere for f in expected[:-1])
        ok = ok and _off_counts(out / expected[-1]) == boundary
        tally.record(ok, f"mesh {case.label}: exit {code}")
    return marks


def _shared_xi(target, i, j, rng, at_infinity=False):
    """Barycentric coordinates of one point of the closed simplex shared
    by flags i and j, written in each flag's coordinates; on its face at
    infinity if asked and the flags share a cone.  Without an rng, the
    barycentre of the shared simplex."""
    f1, f2 = target.flags[i], target.flags[j]
    common = {c.rays for c in f1.cones} & {c.rays for c in f2.cones}
    pos1 = [a for a, c in enumerate(f1.cones) if c.rays in common]
    pos2 = [a for a, c in enumerate(f2.cones) if c.rays in common]
    if rng is None:
        raw = [1.0] * (len(common) + 1)
    else:
        raw = [rng.random() + 0.01 for _ in range(len(common) + 1)]
        if common and at_infinity:
            raw[0] = 0.0
    total = sum(raw)
    sub = [x / total for x in raw]
    xi1, xi2 = [0.0] * (len(f1) + 1), [0.0] * (len(f2) + 1)
    xi1[0] = xi2[0] = sub[0]
    for t, (a, b) in enumerate(zip(pos1, pos2)):
        xi1[a + 1] = xi2[b + 1] = sub[t + 1]
    return tuple(xi1), tuple(xi2)


def _interior_xi(rng, n, margin=0.05):
    raw = [margin + rng.random() for _ in range(n + 1)]
    total = sum(raw)
    return tuple(x / total for x in raw)


def _eval(target, i, j, xi1, xi2):
    tb = target.tb
    p = tb.param_boundary_point(target.atlas, target.flags[i], xi1)
    q = tb.param_boundary_point(target.atlas, target.flags[j], xi2)
    return target.atlas.points_equal(p, q)


def _locate_query(target, rng, k):
    """A seeded exact point x = sum u_j B_j of flag cone k (some u_j = 0)
    and its image sum v_j B_j under the Phi formula."""
    barys = target.barycenters[k]
    n = len(barys)
    u = [Fraction(0) if rng.random() < 0.25 else Fraction(rng.randint(1, 4000), 1000) for _ in range(n)]
    x = tuple(sum(uj * b[i] for uj, b in zip(u, barys)) for i in range(n))
    partial = [1 + sum(u[:j]) for j in range(n + 1)]
    v = [math.log(float(partial[j + 1]) / float(partial[j])) / TWO_PI for j in range(n)]
    expected = tuple(sum(vj * b[i] for vj, b in zip(v, barys)) for i in range(n))
    return x, expected


class QueryClient:
    """Closed loop, one client, in a fixed order resumed across calls to
    run: one locate, then EVALS_PER_LOCATE evals, alternately equal and
    distinct; every third equal eval is on the face at infinity.  Evals
    are cheap, so the tail of their latency needs the larger sample.

    Query cost depends on the flag (where it lies in locate_flag's scan)
    and on the flag pair (how many cones the two share), so flags and
    pairs are dealt from seeded shuffled decks, one per kind of query:
    each is used about equally often, and the latency percentiles do not
    move with which flags a seed happens to draw."""

    def __init__(self, target: QueryTarget, rng, tally: Tally, clock):
        self.target, self.rng, self.tally, self.clock = target, rng, tally, clock
        self.sent = 0
        self.decks = {}
        self.locate = []  # clock marks around each query
        self.eval = []

    def _deal(self, kind):
        deck = self.decks.setdefault(kind, [])
        if not deck:
            flags = range(len(self.target.flags))
            deck.extend(flags if kind == "locate" else combinations(flags, 2))
            self.rng.shuffle(deck)
        return deck.pop()

    def run(self, count):
        """Send the next `count` queries."""
        target, rng, tally = self.target, self.rng, self.tally
        tb, fan, n, now = target.tb, target.fan, target.fan.dim, self.clock.now
        stop = self.sent + count
        while self.sent < stop:
            if self.sent % (EVALS_PER_LOCATE + 1) == 0:
                x, expected = _locate_query(target, rng, self._deal("locate"))
                m0 = now()
                y = tb.rescale_global(fan, x)
                self.locate.append((m0, now()))
                ok = len(y) == n and all(abs(a - b) <= LOCATE_TOL for a, b in zip(y, expected))
                tally.record(ok, lambda: f"locate {x}: got {y}, expected {expected}")
            else:
                want_equal = len(self.eval) % 2 == 0
                a, b = self._deal("equal" if want_equal else "distinct")
                if rng.random() < 0.5:
                    a, b = b, a
                if want_equal:
                    xi1, xi2 = _shared_xi(target, a, b, rng, at_infinity=len(self.eval) % 6 == 0)
                else:
                    xi1, xi2 = _interior_xi(rng, n), _interior_xi(rng, n)
                m0 = now()
                got = _eval(target, a, b, xi1, xi2)
                self.eval.append((m0, now()))
                tally.record(got == want_equal, lambda: f"eval flags {a},{b} xi {xi1} {xi2}: equal={got}")
            self.sent += 1


def run_pass(fx: Fixture, seed, out_root, client: QueryClient, query_count):
    """Verify, mesh and query, interleaved so each kind of work is spread
    over the whole pass: after each verify, one query slice (query_count
    split evenly), and after every few verifies one mesh of every fan
    (MESH_ROUNDS rounds in all).  Returns the clock marks:
    ({label: verify}, [[each mesh] of each round])."""
    steps = len(fx.verify)
    verdicts, meshes = {}, []
    for k, case in enumerate(fx.verify):
        verdicts[case.label] = verify_one(fx, case, seed, out_root, client.tally, client.clock)
        if MESH_ROUNDS * (k + 1) // steps > MESH_ROUNDS * k // steps:
            meshes.append(mesh_all(fx, out_root, client.tally, client.clock))
        client.run(query_count * (k + 1) // steps - query_count * k // steps)
    return verdicts, meshes
