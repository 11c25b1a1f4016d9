"""Command-line surface: validate fans, dump charts, verify, export meshes.

Commands (see README for examples):

    validate <file>                      exit 0 valid+complete, 2 invalid,
                                         3 valid but incomplete
    charts <file>                        per-flag generator/exponent dump
    param <file> --flag I --xi A,B,..    boundary-extended chart point
    verify <file> [--seed --out --tamper --timings FILE]
                                         full check suite, exit 4 on failure
    mesh <file> --radii R,.. --res K     OFF meshes of rescaled spheres

The checks behind `verify` are the table in toricball.verify; this
module only parses arguments, loads fans and writes results.  Reports
are JSON on stdout (or under --out); with a fixed seed and
configuration they are byte-identical across runs.

Every failure raises CommandError(code, message), or OSError for a
file that cannot be read or written, and main alone prints the message
to stderr and returns the code: 1 when the input could not be read or
parsed or an output could not be written, 2 for an invalid fan or
option value (param's --flag or --xi, mesh's --radii or --res, or
verify's --tamper on a fan with no chart), 3 for an incomplete fan.
An unknown option is argparse's usage error: SystemExit(2) before any
command runs.  validate's verdict on an incomplete fan (3, after its
JSON) and a failed verify check (4) are results, not failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from itertools import accumulate, chain, repeat
from operator import itemgetter, mul, truediv
from pathlib import Path

from .bary import barycenter, enumerate_flags
from .charts import Atlas
from .fan import Fan, FanValidationError, ParseError, parse_and_validate
from .homeo import check_barycentric, param_boundary_point, phi_columns
from .verify import SettingsError, run_verification

EXIT_OK = 0
EXIT_PARSE = 1  # unreadable or unparsable input, or an unwritable output
EXIT_INVALID = 2
EXIT_INCOMPLETE = 3
EXIT_CHECK_FAILED = 4


class CommandError(Exception):
    """A command's failure: main prints the message and exits with code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _parse(args) -> Fan:
    """The valid, not necessarily complete, fan in the file args.file."""
    try:
        return parse_and_validate(Path(args.file).read_text(), require_complete=False)
    except (ParseError, UnicodeDecodeError) as e:
        raise CommandError(EXIT_PARSE, f"parse error: {e}") from e
    except FanValidationError as e:
        raise CommandError(EXIT_INVALID, f"invalid fan: {e}") from e


def _emit(doc, out):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        Path(out).mkdir(parents=True, exist_ok=True)
        (Path(out) / "report.json").write_text(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# validate / charts / param
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    fan = _parse(args)
    complete, cert = fan.is_complete()
    doc = {
        "fan": fan.name,
        "dim": fan.dim,
        "rays": len(fan.rays),
        "cones": len(fan.cones()),
        "maximal_cones": len(fan.max_cones),
        "complete": complete,
    }
    if cert:
        doc["certificate"] = cert
    _emit(doc, args.out)
    return EXIT_OK if complete else EXIT_INCOMPLETE


def _load(args) -> Fan:
    """The complete fan that every command but validate needs."""
    fan = _parse(args)
    if not fan.is_complete()[0]:
        raise CommandError(EXIT_INCOMPLETE, "fan is not complete")
    return fan


def cmd_charts(args) -> int:
    fan = _load(args)
    atlas = Atlas(fan)
    charts = []
    for idx, chart in enumerate(atlas.charts()):
        left, d, _ = chart.flag.inverse
        charts.append(
            {
                "index": idx,
                "flag": [sorted(c.rays) for c in chart.flag.cones],
                "generators": [list(g) for g in chart.generators],
                "dual_basis": [[str(Fraction(a, d)) for a in row] for row in left],
                "c": [list(accumulate(r)) for r in chart.b],  # the pairings <g, B_k>
                "b": [list(r) for r in chart.b],
                "psi": chart.monomial_strings(),
            }
        )
    _emit({"fan": fan.name, "dim": fan.dim, "charts": charts}, args.out)
    return EXIT_OK


def cmd_param(args) -> int:
    fan = _load(args)
    atlas = Atlas(fan)
    flags = enumerate_flags(fan)
    if not 0 <= args.flag < len(flags):
        message = f"flag index out of range (0..{len(flags) - 1})" if flags else "fan has no maximal flags"
        raise CommandError(EXIT_INVALID, message)
    try:
        xi = [float(x) for x in args.xi.split(",")]
    except ValueError:
        raise CommandError(EXIT_INVALID, "could not parse --xi") from None
    try:
        point = param_boundary_point(atlas, flags[args.flag], xi)
    except ValueError as e:
        raise CommandError(EXIT_INVALID, f"bad barycentric coordinates: {e}") from e
    sem = atlas.hilbert(point.cone)
    doc = {
        "fan": fan.name,
        "flag": args.flag,
        "xi": xi,
        "w": [float(v) for v in check_barycentric(xi)],
        "carrier": sorted(point.cone.rays),
        "generators": [list(g) for g in sem.generators],
        "values": list(point.values),
    }
    _emit(doc, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify (the checks themselves live in the verify module)
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    fan = _load(args)
    timings = {} if args.timings else None
    try:
        report = run_verification(fan, seed=args.seed, tamper=args.tamper, timings=timings)
    except SettingsError as e:
        raise CommandError(EXIT_INVALID, str(e)) from e
    _emit(report, args.out)
    if args.timings:
        Path(args.timings).write_text(json.dumps({"fan": fan.name, "seconds": timings}, indent=2) + "\n")
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# mesh export
# ---------------------------------------------------------------------------


def _face_block(faces):
    """The face lines of an OFF file, each ending in a newline.  Every
    call passes faces of one length (sphere triangles, boundary
    triangles or segments, or the rank-2 polygon), so one format string
    renders them all."""
    k = len(faces[0])
    return (f"{k}{' %d' * k}\n" * len(faces)) % tuple(chain.from_iterable(faces))


def _off_text(vertices, faces, face_block):
    """An OFF file whose face lines, _face_block(faces), are given
    rendered, so that one rendering serves every file with those faces.
    The vertex lines are one format string over the flattened
    coordinates, with z = 0 in rank two."""
    line = "%.9f %.9f %.9f\n" if len(vertices[0]) == 3 else "%.9f %.9f 0.000000000\n"
    lines = (line * len(vertices)) % tuple(chain.from_iterable(vertices))
    return f"OFF\n{len(vertices)} {len(faces)} 0\n{lines}{face_block}"


def _sphere_grid(fan: Fan, res: int):
    """The part of every sphere mesh that does not depend on the radius,
    built once per mesh command: (weights, barycenters, norms, faces).

    Each maximal flag's cone is sampled at its grid points: the
    directions sum_j w_j B_j of its barycenters B_1..B_n with integer
    weights w_j >= 0 that sum to res, in one order for every flag.  Each
    grid point gives one vertex, in first-seen order, and the first
    three are its columns for homeo.phi_columns: weights[j] holds w_j of
    every vertex (over res in rank two), barycenters[j][i] coordinate i
    of its B_j, and norms |sum_j w_j B_j|.  In rank three each flag
    adds the res^2 triangles of one template of local grid indices,
    built here once; in rank two faces is empty, and cmd_mesh closes
    the vertices into one polygon.

    Flags that share a grid point share its vertex.  Which points they
    share is read off the flags, with no integer arithmetic:

    - A point whose weights are all positive lies in its flag's open
      cone.  The open cones of the subdivision's flags are disjoint, so
      no other flag has a point on its ray: it is a new vertex, and only
      then is its direction formed, for its norm.
    - A point with some weight zero lies in the open cone of the
      subflag S of the cones with nonzero weight.  It is keyed by the
      pairs (cone.rays, weight) over S, in S's order.  Two flags that
      contain S list S's barycenters in that order, so one key is one
      direction.  Conversely, two grid points on one ray lie in one open
      flag cone, so they have one S; S's barycenters are linearly
      independent, so their weights on S are proportional, and as both
      sum to res they are equal: one ray is one key.

    So the keys split the grid points into the classes that the
    primitive vectors of their integer directions do, and the vertices,
    their order, weights, norms and the faces are those of keying by
    that vector.  Rank two follows the same rule: only a segment's two
    endpoints are keyed."""
    n = fan.dim
    if n == 2:
        points = [(res - t, t) for t in range(res + 1)]
    else:
        points = [(i, j, res - i - j) for i in range(res + 1) for j in range(res + 1 - i)]
    # The positions of each point's nonzero weights, or None inside the cone.
    supports = [None if all(w) else [j for j, x in enumerate(w) if x] for w in points]
    rows, gens_rows, norms = [], [], []  # one entry per vertex
    vertex_ids = {}
    faces = []
    if n == 3:
        local = {w[:2]: m for m, w in enumerate(points)}
        template = []
        for i in range(res):
            for j in range(res - i):
                template += (local[i, j], local[i + 1, j], local[i, j + 1])
                if j < res - i - 1:
                    template += (local[i + 1, j], local[i + 1, j + 1], local[i, j + 1])
        corners = itemgetter(*template)

    for flag in enumerate_flags(fan):
        gens = flag.barycenters
        rays = [c.rays for c in flag.cones]
        ids = []
        for w, support in zip(points, supports):
            if support is not None:
                key = tuple([(rays[j], w[j]) for j in support])
                if key in vertex_ids:
                    ids.append(vertex_ids[key])
                    continue
                vertex_ids[key] = len(norms)
            ids.append(len(norms))
            if n == 2:
                # Simplicial coordinates scale with the point, so they
                # come straight from the interpolation weights.
                a, c = w[0] / res, w[1] / res
                w = (a, c)
                direction = [a * x + c * y for x, y in zip(*gens)]
            else:
                i, j, k = w
                direction = [i * x + j * y + k * z for x, y, z in zip(*gens)]
            rows.append(w)
            gens_rows.append(gens)
            # The norm is a sum of integers in rank three and of two
            # floats in rank two, so the compensated float sum() of
            # Python 3.12+ gives the floats of a left-to-right sum.
            norms.append(math.sqrt(sum(map(mul, direction, direction))))
        if n == 3:
            flat = iter(corners(ids))
            faces += zip(flat, flat, flat)
    return list(zip(*rows)), [list(zip(*b)) for b in zip(*gens_rows)], norms, faces


def _sphere_vertices(weights, barycenters, norms, radius: float, n: int):
    """The per-radius pass over _sphere_grid's columns: Phi of the point
    at the given radius along each direction, whose simplicial
    coordinates are the weights times radius / |direction|, in one
    homeo.phi_columns call.  Each coordinate column is formed as the
    kernel reads it, so none is held beside the kernel's own."""
    scales = list(map(truediv, repeat(radius), norms))
    return list(zip(*phi_columns(barycenters, (map(mul, w, scales) for w in weights), n, len(norms))))


def _mesh_boundary(fan: Fan):
    """The limiting boundary model: one vertex per nonzero cone at its
    normalized barycenter, one (n-1)-simplex per maximal flag (in rank
    two cmd_mesh joins the segments into one polygon)."""
    cones = [c for c in fan.cones() if c.dim > 0]
    ids = {}
    vertices = []
    for c in cones:
        b = barycenter(c)
        norm = math.sqrt(sum(v * v for v in b))  # an integer sum: no float rounding
        ids[c.rays] = len(vertices)
        vertices.append(tuple(v / norm for v in b))
    return vertices, [[ids[c.rays] for c in flag.cones] for flag in enumerate_flags(fan)]


def cmd_mesh(args) -> int:
    """Write one OFF file per radius, then the boundary model's.  The
    sphere grid is built once, each radius is one batch pass of Phi over
    it (homeo.phi_columns), and in rank three the spheres' face lines
    are rendered once for all of them.
    Every file is checked to have its own name before any is written."""
    fan = _load(args)
    if fan.dim not in (2, 3):
        raise CommandError(EXIT_INVALID, "mesh export supports dimensions 2 and 3 only")
    texts = [r.strip() for r in args.radii.split(",")]
    try:
        radii = [float(r) for r in texts]
    except ValueError:
        raise CommandError(EXIT_INVALID, "could not parse --radii") from None
    if args.res < 1 or not all(math.isfinite(r) and r > 0 for r in radii):
        raise CommandError(EXIT_INVALID, "resolution must be positive, and the radii finite and positive")
    names = [f"{fan.name}_r{r:g}.off" for r in radii]
    for i, name in enumerate(names):
        if (first := names.index(name)) < i:
            raise CommandError(EXIT_INVALID, f"radii {texts[first]} and {texts[i]} would both be written to {name}")
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    def write(name, vertices, faces, face_block=None):
        """Write one OFF file; face_block, when given, is _face_block(faces)."""
        if fan.dim == 2:
            # In rank two the mesh is one closed polygon: every vertex,
            # in angular order.
            faces = [sorted(range(len(vertices)), key=lambda i: math.atan2(vertices[i][1], vertices[i][0]))]
        if face_block is None:
            face_block = _face_block(faces)
        (outdir / name).write_text(_off_text(vertices, faces, face_block))
        written.append(name)

    *grid, faces = _sphere_grid(fan, args.res)
    # In rank three every sphere has the grid's faces, rendered here once.
    face_block = _face_block(faces) if fan.dim == 3 else None
    for name, r in zip(names, radii):
        write(name, _sphere_vertices(*grid, r, fan.dim), faces, face_block)
    write(f"{fan.name}_boundary.off", *_mesh_boundary(fan))
    print(json.dumps({"written": written}, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------


# Built once per process and shared by every main call: parse_args
# reads the parser and returns a fresh Namespace, never mutating it, and
# no caller edits the parser it gets.
@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(prog="toricball", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        """A command reading the fan file and writing under --out."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("file")
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)
        return p

    command("validate", cmd_validate, "check fan axioms and completeness")
    command("charts", cmd_charts, "dump per-flag chart data")

    p = command("param", cmd_param, "evaluate the boundary parameterization")
    p.add_argument("--flag", type=int, required=True)
    p.add_argument("--xi", type=str, required=True)

    p = command("verify", cmd_verify, "run the full certification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tamper", action="store_true", help="negative control: perturb one chart")
    p.add_argument("--timings", default=None, help="write each check's wall seconds to this JSON file")

    p = command("mesh", cmd_mesh, "export OFF meshes of rescaled spheres")
    p.add_argument("--radii", type=str, required=True)
    p.add_argument("--res", type=int, default=8)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as e:
        print(e, file=sys.stderr)
        return EXIT_PARSE
    except CommandError as e:
        print(e, file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
