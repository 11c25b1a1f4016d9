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
import json
import math
import sys
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

from .bary import barycenter, enumerate_flags
from .charts import Atlas
from .exact import primitive
from .fan import Fan, FanValidationError, ParseError, parse_and_validate
from .homeo import bary_to_delta, param_boundary_point, phi_point
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
    flags = enumerate_flags(fan, only_maximal=True)
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
        "w": [float(v) for v in bary_to_delta(xi)],
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


def _off_text(vertices, faces):
    lines = ["OFF", f"{len(vertices)} {len(faces)} 0"]
    lines += ["%.9f %.9f %.9f" % (*v, 0.0)[:3] for v in vertices]  # z = 0.0 in rank two
    lines += [" ".join(map(str, (len(f), *f))) for f in faces]
    return "\n".join(lines) + "\n"


def _sphere_grid(fan: Fan, res: int):
    """The part of every sphere mesh that does not depend on the radius,
    built once per mesh command: (points, faces), sampled flag cone by
    flag cone.  The grid direction sum_j weights_j B_j of the flag's
    barycenters B gives one point (B, weights, |direction|) per vertex,
    in first-seen order.  Flags that share a grid direction share its
    vertex, so each vertex is keyed by the primitive vector of its
    integer direction.  In rank two faces is empty: cmd_mesh closes the
    vertices into one polygon."""
    points = []
    vertex_ids = {}
    faces = []

    def vid(lattice, gens, weights, direction):
        key = primitive(lattice)
        if key not in vertex_ids:
            vertex_ids[key] = len(points)
            # The norm is a sum of integers in rank three and of two
            # floats in rank two, so the compensated float sum() of
            # Python 3.12+ gives the floats of a left-to-right sum.
            points.append((gens, weights, math.sqrt(sum(v * v for v in direction))))
        return vertex_ids[key]

    for flag in enumerate_flags(fan, only_maximal=True):
        gens = flag.barycenters
        if fan.dim == 2:
            # Simplicial coordinates scale with the point, so they come
            # straight from the interpolation weights.
            b1, b2 = gens
            for t in range(res + 1):
                a, c = (res - t) / res, t / res
                lattice = [(res - t) * x + t * y for x, y in zip(b1, b2)]
                vid(lattice, gens, (a, c), [a * x + c * y for x, y in zip(b1, b2)])
        else:
            grid = {}
            b1, b2, b3 = gens
            for i in range(res + 1):
                for j in range(res + 1 - i):
                    k = res - i - j
                    direction = [i * x + j * y + k * z for x, y, z in zip(b1, b2, b3)]
                    grid[(i, j)] = vid(direction, gens, (i, j, k), direction)
            for i in range(res):
                for j in range(res - i):
                    faces.append([grid[(i, j)], grid[(i + 1, j)], grid[(i, j + 1)]])
                    if j < res - i - 1:
                        faces.append([grid[(i + 1, j)], grid[(i + 1, j + 1)], grid[(i, j + 1)]])
    return points, faces


def _sphere_vertices(points, radius: float, n: int):
    """The per-radius pass over _sphere_grid's points: Phi of the point at
    the given radius along each direction, whose simplicial coordinates
    are the weights times radius / |direction|."""
    return [phi_point(gens, [w * (radius / norm) for w in weights], n) for gens, weights, norm in points]


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
    return vertices, [[ids[c.rays] for c in flag.cones] for flag in enumerate_flags(fan, only_maximal=True)]


def cmd_mesh(args) -> int:
    """Write one OFF file per radius, then the boundary model's.  The
    sphere grid is built once and each radius is one pass of Phi over it.
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

    def write(name, vertices, faces):
        if fan.dim == 2:
            # In rank two the mesh is one closed polygon: every vertex,
            # in angular order.
            faces = [sorted(range(len(vertices)), key=lambda i: math.atan2(vertices[i][1], vertices[i][0]))]
        (outdir / name).write_text(_off_text(vertices, faces))
        written.append(name)

    points, faces = _sphere_grid(fan, args.res)
    for name, r in zip(names, radii):
        write(name, _sphere_vertices(points, r, fan.dim), faces)
    write(f"{fan.name}_boundary.off", *_mesh_boundary(fan))
    print(json.dumps({"written": written}, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------


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
