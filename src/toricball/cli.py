"""Command-line surface: validate fans, dump charts, verify, export meshes.

Commands (see README for examples):

    validate <file>                      exit 0 valid+complete, 2 invalid,
                                         3 valid but incomplete, 1 parse error
    charts <file>                        per-flag generator/exponent dump
    param <file> --flag I --xi A,B,..    boundary-extended chart point
    verify <file> [--tol --samples --seed --out --tamper --timings FILE]
                                         full check suite, exit 4 on failure
    mesh <file> --radii R,.. --res K     OFF meshes of rescaled spheres

The checks behind `verify` are the table in toricball.verify; this
module only parses arguments, loads fans and writes results.  Reports
are JSON on stdout (or under --out); with a fixed seed and
configuration they are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .bary import barycenter, enumerate_flags
from .charts import Atlas
from .fan import Fan, FanValidationError, ParseError, parse_and_validate
from .homeo import bary_to_delta, param_boundary_point, phi_point
from .verify import run_verification

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_INCOMPLETE = 3
EXIT_CHECK_FAILED = 4


def _parse_or_exit(args):
    """(fan, EXIT_OK) for a valid fan file, else (None, exit code)."""
    try:
        return parse_and_validate(Path(args.file).read_text(), require_complete=False), EXIT_OK
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return None, EXIT_PARSE
    except FanValidationError as e:
        print(f"invalid fan: {e}", file=sys.stderr)
        return None, EXIT_INVALID


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
    fan, code = _parse_or_exit(args)
    if fan is None:
        return code
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


def _load_or_exit(args):
    """Shared loading contract for chart-level commands."""
    fan, code = _parse_or_exit(args)
    if fan is None:
        return None, code
    complete, _ = fan.is_complete()
    if not complete:
        print("fan is not complete", file=sys.stderr)
        return None, EXIT_INCOMPLETE
    return fan, EXIT_OK


def cmd_charts(args) -> int:
    fan, code = _load_or_exit(args)
    if fan is None:
        return code
    atlas = Atlas(fan)
    charts = []
    for idx, chart in enumerate(atlas.charts()):
        charts.append(
            {
                "index": idx,
                "flag": [sorted(c.rays) for c in chart.flag.cones],
                "generators": [list(g) for g in chart.generators],
                "dual_basis": [[str(x) for x in row] for row in chart.flag.inverse[0]],
                "c": [list(r) for r in chart.c],
                "b": [list(r) for r in chart.b],
                "psi": chart.monomial_strings(),
            }
        )
    _emit({"fan": fan.name, "dim": fan.dim, "charts": charts}, args.out)
    return EXIT_OK


def cmd_param(args) -> int:
    fan, code = _load_or_exit(args)
    if fan is None:
        return code
    atlas = Atlas(fan)
    flags = enumerate_flags(fan, only_maximal=True)
    if not 0 <= args.flag < len(flags):
        print(f"flag index out of range (0..{len(flags) - 1})", file=sys.stderr)
        return EXIT_INVALID
    try:
        xi = [float(x) for x in args.xi.split(",")]
    except ValueError:
        print("could not parse --xi", file=sys.stderr)
        return EXIT_INVALID
    flag = flags[args.flag]
    try:
        point = param_boundary_point(atlas, flag, xi)
    except ValueError as e:
        print(f"bad barycentric coordinates: {e}", file=sys.stderr)
        return EXIT_INVALID
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
    if not (math.isfinite(args.tol) and args.tol > 0) or args.samples < 1:
        print("tolerance must be finite and positive, and the sample count positive", file=sys.stderr)
        return EXIT_INVALID
    fan, code = _load_or_exit(args)
    if fan is None:
        return code
    timings = {} if args.timings else None
    report = run_verification(
        fan, tol=args.tol, samples=args.samples, seed=args.seed, tamper=args.tamper, timings=timings
    )
    _emit(report, args.out)
    if args.timings:
        Path(args.timings).write_text(json.dumps({"fan": fan.name, "seconds": timings}, indent=2) + "\n")
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# mesh export
# ---------------------------------------------------------------------------


def _off_text(vertices, faces):
    lines = ["OFF", f"{len(vertices)} {len(faces)} 0"]
    for v in vertices:
        coords = list(v) + [0.0] * (3 - len(v))
        lines.append(" ".join(f"{c:.9f}" for c in coords))
    for f in faces:
        lines.append(" ".join([str(len(f))] + [str(i) for i in f]))
    return "\n".join(lines) + "\n"


def _mesh_sphere(fan: Fan, radius: float, res: int):
    """Triangulated image of the radius-r sphere under the rescaling map,
    sampled flag cone by flag cone."""
    vertices = []
    vertex_ids = {}
    faces = []

    def vid(point):
        key = tuple(round(c, 9) for c in point)
        if key not in vertex_ids:
            vertex_ids[key] = len(vertices)
            vertices.append(point)
        return vertex_ids[key]

    for flag in enumerate_flags(fan, only_maximal=True):
        gens = flag.barycenters
        if fan.dim == 2:
            # Simplicial coordinates scale with the point, so they come
            # straight from the interpolation weights; the closed polygon
            # is assembled from all boundary vertices afterwards.
            b1, b2 = gens
            for t in range(res + 1):
                a, c = (res - t) / res, t / res
                direction = tuple(a * x + c * y for x, y in zip(b1, b2))
                norm = math.sqrt(sum(v * v for v in direction))
                scale = radius / norm
                vid(phi_point(gens, [a * scale, c * scale], fan.dim))
        else:
            grid = {}
            b1, b2, b3 = gens
            for i in range(res + 1):
                for j in range(res + 1 - i):
                    k = res - i - j
                    direction = tuple(
                        i * x + j * y + k * z for x, y, z in zip(b1, b2, b3)
                    )
                    norm = math.sqrt(sum(v * v for v in direction))
                    scale = radius / norm
                    point = phi_point(gens, [i * scale, j * scale, k * scale], fan.dim)
                    grid[(i, j)] = vid(point)
            for i in range(res):
                for j in range(res - i):
                    faces.append([grid[(i, j)], grid[(i + 1, j)], grid[(i, j + 1)]])
                    if j < res - i - 1:
                        faces.append([grid[(i + 1, j)], grid[(i + 1, j + 1)], grid[(i, j + 1)]])
    if fan.dim == 2:
        # Reassemble boundary segments into one closed polygon.
        order = sorted(range(len(vertices)), key=lambda i: math.atan2(vertices[i][1], vertices[i][0]))
        faces = [order]
    return vertices, faces


def _mesh_boundary(fan: Fan):
    """The limiting boundary model: one vertex per nonzero cone at its
    normalized barycenter, one (n-1)-simplex per maximal flag."""
    cones = [c for c in fan.cones() if c.dim > 0]
    ids = {}
    vertices = []
    for c in cones:
        b = barycenter(c)
        norm = math.sqrt(sum(v * v for v in b))
        ids[c.rays] = len(vertices)
        vertices.append(tuple(v / norm for v in b))
    faces = []
    for flag in enumerate_flags(fan, only_maximal=True):
        faces.append([ids[c.rays] for c in flag.cones])
    if fan.dim == 2:
        order = sorted(ids.values(), key=lambda i: math.atan2(vertices[i][1], vertices[i][0]))
        faces = [order]
    return vertices, faces


def cmd_mesh(args) -> int:
    fan, code = _load_or_exit(args)
    if fan is None:
        return code
    if fan.dim not in (2, 3):
        print("mesh export supports dimensions 2 and 3 only", file=sys.stderr)
        return EXIT_INVALID
    try:
        radii = [float(r) for r in args.radii.split(",")]
    except ValueError:
        print("could not parse --radii", file=sys.stderr)
        return EXIT_INVALID
    if args.res < 1 or not all(math.isfinite(r) and r > 0 for r in radii):
        print("resolution must be positive, and the radii finite and positive", file=sys.stderr)
        return EXIT_INVALID
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for r in radii:
        vertices, faces = _mesh_sphere(fan, r, args.res)
        name = f"{fan.name}_r{r:g}.off"
        (outdir / name).write_text(_off_text(vertices, faces))
        written.append(name)
    vertices, faces = _mesh_boundary(fan)
    name = f"{fan.name}_boundary.off"
    (outdir / name).write_text(_off_text(vertices, faces))
    written.append(name)
    print(json.dumps({"written": written}, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(prog="toricball", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check fan axioms and completeness")
    p.add_argument("file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("charts", help="dump per-flag chart data")
    p.add_argument("file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_charts)

    p = sub.add_parser("param", help="evaluate the boundary parameterization")
    p.add_argument("file")
    p.add_argument("--flag", type=int, required=True)
    p.add_argument("--xi", type=str, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_param)

    p = sub.add_parser("verify", help="run the full certification suite")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--tamper", action="store_true", help="negative control: perturb one chart")
    p.add_argument("--timings", default=None, help="write each check's wall seconds to this JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mesh", help="export OFF meshes of rescaled spheres")
    p.add_argument("file")
    p.add_argument("--radii", type=str, required=True)
    p.add_argument("--res", type=int, default=8)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mesh)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
