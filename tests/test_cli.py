"""Exit-code contract, report shape, determinism of the CLI."""

import argparse
import itertools
import json
import math
import re
from collections import Counter
from pathlib import Path

import pytest

import toricball as tb
from conftest import cube_faces_fan, get_fan, stellar_fan, wps_fan
from toricball import cli
from toricball.bary import enumerate_flags
from toricball.cli import build_parser, main
from toricball.exact import primitive
from toricball.homeo import phi_point


def fan_path(name):
    return str(tb.bundled_path(name))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_failing(capsys, workdir, *argv):
    """Exit code and stderr of a command that must fail with nothing on
    stdout and no file written under workdir, the working directory."""
    before = sorted(workdir.rglob("*"))
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert sorted(workdir.rglob("*")) == before
    return code, captured.err


# Each way a fan file can fail to load: its bytes (None: no file), the
# exit code and the one line on stderr.
LOAD_FAILURES = {
    "missing": (None, 1, "[Errno 2] No such file or directory: 'fan.json'"),
    "non_utf8": (
        '{"name": "caf\xe9"}'.encode("latin-1"),
        1,
        "parse error: 'utf-8' codec can't decode byte 0xe9 in position 13: invalid continuation byte",
    ),
    "malformed": (
        b"{nope",
        1,
        "parse error: invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    ),
    "nonprimitive": (
        b'{"dim": 2, "rays": [[2, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [2, 0]]}',
        2,
        "invalid fan: ray 0 = (2, 0) is not primitive",
    ),
    "incomplete": (
        b'{"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2]]}',
        3,
        "fan is not complete",
    ),
}

COMMAND_OPTIONS = {
    "validate": [],
    "charts": [],
    "param": ["--flag", "0", "--xi", "1,0,0"],
    "verify": [],
    "mesh": ["--radii", "1", "--res", "2"],
}


@pytest.mark.parametrize(
    "command, failure",
    [(c, f) for c in COMMAND_OPTIONS for f in LOAD_FAILURES if (c, f) != ("validate", "incomplete")],
)
def test_load_failure(tmp_path, monkeypatch, capsys, command, failure):
    """Every command that cannot load its fan exits with the failure's
    code and one line on stderr, writing nothing.  validate instead
    reports an incomplete fan on stdout (test_validate_incomplete)."""
    data, code, message = LOAD_FAILURES[failure]
    monkeypatch.chdir(tmp_path)
    if data is not None:
        (tmp_path / "fan.json").write_bytes(data)
    assert run_failing(capsys, tmp_path, command, "fan.json", *COMMAND_OPTIONS[command]) == (code, message + "\n")


@pytest.mark.parametrize("command", COMMAND_OPTIONS)
def test_parser_reads_file_and_out(capsys, command):
    """Every command takes the fan file and --out, and dispatches to its
    cmd_ function; --help exits 0 with the command's usage."""
    parser = build_parser()
    args = parser.parse_args([command, "fan.json", *COMMAND_OPTIONS[command]])
    assert (args.file, args.out, args.func) == ("fan.json", None, getattr(cli, f"cmd_{command}"))
    assert parser.parse_args([command, "fan.json", "--out", "dir", *COMMAND_OPTIONS[command]]).out == "dir"
    with pytest.raises(SystemExit) as exit_info:
        parser.parse_args([command, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: toricball {command} ")


def test_main_builds_the_parser_at_most_once(monkeypatch, capsys):
    """Two main calls share one parser: the top-level ArgumentParser is
    constructed at most once over both (not at all when an earlier call
    in this process built it)."""
    built = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(2):
        assert main(["validate", fan_path("p2")]) == 0
    constructed = built.count("toricball")
    assert constructed <= 1, built
    argparse.ArgumentParser(prog="toricball")
    assert built.count("toricball") == constructed + 1  # the counter does see a construction
    capsys.readouterr()


def test_validate_complete(capsys):
    code, out = run(capsys, "validate", fan_path("p2"))
    assert code == 0
    doc = json.loads(out)
    assert doc["cones"] == 7 and doc["complete"]


def test_validate_incomplete(tmp_path, capsys):
    f = tmp_path / "a2.json"
    f.write_text('{"dim": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}')
    code, out = run(capsys, "validate", str(f))
    assert code == 3
    assert not json.loads(out)["complete"]


def test_validate_malformed(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{nope")
    assert main(["validate", str(f)]) == 1


def test_validate_rejects_booleans(tmp_path, capsys):
    # true in dim and in a ray would otherwise read as 1: P^1.
    f = tmp_path / "bools.json"
    f.write_text('{"dim": true, "rays": [[true], [-1]], "max_cones": [[0], [1]]}')
    assert main(["validate", str(f)]) == 1
    assert "parse error" in capsys.readouterr().err


def test_validate_invalid(tmp_path, capsys):
    f = tmp_path / "bad_ray.json"
    f.write_text('{"dim": 2, "rays": [[2, 0], [0, 1]], "max_cones": [[0, 1]]}')
    assert main(["validate", str(f)]) == 2


def test_validate_rejects_a_ray_twice_in_one_cone(tmp_path, capsys):
    """P^2 with ray 0 listed twice in its first cone is not read as the
    cone {0, 1}: exit 2, naming the cone and the index."""
    f = tmp_path / "ray_twice.json"
    f.write_text('{"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 0, 1], [1, 2], [2, 0]]}')
    assert main(["validate", str(f)]) == 2
    assert "maximal cone 0 lists ray 0 twice" in capsys.readouterr().err


def test_validate_unreadable_input(tmp_path, capsys):
    """A missing file and a directory exit 1 with the error on stderr,
    not a traceback."""
    for path in (tmp_path / "missing.json", tmp_path):
        assert main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and str(path) in captured.err


def test_validate_non_utf8_input(tmp_path, capsys):
    f = tmp_path / "latin1.json"
    f.write_bytes('{"name": "caf\xe9"}'.encode("latin-1"))
    assert main(["validate", str(f)]) == 1
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["verify"], ["mesh", "--radii", "1", "--res", "2"]])
def test_out_naming_a_regular_file(tmp_path, capsys, command):
    """--out names a directory; an existing regular file there is an
    output that cannot be written: exit 1, the file left as it was."""
    f = tmp_path / "taken"
    f.write_text("keep\n")
    assert main([command[0], fan_path("p2"), *command[1:], "--out", str(f)]) == 1
    assert str(f) in capsys.readouterr().err
    assert f.read_text() == "keep\n"


def test_verify_unwritable_timings(tmp_path, capsys):
    """The report is already out when the timings file fails to open;
    the command still exits 1 and names the path."""
    timings = tmp_path / "missing" / "t.json"
    assert main(["verify", fan_path("p1"), "--timings", str(timings)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["passed"] and str(timings) in captured.err


def test_charts_p1(capsys):
    code, out = run(capsys, "charts", fan_path("p1"))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["charts"]) == 2
    assert all(ch["b"] == [[1]] for ch in doc["charts"])


def test_charts_p2_first_chart(capsys):
    code, out = run(capsys, "charts", fan_path("p2"))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["charts"]) == 6
    first = doc["charts"][0]
    assert first["flag"] == [[0], [0, 1]]
    assert first["b"] == [[1, 1], [0, 1], [1, 0]]


def test_charts_p1xp1_triangular(capsys):
    code, out = run(capsys, "charts", fan_path("p1xp1"))
    doc = json.loads(out)
    assert len(doc["charts"]) == 8
    for ch in doc["charts"]:
        b = ch["b"]
        for i in range(2):
            # Smooth cones give a unit diagonal.
            assert b[i][i] == 1
            assert all(b[i][j] == 0 for j in range(i))


def test_param_vertices(capsys):
    code, out = run(capsys, "param", fan_path("p2"), "--flag", "0", "--xi", "1,0,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["values"] == [1.0, 1.0]
    code, out = run(capsys, "param", fan_path("p2"), "--flag", "0", "--xi", "0,0,1")
    assert json.loads(out)["values"] == [0.0, 0.0]


def test_param_verdict_rests_on_left_to_right_total(capsys):
    """Added left to right, 1.0000000000009999 + 6e-17 + 6e-17 stays
    1.0000000000009999, within 1e-12 of 1; a compensated sum() (Python
    3.12 on, or tests/compensated_sum.py) rounds it up past 1e-12.  The
    verdict must not depend on the interpreter."""
    code, out = run(capsys, "param", fan_path("p2"), "--flag", "0", "--xi", "1.0000000000009999,6e-17,6e-17")
    assert code == 0
    assert json.loads(out)["w"] == [1.0000000000009999, 1.0000000000009999]


def test_param_bad_xi(tmp_path, monkeypatch, capsys):
    """Each bad --flag or --xi exits 2 with its stderr line; the rank-0
    fan, whose zero cone is its one maximal cone, has no maximal flag to
    index."""
    point = tmp_path / "point.json"
    point.write_text('{"dim": 0, "rays": [], "max_cones": [[]]}')
    monkeypatch.chdir(tmp_path)
    for fan, flag, xi, message in [
        (fan_path("p2"), "0", "0.5,0.7,0.5", "bad barycentric coordinates: barycentric coordinates must sum to 1"),
        (fan_path("p2"), "0", "0.2,0.3", "bad barycentric coordinates: barycentric coordinates must sum to 1"),
        (fan_path("p2"), "0", "nan,0.5,0.5", "bad barycentric coordinates: barycentric coordinates must be finite"),
        (fan_path("p2"), "0", "a,b", "could not parse --xi"),
        (fan_path("p2"), "9", "1,0,0", "flag index out of range (0..5)"),
        (fan_path("p2"), "99", "1,0,0", "flag index out of range (0..5)"),
        (str(point), "0", "1", "fan has no maximal flags"),
    ]:
        argv = ["param", fan, "--flag", flag, "--xi", xi]
        assert run_failing(capsys, tmp_path, *argv) == (2, message + "\n")


def test_verify_passes(capsys):
    code, out = run(capsys, "verify", fan_path("p2"))
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"]
    names = {c["name"] for c in doc["checks"]}
    assert names == {
        "chart_invariants",
        "monomial_diagram",
        "simplex_inversion",
        "cover",
        "intersection_gluing",
        "regularity",
        "hilbert_minimality",
        "nonextension_probe",
    }


def test_verify_tamper_fails(capsys):
    code, out = run(capsys, "verify", fan_path("p2"), "--tamper")
    assert code == 4
    doc = json.loads(out)
    failed = {c["name"] for c in doc["checks"] if not c["passed"]}
    assert "monomial_diagram" in failed
    # The exact gate names the perturbed entry: the last row and column
    # of the first chart.
    diagram = next(c for c in doc["checks"] if c["name"] == "monomial_diagram")
    assert diagram["witness"]["flag"] == 0 and diagram["witness"]["column"] == 1
    assert diagram["witness"]["found"] == diagram["witness"]["expected"] + 1
    # The tamper leaves the flag's inverse alone, so the dual-basis gate holds.
    assert "dual_witness" not in diagram


def test_verify_tamper_on_the_nonprojective_fan(capsys):
    """The negative control on a complete fan that is not projective:
    the tampered b fails monomial_diagram, the one certificate of b's
    values, and intersection_gluing through its gate; nothing else."""
    fan = Path(__file__).parent / "data" / "golden" / "verify_nonprojective" / "fan.json"
    code, out = run(capsys, "verify", str(fan), "--seed", "0", "--tamper")
    assert code == 4
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
    assert failed == ["monomial_diagram", "intersection_gluing"]


def test_verify_rejects_nonfinite_tol(tmp_path, capsys):
    """verify takes no tolerance: the equality tolerance is the constant
    charts.EQUAL_TOL, so --tol, even at that value, is argparse's usage
    error, exit 2 before any work, and no report is written."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", fan_path("p2"), "--tol", "1e-9", "--out", str(out)])
    assert exit_info.value.code == 2
    assert not out.exists()
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_verify_option_set(capsys):
    """verify's options, as its usage line names them."""
    with pytest.raises(SystemExit):
        build_parser().parse_args(["verify", "--help"])
    usage = capsys.readouterr().out.partition("\n\n")[0]
    assert set(re.findall(r"\[(--[a-z]+)", usage)) == {"--out", "--seed", "--tamper", "--timings"}


def test_verify_incomplete_exit(tmp_path):
    f = tmp_path / "a2.json"
    f.write_text('{"dim": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}')
    assert main(["verify", str(f)]) == 3


def test_verify_rank0(tmp_path, capsys):
    # The rank-0 fan is complete; the empty flag covers the point N_R.
    f = tmp_path / "point.json"
    f.write_text('{"dim": 0, "rays": [], "max_cones": [[]]}')
    assert run(capsys, "validate", str(f))[0] == 0
    code, out = run(capsys, "verify", str(f))
    assert code == 0
    assert {"name": "cover", "passed": True} in json.loads(out)["checks"]


def test_verify_tamper_rank0_exits_2(tmp_path, capsys):
    """The rank-0 fan has no chart for --tamper to perturb, so the
    negative control would pass unperturbed: exit 2 with one line on
    stderr and no report."""
    f = tmp_path / "point.json"
    f.write_text('{"dim": 0, "rays": [], "max_cones": [[]]}')
    message = "tamper needs a chart to perturb, and a rank-0 fan has none\n"
    assert run_failing(capsys, tmp_path, "verify", str(f), "--tamper", "--out", str(tmp_path / "out")) == (2, message)


def test_cover_reports_witness_on_failure():
    import random

    from toricball import verify

    fan = tb.validate_fan(2, [(1, 0), (0, 1)], [[0, 1]], require_complete=False)
    ctx = verify.Context(fan, None, [], random.Random(0))
    witness = {"reason": "facet not shared by exactly two maximal cones", "facet": [0], "count": 1}
    assert verify._cover(ctx) == (False, {"witness": witness})


def test_verify_timings_separate_artifact(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    timings = tmp_path / "timings.json"
    main(["verify", fan_path("p2"), "--out", str(a), "--timings", str(timings)])
    main(["verify", fan_path("p2"), "--out", str(b)])
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    doc = json.loads(timings.read_text())
    names = [c["name"] for c in json.loads((a / "report.json").read_text())["checks"]]
    assert doc["fan"] == "p2" and list(doc["seconds"]) == names
    assert all(s >= 0 for s in doc["seconds"].values())


def test_verify_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["verify", fan_path("p112"), "--seed", "5", "--out", str(a)])
    main(["verify", fan_path("p112"), "--seed", "5", "--out", str(b)])
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_mesh_p2(tmp_path, capsys):
    code, _ = run(capsys, "mesh", fan_path("p2"), "--radii", "1,3", "--res", "6", "--out", str(tmp_path))
    assert code == 0
    files = sorted(p.name for p in tmp_path.glob("*.off"))
    assert files == ["p2_boundary.off", "p2_r1.off", "p2_r3.off"]
    lines = (tmp_path / "p2_r1.off").read_text().splitlines()
    assert lines[0] == "OFF"
    nv, nf, _ = map(int, lines[1].split())
    assert nv > 0 and nf == 1  # closed polygon in rank two
    # Boundary model is combinatorially a hexagon.
    blines = (tmp_path / "p2_boundary.off").read_text().splitlines()
    assert int(blines[1].split()[0]) == 6


def test_mesh_cube_fan(tmp_path, capsys):
    code, _ = run(capsys, "mesh", fan_path("p1xp1xp1"), "--radii", "2", "--res", "3", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "p1xp1xp1_r2.off").read_text().splitlines()
    nv, nf, _ = map(int, lines[1].split())
    assert nf == 48 * 9  # res^2 triangles per flag cone
    blines = (tmp_path / "p1xp1xp1_boundary.off").read_text().splitlines()
    bnv, bnf, _ = map(int, blines[1].split())
    assert bnv == 26 and bnf == 48


def test_mesh_off_indices_valid(tmp_path, capsys):
    run(capsys, "mesh", fan_path("p1xp1xp1"), "--radii", "1", "--res", "5", "--out", str(tmp_path))
    lines = (tmp_path / "p1xp1xp1_r1.off").read_text().splitlines()
    nv, nf, _ = map(int, lines[1].split())
    assert len(lines) == 2 + nv + nf
    for line in lines[2 : 2 + nv]:
        assert len(line.split()) == 3
    for line in lines[2 + nv :]:
        parts = [int(x) for x in line.split()]
        assert parts[0] == len(parts) - 1
        assert all(0 <= i < nv for i in parts[1:])


def test_mesh_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        main(["mesh", fan_path("p2"), "--radii", "2", "--res", "5", "--out", str(d)])
    assert (a / "p2_r2.off").read_bytes() == (b / "p2_r2.off").read_bytes()


@pytest.mark.parametrize("radii", ["nan", "inf", "1,nan"])
def test_mesh_rejects_nonfinite_radii(tmp_path, capsys, radii):
    assert main(["mesh", fan_path("p2"), "--radii", radii, "--res", "4", "--out", str(tmp_path)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.off"))


@pytest.mark.parametrize("name", ["../escaped", "a/b", 7], ids=["parent", "slash", "number"])
def test_mesh_rejects_unsafe_fan_name(tmp_path, capsys, name):
    """mesh names its files after the fan, so a name that is not one
    plain path component is a parse error, and nothing is written, in
    --out or beside it."""
    doc = json.loads(tb.bundled_path("p2").read_text())
    f = tmp_path / "fan.json"
    f.write_text(json.dumps({**doc, "name": name}))
    out = tmp_path / "out"
    assert main(["mesh", str(f), "--radii", "1", "--res", "2", "--out", str(out)]) == 1
    assert "parse error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["fan.json"]


@pytest.mark.parametrize("name, counts", [("p2", (18, 1)), ("p1xp1xp1", (218, 432))])
def test_mesh_tiny_radius_keeps_every_vertex(tmp_path, capsys, name, counts):
    """Vertices are keyed by their grid direction, not their rounded
    coordinates: at radius 1e-12, where every coordinate prints as 0,
    the mesh has the vertices and faces of radius 1."""
    code, _ = run(capsys, "mesh", fan_path(name), "--radii", "1e-12,1", "--res", "3", "--out", str(tmp_path))
    assert code == 0
    meshes = []
    for radius in ("1e-12", "1"):
        lines = (tmp_path / f"{name}_r{radius}.off").read_text().splitlines()
        nv, nf, _ = map(int, lines[1].split())
        meshes.append(((nv, nf), lines[2 + nv :]))
    assert meshes[0] == meshes[1] and meshes[0][0] == counts


def test_mesh_unsupported_dim(tmp_path, monkeypatch, capsys):
    """An unsupported rank, like an unparsable or non-positive option,
    exits 2 before any mesh is written to the working directory."""
    monkeypatch.chdir(tmp_path)
    for argv, message in [
        ([fan_path("p1"), "--radii", "1", "--res", "4"], "mesh export supports dimensions 2 and 3 only"),
        ([fan_path("p2"), "--radii", "x"], "could not parse --radii"),
        (
            [fan_path("p2"), "--radii", "1", "--res", "0"],
            "resolution must be positive, and the radii finite and positive",
        ),
    ]:
        assert run_failing(capsys, tmp_path, "mesh", *argv) == (2, message + "\n")


def test_mesh_rejects_radii_that_share_a_file(tmp_path, monkeypatch, capsys):
    """Each radius names its file with 6 significant digits, so radii
    that agree in them would overwrite one file: that exits 2 before
    anything is written, naming the first two such radii as given."""
    monkeypatch.chdir(tmp_path)
    for radii, message in [
        ("1,1.0000001,1e0", "radii 1 and 1.0000001 would both be written to p2_r1.off"),
        ("3, 0.5, 3.0", "radii 3 and 3.0 would both be written to p2_r3.off"),
    ]:
        argv = [fan_path("p2"), "--radii", radii, "--res", "2", "--out", "out"]
        assert run_failing(capsys, tmp_path, "mesh", *argv) == (2, message + "\n")


def _reference_off_text(vertices, faces):
    """cli._off_text as it was, one format call per coordinate."""
    lines = ["OFF", f"{len(vertices)} {len(faces)} 0"]
    for v in vertices:
        coords = list(v) + [0.0] * (3 - len(v))
        lines.append(" ".join(f"{c:.9f}" for c in coords))
    for f in faces:
        lines.append(" ".join([str(len(f))] + [str(i) for i in f]))
    return "\n".join(lines) + "\n"


def _reference_mesh_sphere(fan, radius, res):
    """The per-radius sphere mesh that cli._sphere_grid and
    cli._sphere_vertices split in two, kept as their reference: every
    grid direction is formed and keyed again for each radius."""
    vertices = []
    vertex_ids = {}
    faces = []

    def vid(direction, point):
        key = primitive(direction)
        if key not in vertex_ids:
            vertex_ids[key] = len(vertices)
            vertices.append(point())
        return vertex_ids[key]

    def sphere_point(gens, direction, weights):
        scale = radius / math.sqrt(sum(v * v for v in direction))
        return phi_point(gens, [w * scale for w in weights], len(direction))

    for flag in enumerate_flags(fan):
        gens = flag.barycenters
        if fan.dim == 2:
            b1, b2 = gens
            for t in range(res + 1):
                a, c = (res - t) / res, t / res
                direction = tuple(a * x + c * y for x, y in zip(b1, b2))
                lattice = [(res - t) * x + t * y for x, y in zip(b1, b2)]
                vid(lattice, lambda: sphere_point(gens, direction, (a, c)))
        else:
            grid = {}
            b1, b2, b3 = gens
            for i in range(res + 1):
                for j in range(res + 1 - i):
                    k = res - i - j
                    direction = tuple(i * x + j * y + k * z for x, y, z in zip(b1, b2, b3))
                    grid[(i, j)] = vid(direction, lambda: sphere_point(gens, direction, (i, j, k)))
            for i in range(res):
                for j in range(res - i):
                    faces.append([grid[(i, j)], grid[(i + 1, j)], grid[(i, j + 1)]])
                    if j < res - i - 1:
                        faces.append([grid[(i + 1, j)], grid[(i + 1, j + 1)], grid[(i, j + 1)]])
    return vertices, faces


def _reference_off(fan, vertices, faces):
    """The OFF text of a mesh, closed into one polygon in rank two."""
    if fan.dim == 2:
        faces = [sorted(range(len(vertices)), key=lambda i: math.atan2(vertices[i][1], vertices[i][0]))]
    return _reference_off_text(vertices, faces)


# The rank-2 and rank-3 bundled fans, the benchmark's six
# P(1,...,1,k), as (rank, k), and fans where many flags meet on one
# subflag: the non-simplicial cube-faces fan (48 flags) and three
# stellar subdivisions, as (base, steps, c_max, seed).
MESH_WPS = {f"wps_{'1_' * (n - 1)}{k}": (n, k) for n, k in ((2, 2), (2, 7), (2, 20), (3, 3), (3, 9), (3, 27))}
MESH_STELLAR = {
    f"{base}_stellar_{steps}_{c_max}_{seed}": (base, steps, c_max, seed)
    for base, steps, c_max, seed in (("p3", 6, 12, 0), ("twisted_p3", 8, 3, 2), ("p2", 6, 5, 0))
}
MESH_BUNDLED = [name for name in tb.BUNDLED_FANS if get_fan(name).dim in (2, 3)]
MESH_FANS = MESH_BUNDLED + list(MESH_WPS) + ["cube_faces"] + list(MESH_STELLAR)


def _mesh_fan_file(directory, name):
    """The path of a fan file named name, and its fan."""
    if name in MESH_BUNDLED:
        return fan_path(name), get_fan(name)
    if name in MESH_WPS:
        fan = wps_fan(*MESH_WPS[name])
    elif name in MESH_STELLAR:
        base, *rest = MESH_STELLAR[name]
        fan = stellar_fan(get_fan(base), *rest)
    else:
        fan = cube_faces_fan()
    doc = {"name": name, "dim": fan.dim, "rays": [list(r) for r in fan.rays], "max_cones": [sorted(c) for c in fan.max_cones]}
    path = directory / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path), tb.parse_and_validate(path.read_text())


@pytest.mark.parametrize("res", [1, 3, 8])
@pytest.mark.parametrize("name", MESH_FANS)
@pytest.mark.python_O
def test_mesh_matches_the_per_radius_reference(tmp_path, capsys, name, res):
    """One mesh command writes, byte for byte, the files of the
    per-radius reference, from a radius whose coordinates all print as
    0 to one where they near the boundary model's."""
    path, fan = _mesh_fan_file(tmp_path, name)
    radii = {"1e-12": 1e-12, "1": 1.0, "16": 16.0, "1e+06": 1e6}
    code, out = run(capsys, "mesh", path, "--radii", ",".join(radii), "--res", str(res), "--out", str(tmp_path / "out"))
    names = [f"{name}_r{r}.off" for r in radii] + [f"{name}_boundary.off"]
    assert code == 0 and json.loads(out) == {"written": names}
    expected = [_reference_off(fan, *_reference_mesh_sphere(fan, r, res)) for r in radii.values()]
    expected.append(_reference_off(fan, *cli._mesh_boundary(fan)))
    assert [(tmp_path / "out" / f).read_text() for f in names] == expected


@pytest.mark.parametrize("name", ["p2", "twisted_p3"])
def test_mesh_radii_together_as_alone(tmp_path, capsys, name):
    """Each file of a command with several radii is the file that a
    command with that radius alone writes."""
    radii = ["0.5", "1", "4", "16"]
    assert run(capsys, "mesh", fan_path(name), "--radii", ",".join(radii), "--res", "4", "--out", str(tmp_path / "all"))[0] == 0
    for r in radii:
        assert run(capsys, "mesh", fan_path(name), "--radii", r, "--res", "4", "--out", str(tmp_path / r))[0] == 0
        for f in (f"{name}_r{r}.off", f"{name}_boundary.off"):
            assert (tmp_path / "all" / f).read_bytes() == (tmp_path / r / f).read_bytes()


def test_mesh_builds_the_grid_once_per_command(tmp_path, monkeypatch, capsys):
    """The sphere grid does not depend on the radius, so one command
    builds it once, whether it meshes one radius or four: one
    _sphere_grid call, which reads the flags once, and one more reading
    of the flags for the boundary model.  The grid keys its points
    without primitive, so the spies watch the grid and the flags."""
    calls = []

    def spy(name, func):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)

    spy("_sphere_grid", cli._sphere_grid)
    spy("enumerate_flags", cli.enumerate_flags)
    counts = []
    for radii in ("1", "1,2,3,4"):
        calls.clear()
        assert run(capsys, "mesh", fan_path("p1xp1xp1"), "--radii", radii, "--res", "3", "--out", str(tmp_path))[0] == 0
        counts.append(list(calls))
    assert counts == [["_sphere_grid", "enumerate_flags", "enumerate_flags"]] * 2


def test_mesh_renders_the_face_block_once_per_command(tmp_path, monkeypatch, capsys):
    """In rank three every sphere file has the grid's face lines, so one
    command renders its 48 flags x 9 triangles once, whether it meshes
    one radius or four; the boundary model's 48 triangles are the only
    other face lines it renders."""
    calls = []

    def spy(faces):
        calls.append(len(faces))
        return face_block(faces)

    face_block = cli._face_block
    monkeypatch.setattr(cli, "_face_block", spy)
    counts = []
    for radii in ("1", "1,2,3,4"):
        calls.clear()
        assert run(capsys, "mesh", fan_path("p1xp1xp1"), "--radii", radii, "--res", "3", "--out", str(tmp_path))[0] == 0
        counts.append(list(calls))
    assert counts == [[432, 48], [432, 48]]


def _read_off(path):
    """The vertex count and the faces of an OFF file."""
    lines = path.read_text().splitlines()
    nv, nf, _ = map(int, lines[1].split())
    return nv, [[int(x) for x in line.split()[1:]] for line in lines[2 + nv : 2 + nv + nf]]


def _surface_defects(nv, triangles):
    """How triangles on vertices 0..nv-1 fail to be a closed surface of
    Euler characteristic 2: "edge" if an undirected edge lies in other
    than two triangles, "unused" if a vertex is in none, and "euler" if
    V - E + F != 2."""
    edges = Counter(frozenset(e) for a, b, c in triangles for e in ((a, b), (b, c), (c, a)))
    defects = []
    if any(count != 2 for count in edges.values()):
        defects.append("edge")
    if set(itertools.chain.from_iterable(triangles)) != set(range(nv)):
        defects.append("unused")
    if nv - len(edges) + len(triangles) != 2:
        defects.append("euler")
    return defects


@pytest.mark.parametrize("res", [1, 2, 3, 4])
@pytest.mark.parametrize("name", ["p1xp1xp1", "p3", "twisted_p3", "cube_faces", "p3_stellar_6_12_0"])
@pytest.mark.python_O
def test_sphere_mesh_is_a_closed_surface(tmp_path, capsys, name, res):
    """Every rank-3 sphere file triangulates a 2-sphere: flags that
    share a grid point share its vertex, and no others do, so each edge
    lies in two triangles, every vertex is used, and V - E + F = 2."""
    path, fan = _mesh_fan_file(tmp_path, name)
    assert fan.dim == 3
    radii = ["1e-12", "1", "16"]
    assert run(capsys, "mesh", path, "--radii", ",".join(radii), "--res", str(res), "--out", str(tmp_path / "out"))[0] == 0
    for r in radii:
        assert _surface_defects(*_read_off(tmp_path / "out" / f"{name}_r{r}.off")) == []


@pytest.mark.python_O
def test_closed_surface_check_catches_split_and_merged_vertices(tmp_path, capsys):
    """Negative controls on a real sphere mesh: one triangle's corner
    given a vertex of its own leaves two edges in one triangle, and two
    vertices with no common neighbour merged into one leave every edge
    in two triangles but V - E + F = 1."""
    assert run(capsys, "mesh", fan_path("p3"), "--radii", "1", "--res", "2", "--out", str(tmp_path))[0] == 0
    nv, triangles = _read_off(tmp_path / "p3_r1.off")
    assert _surface_defects(nv, triangles) == []

    split = [list(t) for t in triangles]
    split[0][0] = nv
    assert "edge" in _surface_defects(nv + 1, split)

    closed = [set() for _ in range(nv)]  # each vertex and its neighbours
    for t in triangles:
        for v in t:
            closed[v].update(t)
    a, b = next((a, b) for a in range(nv) for b in range(a + 1, nv) if not closed[a] & closed[b])
    merged = [[a if v == b else v - (v > b) for v in t] for t in triangles]
    assert _surface_defects(nv - 1, merged) == ["euler"]


def test_hilbert_minimality_names_witnesses():
    """A passing check reports only the cone count; with the sum of two
    generators appended to every basis it names at most five cones with
    the redundant generator and a reducer."""
    import dataclasses
    import random

    from toricball import verify

    fan = tb.load_bundled("p112")
    atlas = tb.Atlas(fan)
    ctx = verify.Context(fan, atlas, [], random.Random(0))
    cones = fan.cones()
    assert verify._hilbert_minimality(ctx) == (True, {"cones": len(cones)})
    for cone in cones:
        sem = atlas.hilbert(cone)
        if sem.pointed:
            a, b = sem.generators[:2]
            total = tuple(x + y for x, y in zip(a, b))
            atlas._hilbert[cone.rays] = dataclasses.replace(sem, pointed=sem.pointed + (total,))
    passed, details = verify._hilbert_minimality(ctx)
    assert not passed
    # On a ray's halfplane, a + b also makes a redundant (a = (a + b) - b).
    assert details == {
        "cones": len(cones),
        "witnesses": [
            {"cone": [0], "generator": [1, 0], "reducer": [1, 1]},
            {"cone": [0], "generator": [1, 1], "reducer": [1, 0]},
            {"cone": [1], "generator": [0, 1], "reducer": [1, 1]},
            {"cone": [1], "generator": [1, 1], "reducer": [0, 1]},
            {"cone": [2], "generator": [-1, 0], "reducer": [-3, 1]},
        ],
    }
