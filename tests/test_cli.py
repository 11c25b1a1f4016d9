"""Exit-code contract, report shape, determinism of the CLI."""

import json

import pytest

import toricball as tb
from toricball.cli import main


def fan_path(name):
    return str(tb.bundled_path(name))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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


def test_validate_invalid(tmp_path, capsys):
    f = tmp_path / "bad_ray.json"
    f.write_text('{"dim": 2, "rays": [[2, 0], [0, 1]], "max_cones": [[0, 1]]}')
    assert main(["validate", str(f)]) == 2


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


def test_param_bad_xi(capsys):
    assert main(["param", fan_path("p2"), "--flag", "0", "--xi", "0.5,0.7,0.5"]) == 2
    assert main(["param", fan_path("p2"), "--flag", "99", "--xi", "1,0,0"]) == 2
    capsys.readouterr()
    assert main(["param", fan_path("p2"), "--flag", "0", "--xi", "nan,0.5,0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


def test_verify_passes(capsys):
    code, out = run(capsys, "verify", fan_path("p2"), "--samples", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"]
    names = {c["name"] for c in doc["checks"]}
    assert {"monomial_diagram", "intersection_gluing", "ball_model", "regularity"} <= names


def test_verify_tamper_fails(capsys):
    code, out = run(capsys, "verify", fan_path("p2"), "--samples", "20", "--tamper")
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


def test_verify_rejects_nonfinite_tol(tmp_path, capsys):
    # NaN compares false with everything, and inf makes every sampled
    # gap pass, so neither is a tolerance; no report is written.
    for tol in ("nan", "inf", "-inf", "0"):
        out = tmp_path / tol
        assert main(["verify", fan_path("p2"), f"--tol={tol}", "--samples", "2", "--out", str(out)]) == 2
        assert not out.exists()
    assert "finite" in capsys.readouterr().err


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


def test_cover_reports_witness_on_failure():
    import random

    from toricball import verify

    fan = tb.validate_fan(2, [(1, 0), (0, 1)], [[0, 1]], require_complete=False)
    ctx = verify.Context(fan, None, [], [], fan.dim, 1e-9, 0, 0, random.Random(0))
    witness = {"reason": "ridge not shared by exactly two maximal flags", "ridge": [[0]], "count": 1}
    assert verify._cover(ctx) == (False, {"witness": witness})


def test_verify_timings_separate_artifact(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    timings = tmp_path / "timings.json"
    main(["verify", fan_path("p2"), "--samples", "5", "--out", str(a), "--timings", str(timings)])
    main(["verify", fan_path("p2"), "--samples", "5", "--out", str(b)])
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    doc = json.loads(timings.read_text())
    names = [c["name"] for c in json.loads((a / "report.json").read_text())["checks"]]
    assert doc["fan"] == "p2" and list(doc["seconds"]) == names
    assert all(s >= 0 for s in doc["seconds"].values())


def test_verify_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["verify", fan_path("p112"), "--seed", "5", "--samples", "15", "--out", str(a)])
    main(["verify", fan_path("p112"), "--seed", "5", "--samples", "15", "--out", str(b)])
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


def test_mesh_unsupported_dim(capsys):
    assert main(["mesh", fan_path("p1"), "--radii", "1", "--res", "4"]) == 2


def test_hilbert_minimality_names_witnesses():
    """A passing check reports only the cone count; with the sum of two
    generators appended to every basis it names at most five cones with
    the redundant generator and a reducer."""
    import dataclasses
    import random

    from toricball import verify

    fan = tb.load_bundled("p112")
    atlas = tb.Atlas(fan)
    ctx = verify.Context(fan, atlas, [], [], fan.dim, 1e-9, 0, 0, random.Random(0))
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
