"""Byte-for-byte regression against reports and meshes stored in
tests/data/golden.  Unlike the determinism tests, which compare two runs
of the same code, these fail when a change to the library moves any
reported number or mesh vertex."""

from pathlib import Path

import pytest

import toricball as tb
from toricball.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = [
    ("verify_p2", ["verify", "p2", "--seed", "0", "--samples", "20"], 0),
    ("verify_p112", ["verify", "p112", "--seed", "0", "--samples", "20"], 0),
    # The bundled rank-3 fan: 24 charts through every sample loop.
    ("verify_p3", ["verify", "p3", "--seed", "0", "--samples", "20"], 0),
    # The 60-flag fan: 6,000 subflag samples through the gluing
    # cross-check and 30,000 through simplex_inversion.
    ("verify_twisted_p3", ["verify", "twisted_p3", "--seed", "0", "--samples", "20"], 0),
    # (P^1)^3: 48 charts, each through every sample loop.
    ("verify_p1xp1xp1", ["verify", "p1xp1xp1", "--seed", "0", "--samples", "20"], 0),
    ("verify_p2_tamper", ["verify", "p2", "--seed", "0", "--samples", "20", "--tamper"], 4),
    ("verify_p112_tamper", ["verify", "p112", "--seed", "0", "--samples", "20", "--tamper"], 4),
    # P(1,1,1,9): multiplicity-9 cones, so large Hilbert bases and long
    # localization searches; the input fan is stored next to its report.
    (
        "verify_wps_1_1_1_9",
        ["verify", str(GOLDEN / "verify_wps_1_1_1_9" / "fan.json"), "--seed", "0", "--samples", "20"],
        0,
    ),
    # P(1,1,1,27): charts of up to 408 rows, of which the sample loops
    # read the n = 3 triangular ones.
    (
        "verify_wps_1_1_1_27",
        ["verify", str(GOLDEN / "verify_wps_1_1_1_27" / "fan.json"), "--seed", "0", "--samples", "20"],
        0,
    ),
    # P(1,1,1,60): a multiplicity-60 cone with 1,891 pointed Hilbert
    # generators, whose rules decompose over that basis many times.
    (
        "verify_wps_1_1_1_60",
        ["verify", str(GOLDEN / "verify_wps_1_1_1_60" / "fan.json"), "--seed", "0", "--samples", "20"],
        0,
    ),
    # The parent's bytes at seeds that no sample kernel was developed on.
    ("verify_twisted_p3_seed7", ["verify", "twisted_p3", "--seed", "7", "--samples", "20"], 0),
    (
        "verify_wps_1_1_1_9_seed3",
        ["verify", str(GOLDEN / "verify_wps_1_1_1_9_seed3" / "fan.json"), "--seed", "3", "--samples", "20"],
        0,
    ),
    # P^4: the rank-4 golden, 120 charts through every check.
    (
        "verify_p4",
        ["verify", str(GOLDEN / "verify_p4" / "fan.json"), "--seed", "0", "--samples", "20"],
        0,
    ),
    # The chart dumps pin the triangular generators, the Hilbert basis
    # order, c, b and the dual basis of every maximal flag.
    ("charts_p112", ["charts", "p112"], 0),
    ("charts_wps_1_1_1_9", ["charts", str(GOLDEN / "verify_wps_1_1_1_9" / "fan.json")], 0),
    ("mesh_p2", ["mesh", "p2", "--radii", "2", "--res", "5"], 0),
    ("mesh_p1xp1xp1", ["mesh", "p1xp1xp1", "--radii", "2", "--res", "2"], 0),
]


@pytest.mark.parametrize("case, argv, code", CASES, ids=[c[0] for c in CASES])
def test_output_matches_golden(case, argv, code, tmp_path, capsys):
    command, fan, *rest = argv
    fan_file = str(tb.bundled_path(fan)) if fan in tb.BUNDLED_FANS else fan
    assert main([command, fan_file, *rest, "--out", str(tmp_path)]) == code
    capsys.readouterr()
    expected = sorted(p.name for p in (GOLDEN / case).iterdir() if p.name != "fan.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for name in expected:
        assert (tmp_path / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name
