"""The library against its tooling: every name that bench/tracer.py
wraps must exist, so that deleting or renaming one fails here and not
only in a traced benchmark run; the package imports only the standard
library, as its empty `dependencies` promises; the elimination kernel
exact._rref has one front end; cli.main alone writes to stderr; verify reports are strict JSON, with no
NaN or Infinity, even when a float check sees NaN; and every check in
verify.CHECKS keeps a negative control that exists."""

import ast
import importlib
import json
import math
import re
import sys
from pathlib import Path

import toricball as tb
from toricball import charts, verify
from toricball.charts import Atlas
from toricball.cli import main

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def _tracer_tables():
    """FUNCTIONS and ATLAS_METHODS of the tracer, read as literals from
    its source without importing it."""
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ("FUNCTIONS", "ATLAS_METHODS"):
                    tables[target.id] = ast.literal_eval(node.value)
    return tables["FUNCTIONS"], tables["ATLAS_METHODS"]


def test_tracer_names_resolve():
    """The tracer looks each function up on its toricball module and
    each method in Atlas.__dict__; a missing name raises there."""
    functions, methods = _tracer_tables()
    assert functions and methods
    missing = [
        f"{module}.{name}"
        for module, names in functions.items()
        for name in names
        if not hasattr(importlib.import_module(f"toricball.{module}"), name)
    ]
    missing += [f"Atlas.{name}" for name in methods if name not in Atlas.__dict__]
    assert missing == []


def test_library_imports_only_the_standard_library():
    """Every absolute import in src/toricball names a standard-library
    module (relative imports stay inside the package)."""
    imported = {}
    for path in sorted((ROOT / "src" / "toricball").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.partition(".")[0], path.name)
    assert imported
    assert {name: where for name, where in imported.items() if name not in sys.stdlib_module_names} == {}


def _readers(node, module, name, where="<module>"):
    """"module.function" for every reference to name under node (a
    call, a name bound to it, an import of it, an attribute), naming the
    innermost enclosing function, or <module> outside every function."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    named = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
    if named == name and not isinstance(node, ast.FunctionDef):
        yield f"{module}.{where}"
    for child in ast.iter_child_nodes(node):
        yield from _readers(child, module, name, where)


def _library_readers(name):
    return {
        reader
        for path in sorted((ROOT / "src" / "toricball").rglob("*.py"))
        for reader in _readers(ast.parse(path.read_text()), path.stem, name)
    }


def test_only_rank_and_span_inverse_call_the_kernel():
    """Every reference to exact._rref in src/toricball sits in
    exact.rank or exact.span_inverse: every inverse and coordinate
    solve reads the kernel through span_inverse, and rank reads its
    pivots alone."""
    assert _library_readers("_rref") == {"exact.rank", "exact.span_inverse"}


def test_only_cli_main_writes_to_stderr():
    """A command fails by raising CommandError (or OSError), and
    cli.main alone prints the message and returns the exit code, so no
    other function in src/toricball names stderr."""
    assert _library_readers("stderr") == {"cli.main"}


def _strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity."""

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def test_golden_reports_are_strict_json():
    reports = sorted((ROOT / "tests" / "data" / "golden").rglob("report.json"))
    assert reports
    for path in reports:
        _strict_json(path.read_text())


def test_nan_control_report_is_strict_json(monkeypatch, tmp_path, capsys):
    """With NaN from the triangular evaluator, the triangular inversion
    and every batch of localized values, verify fails the three float
    checks and writes each NaN gap as null."""
    monkeypatch.setattr(charts, "triangular_eval", lambda chart, w: [[math.nan] * len(w[0]) for _ in range(chart.n)])
    monkeypatch.setattr(charts, "invert_triangular", lambda b, y: [[math.nan] * len(y[0]) for _ in b])
    localize_columns = Atlas.localize_columns

    def nan_rows(self, sigma, columns, tau, count):
        off, rows = localize_columns(self, sigma, columns, tau, count)
        return off, [[math.nan] * count for _ in rows]

    monkeypatch.setattr(Atlas, "localize_columns", nan_rows)
    assert main(["verify", str(tb.bundled_path("p112")), "--samples", "5", "--out", str(tmp_path)]) == 4
    capsys.readouterr()
    entries = {c["name"]: c for c in _strict_json((tmp_path / "report.json").read_text())["checks"]}
    assert entries["monomial_diagram"]["worst_residual"] is None
    assert entries["simplex_inversion"]["worst_gap"] is None
    shared = [c for c in entries["intersection_gluing"]["counterexamples"] if c["kind"] == "shared"]
    assert shared and all(c["gap"] is None for c in shared)
    assert not any(entries[name]["passed"] for name in ("monomial_diagram", "simplex_inversion", "intersection_gluing"))


def _negative_controls():
    """The negative-control bullets of verify's docstring, as
    {check name: bullet text}; a bullet may name several checks."""
    _, _, tail = verify.__doc__.partition("Negative controls")
    bullets = {}
    for bullet in re.split(r"\n- ", tail)[1:]:
        names, _, text = bullet.partition(":")
        for name in names.split(","):
            bullets[name.strip()] = text
    return bullets


def _test_names(path):
    """The names of the test functions defined in a test module."""
    return {node.name for node in ast.parse(path.read_text()).body if isinstance(node, ast.FunctionDef)}


def test_every_check_names_an_existing_negative_control():
    """Each check in verify.CHECKS, and no other name, has a bullet in
    the docstring's negative-control list, and each test a bullet names
    exists: a bare test_x in tests/test_verify.py, file.py::test_x in
    that file, and test_x* as a prefix of at least one test."""
    bullets = _negative_controls()
    assert sorted(bullets) == sorted(name for name, _ in verify.CHECKS)
    missing = []
    for check, text in bullets.items():
        named = re.findall(r"(?:(\w+\.py)::)?(test_\w*)(\*?)(?!\w|\.py)", text)
        assert named, check
        for module, test, family in named:
            tests = _test_names(ROOT / "tests" / (module or "test_verify.py"))
            if not any(t == test or (family and t.startswith(test)) for t in tests):
                missing.append(f"{check}: {module or 'test_verify.py'}::{test}{family}")
    assert missing == []
