"""The library against its tooling: every name that bench/tracer.py
wraps must exist, so that deleting or renaming one fails here and not
only in a traced benchmark run; and the package imports only the
standard library, as its empty `dependencies` promises."""

import ast
import importlib
import sys
from pathlib import Path

from toricball.charts import Atlas

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
