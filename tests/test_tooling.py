"""The library against its tooling: every name that bench/tracer.py
wraps must exist, so that deleting or renaming one fails here and not
only in a traced benchmark run; the package imports only the standard
library, as its empty `dependencies` promises; the elimination kernel
exact._rref has one front end, and no library function calls exact.rank;
cli.main alone writes to stderr; the equality tolerance 1e-9 is written
once, as charts.EQUAL_TOL; no module imports a name that it never
reads; verify reports are strict JSON, with no
NaN or Infinity, even when a float check sees NaN; the golden and CLI
tests pass under an emulation of Python 3.12's compensated float sum();
every check in verify.CHECKS keeps a negative control that exists; the
README's library sketch runs; and every public name of the library has
a reader."""

import ast
import importlib
import json
import math
import os
import re
import subprocess
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


def test_readme_library_sketch_runs():
    """The README's library sketch runs as shown, so a public name it
    uses cannot be removed or renamed without editing it."""
    _, _, section = (ROOT / "README.md").read_text().partition("\n## Library sketch\n")
    code = re.search(r"```python\n(.*?)```", section, re.S)
    assert code
    exec(compile(code.group(1), "README.md", "exec"), {})


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


def _references(node, module, scope=()):
    """(name, where) for every name, attribute and import under node,
    where being the qualified name of the innermost enclosing definition
    (module.function, module.Class.method), or the module's name outside
    every definition."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = (*scope, node.name)
    if isinstance(node, ast.Name):
        yield node.id, ".".join((module, *scope))
    elif isinstance(node, ast.Attribute):
        yield node.attr, ".".join((module, *scope))
    elif isinstance(node, ast.alias):
        yield node.name, ".".join((module, *scope))
    for child in ast.iter_child_nodes(node):
        yield from _references(child, module, scope)


def _library_references():
    """(name, where) for every reference in src/toricball."""
    return [
        reference
        for path in sorted((ROOT / "src" / "toricball").glob("*.py"))
        for reference in _references(ast.parse(path.read_text()), path.stem)
    ]


def _library_readers(name):
    return {where for named, where in _library_references() if named == name}


def test_only_rank_and_span_inverse_call_the_kernel():
    """Every reference to exact._rref in src/toricball sits in
    exact.rank or exact.span_inverse: every inverse and coordinate
    solve reads the kernel through span_inverse, and rank reads its
    pivots alone."""
    assert _library_readers("_rref") == {"exact.rank", "exact.span_inverse"}


def test_library_calls_no_rank():
    """No function in src/toricball references exact.rank: a cone's
    dimension and pointedness come from its double description and face
    lattice, and a placing triangulation tracks its dimension.  rank
    stays in exact for the tests and the tracer."""
    assert _library_readers("rank") == set()


def test_library_has_no_sort_key():
    """The fan fixes the order of its cones and flags once, in
    Fan.__init__, so no module of src/toricball defines or reads a
    sort_key, and no keyed sort runs in the fan's readers or in
    bary.subdivision: what they still sort is one cone's ray indices."""
    trees = {path.stem: ast.parse(path.read_text()) for path in (ROOT / "src" / "toricball").glob("*.py")}
    defined = [node.name for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert "sort_key" not in defined
    assert _library_readers("sort_key") == set()
    fan = next(node for node in trees["fan"].body if isinstance(node, ast.ClassDef) and node.name == "Fan")
    readers = [f for f in fan.body if getattr(f, "name", None) in ("cones", "faces", "is_complete")]
    readers += [f for f in trees["bary"].body if getattr(f, "name", None) == "subdivision"]
    assert len(readers) == 4
    keyed = [
        f.name
        for f in readers
        for call in ast.walk(f)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "sorted"
        if any(k.arg == "key" for k in call.keywords)
    ]
    assert keyed == []


def test_only_cli_main_writes_to_stderr():
    """A command fails by raising CommandError (or OSError), and
    cli.main alone prints the message and returns the exit code, so no
    other function in src/toricball names stderr."""
    assert _library_readers("stderr") == {"cli.main"}


def test_equal_tolerance_is_stated_once():
    """The float literal 1e-9, the equality tolerance, appears in
    src/toricball only as the value of charts.EQUAL_TOL.  verify's
    report states no tolerance: none of its checks reads that
    constant."""
    found = []
    for path in sorted((ROOT / "src" / "toricball").rglob("*.py")):
        tree = ast.parse(path.read_text())
        assigned = {id(node.value): [t.id for t in node.targets] for node in tree.body if isinstance(node, ast.Assign)}
        found += [
            (path.stem, assigned.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float and node.value == 1e-9
        ]
    assert found == [("charts", ["EQUAL_TOL"])]
    assert "tolerance" not in verify.run_verification(tb.load_bundled("p1"))


def _unread_imports(path):
    """The names that a module imports at module level and never reads."""
    tree = ast.parse(path.read_text())
    imported = [
        (alias.asname or alias.name).partition(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_no_module_imports_an_unread_name():
    """Every name imported at module level under src/toricball and tests
    is read in its module; the package's __init__ re-exports are
    exempt."""
    paths = [*(ROOT / "src" / "toricball").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]
    unread = {
        str(path.relative_to(ROOT)): names
        for path in sorted(paths)
        if path.name != "__init__.py" and (names := _unread_imports(path))
    }
    assert unread == {}


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
    """With NaN from the triangular evaluator (charts.monomial_columns,
    where simplex_inversion reads it) and from the triangular inversion,
    verify fails simplex_inversion, its one float check, and writes its
    NaN gap and every recovered coordinate as null; monomial_diagram and
    intersection_gluing, exact, read no float and pass."""
    monkeypatch.setattr(charts, "monomial_columns", lambda rows, columns, count: [[math.nan] * count for _ in rows])
    monkeypatch.setattr(charts, "invert_triangular", lambda b, y: [[math.nan] * len(y[0]) for _ in b])
    assert main(["verify", str(tb.bundled_path("p112")), "--out", str(tmp_path)]) == 4
    capsys.readouterr()
    entries = {c["name"]: c for c in _strict_json((tmp_path / "report.json").read_text())["checks"]}
    inversion = entries["simplex_inversion"]
    assert inversion["worst_gap"] is None and set(inversion["witness"]["recovered"]) == {None}
    assert [name for name, entry in entries.items() if not entry["passed"]] == ["simplex_inversion"]


def test_goldens_and_cli_under_compensated_sum():
    """The golden and CLI tests pass under tests/compensated_sum.py,
    which emulates the compensated float sum() of Python 3.12 on any
    interpreter: no report, mesh or exit code rests on a float sum().
    tests/sum_emulation_control.py runs beside them as the plugin's
    negative control."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    files = [str(ROOT / "tests" / name) for name in ("test_golden.py", "test_cli.py", "sum_emulation_control.py")]
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "compensated_sum", *files]
    run = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
    sums = int(re.search(r"^compensated float sums: (\d+)$", run.stdout, re.M).group(1))
    assert sums > 0 and re.search(r"^\d+ passed in ", run.stdout, re.M)


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


# The outputs the library keeps for its callers although no library code
# reads them: the paper's outputs (the ball model, the orbit complex,
# the parameterization and the rescaling, Atlas's point methods), and
# the bundled fans.
OUTPUTS = {
    "cellcomplex.build_ball_model",
    "cellcomplex.BallModel",
    "cellcomplex.BallModel.boundary_simplices",
    "cellcomplex.euler_characteristic",
    "cellcomplex.build_orbit_complex",
    "cellcomplex.OrbitComplex",
    "cellcomplex.OrbitComplex.euler_characteristic",
    "homeo.rescale_global",
    "homeo.param_boundary_point",
    "homeo.phi_coords",
    "charts.psi_eval",
    "charts.Atlas.expi_point",
    "charts.Atlas.chart_point",
    "charts.Atlas.localize",
    "charts.Atlas.points_equal",
    "__init__.load_bundled",
    "__init__.bundled_path",
}


def _public_definitions(path):
    """The public top-level functions and classes of a module, and the
    public methods of its public classes, as module.name and
    module.Class.method."""
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                out += [
                    (f"{path.stem}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return out


def test_every_public_name_has_a_reader():
    """Each public function, class and method of src/toricball is read
    in the library outside its own definition and __init__, or wrapped
    by bench/tracer.py, or one of the OUTPUTS, each of which exists;
    names match by their last part, so a method is read by any attribute
    of its name.  Anything else belongs in the tests that read it."""
    read = {}
    for name, where in _library_references():
        if where.partition(".")[0] != "__init__":
            read.setdefault(name, set()).add(where)
    functions, methods = _tracer_tables()
    traced = {f"{module}.{name}" for module, names in functions.items() for name in names}
    traced |= {f"charts.Atlas.{name}" for name in methods}
    defined = [d for path in sorted((ROOT / "src" / "toricball").glob("*.py")) for d in _public_definitions(path)]
    assert OUTPUTS <= {qualname for qualname, _ in defined}
    unread = [
        qualname
        for qualname, name in defined
        if not any(where != qualname and not where.startswith(qualname + ".") for where in read.get(name, ()))
        and qualname not in traced | OUTPUTS
    ]
    assert unread == []
