"""Declared runtime dependencies match what the package imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _third_party_imports() -> set:
    names = set()
    for path in (ROOT / "src" / "gradfx").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {n for n in names
            if n not in sys.stdlib_module_names and n != "gradfx"}


def _declared_dependencies() -> set:
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.\-]+", d).group(0).lower().replace("-", "_")
            for d in project.get("dependencies", [])}


def test_runtime_dependencies_match_imports():
    assert _declared_dependencies() == _third_party_imports()


def test_every_export_resolves():
    import gradfx
    for name in gradfx.__all__:
        assert hasattr(gradfx, name), name


def _names(tree) -> set:
    """Every name a syntax tree uses: bare, as an attribute or imported."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_no_public_name_is_test_only():
    # every public top-level function or class of every package module is
    # named by other package code (its own definition aside) or exported:
    # a primitive or wrapper only tests use is code the package carries
    # for them
    import gradfx
    paths = sorted((ROOT / "src" / "gradfx").rglob("*.py"))
    bodies = {p: ast.parse(p.read_text(), str(p)).body for p in paths}
    names = {p: _names(ast.Module(body, [])) for p, body in bodies.items()}
    unused = []
    for path, body in bodies.items():
        used = set(gradfx.__all__).union(*(n for p, n in names.items()
                                           if p != path))
        defs = [d for d in body if isinstance(d, (ast.FunctionDef,
                                                  ast.ClassDef))
                and not d.name.startswith("_")]
        unused += [f"{path.name}:{d.name}" for d in defs if d.name not in used
                   and not any(d.name in _names(s) for s in body if s is not d)]
    assert unused == []


def _writes_a_file(call: ast.Call) -> bool:
    """Whether a call is open() or Path.open() with a mode that is not a
    read-only literal, or Path.write_text / write_bytes."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    # open(path, mode) or path.open(mode)
    pos = call.args[1:2] if isinstance(func, ast.Name) else call.args[:1]
    mode = next((k.value for k in call.keywords if k.arg == "mode"),
                pos[0] if pos else ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def _file_writes() -> list:
    """(module, enclosing function) of each call in the package that can
    write a file."""
    found = []
    for path in sorted((ROOT / "src" / "gradfx").rglob("*.py")):
        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name
            if isinstance(node, ast.Call) and _writes_a_file(node):
                found.append((path.name, where))
            for child in ast.iter_child_nodes(node):
                visit(child, where)
        visit(ast.parse(path.read_text(), str(path)), "<module>")
    return found


def test_every_file_write_goes_through_atomic_open():
    # data.atomic_open moves a finished temp file over the target, so a
    # crash mid-write leaves the previous file whole; no writer bypasses it
    assert _file_writes() == [("data.py", "atomic_open")]


def _dotted(node) -> str:
    """'np.fft.rfft' for the expression np.fft.rfft; '' for anything that
    is not a dotted name. A leading numpy reads as np."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    parts.append("np" if node.id == "numpy" else node.id)
    return ".".join(reversed(parts))


def _numpy2_calls(source: str, filename: str = "<src>") -> list:
    """(line, call) of each call that NumPy 1.24 does not have: the
    np.astype and np.trapezoid functions, asarray's copy argument and the
    out argument of the np.fft functions."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        keys = {k.arg for k in node.keywords}
        if (name in ("np.astype", "np.trapezoid")
                or name == "np.asarray" and "copy" in keys
                or name.startswith("np.fft.") and "out" in keys):
            found.append((node.lineno, name))
    return found


@pytest.mark.parametrize("source, flagged", [
    ("np.astype(x, np.float32)", True),
    ("numpy.trapezoid(y, x)", True),
    ("np.asarray(x, dtype=float, copy=False)", True),
    ("np.fft.ifft(c, axis=-1, out=c)", True),
    ("x.astype(np.float32)", False),
    ("np.asarray(x, dtype=float)", False),
    ("np.array(x, copy=False)", False),
    ("np.fft.rfft(x, n)", False),
    ("np.multiply(a, b, out=a)", False),
])
def test_numpy2_scan_flags_only_numpy2_calls(source, flagged):
    assert bool(_numpy2_calls(source)) == flagged


def test_no_numpy2_only_calls():
    # pyproject declares numpy>=1.24; these calls exist from NumPy 2.0 only
    found = []
    for tree in ("src", "tests", "scripts", "perfbench"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            found += [(str(path.relative_to(ROOT)), *hit)
                      for hit in _numpy2_calls(path.read_text(), str(path))]
    assert found == []
