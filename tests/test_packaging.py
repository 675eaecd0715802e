"""Declared runtime dependencies match what the package imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

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
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.\-]+", d).group(0).lower().replace("-", "_")
            for d in project.get("dependencies", [])}


def test_runtime_dependencies_match_imports():
    assert _declared_dependencies() == _third_party_imports()


def test_every_export_resolves():
    import gradfx
    for name in gradfx.__all__:
        assert hasattr(gradfx, name), name


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
