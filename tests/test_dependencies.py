"""Every import resolves to something a clean install provides.

A clean runner has the standard library, this package, the dependencies
``pyproject.toml`` declares, and, for the tests, its ``dev`` extra.  The
scan walks the whole syntax tree of every file, so an import inside a
function counts as much as one at the top of a module.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def read_pyproject_arrays(text: str) -> dict[tuple[str, str], list[str]]:
    """``(table, key) -> strings`` for every string-array value.

    A minimal reader for the subset of TOML that ``pyproject.toml`` uses
    here (Python 3.10 has no ``tomllib``): ``[table]`` headers and
    ``key = [...]`` arrays of double-quoted strings, possibly spanning
    lines.
    """
    arrays: dict[tuple[str, str], list[str]] = {}
    table = ""
    pending: tuple[str, str] | None = None
    buffer = ""
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if pending is None:
            header = re.fullmatch(r"\[([^\[\]]+)\]", stripped)
            if header:
                table = header.group(1).strip()
                continue
            match = re.fullmatch(r"([\w.-]+)\s*=\s*(\[.*)", stripped)
            if not match:
                continue
            pending, buffer = (table, match.group(1)), match.group(2)
        else:
            buffer += " " + stripped
        if buffer.count("[") == buffer.count("]"):
            arrays[pending] = re.findall(r'"([^"]*)"', buffer)
            pending = None
    return arrays


def module_name(requirement: str) -> str:
    """``"pytest-benchmark>=4"`` -> ``"pytest_benchmark"``."""
    name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
    return name.lower().replace("-", "_")


def declared() -> tuple[set[str], set[str]]:
    """(runtime modules, dev-extra modules) declared in pyproject.toml."""
    arrays = read_pyproject_arrays((ROOT / "pyproject.toml").read_text())
    runtime = {module_name(r) for r in arrays[("project", "dependencies")]}
    dev = {module_name(r) for r in arrays[("project.optional-dependencies", "dev")]}
    return runtime, dev


def imported_modules(path: pathlib.Path) -> set[str]:
    """Top-level names of every absolute import in a file."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def is_sibling(path: pathlib.Path, name: str) -> bool:
    """A module next to the importing file (a script-style local import)."""
    return (path.parent / f"{name}.py").exists() or (path.parent / name).is_dir()


@pytest.mark.parametrize("tree", ["src", "tests"])
def test_every_import_is_declared(tree):
    runtime, dev = declared()
    allowed = set(sys.stdlib_module_names) | {"repro"} | runtime
    if tree == "tests":
        allowed |= dev | {"tests"}
    undeclared = sorted(
        f"{path.relative_to(ROOT)}: {name}"
        for path in sorted((ROOT / tree).rglob("*.py"))
        for name in imported_modules(path)
        if name not in allowed and not is_sibling(path, name)
    )
    assert not undeclared, undeclared


def test_ci_installs_every_runtime_dependency():
    runtime, _ = declared()
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    installs = re.findall(r"pip install ([^\n]+)", workflow)
    assert installs
    for line in installs:
        installed = {module_name(w) for w in line.split() if not w.startswith("-")}
        assert runtime <= installed, (line, sorted(runtime - installed))


def test_pyproject_reader_agrees_with_tomllib():
    tomllib = pytest.importorskip("tomllib")
    text = (ROOT / "pyproject.toml").read_text()
    project = tomllib.loads(text)["project"]
    arrays = read_pyproject_arrays(text)
    assert arrays[("project", "dependencies")] == project["dependencies"]
    assert (
        arrays[("project.optional-dependencies", "dev")]
        == project["optional-dependencies"]["dev"]
    )
