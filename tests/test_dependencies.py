"""The dependencies ``pyproject.toml`` declares cover every import.

Walks the modules under ``src/`` and ``tests/`` with :mod:`ast` and fails
on any third-party top-level module the project does not declare:
runtime dependencies for ``src/``, runtime plus the ``test`` extra for
``tests/``.  Imports inside functions count too — a lazily imported
module is still a dependency.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parent.parent

#: Top-level modules that live in this repository.
LOCAL = {"repro", "helpers"}


def import_names(requirements) -> set[str]:
    """Module names of requirement strings such as ``numpy>=1.24``.

    Every dependency of this project imports under its distribution
    name, so the name before any extra, version or marker is it.
    """
    return {re.match(r"[A-Za-z0-9._-]+", req.strip()).group(0)
            .lower().replace("-", "_") for req in requirements}


def third_party_imports(root: Path) -> dict[str, list[str]]:
    """Third-party top-level module -> files under ``root`` importing it."""
    found: dict[str, list[str]] = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.partition(".")[0]
                if top not in sys.stdlib_module_names and top not in LOCAL:
                    found.setdefault(top, []).append(
                        str(path.relative_to(ROOT)))
    return found


@pytest.fixture(scope="module")
def project() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


@pytest.mark.parametrize("tree,extras", [("src", ()), ("tests", ("test",))])
def test_imports_are_declared(project, tree, extras):
    declared = import_names(project["dependencies"])
    for extra in extras:
        declared |= import_names(project["optional-dependencies"][extra])
    undeclared = {module: files for module, files
                  in third_party_imports(ROOT / tree).items()
                  if module not in declared}
    assert not undeclared, f"imported but not declared: {undeclared}"
