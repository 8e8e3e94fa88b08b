"""numpy is the package's only dependency: every module of ``src/mlfg``
imports only numpy, the package itself and the standard library."""
import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mlfg"


def imported_roots(path: Path) -> set[str]:
    """The top-level names of every absolute import in a module."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_imports_only_numpy_and_the_standard_library(path):
    allowed = sys.stdlib_module_names | {"numpy", "mlfg"}
    assert imported_roots(path) <= allowed
