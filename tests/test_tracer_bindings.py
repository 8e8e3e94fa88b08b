"""The benchmark's layer tracer rebinds library functions by name.

``perfbench/tracing.py`` lists them in ``BINDINGS`` as
``(module, attribute, span name)``. A refactor that renames or removes one
of them breaks the traced benchmark run, so every entry must resolve to a
callable. The file is parsed, not imported, so nothing is rebound here.
"""
import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _bindings():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BINDINGS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no BINDINGS in {TRACING}")


@pytest.mark.parametrize("module,attribute,span", _bindings())
def test_binding_resolves_to_callable(module, attribute, span):
    assert callable(getattr(importlib.import_module(module), attribute, None)), span
