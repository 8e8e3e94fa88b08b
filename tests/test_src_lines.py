import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("src_lines", ROOT / "scripts" / "src_lines.py")
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

SAMPLE = '''"""Module docstring
on two lines."""
import os  # a trailing comment keeps the line


# a comment-only line
def f(a,
      b):
    """Docstring."""
    s = """a string that is
    not a docstring"""
    return (a +
            b)


class C:
    """Class docstring."""

    x = 1
'''


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # import, def (2 lines), the string (2), return (2), class, x = 1
    assert src_lines.count(path) == (len(SAMPLE.splitlines()), 9)


def test_table_totals(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    rows = src_lines.table([path, path]).splitlines()
    assert rows[2] == "| sample.py | 19 | 9 |"
    assert rows[-1] == "| total | 38 | 18 |"
