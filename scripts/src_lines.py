"""Line counts of the package's modules: all lines and code-only lines.

    python3 scripts/src_lines.py [FILE ...]

Counts ``src/mlfg/*.py`` when no file is given and prints a Markdown table,
one row per module and a total row. A code-only line holds at least one
token of code: blank lines, comment-only lines and the lines of module,
class and function docstrings (found with ``ast``) are left out. Tokens
come from ``tokenize``, so a string or bracket that spans lines counts
every line it covers.
"""
from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """``(total, code)`` lines of one Python file."""
    text = path.read_text()
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    code = set()
    for tok in tokens:
        if tok.type not in SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def table(paths: list[Path]) -> str:
    rows = [(p, *count(p)) for p in paths]
    out = ["| module | lines | code lines |", "| --- | ---: | ---: |"]
    out += [f"| {p.name} | {total} | {code} |" for p, total, code in rows]
    out.append(f"| total | {sum(r[1] for r in rows)} | {sum(r[2] for r in rows)} |")
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    paths = [Path(a) for a in args] or sorted((ROOT / "src" / "mlfg").glob("*.py"))
    print(table(paths))
    return 0


if __name__ == "__main__":
    sys.exit(main())
