"""Count the code lines of each module in one or two source trees.

Usage (from the repository root):

    python tools/code_lines.py SRC [SRC]

A code line holds at least one token that is not a comment or part of a
docstring (of a module, class or function); blank lines, comment lines and
docstring lines do not count.  Docstrings are found with ``ast`` and
comments with ``tokenize``.  One line is printed per module, by its path
under SRC, with its count in each tree, and a last line with the totals;
with two trees a last column gives the change from the first to the
second, and a module missing from one tree counts 0 there.  Standard
library only; not part of the test suite.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that hold no code of their own
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold code."""
    skipped = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED and tok.start[0] not in skipped:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def counts(src: Path) -> dict[str, int]:
    """Code lines of each module under ``src``, by its path relative to it."""
    return {path.relative_to(src).as_posix(): code_lines(path.read_text())
            for path in sorted(src.rglob("*.py"))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="source tree (its src/)")
    parser.add_argument("other", type=Path, nargs="?", help="a second tree, such as a change's")
    args = parser.parse_args()
    trees = [counts(src) for src in (args.src, args.other) if src is not None]
    rows = [(name, [tree.get(name, 0) for tree in trees])
            for name in sorted(set().union(*trees))]
    rows.append(("total", [sum(tree.values()) for tree in trees]))
    width = max(len(name) for name, _ in rows)
    for name, values in rows:
        cells = [f"{v:6d}" for v in values]
        if len(values) == 2:
            cells.append(f"{values[1] - values[0]:+6d}")
        print(f"{name:<{width}}", *cells)
    return 0


if __name__ == "__main__":
    sys.exit(main())
