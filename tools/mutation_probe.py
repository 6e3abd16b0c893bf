"""Flip one operator at a time in a module and see whether its tests notice.

Usage (from the repository root):

    python tools/mutation_probe.py src/b92sec/simulate.py tests/test_simulate.py

Each ``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``+``/``-``, ``*``/``/``,
``<<``/``>>``, ``|``/``&`` (and their augmented forms ``<<=``/``>>=`` and
``|=``/``&=``) and ``maximum``/``minimum`` token in the module's code (not
its comments or strings) is flipped to its partner, one mutant at a time;
the shift and bitwise pairs reach bit-level code such as a lookup key.
Operators inside annotations are flipped too, and those mutants survive
unless the annotation is evaluated.  A mutant is judged by ``pytest -x`` on
the given test files, run in a temporary copy of the tree, so the working
tree is never edited.  A mutant that does not compile is skipped and not
counted.  A failing run or a run past two minutes kills the mutant; the
survivors are printed with their line.  Standard library only; not part of
the test suite.
"""

import argparse
import io
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

FLIPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==", "+": "-",
         "-": "+", "*": "/", "/": "*", "<<": ">>", ">>": "<<", "|": "&", "&": "|",
         "<<=": ">>=", ">>=": "<<=", "|=": "&=", "&=": "|=",
         "maximum": "minimum", "minimum": "maximum"}


def sites(source: str):
    """(row, col, old, new) for every flippable token, in source order."""
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.OP, tokenize.NAME) and tok.string in FLIPS:
            yield (*tok.start, tok.string, FLIPS[tok.string])


def mutate(lines: list[str], row: int, col: int, old: str, new: str) -> str:
    line = lines[row - 1]
    return "".join(lines[:row - 1] + [line[:col] + new + line[col + len(old):]] + lines[row:])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="path of the module to mutate, relative to the root")
    parser.add_argument("tests", nargs="+", help="test files that judge each mutant")
    args = parser.parse_args()
    root = Path.cwd()
    source = (root / args.module).read_text()
    lines = source.splitlines(keepends=True)
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", "runs"))
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}

        def killed() -> bool:
            cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   *args.tests]
            try:
                return subprocess.run(cmd, cwd=copy, env=env, capture_output=True,
                                      timeout=120).returncode != 0
            except subprocess.TimeoutExpired:
                return True

        if killed():
            print("the unmutated tests fail; nothing to judge", file=sys.stderr)
            return 2
        survivors, total = [], 0
        for row, col, old, new in sites(source):
            mutant = mutate(lines, row, col, old, new)
            try:
                compile(mutant, args.module, "exec")
            except SyntaxError:
                continue
            total += 1
            (copy / args.module).write_text(mutant)
            if not killed():
                survivors.append(f"{args.module}:{row}:{col + 1}: {old} -> {new}: "
                                 f"{lines[row - 1].strip()}")
    print("\n".join(survivors))
    print(f"{len(survivors)} of {total} mutants survive")
    return 0


if __name__ == "__main__":
    sys.exit(main())
