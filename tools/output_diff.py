"""Compare the README's command-line examples between two source trees.

Usage (from the repository root):

    python tools/output_diff.py OLD_SRC NEW_SRC
    python tools/output_diff.py OLD_SRC NEW_SRC --command "b92sec oracle-check --samples 500"
    python tools/output_diff.py OLD_SRC NEW_SRC --config my.cfg --command "b92sec simulate --config run.cfg"

Each ``b92sec`` line of the README's "Command line" block, or each
``--command`` given in its place, runs once against each tree, as
``python -m b92sec.cli`` in a fresh process with ``PYTHONPATH`` set to that
tree, in a fresh directory that holds the README's simulator config, or the
file given with ``--config``, as ``run.cfg``.  The exit code, stdout,
stderr and every file the command writes are compared as the bytes
written, read as UTF-8 without newline translation, so a changed line
ending shows.  For each command one line is printed: ``identical``; or how
many numbers moved, on how many lines, and the largest absolute move; or
which output differs in more than its numbers.  The exit code is 1 when any command differs.  Standard library
only; not part of the test suite.
"""

import argparse
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
# a number standing alone: not part of a name such as n0b1 or alpha_deg
NUMBER = re.compile(r"(?<![\w.])(?:[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)(?![\w.])")


def code_block(text: str, heading: str) -> str:
    """The first fenced block after ``heading``."""
    rest = text[text.index(heading):]
    start = rest.index("```")
    start = rest.index("\n", start) + 1
    return rest[start:rest.index("```", start)]


def run(src: Path, args: list[str], config: str) -> dict[str, str]:
    """Exit code, stdout, stderr and written files of one command on one tree."""
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        (cwd / "run.cfg").write_text(config)
        env = {**os.environ, "PYTHONPATH": str(src.resolve())}
        done = subprocess.run([sys.executable, "-m", "b92sec.cli", *args], cwd=cwd, env=env,
                              capture_output=True)
        out = {"exit code": str(done.returncode), "stdout": done.stdout.decode(),
               "stderr": done.stderr.decode()}
        for path in sorted(cwd.iterdir()):
            if path.name != "run.cfg":
                out[path.name] = path.read_bytes().decode()
        return out


def moves(old: str, new: str) -> list[float] | None:
    """Absolute moves of the numbers of ``old`` in ``new``; None if more changed."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return None
    pairs = zip(map(float, NUMBER.findall(old)), map(float, NUMBER.findall(new)))
    return [abs(a - b) if math.isfinite(a - b) else math.inf
            for a, b in pairs if a != b and not (math.isnan(a) and math.isnan(b))]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="source tree of the old version (its src/)")
    parser.add_argument("new", type=Path, help="source tree of the new version (its src/)")
    parser.add_argument("--command", action="append",
                        help="a b92sec command line to compare in place of the README's; "
                             "may be given more than once")
    parser.add_argument("--config", type=Path,
                        help="a simulator config to write as run.cfg in place of the README's")
    args = parser.parse_args()
    text = README.read_text()
    config = args.config.read_text() if args.config else code_block(
        text, "### Simulator config format")
    commands = args.command or [line for line in code_block(text, "## Command line").splitlines()
                                if line.startswith("b92sec ")]
    differs = False
    for line in commands:
        argv = shlex.split(line)[1:]
        old, new = run(args.old, argv, config), run(args.new, argv, config)
        moved, lines, text_differs = [], 0, []
        for name in sorted(old.keys() | new.keys()):
            a, b = old.get(name), new.get(name)
            if a == b:
                continue
            found = None if a is None or b is None else moves(a, b)
            if found is None:
                text_differs.append(name)
            else:
                moved += found
                lines += sum(x != y for x, y in zip(a.splitlines(), b.splitlines()))
        if text_differs:
            verdict = f"differs in more than numbers: {', '.join(text_differs)}"
        elif moved:
            verdict = f"{len(moved)} moved cells on {lines} lines, largest move {max(moved):.3g}"
        else:
            verdict = "identical"
        differs |= verdict != "identical"
        print(f"{line}: {verdict}")
    return int(differs)


if __name__ == "__main__":
    sys.exit(main())
