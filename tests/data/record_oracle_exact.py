"""Record the oracle's answers for ``test_answers_match_the_recorded_exact_table``.

Usage (from the repository root):

    PYTHONPATH=src python tests/data/record_oracle_exact.py

For every draw of ``tests/test_oracle.py::exact_draws`` this runs the
oracle's search on the draw's A, B and band and writes its value, gap and
certificate entries x11, x12 and x22 as ``float.hex``, or ``"infeasible"``,
to ``tests/data/oracle_exact.json``, in draw order.  The recording was made
with the oracle that built a ``SymMat2`` for every intermediate matrix; the
test holds later versions to it bit for bit.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_oracle import EXACT_RECORD, exact_answer, exact_draws  # noqa: E402


def main() -> None:
    cells = [exact_answer(*draw) for draw in exact_draws()]
    EXACT_RECORD.write_text("[\n" + ",\n".join(json.dumps(c) for c in cells) + "\n]\n")


if __name__ == "__main__":
    main()
