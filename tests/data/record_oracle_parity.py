"""Record the oracle's values for ``test_values_match_the_recorded_parity_table``.

Usage (from the repository root):

    PYTHONPATH=src python tests/data/record_oracle_parity.py

For every draw of ``tests/test_oracle.py::parity_draws`` this runs
``oracle_min_overlap_lossy`` and writes its value as ``float.hex``, or
``"infeasible"``, to ``tests/data/oracle_parity.json``, in draw order.  The
recording was made with the oracle that ran its algebra on numpy arrays;
the test holds later versions to it.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_oracle import PARITY_RECORD, parity_draws, parity_value  # noqa: E402


def main() -> None:
    values = [parity_value(*draw) for draw in parity_draws()]
    cells = ["infeasible" if v is None else float.hex(v) for v in values]
    PARITY_RECORD.write_text("[\n" + ",\n".join(json.dumps(c) for c in cells) + "\n]\n")


if __name__ == "__main__":
    main()
