"""Record the table of ``tests/test_simulate.py::test_draws_match_the_recorded_table``.

Usage (from the repository root):

    PYTHONPATH=src python tests/data/record_simulation.py [OUT]

For every config of ``record_configs`` and every seed of ``RECORD_SEEDS``
this writes ``run_simulation``'s ``joint`` counts, one line per run, to
``tests/data/simulation_record.json``, or to ``OUT``.  A table written to
``OUT`` from another version of the code compares byte for byte with the
recorded one.  The recording was made with the simulator that built a new
``Generator(Philox(key=seed))`` for every run; the test holds later
versions to it exactly.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_simulate import SIM_RECORD, record_joints  # noqa: E402


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else SIM_RECORD
    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in record_joints().items())
    out.write_text(f"{{\n{lines}\n}}\n")


if __name__ == "__main__":
    main()
