"""Record the table of ``tests/test_closed_form_parity.py``.

Usage (from the repository root):

    PYTHONPATH=src python tests/data/record_closed_form_parity.py [OUT]

For every draw of ``parity_draws`` this writes each field of one-entry
``key_gains`` calls in both modes, of one ``eve_bound`` call and of
``outcome_table``, as ``float.hex`` (integers and bools as ints), and then
``run_simulation``'s ``joint`` counts for each config and seed, to
``tests/data/closed_form_parity.json``, or to ``OUT``.  A table written to
``OUT`` from another version of the code compares exactly, byte for byte,
with the recorded one.  The recording was made before the one-channel path
was rewritten to check its inputs once; the test holds later versions to
it.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_closed_form_parity import PARITY_RECORD, parity_table  # noqa: E402


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else PARITY_RECORD
    table = parity_table()
    rows = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in table["draws"].items())
    joints = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in table["joint"].items())
    out.write_text(f'{{"draws": {{\n{rows}\n}},\n"joint": {{\n{joints}\n}}}}\n')


if __name__ == "__main__":
    main()
