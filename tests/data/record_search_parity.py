"""Record the table of ``tests/test_search_parity.py``.

Usage (from the repository root):

    PYTHONPATH=src python tests/data/record_search_parity.py [OUT]

For every row set of ``search_rows`` this writes the (alpha*, g*) of
``optimal_angles`` in both modes, and then ``positive_noise_limit`` at the
20 transmissions of ``LIMIT_TS`` in both modes, as ``float.hex``, to
``tests/data/search_parity.json``, or to ``OUT``.  A table written to
``OUT`` from another version of the code compares exactly, byte for byte,
with the recorded one.  The recording was made before the searches were
rewritten to check their inputs once; the test holds later versions to it.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_search_parity import SEARCH_RECORD, search_table  # noqa: E402


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else SEARCH_RECORD
    rows = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in search_table().items())
    out.write_text(f"{{\n{rows}\n}}\n")


if __name__ == "__main__":
    main()
