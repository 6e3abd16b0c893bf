"""Record the float-uniform reference sampler's counts for ``TestSamplerParity``.

Usage (from the repository root):

    PYTHONPATH=src python tests/data/record_sampler_parity.py

For every parity channel, seed and pulse count of ``tests/test_simulate.py``
this runs ``float_uniform_joint``, the sampler that inverts float uniforms
through the CDFs with ``searchsorted``, and writes its joint counts
[bit][branch][outcome] to ``tests/data/sampler_parity.json``.  The test
then compares ``run_simulation`` against the recording with exact
equality.  ``run_simulation`` is never called here.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_simulate import (  # noqa: E402
    ALPHA,
    PARITY_ATTACKS,
    PARITY_PULSES,
    PARITY_RECORD,
    PARITY_SEEDS,
    config,
    float_uniform_joint,
    parity_channel,
)


def main() -> None:
    cases = []
    for name in (*PARITY_ATTACKS, "edges"):
        channel = parity_channel(name)
        for seed in PARITY_SEEDS:
            for n in PARITY_PULSES:
                joint = float_uniform_joint(config(channel, n=n, seed=seed))
                cases.append({"name": name, "seed": seed, "n_total": n,
                              "channel": repr(channel), "joint": joint.tolist()})
    lines = ",\n".join(json.dumps(case) for case in cases)
    PARITY_RECORD.write_text(f'{{"alpha": {ALPHA!r}, "cases": [\n{lines}\n]}}\n')


if __name__ == "__main__":
    main()
