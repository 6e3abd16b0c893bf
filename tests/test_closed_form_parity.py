"""The closed form and the simulator against a recorded table.

``tests/data/closed_form_parity.json`` holds, as ``float.hex``, every field
of one-entry :func:`key_gains` calls in both modes and of one-entry
:func:`eve_bound` calls, Bob's :func:`outcome_table` on the same draws, and
:func:`run_simulation`'s ``joint`` counts for the README config and four
attack kinds at seeds 0-9.  ``tests/data/record_closed_form_parity.py``
wrote it, before the one-channel path was rewritten to check its inputs
once; the test holds later versions to it.  Status, regime, failure marks
and counts must match exactly, and every value within 4.4e-16, the bound of
the oracle's table, which leaves room for a numpy whose transcendental
functions round differently.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from b92sec.attacks import critical_weakness, parse_attack
from b92sec.evebound import eve_bound
from b92sec.keyrate import MODES, key_gains
from b92sec.simulate import SimConfig, run_simulation
from b92sec.states import outcome_table

# rerun tests/data/record_closed_form_parity.py only when a draw changes,
# never to follow the code
PARITY_RECORD = Path(__file__).parent / "data" / "closed_form_parity.json"
PARITY_DRAWS = 2000
DEG = math.pi / 180.0
SHARED_FIELDS = ("p_conc", "error_rate", "failed")
MODE_FIELDS = ("info_correct", "info_flipped", "gain_correct", "gain_flipped", "gain")
BOUND_FIELDS = ("overlap_min", "free_limit", "constraint_max", "target", "regime", "status")
# the README's simulator config, and the closed-loop benchmark's four attack kinds
SIM_CONFIGS = {
    "readme": (10, "depolarize(epsilon=0.05) | loss(T=0.9)"),
    "rotation": (20, "rotation"),
    "weak-meas": (20, f"weak-meas(q={critical_weakness(20 * DEG)!r})"),
    "mixed": (30, f"mixed(q={critical_weakness(30 * DEG)!r}, lambda=0.4)"),
    "depolarize|loss": (20, "depolarize(epsilon=0.07)|loss(T=0.7)"),
}
SIM_SEEDS = range(10)
SIM_PULSES = 10 ** 6


def parity_draws() -> list[tuple[float, float, float, float, float]]:
    """(alpha', alpha, theta, eps, T) over the whole domain, with strata.

    theta is uniform, 0 or the exact tilt -2 alpha; eps is uniform, 0 or
    10^U(-16, -6); T is 1 or U(0.01, 1).  Each stratum is drawn for every
    entry and picked by a uniform draw, so the draws do not depend on one
    another's strata.
    """
    rng = np.random.default_rng(20261029)
    n = PARITY_DRAWS
    alpha_prime = rng.uniform(0.0, math.pi / 2.0, n)
    alpha = rng.uniform(0.0, math.pi / 2.0, n)
    theta = np.choose(rng.integers(0, 3, n),
                      (rng.uniform(-math.pi, math.pi, n), np.zeros(n), -2.0 * alpha))
    eps = np.choose(rng.integers(0, 3, n),
                    (rng.uniform(0.0, 1.0, n), np.zeros(n), 10.0 ** rng.uniform(-16.0, -6.0, n)))
    t = np.where(rng.random(n) < 0.5, 1.0, rng.uniform(0.01, 1.0, n))
    return list(zip(*(v.tolist() for v in (alpha_prime, alpha, theta, eps, t))))


def _cells(values):
    """Floats as ``float.hex``, integers and bools as ints; a list unless 0-d.

    Every recorded field has at most one axis.
    """
    values = np.asarray(values)
    cell = int if values.dtype.kind in "biu" else float.hex
    values = values.tolist()
    return [cell(v) for v in values] if isinstance(values, list) else cell(values)


def _shared(g) -> dict:
    """The fields of a :class:`KeyGains` that do not depend on the mode."""
    return {**{name: _cells(getattr(g, name)) for name in SHARED_FIELDS},
            **{f"bounds.{name}": _cells(getattr(g.bounds, name)) for name in BOUND_FIELDS}}


def parity_row(alpha_prime, alpha, theta, eps, t) -> dict:
    """Every recorded field of one draw.

    The fields that do not depend on the mode, the bounds included, come
    from the collision call; the Shannon call must repeat them exactly.
    """
    gains = {mode: key_gains(alpha, theta, eps, t, mode) for mode in MODES}
    row = _shared(gains["collision"])
    assert _shared(gains["shannon"]) == row, "the modes differ in a shared field"
    for mode, g in gains.items():
        for name in MODE_FIELDS:
            row[f"{mode}.{name}"] = _cells(getattr(g, name))
    bound = eve_bound(alpha_prime, alpha, theta, eps, t)
    for name in BOUND_FIELDS:
        row[f"eve_bound.{name}"] = _cells(getattr(bound, name))
    row["outcome_table"] = _cells(outcome_table(alpha, theta, 1.0 - eps, t))
    return row


def simulation_joints() -> dict[str, list]:
    """``joint`` counts, flattened, per config name and seed."""
    joints = {}
    for name, (degrees, attack) in SIM_CONFIGS.items():
        alpha = degrees * DEG
        for seed in SIM_SEEDS:
            config = SimConfig(SIM_PULSES, alpha, alpha, parse_attack(attack, alpha), seed)
            joints[f"{name}.{seed}"] = np.ravel(run_simulation(config).joint).tolist()
    return joints


def parity_table() -> dict:
    """The recorded fields by name, each a list over the draws, and the counts."""
    rows = [parity_row(*draw) for draw in parity_draws()]
    return {"draws": {name: [row[name] for row in rows] for name in rows[0]},
            "joint": simulation_joints()}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(PARITY_RECORD.read_text())


def _assert_cells_match(got, want, where) -> None:
    if isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for g, w in zip(got, want):
            _assert_cells_match(g, w, where)
    elif isinstance(want, int):
        assert got == want, where
    else:
        g, w = float.fromhex(got), float.fromhex(want)
        assert (math.isnan(g) and math.isnan(w)) or abs(g - w) <= 4.4e-16, (where, g, w)


def test_closed_form_matches_the_recorded_table(recorded):
    draws = parity_draws()
    for name, cells in recorded["draws"].items():
        assert len(cells) == len(draws), name
    for k, draw in enumerate(draws):
        got = parity_row(*draw)
        assert got.keys() == recorded["draws"].keys()
        for name, cells in recorded["draws"].items():
            _assert_cells_match(got[name], cells[k], (draw, name))


def test_simulated_counts_match_the_recorded_table(recorded):
    assert simulation_joints() == recorded["joint"]
