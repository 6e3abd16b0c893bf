"""The angle and noise-limit searches against a recorded table.

``tests/data/search_parity.json`` holds, as ``float.hex``, the (alpha*, g*)
of :func:`optimal_angles` in both modes on four sets of rows, and
:func:`positive_noise_limit` at 20 transmissions in both modes.
``tests/data/record_search_parity.py`` wrote it, before the searches were
rewritten to check their inputs once; the test holds later versions to it.
The one-entry table of ``test_closed_form_parity.py`` pins single
``key_gains`` calls; this one pins the batched searches built on them.
Angles and limits must match exactly, and gains within 4.4e-16, the bound
of the one-entry table, which leaves room for a numpy whose transcendental
functions round differently.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from b92sec.estimation import ChannelTriple
from b92sec.keyrate import MODES, optimal_angle, optimal_angles, positive_noise_limit

# rerun tests/data/record_search_parity.py only when a row changes, never to
# follow the code
SEARCH_RECORD = Path(__file__).parent / "data" / "search_parity.json"
GRID_TS = (0.05, 0.2, 0.5, 0.8, 1.0)
TILTED_ROWS = 200
LIMIT_TS = np.linspace(0.05, 1.0, 20)


def search_rows() -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(theta, eps, T) per row set, each an array of one broadcast shape.

    ``grid``: theta = 0 and eps on [0, 0.1] in steps of 0.0025 down axis 0,
    at each T of ``GRID_TS`` along axis 1.  ``tilted``: theta ~ U(-pi, pi),
    eps = 10^U(-16, -1), T ~ U(0.01, 1), seeded.  ``past``: noise past
    every limit, at theta = 0 and at three tilts with eps = 1.  ``tiny``:
    T = 1e-300.
    """
    rng = np.random.default_rng(20261030)
    eps = np.linspace(0.0, 0.1, 41)[:, None]
    grid = np.broadcast_arrays(0.0, eps, np.array(GRID_TS))
    tilted = (rng.uniform(-math.pi, math.pi, TILTED_ROWS),
              10.0 ** rng.uniform(-16.0, -1.0, TILTED_ROWS),
              rng.uniform(0.01, 1.0, TILTED_ROWS))
    past = np.broadcast_arrays(
        np.array([0.0, 0.0, 0.0, math.pi / 2.0, -math.pi / 2.0, math.pi]),
        np.array([0.12, 0.3, 1.0, 1.0, 1.0, 1.0]), np.array(GRID_TS)[:, None])
    tiny = (np.zeros(3), np.array([0.0, 0.01, 0.1]), np.full(3, 1e-300))
    return {"grid": grid, "tilted": tilted, "past": past, "tiny": tiny}


def _cells(values) -> list:
    """Floats as ``float.hex``, flattened."""
    return [float.hex(v) for v in np.ravel(values).tolist()]


def search_table() -> dict:
    """The searches' results by name, each a flat list of ``float.hex``."""
    table = {}
    for name, (theta, eps, t) in search_rows().items():
        for mode in MODES:
            alpha, gain = optimal_angles(theta, eps, t, mode)
            table[f"{name}.{mode}.alpha"] = _cells(alpha)
            table[f"{name}.{mode}.gain"] = _cells(gain)
    for mode in MODES:
        table[f"limit.{mode}"] = _cells([positive_noise_limit(t, mode) for t in LIMIT_TS.tolist()])
    return table


@pytest.fixture(scope="module")
def recorded():
    return json.loads(SEARCH_RECORD.read_text())


def _assert_gains_match(got, want, where) -> None:
    assert len(got) == len(want), where
    for g, w in zip(got, want):
        g, w = float.fromhex(g), float.fromhex(w)
        assert abs(g - w) <= 4.4e-16, (where, g, w)


def test_searches_match_the_recorded_table(recorded):
    table = search_table()
    assert table.keys() == recorded.keys()
    for name, cells in recorded.items():
        if name.endswith(".gain"):
            _assert_gains_match(table[name], cells, name)
        else:
            # angles and limits are picked from samples: exact
            assert table[name] == cells, name


@pytest.mark.parametrize("mode", MODES)
def test_one_row_search_matches_its_batch_row(recorded, mode):
    # optimal_angle runs the batch of one row; each row of the T = 0.8 grid
    # column must repeat the batch's recorded angle and gain
    theta, eps, t = search_rows()["grid"]
    column = GRID_TS.index(0.8)
    alphas = np.reshape(recorded[f"grid.{mode}.alpha"], eps.shape)[:, column]
    gains = np.reshape(recorded[f"grid.{mode}.gain"], eps.shape)[:, column]
    for k, e in enumerate(eps[:, column].tolist()):
        alpha, gain = optimal_angle(ChannelTriple(0.0, e, 0.8), mode)
        assert float.hex(alpha) == alphas[k], e
        _assert_gains_match([float.hex(gain)], [gains[k]], e)
