"""Every array entry point rejects bad input alike: one DomainError, on one
line, naming the first bad entry of the offending input."""

import math

import numpy as np
import pytest

from b92sec.entropy import binary_entropy
from b92sec.errors import DomainError
from b92sec.evebound import build_matrices, eve_bound
from b92sec.infobounds import conclusive_entropy_floor, shannon_upper_bound
from b92sec.keyrate import KTH_LINK, bb84_key_gain, key_gains, link_channels
from b92sec.states import outcome_table

# the first bad entry of each array below is its second one
CASES = {
    "eve_bound signal angle": (
        lambda: eve_bound(np.array([0.1, 2.0, 3.0]), 0.3, 0.0, 0.1, 0.5),
        "signal angle outside [0, pi/2]: 2.0"),
    "eve_bound analyzer angle": (
        lambda: eve_bound(0.3, np.array([0.1, math.nan, math.inf]), 0.0, 0.1, 0.5),
        "analyzer angle not finite: nan"),
    "eve_bound tilt": (
        lambda: eve_bound(0.3, 0.3, np.array([0.0, -math.inf, math.nan]), 0.1, 0.5),
        "tilt angle not finite: -inf"),
    "eve_bound transmission": (
        lambda: eve_bound(0.3, 0.3, 0.0, 0.1, np.array([0.5, 0.0, 1.5])),
        "transmission outside (0, 1]: 0.0"),
    "eve_bound noise": (
        lambda: eve_bound(0.3, 0.3, 0.0, np.array([[0.1, 0.2], [1.5, -1.0]]), 0.5),
        "noise parameter outside [0, 1]: 1.5"),
    "build_matrices": (
        lambda: build_matrices(0.3, 0.0, 1.5),
        "noise parameter outside [0, 1]: 1.5"),
    "key_gains": (
        lambda: key_gains(0.3, 0.0, 0.01, np.array([0.5, -0.5, 2.0])),
        "transmission outside [0, 1]: -0.5"),
    "link_channels": (
        lambda: link_channels(KTH_LINK, [0.0, -1.0, math.nan]),
        "length_km must be non-negative: -1.0"),
    "bb84_key_gain": (
        lambda: bb84_key_gain(np.array([0.5, 0.0, -1.0]), 1e-4),
        "transmission must be positive: 0.0"),
    "shannon_upper_bound noise": (
        lambda: shannon_upper_bound(0.3, np.array([0.1, 1.5, 2.0]), 0.5),
        "noise parameter outside [0, 1]: 1.5"),
    "shannon_upper_bound transmission": (
        lambda: shannon_upper_bound(0.3, 0.1, np.array([0.5, 1.5, 0.0])),
        "transmission outside (0, 1]: 1.5"),
    "conclusive_entropy_floor": (
        lambda: conclusive_entropy_floor(np.array([0.5, 0.0, -1.0]), 0.3),
        "conclusive probability must be positive: 0.0"),
    "outcome_table": (
        lambda: outcome_table(np.array([0.1, 2.0, 3.0]), 0.0, 1.0, 1.0),
        "analyzer angle outside [0, pi/2]: 2.0"),
    "outcome_table linspace": (
        lambda: outcome_table(np.linspace(0.0, 2.0, 7), 0.0, 1.0, 1.0),
        f"analyzer angle outside [0, pi/2]: {np.linspace(0.0, 2.0, 7)[5]}"),
    "binary_entropy": (
        lambda: binary_entropy(np.array([0.5, 1.5, -0.5])),
        "entropy argument outside [0, 1]: 1.5"),
}


@pytest.mark.parametrize("case", CASES)
def test_names_the_first_bad_entry_on_one_line(case):
    call, message = CASES[case]
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


def test_entropy_lets_nan_through():
    # a failed key-gain entry carries a NaN error rate into the entropy
    assert np.isnan(binary_entropy(np.array([0.5, math.nan]))[1])
