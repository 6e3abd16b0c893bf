"""Every range check rejects bad input alike: one DomainError, on one line,
naming the first bad entry of the offending input."""

import argparse
import math
from types import SimpleNamespace

import numpy as np
import pytest

from b92sec.attacks import (
    critical_weakness,
    depolarize,
    identity_attack,
    loss,
    mix,
    post_measurement_angle,
    weak_measurement_attack,
)
from b92sec.cli import cmd_oracle_check
from b92sec.entropy import binary_entropy
from b92sec.errors import DomainError, require
from b92sec.estimation import ChannelTriple, ObservedCounts
from b92sec.evebound import SymMat2, build_matrices, eve_bound
from b92sec.infobounds import conclusive_entropy_floor, shannon_upper_bound
from b92sec.keyrate import (
    KTH_LINK,
    PhysicalLink,
    bb84_key_gain,
    key_gains,
    link_channels,
    optimal_angles,
    positive_noise_limit,
    secret_key_gain,
)
from b92sec.oracle import oracle_min_overlap_lossy
from b92sec.simulate import SimConfig
from b92sec.states import outcome_table

from conftest import constraint_max, min_overlap_at

# the first bad entry of each array below is its second one
CASES = {
    "eve_bound signal angle": (
        lambda: eve_bound(np.array([0.1, 2.0, 3.0]), 0.3, 0.0, 0.1, 0.5),
        "signal angle outside [0, pi/2]: 2.0"),
    "eve_bound analyzer angle": (
        lambda: eve_bound(0.3, np.array([0.1, math.nan, math.inf]), 0.0, 0.1, 0.5),
        "analyzer angle outside [0, pi/2]: nan"),
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
    "build_matrices analyzer angle": (
        lambda: build_matrices(np.array([0.3, -1e-9, math.nan]), 0.0, 0.1),
        "analyzer angle outside [0, pi/2]: -1e-09"),
    # the tilt is checked after the analyzer angle and before the noise
    "build_matrices analyzer angle and tilt": (
        lambda: build_matrices(2.0, math.nan, 0.1),
        "analyzer angle outside [0, pi/2]: 2.0"),
    "build_matrices tilt and noise": (
        lambda: build_matrices(0.3, math.inf, 1.5),
        "tilt angle not finite: inf"),
    **{f"build_matrices tilt {value} {form}": (
        lambda value=value, wrap=wrap: build_matrices(0.3, wrap(value), 0.1),
        f"tilt angle not finite: {value}")
       for value in (math.nan, math.inf, -math.inf)
       for form, wrap in (("float", float), ("0-d array", np.array),
                          ("array", lambda v: np.array([0.0, v, math.nan])))},
    # A's entries are checked before B's, and each after the signal angle and
    # the transmission
    **{f"oracle {name} entry {value}": (
        lambda name=name, value=value: oracle_min_overlap_lossy(
            *(m._replace(m12=value) if which == name else m
              for which, m in zip("AB", build_matrices(0.3, 0.1, 0.2))), 0.3, 0.8),
        f"matrix entry not finite: {value}")
       for name in "AB" for value in (math.nan, math.inf, -math.inf)},
    "oracle A and B entries": (
        lambda: oracle_min_overlap_lossy(SymMat2(0.5, 0.0, math.inf),
                                         SymMat2(math.nan, 0.0, 0.0), 0.3, 0.8),
        "matrix entry not finite: inf"),
    "oracle transmission and matrix entry": (
        lambda: oracle_min_overlap_lossy(SymMat2(0.5, math.nan, 0.5),
                                         SymMat2(0.5, 0.0, 0.0), 0.3, 1.5),
        "transmission outside (0, 1]: 1.5"),
    "min_overlap_at": (
        lambda: min_overlap_at(*build_matrices(0.6, 0.1, 0.2), np.array([0.5, 5.0, 9.0])),
        "constraint target outside [-constraint_max(B), constraint_max(B)]: 5.0"),
    "min_overlap_at nan": (
        lambda: min_overlap_at(*build_matrices(0.6, 0.1, 0.2), np.array([0.5, math.nan])),
        "constraint target outside [-constraint_max(B), constraint_max(B)]: nan"),
    "key_gains": (
        lambda: key_gains(0.3, 0.0, 0.01, np.array([0.5, -0.5, 2.0])),
        "transmission outside [0, 1]: -0.5"),
    "key_gains signal angle": (
        lambda: key_gains(np.array([0.3, 2.0, -1.0]), 0.0, 0.1, 0.5),
        "signal angle outside [0, pi/2]: 2.0"),
    "key_gains signal angle nan": (
        lambda: key_gains(np.array([0.3, math.nan, 2.0]), 0.0, 0.1, 0.5),
        "signal angle outside [0, pi/2]: nan"),
    "key_gains tilt inf": (
        lambda: key_gains(0.3, np.array([0.0, math.inf, math.nan]), 0.1, 0.5),
        "tilt angle not finite: inf"),
    "key_gains tilt -inf": (
        lambda: key_gains(0.3, np.array([0.0, -math.inf, math.nan]), 0.1, 0.5),
        "tilt angle not finite: -inf"),
    "key_gains tilt nan": (
        lambda: key_gains(0.3, np.array([0.0, math.nan, math.inf]), 0.1, 0.5),
        "tilt angle not finite: nan"),
    "key_gains noise": (
        lambda: key_gains(0.3, 0.0, np.array([0.1, 1.5, -1.0]), 0.5),
        "noise parameter outside [0, 1]: 1.5"),
    "key_gains noise nan": (
        lambda: key_gains(0.3, 0.0, np.array([0.1, math.nan]), 0.5),
        "noise parameter outside [0, 1]: nan"),
    # the transmission is checked before the signal angle
    "key_gains transmission and signal angle": (
        lambda: key_gains(np.array([0.3, 2.0]), 0.0, 0.1, np.array([0.5, 1.5])),
        "transmission outside [0, 1]: 1.5"),
    # entries without conclusive events are checked all the same
    "key_gains signal angle at zero transmission": (
        lambda: key_gains(np.array([0.3, 2.0]), 0.0, 0.1, 0.0),
        "signal angle outside [0, pi/2]: 2.0"),
    "secret_key_gain signal angle": (
        lambda: secret_key_gain(2.0, ChannelTriple(0.0, 0.1, 0.5)),
        "signal angle outside [0, pi/2]: 2.0"),
    "secret_key_gain signal angle nan": (
        lambda: secret_key_gain(math.nan, ChannelTriple(0.0, 0.1, 0.5)),
        "signal angle outside [0, pi/2]: nan"),
    "secret_key_gain tilt inf": (
        lambda: secret_key_gain(0.3, ChannelTriple(math.inf, 0.1, 0.5)),
        "tilt angle not finite: inf"),
    "secret_key_gain tilt -inf": (
        lambda: secret_key_gain(0.3, ChannelTriple(-math.inf, 0.1, 0.5)),
        "tilt angle not finite: -inf"),
    "secret_key_gain tilt nan": (
        lambda: secret_key_gain(0.3, ChannelTriple(math.nan, 0.1, 0.5)),
        "tilt angle not finite: nan"),
    # ChannelTriple checks its own noise; a triple-like record reaches key_gains's
    "secret_key_gain noise": (
        lambda: secret_key_gain(0.3, SimpleNamespace(theta=0.0, epsilon=1.5, transmission=0.5)),
        "noise parameter outside [0, 1]: 1.5"),
    "optimal_angles tilt inf": (
        lambda: optimal_angles(np.array([0.0, math.inf]), 0.1, 0.5),
        "tilt angle not finite: inf"),
    "optimal_angles tilt -inf": (
        lambda: optimal_angles(np.array([0.0, -math.inf]), 0.1, 0.5),
        "tilt angle not finite: -inf"),
    "optimal_angles tilt nan": (
        lambda: optimal_angles(np.array([0.0, math.nan]), 0.1, 0.5),
        "tilt angle not finite: nan"),
    "optimal_angles noise": (
        lambda: optimal_angles(0.0, np.array([0.1, 1.5]), 0.5),
        "noise parameter outside [0, 1]: 1.5"),
    "optimal_angles noise nan": (
        lambda: optimal_angles(0.0, np.array([0.1, math.nan]), 0.5),
        "noise parameter outside [0, 1]: nan"),
    "optimal_angles mode": (
        lambda: optimal_angles(0.0, 0.1, 0.5, "renyi"),
        "unknown estimation mode: 'renyi'"),
    "optimal_angles mode and transmission": (
        lambda: optimal_angles(0.0, 0.1, 1.5, "renyi"),
        "unknown estimation mode: 'renyi'"),
    "optimal_angles transmission": (
        lambda: optimal_angles(0.0, 0.1, np.array([0.5, 1.5, -1.0])),
        "transmission outside [0, 1]: 1.5"),
    "optimal_angles transmission nan": (
        lambda: optimal_angles(0.0, 0.1, np.array([0.5, math.nan])),
        "transmission outside [0, 1]: nan"),
    # the transmission is reported before the tilt, and the tilt before the noise
    "optimal_angles transmission and tilt": (
        lambda: optimal_angles(np.array([0.0, math.inf]), 0.1, np.array([0.5, 1.5])),
        "transmission outside [0, 1]: 1.5"),
    "optimal_angles tilt and noise": (
        lambda: optimal_angles(np.array([0.0, math.inf]), np.array([1.5, 0.1]), 0.5),
        "tilt angle not finite: inf"),
    "positive_noise_limit transmission -0.5": (
        lambda: positive_noise_limit(-0.5),
        "transmission outside [0, 1]: -0.5"),
    "positive_noise_limit transmission 1.5": (
        lambda: positive_noise_limit(1.5),
        "transmission outside [0, 1]: 1.5"),
    "positive_noise_limit transmission nan": (
        lambda: positive_noise_limit(math.nan),
        "transmission outside [0, 1]: nan"),
    "positive_noise_limit mode": (
        lambda: positive_noise_limit(0.8, "renyi"),
        "unknown estimation mode: 'renyi'"),
    "positive_noise_limit mode and transmission": (
        lambda: positive_noise_limit(1.5, "renyi"),
        "unknown estimation mode: 'renyi'"),
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
    "shannon_upper_bound zero transmission": (
        lambda: shannon_upper_bound(0.3, 0.1, np.array([0.5, 0.0])),
        "transmission outside (0, 1]: 0.0"),
    "shannon_upper_bound analyzer angle": (
        lambda: shannon_upper_bound(np.array([0.3, 2.0, 3.0]), 0.1, 0.5),
        "analyzer angle outside [0, pi/2]: 2.0"),
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


@pytest.mark.parametrize("call", [
    lambda: key_gains(np.array([0.0, math.pi / 2.0]), 0.0, np.array([[0.0], [1.0]]),
                      np.array([[[0.0]], [[1.0]]])),
    lambda: eve_bound(np.array([0.0, math.pi / 2.0]), np.array([[0.0], [math.pi / 2.0]]), 0.0,
                      np.array([[[0.0]], [[1.0]]]), 1.0),
    lambda: outcome_table(np.array([0.0, math.pi / 2.0]), 0.0, 1.0, np.array([[0.0], [1.0]])),
    # at eps = 1: alpha = 0 with eps = 0 has no conclusive events
    lambda: shannon_upper_bound(np.array([0.0, math.pi / 2.0]), 1.0, 1.0),
], ids=["key_gains", "eve_bound", "outcome_table", "shannon_upper_bound"])
def test_the_closed_ends_of_each_range_pass(call):
    # every angle at 0 and pi/2, every noise at 0 and 1, and the transmission
    # at the ends each call accepts
    call()


def test_a_mask_that_is_not_bool_is_a_type_error():
    # ~ on a Python bool is a truthy int (~True == -2), so a check written
    # ~(x > c) on a float would never fire
    with pytest.raises(TypeError):
        require(1.0, ~(1.0 > 0.5), "value too large")


def test_entropy_lets_nan_through():
    # a failed key-gain entry carries a NaN error rate into the entropy
    assert np.isnan(binary_entropy(np.array([0.5, math.nan]))[1])


def _counts(n_total, n00=0):
    return ObservedCounts(n00=n00, n01=0, n0b0=0, n0b1=0, n10=0, n11=0, n1b0=0, n1b1=0,
                          n_total=n_total)


def _link(**fields):
    return PhysicalLink(**{**vars(KTH_LINK), **fields})


def _sim(alpha, alpha_prime):
    return SimConfig(n_total=10, alpha_prime=alpha_prime, alpha=alpha,
                     attack=identity_attack(), seed=0)


def _oracle_check(samples=1, tol=1e-3, seed=0):
    return cmd_oracle_check(argparse.Namespace(samples=samples, tol=tol, seed=seed,
                                               output=None))


# one row per scalar range check: the call, the exception class and the exact
# message.  The NaN rows pin that a check written as (lo <= x) & (x <= hi)
# still rejects NaN, as the `not lo <= x <= hi` form it replaced did.
SCALAR_CASES = {
    "signal angle": (lambda: critical_weakness(math.pi / 2.0), DomainError,
                     f"signal angle outside (0, pi/2): {math.pi / 2.0}"),
    "signal angle nan": (lambda: weak_measurement_attack(0.1, math.nan), DomainError,
                         "signal angle outside (0, pi/2): nan"),
    "weakness": (lambda: post_measurement_angle(0.6, 0.3), DomainError,
                 "weakness parameter outside [0, 1/2]: 0.6"),
    "weakness nan": (lambda: post_measurement_angle(math.nan, 0.3), DomainError,
                     "weakness parameter outside [0, 1/2]: nan"),
    "depolarize": (lambda: depolarize(-0.1), DomainError,
                   "noise parameter outside [0, 1]: -0.1"),
    "depolarize nan": (lambda: depolarize(math.nan), DomainError,
                       "noise parameter outside [0, 1]: nan"),
    "loss": (lambda: loss(1.5), DomainError, "transmission outside [0, 1]: 1.5"),
    "loss nan": (lambda: loss(math.nan), DomainError, "transmission outside [0, 1]: nan"),
    "mix": (lambda: mix(loss(1.0), loss(0.5), 2.0), DomainError,
            "mixture weight outside [0, 1]: 2.0"),
    "mix nan": (lambda: mix(loss(1.0), loss(0.5), math.nan), DomainError,
                "mixture weight outside [0, 1]: nan"),
    "ChannelTriple noise": (lambda: ChannelTriple(0.0, 1.5, 0.5), DomainError,
                            "noise parameter outside [0, 1]: 1.5"),
    "ChannelTriple noise nan": (lambda: ChannelTriple(0.0, math.nan, 0.5), DomainError,
                                "noise parameter outside [0, 1]: nan"),
    "ChannelTriple transmission": (lambda: ChannelTriple(0.0, 0.5, -0.5), DomainError,
                                   "transmission outside [0, 1]: -0.5"),
    "ChannelTriple transmission nan": (lambda: ChannelTriple(0, 0.5, math.nan), DomainError,
                                       "transmission outside [0, 1]: nan"),
    "ObservedCounts n_total": (lambda: _counts(0), DomainError,
                               "n_total must be positive: 0"),
    "ObservedCounts detected": (lambda: _counts(3, n00=5), DomainError,
                                "counters exceed n_total: 5"),
    "oracle transmission": (
        lambda: oracle_min_overlap_lossy(*build_matrices(0.3, 0.0, 0.1), 0.3, 0.0),
        DomainError, "transmission outside (0, 1]: 0.0"),
    "oracle transmission nan": (
        lambda: oracle_min_overlap_lossy(*build_matrices(0.3, 0.0, 0.1), 0.3, math.nan),
        DomainError, "transmission outside (0, 1]: nan"),
    "oracle signal angle": (
        lambda: oracle_min_overlap_lossy(*build_matrices(0.3, 0.0, 0.1), 2.0, 0.8),
        DomainError, "signal angle outside [0, pi/2]: 2.0"),
    "oracle signal angle nan": (
        lambda: oracle_min_overlap_lossy(*build_matrices(0.3, 0.0, 0.1), math.nan, 0.8),
        DomainError, "signal angle outside [0, pi/2]: nan"),
    "oracle signal angle inf": (
        lambda: oracle_min_overlap_lossy(*build_matrices(0.3, 0.0, 0.1), math.inf, 0.8),
        DomainError, "signal angle outside [0, pi/2]: inf"),
    # the signal angle is checked before the transmission
    "oracle signal angle and transmission": (
        lambda: oracle_min_overlap_lossy(*build_matrices(0.3, 0.0, 0.1), math.nan, 0.0),
        DomainError, "signal angle outside [0, pi/2]: nan"),
    "link negative": (lambda: _link(receiver_loss_db=-1.0), DomainError,
                      "receiver_loss_db must be non-negative: -1.0"),
    "link nan": (lambda: _link(dark_mean=math.nan), DomainError,
                 "dark_mean must be non-negative: nan"),
    "link infinite": (lambda: _link(channel_loss_db_km=math.inf), DomainError,
                      "channel_loss_db_km must be finite: inf"),
    "link efficiency": (lambda: _link(det_efficiency=1.5), DomainError,
                        "det_efficiency must not exceed 1: 1.5"),
    "entropy floor reach": (lambda: conclusive_entropy_floor(np.array([0.5, 0.99]), 0.3),
                            DomainError, "no state reaches this conclusive probability: 0.99"),
    "shannon_upper_bound conclusive rate": (
        lambda: shannon_upper_bound(0.0, np.array([0.5, 0.0]), 1.0), DomainError,
        "conclusive probability vanishes; bound undefined: 0.0"),
    "constraint determinant": (lambda: constraint_max(SymMat2(1.0, 0.0, 1.0)), DomainError,
                               "constraint matrix must have non-positive determinant: 1.0"),
    "SimConfig alpha": (lambda: _sim(2.0, 0.3), DomainError,
                        "alpha outside [0, pi/2]: 2.0"),
    "SimConfig alpha_prime nan": (lambda: _sim(0.3, math.nan), DomainError,
                                  "alpha_prime outside [0, pi/2]: nan"),
    "oracle-check samples": (lambda: _oracle_check(samples=0), DomainError,
                             "--samples must be at least 1: 0"),
    "oracle-check tol": (lambda: _oracle_check(tol=math.nan), DomainError,
                         "--tol must be finite: nan"),
    "oracle-check seed": (lambda: _oracle_check(seed=-1), DomainError,
                          "--seed must be non-negative: -1"),
}


@pytest.mark.parametrize("case", SCALAR_CASES)
def test_every_range_check_names_its_value(case):
    call, cls, message = SCALAR_CASES[case]
    with pytest.raises(cls) as info:
        call()
    assert type(info.value) is cls
    assert str(info.value) == message


BELOW_ZERO = math.nextafter(0.0, -1.0)
ABOVE_ONE = math.nextafter(1.0, 2.0)
ABOVE_HALF_PI = math.nextafter(math.pi / 2.0, 2.0)
# eve_bound's and key_gains' valid inputs, then their inputs in the order
# they check them, each with the start of its message and its values just
# outside the range; NaN and +-inf are bad for every input
ENTRY_POINTS = {
    "eve_bound": (
        eve_bound,
        dict(alpha_prime=0.4, alpha=0.5, theta=0.05, epsilon=0.1, transmission=0.8),
        [("alpha_prime", "signal angle outside [0, pi/2]", (BELOW_ZERO, ABOVE_HALF_PI)),
         ("alpha", "analyzer angle outside [0, pi/2]", (BELOW_ZERO, ABOVE_HALF_PI)),
         ("theta", "tilt angle not finite", ()),
         ("transmission", "transmission outside (0, 1]", (0.0, ABOVE_ONE)),
         ("epsilon", "noise parameter outside [0, 1]", (BELOW_ZERO, ABOVE_ONE))]),
    "key_gains": (
        key_gains,
        dict(alpha=0.5, theta=0.05, epsilon=0.1, transmission=0.8, mode="collision"),
        [("mode", "unknown estimation mode", ("renyi",)),
         ("transmission", "transmission outside [0, 1]", (BELOW_ZERO, ABOVE_ONE)),
         ("alpha", "signal angle outside [0, pi/2]", (BELOW_ZERO, ABOVE_HALF_PI)),
         ("theta", "tilt angle not finite", ()),
         ("epsilon", "noise parameter outside [0, 1]", (BELOW_ZERO, ABOVE_ONE))]),
}
BAD_INPUTS = [
    pytest.param(entry, k, value, id=f"{entry}-{name}-{value}")
    for entry, (_, _, order) in ENTRY_POINTS.items()
    for k, (name, _, outside) in enumerate(order)
    for value in (outside if name == "mode" else (math.nan, math.inf, -math.inf, *outside))
]


def _message(call, inputs: dict) -> str:
    with pytest.raises(DomainError) as info:
        call(**inputs)
    return str(info.value)


def _as_0d_arrays(inputs: dict) -> dict:
    return {name: value if name == "mode" else np.array(value) for name, value in inputs.items()}


@pytest.mark.parametrize("entry,k,value", BAD_INPUTS)
def test_both_passes_name_the_first_bad_input_alike(entry, k, value):
    # Python floats run the float kit and 0-d arrays the array kit: one
    # message from both, naming the bad input; with every later input in
    # check order bad too, both still name this one
    call, good, order = ENTRY_POINTS[entry]
    name, start, _ = order[k]
    inputs = dict(good, **{name: value})
    expected = f"{start}: {value!r}" if name == "mode" else f"{start}: {np.float64(value)}"
    assert _message(call, inputs) == expected
    assert _message(call, _as_0d_arrays(inputs)) == expected
    inputs.update({later: math.nan for later, _, _ in order[k + 1:]})
    assert _message(call, inputs) == expected
    assert _message(call, _as_0d_arrays(inputs)) == expected
