"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the checklist.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import math
import time

import numpy as np
import pytest
from numpy.random import Philox

from b92sec.attacks import critical_weakness, rotation_attack
from b92sec.errors import OracleInfeasibleError, UnreachableChannelError
from b92sec.estimation import ChannelTriple, ObservedCounts, estimate_channel, expected_counts
from b92sec.evebound import build_matrices, eve_max_gain, full_info_region
from b92sec.infobounds import conclusive_entropy_floor, shannon_upper_bound
from b92sec.keyrate import (
    KTH_LINK,
    distance_sweep,
    optimal_angle,
    positive_noise_limit,
    secret_key_gain,
)
from b92sec.oracle import oracle_min_overlap_lossy
from b92sec.simulate import SimConfig, run_simulation
from b92sec.states import OUTCOMES

from conftest import (
    DEG,
    attack_noise_rate,
    estimator_sigmas,
    noiseless_gain,
    rotation_triple,
    symmetrized_outcomes,
)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number:02d} {name} failed{suffix}"


def test_criterion_01_oracle_equivalence():
    # 100 seeded random channels: analytic minimum within 1e-3 of the exact
    # dual oracle, within 5 min
    rng = np.random.default_rng(20240811)
    start = time.time()
    worst = 0.0
    checked = 0
    infeasible_cross_checked = 0
    while checked < 100:
        alpha = rng.uniform(2 * DEG, 80 * DEG)
        theta = rng.uniform(-30 * DEG, 30 * DEG)
        eps = rng.uniform(0.01, 0.9)
        t = rng.uniform(0.2, 1.0)
        a, b = build_matrices(alpha, theta, eps)
        try:
            analytic = eve_max_gain(alpha, alpha,
                                    ChannelTriple(theta, eps, t)).overlap_min
        except UnreachableChannelError:
            # the observed channel is unphysical; the oracle must agree
            if infeasible_cross_checked < 3:
                with pytest.raises(OracleInfeasibleError):
                    oracle_min_overlap_lossy(a, b, alpha, t)
                infeasible_cross_checked += 1
            continue
        oracle = oracle_min_overlap_lossy(a, b, alpha, t).value
        worst = max(worst, abs(analytic - oracle))
        checked += 1
    elapsed = time.time() - start
    report(1, "oracle-equivalence", worst <= 1e-3 and elapsed <= 300.0,
           f"worst diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_full_information_boundary():
    ok = True
    for alpha_deg in range(5, 45, 5):
        alpha = alpha_deg * DEG
        on_edge = eve_max_gain(alpha, alpha,
                               ChannelTriple(0.0, 2 * math.sin(alpha) ** 2, 1.0))
        ok &= on_edge.overlap_min <= 1e-9
    # 2 sin^2(alpha) is the *upper* edge of a unity band whose lower edge is
    # set by the measured-then-rotated attack.  At 10 deg the band is thinner
    # than 0.02, so stepping down exits it; at 30 deg the band is wide (the
    # mixed attacks cover it), so the sharp exit there is upward.
    thin = eve_max_gain(10 * DEG, 10 * DEG,
                        ChannelTriple(0.0, 2 * math.sin(10 * DEG) ** 2 - 0.02, 1.0))
    ok &= thin.overlap_min > 0.0
    above = eve_max_gain(30 * DEG, 30 * DEG,
                         ChannelTriple(0.0, 2 * math.sin(30 * DEG) ** 2 + 0.02, 1.0))
    ok &= above.overlap_min > 0.0
    report(2, "full-information-boundary", ok,
           f"overlap below thin band {thin.overlap_min:.3e}, "
           f"above wide band {above.overlap_min:.3e}")


def test_criterion_03_counterintuitive_decrease():
    alpha, t = 10 * DEG, 0.3
    # unity plateau and its upper edge
    ok = all(
        eve_max_gain(alpha, alpha, ChannelTriple(0.0, e, t)).info_gain == 1.0
        for e in np.linspace(0.04, 0.12, 9))
    grid = np.arange(0.110, 0.155, 0.001)
    gains = [eve_max_gain(alpha, alpha, ChannelTriple(0.0, float(e), t)).info_gain
             for e in grid]
    drop = next((float(grid[i]) for i in range(len(grid) - 1)
                 if gains[i] == 1.0 and gains[i + 1] < 1.0), None)
    ok &= drop is not None and abs(drop - 0.13) <= 0.02
    # the Shannon ceiling dominates the exact Shannon optimum everywhere
    for e in np.linspace(0.01, 0.9, 100):
        bound = shannon_upper_bound(alpha, float(e), t).upper_bound
        exact = eve_max_gain(alpha, alpha,
                             ChannelTriple(0.0, float(e), t)).info_gain_shannon
        ok &= exact <= min(1.0, bound) + 1e-9
    report(3, "counterintuitive-decrease", ok, f"drop boundary at eps={drop}")


def test_criterion_04_rotation_attack_achievability():
    start = time.time()
    alpha = 10 * DEG
    channel, predicted = rotation_attack(alpha), rotation_triple(alpha)
    result = run_simulation(SimConfig(n_total=10 ** 6, alpha_prime=alpha,
                                      alpha=alpha, attack=channel, seed=42))
    sigma = estimator_sigmas(predicted, alpha, 10 ** 6)
    ok = abs(result.estimated.epsilon - predicted.epsilon) <= 3 * sigma[1]
    ok &= abs(result.estimated.theta) <= 3 * sigma[0]
    ok &= result.eve_accuracy_correct == 1.0
    elapsed = time.time() - start
    ok &= elapsed <= 30.0
    report(4, "rotation-attack-achievability", ok,
           f"eps_hat {result.estimated.epsilon:.5f} vs {predicted.epsilon:.5f}, "
           f"{elapsed:.1f}s")


def test_criterion_05_weak_measurement_boundary():
    start = time.time()
    ok = True
    for alpha_deg in (10, 20, 30, 40):
        alpha = alpha_deg * DEG
        eps_grid = np.arange(0.005, 0.9, 0.005)
        region = full_info_region([alpha], eps_grid, 1.0)[0]
        assert region.any()
        lower_edge = float(eps_grid[np.argmax(region)])
        upper_edge = float(eps_grid[len(region) - 1 - np.argmax(region[::-1])])
        cell = 0.005
        eps_low = attack_noise_rate(critical_weakness(alpha), alpha)
        eps_high = attack_noise_rate(0.5, alpha)
        ok &= abs(eps_low - lower_edge) <= cell
        ok &= abs(eps_high - upper_edge) <= cell
    elapsed = time.time() - start
    ok &= elapsed <= 60.0
    report(5, "weak-measurement-boundary", ok, f"{elapsed:.1f}s")


def test_criterion_06_noiseless_closed_form():
    worst = 0.0
    for t in np.linspace(0.55, 1.0, 10):
        for alpha in np.linspace(2 * DEG, 55 * DEG, 50):
            got = secret_key_gain(float(alpha),
                                  ChannelTriple(0.0, 0.0, float(t))).gain
            worst = max(worst, abs(got - noiseless_gain(float(alpha), float(t))))
    report(6, "noiseless-closed-form", worst <= 1e-12, f"worst diff {worst:.2e}")


def test_criterion_07_optimal_angle_structure():
    start = time.time()
    limit = positive_noise_limit(0.8)
    angles = []
    for eps in np.linspace(0.0, limit * 0.95, 12):
        alpha_star, gain_star = optimal_angle(ChannelTriple(0.0, float(eps), 0.8))
        ok_point = gain_star > 0.0
        angles.append(alpha_star)
        if not ok_point:
            break
    ok = len(angles) == 12
    ok &= all(d <= 1e-6 for d in np.diff(angles))
    # the gain is dead just past the threshold
    ok &= optimal_angle(ChannelTriple(0.0, limit + 5e-4, 0.8)) == (0.0, 0.0)
    # threshold curve grows with transmission
    curve = [positive_noise_limit(t) for t in (0.2, 0.4, 0.6, 0.8, 1.0)]
    ok &= all(d > 0.0 for d in np.diff(curve))
    elapsed = time.time() - start
    ok &= elapsed <= 60.0
    report(7, "optimal-angle-structure", ok,
           f"threshold(T=0.8)={limit:.4f}, curve={['%.4f' % c for c in curve]}, "
           f"{elapsed:.1f}s")


def test_criterion_08_distance_comparison():
    sweep = distance_sweep(KTH_LINK, np.linspace(0.0, 60.0, 61), 11 * DEG)
    ok = sweep.gain_b92[0] > 0.0
    ok &= all(b92 < bb84 for b92, bb84 in zip(sweep.gain_b92, sweep.gain_bb84))
    report(8, "distance-comparison", ok,
           f"g_b92(0)={sweep.gain_b92[0]:.2e}, g_bb84(0)={sweep.gain_bb84[0]:.2e}")


def test_criterion_09_shannon_mode_dominance():
    alpha, t = 12 * DEG, 0.3
    ok = True
    for eps in np.linspace(0.0, 0.9, 91):
        triple = ChannelTriple(0.0, float(eps), t)
        shannon = secret_key_gain(alpha, triple, "shannon").gain
        collision = secret_key_gain(alpha, triple, "collision").gain
        ok &= shannon >= collision - 1e-12
        if shannon == collision:
            ok &= shannon <= 0.0 and collision <= 0.0
    report(9, "shannon-mode-dominance", ok)


def test_criterion_10_weighted_floor_convexity():
    worst = math.inf
    for alpha_deg in range(5, 90, 10):
        alpha = alpha_deg * DEG
        lo = (1 - math.cos(alpha)) / 2 + 1e-9
        hi = (1 + math.cos(alpha)) / 2 - 1e-9
        xs = np.linspace(lo, hi, 1000)
        values = np.array([x * conclusive_entropy_floor(float(x), alpha)
                           for x in xs])
        worst = min(worst, float(np.diff(values, 2).min()))
    report(10, "weighted-floor-convexity", worst >= -1e-9,
           f"most negative second difference {worst:.2e}")


def _sample_counts(triple: ChannelTriple, alpha: float, n_total: int,
                   seed: int) -> ObservedCounts:
    """Multinomial sample of the ten (bit, outcome) categories."""
    probs = 0.5 * symmetrized_outcomes(triple, alpha).ravel()
    probs[-1] += 1.0 - probs.sum()  # absorb rounding into the last V cell
    draw = np.random.Generator(Philox(key=seed)).multinomial(n_total, probs)
    cells = draw.reshape(2, len(OUTCOMES))
    index = {label: k for k, label in enumerate(OUTCOMES)}
    return ObservedCounts(
        n_total=n_total,
        n00=int(cells[0, index["0"]]), n01=int(cells[0, index["1"]]),
        n0b0=int(cells[0, index["0b"]]), n0b1=int(cells[0, index["1b"]]),
        n10=int(cells[1, index["0"]]), n11=int(cells[1, index["1"]]),
        n1b0=int(cells[1, index["0b"]]), n1b1=int(cells[1, index["1b"]]))


def test_criterion_11_estimator_round_trip():
    start = time.time()
    rng = np.random.default_rng(1234)
    # exact inversion
    worst = 0.0
    for _ in range(50):
        triple = ChannelTriple(rng.uniform(-0.5, 0.5), rng.uniform(0.0, 0.9),
                               rng.uniform(0.05, 1.0))
        alpha = rng.uniform(8 * DEG, 80 * DEG)
        got = estimate_channel(expected_counts(triple, alpha, 2 ** 48), alpha)
        worst = max(worst, abs(got.theta - triple.theta),
                    abs(got.epsilon - triple.epsilon),
                    abs(got.transmission - triple.transmission))
    ok = worst <= 1e-10
    # sampled inversion: all three parameters within 3 sigma in >= 99 of 100 runs
    hits = 0
    for run in range(100):
        triple = ChannelTriple(rng.uniform(-25 * DEG, 25 * DEG),
                               rng.uniform(0.05, 0.8), rng.uniform(0.3, 1.0))
        alpha = rng.uniform(10 * DEG, 70 * DEG)
        counts = _sample_counts(triple, alpha, 10 ** 6, seed=run)
        got = estimate_channel(counts, alpha)
        sigma = estimator_sigmas(triple, alpha, 10 ** 6)
        hits += (abs(got.theta - triple.theta) <= 3 * sigma[0]
                 and abs(got.epsilon - triple.epsilon) <= 3 * sigma[1]
                 and abs(got.transmission - triple.transmission) <= 3 * sigma[2])
    elapsed = time.time() - start
    ok &= hits >= 99 and elapsed <= 120.0
    report(11, "estimator-round-trip", ok,
           f"exact worst {worst:.2e}, sampled hits {hits}/100, {elapsed:.1f}s")
