import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from b92sec.errors import (
    DegenerateAngleError,
    DomainError,
    EstimationInfeasibleError,
)
from b92sec.estimation import (
    ChannelTriple,
    ObservedCounts,
    estimate_channel,
    expected_counts,
    relabeled,
    symmetrize_densities,
)
from b92sec.states import OUTCOMES, SignalDensity

from conftest import DEG, symmetrized_bloch, symmetrized_outcomes

# large enough that integer rounding of exact expectations is ~1e-14 relative
EXACT_N = 2 ** 48


def make_counts(**overrides):
    base = dict(n00=100, n01=80, n0b0=5, n0b1=30, n10=80, n11=100,
                n1b0=30, n1b1=5, n_total=1000)
    base.update(overrides)
    return ObservedCounts(**base)


class TestObservedCounts:
    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            make_counts(n00=-1)

    def test_rejects_overflow(self):
        with pytest.raises(DomainError):
            make_counts(n_total=100)

    def test_json_round_trip(self):
        counts = make_counts()
        assert ObservedCounts.from_json(counts.to_json()) == counts

    def test_csv_round_trip(self):
        counts = make_counts()
        assert ObservedCounts.from_csv(counts.to_csv()) == counts

    def test_csv_header_contract(self):
        header = make_counts().to_csv().splitlines()[0]
        assert header == "n00,n01,n0b0,n0b1,n10,n11,n1b0,n1b1,n_total"


class TestEstimateChannel:
    def test_noiseless_identification(self):
        # theta = 0, eps = 0 at alpha = 30 deg: the two projections are
        # T' and T'/2 and the inversion returns (0, 0, T)
        alpha = 30 * DEG
        triple = ChannelTriple(0.0, 0.0, 0.75)
        counts = expected_counts(triple, alpha, EXACT_N)
        x1 = 2 * (counts.n00 - counts.n0b0 + counts.n11 - counts.n1b1) / (
            0.75 * EXACT_N)
        x2 = 2 * (counts.n01 - counts.n0b1 + counts.n10 - counts.n1b0) / (
            0.75 * EXACT_N)
        assert x1 == pytest.approx(1.0, abs=1e-12)
        assert x2 == pytest.approx(0.5, abs=1e-12)
        got = estimate_channel(counts, alpha)
        assert got.theta == pytest.approx(0.0, abs=1e-10)
        assert got.epsilon == pytest.approx(0.0, abs=1e-10)
        assert got.transmission == pytest.approx(0.75, abs=1e-12)

    def test_all_vacuum_is_infeasible(self):
        counts = ObservedCounts(0, 0, 0, 0, 0, 0, 0, 0, n_total=1000)
        with pytest.raises(EstimationInfeasibleError):
            estimate_channel(counts, 0.5)

    def test_forward_inverse_round_trip_to_four_decimals_at_1e6(self):
        triple = ChannelTriple(15 * DEG, 0.05, 0.8)
        counts = expected_counts(triple, 10 * DEG, 10 ** 6)
        got = estimate_channel(counts, 10 * DEG)
        assert got.theta == pytest.approx(triple.theta, abs=1e-4)
        assert got.epsilon == pytest.approx(triple.epsilon, abs=1e-4)
        assert got.transmission == pytest.approx(triple.transmission, abs=1e-4)

    def test_exact_round_trip_random_triples(self, rng):
        for _ in range(100):
            triple = ChannelTriple(rng.uniform(-0.6, 0.6), rng.uniform(0.0, 0.95),
                                   rng.uniform(0.05, 1.0))
            alpha = rng.uniform(5 * DEG, 85 * DEG)
            got = estimate_channel(expected_counts(triple, alpha, EXACT_N), alpha)
            assert got.theta == pytest.approx(triple.theta, abs=1e-10)
            assert got.epsilon == pytest.approx(triple.epsilon, abs=1e-10)
            assert got.transmission == pytest.approx(triple.transmission, abs=1e-10)

    def test_round_trip_reproduces_expected_counts(self):
        # estimate -> rebuild densities -> povm probabilities -> same counts
        triple = ChannelTriple(-12 * DEG, 0.2, 0.6)
        alpha = 25 * DEG
        counts = expected_counts(triple, alpha, EXACT_N)
        got = estimate_channel(counts, alpha)
        table = symmetrized_outcomes(got, alpha)
        for bit in (0, 1):
            for outcome in ("0", "1", "0b", "1b"):
                expected = counts.count(bit, outcome) / (EXACT_N / 2)
                assert table[bit, OUTCOMES.index(outcome)] == pytest.approx(
                    expected, abs=1e-10)

    def test_equivariance_under_bit_relabeling(self):
        counts = expected_counts(ChannelTriple(0.3, 0.15, 0.9), 0.4, 10 ** 8)
        a = estimate_channel(counts, 0.4)
        b = estimate_channel(relabeled(counts), 0.4)
        assert a == b

    def test_inconsistent_counts_rejected(self):
        # maximal asymmetry implies a Bloch norm well above 1
        counts = ObservedCounts(n00=500, n01=0, n0b0=0, n0b1=0,
                                n10=0, n11=500, n1b0=0, n1b1=0, n_total=1000)
        with pytest.raises(EstimationInfeasibleError):
            estimate_channel(counts, 5 * DEG)

    def test_small_overshoot_is_clamped(self):
        counts = expected_counts(ChannelTriple(0.0, 0.0, 1.0), 30 * DEG, 10 ** 6)
        got = estimate_channel(counts, 30 * DEG, clamp_tol=1e-2)
        assert got.epsilon == 0.0
        # an intentionally loose tolerance close to the exact point must not
        # flag exact data
        assert not got.clamped or got.epsilon == 0.0

    def test_degenerate_angle_refused(self):
        counts = make_counts()
        with pytest.raises(DegenerateAngleError):
            estimate_channel(counts, 0.0)
        with pytest.raises(DegenerateAngleError):
            estimate_channel(counts, math.pi / 2)


class TestSymmetrizeDensities:
    def test_fixed_point_on_symmetric_inputs(self):
        alpha = 0.3
        triple = ChannelTriple(0.17, 0.22, 0.8)
        rho0 = SignalDensity(triple.transmission, symmetrized_bloch(triple, alpha, 0))
        rho1 = SignalDensity(triple.transmission, symmetrized_bloch(triple, alpha, 1))
        got, (out0, out1) = symmetrize_densities(rho0, rho1, alpha)
        assert_allclose(out0.bloch, rho0.bloch, atol=1e-14)
        assert_allclose(out1.bloch, rho1.bloch, atol=1e-14)
        assert got.theta == pytest.approx(triple.theta, abs=1e-12)
        assert got.epsilon == pytest.approx(triple.epsilon, abs=1e-12)

    def test_conjugation_kills_y_component(self):
        rho = SignalDensity(1.0, (0.0, 0.9, 0.0))
        _, (out0, out1) = symmetrize_densities(rho, rho, 0.4)
        assert out0.bloch[1] == 0.0
        assert out1.bloch[1] == 0.0

    def test_transmissions_average(self):
        rho0 = SignalDensity(0.6, (math.sin(-0.5), 0.0, math.cos(-0.5)))
        rho1 = SignalDensity(1.0, (math.sin(0.5), 0.0, math.cos(0.5)))
        triple, _ = symmetrize_densities(rho0, rho1, 0.5)
        assert triple.transmission == pytest.approx(0.8)

    def test_total_loss_degenerates_gracefully(self):
        vac = SignalDensity.vacuum()
        triple, (out0, out1) = symmetrize_densities(vac, vac, 0.5)
        assert triple.transmission == 0.0
        assert out0.transmission == 0.0 and out1.transmission == 0.0

    def test_output_satisfies_reflection_symmetry(self, rng):
        for _ in range(30):
            v0 = rng.normal(size=3)
            v0 *= rng.uniform(0, 1) / np.linalg.norm(v0)
            v1 = rng.normal(size=3)
            v1 *= rng.uniform(0, 1) / np.linalg.norm(v1)
            rho0 = SignalDensity(rng.uniform(0.1, 1.0), tuple(v0))
            rho1 = SignalDensity(rng.uniform(0.1, 1.0), tuple(v1))
            _, (out0, out1) = symmetrize_densities(rho0, rho1, 0.3)
            assert out0.bloch[0] == pytest.approx(-out1.bloch[0], abs=1e-14)
            assert out0.bloch[2] == pytest.approx(out1.bloch[2], abs=1e-14)
            assert math.hypot(out0.bloch[0], out0.bloch[2]) <= 1.0 + 1e-12
