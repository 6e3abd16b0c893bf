import math

import numpy as np
import pytest

from b92sec.entropy import binary_entropy
from b92sec.errors import DomainError
from b92sec.estimation import ChannelTriple
from b92sec.evebound import eve_max_gain
from b92sec.infobounds import conclusive_entropy_floor, shannon_upper_bound

from conftest import DEG, explicit_povm_effects, explicit_qubit_block


class TestConclusiveProbability:
    def test_quarter_at_45_degrees(self):
        assert shannon_upper_bound(math.pi / 4, 0.0, 1.0).p_conc == pytest.approx(0.25)

    def test_half_for_orthogonal_signals(self):
        assert shannon_upper_bound(math.pi / 2, 0.0, 1.0).p_conc == pytest.approx(0.5)

    def test_depolarized_channel(self):
        for alpha in (0.1, 0.5, 1.2):
            assert shannon_upper_bound(alpha, 1.0, 0.7).p_conc == pytest.approx(0.35)

    def test_matches_povm_computation(self, rng):
        # the closed form agrees with summing Bob's conclusive effects
        for _ in range(50):
            alpha = rng.uniform(0.05, 1.5)
            eps = rng.uniform(0, 1)
            t = rng.uniform(0.05, 1)
            effects = explicit_povm_effects(alpha)
            rho0 = explicit_qubit_block(0.0, eps, t, alpha, 0)
            direct = np.trace((effects["0b"] + effects["1b"]) @ rho0)
            assert shannon_upper_bound(alpha, eps, t).p_conc == pytest.approx(
                float(np.real(direct)), abs=1e-12)

    def test_broadcasts_over_the_inputs(self):
        eps = np.linspace(0.0, 1.0, 5)
        rep = shannon_upper_bound(np.array([[0.3], [0.6]]), eps, 0.8)
        assert rep.p_conc.shape == rep.upper_bound.shape == rep.term_control.shape == (2, 5)
        for i, alpha in enumerate((0.3, 0.6)):
            for j, e in enumerate(eps):
                one = shannon_upper_bound(alpha, e, 0.8)
                assert rep.upper_bound[i, j] == one.upper_bound
                assert rep.error_rate[i, j] == one.error_rate


class TestBitErrorRate:
    def test_noiseless(self):
        assert shannon_upper_bound(0.3, 0.0, 1.0).error_rate == 0.0

    def test_fully_mixed(self):
        assert shannon_upper_bound(0.3, 1.0, 1.0).error_rate == pytest.approx(0.5)

    def test_reference_value(self):
        # frozen from the closed form at alpha = 10 deg, eps = 0.13
        got = shannon_upper_bound(10 * DEG, 0.13, 1.0).error_rate
        assert got == pytest.approx(0.13 / (2 - 0.87 * (math.cos(20 * DEG) + 1)),
                                    abs=1e-15)
        assert got == pytest.approx(0.4160433751, abs=1e-9)

    def test_degenerate_denominator(self):
        with pytest.raises(DomainError):
            shannon_upper_bound(0.0, 0.0, 1.0)
        # one vanishing entry fails the whole array
        with pytest.raises(DomainError):
            shannon_upper_bound(np.array([0.3, 0.0]), 0.0, 1.0)

    @pytest.mark.parametrize("eps, t", [(-0.1, 1.0), (1.5, 1.0), (0.1, 0.0), (0.1, 1.5)])
    def test_noise_or_transmission_out_of_range_rejected(self, eps, t):
        with pytest.raises(DomainError):
            shannon_upper_bound(0.3, np.array([0.1, eps]), t)


class TestEntropyFloor:
    def test_half_rate_drops_the_radical(self):
        alpha = 0.6
        got = conclusive_entropy_floor(0.5, alpha)
        assert got == pytest.approx(binary_entropy(0.5 - math.sin(alpha) / 2),
                                    abs=1e-12)

    def test_orthogonal_limit_gives_full_control(self):
        # alpha -> pi/2 at x = 1/2: floor h(0) = 0, so the control term -> 1
        assert conclusive_entropy_floor(0.5, math.pi / 2) == pytest.approx(0.0,
                                                                           abs=1e-12)

    def test_parallel_limit_gives_no_control(self):
        assert conclusive_entropy_floor(0.5, 1e-9) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("edge", (1.0, -1.0))
    def test_rate_rounded_past_the_window_edge_gives_no_control(self, edge):
        # the range check lets |1 - 2x| / cos a exceed 1 by up to 1e-12; here
        # by 3.1e-14, where 1 - ratio^2 is negative and the radical is 0
        alpha = 0.7
        x = 0.5 * (1.0 - edge * math.cos(alpha) * (1.0 + 3.1e-14))
        assert conclusive_entropy_floor(x, alpha) == 1.0

    def test_infeasible_rate_rejected(self):
        with pytest.raises(DomainError):
            conclusive_entropy_floor(0.01, 0.3)  # below (1 - cos a)/2 at small a?
        with pytest.raises(DomainError):
            conclusive_entropy_floor(0.999, 0.3)

    def test_monotone_in_angle(self):
        # larger angle -> more controllable outcomes -> smaller floor
        x = 0.5
        values = [conclusive_entropy_floor(x, a) for a in np.linspace(0.1, 1.5, 30)]
        assert all(d <= 1e-12 for d in np.diff(values))


class TestShannonUpperBound:
    def test_orthogonal_noiseless_bound_is_vacuous(self):
        rep = shannon_upper_bound(math.pi / 2, 0.0, 1.0)
        assert rep.term_state == pytest.approx(2.0, abs=1e-9)
        assert rep.upper_bound >= 1.0  # a ceiling of one bit or more says nothing

    def test_control_term_at_full_noise(self):
        # eps = 1 puts the conclusive rate at x = 1/2 for every alpha and T,
        # where the floor is h(1/2 - sin(alpha)/2): h(1/4) at 30 degrees
        rep = shannon_upper_bound(math.pi / 6, 1.0, 0.7)
        assert rep.term_control == pytest.approx(1.0 - binary_entropy(0.25), abs=1e-12)

    def test_total_is_sum_of_terms(self, rng):
        for _ in range(30):
            alpha = rng.uniform(0.1, 1.4)
            eps = rng.uniform(0.0, 0.9)
            t = rng.uniform(0.1, 1.0)
            rep = shannon_upper_bound(alpha, eps, t)
            if not math.isinf(rep.upper_bound):
                assert rep.upper_bound == pytest.approx(
                    (rep.term_state + rep.term_control) / (1 - rep.error_rate))

    def test_bound_decreases_with_noise_in_small_angle_regime(self):
        # the ceiling falls as noise rises at alpha = 10 deg, T = 0.3
        grid = np.linspace(0.15, 0.6, 20)
        values = [shannon_upper_bound(10 * DEG, e, 0.3).upper_bound for e in grid]
        assert all(d < 0.0 for d in np.diff(values))

    def test_dominates_exact_shannon_gain(self):
        # ceiling vs the exact optimum on a noise grid (alpha = 10 deg, T = 0.3)
        alpha, t = 10 * DEG, 0.3
        for eps in np.linspace(0.01, 0.9, 100):
            rep = shannon_upper_bound(alpha, eps, t)
            exact = eve_max_gain(alpha, alpha, ChannelTriple(0.0, eps, t))
            assert exact.info_gain_shannon <= min(1.0, rep.upper_bound) + 1e-9


def test_weighted_floor_is_convex():
    # x * floor(x) convex on the feasible window for a spread of angles
    for alpha_deg in range(5, 90, 10):
        alpha = alpha_deg * DEG
        lo = (1 - math.cos(alpha)) / 2 + 1e-9
        hi = (1 + math.cos(alpha)) / 2 - 1e-9
        xs = np.linspace(lo, hi, 1000)
        values = np.array([x * conclusive_entropy_floor(x, alpha) for x in xs])
        second = np.diff(values, 2)
        assert second.min() >= -1e-9
