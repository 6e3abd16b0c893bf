import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from b92sec.errors import DomainError
from b92sec.estimation import ChannelTriple
from b92sec.states import OUTCOMES, BlochState, make_alice_states, outcome_table

from conftest import (
    DEG,
    SignalDensity,
    bar_ket,
    bloch_of_matrix,
    explicit_povm_effects,
    explicit_qubit_block,
    ket,
    projector,
    symmetrized_bloch,
)


class TestBlochState:
    def test_overlap_law_on_grid(self):
        # |<sigma_a|sigma_b>|^2 == cos^2((a-b)/2) across the full circle
        angles = np.linspace(-math.pi + 1e-9, math.pi, 100)
        for a in angles[::7]:
            for b in angles:
                lhs = BlochState(a).overlap(BlochState(b)) ** 2
                rhs = math.cos((a - b) / 2.0) ** 2
                assert abs(lhs - rhs) < 1e-12

    def test_angle_wrapping(self):
        assert BlochState(3 * math.pi).phi == pytest.approx(math.pi)
        assert BlochState(-math.pi).phi == pytest.approx(math.pi)


class TestAliceStates:
    def test_orthogonal_at_right_angle(self):
        zero, one = make_alice_states(math.pi / 2)
        assert abs(zero.overlap(one)) < 1e-15

    def test_identical_at_zero(self):
        zero, one = make_alice_states(0.0)
        assert zero.overlap(one) == pytest.approx(1.0)

    def test_sixty_degrees(self):
        zero, one = make_alice_states(math.pi / 3)
        assert zero.overlap(one) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("bad", [-0.1, math.pi / 2 + 0.1, 3.0])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(DomainError):
            make_alice_states(bad)


class TestPovm:
    def test_vacuum_outcome_on_pure_vacuum(self):
        assert outcome_table(0.3, 0.0, 0.0, 0.0)[OUTCOMES.index("V")] == pytest.approx(1.0)

    def test_half_weight_on_own_eigenvector(self):
        alpha = 0.4
        got = outcome_table(alpha, -alpha, 1.0, 1.0)[OUTCOMES.index("0")]
        assert got == pytest.approx(0.5, abs=1e-15)

    def test_conclusive_error_effect_value(self):
        # F_1b on |sigma_-alpha> at alpha = 10 deg: (1/2) sin^2(alpha)
        alpha = 10 * DEG
        got = outcome_table(alpha, -alpha, 1.0, 1.0)[OUTCOMES.index("1b")]
        assert got == pytest.approx(0.015076844803522902, abs=1e-15)
        # cross-check by explicit 2x2 trace
        explicit = np.trace(explicit_povm_effects(alpha)["1b"] @ np.outer(ket(-alpha), ket(-alpha)))
        assert got == pytest.approx(float(np.real(explicit)), abs=1e-12)
        # and against the overlap law
        assert got == pytest.approx(0.5 * (1 - math.cos(alpha) ** 2), abs=1e-12)

    def test_completeness_on_random_states(self, rng):
        for _ in range(200):
            alpha = rng.uniform(0.0, math.pi / 2)
            t = rng.uniform(0.0, 1.0)
            phi = rng.uniform(-math.pi, math.pi)
            r = rng.uniform(0.0, 1.0)
            total = outcome_table(alpha, phi, r, t).sum()
            assert abs(total - 1.0) < 1e-12

    def test_probabilities_match_explicit_matrices(self, rng):
        alpha = 23 * DEG
        effects = explicit_povm_effects(alpha)
        for _ in range(50):
            phi = rng.uniform(-math.pi, math.pi)
            t = rng.uniform(0.1, 1.0)
            # Bloch length 0.9: weight 0.95 on |phi>, 0.05 on its partner
            rho = t * (0.95 * projector(ket(phi)) + 0.05 * projector(bar_ket(phi)))
            table = outcome_table(alpha, phi, 0.9, t)
            for label, effect in effects.items():
                assert table[OUTCOMES.index(label)] == pytest.approx(
                    float(np.real(np.trace(effect @ rho))), abs=1e-12)

    def test_broadcasts_and_appends_the_outcome_axis(self):
        table = outcome_table(0.3, np.zeros((2, 1)), 0.9, np.array([0.0, 0.5, 1.0]))
        assert table.shape == (2, 3, len(OUTCOMES))
        assert_allclose(table.sum(axis=-1), 1.0, atol=1e-15)
        assert_allclose(table[..., OUTCOMES.index("V")], [[1.0, 0.5, 0.0]] * 2)

    @pytest.mark.parametrize("bad", [-0.1, math.pi / 2 + 0.1, math.nan])
    def test_analyzer_angle_out_of_range_rejected(self, bad):
        with pytest.raises(DomainError):
            outcome_table(bad, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            outcome_table(np.array([0.2, bad]), 0.0, 1.0, 1.0)

    def test_effects_resolve_identity_on_the_qubit_sector(self):
        # the four polarization effects are half-weight projectors over two
        # complete bases, so they sum to the identity exactly
        total = sum(explicit_povm_effects(0.37).values())
        assert_allclose(total, np.eye(2), atol=1e-15)


class TestSymmetrizedDensity:
    def test_noiseless_is_pure_signal(self):
        triple = ChannelTriple(0.0, 0.0, 1.0)
        bloch = symmetrized_bloch(triple, 0.35, bit=1)
        assert_allclose(bloch, [math.sin(0.35), 0.0, math.cos(0.35)], atol=1e-15)
        assert_allclose(bloch, bloch_of_matrix(projector(ket(0.35))), atol=1e-15)

    def test_full_noise_is_maximally_mixed(self):
        triple = ChannelTriple(0.7, 1.0, 0.9)
        bloch = symmetrized_bloch(triple, 0.2, bit=0)
        assert_allclose(bloch, [0.0, 0.0, 0.0], atol=1e-15)

    def test_derived_bloch_vector_matches_explicit_construction(self):
        theta, eps, alpha, t = 15 * DEG, 0.05, 10 * DEG, 0.8
        triple = ChannelTriple(theta, eps, t)
        for bit in (0, 1):
            bloch = symmetrized_bloch(triple, alpha, bit)
            explicit = explicit_qubit_block(theta, eps, t, alpha, bit)
            assert_allclose(t * np.array(bloch), bloch_of_matrix(explicit),
                            atol=1e-12)

    def test_reflection_symmetry(self, rng):
        for _ in range(50):
            triple = ChannelTriple(rng.uniform(-0.5, 0.5), rng.uniform(0, 1),
                                   rng.uniform(0, 1))
            alpha = rng.uniform(0.05, 1.4)
            r0 = symmetrized_bloch(triple, alpha, 0)
            r1 = symmetrized_bloch(triple, alpha, 1)
            assert r0[2] == pytest.approx(r1[2], abs=1e-15)
            assert r0[0] == pytest.approx(-r1[0], abs=1e-15)
            assert r0[1] == 0.0 == r1[1]

    def test_forward_model_for_estimator(self):
        # Tr[(F0 - F0b) rho_0^s] == (T/2)(1 - eps) cos(theta): the relation
        # the count inversion relies on
        theta, eps, alpha, t = 0.22, 0.13, 0.3, 0.77
        p = dict(zip(OUTCOMES, outcome_table(alpha, -(alpha + theta), 1 - eps, t)))
        lhs = p["0"] - p["0b"]
        assert lhs == pytest.approx(0.5 * t * (1 - eps) * math.cos(theta), abs=1e-12)
        lhs2 = p["1"] - p["1b"]
        assert lhs2 == pytest.approx(
            0.5 * t * (1 - eps) * math.cos(theta + 2 * alpha), abs=1e-12)

    def test_parameter_validation(self):
        # the signal operator holds the symmetrized block of a valid triple and
        # refuses a Bloch vector past the sphere or a weight outside [0, 1]
        bloch = symmetrized_bloch(ChannelTriple(0.0, 0.0, 1.0), 0.3, bit=0)
        assert SignalDensity(1.0, bloch).bloch == bloch
        with pytest.raises(DomainError):
            SignalDensity(1.0, tuple(1.5 * c for c in bloch))
        with pytest.raises(DomainError):
            SignalDensity(1.5, bloch)


def test_outcome_labels_are_fixed():
    assert OUTCOMES == ("0", "0b", "1", "1b", "V")
