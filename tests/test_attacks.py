import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from b92sec.attacks import (
    AttackChannel,
    critical_weakness,
    depolarize,
    identity_attack,
    loss,
    mix,
    outcome_probability,
    parse_attack,
    post_measurement_angle,
    rotation_attack,
    weak_measurement_attack,
)
from b92sec.errors import DomainError
from b92sec.estimation import ChannelTriple
from b92sec.evebound import eve_max_gain, full_info_region
from b92sec.simulate import SimConfig, run_simulation

from conftest import (
    DEG,
    SignalDensity,
    _balance_residual,
    attack_noise_rate,
    bar_ket,
    ket,
    projector,
    rotation_triple,
    sqrt_effect_angle,
    symmetrize_densities,
)

# signal angles on both sides of 45 degrees, where the attacks' tilt flips
SYMMETRY_DEGREES = (10, 30, 44, 46, 60, 80, 85)


def delivered_states(channel: AttackChannel, alpha: float) -> list[SignalDensity]:
    """The states the channel delivers for bit 0 and bit 1, branch by branch."""
    states = []
    for bit, signal in enumerate((-alpha, alpha)):
        transmission, bloch = 0.0, np.zeros(3)
        for branch in channel.branches:
            if not branch.to_vacuum:
                phi = signal + branch.rotations[bit]
                transmission += branch.weights[bit]
                bloch += branch.weights[bit] * np.array([math.sin(phi), 0.0, math.cos(phi)])
        states.append(SignalDensity(transmission, tuple(bloch / transmission)))
    return states


def assert_symmetrizes_to(channel: AttackChannel, alpha: float, theta: float, eps: float):
    got, _ = symmetrize_densities(*delivered_states(channel, alpha), alpha)
    assert abs(math.remainder(got.theta - theta, 2 * math.pi)) <= 1e-12
    assert got.epsilon == pytest.approx(eps, abs=1e-12)


class TestRotationAttack:
    def test_predicted_noise_rate(self):
        predicted = rotation_triple(10 * DEG)
        assert predicted.epsilon == pytest.approx(2 * math.sin(10 * DEG) ** 2)
        assert predicted.epsilon == pytest.approx(0.06030737921, abs=1e-9)
        assert predicted.theta == 0.0 and predicted.transmission == 1.0

    def test_vanishing_disturbance_at_small_angle(self):
        predicted = rotation_triple(1e-6)
        assert predicted.epsilon == pytest.approx(0.0, abs=1e-11)

    def test_averaged_output_matches_symmetrized_form(self):
        # mixing the two rotated copies of |sigma_alpha> reproduces
        # cos^2(a)|sigma_a><sigma_a| + sin^2(a)|bar><bar| exactly
        alpha = 0.4
        channel = rotation_attack(alpha)
        mixture = np.zeros((2, 2))
        for branch in channel.branches:
            assert not branch.to_vacuum
            mixture += branch.weights[1] * projector(ket(alpha + branch.rotations[1]))
        expected = (math.cos(alpha) ** 2 * projector(ket(alpha))
                    + math.sin(alpha) ** 2 * projector(bar_ket(alpha)))
        assert_allclose(mixture, expected, atol=1e-12)

    def test_branch_guesses_cover_both_bits(self):
        channel = rotation_attack(0.3)
        assert sorted(br.guess for br in channel.branches) == [0, 1]

    @pytest.mark.parametrize("alpha_deg", SYMMETRY_DEGREES)
    def test_predicted_triple_is_the_symmetrized_output(self, alpha_deg):
        # past 45 degrees the rotated signals pass the opposite pole: the
        # tilt is pi and eps = 2 cos^2 alpha stays inside [0, 1]
        alpha = alpha_deg * DEG
        channel, predicted = rotation_attack(alpha), rotation_triple(alpha)
        assert predicted.theta == (0.0 if alpha_deg < 45 else math.pi)
        assert_symmetrizes_to(channel, alpha, predicted.theta, predicted.epsilon)

    def test_full_information_at_60_degrees(self):
        alpha = 60 * DEG
        result = run_simulation(SimConfig(n_total=10 ** 5, alpha_prime=alpha, alpha=alpha,
                                          attack=parse_attack("rotation", alpha), seed=7))
        assert result.eve_accuracy_correct == 1.0


class TestWeakMeasurement:
    def test_angle_endpoints(self):
        alpha = 0.5
        assert post_measurement_angle(0.5, alpha) == pytest.approx(2 * alpha)
        assert post_measurement_angle(0.0, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_angle_monotone_on_grid(self):
        alpha = 0.6
        qs = np.linspace(0.0, 0.5, 500)
        betas = [post_measurement_angle(q, alpha) for q in qs]
        assert all(d >= -1e-12 for d in np.diff(betas))

    def test_derived_midpoint_value(self):
        # q = 0.25, alpha = 30 deg, frozen from the closed form
        beta = post_measurement_angle(0.25, 30 * DEG)
        expected = 2 * math.acos(math.cos(30 * DEG)
                                 / math.sqrt(1 - 0.25 * math.sin(30 * DEG) ** 2))
        assert beta == pytest.approx(expected, abs=1e-14)
        assert 0.0 < beta < 2 * 30 * DEG

    def test_angle_matches_post_measurement_geometry(self):
        # independent check via explicit sqrt-effect action on the signals
        alpha, q = 0.5, 0.17
        post0 = sqrt_effect_angle(q, -alpha, plus=True)
        post1 = sqrt_effect_angle(q, alpha, plus=True)
        assert post1 - post0 == pytest.approx(post_measurement_angle(q, alpha),
                                              abs=1e-12)

    def test_outcome_probabilities_normalize_and_mirror(self):
        alpha, q = 0.7, 0.2
        for bit in (0, 1):
            total = (outcome_probability(q, alpha, bit, True)
                     + outcome_probability(q, alpha, bit, False))
            assert total == pytest.approx(1.0)
        assert outcome_probability(q, alpha, 0, True) == pytest.approx(
            outcome_probability(q, alpha, 1, False))

    def test_reduces_to_rotation_at_half(self):
        alpha = 0.4
        weak = weak_measurement_attack(0.5, alpha)
        rot = rotation_attack(alpha)
        for wb, rb in zip(weak.branches, rot.branches):
            assert_allclose(wb.weights, rb.weights, atol=1e-12)
            assert_allclose(wb.rotations, rb.rotations, atol=1e-12)
            assert wb.guess == rb.guess


class TestCriticalWeakness:
    def test_balance_residual_vanishes_at_root(self):
        for alpha_deg in (0.001, 10, 20, 30, 40, 60, 75, 80, 85, 89):
            alpha = alpha_deg * DEG
            q0 = critical_weakness(alpha)
            assert 0.0 < q0 < 0.5
            assert abs(_balance_residual(q0, alpha)) < 1e-10

    def test_half_is_also_a_root(self):
        assert abs(_balance_residual(0.5, 0.6)) < 1e-12

    def test_derived_value_at_30_degrees(self):
        # frozen from the bisection, double-checked through the noise rate
        q0 = critical_weakness(30 * DEG)
        assert q0 == pytest.approx(0.018392, abs=1e-5)

    def test_matches_the_50_digit_root(self):
        # the cubic's root in q, bracketed on [0, 1/2] at 50 digits; q0 spans
        # 1/2 (alpha -> 0) down to 1e-40 (alpha -> 90 degrees)
        degrees = np.concatenate((np.geomspace(1e-6, 1.0, 25), np.linspace(1.0, 89.999, 120)))
        for alpha in np.radians(degrees).tolist():
            with mpmath.workdps(50):
                s = mpmath.sin(alpha)

                def cubic(q):
                    return ((1 - s) ** 4 - 2 * (3 * s ** 4 - 8 * s ** 3 + 6 * s ** 2 + 1) * q
                            + (12 * s ** 4 - 16 * s ** 3) * q ** 2 - 8 * s ** 4 * q ** 3)

                want = mpmath.findroot(cubic, (mpmath.mpf(0), mpmath.mpf(0.5)),
                                       solver="anderson")
                got = critical_weakness(alpha)
                assert abs(got - want) <= 1e-13 * want, math.degrees(alpha)
            assert abs(_balance_residual(got, alpha)) <= 1e-15
        assert attack_noise_rate(critical_weakness(89.999 * DEG), 89.999 * DEG) > 0.0


class TestAttackNoiseRate:
    def test_pure_rotation_limit(self):
        alpha = 0.5
        assert attack_noise_rate(0.5, alpha) == pytest.approx(
            2 * math.sin(alpha) ** 2, abs=1e-12)

    def test_unbalanced_weakness_rejected(self):
        with pytest.raises(DomainError):
            attack_noise_rate(0.3, 0.5)

    @pytest.mark.parametrize("alpha", (0.0, -0.3, math.pi / 2, 2.0, math.nan))
    @pytest.mark.parametrize("attack", ("rotation", "weak-meas", "q0", "noise"))
    def test_signal_angle_outside_the_open_quarter_rejected(self, attack, alpha):
        # the noise rate used to divide by sin 2 alpha = 0 at alpha = 0, and
        # returned eps = 1.83 and 1.65 at alpha = -0.3 and 2.0
        build = {"rotation": rotation_attack,
                 "weak-meas": lambda a: weak_measurement_attack(0.5, a),
                 "q0": critical_weakness,
                 "noise": lambda a: attack_noise_rate(0.5, a)}[attack]
        with pytest.raises(DomainError, match="signal angle"):
            build(alpha)

    def test_critical_weakness_lands_on_region_boundary(self):
        # eps(q0) and eps(1/2) both sit on the edge of the full-information
        # region computed independently from the overlap bound: the point is
        # inside, and stepping outward (down from the lower edge, up from the
        # upper edge) leaves the region; the q = 1/2 side has tilt 0 only
        # below 45 degrees
        for alpha_deg in (10, 20, 30, 40, 60, 75, 80, 85):
            alpha = alpha_deg * DEG
            sides = [(critical_weakness(alpha), -2e-3)] + [(0.5, 2e-3)] * (alpha_deg < 45)
            for q, outward in sides:
                eps = attack_noise_rate(q, alpha)
                inside = eve_max_gain(alpha, alpha, ChannelTriple(0.0, eps, 1.0))
                assert inside.overlap_min <= 1e-9
                stepped = eve_max_gain(alpha, alpha,
                                       ChannelTriple(0.0, eps + outward, 1.0))
                assert stepped.overlap_min > 1e-9

    @pytest.mark.parametrize("alpha_deg", SYMMETRY_DEGREES)
    def test_noise_rate_is_the_symmetrized_output(self, alpha_deg):
        # the tilt is pi where sin(2 alpha + beta) < 0
        alpha = alpha_deg * DEG
        for q in (critical_weakness(alpha), 0.5):
            beta = post_measurement_angle(q, alpha)
            theta = 0.0 if math.sin(2 * alpha + beta) > 0.0 else math.pi
            assert_symmetrizes_to(weak_measurement_attack(q, alpha), alpha, theta,
                                  attack_noise_rate(q, alpha))

    def test_mixing_spans_the_interval(self):
        alpha = 20 * DEG
        q0 = critical_weakness(alpha)
        eps_low = attack_noise_rate(q0, alpha)
        eps_high = attack_noise_rate(0.5, alpha)
        assert eps_low < eps_high
        # interior channels stay inside the full-information region
        for frac in (0.25, 0.5, 0.75):
            eps = eps_low + frac * (eps_high - eps_low)
            res = eve_max_gain(alpha, alpha, ChannelTriple(0.0, eps, 1.0))
            assert res.overlap_min <= 1e-9


class TestFullInfoRegion:
    def test_rotation_boundary_inside_at_unit_transmission(self):
        alphas = np.array([5, 15, 25, 35]) * DEG
        epsilons = np.array([2 * math.sin(a) ** 2 for a in alphas])
        region = full_info_region(alphas, epsilons, 1.0)
        assert all(region[i, i] for i in range(len(alphas)))

    def test_intermediate_angle_resists_small_noise(self):
        region = full_info_region([45 * DEG], [0.01], 1.0)
        assert not region[0, 0]

    def test_loss_widens_the_region(self):
        alphas = np.linspace(5, 80, 8) * DEG
        epsilons = np.linspace(0.01, 0.6, 9)
        at_unit = full_info_region(alphas, epsilons, 1.0)
        lossy = full_info_region(alphas, epsilons, 0.8)
        assert np.all(lossy | ~at_unit)  # pointwise superset


class TestChannelPlumbing:
    def test_weights_must_normalize(self):
        from b92sec.attacks import AttackBranch
        with pytest.raises(DomainError):
            AttackChannel((AttackBranch(weights=(0.6, 0.6)),))

    def test_compose_absorbs_vacuum(self):
        channel = loss(0.5).compose(rotation_attack(0.3))
        vac_branches = [b for b in channel.branches if b.to_vacuum]
        assert vac_branches
        assert sum(b.weights[0] for b in vac_branches) == pytest.approx(0.5)

    def test_mix_weights(self):
        mixed = mix(depolarize(0.2), identity_attack(), 0.3)
        assert sum(b.weights[0] for b in mixed.branches) == pytest.approx(1.0)

    def test_parse_round_trip(self):
        channel = parse_attack("depolarize(epsilon=0.1)|loss(T=0.8)", 0.3)
        assert len(channel.branches) == 4
        channel = parse_attack("weak-meas(q=0.2)", 0.3)
        assert len(channel.branches) == 2
        channel = parse_attack("mixed(q=0.1, lambda=0.5)", 0.3)
        assert len(channel.branches) == 4
        with pytest.raises(DomainError):
            parse_attack("teleport", 0.3)
        with pytest.raises(DomainError):
            parse_attack("weak-meas(q)", 0.3)
        with pytest.raises(DomainError, match=r"cannot parse attack stage: 'loss\(T=0\.5'"):
            parse_attack("identity|loss(T=0.5", 0.3)

    def test_zero_weight_branches_are_dropped(self):
        # compose drops a branch that neither bit reaches, mix a side of weight 0
        assert parse_attack("depolarize(epsilon=0)|loss(T=1)", 0.3) == identity_attack()
        assert parse_attack("mixed(q=0.2, lambda=1)", 0.3) == weak_measurement_attack(0.2, 0.3)

    def test_parse_keeps_aliases_and_defaults(self):
        assert parse_attack("depolarize(eps=0.1)", 0.3) == depolarize(0.1)
        assert parse_attack("loss(transmission=0.6)", 0.3) == loss(0.6)
        assert parse_attack("loss(t=0.6)", 0.3) == loss(0.6)
        assert parse_attack("loss", 0.3) == loss(1.0)
        assert parse_attack("depolarize", 0.3) == depolarize(0.0)
        assert parse_attack("mixed(q=0.1, lam=0.3)", 0.3) == parse_attack(
            "mixed(q=0.1, lambda=0.3)", 0.3)
        assert parse_attack("mixed(q=0.1)", 0.3) == parse_attack(
            "mixed(q=0.1, lambda=0.5)", 0.3)
        assert parse_attack("weak(q=0.2)", 0.3) == parse_attack("weak-meas(q=0.2)", 0.3)

    @pytest.mark.parametrize("text, stage, key", (
        ("loss(transmision=0.5)", "loss", "transmision"),
        ("identity(q=3)", "identity", "q"),
        ("depolarize(eps=0.1, foo=3)", "depolarize", "foo"),
        ("weak-meas", "weak-meas", "q"),
        ("mixed(lambda=0.2)", "mixed", "q"),
        ("loss(T=abc)", "loss", "t"),
        ("depolarize(eps=0.1, epsilon=0.2)", "depolarize", "epsilon"),
    ))
    def test_bad_keys_name_stage_and_key(self, text, stage, key):
        with pytest.raises(DomainError) as excinfo:
            parse_attack(f"identity|{text}", 0.3)
        message = str(excinfo.value)
        assert repr(stage) in message and repr(key) in message
