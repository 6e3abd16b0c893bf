import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from b92sec.errors import (
    B92Error,
    DegenerateChannelError,
    DomainError,
    UnreachableChannelError,
)
from b92sec.estimation import ChannelTriple
from b92sec.evebound import (
    DET_SLOP,
    FAMILIES,
    FREE,
    OK,
    TYPE1,
    TYPE3P,
    SymMat2,
    build_matrices,
    collision_gain,
    constraint_max,
    eve_bound,
    eve_max_gain,
    flipped_bit_gain,
    min_overlap_at,
    shannon_gain,
    stationary_curves,
)

from conftest import DEG, sym_matrix


def contraction_grid_max_b(b: SymMat2, steps: int = 720) -> float:
    """Independent grid maximum of Tr[B xi] over orthogonal 2x2 xi."""
    best = -math.inf
    arr = sym_matrix(b)
    for eta in np.linspace(0.0, 2 * math.pi, steps, endpoint=False):
        c, s = math.cos(eta), math.sin(eta)
        for xi in (np.array([[c, -s], [s, c]]), np.array([[c, s], [s, -c]])):
            best = max(best, float(np.trace(arr @ xi)))
    return best


class TestBuildMatrices:
    def test_noiseless_limits(self):
        alpha = 0.5
        a, b = build_matrices(alpha, 0.0, 0.0)
        assert_allclose([a.m11, a.m12, a.m22], [1.0, 0.0, 0.0], atol=1e-12)
        assert_allclose([b.m11, b.m12, b.m22], [math.cos(alpha), 0.0, 0.0],
                        atol=1e-12)

    def test_full_noise_entries(self):
        alpha, theta = 0.4, 0.2
        a, b = build_matrices(alpha, theta, 1.0)
        assert a.m12 == pytest.approx(-math.sin(2 * alpha + theta) / 2.0, abs=1e-14)
        assert b.m12 == pytest.approx(math.sin(alpha + theta) / 2.0, abs=1e-14)
        assert b.m11 == pytest.approx(math.cos(alpha + theta) / 2.0, abs=1e-14)

    def test_structural_identities_on_random_inputs(self, rng):
        # trace one and rank one for the objective, indefinite constraint
        for _ in range(300):
            alpha = rng.uniform(0.02, 1.5)
            theta = rng.uniform(-0.6, 0.6)
            eps = rng.uniform(1e-6, 1.0)
            a, b = build_matrices(alpha, theta, eps)
            assert abs(a.trace() - 1.0) < 1e-12
            assert abs(a.det()) < 1e-12
            assert b.det() <= 1e-15

    def test_degenerate_channel_rejected(self):
        with pytest.raises(DegenerateChannelError):
            build_matrices(0.3, -0.6, 0.0)

    def test_denominator_near_its_zero(self):
        # 1 - (1 - eps) cos(2 alpha + theta) as 2 alpha + theta -> 0, against
        # a 50-digit reference; the direct form loses it to cancellation
        import mpmath

        from b92sec.evebound import _matrices

        rng = np.random.default_rng(20240811)
        mpmath.mp.dps = 50
        for _ in range(500):
            alpha = rng.uniform(2 * DEG, 45 * DEG)
            theta = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, -1.0) - 2.0 * alpha
            eps = 0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-14.0, -2.0)
            den = _matrices(alpha, theta, eps)[2]
            want = 1 - (1 - mpmath.mpf(eps)) * mpmath.cos(2 * mpmath.mpf(alpha) + mpmath.mpf(theta))
            assert abs(den - want) <= 1e-14 * want, (alpha, theta, eps)

    def test_derived_entries_at_reference_point(self):
        a, b = build_matrices(10 * DEG, 15 * DEG, 0.05)
        # frozen from direct evaluation of the closed-form entries
        assert a.m11 == pytest.approx(0.79496094898, abs=1e-10)
        assert a.m12 == pytest.approx(-0.40373015564, abs=1e-10)
        assert a.m22 == pytest.approx(0.20503905102, abs=1e-10)
        assert b.m11 == pytest.approx(0.88365009236, abs=1e-10)
        assert b.m12 == pytest.approx(0.06598125497, abs=1e-10)
        assert b.m22 == pytest.approx(-0.02265769468, abs=1e-10)


class TestConstraintMax:
    def test_single_entry(self):
        assert constraint_max(SymMat2(0.8, 0.0, 0.0)) == pytest.approx(0.8)

    def test_antitrace(self):
        assert constraint_max(SymMat2(0.3, 0.0, -0.3)) == pytest.approx(0.6)

    def test_positive_definite_rejected(self):
        with pytest.raises(DomainError):
            constraint_max(SymMat2(1.0, 0.0, 1.0))

    def test_matches_grid_maximum(self):
        _, b = build_matrices(10 * DEG, 15 * DEG, 0.05)
        assert constraint_max(b) == pytest.approx(contraction_grid_max_b(b),
                                                  abs=1e-4)


def type3_b(f, sign: float, x):
    """Constraint value B = sign (b_p (1 - x) + x Tr B) on family type3 at x = cos eta."""
    return sign * (f.b_p * (1.0 - x) + x * f.tr_b)


class TestStationaryCurves:
    def test_reference_point_families(self):
        # alpha=10deg, eps=0.05, theta=15deg: the rotation-reflection family
        # plus both signs of the rank-1 family; only the negative sign covers
        # negative constraint values (its mirror covers the plotted window)
        a, b = build_matrices(10 * DEG, 15 * DEG, 0.05)
        f = stationary_curves(a, b)
        assert not f.degenerate
        assert f.type3
        ends = (type3_b(f, 1.0, 1.0), type3_b(f, 1.0, -1.0))
        lo_p, hi_p = min(ends), max(ends)
        assert lo_p > 0.0  # covers only positive constraint values here
        minus = (type3_b(f, -1.0, 1.0), type3_b(f, -1.0, -1.0))
        assert_allclose(sorted((-hi_p, -lo_p)), sorted(minus), atol=1e-14)
        # the written-out 2x2 algebra against numpy's: P is the rank-1
        # projector along the nonzero generalized eigenvalue of (A, B)
        kappa = max(np.linalg.eigvals(np.linalg.solve(sym_matrix(b), sym_matrix(a))),
                    key=abs).real
        m = sym_matrix(a) - kappa * sym_matrix(b)
        p = m / np.trace(m)
        assert_allclose(np.linalg.eigvalsh(p), [0.0, 1.0], atol=1e-12)
        assert f.a_p == pytest.approx(np.trace(sym_matrix(a) @ p), abs=1e-12)
        assert f.b_p == pytest.approx(np.trace(sym_matrix(b) @ p), abs=1e-12)

    def test_type3_endpoints_hit_unit_overlap(self):
        a, b = build_matrices(0.7, 0.1, 0.3)
        f = stationary_curves(a, b)
        if f.type3:
            # Q = +-(a_p (1 - x) + x) at x = cos 0
            assert abs(f.a_p * (1.0 - 1.0) + 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_type1_small_noise_limit(self):
        a, b = build_matrices(0.5, 0.0, 1e-7)
        f = stationary_curves(a, b)
        assert not f.degenerate
        # Q = qc cos eta + qs sin eta at eta = 0
        assert f.qc == pytest.approx(1.0, abs=1e-5)

    def test_noiseless_routes_to_closed_form(self):
        a = SymMat2(1.0, 0.0, 0.0)
        b = SymMat2(0.8, 0.0, 0.0)
        assert stationary_curves(a, b).degenerate
        q, regime, _ = min_overlap_at(a, b, 0.6)
        assert q == pytest.approx(0.6 / 0.8, abs=1e-15)
        assert regime == TYPE1


class TestMinOverlap:
    def test_zero_target_is_free(self):
        a, b = build_matrices(0.6, 0.1, 0.2)
        q, regime, _ = min_overlap_at(a, b, 0.0)
        assert q == 0.0
        assert FAMILIES[regime] == "free"

    def test_even_in_target(self):
        a, b = build_matrices(0.5, -0.2, 0.35)
        t = np.linspace(0.0, constraint_max(b), 40)
        np.testing.assert_array_equal(min_overlap_at(a, b, t)[0],
                                      min_overlap_at(a, b, -t)[0])

    def test_nondecreasing_in_target(self):
        for alpha, theta, eps in ((10 * DEG, 15 * DEG, 0.05),
                                  (40 * DEG, 0.0, 0.3),
                                  (25 * DEG, -10 * DEG, 0.6)):
            a, b = build_matrices(alpha, theta, eps)
            grid = np.linspace(0.0, constraint_max(b), 200)
            diffs = np.diff(min_overlap_at(a, b, grid)[0])
            assert diffs.min() >= -1e-9

    def test_target_beyond_reach_rejected(self):
        a, b = build_matrices(0.6, 0.1, 0.2)
        with pytest.raises(DomainError):
            min_overlap_at(a, b, constraint_max(b) + 1e-3)

    def test_rotation_family_never_beaten_by_pure_rotations(self, rng):
        # interior points of the neglected pure-rotation family are always
        # matched or beaten at equal constraint value
        for _ in range(40):
            alpha = rng.uniform(0.1, 1.4)
            theta = rng.uniform(-0.5, 0.5)
            eps = rng.uniform(0.01, 0.95)
            a, b = build_matrices(alpha, theta, eps)
            trb = b.m11 + b.m22
            for eta in rng.uniform(0.0, 2 * math.pi, size=8):
                b2 = trb * math.cos(eta)          # pure-rotation constraint value
                q2 = abs(math.cos(eta))           # its overlap
                if abs(b2) > constraint_max(b):
                    continue
                q_best = min_overlap_at(a, b, b2)[0]
                assert q_best <= q2 + 1e-9


class TestZeroOverlapLimit:
    def test_rotation_attack_boundary_is_exact(self):
        # at eps = 2 sin^2(alpha), theta = 0 the zero-overlap limit equals
        # cos(alpha) to machine precision
        for alpha_deg in (5, 10, 20, 30, 40):
            alpha = alpha_deg * DEG
            a, b = build_matrices(alpha, 0.0, 2 * math.sin(alpha) ** 2)
            assert stationary_curves(a, b).free_limit == pytest.approx(
                math.cos(alpha), abs=1e-12)

    def test_oracle_brackets_the_plateau_edge(self):
        # the oracle can still drive the overlap to zero just
        # below the limit and cannot just above it
        from b92sec.oracle import oracle_min_overlap

        a, b = build_matrices(10 * DEG, 15 * DEG, 0.05)
        limit = stationary_curves(a, b).free_limit
        below = oracle_min_overlap(a, b, limit - 0.01).value
        above = oracle_min_overlap(a, b, limit + 0.01).value
        assert below < 1e-6
        assert above > 1e-3


class TestEveMaxGain:
    def test_undisturbed_channel_leaks_nothing(self):
        res = eve_max_gain(0.6, 0.6, ChannelTriple(0.0, 0.0, 1.0))
        assert res.overlap_min == pytest.approx(1.0, abs=1e-12)
        assert res.info_gain == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_signals_leak_fully(self):
        res = eve_max_gain(math.pi / 2, math.pi / 2, ChannelTriple(0.0, 0.0, 1.0))
        assert res.overlap_min == 0.0
        assert res.info_gain == 1.0

    def test_rotation_attack_noise_gives_unity_gain(self):
        alpha = 25 * DEG
        triple = ChannelTriple(0.0, 2 * math.sin(alpha) ** 2, 1.0)
        res = eve_max_gain(alpha, alpha, triple)
        assert res.overlap_min <= 1e-9
        assert res.info_gain == pytest.approx(1.0, abs=1e-9)

    def test_gain_range_and_equivalence(self, rng):
        for _ in range(100):
            alpha = rng.uniform(2 * DEG, 80 * DEG)
            triple = ChannelTriple(rng.uniform(-0.5, 0.5), rng.uniform(0.0, 0.9),
                                   rng.uniform(0.2, 1.0))
            try:
                res = eve_max_gain(alpha, alpha, triple)
            except UnreachableChannelError:
                continue
            assert 0.0 <= res.overlap_min <= 1.0
            assert 0.0 <= res.info_gain <= 1.0
            assert (res.info_gain == 1.0) == (res.overlap_min == 0.0)
            assert res.info_gain_shannon <= res.info_gain + 1e-12

    @pytest.mark.parametrize("alpha, theta", [
        (math.nan, 0.0), (math.inf, 0.0), (0.3, math.nan), (0.3, math.inf), (0.3, -math.inf),
    ])
    def test_non_finite_angles_rejected(self, alpha, theta):
        with pytest.raises(DomainError):
            eve_bound(0.3, alpha, theta, 0.1, 0.5)
        with pytest.raises(DomainError):
            eve_max_gain(0.3, alpha, ChannelTriple(theta, 0.1, 0.5))

    def test_unreachable_channel_flagged(self):
        # tiny angle, deep loss, almost no noise: the required constraint
        # value exceeds what any unitary can deliver
        with pytest.raises(UnreachableChannelError):
            eve_max_gain(2 * DEG, 2 * DEG, ChannelTriple(30 * DEG, 0.01, 0.2))

    def test_noiseless_closed_form(self):
        alpha, t = 0.4, 0.85
        res = eve_max_gain(alpha, alpha, ChannelTriple(0.0, 0.0, t))
        expected = (math.cos(alpha) - (1 - t)) / (t * math.cos(alpha))
        assert res.overlap_min == pytest.approx(expected, abs=1e-12)
        assert res.free_limit == 0.0

    def test_no_jump_at_the_noiseless_switch(self):
        # the eps = 0 formula takes over only where det B = -eps (1 - eps/2) / 2
        # vanishes; below the switch q falls like sqrt(eps), so a switch at
        # a larger eps would make q jump
        alpha = 10 * DEG
        eps = np.logspace(-16, -8, 161)
        q = eve_bound(alpha, alpha, 0.0, eps, 0.9).overlap_min
        assert np.diff(q).max() <= 1e-15  # non-increasing up to rounding
        noisy = eps * (1.0 - eps / 2.0) / 2.0 >= DET_SLOP
        k = int(np.argmax(noisy))
        assert 0.0 <= q[k - 1] - q[k] <= 1e-7
        slope = (q[0] - q[noisy]) / np.sqrt(eps[noisy])
        assert 0.48 < slope.min() and slope.max() < 0.49


class TestFlippedBits:
    def test_symmetric_midpoint_is_fixed_point(self):
        # theta = -alpha maps to itself under the flipped substitution
        alpha = 0.5
        triple = ChannelTriple(-alpha, 0.2, 0.9)
        correct = eve_max_gain(alpha, alpha, triple)
        flipped = flipped_bit_gain(alpha, alpha, triple)
        assert flipped.overlap_min == pytest.approx(correct.overlap_min, abs=1e-12)
        assert flipped.info_gain == pytest.approx(correct.info_gain, abs=1e-12)

    def test_noiseless_flipped_equals_correct(self):
        # eps = 0, theta = 0: the closed form divides by cos(alpha) either way
        alpha, t = 0.3, 0.8
        triple = ChannelTriple(0.0, 0.0, t)
        assert flipped_bit_gain(alpha, alpha, triple).overlap_min == \
            pytest.approx(eve_max_gain(alpha, alpha, triple).overlap_min, abs=1e-12)

    def test_flipped_is_substituted_problem(self):
        alpha, theta, eps, t = 40 * DEG, 0.0, 0.1, 0.8
        direct = flipped_bit_gain(alpha, alpha, ChannelTriple(theta, eps, t))
        substituted = eve_max_gain(alpha, alpha,
                                   ChannelTriple(-2 * alpha - theta, eps, t))
        assert direct.overlap_min == substituted.overlap_min

    def test_flipped_agrees_with_the_oracle(self):
        from b92sec.oracle import oracle_min_overlap_lossy

        alpha, theta, eps, t = 40 * DEG, 5 * DEG, 0.15, 0.85
        direct = flipped_bit_gain(alpha, alpha, ChannelTriple(theta, eps, t))
        a, b = build_matrices(alpha, -2 * alpha - theta, eps)
        oracle = oracle_min_overlap_lossy(a, b, alpha, t)
        assert direct.overlap_min == pytest.approx(oracle.value, abs=1e-3)


class TestArrayParity:
    """One array call equals the one-entry calls, failures included."""

    @staticmethod
    def channels():
        # criterion 01's box, plus noiseless, near-noiseless and lossless rows
        rng = np.random.default_rng(20240811)
        n = 400
        alpha = rng.uniform(2 * DEG, 80 * DEG, n)
        theta = rng.uniform(-30 * DEG, 30 * DEG, n)
        eps = rng.uniform(0.01, 0.9, n)
        t = rng.uniform(0.2, 1.0, n)
        eps[::8] = 0.0
        eps[1::8] = 10.0 ** rng.uniform(-16, -9, eps[1::8].size)
        t[2::8] = 1.0
        return alpha, theta, eps, t

    @pytest.mark.parametrize("scalar,tilt", [
        (eve_max_gain, lambda alpha, theta: theta),
        (flipped_bit_gain, lambda alpha, theta: -2.0 * alpha - theta),
    ], ids=["correct", "flipped"])
    def test_array_matches_scalar_calls(self, scalar, tilt):
        alpha, theta, eps, t = self.channels()
        bound = eve_bound(alpha, alpha, tilt(alpha, theta), eps, t)
        failures = 0
        for k in range(alpha.size):
            try:
                res = scalar(alpha[k], alpha[k], ChannelTriple(theta[k], eps[k], t[k]))
            except B92Error as exc:
                assert type(bound.error(k)) is type(exc)
                failures += 1
                continue
            assert bound.status[k] == OK
            assert abs(bound.overlap_min[k] - res.overlap_min) <= 1e-12
            assert abs(bound.free_limit[k] - res.free_limit) <= 1e-12
            assert abs(bound.constraint_max[k] - res.constraint_max) <= 1e-12
            assert abs(bound.target[k] - res.target) <= 1e-12
            assert FAMILIES[bound.regime[k]] == res.achieving.family
        assert 0 < failures == np.count_nonzero(bound.status != OK)
        with pytest.raises(UnreachableChannelError):
            bound.check()

    def test_free_type1_and_type3_regimes_occur(self):
        alpha, theta, eps, t = self.channels()
        bound = eve_bound(alpha, alpha, theta, eps, t)
        regimes = set(bound.regime[bound.status == OK].tolist())
        assert {FREE, TYPE1, TYPE3P} <= regimes


def test_gain_formulas():
    assert collision_gain(1.0) == pytest.approx(0.0)
    assert collision_gain(0.0) == pytest.approx(1.0)
    assert shannon_gain(1.0) == pytest.approx(0.0)
    assert shannon_gain(0.0) == pytest.approx(1.0)
    for q in np.linspace(0.0, 1.0, 21):
        assert shannon_gain(q) <= collision_gain(q) + 1e-12
