import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from b92sec.errors import (
    B92Error,
    DomainError,
    UnreachableChannelError,
)
from b92sec.estimation import ChannelTriple
from b92sec.evebound import (
    FAMILIES,
    FREE,
    FREE_SLOP,
    OK,
    REACH_SLOP,
    TYPE1,
    TYPE3,
    UNREACHABLE,
    SymMat2,
    build_matrices,
    collision_gain,
    eve_bound,
    eve_max_gain,
    shannon_gain,
    _families,
    _matrices,
    _overlap,
)

from b92sec import evebound, keyrate
from b92sec.keyrate import MODES, key_gains, optimal_angles, positive_noise_limit, secret_key_gain

from conftest import (
    DEG,
    assert_same_bits,
    constraint_max,
    min_overlap_at,
    oracle_min_overlap,
    stationary_curves,
    sym_matrix,
)


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

    def test_zero_denominator_takes_the_noiseless_value(self):
        # eps = 0 with 2 alpha + theta = 0 leaves A 0/0; it takes diag(1, 0),
        # its value at every other noiseless channel
        a, _ = build_matrices(0.3, -0.6, 0.0)
        assert (a.m11, a.m12, a.m22) == (1.0, 0.0, 0.0)

    def test_denominator_near_its_zero(self):
        # 1 - (1 - eps) cos(2 alpha + theta) as 2 alpha + theta -> 0, against
        # a 50-digit reference; the direct form loses it to cancellation
        import mpmath

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
        # type3 at x = cos eta = +-1 is xi = I and xi = 2P - I, with P built
        # from numpy's generalized eigenproblem; the family's Q and B there
        # must be the traces of A and B at those xi
        a, b = build_matrices(0.7, 0.1, 0.3)
        f = stationary_curves(a, b)
        assert f.type3
        kappa = max(np.linalg.eigvals(np.linalg.solve(sym_matrix(b), sym_matrix(a))),
                    key=abs).real
        m = sym_matrix(a) - kappa * sym_matrix(b)
        p = m / np.trace(m)
        for x, xi in ((1.0, np.eye(2)), (-1.0, 2.0 * p - np.eye(2))):
            q = f.a_p * (1.0 - x) + x
            assert q == pytest.approx(np.trace(sym_matrix(a) @ xi), abs=1e-12)
            assert type3_b(f, 1.0, x) == pytest.approx(np.trace(sym_matrix(b) @ xi), abs=1e-12)

    def test_type1_small_noise_limit(self):
        a, b = build_matrices(0.5, 0.0, 1e-7)
        f = stationary_curves(a, b)
        # Q = qc cos eta + qs sin eta at eta = 0
        assert f.qc == pytest.approx(1.0, abs=1e-5)

    def test_noiseless_routes_to_closed_form(self):
        a = SymMat2(1.0, 0.0, 0.0)
        b = SymMat2(0.8, 0.0, 0.0)
        q, regime = min_overlap_at(a, b, 0.6)
        assert q == pytest.approx(0.6 / 0.8, abs=1e-15)
        assert regime == TYPE1


class TestMinOverlap:
    def test_zero_target_is_free(self):
        a, b = build_matrices(0.6, 0.1, 0.2)
        q, regime = min_overlap_at(a, b, 0.0)
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

    @pytest.mark.parametrize("near_reach, bound", [(False, 1e-13), (True, 5e-12)],
                             ids=["uniform-target", "near-reach"])
    def test_type1_matches_a_40_digit_reference(self, near_reach, bound):
        # seeded whole-domain channels that type1 decides, with a target
        # uniform below the reach or within 10^U(-12, -8) relative of it; the
        # reference solves bmax cos(eta - atan2(bs, bc)) = t in 40 digits from
        # the same floats.  It takes the reach as the float bmax: the exact
        # hypot(bc, bs) can differ from it in the last bit, and near the reach
        # that bit moves the roots by about sqrt(ulp / (1 - t / bmax)), an
        # error of the input, not of the closed form
        import mpmath

        rng = np.random.default_rng([7321, near_reach])
        worst, checked = 0.0, 0
        while checked < 400:
            eps = (rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(-14.0, 0.0))[rng.integers(2)]
            a, b = build_matrices(rng.uniform(0.0, 90 * DEG), rng.uniform(-90 * DEG, 90 * DEG),
                                  eps)
            f = stationary_curves(a, b)
            bmax = float(f.bmax)
            t = (bmax * (1.0 - 10.0 ** rng.uniform(-12.0, -8.0)) if near_reach
                 else rng.uniform(0.0, bmax))
            q, regime = min_overlap_at(a, b, t)
            if regime != TYPE1:
                continue
            with mpmath.workdps(40):
                qc, qs, bc, bs = (mpmath.mpf(float(v)) for v in (f.qc, f.qs, f.bc, f.bs))
                shift = mpmath.atan2(bs, bc)
                d = mpmath.acos(mpmath.mpf(t) / mpmath.mpf(bmax))
                want = min(abs(qc * mpmath.cos(r) + qs * mpmath.sin(r))
                           for r in (shift + d, shift - d))
                worst = max(worst, float(abs(q - want) / want))
            checked += 1
        assert worst <= bound


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

    @pytest.mark.parametrize("alpha, theta, eps, t", [
        (math.pi / 2, 0.0, 0.0, 1.0), (10 * DEG, 0.0, 0.02, 1.0), (0.3, 0.1, 0.0, 0.5),
        (20 * DEG, -0.4, 0.4, 0.6), (20 * DEG, -0.2, 0.4, 1.0),
    ], ids=["free", "type1", "type1-noiseless", "type3-lossy", "type3"])
    def test_gains_are_the_measures_of_the_overlap(self, alpha, theta, eps, t):
        # the gains are read from overlap_min: Python floats, bit for bit the
        # measures' values at it
        res = eve_max_gain(alpha, alpha, ChannelTriple(theta, eps, t))
        for got, measure in ((res.info_gain, collision_gain),
                             (res.info_gain_shannon, shannon_gain)):
            assert type(got) is float
            assert float.hex(got) == float.hex(float(measure(res.overlap_min)))

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
        assert eve_bound(alpha, alpha, 0.0, 0.0, t).free_limit == 0.0

    def test_no_jump_at_the_noiseless_end(self):
        # the noiseless channel is the eps -> 0 end of the same families:
        # q falls like sqrt(eps) from its eps = 0 value, down to the
        # smallest eps, with no formula taking over below some eps
        alpha = 10 * DEG
        eps = np.concatenate(([0.0], np.logspace(-16, -8, 161)))
        q = eve_bound(alpha, alpha, 0.0, eps, 0.9).overlap_min
        assert np.diff(q).max() <= 1e-15  # non-increasing up to rounding
        slope = (q[0] - q[1:]) / np.sqrt(eps[1:])
        assert 0.48 < slope.min() and slope.max() < 0.49

    def test_singular_channels_get_the_noiseless_answer(self):
        # A's denominator is at most 1e-15 (2 alpha + theta within 1e-9 of
        # 0, eps at most 1e-15), and 0 at eps = 0 on the exact tilt, where A
        # is 0/0: every entry gets a finite answer, and at eps = 0 the
        # noiseless closed form.  For eps > 0 the eps = 0 formula is not the
        # answer; the zero-noise-limit stratum of test_whole_domain_agreement
        # and test_near_singular_channels_match_the_reference check those
        rng = np.random.default_rng(20261019)
        n = 2000
        alpha = rng.uniform(0.01 * DEG, 89.99 * DEG, n)
        delta = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(-1e-9, 1e-9, n))
        theta = delta - 2.0 * alpha
        eps = rng.choice((0.0, 1e-16, 1e-15), n)
        t = np.where(rng.random(n) < 0.2, 1.0, rng.uniform(1e-3, 1.0, n))
        singular = _matrices(alpha, theta, eps)[2] <= 1e-15
        assert np.count_nonzero(singular) > n // 2
        alpha, theta, eps, t = alpha[singular], theta[singular], eps[singular], t[singular]
        bound = eve_bound(alpha, alpha, theta, eps, t)
        assert np.isin(bound.status, (OK, UNREACHABLE)).all()
        assert np.isfinite(bound.overlap_min).all()
        noiseless = (bound.status == OK) & (eps == 0.0)
        assert np.count_nonzero(noiseless) > n // 4
        # the eps = 0 formula q = target / |cos(alpha + theta)|, with a target
        # at or below 0 in the free region
        target = np.maximum((np.cos(alpha) - (1.0 - t)) / t, 0.0)
        bmax = np.abs(np.cos(alpha + theta))
        expected = np.minimum(target, bmax) / bmax
        assert np.abs(bound.overlap_min - expected)[noiseless].max() <= 1e-12

    @pytest.mark.parametrize("theta, eps, want", [
        # python tools/dual_reference.py 0.3 0.3 -0.599999999 1e-15 1
        (-0.599999999, 1e-15, 0.0),
        # python tools/dual_reference.py 0.3 0.3 -0.599999 1e-16 1
        (-0.599999, 1e-16, 0.999577528168861),
        # python tools/dual_reference.py 0.3 0.3 -0.599999 1e-15 1
        (-0.599999, 1e-15, 0.995937465842863),
    ])
    def test_near_singular_channels_match_the_reference(self, theta, eps, want):
        # just off the singular tilt 2 alpha + theta = 0 with eps near 1e-15,
        # where det B nearly vanishes: both solvers against the oracle's dual
        # in 60 digits from the same floats
        from b92sec.oracle import oracle_min_overlap_lossy

        bound = eve_bound(0.3, 0.3, theta, eps, 1.0)
        assert bound.status == OK
        assert float(bound.overlap_min) == pytest.approx(want, abs=1e-9)
        a, b = build_matrices(0.3, theta, eps)
        assert oracle_min_overlap_lossy(a, b, 0.3, 1.0).value == pytest.approx(want, abs=1e-9)


def flipped_overlap(alpha: float, triple: ChannelTriple) -> float:
    """Eve's minimum overlap on flipped bits: index 1 of ``key_gains(...).bounds``."""
    bounds = key_gains(alpha, triple.theta, triple.epsilon, triple.transmission).bounds
    assert bounds.status[1] == OK
    return float(bounds.overlap_min[1])


def flipped_max_gain(alpha_prime: float, alpha: float, triple: ChannelTriple):
    """:func:`eve_max_gain` with the flipped-bit tilt -2 alpha - theta."""
    return eve_max_gain(alpha_prime, alpha, ChannelTriple(
        -2.0 * alpha - triple.theta, triple.epsilon, triple.transmission))


class TestFlippedBits:
    def test_symmetric_midpoint_is_fixed_point(self):
        # theta = -alpha maps to itself under the flipped substitution
        alpha = 0.5
        triple = ChannelTriple(-alpha, 0.2, 0.9)
        correct = eve_max_gain(alpha, alpha, triple)
        flipped = flipped_overlap(alpha, triple)
        assert flipped == pytest.approx(correct.overlap_min, abs=1e-12)
        assert collision_gain(flipped) == pytest.approx(correct.info_gain, abs=1e-12)

    def test_noiseless_flipped_equals_correct(self):
        # eps = 0, theta = 0: the closed form divides by cos(alpha) either way
        alpha, t = 0.3, 0.8
        triple = ChannelTriple(0.0, 0.0, t)
        assert flipped_overlap(alpha, triple) == \
            pytest.approx(eve_max_gain(alpha, alpha, triple).overlap_min, abs=1e-12)

    def test_flipped_is_substituted_problem(self):
        alpha, theta, eps, t = 40 * DEG, 0.0, 0.1, 0.8
        direct = flipped_overlap(alpha, ChannelTriple(theta, eps, t))
        substituted = eve_max_gain(alpha, alpha,
                                   ChannelTriple(-2 * alpha - theta, eps, t))
        assert direct == substituted.overlap_min

    def test_flipped_agrees_with_the_oracle(self):
        from b92sec.oracle import oracle_min_overlap_lossy

        alpha, theta, eps, t = 40 * DEG, 5 * DEG, 0.15, 0.85
        direct = flipped_overlap(alpha, ChannelTriple(theta, eps, t))
        a, b = build_matrices(alpha, -2 * alpha - theta, eps)
        oracle = oracle_min_overlap_lossy(a, b, alpha, t)
        assert direct == pytest.approx(oracle.value, abs=1e-3)


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
        (flipped_max_gain, lambda alpha, theta: -2.0 * alpha - theta),
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
            assert bound.status[k] == OK and bound.error(k) is None
            assert_same_bits(res.overlap_min, bound.overlap_min[k])
            assert FAMILIES[bound.regime[k]] == res.achieving.family
        assert 0 < failures == np.count_nonzero(bound.status != OK)
        with pytest.raises(UnreachableChannelError):
            bound.check()

    def test_free_type1_and_type3_regimes_occur(self):
        alpha, theta, eps, t = self.channels()
        bound = eve_bound(alpha, alpha, theta, eps, t)
        regimes = set(bound.regime[bound.status == OK].tolist())
        assert {FREE, TYPE1, TYPE3} <= regimes

    def test_one_entry_call_returns_0d_arrays(self):
        # one channel per regime, and an unreachable one, which fails the
        # key gain too
        alpha, theta, eps, t = self.channels()
        bound = eve_bound(alpha, alpha, theta, eps, t)
        gains = key_gains(alpha, theta, eps, t)
        picks = [np.flatnonzero((bound.regime == regime) & (bound.status == OK))[0]
                 for regime in (FREE, TYPE1, TYPE3)]
        picks.append(np.flatnonzero(bound.status == UNREACHABLE)[0])
        for k in picks:
            channel = (alpha[k], alpha[k], theta[k], eps[k], t[k])
            one = eve_bound(*channel)
            for name, field in vars(one).items():
                assert type(field) is np.ndarray and field.shape == (), name
                assert_same_bits(field, np.broadcast_to(getattr(bound, name), t.shape)[k], name)
            one = key_gains(*channel[1:])
            assert one.failed == (bound.status[k] != OK)
            for name, field in vars(one).items():
                if name == "bounds":
                    for part, pair in vars(field).items():
                        assert type(pair) is np.ndarray and pair.shape == (2,), part
                        assert_same_bits(pair, getattr(gains.bounds, part)[:, k], part)
                else:
                    assert type(field) is np.ndarray and field.shape == (), name
                    assert_same_bits(field, getattr(gains, name)[k], name)
        assert [int(bound.regime[k]) for k in picks[:3]] == [FREE, TYPE1, TYPE3]


# inputs that are not Python numbers, each with a valid value for every input
NOT_PYTHON_NUMBERS = {
    "0-d ndarray": (np.array, 0.3),
    "np.float32": (np.float32, 0.3),
    "np.int64": (np.int64, 1),
    "one-element list": (lambda v: [v], 0.3),
}


class TestFloatPass:
    """One channel of Python numbers runs the closed form on floats, bit for bit.

    eve_bound and key_gains run the bound's one body on the float kit when
    every channel input is a Python int or float, and on the array kit
    otherwise; every field of a one-channel result equals the channel's
    entry of an array call.
    """

    @staticmethod
    def channels(rng, n: int):
        """n seeded channels (alpha', alpha, theta, eps, T) over the whole domain.

        alpha is uniform in [0, pi/2] with the ends 0 and pi/2 exact; theta is
        -2 alpha exactly, within 10^U(-17, -1) of it, within that of +-pi, 0,
        or uniform in [-pi, pi], a fifth each; eps is 0, 1, 10^U(-17, -6) or
        U(0, 1), and T is 1, U(0.01, 1) or 10^U(-300, -1), drawn alike.  alpha'
        is alpha in half the channels and uniform in [0, pi/2] in the others.
        """
        alpha = rng.uniform(0.0, math.pi / 2.0, n)
        alpha[::50] = 0.0
        alpha[1::50] = math.pi / 2.0
        side = rng.choice((-1.0, 1.0), n)
        near = side * 10.0 ** rng.uniform(-17.0, -1.0, n)
        theta = np.choose(np.arange(n) % 5, [-2.0 * alpha, -2.0 * alpha + near,
                                             side * (math.pi - np.abs(near)), np.zeros(n),
                                             rng.uniform(-math.pi, math.pi, n)])
        eps = np.choose(rng.integers(0, 4, n), [0.0, 1.0, 10.0 ** rng.uniform(-17.0, -6.0, n),
                                                rng.uniform(0.0, 1.0, n)])
        transmission = np.choose(rng.integers(0, 3, n), [1.0, rng.uniform(0.01, 1.0, n),
                                                         10.0 ** rng.uniform(-300.0, -1.0, n)])
        alpha_prime = np.where(rng.random(n) < 0.5, alpha, rng.uniform(0.0, math.pi / 2.0, n))
        return alpha_prime, alpha, theta, eps, transmission

    def test_one_channel_equals_its_array_entry_over_the_whole_domain(self):
        # a one-channel call that squared with ** 2 on numpy scalars, C pow,
        # would round differently from the array kit's x * x on some draws
        n = 10_000
        channels = self.channels(np.random.default_rng(20261020), n)
        rows = list(zip(*(c.tolist() for c in channels)))
        bound = eve_bound(*channels)
        ones = [eve_bound(*row) for row in rows]
        for name, field in vars(bound).items():
            assert_same_bits([getattr(one, name) for one in ones],
                             np.broadcast_to(field, (n,)), name)
        for mode in MODES:
            gains = key_gains(*channels[1:], mode)
            ones = [key_gains(*row[1:], mode) for row in rows]
            for name, field in vars(gains).items():
                if name != "bounds":
                    assert_same_bits([getattr(one, name) for one in ones], field, name)
            for name, field in vars(gains.bounds).items():
                assert_same_bits([getattr(one.bounds, name) for one in ones],
                                 np.broadcast_to(field, (2, n)).T, name)
        # the strata reach every regime, and failed entries of both kinds
        assert {FREE, TYPE1, TYPE3} <= set(bound.regime[bound.status == OK].tolist())
        assert np.count_nonzero(bound.status != OK)
        assert np.count_nonzero(gains.failed & (gains.bounds.status[0] == OK))

    @pytest.mark.parametrize("which", ["free", "reach"])
    def test_a_target_exactly_at_a_slop_keeps_its_side(self, which):
        # at T = 1 the target is cos(alpha'); among 10^4 consecutive floats
        # alpha' some cos lands exactly on the free limit plus FREE_SLOP, which
        # is still free, or on the reach plus REACH_SLOP, which is reachable,
        # on either pass
        for alpha, theta, eps in [(0.5, 0.1, 0.2), (0.4, 0.0, 0.3), (0.7, -0.2, 0.1)]:
            bound = eve_bound(0.1, alpha, theta, eps, 1.0)
            if which == "free":
                target = float(bound.free_limit) + FREE_SLOP
            else:
                target = float(bound.constraint_max) + REACH_SLOP
            start = math.acos(target)
            grid = start + np.arange(-5000, 5000) * math.ulp(start)
            hits = grid[np.cos(grid) == target]
            if hits.size:
                break
        assert hits.size, "no alpha' lands its target exactly on the threshold"
        channel = (hits[0], alpha, theta, eps, 1.0)
        for one in (eve_bound(*channel), eve_bound(*(np.array([v]) for v in channel))):
            assert one.status.item() == OK
            if which == "free":
                assert (one.target.item(), one.regime.item(), one.overlap_min.item()) == (
                    target, FREE, 0.0)
            else:
                # a reachable target is clipped to the reach
                assert one.target.item() == one.constraint_max.item()

    @pytest.mark.parametrize("alpha, theta", [
        (0.3, 0.1), (0.3, -0.6), (math.pi / 2.0, 0.0),
    ], ids=["det-B-zero", "den-zero", "B-zero"])
    def test_a_zero_divisor_leaks_no_warning(self, monkeypatch, alpha, theta):
        # eps = 0 puts det B at 0, where kappa divides by it; 2 alpha + theta = 0
        # puts A's denominator den at 0 too, and alpha + theta = pi/2 puts B
        # at 0 but for cos(pi/2) ~ 6e-17, and its reach with it.  The float
        # kit hands each zero divisor to numpy in its div, _div, under _div's
        # own errstate: a RuntimeWarning that leaked would fail the suite
        zero = []
        div = evebound.FLOAT.div
        monkeypatch.setattr(evebound.FLOAT, "div", lambda x, y: zero.append(not y) or div(x, y))
        channel = (alpha, alpha, theta, 0.0, 0.5)
        one = eve_bound(*channel)
        assert any(zero)
        array = eve_bound(*(np.array([v]) for v in channel))
        for name, field in vars(array).items():
            assert_same_bits(getattr(one, name), field, name)
        gain = eve_max_gain(alpha, alpha, ChannelTriple(theta, 0.0, 0.5))
        assert_same_bits(gain.overlap_min, array.overlap_min)
        assert gain.achieving.family == FAMILIES[array.regime.item()]
        zero.clear()
        gains = key_gains(*channel[1:])
        assert any(zero)
        array = key_gains(*(np.array([v]) for v in channel[1:]))
        for name, field in vars(array).items():
            if name != "bounds":
                assert_same_bits(getattr(gains, name), field, name)
        if gains.failed:
            # at den = 0 every conclusive event is an error
            with pytest.raises(DomainError):
                secret_key_gain(alpha, ChannelTriple(theta, 0.0, 0.5))
        else:
            assert_same_bits(secret_key_gain(alpha, ChannelTriple(theta, 0.0, 0.5)).gain,
                             array.gain)

    @pytest.mark.parametrize("call, channel", [
        (eve_bound, (0.3, 0.3, 0.0, 0.1, 5e-324)),
        (key_gains, (0.3, 0.0, 1e-320, 1e-300)),
    ], ids=["target", "kappa"])
    def test_an_overflow_leaks_no_warning(self, call, channel):
        # T = 5e-324 overflows the target (cos alpha' - (1 - T)) / T, and
        # eps = 1e-320 overflows kappa at the flipped tilt -2 alpha, where A's
        # denominator is eps itself.  The array kit runs under
        # errstate(over="ignore"), and Python floats overflow silently: a
        # RuntimeWarning that leaked would fail the suite
        one = call(*channel)
        array = call(*(np.array([v]) for v in channel))
        for name, field in vars(array).items():
            parts = vars(field).items() if name == "bounds" else [(name, field)]
            for part, got in parts:
                assert_same_bits(getattr(one.bounds if name == "bounds" else one, part), got,
                                 part)

    @pytest.mark.parametrize("call, want", [
        (lambda: optimal_angles(0.0, 0.1, 1e-320), (0.0, 0.0)),
        (lambda: optimal_angles(0.0, 1e-320, 1e-300), (0.0, 0.0)),
        (lambda: positive_noise_limit(1e-320), 0.0),
    ], ids=["angle-target", "angle-kappa", "noise-limit"])
    def test_a_search_overflows_without_a_warning(self, call, want):
        # the searches run the array kit at every step, as key_gains does
        assert call() == want

    def test_families_on_floats_equal_their_array_entry(self):
        # the intermediates of the bound, not only its outputs: every field of
        # the families and the overlap's (q, regime) at eve_bound's own target
        n = 10_000
        alpha_prime, alpha, theta, eps, transmission = self.channels(
            np.random.default_rng(20261022), n)
        bound = eve_bound(alpha_prime, alpha, theta, eps, transmission)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            families = _families(*_matrices(alpha, theta, eps)[:2])
            # _bound's target: an unreachable one is clipped to the reach
            t = np.maximum(np.minimum(bound.target, families.bmax), 0.0)
            overlap = _overlap(families, t)
        ones, overlaps = [], []
        for channel, target in zip(zip(alpha.tolist(), theta.tolist(), eps.tolist()),
                                   t.tolist()):
            a, b, _ = _matrices(*channel, evebound.FLOAT)
            ones.append(_families(a, b, evebound.FLOAT))
            overlaps.append(_overlap(ones[-1], target, evebound.FLOAT))
        for name, field in families._asdict().items():
            assert_same_bits([getattr(one, name) for one in ones], field, name)
        for k, name in enumerate(("overlap_min", "regime")):
            assert_same_bits([one[k] for one in overlaps], overlap[k], name)
        assert {True, False} == set(families.type3.tolist())
        assert {FREE, TYPE1, TYPE3} == set(overlap[1].tolist())

    @pytest.fixture
    def passes(self, monkeypatch):
        """The kit each bound of a call ran on, "float" or "array", in order."""
        ran = []
        for module in (evebound, keyrate):
            run = module._bound
            # the kit is _bound's last argument
            monkeypatch.setattr(module, "_bound", lambda *args, run=run: ran.append(
                "float" if args[-1] is evebound.FLOAT else "array") or run(*args))
        return ran

    @pytest.mark.parametrize("kind", NOT_PYTHON_NUMBERS)
    @pytest.mark.parametrize("call,good", [
        (eve_bound, dict(alpha_prime=0.4, alpha=0.5, theta=0.05, epsilon=0.1, transmission=0.8)),
        (key_gains, dict(alpha=0.5, theta=0.05, epsilon=0.1, transmission=0.8)),
    ], ids=["eve_bound", "key_gains"])
    def test_only_python_numbers_take_the_float_pass(self, call, good, kind, passes):
        # each input in turn is not a Python number: that call takes the array
        # pass and gives the fields the float call gives on the same value
        make, value = NOT_PYTHON_NUMBERS[kind]
        number = float(np.ravel(make(value))[0])
        for name in good:
            passes.clear()
            one = call(**dict(good, **{name: number}))
            assert passes in (["float"], ["float", "float"]), name
            passes.clear()
            other = call(**dict(good, **{name: make(value)}))
            assert passes == ["array"], name
            for field, got in vars(other).items():
                parts = vars(got).items() if field == "bounds" else [(field, got)]
                for part, got in parts:
                    # an ndarray, of shape () where every input is 0-d, as the
                    # float pass's fields are
                    assert type(got) is np.ndarray, (name, part, type(got))
                    if field != "bounds" and np.ndim(make(value)) == 0:
                        assert got.shape == (), (name, part)
                    want = getattr(one.bounds if field == "bounds" else one, part)
                    assert_same_bits(got, want, f"{name} {part}")

    def test_matrices_on_floats_equal_their_zero_d_call(self):
        # build_matrices takes the float pass on Python numbers and gives the
        # entries of the array pass; both passes reject NaN and infinite tilts
        _, alpha, theta, eps, _ = self.channels(np.random.default_rng(20261021), 10_000)
        theta[:3] = math.nan, math.inf, -math.inf
        with np.errstate(invalid="ignore"):
            for channel in zip(alpha.tolist(), theta.tolist(), eps.tolist()):
                if not math.isfinite(channel[1]):
                    for args in (channel, tuple(map(np.array, channel))):
                        with pytest.raises(DomainError, match=r"^tilt angle not finite: "):
                            build_matrices(*args)
                    continue
                ones = build_matrices(*channel)
                for one, other in zip(ones, build_matrices(*map(np.array, channel))):
                    assert {type(v) for v in one} == {float}, channel
                    assert_same_bits(one, other, str(channel))


def whole_domain_targets(rng, n: int):
    """n seeded (A, B, t) over the whole domain, analyzer angle in [0, pi/2].

    alpha is uniform in [0, pi/2] with the ends 0 and pi/2 exact; a third of
    the tilts lie within 10^U(-17, -1) of the singular tilt -2 alpha, a sixth
    within it of +-pi and the rest are uniform in [-pi, pi].  eps is
    log-uniform from 1e-17 to 1, uniform, or exactly 0, a third each.  Half
    the targets are uniform in [0, bmax]; the other half are the loss-band
    targets eve_bound meets, for alpha' in [0, pi/2] and T = 10^U(-3, 0) or
    exactly 1.
    """
    alpha = rng.uniform(0.0, math.pi / 2.0, n)
    alpha[::50] = 0.0
    alpha[1::50] = math.pi / 2.0
    side = rng.choice((-1.0, 1.0), n)
    near = side * 10.0 ** rng.uniform(-17.0, -1.0, n)
    stratum = np.arange(n) % 6
    theta = np.select([stratum < 2, stratum == 2],
                      [-2.0 * alpha + near, side * (math.pi - np.abs(near))],
                      rng.uniform(-math.pi, math.pi, n))
    eps = np.choose(rng.integers(0, 3, n),
                    [10.0 ** rng.uniform(-17.0, 0.0, n), rng.uniform(0.0, 1.0, n), 0.0])
    a, b = build_matrices(alpha, theta, eps)
    bmax = constraint_max(b)
    transmission = np.where(rng.random(n) < 0.25, 1.0, 10.0 ** rng.uniform(-3.0, 0.0, n))
    band = (np.cos(rng.uniform(0.0, math.pi / 2.0, n)) - (1.0 - transmission)) / transmission
    t = np.where(np.arange(n) % 2 == 0, rng.uniform(0.0, 1.0, n) * bmax,
                 np.clip(band, 0.0, bmax))
    return a, b, t


@np.errstate(divide="ignore", invalid="ignore")
def mirror_overlap(f, t):
    """|Q| of type3's mirror xi = -diag(1, cos eta) at the target t.

    The root of -(b_p (1 - x) + x Tr B) = t, with type3's own rules: a root
    within 1e-9 of [-1, 1] is clipped onto it, and a family that misses t
    offers inf.
    """
    x = (-t - f.b_p) / (f.tr_b - f.b_p)
    on = f.type3 & (np.abs(x) <= 1.0 + 1e-9)
    x = np.clip(x, -1.0, 1.0)
    return np.where(on, np.abs(f.a_p * (1.0 - x) + x), np.inf)


class TestTwoFamilies:
    """The families kept answer every analyzer angle in [0, pi/2]."""

    def test_the_mirror_family_never_decides(self):
        # 2e5 seeded draws of the whole domain: on every entry outside the
        # free region, type3's mirror lies no lower than the minimum of the
        # families kept, up to rounding
        a, b, t = whole_domain_targets(np.random.default_rng(20261019), 200_000)
        q, regime = min_overlap_at(a, b, t)
        mirror = mirror_overlap(stationary_curves(a, b), t)
        decided = regime != FREE
        assert np.all(mirror[decided] >= q[decided] - 1e-15)
        # the sweep is not vacuous: the mirror is on offer where it could win
        assert np.count_nonzero(decided & np.isfinite(mirror)) > 10_000
        assert {TYPE1, TYPE3} <= set(regime[decided].tolist())

    @pytest.mark.parametrize("alpha", [-1e-9, math.pi / 2.0 + 1e-9, math.nan])
    @pytest.mark.parametrize("call", [
        lambda alpha: eve_bound(0.3, alpha, 0.1, 0.2, 0.9),
        lambda alpha: build_matrices(alpha, 0.1, 0.2),
    ], ids=["eve_bound", "build_matrices"])
    def test_analyzer_angle_outside_the_quarter_turn_is_rejected(self, call, alpha):
        with pytest.raises(DomainError, match=r"^analyzer angle outside \[0, pi/2\]: "):
            call(alpha)

    def test_quarter_turn_ends_are_accepted(self):
        bound = eve_bound(1.2, np.array([0.0, math.pi / 2.0]), 0.1, 0.2, 0.9)
        assert np.all(bound.status == OK)


def test_gain_formulas():
    assert collision_gain(1.0) == pytest.approx(0.0)
    assert collision_gain(0.0) == pytest.approx(1.0)
    assert shannon_gain(1.0) == pytest.approx(0.0)
    assert shannon_gain(0.0) == pytest.approx(1.0)
    for q in np.linspace(0.0, 1.0, 21):
        assert shannon_gain(q) <= collision_gain(q) + 1e-12
