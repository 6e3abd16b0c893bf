import json
import math
from pathlib import Path

import numpy as np
import pytest

from b92sec.errors import OracleInfeasibleError, UnreachableChannelError
from b92sec.estimation import ChannelTriple
from b92sec.evebound import (
    OK,
    TYPE1,
    TYPE3,
    SymMat2,
    _matrices,
    build_matrices,
    eve_bound,
    eve_max_gain,
)
from b92sec.oracle import nuclear_norm, oracle_min_overlap_lossy

from conftest import DEG, oracle_min_overlap, sym_matrix


def assert_certified(a, b, lo, hi, result):
    """The certificate is a feasible contraction that attains the value."""
    point = result.point
    met = np.trace(sym_matrix(b) @ point)
    assert result.gap <= 1e-11
    assert np.linalg.norm(point, 2) <= 1.0 + 1e-12
    assert lo - 1e-11 <= met <= hi + 1e-11
    assert abs(np.trace(sym_matrix(a) @ point)) == pytest.approx(result.value, abs=1e-11)


def lossy_band(alpha_prime, t):
    c = math.cos(alpha_prime)
    return (c - (1.0 - t)) / t, (c + (1.0 - t)) / t


class TestOracleTrivials:
    def test_zero_target_reaches_zero(self):
        a = SymMat2(0.6, 0.1, 0.2)
        b = SymMat2(0.5, 0.2, -0.3)
        assert oracle_min_overlap(a, b, 0.0).value < 1e-9

    def test_identical_objectives(self):
        a = SymMat2(0.6, 0.1, 0.2)
        r = oracle_min_overlap(a, a, 0.37)
        assert r.value == pytest.approx(0.37, abs=1e-9)

    def test_lossless_band_reduces_to_equality(self):
        a = SymMat2(0.6, 0.1, 0.2)
        b = SymMat2(0.8, 0.05, -0.1)
        lossy = oracle_min_overlap_lossy(a, b, 0.7, 1.0)
        equality = oracle_min_overlap(a, b, math.cos(0.7))
        assert lossy.value == pytest.approx(equality.value, abs=1e-12)

    def test_vanishing_transmission_makes_constraint_vacuous(self):
        a = SymMat2(0.6, 0.1, 0.2)
        b = SymMat2(0.8, 0.05, -0.1)
        assert oracle_min_overlap_lossy(a, b, 0.7, 1e-9).value == 0.0

    def test_unreachable_target_is_infeasible(self):
        a = SymMat2(0.6, 0.1, 0.2)
        b = SymMat2(0.8, 0.05, -0.1)  # reachable range ends near 0.906
        with pytest.raises(OracleInfeasibleError):
            oracle_min_overlap(a, b, 0.95)

    def test_reachable_limit_is_the_nuclear_norm(self):
        a = SymMat2(0.6, 0.1, 0.2)
        b = SymMat2(0.8, 0.05, -0.1)
        reach = nuclear_norm(b)
        assert reach == pytest.approx(np.abs(np.linalg.eigvalsh(sym_matrix(b))).sum())
        got = oracle_min_overlap(a, b, reach - 1e-6)
        assert_certified(a, b, reach - 1e-6, reach - 1e-6, got)
        with pytest.raises(OracleInfeasibleError):
            oracle_min_overlap(a, b, reach + 1e-6)


def test_double_root_rounded_to_a_negative_discriminant():
    # det(A - lam B) has its double root at 0 in exact arithmetic; A's
    # off-diagonal one ulp high puts the discriminant at -4.4e-16
    a = SymMat2(0.5, math.nextafter(0.5, 1.0), 0.5)
    b = SymMat2(1.0, 0.0, -1.0)
    got = oracle_min_overlap(a, b, 0.5)
    assert got.value == 0.0
    assert_certified(a, b, 0.5, 0.5, got)


@pytest.mark.parametrize("a, b, target, value", [
    # det B != 0: the quadratic det(A - lam B) = 0 has its root h / q2 at the dual's minimum
    (SymMat2(0.28, -0.70, 0.27), SymMat2(0.05, 0.48, 0.34), -0.87, 0.896779203555382),
    # det B = 0: the determinant is linear in lam, and its root -q0 / q1 is the minimum
    (SymMat2(-0.63, -0.13, 0.40), SymMat2(-0.36, 0.0, 0.0), -0.33, 0.173979166666667),
], ids=["quadratic", "linear"])
def test_determinant_root_decides_a_general_dual(a, b, target, value):
    # value: range_end of tools/dual_reference.py, the 60-digit dual, on the same A and B
    got = oracle_min_overlap(a, b, target)
    assert got.value == pytest.approx(value, abs=1e-12)
    assert_certified(a, b, target, target, got)


class TestOracleAgainstClosedForm:
    def test_agreement_on_random_channels(self, rng):
        checked = 0
        while checked < 25:
            alpha = rng.uniform(2 * DEG, 80 * DEG)
            theta = rng.uniform(-30 * DEG, 30 * DEG)
            eps = rng.uniform(0.01, 0.9)
            t = rng.uniform(0.2, 1.0)
            try:
                analytic = eve_max_gain(alpha, alpha,
                                        ChannelTriple(theta, eps, t)).overlap_min
            except UnreachableChannelError:
                continue
            a, b = build_matrices(alpha, theta, eps)
            got = oracle_min_overlap_lossy(a, b, alpha, t)
            assert got.value == pytest.approx(analytic, abs=1e-3)
            # the certificate is feasible, so the oracle cannot undershoot
            # the true minimum
            assert got.value >= analytic - 5e-3
            checked += 1


class TestTheFace:
    """Targets at the reachable limit +-|B|_*, where strong duality fails.

    There the feasible set is the face Tr[B X] = |B|_*: the polar factor of
    B alone, or for singular B the segment diag(1, c), c in [-1, 1], in B's
    eigenbasis.  Targets just inside the limit must approach the face value.
    """

    @staticmethod
    def face_value(a, b):
        if b.det() != 0.0:
            # polar factor from the SVD, independent of the oracle's eigh
            u, _, vt = np.linalg.svd(sym_matrix(b))
            return abs(np.trace(sym_matrix(a) @ u @ vt))
        # diagonal singular B with b11 > 0: min |a11 + c a22| over the segment
        assert b.m12 == 0.0 and b.m22 == 0.0 and b.m11 > 0.0
        return max(0.0, abs(a.m11) - abs(a.m22))

    @pytest.mark.parametrize("a, b", [
        (SymMat2(0.6, 0.1, 0.2), SymMat2(0.8, 0.05, -0.1)),
        (SymMat2(0.6, 0.1, 0.2), SymMat2(0.8, 0.0, 0.0)),
        build_matrices(20 * DEG, 10 * DEG, 0.0),
    ], ids=["nonsingular", "singular", "eps-0"])
    def test_value_at_and_near_the_limit(self, a, b):
        reach = nuclear_norm(b)
        face = self.face_value(a, b)
        for target in (reach, -reach):
            got = oracle_min_overlap(a, b, target)
            assert got.value == pytest.approx(face, abs=1e-12)
            assert_certified(a, b, target, target, got)
        # the true distance shrinks like the square root of the margin, or
        # linearly for singular B
        dist = [abs(oracle_min_overlap(a, b, reach - 10.0 ** -k).value - face)
                for k in range(4, 15)]
        assert all(d1 < d0 for d0, d1 in zip(dist, dist[1:]))
        assert all(d <= 10.0 ** (-k / 2.0) for k, d in zip(range(4, 15), dist))


class TestNearTheReachableLimit:
    """Reachable channels whose feasible set is a thin sliver at the limit."""

    @pytest.mark.parametrize("alpha, theta, eps, t, q", [
        (0.8266 * DEG, 0.9409 * DEG, 0.55660, 0.51874, 0.998208),
        (0.04752699494975713, -0.20071713536353047, 0.6612674097149894,
         0.802981909471179, 0.9997641),
        (0.49023109080178756, 0.15539506816886872, 0.020562460754920187,
         0.5303163236421975, 0.7378518),
        # theta near pi and eps near 1e-16: the free coefficient once clipped
        # to a reflection that missed the band by 2.5e-10, gap 5.5e-10
        (1.0916776147604992, 3.140809697783312, 3.204365846502679e-16, 1.0, 0.9984954),
    ], ids=["small-angle", "q-0.9997641", "q-0.7378518", "theta-near-pi"])
    def test_oracle_matches_closed_form(self, alpha, theta, eps, t, q):
        analytic = eve_max_gain(alpha, alpha, ChannelTriple(theta, eps, t)).overlap_min
        assert analytic == pytest.approx(q, abs=5e-7)
        a, b = build_matrices(alpha, theta, eps)
        got = oracle_min_overlap_lossy(a, b, alpha, t)
        assert got.value == pytest.approx(analytic, abs=1e-9)
        assert_certified(a, b, *lossy_band(alpha, t), got)


def test_near_singular_channel_keeps_a_tight_certificate():
    # 2 alpha + theta is -7e-7 and eps 3e-5: A's denominator nearly vanishes.
    # The random strata miss this channel; it pins the certificate's precision
    alpha, theta = 0.034911415414317776, -0.06982353876036598
    eps, t = 2.650927626978321e-05, 0.9934100638165102
    analytic = eve_max_gain(alpha, alpha, ChannelTriple(theta, eps, t)).overlap_min
    assert analytic == pytest.approx(0.6946503632161442, abs=1e-12)
    a, b = build_matrices(alpha, theta, eps)
    got = oracle_min_overlap_lossy(a, b, alpha, t)
    assert got.value == pytest.approx(analytic, abs=1e-9)
    assert_certified(a, b, *lossy_band(alpha, t), got)


@pytest.mark.parametrize("alpha_prime, alpha, theta, eps, t", [
    (1.509147033970112, 0.05968782373912513, 3.1415695891503566, 6.17415086422457e-08, 1.0),
    (0.34886264153223817, 0.598684494398315, -3.141531963202406, 1.719846756431331e-07,
     0.06765979570717383),
], ids=["lossless", "lossy"])
def test_type3_projector_needs_no_eigenvalue_test(alpha_prime, alpha, theta, eps, t):
    # an eigenvalue-range test on P, off only by rounding, once dropped type3
    # on these channels and handed them to type1, 2.5e-8 and 8.5e-8 too high
    bound = eve_bound(alpha_prime, alpha, theta, eps, t)
    assert bound.regime == TYPE3
    a, b = build_matrices(alpha, theta, eps)
    got = oracle_min_overlap_lossy(a, b, alpha_prime, t)
    assert float(bound.overlap_min) == pytest.approx(got.value, abs=1e-12)
    assert_certified(a, b, *lossy_band(alpha_prime, t), got)


def test_type3_needs_a_trace_that_survives_rounding():
    # theta near pi and eps just past the noiseless switch: Tr(A - kappa B) is
    # 2.4e-15, all rounding, and a type3 root built from it lands 9.4e-10
    # below the true minimum, which type1 gives
    alpha, theta, eps = 0.5752600205022699, 3.1415926522421485, 3.581698770343795e-15
    bound = eve_bound(alpha, alpha, theta, eps, 1.0)
    assert bound.regime == TYPE1
    a, b = build_matrices(alpha, theta, eps)
    got = oracle_min_overlap_lossy(a, b, alpha, 1.0)
    assert float(bound.overlap_min) == pytest.approx(got.value, abs=1e-12)
    assert_certified(a, b, *lossy_band(alpha, 1.0), got)


# edge strata of the physical domain: criterion 01's box with one
# coordinate drawn from outside it, the near-singular channels where A's
# denominator 1 - (1 - eps) cos(2 alpha + theta) nearly vanishes, and the
# whole domain
def _box(rng, alpha=None, theta=None, eps=None, t=None):
    return (rng.uniform(2 * DEG, 80 * DEG) if alpha is None else alpha,
            rng.uniform(-30 * DEG, 30 * DEG) if theta is None else theta,
            rng.uniform(0.01, 0.9) if eps is None else eps,
            rng.uniform(0.2, 1.0) if t is None else t)


def _near_singular(rng):
    alpha = rng.uniform(2 * DEG, 45 * DEG)
    tilt = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, -1.0)
    eps = 0.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(-14.0, -2.0)
    return alpha, tilt - 2.0 * alpha, eps, rng.uniform(0.2, 1.0)


def _zero_noise_limit(rng):
    # within 10^U(-6, 0.5) of the singular tilt 2 alpha + theta = 0, with eps
    # where det B = -eps (1 - eps/2) / 2 is below 1e-14
    alpha = rng.uniform(0.0, 90 * DEG)
    tilt = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 0.5)
    t = 1.0 if rng.random() < 0.5 else rng.uniform(1e-3, 1.0)
    return alpha, tilt - 2.0 * alpha, 10.0 ** rng.uniform(-17.0, -14.0), t


def _zero_noise_reversal(rng):
    # within 10^U(-8, -1) of the reversed tilt theta = +-pi, with eps where
    # det B is below 1e-14
    theta = rng.choice((-1.0, 1.0)) * (math.pi - 10.0 ** rng.uniform(-8.0, -1.0))
    t = 1.0 if rng.random() < 0.5 else rng.uniform(1e-3, 1.0)
    return rng.uniform(0.0, 90 * DEG), theta, 10.0 ** rng.uniform(-17.0, -14.0), t


def _whole_domain(rng):
    eps = (0.0, rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(-14.0, 0.0))[rng.integers(3)]
    return (rng.uniform(0.0, 90 * DEG), rng.uniform(-90 * DEG, 90 * DEG), eps,
            rng.uniform(1e-3, 1.0))


# a new stratum's name sorts after the others, so theirs keep their seeds
STRATA = {
    "tiny-noise": lambda rng: _box(rng, eps=10.0 ** rng.uniform(-8.0, -2.0)),
    "heavy-noise": lambda rng: _box(rng, eps=rng.uniform(0.9, 1.0)),
    "small-angle": lambda rng: _box(rng, alpha=rng.uniform(0.0, 2 * DEG)),
    "wide-angle": lambda rng: _box(rng, alpha=rng.uniform(80 * DEG, 90 * DEG)),
    "wide-tilt": lambda rng: _box(rng, theta=rng.uniform(-90 * DEG, 90 * DEG)),
    "heavy-loss": lambda rng: _box(rng, t=rng.uniform(1e-3, 0.2)),
    "wide-whole-domain": _whole_domain,
    "zero-denominator": _near_singular,
    "zero-noise-limit": _zero_noise_limit,
    "zero-noise-reversal": _zero_noise_reversal,
}


@pytest.mark.parametrize("stratum", sorted(STRATA))
def test_whole_domain_agreement(stratum):
    # 40 seeded reachable channels per stratum of the physical domain, each
    # with its certificate checked; every unreachable draw on the way must
    # be called infeasible too
    rng = np.random.default_rng([20240811, sorted(STRATA).index(stratum)])
    checked = 0
    while checked < 40:
        alpha, theta, eps, t = STRATA[stratum](rng)
        a, b = build_matrices(alpha, theta, eps)
        try:
            analytic = eve_max_gain(alpha, alpha,
                                    ChannelTriple(theta, eps, t)).overlap_min
        except UnreachableChannelError:
            with pytest.raises(OracleInfeasibleError):
                oracle_min_overlap_lossy(a, b, alpha, t)
            continue
        got = oracle_min_overlap_lossy(a, b, alpha, t)
        assert got.value == pytest.approx(analytic, abs=1e-9), (alpha, theta, eps, t)
        assert_certified(a, b, *lossy_band(alpha, t), got)
        checked += 1


def test_every_analyzer_angle_reduces_to_the_quarter_turn():
    # (alpha, theta) -> (pi - alpha, -theta) sends (A, B) to (D A D, -D B D),
    # D = diag(1, -1), which keeps the bound: the oracle on a channel with
    # alpha in (pi/2, pi] is eve_bound on its mirror, which eve_bound accepts
    rng = np.random.default_rng(20261019)
    regimes = set()
    for _ in range(300):
        alpha = math.pi - rng.uniform(0.0, math.pi / 2.0)
        theta, eps = rng.uniform(-math.pi, math.pi), rng.uniform(0.01, 1.0)
        alpha_prime, t = rng.uniform(0.0, math.pi / 2.0), rng.uniform(0.2, 1.0)
        a, b, _ = _matrices(alpha, theta, eps)
        bound = eve_bound(alpha_prime, math.pi - alpha, -theta, eps, t)
        if bound.status != OK:
            with pytest.raises(OracleInfeasibleError):
                oracle_min_overlap_lossy(a, b, alpha_prime, t)
            continue
        got = oracle_min_overlap_lossy(a, b, alpha_prime, t)
        assert got.value == pytest.approx(float(bound.overlap_min), abs=1e-9), \
            (alpha_prime, alpha, theta, eps, t)
        regimes.add(int(bound.regime))
    # a type3 root at the mirror is the other sign of the family here
    assert {TYPE1, TYPE3} <= regimes


# the oracle's value on 2,000 seeded whole-domain draws, recorded by
# tests/data/record_oracle_parity.py from the oracle that ran its algebra on
# numpy arrays; rerun it only when a draw changes, never to follow the oracle
PARITY_RECORD = Path(__file__).parent / "data" / "oracle_parity.json"
PARITY_DRAWS = 2000


def parity_draws() -> list[tuple[float, float, float, float]]:
    """(alpha, theta, eps, T): eps uniform or log-uniform, T = 1 or uniform."""
    rng = np.random.default_rng(20261020)
    n = PARITY_DRAWS
    alpha = rng.uniform(0.0, math.pi / 2.0, n)
    theta = rng.uniform(-math.pi, math.pi, n)
    eps = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 1.0, n),
                   10.0 ** rng.uniform(-16.0, 0.0, n))
    t = np.where(rng.random(n) < 0.5, 1.0, rng.uniform(0.01, 1.0, n))
    return list(zip(alpha.tolist(), theta.tolist(), eps.tolist(), t.tolist()))


def parity_value(alpha, theta, eps, t) -> float | None:
    """The oracle's value on one draw, or None where it is infeasible."""
    a, b = build_matrices(alpha, theta, eps)
    try:
        return oracle_min_overlap_lossy(a, b, alpha, t).value
    except OracleInfeasibleError:
        return None


def test_values_match_the_recorded_parity_table():
    # infeasible on exactly the recorded draws, and within two ulps of 1 on
    # every other one
    recorded = json.loads(PARITY_RECORD.read_text())
    draws = parity_draws()
    assert len(recorded) == len(draws)
    for draw, want in zip(draws, recorded):
        got = parity_value(*draw)
        if want == "infeasible":
            assert got is None, draw
        else:
            assert got is not None and abs(got - float.fromhex(want)) <= 4.4e-16, draw
