import math

import numpy as np
import pytest

from b92sec.errors import (
    DegenerateChannelError,
    OracleInfeasibleError,
    UnreachableChannelError,
)
from b92sec.estimation import ChannelTriple
from b92sec.evebound import SymMat2, build_matrices, eve_bound, eve_max_gain
from b92sec.oracle import nuclear_norm, oracle_min_overlap, oracle_min_overlap_lossy

from conftest import DEG, sym_matrix


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
    ], ids=["small-angle", "q-0.9997641", "q-0.7378518"])
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
        try:
            a, b = build_matrices(alpha, theta, eps)
        except DegenerateChannelError:
            # A is 0/0 here, which its denominator (at least eps) allows only
            # for a noiseless channel; the closed form answers it with its
            # eps = 0 formula, which needs no A
            assert eps == 0.0
            continue
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
