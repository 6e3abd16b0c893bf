import json
import math
import random
import sys
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
from b92sec import oracle
from b92sec.oracle import _eigh, _search, nuclear_norm, oracle_min_overlap_lossy

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


A_LINEAR = SymMat2(-0.63, -0.13, 0.40)  # the [linear] case's A


def test_vanishing_constraint_matrix_has_no_slope_candidate():
    # B = 0: |u - lam w| has no direction w, and lam = 0 alone is the dual's
    # minimum; the band holds Tr[B X] = 0, so the range of Tr[A X] holds 0
    b = SymMat2(0.0, 0.0, 0.0)
    got = _search(A_LINEAR, b, -0.3, 0.4)
    assert got.value == 0.0
    assert_certified(A_LINEAR, b, -0.3, 0.4, got)


def test_band_end_at_the_reach_has_no_slope_candidate():
    # a slope s = |w| has its stationary point of |u - lam w| + s lam at
    # infinity; here the band's top end is B's reach |B|_* = |w|
    b = SymMat2(0.5, 0.1, -0.5)
    reach = nuclear_norm(b)
    got = _search(A_LINEAR, b, 0.2, reach)
    # range_end of tools/dual_reference.py, the 60-digit dual, on the same A, B and band
    assert got.value == pytest.approx(0.0219719700404359, abs=1e-12)
    assert_certified(A_LINEAR, b, 0.2, reach, got)


@pytest.mark.parametrize("lo, hi", [(0.0, 0.5), (0.0, 0.0), (-0.5, 0.0)])
def test_range_that_ends_at_zero_holds_zero(lo, hi):
    # A = B = diag(1, 0): Tr[A X] = Tr[B X], so the range of Tr[A X] is the
    # band itself, and one of its ends, or both, is exactly 0
    a = SymMat2(1.0, 0.0, 0.0)
    got = _search(a, a, lo, hi)
    assert got.value == 0.0
    assert_certified(a, a, lo, hi, got)


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


# the oracle's whole answer on 504 seeded dyadic inputs, recorded by
# tests/data/record_oracle_exact.py.  No numpy call forms the inputs, and the
# oracle answers with Python arithmetic, math.hypot, math.sqrt and
# math.copysign alone, so unlike build_matrices' numpy trig the bits should
# not vary by CPU.  Rerun it only when a draw changes, never to follow the oracle
EXACT_RECORD = Path(__file__).parent / "data" / "oracle_exact.json"
EXACT_PER_STRATUM = 56


def exact_draws() -> list[tuple[SymMat2, SymMat2, float, float]]:
    """(A, B, lo, hi), A and B with entries k 2**-20, in nine strata of EXACT_PER_STRATUM.

    The strata: a general A; a rank-one A = v v^T with small integer v;
    det B < 0, = 0 (B = 0 among them) and > 0; bands with lo = hi; bands
    that hold 0; bands with an end on +-|B|_*, the face ends; and bands
    that miss [-|B|_*, |B|_*].
    """
    rng = random.Random(20261020)

    def dyadic(size=1.0) -> float:
        n = int(size * 2 ** 20)
        return rng.randint(-n, n) * 2.0 ** -20

    def sym() -> tuple:
        return dyadic(), dyadic(), dyadic()

    def rank_one() -> tuple:
        p, q = rng.choice([(p, q) for p in range(-3, 4) for q in range(-3, 4) if p or q])
        return p * p / 16.0, p * q / 16.0, q * q / 16.0

    def with_det(sign) -> tuple:
        while True:
            b = sym() if sign else rank_one() if rng.random() < 0.8 else (0.0, 0.0, 0.0)
            if sign == 0 and rng.random() < 0.5:
                b = tuple(-m for m in b)
            det = b[0] * b[2] - b[1] * b[1]
            if (det > 0.0) - (det < 0.0) == sign:
                return b

    def band(b, kind) -> tuple[float, float]:
        reach = nuclear_norm(b)
        # a band of up to a quarter of the reach, which can leave the reach
        end = dyadic(reach)
        ends = [end, end + abs(dyadic(reach / 4.0))]
        if kind == "point":
            ends = [dyadic(reach)] * 2
        elif kind == "zero":
            ends = [-abs(ends[0]), abs(ends[1])]
        elif kind == "face":
            # lo on +|B|_* or hi on -|B|_*, the band a point or not
            side, width = rng.choice((1.0, -1.0)), abs(dyadic()) * rng.randint(0, 1)
            ends = sorted((side * reach, side * (reach + width)))
        elif kind == "miss":
            side = rng.choice((1.0, -1.0))
            ends = sorted((side * (reach + abs(dyadic()) + 2.0 ** -20),
                           side * (reach + 1.0 + abs(dyadic()))))
        return ends[0], ends[1]

    strata = [
        (sym, lambda: with_det(rng.choice((-1, 0, 1))), "any"),
        (rank_one, lambda: with_det(rng.choice((-1, 0, 1))), "any"),
        (sym, lambda: with_det(-1), "any"),
        (sym, lambda: with_det(0), "any"),
        (sym, lambda: with_det(1), "any"),
        (sym, sym, "point"),
        (sym, sym, "zero"),
        (sym, sym, "face"),
        (sym, sym, "miss"),
    ]
    draws = []
    for make_a, make_b, kind in strata:
        for _ in range(EXACT_PER_STRATUM):
            a, b = SymMat2(*make_a()), SymMat2(*make_b())
            draws.append((a, b, *band(b, kind)))
    return draws


def exact_answer(a, b, lo, hi) -> list[str] | str:
    """float.hex of the value, the gap and x11, x12, x22, or "infeasible"."""
    try:
        got = _search(a, b, lo, hi)
    except OracleInfeasibleError:
        return "infeasible"
    (x11, x12), (_, x22) = got.point.tolist()
    return [float.hex(v) for v in (got.value, got.gap, x11, x12, x22)]


def test_answers_match_the_recorded_exact_table():
    recorded = json.loads(EXACT_RECORD.read_text())
    draws = exact_draws()
    assert len(recorded) == len(draws)
    for draw, want in zip(draws, recorded):
        assert exact_answer(*draw) == want, draw


# LAPACK's dlamch("E") and dlamch("S"); outside [RESCALED_BELOW,
# RESCALED_ABOVE] (DSTEQR's ssfmin, DSYEVD's rmax) LAPACK rescales first
EPS, SAFMIN = 2.0 ** -53, sys.float_info.min
RESCALED_BELOW, RESCALED_ABOVE = 2.0 ** -405, 2.0 ** 485


def lapack(rows) -> tuple[np.ndarray, np.ndarray]:
    """numpy's eigh of the (d, e, f) rows: eigenvalues (n, 2), eigenvectors (n, 2, 2)."""
    rows = np.asarray(rows, dtype=float)
    return np.linalg.eigh(np.stack([rows[:, [0, 1]], rows[:, [1, 2]]], 1))


def lapack_one(m) -> tuple[list, list]:
    """numpy's eigh of one matrix, in the port's form: (values, vector rows)."""
    w, v = lapack([m])
    return w[0].tolist(), v[0].tolist()


def eigh_strata(rng) -> dict[str, np.ndarray]:
    """Seeded (d, e, f) rows, 130,000 in all, whose largest |entry| LAPACK does not rescale."""
    n = 10_000

    def signs(*shape):
        return rng.choice((-1.0, 1.0), shape)

    def wide(*shape):
        return signs(*shape) * 10.0 ** rng.uniform(-121.0, 145.0, shape)

    d, f = wide(n), wide(n)
    # DSTEQR's first split test: |e| <= sqrt|d| sqrt|f| eps
    split = np.sqrt(abs(d)) * np.sqrt(abs(f)) * EPS
    at = np.stack([np.nextafter(split, 0.0), split, np.nextafter(split, np.inf)], 1) * signs(n, 1)
    no_e = np.column_stack([d, np.zeros(n), np.where(np.arange(n) % 2, f, d)])
    # one diagonal 0 or below 1e-280, |e| below 1.5e-154: e * e < SAFMIN, so
    # only the second, squared test splits
    small = np.where(np.arange(n) % 2, 0.0, signs(n) * 10.0 ** rng.uniform(-320.0, -280.0, n))
    tiny_e = signs(n) * 10.0 ** rng.uniform(-200.0, -154.0, n)
    squared = np.column_stack([d, tiny_e, small])
    squared[::2] = squared[::2, ::-1]
    # d - f = 2e exactly: integers at a power-of-two scale
    a, b = rng.integers(-2 ** 20, 2 ** 20, (2, n))
    unit = 2.0 ** rng.integers(-380, 460, n)
    return {
        "wide": wide(3 * n, 3),
        "near the split": np.column_stack([d, split * signs(n) * 2.0 ** rng.uniform(-1, 1, n), f]),
        "on the split": np.column_stack([np.repeat(d, 3), at.ravel(), np.repeat(f, 3)]),
        "near diagonal": np.column_stack([d, 1e-12 * d * rng.standard_normal(n), f]),
        "d = f": np.column_stack([d, wide(n), d]),
        "d = -f": np.column_stack([d, wide(n), -d]),
        "|d - f| = |2e|": unit[:, None] * np.column_stack([a + 2 * b, signs(n) * b, a]),
        "e = 0": no_e,
        "squared split": squared,
    }


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def eigh_branches(m: np.ndarray) -> dict[str, np.ndarray]:
    """Masks of the rows (d, e, f) that take each split test and DLAEV2 branch."""
    d, e, f = m.T
    ad, af, ab = abs(d), abs(f), abs(e + e)
    first = (e != 0.0) & (abs(e) <= np.sqrt(ad) * np.sqrt(af) * EPS)
    second = (e != 0.0) & ~first & (e * e <= EPS * EPS * np.minimum(ad, af) * np.maximum(ad, af)
                                    + SAFMIN)
    split = (e == 0.0) | first | second
    sm, df = d + f, d - f
    adf = abs(df)
    rt = np.where(adf > ab, adf * np.sqrt(1.0 + (ab / adf) ** 2),
                  np.where(adf < ab, ab * np.sqrt(1.0 + (adf / ab) ** 2), ab * np.sqrt(2.0)))
    cs = np.where(df >= 0.0, df + rt, df - rt)
    dlaev2 = {
        "|d| > |f|": ad > af, "|d| <= |f|": ad <= af,
        "|d - f| > |2e|": adf > ab, "|d - f| < |2e|": adf < ab, "|d - f| = |2e|": adf == ab,
        "d + f < 0": sm < 0.0, "d + f > 0": sm > 0.0, "d + f = 0": sm == 0.0,
        "d - f >= 0": df >= 0.0, "d - f < 0": df < 0.0,
        "|cs| > |2e|": abs(cs) > ab, "|cs| <= |2e|": abs(cs) <= ab,
        # sgn1 is the sign of d + f (+ at 0), sgn2 that of d - f (+ at 0)
        "sgn1 = sgn2": (sm < 0.0) == (df < 0.0), "sgn1 != sgn2": (sm < 0.0) != (df < 0.0),
    }
    return {"e = 0": e == 0.0, "first test": first, "squared test only": second,
            # the sort swaps a split matrix's (d, f) where f < d
            "split, f < d": split & (f < d), "split, f >= d": split & (f >= d),
            **{name: ~split & mask for name, mask in dlaev2.items()}}


class TestEigh:
    """The port of DLAEV2 as DSYEVD applies it, against numpy's eigh itself."""

    def test_equals_lapack_bit_for_bit(self):
        # eigenvalues and eigenvectors, the sign of a zero included, on every
        # row of every stratum; the strata reach every branch of the port
        strata = eigh_strata(np.random.default_rng(20261020))
        for name, rows in strata.items():
            assert RESCALED_BELOW <= abs(rows).max(axis=1).min()
            assert abs(rows).max() <= RESCALED_ABOVE
            got = np.array([[*w, *v[0], *v[1]] for w, v in map(_eigh, rows.tolist())])
            w, v = lapack(rows)
            want = np.column_stack([w, v.reshape(-1, 4)])
            differs = (got.view(np.int64) != want.view(np.int64)).any(axis=1)
            assert not differs.any(), (name, tuple(rows[differs.argmax()]))
        branches = eigh_branches(np.concatenate(list(strata.values())))
        assert [name for name, mask in branches.items() if not mask.any()] == []

    def test_near_lapack_where_lapack_rescales(self):
        # a largest |entry| in 10^U(-130, -122) or 10^U(146.1, 153), outside
        # [RESCALED_BELOW, RESCALED_ABOVE]: LAPACK rescales by a factor that
        # rounds, and the port does not rescale, so only agreement is asked:
        # eigenvalues within 1e-14 of the largest |entry|, eigenvectors within
        # 1e-14 up to their sign (the oracle reads them only through v v^T).
        # Farther out the port fails where a square it tests under- or
        # overflows: below about 1e-138, where e * e < SAFMIN splits matrices
        # that LAPACK's rescaled copy does not, and above about 1e154.  The
        # oracle's matrices stay far below 1e154, and the next test shows
        # that it reads no basis of a matrix below RESCALED_BELOW
        rng = np.random.default_rng(20261021)
        n = 5_000
        big = np.where(rng.random(n) < 0.5, 10.0 ** rng.uniform(-130.0, -122.0, n),
                       10.0 ** rng.uniform(146.1, 153.0, n))
        rows = big[:, None] * rng.choice((-1.0, 1.0), (n, 3)) * 10.0 ** rng.uniform(-15, 0, (n, 3))
        rows[np.arange(n), rng.integers(0, 3, n)] = big
        assert not ((RESCALED_BELOW <= big) & (big <= RESCALED_ABOVE)).any()
        for row, w, v, scale in zip(rows.tolist(), *(x.tolist() for x in lapack(rows)),
                                    big.tolist()):
            mu, u = _eigh(row)
            assert max(abs(x - y) for x, y in zip(mu, w)) <= 1e-14 * scale, row
            for k in (0, 1):
                apart = [abs(u[i][k] - v[i][k]) for i in (0, 1)]
                along = [abs(u[i][k] + v[i][k]) for i in (0, 1)]
                assert min(max(apart), max(along)) <= 1e-14, row


def test_matrices_below_lapacks_range_leave_every_answer_as_eigh_gives_it(monkeypatch):
    # with eps below about 1e-244, C - lambda* B can cancel its O(1) entry to
    # exactly 0 and keep the others of size sqrt(eps), under RESCALED_BELOW,
    # where the port and eigh part; both its eigenvalues then lie below the
    # zero threshold, so its basis is never read and every answer is eigh's
    rng = np.random.default_rng([20240811, 98])
    draws = [(*_whole_domain(rng)[:2], 10.0 ** rng.uniform(-323.0, -244.0),
              rng.uniform(1e-3, 1.0)) for _ in range(400)]
    port, below = oracle._eigh, []

    def spy(m):
        if 0.0 < max(map(abs, m)) < RESCALED_BELOW:
            below.append(m)
        return port(m)

    def answers(eigh):
        monkeypatch.setattr(oracle, "_eigh", eigh)
        out = []
        for alpha, theta, eps, t in draws:
            a, b = build_matrices(alpha, theta, eps)
            try:
                got = oracle_min_overlap_lossy(a, b, alpha, t)
            except OracleInfeasibleError:
                out.append(None)
                continue
            out.append((got.value, got.gap, got.point.tolist()))
        return out

    assert answers(spy) == answers(lapack_one)
    assert below and any(lapack_one(m) != port(m) for m in below)
