import math

import numpy as np
import pytest

from b92sec.errors import OracleInfeasibleError, UnreachableChannelError
from b92sec.estimation import ChannelTriple
from b92sec.evebound import SymMat2, build_matrices, eve_max_gain
from b92sec.oracle import (
    Contraction2,
    _inner_min,
    backend_name,
    nuclear_norm,
    oracle_min_overlap,
    oracle_min_overlap_lossy,
)

from conftest import DEG, sym_matrix


class TestContraction:
    def test_matrix_is_a_contraction(self, rng):
        for _ in range(100):
            point = Contraction2(u=rng.uniform(0, 2 * math.pi),
                                 v=rng.uniform(0, math.pi),
                                 s1=rng.uniform(0, 1), s2=rng.uniform(-1, 1))
            svals = np.linalg.svd(point.matrix(), compute_uv=False)
            assert svals.max() <= 1.0 + 1e-12

    def test_signed_s2_reaches_reflections(self):
        # the det < 0 block [[cos, sin], [sin, -cos]] is representable
        eta = 0.8
        point = Contraction2(u=eta, v=0.0, s1=1.0, s2=-1.0)
        expected = np.array([[math.cos(eta), math.sin(eta)],
                             [math.sin(eta), -math.cos(eta)]])
        np.testing.assert_allclose(point.matrix(), expected, atol=1e-15)


class TestOracleTrivials:
    def test_zero_target_reaches_zero(self):
        a = SymMat2(0.6, 0.1, 0.2)
        b = SymMat2(0.5, 0.2, -0.3)
        assert oracle_min_overlap(a, b, 0.0, resolution=32).value < 1e-9

    def test_identical_objectives(self):
        a = SymMat2(0.6, 0.1, 0.2)
        r = oracle_min_overlap(a, a, 0.37, resolution=32)
        assert r.value == pytest.approx(0.37, abs=1e-9)

    def test_lossless_band_reduces_to_equality(self):
        a = SymMat2(0.6, 0.1, 0.2)
        b = SymMat2(0.8, 0.05, -0.1)
        lossy = oracle_min_overlap_lossy(a, b, 0.7, 1.0, resolution=32)
        equality = oracle_min_overlap(a, b, math.cos(0.7), resolution=32)
        assert lossy.value == pytest.approx(equality.value, abs=1e-12)

    def test_vanishing_transmission_makes_constraint_vacuous(self):
        a = SymMat2(0.6, 0.1, 0.2)
        b = SymMat2(0.8, 0.05, -0.1)
        assert oracle_min_overlap_lossy(a, b, 0.7, 1e-9, resolution=16).value == 0.0

    def test_unreachable_target_is_infeasible(self):
        a = SymMat2(0.6, 0.1, 0.2)
        b = SymMat2(0.8, 0.05, -0.1)  # reachable range ends near 0.906
        with pytest.raises(OracleInfeasibleError):
            oracle_min_overlap(a, b, 0.95, resolution=24)

    def test_reachable_limit_is_the_nuclear_norm(self):
        a = SymMat2(0.6, 0.1, 0.2)
        b = SymMat2(0.8, 0.05, -0.1)
        reach = nuclear_norm(b)
        assert reach == pytest.approx(np.abs(np.linalg.eigvalsh(sym_matrix(b))).sum())
        got = oracle_min_overlap(a, b, reach - 1e-6, resolution=24)
        met = np.trace(sym_matrix(b) @ got.point.matrix())
        assert met == pytest.approx(reach - 1e-6, abs=1e-9)
        with pytest.raises(OracleInfeasibleError):
            oracle_min_overlap(a, b, reach + 1e-6, resolution=24)


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
            got = oracle_min_overlap_lossy(a, b, alpha, t, resolution=48)
            assert got.value == pytest.approx(analytic, abs=1e-3)
            # refined points satisfy the constraint exactly, so the oracle
            # cannot undershoot the true minimum
            assert got.value >= analytic - 5e-3
            checked += 1

    def test_resolution_halving_is_stable(self):
        a, b = build_matrices(10 * DEG, 15 * DEG, 0.05)
        coarse = {}
        refined = {}
        for res in (24, 48):
            r = oracle_min_overlap(a, b, 0.5, resolution=res)
            coarse[res] = r.coarse_value
            refined[res] = r.value
        # refinement converges to the same value from any sane grid
        assert refined[48] == pytest.approx(refined[24], abs=5e-3)
        # a finer grid cannot raise the coarse scan by more than the step bound
        step_bound = 4.0 * math.pi / 24
        assert coarse[48] <= coarse[24] + step_bound


class TestNearTheReachableLimit:
    """Reachable channels whose feasible (u, v) region is a thin sliver.

    A resolution-64 grid has no feasible cell on some of these, so only the
    polar-factor seed finds them.  The closed-form values were matched by a
    resolution-128 grid as well.
    """

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
        got = oracle_min_overlap_lossy(a, b, alpha, t, resolution=64)
        assert got.value == pytest.approx(analytic, abs=1e-6)


# edge strata of the physical domain: criterion 01's box with one
# coordinate drawn from outside it
def _box(rng, alpha=None, theta=None, eps=None, t=None):
    return (rng.uniform(2 * DEG, 80 * DEG) if alpha is None else alpha,
            rng.uniform(-30 * DEG, 30 * DEG) if theta is None else theta,
            rng.uniform(0.01, 0.9) if eps is None else eps,
            rng.uniform(0.2, 1.0) if t is None else t)


STRATA = {
    "tiny-noise": lambda rng: _box(rng, eps=10.0 ** rng.uniform(-8.0, -2.0)),
    "heavy-noise": lambda rng: _box(rng, eps=rng.uniform(0.9, 1.0)),
    "small-angle": lambda rng: _box(rng, alpha=rng.uniform(0.0, 2 * DEG)),
    "wide-angle": lambda rng: _box(rng, alpha=rng.uniform(80 * DEG, 90 * DEG)),
    "wide-tilt": lambda rng: _box(rng, theta=rng.uniform(-90 * DEG, 90 * DEG)),
    "heavy-loss": lambda rng: _box(rng, t=rng.uniform(1e-3, 0.2)),
}


@pytest.mark.parametrize("stratum", sorted(STRATA))
def test_whole_domain_agreement(stratum):
    # 40 seeded reachable channels per edge stratum of the physical domain;
    # every unreachable draw on the way must be called infeasible too
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
                oracle_min_overlap_lossy(a, b, alpha, t, resolution=64)
            continue
        got = oracle_min_overlap_lossy(a, b, alpha, t, resolution=64)
        assert got.value == pytest.approx(analytic, abs=1e-6), (alpha, theta, eps, t)
        checked += 1


class TestInnerSolvers:
    """Edge cases of the exact fixed-rotation sub-problem.

    An equality constraint is the slab with lo == hi; an empty feasible set
    reports an infinite value.
    """

    def test_segment_through_box_corner(self):
        # line s1 + s2 = 2 touches the box only at (1, 1)
        value, s1, s2 = _inner_min(0.3, -0.7, 1.0, 1.0, 2.0, 2.0)
        assert (s1, s2) == pytest.approx((1.0, 1.0), abs=1e-9)
        assert value == pytest.approx(0.4, abs=1e-9)

    def test_segment_misses_box(self):
        assert _inner_min(0.3, -0.7, 1.0, 1.0, 2.5, 2.5)[0] == math.inf

    def test_degenerate_constraint_row(self):
        # zero constraint coefficients: feasible only for zero target
        assert _inner_min(0.5, 0.5, 0.0, 0.0, 0.1, 0.1)[0] == math.inf
        assert _inner_min(0.5, 0.5, 0.0, 0.0, 0.0, 0.0)[0] == 0.0

    def test_band_zero_line_crossing(self):
        # objective zero line s1 = s2 crosses the slab
        value, s1, s2 = _inner_min(1.0, -1.0, 1.0, 0.0, 0.2, 0.6)
        assert value == 0.0
        assert 0.2 - 1e-9 <= s1 <= 0.6 + 1e-9
        assert s1 == pytest.approx(s2, abs=1e-9)

    def test_band_minimum_at_vertex(self):
        # objective |s1| with slab on s2: best is s1 = 0 on the slab edge
        value, s1, s2 = _inner_min(1.0, 0.0, 0.0, 1.0, 0.5, 0.8)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert s1 == pytest.approx(0.0, abs=1e-9)

    def test_band_vacuous_objective(self):
        assert _inner_min(0.0, 0.0, 1.0, 0.0, 0.2, 0.4)[0] == 0.0

    def test_cases_agree_when_stacked(self):
        # one vectorized call over all the cases above gives the same values
        rows = np.array([(0.3, -0.7, 1.0, 1.0), (0.5, 0.5, 0.0, 0.0),
                         (1.0, -1.0, 1.0, 0.0), (1.0, 0.0, 0.0, 1.0),
                         (0.0, 0.0, 1.0, 0.0)])
        value, _, _ = _inner_min(*rows.T, 0.0, 0.5)
        for row, got in zip(rows, value):
            assert got == _inner_min(*row, 0.0, 0.5)[0]


def test_backend_name_reports_something():
    assert backend_name() == "numpy"
