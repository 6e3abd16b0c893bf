import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from b92sec import keyrate
from b92sec.entropy import binary_entropy
from b92sec.errors import B92Error, DegenerateLinkError, DomainError, UnreachableChannelError
from b92sec.estimation import ChannelTriple
from b92sec.keyrate import (
    KTH_LINK,
    MODES,
    PhysicalLink,
    bb84_key_gain,
    distance_sweep,
    key_gains,
    link_channels,
    noiseless_gain,
    optimal_angle,
    optimal_angles,
    positive_noise_limit,
    secret_key_gain,
)
from b92sec.states import OUTCOMES, outcome_table

from conftest import DEG


class TestSecretKeyGain:
    def test_ideal_channel_keeps_every_conclusive_bit(self):
        alpha = 0.6
        rep = secret_key_gain(alpha, ChannelTriple(0.0, 0.0, 1.0))
        assert rep.error_rate == 0.0
        assert rep.info_correct == pytest.approx(0.0, abs=1e-12)
        assert rep.gain == pytest.approx(0.5 * math.sin(alpha) ** 2, abs=1e-12)

    def test_matches_noiseless_closed_form(self):
        # eps = 0 closed form across an (alpha, T) grid where cos a >= 1 - T
        for t in np.linspace(0.55, 1.0, 10):
            for alpha in np.linspace(2 * DEG, 55 * DEG, 25):
                rep = secret_key_gain(alpha, ChannelTriple(0.0, 0.0, float(t)))
                assert rep.gain == pytest.approx(noiseless_gain(alpha, float(t)),
                                                 abs=1e-12)

    def test_gain_decomposition_identity(self, rng):
        for _ in range(40):
            alpha = rng.uniform(5 * DEG, 60 * DEG)
            triple = ChannelTriple(0.0, rng.uniform(0.0, 0.5),
                                   rng.uniform(0.4, 1.0))
            rep = secret_key_gain(alpha, triple)
            assert rep.gain == pytest.approx(
                rep.gain_correct + rep.gain_flipped
                - rep.p_conc * binary_entropy(rep.error_rate), abs=1e-14)

    def test_shannon_mode_dominates(self):
        # T = 0.3, alpha = 12 deg: the Shannon estimate keeps more key
        alpha, t = 12 * DEG, 0.3
        for eps in np.linspace(0.0, 0.6, 25):
            shannon = secret_key_gain(alpha, ChannelTriple(0.0, float(eps), t),
                                      "shannon").gain
            collision = secret_key_gain(alpha, ChannelTriple(0.0, float(eps), t),
                                        "collision").gain
            assert shannon >= collision - 1e-12

    def test_non_finite_tilt_rejected(self):
        with pytest.raises(DomainError):
            secret_key_gain(0.5, ChannelTriple(math.nan, 0.05, 0.9))

    def test_unknown_mode_rejected(self):
        with pytest.raises(DomainError):
            secret_key_gain(0.5, ChannelTriple(0.0, 0.0, 1.0), mode="renyi")

    @pytest.mark.parametrize("transmission", (-0.5, math.nan, 1.5))
    def test_transmission_outside_unit_interval_rejected(self, transmission):
        # such entries have no conclusive events, so eve_bound never sees
        # their transmission; key_gains must reject it itself
        message = f"transmission outside [0, 1]: {transmission}"
        for t in (transmission, [0.5, transmission]):
            with pytest.raises(DomainError, match=re.escape(message)):
                key_gains(0.5, 0.0, 0.1, t)
        # a triple-like record that skips ChannelTriple's own check
        triple = SimpleNamespace(theta=0.0, epsilon=0.1, transmission=transmission)
        with pytest.raises(DomainError, match=re.escape(message)):
            secret_key_gain(0.5, triple)

    def test_zero_transmission_is_a_failed_entry(self):
        g = key_gains(0.5, 0.0, 0.1, [0.0, 0.5])
        assert g.failed.tolist() == [True, False]
        assert str(g.error(0)) == "conclusive probability vanishes; key gain undefined"

    @pytest.mark.parametrize("mode", MODES)
    def test_array_matches_scalar_calls(self, mode):
        # criterion 09's noise grid, the noiseless (alpha, T) grid, and one
        # entry for each failure: unreachable, no conclusive events (T = 0)
        # and an error rate of one (theta = -2 alpha, eps = 0)
        grid_t, grid_alpha = np.meshgrid(np.linspace(0.55, 1.0, 10),
                                         np.linspace(2 * DEG, 55 * DEG, 25))
        alpha = np.concatenate((np.full(91, 12 * DEG), grid_alpha.ravel(),
                                [2 * DEG, 0.5, 0.3]))
        theta = np.concatenate((np.zeros(91 + 250), [30 * DEG, 0.0, -0.6]))
        eps = np.concatenate((np.linspace(0.0, 0.9, 91), np.zeros(250), [0.01, 0.1, 0.0]))
        t = np.concatenate((np.full(91, 0.3), grid_t.ravel(), [0.2, 0.0, 0.9]))
        g = key_gains(alpha, theta, eps, t, mode)
        raised = []
        for k in range(alpha.size):
            try:
                rep = secret_key_gain(alpha[k], ChannelTriple(theta[k], eps[k], t[k]), mode)
            except B92Error as exc:
                assert g.failed[k] and type(g.error(k)) is type(exc)
                raised.append(type(exc))
                continue
            assert not g.failed[k]
            for name in ("p_conc", "error_rate", "info_correct", "info_flipped",
                         "gain_correct", "gain_flipped", "gain"):
                assert abs(getattr(g, name)[k] - getattr(rep, name)) <= 1e-12, name
        assert raised == [UnreachableChannelError, DomainError, DomainError]


class TestConclusiveRatesMatchTheOutcomeTable:
    """``key_gains`` keeps its own two lines for p_conc and e (it is the angle
    and noise-limit searches' inner loop); they must equal Bob's outcome
    table on the symmetrized bit-0 state."""

    @staticmethod
    def table_rates(alpha, theta, eps, t):
        table = outcome_table(alpha, -(alpha + theta), 1.0 - eps, t)
        p_error, p_correct = table[..., OUTCOMES.index("0b")], table[..., OUTCOMES.index("1b")]
        return p_error + p_correct, p_error / (p_error + p_correct)

    def test_on_criterion_09_grid_and_random_channels(self, rng):
        n = 400
        alpha = np.concatenate((np.full(91, 12 * DEG), rng.uniform(0.0, math.pi / 2, n)))
        theta = np.concatenate((np.zeros(91), rng.uniform(-math.pi / 2, math.pi / 2, n)))
        eps = np.concatenate((np.linspace(0.0, 0.9, 91), rng.uniform(0.0, 1.0, n)))
        t = np.concatenate((np.full(91, 0.3), rng.uniform(0.05, 1.0, n)))
        g = key_gains(alpha, theta, eps, t)
        p_conc, e = self.table_rates(alpha, theta, eps, t)
        assert np.abs(g.p_conc - p_conc).max() <= 1e-15
        assert np.abs(g.error_rate - e).max() <= 1e-15

    def test_noiseless_rows_have_no_errors(self):
        grid_t, grid_alpha = np.meshgrid(np.linspace(0.55, 1.0, 10),
                                         np.linspace(2 * DEG, 55 * DEG, 25))
        g = key_gains(grid_alpha, 0.0, 0.0, grid_t)
        _, e = self.table_rates(grid_alpha, 0.0, 0.0, grid_t)
        assert (e == 0.0).all() and (g.error_rate == 0.0).all()
        assert (g.info_flipped == 0.0).all()


class TestOptimalAngle:
    def test_noiseless_optimum_is_interior(self):
        alpha_star, gain_star = optimal_angle(ChannelTriple(0.0, 0.0, 0.8))
        assert 0.0 < alpha_star < math.pi / 2
        assert gain_star > 0.0
        # local optimality against nearby angles
        for delta in (-1e-3, 1e-3):
            assert secret_key_gain(alpha_star + delta,
                                   ChannelTriple(0.0, 0.0, 0.8)).gain <= gain_star + 1e-9

    def test_dead_channel_returns_zero(self):
        alpha_star, gain_star = optimal_angle(ChannelTriple(0.0, 0.8, 0.3))
        assert (alpha_star, gain_star) == (0.0, 0.0)

    def test_optimum_shrinks_with_noise(self):
        # positive gain survives only up to eps ~ 0.034 at T = 0.8
        angles = []
        for eps in (0.0, 0.004, 0.008, 0.012, 0.016):
            alpha_star, gain_star = optimal_angle(ChannelTriple(0.0, eps, 0.8))
            assert gain_star > 0.0
            angles.append(alpha_star)
        assert all(d <= 1e-6 for d in np.diff(angles))

    def test_unreachable_angles_are_skipped(self):
        # at this tilt only the angles up to 19 degrees are unreachable
        triple = ChannelTriple(0.05, 0.02, 0.8)
        for alpha_deg in (1, 19):
            with pytest.raises(UnreachableChannelError):
                secret_key_gain(alpha_deg * DEG, triple)
        alpha_star, gain_star = optimal_angle(triple)
        assert math.degrees(alpha_star) == pytest.approx(42.54, abs=0.01)
        assert gain_star == pytest.approx(0.0545, abs=1e-4)
        for delta in (-0.1 * DEG, 0.1 * DEG):
            assert secret_key_gain(alpha_star + delta, triple).gain <= gain_star

    def test_tilted_channels_never_raise(self):
        # 188 of these channels have an unreachable angle on the coarse scan
        rng = np.random.default_rng(20261018)
        rows = zip(rng.uniform(-0.5, 0.5, 200).tolist(), rng.uniform(0.0, 0.3, 200).tolist(),
                   rng.uniform(0.05, 1.0, 200).tolist())
        triples = [ChannelTriple(*row) for row in rows]
        batch = optimal_angles(*np.array([(t.theta, t.epsilon, t.transmission)
                                          for t in triples]).T)
        for k, triple in enumerate(triples):
            alpha_star, gain_star = optimal_angle(triple)
            # the batched search gives every row the numbers it gets on its own
            assert (batch[0][k], batch[1][k]) == (alpha_star, gain_star), triple
            if gain_star > 0.0:
                assert secret_key_gain(alpha_star, triple).gain == gain_star
            else:
                assert (alpha_star, gain_star) == (0.0, 0.0)


def test_flipped_bits_contribute_nothing_in_working_regimes():
    # wherever the optimized gain is positive, the flipped-bit share is
    # negligible; unexpected contributions are flagged for review, not failed
    import warnings

    flagged = []
    for t in (0.4, 0.6, 0.8, 1.0):
        for eps in (0.0, 0.002, 0.005, 0.01):
            alpha_star, gain_star = optimal_angle(ChannelTriple(0.0, eps, t))
            if gain_star <= 0.0:
                continue
            rep = secret_key_gain(alpha_star, ChannelTriple(0.0, eps, t))
            if rep.gain_flipped > 1e-3 * rep.gain:
                flagged.append((t, eps, rep.gain_flipped, rep.gain))
    if flagged:
        warnings.warn(f"flipped bits contribute unexpectedly: {flagged}")


# The noise-limit bisection that ran a whole angle search at every step,
# kept verbatim as the parity reference.
def chained_positive_noise_limit(transmission: float, mode: str = "collision",
                                 tol: float = 1e-5) -> float:
    keyrate._check_tol(tol)

    def g_star(eps: float) -> float:
        return optimal_angle(ChannelTriple(0.0, eps, transmission), mode)[1]

    if g_star(0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, None
    for k in range(1, 51):
        eps = k / 50.0
        if g_star(eps) <= 0.0:
            hi = eps
            break
        lo = eps
    if hi is None:
        return 1.0
    mid = 0.5 * (lo + hi)
    while hi - lo > tol and lo < mid < hi:
        if g_star(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


# The noise limit that made one key_gains call per scan or bisection step,
# kept verbatim as the parity reference for the batched lookahead.
def stepwise_positive_noise_limit(transmission: float, mode: str = "collision",
                                  tol: float = 1e-5) -> float:
    keyrate._check_tol(tol)

    def positive(eps: float) -> bool:
        return np.max(keyrate._gains(keyrate.COARSE, 0.0, eps, transmission, mode)) > 0.0

    if not positive(0.0):
        return 0.0
    lo, hi = 0.0, None
    for k in range(1, 51):
        eps = k / 50.0
        if not positive(eps):
            hi = eps
            break
        lo = eps
    if hi is None:
        return 1.0
    mid = 0.5 * (lo + hi)
    while hi - lo > tol and lo < mid < hi:
        if positive(mid):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


class TestPositiveNoiseLimit:
    def test_brackets_the_sign_change(self):
        limit = positive_noise_limit(0.8, tol=1e-4)
        assert limit > 0.0
        assert optimal_angle(ChannelTriple(0.0, limit - 5e-3, 0.8))[1] > 0.0
        assert optimal_angle(ChannelTriple(0.0, limit + 5e-3, 0.8))[1] == 0.0

    @pytest.mark.parametrize("mode", MODES)
    def test_equals_the_chained_angle_searches(self, mode):
        # the coarse scan's maximum is positive exactly when the angle search
        # returns a positive gain, so every bisection step goes the same way
        for t in np.linspace(0.05, 1.0, 20).tolist():
            assert positive_noise_limit(t, mode) == chained_positive_noise_limit(t, mode), t

    @pytest.mark.parametrize("mode", MODES)
    def test_equals_one_gain_call_per_step(self, mode):
        # every step reads the sign the one-call step computes, so the floats
        # match exactly, whichever batch a step's sign came from
        for t in np.linspace(0.05, 1.0, 20).tolist():
            for tol in (1e-4, 1e-5):
                assert (positive_noise_limit(t, mode, tol)
                        == stepwise_positive_noise_limit(t, mode, tol)), (t, tol)
        for t in (0.3, 0.8, 1.0):
            assert (positive_noise_limit(t, mode, 1e-300)
                    == stepwise_positive_noise_limit(t, mode, 1e-300)), t

    def test_scan_past_the_first_batch(self, gain_calls):
        # Shannon at T = 1 passes eps = 0.06, the first call's last scan step
        limit = positive_noise_limit(1.0, "shannon")
        # two scan calls, then four of the bisection
        assert len(gain_calls) == 6
        assert 0.06 < limit < 0.08
        assert limit == stepwise_positive_noise_limit(1.0, "shannon")

    @pytest.mark.parametrize("transmission", (-0.5, 1.5, math.nan))
    def test_transmission_outside_unit_interval_rejected(self, transmission):
        with pytest.raises(DomainError):
            positive_noise_limit(transmission)


class TestSearchBudget:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("eps", (0.0, 0.01, 0.03))
    def test_one_search_is_at_most_five_gain_calls(self, gain_calls, mode, eps):
        triple = ChannelTriple(0.0, eps, 0.8)
        alpha_star, gain_star = optimal_angle(triple, mode)
        assert gain_star > 0.0
        assert len(gain_calls) <= 5
        # the returned gain is the one computed at the returned angle
        assert gain_star == secret_key_gain(alpha_star, triple, mode).gain

    def test_noise_limit_is_one_gain_call_per_step(self, gain_calls):
        # 3 scan steps and 11 bisection steps: one call for eps = 0 and the
        # first three scan steps, and one per three bisection levels; 14
        # calls at one per step, 38 when every step ran a whole angle search
        positive_noise_limit(0.8)
        assert len(gain_calls) <= 5

    @pytest.mark.parametrize("tol", (0.0, -1.0, math.nan, math.inf))
    def test_bad_tolerance_rejected_before_any_gain_call(self, monkeypatch, tol):
        def refuse(*args, **kwargs):
            raise AssertionError("a search with a bad tolerance computed gains")

        monkeypatch.setattr(keyrate, "key_gains", refuse)
        with pytest.raises(DomainError):
            optimal_angle(ChannelTriple(0.0, 0.01, 0.8), tol=tol)
        with pytest.raises(DomainError):
            positive_noise_limit(0.8, tol=tol)

    def test_tolerance_below_float_resolution_stops(self, gain_calls):
        triple = ChannelTriple(0.0, 0.01, 0.8)
        alpha_star, gain_star = optimal_angle(triple, tol=1e-300)
        assert len(gain_calls) <= 20
        want = optimal_angle(triple)
        assert abs(alpha_star - want[0]) <= 1e-6 and gain_star >= want[1]
        gain_calls.clear()
        assert positive_noise_limit(0.8, tol=1e-300) == pytest.approx(
            positive_noise_limit(0.8), abs=1e-5)
        assert len(gain_calls) <= 300


# The golden-section search the grid sections replaced, kept verbatim as the
# parity reference; it reads the same gains through ``keyrate._gains``.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _gains(alphas, triple: ChannelTriple, mode: str):
    return keyrate._gains(alphas, triple.theta, triple.epsilon, triple.transmission, mode)


def golden_optimal_angle(triple: ChannelTriple, mode: str = "collision",
                         tol: float = 1e-6) -> tuple[float, float]:
    grid = [k * math.pi / 180.0 for k in range(1, 91)]
    gains = _gains(grid, triple, mode)
    best = max(range(len(grid)), key=gains.__getitem__)
    if gains[best] <= 0.0:
        return 0.0, 0.0
    lo = grid[best - 1] if best > 0 else grid[0] / 2.0
    hi = grid[best + 1] if best + 1 < len(grid) else grid[-1]
    # golden-section maximization on [lo, hi]
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1 = _gains(x1, triple, mode)
    f2 = _gains(x2, triple, mode)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = _gains(x2, triple, mode)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = _gains(x1, triple, mode)
    alpha_star = 0.5 * (lo + hi)
    return alpha_star, float(_gains(alpha_star, triple, mode))


def golden_positive_noise_limit(transmission: float, mode: str = "collision",
                                tol: float = 1e-5) -> float:
    def g_star(eps: float) -> float:
        return golden_optimal_angle(ChannelTriple(0.0, eps, transmission), mode)[1]

    if g_star(0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, None
    for k in range(1, 51):
        eps = k / 50.0
        if g_star(eps) <= 0.0:
            hi = eps
            break
        lo = eps
    if hi is None:
        return 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g_star(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


LIMIT_TS = (0.2, 0.4, 0.6, 0.8, 1.0)


def parity_channels() -> list[ChannelTriple]:
    """Criterion 07's noise grid at T = 0.8, a (T, eps) grid and random tilts."""
    limit = golden_positive_noise_limit(0.8, tol=1e-4)
    channels = [ChannelTriple(0.0, float(eps), 0.8)
                for eps in np.linspace(0.0, limit * 0.95, 12)]
    channels += [ChannelTriple(0.0, float(eps), t)
                 for t in LIMIT_TS for eps in np.linspace(0.0, 0.05, 21)]
    rng = np.random.default_rng(20261018)
    channels += [ChannelTriple(*row) for row in zip(
        rng.uniform(-0.03, 0.03, 200).tolist(), rng.uniform(0.0, 0.05, 200).tolist(),
        rng.uniform(0.2, 1.0, 200).tolist())]
    return channels


def search_outcome(search, triple: ChannelTriple, mode: str):
    try:
        return search(triple, mode)
    except B92Error as exc:
        return type(exc), str(exc)


class TestGridSectionParity:
    @pytest.mark.parametrize("mode", MODES)
    def test_optimal_angle_matches_golden_section(self, mode):
        kinds = {"positive": 0, "zero": 0, "raised": 0, "edge": 0}
        worst_alpha = worst_gain = 0.0
        for triple in parity_channels():
            want = search_outcome(golden_optimal_angle, triple, mode)
            got = search_outcome(optimal_angle, triple, mode)
            if isinstance(want[0], type) or want == (0.0, 0.0):
                assert got == want, triple
                kinds["raised" if isinstance(want[0], type) else "zero"] += 1
                continue
            assert isinstance(got[0], float) and got != (0.0, 0.0), triple
            kinds["positive"] += 1
            worst_alpha = max(worst_alpha, abs(got[0] - want[0]))
            near = key_gains(np.minimum(want[0] + np.array([-1e-6, 1e-6]), math.pi / 2),
                             triple.theta,
                             triple.epsilon, triple.transmission, mode)
            if near.failed.any():
                # the gain rises up to the reachable limit, so the optimum sits
                # on it; the golden section's final midpoint may fall past it
                # (gain -inf), the grid section keeps its best reachable sample
                kinds["edge"] += 1
                assert got[1] >= want[1], triple
                continue
            worst_gain = max(worst_gain, abs(got[1] - want[1]))
        # no channel raises: unreachable angles drop out of both searches
        assert kinds["positive"] >= 50 and kinds["zero"] >= 50 and kinds["raised"] == 0, kinds
        assert kinds["edge"] <= 5, kinds
        assert worst_alpha <= 1e-6
        assert worst_gain <= 1e-12

    @pytest.mark.parametrize("mode", MODES)
    def test_noise_limit_matches_golden_section(self, mode):
        for t in LIMIT_TS:
            assert abs(positive_noise_limit(t, mode)
                       - golden_positive_noise_limit(t, mode)) <= 1e-5, t


class TestLinkModel:
    def test_zero_length_zero_darks(self):
        link = PhysicalLink(0.2, 1.0, 0.0, 0.18)
        epsilon, transmission = link_channels(link, 0.0)
        assert epsilon == 0.0
        assert transmission == pytest.approx(0.18 * 10 ** -0.1)

    def test_no_darks_means_no_noise_anywhere(self):
        link = PhysicalLink(0.2, 1.0, 0.0, 0.18)
        assert link_channels(link, 35.0)[0] == 0.0

    def test_kth_preset_at_20km(self):
        epsilon, transmission = link_channels(KTH_LINK, 20.0)
        # frozen from the closed form: att = 10^-0.5, e^-nu ~ 0.9998
        att = 10.0 ** -0.5
        survive = math.exp(-2e-4)
        t_expected = survive * (0.18 * att + 2e-4 * (1 - att))
        assert transmission == pytest.approx(t_expected, abs=1e-15)
        assert transmission == pytest.approx(0.057046, abs=1e-6)
        assert epsilon == pytest.approx(
            survive * 2e-4 * (1 - att) / t_expected, abs=1e-15)
        assert epsilon == pytest.approx(0.00239677241, abs=1e-9)

    def test_dead_link_rejected(self):
        with pytest.raises(DomainError):
            link_channels(PhysicalLink(0.2, 1.0, 0.0, 0.0), 10.0)


class TestBb84:
    def test_noiseless(self):
        rep = bb84_key_gain(0.4, 0.0)
        assert rep.gain == pytest.approx(0.2)
        assert not rep.saturated

    def test_saturation(self):
        rep = bb84_key_gain(0.001, 0.01)
        assert rep.saturated and rep.gain == 0.0

    def test_small_error_expansion(self):
        # gain falls below T/2 once darks contribute
        assert bb84_key_gain(0.4, 1e-3).gain < 0.2


def reference_sweep_point(link: PhysicalLink, length: float, alpha: float, mode: str):
    """One length of the sweep by scalar arithmetic: the link model, the B92
    gain through ``secret_key_gain`` and the BB84 gain, all with ``math``."""
    attenuation = 10.0 ** (-(length * link.channel_loss_db_km + link.receiver_loss_db) / 10.0)
    survive = math.exp(-link.dark_mean)
    signal = survive * link.det_efficiency * attenuation
    dark = survive * link.dark_mean * (1.0 - attenuation)
    transmission = signal + dark
    gain_b92 = secret_key_gain(alpha, ChannelTriple(0.0, dark / transmission, transmission),
                               mode).gain
    e = link.dark_mean / (2.0 * transmission)
    gain_bb84 = 0.0 if e >= 0.5 else 0.5 * transmission * (
        1.0 - math.log2(1.0 + 4.0 * e - 4.0 * e * e) - float(binary_entropy(e)))
    return gain_b92, gain_bb84


class TestDistanceSweep:
    def test_kth_comparison_shape(self):
        sweep = distance_sweep(KTH_LINK, np.linspace(0.0, 60.0, 13), 11 * DEG)
        assert sweep.gain_b92[0] > 0.0
        for b92, bb84 in zip(sweep.gain_b92, sweep.gain_bb84):
            assert b92 < bb84
        # the gain decays while positive (it dies past ~17 km on this link)
        b92 = sweep.gain_b92.tolist()
        positive = [g for g in b92 if g > 0.0]
        assert 2 <= len(positive) < len(b92)
        assert all(d < 0 for d in np.diff(positive))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("link, alpha_deg, lengths", (
        (KTH_LINK, 11.0, np.linspace(0.0, 60.0, 61)),
        (PhysicalLink(0.2, 1.0, 2e-4, 0.18), 30.0, np.linspace(0.0, 200.0, 21)),
        (PhysicalLink(0.35, 3.0, 1e-5, 0.6), 25.0, np.linspace(0.0, 150.0, 31)),
        # saturated BB84 rows far along a noisy link
        (PhysicalLink(0.5, 2.0, 1e-2, 0.1), 40.0, np.linspace(0.0, 80.0, 17))))
    def test_matches_the_scalar_reference_per_length(self, link, alpha_deg, lengths, mode):
        sweep = distance_sweep(link, lengths, alpha_deg * DEG, mode)
        assert sweep.length_km.tolist() == lengths.tolist()
        for k, length in enumerate(lengths.tolist()):
            gain_b92, gain_bb84 = reference_sweep_point(link, length, alpha_deg * DEG, mode)
            assert sweep.gain_b92[k] == pytest.approx(gain_b92, rel=1e-14, abs=0.0), length
            assert sweep.gain_bb84[k] == pytest.approx(gain_bb84, rel=1e-14, abs=0.0), length

    @pytest.mark.parametrize("lengths", ([-1.0], [0.0, math.nan], [10.0, -0.5]))
    def test_negative_or_nan_length_rejected(self, lengths):
        with pytest.raises(DomainError):
            distance_sweep(KTH_LINK, lengths, 11 * DEG)

    def test_dead_link_rejected(self):
        with pytest.raises(DegenerateLinkError):
            distance_sweep(PhysicalLink(0.2, 1.0, 0.0, 0.0), [0.0, 10.0], 11 * DEG)
