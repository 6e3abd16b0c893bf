"""Secret-key gain, angle optimization, link physics and the BB84 comparison.

The net key gain per pulse charges three costs against the conclusive
rate: privacy amplification of correct bits, privacy amplification of
flipped bits, and the encrypted error-correction redundancy h(e).  All
figures assume the analyzer matched to the signal angle (alpha' = alpha).

:func:`key_gains` computes the accounting over broadcast arrays of
(alpha, theta, eps, T), with Eve's bounds on correct and flipped bits from
one call of :func:`~b92sec.evebound.eve_bound`; :func:`secret_key_gain` is
its one-entry wrapper.  The batch calls take arrays and return arrays, and
each scalar call is a thin wrapper of one:

- :func:`optimal_angles` searches broadcast arrays of channels with one
  array call per step on all of them: at its default tolerance four calls,
  the coarse scan and three grid sections, so ``optangle`` searches its
  whole noise grid in four calls.  :func:`optimal_angle` is its one-row case.
- :func:`distance_sweep` is one array pass: :func:`link_channels` gives
  (eps, T) at every length, then one :func:`key_gains` call and one
  :func:`bb84_key_gain` call give the columns of a :class:`DistanceSweep`.

Each :func:`key_gains` call of the noise limit, on the coarse scan's 90
angles, answers up to three scan steps or three bisection levels ahead: 5
or 6 calls per limit for T from 0.05 to 1 at the default tolerance,
against 13 to 16 at one call per step, with the same result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import binary_entropy
from .errors import B92Error, DegenerateLinkError, DomainError, FirstFailure, require
from .estimation import ChannelTriple
from .evebound import OK, BoundArrays, collision_gain, eve_bound, shannon_gain

# information Eve draws from probe overlap q, by estimation mode
INFORMATION = {"collision": collision_gain, "shannon": shannon_gain}
MODES = tuple(INFORMATION)

# cells per grid-section step of the angle search; each step keeps the two
# cells beside the best sample, so the bracket narrows SECTIONS / 2 times
SECTIONS = 66
# sample numbers across a bracket, as a column
CELLS = np.arange(SECTIONS + 1.0)[:, None]
# the angle search's coarse scan: every whole degree in (0, pi/2]
COARSE = np.arange(1, 91) * math.pi / 180.0
# selects the correct-bit tilt (index 0) over the flipped-bit tilt
PAIR = np.array([True, False])


@dataclass(frozen=True)
class PhysicalLink:
    """Fiber-link hardware parameters; the fiber length is a sweep input.

    ``dark_mean`` is the mean dark count per pulse (detector dark rate
    times the resolution time); dark counts are Poissonian.
    """

    channel_loss_db_km: float
    receiver_loss_db: float
    dark_mean: float
    det_efficiency: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not value >= 0.0:  # NaN fails too
                raise DomainError(f"{name} must be non-negative: {value}")
        if self.det_efficiency > 1.0:
            raise DomainError("det_efficiency must not exceed 1")


# measured parameters of a deployed fiber testbed, used throughout as preset
KTH_LINK = PhysicalLink(channel_loss_db_km=0.2, receiver_loss_db=1.0, dark_mean=2e-4,
                        det_efficiency=0.18)

LINK_PRESETS = {"kth": KTH_LINK}


@dataclass(frozen=True)
class KeyGainReport:
    """Per-configuration record of the key-gain accounting (bits per pulse)."""

    alpha: float
    p_conc: float
    error_rate: float
    info_correct: float
    info_flipped: float
    gain_correct: float
    gain_flipped: float
    gain: float
    mode: str


@dataclass(frozen=True)
class KeyGains(FirstFailure):
    """Key-gain accounting over broadcast arrays (bits per pulse).

    ``bounds`` stacks Eve's bound on correct bits (index 0) over that on
    flipped bits (index 1).  ``failed`` marks the entries where
    :func:`secret_key_gain` raises: no conclusive events, an error rate of
    one, or a failed bound.  Their other fields carry no meaning.
    """

    p_conc: np.ndarray
    error_rate: np.ndarray
    info_correct: np.ndarray
    info_flipped: np.ndarray
    gain_correct: np.ndarray
    gain_flipped: np.ndarray
    gain: np.ndarray
    failed: np.ndarray
    bounds: BoundArrays

    def error(self, k: int) -> B92Error | None:
        """The exception the scalar call raises at flat entry ``k``, if any."""
        e = self.error_rate.flat[k]
        if not self.p_conc.flat[k] > 0.0:
            return DomainError("conclusive probability vanishes; key gain undefined")
        if not e < 1.0:
            return DomainError(f"error rate must be below 1: {e}")
        return self.bounds.error(k) or (self.bounds.error(self.p_conc.size + k)
                                        if e > 0.0 else None)


@np.errstate(divide="ignore", invalid="ignore")
def key_gains(alpha, theta, epsilon, transmission, mode: str = "collision") -> KeyGains:
    """Net secret-key gain per pulse over broadcast arrays of the channel.

    Out-of-range inputs, such as a transmission outside [0, 1] or NaN, and
    unknown modes raise :class:`DomainError`; a failing entry, such as one
    with T = 0, is marked in ``failed`` instead.
    """
    if mode not in INFORMATION:
        raise DomainError(f"unknown estimation mode: {mode!r}")
    alpha, theta, epsilon, transmission = (
        np.asarray(v, dtype=float) for v in (alpha, theta, epsilon, transmission))
    # eve_bound cannot check T: entries without conclusive events pass it a stand-in
    require(transmission, (0.0 <= transmission) & (transmission <= 1.0),
            "transmission outside [0, 1]")
    # Bob's conclusive outcomes on the symmetrized bit-0 signal: "0b" is an
    # error, "1b" a correct bit
    quarter, keep = 0.25 * transmission, 1.0 - epsilon
    p_error = quarter * np.maximum(0.0, 1.0 - keep * np.cos(theta))
    p_conc = p_error + quarter * np.maximum(0.0, 1.0 - keep * np.cos(2.0 * alpha + theta))
    e = p_error / p_conc
    defined = (p_conc > 0.0) & (e < 1.0)
    # flipped bits see the tilt -2 alpha - theta, stacked under theta on a new
    # leading axis; entries without conclusive events get no bound, so they
    # pass a valid stand-in transmission
    ndim = max(v.ndim for v in (alpha, theta, epsilon, transmission))
    tilts = np.where(PAIR.reshape((2,) + (1,) * ndim), theta, -2.0 * alpha - theta)
    bounds = eve_bound(alpha, alpha, tilts, epsilon, np.where(defined, transmission, 1.0))
    info = INFORMATION[mode](bounds.overlap_min)
    flipped = e > 0.0
    info_f = np.where(flipped, info[1], 0.0)
    gain_correct = p_conc * (1.0 - e) * (1.0 - info[0])
    gain_flipped = p_conc * e * (1.0 - info_f)
    failed = ~defined | (bounds.status[0] != OK) | (flipped & (bounds.status[1] != OK))
    return KeyGains(p_conc=p_conc, error_rate=e, info_correct=info[0], info_flipped=info_f,
                    gain_correct=gain_correct, gain_flipped=gain_flipped,
                    gain=gain_correct + gain_flipped - p_conc * binary_entropy(e),
                    failed=failed, bounds=bounds)


def secret_key_gain(alpha: float, triple: ChannelTriple,
                    mode: str = "collision") -> KeyGainReport:
    """Net secret-key gain per pulse for analyzer angle ``alpha`` (= alpha').

    The one-entry case of :func:`key_gains`, in the long-key limit: the
    conclusive rate and error rate follow from the channel triple; the leak
    estimates come from the overlap minimization (collision measure by
    default, Shannon with ``mode="shannon"``).
    """
    g = key_gains(alpha, triple.theta, triple.epsilon, triple.transmission, mode)
    g.check()
    return KeyGainReport(alpha=alpha, p_conc=float(g.p_conc), error_rate=float(g.error_rate),
                         info_correct=float(g.info_correct), info_flipped=float(g.info_flipped),
                         gain_correct=float(g.gain_correct), gain_flipped=float(g.gain_flipped),
                         gain=float(g.gain), mode=mode)


def noiseless_gain(alpha: float, transmission: float) -> float:
    """Closed form for the key gain on a lossy but noiseless channel.

    G = (T/4)(1 - cos 2a)[1 - log2(2 - ((cos a - 1 + T)/(T cos a))^2)].
    Valid where cos(alpha) >= 1 - T (otherwise loss alone hands Eve the
    full key and the general expression applies instead).
    """
    q = (math.cos(alpha) - 1.0 + transmission) / (transmission * math.cos(alpha))
    return (0.25 * transmission * (1.0 - math.cos(2.0 * alpha))
            * (1.0 - math.log2(2.0 - q * q)))


def _gains(alphas, theta, epsilon, transmission, mode: str) -> np.ndarray:
    """Key gain at each entry; -inf where the scalar call raises."""
    g = key_gains(alphas, theta, epsilon, transmission, mode)
    return np.where(g.failed, -math.inf, g.gain)


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tolerance must be finite and positive: {tol}")


def optimal_angles(theta, epsilon, transmission, mode: str = "collision",
                   tol: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Angle maximizing the key gain, and the gain there, for each channel.

    Each entry of the broadcast arrays (theta, eps, T) is one channel, and
    both results take their broadcast shape.  A
    90-point coarse scan over (0, pi/2] brackets each row's best degree (the
    gain is not concave near the full-information boundary, so the scan
    guards against the wrong basin).  Each grid-section step then samples
    ``SECTIONS + 1`` evenly spaced angles across every open row's bracket
    and keeps the two cells beside the row's best sample, until the bracket
    is no wider than ``tol``; from the 2-degree bracket at ``tol = 1e-6``
    that is three steps.  Every step is one :func:`key_gains` call over the
    rows still open, and a row gets the same numbers as on its own.  Angles
    where the channel is unreachable or the gain is undefined are skipped.
    Each row gets the best sampled angle and its gain, or (0, 0) when no
    angle yields positive gain, meaning the protocol cannot produce a key.
    It never raises :class:`UnreachableChannelError`: at pi/2 the target
    (cos alpha - (1 - T))/T <= 0 is always reachable.
    """
    _check_tol(tol)
    # angles run down axis 0 and channels along axis 1, one column per channel
    columns = np.broadcast_arrays(theta, epsilon, transmission)
    shape = columns[0].shape
    theta, epsilon, transmission = (c.ravel() for c in columns)
    gains = _gains(COARSE[:, None], theta, epsilon, transmission, mode)
    best = np.argmax(gains, axis=0)
    top = gains[best, np.arange(best.size)]
    keyed = top > 0.0
    alpha, gain = np.where(keyed, COARSE[best], 0.0), np.where(keyed, top, 0.0)
    lo = np.where(best > 0, COARSE[best - 1], COARSE[0] / 2.0)
    hi = COARSE[np.minimum(best + 1, COARSE.size - 1)]
    # the grid sections run on the rows still open: their row numbers, brackets
    # and channel columns
    live = np.flatnonzero(keyed & (hi - lo > tol))
    lo, hi = lo[live], hi[live]
    theta, epsilon, transmission = theta[live], epsilon[live], transmission[live]
    while live.size:
        # the samples of np.linspace(lo, hi, SECTIONS + 1), by the same
        # arithmetic without its per-call overhead
        grid = CELLS * ((hi - lo) / SECTIONS) + lo
        grid[-1] = hi
        gains = _gains(grid, theta, epsilon, transmission, mode)
        best, at = np.argmax(gains, axis=0), np.arange(live.size)
        alpha[live], gain[live] = grid[best, at], gains[best, at]
        new_lo = grid[np.maximum(best - 1, 0), at]
        new_hi = grid[np.minimum(best + 1, SECTIONS), at]
        # a bracket that does not move has cells below float resolution
        go_on = ((new_lo != lo) | (new_hi != hi)) & (new_hi - new_lo > tol)
        live, lo, hi = live[go_on], new_lo[go_on], new_hi[go_on]
        theta, epsilon, transmission = theta[go_on], epsilon[go_on], transmission[go_on]
    return alpha.reshape(shape), gain.reshape(shape)


def optimal_angle(triple: ChannelTriple, mode: str = "collision",
                  tol: float = 1e-6) -> tuple[float, float]:
    """Angle maximizing the key gain, and the gain there, for one channel.

    The one-row case of :func:`optimal_angles`: (0, 0) when no angle yields
    positive gain.
    """
    alpha, gain = optimal_angles(triple.theta, triple.epsilon, triple.transmission, mode, tol)
    return float(alpha), float(gain)


def positive_noise_limit(transmission: float, mode: str = "collision",
                         tol: float = 1e-5) -> float:
    """Noise rate at which the key gain's best whole-degree value changes sign.

    Scans eps upward in steps of 0.02 to bracket the sign change, then
    bisects.  Each step asks whether the 90 angles of the coarse scan of
    :func:`optimal_angles` give a positive gain; that search returns (0, 0)
    exactly when they do not.  One :func:`key_gains` call answers a batch
    of steps ahead: eps = 0 with the first three scan steps, the next three
    scan steps, or the 7 midpoints of the next three bisection levels, from
    the same ``0.5 * (lo + hi)`` arithmetic.  The steps then run in order,
    stop tests included, so the result is that of one call per step, in 5
    calls instead of 14 at T = 0.8 and the default ``tol``.  Returns 0 when
    even a noiseless channel yields nothing.  The optimized gain can stay
    positive a little past this crossing, where the best angle falls
    between whole degrees: against the maximum over a 200,000-point angle
    grid the crossing moved up by as much as 1.4e-5 (Shannon mode,
    T = 0.4), and the value returned at the default ``tol`` fell short of
    it by 1.1e-5.
    """
    _check_tol(tol)
    signs: dict[float, bool] = {}

    def positive(eps: float, lookahead) -> bool:
        # on a miss, one call over lookahead(): eps and the noise rates the
        # next steps may ask for
        if eps not in signs:
            batch = lookahead()
            gains = _gains(COARSE[:, None], 0.0, np.array(batch), transmission, mode)
            signs.update(zip(batch, (np.max(gains, axis=0) > 0.0).tolist()))
        return signs[eps]

    if not positive(0.0, lambda: [k / 50.0 for k in range(4)]):
        return 0.0
    lo, hi = 0.0, None
    for k in range(1, 51):
        eps = k / 50.0
        if not positive(eps, lambda: [j / 50.0 for j in range(k, min(k + 3, 51))]):
            hi = eps
            break
        lo = eps
    if hi is None:
        return 1.0
    mid = 0.5 * (lo + hi)
    while hi - lo > tol and lo < mid < hi:
        if positive(mid, lambda: _bisection_tree(lo, hi)):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def _bisection_tree(lo: float, hi: float) -> list[float]:
    """The 7 midpoints of the next three bisection levels of [lo, hi]."""
    edges = [lo, hi]
    for _ in range(3):
        edges = sorted(edges + [0.5 * (a + b) for a, b in zip(edges, edges[1:])])
    return edges[1:-1]


def link_channels(link: PhysicalLink, lengths_km) -> tuple[np.ndarray, np.ndarray]:
    """Noise rate and transmission (eps, T) through a fiber link, per length.

    T combines the attenuated signal with Poissonian dark counts that fire
    when the photon was lost; every dark-count click is unpolarized, which
    sets eps.
    """
    lengths = np.asarray(lengths_km, dtype=float)
    require(lengths, lengths >= 0.0, "length_km must be non-negative")
    attenuation = 10.0 ** (-(lengths * link.channel_loss_db_km + link.receiver_loss_db) / 10.0)
    survive = math.exp(-link.dark_mean)
    signal = survive * link.det_efficiency * attenuation
    dark = survive * link.dark_mean * (1.0 - attenuation)
    transmission = signal + dark
    if not (transmission > 0.0).all():
        raise DegenerateLinkError("link transmission is zero")
    return dark / transmission, transmission


@dataclass(frozen=True)
class Bb84Gain:
    """BB84 key gain, error rate and saturation flag over broadcast arrays."""

    gain: np.ndarray
    error_rate: np.ndarray
    saturated: np.ndarray


def bb84_key_gain(transmission, dark_mean) -> Bb84Gain:
    """Single-photon BB84 key gain with dark-count-dominated errors.

    G = (T/2)[1 - log2(1 + 4e - 4e^2) + e log2 e + (1-e) log2(1-e)] with
    e = dark_mean / (2T), over broadcast arrays.  Where e >= 1/2 the formula
    is void and the gain is reported as zero with the saturation flag set.
    A transmission that is not positive raises :class:`DomainError`.
    """
    transmission = np.asarray(transmission, dtype=float)
    require(transmission, transmission > 0.0, "transmission must be positive")
    e = dark_mean / (2.0 * transmission)
    saturated = e >= 0.5
    # saturated entries take the formula at e = 0, and gain 0 after it
    x = np.where(saturated, 0.0, e)
    gain = 0.5 * transmission * (1.0 - np.log2(1.0 + 4.0 * x - 4.0 * x * x) - binary_entropy(x))
    return Bb84Gain(np.where(saturated, 0.0, gain), e, saturated)


@dataclass(frozen=True)
class DistanceSweep:
    """Key gain of both protocols (bits per pulse), one entry per fiber length."""

    length_km: np.ndarray
    gain_b92: np.ndarray
    gain_bb84: np.ndarray


def distance_sweep(link: PhysicalLink, lengths_km, alpha: float,
                   mode: str = "collision") -> DistanceSweep:
    """Key gain of both protocols along a fiber, at a fixed signal angle.

    One array pass: :func:`link_channels` over the lengths, one
    :func:`key_gains` call and one :func:`bb84_key_gain` call.  A negative
    or NaN length raises :class:`DomainError`, a link without transmission
    :class:`DegenerateLinkError`, and a failed B92 entry its scalar error.
    """
    lengths = np.asarray(lengths_km, dtype=float)
    epsilon, transmission = link_channels(link, lengths)
    b92 = key_gains(alpha, 0.0, epsilon, transmission, mode)
    b92.check()
    return DistanceSweep(lengths, b92.gain, bb84_key_gain(transmission, link.dark_mean).gain)
