"""Secret-key gain, angle optimization, link physics and the BB84 comparison.

The net key gain per pulse charges three costs against the conclusive
rate: privacy amplification of correct bits, privacy amplification of
flipped bits, and the encrypted error-correction redundancy h(e).  All
figures assume the analyzer matched to the signal angle (alpha' = alpha).

:func:`key_gains` computes the accounting over broadcast arrays of
(alpha, theta, eps, T), with the conclusive and error rates from
:func:`~b92sec.states.conclusive_rates` and Eve's bounds on correct and
flipped bits from :func:`~b92sec.evebound.eve_bound`'s arithmetic at both
tilts, and returns one :class:`KeyGains`.  It checks its inputs once, with
eve_bound's messages, under one ``np.errstate``, then runs the unchecked
:func:`_pass` under that errstate.  The pass is one body on evebound's two
kits, chosen by input type as eve_bound chooses: on the array kit it
stacks both tilts in one bound, and for one channel of Python ints and
floats the float kit runs the bound at each tilt.  Each field of a
one-channel result equals the channel's entry of an array call bit for
bit (``TestFloatPass`` in ``tests/test_evebound.py``).
:func:`secret_key_gain` is its one-entry wrapper: it returns the same
:class:`KeyGains` with fields of shape (), after raising the error of a
failed entry.  The searches check the mode, T, theta and eps once, in
key_gains' order and with its messages, then run every step on their own
angle grids through the unchecked pass, under one ``np.errstate``.  The
batch calls take arrays and return arrays, and each scalar call is a thin
wrapper of one:

- :func:`optimal_angles` searches broadcast arrays of channels with one
  array pass per step on all of them: four passes, the coarse scan and
  three grid sections, so ``optangle`` searches its whole noise grid in
  four passes.  :func:`optimal_angle` is its one-row case.
- :func:`distance_sweep` is one array pass: :func:`link_channels` gives
  (eps, T) at every length, then one :func:`key_gains` call and one
  :func:`bb84_key_gain` call give the two gain columns of a
  :class:`DistanceSweep`, in the order of the lengths passed in.

Each pass of the noise limit, on the coarse scan's 90 angles, answers up
to three scan steps or three bisection levels ahead: 5 or 6 passes per
limit for T from 0.05 to 1, against 13 to 16 at one pass per step, with
the same result.  Both searches run at one precision, the angle to within
1e-6 and the noise limit to within 1e-5, so each takes a fixed number of
steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import _entropy, binary_entropy
from .errors import B92Error, DegenerateLinkError, DomainError, FirstFailure, require
from .estimation import ChannelTriple
from .evebound import (_HALF_PI, _ZERO, ARRAY, FLOAT, OK, BoundArrays, _bound, _channel,
                       collision_gain, shannon_gain)
from .states import conclusive_rates

# information Eve draws from probe overlap q, by estimation mode
INFORMATION = {"collision": collision_gain, "shannon": shannon_gain}
MODES = tuple(INFORMATION)

# cells per grid-section step of the angle search; each step keeps the two
# cells beside the best sample, so the bracket narrows SECTIONS / 2 times
SECTIONS = 66
# grid-section steps: they narrow the coarse bracket, at most 2 degrees, to
# at most 9.7e-7
STEPS = 3
# bisection levels of the noise limit: 0.02 / 2**11 is below 1e-5
LEVELS = 11
# sample numbers across a bracket, as a column
CELLS = np.arange(SECTIONS + 1.0)[:, None]
# the angle search's coarse scan: every whole degree in (0, pi/2]
COARSE = np.arange(1, 91) * math.pi / 180.0
# the bracket around each coarse sample: its neighbours; below the first
# sample, half of it, and above the last, the last itself.  At pi/2 the
# signals are orthogonal and the gain is never positive, so no keyed row's
# best sample is the last, and no search reads ABOVE's last entry
BELOW = np.append(COARSE[0] / 2.0, COARSE[:-1])
ABOVE = np.append(COARSE[1:], COARSE[-1])
# the sample offsets of a grid-section bracket's ends
ENDS = np.array([[-1], [1]])
# 0-d array operands where the pass meets an input (see evebound's)
_SECTIONS, _MINUS_INF = (np.array(v) for v in (float(SECTIONS), -math.inf))


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
            require(value, value >= 0.0, f"{name} must be non-negative")  # NaN fails too
            require(value, value != math.inf, f"{name} must be finite")
        require(self.det_efficiency, self.det_efficiency <= 1.0,
                "det_efficiency must not exceed 1")


# measured parameters of a deployed fiber testbed, used throughout as preset
KTH_LINK = PhysicalLink(channel_loss_db_km=0.2, receiver_loss_db=1.0, dark_mean=2e-4,
                        det_efficiency=0.18)


@dataclass(frozen=True)
class KeyGains(FirstFailure):
    """Key-gain accounting over broadcast arrays (bits per pulse).

    ``bounds`` stacks Eve's bound on correct bits (index 0) over that on
    flipped bits (index 1).  ``failed`` marks the entries where
    :func:`secret_key_gain` raises: no conclusive events, an error rate of
    one, or an unreachable correct-bit bound.  Their other fields carry no
    meaning.

    The two bounds share one status, so only index 0's is read.  They have
    the same target, set by alpha' = alpha and T alone, and their reaches
    differ only in rounding: B's entries at the flipped tilt take cos and
    sin of -(alpha + theta), formed as alpha + (-2 alpha - theta).  At
    theta = 0 the reaches are equal; elsewhere they agree within about
    1e-12 relative, so the statuses could differ only for a target within
    that of the reach test's threshold, where either answer is a rounding
    call.
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
        return self.bounds.error(k)


def _checked(mode: str, alpha, theta, epsilon, transmission):
    """The information measure of ``mode``, and the inputs for one pass.

    Checks the mode, then T in [0, 1], alpha (unless it is None), theta and
    eps, with eve_bound's messages: entries without conclusive events pass
    the bound a stand-in T = 1, and every other entry has T > 0.  The
    inputs come back as Python floats for the float kit when each is a
    Python number, and as float arrays for the array kit otherwise; the
    checks are the same on both.
    """
    if mode not in INFORMATION:
        raise DomainError(f"unknown estimation mode: {mode!r}")
    alpha, theta, epsilon, transmission = _channel(alpha, theta, epsilon, transmission)
    require(transmission, (0.0 <= transmission) & (transmission <= 1.0),
            "transmission outside [0, 1]")
    if alpha is not None:
        require(alpha, (0.0 <= alpha) & (alpha <= _HALF_PI), "signal angle outside [0, pi/2]")
    require(theta, (-math.inf < theta) & (theta < math.inf), "tilt angle not finite")
    require(epsilon, (0.0 <= epsilon) & (epsilon <= 1.0), "noise parameter outside [0, 1]")
    return INFORMATION[mode], alpha, theta, epsilon, transmission


def _pass(alpha, theta, epsilon, transmission, information, kit=ARRAY) -> tuple:
    """:func:`key_gains`' arithmetic on inputs the caller has checked.

    Float arrays on the array kit, or one channel's Python floats on the
    float kit, under the caller's ``np.errstate``.  Returns the fields of
    :class:`KeyGains`, in order; on the float kit the rates come from
    :func:`conclusive_rates` as numpy scalars, which divide 0 by 0 into NaN,
    and ``bounds`` has shape (2,).
    """
    # p_conc >= p_error >= 0, so e lies in [0, 1], or is NaN where p_conc = 0;
    # e < 1 fails there as it does at e = 1
    p_error, p_conc = conclusive_rates(alpha, theta, epsilon, transmission)
    e = p_error / p_conc
    defined = e < 1.0
    # flipped bits see the tilt -2 alpha - theta; entries without conclusive
    # events get no bound, so they pass a valid stand-in transmission
    flip, stand_in = -2.0 * alpha - theta, kit.where(defined, transmission, 1.0)
    if kit is ARRAY:
        # both tilts in one bound, theta stacked over flip on a new leading axis
        ndim = max(alpha.ndim, theta.ndim, epsilon.ndim, transmission.ndim)
        tilts = np.empty((2,) + (1,) * (ndim - flip.ndim) + flip.shape)
        tilts[0], tilts[1] = theta, flip
        bounds = BoundArrays(*_bound(alpha, alpha, tilts, epsilon, stand_in, kit))
        info = information(bounds.overlap_min)
    else:
        # one bound per tilt, its fields stacked as the array kit stacks them
        pair = [_bound(alpha, alpha, tilt, epsilon, stand_in, kit) for tilt in (theta, flip)]
        bounds = BoundArrays(*map(np.array, zip(*pair)))
        info = [information(q) for q, *_ in pair]
    info_f = kit.where(e > 0.0, info[1], 0.0)
    gain_correct = p_conc * (1.0 - e) * (1.0 - info[0])
    gain_flipped = p_conc * e * (1.0 - info_f)
    failed = ~defined | (bounds.status[0] != OK)
    return (p_conc, e, info[0], info_f, gain_correct, gain_flipped,
            gain_correct + gain_flipped - p_conc * _entropy(e), failed, bounds)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def key_gains(alpha, theta, epsilon, transmission, mode: str = "collision") -> KeyGains:
    """Net secret-key gain per pulse over broadcast arrays of the channel.

    Out-of-range inputs, such as a transmission outside [0, 1] or NaN, and
    unknown modes raise :class:`DomainError`; a failing entry, such as one
    with T = 0, is marked in ``failed`` instead.  Every field is an
    ndarray.  One channel of Python numbers runs the float kit and gets
    fields of shape (), each equal bit for bit to that channel's entry of
    an array call.
    """
    information, *channel = _checked(mode, alpha, theta, epsilon, transmission)
    kit = FLOAT if isinstance(channel[1], float) else ARRAY
    # 0-d inputs and the float kit give numpy scalars; every field is an ndarray
    *fields, bounds = _pass(*channel, information, kit)
    return KeyGains(*map(np.asarray, fields), bounds)


def secret_key_gain(alpha: float, triple: ChannelTriple,
                    mode: str = "collision") -> KeyGains:
    """Net secret-key gain per pulse for analyzer angle ``alpha`` (= alpha').

    The one-entry case of :func:`key_gains`, in the long-key limit: the
    conclusive rate and error rate follow from the channel triple; the leak
    estimates come from the overlap minimization (collision measure by
    default, Shannon with ``mode="shannon"``).  Returns the :class:`KeyGains`
    of that one entry, with fields of shape (), after raising the error of a
    failed entry.
    """
    g = key_gains(alpha, triple.theta, triple.epsilon, triple.transmission, mode)
    g.check()
    return g


def _gains(alphas, theta, epsilon, transmission, information) -> np.ndarray:
    """Key gain at each entry of checked arrays; -inf where the scalar call raises.

    The searches' step: :func:`_pass` on their own angle grids, which have
    an axis, under the search's ``np.errstate``.
    """
    *_, gain, failed, _ = _pass(alphas, theta, epsilon, transmission, information)
    np.copyto(gain, _MINUS_INF, where=failed)
    return gain


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def optimal_angles(theta, epsilon, transmission,
                   mode: str = "collision") -> tuple[np.ndarray, np.ndarray]:
    """Angle maximizing the key gain, and the gain there, for each channel.

    Each entry of the broadcast arrays (theta, eps, T) is one channel, and
    both results take their broadcast shape.  A
    90-point coarse scan over (0, pi/2] brackets each row's best degree (the
    gain is not concave near the full-information boundary, so the scan
    guards against the wrong basin).  Each of ``STEPS`` grid-section steps
    then samples ``SECTIONS + 1`` evenly spaced angles across every keyed
    row's bracket and keeps the two cells beside the row's best sample: the
    bracket of at most 2 degrees ends no wider than 9.7e-7.  Every step is
    one pass of :func:`key_gains`' arithmetic over the keyed rows, after
    one check of the inputs, and a row gets the same numbers as on its
    own.  Angles where the channel is unreachable or the
    gain is undefined are skipped.  Each row gets the best sampled angle and
    its gain, or (0, 0) when no angle yields positive gain, meaning the
    protocol cannot produce a key; a call without such a row makes the
    coarse scan alone.  It never raises :class:`UnreachableChannelError`:
    at pi/2 the target (cos alpha - (1 - T))/T <= 0 is always reachable.
    """
    # angles run down axis 0 and channels along axis 1, one column per channel
    shape = np.broadcast(theta, epsilon, transmission).shape
    columns = np.empty((3,) + shape)
    columns[0], columns[1], columns[2] = theta, epsilon, transmission
    information, _, theta, epsilon, transmission = _checked(mode, None, *columns.reshape(3, -1))
    gains = _gains(COARSE[:, None], theta, epsilon, transmission, information)
    best, top = gains.argmax(axis=0), gains.max(axis=0)
    keyed = top > 0.0
    alpha, gain = np.where(keyed, COARSE[best], 0.0), np.where(keyed, top, 0.0)
    # the grid sections run on the keyed rows: their row numbers, brackets
    # and channel columns
    live = np.flatnonzero(keyed)
    if live.size:
        best = best[live]
        lo, hi = BELOW[best], ABOVE[best]
        theta, epsilon, transmission = theta[live], epsilon[live], transmission[live]
        at = np.arange(live.size)
        for _ in range(STEPS):
            # the samples of np.linspace(lo, hi, SECTIONS + 1), by the same
            # arithmetic without its per-call overhead
            grid = CELLS * ((hi - lo) / _SECTIONS) + lo
            grid[-1] = hi
            gains = _gains(grid, theta, epsilon, transmission, information)
            best = gains.argmax(axis=0)
            # the samples beside the best one, within the grid
            lo, hi = grid[np.minimum(np.maximum(best + ENDS, 0), SECTIONS), at]
        alpha[live], gain[live] = grid[best, at], gains[best, at]
    return alpha.reshape(shape), gain.reshape(shape)


def optimal_angle(triple: ChannelTriple, mode: str = "collision") -> tuple[float, float]:
    """Angle maximizing the key gain, and the gain there, for one channel.

    The one-row case of :func:`optimal_angles`: (0, 0) when no angle yields
    positive gain.
    """
    alpha, gain = optimal_angles(triple.theta, triple.epsilon, triple.transmission, mode)
    return float(alpha), float(gain)


def _keyed(epsilon, transmission, information) -> np.ndarray:
    """Whether some angle of the coarse scan gives a positive gain, per noise rate.

    Takes checked float arrays, under the caller's ``np.errstate``.
    """
    return _gains(COARSE[:, None], _ZERO, epsilon, transmission, information).max(axis=0) > 0.0


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def positive_noise_limit(transmission: float, mode: str = "collision") -> float:
    """Noise rate at which the key gain's best whole-degree value changes sign.

    Scans eps upward in steps of 0.02 to bracket the sign change, then
    bisects it ``LEVELS`` times, to a bracket below 1e-5.  Each step asks
    whether the 90 angles of the coarse scan of :func:`optimal_angles` give
    a positive gain; that search returns (0, 0) exactly when they do not.
    The mode and T are checked once; then one pass of :func:`key_gains`'
    arithmetic answers a batch of steps ahead: eps = 0 with the first
    three scan steps, the next three scan steps, or the 7 midpoints of the
    next three bisection levels, from the same ``0.5 * (lo + hi)``
    arithmetic.  The steps then run in order, so the result is that of one
    pass per step, in 5 passes instead of 14 at T = 0.8.  Returns 0 when
    even a noiseless channel yields nothing, and 1 when every scan step
    keeps a key.  The optimized gain can stay positive a little past this
    crossing, where the best angle falls between whole degrees: against
    the maximum over a 200,000-point angle grid the crossing moved up by as
    much as 1.4e-5 (Shannon mode, T = 0.4), and the value returned fell
    short of it by 1.1e-5.
    """
    # the tilt is 0 and the noise rates are the scan's own
    information, *_, transmission = _checked(mode, None, 0.0, 0.0, transmission)
    # scan steps k / 50, k = 0 to 50: k = 0 to 3 in the first pass, then three a pass
    for batch in (range(4), *(range(k, min(k + 3, 51)) for k in range(4, 51, 3))):
        keyed = _keyed(np.array(batch) / 50.0, transmission, information)
        if not keyed.all():
            k = batch[np.argmin(keyed)]
            if k == 0:
                return 0.0
            lo, hi = (k - 1) / 50.0, k / 50.0
            break
    else:
        return 1.0
    # bisection: the 9 edges of three levels below [lo, hi], walked by index
    for level in range(0, LEVELS, 3):
        edges = _bisection_tree(lo, hi)
        keyed = _keyed(np.array(edges[1:-1]), transmission, information)
        i, j = 0, len(edges) - 1
        for _ in range(min(3, LEVELS - level)):
            mid = (i + j) // 2
            if keyed[mid - 1]:
                i = mid
            else:
                j = mid
        lo, hi = edges[i], edges[j]
    return 0.5 * (lo + hi)


def _bisection_tree(lo: float, hi: float) -> list[float]:
    """[lo, hi] and the 7 midpoints of its next three bisection levels, sorted."""
    edges = [lo, hi]
    for _ in range(3):
        edges = sorted(edges + [0.5 * (a + b) for a, b in zip(edges, edges[1:])])
    return edges


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


def bb84_key_gain(transmission, dark_mean) -> np.ndarray:
    """Single-photon BB84 key gain with dark-count-dominated errors.

    G = (T/2)[1 - log2(1 + 4e - 4e^2) + e log2 e + (1-e) log2(1-e)] with
    e = dark_mean / (2T), over broadcast arrays.  Where e >= 1/2 the formula
    is void and the gain is reported as zero.
    A transmission that is not positive raises :class:`DomainError`.
    """
    transmission = np.asarray(transmission, dtype=float)
    require(transmission, transmission > 0.0, "transmission must be positive")
    e = dark_mean / (2.0 * transmission)
    saturated = e >= 0.5
    # saturated entries take the formula at e = 0, and gain 0 after it
    x = np.where(saturated, 0.0, e)
    gain = 0.5 * transmission * (1.0 - np.log2(1.0 + 4.0 * x - 4.0 * x * x) - binary_entropy(x))
    return np.where(saturated, 0.0, gain)


@dataclass(frozen=True)
class DistanceSweep:
    """Key gain of both protocols (bits per pulse), one entry per fiber length."""

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
    epsilon, transmission = link_channels(link, lengths_km)
    b92 = key_gains(alpha, 0.0, epsilon, transmission, mode)
    b92.check()
    return DistanceSweep(b92.gain, bb84_key_gain(transmission, link.dark_mean))
