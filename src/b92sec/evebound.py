"""Eve's maximum information gain over the symmetrized channel.

The eavesdropper's probe states for the two key values have an overlap
Q = Tr[A xi], where xi is the orthogonal operator describing her probe
evolution, while unitarity of the joint interaction pins Tr[B xi] inside a
loss-widened band around cos(alpha').  Both A and B are real symmetric 2x2
matrices fixed by the channel triple.  Minimizing |Q| over the band gives
the largest information Eve can have extracted; the minimizers fall on a
small set of one-parameter stationary families, so the whole optimization
is closed-form.  Each family's minimum is algebraic in the constraint
value: type3's roots are affine in it, and type1's smaller root is one
expression in the dot and cross products of the traceless parts of A and
B, with no angle formed.

The closed form is written once and runs over arrays or over one
channel's floats.  :func:`eve_bound` takes broadcast (alpha', alpha,
theta, eps, T), builds A, B and the stationary families once, with the
2x2 algebra written out, and returns for every entry the minimum overlap,
the regime that decided it (the free region, where the overlap vanishes,
or the family type1 or type3 whose root wins) and a status (ok or
unreachable) in place of an exception.  A minimizer is reported by its
family alone, which :func:`eve_max_gain` names in ``achieving``.  The
inputs are checked once, at :func:`eve_bound` or at
:func:`~b92sec.keyrate.key_gains`; the body after the checks checks
nothing.  That body, :func:`_matrices`, :func:`_families`,
:func:`_overlap` and :func:`_bound`, takes one of two kits of operations,
chosen by input type.  Arrays, 0-d ones and numpy scalars other than
np.float64 included, run the array kit ``ARRAY``, numpy's own functions,
under ``np.errstate(divide="ignore", over="ignore", invalid="ignore")``,
which its caller opens.  One channel of Python ints and floats
(np.float64 is one) runs the float kit ``FLOAT`` on Python floats,
without numpy's per-call price on every quantity and outside any
errstate: :func:`_div` opens one for the divisions it hands numpy, by a
zero divisor.  The same statements in the same order make each field of
a one-channel result equal the channel's entry of an array call bit for
bit, which ``TestFloatPass`` in ``tests/test_evebound.py`` checks over the
whole domain, for the families and the overlap as for the results.
:func:`eve_max_gain` is the one-entry wrapper that raises an unreachable
status as :class:`UnreachableChannelError`; Eve's bound on flipped bits is
the same bound at the tilt -2 alpha - theta, which
:func:`~b92sec.keyrate.key_gains` stacks under theta on the array kit and
runs as a second bound on the float kit.
:func:`full_info_region` is one :func:`eve_bound` call over an (alpha, eps)
grid at theta = 0, marking where the overlap vanishes.  The families
answer every channel, the noiseless ones included: there
det B = -eps (1 - eps/2) / 2 = 0, type3 has no root,
and type1's candidate reduces to the eps = 0 closed form
q = target / |cos(alpha + theta)|.  The one channel where A is 0/0, eps = 0
with 2 alpha + theta = 0, takes A = diag(1, 0), its value at every other
noiseless channel.

The analyzer angle alpha lies in [0, pi/2], as the signal angle alpha' does,
and no channel is lost by it.  The map (alpha, theta) -> (pi - alpha, -theta)
sends (A, B) to (D A D, -D B D) with D = diag(1, -1): the half angle
alpha + theta/2 and the tilt 2 alpha + theta go to pi and 2 pi minus
themselves, which keeps A11, A22 and A's denominator and flips A12, while
alpha + theta goes to pi minus itself, which flips B11 and B22 and keeps
B12.  xi -> D xi D keeps xi orthogonal, so the mirrored channel meets the
target -t where this one meets t; the problem is even in the target, so
both channels have one bound.  The mirror also swaps the two signs of the
rank-1 family: xi = diag(1, cos eta) of one channel is
xi = -diag(1, cos eta) of the other, which is the first family at the
target -t.  Only the first sign, type3, is kept.  Over seeded draws of the
whole domain with alpha in [0, pi/2] the second sign never undercut
min(type1, type3) by more than rounding (the sweep in
``tests/test_evebound.py``; there is no proof).  With alpha past pi/2 it
does, by up to 0.8 in q: there it is the mirrored channel's type3 root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .entropy import _entropy
from .errors import FirstFailure, UnreachableChannelError, require

# floating-point grace on the reachability test
REACH_SLOP = 1e-9
# absolute fuzz when comparing the target against the zero-overlap limit;
# keeps exactly-orthogonal signals (cos(pi/2) ~ 1e-16 in floats) in the
# free region instead of dividing two rounding errors
FREE_SLOP = 1e-12

# regime codes index FAMILIES
FAMILIES = ("free", "type1", "type3")
FREE, TYPE1, TYPE3 = range(3)
OK, UNREACHABLE = range(2)

# 0-d array operands: with them the conclusive rates of one channel's Python
# floats are numpy scalars, which divide 0 by 0 into NaN where Python raises,
# and the key-gain search's tilt of 0 has an ndim
_ZERO, _ONE, _TWO = (np.array(v) for v in (0.0, 1.0, 2.0))
_HALF_PI = math.pi / 2.0


class SymMat2(NamedTuple):
    """Real symmetric 2x2 matrix; the entries may be broadcast arrays."""

    m11: float
    m12: float
    m22: float

    def trace(self):
        return self.m11 + self.m22

    def det(self):
        return self.m11 * self.m22 - self.m12 * self.m12


@dataclass(frozen=True)
class StationaryCandidate:
    """The stationary family, or the free region, that decided a bound."""

    family: str  # "free" | "type1" | "type3"


@dataclass(frozen=True)
class EveBoundResult:
    """Outcome of the overlap minimization for one channel.

    ``overlap_min`` is min |Q|; ``info_gain`` and ``info_gain_shannon`` are
    the corresponding information measures in bits (collision-probability
    and Shannon), computed from it when read, as Python floats.
    ``achieving`` names the regime that decided the bound; the constraint
    values behind it are :class:`BoundArrays` fields.
    """

    overlap_min: float
    achieving: StationaryCandidate

    @property
    def info_gain(self) -> float:
        return float(collision_gain(self.overlap_min))

    @property
    def info_gain_shannon(self) -> float:
        return float(shannon_gain(self.overlap_min))


@dataclass(frozen=True)
class BoundArrays(FirstFailure):
    """Outcome of the overlap minimization over broadcast channel arrays.

    ``overlap_min`` is min |Q|; ``regime`` indexes ``FAMILIES``, the
    family whose root decided the entry.  ``free_limit`` is the largest
    constraint value at which the overlap can be driven to zero,
    ``constraint_max`` the largest value reachable at all, and ``target``
    the value Eve actually has to meet, or 0 where that value is negative
    and so free.  ``status`` is OK or UNREACHABLE
    (the target exceeds ``constraint_max`` and is kept unclipped); the
    other fields of an unreachable entry carry no meaning.  ``free_limit``
    and ``constraint_max`` do not depend on alpha' or T and keep the
    broadcast shape of (alpha, theta, eps); the other fields have the full
    shape.
    """

    overlap_min: np.ndarray
    free_limit: np.ndarray
    constraint_max: np.ndarray
    target: np.ndarray
    regime: np.ndarray
    status: np.ndarray

    @property
    def failed(self) -> np.ndarray:
        return self.status != OK

    def error(self, k: int) -> UnreachableChannelError | None:
        """The exception the scalar API raises for flat entry ``k``, if any."""
        if self.status.flat[k] != UNREACHABLE:
            return None
        bmax = np.broadcast_to(self.constraint_max, self.status.shape).flat[k]
        return UnreachableChannelError(
            f"observed channel needs constraint value {self.target.flat[k]:.6f} "
            f"> maximum {bmax:.6f}")


def collision_gain(q):
    """Information gain (collision-probability measure) from probe overlap q."""
    return np.log2(2.0 - q * q)


def shannon_gain(q):
    """Information gain (Shannon measure) from probe overlap q."""
    # the entropy's argument lies in [0, 1/2] for every q, or is NaN
    return 1.0 - _entropy(0.5 * (1.0 - np.sqrt(np.maximum(0.0, 1.0 - q * q))))


def _div(x: float, y: float) -> float:
    """x / y on Python floats, with numpy's inf or NaN where y is 0.

    numpy divides only where y is 0, under its own
    ``np.errstate(divide="ignore", invalid="ignore")``.
    """
    if y:
        return x / y
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.float64(x) / y)


# The operations the bound's one body takes from its kit.  ARRAY is numpy's
# own.  FLOAT runs one channel of Python floats: numpy's sin, cos and hypot
# (``math``'s can round differently) returned as floats, _div where a divisor
# can vanish, and Python's max and min, which return what numpy's do here:
# where their first operand is NaN both give NaN, and no second operand is.
# Squares are x * x in the body, which is what ** 2 runs on an array; on a
# numpy scalar ** 2 is C pow, which can round differently.
ARRAY = SimpleNamespace(sin=np.sin, cos=np.cos, hypot=np.hypot, sqrt=np.sqrt, div=np.divide,
                        where=np.where, maximum=np.maximum, minimum=np.minimum)
FLOAT = SimpleNamespace(sin=lambda x: float(np.sin(x)), cos=lambda x: float(np.cos(x)),
                        hypot=lambda x, y: float(np.hypot(x, y)), sqrt=math.sqrt, div=_div,
                        where=lambda ok, x, y: x if ok else y, maximum=max, minimum=min)


def _matrices(alpha, theta, epsilon, kit=ARRAY) -> tuple[SymMat2, SymMat2, np.ndarray]:
    """A, B and A's common denominator, unchecked (see :func:`build_matrices`)."""
    half = alpha + 0.5 * theta
    sin_half, cos_half = kit.sin(half), kit.cos(half)
    sin2 = sin_half * sin_half
    tilt = 2.0 * alpha + theta
    # 1 - (1 - eps) cos(2 half), written without its cancellation near half = 0
    den = 2.0 * sin2 + epsilon * kit.cos(tilt)
    two_eps = 2.0 - epsilon
    # den = 0 only at eps = 0 with a zero tilt, where A is 0/0; adding 1 to den
    # and to A11's numerator there gives A = diag(1, 0), its value at every
    # other noiseless channel, and adds 0 everywhere else
    one = den == 0.0
    a_den = den + one
    a = SymMat2((two_eps * sin2 + one) / a_den,
                -kit.sqrt(epsilon * two_eps) * kit.sin(tilt) / (2.0 * a_den),
                epsilon * (cos_half * cos_half) / a_den)
    full = alpha + theta
    cos_full = kit.cos(full)
    half_eps = 0.5 * epsilon
    keep = 1.0 - half_eps
    b = SymMat2(keep * cos_full, kit.sqrt(keep * 0.5 * epsilon) * kit.sin(full),
                -half_eps * cos_full)
    return a, b, den


def build_matrices(alpha, theta, epsilon) -> tuple[SymMat2, SymMat2]:
    """Objective and constraint matrices (A, B) for the probe optimization.

    A is rank one with unit trace (it is the projector structure of the
    probe-overlap functional); B always has non-positive determinant.  A's
    denominator 1 - (1 - eps) cos(2 alpha + theta) vanishes only for a
    noiseless channel with 2 alpha + theta = 0, where A is 0/0 and takes
    diag(1, 0), its value at every other noiseless channel.  The analyzer
    angle alpha lies in [0, pi/2] (see the module docstring).  By
    :func:`eve_bound`'s rule, one channel of Python ints and floats runs
    the float kit and gets Python float entries, equal bit for bit to an
    array call's; arrays, 0-d ones and other numpy scalars included, run
    the array kit and get float arrays or numpy scalars.
    """
    alpha, theta, epsilon = _channel(alpha, theta, epsilon)
    require(alpha, (0.0 <= alpha) & (alpha <= _HALF_PI), "analyzer angle outside [0, pi/2]")
    require(theta, (-math.inf < theta) & (theta < math.inf), "tilt angle not finite")
    require(epsilon, (0.0 <= epsilon) & (epsilon <= 1.0), "noise parameter outside [0, 1]")
    a, b, _ = _matrices(alpha, theta, epsilon, FLOAT if isinstance(theta, float) else ARRAY)
    return a, b


# --- stationary families ---------------------------------------------------------


class Families(NamedTuple):
    """The stationary families of |Q| under a fixed constraint value.

    type1 is xi = [[cos eta, sin eta], [sin eta, -cos eta]] on the probe
    block: Q = qc cos eta + qs sin eta and B = bc cos eta + bs sin eta, and
    the B amplitude equals the reachability limit, so it reaches every
    feasible target.  (qc, qs) and (bc, bs) are the traceless parts of A
    and B; (qc, qs) is a unit vector, since A is a rank-1 projector.
    type3 is xi = diag(1, cos eta) in the eigenbasis of the rank-1
    projector P = (A - kappa B) / Tr(A - kappa B); with x = cos eta,
    Q = a_p (1 - x) + x and B = b_p (1 - x) + x tr_b, where a_p = Tr[A P]
    and b_p = Tr[B P].  Its mirror xi = -diag(1, cos eta) is type3 at the
    target -t, which no analyzer angle in [0, pi/2] needs (see the module
    docstring).  ``type3`` marks entries where P exists: Tr(A - kappa B)
    is not lost to rounding.  At det B = 0 (a noiseless channel) kappa is
    infinite or NaN, so a_p, b_p and type3's zero are NaN and type3 offers
    nothing; type1 alone answers there.
    ``cross`` is |bs qc - bc qs|, the size of the cross product of the
    traceless parts.  ``free_limit`` is the largest |B| on the zero set of
    Q over the families: the zero-overlap limit.  ``bmax`` is the largest
    reachable |B|, sqrt((B11 - B22)^2 + 4 B12^2): the sum of B's singular
    values, since its determinant is not positive.

    The pure-rotation family is omitted: its interior points are never
    stationary for the full problem and its endpoints give |Q| = 1, so it
    cannot supply a minimum (this neglect is exercised against the oracle
    in the test suite).
    """

    qc: np.ndarray
    qs: np.ndarray
    bc: np.ndarray
    bs: np.ndarray
    cross: np.ndarray
    a_p: np.ndarray
    b_p: np.ndarray
    tr_b: np.ndarray
    type3: np.ndarray
    free_limit: np.ndarray
    bmax: np.ndarray


def _families(a: SymMat2, b: SymMat2, kit=ARRAY) -> Families:
    """All stationary families of |Q| for matrices (A, B), unchecked.

    A must have det A = 0, as :func:`build_matrices` gives; the type3
    projector relies on it.  B must have non-positive determinant, as
    every B of :func:`build_matrices` has.  On the array kit, run under
    ``np.errstate(divide="ignore", over="ignore", invalid="ignore")``: a
    noiseless channel divides by det B = 0, and eps near 1e-320 at the tilt
    2 alpha + theta = 0 overflows kappa.
    """
    (a11, a12, a22), (b11, b12, b22) = a, b
    qc, qs, bc, bs = a11 - a22, 2.0 * a12, b11 - b22, 2.0 * b12
    bmax = kit.hypot(bc, bs)
    # kappa makes A - kappa B singular, since det A = 0
    kappa = kit.div(a11 * b22 + a22 * b11 - qs * b12, b11 * b22 - b12 * b12)
    tr_b = b11 + b22
    trace = a11 + a22 - kappa * tr_b
    p11 = kit.div(a11 - kappa * b11, trace)
    p12 = kit.div(a12 - kappa * b12, trace)
    p22 = kit.div(a22 - kappa * b22, trace)
    # A - kappa B is singular, so P is rank one with unit trace: a projector by
    # construction, whose eigenvalues need no test.  A trace lost to rounding
    # (A nearly a multiple of B, as for theta near pi with eps near 1e-15)
    # leaves P with no correct digit, so such entries get no type3 root
    type3 = abs(trace) >= 1e-14
    a_p = a11 * p11 + qs * p12 + a22 * p22
    b_p = b11 * p11 + bs * p12 + b22 * p22
    # type1: Q vanishes at eta = atan2(qs, qc) +- pi/2, where
    # |B| = |bs qc - bc qs| / hypot(qc, qs) on both roots
    cross = abs(bs * qc - bc * qs)
    limit = cross / kit.hypot(qc, qs)
    # type3: Q vanishes at x = -a_p / (1 - a_p)
    x = kit.div(-a_p, 1.0 - a_p)
    on = type3 & (abs(x) <= 1.0)
    limit = kit.maximum(limit, kit.where(on, abs(b_p * (1.0 - x) + x * tr_b), 0.0))
    return Families(qc, qs, bc, bs, cross, a_p, b_p, tr_b, type3, limit, bmax)


def _overlap(f: Families, t, kit=ARRAY):
    """Minimum |Q| at constraint value 0 <= t <= f.bmax: (q, regime).

    Below the zero-overlap limit the minimum is 0.  Above it the smaller
    |Q| of the type1 and type3 roots wins; a tie keeps type1.  type1's two
    roots give Q = (t P +- sqrt(bmax^2 - t^2) R) / bmax^2, with
    P = qc bc + qs bs and R = qs bc - qc bs the dot and cross products of
    the traceless parts of A and B, so its candidate is the smaller one in
    size, | |t P| - sqrt(bmax^2 - t^2) |R| | / bmax^2.
    At eps = 0, R = 0 and this is the noiseless closed form q = t / bmax.
    """
    qc, qs, bc, bs, cross, a_p, b_p, tr_b, type3, limit, bmax = f
    # type1: the roots of B = t put (cos eta, sin eta) at
    # (t b +- sqrt(bmax^2 - t^2) b_perp) / bmax^2, b = (bc, bs), b_perp = (-bs, bc)
    dot = qc * bc + qs * bs
    side = kit.sqrt((bmax - t) * (bmax + t))
    q1 = kit.div(abs(abs(t * dot) - side * cross), bmax * bmax)
    # type3's root: B = b_p (1 - x) + x tr_b = t is affine in x = cos eta;
    # where the family misses t it offers nothing
    x = kit.div(t - b_p, tr_b - b_p)
    on = type3 & (abs(x) <= 1.0 + 1e-9)
    x = kit.minimum(kit.maximum(x, -1.0), 1.0)
    q3 = abs(a_p * (1.0 - x) + x)
    better = on & (q3 < q1)
    free = t <= limit + FREE_SLOP
    return (kit.where(free, 0.0, kit.where(better, q3, q1)),
            kit.where(free, FREE, kit.where(better, TYPE3, TYPE1)))


def _bound(alpha_prime, alpha, theta, epsilon, transmission, kit) -> tuple:
    """:func:`eve_bound`'s arithmetic on inputs the caller has checked.

    Returns the fields of :class:`BoundArrays`, in order.  Float arrays on
    the array kit, under the caller's
    ``np.errstate(divide="ignore", over="ignore", invalid="ignore")``; one
    channel's Python floats on the float kit, which needs no errstate and
    gives Python numbers.
    """
    a, b, _ = _matrices(alpha, theta, epsilon, kit)
    f = _families(a, b, kit)
    bmax = f.bmax
    # smallest |Tr[B xi]| compatible with the loss-widened unitarity band
    # |T Tr[B xi] - cos(alpha')| <= 1 - T; Eve prefers the value closest to 0
    lo = (kit.cos(alpha_prime) - (1.0 - transmission)) / transmission
    unreachable = lo > bmax + REACH_SLOP
    # a negative target is free, since the band reaches 0; bounding it by 0
    # keeps _overlap from squaring one near -1/T, which overflows for tiny T
    t = kit.maximum(kit.minimum(lo, bmax), 0.0)
    q, regime = _overlap(f, t, kit)
    return (q, f.free_limit, bmax, kit.where(unreachable, lo, t), regime,
            kit.where(unreachable, UNREACHABLE, OK))


def _channel(*values) -> list:
    """The inputs of one channel as Python floats, or of many as float arrays.

    Python floats, for the float kit, when every value is a Python int or
    float (np.float64 is one); float arrays, for the array kit, otherwise.
    None passes as None.
    """
    if all(isinstance(v, (int, float)) for v in values):
        return [float(v) for v in values]
    return [v if v is None else np.asarray(v, dtype=float) for v in values]


def eve_bound(alpha_prime, alpha, theta, epsilon, transmission) -> BoundArrays:
    """Eve's maximum information gain on correct bits over broadcast arrays.

    Out-of-range inputs raise :class:`DomainError`; an unreachable channel
    is reported in ``status`` instead.  Every field is an ndarray.  One
    channel of Python numbers runs the float kit and gets fields of shape
    (), each equal bit for bit to that channel's entry of an array call.
    """
    channel = _channel(alpha_prime, alpha, theta, epsilon, transmission)
    alpha_prime, alpha, theta, epsilon, transmission = channel
    require(alpha_prime, (0.0 <= alpha_prime) & (alpha_prime <= _HALF_PI),
            "signal angle outside [0, pi/2]")
    require(alpha, (0.0 <= alpha) & (alpha <= _HALF_PI), "analyzer angle outside [0, pi/2]")
    require(theta, (-math.inf < theta) & (theta < math.inf), "tilt angle not finite")
    require(transmission, (0.0 < transmission) & (transmission <= 1.0),
            "transmission outside (0, 1]")
    require(epsilon, (0.0 <= epsilon) & (epsilon <= 1.0), "noise parameter outside [0, 1]")
    if isinstance(theta, float):
        bound = _bound(*channel, FLOAT)
    else:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            bound = _bound(*channel, ARRAY)
    # 0-d inputs give numpy scalars in places; every field is an ndarray
    return BoundArrays(*map(np.asarray, bound))


def full_info_region(alpha_grid, eps_grid, transmission: float) -> np.ndarray:
    """Boolean matrix over (alpha, eps): True where Eve's gain is unity.

    Entry [i, j] refers to alpha_grid[i], eps_grid[j], with the analyzer
    matched to the signal angle and theta = 0.  Every entry is reachable
    there: the target (cos alpha - (1 - T)) / T is at most cos alpha, which
    B reaches, so no entry can fail.
    """
    alphas = np.asarray(alpha_grid, dtype=float)[:, np.newaxis]
    return eve_bound(alphas, alphas, 0.0, eps_grid, transmission).overlap_min <= 1e-9


def eve_max_gain(alpha_prime: float, alpha: float, triple) -> EveBoundResult:
    """Eve's maximum information gain on correct bits for one channel triple."""
    bound = eve_bound(alpha_prime, alpha, triple.theta, triple.epsilon, triple.transmission)
    bound.check()
    return EveBoundResult(overlap_min=float(bound.overlap_min),
                          achieving=StationaryCandidate(FAMILIES[int(bound.regime)]))
