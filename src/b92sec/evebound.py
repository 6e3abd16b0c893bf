"""Eve's maximum information gain over the symmetrized channel.

The eavesdropper's probe states for the two key values have an overlap
Q = Tr[A xi], where xi is the orthogonal operator describing her probe
evolution, while unitarity of the joint interaction pins Tr[B xi] inside a
loss-widened band around cos(alpha').  Both A and B are real symmetric 2x2
matrices fixed by the channel triple.  Minimizing |Q| over the band gives
the largest information Eve can have extracted; the minimizers fall on a
small set of one-parameter stationary families, so the whole optimization
is closed-form.

The closed form runs over arrays.  :func:`eve_bound` takes broadcast
(alpha', alpha, theta, eps, T), builds A, B and the stationary families
once, with the 2x2 algebra written out, and returns for every entry the
minimum overlap, the regime that decided it (the free region, where the
overlap vanishes, or the family type1, type3+ or type3- whose root wins)
and a status (ok, unreachable, degenerate) in place of an exception.
:func:`eve_max_gain` and :func:`flipped_bit_gain` are one-entry wrappers
that raise a failed status as the matching exception.  The families need
det B != 0; since det B = -eps (1 - eps/2) / 2, they vanish only for
eps below about 2e-15, and there the eps = 0 formula
q = target / |cos(alpha + theta)| is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import binary_entropy
from .errors import (
    B92Error,
    DegenerateChannelError,
    DomainError,
    FirstFailure,
    UnreachableChannelError,
    require,
)

# floating-point grace on the reachability test
REACH_SLOP = 1e-9
# absolute fuzz when comparing the target against the zero-overlap limit;
# keeps exactly-orthogonal signals (cos(pi/2) ~ 1e-16 in floats) in the
# free region instead of dividing two rounding errors
FREE_SLOP = 1e-12
# below this |det B| the stationary families do not exist (noiseless channel)
DET_SLOP = 1e-15

# regime codes index FAMILIES
FAMILIES = ("free", "type1", "type3+", "type3-")
FREE, TYPE1, TYPE3P, TYPE3M = range(4)
OK, UNREACHABLE, DEGENERATE = range(3)


@dataclass(frozen=True)
class SymMat2:
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
    """A point on one of the stationary families of the constrained problem."""

    family: str  # "type1" | "type3+" | "type3-" | "free"
    eta: float


@dataclass(frozen=True)
class EveBoundResult:
    """Outcome of the overlap minimization for one channel.

    ``overlap_min`` is min |Q|; ``info_gain`` and ``info_gain_shannon`` are
    the corresponding information measures in bits (collision-probability
    and Shannon).  ``free_limit`` is the largest constraint value at which
    the overlap can be driven to zero, ``constraint_max`` the largest value
    reachable at all, and ``target`` the value Eve actually has to meet.
    """

    overlap_min: float
    free_limit: float
    constraint_max: float
    achieving: StationaryCandidate
    info_gain: float
    info_gain_shannon: float
    target: float


@dataclass(frozen=True)
class BoundArrays(FirstFailure):
    """Outcome of the overlap minimization over broadcast channel arrays.

    The fields match :class:`EveBoundResult`; ``regime`` indexes
    ``FAMILIES`` and ``eta`` is the minimizer's family parameter.
    ``status`` is OK, UNREACHABLE (the target exceeds ``constraint_max``
    and is kept unclipped) or DEGENERATE (singular probe matrices); the
    other fields of a failed entry carry no meaning.  ``free_limit`` and
    ``constraint_max`` do not depend on alpha' or T and keep the broadcast
    shape of (alpha, theta, eps); the other fields have the full shape.
    """

    overlap_min: np.ndarray
    free_limit: np.ndarray
    constraint_max: np.ndarray
    target: np.ndarray
    regime: np.ndarray
    eta: np.ndarray
    status: np.ndarray

    @property
    def failed(self) -> np.ndarray:
        return self.status != OK

    def error(self, k: int) -> B92Error | None:
        """The exception the scalar API raises for flat entry ``k``, if any."""
        status = self.status.flat[k]
        if status == UNREACHABLE:
            bmax = np.broadcast_to(self.constraint_max, self.status.shape).flat[k]
            return UnreachableChannelError(
                f"observed channel needs constraint value {self.target.flat[k]:.6f} "
                f"> maximum {bmax:.6f}")
        if status == DEGENERATE:
            return _singular_error()
        return None


def collision_gain(q):
    """Information gain (collision-probability measure) from probe overlap q."""
    return np.log2(2.0 - q * q)


def shannon_gain(q):
    """Information gain (Shannon measure) from probe overlap q."""
    return 1.0 - binary_entropy(0.5 * (1.0 - np.sqrt(np.maximum(0.0, 1.0 - q * q))))


def _singular(den):
    """Where A's common denominator leaves the probe matrices singular."""
    return den <= 1e-15


def _singular_error() -> DegenerateChannelError:
    return DegenerateChannelError(
        "probe matrices are singular (noiseless channel with 2*alpha + theta = 0)")


def _matrices(alpha, theta, epsilon) -> tuple[SymMat2, SymMat2, np.ndarray]:
    """A, B and A's common denominator, unchecked (see :func:`build_matrices`)."""
    half = alpha + 0.5 * theta
    sin2 = np.sin(half) ** 2
    tilt = 2.0 * alpha + theta
    # 1 - (1 - eps) cos(2 half), written without its cancellation near half = 0
    den = 2.0 * sin2 + epsilon * np.cos(tilt)
    two_eps = 2.0 - epsilon
    a = SymMat2(
        m11=two_eps * sin2 / den,
        m12=-np.sqrt(epsilon * two_eps) * np.sin(tilt) / (2.0 * den),
        m22=epsilon * np.cos(half) ** 2 / den,
    )
    full = alpha + theta
    cos_full = np.cos(full)
    half_eps = 0.5 * epsilon
    keep = 1.0 - half_eps
    b = SymMat2(
        m11=keep * cos_full,
        m12=np.sqrt(keep * 0.5 * epsilon) * np.sin(full),
        m22=-half_eps * cos_full,
    )
    return a, b, den


def build_matrices(alpha: float, theta: float, epsilon: float) -> tuple[SymMat2, SymMat2]:
    """Objective and constraint matrices (A, B) for the probe optimization.

    A is rank one with unit trace (it is the projector structure of the
    probe-overlap functional); B always has non-positive determinant.
    Requires 1 - (1 - eps) cos(2 alpha + theta) > 0, which fails only for a
    noiseless channel with 2 alpha + theta = 0.
    """
    require(epsilon, (0.0 <= epsilon) & (epsilon <= 1.0), "noise parameter outside [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b, den = _matrices(alpha, theta, epsilon)
    if _singular(den):
        raise _singular_error()
    return a, b


def constraint_max(b: SymMat2):
    """Largest value of Tr[B xi] over orthogonal xi.

    Equals sqrt((B11 - B22)^2 + 4 B12^2), the sum of B's singular values
    when its eigenvalues have opposite signs.
    """
    return _constraint_max(b.det(), b.m11 - b.m22, 2.0 * b.m12)


def _constraint_max(det_b, bc, bs):
    """:func:`constraint_max` from det B, B11 - B22 and 2 B12."""
    if np.any(det_b > 1e-12):
        raise DomainError("constraint matrix must have non-positive determinant")
    return np.hypot(bc, bs)


# --- stationary families ---------------------------------------------------------


@dataclass(frozen=True)
class Families:
    """The stationary families of |Q| under a fixed constraint value.

    type1 is xi = [[cos eta, sin eta], [sin eta, -cos eta]] on the probe
    block: Q = qc cos eta + qs sin eta and B = bc cos eta + bs sin eta, and
    the B amplitude equals the reachability limit, so it reaches every
    feasible target.  type3+- is xi = +-diag(1, cos eta) in the eigenbasis
    of the rank-1 projector P = (A - kappa B) / Tr(A - kappa B); with
    x = cos eta, Q = +-(a_p (1 - x) + x) and B = +-(b_p (1 - x) + x tr_b),
    where a_p = Tr[A P] and b_p = Tr[B P].  ``type3`` marks entries where P
    is numerically a projector; ``degenerate`` marks det B = 0 (a noiseless
    channel), where no family exists.  ``free_limit`` is the largest |B| on
    the zero set of Q over the families: the zero-overlap limit, 0 where
    degenerate.  ``bmax`` is the largest reachable |B|, the
    :func:`constraint_max` of B.

    The pure-rotation family is omitted: its interior points are never
    stationary for the full problem and its endpoints give |Q| = 1, so it
    cannot supply a minimum (this neglect is exercised against the oracle
    in the test suite).
    """

    qc: np.ndarray
    qs: np.ndarray
    bc: np.ndarray
    bs: np.ndarray
    a_p: np.ndarray
    b_p: np.ndarray
    tr_b: np.ndarray
    type3: np.ndarray
    degenerate: np.ndarray
    free_limit: np.ndarray
    bmax: np.ndarray


@np.errstate(divide="ignore", invalid="ignore")
def stationary_curves(a: SymMat2, b: SymMat2) -> Families:
    """All stationary families of |Q| for broadcast matrices (A, B).

    B must have non-positive determinant, as in :func:`constraint_max`.
    """
    det_b = np.asarray(b.det(), dtype=float)
    qc, qs, bc, bs = a.m11 - a.m22, 2.0 * a.m12, b.m11 - b.m22, 2.0 * b.m12
    bmax = _constraint_max(det_b, bc, bs)
    degenerate = np.abs(det_b) < DET_SLOP
    # kappa makes A - kappa B singular, since det A = 0
    kappa = (a.m11 * b.m22 + a.m22 * b.m11 - qs * b.m12) / det_b
    tr_b = b.m11 + b.m22
    trace = a.m11 + a.m22 - kappa * tr_b
    p11 = (a.m11 - kappa * b.m11) / trace
    p12 = (a.m12 - kappa * b.m12) / trace
    p22 = (a.m22 - kappa * b.m22) / trace
    # P's eigenvalues are mean -+ spread; both must lie in [0, 1]
    mean = 0.5 * (p11 + p22)
    spread = np.hypot(0.5 * (p11 - p22), p12)
    type3 = (~degenerate & (np.abs(trace) >= 1e-14)
             & (mean - spread >= -1e-9) & (mean + spread <= 1.0 + 1e-9))
    a_p = a.m11 * p11 + qs * p12 + a.m22 * p22
    b_p = b.m11 * p11 + bs * p12 + b.m22 * p22
    # type1: Q vanishes at eta = atan2(qs, qc) +- pi/2, where
    # |B| = |bs qc - bc qs| / hypot(qc, qs) on both roots
    limit = np.abs(bs * qc - bc * qs) / np.hypot(qc, qs)
    # type3: Q vanishes at x = -a_p / (1 - a_p)
    rest = 1.0 - a_p
    x = -a_p / rest
    on = type3 & (np.abs(rest) >= 1e-14) & (np.abs(x) <= 1.0)
    limit = np.maximum(limit, np.where(on, np.abs(b_p * (1.0 - x) + x * tr_b), 0.0))
    return Families(qc=qc, qs=qs, bc=bc, bs=bs, a_p=a_p, b_p=b_p, tr_b=tr_b, type3=type3,
                    degenerate=degenerate, free_limit=np.where(degenerate, 0.0, limit),
                    bmax=bmax)


def _clip1(x):
    return np.minimum(1.0, np.maximum(-1.0, x))


def _overlap(f: Families, t):
    """Minimum |Q| at constraint value 0 <= t <= f.bmax: (q, regime, eta).

    Below the zero-overlap limit the minimum is 0.  Above it the smallest
    |Q| over the families' roots wins, taken in the order type1 (two
    roots), type3+, type3-; a tie keeps the earlier root.  Degenerate
    entries take the eps = 0 closed form q = t / bmax.
    """
    # type1 roots: B = bmax cos(eta - shift) = t
    ratio = t / f.bmax
    shift = np.arctan2(f.bs, f.bc)
    d = np.arccos(_clip1(ratio))
    candidates = [(np.abs(f.qc * np.cos(eta) + f.qs * np.sin(eta)), eta, TYPE1)
                  for eta in (shift + d, shift - d)]
    # type3+- roots: B = +-(b_p (1 - x) + x tr_b) = t is affine in x = cos eta;
    # a family that misses t offers |Q| = inf
    den = f.tr_b - f.b_p
    type3 = f.type3 & (np.abs(den) >= 1e-14)
    for target, regime in ((t, TYPE3P), (-t, TYPE3M)):
        x = (target - f.b_p) / den
        on = type3 & (np.abs(x) <= 1.0 + 1e-9)
        x = _clip1(x)
        candidates.append((np.where(on, np.abs(f.a_p * (1.0 - x) + x), np.inf),
                           np.arccos(x), regime))
    q, eta, regime = candidates[0]
    for q_k, eta_k, regime_k in candidates[1:]:
        better = q_k < q
        q = np.where(better, q_k, q)
        eta = np.where(better, eta_k, eta)
        regime = np.where(better, regime_k, regime)
    q = np.where(f.degenerate, ratio, q)
    eta = np.where(f.degenerate, d, eta)
    free = t <= f.free_limit + FREE_SLOP
    return (np.where(free, 0.0, q), np.where(free, FREE, regime),
            np.where(free, 0.0, eta))


@np.errstate(divide="ignore", invalid="ignore")
def min_overlap_at(a: SymMat2, b: SymMat2, target):
    """Minimum |Q| subject to Tr[B xi] = target: (q, regime, eta) arrays.

    Even in the sign of the target (xi -> -xi flips both traces); below the
    zero-overlap limit the minimum is 0 (regime FREE), above it the best
    stationary-family root wins.
    """
    t = np.abs(target)
    f = stationary_curves(a, b)
    if np.any(t > f.bmax + REACH_SLOP):
        raise DomainError(f"constraint target {np.max(t):.6f} exceeds the maximum")
    return _overlap(f, np.minimum(t, f.bmax))


@np.errstate(divide="ignore", invalid="ignore")
def eve_bound(alpha_prime, alpha, theta, epsilon, transmission) -> BoundArrays:
    """Eve's maximum information gain on correct bits over broadcast arrays.

    Out-of-range inputs raise :class:`DomainError`; an unreachable or
    degenerate channel is reported in ``status`` instead.
    """
    alpha_prime, alpha, theta, epsilon, transmission = (
        np.asarray(v, dtype=float) for v in (alpha_prime, alpha, theta, epsilon, transmission))
    require(alpha_prime, (0.0 <= alpha_prime) & (alpha_prime <= math.pi / 2.0),
            "signal angle outside [0, pi/2]")
    require(alpha, np.isfinite(alpha), "analyzer angle not finite")
    require(theta, np.isfinite(theta), "tilt angle not finite")
    require(transmission, (0.0 < transmission) & (transmission <= 1.0),
            "transmission outside (0, 1]")
    require(epsilon, (0.0 <= epsilon) & (epsilon <= 1.0), "noise parameter outside [0, 1]")
    a, b, den = _matrices(alpha, theta, epsilon)
    f = stationary_curves(a, b)
    bmax = f.bmax
    # smallest |Tr[B xi]| compatible with the loss-widened unitarity band
    # |T Tr[B xi] - cos(alpha')| <= 1 - T; Eve prefers the value closest to 0
    lo = (np.cos(alpha_prime) - (1.0 - transmission)) / transmission
    unreachable = lo > bmax + REACH_SLOP
    t = np.minimum(lo, bmax)
    q, regime, eta = _overlap(f, t)
    status = np.where(~f.degenerate & _singular(den), DEGENERATE,
                      np.where(unreachable, UNREACHABLE, OK))
    return BoundArrays(overlap_min=q, free_limit=f.free_limit, constraint_max=bmax,
                       target=np.where(unreachable, lo, t), regime=regime, eta=eta,
                       status=status)


def _one(bound: BoundArrays) -> EveBoundResult:
    bound.check()
    q = float(bound.overlap_min)
    return EveBoundResult(
        overlap_min=q,
        free_limit=float(bound.free_limit),
        constraint_max=float(bound.constraint_max),
        achieving=StationaryCandidate(FAMILIES[int(bound.regime)], float(bound.eta)),
        info_gain=float(collision_gain(q)),
        info_gain_shannon=float(shannon_gain(q)),
        target=float(bound.target),
    )


def eve_max_gain(alpha_prime: float, alpha: float, triple) -> EveBoundResult:
    """Eve's maximum information gain on correct bits for one channel triple."""
    return _one(eve_bound(alpha_prime, alpha, triple.theta, triple.epsilon,
                          triple.transmission))


def flipped_bit_gain(alpha_prime: float, alpha: float, triple) -> EveBoundResult:
    """Eve's maximum information gain on flipped bits.

    Identical optimization with the tilt angle replaced by
    -2 alpha - theta, which exchanges the roles of the conclusive outcomes.
    """
    return _one(eve_bound(alpha_prime, alpha, -2.0 * alpha - triple.theta,
                          triple.epsilon, triple.transmission))
