"""Exact verification oracle for the overlap minimization, by Lagrange duality.

Independent of the stationary-family analysis: the oracle minimizes
|Tr[A X]| over every contraction X (spectral norm |X|_2 <= 1) that meets
lo <= Tr[B X] <= hi.  The feasible set is convex and Tr[A X] is linear, so
Tr[A X] ranges over an interval [m, M]; the minimum of |Tr[A X]| is 0 when
m <= 0 <= M and the end nearer 0 otherwise.

Each range end is a Lagrange dual.  The nuclear norm |S|_* is the dual of
the spectral norm (Boyd & Vandenberghe, Convex Optimization, 2004, ch. 5
and App. A.1.6), so

    max Tr[C X] = min over lambda of g(lambda),
    g(lambda) = |C - lambda B|_* + max(lambda lo, lambda hi),

with C = A for M and C = -A for -m.  For a symmetric 2x2 S,
|S|_* = max(|tr S|, |u_S|) with u_S = (s11 - s22, 2 s12), so g is convex
and piecewise smooth, and its minimum lies among a few closed-form
candidates: lambda = 0, the zero of tr(C - lambda B), the singular points
det(C - lambda B) = 0 (where |tr| and |u_S| cross), and the one stationary
point of |u - lambda w| + s lambda for each slope s in {lo, hi}.  By weak
duality every g(lambda) bounds the range end from above, so a spurious
candidate cannot spoil the minimum.

Every answer carries a primal certificate.  From the eigenvectors of
C - lambda* B, a nonzero eigenvalue gives X its sign as coefficient and a
numerically zero one gets the coefficient in [-1, 1] that puts Tr[B X] on
the active band edge; X is a multiple of B's polar factor if
C - lambda* B vanishes.  ``gap`` is the larger of the two range ends'
duality gaps, dual bound minus Tr at the certificate: a certified answer
has a small gap.

Feasibility is exact: the largest Tr[B X] over contractions is |B|_*,
reached at B's polar factor (von Neumann's trace inequality), so the
constraint is infeasible exactly when the band misses [-|B|_*, |B|_*].
Where the band only touches +-|B|_*, strong duality is not attained, and
the range is taken directly over that face: the single point +-polar(B),
or for singular B a segment along B's null direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OracleInfeasibleError, require
from .evebound import SymMat2

# eigenvalues this small against the matrices' scale count as zero
_ZERO = 1e-12


@dataclass(frozen=True)
class OracleResult:
    """min |Tr[A X]| over the feasible contractions, with a certificate.

    ``point`` is a feasible 2x2 contraction X with |Tr[A X]| = ``value``;
    ``gap`` bounds how far the certified range ends fall inside the dual
    bounds on them.
    """

    value: float
    point: np.ndarray
    gap: float


def nuclear_norm(b: SymMat2):
    """|l1| + |l2| = max(|tr B|, |(b11 - b22, 2 b12)|): the largest Tr[B X].

    Broadcasts over array entries.
    """
    return np.maximum(np.abs(b.trace()), np.hypot(b.m11 - b.m22, 2.0 * b.m12))


def _array(m: SymMat2) -> np.ndarray:
    return np.array([[m.m11, m.m12], [m.m12, m.m22]], dtype=float)


def _real_roots(q2: float, q1: float, q0: float) -> list[float]:
    """Real roots of q2 x^2 + q1 x + q0; a near-double root is kept."""
    if q2 == 0.0:
        return [-q0 / q1] if q1 != 0.0 else []
    h = -0.5 * (q1 + math.copysign(math.sqrt(max(q1 * q1 - 4.0 * q2 * q0, 0.0)), q1))
    return [h / q2, q0 / h] if h != 0.0 else [0.0]


def _candidates(c: SymMat2, b: SymMat2, lo: float, hi: float) -> np.ndarray:
    """The lambdas among which g attains its minimum, when it is attained."""
    lam = [0.0]
    if b.trace() != 0.0:
        lam.append(c.trace() / b.trace())
    # det(C - lam B) = det C - lam (c11 b22 + c22 b11 - 2 c12 b12) + lam^2 det B
    lam += _real_roots(b.det(), -(c.m11 * b.m22 + c.m22 * b.m11 - 2.0 * c.m12 * b.m12),
                       c.det())
    u = (c.m11 - c.m22, 2.0 * c.m12)
    w = (b.m11 - b.m22, 2.0 * b.m12)
    width = math.hypot(*w)
    if width > 0.0:
        uw = u[0] * w[0] + u[1] * w[1]
        p = abs(u[0] * w[1] - u[1] * w[0]) / width
        for s in (lo, hi):
            if abs(s) < width:
                rise = s * p / math.sqrt((width - s) * (width + s))
                lam.append((uw - width * rise) / width ** 2)
    lam = np.array(lam)
    return lam[np.isfinite(lam)]


def _polar(b: SymMat2) -> tuple[np.ndarray, np.ndarray]:
    """B's polar factor and the projector on its null direction (0 if none)."""
    l, v = np.linalg.eigh(_array(b))
    null = np.abs(l) <= _ZERO * np.abs(l).max()
    return (v * np.where(null, 0.0, np.sign(l))) @ v.T, (v * null) @ v.T


def _reflection_on_edge(b: SymMat2, edge: float, x: np.ndarray) -> np.ndarray:
    """The reflection [[e1, e2], [e2, -e1]] nearest x with Tr[B X] = edge.

    Tr[B X] = w . e with w = (b11 - b22, 2 b12).  When C - lambda* B is
    close to 0 its eigenvectors, and with them x, turn fast with lambda*,
    so x can miss the band edge by far more than rounding; this e meets it.
    """
    w = np.array([b.m11 - b.m22, 2.0 * b.m12])
    width = math.hypot(*w)
    along = min(max(edge / width, -1.0), 1.0)
    normal = np.array([-w[1], w[0]]) / width
    side = math.copysign(1.0, normal @ (x[0, 0], x[0, 1]))
    e = along * w / width + side * math.sqrt((1.0 - along) * (1.0 + along)) * normal
    return np.array([[e[0], e[1]], [e[1], -e[0]]])


def _dual_end(c: SymMat2, b: SymMat2, lo: float, hi: float):
    """max Tr[C X] over the feasible set: (dual bound, certificate X)."""
    lam = _candidates(c, b, lo, hi)
    shifted = SymMat2(c.m11 - lam * b.m11, c.m12 - lam * b.m12, c.m22 - lam * b.m22)
    g = nuclear_norm(shifted) + np.maximum(lam * lo, lam * hi)
    k = int(np.argmin(g))
    bound, lam_star = float(g[k]), float(lam[k])
    cm, bm = _array(c), _array(b)
    mu, v = np.linalg.eigh(cm - lam_star * bm)
    free = np.abs(mu) <= _ZERO * (np.abs(cm).max() + abs(lam_star) * np.abs(bm).max())
    x = (v * np.where(free, 0.0, np.sign(mu))) @ v.T
    # complementary slackness: lambda* > 0 puts Tr[B X] on hi, lambda* < 0 on lo
    if not free.any():
        if lam_star == 0.0 or mu[0] * mu[1] > 0.0:
            return bound, x
        return bound, _reflection_on_edge(b, hi if lam_star > 0.0 else lo, x)
    direction = _polar(b)[0] if free.all() else (v * free) @ v.T
    met, slope = np.sum(bm * x), np.sum(bm * direction)
    edge = hi if lam_star > 0.0 else lo if lam_star < 0.0 else min(max(met, lo), hi)
    coef = np.clip((edge - met) / slope, -1.0, 1.0) if slope != 0.0 else 0.0
    return bound, x + coef * direction


def _face_end(c: SymMat2, b: SymMat2, sign: float):
    """max Tr[C X] over the face Tr[B X] = sign |B|_*: (value, X)."""
    polar, null = _polar(b)
    cm = _array(c)
    x = sign * polar + math.copysign(1.0, np.sum(cm * null)) * null
    return float(np.sum(cm * x)), x


def _search(a: SymMat2, b: SymMat2, lo: float, hi: float) -> OracleResult:
    reach = float(nuclear_norm(b))
    if lo > reach or hi < -reach:
        raise OracleInfeasibleError(
            f"no contraction meets the constraint [{lo:.6g}, {hi:.6g}]; "
            f"Tr[B X] ranges over [{-reach:.6g}, {reach:.6g}]")
    neg = SymMat2(-a.m11, -a.m12, -a.m22)
    if reach > 0.0 and (lo >= reach or hi <= -reach):
        sign = 1.0 if lo >= reach else -1.0
        (top, x_top), (bottom, x_bottom) = _face_end(a, b, sign), _face_end(neg, b, sign)
    else:
        (top, x_top), (bottom, x_bottom) = _dual_end(a, b, lo, hi), _dual_end(neg, b, lo, hi)
    # range [m, M] = [-bottom, top]; the certificates reach [at_bottom, at_top]
    am = _array(a)
    at_top, at_bottom = float(np.sum(am * x_top)), float(np.sum(am * x_bottom))
    gap = max(top - at_top, at_bottom + bottom)
    if -bottom > 0.0:
        return OracleResult(value=-bottom, point=x_bottom, gap=gap)
    if top < 0.0:
        return OracleResult(value=-top, point=x_top, gap=gap)
    # the zero of Tr[A X] on the segment between the two certificates
    w = np.clip(at_top / (at_top - at_bottom), 0.0, 1.0) if at_top > at_bottom else 1.0
    return OracleResult(value=0.0, point=w * x_bottom + (1.0 - w) * x_top, gap=gap)


def oracle_min_overlap(a: SymMat2, b: SymMat2, target: float) -> OracleResult:
    """Exact min |Tr[A X]| over contractions X with Tr[B X] = target."""
    return _search(a, b, target, target)


def oracle_min_overlap_lossy(a: SymMat2, b: SymMat2, alpha_prime: float,
                             transmission: float, resolution=None) -> OracleResult:
    """Exact minimum under the loss-widened unitarity band.

    The constraint is |T Tr[B X] - cos(alpha')| <= 1 - T; at T = 1 it
    collapses to the equality oracle at cos(alpha'), and as T -> 0 it
    becomes vacuous.  ``resolution`` is accepted and ignored: the oracle
    has no grid, but the benchmark's ``verify`` workload still passes it.
    """
    require(transmission, (0.0 < transmission) & (transmission <= 1.0),
            "transmission outside (0, 1]")
    c = math.cos(alpha_prime)
    lo = (c - (1.0 - transmission)) / transmission
    hi = (c + (1.0 - transmission)) / transmission
    return _search(a, b, lo, hi)
