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
candidates: lambda = 0, the singular points det(C - lambda B) = 0 (where
|tr| and |u_S| cross), and the one stationary point of |u - lambda w| +
s lambda for each slope s in {lo, hi}.  The zero of tr(C - lambda B) is not
a candidate: there g is the radius piece |u_S| plus the slope term, so a
minimum there is already one of the others.  By weak duality every
g(lambda) bounds the range end from above, so a spurious candidate cannot
spoil the minimum.

Every answer carries a primal certificate.  From the eigenvectors of
C - lambda* B, a nonzero eigenvalue gives X its sign as coefficient and a
numerically zero one gets the coefficient in [-1, 1] that puts Tr[B X] on
the active band edge; X is a multiple of B's polar factor if
C - lambda* B vanishes.  Where X comes out a reflection (coefficients -1
and 1), a lambda* that is off by more than rounding can leave it off the
edge: outside the band, or inside it where the edge is worth more.  The
reflection that meets the edge then replaces it.  ``gap`` is the larger of
the two range ends' duality gaps, dual bound minus Tr at the certificate: a
certified answer has a small gap.

The algebra runs on Python floats: A, B, the candidates, g and every
certificate are a few numbers each, and a numpy call on them costs 1-3 us
of dispatch, more than its arithmetic.  What stays in LAPACK is one
``eigh`` per range end, for the eigenbasis of C - lambda* B, and one for
B's polar factor on the face or where C - lambda* B vanishes.  A
closed-form 2x2 eigenbasis was tried in its place and moved the gap of
``test_near_singular_channel_keeps_a_tight_certificate`` from -2.2e-16 to
1.3e-11, past its pinned 1e-11: lambda* is near -7.5e4 there, and the gap
carries lambda* Tr[B X], so rounding in the basis grows some 1e5-fold.
One call takes 50-97 us (median 51 us) on a shared 2-core VM (Python
3.11, numpy 2.4; best of 5 rounds in each of five measurements):

    PYTHONPATH=src python -m timeit -r 5 -s "import math; from b92sec.evebound import build_matrices; from b92sec.oracle import oracle_min_overlap_lossy; a = math.radians(20); A, B = build_matrices(a, math.radians(5), 0.3)" "oracle_min_overlap_lossy(A, B, a, 0.8)"

Feasibility is exact: the largest Tr[B X] over contractions is |B|_*,
reached at B's polar factor (von Neumann's trace inequality), so the
constraint is infeasible exactly when the band misses [-|B|_*, |B|_*].
Where the band only touches +-|B|_*, strong duality is not attained, and
the range is taken directly over that face: the single point +-polar(B),
or for singular B a segment along B's null direction.

The gap certifies the float A and B the oracle was handed, not the channel
they were built from.  Where B's entries lose digits to rounding, as near
the singular tilt 2 alpha + theta = 0 with small eps, a gap of order 1e-16
can sit beside a value that is off by far more.  On the channel of
``test_near_singular_channel_keeps_a_tight_certificate`` the gap reads
-2.2e-16, while the value lies 2.4e-11 from the channel's 60-digit answer
from ``tools/dual_reference.py``.
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


def nuclear_norm(b: SymMat2) -> float:
    """|l1| + |l2| = max(|tr B|, |(b11 - b22, 2 b12)|): the largest Tr[B X]."""
    return max(abs(b.m11 + b.m22), math.hypot(b.m11 - b.m22, 2.0 * b.m12))


def _sum(s: float, x: SymMat2, t: float, y: SymMat2) -> SymMat2:
    """s X + t Y."""
    return SymMat2(s * x.m11 + t * y.m11, s * x.m12 + t * y.m12, s * x.m22 + t * y.m22)


def _tr(c: SymMat2, x: SymMat2) -> float:
    """Tr[C X] for symmetric C and X."""
    return c.m11 * x.m11 + 2.0 * c.m12 * x.m12 + c.m22 * x.m22


def _eigh(m: SymMat2) -> list[list]:
    """[ascending eigenvalues of M, its eigenvectors as columns], from LAPACK."""
    return [r.tolist() for r in np.linalg.eigh(np.array([[m.m11, m.m12], [m.m12, m.m22]]))]


def _outer(v, s1: float, s2: float) -> SymMat2:
    """s1 v1 v1^T + s2 v2 v2^T for the columns v1, v2 of v."""
    (v11, v12), (v21, v22) = v
    return SymMat2(s1 * v11 * v11 + s2 * v12 * v12, s1 * v11 * v21 + s2 * v12 * v22,
                   s1 * v21 * v21 + s2 * v22 * v22)


def _signs(mu: list[float], zero: float) -> list[float]:
    """sign(m) for each eigenvalue m, or 0 where |m| <= zero."""
    return [0.0 if abs(m) <= zero else math.copysign(1.0, m) for m in mu]


def _real_roots(q2: float, q1: float, q0: float) -> list[float]:
    """Real roots of q2 x^2 + q1 x + q0; a near-double root is kept."""
    if q2 == 0.0:
        return [-q0 / q1] if q1 != 0.0 else []
    h = -0.5 * (q1 + math.copysign(math.sqrt(max(q1 * q1 - 4.0 * q2 * q0, 0.0)), q1))
    return [h / q2, q0 / h] if h != 0.0 else [0.0]


def _candidates(c: SymMat2, b: SymMat2, lo: float, hi: float) -> list[float]:
    """The lambdas among which g attains its minimum, when it is attained."""
    lam = [0.0]
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
    # a non-finite lambda has g inf or NaN, never below g(0) = |C|_*, which comes first
    return lam


def _polar(b: SymMat2) -> tuple[SymMat2, SymMat2]:
    """B's polar factor and the projector on its null direction (0 if none)."""
    l, v = _eigh(b)
    s1, s2 = _signs(l, _ZERO * max(abs(l[0]), abs(l[1])))
    return _outer(v, s1, s2), _outer(v, float(not s1), float(not s2))


def _reflection_on_edge(b: SymMat2, edge: float, x: SymMat2) -> SymMat2:
    """The reflection [[e1, e2], [e2, -e1]] nearest x with Tr[B X] = edge.

    Tr[B X] = w . e with w = (b11 - b22, 2 b12).  When C - lambda* B is
    close to 0 its eigenvectors, and with them x, turn fast with lambda*,
    so x can miss the band edge by far more than rounding; this e meets it.
    """
    w1, w2 = b.m11 - b.m22, 2.0 * b.m12
    width = math.hypot(w1, w2)
    along = min(max(edge / width, -1.0), 1.0)
    n1, n2 = -w2 / width, w1 / width
    across = math.copysign(1.0, n1 * x.m11 + n2 * x.m12) * math.sqrt((1.0 - along) * (1.0 + along))
    e1, e2 = along * w1 / width + across * n1, along * w2 / width + across * n2
    return SymMat2(e1, e2, -e1)


def _dual_end(c: SymMat2, b: SymMat2, lo: float, hi: float) -> tuple[float, SymMat2]:
    """max Tr[C X] over the feasible set: (dual bound, certificate X)."""
    lams = _candidates(c, b, lo, hi)
    g = [nuclear_norm(_sum(1.0, c, -lam, b)) + max(lam * lo, lam * hi) for lam in lams]
    # the first minimum, as np.argmin takes it
    bound = min(g)
    lam = lams[g.index(bound)]
    mu, v = _eigh(_sum(1.0, c, -lam, b))
    zero = _ZERO * (max(abs(c.m11), abs(c.m12), abs(c.m22))
                    + abs(lam) * max(abs(b.m11), abs(b.m12), abs(b.m22)))
    s1, s2 = _signs(mu, zero)
    x = _outer(v, s1, s2)
    met = _tr(b, x)
    # complementary slackness: lambda* > 0 puts Tr[B X] on hi, lambda* < 0 on lo
    edge = hi if lam > 0.0 else lo if lam < 0.0 else min(max(met, lo), hi)
    if not (s1 and s2):
        # the zero eigenvalues' eigenvectors, or B's polar factor if both are zero
        direction = _outer(v, float(not s1), float(not s2)) if s1 or s2 else _polar(b)[0]
        slope = _tr(b, direction)
        coef = min(max((edge - met) / slope, -1.0), 1.0) if slope != 0.0 else 0.0
        x = _sum(1.0, x, coef, direction)
        # x's coefficients on v1 and v2; with B's polar factor, never -1 and 1
        s1, s2 = s1 or coef, s2 or coef
    # a reflection x, clipped or not: where lambda* is off by more than
    # rounding, as at theta near +-pi with eps near 1e-16, x can leave the
    # band, or stay inside it short of an edge that is worth more
    if lam != 0.0 and s1 * s2 == -1.0:
        e = _reflection_on_edge(b, edge, x)
        x = e if not lo <= _tr(b, x) <= hi or _tr(c, e) > _tr(c, x) else x
    return bound, x


def _face_end(c: SymMat2, b: SymMat2, sign: float) -> tuple[float, SymMat2]:
    """max Tr[C X] over the face Tr[B X] = sign |B|_*: (value, X)."""
    polar, null = _polar(b)
    x = _sum(sign, polar, math.copysign(1.0, _tr(c, null)), null)
    return _tr(c, x), x


def _search(a: SymMat2, b: SymMat2, lo: float, hi: float) -> OracleResult:
    a, b = (SymMat2(float(m.m11), float(m.m12), float(m.m22)) for m in (a, b))
    reach = nuclear_norm(b)
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
    at_top, at_bottom = _tr(a, x_top), _tr(a, x_bottom)
    gap = max(top - at_top, at_bottom + bottom)
    value, x = (-bottom, x_bottom) if -bottom > 0.0 else (-top, x_top)
    if -bottom <= 0.0 <= top:
        # the zero of Tr[A X] on the segment between the two certificates
        w = min(max(at_top / (at_top - at_bottom), 0.0), 1.0) if at_top > at_bottom else 1.0
        value, x = 0.0, _sum(w, x_bottom, 1.0 - w, x_top)
    return OracleResult(value=value, point=np.array([[x.m11, x.m12], [x.m12, x.m22]]), gap=gap)


def oracle_min_overlap_lossy(a: SymMat2, b: SymMat2, alpha_prime: float,
                             transmission: float, resolution=None) -> OracleResult:
    """Exact minimum under the loss-widened unitarity band.

    The constraint is |T Tr[B X] - cos(alpha')| <= 1 - T; at T = 1 it
    collapses to the equality Tr[B X] = cos(alpha'), and as T -> 0 it
    becomes vacuous.  ``resolution`` is accepted and ignored: the oracle
    has no grid, but the benchmark's ``verify`` workload still passes it.
    """
    require(transmission, (0.0 < transmission) & (transmission <= 1.0),
            "transmission outside (0, 1]")
    c = math.cos(alpha_prime)
    lo = (c - (1.0 - transmission)) / transmission
    hi = (c + (1.0 - transmission)) / transmission
    return _search(a, b, lo, hi)
