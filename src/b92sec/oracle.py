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
of dispatch, more than its arithmetic.  Every matrix it forms is a plain
(m11, m12, m22) tuple of floats: a ``SymMat2`` takes about 0.5 us to
build and a tuple under 0.1 us.  ``SymMat2`` is the input type of
:func:`oracle_min_overlap_lossy` and :func:`nuclear_norm`, and being a
tuple it unpacks as one.  Timings are in ``BENCH_verify_tuples.json``.
A or B with an entry that is not finite raises
:class:`~b92sec.errors.DomainError`.  The eigenbases, of C - lambda* B
at each range end and of B for its polar factor, come from :func:`_eigh`,
a port of LAPACK's 2x2 eigensolver DLAEV2 as DSYEVD applies it (Anderson
et al., LAPACK Users' Guide, 3rd ed., SIAM 1999).  It equals numpy's
``eigh`` bit for bit wherever LAPACK does not rescale, that is for a
largest |entry| in [2**-405, 2**485], about [1.2e-122, 1.0e146]
(``TestEigh`` in ``tests/test_oracle.py``).  The bits matter: a naive closed-form basis
moved the gap of ``test_near_singular_channel_keeps_a_tight_certificate``
from -2.2e-16 to 1.3e-11, since lambda* is near -7.5e4 there and the gap
carries lambda* Tr[B X].  A has unit trace and a non-negative diagonal,
so its largest entry is at least 1/2; B's is at least
|cos(alpha + theta)| / 2, and no double comes nearer an odd multiple of
pi/2 than about 4.7e-19.  C - lambda* B stayed under 4e4 in size over the
tests' strata, but can leave the range below: its O(1) entry can cancel
to exactly 0 while the others are of size sqrt(eps), under 1.2e-122 for
eps below about 1e-244, and draws with such eps meet it.  Its eigenbasis
is then never read, since both eigenvalues lie far below the zero
threshold, at least 1e-12 |C|_max >= 5e-13, and the certificate takes B's
polar factor instead.  Timings are in ``BENCH_oracle_eigensolver.json``.

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
import sys
from dataclasses import dataclass

import numpy as np

from .errors import OracleInfeasibleError, require
from .evebound import SymMat2

# eigenvalues this small against the matrices' scale count as zero
_ZERO = 1e-12
# LAPACK's dlamch("E"), its square and dlamch("S"), as DSTEQR takes them
_EPS = 2.0 ** -53
_EPS2 = _EPS * _EPS
_SAFMIN = sys.float_info.min


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
    return max(abs(b[0] + b[2]), math.hypot(b[0] - b[2], 2.0 * b[1]))


def _sum(s: float, x: tuple, t: float, y: tuple) -> tuple:
    """s X + t Y."""
    return s * x[0] + t * y[0], s * x[1] + t * y[1], s * x[2] + t * y[2]


def _tr(c: tuple, x: tuple) -> float:
    """Tr[C X] for symmetric C and X."""
    return c[0] * x[0] + 2.0 * c[1] * x[1] + c[2] * x[2]


def _eigh(m: tuple) -> tuple[list, list]:
    """[ascending eigenvalues of M], [rows of its eigenvectors as columns].

    What numpy's ``eigh`` (LAPACK's DSYEVD, lower triangle) does for
    M = [[d, e], [e, f]]: DSYTRD leaves a 2x2 matrix as it is, and DSTEQR
    either splits it, where e is negligible by either of its two tests, or
    takes DLAEV2's eigenvalues rt1, rt2 and rotation (c, s), the eigenvector
    of rt1; its selection sort then orders the eigenvalues with a strict <,
    swapping the eigenvectors with them.  LAPACK's rescaling of a matrix
    whose largest |entry| lies outside [2**-405, 2**485] is left out, so
    only there can the bits differ.
    """
    d, e, f = m
    ad, af = abs(d), abs(f)
    # DSTEQR's split tests; the second multiplies the smaller diagonal first
    # in the QL and the QR iteration alike
    if (e == 0.0 or abs(e) <= math.sqrt(ad) * math.sqrt(af) * _EPS
            or e * e <= _EPS2 * min(ad, af) * max(ad, af) + _SAFMIN):
        rt1, rt2, v = d, f, [[1.0, 0.0], [0.0, 1.0]]
    else:
        # DLAEV2, in its order of operations
        sm, df, tb = d + f, d - f, e + e
        adf, ab = abs(df), abs(tb)
        acmx, acmn = (d, f) if ad > af else (f, d)
        if adf > ab:
            r = ab / adf
            rt = adf * math.sqrt(1.0 + r * r)
        elif adf < ab:
            r = adf / ab
            rt = ab * math.sqrt(1.0 + r * r)
        else:
            rt = ab * math.sqrt(2.0)
        if sm < 0.0:
            rt1, sgn1 = 0.5 * (sm - rt), -1.0
            rt2 = (acmx / rt1) * acmn - (e / rt1) * e
        elif sm > 0.0:
            rt1, sgn1 = 0.5 * (sm + rt), 1.0
            rt2 = (acmx / rt1) * acmn - (e / rt1) * e
        else:
            rt1, rt2, sgn1 = 0.5 * rt, -0.5 * rt, 1.0
        cs, sgn2 = (df + rt, 1.0) if df >= 0.0 else (df - rt, -1.0)
        if abs(cs) > ab:
            ct = -tb / cs
            s = 1.0 / math.sqrt(1.0 + ct * ct)
            c = ct * s
        else:
            tn = -cs / tb
            c = 1.0 / math.sqrt(1.0 + tn * tn)
            s = tn * c
        if sgn1 == sgn2:
            c, s = -s, c
        v = [[c, -s], [s, c]]
    if rt2 < rt1:
        return [rt2, rt1], [[v[0][1], v[0][0]], [v[1][1], v[1][0]]]
    return [rt1, rt2], v


def _outer(v, s1: float, s2: float) -> tuple:
    """s1 v1 v1^T + s2 v2 v2^T for the columns v1, v2 of v."""
    (v11, v12), (v21, v22) = v
    return (s1 * v11 * v11 + s2 * v12 * v12, s1 * v11 * v21 + s2 * v12 * v22,
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


def _candidates(c: tuple, b: tuple, lo: float, hi: float) -> list[float]:
    """The lambdas among which g attains its minimum, when it is attained."""
    (c11, c12, c22), (b11, b12, b22) = c, b
    lam = [0.0]
    # det(C - lam B) = det C - lam (c11 b22 + c22 b11 - 2 c12 b12) + lam^2 det B
    lam += _real_roots(b11 * b22 - b12 * b12, -(c11 * b22 + c22 * b11 - 2.0 * c12 * b12),
                       c11 * c22 - c12 * c12)
    u = (c11 - c22, 2.0 * c12)
    w = (b11 - b22, 2.0 * b12)
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


def _polar(b: tuple) -> tuple[tuple, tuple]:
    """B's polar factor and the projector on its null direction (0 if none)."""
    l, v = _eigh(b)
    s1, s2 = _signs(l, _ZERO * max(abs(l[0]), abs(l[1])))
    return _outer(v, s1, s2), _outer(v, float(not s1), float(not s2))


def _reflection_on_edge(b: tuple, edge: float, x: tuple) -> tuple:
    """The reflection [[e1, e2], [e2, -e1]] nearest x with Tr[B X] = edge.

    Tr[B X] = w . e with w = (b11 - b22, 2 b12).  When C - lambda* B is
    close to 0 its eigenvectors, and with them x, turn fast with lambda*,
    so x can miss the band edge by far more than rounding; this e meets it.
    """
    w1, w2 = b[0] - b[2], 2.0 * b[1]
    width = math.hypot(w1, w2)
    along = min(max(edge / width, -1.0), 1.0)
    n1, n2 = -w2 / width, w1 / width
    across = math.copysign(1.0, n1 * x[0] + n2 * x[1]) * math.sqrt((1.0 - along) * (1.0 + along))
    e1, e2 = along * w1 / width + across * n1, along * w2 / width + across * n2
    return e1, e2, -e1


def _dual_end(c: tuple, b: tuple, lo: float, hi: float) -> tuple[float, tuple]:
    """max Tr[C X] over the feasible set: (dual bound, certificate X)."""
    (c11, c12, c22), (b11, b12, b22) = c, b
    lams = _candidates(c, b, lo, hi)
    # g = |C - lam B|_* + max(lam lo, lam hi), with nuclear_norm written out;
    # c11 - lam b11 rounds as _sum's 1.0 c11 + (-lam) b11 does
    g = []
    for lam in lams:
        s11, s12, s22 = c11 - lam * b11, c12 - lam * b12, c22 - lam * b22
        g.append(max(abs(s11 + s22), math.hypot(s11 - s22, 2.0 * s12)) + max(lam * lo, lam * hi))
    # the first minimum, as np.argmin takes it
    bound = min(g)
    lam = lams[g.index(bound)]
    mu, v = _eigh(_sum(1.0, c, -lam, b))
    zero = _ZERO * (max(abs(c11), abs(c12), abs(c22))
                    + abs(lam) * max(abs(b11), abs(b12), abs(b22)))
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


def _face_end(c: tuple, b: tuple, sign: float) -> tuple[float, tuple]:
    """max Tr[C X] over the face Tr[B X] = sign |B|_*: (value, X)."""
    polar, null = _polar(b)
    x = _sum(sign, polar, math.copysign(1.0, _tr(c, null)), null)
    return _tr(c, x), x


def _search(a: SymMat2, b: SymMat2, lo: float, hi: float) -> OracleResult:
    a, b = tuple(map(float, a)), tuple(map(float, b))
    for m in (*a, *b):
        require(m, -math.inf < m < math.inf, "matrix entry not finite")
    reach = nuclear_norm(b)
    if lo > reach or hi < -reach:
        raise OracleInfeasibleError(
            f"no contraction meets the constraint [{lo:.6g}, {hi:.6g}]; "
            f"Tr[B X] ranges over [{-reach:.6g}, {reach:.6g}]")
    neg = (-a[0], -a[1], -a[2])
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
    return OracleResult(value=value, point=np.array([[x[0], x[1]], [x[1], x[2]]]), gap=gap)


def oracle_min_overlap_lossy(a: SymMat2, b: SymMat2, alpha_prime: float,
                             transmission: float, resolution=None) -> OracleResult:
    """Exact minimum under the loss-widened unitarity band.

    The constraint is |T Tr[B X] - cos(alpha')| <= 1 - T; at T = 1 it
    collapses to the equality Tr[B X] = cos(alpha'), and as T -> 0 it
    becomes vacuous.  alpha' outside [0, pi/2], NaN included, and then T
    outside (0, 1] raise :class:`~b92sec.errors.DomainError`, in
    :func:`~b92sec.evebound.eve_bound`'s words, and then an entry of A or B
    that is not finite, A's first, as "matrix entry not finite".
    ``resolution`` is accepted and ignored: the oracle has no grid, but the
    benchmark's ``verify`` workload still passes it.
    """
    require(alpha_prime, (0.0 <= alpha_prime) & (alpha_prime <= math.pi / 2.0),
            "signal angle outside [0, pi/2]")
    require(transmission, (0.0 < transmission) & (transmission <= 1.0),
            "transmission outside (0, 1]")
    c = math.cos(alpha_prime)
    lo = (c - (1.0 - transmission)) / transmission
    hi = (c + (1.0 - transmission)) / transmission
    return _search(a, b, lo, hi)
