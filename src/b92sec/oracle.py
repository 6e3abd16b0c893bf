"""Brute-force verification oracle for the overlap minimization.

Independent of the stationary-family analysis: the probe operator's
action on the relevant 2-dimensional block is an arbitrary contraction
X = R(u) diag(s1, s2) R(v) (signed s2 covers reflections), and the oracle
minimizes |Tr[A X]| subject to lo <= Tr[B X] <= hi.

At fixed rotations both traces are linear in (s1, s2), so the inner
problem is exact: the feasible set is the box s1 in [0, 1], s2 in [-1, 1]
cut by a slab, a convex polygon whose vertices are among 12 candidates
(the box corners and the slab edges' crossings with the box edges), and
min |f| of a linear f is 0 when f changes sign over those vertices and
the smallest vertex |f| otherwise.  A resolution^2 scan over (u, v) cells
picks seeds, and a pattern search on (u, v) refines all of them at once;
every reported value meets the constraint exactly.

Feasibility is decided exactly too.  By von Neumann's trace inequality the
largest Tr[B X] over contractions is the nuclear norm of B, reached at
B's polar factor, so the constraint is infeasible exactly when the band
misses [-|B|_*, |B|_*].  The (u, v) cells of the polar factor and of its
negative always join the seeds, which keeps thin feasible slivers near the
reachable limit from slipping between grid cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OracleInfeasibleError
from .evebound import SymMat2

# refinement knobs: pattern-search floor and tangency slop for the box clip
_MIN_STEP = 1e-9
_CLIP_SLOP = 1e-12
# grid cells refined besides the two polar-factor seeds
TOPK = 10
# pattern-search moves on (u, v)
_MOVES = np.array([(1, 0), (-1, 0), (0, 1), (0, -1),
                   (1, 1), (-1, -1), (1, -1), (-1, 1)], dtype=float)
# box corners (s1, s2)
_CORNERS = np.array([(0.0, -1.0), (0.0, 1.0), (1.0, -1.0), (1.0, 1.0)])


def backend_name() -> str:
    """Name of the scan implementation; there is one, in numpy."""
    return "numpy"


@dataclass(frozen=True)
class Contraction2:
    """Contraction X = R(u) diag(s1, s2) R(v) on the probe block.

    s1 lies in [0, 1]; s2 in [-1, 1], its sign absorbing the reflection
    needed to reach blocks of orthogonal operators with det < 0.
    """

    u: float
    v: float
    s1: float
    s2: float

    def matrix(self) -> np.ndarray:
        ru = np.array([[math.cos(self.u), -math.sin(self.u)],
                       [math.sin(self.u), math.cos(self.u)]])
        rv = np.array([[math.cos(self.v), -math.sin(self.v)],
                       [math.sin(self.v), math.cos(self.v)]])
        return ru @ np.diag([self.s1, self.s2]) @ rv


@dataclass(frozen=True)
class OracleResult:
    value: float
    point: Contraction2
    resolution: int
    coarse_value: float  # best exact inner minimum over the (u, v) grid


def _rotated_coeffs(m: SymMat2, u, v):
    """Diagonal of R(v) M R(u), so Tr[M X] = s1 * first + s2 * second.

    Broadcasts over arrays of u and v.
    """
    cu, su = np.cos(u), np.sin(u)
    cv, sv = np.cos(v), np.sin(v)
    first = cv * (m.m11 * cu + m.m12 * su) - sv * (m.m12 * cu + m.m22 * su)
    second = sv * (-m.m11 * su + m.m12 * cu) + cv * (-m.m12 * su + m.m22 * cu)
    return first, second


def _inner_min(a1, a2, b1, b2, lo: float, hi: float):
    """Exact min of |a1 s1 + a2 s2| over the box cut by lo <= b1 s1 + b2 s2 <= hi.

    Broadcasts over the coefficient arrays.  Returns arrays (value, s1, s2);
    value is inf where the feasible set is empty.
    """
    a1, a2, b1, b2 = np.broadcast_arrays(*(np.asarray(c, dtype=float)
                                           for c in (a1, a2, b1, b2)))
    ones = np.ones(a1.shape)
    # candidate vertices: the box corners, then each slab edge b.s = e
    # crossing the box edges s1 = 0, 1 and s2 = -1, 1
    s1 = [c1 * ones for c1, _ in _CORNERS]
    s2 = [c2 * ones for _, c2 in _CORNERS]
    with np.errstate(divide="ignore", invalid="ignore"):
        for e in (lo, hi):
            for c in (0.0, 1.0):
                s1.append(c * ones)
                s2.append((e - b1 * c) / b2)
            for c in (-1.0, 1.0):
                s1.append((e - b2 * c) / b1)
                s2.append(c * ones)
        s1, s2 = np.stack(s1), np.stack(s2)
        qb = s1 * b1 + s2 * b2
    # the crossings lie on the slab's boundary by construction
    in_slab = (qb >= lo - _CLIP_SLOP) & (qb <= hi + _CLIP_SLOP)
    in_slab[len(_CORNERS):] = True
    feasible = (in_slab & (s1 >= -_CLIP_SLOP) & (s1 <= 1.0 + _CLIP_SLOP)
                & (np.abs(s2) <= 1.0 + _CLIP_SLOP))
    s1 = np.clip(np.where(feasible, s1, 0.0), 0.0, 1.0)
    s2 = np.clip(np.where(feasible, s2, 0.0), -1.0, 1.0)
    f = a1 * s1 + a2 * s2
    up = np.where(feasible, f, np.inf)
    down = np.where(feasible, f, -np.inf)
    f_lo, f_hi = up.min(axis=0), down.max(axis=0)
    crosses = (f_lo <= 0.0) & (f_hi >= 0.0)
    value = np.where(crosses, 0.0, np.where(f_lo > 0.0, f_lo, -f_hi))
    # on a sign change, the zero of f between the two extreme vertices;
    # otherwise the extreme vertex nearest zero
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.nan_to_num(np.where(crosses, f_hi / (f_hi - f_lo), f_lo > 0.0), nan=1.0)
    i_lo, i_hi = up.argmin(axis=0)[None], down.argmax(axis=0)[None]

    def mix(s):
        return (w * np.take_along_axis(s, i_lo, 0)[0]
                + (1.0 - w) * np.take_along_axis(s, i_hi, 0)[0])

    return value, mix(s1), mix(s2)


def _solve_uv(a: SymMat2, b: SymMat2, lo: float, hi: float, u, v):
    """Exact inner minimum at the given rotations: arrays (value, s1, s2)."""
    a1, a2 = _rotated_coeffs(a, u, v)
    b1, b2 = _rotated_coeffs(b, u, v)
    return _inner_min(a1, a2, b1, b2, lo, hi)


def _polar_seeds(b: SymMat2) -> list[tuple[float, float]]:
    """(u, v) of B's polar factor and of its negative.

    With B = R(phi) diag(l1, l2) R(-phi), l1 >= l2, the polar factor is
    R(phi) diag(1, sign l2) R(-phi), where Tr[B X] = |B|_*; adding pi to u
    negates X.
    """
    phi = 0.5 * math.atan2(2.0 * b.m12, b.m11 - b.m22)
    return [(phi, -phi), (phi + math.pi, -phi)]


def nuclear_norm(b: SymMat2) -> float:
    """|l1| + |l2|: the largest Tr[B X] over contractions X."""
    half_tr = 0.5 * (b.m11 + b.m22)
    radius = math.hypot(0.5 * (b.m11 - b.m22), b.m12)
    return abs(half_tr + radius) + abs(half_tr - radius)


def _refine(a, b, lo, hi, seeds, step0):
    """Pattern search on (u, v) from every seed at once, exact inner solve.

    Each active seed takes its best improving move of the eight, or halves
    its step when none improves.  Returns (value, Contraction2 or None).
    """
    u, v = np.array(seeds, dtype=float).T
    value, s1, s2 = _solve_uv(a, b, lo, hi, u, v)
    step = np.full(u.shape, step0)
    rows = np.arange(u.size)
    while True:
        active = step > _MIN_STEP
        if not active.any():
            break
        cu = u[:, None] + _MOVES[:, 0] * step[:, None]
        cv = v[:, None] + _MOVES[:, 1] * step[:, None]
        cval, cs1, cs2 = _solve_uv(a, b, lo, hi, cu, cv)
        k = cval.argmin(axis=1)
        better = active & (cval[rows, k] < value - 1e-16)
        u = np.where(better, cu[rows, k], u)
        v = np.where(better, cv[rows, k], v)
        value = np.where(better, cval[rows, k], value)
        s1 = np.where(better, cs1[rows, k], s1)
        s2 = np.where(better, cs2[rows, k], s2)
        step = np.where(active & ~better, 0.5 * step, step)
    best = int(value.argmin())
    if not math.isfinite(value[best]):
        return math.inf, None
    return float(value[best]), Contraction2(u=float(u[best]), v=float(v[best]),
                                            s1=float(s1[best]), s2=float(s2[best]))


def _search(a: SymMat2, b: SymMat2, lo: float, hi: float,
            resolution: int) -> OracleResult:
    if resolution < 2:
        raise DomainError(f"resolution must be at least 2: {resolution}")
    reach = nuclear_norm(b)
    if lo > reach or hi < -reach:
        raise OracleInfeasibleError(
            f"no contraction meets the constraint [{lo:.6g}, {hi:.6g}]; "
            f"Tr[B X] ranges over [{-reach:.6g}, {reach:.6g}]")
    u = np.arange(resolution) * (2.0 * math.pi / resolution)
    v = np.arange(resolution) * (math.pi / resolution)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    cells = _solve_uv(a, b, lo, hi, uu, vv)[0].ravel()
    order = np.argsort(cells, kind="stable")[:TOPK]
    order = order[np.isfinite(cells[order])]
    seeds = _polar_seeds(b) + list(zip(uu.ravel()[order], vv.ravel()[order]))
    value, point = _refine(a, b, lo, hi, seeds, 2.0 * math.pi / resolution)
    if point is None:
        raise OracleInfeasibleError(
            f"no seed meets the constraint [{lo:.6g}, {hi:.6g}]")
    return OracleResult(value=value, point=point, resolution=resolution,
                        coarse_value=float(cells.min()))


def oracle_min_overlap(a: SymMat2, b: SymMat2, target: float,
                       resolution: int = 64) -> OracleResult:
    """Brute-force min |Tr[A X]| subject to Tr[B X] = target."""
    return _search(a, b, target, target, resolution)


def oracle_min_overlap_lossy(a: SymMat2, b: SymMat2, alpha_prime: float,
                             transmission: float,
                             resolution: int = 64) -> OracleResult:
    """Brute-force minimum under the loss-widened unitarity band.

    The constraint is |T Tr[B X] - cos(alpha')| <= 1 - T; at T = 1 it
    collapses to the equality oracle at cos(alpha'), and as T -> 0 it
    becomes vacuous.
    """
    if not 0.0 < transmission <= 1.0:
        raise DomainError(f"transmission outside (0, 1]: {transmission}")
    c = math.cos(alpha_prime)
    lo = (c - (1.0 - transmission)) / transmission
    hi = (c + (1.0 - transmission)) / transmission
    return _search(a, b, lo, hi, resolution)
