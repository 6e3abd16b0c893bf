"""Eve's minimum overlap for one channel, from the oracle's dual in 60 digits.

Usage (from the repository root):

    python tools/dual_reference.py ALPHA_PRIME ALPHA THETA EPS T

Angles are in radians.  Each argument is read as a float, and A and B are
built from those floats in 60-digit arithmetic, so the result is the exact
answer for the channel the floats name, free of the rounding in the
program's float A and B.  Where the loss-widened band
[(cos alpha' - (1 - T)) / T, (cos alpha' + (1 - T)) / T] misses
[-|B|_*, |B|_*], the channel is unreachable and that word is printed.
Otherwise each end of the range of Tr[A X] over the feasible contractions
is the dual min over lambda of |C - lambda B|_* + max(lambda lo, lambda hi),
with C = A and C = -A, taken by 900 ternary steps over
lambda in [-1e25, 1e25]; the minimum overlap, 0 when the range holds 0,
is printed to 15 digits.  A noiseless channel with 2 alpha + theta = 0,
where A is 0/0, takes A = diag(1, 0), as the program does.  About a second
per channel.  Needs mpmath; not part of the test suite.
"""

import argparse

import mpmath

DIGITS = 60
STEPS = 900
LAMBDA_SPAN = mpmath.mpf(10) ** 25


def matrices(alpha, theta, eps):
    """A and B as (m11, m12, m22) triples, from the closed-form entries."""
    tilt = 2 * alpha + theta
    half = alpha + theta / 2
    den = 1 - (1 - eps) * mpmath.cos(tilt)
    if den == 0:
        a = (mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0))
    else:
        a = ((2 - eps) * mpmath.sin(half) ** 2 / den,
             -mpmath.sqrt(eps * (2 - eps)) * mpmath.sin(tilt) / (2 * den),
             eps * mpmath.cos(half) ** 2 / den)
    full = alpha + theta
    b = ((1 - eps / 2) * mpmath.cos(full),
         mpmath.sqrt((1 - eps / 2) * eps / 2) * mpmath.sin(full),
         -eps / 2 * mpmath.cos(full))
    return a, b


def nuclear_norm(m11, m12, m22):
    """|S|_* of a symmetric 2x2 S: max(|tr S|, |(s11 - s22, 2 s12)|)."""
    return max(abs(m11 + m22), mpmath.sqrt((m11 - m22) ** 2 + 4 * m12 ** 2))


def range_end(c, b, lo, hi):
    """max Tr[C X] over the feasible contractions, as the dual's minimum."""
    def g(lam):
        return nuclear_norm(*(ci - lam * bi for ci, bi in zip(c, b))) + max(lam * lo, lam * hi)

    left, right = -LAMBDA_SPAN, LAMBDA_SPAN
    for _ in range(STEPS):
        m1 = left + (right - left) / 3
        m2 = right - (right - left) / 3
        if g(m1) <= g(m2):
            right = m2
        else:
            left = m1
    return g((left + right) / 2)


def min_overlap(alpha_prime, alpha, theta, eps, t):
    """The minimum overlap as an mpf, or None for an unreachable channel."""
    with mpmath.workdps(DIGITS):
        alpha_prime, alpha, theta, eps, t = map(mpmath.mpf, (alpha_prime, alpha, theta, eps, t))
        a, b = matrices(alpha, theta, eps)
        lo = (mpmath.cos(alpha_prime) - (1 - t)) / t
        hi = (mpmath.cos(alpha_prime) + (1 - t)) / t
        reach = nuclear_norm(*b)
        if lo > reach or hi < -reach:
            return None
        top = range_end(a, b, lo, hi)
        bottom = -range_end(tuple(-v for v in a), b, lo, hi)
        return mpmath.mpf(0) if bottom <= 0 <= top else min(abs(bottom), abs(top))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    for name in ("alpha_prime", "alpha", "theta", "eps", "t"):
        parser.add_argument(name, type=float)
    args = parser.parse_args()
    q = min_overlap(args.alpha_prime, args.alpha, args.theta, args.eps, args.t)
    print("unreachable" if q is None else mpmath.nstr(q, 15))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
