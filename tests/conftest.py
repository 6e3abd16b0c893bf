"""Shared helpers: explicit 2x2 matrix algebra used as an independent check.

The library computes Bob's outcome probabilities in closed form from Bloch
angles (``states.outcome_table``); these helpers rebuild the same
quantities from full kets, outer products and matrix traces, so agreement
is a real cross-check rather than a tautology.
"""

import math

import numpy as np
import pytest

DEG = math.pi / 180.0


def ket(phi: float) -> np.ndarray:
    return np.array([math.cos(phi / 2.0), math.sin(phi / 2.0)])


def bar_ket(phi: float) -> np.ndarray:
    s, c = math.sin(phi / 2.0), math.cos(phi / 2.0)
    return np.array([s, -c]) if phi >= 0.0 else np.array([-s, c])


def projector(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conj())


def sym_matrix(m) -> np.ndarray:
    """The 2x2 array of a symmetric matrix given by its entries m11, m12, m22."""
    return np.array([[m.m11, m.m12], [m.m12, m.m22]])


def explicit_qubit_block(theta: float, epsilon: float, transmission: float,
                         alpha: float, bit: int) -> np.ndarray:
    """T [(1 - eps/2)|sigma><sigma| + (eps/2)|bar><bar|] built from kets."""
    sign = -1.0 if bit == 0 else 1.0
    phi = sign * (alpha + theta)
    return transmission * ((1.0 - epsilon / 2.0) * projector(ket(phi))
                           + (epsilon / 2.0) * projector(bar_ket(phi)))


def bloch_of_matrix(rho: np.ndarray) -> np.ndarray:
    """Pauli components (x, y, z) of a 2x2 matrix."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return np.real(np.array([np.trace(rho @ s) for s in (sx, sy, sz)]))


def explicit_povm_effects(alpha: float) -> dict[str, np.ndarray]:
    """Bob's four polarization effects as explicit half-weight projectors."""
    return {
        "0": 0.5 * projector(ket(-alpha)),
        "0b": 0.5 * projector(bar_ket(-alpha)),
        "1": 0.5 * projector(ket(alpha)),
        "1b": 0.5 * projector(bar_ket(alpha)),
    }


def symmetrized_bloch(triple, alpha: float, bit: int) -> tuple[float, float, float]:
    """Bloch vector of the symmetrized qubit block for ``bit``.

    The signal direction at -+(alpha + theta) in the x-z plane (bit 0 takes
    the minus sign), shrunk by 1 - eps.
    """
    sign = -1.0 if bit == 0 else 1.0
    phi = alpha + triple.theta
    r = 1.0 - triple.epsilon
    return (r * math.sin(sign * phi), 0.0, r * math.cos(phi))


def symmetrized_outcomes(triple, alpha: float) -> np.ndarray:
    """Bob's (2, 5) outcome table on the symmetrized bit-0 and bit-1 states."""
    from b92sec.states import outcome_table

    phi = np.array([-1.0, 1.0]) * (alpha + triple.theta)
    return outcome_table(alpha, phi, 1.0 - triple.epsilon, triple.transmission)


@pytest.fixture
def gain_calls(monkeypatch):
    """Counts the searches' calls of ``keyrate.key_gains``; a search that runs
    away fails at the 1000th call instead of hanging."""
    from b92sec import keyrate

    key_gains = keyrate.key_gains
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        assert len(calls) < 1000, "the search does not stop"
        return key_gains(*args, **kwargs)

    monkeypatch.setattr(keyrate, "key_gains", counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


def estimator_sigmas(triple, alpha: float, n_total: int) -> np.ndarray:
    """Delta-method standard errors of (theta, eps, T) estimates.

    Builds the multinomial covariance of the three count statistics the
    inversion consumes and pushes it through a numerical Jacobian of the
    closed-form inversion.  Used to define the 3-sigma acceptance windows
    for sampled runs.
    """
    from b92sec.states import OUTCOMES

    table = symmetrized_outcomes(triple, alpha)
    probs = {(bit, label): 0.5 * table[bit, k]
             for bit in (0, 1) for k, label in enumerate(OUTCOMES)}

    # raw statistics: S1, S2 (asymmetry sums / n) and D (detected fraction)
    coeff = {
        "s1": {(0, "0"): 1, (0, "0b"): -1, (1, "1"): 1, (1, "1b"): -1},
        "s2": {(0, "1"): 1, (0, "1b"): -1, (1, "0"): 1, (1, "0b"): -1},
        "d": {(b, m): 1 for b in (0, 1) for m in OUTCOMES if m != "V"},
    }
    names = ("s1", "s2", "d")
    mean = np.array([sum(c * probs[k] for k, c in coeff[n].items())
                     for n in names])
    cov = np.empty((3, 3))
    for i, ni in enumerate(names):
        for j, nj in enumerate(names):
            cross = sum(coeff[ni].get(k, 0) * coeff[nj].get(k, 0) * p
                        for k, p in probs.items())
            cov[i, j] = (cross - mean[i] * mean[j]) / n_total

    def invert(stats):
        s1, s2, d = stats
        x1 = 2.0 * s1 / d
        x2 = 2.0 * s2 / d
        y = (x1 * math.cos(2 * alpha) - x2) / math.sin(2 * alpha)
        return np.array([math.atan2(y, x1), 1.0 - math.hypot(x1, y), d])

    jac = np.empty((3, 3))
    h = 1e-7
    for j in range(3):
        up, dn = mean.copy(), mean.copy()
        up[j] += h
        dn[j] -= h
        jac[:, j] = (invert(up) - invert(dn)) / (2 * h)
    # exact-zero variances (e.g. T at unit transmission) can round negative
    return np.sqrt(np.clip(np.diag(jac @ cov @ jac.T), 0.0, None))
