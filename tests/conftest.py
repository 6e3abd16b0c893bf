"""Shared helpers: explicit 2x2 matrix algebra used as an independent check.

The library computes Bob's outcome probabilities in closed form from Bloch
angles (``states.outcome_table``); these helpers rebuild the same
quantities from full kets, outer products and matrix traces, so agreement
is a real cross-check rather than a tautology.  The protocol's symmetry
steps are checked here too: :func:`symmetrize_densities` averages a pair
of delivered :class:`SignalDensity` states over the symmetry group, and
:func:`relabeled` mirrors a count record.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from b92sec.errors import DomainError
from b92sec.estimation import COUNT_TABLE, ChannelTriple, ObservedCounts
from b92sec.states import wrap_angle

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



def sqrt_effect_angle(q: float, phi: float, plus: bool) -> float:
    """Angle of sqrt(A+-) |sigma_phi> for the x-basis weak measurement."""
    a = math.sqrt(1.0 - q) if plus else math.sqrt(q)
    b = math.sqrt(q) if plus else math.sqrt(1.0 - q)
    c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
    # sqrt effect in the z basis: [[(a+b)/2, (a-b)/2], [(a-b)/2, (a+b)/2]]
    up = 0.5 * ((a + b) * c + (a - b) * s)
    dn = 0.5 * ((a - b) * c + (a + b) * s)
    return wrap_angle(2.0 * math.atan2(dn, up))


@dataclass(frozen=True)
class SignalDensity:
    """Signal operator  T * rho_qubit  (+)  (1 - T) |vac><vac|.

    ``bloch`` is the Bloch vector of the normalized qubit block, so the full
    operator has unit trace and the qubit block carries trace T.
    """

    transmission: float
    bloch: tuple[float, float, float]

    def __post_init__(self):
        t = float(self.transmission)
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"transmission outside [0, 1]: {t}")
        v = tuple(float(c) for c in self.bloch)
        if len(v) != 3:
            raise DomainError("bloch vector must have three components")
        if math.hypot(*v) > 1.0 + 1e-9:
            raise DomainError(f"bloch vector norm exceeds 1: {v}")
        object.__setattr__(self, "transmission", t)
        object.__setattr__(self, "bloch", v)

    @classmethod
    def vacuum(cls) -> "SignalDensity":
        return cls(0.0, (0.0, 0.0, 0.0))


def symmetrize_densities(rho0: SignalDensity, rho1: SignalDensity, alpha: float,
                         ) -> tuple[ChannelTriple, tuple[SignalDensity, SignalDensity]]:
    """Average the delivered states over the protocol's symmetry group.

    The group is generated by complex conjugation in the z basis (which
    kills the y Bloch component) and the pi rotation about z combined with
    a bit swap (which mirrors bit 1 onto bit 0).  The output pair is fully
    described by a channel triple: equal transmissions (T0 + T1)/2, a
    common shrink factor 1 - epsilon and tilt theta relative to the signal
    angle ``alpha``.
    """
    t0, t1 = rho0.transmission, rho1.transmission
    transmission = 0.5 * (t0 + t1)
    if transmission == 0.0:
        return (ChannelTriple(0.0, 0.0, 0.0),
                (SignalDensity.vacuum(), SignalDensity.vacuum()))
    v0 = rho0.bloch
    v1 = rho1.bloch
    # conjugation zeroes y; the mirrored partner contributes with x negated
    vx = (t0 * v0[0] - t1 * v1[0]) / (2.0 * transmission)
    vz = (t0 * v0[2] + t1 * v1[2]) / (2.0 * transmission)
    r = math.hypot(vx, vz)
    epsilon = 1.0 - min(r, 1.0)
    theta = wrap_angle(-math.atan2(vx, vz) - alpha) if r > 0.0 else 0.0
    sym0 = SignalDensity(transmission, (vx, 0.0, vz))
    sym1 = SignalDensity(transmission, (-vx, 0.0, vz))
    return ChannelTriple(theta=theta, epsilon=epsilon, transmission=transmission), (sym0, sym1)


def relabeled(counts: ObservedCounts) -> ObservedCounts:
    """Swap the bit labels of both parties (the mirror symmetry of the protocol)."""
    mirror = {"0": "1", "1": "0", "0b": "1b", "1b": "0b"}
    return replace(counts, **{name: counts.count(1 - bit, mirror[outcome])
                              for (bit, outcome), name in COUNT_TABLE.items()})

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
