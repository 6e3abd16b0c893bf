"""Bloch-sphere state algebra for the two-state protocol.

All signal states live on the x-z great circle of the Bloch sphere, so a
pure polarization state is a single angle.  A transmitted pulse is either
one photon (a qubit) or vacuum; density operators are therefore stored as
a transmission weight for the qubit block plus its Bloch vector, which
keeps every computation at 2x2 size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Bob's five measurement outcomes.  "0b"/"1b" are the conclusive outcomes
# (detection in the state orthogonal to one of Alice's signals), "V" is the
# photon-number filter (zero or more than one photon).
OUTCOMES = ("0", "0b", "1", "1b", "V")


def wrap_angle(phi: float) -> float:
    """Reduce an angle to the canonical (-pi, pi] window."""
    phi = math.fmod(phi, 2.0 * math.pi)
    if phi <= -math.pi:
        phi += 2.0 * math.pi
    elif phi > math.pi:
        phi -= 2.0 * math.pi
    return phi


@dataclass(frozen=True)
class BlochState:
    """Pure polarization state at angle ``phi`` on the x-z great circle.

    ``phi`` is measured from the north pole (the +1 eigenstate of the Pauli
    z operator); the state's Bloch vector is (sin phi, 0, cos phi).
    Instances are immutable and safe to share between threads.
    """

    phi: float

    def __post_init__(self):
        object.__setattr__(self, "phi", wrap_angle(float(self.phi)))

    def ket(self) -> np.ndarray:
        """Amplitudes in the z basis: (cos(phi/2), sin(phi/2))."""
        return np.array([math.cos(self.phi / 2.0), math.sin(self.phi / 2.0)])

    def bar_ket(self) -> np.ndarray:
        """Amplitudes of the orthogonal partner state.

        The sign convention flips at phi < 0, which changes only a global
        phase in every observable quantity.
        """
        s, c = math.sin(self.phi / 2.0), math.cos(self.phi / 2.0)
        if self.phi >= 0.0:
            return np.array([s, -c])
        return np.array([-s, c])

    def bar(self) -> "BlochState":
        """Orthogonal partner as a state (angle phi + pi, up to phase)."""
        return BlochState(self.phi + math.pi)

    def overlap(self, other: "BlochState") -> float:
        """Inner product with another great-circle state: cos((a - b)/2)."""
        return math.cos((self.phi - other.phi) / 2.0)

    def bloch_vector(self) -> np.ndarray:
        return np.array([math.sin(self.phi), 0.0, math.cos(self.phi)])

    def projector(self) -> np.ndarray:
        """Rank-1 density matrix |state><state| in the z basis."""
        k = self.ket()
        return np.outer(k, k)


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
    def pure(cls, state: BlochState, transmission: float = 1.0) -> "SignalDensity":
        return cls(transmission, tuple(state.bloch_vector()))

    @classmethod
    def vacuum(cls) -> "SignalDensity":
        return cls(0.0, (0.0, 0.0, 0.0))

    def qubit_matrix(self) -> np.ndarray:
        """Normalized 2x2 qubit block (I + v.sigma)/2."""
        x, y, z = self.bloch
        return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])


@dataclass(frozen=True)
class Povm5:
    """Bob's five-outcome measurement at analyzer angle ``alpha``.

    Two conjugate polarization bases, each selected with probability 1/2,
    plus the photon-number outcome "V".  The four polarization effects are
    half-weight projectors; they sum with the V effect to the identity on
    each photon-number sector.
    """

    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not 0.0 <= a <= math.pi / 2.0:
            raise DomainError(f"analyzer angle outside [0, pi/2]: {a}")
        object.__setattr__(self, "alpha", a)

    def effect_state(self, label: str) -> BlochState:
        """Direction of the rank-1 polarization effect for one outcome."""
        a = self.alpha
        angles = {"0": -a, "0b": -a + math.pi, "1": a, "1b": a + math.pi}
        if label not in angles:
            raise DomainError(f"unknown outcome label: {label!r}")
        return BlochState(angles[label])

    def probability(self, label: str, state: SignalDensity) -> float:
        """Outcome probability Tr[F rho] for one effect."""
        if label == "V":
            return 1.0 - state.transmission
        n = self.effect_state(label).bloch_vector()
        v = np.asarray(state.bloch)
        # 1 + n.v can round to a tiny negative for antipodal directions
        return 0.5 * state.transmission * 0.5 * max(0.0, 1.0 + float(n @ v))

    def probabilities(self, state: SignalDensity) -> dict[str, float]:
        """All five outcome probabilities; they sum to one."""
        return {label: self.probability(label, state) for label in OUTCOMES}


def make_alice_states(alpha_prime: float) -> tuple[BlochState, BlochState]:
    """Alice's two signal states for bit 0 and bit 1.

    The states sit symmetrically about the z axis at +-alpha_prime and have
    overlap cos(alpha_prime).
    """
    if not 0.0 <= alpha_prime <= math.pi / 2.0:
        raise DomainError(f"signal angle outside [0, pi/2]: {alpha_prime}")
    return BlochState(-alpha_prime), BlochState(alpha_prime)


def symmetrized_density(params, alpha: float, bit: int) -> SignalDensity:
    """Signal operator Bob reconstructs from the symmetrized channel.

    ``params`` is any object with ``theta``, ``epsilon`` and ``transmission``
    attributes (a :class:`~b92sec.estimation.ChannelTriple`).  The qubit
    block mixes the signal direction at +-(alpha + theta) with weight
    1 - epsilon/2 and its orthogonal partner with weight epsilon/2, so the
    Bloch vector shrinks by (1 - epsilon) and stays in the x-z plane.  Bit 1
    is the mirror image of bit 0 through the z axis.
    """
    eps = float(params.epsilon)
    t = float(params.transmission)
    if not 0.0 <= eps <= 1.0:
        raise DomainError(f"noise parameter outside [0, 1]: {eps}")
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"transmission outside [0, 1]: {t}")
    if bit not in (0, 1):
        raise DomainError(f"bit must be 0 or 1: {bit}")
    phi = alpha + float(params.theta)
    sign = -1.0 if bit == 0 else 1.0
    r = 1.0 - eps
    return SignalDensity(t, (r * math.sin(sign * phi), 0.0, r * math.cos(phi)))
