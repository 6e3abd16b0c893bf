"""Bloch-sphere state algebra and Bob's outcome table for the two-state protocol.

All signal states live on the x-z great circle of the Bloch sphere, so a
pure polarization state is a single angle.  A transmitted pulse is either
one photon (a qubit) or vacuum; density operators are therefore stored as
a transmission weight for the qubit block plus its Bloch vector, which
keeps every computation at 2x2 size.  Bob's five outcome probabilities
for such a state are one closed form over arrays, :func:`outcome_table`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require

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

    def overlap(self, other: "BlochState") -> float:
        """Inner product with another great-circle state: cos((a - b)/2)."""
        return math.cos((self.phi - other.phi) / 2.0)


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


def outcome_table(alpha, phi, r, transmission) -> np.ndarray:
    """Bob's five outcome probabilities at analyzer angle ``alpha``.

    The state is T * rho_qubit (+) (1 - T)|vac><vac| with the qubit's Bloch
    vector at angle ``phi`` and length ``r`` in the x-z plane.  Bob picks one
    of two conjugate bases with probability 1/2; his four polarization
    effects are half-weight projectors at -a, pi - a, a and pi + a.  With
    c0 = r cos(phi + a) and c1 = r cos(phi - a) the table is

        (T/4)(1 + c0), (T/4)(1 - c0), (T/4)(1 + c1), (T/4)(1 - c1), 1 - T

    in ``OUTCOMES`` order, along a new last axis of the broadcast inputs.
    """
    alpha = np.asarray(alpha, dtype=float)
    require(alpha, (alpha >= 0.0) & (alpha <= math.pi / 2.0),
            "analyzer angle outside [0, pi/2]")
    alpha, phi, r, transmission = np.broadcast_arrays(alpha, phi, r, transmission)
    c0 = r * np.cos(phi + alpha)
    c1 = r * np.cos(phi - alpha)
    # 1 -+ c can round to a tiny negative for antipodal directions
    polarization = np.maximum(0.0, 1.0 + np.stack((c0, -c0, c1, -c1), axis=-1))
    return np.concatenate((0.25 * transmission[..., np.newaxis] * polarization,
                           1.0 - transmission[..., np.newaxis]), axis=-1)


def make_alice_states(alpha_prime: float) -> tuple[BlochState, BlochState]:
    """Alice's two signal states for bit 0 and bit 1.

    The states sit symmetrically about the z axis at +-alpha_prime and have
    overlap cos(alpha_prime).
    """
    if not 0.0 <= alpha_prime <= math.pi / 2.0:
        raise DomainError(f"signal angle outside [0, pi/2]: {alpha_prime}")
    return BlochState(-alpha_prime), BlochState(alpha_prime)
