"""Bob's outcome table for the two-state protocol.

All signal states live on the x-z great circle of the Bloch sphere, so a
pure polarization state is a single angle: Alice sends -+alpha' for bits 0
and 1, and an attack branch adds its rotation to that angle.  A
transmitted pulse is either one photon (a qubit) or vacuum, so a delivered
state is T * rho_qubit (+) (1 - T)|vac><vac|: a transmission weight T and
the qubit's Bloch vector, which in the x-z plane is an angle and a length.
Bob's five outcome probabilities for such a state are one closed form over
arrays of those three numbers, :func:`outcome_table`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import require

# Bob's five measurement outcomes.  "0b"/"1b" are the conclusive outcomes
# (detection in the state orthogonal to one of Alice's signals), "V" is the
# photon-number filter (zero or more than one photon).
OUTCOMES = ("0", "0b", "1", "1b", "V")


def outcome_table(alpha, phi, r, transmission) -> np.ndarray:
    """Bob's five outcome probabilities at analyzer angle ``alpha``.

    The state is T * rho_qubit (+) (1 - T)|vac><vac| with the qubit's Bloch
    vector at angle ``phi`` and length ``r`` in the x-z plane; ``r`` lies in
    [0, 1] and T in [0, 1], so every entry lies in [0, 1], in floats too.
    Bob picks one of two conjugate bases with probability 1/2; his four
    polarization effects are half-weight projectors at -a, pi - a, a and
    pi + a.  With c0 = r cos(phi + a) and c1 = r cos(phi - a) the table is

        (T/4)(1 + c0), (T/4)(1 - c0), (T/4)(1 + c1), (T/4)(1 - c1), 1 - T

    in ``OUTCOMES`` order, along a new last axis of the broadcast inputs.
    """
    alpha = np.asarray(alpha, dtype=float)
    require(alpha, (alpha >= 0.0) & (alpha <= math.pi / 2.0),
            "analyzer angle outside [0, pi/2]")
    transmission = np.asarray(transmission, dtype=float)
    c0 = r * np.cos(phi + alpha)
    c1 = r * np.cos(phi - alpha)
    table = np.empty(np.broadcast(c0, transmission).shape + (5,))
    polarization = table[..., :4]
    polarization[..., 0], polarization[..., 1] = 1.0 + c0, 1.0 - c0
    polarization[..., 2], polarization[..., 3] = 1.0 + c1, 1.0 - c1
    polarization *= 0.25 * transmission[..., np.newaxis]
    table[..., 4] = 1.0 - transmission
    return table

