"""Bob's outcome table for the two-state protocol.

All signal states live on the x-z great circle of the Bloch sphere, so a
pure polarization state is a single angle: Alice sends -+alpha' for bits 0
and 1, and an attack branch adds its rotation to that angle.  A
transmitted pulse is either one photon (a qubit) or vacuum, so a delivered
state is T * rho_qubit (+) (1 - T)|vac><vac|: a transmission weight T and
the qubit's Bloch vector, which in the x-z plane is an angle and a length.
Bob's five outcome probabilities for such a state are one closed form over
arrays of those three numbers, :func:`outcome_table`; :func:`outcome_entries`
states its five entries once, on floats or arrays, for the table and for
the simulator's float table alike.

The module also owns Bob's outcome statistics.  ``CORRECT`` and ``ERROR``
are his decoding rule: for each of Alice's bits, the conclusive outcome
that is a correct bit and the one that is an error; the simulator counts
through them.  :func:`conclusive_rates` gives the rates of error and of
conclusive events on the symmetrized channel, which the key gain and the
information ceiling read.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import require
from .evebound import _ONE, _TWO

# Bob's five measurement outcomes.  "0b"/"1b" are the conclusive outcomes
# (detection in the state orthogonal to one of Alice's signals), "V" is the
# photon-number filter (zero or more than one photon).
OUTCOMES = ("0", "0b", "1", "1b", "V")
# Bob's decoding rule: "1b" decodes to bit 0 and "0b" to bit 1, so the
# columns of OUTCOMES that hold a correct and an erroneous conclusive
# outcome, indexed by Alice's bit
CORRECT = (OUTCOMES.index("1b"), OUTCOMES.index("0b"))
ERROR = CORRECT[::-1]
# 0-d array operand where the rates meet an input (see evebound's)
_QUARTER = np.array(0.25)


def outcome_table(alpha, phi, r, transmission) -> np.ndarray:
    """Bob's five outcome probabilities at analyzer angle ``alpha``.

    The state is T * rho_qubit (+) (1 - T)|vac><vac| with the qubit's Bloch
    vector at angle ``phi`` and length ``r`` in the x-z plane; ``r`` lies in
    [0, 1] and T in [0, 1], so every entry lies in [0, 1], in floats too.
    Bob picks one of two conjugate bases with probability 1/2; his four
    polarization effects are half-weight projectors at -a, pi - a, a and
    pi + a.  With c0 = r cos(phi + a) and c1 = r cos(phi - a) the table is

        (T/4)(1 + c0), (T/4)(1 - c0), (T/4)(1 + c1), (T/4)(1 - c1), 1 - T

    in ``OUTCOMES`` order, along a new last axis of the broadcast inputs,
    each entry as :func:`outcome_entries` forms it.
    """
    alpha = np.asarray(alpha, dtype=float)
    require(alpha, (alpha >= 0.0) & (alpha <= math.pi / 2.0),
            "analyzer angle outside [0, pi/2]")
    transmission = np.asarray(transmission, dtype=float)
    entries = outcome_entries(r * np.cos(phi + alpha), r * np.cos(phi - alpha), transmission)
    return np.stack(np.broadcast_arrays(*entries), axis=-1)


def outcome_entries(c0, c1, transmission) -> tuple:
    """The five entries of :func:`outcome_table`, from c0, c1 and T.

    Each polarization entry is formed as (1 +- c) * (0.25 T), on floats or
    on arrays alike, so a caller that forms the table on floats gets the
    bits that :func:`outcome_table` gives.
    """
    quarter = 0.25 * transmission
    return ((1.0 + c0) * quarter, (1.0 - c0) * quarter, (1.0 + c1) * quarter,
            (1.0 - c1) * quarter, 1.0 - transmission)


def conclusive_rates(alpha, theta, epsilon, transmission) -> tuple:
    """Rates per pulse of Bob's erroneous and of all his conclusive outcomes.

    Over float arrays the caller has checked, on the symmetrized channel
    (theta, eps, T) with the analyzer matched to the signal angle
    (alpha' = alpha).  Alice's bit-0 signal arrives at Bloch angle
    -(alpha + theta) with length 1 - eps, so by :func:`outcome_table` its
    error ``ERROR[0]`` has rate (T/4)(1 - (1 - eps) cos theta) and its
    correct bit ``CORRECT[0]`` (T/4)(1 - (1 - eps) cos(2 alpha + theta));
    bit 1's signal mirrors it.  Returns (p_error, p_conc), p_conc the sum
    of the two; 1 - (1 - eps) cos is at least 0 for every eps in [0, 1], so
    p_conc >= p_error.
    """
    quarter, keep = _QUARTER * transmission, _ONE - epsilon
    p_error = quarter * (1.0 - keep * np.cos(theta))
    return p_error, p_error + quarter * (1.0 - keep * np.cos(_TWO * alpha + theta))
