"""Information-theoretic ceiling on Eve's Shannon gain from conclusive events.

Two effects cap what any eavesdropper can learn per conclusive bit: the
signal states are nonorthogonal (nobody can distinguish them perfectly),
and Bob's conclusive outcomes come from nonorthogonal effects (Eve cannot
steer them at will).  Adding the two bounds and dividing by the fraction
of correct bits yields an upper bound on the per-correct-bit Shannon gain
which *decreases* with noise in the small-angle regime, explaining the
drop of the exact optimum there.  These formulas hold for theta = 0 with
the analyzer matched to the signal angle (alpha' = alpha).  Both functions
work elementwise over broadcast arrays; the conclusive rate and the error
rate are read off Bob's outcome table (:func:`~b92sec.states.outcome_table`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import binary_entropy
from .errors import DomainError, require
from .states import OUTCOMES, outcome_table


def conclusive_entropy_floor(x, alpha):
    """Least possible entropy of Bob's conclusive outcome, given its rate.

    For any single-photon state whose conclusive probability is ``x``, the
    entropy of the conclusive bit is at least

        h( 1/2 - (sin a / 4x) sqrt(1 - ((1 - 2x)/cos a)^2) ).

    ``x`` must lie in [(1 - cos a)/2, (1 + cos a)/2]; outside that window no
    state attains the requested rate.  A :class:`DomainError` is raised if
    any entry is out of range.
    """
    x, alpha = np.broadcast_arrays(np.asarray(x, dtype=float), alpha)
    require(x, x > 0.0, "conclusive probability must be positive")
    ratio = (1.0 - 2.0 * x) / np.cos(alpha)
    beyond = np.abs(ratio) > 1.0 + 1e-12
    if beyond.any():
        raise DomainError(
            f"no state reaches conclusive probability {x[beyond].flat[0]} at this angle")
    radicand = np.maximum(0.0, 1.0 - ratio * ratio)
    arg = 0.5 - (np.sin(alpha) / (4.0 * x)) * np.sqrt(radicand)
    return binary_entropy(np.clip(arg, 0.0, 1.0))


@dataclass(frozen=True)
class BoundReport:
    """Assembled ceiling on the per-correct-bit Shannon gain.

    ``term_state`` bounds how well Bob and Eve jointly distinguish Alice's
    states; ``term_control`` bounds how well Eve steers Bob's conclusive
    outcome; ``total`` is their sum, and ``upper_bound`` divides by the
    correct-bit fraction.  Values above one bit are vacuous; the raw number
    is kept and a clamped copy is provided alongside.  Each field has the
    broadcast shape of the inputs.
    """

    p_conc: np.ndarray
    error_rate: np.ndarray
    term_state: np.ndarray
    term_control: np.ndarray
    total: np.ndarray
    upper_bound: np.ndarray
    upper_bound_clamped: np.ndarray
    vacuous: np.ndarray


def shannon_upper_bound(alpha, epsilon, transmission) -> BoundReport:
    """Ceiling on Eve's Shannon gain per correct bit (theta = 0, alpha' = alpha).

    On the bit-0 signal (Bloch angle -alpha, length 1 - epsilon) outcome
    "0b" is an error and "1b" a correct bit; their sum is the conclusive
    rate.  A :class:`DomainError` is raised if any entry has a noise
    parameter outside [0, 1], a transmission outside (0, 1] or no
    conclusive events.
    """
    alpha, epsilon, transmission = np.broadcast_arrays(alpha, epsilon, transmission)
    require(epsilon, (0.0 <= epsilon) & (epsilon <= 1.0), "noise parameter outside [0, 1]")
    require(transmission, (0.0 < transmission) & (transmission <= 1.0),
            "transmission outside (0, 1]")
    table = outcome_table(alpha, -alpha, 1.0 - epsilon, transmission)
    p_error, p_correct = table[..., OUTCOMES.index("0b")], table[..., OUTCOMES.index("1b")]
    p_conc = p_error + p_correct
    if not (p_conc > 0.0).all():
        raise DomainError("conclusive probability vanishes; bound undefined")
    # the error rate is at most 1/2, so the correct-bit fraction never vanishes
    e = p_error / p_conc
    term_state = (1.0 - binary_entropy(
        0.5 * (1.0 - np.sqrt(1.0 - np.cos(alpha) ** 2)))) / p_conc
    term_control = 1.0 - conclusive_entropy_floor(p_conc / transmission, alpha)
    total = term_state + term_control
    upper = total / (1.0 - e)
    return BoundReport(
        p_conc=p_conc,
        error_rate=e,
        term_state=term_state,
        term_control=term_control,
        total=total,
        upper_bound=upper,
        upper_bound_clamped=np.minimum(1.0, upper),
        vacuous=upper >= 1.0,
    )
