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
rate are :func:`~b92sec.states.conclusive_rates` at theta = 0, and the
state term is :func:`~b92sec.evebound.shannon_gain` of the signals'
overlap cos(alpha).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import binary_entropy
from .errors import require
from .evebound import _HALF_PI, shannon_gain
from .states import conclusive_rates


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
    require(x, ~(np.abs(ratio) > 1.0 + 1e-12), "no state reaches this conclusive probability")
    radicand = np.maximum(0.0, 1.0 - ratio * ratio)
    arg = 0.5 - (np.sin(alpha) / (4.0 * x)) * np.sqrt(radicand)
    return binary_entropy(np.clip(arg, 0.0, 1.0))


@dataclass(frozen=True)
class BoundReport:
    """Assembled ceiling on the per-correct-bit Shannon gain.

    ``term_state`` bounds how well Bob and Eve jointly distinguish Alice's
    states; ``term_control`` bounds how well Eve steers Bob's conclusive
    outcome; ``upper_bound`` divides their sum by the correct-bit fraction.
    Values of one bit or more are vacuous and are kept unclamped.  Each
    field has the broadcast shape of the inputs.
    """

    p_conc: np.ndarray
    error_rate: np.ndarray
    term_state: np.ndarray
    term_control: np.ndarray
    upper_bound: np.ndarray


def shannon_upper_bound(alpha, epsilon, transmission) -> BoundReport:
    """Ceiling on Eve's Shannon gain per correct bit (theta = 0, alpha' = alpha).

    The conclusive and error rates are
    :func:`~b92sec.states.conclusive_rates` at theta = 0.  A
    :class:`DomainError` is raised if any entry has a noise parameter
    outside [0, 1], a transmission outside (0, 1], an analyzer angle
    outside [0, pi/2] or no conclusive events.
    """
    alpha, epsilon, transmission = np.broadcast_arrays(
        np.asarray(alpha, dtype=float), epsilon, transmission)
    require(epsilon, (0.0 <= epsilon) & (epsilon <= 1.0), "noise parameter outside [0, 1]")
    require(transmission, (0.0 < transmission) & (transmission <= 1.0),
            "transmission outside (0, 1]")
    require(alpha, (0.0 <= alpha) & (alpha <= _HALF_PI), "analyzer angle outside [0, pi/2]")
    p_error, p_conc = conclusive_rates(alpha, 0.0, epsilon, transmission)
    require(p_conc, p_conc > 0.0, "conclusive probability vanishes; bound undefined")
    # the error rate is at most 1/2, so the correct-bit fraction never vanishes
    e = p_error / p_conc
    term_state = shannon_gain(np.cos(alpha)) / p_conc
    term_control = 1.0 - conclusive_entropy_floor(p_conc / transmission, alpha)
    return BoundReport(
        p_conc=p_conc,
        error_rate=e,
        term_state=term_state,
        term_control=term_control,
        upper_bound=(term_state + term_control) / (1.0 - e),
    )
