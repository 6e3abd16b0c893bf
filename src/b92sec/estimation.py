"""Map observed event counts to the symmetrized channel parameters.

Bob's eight conclusive/inconclusive counters determine the channel triple
(theta, epsilon, T) in closed form: two projections of the shrunken Bloch
vector give theta and epsilon through a 2x2 linear system, and the total
single-photon fraction gives T.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateAngleError,
    DomainError,
    EstimationInfeasibleError,
)
from .states import OUTCOMES, SignalDensity, outcome_table, wrap_angle

# counter field of each (Alice's bit, Bob's outcome); "V" events are not counted
COUNT_TABLE = {
    (0, "0"): "n00", (0, "1"): "n01", (0, "0b"): "n0b0", (0, "1b"): "n0b1",
    (1, "0"): "n10", (1, "1"): "n11", (1, "0b"): "n1b0", (1, "1b"): "n1b1",
}
COUNT_FIELDS = (*COUNT_TABLE.values(), "n_total")


@dataclass(frozen=True)
class ObservedCounts:
    """Event counters n[j][mu] for Alice's bit j and Bob's outcome mu.

    Field ``n0b1`` counts (j=0, mu=1bar) and so on; outcomes not listed are
    "V" events, so the eight counters sum to at most ``n_total``.
    """

    n00: int
    n01: int
    n0b0: int
    n0b1: int
    n10: int
    n11: int
    n1b0: int
    n1b1: int
    n_total: int

    def __post_init__(self):
        for name in COUNT_FIELDS:
            value = getattr(self, name)
            if value < 0 or value != int(value):
                raise DomainError(f"count {name} must be a non-negative integer: {value}")
            object.__setattr__(self, name, int(value))
        if self.n_total <= 0:
            raise DomainError("n_total must be positive")
        if self.detected() > self.n_total:
            raise DomainError("counters exceed n_total")

    def detected(self) -> int:
        """Number of single-photon detections (everything except V)."""
        return sum(getattr(self, name) for name in COUNT_TABLE.values())

    def count(self, bit: int, outcome: str) -> int:
        """Counter for (j, mu) with mu in {"0", "1", "0b", "1b"}."""
        return getattr(self, COUNT_TABLE[bit, outcome])

    @classmethod
    def from_table(cls, n_total: int, table) -> "ObservedCounts":
        """Counters from a (2, 5) table indexed by bit and outcome in ``OUTCOMES`` order."""
        return cls(n_total=n_total, **{name: int(table[bit][OUTCOMES.index(outcome)])
                                       for (bit, outcome), name in COUNT_TABLE.items()})

    # --- external record formats -------------------------------------------------

    @classmethod
    def from_json(cls, text: str) -> "ObservedCounts":
        record = json.loads(text)
        return cls(**{name: record[name] for name in COUNT_FIELDS})

    def to_json(self) -> str:
        return json.dumps({name: getattr(self, name) for name in COUNT_FIELDS})

    @classmethod
    def from_csv(cls, text: str) -> "ObservedCounts":
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != 1:
            raise DomainError(f"counts CSV must hold exactly one record, got {len(rows)}")
        return cls(**{name: int(rows[0][name]) for name in COUNT_FIELDS})

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(COUNT_FIELDS)
        writer.writerow([getattr(self, name) for name in COUNT_FIELDS])
        return out.getvalue()


@dataclass(frozen=True)
class ChannelTriple:
    """Symmetrized channel parameters (theta, epsilon, T).

    ``clamped`` records that a slightly negative noise estimate was clipped
    to zero during inversion of sampled counts.
    """

    theta: float
    epsilon: float
    transmission: float
    clamped: bool = False

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise DomainError(f"noise parameter outside [0, 1]: {self.epsilon}")
        if not 0.0 <= self.transmission <= 1.0:
            raise DomainError(f"transmission outside [0, 1]: {self.transmission}")


def estimate_channel(counts: ObservedCounts, alpha: float,
                     clamp_tol: float = 1e-9) -> ChannelTriple:
    """Invert observed counters to the unique channel triple.

    The detected fraction gives T.  Writing X1 and X2 for the two
    orientation averages of the conclusive/inconclusive asymmetries
    (normalized per detected qubit), the channel satisfies

        (1 - eps) cos(theta)            = X1
        (1 - eps) cos(theta + 2 alpha)  = X2

    which expands to (1 - eps) sin(theta) = (X1 cos 2a - X2)/sin 2a and is
    solved by atan2 and a vector norm.  A norm above 1 + ``clamp_tol``
    cannot come from any channel and raises
    :class:`~b92sec.errors.EstimationInfeasibleError`; a norm within the
    tolerance is clipped (``clamped`` set on the result).
    """
    sin2a = math.sin(2.0 * alpha)
    if sin2a < 1e-9:
        raise DegenerateAngleError(
            f"count inversion degenerates at sin(2 alpha) = {sin2a:.2e}")
    detected = counts.detected()
    transmission = detected / counts.n_total
    if detected == 0:
        raise EstimationInfeasibleError(
            "all pulses inconclusive (T = 0); theta and epsilon are undefined")
    scale = 2.0 / (transmission * counts.n_total)
    x1 = scale * (counts.n00 - counts.n0b0 + counts.n11 - counts.n1b1)
    x2 = scale * (counts.n01 - counts.n0b1 + counts.n10 - counts.n1b0)
    y = (x1 * math.cos(2.0 * alpha) - x2) / sin2a
    r = math.hypot(x1, y)
    if r > 1.0 + clamp_tol:
        raise EstimationInfeasibleError(
            f"counts imply Bloch-vector norm {r:.6f} > 1; "
            "statistical fluctuation or non-symmetrizable data")
    theta = math.atan2(y, x1)
    return ChannelTriple(theta=theta, epsilon=1.0 - min(r, 1.0),
                         transmission=transmission, clamped=r > 1.0)


def expected_counts(triple: ChannelTriple, alpha: float, n_total: int) -> ObservedCounts:
    """Exact expected counters for a channel triple (no sampling).

    Fractional expectations are kept exact by scaling; they are rounded to
    integers, so pick ``n_total`` large enough for the precision you need.
    """
    # the symmetrized bit-0 and bit-1 states sit at -(alpha + theta) and +(alpha + theta)
    phi = np.array([-1.0, 1.0]) * (alpha + triple.theta)
    table = np.rint(outcome_table(alpha, phi, 1.0 - triple.epsilon, triple.transmission)
                    * (n_total / 2.0))
    return ObservedCounts.from_table(n_total, table)


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
