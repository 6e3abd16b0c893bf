"""Map observed event counts to the symmetrized channel parameters.

Bob's eight conclusive/inconclusive counters determine the channel triple
(theta, epsilon, T) in closed form: two projections of the shrunken Bloch
vector give theta and epsilon through a 2x2 linear system, and the total
single-photon fraction gives T.

:class:`ObservedCounts` holds the eight counters and reads them from a
one-record CSV or a JSON object.  ``simulate`` writes both forms of the
count record: the CSV with ``--counts-csv``, and the JSON object as the
``counts`` field of its JSON record.  Each counter is a non-negative
integer, and not a bool; a CSV cell holds ASCII digits only.  Anything
else raises :class:`DomainError`, and so does a record that is malformed:
text that is not JSON, JSON that is not an object, a missing, unknown or
repeated field or column, a missing cell, or a cell past the CSV header.
The error names the field where there is one.  :func:`expected_counts`
gives the exact, unsampled counters of a channel triple, which
:func:`estimate_channel` inverts.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateAngleError,
    DomainError,
    EstimationInfeasibleError,
    is_integer,
    require,
)
from .states import OUTCOMES, outcome_table

# counter field of each (Alice's bit, Bob's outcome); "V" events are not counted
COUNT_TABLE = {
    (0, "0"): "n00", (0, "1"): "n01", (0, "0b"): "n0b0", (0, "1b"): "n0b1",
    (1, "0"): "n10", (1, "1"): "n11", (1, "0b"): "n1b0", (1, "1b"): "n1b1",
}
COUNT_FIELDS = (*COUNT_TABLE.values(), "n_total")
# (bit, column of the outcome in OUTCOMES order) of each counter
_CELLS = {name: (bit, OUTCOMES.index(outcome)) for (bit, outcome), name in COUNT_TABLE.items()}
# sampled counts can fluctuate slightly past the exact-arithmetic boundary
CLAMP_TOL = 1e-2


def _check_fields(names, kind: str) -> None:
    """Raise DomainError naming the first of ``names`` that is unknown or repeated."""
    for k, name in enumerate(names):
        if name not in COUNT_FIELDS:
            raise DomainError(f"counts {kind} has unknown field {name!r}")
        if name in names[:k]:
            raise DomainError(f"counts {kind} repeats field {name}")


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
            if not is_integer(value) or value < 0:
                raise DomainError(f"count {name} must be a non-negative integer: {value!r}")
            object.__setattr__(self, name, int(value))
        require(self.n_total, self.n_total > 0, "n_total must be positive")
        detected = self.detected()
        require(detected, detected <= self.n_total, "counters exceed n_total")

    def detected(self) -> int:
        """Number of single-photon detections (everything except V)."""
        return sum(getattr(self, name) for name in COUNT_TABLE.values())

    @classmethod
    def from_table(cls, n_total: int, table) -> "ObservedCounts":
        """Counters from a (2, 5) table indexed by bit and outcome in ``OUTCOMES`` order."""
        rows = np.asarray(table).tolist()
        return cls(n_total=n_total, **{name: int(rows[bit][column])
                                       for name, (bit, column) in _CELLS.items()})

    # --- external record formats -------------------------------------------------

    @classmethod
    def _from_record(cls, record: dict, kind: str) -> "ObservedCounts":
        """Counters from a parsed record; a missing field raises DomainError."""
        missing = [name for name in COUNT_FIELDS if record.get(name) is None]
        if missing:
            raise DomainError(f"counts {kind} misses field {missing[0]}")
        return cls(**{name: record[name] for name in COUNT_FIELDS})

    @classmethod
    def from_json(cls, text: str) -> "ObservedCounts":
        try:
            # an object reads as its (name, value) pairs, so a repeat shows
            record = json.loads(text, object_pairs_hook=tuple)
        except json.JSONDecodeError as exc:
            raise DomainError(f"counts record is not JSON: {exc}") from None
        if not isinstance(record, tuple):
            raise DomainError(f"counts JSON must be an object, got {type(record).__name__}")
        _check_fields([name for name, _ in record], "JSON")
        return cls._from_record(dict(record), "JSON")

    @classmethod
    def from_csv(cls, text: str) -> "ObservedCounts":
        reader = csv.DictReader(io.StringIO(text))
        rows = list(reader)
        if len(rows) != 1:
            raise DomainError(f"counts CSV must hold exactly one record, got {len(rows)}")
        _check_fields(reader.fieldnames, "CSV")
        if None in rows[0]:  # DictReader files cells past the header under None
            raise DomainError(f"counts CSV row has cells past its header: {rows[0][None]}")
        record = {}
        for name in COUNT_FIELDS:
            cell = rows[0].get(name)  # None for a missing column or a short row
            # ASCII digits only, as simulate writes them: int() would also take
            # spaces, underscores, a sign and other scripts' digits
            if cell is not None and not (cell.isascii() and cell.isdigit()):
                raise DomainError(f"count {name} must be a non-negative integer: {cell!r}")
            record[name] = None if cell is None else int(cell)
        return cls._from_record(record, "CSV")


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
        require(self.epsilon, (0.0 <= self.epsilon) & (self.epsilon <= 1.0),
                "noise parameter outside [0, 1]")
        require(self.transmission, (0.0 <= self.transmission) & (self.transmission <= 1.0),
                "transmission outside [0, 1]")


def estimate_channel(counts: ObservedCounts, alpha: float) -> ChannelTriple:
    """Invert observed counters to the unique channel triple.

    The detected fraction gives T.  Writing X1 and X2 for the two
    orientation averages of the conclusive/inconclusive asymmetries
    (normalized per detected qubit), the channel satisfies

        (1 - eps) cos(theta)            = X1
        (1 - eps) cos(theta + 2 alpha)  = X2

    which expands to (1 - eps) sin(theta) = (X1 cos 2a - X2)/sin 2a and is
    solved by atan2 and a vector norm.  A norm above 1 + ``CLAMP_TOL``
    cannot come from any channel and raises
    :class:`~b92sec.errors.EstimationInfeasibleError`; a norm in
    (1, 1 + ``CLAMP_TOL``], as sampled counts of a nearly noiseless channel
    give, is clipped to 1 (``clamped`` set on the result).
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
    if r > 1.0 + CLAMP_TOL:
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
