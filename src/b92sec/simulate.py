"""Monte-Carlo execution of the seven-step protocol with a pluggable attack.

Pulses are independent and identically distributed (the individual-attack
assumption), so a run is a multinomial over branch-and-outcome classes.
Randomness comes from counter-based Philox4x64 keyed by the seed: pulse i
consumes the four-word block at counter i, so results are bit-for-bit
reproducible and independent of how the run is chunked or parallelized.

Each pulse is decided from its raw 64-bit words by integer thresholds:
word 0's top bit is Alice's bit, and the 53-bit draws m = w >> 11 of words
1 and 2 are compared against the branch and outcome CDFs turned into
thresholds k = ceil(c * 2**53), clipped to [0, 2**53].  Since
c <= m * 2**-53 exactly when m >= k, the counts equal those of drawing the
uniforms u = m * 2**-53 and inverting the CDFs in floating point.  The
outcome CDFs come from one :func:`~b92sec.states.outcome_table` call over
Alice's two signal angles plus every branch's rotations
(:func:`outcome_distribution`).

Most pulses skip the comparisons.  A class table indexed by Alice's bit and
the top 7 bits of each draw holds, for every pair of draw buckets, the class
(bit, branch, outcome) that all draws in them share, or a marker where a
bucket straddles a threshold.  Only the marked pulses, 0.2-3 % of them with
the benchmark's attacks, are compared against the thresholds, so the counts
are those of comparing every pulse.  On a 2-core VM (Python 3.11, numpy
2.4) this samples about 3.3e7 pulses per second; the README's "Simulator"
entry gives the timing command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.random import Philox

from .attacks import AttackChannel, parse_attack
from .errors import DomainError, _key_values, is_integer, require
from .estimation import ChannelTriple, ObservedCounts, estimate_channel
from .keyrate import KeyGains, secret_key_gain
from .states import OUTCOMES, outcome_table

_WORDS_PER_PULSE = 4
# pulses drawn per Philox call; the counts do not depend on it
_PULSES_PER_BLOCK = 1 << 14
# top bits of each draw that index the class table
_BUCKET_BITS = 7
_CONFIG_KEYS = ("n_total", "alpha_deg", "alpha_prime_deg", "attack", "seed")


@dataclass(frozen=True)
class SimConfig:
    """One protocol run: pulse count, angles, attack channel and RNG seed."""

    n_total: int
    alpha_prime: float
    alpha: float
    attack: AttackChannel
    seed: int

    def __post_init__(self):
        if not is_integer(self.n_total) or self.n_total < 1:
            raise DomainError(f"n_total must be an integer of at least 1: {self.n_total!r}")
        if not is_integer(self.seed) or not 0 <= self.seed < 1 << 128:
            raise DomainError(f"seed must be an integer in [0, 2**128): {self.seed!r}")
        for name in ("alpha", "alpha_prime"):
            value = getattr(self, name)
            require(value, (0.0 <= value) & (value <= math.pi / 2.0), f"{name} outside [0, pi/2]")

    @classmethod
    def from_file(cls, path) -> "SimConfig":
        """Read a ``key = value`` config file.

        Keys: ``n_total``, ``alpha_deg``, ``alpha_prime_deg`` (defaults to
        ``alpha_deg``), ``attack`` (description string, see
        :func:`b92sec.attacks.parse_attack`), ``seed``.  ``#`` starts a
        comment.  An unknown or repeated key raises :class:`DomainError`
        naming the key.
        """
        lines = (line.split("#", 1)[0].strip() for line in Path(path).read_text().splitlines())
        entries = _key_values(filter(None, lines), _CONFIG_KEYS, {}, f"config file {path}")
        try:
            alpha = math.radians(float(entries["alpha_deg"]))
            alpha_prime = math.radians(float(entries["alpha_prime_deg"])) \
                if "alpha_prime_deg" in entries else alpha
            return cls(
                n_total=int(entries["n_total"]),
                alpha_prime=alpha_prime,
                alpha=alpha,
                attack=parse_attack(entries.get("attack", "identity"), alpha_prime),
                seed=int(entries.get("seed", "0")),
            )
        except KeyError as missing:
            raise DomainError(f"config file misses required key {missing}") from None
        except DomainError:  # a ValueError too; keep its own message
            raise
        except ValueError as exc:
            raise DomainError(f"bad value in config file {path}: {exc}") from None


@dataclass(frozen=True)
class SimResult:
    """Counters, estimate and the joint counts indexed [bit][branch][outcome].

    ``joint`` holds the pulses per Alice bit, attack branch and Bob outcome
    (``OUTCOMES`` order) as nested tuples of ints.  ``simulate`` writes
    ``dataclasses.asdict`` of a result as its JSON record, fields in this
    order.
    """

    counts: ObservedCounts
    conclusive_error_rate: float | None
    eve_accuracy_correct: float | None
    estimated: ChannelTriple
    joint: tuple[tuple[tuple[int, ...], ...], ...]


def outcome_distribution(config: SimConfig) -> np.ndarray:
    """Bob's outcome probabilities per (bit, branch), shape (2, n_branches, 5).

    Alice's signal for bit j sits at -+alpha'; a branch adds its rotation for
    that bit, and a vacuum branch delivers no photon (T = 0).
    """
    branches = config.attack.branches
    phi = (np.array([[-config.alpha_prime], [config.alpha_prime]])
           + np.array([br.rotations for br in branches]).T)
    vacuum = np.array([br.to_vacuum for br in branches])
    return outcome_table(config.alpha, phi, 1.0, 1.0 - vacuum)


def run_simulation(config: SimConfig) -> SimResult:
    """Execute the protocol and close the loop through the estimator.

    Per pulse: draw Alice's bit uniformly, draw the attack branch from its
    bit-conditional weights, draw Bob's outcome from the branch's POVM
    distribution; accumulate the (bit, outcome) counters, classify
    conclusive events, and track Eve's per-branch guesses against the
    surviving correct bits.
    """
    branches = config.attack.branches
    n_branches, n_outcomes = len(branches), len(OUTCOMES)
    weight_cdf = np.cumsum([[br.weights[bit] for br in branches] for bit in (0, 1)], axis=1)
    outcome_cdf = np.cumsum(outcome_distribution(config), axis=2).reshape(
        2 * n_branches, n_outcomes)
    # a pulse's index is the number of CDF entries its draw reaches; the last
    # entry is left out, so a draw past it lands in the last class.  Entries
    # c <= 0 get k = 0, which every draw reaches, and entries c > 1 - 2**-53
    # get k = 2**53, which none does.
    branch_thr, outcome_thr = (
        np.clip(np.ceil(cdf[:, :-1] * 2.0 ** 53), 0.0, 2.0 ** 53).astype(np.uint64)
        for cdf in (weight_cdf, outcome_cdf))
    guesses = np.array([-1 if br.guess is None else br.guess for br in branches])

    def branch_row(bit, draw1):  # row = bit * B + branch
        row = bit * n_branches
        for col in branch_thr.T:
            row = row + (draw1 >= col[bit])
        return row

    def cell(row, draw2):  # class = row * 5 + outcome
        flat = row * n_outcomes
        for col in outcome_thr.T:
            flat = flat + (draw2 >= col[row])
        return flat

    # the class table: a class never decreases as either draw grows, so a
    # bucket of draws sharing their top _BUCKET_BITS bits whose lowest and
    # highest draws give the same row, and then the same class, gives that
    # class to every draw in it; the other buckets map to the extra class
    # `cells`, whose pulses are decided from their full words
    cells = 2 * n_branches * n_outcomes
    buckets = np.arange(1 << _BUCKET_BITS, dtype=np.uint64)
    shift = np.uint64(53 - _BUCKET_BITS)
    low, high = buckets << shift, ((buckets + np.uint64(1)) << shift) - np.uint64(1)
    bits = np.indices((2, buckets.size))[0]  # a full grid, for B = 1 too
    row_low, row_high = branch_row(bits, low), branch_row(bits, high)
    rows = np.arange(2 * n_branches)[:, np.newaxis]
    cell_low, cell_high = cell(rows, low), cell(rows, high)
    row_cells = np.where(cell_low == cell_high, cell_low, cells)  # (row, d2-bucket)
    table = np.where((row_low == row_high)[:, :, np.newaxis], row_cells[row_low],
                     cells).astype(np.min_scalar_type(cells)).ravel()  # [bit, d1, d2]

    joint = np.zeros(cells, dtype=np.int64)
    stream = Philox(key=config.seed, counter=0)
    top = np.uint64(64 - _BUCKET_BITS)
    for start in range(0, config.n_total, _PULSES_PER_BLOCK):
        count = min(_PULSES_PER_BLOCK, config.n_total - start)
        words = stream.random_raw(_WORDS_PER_PULSE * count).reshape(count, _WORDS_PER_PULSE)
        key = words[:, 0] >> np.uint64(63)  # Alice's bit, then each draw's top bits
        for draw in (1, 2):
            key <<= np.uint64(_BUCKET_BITS)
            key |= words[:, draw] >> top
        flat = table[key.view(np.int64)]
        tally = np.bincount(flat, minlength=cells + 1)
        joint += tally[:cells]
        straddling = np.compress(flat == cells, words, axis=0)
        bit = (straddling[:, 0] >> np.uint64(63)).astype(np.intp)
        row = branch_row(bit, straddling[:, 1] >> np.uint64(11))
        joint += np.bincount(cell(row, straddling[:, 2] >> np.uint64(11)), minlength=cells)
    joint = joint.reshape(2, n_branches, n_outcomes)

    counts = ObservedCounts.from_table(config.n_total, joint.sum(axis=1))

    # outcome "1b" decodes to received bit 0, "0b" to received bit 1
    conclusive = counts.n0b0 + counts.n0b1 + counts.n1b0 + counts.n1b1
    errors = counts.n0b0 + counts.n1b1
    error_rate = errors / conclusive if conclusive else None

    # surviving correct bits per (bit, branch), outcome 1b for bit 0 and 0b for
    # bit 1, against the bit Eve recorded in each branch
    correct = joint[[0, 1], :, [OUTCOMES.index("1b"), OUTCOMES.index("0b")]]
    recorded = int(correct[:, guesses >= 0].sum())
    matched = int(correct[guesses == np.arange(2)[:, np.newaxis]].sum())
    accuracy = matched / recorded if recorded else None

    estimated = estimate_channel(counts, config.alpha)
    return SimResult(counts=counts, conclusive_error_rate=error_rate,
                     eve_accuracy_correct=accuracy, estimated=estimated,
                     joint=tuple(tuple(map(tuple, plane)) for plane in joint.tolist()))


def closed_loop_report(config: SimConfig, mode: str = "collision",
                       ) -> tuple[SimResult, KeyGains]:
    """Run the simulation and push the estimated channel through the key gain.

    Returns the run and :func:`~b92sec.keyrate.secret_key_gain`'s
    :class:`~b92sec.keyrate.KeyGains`, with fields of shape (), at the
    estimated channel.
    """
    if abs(config.alpha_prime - config.alpha) > 1e-12:  # both lie in [0, pi/2]
        raise DomainError("key-gain accounting assumes alpha_prime = alpha")
    result = run_simulation(config)
    return result, secret_key_gain(config.alpha, result.estimated, mode)
