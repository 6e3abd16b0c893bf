"""Monte-Carlo execution of the seven-step protocol with a pluggable attack.

Pulses are independent and identically distributed (the individual-attack
assumption), so a run is a multinomial over branch-and-outcome classes.
Randomness comes from counter-based Philox4x64 keyed by the seed: pulse i
consumes the four-word block at counter i, so results are bit-for-bit
reproducible and independent of how the run is chunked or parallelized.

Each pulse is decided from its raw 64-bit words by integer thresholds:
word 0's top bit is Alice's bit, and words 1 and 2 are compared against the
branch and outcome CDFs turned into word thresholds.  The counts equal
those of drawing the uniforms u = (w >> 11) * 2**-53 and inverting the
CDFs in floating point, whatever the block size.  On a 2-core VM (Python
3.11, numpy 2.4) this samples about 3e7 pulses per second.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from numpy.random import Philox

from .attacks import AttackChannel, parse_attack
from .errors import DomainError
from .estimation import ChannelTriple, ObservedCounts, estimate_channel
from .keyrate import KeyGainReport, secret_key_gain
from .states import OUTCOMES, make_alice_states, outcome_table, wrap_angle

# sampled counts can fluctuate slightly past the exact-arithmetic boundary
SAMPLING_CLAMP_TOL = 1e-2

_WORDS_PER_PULSE = 4
_NO_WORD = np.uint64(2 ** 64 - 1)


@dataclass(frozen=True)
class SimConfig:
    """One protocol run: pulse count, angles, attack channel and RNG seed."""

    n_total: int
    alpha_prime: float
    alpha: float
    attack: AttackChannel
    seed: int

    def __post_init__(self):
        if self.n_total < 1:
            raise DomainError(f"n_total must be at least 1: {self.n_total}")
        if not isinstance(self.seed, numbers.Integral) or not 0 <= self.seed < 1 << 128:
            raise DomainError(f"seed must be an integer in [0, 2**128): {self.seed!r}")
        for name in ("alpha", "alpha_prime"):
            if not 0.0 <= getattr(self, name) <= math.pi / 2.0:
                raise DomainError(f"{name} outside [0, pi/2]: {getattr(self, name)}")

    @classmethod
    def from_file(cls, path) -> "SimConfig":
        """Read a ``key = value`` config file.

        Keys: ``n_total``, ``alpha_deg``, ``alpha_prime_deg`` (defaults to
        ``alpha_deg``), ``attack`` (description string, see
        :func:`b92sec.attacks.parse_attack`), ``seed``.  ``#`` starts a
        comment.
        """
        entries: dict[str, str] = {}
        for line in Path(path).read_text().splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise DomainError(f"expected key = value in config line: {line!r}")
            entries[key.strip().lower()] = value.strip()
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
    (``OUTCOMES`` order) as nested tuples of ints.
    """

    counts: ObservedCounts
    conclusive_error_rate: float | None
    eve_accuracy_correct: float | None
    estimated: ChannelTriple
    joint: tuple[tuple[tuple[int, ...], ...], ...]

    def record(self) -> dict:
        """The run as the dict ``json.dumps`` writes for ``simulate``."""
        est = self.estimated
        return {
            "counts": asdict(self.counts),
            "conclusive_error_rate": self.conclusive_error_rate,
            "eve_accuracy_correct": self.eve_accuracy_correct,
            "estimated": {"theta": est.theta, "epsilon": est.epsilon,
                          "transmission": est.transmission,
                          "clamped": est.clamped},
            "joint": self.joint,
        }


def _word_thresholds(cdf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer form of ``c <= u`` for u = (w >> 11) * 2**-53, per CDF entry c.

    c <= u exactly when w >= ceil(c * 2**53) << 11.  Returns, per row, the
    number of entries every word reaches (c <= 0), and uint64 thresholds t
    with c <= u exactly when w > t.  The strict form lets the all-ones word
    miss an entry no uniform reaches (c > 1 - 2**-53); both kinds of entry
    get threshold 2**64 - 1, which no word exceeds.
    """
    k = np.ceil(cdf * 2.0 ** 53)
    always, never = k <= 0, k >= 2.0 ** 53
    words = (np.clip(k, 1, 2.0 ** 53 - 1).astype(np.uint64) << np.uint64(11)) - np.uint64(1)
    return always.sum(axis=1), np.where(always | never, _NO_WORD, words)


def outcome_distribution(config: SimConfig) -> np.ndarray:
    """Bob's outcome probabilities per (bit, branch), shape (2, n_branches, 5)."""
    outputs = [[config.attack.output(bit, state.phi, branch)
                for branch in config.attack.branches]
               for bit, state in enumerate(make_alice_states(config.alpha_prime))]
    vacuum, phi = np.array(outputs).transpose(2, 0, 1)
    return outcome_table(config.alpha, phi, 1.0, 1.0 - vacuum)


def run_simulation(config: SimConfig, block_size: int = 1 << 14) -> SimResult:
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
    # a pulse's index is the number of CDF entries its word reaches; the last
    # entry is left out, so a word past it lands in the last class
    branch_always, branch_thr = _word_thresholds(weight_cdf[:, :-1])
    outcome_always, outcome_thr = _word_thresholds(outcome_cdf[:, :-1])
    row_base = np.arange(2) * n_branches + branch_always  # row = bit * B + branch
    flat_base = np.arange(2 * n_branches) * n_outcomes + outcome_always
    guesses = np.array([-1 if br.guess is None else br.guess for br in branches])

    joint = np.zeros(2 * n_branches * n_outcomes, dtype=np.int64)
    stream = Philox(key=config.seed, counter=0)
    for start in range(0, config.n_total, block_size):
        count = min(block_size, config.n_total - start)
        words = stream.random_raw(_WORDS_PER_PULSE * count).reshape(count, _WORDS_PER_PULSE)
        bit = (words[:, 0] >> np.uint64(63)).astype(np.intp)
        row = row_base[bit]
        for col in branch_thr.T:
            row += words[:, 1] > col[bit]
        flat = flat_base[row]
        for col in outcome_thr.T:
            flat += words[:, 2] > col[row]
        joint += np.bincount(flat, minlength=joint.size)
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

    estimated = estimate_channel(counts, config.alpha, clamp_tol=SAMPLING_CLAMP_TOL)
    return SimResult(counts=counts, conclusive_error_rate=error_rate,
                     eve_accuracy_correct=accuracy, estimated=estimated,
                     joint=tuple(tuple(map(tuple, plane)) for plane in joint.tolist()))


def closed_loop_report(config: SimConfig, mode: str = "collision",
                       ) -> tuple[SimResult, KeyGainReport]:
    """Run the simulation and push the estimated channel through the key gain."""
    if abs(wrap_angle(config.alpha_prime - config.alpha)) > 1e-12:
        raise DomainError("key-gain accounting assumes alpha_prime = alpha")
    result = run_simulation(config)
    report = secret_key_gain(config.alpha, result.estimated, mode)
    return result, report
