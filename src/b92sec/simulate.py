"""Monte-Carlo execution of the seven-step protocol with a pluggable attack.

Pulses are independent and identically distributed (the individual-attack
assumption), so a run is a multinomial over branch-and-outcome classes.
Randomness comes from counter-based Philox4x64 keyed by the seed: pulse i
consumes the four-word block at counter i, so results are bit-for-bit
reproducible and independent of how the run is chunked or parallelized.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.random import Philox

from .attacks import AttackChannel, parse_attack
from .errors import DomainError
from .estimation import ChannelTriple, ObservedCounts, estimate_channel
from .keyrate import KeyGainReport, secret_key_gain
from .states import OUTCOMES, Povm5, SignalDensity, make_alice_states, wrap_angle

# sampled counts can fluctuate slightly past the exact-arithmetic boundary
SAMPLING_CLAMP_TOL = 1e-2

_WORDS_PER_PULSE = 4
_U53 = 2.0 ** -53


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


@dataclass(frozen=True)
class SimResult:
    counts: ObservedCounts
    conclusive_error_rate: float | None
    eve_accuracy_correct: float | None
    estimated: ChannelTriple

    def to_json(self) -> str:
        est = self.estimated
        return json.dumps({
            "counts": json.loads(self.counts.to_json()),
            "conclusive_error_rate": self.conclusive_error_rate,
            "eve_accuracy_correct": self.eve_accuracy_correct,
            "estimated": {"theta": est.theta, "epsilon": est.epsilon,
                          "transmission": est.transmission,
                          "clamped": est.clamped},
        })


def _pulse_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms in [0, 1), shape (count, 3), for pulses [start, start+count)."""
    raw = Philox(key=seed, counter=start).random_raw(_WORDS_PER_PULSE * count)
    words = raw.reshape(count, _WORDS_PER_PULSE)[:, :3]
    return (words >> np.uint64(11)) * _U53


def outcome_distribution(config: SimConfig) -> np.ndarray:
    """Bob's outcome probabilities per (bit, branch), shape (2, n_branches, 5)."""
    povm = Povm5(config.alpha)
    state0, state1 = make_alice_states(config.alpha_prime)
    inputs = (state0.phi, state1.phi)
    table = np.empty((2, len(config.attack.branches), len(OUTCOMES)))
    for bit in (0, 1):
        for b, branch in enumerate(config.attack.branches):
            vac, phi = config.attack.output(bit, inputs[bit], branch)
            if vac:
                state = SignalDensity.vacuum()
            else:
                state = SignalDensity(1.0, (math.sin(phi), 0.0, math.cos(phi)))
            table[bit, b] = [povm.probability(label, state) for label in OUTCOMES]
    return table


def run_simulation(config: SimConfig, block_size: int = 1 << 20) -> SimResult:
    """Execute the protocol and close the loop through the estimator.

    Per pulse: draw Alice's bit uniformly, draw the attack branch from its
    bit-conditional weights, draw Bob's outcome from the branch's POVM
    distribution; accumulate the (bit, outcome) counters, classify
    conclusive events, and track Eve's per-branch guesses against the
    surviving correct bits.
    """
    branches = config.attack.branches
    weight_cdf = np.empty((2, len(branches)))
    for bit in (0, 1):
        weight_cdf[bit] = np.cumsum([br.weights[bit] for br in branches])
    outcome_cdf = np.cumsum(outcome_distribution(config), axis=2)
    guesses = np.array([-1 if br.guess is None else br.guess for br in branches])

    joint = np.zeros((2, len(branches), len(OUTCOMES)), dtype=np.int64)
    for start in range(0, config.n_total, block_size):
        count = min(block_size, config.n_total - start)
        u = _pulse_uniforms(config.seed, start, count)
        bits = (u[:, 0] >= 0.5).astype(np.intp)
        branch = np.empty(count, dtype=np.intp)
        outcome = np.empty(count, dtype=np.intp)
        for bit in (0, 1):
            mask = bits == bit
            branch[mask] = np.searchsorted(weight_cdf[bit], u[mask, 1], side="right")
        np.clip(branch, 0, len(branches) - 1, out=branch)
        for bit in (0, 1):
            for b in range(len(branches)):
                mask = (bits == bit) & (branch == b)
                if not mask.any():
                    continue
                outcome[mask] = np.searchsorted(outcome_cdf[bit, b], u[mask, 2],
                                                side="right")
        np.clip(outcome, 0, len(OUTCOMES) - 1, out=outcome)
        flat = (bits * len(branches) + branch) * len(OUTCOMES) + outcome
        joint += np.bincount(flat, minlength=joint.size).reshape(joint.shape)

    counts = ObservedCounts.from_table(config.n_total, joint.sum(axis=1))

    # outcome "1b" decodes to received bit 0, "0b" to received bit 1
    conclusive = counts.n0b0 + counts.n0b1 + counts.n1b0 + counts.n1b1
    errors = counts.n0b0 + counts.n1b1
    error_rate = errors / conclusive if conclusive else None

    accuracy = None
    recorded = matched = 0
    for bit in (0, 1):
        correct_outcome = OUTCOMES.index("1b" if bit == 0 else "0b")
        for b in range(len(branches)):
            if guesses[b] < 0:
                continue
            n = int(joint[bit, b, correct_outcome])
            recorded += n
            if guesses[b] == bit:
                matched += n
    if recorded:
        accuracy = matched / recorded

    estimated = estimate_channel(counts, config.alpha, clamp_tol=SAMPLING_CLAMP_TOL)
    return SimResult(counts=counts, conclusive_error_rate=error_rate,
                     eve_accuracy_correct=accuracy, estimated=estimated)


def closed_loop_report(config: SimConfig, mode: str = "collision",
                       ) -> tuple[SimResult, KeyGainReport]:
    """Run the simulation and push the estimated channel through the key gain."""
    if abs(wrap_angle(config.alpha_prime - config.alpha)) > 1e-12:
        raise DomainError("key-gain accounting assumes alpha_prime = alpha")
    result = run_simulation(config)
    report = secret_key_gain(config.alpha, result.estimated, mode)
    return result, report
