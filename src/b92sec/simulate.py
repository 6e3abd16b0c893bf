"""Monte-Carlo execution of the seven-step protocol with a pluggable attack.

Pulses are independent and identically distributed (the individual-attack
assumption), and the closed loop reads only how many pulses fall in each
(bit, branch, outcome) class.  So a run is one multinomial draw of
``n_total`` pulses over the 2 * B * 5 classes of an attack with B branches:
class (j, b, mu) has probability 1/2 * (bit j's weight of branch b) *
Tr[E_mu rho_jb], from one :func:`~b92sec.states.outcome_table` call over
Alice's two signal angles plus every branch's rotations
(:func:`outcome_distribution`).  Classes of probability 0 are left out of the
draw and stay exactly 0.

The draw comes from ``Generator(Philox(key=seed)).multinomial``, so the
counts are a function of the seed and the config alone, and a run costs the
same at any pulse count: on a 2-core VM (Python 3.11, numpy 2.4)
:func:`run_simulation` takes about 0.07-0.13 ms at 1e7 and at 1e9 pulses;
the README's "Simulator" entry gives the timing command.  Counts drawn this way
differ from those of the earlier per-pulse sampler for every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.random import Generator, Philox

from .attacks import AttackChannel, parse_attack
from .errors import DomainError, EstimationInfeasibleError, _key_values, is_integer, require
from .estimation import ChannelTriple, ObservedCounts, estimate_channel
from .keyrate import KeyGains, secret_key_gain
from .states import OUTCOMES, outcome_table

_CONFIG_KEYS = ("n_total", "alpha_deg", "alpha_prime_deg", "attack", "seed")
# Bob's outcome on a surviving correct bit, by Alice's bit: "1b" decodes to 0, "0b" to 1
_CORRECT = (OUTCOMES.index("1b"), OUTCOMES.index("0b"))


@dataclass(frozen=True)
class SimConfig:
    """One protocol run: pulse count, angles, attack channel and RNG seed."""

    n_total: int
    alpha_prime: float
    alpha: float
    attack: AttackChannel
    seed: int

    def __post_init__(self):
        # numpy's multinomial takes the pulse count as a signed 64-bit integer
        if not is_integer(self.n_total) or not 1 <= self.n_total < 1 << 63:
            raise DomainError(f"n_total must be an integer in [1, 2**63): {self.n_total!r}")
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
    order.  ``estimated`` is None where the estimator rejected the counts;
    :func:`require_estimate` raises its error again.
    """

    counts: ObservedCounts
    conclusive_error_rate: float | None
    eve_accuracy_correct: float | None
    estimated: ChannelTriple | None
    joint: tuple[tuple[tuple[int, ...], ...], ...]


def outcome_distribution(config: SimConfig) -> np.ndarray:
    """Bob's outcome probabilities per (bit, branch), shape (2, n_branches, 5).

    Alice's signal for bit j sits at -+alpha'; a branch adds its rotation for
    that bit, and a vacuum branch delivers no photon (T = 0).
    """
    branches = config.attack.branches
    phi = np.array([[sign * config.alpha_prime + br.rotations[bit] for br in branches]
                    for bit, sign in enumerate((-1.0, 1.0))])
    transmission = np.array([0.0 if br.to_vacuum else 1.0 for br in branches])
    return outcome_table(config.alpha, phi, 1.0, transmission)


def run_simulation(config: SimConfig) -> SimResult:
    """Execute the protocol and close the loop through the estimator.

    Draw the pulses' (bit, branch, outcome) classes in one multinomial, Alice's
    bit uniform, the attack branch from its bit-conditional weights and Bob's
    outcome from the branch's POVM distribution; sum the (bit, outcome)
    counters, classify conclusive events, and track Eve's per-branch guesses
    against the surviving correct bits.  Counts the estimator rejects are
    still returned, with no estimate.
    """
    branches = config.attack.branches
    weights = np.array([br.weights for br in branches]).T  # [bit, branch]
    p = 0.5 * weights[:, :, np.newaxis] * outcome_distribution(config)
    # draw over the classes that can occur, so a class of probability 0
    # stays 0; numpy gives the rounding remainder to the last drawn class
    live = p > 0.0
    joint = np.zeros(p.shape, dtype=np.int64)
    joint[live] = Generator(Philox(key=config.seed)).multinomial(config.n_total, p[live])
    counts = ObservedCounts.from_table(config.n_total, joint.sum(axis=1))

    # outcome "1b" decodes to received bit 0, "0b" to received bit 1
    conclusive = counts.n0b0 + counts.n0b1 + counts.n1b0 + counts.n1b1
    errors = counts.n0b0 + counts.n1b1
    error_rate = errors / conclusive if conclusive else None

    # surviving correct bits per (bit, branch), outcome 1b for bit 0 and 0b for
    # bit 1, against the bit Eve recorded in each branch
    planes = joint.tolist()
    guesses = [-1 if br.guess is None else br.guess for br in branches]
    correct = [[cells[k] for cells in plane] for plane, k in zip(planes, _CORRECT)]
    recorded = sum(n for row in correct for n, guess in zip(row, guesses) if guess >= 0)
    matched = sum(n for bit, row in enumerate(correct)
                  for n, guess in zip(row, guesses) if guess == bit)
    accuracy = matched / recorded if recorded else None

    try:
        estimated = estimate_channel(counts, config.alpha)
    except EstimationInfeasibleError:
        estimated = None
    return SimResult(counts=counts, conclusive_error_rate=error_rate,
                     eve_accuracy_correct=accuracy, estimated=estimated,
                     joint=tuple(tuple(map(tuple, plane)) for plane in planes))


def require_matched_angles(config: SimConfig) -> None:
    """Raise :class:`DomainError` unless alpha' = alpha, as the key gain assumes."""
    if abs(config.alpha_prime - config.alpha) > 1e-12:  # both lie in [0, pi/2]
        raise DomainError("key-gain accounting assumes alpha_prime = alpha")


def require_estimate(config: SimConfig, result: SimResult) -> ChannelTriple:
    """The run's estimated channel, or the estimator's :class:`EstimationInfeasibleError`."""
    if result.estimated is None:
        estimate_channel(result.counts, config.alpha)  # raises, as it did in the run
    return result.estimated


def closed_loop_report(config: SimConfig, mode: str = "collision",
                       ) -> tuple[SimResult, KeyGains]:
    """Run the simulation and push the estimated channel through the key gain.

    Returns the run and :func:`~b92sec.keyrate.secret_key_gain`'s
    :class:`~b92sec.keyrate.KeyGains`, with fields of shape (), at the
    estimated channel; counts the estimator rejects raise
    :class:`EstimationInfeasibleError`.
    """
    require_matched_angles(config)
    result = run_simulation(config)
    return result, secret_key_gain(config.alpha, require_estimate(config, result), mode)
