"""Explicit individual attacks that reach Eve's full-information region.

Attacks are finite mixtures of branches.  Each branch fires with a
probability that may depend on Alice's bit (measurement back-action),
rotates the signal in the Bloch x-z plane by a per-bit angle or absorbs
the photon, and leaves Eve a record from which she will guess surviving
correct bits.  This covers the pure rotation attack, the
weak-measurement-then-rotate attack, and the depolarize/loss test
channels, alone or composed in sequence.  A channel is its tuple of
branches and nothing more: the simulator reads each branch's weights,
rotations and vacuum flag straight into its outcome table and samples the
branches, and the description string that :func:`parse_attack` reads is
its only name.  Rotations add to the signal angle unreduced; angles that
differ by 2 pi give the same state.

The two explicit attacks exist at every signal angle in (0, pi/2).  The
weak measurement's critical weakness, where its output is symmetric, is
the one real root of a cubic (:func:`critical_weakness`); past 45 degrees
the rotated signals pass the opposite pole and the symmetrized channel
has tilt pi.  The module builds channels only: the noise rate of each
attack's symmetrized channel, and the balance condition behind the
critical weakness, are check code in the test suite, which compares them
with the symmetrized output of these channels.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

from .errors import DomainError, _key_values, require

# Newton steps of critical_weakness; from q = 0 the third step is within a
# relative 3e-14 of the root at every signal angle, the fourth reaches rounding
NEWTON_STEPS = 4


def _check_signal_angle(alpha: float) -> None:
    require(alpha, (0.0 < alpha) & (alpha < math.pi / 2.0), "signal angle outside (0, pi/2)")


@dataclass(frozen=True)
class AttackBranch:
    """One branch of an attack channel.

    ``weights[j]`` is the branch probability given Alice's bit j; the two
    weight vectors over all branches of a channel each sum to one.
    ``rotations[j]`` is the Bloch-plane angle added to the signal (the
    branch may include measurement back-action, hence the bit dependence).
    ``guess`` is the bit value Eve records for this branch, or None.
    """

    weights: tuple[float, float]
    rotations: tuple[float, float] = (0.0, 0.0)
    guess: int | None = None
    to_vacuum: bool = False


@dataclass(frozen=True)
class AttackChannel:
    branches: tuple[AttackBranch, ...]

    def __post_init__(self):
        for j in (0, 1):
            total = sum(br.weights[j] for br in self.branches)
            if abs(total - 1.0) > 1e-9:
                raise DomainError(
                    f"branch weights for bit {j} sum to {total}, expected 1")

    def compose(self, other: "AttackChannel") -> "AttackChannel":
        """This channel followed by ``other`` (product of branch mixtures).

        Vacuum absorbs: once the photon is gone, later rotations are inert.
        The later non-None guess wins, mirroring an eavesdropper who updates
        her record as stages fire.
        """
        branches = []
        for first in self.branches:
            for second in other.branches:
                weights = (first.weights[0] * second.weights[0],
                           first.weights[1] * second.weights[1])
                if weights[0] <= 0.0 and weights[1] <= 0.0:
                    continue
                branches.append(AttackBranch(
                    weights=weights,
                    rotations=(first.rotations[0] + second.rotations[0],
                               first.rotations[1] + second.rotations[1]),
                    guess=second.guess if second.guess is not None else first.guess,
                    to_vacuum=first.to_vacuum or second.to_vacuum,
                ))
        return AttackChannel(tuple(branches))


def identity_attack() -> AttackChannel:
    return AttackChannel((AttackBranch(weights=(1.0, 1.0)),))


def rotation_attack(alpha: float) -> AttackChannel:
    """Equal mixture of +-2 alpha Bloch rotations, with Eve's guess per branch.

    Rotating by -2 alpha maps Alice's bit-1 state onto the bit-0 state, so
    any surviving correct bit in that branch must be 0 (and symmetrically
    for +2 alpha).  The symmetrized channel it produces has
    eps = 1 - |cos 2 alpha| and T = 1, with tilt pi past 45 degrees, where
    the rotated signals pass the opposite pole.
    """
    _check_signal_angle(alpha)
    return AttackChannel((
        AttackBranch(weights=(0.5, 0.5), rotations=(2.0 * alpha, 2.0 * alpha), guess=1),
        AttackBranch(weights=(0.5, 0.5), rotations=(-2.0 * alpha, -2.0 * alpha), guess=0),
    ))


def outcome_probability(q: float, alpha: float, bit: int, plus: bool) -> float:
    """p_{j,+-}: weak-measurement outcome probability for Alice's bit."""
    sign = -1.0 if bit == 0 else 1.0
    direction = 1.0 if plus else -1.0
    return 0.5 * (1.0 + direction * (1.0 - 2.0 * q) * math.sin(sign * alpha))


def post_measurement_angle(q: float, alpha: float) -> float:
    """Bloch angle between the two post-measurement states.

    beta = 2 atan2(2 sin(alpha) sqrt(q (1 - q)), cos alpha), monotone
    increasing from 0 (projective, q = 0) to 2 alpha (no measurement,
    q = 1/2).
    """
    require(q, (0.0 <= q) & (q <= 0.5), "weakness parameter outside [0, 1/2]")
    return 2.0 * math.atan2(2.0 * math.sin(alpha) * math.sqrt(q * (1.0 - q)),
                            math.cos(alpha))


def weak_measurement_attack(q: float, alpha: float) -> AttackChannel:
    """Weak x-basis measurement, then a rotation conditioned on the outcome.

    Outcome "+" rotates the post-measurement bit-0 state exactly onto the
    bit-1 signal (so correct bits in that branch are certainly 1); outcome
    "-" mirrors this.  At q = 1/2 the measurement is trivial and the attack
    reduces to the pure rotation attack.
    """
    _check_signal_angle(alpha)
    beta = post_measurement_angle(q, alpha)
    weights_plus = (outcome_probability(q, alpha, 0, True),
                    outcome_probability(q, alpha, 1, True))
    weights_minus = (outcome_probability(q, alpha, 0, False),
                     outcome_probability(q, alpha, 1, False))
    # per-bit rotations so that outputs land at (alpha, alpha + beta) for "+"
    # and (-alpha - beta, -alpha) for "-"
    return AttackChannel((
        AttackBranch(weights=weights_plus, rotations=(2.0 * alpha, beta), guess=1),
        AttackBranch(weights=weights_minus, rotations=(-beta, -2.0 * alpha), guess=0),
    ))


def critical_weakness(alpha: float) -> float:
    """The non-trivial weakness q0 at which the attack output is symmetric.

    The balance condition has two roots in [0, 1/2]; q = 1/2 is the pure
    rotation attack, and q0 < 1/2 gives the smaller noise rate (the lower
    edge of the full-information region).  With s = sin alpha and
    k = 1 - 2q the condition reads sqrt(1 - k^2) = (1 - k s)^2; squaring and
    removing the trivial root k = 0 leaves an increasing cubic in k with
    one real root, in (0, 1).  In q the cubic is

        g(q) = (1 - s)^4 - 2 (3 s^4 - 8 s^3 + 6 s^2 + 1) q
               + (12 s^4 - 16 s^3) q^2 - 8 s^4 q^3,

    decreasing and concave on q >= 0, so Newton's method from q = 0 lands
    above q0 and then descends to it.  1 - s is taken as cos^2(alpha) /
    (1 + s), so q0 ~ (1 - s)^4 / 4 keeps its relative accuracy as alpha
    approaches pi/2.
    """
    _check_signal_angle(alpha)
    s = math.sin(alpha)
    c0 = (math.cos(alpha) ** 2 / (1.0 + s)) ** 4
    c1 = -2.0 * (3.0 * s ** 4 - 8.0 * s ** 3 + 6.0 * s ** 2 + 1.0)
    c2 = 12.0 * s ** 4 - 16.0 * s ** 3
    c3 = -8.0 * s ** 4
    q = 0.0
    for _ in range(NEWTON_STEPS):
        q -= (c0 + q * (c1 + q * (c2 + q * c3))) / (c1 + q * (2.0 * c2 + 3.0 * q * c3))
    return q


def depolarize(epsilon: float) -> AttackChannel:
    """Isotropic in-plane noise: flip to the orthogonal state with probability eps/2."""
    require(epsilon, (0.0 <= epsilon) & (epsilon <= 1.0), "noise parameter outside [0, 1]")
    return AttackChannel((
        AttackBranch(weights=(1.0 - 0.5 * epsilon,) * 2),
        AttackBranch(weights=(0.5 * epsilon,) * 2, rotations=(math.pi, math.pi)),
    ))


def loss(transmission: float) -> AttackChannel:
    """Bit-independent photon loss."""
    require(transmission, (0.0 <= transmission) & (transmission <= 1.0),
            "transmission outside [0, 1]")
    return AttackChannel((
        AttackBranch(weights=(transmission,) * 2),
        AttackBranch(weights=(1.0 - transmission,) * 2, to_vacuum=True),
    ))


def mix(first: AttackChannel, second: AttackChannel, weight: float) -> AttackChannel:
    """Per-pulse mixture: ``first`` with probability ``weight``, else ``second``."""
    require(weight, (0.0 <= weight) & (weight <= 1.0), "mixture weight outside [0, 1]")
    branches = []
    for scale, channel in ((weight, first), (1.0 - weight, second)):
        if scale <= 0.0:
            continue
        for br in channel.branches:
            branches.append(replace(br, weights=(scale * br.weights[0], scale * br.weights[1])))
    return AttackChannel(tuple(branches))


# --- attack description strings ---------------------------------------------------

_STAGE_RE = re.compile(r"^\s*([a-zA-Z-]+)\s*(?:\(([^)]*)\))?\s*$")


# stage name -> (builder taking alpha and the parameters in order,
#                parameter defaults, None where the key is required)
_STAGES = {
    "identity": (lambda alpha: identity_attack(), {}),
    "rotation": (rotation_attack, {}),
    "weak-meas": (lambda alpha, q: weak_measurement_attack(q, alpha), {"q": None}),
    "mixed": (lambda alpha, q, lam: mix(weak_measurement_attack(q, alpha),
                                        rotation_attack(alpha), lam),
              {"q": None, "lambda": 0.5}),
    "depolarize": (lambda alpha, epsilon: depolarize(epsilon), {"epsilon": 0.0}),
    "loss": (lambda alpha, t: loss(t), {"t": 1.0}),
}
_STAGES["weak"] = _STAGES["weak-meas"]
_KEY_ALIASES = {"eps": "epsilon", "lam": "lambda", "transmission": "t"}


def parse_attack(text: str, alpha: float) -> AttackChannel:
    """Build a channel from a description like ``depolarize(epsilon=0.1)|loss(T=0.8)``.

    Stages separated by ``|`` compose in order.  Available stages:
    ``identity``, ``rotation``, ``weak-meas(q=...)``,
    ``mixed(q=..., lambda=...)``, ``depolarize(epsilon=...)``, ``loss(T=...)``;
    ``eps``, ``lam`` and ``transmission`` are accepted as key aliases.  The
    protocol angle ``alpha`` parametrizes the rotation-based attacks.  An
    unknown, repeated, missing or non-numeric key raises
    :class:`DomainError` naming the stage and the key.
    """
    channel = None
    for stage_text in text.split("|"):
        match = _STAGE_RE.match(stage_text)
        if not match:
            raise DomainError(f"cannot parse attack stage: {stage_text!r}")
        stage = _build_stage(match.group(1).lower(), match.group(2), alpha)
        channel = stage if channel is None else channel.compose(stage)
    return channel


def _build_stage(name: str, arg_text: str | None, alpha: float) -> AttackChannel:
    if name not in _STAGES:
        raise DomainError(f"unknown attack stage: {name!r}")
    build, defaults = _STAGES[name]
    values = dict(defaults)
    items = arg_text.split(",") if arg_text else ()
    for param, value in _key_values(items, defaults, _KEY_ALIASES,
                                    f"attack stage {name!r}").items():
        try:
            values[param] = float(value)
        except ValueError:
            raise DomainError(f"attack stage {name!r}: key {param!r} needs a number, "
                              f"got {value!r}") from None
    missing = [param for param, value in values.items() if value is None]
    if missing:
        raise DomainError(f"attack stage {name!r} misses required key {missing[0]!r}")
    return build(alpha, *values.values())
