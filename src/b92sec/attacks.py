"""Explicit individual attacks that reach Eve's full-information region.

Attacks are finite mixtures of branches.  Each branch fires with a
probability that may depend on Alice's bit (measurement back-action),
rotates the signal in the Bloch x-z plane by a per-bit angle or absorbs
the photon, and leaves Eve a record from which she will guess surviving
correct bits.  This covers the pure rotation attack, the
weak-measurement-then-rotate attack, and the depolarize/loss test
channels, alone or composed in sequence.

The two explicit attacks exist at every signal angle in (0, pi/2).  The
weak measurement's critical weakness, where its output is symmetric, is
the one real root of a cubic (:func:`critical_weakness`); past 45 degrees
the rotated signals pass the opposite pole and the symmetrized channel
has tilt pi.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .estimation import ChannelTriple
from .evebound import eve_bound
from .states import wrap_angle

# Newton steps of critical_weakness; from q = 0 the third step is within a
# relative 3e-14 of the root at every signal angle, the fourth reaches rounding
NEWTON_STEPS = 4
# largest balance residual at which attack_noise_rate accepts a weakness
BALANCE_TOL = 1e-6


def _check_signal_angle(alpha: float) -> None:
    if not 0.0 < alpha < math.pi / 2.0:
        raise DomainError(f"signal angle outside (0, pi/2): {alpha}")


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
    label: str = ""


@dataclass(frozen=True)
class AttackChannel:
    name: str
    branches: tuple[AttackBranch, ...]

    def __post_init__(self):
        for j in (0, 1):
            total = sum(br.weights[j] for br in self.branches)
            if abs(total - 1.0) > 1e-9:
                raise DomainError(
                    f"branch weights for bit {j} sum to {total}, expected 1")

    def output(self, bit: int, phi_in: float, branch: AttackBranch,
               ) -> tuple[bool, float]:
        """(is_vacuum, output angle) for one branch acting on one signal."""
        if branch.to_vacuum:
            return True, 0.0
        return False, wrap_angle(phi_in + branch.rotations[bit])

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
                    label=f"{first.label}+{second.label}".strip("+"),
                ))
        return AttackChannel(name=f"{self.name}|{other.name}",
                             branches=tuple(branches))


def identity_attack() -> AttackChannel:
    return AttackChannel("identity", (AttackBranch(weights=(1.0, 1.0), label="id"),))


def rotation_attack(alpha: float) -> tuple[AttackChannel, ChannelTriple]:
    """Equal mixture of +-2 alpha Bloch rotations, with Eve's guess per branch.

    Rotating by -2 alpha maps Alice's bit-1 state onto the bit-0 state, so
    any surviving correct bit in that branch must be 0 (and symmetrically
    for +2 alpha).  The symmetrized channel it produces has
    eps = 1 - |cos 2 alpha| and T = 1: (0, 2 sin^2 alpha, 1) up to 45
    degrees, and (pi, 2 cos^2 alpha, 1) beyond, where the rotated signals
    pass the opposite pole.
    """
    _check_signal_angle(alpha)
    channel = AttackChannel("rotation", (
        AttackBranch(weights=(0.5, 0.5), rotations=(2.0 * alpha, 2.0 * alpha),
                     guess=1, label="+2a"),
        AttackBranch(weights=(0.5, 0.5), rotations=(-2.0 * alpha, -2.0 * alpha),
                     guess=0, label="-2a"),
    ))
    s, c = math.sin(alpha), math.cos(alpha)
    predicted = ChannelTriple(theta=0.0 if s <= c else math.pi,
                              epsilon=2.0 * min(s, c) ** 2, transmission=1.0)
    return channel, predicted


def _sqrt_effect_angle(q: float, phi: float, plus: bool) -> float:
    """Angle of sqrt(A+-) |sigma_phi> for the x-basis weak measurement."""
    a = math.sqrt(1.0 - q) if plus else math.sqrt(q)
    b = math.sqrt(q) if plus else math.sqrt(1.0 - q)
    c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
    # sqrt effect in the z basis: [[(a+b)/2, (a-b)/2], [(a-b)/2, (a+b)/2]]
    up = 0.5 * ((a + b) * c + (a - b) * s)
    dn = 0.5 * ((a - b) * c + (a + b) * s)
    return wrap_angle(2.0 * math.atan2(dn, up))


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
    if not 0.0 <= q <= 0.5:
        raise DomainError(f"weakness parameter outside [0, 1/2]: {q}")
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
    return AttackChannel(f"weak-meas(q={q:g})", (
        AttackBranch(weights=weights_plus, rotations=(2.0 * alpha, beta),
                     guess=1, label="+"),
        AttackBranch(weights=weights_minus, rotations=(-beta, -2.0 * alpha),
                     guess=0, label="-"),
    ))


def _balance_residual(q: float, alpha: float) -> float:
    """Zero exactly when the attack output is symmetric about the signal axis."""
    beta = post_measurement_angle(q, alpha)
    p1_plus = outcome_probability(q, alpha, 1, True)
    p1_minus = outcome_probability(q, alpha, 1, False)
    return math.sin(beta) / math.sin(2.0 * alpha) - p1_minus / p1_plus


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


def attack_noise_rate(q: float, alpha: float) -> float:
    """Noise rate eps of the symmetrized channel produced by the attack.

    Only meaningful where the balance condition holds (q = q0 or q = 1/2):
    eps = 1 - |sin(2 alpha + beta)| / (sin 2 alpha + sin beta).  The tilt
    is 0, or pi where sin(2 alpha + beta) < 0.  A signal angle outside
    (0, pi/2), or a weakness whose balance residual exceeds ``BALANCE_TOL``,
    raises :class:`DomainError`.
    """
    _check_signal_angle(alpha)
    residual = _balance_residual(q, alpha)
    if abs(residual) > BALANCE_TOL:
        raise DomainError(
            f"attack output is not symmetric at q={q} (residual {residual:.3e})")
    beta = post_measurement_angle(q, alpha)
    return 1.0 - abs(math.sin(2.0 * alpha + beta)) / (math.sin(2.0 * alpha) + math.sin(beta))


def depolarize(epsilon: float) -> AttackChannel:
    """Isotropic in-plane noise: flip to the orthogonal state with probability eps/2."""
    if not 0.0 <= epsilon <= 1.0:
        raise DomainError(f"noise parameter outside [0, 1]: {epsilon}")
    return AttackChannel(f"depolarize(eps={epsilon:g})", (
        AttackBranch(weights=(1.0 - 0.5 * epsilon,) * 2, label="keep"),
        AttackBranch(weights=(0.5 * epsilon,) * 2, rotations=(math.pi, math.pi),
                     label="flip"),
    ))


def loss(transmission: float) -> AttackChannel:
    """Bit-independent photon loss."""
    if not 0.0 <= transmission <= 1.0:
        raise DomainError(f"transmission outside [0, 1]: {transmission}")
    return AttackChannel(f"loss(T={transmission:g})", (
        AttackBranch(weights=(transmission,) * 2, label="pass"),
        AttackBranch(weights=(1.0 - transmission,) * 2, to_vacuum=True, label="drop"),
    ))


def mix(first: AttackChannel, second: AttackChannel, weight: float) -> AttackChannel:
    """Per-pulse mixture: ``first`` with probability ``weight``, else ``second``."""
    if not 0.0 <= weight <= 1.0:
        raise DomainError(f"mixture weight outside [0, 1]: {weight}")
    branches = []
    for scale, channel in ((weight, first), (1.0 - weight, second)):
        if scale <= 0.0:
            continue
        for br in channel.branches:
            branches.append(AttackBranch(
                weights=(scale * br.weights[0], scale * br.weights[1]),
                rotations=br.rotations, guess=br.guess,
                to_vacuum=br.to_vacuum, label=f"{channel.name}:{br.label}"))
    return AttackChannel(f"mix({first.name},{second.name},{weight:g})",
                         tuple(branches))


def full_info_region(alpha_grid, eps_grid, transmission: float) -> np.ndarray:
    """Boolean matrix over (alpha, eps): True where Eve's gain is unity.

    Entry [i, j] refers to alpha_grid[i], eps_grid[j], with the analyzer
    matched to the signal angle and theta = 0.
    """
    alphas = np.asarray(alpha_grid, dtype=float)[:, np.newaxis]
    bound = eve_bound(alphas, alphas, 0.0, eps_grid, transmission)
    bound.check()
    return bound.overlap_min <= 1e-9


# --- attack description strings ---------------------------------------------------

_STAGE_RE = re.compile(r"^\s*([a-zA-Z-]+)\s*(?:\(([^)]*)\))?\s*$")


# stage name -> (builder taking alpha and the parameters in order,
#                parameter defaults, None where the key is required)
_STAGES = {
    "identity": (lambda alpha: identity_attack(), {}),
    "rotation": (lambda alpha: rotation_attack(alpha)[0], {}),
    "weak-meas": (lambda alpha, q: weak_measurement_attack(q, alpha), {"q": None}),
    "mixed": (lambda alpha, q, lam: mix(weak_measurement_attack(q, alpha),
                                        rotation_attack(alpha)[0], lam),
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
    values = {}
    for item in arg_text.split(",") if arg_text else ():
        key, sep, value = item.partition("=")
        key = key.strip().lower()
        if not sep:
            raise DomainError(f"expected key=value in attack stage {name!r}: {item!r}")
        param = _KEY_ALIASES.get(key, key)
        if param not in defaults:
            raise DomainError(f"attack stage {name!r} takes no key {key!r}")
        if param in values:
            raise DomainError(f"attack stage {name!r} sets {param!r} twice")
        try:
            values[param] = float(value)
        except ValueError:
            raise DomainError(f"attack stage {name!r}: key {key!r} needs a number, "
                              f"got {value.strip()!r}") from None
    values = {param: values.get(param, default) for param, default in defaults.items()}
    missing = [param for param, value in values.items() if value is None]
    if missing:
        raise DomainError(f"attack stage {name!r} misses required key {missing[0]!r}")
    return build(alpha, *values.values())
