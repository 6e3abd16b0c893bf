"""Shared helpers: explicit 2x2 matrix algebra used as an independent check.

The library computes Bob's outcome probabilities in closed form from Bloch
angles (``states.outcome_table``); these helpers rebuild the same
quantities from full kets, outer products and matrix traces, so agreement
is a real cross-check rather than a tautology.  The protocol's symmetry
steps are checked here too: :func:`symmetrize_densities` averages a pair
of delivered :class:`SignalDensity` states over the symmetry group, and
:func:`relabeled` mirrors a count record and :func:`counts_csv` writes
one as ``simulate --counts-csv`` does.  :func:`noiseless_gain` is the
paper's closed-form key gain on a lossy, noiseless channel, and
:func:`count` reads one counter of a record by (bit, outcome).  The
explicit attacks' symmetrized channels are predicted here in closed form:
:func:`rotation_triple` for the rotation attack and
:func:`attack_noise_rate` for the weak-measurement attack at a weakness
where :func:`_balance_residual` vanishes.

The closed form's own helpers that only tests call live here too:
:func:`constraint_max`, :func:`stationary_curves` and :func:`min_overlap_at`
wrap ``evebound``'s private families and roots with the checks and the
``np.errstate`` that :func:`~b92sec.evebound.eve_bound` gives its pass.
So does the oracle's equality case, :func:`oracle_min_overlap`, which
cross-checks the two solvers at targets no program path reaches.
:func:`assert_same_bits` is the equality that a one-channel result owes
its entry of an array call.
"""

import math
from dataclasses import asdict, dataclass, replace

import numpy as np
import pytest

from b92sec.attacks import _check_signal_angle, outcome_probability, post_measurement_angle
from b92sec.errors import DomainError, require
from b92sec.estimation import COUNT_TABLE, ChannelTriple, ObservedCounts
from b92sec.evebound import REACH_SLOP, _families, _overlap
from b92sec.oracle import _search

DEG = math.pi / 180.0
# largest balance residual at which attack_noise_rate accepts a weakness
BALANCE_TOL = 1e-6


def wrap_angle(phi: float) -> float:
    """Reduce an angle to the canonical (-pi, pi] window."""
    phi = math.fmod(phi, 2.0 * math.pi)
    if phi <= -math.pi:
        phi += 2.0 * math.pi
    elif phi > math.pi:
        phi -= 2.0 * math.pi
    return phi


def ket(phi: float) -> np.ndarray:
    return np.array([math.cos(phi / 2.0), math.sin(phi / 2.0)])


def bar_ket(phi: float) -> np.ndarray:
    """The ket orthogonal to ``ket(phi)``: ``-ket(phi + pi)``, at every phi."""
    return np.array([math.sin(phi / 2.0), -math.cos(phi / 2.0)])


def projector(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conj())


def sym_matrix(m) -> np.ndarray:
    """The 2x2 array of a symmetric matrix given by its entries m11, m12, m22."""
    return np.array([[m.m11, m.m12], [m.m12, m.m22]])


def _require_constraint_det(b) -> None:
    det_b = b.det()
    require(det_b, ~np.greater(det_b, 1e-12),
            "constraint matrix must have non-positive determinant")


def constraint_max(b):
    """Largest value of Tr[B xi] over orthogonal xi.

    Equals sqrt((B11 - B22)^2 + 4 B12^2), the sum of B's singular values
    when its eigenvalues have opposite signs; a determinant above 1e-12
    raises :class:`DomainError`.
    """
    _require_constraint_det(b)
    return np.hypot(b.m11 - b.m22, 2.0 * b.m12)


@np.errstate(divide="ignore", invalid="ignore")
def stationary_curves(a, b):
    """All stationary families of |Q| for broadcast matrices (A, B).

    A must have det A = 0, as ``build_matrices`` gives; B must pass
    :func:`constraint_max`'s determinant check.
    """
    _require_constraint_det(b)
    return _families(a, b)


@np.errstate(divide="ignore", invalid="ignore")
def min_overlap_at(a, b, target):
    """Minimum |Q| subject to Tr[B xi] = target: (q, regime) arrays.

    Even in the sign of the target (xi -> -xi flips both traces); below the
    zero-overlap limit the minimum is 0 (regime FREE), above it the best
    stationary-family root wins.  (A, B) must come from ``build_matrices``,
    whose analyzer angle lies in [0, pi/2]: beyond it the one rank-1 family
    kept does not suffice (see ``evebound``'s docstring).  A target that is
    NaN or lies beyond ``constraint_max(B)`` raises :class:`DomainError`.
    """
    t = np.abs(target)
    f = stationary_curves(a, b)
    require(target, t <= f.bmax + REACH_SLOP,
            "constraint target outside [-constraint_max(B), constraint_max(B)]")
    return _overlap(f, np.minimum(t, f.bmax))


def oracle_min_overlap(a, b, target: float):
    """Exact min |Tr[A X]| over contractions X with Tr[B X] = target."""
    return _search(a, b, target, target)


def explicit_qubit_block(theta: float, epsilon: float, transmission: float,
                         alpha: float, bit: int) -> np.ndarray:
    """T [(1 - eps/2)|sigma><sigma| + (eps/2)|bar><bar|] built from kets."""
    sign = -1.0 if bit == 0 else 1.0
    phi = sign * (alpha + theta)
    return transmission * ((1.0 - epsilon / 2.0) * projector(ket(phi))
                           + (epsilon / 2.0) * projector(bar_ket(phi)))


def bloch_of_matrix(rho: np.ndarray) -> np.ndarray:
    """Pauli components (x, y, z) of a 2x2 matrix."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return np.real(np.array([np.trace(rho @ s) for s in (sx, sy, sz)]))


def explicit_povm_effects(alpha: float) -> dict[str, np.ndarray]:
    """Bob's four polarization effects as explicit half-weight projectors."""
    return {
        "0": 0.5 * projector(ket(-alpha)),
        "0b": 0.5 * projector(bar_ket(-alpha)),
        "1": 0.5 * projector(ket(alpha)),
        "1b": 0.5 * projector(bar_ket(alpha)),
    }


def symmetrized_bloch(triple, alpha: float, bit: int) -> tuple[float, float, float]:
    """Bloch vector of the symmetrized qubit block for ``bit``.

    The signal direction at -+(alpha + theta) in the x-z plane (bit 0 takes
    the minus sign), shrunk by 1 - eps.
    """
    sign = -1.0 if bit == 0 else 1.0
    phi = alpha + triple.theta
    r = 1.0 - triple.epsilon
    return (r * math.sin(sign * phi), 0.0, r * math.cos(phi))


def symmetrized_outcomes(triple, alpha: float) -> np.ndarray:
    """Bob's (2, 5) outcome table on the symmetrized bit-0 and bit-1 states."""
    from b92sec.states import outcome_table

    phi = np.array([-1.0, 1.0]) * (alpha + triple.theta)
    return outcome_table(alpha, phi, 1.0 - triple.epsilon, triple.transmission)



def sqrt_effect_angle(q: float, phi: float, plus: bool) -> float:
    """Angle of sqrt(A+-) |sigma_phi> for the x-basis weak measurement."""
    a = math.sqrt(1.0 - q) if plus else math.sqrt(q)
    b = math.sqrt(q) if plus else math.sqrt(1.0 - q)
    c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
    # sqrt effect in the z basis: [[(a+b)/2, (a-b)/2], [(a-b)/2, (a+b)/2]]
    up = 0.5 * ((a + b) * c + (a - b) * s)
    dn = 0.5 * ((a - b) * c + (a + b) * s)
    return wrap_angle(2.0 * math.atan2(dn, up))


@dataclass(frozen=True)
class SignalDensity:
    """Signal operator  T * rho_qubit  (+)  (1 - T) |vac><vac|.

    ``bloch`` is the Bloch vector of the normalized qubit block, so the full
    operator has unit trace and the qubit block carries trace T.
    """

    transmission: float
    bloch: tuple[float, float, float]

    def __post_init__(self):
        t = float(self.transmission)
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"transmission outside [0, 1]: {t}")
        v = tuple(float(c) for c in self.bloch)
        if len(v) != 3:
            raise DomainError("bloch vector must have three components")
        if math.hypot(*v) > 1.0 + 1e-9:
            raise DomainError(f"bloch vector norm exceeds 1: {v}")
        object.__setattr__(self, "transmission", t)
        object.__setattr__(self, "bloch", v)

    @classmethod
    def vacuum(cls) -> "SignalDensity":
        return cls(0.0, (0.0, 0.0, 0.0))


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


def assert_same_bits(got, want, what: str = "") -> None:
    """``got`` and ``want`` hold the same floats bit for bit, NaN matching NaN.

    Both are raveled first, so a one-channel field of shape () or (2,)
    compares with its entry of an array call, or with the same channel of
    a one-element list.  The sign of a zero counts; the sign and payload of
    a NaN do not.
    """
    got, want = np.ravel(got), np.ravel(want)
    assert got.dtype == want.dtype and got.shape == want.shape, (what, got, want)
    if got.dtype.kind == "f":
        got, want = (np.where(np.isnan(v), np.nan, v) for v in (got, want))
    assert got.tobytes() == want.tobytes(), (what, got, want)


def count(counts: ObservedCounts, bit: int, outcome: str) -> int:
    """Counter for (j, mu) with mu in {"0", "1", "0b", "1b"}."""
    return getattr(counts, COUNT_TABLE[bit, outcome])


def counts_csv(counts: ObservedCounts) -> str:
    """The one-record CSV that ``simulate --counts-csv`` writes for ``counts``."""
    record = asdict(counts)
    return f"{','.join(record)}\n{','.join(map(str, record.values()))}\n"


def relabeled(counts: ObservedCounts) -> ObservedCounts:
    """Swap the bit labels of both parties (the mirror symmetry of the protocol)."""
    mirror = {"0": "1", "1": "0", "0b": "1b", "1b": "0b"}
    return replace(counts, **{name: count(counts, 1 - bit, mirror[outcome])
                              for (bit, outcome), name in COUNT_TABLE.items()})


def noiseless_gain(alpha: float, transmission: float) -> float:
    """Closed form for the key gain on a lossy but noiseless channel.

    G = (T/4)(1 - cos 2a)[1 - log2(2 - ((cos a - 1 + T)/(T cos a))^2)].
    Valid where cos(alpha) >= 1 - T (otherwise loss alone hands Eve the
    full key and the general expression applies instead).
    """
    q = (math.cos(alpha) - 1.0 + transmission) / (transmission * math.cos(alpha))
    return (0.25 * transmission * (1.0 - math.cos(2.0 * alpha))
            * (1.0 - math.log2(2.0 - q * q)))


def rotation_triple(alpha: float) -> ChannelTriple:
    """The symmetrized channel of ``attacks.rotation_attack(alpha)``.

    eps = 1 - |cos 2 alpha| and T = 1: (0, 2 sin^2 alpha, 1) up to 45
    degrees, and (pi, 2 cos^2 alpha, 1) beyond, where the rotated signals
    pass the opposite pole.
    """
    s, c = math.sin(alpha), math.cos(alpha)
    return ChannelTriple(theta=0.0 if s <= c else math.pi,
                         epsilon=2.0 * min(s, c) ** 2, transmission=1.0)


def _balance_residual(q: float, alpha: float) -> float:
    """Zero exactly when the attack output is symmetric about the signal axis."""
    beta = post_measurement_angle(q, alpha)
    p1_plus = outcome_probability(q, alpha, 1, True)
    p1_minus = outcome_probability(q, alpha, 1, False)
    return math.sin(beta) / math.sin(2.0 * alpha) - p1_minus / p1_plus


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


@pytest.fixture
def gain_calls(monkeypatch):
    """Counts the calls of ``keyrate._pass``, the key-gain arithmetic that
    :func:`~b92sec.keyrate.key_gains` and every search step run; a search
    that runs away fails at the 1000th call instead of hanging."""
    from b92sec import keyrate

    gain_pass = keyrate._pass
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        assert len(calls) < 1000, "the search does not stop"
        return gain_pass(*args, **kwargs)

    monkeypatch.setattr(keyrate, "_pass", counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


def estimator_sigmas(triple, alpha: float, n_total: int) -> np.ndarray:
    """Delta-method standard errors of (theta, eps, T) estimates.

    Builds the multinomial covariance of the three count statistics the
    inversion consumes and pushes it through a numerical Jacobian of the
    closed-form inversion.  Used to define the 3-sigma acceptance windows
    for sampled runs.
    """
    from b92sec.states import OUTCOMES

    table = symmetrized_outcomes(triple, alpha)
    probs = {(bit, label): 0.5 * table[bit, k]
             for bit in (0, 1) for k, label in enumerate(OUTCOMES)}

    # raw statistics: S1, S2 (asymmetry sums / n) and D (detected fraction)
    coeff = {
        "s1": {(0, "0"): 1, (0, "0b"): -1, (1, "1"): 1, (1, "1b"): -1},
        "s2": {(0, "1"): 1, (0, "1b"): -1, (1, "0"): 1, (1, "0b"): -1},
        "d": {(b, m): 1 for b in (0, 1) for m in OUTCOMES if m != "V"},
    }
    names = ("s1", "s2", "d")
    mean = np.array([sum(c * probs[k] for k, c in coeff[n].items())
                     for n in names])
    cov = np.empty((3, 3))
    for i, ni in enumerate(names):
        for j, nj in enumerate(names):
            cross = sum(coeff[ni].get(k, 0) * coeff[nj].get(k, 0) * p
                        for k, p in probs.items())
            cov[i, j] = (cross - mean[i] * mean[j]) / n_total

    def invert(stats):
        s1, s2, d = stats
        x1 = 2.0 * s1 / d
        x2 = 2.0 * s2 / d
        y = (x1 * math.cos(2 * alpha) - x2) / math.sin(2 * alpha)
        return np.array([math.atan2(y, x1), 1.0 - math.hypot(x1, y), d])

    jac = np.empty((3, 3))
    h = 1e-7
    for j in range(3):
        up, dn = mean.copy(), mean.copy()
        up[j] += h
        dn[j] -= h
        jac[:, j] = (invert(up) - invert(dn)) / (2 * h)
    # exact-zero variances (e.g. T at unit transmission) can round negative
    return np.sqrt(np.clip(np.diag(jac @ cov @ jac.T), 0.0, None))
