"""The four benchmark workloads: seeded inputs, the timed ops, and checks.

A workload is built from ``(seed, short)``; building it is the set-up that
``setup_s`` times.  ``round_ops()`` returns one round: the fewest whole
passes that hold at least 40 ops, so every round has the same make-up and
the same share of ops that are expected to fail.  ``check(results)`` takes
the finished round and returns the problems it finds; every check is
computed apart from the code under test, or is a property the method must
have.

Program functions are called through their modules (``keyrate.optimal_angle``
rather than a name imported from it), so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from b92sec import attacks, cli, evebound, keyrate, oracle, simulate
from b92sec.errors import OracleInfeasibleError
from b92sec.estimation import ChannelTriple

DEG = math.pi / 180.0
MIN_OPS_PER_ROUND = 40


class SweepAborted(Exception):
    """A CLI sweep exited without writing its CSV."""


@dataclass
class Op:
    """One timed call into the program.

    ``expected`` names the exception this op is known to raise today; it is
    then counted as a failed op, not as a correctness miss.
    """

    label: str
    run: Callable[[], Any]
    meta: dict = field(default_factory=dict)
    expected: type[BaseException] | None = None


@dataclass
class OpResult:
    op: Op
    value: Any = None
    error: BaseException | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed])


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _h(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


# --- figures ---------------------------------------------------------------------

INFO_T = 0.3
KEY_ALPHA, KEY_T = 12.0, 0.3
FIGURE_SWEEPS = (
    *((f"infogain-{a}", ["infogain", "--alpha", str(a), "--T", str(INFO_T),
                         "--eps-grid", "0:0.5:501"]) for a in (5, 10, 20, 40)),
    ("region", ["region", "--alpha-grid", "1:89:89", "--eps-grid", "0:1:101",
                "--T", "1"]),
    *((f"keygain-{m}", ["keygain", "--alpha", str(KEY_ALPHA), "--T", str(KEY_T),
                        "--eps-grid", "0:0.1:51", "--mode", m])
      for m in ("collision", "shannon")),
    ("distance", ["distance", "--preset", "kth"]),
    # only its eps = 0 row is unreachable, yet the sweep exits 3 with no CSV
    ("infogain-abort", ["infogain", "--alpha", "10", "--theta", "8", "--T", "0.97",
                        "--eps-grid", "0:0.2:11"]),
)
ABORT_LABEL = "infogain-abort"

# the testbed preset, restated so the BB84 check does not read the program's copy
KTH = dict(channel_loss_db_km=0.2, receiver_loss_db=1.0, dark_mean=2e-4,
           det_efficiency=0.18)


def _bb84_over_link(length_km: float) -> float:
    attenuation = 10.0 ** (-(length_km * KTH["channel_loss_db_km"]
                             + KTH["receiver_loss_db"]) / 10.0)
    survive = math.exp(-KTH["dark_mean"])
    transmission = (survive * KTH["det_efficiency"] * attenuation
                    + survive * KTH["dark_mean"] * (1.0 - attenuation))
    e = KTH["dark_mean"] / (2.0 * transmission)
    if e >= 0.5:
        return 0.0
    return 0.5 * transmission * (1.0 - math.log2(1.0 + 4.0 * e - 4.0 * e * e) - _h(e))


def _noiseless_gain(alpha: float, t: float, mode: str = "collision") -> float:
    """(T/4)(1 - cos 2a)(1 - I(q)), q = (cos a - 1 + T)/(T cos a).

    I is log2(2 - q^2) in collision mode, 1 - h((1 - sqrt(1 - q^2))/2) in
    Shannon mode.
    """
    q = (math.cos(alpha) - 1.0 + t) / (t * math.cos(alpha))
    if mode == "collision":
        info = math.log2(2.0 - q * q)
    else:
        info = 1.0 - _h(0.5 * (1.0 - math.sqrt(max(0.0, 1.0 - q * q))))
    return 0.25 * t * (1.0 - math.cos(2.0 * alpha)) * (1.0 - info)


def _read_csv(path: str) -> list[dict[str, float]]:
    with open(path) as fh:
        header, *lines = fh.read().splitlines()
    names = header.split(",")
    return [dict(zip(names, map(float, line.split(",")))) for line in lines]


class Figures:
    """The paper's figure sweeps through ``b92sec.cli.main``, CSV to files."""

    name = "figures"

    def __init__(self, seed: int, short: bool, workdir: str) -> None:
        self.workdir = workdir
        rng = _rng(seed, 0)
        passes = 1 if short else -(-MIN_OPS_PER_ROUND // len(FIGURE_SWEEPS))
        self.orders = [rng.permutation(len(FIGURE_SWEEPS)) for _ in range(passes)]
        self._stderr = io.StringIO()

    def _sweep(self, argv: list[str], path: str) -> Callable[[], int]:
        def run() -> int:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
            self._stderr.seek(0)
            self._stderr.truncate()
            with contextlib.redirect_stderr(self._stderr):
                rc = cli.main(argv + ["--output", path])
            if not os.path.exists(path):
                raise SweepAborted(f"exit {rc}, no CSV: {self._stderr.getvalue().strip()}")
            return rc
        return run

    def round_ops(self) -> list[Op]:
        ops = []
        for p, order in enumerate(self.orders):
            for k in order:
                label, argv = FIGURE_SWEEPS[k]
                path = os.path.join(self.workdir, f"p{p}-{label}.csv")
                ops.append(Op(label, self._sweep(argv, path), {"path": path, "pass": p},
                              SweepAborted if label == ABORT_LABEL else None))
        return ops

    def check(self, results: list[OpResult]) -> list[str]:
        problems = []
        by_pass: dict[int, dict[str, list]] = {}
        for r in results:
            if r.failed:
                continue
            if r.value != 0 and r.op.label != ABORT_LABEL:
                problems.append(f"{r.op.label}: exit code {r.value}")
            by_pass.setdefault(r.op.meta["pass"], {})[r.op.label] = _read_csv(
                r.op.meta["path"])
        for sweeps in by_pass.values():
            problems += self._check_pass(sweeps)
        return problems

    def _check_pass(self, s: dict[str, list]) -> list[str]:
        bad = []
        for a in (5, 10, 20, 40):
            rows = s[f"infogain-{a}"]
            alpha = a * DEG
            q0 = (math.cos(alpha) - (1.0 - INFO_T)) / (INFO_T * math.cos(alpha))
            if rows[0]["eps"] != 0.0 or not _close(rows[0]["q_min"], q0, 1e-12):
                bad.append(f"infogain {a}: eps=0 overlap {rows[0]['q_min']} != {q0}")
            for row in rows:
                if not _close(row["i_gc"], math.log2(2.0 - row["q_min"] ** 2), 1e-12):
                    bad.append(f"infogain {a}: i_gc != log2(2 - q^2) at eps={row['eps']}")
                    break
                if row["i_gc_shannon"] > min(1.0, row["i_s_upper"]) + 1e-9:
                    bad.append(f"infogain {a}: Shannon gain above ceiling at "
                               f"eps={row['eps']}")
                    break
        rows = s["infogain-10"]
        drop = next((rows[i]["eps"] for i in range(len(rows) - 1)
                     if rows[i]["i_gc"] == 1.0 and rows[i + 1]["i_gc"] < 1.0), None)
        if drop is None or abs(drop - 0.13) > 0.02:
            bad.append(f"infogain 10: unity plateau ends at eps={drop}, not 0.13 +- 0.02")
        band: dict[float, list[float]] = {}
        for row in s["region"]:
            if row["full_info"] == 1.0:
                band.setdefault(row["alpha_deg"], []).append(row["eps"])
        for a in range(10, 45):
            edge = max(band.get(float(a), [math.nan]))
            if not abs(edge - 2.0 * math.sin(a * DEG) ** 2) <= 0.01:
                bad.append(f"region: upper band edge at {a} deg is {edge}")
        alpha = KEY_ALPHA * DEG
        c2 = math.cos(2.0 * alpha) + 1.0
        for mode in ("collision", "shannon"):
            rows = s[f"keygain-{mode}"]
            for row in rows:
                den = 2.0 - (1.0 - row["eps"]) * c2
                if not (_close(row["p_conc"], 0.25 * KEY_T * den, 1e-12)
                        and _close(row["e"], row["eps"] / den, 1e-12)):
                    bad.append(f"keygain {mode}: p_conc or e off at eps={row['eps']}")
                    break
            want = _noiseless_gain(alpha, KEY_T, mode)
            if not _close(rows[0]["g"], want, 1e-12):
                bad.append(f"keygain {mode}: eps=0 gain {rows[0]['g']} is not the "
                           f"noiseless closed form {want}")
        for sh, co in zip(s["keygain-shannon"], s["keygain-collision"]):
            if sh["g"] < co["g"] - 1e-12:
                bad.append(f"keygain: Shannon gain below collision gain at eps={sh['eps']}")
                break
        rows = s["distance"]
        for row in rows:
            if not _close(row["g_bb84"], _bb84_over_link(row["l_km"]), 1e-12):
                bad.append(f"distance: g_bb84 off at {row['l_km']} km")
                break
            if not row["g_b92"] < row["g_bb84"]:
                bad.append(f"distance: g_b92 >= g_bb84 at {row['l_km']} km")
                break
        if not rows[0]["g_b92"] > 0.0:
            bad.append("distance: g_b92(0) is not positive")
        if ABORT_LABEL in s and len(s[ABORT_LABEL]) != 11:
            bad.append(f"infogain-abort: {len(s[ABORT_LABEL])} rows, not 11")
        return bad


# --- search ----------------------------------------------------------------------

SEARCH_T = 0.8
# positive_noise_limit(0.8) is 0.03426; the random noise values stay below 95 % of it
SEARCH_EPS_MAX = 0.95 * 0.0342
LIMIT_TS = (0.2, 0.4, 0.6, 0.8, 1.0)


def _noiseless_optimum(t: float) -> float:
    """Largest noiseless closed-form gain over alpha, by scan and golden section."""
    top = math.acos(1.0 - t)  # the closed form holds for cos(alpha) >= 1 - T
    grid = np.linspace(1e-4, top, 4001)
    k = int(np.argmax([_noiseless_gain(float(a), t) for a in grid]))
    lo, hi = float(grid[max(k - 1, 0)]), float(grid[min(k + 1, len(grid) - 1)])
    g = (math.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > 1e-12:
        x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
        if _noiseless_gain(x1, t) < _noiseless_gain(x2, t):
            lo = x1
        else:
            hi = x2
    return _noiseless_gain(0.5 * (lo + hi), t)


class Search:
    """Chains of dependent one-point calls: golden section and bisection."""

    name = "search"

    def __init__(self, seed: int, short: bool, workdir: str) -> None:
        rng = _rng(seed, 1)
        n_random = 2 if short else 38
        self.eps = [0.0] + [float(e) for e in rng.uniform(0.0, SEARCH_EPS_MAX, n_random)]
        self.limit_ts = (0.6, 0.8) if short else LIMIT_TS
        self.limit_order = [self.limit_ts[k] for k in rng.permutation(len(self.limit_ts))]
        self.oa_order = rng.permutation(len(self.eps) + 1)

    def round_ops(self) -> list[Op]:
        limits: dict[float, float] = {}

        def limit_op(t: float) -> Callable[[], float]:
            def run() -> float:
                limits[t] = keyrate.positive_noise_limit(t)
                return limits[t]
            return run

        def angle_op(eps: float | None) -> Callable[[], tuple[float, float]]:
            def run() -> tuple[float, float]:
                e = limits[SEARCH_T] + 5e-4 if eps is None else eps
                return keyrate.optimal_angle(ChannelTriple(0.0, e, SEARCH_T))
            return run

        ops = [Op("positive_noise_limit", limit_op(t), {"T": t}) for t in self.limit_order]
        for k in self.oa_order:
            eps = self.eps[k] if k < len(self.eps) else None
            ops.append(Op("optimal_angle", angle_op(eps),
                          {"eps": eps, "past_limit": eps is None}))
        return ops

    def check(self, results: list[OpResult]) -> list[str]:
        bad = []
        limits = {r.op.meta["T"]: r.value for r in results
                  if r.op.label == "positive_noise_limit"}
        curve = [limits[t] for t in self.limit_ts]
        if not all(b > a for a, b in zip(curve, curve[1:])):
            bad.append(f"noise limit does not increase with T: {curve}")
        points = []
        for r in results:
            if r.op.label != "optimal_angle":
                continue
            alpha_star, g_star = r.value
            if r.op.meta["past_limit"]:
                if (alpha_star, g_star) != (0.0, 0.0):
                    bad.append(f"gain past the limit is {(alpha_star, g_star)}, not (0, 0)")
                continue
            eps = r.op.meta["eps"]
            points.append((eps, alpha_star))
            if not g_star > 0.0:
                bad.append(f"no positive gain below the limit at eps={eps}")
                continue
            triple = ChannelTriple(0.0, eps, SEARCH_T)
            for step in (-0.1 * DEG, 0.1 * DEG):
                if keyrate.secret_key_gain(alpha_star + step, triple).gain > g_star + 1e-12:
                    bad.append(f"g(alpha*) is not a maximum at eps={eps}")
            if eps == 0.0:
                want = _noiseless_optimum(SEARCH_T)
                if not abs(g_star - want) <= 1e-9:
                    bad.append(f"eps=0 optimum {g_star} != noiseless maximum {want}")
        points.sort()
        if not all(b[1] - a[1] <= 1e-6 for a, b in zip(points, points[1:])):
            bad.append("alpha* increases with eps")
        return bad


# --- verify ----------------------------------------------------------------------

ORACLE_RESOLUTION = 64
# criterion 01's channel stream: its first 100 reachable channels are the pool
CRITERION_01_SEED = 20240811
POOL_SIZE = 100
# reachable (closed form q = 0.998208, matched at resolution 128), yet at
# resolution 64 the oracle's grid misses the thin feasible sliver
NEAR_LIMIT = (0.8266, 0.9409, 0.55660, 0.51874)  # alpha, theta (deg), eps, T
NEAR_LIMIT_Q = 0.998208


def _reachable(alpha: float, theta: float, eps: float, t: float) -> bool:
    """The loss-widened target lies within the largest reachable constraint value.

    max Tr[B xi] = sqrt(cos^2(a + th) + eps (2 - eps) sin^2(a + th)).
    """
    target = (math.cos(alpha) - (1.0 - t)) / t
    full = alpha + theta
    top = math.sqrt(math.cos(full) ** 2 + eps * (2.0 - eps) * math.sin(full) ** 2)
    return target <= top


def criterion_01_channels(count: int) -> list[tuple[float, float, float, float]]:
    """The first ``count`` reachable channels of criterion 01's seeded stream."""
    rng = np.random.default_rng(CRITERION_01_SEED)
    channels = []
    while len(channels) < count:
        alpha = rng.uniform(2 * DEG, 80 * DEG)
        theta = rng.uniform(-30 * DEG, 30 * DEG)
        eps = rng.uniform(0.01, 0.9)
        t = rng.uniform(0.2, 1.0)
        if _reachable(alpha, theta, eps, t):
            channels.append((alpha, theta, eps, t))
    return channels


class Verify:
    """Closed form against the brute-force oracle on criterion 01's channels.

    The seed picks 40 of the pool.  Fresh draws from criterion 01's box are
    not used: a few in a thousand sit so close to the reachable limit that
    the resolution-64 oracle wrongly reports them infeasible, so whether a
    run met one would depend on the seed.
    """

    name = "verify"

    def __init__(self, seed: int, short: bool, workdir: str) -> None:
        rng = _rng(seed, 2)
        pool = criterion_01_channels(POOL_SIZE)
        picks = rng.choice(POOL_SIZE, 2 if short else MIN_OPS_PER_ROUND, replace=False)
        channels = [pool[k] for k in picks]
        a, th, eps, t = NEAR_LIMIT
        self.near_limit = (a * DEG, th * DEG, eps, t)
        channels.insert(int(rng.integers(len(channels) + 1)), self.near_limit)
        self.channels = channels

    @staticmethod
    def _compare(alpha: float, theta: float, eps: float, t: float):
        analytic = evebound.eve_max_gain(alpha, alpha, ChannelTriple(theta, eps, t))
        a, b = evebound.build_matrices(alpha, theta, eps)
        found = oracle.oracle_min_overlap_lossy(a, b, alpha, t,
                                                resolution=ORACLE_RESOLUTION)
        return analytic.overlap_min, found.value

    def round_ops(self) -> list[Op]:
        ops = []
        for ch in self.channels:
            near = ch == self.near_limit
            ops.append(Op("near-limit" if near else "channel",
                          lambda ch=ch: self._compare(*ch), {"channel": ch},
                          OracleInfeasibleError if near else None))
        return ops

    def check(self, results: list[OpResult]) -> list[str]:
        bad = []
        for r in results:
            if r.op.label == "near-limit":
                alpha, theta, eps, t = r.op.meta["channel"]
                q = evebound.eve_max_gain(alpha, alpha,
                                          ChannelTriple(theta, eps, t)).overlap_min
                if abs(q - NEAR_LIMIT_Q) > 5e-7:
                    bad.append(f"near-limit channel: closed form {q:.6f} != {NEAR_LIMIT_Q}")
            if not r.failed and abs(r.value[0] - r.value[1]) > 1e-3:
                bad.append(f"{r.op.meta['channel']}: closed form {r.value[0]} vs "
                           f"oracle {r.value[1]}")
        return bad


# --- closed loop -------------------------------------------------------------------

PULSES = 10 ** 6
FULL_INFO = ("rotation", "weak-meas", "mixed")


def _expected_cells(config) -> dict[str, float]:
    """Counter probabilities from the attack's branch table.

    Alice's bit is uniform with states at -a' (bit 0) and +a' (bit 1); a
    branch rotates the state or absorbs it; Bob's effect for outcome mu is a
    half-weight projector at -a, pi - a, a, pi + a for 0, 0b, 1, 1b.
    """
    effects = {"0": -config.alpha, "0b": math.pi - config.alpha,
               "1": config.alpha, "1b": math.pi + config.alpha}
    cells = {}
    for bit, phi in ((0, -config.alpha_prime), (1, config.alpha_prime)):
        for mu, psi in effects.items():
            p = 0.0
            for br in config.attack.branches:
                if not br.to_vacuum:
                    p += br.weights[bit] * 0.25 * (1.0 + math.cos(phi + br.rotations[bit] - psi))
            cells[f"n{bit}{mu[0]}" if mu in ("0", "1") else f"n{bit}b{mu[0]}"] = 0.5 * p
    return cells


class ClosedLoop:
    """Simulated runs pushed through the estimator and the key gain."""

    name = "closed_loop"

    def __init__(self, seed: int, short: bool, workdir: str) -> None:
        rng = _rng(seed, 3)
        pulses = 10 ** 5 if short else PULSES
        runs = []
        for _ in range(1 if short else 5):
            for a in (20, 30):
                q0 = attacks.critical_weakness(a * DEG)
                lam = rng.uniform(0.2, 0.8)
                for kind, text in (("rotation", "rotation"),
                                   ("weak-meas", f"weak-meas(q={q0!r})"),
                                   ("mixed", f"mixed(q={q0!r}, lambda={lam!r})")):
                    runs.append((kind, a, text))
            for a in (10, 20, 30):
                eps, t = rng.uniform(0.03, 0.1), rng.uniform(0.5, 0.9)
                runs.append(("depolarize|loss", a,
                             f"depolarize(epsilon={eps!r})|loss(T={t!r})"))
        self.configs = []
        for kind, a, text in runs:
            alpha = a * DEG
            config = simulate.SimConfig(n_total=pulses, alpha_prime=alpha, alpha=alpha,
                                        attack=attacks.parse_attack(text, alpha),
                                        seed=int(rng.integers(2 ** 32)))
            self.configs.append((kind, config))

    def round_ops(self) -> list[Op]:
        return [Op(kind, lambda c=config: simulate.closed_loop_report(c),
                   {"config": config})
                for kind, config in self.configs]

    def check(self, results: list[OpResult]) -> list[str]:
        bad = []
        for r in results:
            config = r.op.meta["config"]
            sim, report = r.value
            n = config.n_total
            for name, p in _expected_cells(config).items():
                got = getattr(sim.counts, name)
                sigma = math.sqrt(n * p * (1.0 - p))
                if abs(got - n * p) > 5.0 * sigma:
                    bad.append(f"{r.op.label} seed {config.seed}: {name}={got}, "
                               f"expected {n * p:.1f} +- {sigma:.1f}")
            if r.op.label in FULL_INFO:
                if sim.eve_accuracy_correct != 1.0:
                    bad.append(f"{r.op.label}: Eve's accuracy {sim.eve_accuracy_correct}")
                if report.gain > 0.0:
                    bad.append(f"{r.op.label}: positive key gain {report.gain}")
        return bad


WORKLOADS = {w.name: w for w in (Figures, Search, Verify, ClosedLoop)}
