"""Spans around calls into each layer of ``b92sec``, and the per-layer metrics.

The tracer replaces each traced function in every ``b92sec`` module that
holds it by name (``eve_max_gain`` lives in ``evebound``, ``keyrate``,
``cli`` and ``attacks``), so calls made inside the program are seen too.
A call records a span (name, start, end, parent span, op, error) while an op
is active; spans stay in memory until the run ends.  Start and end are CPU
seconds of the process, the clock the end-to-end op times use.  A layer's
self time is its span minus the time its direct child spans cover.  A
target that a later change removes is skipped, not an error.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

# (span name, module, attribute path)
TARGETS = (
    ("cli.main", "b92sec.cli", "main"),
    ("evebound.eve_max_gain", "b92sec.evebound", "eve_max_gain"),
    ("evebound.flipped_bit_gain", "b92sec.evebound", "flipped_bit_gain"),
    ("infobounds.shannon_upper_bound", "b92sec.infobounds", "shannon_upper_bound"),
    ("keyrate.secret_key_gain", "b92sec.keyrate", "secret_key_gain"),
    ("keyrate.optimal_angle", "b92sec.keyrate", "optimal_angle"),
    ("keyrate.positive_noise_limit", "b92sec.keyrate", "positive_noise_limit"),
    ("keyrate.distance_sweep", "b92sec.keyrate", "distance_sweep"),
    ("states.Povm5.probability", "b92sec.states", "Povm5.probability"),
    ("oracle.oracle_min_overlap_lossy", "b92sec.oracle", "oracle_min_overlap_lossy"),
    ("oracle.scan", "b92sec.oracle", "_kernel.scan"),
    ("oracle.refine", "b92sec.oracle", "_refine"),
    ("simulate.run_simulation", "b92sec.simulate", "run_simulation"),
    ("simulate.outcome_distribution", "b92sec.simulate", "outcome_distribution"),
    ("estimation.estimate_channel", "b92sec.estimation", "estimate_channel"),
    ("attacks.parse_attack", "b92sec.attacks", "parse_attack"),
)

CLI_SUBCOMMANDS = ("infogain", "region", "keygain", "distance")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    error: str = ""
    note: Any = None


def _note(name: str, args: tuple, result: Any) -> Any:
    """What a span keeps of its call besides the time."""
    if name == "evebound.eve_max_gain":
        return result.achieving.family
    if name == "simulate.run_simulation":
        return args[0].n_total
    return None


def _resolve(module: str, path: str):
    owner = sys.modules.get(module)
    *heads, attr = path.split(".")
    for head in heads:
        owner = getattr(owner, head, None)
    if owner is None or not hasattr(owner, attr):
        return None, attr
    return owner, attr


class Tracer:
    """Installs the wrappers, records spans while ``op`` is set, restores."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self.skipped: list[str] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            label = name
            if name == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                label = f"cli.{argv[0]}"
            index = len(spans)
            span = Span(label, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            spans.append(span)
            stack.append(index)
            span.start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.process_time()
                stack.pop()
            span.note = _note(name, args, result)
            return result
        return traced

    def install(self) -> None:
        loaded = [m for n, m in sys.modules.items() if n.startswith("b92sec")]
        for name, module, path in TARGETS:
            owner, attr = _resolve(module, path)
            if owner is None:
                self.skipped.append(name)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            holders = [(owner, attr)]
            if not isinstance(owner, type):
                holders += [(m, k) for m in loaded for k, v in vars(m).items()
                            if v is original and (m, k) != (owner, attr)]
            for holder, key in holders:
                self._patched.append((holder, key, original))
                setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("index", "name", "start", "end", "parent", "op", "error"))
            for k, s in enumerate(self.spans):
                out.writerow((k, s.name, f"{s.start:.9f}", f"{s.end:.9f}",
                              s.parent, s.op, s.error))


def per_layer(spans: list[Span], oracle_resolution: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced round, as name -> (value, unit)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for k, s in enumerate(spans):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + (s.end - s.start) - child[k]
        total_s[s.name] = total_s.get(s.name, 0.0) + (s.end - s.start)

    def per_call(name: str, scale: float) -> float:
        return scale * self_s[name] / calls[name] if calls.get(name) else 0.0

    def nested(inner: str, outer: str) -> float:
        """Calls of ``inner`` made inside ``outer``, per call of ``outer``."""
        if not calls.get(outer):
            return 0.0
        count = 0
        for s in spans:
            if s.name != inner:
                continue
            p = s.parent
            while p >= 0 and spans[p].name != outer:
                p = spans[p].parent
            count += p >= 0
        return count / calls[outer]

    def count(name: str, pred: Callable[[Span], bool]) -> int:
        return sum(1 for s in spans if s.name == name and pred(s))

    m: dict[str, tuple[float, str]] = {}
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.self_ms"] = (per_call(f"cli.{sub}", 1e3), "ms")
    for name in ("evebound.eve_max_gain", "evebound.flipped_bit_gain",
                 "infobounds.shannon_upper_bound", "keyrate.secret_key_gain"):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_us"] = (per_call(name, 1e6), "us")
    gain = "evebound.eve_max_gain"
    m["evebound.regime.free"] = (count(gain, lambda s: s.note == "free"), "count")
    m["evebound.regime.type1"] = (count(gain, lambda s: s.note == "type1"), "count")
    m["evebound.regime.type3"] = (
        count(gain, lambda s: str(s.note).startswith("type3")), "count")
    m["evebound.regime.unreachable"] = (
        count(gain, lambda s: s.error == "UnreachableChannelError"), "count")
    m["keyrate.optimal_angle.self_ms"] = (per_call("keyrate.optimal_angle", 1e3), "ms")
    m["keyrate.optimal_angle.gain_evals_per_call"] = (
        nested("keyrate.secret_key_gain", "keyrate.optimal_angle"), "count")
    m["keyrate.positive_noise_limit.self_ms"] = (
        per_call("keyrate.positive_noise_limit", 1e3), "ms")
    m["keyrate.positive_noise_limit.optimal_angle_calls_per_call"] = (
        nested("keyrate.optimal_angle", "keyrate.positive_noise_limit"), "count")
    m["keyrate.distance_sweep.self_ms"] = (per_call("keyrate.distance_sweep", 1e3), "ms")
    m["states.Povm5.probability.calls"] = (calls.get("states.Povm5.probability", 0), "count")
    m["oracle.oracle_min_overlap_lossy.calls"] = (
        calls.get("oracle.oracle_min_overlap_lossy", 0), "count")
    m["oracle.scan.self_ms"] = (per_call("oracle.scan", 1e3), "ms")
    scan_s = self_s.get("oracle.scan", 0.0)
    m["oracle.scan.cells_per_s"] = (
        calls.get("oracle.scan", 0) * oracle_resolution ** 4 / scan_s if scan_s else 0.0,
        "1/s")
    m["oracle.refine.self_ms"] = (per_call("oracle.refine", 1e3), "ms")
    m["oracle.infeasible"] = (
        count("oracle.oracle_min_overlap_lossy",
              lambda s: s.error == "OracleInfeasibleError"), "count")
    m["simulate.run_simulation.self_ms"] = (per_call("simulate.run_simulation", 1e3), "ms")
    sim_s = total_s.get("simulate.run_simulation", 0.0)
    pulses = sum(s.note for s in spans if s.name == "simulate.run_simulation" and s.note)
    m["simulate.pulses_per_s"] = (pulses / sim_s if sim_s else 0.0, "1/s")
    m["simulate.outcome_distribution.self_us"] = (
        per_call("simulate.outcome_distribution", 1e6), "us")
    m["estimation.estimate_channel.self_us"] = (
        per_call("estimation.estimate_channel", 1e6), "us")
    m["attacks.parse_attack.self_us"] = (per_call("attacks.parse_attack", 1e6), "us")
    return m
