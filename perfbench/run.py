#!/usr/bin/env python3
"""Benchmark of b92sec: four in-process workloads, end to end and per layer.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from a source checkout; the package is imported from ``src/`` next to
this directory and nowhere else.  A run times whole rounds of ops until
``--seconds`` have passed, checks every round's outputs, and prints the
metrics, each workload's ops attempted and failed, and as its last line one
JSON object.  With ``--trace 0`` that object holds the end-to-end metrics,
with ``--trace 1`` the per-layer ones from a traced round.

An op's time is the CPU time of this single-threaded process, which leaves
out time the host steals from a virtual machine, divided by the CPU time of
the reference computation run just before and just after it (see
``reference.py``).  A record of the run, with raw wall and CPU times, and
the spans of a traced run are written under ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "runs"
WORKLOAD_NAMES = ("figures", "search", "verify", "closed_loop")
SETUP_LAUNCHES = 7
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def import_program():
    """Import ``b92sec`` from this checkout's ``src/``, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import b92sec
    except ImportError as exc:
        sys.exit(f"error: cannot import b92sec from {SRC}: {exc}")
    if not Path(b92sec.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: b92sec was imported from {b92sec.__file__}, not from {SRC}")
    return b92sec


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = p / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten of ``n`` samples beyond it."""
    return next((p for p in TAIL_PERCENTILES if round(n * (100.0 - p) / 100.0, 9) >= 10.0),
                50.0)


@dataclass
class Timed:
    label: str
    raw_s: float
    cpu_s: float
    ref_before_s: float
    ref_after_s: float
    adjusted_ms: float
    failed: bool
    error: str


def setup_launches(workload: str, seed: int, short: bool, count: int, ref) -> list[dict]:
    """Time fresh interpreters, one at a time, from launch to inputs ready.

    A launch's time is the CPU time the child has used when its inputs are
    ready, adjusted by reference runs made just before and after it.
    """
    from reference import adjusted_ms

    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)] + (["--short"] if short else [])
    launches = []
    ref_before = ref.time_s()
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter() - start
            child.stdout.read()
            if child.wait() != 0 or not line:
                sys.exit(f"error: set-up launch failed with exit code {child.returncode}")
        ref_after = ref.time_s()
        probe = json.loads(line)
        probe["wall_s"] = ready
        probe["ref_before_s"], probe["ref_after_s"] = ref_before, ref_after
        probe["adjusted_s"] = adjusted_ms(probe["cpu_s"], ref_before, ref_after) / 1e3
        launches.append(probe)
        ref_before = ref_after
    return launches


def run_round(workload, ref, tracer=None) -> tuple[list[Timed], list[str]]:
    """Time one round of ops between reference runs, then check its outputs."""
    from reference import adjusted_ms
    from workloads import OpResult

    ops = workload.round_ops()
    timed, results, problems = [], [], []
    ref_before = ref.time_s()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        error = value = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            value = op.run()
        except Exception as exc:  # every failure is counted; unexpected ones fail the run
            error = exc
        t1 = time.perf_counter()
        c1 = time.process_time()
        if tracer is not None:
            tracer.op = None
        ref_after = ref.time_s()
        timed.append(Timed(op.label, t1 - t0, c1 - c0, ref_before, ref_after,
                           adjusted_ms(c1 - c0, ref_before, ref_after),
                           error is not None, "" if error is None else repr(error)))
        results.append(OpResult(op, value, error))
        ref_before = ref_after
        if error is not None and not (op.expected and isinstance(error, op.expected)):
            problems.append(f"{op.label}: unexpected {error!r}")
    if not problems:
        problems = workload.check(results)
    return timed, problems


def summarize(rounds: list[list[Timed]]) -> dict:
    ops = [t for r in rounds for t in r]
    done = [t.adjusted_ms for t in ops if not t.failed]
    per_round = sum(not t.failed for t in rounds[0])
    tail = tail_percentile(per_round)
    return {
        "ops": ops,
        "attempted": len(ops),
        "failed": sum(t.failed for t in ops),
        "tail_percentile": tail,
        "wall_s": statistics.median(sum(t.adjusted_ms for t in r) / 1e3 for r in rounds),
        "op_p50_ms": statistics.median(done),
        "op_tail_ms": percentile(done, tail),
        "raw_wall_s": statistics.median(sum(t.raw_s for t in r) for r in rounds),
        "raw_cpu_s": statistics.median(sum(t.cpu_s for t in r) for r in rounds),
        "ref_median_ms": 1e3 * statistics.median(
            [t.ref_before_s for t in ops] + [ops[-1].ref_after_s]),
    }


def measure(args) -> tuple[dict, dict, list[str]]:
    """One untraced (or traced) run; returns (metrics, record, problems)."""
    import reference

    ref = reference.Reference()
    for _ in range(5):
        ref.time_s()
    launches = setup_launches(args.workload, args.seed, args.short,
                              1 if args.short else SETUP_LAUNCHES, ref)
    import_program()
    import tracing
    import workloads

    RUNS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=RUNS)
    cls = workloads.WORKLOADS[args.workload]
    problems: list[str] = []
    rounds: list[list[Timed]] = []
    record: dict = {}
    try:
        workload = cls(args.seed, args.short, workdir)
        start = time.perf_counter()
        while True:
            timed, found = run_round(workload, ref)
            rounds.append(timed)
            problems += found
            if args.trace or args.short or time.perf_counter() - start >= args.seconds:
                break
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                tracer.op = -1  # input generation, so set-up calls are seen too
                workload = cls(args.seed, args.short, workdir)
                tracer.op = None
                timed, found = run_round(workload, ref, tracer)
            finally:
                tracer.uninstall()
            problems += found
            tracer.write(str(RUNS / f"spans-{args.workload}-s{args.seed}.csv"))
            record["traced_round"] = [vars(t) for t in timed]
            record["skipped_targets"] = tracer.skipped
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    s = summarize(rounds)
    if args.trace:
        s["attempted"] += len(timed)
        s["failed"] += sum(t.failed for t in timed)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in
                   tracing.per_layer(tracer.spans, workloads.ORACLE_RESOLUTION).items()}
        metrics["startup.interpreter_s"] = {
            "value": statistics.median(p["interpreter_s"] for p in launches), "unit": "s"}
        metrics["startup.import_s"] = {
            "value": statistics.median(p["import_s"] for p in launches), "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": sum(t.cpu_s for t in timed) - s["raw_cpu_s"], "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(p["adjusted_s"] for p in launches),
                        "unit": "s"},
            "wall_s": {"value": s["wall_s"], "unit": "s"},
            "op_p50_ms": {"value": s["op_p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": s["op_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    import numpy
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "short": args.short,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "rounds": len(rounds), "attempted": s["attempted"], "failed": s["failed"],
        "tail_percentile": s["tail_percentile"],
        "raw_wall_s": s["raw_wall_s"], "raw_cpu_s": s["raw_cpu_s"],
        "ref_median_ms": s["ref_median_ms"], "ref_nominal_ms": reference.NOMINAL_MS,
        "setup_launches": launches, "metrics": metrics, "problems": problems,
        "ops": [vars(t) for t in s["ops"]],
    })
    return metrics, record, problems


def run_one(args) -> int:
    metrics, record, problems = measure(args)
    RUNS.mkdir(exist_ok=True)
    name = f"record-{args.workload}-s{args.seed}-t{args.trace}.json"
    (RUNS / name).write_text(json.dumps(record, indent=1) + "\n")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload}: seed {args.seed}, {record['rounds']} round(s), "
          f"{record['attempted']} ops attempted, {record['failed']} failed, "
          f"checks {'passed' if not problems else 'FAILED'}")
    for key, m in metrics.items():
        print(f"  {key:<58} {m['value']:>14.6g} {m['unit']}")
    print(f"  (raw wall {record['raw_wall_s']:.4f} s, raw cpu {record['raw_cpu_s']:.4f} s, "
          f"reference median {record['ref_median_ms']:.4f} ms, "
          f"tail percentile p{record['tail_percentile']:g})")
    print(json.dumps({"correct": not problems, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--short"] if args.short else [])
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or done.returncode
    return status


def probe(args) -> int:
    """Set-up only: import the package and build the inputs, then report.

    Times are CPU seconds of this process: the interpreter's start and this
    script's own imports, the package import, and the input generation.
    """
    start = time.process_time()
    import_program()
    imported = time.process_time()
    import workloads
    workloads.WORKLOADS[args.workload](args.seed, args.short, str(RUNS))
    ready = time.process_time()
    print(json.dumps({"cpu_s": ready, "interpreter_s": start, "import_s": imported - start,
                      "inputs_s": ready - imported}), flush=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="one small round of each op kind, for the tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    # one single-threaded process per workload: no oracle thread pool, no BLAS
    # threads; set before numpy is imported, and inherited by child processes
    os.environ.pop("B92SEC_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.setup_probe:
        return probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
