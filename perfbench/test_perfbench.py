"""Tests of the benchmark itself: short workloads, accounting, arithmetic.

    PYTHONPATH=src python -m pytest perfbench

Each short workload is one small round of every op kind; it runs the same
correctness checks and failed-op accounting as a full run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from reference import NOMINAL_MS, adjusted_ms
from run import percentile, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_adjustment_rescales_by_the_reference():
    assert adjusted_ms(0.010, 0.005, 0.005) == pytest.approx(2.0 * NOMINAL_MS)
    # a machine twice as slow doubles op and reference alike
    assert adjusted_ms(0.020, 0.010, 0.010) == pytest.approx(adjusted_ms(0.010, 0.005, 0.005))
    # the two references around the op are averaged
    assert adjusted_ms(0.010, 0.004, 0.006) == pytest.approx(2.0 * NOMINAL_MS)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert [tail_percentile(n) for n in (20, 39, 40, 99, 100, 200, 1000, 10000)] == [
        50.0, 50.0, 75.0, 75.0, 90.0, 95.0, 99.0, 99.9]
    assert percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 75.0) == 4.0


# ops attempted and failed by one short round
SHORT = {"figures": (9, 1), "search": (6, 0), "verify": (3, 1), "closed_loop": (9, 0)}


@pytest.mark.parametrize("workload", sorted(SHORT))
def test_short_workload_passes_its_checks(workload):
    done = bench("--workload", workload, "--seed", "3", "--short")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == SHORT[workload]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0.0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_and_repeats_its_counts():
    counts = []
    for _ in range(2):
        done = bench("--workload", "search", "--seed", "5", "--short", "--trace", "1")
        assert done.returncode == 0, done.stderr
        metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
        assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
        counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["keyrate.optimal_angle.gain_evals_per_call"] > 90


def test_checks_reject_wrong_outputs():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    verify = workloads.Verify(3, True, "")
    ops = verify.round_ops()
    channel = next(op for op in ops if op.label == "channel")
    assert verify.check([workloads.OpResult(channel, (0.5, 0.5))]) == []
    assert verify.check([workloads.OpResult(channel, (0.5, 0.502))])

    search = workloads.Search(3, True, "")
    limits = [op for op in search.round_ops() if op.label == "positive_noise_limit"]
    flat = [workloads.OpResult(op, 0.02) for op in limits]
    assert any("does not increase" in p for p in search.check(flat))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "search", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
