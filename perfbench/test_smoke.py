"""Smoke test of the benchmark at toy sizes: n+m=4 fans, a two-control
Toffoli, a 10-point sweep.  Runs in a few seconds, from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402

CONFIG = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
# Every end-to-end metric the benchmark defines; gated ones are also in
# BENCHMARK.json, the rest are printed on the workloads that have them.
END_TO_END = {"setup_s", "wall_s", "qudit_gate_s", "qubus_gate_s", "spin_gate_s",
              "gate_tail_s", "gates_per_s", "points_per_s", "verify_s",
              "fail_frac", "peak_rss_mb"}


@pytest.fixture(scope="module")
def runs():
    """(workload, trace) -> (printed metric lines, result JSON, run record)."""
    out = {}
    for workload in harness.WORKLOADS:
        for trace in (0, 1):
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                code = harness.main(["--workload", workload, "--seed", "1",
                                     "--seconds", "0.01", "--trace", str(trace)],
                                    sizes=harness.TOY)
            assert code == 0
            lines = text.getvalue().strip().splitlines()
            record = json.loads(
                (harness.OUT / f"{workload}-seed1-trace{trace}.json").read_text())
            out[workload, trace] = lines[:-1], json.loads(lines[-1]), record
    return out


def _printed(lines) -> dict:
    """name -> unit from the 'name = value unit' lines."""
    metrics = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[1] == "=":
            metrics[parts[0]] = parts[3]
    return metrics


@pytest.mark.parametrize("workload", harness.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_result_line_matches_benchmark_json(runs, workload, trace):
    _, result, record = runs[workload, trace]
    specs = CONFIG["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [s["name"] for s in specs]
    for spec in specs:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    if not trace:
        assert record["metrics"]["fail_frac"]["value"] == 0.0
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_end_to_end_metric_is_printed_with_a_unit(runs):
    printed = {}
    for workload in harness.WORKLOADS:
        printed.update(_printed(runs[workload, 0][0]))
    assert END_TO_END <= set(printed)
    assert all(printed[name] for name in END_TO_END)


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_span_self_times_sum_to_traced_wall_time(runs, workload):
    _, _, record = runs[workload, 1]
    assert record["span_count"] > 0
    gap = abs(record["span_self_sum_s"] - record["traced_wall_s"])
    assert gap <= harness.SELF_TIME_TOL * record["traced_wall_s"]
