"""Every request the benchmark builds runs against this package and passes
its check, so a removed name or a changed signature fails here rather than in
a benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("linalg", "qudit", "qudit_model", "qubus", "spin", "verify", "cli")


@pytest.fixture(scope="module")
def harness():
    # The harness imports its sibling tracing.py by module name, and its
    # dataclasses look their module up in sys.modules.
    spec = importlib.util.spec_from_file_location("perfbench_harness",
                                                  BENCH_DIR / "harness.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    sys.path.insert(0, str(BENCH_DIR))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH_DIR))
    return module


@pytest.mark.parametrize("workload", ["fan", "toffoli", "small"])
def test_benchmark_requests_pass_their_checks(harness, workload, tmp_path):
    # Not harness.import_amqc: it purges amqc from sys.modules.
    mods = SimpleNamespace(**{name: importlib.import_module(f"amqc.{name}")
                              for name in MODULES})
    requests = harness.BUILDERS[workload](mods, np.random.default_rng(1), harness.TOY,
                                          tmp_path)
    assert requests
    for req in requests:
        deviation = float(req.check(req.run()))
        assert deviation <= req.tol, (req.kind, req.backend, deviation)
