"""The benchmark's traced run wraps named amqc functions: every name it wraps
must exist, and uninstalling must put back the very objects it replaced."""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ("linalg", "qudit", "qudit_model", "qubus", "spin", "verify", "cli")


def _lookup(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def test_benchmark_tracer_wraps_and_restores_every_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    mods = SimpleNamespace(**{name: importlib.import_module(f"amqc.{name}")
                              for name in MODULES})
    tracer = tracing.Tracer()
    sites = [(owner, key) for owners, key, _, _ in tracing.patch_plan(tracer, mods)
             for owner in owners]
    originals = [_lookup(owner, key) for owner, key in sites]
    try:
        tracer.install(mods)
        for (owner, key), original in zip(sites, originals):
            assert _lookup(owner, key) is not original, key
    finally:
        tracer.uninstall()
    for (owner, key), original in zip(sites, originals):
        assert _lookup(owner, key) is original, key
