"""Closed-loop benchmark of amqc: time to a verified register gate.

Run from the repository root (see perfbench/README.md)::

    python3 perfbench/run.py --workload fan --seed 1 --seconds 40 --trace 0

One invocation runs one workload in its own process as a closed loop: a
single caller issues one request at a time and waits for it, with no worker
threads and OpenBLAS held to one thread.  A *pass* is the workload's fixed,
seeded request list; passes repeat until ``--seconds`` of measurement have
elapsed.  Every request's output is checked against an oracle.  The last line
of standard output is one JSON object carrying the metrics BENCHMARK.json
names: the end-to-end ones with ``--trace 0``, the per-layer ones with
``--trace 1``.  Every other metric of the workload is printed above it, and a
run record goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import importlib
import importlib.metadata
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from tracing import CALLS, SECONDS, SELF, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

WORKLOADS = ("fan", "toffoli", "small")
# Reserved for confirming a claimed gain; never used while a change is tuned.
HELD_OUT_SEED = 7919
GATE_TOL = 1e-10     # phase distance of an extracted gate from its oracle
EXACT_TOL = 1e-12    # ancilla return defect; spin fan phase vs closed form
CSV_TOL = 1e-10      # relative; the CLI writes 12 significant digits
SETUP_REPEATS = 11
MAX_TRACED_PASSES = 4
# Machine-speed calibration (see reference_seconds): a checkpoint runs the
# reference kernel REF_REPEATS times after every REF_INTERVAL_S of measured
# request time.  REF_NOMINAL_S is the kernel's median time on the machine the
# benchmark was defined on (shared 2-CPU x86-64 VM, one OpenBLAS thread), so
# calibrated times read as seconds at that machine's quiet speed.
REF_NOMINAL_S = 0.003
REF_REPEATS = 3
REF_INTERVAL_S = 0.25
# Summed span self times may differ from the traced wall time only by
# floating-point rounding of the subtraction.
SELF_TIME_TOL = 1e-9
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
ZZ = np.array([1.0, -1.0, -1.0, 1.0])
FAN_D = 5           # ancilla dimension of the qudit fan
FAN_SPINS = 10 ** 6  # ensemble size of the spin fan


class CheckError(Exception):
    """A request's output failed a check."""


@dataclass(frozen=True)
class Sizes:
    fan_n: int = 4                  # controls = targets, so n + m = 8
    toffoli_n: int = 8
    toffoli_d: int = 10
    scan_ds: tuple = (2, 3, 4, 5, 8)
    rects: int = 8
    sweep_steps: int = 2000
    sweep_n_list: str = "1e4,1e5,1e6,1e7,1e8,1e9"
    contraction_n_max: int = 10 ** 6
    series: tuple = (6, 8, 10)      # n + m of the traced run's size series


FULL = Sizes()
TOY = Sizes(fan_n=2, toffoli_n=2, toffoli_d=4, scan_ds=(2, 3), rects=2,
            sweep_steps=10, sweep_n_list="1e6", contraction_n_max=8000, series=(2, 4))


@dataclass
class Request:
    kind: str
    backend: str | None          # backend of a gate request, None otherwise
    run: Callable[[], object]    # the package calls that are timed
    check: Callable[[object], float]  # deviation of the output; may raise
    tol: float
    rows: int = 0                # rows a sweep writes


@dataclass
class Outcome:
    kind: str
    backend: str | None
    pass_index: int              # -1 for the traced run's size series
    traced: bool
    seconds: float
    deviation: float | None
    ok: bool
    rows: int
    error: str | None
    checkpoint: int = -1         # reference checkpoint taken before the request
    ref: float = math.nan        # reference kernel seconds around the request

    @property
    def calibrated(self) -> float:
        """Seconds scaled to the reference machine speed."""
        return self.seconds * REF_NOMINAL_S / self.ref


# ----------------------------------------------------------------------------
# set-up: import the package and build seeded inputs and bench-side oracles
# ----------------------------------------------------------------------------

def import_amqc() -> SimpleNamespace:
    """Import amqc afresh from this checkout's src/ and return its modules."""
    for name in [m for m in sys.modules if m == "amqc" or m.startswith("amqc.")]:
        del sys.modules[name]
    names = ("linalg", "qudit", "qudit_model", "qubus", "spin", "verify", "cli")
    mods = {name: importlib.import_module(f"amqc.{name}") for name in names}
    origin = Path(sys.modules["amqc"].__file__).resolve().parent
    if origin != (SRC / "amqc").resolve():
        raise RuntimeError(f"amqc imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def _distance(mods, unitary, oracle) -> float:
    if unitary is None:
        raise CheckError("no register unitary: the ancilla did not disentangle")
    return mods.linalg.phase_distance(unitary, oracle)


def _gate_check(out) -> float:
    distance, fidelity = out
    if abs(1.0 - fidelity) > EXACT_TOL:
        raise CheckError(f"ancilla return fidelity defect {abs(1.0 - fidelity):.3e}")
    return distance


def gate_request(kind, backend, mods, make_report, oracle) -> Request:
    """Sequence build + extraction (in ``make_report``) + phase_distance."""
    def run():
        rep = make_report()
        return _distance(mods, rep.register_unitary, oracle), rep.ancilla_return_fidelity
    return Request(kind, backend, run, _gate_check, GATE_TOL)


def fan_requests(mods, rng, n: int) -> list[Request]:
    """One n x n bipartite fan on each backend."""
    d, spins = FAN_D, FAN_SPINS
    xs = [int(v) for v in rng.integers(1, d, size=n)]
    ps = [int(v) for v in rng.permutation(xs)]
    scale = math.sqrt(2 * math.pi / d)   # lattice spacing that equates loop areas
    fxs, fps = [x * scale for x in xs], [p * scale for p in ps]
    qm, qubus, spin = mods.qudit_model, mods.qubus, mods.spin

    def qudit():
        oracle = qubus.fan_target_unitary(fxs, fps)
        rep = qm.extract_register_gate(qm.fan_bipartite(xs, ps, d, polarity=qm.SYMMETRIC))
        return _distance(mods, rep.register_unitary, oracle), rep.ancilla_return_fidelity

    def field():
        oracle = qubus.fan_target_unitary(fxs, fps)
        rep = qubus.field_fan(fxs, fps)
        return _distance(mods, rep.register_unitary, oracle), rep.ancilla_return_fidelity

    def spin_fan():
        # ps permutes xs, so the extremal branch runs the symmetric rectangle
        # of the closed form with zeta_n = sum(xs).
        rep = spin.fan_sequence_simulate(xs, ps, spins)
        return abs(rep.extremal_phase - spin.fan_error(float(sum(xs)), spins).phi_f)

    return [Request("fan", "qudit", qudit, _gate_check, GATE_TOL),
            Request("fan", "qubus", field, _gate_check, GATE_TOL),
            Request("fan", "spin", spin_fan, float, EXACT_TOL)]


def build_fan(mods, rng, sizes: Sizes, tmp: Path) -> list[Request]:
    return fan_requests(mods, rng, sizes.fan_n)


def build_toffoli(mods, rng, sizes: Sizes, tmp: Path) -> list[Request]:
    n, d, qm = sizes.toffoli_n, sizes.toffoli_d, mods.qudit_model
    u = mods.linalg.random_unitary(2, rng)
    theta = float(rng.uniform(0.1, 2 * math.pi - 0.1))
    dim = 2 ** (n + 1)
    toffoli_oracle = np.eye(dim, dtype=complex)
    toffoli_oracle[-2:, -2:] = u             # |1..1>|0>, |1..1>|1> block
    bits = (np.arange(dim)[:, None] >> np.arange(n, -1, -1)) & 1   # column q = qubit q
    modd_oracle = np.diag(np.exp(1j * theta * (bits[:, :n].sum(axis=1) % d) * bits[:, n]))
    return [
        gate_request("toffoli", "qudit", mods,
                     lambda: qm.extract_register_gate(qm.generalized_toffoli(n, u, d)),
                     toffoli_oracle),
        gate_request("modd", "qudit", mods,
                     lambda: qm.extract_register_gate(qm.mod_d_phase_gate(theta, n, d)),
                     modd_oracle),
    ]


def _scan_request(mods, d, x, p) -> Request:
    qm = mods.qudit_model
    oracle = np.diag([1.0, 1.0, 1.0, np.exp(2j * np.pi * x * p / d)])
    return gate_request("scan", "qudit", mods,
                        lambda: qm.extract_register_gate(qm.two_qubit_sequence(0, 1, x, p, d)),
                        oracle)


def _spin_rect_request(mods, theta, n_spins) -> Request:
    spin = mods.spin
    return gate_request(
        "spin_rect", "spin", mods,
        lambda: spin.spin_two_qubit_gate(spin.eta_for_phase(theta, n_spins), n_spins),
        np.diag(np.exp(1j * theta * ZZ)))


def _qubus_rect_request(mods, x, p, label) -> Request:
    qubus = mods.qubus
    return gate_request("qubus_rect", "qubus", mods,
                        lambda: qubus.field_two_qubit(x, p, initial_label=label),
                        np.diag(np.exp(1j * x * p * ZZ)))


def _cli_request(kind, mods, argv, check, tol, rows=0) -> Request:
    def run():
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = mods.cli.main(argv)
        return code, captured.getvalue()
    return Request(kind, None, run, check, tol, rows)


def _exit_ok(code, text) -> None:
    if code != 0:
        raise CheckError(f"exit {code}: {text.strip().splitlines()[-1:]}")


def _rel_dev(actual, expected) -> float:
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    if actual.shape != expected.shape:
        raise CheckError(f"{actual.shape[0]} rows, expected {expected.shape[0]}")
    return float(np.max(np.abs(actual - expected) / np.maximum(np.abs(expected), 1e-300)))


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def build_small(mods, rng, sizes: Sizes, tmp: Path) -> list[Request]:
    spin, qubus = mods.spin, mods.qubus
    scan = [(d, x, p) for d in sizes.scan_ds for x in range(d) for p in range(d)]
    requests = [_scan_request(mods, *scan[i]) for i in rng.permutation(len(scan))]

    top = spin.loop_close(spin.ETA_MAX).phi_t   # largest phase per spin
    for _ in range(sizes.rects):
        n_spins = int(rng.integers(2, 13))
        theta = float(rng.uniform(0.05, 0.9 * n_spins * top))
        requests.append(_spin_rect_request(mods, theta, n_spins))
    for _ in range(sizes.rects):
        x, p, lx, lp = (float(v) for v in rng.uniform(-1.0, 1.0, size=4))
        requests.append(_qubus_rect_request(mods, 0.7 + 0.5 * x, 0.7 + 0.5 * p,
                                            qubus.FieldLabel(lx, lp)))

    requests.append(_cli_request(
        "verify", mods, ["verify", "all"], lambda out: _exit_ok(*out) or 0.0, 0.0))

    # sweep: the CSV must reproduce the closed form on the requested grid
    zmin, zmax = float(rng.uniform(0.5, 1.5)), float(rng.uniform(45.0, 55.0))
    n_list = [float(v) for v in sizes.sweep_n_list.split(",")]
    zeta = np.repeat(np.linspace(zmin, zmax, sizes.sweep_steps), len(n_list))
    n_sp = np.tile(n_list, sizes.sweep_steps)
    w = zeta ** 2 / (2 * n_sp)
    phi_f = n_sp * np.arctan2(2 * w, 1 + 2 * w - w * w)
    infid = -np.expm1(-n_sp * np.log1p(8 * w ** 3 / (1 + w) ** 4))
    sweep_path = tmp / "sweep.csv"

    def check_sweep(out):
        _exit_ok(*out)
        data = _read_csv(sweep_path)
        return max(_rel_dev(data[:, 0], zeta), _rel_dev(data[:, 1], n_sp),
                   _rel_dev(data[:, 2], phi_f), _rel_dev(data[:, 4], infid))

    requests.append(_cli_request(
        "sweep", mods,
        ["sweep", "--zeta-min", repr(zmin), "--zeta-max", repr(zmax),
         "--zeta-steps", str(sizes.sweep_steps), "--n-list", sizes.sweep_n_list,
         "--out", str(sweep_path)],
        check_sweep, CSV_TOL, rows=zeta.size))

    # contraction: phase and vacuum overlap against the flat limit formulas
    zc = complex(float(rng.uniform(1.0, 5.0)) * cmath.exp(1j * float(rng.uniform(0, 2 * math.pi))))
    n_c = []
    while 1000 * 2 ** len(n_c) <= sizes.contraction_n_max:
        n_c.append(1000.0 * 2 ** len(n_c))
    n_c = np.array(n_c)
    u2 = abs(zc) ** 2 / (2 * n_c)
    c_phi = n_c * np.arctan2(2 * u2, 1 + 2 * u2 - u2 * u2)
    c_overlap = np.exp(-n_c * np.log1p(u2))
    contraction_path = tmp / "contraction.csv"

    def check_contraction(out):
        _exit_ok(*out)
        data = _read_csv(contraction_path)
        return max(_rel_dev(data[:, 0], n_c), _rel_dev(data[:, 1], c_phi),
                   _rel_dev(data[:, 3], c_overlap))

    requests.append(_cli_request(
        "contraction", mods,
        ["contraction", "--zeta", str(zc), "--n-min", "1000",
         "--n-max", str(sizes.contraction_n_max), "--out", str(contraction_path)],
        check_contraction, CSV_TOL))
    return requests


BUILDERS = {"fan": build_fan, "toffoli": build_toffoli, "small": build_small}


def set_up(workload: str, seed: int, sizes: Sizes, tmp: Path):
    """Import and build SETUP_REPEATS times, each between two reference
    checkpoints; keep the last.

    Returns the modules, the requests, and the raw and calibrated set-up
    times.
    """
    raw, calibrated = [], []
    ref = reference_seconds()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        mods = import_amqc()
        requests = BUILDERS[workload](mods, np.random.default_rng(seed), sizes, tmp)
        raw.append(time.perf_counter() - start)
        ref_after = reference_seconds()
        calibrated.append(raw[-1] * REF_NOMINAL_S / (0.5 * (ref + ref_after)))
        ref = ref_after
    return mods, requests, raw, calibrated


# ----------------------------------------------------------------------------
# machine-speed calibration
# ----------------------------------------------------------------------------

_REF_SYM = np.random.default_rng(0).standard_normal((96, 96))
_REF_SYM = _REF_SYM + _REF_SYM.T
_REF_TALL = np.random.default_rng(1).standard_normal((256, 8)) + 0j
_REF_EYE = np.eye(8)


def reference_kernel() -> None:
    """Fixed work independent of amqc, of the three kinds amqc's requests are
    made of: a pure-Python complex loop, many small numpy operations, and
    LAPACK on small dense matrices."""
    acc = 0j
    for k in range(6000):
        acc += cmath.exp(1j * k * 1e-3) * (k & 7)
    for _ in range(60):
        (_REF_TALL * np.exp(0.1j)) @ _REF_EYE
    np.linalg.eigvalsh(_REF_SYM)
    np.linalg.svd(_REF_TALL, compute_uv=False)


def reference_seconds() -> float:
    """Median of REF_REPEATS timed runs of the reference kernel.

    The machine is shared and its speed drifts by tens of percent over
    minutes, in CPU time as much as in wall time.  Scaling every request by
    the kernel time measured just before and after it removes most of that
    drift from the calibrated metrics; the raw ones are recorded as well.
    """
    times = []
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ----------------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------------

def run_request(req: Request, pass_index: int, index: int,
                tracer: Tracer | None = None) -> Outcome:
    error = deviation = None
    start = time.perf_counter()
    try:
        if tracer is None:
            out = req.run()
        else:
            with tracer.request(pass_index, f"{pass_index}.{index}") as elapsed:
                out = req.run()
    except Exception:   # the loop must go on; the failure is recorded
        error = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    if tracer is not None:
        seconds = elapsed[0]
    if error is None:
        try:
            deviation = float(req.check(out))
        except Exception:
            error = traceback.format_exc(limit=3)
    ok = error is None and deviation <= req.tol
    return Outcome(req.kind, req.backend, pass_index, tracer is not None, seconds,
                   deviation, ok, req.rows, error)


def run_passes(requests, seconds: float, mods=None, tracer: Tracer | None = None):
    """Repeat the request list until ``seconds`` have elapsed.

    With a tracer, passes alternate untraced and traced (wrappers installed
    for the traced ones only), and at least three run: the first untraced
    pass also fills caches and finishes lazy imports, so the tracing
    overhead is taken against the later untraced passes.  Tracing stops
    after MAX_TRACED_PASSES traced passes, which bounds the spans held.
    """
    outcomes = []
    refs = [reference_seconds()]
    since_ref = 0.0
    start = time.perf_counter()
    pass_index = 0
    last = 2 * MAX_TRACED_PASSES if tracer is not None else math.inf
    while pass_index <= last:
        traced = tracer is not None and pass_index % 2 == 1
        if traced:
            tracer.install(mods)
        try:
            for index, req in enumerate(requests):
                outcome = run_request(req, pass_index, index, tracer if traced else None)
                outcome.checkpoint = len(refs) - 1
                outcomes.append(outcome)
                since_ref += outcome.seconds
                if since_ref >= REF_INTERVAL_S:
                    refs.append(reference_seconds())
                    since_ref = 0.0
        finally:
            if traced:
                tracer.uninstall()
        pass_index += 1
        min_passes = 3 if tracer is not None else 1
        if pass_index >= min_passes and time.perf_counter() - start >= seconds:
            break
    refs.append(reference_seconds())
    for outcome in outcomes:
        outcome.ref = 0.5 * (refs[outcome.checkpoint] + refs[outcome.checkpoint + 1])
    return outcomes


def pass_times(outcomes, traced: bool, calibrated: bool = True) -> dict:
    """pass index -> summed request seconds, for untraced or traced passes."""
    totals = {}
    for o in outcomes:
        if o.pass_index >= 0 and o.traced == traced:
            seconds = o.calibrated if calibrated else o.seconds
            totals[o.pass_index] = totals.get(o.pass_index, 0.0) + seconds
    return totals


def tail(durations):
    """(value, percentile) of the highest ladder percentile with at least
    TAIL_MIN_BEYOND samples beyond it, or None."""
    for pct in TAIL_LADDER:
        if len(durations) * (1 - pct / 100) >= TAIL_MIN_BEYOND:
            return float(np.percentile(durations, pct)), pct
    return None


def end_to_end(outcomes, setup_seconds: float, calibrated: bool = True) -> dict:
    """name -> (value, unit) for every end-to-end metric the workload has,
    from calibrated or from raw times."""
    def secs(o):
        return o.calibrated if calibrated else o.seconds
    walls = list(pass_times(outcomes, traced=False, calibrated=calibrated).values())
    gates = [o for o in outcomes if o.backend is not None]
    m = {"setup_s": (setup_seconds, "s"),
         "wall_s": (statistics.median(walls), "s"),
         "gates_per_s": (sum(o.ok for o in gates) / sum(walls), "1/s"),
         "fail_frac": (sum(not o.ok for o in outcomes) / len(outcomes), "ratio"),
         "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
    for backend in ("qudit", "qubus", "spin"):
        durations = [secs(o) for o in gates if o.backend == backend]
        if durations:
            m[f"{backend}_gate_s"] = (statistics.median(durations), "s")
    found = tail([secs(o) for o in outcomes])
    if found is not None:
        m["gate_tail_s"] = (found[0], "s")
        m["gate_tail_pct"] = (found[1], "percentile")
        m["gate_tail_n"] = (len(outcomes), "count")
    sweeps = [o.rows / secs(o) for o in outcomes if o.kind == "sweep"]
    if sweeps:
        m["points_per_s"] = (statistics.median(sweeps), "1/s")
    verifies = [secs(o) for o in outcomes if o.kind == "verify"]
    if verifies:
        m["verify_s"] = (statistics.median(verifies), "s")
    return m


# metric -> (span names summed, field), each taken as a per-pass median
SPAN_METRICS = {
    "qudit.displacement.calls": (("qudit.displacement",), CALLS),
    "qudit.displacement.s": (("qudit.displacement",), SECONDS),
    "qudit_model.apply_element.calls": (
        ("qudit_model.apply_element.interaction", "qudit_model.apply_element.projected",
         "qudit_model.apply_element.rotation"), CALLS),
    "qudit_model.apply_element.interaction_s": (
        ("qudit_model.apply_element.interaction",), SECONDS),
    "qudit_model.apply_element.projected_s": (
        ("qudit_model.apply_element.projected",), SECONDS),
    "qudit_model.apply_element.rotation_s": (
        ("qudit_model.apply_element.rotation",), SECONDS),
    "qudit_model.run_sequence.calls": (("qudit_model.run_sequence",), CALLS),
    "qudit_model.extract_register_gate.self_s": (
        ("qudit_model.extract_register_gate",), SELF),
    "linalg.largest_schmidt_weight.calls": (("linalg.largest_schmidt_weight",), CALLS),
    "linalg.largest_schmidt_weight.s": (("linalg.largest_schmidt_weight",), SECONDS),
    "linalg.phase_distance.calls": (("linalg.phase_distance",), CALLS),
    "linalg.phase_distance.s": (("linalg.phase_distance",), SECONDS),
    "qubus.field_fan.self_s": (("qubus.field_fan",), SELF),
    "qubus.residual_entanglement.s": (("qubus.residual_entanglement",), SECONDS),
    "qubus.fan_target_unitary.s": (("qubus.fan_target_unitary",), SECONDS),
    "spin.fan_sequence_simulate.self_s": (("spin.fan_sequence_simulate",), SELF),
    "spin.residual_entanglement.s": (("spin.residual_entanglement",), SECONDS),
    "spin.fan_error.calls": (("spin.fan_error",), CALLS),
    "spin.fan_error.s": (("spin.fan_error",), SECONDS),
    "cli.sweep.self_s": (("cli.sweep",), SELF),
    "spin.eta_for_phase.s": (("spin.eta_for_phase",), SECONDS),
    "spin.loop_close.calls": (("spin.loop_close",), CALLS),
    "spin.spin_two_qubit_gate.s": (("spin.spin_two_qubit_gate",), SECONDS),
    "qubus.field_two_qubit.s": (("qubus.field_two_qubit",), SECONDS),
    "spin.contraction_probe.s": (("spin.contraction_probe",), SECONDS),
    "cli.contraction.s": (("cli.contraction",), SECONDS),
    "verify.qudit_s": (("verify.qudit",), SECONDS),
    "verify.spin_s": (("verify.spin",), SECONDS),
    "verify.qubus_s": (("verify.qubus",), SECONDS),
    "verify.cross_s": (("verify.cross",), SECONDS),
}
SPAN_UNITS = {CALLS: "count", SECONDS: "s", SELF: "s"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, outcomes, growth) -> dict:
    """name -> (value, unit) from the traced passes and the size series."""
    totals = tracer.totals()
    passes = sorted(totals)
    m = {}
    for name, (spans, field) in SPAN_METRICS.items():
        values = [sum(totals[p][s][field] for s in spans if s in totals[p]) for p in passes]
        m[name] = (statistics.median(values), SPAN_UNITS[field])
    m["qudit.displacement.distinct_ratio"] = (statistics.median(
        _ratio(len(tracer.labels[p]), totals[p]["qudit.displacement"][CALLS])
        if "qudit.displacement" in totals[p] else 0.0 for p in passes), "ratio")
    for layer in ("qubus", "spin"):
        key = f"{layer}.residual_entanglement"
        m[key + ".pairs"] = (statistics.median(
            tracer.counters[p][key + ".pairs"] for p in passes), "count")
        m[key + ".useful_pair_ratio"] = (statistics.median(
            _ratio(tracer.counters[p][key + ".useful_pairs"],
                   tracer.counters[p][key + ".pairs"]) for p in passes), "ratio")
    for backend, value in growth.items():
        m[f"{backend}.fan.growth_per_qubit"] = (value, "ratio")

    def worst(select):
        return max((o.deviation for o in outcomes
                    if o.pass_index >= 0 and o.deviation is not None and select(o)),
                   default=0.0)
    m["qudit.max_dev"] = (worst(lambda o: o.backend == "qudit"), "frobenius")
    m["qubus.max_dev"] = (worst(lambda o: o.backend == "qubus"), "frobenius")
    m["spin.extremal_dev"] = (worst(lambda o: o.kind == "fan" and o.backend == "spin"), "rad")
    untraced = statistics.median(
        t for p, t in pass_times(outcomes, traced=False).items() if p > 0)
    traced = statistics.median(pass_times(outcomes, traced=True).values())
    m["trace.overhead_frac"] = ((traced - untraced) / untraced, "ratio")
    return m


def size_series(mods, seed: int, sizes: Sizes):
    """Untraced fans at each n + m of ``sizes.series``: the per-qubit growth
    factor of each backend's request time, fitted in log space, and the
    outcomes."""
    rng = np.random.default_rng(seed)
    nqs = list(sizes.series)
    outcomes, times = [], {}
    for nq in nqs:
        for req in fan_requests(mods, rng, nq // 2):
            o = run_request(req, -1, nq)
            outcomes.append(o)
            times.setdefault(req.backend, []).append(o.seconds)
    growth = {b: float(math.exp(np.polyfit(nqs, np.log(t), 1)[0])) for b, t in times.items()}
    return growth, outcomes, {"n_plus_m": nqs, "seconds": times}


# ----------------------------------------------------------------------------
# run record and entry point
# ----------------------------------------------------------------------------

def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    cpus = os.cpu_count()
    return {
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": openblas,
        "nproc": cpus,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_at_start": os.getloadavg(),
        "clock": f"wall-clock time.perf_counter on a shared {cpus}-CPU machine; "
                 "end-to-end times calibrated by the reference kernel",
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = FULL) -> tuple[dict, dict]:
    """Set up and measure one workload; returns (metrics, run record)."""
    env = environment()
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        mods, requests, setup_raw, setup_cal = set_up(workload, seed, sizes, tmp)
        tracer = Tracer() if trace else None
        outcomes = run_passes(requests, seconds, mods, tracer)
        if trace:
            growth, series_outcomes, series = size_series(mods, seed, sizes)
            outcomes += series_outcomes
            metrics = per_layer(tracer, outcomes, growth)
            spans_path = OUT / f"{workload}-seed{seed}-spans.csv.gz"
            tracer.write(spans_path)
            traced_wall = sum(pass_times(outcomes, traced=True, calibrated=False).values())
            self_sum = sum(span[-1] for span in tracer.spans)
            extra = {"series": series, "spans": str(spans_path.relative_to(ROOT)),
                     "span_count": len(tracer.spans), "traced_wall_s": traced_wall,
                     "span_self_sum_s": self_sum}
        else:
            metrics = end_to_end(outcomes, statistics.median(setup_cal))
            raw = end_to_end(outcomes, statistics.median(setup_raw), calibrated=False)
            extra = {"raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = [o for o in outcomes if not o.ok]
    record = {
        "workload": workload, "seed": seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds, "trace": int(trace), "sizes": asdict(sizes),
        "environment": env, "setup_s_samples": setup_raw,
        "reference": {"nominal_s": REF_NOMINAL_S,
                      "median_s": statistics.median(o.ref for o in outcomes if o.pass_index >= 0)},
        "passes": len({o.pass_index for o in outcomes if o.pass_index >= 0}),
        "attempted": len(outcomes), "failed": len(failed),
        "failures": [asdict(o) for o in failed[:20]],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "requests": [(o.kind, o.backend, o.pass_index, o.seconds, o.ref, o.deviation, o.ok)
                     for o in outcomes],
        **extra,
    }
    return metrics, record


def select(metrics: dict, specs) -> dict:
    """The metrics BENCHMARK.json names, with the units it states."""
    out = {}
    for spec in specs:
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise RuntimeError(f"{spec['name']}: unit {unit!r}, BENCHMARK.json "
                               f"says {spec['unit']!r}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None, sizes: Sizes = FULL) -> int:
    args = parse_args(argv)
    config = ROOT / "BENCHMARK.json"
    if not (SRC / "amqc" / "__init__.py").is_file() or not config.is_file():
        print(f"error: needs {SRC / 'amqc'} and {config}; run from a full checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    specs = json.loads(config.read_text())["per_layer" if args.trace else "end_to_end"]

    metrics, record = run(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for name, entry in record.get("raw_metrics", {}).items():
        print(f"raw {name} = {entry['value']!r} {entry['unit']}")
    print(f"reference kernel median {record['reference']['median_s']!r} s "
          f"(nominal {REF_NOMINAL_S} s)")
    print(f"attempted {record['attempted']}, failed {record['failed']}, "
          f"passes {record['passes']}; record {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": select(metrics, specs)}))
    return 0
