"""In-memory spans around the benchmark's calls into amqc's public functions.

The traced run installs a timing wrapper on each public function named in
:func:`patch_plan`, at every place a caller looks the name up (a module that
does ``from .qudit import displacement`` holds its own reference, so that
reference is patched too), and removes every wrapper again after each traced
pass.  Untraced passes and untraced runs call the package unmodified.

A span records its name, start, end, parent span, request id and pass.  Its
self time is its duration minus the time its child spans cover; calls are
strictly nested on one thread, so that is the sum of the children's
durations.  Per-pair helpers such as ``coherent_overlap`` (about a million
calls per spin fan) are not wrapped: the residual-entanglement wrappers count
the pairs they evaluate instead.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import time
from collections import defaultdict

CALLS, SECONDS, SELF = 0, 1, 2


class Tracer:
    """Span stack, finished spans and per-pass counters of one traced run."""

    def __init__(self):
        self.spans = []     # (id, name, start, end, parent id, request id, pass, self s)
        self.counters = defaultdict(lambda: defaultdict(float))  # pass -> key -> value
        self.labels = defaultdict(set)                           # pass -> distinct labels
        self.pass_index = None
        self.request_id = None
        self._stack = []    # open spans: [id, name, start, child seconds]
        self._next_id = 0
        self._installed = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def _close(self) -> float:
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = None
        if self._stack:
            parent = self._stack[-1][0]
            self._stack[-1][3] += duration
        self.spans.append((span_id, name, start, end, parent, self.request_id,
                           self.pass_index, duration - child))
        return duration

    @contextlib.contextmanager
    def request(self, pass_index: int, request_id: str):
        """Root span of one request; yields a list that receives its duration."""
        self.pass_index, self.request_id = pass_index, request_id
        elapsed = []
        self._open("request")
        try:
            yield elapsed
        finally:
            elapsed.append(self._close())
            self.request_id = None

    def count(self, key: str, amount: float) -> None:
        self.counters[self.pass_index][key] += amount

    def wrap(self, name, fn, before=None):
        """Wrap ``fn`` in a span; ``name`` is a string or a function of the
        call's arguments, ``before`` an optional counting hook."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            self._open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self, mods) -> None:
        for owners, key, name, before in patch_plan(self, mods):
            original = _get(owners[0], key)
            wrapper = self.wrap(name, original, before)
            for owner in owners:
                self._installed.append((owner, key, _get(owner, key)))
                _set(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            owner, key, original = self._installed.pop()
            _set(owner, key, original)

    # -- summaries -----------------------------------------------------------

    def totals(self) -> dict:
        """pass -> span name -> [calls, seconds, self seconds]."""
        out = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for _, name, start, end, _, _, pass_index, self_s in self.spans:
            row = out[pass_index][name]
            row[CALLS] += 1
            row[SECONDS] += end - start
            row[SELF] += self_s
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as handle:
            handle.write("id,name,start,end,parent,request,pass,self_s\n")
            for span in self.spans:
                handle.write(",".join("" if v is None else str(v) for v in span))
                handle.write("\n")


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def patch_plan(tracer: Tracer, mods):
    """(lookup sites, attribute, span name, counting hook) for every wrapped
    public function.  The first site holds the original function."""
    qudit, qm, linalg = mods.qudit, mods.qudit_model, mods.linalg
    qubus, spin, verify, cli = mods.qubus, mods.spin, mods.verify, mods.cli

    def displacement_label(d, x, p, *rest, **kwargs):
        tracer.labels[tracer.pass_index].add((d, x, p) + rest + tuple(kwargs.items()))

    def element_kind(state, element, *rest, **kwargs):
        if isinstance(element, qm.Interaction):
            kind = "interaction"
        elif isinstance(element, qm.AncillaProjectedGate):
            kind = "projected"
        else:
            kind = "rotation"
        return "qudit_model.apply_element." + kind

    def pairs(prefix):
        def before(state, *args, **kwargs):
            labels = [label for label, _ in state.branches.values()]
            tracer.count(prefix + ".pairs", len(labels) ** 2)
            tracer.count(prefix + ".useful_pairs", len(set(labels)) ** 2)
        return before

    plan = [
        ((qudit, qm, verify), "displacement", "qudit.displacement", displacement_label),
        ((qm,), "apply_element", element_kind, None),
        ((qm,), "run_sequence", "qudit_model.run_sequence", None),
        ((qm, verify, cli), "extract_register_gate",
         "qudit_model.extract_register_gate", None),
        ((linalg, qm), "largest_schmidt_weight", "linalg.largest_schmidt_weight", None),
        ((linalg, cli, verify, spin), "phase_distance", "linalg.phase_distance", None),
        ((qubus,), "field_fan", "qubus.field_fan", None),
        ((qubus,), "fan_target_unitary", "qubus.fan_target_unitary", None),
        ((qubus,), "field_two_qubit", "qubus.field_two_qubit", None),
        ((qubus.FieldBranchState,), "residual_entanglement",
         "qubus.residual_entanglement", pairs("qubus.residual_entanglement")),
        ((spin,), "fan_sequence_simulate", "spin.fan_sequence_simulate", None),
        ((spin.SpinBranchState,), "residual_entanglement",
         "spin.residual_entanglement", pairs("spin.residual_entanglement")),
        ((spin,), "fan_error", "spin.fan_error", None),
        ((spin,), "eta_for_phase", "spin.eta_for_phase", None),
        ((spin,), "loop_close", "spin.loop_close", None),
        ((spin,), "spin_two_qubit_gate", "spin.spin_two_qubit_gate", None),
        ((spin,), "contraction_probe", "spin.contraction_probe", None),
        ((cli,), "cmd_sweep", "cli.sweep", None),
        ((cli,), "cmd_contraction", "cli.contraction", None),
    ]
    # The suite table holds its own references to the suite functions.
    plan += [((verify.SUITES,), suite, f"verify.{suite}", None)
             for suite in list(verify.SUITES)]
    return plan
