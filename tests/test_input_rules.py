"""Every refused input, sent to every public entry point that takes it, is a
one-line ValueError raised by amqc itself: each input rule (integer, lattice
label, qudit dimension, qubit index, register vector and index, initial label,
fan shape, ensemble size) has one owner, and every backend applies the strict
copy."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from amqc.branches import fan_steps
from amqc.linalg import PAULI_X
from amqc.qubus import FieldBranchState, FieldLabel, apply_controlled_field, field_fan
from amqc.qudit import (
    HALF_ROOT,
    LatticeLabel,
    compose_labels,
    displacement,
    displacements,
    fourier,
    generalized_pauli,
    loop_phase,
    rotation,
)
from amqc.qudit_model import (
    AncillaProjectedGate,
    ControlledAncillaRotation,
    HybridState,
    Interaction,
    InteractionSequence,
    LocalAncillaRotation,
    apply_element,
    extract_register_gate,
    fan_bipartite,
    fan_one_target,
    two_qubit_sequence,
)
from amqc.spin import (
    SpinBranchState,
    apply_controlled_spin,
    fan_sequence_simulate,
    spin_two_qubit_gate,
)

UNIFORM = np.full(4, 0.5)
GROUND = np.array([1.0, 0.0, 0.0])


def _qudit_paths(kind, element):
    """The element alone (the branch engine for an interaction), beside a
    rotation (label classes), and on the dense simulator."""
    alone = InteractionSequence(2, 3, [element])
    rotated = InteractionSequence(2, 3, [element, LocalAncillaRotation(0.1)])
    return [(f"extract-{kind}", lambda: extract_register_gate(alone)),
            (f"extract-{kind}-classes", lambda: extract_register_gate(rotated)),
            (f"apply_element-{kind}",
             lambda: apply_element(HybridState.basis(2, 0, GROUND), element))]


def _qubit(q):
    field = FieldBranchState.from_register(UNIFORM)
    sphere = SpinBranchState.from_register(UNIFORM, 10)
    return [("apply_controlled_field", lambda: apply_controlled_field(field, q, 0.1, 0.2)),
            ("apply_controlled_spin", lambda: apply_controlled_spin(sphere, q, 0.1)),
            *_qudit_paths("interaction", Interaction(q, 1, 0)),
            *_qudit_paths("projected", AncillaProjectedGate(q, 0, PAULI_X)),
            *_qudit_paths("rotation", ControlledAncillaRotation(q, 0.3))]


def _register(register):
    return [("FieldBranchState.from_register", lambda: FieldBranchState.from_register(register)),
            ("SpinBranchState.from_register",
             lambda: SpinBranchState.from_register(register, 10)),
            ("HybridState.from_product", lambda: HybridState.from_product(1, register, GROUND))]


def _register_index(index):
    return [("HybridState.basis", lambda: HybridState.basis(2, index, GROUND))]


def _initial_label(z):
    label = FieldLabel(z.real, z.imag)
    return [("FieldBranchState.from_register",
             lambda: FieldBranchState.from_register(UNIFORM, label)),
            ("SpinBranchState.from_register",
             lambda: SpinBranchState.from_register(UNIFORM, 10, z)),
            ("field_fan", lambda: field_fan([1.0], [1.0], label))]


def _label(x, p):
    return [("LatticeLabel", lambda: LatticeLabel(x, p, 5)),
            ("LatticeLabel-keywords", lambda: LatticeLabel(x=x, p=p, d=5)),
            ("displacement", lambda: displacement(5, x, p)),
            ("displacements", lambda: displacements(5, [x], [p])),
            ("compose_labels", lambda: compose_labels(([x], [p]), ([1], [1]), HALF_ROOT, 5)),
            ("loop_phase", lambda: loop_phase(([[x, 0]], [[p, 0]]), HALF_ROOT, 5)),
            *_qudit_paths("interaction", Interaction(0, x, p))]


def _dimension(d):
    return [("LatticeLabel", lambda: LatticeLabel(1, 1, d)),
            ("generalized_pauli", lambda: generalized_pauli(d)),
            ("fourier", lambda: fourier(d)),
            ("displacement", lambda: displacement(d, 1, 1)),
            ("displacements", lambda: displacements(d, [0, 1], 1)),
            ("rotation", lambda: rotation(d, 0.3)),
            ("InteractionSequence", lambda: InteractionSequence(2, d, [])),
            ("InteractionSequence-keywords",
             lambda: InteractionSequence(n_qubits=2, d=d, elements=[])),
            ("two_qubit_sequence", lambda: two_qubit_sequence(0, 1, 1, 1, d)),
            ("fan_bipartite", lambda: fan_bipartite([1], [1], d))]


def _register_size(n):
    return [("InteractionSequence", lambda: InteractionSequence(n, 3, [])),
            ("InteractionSequence-keywords",
             lambda: InteractionSequence(n_qubits=n, d=3, elements=[])),
            ("HybridState.basis", lambda: HybridState.basis(n, 0, GROUND))]


def _fan(xs, ps):
    calls = [("fan_steps", lambda: fan_steps(xs, ps)),
             ("field_fan", lambda: field_fan(xs, ps)),
             ("fan_sequence_simulate", lambda: fan_sequence_simulate(xs, ps, 10)),
             ("fan_bipartite", lambda: fan_bipartite(xs, ps, 3))]
    if not xs:   # fan_one_target takes its single target as a number
        calls.append(("fan_one_target", lambda: fan_one_target(xs, 1, 3)))
    return calls


def _ensemble(n_spins):
    return [("SpinBranchState.from_register",
             lambda: SpinBranchState.from_register(UNIFORM, n_spins)),
            ("spin_two_qubit_gate", lambda: spin_two_qubit_gate(0.1, n_spins)),
            ("fan_sequence_simulate", lambda: fan_sequence_simulate([1.0], [1.0], n_spins))]


# (rule, refused input's name, the input's entry points) in one table.
REFUSED = [
    *[("qubit", name, _qubit(q)) for name, q in [
        ("True", True), ("numpy-False", np.bool_(False)), ("1.0", 1.0),
        ("numpy-0.0", np.float64(0.0)), ("-1", -1), ("2-of-2", 2)]],
    *[("register", name, _register(r)) for name, r in [
        ("empty", np.array([])), ("empty-list", []), ("2-D", np.full((2, 2), 0.5)),
        ("scalar", np.array(1.0)), ("3-entries", np.ones(3))]],
    ("register", "4-entries-for-1-qubit",
     [("HybridState.from_product", lambda: HybridState.from_product(1, UNIFORM, GROUND))]),
    *[("register-index", name, _register_index(i)) for name, i in [
        ("True", True), ("numpy-False", np.bool_(False)), ("1.0", 1.0), ("-1", -1),
        ("4-of-4", 4)]],
    *[("initial-label", name, _initial_label(z)) for name, z in [
        ("nan", complex(float("nan"), 0.0)), ("imag-nan", complex(0.0, float("nan"))),
        ("inf", complex(float("inf"), 0.0)), ("imag-minus-inf", complex(0.0, -float("inf")))]],
    *[("label", name, _label(x, p)) for name, (x, p) in [
        ("x-True", (True, 0)), ("p-numpy-True", (0, np.bool_(True))), ("x-1.5", (1.5, 0)),
        ("p-2.5", (2, 2.5)), ("x-numpy-1.0", (np.float64(1.0), 1))]],
    # numpy reads [True, -1] as integers, and a bool array stacked beside an
    # integer one as integers: each label array is checked on its own.
    ("label", "bool-among-integers", [
        ("loop_phase", lambda: loop_phase(([[0, 0]], [[True, -1]]), HALF_ROOT, 3)),
        ("loop_phase-bool-array",
         lambda: loop_phase((np.array([[1, -1]]), np.array([[False, False]])), HALF_ROOT, 3)),
        ("compose_labels", lambda: compose_labels(([0, 0], [True, -1]), ([1, 1], [1, 1]),
                                                  HALF_ROOT, 3)),
        ("displacements", lambda: displacements(3, [True, -1], 0))]),
    *[("dimension", name, _dimension(d)) for name, d in [
        ("2.5", 2.5), ("numpy-3.0", np.float64(3.0)), ("True", True), ("1", 1), ("0", 0),
        ("-3", -3)]],
    *[("register-size", name, _register_size(n)) for name, n in [
        ("-1", -1), ("2.0", 2.0), ("True", True), ("numpy-True", np.bool_(True)),
        ("numpy-2.0", np.float64(2.0))]],
    *[("fan", name, _fan(xs, ps)) for name, (xs, ps) in [
        ("no-control", ([], [1.0])), ("no-target", ([1.0], [])), ("empty", ([], []))]],
    *[("ensemble", name, _ensemble(n)) for name, n in [
        ("0", 0), ("-1", -1), ("2.5", 2.5), ("nan", float("nan")), ("inf", float("inf"))]],
]
CASES = [(f"{rule}={name}-{entry}", call) for rule, name, calls in REFUSED
         for entry, call in calls]


@pytest.mark.parametrize("call", [call for _, call in CASES], ids=[i for i, _ in CASES])
def test_refused_input_is_one_line_value_error_from_amqc(call):
    with pytest.raises(ValueError) as info:
        call()
    message = str(info.value)
    assert message and "\n" not in message, message
    # amqc's own raise statement, not a numpy or math error on the way.
    frame = info.traceback[-1]
    assert Path(frame.path).parent.name == "amqc", (frame.path, message)
    assert str(frame.statement).lstrip().startswith("raise"), message
    assert info.value.__context__ is None, message


@pytest.mark.parametrize("name", ["d", "n_qubits"])
def test_sequence_layout_cannot_be_reassigned(name):
    # The layout is checked once, when the sequence is built.
    seq = two_qubit_sequence(0, 1, 1, 1, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(seq, name, 1)
    assert (seq.n_qubits, seq.d) == (2, 3)
