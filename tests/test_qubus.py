"""Field-mode bus: label algebra, rectangle and fan gates, exact closure."""

import cmath
import math

import numpy as np
import pytest

from amqc.branches import flat_overlap, flat_step
from amqc.linalg import kron, phase_distance, phase_gate
from amqc.qubus import (
    ORIGIN,
    FieldBranchState,
    FieldLabel,
    apply_controlled_field,
    fan_target_unitary,
    field_fan,
    field_two_qubit,
)


def test_compose_with_inverse():
    z = complex(0.7, -0.4)
    total, angle = flat_step(z, -z)
    assert total == 0
    assert abs(cmath.exp(1j * angle) - 1.0) < 1e-15


def test_compose_orthogonal_steps():
    x, p = 0.8, 0.5
    total, angle = flat_step(complex(x, 0.0), complex(0.0, p))
    assert total == complex(x, p)
    assert abs(cmath.exp(1j * angle) - cmath.exp(0.5j * x * p)) < 1e-15


def test_rectangle_accumulates_area_phase():
    x, p = 1.1, 0.6
    z = 0j
    phase = 1.0 + 0.0j
    for step in (x, 1j * p, -x, -1j * p):
        z, angle = flat_step(z, step)
        phase *= cmath.exp(1j * angle)
    assert z == 0
    assert abs(phase - cmath.exp(1j * x * p)) < 1e-15


def test_compose_antisymmetric():
    rng = np.random.default_rng(2)
    for _ in range(50):
        z1 = complex(*rng.uniform(-2, 2, 2))
        z2 = complex(*rng.uniform(-2, 2, 2))
        ph12 = cmath.exp(1j * flat_step(z1, z2)[1])
        ph21 = cmath.exp(1j * flat_step(z2, z1)[1])
        assert abs(ph12 * ph21 - 1.0) < 1e-14


def test_two_qubit_gate_and_branch_parity():
    x, p = 0.35, 0.61
    rep = field_two_qubit(x, p)
    zz = np.diag(np.exp(1j * x * p * np.array([1.0, -1.0, -1.0, 1.0])))
    assert phase_distance(rep.register_unitary, zz) < 1e-12
    assert rep.ancilla_return_fidelity == 1.0
    # |00>, |11> loops run clockwise (+xp); |01>, |10> the other way (-xp).
    u = rep.register_unitary
    assert abs(u[0, 0] - cmath.exp(1j * x * p)) < 1e-14
    assert abs(u[1, 1] - cmath.exp(-1j * x * p)) < 1e-14


def test_two_qubit_trivial_when_x_zero():
    rep = field_two_qubit(0.0, 0.9)
    assert phase_distance(rep.register_unitary, np.eye(4, dtype=complex)) < 1e-14


def test_two_qubit_initial_label_independent():
    x, p = 0.35, 0.61
    zz = np.diag(np.exp(1j * x * p * np.array([1.0, -1.0, -1.0, 1.0])))
    for label in (ORIGIN, FieldLabel(0.7, -1.3), FieldLabel(-2.0, 0.1)):
        rep = field_two_qubit(x, p, initial_label=label)
        assert phase_distance(rep.register_unitary, zz) < 1e-12
        assert rep.ancilla_return_fidelity == 1.0


def test_quarter_area_gives_cz():
    xp = np.pi / 4
    rep = field_two_qubit(np.sqrt(xp), np.sqrt(xp))
    corrected = kron(phase_gate(2 * xp), phase_gate(2 * xp)) @ rep.register_unitary
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    assert phase_distance(corrected, cz) < 1e-12


def test_fan_reduces_to_two_qubit():
    u1 = field_fan([0.35], [0.61]).register_unitary
    u2 = field_two_qubit(0.35, 0.61).register_unitary
    assert phase_distance(u1, u2) < 1e-14


def test_fan_one_target_phases():
    xs, p = (0.2, 0.7, 1.1), 0.5
    rep = field_fan(xs, [p])
    assert phase_distance(rep.register_unitary, fan_target_unitary(xs, [p])) < 1e-12
    assert rep.interaction_count == 2 * (len(xs) + 1)


def test_fan_matches_sequential_gates_with_half_the_interactions():
    xs, ps = (0.3, 0.4), (0.2, 0.5)
    fan = field_fan(xs, ps)
    # Four separate rectangles, each on its own qubit pair, composed densely.
    composed = np.eye(16, dtype=complex)
    total_interactions = 0
    for k, xk in enumerate(xs):
        for j, pj in enumerate(ps):
            pair = field_two_qubit(xk, pj)
            total_interactions += pair.interaction_count
            expanded = np.eye(16, dtype=complex)
            for r in range(16):
                bk = (r >> (3 - k)) & 1
                bj = (r >> (3 - (2 + j))) & 1
                expanded[r, r] = pair.register_unitary[bk * 2 + bj, bk * 2 + bj]
            composed = composed @ expanded
    assert phase_distance(fan.register_unitary, composed) < 1e-12
    assert fan.interaction_count == 8
    assert total_interactions == 16


def test_fan_exact_label_closure():
    # Symbolic bookkeeping: branch labels come back exactly, not just closely.
    for initial in (ORIGIN, FieldLabel(0.3, -0.9)):
        rep = field_fan([0.3, 0.4, 1.7], [0.2, 0.5], initial_label=initial)
        assert rep.ancilla_return_fidelity == 1.0
        assert rep.residual_entanglement < 1e-12


def test_branch_state_walk_matches_symbolic_phases():
    xs, ps = (0.3, 0.4), (0.2, 0.5)
    n = 2
    steps = [(k, xk, 0.0) for k, xk in enumerate(xs)]
    steps += [(n + j, 0.0, pj) for j, pj in enumerate(ps)]
    steps += [(k, -xk, 0.0) for k, xk in enumerate(xs)]
    steps += [(n + j, 0.0, -pj) for j, pj in enumerate(ps)]
    reg = np.zeros(16, dtype=complex)
    reg[0b0110] = 1.0
    state = FieldBranchState.from_register(reg)
    for qubit, x, p in steps:
        state = apply_controlled_field(state, qubit, x, p)
    label, amp = state.branches[0b0110]
    expected = fan_target_unitary(xs, ps)[0b0110, 0b0110]
    assert abs(amp - expected) < 1e-14
    assert abs(label.x) < 1e-14 and abs(label.p) < 1e-14
    assert abs(state.total_norm() - 1.0) < 1e-14


@pytest.mark.parametrize("x, p", [(math.nan, 0.1), (0.1, math.inf), (-math.inf, math.nan)])
def test_branch_update_refuses_a_non_finite_leg(x, p):
    state = FieldBranchState.from_register(np.array([1, 1], dtype=complex) / np.sqrt(2))
    before = dict(state.branches)
    with pytest.raises(ValueError, match="not finite") as info:
        apply_controlled_field(state, 0, x, p)
    assert "\n" not in str(info.value)
    assert state.branches == before


def test_overlap_of_identical_labels_is_one():
    assert flat_overlap(complex(0.4, -2.0), complex(0.4, -2.0)) == 1.0
    assert abs(flat_overlap(0j, complex(3.0, 0.0))) < 0.2


def test_overlap_of_large_labels_skips_the_unused_real_part():
    # Re(conj(z1) z2) = 1e400 overflows; the overlap needs only the imaginary part.
    z = complex(1e200, 0.0)
    assert flat_overlap(z, z) == 1.0
    assert abs(flat_overlap(z, z + 2j)) == pytest.approx(math.exp(-1.0))


def test_fan_from_a_far_initial_label_keeps_its_gate():
    # Every label closes on z0 = 1e200, so the gate is the one from the origin;
    # pytest turns any overflow warning on the way into an error.
    report = field_fan([1.0], [1.0], FieldLabel(1e200, 0.0))
    assert report.ancilla_return_fidelity == 1.0
    assert phase_distance(report.register_unitary, fan_target_unitary([1.0], [1.0])) < 1e-12


def test_fan_rejects_empty_sides():
    with pytest.raises(ValueError):
        field_fan([], [0.3])


@pytest.mark.parametrize("call", [
    lambda: field_fan([np.nan], [1.0]),
    lambda: field_two_qubit(1.0, 1.0, FieldLabel(np.nan, 0.0)),
    lambda: field_fan([1e200], [1e200]),    # finite legs, overflowing phases
    lambda: field_fan([1e308], [1.0]),      # finite legs, overflowing labels
    lambda: field_fan([1.0], [1.0], FieldLabel(1e200, 1e200)),  # overflowing overlap
], ids=["nan-leg", "nan-initial-label", "overflowing-phases", "overflowing-labels",
        "overflowing-overlap"])
def test_fan_refuses_non_finite_walks(call):
    with pytest.raises(ValueError, match="finite") as info:
        call()
    assert "\n" not in str(info.value)
