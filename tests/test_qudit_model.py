"""Hybrid register+qudit simulation: sequences, extraction, gate identities."""

import tracemalloc

import numpy as np
import pytest

from amqc.linalg import (
    PAULI_X,
    controlled,
    identity,
    kron,
    phase_distance,
    phase_gate,
)
from amqc.qudit import CONVENTIONS, HALF_ROOT
from amqc.qudit_model import (
    APPLY_ON_ONE,
    SYMMETRIC,
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
    generalized_toffoli,
    hamiltonian_generator_check,
    mod_d_phase_gate,
    run_sequence,
    single_pair_arbitrary_rotation,
    spin_z_operator,
    two_qubit_sequence,
)


def conventions_for(d):
    return CONVENTIONS if d % 2 else (HALF_ROOT,)


def basis_anc(d, level=0):
    v = np.zeros(d, dtype=complex)
    v[level] = 1.0
    return v


def cr_oracle(n_qubits, control, target, theta):
    phases = []
    for r in range(2 ** n_qubits):
        bc = (r >> (n_qubits - 1 - control)) & 1
        bt = (r >> (n_qubits - 1 - target)) & 1
        phases.append(np.exp(1j * theta * bc * bt))
    return np.diag(phases)


# ----------------------------------------------------------------------------
# state evolution primitives
# ----------------------------------------------------------------------------

def test_zero_label_is_identity():
    state = HybridState.basis(1, 1, basis_anc(3))
    out = apply_element(state, Interaction(0, 0, 0))
    np.testing.assert_array_equal(out.amplitudes, state.amplitudes)


def test_control_off_leaves_ancilla():
    state = HybridState.basis(1, 0, basis_anc(3))
    out = apply_element(state, Interaction(0, 1, 2))
    np.testing.assert_array_equal(out.amplitudes, state.amplitudes)


def test_control_on_shifts_position():
    state = HybridState.basis(1, 1, basis_anc(3, 0))
    out = apply_element(state, Interaction(0, 1, 0))
    np.testing.assert_allclose(out.amplitudes,
                               HybridState.basis(1, 1, basis_anc(3, 1)).amplitudes,
                               atol=1e-15)


def test_interaction_preserves_norm():
    rng = np.random.default_rng(5)
    amps = rng.standard_normal(2 ** 2 * 5) + 1j * rng.standard_normal(2 ** 2 * 5)
    amps /= np.linalg.norm(amps)
    state = HybridState(2, 5, amps)
    for conv in CONVENTIONS:
        out = apply_element(state, Interaction(1, 2, 3), conv)
        assert abs(out.norm() - 1.0) < 1e-14


def test_interaction_dimension_mismatch():
    # Only the sequence holds d; an out-of-range qubit is still refused.
    state = HybridState.basis(1, 0, basis_anc(3))
    with pytest.raises(ValueError):
        apply_element(state, Interaction(1, 1, 0))


@pytest.mark.parametrize("element", [
    AncillaProjectedGate(target=2, level=0, gate=PAULI_X),
    AncillaProjectedGate(target=-1, level=0, gate=PAULI_X),
    ControlledAncillaRotation(control=2, theta=0.3),
    ControlledAncillaRotation(control=-1, theta=0.3),
])
def test_extraction_rejects_out_of_range_qubits(element):
    with pytest.raises(ValueError, match="out of range"):
        extract_register_gate(InteractionSequence(2, 3, [element]))


@pytest.mark.parametrize("qubit", [0.0, 1.0, np.float64(1.0), True, np.bool_(False)])
@pytest.mark.parametrize("element", [
    lambda q: Interaction(q, 1, 0),
    lambda q: AncillaProjectedGate(target=q, level=0, gate=PAULI_X),
    lambda q: ControlledAncillaRotation(control=q, theta=0.3),
], ids=["interaction", "projected-target", "rotation-control"])
def test_non_integer_qubits_are_rejected(element, qubit):
    # One message from the branch engine, the label classes and the dense
    # simulator alike.
    element = element(qubit)
    for run in (lambda: extract_register_gate(InteractionSequence(2, 3, [element])),
                lambda: extract_register_gate(InteractionSequence(
                    2, 3, [element, LocalAncillaRotation(0.1)])),
                lambda: apply_element(HybridState.basis(2, 3, basis_anc(3)), element)):
        with pytest.raises(ValueError, match=r"out of range: need an integer in range\(2\)"):
            run()


def test_empty_sequence_extracts_identity():
    rep = extract_register_gate(InteractionSequence(2, 3, []))
    assert rep.ancilla_return_fidelity == 1.0
    assert rep.residual_entanglement < 1e-15
    np.testing.assert_allclose(rep.register_unitary, identity(4), atol=1e-15)


@pytest.mark.parametrize("anc", [np.full(3, np.nan), np.array([np.inf, 0, 0])])
@pytest.mark.parametrize("seq", [
    two_qubit_sequence(0, 1, 1, 1, 3),                # branch engine
    generalized_toffoli(2, PAULI_X, 3),               # label classes
])
def test_extraction_rejects_non_finite_ancilla(seq, anc):
    with pytest.raises(ValueError, match="not normalised"):
        extract_register_gate(seq, anc)


def _toffoli_2_3(projected=None, rotation=None):
    # A generalized_toffoli-style 2-control sequence on d = 3 with one
    # replaced element.
    middle = [AncillaProjectedGate(2, 2, PAULI_X) if projected is None else projected]
    if rotation is not None:
        middle.append(rotation)
    return InteractionSequence(3, 3, [Interaction(0, 1, 0), Interaction(1, 1, 0), *middle,
                                      Interaction(0, -1, 0), Interaction(1, -1, 0)])


@pytest.mark.parametrize("element, message", [
    (AncillaProjectedGate(2, -1, PAULI_X), "level"),
    (AncillaProjectedGate(2, 5, PAULI_X), "level"),
    (AncillaProjectedGate(2, 1.0, PAULI_X), "level"),
    (AncillaProjectedGate(2, 1, np.eye(3)), "unitary"),
    (AncillaProjectedGate(2, 1, 2 * PAULI_X), "unitary"),
    (AncillaProjectedGate(2, 1, np.full((2, 2), np.nan)), "unitary"),
    (ControlledAncillaRotation(0, np.nan), "angle"),
    (ControlledAncillaRotation(0, np.inf), "angle"),
    (LocalAncillaRotation(np.nan), "angle"),
    (LocalAncillaRotation(-np.inf), "angle"),
    (AncillaProjectedGate(2, True, PAULI_X), "True is not an ancilla level"),
    (AncillaProjectedGate(2, np.bool_(True), PAULI_X), "is not an ancilla level"),
])
def test_invalid_elements_are_rejected_before_running(element, message):
    projected = element if isinstance(element, AncillaProjectedGate) else None
    rotation = None if projected is not None else element
    with pytest.raises(ValueError, match=message):
        extract_register_gate(_toffoli_2_3(projected, rotation))
    # The dense simulator refuses the same element.
    with pytest.raises(ValueError, match=message):
        apply_element(HybridState.basis(3, 7, basis_anc(3)), element)


@pytest.mark.parametrize("x, p", [(1.5, 1), (1.0, 1), (np.float64(2.0), 1), (np.nan, 1),
                                  (1, 0.5), (1, np.inf)])
def test_non_integer_labels_are_rejected(x, p):
    # Refused by the branch engine, the label classes and the dense simulator.
    seq = two_qubit_sequence(0, 1, x, p, 5)
    rotated = InteractionSequence(2, 5, seq.elements + [LocalAncillaRotation(0.1)])
    for run in (lambda: extract_register_gate(seq), lambda: extract_register_gate(rotated),
                lambda: apply_element(HybridState.basis(2, 3, basis_anc(5)),
                                      Interaction(0, x, p))):
        with pytest.raises(ValueError, match="not a pair of integers"):
            run()


def test_numpy_integer_labels_extract_like_python_integers():
    seq = two_qubit_sequence(0, 1, np.int64(2), np.int32(3), 5)
    want = extract_register_gate(two_qubit_sequence(0, 1, 2, 3, 5))
    assert extract_register_gate(seq).register_unitary.tobytes() == \
        want.register_unitary.tobytes()
    # numpy integer qubits too.
    seq = InteractionSequence(2, 5, [e._replace(qubit=np.int8(e.qubit)) for e in seq.elements])
    assert extract_register_gate(seq).register_unitary.tobytes() == \
        want.register_unitary.tobytes()


@pytest.mark.parametrize("seq", [
    two_qubit_sequence(0, 1, 2, 3, 5),                # branch engine
    generalized_toffoli(2, PAULI_X, 5),               # label classes
])
def test_extraction_rejects_unnormalised_ancilla(seq):
    with pytest.raises(ValueError, match="not normalised"):
        extract_register_gate(seq, 0.5 * basis_anc(5))
    rng = np.random.default_rng(4)
    anc = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    rep = extract_register_gate(seq, anc / np.linalg.norm(anc))
    assert 0.0 <= rep.residual_entanglement < 1.0
    assert 0.0 <= rep.ancilla_return_fidelity <= 1.0


@pytest.mark.parametrize("tail", [[], [LocalAncillaRotation(0.0)]])   # engine, batched
def test_disentangled_but_unreturned_ancilla_has_no_gate(tail):
    # Both branches end on |2>_x, orthogonal to the initial |0>_x: the ancilla
    # factors out but does not come back, so there is no register gate.
    seq = InteractionSequence(1, 4, [Interaction(0, 2, 0, SYMMETRIC)] + tail)
    rep = extract_register_gate(seq)
    assert rep.register_unitary is None
    assert rep.ancilla_return_fidelity == 0.0
    assert rep.residual_entanglement == 0.0


def test_single_interaction_leaves_entanglement():
    # One controlled shift entangles the superposed control with the ancilla:
    # the uniform input has Schmidt weights (1/2, 1/2).
    seq = InteractionSequence(1, 3, [Interaction(0, 1, 0)])
    rep = extract_register_gate(seq)
    assert rep.register_unitary is None
    assert abs(rep.residual_entanglement - 0.5) < 1e-12
    assert rep.ancilla_return_fidelity < 1e-12


# ----------------------------------------------------------------------------
# two-qubit rectangle
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("d,x,p,theta", [
    (2, 1, 1, np.pi),            # CZ
    (4, 1, 2, np.pi),            # CZ again: 2*pi*2/4
    (5, 2, 3, 2 * np.pi / 5),    # CR(12 pi/5) = CR(2 pi/5)
])
def test_two_qubit_examples(d, x, p, theta):
    for conv in conventions_for(d):
        rep = extract_register_gate(two_qubit_sequence(0, 1, x, p, d),
                                    convention=conv)
        oracle = controlled(identity(2), phase_gate(theta))
        assert phase_distance(rep.register_unitary, oracle) < 1e-10
        assert abs(rep.ancilla_return_fidelity - 1.0) < 1e-12


def test_two_qubit_initial_state_independence():
    d = 5
    uniform = np.full(d, 1 / np.sqrt(d), dtype=complex)
    oracle = cr_oracle(2, 0, 1, 2 * np.pi * 6 / d)
    for anc in (basis_anc(d, 0), basis_anc(d, 1), uniform):
        rep = extract_register_gate(two_qubit_sequence(0, 1, 2, 3, d), anc)
        assert abs(rep.ancilla_return_fidelity - 1.0) < 1e-12
        assert phase_distance(rep.register_unitary, oracle) < 1e-10


def operator_is_product(u):
    # Reshuffle to (q1 in/out) x (q2 in/out) and test operator Schmidt rank 1.
    m = u.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    s = np.linalg.svd(m, compute_uv=False)
    return s[1] < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_entangling_criterion(d):
    for x in range(d):
        for p in range(d):
            rep = extract_register_gate(two_qubit_sequence(0, 1, x, p, d))
            assert operator_is_product(rep.register_unitary) == ((x * p) % d == 0)


# ----------------------------------------------------------------------------
# fan sequences
# ----------------------------------------------------------------------------

def test_fan_one_target_reduces_to_rectangle():
    d = 5
    u1 = extract_register_gate(fan_one_target([2], 3, d)).register_unitary
    u2 = extract_register_gate(two_qubit_sequence(0, 1, 2, 3, d)).register_unitary
    assert phase_distance(u1, u2) < 1e-12


def test_fan_one_target_matches_oracle():
    d, xs, p = 4, (1, 2, 3), 1
    seq = fan_one_target(xs, p, d)
    assert len(seq) == 2 * (len(xs) + 1) == 8
    rep = extract_register_gate(seq)
    oracle = identity(16)
    for k, xk in enumerate(xs):
        oracle = oracle @ cr_oracle(4, k, 3, 2 * np.pi * xk * p / d)
    assert phase_distance(rep.register_unitary, oracle) < 1e-10
    assert abs(rep.ancilla_return_fidelity - 1.0) < 1e-12
    # Per-gate construction would take 4n interactions.
    assert 4 * len(xs) == 12 > len(seq)


def test_fan_bipartite_matches_oracle():
    d, xs, ps = 3, (1, 2), (1, 1)
    seq = fan_bipartite(xs, ps, d)
    assert len(seq) == 2 * (len(xs) + len(ps)) == 8
    rep = extract_register_gate(seq)
    oracle = identity(16)
    for k, xk in enumerate(xs):
        for j, pj in enumerate(ps):
            oracle = oracle @ cr_oracle(4, k, 2 + j, 2 * np.pi * xk * pj / d)
    assert phase_distance(rep.register_unitary, oracle) < 1e-10
    assert 4 * len(xs) * len(ps) == 16 > len(seq)


def test_fan_bipartite_one_one_is_rectangle():
    d = 3
    u1 = extract_register_gate(fan_bipartite([1], [2], d)).register_unitary
    u2 = extract_register_gate(two_qubit_sequence(0, 1, 1, 2, d)).register_unitary
    assert phase_distance(u1, u2) < 1e-12


def test_fan_any_initial_ancilla():
    d = 4
    rng = np.random.default_rng(9)
    anc = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    anc /= np.linalg.norm(anc)
    rep = extract_register_gate(fan_one_target((1, 2, 3), 1, d), anc)
    assert abs(rep.ancilla_return_fidelity - 1.0) < 1e-12


# ----------------------------------------------------------------------------
# generalized Toffoli and mod-d gates
# ----------------------------------------------------------------------------

def toffoli_oracle(n, u):
    dim = 2 ** (n + 1)
    out = np.eye(dim, dtype=complex)
    out[np.ix_([dim - 2, dim - 1], [dim - 2, dim - 1])] = u
    return out


def test_toffoli_standard():
    rep = extract_register_gate(generalized_toffoli(2, PAULI_X, 3))
    assert phase_distance(rep.register_unitary, toffoli_oracle(2, PAULI_X)) < 1e-10
    assert rep.interaction_count == 5


def test_toffoli_single_control_is_cnot():
    rep = extract_register_gate(generalized_toffoli(1, PAULI_X, 2))
    assert phase_distance(rep.register_unitary, toffoli_oracle(1, PAULI_X)) < 1e-12


def test_toffoli_phase_case_by_basis_enumeration():
    n, d = 3, 5
    u = phase_gate(np.pi / 3)
    rep = extract_register_gate(generalized_toffoli(n, u, d))
    got = rep.register_unitary
    for r in range(2 ** (n + 1)):
        bits = [(r >> (n - j)) & 1 for j in range(n + 1)]
        expected = np.exp(1j * np.pi / 3) if all(bits) else 1.0
        assert abs(got[r, r] - expected) < 1e-12
    off_diag = got - np.diag(np.diag(got))
    assert np.max(np.abs(off_diag)) < 1e-12


def test_toffoli_rejects_small_dimension():
    with pytest.raises(ValueError):
        generalized_toffoli(3, PAULI_X, 3)


def test_toffoli_control_permutation_invariance():
    n, d = 3, 5
    u = extract_register_gate(generalized_toffoli(n, PAULI_X, d)).register_unitary
    # Swap controls 0 and 2 via the basis permutation; the gate is symmetric.
    dim = 2 ** (n + 1)
    perm = np.zeros((dim, dim))
    for r in range(dim):
        bits = [(r >> (n - j)) & 1 for j in range(n + 1)]
        bits[0], bits[2] = bits[2], bits[0]
        r2 = sum(b << (n - j) for j, b in enumerate(bits))
        perm[r2, r] = 1.0
    np.testing.assert_allclose(perm @ u @ perm, u, atol=1e-12)


def test_toffoli_extraction_memory_stays_small():
    # The 9-qubit unitary takes 4 MB and the n + 1 label classes almost
    # nothing; one dense state per input took 45 MB.
    seq = generalized_toffoli(8, PAULI_X, 10)
    tracemalloc.start()
    try:
        rep = extract_register_gate(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.register_unitary is not None
    assert peak < 12 * 2 ** 20


@pytest.mark.parametrize("seq", [generalized_toffoli(3, PAULI_X, 5),
                                 mod_d_phase_gate(0.4, 3, 5)])
def test_extraction_builds_no_displacement_matrix_or_dense_state(monkeypatch, seq):
    import amqc.qudit_model as qm

    def dense(*args, **kwargs):
        raise AssertionError("extraction ran the dense simulator")

    for name in ("displacement", "run_sequence", "apply_element", "HybridState"):
        monkeypatch.setattr(qm, name, dense)
    # Label classes act on the ancilla by index shifts and phases only.
    assert extract_register_gate(seq).register_unitary is not None


def test_mod_d_phase_gate_exhaustive():
    theta, n, d = np.pi / 5, 4, 3
    rep = extract_register_gate(mod_d_phase_gate(theta, n, d))
    assert rep.interaction_count == 2 * n + 1 == 9
    got = rep.register_unitary
    for r in range(2 ** (n + 1)):
        bits = [(r >> (n - j)) & 1 for j in range(n + 1)]
        expected = np.exp(1j * theta * (sum(bits[:n]) % d) * bits[n])
        assert abs(got[r, r] - expected) < 1e-12
    # q_t = 0 rows carry no phase at all.
    for r in range(0, 2 ** (n + 1), 2):
        assert abs(got[r, r] - 1.0) < 1e-12


def test_mod_d_equals_rotation_product_when_n_below_d():
    theta, n, d = 0.77, 2, 3
    rep = extract_register_gate(mod_d_phase_gate(theta, n, d))
    oracle = cr_oracle(3, 0, 2, theta) @ cr_oracle(3, 1, 2, theta)
    assert phase_distance(rep.register_unitary, oracle) < 1e-12


@pytest.mark.parametrize("theta,d", [(np.pi, 2), (0.0, 3), (2 * np.pi / 7, 3)])
def test_single_pair_arbitrary_rotation(theta, d):
    rep = extract_register_gate(single_pair_arbitrary_rotation(theta, d))
    assert phase_distance(rep.register_unitary, cr_oracle(2, 0, 1, theta)) < 1e-10
    assert abs(rep.ancilla_return_fidelity - 1.0) < 1e-12


# ----------------------------------------------------------------------------
# generators and polarity correspondence
# ----------------------------------------------------------------------------

def test_generator_check_trivial_angle():
    assert hamiltonian_generator_check(0.0, 4) < 1e-14


def test_generator_check_example():
    assert hamiltonian_generator_check(0.7, 3) < 1e-12


def test_spin_z_operator():
    np.testing.assert_allclose(np.diag(spin_z_operator(4)).real,
                               [1.5, 0.5, -0.5, -1.5], atol=0)


def test_generator_composition_reaches_momentum_step():
    # theta = -pi p/d turns C(R(t), R(-t)) . (I x R(-t)) into C(I, Z_d^p).
    from amqc.qudit import generalized_pauli, rotation

    d, p = 5, 1
    theta = -np.pi * p / d
    lhs = controlled(rotation(d, theta), rotation(d, -theta)) @ \
        kron(identity(2), rotation(d, -theta))
    _, zd = generalized_pauli(d)
    rhs = controlled(identity(d), np.linalg.matrix_power(zd, p))
    assert phase_distance(lhs, rhs) < 1e-13
    # And that target is exactly the apply-on-one interaction with label (0, p).
    state = HybridState.basis(1, 1, basis_anc(d, 2))
    out = apply_element(state, Interaction(0, 0, p))
    np.testing.assert_allclose(out.amplitudes,
                               (rhs @ state.amplitudes), atol=1e-14)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_polarity_correspondence(d):
    # symmetric(x, p) equals apply-on-one(2x, 2p) after local R(2 theta)
    # rotations on both qubits, theta = 2 pi x p / d.  With identical labels
    # the two polarities are generally inequivalent (the symmetric branches
    # separate twice as fast), so the doubled matching is the meaningful one.
    anc = basis_anc(d)
    for x in range(d):
        for p in range(d):
            theta = 2 * np.pi * x * p / d
            u_sym = extract_register_gate(
                two_qubit_sequence(0, 1, x, p, d, polarity=SYMMETRIC),
                anc).register_unitary
            u_one = extract_register_gate(
                two_qubit_sequence(0, 1, 2 * x, 2 * p, d, polarity=APPLY_ON_ONE),
                anc).register_unitary
            corrected = u_sym @ kron(phase_gate(2 * theta), phase_gate(2 * theta))
            assert phase_distance(corrected, u_one) < 1e-10


def test_local_ancilla_rotation_element():
    from amqc.qudit_model import LocalAncillaRotation
    from amqc.qudit import rotation

    d, theta = 4, 0.9
    seq = InteractionSequence(1, d, [LocalAncillaRotation(theta)])
    anc = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    out = run_sequence(seq, HybridState.basis(1, 1, anc))
    np.testing.assert_allclose(out.as_matrix()[1], rotation(d, theta) @ anc,
                               atol=1e-15)
    np.testing.assert_allclose(out.as_matrix()[0], 0.0, atol=0)


def test_projected_gate_runs_on_superpositions():
    # The projected element must act level-selectively on arbitrary states.
    d, n = 3, 1
    seq = InteractionSequence(2, d, [
        AncillaProjectedGate(target=1, level=1, gate=PAULI_X)])
    reg = np.zeros(4, dtype=complex)
    reg[0b10] = 1.0  # |1>|0>
    anc = np.array([1.0, 1.0, 1.0], dtype=complex) / np.sqrt(3)
    out = run_sequence(seq, HybridState.from_product(2, reg, anc))
    mat = out.as_matrix()
    # Level 1 column had its target qubit flipped, others untouched.
    assert abs(mat[0b11, 1] - 1 / np.sqrt(3)) < 1e-14
    assert abs(mat[0b10, 0] - 1 / np.sqrt(3)) < 1e-14
    assert abs(mat[0b10, 2] - 1 / np.sqrt(3)) < 1e-14
