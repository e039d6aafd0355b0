"""Many small gates in one call: batched extraction, loop phases and phase
distances against their single calls."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amqc.linalg import PAULI_X, diagonal_distance, phase_distance, random_state
from amqc.qudit import (
    CONVENTIONS,
    HALF_ROOT,
    MOD_INVERSE,
    LatticeLabel,
    OpenLoopError,
    loop_phase,
)
from amqc.qudit_model import (
    POLARITIES,
    Interaction,
    InteractionSequence,
    extract_register_gate,
    extract_register_gates,
    fan_bipartite,
    generalized_toffoli,
    two_qubit_sequence,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def assert_same_report(batched, single):
    assert (batched.register_unitary is None) == (single.register_unitary is None)
    if single.register_unitary is not None:
        assert batched.register_unitary.tobytes() == single.register_unitary.tobytes()
    assert batched.ancilla_return_fidelity == single.ancilla_return_fidelity
    assert batched.residual_entanglement == single.residual_entanglement
    assert batched.interaction_count == single.interaction_count


@st.composite
def batches(draw):
    """B displacement-only sequences on one (n, d) that share their qubits
    and polarities; each is drawn with labels moved by a multiple of 2d (up
    to about 1e12) and, apart, unmoved."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(2, 9))
    convention = draw(st.sampled_from(CONVENTIONS if d % 2 else (HALF_ROOT,)))
    pattern = draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(POLARITIES)),
                            min_size=1, max_size=6))
    closed = draw(st.booleans())
    label = st.integers(-2 * d, 2 * d)
    moved, near = [], []
    for _ in range(draw(st.integers(1, 6))):
        labels = draw(st.lists(st.tuples(label, label), min_size=len(pattern),
                               max_size=len(pattern)))
        if closed:   # the inverse steps in reverse order close the loop
            pattern_b = pattern + pattern[::-1]
            labels = labels + [(-x, -p) for x, p in labels[::-1]]
        else:
            pattern_b = pattern
        shift = 2 * d * draw(st.integers(-10 ** 12 // (2 * d), 10 ** 12 // (2 * d)))
        kind = draw(st.sampled_from([int, np.int64]))
        moved.append(InteractionSequence(n, d, [
            Interaction(q, kind(x + shift), kind(p - shift), pol)
            for (q, pol), (x, p) in zip(pattern_b, labels)]))
        near.append(InteractionSequence(n, d, [
            Interaction(q, x, p, pol) for (q, pol), (x, p) in zip(pattern_b, labels)]))
    seed = draw(st.one_of(st.none(), st.integers(0, 2 ** 32 - 1)))
    anc = None if seed is None else random_state(d, np.random.default_rng(seed))
    return moved, near, anc, convention


@PROPERTY
@given(batches())
def test_batch_is_bitwise_the_single_calls(case):
    moved, near, anc, convention = case
    reports = extract_register_gates(moved, anc, convention)
    assert len(reports) == len(moved)
    for seq, report in zip(moved, reports):
        assert_same_report(report, extract_register_gate(seq, anc, convention))
    # Only the residues mod 2d of the labels matter.
    for report, unmoved in zip(reports, extract_register_gates(near, anc, convention)):
        assert_same_report(report, unmoved)


def test_batch_may_mix_lengths_qubits_and_polarities():
    d = 5
    seqs = [two_qubit_sequence(0, 2, 1, 3, d), two_qubit_sequence(2, 1, 4, 2, d),
            fan_bipartite([1, 2], [3], d, "symmetric"),
            InteractionSequence(3, d, [Interaction(1, 2, 1)]),
            InteractionSequence(3, d, [])]
    for convention in CONVENTIONS:
        for seq, report in zip(seqs, extract_register_gates(seqs, convention=convention)):
            assert_same_report(report, extract_register_gate(seq, convention=convention))


def test_batch_refuses_what_one_call_refuses():
    d = 4
    rect = two_qubit_sequence(0, 1, 1, 1, d)
    assert extract_register_gates([]) == []
    with pytest.raises(ValueError, match="one layout"):
        extract_register_gates([rect, two_qubit_sequence(0, 1, 1, 1, 5)])
    with pytest.raises(ValueError, match="one layout"):
        extract_register_gates([rect, two_qubit_sequence(0, 2, 1, 1, d)])
    with pytest.raises(ValueError, match="one layout"):
        extract_register_gates([rect, generalized_toffoli(1, PAULI_X, d)])
    with pytest.raises(ValueError, match="even"):
        extract_register_gates([rect], convention=MOD_INVERSE)
    with pytest.raises(ValueError, match="interaction label"):
        extract_register_gates([InteractionSequence(2, d, [Interaction(0, 1.0, 0)])])
    with pytest.raises(ValueError, match="dimension"):
        extract_register_gates([rect], anc_init=np.ones(d + 1))


# ----------------------------------------------------------------------------
# loop phases: the (B, L) array form against the LatticeLabel list
# ----------------------------------------------------------------------------

@st.composite
def closed_label_arrays(draw):
    d = draw(st.integers(2, 9))
    convention = draw(st.sampled_from(CONVENTIONS if d % 2 else (HALF_ROOT,)))
    size, length = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    label = st.integers(-10 ** 12, 10 ** 12)
    rows = draw(st.lists(st.lists(st.tuples(label, label), min_size=length, max_size=length),
                         min_size=size, max_size=size))
    wraps = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                          min_size=size, max_size=size))
    # The last label closes the sequence up to a whole number of turns.
    closed = [row + [(a * d - sum(x for x, _ in row), b * d - sum(p for _, p in row))]
              for row, (a, b) in zip(rows, wraps)]
    x, p = np.array(closed, dtype=np.int64).transpose(2, 0, 1)
    return x, p, d, convention


@PROPERTY
@given(closed_label_arrays())
def test_loop_phase_array_is_the_list_call(case):
    x, p, d, convention = case
    phases = loop_phase((x, p), convention, d)
    assert phases.shape == (len(x),)
    for xs, ps, phase in zip(x.tolist(), p.tolist(), phases.tolist()):
        assert phase == loop_phase([LatticeLabel(a, b, d) for a, b in zip(xs, ps)], convention)


def test_loop_phase_array_takes_labels_of_any_size():
    d, big = 5, 2 * 5 * 10 ** 30
    x = np.array([[2, 0, -2, 0], [2 + big, 0, -2 - big, 0]], dtype=object)
    p = np.array([[0, 3, 0, -3], [0, 3 - big, 0, -3]], dtype=object)
    for convention in CONVENTIONS:
        near, far = loop_phase((x, p), convention, d)
        assert near == far == loop_phase([LatticeLabel(2 + big, 0, d), LatticeLabel(0, 3, d),
                                          LatticeLabel(-2, 0, d), LatticeLabel(0, -3, d)],
                                         convention)


def test_loop_phase_array_reports_the_first_open_loop():
    x = np.array([[1, -1], [1, 0]])
    p = np.array([[0, 0], [2, 0]])
    with pytest.raises(OpenLoopError) as err:
        loop_phase((x, p), HALF_ROOT, 4)
    assert err.value.net == (1, 2)


@pytest.mark.parametrize("labels", [
    (np.zeros((2, 3)), np.zeros((2, 3))),              # not integers
    (np.zeros((2, 3), int), np.zeros((2, 2), int)),    # shapes differ
    (np.zeros(3, int), np.zeros(3, int)),              # no batch axis
    (np.zeros((2, 0), int), np.zeros((2, 0), int)),    # empty sequences
    (np.array([[True]]), np.array([[False]])),         # bools
])
def test_loop_phase_array_refuses_bad_labels(labels):
    with pytest.raises(ValueError):
        loop_phase(labels, HALF_ROOT, 3)


# ----------------------------------------------------------------------------
# phase distances of stacks of diagonals
# ----------------------------------------------------------------------------

def test_stacked_diagonal_distance_is_each_pair_by_the_dense_rule():
    rng = np.random.default_rng(11)
    u = np.exp(1j * rng.uniform(0, 6, (6, 8)))
    v = np.exp(1j * rng.uniform(0, 6, 6))[:, None] * u
    v[1] = np.exp(1j * rng.uniform(0, 6, 8))
    v[2] = [1.0, -1.0] * 4    # tr(v^dagger u) = 0: the flat case
    u[2] = 1.0
    v[3] = 0.5 * v[3]         # not unitary: the norms enter
    stacked = diagonal_distance(u, v)
    assert stacked.shape == (6,)
    for a, b, dist in zip(u, v, stacked.tolist()):
        assert abs(dist - phase_distance(np.diag(a), np.diag(b))) <= 1e-14
        assert diagonal_distance(a, b) == dist
    assert diagonal_distance(u[None], v[None]).shape == (1, 6)
    with pytest.raises(ValueError, match="equal diagonals"):
        diagonal_distance(u, v[:, :3])
    # Dense stacks are refused: stacked gates are compared as diagonals.
    with pytest.raises(ValueError, match="square"):
        phase_distance(u[:, :, None] * np.eye(8), v[:, :, None] * np.eye(8))
