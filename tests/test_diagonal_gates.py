"""A register gate is kept compact: its 2^n diagonal, or its row blocks.

Torus, bus and sphere reports and the label-class stage's mod-d and
arbitrary-rotation gates store ``gate``, the 2^n diagonal; a gate whose
projected gates mix k qubits (a generalized Toffoli) stores its
(2^(n-k), 2^k, 2^k) blocks and their ``rows``.  ``register_unitary`` lays
either out densely on request through :func:`amqc.report.dense_gate`, which
refuses registers above MAX_DENSE_QUBITS.  The dense matrix is checked bit for
bit against the zeroed matrix with the engine's returns gathered into it, and
:func:`amqc.linalg.diagonal_distance`, of diagonals and of flattened blocks on
shared rows, against :func:`amqc.linalg.phase_distance` of the dense pair.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amqc import spin
from amqc.branches import fan_steps, flat_labels, flat_overlap, register_bits, torus_gate
from amqc.cli import main
from amqc.linalg import PAULI_X, diagonal_distance, phase_distance, random_unitary
from amqc.oracles import fan, mod_d, toffoli
from amqc.qubus import FieldLabel, fan_target_unitary, field_fan
from amqc.qudit import HALF_ROOT, MOD_INVERSE, _roots
from amqc.qudit_model import (
    APPLY_ON_ONE,
    SYMMETRIC,
    AncillaProjectedGate,
    InteractionSequence,
    _check_element,
    _class_gate,
    _ground,
    extract_register_gate,
    extract_register_gates,
    fan_bipartite,
    generalized_toffoli,
    mod_d_phase_gate,
    single_pair_arbitrary_rotation,
    two_qubit_sequence,
)
from amqc.report import MAX_DENSE_QUBITS, GateReport, dense_gate

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
labels = st.integers(-12, 12)
legs = st.floats(-1.5, 1.5, allow_nan=False)


def _gathered(returns: np.ndarray) -> np.ndarray:
    """The dense gate of branch returns as the reports used to gather it: a
    zeroed (2^n, 2^n) matrix with ``returns`` written on its diagonal."""
    dim = len(returns)
    out = np.zeros((1, dim * dim), dtype=complex)
    out[:, ::dim + 1] = returns
    return out.reshape(dim, dim)


def _steps(seq):
    return [_check_element(element, seq.n_qubits, seq.d) for element in seq.elements]


def _torus_gathered(seq, convention):
    phases, overlaps, _ = torus_gate(seq.n_qubits, seq.d, [_steps(seq)], _ground(seq.d),
                                     convention)
    return _gathered((phases * overlaps)[0])


def _class_gathered(seq):
    """The zeroed (2^n, 2^n) matrix with the label-class stage's blocks
    gathered over their register rows."""
    rows, index, exponent, returned, _, _ = _class_gate(seq, _steps(seq), _ground(seq.d),
                                                        HALF_ROOT)
    out = np.zeros((2 ** seq.n_qubits, 2 ** seq.n_qubits), dtype=complex)
    out[rows[:, None, :], rows[:, :, None]] = \
        _roots(seq.d).take(exponent, mode="wrap")[:, None, None] * returned[index]
    return out


def _assert_kept_diagonal(report, gathered, oracle):
    """``report`` keeps a 2^n diagonal whose dense layout is ``gathered`` bit
    for bit, and its diagonal distance to ``oracle`` is the dense one."""
    assert report.gate.shape == (len(gathered),)
    dense = report.register_unitary
    assert dense.dtype == gathered.dtype and dense.tobytes() == gathered.tobytes()
    distance = diagonal_distance(report.gate, oracle)
    assert abs(distance - phase_distance(dense, dense_gate(oracle))) <= 1e-12
    assert distance < 1e-10


def _conventions(d):
    return (HALF_ROOT, MOD_INVERSE) if d % 2 else (HALF_ROOT,)


# ----------------------------------------------------------------------------
# large registers: the diagonal, and no dense matrix unless it is asked for
# ----------------------------------------------------------------------------

def _fourteen_qubit_fans():
    xs = [1 + k % 4 for k in range(7)]
    ps = [1 + (3 * j) % 4 for j in range(7)]
    scale = math.sqrt(2 * math.pi / 5)
    yield lambda: extract_register_gate(fan_bipartite(xs, ps, 5, polarity=SYMMETRIC))
    yield lambda: field_fan([x * scale for x in xs], [p * scale for p in ps])


@pytest.mark.parametrize("extract", list(_fourteen_qubit_fans()), ids=["torus", "bus"])
def test_fourteen_qubit_fan_keeps_its_diagonal_in_little_memory(extract):
    # A dense 14-qubit gate is 2^28 entries, 4 GiB.
    tracemalloc.start()
    try:
        report = extract()
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak < 32.0
    assert report.gate.shape == (2 ** 14,) and report.gate.dtype == complex
    assert np.allclose(np.abs(report.gate), 1.0, atol=1e-12)
    with pytest.raises(ValueError, match="MAX_DENSE_QUBITS") as info:
        report.register_unitary
    assert "\n" not in str(info.value)


def test_fourteen_qubit_torus_and_bus_fans_agree_on_their_diagonals():
    torus, bus = (extract() for extract in _fourteen_qubit_fans())
    assert diagonal_distance(torus.gate, bus.gate) < 1e-9


def test_dense_gate_refuses_above_max_dense_qubits_before_allocating():
    diagonal = np.ones(2 ** (MAX_DENSE_QUBITS + 1), dtype=complex)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_DENSE_QUBITS"):
            dense_gate(diagonal)
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()


def test_register_unitary_is_read_only_and_none_without_a_gate():
    report = GateReport(np.ones(4, dtype=complex), 1.0, 0.0, 4)
    with pytest.raises(AttributeError):
        report.register_unitary = np.eye(4)
    assert np.array_equal(report.register_unitary, np.eye(4))
    assert GateReport(None, 0.5, 0.5, 4).register_unitary is None


def test_toffoli_keeps_its_row_blocks():
    report = extract_register_gate(generalized_toffoli(3, PAULI_X, 5))
    assert report.gate.shape == (8, 2, 2)
    assert np.array_equal(report.rows, np.arange(16).reshape(8, 2))
    assert np.array_equal(report.gate, toffoli(3, PAULI_X))
    assert np.array_equal(report.register_unitary, dense_gate(report.gate, report.rows))


def test_sixteen_control_toffoli_keeps_its_blocks_in_little_memory():
    # Its dense gate would be 2^34 entries, 256 GiB; 2^16 blocks of 2 x 2 are 4 MiB.
    u = random_unitary(2, np.random.default_rng(5))
    tracemalloc.start()
    try:
        report = extract_register_gate(generalized_toffoli(16, u, 18))
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with pytest.raises(ValueError, match="MAX_DENSE_QUBITS") as info:
            report.register_unitary
        refusal = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20 and refusal < 2 ** 20
    assert "\n" not in str(info.value)
    assert report.gate.shape == (2 ** 16, 2, 2)
    assert np.array_equal(report.rows, np.arange(2 ** 17).reshape(-1, 2))
    assert diagonal_distance(report.gate, toffoli(16, u), 2 ** 17) < 1e-10


@pytest.mark.parametrize("gate, rows", [
    (np.eye(2), None),                                   # a matrix, not its diagonal
    (np.ones((4, 2, 2)), None),                          # blocks without their rows
    (np.ones(4), np.arange(4)[:, None]),                 # a diagonal given rows
    (np.ones((4, 2, 2)), np.arange(16).reshape(8, 2)),   # 4 blocks on 8 row pairs
    (np.ones((2, 2, 2)), np.arange(4)),                  # rows that are not a table
], ids=["matrix", "no-rows", "diagonal-rows", "count", "flat-rows"])
def test_dense_gate_refuses_what_is_no_diagonal_or_blocks_on_their_rows(gate, rows):
    with pytest.raises(ValueError, match="diagonal or blocks on their rows") as info:
        dense_gate(gate, rows)
    assert "\n" not in str(info.value)


def test_fan_demo_at_twelve_qubits_builds_no_dense_matrix(capsys):
    # One dense 12-qubit gate is 256 MiB; the demo compares diagonals.
    tracemalloc.start()
    try:
        assert main(["demo", "fan-bipartite", "--n", "6", "--m", "6"]) == 0
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak < 8.0
    assert "phase distance" in capsys.readouterr().out


def test_fan_target_unitary_is_the_dense_fan_oracle():
    xs, ps = (0.3, -0.4, 1.1), (0.2, 0.5)
    assert np.array_equal(fan_target_unitary(xs, ps), np.diag(fan(xs, ps, 1.0, signed=True)))


# ----------------------------------------------------------------------------
# property tests: the dense layout bit for bit, the distance to 1e-12
# ----------------------------------------------------------------------------

@PROPERTY
@given(st.lists(labels, min_size=1, max_size=4), st.lists(labels, min_size=1, max_size=4),
       st.integers(2, 7), st.sampled_from([APPLY_ON_ONE, SYMMETRIC]), st.data())
def test_torus_fans_keep_the_gathered_diagonal(xs, ps, d, polarity, data):
    convention = data.draw(st.sampled_from(_conventions(d)))
    seq = fan_bipartite(xs, ps, d, polarity)
    # prod C^k_j R(2 pi x_k p_j / d), or prod exp(2 pi i x_k p_j Z_k Z_j / d) when symmetric.
    oracle = fan(xs, ps, 2 * math.pi / d, signed=polarity == SYMMETRIC)
    _assert_kept_diagonal(extract_register_gate(seq, convention=convention),
                          _torus_gathered(seq, convention), oracle)


@PROPERTY
@given(st.lists(st.tuples(labels, labels), min_size=1, max_size=6), st.integers(2, 7),
       st.sampled_from([APPLY_ON_ONE, SYMMETRIC]), st.data())
def test_torus_rectangles_keep_the_gathered_diagonal_alone_and_as_a_stack(pairs, d, polarity,
                                                                           data):
    convention = data.draw(st.sampled_from(_conventions(d)))
    seqs = [two_qubit_sequence(0, 1, x, p, d, polarity) for x, p in pairs]
    oracles = np.array([fan([x], [p], 2 * math.pi / d, signed=polarity == SYMMETRIC)
                        for x, p in pairs])
    reports = extract_register_gates(seqs, convention=convention)
    for seq, report, oracle in zip(seqs, reports, oracles):
        _assert_kept_diagonal(report, _torus_gathered(seq, convention), oracle)
    stacked = diagonal_distance(np.array([r.gate for r in reports]), oracles)
    assert stacked.shape == (len(pairs),)
    for report, oracle, dist in zip(reports, oracles, stacked.tolist()):
        assert abs(dist - phase_distance(report.register_unitary, dense_gate(oracle))) <= 1e-12


@PROPERTY
@given(st.lists(legs, min_size=1, max_size=4), st.lists(legs, min_size=1, max_size=4),
       legs, legs)
def test_bus_fans_from_a_shifted_label_keep_the_gathered_diagonal(xs, ps, x0, p0):
    report = field_fan(xs, ps, FieldLabel(x0, p0))
    z0 = complex(x0, p0)
    z, angle = flat_labels(len(xs) + len(ps), fan_steps(xs, ps), z0)
    _assert_kept_diagonal(report, _gathered(np.exp(1j * angle) * flat_overlap(z0, z)),
                          fan(xs, ps, 1.0, signed=True))


@PROPERTY
@given(st.floats(1e-3, spin.ETA_MAX), st.integers(1, 10 ** 5))
def test_corrected_spin_rectangle_keeps_the_gathered_diagonal(eta, n_spins):
    report = spin.spin_two_qubit_gate(eta, n_spins)
    sol = spin.loop_close(eta)
    signs = 1.0 - 2.0 * register_bits(2)
    zeta, angle = spin._sphere_walk((signs[:, 0] * sol.eta, signs[:, 1] * (1j * sol.tau),
                                     signs[:, 0] * -sol.tau, signs[:, 1] * (-1j * sol.eta)),
                                    n_spins)
    returns = np.exp(1j * angle) * np.sqrt(1.0 - spin.vacuum_return_infidelity(zeta, n_spins))
    _assert_kept_diagonal(report, _gathered(returns),
                          fan([1], [1], n_spins * sol.phi_t, signed=True))


@PROPERTY
@given(st.integers(1, 7), st.integers(2, 9), st.floats(-4.0, 4.0))
def test_mod_d_gates_keep_the_gathered_diagonal(n, d, theta):
    seq = mod_d_phase_gate(theta, n, d)
    _assert_kept_diagonal(extract_register_gate(seq), _class_gathered(seq), mod_d(theta, n, d))


@pytest.mark.parametrize("theta, d", [(math.pi, 2), (2 * math.pi / 7, 3), (-0.3, 5)])
def test_arbitrary_rotation_keeps_the_gathered_diagonal(theta, d):
    seq = single_pair_arbitrary_rotation(theta, d)
    _assert_kept_diagonal(extract_register_gate(seq), _class_gathered(seq),
                          fan([1], [1], theta, signed=False))


@PROPERTY
@given(st.integers(1, 8), st.integers(2, 10), st.data())
def test_toffolis_keep_the_gathered_blocks(n, extra, data):
    u = random_unitary(2, np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))))
    seq = generalized_toffoli(n, u, n + extra)
    report = extract_register_gate(seq)
    assert report.register_unitary.tobytes() == _class_gathered(seq).tobytes()
    assert diagonal_distance(report.gate, toffoli(n, u), 2 ** (n + 1)) < 1e-10


@PROPERTY
@given(st.integers(2, 6), st.data())
def test_projected_only_sequences_keep_the_gathered_blocks(n, data):
    # Gates projected on the ancilla's start level act on their targets alone.
    targets = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    seq = InteractionSequence(n, 3, [AncillaProjectedGate(t, 0, random_unitary(2, rng))
                                     for t in targets])
    report = extract_register_gate(seq)
    assert report.gate.shape == (2 ** (n - len(targets)),) + (2 ** len(targets),) * 2
    assert report.register_unitary.tobytes() == _class_gathered(seq).tobytes()


@PROPERTY
@given(st.integers(1, 2), st.integers(1, 7), st.sampled_from([None, 0.0, 0.5, 2.0]),
       st.data())
def test_block_gates_on_shared_rows_keep_the_dense_distance(k, rest, flatness, data):
    # Unitary blocks on shuffled rows of n = k + rest qubits, at most 8.  v is
    # random, or u with block o turned by e^(2 pi i o / blocks), so that t
    # vanishes, plus a defect of ``flatness`` times the flat-case bound.
    n = min(k + rest, 8)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.permutation(2 ** n).reshape(-1, 2 ** k)
    u = np.array([random_unitary(2 ** k, rng) for _ in rows])
    if flatness is None:
        v = np.array([random_unitary(2 ** k, rng) for _ in rows])
    else:
        turn = np.exp(2j * np.pi * np.arange(len(rows)) / len(rows))
        turn[0] += flatness * 1e-12 * 2 ** n / 2 ** k
        v = turn[:, None, None] * u
    dense = phase_distance(dense_gate(u, rows), dense_gate(v, rows))
    assert abs(diagonal_distance(u, v, 2 ** n) - dense) <= 1e-12


@PROPERTY
@given(st.integers(1, 8), st.integers(1, 4), st.data())
def test_diagonal_distance_is_the_dense_distance(n, batch, data):
    values = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    u = np.array(data.draw(st.lists(values, min_size=batch * 2 ** n,
                                    max_size=batch * 2 ** n))).reshape(batch, -1)
    # A global phase of u, and u itself with one entry moved.
    v = np.exp(1j * data.draw(st.floats(-4.0, 4.0))) * u
    v[0, data.draw(st.integers(0, 2 ** n - 1))] += data.draw(values)
    stacked = diagonal_distance(u, v)
    for a, b, dist in zip(u, v, stacked.tolist()):
        dense = phase_distance(np.diag(a), np.diag(b))
        assert abs(diagonal_distance(a, b) - dense) <= 1e-12
        assert abs(dist - dense) <= 1e-12


# ----------------------------------------------------------------------------
# spin gates whose phases have lost their digits
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("n_spins, kept", [(10 ** 6, True), (10 ** 12, False),
                                           (10 ** 16, False), (10 ** 18, False)])
def test_spin_gate_is_dropped_once_its_phases_lose_their_digits(n_spins, kept):
    # U00 is off by 1.0e-6, 4.6e-3 and 1.1 at N = 1e12, 1e16 and 1e18 (eta = 0.1).
    report = spin.spin_two_qubit_gate(0.1, n_spins)
    assert (report.gate is not None) == kept
    assert (report.register_unitary is not None) == kept
    assert report.ancilla_return_fidelity == 1.0


@pytest.mark.parametrize("n_spins", [2, 4, 8, 12, 10 ** 6, 10 ** 12, 10 ** 18])
def test_eta_for_phase_gates_keep_their_gate(n_spins):
    top = n_spins * spin.loop_close(spin.ETA_MAX).phi_t
    zz = np.array([1.0, -1.0, -1.0, 1.0])
    for theta in (0.01, math.pi / 4, min(math.pi, 0.9 * top)):
        report = spin.spin_two_qubit_gate(spin.eta_for_phase(theta, n_spins), n_spins)
        assert report.gate is not None
        assert diagonal_distance(report.gate, np.exp(1j * theta * zz)) < 1e-10


# ----------------------------------------------------------------------------
# a bipartite fan is two one-sided sums: the full-table formulas bit for bit
# ----------------------------------------------------------------------------

def _table_fan(xs, ps, scale, signed):
    """oracles.fan as one (2^(n+m), n+m) bit table summed on every index."""
    bits = register_bits(len(xs) + len(ps))
    v = 1.0 - 2.0 * bits if signed else bits
    return np.exp(1j * scale * (v[:, :len(xs)] @ xs) * (v[:, len(xs):] @ ps))


def _table_mod_d(theta, n, d):
    bits = register_bits(n + 1)
    return np.exp(1j * theta * (bits[:, :n].sum(axis=1) % d) * bits[:, n])


def _table_spin_fan(xs, ps, n_spins):
    """Every fan_sequence_simulate field from sign sums over the full table."""
    n, m = len(xs), len(ps)
    scale = 0.5 / math.sqrt(0.5 * n_spins)
    signs = 1.0 - 2.0 * register_bits(n + m)
    x_net = sum(s * x for s, x in zip(signs[:, :n].T, xs))
    p_net = sum(s * p for s, p in zip(signs[:, n:].T, ps))
    zeta, angle = spin._sphere_walk((scale * x_net, 1j * scale * p_net,
                                     -scale * x_net, -1j * scale * p_net), n_spins)
    report, infid = spin._sphere_report(zeta, angle, n_spins, 2 * (n + m))
    err = np.abs((angle - x_net * p_net + math.pi) % (2.0 * math.pi) - math.pi)
    return dict(vars(report), branch_labels=zeta, branch_phases=angle,
                worst_phase_error=float(err.max()), worst_branch_infidelity=float(infid.max()),
                extremal_phase=float(angle[0]), extremal_label=complex(zeta[0]))


def _same_bytes(a, b):
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


side = st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=5)


@PROPERTY
@given(side, side, st.floats(-7.0, 7.0), st.booleans())
def test_fan_oracle_is_the_full_table_oracle(xs, ps, scale, signed):
    assert _same_bytes(fan(xs, ps, scale, signed), _table_fan(xs, ps, scale, signed))


@PROPERTY
@given(st.integers(1, 9), st.integers(2, 12), st.floats(-4.0, 4.0))
def test_mod_d_oracle_is_the_full_table_oracle(n, d, theta):
    assert _same_bytes(mod_d(theta, n, d), _table_mod_d(theta, n, d))


@PROPERTY
@given(side, side, st.integers(1, 10 ** 6))
def test_spin_fan_is_the_full_table_walk(xs, ps, n_spins):
    fields = vars(spin.fan_sequence_simulate(xs, ps, n_spins))
    expected = _table_spin_fan(xs, ps, n_spins)
    assert fields.keys() == expected.keys()
    for name, value in fields.items():
        assert _same_bytes(value, expected[name]), name


def test_twenty_qubit_fan_oracle_keeps_no_table():
    # The full table is (2^20, 20) int64, 160 MiB, and register_bits caches it.
    register_bits.cache_clear()
    tracemalloc.start()
    try:
        assert fan([1] * 10, [1] * 10, 1.0, signed=False).shape == (2 ** 20,)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 ** 20


def test_sixteen_qubit_spin_fan_walks_in_little_memory():
    register_bits.cache_clear()
    tracemalloc.start()
    try:
        report = spin.fan_sequence_simulate([1.0] * 8, [1.0] * 8, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert report.branch_labels.shape == report.branch_phases.shape == (2 ** 16,)
