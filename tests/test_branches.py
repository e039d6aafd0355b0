"""Branch engine: property tests against the dense simulator, per-step walks
written with scalar arithmetic, full register density matrices and the
closed forms."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amqc.branches import (
    _evaluate,
    _torus_polynomial,
    fan_steps,
    flat_labels,
    register_bits,
    sphere_overlap,
    torus_gate,
)
from amqc.linalg import largest_schmidt_weight, phase_distance, random_state, random_unitary
from amqc.oracles import fan, mod_d, toffoli
from amqc.qubus import (
    FieldBranchState,
    FieldLabel,
    apply_controlled_field,
    fan_target_unitary,
    field_fan,
)
from amqc.qudit import CONVENTIONS, HALF_ROOT, MOD_INVERSE
from amqc.qudit_model import (
    POLARITIES,
    SYMMETRIC,
    AncillaProjectedGate,
    ControlledAncillaRotation,
    HybridState,
    Interaction,
    InteractionSequence,
    LocalAncillaRotation,
    _check_element,
    _class_gate,
    _ground,
    extract_register_gate,
    fan_bipartite,
    generalized_toffoli,
    mod_d_phase_gate,
    run_sequence,
    two_qubit_sequence,
)
from amqc.report import diagonal_report, gate_exists
from amqc.spin import (
    ETA_MAX,
    SpinBranchState,
    apply_controlled_spin,
    coherent_overlap,
    fan_error,
    fan_sequence_simulate,
    loop_close,
    phi_series_defect,
    su2_displacement,
)

# Deterministic examples, so the suite passes or fails the same way each run.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
TOL = 1e-12

seeds = st.integers(0, 2 ** 32 - 1)
small_floats = st.floats(-1.0, 1.0, allow_nan=False)


def _bit(r: int, n: int, q: int) -> int:
    # Reference bit extraction the engine's register_bits replaces.
    return (r >> (n - 1 - q)) & 1


def test_register_bits_matches_shift_idiom():
    for n in range(1, 7):
        bits = register_bits(n)
        for r in range(2 ** n):
            assert list(bits[r]) == [_bit(r, n, q) for q in range(n)]


@PROPERTY
@given(st.lists(small_floats, min_size=1, max_size=3),
       st.lists(small_floats, min_size=1, max_size=3), st.floats(-4.0, 4.0))
def test_fan_target_unitary_matches_pairwise_sum(xs, ps, scale):
    n, m = len(xs), len(ps)
    signed, unsigned = fan(xs, ps, scale, signed=True), fan(xs, ps, scale, signed=False)
    assert np.array_equal(fan_target_unitary(xs, ps), fan(xs, ps, 1.0, signed=True))
    for r in range(2 ** (n + m)):
        bits = [_bit(r, n + m, q) for q in range(n + m)]
        for u, v in ((signed, [1 - 2 * b for b in bits]), (unsigned, bits)):
            total = sum(xk * pj * v[k] * v[n + j]
                        for k, xk in enumerate(xs) for j, pj in enumerate(ps))
            assert abs(u[r, r] - cmath.exp(1j * scale * total)) < TOL


@PROPERTY
@given(st.integers(1, 5), st.integers(2, 6), st.floats(-4.0, 4.0), seeds)
def test_mod_d_and_toffoli_oracles_match_basis_loop(n, d, theta, seed):
    u = random_unitary(2, np.random.default_rng(seed))
    phases, controlled = mod_d(theta, n, d), toffoli(n, u)
    dim = 2 ** (n + 1)
    for r in range(dim):
        bits = [_bit(r, n + 1, q) for q in range(n + 1)]
        expected = cmath.exp(1j * theta * (sum(bits[:n]) % d) * bits[n])
        assert abs(phases[r, r] - expected) < TOL
        for c in range(dim):
            if r // 2 == c // 2 == dim // 2 - 1:   # both on the all-ones controls
                want = u[r % 2, c % 2]
            else:
                want = 1.0 if r == c else 0.0
            assert controlled[r, c] == want
            assert phases[r, c] == 0 or r == c


# ----------------------------------------------------------------------------
# extraction vs the dense HybridState simulator
# ----------------------------------------------------------------------------

def dense_extract(seq, anc_init=None, convention=HALF_ROOT):
    """Reference extraction: run each basis input and the uniform
    superposition through the dense simulator, one input at a time.

    Returns (unitary or None, worst ancilla return fidelity, worst residual
    entanglement) with the semantics of :func:`extract_register_gate`: the
    unitary only where the ancilla disentangles and returns (gate_exists).
    """
    n, d = seq.n_qubits, seq.d
    anc = np.eye(d, dtype=complex)[0] if anc_init is None else anc_init
    dim = 2 ** n
    unitary = np.zeros((dim, dim), dtype=complex)
    fidelity, residual = 1.0, 0.0
    inputs = [HybridState.basis(n, r, anc) for r in range(dim)]
    inputs.append(HybridState.from_product(n, np.full(dim, dim ** -0.5), anc))
    for r, state in enumerate(inputs):
        out = run_sequence(seq, state, convention).as_matrix()
        residual = max(residual, 1.0 - largest_schmidt_weight(out))
        returned = out @ np.conj(anc)
        fidelity = min(fidelity, float(np.linalg.norm(returned) ** 2))
        if r < dim:
            unitary[:, r] = returned
    return (unitary if gate_exists(fidelity, residual) else None), fidelity, residual


def _assert_matches_dense(report, dense):
    unitary, fidelity, residual = dense
    assert abs(report.ancilla_return_fidelity - fidelity) < TOL
    assert abs(report.residual_entanglement - residual) < TOL
    assert (report.register_unitary is None) == (unitary is None)
    if unitary is not None:
        np.testing.assert_allclose(report.register_unitary, unitary, atol=TOL, rtol=0)


@st.composite
def torus_cases(draw):
    n = draw(st.integers(1, 4))
    d = draw(st.integers(2, 7))
    label = st.integers(-2 * d, 2 * d)
    steps = draw(st.lists(st.tuples(st.integers(0, n - 1), label, label,
                                    st.sampled_from(POLARITIES)), max_size=8))
    if draw(st.booleans()):
        # Closing every loop: append the inverse steps in reverse order.
        steps += [(q, -x, -p, pol) for q, x, p, pol in reversed(steps)]
    convention = draw(st.sampled_from(CONVENTIONS if d % 2 else (HALF_ROOT,)))
    anc = None
    if draw(st.booleans()):
        anc = random_state(d, np.random.default_rng(draw(seeds)))
    elements = [Interaction(q, x, p, pol) for q, x, p, pol in steps]
    return n, d, elements, convention, anc


@PROPERTY
@given(torus_cases())
# Every branch lands on the class (2, 0), orthogonal to |0>_x: no residual,
# no return, no gate.
@example((1, 4, [Interaction(0, 2, 0, SYMMETRIC)], HALF_ROOT, None))
def test_torus_engine_matches_dense_extraction(case):
    n, d, elements, convention, anc = case
    seq = InteractionSequence(n, d, elements)
    _assert_matches_dense(extract_register_gate(seq, anc, convention),
                          dense_extract(seq, anc, convention))


def _report_bytes(report):
    unitary = report.register_unitary
    return (None if unitary is None else unitary.tobytes(),
            np.float64(report.ancilla_return_fidelity).tobytes(),
            np.float64(report.residual_entanglement).tobytes(), report.interaction_count)


@PROPERTY
@given(torus_cases())
def test_default_ancilla_reports_like_an_explicit_ground_state(case):
    n, d, elements, convention, _ = case
    seq = InteractionSequence(n, d, elements)
    assert _report_bytes(extract_register_gate(seq, None, convention)) == \
        _report_bytes(extract_register_gate(seq, np.eye(d)[0], convention))


@pytest.mark.parametrize("seq", [
    two_qubit_sequence(0, 1, 2, 3, 5),                                          # branch engine
    generalized_toffoli(2, random_unitary(2, np.random.default_rng(6)), 5),     # label classes
])
def test_shared_ground_ancilla_is_read_only_and_reports_are_fresh(seq):
    ground = _ground(seq.d)
    assert ground is _ground(seq.d) and not ground.flags.writeable
    with pytest.raises(ValueError):
        ground[0] = 0.0
    first = extract_register_gate(seq)
    expected = first.register_unitary.tobytes()
    first.register_unitary[:] = np.nan
    assert extract_register_gate(seq).register_unitary.tobytes() == expected
    assert np.array_equal(ground, np.eye(seq.d)[0])


@PROPERTY
@given(torus_cases(), seeds)
def test_closed_loops_have_exactly_zero_residual(case, seed):
    # Every step undone in reverse order: all branches share one label class.
    n, d, elements, convention, _ = case
    elements += [Interaction(e.qubit, -e.x, -e.p, e.polarity) for e in reversed(elements)]
    seq = InteractionSequence(n, d, elements)
    anc = random_state(d, np.random.default_rng(seed))
    report = extract_register_gate(seq, anc, convention)
    assert report.residual_entanglement == 0.0
    _assert_matches_dense(report, dense_extract(seq, anc, convention))


@st.composite
def mixed_cases(draw, n_min=2, n_max=4):
    """Sequences with projected gates on 1-3 targets and ancilla rotations,
    optionally inside a counting loop whose inverse closes it."""
    n = draw(st.integers(n_min, n_max))
    convention = draw(st.sampled_from(CONVENTIONS))
    d = draw(st.sampled_from((3, 5) if convention == MOD_INVERSE else (2, 3, 4, 5, 6)))
    targets = draw(st.permutations(range(n)))[:draw(st.integers(1, min(3, n)))]
    rng = np.random.default_rng(draw(seeds))
    qubit, label = st.integers(0, n - 1), st.integers(-2 * d, 2 * d)
    interaction = st.builds(Interaction, qubit, label, label, st.sampled_from(POLARITIES))
    projected = st.builds(lambda t, level: AncillaProjectedGate(t, level, random_unitary(2, rng)),
                          st.sampled_from(targets), st.integers(0, d - 1))
    angle = st.floats(-4.0, 4.0, allow_nan=False)
    middle = draw(st.lists(st.one_of(
        projected, interaction, st.builds(ControlledAncillaRotation, qubit, angle),
        st.builds(LocalAncillaRotation, angle)), max_size=5))
    # Every target is projected on at least once, so exactly k targets mix.
    middle = draw(st.permutations(middle + [draw(projected.filter(
        lambda g, t=t: g.target == t)) for t in targets]))
    counting = draw(st.lists(interaction, max_size=4))
    elements = counting + middle
    if draw(st.booleans()):
        elements += [Interaction(e.qubit, -e.x, -e.p, e.polarity) for e in reversed(counting)]
    anc = None
    if draw(st.booleans()):
        anc = random_state(d, np.random.default_rng(draw(seeds)))
    return n, d, elements, convention, anc


def _toffoli_like(d):
    # Qubit 2 is both a counting control and the target of two projected gates.
    return [Interaction(0, 1, 0), Interaction(2, 1, 0, SYMMETRIC),
            AncillaProjectedGate(2, 1, random_unitary(2, np.random.default_rng(1))),
            ControlledAncillaRotation(1, 0.7),
            AncillaProjectedGate(2, d - 1, random_unitary(2, np.random.default_rng(2))),
            Interaction(2, -1, 0, SYMMETRIC), Interaction(0, -1, 0)]


@PROPERTY
@given(mixed_cases())
@example((3, 5, _toffoli_like(5), MOD_INVERSE, None))
@example((3, 4, _toffoli_like(4), HALF_ROOT, random_state(4, np.random.default_rng(3))))
def test_batched_rows_match_dense_extraction(case):
    n, d, elements, convention, anc = case
    seq = InteractionSequence(n, d, elements)
    _assert_matches_dense(extract_register_gate(seq, anc, convention),
                          dense_extract(seq, anc, convention))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(mixed_cases(5, 8))
def test_label_classes_match_dense_extraction_up_to_8_qubits(case):
    n, d, elements, convention, anc = case
    seq = InteractionSequence(n, d, elements)
    _assert_matches_dense(extract_register_gate(seq, anc, convention),
                          dense_extract(seq, anc, convention))


@PROPERTY
@given(st.one_of(torus_cases(), mixed_cases()), st.data())
@example((2, 5, two_qubit_sequence(0, 1, 10 ** 30, 2 ** 40 + 1, 5).elements,
          HALF_ROOT, None), None)
def test_large_labels_report_like_their_residues(case, data):
    # Only x, p mod 2d matter, and both engines reduce the polynomial's
    # coefficients before int64 sees them: labels up to 1e30 give the
    # report bytes of their residues mod 2d.
    n, d, elements, convention, anc = case
    if data is not None:
        lift = st.integers(-10 ** 30 // (2 * d), 10 ** 30 // (2 * d)).map(lambda t: 2 * d * t)
        elements = [e._replace(x=e.x + data.draw(lift), p=e.p + data.draw(lift))
                    if isinstance(e, Interaction) else e for e in elements]
    residues = [e._replace(x=e.x % (2 * d), p=e.p % (2 * d)) if isinstance(e, Interaction)
                else e for e in elements]
    assert _report_bytes(extract_register_gate(InteractionSequence(n, d, elements), anc,
                                               convention)) == \
        _report_bytes(extract_register_gate(InteractionSequence(n, d, residues), anc,
                                            convention))


def _two_targets_symmetric_count(d):
    # Qubit 0 counts symmetrically, qubit 1 on one; qubits 2 and 3 are
    # projected targets and qubit 4 controls a rotation.
    rng = np.random.default_rng(11)
    counting = [Interaction(0, 1, 0, SYMMETRIC), Interaction(1, 2, 0)]
    return InteractionSequence(5, d, counting + [
        AncillaProjectedGate(2, 1, random_unitary(2, rng)),
        ControlledAncillaRotation(4, 0.9),
        AncillaProjectedGate(3, d - 1, random_unitary(2, rng)),
        AncillaProjectedGate(2, 3, random_unitary(2, rng)),
    ] + [Interaction(e.qubit, -e.x, -e.p, e.polarity) for e in reversed(counting)])


_U = random_unitary(2, np.random.default_rng(5))


@pytest.mark.parametrize("seq, oracle", [
    (generalized_toffoli(8, _U, 10), toffoli(8, _U)),
    (mod_d_phase_gate(2.3, 8, 10), mod_d(2.3, 8, 10)),
    (mod_d_phase_gate(1.1, 5, 3), mod_d(1.1, 5, 3)),         # the count wraps mod d
    (_two_targets_symmetric_count(5), None),
], ids=["toffoli-8", "modd-8", "modd-wrapping", "two-targets"])
def test_label_classes_match_dense_at_bench_sizes(seq, oracle):
    dense = dense_extract(seq)
    report = extract_register_gate(seq)
    _assert_matches_dense(report, dense)
    if oracle is not None:
        assert phase_distance(report.register_unitary, oracle) < 1e-10


def test_label_class_stage_at_16_controls():
    # Classes by Hamming weight (Toffoli) and by the count mod d times the
    # target bit (mod-d).  An int64 row over the 2^16 or 2^17 row blocks
    # takes 0.5 or 1 MiB; the batch over register rows took 162 MiB.
    n, d = 16, 18
    anc = np.eye(d, dtype=complex)[0]
    # n < d, so the mod-d count never wraps and reaches its bound.
    for seq, classes in ((generalized_toffoli(n, _U, d), n + 1),
                         (mod_d_phase_gate(0.7, n, d), 2 * min(n + 1, d))):
        steps = [_check_element(e, n + 1, d) for e in seq.elements]
        tracemalloc.start()
        try:
            rows, index, exponent, returned, fidelity, residual = _class_gate(
                seq, steps, anc, HALF_ROOT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(returned) == classes and rows.size == 2 ** (n + 1)
        assert gate_exists(fidelity, residual)
        assert peak < 20 * 2 ** 20


@PROPERTY
@given(torus_cases())
def test_torus_branches_match_dense_run_sequence(case):
    n, d, elements, convention, anc = case
    if anc is None:
        anc = np.eye(d, dtype=complex)[0]
    final = loop_ancilla(n, d, [(e.qubit, e.x, e.p, e.polarity == SYMMETRIC)
                                for e in elements], anc, convention)
    seq = InteractionSequence(n, d, elements)
    for r in range(2 ** n):
        out = run_sequence(seq, HybridState.basis(n, r, anc), convention).as_matrix()
        np.testing.assert_allclose(final[r], out[r], atol=TOL, rtol=0)


# ----------------------------------------------------------------------------
# torus phase polynomial vs the per-step loop it replaces
# ----------------------------------------------------------------------------

def loop_labels(n, d, steps, convention):
    """Reference labels: one int64 pass per step over the register's bit
    columns, accumulating D(l2) D(l1) = exp(i pi c (x1 p2 - p1 x2)/d) D(l1 + l2)."""
    x_net, p_net, k = np.zeros((3, 2 ** n), dtype=np.int64)
    if steps:
        c = d + 1 if convention == MOD_INVERSE else 1
        bits = register_bits(n)
        for qubit, x, p, symmetric in steps:
            s = 1 - 2 * bits[:, qubit] if symmetric else bits[:, qubit]
            k += x_net * (s * p) - p_net * (s * x)
            x_net += s * x
            p_net += s * p
        # The prefactor of D(X, P) is exp(-i pi c X P / d).
        k = c * (k - x_net * p_net)
    return x_net, p_net, k


def loop_ancilla(n, d, steps, anc, convention):
    """Reference (2^n, d) final ancilla matrix built from :func:`loop_labels`."""
    x_net, p_net, k = loop_labels(n, d, steps, convention)
    m = np.arange(d)
    roots = np.exp(1j * np.pi * np.arange(2 * d) / d)
    phase = roots[(k[:, None] + 2 * p_net[:, None] * m) % (2 * d)]
    return phase * anc[(m - x_net[:, None]) % d]


@st.composite
def torus_step_lists(draw):
    n = draw(st.integers(1, 6))
    d = draw(st.integers(2, 9))
    label = st.integers(-2 * d, 2 * d)
    steps = draw(st.lists(st.tuples(st.integers(0, n - 1), label, label, st.booleans()),
                          max_size=16))
    if draw(st.booleans()):
        # Closing the first half: the inverse steps in reverse order.
        steps = steps[:8] + [(q, -x, -p, sym) for q, x, p, sym in reversed(steps[:8])]
    convention = draw(st.sampled_from(CONVENTIONS if d % 2 else (HALF_ROOT,)))
    return n, d, steps, convention


@PROPERTY
@given(torus_step_lists())
def test_phase_polynomial_matches_per_step_loop(case):
    # The polynomial holds residues, so the branches' labels agree mod d and
    # their phase exponents mod 2d.
    n, d, steps, convention = case
    x, p, k, pair = _torus_polynomial(n, d, steps, convention)
    k_net, x_net, p_net = new = _evaluate([k, x, p], pair)
    assert new.dtype == np.int64
    for new_row, old_row, modulus in zip((x_net, p_net, k_net),
                                         loop_labels(n, d, steps, convention), (d, d, 2 * d)):
        assert np.array_equal(new_row % modulus, old_row % modulus)


@PROPERTY
@given(torus_step_lists(), seeds)
def test_label_classes_match_dense_svd(case, seed):
    n, d, steps, convention = case
    anc = random_state(d, np.random.default_rng(seed))
    final = loop_ancilla(n, d, steps, anc, convention)
    phases, overlaps, residual = torus_gate(n, d, steps, anc, convention)
    returned = phases * overlaps
    dense_returned = final @ np.conj(anc)
    np.testing.assert_allclose(returned, dense_returned, atol=1e-14, rtol=0)
    assert abs(np.min(np.abs(returned) ** 2) - np.min(np.abs(dense_returned) ** 2)) < 1e-14
    weight = np.linalg.svd(final / np.sqrt(2 ** n), compute_uv=False)[0] ** 2
    assert abs(residual - max(0.0, 1.0 - weight)) < 1e-14


def test_default_rectangles_are_bitwise_the_loop_gates():
    # Every rectangle of verify's two-qubit scan, ancilla in |0>_x.
    for d in (2, 3, 4, 5, 8):
        anc = np.eye(d, dtype=complex)[0]
        for convention in CONVENTIONS if d % 2 else (HALF_ROOT,):
            for x in range(d):
                for p in range(d):
                    seq = two_qubit_sequence(0, 1, x, p, d)
                    steps = [(e.qubit, e.x, e.p, False) for e in seq.elements]
                    loop = np.diag(loop_ancilla(2, d, steps, anc, convention) @ np.conj(anc))
                    rep = extract_register_gate(seq, convention=convention)
                    assert rep.register_unitary.tobytes() == loop.tobytes()


def test_torus_gate_memory_stays_linear_in_branches():
    # A 16-qubit symmetric fan: 2^16 branches of int64 labels and complex
    # amplitudes take 0.5 and 1 MiB, an O(n 2^n) temporary takes 8 MiB or more.
    d = 5
    seq = fan_bipartite([1 + k % 4 for k in range(8)], [1 + 3 * j % 4 for j in range(8)],
                        d, SYMMETRIC)
    steps = [(e.qubit, e.x, e.p, True) for e in seq.elements]
    anc = np.eye(d, dtype=complex)[0]
    tracemalloc.start()
    try:
        phases, overlaps, residual = torus_gate(16, d, steps, anc, HALF_ROOT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert phases.shape == overlaps.shape == (2 ** 16,) and residual == 0.0
    assert peak < 8 * 2 ** 20


# ----------------------------------------------------------------------------
# flat law vs scalar walks of D(l2) D(l1) = e^{i (x1 p2 - p1 x2)/2} D(l1 + l2)
# ----------------------------------------------------------------------------

@st.composite
def field_walks(draw):
    n = draw(st.integers(1, 3))
    steps = draw(st.lists(st.tuples(st.integers(0, n - 1), small_floats, small_floats),
                          min_size=1, max_size=6))
    register = random_state(2 ** n, np.random.default_rng(draw(seeds)))
    label = FieldLabel(draw(small_floats), draw(small_floats))
    return n, steps, register, label


def _field_walk(state, steps):
    for qubit, x, p in steps:
        state = apply_controlled_field(state, qubit, x, p)
    return state


@PROPERTY
@given(field_walks())
def test_field_walk_matches_scalar_composition(walk):
    n, steps, register, label = walk
    state = _field_walk(FieldBranchState.from_register(register, label), steps)
    for r, amp in enumerate(register):
        ref_x, ref_p, ref_amp = label.x, label.p, complex(amp)
        for qubit, x, p in steps:
            s = 1 - 2 * _bit(r, n, qubit)
            ref_amp *= cmath.exp(0.5j * (ref_x * s * p - ref_p * s * x))
            ref_x, ref_p = ref_x + s * x, ref_p + s * p
        got_label, got_amp = state.branches[r]
        assert abs(got_label.x - ref_x) < TOL
        assert abs(got_label.p - ref_p) < TOL
        assert abs(got_amp - ref_amp) < TOL


@PROPERTY
@given(st.lists(small_floats, min_size=1, max_size=3),
       st.lists(small_floats, min_size=1, max_size=3), small_floats, small_floats)
def test_field_fan_matches_branch_walk(xs, ps, lx, lp):
    n, m = len(xs), len(ps)
    label = FieldLabel(lx, lp)
    rep = field_fan(xs, ps, initial_label=label)
    steps = [(k, x, 0.0) for k, x in enumerate(xs)]
    steps += [(n + j, 0.0, p) for j, p in enumerate(ps)]
    steps += [(q, -x, -p) for q, x, p in steps]
    dim = 2 ** (n + m)
    walk = _field_walk(
        FieldBranchState.from_register(np.full(dim, dim ** -0.5), label), steps)
    assert rep.ancilla_return_fidelity == 1.0
    assert abs(rep.residual_entanglement - walk.residual_entanglement()) < TOL
    for r in range(dim):
        assert abs(rep.register_unitary[r, r] - walk.branches[r][1] * dim ** 0.5) < TOL


@st.composite
def flat_step_lists(draw):
    n = draw(st.integers(1, 4))
    steps = draw(st.lists(st.tuples(st.integers(0, n - 1), small_floats, small_floats),
                          max_size=8))
    if draw(st.booleans()):
        # Closing the first half: the inverse steps in reverse order.
        steps = steps[:4] + [(q, -x, -p) for q, x, p in reversed(steps[:4])]
    return n, steps, complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))


@PROPERTY
@given(flat_step_lists())
def test_flat_phase_polynomial_matches_scalar_walk(case):
    n, steps, z0 = case
    z, angle = flat_labels(n, steps, z0)
    dim = 2 ** n
    walk = _field_walk(FieldBranchState.from_register(
        np.full(dim, dim ** -0.5), FieldLabel(z0.real, z0.imag)), steps)
    for r in range(dim):
        label, amp = walk.branches[r]
        assert abs(z[r] - complex(label.x, label.p)) < TOL
        assert abs(np.exp(1j * angle[r]) - amp * dim ** 0.5) < TOL


def test_flat_labels_memory_stays_linear_in_branches():
    # The 16-qubit symmetric fan: three float64 rows over 2^16 branches take
    # 1.5 MiB, the label history of a step-by-step walk over 32 steps 33 MiB.
    xs, ps = [1.0 + k % 4 for k in range(8)], [1.0 + 3 * j % 4 for j in range(8)]
    steps = [(k, x, 0.0) for k, x in enumerate(xs)] + \
        [(8 + j, 0.0, p) for j, p in enumerate(ps)]
    steps += [(q, -x, -p) for q, x, p in steps]
    tracemalloc.start()
    try:
        z, angle = flat_labels(16, steps, 0.5 - 0.25j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert angle.shape == (2 ** 16,) and np.all(z == 0.5 - 0.25j)
    assert peak < 8 * 2 ** 20


# ----------------------------------------------------------------------------
# sphere law vs per-spin SU(2) matrices
# ----------------------------------------------------------------------------

@st.composite
def spin_walks(draw):
    n = draw(st.integers(1, 3))
    zeta = st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False)
    steps = draw(st.lists(st.tuples(st.integers(0, n - 1), zeta), min_size=1, max_size=6))
    register = random_state(2 ** n, np.random.default_rng(draw(seeds)))
    return n, draw(st.integers(1, 50)), steps, register


def _spin_walk(state, steps):
    for qubit, zeta in steps:
        state = apply_controlled_spin(state, qubit, zeta)
    return state


@PROPERTY
@given(spin_walks())
def test_spin_walk_matches_su2_matrices(walk):
    n, n_spins, steps, register = walk
    state = _spin_walk(SpinBranchState.from_register(register, n_spins), steps)
    for r, amp in enumerate(register):
        z, ref_amp = 0j, complex(amp)
        for qubit, zeta in steps:
            leg = zeta if _bit(r, n, qubit) == 0 else -zeta
            vec = su2_displacement(leg) @ np.array([z, 1.0]) / math.sqrt(1 + abs(z) ** 2)
            z = complex(vec[0] / vec[1])
            ref_amp *= cmath.exp(1j * n_spins * cmath.phase(vec[1]))
        got_z, got_amp = state.branches[r]
        assert abs(got_z - z) < TOL
        assert abs(got_amp - ref_amp) < 1e-10


def _reference_fan(xs, ps, n_spins):
    """Per-branch loop over the four net legs, in scalar complex arithmetic."""
    n, m = len(xs), len(ps)
    scale = 1.0 / math.sqrt(2.0 * n_spins)
    labels, phases = [], []
    for r in range(2 ** (n + m)):
        signs = [1 - 2 * _bit(r, n + m, q) for q in range(n + m)]
        x_net = sum(s * x for s, x in zip(signs[:n], xs))
        p_net = sum(s * p for s, p in zip(signs[n:], ps))
        zeta, angle = 0j, 0.0
        for leg in (scale * x_net, 1j * scale * p_net, -scale * x_net, -1j * scale * p_net):
            den = 1.0 - zeta * complex(leg).conjugate()
            zeta = (zeta + leg) / den
            angle += n_spins * math.atan2(den.imag, den.real)
        labels.append(zeta)
        phases.append(angle)
    return labels, phases


@PROPERTY
@given(st.lists(st.floats(0.1, 3.0), min_size=1, max_size=3),
       st.lists(st.floats(0.1, 3.0), min_size=1, max_size=3),
       st.integers(1, 10 ** 6))
def test_spin_fan_matches_scalar_branch_loop(xs, ps, n_spins):
    rep = fan_sequence_simulate(xs, ps, n_spins)
    labels, phases = _reference_fan(xs, ps, n_spins)
    for r, (zeta, angle) in enumerate(zip(labels, phases)):
        assert abs(rep.branch_labels[r] - zeta) < TOL
        assert abs(rep.branch_phases[r] - angle) <= TOL * max(1.0, abs(angle))


# ----------------------------------------------------------------------------
# grouped Gram residual vs the full register density matrix
# ----------------------------------------------------------------------------

def _full_residual(branches, overlap):
    dim = max(branches) + 1
    rho = np.zeros((dim, dim), dtype=complex)
    for r1, (l1, a1) in branches.items():
        for r2, (l2, a2) in branches.items():
            rho[r1, r2] = a1 * np.conj(a2) * overlap(l2, l1)
    return 1.0 - np.linalg.eigvalsh(rho)[-1]


def _field_overlap(l1, l2):
    dx, dp = l2.x - l1.x, l2.p - l1.p
    return math.exp(-(dx * dx + dp * dp) / 4.0) * \
        cmath.exp(0.5j * (l1.x * l2.p - l1.p * l2.x))


@PROPERTY
@given(field_walks())
def test_field_grouped_residual_matches_full_density(walk):
    n, steps, register, label = walk
    state = _field_walk(FieldBranchState.from_register(register, label), steps)
    assert abs(state.residual_entanglement()
               - _full_residual(state.branches, _field_overlap)) < TOL


@PROPERTY
@given(spin_walks())
def test_spin_grouped_residual_matches_full_density(walk):
    n, n_spins, steps, register = walk
    state = _spin_walk(SpinBranchState.from_register(register, n_spins), steps)
    full = _full_residual(state.branches,
                          lambda z1, z2: coherent_overlap(z1, z2, n_spins))
    assert abs(state.residual_entanglement() - full) < TOL


@pytest.mark.parametrize("phases, overlaps", [
    (np.array([np.nan, 1.0]), np.ones(2)),
    (np.ones(2), np.array([1.0, np.nan])),
    (np.ones(2), np.array([np.inf, 1.0])),
])
def test_diagonal_report_refuses_non_finite_returns(phases, overlaps):
    with pytest.raises(ValueError, match="not finite"):
        diagonal_report(phases, overlaps, 0.0, 4)


@PROPERTY
@given(st.lists(st.integers(1, 4), min_size=4, max_size=4), seeds,
       st.sampled_from([10 ** 3, 10 ** 6]))
def test_spin_fan_residual_matches_full_gram(xs, seed, n_spins):
    """An 8-qubit fan ends on up to 2^8 distinct, nearly coincident labels;
    the low-rank residual must match the top eigenvalue of their full Gram."""
    ps = [int(v) for v in np.random.default_rng(seed).permutation(xs)]
    rep = fan_sequence_simulate(xs, ps, n_spins)
    z = np.array([rep.branch_labels[r] for r in range(2 ** 8)])
    gram = sphere_overlap(z[:, None], z[None, :], n_spins) / 2 ** 8
    assert abs(rep.residual_entanglement - (1.0 - np.linalg.eigvalsh(gram)[-1])) < TOL


def test_fan_steps_order_and_refusal():
    assert fan_steps([1, 2], [3]) == [(0, 1, 0), (1, 2, 0), (2, 0, 3),
                                      (0, -1, 0), (1, -2, 0), (2, 0, -3)]
    for xs, ps in (([], [1]), ([1], []), ([], [])):
        with pytest.raises(ValueError, match="at least one control and one target"):
            fan_steps(xs, ps)


def test_sphere_overlap_is_zero_at_antipodes():
    # Each pair has 1 + conj(z1) z2 = 0 exactly; a numpy warning fails the test.
    z1 = np.array([1.0, 2.0, 1j, 1 + 1j, 4j, 0.3 + 0.1j])
    z2 = np.array([-1.0, -0.5, -1j, -0.5 - 0.5j, -0.25j, 0.2 - 0.7j])
    for n_spins in range(1, 9):
        overlap = sphere_overlap(z1, z2, n_spins)
        np.testing.assert_array_equal(overlap[:5], 0.0)
        assert abs(overlap[5] - coherent_overlap(z1[5], z2[5], n_spins)) == 0.0
        assert coherent_overlap(2.0, -0.5, n_spins) == 0.0


def test_spin_fan_through_antipodal_labels():
    # Two branches end on -i and two on +i, antipodal labels with half the
    # weight each, so the ancilla is left in an even mixture.
    rep = fan_sequence_simulate([8 ** 0.5], [8 ** 0.5], 4)
    np.testing.assert_allclose(rep.branch_labels, [-1j, 1j, -1j, 1j], atol=1e-15)
    assert abs(rep.residual_entanglement - 0.5) < TOL


# ----------------------------------------------------------------------------
# spin closed forms and the large-N limit
# ----------------------------------------------------------------------------

@PROPERTY
@given(st.floats(0.1, 50.0), st.floats(0.0, 6.0))
@example(3.0, 0.0)   # w = 4.5 > 1 + sqrt(2): atan took the wrong branch here
def test_fan_error_matches_branch_simulation(zeta_n, log_n):
    n_spins = int(round(10 ** log_n))
    point = fan_error(zeta_n, n_spins)
    rep = fan_sequence_simulate([zeta_n / 2] * 2, [zeta_n / 2] * 2, n_spins)
    assert abs(point.phi_f - rep.extremal_phase) <= TOL * max(1.0, abs(point.phi_f))
    direct = point.phi_f - point.phi_series
    defect = phi_series_defect(zeta_n, n_spins)
    assert abs(defect - direct) <= 1e-9 * abs(direct) + 5e-15 * abs(point.phi_f)


def test_fan_error_past_the_atan_branch_point():
    # zeta_n = 3, N = 1: w = 4.5, the per-spin angle is past pi/2.
    assert abs(fan_error(3.0, 1).phi_f - 2.4210) < 1e-4


@PROPERTY
@given(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=3),
       st.lists(st.floats(0.1, 1.0), min_size=1, max_size=3))
def test_spin_at_large_n_matches_field_bus(xs, ps):
    n_spins = 10 ** 8
    spin_u = fan_sequence_simulate(xs, ps, n_spins).register_unitary
    field_u = field_fan(xs, ps).register_unitary
    # Phase error per branch ~ X P (X^2 + P^2) / N, X and P the signed leg sums.
    x, p = sum(xs), sum(ps)
    bound = 4.0 * math.sqrt(spin_u.shape[0]) * x * p * (x * x + p * p) / n_spins
    assert phase_distance(spin_u, field_u) <= bound


# ----------------------------------------------------------------------------
# eta_for_phase relies on phi_t(eta) increasing
# ----------------------------------------------------------------------------

def test_loop_phase_increases_on_dense_grid():
    grid = np.linspace(ETA_MAX / 100_000, ETA_MAX, 100_000)
    values = np.array([loop_close(e).phi_t for e in grid])
    assert values[0] > 0.0
    assert np.all(np.diff(values) > 0.0)


@PROPERTY
@given(st.floats(0.0, ETA_MAX, exclude_min=True), st.floats(0.0, ETA_MAX, exclude_min=True))
def test_loop_phase_increases_between_pairs(e1, e2):
    e1, e2 = sorted((e1, e2))
    phi1, phi2 = loop_close(e1).phi_t, loop_close(e2).phi_t
    assert 0.0 <= phi1 <= phi2
    # phi_t ~ 2 eta^2 is a normal double (nonzero) only for eta above ~1e-154.
    if e1 > 1e-150 and e2 - e1 > 1e-9 * e2:
        assert phi1 < phi2
