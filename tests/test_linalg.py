"""Tensor products, controlled pairs and the comparison metrics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amqc.linalg import (
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    controlled,
    identity,
    is_unitary,
    kron,
    largest_schmidt_weight,
    phase_distance,
    phase_gate,
    random_state,
    random_unitary,
    state_fidelity,
)


def test_kron_identity_case():
    np.testing.assert_array_equal(kron(identity(2), identity(2)), identity(4))


def test_kron_diagonal_product():
    np.testing.assert_array_equal(kron(PAULI_Z, PAULI_Z),
                                  np.diag([1, -1, -1, 1]).astype(complex))


def test_kron_index_arithmetic():
    # row = i1 * 3 + i2: X flips the first factor, so entry (0, 3) is 1.
    m = kron(PAULI_X, identity(3))
    assert m[0, 3] == 1.0
    assert m[3, 0] == 1.0
    assert m[0, 0] == 0.0


def test_kron_associative_exactly():
    # Gaussian-integer entries keep every product exactly representable, so
    # the two association orders agree to the last bit.
    rng = np.random.default_rng(7)
    a = rng.integers(-9, 10, (2, 2)) + 1j * rng.integers(-9, 10, (2, 2))
    b = rng.integers(-9, 10, (3, 3)) + 1j * rng.integers(-9, 10, (3, 3))
    c = rng.integers(-9, 10, (2, 2)) + 1j * rng.integers(-9, 10, (2, 2))
    np.testing.assert_array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))


@st.composite
def kron_factors(draw):
    """1-4 factors of rank 0-2 and side 1-4, real or complex, with entries
    over many orders of magnitude, signed zeros and non-finite values."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        shape = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
        f = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        if draw(st.booleans()):
            f = f + 1j * rng.standard_normal(shape)
        special = rng.random(shape) < 0.1
        factors.append(np.where(special, rng.choice([0.0, -0.0, np.inf, np.nan], shape), f))
    return factors


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kron_factors())
def test_kron_is_bitwise_numpy_kron(factors):
    # The reference: np.kron folded left to right over complex casts.
    want = np.asarray(factors[0], dtype=complex)
    with np.errstate(all="ignore"):
        for f in factors[1:]:
            want = np.kron(want, np.asarray(f, dtype=complex))
        got = kron(*factors)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_kron_needs_a_factor():
    with pytest.raises(ValueError, match="at least one factor"):
        kron()


def test_embed_controlled_equals_projector_sum():
    # controlled(u0, u1) is |0><0| x u0 + |1><1| x u1, bitwise.
    rng = np.random.default_rng(3)
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    for anc_dim in (1, 2, 3):
        u0, u1 = random_unitary(anc_dim, rng), random_unitary(anc_dim, rng)
        np.testing.assert_array_equal(controlled(u0, u1),
                                      np.kron(p0, u0) + np.kron(p1, u1))


def test_embed_controlled_identity_pair():
    m = controlled(identity(3), identity(3))
    np.testing.assert_allclose(m, identity(6), atol=0)


def test_embed_controlled_cnot():
    m = controlled(identity(2), PAULI_X)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                    dtype=complex)
    np.testing.assert_array_equal(m, cnot)


def test_embed_controlled_against_basis_enumeration():
    # Qutrit target with u1 = Z_3.
    z3 = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    m = controlled(identity(3), z3)
    expected = np.zeros((6, 6), dtype=complex)
    for q in range(2):
        for a in range(3):
            amp = z3[:, a] if q == 1 else identity(3)[:, a]
            for a_out in range(3):
                expected[q * 3 + a_out, q * 3 + a] = amp[a_out]
    np.testing.assert_allclose(m, expected, atol=1e-15)
    assert is_unitary(m)


def test_embed_controlled_rejects_bad_dims():
    for u0, u1 in ((identity(2), identity(3)), (identity(3), identity(2)),
                   (np.ones((2, 3)), np.ones((2, 3))), (np.ones(3), np.ones(3))):
        with pytest.raises(ValueError):
            controlled(u0, u1)


def test_phase_distance_zero_on_equal():
    u = random_unitary(5, np.random.default_rng(0))
    assert phase_distance(u, u) < 1e-13


def test_phase_distance_removes_global_phase():
    u = random_unitary(4, np.random.default_rng(1))
    assert phase_distance(u, np.exp(1j * np.pi / 3) * u) < 1e-13


def test_phase_distance_identity_vs_z_is_two():
    # tr(Z^dag I) = 0, so the zero-overlap hypot branch runs; the objective is flat at 2.
    assert abs(phase_distance(identity(2), PAULI_Z) - 2.0) < 1e-12


@st.composite
def distance_operands(draw):
    """Equal square operands of complex, real or integer entries, as C-ordered
    arrays, transposes or strided slices; the sizes straddle the 8,192-entry
    blocks of the second pass.  A disjoint pair has tr(v^dag u) = 0 exactly."""
    dim = draw(st.sampled_from((1, 2, 4, 90, 91, 128, 181, 256)))
    kind = draw(st.sampled_from(("complex", "real", "int")))
    layout = draw(st.sampled_from(("c", "transpose", "strided")))
    relation = draw(st.sampled_from(("independent", "near", "disjoint")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def operand():
        shape = (2 * dim, 2 * dim) if layout == "strided" else (dim, dim)
        if kind == "int":
            m = rng.integers(-3, 4, shape)
        else:
            m = rng.standard_normal(shape)
            if kind == "complex":
                m = m + 1j * rng.standard_normal(shape)
        return {"c": m, "transpose": m.T, "strided": m[::2, ::2]}[layout]

    u, v = operand(), operand()
    if relation == "near":
        v = (np.exp(0.7j) if kind == "complex" else -1) * u + 1e-9 * v
    elif relation == "disjoint":
        u[dim // 2:] = 0
        v[:dim // 2] = 0
    return u, v


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(distance_operands())
def test_phase_distance_matches_the_dense_formula(operands):
    u, v = operands
    uc, vc = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    t = np.vdot(vc, uc)
    phase = t / abs(t) if abs(t) > 1e-12 * u.shape[0] else 1.0
    expected = np.linalg.norm(phase * vc - uc)
    assert abs(phase_distance(u, v) - expected) <= 1e-12 * expected + 1e-15


def test_phase_distance_makes_no_dense_temporary():
    # One 512 x 512 complex matrix is 4 MiB; a block of the second pass, 128 KiB.
    rng = np.random.default_rng(5)
    u = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
    v = np.exp(0.4j) * u
    tracemalloc.start()
    try:
        distance = phase_distance(u, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert distance < 1e-10
    assert peak < 2 ** 20


def test_phase_distance_rejects_mismatch():
    with pytest.raises(ValueError):
        phase_distance(identity(2), identity(3))


def test_phase_distance_pseudometric():
    rng = np.random.default_rng(42)
    for _ in range(25):
        u, v, w = (random_unitary(4, rng) for _ in range(3))
        duv, dvu = phase_distance(u, v), phase_distance(v, u)
        assert abs(duv - dvu) < 1e-10
        assert phase_distance(u, w) <= duv + phase_distance(v, w) + 1e-10


def test_state_fidelity_basics():
    e0 = np.array([1, 0], dtype=complex)
    e1 = np.array([0, 1], dtype=complex)
    plus = (e0 + e1) / np.sqrt(2)
    assert state_fidelity(e0, e0) == 1.0
    assert state_fidelity(e0, e1) == 0.0
    assert abs(state_fidelity(plus, e0) - 0.5) < 1e-15
    with pytest.raises(ValueError):
        state_fidelity(e0, np.array([1, 0, 0], dtype=complex))


def test_constructed_operators_unitary():
    rng = np.random.default_rng(3)
    for mat in (PAULI_X, PAULI_Z, HADAMARD, phase_gate(0.37),
                controlled(random_unitary(3, rng), random_unitary(3, rng))):
        assert is_unitary(mat)


def test_largest_schmidt_weight():
    e0 = np.array([1, 0], dtype=complex)
    product = np.outer(e0, e0)
    assert abs(largest_schmidt_weight(product) - 1.0) < 1e-15
    bell = np.eye(2, dtype=complex) / np.sqrt(2)
    assert abs(largest_schmidt_weight(bell) - 0.5) < 1e-15


def test_random_state_normalized():
    v = random_state(8, np.random.default_rng(4))
    assert abs(np.linalg.norm(v) - 1.0) < 1e-14
