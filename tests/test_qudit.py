"""Lattice phase space: shift/clock pair, Fourier, displacements, loops."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amqc.linalg import HADAMARD, PAULI_X, PAULI_Z, identity, is_unitary
from amqc.qudit import (
    CONVENTIONS,
    HALF_ROOT,
    MOD_INVERSE,
    LatticeLabel,
    OpenLoopError,
    compose_labels,
    displacement,
    displacement_prefactor,
    displacements,
    fourier,
    generalized_pauli,
    loop_phase,
    omega,
    rotation,
)


def conventions_for(d):
    return CONVENTIONS if d % 2 else (HALF_ROOT,)


def test_qubit_case_is_pauli():
    x, z = generalized_pauli(2)
    np.testing.assert_array_equal(x, PAULI_X)
    np.testing.assert_allclose(z, PAULI_Z, atol=1e-15)


def test_clock_matrix_d3():
    _, z = generalized_pauli(3)
    np.testing.assert_allclose(
        np.diag(z), [1.0, np.exp(2j * np.pi / 3), np.exp(4j * np.pi / 3)],
        atol=1e-15)


def test_weyl_relation_example_d5():
    # Z^3 X^2 = w5(6) X^2 Z^3 and w5(6) = w5(1).
    x, z = generalized_pauli(5)
    lhs = np.linalg.matrix_power(z, 3) @ np.linalg.matrix_power(x, 2)
    rhs = omega(5, 6) * np.linalg.matrix_power(x, 2) @ np.linalg.matrix_power(z, 3)
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)
    assert abs(omega(5, 6) - omega(5, 1)) < 1e-15


@pytest.mark.parametrize("d", range(2, 9))
def test_weyl_relation_all_powers(d):
    x, z = generalized_pauli(d)
    for xx in range(d):
        for pp in range(d):
            lhs = np.linalg.matrix_power(z, pp) @ np.linalg.matrix_power(x, xx)
            rhs = omega(d, xx * pp) * \
                np.linalg.matrix_power(x, xx) @ np.linalg.matrix_power(z, pp)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("d", range(2, 9))
def test_periodicity(d):
    x, z = generalized_pauli(d)
    np.testing.assert_allclose(np.linalg.matrix_power(x, d), identity(d), atol=1e-12)
    np.testing.assert_allclose(np.linalg.matrix_power(z, d), identity(d), atol=1e-12)


def test_fourier_d2_is_hadamard():
    np.testing.assert_allclose(fourier(2), HADAMARD, atol=1e-15)


@pytest.mark.parametrize("d", range(2, 9))
def test_fourier_conjugation_orientation(d):
    # With kernel w(mn) the orientation is F^dag Z F = X; the reverse fails
    # for d > 2, so the ordering is pinned here.
    f = fourier(d)
    x, z = generalized_pauli(d)
    np.testing.assert_allclose(f.conj().T @ z @ f, x, atol=1e-12)
    assert is_unitary(f)
    if d > 2:
        assert np.max(np.abs(f @ z @ f.conj().T - x)) > 0.5


def test_fourier_fourth_power_d3():
    np.testing.assert_allclose(np.linalg.matrix_power(fourier(3), 4),
                               identity(3), atol=1e-13)


def test_rotation_basics():
    np.testing.assert_array_equal(rotation(5, 0.0), identity(5))
    np.testing.assert_allclose(rotation(4, np.pi / 2), generalized_pauli(4)[1],
                               atol=1e-15)
    sq = rotation(3, np.pi) @ rotation(3, np.pi)
    np.testing.assert_allclose(sq, identity(3), atol=1e-15)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_displacement_pure_translations(d):
    x, z = generalized_pauli(d)
    for conv in conventions_for(d):
        for k in range(d):
            np.testing.assert_allclose(displacement(d, k, 0, conv),
                                       np.linalg.matrix_power(x, k), atol=1e-14)
            np.testing.assert_allclose(displacement(d, 0, k, conv),
                                       np.linalg.matrix_power(z, k), atol=1e-14)


def test_displacement_prefactor_examples():
    # d=3 modular-inverse: 2^{-1} = 2 mod 3, so the (1,1) prefactor is w3(-2).
    d3 = displacement(3, 1, 1, MOD_INVERSE)
    x, z = generalized_pauli(3)
    np.testing.assert_allclose(d3, omega(3, -2) * z @ x, atol=1e-15)
    assert abs(omega(3, -2) - np.exp(2j * np.pi / 3)) < 1e-15
    # d=4 half-root: prefactor e^{-i pi / 4}.
    d4 = displacement(4, 1, 1, HALF_ROOT)
    x, z = generalized_pauli(4)
    np.testing.assert_allclose(d4, np.exp(-1j * np.pi / 4) * z @ x, atol=1e-15)


def test_displacement_rejects_mod_inverse_for_even_d():
    with pytest.raises(ValueError):
        displacement(4, 1, 1, MOD_INVERSE)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_displacement_unitary(d):
    for conv in conventions_for(d):
        for x in range(-d, d + 1):
            for p in range(-d, d + 1):
                assert is_unitary(displacement(d, x, p, conv))


def _power_definition(d, x, p, conv):
    """The defining product prefactor * Z^p X^x, by matrix powers of the
    shift and clock pair."""
    xd, zd = generalized_pauli(d)
    mat = np.linalg.matrix_power(zd, p % d) @ np.linalg.matrix_power(xd, x % d)
    return displacement_prefactor(d, x, p, conv) * mat


@pytest.mark.parametrize("d", range(2, 10))
def test_phased_permutation_matches_power_definition(d):
    for conv in conventions_for(d):
        for x in range(-2 * d, 2 * d + 1):
            for p in range(-2 * d, 2 * d + 1):
                np.testing.assert_allclose(displacement(d, x, p, conv),
                                           _power_definition(d, x, p, conv),
                                           rtol=0, atol=1e-13)


@pytest.mark.parametrize("d", range(2, 10))
def test_phased_permutation_composes_like_labels(d):
    rng = np.random.default_rng(d)
    for conv in conventions_for(d):
        for _ in range(60):
            l1, l2 = (LatticeLabel(*(int(v) for v in rng.integers(-2 * d, 2 * d + 1, 2)), d)
                      for _ in range(2))
            total, scalar = compose_labels(l1, l2, conv)
            lhs = displacement(d, l2.x, l2.p, conv) @ displacement(d, l1.x, l1.p, conv)
            np.testing.assert_allclose(lhs, scalar * displacement(d, total.x, total.p, conv),
                                       rtol=0, atol=1e-12)


def test_displacement_rejects_dimension_below_two():
    with pytest.raises(ValueError):
        displacement(1, 0, 0)


def test_compose_with_inverse_is_trivial():
    lab = LatticeLabel(2, -1, 5)
    for conv in CONVENTIONS:
        total, scalar = compose_labels(lab, -lab, conv)
        assert total == LatticeLabel(0, 0, 5)
        assert abs(scalar - 1.0) < 1e-15


def test_compose_example_d5_modular_inverse():
    l1, l2 = LatticeLabel(2, 0, 5), LatticeLabel(0, 3, 5)
    total, scalar = compose_labels(l1, l2, MOD_INVERSE)
    assert total == LatticeLabel(2, 3, 5)
    # 2^{-1} = 3 mod 5 and 3*6 = 18 = 3 mod 5.
    assert abs(scalar - omega(5, 3)) < 1e-15
    lhs = displacement(l2.d, l2.x, l2.p, MOD_INVERSE) @ \
        displacement(l1.d, l1.x, l1.p, MOD_INVERSE)
    rhs = scalar * displacement(total.d, total.x, total.p, MOD_INVERSE)
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_compose_example_d4_half_root():
    l1, l2 = LatticeLabel(1, 0, 4), LatticeLabel(0, 1, 4)
    total, scalar = compose_labels(l1, l2, HALF_ROOT)
    assert abs(scalar - np.exp(1j * np.pi / 4)) < 1e-15
    lhs = displacement(l2.d, l2.x, l2.p, HALF_ROOT) @ \
        displacement(l1.d, l1.x, l1.p, HALF_ROOT)
    rhs = scalar * displacement(total.d, total.x, total.p, HALF_ROOT)
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_compose_matches_matrix_oracle_randomly():
    rng = np.random.default_rng(11)
    for conv in CONVENTIONS:
        for _ in range(200):
            d = int(rng.integers(2, 9))
            if conv == MOD_INVERSE and d % 2 == 0:
                d += 1
            l1 = LatticeLabel(int(rng.integers(-d, d + 1)),
                              int(rng.integers(-d, d + 1)), d)
            l2 = LatticeLabel(int(rng.integers(-d, d + 1)),
                              int(rng.integers(-d, d + 1)), d)
            total, scalar = compose_labels(l1, l2, conv)
            lhs = displacement(l2.d, l2.x, l2.p, conv) @ \
                displacement(l1.d, l1.x, l1.p, conv)
            rhs = scalar * displacement(total.d, total.x, total.p, conv)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_compose_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        compose_labels(LatticeLabel(1, 0, 3), LatticeLabel(1, 0, 5))


labels_beyond_int64 = st.lists(st.tuples(*[st.integers(-10 ** 30, 10 ** 30)] * 4),
                               min_size=1, max_size=20)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 9), st.sampled_from(CONVENTIONS), labels_beyond_int64)
def test_array_compose_is_the_label_path_bitwise(d, conv, pairs):
    # Object arrays of Python integers up to 1e30: the array form gives each
    # pair's exact summed label and, bit for bit, the LatticeLabel scalar.
    if conv == MOD_INVERSE and d % 2 == 0:
        d += 1
    x1, p1, x2, p2 = (np.array(column, dtype=object) for column in zip(*pairs))
    (x, p), scalars = compose_labels((x1, p1), (x2, p2), conv, d)
    singles = [compose_labels(LatticeLabel(a, b, d), LatticeLabel(c, e, d), conv)
               for a, b, c, e in pairs]
    assert scalars.shape == (len(pairs),) and scalars.dtype == complex
    assert scalars.tobytes() == np.array([s for _, s in singles]).tobytes()
    assert list(x) == [t.x for t, _ in singles] and list(p) == [t.p for t, _ in singles]
    # int64 arrays of the labels' residues give the same scalars.
    residues = [(a % (2 * d)).astype(np.int64) for a in (x1, p1, x2, p2)]
    assert compose_labels(residues[:2], residues[2:], conv, d)[1].tobytes() == scalars.tobytes()


def test_array_compose_broadcasts_and_keeps_the_refusals():
    (x, p), scalars = compose_labels((np.arange(3)[:, None], 1), (0, np.arange(4)), HALF_ROOT, 4)
    assert x.shape == (3, 1) and p.shape == (4,) and scalars.shape == (3, 4)
    assert scalars[2, 3] == compose_labels(LatticeLabel(2, 1, 4), LatticeLabel(0, 3, 4))[1]
    with pytest.raises(ValueError, match="is even"):
        compose_labels((np.arange(3), 0), (0, np.arange(3)), MOD_INVERSE, 4)
    with pytest.raises(ValueError, match="integers or integer arrays"):
        compose_labels((np.array([1.5]), 0), (0, 1), HALF_ROOT, 3)
    with pytest.raises(ValueError, match="integers or integer arrays"):
        compose_labels(([0], [np.True_]), ([1], [1]), HALF_ROOT, 3)
    with pytest.raises(ValueError, match="qudit dimension"):
        compose_labels(([0], [1]), ([1], [1]), HALF_ROOT, 1)


@pytest.mark.parametrize("x,p", [(True, 0), (0, np.bool_(False)), (np.array([1.5]), 0),
                                 (1, np.array([True])), (np.array(["1"]), 0)])
def test_displacements_refuse_non_integer_labels(x, p):
    with pytest.raises(ValueError, match="integers or integer arrays"):
        displacements(3, x, p)


def test_displacements_of_labels_beyond_int64_are_their_scalar_builds():
    labels = np.array([10 ** 30 + 1, -(10 ** 25), 7], dtype=object)
    for conv in CONVENTIONS:
        stack = displacements(5, labels[:, None], labels[None, :], conv)
        for (i, x), (j, p) in itertools.product(enumerate(labels), repeat=2):
            assert stack[i, j].tobytes() == displacement(5, x, p, conv).tobytes()


def rect(x, p, d):
    return [LatticeLabel(x, 0, d), LatticeLabel(0, p, d),
            LatticeLabel(-x, 0, d), LatticeLabel(0, -p, d)]


@pytest.mark.parametrize("reach", [1, 10 ** 6, 10 ** 12])
@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_half_root_phases_of_far_labels_are_their_residues(d, reach):
    # HALF_ROOT is 2d-periodic in each label, MOD_INVERSE (odd d) d-periodic.
    # Labels moved by a multiple of 2d, up to 1e12, give the operator and
    # phases of their residues (of the same sign), as the branch engine does,
    # however large the labels are.
    shift = 2 * d * max(1, reach // (2 * d))
    for conv, sign, x, p in itertools.product(conventions_for(d), (1, -1),
                                              range(2 * d), range(2 * d)):
        far = sign * (x + shift), sign * (p + shift)
        np.testing.assert_allclose(displacement(d, *far, conv),
                                   displacement(d, sign * x, sign * p, conv),
                                   rtol=0, atol=1e-15)
        for x2, p2 in ((1, 2), (2 * d - 1, 3), (0, 2 * d - 1)):
            far2 = LatticeLabel(sign * (x2 + shift), sign * (p2 + shift), d)
            near2 = LatticeLabel(sign * x2, sign * p2, d)
            assert abs(compose_labels(LatticeLabel(*far, d), far2, conv)[1]
                       - compose_labels(LatticeLabel(sign * x, sign * p, d), near2, conv)[1]
                       ) < 1e-15
        assert abs(loop_phase(rect(*far, d), conv)
                   - loop_phase(rect(sign * x, sign * p, d), conv)) < 1e-15


@pytest.mark.parametrize("k", [10 ** 6, 10 ** 9, 10 ** 12, 10 ** 9 + 1])
def test_far_mod_inverse_labels_are_exact(k):
    # MOD_INVERSE is d-periodic, not only 2d-periodic: a label moved by 5k is
    # the same operator, with the same composition scalar and loop phase,
    # exactly.
    far = LatticeLabel(2 + 5 * k, 3 + 5 * k, 5)
    near = LatticeLabel(2, 3, 5)
    assert (displacement(5, far.x, far.p, MOD_INVERSE).tobytes()
            == displacement(5, 2, 3, MOD_INVERSE).tobytes())
    assert (compose_labels(far, LatticeLabel(1, 4, 5), MOD_INVERSE)[1]
            == compose_labels(near, LatticeLabel(1, 4, 5), MOD_INVERSE)[1])
    assert loop_phase(rect(far.x, far.p, 5), MOD_INVERSE) == \
        loop_phase(rect(2, 3, 5), MOD_INVERSE)


def test_numpy_integer_labels_compose_like_python_integers():
    # x1 p2 = 1.2e19 wraps in int64; the phases are taken on exact integers.
    big = [LatticeLabel(np.int64(3 * 10 ** 9), 1, 5), LatticeLabel(1, np.int64(4 * 10 ** 9), 5)]
    ints = [LatticeLabel(int(lab.x), int(lab.p), 5) for lab in big]
    for conv in CONVENTIONS:
        assert compose_labels(*big, conv)[1] == compose_labels(*ints, conv)[1]
        loop = big + [-lab for lab in big]
        assert loop_phase(loop, conv) == loop_phase(ints + [-lab for lab in ints], conv)


def test_loop_phase_rectangle_examples():
    # d=5, x=2, p=3: w5(6) = w5(1); matrix product oracle confirms.
    for conv in CONVENTIONS:
        assert abs(loop_phase(rect(2, 3, 5), conv) - omega(5, 1)) < 1e-13
    prod = identity(5)
    for lab in rect(2, 3, 5):
        prod = displacement(lab.d, lab.x, lab.p, MOD_INVERSE) @ prod
    np.testing.assert_allclose(prod, omega(5, 1) * identity(5), atol=1e-13)

    assert abs(loop_phase(rect(0, 3, 7), HALF_ROOT) - 1.0) < 1e-15

    # d=2: Z X Z X = -I for the Pauli matrices.
    assert abs(loop_phase(rect(1, 1, 2), HALF_ROOT) + 1.0) < 1e-15
    np.testing.assert_allclose(PAULI_Z @ PAULI_X @ PAULI_Z @ PAULI_X,
                               -identity(2), atol=0)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_loop_phase_convention_independent(d):
    for x in range(d):
        for p in range(d):
            expected = complex(omega(d, x * p))
            for conv in conventions_for(d):
                assert abs(loop_phase(rect(x, p, d), conv) - expected) < 1e-12


def test_loop_phase_wraparound_closure():
    # d applications of a unit step close around the torus.
    d = 3
    labels = [LatticeLabel(1, 0, d)] * d
    for conv in CONVENTIONS:
        scalar = loop_phase(labels, conv)
        prod = identity(d)
        for lab in labels:
            prod = displacement(lab.d, lab.x, lab.p, conv) @ prod
        np.testing.assert_allclose(prod, scalar * identity(d), atol=1e-13)


def test_loop_phase_open_loop_reports_net_label():
    with pytest.raises(OpenLoopError) as err:
        loop_phase([LatticeLabel(1, 0, 4), LatticeLabel(0, 2, 4)], HALF_ROOT)
    assert err.value.net == (1, 2)


def test_label_equality_reduces_mod_d():
    assert LatticeLabel(5, -1, 4) == LatticeLabel(1, 3, 4)
    assert LatticeLabel(1, 0, 4) != LatticeLabel(1, 0, 5)
    assert hash(LatticeLabel(5, -1, 4)) == hash(LatticeLabel(1, 3, 4))


@pytest.mark.parametrize("d", range(2, 7))
def test_shifted_rotation_spectrum(d):
    # D(-x, 0) R(theta) D(x, 0) |m>_x = e^{i theta ((x+m) mod d)} |m>_x.
    theta = 0.83
    for x in range(d):
        conj = displacement(d, -x, 0, HALF_ROOT) @ rotation(d, theta) @ \
            displacement(d, x, 0, HALF_ROOT)
        expected = np.diag([np.exp(1j * theta * ((x + m) % d)) for m in range(d)])
        np.testing.assert_allclose(conj, expected, atol=1e-13)
