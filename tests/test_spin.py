"""Spin-coherent backend: composition law, loop closure, intrinsic errors."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

import amqc.spin

from amqc.cli import main
from amqc.linalg import PAULI_X, PAULI_Y, identity, kron, phase_distance, phase_gate
from amqc.spin import (
    ETA_MAX,
    LoopUnclosableError,
    SingularCompositionError,
    SpinBranchState,
    _sphere_walk,
    apply_controlled_spin,
    coherent_overlap,
    compose_on_origin,
    contraction_probe,
    eta_for_phase,
    fan_error,
    fan_sequence_simulate,
    fitted_loglog_slope,
    loop_close,
    phi_series_defect,
    spin_generator_check,
    spin_two_qubit_gate,
    su2_displacement,
    vacuum_return_infidelity,
)

ONE = np.array([0.0, 1.0], dtype=complex)  # reference per-spin state |1>


# ----------------------------------------------------------------------------
# single-spin displacement matrix
# ----------------------------------------------------------------------------

def test_displacement_stack_equals_per_label_matrices():
    # Same arithmetic per entry; numpy's array loops may round the last bit
    # of a complex division differently, so allow a few ulps of entries <= 1.
    rng = np.random.default_rng(5)
    zeta = (rng.uniform(-1, 1, (40, 30)) + 1j * rng.uniform(-1, 1, (40, 30))) * \
        10.0 ** rng.uniform(-6, 3, (40, 30))
    stack = su2_displacement(zeta)
    assert stack.shape == (40, 30, 2, 2)
    for index in np.ndindex(zeta.shape):
        np.testing.assert_allclose(stack[index], su2_displacement(complex(zeta[index])),
                                   rtol=0, atol=4 * np.finfo(float).eps)


def test_zero_displacement_is_identity():
    np.testing.assert_array_equal(su2_displacement(0.0), identity(2))


def test_real_label_rotates_about_y():
    # A real label generates exp(i atan(zeta) sigma_y), a rotation by
    # 2 atan(zeta); the x-axis generator belongs to imaginary labels.
    for zeta in (0.37, -1.2):
        np.testing.assert_allclose(su2_displacement(zeta),
                                   expm(1j * math.atan(zeta) * PAULI_Y),
                                   atol=1e-14)
    np.testing.assert_allclose(su2_displacement(0.5j),
                               expm(1j * math.atan(0.5) * PAULI_X),
                               atol=1e-14)


def test_matches_angle_parameterisation():
    rng = np.random.default_rng(21)
    for _ in range(40):
        theta = rng.uniform(0.05, np.pi - 0.05)
        phi = rng.uniform(0.0, 2 * np.pi)
        zeta = -np.exp(-1j * phi) * np.tan(theta / 2)
        exponential = expm(1j * ((theta / 2) * np.sin(phi) * PAULI_X
                                 - (theta / 2) * np.cos(phi) * PAULI_Y))
        np.testing.assert_allclose(su2_displacement(zeta), exponential,
                                   atol=1e-12)


def test_displacement_creates_coherent_state():
    zeta = 0.4 - 0.7j
    got = su2_displacement(zeta) @ ONE
    expected = np.array([zeta, 1.0]) / math.sqrt(1 + abs(zeta) ** 2)
    np.testing.assert_allclose(got, expected, atol=1e-15)


# ----------------------------------------------------------------------------
# composition law
# ----------------------------------------------------------------------------

def test_compose_with_inverse():
    z_out, phase = compose_on_origin(0.3 + 0.2j, -0.3 - 0.2j, 7)
    assert abs(z_out) < 1e-15
    assert abs(phase - 1.0) < 1e-15


def test_compose_worked_example():
    z1, z2 = 0.3, 0.3j
    z_out, phase = compose_on_origin(z1, z2, 1)
    np.testing.assert_allclose(z_out, (0.3 + 0.3j) / (1 + 0.09j), atol=1e-16)
    np.testing.assert_allclose(phase, (1 + 0.09j) / abs(1 + 0.09j), atol=1e-15)
    assert abs(cmath.phase(phase) - math.atan(0.09)) < 1e-15
    # Amplitude-level agreement with the per-spin matrix product.
    per_spin = su2_displacement(z2) @ su2_displacement(z1) @ ONE
    predicted = phase * np.array([z_out, 1.0]) / math.sqrt(1 + abs(z_out) ** 2)
    np.testing.assert_allclose(per_spin, predicted, atol=1e-15)


def test_compose_matches_matrix_oracle_randomly():
    rng = np.random.default_rng(33)
    for _ in range(300):
        z1 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        z2 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if abs(1 - z1 * z2.conjugate()) < 1e-3:
            continue
        n_spins = int(rng.integers(1, 11))
        z_out, phase = compose_on_origin(z1, z2, n_spins)
        single = su2_displacement(z2) @ su2_displacement(z1) @ ONE
        full = np.array([1.0], dtype=complex)
        for _ in range(n_spins):
            full = np.kron(full, single)
        coherent = np.array([z_out, 1.0]) / math.sqrt(1 + abs(z_out) ** 2)
        predicted = np.array([1.0], dtype=complex)
        for _ in range(n_spins):
            predicted = np.kron(predicted, coherent)
        np.testing.assert_allclose(full, phase * predicted, atol=1e-12)


def test_compose_singular_raises():
    with pytest.raises(SingularCompositionError):
        compose_on_origin(1.0, 1.0, 3)


# ----------------------------------------------------------------------------
# overlaps
# ----------------------------------------------------------------------------

def test_overlap_of_equal_labels():
    assert abs(coherent_overlap(0.3 - 0.5j, 0.3 - 0.5j, 9) - 1.0) < 1e-14


def test_overlap_with_origin():
    zeta, n_spins = 0.8 + 0.1j, 6
    got = abs(coherent_overlap(0.0, zeta, n_spins)) ** 2
    assert abs(got - (1 + abs(zeta) ** 2) ** -n_spins) < 1e-14


def test_overlap_contracts_to_gaussian():
    zeta = 1.3 - 0.4j
    for n_spins, tol in ((10 ** 6, 2e-6), (10 ** 8, 2e-8)):
        got = abs(coherent_overlap(0.0, zeta / math.sqrt(2 * n_spins),
                                   n_spins)) ** 2
        assert abs(got - math.exp(-abs(zeta) ** 2 / 2)) < tol


# ----------------------------------------------------------------------------
# loop closure
# ----------------------------------------------------------------------------

def test_tau_value_and_series():
    sol = loop_close(0.1)
    assert abs(sol.tau - 0.10206229412959567) < 1e-15
    # Next series term is 6 eta^5 = 6e-5.
    assert abs(sol.tau - (0.1 + 2 * 0.1 ** 3)) < 1e-4


def test_small_eta_phase_approaches_flat_rectangle():
    # phi_t / (2 N eta^2) -> 1: the flat loop with x = p = eta sqrt(2N).
    for eta in (1e-3, 1e-4):
        sol = loop_close(eta)
        assert abs(sol.phi_t / (2 * eta ** 2) - 1.0) < 50 * eta


def test_closure_residual_via_composition():
    for eta in np.linspace(1e-3, ETA_MAX, 100):
        sol = loop_close(float(eta))
        zeta = 0.0 + 0.0j
        total_phase = 0.0
        for leg in (sol.eta, 1j * sol.tau, -sol.tau, -1j * sol.eta):
            den = 1 - zeta * complex(leg).conjugate()
            zeta = (zeta + leg) / den
            total_phase += math.atan2(den.imag, den.real)
        assert abs(zeta) < 1e-12
        assert abs(total_phase - sol.phi_t) < 1e-12


def test_loop_close_domain():
    with pytest.raises(LoopUnclosableError):
        loop_close(ETA_MAX + 1e-6)
    sol = loop_close(0.0)
    assert sol.tau == 0.0 and sol.phi_t == 0.0
    # Odd in eta: flipping the sign flips tau and keeps the phase.
    plus, minus = loop_close(0.2), loop_close(-0.2)
    assert abs(plus.tau + minus.tau) < 1e-15
    assert abs(plus.phi_t - minus.phi_t) < 1e-15


def test_boundary_eta_included():
    sol = loop_close(ETA_MAX)
    assert abs(sol.tau - 1.0) < 1e-7  # discriminant hits zero, tau -> 1
    assert abs(sol.phi_t - math.pi / 4) < 1e-7


# ----------------------------------------------------------------------------
# branch states
# ----------------------------------------------------------------------------

def test_zero_displacement_leaves_branches():
    state = SpinBranchState.from_register(
        np.array([1, 1], dtype=complex) / np.sqrt(2), n_spins=5)
    out = apply_controlled_spin(state, 0, 0.0)
    for r in (0, 1):
        assert out.branches[r] == state.branches[r]


def test_branch_signs_follow_control_bit():
    state = SpinBranchState.from_register(
        np.array([1, 1], dtype=complex) / np.sqrt(2), n_spins=4)
    zeta = 0.2 + 0.1j
    out = apply_controlled_spin(state, 0, zeta)
    assert abs(out.branches[0][0] - zeta) < 1e-15   # bit 0 -> +zeta
    assert abs(out.branches[1][0] + zeta) < 1e-15   # bit 1 -> -zeta


def test_branch_norm_conserved():
    rng = np.random.default_rng(12)
    reg = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    reg /= np.linalg.norm(reg)
    state = SpinBranchState.from_register(reg, n_spins=6)
    for _ in range(8):
        qubit = int(rng.integers(0, 3))
        zeta = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        state = apply_controlled_spin(state, qubit, zeta)
        assert abs(state.total_norm() - 1.0) < 1e-10


def test_branch_at_south_pole_raises():
    state = SpinBranchState.from_register(np.array([1, 0], dtype=complex), 3)
    state = apply_controlled_spin(state, 0, 1.0)  # bit 0 branch lands at +1
    with pytest.raises(SingularCompositionError):
        apply_controlled_spin(state, 0, 1.0)  # 1 - zeta*conj(step) = 0


def test_both_walks_refuse_a_step_near_the_south_pole():
    # |1 - z conj(leg)| = 1e-10 clears a bare 1e-12 floor, but the per-spin
    # |1> component is 1e-14 and the label would land near 1e14.
    z = 1e4 + 0j
    leg = (1 - 1e-10) / np.conj(z)
    state = SpinBranchState(1, 5, {0: (z, 1.0 + 0j)})
    with pytest.raises(SingularCompositionError):
        apply_controlled_spin(state, 0, leg)   # bit 0 branch gets +leg
    with pytest.raises(SingularCompositionError):
        _sphere_walk([np.array([z]), np.array([leg])], 5)   # origin to z, then leg


def test_fan_south_pole_error_counts_branches_not_grid_rows():
    # A first leg of 7e12 leaves a per-spin |1> component of 1.4e-13 on all
    # eight branches; the walk's grid has one row per control index, two here.
    with pytest.raises(SingularCompositionError, match=r"^8 branch\(es\)"):
        fan_sequence_simulate([1e13], [1.0, 1.0], 1)


@pytest.mark.parametrize("zeta", [math.nan, math.inf, complex(0.1, math.nan),
                                  complex(-math.inf, 0.0)])
def test_branch_update_refuses_a_non_finite_leg(zeta):
    state = SpinBranchState.from_register(np.array([1, 1], dtype=complex) / np.sqrt(2), 4)
    before = dict(state.branches)
    with pytest.raises(ValueError, match="not finite") as info:
        apply_controlled_spin(state, 0, zeta)
    assert "\n" not in str(info.value)
    assert state.branches == before


def test_branch_update_agrees_with_compose():
    state = SpinBranchState.from_register(np.array([0, 1], dtype=complex), 7)
    state = apply_controlled_spin(state, 0, 0.3)          # bit 1: -0.3
    state = apply_controlled_spin(state, 0, -0.2 + 0.4j)  # bit 1: +0.2-0.4j
    z_direct, amp_direct = state.branches[1]
    z_chain, phase1 = compose_on_origin(0.0, -0.3, 7)
    z_chain, phase2 = compose_on_origin(z_chain, 0.2 - 0.4j, 7)
    assert abs(z_direct - z_chain) < 1e-14
    assert abs(amp_direct - phase1 * phase2) < 1e-14


# ----------------------------------------------------------------------------
# two-qubit gate
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("eta,n_spins", [(0.1, 6), (0.3, 4), (0.05, 40)])
def test_spin_two_qubit_gate(eta, n_spins):
    rep = spin_two_qubit_gate(eta, n_spins)
    sol = loop_close(eta)
    oracle = np.diag(np.exp(1j * n_spins * sol.phi_t *
                            np.array([1.0, -1.0, -1.0, 1.0])))
    assert abs(rep.ancilla_return_fidelity - 1.0) < 1e-12
    assert rep.residual_entanglement < 1e-12
    assert phase_distance(rep.register_unitary, oracle) < 1e-10
    # Branch phase signs: |00> gets +phi_t, |01> gets -phi_t.
    u = rep.register_unitary
    total = n_spins * sol.phi_t
    assert abs(u[0, 0] - cmath.exp(1j * total)) < 1e-12
    assert abs(u[1, 1] - cmath.exp(-1j * total)) < 1e-12


def test_eta_for_cz_phase():
    n_spins = 8
    eta = eta_for_phase(math.pi / 4, n_spins)
    assert 0 < eta <= ETA_MAX
    rep = spin_two_qubit_gate(eta, n_spins)
    corrected = kron(phase_gate(math.pi / 2), phase_gate(math.pi / 2)) @ \
        rep.register_unitary
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    assert phase_distance(corrected, cz) < 1e-10


def test_eta_for_phase_rejects_unreachable():
    with pytest.raises(ValueError):
        eta_for_phase(10.0, 1)  # max per spin is pi/4


def test_loop_phase_closed_form_identity():
    # sin(2 phi_t) = (2 eta / (1 - eta^2))^2, the relation eta_for_phase inverts.
    grid = np.concatenate([np.geomspace(1e-150, 1e-3, 300),
                           np.linspace(1e-3, ETA_MAX, 20_001)])
    for eta in grid.tolist():
        want = (2 * eta / (1 - eta ** 2)) ** 2
        got = math.sin(2 * loop_close(eta).phi_t)
        assert abs(got - want) <= 1e-14 * want, eta
    assert abs(math.sin(2 * loop_close(ETA_MAX).phi_t) - 1.0) < 1e-15


@pytest.mark.parametrize("n_spins", range(1, 13))
def test_eta_for_phase_round_trip(n_spins):
    top = n_spins * loop_close(ETA_MAX).phi_t
    for theta in np.linspace(1e-9, 0.99 * top, 1001).tolist():
        got = n_spins * loop_close(eta_for_phase(theta, n_spins)).phi_t
        assert abs(got - theta) <= 1e-12, theta
    eta_top = eta_for_phase(top, n_spins)
    assert eta_top <= ETA_MAX
    assert abs(n_spins * loop_close(eta_top).phi_t - top) <= 1e-11


@pytest.mark.parametrize("n_spins", range(2, 13))
def test_eta_for_phase_gate_matches_zz_rotation(n_spins):
    top = n_spins * loop_close(ETA_MAX).phi_t
    zz = np.array([1.0, -1.0, -1.0, 1.0])
    for theta in np.linspace(0.01, 0.9 * top, 25).tolist():
        rep = spin_two_qubit_gate(eta_for_phase(theta, n_spins), n_spins)
        assert phase_distance(rep.register_unitary,
                              np.diag(np.exp(1j * theta * zz))) < 1e-10


@pytest.mark.parametrize("call, message", [
    (lambda: loop_close(math.nan), "exceeds"),
    (lambda: spin_two_qubit_gate(math.nan, 4), "exceeds"),
    (lambda: spin_two_qubit_gate(0.1, 0), "need at least one spin"),
    (lambda: spin_two_qubit_gate(0.1, -3), "need at least one spin"),
    (lambda: fan_sequence_simulate([1.0], [1.0], 0), "need at least one spin"),
    (lambda: fan_sequence_simulate([1.0], [1.0], -5), "need at least one spin"),
    (lambda: fan_sequence_simulate([math.nan], [1.0], 100), "must be finite"),
    (lambda: spin_two_qubit_gate(0.1, 2.5), "whole number"),
    (lambda: spin_two_qubit_gate(0.1, math.nan), "whole number"),
    (lambda: spin_two_qubit_gate(0.1, math.inf), "whole number"),
    (lambda: fan_sequence_simulate([1.0], [1.0], 2.5), "whole number"),
    (lambda: fan_sequence_simulate([1.0], [1.0], math.nan), "whole number"),
    (lambda: fan_sequence_simulate([1.0], [1.0], math.inf), "whole number"),
], ids=["loop-nan", "gate-nan", "gate-0-spins", "gate-negative-spins",
        "fan-0-spins", "fan-negative-spins", "fan-nan-leg",
        "gate-fractional-spins", "gate-nan-spins", "gate-inf-spins",
        "fan-fractional-spins", "fan-nan-spins", "fan-inf-spins"])
def test_sphere_gates_refuse_inputs_they_cannot_simulate(call, message):
    with pytest.raises(ValueError, match=message) as info:
        call()
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("n_spins", [4, np.int64(4), 4.0, np.float64(4.0)])
def test_sphere_gates_take_a_whole_ensemble_size_of_any_type(n_spins):
    gate = spin_two_qubit_gate(0.1, n_spins).register_unitary
    assert phase_distance(gate, spin_two_qubit_gate(0.1, 4).register_unitary) == 0.0
    fan = fan_sequence_simulate([1.0, 2.0], [0.5], n_spins)
    assert fan.extremal_phase == fan_sequence_simulate([1.0, 2.0], [0.5], 4).extremal_phase


# ----------------------------------------------------------------------------
# closed-form error surfaces
# ----------------------------------------------------------------------------

def test_headline_error_endpoints():
    point = fan_error(40.0, 10 ** 7)
    assert 1.4e-4 <= point.phi_E <= 2.2e-4
    assert abs(point.infidelity - 4.096e-5) / 4.096e-5 < 0.1
    assert abs(point.infid_series - 4.096e-5) < 1e-12


def test_errors_vanish_with_ensemble_size():
    previous_phi, previous_inf = None, None
    for k in range(4, 11):
        point = fan_error(7.0, 10 ** k)
        if previous_phi is not None:
            assert point.phi_E < previous_phi
            assert point.infidelity < previous_inf
        previous_phi, previous_inf = point.phi_E, point.infidelity
    assert previous_phi < 1e-8 and previous_inf < 1e-14


def test_phi_series_defect_matches_direct_subtraction():
    # The direct subtraction itself carries ~eps * phi_f of rounding noise,
    # which dominates when the defect is tiny; allow for it.
    for zeta_n, n_spins in ((10.0, 10 ** 5), (40.0, 10 ** 5), (5.0, 10 ** 6)):
        point = fan_error(zeta_n, n_spins)
        direct = point.phi_f - point.phi_series
        tol = 1e-9 * abs(direct) + 5e-15 * point.phi_f
        assert abs(phi_series_defect(zeta_n, n_spins) - direct) < tol


def exact_phase_error(zeta_n, n_spins):
    """phi_f - zeta_n^2 in exact rationals from the double zeta_n, with atan(g)
    summed to eight series terms: the first one dropped, g^17/17, is far below
    double precision of the result for |g| = zeta_n^2/N (to first order) up
    to about 0.01."""
    z2 = Fraction(zeta_n) ** 2
    w = z2 / (2 * n_spins)
    g = 2 * w / (1 + 2 * w - w * w)
    return n_spins * sum((-1) ** k * g ** (2 * k + 1) / (2 * k + 1) for k in range(8)) - z2


def test_phi_series_defect_broadcasts_like_fan_error():
    # |g| < 0.1 (the series, where the direct subtraction cancels) at
    # zeta_n = 0.1 and at N = 1e6; |g| >= 0.1 at (1, 1), and 1 + 2w - w^2 < 0
    # at (3, 1), where the direct subtraction does not cancel.
    zetas, ns = np.array([0.1, 1.0, 3.0]), np.array([[1.0], [1e6]])
    defect = phi_series_defect(zetas, ns)
    assert defect.shape == (2, 3)
    point = fan_error(zetas, 1.0)
    direct = point.phi_f - point.phi_series
    assert np.all(np.abs(defect[0, 1:] - direct[1:]) <= 1e-14 * np.abs(direct[1:]))
    for value, zeta_n, n_spins in [(defect[0, 0], 0.1, 1),
                                   *zip(defect[1], zetas, [10 ** 6] * 3)]:
        exact = float(exact_phase_error(zeta_n, n_spins) + Fraction(zeta_n) ** 4 / n_spins)
        assert abs(value - exact) <= 1e-14 * abs(exact), (zeta_n, n_spins)
    scalar = phi_series_defect(3.0, 1)
    assert type(scalar) is float and abs(scalar - defect[0, 2]) <= 1e-14 * scalar


def test_contraction_phase_error_matches_exact_reference():
    # |phi_f - zeta^2| is about 1e-12/N here, while phi_f itself is 1e-6:
    # subtracting the two doubles directly keeps at most a few digits.
    n_list = [1000 * 2 ** k for k in range(11)]
    for row in contraction_probe(1e-3, n_list):
        exact = abs(float(exact_phase_error(1e-3, row.n_spins)))
        assert abs(row.abs_err_phi - exact) <= 1e-13 * exact, row


def reference_fan_error(zeta_n, n_spins):
    """The closed forms evaluated one point at a time with the math module
    (libm), the reference for the elementwise numpy fan_error: (phi_f, phi_E,
    infidelity, phi_series, infid_series)."""
    w = zeta_n ** 2 / (2.0 * n_spins)
    phi_f = n_spins * math.atan2(2.0 * w, 1.0 + 2.0 * w - w * w)
    return (phi_f, (zeta_n ** 2 - phi_f) / zeta_n ** 2,
            -math.expm1(-n_spins * math.log1p(8.0 * w ** 3 / (1.0 + w) ** 4)),
            zeta_n ** 2 - zeta_n ** 4 / n_spins, zeta_n ** 6 / n_spins ** 2)


ERROR_FIELDS = ("phi_f", "phi_E", "infidelity", "phi_series", "infid_series")


def assert_matches_reference(zetas, ns, values, rel):
    """``values[k]`` (one array per ERROR_FIELDS entry) against the reference
    to ``rel``.  phi_E and phi_series are differences that can cancel, so
    their error is measured against the size of the terms subtracted."""
    ref = np.array([reference_fan_error(float(z), n) for z, n in zip(zetas, ns)]).T
    z2, n = np.asarray(zetas, float) ** 2, np.asarray(ns, dtype=float)
    scales = (np.abs(ref[0]), np.abs(ref[1]) + np.abs(ref[0]) / z2, np.abs(ref[2]),
              z2 + z2 * z2 / n, ref[4])
    for name, value, expected, scale in zip(ERROR_FIELDS, values, ref, scales):
        dev = np.abs(np.asarray(value, dtype=float) - expected)
        assert np.all(dev <= rel * scale), (name, float(np.max(dev / scale)))


def _random_points(rng, count):
    zetas = 10.0 ** rng.uniform(-3.0, 3.0, count)
    ns = [int(v) for v in np.round(10.0 ** rng.uniform(0.0, 18.0, count))]
    ns[:20] = [1] * 20           # w = zeta_n^2 / 2 passes 1 + sqrt(2) for zeta_n > 2.2
    ns[20:30] = [10 ** 18] * 10
    return zetas, ns


def test_elementwise_fan_error_matches_math_reference():
    zetas, ns = _random_points(np.random.default_rng(2024), 4000)
    n_arr = np.array(ns, dtype=float)
    assert np.any(zetas ** 2 / (2.0 * n_arr) > 1.0 + math.sqrt(2.0))
    point = fan_error(zetas, n_arr)
    assert_matches_reference(zetas, ns, [getattr(point, f) for f in ERROR_FIELDS], 1e-14)


def test_scalar_fan_error_returns_python_numbers():
    zetas, ns = _random_points(np.random.default_rng(7), 300)
    points = [fan_error(float(z), n) for z, n in zip(zetas, ns)]
    for point, n in zip(points, ns):
        assert type(point.n_spins) is int and point.n_spins == n
        assert all(type(getattr(point, f)) is float for f in ("zeta_n",) + ERROR_FIELDS)
    assert_matches_reference(zetas, ns, [[getattr(p, f) for p in points]
                                         for f in ERROR_FIELDS], 1e-14)


def test_scalar_closed_forms_keep_the_ensemble_size_they_used():
    assert fan_error(1.0, 2.5).n_spins == 2.5
    assert fan_error(1.0, 2.5).phi_f == fan_error(np.array([1.0]), 2.5).phi_f[0]
    assert contraction_probe(2.0, [2.5])[0].n_spins == 2.5
    point, rows = fan_error(1.0, 3.0), contraction_probe(2.0, [3.0, 10 ** 18 + 1])
    assert type(point.n_spins) is int and point.n_spins == 3
    assert [(type(r.n_spins), r.n_spins) for r in rows] == [(int, 3), (int, 10 ** 18 + 1)]


def test_fan_error_broadcasts_and_rejects_bad_points():
    point = fan_error(np.array([1.0, 2.0, 3.0]), np.array([[1.0], [1e6]]))
    assert point.phi_f.shape == point.zeta_n.shape == point.n_spins.shape == (2, 3)
    assert point.phi_f[1, 2] == fan_error(3.0, 10 ** 6).phi_f
    with pytest.raises(ValueError, match="positive"):
        fan_error(np.array([1.0, 0.0]), 5)
    with pytest.raises(ValueError, match="positive"):
        fan_error(math.nan, 5)
    with pytest.raises(ValueError, match="spin"):
        fan_error(1.0, np.array([3.0, 0.5]))
    with pytest.raises(ValueError, match=r"zeta_n=1e\+60, N=7"):
        fan_error(np.array([1.0, 1e60]), 7)


@pytest.mark.parametrize("n_spins", [1e307, 1e308, 1.7976931348623157e308])
def test_fan_error_holds_up_to_the_largest_double_ensemble(n_spins):
    # 2N overflows past about 9e307; phi_f tends to zeta_n^2 as N grows.
    assert abs(fan_error(1.0, n_spins).phi_f - 1.0) <= 1e-15
    assert abs(fan_error(np.array([1.0]), n_spins).phi_f[0] - 1.0) <= 1e-15


@pytest.mark.parametrize("n_spins", [1e307, 1e308, 1.7976931348623157e308])
def test_fan_scales_hold_up_to_the_largest_double_ensemble(n_spins):
    # The fan's legs, the contraction's u and the series defect's w all
    # divide by 2N, which overflows past about 9e307.
    rep = fan_sequence_simulate([1.0], [1.0], n_spins)
    assert abs(rep.extremal_phase - fan_error(1.0, n_spins).phi_f) <= 1e-15
    row = contraction_probe(2.0, [n_spins])[0]
    assert abs(row.phi_f - 4.0) <= 1e-15 and abs(row.prefactor - 1.0) <= 1e-15
    assert abs(row.overlap - math.exp(-2.0)) <= 1e-15
    assert abs(phi_series_defect(1.0, n_spins)) <= 1e-300


def test_contraction_writes_the_largest_ensembles(tmp_path):
    out = tmp_path / "big.csv"
    n = str(10 ** 308)
    assert main(["contraction", "--zeta", "2", "--n-min", n, "--n-max", n,
                 "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    # 12 significant digits.
    assert row[0] == n and abs(float(row[1]) - 4.0) <= 1e-11
    assert abs(float(row[3]) - math.exp(-2.0)) <= 1e-12


def test_sweep_csv_matches_math_reference(tmp_path):
    # The README's 50 x 6 grid, parsed back: 12 significant digits.
    out = tmp_path / "errors.csv"
    assert main(["sweep", "--zeta-min", "1", "--zeta-max", "50", "--zeta-steps", "50",
                 "--n-list", "1e4,1e5,1e6,1e7,1e8,1e9", "--out", str(out)]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    ns = [int(v) for v in np.tile([1e4, 1e5, 1e6, 1e7, 1e8, 1e9], 50)]
    np.testing.assert_array_equal(data[:, 0], np.repeat(np.linspace(1, 50, 50), 6))
    np.testing.assert_array_equal(data[:, 1], ns)
    assert_matches_reference(data[:, 0], ns, data[:, 2:].T, 1e-11)


def test_fan_extremal_branch_reproduces_closed_form():
    for zeta_n, n_spins in ((2.0, 10 ** 6), (5.0, 10 ** 6)):
        rep = fan_sequence_simulate([zeta_n / 2] * 2, [zeta_n / 2] * 2, n_spins)
        point = fan_error(zeta_n, n_spins)
        assert abs(rep.extremal_phase - point.phi_f) < 1e-12
        assert abs(vacuum_return_infidelity(rep.extremal_label, n_spins)
                   - point.infidelity) < 1e-14


def test_fan_worst_branch_small_at_large_n():
    rep = fan_sequence_simulate([2.5, 2.5], [2.5, 2.5], 10 ** 6)
    assert rep.worst_branch_infidelity < 1e-7  # series bound is ~1.6e-8
    assert rep.interaction_count == 8


def test_fan_infidelity_within_factor_two_of_series():
    for zeta_n in (2.0, 4.0, 8.0):
        for n_spins in (10 ** 5, 10 ** 6, 10 ** 7):
            rep = fan_sequence_simulate([zeta_n / 2] * 2, [zeta_n / 2] * 2,
                                        n_spins)
            series = zeta_n ** 6 / n_spins ** 2
            assert rep.worst_branch_infidelity <= 2 * series
            assert rep.worst_branch_infidelity > 0


def test_fan_single_pair_matches_corrected_gate_to_curvature():
    # Flat legs differ from the curvature-corrected loop at relative O(1/N).
    n_spins = 10 ** 4
    zeta_n = 0.5
    rep = fan_sequence_simulate([zeta_n], [zeta_n], n_spins)
    eta = zeta_n / math.sqrt(2 * n_spins)
    exact = n_spins * loop_close(eta).phi_t
    assert abs(rep.extremal_phase - exact) / exact < 5.0 / n_spins
    assert rep.worst_branch_infidelity > 0


def test_fan_phase_errors_against_zz_target():
    rep = fan_sequence_simulate([1.0, 2.0], [0.5, 1.5], 10 ** 6)
    # Every branch target is (sum +-x)(sum +-p); simulated phases agree to
    # the intrinsic curvature error, far below 1e-4 at this N.
    assert rep.worst_phase_error < 1e-4
    assert rep.worst_phase_error > 0


def test_fan_unitary_needs_the_ancilla_back():
    # This fan's residual (7e-11) is below DISENTANGLE_TOL, but its worst
    # branch misses the vacuum by 2.3e-10: no register gate.
    rep = fan_sequence_simulate([1.0, 2.0], [0.5, 1.5], 10 ** 6)
    assert rep.residual_entanglement < 1e-10 < rep.worst_branch_infidelity
    assert rep.register_unitary is None
    assert abs(1.0 - rep.ancilla_return_fidelity - rep.worst_branch_infidelity) < 1e-15
    assert fan_sequence_simulate([0.01], [0.01], 10).register_unitary is not None


# ----------------------------------------------------------------------------
# contraction table
# ----------------------------------------------------------------------------

def test_prefactor_column_monotone():
    rows = contraction_probe(2.0, [10 ** k for k in range(3, 7)])
    values = [r.prefactor for r in rows]
    assert all(v < 1.0 for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_contraction_slope_minus_one():
    n_list = [1000 * 2 ** k for k in range(11)]
    for mag in (1.0, 2.0, 5.0):
        rows = contraction_probe(mag, n_list)
        slope = fitted_loglog_slope([r.n_spins for r in rows],
                                    [r.abs_err_phi for r in rows])
        assert -1.05 <= slope <= -0.95


def test_contraction_overlap_limit():
    rows = contraction_probe(1.0 + 1.0j, [10 ** 6])
    limit = math.exp(-abs(1.0 + 1.0j) ** 2 / 2)
    assert rows[0].abs_err_overlap / limit < 1e-6


# ----------------------------------------------------------------------------
# Hamiltonian generator
# ----------------------------------------------------------------------------

def test_spin_generator_trivial_angle():
    assert spin_generator_check(0.0, 1.3, 2) < 1e-14


def test_spin_generator_examples():
    assert spin_generator_check(0.4, math.pi / 2, 3) < 1e-10
    assert spin_generator_check(1.1, 0.7, 2) < 1e-10


def test_spin_generator_resource_limit():
    with pytest.raises(ValueError):
        spin_generator_check(0.1, 0.1, 9)


@pytest.mark.parametrize("theta,phi,n_spins,message", [
    (0.1, 0.1, 0, "need at least one spin"),
    (0.1, 0.1, 1.5, "whole number"),
    (math.inf, 0.1, 2, "finite angles"),
    (0.1, math.nan, 2, "finite angles"),
])
def test_spin_generator_refuses_bad_input(theta, phi, n_spins, message):
    # Each is a one-line ValueError, not kron's or math's own error.
    with pytest.raises(ValueError, match=message):
        spin_generator_check(theta, phi, n_spins)


def test_spin_generator_takes_a_whole_float_ensemble_size():
    assert spin_generator_check(0.1, 0.2, 2.0) == spin_generator_check(0.1, 0.2, 2)


@pytest.mark.parametrize("n_spins", range(1, 9))
def test_spin_generator_holds_up_to_eight_spins(n_spins):
    # verify draws N <= 4 only; the check's dense limit is 8.
    worst = max(spin_generator_check(theta, phi, n_spins)
                for theta in np.linspace(-math.pi, math.pi, 4).tolist()
                for phi in np.linspace(0.0, 2 * math.pi, 3, endpoint=False).tolist())
    assert worst < 1e-12


def test_spin_generator_catches_a_wrong_generator(monkeypatch):
    # Every collective operator replaced by -J_y: the eigendecomposed
    # exponentials must no longer match the per-spin rotations.
    wrong = -amqc.spin.collective_operator(PAULI_Y, 2)
    monkeypatch.setattr(amqc.spin, "collective_operator", lambda single, n: wrong)
    assert spin_generator_check(0.9, 0.4, 2) > 0.1


@pytest.mark.parametrize("zeta", [1e-3, 30.0, 1e10])
def test_contraction_overlap_error_is_finite_and_quiet(zeta):
    # The expm1 form and its series overflow where they are not used; a
    # RuntimeWarning here fails the test.
    rows = contraction_probe(zeta, [1, 2, 1000, 10 ** 6])
    assert all(math.isfinite(r.abs_err_overlap) and r.abs_err_overlap >= 0.0 for r in rows)
