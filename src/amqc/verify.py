"""Identity suites: every backend's defining relations checked numerically.

Each suite runs a list of named checks, records the worst deviation per
check against its tolerance and the check's wall time, and reports a
:class:`SuiteResult`.  The CLI ``verify`` subcommand prints these; the pytest
suite asserts the same relations (plus the acceptance criteria)
independently.

A check over a grid or a list of random draws evaluates all its samples as
one stacked array computation (a stack of displacement matrices, elementwise
composition laws, closed-form 2x2 exponentials) rather than one small matrix
per sample.  Each suite seeds its own generator and draws each random
quantity in one call, so every run sees the same samples.  The oracle side
of each check stays independent of the library formula under test.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import oracles, qubus, qudit, spin
from .branches import flat_step, register_bits, sphere_overlap, sphere_step
from .linalg import (
    PAULI_X,
    PAULI_Y,
    identity,
    kron,
    phase_distance,
    phase_gate,
    random_state,
)
from .qudit import (
    CONVENTIONS,
    HALF_ROOT,
    MOD_INVERSE,
    LatticeLabel,
    compose_labels,
    displacement,
    displacements,
    fourier,
    generalized_pauli,
    loop_phase,
    omega,
    rotation,
)
from .qudit_model import (
    extract_register_gate,
    fan_bipartite,
    fan_one_target,
    generalized_toffoli,
    hamiltonian_generator_check,
    mod_d_phase_gate,
    single_pair_arbitrary_rotation,
    two_qubit_sequence,
)


@dataclass
class CheckResult:
    name: str
    deviation: float
    tolerance: float
    wall_s: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


@dataclass
class SuiteResult:
    name: str
    checks: list = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def cases_run(self) -> int:
        return len(self.checks)

    @property
    def cases_passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def worst_deviation(self) -> float:
        return max((c.deviation for c in self.checks), default=0.0)

    @property
    def passed(self) -> bool:
        return self.cases_passed == self.cases_run


class _Checks(list):
    """A suite's CheckResults, each stamped with the wall time since the
    previous one (or since the list was made)."""

    def __init__(self):
        super().__init__()
        self._t = time.perf_counter()

    def add(self, name: str, deviation: float, tolerance: float) -> None:
        now = time.perf_counter()
        self.append(CheckResult(name, deviation, tolerance, now - self._t))
        self._t = now


def _conventions_for(d: int):
    return CONVENTIONS if d % 2 else (HALF_ROOT,)


def _powers(m: np.ndarray, count: int) -> np.ndarray:
    """Stack of m^0, ..., m^(count-1), by repeated multiplication."""
    out = [identity(m.shape[0])]
    for _ in range(count - 1):
        out.append(out[-1] @ m)
    return np.stack(out)


# ----------------------------------------------------------------------------
# qudit suite
# ----------------------------------------------------------------------------

def run_qudit_suite() -> SuiteResult:
    rng = np.random.default_rng(20240901)
    t0 = time.perf_counter()
    checks = _Checks()

    dev = 0.0
    for d in range(2, 9):
        xd, zd = generalized_pauli(d)
        dev = max(dev,
                  np.max(np.abs(np.linalg.matrix_power(xd, d) - identity(d))),
                  np.max(np.abs(np.linalg.matrix_power(zd, d) - identity(d))))
    checks.add("periodicity X^d = Z^d = I", float(dev), 1e-12)

    dev = 0.0
    for d in range(2, 9):
        xd, zd = generalized_pauli(d)
        xs, zs = _powers(xd, d), _powers(zd, d)
        # Index [x, p] of each stack; the phase is the Weyl exponent x p.
        lhs = zs[None, :] @ xs[:, None]
        rhs = omega(d, np.multiply.outer(np.arange(d), np.arange(d)))[..., None, None] * \
            (xs[:, None] @ zs[None, :])
        dev = max(dev, float(np.max(np.abs(lhs - rhs))))
    checks.add("Weyl relation Z^p X^x = w(xp) X^x Z^p", dev, 1e-12)

    dev = 0.0
    for d in range(2, 9):
        f = fourier(d)
        xd, zd = generalized_pauli(d)
        dev = max(dev,
                  float(np.max(np.abs(f.conj().T @ zd @ f - xd))),
                  float(np.max(np.abs(f.conj().T @ f - identity(d)))),
                  float(np.max(np.abs(np.linalg.matrix_power(f, 4) - identity(d)))))
    checks.add("Fourier: F+ Z F = X, unitary, F^4 = I", dev, 1e-12)

    dev = 0.0
    for d in range(2, 9):
        grid = np.arange(-d, d + 1, max(1, d // 2))
        for conv in _conventions_for(d):
            m = displacements(d, grid[:, None], grid[None, :], conv)
            dev = max(dev, float(np.max(np.abs(
                np.conj(np.swapaxes(m, -1, -2)) @ m - identity(d)))))
    checks.add("displacement unitarity (both conventions)", dev, 1e-12)

    dev = 0.0
    for conv in CONVENTIONS:
        ds = rng.integers(2, 9, 200)
        if conv == MOD_INVERSE:
            ds |= 1     # an even d becomes d + 1
        for d in np.unique(ds).tolist():
            labels = rng.integers(-d, d + 1, (4, np.count_nonzero(ds == d)))
            totals, scalars = zip(*(
                compose_labels(LatticeLabel(a, b, d), LatticeLabel(c, e, d), conv)
                for a, b, c, e in zip(*labels.tolist())))
            x1, p1, x2, p2 = labels
            x, p = np.array([(t.x, t.p) for t in totals]).T
            lhs = displacements(d, x2, p2, conv) @ displacements(d, x1, p1, conv)
            rhs = np.array(scalars)[:, None, None] * displacements(d, x, p, conv)
            dev = max(dev, float(np.max(np.abs(lhs - rhs))))
    checks.add("compose_labels vs matrix product (200/convention)", dev, 1e-12)

    dev = 0.0
    for d in range(2, 9):
        for x in range(d):
            for p in range(d):
                expected = complex(omega(d, x * p))
                for conv in _conventions_for(d):
                    rect = [LatticeLabel(x, 0, d), LatticeLabel(0, p, d),
                            LatticeLabel(-x, 0, d), LatticeLabel(0, -p, d)]
                    dev = max(dev, abs(loop_phase(rect, conv) - expected))
    checks.add("rectangle loop phase = w(xp), both conventions", dev, 1e-12)

    dev = 0.0
    for d in range(2, 9):
        for conv in _conventions_for(d):
            expected = 1.0 if conv == MOD_INVERSE else (-1.0) ** d
            dev = max(dev, abs(loop_phase([LatticeLabel(d, d, d)], conv) - expected))
    checks.add("wrap-around loop D(d, d) = 1 (modular inverse), (-1)^d (half root)",
               dev, 1e-12)

    dev = 0.0
    for d, theta in zip(range(2, 7), rng.uniform(0.1, 2.0, 5).tolist()):
        for x in range(d):
            conj = displacement(d, -x, 0, HALF_ROOT) @ rotation(d, theta) @ \
                displacement(d, x, 0, HALF_ROOT)
            expected = np.diag([np.exp(1j * theta * ((x + m) % d))
                                for m in range(d)])
            dev = max(dev, float(np.max(np.abs(conj - expected))))
    checks.add("shifted rotation picks e^{i theta (x+m mod d)}", dev, 1e-12)

    dev = 0.0
    fid_dev = 0.0
    for d in (2, 3, 4, 5, 8):
        for conv in _conventions_for(d):
            for x in range(d):
                for p in range(d):
                    rep = extract_register_gate(
                        two_qubit_sequence(0, 1, x, p, d), convention=conv)
                    fid_dev = max(fid_dev, abs(1.0 - rep.ancilla_return_fidelity))
                    oracle = oracles.fan([x], [p], 2 * np.pi / d, signed=False)
                    dev = max(dev, phase_distance(rep.register_unitary, oracle))
    checks.add("two-qubit rectangle = C^j_k R(2 pi x p / d)", dev, 1e-10)
    checks.add("two-qubit rectangle ancilla return fidelity", fid_dev, 1e-12)

    dev = 0.0
    d = 4
    xs, p = (1, 2, 3), 1
    seq = fan_one_target(xs, p, d)
    rep = extract_register_gate(seq)
    oracle = oracles.fan(xs, [p], 2 * np.pi / d, signed=False)
    dev = max(dev, phase_distance(rep.register_unitary, oracle))
    dev = max(dev, 0.0 if rep.interaction_count == 2 * (len(xs) + 1) else 1.0)
    d = 3
    xs2, ps2 = (1, 2), (1, 1)
    rep = extract_register_gate(fan_bipartite(xs2, ps2, d))
    oracle = oracles.fan(xs2, ps2, 2 * np.pi / d, signed=False)
    dev = max(dev, phase_distance(rep.register_unitary, oracle))
    dev = max(dev, 0.0 if rep.interaction_count == 2 * (len(xs2) + len(ps2)) else 1.0)
    checks.add("fan sequences match composed rotation oracles, "
               "counts 2(n+1)/2(n+m)", dev, 1e-10)

    dev = 0.0
    for n in (1, 2, 3):
        for u in (PAULI_X, phase_gate(np.pi / 3)):
            rep = extract_register_gate(generalized_toffoli(n, u, n + 2))
            dev = max(dev, phase_distance(rep.register_unitary, oracles.toffoli(n, u)))
    checks.add("generalized Toffoli vs n-controlled-U oracle", dev, 1e-10)

    theta, n, d = np.pi / 5, 4, 3
    rep = extract_register_gate(mod_d_phase_gate(theta, n, d))
    expected = np.diag(oracles.mod_d(theta, n, d))
    dev = float(np.max(np.abs(np.diag(rep.register_unitary) - expected)))
    checks.add("mod-d phase gate exponent theta (sum q mod d) q_t", dev, 1e-12)

    dev = 0.0
    for theta, d in ((np.pi, 2), (2 * np.pi / 7, 3)):
        rep = extract_register_gate(single_pair_arbitrary_rotation(theta, d))
        dev = max(dev, phase_distance(rep.register_unitary,
                                      oracles.fan([1], [1], theta, signed=False)))
    checks.add("controlled ancilla rotation gives arbitrary CR(theta)", dev, 1e-10)

    dev = max(map(hamiltonian_generator_check, rng.uniform(-np.pi, np.pi, 10).tolist(),
                  rng.integers(2, 7, 10).tolist()))
    checks.add("Hamiltonian generator reproduces C(R(t), R(-t))", dev, 1e-12)

    return SuiteResult("qudit", checks, time.perf_counter() - t0)


# ----------------------------------------------------------------------------
# spin suite
# ----------------------------------------------------------------------------

def run_spin_suite() -> SuiteResult:
    rng = np.random.default_rng(20240902)
    t0 = time.perf_counter()
    checks = _Checks()

    theta, phi = rng.uniform([0.05, 0.0], [np.pi - 0.05, 2 * np.pi], (50, 2)).T
    zeta = -np.exp(-1j * phi) * np.tan(theta / 2)
    # exp(i h n.sigma) = cos(h) I + i sin(h) n.sigma, n = (sin phi, -cos phi, 0).
    half, phi = (theta / 2)[:, None, None], phi[:, None, None]
    n_sigma = np.sin(phi) * PAULI_X - np.cos(phi) * PAULI_Y
    exponential = np.cos(half) * identity(2) + 1j * np.sin(half) * n_sigma
    dev = float(np.max(np.abs(spin.su2_displacement(zeta) - exponential)))
    checks.add("stereographic matrix matches angle exponential", dev, 1e-12)

    re, im = rng.uniform(-1.5, 1.5, (2, 2, 500))
    z1, z2 = re + 1j * im
    n_spins = rng.integers(1, 11, 500)
    keep = np.abs(1 - z1 * np.conj(z2)) >= 1e-3
    z1, z2, n_spins = z1[keep], z2[keep], n_spins[keep]
    z_out, angle = sphere_step(z1, z2, n_spins)
    # D(z2) D(z1)|1> = u |z_out> per spin, u = (1 - z1 conj(z2)) / |1 - z1 conj(z2)|,
    # and the ensemble phase is u^N: no angle is taken on this side.
    per_spin = (spin.su2_displacement(z2) @ spin.su2_displacement(z1))[..., 1]
    den = 1 - z1 * np.conj(z2)
    unit = den / np.abs(den)
    predicted = unit[:, None] * np.stack([z_out, np.ones_like(z_out)], axis=-1) / \
        np.sqrt(1 + np.abs(z_out) ** 2)[:, None]
    # The first sample also goes through the public scalar wrapper.
    z_pub, phase_pub = spin.compose_on_origin(z1[0], z2[0], n_spins[0])
    dev = max(float(np.max(np.abs(per_spin - predicted))),
              float(np.max(np.abs(np.exp(1j * angle) - unit ** n_spins))),
              abs(z_pub - z_out[0]), abs(phase_pub - unit[0] ** n_spins[0]))
    checks.add("composition law vs per-spin matrix oracle (500)", dev, 1e-12)

    re, im = rng.uniform(-1, 1, (2, 2, 100))
    z1, z2 = re + 1j * im
    n_spins = rng.integers(1, 11, 100)
    v1 = spin.su2_displacement(z1)[..., 1]
    v2 = spin.su2_displacement(z2)[..., 1]
    inner = np.sum(np.conj(v1) * v2, axis=-1) ** n_spins
    dev = max(float(np.max(np.abs(sphere_overlap(z1, z2, n_spins) - inner))),
              abs(spin.coherent_overlap(z1[0], z2[0], n_spins[0]) - inner[0]))
    checks.add("coherent overlap vs per-spin inner product", dev, 1e-12)

    dev = 0.0
    phase_dev = 0.0
    for eta in np.linspace(1e-3, spin.ETA_MAX, 100):
        sol = spin.loop_close(float(eta))
        zeta, angle = 0.0 + 0.0j, 0.0
        for leg in (sol.eta, 1j * sol.tau, -sol.tau, -1j * sol.eta):
            den = 1.0 - zeta * complex(leg).conjugate()
            zeta = (zeta + leg) / den
            angle += math.atan2(den.imag, den.real)
        dev = max(dev, abs(zeta))
        phase_dev = max(phase_dev, abs(angle - sol.phi_t))
    checks.add("loop closure residual |zeta_t| on 100-point grid", dev, 1e-12)
    checks.add("closed-loop phase formula vs composition chain", phase_dev, 1e-12)

    dev = 0.0
    fid_dev = 0.0
    for eta, n_spins in ((0.1, 6), (0.25, 3), (0.4, 12)):
        rep = spin.spin_two_qubit_gate(eta, n_spins)
        sol = spin.loop_close(eta)
        oracle = oracles.fan([1], [1], n_spins * sol.phi_t, signed=True)
        dev = max(dev, phase_distance(rep.register_unitary, oracle))
        fid_dev = max(fid_dev, abs(1.0 - rep.ancilla_return_fidelity))
    checks.add("corrected rectangle = exp(i N phi_t Z Z)", dev, 1e-10)
    checks.add("corrected rectangle ancilla fidelity exactly 1", fid_dev, 1e-12)

    n_spins = 8
    eta = spin.eta_for_phase(np.pi / 4, n_spins)
    rep = spin.spin_two_qubit_gate(eta, n_spins)
    cz = oracles.fan([1], [1], np.pi, signed=False)
    corrected = kron(phase_gate(np.pi / 2), phase_gate(np.pi / 2)) @ \
        rep.register_unitary
    checks.add("root-found eta gives CZ up to local rotations",
               phase_distance(corrected, cz), 1e-10)

    # The joint state sum_r a_r |r>|psi_r> of a 3-qubit register after 8
    # random controlled displacements: psi_r is the N-fold tensor power of the
    # per-spin vector that branch r's su2_displacement matrices make from |1>,
    # against e^{i angle_r} |zeta_r>^(x)N from the array walk.
    n_spins = 4
    amps = random_state(8, rng)
    qubits = rng.integers(0, 3, 8)
    re, im = rng.uniform(-0.4, 0.4, (2, 8))
    signs = 1.0 - 2.0 * register_bits(3)
    legs = signs[:, qubits].T * (re + 1j * im)[:, None]    # (step, branch)
    zeta, angle = spin._sphere_walk(legs, n_spins)
    per_spin = np.zeros((8, 2), dtype=complex)
    per_spin[:, 1] = 1.0
    for mats in spin.su2_displacement(legs):
        per_spin = (mats @ per_spin[..., None])[..., 0]
    walked = spin.su2_displacement(zeta)[..., 1]
    dev = max(float(np.max(np.abs(a * (kron(*[v] * n_spins)
                                       - np.exp(1j * phase) * kron(*[w] * n_spins)))))
              for a, v, w, phase in zip(amps, per_spin, walked, angle))
    checks.add("array walk vs dense 4-spin vectors, 3 qubits x 8 random steps",
               dev, 1e-12)

    point = spin.fan_error(40.0, 10 ** 7)
    dev = 0.0 if 1.4e-4 <= point.phi_E <= 2.2e-4 else abs(point.phi_E - 1.8e-4)
    checks.add("fractional phase error at (40, 1e7) in [1.4, 2.2]e-4", dev, 0.0)
    dev = abs(point.infidelity - point.infid_series) / point.infid_series
    checks.add("infidelity at (40, 1e7) within 10% of series", dev, 0.1)

    zeta_n, n_spins = np.meshgrid(np.arange(1.0, 51.0), 10.0 ** np.arange(5, 10))
    # Cancellation-free defect: the direct subtraction cannot resolve the
    # O(zeta^6/N^2) bound below double precision at large N.
    excess = np.abs(spin.phi_series_defect(zeta_n, n_spins)) - 10.0 * zeta_n ** 6 / n_spins ** 2
    dev = max(0.0, float(excess.max()))
    checks.add("first-order phase series valid on 50x5 grid", dev, 0.0)

    dev = max(map(spin.spin_generator_check, rng.uniform(-np.pi, np.pi, 5).tolist(),
                  rng.uniform(0.0, 2 * np.pi, 5).tolist(), rng.integers(1, 5, 5).tolist()))
    checks.add("spin Hamiltonian generator + axis conjugation", dev, 1e-10)

    return SuiteResult("spin", checks, time.perf_counter() - t0)


# ----------------------------------------------------------------------------
# qubus suite
# ----------------------------------------------------------------------------

def run_qubus_suite() -> SuiteResult:
    rng = np.random.default_rng(20240903)
    t0 = time.perf_counter()
    checks = _Checks()

    x1, p1, x2, p2 = rng.uniform(-2, 2, (100, 4)).T
    z1, z2 = x1 + 1j * p1, x2 + 1j * p2
    ph12, ph21, ph_inv = (np.exp(1j * flat_step(a, b)[1])
                          for a, b in ((z1, z2), (z2, z1), (z1, -z1)))
    dev = float(max(np.max(np.abs(ph12 * ph21 - 1.0)), np.max(np.abs(ph_inv - 1.0))))
    checks.add("composition phase antisymmetric under swap", dev, 1e-12)

    dev = 0.0
    for x, p in ((0.35, 0.61), (1.0, np.pi / 4), (0.9, -0.3)):
        zz = oracles.fan([x], [p], 1.0, signed=True)
        for label in (qubus.ORIGIN, qubus.FieldLabel(0.7, -1.3)):
            rep = qubus.field_two_qubit(x, p, initial_label=label)
            dev = max(dev, phase_distance(rep.register_unitary, zz))
            dev = max(dev, abs(1.0 - rep.ancilla_return_fidelity))
    checks.add("rectangle = exp(i x p Z Z), any initial label", dev, 1e-12)

    xp = np.pi / 4
    rep = qubus.field_two_qubit(math.sqrt(xp), math.sqrt(xp))
    cz = oracles.fan([1], [1], np.pi, signed=False)
    corrected = kron(phase_gate(2 * xp), phase_gate(2 * xp)) @ rep.register_unitary
    checks.add("x p = pi/4 locally equivalent to CZ",
               phase_distance(corrected, cz), 1e-12)

    dev = 0.0
    xs, ps = (0.3, 0.4), (0.2, 0.5)
    rep = qubus.field_fan(xs, ps)
    dev = max(dev, phase_distance(rep.register_unitary,
                                  qubus.fan_target_unitary(xs, ps)))
    dev = max(dev, 0.0 if rep.interaction_count == 8 else 1.0)
    dev = max(dev, abs(1.0 - rep.ancilla_return_fidelity))
    dev = max(dev, rep.residual_entanglement)
    checks.add("fan: 4 gates in 8 interactions, exact closure", dev, 1e-12)

    return SuiteResult("qubus", checks, time.perf_counter() - t0)


# ----------------------------------------------------------------------------
# cross-backend suite
# ----------------------------------------------------------------------------

def run_cross_suite() -> SuiteResult:
    t0 = time.perf_counter()
    checks = _Checks()

    dev = 0.0
    n_list = [1000 * 2 ** k for k in range(11)]
    probes = {mag: spin.contraction_probe(mag, n_list) for mag in (1.0, 2.0, 5.0)}
    for rows in probes.values():
        slope = spin.fitted_loglog_slope(
            [r.n_spins for r in rows], [r.abs_err_phi for r in rows])
        dev = max(dev, abs(slope + 1.0) - 0.05)
    checks.add("phase error log-log slope in [-1.05, -0.95]", max(dev, 0.0), 0.0)

    dev = 0.0
    for zeta in (1.0, 1.0 + 1.0j):
        rows = spin.contraction_probe(zeta, [10 ** 6])
        limit = math.exp(-abs(zeta) ** 2 / 2.0)
        dev = max(dev, rows[0].abs_err_overlap / limit)
    checks.add("vacuum overlap matches e^{-|z|^2/2} at N=1e6", dev, 1e-6)

    prefactors = [r.prefactor for r in probes[2.0]]
    monotone = all(b > a for a, b in zip(prefactors, prefactors[1:]))
    below_one = all(p < 1.0 for p in prefactors)
    checks.add("prefactor atan(u)/u increases toward 1",
               0.0 if (monotone and below_one) else 1.0, 0.0)

    dev = 0.0
    for zeta_n, n_spins in ((2.0, 10 ** 6), (5.0, 10 ** 6)):
        rep = spin.fan_sequence_simulate(
            [zeta_n / 2] * 2, [zeta_n / 2] * 2, n_spins)
        point = spin.fan_error(zeta_n, n_spins)
        dev = max(dev, abs(rep.extremal_phase - point.phi_f))
    checks.add("fan extremal branch phase equals closed form", dev, 1e-12)

    dev = 0.0
    d = 5
    xs_int, ps_int = (1, 2), (1, 1)
    # The bus polarity is the symmetric one, so the qudit fan is run
    # symmetric as well; both then give prod exp(i theta_jk Z Z) with
    # theta_jk = 2 pi x_k p_j / d once the bus legs are scaled by
    # sqrt(2 pi / d) (the lattice spacing that equates loop areas).
    from .qudit_model import SYMMETRIC
    rep_qudit = extract_register_gate(
        fan_bipartite(xs_int, ps_int, d, polarity=SYMMETRIC))
    scale = math.sqrt(2 * math.pi / d)
    rep_field = qubus.field_fan([x * scale for x in xs_int],
                                [p * scale for p in ps_int])
    dev = max(dev, phase_distance(rep_qudit.register_unitary,
                                  rep_field.register_unitary))
    checks.add("qudit fan = field fan at matched angles 2 pi k/d", dev, 1e-10)

    return SuiteResult("cross", checks, time.perf_counter() - t0)


SUITES = {
    "qudit": run_qudit_suite,
    "spin": run_spin_suite,
    "qubus": run_qubus_suite,
    "cross": run_cross_suite,
}


def run_suites(names) -> list[SuiteResult]:
    return [SUITES[name]() for name in names]
