"""Spin-coherent-state ancilla backend.

An ensemble of N identical spins, restricted to states of product form, is a
phase space on a sphere.  Points are tracked by the stereographic coordinate
zeta (the north-pole reference state |1>^(x)N maps to zeta = 0, the south pole
to infinity and is out of range), and a displacement by zeta acts per spin as

    ( [1, zeta], [-conj(zeta), 1] ) / sqrt(1 + |zeta|^2).

Displacements from the reference state compose by a Moebius rule with a phase
that scales with N:

    D(z2) D(z1) |0> = phase * |(z1 + z2) / (1 - z1*conj(z2))>,
    phase = ((1 - z1*conj(z2)) / |1 - z1*conj(z2)|)^N.

Because the sphere is curved, a rectangle of four equal orthogonal
displacements does not close; closing it requires the corrected second leg
tau(eta), and the enclosed geometric phase per spin follows from the same
composition rule.  The closed-form error formulas for uncorrected (flat)
rectangles, their 1/N series, and the large-N contraction onto the flat
field-mode algebra all live here as well.

Axis conventions: a real zeta generates exp(i*atan(zeta)*sigma_y) per spin, a
purely imaginary zeta generates a sigma_x rotation.  Equivalently, with
zeta = -e^{-i*phi} tan(theta/2) the per-spin matrix equals
exp(i*(theta/2)*(sin(phi)*sigma_x - cos(phi)*sigma_y)); the sign of that map
is load-bearing and pinned by the test suite.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from . import branches
from .branches import SingularCompositionError
from .linalg import (HADAMARD, PAULI_X, PAULI_Y, controlled, identity, kron,
                     phase_distance, phase_gate)
from .report import DISENTANGLE_TOL, GateReport, _Frozen, _Record, diagonal_report

# Largest |eta| for which the closing leg tau(eta) is real.
ETA_MAX = math.sqrt(2.0) - 1.0
# 1/19, 1/17, ..., 1/3: atan(g) - g = -g^3 * np.polyval(_ATAN_SERIES, -g^2) + O(g^21).
_ATAN_SERIES = 1.0 / np.arange(19.0, 2.0, -2.0)
# (-1)^k / k for k = 18 .. 2: v - log1p(v) = v^2 * np.polyval(_LOG1P_SERIES, v) + O(v^19).
_LOG1P_SERIES = (-1.0) ** np.arange(18, 1, -1) / np.arange(18.0, 1.0, -1.0)


class LoopUnclosableError(ValueError):
    """|eta| exceeds sqrt(2)-1, so no real closing leg exists."""


def su2_displacement(zeta) -> np.ndarray:
    """Per-spin displacement matrix in the (|0>, |1>) basis, elementwise.

    Its N-fold tensor power is the ensemble displacement; acting on |1> it
    produces (|1> + zeta |0>) / sqrt(1 + |zeta|^2).  An array of labels
    gives a stack of shape ``zeta.shape + (2, 2)``.
    """
    zeta = np.asarray(zeta, dtype=complex)
    mat = np.ones(zeta.shape + (2, 2), dtype=complex)
    mat[..., 0, 1] = zeta
    mat[..., 1, 0] = -np.conj(zeta)
    # hypot is the scalar abs(); numpy's complex abs can differ by an ulp.
    return mat / np.sqrt(1.0 + np.hypot(zeta.real, zeta.imag) ** 2)[..., None, None]


def compose_on_origin(z1: complex, z2: complex, n_spins: int) -> tuple[complex, complex]:
    """Combine two displacements acting on the reference state (z1 first).

    Returns (zeta_out, phase) with

        D(z2) D(z1) |0> = phase * |zeta_out>,
        zeta_out = (z1 + z2) / (1 - z1*conj(z2)),
        phase = ((1 - z1*conj(z2)) / |1 - z1*conj(z2)|)^N.

    Since |zeta> = D(zeta)|0> exactly, iterating with z1 = current label also
    composes displacement chains started anywhere.  The phase is evaluated as
    exp(i*N*arg(...)) so its modulus stays exactly 1 for any N.
    """
    zeta_out, angle = branches.sphere_step(np.complex128(z1), np.complex128(z2),
                                           n_spins)
    return complex(zeta_out), cmath.exp(1j * angle)


def coherent_overlap(z1: complex, z2: complex, n_spins: int) -> complex:
    """<z1|z2> for two coherent labels; see :func:`amqc.branches.sphere_overlap`."""
    return complex(branches.sphere_overlap(complex(z1), complex(z2), n_spins))


def vacuum_return_infidelity(zeta_final, n_spins: int):
    """1 - |<0|zeta_final>|^2 = 1 - (1+|zeta|^2)^(-N), log-domain, elementwise."""
    return -np.expm1(-n_spins * np.log1p(np.abs(zeta_final) ** 2))


class LoopSolution(_Frozen):
    """Closing leg and per-spin geometric phase of the corrected rectangle.

    ``phi_t`` is the phase per spin; an ensemble of N spins acquires
    N * phi_t around the loop.
    """

    def __init__(self, eta: float, tau: float, phi_t: float):
        self.__dict__.update(eta=eta, tau=tau, phi_t=phi_t)


def loop_close(eta: float) -> LoopSolution:
    """Solve the curved-rectangle closure for legs (eta, i*tau, -tau, -i*eta).

    tau(eta) = (1 - eta^2 - sqrt(eta^4 - 6 eta^2 + 1)) / (2 eta), evaluated as
    2 eta / (1 - eta^2 + sqrt(...)) to avoid cancellation at small eta; the
    discriminant is nonnegative only for |eta| <= sqrt(2) - 1, beyond which
    (and for NaN) a :class:`LoopUnclosableError` is raised.  The phase per
    spin, phi_t = atan2(4 eta^2, (1 + eta^2) sqrt(...)) / 2, obeys
    sin(2 phi_t) = (2 eta / (1 - eta^2))^2 = tan(2a)^2 for eta = tan(a),
    which :func:`eta_for_phase` inverts.  eta = 0 returns the flat limit
    (tau = 0, phi_t = 0).  Recomposing the four legs with
    :func:`compose_on_origin` lands back on the origin to 1e-12.
    """
    eta = float(eta)
    if eta == 0.0:
        return LoopSolution(0.0, 0.0, 0.0)
    if not abs(eta) <= ETA_MAX + 1e-15:
        raise LoopUnclosableError(
            f"|eta| = {abs(eta):.6f} exceeds sqrt(2)-1 = {ETA_MAX:.6f}")
    root = math.sqrt(max(eta ** 4 - 6.0 * eta ** 2 + 1.0, 0.0))
    tau = 2.0 * eta / (1.0 - eta ** 2 + root)
    return LoopSolution(eta, tau, 0.5 * math.atan2(4.0 * eta ** 2,
                                                   (1.0 + eta ** 2) * root))


class SpinBranchState(_Record):
    """Register basis branches, each dragging one coherent label and amplitude.

    ``branches`` maps a register basis index (qubit 0 = most significant bit)
    to a (zeta, amplitude) pair; the joint state is
    sum_r amplitude_r |r> (x) |zeta_r>.  Register basis states of different
    branches are orthogonal, so the squared norm is sum |amplitude|^2 despite
    the coherent labels themselves overlapping.
    """

    def __init__(self, n_qubits: int, n_spins: int, branches: dict | None = None):
        self.n_qubits, self.n_spins = n_qubits, n_spins
        self.branches = {} if branches is None else branches

    @classmethod
    def from_register(cls, register: np.ndarray, n_spins: int,
                      zeta0: complex = 0.0) -> "SpinBranchState":
        register, n_qubits = branches._register_vector(register)
        _check_spins(n_spins)
        zeta0 = branches._finite_label(zeta0)
        return cls(n_qubits, n_spins, {r: (zeta0, complex(a))
                                       for r, a in enumerate(register) if a != 0})

    def total_norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for _, a in self.branches.values()))

    def residual_entanglement(self) -> float:
        z = np.array([z for z, _ in self.branches.values()], dtype=complex)
        amps = np.array([a for _, a in self.branches.values()], dtype=complex)
        return branches.grouped_residual(
            np.abs(amps) ** 2, z, lambda z1, z2: branches.sphere_overlap(z1, z2, self.n_spins))


def apply_controlled_spin(state: SpinBranchState, qubit: int,
                          zeta: complex) -> SpinBranchState:
    """Controlled displacement: bit 0 branches get D(+zeta), bit 1 D(-zeta).

    Labels, phases and the :class:`SingularCompositionError` for a branch
    driven to the south pole follow :func:`amqc.branches.sphere_step`; a
    non-finite ``zeta`` raises ValueError before any branch moves.
    """
    branches._check_qubit(qubit, state.n_qubits, "control")
    if not cmath.isfinite(zeta):
        raise ValueError(f"displacement {zeta!r} is not finite")
    rs = list(state.branches)
    z = np.array([z for z, _ in state.branches.values()], dtype=complex)
    amps = np.array([a for _, a in state.branches.values()], dtype=complex)
    bit = branches.register_bits(state.n_qubits)[rs, qubit]
    leg = np.where(bit == 0, complex(zeta), -complex(zeta))
    z, angle = branches.sphere_step(z, leg, state.n_spins)
    amps = amps * np.exp(1j * angle)
    return SpinBranchState(state.n_qubits, state.n_spins,
                           dict(zip(rs, zip(z.tolist(), amps.tolist()))))


def _check_spins(n_spins) -> None:
    """Refuse an ensemble size that is not a whole number of at least one."""
    try:
        whole = n_spins == int(n_spins)
    except (OverflowError, ValueError):   # inf, NaN
        whole = False
    if not whole:
        raise ValueError(f"ensemble size must be a whole number, got {n_spins!r}")
    if not n_spins >= 1:
        raise ValueError("need at least one spin")


def _sphere_walk(legs, n_spins: int, counts=1):
    """Walk every branch (or class of ``counts``) of the broadcast shape of ``legs``
    (arrays, one per step) from the origin; their final labels and unwrapped angles."""
    zeta = np.zeros(np.broadcast_shapes(*map(np.shape, legs)), dtype=complex)
    angle = np.zeros(zeta.shape)
    for leg in legs:
        zeta, step_angle = branches.sphere_step(zeta, leg, n_spins, counts)
        angle += step_angle
    return zeta, angle


def _sphere_report(zeta, angle, weights, n_spins: int, interaction_count: int):
    """GateReport of branches (or classes with these ``weights``) ending on
    labels ``zeta`` with phases ``angle``, and each one's return infidelity."""
    infid = vacuum_return_infidelity(zeta, n_spins)
    residual = branches.grouped_residual(
        weights, zeta, lambda z1, z2: branches.sphere_overlap(z1, z2, n_spins))
    # <0|zeta> = (1 + |zeta|^2)^(-N/2) = sqrt(1 - infidelity), real and positive.
    return diagonal_report(np.exp(1j * angle), np.sqrt(1.0 - infid), residual,
                           interaction_count), infid


def spin_two_qubit_gate(eta: float, n_spins: int) -> GateReport:
    """Run the corrected four-leg rectangle on two register qubits.

    The legs (eta on qubit 0, i*tau on qubit 1, -tau on qubit 0, -i*eta on
    qubit 1) close exactly for every branch, so the ancilla factors out with
    fidelity 1 and the register acquires exp(i*N*phi_t Z (x) Z).  Control bit
    0 displaces by +leg, bit 1 by -leg.  N must be a whole number.

    Limits: the branch phases +-N phi_t are doubles, so they carry an
    absolute round-off of about N phi_t 2^-53 that the fidelity does not
    show.  At eta = 0.1, against an 80-digit reference at the double 0.1,
    U00 is off by 5.6e-11 at N = 1e8, 1.0e-6 at 1e12, 4.6e-3 at 1e16 and
    1.1 at 1e18.  So no gate is kept once N |phi_t| 2^-52 exceeds
    DISENTANGLE_TOL: at eta = 0.1 (phi_t = 0.0204) from N of about 2.2e7.
    An eta from :func:`eta_for_phase` keeps N phi_t at its target, so its
    phases stay accurate and its gate is kept.  The walk's closing labels
    keep a round-off of about 1e-17, and the return infidelity grows as
    N |zeta|^2 (4e-15 at N = 1e20 and 4e-11 at N = 1e24 for eta = 0.1).
    """
    _check_spins(n_spins)
    sol = loop_close(eta)
    signs = 1.0 - 2.0 * branches.register_bits(2)
    legs = (signs[:, 0] * sol.eta, signs[:, 1] * (1j * sol.tau),
            signs[:, 0] * -sol.tau, signs[:, 1] * (-1j * sol.eta))
    report = _sphere_report(*_sphere_walk(legs, n_spins), np.full(4, 0.25), n_spins, 4)[0]
    if n_spins * abs(sol.phi_t) * 2.0 ** -52 > DISENTANGLE_TOL:
        report.gate = None    # phases that have lost their digits
    return report


def eta_for_phase(target_phi: float, n_spins: int) -> float:
    """The eta whose closed loop gives N * phi_t = target_phi, in closed form.

    Inverting sin(2 phi_t) = (2 eta / (1 - eta^2))^2 of :func:`loop_close`:
    t = sqrt(sin(2 target_phi / N)) is tan(2a) for eta = tan(a), so
    eta = t / (1 + sqrt(1 + t^2)), the root in (0, sqrt(2)-1].  N * phi_t
    rises monotonically from 0 to N * pi/4 on that interval; the top is
    taken as N * pi / 4 directly, which equals N * loop_close(ETA_MAX).phi_t
    bitwise (phi_t is pi/4 exactly there, and dividing by 4 is exact).
    """
    _check_spins(n_spins)
    top = n_spins * math.pi / 4
    if not 0.0 < target_phi <= top:
        raise ValueError(f"target phase {target_phi} outside reachable "
                         f"(0, {top}]")
    t = math.sqrt(math.sin(2.0 * target_phi / n_spins))
    return t / (1.0 + math.sqrt(1.0 + t * t))


class ErrorPoint(_Frozen):
    """Closed-form intrinsic errors of the uncorrected (flat) rectangle.

    For total displacement budget zeta_n split over the fan, each leg of the
    extremal branch is zeta_N = zeta_n / sqrt(2N):

    * ``phi_f``:       exact accumulated phase N*atan2(2 w, 1 + 2w - w^2),
                       w = zeta_N^2.
    * ``phi_E``:       fractional phase error (zeta_n^2 - phi_f) / zeta_n^2;
                       where w < 1 it is 2w - :func:`phi_series_defect` /
                       zeta_n^2, the same value without the cancellation.
    * ``infidelity``:  1 - (1 + 8 w^3 / (1+w)^4)^(-N), log-domain.
    * ``phi_series``:  first-order series zeta_n^2 - zeta_n^4 / N.
    * ``infid_series``: leading series term zeta_n^6 / N^2.

    Fields are Python numbers for a scalar (zeta_n, N), N an int when it is
    whole, and arrays of the broadcast shape otherwise.
    """

    def __init__(self, zeta_n, n_spins, phi_f, phi_E, infidelity, phi_series, infid_series):
        self.__dict__.update(zeta_n=zeta_n, n_spins=n_spins, phi_f=phi_f, phi_E=phi_E,
                             infidelity=infidelity, phi_series=phi_series,
                             infid_series=infid_series)


def fan_error(zeta_n, n_spins) -> ErrorPoint:
    """Evaluate the closed-form error formulas elementwise over (zeta_n, N).

    ``zeta_n`` and ``n_spins`` broadcast together; N is used as a double, so
    a Python int beyond int64 is fine.  Raises ValueError naming the first
    point where an output overflows: zeta_n^6 leaves double precision once
    zeta_n passes about 2e51.
    """
    defect = phi_series_defect(zeta_n, n_spins)   # refuses what is off the domain
    # [()] turns a 0-d array into a numpy scalar, whose arithmetic is cheaper.
    zeta = np.asarray(zeta_n, dtype=float)[()]
    n = np.asarray(n_spins, dtype=float)[()]
    with np.errstate(all="ignore"):
        z2 = zeta ** 2
        w = 0.5 * z2 / n   # not z2 / (2.0 * n): 2N overflows past about 9e307
        # arctan2, not arctan: the per-spin angle passes pi/2 once w > 1 + sqrt(2).
        phi_f = n * np.arctan2(2.0 * w, 1.0 + 2.0 * w - w * w)
        # zeta_n^2 - phi_f = zeta_n^4/N - defect, and zeta_n^2/N = 2w.
        phi_e = np.where(w < 1.0, 2.0 * w - defect / z2, (z2 - phi_f) / z2)
        columns = (phi_f, phi_e,
                   -np.expm1(-n * np.log1p(8.0 * w ** 3 / (1.0 + w) ** 4)),
                   z2 - zeta ** 4 / n, zeta ** 6 / n ** 2)
    finite = np.isfinite(phi_f)
    for column in columns[1:]:
        finite &= np.isfinite(column)
    if not finite.all():
        i = int(np.argmin(finite))
        z, m = (a.flat[i] for a in np.broadcast_arrays(zeta, n))
        raise ValueError(f"closed-form errors overflow double precision at "
                         f"zeta_n={z:.6g}, N={m:.6g}")
    if finite.ndim == 0:
        return ErrorPoint(float(zeta_n), _as_given(n_spins), *map(float, columns))
    return ErrorPoint(*np.broadcast_arrays(zeta, n), *columns)


def _as_given(n_spins):
    """A scalar ensemble size as the closed forms used it: an int when whole."""
    return int(n_spins) if n_spins == int(n_spins) else float(n_spins)


def phi_series_defect(zeta_n, n_spins):
    """phi_f minus its first-order series, free of catastrophic cancellation.

    Subtracting phi_series from phi_f directly loses everything below the
    double-precision resolution of phi_f itself (~1e-16 * zeta_n^2), which
    swamps the true O(zeta_n^6/N^2) defect at large N.  Rearranged exactly,
    with w = zeta_n^2/(2N) and g = 2w / (1 + 2w - w^2):

        phi_f - phi_series = N * [ (atan(g) - g) + (10 w^3 - 4 w^4)/(1 + 2w - w^2) ]

    where atan(g) - g is its series -g^3/3 + g^5/5 - ... for |g| < 0.1, and pi
    is added to atan(g) where 1 + 2w - w^2 < 0, the branch :func:`fan_error`
    takes.  Broadcasts (zeta_n, N) like :func:`fan_error`; scalars give a float.
    Its domain, zeta_n > 0 and any real N >= 1, is :func:`fan_error`'s too.
    """
    zeta = np.asarray(zeta_n, dtype=float)
    n = np.asarray(n_spins, dtype=float)
    if not (zeta > 0).all():
        raise ValueError("zeta_n must be positive")
    if not (n >= 1).all():   # any real N >= 1: the closed forms need no whole N
        raise ValueError("closed-form errors need N >= 1 spin")
    with np.errstate(all="ignore"):
        w = 0.5 * np.square(zeta) / n   # as in fan_error: 2N may overflow
        den = 1.0 + 2.0 * w - w * w
        g = 2.0 * w / den
        # Nine series terms: at |g| < 0.1 the first one dropped is < 2e-19 of the sum.
        atan_defect = np.where(np.abs(g) < 0.1, -g ** 3 * np.polyval(_ATAN_SERIES, -g * g),
                               np.arctan(g) - g) + np.pi * (den < 0.0)
        defect = n * (atan_defect + (10.0 * w ** 3 - 4.0 * w ** 4) / den)
    return float(defect) if defect.ndim == 0 else defect


class SpinFanReport(GateReport):
    """Branch-resolved outcome of a contracted fan sequence.

    ``branch_labels`` and ``branch_phases`` are arrays indexed by register
    index.  Phases are tracked as unwrapped angles (per-spin composition
    angles summed and scaled by N), so they can be compared against targets
    exceeding 2*pi.
    """

    def __init__(self, gate, ancilla_return_fidelity, residual_entanglement,
                 interaction_count, branch_labels, branch_phases, worst_phase_error,
                 worst_branch_infidelity, extremal_phase, extremal_label, rows=None):
        super().__init__(gate, ancilla_return_fidelity, residual_entanglement,
                         interaction_count, rows)
        self.branch_labels, self.branch_phases = branch_labels, branch_phases
        self.worst_phase_error = worst_phase_error
        self.worst_branch_infidelity = worst_branch_infidelity
        self.extremal_phase, self.extremal_label = extremal_phase, extremal_label


def fan_sequence_simulate(xs, ps, n_spins: int) -> SpinFanReport:
    """Simulate the 2(n+m) fan with displacements scaled by 1/sqrt(2N), in
    the block model.

    Controls are qubits 0..n-1 (real legs +-x_k / sqrt(2N)), targets qubits
    n..n+m-1 (imaginary legs +-i p_j / sqrt(2N)).  Each quadrature block is
    summed into one leg before the walk: branch r runs the four-leg
    rectangle X(r)/sqrt(2N), i P(r)/sqrt(2N), -X(r)/sqrt(2N), -i P(r)/sqrt(2N)
    on the sphere, where X(r), P(r) are the sign-weighted coefficient sums of
    that branch, summed once per side.  Branches with equal sums share a
    label class, walked once on the grid of the sides' distinct sums and
    weighed by its share of branches, then gathered (controls high).  This is
    not the walk of the 2(n+m) per-qubit legs: legs along one axis of the
    sphere add their angles, not their labels, so the per-qubit walk's phases
    differ at the order of the intrinsic error.  The flat-space target phase
    per branch is X(r) * P(r), i.e. the gate prod_j prod_k exp(i x_k p_j Z_k (x) Z_j).

    The all-zeros branch is the extremal one (largest displacement for
    positive coefficients); its phase and final label reproduce the
    closed-form values of :func:`fan_error` exactly.  N must be a whole
    number.
    """
    xs, ps = [float(v) for v in xs], [float(v) for v in ps]
    steps = branches.fan_steps(xs, ps)
    _check_spins(n_spins)
    if not all(map(math.isfinite, xs + ps)):
        raise ValueError("fan coefficients must be finite")
    scale = 0.5 / math.sqrt(0.5 * n_spins)   # 1/sqrt(2N), where 2N may overflow

    # Each side's sums s_0 v_0 + s_1 v_1 + ..., qubit 0 the high bit, s = +-1.
    (x_net, x_at), (p_net, p_at) = (np.unique(functools.reduce(
        lambda sums, v: (sums[:, None] + [v, -v]).ravel(), vs, np.zeros(1)), return_inverse=True)
        for vs in (xs, ps))
    x_net, counts = x_net[:, None], np.bincount(x_at)[:, None] * np.bincount(p_at)   # controls down
    zeta, angle = _sphere_walk(
        (scale * x_net, 1j * scale * p_net, -scale * x_net, -1j * scale * p_net), n_spins, counts)
    report, infid = _sphere_report(zeta.ravel(), angle.ravel(), counts.ravel() / counts.sum(),
                                   n_spins, len(steps))
    err = np.abs((angle - x_net * p_net + math.pi) % (2.0 * math.pi) - math.pi)
    branch = (x_at[:, None] * p_net.size + p_at).ravel()   # each branch's class
    report.gate = None if report.gate is None else report.gate.take(branch)
    zeta, angle = zeta.take(branch), angle.take(branch)
    return SpinFanReport(**vars(report), branch_labels=zeta, branch_phases=angle,
                         worst_phase_error=float(err.max()),
                         worst_branch_infidelity=float(infid.max()),
                         extremal_phase=float(angle[0]), extremal_label=complex(zeta[0]))


class ContractionRow(_Frozen):
    def __init__(self, n_spins: float, phi_f: float, abs_err_phi: float, overlap: float,
                 abs_err_overlap: float, prefactor: float):
        self.__dict__.update(n_spins=n_spins, phi_f=phi_f, abs_err_phi=abs_err_phi,
                             overlap=overlap, abs_err_overlap=abs_err_overlap,
                             prefactor=prefactor)


def contraction_probe(zeta: complex, n_list) -> list[ContractionRow]:
    """Large-N convergence table toward the flat field-mode algebra.

    For each N: the rectangle phase phi_f built from legs |zeta|/sqrt(2N)
    (target |zeta|^2, error falling off as 1/N), the squared vacuum overlap
    |<0|zeta/sqrt(2N)>|^2 (target e^{-|zeta|^2/2}), and the rotation-angle
    prefactor atan(u)/u with u = |zeta|/sqrt(2N), which increases to 1.
    """
    mag = abs(complex(zeta))
    n = np.asarray(n_list, dtype=float)
    point = fan_error(mag, n)
    u = 0.5 * mag / np.sqrt(0.5 * n)   # |zeta|/sqrt(2N), where 2N may overflow
    v = u * u
    overlap, limit = np.exp(-n * np.log1p(v)), math.exp(-mag ** 2 / 2.0)
    # phi_f - |zeta|^2 = defect - |zeta|^4/N, free of cancellation while w = |zeta|^2/(2N) < 1.
    err_phi = np.where(0.5 * mag ** 2 / n < 1.0, np.abs(mag ** 4 / n - phi_series_defect(mag, n)),
                       np.abs(point.phi_f - mag ** 2))
    # overlap - limit = limit * expm1(N (v - log1p(v))) cancels nothing
    # while the exponent is below 1; each where's unused branch may overflow.
    with np.errstate(all="ignore"):
        excess = n * np.where(v < 0.1, v * v * np.polyval(_LOG1P_SERIES, v), v - np.log1p(v))
        err_overlap = np.where(excess < 1.0, limit * np.expm1(excess), np.abs(overlap - limit))
    columns = (point.phi_f, err_phi, overlap, err_overlap, np.arctan(u) / u)
    return [ContractionRow(_as_given(n_spins), *values) for n_spins, *values
            in zip(n_list, *(c.tolist() for c in columns))]


def fitted_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


def collective_operator(single: np.ndarray, n_spins: int) -> np.ndarray:
    """One single-spin operator summed over every spin: J = sum_j I_(2^j) (x) op (x) I_(...)."""
    return sum(kron(identity(2 ** j), single, identity(2 ** (n_spins - 1 - j)))
               for j in range(n_spins))


def _exp_i(hermitian: np.ndarray, t: float) -> np.ndarray:
    """exp(i t H) of a Hermitian H, from its eigendecomposition."""
    w, v = np.linalg.eigh(hermitian)
    return (v * np.exp(1j * t * w)) @ v.conj().T


def spin_generator_check(theta: float, phi: float, n_spins: int) -> float:
    """Deviation of the controlled displacement from its Hamiltonian generator.

    Dense check on 2^(N+1) amplitudes, so N <= 8.  Two identities are
    evaluated and the larger deviation returned:

    1. exp(i (theta/2) Z (x) (sin(phi) J_x - cos(phi) J_y)) equals the
       controlled pair C(D_N(theta, phi), D_N(-theta, phi)) up to global
       phase, with J_mu the plain Pauli sums (so [J_x, J_y] = 2i J_z).
    2. U^dag exp(i theta J_x) U = exp(i theta J_y) with U the tensor power of
       R(pi/2) H, showing one interaction axis suffices.

    Per spin, D_1(theta, phi) = cos(theta/2) I + i sin(theta/2) n.sigma; the
    collective exponentials come from eigendecompositions of the generators.
    """
    _check_spins(n_spins)
    n_spins = int(n_spins)   # _check_spins admits a whole float; range() needs an int
    if n_spins > 8:
        raise ValueError(f"dense generator check limited to 8 spins, got {n_spins}")
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError(f"generator check needs finite angles, got theta={theta!r}, phi={phi!r}")
    jx = collective_operator(PAULI_X, n_spins)
    jy = collective_operator(PAULI_Y, n_spins)
    axis = math.sin(phi) * PAULI_X - math.cos(phi) * PAULI_Y
    d_plus = kron(*[math.cos(theta / 2.0) * identity(2)
                    + 1j * math.sin(theta / 2.0) * axis] * n_spins)
    # Z (x) A is block diagonal, and each -theta block is the +theta block's adjoint.
    block = _exp_i(math.sin(phi) * jx - math.cos(phi) * jy, theta / 2.0)
    dist1 = phase_distance(controlled(block, block.conj().T),
                           controlled(d_plus, d_plus.conj().T))
    u = kron(*[phase_gate(math.pi / 2.0) @ HADAMARD] * n_spins)
    conjugated = u.conj().T @ _exp_i(jx, theta) @ u
    return max(dist1, float(np.abs(conjugated - _exp_i(jy, theta)).max()))
