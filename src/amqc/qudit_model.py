"""Sequences, gate extraction and the dense simulator of the qudit-bus model.

A register of n qubits talks to a single d-level ancilla only through
controlled displacements.  :func:`extract_register_gate` never builds the
joint state of one input at a time: a displacement-only sequence runs on the
branch engine, and any other sequence runs every basis input in one batch
over just the register rows a projected gate lets it reach.  The dense
:class:`HybridState` (a vector over 2^n * d amplitudes, qubit-major,
ancilla-minor: index = register_bits * d + ancilla_level, with qubit 0 the
most significant register bit) with :func:`apply_element` and
:func:`run_sequence` is the reference simulator the extraction is tested
against.

Sequences are lists of elements in application order.  Besides controlled
displacements two special elements exist: a gate on a register qubit projected
on one ancilla level (the one non-displacement primitive needed for the
generalized Toffoli) and rotations of the ancilla, optionally controlled by a
register qubit.

Two control polarities are implemented:

* ``APPLY_ON_ONE``: |0><0| x I + |1><1| x D(x, p)
* ``SYMMETRIC``:    |0><0| x D(x, p) + |1><1| x D(-x, -p)

The rectangle loops of the two polarities produce register gates that agree
up to local phase rotations once the labels are matched as
symmetric(x, p) <-> apply-on-one(2x, 2p); with identical labels they generally
do not (symmetric branches separate twice as fast).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .branches import register_bits, torus_gate
from .linalg import largest_schmidt_weight
from .qudit import HALF_ROOT, LatticeLabel, displacement, rotation
from .report import GateReport, diagonal_report, gate_exists

APPLY_ON_ONE = "apply-on-one"
SYMMETRIC = "symmetric"
POLARITIES = (APPLY_ON_ONE, SYMMETRIC)


@dataclass(frozen=True)
class Interaction:
    """One controlled displacement of the ancilla by a register qubit."""

    qubit: int
    label: LatticeLabel
    polarity: str = APPLY_ON_ONE

    def __post_init__(self):
        if self.polarity not in POLARITIES:
            raise ValueError(f"unknown polarity {self.polarity!r}")


@dataclass(frozen=True)
class AncillaProjectedGate:
    """Apply ``gate`` to register qubit ``target`` iff the ancilla sits in
    position level ``level``; the identity on every other ancilla level."""

    target: int
    level: int
    gate: np.ndarray = field(compare=False)


@dataclass(frozen=True)
class ControlledAncillaRotation:
    """Rotation diag(e^{i*n*theta}) of the ancilla, controlled by a qubit."""

    control: int
    theta: float


@dataclass(frozen=True)
class LocalAncillaRotation:
    """Uncontrolled rotation diag(e^{i*n*theta}) of the ancilla."""

    theta: float


@dataclass
class InteractionSequence:
    """Ordered elements (first applied first) on a fixed (n_qubits, d) layout."""

    n_qubits: int
    d: int
    elements: list

    def __len__(self) -> int:
        return len(self.elements)


@dataclass
class HybridState:
    """Dense register (x) ancilla state vector."""

    n_qubits: int
    d: int
    amplitudes: np.ndarray

    @classmethod
    def from_product(cls, n_qubits: int, register: np.ndarray,
                     ancilla: np.ndarray) -> "HybridState":
        register = np.asarray(register, dtype=complex)
        ancilla = np.asarray(ancilla, dtype=complex)
        if register.shape != (2 ** n_qubits,):
            raise ValueError("register vector has wrong dimension")
        return cls(n_qubits, ancilla.shape[0], np.kron(register, ancilla))

    @classmethod
    def basis(cls, n_qubits: int, register_index: int,
              ancilla: np.ndarray) -> "HybridState":
        reg = np.zeros(2 ** n_qubits, dtype=complex)
        reg[register_index] = 1.0
        return cls.from_product(n_qubits, reg, ancilla)

    def as_matrix(self) -> np.ndarray:
        """View amplitudes as a (2^n, d) register-by-ancilla matrix."""
        return self.amplitudes.reshape(2 ** self.n_qubits, self.d)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _check_qubit(qubit: int, n_qubits: int, role: str) -> None:
    if not 0 <= qubit < n_qubits:
        raise ValueError(f"{role} qubit {qubit} out of range for {n_qubits} qubits")


def _check_interaction(element: Interaction, n_qubits: int, d: int) -> None:
    if element.label.d != d:
        raise ValueError("interaction label dimension does not match state")
    _check_qubit(element.qubit, n_qubits, "interaction")


def apply_element(state: HybridState, element, convention: str = HALF_ROOT) -> HybridState:
    """Apply one sequence element; returns a new HybridState."""
    amps = state.as_matrix().copy()
    n, d = state.n_qubits, state.d

    if isinstance(element, Interaction):
        _check_interaction(element, n, d)
        mask = register_bits(n)[:, element.qubit] == 1
        dm = displacement(d, element.label.x, element.label.p, convention)
        if element.polarity == APPLY_ON_ONE:
            amps[mask] = amps[mask] @ dm.T
        else:
            dm_neg = displacement(d, -element.label.x, -element.label.p, convention)
            amps[~mask] = amps[~mask] @ dm.T
            amps[mask] = amps[mask] @ dm_neg.T
    elif isinstance(element, AncillaProjectedGate):
        u = np.asarray(element.gate, dtype=complex)
        col = amps[:, element.level].reshape(
            2 ** element.target, 2, 2 ** (n - 1 - element.target))
        amps[:, element.level] = np.einsum("ab,ibj->iaj", u, col).reshape(-1)
    elif isinstance(element, ControlledAncillaRotation):
        mask = register_bits(n)[:, element.control] == 1
        amps[mask] = amps[mask] * np.exp(1j * element.theta * np.arange(d))
    elif isinstance(element, LocalAncillaRotation):
        amps = amps * np.exp(1j * element.theta * np.arange(d))
    else:
        raise TypeError(f"unknown sequence element {element!r}")

    return HybridState(n, d, amps.reshape(-1))


def run_sequence(seq: InteractionSequence, state: HybridState,
                 convention: str = HALF_ROOT) -> HybridState:
    for element in seq.elements:
        state = apply_element(state, element, convention)
    return state


def _reachable_rows(n_qubits: int, mixed: list[int]) -> np.ndarray:
    """rows[o, c]: the register index whose ``mixed`` qubits read c and whose
    other qubits read o, both most significant bit first."""
    others = [q for q in range(n_qubits) if q not in mixed]
    weight = 1 << (n_qubits - 1 - np.arange(n_qubits))
    return (register_bits(len(others)) @ weight[others])[:, None] + \
        register_bits(len(mixed)) @ weight[mixed]


def _propagate_rows(seq: InteractionSequence, anc_init: np.ndarray,
                    convention: str) -> tuple[np.ndarray, np.ndarray]:
    """Run every register basis input at once over the rows it can reach.

    Only a projected gate mixes register rows, and only on the bit of its
    target; with k distinct such targets (the mixed qubits) input i reaches
    the 2^k rows that agree with i on every other qubit.  Returns
    (rows, amps): ``amps[o, a, c]`` is the ancilla vector on register row
    ``rows[o, c]`` for the input ``rows[o, a]``.
    """
    n, d = seq.n_qubits, seq.d
    mixed = sorted({e.target for e in seq.elements if isinstance(e, AncillaProjectedGate)})
    for target in mixed:
        _check_qubit(target, n, "projected gate target")
    rows = _reachable_rows(n, mixed)
    bits = register_bits(n)[rows][:, None]           # [o, 1, c, qubit]
    span = 2 ** len(mixed)
    amps = np.zeros((len(rows), span, span, d), dtype=complex)
    amps[:, np.arange(span), np.arange(span)] = anc_init

    built = {}                                       # (x, p) -> D(x, p)
    for element in seq.elements:
        if isinstance(element, Interaction):
            _check_interaction(element, n, d)
            key = (element.label.x, element.label.p)
            if key not in built:
                built[key] = displacement(d, *key, convention)
            dm = built[key]
            one = np.broadcast_to(bits[..., element.qubit] == 1, amps.shape[:-1])
            if element.polarity == APPLY_ON_ONE:
                amps[one] = amps[one] @ dm.T
            else:
                # D(-x, -p) = D(x, p)^dagger under both conventions.
                amps[~one] = amps[~one] @ dm.T
                amps[one] = amps[one] @ dm.conj()
        elif isinstance(element, AncillaProjectedGate):
            j = mixed.index(element.target)
            col = amps[..., element.level].reshape(
                amps.shape[:2] + (2 ** j, 2, span // 2 ** (j + 1)))
            amps[..., element.level] = np.einsum(
                "ab,oixbj->oixaj", np.asarray(element.gate, dtype=complex),
                col).reshape(amps.shape[:-1])
        elif isinstance(element, ControlledAncillaRotation):
            _check_qubit(element.control, n, "rotation control")
            phase = np.exp(1j * element.theta * np.arange(d))
            amps *= np.where(bits[..., element.control, None] == 1, phase, 1.0)
        elif isinstance(element, LocalAncillaRotation):
            amps *= np.exp(1j * element.theta * np.arange(d))
        else:
            raise TypeError(f"unknown sequence element {element!r}")
    return rows, amps


def extract_register_gate(seq: InteractionSequence, anc_init: np.ndarray | None = None,
                          convention: str = HALF_ROOT) -> GateReport:
    """Run a sequence on every register basis state and extract the gate.

    Each basis state (and, as an entanglement witness, the uniform register
    superposition) is propagated with the ancilla starting in ``anc_init``
    (default: position level |0>_x; a unit vector, else ValueError).  The
    worst-case ancilla return fidelity and residual entanglement are always
    reported, and the register unitary only when both the residual and 1 -
    fidelity are below ``DISENTANGLE_TOL`` (:func:`amqc.report.gate_exists`):
    every output factorises with the ancilla back in ``anc_init`` up to
    phase.  Non-disentangling sequences are reported, never rejected.

    A sequence of interactions only runs on the branch engine
    (:func:`amqc.branches.torus_gate`, which groups branches into label
    classes).  Any other sequence runs all basis inputs in one batch, each
    over just the register rows it can reach (:func:`_propagate_rows`), and
    gets the uniform input's output by linearity as the sum of theirs.
    """
    n, d = seq.n_qubits, seq.d
    if anc_init is None:
        anc_init = np.zeros(d, dtype=complex)
        anc_init[0] = 1.0
    anc_init = np.asarray(anc_init, dtype=complex)
    if anc_init.shape != (d,):
        raise ValueError("ancilla initial state has wrong dimension")
    if abs(math.sqrt(np.vdot(anc_init, anc_init).real) - 1.0) > 1e-12:
        raise ValueError("ancilla initial state is not normalised")

    dim_reg = 2 ** n
    if all(isinstance(e, Interaction) for e in seq.elements):
        for element in seq.elements:
            _check_interaction(element, n, d)
        # Basis inputs stay product states, so the uniform input's residual is
        # the worst, and its fidelity is the mean of the basis ones.
        return diagonal_report(*torus_gate(
            n, d, [(e.qubit, e.label.x, e.label.p, e.polarity == SYMMETRIC)
                   for e in seq.elements], anc_init, convention), len(seq.elements))

    rows, amps = _propagate_rows(seq, anc_init, convention)
    returned = amps @ np.conj(anc_init)                  # [o, a, c]
    # Rows an input cannot reach are zero, so its Schmidt weight is that of
    # its (2^k, d) block; the uniform input's rows are in (o, c) order.
    weights = np.linalg.svd(amps.reshape(dim_reg, -1, d), compute_uv=False)[:, 0] ** 2
    uniform = amps.sum(axis=1).reshape(dim_reg, d) / np.sqrt(dim_reg)
    residual = max(0.0, float(np.max(1.0 - weights)),
                   1.0 - largest_schmidt_weight(uniform))
    fidelity = min(1.0, float(np.min(np.sum(np.abs(returned) ** 2, axis=-1))),
                   float(np.linalg.norm(uniform @ np.conj(anc_init)) ** 2))
    unitary = None
    if gate_exists(fidelity, residual):
        unitary = np.zeros((dim_reg, dim_reg), dtype=complex)
        unitary[rows[:, None, :], rows[:, :, None]] = returned
    return GateReport(unitary, fidelity, residual, len(seq.elements))


# ----------------------------------------------------------------------------
# sequence builders
# ----------------------------------------------------------------------------

def two_qubit_sequence(j: int, k: int, x: int, p: int, d: int,
                       n_qubits: int | None = None,
                       polarity: str = APPLY_ON_ONE) -> InteractionSequence:
    """Four-interaction rectangle giving a controlled phase between qubits j, k.

    With apply-on-one polarity the extracted gate is C^j_k R(2*pi*x*p/d),
    entangling iff x*p is not a multiple of d, for any ancilla initial state.
    """
    if j == k:
        raise ValueError("control and target must differ")
    if n_qubits is None:
        n_qubits = max(j, k) + 1
    lab = lambda xx, pp: LatticeLabel(xx, pp, d)
    elements = [
        Interaction(j, lab(x, 0), polarity),
        Interaction(k, lab(0, p), polarity),
        Interaction(j, lab(-x, 0), polarity),
        Interaction(k, lab(0, -p), polarity),
    ]
    return InteractionSequence(n_qubits, d, elements)


def fan_one_target(xs, p: int, d: int, polarity: str = APPLY_ON_ONE) -> InteractionSequence:
    """2(n+1) interactions implementing prod_k C^k_t R(2*pi*x_k*p/d).

    Controls are qubits 0..n-1, the target is qubit n.  A per-gate
    construction would need 4n interactions.
    """
    return fan_bipartite(xs, [p], d, polarity)


def fan_bipartite(xs, ps, d: int, polarity: str = APPLY_ON_ONE) -> InteractionSequence:
    """2(n+m) interactions implementing all n*m controlled rotations.

    Controls are qubits 0..n-1 with position displacements x_k, targets are
    qubits n..n+m-1 with momentum displacements p_j; the register gate is
    prod_j prod_k C^k_j R(2*pi*x_k*p_j/d).  Per-gate construction: 4nm.
    """
    xs, ps = list(xs), list(ps)
    n, m = len(xs), len(ps)
    if n < 1 or m < 1:
        raise ValueError("need at least one control and one target")
    lab = lambda xx, pp: LatticeLabel(xx, pp, d)
    elements = [Interaction(k, lab(xk, 0), polarity) for k, xk in enumerate(xs)]
    elements += [Interaction(n + j, lab(0, pj), polarity) for j, pj in enumerate(ps)]
    elements += [Interaction(k, lab(-xk, 0), polarity) for k, xk in enumerate(xs)]
    elements += [Interaction(n + j, lab(0, -pj), polarity) for j, pj in enumerate(ps)]
    return InteractionSequence(n + m, d, elements)


def generalized_toffoli(n: int, u: np.ndarray, d: int) -> InteractionSequence:
    """Apply ``u`` to a target qubit iff all n control qubits are 1.

    The controls each displace the ancilla (started in |0>_x) by one position
    step, counting the number of 1-controls into orthogonal ancilla levels; a
    gate projected on level n then fires exactly on the all-ones subspace and
    the displacements are undone.  Needs d > n so the count cannot wrap.
    """
    if d <= n:
        raise ValueError(f"ancilla dimension {d} too small to count {n} "
                         f"controls without wraparound")
    lab = lambda xx: LatticeLabel(xx, 0, d)
    elements = [Interaction(k, lab(1)) for k in range(n)]
    elements.append(AncillaProjectedGate(target=n, level=n % d,
                                         gate=np.asarray(u, dtype=complex)))
    elements += [Interaction(k, lab(-1)) for k in range(n)]
    return InteractionSequence(n + 1, d, elements)


def mod_d_phase_gate(theta: float, n: int, d: int) -> InteractionSequence:
    """Phase e^{i*theta*((q_1+...+q_n) mod d)*q_t} on n controls and target t.

    2n+1 elements with the ancilla started in |0>_x.  For n < d the modular
    sum never wraps and the gate coincides with prod_k C^k_t R(theta).
    """
    if n < 1:
        raise ValueError("need at least one control")
    lab = lambda xx: LatticeLabel(xx, 0, d)
    elements = [Interaction(k, lab(1)) for k in range(n)]
    elements.append(ControlledAncillaRotation(control=n, theta=theta))
    elements += [Interaction(k, lab(-1)) for k in range(n)]
    return InteractionSequence(n + 1, d, elements)


def single_pair_arbitrary_rotation(theta: float, d: int) -> InteractionSequence:
    """C^0_1 R(theta) for arbitrary real theta via one ancilla rotation.

    Pure displacement loops only reach the d integer powers of omega_d; with
    one qubit-controlled ancilla rotation any phase is reachable (the ancilla
    must start in |0>_x).
    """
    lab = lambda xx: LatticeLabel(xx, 0, d)
    return InteractionSequence(2, d, [
        Interaction(0, lab(1)),
        ControlledAncillaRotation(control=1, theta=theta),
        Interaction(0, lab(-1)),
    ])


def spin_z_operator(d: int) -> np.ndarray:
    """Effective z-spin diag(s, s-1, ..., -s) with s = (d-1)/2."""
    s = (d - 1) / 2.0
    return np.diag(s - np.arange(d)).astype(complex)


def hamiltonian_generator_check(theta: float, d: int) -> float:
    """Deviation of the displacement interaction from its Hamiltonian generator.

    Checks two identities and returns the larger deviation:

    1. exp(-i*theta * Z (x) S_z) equals (e^{-i*theta*s} Z-phase (x) I) times
       C(R_d(theta), R_d(-theta)) -- the local qubit phase is the only
       difference, so the comparison is made with a phase-blind metric.
    2. C(R_d(theta), R_d(-theta)) * (I (x) R_d(-theta)) = C(I, R_d(-2*theta)),
       the route from the generated interaction to a momentum displacement:
       theta = -pi*p/d turns the right side into the apply-on-one interaction
       with label (0, p).
    """
    from .linalg import controlled, identity, phase_distance

    sz = spin_z_operator(d)
    s = (d - 1) / 2.0
    # Z (x) S_z is diagonal, so its exponential is elementwise.
    zdiag = np.array([1.0, -1.0])
    gen = np.kron(zdiag, np.diag(sz).real)
    target = np.diag(np.exp(-1j * theta * gen))

    local = np.kron(np.diag([np.exp(-1j * theta * s), np.exp(1j * theta * s)]),
                    identity(d))
    built = local @ controlled(rotation(d, theta), rotation(d, -theta))
    dist1 = phase_distance(target, built)

    lhs = controlled(rotation(d, theta), rotation(d, -theta)) @ \
        np.kron(identity(2), rotation(d, -theta))
    rhs = controlled(identity(d), rotation(d, -2 * theta))
    dist2 = phase_distance(lhs, rhs)
    return max(dist1, dist2)
