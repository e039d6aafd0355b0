"""Sequences, gate extraction and the dense simulator of the qudit-bus model.

A register of n qubits talks to a single d-level ancilla only through
controlled displacements.  :func:`extract_register_gate` never builds the
joint state of one input at a time: a displacement-only sequence runs on the
branch engine, and any other sequence on label classes of register row blocks
(:func:`_class_gate`), however large 2^n is.  The dense :class:`HybridState`
(a vector over 2^n * d amplitudes, qubit-major, ancilla-minor: index =
register_bits * d + ancilla_level, with qubit 0 the most significant register
bit) with :func:`apply_element` and :func:`run_sequence` is the reference
simulator the extraction is tested against.

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

import functools
import math
from typing import NamedTuple

import numpy as np

from .branches import (_check_qubit, _numbered, _phase_polynomial, _quadratic,
                       _register_vector, fan_steps, register_bits, torus_gate)
from .linalg import is_unitary, kron, largest_schmidt_weight
from .qudit import (HALF_ROOT, _check_dimension, _check_label, _integer, _phase_unit, _roots,
                    displacement, rotation)
from .report import GateReport, _Frozen, _Record, diagonal_report, gate_exists

APPLY_ON_ONE = "apply-on-one"
SYMMETRIC = "symmetric"
POLARITIES = (APPLY_ON_ONE, SYMMETRIC)


class Interaction(NamedTuple):
    """One controlled displacement D(x, p) of the ancilla by a register
    qubit.  The labels are integers of any size: the sequence holds d, and
    only x and p mod 2d matter."""

    qubit: int
    x: int
    p: int
    polarity: str = APPLY_ON_ONE


class AncillaProjectedGate(_Frozen):
    """Apply ``gate`` to register qubit ``target`` iff the ancilla sits in
    position level ``level``; the identity on every other ancilla level."""

    def __init__(self, target: int, level: int, gate: np.ndarray):
        self.__dict__.update(target=target, level=level, gate=gate)

    def _key(self) -> tuple:
        return self.target, self.level   # the gate takes no part in == and hash


class ControlledAncillaRotation(_Frozen):
    """Rotation diag(e^{i*n*theta}) of the ancilla, controlled by a qubit."""

    def __init__(self, control: int, theta: float):
        self.__dict__.update(control=control, theta=theta)


class LocalAncillaRotation(_Frozen):
    """Uncontrolled rotation diag(e^{i*n*theta}) of the ancilla."""

    def __init__(self, theta: float):
        self.__dict__.update(theta=theta)


def _check_qubit_count(n_qubits) -> None:
    if not (_integer(n_qubits) and n_qubits >= 0):
        raise ValueError(f"qubit count must be an integer >= 0, got {n_qubits!r}")


class InteractionSequence(_Frozen):
    """Ordered elements (first applied first) on an (n_qubits, d) layout checked when built."""

    def __init__(self, n_qubits: int, d: int, elements: list):
        _check_qubit_count(n_qubits)
        _check_dimension(d)
        self.__dict__.update(n_qubits=n_qubits, d=d, elements=elements)

    def __len__(self) -> int:
        return len(self.elements)


class HybridState(_Record):
    """Dense register (x) ancilla state vector."""

    def __init__(self, n_qubits: int, d: int, amplitudes: np.ndarray):
        self.n_qubits, self.d, self.amplitudes = n_qubits, d, amplitudes

    @classmethod
    def from_product(cls, n_qubits: int, register: np.ndarray,
                     ancilla: np.ndarray) -> "HybridState":
        register, n_qubits = _register_vector(register, n_qubits)
        return cls(n_qubits, len(ancilla), kron(register, ancilla))

    @classmethod
    def basis(cls, n_qubits: int, register_index: int,
              ancilla: np.ndarray) -> "HybridState":
        _check_qubit_count(n_qubits)
        if not (_integer(register_index) and 0 <= register_index < 2 ** n_qubits):
            raise ValueError(f"register index {register_index!r} out of range: need an "
                             f"integer in range(2^{n_qubits})")
        reg = np.zeros(2 ** n_qubits, dtype=complex)
        reg[register_index] = 1.0
        return cls.from_product(n_qubits, reg, ancilla)

    def as_matrix(self) -> np.ndarray:
        """View amplitudes as a (2^n, d) register-by-ancilla matrix."""
        return self.amplitudes.reshape(2 ** self.n_qubits, self.d)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _check_element(element, n_qubits: int, d: int):
    """ValueError unless ``element`` can act on n_qubits and a d-level
    ancilla; TypeError for anything that is not a sequence element.  Returns
    an interaction's branch-engine step (qubit, x, p, symmetric), its labels
    as Python integers, else None."""
    if isinstance(element, Interaction):
        qubit, x, p, polarity = element
        if polarity not in POLARITIES:
            raise ValueError(f"unknown polarity {polarity!r}")
        _check_label(x, p, "interaction")
        _check_qubit(qubit, n_qubits, "interaction")
        return qubit, int(x), int(p), polarity == SYMMETRIC
    elif isinstance(element, AncillaProjectedGate):
        _check_qubit(element.target, n_qubits, "projected gate target")
        if not (_integer(element.level) and 0 <= element.level < d):
            raise ValueError(f"projected gate level {element.level!r} is not an "
                             f"ancilla level in range({d})")
        # is_unitary is False for a NaN or infinite entry.
        gate = np.asarray(element.gate, dtype=complex)
        if gate.shape != (2, 2) or not is_unitary(gate):
            raise ValueError("projected gate is not a finite 2x2 unitary")
    elif isinstance(element, (ControlledAncillaRotation, LocalAncillaRotation)):
        if isinstance(element, ControlledAncillaRotation):
            _check_qubit(element.control, n_qubits, "rotation control")
        if not math.isfinite(element.theta):
            raise ValueError(f"ancilla rotation angle {element.theta!r} is not finite")
    else:
        raise TypeError(f"unknown sequence element {element!r}")
    return None


def apply_element(state: HybridState, element, convention: str = HALF_ROOT) -> HybridState:
    """Apply one sequence element; returns a new HybridState.  Refuses the
    elements :func:`extract_register_gate` refuses (:func:`_check_element`)."""
    amps = state.as_matrix().copy()
    n, d = state.n_qubits, state.d
    _check_element(element, n, d)

    if isinstance(element, Interaction):
        mask = register_bits(n)[:, element.qubit] == 1
        dm = displacement(d, element.x, element.p, convention)
        if element.polarity == APPLY_ON_ONE:
            amps[mask] = amps[mask] @ dm.T
        else:
            dm_neg = displacement(d, -element.x, -element.p, convention)
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
    else:
        amps = amps * np.exp(1j * element.theta * np.arange(d))

    return HybridState(n, d, amps.reshape(-1))


def run_sequence(seq: InteractionSequence, state: HybridState,
                 convention: str = HALF_ROOT) -> HybridState:
    for element in seq.elements:
        state = apply_element(state, element, convention)
    return state


def _class_gate(seq: InteractionSequence, steps: list, anc_init: np.ndarray,
                convention: str):
    """Propagate a sequence with projected gates or ancilla rotations over
    label classes of register row blocks; ``steps`` are
    :func:`_check_element`'s results for its elements.

    Only a projected gate mixes register rows, and only on the bit of its
    target; with k distinct targets (the mixed qubits, bits c) basis input
    (o, a) reaches the 2^k rows (o, c), o being the other qubits' bits.  Cut
    at its other elements, the sequence is displacement-only segments, and
    segment s takes row (o, c) to exp(i pi k_s/d) D(X_s, P_s) times its input
    (:func:`amqc.branches.torus_gate`).  So block o's (2^k, 2^k, d) outputs
    are fixed, up to the phase exp(i pi sum_s k_s(o, 0)/d), by its key: every
    segment's (X_s, P_s) mod d and k_s(o, c) - k_s(o, 0) mod 2d per c, and
    each rotation's control bit.  The key is affine in o's bits: each other
    qubit adds its key step, so blocks are numbered into classes by the
    qubits' class moves (:func:`amqc.branches._numbered`) in the order they
    meet their keys, each distinct key step mapping each key once for every
    qubit with that step (a Toffoli's n controls share one), and one
    (classes, 2^k, 2^k, d) tensor runs the elements.  sum_s k_s(o, 0) is one
    :func:`amqc.branches._quadratic` form; block o's register rows come from
    transposing the register's bit axes.

    Returns (rows, index, exponent, returned, fidelity, residual): block o
    holds register rows rows[o, c], is class index[o] and has phase exponent
    exponent[o]; ``returned[j, a, c]`` is the overlap with ``anc_init`` of
    class j's output on row c for input a; the fidelity and residual are
    the worst of every basis input and the uniform superposition.
    """
    n, d, unit = seq.n_qubits, seq.d, _phase_unit(seq.d, convention)
    mixed = sorted({e.target for e in seq.elements if isinstance(e, AncillaProjectedGate)})
    others = [q for q in range(n) if q not in mixed]
    span = 2 ** len(mixed)
    c_bits = register_bits(len(mixed)).tolist()
    # A key column is an affine form's coefficients on the other qubits and
    # its modulus.  A segment keeps, per c, the constants of X, P and the
    # relative exponent and the key columns added to them (-1: none).
    columns = {}

    def column(coeffs, modulus):
        coeffs = tuple([v % modulus for v in coeffs])
        return columns.setdefault((coeffs, modulus), len(columns)) if any(coeffs) else -1

    # sum_s k_s(o, 0): its constant and linear coefficients, and its pair terms.
    glob, glob_pair = [0] * (n + 1), [[0] * n for _ in range(n)]
    ops, segment, consts, cols = [], [], [], []
    for element, step in zip(seq.elements + [None], steps + [None]):
        if step is not None:
            segment.append(step)
            continue
        if segment:
            x, p, k, pair = _phase_polynomial(n, unit, segment)
            segment = []
            xp = [column([x[q + 1] for q in others], d), column([p[q + 1] for q in others], d)]
            # Only a qubit with a pair term adds to the relative exponents
            # (a mixed one) or to the pair sums.
            paired = [t for t, row in enumerate(pair) if any(row)]
            pairs = {t: row for t in mixed if paired
                     and any(row := [pair[min(t, q)][max(t, q)] for q in range(n)])}
            ops.append(len(consts))
            consts.append([])
            cols.append([])
            for c in c_bits:
                cx, cp, ck, rel = x[0], p[0], 0, [0] * n
                for t in (t for t, bit in zip(mixed, c) if bit):
                    # rel[t] pairs t with the mixed qubits already added.
                    cx, cp, ck = cx + x[t + 1], cp + p[t + 1], ck + k[t + 1] + rel[t]
                    if t in pairs:
                        rel = [a + b for a, b in zip(rel, pairs[t])]
                consts[-1].append([cx % d, cp % d, ck % (2 * d)])
                cols[-1].append(xp + [column([rel[q] for q in others], 2 * d) if pairs else -1])
            glob = [a + b for a, b in zip(glob, k)]
            for t in paired:
                glob_pair[t] = [a + b for a, b in zip(glob_pair[t], pair[t])]
        if isinstance(element, ControlledAncillaRotation):
            q = element.control
            ops.append((np.exp(1j * element.theta * np.arange(d)),
                        column([u == q for u in others], 2) if q in others
                        else np.array([c[mixed.index(q)] for c in c_bits])))
        elif isinstance(element, LocalAncillaRotation):
            ops.append((np.exp(1j * element.theta * np.arange(d)), None))
        elif element is not None:
            ops.append(element)

    # Class j is key order[j], numbered as the qubits, in turn, meet it.  A key
    # step (an other qubit's coefficients) moves each key once, the first
    # time a qubit with that step meets it; every such qubit shares the map,
    # whose later entries it never reads.
    mods = [modulus for _, modulus in columns]
    order = [(0,) * len(columns)]
    keys, moves = {order[0]: 0}, {}
    key_steps = list(zip(*[coeffs for coeffs, _ in columns]))   # per other qubit; [] if no column
    for w in key_steps:
        if any(w):
            move = moves.setdefault(w, [])
            for key in order[len(move):]:
                key = tuple([(a + b) % m for a, b, m in zip(key, w, mods)])
                move.append(keys.setdefault(key, len(order)))
                if move[-1] == len(order):
                    order.append(key)
    moves = {w: np.array(move) for w, move in moves.items()}
    exponent = _quadratic([[glob[q + 1] % (2 * d) for q in [-1] + others]],
                          [[glob_pair[t][q] % (2 * d) for t in others for q in others]])[0]
    index = _numbered([0], [moves.get(w) for w in key_steps] or [None] * len(others))[0]
    # Register index r has qubit q's bit on axis q of (2,) * n; the others'
    # axes first make o the row and c the column.
    rows = np.arange(2 ** n, dtype=np.int64).reshape((2,) * n).transpose(
        others + mixed).reshape(-1, span)
    # Column -1 reads the zero past the last key column.
    keys = np.array([key + (0,) for key in order], dtype=np.int64)
    if consts:
        # exp(i pi k/d) D(X, P) v reads exp(i pi (k + 2 P m)/d) v[m - X] at
        # level m, as torus_gate builds its class vectors.
        labels = np.array(consts) + keys[:, np.array(cols)]   # [class, segment, c, XPk]
        m = np.arange(d)
        phases = _roots(d).take(labels[..., 2:] + 2 * labels[..., 1:2] * m, mode="wrap")
        shifts = (m - labels[..., :1]) % d

    amps = np.zeros((len(keys), span, span, d), dtype=complex)
    amps.reshape(len(keys), -1, d)[:, ::span + 1] = anc_init
    offsets = np.arange(0, amps.size, d).reshape(amps.shape[:-1] + (1,))
    for op in ops:
        if isinstance(op, int):                  # a segment's row in phases, shifts
            amps = phases[:, op, None] * amps.take(offsets + shifts[:, op, None])
        elif isinstance(op, AncillaProjectedGate):
            j = mixed.index(op.target)
            col = amps[..., op.level].reshape(
                amps.shape[:2] + (2 ** j, 2, span // 2 ** (j + 1)))
            amps[..., op.level] = np.einsum(
                "ab,oixbj->oixaj", np.asarray(op.gate, dtype=complex),
                col).reshape(amps.shape[:-1])
        else:                                    # a rotation and its control bit
            rotation, on = op
            if on is None:
                amps *= rotation
            else:
                on = keys[:, on, None, None] if isinstance(on, int) else on
                amps *= np.where(on[..., None] == 1, rotation, 1.0)

    bra = np.conj(anc_init)
    returned = amps @ bra                                 # [class, a, c]
    # Rows an input cannot reach are zero, so its Schmidt weight is that of
    # its (2^k, d) block, a product state when k = 0.  The uniform input's
    # rows are the blocks' input sums times their phases, which its ancilla
    # state does not see.
    residual = 0.0
    if span > 1:
        residual = 1.0 - float(np.linalg.svd(amps, compute_uv=False)[..., 0].min()) ** 2
    share = np.bincount(index, minlength=len(keys)) / 2 ** n
    uniform = (amps.sum(axis=1) * np.sqrt(share)[:, None, None]).reshape(-1, d)
    residual = max(0.0, residual, 1.0 - largest_schmidt_weight(uniform))
    back = uniform @ bra
    fidelity = min(1.0, float((returned * returned.conj()).real.sum(axis=-1).min()),
                   float(np.vdot(back, back).real))
    return rows, index, exponent, returned, fidelity, residual


@functools.lru_cache(maxsize=8)
def _ground(d: int) -> np.ndarray:
    """Read-only position level |0>_x, the default initial ancilla state."""
    ground = np.zeros(d, dtype=complex)
    ground[0] = 1.0
    ground.setflags(write=False)
    return ground


def _checked_ancilla(d: int, anc_init, convention: str) -> np.ndarray:
    """``anc_init`` checked (default |0>_x), after the convention."""
    _phase_unit(d, convention)
    if anc_init is None:
        return _ground(d)
    anc_init = np.asarray(anc_init, dtype=complex)
    if anc_init.shape != (d,):
        raise ValueError("ancilla initial state has wrong dimension")
    # Written so that a NaN norm fails too.
    if not abs(math.sqrt(np.vdot(anc_init, anc_init).real) - 1.0) <= 1e-12:
        raise ValueError("ancilla initial state is not normalised")
    return anc_init


def extract_register_gate(seq: InteractionSequence, anc_init: np.ndarray | None = None,
                          convention: str = HALF_ROOT) -> GateReport:
    """Run a sequence on every register basis state and extract the gate.

    Each basis state (and, as an entanglement witness, the uniform register
    superposition) is propagated with the ancilla starting in ``anc_init``
    (default: one shared read-only |0>_x; a given one must be a finite unit
    vector, else ValueError).  The convention and every element are checked
    before anything runs: an interaction needs an integer label, a projected
    gate a level in range(d) and a finite 2x2 unitary, a rotation a finite angle.
    The worst-case ancilla return fidelity and residual entanglement are
    always reported, and the gate only when both the residual
    and 1 - fidelity are below ``DISENTANGLE_TOL``
    (:func:`amqc.report.gate_exists`): every output factorises with the
    ancilla back in ``anc_init`` up to phase.  Non-disentangling sequences
    are reported, never rejected.

    A sequence of interactions only runs on the branch engine
    (:func:`amqc.branches.torus_gate`, which groups branches into label
    classes) as a batch of one.  Any other sequence runs on label classes
    of register row blocks (:func:`_class_gate`): a generalized Toffoli has
    n + 1 of them and a mod-d gate at most 2 min(n + 1, d), whatever 2^n is.
    """
    n, d = seq.n_qubits, seq.d
    anc_init = _checked_ancilla(d, anc_init, convention)
    steps = [_check_element(element, n, d) for element in seq.elements]

    if None not in steps:
        # Basis inputs stay product states, so the uniform input's residual is
        # the worst, and its fidelity is the mean of the basis ones.
        return diagonal_report(*torus_gate(n, d, [steps], anc_init, convention),
                               [len(steps)])[0]

    rows, index, exponent, returned, fidelity, residual = _class_gate(
        seq, steps, anc_init, convention)
    if not gate_exists(fidelity, residual):
        return GateReport(None, fidelity, residual, len(seq.elements))
    # One gather, the phases multiplied into it in place, phase first: the
    # operands in this order give the bits of phase * gate.
    gate = returned.take(index, axis=0)
    np.multiply(_roots(d).take(exponent, mode="wrap")[:, None, None], gate, out=gate)
    if rows.shape[1] == 1:    # k = 0: block o is row o, and the gate is its diagonal
        gate, rows = gate.reshape(-1), None
    return GateReport(gate, fidelity, residual, len(seq.elements), rows)


def extract_register_gates(seqs, anc_init: np.ndarray | None = None,
                           convention: str = HALF_ROOT) -> list[GateReport]:
    """:func:`extract_register_gate` of many sequences of interactions on
    one (n, d) in one call: the same reports, bit for bit."""
    seqs = list(seqs)
    if not seqs:
        return []
    n, d = seqs[0].n_qubits, seqs[0].d
    anc_init = _checked_ancilla(d, anc_init, convention)
    batch = []
    for seq in seqs:
        steps = [None] if (seq.n_qubits, seq.d) != (n, d) else [
            _check_element(element, n, d) for element in seq.elements]
        if None in steps:
            raise ValueError("a batch holds sequences of interactions on one layout")
        batch.append(steps)
    return diagonal_report(*torus_gate(n, d, batch, anc_init, convention),
                           [len(steps) for steps in batch])


# ----------------------------------------------------------------------------
# sequence builders
# ----------------------------------------------------------------------------

def two_qubit_sequence(j: int, k: int, x: int, p: int, d: int,
                       polarity: str = APPLY_ON_ONE) -> InteractionSequence:
    """Four-interaction rectangle giving a controlled phase between qubits j, k.

    With apply-on-one polarity the extracted gate is C^j_k R(2*pi*x*p/d),
    entangling iff x*p is not a multiple of d, for any ancilla initial state.
    """
    if j == k:
        raise ValueError("control and target must differ")
    return InteractionSequence(max(j, k) + 1, d, [
        Interaction(j, x, 0, polarity), Interaction(k, 0, p, polarity),
        Interaction(j, -x, 0, polarity), Interaction(k, 0, -p, polarity)])


def fan_one_target(xs, p: int, d: int, polarity: str = APPLY_ON_ONE) -> InteractionSequence:
    """2(n+1) interactions implementing prod_k C^k_t R(2*pi*x_k*p/d).

    Controls are qubits 0..n-1, the target is qubit n.  A per-gate
    construction would need 4n interactions.
    """
    return fan_bipartite(xs, [p], d, polarity)


def fan_bipartite(xs, ps, d: int, polarity: str = APPLY_ON_ONE) -> InteractionSequence:
    """2(n+m) interactions implementing all n*m controlled rotations.

    Controls are qubits 0..n-1 with position displacements x_k, targets are
    qubits n..n+m-1 with momentum displacements p_j, in the order of
    :func:`amqc.branches.fan_steps`; the register gate is
    prod_j prod_k C^k_j R(2*pi*x_k*p_j/d).  Per-gate construction: 4nm.
    """
    steps = fan_steps(xs, ps)
    return InteractionSequence(len(steps) // 2, d, [
        Interaction(q, sx, sp, polarity) for q, sx, sp in steps])


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
    elements = [Interaction(k, 1, 0) for k in range(n)]
    elements.append(AncillaProjectedGate(target=n, level=n % d,
                                         gate=np.asarray(u, dtype=complex)))
    elements += [Interaction(k, -1, 0) for k in range(n)]
    return InteractionSequence(n + 1, d, elements)


def mod_d_phase_gate(theta: float, n: int, d: int) -> InteractionSequence:
    """Phase e^{i*theta*((q_1+...+q_n) mod d)*q_t} on n controls and target t.

    2n+1 elements with the ancilla started in |0>_x.  For n < d the modular
    sum never wraps and the gate coincides with prod_k C^k_t R(theta).
    """
    if n < 1:
        raise ValueError("need at least one control")
    elements = [Interaction(k, 1, 0) for k in range(n)]
    elements.append(ControlledAncillaRotation(control=n, theta=theta))
    elements += [Interaction(k, -1, 0) for k in range(n)]
    return InteractionSequence(n + 1, d, elements)


def single_pair_arbitrary_rotation(theta: float, d: int) -> InteractionSequence:
    """C^0_1 R(theta) for arbitrary real theta via one ancilla rotation.

    Pure displacement loops only reach the d integer powers of omega_d; with
    one qubit-controlled ancilla rotation any phase is reachable (the ancilla
    must start in |0>_x).
    """
    return InteractionSequence(2, d, [
        Interaction(0, 1, 0),
        ControlledAncillaRotation(control=1, theta=theta),
        Interaction(0, -1, 0),
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
    target = np.diag(np.exp(-1j * theta * kron([1.0, -1.0], np.diag(sz))))

    local = kron(np.diag([np.exp(-1j * theta * s), np.exp(1j * theta * s)]), identity(d))
    built = local @ controlled(rotation(d, theta), rotation(d, -theta))
    dist1 = phase_distance(target, built)

    lhs = controlled(rotation(d, theta), rotation(d, -theta)) @ \
        kron(identity(2), rotation(d, -theta))
    rhs = controlled(identity(d), rotation(d, -2 * theta))
    dist2 = phase_distance(lhs, rhs)
    return max(dist1, dist2)
