"""Record base classes, the register-gate report and the rule for when a gate exists."""

from __future__ import annotations

import numpy as np

# Residual entanglement and ancilla return infidelity both below this make a gate.
DISENTANGLE_TOL = 1e-10


def gate_exists(fidelity: float, residual: float) -> bool:
    """The one rule for a register gate: the ancilla disentangles and comes
    back to its initial state, both to within DISENTANGLE_TOL."""
    return residual < DISENTANGLE_TOL and 1.0 - fidelity < DISENTANGLE_TOL


# The records are not dataclasses: @dataclass writes and compiles the methods of
# amqc's 16 records at every import, 9 ms of a 48 ms benchmark set-up, and with
# loading `dataclasses` 14 ms of a 24 ms `import amqc.cli` from cached bytecode.
class _Record:
    """Base of amqc's records: a record's fields are the parameters of its
    own ``__init__``, in order.  It gives the ``Name(field=value, ...)``
    repr and equality over the fields of two records of one class; a record
    that can change is unhashable."""

    __hash__ = None

    def _fields(self) -> tuple:
        init = type(self).__init__.__code__
        return init.co_varnames[1:init.co_argcount]

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields()])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields()])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()


class _Frozen(_Record):
    """A hashable record whose ``__init__`` sets its fields once, through
    ``__dict__``; assigning or deleting a field raises the frozen dataclass
    error."""

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value, action="assign to"):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot {action} field {name!r}")

    def __delattr__(self, name):
        self.__setattr__(name, None, "delete")


# Largest dense gate built: a 2^q x 2^q matrix takes 16 * 4^q bytes, 256 MiB at q = 12.
MAX_DENSE_QUBITS = 12


def dense_gate(gate: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """The one dense (2^q, 2^q) layout of a register gate, a 2^q diagonal or blocks on
    ``rows``; ValueError for other shapes, and above MAX_DENSE_QUBITS before allocating."""
    gate = np.asarray(gate, dtype=complex)
    diagonal = rows is None and gate.ndim == 1
    if not diagonal and (np.ndim(rows) != 2 or gate.shape != np.shape(rows) + np.shape(rows)[1:]):
        raise ValueError(f"dense_gate takes a diagonal or blocks on their rows, got {gate.shape}")
    dim = gate.size if diagonal else np.size(rows)
    if dim > 2 ** MAX_DENSE_QUBITS:
        raise ValueError(f"a {dim.bit_length() - 1}-qubit gate is kept compact: "
                         f"dense gates are built for at most MAX_DENSE_QUBITS = {MAX_DENSE_QUBITS}")
    if diagonal:
        return np.diag(gate)
    out = np.zeros((dim, dim), dtype=complex)
    out[rows[:, None, :], rows[:, :, None]] = gate
    return out


class GateReport(_Record):
    """What a simulated interaction sequence did to the register.

    Attributes
    ----------
    gate : ndarray or None
        The register gate, populated only when both ``residual_entanglement``
        and ``1 - ancilla_return_fidelity`` are below ``DISENTANGLE_TOL``
        (:func:`gate_exists`): its 2^n diagonal, or its (2^(n-k), 2^k, 2^k) blocks on
        ``rows`` where k qubits mix.  ``register_unitary`` is its dense matrix, built on each read.
    ancilla_return_fidelity : float
        Worst-case overlap squared between the ancilla's final and initial
        states over the tested inputs; exactly 1 signals perfect
        disentanglement.
    residual_entanglement : float
        1 minus the largest Schmidt weight of the register/ancilla split,
        maximised over the tested inputs (the register basis states plus the
        uniform superposition, which witnesses branch-to-branch ancilla
        divergence that product basis inputs cannot show).
    interaction_count : int
        Number of elements in the sequence that produced the gate.
    rows : ndarray or None
        A block gate's register rows: ``gate[o, a, c]`` is at (``rows[o, c]``, ``rows[o, a]``).
    """

    def __init__(self, gate: np.ndarray | None, ancilla_return_fidelity: float,
                 residual_entanglement: float, interaction_count: int, rows=None):
        self.gate, self.rows, self.interaction_count = gate, rows, interaction_count
        self.ancilla_return_fidelity = ancilla_return_fidelity
        self.residual_entanglement = residual_entanglement

    @property
    def register_unitary(self) -> np.ndarray | None:
        return None if self.gate is None else dense_gate(self.gate, self.rows)


def diagonal_report(phases: np.ndarray, overlaps: np.ndarray, residual,
                    interaction_count):
    """GateReport of a sequence that keeps every register basis state.

    Branch r returns ``phases[r] * overlaps[r]`` times the initial ancilla
    state, a unit phase times the overlap of its final ancilla state with
    the initial one; these returns are the gate's diagonal.  The fidelity is
    the smallest |overlap|^2, so a walk whose overlaps are exactly 1 reads
    exactly 1 whatever the phases.  A non-finite phase or overlap, left by
    a walk that overflowed double precision, raises ValueError.  Given
    (B, 2^n) arrays and B residuals and counts, it returns the B reports.
    """
    if phases.ndim == 1:
        return diagonal_report(phases[None], overlaps[None], [residual],
                               [interaction_count])[0]
    returns = phases * overlaps
    if not np.isfinite(returns).all():
        raise ValueError("branch phase or overlap is not finite: the sequence "
                         "overflows double precision")
    fidelities = [min(1.0, f ** 2) for f in np.abs(overlaps).min(axis=-1).tolist()]
    return [GateReport(gate if gate_exists(fid, res) else None, fid, res, count)
            for gate, fid, res, count in zip(returns, fidelities, residual, interaction_count)]
