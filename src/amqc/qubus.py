"""Exact symbolic field-mode bus backend (the flat-phase-space reference).

The bus is never represented in a truncated Hilbert space: a displacement
sequence acting on a coherent state is fully described by the running label
(x, p) and an accumulated phase, because

    D(x2, p2) D(x1, p1) = exp(i (x1 p2 - p1 x2) / 2) D(x1 + x2, p1 + p2)

holds exactly.  Flat geometry means every branch of every fan sequence closes
exactly, which makes this backend the zero-error oracle that the spin
ensemble converges to as N grows.  Gates come from the phase polynomial of
:mod:`amqc.branches`, and closure is symbolic: the bus is closed when every
register-bit coefficient of the net label is exactly 0.0, as it is when each
qubit's legs are v and -v; floats only enter the continuous phases.

Interactions use the symmetric polarity C(D(x, p), D(-x, -p)): control bit 0
displaces one way, bit 1 the opposite way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import branches, oracles
from .report import GateReport, diagonal_report


@dataclass(frozen=True)
class FieldLabel:
    """A phase-space point (position displacement, momentum displacement)."""

    x: float
    p: float


ORIGIN = FieldLabel(0.0, 0.0)


@dataclass
class FieldBranchState:
    """Register basis branches, each dragging one bus label and amplitude."""

    n_qubits: int
    branches: dict = field(default_factory=dict)

    @classmethod
    def from_register(cls, register: np.ndarray,
                      label: FieldLabel = ORIGIN) -> "FieldBranchState":
        register, n_qubits = branches._register_vector(register)
        return cls(n_qubits, {r: (label, complex(a)) for r, a in enumerate(register) if a != 0})

    def total_norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for _, a in self.branches.values()))

    def residual_entanglement(self) -> float:
        z = np.array([complex(lab.x, lab.p) for lab, _ in self.branches.values()])
        amps = np.array([a for _, a in self.branches.values()], dtype=complex)
        return branches.grouped_residual(np.abs(amps) ** 2, z, branches.flat_overlap)


def apply_controlled_field(state: FieldBranchState, qubit: int, x: float,
                           p: float) -> FieldBranchState:
    """Symmetric controlled displacement: bit 0 gets +(x, p), bit 1 -(x, p).

    A non-finite x or p raises ValueError before any branch moves.
    """
    branches._check_qubit(qubit, state.n_qubits, "control")
    if not (math.isfinite(x) and math.isfinite(p)):
        raise ValueError(f"displacement ({x!r}, {p!r}) is not finite")
    rs = list(state.branches)
    z = np.array([complex(lab.x, lab.p) for lab, _ in state.branches.values()])
    amps = np.array([a for _, a in state.branches.values()], dtype=complex)
    s = 1.0 - 2.0 * branches.register_bits(state.n_qubits)[rs, qubit]
    z, angle = branches.flat_step(z, s * complex(x, p))
    amps = amps * np.exp(1j * angle)
    return FieldBranchState(state.n_qubits, {
        r: (FieldLabel(zr.real, zr.imag), a)
        for r, zr, a in zip(rs, z.tolist(), amps.tolist())})


def field_two_qubit(x: float, p: float,
                    initial_label: FieldLabel = ORIGIN) -> GateReport:
    """Four-interaction rectangle: register gate exp(i x p Z (x) Z).

    The bus returns to its initial label on every branch whatever that label
    is; branch phases are +-x*p by the parity of the two control bits (the
    loop is traversed in opposite senses).  The result is locally equivalent
    to the controlled phase CR(4xp): multiplying by R(2xp) on each qubit
    yields CR(4xp) exactly up to a global phase, and x*p = pi/4 gives CZ.
    """
    return field_fan([x], [p], initial_label)


def field_fan(xs, ps, initial_label: FieldLabel = ORIGIN) -> GateReport:
    """2(n+m) interactions implementing all n*m phase gates exactly.

    Controls 0..n-1 displace in position by x_k, targets n..n+m-1 in momentum
    by p_j; the register gate is prod_j prod_k exp(i x_k p_j Z_k (x) Z_j) and
    every branch label closes exactly (flat phase space, no curvature term).
    A per-gate construction would spend 4nm interactions.
    """
    xs, ps = [float(v) for v in xs], [float(v) for v in ps]
    steps = branches.fan_steps(xs, ps)
    if not all(map(math.isfinite, xs + ps + [initial_label.x, initial_label.p])):
        raise ValueError("fan coefficients and initial label must be finite")
    qubits = len(xs) + len(ps)
    z0 = complex(initial_label.x, initial_label.p)
    z, angle = branches.flat_labels(qubits, steps, z0)
    residual = branches.grouped_residual(
        np.full(2 ** qubits, 2.0 ** -qubits), z, branches.flat_overlap)
    return diagonal_report(np.exp(1j * angle), branches.flat_overlap(z0, z), residual,
                           len(steps))


def fan_target_unitary(xs, ps) -> np.ndarray:
    """Dense oracle prod_j prod_k exp(i x_k p_j Z_k (x) Z_j) of :func:`field_fan`."""
    return oracles.fan(xs, ps, 1.0, signed=True)
