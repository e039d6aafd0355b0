"""Result record for register-gate extraction and the rule for when a gate exists."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Residual entanglement and ancilla return infidelity both below this make a gate.
DISENTANGLE_TOL = 1e-10


def gate_exists(fidelity: float, residual: float) -> bool:
    """The one rule for a register gate: the ancilla disentangles and comes
    back to its initial state, both to within DISENTANGLE_TOL."""
    return residual < DISENTANGLE_TOL and 1.0 - fidelity < DISENTANGLE_TOL


@dataclass
class GateReport:
    """What a simulated interaction sequence did to the register.

    Attributes
    ----------
    register_unitary : ndarray or None
        The (2^n, 2^n) register gate, populated only when both
        ``residual_entanglement`` and ``1 - ancilla_return_fidelity`` are
        below ``DISENTANGLE_TOL`` (:func:`gate_exists`).
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
    """

    register_unitary: np.ndarray | None
    ancilla_return_fidelity: float
    residual_entanglement: float
    interaction_count: int


def diagonal_report(phases: np.ndarray, overlaps: np.ndarray, residual,
                    interaction_count):
    """GateReport of a sequence that keeps every register basis state.

    Branch r returns ``phases[r] * overlaps[r]`` times the initial ancilla
    state: a unit phase times the overlap of its final ancilla state with
    the initial one.  The fidelity is the smallest |overlap|^2, so a walk
    whose overlaps are exactly 1 reads exactly 1 whatever the phases.  A
    non-finite phase or overlap, left by a walk that overflowed double
    precision, raises ValueError.  Given (B, 2^n) arrays and B residuals and
    counts, it returns the B reports.
    """
    if phases.ndim == 1:
        return diagonal_report(phases[None], overlaps[None], [residual],
                               [interaction_count])[0]
    returns = phases * overlaps
    if not np.isfinite(returns).all():
        raise ValueError("branch phase or overlap is not finite: the sequence "
                         "overflows double precision")
    fidelities = [min(1.0, f ** 2) for f in np.abs(overlaps).min(axis=-1).tolist()]
    exists = list(map(gate_exists, fidelities, residual))
    kept = returns if all(exists) else returns[exists]
    dim = returns.shape[-1]
    unitaries = np.zeros((len(kept), dim * dim), dtype=complex)
    unitaries[:, ::dim + 1] = kept
    unitaries = iter(unitaries.reshape(-1, dim, dim))
    return [GateReport(next(unitaries) if ok else None, fidelity, res, count)
            for ok, fidelity, res, count in zip(exists, fidelities, residual, interaction_count)]
