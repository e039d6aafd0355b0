"""Vectorised branch engine for displacement-only sequences.

Controlled displacements never mix register basis states, so each of the 2^n
register branches carries only an ancilla label and a phase (the Weyl-group
tracking behind Gottesman-Knill; Aaronson and Gottesman, PRA 70, 052328,
2004).  All branches are numpy arrays, propagated under one composition law
per backend: torus (qudit; integer labels and phase exponent mod 2d), flat
(field-mode bus; phase (x1 p2 - p1 x2)/2) and sphere (spin ensemble; Moebius
rule, phase N arg(1 - z1 conj(z2))).

The residual entanglement, 1 minus the top eigenvalue of the ancilla's state
sum_r |a_r|^2 |l_r><l_r|, comes from a pivoted Cholesky factor of the Gram
matrix of the final labels, whose rank is a few when they nearly coincide.
"""

from __future__ import annotations

import functools

import numpy as np

from .qudit import MOD_INVERSE, _check_convention

# |1 - z1 conj(z2)| below this is a composition through the south pole.
SINGULAR_TOL = 1e-12
RANK_TOL = 1e-14   # Gram trace per unit weight a residual's factor leaves out


class SingularCompositionError(ValueError):
    """Composition drove a coherent-state label to the south pole."""


@functools.lru_cache(maxsize=8)
def register_bits(n_qubits: int) -> np.ndarray:
    """(2^n, n) read-only 0/1 matrix: column q is qubit q of every register
    index, qubit 0 being the most significant bit."""
    r = np.arange(2 ** n_qubits)
    bits = (r[:, None] >> np.arange(n_qubits - 1, -1, -1)) & 1
    bits.setflags(write=False)
    return bits


def grouped_residual(keys: np.ndarray, weights: np.ndarray, labels: np.ndarray,
                     overlap) -> float:
    """1 - largest eigenvalue of sum_r weights_r |l_r><l_r|.

    ``keys`` rows are equal exactly where branches share a final label
    ``labels[r]``; ``overlap(l1, l2)`` gives <l1|l2> elementwise.  Otherwise a
    pivoted Cholesky factor L of G[r, s] = sqrt(w_r w_s) <l_r|l_s> grows until
    trace(G - L L^dagger), which bounds the eigenvalue's error, is below RANK_TOL.
    """
    if (keys == keys[0]).all():
        return float(1.0 - weights.sum())
    root_w, rest = np.sqrt(weights), weights * overlap(labels, labels).real
    factor = np.zeros((0, len(labels)), dtype=complex)   # rows are columns of L
    while rest.sum() > RANK_TOL * weights.sum():
        j = int(np.argmax(rest))
        col = root_w * overlap(labels, labels[j]) * root_w[j] - factor[:, j].conj() @ factor
        factor = np.vstack([factor, col / np.sqrt(rest[j])])
        rest = np.maximum(rest - np.abs(factor[-1]) ** 2, 0.0)
        rest[j] = 0.0
    return float(1.0 - np.linalg.eigvalsh(factor.conj() @ factor.T)[-1])


def torus_ancilla(n_qubits: int, d: int, steps, anc_init: np.ndarray,
                  convention: str) -> np.ndarray:
    """Final ancilla vector of every register basis branch, as a (2^n, d) matrix.

    ``steps`` lists (qubit, x, p, symmetric) in application order: an
    apply-on-one step displaces branches whose control bit is 1 by (x, p), a
    symmetric one displaces bit 0 by +(x, p) and bit 1 by -(x, p).  Row r is
    exp(i pi k/d) D(X, P) anc_init with the branch's net label (X, P) and
    phase exponent k, built as the phased permutation
    anc_init[(m - X) mod d] * omega_d(P m).
    """
    x_net, p_net, k = np.zeros((3, 2 ** n_qubits), dtype=np.int64)
    if steps:
        _check_convention(d, convention)
        # D(l2) D(l1) = exp(i pi c (x1 p2 - p1 x2) / d) D(l1 + l2)
        c = d + 1 if convention == MOD_INVERSE else 1
        bits = register_bits(n_qubits)
        for qubit, x, p, symmetric in steps:
            s = 1 - 2 * bits[:, qubit] if symmetric else bits[:, qubit]
            k += x_net * (s * p) - p_net * (s * x)
            x_net += s * x
            p_net += s * p
        # The prefactor of D(X, P) is exp(-i pi c X P / d).
        k = c * (k - x_net * p_net)
    m = np.arange(d)
    roots = np.exp(1j * np.pi * np.arange(2 * d) / d)
    phase = roots[(k[:, None] + 2 * p_net[:, None] * m) % (2 * d)]
    return phase * anc_init[(m - x_net[:, None]) % d]


def flat_step(z, dz):
    """Displace labels z = x + ip by dz: the new labels and the phase angle
    (x dp - p dx)/2 = Im(conj(z) dz)/2 of D(dz) D(z) = e^{i angle} D(z + dz)."""
    return z + dz, 0.5 * (np.conj(z) * dz).imag


def flat_propagate(n_qubits: int, steps, z0: complex):
    """Run symmetric controlled displacements (qubit, x, p) on every branch,
    every label starting at z0 = x0 + i p0.

    Returns (counts, axes, angle): ``counts[r, a]`` is the signed number of
    times branch r moved along axis ``axes[a]`` (as x + ip), so its net
    displacement is ``counts[r] @ axes`` and a branch whose counts vanish is
    back on its initial label exactly; ``angle[r]`` is the accumulated phase.
    """
    steps = [(q, x, p) for q, x, p in steps if x != 0.0 or p != 0.0]
    signs = 1.0 - 2.0 * register_bits(n_qubits)[:, [q for q, _, _ in steps]]
    # Column j holds the labels before step j, the last column the final ones.
    dz = signs * np.array([complex(x, p) for _, x, p in steps])
    z = np.empty((2 ** n_qubits, len(steps) + 1), dtype=complex)
    z[:, 0] = z0
    z[:, 1:] = dz
    np.cumsum(z, axis=1, out=z)
    angle = flat_step(z[:, :-1], dz)[1].sum(axis=1)
    # Canonical axis so a step and its negation share one count.
    axes: dict[tuple[float, float], int] = {}
    orient = np.zeros((len(steps), len(steps)))
    for j, (_, x, p) in enumerate(steps):
        o = -1.0 if (x, p) < (0.0, 0.0) else 1.0
        orient[j, axes.setdefault((o * x, o * p), len(axes))] = o
    counts = (signs @ orient[:, :len(axes)]).astype(np.int64)
    return counts, np.array([complex(*a) for a in axes], dtype=complex), angle


def flat_overlap(z1, z2):
    """Coherent overlaps <z1|z2> = e^{-|z2 - z1|^2/4} e^{i Im(conj(z1) z2)/2}
    of labels z = x + ip, elementwise."""
    return np.exp(-np.abs(z2 - z1) ** 2 / 4.0 + 0.5j * (np.conj(z1) * z2).imag)


def sphere_step(z: np.ndarray, leg: np.ndarray, n_spins: int,
                floor=SINGULAR_TOL):
    """Displace stereographic labels ``z`` by ``leg`` (per branch).

    Returns (z_new, angle) with D(leg)|z> = e^{i angle} |z_new>,
    z_new = (z + leg) / (1 - z conj(leg)) and angle = N arg(1 - z conj(leg)).
    Raises :class:`SingularCompositionError` where |1 - z conj(leg)| < floor.
    """
    den = 1.0 - z * np.conj(leg)
    singular = np.abs(den) < floor
    if singular.any():
        raise SingularCompositionError(
            f"{int(np.sum(singular))} branch(es) driven to the south pole: "
            f"|1 - z*conj(step)| = {float(np.min(np.abs(den))):.3e}")
    return (z + leg) / den, n_spins * np.arctan2(den.imag, den.real)


def sphere_overlap(z1, z2, n_spins: int):
    """<z1|z2> = ((1 + conj(z1) z2) / sqrt((1 + |z1|^2)(1 + |z2|^2)))^N,
    elementwise and in the log domain, which stays accurate for N up to 1e10
    and underflows gracefully to 0."""
    w = np.conj(z1) * z2
    # log(1 + w) for small complex w; numpy's log1p is real-only.
    log_num = 0.5 * np.log1p(2.0 * w.real + np.abs(w) ** 2) + \
        1j * np.arctan2(w.imag, 1.0 + w.real)
    log_den = 0.5 * (np.log1p(np.abs(z1) ** 2) + np.log1p(np.abs(z2) ** 2))
    return np.exp(n_spins * (log_num - log_den))
