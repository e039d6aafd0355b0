"""Dense complex linear algebra and comparison metrics for brute-force gate checks.

Everything here operates on plain numpy arrays: unitaries are (n, n) complex
matrices, states are 1-d complex vectors.  The dense register oracles the
extracted gates are compared against live in :mod:`amqc.oracles`.
"""

from __future__ import annotations

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

# Entries per block of phase_distance's second pass: 128 KiB of complex128,
# so a block's two operand slices and its difference (384 KiB) stay in L2.
_BLOCK = 8192


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def phase_gate(theta: float) -> np.ndarray:
    """Single-qubit phase gate diag(1, e^{i*theta})."""
    return np.diag([1.0, np.exp(1j * theta)]).astype(complex)


def kron(*factors) -> np.ndarray:
    """Tensor product of one or more operators (or vectors), left to right."""
    if not factors:
        raise ValueError("kron needs at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def is_unitary(u: np.ndarray) -> bool:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-12)


def controlled(u0: np.ndarray, u1: np.ndarray) -> np.ndarray:
    """Single control qubit in front of one target system:
    C(u0, u1) = |0><0| (x) u0 + |1><1| (x) u1, for equal square u0 and u1."""
    u0 = np.asarray(u0, dtype=complex)
    u1 = np.asarray(u1, dtype=complex)
    if u0.ndim != 2 or u0.shape[0] != u0.shape[1] or u1.shape != u0.shape:
        raise ValueError(f"controlled operators must be equal square matrices, "
                         f"got {u0.shape} and {u1.shape}")
    dim = u0.shape[0]
    out = np.zeros((2 * dim, 2 * dim), dtype=complex)
    out[:dim, :dim] = u0
    out[dim:, dim:] = u1
    return out


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Global-phase-insensitive distance min over phi of ||u - e^{i*phi} v||_F.

    With t = tr(v^dag u) the objective is ||u||^2 + ||v||^2 - 2 Re(e^{-i phi} t),
    minimised at phi = arg t.  If t vanishes (e.g. identity vs Pauli Z) the
    objective is flat in phi and equals sqrt(||u||^2 + ||v||^2).  Returns 0
    iff u and v agree up to a global phase.

    The second pass sums ||e^{i phi} v - u||^2 over blocks of whole rows, at
    most _BLOCK entries while a row fits, so no dense temporary is made.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"phase_distance needs equal square matrices, "
                         f"got {u.shape} and {v.shape}")
    t = np.vdot(v, u)
    if abs(t) <= 1e-12 * u.shape[0]:
        return float(np.hypot(np.linalg.norm(u), np.linalg.norm(v)))
    phase, rows = t / abs(t), max(1, _BLOCK // u.shape[0])
    total = 0.0
    for r in range(0, u.shape[0], rows):
        diff = phase * v[r:r + rows]
        diff -= u[r:r + rows]
        total += np.vdot(diff, diff).real
    return float(np.sqrt(total))


def state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 for two normalized state vectors of equal dimension."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"state_fidelity needs equal-length vectors, "
                         f"got {a.shape} and {b.shape}")
    return float(abs(np.vdot(a, b)) ** 2)


def largest_schmidt_weight(bipartite: np.ndarray) -> float:
    """Largest Schmidt weight of a normalized pure state given as an (m, n) matrix.

    Rows index one subsystem, columns the other; the weight is the square of
    the leading singular value, so 1 signals a product state.
    """
    s = np.linalg.svd(np.asarray(bipartite, dtype=complex), compute_uv=False)
    return float(s[0] ** 2)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary from the QR decomposition of a Ginibre matrix."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
