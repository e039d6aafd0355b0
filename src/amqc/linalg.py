"""Dense complex linear algebra and comparison metrics for brute-force gate checks.

Everything here operates on plain numpy arrays: unitaries are (n, n) complex
matrices, states are 1-d complex vectors.  Every oracle is a direct dense
computation, so a q-qubit register costs 16 * 4^q bytes per matrix: 4 MB at
the 9 qubits of an 8-control Toffoli, and the ``demo`` command refuses
registers above 12 qubits (256 MB per matrix).
"""

from __future__ import annotations

import numpy as np

# Comparison tolerance for the identity suites.  Double precision accumulates
# roughly 1e-13 per matrix product at the dimensions used here.
IDENTITY_TOL = 1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


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


def is_unitary(u: np.ndarray, tol: float = 1e-12) -> bool:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < tol)


def embed_controlled(control_qubit: int, n_qubits: int, anc_dim: int,
                     u0: np.ndarray, u1: np.ndarray) -> np.ndarray:
    """Embed |0><0|_c x u0 + |1><1|_c x u1 into an n-qubit + ancilla space.

    The full space is ordered (qubit 0, ..., qubit n-1, ancilla) with qubit 0
    as the most significant index bit, so a basis index decomposes as
    ``register_bits * anc_dim + ancilla_level``.  ``u0`` and ``u1`` act on the
    trailing ancilla, selected by the state of ``control_qubit``; every other
    qubit is untouched.

    Parameters
    ----------
    control_qubit : int
        Index of the controlling qubit (0-based, < n_qubits).
    n_qubits : int
        Number of register qubits.
    anc_dim : int
        Dimension of the trailing ancilla system.
    u0, u1 : ndarray
        (anc_dim, anc_dim) operators applied for control 0 / control 1.

    Returns
    -------
    ndarray of shape (2**n_qubits * anc_dim,) * 2
    """
    u0 = np.asarray(u0, dtype=complex)
    u1 = np.asarray(u1, dtype=complex)
    if u0.shape != (anc_dim, anc_dim) or u1.shape != (anc_dim, anc_dim):
        raise ValueError(
            f"controlled operators must be {anc_dim}x{anc_dim}, "
            f"got {u0.shape} and {u1.shape}")
    if not 0 <= control_qubit < n_qubits:
        raise ValueError(f"control qubit {control_qubit} out of range for "
                         f"{n_qubits} qubits")
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    left = identity(2 ** control_qubit)
    right = identity(2 ** (n_qubits - control_qubit - 1))
    return kron(left, p0, right, u0) + kron(left, p1, right, u1)


def controlled(u0: np.ndarray, u1: np.ndarray) -> np.ndarray:
    """Single control qubit in front of one target system: C(u0, u1)."""
    u0 = np.asarray(u0, dtype=complex)
    return embed_controlled(0, 1, u0.shape[0], u0, np.asarray(u1, dtype=complex))


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Global-phase-insensitive distance min over phi of ||u - e^{i*phi} v||_F.

    With t = tr(v^dag u) the objective is ||u||^2 + ||v||^2 - 2 Re(e^{-i phi} t),
    minimised at phi = arg t.  If t vanishes (e.g. identity vs Pauli Z) the
    objective is flat in phi and equals sqrt(||u||^2 + ||v||^2).  Returns 0
    iff u and v agree up to a global phase.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"phase_distance needs equal square matrices, "
                         f"got {u.shape} and {v.shape}")
    t = np.vdot(v, u)
    if abs(t) <= 1e-12 * u.shape[0]:
        return float(np.hypot(np.linalg.norm(u), np.linalg.norm(v)))
    diff = (t / abs(t)) * v   # the one dense temporary
    diff -= u
    return float(np.linalg.norm(diff))


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
