"""Register oracles: the gates the sequence builders target, in closed form and
kept as a GateReport keeps them (qubit 0 the most significant bit).

A fan of controlled phases is a bilinear form in the control bits, or in the
control signs (the quadratic-form picture of Dehaene and De Moor, PRA 68,
042318, 2003), so every rectangle and fan of every backend is one call to :func:`fan`.
"""

from __future__ import annotations

import numpy as np

from .branches import register_bits


def fan(xs, ps, scale: float, signed: bool) -> np.ndarray:
    """The diagonal exp(i scale X(r) P(r)), controls 0..n-1, targets n..n+m-1.

    X(r) = sum_k v_k x_k and P(r) = sum_j v_j p_j, where v_q is qubit q's bit
    of register index r (the apply-on-one polarity: prod C^k_j R(scale x_k p_j))
    or, with ``signed``, its sign (-1)^bit (the symmetric polarity and the
    bus: prod exp(i scale x_k p_j Z_k Z_j)).
    """
    xs, ps = np.asarray(xs, dtype=float), np.asarray(ps, dtype=float)
    bits = register_bits(len(xs) + len(ps))
    v = 1.0 - 2.0 * bits if signed else bits
    return np.exp(1j * scale * (v[:, :len(xs)] @ xs) * (v[:, len(xs):] @ ps))


def mod_d(theta: float, n: int, d: int) -> np.ndarray:
    """The diagonal exp(i theta ((q_0 + ... + q_{n-1}) mod d) q_n), n controls,
    target qubit n."""
    bits = register_bits(n + 1)
    return np.exp(1j * theta * (bits[:, :n].sum(axis=1) % d) * bits[:, n])


def toffoli(n: int, u: np.ndarray) -> np.ndarray:
    """n-controlled ``u`` on qubit n as blocks on rows (2o, 2o + 1), ``u`` transposed last."""
    out = np.tile(np.eye(2, dtype=complex), (2 ** n, 1, 1))
    out[-1] = np.asarray(u, dtype=complex).T
    return out
