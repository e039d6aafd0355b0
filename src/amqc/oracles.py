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
    bus: prod exp(i scale x_k p_j Z_k Z_j)).  Each sum runs over its own side's
    indices alone; their outer product, raveled (controls high), is the diagonal.
    """
    sides = [register_bits(len(v)) for v in (xs, ps)]
    sides = [1.0 - 2.0 * bits if signed else bits for bits in sides]
    x_sum, p_sum = (bits @ np.asarray(v, dtype=float) for bits, v in zip(sides, (xs, ps)))
    return np.exp(1j * scale * x_sum[:, None] * p_sum).ravel()


def mod_d(theta: float, n: int, d: int) -> np.ndarray:
    """The diagonal exp(i theta ((q_0 + ... + q_{n-1}) mod d) q_n), n controls,
    target qubit n: the controls' Hamming weight against the target bit (0, 1)."""
    weight = register_bits(n).sum(axis=1) % d
    return np.exp(1j * theta * weight[:, None] * np.arange(2)).ravel()


def toffoli(n: int, u: np.ndarray) -> np.ndarray:
    """n-controlled ``u`` on qubit n as blocks on rows (2o, 2o + 1), ``u`` transposed last."""
    out = np.tile(np.eye(2, dtype=complex), (2 ** n, 1, 1))
    out[-1] = np.asarray(u, dtype=complex).T
    return out
