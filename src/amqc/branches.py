"""Vectorised branch engine for displacement-only sequences.

Controlled displacements never mix register basis states, so each of the 2^n
register branches carries only an ancilla label and a phase (the Weyl-group
tracking behind Gottesman-Knill; Aaronson and Gottesman, PRA 70, 052328,
2004).  All branches are numpy arrays under one composition law per backend:
torus (qudit; integer labels and phase exponent mod 2d), flat (field-mode bus;
phase (x1 p2 - p1 x2)/2) and sphere (spin ensemble; Moebius rule, phase
N arg(1 - z1 conj(z2))).

The torus and the flat law share D(l2) D(l1) = exp(i u c (x1 p2 - p1 x2))
D(l1 + l2), with u = pi / d and the convention's phase unit c from
:mod:`amqc.qudit` on the torus (exponents mod 2d) and u = 1/2, c = 1 on the
plane, so neither is walked step by step: a branch's net label (X, P) is
affine in its register bits and its phase is a quadratic form in them, the
phase polynomial of a diagonal Clifford circuit (Dehaene and De Moor, PRA
68, 042318, 2003; Hostens, Dehaene and De Moor, PRA 71, 042315, 2005, for
qudits).  One pass over the steps gives the coefficients, and doubling over
qubits the 2^n values.  On the torus, branches that share (X mod d, P mod d)
form a label class with one ancilla vector, at most min(d^2, 2^n) of them,
and a closed loop is one class; on the plane a walk is closed when every
register-bit coefficient of X and P is 0.

The residual entanglement, 1 minus the top eigenvalue of the ancilla's state
sum_r |a_r|^2 |l_r><l_r|, comes from a pivoted Cholesky factor of the Gram
matrix of the final labels (on the torus, of the label classes), whose rank
is a few when they nearly coincide.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .qudit import _integer, _phase_unit, _roots

# A per-spin |1> component below this is a composition through the south pole.
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


def _check_qubit(qubit, n_qubits: int, role: str) -> None:
    if not (_integer(qubit) and 0 <= qubit < n_qubits):
        raise ValueError(f"{role} qubit {qubit!r} out of range: need an integer "
                         f"in range({n_qubits})")


def _register_vector(register, n_qubits=None):
    """Complex amplitudes and qubit count n of a register state; ValueError
    unless it is a 1-D vector of 2^n entries (n = ``n_qubits`` if given)."""
    amplitudes = np.asarray(register, dtype=complex)
    n = max(amplitudes.size.bit_length() - 1, 0)
    if amplitudes.ndim != 1 or amplitudes.size != 1 << n or n_qubits not in (None, n):
        raise ValueError(f"register of shape {amplitudes.shape} is not a vector of "
                         f"2^{'n' if n_qubits is None else n_qubits} amplitudes")
    return amplitudes, n


def fan_steps(xs, ps) -> list:
    """The bipartite fan's 2(n+m) controlled displacements (qubit, x, p) in
    application order: controls 0..n-1 by (x_k, 0), targets n..n+m-1 by
    (0, p_j), then the same steps negated.  Its register gate holds all n*m
    pairwise phases x_k p_j; a per-pair rectangle would spend 4nm steps."""
    xs, ps = list(xs), list(ps)
    if not xs or not ps:
        raise ValueError("need at least one control and one target")
    out = [(k, x, 0) for k, x in enumerate(xs)]
    out += [(len(xs) + j, 0, p) for j, p in enumerate(ps)]
    return out + [(q, -x, -p) for q, x, p in out]


def grouped_residual(weights: np.ndarray, labels: np.ndarray, overlap) -> float:
    """1 - largest eigenvalue of sum_r weights_r |l_r><l_r|, at least 0.

    ``labels`` rows are the branches' final labels and ``overlap(l1, l2)``
    gives <l1|l2> elementwise.  Unless every label equals the first, a
    pivoted Cholesky factor L of G[r, s] = sqrt(w_r w_s) <l_r|l_s> grows until
    trace(G - L L^dagger), which bounds the eigenvalue's error, is below RANK_TOL.
    """
    if (labels == labels[0]).all():
        return max(0.0, float(1.0 - weights.sum()))
    root_w, rest = np.sqrt(weights), weights * overlap(labels, labels).real
    if not np.isfinite(rest).all():
        raise ValueError("branch label is not finite: the sequence overflows "
                         "double precision")
    factor = np.zeros((0, len(labels)), dtype=complex)   # rows are columns of L
    while rest.sum() > RANK_TOL * weights.sum():
        j = int(np.argmax(rest))
        col = root_w * overlap(labels, labels[j]) * root_w[j] - factor[:, j].conj() @ factor
        factor = np.vstack([factor, col / np.sqrt(rest[j])])
        rest = np.maximum(rest - np.abs(factor[-1]) ** 2, 0.0)
        rest[j] = 0.0
    return max(0.0, float(1.0 - np.linalg.eigvalsh(factor.conj() @ factor.T)[-1]))


def _phase_polynomial(n_qubits: int, c, steps):
    """Coefficients of the net labels and phase exponent of a
    displacement-only sequence from the origin in the register bits b_q,
    under D(l2) D(l1) = exp(i u c (x1 p2 - p1 x2)) D(l1 + l2) with D(X, P)'s
    prefactor exp(-i u c X P); the caller applies the unit u.

    Returns (x, p, k, pair): x = [X0, X1, ..., Xn] means X = X0 + sum_q
    X(q+1) b_q, likewise P and the linear part of k, and pair[t][q] (t < q)
    is the coefficient of b_t b_q in k.  ``steps`` are (qubit, x, p,
    symmetric); with control value s = b (apply on one) or s = 1 - 2b
    (symmetric), a step (x, p) takes Q = sum_{i<j} s_i s_j (x_i p_j - p_i x_j)
    - X P to Q - 2 x s P - x p s^2, P before the step; k = c Q and b^2 = b,
    in the steps' arithmetic (exact on Python integers).
    """
    x, p, k = ([0] * (n_qubits + 1) for _ in range(3))
    pair = [[0] * n_qubits for _ in range(n_qubits)]
    for qubit, dx, dp, symmetric in steps:
        a, b = (1, -2) if symmetric else (0, 1)   # s = a + b b_qubit
        q, cdx = qubit + 1, c * dx
        k[0] -= cdx * (2 * a * p[0] + a * a * dp)
        k[q] -= cdx * (2 * (a + b) * p[q] + 2 * b * p[0] + (2 * a + b) * b * dp)
        for t in range(n_qubits):
            if p[t + 1] and t != qubit:
                k[t + 1] -= 2 * cdx * a * p[t + 1]
                pair[min(t, qubit)][max(t, qubit)] -= 2 * cdx * b * p[t + 1]
        x[0] += a * dx
        x[q] += b * dx
        p[0] += a * dp
        p[q] += b * dp
    return x, p, k, pair


def _evaluate(rows, pair, moves=None, dtype=np.int64) -> np.ndarray:
    """Evaluate affine forms ``rows`` (each [constant, b_0 coefficient, ...])
    on every register index, qubit 0 the most significant bit, the first row
    plus sum_{t<q} pair[t][q] b_t b_q, as ``dtype`` rows.  Given ``moves``,
    one more row numbers label classes: 0 on index 0, then ``moves[q]`` maps
    it where b_q = 1 (None leaves it).

    Doubling over qubits: the values on 2^q indices become the outer sum with
    (0, qubit q's coefficient), qubit q the new least significant bit.
    Trailing rows carry sum_{t<q} pair[t][q] b_t for every qubit q still to
    come, the next one last.
    """
    n = len(pair)
    if moves is not None:   # the class row starts at 0 with no coefficients
        rows = [*rows, [0] * (n + 1)]
    width, coeffs = len(rows), list(zip(*rows))
    table = np.array([[*coeffs[q + 1], *pair[q][:q:-1]] + [0] * (q + 1)
                      for q in range(n)] + [[*coeffs[0]] + [0] * n], dtype=dtype)
    deltas = table[:n, :, None, None] * (0, 1)
    f = table[n, :, None]
    for q in range(n):
        new = f[:-1, :, None] + deltas[q, :len(f) - 1]
        if q:   # qubit 0 pairs with no earlier qubit
            new[0, :, 1] += f[-1]
        if moves is not None and moves[q] is not None:
            new[width - 1, :, 1] = moves[q][f[width - 1]]
        f = new.reshape(len(new), -1)
    return f


def _torus_polynomial(n_qubits: int, d: int, steps, convention: str):
    """:func:`_phase_polynomial` on the torus, from the origin: u = pi / d,
    and c is the convention's phase unit.

    The pass is exact on Python integers; what it returns are residues, the
    X and P coefficients mod d and the k and pair coefficients mod 2d, which
    fix every branch's label class and phase exp(i pi k/d).  So whatever the
    labels, every exponent :func:`_evaluate` makes of them is below
    2d (n + 1)^2, and so is every index ``take(mode="wrap")`` reduces.
    """
    x, p, k, pair = _phase_polynomial(n_qubits, _phase_unit(d, convention), steps)
    return ([v % d for v in x], [v % d for v in p], [v % (2 * d) for v in k],
            [[v % (2 * d) for v in row] for row in pair])


def torus_gate(n_qubits: int, d: int, steps, anc_init: np.ndarray, convention: str):
    """Phase exp(i pi k/d) and overlap <anc_init|D(X, P) anc_init> of every
    register branch, and the residual entanglement of the uniform input.

    ``steps`` lists (qubit, x, p, symmetric) in application order: an
    apply-on-one step displaces branches whose control bit is 1 by (x, p), a
    symmetric one displaces bit 0 by +(x, p) and bit 1 by -(x, p).  Branch r
    ends in exp(i pi k/d) D(X, P) times the initial ancilla state.

    Branches fall into label classes by (X mod d, P mod d), at most
    min(d^2, 2^n) of them, numbered by doubling over qubits like the phase
    exponent.  Each class has one ancilla vector v = D(X, P) anc_init up to
    phase, so branch r returns exp(i pi k_r / d) <anc_init|v_class>, and the
    residual is that of the classes weighted by their share of branches; a
    closed loop is one class, whose residual is exactly 0.
    """
    x, p, k, pair = _torus_polynomial(n_qubits, d, steps, convention)
    classes = {(x[0], p[0]): 0}
    moves = [None] * n_qubits
    for q in range(n_qubits):
        if x[q + 1] or p[q + 1]:
            moves[q] = np.array([
                classes.setdefault(((cx + x[q + 1]) % d, (cp + p[q + 1]) % d),
                                   len(classes))
                for cx, cp in list(classes)])
    exponent, index = _evaluate([k], pair, moves)
    m = np.arange(d)
    roots = _roots(d)
    labels = np.array(list(classes))
    vectors = (roots.take(2 * labels[:, 1:] * m, mode="wrap")
               * anc_init.take(m - labels[:, :1], mode="wrap"))
    # One class holds every branch: grouped_residual's max(0, 1 - 1.0).
    residual = 0.0 if len(classes) == 1 else grouped_residual(
        np.bincount(index) / 2 ** n_qubits, vectors,
        lambda v1, v2: np.sum(np.conj(v1) * v2, axis=-1))
    return (roots.take(exponent, mode="wrap"), (vectors @ anc_init.conj()).take(index),
            residual)


def flat_step(z, dz):
    """Displace labels z = x + ip by dz: the new labels and the phase angle
    (x dp - p dx)/2 = Im(conj(z) dz)/2 of D(dz) D(z) = e^{i angle} D(z + dz)."""
    return z + dz, 0.5 * (np.conj(z) * dz).imag


def flat_labels(n_qubits: int, steps, z0: complex):
    """Final labels and accumulated phase angles of every register branch
    under symmetric controlled displacements (qubit, x, p), every label
    starting at z0 = x0 + i p0.

    With u = 1/2 and c = 1 the phase polynomial of the walk from the origin
    gives the net displacement (X, P) and angle (Q + X P) / 2; starting at z0
    adds (x0 P - p0 X) / 2, folded into Q's coefficients.  With symmetric
    steps X = sum_q S_q (1 - 2 b_q), S_q the sum of qubit q's steps, so its
    constant is minus half its bit coefficients, likewise P: a walk whose bit
    coefficients are all exactly zero returns every branch to z0 exactly.

    A branch's value of a row is a signed sum of the row's coefficients, so
    the sums of their magnitudes bound every number the evaluation makes; a
    walk whose bounds leave double precision raises ValueError before any
    branch is evaluated.
    """
    x, p, k, pair = _phase_polynomial(
        n_qubits, 1, [(q, dx, dp, True) for q, dx, dp in steps])
    x[0], p[0] = -sum(x[1:]) / 2, -sum(p[1:]) / 2
    k = [kq + z0.real * pq - z0.imag * xq for kq, xq, pq in zip(k, x, p)]
    bound_x, bound_p = sum(map(abs, x)), sum(map(abs, p))
    if not math.isfinite(bound_x + bound_p + abs(z0)):
        raise ValueError("branch label is not finite: the sequence overflows "
                         "double precision")
    bound_k = sum(map(abs, k)) + sum(abs(c) for row in pair for c in row)
    x0, p0 = abs(z0.real), abs(z0.imag)
    bound_z0 = x0 * (p0 + bound_p) + p0 * (x0 + bound_x)   # flat_overlap's products
    if not math.isfinite(bound_k + bound_x * bound_p + bound_z0):
        raise ValueError("branch phase or overlap is not finite: the sequence "
                         "overflows double precision")
    k, x, p = _evaluate([k, x, p], pair, dtype=np.float64)
    z = x + 1j * p
    z += z0
    return z, (k + x * p) / 2


def flat_overlap(z1, z2):
    """Coherent overlaps <z1|z2> = e^{-|z2 - z1|^2/4} e^{i Im(conj(z1) z2)/2}
    of labels z = x + ip, elementwise."""
    # Im(conj(z1) z2) alone: the real part of the product can overflow.
    return np.exp(-np.abs(z2 - z1) ** 2 / 4.0 + 0.5j * (z1.real * z2.imag - z1.imag * z2.real))


def sphere_step(z: np.ndarray, leg: np.ndarray, n_spins: int):
    """Displace stereographic labels ``z`` by ``leg`` (per branch).

    Returns (z_new, angle) with D(leg)|z> = e^{i angle} |z_new>,
    z_new = (z + leg) / (1 - z conj(leg)) and angle = N arg(1 - z conj(leg)).
    Raises :class:`SingularCompositionError` where the per-spin |1> component
    of the result, |1 - z conj(leg)| / sqrt((1 + |z|^2)(1 + |leg|^2)), is
    below SINGULAR_TOL.
    """
    den, num = 1.0 - z * np.conj(leg), z + leg
    # (1 + |z|^2)(1 + |leg|^2) = |den|^2 + |num|^2, and |den|^2 is negligible
    # beside it wherever the floor can bite.
    singular = np.abs(den) < SINGULAR_TOL * np.abs(num)
    if singular.any():
        raise SingularCompositionError(
            f"{int(np.sum(singular))} branch(es) driven to the south pole: "
            f"|1 - z*conj(step)| = {float(np.min(np.abs(den))):.3e}")
    return num / den, n_spins * np.arctan2(den.imag, den.real)


def sphere_overlap(z1, z2, n_spins: int):
    """<z1|z2> = ((1 + conj(z1) z2) / sqrt((1 + |z1|^2)(1 + |z2|^2)))^N,
    elementwise and in the log domain, which stays accurate for N up to 1e10
    and underflows gracefully to 0.  Antipodal labels, 1 + conj(z1) z2 = 0,
    give exactly 0."""
    w = np.conj(z1) * z2
    # log|1 + w| = log1p(|1 + w|^2 - 1) / 2 stays accurate for small complex w
    # (numpy's log1p is real-only); at the antipodes its argument is -1.
    mag = 2.0 * w.real + np.abs(w) ** 2
    apart = mag > -1.0
    log_num = 0.5 * np.log1p(np.where(apart, mag, 0.0)) + \
        1j * np.arctan2(w.imag, 1.0 + w.real)
    log_den = 0.5 * (np.log1p(np.abs(z1) ** 2) + np.log1p(np.abs(z2) ** 2))
    return np.where(apart, np.exp(n_spins * (log_num - log_den)), 0.0)
