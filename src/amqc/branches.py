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
qudits).  One pass over the steps gives the coefficients, and one product
of two half tables the 2^n values.  On the torus, branches that share (X mod
d, P mod d) form a label class with one ancilla vector, at most min(d^2, 2^n)
of them, and a closed loop is one class; on the plane a walk is closed when
every register-bit coefficient of X and P is 0.

The residual entanglement, 1 minus the top eigenvalue of the ancilla's state
sum_r |a_r|^2 |l_r><l_r|, comes from a pivoted Cholesky factor of the Gram
matrix of the final labels (on the torus, of the label classes), whose rank
is a few when they nearly coincide.

The torus engine takes a batch: B sequences on one n and d, one product
over their coefficients and one numbering of their classes; a single
extraction is the batch of one.
"""

from __future__ import annotations

import cmath
import functools
import itertools
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


def _finite_label(label) -> complex:
    """A branch's initial ancilla label as a complex number; ValueError
    unless it is finite."""
    z = complex(label)
    if not cmath.isfinite(z):
        raise ValueError(f"initial label {z!r} is not finite")
    return z


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
    x, p, k = [0] * (n_qubits + 1), [0] * (n_qubits + 1), [0] * (n_qubits + 1)
    pair = [[0] * n_qubits for _ in range(n_qubits)]
    pushed = set()   # the qubits whose P coefficient a step has moved
    for qubit, dx, dp, symmetric in steps:
        a, b = (1, -2) if symmetric else (0, 1)   # s = a + b b_qubit
        q, cdx = qubit + 1, c * dx
        if cdx:   # every phase term carries the step's x
            k[0] -= cdx * (2 * a * p[0] + a * a * dp)
            k[q] -= cdx * (2 * (a + b) * p[q] + 2 * b * p[0] + (2 * a + b) * b * dp)
            for t in pushed:
                pt = p[t + 1]
                if pt and t != qubit:
                    k[t + 1] -= 2 * cdx * a * pt
                    pair[min(t, qubit)][max(t, qubit)] -= 2 * cdx * b * pt
            x[0] += a * dx
            x[q] += b * dx
        if dp:
            p[0] += a * dp
            p[q] += b * dp
            pushed.add(qubit)
    return x, p, k, pair


@functools.lru_cache(maxsize=8)
def _monomials(n_qubits: int) -> np.ndarray:
    """(2^n, 1 + n + n(n-1)/2) read-only doubles: 1, b_q, b_t b_q (t < q)."""
    bits, (t, q) = register_bits(n_qubits), np.triu_indices(n_qubits, 1)
    table = np.concatenate([np.ones((2 ** n_qubits, 1)), bits, bits[:, t] * bits[:, q]], axis=1)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=8)
def _gather(n_qubits: int) -> np.ndarray:
    """Where :func:`_quadratic`'s K takes each entry (read-only) from a form
    laid out as [constant, b_q coefficients, pair row-major, 0]: the entry
    of a high half's monomial and a low half's (in :func:`_monomials` order)
    is the coefficient of their product, 0 beyond two qubits."""
    n, h = n_qubits, n_qubits // 2
    high, low = ([()] + [(q,) for q in part] + list(itertools.combinations(part, 2))
                 for part in (range(h), range(h, n)))
    position = {(): 0, **{(q,): 1 + q for q in range(n)},
                **{(t, q): 1 + n + n * t + q for t, q in itertools.combinations(range(n), 2)}}
    table = np.array([[position.get(u + v, 1 + n + n * n) for v in low] for u in high])
    table.setflags(write=False)
    return table


def _quadratic(rows, pair) -> np.ndarray:
    """B forms ``rows[i]`` = [constant, b_0 coefficient, ...] plus sum_{t<q}
    pair[i][n t + q] b_t b_q (``pair[i]`` n x n row-major, 0 for t >= q) on
    every register index, qubit 0 the most significant bit: (B, 2^n) values
    in the dtype of ``rows[0]``.  By halves H (qubits below n // 2) and L,
    each half's own terms against its :func:`_monomials` table, their outer
    sum and the cross terms b_H^T A b_L are one product u_H K u_L^T in
    doubles, exact for integers while every value is below 2^53; a float
    form's last bits depend on the BLAS kernel's summation order."""
    b, n = len(rows), len(rows[0]) - 1
    forms = np.array([[*row, *a, 0] for row, a in zip(rows, pair)], dtype=float)
    h = n // 2
    values = np.empty((b, 2 ** h, 2 ** (n - h)), dtype=np.asarray(rows[0]).dtype)
    np.matmul(_monomials(h) @ forms.take(_gather(n), axis=1), _monomials(n - h).T,
              out=values, casting="unsafe")
    return values.reshape(b, -1)


def _numbered(starts, moves) -> np.ndarray:
    """Label classes of every register index (qubit 0 the most significant
    bit), (B, 2^n) from B classes ``starts`` at index 0, ``moves[q]`` mapping
    a class where b_q = 1 (None: no move): qubit q in turn fills the indices
    whose last set bit is q from those without it."""
    index = np.empty((len(starts), 2 ** len(moves)), dtype=np.int64)
    index[:, 0] = starts
    for q, move in enumerate(moves):
        step = 2 ** (len(moves) - q)
        done = index[:, ::step]   # the indices whose bits from q on are 0
        index[:, step // 2::step] = done if move is None else move.take(done)
    return index


def torus_gate(n_qubits: int, d: int, batch, anc_init: np.ndarray, convention: str):
    """Phase exp(i pi k/d) and overlap <anc_init|D(X, P) anc_init> of every
    register branch, and the residual entanglement of the uniform input, for
    each of B displacement-only sequences on n qubits: (B, 2^n) phases and
    overlaps and a list of B residuals, each sequence's as if it ran alone.

    ``batch`` lists each sequence's steps (qubit, x, p, symmetric) in
    application order: an apply-on-one step displaces branches whose control
    bit is 1 by (x, p), a symmetric one displaces bit 0 by +(x, p) and bit 1
    by -(x, p).  Branch r ends in exp(i pi k/d) D(X, P) times the initial
    ancilla state.  The exact pass (:func:`_phase_polynomial` on Python
    integers, u = pi / d, c the convention's phase unit) runs per sequence
    and keeps residues, k and pair coefficients mod 2d, so whatever the
    labels every exponent :func:`_quadratic` makes is below 2d (n + 1)^2.

    Branches fall into label classes by (X mod d, P mod d), at most
    min(d^2, 2^n) per sequence, numbered by :func:`_numbered` in one range
    over the batch.  A class has one ancilla vector v = D(X, P) anc_init up
    to phase, so branch r returns exp(i pi k_r / d) <anc_init|v_class>; the
    residual is that of the classes weighted by their share of branches.
    """
    c, m2 = _phase_unit(d, convention), 2 * d
    ks, pairs, starts, labels, moving, wide = [], [], [], [], [], []
    for i, steps in enumerate(batch):
        x, p, k, pair = _phase_polynomial(n_qubits, c, steps)
        start = len(labels)
        classes = {(x[0] % d, p[0] % d): start}
        for q in range(n_qubits):
            dx, dp = x[q + 1] % d, p[q + 1] % d
            if dx or dp:
                moving.append((q, start, [
                    classes.setdefault(((cx + dx) % d, (cp + dp) % d), start + len(classes))
                    for cx, cp in list(classes)]))
        labels += classes
        if len(classes) > 1:   # one class holds every branch: residual exactly 0
            wide.append((i, start, len(labels)))
        ks.append([v % m2 for v in k])
        pairs.append([v % m2 for row in pair for v in row])
        starts.append(start)
    # One map per qubit over every sequence's classes: the identity where a
    # sequence does not move, or has not yet made the class.
    moves = [None] * n_qubits
    for q, start, targets in moving:
        if moves[q] is None:
            moves[q] = np.arange(len(labels))
        moves[q][start:start + len(targets)] = targets
    exponent, index = _quadratic(ks, pairs), _numbered(starts, moves)
    m, roots, labels = np.arange(d), _roots(d), np.array(labels)
    vectors = (roots.take(2 * labels[:, 1:] * m, mode="wrap")
               * anc_init.take(m - labels[:, :1], mode="wrap"))
    # A stack of (1, d) @ (d,) products: each class's overlap is summed in
    # the same order however many classes the batch holds.
    returned = np.matmul(vectors[:, None], anc_init.conj())
    residuals = [0.0] * len(starts)
    for i, start, end in wide:   # overlaps <v1|v2> along the last axis
        residuals[i] = grouped_residual(np.bincount(index[i] - start) / 2 ** n_qubits,
                                        vectors[start:end],
                                        lambda v1, v2: np.sum(np.conj(v1) * v2, axis=-1))
    # Reduced first: a take in "wrap" mode steps a large index down by 2d at a time.
    return roots.take(np.remainder(exponent, m2, out=exponent)), returned.take(index), residuals


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

    A branch's value of a form is a signed sum of the form's coefficients, so
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
    pair = [v for row in pair for v in row]
    k, x, p = _quadratic([k, x, p], [pair, [0] * len(pair), [0] * len(pair)])
    z = x + 1j * p
    z += z0
    return z, (k + x * p) / 2


def flat_overlap(z1, z2):
    """Coherent overlaps <z1|z2> = e^{-|z2 - z1|^2/4} e^{i Im(conj(z1) z2)/2}
    of labels z = x + ip, elementwise."""
    # Im(conj(z1) z2) alone: the real part of the product can overflow.
    return np.exp(-np.abs(z2 - z1) ** 2 / 4.0 + 0.5j * (z1.real * z2.imag - z1.imag * z2.real))


def sphere_step(z: np.ndarray, leg: np.ndarray, n_spins: int, counts=1):
    """Displace stereographic labels ``z`` (each of ``counts`` branches) by ``leg``.

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
            f"{int(np.sum(singular * counts))} branch(es) driven to the south pole: "
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
