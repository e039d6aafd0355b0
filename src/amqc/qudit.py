"""Operators and displacement algebra on the discrete toroidal phase space of a qudit.

A d-level ancilla carries the Z(d) x Z(d) lattice phase space.  The cyclic
shift ``X_d`` (position translation) and the modulation ``Z_d`` (momentum
translation) satisfy the Weyl relation

    Z_d^p X_d^x = omega_d(x*p) X_d^x Z_d^p,    omega_d(a) = exp(2*pi*i*a/d),

and phased products of the two are the displacement operators.  Two prefactor
conventions are supported because the symmetric prefactor omega_d(-2^{-1} x p)
needs a modular inverse of 2, which only exists for odd d:

* ``MOD_INVERSE``:  omega_d(-2^{-1} x p) with 2^{-1} = (d+1)//2 mod d.
  Exactly d-periodic in the labels.  Odd d only.
* ``HALF_ROOT``:  exp(-i pi x p / d).  Defined for every d at the cost of the
  prefactor being 2d-periodic in the labels.

Both are one law with a phase unit c: the prefactor is exp(-i pi c x p / d)
and D(l2) D(l1) = exp(i pi c (x1 p2 - p1 x2) / d) D(l1 + l2), with c = d + 1
(twice 2^{-1}, mod 2d) for MOD_INVERSE and c = 1 for HALF_ROOT.  So every
phase on the torus is one entry exp(i pi j / d) of a table of 2d roots, at an
integer exponent j mod 2d formed from the label residues, and is exact for
labels of any size.

Every register-level gate built from closed displacement loops is independent
of this choice (the prefactors cancel pairwise around a loop); the test suite
asserts that explicitly.

Fourier orientation: with the kernel F[m, n] = omega_d(m*n)/sqrt(d) used
here, the conjugation comes out as F^dag Z_d F = X_d (verified numerically
for d = 2..8).  The reversed conjugation F Z_d F^dag yields X_d^dag instead,
so the ordering matters for d > 2.
"""

from __future__ import annotations

import functools

import numpy as np

from .report import _Frozen

MOD_INVERSE = "modular-inverse"
HALF_ROOT = "half-root"
CONVENTIONS = (MOD_INVERSE, HALF_ROOT)


class OpenLoopError(ValueError):
    """A displacement sequence did not close on the torus.

    Carries the net (x, p) label so callers can see how far the loop missed.
    """

    def __init__(self, net_x: int, net_p: int, d: int):
        self.net = (net_x, net_p)
        self.d = d
        super().__init__(
            f"displacement loop does not close: net label ({net_x}, {net_p}) "
            f"!= (0, 0) mod {d}")


def _integer(value) -> bool:
    """An int or numpy integer, not a bool: True is no qubit, level or label."""
    # A plain int first: the case of nearly every label.
    return type(value) is int or (isinstance(value, (int, np.integer))
                                  and not isinstance(value, bool))


def _check_dimension(d) -> None:
    if not (_integer(d) and d >= 2):
        raise ValueError(f"qudit dimension must be an integer >= 2, got {d!r}")


def _check_label(x, p, kind: str) -> None:
    if not (_integer(x) and _integer(p)):
        raise ValueError(f"{kind} label ({x!r}, {p!r}) is not a pair of integers")


def _residues(labels, d: int) -> np.ndarray:
    """Integer labels of any size mod 2d as int64; non-integers, bools included, are refused.
    A list or tuple is read entry by entry: numpy would take [True, -1] for integers."""
    a = np.asarray(labels, dtype=object if isinstance(labels, (list, tuple)) else None)
    if not (a.dtype.kind in "iu" or a.dtype == object and all(map(_integer, a.flat))):
        kind = "non-integer" if a.dtype == object else a.dtype
        raise ValueError(f"labels must be integers or integer arrays, got {kind} values")
    return np.asarray(a % (2 * d), dtype=np.int64)


def omega(d: int, a) -> complex:
    """The d-th root of unity raised to an integer power: exp(2*pi*i*a/d)."""
    return np.exp(2j * np.pi * np.asarray(a) / d)


class LatticeLabel(_Frozen):
    """A point (x, p) of the Z(d) x Z(d) lattice.

    Raw integers (int or numpy integer, not bool) are kept so sequences may
    use negative displacements literally; equality and hashing reduce mod d.
    """

    def __init__(self, x: int, p: int, d: int):
        _check_dimension(d)
        _check_label(x, p, "lattice")
        self.__dict__.update(x=x, p=p, d=d)

    def reduced(self) -> tuple[int, int]:
        return (self.x % self.d, self.p % self.d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticeLabel):
            return NotImplemented
        return self.d == other.d and self.reduced() == other.reduced()

    def __hash__(self) -> int:
        return hash((self.d,) + self.reduced())

    def __neg__(self) -> "LatticeLabel":
        return LatticeLabel(-self.x, -self.p, self.d)

    def __add__(self, other: "LatticeLabel") -> "LatticeLabel":
        if self.d != other.d:
            raise ValueError("labels live on different lattices")
        return LatticeLabel(self.x + other.x, self.p + other.p, self.d)


def _phase_unit(d: int, convention: str) -> int:
    """The phase unit c of ``convention`` on the Z(d) x Z(d) torus: 1 for
    HALF_ROOT, d + 1 for MOD_INVERSE (odd d only)."""
    if convention == HALF_ROOT:
        return 1
    if convention != MOD_INVERSE:
        raise ValueError(f"unknown phase convention {convention!r}")
    if d % 2 == 0:
        raise ValueError(
            f"{MOD_INVERSE!r} needs an inverse of 2 mod d; d={d} is even")
    return d + 1


@functools.lru_cache(maxsize=8)
def _roots(d: int) -> np.ndarray:
    """Read-only exp(i pi j / d) for j = 0 .. 2d-1: every phase on the torus."""
    roots = np.exp(1j * np.pi * np.arange(2 * d) / d)
    roots.setflags(write=False)
    return roots


def generalized_pauli(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The shift and clock pair (X_d, Z_d) in the position basis.

    X_d cycles |m>_x -> |m+1 mod d>_x and Z_d = diag(omega_d^0, ...,
    omega_d^{d-1}); for d = 2 these are the Pauli X and Z matrices.
    """
    _check_dimension(d)
    x = np.zeros((d, d), dtype=complex)
    for m in range(d):
        x[(m + 1) % d, m] = 1.0
    z = np.diag(omega(d, np.arange(d)))
    return x, z


def fourier(d: int) -> np.ndarray:
    """Discrete Fourier matrix F[m, n] = omega_d(m*n)/sqrt(d).

    Unitary, maps the position basis onto the momentum basis, and satisfies
    F^dag Z_d F = X_d in this index convention.
    """
    _check_dimension(d)
    m = np.arange(d)
    return omega(d, np.outer(m, m)) / np.sqrt(d)


def rotation(d: int, theta: float) -> np.ndarray:
    """Diagonal rotation diag(e^{i n theta}), n = 0..d-1.

    ``rotation(d, 2*pi/d)`` reproduces Z_d exactly.
    """
    _check_dimension(d)
    return np.diag(np.exp(1j * theta * np.arange(d))).astype(complex)


def displacement_prefactor(d: int, x, p, convention: str):
    """The prefactor multiplying Z_d^p X_d^x in D_d(x, p), elementwise.

    ``x`` and ``p`` are integers or integer arrays that broadcast together;
    the result is a complex array of their broadcast shape (a numpy scalar
    for two integers): exp(-i pi c x p / d), with x and p reduced mod 2d.
    """
    return _roots(d)[-_phase_unit(d, convention) * (x % (2 * d)) * (p % (2 * d)) % (2 * d)]


def displacements(d: int, x, p, convention: str = HALF_ROOT) -> np.ndarray:
    """Stack of displacement operators D_d(x, p), one per broadcast (x, p).

    ``x`` and ``p`` are integer arrays (or integers) that broadcast to a
    shape S; the result has shape S + (d, d).  Each D_d(x, p) is the phased
    permutation D[(m + x) mod d, m] = prefactor * omega_d(p (m + x)), with
    the exponent reduced mod d, so the whole stack costs a few array passes
    however many labels it holds.
    """
    _check_dimension(d)
    if not (_integer(x) and _integer(p)):
        x, p = _residues(x, d), _residues(p, d)   # D is 2d-periodic in each label
    stack = np.broadcast(x, p).shape
    # The column index m leads and the label axes trail, so x and p
    # broadcast as given and two integers stay cheap Python arithmetic.
    m = np.arange(d).reshape((d,) + (1,) * len(stack))
    rows = (m + x % d) % d
    phase = displacement_prefactor(d, x, p, convention) * _roots(d)[2 * (p % d) * rows % (2 * d)]
    out = np.zeros(stack + (d, d), dtype=complex)
    out[np.indices(stack, sparse=True) + (rows, m)] = phase
    return out


def displacement(d: int, x: int, p: int, convention: str = HALF_ROOT) -> np.ndarray:
    """Displacement operator D_d(x, p) = prefactor * Z_d^p X_d^x.

    ``x`` and ``p`` are single integers; :func:`displacements` builds a
    stack.  The matrix part only depends on them mod d, and in HALF_ROOT mode
    the prefactor depends on them mod 2d.
    """
    return displacements(d, x, p, convention)


def compose_labels(l1, l2, convention: str = HALF_ROOT, d: int | None = None):
    """Combine two displacements applied in sequence (l1 first, then l2).

    Returns the summed label and the scalar such that, as matrices,

        D(l2) @ D(l1) = scalar * D(l1 + l2).

    The scalar is exp(i pi c (x1 p2 - p1 x2) / d): omega_d(2^{-1} (x1 p2 -
    p1 x2)) under MOD_INVERSE.  It is antisymmetric in the two labels, so
    composing a displacement with its inverse gives phase 1.

    With ``d``, ``l1`` and ``l2`` are (x, p) pairs of integer arrays that
    broadcast to a shape S, giving the arrays (x1 + x2, p1 + p2), as numpy
    adds them, and S scalars, exact for labels of any size (reduced mod 2d).
    """
    if d is None:   # two LatticeLabel: the batch of one
        total, d = l1 + l2, l1.d   # refuses labels of different lattices
        return total, complex(compose_labels((l1.x, l1.p), (l2.x, l2.p), convention, d)[1])
    _check_dimension(d)
    x1, p1, x2, p2 = (_residues(a, d) for a in (*l1, *l2))
    given = [np.asarray(a) for a in (*l1, *l2)]
    scalars = _roots(d)[_phase_unit(d, convention) * ((x1 * p2 - p1 * x2) % (2 * d)) % (2 * d)]
    return (given[0] + given[2], given[1] + given[3]), scalars


def loop_phase(labels, convention: str = HALF_ROOT, d: int | None = None):
    """Scalar s with D(l_k) ... D(l_1) = s * I for a closed label sequence.

    ``labels`` is given in application order (first displacement first),
    as a list of :class:`LatticeLabel` or, with ``d``, as integer arrays
    (x, p) of shape (B, L): B sequences, B scalars.  Labels are reduced mod
    2d first, so any size is exact.  A sequence must sum to (0, 0) mod d,
    otherwise an :class:`OpenLoopError` reporting the (first) net label mod d
    is raised.  For the rectangle [(x,0), (0,p), (-x,0), (0,-p)] the result
    is omega_d(x*p) under either convention.
    """
    single = d is None
    if single:
        labels = list(labels)
        if not labels:
            raise ValueError("empty displacement sequence")
        d = labels[0].d
        if any(lab.d != d for lab in labels):
            raise ValueError("labels live on different lattices")
        labels = np.array([[lab.x for lab in labels]]), np.array([[lab.p for lab in labels]])
    _check_dimension(d)
    c = _phase_unit(d, convention)
    # x and p apart: stacked, numpy would take a bool beside an int for an int.
    xp = [_residues(a, d) for a in labels] if np.iterable(labels) else []
    if len(xp) != 2 or xp[0].ndim != 2 or xp[0].shape != xp[1].shape or not xp[0].shape[1]:
        raise ValueError("loop labels must be integer arrays (x, p) of one shape (B, L)")
    xp = np.array(xp)
    # The composition exponents c (X p - P x), (X, P) the label before each
    # step, and the closed net label's prefactor -c X P: D(X, P) is that times I.
    net = xp.cumsum(axis=2)
    cross = (net - xp) % (2 * d) * xp[::-1]     # [X p, P x]
    area = ((cross[0] - cross[1]) % (2 * d)).sum(axis=1)
    net = net[:, :, -1] % (2 * d)
    if (net % d).any():
        i = int(np.argmax((net % d).any(axis=0)))
        raise OpenLoopError(int(net[0, i] % d), int(net[1, i] % d), d)
    phases = _roots(d)[c * ((area - net[0] * net[1]) % (2 * d)) % (2 * d)]
    return complex(phases[0]) if single else phases
