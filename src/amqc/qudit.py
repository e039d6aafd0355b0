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

Every register-level gate built from closed displacement loops is independent
of this choice (the prefactors cancel pairwise around a loop); the test suite
asserts that explicitly.

Fourier orientation: with the kernel F[m, n] = omega_d(m*n)/sqrt(d) used
here, the conjugation comes out as F^dag Z_d F = X_d (verified numerically
for d = 2..8).  The reversed conjugation F Z_d F^dag yields X_d^dag instead,
so the ordering matters for d > 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def omega(d: int, a) -> complex:
    """The d-th root of unity raised to an integer power: exp(2*pi*i*a/d)."""
    return np.exp(2j * np.pi * np.asarray(a) / d)


@dataclass(frozen=True, eq=False)
class LatticeLabel:
    """A point (x, p) of the Z(d) x Z(d) lattice.

    Raw integers are kept so sequences may use negative displacements
    literally; equality and hashing reduce mod d.
    """

    x: int
    p: int
    d: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"qudit dimension must be >= 2, got {self.d}")

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
            raise ValueError("cannot add labels of different qudit dimension")
        return LatticeLabel(self.x + other.x, self.p + other.p, self.d)


def _check_convention(d: int, convention: str) -> None:
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown phase convention {convention!r}")
    if convention == MOD_INVERSE and d % 2 == 0:
        raise ValueError(
            f"{MOD_INVERSE!r} needs an inverse of 2 mod d; d={d} is even")


def generalized_pauli(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The shift and clock pair (X_d, Z_d) in the position basis.

    X_d cycles |m>_x -> |m+1 mod d>_x and Z_d = diag(omega_d^0, ...,
    omega_d^{d-1}); for d = 2 these are the Pauli X and Z matrices.
    """
    if d < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {d}")
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
    if d < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {d}")
    m = np.arange(d)
    return omega(d, np.outer(m, m)) / np.sqrt(d)


def rotation(d: int, theta: float) -> np.ndarray:
    """Diagonal rotation diag(e^{i n theta}), n = 0..d-1.

    ``rotation(d, 2*pi/d)`` reproduces Z_d exactly.
    """
    return np.diag(np.exp(1j * theta * np.arange(d))).astype(complex)


def displacement_prefactor(d: int, x: int, p: int, convention: str) -> complex:
    """Scalar prefactor multiplying Z_d^p X_d^x in a displacement operator."""
    _check_convention(d, convention)
    if convention == MOD_INVERSE:
        inv2 = (d + 1) // 2
        return complex(omega(d, -inv2 * x * p))
    return complex(np.exp(-1j * np.pi * x * p / d))


def displacement(d: int, x: int, p: int, convention: str = HALF_ROOT) -> np.ndarray:
    """Displacement operator D_d(x, p) = prefactor * Z_d^p X_d^x.

    ``x`` and ``p`` may be any integers; the matrix part only depends on them
    mod d, and in HALF_ROOT mode the prefactor depends on them mod 2d.  Built
    as the phased permutation D[(m + x) mod d, m] = prefactor *
    omega_d(p (m + x)), with the exponent reduced mod d.
    """
    if d < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {d}")
    m = np.arange(d)
    rows = (m + x % d) % d
    mat = np.zeros((d, d), dtype=complex)
    mat[rows, m] = displacement_prefactor(d, x, p, convention) * omega(d, p % d * rows % d)
    return mat


def displacement_from_label(label: LatticeLabel, convention: str = HALF_ROOT) -> np.ndarray:
    return displacement(label.d, label.x, label.p, convention)


def compose_labels(l1: LatticeLabel, l2: LatticeLabel,
                   convention: str = HALF_ROOT) -> tuple[LatticeLabel, complex]:
    """Combine two displacements applied in sequence (l1 first, then l2).

    Returns the summed label and the scalar such that, as matrices,

        D(l2) @ D(l1) = scalar * D(l1 + l2).

    Under MOD_INVERSE the scalar is omega_d(2^{-1} (x1 p2 - p1 x2)); under
    HALF_ROOT it is exp(i pi (x1 p2 - p1 x2) / d).  Both are antisymmetric in
    the two labels, so composing a displacement with its inverse gives phase 1.
    """
    if l1.d != l2.d:
        raise ValueError("labels live on different lattices")
    _check_convention(l1.d, convention)
    d = l1.d
    cross = l1.x * l2.p - l1.p * l2.x
    if convention == MOD_INVERSE:
        scalar = complex(omega(d, ((d + 1) // 2) * cross))
    else:
        scalar = complex(np.exp(1j * np.pi * cross / d))
    return l1 + l2, scalar


def loop_phase(labels, convention: str = HALF_ROOT) -> complex:
    """Scalar s with D(l_k) ... D(l_1) = s * I for a closed label sequence.

    ``labels`` is given in application order (first displacement first).  The
    sequence must sum to (0, 0) mod d, otherwise an :class:`OpenLoopError`
    reporting the net label is raised.  For the rectangle
    [(x,0), (0,p), (-x,0), (0,-p)] the result is omega_d(x*p) under either
    convention.
    """
    labels = list(labels)
    if not labels:
        raise ValueError("empty displacement sequence")
    d = labels[0].d
    acc = labels[0]
    scalar = 1.0 + 0.0j
    for lab in labels[1:]:
        acc, step = compose_labels(acc, lab, convention)
        scalar *= step
    nx, npp = acc.x, acc.p
    if nx % d != 0 or npp % d != 0:
        raise OpenLoopError(nx, npp, d)
    # The residual D(net) with net = 0 mod d reduces to its prefactor times I
    # (Z^p X^x = I there); in HALF_ROOT mode that prefactor can be -1.
    scalar *= displacement_prefactor(d, nx, npp, convention)
    return scalar
