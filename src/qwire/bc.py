"""Boundary conditions as unitary matrices and their algebra.

A self-adjoint realization of the Schrodinger operator on a union of n
intervals is labelled by a unitary 2n x 2n matrix U acting on boundary data in
the (left endpoints; right endpoints) ordering.  Admissible boundary data
satisfies

    psi - i*dpsi = U (psi + i*dpsi).

This module provides the standard constructors (Dirichlet, Neumann,
quasi-periodic, general U(2), endpoint gluings), the Cayley transform between
U and Hermitian Robin operators A, and the degeneracy counts that locate U in
the Cayley subspaces C+- (eigenvalue -+1 present).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .domain import lagrange_form

__all__ = [
    "UnitaryBC",
    "CayleyOperator",
    "WireSpec",
    "CayleySingular",
    "make_dirichlet",
    "make_neumann",
    "make_quasiperiodic",
    "make_u2",
    "make_wire",
    "verify_wire",
    "cayley_to_unitary",
    "unitary_to_cayley",
    "cayley_degeneracy",
    "admissible_subspace",
    "compose",
    "random_unitary",
]

_UNITARITY_TOL = 1e-10
_CAYLEY_ANGLE_TOL = 1e-8


def _unitary_stack(matrices) -> np.ndarray:
    """``matrices`` stacked as one complex array, each checked as UnitaryBC
    checks its matrix: square of even size, with ||U^H U - I||_F at most
    _UNITARITY_TOL (a NaN defect fails).  The first that fails raises the
    ValueError UnitaryBC would raise for it."""
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    for U in mats:
        if U.ndim != 2 or U.shape[0] != U.shape[1] or U.shape[0] % 2 != 0 or U.shape[0] == 0:
            raise ValueError(f"boundary matrix must be square of even size, got {U.shape}")
    stack = np.stack(mats)
    defects = np.linalg.norm(stack.conj().swapaxes(1, 2) @ stack - np.eye(stack.shape[1]),
                             axis=(1, 2))
    bad = np.flatnonzero(~(defects <= _UNITARITY_TOL))
    if bad.size:
        raise ValueError(f"matrix is not unitary: ||U^H U - I||_F = {defects[bad[0]]:.3e}")
    return stack


class CayleySingular(Exception):
    """U has eigenvalue -1: the Robin form dpsi = A psi does not exist."""


@dataclass(frozen=True)
class UnitaryBC:
    """A unitary 2n x 2n boundary-condition matrix in (left; right) block order."""

    matrix: np.ndarray

    def __post_init__(self):
        U = _unitary_stack([self.matrix])[0]
        U.setflags(write=False)
        object.__setattr__(self, "matrix", U)

    @property
    def n(self) -> int:
        return self.matrix.shape[0] // 2

    @property
    def u11(self) -> np.ndarray:
        return self.matrix[: self.n, : self.n]

    @property
    def u12(self) -> np.ndarray:
        return self.matrix[: self.n, self.n:]

    @property
    def u21(self) -> np.ndarray:
        return self.matrix[self.n:, : self.n]

    @property
    def u22(self) -> np.ndarray:
        return self.matrix[self.n:, self.n:]


@dataclass(frozen=True)
class CayleyOperator:
    """Hermitian boundary (Robin) operator A with dpsi = A psi."""

    matrix: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.matrix, dtype=complex)
        defect = np.linalg.norm(A - A.conj().T)
        if not defect <= _UNITARITY_TOL:
            raise ValueError(f"matrix is not Hermitian: ||A - A^H||_F = {defect:.3e}")
        A = A.copy()
        A.setflags(write=False)
        object.__setattr__(self, "matrix", A)


@dataclass(frozen=True)
class WireSpec:
    """Endpoint identification: a permutation of {0..2n-1} plus phases.

    Endpoint index k < n means the left endpoint a_k, k >= n the right
    endpoint b_{k-n}.  For each k the identified partner is sigma[k]; the
    admissible data satisfies psi[sigma[k]] = exp(i*beta[k]) * psi[k].
    """

    sigma: tuple[int, ...]
    beta: tuple[float, ...]

    def __post_init__(self):
        sigma = tuple(int(s) for s in self.sigma)
        beta = tuple(float(b) for b in self.beta)
        m = len(sigma)
        if m % 2 != 0 or m == 0:
            raise ValueError("sigma must permute an even number of endpoints")
        if sorted(sigma) != list(range(m)):
            raise ValueError("sigma is not a permutation")
        if len(beta) != m:
            raise ValueError("beta must have one phase per endpoint")
        for k in range(m):
            j = sigma[k]
            if sigma[j] != k:
                raise ValueError("sigma must be an involution (pairwise gluing)")
            if j == k:
                if abs(_wrap_angle(beta[k])) > 1e-12:
                    raise ValueError("free endpoints must carry phase 0")
            elif abs(_wrap_angle(beta[k] + beta[j])) > 1e-12:
                raise ValueError("identified pair phases must satisfy beta_k = -beta_sigma(k)")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "beta", beta)


def _wrap_angle(t: float) -> float:
    return (t + np.pi) % (2 * np.pi) - np.pi


def make_dirichlet(n: int) -> UnitaryBC:
    """U = -I: boundary values vanish."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return UnitaryBC(-np.eye(2 * n, dtype=complex))


def make_neumann(n: int) -> UnitaryBC:
    """U = +I: normal derivatives vanish."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return UnitaryBC(np.eye(2 * n, dtype=complex))


def make_quasiperiodic(theta: float) -> UnitaryBC:
    """Glue the two endpoints of a single interval with a twist phase.

    Admissible data satisfies psi_r = exp(i*theta) psi_l and
    dpsi_r = -exp(i*theta) dpsi_l; theta = 0 is the periodic gluing,
    theta = pi the antiperiodic one.
    """
    U = np.array([[0.0, cmath.exp(-1j * theta)],
                  [cmath.exp(1j * theta), 0.0]], dtype=complex)
    return UnitaryBC(U)


def make_u2(theta: float, alpha: complex, beta: complex) -> UnitaryBC:
    """General U(2) boundary condition exp(i*theta/2) [[alpha, beta], [-conj(beta), conj(alpha)]]."""
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-12:
        raise ValueError("|alpha|^2 + |beta|^2 must equal 1")
    phase = cmath.exp(0.5j * theta)
    U = phase * np.array([[alpha, beta],
                          [-np.conj(beta), np.conj(alpha)]], dtype=complex)
    return UnitaryBC(U)


def cayley_to_unitary(A: CayleyOperator | np.ndarray) -> UnitaryBC:
    """U = (I - iA)(I + iA)^{-1}; well defined for every Hermitian A."""
    if not isinstance(A, CayleyOperator):
        A = CayleyOperator(np.asarray(A))
    M = A.matrix
    I = np.eye(M.shape[0])
    U = np.linalg.solve((I + 1j * M).T, (I - 1j * M).T).T
    return UnitaryBC(U)


def unitary_to_cayley(U: UnitaryBC) -> CayleyOperator:
    """A = -i(I - U)(I + U)^{-1}; raises :class:`CayleySingular` if -1 in spec(U)."""
    M = U.matrix
    eigs = np.linalg.eigvals(M)
    if np.min(np.abs(eigs + 1.0)) <= _CAYLEY_ANGLE_TOL:
        raise CayleySingular("-1 is an eigenvalue of U; Robin reduction undefined")
    I = np.eye(M.shape[0])
    A = -1j * np.linalg.solve((I + M).T, (I - M).T).T
    A = 0.5 * (A + A.conj().T)  # strip the anti-Hermitian numerical residue
    return CayleyOperator(A)


def cayley_degeneracy(U: UnitaryBC, sign: int = -1) -> int:
    """Count eigenvalues of U at -1 (sign=-1) or +1 (sign=+1) within angular tolerance."""
    if sign not in (-1, +1):
        raise ValueError("sign must be -1 or +1")
    target = -1.0 if sign < 0 else 1.0
    angles = np.angle(np.linalg.eigvals(U.matrix) / target)
    return int(np.sum(np.abs(angles) <= _CAYLEY_ANGLE_TOL))


def admissible_subspace(U: UnitaryBC) -> np.ndarray:
    """Orthonormal basis of the admissible boundary data of U.

    Returns a 4n x 2n matrix whose columns span
    {(psi, dpsi) : psi - i dpsi = U (psi + i dpsi)}; the first 2n rows are the
    psi components, the last 2n the dpsi components.
    """
    m = U.matrix.shape[0]
    I = np.eye(m)
    # (I - U) psi - i (I + U) dpsi = 0
    constraint = np.hstack([I - U.matrix, -1j * (I + U.matrix)])
    basis = scipy.linalg.null_space(constraint, rcond=1e-12)
    if basis.shape[1] != m:
        raise RuntimeError(f"admissible subspace has dimension {basis.shape[1]}, expected {m}")
    return basis


def make_wire(spec: WireSpec) -> UnitaryBC:
    """Unitary gluing of interval endpoints along ``spec``.

    Swapped endpoint pairs produce quasi-periodic 2x2 blocks, fixed points
    produce Neumann rows.  The admissible data satisfies
    psi[sigma[k]] = exp(i*beta[k]) psi[k] with phase-matched outward
    derivatives (Kirchhoff-type pairing).
    """
    m = len(spec.sigma)
    U = np.zeros((m, m), dtype=complex)
    for k in range(m):
        U[spec.sigma[k], k] = cmath.exp(1j * spec.beta[k]) if spec.sigma[k] != k else 1.0
    return UnitaryBC(U)


def verify_wire(U: UnitaryBC, spec: WireSpec, tol: float = 1e-10) -> dict:
    """Check the endpoint identifications of ``spec`` on the admissible data of U.

    Evaluates psi[sigma[k]] - exp(i*beta[k]) psi[k] on every basis vector of
    the admissible subspace.  Returns a report with the maximum residual, a
    pass flag, and a ``degenerate`` flag raised when the admissible data
    already forces psi = 0 (the identifications then hold vacuously).
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    m = len(spec.sigma)
    if m != U.matrix.shape[0]:
        raise ValueError("spec size does not match boundary dimension")
    basis = admissible_subspace(U)
    psi = basis[:m, :]
    residual = 0.0
    for k in range(m):
        row = psi[spec.sigma[k], :] - cmath.exp(1j * spec.beta[k]) * psi[k, :]
        residual = max(residual, float(np.max(np.abs(row))))
    psi_scale = float(np.max(np.abs(psi)))
    return {
        "passed": residual <= tol,
        "max_residual": residual,
        "degenerate": psi_scale <= tol,
    }


def compose(U1: UnitaryBC, U2: UnitaryBC) -> UnitaryBC:
    """Matrix product of two boundary conditions of the same size."""
    if U1.matrix.shape != U2.matrix.shape:
        raise ValueError("boundary condition dimension mismatch")
    return UnitaryBC(U1.matrix @ U2.matrix)


def random_unitary(m: int, rng: np.random.Generator) -> UnitaryBC:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    Z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    Q, R = np.linalg.qr(Z)
    Q = Q * (np.diag(R) / np.abs(np.diag(R)))
    return UnitaryBC(Q)


def isotropy_residual(U: UnitaryBC) -> float:
    """Largest |lagrange_form| over all pairs of admissible basis vectors."""
    basis = admissible_subspace(U)
    m = U.matrix.shape[0]
    worst = 0.0
    for i in range(basis.shape[1]):
        for j in range(basis.shape[1]):
            s = lagrange_form((basis[:m, i], basis[m:, i]), (basis[:m, j], basis[m:, j]))
            worst = max(worst, abs(s))
    return worst
