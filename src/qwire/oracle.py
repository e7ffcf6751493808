"""Independent finite-difference oracle for cross-validating the spectral solver.

The operator H = -(1/(2*sqrt(eta))) d/dx (eta**-0.5 d/dx) + V is discretized
through its quadratic form

    Q(u) = (1/2) sum p_{i+1/2} |u_{i+1} - u_i|**2 / h
         + sum V_i sqrt(eta_i) |u_i|**2 h            (trapezoid)
         - (1/2) psi^H A psi                          (Robin boundary term)

with p = eta**-0.5 and the mass matrix m = diag(sqrt(eta_i) h) (halved at
the ends), so the discrete problem is exactly Hermitian and second-order
accurate.  Any boundary condition other than Dirichlet must admit the Robin
form dpsi = A psi (no eigenvalue -1).  The eigenvalues solved for are those
of the mass-scaled stiffness matrix Hs = m**-1/2 H m**-1/2.

Nodes are numbered in a folded order: for depth d = 0, 1, ..., N // 2 come
node d of every interval, then node N - d of every interval (the centre node
of an even N once).  The first 2n positions are then the boundary nodes in
(left endpoints; right endpoints) order, so the Robin block -A/2 sits in the
top-left corner and Dirichlet conditions eliminate the first 2n rows and
columns.  Neighbouring nodes of an interval lie at most 2n positions apart,
so Hs is a band matrix of half-bandwidth 2n.  It is assembled straight into
LAPACK lower band storage (real unless A is complex), and
``scipy.linalg.eig_banded`` (``?sbevx``/``?hbevx``) selects its k lowest
eigenvalues by index.  Its reduction to tridiagonal form leaves errors of up
to tens of eps ||Hs||, so each eigenvalue is then polished: two steps of
inverse iteration by banded LU at the computed eigenvalues give vectors
spanning the k lowest eigenspaces, and the Rayleigh-Ritz values of the
quadratic form, summed over edge differences so that the O(1/h**2) entries
never cancel, are the eigenvalues returned.  No dense matrix is formed:
memory is O(n**2 N) per resolution, and the band reduction, which dominates
the time, costs O(n**3 N**2).

Eigenvalues are Richardson-extrapolated from resolutions N and 2N.  The
error estimate is the extrapolation step |lam_N - lam_2N| / 3 plus
(5/3) eps max(||Hs_N||_1, ||Hs_2N||_1), the rounding of an eigensolver that
works on the entries of Hs, weighted as (4 lam_2N - lam_N) / 3 weighs it.
The second term keeps the estimate a bound where the two resolutions agree
by accident, closer than the error left after extrapolation.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.optimize

from . import expr
from .bc import CayleySingular, UnitaryBC, cayley_degeneracy, unitary_to_cayley
from .domain import QuantumDomain

__all__ = ["fd_spectrum", "robin_edge_groundstate"]


def _folded_positions(n: int, N: int) -> np.ndarray:
    """Position of node j of interval k in the folded order, shape (n, N + 1)."""
    j = np.arange(N + 1)
    depth = np.minimum(j, N - j)
    right = j > N - j
    return (2 * n * depth + n * right)[np.newaxis, :] + np.arange(n)[:, np.newaxis]


def _discretize(domain: QuantumDomain, N: int):
    """The quadratic form at resolution N, on nodes in the folded order.

    Returns ``(lo, hi, stiff, pot, mass)``: edge e joins positions lo[e] < hi[e]
    with weight stiff[e] = p / (2h); pot and mass are the trapezoid weights
    V sqrt(eta) w and sqrt(eta) w of each node.
    """
    n = domain.n
    pos = _folded_positions(n, N)
    lo, hi, stiff = [], [], []
    pot = np.empty(n * (N + 1))
    mass = np.empty(n * (N + 1))
    for k, iv in enumerate(domain.intervals):
        xs = np.linspace(iv.a, iv.b, N + 1)
        h = (iv.b - iv.a) / N
        eta = np.array([expr.evaluate(iv.metric, x) for x in xs])
        mids = 0.5 * (xs[:-1] + xs[1:])
        p_mid = np.array([expr.evaluate(iv.metric, x) for x in mids]) ** -0.5
        w = np.full(N + 1, h)
        w[0] = w[-1] = 0.5 * h
        p = pos[k]
        mass[p] = np.sqrt(eta) * w
        pot[p] = np.array([expr.evaluate(iv.potential, x) for x in xs]) * mass[p]
        lo.append(np.minimum(p[:-1], p[1:]))
        hi.append(np.maximum(p[:-1], p[1:]))
        stiff.append(0.5 * p_mid / h)
    return np.concatenate(lo), np.concatenate(hi), np.concatenate(stiff), pot, mass


def _band(disc, A: np.ndarray | None, kd: int) -> np.ndarray:
    """Hs in lower band storage, ``band[i, c] = Hs[c + i, c]``."""
    lo, hi, stiff, pot, mass = disc
    dim = mass.size
    band = np.zeros((kd + 1, dim), dtype=float if A is None else A.dtype)
    band[0] = pot + np.bincount(lo, stiff, dim) + np.bincount(hi, stiff, dim)
    band[hi - lo, lo] = -stiff
    if A is not None:
        rows, cols = np.tril_indices(kd)
        band[rows - cols, cols] -= 0.5 * A[rows, cols]
    d = mass ** -0.5
    d_below = np.concatenate([d, np.zeros(kd)])[np.arange(kd + 1)[:, np.newaxis]
                                                + np.arange(dim)]
    return band * d * d_below


def _norm1(band: np.ndarray) -> float:
    """1-norm of the Hermitian matrix held in lower band storage."""
    a = np.abs(band)
    cols = a.sum(axis=0)
    for i in range(1, a.shape[0]):
        cols[i:] += a[i, :-i]
    return float(cols.max())


def _ritz(band: np.ndarray, lams: np.ndarray, disc, A: np.ndarray | None) -> np.ndarray:
    """Rayleigh-Ritz values of the quadratic form on the span of two steps of
    inverse iteration at each of ``lams``.  Rows of the folded order that
    ``band`` lacks (the Dirichlet nodes) are zero."""
    lo, hi, stiff, pot, mass = disc
    kd = band.shape[0] - 1
    dim = band.shape[1]
    ab = np.zeros((2 * kd + 1, dim), band.dtype)
    ab[kd:] = band
    for i in range(1, kd + 1):
        ab[kd - i, i:] = band[i, :dim - i].conj()
    rng = np.random.default_rng(0)
    X = np.empty((dim, len(lams)), band.dtype)
    for j, lam in enumerate(lams):
        shifted = ab.copy()
        shifted[kd] -= lam
        x = rng.standard_normal(dim)
        for _ in range(2):
            x = scipy.linalg.solve_banded((kd, kd), shifted, x)
            x /= np.linalg.norm(x)
        X[:, j] = x
    X = np.linalg.qr(X)[0]
    u = np.zeros((mass.size, len(lams)), X.dtype)
    u[mass.size - dim:] = X * mass[mass.size - dim:, np.newaxis] ** -0.5
    du = u[hi] - u[lo]
    K = (du.conj().T * stiff) @ du + (u.conj().T * pot) @ u
    if A is not None:
        ends = u[:A.shape[0]]
        K -= 0.5 * ends.conj().T @ A @ ends
    return scipy.linalg.eigvalsh(K)


def fd_spectrum(U: UnitaryBC, domain: QuantumDomain, N: int = 600, k: int = 8,
                extrapolate: bool = True):
    """The k lowest eigenvalues of H_U by finite differences.

    Returns ``(lams, estimates)``: Richardson-extrapolated eigenvalues from
    resolutions N and 2N plus per-eigenvalue error estimates.  With
    ``extrapolate=False`` the raw resolution-N eigenvalues are returned with
    ``estimates=None`` (useful for convergence-order studies).  Requires
    200 <= N <= 4000 and either a pure Dirichlet U or one with no
    eigenvalue -1.
    """
    if not 200 <= N <= 4000:
        raise ValueError("N must lie in [200, 4000]")
    if U.matrix.shape[0] != 2 * domain.n:
        raise ValueError("boundary condition size does not match the domain")

    deg = cayley_degeneracy(U, -1)
    dirichlet = np.linalg.norm(U.matrix + np.eye(2 * domain.n)) <= 1e-10
    if deg > 0 and not dirichlet:
        raise CayleySingular(
            "finite-difference oracle supports Dirichlet or Robin-reducible "
            "boundary conditions only"
        )
    A = None
    if not dirichlet:
        A = unitary_to_cayley(U).matrix
        if not A.imag.any():
            A = A.real

    def solve(res: int):
        disc = _discretize(domain, res)
        band = _band(disc, A, 2 * domain.n)
        if dirichlet:
            band = band[:, 2 * domain.n:]
        vals = scipy.linalg.eig_banded(band, lower=True, eigvals_only=True,
                                       select="i", select_range=(0, k - 1))
        return _ritz(band, vals, disc, A), _norm1(band)

    if not extrapolate:
        return solve(N)[0], None
    lam_1, norm_1 = solve(N)
    lam_2, norm_2 = solve(2 * N)
    lams = (4.0 * lam_2 - lam_1) / 3.0
    rounding = 5.0 / 3.0 * np.finfo(float).eps * max(norm_1, norm_2)
    estimates = np.abs(lam_1 - lam_2) / 3.0 + rounding
    return lams, estimates


def robin_edge_groundstate(L: float, kappa: float) -> float:
    """Ground level of the free interval of length L with dpsi = kappa * psi.

    The symmetric bound state cosh(c(x - mid)) satisfies
    c * tanh(c L / 2) = kappa; the level is -c**2 / 2.  Requires
    kappa * L > 2 so the transcendental root is bracketed by (kappa, 2 kappa).
    """
    if L <= 0.0 or kappa <= 0.0:
        raise ValueError("L and kappa must be positive")
    if kappa * L <= 2.0:
        raise ValueError("robin_edge_groundstate requires kappa * L > 2")

    def f(c: float) -> float:
        return c * math.tanh(0.5 * c * L) - kappa

    c = scipy.optimize.brentq(f, kappa, 2.0 * kappa, xtol=1e-12)
    return -0.5 * c * c
