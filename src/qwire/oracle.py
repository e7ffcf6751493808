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
so Hs is a band matrix of half-bandwidth 2n, assembled straight into LAPACK
lower band storage (real unless A is complex).

The k lowest eigenvalues are found by counting.  The number of eigenvalues
below lam is the number of negative eigenvalues of H - lam M, which a
pairwise tree of 2x2 Schur complements on each interval's chain of nodes
plus the 2n x 2n block of its end nodes gives in O(n N) per lam (Haynsworth
inertia additivity, the discrete form of the count of the spectral solver).
Multisection on the count isolates the levels, and each is then polished:
two steps of inverse iteration by banded LU at the bracket midpoints give
vectors spanning the k lowest eigenspaces, and the Rayleigh-Ritz values of
the quadratic form, summed over edge differences so that the O(1/h**2)
entries never cancel, are the eigenvalues returned.  No dense matrix is
formed: memory is O(n**2 N) per resolution, and time O(n N) per count and
O(n**2 N) per polished level.

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

# multisection narrows a bracket to _SEPARATE of its distance to the next one,
# or to _FLOOR relative width; counts take at most _BATCH cells at a time
_SEPARATE, _FLOOR, _BATCH = 1e-4, 1e-14, 1 << 16


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
        eta = expr.evaluate(iv.metric, xs)
        p_mid = expr.evaluate(iv.metric, 0.5 * (xs[:-1] + xs[1:])) ** -0.5
        w = np.full(N + 1, h)
        w[0] = w[-1] = 0.5 * h
        p = pos[k]
        mass[p] = np.sqrt(eta) * w
        pot[p] = expr.evaluate(iv.potential, xs) * mass[p]
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


def _abs_sums(band: np.ndarray) -> np.ndarray:
    """Row sums of |Hs| (equal to its column sums), from lower band storage."""
    a = np.abs(band)
    sums = a.sum(axis=0)
    for i in range(1, a.shape[0]):
        sums[i:] += a[i, :-i]
    return sums


def _norm1(band: np.ndarray) -> float:
    """1-norm of the Hermitian matrix held in lower band storage."""
    return float(_abs_sums(band).max())


def _count(disc, A: np.ndarray | None, lams) -> np.ndarray:
    """The number of eigenvalues of Hs below each of ``lams``: the number of
    negative eigenvalues of H - lam M (Sylvester), with no Dirichlet nodes
    when A is None.

    Each interval's nodes, read back in their natural order, form a chain.
    Its edge e gives the 2x2 cell [[alpha, beta], [beta, gamma]] with
    beta = -stiff and alpha, gamma the shares of the node diagonals
    pot + stiffness - lam mass (halved where a node has two edges).  A pairwise
    tree eliminates the node shared by neighbouring cells with the pivot
    d = gamma_1 + alpha_2, counting d < 0, and leaves the cell
    alpha_1 - beta_1**2/d, gamma_2 - beta_2**2/d, -beta_1 beta_2/d (Haynsworth).
    The last cell of every interval couples its two end nodes; the 2n x 2n
    end matrix they make, minus A/2, adds its negative eigenvalues.
    """
    lo, hi, stiff, pot, mass = disc
    n = mass.size - stiff.size
    N = stiff.size // n
    pos = _folded_positions(n, N)
    diag = (pot + np.bincount(lo, stiff, mass.size) + np.bincount(hi, stiff, mass.size))[pos]
    m, beta0 = mass[pos], -stiff.reshape(n, N)
    if A is None:                      # the chains of the interior nodes
        diag, m, beta0 = diag[:, 1:-1], m[:, 1:-1], beta0[:, 1:-1]
    # a pivot smaller than eps ||H||, within its own rounding, is set to it
    tiny = np.finfo(float).eps * np.max(np.abs(diag))
    share = np.full(diag.shape[1], 0.5)
    share[[0, -1]] = 1.0
    diag, m = diag * share, m * share
    lams = np.asarray(lams, dtype=float)
    counts = np.empty(lams.size, dtype=int)
    step = max(1, _BATCH // diag.size)
    for start in range(0, lams.size, step):
        lam = lams[start:start + step, np.newaxis, np.newaxis]
        shares = diag - lam * m
        alpha, gamma = shares[..., :-1], shares[..., 1:]
        beta = np.broadcast_to(beta0, alpha.shape)
        neg = np.zeros(len(lam), dtype=int)
        while alpha.shape[-1] > 1:
            size = alpha.shape[-1]
            even = size & ~1
            a1, b1, g1 = (v[..., 0:even:2] for v in (alpha, beta, gamma))
            a2, b2, g2 = (v[..., 1:even:2] for v in (alpha, beta, gamma))
            d = g1 + a2
            d[np.abs(d) < tiny] = tiny
            neg += np.count_nonzero(d < 0.0, axis=(1, 2))
            merged = a1 - b1 * b1 / d, -b1 * b2 / d, g2 - b2 * b2 / d
            if even < size:
                merged = (np.concatenate([v, rest[..., even:]], axis=-1)
                          for v, rest in zip(merged, (alpha, beta, gamma)))
            alpha, beta, gamma = merged
        k = np.arange(n)
        ends = np.zeros((len(lam), 2 * n, 2 * n))
        ends[:, k, k], ends[:, n + k, n + k] = alpha[..., 0], gamma[..., 0]
        ends[:, k, n + k] = ends[:, n + k, k] = beta[..., 0]
        if A is not None:
            ends = ends - 0.5 * A
        counts[start:start + step] = neg + np.count_nonzero(
            np.linalg.eigvalsh(ends) < 0.0, axis=-1)
    return counts


def _lowest(band: np.ndarray, disc, A: np.ndarray | None, k: int) -> np.ndarray:
    """Shifts for inverse iteration towards the k lowest eigenvalues of Hs:
    the midpoint of every bracket that holds one of them, once per eigenvalue
    it holds.

    The search starts from the lower end of the Gershgorin interval and
    doubles an upper end until it holds k + 1 eigenvalues, so that brackets
    also isolate eigenvalue k, the first one left out.  Each round counts at
    the quarter points of every bracket in one call.  A bracket is split
    until it is narrower than _SEPARATE times its distance to the next
    bracket, which bounds what inverse iteration at its midpoint draws from
    any eigenvalue outside it; one that holds eigenvalues k - 1 and k, whose
    next eigenvalue is not tracked, is split down to _FLOOR.
    """
    sums = _abs_sums(band)
    lo = float(np.min(band[0].real + np.abs(band[0]) - sums))
    lo -= np.sqrt(np.finfo(float).eps) * sums.max()   # far past a count's rounding
    top = min(k + 1, band.shape[1])
    step = max(1.0, abs(lo))
    while (n_hi := _count(disc, A, [lo + step])[0]) < top:
        step *= 2.0
    keep, split = np.empty((0, 4)), np.array([[lo, lo + step, 0, n_hi]])
    while len(split):
        a, b, na, nb = split.T
        c = a[:, np.newaxis] + (b - a)[:, np.newaxis] * np.array([0.25, 0.5, 0.75])
        ends = np.column_stack([a, c, b])
        counts = np.column_stack([na, _count(disc, A, c.ravel()).reshape(c.shape), nb])
        counts = np.clip(np.maximum.accumulate(counts, axis=1), na[:, np.newaxis],
                         nb[:, np.newaxis])
        parts = np.stack([ends[:, :-1], ends[:, 1:], counts[:, :-1], counts[:, 1:]],
                         axis=-1).reshape(-1, 4)
        parts = parts[(parts[:, 3] > parts[:, 2]) & (parts[:, 2] < top)]
        brackets = np.concatenate([keep, parts])
        brackets = brackets[np.argsort(brackets[:, 0])]
        a, b, na, nb = brackets.T
        gaps = np.concatenate([[np.inf], a[1:] - b[:-1], [np.inf]])
        wide = (b - a > _SEPARATE * np.minimum(gaps[:-1], gaps[1:])) | ((na < k) & (nb > k))
        wide &= b - a > _FLOOR * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        keep, split = brackets[~wide], brackets[wide]
    a, b, na, nb = keep[keep[:, 2] < k].T
    return np.repeat(0.5 * (a + b), (nb - na).astype(int))


def _ritz(band: np.ndarray, lams: np.ndarray, disc, A: np.ndarray | None) -> np.ndarray:
    """Rayleigh-Ritz values of the quadratic form on the span of two steps of
    inverse iteration at each of ``lams``.  Rows of the folded order that
    ``band`` lacks (the Dirichlet nodes) are zero."""
    lo, hi, stiff, pot, mass = disc
    kd = band.shape[0] - 1
    dim = band.shape[1]
    ab = np.zeros((3 * kd + 1, dim), band.dtype)      # gbtrf storage: kd rows of fill-in
    ab[2 * kd:] = band
    for i in range(1, kd + 1):
        ab[2 * kd - i, i:] = band[i, :dim - i].conj()
    gbtrf, gbtrs = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
    rng = np.random.default_rng(0)
    X = np.empty((dim, len(lams)), band.dtype)
    for j, lam in enumerate(lams):
        shifted = ab.copy()
        shifted[2 * kd] -= lam
        lu, piv, info = gbtrf(shifted, kd, kd, overwrite_ab=True)
        if info > 0:
            raise np.linalg.LinAlgError(f"singular shifted matrix at lam={lam}")
        x = rng.standard_normal(dim)
        for _ in range(2):
            x = gbtrs(lu, kd, kd, x, piv)[0]
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
    200 <= N <= 4000, 1 <= k <= the dimension of the resolution-N matrix, and
    either a pure Dirichlet U or one with no eigenvalue -1.
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
    dim = domain.n * (N - 1 if dirichlet else N + 1)
    if not 1 <= k <= dim:
        raise ValueError(f"k = {k} must lie in [1, {dim}], the dimension of the "
                         f"N = {N} matrix")

    def solve(res: int):
        disc = _discretize(domain, res)
        band = _band(disc, A, 2 * domain.n)
        if dirichlet:
            band = band[:, 2 * domain.n:]
        return _ritz(band, _lowest(band, disc, A, k), disc, A)[:k], _norm1(band)

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
