"""Spectral function, eigenvalue count and search, eigenfunctions and evolution.

The fundamental solutions give the 2n x 2n matrix M(U, lam) whose
determinant, the spectral function, vanishes at the eigenvalues of H_U.  With
psi_{l+-} = psi_l +- i dpsi_l (likewise at the right ends) its column sigma
has the row blocks I o psi_{l-} - U11 o psi_{l+} - U12 o psi_{r+} and
I o psi_{r-} - U21 o psi_{l+} - U22 o psi_{r+}, where ``o`` is the Hadamard
column scaling (T o X)Y = T(X o Y).

Eigenvalues are counted, found and reconstructed with one object, the glued
matrix K(lam) - A.  Each sample cell contributes its 2x2 Dirichlet-to-Neumann
(DtN) matrix (``odesolve.cell_dtn``); glued at the sample nodes, the cells
give the quadratic form of H - lam on functions that solve the equation on
every cell.  On the boundary nodes psi = Q c, with Q an orthonormal basis of
V = ker(U + I)^perp (U's Dirichlet directions drop out), and the Cayley
matrix A = -i (I + U_V)^-1 (I - U_V) of U_V = Q^H U Q is subtracted.  In the
FD oracle's folded node order this is one banded Hermitian matrix.  While no
cell holds a Dirichlet level of its own, its number of negative eigenvalues
is N_U(lam), the number of levels below lam; its k-th smallest eigenvalue
mu_k(lam) decreases through 0 exactly at the k-th level; and its null vector
there holds the eigenfunction at the sample nodes (DtN bracketing:
L. Friedlander, Arch. Rational Mech. Anal. 116 (1991)).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import expr
from .bc import UnitaryBC
from .domain import QuantumDomain
from .odesolve import FundamentalPair, OdeError, cell_dtn, fundamental_solutions
from .oracle import _folded_positions

__all__ = ["SolveOptions", "SpectralMatrix", "Eigenpair", "Spectrum", "hadamard_mat",
           "spectral_matrix", "spectral_function", "boundary_wronskian",
           "count_eigenvalues", "find_eigenvalues", "eigenfunctions", "evolve",
           "deficiency_indices"]

# relative widths: brackets isolate levels to _ISOLATE, roots agreeing to
# _MERGE form one level, and the secant refines to _REFINE, or stops where
# mu_k is below _REFINE of the largest Ritz value beside it
_ISOLATE, _MERGE, _REFINE = 1e-7, 1e-9, 1e-12
# a pivot or boundary eigenvalue this small relative to the terms it came
# from makes a count unsure
_UNSURE = 1e6 * np.finfo(float).eps


@dataclass(frozen=True)
class SolveOptions:
    """``rel_tol`` is the per-cell mesh-halving tolerance, ``samples`` the
    sample nodes per interval.  ``grid`` and ``sigma_tol`` belonged to the
    sigma_min scan that exact counting replaced: a set value warns, once,
    and has no effect."""

    grid: int | None = None
    sigma_tol: float | None = None
    max_eigs: int | None = None
    rel_tol: float = 1e-11
    samples: int = 257

    def __post_init__(self):
        for name in ("grid", "sigma_tol"):
            if getattr(self, name) is not None:
                warnings.warn(f"{name} has no effect: levels are counted exactly",
                              DeprecationWarning, stacklevel=3)


def hadamard_mat(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Column scaling: the unique matrix with (T o X) Y = T (X o Y).

    Column j of the result is column j of ``t`` times ``x[j]``.
    """
    t, x = np.asarray(t), np.asarray(x)
    if t.ndim != 2 or x.ndim != 1 or t.shape[1] != x.shape[0]:
        raise ValueError("hadamard_mat needs an (m, n) matrix and an n-vector")
    return t * x[np.newaxis, :]


@dataclass(frozen=True)
class SpectralMatrix:
    """Assembled M(U, lam) and its singular values."""

    lam: float
    matrix: np.ndarray
    svals: np.ndarray
    sigma_min: float
    scale_exponent: float      # total log-rescaling inherited from the ODE solves


def _endpoint_traces(fps: list[FundamentalPair]) -> tuple[np.ndarray, ...]:
    """Boundary data psi_{l,r} and outward metric derivatives dpsi_{l,r}, each
    (2, n): row sigma holds basis solution sigma, column j interval j."""
    psi_a, dpsi_a, psi_b, dpsi_b = (np.stack([getattr(fp, name) for fp in fps], axis=-1)
                                    for name in ("psi_a", "dpsi_a", "psi_b", "dpsi_b"))
    root_a, root_b = np.sqrt([expr.evaluate(fp.interval.metric,
                                            np.array([fp.interval.a, fp.interval.b]))
                              for fp in fps]).T
    return psi_a, psi_b, -dpsi_a / root_a, dpsi_b / root_b


def spectral_matrix(U: UnitaryBC, fps: list[FundamentalPair]) -> SpectralMatrix:
    """Assemble M(U, lam) from per-interval fundamental pairs at a common lam."""
    if len(fps) != U.n:
        raise ValueError(f"expected {U.n} fundamental pairs, got {len(fps)}")
    lam = fps[0].lam
    if any(abs(fp.lam - lam) > 1e-12 * max(1.0, abs(lam)) for fp in fps):
        raise ValueError("fundamental pairs disagree on lam")
    psi_l, psi_r, dpsi_l, dpsi_r = _endpoint_traces(fps)
    n = U.n
    lp, lm = psi_l + 1j * dpsi_l, psi_l - 1j * dpsi_l
    rp, rm = psi_r + 1j * dpsi_r, psi_r - 1j * dpsi_r

    # Column sigma*n + j belongs to solution sigma on interval j: row block 1
    # is I o psi_{l-} - U11 o psi_{l+} - U12 o psi_{r+}, row block 2 likewise.
    def cols(t):
        return t.reshape(1, 2 * n)

    def tile(u):
        return np.tile(u, (1, 2))

    eye = tile(np.eye(n))
    M = np.concatenate([
        eye * cols(lm) - tile(U.u11) * cols(lp) - tile(U.u12) * cols(rp),
        eye * cols(rm) - tile(U.u21) * cols(lp) - tile(U.u22) * cols(rp)])
    svals = np.linalg.svd(M, compute_uv=False)
    return SpectralMatrix(lam=lam, matrix=M, svals=svals, sigma_min=float(svals[-1]),
                          scale_exponent=float(sum(fp.scale_exponent for fp in fps)))


def spectral_function(U: UnitaryBC, domain: QuantumDomain, lam: float,
                      opts: SolveOptions = SolveOptions()) -> complex:
    """det M(U, lam) with the canonical-basis fundamental solutions.

    The value carries the positive factor exp(-2 * scale_exponent) from the
    overflow guard; its zeros are the eigenvalues of H_U.
    """
    fps = [fundamental_solutions(iv, lam, rel_tol=opts.rel_tol, samples=opts.samples)
           for iv in domain.intervals]
    return complex(np.linalg.det(spectral_matrix(U, fps).matrix))


@dataclass(frozen=True)
class Eigenpair:
    """One eigenvalue with its boundary data and sampled eigenfunctions.

    ``coeffs`` (mult, n, 2) holds (u(a_j), u'(a_j)) per interval; ``samples``
    (mult, n, m) holds L2(sqrt(eta) dx)-orthonormal eigenfunctions on the
    per-interval grids ``xs`` (n, m).  ``residual`` is the largest relative
    boundary-condition residual ||(psi - i dpsi) - U (psi + i dpsi)|| /
    (||psi|| + ||dpsi||) of the members.
    """

    lam: float
    multiplicity: int
    residual: float
    coeffs: np.ndarray
    xs: np.ndarray
    samples: np.ndarray
    psi: np.ndarray      # (mult, 2n) boundary values
    dpsi: np.ndarray     # (mult, 2n) outward normal derivatives


@dataclass(frozen=True)
class Spectrum:
    eigs: tuple[Eigenpair, ...]
    lambda_range: tuple[float, float]
    options: SolveOptions = field(default_factory=SolveOptions)

    @property
    def lams(self) -> np.ndarray:
        return np.array([e.lam for e in self.eigs])

    def flat(self):
        """Eigenpairs unfolded by multiplicity: yields (lam, branch_index, eigenpair)."""
        for e in self.eigs:
            for j in range(e.multiplicity):
                yield e.lam, j, e


def _simpson_weights(m: int, h: float) -> np.ndarray:
    if m % 2 == 0:
        raise ValueError("composite Simpson needs an odd sample count")
    w = np.ones(m)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _quad_weights(domain: QuantumDomain, xs: np.ndarray) -> np.ndarray:
    """Simpson weights times sqrt(eta) per interval; shape (n, m)."""
    m = xs.shape[1]
    return np.array([_simpson_weights(m, (iv.b - iv.a) / (m - 1))
                     * np.sqrt(expr.evaluate(iv.metric, x))
                     for iv, x in zip(domain.intervals, xs)])


def _inner(w: np.ndarray, f: np.ndarray, g: np.ndarray) -> complex:
    """L2(sqrt(eta) dx) inner product of sampled functions, conjugate-linear first.

    Sums over all axes: per-interval samples of shape (n, m) give the inner
    product on the whole domain.
    """
    return complex(np.sum(w * np.conj(f) * g))


class _Glued:
    """K(lam) - A for one boundary condition on one domain: the unknowns are c
    (psi = Q c), then the interior sample nodes in the folded order of
    :func:`qwire.oracle._folded_positions`, and ``rows`` <= ``cols`` list the
    entries that :meth:`_values` fills at each lam."""

    def __init__(self, U: UnitaryBC, domain: QuantumDomain, opts: SolveOptions):
        if U.n != domain.n:
            raise ValueError(f"a U({2 * U.n}) condition needs {U.n} intervals, got {domain.n}")
        if opts.samples < 3 or not opts.rel_tol > 0.0:
            raise ValueError("samples must be at least 3 and rel_tol positive")
        if opts.samples % 2 == 0:
            raise ValueError("samples must be odd (composite Simpson weights)")
        n, N = domain.n, opts.samples - 1
        self.U, self.domain, self.opts = U, domain, opts
        # V: the right singular vectors of U + I whose singular value
        # 2 |cos(phase / 2)| clears the Cayley tolerance
        _, sv, vh = np.linalg.svd((U.matrix if U.matrix.imag.any() else U.matrix.real)
                                  + np.eye(2 * n))
        Q = np.eye(2 * n) if sv.min() > 1e-8 else vh[sv > 1e-8].conj().T
        UV, eye = Q.conj().T @ U.matrix @ Q, np.eye(Q.shape[1])
        A = -1j * np.linalg.solve(eye + UV, eye - UV)
        A = 0.5 * (A + A.conj().T)
        real = not Q.imag.any() and np.abs(A.imag).max(initial=0.0) <= 1e-14 * (
            1.0 + np.abs(A).max(initial=0.0))
        self.Q, self.A = (Q.real, A.real) if real else (Q.astype(complex), A)
        self.dtype = float if real else complex
        m = Q.shape[1]
        self.pos = _folded_positions(n, N)[:, 1:N] - 2 * n + m        # interior nodes
        self.dim = m + n * (N - 1)
        self.iu = np.triu_indices(m)
        bnd = np.repeat(np.arange(m), n)
        chain = self.pos[:, :-1].ravel(), self.pos[:, 1:].ravel()
        self.rows = np.concatenate([self.pos.ravel(), np.minimum(*chain), bnd, bnd, self.iu[0]])
        self.cols = np.concatenate([self.pos.ravel(), np.maximum(*chain),
                                    np.tile(self.pos[:, 0], m), np.tile(self.pos[:, -1], m),
                                    self.iu[1]])
        self.w = int(np.max(self.cols - self.rows))
        self.off = self.rows != self.cols

    def cells(self, lams):
        """Cell DtN entries alpha, beta, gamma at every lam, each (G, n, samples - 1)."""
        parts = [cell_dtn(iv, lams, self.opts.rel_tol, self.opts.samples)
                 for iv in self.domain.intervals]
        return tuple(np.stack(p, axis=1) for p in zip(*parts))

    def count(self, lams):
        """N_U at every lam, and whether it is sure there; see :meth:`tree`."""
        return self.tree(*self.cells(np.asarray(lams, dtype=float)))

    def tree(self, alpha, beta, gamma):
        """N_U from (G, n, N) cells, and whether no pivot or boundary eigenvalue
        is within rounding of 0, per lam.

        A pairwise tree eliminates the node shared by neighbouring cells with
        the pivot d = gamma_1 + alpha_2, counting d < 0, and leaves the cell
        alpha_1 - beta_1**2/d, gamma_2 - beta_2**2/d, -beta_1 beta_2/d; the
        inertia adds up over the pivots (Haynsworth).  Q^H Lambda Q - A, from
        each interval's DtN matrix Lambda, adds its negative eigenvalues.
        Lambda has a pole at a Dirichlet level of a whole interval, and near
        one the count is good to about sqrt(eps) only.
        """
        # ma, mg: the sizes of the terms alpha and gamma were summed from
        ma, mg = np.abs(alpha), np.abs(gamma)
        pivots, scales = [], []
        while alpha.shape[-1] > 1:
            size = alpha.shape[-1]
            even = size & ~1
            a1, b1, g1, ma1, mg1 = (v[..., 0:even:2] for v in (alpha, beta, gamma, ma, mg))
            a2, b2, g2, ma2, mg2 = (v[..., 1:even:2] for v in (alpha, beta, gamma, ma, mg))
            scales.append(mg1 + ma2)
            d = g1 + a2
            d = np.where(d == 0.0, _UNSURE * scales[-1], d)
            pivots.append(d)
            s1, s2 = b1 * b1 / d, b2 * b2 / d
            merged = a1 - s1, -b1 * b2 / d, g2 - s2, ma1 + np.abs(s1), mg2 + np.abs(s2)
            if even < size:
                merged = (np.concatenate([v, rest[..., even:]], axis=-1)
                          for v, rest in zip(merged, (alpha, beta, gamma, ma, mg)))
            alpha, beta, gamma, ma, mg = merged
        pivots, scales = np.concatenate(pivots, axis=-1), np.concatenate(scales, axis=-1)
        sure = ~np.any(np.abs(pivots) <= _UNSURE * scales, axis=(1, 2))
        n, k = self.domain.n, np.arange(self.domain.n)
        lam_mat = np.zeros((len(sure), 2 * n, 2 * n))
        lam_mat[:, k, k], lam_mat[:, n + k, n + k] = alpha[..., 0], gamma[..., 0]
        lam_mat[:, k, n + k] = lam_mat[:, n + k, k] = beta[..., 0]
        ev = np.linalg.eigvalsh(self.Q.conj().T @ lam_mat @ self.Q - self.A)
        scale = (np.max(np.concatenate([ma, mg, np.abs(beta)], axis=-1), axis=(1, 2))
                 + np.max(np.abs(self.A), initial=0.0))
        sure &= np.min(np.abs(ev), axis=-1, initial=np.inf) > _UNSURE * scale
        return (np.count_nonzero(pivots < 0.0, axis=(1, 2))
                + np.count_nonzero(ev < 0.0, axis=-1)), sure

    def _values(self, alpha, beta, gamma):
        """Entry values in the order of ``rows``, (G, entries), from (G, n, N) cells."""
        Qh, n, G = self.Q.conj().T, self.domain.n, len(alpha)
        ends = (Qh * np.concatenate([alpha[..., 0], gamma[..., -1]], axis=1)[:, np.newaxis]
                @ self.Q - self.A)
        return np.concatenate([(gamma[..., :-1] + alpha[..., 1:]).reshape(G, -1),
                               beta[..., 1:-1].reshape(G, -1),
                               (Qh[:, :n] * beta[:, np.newaxis, :, 0]).reshape(G, -1),
                               (Qh[:, n:] * beta[:, np.newaxis, :, -1]).reshape(G, -1),
                               ends[:, self.iu[0], self.iu[1]]], axis=1)

    def ritz(self, alpha, beta, gamma, p: int):
        """The p eigenvalues of K(lam) - A nearest 0 at G values of lam, from
        (G, n, N) cells, ascending (G, p), and their vectors (G, dim, p): three
        steps of block inverse iteration, then Rayleigh-Ritz.

        The matrices of 16 lam at a time are stacked into one band for one LU,
        each shifted by 1e-12 of its largest diagonal entry, so that a matrix
        singular to the last bit still factors.
        """
        D, w, p = self.dim, self.w, min(p, self.dim)
        start = np.random.default_rng(0).standard_normal((D, p)).astype(self.dtype)
        theta, vecs = [], []
        for i in range(0, len(alpha), 16):
            v = self._values(alpha[i:i + 16], beta[i:i + 16], gamma[i:i + 16])
            G, size = len(v), (3 * w + 1) * len(v) * D
            # bincount adds up entries that coincide (at a single interior node)
            flat = np.concatenate([(2 * w + self.rows - self.cols) * G * D + self.cols,
                                   ((2 * w + self.cols - self.rows) * G * D + self.rows)[self.off]])
            flat = (flat + D * np.arange(G)[:, np.newaxis]).ravel()
            v = np.concatenate([v, v[:, self.off].conj()], axis=1).ravel()
            ab = np.bincount(flat, v.real, size)
            if self.dtype is complex:
                ab = ab + 1j * np.bincount(flat, v.imag, size)
            ab = ab.reshape(3 * w + 1, G * D)
            gbtrf, gbtrs = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
            gbmv = scipy.linalg.get_blas_funcs("gbmv", (ab,))
            shifted = ab.copy()
            shifted[2 * w] -= np.repeat(1e-12 * np.abs(ab[2 * w]).reshape(G, D).max(axis=1), D)
            lu, piv, _ = gbtrf(shifted, w, w, overwrite_ab=True)
            x = np.tile(start, (G, 1))
            for _ in range(3):
                x = np.linalg.qr(gbtrs(lu, w, w, x, piv)[0].reshape(G, D, p))[0].reshape(G * D, p)
            kx = np.stack([gbmv(G * D, G * D, w, w, 1.0, ab[w:], v) for v in x.T], axis=1)
            x = x.reshape(G, D, p)
            th, y = np.linalg.eigh(x.conj().transpose(0, 2, 1) @ kx.reshape(G, D, p))
            theta.append(th)
            vecs.append(x @ y)
        return np.concatenate(theta), np.concatenate(vecs)


def count_eigenvalues(U: UnitaryBC, domain: QuantumDomain, lams,
                      opts: SolveOptions = SolveOptions()) -> np.ndarray:
    """N_U(lam), the number of eigenvalues below lam with multiplicity, for
    each lam: exact unless a sample cell holds a Dirichlet level of its own
    (:class:`~qwire.odesolve.OdeError`) or lam is within sqrt(eps) of a level."""
    return _Glued(U, domain, opts).count(np.atleast_1d(np.asarray(lams, dtype=float)))[0]


def find_eigenvalues(U: UnitaryBC, domain: QuantumDomain,
                     lambda_range: tuple[float, float],
                     opts: SolveOptions = SolveOptions()) -> Spectrum:
    """All eigenvalues in the closed ``lambda_range``, or its lowest ``max_eigs``.

    An open end lo = -inf is the bottom of the spectrum, a floor doubled down
    from min(0, hi) - 1 until no level lies below it; hi = inf needs
    ``max_eigs``, a ceiling stepped up until that many levels lie above lo,
    its step halved where a sample cell would hold a Dirichlet level.
    The count at the ends gives the levels; multisection on the count
    isolates them, one per bracket or to 1e-7 relative; level k is the root
    of mu_k, refined to 1e-12 relative.  Roots that agree to 1e-9 relative
    form one eigenvalue, and their number is its multiplicity.
    """
    lo, hi = lambda_range
    if not lo < hi:
        raise ValueError("lambda_range must be increasing")
    if hi == math.inf and opts.max_eigs is None:
        raise ValueError("an open upper end needs max_eigs")
    g = _Glued(U, domain, opts)
    if lo == -math.inf:
        lo = min(0.0, hi) - 1.0
        while g.count([lo])[0][0] > 0:
            lo *= 2.0
    if hi == math.inf:               # hi: fewer than max_eigs levels above lo
        n_lo, hi, step = g.count([lo])[0][0], lo, max(1.0, abs(lo))
        while True:
            try:
                if g.count([hi + step])[0][0] - n_lo >= opts.max_eigs:
                    break
                hi, step = hi + step, 2.0 * step
            except OdeError:
                if step <= _ISOLATE * max(1.0, abs(hi)):
                    raise
                step *= 0.5
        hi += step
    ends = np.array([lo, hi], dtype=float)
    (n_lo, n_hi), sure = g.count(ends)
    step = _ISOLATE * max(1.0, abs(lo), abs(hi))
    while not sure.all():              # an end on a level moves out past it
        ends += np.where(sure, 0.0, [-step, step])
        (n_lo, n_hi), sure = g.count(ends)
        step *= 2.0
    top = n_hi if opts.max_eigs is None else min(n_hi, n_lo + opts.max_eigs)
    roots = _refine(g, _isolate(g, *ends, n_lo, n_hi, top))
    levels = np.split(roots, 1 + np.flatnonzero(
        np.diff(roots) > _MERGE * np.maximum(1.0, np.abs(roots[1:]))))
    eigs = _eigenpairs(g, [float(np.mean(v)) for v in levels],
                       [len(v) for v in levels]) if roots.size else []
    return Spectrum(eigs=tuple(eigs), lambda_range=tuple(lambda_range), options=opts)


def _isolate(g: _Glued, lo: float, hi: float, n_lo: int, n_hi: int, top: int):
    """Brackets (a, b, N(a), N(b)) with N(a) < top, each holding one level or
    1e-7 relative wide.  Each round counts at the quarter points of every
    bracket in one call.  A point whose count is not sure does not split, so
    every bracket end but the window's has a sure count."""
    todo, done = [(lo, hi, n_lo, n_hi)], []
    while todo:
        split = [t for t in todo if t[3] - t[2] > 1
                 and t[1] - t[0] > _ISOLATE * max(1.0, abs(t[0]), abs(t[1]))]
        done += [t for t in todo if t not in split]
        if not split:
            break
        a, b, na, nb = (np.array(v) for v in zip(*split))
        c = a[:, np.newaxis] + (b - a)[:, np.newaxis] * np.array([0.25, 0.5, 0.75])
        nc, sure = (v.reshape(c.shape) for v in g.count(c.ravel()))
        todo = []
        for i, t in enumerate(split):
            if not sure[i].any():
                done.append(t)
                continue
            ends = [a[i], *c[i][sure[i]], b[i]]
            counts = np.clip(np.maximum.accumulate([na[i], *nc[i][sure[i]], nb[i]]), na[i], nb[i])
            todo += [u for u in zip(ends[:-1], ends[1:], counts[:-1], counts[1:])
                     if u[3] > u[2] and u[2] < top]
    return sorted(done)


def _mu(g: _Glued, lams, ks, k0s, ms):
    """mu_k(lam) per (lam, k) for level k of a bracket of levels k0 .. k0+m-1,
    nan where the Ritz block misses it; the count at lam; and the largest
    Ritz value in magnitude.

    A sure count indexes the Ritz values: N eigenvalues are negative.  Where
    the count is not sure, or a Ritz value is below 1e-6 of the largest, lam
    is within rounding of a level of the bracket, whose m eigenvalues are the
    ones nearest 0.
    """
    uniq, inv = np.unique(np.asarray(lams, dtype=float), return_inverse=True)
    cells = g.cells(uniq)
    counts, sure = g.tree(*cells)
    theta = g.ritz(*cells, int(np.max(ms)) + 2)[0]
    out, scale = np.full(len(inv), np.nan), np.max(np.abs(theta), axis=1)[inv]
    for i, (u, k, k0, m) in enumerate(zip(inv, ks, k0s, ms)):
        th = theta[u]
        if sure[u] and np.min(np.abs(th)) > 1e-6 * scale[i]:
            j = k - counts[u] + np.count_nonzero(th < 0.0)
        else:
            th, j = np.sort(th[np.argsort(np.abs(th))[:m]]), k - k0
        if 0 <= j < len(th):
            out[i] = th[j]
    return out, counts[inv], scale


def _refine(g: _Glued, brackets) -> np.ndarray:
    """The root of mu_k for every level k of every bracket, ascending in k, by
    a safeguarded secant (Illinois) in lockstep.  mu_k decreases, so
    mu_k(a) >= 0 > mu_k(b): an end value that is nan or of the wrong sign is
    unknown, and a step without both end values bisects, as does one after
    three steps that did not halve the bracket."""
    items = [(a, b, k, na, nb - na) for a, b, na, nb in brackets for k in range(na, nb)]
    if not items:
        return np.empty(0)
    a, b, k, k0, m = (np.array(v) for v in zip(*items))
    a, b = a.astype(float), b.astype(float)
    fa, fb = np.split(_mu(g, np.concatenate([a, b]), *(np.tile(v, 2) for v in (k, k0, m)))[0], 2)
    fa[fa < 0.0], fb[fb >= 0.0] = np.nan, np.nan
    side = np.zeros(len(a), dtype=int)               # end moved last: -1 a, +1 b
    widths = [b - a] * 3
    for _ in range(500):
        xtol = _REFINE * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        act = np.flatnonzero(b - a > xtol)
        if not act.size:
            break
        A, B, FA, FB = a[act], b[act], fa[act], fb[act]
        with np.errstate(invalid="ignore", divide="ignore"):
            c = B - FB * (B - A) / (FB - FA)
        bisect = ~np.isfinite(c) | (B - A > 0.5 * widths[-3][act])
        c[bisect] = 0.5 * (A[bisect] + B[bisect])
        c = np.clip(c, A + 0.25 * xtol[act], B - 0.25 * xtol[act])
        fc, nc, scale = _mu(g, c, k[act], k0[act], m[act])
        left = np.where(np.isnan(fc), nc > k[act], fc < 0.0)     # the root lies left of c
        close = np.abs(fc) <= _REFINE * scale                     # c is the root
        a[act[close]], b[act[close]] = c[close], c[close]
        lo_i, hi_i = act[left], act[~left]
        b[lo_i], fb[lo_i] = c[left], fc[left]
        a[hi_i], fa[hi_i] = c[~left], fc[~left]
        # Illinois: an end kept twice in a row has its value halved
        fa[lo_i[side[lo_i] == 1]] *= 0.5
        fb[hi_i[side[hi_i] == -1]] *= 0.5
        side[lo_i], side[hi_i] = 1, -1
        widths.append(b - a)
    else:
        raise RuntimeError("the secant refinement of a level did not converge")
    with np.errstate(invalid="ignore", divide="ignore"):
        root = b - fb * (b - a) / (fb - fa)
    root = np.where(np.isfinite(root) & (root >= a) & (root <= b), root, 0.5 * (a + b))
    return root[np.argsort(k, kind="stable")]


def eigenfunctions(U: UnitaryBC, domain: QuantumDomain, lam: float,
                   opts: SolveOptions = SolveOptions()) -> list[Eigenpair]:
    """The orthonormal eigenfunctions of H_U at an eigenvalue lam: the levels
    of :func:`find_eigenvalues` within 1e-7 relative of lam."""
    delta = _ISOLATE * max(1.0, abs(lam))
    eigs = find_eigenvalues(U, domain, (lam - delta, lam + delta), opts).eigs
    if not eigs:
        raise ValueError(f"no eigenvalue within {delta:.1e} of lam={lam!r}")
    return list(eigs)


def _eigenpairs(g: _Glued, lams, mults) -> list[Eigenpair]:
    """Eigenpairs from the ``mult`` Ritz vectors of K(lam) - A nearest 0,
    which hold psi = Q c and the interior nodes: the eigenfunction at every
    sample.  They are orthonormalised in L2(sqrt(eta) dx) by Simpson
    quadrature, each with its largest sample real positive, and dpsi comes
    from the end cells' DtN rows."""
    domain, S, m = g.domain, g.opts.samples, g.Q.shape[1]
    n = domain.n
    xs = np.array([np.linspace(iv.a, iv.b, S) for iv in domain.intervals])
    w = _quad_weights(domain, xs)
    root_a = np.sqrt([expr.evaluate(iv.metric, iv.a) for iv in domain.intervals])
    cells = g.cells(lams)
    theta, vecs = g.ritz(*cells, max(mults) + 2)
    pairs = []
    for lam, mult, th, x, alpha, beta, gamma in zip(lams, mults, theta, vecs, *cells):
        x = x[:, np.argsort(np.abs(th))[:mult]]
        ends = g.Q @ x[:m]                                           # (2n, mult)
        members = []
        for f in np.concatenate([ends[np.newaxis, :n], x[g.pos].transpose(1, 0, 2),
                                 ends[np.newaxis, n:]]).transpose(2, 1, 0):   # (n, S) each
            for h in members:
                f = f - _inner(w, h, f) * h
            f = f / math.sqrt(_inner(w, f, f).real)
            peak = f.flat[int(np.argmax(np.abs(f)))]
            members.append(f * (abs(peak) / peak))
        u = np.array(members)
        psi = np.concatenate([u[:, :, 0], u[:, :, -1]], axis=1)
        dpsi = np.concatenate([alpha[:, 0] * u[:, :, 0] + beta[:, 0] * u[:, :, 1],
                               beta[:, -1] * u[:, :, -2] + gamma[:, -1] * u[:, :, -1]], axis=1)
        residual = max(np.linalg.norm((p - 1j * d) - g.U.matrix @ (p + 1j * d))
                       / (np.linalg.norm(p) + np.linalg.norm(d)) for p, d in zip(psi, dpsi))
        pairs.append(Eigenpair(
            lam=float(lam), multiplicity=int(mult), residual=float(residual),
            coeffs=np.stack([u[:, :, 0], -root_a * dpsi[:, :n]], axis=-1),
            xs=xs, samples=u, psi=psi, dpsi=dpsi))
    return pairs


def boundary_wronskian(fp: FundamentalPair, x: str, y: str, s1: str, s2: str) -> complex:
    """Single-interval boundary Wronskian W(x, y, s1, s2).

    The 2x2 determinant of the rows (psi_{x s1}^1, psi_{x s1}^2) and
    (psi_{y s2}^1, psi_{y s2}^2) where x, y pick the endpoint ('l' or 'r') and
    s1, s2 the combination psi +- i dpsi ('+' or '-').  For the free interval
    with the exponential basis these reproduce the closed forms like
    W(l, l, +, -) = 4 sqrt(2 lam).
    """
    psi_l, psi_r, dpsi_l, dpsi_r = _endpoint_traces([fp])

    def row(end: str, sign: str) -> np.ndarray:
        if end not in ("l", "r") or sign not in ("+", "-"):
            raise ValueError("endpoints are 'l'/'r' and signs '+'/'-'")
        psi, dpsi = (psi_l, dpsi_l) if end == "l" else (psi_r, dpsi_r)
        s = 1j if sign == "+" else -1j
        return np.array([psi[0][0] + s * dpsi[0][0], psi[1][0] + s * dpsi[1][0]])

    r1, r2 = row(x, s1), row(y, s2)
    return complex(r1[0] * r2[1] - r1[1] * r2[0])


def evolve(U: UnitaryBC, domain: QuantumDomain, spectrum: Spectrum,
           initial: np.ndarray, times) -> dict:
    """Expand ``initial`` in the eigenbasis and apply the phase flow exp(-i t lam).

    ``initial`` holds complex samples on the same per-interval grids as the
    spectrum's eigenfunctions, shape (n, m).  Returns a dict with the evolved
    samples (len(times), n, m), the expansion coefficients, the truncation
    residual ||initial - sum c_k Psi_k|| and the quadrature norm drift over
    the requested times.  hbar = m = 1 throughout.
    """
    initial = np.asarray(initial, dtype=complex)
    if not spectrum.eigs:
        raise ValueError("spectrum holds no eigenpairs")
    xs = spectrum.eigs[0].xs
    if initial.shape != xs.shape:
        raise ValueError(f"initial samples must have shape {xs.shape}")
    w = _quad_weights(domain, xs)

    lams = np.array([e.lam for e in spectrum.eigs for _ in range(e.multiplicity)])
    basis = np.concatenate([e.samples for e in spectrum.eigs])     # (K, n, m)

    # The computed eigenfunctions are orthonormal only up to solver accuracy
    # across distinct eigenvalues; a symmetric (near-identity) re-orthonormal-
    # ization in the quadrature inner product makes the phase flow exactly
    # unitary, as the exact eigenbasis is.
    K = basis.shape[0]
    flat = basis.reshape(K, -1)
    gram = (w.ravel() * flat.conj()) @ flat.T
    evals_g, evecs_g = np.linalg.eigh(gram)
    if np.min(evals_g) <= 0.0:
        raise ValueError("eigenfunction basis is numerically rank-deficient")
    ginv_half = (evecs_g * evals_g ** -0.5) @ evecs_g.conj().T
    flat = ginv_half.T @ flat

    coeffs = (w.ravel() * flat.conj()) @ initial.ravel()
    projected = (coeffs @ flat).reshape(xs.shape)
    resid = initial - projected
    truncation = math.sqrt(_inner(w, resid, resid).real)
    norm0 = math.sqrt(_inner(w, projected, projected).real)

    times = np.asarray(times, dtype=float)
    evolved = ((coeffs * np.exp(-1j * np.outer(times, lams))) @ flat).reshape(
        (len(times),) + xs.shape)
    norms = np.sqrt(np.sum(w * (evolved.real ** 2 + evolved.imag ** 2), axis=(1, 2)))
    drift = float(np.max(np.abs(norms - norm0), initial=0.0))

    return {
        "times": times, "samples": evolved, "coefficients": coeffs, "lams": lams,
        "truncation_residual": truncation, "norm_drift": drift, "projected_norm": norm0,
    }


def deficiency_indices(domain: QuantumDomain) -> tuple[int, int]:
    """Deficiency indices (n+, n-) of the minimal operator: (2n, 2n).

    On a compact union of n intervals with a positive metric every solution
    of H* u = -+ i u is square integrable, and each interval contributes a
    two-dimensional solution space.
    """
    return (2 * domain.n, 2 * domain.n)
