"""Spectral function, eigenvalue count and search, eigenfunctions and evolution.

The spectral function is det M(U, lam), where M is the 2n x 2n matrix whose
determinant vanishes at the eigenvalues of H_U.  With the canonical pair's
endpoint data and psi_{l+-} = psi_l +- i dpsi_l (likewise at the right ends)
its column sigma has the row blocks I o psi_{l-} - U11 o psi_{l+} -
U12 o psi_{r+} and I o psi_{r-} - U21 o psi_{l+} - U22 o psi_{r+}, where
``o`` scales the columns of the matrix before it by the vector after it.
:func:`spectral_matrix` assembles M from :class:`FundamentalPair` data, the
worked example and the reference; :func:`spectral_function` computes det M
without them, from one banded LU of the glued matrix below (see
:meth:`_Glued.log_det`).

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
mu_k(lam) decreases through 0 exactly at the k-th level, with the slope
x^H K'(lam) x < 0 of its unit eigenvector x (Hellmann-Feynman), K' from the
cells' exact lam-derivatives, which Newton's method follows to the level,
taking its last step unprobed where the quadratic model certifies it; and
its null vector there holds the eigenfunction at the sample nodes (DtN
bracketing: L. Friedlander, Arch. Rational Mech. Anal. 116 (1991)).

Every cell is exact, so N_U and the roots of mu_k do not depend on how many
sample cells there are, as long as none holds a Dirichlet level of its own.
A solve therefore takes two sample counts per interval (see
:func:`_samples`): the search counts and refines on the fewest that the
highest lam it reaches needs, at least 17, and the eigenfunctions are
given on a grid of 257 points per interval, or more where the highest
level needs them.  They are read from the search's own null vectors: a
finer grid's other points follow from its cells by one tridiagonal solve
per search cell, and a coarser grid takes every r-th search sample (see
:func:`_on_grid`).  The multisection stops at a bracket of several levels
once it is tight, a quarter as wide as its distance to any other level,
and below the max_eigs cutoff; Newton's method finds each of its roots,
so a level that symmetry makes degenerate costs no rounds of its own (see
:func:`_isolate`).

The cells, the pivots of the interior nodes and each interval's DtN matrix
Lambda(lam) do not depend on U; Q, A and c(U) are the boundary part (see
:class:`_Glued`).  Boundary conditions whose Q have one rank share the
layout of K(lam) - A and are searched in lockstep, each count, Newton probe
and Ritz step taking the (lam, U) pairs of all of them in one call:
:func:`find_eigenvalues` is the case of one U, and
:func:`qwire.edge.edge_scan` passes all its rotations e^{it} U at once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import expr
from .bc import _CAYLEY_ANGLE_TOL, UnitaryBC
from .domain import QuantumDomain
from .odesolve import (_SCALE_LOG, FundamentalPair, OdeError, _cells_free, _mesh,
                       _reference_cells, cell_dtn)
from .oracle import _folded_positions

__all__ = ["SolveOptions", "SpectralMatrix", "Eigenpair", "Spectrum", "spectral_matrix",
           "spectral_function", "boundary_wronskian", "count_eigenvalues", "find_eigenvalues",
           "eigenfunctions", "evolve", "deficiency_indices"]

# relative widths: brackets that are not tight isolate levels to _ISOLATE
# (see _isolate), roots agreeing to _MERGE form one level, and Newton's
# method refines to _REFINE, or stops where mu_k is below _REFINE of the
# largest Ritz value beside it, or takes a step unprobed whose predicted
# error is below _ACCEPT * _REFINE (see _refine)
_ISOLATE, _MERGE, _REFINE = 1e-7, 1e-9, 1e-12
_ACCEPT = 0.25
# a pivot or boundary eigenvalue this small relative to the terms it came
# from makes a count unsure
_UNSURE = 1e6 * np.finfo(float).eps
# sample nodes per interval, each 2**j + 1: the fewest a search takes, the
# fewest of the eigenfunction grid, and the cap of both
_LEAST, _SAMPLES, _MAX_SAMPLES = 17, 257, 4097
# the largest turn of a search's sample cell at its top lam below the
# grid's samples: it keeps the cells' DtN entries off their pole at pi;
# measured on free-spectra, pi / 2 was slower and pi no faster
_MARGIN = 0.75 * math.pi
_COUNTS = 2 ** np.arange(4, 13) + 1                         # 17, 33, .., 4097


@dataclass(frozen=True)
class SolveOptions:
    """``rel_tol`` is the per-cell mesh-halving tolerance; the solver picks
    the sample nodes per interval (see :func:`_samples`).  ``grid`` and
    ``sigma_tol`` belonged to the sigma_min scan that exact counting
    replaced: a set value warns, once, and has no effect."""

    grid: int | None = None
    sigma_tol: float | None = None
    max_eigs: int | None = None
    rel_tol: float = 1e-11

    def __post_init__(self):
        for name in ("grid", "sigma_tol"):
            if getattr(self, name) is not None:
                warnings.warn(f"{name} has no effect: levels are counted exactly",
                              DeprecationWarning, stacklevel=3)


@dataclass(frozen=True)
class SpectralMatrix:
    """Assembled M(U, lam)."""

    lam: float
    matrix: np.ndarray
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
    """Assemble M(U, lam) from per-interval fundamental pairs at a common lam.

    Both canonical solutions are launched from a, so deep below the
    potential they grow alike and det M cancels to a few digits;
    :func:`spectral_function` has no such loss.
    """
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
    return SpectralMatrix(lam=lam, matrix=M,
                          scale_exponent=float(sum(fp.scale_exponent for fp in fps)))


def spectral_function(U: UnitaryBC, domain: QuantumDomain, lam: float,
                      opts: SolveOptions = SolveOptions()) -> complex:
    """det M(U, lam) with the canonical-basis fundamental solutions, from one
    banded LU of K(lam) - A (see :meth:`_Glued.log_det`).

    The value carries the positive factor exp(-s), s = max(0, log|det M| -
    log 1e100), which caps its modulus at 1e100 however deep lam lies below
    the potential; its zeros are the eigenvalues of H_U.  The samples follow
    lam (see :func:`_samples`); past the cap of 4097 they raise
    :class:`~qwire.odesolve.OdeError`.
    """
    phase, log_mod = _Glued(U, domain, opts, _samples(domain, lam, opts.rel_tol)[0]).log_det(lam)
    return complex(phase * math.exp(min(log_mod, _SCALE_LOG)))


@dataclass(frozen=True)
class Eigenpair:
    """One eigenvalue with its boundary data and sampled eigenfunctions.

    ``samples`` (mult, n, m) holds L2(sqrt(eta) dx)-orthonormal
    eigenfunctions on the per-interval grids ``xs`` (n, m).  ``residual`` is
    the largest relative boundary-condition residual
    ||(psi - i dpsi) - U (psi + i dpsi)|| / (||psi|| + ||dpsi||) of the members.
    """

    lam: float
    multiplicity: int
    residual: float
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


def _boundary(U: UnitaryBC):
    """The boundary part of one boundary condition: Q, A and c(U) (see
    :meth:`_Glued.log_det`), Q and A real where that is exact."""
    n = U.n
    # V: the right singular vectors of U + I whose singular value
    # 2 |cos(phase / 2)| clears the Cayley tolerance
    _, sv, vh = np.linalg.svd((U.matrix if U.matrix.imag.any() else U.matrix.real)
                              + np.eye(2 * n))
    Q = np.eye(2 * n) if sv.min() > _CAYLEY_ANGLE_TOL else vh[sv > _CAYLEY_ANGLE_TOL].conj().T
    UV, eye = Q.conj().T @ U.matrix @ Q, np.eye(Q.shape[1])
    A = -1j * np.linalg.solve(eye + UV, eye - UV)
    A = 0.5 * (A + A.conj().T)
    c = (-1) ** n * (2j) ** (2 * n - Q.shape[1]) * np.linalg.det(eye + UV)
    if not Q.imag.any() and np.abs(A.imag).max(initial=0.0) <= 1e-14 * (
            1.0 + np.abs(A).max(initial=0.0)):
        return Q.real, A.real, c
    return Q.astype(complex), A, c


class _Boundary:
    """The boundary part of K(lam) - A for P boundary conditions ``Us`` whose
    Q have one rank m, stacked per problem: ``Q`` (P, 2n, m), ``Qh`` its
    conjugate transpose, ``A`` (P, m, m), ``amax`` = max |A| and ``c`` (P,),
    with one ``dtype``, complex where any of them is.  ``parts`` are their
    :func:`_boundary`."""

    def __init__(self, Us, parts):
        self.Us, self.m = tuple(Us), parts[0][0].shape[1]
        self.dtype = float if all(Q.dtype == float and A.dtype == float
                                  for Q, A, _ in parts) else complex
        self.Q, self.A = (np.array([p[i] for p in parts], dtype=self.dtype) for i in (0, 1))
        self.Qh = np.ascontiguousarray(self.Q.conj().transpose(0, 2, 1))
        self.amax = np.array([np.abs(A).max(initial=0.0) for _, A, _ in parts])
        self.c = np.array([c for *_, c in parts])


def _batches(Us) -> list[tuple[list[int], _Boundary]]:
    """The boundary parts of ``Us``, one :class:`_Boundary` per rank of Q,
    each with the indices of its problems in ``Us``."""
    parts, ranks = [_boundary(U) for U in Us], {}
    for i, (Q, _, _) in enumerate(parts):
        ranks.setdefault(Q.shape[1], []).append(i)
    return [(idx, _Boundary([Us[i] for i in idx], [parts[i] for i in idx]))
            for idx in ranks.values()]


def _pick(part: np.ndarray, u):
    """The boundary part of each row's problem u from one stacked over the
    problems: all rows share it where there is one problem."""
    return part[0] if len(part) == 1 else part[u]


class _Glued:
    """K(lam) - A on one domain with ``samples`` nodes per interval, for the
    boundary conditions of one :class:`_Boundary` (one U, or several whose Q
    have one rank m).  The unknowns are c (psi = Q c), then the interior
    sample nodes in the folded order of :func:`qwire.oracle._folded_positions`,
    and ``rows`` <= ``cols`` list the entries that :meth:`_values` fills at
    each lam.

    The cells, the interior pivots of the count and each interval's DtN
    matrix Lambda(lam) depend on the domain and lam only; Q, A and c(U) on
    the boundary condition.  So one call serves (lam, problem) pairs of all
    its problems: the methods take the problem ``u`` of each row, which is
    not needed where there is one problem."""

    def __init__(self, U, domain: QuantumDomain, opts: SolveOptions, samples: int = _SAMPLES):
        bc = U if isinstance(U, _Boundary) else _batches([U])[0][1]
        n = bc.Us[0].n
        if n != domain.n:
            raise ValueError(f"a U({2 * n}) condition needs {n} intervals, got {domain.n}")
        if not opts.rel_tol > 0.0:
            raise ValueError("rel_tol must be positive")
        n, N, m = domain.n, samples - 1, bc.m
        self.bc, self.domain, self.opts, self.samples = bc, domain, opts, samples
        self.P, self.dtype = len(bc.Us), bc.dtype
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
        self._scatter, self._cold = {}, np.empty((self.dim, 0))
        self._gbtrf, self._gbtrs = scipy.linalg.get_lapack_funcs(
            ("gbtrf", "gbtrs"), (np.empty(0, self.dtype),))

    def cells(self, lams, samples: int | None = None, slopes: bool = False):
        """Cell DtN entries alpha, beta, gamma at every lam, each (G, n, S - 1),
        on S = ``samples`` nodes per interval, or the search's; with
        ``slopes``, their lam-derivatives follow."""
        parts = [cell_dtn(iv, lams, self.opts.rel_tol, samples or self.samples, slopes=slopes)
                 for iv in self.domain.intervals]
        return tuple(np.stack(p, axis=1) for p in zip(*parts))

    def count(self, lams, u=None):
        """N_U of problem u[i] at lams[i], and whether it is sure there; see
        :meth:`tree`.  Problems that share a lam share its cells."""
        lams = np.asarray(lams, dtype=float)
        if self.P == 1:      # deduping and gathering cost one U ~5% of its solve
            return self.tree(*self.cells(lams))
        uniq, at = np.unique(lams, return_inverse=True)
        return self.tree(*self.cells(uniq), at, u)

    def tree(self, alpha, beta, gamma, at=None, u=None):
        """N_U from (G, n, N) cells, and whether no pivot or boundary eigenvalue
        is within rounding of 0, per lam, or per row i where row i takes
        the cells at[i] and the boundary part of problem u[i].

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
        below = np.count_nonzero(pivots < 0.0, axis=(1, 2))
        n, k = self.domain.n, np.arange(self.domain.n)
        lam_mat = np.zeros((len(sure), 2 * n, 2 * n))
        lam_mat[:, k, k], lam_mat[:, n + k, n + k] = alpha[..., 0], gamma[..., 0]
        lam_mat[:, k, n + k] = lam_mat[:, n + k, k] = beta[..., 0]
        scale = np.max(np.concatenate([ma, mg, np.abs(beta)], axis=-1), axis=(1, 2))
        if at is not None:
            sure, below, lam_mat, scale = sure[at], below[at], lam_mat[at], scale[at]
        bc = self.bc
        ev = np.linalg.eigvalsh(_pick(bc.Qh, u) @ lam_mat @ _pick(bc.Q, u) - _pick(bc.A, u))
        sure &= (np.min(np.abs(ev), axis=-1, initial=np.inf)
                 > _UNSURE * (scale + _pick(bc.amax, u)))
        return below + np.count_nonzero(ev < 0.0, axis=-1), sure

    def _values(self, alpha, beta, gamma, u=None):
        """Entry values in the order of ``rows``, (G, entries), from (G, n, N)
        cells, row i for problem u[i]."""
        Qh, Q, A = (_pick(part, u) for part in (self.bc.Qh, self.bc.Q, self.bc.A))
        n, G = self.domain.n, len(alpha)
        ends = Qh * np.concatenate([alpha[..., 0], gamma[..., -1]], axis=1)[:, np.newaxis] @ Q - A
        return np.concatenate([(gamma[..., :-1] + alpha[..., 1:]).reshape(G, -1),
                               beta[..., 1:-1].reshape(G, -1),
                               (Qh[..., :n] * beta[:, np.newaxis, :, 0]).reshape(G, -1),
                               (Qh[..., n:] * beta[:, np.newaxis, :, -1]).reshape(G, -1),
                               ends[:, self.iu[0], self.iu[1]]], axis=1)

    def band(self, alpha, beta, gamma, u=None):
        """K(lam) - A at G values of lam, from (G, n, N) cells, row i for
        problem u[i], stacked into one (3w + 1, G dim) band in LAPACK's
        ``gbtrf`` layout."""
        v = self._values(alpha, beta, gamma, u)
        G, D, R = len(v), self.dim, 3 * self.w + 1
        parts, diag = (2 if self.dtype is complex else 1), 2 * self.w
        if G not in self._scatter:       # positions of the float parts of the entries
            flat = np.concatenate([self.cols * R + diag + self.rows - self.cols,
                                   (self.rows * R + diag + self.cols - self.rows)[self.off]])
            flat = (flat + R * D * np.arange(G)[:, np.newaxis]).ravel()
            self._scatter[G] = (parts * flat[:, np.newaxis] + np.arange(parts)).ravel()
        # bincount adds up entries that coincide (at a single interior node);
        # in Fortran order gbtrf factors the band in place
        v = np.concatenate([v, v[:, self.off].conj()], axis=1).ravel()
        ab = np.bincount(self._scatter[G], v.view(float), parts * R * G * D).view(self.dtype)
        return ab.reshape(R, G * D, order="F")

    def log_det(self, lam: float, u: int = 0):
        """det M(U, lam) of problem u as (phase, log|det M|), or (0, -inf)
        where it is 0.

        The gluing identity (R. Forman, Invent. Math. 88 (1987); Burghelea,
        Friedlander & Kappeler, J. Funct. Anal. 107 (1992)) reads
        det M = c(U) * prod_cells t01 * det(K(lam) - A), with t01 = -1/beta > 0
        each sample cell's transfer entry and c(U) = (-1)**n (2i)**(2n - m)
        det(I_m + U_V) prod_j eta(a_j)**-0.5 (m = rank Q).  det(K - A) comes
        from one unshifted banded LU: the product of the diagonal of its U
        factor, times -1 per row interchange (``ipiv`` is 0-based).
        """
        cells = self.cells([lam])
        lu, piv, info = self._gbtrf(self.band(*cells, [u]), self.w, self.w, overwrite_ab=True)
        if info > 0:
            return 0.0, -math.inf
        d, c = lu[2 * self.w], self.bc.c[u]
        eta_a = [expr.evaluate(iv.metric, iv.a) for iv in self.domain.intervals]
        swaps = np.count_nonzero(piv != np.arange(self.dim))
        phase = complex(np.prod(d / np.abs(d))) * (-1) ** swaps * c / abs(c)
        return phase, float(np.sum(np.log(np.abs(d))) - np.sum(np.log(-cells[1]))
                            + math.log(abs(c)) - 0.5 * np.sum(np.log(eta_a)))

    def cold(self, p: int) -> np.ndarray:
        """A fixed random orthonormal (dim, p) start block."""
        if self._cold.shape[1] < p:
            rng = np.random.default_rng(0)
            self._cold = np.linalg.qr(rng.standard_normal((p, self.dim)).T.astype(self.dtype))[0]
        return self._cold[:, :p]

    def ritz(self, alpha, beta, gamma, p: int, start, read, u=None):
        """The p eigenvalues of K(lam) - A nearest 0 at G values of lam, from
        (G, n, N) cells, row i for problem u[i]: ascending (G, p), their
        vectors (G, dim, p), and the residual norms ||(K - A - theta) v||
        (G, p).

        Block inverse iteration steps from the orthonormal ``start`` (G, dim,
        p), or from a fixed random block where it is None, until every value
        that ``read(rows, theta)`` marks, (G, p) for the lam ``rows``, is
        certified, at most three steps.  After a step (K - s) Y = X with
        Y = QR, so K Q = X R^-1 + s Q: Rayleigh-Ritz on
        Q^H K Q = (Q^H X) R^-1 + s needs no product with K.  A Ritz pair
        (theta, Q y) has the residual r = X R^-1 y - (theta - s) Q y,
        orthogonal to Q, so ||r||^2 = ||R^-1 y||^2 - (theta - s)^2.  Some
        eigenvalue lies within ||r|| of theta (Parlett, The Symmetric
        Eigenvalue Problem), which :func:`_certified` reads.

        The matrices of 16 rows at a time, of any problems, are stacked into
        one band for one LU, each shifted by s = 1e-12 of its largest
        diagonal entry, so that a matrix singular to the last bit still
        factors.
        """
        D, w, p = self.dim, self.w, min(p, self.dim)
        theta, vecs, resid = [], [], []
        for i in range(0, len(alpha), 16):
            ab = self.band(alpha[i:i + 16], beta[i:i + 16], gamma[i:i + 16],
                           None if u is None else u[i:i + 16])
            G = ab.shape[1] // D
            rows = slice(i, i + G)
            s = 1e-12 * np.abs(ab[2 * w]).reshape(G, D).max(axis=1)
            ab[2 * w] -= np.repeat(s, D)
            lu, piv, _ = self._gbtrf(ab, w, w, overwrite_ab=True)
            x = np.broadcast_to(self.cold(p), (G, D, p)) if start is None else start[rows]
            for _ in range(3):
                q, r = np.linalg.qr(self._gbtrs(lu, w, w, x.reshape(G * D, p), piv)[0]
                                    .reshape(G, D, p))
                rinv = np.linalg.inv(r)
                h = q.conj().transpose(0, 2, 1) @ x @ rinv
                th, y = np.linalg.eigh(0.5 * (h + h.conj().transpose(0, 2, 1)))
                res = np.sqrt(np.maximum(np.sum(np.abs(rinv @ y) ** 2, axis=1) - th * th, 0.0))
                x, th = q @ y, th + s[:, np.newaxis]
                ok = _certified(th, res)
                if ok.all() or (ok | ~read(rows, th)).all():
                    break
            theta.append(th)
            vecs.append(x)
            resid.append(res)
        return np.concatenate(theta), np.concatenate(vecs), np.concatenate(resid)


def _grid(domain: QuantumDomain, lam: float) -> tuple[int, np.ndarray]:
    """The eigenfunction grid's samples per interval at ``lam``, the fewest
    S >= 257 at which every sample cell turns by less than pi, and the
    largest turn at each of ``_COUNTS``: l sqrt(2 (lam - Vbar))+ summed over
    the cell's reference cells, of 4096 per interval.  Where 4097 samples
    turn by pi, the cap's :class:`~qwire.odesolve.OdeError`."""
    turns = np.zeros(len(_COUNTS))
    for iv in domain.intervals:
        ell, vbar = _reference_cells(iv, _MAX_SAMPLES - 1)
        t, top = ell * np.sqrt(np.maximum(2.0 * (lam - vbar), 0.0)), []
        while t.size >= _LEAST - 1:                         # 4096 cells, then 2048, ..
            top.append(t.max())
            t = t[0::2] + t[1::2]
        if top[0] >= math.pi:
            raise OdeError(f"lam={lam:.6g} turns a sample cell of [{iv.a:g}, {iv.b:g}] "
                           f"by pi at the cap of {_MAX_SAMPLES} samples")
        turns = np.maximum(turns, top[::-1])
    return max(int(_COUNTS[turns < math.pi][0]), _SAMPLES), turns


def _samples(domain: QuantumDomain, lam: float,
             rel_tol: float = SolveOptions.rel_tol) -> tuple[int, int]:
    """The search's and the eigenfunction grid's samples per interval for a
    solve whose highest lam is ``lam`` (see :func:`_grid`).  The search takes
    the fewest S >= 17 at which every cell turns by at most 3 pi / 4, or
    else S at least the grid's (a search on twice the samples costs more
    than one that probes next to a cell's pole), whose cells hold no
    Dirichlet level of their own an end nudge above lam, checked on the
    cells: the turns place those levels only roughly.  Such a cell holds
    none at a lower lam, nor does a part of it, so no lam of the solve meets
    one; an end nudged further plans again.  Else the cap's OdeError.
    """
    if lam == -math.inf:
        return _LEAST, _SAMPLES
    grid, turns = _grid(domain, lam)
    above = np.array([[lam + _ISOLATE * max(1.0, abs(lam))]])
    for s, turn in zip(_COUNTS.tolist(), turns.tolist()):
        if (turn <= _MARGIN or s >= grid) and all(
                _cells_free(_mesh(iv, s), above, rel_tol)[2].all() for iv in domain.intervals):
            return s, grid
    raise OdeError(f"lam={lam:.6g} puts a Dirichlet level inside a sample cell "
                   f"at the cap of {_MAX_SAMPLES} samples")


def count_eigenvalues(U: UnitaryBC, domain: QuantumDomain, lams,
                      opts: SolveOptions = SolveOptions()) -> np.ndarray:
    """N_U(lam), the number of eigenvalues below lam with multiplicity, for
    each lam: exact unless lam is within sqrt(eps) of a level.  The count
    takes the search's samples at the largest lam (see :func:`_samples`);
    past the cap of 4097 they raise :class:`~qwire.odesolve.OdeError`.
    N_U(-inf) is 0; lam = +inf or nan is a ``ValueError``."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if not np.all(lams < math.inf):
        raise ValueError("count_eigenvalues needs lam below +inf and not nan")

    g = _Glued(U, domain, opts, _samples(domain, np.max(lams, initial=-math.inf), opts.rel_tol)[0])
    counts, finite = np.zeros(lams.shape, dtype=int), lams > -math.inf
    if finite.any():
        counts[finite] = g.count(lams[finite])[0]
    return counts


def find_eigenvalues(U: UnitaryBC, domain: QuantumDomain,
                     lambda_range: tuple[float, float],
                     opts: SolveOptions = SolveOptions()) -> Spectrum:
    """All eigenvalues in the closed ``lambda_range``, or its lowest ``max_eigs``.

    An open end lo = -inf is the bottom of the spectrum, a floor doubled down
    from min(0, hi) - 1 until no level lies below it; hi = inf needs
    ``max_eigs``, a ceiling stepped up until that many levels lie above lo.
    The search takes the fewest samples per interval that the top needs,
    and the eigenfunctions are read on 257, or more where the top needs them
    (see :func:`_samples`).  The count at the ends gives the levels;
    multisection on the count isolates them, one per bracket, several in a
    bracket below the ``max_eigs`` cutoff a quarter as wide as its distance
    to every other level, or to 1e-7 relative; level k is the root of mu_k,
    found by a safeguarded Newton iteration whose slope mu_k' comes from the
    probe's own Ritz vector and the cells' exact lam-derivatives, to 1e-12
    relative, its last step taken unprobed where the quadratic model puts
    it within that (see :func:`_refine`).  The eigenfunctions are the
    search's null vectors, moved to the grid (see :func:`_on_grid`).  A
    level's accuracy is floored by rounding at about eps ||K|| / |mu_k'|,
    ~1e-11 relative on multi-interval problems.  Roots that agree to 1e-9 relative form one
    eigenvalue, and their number is its multiplicity.
    """
    return _spectra([U], domain, lambda_range, opts)[0]


def _spectra(Us, domain: QuantumDomain, lambda_range: tuple[float, float],
             opts: SolveOptions) -> list[Spectrum]:
    """:func:`find_eigenvalues` of each of ``Us`` on one window.  The Us
    whose Q have one rank form one batch, searched in lockstep by
    :func:`_levels`."""
    lo, hi = lambda_range
    if not lo < hi:
        raise ValueError("lambda_range must be increasing")
    if opts.max_eigs is not None and opts.max_eigs < 1:
        raise ValueError(f"max_eigs must be at least 1, got {opts.max_eigs}")
    if hi == math.inf and opts.max_eigs is None:
        raise ValueError("an open upper end needs max_eigs")
    # the highest lam of the first count: hi, or lo where a ceiling starts
    # from it, or the floor's first -1
    top = hi if hi < math.inf else max(lo, -1.0)
    eigs = [None] * len(Us)
    for idx, bc in _batches(Us):
        levels = _levels(_Glued(bc, domain, opts, _samples(domain, top, opts.rel_tol)[0]), lo, hi)
        for i, e in zip(idx, levels):
            eigs[i] = e
    return [Spectrum(eigs=tuple(e), lambda_range=tuple(lambda_range), options=opts)
            for e in eigs]


def _levels(g: _Glued, lo: float, hi: float) -> list[list[Eigenpair]]:
    """The eigenpairs of :func:`find_eigenvalues` for each problem of ``g``,
    searched on it in lockstep: each count, Newton probe and Ritz step takes
    the (lam, problem) pairs of every problem in one call.

    A floor for lo = -inf counts four candidates f, 2f, 4f, 8f per call,
    for every problem that has none yet, and each takes its first with no
    level below it.  A ceiling probe for hi = inf past the reach of ``g``
    moves the search of every problem to the samples it needs; the counts
    already taken stay, since N_U does not depend on the samples.  An end
    whose count is not sure moves out past the level there in steps of its
    own, 1e-7 max(1, |end|), doubling, and plans again as a probe does.  The
    eigenpairs of all problems are read on ``g`` in one call, from the
    vectors of each level's last Newton probe, and each problem's are moved
    to the grid of :func:`_samples` at its highest level found, so the grid
    follows its levels, not the ceiling's probes or the other problems.
    """
    P, opts = g.P, g.opts
    u = np.arange(P)
    los, his, n_lo = np.full(P, float(lo)), np.full(P, float(hi)), None
    if lo == -math.inf:
        floors, todo = (min(0.0, hi) - 1.0) * np.array([1.0, 2.0, 4.0, 8.0]), u
        while todo.size:
            empty = (g.count(np.tile(floors, todo.size), np.repeat(todo, 4))[0] == 0).reshape(-1, 4)
            hit = empty.any(axis=1)
            los[todo[hit]] = floors[np.argmax(empty[hit], axis=1)]
            todo, floors = todo[~hit], 16.0 * floors
        n_lo = np.zeros(P, dtype=int)
    if hi == math.inf:               # hi: fewer than max_eigs levels above lo
        if n_lo is None:
            n_lo = g.count(los, u)[0]
        his, step, todo = los.copy(), np.maximum(1.0, np.abs(los)), u
        while todo.size:
            probes = his[todo] + step[todo]
            g = _reaching(g, probes.max())
            todo = todo[g.count(probes, todo)[0] - n_lo[todo] < opts.max_eigs]
            his[todo] += step[todo]
            step[todo] *= 2.0
        his += step
    ends = np.stack([los, his], axis=1)
    counts, sure = (v.reshape(P, 2) for v in g.count(ends.ravel(), np.repeat(u, 2)))
    step = _ISOLATE * np.maximum(1.0, np.abs(ends))
    while not sure.all():              # an end on a level moves out past it
        ends += np.where(sure, 0.0, step * [-1.0, 1.0])
        g = _reaching(g, ends.max())
        counts, sure = (v.reshape(P, 2) for v in g.count(ends.ravel(), np.repeat(u, 2)))
        step *= 2.0
    n_lo, n_hi = counts.T
    top = n_hi if opts.max_eigs is None else np.minimum(n_hi, n_lo + opts.max_eigs)
    roots, vecs, ru = _refine(g, _isolate(g, *ends.T, n_lo, n_hi, top))
    found = [[] for _ in range(P)]
    if not roots.size:
        return found
    # roots of one problem that agree to 1e-9 relative form one level
    cut = 1 + np.flatnonzero((np.diff(roots) > _MERGE * np.maximum(1.0, np.abs(roots[1:])))
                             | (np.diff(ru) != 0))
    first = np.concatenate([[0], cut])
    lams = np.array([np.mean(v) for v in np.split(roots, cut)])
    mults, lu = np.diff(np.append(first, len(roots))), ru[first]
    # each problem's grid, at its highest root: the last, as roots ascend
    highest = dict(zip(ru.tolist(), roots.tolist()))
    grid = {v: _grid(g.domain, r)[0] for v, r in highest.items()}
    for v, e in zip(lu, _eigenpairs(g, lams, mults, vecs[first], lu,
                                     np.array([grid[v] for v in lu.tolist()]))):
        found[v].append(e)
    return found


def _reaching(g: _Glued, lam: float) -> _Glued:
    """``g``, or its problems on the samples that ``lam`` needs if more."""
    samples = _samples(g.domain, lam, g.opts.rel_tol)[0]
    return g if samples <= g.samples else _Glued(g.bc, g.domain, g.opts, samples)


def _isolate(g: _Glued, lo, hi, n_lo, n_hi, top):
    """Brackets (a, b, N(a), N(b), u) of problem u with N(a) < top[u], from
    each problem's window (lo[u], hi[u]) and its counts.  Each holds one
    level, or several in a bracket that is tight (at most a quarter as wide
    as its distance to the nearest other bracket of its problem that holds
    a level, or to the window's end where there is none, and holding no
    level past top[u]) or 1e-7 relative wide.  In a tight bracket the m
    values mu_k of its levels are the eigenvalues of K(lam) - A nearest 0,
    and :func:`_refine` finds each root there, so a degenerate level costs
    no rounds of its own.  Each round counts at the quarter points of every
    bracket of every problem in one call.  A point whose count is not sure
    does not split, so every bracket end but the window's has a sure count."""
    todo, done, held = list(zip(lo, hi, n_lo, n_hi, range(len(lo)))), [], []
    while todo:
        # each bracket's nearest neighbours among all of its problem's
        # brackets that hold levels (held: those past top), or the window
        every = todo + done + held
        a, b, u = (np.array([t[i] for t in every]) for i in (0, 1, 4))
        order = np.lexsort((a, u))
        left, right = np.asarray(lo, dtype=float)[u], np.asarray(hi, dtype=float)[u]
        same = u[order[1:]] == u[order[:-1]]
        left[order[1:][same]], right[order[:-1][same]] = b[order[:-1][same]], a[order[1:][same]]
        tight = b - a <= 0.25 * np.minimum(a - left, right - b)
        # a bracket past top splits as one that is not tight, so no more
        # than top levels come back but degenerate ones
        split = [t for t, close in zip(todo, tight) if t[3] - t[2] > 1
                 and not (close and t[3] <= top[t[4]])
                 and t[1] - t[0] > _ISOLATE * max(1.0, abs(t[0]), abs(t[1]))]
        done += [t for t in todo if t not in split]
        if not split:
            break
        a, b, na, nb, u = (np.array(v) for v in zip(*split))
        c = a[:, np.newaxis] + (b - a)[:, np.newaxis] * np.array([0.25, 0.5, 0.75])
        nc, sure = (v.reshape(c.shape) for v in g.count(c.ravel(), np.repeat(u, 3)))
        todo = []
        for i, t in enumerate(split):
            if not sure[i].any():
                done.append(t)
                continue
            ends = [a[i], *c[i][sure[i]], b[i]]
            counts = np.clip(np.maximum.accumulate([na[i], *nc[i][sure[i]], nb[i]]), na[i], nb[i])
            for v in zip(ends[:-1], ends[1:], counts[:-1], counts[1:]):
                if v[3] > v[2]:
                    (todo if v[2] < top[t[4]] else held).append((*v, t[4]))
    return sorted(done)


def _certified(theta, resid):
    """Whether each Ritz pair of a row is certified: its residual is below
    |theta|, so the nearest eigenvalue has the sign of theta, or below 1e-12
    of the row's largest |theta|."""
    mag = np.abs(theta)
    return (resid < mag) | (resid <= _REFINE * mag.max(axis=1, keepdims=True))


def _column(theta, count, sure, k, k0, m):
    """The column of mu_k in each row of ascending Ritz values, -1 where the
    block misses it, for level k of a bracket of levels k0 .. k0+m-1.

    A sure count indexes the Ritz values: N eigenvalues are negative.  Where
    the count is not sure, or a Ritz value is below 1e-6 of the largest, lam
    is within rounding of a level of the bracket, whose m eigenvalues are the
    ones nearest 0.
    """
    mag = np.abs(theta)
    by_count = sure & (mag.min(axis=1) > 1e-6 * mag.max(axis=1))
    nearest = np.minimum.accumulate(np.argsort(mag, axis=1), axis=1)[
        np.arange(len(m)), np.minimum(m, theta.shape[1]) - 1]
    j = np.where(by_count, k - count + np.count_nonzero(theta < 0.0, axis=1), nearest + k - k0)
    return np.where((j >= 0) & (j < theta.shape[1]), j, -1)


def _mu(g: _Glued, lams, ks, k0s, ms, p: int, start=None, u=None):
    """mu_k(lam) per (lam, k) for level k of a bracket of levels k0 .. k0+m-1
    of problem u (see :func:`_column`), nan where the Ritz block misses it;
    its slope mu_k'(lam); whether mu_k is certified; the count at lam and
    whether it is sure; the largest Ritz value in magnitude; and the p Ritz
    vectors at lam (len(lams), dim, p).

    ``start`` (len(lams), dim, p) holds a warm start per probe; the Ritz
    steps at lam end once the value of every k probed there is certified.
    The slope is x^H K'(lam) x for the Ritz vector x of mu_k (Hellmann-
    Feynman), with K' assembled from the cells' exact lam-derivatives,
    which the one cells call per distinct lam returns with them
    (``odesolve.cell_dtn``).  From a converged Ritz vector it is exact up to
    rounding and the vector's error squared, so :func:`_refine` can accept
    a Newton step without probing it.
    """
    lams, at, pu = np.asarray(lams, dtype=float), None, None
    if g.P == 1:                     # as in _Glued.count: no (lam, problem) keys
        uniq, first, inv = np.unique(lams, return_index=True, return_inverse=True)
    else:
        # a Ritz row per distinct (lam, problem), complex keys sorting by lam
        # then problem, and a cell per distinct lam
        keys, first, inv = np.unique(lams + 1j * u, return_index=True, return_inverse=True)
        uniq, at = np.unique(keys.real, return_inverse=True)
        pu = keys.imag.astype(int)
    both = g.cells(uniq, slopes=True)
    cells, slopes = both[:3], both[3:]
    counts, sure = g.tree(*cells, at, pu)
    if at is not None:
        cells, slopes = (tuple(c[at] for c in v) for v in (cells, slopes))

    def read(rows, theta):
        sel = np.flatnonzero((inv >= rows.start) & (inv < rows.stop))
        r = inv[sel] - rows.start
        j = _column(theta[r], counts[inv[sel]], sure[inv[sel]], ks[sel], k0s[sel], ms[sel])
        mask = np.zeros(theta.shape, dtype=bool)
        mask[r[j >= 0], j[j >= 0]] = True
        return mask

    theta, vecs, resid = g.ritz(*cells, p, None if start is None else start[first], read, pu)
    theta, cert, vecs = theta[inv], _certified(theta, resid)[inv], vecs[inv]
    j = _column(theta, counts[inv], sure[inv], ks, k0s, ms)
    rows, hit = np.arange(len(inv)), j >= 0
    # K' entry-wise: _values of the cells' derivatives subtracts A, from the
    # boundary block's entries, which come last; add it back
    dk = g._values(*slopes, pu)
    dk[:, len(g.rows) - len(g.iu[0]):] += _pick(g.bc.A, pu)[..., g.iu[0], g.iu[1]]
    x = vecs[rows, :, j]
    terms = dk[inv] * x[:, g.rows].conj() * x[:, g.cols]
    slope = np.sum(np.where(g.off, 2.0 * terms.real, terms.real), axis=1)
    return (np.where(hit, theta[rows, j], np.nan), np.where(hit, slope, np.nan),
            hit & cert[rows, j], counts[inv], sure[inv], np.max(np.abs(theta), axis=1), vecs)


def _refine(g: _Glued, brackets):
    """The root of mu_k for every level k of every bracket, ascending in k,
    and the Ritz vectors of its last probe, by a safeguarded Newton iteration
    in lockstep (rtsafe: Press et al., Numerical Recipes, section 9.4).
    mu_k decreases, so mu_k(a) >= 0 > mu_k(b).  The first probe takes both
    ends, and Newton starts from the one with the smaller |mu_k|; an end
    value that is not certified, or of the wrong sign, is unknown.  A step
    from the last probe x to c = x - mu_k / mu_k' is taken where mu_k(x) is
    certified, mu_k' < 0, c lies inside the bracket and |c - x| is at most
    half the step before the last; any other step bisects.  The side of a
    probe comes from the sign of mu_k where its value is certified, and from
    the count where it is not.  The root is the probe where |mu_k| is below
    1e-12 of the largest Ritz value, else the midpoint of a bracket 1e-12
    relative wide, else a Newton step taken without a probe (rtsafe too
    stops on its step).  That needs the step h to c and the step h_last to
    x both to be Newton's, h_last from a probe, not from a bracket end, and
    Newton's next error C h**2 within a quarter of 1e-12 max(1, |c|), with
    C = |mu_k'' / 2 mu_k'| read as the larger of h / h_last**2 and
    |mu_k'(x) - mu_k'(x_last)| / (2 h_last |mu_k'(x)|).  Either estimate
    alone, or one read from a step out of a bracket end, can be far too
    small: a long first step that lands 1e-5 from the root says little of
    the curvature there.  The slope is exact (see :func:`_mu`), so on the
    usual probes, ~1e-1, 1e-4 and 1e-8 relative from the root, the fourth
    round that would only confirm it is skipped.  Each probe of
    a level starts from the Ritz vectors of the level's last probe, and so
    does the Ritz step of :func:`_eigenpairs` at its root.  The levels of
    every problem are refined together, ordered by problem, then k, which
    is returned with them."""
    items = [(a, b, k, na, nb - na, u) for a, b, na, nb, u in brackets for k in range(na, nb)]
    if not items:
        return np.empty(0), np.empty((0, g.dim, 0)), np.empty(0, dtype=int)
    a, b, k, k0, m, u = (np.array(v) for v in zip(*items))
    a, b = a.astype(float), b.astype(float)
    p = int(np.max(m)) + 2
    f, df, cert, _, _, _, vecs = _mu(g, np.concatenate([a, b]),
                                     *(np.tile(v, 2) for v in (k, k0, m)), p, None,
                                     np.tile(u, 2))
    fa, fb = np.split(np.where(cert, f, np.nan), 2)
    fa[fa < 0.0], fb[fb >= 0.0] = np.nan, np.nan
    at_a = np.isnan(fb) | (fa <= -fb)      # the known end nearer its root, if any
    x, fx, dfx = np.where(at_a, a, b), np.where(at_a, fa, fb), np.where(at_a, *np.split(df, 2))
    vecs = np.where(at_a[:, np.newaxis, np.newaxis], *np.split(vecs, 2))
    step = before = b - a                       # the last two steps
    # mu_k' at the probe before x, nan while x is the bracket end, and
    # whether the step to x was Newton's and started at a probe
    df_last, newton_last = np.full(len(a), np.nan), np.zeros(len(a), dtype=bool)
    for _ in range(500):
        xtol = _REFINE * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        act = np.flatnonzero(b - a > xtol)
        if not act.size:
            break
        A, B = a[act], b[act]
        with np.errstate(invalid="ignore", divide="ignore"):
            c = x[act] - fx[act] / dfx[act]
        h = np.abs(c - x[act])
        newton = (dfx[act] < 0.0) & (c > A) & (c < B) & (h <= 0.5 * before[act])
        # Newton's next error is about C h**2, C = |mu_k'' / 2 mu_k'|, read
        # from the step h_last to x two ways, the larger counting: as
        # h / h_last**2, and from the exact slopes at its two ends
        with np.errstate(invalid="ignore", divide="ignore"):
            C = np.maximum(h / step[act], np.abs(dfx[act] - df_last[act])
                           / (2.0 * np.abs(dfx[act]))) / step[act]
        accept = newton & newton_last[act] & (
            C * h ** 2 < _ACCEPT * _REFINE * np.maximum(1.0, np.abs(c)))
        c = np.where(newton, c, 0.5 * (A + B))
        before, step = step, step.copy()
        step[act] = np.where(newton, h, 0.5 * (B - A))
        newton_last[act] = newton & ~np.isnan(df_last[act])
        a[act[accept]], b[act[accept]] = c[accept], c[accept]
        act, A, B, c = act[~accept], A[~accept], B[~accept], c[~accept]
        if not act.size:
            continue
        c = np.clip(c, A + 0.25 * xtol[act], B - 0.25 * xtol[act])
        fc, dfc, cert, nc, sure, scale, vecs[act] = _mu(g, c, k[act], k0[act], m[act], p,
                                                      vecs[act], u[act])
        df_last[act] = dfx[act]
        x[act], fx[act], dfx[act] = c, np.where(cert, fc, np.nan), dfc
        # the root lies left of c: by the sign of a certified mu_k, else by a
        # sure count, else by the sign of mu_k where it has one
        by_sign = cert | (~sure & ~np.isnan(fc))
        left = np.where(by_sign, fc < 0.0, nc > k[act])
        close = cert & (np.abs(fc) <= _REFINE * scale)            # c is the root
        a[act[close]], b[act[close]] = c[close], c[close]
        b[act[left]], a[act[~left]] = c[left], c[~left]
    else:
        raise RuntimeError("the Newton refinement of a level did not converge")
    order = np.lexsort((k, u))
    return 0.5 * (a + b)[order], vecs[order], u[order]


def eigenfunctions(U: UnitaryBC, domain: QuantumDomain, lam: float,
                   opts: SolveOptions = SolveOptions()) -> list[Eigenpair]:
    """The orthonormal eigenfunctions of H_U at an eigenvalue lam: the levels
    of :func:`find_eigenvalues` within 1e-7 relative of lam."""
    delta = _ISOLATE * max(1.0, abs(lam))
    eigs = find_eigenvalues(U, domain, (lam - delta, lam + delta), opts).eigs
    if not eigs:
        raise ValueError(f"no eigenvalue within {delta:.1e} of lam={lam!r}")
    return list(eigs)


def _eigenpairs(g: _Glued, lams, mults, start, u, grids) -> list[Eigenpair]:
    """Eigenpairs from the ``mult`` Ritz vectors of K(lam) - A nearest 0 of
    problem u on the search's own ``g``, which hold psi = Q c and the
    interior nodes: the eigenfunction at every sample node of the search.
    The Ritz steps start from ``start`` (len(lams), dim, p), the vectors of
    each level's last Newton probe, and end once those ``mult`` pairs are
    certified.  dpsi comes from the end cells' DtN rows, and the samples
    move to each level's grid of ``grids[i]`` points per interval (see
    :func:`_on_grid`).  The members of a level are orthonormalised in
    L2(sqrt(eta) dx) by Simpson quadrature, in order, and each takes the
    phase that makes its first sample (interval, then x) whose modulus is
    within 1e-6 of its largest real positive: where samples tie in modulus,
    as the peaks of sin(kx) and a plane wave's do, rounding does not decide
    the phase."""
    domain, m, n = g.domain, g.bc.m, g.domain.n
    cells = g.cells(lams)
    mults = np.asarray(mults)

    def read(rows, theta):
        return (np.argsort(np.argsort(np.abs(theta), axis=1), axis=1)
                < mults[rows, np.newaxis])

    theta, vecs, _ = g.ritz(*cells, start.shape[2], start, read, u)
    # one row per member: member j of level lev, the vector of its j-th
    # Ritz value nearest 0; a level's members are consecutive rows
    lev = np.repeat(np.arange(len(mults)), mults)
    j = np.arange(len(lev)) - np.repeat(np.cumsum(mults) - mults, mults)
    x = vecs[lev, :, np.argsort(np.abs(theta), axis=1)[lev, j]]                 # (R, dim)
    us = np.asarray(u)[lev]
    ends = (_pick(g.bc.Q, us) @ x[:, :m, np.newaxis])[..., 0]                    # (R, 2n)
    f = np.concatenate([ends[:, :n, np.newaxis], x[:, g.pos], ends[:, n:, np.newaxis]], axis=2)
    alpha, beta, gamma = cells
    dpsi = np.concatenate([alpha[lev, :, 0] * f[..., 0] + beta[lev, :, 0] * f[..., 1],
                           beta[lev, :, -1] * f[..., -2] + gamma[lev, :, -1] * f[..., -1]],
                          axis=1)
    umat = np.array([U.matrix for U in g.bc.Us])
    pairs = [None] * len(mults)
    for S in np.unique(grids).tolist():
        at, rows = np.flatnonzero(grids == S), np.flatnonzero(grids[lev] == S)
        fs = _on_grid(g, lams[at], f[rows], np.searchsorted(at, lev[rows]), S)
        xs = np.array([np.linspace(iv.a, iv.b, S) for iv in domain.intervals])
        # the samples, then dpsi, which the quadrature weighs 0: one linear
        # map orthonormalises both
        w = np.concatenate([_quad_weights(domain, xs).ravel(), np.zeros(2 * n)])
        v = np.concatenate([fs.reshape(len(rows), -1), dpsi[rows]], axis=1)
        for k in range(int(mults[at].max())):
            r = np.flatnonzero(j[rows] == k)
            for h in range(k):                          # Gram-Schmidt on the members before
                prev = v[r - k + h]
                v[r] -= np.sum(w * prev.conj() * v[r], axis=1)[:, np.newaxis] * prev
            v[r] /= np.sqrt(np.sum(w * np.abs(v[r]) ** 2, axis=1))[:, np.newaxis]
            mag = np.abs(v[r, :-2 * n])
            peak = v[r, np.argmax(mag >= (1.0 - 1e-6) * mag.max(axis=1, keepdims=True), axis=1)]
            v[r] *= (np.abs(peak) / peak)[:, np.newaxis]
        samples, dp = v[:, :-2 * n].reshape(fs.shape), v[:, -2 * n:]
        psi = np.concatenate([samples[..., 0], samples[..., -1]], axis=1)
        res = (np.linalg.norm((psi - 1j * dp)[..., np.newaxis]
                              - _pick(umat, us[rows]) @ (psi + 1j * dp)[..., np.newaxis],
                              axis=(1, 2))
               / (np.linalg.norm(psi, axis=1) + np.linalg.norm(dp, axis=1)))
        starts = np.flatnonzero(j[rows] == 0)
        for i, lo, hi, residual in zip(at, starts, np.append(starts[1:], len(rows)),
                                       np.maximum.reduceat(res, starts)):
            pairs[i] = Eigenpair(lam=float(lams[i]), multiplicity=int(mults[i]),
                                 residual=float(residual), xs=xs, samples=samples[lo:hi],
                                 psi=psi[lo:hi], dpsi=dp[lo:hi])
    return pairs


def _on_grid(g: _Glued, lams, f, at, S: int):
    """Samples f (R, n, g.samples) of solutions at lams[at] on S points per
    interval.

    Where the search ran on more samples, every r-th.  Where the grid is
    finer, each search cell holds r grid cells, whose DtN entries at lams
    give the values at its r - 1 interior points: they solve the grid
    cells' interior rows of K with the search cell's end values as
    Dirichlet data, one tridiagonal system per search cell and lam, solved
    for the unit data at either end.  That system is the search cell's
    Dirichlet problem, positive definite because the cell holds no
    Dirichlet level of its own (its turn at lam is below pi, and at most
    3 pi / 4 at the search's top), and a grid cell, at most half of it,
    holds none either.
    """
    N = g.samples - 1
    if S <= g.samples:
        return f[..., ::N // (S - 1)]
    cells = g.cells(lams, S)
    r = (S - 1) // N
    alpha, beta, gamma = (c.reshape(c.shape[:2] + (N, r)) for c in cells)
    # interior point i = 1 .. r - 1: the diagonal gamma_(i-1) + alpha_i, the
    # couplings beta_1 .. beta_(r-2), and the data -beta_0, -beta_(r-1)
    piv, e = gamma[..., :-1] + alpha[..., 1:], beta[..., 1:-1]
    y = np.zeros(piv.shape + (2,))
    y[..., 0, 0], y[..., -1, 1] = -beta[..., 0], -beta[..., -1]
    for i in range(1, r - 1):                      # LDL^T elimination
        ratio = e[..., i - 1] / piv[..., i - 1]
        piv[..., i] -= ratio * e[..., i - 1]
        y[..., i, :] -= ratio[..., np.newaxis] * y[..., i - 1, :]
    y[..., -1, :] /= piv[..., -1, np.newaxis]
    for i in range(r - 3, -1, -1):                 # back substitution
        y[..., i, :] = (y[..., i, :] - e[..., i, np.newaxis] * y[..., i + 1, :]) \
            / piv[..., i, np.newaxis]
    y = y[at]
    inner = f[..., :-1, np.newaxis] * y[..., 0] + f[..., 1:, np.newaxis] * y[..., 1]
    fine = np.concatenate([f[..., :-1, np.newaxis], inner], axis=-1)
    return np.concatenate([fine.reshape(f.shape[:2] + (N * r,)), f[..., -1:]], axis=-1)


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
