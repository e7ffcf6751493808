"""Spectral function, eigenvalue search, eigenfunctions and unitary evolution.

The boundary condition together with the per-interval fundamental solutions
yields a 2n x 2n matrix M(U, lam) whose determinant (the spectral function)
vanishes exactly at the eigenvalues of the self-adjoint realization H_U.  With
the compact endpoint combinations psi_{l+-} = psi_l +- i dpsi_l (and likewise
at the right endpoints) the matrix is assembled block-row-wise as

    row block 1, column sigma:  I_n o psi_{l-} - U11 o psi_{l+} - U12 o psi_{r+}
    row block 2, column sigma:  I_n o psi_{r-} - U21 o psi_{l+} - U22 o psi_{r+}

where ``o`` is the Hadamard column scaling (T o X)Y = T(X o Y).

Root detection works on the smallest singular value of a row-equilibrated
copy of M rather than on |det M|: the determinant's dynamic range is
exponential in lam and n, and the overflow-guard rescaling of the fundamental
solutions can leave whole rows uniformly tiny under block-diagonal U.  Row
equilibration removes that artefact without touching the zero set (it
multiplies the determinant by a positive constant and preserves the kernel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr
from .bc import UnitaryBC
from .domain import QuantumDomain
from .odesolve import FundamentalPair, endpoint_traces, fundamental_solutions

__all__ = [
    "SolveOptions",
    "SpectralMatrix",
    "Eigenpair",
    "Spectrum",
    "UnresolvedCluster",
    "hadamard_vec",
    "hadamard_mat",
    "spectral_matrix",
    "spectral_function",
    "boundary_wronskian",
    "find_eigenvalues",
    "eigenfunctions",
    "evolve",
    "deficiency_indices",
]


class UnresolvedCluster(Exception):
    """Two candidate roots inside one refinement bracket: the scan grid is too coarse."""


@dataclass(frozen=True)
class SolveOptions:
    grid: int = 300
    sigma_tol: float = 1e-6
    max_eigs: int | None = None
    rel_tol: float = 1e-11
    samples: int = 257


def hadamard_vec(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Componentwise product of two equal-length vectors."""
    x, y = np.asarray(x), np.asarray(y)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("hadamard_vec needs two vectors of equal length")
    return x * y


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
    """Assembled M(U, lam) plus its equilibrated singular data."""

    lam: float
    matrix: np.ndarray
    svals: np.ndarray          # singular values of the equilibrated matrix
    sigma_min: float
    scale_exponent: float      # total log-rescaling inherited from the ODE solves
    row_scale: np.ndarray


def _traces(intervals, ends) -> tuple[np.ndarray, ...]:
    """Boundary data psi_{l,r} and outward metric derivatives dpsi_{l,r}.

    ``ends`` holds per interval the endpoint data of its canonical pair: a
    :class:`FundamentalPair` (arrays of shape (2,)) or an
    :class:`~qwire.odesolve.EndpointTraces` ((G, 2) over G values of lam).
    The results stack them over the n intervals on a last axis: (2, n) or
    (G, 2, n), sigma-major.
    """
    psi_a = np.stack([e.psi_a for e in ends], axis=-1)
    dpsi_a = np.stack([e.dpsi_a for e in ends], axis=-1)
    psi_b = np.stack([e.psi_b for e in ends], axis=-1)
    dpsi_b = np.stack([e.dpsi_b for e in ends], axis=-1)
    root_a, root_b = np.sqrt([expr.evaluate(iv.metric, np.array([iv.a, iv.b]))
                              for iv in intervals]).T
    return psi_a, psi_b, -dpsi_a / root_a, dpsi_b / root_b


def _endpoint_traces(fps: list[FundamentalPair]):
    """The boundary data of :func:`_traces` at one lam, shape (2, n) each."""
    return _traces([fp.interval for fp in fps], fps)


def _assemble(U: UnitaryBC, psi_l, psi_r, dpsi_l, dpsi_r):
    """M(U, lam) and its row-equilibrated copy for a stack of G values of lam.

    Takes the (G, 2, n) boundary data of :func:`_traces`; returns M and the
    equilibrated matrices, shape (G, 2n, 2n), and the row scales, (G, 2n).
    """
    G, _, n = psi_l.shape
    lp, lm = psi_l + 1j * dpsi_l, psi_l - 1j * dpsi_l
    rp, rm = psi_r + 1j * dpsi_r, psi_r - 1j * dpsi_r

    # Column sigma*n + j belongs to solution sigma on interval j: row block 1
    # is I o psi_{l-} - U11 o psi_{l+} - U12 o psi_{r+}, row block 2 likewise.
    def cols(t):
        return t.reshape(G, 1, 2 * n)

    def tile(u):
        return np.tile(u, (1, 2))

    eye = tile(np.eye(n))
    M = np.concatenate([
        eye * cols(lm) - tile(U.u11) * cols(lp) - tile(U.u12) * cols(rp),
        eye * cols(rm) - tile(U.u21) * cols(lp) - tile(U.u22) * cols(rp)], axis=1)

    # Equilibrate rows by the magnitude of their ingredients before any
    # cancellation: the overflow-guard rescaling leaves whole rows uniformly
    # tiny for block-diagonal U, while a row that is small relative to its
    # ingredients is kernel signal and must stay small.
    def size(u, t):      # |u| @ |t| for each sigma, shape (G, 2, n)
        return (np.abs(u) * np.abs(t)[:, :, np.newaxis, :]).sum(axis=-1)

    row_scale = np.concatenate([
        np.max(np.abs(lm) + size(U.u11, lp) + size(U.u12, rp), axis=1),
        np.max(np.abs(rm) + size(U.u21, lp) + size(U.u22, rp), axis=1)], axis=1)
    row_scale[row_scale == 0.0] = 1.0
    return M, M / row_scale[:, :, np.newaxis], row_scale


def spectral_matrix(U: UnitaryBC, fps: list[FundamentalPair]) -> SpectralMatrix:
    """Assemble M(U, lam) from per-interval fundamental pairs at a common lam."""
    if len(fps) != U.n:
        raise ValueError(f"expected {U.n} fundamental pairs, got {len(fps)}")
    lam = fps[0].lam
    if any(abs(fp.lam - lam) > 1e-12 * max(1.0, abs(lam)) for fp in fps):
        raise ValueError("fundamental pairs disagree on lam")
    traces = (t[np.newaxis] for t in _endpoint_traces(fps))
    M, Me, row_scale = _assemble(U, *traces)
    svals = np.linalg.svd(Me[0], compute_uv=False)
    return SpectralMatrix(
        lam=lam, matrix=M[0], svals=svals, sigma_min=float(svals[-1]),
        scale_exponent=float(sum(fp.scale_exponent for fp in fps)),
        row_scale=row_scale[0],
    )


# lam values per batched sigma_min evaluation.  It bounds the arrays of a
# long scan: a 12,000-point scan on three intervals raised peak RSS by 27 MB
# in one block and by 3.7 MB in blocks of 1,024, at the same speed.
_BLOCK = 1024


def _sigma_min(U: UnitaryBC, domain: QuantumDomain, lams, opts: SolveOptions) -> np.ndarray:
    """sigma_min of the equilibrated M(U, lam) for every lam of an array."""
    lams = np.asarray(lams, dtype=float)
    out = np.empty(len(lams))
    for start in range(0, len(lams), _BLOCK):
        block = lams[start:start + _BLOCK]
        ends = [endpoint_traces(iv, block, opts.rel_tol, opts.samples)
                for iv in domain.intervals]
        _, Me, _ = _assemble(U, *_traces(domain.intervals, ends))
        out[start:start + _BLOCK] = np.linalg.svd(Me, compute_uv=False)[:, -1]
    return out


def _solve_pairs(domain: QuantumDomain, lam: float, opts: SolveOptions) -> list[FundamentalPair]:
    return [
        fundamental_solutions(iv, lam, rel_tol=opts.rel_tol, samples=opts.samples)
        for iv in domain.intervals
    ]


def spectral_function(U: UnitaryBC, domain: QuantumDomain, lam: float,
                      opts: SolveOptions = SolveOptions()) -> complex:
    """det M(U, lam) with the canonical-basis fundamental solutions.

    The value carries the positive factor exp(-2 * scale_exponent) from the
    overflow guard; its zeros are the eigenvalues of H_U.
    """
    sm = spectral_matrix(U, _solve_pairs(domain, lam, opts))
    return complex(np.linalg.det(sm.matrix))


@dataclass(frozen=True)
class Eigenpair:
    """One eigenvalue with its nullspace coefficients and sampled eigenfunctions.

    ``coeffs`` has shape (mult, n, 2); ``samples`` has shape (mult, n, m) and
    holds L2(sqrt(eta) dx)-orthonormal eigenfunction values on the per-interval
    grids ``xs`` (shape (n, m)).
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


def _golden_lockstep(f, a: np.ndarray, b: np.ndarray, xtol: np.ndarray):
    """Golden-section minimisation on every bracket [a_i, b_i] at once.

    ``f`` maps an array of points to an array of values.  Each iteration
    evaluates one new point in every bracket still wider than its
    ``xtol_i``, in one call; each bracket visits the points that a scalar
    golden-section search on it alone would.  Returns the best point of
    each bracket and its value.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = np.split(f(np.concatenate([c, d])), 2)
    active = np.flatnonzero((b - a) > xtol)
    while active.size:
        left = fc[active] < fd[active]
        lo, hi = active[left], active[~left]
        # left: the minimum lies in [a, d]; right: in [c, b]
        b[lo], d[lo], fd[lo] = d[lo], c[lo], fc[lo]
        c[lo] = b[lo] - invphi * (b[lo] - a[lo])
        a[hi], c[hi], fc[hi] = c[hi], d[hi], fd[hi]
        d[hi] = a[hi] + invphi * (b[hi] - a[hi])
        fx = f(np.concatenate([c[lo], d[hi]]))
        fc[lo], fd[hi] = fx[:lo.size], fx[lo.size:]
        active = active[(b[active] - a[active]) > xtol[active]]
    best = fc < fd
    return np.where(best, c, d), np.where(best, fc, fd)


def find_eigenvalues(U: UnitaryBC, domain: QuantumDomain,
                     lambda_range: tuple[float, float],
                     opts: SolveOptions = SolveOptions()) -> Spectrum:
    """Scan sigma_min(M) on a uniform grid and refine its acceptable minima.

    Local minima are refined by golden-section search to a width of
    1e-10 * max(1, |lam|) and accepted as eigenvalues when the refined
    sigma_min drops below ``opts.sigma_tol``.  Multiplicity is the count of
    equilibrated singular values below sigma_tol * ||M||_2.  The scan, each
    golden-section step over all brackets and the rebound probes of all
    candidates are one batched sigma_min evaluation each.
    """
    lo, hi = lambda_range
    if not lo < hi:
        raise ValueError("lambda_range must be increasing")
    if opts.grid < 3:
        raise ValueError("grid must be at least 3")
    if U.n != domain.n:
        raise ValueError(f"a U({2 * U.n}) condition needs {U.n} intervals, got {domain.n}")

    def sigma(lams: np.ndarray) -> np.ndarray:
        return _sigma_min(U, domain, lams, opts)

    grid = np.linspace(lo, hi, opts.grid)
    # One more sample just inside each end.  A level within one grid step of
    # an end then lies in a bracket like any other, as sigma_min falls from
    # the end sample to the inner one; a slope that rises into the range
    # brackets nothing.
    inner = np.minimum(1e-7 * np.maximum(1.0, np.abs([lo, hi])), 0.5 * (grid[1] - grid[0]))
    grid = np.concatenate([[lo, lo + inner[0]], grid[1:-1], [hi - inner[1], hi]])
    vals = sigma(grid)

    # Interior local minima only: a monotone slope toward a range edge is not
    # a bracket.  Deep in classically forbidden regions the one-sided basis
    # collapses and sigma_min sits at a tiny ambient level exp(-S) even far
    # from any eigenvalue, so acceptance additionally demands a genuine dip
    # below the neighbouring grid values.
    i = 1 + np.flatnonzero((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:]))
    a, b = grid[i - 1], grid[i + 1]
    ambient = np.maximum(vals[i - 1], vals[i + 1])
    width = 1e-10 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    roots: list[tuple[float, float]] = []
    if i.size:
        lam_star, sig_star = _golden_lockstep(sigma, a, b, width)
        keep = (sig_star <= opts.sigma_tol) & (sig_star <= 0.1 * ambient)
        lam_star, sig_star, width = lam_star[keep], sig_star[keep], width[keep]
        # Sharp-dip confirmation: around a true root sigma_min rebounds on
        # both sides, whereas a noise-floor minimum (or a step in the
        # landscape where the shooting basis switches launch strategy) stays
        # flat on at least one side.  Two offsets per side keep a genuine
        # near-degenerate twin root from masking the rebound.
        delta = np.maximum(1e-7 * np.maximum(1.0, np.abs(lam_star)), 1e3 * width)
        offsets = np.array([-1.0, -3.0, 1.0, 3.0])
        probes = sigma((lam_star[:, np.newaxis] + offsets * delta[:, np.newaxis]).ravel())
        rebound = probes.reshape(-1, 2, 2).max(axis=2)        # (roots, side)
        sharp = np.all(rebound >= 10.0 * sig_star[:, np.newaxis], axis=1)
        roots = list(zip(lam_star[sharp].tolist(), sig_star[sharp].tolist()))

    roots.sort()
    eigs: list[Eigenpair] = []
    last = None
    for lam_star, sig_star in roots:
        if last is not None and abs(lam_star - last) <= 1e-9 * max(1.0, abs(lam_star)):
            continue  # the same root reached from two adjacent brackets
        pair = eigenfunctions(U, domain, lam_star, opts)
        eigs.extend(pair)
        last = lam_star
        if opts.max_eigs is not None and sum(e.multiplicity for e in eigs) >= opts.max_eigs:
            break

    for e1, e2 in zip(eigs, eigs[1:]):
        if abs(e2.lam - e1.lam) < 3e-10 * max(1.0, abs(e1.lam)):
            raise UnresolvedCluster(
                f"roots at {e1.lam!r} and {e2.lam!r} are closer than the refinement "
                "width allows; increase the scan grid"
            )
    return Spectrum(eigs=tuple(eigs), lambda_range=(lo, hi), options=opts)


def eigenfunctions(U: UnitaryBC, domain: QuantumDomain, lam: float,
                   opts: SolveOptions = SolveOptions()) -> list[Eigenpair]:
    """Reconstruct the orthonormal eigenfunctions of H_U at an accepted lam.

    Nullspace coefficients come from the singular vectors of the equilibrated
    M(U, lam); the sampled eigenfunctions are normalized in L2(sqrt(eta) dx)
    by composite Simpson quadrature and Gram-Schmidt-orthonormalized inside a
    multiplicity cluster.  The phase is fixed by making the largest-magnitude
    sample real positive.
    """
    n = domain.n
    fps = _solve_pairs(domain, lam, opts)
    psi_l, psi_r, dpsi_l, dpsi_r = traces = _endpoint_traces(fps)
    _, Me, _ = _assemble(U, *(t[np.newaxis] for t in traces))
    _, svals, vh = np.linalg.svd(Me[0])
    thresh = opts.sigma_tol * svals[0]
    mult = int(np.sum(svals <= max(thresh, opts.sigma_tol)))
    if mult == 0:
        raise ValueError(f"no nullspace at lam={lam!r}: sigma_min={svals[-1]:.3e}")

    xs = np.array([fp.xs for fp in fps])
    w = _quad_weights(domain, xs)

    funcs, coeffs_list, psis, dpsis = [], [], [], []
    for j in range(mult):
        coef = vh[-1 - j].conj()
        a1, a2 = coef[:n], coef[n:]
        f = a1[:, np.newaxis] * fps_values(fps, 0) + a2[:, np.newaxis] * fps_values(fps, 1)
        # project off the previously accepted cluster members
        for g in funcs:
            f = f - _inner(w, g, f) * g
        norm = math.sqrt(_inner(w, f, f).real)
        if norm < 1e-12:
            continue
        f = f / norm
        a1, a2 = a1 / norm, a2 / norm
        flat = f.ravel()
        peak = flat[int(np.argmax(np.abs(flat)))]
        phase = peak / abs(peak)
        f, a1, a2 = f / phase, a1 / phase, a2 / phase
        funcs.append(f)
        coeffs_list.append(np.stack([a1, a2], axis=1))
        psis.append(np.concatenate([a1 * psi_l[0] + a2 * psi_l[1],
                                    a1 * psi_r[0] + a2 * psi_r[1]]))
        dpsis.append(np.concatenate([a1 * dpsi_l[0] + a2 * dpsi_l[1],
                                     a1 * dpsi_r[0] + a2 * dpsi_r[1]]))

    pair = Eigenpair(
        lam=lam, multiplicity=len(funcs), residual=float(svals[-1]),
        coeffs=np.array(coeffs_list), xs=xs, samples=np.array(funcs),
        psi=np.array(psis), dpsi=np.array(dpsis),
    )
    return [pair]


def fps_values(fps: list[FundamentalPair], sigma: int) -> np.ndarray:
    """Dense samples of basis solution ``sigma`` stacked over intervals, shape (n, m)."""
    return np.array([fp.values[sigma] for fp in fps])


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


def deficiency_indices(domain: QuantumDomain, verify: bool = False,
                       opts: SolveOptions = SolveOptions()) -> tuple[int, int]:
    """Deficiency indices (n+, n-) of the minimal operator: (2n, 2n).

    On a compact union of n intervals every solution of H* u = -+ i u is
    square integrable and each interval contributes a two-dimensional solution
    space.  With ``verify`` the complex eigenvalue ODE is integrated per
    interval and the finiteness and independence of the two solutions is
    checked numerically.
    """
    n = domain.n
    if verify:
        for iv in domain.intervals:
            for s in (+1.0, -1.0):
                gram = _deficiency_gram(iv, s, opts)
                if not np.all(np.isfinite(gram)) or np.linalg.matrix_rank(gram, tol=1e-10) != 2:
                    raise RuntimeError("deficiency solutions are not independent")
    return (2 * n, 2 * n)


def _deficiency_gram(iv, s: float, opts: SolveOptions) -> np.ndarray:
    """L2 Gram matrix of the two solutions of H u = s*i*u on one interval.

    The solutions are integrated in the quasi-derivative variables
    y = (u, eta**-0.5 u') of :mod:`qwire.odesolve`,
    y' = sqrt(eta) [[0, 1], [2 (V - s i), 0]] y.
    """
    from scipy.integrate import solve_ivp

    def rhs(x, y):
        root = math.sqrt(expr.evaluate(iv.metric, x))
        c = 2.0 * (expr.evaluate(iv.potential, x) - 1j * s)
        return root * np.array([y[1], c * y[0], y[3], c * y[2]])

    xs = np.linspace(iv.a, iv.b, 129)
    sol = solve_ivp(rhs, (iv.a, iv.b), np.array([1, 0, 0, 1], dtype=complex),
                    t_eval=xs, rtol=1e-9, atol=1e-11)
    u1, u2 = sol.y[0], sol.y[2]
    w = _simpson_weights(len(xs), (iv.b - iv.a) / (len(xs) - 1))
    eta = np.sqrt(expr.evaluate(iv.metric, xs))
    gram = np.empty((2, 2), dtype=complex)
    for i, fi in enumerate((u1, u2)):
        for j, fj in enumerate((u1, u2)):
            gram[i, j] = np.sum(w * eta * np.conj(fi) * fj)
    return gram
