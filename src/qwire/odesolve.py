"""Fundamental solutions of the eigenvalue ODE on a single interval.

For H = -(1/(2*sqrt(eta))) d/dx (eta**-0.5 d/dx) + V the eigenvalue equation
H u = lam u is written for the quasi-derivative pair y = (u, eta**-0.5 u'):

    y' = sqrt(eta) * [[0, 1], [2*(V - lam), 0]] * y

The matrix is traceless, so every transfer matrix has determinant 1, and no
derivative of eta is needed.  The canonical basis at the left endpoint is
u1(a) = 1, u1'(a) = 0 and u2(a) = 0, u2'(a) = 1 (plain derivatives).  The
modified Wronskian p(x) (u1 u2' - u1' u2) with p = eta**-0.5 is an invariant
of the flow and is used as a sanity check.

Constant coefficients have a closed form.  Otherwise the interval is cut into
a uniform mesh of (samples - 1) * 2**j cells aligned with the sample grid,
and each cell of width h contributes the fourth-order Magnus transfer matrix

    Omega = h/6 (A0 + 4 Am + A1) + h**2/12 [A1, A0]

from the coefficient matrix A at the cell's ends and midpoint.  Omega is a
traceless 2x2 matrix, Omega**2 = q**2 I, so exp(Omega) = cosh(q) I +
sinh(q)/q Omega (cos and sin when q**2 < 0).  The coefficients do not depend
on lam and the nodes of a level include those of every coarser one, so each
interval's coefficients are evaluated once per node and cached (for the 16
intervals used last, process-wide); all cells of a level are formed in one
numpy pass.

Error control halves the mesh: level j is accepted when the endpoint
transfer matrices of levels j and j + 1 agree to ``rel_tol`` relative to
their largest entry, and the finer one is returned with that difference as
``error_estimate``.  The next call on the same interval starts at the level
last accepted.  Halving also stops when the difference no longer falls:
near an eigenvalue of an interval with forbidden regions at both ends the
growing and decaying modes cancel, and amplified rounding then exceeds
``rel_tol`` on every mesh (the estimate says so).

Cells are multiplied pairwise into the sample cells, then by a parallel
prefix product into the transfer matrices from a to every sample point.
:func:`cell_dtn` instead turns the sample cells, for an array of lam, into
Dirichlet-to-Neumann matrices, with the mesh halved per cell; the count and
the roots of :mod:`qwire.spectral` are built on those.
Every product is divided by its largest entry and the logarithm of the
factor is carried alongside, so deep tunnelling (lam far below V) cannot
overflow.  Samples whose magnitude would exceed 1e100 are stored with a
factor exp(-scale_exponent); a uniform positive rescaling multiplies the
spectral determinant by a positive constant and leaves its zero set
unchanged.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import expr
from .domain import Interval

__all__ = ["FundamentalPair", "OdeError", "fundamental_solutions", "cell_dtn",
           "free_exponential_basis"]

# In a fully classically forbidden interval both left-launched solutions
# converge onto the growing mode and the basis collapses at the level
# exp(-action); beyond this action a solution is launched from each endpoint
# instead (the determinant's zero set is basis independent).
_TWO_SIDED_ACTION = 25.0
# log(1e100): solutions growing past this are stored with a scale factor
_SCALE_LOG = 100.0 * math.log(10.0)
# finest mesh level, (samples - 1) * 2**_MAX_LEVEL cells
_MAX_LEVEL = 10


class OdeError(Exception):
    """Integration failure (non-positive metric, mesh that does not converge)."""


@dataclass(frozen=True)
class FundamentalPair:
    """Canonical basis solutions of H u = lam u on one interval.

    ``values`` has shape (2, m): dense samples of the two basis solutions on
    the uniform grid ``xs``.  Endpoint data are plain (unnormalised)
    derivatives; the metric trace factors are applied downstream.  All stored
    numbers carry a factor exp(-scale_exponent) relative to the exact
    canonical solutions.  ``error_estimate`` is the mesh-halving estimate of
    the relative error of the endpoint data, 0.0 for the closed form.
    """

    lam: float
    interval: Interval
    xs: np.ndarray
    values: np.ndarray
    psi_a: np.ndarray      # (2,) values at a
    dpsi_a: np.ndarray     # (2,) plain derivatives at a
    psi_b: np.ndarray
    dpsi_b: np.ndarray
    scale_exponent: float
    error_estimate: float = 0.0

    def wronskian_drift(self) -> float:
        """Change of the modified Wronskian between the endpoints, relative to
        the size that a normwise error of the endpoint data gives it.

        At each end W = det T with T = [[u1, u2], [p u1', p u2']], p =
        eta**-0.5, and an error of eps * |T| in the entries of T moves det T
        by up to about 2 eps |T|**2 (|T| the largest entry), so the drift is
        divided by the larger |T|**2 of the two ends.  Dividing by |W| instead
        reads a growing solution's rounding as drift: beside a solution of
        size 3e7 the other is 1e-7 and carries an error of 3e7 * eps.  The
        Magnus cells have determinant 1, so on that path the drift shows
        rounding; ``error_estimate`` shows the truncation error.
        """
        iv = self.interval
        ends = []
        ps = expr.evaluate(iv.metric, np.array([iv.a, iv.b])) ** -0.5
        for p, psi, dpsi in zip(ps, (self.psi_a, self.psi_b), (self.dpsi_a, self.dpsi_b)):
            t = np.array([[psi[0], psi[1]], [p * dpsi[0], p * dpsi[1]]])
            ends.append((t[0, 0] * t[1, 1] - t[1, 0] * t[0, 1], float(np.max(np.abs(t)))))
        (w_a, t_a), (w_b, t_b) = ends
        return abs(w_b - w_a) / max(t_a * t_a, t_b * t_b, 1e-300)


class _Mesh:
    """Lam-independent data of one variable-coefficient interval.

    eta and V are held at the ends and midpoints of the cells of the finest
    level evaluated so far, which include the nodes of every coarser level,
    so a halving evaluates only the new midpoints.  Per level j the cells
    hold b, c and d0 with Omega = [[c, b], [d0 - 2 lam b, -c]] at eigenvalue
    lam.
    """

    def __init__(self, interval: Interval, samples: int):
        self.interval = interval
        self.cells0 = samples - 1
        self.finest = 0
        self.eta, self.pot = _coefficients_at(
            interval, np.linspace(interval.a, interval.b, 2 * self.cells0 + 1))
        self.eta0, self.pot0 = self.eta, self.pot     # for the forbidden test
        self.sqrt_eta_a, self.sqrt_eta_b = math.sqrt(self.eta[0]), math.sqrt(self.eta[-1])
        self.levels: dict = {}
        self.start: dict = {}                           # rel_tol -> last accepted level
        self.cell_start: dict = {}                      # the same for cell_dtn

    def cells(self, level: int):
        if level not in self.levels:
            while self.finest < level:
                self._halve()
            stride = 1 << (self.finest - level)
            h = self.interval.length / (self.cells0 << level)
            self.levels[level] = _magnus_coefficients(self.eta[::stride], self.pot[::stride], h)
        return self.levels[level]

    def _halve(self):
        iv, n = self.interval, len(self.eta) - 1
        eta, pot = _coefficients_at(iv, iv.a + iv.length * (np.arange(n) + 0.5) / n)
        self.eta = np.insert(self.eta, np.arange(1, n + 1), eta)
        self.pot = np.insert(self.pot, np.arange(1, n + 1), pot)
        self.finest += 1


def _coefficients_at(interval: Interval, xs: np.ndarray):
    values = [expr.evaluate(e, xs) for e in (interval.metric, interval.potential)]
    bad = ~(values[0] > 0.0)
    if bad.any():
        raise OdeError(f"metric not positive at x={xs[bad][0]:.6g}")
    return values


def _magnus_coefficients(eta: np.ndarray, pot: np.ndarray, h: float):
    """Cell coefficients b, c, d0 from eta and V at cell ends and midpoints.

    Simpson's rule and the end-point commutator give the fourth-order
    Omega = h/6 (A0 + 4 Am + A1) + h**2/12 [A1, A0].
    """
    s = np.sqrt(eta)
    s0, sm, s1 = s[:-1:2], s[1::2], s[2::2]
    v0, vm, v1 = pot[:-1:2], pot[1::2], pot[2::2]
    b = h / 6.0 * (s0 + 4.0 * sm + s1)
    c = h * h / 6.0 * s0 * s1 * (v0 - v1)
    d0 = h / 3.0 * (s0 * v0 + 4.0 * sm * vm + s1 * v1)
    return b, c, d0


@functools.lru_cache(maxsize=16)
def _mesh(interval: Interval, samples: int) -> _Mesh:
    return _Mesh(interval, samples)


def _cell_matrices(coeffs, lam):
    """exp(Omega) of every cell as rows (m00, m01, m10, m11), shape (4, N), or
    (4, G, N) for a column of G values of lam.

    Growing cells (q**2 > 0) are stored times exp(-q); q is returned as their
    log factor.
    """
    b, c, d0 = coeffs
    d = d0 - 2.0 * lam * b
    q2 = c * c + b * d
    r = np.sqrt(np.abs(q2))
    grow = q2 > 0.0
    em = np.expm1(-2.0 * r)
    with np.errstate(invalid="ignore", divide="ignore"):
        ch = np.where(grow, 1.0 + 0.5 * em, np.cos(r))
        sh = np.where(grow, -0.5 * em, np.sin(r)) / r
    sh[r == 0.0] = 1.0
    shc = sh * c
    return np.stack([ch + shc, sh * b, sh * d, ch - shc]), np.where(grow, r, 0.0)


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cellwise 2x2 products a @ b of (4, N) row-stacked matrices."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return np.stack([a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
                     a10 * b00 + a11 * b10, a10 * b01 + a11 * b11])


def _normalised(m: np.ndarray, logs: np.ndarray):
    peak = np.abs(m).max(axis=0)
    return m / peak, logs + np.log(peak)


def _pair_products(m: np.ndarray, logs: np.ndarray):
    """Products of neighbouring cells (2i, then 2i+1) along the last axis; an
    odd last cell is carried."""
    even = m.shape[-1] & ~1
    prod = _mul(m[..., 1:even:2], m[..., 0:even:2])
    pl = logs[..., 1:even:2] + logs[..., 0:even:2]
    if even < m.shape[-1]:
        prod = np.concatenate([prod, m[..., -1:]], axis=-1)
        pl = np.concatenate([pl, logs[..., -1:]], axis=-1)
    return prod, pl


def _sample_cells(mesh: _Mesh, level: int, lam):
    """Transfer matrices of the sample cells, normalised, with their log factors.

    Within one sample cell the growth is carried by the cell logs, so the
    2**level sub-cell products need no normalisation of their own.
    """
    m, logs = _cell_matrices(mesh.cells(level), lam)
    for _ in range(level):
        m, logs = _pair_products(m, logs)
    return _normalised(m, logs)


def _total(m: np.ndarray, logs: np.ndarray):
    """Product of all cells by a pairwise tree, as (matrix (4,), log factor)."""
    while m.shape[1] > 1:
        m, logs = _normalised(*_pair_products(m, logs))
    return m[:, 0], float(logs[0])


def _prefix(m: np.ndarray, logs: np.ndarray):
    """Products M_i ... M_1 for every i, by a Hillis-Steele scan."""
    m, logs = m.copy(), logs.copy()
    step = 1
    while step < m.shape[1]:
        m[:, step:], logs[step:] = _normalised(_mul(m[:, step:], m[:, :-step]),
                                               logs[step:] + logs[:-step])
        step *= 2
    return m, logs


def _distance(t, t_log: float, ref, ref_log: float) -> float:
    """Largest entry of t - ref relative to ref's; ref is normalised to a peak of 1."""
    return float(np.max(np.abs(t * math.exp(t_log - ref_log) - ref)))


def _storage_scale(logs: np.ndarray) -> float:
    top = max(float(np.max(logs)), 0.0)
    return top if top > _SCALE_LOG else 0.0


def fundamental_solutions(
    interval: Interval,
    lam: float,
    rel_tol: float = 1e-10,
    samples: int = 257,
) -> FundamentalPair:
    """Propagate the canonical solution pair and sample it densely.

    ``samples`` is the number of uniform grid points (including endpoints);
    ``rel_tol`` bounds the mesh-halving difference of the endpoint transfer
    matrix relative to its largest entry.
    """
    if samples < 3:
        raise ValueError("samples must be at least 3")
    if not rel_tol > 0.0:
        raise ValueError("rel_tol must be positive")
    if expr.is_constant(interval.metric) and expr.is_constant(interval.potential):
        return _constant_coefficient_pair(interval, lam, samples)
    mesh = _mesh(interval, samples)
    level = mesh.start.get(rel_tol, 0)
    coarse, coarse_log = _total(*_sample_cells(mesh, level, lam))
    last_change = math.inf
    while True:
        cells, cell_logs = _sample_cells(mesh, level + 1, lam)
        p, pl = _prefix(cells, cell_logs)
        fine, fine_log = p[:, -1], float(pl[-1])
        error = _distance(coarse, coarse_log, fine, fine_log)
        if error <= rel_tol:
            mesh.start[rel_tol] = level
            break
        # Where growth and decay cancel in the product (an eigenvalue between
        # two forbidden regions), amplified rounding can exceed rel_tol on
        # every mesh: halving stops once the difference no longer falls.
        change = math.log(error) + fine_log
        if change > last_change - math.log(2.0):
            break
        level += 1
        if level >= _MAX_LEVEL:
            raise OdeError(f"mesh halving did not reach rel_tol={rel_tol:g} "
                           f"(difference {error:.3g} at level {level})")
        coarse, coarse_log, last_change = fine, fine_log, change

    xs = np.linspace(interval.a, interval.b, samples)
    sa, sb = mesh.sqrt_eta_a, mesh.sqrt_eta_b
    w = 2.0 * mesh.eta0 * (mesh.pot0 - lam)
    kappa = math.sqrt(max(float(w.max()), 0.0))
    if w.min() > 0.0 and kappa * (interval.b - interval.a) > _TWO_SIDED_ACTION:
        # u1 as usual; u2 launched from b with u = 1, u' = 0.  With Q the
        # transfer matrix from x to b, det Q = 1 gives
        # y2(x) = Q^-1 (1, 0) = (Q11, -Q10).  The transposes of Q are the
        # prefix products of the reversed, transposed cells.
        q, ql = _prefix(cells[[0, 2, 1, 3], ::-1], cell_logs[::-1])
        q, ql = q[:, ::-1], ql[::-1]           # q[:, i] holds Q(x_i)^T, i < m - 1
        s1, s2 = _storage_scale(pl), _storage_scale(ql)
        f1, f2 = np.exp(pl - s1), np.exp(ql - s2)
        values = np.empty((2, samples))
        values[0, 0], values[0, 1:] = math.exp(-s1), f1 * p[0]
        values[1, :-1], values[1, -1] = f2 * q[3], math.exp(-s2)
        return FundamentalPair(
            lam=lam, interval=interval, xs=xs, values=values,
            psi_a=values[:, 0].copy(), dpsi_a=np.array([0.0, -sa * f2[0] * q[1, 0]]),
            psi_b=values[:, -1].copy(), dpsi_b=np.array([sb * f1[-1] * p[2, -1], 0.0]),
            scale_exponent=s1 + s2, error_estimate=error,
        )
    scale = _storage_scale(pl)
    f = np.exp(pl - scale)
    sf = math.exp(-scale)
    values = np.empty((2, samples))
    values[:, 0] = sf, 0.0
    values[0, 1:] = f * p[0]
    values[1, 1:] = f * p[1] / sa
    return FundamentalPair(
        lam=lam, interval=interval, xs=xs, values=values,
        psi_a=np.array([sf, 0.0]), dpsi_a=np.array([0.0, sf]),
        psi_b=values[:, -1].copy(),
        dpsi_b=sb * f[-1] * np.array([p[2, -1], p[3, -1] / sa]),
        scale_exponent=scale, error_estimate=error,
    )


def _constant_coefficient_pair(interval: Interval, lam: float, samples: int) -> FundamentalPair:
    """Closed-form canonical pair for constant eta and V.

    With w = 2*eta*(V - lam) the equation u'' = w u has the canonical basis
    cosh(sqrt(w) z) and sinh(sqrt(w) z)/sqrt(w) (trigonometric for w < 0,
    linear for w = 0) in z = x - a.  Where the interval is forbidden at an
    action sqrt(w) (b - a) above ``_TWO_SIDED_ACTION``, u2 is cosh(sqrt(w)
    (b - x)) instead, launched from b.  Growing solutions are scaled
    uniformly by exp(-max(0, sqrt(w) (b - a) - 300)) per launch.
    """
    a, b = interval.a, interval.b
    eta0 = expr.evaluate(interval.metric, 0.5 * (a + b))
    if eta0 <= 0.0:
        raise OdeError("metric not positive")
    w = 2.0 * eta0 * (expr.evaluate(interval.potential, 0.5 * (a + b)) - lam)
    xs = np.linspace(a, b, samples)
    z, scale = xs - a, 0.0
    if abs(w) < 1e-30:
        values, derivs = (np.ones_like(z), z), (np.zeros_like(z), np.ones_like(z))
    elif w < 0.0:
        k = math.sqrt(-w)
        c, s = np.cos(k * z), np.sin(k * z)
        values, derivs = (c, s / k), (-k * s, c)
    else:
        k = math.sqrt(w)
        scale = max(0.0, k * (b - a) - 300.0)
        ep, em = np.exp(k * z - scale), np.exp(-k * z - scale)
        cosh, sinh = 0.5 * (ep + em), 0.5 * (ep - em)
        values, derivs = (cosh, sinh / k), (k * sinh, cosh)
        if k * (b - a) > _TWO_SIDED_ACTION:      # u2 = cosh(k (b - x)), launched from b
            epr, emr = np.exp(k * (b - xs) - scale), np.exp(-k * (b - xs) - scale)
            values, derivs = (cosh, 0.5 * (epr + emr)), (k * sinh, -0.5 * k * (epr - emr))
            scale *= 2.0
    values, derivs = np.array(values), np.array(derivs)
    return FundamentalPair(
        lam=lam, interval=interval, xs=xs, values=values,
        psi_a=values[:, 0].copy(), dpsi_a=derivs[:, 0].copy(),
        psi_b=values[:, -1].copy(), dpsi_b=derivs[:, -1].copy(),
        scale_exponent=float(scale),
    )


# lam values times leaf cells per batch of cell_dtn: 0.5 MB per (4, lam, leaf)
_BATCH_LEAVES = 1 << 14


def cell_dtn(interval: Interval, lams, rel_tol: float = 1e-10, samples: int = 257):
    """Dirichlet-to-Neumann matrices [[alpha, beta], [beta, gamma]] of the
    ``samples - 1`` sample cells, each of alpha, beta, gamma shaped (G, cells).

    A cell maps its end values to the outward derivatives: with T the cell's
    transfer matrix of y = (u, eta**-0.5 u'), alpha = t00/t01, gamma = t11/t01
    and beta = -1/t01, or -exp(-l)/t~01 for T = exp(l) T~ normalised, so no
    entry overflows however deep the cell tunnels.  Constant coefficients
    take the closed form.  Otherwise the mesh is halved until every cell's T
    agrees between levels j and j + 1 to ``rel_tol`` of its own largest
    entry, a test that a single cell passes near eigenvalues too.  A cell
    must hold no Dirichlet level of its own (t01 > 0 and its elliptic leaves
    turn by less than pi in all), else :class:`OdeError`.
    """
    lams = np.asarray(lams, dtype=float)[:, np.newaxis]
    cells = samples - 1
    if expr.is_constant(interval.metric) and expr.is_constant(interval.potential):
        eta, pot = (float(expr.evaluate(e, interval.a)) for e in (interval.metric,
                                                                  interval.potential))
        if eta <= 0.0:
            raise OdeError("metric not positive")
        h = interval.length / cells
        w = 2.0 * eta * (pot - lams)
        k = np.sqrt(np.abs(w))
        x = k * h
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = np.where(w < 0.0, k / np.tan(x), np.where(w > 0.0, k / np.tanh(x), 1.0 / h))
            beta = np.where(w < 0.0, -k / np.sin(x), np.where(
                w > 0.0, 2.0 * k * np.exp(-x) / np.expm1(-2.0 * x), -1.0 / h))
        _require_cells(interval, lams, (w >= 0.0) | (x < math.pi))
        alpha, beta = (np.broadcast_to(v / math.sqrt(eta), (len(lams), cells))
                       for v in (alpha, beta))
        return alpha, beta, alpha
    mesh = _mesh(interval, samples)
    parts = []
    start = 0
    while start < len(lams):
        level = mesh.cell_start.get(rel_tol, 0)
        block = lams[start:start + max(1, _BATCH_LEAVES // (cells << (level + 1)))]
        start += len(block)
        coarse, coarse_logs = _sample_cells(mesh, level, block)
        while True:
            fine, fine_logs = _sample_cells(mesh, level + 1, block)
            error = np.max(np.abs(fine * np.exp(fine_logs - coarse_logs) - coarse))
            if error <= rel_tol:
                break
            level += 1
            if level >= _MAX_LEVEL:
                raise OdeError(f"mesh halving did not reach rel_tol={rel_tol:g} "
                               f"(difference {error:.3g} at level {level})")
            coarse, coarse_logs = fine, fine_logs
        mesh.cell_start[rel_tol] = level
        b, c, d0 = mesh.cells(level + 1)
        turn = np.sqrt(np.maximum(-(c * c + b * (d0 - 2.0 * block * b)), 0.0))
        t00, t01, _, t11 = fine
        _require_cells(interval, block, (t01 > 0.0) & (
            turn.reshape(len(block), cells, -1).sum(axis=-1) < math.pi))
        parts.append((t00 / t01, -np.exp(-fine_logs) / t01, t11 / t01))
    return tuple(np.concatenate(p) for p in zip(*parts))


def _require_cells(interval: Interval, lams: np.ndarray, ok: np.ndarray) -> None:
    bad = np.flatnonzero(~np.all(ok, axis=-1))
    if bad.size:
        raise OdeError(f"lam={lams[bad[0], 0]:.6g} puts a Dirichlet level inside a sample "
                       f"cell of [{interval.a:g}, {interval.b:g}]; raise samples")


def free_exponential_basis(interval: Interval, lam: float, samples: int = 257) -> FundamentalPair:
    """Closed-form plane-wave basis exp(+-i k x), k = sqrt(2 lam), for eta=1, V=0.

    Validation path only: requires a trivial metric, vanishing potential and
    lam > 0.  The pair is complex valued.
    """
    xs = np.linspace(interval.a, interval.b, 17)
    if (np.any(np.abs(expr.evaluate(interval.metric, xs) - 1.0) > 1e-14)
            or np.any(np.abs(expr.evaluate(interval.potential, xs)) > 1e-14)):
        raise ValueError("free_exponential_basis requires eta == 1 and V == 0")
    if lam <= 0.0:
        raise ValueError("free_exponential_basis requires lam > 0")
    k = math.sqrt(2.0 * lam)
    xs = np.linspace(interval.a, interval.b, samples)
    up = np.exp(1j * k * xs)
    um = np.exp(-1j * k * xs)
    values = np.vstack([up, um])
    ea, eb = np.exp(1j * k * interval.a), np.exp(1j * k * interval.b)
    return FundamentalPair(
        lam=lam, interval=interval, xs=xs, values=values,
        psi_a=np.array([ea, np.conj(ea)]),
        dpsi_a=np.array([1j * k * ea, -1j * k * np.conj(ea)]),
        psi_b=np.array([eb, np.conj(eb)]),
        dpsi_b=np.array([1j * k * eb, -1j * k * np.conj(eb)]),
        scale_exponent=0.0,
    )
