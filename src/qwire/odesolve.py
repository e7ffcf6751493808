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
from typing import NamedTuple

import numpy as np

from . import expr
from .domain import Interval

__all__ = ["FundamentalPair", "EndpointTraces", "OdeError", "fundamental_solutions",
           "endpoint_traces", "free_exponential_basis"]

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


def _cell_matrices(coeffs, lam: float):
    """exp(Omega) of every cell as rows (m00, m01, m10, m11), shape (4, N).

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
    """Products of neighbouring cells (2i, then 2i+1); an odd last cell is carried."""
    even = m.shape[1] & ~1
    prod, pl = _mul(m[:, 1:even:2], m[:, 0:even:2]), logs[1:even:2] + logs[0:even:2]
    if even < m.shape[1]:
        prod, pl = np.concatenate([prod, m[:, -1:]], axis=1), np.append(pl, logs[-1])
    return prod, pl


def _sample_cells(mesh: _Mesh, level: int, lam: float):
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


def _closed_form(interval: Interval, lams: np.ndarray, xs: np.ndarray):
    """Canonical pair for constant eta and V at the points ``xs``, for every lam.

    With w = 2*eta*(V - lam) the equation u'' = w u has the canonical basis
    cosh(sqrt(w) z) and sinh(sqrt(w) z)/sqrt(w) (trigonometric for w < 0,
    linear for w = 0) in z = x - a.  Where the interval is forbidden at an
    action sqrt(w) (b - a) above ``_TWO_SIDED_ACTION``, u2 is cosh(sqrt(w)
    (b - x)) instead, launched from b.  Growing solutions are scaled
    uniformly by exp(-max(0, sqrt(w) (b - a) - 300)) per launch, exactly like
    the propagator's.  Returns values and plain derivatives, shape (G, 2, m)
    each, and the scale exponent, shape (G,).
    """
    a, b = interval.a, interval.b
    eta0 = expr.evaluate(interval.metric, 0.5 * (a + b))
    if eta0 <= 0.0:
        raise OdeError("metric not positive")
    v0 = expr.evaluate(interval.potential, 0.5 * (a + b))
    w = 2.0 * eta0 * (v0 - lams)
    z, zr = xs - a, b - xs
    values = np.empty((len(lams), 2, len(xs)))
    derivs = np.empty_like(values)
    scale = np.zeros(len(lams))

    flat = np.abs(w) < 1e-30
    values[flat] = np.stack([np.ones_like(z), z])
    derivs[flat] = np.stack([np.zeros_like(z), np.ones_like(z)])

    osc = ~flat & (w < 0.0)
    k = np.sqrt(-w[osc])[:, np.newaxis]
    c, s = np.cos(k * z), np.sin(k * z)
    values[osc] = np.stack([c, s / k], axis=1)
    derivs[osc] = np.stack([-k * s, c], axis=1)

    forbidden = ~flat & (w > 0.0)
    k = np.sqrt(w[forbidden])
    kl = k * (b - a)
    two_sided = kl > _TWO_SIDED_ACTION
    sc = np.maximum(0.0, kl - 300.0)
    k, sc = k[:, np.newaxis], sc[:, np.newaxis]
    ep, em = np.exp(k * z - sc), np.exp(-k * z - sc)
    epr, emr = np.exp(k * zr - sc), np.exp(-k * zr - sc)
    cosh, sinh = 0.5 * (ep + em), 0.5 * (ep - em)
    # one-sided: sinh(k z)/k; two-sided: cosh launched from b
    ts = two_sided[:, np.newaxis]
    u2 = np.where(ts, 0.5 * (epr + emr), sinh / k)
    du2 = np.where(ts, -k * 0.5 * (epr - emr), cosh)
    values[forbidden] = np.stack([cosh, u2], axis=1)
    derivs[forbidden] = np.stack([k * sinh, du2], axis=1)
    scale[forbidden] = np.where(two_sided, 2.0, 1.0) * sc[:, 0]
    return values, derivs, scale


def _constant_coefficient_pair(interval: Interval, lam: float, samples: int) -> FundamentalPair:
    """Closed-form canonical pair for constant eta and V (see ``_closed_form``)."""
    xs = np.linspace(interval.a, interval.b, samples)
    values, derivs, scale = _closed_form(interval, np.array([lam]), xs)
    values, derivs = values[0], derivs[0]
    return FundamentalPair(
        lam=lam, interval=interval, xs=xs, values=values,
        psi_a=values[:, 0].copy(), dpsi_a=derivs[:, 0].copy(),
        psi_b=values[:, -1].copy(), dpsi_b=derivs[:, -1].copy(),
        scale_exponent=float(scale[0]),
    )


class EndpointTraces(NamedTuple):
    """Endpoint data of the canonical pair for an array of G eigenvalues.

    Each array has the meaning of the :class:`FundamentalPair` field of the
    same name, with a leading axis over lam: shape (G, 2), and (G,) for
    ``scale_exponent``.
    """

    psi_a: np.ndarray
    dpsi_a: np.ndarray
    psi_b: np.ndarray
    dpsi_b: np.ndarray
    scale_exponent: np.ndarray


def endpoint_traces(interval: Interval, lams, rel_tol: float = 1e-10,
                    samples: int = 257) -> EndpointTraces:
    """Endpoint data of the canonical pair for every lam of an array.

    Constant coefficients take the closed form for all lam in one numpy pass
    and build no dense samples.  Variable coefficients call
    :func:`fundamental_solutions` once per lam with ``rel_tol`` and
    ``samples``, which fix its mesh.
    """
    lams = np.asarray(lams, dtype=float)
    if expr.is_constant(interval.metric) and expr.is_constant(interval.potential):
        values, derivs, scale = _closed_form(interval, lams,
                                             np.array([interval.a, interval.b]))
        return EndpointTraces(values[:, :, 0], derivs[:, :, 0],
                              values[:, :, 1], derivs[:, :, 1], scale)
    fps = [fundamental_solutions(interval, lam, rel_tol=rel_tol, samples=samples)
           for lam in lams.tolist()]
    return EndpointTraces(
        np.array([fp.psi_a for fp in fps]), np.array([fp.dpsi_a for fp in fps]),
        np.array([fp.psi_b for fp in fps]), np.array([fp.dpsi_b for fp in fps]),
        np.array([fp.scale_exponent for fp in fps]),
    )


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
