"""Cell propagators and fundamental solutions of the eigenvalue ODE on one interval.

For H = -(1/(2*sqrt(eta))) d/dx (eta**-0.5 d/dx) + V the eigenvalue equation
H u = lam u is written for the quasi-derivative pair y = (u, eta**-0.5 u'):

    y' = sqrt(eta) * [[0, 1], [2*(V - lam), 0]] * y

The matrix is traceless, so every transfer matrix has determinant 1, and no
derivative of eta is needed.  The canonical basis at the left endpoint is
u1(a) = 1, u1'(a) = 0 and u2(a) = 0, u2'(a) = 1 (plain derivatives).  The
modified Wronskian p(x) (u1 u2' - u1' u2) with p = eta**-0.5 is an invariant
of the flow and is used as a sanity check.

In the arc length s = int sqrt(eta) dx the same y obeys

    y_s = [[0, 1], [2*(V - lam), 0]] * y

so eta enters only through the cells' arc lengths l and the factors
sqrt(eta) at the endpoints.  The interval is cut into a mesh of
(samples - 1) * 2**j cells of equal width in x, aligned with the sample
grid, and each is a constant-reference-potential (CP) cell (Ixaru 1984;
Ledoux, Van Daele and Vanden Berghe, MATSLISE, 2005): the exact transfer
matrix of the cell with V replaced by its mean Vbar in s,

    [[xi(z), l eta_0(z)], [z eta_0(z) / l, xi(z)]],   z = 2 (Vbar - lam) l**2,

with xi = cosh(sqrt z) and eta_0 = sinh(sqrt z) / sqrt z (cos and sin for
z < 0), plus the first- and second-order perturbation corrections in
V - Vbar.  With V - Vbar expanded in Legendre polynomials of s, these are
fixed combinations of Ixaru's functions eta_m(z) = i_m(sqrt z) / sqrt(z)**m
(modified spherical Bessel functions) whose coefficients do not depend on
lam.  The cells' l, Vbar and coefficients come from one pass of Gauss
quadrature per number of cells and are held on the interval for as long as
it lives, shared by every sample count whose mesh reaches that number (see
:class:`_Store`), so a value of lam costs the eta_m of every cell and one
contraction.  What is left is third order in l**2 (V - Vbar), about l**9
per cell for smooth V, and it does not grow with lam.
With constant eta and V the reference cell is exact and the same for every
sample cell: such an interval is one cell at level 0, needs no halving, and
is broadcast to its samples - 1 cells.

Error control halves the mesh per sample cell: level j is accepted when
every sample cell's transfer matrix agrees between levels j and j + 1 (both
formed in one pass) to a per-cell tolerance relative to its own largest
entry, a test that a single cell passes near eigenvalues too.  A tolerance
below the rounding floor of that comparison raises :class:`OdeError` at the
first halving that does not lower a difference below sqrt(eps).  The next
call with the same tolerance on the same interval starts at the level last
accepted.  :func:`cell_dtn` turns the finer sample cells, for an array of
lam, into Dirichlet-to-Neumann matrices; the count, the roots and the
spectral determinant of :mod:`qwire.spectral` are built on those.
:func:`fundamental_solutions` gives the canonical pair's endpoint data, an
independent reference for them: it takes the per-cell tolerance rel_tol /
(samples - 1) and multiplies the finer cells pairwise into the endpoint
transfer matrix, and raises :class:`OdeError` where the two levels'
endpoint products still differ by more than rel_tol, which happens only
where the product is ill-conditioned.  Every product is divided by its
largest entry and the logarithm of the factor is carried alongside, so deep
tunnelling (lam far below V) cannot overflow.  Endpoint data whose
magnitude would exceed 1e100 are stored with a factor exp(-scale_exponent);
a uniform positive rescaling multiplies the determinant of M(U, lam) by a
positive constant and leaves its zero set unchanged.
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

# log(1e100): endpoint data growing past this are stored with a scale factor
_SCALE_LOG = 100.0 * math.log(10.0)
# finest mesh level, (samples - 1) * 2**_MAX_LEVEL cells
_MAX_LEVEL = 10
# Legendre moments of V - Vbar kept per cell, and Gauss points per cell
_MOMENTS = 4
_GAUSS = 8
# the rounding of a cell's log factor, relative to it, in the mesh comparison
_LOG_ROUNDING = 4.0 * np.finfo(float).eps
# |z| below which the eta functions come from Taylor series of this many terms
_SERIES_Z = 5.0
_SERIES_TERMS = 12
# Taylor coefficients of eta_1, to 1e-17 for |z| < 1
_ETA1_SERIES = np.array([1.0 / (2 ** k * math.factorial(k) * math.prod(range(2 * k + 3, 0, -2)))
                         for k in range(10)])


class OdeError(Exception):
    """Integration failure (non-positive metric, mesh that does not converge)."""


@dataclass(frozen=True)
class FundamentalPair:
    """Endpoint data of the canonical basis solutions of H u = lam u on one
    interval, row sigma of each array for solution sigma.

    Derivatives are plain (unnormalised); the metric trace factors are
    applied downstream.  All stored numbers carry a factor
    exp(-scale_exponent) relative to the exact canonical solutions;
    :func:`fundamental_solutions` raises :class:`OdeError` where that factor
    would fall below ~1e-308 (growth past e^708), as the data at a would
    underflow.
    ``error_estimate`` is the mesh-halving estimate of the relative error of
    the endpoint data, 0.0 on a constant interval, whose cells are exact.
    """

    lam: float
    interval: Interval
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
        cells have determinant 1 up to their third-order truncation, so the
        drift shows little beyond rounding; ``error_estimate`` shows the
        truncation error.
        """
        iv = self.interval
        ends = []
        ps = expr.evaluate(iv.metric, np.array([iv.a, iv.b])) ** -0.5
        for p, psi, dpsi in zip(ps, (self.psi_a, self.psi_b), (self.dpsi_a, self.dpsi_b)):
            t = np.array([[psi[0], psi[1]], [p * dpsi[0], p * dpsi[1]]])
            ends.append((t[0, 0] * t[1, 1] - t[1, 0] * t[0, 1], float(np.max(np.abs(t)))))
        (w_a, t_a), (w_b, t_b) = ends
        return abs(w_b - w_a) / max(t_a * t_a, t_b * t_b, 1e-300)


class _Store:
    """The lam-independent data of one interval, held on it (``Interval._cells``)
    for as long as it lives: ``cells[n]`` the n cells of equal width in x
    (:func:`_cells`), shared by every sample count whose mesh reaches n;
    ``pairs[n]`` the cells of n and 2n side by side, for one pass of
    :func:`_cell_matrices`; ``start`` the level last accepted per (samples,
    per-cell tolerance); ``reference[n]`` l and Vbar of n quadrature cells."""

    def __init__(self, interval: Interval):
        self.constant = all(expr.is_constant(e) for e in (interval.metric, interval.potential))
        self.sqrt_eta = np.sqrt(_metric_at(interval, [interval.a, interval.b]))
        self.cells, self.pairs, self.start, self.reference = {}, {}, {}, {}


def _store(interval: Interval) -> _Store:
    if interval._cells is None:
        object.__setattr__(interval, "_cells", _Store(interval))
    return interval._cells


def _cells(interval: Interval, n: int):
    """:func:`_cp_cells` of the n cells of equal width in x, built once per
    interval and n; with constant eta and V the one exact cell that each is."""
    store = _store(interval)
    if n not in store.cells:
        if store.constant:
            ell = store.sqrt_eta[0] * np.array([interval.length / n])
            pot = expr.evaluate(interval.potential, np.array([interval.a]))
            store.cells[n] = 2.0 * ell * ell, pot, ell, None
        else:
            store.cells[n] = _cp_cells(interval, n)
    return store.cells[n]


def _pair(interval: Interval, n: int):
    """The cells of n and 2n side by side, formed once per interval and n."""
    pairs = _store(interval).pairs
    if n not in pairs:
        pairs[n] = tuple(None if a is None else np.concatenate([a, b], axis=-1)
                         for a, b in zip(_cells(interval, n), _cells(interval, 2 * n)))
    return pairs[n]


def _turns(ell, vbar, lam):
    """Each cell's exact turn l sqrt(2 (lam - Vbar))+ at lam."""
    return ell * np.sqrt(np.maximum(2.0 * (lam - vbar), 0.0))


def _reference_turns(interval: Interval, n: int, lam):
    """The turns at lam of the n cells of equal width in x, whose l and Vbar
    come from Gauss quadrature once per interval and n."""
    reference = _store(interval).reference
    if n not in reference:
        reference[n] = _arc_means(interval, n)[2:]
    return _turns(*reference[n], lam)


def _metric_at(interval: Interval, xs) -> np.ndarray:
    eta = expr.evaluate(interval.metric, np.asarray(xs, dtype=float))
    bad = ~(eta > 0.0)
    if bad.any():
        raise OdeError(f"metric not positive at x={np.asarray(xs)[bad][0]:.6g}")
    return eta


@functools.cache
def _quadrature():
    """Gauss-Legendre points g and weights w on [-1, 1], and the matrix that
    integrates from -1 to each point the polynomial interpolating the points."""
    leg = np.polynomial.legendre
    g, w = leg.leggauss(_GAUSS)
    primitives = np.array([leg.legval(g, leg.legint(e, lbnd=-1.0)) for e in np.eye(_GAUSS)]).T
    return g, w, primitives @ np.linalg.inv(leg.legvander(g, _GAUSS - 1))


def _arc_means(interval: Interval, n: int):
    """ds (the arc length per unit Gauss weight) and V at the Gauss points of
    the n cells of equal width in x, each (n, _GAUSS), and each cell's arc
    length l and mean Vbar of V in s."""
    g, w, _ = _quadrature()
    width = interval.length / n
    xs = (interval.a + width * (np.arange(n)[:, np.newaxis] + 0.5 * (1.0 + g))).ravel()
    ds = np.sqrt(_metric_at(interval, xs)).reshape(n, _GAUSS) * (0.5 * width)
    pot = expr.evaluate(interval.potential, xs).reshape(n, _GAUSS)
    ell = ds @ w
    return ds, pot, ell, (ds * pot) @ w / ell


def _cp_cells(interval: Interval, n: int):
    """2 l**2, Vbar, l and the (2, 2, M + 2, n) coefficients of eta_-1 .. eta_M
    in the transfer matrices of the n cells of equal width in x, by Gauss
    quadrature: l is a cell's arc length, Vbar the mean of V over it in s,
    and the coefficients hold the reference cell and its corrections, which
    follow from the Legendre moments V_1 .. V_N of V - Vbar in s.  With a
    constant V the reference cells are exact and the coefficients are None.
    """
    _, w, primitive = _quadrature()
    ds, pot, ell, vbar = _arc_means(interval, n)
    if expr.is_constant(interval.potential):
        return 2.0 * ell * ell, vbar, ell, None
    t = 2.0 * (ds @ primitive.T) / ell[:, np.newaxis] - 1.0      # the nodes by arc length
    legendre = np.polynomial.legendre.legvander(t, _MOMENTS)[..., 1:]
    moments = np.einsum("ck,ck,ckn->nc", ds * w, pot - vbar[:, np.newaxis], legendre)
    q = moments * (2.0 * np.arange(1, _MOMENTS + 1)[:, np.newaxis] + 1.0) * ell  # l**2 V_k
    first, second = _correction_tables()[:2]
    coeffs = np.einsum("emk,kc->emc", first, q) + np.einsum("emkj,kc,jc->emc", second, q, q)
    coeffs[[0, 3], 0] += 1.0                    # the reference cell's xi and eta_0
    coeffs[1, 1] += 1.0
    coeffs[1] *= ell
    coeffs[2] /= ell
    return 2.0 * ell * ell, vbar, ell, coeffs.reshape(2, 2, *coeffs.shape[1:])


def _poly_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Product of polynomials in tau with coefficients along axis 0."""
    out = np.zeros((len(p) + len(q) - 1,) + np.broadcast_shapes(p.shape[1:], q.shape[1:]))
    for i, c in enumerate(p):
        out[i:i + len(q)] += c * q
    return out


def _solve(rhs: dict) -> dict:
    """Polynomials C_m with p = sum_m C_m(tau) F_m(tau) solving
    p'' - Z p = sum_m R_m(tau) F_m(tau), p(0) = p'(0) = 0, for rhs = {m: R_m}.

    F_m = tau**(2m+1) eta_m(Z tau**2) obeys F_m' = tau F_(m-1) and
    F_m'' - Z F_m = 2m F_(m-1), so matching the F_m gives
    C_(m+1) = tau**-(m+1) / 2 * int_0^tau t**m (R_m - C_m'') dt (Ixaru).
    """
    out, m, c = {}, min(rhs), np.zeros((1,) + next(iter(rhs.values())).shape[1:])
    while m <= max(rhs) or len(c) > 2:
        k = np.arange(2, len(c)).reshape((-1,) + (1,) * (c.ndim - 1))
        p = -(c[2:] * k * (k - 1))
        if m in rhs:
            r = rhs[m].copy()
            r[:len(p)] += p
            p = r
        den = (np.arange(len(p)) + m + 1.0).reshape((-1,) + (1,) * (p.ndim - 1))
        c = 0.5 * p / np.where(den == 0.0, np.inf, den)  # R_-1 has no constant term
        out[m + 1] = c
        m += 1
    return out


def _at_one(coeffs: dict, top: int):
    """Coefficients of eta_-1 .. eta_top in p(1) and p'(1) for p = sum_m C_m F_m."""
    shape = (top + 2,) + next(iter(coeffs.values())).shape[1:]
    value, slope = np.zeros(shape), np.zeros(shape)
    for m, c in coeffs.items():
        k = np.arange(len(c)).reshape((-1,) + (1,) * (c.ndim - 1))
        value[m + 1] += c.sum(axis=0)
        slope[m + 1] += (k * c).sum(axis=0)
        slope[m] += c.sum(axis=0)                    # C_m tau F_(m-1), F_-1 = xi / tau
    return value, slope


@functools.cache
def _correction_tables():
    """The first- and second-order corrections to the reference cell of a
    cell with l = 1, as coefficients of eta_-1 .. eta_M: first (4, M+2, N)
    per q_k = l**2 V_k and second (4, M+2, N, N) per q_k q_j, for the entries
    (t00, t01, t10, t11); and the Taylor coefficients (terms, 3) of eta_M-1,
    eta_M and eta_M+1.

    In the cell's variable tau = s / l the reference solutions are
    u0 = xi = tau F_-1 and v0 = F_0, and each order solves
    p'' - Z p = 2 (V - Vbar) l**2 times the order below (:func:`_solve`).
    """
    n = np.arange(_MOMENTS + 1)
    # column k - 1: 2 P_k(2 tau - 1) in powers of tau
    dv = 2.0 * np.array([[(-1) ** (k + i) * math.comb(k, i) * math.comb(k + i, i)
                          for k in n[1:]] for i in n])
    tau = np.array([[0.0], [1.0]])
    u1 = _solve({-1: _poly_mul(tau, dv)})
    v1 = _solve({0: dv})
    u2 = _solve({m: _poly_mul(c[..., np.newaxis], dv[:, np.newaxis]) for m, c in u1.items()})
    v2 = _solve({m: _poly_mul(c[..., np.newaxis], dv[:, np.newaxis]) for m, c in v1.items()})
    top = max(max(c) for c in (u1, v1, u2, v2))
    first = np.array([*_at_one(u1, top), *_at_one(v1, top)])[[0, 2, 1, 3]]
    second = np.array([*_at_one(u2, top), *_at_one(v2, top)])[[0, 2, 1, 3]]
    # eta_m(z) = sum_k z**k / (2**k k! (2m + 2k + 1)!!), up to one order
    # above the tables' for the lam-derivatives
    series = np.array([[1.0 / (2 ** k * math.factorial(k) * math.prod(range(2 * (m + k) + 1, 0, -2)))
                        for m in (top - 1, top, top + 1)] for k in range(_SERIES_TERMS)])
    return first, second, series


def _reference(z: np.ndarray):
    """xi = cosh(sqrt z) and eta_0 = sinh(sqrt z) / sqrt z (cos and sin for
    z < 0), both times exp(-sqrt z) where z > 0, and that log factor."""
    r = np.sqrt(np.abs(z))
    grow = z > 0.0
    em = np.expm1(-2.0 * r)
    with np.errstate(invalid="ignore", divide="ignore"):
        xi = np.where(grow, 1.0 + 0.5 * em, np.cos(r))
        eta0 = np.where(grow, -0.5 * em, np.sin(r)) / r
    eta0[r == 0.0] = 1.0
    return xi, eta0, np.where(grow, r, 0.0)


def _eta1(z: np.ndarray, xi: np.ndarray, eta0: np.ndarray, log: np.ndarray) -> np.ndarray:
    """eta_1 = (xi - eta_0) / z beside xi and eta_0 of :func:`_reference`, and
    scaled like them; where |z| < 1, whose difference cancels, from its
    Taylor series sum_k z**k / (2**k k! (2k + 3)!!)."""
    small = np.abs(z) < 1.0
    with np.errstate(invalid="ignore", divide="ignore"):
        eta1 = (xi - eta0) / z
    if small.any():
        series = _ETA1_SERIES[-1]
        for c in _ETA1_SERIES[-2::-1]:
            series = series * z + c
        eta1 = np.where(small, series * np.exp(-log), eta1)
    return eta1


def _etas(z: np.ndarray, slopes: bool = False):
    """eta_-1 .. eta_M at z stacked on a new first axis, times exp(-sqrt z)
    where z >= _SERIES_Z, and that log factor; with ``slopes`` one order
    more, eta_M+1, for the lam-derivatives (eta_m' = eta_(m+1) / 2).

    For |z| of at least _SERIES_Z they come from xi and eta_0 by the
    recurrence eta_m = (eta_(m-2) - (2m - 1) eta_(m-1)) / z upwards; below it
    that loses digits, and eta_M-1 .. eta_M+1 come from their Taylor series
    and the others from the recurrence downwards (:func:`_etas_down`).
    """
    small = np.abs(z) < _SERIES_Z
    if small.all():
        return _etas_down(z, slopes), np.zeros(z.shape)
    xi, eta0, log = _reference(z)
    up = [xi, eta0]
    with np.errstate(invalid="ignore", divide="ignore"):
        for m in range(1, len(_correction_tables()[0][0]) - 1 + slopes):
            up.append((up[m - 1] - (2 * m - 1) * up[m]) / z)
    if not small.any():
        return np.array(up), log
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(small, _etas_down(z, slopes), np.array(up)), np.where(small, 0.0, log)


def _etas_down(z: np.ndarray, slopes: bool = False) -> np.ndarray:
    """eta_-1 .. eta_M, or eta_M+1 with ``slopes``, for small |z|:
    eta_M-1 .. eta_M+1 by Horner's rule, then eta_(m-2) = z eta_m +
    (2m - 1) eta_(m-1) downwards, unscaled."""
    first, _, series = _correction_tables()
    acc = series[-1].reshape((3,) + (1,) * z.ndim)
    for c in series[-2::-1]:
        acc = acc * z + c.reshape(acc.shape[:1] + (1,) * z.ndim)
    top = len(first[0]) - 2
    etas = {top - 1: acc[0], top: acc[1], top + 1: acc[2]}
    for m in range(top, 0, -1):
        etas[m - 2] = z * etas[m] + (2 * m - 1) * etas[m - 1]
    return np.array([etas[m] for m in range(-1, top + 1 + slopes)])


def _cell_matrices(cells, lam, slopes: bool = False):
    """Transfer matrices of the cells, (1, 2, 2, N) or (1, 2, 2, G, N) for a
    column of G values of lam, and their log factors (growing cells are
    stored times exp(-sqrt z)).  With ``slopes`` they are dual numbers T +
    eps T', (2, 2, 2, ...), the lam-derivatives T' scaled like T.

    Without corrections a cell is its reference cell [[xi, l eta_0],
    [z eta_0 / l, xi]]; with them, its coefficients hold the reference's
    xi and l eta_0 terms too.  The coefficients do not depend on lam, and
    dz/dlam = -2 l**2, so T' is the same contraction one order up:
    d eta_m / dlam = -l**2 eta_(m+1).
    """
    two_l2, vbar, ell, coeffs = cells
    z = two_l2 * (vbar - lam)
    if coeffs is None:
        xi, eta0, log = _reference(z)
        m = [[[xi, ell * eta0], [z * eta0 / ell, xi]]]
        if slopes:
            # (z eta_0)' = eta_0 + z eta_1 / 2 = (xi + eta_0) / 2
            m.append([[eta0, ell * _eta1(z, xi, eta0, log)], [(xi + eta0) / ell, eta0]])
        m = np.array(m)
    else:
        etas, log = _etas(z, slopes)
        m = np.empty((1 + slopes, 2, 2) + z.shape)
        for d in range(1 + slopes):                 # T' is the contraction one order up
            np.einsum("ijmc,m...c->ij...c", coeffs, etas[d:d + coeffs.shape[2]], out=m[d])
        m[0, 1, 0] += z * etas[1] / ell
        if slopes:
            m[1, 1, 0] += (etas[0] + etas[1]) / ell
    m[1:] *= -0.5 * two_l2                          # dz/dlam, on T' where there is one
    return m, log


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cellwise products of dual numbers (see :func:`_cell_matrices`): (ab)' = a'b + ab'."""
    c = np.einsum("yij...,jk...->yik...", a, b[0])
    if len(a) > 1:
        c[1] += np.einsum("ij...,jk...->ik...", a[0], b[1])
    return c


def _normalised(m: np.ndarray, logs: np.ndarray):
    """m divided by the largest entry of each matrix, derivatives by the same."""
    peak = np.abs(m[0]).max(axis=(0, 1))
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


def _product(m: np.ndarray, logs: np.ndarray):
    """The products M_n ... M_1 along the last axis, normalised, and their log factors."""
    while m.shape[-1] > 1:
        m, logs = _normalised(*_pair_products(m, logs))
    return m[..., 0], logs[..., 0]


def _sample_cells(m: np.ndarray, logs: np.ndarray, n: int):
    """The n sample cells from the cells of one level: the products of each
    sample cell's 2**level cells, normalised, with their log factors."""
    if m.shape[-1] == n:
        return _normalised(m, logs)
    return _product(m.reshape(m.shape[:-1] + (n, -1)), logs.reshape(logs.shape[:-1] + (n, -1)))


def _converged_cells(interval: Interval, samples: int, lam, cell_tol: float, slopes: bool = False):
    """Sample cells of levels j - 1 and j, halving the mesh from the level last
    accepted at ``cell_tol`` until every cell agrees between the two levels to
    ``cell_tol`` of its own largest entry, beyond the rounding of its log
    factor: that factor, ~l sqrt(2 |lam|) deep below V, is rounded to about
    eps of itself, which the comparison's exp(fine logs - coarse logs) reads
    as a relative difference.  A constant mesh's one cell is exact and
    serves as both levels.  Once a halving no longer lowers a difference
    below sqrt(eps) (above it, truncation on cells too coarse for V), it has
    reached its rounding floor and :class:`OdeError` is raised, as it is at
    ``_MAX_LEVEL``.  With ``slopes`` the fine cells carry their
    lam-derivatives (see :func:`_cell_matrices`).

    Returns (j, coarse, coarse logs, fine, fine logs).
    """
    store = _store(interval)
    if store.constant:
        cell, logs = _cell_matrices(_cells(interval, samples - 1), lam, slopes=slopes)
        return 0, cell[:1], logs, cell, logs
    level = store.start.get((samples, cell_tol), 0)
    n = (samples - 1) << level
    m, logs = _cell_matrices(_pair(interval, n), lam, slopes=slopes)
    coarse, coarse_logs = _sample_cells(m[:1, ..., :n], logs[..., :n], samples - 1)
    fine, fine_logs = _sample_cells(m[..., n:], logs[..., n:], samples - 1)
    previous = math.inf
    while True:
        error = np.max(np.abs(fine[0] * np.exp(fine_logs - coarse_logs) - coarse[0]).max((0, 1))
                       - _LOG_ROUNDING * np.abs(fine_logs))
        if error <= cell_tol:
            store.start[samples, cell_tol] = level
            return level + 1, coarse, coarse_logs, fine, fine_logs
        level, n = level + 1, 2 * n
        if level >= _MAX_LEVEL or 1.5e-8 > error >= previous:
            raise OdeError(f"mesh halving did not reach rel_tol={cell_tol:g} "
                           f"(difference {error:.3g} at level {level})")
        previous = error
        coarse, coarse_logs = fine[:1], fine_logs
        fine, fine_logs = _sample_cells(
            *_cell_matrices(_cells(interval, 2 * n), lam, slopes=slopes), samples - 1)


def _distance(t, t_log: float, ref, ref_log: float) -> float:
    """Largest entry of t - ref relative to ref's; ref is normalised to a peak of 1."""
    return float(np.max(np.abs(t * math.exp(t_log - ref_log) - ref)))


def fundamental_solutions(
    interval: Interval,
    lam: float,
    rel_tol: float = 1e-10,
    samples: int = 257,
) -> FundamentalPair:
    """Propagate the canonical solution pair to the endpoint b.

    ``samples`` is the number of uniform grid points (including endpoints).
    The mesh is halved until every sample cell agrees between two levels to
    ``rel_tol / (samples - 1)``, so the cell errors sum to at most
    ``rel_tol``; ``error_estimate`` is the difference of the two levels'
    endpoint transfer matrices relative to the finer one's largest entry,
    plus the (samples - 1) eps that rounding adds to the product of cells
    which are exact to rounding themselves.
    Where growth and decay cancel in the product (near an eigenvalue of an
    interval with forbidden regions at both ends) the product is
    ill-conditioned and that difference exceeds ``rel_tol`` on every mesh:
    then :class:`OdeError` is raised, as it is where the growth over the
    interval passes e^708 and the data at a, stored with the factor
    exp(-scale_exponent), would underflow.
    """
    if samples < 3:
        raise ValueError("samples must be at least 3")
    if not rel_tol > 0.0:
        raise ValueError("rel_tol must be positive")
    _, coarse, coarse_logs, cells, cell_logs = _converged_cells(interval, samples, lam,
                                                                rel_tol / (samples - 1))
    p, pl = _product(np.broadcast_to(cells, (1, 2, 2, samples - 1)),
                     np.broadcast_to(cell_logs, samples - 1))
    # cells exact to rounding leave the product's own rounding, up to (samples - 1) eps
    error = 0.0 if _store(interval).constant else (
        _distance(*_product(coarse, coarse_logs), p, pl) + (samples - 1) * np.finfo(float).eps)
    if error > rel_tol:
        raise OdeError(f"lam={lam:.6g}: the endpoint transfer matrix of [{interval.a:g}, "
                       f"{interval.b:g}] is ill-conditioned (mesh levels differ by "
                       f"{error:.3g} > rel_tol={rel_tol:g})")
    # y = (u, eta**-0.5 u') starts at (1, 0) and (0, 1 / sqrt(eta(a)))
    pl, p = float(pl), p[0].ravel()
    scale = pl if pl > _SCALE_LOG else 0.0
    f, sf = math.exp(pl - scale), math.exp(-scale)
    if sf < np.finfo(float).tiny:
        raise OdeError(f"lam={lam:.6g}: the solutions grow by e^{scale:.6g} over "
                       f"[{interval.a:g}, {interval.b:g}], so their data at a, stored "
                       f"with the factor e^-{scale:.6g}, would underflow")
    sa, sb = _store(interval).sqrt_eta
    return FundamentalPair(
        lam=lam, interval=interval,
        psi_a=np.array([sf, 0.0]), dpsi_a=np.array([0.0, sf]),
        psi_b=f * np.array([p[0], p[1] / sa]), dpsi_b=sb * f * np.array([p[2], p[3] / sa]),
        scale_exponent=scale, error_estimate=error,
    )


# lam values times cells per block of cell_dtn: its arrays stay in cache
_BATCH_CELLS = 1 << 14


def _cells_free(interval: Interval, samples: int, lams, rel_tol: float, slopes: bool = False):
    """The converged sample cells at each of the (G, 1) ``lams``, with their
    lam-derivatives where ``slopes``, their log factors, and whether each
    holds no Dirichlet level of its own, (G, cells)."""
    level, _, _, fine, fine_logs = _converged_cells(interval, samples, lams, rel_tol, slopes)
    _, vbar, ell, _ = _cells(interval, (samples - 1) << level)
    turn = _turns(ell, vbar, lams).reshape(len(lams), fine.shape[-1], -1)
    return fine, fine_logs, (fine[0, 0, 1] > 0.0) & (turn.sum(axis=-1) < math.pi)


def cell_dtn(interval: Interval, lams, rel_tol: float = 1e-10, samples: int = 257,
             slopes: bool = False):
    """Dirichlet-to-Neumann matrices [[alpha, beta], [beta, gamma]] of the
    ``samples - 1`` sample cells, each of alpha, beta, gamma a read-only
    (G, cells) array; with ``slopes``, their exact lam-derivatives alpha',
    beta', gamma' follow, six arrays in all.

    A cell maps its end values to the outward derivatives: with T the cell's
    transfer matrix of y = (u, eta**-0.5 u'), alpha = t00/t01, gamma = t11/t01
    and beta = -1/t01, or -exp(-l)/t~01 for T = exp(l) T~ normalised, so no
    entry overflows however deep the cell tunnels.  T is the product of the
    sample cell's 2**j CP cells.  The mesh is halved until every sample
    cell's T agrees between levels j and j + 1 to ``rel_tol`` of its own
    largest entry, a test that a single cell passes near eigenvalues too;
    on smooth coefficients levels 0 and 1 agree to ~1e-14, so a value of lam
    costs 3 (samples - 1) CP cells.  A constant interval's one exact cell is
    broadcast to every sample cell.  A cell must hold no Dirichlet level of
    its own (t01 > 0, and the exact turns l sqrt(2 (lam - Vbar))+ of its
    reference cells sum to less than pi), else :class:`OdeError`; the turns
    grow with lam, so a ``samples`` that passes at lam passes below it.

    The derivatives follow from T' (see :func:`_cell_matrices`), carried
    through the products by (AB)' = A'B + AB' with the normalising factors
    of T: alpha' = (t00' - alpha t01') / t01, beta' = -beta t01' / t01 and
    gamma' = (t11' - gamma t01') / t01.  The matrix [[alpha', beta'],
    [beta', gamma']] is -2 times the Gram matrix, in L2(sqrt(eta) dx), of the
    cell's solutions with unit end values (Green's identity), so it is
    negative definite.
    """
    lams = np.asarray(lams, dtype=float)[:, np.newaxis]
    store = _store(interval)
    cells0 = 1 if store.constant else samples - 1
    parts = []
    start = 0
    while start < len(lams):
        pair = 3 * (cells0 << store.start.get((samples, rel_tol), 0))
        block = lams[start:start + max(1, _BATCH_CELLS // pair)]
        start += len(block)
        fine, fine_logs, ok = _cells_free(interval, samples, block, rel_tol, slopes)
        (t00, t01), (_, t11) = fine[0]
        if not ok.all():
            raise OdeError(f"lam={block[~ok.all(axis=-1)][0, 0]:.6g} puts a Dirichlet level "
                           f"inside one of the {samples - 1} sample cells of "
                           f"[{interval.a:g}, {interval.b:g}]")
        dtn = np.array([t00, -np.exp(-fine_logs), t11]) / t01
        if slopes:
            (d00, d01), (_, d11) = fine[1] / t01
            dtn = np.concatenate([dtn, [d00 - dtn[0] * d01, -dtn[1] * d01, d11 - dtn[2] * d01]])
        parts.append(dtn)
    return tuple(np.broadcast_to(np.concatenate(parts, axis=1),
                                 (len(parts[0]), len(lams), samples - 1)))


def free_exponential_basis(interval: Interval, lam: float) -> FundamentalPair:
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
    ea, eb = np.exp(1j * k * interval.a), np.exp(1j * k * interval.b)
    return FundamentalPair(
        lam=lam, interval=interval,
        psi_a=np.array([ea, np.conj(ea)]),
        dpsi_a=np.array([1j * k * ea, -1j * k * np.conj(ea)]),
        psi_b=np.array([eb, np.conj(eb)]),
        dpsi_b=np.array([1j * k * eb, -1j * k * np.conj(eb)]),
        scale_exponent=0.0,
    )
