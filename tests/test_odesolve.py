"""Fundamental-solution integrator tests."""

import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import airy

from conftest import count_calls
from qwire import expr, odesolve
from qwire.bc import make_dirichlet
from qwire.domain import Interval, QuantumDomain
from qwire.odesolve import (
    OdeError,
    cell_dtn,
    free_exponential_basis,
    fundamental_solutions,
)
from qwire.spectral import SolveOptions, find_eigenvalues


def test_free_interval_closed_form():
    # On a free interval u'' = -2 lam u, so the canonical pair is
    # cos(k(x-a)) and sin(k(x-a))/k with k = sqrt(2 lam): at the end of
    # [a, x] for x on a grid, and in the DtN matrix of every sample cell.
    lam = 1.3
    k = math.sqrt(2.0 * lam)
    for x in np.linspace(0.5, 4.0, 9)[1:]:
        fp = fundamental_solutions(Interval(0.5, x, "1", "0"), lam)
        kz = k * (x - 0.5)
        assert np.allclose(fp.psi_b, [math.cos(kz), math.sin(kz) / k], rtol=0.0, atol=1e-9)
        assert np.allclose(fp.dpsi_b, [-k * math.sin(kz), math.cos(kz)], rtol=0.0, atol=1e-9)
    iv = Interval(0.5, 4.0, "1", "0")
    fp = fundamental_solutions(iv, lam)
    assert fp.psi_a == pytest.approx([1.0, 0.0])
    assert fp.dpsi_a == pytest.approx([0.0, 1.0])
    assert fp.psi_b[0] == pytest.approx(math.cos(k * (4.0 - 0.5)), rel=1e-10)
    assert fp.dpsi_b[1] == pytest.approx(math.cos(k * (4.0 - 0.5)), rel=1e-10)
    alpha, beta, gamma = cell_dtn(iv, [lam])
    want = _constant_cell_dtn(1.0, 0.0, iv.length / 256, lam)
    assert np.allclose([alpha, gamma], want[0], rtol=1e-9, atol=0.0)
    assert np.allclose(beta, want[1], rtol=1e-9, atol=0.0)


def test_lambda_zero_gives_linear_pair():
    for x in np.linspace(0.0, 2.0, 9)[1:]:
        fp = fundamental_solutions(Interval(0.0, x, "1", "0"), 0.0)
        assert np.allclose(fp.psi_b, [1.0, x], rtol=0.0, atol=1e-10)
        assert np.allclose(fp.dpsi_b, [0.0, 1.0], rtol=0.0, atol=1e-10)
    alpha, beta, gamma = cell_dtn(Interval(0.0, 2.0, "1", "0"), [0.0])
    h = 2.0 / 256
    assert np.allclose([alpha, gamma], 1.0 / h, rtol=0.0, atol=1e-10)
    assert np.allclose(beta, -1.0 / h, rtol=0.0, atol=1e-10)


def test_constant_fast_path_matches_integrator():
    # '1 + 0*x' is not recognized as constant, so it takes the halved mesh of
    # CP cells; the endpoint data of [0, x] must match the single exact cell
    # of a constant interval.
    lam = 0.8
    for x in np.linspace(0.0, 3.0, 5)[1:]:
        fast = fundamental_solutions(Interval(0.0, x, "1", "2"), lam)
        slow = fundamental_solutions(Interval(0.0, x, "1 + 0*x", "2 + 0*x"), lam, rel_tol=1e-12)
        assert np.max(np.abs(fast.psi_b - slow.psi_b)) <= 1e-8
        assert fast.dpsi_b == pytest.approx(slow.dpsi_b, rel=1e-8)


def test_wronskian_invariant_variable_coefficients():
    iv = Interval(0.0, 2.0, "1 + 0.3*sin(x)", "x^2/2 - 1")
    for lam in (-0.7, 0.0, 2.5):
        fp = fundamental_solutions(iv, lam)
        assert fp.wronskian_drift() <= 1e-6


def test_wronskian_drift_beside_a_growing_solution():
    # At lam = 1.5 on [0, 2 pi] u1 grows to 3e7 while u2 (an oscillator level
    # with u2(0) = 0) decays to 1e-7, so u2(b) carries an error of 3e7 times
    # the normwise accuracy; relative to |W| = 1 that read as a drift of 4e-5.
    fp = fundamental_solutions(Interval(0.0, 2.0 * math.pi, "1", "x^2/2"), 1.5)
    assert np.max(np.abs(fp.dpsi_b)) > 1e7
    assert fp.wronskian_drift() <= 1e-8


def test_closed_form_branches():
    # eta = 2, V = 3 on [0, 1.3]: u'' = w u with w = 4 (3 - lam).  lam above
    # V, lam = V, then growing with action k L of 10.6 and 45, and deep
    # tunnelling (k L = 581) with a storage scale.
    iv = Interval(0.0, 1.3, "2", "3")
    L = iv.length
    fps = [fundamental_solutions(iv, lam) for lam in (10.0, 3.0, -3.0, -300.0, -5e4)]
    k = math.sqrt(28.0)
    osc = fps[0]
    assert np.allclose([osc.psi_b, osc.dpsi_b],
                       [[math.cos(k * L), math.sin(k * L) / k],
                        [-k * math.sin(k * L), math.cos(k * L)]], rtol=1e-13, atol=1e-15)
    assert np.allclose([fps[1].psi_b, fps[1].dpsi_b], [[1.0, L], [0.0, 1.0]], rtol=1e-13)
    k = np.sqrt(4.0 * (3.0 + np.array([3.0, 300.0, 5e4])))
    ch, sh = np.cosh(k[:2] * L), np.sinh(k[:2] * L)
    data = np.array([[fp.psi_a, fp.dpsi_a, fp.psi_b, fp.dpsi_b] for fp in fps[2:4]])
    want = np.array([[[1.0, 0.0], [0.0, 1.0], [c, s / q], [q * s, c]]
                     for c, s, q in zip(ch, sh, k)])
    assert np.allclose(data, want, rtol=1e-13, atol=0.0)
    deep = fps[4]
    assert deep.scale_exponent > 0.0
    assert _growth(deep, 0) == pytest.approx(k[2] * L - math.log(2.0), rel=1e-12)
    assert _growth(deep, 1) == pytest.approx(k[2] * L - math.log(2.0 * k[2]), rel=1e-12)
    assert all(np.all(np.isfinite(v)) for v in (deep.psi_b, deep.dpsi_a, deep.dpsi_b))


def test_cell_dtn_closed_form_matches_cp_mesh():
    # '1 + 0*x' is not recognised as constant and takes the halved mesh of
    # CP cells; forbidden, flat (lam = V) and oscillating cells.
    lams = np.array([-40.0, -1.0, 2.0, 3.5, 30.0])
    fast = cell_dtn(Interval(0.0, 3.0, "1", "2"), lams)
    slow = cell_dtn(Interval(0.0, 3.0, "1 + 0*x", "2 + 0*x"), lams, rel_tol=1e-12)
    for f, g in zip(fast, slow):
        assert f.shape == (5, 256)
        assert np.max(np.abs(f - g)) <= 1e-9 * np.max(np.abs(f))


def _constant_cell_dtn(eta, pot, h, lam):
    # alpha = gamma and beta of a cell of width h with constant eta and V:
    # u'' = w u with w = 2 eta (V - lam), and the outward quasi-derivatives
    # carry eta**-0.5
    w = 2.0 * eta * (pot - lam)
    if w == 0.0:
        alpha, beta = 1.0 / h, -1.0 / h
    elif w < 0.0:
        k = math.sqrt(-w)
        alpha, beta = k / math.tan(k * h), -k / math.sin(k * h)
    else:
        k = math.sqrt(w)
        alpha, beta = k / math.tanh(k * h), 2.0 * k * math.exp(-k * h) / math.expm1(-2.0 * k * h)
    return alpha / math.sqrt(eta), beta / math.sqrt(eta)


def test_cell_dtn_constant_interval_against_closed_form():
    # eta = 2, V = 3 on [0, 1.3], 256 cells of width h: forbidden (k h from
    # 0.025 to 102; beta ~ exp(-k h) has condition number k h), flat
    # (lam = V) and oscillating cells
    iv = Interval(0.0, 1.3, "2", "3")
    h = iv.length / 256
    lams = np.array([-1e8, -1e7, -1e5, -3.0, 2.999, 3.0, 3.001, 10.0, 500.0, 3e4])
    alpha, beta, gamma = cell_dtn(iv, lams)
    assert alpha.shape == beta.shape == gamma.shape == (len(lams), 256)
    assert np.array_equal(alpha, gamma)
    for g, lam in enumerate(lams):
        want = _constant_cell_dtn(2.0, 3.0, h, lam)
        assert np.allclose(alpha[g], want[0], rtol=1e-13, atol=0.0)
        assert np.allclose(beta[g], want[1], rtol=1e-13, atol=0.0)


def _free_cell_dtn(h):
    # alpha and beta of a free cell of width h as mpmath functions of lam,
    # complex above 0 with a vanishing imaginary part
    def alpha(x):
        k = mpmath.sqrt(-2 * x)
        return k * mpmath.coth(k * h)

    def beta(x):
        k = mpmath.sqrt(-2 * x)
        return -k / mpmath.sinh(k * h)

    return alpha, beta


@pytest.mark.parametrize("metric, potential", [("1", "0"), ("1", "x^2/2"),
                                               ("(1+0.3*x)^2", "0")])
def test_cell_dtn_slopes_are_the_lam_derivatives(metric, potential):
    # alpha', beta', gamma' of the 64 sample cells of [0, 2] in forbidden,
    # slow and oscillating cells, against Richardson-extrapolated central
    # differences of the cells themselves (steps 1e-2, or 1e-3 |lam| past
    # |lam| = 1: wide enough for their rounding, short against the cells'
    # scale in lam), and on the free cell against the closed form by
    # mpmath.  [[alpha', beta'], [beta', gamma']] is -2 times the Gram
    # matrix of the cell's solutions with unit end values, so it is
    # negative definite.  Asking for the slopes leaves the cells unchanged.
    iv = Interval(0.0, 2.0, metric, potential)
    for lam in (-1e4, -1.0, 0.3, 50.0):
        got = cell_dtn(iv, [lam], rel_tol=1e-12, samples=65, slopes=True)
        assert len(got) == 6
        assert all(np.array_equal(g, c)
                   for g, c in zip(got[:3], cell_dtn(iv, [lam], rel_tol=1e-12, samples=65)))
        h = 1e-3 * abs(lam) if abs(lam) > 1.0 else 1e-2

        def central(step):
            up, down = (cell_dtn(iv, [lam + s], rel_tol=1e-12, samples=65) for s in (step, -step))
            return [(u - d) / (2.0 * step) for u, d in zip(up, down)]

        want = [(4.0 * fine - coarse) / 3.0 for fine, coarse in zip(central(h / 2), central(h))]
        for slope, ref in zip(got[3:], want):
            assert np.all(np.abs(slope - ref) <= 1e-8 * np.abs(ref))
        da, db, dg = (v[0] for v in got[3:])
        assert np.all(da < 0.0) and np.all(da * dg - db * db > 0.0)
        if metric == "1" and potential == "0":
            with mpmath.workdps(30):
                exact = [float(mpmath.re(mpmath.diff(f, lam)))
                         for f in _free_cell_dtn(mpmath.mpf(2) / 64)]
            assert np.allclose(da, exact[0], rtol=1e-12, atol=0.0)
            assert np.allclose(db, exact[1], rtol=1e-12, atol=0.0)
            assert np.array_equal(da, dg)


def test_cell_dtn_is_the_inverse_transfer_entry():
    # alpha = t00/t01, gamma = t11/t01 and beta = -1/t01 of each cell's
    # transfer matrix, here from the canonical pair on one cell of 16
    iv = Interval(-1.0, 3.0, "1 + 0.2*x", "x")
    cell = Interval(-1.0, -0.75, "1 + 0.2*x", "x")
    alpha, beta, gamma = cell_dtn(iv, [-0.5, 1.2], rel_tol=1e-12, samples=17)
    for g, lam in enumerate((-0.5, 1.2)):
        fp = fundamental_solutions(cell, lam, rel_tol=1e-12, samples=3)
        root_a, root_b = math.sqrt(0.8), math.sqrt(0.85)
        t = np.array([fp.psi_b, fp.dpsi_b / root_b]) * np.array([1.0, root_a])
        want = [t[0, 0] / t[0, 1], -1.0 / t[0, 1], t[1, 1] / t[0, 1]]
        assert np.allclose([alpha[g, 0], beta[g, 0], gamma[g, 0]], want, rtol=1e-9)


def test_cell_dtn_refuses_a_cell_with_its_own_level():
    # 256 cells on [0, 2 pi] turn by k h = pi at lam = 8192
    iv = Interval(0.0, 2.0 * math.pi)
    assert np.all(cell_dtn(iv, [8000.0])[1] < 0.0)
    with pytest.raises(OdeError):
        cell_dtn(iv, [8300.0])
    with pytest.raises(OdeError):
        cell_dtn(Interval(0.0, 2.0 * math.pi, "1", "0.01*x"), [8300.0])


def test_exponential_basis_change():
    # [psi_exp^1, psi_exp^2] = [psi_can^1, psi_can^2] T with
    # T = [[1, 1], [i k, -i k]], k = sqrt(2 lam), in the data at both ends.
    lam = 0.9
    k = math.sqrt(2.0 * lam)
    iv = Interval(0.0, 2.0 * math.pi, "1", "0")
    can = fundamental_solutions(iv, lam)
    ex = free_exponential_basis(iv, lam)
    T = np.array([[1.0, 1.0], [1j * k, -1j * k]])
    for name in ("psi_a", "dpsi_a", "psi_b", "dpsi_b"):
        rebuilt = T.T @ getattr(can, name).astype(complex)
        scale = np.max(np.abs(getattr(ex, name)))
        assert np.max(np.abs(rebuilt - getattr(ex, name))) <= 1e-8 * scale


def test_exponential_basis_requires_free_interval():
    with pytest.raises(ValueError):
        free_exponential_basis(Interval(0.0, 1.0, "2", "0"), 1.0)
    with pytest.raises(ValueError):
        free_exponential_basis(Interval(0.0, 1.0, "1", "1"), 1.0)
    with pytest.raises(ValueError):
        free_exponential_basis(Interval(0.0, 1.0, "1", "0"), -1.0)


def test_tolerance_convergence():
    iv = Interval(0.0, 3.0, "1 + 0.2*x", "sin(x)")
    lam = 1.1
    coarse = fundamental_solutions(iv, lam, rel_tol=1e-8)
    fine = fundamental_solutions(iv, lam, rel_tol=1e-9)
    for attr in ("psi_b", "dpsi_b"):
        c, f = getattr(coarse, attr), getattr(fine, attr)
        assert np.max(np.abs(c - f)) <= 10 * 1e-8 * max(1.0, np.max(np.abs(f)))


def _growth(fp, sigma):
    # log |u_sigma(b)|: with u1 = cosh(k x) and u2 = sinh(k x) / k both grow
    # like e^(k L) / 2, independently of the storage scale
    return fp.scale_exponent + math.log(abs(fp.psi_b[sigma]))


def test_deep_tunnelling_rescales_without_overflow():
    # lam far below V: growth rate k = sqrt(2 (V - lam)) with k L = 566, past
    # the 1e100 above which the data are stored with a scale factor
    iv = Interval(0.0, 4.0, "1", "5000")
    fp = fundamental_solutions(iv, -5000.0)
    assert fp.scale_exponent > 0.0
    data = np.array([fp.psi_a, fp.dpsi_a, fp.psi_b, fp.dpsi_b])
    assert np.all(np.isfinite(data))
    assert np.max(np.abs(data)) < 1e305
    assert fp.psi_a[0] == fp.dpsi_a[1] == math.exp(-fp.scale_exponent) > 0.0
    k = math.sqrt(2.0 * 10000.0)
    assert _growth(fp, 0) == pytest.approx(k * 4.0 - math.log(2.0), rel=1e-12)
    assert _growth(fp, 1) == pytest.approx(k * 4.0 - math.log(2.0 * k), rel=1e-12)


def test_growth_past_the_float_range_raises():
    # k L = 1414 on [0, 10]: the factor exp(-scale_exponent) = e^-1418 of the
    # data at a would underflow to 0, so the pair is refused, not returned
    # with psi_a = dpsi_a = 0
    with pytest.raises(OdeError, match=r"e\^1418\.\d+ .*would underflow"):
        fundamental_solutions(Interval(0.0, 10.0, "1", "5000"), -5000.0)


def test_deep_tunnelling_integrator_path():
    # The Wronskian invariant cancels catastrophically at growth e^{2kL},
    # so check the accumulated growth rate against the closed form instead.
    iv = Interval(0.0, 4.0, "1", "1000 + 0.001*x")
    fp = fundamental_solutions(iv, -1000.0)
    assert np.all(np.isfinite([fp.psi_a, fp.dpsi_a, fp.psi_b, fp.dpsi_b]))
    assert fp.scale_exponent > 0.0
    k = math.sqrt(2.0 * (1000.002 + 1000.0))
    assert _growth(fp, 0) == pytest.approx(k * 4.0 - math.log(2.0), rel=1e-4)
    assert _growth(fp, 1) == pytest.approx(k * 4.0 - math.log(2.0 * k), rel=1e-4)


def test_metric_must_be_positive():
    with pytest.raises(OdeError):
        fundamental_solutions(Interval(0.0, 2.0, "x - 1 + 0*sin(x)", "0"), 1.0)


def test_samples_validation():
    with pytest.raises(ValueError):
        fundamental_solutions(Interval(0.0, 1.0), 1.0, samples=2)
    with pytest.raises(ValueError):
        fundamental_solutions(Interval(0.0, 1.0, "1", "x"), 1.0, rel_tol=0.0)


@pytest.mark.parametrize("a", [0.0, 0.5])
def test_metric_against_arc_length_closed_form(a):
    # With eta = (1 + 0.3x)^2 and V = 0 the arc length s(x) = int_a^x sqrt(eta)
    # turns H into -1/2 d^2/ds^2: u1 = cos(k s), u2 = sin(k s) / (k sqrt(eta(a))),
    # here at the end of [a, x] for x on a grid.
    lam = 1.7
    k = math.sqrt(2.0 * lam)
    root_a = 1.0 + 0.3 * a
    for x in np.linspace(a, a + 2.0, 9)[1:]:
        fp = fundamental_solutions(Interval(a, x, "(1+0.3*x)^2", "0"), lam)
        s, root = (x - a) + 0.15 * (x * x - a * a), 1.0 + 0.3 * x
        assert np.allclose(fp.psi_b, [math.cos(k * s), math.sin(k * s) / (k * root_a)],
                           rtol=0.0, atol=1e-10)
        assert np.allclose(fp.dpsi_b, [-k * math.sin(k * s) * root,
                                       math.cos(k * s) * root / root_a], rtol=0.0, atol=1e-10)


def _airy_pair(a, lam, x):
    """Canonical pair of u'' = 2 (x - lam) u: values and derivatives at x.

    With z = 2^(1/3) (x - lam) the equation is Airy's, u_zz = z u.
    """
    c = 2.0 ** (1.0 / 3.0)
    ai, aip, bi, bip = airy(c * (a - lam))
    # inverse of [[Ai, Bi], [c Ai', c Bi']], whose determinant is c / pi
    coef = math.pi / c * np.array([[c * bip, -bi], [-c * aip, ai]])
    ai, aip, bi, bip = airy(c * (np.asarray(x) - lam))
    u = np.array([ai, bi]).T @ coef
    du = c * np.array([aip, bip]).T @ coef
    return u.T, du.T


def test_linear_potential_against_airy():
    # the endpoint data of [-1, x] for x on a grid, against the Airy pair
    # sampled on [-1, 3]
    a, b = -1.0, 3.0
    for lam in (-0.5, 1.2, 4.0):
        u, du = _airy_pair(a, lam, np.linspace(a, b, 257))
        scale, dscale = np.max(np.abs(u)), np.max(np.abs(du))
        for x in np.linspace(a, b, 9)[1:]:
            fp = fundamental_solutions(Interval(a, x, "1", "x"), lam)
            u, du = _airy_pair(a, lam, [x])
            assert np.max(np.abs(fp.psi_b - u[:, 0])) <= 1e-10 * scale
            assert np.max(np.abs(fp.dpsi_b - du[:, 0])) <= 1e-10 * dscale


def _endpoint_transfer(fp):
    # (u, eta^-1/2 u') at b for the launch data (1, 0) and (0, 1), eta = 1
    return np.array([fp.psi_b, fp.dpsi_b])


def test_error_estimate_bounds_true_error():
    iv = Interval(-1.0, 3.0, "1", "x")
    for rel_tol in (1e-5, 1e-7, 1e-9, 1e-11):
        for lam in (-0.5, 1.2, 4.0):
            fp = fundamental_solutions(iv, lam, rel_tol=rel_tol)
            u, du = _airy_pair(iv.a, lam, [iv.b])
            exact = np.array([u[:, 0], du[:, 0]])
            err = np.max(np.abs(_endpoint_transfer(fp) - exact)) / np.max(np.abs(exact))
            assert 0.0 < fp.error_estimate <= rel_tol
            assert err <= fp.error_estimate
    assert fundamental_solutions(Interval(0.0, 1.0, "1", "2"), 0.5).error_estimate == 0.0


def test_ill_conditioned_product_raises():
    # At the oscillator's levels 0.5 and 2.5 on [-6, 6] growth and decay
    # cancel in the endpoint transfer matrix, and the two mesh levels differ
    # far above rel_tol however fine the cells; between levels they agree.
    iv = Interval(-6.0, 6.0, "1", "x^2/2")
    for lam in (0.5, 2.5):
        with pytest.raises(OdeError):
            fundamental_solutions(iv, lam, rel_tol=1e-11)
    assert fundamental_solutions(iv, 1.0, rel_tol=1e-11).error_estimate <= 1e-11


def test_halving_stops_at_the_rounding_floor():
    # Below the rounding floor of the level comparison halving cannot reach
    # the per-cell tolerance (here 6.25e-16 and 3.9e-17): the level
    # differences fall to ~5e-15 (17 samples) or start there (257) and then
    # rise, and the first rise raises instead of halving on to _MAX_LEVEL.
    for samples, finest in ((17, 6), (257, 3)):
        odesolve._mesh.cache_clear()
        iv = Interval(-6.0, 6.0, "1", "x^2/2")
        with pytest.raises(OdeError, match="did not reach"):
            fundamental_solutions(iv, 1.0, rel_tol=1e-14, samples=samples)
        assert max(odesolve._mesh(iv, samples).levels) <= finest


def test_halving_goes_on_past_a_rising_truncation_error():
    # 17 sample cells of 12800 sin 48x on [0, 10] span 4.8 periods each: the
    # first halvings raise the level difference from ~2 to ~2e3 before it
    # falls, which is truncation on cells too coarse for V, not rounding
    odesolve._mesh.cache_clear()
    iv = Interval(0.0, 10.0, "1", "12800*sin(48*x)")
    alpha, beta, gamma = cell_dtn(iv, [-12000.0], rel_tol=1e-11, samples=17)
    assert np.all(np.isfinite(alpha)) and np.all(beta < 0.0)
    assert max(odesolve._mesh(iv, 17).levels) > 4


def test_cp_cells_converge_against_airy():
    # With the second-order corrections a cell's error is third order in
    # l**2 (V - Vbar), about l**9 for V = x, so halving the mesh of 4 sample
    # cells divides the endpoint error by about 2**8.
    iv = Interval(-1.0, 3.0, "1", "x")
    mesh = odesolve._Mesh(iv, 5)
    for lam in (-0.5, 1.2, 4.0):
        u, du = _airy_pair(iv.a, lam, [iv.b])
        exact = np.array([u[:, 0], du[:, 0]]).ravel()
        errors = []
        for level in range(4):
            cells = odesolve._cell_matrices(mesh.cells(level), lam)
            p, logs = odesolve._product(*odesolve._sample_cells(*cells, mesh.cells0))
            errors.append(np.max(np.abs(p * math.exp(logs) - exact)) / np.max(np.abs(exact)))
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse >= 100.0 * fine
        assert errors[-1] <= 2e-12


def test_coefficients_evaluated_once_per_level(monkeypatch):
    # Each level evaluates the coefficients once, at the Gauss points of its
    # cells, and later calls on the same interval evaluate nothing.
    calls = count_calls(monkeypatch, expr, "evaluate")
    iv = Interval(0.0, 2.0 * math.pi, "1", "x^2/2 + 0.1*sin(3*x)")
    odesolve._mesh.cache_clear()
    lams = np.linspace(-1.0, 6.0, 20)
    for lam in lams:
        fundamental_solutions(iv, lam, rel_tol=1e-11)
    points = [np.size(x) for e, x in calls if e is iv.potential]
    levels = sorted(odesolve._mesh(iv, 257).levels)
    assert len(levels) >= 2 and levels == list(range(len(levels)))
    assert len(points) == len(levels)                                     # one pass per level
    assert sum(points) == odesolve._GAUSS * 256 * (2 ** len(levels) - 1)  # every point once
    evaluated = sum(points)
    for lam in lams:
        fundamental_solutions(iv, lam, rel_tol=1e-11)
    assert sum(np.size(x) for e, x in calls if e is iv.potential) == evaluated


def _mp_transfer(a, b, sqrt_eta, pot, lam):
    # transfer matrix of y = (u, eta^-1/2 u') over [a, b] from mpmath's Taylor
    # integrator at 32 digits: y' = sqrt(eta) [[0, 1], [2 (V - lam), 0]] y
    with mpmath.workdps(32):
        lam = mpmath.mpf(lam)
        cols = []
        for y0 in ([1, 0], [0, 1]):
            f = mpmath.odefun(lambda x, y: [sqrt_eta(x) * y[1], 2 * sqrt_eta(x) * (pot(x) - lam) * y[0]],
                              mpmath.mpf(a), [mpmath.mpf(v) for v in y0])
            cols.append([float(v) for v in f(mpmath.mpf(b))])
    return np.array(cols).T.ravel()


_X2 = Interval(-6.0, 6.0, "1", "x^2/2")
# interval, lam (None: the mean potential of one cell), x in the sample cells
# checked, and sqrt(eta) and V for mpmath
_MPMATH_CASES = {
    "turning_points": (_X2, 4.5, [-3.0, 3.0], lambda x: 1, lambda x: x * x / 2),
    "metric": (Interval(0.0, 2.0, "(1+0.3*x)^2", "sin(3*x)"), 1.7, [0.1, 1.0, 1.9],
               lambda x: 1 + 0.3 * x, lambda x: mpmath.sin(3 * x)),
    "deep": (Interval(0.0, 4.0, "1", "1000 + x"), -1e3, [0.0, 3.99], lambda x: 1, lambda x: 1000 + x),
    "high_lam": (Interval(0.0, 2.0 * math.pi, "1", "x^2/2"), 5e3, [0.0, 3.0, 6.2],
                 lambda x: 1, lambda x: x * x / 2),
    "lam_at_vbar": (_X2, None, [2.0], lambda x: 1, lambda x: x * x / 2),
}


@pytest.mark.parametrize("case", sorted(_MPMATH_CASES))
def test_cells_against_mpmath(case):
    # Sample cells of the accepted level (rel_tol 1e-12) against an
    # independent high-precision integration, to 1e-12 of each cell's largest
    # entry: x^2/2 at its turning points -3 and 3 (lam = 4.5), a metric with a
    # potential, tunnelling 2000 below V, cells turning by up to 2.4 rad, and
    # a lam equal to the mean potential of one level-1 cell (z = 0 there).
    iv, lam, xs, root, pot = _MPMATH_CASES[case]
    mesh = odesolve._mesh(iv, 257)
    if lam is None:
        lam = float(mesh.cells(1)[1][341])              # in the sample cell of x = 2
    level, _, _, fine, logs = odesolve._converged_cells(mesh, np.array([[lam]]), 1e-12)
    assert level == 1
    for x in xs:
        i = int((x - iv.a) / mesh.width)
        a = iv.a + i * mesh.width
        want = _mp_transfer(a, a + mesh.width, root, pot, lam)
        got = fine[:, 0, i] * math.exp(logs[0, i])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _reference_flow(z, t):
    # [[xi, t eta_0], [z t eta_0, xi]] at z t^2: the reference cell of length
    # t in units of the cell, as (2, 2, len(t))
    w = np.sqrt(complex(z))
    c = np.cosh(w * t).real
    s = t if z == 0.0 else (np.sinh(w * t) / w).real
    return np.array([[c, s], [z * s, c]])


def test_corrections_against_quadrature():
    # The first- and second-order terms of a cell with l = 1,
    #   T1 = int_0^1 T0(1 - t) N(t) T0(t) dt,
    #   T2 = int_0^1 int_0^t1 T0(1 - t1) N(t1) T0(t1 - t2) N(t2) T0(t2) dt2 dt1,
    # N = [[0, 0], [2 (V - Vbar), 0]] with V - Vbar = sum_k q_k P_k(2t - 1),
    # by Gauss-Legendre quadrature, against their closed forms in eta_m(z):
    # both signs of z, z = 0, and both sides of the switch to the series.
    q = np.array([0.3, -0.2, 0.15, 0.1])
    first, second = odesolve._correction_tables()[:2]
    x, w = np.polynomial.legendre.leggauss(40)
    t, w = (x + 1.0) / 2.0, w / 2.0

    def n(u):
        dv = 2.0 * np.polynomial.legendre.legval(2.0 * u - 1.0, np.concatenate([[0.0], q]))
        return np.array([[0.0 * u, 0.0 * u], [dv, 0.0 * u]])

    switch = odesolve._SERIES_Z
    for z in (-30.0, -1.1 * switch, -0.9 * switch, -0.2, 0.0, 0.2, 0.9 * switch, 1.1 * switch, 30.0):
        etas, log = odesolve._etas(np.array([z]))
        etas = etas[:, 0] * math.exp(log[0])
        flow = lambda u: _reference_flow(z, u)
        t1 = np.einsum("ijn,jkn,kln,n->il", flow(1.0 - t), n(t), flow(t), w)
        t2 = np.zeros((2, 2))
        for t_out, w_out in zip(t, w):
            inner, wi = t_out * t, t_out * w
            right = np.einsum("ijn,jkn,kln,n->il", flow(t_out - inner), n(inner), flow(inner), wi)
            at = np.array([t_out])
            t2 += w_out * flow(1.0 - at)[..., 0] @ n(at)[..., 0] @ right
        size = np.max(np.abs(flow(np.array([1.0]))))
        got1 = np.einsum("emk,k,m->e", first, q, etas).reshape(2, 2)
        got2 = np.einsum("emkj,k,j,m->e", second, q, q, etas).reshape(2, 2)
        assert np.max(np.abs(got1 - t1)) <= 1e-14 * size
        assert np.max(np.abs(got2 - t2)) <= 1e-14 * size


def test_linear_potential_levels_against_airy():
    # The 150 lowest Dirichlet levels of V = 5x on [0, 2] reach lam ~ 2.8e4,
    # where a sample cell turns by 1.8 rad.  With c = 10**(1/3) and
    # z = c (x - lam/5) the equation is Airy's, and the levels are the roots
    # of Ai(z0) Bi(z1) - Ai(z1) Bi(z0), bracketed between the midpoints of
    # the solver's levels, so that a dropped level leaves a bracket without a
    # sign change.
    dom = QuantumDomain([Interval(0.0, 2.0, "1", "5*x")])
    got = np.array([e.lam for e in find_eigenvalues(make_dirichlet(1), dom, (-math.inf, math.inf),
                                                    SolveOptions(max_eigs=150)).eigs])
    c = 10.0 ** (1.0 / 3.0)

    def cross(lam):
        ai0, _, bi0, _ = airy(-c * lam / 5.0)
        ai1, _, bi1, _ = airy(c * (2.0 - lam / 5.0))
        return ai0 * bi1 - ai1 * bi0

    mids = np.concatenate([[1.5 * got[0] - 0.5 * got[1]], 0.5 * (got[1:] + got[:-1]),
                           [1.5 * got[-1] - 0.5 * got[-2]]])
    want = np.array([brentq(cross, lo, hi, xtol=1e-14 * hi, rtol=1e-15)
                     for lo, hi in zip(mids[:-1], mids[1:])])
    assert len(got) == 150
    assert np.max(np.abs(got - want) / want) <= 1e-10


def test_cell_dtn_builds_two_levels_per_lam(monkeypatch):
    # Work guard: at rel_tol 1e-11 on x^2/2 over [-6, 6] the 256 sample
    # cells agree with their 512 halves, so cell_dtn builds at most
    # 256 + 512 cells per lam, from a cold mesh and on later calls.
    calls = count_calls(monkeypatch, odesolve, "_cell_matrices")
    odesolve._mesh.cache_clear()
    iv = Interval(-6.0, 6.0, "1", "x^2/2")
    lams = np.linspace(0.1, 60.0, 40)
    for block in (lams, lams[:1], lams[10:14]):
        calls.clear()
        cell_dtn(iv, block, rel_tol=1e-11)
        assert sum(np.size(cells[0]) * np.size(lam) for cells, lam in calls) <= 768 * len(block)
