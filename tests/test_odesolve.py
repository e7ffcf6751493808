"""Fundamental-solution integrator tests."""

import math

import numpy as np
import pytest
from scipy.special import airy

from qwire import expr, odesolve
from qwire.domain import Interval
from qwire.odesolve import (
    OdeError,
    cell_dtn,
    free_exponential_basis,
    fundamental_solutions,
)


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
    # '1 + 0*x' is not recognized as constant, so it takes the halved Magnus
    # mesh; the endpoint data of [0, x] must match the single exact cell of a
    # constant interval.
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
    # tunnelling (k L = 822) with a storage scale.
    iv = Interval(0.0, 1.3, "2", "3")
    L = iv.length
    fps = [fundamental_solutions(iv, lam) for lam in (10.0, 3.0, -3.0, -300.0, -1e5)]
    k = math.sqrt(28.0)
    osc = fps[0]
    assert np.allclose([osc.psi_b, osc.dpsi_b],
                       [[math.cos(k * L), math.sin(k * L) / k],
                        [-k * math.sin(k * L), math.cos(k * L)]], rtol=1e-13, atol=1e-15)
    assert np.allclose([fps[1].psi_b, fps[1].dpsi_b], [[1.0, L], [0.0, 1.0]], rtol=1e-13)
    k = np.sqrt(4.0 * (3.0 + np.array([3.0, 300.0, 1e5])))
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


def test_cell_dtn_closed_form_matches_magnus():
    # '1 + 0*x' is not recognised as constant and takes the halved Magnus
    # mesh; forbidden, flat (lam = V) and oscillating cells.
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
    # lam far below V: growth rate k = sqrt(2 (V - lam)) with k L >> 700.
    iv = Interval(0.0, 10.0, "1", "5000")
    fp = fundamental_solutions(iv, -5000.0)
    assert fp.scale_exponent > 0.0
    data = np.array([fp.psi_a, fp.dpsi_a, fp.psi_b, fp.dpsi_b])
    assert np.all(np.isfinite(data))
    assert np.max(np.abs(data)) < 1e305
    k = math.sqrt(2.0 * 10000.0)
    assert _growth(fp, 0) == pytest.approx(k * 10.0 - math.log(2.0), rel=1e-12)
    assert _growth(fp, 1) == pytest.approx(k * 10.0 - math.log(2.0 * k), rel=1e-12)


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


def test_fourth_order_convergence():
    # Halving the Magnus mesh divides the endpoint error by about 2^4.
    iv = Interval(-1.0, 3.0, "1", "x")
    lam = 1.2
    u, du = _airy_pair(iv.a, lam, [iv.b])
    exact = np.array([u[:, 0], du[:, 0]]).ravel()
    mesh = odesolve._Mesh(iv, 17)
    errors = []
    for level in range(4):
        p, logs = odesolve._product(*odesolve._sample_cells(mesh, level, lam))
        errors.append(np.max(np.abs(p * math.exp(logs) - exact)))
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse >= 10.0 * fine


def test_coefficients_evaluated_once_per_level(monkeypatch):
    # Each halving evaluates the coefficients at the new midpoints only, and
    # later calls on the same interval evaluate nothing.
    points = []
    evaluate = expr.evaluate
    iv = Interval(0.0, 2.0 * math.pi, "1", "x^2/2 + 0.1*sin(3*x)")

    def counting(e, x):
        if e is iv.potential:
            points.append(np.size(x))
        return evaluate(e, x)

    monkeypatch.setattr(expr, "evaluate", counting)
    odesolve._mesh.cache_clear()
    lams = np.linspace(-1.0, 6.0, 20)
    for lam in lams:
        fundamental_solutions(iv, lam, rel_tol=1e-11)
    finest = odesolve._mesh(iv, 257).finest
    assert finest >= 2
    assert len(points) == finest + 1                       # one pass per level
    assert sum(points) == 2 * 256 * 2 ** finest + 1        # every node once
    evaluated = sum(points)
    for lam in lams:
        fundamental_solutions(iv, lam, rel_tol=1e-11)
    assert sum(points) == evaluated
