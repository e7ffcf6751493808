"""Spectral function, eigenvalue search, eigenfunctions, evolution."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qwire import expr, spectral
from qwire.bc import (
    admissible_subspace,
    make_dirichlet,
    make_neumann,
    make_quasiperiodic,
    make_u2,
    random_unitary,
)
from qwire.domain import Interval, QuantumDomain, lagrange_form
from qwire.odesolve import free_exponential_basis, fundamental_solutions
from qwire.spectral import (
    SolveOptions,
    boundary_wronskian,
    deficiency_indices,
    eigenfunctions,
    evolve,
    find_eigenvalues,
    hadamard_mat,
    hadamard_vec,
    spectral_function,
    spectral_matrix,
)

FREE = QuantumDomain([Interval(0.0, 2.0 * math.pi, "1", "0")])

finite = st.floats(min_value=-5, max_value=5, allow_nan=False)


@given(st.lists(finite, min_size=3, max_size=3), st.lists(finite, min_size=3, max_size=3))
def test_hadamard_vec_componentwise(xs, ys):
    x, y = np.array(xs), np.array(ys)
    assert np.array_equal(hadamard_vec(x, y), x * y)


@given(st.lists(finite, min_size=9, max_size=9),
       st.lists(finite, min_size=3, max_size=3),
       st.lists(finite, min_size=3, max_size=3))
def test_hadamard_mat_defining_property(ts, xs, ys):
    # (T o X) Y = T (X o Y)
    T = np.array(ts).reshape(3, 3)
    x, y = np.array(xs), np.array(ys)
    lhs = hadamard_mat(T, x) @ y
    rhs = T @ hadamard_vec(x, y)
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_hadamard_shape_validation():
    with pytest.raises(ValueError):
        hadamard_vec(np.ones(2), np.ones(3))
    with pytest.raises(ValueError):
        hadamard_mat(np.ones((2, 3)), np.ones(2))


def _six_term_lambda(U, fp):
    """n = 1 expansion of det M in boundary Wronskians."""
    W = lambda x, y, s1, s2: boundary_wronskian(fp, x, y, s1, s2)
    u = U.matrix
    det_u = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    return (W("l", "r", "-", "-")
            + u[0, 0] * W("r", "l", "-", "+")
            + u[1, 1] * W("r", "l", "+", "-")
            + u[0, 1] * W("r", "r", "-", "+")
            + u[1, 0] * W("l", "l", "+", "-")
            + det_u * W("l", "r", "+", "+"))


def test_six_term_expansion_consistency():
    # det M(U, lam) equals its six-Wronskian expansion for 100 random U(2)
    # parameter triples on the free interval, relative 1e-9.
    rng = np.random.default_rng(123)
    lam_values = rng.uniform(0.05, 5.0, size=100)
    for lam in lam_values:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        phi, psi_ = rng.uniform(0.0, 2.0 * math.pi, size=2)
        r = math.sqrt(rng.uniform(0.0, 1.0))
        alpha = r * cmath.exp(1j * phi)
        beta = math.sqrt(1.0 - r * r) * cmath.exp(1j * psi_)
        U = make_u2(theta, alpha, beta)
        fp = free_exponential_basis(FREE.intervals[0], float(lam))
        direct = complex(np.linalg.det(spectral_matrix(U, [fp]).matrix))
        expansion = _six_term_lambda(U, fp)
        assert abs(direct - expansion) <= 1e-9 * max(1.0, abs(direct))


def test_boundary_wronskian_closed_forms():
    lam = 0.618
    k = math.sqrt(2.0 * lam)
    s, c = math.sin(2.0 * math.pi * k), math.cos(2.0 * math.pi * k)
    fp = free_exponential_basis(FREE.intervals[0], lam)
    refs = {
        ("l", "r", "-", "-"): -2j * (1 + 2 * lam) * s - 4 * k * c,
        ("l", "l", "+", "-"): 4 * k,
        ("r", "r", "-", "+"): 4 * k,
        ("r", "l", "-", "+"): 2j * (1 - 2 * lam) * s,
        ("r", "l", "+", "-"): 2j * (1 - 2 * lam) * s,
        ("l", "r", "+", "+"): -2j * (1 + 2 * lam) * s + 4 * k * c,
    }
    for key, want in refs.items():
        got = boundary_wronskian(fp, *key)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), key
    with pytest.raises(ValueError):
        boundary_wronskian(fp, "l", "m", "+", "-")


def test_basis_change_leaves_zero_set_invariant():
    # Recombining the canonical pair by an invertible C multiplies det M by
    # det C at every lam; the ratio must be constant.
    rng = np.random.default_rng(9)
    U = make_u2(0.4, 0.8, 0.6j)
    lams = [0.3, 0.9, 1.7, 2.6]
    for _ in range(3):
        C = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        while abs(np.linalg.det(C)) < 0.1:
            C = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        ratios = []
        for lam in lams:
            fp = fundamental_solutions(FREE.intervals[0], lam)
            fp_c = dataclasses.replace(
                fp,
                values=C.T @ fp.values.astype(complex),
                psi_a=C.T @ fp.psi_a.astype(complex),
                dpsi_a=C.T @ fp.dpsi_a.astype(complex),
                psi_b=C.T @ fp.psi_b.astype(complex),
                dpsi_b=C.T @ fp.dpsi_b.astype(complex),
            )
            d0 = complex(np.linalg.det(spectral_matrix(U, [fp]).matrix))
            d1 = complex(np.linalg.det(spectral_matrix(U, [fp_c]).matrix))
            ratios.append(d1 / d0)
        det_c = complex(np.linalg.det(C))
        for r in ratios:
            assert abs(r - det_c) <= 1e-8 * abs(det_c)


def test_dirichlet_spectrum_and_spurious_root_guard():
    opts = SolveOptions(grid=300, sigma_tol=1e-6)
    spectrum = find_eigenvalues(make_dirichlet(1), FREE, (0.05, 4.8), opts)
    lams = spectrum.lams
    want = np.array([k * k / 8.0 for k in range(1, 7)])
    assert np.max(np.abs(lams - want)) <= 1e-8
    assert all(e.multiplicity == 1 for e in spectrum.eigs)
    assert all(e.residual <= opts.sigma_tol for e in spectrum.eigs)
    # no spurious roots: sigma_min stays large at midpoints between roots
    for a, b in zip(lams, lams[1:]):
        mid = 0.5 * (a + b)
        fp = fundamental_solutions(FREE.intervals[0], mid)
        sig = spectral_matrix(make_dirichlet(1), [fp]).sigma_min
        assert sig >= 1e3 * opts.sigma_tol


def test_periodic_multiplicities():
    spectrum = find_eigenvalues(make_quasiperiodic(0.0), FREE, (-0.2, 2.4),
                                SolveOptions(grid=400))
    mults = [(e.lam, e.multiplicity) for e in spectrum.eigs]
    assert len(mults) == 3
    assert mults[0][1] == 1 and abs(mults[0][0]) <= 1e-8
    assert mults[1][1] == 2 and abs(mults[1][0] - 0.5) <= 1e-8
    assert mults[2][1] == 2 and abs(mults[2][0] - 2.0) <= 1e-8


def test_spectral_function_sign_changes_at_dirichlet_roots():
    # det M is analytic in lam; it vanishes at 0.125 and is nonzero nearby.
    near = abs(spectral_function(make_dirichlet(1), FREE, 0.125))
    off = abs(spectral_function(make_dirichlet(1), FREE, 0.2))
    assert near <= 1e-8 * off


def test_eigenfunction_traces_are_admissible():
    rng = np.random.default_rng(31)
    for _ in range(3):
        U = random_unitary(2, rng)
        spectrum = find_eigenvalues(U, FREE, (0.05, 1.5), SolveOptions(grid=200))
        assert spectrum.eigs, "expected at least one eigenvalue"
        basis = admissible_subspace(U)
        proj = basis @ basis.conj().T
        for e in spectrum.eigs:
            for j in range(e.multiplicity):
                v = np.concatenate([e.psi[j], e.dpsi[j]])
                resid = np.linalg.norm(v - proj @ v) / np.linalg.norm(v)
                assert resid <= 1e-8
                # isotropy of the boundary data
                s = lagrange_form((e.psi[j], e.dpsi[j]), (e.psi[j], e.dpsi[j]))
                assert abs(s) <= 1e-8


def test_eigenfunctions_are_orthonormal():
    spectrum = find_eigenvalues(make_quasiperiodic(0.0), FREE, (0.3, 0.7),
                                SolveOptions(grid=200))
    assert len(spectrum.eigs) == 1 and spectrum.eigs[0].multiplicity == 2
    e = spectrum.eigs[0]
    from qwire.spectral import _inner, _quad_weights
    w = _quad_weights(FREE, e.xs)
    g01 = sum(_inner(w[k], e.samples[0][k], e.samples[1][k]) for k in range(1))
    g00 = sum(_inner(w[k], e.samples[0][k], e.samples[0][k]) for k in range(1))
    assert abs(g00 - 1.0) <= 1e-8
    assert abs(g01) <= 1e-6


def test_neumann_ground_state_at_zero():
    spectrum = find_eigenvalues(make_neumann(1), FREE, (-0.3, 0.3), SolveOptions(grid=200))
    assert len(spectrum.eigs) == 2  # 0 and 1/8
    assert abs(spectrum.eigs[0].lam) <= 1e-8
    assert abs(spectrum.eigs[1].lam - 0.125) <= 1e-8
    # constant eigenfunction
    f = spectrum.eigs[0].samples[0][0]
    assert np.max(np.abs(f - f[0])) <= 1e-6 * np.max(np.abs(f))


def test_evolve_single_mode_phase():
    dom = QuantumDomain([Interval(0.0, math.pi, "1", "0")])
    spectrum = find_eigenvalues(make_dirichlet(1), dom, (0.1, 3.0), SolveOptions(grid=200))
    e = spectrum.eigs[0]
    initial = e.samples[0].astype(complex)
    times = [0.0, 0.7, 1.9]
    report = evolve(make_dirichlet(1), dom, spectrum, initial, times)
    assert report["truncation_residual"] <= 1e-8
    assert report["norm_drift"] <= 1e-12
    for i, t in enumerate(times):
        want = initial * cmath.exp(-1j * e.lam * t)
        assert np.max(np.abs(report["samples"][i] - want)) <= 1e-7


def test_evolve_input_validation(free_2pi):
    spectrum = find_eigenvalues(make_dirichlet(1), free_2pi, (0.05, 0.3), SolveOptions(grid=100))
    with pytest.raises(ValueError):
        evolve(make_dirichlet(1), free_2pi, spectrum, np.zeros((2, 7)), [0.0])


def test_deficiency_indices():
    dom = QuantumDomain([Interval(0.0, 1.0, "1", "0"),
                         Interval(0.0, 2.0, "1 + 0.1*x", "x")])
    assert deficiency_indices(dom) == (4, 4)
    assert deficiency_indices(dom, verify=True) == (4, 4)


def test_find_eigenvalues_validation(free_2pi):
    with pytest.raises(ValueError):
        find_eigenvalues(make_dirichlet(1), free_2pi, (2.0, 1.0))
    with pytest.raises(ValueError):
        find_eigenvalues(make_dirichlet(1), free_2pi, (0.0, 1.0), SolveOptions(grid=2))
    with pytest.raises(ValueError):
        find_eigenvalues(make_dirichlet(2), free_2pi, (0.0, 1.0))


def test_spectral_matrix_interval_count_mismatch(free_2pi):
    fp = fundamental_solutions(free_2pi.intervals[0], 1.0)
    with pytest.raises(ValueError):
        spectral_matrix(make_dirichlet(2), [fp])


def test_max_eigs_truncates(free_2pi):
    spectrum = find_eigenvalues(make_dirichlet(1), free_2pi, (0.05, 4.8),
                                SolveOptions(grid=300, max_eigs=3))
    assert sum(e.multiplicity for e in spectrum.eigs) == 3


def _branch_domain(n):
    # constant eta = 2, V = 3 on intervals of lengths 1.0, 1.3, 0.7
    return QuantumDomain([Interval(0.0, L, "2", "3") for L in (1.0, 1.3, 0.7)[:n]])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_sigma_min_matches_spectral_matrix(n):
    # lam above V, lam = V, growing with k L <= 25, two-sided with
    # 25 < k L <= 300, and with the k L - 300 rescale, on every interval.
    rng = np.random.default_rng(40 + n)
    dom = _branch_domain(n)
    U = random_unitary(2 * n, rng)
    opts = SolveOptions()
    lams = np.array([10.0, 3.0, -3.0, -300.0, -1e5, *rng.uniform(-2.0, 20.0, 5)])
    got = spectral._sigma_min(U, dom, lams, opts)
    for lam, sig in zip(lams, got):
        want = spectral_matrix(U, spectral._solve_pairs(dom, float(lam), opts)).sigma_min
        assert want > 0.0
        assert abs(sig - want) <= 1e-12 * want, lam


def test_batched_sigma_min_variable_coefficients():
    dom = QuantumDomain([Interval(0.0, 1.0, "2", "3"),
                         Interval(0.0, 2.0 * math.pi, "1 + 0.1*x", "x^2/2")])
    U = random_unitary(4, np.random.default_rng(44))
    opts = SolveOptions(rel_tol=1e-11)
    lams = np.array([-2.0, 0.3, 1.5, 4.2])
    got = spectral._sigma_min(U, dom, lams, opts)
    for lam, sig in zip(lams, got):
        want = spectral_matrix(U, spectral._solve_pairs(dom, float(lam), opts)).sigma_min
        assert abs(sig - want) <= 1e-12 * want, lam


@pytest.mark.parametrize("n", [1, 2, 3])
def test_assembly_matches_blockwise_formula(n):
    # M and its row scales against the block-by-block construction written
    # out with Hadamard column scalings, at one lam and as a stack.
    rng = np.random.default_rng(60 + n)
    dom = QuantumDomain([Interval(0.0, L, "1 + 0.5*x", "x") for L in (1.0, 1.3, 0.7)[:n]])
    U = random_unitary(2 * n, rng)
    lams = np.array([-2.0, 0.7, 5.5])
    opts = SolveOptions()
    eye = np.eye(n)
    for lam in lams:
        fps = spectral._solve_pairs(dom, float(lam), opts)
        sm = spectral_matrix(U, fps)
        psi_l, psi_r, dpsi_l, dpsi_r = spectral._endpoint_traces(fps)
        M = np.empty((2 * n, 2 * n), dtype=complex)
        row_scale = np.zeros(2 * n)
        for sigma in (0, 1):
            lp, lm = psi_l[sigma] + 1j * dpsi_l[sigma], psi_l[sigma] - 1j * dpsi_l[sigma]
            rp, rm = psi_r[sigma] + 1j * dpsi_r[sigma], psi_r[sigma] - 1j * dpsi_r[sigma]
            cols = slice(sigma * n, (sigma + 1) * n)
            M[:n, cols] = hadamard_mat(eye, lm) - hadamard_mat(U.u11, lp) - hadamard_mat(U.u12, rp)
            M[n:, cols] = hadamard_mat(eye, rm) - hadamard_mat(U.u21, lp) - hadamard_mat(U.u22, rp)
            row_scale[:n] = np.maximum(row_scale[:n], np.abs(lm) + np.abs(U.u11) @ np.abs(lp)
                                       + np.abs(U.u12) @ np.abs(rp))
            row_scale[n:] = np.maximum(row_scale[n:], np.abs(rm) + np.abs(U.u21) @ np.abs(lp)
                                       + np.abs(U.u22) @ np.abs(rp))
        assert np.array_equal(sm.matrix, M)
        np.testing.assert_allclose(sm.row_scale, row_scale, rtol=1e-15, atol=0.0)
        svals = np.linalg.svd(M / row_scale[:, np.newaxis], compute_uv=False)
        assert sm.sigma_min == pytest.approx(svals[-1], rel=1e-12)
    # the stack of all three lam gives the same matrices
    ends = [spectral.endpoint_traces(iv, lams, opts.rel_tol) for iv in dom.intervals]
    M, Me, row_scale = spectral._assemble(U, *spectral._traces(dom.intervals, ends))
    for g, lam in enumerate(lams):
        sm = spectral_matrix(U, spectral._solve_pairs(dom, float(lam), opts))
        np.testing.assert_allclose(M[g], sm.matrix, rtol=1e-12, atol=1e-12 * np.abs(sm.matrix).max())
        np.testing.assert_allclose(row_scale[g], sm.row_scale, rtol=1e-12)


def _golden_scalar(f, a, b, xtol):
    """Golden-section minimisation of a scalar function, one point at a time."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def test_lockstep_golden_visits_the_scalar_points():
    # Each bracket must see exactly the points of a scalar search on it alone.
    # brackets of different widths and tolerances finish after different
    # numbers of steps; the last one is flat, so every comparison ties.
    a = np.array([-3.0, 0.0, 1.0, 10.0, 20.0])
    b = np.array([-0.5, 1.0, 1.5, 10.1, 21.0])
    xtol = np.array([1e-3, 1e-10, 1e-6, 1e-9, 1e-4])
    centres = np.array([-2.2, 0.3, 1.49, 10.05, 20.5])

    def g(x):       # one landscape per (disjoint) bracket
        bump = np.abs(np.sin(3.0 * (x - centres[np.searchsorted(a, x, "right") - 1])))
        return np.where(x < 20.0, bump + 0.1 * x, 1.0)

    seen: list[np.ndarray] = []

    def batched(x):
        seen.append(np.array(x))
        return g(np.asarray(x))

    lam, val = spectral._golden_lockstep(batched, a, b, xtol)
    visited = np.concatenate(seen)
    for i in range(len(a)):
        points = []

        def scalar(x):
            points.append(x)
            return float(g(np.array([x]))[0])
        want = _golden_scalar(scalar, a[i], b[i], xtol[i])
        mine = visited[(visited >= a[i]) & (visited <= b[i])]
        assert sorted(points) == sorted(mine.tolist())
        assert (lam[i], val[i]) == want


def test_scan_is_batched(monkeypatch):
    calls = []
    traces = spectral.endpoint_traces

    def counting(*args, **kwargs):
        calls.append(len(args[1]))
        return traces(*args, **kwargs)

    monkeypatch.setattr(spectral, "endpoint_traces", counting)
    spectrum = find_eigenvalues(make_quasiperiodic(0.0), FREE, (-0.5, 530.0),
                                SolveOptions(grid=12000))
    assert [e.multiplicity for e in spectrum.eigs] == [1] + [2] * 32
    assert len(calls) <= 100
    assert max(calls) <= spectral._BLOCK and sum(calls) >= 12000


def test_lockstep_roots_match_scalar_golden_section():
    rng = np.random.default_rng(17)
    U = random_unitary(2, rng)
    opts = SolveOptions(grid=150)
    spectrum = find_eigenvalues(U, FREE, (0.05, 6.0), opts)
    assert len(spectrum.eigs) >= 5

    def sigma(lam):
        return float(spectral._sigma_min(U, FREE, np.array([lam]), opts)[0])

    grid = np.linspace(0.05, 6.0, opts.grid)
    vals = [sigma(l) for l in grid]
    refined = []
    for i in range(1, len(grid) - 1):
        if vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]:
            a, b = grid[i - 1], grid[i + 1]
            width = 1e-10 * max(1.0, max(abs(a), abs(b)))
            refined.append(_golden_scalar(sigma, a, b, width)[0])
    for e in spectrum.eigs:
        assert min(abs(r - e.lam) for r in refined) <= 1e-12 * max(1.0, abs(e.lam))


def test_evolve_matches_per_interval_loops():
    # evolve's matrix products against the inner products taken one pair
    # and one interval at a time, on two intervals with a metric.
    dom = QuantumDomain([Interval(0.0, 1.0, "(1+0.3*x)^2", "0"), Interval(0.0, 1.3, "2", "1")])
    U = random_unitary(4, np.random.default_rng(23))
    spectrum = find_eigenvalues(U, dom, (-1.0, 30.0), SolveOptions(grid=200))
    xs = spectrum.eigs[0].xs
    initial = np.exp(-4.0 * (xs - 0.5) ** 2) * (1.0 + 0.3j * xs)
    times = np.linspace(0.0, 5.0, 7)
    report = evolve(U, dom, spectrum, initial, times)

    w = np.empty(xs.shape)
    for k, iv in enumerate(dom.intervals):
        simpson = np.ones(xs.shape[1])
        simpson[1:-1:2], simpson[2:-1:2] = 4.0, 2.0
        h = (iv.b - iv.a) / (xs.shape[1] - 1)
        w[k] = simpson * h / 3.0 * np.sqrt([expr.evaluate(iv.metric, x) for x in xs[k]])
    assert np.array_equal(spectral._quad_weights(dom, xs), w)

    def inner(f, g):
        return sum(complex(np.sum(w[k] * np.conj(f[k]) * g[k])) for k in range(dom.n))

    basis = np.concatenate([e.samples for e in spectrum.eigs])
    K = len(basis)
    gram = np.array([[inner(basis[a], basis[b]) for b in range(K)] for a in range(K)])
    evals, evecs = np.linalg.eigh(gram)
    basis = np.tensordot((evecs * evals ** -0.5) @ evecs.conj().T, basis, axes=(0, 0))
    coeffs = np.array([inner(f, initial) for f in basis])
    projected = np.tensordot(coeffs, basis, axes=(0, 0))
    resid = initial - projected
    norm0 = math.sqrt(inner(projected, projected).real)
    drift = 0.0
    for i, t in enumerate(times):
        ft = np.tensordot(coeffs * np.exp(-1j * report["lams"] * t), basis, axes=(0, 0))
        assert np.max(np.abs(report["samples"][i] - ft)) <= 1e-12
        drift = max(drift, abs(math.sqrt(inner(ft, ft).real) - norm0))
    assert np.max(np.abs(report["coefficients"] - coeffs)) <= 1e-12
    assert report["truncation_residual"] == pytest.approx(
        math.sqrt(inner(resid, resid).real), abs=1e-12)
    assert report["projected_norm"] == pytest.approx(norm0, abs=1e-12)
    assert report["norm_drift"] == pytest.approx(drift, abs=1e-12)
