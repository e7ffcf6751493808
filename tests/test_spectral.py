"""Spectral function, eigenvalue search, eigenfunctions, evolution."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qwire import expr, spectral
from qwire.bc import (
    WireSpec,
    admissible_subspace,
    cayley_degeneracy,
    cayley_to_unitary,
    make_dirichlet,
    make_neumann,
    make_quasiperiodic,
    make_u2,
    make_wire,
    random_unitary,
)
from qwire.domain import Interval, QuantumDomain, lagrange_form
from qwire.odesolve import OdeError, free_exponential_basis, fundamental_solutions
from qwire.oracle import fd_spectrum
from qwire.spectral import (
    SolveOptions,
    boundary_wronskian,
    count_eigenvalues,
    deficiency_indices,
    eigenfunctions,
    evolve,
    find_eigenvalues,
    hadamard_mat,
    spectral_function,
    spectral_matrix,
)

FREE = QuantumDomain([Interval(0.0, 2.0 * math.pi, "1", "0")])

finite = st.floats(min_value=-5, max_value=5, allow_nan=False)


@given(st.lists(finite, min_size=9, max_size=9),
       st.lists(finite, min_size=3, max_size=3),
       st.lists(finite, min_size=3, max_size=3))
def test_hadamard_mat_defining_property(ts, xs, ys):
    # (T o X) Y = T (X o Y)
    T = np.array(ts).reshape(3, 3)
    x, y = np.array(xs), np.array(ys)
    lhs = hadamard_mat(T, x) @ y
    rhs = T @ (x * y)
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_hadamard_shape_validation():
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
    with pytest.warns(DeprecationWarning):
        opts = SolveOptions(grid=300, sigma_tol=1e-6)
    spectrum = find_eigenvalues(make_dirichlet(1), FREE, (0.05, 4.8), opts)
    lams = spectrum.lams
    want = np.array([k * k / 8.0 for k in range(1, 7)])
    assert np.max(np.abs(lams - want)) <= 1e-8
    assert all(e.multiplicity == 1 for e in spectrum.eigs)
    assert all(e.residual <= 1e-6 for e in spectrum.eigs)
    # no spurious roots: sigma_min stays large at midpoints between roots
    for a, b in zip(lams, lams[1:]):
        mid = 0.5 * (a + b)
        fp = fundamental_solutions(FREE.intervals[0], mid)
        sig = spectral_matrix(make_dirichlet(1), [fp]).sigma_min
        assert sig >= 1e3 * opts.sigma_tol


def test_levels_within_one_grid_step_of_the_window_ends():
    # Dirichlet on [0, pi] has the levels k^2/2; 0.5 and 4.5 lie 0.05 inside
    # the window's ends, in its first and last grid steps of 0.456.
    dom = QuantumDomain([Interval(0.0, math.pi)])
    lams = find_eigenvalues(make_dirichlet(1), dom, (0.45, 4.55), SolveOptions()).lams
    assert len(lams) == 3
    assert np.max(np.abs(lams - [0.5, 2.0, 4.5])) <= 1e-8


def test_periodic_multiplicities():
    spectrum = find_eigenvalues(make_quasiperiodic(0.0), FREE, (-0.2, 2.4),
                                SolveOptions())
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
        spectrum = find_eigenvalues(U, FREE, (0.05, 1.5), SolveOptions())
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
                                SolveOptions())
    assert len(spectrum.eigs) == 1 and spectrum.eigs[0].multiplicity == 2
    e = spectrum.eigs[0]
    from qwire.spectral import _inner, _quad_weights
    w = _quad_weights(FREE, e.xs)
    g01 = sum(_inner(w[k], e.samples[0][k], e.samples[1][k]) for k in range(1))
    g00 = sum(_inner(w[k], e.samples[0][k], e.samples[0][k]) for k in range(1))
    assert abs(g00 - 1.0) <= 1e-8
    assert abs(g01) <= 1e-6


def test_neumann_ground_state_at_zero():
    spectrum = find_eigenvalues(make_neumann(1), FREE, (-0.3, 0.3), SolveOptions())
    assert len(spectrum.eigs) == 2  # 0 and 1/8
    assert abs(spectrum.eigs[0].lam) <= 1e-8
    assert abs(spectrum.eigs[1].lam - 0.125) <= 1e-8
    # constant eigenfunction
    f = spectrum.eigs[0].samples[0][0]
    assert np.max(np.abs(f - f[0])) <= 1e-6 * np.max(np.abs(f))


def test_evolve_single_mode_phase():
    dom = QuantumDomain([Interval(0.0, math.pi, "1", "0")])
    spectrum = find_eigenvalues(make_dirichlet(1), dom, (0.1, 3.0), SolveOptions())
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
    spectrum = find_eigenvalues(make_dirichlet(1), free_2pi, (0.05, 0.3), SolveOptions())
    with pytest.raises(ValueError):
        evolve(make_dirichlet(1), free_2pi, spectrum, np.zeros((2, 7)), [0.0])


def test_deficiency_indices():
    dom = QuantumDomain([Interval(0.0, 1.0, "1", "0"),
                         Interval(0.0, 2.0, "1 + 0.1*x", "x")])
    assert deficiency_indices(dom) == (4, 4)


def test_find_eigenvalues_validation(free_2pi):
    with pytest.raises(ValueError):
        find_eigenvalues(make_dirichlet(1), free_2pi, (2.0, 1.0))
    with pytest.raises(ValueError):
        find_eigenvalues(make_dirichlet(1), free_2pi, (0.0, 1.0), SolveOptions(samples=2))
    for solve in (find_eigenvalues, count_eigenvalues):
        with pytest.raises(ValueError):
            solve(make_dirichlet(1), free_2pi, (0.0, 1.0), SolveOptions(samples=256))
    with pytest.raises(ValueError):
        find_eigenvalues(make_dirichlet(2), free_2pi, (0.0, 1.0))


def test_spectral_matrix_interval_count_mismatch(free_2pi):
    fp = fundamental_solutions(free_2pi.intervals[0], 1.0)
    with pytest.raises(ValueError):
        spectral_matrix(make_dirichlet(2), [fp])


def test_max_eigs_truncates(free_2pi):
    spectrum = find_eigenvalues(make_dirichlet(1), free_2pi, (0.05, 4.8),
                                SolveOptions(max_eigs=3))
    assert sum(e.multiplicity for e in spectrum.eigs) == 3


def test_open_lower_end_is_the_bottom_of_the_spectrum():
    # Robin A = 3 I on [0, pi]: two edge levels near -4.5 lie far below -1
    dom = QuantumDomain([Interval(0.0, math.pi, "1", "0")])
    U = cayley_to_unitary(3.0 * np.eye(2))
    got = find_eigenvalues(U, dom, (-math.inf, 10.0))
    want = find_eigenvalues(U, dom, (-10.0, 10.0))
    assert len(got.eigs) == len(want.eigs) == 5
    assert got.lams == pytest.approx(want.lams, rel=1e-10, abs=0.0)
    assert got.lambda_range == (-math.inf, 10.0)


def test_open_upper_end_needs_max_eigs(free_2pi):
    # the periodic circle: 0 once, then k**2 / 2 twice
    spectrum = find_eigenvalues(make_quasiperiodic(0.0), free_2pi, (-math.inf, math.inf),
                                SolveOptions(max_eigs=3))
    assert [e.multiplicity for e in spectrum.eigs] == [1, 2]
    assert spectrum.lams == pytest.approx([0.0, 0.5], abs=1e-10)
    with pytest.raises(ValueError, match="max_eigs"):
        find_eigenvalues(make_dirichlet(1), free_2pi, (0.0, math.inf))


def test_open_upper_end_steps_back_within_the_sample_cells():
    # 257 samples on [0, 1] reach levels up to about (256 pi)**2 / 2; a
    # doubled ceiling past that reach steps back instead of raising
    dom = QuantumDomain([Interval(0.0, 1.0, "1", "0")])
    spectrum = find_eigenvalues(make_dirichlet(1), dom, (-math.inf, math.inf),
                                SolveOptions(max_eigs=240))
    assert len(spectrum.eigs) == 240
    assert spectrum.eigs[-1].lam == pytest.approx((240 * math.pi) ** 2 / 2, rel=1e-10)
    with pytest.raises(OdeError, match="raise samples"):
        find_eigenvalues(make_dirichlet(1), dom, (0.0, math.inf), SolveOptions(max_eigs=300))


def _branch_domain(n):
    # constant eta = 2, V = 3 on intervals of lengths 1.0, 1.3, 0.7
    return QuantumDomain([Interval(0.0, L, "2", "3") for L in (1.0, 1.3, 0.7)[:n]])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_count_matches_single_counts(n):
    # lam above V, lam = V, growing, deep, and very deep on every interval:
    # the count of an array of lam equals the counts one lam at a time and
    # the FD oracle's, away from its levels.
    rng = np.random.default_rng(40 + n)
    dom = _branch_domain(n)
    U = random_unitary(2 * n, rng)
    lams = np.array([10.0, 3.0, -3.0, -300.0, -1e5, *rng.uniform(-2.0, 20.0, 5)])
    got = count_eigenvalues(U, dom, lams)
    assert [count_eigenvalues(U, dom, lam)[0] for lam in lams] == got.tolist()
    fd, est = fd_spectrum(U, dom, N=400, k=12)
    for lam, count in zip(lams, got):
        if lam < fd[-1] and np.all(np.abs(fd - lam) > 10.0 * est):
            assert count == np.count_nonzero(fd < lam), lam


def test_batched_count_variable_coefficients():
    dom = QuantumDomain([Interval(0.0, 1.0, "2", "3"),
                         Interval(0.0, 2.0 * math.pi, "1 + 0.1*x", "x^2/2")])
    U = random_unitary(4, np.random.default_rng(44))
    lams = np.array([-2.0, 0.3, 1.5, 4.2])
    got = count_eigenvalues(U, dom, lams)
    assert [count_eigenvalues(U, dom, lam)[0] for lam in lams] == got.tolist()
    fd, est = fd_spectrum(U, dom, N=400, k=12)
    assert np.all([np.min(np.abs(fd - lam)) > 10.0 * np.max(est) for lam in lams])
    assert got.tolist() == [np.count_nonzero(fd < lam) for lam in lams]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_assembly_matches_blockwise_formula(n):
    # M against the block-by-block construction written out with Hadamard
    # column scalings.
    rng = np.random.default_rng(60 + n)
    dom = QuantumDomain([Interval(0.0, L, "1 + 0.5*x", "x") for L in (1.0, 1.3, 0.7)[:n]])
    U = random_unitary(2 * n, rng)
    lams = np.array([-2.0, 0.7, 5.5])
    eye = np.eye(n)
    for lam in lams:
        fps = [fundamental_solutions(iv, float(lam), rel_tol=1e-11) for iv in dom.intervals]
        sm = spectral_matrix(U, fps)
        psi_l, psi_r, dpsi_l, dpsi_r = spectral._endpoint_traces(fps)
        M = np.empty((2 * n, 2 * n), dtype=complex)
        for sigma in (0, 1):
            lp, lm = psi_l[sigma] + 1j * dpsi_l[sigma], psi_l[sigma] - 1j * dpsi_l[sigma]
            rp, rm = psi_r[sigma] + 1j * dpsi_r[sigma], psi_r[sigma] - 1j * dpsi_r[sigma]
            cols = slice(sigma * n, (sigma + 1) * n)
            M[:n, cols] = hadamard_mat(eye, lm) - hadamard_mat(U.u11, lp) - hadamard_mat(U.u12, rp)
            M[n:, cols] = hadamard_mat(eye, rm) - hadamard_mat(U.u21, lp) - hadamard_mat(U.u22, rp)
        assert np.array_equal(sm.matrix, M)
        assert sm.sigma_min == pytest.approx(np.linalg.svd(M, compute_uv=False)[-1], rel=1e-12)


def test_evolve_matches_per_interval_loops():
    # evolve's matrix products against the inner products taken one pair
    # and one interval at a time, on two intervals with a metric.
    dom = QuantumDomain([Interval(0.0, 1.0, "(1+0.3*x)^2", "0"), Interval(0.0, 1.3, "2", "1")])
    U = random_unitary(4, np.random.default_rng(23))
    spectrum = find_eigenvalues(U, dom, (-1.0, 30.0), SolveOptions())
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


def test_count_is_batched(monkeypatch):
    # The periodic circle over (-0.5, 530): the count at every multisection
    # point of a round, over all brackets, is one call per interval.
    calls = []
    cell_dtn = spectral.cell_dtn

    def counting(iv, lams, *args):
        calls.append(len(lams))
        return cell_dtn(iv, lams, *args)

    monkeypatch.setattr(spectral, "cell_dtn", counting)
    spectrum = find_eigenvalues(make_quasiperiodic(0.0), FREE, (-0.5, 530.0))
    assert [e.multiplicity for e in spectrum.eigs] == [1] + [2] * 32
    assert len(calls) <= 40
    assert max(calls) >= 64


# Silent misses of the sigma_min scan that the count must not repeat.

HO = QuantumDomain([Interval(-6.0, 6.0, "1", "x^2/2")])


def test_oscillator_levels_in_a_deep_well():
    # forbidden at both ends of [-6, 6]: the scan found nothing on any grid
    spectrum = find_eigenvalues(make_dirichlet(1), HO, (0.1, 4.8))
    assert [e.multiplicity for e in spectrum.eigs] == [1] * 5
    assert np.max(np.abs(spectrum.lams - (np.arange(5) + 0.5))) <= 1e-7


def test_oscillator_ground_state():
    e = find_eigenvalues(make_dirichlet(1), HO, (0.1, 1.0)).eigs[0]
    want = math.pi ** -0.25 * np.exp(-0.5 * e.xs[0] ** 2)
    assert np.max(np.abs(e.samples[0][0] - want)) <= 1e-6
    assert e.residual <= 1e-12


def test_periodic_circle_to_530_with_its_zero_level():
    spectrum = find_eigenvalues(make_quasiperiodic(0.0), FREE, (-0.5, 530.0))
    assert [e.multiplicity for e in spectrum.eigs] == [1] + [2] * 32
    want = np.array([k * k / 2.0 for k in range(33)])
    assert np.max(np.abs(spectrum.lams - want)) <= 1e-8 * np.maximum(1.0, want).max()


def test_dirichlet_unit_interval_on_any_grid():
    # grid 5 made the scan drop pi^2/2; grid no longer does anything
    with pytest.warns(DeprecationWarning):
        opts = SolveOptions(grid=5)
    dom = QuantumDomain([Interval(0.0, 1.0)])
    lams = find_eigenvalues(make_dirichlet(1), dom, (-1.0, 40.0), opts).lams
    assert np.max(np.abs(lams - [math.pi ** 2 / 2.0, 2.0 * math.pi ** 2])) <= 1e-9


def test_empty_window_counts_only_its_ends(monkeypatch):
    # x^2/2 under Dirichlet on [0, 2 pi] has no level in (-0.6, 0.4); the
    # launch switch of the old basis put a spurious sigma_min minimum there
    calls = []
    cell_dtn = spectral.cell_dtn

    def counting(iv, lams, *args):
        calls.append(list(lams))
        return cell_dtn(iv, lams, *args)

    monkeypatch.setattr(spectral, "cell_dtn", counting)
    dom = QuantumDomain([Interval(0.0, 2.0 * math.pi, "1", "x^2/2")])
    assert find_eigenvalues(make_dirichlet(1), dom, (-0.6, 0.4)).eigs == ()
    assert calls == [[-0.6, 0.4]]


def test_deprecated_options_warn_once_each():
    with pytest.warns(DeprecationWarning) as record:
        opts = SolveOptions(grid=300, sigma_tol=1e-6)
    assert len(record) == 2
    plain = find_eigenvalues(make_dirichlet(1), FREE, (0.05, 1.2))
    assert np.array_equal(find_eigenvalues(make_dirichlet(1), FREE, (0.05, 1.2), opts).lams,
                          plain.lams)


def test_eigenfunctions_at_a_level():
    pairs = eigenfunctions(make_quasiperiodic(0.0), FREE, 2.0)
    assert len(pairs) == 1 and pairs[0].multiplicity == 2
    with pytest.raises(ValueError):
        eigenfunctions(make_quasiperiodic(0.0), FREE, 1.0)


LENGTHS = (1.0, 1.3, 0.7)


@settings(max_examples=12, deadline=None)
@given(n=st.integers(1, 3), variable=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       where=st.floats(0.0, 1.0))
def test_count_matches_fd_oracle(n, variable, seed, where):
    # Haar U(2n) on free intervals, the last one variable if drawn; lam is
    # kept 10 estimates (plus 1e-6 relative) away from every FD level.
    U = random_unitary(2 * n, np.random.default_rng(seed))
    ivs = [Interval(0.0, L) for L in LENGTHS[:n]]
    if variable:
        ivs[-1] = Interval(0.0, 1.5, "(1+0.3*x)^2", "x^2/2")
    dom = QuantumDomain(ivs)
    lams, est = fd_spectrum(U, dom, N=400, k=8)
    lam = lams[0] - 5.0 + where * (lams[-1] - lams[0] + 5.0)
    assume(np.all(np.abs(lams - lam) > 10.0 * est + 1e-6 * abs(lam)))
    assert count_eigenvalues(U, dom, lam)[0] == np.count_nonzero(lams < lam)


@settings(max_examples=12, deadline=None)
@given(lengths=st.lists(st.floats(0.5, 2.0), min_size=1, max_size=3),
       theta=st.floats(-3.0, 3.0), lam=st.floats(-2.0, 60.0))
def test_count_on_wire_rings_matches_closed_form(lengths, theta, lam):
    # Intervals glued end to start in a ring, with a twist theta at one
    # junction: U has eigenvalue -1, and the ring is the quasi-periodic
    # circle of the total length L, with levels (2 pi k + theta)^2 / (2 L^2).
    n = len(lengths)
    sigma = [0] * (2 * n)
    for j in range(n):
        sigma[n + j], sigma[(j + 1) % n] = (j + 1) % n, n + j
    beta = [0.0] * (2 * n)
    beta[2 * n - 1], beta[0] = theta, -theta
    U = make_wire(WireSpec(sigma=tuple(sigma), beta=tuple(beta)))
    assert cayley_degeneracy(U, -1) >= 1
    L = sum(lengths)
    levels = np.array([(2.0 * math.pi * k + theta) ** 2 / (2.0 * L * L) for k in range(-40, 41)])
    assume(np.all(np.abs(levels - lam) > 1e-6 * max(1.0, abs(lam))))
    dom = QuantumDomain([Interval(0.0, x) for x in lengths])
    assert count_eigenvalues(U, dom, lam)[0] == np.count_nonzero(levels < lam)
