"""Spectral function, eigenvalue search, eigenfunctions, evolution."""

import cmath
import dataclasses
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import assume, example, given, settings, strategies as st

from conftest import count_calls
from qwire import expr, spectral
from qwire.bc import (
    UnitaryBC,
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
from qwire.edge import rotate_bc
from qwire.odesolve import (OdeError, _reference_cells, free_exponential_basis,
                            fundamental_solutions)
from qwire.oracle import fd_spectrum
from qwire.spectral import (
    SolveOptions,
    boundary_wronskian,
    count_eigenvalues,
    deficiency_indices,
    eigenfunctions,
    evolve,
    find_eigenvalues,
    spectral_function,
    spectral_matrix,
)

FREE = QuantumDomain([Interval(0.0, 2.0 * math.pi, "1", "0")])


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


def _vanishes_only_at(U, dom, lams):
    # the spectral function is nonzero between the levels and vanishes at
    # each of them, relative to the midpoints beside it
    mids = [abs(spectral_function(U, dom, 0.5 * (a + b))) for a, b in zip(lams, lams[1:])]
    assert min(mids) > 0.0
    for k, lam in enumerate(lams):
        beside = mids[max(k - 1, 0):k + 1]
        assert abs(spectral_function(U, dom, lam)) <= 1e-8 * min(beside), (k, lam)


def test_dirichlet_spectrum_and_spurious_root_guard():
    with pytest.warns(DeprecationWarning):
        opts = SolveOptions(grid=300, sigma_tol=1e-6)
    spectrum = find_eigenvalues(make_dirichlet(1), FREE, (0.05, 4.8), opts)
    lams = spectrum.lams
    want = np.array([k * k / 8.0 for k in range(1, 7)])
    assert np.max(np.abs(lams - want)) <= 1e-8
    assert all(e.multiplicity == 1 for e in spectrum.eigs)
    assert all(e.residual <= 1e-6 for e in spectrum.eigs)
    _vanishes_only_at(make_dirichlet(1), FREE, lams)
    dom = QuantumDomain([Interval(0.0, 1.0), Interval(0.0, 1.3, "1", "x^2/2")])
    U = random_unitary(4, np.random.default_rng(8))
    spectrum = find_eigenvalues(U, dom, (-math.inf, 40.0))
    assert len(spectrum.lams) >= 4 and all(e.multiplicity == 1 for e in spectrum.eigs)
    _vanishes_only_at(U, dom, spectrum.lams)


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
    with pytest.raises(TypeError):
        SolveOptions(samples=257)
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


@pytest.mark.parametrize("window", [(0.1, 20.0), (0.1, math.inf), (-math.inf, math.inf)])
def test_max_eigs_cuts_between_close_levels(window):
    # Dirichlet on [0, pi] and [0, 1.01 pi]: 1/(2 * 1.01^2) and 1/2 are 2%
    # apart, so a bracket holding both is tight long before it holds one;
    # it must still split, or both come back where one was asked for
    dom = QuantumDomain([Interval(0.0, math.pi), Interval(0.0, 1.01 * math.pi)])
    for n in (1, 2, 3):
        spectrum = find_eigenvalues(make_dirichlet(2), dom, window, SolveOptions(max_eigs=n))
        want = sorted(k * k / d for k in (1, 2) for d in (2.0, 2.0 * 1.01 ** 2))[:n]
        assert [e.multiplicity for e in spectrum.eigs] == [1] * n
        assert spectrum.lams == pytest.approx(want, rel=1e-11, abs=0.0)


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


def test_open_upper_end_past_the_reach_of_257_samples():
    # 257 samples on [0, 1] reach levels up to about (256 pi)**2 / 2 =
    # 323,407; the doubled ceiling's probe at 524,286 lies past that, and
    # both windows are searched with 513 samples.  The grid follows the
    # highest level: the 240th, 284,245, keeps 257 points, and the 300th,
    # 444,132, takes 513
    dom = QuantumDomain([Interval(0.0, 1.0, "1", "0")])
    spectrum = find_eigenvalues(make_dirichlet(1), dom, (-math.inf, math.inf),
                                SolveOptions(max_eigs=240))
    assert len(spectrum.eigs) == 240
    assert spectrum.eigs[-1].lam == pytest.approx((240 * math.pi) ** 2 / 2, rel=1e-10)
    assert spectrum.eigs[0].xs.shape == (1, 257)
    spectrum = find_eigenvalues(make_dirichlet(1), dom, (0.0, math.inf), SolveOptions(max_eigs=300))
    assert len(spectrum.eigs) == 300
    assert spectrum.eigs[-1].lam == pytest.approx((300 * math.pi) ** 2 / 2, rel=1e-10)
    assert spectrum.eigs[0].xs.shape == (1, 513)


def test_samples_follow_the_window():
    # 257 samples on [0, 2 pi] reach about (256 pi / (2 pi))**2 / 2 = 8192:
    # a window below keeps them, one above doubles them once
    for hi, samples in ((8000.0, 257), (8300.0, 513)):
        spectrum = find_eigenvalues(make_dirichlet(1), FREE, (0.01, hi))
        assert spectrum.eigs[0].xs.shape == (1, samples)
    # 4097 samples on [0, 1] turn by pi at (4096 pi)**2 / 2 = 8.28e7: a
    # count at 8.2e7 takes them, and past that the cap raises, naming it
    unit = QuantumDomain([Interval(0.0, 1.0, "1", "0")])
    want = math.floor(math.sqrt(2.0 * 8.2e7) / math.pi)
    assert count_eigenvalues(make_dirichlet(1), unit, 8.2e7).tolist() == [want]
    for lam in (8.3e7, 1e10):
        with pytest.raises(OdeError, match="cap of 4097 samples"):
            count_eigenvalues(make_dirichlet(1), unit, lam)


def test_a_top_just_below_the_reach_of_257_samples_builds_one_glued_matrix(monkeypatch):
    # 257 samples of x^2/2 on [0, 2 pi] turn by pi at 8192.0001, and a CP
    # cell holds a Dirichlet level of its own up to ~2e-9 relative below
    # that.  A top 1e-12 to 1e-3 below it is searched on the samples its
    # cells allow from the start, 513 where 257 hold a level a nudge above
    # it: one glued matrix per solve, for the window and the count
    dom = QuantumDomain([Interval(0.0, 2.0 * math.pi, "1", "x^2/2")])
    built = count_calls(monkeypatch, spectral, "_Glued")
    for top in 8192.0001 * (1.0 - 10.0 ** -np.arange(3.0, 12.5, 0.5)):
        built.clear()
        find_eigenvalues(make_dirichlet(1), dom, (top - 1.0, top))
        count_eigenvalues(make_dirichlet(1), dom, top)
        samples = [call[3] for call in built]
        assert samples in ([257, 257], [513, 513]), top
        assert samples == [513, 513] or top < 8192.0001 * (1.0 - 1e-8), top


INTERVALS = (Interval(0.0, 2.0 * math.pi), Interval(0.0, 1.3),
             Interval(0.0, 2.0 * math.pi, "1", "x^2/2"),
             Interval(0.0, 1.5, "(1+0.3*x)^2", "x^2/2"),
             Interval(0.0, 10.0, "1", "50*sin(3*x)"),
             Interval(0.0, 10.0, "1", "12800*sin(48*x)"))


def _turn_reach(iv, samples):
    """The lam at which a sample cell of ``samples`` per interval turns by pi,
    its turn summed over the 4096 reference cells."""
    ell, vbar = _reference_cells(iv, 4096)

    def turn(lam):
        t = ell * np.sqrt(np.maximum(2.0 * (lam - vbar), 0.0))
        return t.reshape(samples - 1, -1).sum(axis=1).max() - math.pi

    lo, hi = float(vbar.min()), abs(float(vbar.min())) + 1.0
    while turn(hi) < 0.0:
        hi *= 2.0
    return scipy.optimize.brentq(turn, lo, hi, xtol=1e-14, rtol=1e-15)


@settings(max_examples=30, deadline=None)
@example(iv=INTERVALS[-1], samples=257, below=-1.0, seed=0)
@example(iv=INTERVALS[-1], samples=17, below=-1.0, seed=0)
@given(iv=st.sampled_from(INTERVALS), samples=st.sampled_from([17, 33, 65, 129, 257, 513,
                                                               1025, 2049]),
       below=st.floats(-12.0, -0.7), seed=st.integers(0, 2 ** 32 - 1))
def test_tops_just_below_each_counts_reach_raise_nothing(iv, samples, below, seed):
    # No cell that a solve reaches holds a Dirichlet level of its own, so a
    # top 1e-12 to 0.2 relative below the lam where a count's cells turn by
    # pi raises nothing, whichever count the search takes there.  The
    # reference turns place a CP cell's own level only roughly: 12800
    # sin 48x on [0, 10] is 50 sin 3x with lam scaled by 256, and its
    # 257-sample cells, those of 50 sin 3x at 17, hold a level of their own
    # up to 17% of |reach| below the reach, -7531
    dom = QuantumDomain([iv])
    reach = _turn_reach(iv, samples)
    top = reach - 10.0 ** below * abs(reach)
    U = random_unitary(2, np.random.default_rng(seed))
    count_eigenvalues(U, dom, top)
    find_eigenvalues(U, dom, (top - 2e-3 * abs(top), top))


@settings(max_examples=16, deadline=None)
@example(L=math.pi, k=1, variable=False, far=9.0, edge=False, seed=0)
@given(L=st.floats(0.5, 3.0), k=st.integers(1, 6), variable=st.booleans(),
       far=st.floats(3.0, 12.0), edge=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_every_level_lies_in_its_window(L, k, variable, far, edge, seed):
    # hi on the Dirichlet level k^2 pi^2 / (2 L^2) of a free interval, where
    # the count is not sure and the end moves out by 1e-7 max(1, |hi|); lo
    # far below: -10^far, or -inf above an edge state near -2 / t^2 of the
    # rotated Dirichlet condition e^{it}, t = 10^(-far / 2).  A level comes
    # back only inside [lo, hi], up to each end's own nudge of two moves,
    # 1 + 2 steps.  A far lo once moved hi too: (-1e9, 0.5) on [0, pi]
    # returned 0.5 and the 13 above it
    ivs = [Interval(0.0, L)] + ([Interval(0.0, 1.5, "(1+0.3*x)^2", "x^2/2")] if variable else [])
    dom, n = QuantumDomain(ivs), len(ivs)
    hi = (k * math.pi / L) ** 2 / 2.0
    if edge:
        lo, U = -math.inf, rotate_bc(make_dirichlet(n), 10.0 ** (-far / 2.0))
    else:
        lo = -10.0 ** far
        U = random_unitary(2 * n, np.random.default_rng(seed)) if seed % 2 else make_dirichlet(n)
    lams = find_eigenvalues(U, dom, (lo, hi)).lams
    nudge = 3.0 * spectral._ISOLATE * np.maximum(1.0, np.abs([lo, hi]))
    assert np.all(lams <= hi + nudge[1])
    if lo > -math.inf:
        assert np.all(lams >= lo - nudge[0])


def test_a_variable_window_down_to_minus_1e12():
    # a variable interval with lo = -1e12: the cells' log factors, ~1e5
    # there, are rounded to ~1e-11 relative, the size of the per-cell
    # tolerance, and mesh halving raised OdeError before it allowed for that
    dom = QuantumDomain([Interval(0.0, math.pi), Interval(0.0, 1.5, "(1+0.3*x)^2", "x^2/2")])
    lams = find_eigenvalues(make_dirichlet(2), dom, (-1e12, 0.5)).lams
    assert lams == pytest.approx([0.5], rel=1e-12)                 # Dirichlet on [0, pi]
    x2 = QuantumDomain([Interval(0.0, 2.0 * math.pi, "1", "x^2/2")])
    assert count_eigenvalues(make_dirichlet(1), x2, [-1e11, -1e12, -1e13]).tolist() == [0, 0, 0]


def test_counts_interlace_with_the_dirichlet_counts():
    # The form domain of H_U holds H^1_0 with codimension rank Q, and the
    # forms agree on it, so min-max gives N_D <= N_U <= N_D + rank Q at every
    # lam.  Haar U(6) on three free intervals, lam up to 2e6, kept 1e-6
    # relative away from the Dirichlet levels k^2 pi^2 / (2 L^2), where the
    # count is good to sqrt(eps) only
    lengths = np.array([1.0, 1.3, 0.7])
    dom = QuantumDomain([Interval(0.0, L) for L in lengths])
    rng = np.random.default_rng(21)
    for _ in range(20):
        U = random_unitary(6, rng)
        lams = 10.0 ** rng.uniform(0.0, math.log10(2e6), 8)
        k = lengths * np.sqrt(2.0 * lams[:, np.newaxis]) / math.pi
        keep = ~np.any(np.abs(k - np.round(k)) <= 1e-6 * k, axis=1)
        n_d = np.sum(np.floor(k[keep]), axis=1).astype(int)
        n_u = count_eigenvalues(U, dom, lams[keep])
        assert np.all(n_d <= n_u) and np.all(n_u <= n_d + 6), (n_d, n_u)


def test_a_cell_ode_error_propagates_from_the_search_samples(monkeypatch):
    # an OdeError of a cell propagates as it is, from the search's 17
    # samples: no solve runs again on more
    seen = []

    def failing(iv, lams, rel_tol, samples, slopes=False):
        seen.append(samples)
        raise OdeError("mesh halving did not reach rel_tol")

    monkeypatch.setattr(spectral, "cell_dtn", failing)
    with pytest.raises(OdeError, match="^mesh halving did not reach rel_tol$"):
        count_eigenvalues(make_dirichlet(1), FREE, 1.0)
    assert seen == [17]


def test_the_300_lowest_free_dirichlet_levels():
    # the 300 lowest levels k**2 / 8 of free [0, 2 pi] lie past the reach of
    # 257 samples (lam = 8192 at k = 256)
    spectrum = find_eigenvalues(make_dirichlet(1), FREE, (-math.inf, math.inf),
                                SolveOptions(max_eigs=300))
    want = np.arange(1, 301) ** 2 / 8.0
    assert [e.multiplicity for e in spectrum.eigs] == [1] * 300
    assert spectrum.lams == pytest.approx(want, rel=1e-10, abs=0.0)


def test_the_search_takes_the_fewest_samples_its_top_needs(monkeypatch):
    # a sample cell of free [0, 2 pi] turns by (2 pi / (S - 1)) sqrt(2 lam):
    # at 4.8 that is 1.22 for S = 17, at 20 it is 2.48 for 17 (below pi, past
    # the margin 3 pi / 4) and 1.24 for 33, at 530 it is 3.20 for 65 and 1.60
    # for 129.  At 8000 and 8100 the margin would take 513, more than the
    # grid's 257, which turn by 0.988 pi and 0.994 pi; the exact free cells
    # hold no level of their own below pi, so the search takes 257.  Cells
    # of x^2/2 do at 257 samples a nudge above 8192, so that search takes
    # 513.  The eigenfunctions keep 257 points, read from the search's cells
    # where it ran on fewer.
    calls = count_calls(monkeypatch, spectral, "cell_dtn")
    x2 = QuantumDomain([Interval(0.0, 2.0 * math.pi, "1", "x^2/2")])
    for U, dom, window, search in ((make_dirichlet(1), FREE, (0.01, 4.8), 17),
                                   (make_dirichlet(1), FREE, (0.01, 20.0), 33),
                                   (make_quasiperiodic(0.0), FREE, (-0.5, 530.0), 129),
                                   (make_dirichlet(1), FREE, (0.01, 8000.0), 257),
                                   (make_dirichlet(1), FREE, (8050.0, 8100.0), 257),
                                   (make_dirichlet(1), x2, (8100.0, 8192.0), 513)):
        calls.clear()
        spectrum = find_eigenvalues(U, dom, window)
        seen = [samples for *_, samples in calls]
        assert seen[0] == search and set(seen) == {search, max(search, 257)}
        assert spectrum.eigs[0].xs.shape == (1, 257)


def test_the_floor_counts_four_candidates_at_a_time(monkeypatch):
    # V = -15 on [0, 1]: the lowest Dirichlet level is pi**2 / 2 - 15 = -10.07,
    # so of -1, -2, .. the first floor with no level below is -16, as when
    # the floors are counted one at a time
    calls = count_calls(monkeypatch, spectral, "cell_dtn")
    dom = QuantumDomain([Interval(0.0, 1.0, "1", "-15")])
    spectrum = find_eigenvalues(make_dirichlet(1), dom, (-math.inf, 0.0))
    assert spectrum.lams == pytest.approx([math.pi ** 2 / 2.0 - 15.0], rel=1e-10)
    assert [list(lams) for _, lams, *_ in calls[:3]] == [
        [-1.0, -2.0, -4.0, -8.0], [-16.0, -32.0, -64.0, -128.0], [-16.0, 0.0]]


def test_the_ceiling_moves_to_more_samples_without_counting_again(monkeypatch):
    # The ceiling probes of the 300 lowest free Dirichlet levels pass the
    # reach of 17, 33, .. 257 samples; each probe is counted once, and the
    # counts before it are kept.  The probes are the one-lam counts between
    # the floor's four-lam count and the two-lam count at the window's ends.
    calls = count_calls(monkeypatch, spectral, "cell_dtn")
    find_eigenvalues(make_dirichlet(1), FREE, (-math.inf, math.inf), SolveOptions(max_eigs=300))
    calls = [(samples, list(lams)) for _, lams, _, samples in calls]
    sizes = [len(lams) for _, lams in calls]
    assert sizes[0] == 4
    probes = calls[1:sizes.index(2)]
    assert all(len(lams) == 1 for _, lams in probes)
    lams, samples = [lams[0] for _, lams in probes], [s for s, _ in probes]
    assert np.all(np.diff(lams) > 0.0) and np.all(np.diff(samples) >= 0)
    assert samples[0] == 17 and samples[-1] == 513


def test_the_300_lowest_levels_of_x2_over_2_against_fd():
    # past the reach of 257 samples, like the free levels above
    dom = QuantumDomain([Interval(0.0, 2.0 * math.pi, "1", "x^2/2")])
    spectrum = find_eigenvalues(make_dirichlet(1), dom, (-math.inf, math.inf),
                                SolveOptions(max_eigs=300))
    fd, est = fd_spectrum(make_dirichlet(1), dom, N=1000, k=300)
    assert [e.multiplicity for e in spectrum.eigs] == [1] * 300
    assert np.all(np.abs(spectrum.lams - fd) <= est)


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
    # M against the block-by-block construction written out with column
    # scalings (T o x: column j of T times x[j]).
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
            lp, lm, rp, rm = (v[np.newaxis, :] for v in (lp, lm, rp, rm))
            cols = slice(sigma * n, (sigma + 1) * n)
            M[:n, cols] = eye * lm - U.u11 * lp - U.u12 * rp
            M[n:, cols] = eye * rm - U.u21 * lp - U.u22 * rp
        assert np.array_equal(sm.matrix, M)


def _haar_with_kernel(size, rank, rng):
    # Haar eigenvectors, eigenphases uniform but for ``rank`` of them at pi
    v = random_unitary(size, rng).matrix
    phases = np.exp(1j * rng.uniform(-3.0, 3.0, size))
    phases[:rank] = -1.0
    return UnitaryBC(v @ np.diag(phases) @ v.conj().T)


@settings(max_examples=12, deadline=None)
@given(n=st.integers(1, 3), variable=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_batched_counts_equal_counts_one_u_at_a_time(n, variable, seed, data):
    # Haar U(2n) with a drawn number of eigenvalues -1 each, so that Q has
    # any rank from 0 to 2n, and the last interval variable if drawn.  The
    # Us form one batch per rank of Q, and one count of a batch over
    # (lam, U) pairs, some sharing a lam, equals count_eigenvalues of each U
    rng = np.random.default_rng(seed)
    kernels = data.draw(st.lists(st.integers(0, 2 * n), min_size=1, max_size=4))
    Us = [_haar_with_kernel(2 * n, k, rng) for k in kernels]
    ivs = [Interval(0.0, L) for L in LENGTHS[:n]]
    if variable:
        ivs[-1] = Interval(0.0, 1.5, "(1+0.3*x)^2", "x^2/2")
    dom = QuantumDomain(ivs)
    lams = np.repeat(rng.uniform(-20.0, 60.0, 6), 2)
    u = rng.integers(len(Us), size=len(lams))
    samples = spectral._samples(dom, lams.max())[0]
    batches = spectral._batches(Us)
    assert sorted(i for idx, _ in batches for i in idx) == list(range(len(Us)))
    got = np.full(len(lams), -1)
    for idx, bc in batches:
        assert {2 * n - kernels[i] for i in idx} == {bc.m}
        rows = np.isin(u, idx)
        if not rows.any():
            continue
        g = spectral._Glued(bc, dom, SolveOptions(), samples)
        got[rows] = g.count(lams[rows], np.searchsorted(idx, u[rows]))[0]
    for i, U in enumerate(Us):
        assert got[u == i].tolist() == count_eigenvalues(U, dom, lams[u == i]).tolist()


def _old_det(U, dom, lam):
    # det M from the canonical pair's endpoint data, without the storage scale
    sm = spectral_matrix(U, [fundamental_solutions(iv, lam, rel_tol=1e-11)
                             for iv in dom.intervals])
    return complex(np.linalg.det(sm.matrix)) * math.exp(2.0 * sm.scale_exponent)


@pytest.mark.parametrize("n, a, metric", [(1, 0.0, "1 + 0.5*x"), (2, 0.0, "1 + 0.5*x"),
                                          (3, 0.0, "1 + 0.5*x"), (2, 0.5, "(1+0.3*x)^2")])
def test_spectral_function_against_the_canonical_pair(n, a, metric):
    # One banded LU of K - A, the cell entries t01 and c(U) give the same
    # det M as the transfer products, for every rank of ker(U + I).  The
    # metric at a != 0 checks the factor prod eta(a_j)**-0.5 of c(U).
    rng = np.random.default_rng(70 + n)
    dom = QuantumDomain([Interval(a, a + L, metric, "x") for L in (1.0, 1.3, 0.7)[:n]])
    for rank in range(2 * n + 1):
        U = _haar_with_kernel(2 * n, rank, rng)
        assert cayley_degeneracy(U) == rank
        for lam in (-2.0, 0.7, 5.5):
            want = _old_det(U, dom, lam)
            assert abs(spectral_function(U, dom, lam) - want) <= 1e-9 * abs(want), (rank, lam)


def test_spectral_function_on_the_free_interval():
    U = random_unitary(2, np.random.default_rng(11))
    for lam in (0.5, 2.0, 8.0):
        want = _old_det(U, FREE, lam)
        assert abs(spectral_function(U, FREE, lam) - want) <= 1e-9 * abs(want), lam


def _closed_form_det(U, L, eta, pot, lam):
    # det M of one constant interval [0, L] in mpmath: u1 = cosh(q x),
    # u2 = sinh(q x) / q, q = sqrt(2 eta (V - lam)); the outward
    # quasi-derivatives carry eta**-0.5.  The entries grow like e^(q L)
    # and cancel in the determinant, hence the working precision.
    with mpmath.workdps(60 + math.ceil(2.5 * math.sqrt(2.0 * eta * (pot - lam)) * L)):
        q = mpmath.sqrt(2 * mpmath.mpf(eta) * (mpmath.mpf(pot) - mpmath.mpf(lam)))
        r = 1 / mpmath.sqrt(eta)
        ch, sh = mpmath.cosh(q * L), mpmath.sinh(q * L)
        psi_l, dpsi_l = [1, 0], [0, -r]
        psi_r, dpsi_r = [ch, sh / q], [q * sh * r, ch * r]
        u = [[mpmath.mpc(complex(z)) for z in row] for row in U.matrix]
        M = mpmath.matrix(2, 2)
        for s in (0, 1):
            lp, lm = psi_l[s] + 1j * dpsi_l[s], psi_l[s] - 1j * dpsi_l[s]
            rp, rm = psi_r[s] + 1j * dpsi_r[s], psi_r[s] - 1j * dpsi_r[s]
            M[0, s] = lm - u[0][0] * lp - u[0][1] * rp
            M[1, s] = rm - u[1][0] * lp - u[1][1] * rp
        d = mpmath.det(M)
        return complex(d / abs(d)), float(mpmath.log(abs(d)))


@pytest.mark.parametrize("L, eta, pot", [(10.0, 1.0, 5000.0), (1.3, 2.0, 3.0)])
def test_log_det_deep_below_the_potential(L, eta, pot):
    # det M reaches e^4589 here, where the canonical pair's data at a
    # underflow; the LU and the cell entries stay finite.
    dom = QuantumDomain([Interval(0.0, L, str(eta), str(pot))])
    for U in (random_unitary(2, np.random.default_rng(12)), make_dirichlet(1)):
        g = spectral._Glued(U, dom, SolveOptions())
        for lam in (-5000.0, -1e5):
            phase, log_mod = g.log_det(lam)
            want_phase, want_log = _closed_form_det(U, L, eta, pot, lam)
            assert abs(log_mod - want_log) <= 1e-10, (lam, log_mod, want_log)
            assert abs(phase - want_phase) <= 1e-10, (lam, phase, want_phase)
            value = spectral_function(U, dom, lam)
            assert math.isfinite(abs(value)) and value != 0.0


@pytest.mark.parametrize("window", [(0.1, 10.0), (-math.inf, math.inf)])
@pytest.mark.parametrize("max_eigs", [0, -2])
def test_max_eigs_below_one_is_rejected(window, max_eigs):
    dom = QuantumDomain([Interval(0.0, math.pi)])
    with pytest.raises(ValueError, match="max_eigs"):
        find_eigenvalues(make_dirichlet(1), dom, window, SolveOptions(max_eigs=max_eigs))


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
    calls = count_calls(monkeypatch, spectral, "cell_dtn")
    spectrum = find_eigenvalues(make_quasiperiodic(0.0), FREE, (-0.5, 530.0))
    assert [e.multiplicity for e in spectrum.eigs] == [1] + [2] * 32
    assert len(calls) <= 40
    assert max(len(lams) for _, lams, *_ in calls) >= 64


def test_refinement_solves_fewer_than_twice_per_factorisation(monkeypatch):
    # The periodic circle over (-0.5, 530): warm-started Ritz steps stop once
    # the values they are read for are certified, so most probes take one
    # banded solve per LU instead of a fixed three.
    calls = {"gbtrf": 0, "gbtrs": 0}
    get_lapack_funcs = scipy.linalg.get_lapack_funcs

    def counting(names, arrays=()):
        def count(name, f):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapped
        return tuple(count(nm, f) for nm, f in zip(names, get_lapack_funcs(names, arrays)))

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", counting)
    spectrum = find_eigenvalues(make_quasiperiodic(0.0), FREE, (-0.5, 530.0))
    assert [e.multiplicity for e in spectrum.eigs] == [1] + [2] * 32
    assert calls["gbtrf"] > 0
    assert calls["gbtrs"] < 2 * calls["gbtrf"]


def _dense_glued(g, cells):
    """K(lam) - A as dense matrices, summed from the entry lists."""
    v = g._values(*cells)
    K = np.zeros((len(v), g.dim, g.dim), dtype=g.dtype)
    for k, entries in zip(K, v):
        np.add.at(k, (g.rows, g.cols), entries)
        np.add.at(k, (g.cols[g.off], g.rows[g.off]), entries[g.off].conj())
    return K


@pytest.mark.parametrize("case", ["periodic circle", "Haar U(4)"])
def test_ritz_pairs_against_dense_eigenvalues(case):
    # Each certified Ritz value lies within its residual of an eigenvalue of
    # the dense K(lam) - A (up to rounding), and the residual that the Ritz
    # step computes from the solve is the true ||(K - A) v - theta v||; from
    # a cold start and from the vectors at a nearby lam.
    if case == "periodic circle":
        U, dom = make_quasiperiodic(0.0), FREE
    else:
        U = random_unitary(4, np.random.default_rng(3))
        dom = QuantumDomain([Interval(0.0, 1.0), Interval(0.0, 1.3, "1", "x^2/2")])
    g = spectral._Glued(U, dom, SolveOptions())
    assert g.dtype is (float if case == "periodic circle" else complex)
    levels = find_eigenvalues(U, dom, (-math.inf, 30.0)).lams[:4]
    lams = np.concatenate([levels, levels + 1e-3, [0.37, 7.3, 19.1]])
    cells = g.cells(lams)
    K = _dense_glued(g, cells)
    dense = np.linalg.eigvalsh(K)
    norm = np.max(np.abs(dense), axis=1)[:, np.newaxis]

    def every(rows, theta):
        return np.ones(theta.shape, dtype=bool)

    _, near, _ = g.ritz(*g.cells(lams + 1e-6), 4, None, every)
    for start in (None, near):
        theta, vecs, resid = g.ritz(*cells, 4, start, every)
        certified = spectral._certified(theta, resid)
        assert certified.sum() >= 0.75 * certified.size
        gap = np.min(np.abs(dense[:, np.newaxis, :] - theta[:, :, np.newaxis]), axis=2)
        assert np.all((gap <= resid + 1e-14 * norm)[certified])
        true = np.linalg.norm(K @ vecs - vecs * theta[:, np.newaxis, :], axis=1)
        assert np.all(np.abs(true - resid) <= 1e-12 * norm)
        gram = vecs.conj().transpose(0, 2, 1) @ vecs
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-12


@pytest.mark.parametrize("samples", [17, 33])
@pytest.mark.parametrize("case", ["periodic circle", "Haar U(4)"])
def test_ritz_pairs_on_the_fewest_samples(case, samples):
    # The test above on the sample counts a search takes, where ||K|| is up
    # to 16 times smaller.  The residual comes from ||r||**2 =
    # ||R^-1 y||**2 - (theta - s)**2, a difference of two sums whose terms
    # reach max |theta - s|**2 over the block, as R^-1 mixes its columns:
    # rounding leaves an absolute error of about eps max |theta - s|**2 in
    # ||r||**2, so up to sqrt(eps) max |theta - s| in ||r||, on top of
    # the 1e-12 ||K|| of the test above.  A residual read high only makes a
    # value less certain, and the soundness bound is kept as it is.
    if case == "periodic circle":
        U, dom = make_quasiperiodic(0.0), FREE
    else:
        U = random_unitary(4, np.random.default_rng(3))
        dom = QuantumDomain([Interval(0.0, 1.0), Interval(0.0, 1.3, "1", "x^2/2")])
    g = spectral._Glued(U, dom, SolveOptions(), samples)
    levels = find_eigenvalues(U, dom, (-math.inf, 30.0)).lams[:4]
    lams = np.concatenate([levels, levels + 1e-3, [0.37, 7.3, 19.1]])
    cells = g.cells(lams)
    K = _dense_glued(g, cells)
    dense = np.linalg.eigvalsh(K)
    norm = np.max(np.abs(dense), axis=1)[:, np.newaxis]
    s = 1e-12 * np.max(np.abs(np.diagonal(K, axis1=1, axis2=2)), axis=1)[:, np.newaxis]

    def every(rows, theta):
        return np.ones(theta.shape, dtype=bool)

    _, near, _ = g.ritz(*g.cells(lams + 1e-6), 4, None, every)
    for start in (None, near):
        theta, vecs, resid = g.ritz(*cells, 4, start, every)
        certified = spectral._certified(theta, resid)
        assert certified.sum() >= 0.75 * certified.size
        gap = np.min(np.abs(dense[:, np.newaxis, :] - theta[:, :, np.newaxis]), axis=2)
        assert np.all((gap <= resid + 1e-14 * norm)[certified])
        true = np.linalg.norm(K @ vecs - vecs * theta[:, np.newaxis, :], axis=1)
        floor = math.sqrt(np.finfo(float).eps) * np.max(np.abs(theta - s), axis=1, keepdims=True)
        assert np.all(np.abs(true - resid) <= floor + 1e-12 * norm)
        gram = vecs.conj().transpose(0, 2, 1) @ vecs
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-12


def test_mu_takes_one_cells_call_per_distinct_lam(monkeypatch):
    # Work guard: the slope comes with the cells, so a Newton round asks
    # each interval for its cells once, at each distinct lam, with their
    # derivatives; the backward difference took a second lam per probe
    dom = QuantumDomain([Interval(0.0, 1.0), Interval(0.0, 1.3, "1", "x^2/2")])
    g = spectral._Glued(random_unitary(4, np.random.default_rng(3)), dom, SolveOptions(), 33)
    calls = count_calls(monkeypatch, spectral, "cell_dtn")
    lams = np.array([0.7, 3.1, 0.7, 9.4])
    spectral._mu(g, lams, np.array([0, 1, 1, 2]), np.array([0, 1, 1, 2]), np.ones(4, dtype=int), 3)
    assert len(calls) == 2
    for call in calls:
        assert call.kwargs == {"slopes": True}
        assert np.array_equal(call[1], [0.7, 3.1, 9.4])


@pytest.mark.parametrize("case", ["periodic circle", "Haar U(4)"])
def test_the_slope_of_mu_is_its_derivative(monkeypatch, case):
    # K'(lam) is negative definite (DtN bracketing), so mu_k' = x^H K' x < 0
    # at every probe of a solve.  From converged Ritz vectors the slope is
    # the derivative of mu_k, the k-th smallest eigenvalue of the dense
    # K(lam) - A, exactly, since K' comes from the cells' exact derivatives:
    # checked by a central difference at lam off the levels, where mu_k is
    # smooth (at a level of multiplicity 2 the two eigenvalues cross and the
    # k-th smallest has a kink)
    if case == "periodic circle":
        U, dom = make_quasiperiodic(0.0), FREE
    else:
        U = random_unitary(4, np.random.default_rng(3))
        dom = QuantumDomain([Interval(0.0, 1.0), Interval(0.0, 1.3, "1", "x^2/2")])
    slopes = []
    mu = spectral._mu

    def recording(*args):
        out = mu(*args)
        assert np.array_equal(np.isnan(out[0]), np.isnan(out[1]))
        slopes.append(out[1][~np.isnan(out[1])])
        return out

    monkeypatch.setattr(spectral, "_mu", recording)
    levels = np.unique(find_eigenvalues(U, dom, (-math.inf, 30.0)).lams)
    slopes = np.concatenate(slopes)
    assert slopes.size and np.all(slopes < 0.0)

    g = spectral._Glued(U, dom, SolveOptions(), 33)
    lams = np.concatenate([0.5 * (levels[:-1] + levels[1:]), levels - 1e-3, levels + 1e-3])
    # k: the level above lam, or below it for the lam just above a level
    ks = count_eigenvalues(U, dom, lams)
    ks[-len(levels):] -= 1

    def difference(h):
        dense = [np.linalg.eigvalsh(_dense_glued(g, g.cells(lams + s)))[np.arange(len(lams)), ks]
                 for s in (h, -h)]
        return (dense[0] - dense[1]) / (2.0 * h)

    # Richardson's extrapolation of central differences, with steps inside
    # the 1e-3 to the nearest level and wide enough that their rounding,
    # eps ||K|| / h, stays near 1e-9 relative
    central = (4.0 * difference(2.5e-4) - difference(5e-4)) / 3.0
    # a start block spanning the three eigenvectors nearest 0 converges at once
    w, v = np.linalg.eigh(_dense_glued(g, g.cells(lams)))
    start = np.take_along_axis(v, np.argsort(np.abs(w), axis=1)[:, np.newaxis, :3], axis=2)
    _, slope, cert, *_ = mu(g, lams, ks, ks, np.ones_like(ks), 3, start)
    assert cert.all()
    assert np.all(np.abs(slope - central) <= 1e-8 * np.abs(central))


@pytest.mark.parametrize("U, domain, window, levels", [
    (make_quasiperiodic(0.0), FREE, (-0.2, 4.8), 4),
    (make_dirichlet(1), FREE, (0.01, 4.8), 6),
    (random_unitary(2, np.random.default_rng(1)),
     QuantumDomain([Interval(-3.0, 3.0, "1", "x^2/2")]), (-1.0, 20.0), 12)])
def test_newton_refines_in_few_probes(monkeypatch, U, domain, window, levels):
    # Work guard: Newton steps on mu_k with its exact slope refine every
    # level of these windows in 3 lockstep probes: both bracket ends, then
    # two Newton steps, ~1e-1 and ~1e-4 relative from the root, after which
    # the quadratic model accepts the third step unprobed.  The Illinois
    # secant took 11 (periodic), 8 (Dirichlet) and 6 (x**2 / 2), Newton with
    # a differenced slope and a confirming probe 4 each.  In the last, a
    # step from an end whose value is not certified once took 7
    calls = count_calls(monkeypatch, spectral, "_mu")
    assert len(find_eigenvalues(U, domain, window).eigs) == levels
    assert len(calls) == 3


@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([1, 2]), variable=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_an_unprobed_newton_step_is_the_confirmed_root(n, variable, seed):
    # _refine accepts a Newton step without probing it where the quadratic
    # model puts it within 1e-12 of the root; with that turned off, a
    # confirming probe is made at every level, and the levels and their
    # multiplicities agree to 1e-12 relative.  Haar U(2) and U(4) on free
    # and variable intervals
    ivs = [Interval(0.0, 1.0), Interval(0.0, 1.3, "(1+0.3*x)^2" if variable else "1",
                                        "x^2/2" if variable else "0")][2 - n:]
    dom = QuantumDomain(ivs)
    U = random_unitary(2 * n, np.random.default_rng(seed))
    skipped = find_eigenvalues(U, dom, (-math.inf, 60.0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_ACCEPT", 0.0)
        probed = find_eigenvalues(U, dom, (-math.inf, 60.0))
    assert [e.multiplicity for e in skipped.eigs] == [e.multiplicity for e in probed.eigs]
    assert np.all(np.abs(skipped.lams - probed.lams)
                  <= 1e-12 * np.maximum(1.0, np.abs(probed.lams)))


def test_count_is_zero_at_minus_infinity():
    counts = count_eigenvalues(make_dirichlet(1), FREE, [-math.inf, 1.0])
    assert counts.tolist() == [0, 2]


@pytest.mark.parametrize("lam", [math.inf, math.nan])
def test_count_rejects_plus_infinity_and_nan_before_building_cells(monkeypatch, lam):
    calls = []
    monkeypatch.setattr(spectral, "cell_dtn", lambda *args: calls.append(args))
    with pytest.raises(ValueError):
        count_eigenvalues(make_dirichlet(1), FREE, [1.0, lam])
    assert calls == []


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
    calls = count_calls(monkeypatch, spectral, "cell_dtn")
    dom = QuantumDomain([Interval(0.0, 2.0 * math.pi, "1", "x^2/2")])
    assert find_eigenvalues(make_dirichlet(1), dom, (-0.6, 0.4)).eigs == ()
    assert [list(lams) for _, lams, *_ in calls] == [[-0.6, 0.4]]


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


@settings(max_examples=12, deadline=None)
@given(n=st.integers(1, 2), variable=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_no_level_is_misplaced(n, variable, seed):
    # Haar U(2n), the last interval variable if drawn.  The count just below
    # and just above each level (1e-7 relative) differs by its multiplicity,
    # and the counts run on from one level to the next without a gap.
    U = random_unitary(2 * n, np.random.default_rng(seed))
    ivs = [Interval(0.0, L) for L in LENGTHS[:n]]
    if variable:
        ivs[-1] = Interval(0.0, 1.5, "(1+0.3*x)^2", "x^2/2")
    dom = QuantumDomain(ivs)
    eigs = find_eigenvalues(U, dom, (-math.inf, 40.0)).eigs
    assert eigs
    lams, mults = np.array([e.lam for e in eigs]), [e.multiplicity for e in eigs]
    delta = 1e-7 * np.maximum(1.0, np.abs(lams))
    below, above = np.split(count_eigenvalues(U, dom, np.concatenate([lams - delta,
                                                                      lams + delta])), 2)
    assert (above - below).tolist() == mults
    assert below.tolist() == np.concatenate([[0], np.cumsum(mults)[:-1]]).tolist()


def _reach(dom, samples):
    """The top lam past which a search on ``dom`` takes more than ``samples``."""
    lo, hi = 0.0, 1.0
    while spectral._samples(dom, hi)[0] <= samples:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if spectral._samples(dom, mid)[0] <= samples else (lo, mid)
    return hi


@settings(max_examples=12, deadline=None)
@given(n=st.integers(1, 3), variable=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       reach=st.sampled_from([17, 33]), where=st.floats(0.1, 1.25), width=st.floats(0.1, 0.4))
def test_levels_do_not_depend_on_the_search_samples(n, variable, seed, reach, where, width):
    # Haar U(2n), the last interval variable if drawn, and a window whose top
    # lies below or past the reach of 17 or 33 samples: the levels of the
    # derived search equal those of a search forced to 257 samples.
    U = random_unitary(2 * n, np.random.default_rng(seed))
    ivs = [Interval(0.0, L) for L in LENGTHS[:n]]
    if variable:
        ivs[-1] = Interval(0.0, 1.5, "(1+0.3*x)^2", "x^2/2")
    dom = QuantumDomain(ivs)
    hi = where * _reach(dom, reach)
    window = ((1.0 - width) * hi, hi)
    assert spectral._samples(dom, hi)[0] < 257
    got = find_eigenvalues(U, dom, window).eigs
    want = spectral._levels(spectral._Glued(U, dom, SolveOptions()), *window)[0]
    assert [e.multiplicity for e in got] == [e.multiplicity for e in want]
    assert [e.xs.shape for e in got] == [e.xs.shape for e in want]
    lams, ref = np.array([e.lam for e in got]), np.array([e.lam for e in want])
    assert np.all(np.abs(lams - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))


# Tight brackets: several levels that no other level comes near skip isolation.

def test_levels_2e_7_apart_come_back_as_two():
    # Dirichlet on [0, pi] and [0, pi (1 + 1e-7)]: each pair k**2 / 2,
    # k**2 / (2 (1 + 1e-7)**2) lies in one tight bracket, where Newton's
    # method finds both roots, 2e-7 apart
    s = 1.0 + 1e-7
    dom = QuantumDomain([Interval(0.0, math.pi), Interval(0.0, math.pi * s)])
    spectrum = find_eigenvalues(make_dirichlet(2), dom, (0.1, 20.0))
    k = np.repeat(np.arange(1, 7), 2)
    want = k * k / 2.0 / np.tile([s * s, 1.0], 6)
    assert [e.multiplicity for e in spectrum.eigs] == [1] * 12
    assert np.all(np.abs(spectrum.lams - want) <= 1e-11 * want)


def test_three_equal_dirichlet_links():
    dom = QuantumDomain([Interval(0.0, math.pi)] * 3)
    spectrum = find_eigenvalues(make_dirichlet(3), dom, (0.1, 20.0))
    assert [e.multiplicity for e in spectrum.eigs] == [3] * 6
    assert spectrum.lams == pytest.approx(np.arange(1, 7) ** 2 / 2.0, rel=1e-11)


def test_degenerate_levels_cost_no_rounds_of_their_own(monkeypatch):
    # Work guard: the periodic circle on (-0.2, 4.8) holds the pairs at 1/2,
    # 2 and 9/2.  Isolating each pair to 1e-7 relative took 14 counts; with
    # tight brackets 5 suffice: the ends and four rounds
    calls = count_calls(monkeypatch, spectral._Glued, "count")
    spectrum = find_eigenvalues(make_quasiperiodic(0.0), FREE, (-0.2, 4.8))
    assert [e.multiplicity for e in spectrum.eigs] == [1, 2, 2, 2]
    assert len(calls) <= 6


@pytest.mark.parametrize("U, dom, window", [
    (make_quasiperiodic(0.0), FREE, (-0.2, 4.8)),
    (make_dirichlet(3), QuantumDomain([Interval(0.0, math.pi)] * 3), (0.1, 20.0)),
    (make_dirichlet(2), QuantumDomain([Interval(0.0, math.pi), Interval(0.0, math.pi * 1.01)]),
     (0.1, 20.0))])
def test_brackets_of_several_levels_are_tight(U, dom, window):
    # every bracket of several levels is at most a quarter as wide as its
    # distance to the other brackets and the window's ends
    g = spectral._Glued(U, dom, SolveOptions(), spectral._samples(dom, window[1])[0])
    (n_lo, n_hi), _ = g.count(window)
    brackets = spectral._isolate(g, [window[0]], [window[1]], [n_lo], [n_hi], [n_hi])
    assert sum(nb - na for _, _, na, nb, _ in brackets) == n_hi - n_lo
    edges = [window[0]] + [x for a, b, *_ in brackets for x in (a, b)] + [window[1]]
    for i, (a, b, na, nb, _) in enumerate(brackets):
        if nb - na > 1:
            assert b - a <= 0.25 * min(a - edges[2 * i], edges[2 * i + 3] - b)


# The eigenfunctions are read from the search's own vectors.

def _phased(f):
    """f times the phase that makes its first sample within 1e-6 of its
    largest modulus real positive."""
    mag = np.abs(f).ravel()
    peak = f.ravel()[np.argmax(mag >= (1.0 - 1e-6) * mag.max())]
    return f * abs(peak) / peak


def test_the_phase_rule_ignores_ties():
    # sin(x) on [0, 2 pi] peaks at pi / 2 and 3 pi / 2, both samples of the
    # grid, and ties there in modulus: the first is positive
    e = find_eigenvalues(make_dirichlet(1), FREE, (0.4, 0.6)).eigs[0]
    assert e.lam == pytest.approx(0.5, rel=1e-12)
    assert e.samples[0, 0, 64] == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-10)
    # a plane wave has one modulus everywhere: its first sample is real positive
    for e in find_eigenvalues(make_quasiperiodic(1.1), FREE, (-0.1, 12.0)).eigs:
        first = e.samples[0, 0, 0]
        assert first.real > 0.0 and abs(first.imag) <= 1e-12
        assert abs(first) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-10)


@pytest.mark.parametrize("U, dom, window", [
    (make_quasiperiodic(0.0), FREE, (-0.2, 4.8)),
    (make_dirichlet(3), QuantumDomain([Interval(0.0, math.pi)] * 3), (0.1, 5.0)),
    (random_unitary(4, np.random.default_rng(2)),
     QuantumDomain([Interval(0.0, 1.0), Interval(0.0, 1.3)]), (-math.inf, 30.0))])
def test_members_are_normalised_as_one_at_a_time(monkeypatch, U, dom, window):
    # the members of every level, orthonormalised in lockstep over the
    # levels, equal those of Gram-Schmidt run one member at a time on the
    # grid samples (multiplicities 2, 3 and complex levels)
    raw = []
    on_grid = spectral._on_grid

    def recording(*args):
        raw.append(on_grid(*args))
        return raw[-1]

    monkeypatch.setattr(spectral, "_on_grid", recording)
    eigs = find_eigenvalues(U, dom, window).eigs
    assert len(raw) == 1 and len(raw[0]) == sum(e.multiplicity for e in eigs)
    rows = iter(raw[0])
    for e in eigs:
        w, members = spectral._quad_weights(dom, e.xs), []
        for _ in range(e.multiplicity):
            f = next(rows)
            for h in members:
                f = f - spectral._inner(w, h, f) * h
            members.append(_phased(f / math.sqrt(spectral._inner(w, f, f).real)))
        assert np.max(np.abs(e.samples - np.array(members))) <= 1e-12


def test_dirichlet_eigenfunctions_prolonged_from_17_samples(monkeypatch):
    # the search on [0, 2 pi] up to 4.8 runs on 17 samples; the grid's 257
    # points come from the grid cells' interior rows
    calls = count_calls(monkeypatch, spectral, "cell_dtn")
    eigs = find_eigenvalues(make_dirichlet(1), FREE, (0.01, 4.8)).eigs
    assert calls[0][3] == 17
    assert len(eigs) == 6
    for k, e in enumerate(eigs, start=1):
        assert e.xs.shape == (1, 257)
        want = _phased(np.sin(0.5 * k * e.xs) / math.sqrt(math.pi))
        sign = want[0, 1] / (math.sin(0.5 * k * e.xs[0, 1]) / math.sqrt(math.pi))
        dpsi = sign * 0.5 * k / math.sqrt(math.pi) * np.array([-1.0, math.cos(k * math.pi)])
        assert np.max(np.abs(e.samples[0] - want)) <= 1e-10
        assert np.max(np.abs(e.dpsi[0] - dpsi)) <= 1e-10


@pytest.mark.parametrize("U, dom, window", [
    (make_dirichlet(1), QuantumDomain([Interval(0.0, 2.0 * math.pi, "1", "x^2/2")]),
     (0.0, 12.0)),
    (random_unitary(4, np.random.default_rng(7)), QuantumDomain([Interval(0.0, 1.0),
                                                                  Interval(0.0, 1.3)]),
     (-math.inf, 40.0))])
def test_prolonged_samples_equal_a_read_on_the_grid(U, dom, window):
    # the search's samples prolonged to the grid equal the samples of a
    # search forced onto the grid's 257
    assert spectral._samples(dom, window[1])[0] < 257
    got = find_eigenvalues(U, dom, window).eigs
    want = spectral._levels(spectral._Glued(U, dom, SolveOptions(), 257), *window)[0]
    assert [e.multiplicity for e in got] == [e.multiplicity for e in want] == [1] * len(got)
    for e, ref in zip(got, want):
        assert e.xs.shape == ref.xs.shape == (dom.n, 257)
        assert np.max(np.abs(e.samples - ref.samples)) <= 1e-10
        assert np.max(np.abs(e.dpsi - ref.dpsi)) <= 1e-10 * np.max(np.abs(ref.dpsi))


def test_a_ceiling_past_the_grid_is_subsampled(monkeypatch):
    # The 231 lowest Dirichlet levels of [0, 1]: the ceiling's last probe,
    # 2**19 - 2, needs 513 samples, while the top level (231 pi)**2 / 2 is
    # read on 257 points, every other sample of the search
    calls = count_calls(monkeypatch, spectral, "cell_dtn")
    dom = QuantumDomain([Interval(0.0, 1.0)])
    eigs = find_eigenvalues(make_dirichlet(1), dom, (-math.inf, math.inf),
                            SolveOptions(max_eigs=231)).eigs
    assert max(samples for *_, samples in calls) == 513
    k = np.arange(1, 232)
    assert np.array([e.lam for e in eigs]) == pytest.approx((k * math.pi) ** 2 / 2.0, rel=1e-10)
    w = spectral._quad_weights(dom, eigs[0].xs)
    for k, e in zip(k, eigs):
        assert e.xs.shape == (1, 257)
        # normalised by the grid's Simpson rule, which k = 128 aliases
        want = np.sin(k * math.pi * e.xs)
        want = _phased(want / math.sqrt(np.sum(w * want * want)))
        assert np.max(np.abs(e.samples[0] - want)) <= 1e-9
