"""Winding indices of closed unitary curves."""

import math

import numpy as np
import pytest

from qwire.bc import random_unitary
from qwire.curves import (
    ResolutionError,
    UnitaryCurve,
    cayley_index,
    det_winding,
    eigenangle_flow,
)


def _phase_loop(dim, ks, phis, Q=None, samples=256):
    """Closed loop Q diag(exp(i (k_j theta + phi_j))) Q^H with known windings."""
    ks = np.asarray(ks)
    phis = np.asarray(phis)
    if Q is None:
        Q = np.eye(dim, dtype=complex)

    def f(theta):
        d = np.exp(1j * (ks * theta + phis))
        return Q @ np.diag(d) @ Q.conj().T

    return UnitaryCurve.from_function(f, samples=samples)


def test_scalar_phase_loop_winding():
    curve = _phase_loop(2, [1, 1], [0.3, 0.3])
    assert det_winding(curve) == 2
    assert cayley_index(curve) == 2


def test_mixed_windings_cancel():
    curve = _phase_loop(2, [2, -2], [0.1, 0.9])
    assert det_winding(curve) == 0
    assert cayley_index(curve) == 0


def _assert_indices(curve, ks):
    flow = eigenangle_flow(curve)
    assert np.max(np.abs(np.diff(flow.tracks, axis=0))) <= math.pi / 4
    assert cayley_index(curve) == det_winding(curve) == int(np.sum(ks))
    return flow


def test_indices_agree_on_conjugated_loops():
    rng = np.random.default_rng(2024)
    for i in range(14):
        dim = int(rng.choice([2, 4])) if i < 10 else 6
        ks = rng.integers(-3, 4, size=dim)
        phis = rng.uniform(0.05, 2 * math.pi - 0.05, size=dim)
        Q = random_unitary(dim, rng).matrix
        _assert_indices(_phase_loop(dim, ks, phis, Q, samples=320), ks)
    # Two eigenangles oscillating about 0.3 cross six times, and the winding
    # ones cross them, all away from -1: the tracks swap branches there.
    ks = [1, 0, 0, -2]
    Q = random_unitary(4, rng).matrix

    def f(theta):
        s = 0.8 * math.sin(3 * theta)
        d = np.exp(1j * np.array([theta + 2.0, 0.3 + s, 0.3 - s, 1.0 - 2 * theta]))
        return Q @ np.diag(d) @ Q.conj().T

    flow = _assert_indices(UnitaryCurve.from_function(f, 320), ks)
    assert sorted(flow.windings) != sorted(ks)


def test_constant_loop_has_zero_index():
    curve = _phase_loop(2, [0, 0], [0.4, 1.2])
    assert det_winding(curve) == 0
    assert cayley_index(curve) == 0


def test_reparametrization_invariance():
    ks, phis = [2, -1], [0.3, 1.1]
    curve = _phase_loop(2, ks, phis, samples=300)
    # strictly monotone resampling theta -> 2*pi*(theta/2*pi)^2
    thetas = 2 * math.pi * (curve.thetas / (2 * math.pi)) ** 2
    thetas[0], thetas[-1] = 0.0, 2 * math.pi

    def f(theta):
        d = np.exp(1j * (np.asarray(ks) * theta + np.asarray(phis)))
        return np.diag(d)

    warped = UnitaryCurve(thetas, [f(t) for t in thetas])
    assert det_winding(warped) == det_winding(curve)
    assert cayley_index(warped) == cayley_index(curve)


def test_concatenation_additivity():
    # index of a pointwise product of loops is the sum of the indices
    def f1(theta):
        return np.diag(np.exp(1j * np.array([theta + 0.3, -theta + 0.5])))

    def f2(theta):
        return np.diag(np.exp(1j * np.array([2 * theta + 0.7, theta + 1.1])))

    c1 = UnitaryCurve.from_function(f1, 300)
    c2 = UnitaryCurve.from_function(f2, 300)
    prod = UnitaryCurve(c1.thetas, [a @ b for a, b in zip(c1.matrices, c2.matrices)])
    assert det_winding(prod) == det_winding(c1) + det_winding(c2)
    assert cayley_index(prod) == cayley_index(c1) + cayley_index(c2)


def test_track_sum_equals_det_winding():
    curve = _phase_loop(4, [1, -2, 3, 0], [0.2, 0.8, 1.4, 2.0], samples=400)
    flow = eigenangle_flow(curve)
    assert int(np.sum(flow.windings)) == det_winding(curve)


def test_coarse_sampling_raises():
    # winding 3 eigenangle moves 3 * 2*pi / 6 = pi per step > pi/4
    curve = _phase_loop(2, [3, 3], [0.1, 0.1], samples=6)
    with pytest.raises(ResolutionError):
        eigenangle_flow(curve)


def test_sample_exactly_at_minus_one_raises():
    # theta grid with an even sample count hits e^{i pi} exactly
    curve = _phase_loop(2, [1, 1], [0.0, 0.0], samples=256)
    with pytest.raises(ResolutionError):
        cayley_index(curve)


@pytest.mark.parametrize("offset", [1e-13, -1e-13])
def test_sample_just_beside_minus_one_raises(offset):
    # an eigenphase 1e-13 above or below pi at the sample theta = pi: a
    # crossing that close to a sample is not counted on either side
    curve = UnitaryCurve.from_function(
        lambda t: np.diag([np.exp(1j * (t + offset)), np.exp(-0.3j)]), samples=256)
    with pytest.raises(ResolutionError):
        cayley_index(curve)


def test_curve_validation():
    thetas = np.linspace(0.0, 2 * math.pi, 9)
    eye = [np.eye(2, dtype=complex)] * 9
    UnitaryCurve(thetas, eye)  # valid
    with pytest.raises(ValueError):
        UnitaryCurve(thetas[:-1], eye[:-1])       # does not reach 2*pi
    with pytest.raises(ValueError):
        UnitaryCurve(thetas, eye[:-1])            # length mismatch
    bad = list(eye)
    bad[-1] = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(ValueError):
        UnitaryCurve(thetas, bad)                 # not closed
    with pytest.raises(ValueError):
        UnitaryCurve([0.0, 1.0], [np.eye(2)] * 2)  # wrong endpoint
    # every sample is checked; the first that fails is reported with the
    # message UnitaryBC gives for it
    bad = list(eye)
    bad[4] = np.diag([1.0, 1.001]).astype(complex)   # defect 2.001e-3
    bad[6] = np.diag([1.0, 1.1]).astype(complex)     # defect 0.21
    with pytest.raises(ValueError, match=r"^matrix is not unitary: "
                                         r"\|\|U\^H U - I\|\|_F = 2\.001e-03$"):
        UnitaryCurve(thetas, bad)
    bad = list(eye)
    bad[3] = np.eye(3, dtype=complex)
    with pytest.raises(ValueError, match=r"^boundary matrix must be square of even size, "
                                         r"got \(3, 3\)$"):
        UnitaryCurve(thetas, bad)
    bad = list(eye)
    bad[5] = np.eye(2) * (1.0 + 1e-11)               # within the tolerance
    UnitaryCurve(thetas, bad)
    bad = list(eye)
    bad[2] = np.full((2, 2), np.nan)
    with pytest.raises(ValueError, match=r"not unitary: .* = nan$"):
        UnitaryCurve(thetas, bad)
    for j in (0, 4, 8):                               # a NaN theta at either end or between
        bad = thetas.copy()
        bad[j] = np.nan
        with pytest.raises(ValueError, match="^theta "):
            UnitaryCurve(bad, eye)

