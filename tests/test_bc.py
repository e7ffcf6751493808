"""Boundary-condition algebra: constructors, Cayley transform, wires."""

import cmath
import math

import numpy as np
import pytest

from conftest import random_hermitian
from qwire import bc
from qwire.bc import (
    CayleyOperator,
    CayleySingular,
    UnitaryBC,
    WireSpec,
    admissible_subspace,
    cayley_degeneracy,
    cayley_to_unitary,
    compose,
    isotropy_residual,
    make_dirichlet,
    make_neumann,
    make_quasiperiodic,
    make_u2,
    make_wire,
    random_unitary,
    unitary_to_cayley,
    verify_wire,
)


def _unitarity_defect(U: UnitaryBC) -> float:
    M = U.matrix
    return float(np.linalg.norm(M.conj().T @ M - np.eye(M.shape[0])))


def test_constructors_are_unitary():
    rng = np.random.default_rng(0)
    mats = [
        make_dirichlet(1), make_dirichlet(3),
        make_neumann(1), make_neumann(2),
        make_quasiperiodic(0.0), make_quasiperiodic(1.3),
        make_u2(0.7, 0.6, 0.8j),
        make_wire(WireSpec(sigma=(1, 0), beta=(0.4, -0.4))),
        random_unitary(4, rng), random_unitary(6, rng),
        cayley_to_unitary(random_hermitian(4, rng, 5.0)),
    ]
    for U in mats:
        assert _unitarity_defect(U) <= 1e-10


def test_unitary_bc_rejects_non_unitary_and_odd_size():
    with pytest.raises(ValueError):
        UnitaryBC(np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ValueError):
        UnitaryBC(np.eye(3))
    # a NaN defect fails the check, as every comparison with NaN does
    with pytest.raises(ValueError, match="not unitary.*= nan"):
        UnitaryBC(np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="not unitary"):
        make_quasiperiodic(np.nan)


def test_u2_requires_normalized_row():
    with pytest.raises(ValueError):
        make_u2(0.0, 1.0, 0.5)


def test_cayley_round_trip_small():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = int(rng.integers(1, 4)) * 2
        A = random_hermitian(m, rng, scale=float(rng.uniform(0.1, 20.0)))
        U = cayley_to_unitary(A)
        A2 = unitary_to_cayley(U).matrix
        assert np.linalg.norm(A2 - A) <= 1e-8 * max(1.0, np.linalg.norm(A))


def test_cayley_special_points():
    # A = 0 maps to the identity (Neumann side), and the Dirichlet point -I
    # has no Robin reduction.
    U = cayley_to_unitary(np.zeros((2, 2)))
    assert np.allclose(U.matrix, np.eye(2))
    with pytest.raises(CayleySingular):
        unitary_to_cayley(make_dirichlet(1))


def test_cayley_singular_iff_degenerate():
    rng = np.random.default_rng(3)
    for _ in range(20):
        U = random_unitary(4, rng)
        deg = cayley_degeneracy(U, -1)
        if deg > 0:
            with pytest.raises(CayleySingular):
                unitary_to_cayley(U)
        else:
            unitary_to_cayley(U)  # must not raise


def test_cayley_degeneracy_counts_constructed_spectra():
    rng = np.random.default_rng(5)
    Q = random_unitary(6, rng).matrix
    phases = np.array([math.pi, math.pi, 0.0, 0.0, 0.0, 1.1])
    U = UnitaryBC(Q @ np.diag(np.exp(1j * phases)) @ Q.conj().T)
    assert cayley_degeneracy(U, -1) == 2
    assert cayley_degeneracy(U, +1) == 3
    with pytest.raises(ValueError):
        cayley_degeneracy(U, 0)


def test_admissible_subspace_dimension_and_isotropy():
    rng = np.random.default_rng(17)
    for m in (2, 4, 6):
        for _ in range(5):
            U = random_unitary(m, rng)
            basis = admissible_subspace(U)
            assert basis.shape == (2 * m, m)
            # orthonormal columns
            assert np.linalg.norm(basis.conj().T @ basis - np.eye(m)) <= 1e-12
            assert isotropy_residual(U) <= 1e-12


def test_admissible_subspace_satisfies_defining_relation():
    rng = np.random.default_rng(23)
    U = random_unitary(4, rng)
    basis = admissible_subspace(U)
    psi, dpsi = basis[:4], basis[4:]
    resid = (psi - 1j * dpsi) - U.matrix @ (psi + 1j * dpsi)
    assert np.max(np.abs(resid)) <= 1e-12


def test_dirichlet_neumann_admissible_data():
    # Dirichlet kills values, Neumann kills normal derivatives.
    bD = admissible_subspace(make_dirichlet(1))
    assert np.max(np.abs(bD[:2])) <= 1e-12
    bN = admissible_subspace(make_neumann(1))
    assert np.max(np.abs(bN[2:])) <= 1e-12


def test_quasiperiodic_gluing_relation():
    theta = 0.9
    U = make_quasiperiodic(theta)
    basis = admissible_subspace(U)
    psi, dpsi = basis[:2], basis[2:]
    # psi_r = e^{i theta} psi_l and outward derivatives anti-match
    assert np.max(np.abs(psi[1] - cmath.exp(1j * theta) * psi[0])) <= 1e-12
    assert np.max(np.abs(dpsi[1] + cmath.exp(1j * theta) * dpsi[0])) <= 1e-12


def test_wire_matches_quasiperiodic():
    spec = WireSpec(sigma=(1, 0), beta=(0.0, 0.0))
    assert np.allclose(make_wire(spec).matrix, make_quasiperiodic(0.0).matrix)


def test_wire_spec_validation():
    with pytest.raises(ValueError):
        WireSpec(sigma=(0, 0), beta=(0.0, 0.0))           # not a permutation
    with pytest.raises(ValueError):
        WireSpec(sigma=(1, 2, 0, 3), beta=(0.0,) * 4)     # not an involution
    with pytest.raises(ValueError):
        WireSpec(sigma=(1, 0), beta=(0.3, 0.3))           # phases must cancel
    with pytest.raises(ValueError):
        WireSpec(sigma=(0, 1), beta=(0.2, -0.2))          # fixed points need phase 0


def test_verify_wire_pass_and_degenerate():
    spec = WireSpec(sigma=(1, 0), beta=(0.7, -0.7))
    report = verify_wire(make_wire(spec), spec)
    assert report["passed"] and not report["degenerate"]

    # Dirichlet forces psi = 0, so any identification holds vacuously.
    report = verify_wire(make_dirichlet(1), WireSpec(sigma=(1, 0), beta=(0.0, 0.0)))
    assert report["passed"] and report["degenerate"]


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_verify_wire_requires_a_positive_finite_tolerance(tol):
    spec = WireSpec(sigma=(1, 0), beta=(0.0, 0.0))
    with pytest.raises(ValueError, match="tol must be a positive finite number"):
        verify_wire(make_wire(spec), spec, tol)


def test_verify_wire_fails_on_wrong_phase():
    spec = WireSpec(sigma=(1, 0), beta=(0.7, -0.7))
    wrong = WireSpec(sigma=(1, 0), beta=(0.1, -0.1))
    report = verify_wire(make_wire(spec), wrong)
    assert not report["passed"]
    assert report["max_residual"] > 1e-3


def test_two_link_ring_wire():
    # endpoints (a1, a2, b1, b2); ring: b1~a2 and b2~a1
    spec = WireSpec(sigma=(3, 2, 1, 0), beta=(0.0, 0.0, 0.0, 0.0))
    U = make_wire(spec)
    report = verify_wire(U, spec)
    assert report["passed"] and not report["degenerate"]
    assert isotropy_residual(U) <= 1e-12


def test_compose():
    rng = np.random.default_rng(29)
    U1, U2 = random_unitary(4, rng), random_unitary(4, rng)
    assert np.allclose(compose(U1, U2).matrix, U1.matrix @ U2.matrix)
    with pytest.raises(ValueError):
        compose(U1, random_unitary(2, rng))


def test_cayley_operator_requires_hermitian():
    with pytest.raises(ValueError):
        CayleyOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="not Hermitian.*= nan"):
        CayleyOperator(np.array([[np.nan, 0.0], [0.0, 1.0]]))
