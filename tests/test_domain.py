"""Configuration-space and boundary-form tests."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qwire.domain import (
    BoundaryTrace,
    DomainError,
    Interval,
    QuantumDomain,
    lagrange_form,
    validate_domain,
)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
cvec = st.lists(st.tuples(finite, finite), min_size=2, max_size=2).map(
    lambda pairs: np.array([complex(a, b) for a, b in pairs])
)


def test_interval_requires_increasing_endpoints():
    with pytest.raises(DomainError):
        Interval(1.0, 1.0)
    with pytest.raises(DomainError):
        Interval(2.0, -1.0)


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf),
                                  (0.0, math.nan)])
def test_interval_requires_finite_endpoints(a, b):
    with pytest.raises(DomainError, match="must be finite"):
        Interval(a, b)


def test_interval_accepts_expression_strings_and_numbers():
    iv = Interval(0.0, 1.0, metric="1 + x^2", potential=3)
    assert iv.metric(0.5) == pytest.approx(1.25)
    assert iv.potential(0.9) == 3.0
    assert iv.length == 1.0


def test_domain_needs_at_least_one_interval():
    with pytest.raises(DomainError):
        QuantumDomain([])
    dom = QuantumDomain([Interval(0, 1), Interval(0, 2)])
    assert dom.n == 2
    assert dom.boundary_dim == 4


def test_validate_domain_reports_extrema():
    dom = QuantumDomain([Interval(0.0, math.pi, "2", "sin(x)")])
    report = validate_domain(dom, 201)
    assert report["ok"]
    box = report["intervals"][0]
    assert box["eta_min"] == box["eta_max"] == 2.0
    assert box["V_min"] == pytest.approx(0.0, abs=1e-12)
    assert box["V_max"] == pytest.approx(1.0, abs=1e-4)


def test_validate_domain_rejects_nonpositive_metric():
    dom = QuantumDomain([Interval(0.0, 2.0, "x - 1", "0")])
    with pytest.raises(DomainError, match="not positive"):
        validate_domain(dom)


def test_validate_domain_rejects_nonfinite_coefficients():
    dom = QuantumDomain([Interval(-1.0, 1.0, "1", "1/x")])
    with pytest.raises(DomainError, match="non-finite"):
        validate_domain(dom, 65)


@given(cvec, cvec, cvec, cvec)
def test_lagrange_form_antisymmetry(p1, d1, p2, d2):
    s12 = lagrange_form((p1, d1), (p2, d2))
    s21 = lagrange_form((p2, d2), (p1, d1))
    scale = max(abs(s12), 1.0)
    assert abs(s12 + np.conj(s21)) <= 1e-12 * scale


def test_lagrange_form_sesquilinearity():
    rng = np.random.default_rng(7)
    p1, d1, p2, d2 = (rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(4))
    c = 2.0 - 0.5j
    a = lagrange_form((c * p1, c * d1), (p2, d2))
    b = np.conj(c) * lagrange_form((p1, d1), (p2, d2))
    assert a == pytest.approx(b)


def test_boundary_trace_concatenation_order():
    t = BoundaryTrace(psi_l=np.array([1.0]), psi_r=np.array([2.0]),
                      dpsi_l=np.array([3.0]), dpsi_r=np.array([4.0]))
    assert np.array_equal(t.psi, [1.0, 2.0])
    assert np.array_equal(t.dpsi, [3.0, 4.0])
    # the form on traces matches the tuple form
    s = lagrange_form(t, t)
    assert s == pytest.approx(lagrange_form((t.psi, t.dpsi), (t.psi, t.dpsi)))


def test_lagrange_form_dimension_mismatch():
    with pytest.raises(ValueError):
        lagrange_form((np.ones(2), np.ones(2)), (np.ones(3), np.ones(3)))
