"""Configuration space: disjoint unions of metric intervals and boundary data.

The configuration space is an ordered union of closed intervals, each carrying
a positive metric weight eta(x) and a potential V(x).  Boundary data of a wave
function consists of its values at the 2n endpoints and the outward normal
derivatives, organised as (all left endpoints; all right endpoints).

Sign convention for the normal derivative traces:

    dpsi_l[k] = -eta(a_k)**-0.5 * Psi_k'(a_k)
    dpsi_r[k] = +eta(b_k)**-0.5 * Psi_k'(b_k)

which reduces to the plain (-Psi'(a), +Psi'(b)) convention when eta == 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr
from .expr import Expr

__all__ = [
    "Interval",
    "QuantumDomain",
    "BoundaryTrace",
    "DomainError",
    "validate_domain",
    "lagrange_form",
]

_ONE = expr.parse("1")
_ZERO = expr.parse("0")


class DomainError(Exception):
    """Invalid configuration-space data (bad endpoints, non-positive metric, ...)."""


def _as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, str):
        return expr.parse(value)
    return expr.parse(repr(float(value)))


@dataclass(frozen=True)
class Interval:
    """A closed interval [a, b] with metric weight and potential expressions."""

    a: float
    b: float
    metric: Expr = field(default=_ONE)
    potential: Expr = field(default=_ZERO)

    def __post_init__(self):
        object.__setattr__(self, "metric", _as_expr(self.metric))
        object.__setattr__(self, "potential", _as_expr(self.potential))
        if not self.a < self.b:
            raise DomainError(f"interval endpoints must satisfy a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class QuantumDomain:
    """Ordered union of n intervals; the boundary has dimension 2n."""

    intervals: tuple[Interval, ...]

    def __init__(self, intervals):
        ivs = tuple(intervals)
        if len(ivs) < 1:
            raise DomainError("a domain needs at least one interval")
        object.__setattr__(self, "intervals", ivs)

    @property
    def n(self) -> int:
        return len(self.intervals)

    @property
    def boundary_dim(self) -> int:
        return 2 * len(self.intervals)


@dataclass(frozen=True)
class BoundaryTrace:
    """Endpoint values and outward normal derivatives of a wave function."""

    psi_l: np.ndarray
    psi_r: np.ndarray
    dpsi_l: np.ndarray
    dpsi_r: np.ndarray

    @property
    def psi(self) -> np.ndarray:
        return np.concatenate([self.psi_l, self.psi_r])

    @property
    def dpsi(self) -> np.ndarray:
        return np.concatenate([self.dpsi_l, self.dpsi_r])


def validate_domain(domain: QuantumDomain, grid_points: int = 64) -> dict:
    """Check metric positivity and coefficient finiteness on a uniform grid.

    Returns a report dict with per-interval extrema.  Raises
    :class:`DomainError` on a non-positive metric value or a non-finite
    coefficient.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    report = {"intervals": [], "ok": True}
    for k, iv in enumerate(domain.intervals):
        xs = np.linspace(iv.a, iv.b, grid_points)
        try:
            eta = expr.evaluate(iv.metric, xs)
            pot = expr.evaluate(iv.potential, xs)
        except expr.EvalDomainError as err:
            raise DomainError(f"interval {k}: non-finite coefficient: {err}") from err
        if np.any(eta <= 0.0):
            x_bad = xs[int(np.argmin(eta))]
            raise DomainError(f"interval {k}: metric is not positive at x={x_bad:.6g}")
        report["intervals"].append(
            {"eta_min": float(eta.min()), "eta_max": float(eta.max()),
             "V_min": float(pot.min()), "V_max": float(pot.max())}
        )
    return report


def lagrange_form(t1, t2) -> complex:
    """Boundary form <psi1, dpsi2> - <dpsi1, psi2> on C^{2n} data pairs.

    Arguments are (psi, dpsi) pairs of equal-length complex vectors (or
    :class:`BoundaryTrace` values).  The inner product is conjugate-linear in
    the first slot.  Self-adjoint boundary conditions are exactly the maximal
    subspaces on which this form vanishes.
    """
    psi1, dpsi1 = _as_pair(t1)
    psi2, dpsi2 = _as_pair(t2)
    if psi1.shape != psi2.shape or dpsi1.shape != dpsi2.shape or psi1.shape != dpsi1.shape:
        raise ValueError("boundary data dimension mismatch")
    return complex(np.vdot(psi1, dpsi2) - np.vdot(dpsi1, psi2))


def _as_pair(t):
    if isinstance(t, BoundaryTrace):
        return t.psi, t.dpsi
    psi, dpsi = t
    return np.asarray(psi, dtype=complex), np.asarray(dpsi, dtype=complex)
