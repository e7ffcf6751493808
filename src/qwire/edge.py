"""Edge-state scan for rotated boundary-condition families U_t = exp(i t) U.

Starting from a boundary condition with eigenvalue -1 (e.g. Dirichlet), the
rotated family develops a negative ground-state level for small t > 0 whose
eigenfunction concentrates near the boundary and whose energy diverges like
-cot(t/2)**2 / 2 as t drops to 0.  ``edge_scan`` tracks the lowest eigenvalue
and the boundary-collar probability mass along a descending list of t values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bc import UnitaryBC, cayley_degeneracy
from .domain import QuantumDomain
from .spectral import (Eigenpair, SolveOptions, _quad_weights, count_eigenvalues,
                       find_eigenvalues)

__all__ = ["EdgeScan", "rotate_bc", "edge_scan"]


@dataclass(frozen=True)
class EdgeScan:
    base: UnitaryBC
    t_values: tuple[float, ...]
    lam_min: tuple[float, ...]
    ground_states: tuple[Eigenpair, ...]
    collar_mass: tuple[float, ...]
    all_negative: bool
    monotone_decreasing: bool


def rotate_bc(U: UnitaryBC, t: float) -> UnitaryBC:
    """Phase rotation exp(i t) U of a boundary condition."""
    return UnitaryBC(np.exp(1j * t) * U.matrix)


def collar_fraction(domain: QuantumDomain, pair: Eigenpair, collar: float = 0.1) -> float:
    """Probability mass of the ground state within the boundary collar.

    The collar is the union of the outer ``collar`` fraction of each interval
    at both ends; mass is computed with the same Simpson quadrature used for
    normalization.
    """
    w = _quad_weights(domain, pair.xs)
    f = pair.samples[0]
    total = 0.0
    inside = 0.0
    for k, iv in enumerate(domain.intervals):
        width = collar * (iv.b - iv.a)
        mask = (pair.xs[k] <= iv.a + width) | (pair.xs[k] >= iv.b - width)
        dens = w[k] * np.abs(f[k]) ** 2
        total += float(np.sum(dens))
        inside += float(np.sum(dens[mask]))
    return inside / total


def edge_scan(U: UnitaryBC, domain: QuantumDomain, t_list,
              search_floor: float | None = None,
              opts: SolveOptions = SolveOptions(),
              lam_cap: float = 0.5) -> EdgeScan:
    """Track the lowest eigenvalue of exp(i t) U along descending t.

    Requires the base U to touch the Cayley subspace C- (eigenvalue -1) and
    all t in (0, pi/2].  For each t the lowest level below ``lam_cap`` is
    found above a floor with no level below it: ``search_floor`` if given
    (it must have none, else ValueError), otherwise min(0, lam_cap) - 1
    doubled downward until the count there is 0.
    """
    t_list = [float(t) for t in t_list]
    if cayley_degeneracy(U, -1) < 1:
        raise ValueError("base boundary condition has no eigenvalue -1")
    if any(not 0.0 < t <= math.pi / 2 for t in t_list):
        raise ValueError("t values must lie in (0, pi/2]")
    if sorted(t_list, reverse=True) != t_list:
        raise ValueError("t values must be given in descending order")

    lam_min, grounds, collar = [], [], []
    for t in t_list:
        Ut = rotate_bc(U, t)
        floor = min(0.0, lam_cap) - 1.0 if search_floor is None else search_floor
        while count_eigenvalues(Ut, domain, floor, opts)[0] > 0:
            if search_floor is not None:
                raise ValueError(f"levels lie below search_floor={floor} at t={t}")
            floor *= 2.0
        spectrum = find_eigenvalues(Ut, domain, (floor, lam_cap), opts)
        if not spectrum.eigs:
            raise RuntimeError(f"no eigenvalue found in ({floor}, {lam_cap}) at t={t}")
        lam_min.append(spectrum.eigs[0].lam)
        grounds.append(spectrum.eigs[0])
        collar.append(collar_fraction(domain, spectrum.eigs[0]))

    return EdgeScan(
        base=U, t_values=tuple(t_list), lam_min=tuple(lam_min),
        ground_states=tuple(grounds), collar_mass=tuple(collar),
        all_negative=all(l < 0.0 for l in lam_min),
        monotone_decreasing=all(b < a for a, b in zip(lam_min, lam_min[1:])),
    )
