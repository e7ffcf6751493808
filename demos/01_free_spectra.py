"""Spectra of the free particle on [0, 2pi] under four classic boundary
conditions, compared against the exact closed forms.

Dirichlet / Neumann:  lambda_k = k^2 / 8
Periodic:             lambda_k = k^2 / 2, doubly degenerate for k >= 1
Quasiperiodic(theta): lambda_k = (k + theta / 2pi)^2 / 2, k in Z
"""

import math

from qwire import bc, spectral
from qwire.domain import Interval, QuantumDomain

L = 2.0 * math.pi
dom = QuantumDomain([Interval(0.0, L)])
opts = spectral.SolveOptions()


def show(name, boundary, lam_range, expected):
    spec = spectral.find_eigenvalues(boundary, dom, lam_range, opts)
    flat = [lam for lam, _, _ in spec.flat()][: len(expected)]
    print(f"{name:>22}: ", "  ".join(f"{lam:.6f}" for lam in flat))
    for got, want in zip(flat, expected):
        assert abs(got - want) <= 1e-8, (name, got, want)


show("Dirichlet", bc.make_dirichlet(1), (0.01, 3.0),
     [k * k / 8.0 for k in range(1, 5)])
show("Neumann", bc.make_neumann(1), (-0.2, 3.0),
     [k * k / 8.0 for k in range(0, 5)])
show("periodic", bc.make_quasiperiodic(0.0), (-0.2, 3.0),
     [0.0, 0.5, 0.5, 2.0, 2.0])
theta = math.pi / 3.0
q = theta / (2.0 * math.pi)
show(f"quasiperiodic {theta:.3f}", bc.make_quasiperiodic(theta), (-0.1, 3.0),
     sorted((k + q) ** 2 / 2.0 for k in range(-3, 4))[:5])

print("all spectra match the closed forms to 1e-8")
