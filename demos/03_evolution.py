"""Unitary evolution of a moving Gaussian packet on the periodic interval
[0, 2pi]: expand in the eigenbasis, apply exp(-i t lambda), and watch the
norm stay put.
"""

import math

import numpy as np

from qwire import bc, spectral
from qwire.domain import Interval, QuantumDomain

dom = QuantumDomain([Interval(0.0, 2.0 * math.pi)])
U = bc.make_quasiperiodic(0.0)

# Eigenbasis through |k| <= 8 (lambda = k^2 / 2 <= 32).
spec = spectral.find_eigenvalues(U, dom, (-0.5, 33.0),
                                 spectral.SolveOptions())
modes = sum(e.multiplicity for e in spec.eigs)
print(f"eigenbasis: {modes} modes up to lambda = {spec.eigs[-1].lam:.1f}")

xs = spec.eigs[0].xs
initial = np.exp(-4.0 * (xs - math.pi) ** 2) * np.exp(2j * xs)
times = np.linspace(0.0, 10.0, 21)
report = spectral.evolve(U, dom, spec, initial, times)

print(f"truncation residual: {report['truncation_residual']:.2e}")
print(f"norm drift over {len(times)} times: {report['norm_drift']:.2e}")
assert report["norm_drift"] <= 1e-10

# The packet's center of mass moves with group velocity ~2 (momentum kick 2).
h = xs[0][1] - xs[0][0]
for i in (0, 5, 10):
    dens = np.abs(report["samples"][i][0]) ** 2
    mean = np.angle(np.sum(dens * np.exp(1j * xs[0])) ) % (2 * math.pi)
    print(f"t = {times[i]:5.2f}: circular mean position {mean:.3f}")
print("evolution is unitary to 1e-10")
