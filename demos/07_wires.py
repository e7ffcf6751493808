"""Quantum wires: glue endpoints of two intervals into a ring and recover
the periodic circle spectrum.

Two free intervals [0, pi] have four endpoints ordered (a1, a2, b1, b2).
The permutation (4 3 2 1) in 1-based indexing welds b2 to a1 and b1 to a2,
forming a ring of circumference 2pi, so the spectrum must equal that of
the periodic interval [0, 2pi]: 0, 1/2, 1/2, 2, 2, ...
"""

import math

import numpy as np

from qwire import bc, spectral
from qwire.domain import Interval, QuantumDomain

spec_wire = bc.WireSpec(sigma=(3, 2, 1, 0), beta=(0.0, 0.0, 0.0, 0.0))
U_ring = bc.make_wire(spec_wire)

report = bc.verify_wire(U_ring, spec_wire)
print(f"wire verification: passed={report['passed']}, "
      f"max residual {report['max_residual']:.2e}")

two = QuantumDomain([Interval(0.0, math.pi), Interval(0.0, math.pi)])
one = QuantumDomain([Interval(0.0, 2.0 * math.pi)])
opts = spectral.SolveOptions()

ring = spectral.find_eigenvalues(U_ring, two, (-0.2, 4.8), opts)
circle = spectral.find_eigenvalues(bc.make_quasiperiodic(0.0), one, (-0.2, 4.8), opts)

ring_flat = np.array([lam for lam, _, _ in ring.flat()])
circle_flat = np.array([lam for lam, _, _ in circle.flat()])
m = min(ring_flat.size, circle_flat.size)
print("ring:   ", "  ".join(f"{v:.8f}" for v in ring_flat[:m]))
print("circle: ", "  ".join(f"{v:.8f}" for v in circle_flat[:m]))
assert np.max(np.abs(ring_flat[:m] - circle_flat[:m])) <= 1e-7
print("glued two-link ring reproduces the periodic circle to 1e-7")
