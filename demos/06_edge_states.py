"""Edge states of the rotated Dirichlet condition exp(it)(-I) on [0, pi].

For small t the rotated condition is the Robin condition
dpsi = cot(t/2) psi, which binds a state of energy ~ -cot(t/2)^2 / 2
localized at the boundary.  The scan shows the level diving and the
probability mass concentrating in the 10% boundary collar as t -> 0.
"""

import math

from qwire import bc, edge, oracle, spectral
from qwire.domain import Interval, QuantumDomain

dom = QuantumDomain([Interval(0.0, math.pi)])
dirichlet = bc.make_dirichlet(1)

t_list = [1.0, 0.5, 0.2]
scan = edge.edge_scan(dirichlet, dom, t_list,
                      opts=spectral.SolveOptions())

print("t      lambda_min      collar mass   Robin oracle")
for t, lam, mass in zip(scan.t_values, scan.lam_min, scan.collar_mass):
    ref = oracle.robin_edge_groundstate(math.pi, 1.0 / math.tan(t / 2.0))
    print(f"{t:<5.2f}  {lam:< 14.8f}  {mass:.4f}        {ref:< 14.8f}")
    assert abs(lam - ref) <= 1e-6 * abs(ref)

assert scan.all_negative and scan.monotone_decreasing
assert scan.collar_mass[-1] > scan.collar_mass[0]
ratio = scan.lam_min[-1] * 2.0 * math.tan(t_list[-1] / 2.0) ** 2
print(f"\nlambda * 2 tan^2(t/2) at t={t_list[-1]}: {ratio:.4f}  (-> -1 as t -> 0)")
print("edge scan matches the Robin closed form to 1e-6")
