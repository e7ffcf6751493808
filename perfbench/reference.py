"""Reference values computed without qwire.

Every check the benchmark makes compares qwire's output with one of these:
closed forms, a root the benchmark finds itself, or a Chebyshev collocation
solver that shares no code or method with qwire's shooting solver
(fundamental solutions + sigma_min of M(U, lam)) or its finite-difference
oracle.  ``check_references.py`` validates them against the FD oracle.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg


def haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from the QR factors of a complex Gaussian."""
    z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def unitary_with_phases(phases, rng: np.random.Generator) -> np.ndarray:
    """Q diag(exp(i phases)) Q^H with a Haar-random eigenbasis Q."""
    q = haar_unitary(len(phases), rng)
    return (q * np.exp(1j * np.asarray(phases))) @ q.conj().T


def dirichlet_levels(length: float, count: int) -> list[float]:
    """Free Dirichlet interval: lam_k = (k pi / L)^2 / 2."""
    return [(k * math.pi / length) ** 2 / 2.0 for k in range(1, count + 1)]


def quasiperiodic_levels(theta: float, length: float, upto: float) -> list[float]:
    """Free ring of circumference L with twist theta: (2 pi (k + q) / L)^2 / 2, q = theta / 2pi."""
    q = theta / (2.0 * math.pi)
    kmax = int(upto ** 0.5 * length / math.pi) + 2
    lams = [(2.0 * math.pi * (k + q) / length) ** 2 / 2.0 for k in range(-kmax, kmax + 1)]
    return sorted(lam for lam in lams if lam <= upto)


def arc_length_levels(sqrt_eta, a: float, b: float, count: int) -> list[float]:
    """Dirichlet levels of a metric interval with V = 0: the Dirichlet levels of
    the free interval of length S = int_a^b sqrt(eta) dx (ds = sqrt(eta) dx
    turns H into -1/2 d^2/ds^2).  S by 64-point Gauss-Legendre quadrature."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
    S = 0.5 * (b - a) * float(np.sum(weights * sqrt_eta(x)))
    return dirichlet_levels(S, count)


def robin_edge_level(length: float, kappa: float) -> float:
    """Ground level -c^2/2 of the free interval with dpsi = kappa psi at both
    ends, where c tanh(c L / 2) = kappa; root by bisection on (kappa, 2 kappa)
    (valid for kappa L > 2)."""
    lo, hi = kappa, 2.0 * kappa
    f = lambda c: c * math.tanh(0.5 * c * length) - kappa  # noqa: E731
    if not (kappa * length > 2.0 and f(lo) <= 0.0 < f(hi)):
        raise ValueError("edge level not bracketed; needs kappa * L > 2")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    c = 0.5 * (lo + hi)
    return -0.5 * c * c


def _cheb(m: int, a: float, b: float):
    """Chebyshev points on [a, b] (ascending) and the differentiation matrix."""
    j = np.arange(m + 1)
    t = -np.cos(np.pi * j / m)                     # ascending on [-1, 1]
    c = np.where((j == 0) | (j == m), 2.0, 1.0) * (-1.0) ** j
    dt = t[:, None] - t[None, :]
    D = np.outer(c, 1.0 / c) / (dt + np.eye(m + 1))
    D -= np.diag(D.sum(axis=1))
    return a + 0.5 * (b - a) * (t + 1.0), D * (2.0 / (b - a))


def collocation_levels(U: np.ndarray, intervals, points: int = 64) -> np.ndarray:
    """Eigenvalues of -1/2 u'' + V u = lam u (eta = 1) on a union of intervals
    under (psi - i dpsi) = U (psi + i dpsi), sorted ascending.

    ``intervals`` lists (a, b, V) with V a vectorised callable.  Interior
    collocation rows carry the equation; the 2n endpoint rows are replaced by
    the boundary condition (I - U) psi - i (I + U) dpsi = 0, which covers
    every U including Dirichlet.  The generalized problem A u = lam B u (B
    singular on the boundary rows) is solved densely; only the finite
    eigenvalues are returned.  Accurate to ~1e-10 for smooth low modes with
    the default 64 points per interval.
    """
    n = len(intervals)
    m = points
    size = n * (m + 1)
    A = np.zeros((size, size), dtype=complex)
    B = np.zeros((size, size))
    ends = []                                       # (row, D row) per endpoint
    for k, (a, b, V) in enumerate(intervals):
        x, D = _cheb(m, a, b)
        o = k * (m + 1)
        blk = slice(o, o + m + 1)
        A[blk, blk] = -0.5 * (D @ D) + np.diag(V(x))
        B[blk, blk] = np.eye(m + 1)
        ends.append((o, -D[0], o, o + m, D[m], o + m))
    # psi = (u(a_1..a_n), u(b_1..b_n)), dpsi the outward derivatives
    psi = np.zeros((2 * n, size))
    dpsi = np.zeros((2 * n, size))
    rows = []
    for k, (ra, da, oa, rb, db, ob) in enumerate(ends):
        psi[k, ra] = 1.0
        psi[n + k, rb] = 1.0
        dpsi[k, oa:oa + m + 1] = da
        dpsi[n + k, ob - m:ob + 1] = db
        rows += [ra, rb]
    eye = np.eye(2 * n)
    bc_rows = (eye - U) @ psi - 1j * (eye + U) @ dpsi
    order = list(range(n)) + list(range(n, 2 * n))
    target = [ends[k][0] for k in range(n)] + [ends[k][3] for k in range(n)]
    for r, i in zip(target, order):
        A[r] = bc_rows[i]
        B[r] = 0.0
    vals = scipy.linalg.eigvals(A, B)
    vals = vals[np.isfinite(vals)]
    vals = vals[np.abs(vals.imag) <= 1e-6 * np.maximum(1.0, np.abs(vals.real))]
    return np.sort(vals.real)
