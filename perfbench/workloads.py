"""The benchmark's workloads: inputs generated from a seed, operations, checks.

A workload is a list of operations.  Each operation is one call into qwire
(``find_eigenvalues``, ``edge_scan``, ``evolve``, ``fd_spectrum`` or
``cli.run``) on inputs made here, plus a check of its output against a
computation made apart from qwire (``reference.py``) or a property the
method must have.  Checks are not timed and run with tracing off.

qwire is reached as ``qw.<module>.<function>`` at call time, so the tracer's
wrappers catch every call; ``qw`` is the package as imported by the set-up
that generated the operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref

TWO_PI = 2.0 * math.pi
FD_N = 1200
FD_CHECK_N = 600      # the untimed FD cross-check of variable-spectra
VAR_GRID = 30         # the sigma_min scans of variable-spectra
HO_GRID = 15          # the deep-tunnelling scan: it finds nothing on any grid


class CheckFailed(Exception):
    """The output of an operation disagrees with its reference."""


@dataclass
class Op:
    name: str
    run: Callable[[dict], Any]          # receives the results of earlier ops in the round
    check: Callable[[Any, dict], int]   # returns the eigenvalues verified; raises CheckFailed
    known_fault: bool = False           # fails today on fixed inputs; see README


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _flat(spectrum) -> np.ndarray:
    return np.array([lam for lam, _, _ in spectrum.flat()])


def _mults(spectrum) -> list[int]:
    return [e.multiplicity for e in spectrum.eigs]


def _expect_levels(got, want, tol: float, what: str) -> int:
    """Every level of ``want`` found once, nothing else; returns the count."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    _require(len(got) == len(want), f"{what}: {len(got)} levels, expected {len(want)}")
    err = float(np.max(np.abs(got - want), initial=0.0))
    _require(err <= tol, f"{what}: max error {err:.3e} > {tol:.1e}")
    return len(want)


def _expect_spectrum(spectrum, mults: list[int], want, tol: float, what: str) -> int:
    """Exact multiplicities, then every level (counted with multiplicity) to ``tol``."""
    _require(_mults(spectrum) == mults, f"{what}: multiplicities {_mults(spectrum)}")
    return _expect_levels(_flat(spectrum), want, tol, what)


def _levels_in(levels, lo: float, hi: float) -> np.ndarray:
    levels = np.asarray(levels)
    return levels[(levels > lo) & (levels < hi)]


def _traces_admissible(U: np.ndarray, spectrum, tol: float) -> None:
    """(psi - i dpsi) = U (psi + i dpsi) for every returned eigenfunction.  The
    tolerance is 1e-8 with closed-form propagators (as in test_04) and the
    solver's sigma_tol, 1e-6, with an integrated one."""
    for e in spectrum.eigs:
        for psi, dpsi in zip(e.psi, e.dpsi):
            res = np.linalg.norm((psi - 1j * dpsi) - U @ (psi + 1j * dpsi))
            scale = np.linalg.norm(psi) + np.linalg.norm(dpsi)
            _require(res <= tol * scale, f"boundary traces violate U: {res / scale:.2e}")


def _phases_off_minus_one(m: int, rng: np.random.Generator) -> np.ndarray:
    """Random U(m) whose eigenphases keep 1 rad from pi: Robin-reducible with
    |A| <= cot(1/2), so no level is a deep edge state."""
    return ref.unitary_with_phases(rng.uniform(-math.pi + 1.0, math.pi - 1.0, size=m), rng)


def _positive_robin(m: int, rng: np.random.Generator) -> np.ndarray:
    """Random U(m) with eigenphases in (0, pi - 1): Robin matrix 0 < A <= cot(1/2),
    so with V >= 0 every level is positive and the eigenvalue ODE is never
    solved at lam < 0, where the two-sided launch doubles the cost of a call
    and would make the time depend on the seed."""
    return ref.unitary_with_phases(rng.uniform(0.0, math.pi - 1.0, size=m), rng)


def _fd_agrees(got, lams, est) -> np.ndarray:
    """Mask of levels within the FD oracle's Richardson estimate.  The estimate
    |lam_N - lam_2N| / 3 can read below the true error when the two
    resolutions agree by accident (1.0e-10 against 1.8e-10 seen), so a floor
    of 1e-8 relative stands in for it there."""
    got = np.asarray(got)
    return np.abs(got - lams) <= est + 1e-8 * np.maximum(1.0, np.abs(got))


def _x2(x):
    return 0.5 * x * x


def _zero(x):
    return 0.0 * x


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# free-spectra

def free_spectra(qw, rng: np.random.Generator, out: Path) -> list[Op]:
    bc = qw.bc
    Interval, Domain = qw.domain.Interval, qw.domain.QuantumDomain
    SO = qw.spectral.SolveOptions
    free = Domain([Interval(0.0, TWO_PI)])
    half = Domain([Interval(0.0, math.pi)])
    ring = Domain([Interval(0.0, math.pi), Interval(0.0, math.pi)])
    lengths = [1.0, 1.3, 0.7]
    unions = [Domain([Interval(0.0, L) for L in lengths[:n]]) for n in (1, 2, 3)]
    for dom in [free, half, ring] + unions:
        qw.domain.validate_domain(dom)
    ops: list[Op] = []

    def solve(name, U, dom, lam_range, opts, check):
        ops.append(Op(name, lambda r: qw.spectral.find_eigenvalues(U, dom, lam_range, opts),
                      check))

    grid400 = SO(grid=400)
    solve("dirichlet", bc.make_dirichlet(1), free, (0.01, 4.8), grid400,
          lambda s, r: _expect_spectrum(s, [1] * 6, [k * k / 8.0 for k in range(1, 7)],
                                        1e-8, "dirichlet"))
    solve("neumann", bc.make_neumann(1), free, (-0.2, 3.4), grid400,
          lambda s, r: _expect_spectrum(s, [1] * 6, [0.0] + [k * k / 8.0 for k in range(1, 6)],
                                        1e-8, "neumann"))
    periodic_want = ref.quasiperiodic_levels(0.0, TWO_PI, 4.8)
    solve("periodic", bc.make_quasiperiodic(0.0), free, (-0.2, 4.8), grid400,
          lambda s, r: _expect_spectrum(s, [1, 2, 2, 2], periodic_want, 1e-8, "periodic"))

    theta = float(rng.uniform(0.5, math.pi - 0.5))
    qp_want = ref.quasiperiodic_levels(theta, TWO_PI, 30.0)[:7]
    qp_range = (-0.1, 0.5 * (qp_want[5] + qp_want[6]))
    solve("quasiperiodic", bc.make_quasiperiodic(theta), free, qp_range, grid400,
          lambda s, r: _expect_spectrum(s, [1] * 6, qp_want[:6], 1e-8, "quasiperiodic"))

    # test_04's problem, with two changes that keep every seed passing: the
    # eigenphases keep 1 rad from pi, and the window starts half a unit below
    # the lowest level instead of at 0.2.  The check asks for a level of the
    # reference, not the lowest: a level within one grid step of the window's
    # end or of its neighbour is dropped silently (see CHANGES.md).
    for n, dom in zip((1, 2, 3), unions):
        U = _phases_off_minus_one(2 * n, rng)
        levels = ref.collocation_levels(U, [(0.0, L, _zero) for L in lengths[:n]], 48)

        def check_random(s, r, U=U, levels=levels):
            _require(len(s.eigs) == 1, f"{len(s.eigs)} eigenvalues, expected 1")
            e = s.eigs[0]
            near = np.abs(levels - e.lam) <= 1e-7 * max(1.0, abs(e.lam))
            _require(bool(near.any()), f"{e.lam!r} is no level of the reference")
            _require(e.multiplicity == int(near.sum()),
                     f"multiplicity {e.multiplicity}, reference {int(near.sum())}")
            _traces_admissible(U, s, 1e-8)
            return e.multiplicity
        solve(f"random-u{2 * n}", bc.UnitaryBC(U), dom, (levels[0] - 0.5, 14.0),
              SO(grid=150, max_eigs=1), check_random)

    wire = bc.make_wire(bc.WireSpec(sigma=(3, 2, 1, 0), beta=(0.0,) * 4))

    def check_ring(s, r):
        per = r.get("periodic")
        _require(per is not None, "periodic operation failed")
        ring_flat, per_flat = _flat(s), _flat(per)
        _require(len(ring_flat) == len(per_flat), "ring and circle differ in count")
        _require(float(np.max(np.abs(ring_flat - per_flat))) <= 1e-7, "ring != circle")
        return _expect_levels(ring_flat, periodic_want, 1e-7, "ring")
    solve("wire-ring", wire, ring, (-0.2, 4.8), SO(grid=500), check_ring)

    t_list = [1.0, 0.5, 0.2, 0.1]

    def check_edge(scan, r):
        _require(scan.all_negative and scan.monotone_decreasing, "edge levels not descending")
        for t, lam in zip(scan.t_values, scan.lam_min):
            want = ref.robin_edge_level(math.pi, 1.0 / math.tan(t / 2.0))
            _require(abs(lam - want) <= 1e-6 * abs(want), f"edge level at t={t}: {lam!r} vs {want!r}")
        mass = dict(zip(scan.t_values, scan.collar_mass))
        _require(mass[0.5] > 0.5 and mass[0.2] > 0.8 and mass[0.1] > 0.9, f"collar mass {mass}")
        return len(t_list)
    dirichlet_half = bc.make_dirichlet(1)
    ops.append(Op("edge-scan", lambda r: qw.edge.edge_scan(
        dirichlet_half, half, t_list, opts=SO(grid=2000)), check_edge))

    big_want = ref.quasiperiodic_levels(0.0, TWO_PI, 530.0)
    solve("periodic-65-modes", bc.make_quasiperiodic(0.0), free, (-0.5, 530.0), SO(grid=12000),
          lambda s, r: _expect_spectrum(s, [1] + [2] * 32, big_want, 1e-7, "periodic-65"))

    center = float(rng.uniform(2.6, 3.7))
    kick = int(rng.integers(1, 4))
    times = np.linspace(0.0, 20.0, 100)
    periodic_u = bc.make_quasiperiodic(0.0)

    def run_evolve(r):
        spectrum = r.get("periodic-65-modes")
        if spectrum is None:
            raise CheckFailed("the eigenbasis operation failed")
        xs = spectrum.eigs[0].xs
        initial = (np.exp(-4.0 * (xs - center) ** 2) * np.exp(1j * kick * xs)).astype(complex)
        return qw.spectral.evolve(periodic_u, free, spectrum, initial, times), xs

    def check_evolve(result, r):
        report, xs = result
        _require(report["norm_drift"] <= 1e-10, f"norm drift {report['norm_drift']:.2e}")
        _require(report["truncation_residual"] <= 1e-6,
                 f"truncation {report['truncation_residual']:.2e}")
        # exact free evolution on the circle by FFT of the same samples
        x = xs[0][:-1]
        coef = np.fft.fft(np.exp(-4.0 * (x - center) ** 2) * np.exp(1j * kick * x))
        k = np.fft.fftfreq(len(x), d=1.0 / len(x))
        for i, t in enumerate(times):
            exact = np.fft.ifft(coef * np.exp(-0.5j * k * k * t))
            err = float(np.max(np.abs(report["samples"][i][0][:-1] - exact)))
            _require(err <= 1e-6, f"evolved packet off by {err:.2e} at t={t:.3g}")
        return 0
    ops.append(Op("evolve", run_evolve, check_evolve))

    ops.append(_cli_eigenfunctions(qw, rng, out))
    ops.append(_cli_maslov(qw, rng, out))
    # the short operations go between the two long ones, so that op_p50_s
    # samples three stretches of each round, not one
    order = ["dirichlet", "neumann", "periodic", "edge-scan", "quasiperiodic", "wire-ring",
             "random-u2", "periodic-65-modes", "evolve", "random-u4", "random-u6",
             "cli-eigenfunctions", "cli-maslov"]
    return sorted(ops, key=lambda op: order.index(op.name))


def _cli_eigenfunctions(qw, rng, out: Path) -> Op:
    """`qwire eigenfunctions` on a config file with a random U(2) on [0, 2 pi]."""
    # written in the config's u2 form exp(i theta/2) [[alpha, beta], [-conj(beta), conj(alpha)]]
    U = _phases_off_minus_one(2, rng)
    theta = float(np.angle(np.linalg.det(U)))
    alpha, beta = np.exp(-0.5j * theta) * U[0]
    levels = ref.collocation_levels(U, [(0.0, TWO_PI, _zero)])
    lo, hi = levels[0] - 0.5, 0.5 * (levels[3] + levels[4])
    want = _levels_in(levels, lo, hi)
    config = out / "eigenfunctions.cfg"
    config.write_text(
        "[interval]\na = 0\nb = 6.283185307179586\nmetric = 1\npotential = 0\n\n"
        f"[bc]\nkind = u2\ntheta = {_fmt(theta)}\n"
        f"alpha_re = {_fmt(alpha.real)}\nalpha_im = {_fmt(alpha.imag)}\n"
        f"beta_re = {_fmt(beta.real)}\nbeta_im = {_fmt(beta.imag)}\n\n"
        f"[solve]\nlambda_min = {_fmt(lo)}\nlambda_max = {_fmt(hi)}\ngrid = 300\n",
        encoding="utf-8")
    result = out / "eigenfunctions.out"
    argv = ["eigenfunctions", "--config", str(config), "--output", str(result)]

    def run(r):
        code = qw.cli.run(argv)
        return code, result.read_text(encoding="utf-8")

    def check(res, r):
        code, text = res
        _require(code == 0, f"exit code {code}")
        lines = text.splitlines()
        _require(lines[0] == "# qwire-eigenfunctions v1", "bad header")
        funcs: dict[tuple[float, int], list[complex]] = {}
        for line in lines[2:]:
            lam, branch, _x, re, im = line.split()
            funcs.setdefault((float(lam), int(branch)), []).append(complex(float(re), float(im)))
        lams = sorted(lam for lam, _ in funcs)
        count = _expect_levels(lams, want, 1e-7, "eigenfunctions levels")
        m = 257
        w = np.ones(m)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        w *= TWO_PI / (m - 1) / 3.0
        vecs = [np.array(v) for v in funcs.values()]
        for a, f in enumerate(vecs):
            _require(len(f) == m, f"{len(f)} samples, expected {m}")
            for b, g in enumerate(vecs[: a + 1]):
                ip = complex(np.sum(w * np.conj(f) * g))
                target = 1.0 if a == b else 0.0
                _require(abs(ip - target) <= 1e-6, f"<psi_{a}, psi_{b}> = {ip:.3e}")
        return count
    return Op("cli-eigenfunctions", run, check)


def _cli_maslov(qw, rng, out: Path) -> Op:
    """`qwire maslov` on a curve file: a U(4) loop whose eigenphases wind ks times."""
    ks = rng.integers(-3, 4, size=4)
    phis = rng.uniform(0.05, TWO_PI - 0.05, size=4)
    Q = ref.haar_unitary(4, rng)
    samples = 320
    thetas = np.linspace(0.0, TWO_PI, samples + 1)
    lines = [f"{samples} 2"]
    for th in thetas:
        M = (Q * np.exp(1j * (ks * th + phis))) @ Q.conj().T
        lines.append(_fmt(th))
        lines += [" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row) for row in M]
    curve = out / "loop.curve"
    curve.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = out / "maslov.out"
    argv = ["maslov", "--curve", str(curve), "--output", str(result)]

    def run(r):
        code = qw.cli.run(argv)
        return code, result.read_text(encoding="utf-8")

    def check(res, r):
        code, text = res
        _require(code == 0, f"exit code {code}")
        _require(text == f"index {int(ks.sum())}\n", f"{text.strip()!r}, winding {ks.sum()}")
        return 0
    return Op("cli-maslov", run, check)


# ---------------------------------------------------------------------------
# variable-spectra

def variable_spectra(qw, rng: np.random.Generator, out: Path) -> list[Op]:
    bc = qw.bc
    Interval, Domain = qw.domain.Interval, qw.domain.QuantumDomain
    SO = qw.spectral.SolveOptions
    x2 = Domain([Interval(0.0, TWO_PI, "1", "x^2/2")])
    metric = Domain([Interval(0.0, 2.0, "(1+0.3*x)^2", "0")])
    ho = Domain([Interval(-6.0, 6.0, "1", "x^2/2")])
    for dom in (x2, metric, ho):
        qw.domain.validate_domain(dom)
    ops: list[Op] = []

    # Two x^2/2 problems of one level each rather than test_03's one of five
    # on grid 300, and coarse scans throughout: a round of a few seconds, so
    # that a run holds several rounds to take the median of.
    for i in range(2):
        U = _positive_robin(2, rng)
        levels = ref.collocation_levels(U, [(0.0, TWO_PI, _x2)])
        window = (0.0, 0.5 * (levels[0] + levels[1]))
        U_bc = bc.UnitaryBC(U)
        fd_ref: dict = {}   # the FD cross-check, computed at the first check

        def check_x2(s, r, U=U, U_bc=U_bc, levels=levels, fd_ref=fd_ref):
            got = _flat(s)
            count = _expect_levels(got, levels[:1], 1e-7, "x^2/2 level")
            _traces_admissible(U, s, 1e-6)
            if not fd_ref:
                fd_ref["lams"], fd_ref["est"] = qw.oracle.fd_spectrum(
                    U_bc, x2, N=FD_CHECK_N, k=1)
            bad = ~_fd_agrees(got, fd_ref["lams"], fd_ref["est"])
            _require(not bad.any(),
                     f"outside the FD estimate: {got[bad]} vs {fd_ref['lams'][bad]}")
            return count
        ops.append(Op(f"x2-random-u2-{i + 1}", lambda r, U_bc=U_bc, window=window:
                      qw.spectral.find_eigenvalues(U_bc, x2, window,
                                                   SO(grid=VAR_GRID, max_eigs=1, rel_tol=1e-9)),
                      check_x2))

    metric_want = ref.arc_length_levels(lambda x: 1.0 + 0.3 * x, 0.0, 2.0, 2)
    metric_bc = bc.make_dirichlet(1)
    ops.append(Op("metric-dirichlet", lambda r: qw.spectral.find_eigenvalues(
        metric_bc, metric, (0.1, 0.5 * (metric_want[0] + metric_want[1])), SO(grid=VAR_GRID)),
        lambda s, r: _expect_levels(s.lams, metric_want[:1], 1e-7, "metric level")))

    # Deep tunnelling: [-6, 6] is classically forbidden at both ends and
    # allowed in the middle; the left-launched basis loses the decaying mode
    # and find_eigenvalues returns nothing, without an error.
    ho_bc = bc.make_dirichlet(1)
    ops.append(Op("ho-deep-tunnelling", lambda r: qw.spectral.find_eigenvalues(
        ho_bc, ho, (0.1, 4.8), SO(grid=HO_GRID)),
        lambda s, r: _expect_levels(s.lams, [n + 0.5 for n in range(5)], 1e-7, "oscillator"),
        known_fault=True))
    return ops


# ---------------------------------------------------------------------------
# fd-oracle

def fd_oracle(qw, rng: np.random.Generator, out: Path) -> list[Op]:
    bc = qw.bc
    Interval, Domain = qw.domain.Interval, qw.domain.QuantumDomain
    free = Domain([Interval(0.0, TWO_PI)])
    ho = Domain([Interval(-6.0, 6.0, "1", "x^2/2")])
    x2 = Domain([Interval(0.0, TWO_PI, "1", "x^2/2")])
    lengths = [1.0, 1.3, 0.7]
    union = Domain([Interval(0.0, L) for L in lengths])
    for dom in (free, ho, x2, union):
        qw.domain.validate_domain(dom)
    k = 5

    def fd(U, dom, N, want_fn, what):
        def check(res, r):
            lams, est = res
            want = np.asarray(want_fn())[:k]
            _require(bool(np.all(_fd_agrees(want, lams, est))),
                     f"{what}: errors {np.abs(lams - want)} exceed estimates {est}")
            return k
        return Op(what, lambda r: qw.oracle.fd_spectrum(U, dom, N=N, k=k), check)

    U_x2 = _positive_robin(2, rng)
    U_union = _positive_robin(6, rng)
    return [
        fd(bc.make_dirichlet(1), free, FD_N, lambda: ref.dirichlet_levels(TWO_PI, k),
           "fd-free-dirichlet"),
        fd(bc.make_dirichlet(1), ho, FD_N, lambda: [n + 0.5 for n in range(k)],
           "fd-oscillator"),
        fd(bc.UnitaryBC(U_x2), x2, FD_N,
           lambda: ref.collocation_levels(U_x2, [(0.0, TWO_PI, _x2)]), "fd-x2-robin-u2"),
        # N per interval scaled by 1/n: the matrices have the order of the
        # single-interval cases (3 x 1200 nodes would need ~0.8 GB per matrix)
        fd(bc.UnitaryBC(U_union), union, FD_N // 3,
           lambda: ref.collocation_levels(U_union, [(0.0, L, _zero) for L in lengths], 48),
           "fd-three-interval-robin"),
    ]


# the calibration kernel (calibration.py) that does the same kind of work
CALIBRATION = {
    "free-spectra": "interpreted",
    "variable-spectra": "ode",
    "fd-oracle": None,
}

WORKLOADS = {
    "free-spectra": free_spectra,
    "variable-spectra": variable_spectra,
    "fd-oracle": fd_oracle,
}
