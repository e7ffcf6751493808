"""Command-line front end: parse problem files, dispatch, write text outputs.

Subcommands: spectrum | eigenfunctions | evolve | maslov | edge-scan |
wire-check | oracle-compare.

Config file (line oriented, ``key = value``, ``#`` comments): one or more
``[interval]`` sections with keys a, b, metric, potential (expression
strings); one ``[bc]`` section with key kind in {dirichlet, neumann, robin,
unitary, wire, quasiperiodic, u2} plus kind-specific keys (file, theta,
alpha_re, alpha_im, beta_re, beta_im, perm, phases); an optional ``[solve]``
section with lambda_min (default -inf), lambda_max (default 10; inf needs
max_eigs) and max_eigs (grid and sigma_tol are deprecated: still parsed and
range-checked, they warn and have no effect).  Any other key, and a second
[bc] or [solve] section, is a parse error.

Matrix files: header line "n rows cols", then ``rows`` lines of whitespace-
separated complex entries "re,im".  Curve files: header "m n", then m+1
blocks of a theta line followed by the 2n x 2n complex matrix rows.

Numbers are serialized with 17 significant digits (bit-stable round trips);
complex values as "re,im".  Exit codes: 0 success, 2 usage error, 3 numeric
failure, 4 I/O or parse error.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings

import numpy as np

from . import bc, curves, edge, expr, oracle, spectral
from .domain import DomainError, Interval, QuantumDomain, validate_domain
from .odesolve import OdeError

__all__ = ["main", "run", "ConfigError", "format_spectrum"]

SPECTRUM_HEADER = "# qwire-spectra v1"


class ConfigError(Exception):
    """Malformed config, matrix, or curve file."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g},{z.imag:.17g}"


def _parse_complex(tok: str) -> complex:
    parts = tok.split(",")
    if len(parts) != 2:
        raise ConfigError(f"complex entry must be 're,im', got {tok!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as err:
        raise ConfigError(f"bad complex entry {tok!r}") from err


# ---------------------------------------------------------------------------
# file formats

def read_matrix(path: str) -> np.ndarray:
    """Read a complex matrix file: header "n rows cols", rows of "re,im"."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ConfigError(f"{path}: empty matrix file")
    head = lines[0].split()
    if len(head) != 3:
        raise ConfigError(f"{path}: header must be 'n rows cols'")
    try:
        n, rows, cols = (int(t) for t in head)
    except ValueError as err:
        raise ConfigError(f"{path}: non-integer header") from err
    if rows < 1 or cols < 1 or n < 1:
        raise ConfigError(f"{path}: header values must be positive")
    if len(lines) != 1 + rows:
        raise ConfigError(f"{path}: expected {rows} matrix rows, got {len(lines) - 1}")
    M = np.empty((rows, cols), dtype=complex)
    for i, ln in enumerate(lines[1:]):
        toks = ln.split()
        if len(toks) != cols:
            raise ConfigError(f"{path}: row {i + 1} has {len(toks)} entries, expected {cols}")
        M[i] = [_parse_complex(t) for t in toks]
    return M


def write_matrix(path: str, M: np.ndarray) -> None:
    M = np.asarray(M, dtype=complex)
    rows, cols = M.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{rows // 2} {rows} {cols}\n")
        for i in range(rows):
            fh.write(" ".join(_fmt_complex(z) for z in M[i]) + "\n")


def read_curve(path: str) -> curves.UnitaryCurve:
    """Read a curve file: header "m n", then m+1 theta blocks with matrices."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ConfigError(f"{path}: empty curve file")
    head = lines[0].split()
    if len(head) != 2:
        raise ConfigError(f"{path}: header must be 'm n'")
    try:
        m, n = int(head[0]), int(head[1])
    except ValueError as err:
        raise ConfigError(f"{path}: non-integer header") from err
    dim = 2 * n
    block = 1 + dim
    if len(lines) != 1 + (m + 1) * block:
        raise ConfigError(f"{path}: expected {(m + 1) * block} data lines, got {len(lines) - 1}")
    thetas, mats = [], []
    for j in range(m + 1):
        base = 1 + j * block
        try:
            thetas.append(float(lines[base]))
        except ValueError as err:
            raise ConfigError(f"{path}: bad theta in block {j}") from err
        M = np.empty((dim, dim), dtype=complex)
        for i in range(dim):
            toks = lines[base + 1 + i].split()
            if len(toks) != dim:
                raise ConfigError(f"{path}: block {j} row {i} has {len(toks)} entries")
            M[i] = [_parse_complex(t) for t in toks]
        mats.append(M)
    try:
        return curves.UnitaryCurve(thetas, mats)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


def write_curve(path: str, curve: curves.UnitaryCurve) -> None:
    m = len(curve.thetas) - 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m} {curve.dim // 2}\n")
        for theta, M in zip(curve.thetas, curve.matrices):
            fh.write(_fmt(theta) + "\n")
            for row in M:
                fh.write(" ".join(_fmt_complex(z) for z in row) + "\n")


# ---------------------------------------------------------------------------
# config parsing

# the keys each known section may hold
_SECTION_KEYS = {
    "interval": {"a", "b", "metric", "potential"},
    "bc": {"kind", "file", "theta", "alpha_re", "alpha_im", "beta_re", "beta_im", "perm",
           "phases"},
    "solve": {"lambda_min", "lambda_max", "max_eigs", "grid", "sigma_tol"},
}


def _parse_sections(path: str) -> list[tuple[str, dict]]:
    sections: list[tuple[str, dict]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                sections.append((line[1:-1].strip().lower(), {}))
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value' or a section header")
            if not sections:
                raise ConfigError(f"{path}:{lineno}: key outside any section")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key or not value:
                raise ConfigError(f"{path}:{lineno}: empty key or value")
            name = sections[-1][0]
            if name in _SECTION_KEYS and key not in _SECTION_KEYS[name]:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in [{name}]")
            if key in sections[-1][1]:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            sections[-1][1][key] = value
    return sections


def _require(section: dict, key: str, where: str) -> str:
    if key not in section:
        raise ConfigError(f"missing key {key!r} in [{where}] section")
    return section[key]


def _as_float(section: dict, key: str, where: str) -> float:
    try:
        return float(_require(section, key, where))
    except ValueError as err:
        raise ConfigError(f"key {key!r} in [{where}] is not a number") from err


class ProblemConfig:
    """Parsed problem file: domain, boundary condition, solve options."""

    def __init__(self, domain: QuantumDomain, boundary: bc.UnitaryBC,
                 lambda_range: tuple[float, float], options: spectral.SolveOptions):
        self.domain = domain
        self.boundary = boundary
        self.lambda_range = lambda_range
        self.options = options


def load_config(path: str) -> ProblemConfig:
    sections = _parse_sections(path)
    intervals: list[Interval] = []
    bc_section: dict | None = None
    solve_section: dict | None = None
    for name, body in sections:
        if name == "interval":
            try:
                intervals.append(Interval(
                    a=_as_float(body, "a", "interval"),
                    b=_as_float(body, "b", "interval"),
                    metric=body.get("metric", "1"),
                    potential=body.get("potential", "0"),
                ))
            except (ValueError, expr.SyntaxErrorAt) as err:
                raise ConfigError(f"bad [interval] section: {err}") from err
        elif name == "bc":
            if bc_section is not None:
                raise ConfigError("more than one [bc] section")
            bc_section = body
        elif name == "solve":
            if solve_section is not None:
                raise ConfigError("more than one [solve] section")
            solve_section = body
        else:
            raise ConfigError(f"unknown section [{name}]")
    if not intervals:
        raise ConfigError("config defines no [interval] section")
    if bc_section is None:
        raise ConfigError("config defines no [bc] section")
    solve_section = solve_section or {}

    domain = QuantumDomain(intervals)
    try:
        validate_domain(domain, 65)
    except DomainError as err:
        raise ConfigError(str(err)) from err
    boundary = _build_bc(bc_section, domain.n)
    if boundary.matrix.shape[0] != 2 * domain.n:
        raise ConfigError(
            f"boundary condition is {boundary.matrix.shape[0]}x{boundary.matrix.shape[0]} "
            f"but the domain has {domain.n} interval(s)"
        )

    def number(kind, key):
        return kind(solve_section[key]) if key in solve_section else None

    try:
        lo = float(solve_section.get("lambda_min", -math.inf))
        hi = float(solve_section.get("lambda_max", 10.0))
        grid, sigma_tol = number(int, "grid"), number(float, "sigma_tol")
        max_eigs = number(int, "max_eigs")
    except ValueError as err:
        raise ConfigError(f"bad [solve] section: {err}") from err
    if not lo < hi:
        raise ConfigError(f"bad [solve] section: lambda_min {lo} must be below lambda_max {hi}")
    if grid is not None and grid < 3:
        raise ConfigError(f"bad [solve] section: grid must be at least 3, got {grid}")
    if sigma_tol is not None and not sigma_tol > 0.0:
        raise ConfigError(f"bad [solve] section: sigma_tol must be positive, got {sigma_tol}")
    if max_eigs is not None and max_eigs < 1:
        raise ConfigError(f"bad [solve] section: max_eigs must be at least 1, got {max_eigs}")
    if hi == math.inf and max_eigs is None:
        raise ConfigError("bad [solve] section: lambda_max = inf needs max_eigs")
    # grid and sigma_tol are deprecated: each one set warns on stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DeprecationWarning)
        opts = spectral.SolveOptions(grid=grid, sigma_tol=sigma_tol, max_eigs=max_eigs)
    for warning in caught:
        print(f"qwire: warning: [solve] {warning.message}", file=sys.stderr)
    return ProblemConfig(domain, boundary, (lo, hi), opts)


def _parse_perm_phases(perm_text: str, phases_text: str) -> bc.WireSpec:
    try:
        perm = [int(t) for t in perm_text.split()]
        phases = [float(t) for t in phases_text.split()]
    except ValueError as err:
        raise ConfigError(f"bad perm/phases: {err}") from err
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise ConfigError("perm must list each endpoint index 1..2n exactly once")
    try:
        return bc.WireSpec(sigma=tuple(p - 1 for p in perm), beta=tuple(phases))
    except ValueError as err:
        raise ConfigError(f"bad wire specification: {err}") from err


def _build_bc(section: dict, n: int) -> bc.UnitaryBC:
    kind = _require(section, "kind", "bc").lower()
    try:
        if kind == "dirichlet":
            return bc.make_dirichlet(n)
        if kind == "neumann":
            return bc.make_neumann(n)
        if kind == "robin":
            A = read_matrix(_require(section, "file", "bc"))
            return bc.cayley_to_unitary(A)
        if kind == "unitary":
            return bc.UnitaryBC(read_matrix(_require(section, "file", "bc")))
        if kind == "quasiperiodic":
            return bc.make_quasiperiodic(_as_float(section, "theta", "bc"))
        if kind == "u2":
            alpha = complex(_as_float(section, "alpha_re", "bc"),
                            _as_float(section, "alpha_im", "bc"))
            beta = complex(_as_float(section, "beta_re", "bc"),
                           _as_float(section, "beta_im", "bc"))
            return bc.make_u2(_as_float(section, "theta", "bc"), alpha, beta)
        if kind == "wire":
            spec = _parse_perm_phases(_require(section, "perm", "bc"),
                                      _require(section, "phases", "bc"))
            return bc.make_wire(spec)
    except ValueError as err:
        raise ConfigError(f"bad [bc] section: {err}") from err
    raise ConfigError(f"unknown bc kind {kind!r}")


# ---------------------------------------------------------------------------
# output helpers

def format_spectrum(spectrum: spectral.Spectrum) -> str:
    lines = [SPECTRUM_HEADER]
    for e in spectrum.eigs:
        lines.append(f"{_fmt(e.lam)} {e.multiplicity} {_fmt(e.residual)}")
    return "\n".join(lines) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_spectrum(args) -> int:
    cfg = load_config(args.config)
    lo = args.lambda_min if args.lambda_min is not None else cfg.lambda_range[0]
    hi = args.lambda_max if args.lambda_max is not None else cfg.lambda_range[1]
    spectrum = spectral.find_eigenvalues(cfg.boundary, cfg.domain, (lo, hi), cfg.options)
    _write_output(format_spectrum(spectrum), args.output)
    return 0


def _cmd_eigenfunctions(args) -> int:
    cfg = load_config(args.config)
    lo = args.lambda_min if args.lambda_min is not None else cfg.lambda_range[0]
    hi = args.lambda_max if args.lambda_max is not None else cfg.lambda_range[1]
    spectrum = spectral.find_eigenvalues(cfg.boundary, cfg.domain, (lo, hi), cfg.options)
    lines = ["# qwire-eigenfunctions v1", "# lambda branch x re im"]
    for lam, j, e in spectrum.flat():
        for k in range(cfg.domain.n):
            for x, v in zip(e.xs[k], e.samples[j][k]):
                lines.append(f"{_fmt(lam)} {j} {_fmt(x)} {_fmt(v.real)} {_fmt(v.imag)}")
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def _float_list(text: str, flag: str) -> list[float]:
    """The numbers of a comma-separated flag value; ConfigError (exit 4) if
    one does not parse or there is none."""
    try:
        values = [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError as err:
        raise ConfigError(f"bad {flag} list: {err}") from err
    if not values:
        raise ConfigError(f"{flag} is empty")
    return values


def _cmd_evolve(args) -> int:
    cfg = load_config(args.config)
    spectrum = spectral.find_eigenvalues(cfg.boundary, cfg.domain, cfg.lambda_range, cfg.options)
    if not spectrum.eigs:
        raise OdeError("no eigenvalues found in the configured lambda range")
    xs = spectrum.eigs[0].xs
    re = expr.parse(args.initial)
    im = expr.parse(args.initial_imag) if args.initial_imag else None
    initial = expr.evaluate(re, xs) + 1j * (expr.evaluate(im, xs) if im else 0.0)
    times = _float_list(args.times, "--times")
    report = spectral.evolve(cfg.boundary, cfg.domain, spectrum, initial, times)
    lines = ["# qwire-evolve v1",
             f"# truncation_residual {_fmt(report['truncation_residual'])}",
             f"# norm_drift {_fmt(report['norm_drift'])}",
             "# t x re im"]
    for i, t in enumerate(times):
        for k in range(xs.shape[0]):
            for x, v in zip(xs[k], report["samples"][i][k]):
                lines.append(f"{_fmt(t)} {_fmt(x)} {_fmt(v.real)} {_fmt(v.imag)}")
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_maslov(args) -> int:
    curve = read_curve(args.curve)
    index = curves.cayley_index(curve)
    winding = curves.det_winding(curve)
    if index != winding:
        raise curves.ResolutionError(
            f"cayley index {index} disagrees with determinant winding {winding}; "
            "refine the curve sampling"
        )
    _write_output(f"index {index}\n", args.output)
    return 0


def _cmd_edge_scan(args) -> int:
    cfg = load_config(args.config)
    scan = edge.edge_scan(cfg.boundary, cfg.domain, _float_list(args.t_list, "--t-list"),
                          opts=cfg.options)
    lines = ["# qwire-edge v1", "# t lambda_min collar_mass"]
    for t, lam, mass in zip(scan.t_values, scan.lam_min, scan.collar_mass):
        lines.append(f"{_fmt(t)} {_fmt(lam)} {_fmt(mass)}")
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_wire_check(args) -> int:
    U = bc.UnitaryBC(read_matrix(args.bc))
    spec = _parse_perm_phases(args.perm, args.phases)
    report = bc.verify_wire(U, spec, tol=args.tol)
    lines = []
    if report["passed"]:
        lines.append(f"PASS residual<{args.tol:g}")
        if report["degenerate"]:
            lines.append("WARNING degenerate (admissible data forces psi = 0)")
    else:
        lines.append(f"FAIL max_residual={_fmt(report['max_residual'])}")
    _write_output("\n".join(lines) + "\n", args.output)
    return 0 if report["passed"] else 1


def _cmd_oracle_compare(args) -> int:
    cfg = load_config(args.config)
    fd_lams, fd_est = oracle.fd_spectrum(cfg.boundary, cfg.domain, N=args.fd_n, k=args.count)
    spectrum = spectral.find_eigenvalues(cfg.boundary, cfg.domain, (-math.inf, math.inf),
                                         spectral.SolveOptions(max_eigs=args.count))
    lines = ["# qwire-oracle v1", "# lambda_spectral lambda_fd estimate agree"]
    all_ok = True
    for (lam_s, _, _), lam_f, est in zip(spectrum.flat(), fd_lams, fd_est):
        ok = abs(lam_s - lam_f) <= est
        all_ok = all_ok and ok
        lines.append(f"{_fmt(lam_s)} {_fmt(lam_f)} {_fmt(est)} {int(ok)}")
    _write_output("\n".join(lines) + "\n", args.output)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument parsing and dispatch

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 2 on usage errors, single line on stderr
        self.exit(2, f"{self.prog}: error: {message}\n")


def _int_in(low: int, high: float = math.inf):
    """argparse type: an integer in [low, high]; outside it is a usage error."""
    def parse(text: str) -> int:
        value = int(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"{value} is outside [{low}, {high}]")
        return value
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qwire", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--output", default=None, help="output path (default stdout)")
        return p

    for name, func, helptext in (
        ("spectrum", _cmd_spectrum, "eigenvalues in a lambda range"),
        ("eigenfunctions", _cmd_eigenfunctions, "eigenfunction samples"),
    ):
        p = add(name, func, help=helptext)
        p.add_argument("--config", required=True)
        p.add_argument("--lambda-min", type=float, default=None)
        p.add_argument("--lambda-max", type=float, default=None)

    p = add("evolve", _cmd_evolve, help="unitary time evolution of an initial state")
    p.add_argument("--config", required=True)
    p.add_argument("--initial", required=True, help="real part expression in x")
    p.add_argument("--initial-imag", default=None, help="imaginary part expression in x")
    p.add_argument("--times", required=True, help="comma-separated time points")

    p = add("maslov", _cmd_maslov, help="index of a closed curve of unitaries")
    p.add_argument("--curve", required=True)

    p = add("edge-scan", _cmd_edge_scan, help="lowest eigenvalue of exp(it)U along t")
    p.add_argument("--config", required=True)
    p.add_argument("--t-list", required=True, help="comma-separated descending t values")

    p = add("wire-check", _cmd_wire_check, help="verify endpoint identifications")
    p.add_argument("--bc", required=True, help="unitary matrix file")
    p.add_argument("--perm", required=True, help="1-based endpoint permutation, e.g. '2 1'")
    p.add_argument("--phases", required=True, help="gluing phases, e.g. '0 0'")
    p.add_argument("--tol", type=float, default=1e-10)

    p = add("oracle-compare", _cmd_oracle_compare, help="cross-check against finite differences")
    p.add_argument("--config", required=True)
    p.add_argument("--fd-n", type=_int_in(200, 4000), default=600)
    p.add_argument("--count", type=_int_in(1), default=5)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ConfigError, expr.SyntaxErrorAt) as err:
        print(f"qwire: {err}", file=sys.stderr)
        return 4
    except (curves.ResolutionError, OdeError, bc.CayleySingular, expr.EvalDomainError,
            DomainError, ValueError, RuntimeError) as err:
        print(f"qwire: {err}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
