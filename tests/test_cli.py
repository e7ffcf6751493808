"""Command-line interface: config parsing, file formats, subcommands, exit codes."""

import math
import subprocess
import sys

import numpy as np
import pytest

from qwire import bc, cli, curves
from qwire.cli import (
    ConfigError,
    load_config,
    read_curve,
    read_matrix,
    run,
    write_curve,
    write_matrix,
)

FREE_CFG = """\
# free particle on [0, 2*pi]
[interval]
a = 0
b = 6.283185307179586
metric = 1
potential = 0

[bc]
kind = dirichlet

[solve]
lambda_min = -1
lambda_max = 3
grid = 250
"""


@pytest.fixture
def free_cfg(tmp_path):
    path = tmp_path / "free.cfg"
    path.write_text(FREE_CFG)
    return str(path)


def test_load_config(free_cfg):
    cfg = load_config(free_cfg)
    assert cfg.domain.n == 1
    assert cfg.lambda_range == (-1.0, 3.0)
    assert cfg.options.grid == 250
    assert np.allclose(cfg.boundary.matrix, -np.eye(2))


def test_load_config_is_deterministic(free_cfg):
    a, b = load_config(free_cfg), load_config(free_cfg)
    assert np.array_equal(a.boundary.matrix, b.boundary.matrix)
    assert a.lambda_range == b.lambda_range


@pytest.mark.parametrize("mutation,match", [
    ("kind = dirichlet\nkind = neumann", "duplicate"),
    ("kind = frobnicate", "unknown bc kind"),
    ("", "missing key"),
])
def test_bad_bc_section(tmp_path, mutation, match):
    text = "[interval]\na = 0\nb = 1\n\n[bc]\n" + mutation + "\n"
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=match):
        load_config(str(path))


def test_config_requires_sections(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("[bc]\nkind = dirichlet\n")
    with pytest.raises(ConfigError, match="no \\[interval\\]"):
        load_config(str(path))
    path.write_text("[interval]\na = 0\nb = 1\n")
    with pytest.raises(ConfigError, match="no \\[bc\\]"):
        load_config(str(path))


def test_dimension_mismatch(tmp_path):
    text = ("[interval]\na = 0\nb = 1\n[interval]\na = 0\nb = 1\n"
            "[bc]\nkind = quasiperiodic\ntheta = 0\n")
    path = tmp_path / "mismatch.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match="domain has 2"):
        load_config(str(path))


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    path = str(tmp_path / "m.mat")
    write_matrix(path, M)
    M2 = read_matrix(path)
    assert np.array_equal(M, M2)  # 17 significant digits are bit-exact


def test_curve_round_trip(tmp_path):
    def f(theta):
        return np.diag([np.exp(1j * theta), np.exp(-1j * theta)])

    curve = curves.UnitaryCurve.from_function(f, samples=16)
    path = str(tmp_path / "c.crv")
    write_curve(path, curve)
    c2 = read_curve(path)
    assert np.array_equal(curve.thetas, c2.thetas)
    for a, b in zip(curve.matrices, c2.matrices):
        assert np.array_equal(a, b)


def test_spectrum_range_caps_output(free_cfg, capsys):
    assert run(["spectrum", "--config", free_cfg,
                "--lambda-min", "-1", "--lambda-max", "3"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "# qwire-spectra v1"
    lams = [float(ln.split()[0]) for ln in lines[1:]]
    assert lams == pytest.approx([0.125, 0.5, 1.125, 2.0], abs=1e-8)


def test_spectrum_output_deterministic(free_cfg, tmp_path):
    p1, p2 = str(tmp_path / "a.out"), str(tmp_path / "b.out")
    assert run(["spectrum", "--config", free_cfg, "--output", p1]) == 0
    assert run(["spectrum", "--config", free_cfg, "--output", p2]) == 0
    with open(p1) as f1, open(p2) as f2:
        assert f1.read() == f2.read()


def test_eigenfunctions_output(free_cfg, capsys):
    assert run(["eigenfunctions", "--config", free_cfg,
                "--lambda-min", "0.05", "--lambda-max", "0.2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "# qwire-eigenfunctions v1"
    body = [ln.split() for ln in lines if not ln.startswith("#")]
    assert len(body) == 257
    # Dirichlet ground state vanishes at both ends
    assert abs(float(body[0][3])) <= 1e-8
    assert abs(float(body[-1][3])) <= 1e-8


def test_evolve_output(tmp_path, capsys):
    path = tmp_path / "n.cfg"
    path.write_text("[interval]\na = 0\nb = 3.141592653589793\n"
                    "[bc]\nkind = neumann\n"
                    "[solve]\nlambda_min = -0.5\nlambda_max = 2.5\ngrid = 150\n")
    assert run(["evolve", "--config", str(path), "--initial", "1",
                "--times", "0,0.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "# qwire-evolve v1"
    drift = float(lines[2].split()[2])
    assert drift <= 1e-10
    # the constant mode is stationary
    body = [ln.split() for ln in lines if not ln.startswith("#")]
    last = body[-1]
    assert float(last[0]) == 0.5
    assert float(last[2]) == pytest.approx(float(body[0][2]), abs=1e-9)


def test_evolve_initial_state_outside_its_domain(tmp_path, capsys):
    # x = 0 is a sample of the eigenfunction grid, where 1/x divides by zero
    path = tmp_path / "n.cfg"
    path.write_text("[interval]\na = 0\nb = 3.141592653589793\n"
                    "[bc]\nkind = neumann\n"
                    "[solve]\nlambda_min = -0.5\nlambda_max = 2.5\ngrid = 150\n")
    assert run(["evolve", "--config", str(path), "--initial", "1/x", "--times", "0"]) == 3
    assert "qwire:" in capsys.readouterr().err


def test_maslov_command(tmp_path, capsys):
    def f(theta):
        return np.exp(1j * (theta + 0.3)) * np.eye(2)

    curve = curves.UnitaryCurve.from_function(f, samples=128)
    path = str(tmp_path / "loop.crv")
    write_curve(path, curve)
    assert run(["maslov", "--curve", path]) == 0
    assert capsys.readouterr().out == "index 2\n"


def test_wire_check_pass(tmp_path, capsys):
    path = str(tmp_path / "wire.mat")
    write_matrix(path, bc.make_quasiperiodic(0.0).matrix)
    assert run(["wire-check", "--bc", path, "--perm", "2 1", "--phases", "0 0"]) == 0
    assert capsys.readouterr().out == "PASS residual<1e-10\n"


def test_wire_check_fail(tmp_path, capsys):
    path = str(tmp_path / "wire.mat")
    write_matrix(path, bc.make_quasiperiodic(1.0).matrix)
    assert run(["wire-check", "--bc", path, "--perm", "2 1", "--phases", "0 0"]) == 1
    assert capsys.readouterr().out.startswith("FAIL max_residual=")


def test_spectrum_default_window_starts_at_the_bottom(tmp_path, capsys):
    # Robin A = 3 I on [0, pi] with no [solve] section: both edge levels near
    # -4.5 are printed, not only the three above a guessed lower end
    mat = tmp_path / "robin.mat"
    mat.write_text("1 2 2\n3,0 0,0\n0,0 3,0\n")
    path = tmp_path / "robin.cfg"
    text = f"[interval]\na = 0\nb = 3.141592653589793\n[bc]\nkind = robin\nfile = {mat}\n"
    path.write_text(text)
    assert run(["spectrum", "--config", str(path)]) == 0
    lams = [float(ln.split()[0]) for ln in capsys.readouterr().out.splitlines()[1:]]
    assert len(lams) == 5
    assert lams[:2] == pytest.approx([-4.5014506, -4.4985454], abs=1e-6)
    path.write_text(text + "[solve]\nlambda_max = inf\nmax_eigs = 2\n")
    assert run(["spectrum", "--config", str(path)]) == 0
    assert [float(ln.split()[0]) for ln in
            capsys.readouterr().out.splitlines()[1:]] == pytest.approx(lams[:2], rel=1e-10)


def test_edge_scan_command(tmp_path, capsys):
    path = tmp_path / "edge.cfg"
    path.write_text("[interval]\na = 0\nb = 3.141592653589793\n"
                    "[bc]\nkind = dirichlet\n[solve]\ngrid = 400\n")
    assert run(["edge-scan", "--config", str(path), "--t-list", "0.8"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "# qwire-edge v1"
    t, lam, mass = (float(v) for v in lines[2].split())
    assert t == 0.8
    assert lam < 0.0
    assert 0.0 < mass < 1.0


def test_oracle_compare_command(free_cfg, capsys):
    assert run(["oracle-compare", "--config", free_cfg, "--fd-n", "400",
                "--count", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "# qwire-oracle v1"
    rows = [ln.split() for ln in lines[2:]]
    assert len(rows) == 3
    assert all(r[3] == "1" for r in rows)


def test_exit_code_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["spectrum"])  # missing --config
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


def test_exit_code_io_error(tmp_path, capsys):
    assert run(["spectrum", "--config", str(tmp_path / "missing.cfg")]) == 4
    assert "qwire:" in capsys.readouterr().err


def test_exit_code_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[interval]\na = 0\nb = 1\npotential = )(\n[bc]\nkind = dirichlet\n")
    assert run(["spectrum", "--config", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("qwire:") and err.count("\n") == 1


@pytest.mark.parametrize("old,new", [
    ("grid = 250", "grid = abc"),
    ("grid = 250", "max_eigs = 1.5"),
    ("lambda_min = -1", "lambda_min = low"),
])
def test_exit_code_bad_solve_number(tmp_path, capsys, old, new):
    path = tmp_path / "bad.cfg"
    path.write_text(FREE_CFG.replace(old, new))
    assert run(["spectrum", "--config", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("qwire:") and "[solve]" in err


@pytest.mark.parametrize("old,new", [
    ("grid = 250", "grid = 2"),
    ("lambda_min = -1", "lambda_min = 40"),
    ("lambda_min = -1", "lambda_min = 3"),
    ("lambda_min = -1", "lambda_min = nan"),
    ("grid = 250", "grid = 250\nsigma_tol = 0"),
    ("grid = 250", "grid = 250\nsigma_tol = -1e-6"),
    ("grid = 250", "grid = 250\nmax_eigs = 0"),
    ("lambda_max = 3", "lambda_max = inf"),
])
def test_exit_code_solve_value_out_of_range(tmp_path, capsys, old, new):
    path = tmp_path / "bad.cfg"
    path.write_text(FREE_CFG.replace(old, new))
    assert run(["spectrum", "--config", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("qwire:") and "[solve]" in err


def test_deprecated_solve_keys_warn(tmp_path, capsys):
    # grid and sigma_tol still parse but change nothing: one warning line each
    path = tmp_path / "plain.cfg"
    path.write_text(FREE_CFG.replace("grid = 250\n", ""))
    assert run(["spectrum", "--config", str(path)]) == 0
    plain = capsys.readouterr()
    assert plain.err == "" and plain.out.startswith("# qwire-spectra v1\n")
    path.write_text(FREE_CFG + "sigma_tol = 1e-6\n")
    assert run(["spectrum", "--config", str(path)]) == 0
    out = capsys.readouterr()
    assert out.out == plain.out
    assert out.err.splitlines() == [
        "qwire: warning: [solve] grid has no effect: levels are counted exactly",
        "qwire: warning: [solve] sigma_tol has no effect: levels are counted exactly"]


@pytest.mark.parametrize("old,new", [
    ("potential = 0", "potental = 100"),
    ("kind = dirichlet", "kind = dirichlet\nthetta = 1"),
    ("grid = 250", "grid = 250\nlambda_mx = 5"),
    ("grid = 250", "grid = 250\n[solve]\nlambda_max = 5"),
])
def test_exit_code_unknown_key_or_repeated_solve(tmp_path, capsys, old, new):
    # a misspelt key or a second [solve] section used to be ignored silently
    path = tmp_path / "bad.cfg"
    path.write_text(FREE_CFG.replace(old, new))
    assert run(["spectrum", "--config", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("qwire:") and err.count("\n") == 1


def test_exit_code_bad_flag_list(tmp_path, capsys):
    # both comma-separated flags are parse errors (exit 4), not numeric failures
    path = tmp_path / "d.cfg"
    path.write_text("[interval]\na = 0\nb = 3.141592653589793\n[bc]\nkind = dirichlet\n"
                    "[solve]\nlambda_min = -0.5\nlambda_max = 2.5\n")
    assert run(["edge-scan", "--config", str(path), "--t-list", "1,abc"]) == 4
    assert run(["evolve", "--config", str(path), "--initial", "sin(x)",
                "--times", "1,abc"]) == 4
    assert run(["edge-scan", "--config", str(path), "--t-list", ","]) == 4
    err = capsys.readouterr().err.splitlines()
    assert [line.split()[1] for line in err] == ["bad", "bad", "--t-list"]


def test_oracle_compare_window_holds_every_level(tmp_path, capsys):
    # the FD levels near the top of N = 200 lie far below the exact ones, so
    # the exact count, not a fixed margin, sets the end of the window
    path = tmp_path / "d.cfg"
    path.write_text("[interval]\na = 0\nb = 1\n[bc]\nkind = dirichlet\n")
    assert run(["oracle-compare", "--config", str(path), "--fd-n", "200",
                "--count", "150"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 152
    # more levels than the FD matrix has is a numeric failure naming both
    assert run(["oracle-compare", "--config", str(path), "--fd-n", "200",
                "--count", "500"]) == 3
    assert "k = 500 must lie in [1, 199]" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--count", "0"], ["--fd-n", "100"], ["--fd-n", "5000"],
                                   ["--count", "x"]])
def test_oracle_compare_flags_out_of_range_are_usage_errors(free_cfg, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        run(["oracle-compare", "--config", free_cfg] + flags)
    assert exc.value.code == 2
    assert flags[0] in capsys.readouterr().err


def test_exit_code_numeric_error(tmp_path, capsys):
    path = tmp_path / "edge.cfg"
    path.write_text("[interval]\na = 0\nb = 3.141592653589793\n"
                    "[bc]\nkind = neumann\n")
    # Neumann has no eigenvalue -1, so the edge scan is ill-posed
    assert run(["edge-scan", "--config", str(path), "--t-list", "0.5"]) == 3
    assert "qwire:" in capsys.readouterr().err


def test_console_script_runs():
    # runpy warns when qwire.cli is already imported before it runs as __main__
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "qwire.cli"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Warning" not in proc.stderr


def test_robin_and_u2_kinds(tmp_path):
    A = np.array([[2.0, 0.0], [0.0, 3.0]])
    mat = str(tmp_path / "robin.mat")
    write_matrix(mat, A)
    path = tmp_path / "robin.cfg"
    path.write_text(f"[interval]\na = 0\nb = 1\n[bc]\nkind = robin\nfile = {mat}\n")
    cfg = load_config(str(path))
    assert np.allclose(cfg.boundary.matrix, bc.cayley_to_unitary(A).matrix)

    path.write_text("[interval]\na = 0\nb = 1\n[bc]\nkind = u2\ntheta = 0.4\n"
                    "alpha_re = 0.6\nalpha_im = 0\nbeta_re = 0\nbeta_im = 0.8\n")
    cfg = load_config(str(path))
    assert np.allclose(cfg.boundary.matrix, bc.make_u2(0.4, 0.6, 0.8j).matrix)


def test_wire_kind_one_based_perm(tmp_path):
    path = tmp_path / "ring.cfg"
    path.write_text("[interval]\na = 0\nb = 1\n[interval]\na = 0\nb = 1\n"
                    "[bc]\nkind = wire\nperm = 4 3 2 1\nphases = 0 0 0 0\n")
    cfg = load_config(str(path))
    want = bc.make_wire(bc.WireSpec(sigma=(3, 2, 1, 0), beta=(0.0,) * 4))
    assert np.allclose(cfg.boundary.matrix, want.matrix)
