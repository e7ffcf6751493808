"""Command-line interface: config parsing, file formats, subcommands, exit codes."""

import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import count_calls
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


@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (2, 2)])
def test_small_matrix_round_trip(tmp_path, shape):
    # a single row still writes a header whose values are all positive
    M = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape) * (2.0 - 0.5j)
    path = str(tmp_path / "m.mat")
    write_matrix(path, M)
    assert np.array_equal(read_matrix(path), M)


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


@pytest.mark.parametrize("row, matrix_message, curve_message", [
    ("0,0 1,0", None, None),
    ("0,0 1.0", "complex entry must be 're,im', got '1.0'", None),
    ("0,0,1 0", "complex entry must be 're,im', got '0,0,1'", None),
    ("0,0 x,0", "bad complex entry 'x,0'", None),
    ("0,0", "row 2 has 1 entries, expected 2", "block 1 row 1 has 1 entries"),
    # a bad number in row 1 is named before the missing comma of row 2, the
    # check that the conversion of the rows makes first
    pytest.param(("x,0 0,0", "0,0 1.0"), "row 1: bad complex entry 'x,0'",
                 "block 1 row 0: bad complex entry 'x,0'", id="the-first-bad-line-in-file-order"),
])
def test_a_malformed_entry_is_named(tmp_path, row, matrix_message, curve_message):
    # the entries of a file are parsed in one conversion; where it fails, the
    # first malformed line in file order is named with its entry.  "0,0,1 0"
    # has as many commas as entries, but not one in each.  ``row`` is the
    # last row, or a pair of rows for both
    rows = list(row) if isinstance(row, tuple) else ["1,0 0,0", row]
    matrix = tmp_path / "m.mat"
    matrix.write_text("\n".join(["1 2 2"] + rows) + "\n")
    curve = tmp_path / "c.crv"
    curve.write_text("\n".join(["1 1", "0", "1,0 0,0", "0,0 1,0",
                                repr(2.0 * math.pi)] + rows) + "\n")
    if matrix_message is None:
        assert np.array_equal(read_matrix(str(matrix)), np.eye(2))
        assert np.array_equal(read_curve(str(curve)).matrices[1], np.eye(2))
        return
    with pytest.raises(ConfigError, match=re.escape(matrix_message)):
        read_matrix(str(matrix))
    with pytest.raises(ConfigError, match=re.escape(curve_message or matrix_message)):
        read_curve(str(curve))


_CORRUPTIONS = ["drop a comma", "add a comma", "not a number", "drop an entry", "bad theta"]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_bad_token_of_a_written_file_is_named(tmp_path_factory, data):
    # a matrix or curve file written by write_matrix or write_curve reads back
    # bit exact; one corrupted token is named, with its row or block, after
    # the path, and the command that reads the file exits 4
    path = str(tmp_path_factory.mktemp("files") / "f.txt")
    curve = data.draw(st.booleans(), "curve")
    if curve:
        dim = 2 * data.draw(st.integers(1, 2), "n")
        Q = bc.random_unitary(dim, np.random.default_rng(data.draw(st.integers(0, 99), "seed")))
        ks = np.arange(dim) - 1

        def f(theta):
            return (Q.matrix * np.exp(1j * ks * theta)) @ Q.matrix.conj().T

        written = curves.UnitaryCurve.from_function(f, samples=data.draw(st.integers(2, 6), "m"))
        write_curve(path, written)
        back = read_curve(path)
        assert np.array_equal(back.thetas, written.thetas)
        assert np.array_equal(np.array(back.matrices), np.array(written.matrices))
        block = data.draw(st.integers(0, len(written.thetas) - 1), "block")
        row = data.draw(st.integers(0, dim - 1), "row")
        line, where, cols = 1 + block * (dim + 1) + 1 + row, f"block {block} row {row}", dim
        argv = ["maslov", "--curve", path]
    else:
        rows, cols = data.draw(st.integers(2, 4), "rows"), data.draw(st.integers(2, 4), "cols")
        number = st.floats(allow_nan=False, allow_infinity=False)
        values = data.draw(st.lists(number, min_size=2 * rows * cols, max_size=2 * rows * cols))
        written = np.array(values).view(complex).reshape(rows, cols)
        write_matrix(path, written)
        assert np.array_equal(read_matrix(path), written)
        row = data.draw(st.integers(0, rows - 1), "row")
        line, where = 1 + row, f"row {row + 1}"
        argv = ["wire-check", "--bc", path, "--perm", "2 1", "--phases", "0 0"]
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    toks = lines[line].split()
    k = data.draw(st.integers(0, cols - 1), "entry")
    re_part, im_part = toks[k].split(",")
    corruption = data.draw(st.sampled_from(_CORRUPTIONS[:5 if curve else 4]), "corruption")
    if corruption == "bad theta":
        line -= row + 1
        toks, message = ["theta"], f"bad theta in block {block}: 'theta'"
    elif corruption == "drop an entry":
        del toks[k]
        message = f"{where} has {cols - 1} entries, expected {cols}"
    else:
        toks[k] = {"drop a comma": re_part + im_part, "add a comma": toks[k] + ",0",
                   "not a number": "abc," + im_part}[corruption]
        kind = ("bad complex entry" if corruption == "not a number"
                else "complex entry must be 're,im', got")
        message = f"{where}: {kind} {toks[k]!r}"
    lines[line] = " ".join(toks)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as err:
        (read_curve if curve else read_matrix)(path)
    assert str(err.value) == f"{path}: {message}"
    assert run(argv) == 4


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


@pytest.mark.parametrize("offset", [1e-13, -1e-13])
def test_maslov_refuses_a_sample_beside_minus_one(tmp_path, capsys, offset):
    # an eigenphase within 1e-10 of pi on a sample, on either side: a numeric
    # failure, exit 3, not an index
    def f(theta):
        return np.diag([np.exp(1j * (theta + offset)), np.exp(-0.3j)])

    path = str(tmp_path / "loop.crv")
    write_curve(path, curves.UnitaryCurve.from_function(f, samples=256))
    assert run(["maslov", "--curve", path]) == 3
    assert capsys.readouterr().err == "qwire: an eigenvalue lies within 1e-10 of -1 on a sample\n"


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    # the parser is built once per process: after a first call, a usage
    # error (exit 2) and a good call build none, and the good call still works
    path = str(tmp_path / "loop.crv")
    loop = curves.UnitaryCurve.from_function(lambda t: np.exp(1j * (t + 0.3)) * np.eye(2))
    write_curve(path, loop)
    assert run(["maslov", "--curve", path]) == 0
    built = count_calls(monkeypatch, cli._Parser, "__init__")
    with pytest.raises(SystemExit) as exc:
        run(["wire-check", "--bc", path])
    assert exc.value.code == 2
    assert run(["maslov", "--curve", path]) == 0
    out = capsys.readouterr()
    assert out.out == "index 2\nindex 2\n" and "required" in out.err
    assert built == []


def test_maslov_rejects_a_non_unitary_sample(tmp_path, capsys):
    # the constant loop U = I with sample 4 of 8 scaled by 1.001
    lines = ["8 1"]
    for j, theta in enumerate(np.linspace(0.0, 2.0 * math.pi, 9)):
        lines += [repr(float(theta)), f"{1.001 if j == 4 else 1.0},0 0,0", "0,0 1,0"]
    path = tmp_path / "loop.crv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=r"not unitary: \|\|U\^H U - I\|\|_F = 2\.001e-03"):
        read_curve(str(path))
    assert run(["maslov", "--curve", str(path)]) == 4
    assert "not unitary" in capsys.readouterr().err


def test_maslov_rejects_a_nan_theta(tmp_path, capsys):
    # the constant loop U = I whose first theta is NaN, which read as index 0
    lines = ["8 1"]
    for j, theta in enumerate(np.linspace(0.0, 2.0 * math.pi, 9)):
        lines += ["nan" if j == 0 else repr(float(theta)), "1,0 0,0", "0,0 1,0"]
    path = tmp_path / "loop.crv"
    path.write_text("\n".join(lines) + "\n")
    assert run(["maslov", "--curve", str(path)]) == 4
    assert capsys.readouterr().err == f"qwire: {path}: theta must run from 0 to 2*pi\n"


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


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "x"])
def test_wire_check_tol_must_be_positive(tmp_path, capsys, tol):
    # a tolerance no residual can be judged by is a usage error, not a FAIL
    path = str(tmp_path / "wire.mat")
    write_matrix(path, bc.make_quasiperiodic(0.0).matrix)
    with pytest.raises(SystemExit) as exc:
        run(["wire-check", "--bc", path, "--perm", "2 1", "--phases", "0 0", "--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err
    assert run(["wire-check", "--bc", path, "--perm", "2 1", "--phases", "0 0",
                "--tol", "1e-3"]) == 0


@pytest.mark.parametrize("rows, kinds", [
    ("1.001,0 0,0\n0,0 1,0", ["unitary"]),
    ("nan,0 0,0\n0,0 1,0", ["unitary", "robin"]),
])
def test_a_bad_boundary_matrix_file_exits_4(tmp_path, capsys, rows, kinds):
    # a non-unitary or NaN matrix file is a file error (exit 4) wherever it is
    # read, in a config as in wire-check --bc
    mat = tmp_path / "u.mat"
    mat.write_text("1 2 2\n" + rows + "\n")
    path = tmp_path / "u.cfg"
    for kind in kinds:
        path.write_text(f"[interval]\na = 0\nb = 1\n[bc]\nkind = {kind}\nfile = {mat}\n")
        assert run(["spectrum", "--config", str(path)]) == 4
    assert run(["wire-check", "--bc", str(mat), "--perm", "2 1", "--phases", "0 0"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == len(kinds) + 1
    assert all(line.startswith(f"qwire: {mat}: matrix is not ") for line in err)
    path.write_text("[interval]\na = 0\nb = 1\n[bc]\nkind = quasiperiodic\ntheta = nan\n")
    assert run(["spectrum", "--config", str(path)]) == 4


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


@pytest.mark.parametrize("a, b", [("1", "0"), ("0", "inf"), ("-inf", "0")])
def test_exit_code_bad_interval_ends(tmp_path, capsys, a, b):
    # a reversed or an infinite interval is refused as a bad domain (exit 3)
    path = tmp_path / "bad.cfg"
    path.write_text(f"[interval]\na = {a}\nb = {b}\n[bc]\nkind = dirichlet\n")
    assert run(["spectrum", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("qwire: interval endpoints must") and err.count("\n") == 1


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
    # a value that is not finite is not a time either
    assert run(["evolve", "--config", str(path), "--initial", "sin(x)",
                "--times", "nan,1"]) == 4
    assert run(["evolve", "--config", str(path), "--initial", "sin(x)", "--times", "inf"]) == 4
    assert run(["edge-scan", "--config", str(path), "--t-list", "nan"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert [line.split()[1] for line in err] == ["bad", "bad", "--t-list", "bad", "bad", "bad"]


def test_oracle_compare_window_holds_every_level(tmp_path, capsys):
    # the FD levels near the top of N = 200 lie far below the exact ones, so
    # the exact count, not a fixed margin, sets the end of the window
    path = tmp_path / "d.cfg"
    path.write_text("[interval]\na = 0\nb = 1\n[bc]\nkind = dirichlet\n")
    assert run(["oracle-compare", "--config", str(path), "--fd-n", "200",
                "--count", "150"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 152
    # the levels near the top of 300 lie past the reach of 257 samples
    assert run(["oracle-compare", "--config", str(path), "--fd-n", "400",
                "--count", "300"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 302
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
