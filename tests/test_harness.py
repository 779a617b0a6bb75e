"""Config parsing, run orchestration, file formats, CLI exit codes."""

import filecmp
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from hydrolimit.cli import main as cli_main
from hydrolimit.config import _KEYS, ConfigError, parse_config
from hydrolimit.core import Grid
from hydrolimit.diagnostics import APRIORI_NORM_NAMES, energy_balance, weak_residual
from hydrolimit.operators import StaggeredVelocity, divergence
from hydrolimit.harness import (
    epsilon_sweep,
    initial_velocity,
    read_csv,
    run_simulation,
    write_csv,
    write_vtk,
)
from hydrolimit.aniso import NumericsError, SimState


SMALL_RUN = """
[grid]
nx = 8
ny = 8
nz = 6
[phys]
nu1 = 0.02
nu2 = 0.02
nu3 = 0.02
[source]
t_s = 0.05
[init]
velocity = taylor_green_h
[time]
T = 0.1
snapshot_every = 2
[run]
mode = aniso
eps_list = 0.5
tol = 1e-9
"""

SMALL_SWEEP = """
[grid]
nx = 8
ny = 8
nz = 6
[phys]
nu1 = 0.02
nu2 = 0.02
nu3 = 0.02
[source]
t_s = 0.02
[init]
velocity = taylor_green_h
[time]
T = 0.1
snapshot_every = 2
[run]
mode = sweep
eps_list = 0.5, 0.25
tol = 1e-9
"""


# ---------------------------------------------------------------------------
# parse_config
# ---------------------------------------------------------------------------


def test_parse_empty_config_defaults():
    cfg = parse_config("")
    assert cfg.grid.nx == 32 and cfg.grid.ny == 32 and cfg.grid.nz == 16
    assert cfg.run.eps_list == (0.5,)
    assert cfg.run.mode == "aniso"
    assert cfg.time.T == 1.0
    assert cfg.time.cfl == 0.5
    assert cfg.source.kind == "gaussian"
    assert cfg.source.t_s == 0.1
    assert np.allclose(cfg.diffusion.m, np.eye(3))
    assert cfg.l0 == pytest.approx(math.pi / 4)


def test_parse_eps_list():
    cfg = parse_config("[run]\neps_list = 0.5, 0.25, 0.125\n")
    assert cfg.run.eps_list == (0.5, 0.25, 0.125)


def test_parse_rejects_negative_viscosity_with_line():
    text = "[phys]\nnu2 = 0.01\nnu1 = -1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "nu1" in str(err.value)
    assert "line 3" in str(err.value)
    assert "positive" in str(err.value)


def test_parse_rejects_unknown_key_with_line():
    with pytest.raises(ConfigError) as err:
        parse_config("[grid]\nnx = 8\nwhatever = 3\n")
    assert "whatever" in str(err.value)
    assert "line 3" in str(err.value)


@pytest.mark.parametrize("key", ["max_iter", "seed"])
def test_parse_rejects_removed_run_keys(key):
    """Neither key does anything (the solver is direct, nothing is random)."""
    with pytest.raises(ConfigError, match=key):
        parse_config(f"[run]\n{key} = 3\n")


def test_parse_rejects_unknown_section():
    with pytest.raises(ConfigError, match=r"unknown section"):
        parse_config("[grid]\nnx = 8\n[nonsense]\na = 1\n")


def test_parse_rejects_bad_type():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("[grid]\nnx = eight\n")


def test_parse_rejects_empty_eps_list():
    with pytest.raises(ConfigError, match="eps"):
        parse_config("[run]\neps_list =\n")


def test_parse_rejects_eps_out_of_range():
    with pytest.raises(ConfigError, match="eps"):
        parse_config("[run]\neps_list = 1.5\n")


@pytest.mark.parametrize("mode", ["sweep", "aniso"])
@pytest.mark.parametrize(
    "eps_list, first, second",
    [("0.5, 0.1234561, 0.1234562", "0.1234561", "0.1234562"), ("0.5, 0.5", "0.5", "0.5")],
    ids=["six-digit-tie", "repeat"],
)
def test_parse_rejects_eps_sharing_a_run_directory(tmp_path, mode, eps_list, first, second):
    """Two eps values with one ``:g`` label would run into one directory, the
    second overwriting the first: a config error at the eps_list line that
    names both, and the CLI makes no output."""
    text = f"[grid]\nnx = 4\nny = 4\nnz = 4\n[source]\nintensity = 0\n[run]\nmode = {mode}\n"
    text += f"eps_list = {eps_list}\n"
    with pytest.raises(ConfigError, match=f"values {first} and {second} share") as err:
        parse_config(text)
    assert err.value.key == "eps_list" and err.value.line == 9
    (tmp_path / "twins.cfg").write_text(text)
    rc = cli_main([str(tmp_path / "twins.cfg"), "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "eps_list",
    [(0.5, 0.5), (0.5, 0.1234561, 0.1234562), (), (0.5, 1.5), (0.0,)],
    ids=["repeat", "six-digit-tie", "empty", "above-one", "zero"],
)
def test_run_block_refuses_eps_list_set_by_replace(tmp_path, eps_list):
    """``RunBlock`` checks its eps_list itself, so a config made with
    ``dataclasses.replace`` cannot run two eps into one directory, or an eps
    outside (0, 1]: it is refused before the sweep writes anything."""
    cfg = parse_config(SMALL_SWEEP)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="eps"):
        swept = replace(cfg, run=replace(cfg.run, eps_list=eps_list))
        epsilon_sweep(swept, out_dir=str(out), quiet=True)
    assert not out.exists()


@pytest.mark.parametrize("eps", ["0", "1.5", "nan"])
def test_cli_refuses_eps_flag_outside_unit_interval(tmp_path, eps):
    (tmp_path / "run.cfg").write_text(SMALL_RUN)
    out = tmp_path / "out"
    rc = cli_main([str(tmp_path / "run.cfg"), "--eps", eps, "--out", str(out), "--quiet"])
    assert rc == 1
    assert not out.exists()


def test_parse_rejects_missing_theta_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config("[bc]\ntheta_mode = file\ntheta_file = nope.txt\n", base_dir=str(tmp_path))


def test_parse_rejects_source_near_boundary():
    with pytest.raises(ConfigError, match="two cell widths"):
        parse_config("[grid]\nnx = 8\nny = 8\nnz = 8\n[source]\nx_s = 0.1, 0.5, 0.5\n")


def test_parse_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("[grid]\nnx = 8\nnx = 9\n")


def test_parse_comments_and_blanks():
    cfg = parse_config("# full-line comment\n\n[grid]\nnx = 16  # trailing\n")
    assert cfg.grid.nx == 16


def test_tensor_file_roundtrip(tmp_path):
    nx = ny = 4
    nz = 4
    rows = [f"{nx} {ny} {nz}"]
    for _ in range(nx * ny * nz):
        rows.append("2.0 0.1 0.0 1.5 0.0 1.0")
    path = tmp_path / "tensor.txt"
    path.write_text("\n".join(rows) + "\n")
    cfg = parse_config(
        f"[grid]\nnx = {nx}\nny = {ny}\nnz = {nz}\n[diffusion]\ntensor_file = tensor.txt\n",
        base_dir=str(tmp_path),
    )
    assert cfg.diffusion.is_spatial
    assert cfg.diffusion.m.shape == (nx, ny, nz, 3, 3)
    assert cfg.diffusion.entry(0, 1).max() == pytest.approx(0.1)


def test_parse_rejects_noncoercive_entries_with_line():
    """A non-coercive inline tensor is a config error at the first m* key,
    not a bare ValueError on the run's first step."""
    with pytest.raises(ConfigError, match="coercivity violated") as err:
        parse_config("[grid]\nnx = 8\n[diffusion]\nm12 = 2.0\nm33 = 0.5\n")
    assert err.value.line == 4 and err.value.key == "m12"


def test_parse_rejects_noncoercive_tensor_file(tmp_path):
    n = 4
    rows = [f"{n} {n} {n}"] + ["1.0 0.0 0.0 1.0 0.0 1.0"] * (n**3 - 1)
    rows.append("1.0 0.0 0.0 1.0 0.0 -0.1")  # one indefinite cell
    (tmp_path / "tensor.txt").write_text("\n".join(rows) + "\n")
    with pytest.raises(ConfigError, match="coercivity violated") as err:
        parse_config(
            f"[grid]\nnx = {n}\nny = {n}\nnz = {n}\n[diffusion]\ntensor_file = tensor.txt\n",
            base_dir=str(tmp_path),
        )
    assert err.value.line == 6 and err.value.key == "tensor_file"


def test_config_rejection_is_total(tmp_path):
    """A bad config raises before anything touches the filesystem."""
    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\nmode = warp\n")
    rc = cli_main([str(bad), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert not (tmp_path / "out").exists()


_NUMBER_KEYS = [
    (section, key, kind)
    for section, keys in _KEYS.items()
    for key, (kind, _, _) in keys.items()
    if kind in ("float", "float3", "floats")
]


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize(
    "section,key,kind", _NUMBER_KEYS, ids=[f"{s}.{k}" for s, k, _ in _NUMBER_KEYS]
)
def test_parse_rejects_nonfinite_numbers(section, key, kind, bad):
    """Every float key, taken from the key table, refuses NaN and inf at parse."""
    value = {"float": bad, "float3": f"{bad}, 0.5, 0.5", "floats": f"0.5, {bad}"}[kind]
    with pytest.raises(ConfigError, match="finite") as err:
        parse_config(f"# comment\n[{section}]\n{key} = {value}\n")
    assert err.value.line == 3 and err.value.key == key


GRID4 = "[grid]\nnx = 4\nny = 4\nnz = 4\n"

# key -> (config after GRID4 naming cells.txt, a valid cells.txt for it, line of the key)
_CELL_FILES = {
    "tensor_file": (
        "[diffusion]\ntensor_file = cells.txt\n",
        ["4 4 4"] + ["2.0 0.1 0.0 1.5 0.0 1.0"] * 64,
        6,
    ),
    "theta_file": (
        "[bc]\ntheta_mode = file\ntheta_file = cells.txt\n",
        ["4 4"] + [f"{0.01 * i} {-0.02 * i}" for i in range(16)],
        7,
    ),
}


@pytest.mark.parametrize(
    "key,mangle,match",
    [
        ("tensor_file", lambda r: r[:5] + ["2.0 0.1 x 1.5 0.0 1.0"] + r[6:], "convert"),
        ("tensor_file", lambda r: ["4 4 5"] + r[1:], "header"),
        ("tensor_file", lambda r: r + ["1.0"], "expected"),
        ("theta_file", lambda r: r[:3] + ["nan 0.0"] + r[4:], "finite"),
        ("theta_file", lambda r: r[:-1], "expected"),
        ("theta_file", lambda r: ["4 5"] + r[1:], "header"),
    ],
    ids=["tensor-token", "tensor-header", "tensor-count", "theta-nan", "theta-truncated", "theta-grid"],
)
def test_parse_rejects_bad_cell_file(tmp_path, key, mangle, match):
    cfg, rows, line = _CELL_FILES[key]
    (tmp_path / "cells.txt").write_text("\n".join(mangle(rows)) + "\n")
    with pytest.raises(ConfigError, match=match) as err:
        parse_config(GRID4 + cfg, base_dir=str(tmp_path))
    assert err.value.line == line and err.value.key == key


def test_theta_file_roundtrip(tmp_path):
    cfg, rows, _ = _CELL_FILES["theta_file"]
    (tmp_path / "cells.txt").write_text("\n".join(rows) + "\n")
    theta = parse_config(GRID4 + cfg, base_dir=str(tmp_path)).theta
    pairs = np.array([[float(v) for v in row.split()] for row in rows[1:]]).reshape(4, 4, 2)
    assert np.array_equal(theta.theta1, pairs[..., 0])
    assert np.array_equal(theta.theta2, pairs[..., 1])


def test_parse_rejects_entries_beside_tensor_file(tmp_path):
    """An m* entry would be ignored when a tensor file sets the tensor."""
    (tmp_path / "cells.txt").write_text("\n".join(_CELL_FILES["tensor_file"][1]) + "\n")
    text = GRID4 + "[diffusion]\nm33 = 2.0\ntensor_file = cells.txt\nm11 = 3.0\n"
    with pytest.raises(ConfigError, match="tensor_file") as err:
        parse_config(text, base_dir=str(tmp_path))
    assert err.value.line == 6 and err.value.key == "m33"


@pytest.mark.parametrize("mode", ["", "coriolis_mode = f_plane\n"])
def test_parse_rejects_slope_on_f_plane(mode):
    with pytest.raises(ConfigError, match="beta_plane") as err:
        parse_config(f"[phys]\n{mode}l_slope = 0.5\n")
    assert err.value.key == "l_slope" and err.value.line == 2 + bool(mode)
    assert parse_config(f"[phys]\n{mode}l_slope = 0\n").l_slope == 0.0


@pytest.mark.parametrize(
    "text,key,line",
    [
        ("[bc]\ntheta1 = 5\n", "theta1", 2),
        ("[bc]\ntheta_file = cells.txt\ntheta_mode = zero\n", "theta_file", 2),
        ("[bc]\ntheta_mode = constant\ntheta1 = 1\ntheta_file = cells.txt\n", "theta_file", 4),
        ("[bc]\ntheta_mode = file\ntheta_file = cells.txt\ntheta2 = 1\n", "theta2", 4),
        ("[source]\nkind = delta_deposit\nwidth = 0.1\n", "width", 3),
    ],
    ids=["theta1-zero", "theta_file-zero", "theta_file-constant", "theta2-file", "width-delta"],
)
def test_parse_rejects_ignored_keys(tmp_path, text, key, line):
    """A key that another key makes irrelevant is an error at its own line."""
    (tmp_path / "cells.txt").write_text("\n".join(_CELL_FILES["theta_file"][1]) + "\n")
    with pytest.raises(ConfigError, match="is ignored") as err:
        parse_config(GRID4 + text, base_dir=str(tmp_path))
    assert err.value.key == key and err.value.line == 4 + line


@pytest.mark.parametrize("key", ["lx", "ly", "h"])
def test_parse_rejects_degenerate_cell_size(tmp_path, key):
    """A positive length so small that length/n underflows to a zero cell
    size is a config error at its line, and the CLI makes no output."""
    text = f"[source]\nintensity = 0\n[grid]\n{key} = 5e-324\n"
    with pytest.raises(ConfigError, match="degenerate cell size") as err:
        parse_config(text)
    assert err.value.key == key and err.value.line == 4
    (tmp_path / "tiny.cfg").write_text(text)
    rc = cli_main([str(tmp_path / "tiny.cfg"), "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 1
    assert not (tmp_path / "out").exists()


_INT_KEYS = [(sec, key) for sec, keys in _KEYS.items() for key, spec in keys.items() if spec[0] == "int"]


@pytest.mark.parametrize("section,key", _INT_KEYS, ids=[f"{s}.{k}" for s, k in _INT_KEYS])
def test_parse_rejects_int_beyond_float_range(tmp_path, section, key):
    """A 401-digit integer overflows the finiteness check's float conversion:
    that is a config error at its line, and the CLI makes no output."""
    text = f"[source]\nintensity = 0\n[{section}]\n{key} = {'9' * 401}\n"
    with pytest.raises(ConfigError, match="too large") as err:
        parse_config(text)
    assert err.value.key == key and err.value.line == 4
    (tmp_path / "huge.cfg").write_text(text)
    rc = cli_main([str(tmp_path / "huge.cfg"), "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["nx", "ny", "nz"])
def test_parse_rejects_grid_beyond_index_range(tmp_path, key):
    """A cell count that converts finitely but whose ghost-extended float64
    field numpy cannot index is a config error at its line, and the CLI
    makes no output."""
    text = f"[source]\nintensity = 0\n[grid]\n{key} = 1{'0' * 300}\n"
    with pytest.raises(ConfigError, match="numpy can index") as err:
        parse_config(text)
    assert err.value.key == key and err.value.line == 4
    (tmp_path / "vast.cfg").write_text(text)
    rc = cli_main([str(tmp_path / "vast.cfg"), "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text",
    ["[phys]\nf0 = nan\n", "[time]\nT = inf\n", "[source]\nx_s = nan, 0.5, 0.5\n",
     GRID4 + _CELL_FILES["theta_file"][0]],
    ids=["f0-nan", "T-inf", "x_s-nan", "theta_file-nan"],
)
def test_cli_rejects_nonfinite_input_before_output(tmp_path, text):
    rows = list(_CELL_FILES["theta_file"][1])
    rows[2] = "nan 0.0"
    (tmp_path / "cells.txt").write_text("\n".join(rows) + "\n")
    (tmp_path / "bad.cfg").write_text(text)
    rc = cli_main([str(tmp_path / "bad.cfg"), "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 1
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# run_simulation
# ---------------------------------------------------------------------------


def test_run_zero_everything_stays_zero(tmp_path):
    cfg = parse_config(
        "[grid]\nnx = 6\nny = 6\nnz = 4\n[source]\nintensity = 0\n"
        "[time]\nT = 0.05\nsnapshot_every = 1\n[run]\nmode = hydro\n"
    )
    res = run_simulation(cfg, 0.5, "hydro", out_dir=str(tmp_path / "zero"))
    for s in res.history.states:
        assert np.max(np.abs(s.u.u1)) == 0.0
        assert np.max(np.abs(s.C)) == 0.0
    assert np.all(res.energy.E == 0.0)
    assert (tmp_path / "zero" / "energy.csv").exists()
    assert (tmp_path / "zero" / "run.txt").exists()


def test_run_is_deterministic(tmp_path):
    cfg = parse_config(SMALL_RUN)
    d1 = tmp_path / "r1"
    d2 = tmp_path / "r2"
    run_simulation(cfg, 0.5, "aniso", out_dir=str(d1))
    run_simulation(cfg, 0.5, "aniso", out_dir=str(d2))
    for name in ("energy.csv", "norms.csv"):
        assert filecmp.cmp(d1 / name, d2 / name, shallow=False), name
    snaps1 = sorted(os.listdir(d1 / "snapshots"))
    snaps2 = sorted(os.listdir(d2 / "snapshots"))
    assert snaps1 == snaps2
    for name in snaps1:
        assert filecmp.cmp(d1 / "snapshots" / name, d2 / "snapshots" / name, shallow=False)


def test_run_divergence_within_tolerance(tmp_path):
    cfg = parse_config(SMALL_RUN)
    res = run_simulation(cfg, 0.5, "aniso", out_dir=None)
    assert res.max_div <= 10.0 * cfg.run.tol


@pytest.mark.parametrize("mode", ["aniso", "hydro"])
def test_run_max_div_is_max_over_states(mode):
    """max_div, taken from the projection of each step, equals the maximum
    of max|div u| over every state when every state is recorded."""
    cfg = parse_config(SMALL_RUN.replace("snapshot_every = 2", "snapshot_every = 1"))
    res = run_simulation(cfg, 0.5, mode, out_dir=None)
    assert len(res.history.states) == res.n_steps + 1
    g = res.history.grid
    want = max(float(np.max(np.abs(divergence(s.u, g)))) for s in res.history.states)
    assert res.max_div == want


def test_run_refuses_schedule_beyond_2_53_steps(tmp_path):
    """T = 1e300 would take about 1e302 steps, past the 2**53 at which
    t + dt stops advancing: the run refuses to start and the CLI exits 2
    without creating its output directory."""
    text = "[grid]\nnx = 4\nny = 4\nnz = 4\n[source]\nintensity = 0\n[time]\nT = 1e300\n"
    with pytest.raises(NumericsError, match=r"T = 1e\+300 takes .* steps of dt <= .*2\*\*53"):
        run_simulation(parse_config(text), 0.5, "aniso")
    (tmp_path / "endless.cfg").write_text(text)
    out = tmp_path / "out"
    for mode in ("aniso", "hydro", "sweep"):
        rc = cli_main([str(tmp_path / "endless.cfg"), "--mode", mode, "--out", str(out), "--quiet"])
        assert rc == 2
        assert not out.exists()


@pytest.mark.parametrize(
    "kind, width, mode",
    [
        ("lorentzian", 1e200, "hydro"),
        ("gaussian", 1e-110, "hydro"),
        ("gaussian", 1e-110, "aniso"),
    ],
)
def test_run_refuses_source_without_finite_sample(tmp_path, capsys, kind, width, mode):
    """A source width whose sample is not finite is refused before any
    output exists: run_simulation raises NumericsError, and the CLI, in the
    run's mode and as a sweep, exits 2 with a numerical abort, no traceback
    and no output directory."""
    text = (
        f"[grid]\nnx = 8\nny = 8\nnz = 6\n[source]\nkind = {kind}\nwidth = {width!r}\n"
        "t_s = 0\n[init]\nvelocity = taylor_green_h\n[time]\nT = 0.01\n"
    )
    with pytest.raises(NumericsError, match=f"{kind} source of width .* has no finite sample"):
        run_simulation(parse_config(text), 0.5, mode)
    (tmp_path / "wide.cfg").write_text(text)
    out = tmp_path / "out"
    for cli_mode in (mode, "sweep"):
        rc = cli_main([str(tmp_path / "wide.cfg"), "--mode", cli_mode, "--out", str(out), "--quiet"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("numerical abort: ") and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize(
    "kind, width",
    [("lorentzian", 1e150), ("lorentzian", 1e-200), ("gaussian", 1e200), ("unit_impulse", 1e-200)],
)
def test_run_accepts_extreme_width_with_finite_sample(kind, width):
    """A width whose eps^2 or (1/eps)^2 leaves double precision but whose
    sample is finite runs to T in hydro mode, with a finite final state."""
    text = (
        f"[grid]\nnx = 8\nny = 8\nnz = 6\n[source]\nkind = {kind}\nwidth = {width!r}\n"
        "t_s = 0\n[init]\nvelocity = taylor_green_h\n[time]\nT = 0.01\n"
    )
    res = run_simulation(parse_config(text), 0.5, "hydro")
    last = res.history.states[-1]
    assert res.n_steps > 0 and last.u.is_finite() and np.all(np.isfinite(last.C))


def test_sweep_refuses_unsampleable_member_before_any_run(tmp_path):
    """The Gaussian width defaults to each run's eps, and only the
    eps = 1e-110 run cannot sample it; the sweep refuses before the
    hydrostatic run and the eps = 0.5 run write anything."""
    text = (
        "[grid]\nnx = 8\nny = 8\nnz = 6\n[source]\nt_s = 0\n[time]\nT = 0.01\n"
        "[run]\neps_list = 0.5, 1e-110\n"
    )
    out = tmp_path / "out"
    with pytest.raises(NumericsError, match="gaussian source of width 1e-110"):
        epsilon_sweep(parse_config(text), out_dir=str(out))
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, kind, eps", [("aniso", "gaussian", "1e-110"), ("hydro", "gaussian", "1e-110")]
)
def test_cli_refuses_unsampleable_member_before_any_run(tmp_path, capsys, mode, kind, eps):
    """In a single-run mode the CLI runs each eps of eps_list in turn.  In
    mode aniso the source width defaults to each run's eps, and only the
    small-eps run cannot sample it; it is refused before the eps = 0.5 run
    writes anything.  In mode hydro a defaulted Gaussian is the single-cell
    deposit, so the unsampleable width is given explicitly."""
    width = f"width = {eps}\n" if mode == "hydro" else ""
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(
        f"[grid]\nnx = 8\nny = 8\nnz = 6\n[source]\nkind = {kind}\n{width}t_s = 0\n"
        f"[time]\nT = 0.01\n[run]\neps_list = 0.5, {eps}\n"
    )
    out = tmp_path / "out"
    rc = cli_main([str(cfgfile), "--mode", mode, "--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"numerical abort: {kind} source of width {eps}") and "Traceback" not in err
    assert not out.exists()


def test_lorentzian_normaliser_computed_once_per_run(monkeypatch):
    """A run samples its source once; the ledger and the weak residuals
    reuse that sample instead of recomputing the Lorentzian normaliser."""
    from hydrolimit import sources

    calls = []
    integral = sources._lorentzian_domain_integral

    def counted(*args, **kwargs):
        calls.append(args)
        return integral(*args, **kwargs)

    monkeypatch.setattr(sources, "_lorentzian_domain_integral", counted)
    cfg = parse_config(
        "[grid]\nnx = 8\nny = 8\nnz = 6\n[source]\nkind = lorentzian\nwidth = 0.3\nt_s = 0\n"
        "[init]\nvelocity = taylor_green_h\n[time]\nT = 0.05\nsnapshot_every = 2\n"
    )
    res = run_simulation(cfg, 0.5, "hydro")
    again = energy_balance(res.history)
    records = weak_residual(res.history)
    assert len(calls) == 1
    assert np.array_equal(again.slack, res.energy.slack)
    assert any(r.rhs["source"] != 0.0 for r in records if r.kind == "concentration")


def test_taylor_green_preset_nontrivial():
    cfg = parse_config(SMALL_RUN)
    g = cfg.grid
    u = initial_velocity(cfg, g)
    assert np.max(np.abs(u.u1)) > 0.1
    assert np.max(np.abs(u.u3)) == 0.0


# ---------------------------------------------------------------------------
# VTK / CSV
# ---------------------------------------------------------------------------


_VTK_HEADER = [
    "# vtk DataFile Version 3.0",
    None,  # the title
    "BINARY",
    "DATASET STRUCTURED_POINTS",
    None,  # DIMENSIONS
    None,  # ORIGIN
    None,  # SPACING
    None,  # POINT_DATA
    "SCALARS C double 1",
    "LOOKUP_TABLE default",
]


def _read_vtk(path, n):
    """Test-only reader of a write_vtk file: its ten header lines and the C,
    p and velocity (n x 3) blocks, checking every keyword and separator."""
    raw = path.read_bytes()
    pos = 0

    def line():
        nonlocal pos
        end = raw.index(b"\n", pos)
        text, pos = raw[pos:end].decode(), end + 1
        return text

    def block(count):
        nonlocal pos
        data = np.frombuffer(raw, ">f8", count, pos)
        pos += 8 * count
        assert raw[pos : pos + 1] == b"\n"
        pos += 1
        return data

    header = [line() for _ in _VTK_HEADER]
    assert all(want in (None, got) for want, got in zip(_VTK_HEADER, header))
    assert header[7] == f"POINT_DATA {n}"
    C = block(n)
    assert [line(), line()] == ["SCALARS p double 1", "LOOKUP_TABLE default"]
    p = block(n)
    assert line() == "VECTORS velocity double"
    velocity = block(3 * n).reshape(n, 3)
    assert pos == len(raw)
    return header, C, p, velocity


def test_vtk_zero_state_header_and_bytes(tmp_path):
    g = Grid(4, 4, 4)
    st = SimState.zeros(g)
    path = tmp_path / "snap.vtk"
    write_vtk(st, str(path), g, title="zero state")
    raw = path.read_bytes()
    lines = raw.split(b"\n", 10)[:10]
    assert lines[0] == b"# vtk DataFile Version 3.0"
    assert lines[1] == b"zero state"
    assert lines[2] == b"BINARY"
    assert lines[3] == b"DATASET STRUCTURED_POINTS"
    assert lines[4] == b"DIMENSIONS 4 4 4"
    assert lines[7] == b"POINT_DATA 64"
    n = 64
    # byte count is predictable: the header, two keyword blocks, and one
    # float64 per value in each data block, each block closed by a newline
    header = b"\n".join(lines) + b"\n"
    expected = (
        len(header)
        + 8 * n + 1  # C
        + len(b"SCALARS p double 1\nLOOKUP_TABLE default\n")
        + 8 * n + 1  # p
        + len(b"VECTORS velocity double\n")
        + 24 * n + 1  # velocity
    )
    assert len(raw) == expected
    _, C, p, velocity = _read_vtk(path, n)
    assert not C.any() and not p.any() and not velocity.any()


def test_vtk_point_order_x_fastest(tmp_path):
    g = Grid(4, 4, 4)
    C = np.zeros(g.shape_cells)
    C[1, 0, 0] = 7.0  # second point in VTK order
    st = SimState(0.0, 0, StaggeredVelocity.zeros(g), np.zeros(g.shape_cells), C)
    path = tmp_path / "o.vtk"
    write_vtk(st, str(path), g)
    raw = path.read_bytes()
    start = raw.index(b"LOOKUP_TABLE default\n") + len(b"LOOKUP_TABLE default\n")
    data = np.frombuffer(raw, ">f8", 64, start)
    assert data[1] == 7.0
    assert data[0] == 0.0
    assert np.count_nonzero(data) == 1


@pytest.mark.parametrize("mode", ["aniso", "hydro"])
def test_vtk_roundtrip_exact(tmp_path, mode):
    """Every value reads back with the bits of the state it came from; the
    hydrostatic surface pressure is broadcast over z."""
    g = Grid(5, 4, 6, lx=1.5, ly=0.75, h=0.5)
    rng = np.random.default_rng(11)
    u = StaggeredVelocity(*(rng.normal(size=s) for s in (g.shape_u1, g.shape_u2, g.shape_u3)))
    p = rng.normal(size=g.shape_cells if mode == "aniso" else (g.nx, g.ny))
    C = rng.normal(size=g.shape_cells)
    st = SimState(0.25, 3, u, p, C)
    path = tmp_path / "r.vtk"
    write_vtk(st, str(path), g, title=f"{mode} round trip")
    header, C_back, p_back, vel_back = _read_vtk(path, g.nx * g.ny * g.nz)
    assert header[1] == f"{mode} round trip"
    assert header[4] == f"DIMENSIONS {g.nx} {g.ny} {g.nz}"
    p3 = p if mode == "aniso" else np.broadcast_to(p[:, :, None], g.shape_cells)
    pairs = [(C_back, C), (p_back, p3)] + list(zip(vel_back.T, u.center_components()))
    for back, want in pairs:
        assert back.astype("<f8").tobytes() == want.ravel(order="F").tobytes()


def test_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(70)
    rows = [(float(a), float(b)) for a, b in rng.normal(size=(20, 2))]
    path = tmp_path / "vals.csv"
    write_csv(str(path), ["a", "b"], rows)
    header, back = read_csv(str(path))
    assert header == ["a", "b"]
    for (a, b), (a2, b2) in zip(rows, back):
        assert a == a2 and b == b2


def test_read_csv_roundtrips_norms_of_a_run(tmp_path):
    """norms.csv pairs a name with a value: the name comes back as str."""
    cfg = parse_config(SMALL_RUN)
    res = run_simulation(cfg, 0.5, "aniso", out_dir=str(tmp_path / "run"))
    header, rows = read_csv(str(tmp_path / "run" / "norms.csv"))
    assert header == ["quantity", "value"]
    assert [tuple(r) for r in rows] == [(k, res.norms[k]) for k in APRIORI_NORM_NAMES]


def test_csv_format_conventions(tmp_path):
    path = tmp_path / "f.csv"
    write_csv(str(path), ["t", "E"], [(0.5, 1.25)])
    raw = path.read_bytes().decode()
    assert raw == "t,E\n0.5,1.25\n"


# ---------------------------------------------------------------------------
# epsilon_sweep and CLI
# ---------------------------------------------------------------------------


def test_sweep_writes_expected_artifacts(tmp_path):
    cfg = parse_config(SMALL_SWEEP)
    out = tmp_path / "sweep"
    res = epsilon_sweep(cfg, out_dir=str(out))
    header, rows = read_csv(str(out / "sweep.csv"))
    assert header == ["eps", "err_uH", "err_u3", "err_C", "energy_slack_min", "runtime_s"]
    assert [r[0] for r in rows] == [0.5, 0.25]
    assert (out / "hydro" / "energy.csv").exists()
    assert (out / "aniso_eps0.5" / "energy.csv").exists()
    assert (out / "aniso_eps0.25" / "norms.csv").exists()
    assert len(res.report.rows) == 2
    # rows sorted by decreasing eps with finite errors
    assert res.report.rows[0].eps == 0.5
    assert all(np.isfinite([r.err_uH for r in res.report.rows]))


def test_sweep_single_eps_single_row(tmp_path):
    cfg = parse_config(SMALL_SWEEP.replace("eps_list = 0.5, 0.25", "eps_list = 0.5"))
    res = epsilon_sweep(cfg, out_dir=str(tmp_path / "one"))
    assert len(res.report.rows) == 1
    assert res.report.rows[0].eps == 0.5
    _, rows = read_csv(str(tmp_path / "one" / "sweep.csv"))
    assert len(rows) == 1


def test_sweep_isolated_run_directories(tmp_path):
    cfg = parse_config(SMALL_SWEEP)
    out = tmp_path / "s2"
    epsilon_sweep(cfg, out_dir=str(out))
    for sub in ("hydro", "aniso_eps0.5", "aniso_eps0.25"):
        d = out / sub
        assert (d / "run.txt").exists()
        assert (d / "energy.csv").exists()
        assert any(name.startswith("step_") for name in os.listdir(d / "snapshots"))


def test_sweep_runs_share_the_config_grid():
    """The parsed config holds the one grid that every run and history uses."""
    cfg = parse_config(SMALL_SWEEP)
    res = epsilon_sweep(cfg)
    assert res.hydro.history.grid is cfg.grid
    assert len(res.aniso) == 2 and all(r.history.grid is cfg.grid for r in res.aniso.values())
    assert run_simulation(cfg, 0.5, "aniso").history.grid is cfg.grid


def test_cli_single_run_and_exit_codes(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(SMALL_RUN)
    out = tmp_path / "cli_out"
    rc = cli_main([str(cfgfile), "--out", str(out), "--quiet"])
    assert rc == 0
    assert (out / "energy.csv").exists()


def test_cli_mode_and_eps_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(SMALL_RUN)
    out = tmp_path / "cli_hydro"
    rc = cli_main([str(cfgfile), "--mode", "hydro", "--eps", "0.25", "--out", str(out), "--quiet"])
    assert rc == 0
    manifest = (out / "run.txt").read_text()
    assert "mode=hydro" in manifest
    assert "eps=0.25" in manifest


ABORT_RUN = """
[grid]
nx = 8
ny = 8
nz = 6
[bc]
theta_mode = constant
theta1 = 1000.0
theta2 = 0.0
[source]
intensity = 0
[time]
T = 2.0
cfl = 0.9
snapshot_every = 2
"""


def test_numerical_abort_exit_code_and_flush(tmp_path):
    """A CFL blow-up aborts with exit code 2 and flushes the last good state."""
    cfgfile = tmp_path / "abort.cfg"
    cfgfile.write_text(ABORT_RUN)
    out = tmp_path / "aborted"
    rc = cli_main([str(cfgfile), "--out", str(out), "--quiet"])
    assert rc == 2
    header, _, _, _ = _read_vtk(out / "snapshots" / "last_good.vtk", 8 * 8 * 6)
    assert header[1].endswith("aborted")


def test_cli_config_error_exit_code(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("[phys]\nnu1 = -3\n")
    assert cli_main([str(cfgfile)]) == 1


def test_cli_missing_file_exit_code(tmp_path):
    assert cli_main([str(tmp_path / "absent.cfg")]) == 1
