"""Config parsing, run orchestration, file formats, CLI exit codes."""

import filecmp
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from hydrolimit import aniso, harness
from hydrolimit.cli import main as cli_main
from hydrolimit.config import _KEYS, ConfigError, parse_config
from hydrolimit.core import Grid, PhysParams, coercivity_constant, coriolis_at
from hydrolimit.diagnostics import (
    APRIORI_NORM_NAMES,
    energy_balance,
    spacetime_errors,
    translation_modulus,
    weak_residual,
)
from hydrolimit.operators import StaggeredVelocity, divergence
from hydrolimit.harness import (
    epsilon_sweep,
    initial_velocity,
    preflight,
    read_csv,
    run_simulation,
    write_csv,
    write_vtk,
)
from hydrolimit.aniso import NumericsError, SimState
from hydrolimit.sources import SourceSpec


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
    assert cfg.phys.l0 == pytest.approx(math.pi / 4)


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


@pytest.mark.parametrize(
    "text,key,line",
    [
        ("[source]\nintensity = -1\n", "intensity", 2),
        ("[init]\nconcentration = gaussian_blob\nblob_amp = -0.5\n", "blob_amp", 3),
    ],
    ids=["intensity", "blob_amp"],
)
def test_parse_rejects_negative_amount_with_line(text, key, line):
    """A source intensity or blob amplitude below zero would start or feed
    the pollutant below zero: a config error at its key and line."""
    with pytest.raises(ConfigError, match="must be >= 0") as err:
        parse_config(text)
    assert err.value.key == key and err.value.line == line


@pytest.mark.parametrize(
    "text,message,key,line",
    [
        ("[grid]\nnx 8\n", "expected 'key = value'", None, 2),
        ("nx = 8\n", "key outside of any [section]", None, 1),
        ("[grid]\nnx = 8\n[source]\nx_s = 0.5, 0.5\n", "expected 3 comma-separated values, got 2",
         "x_s", 4),
        ("[bc]\ntheta_mode = file\n", "theta_mode = file requires theta_file", "theta_file", 2),
    ],
    ids=["no-equals", "no-section", "x_s-two-values", "theta_file-missing"],
)
def test_parse_rejects_malformed_entry_with_line(text, message, key, line):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value).endswith(f" {message}")
    assert err.value.key == key and err.value.line == line


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


# A 4x4x4 Taylor-Green run with a blob, one step of dt = T at the parent
# for dt_max = -1.
TINY_BLOB_RUN = """
[grid]
nx = 4
ny = 4
nz = 4
[init]
velocity = taylor_green_h
concentration = gaussian_blob
[time]
T = 0.01
"""


@pytest.mark.parametrize(
    "section, changes",
    [
        ("time", {"dt_max": -1.0}),
        ("time", {"snapshot_every": 0}),
        ("time", {"snapshot_every": 2.5}),
        ("time", {"T": -0.01}),
        ("time", {"cfl": 1.5}),
        ("init", {"blob_amp": -1.0, "blob_width": -0.1}),
        ("init", {"blob_width": -0.1}),
    ],
)
def test_time_and_init_blocks_refuse_replace_outside_their_ranges(tmp_path, section, changes):
    """``TimeConfig`` and ``InitConfig`` apply their section's ``_KEYS``
    rules when built, so ``dataclasses.replace`` cannot set a value that
    the parser refuses: it is refused at once, before any run writes."""
    cfg = parse_config(TINY_BLOB_RUN)
    out = tmp_path / "out"
    key = next(iter(changes))
    with pytest.raises(ValueError, match=rf"\[{section}\] {key} must"):
        changed = replace(cfg, **{section: replace(getattr(cfg, section), **changes)})
        run_simulation(changed, 0.5, "aniso", out_dir=str(out))
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


def test_parse_accepts_tiny_positive_eigenvalue():
    """Coercivity is positive definiteness, however small the constant."""
    cfg = parse_config("[grid]\nnx = 8\n[diffusion]\nm33 = 1e-60\n")
    assert coercivity_constant(cfg.diffusion) == 1e-60


def test_parse_rejects_singular_entries_with_line():
    with pytest.raises(ConfigError, match="coercivity violated") as err:
        parse_config("[grid]\nnx = 8\n[diffusion]\nm33 = 0\n")
    assert err.value.line == 4 and err.value.key == "m33"


def test_parse_rejects_singular_tensor_file_cell(tmp_path):
    n = 4
    rows = [f"{n} {n} {n}"] + ["1.0 0.0 0.0 1.0 0.0 1.0"] * (n**3 - 1)
    rows.insert(20, "1.0 0.0 0.0 1.0 0.0 0.0")  # one singular cell, diag(1, 1, 0)
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
    assert parse_config(f"[phys]\n{mode}l_slope = 0\n").phys.l_slope == 0.0


PLANE_RUN = SMALL_RUN.replace("[phys]\n", "[phys]\nf0 = 3\n")


def test_f_plane_is_the_zero_slope_beta_plane(tmp_path):
    """coriolis_mode only declares the plane: f_plane and beta_plane with
    l_slope = 0 give one rotation profile, and runs that write the same
    bytes in both modes."""
    f_plane = parse_config(PLANE_RUN.replace("[phys]\n", "[phys]\ncoriolis_mode = f_plane\n"))
    beta = parse_config(
        PLANE_RUN.replace("[phys]\n", "[phys]\ncoriolis_mode = beta_plane\nl_slope = 0\n")
    )
    grid = f_plane.grid
    for x in (grid.x2c, grid.x2f):
        alpha, beta_ = coriolis_at(f_plane.phys_params(0.5), x)
        lat = np.full(x.shape, f_plane.phys.l0)
        assert np.array_equal(alpha, 2.0 * 3.0 * np.sin(lat))
        assert np.array_equal(beta_, 2.0 * 3.0 * np.cos(lat))
    for mode in ("aniso", "hydro"):
        for name, cfg in (("f", f_plane), ("beta", beta)):
            run_simulation(cfg, 0.5, mode, out_dir=str(tmp_path / name / mode))
        for csv in ("energy.csv", "norms.csv"):
            got = [(tmp_path / name / mode / csv).read_bytes() for name in ("f", "beta")]
            assert got[0] == got[1], (mode, csv)


@pytest.mark.parametrize(
    "text,key,line",
    [
        ("[bc]\ntheta1 = 5\n", "theta1", 2),
        ("[bc]\ntheta_file = cells.txt\ntheta_mode = zero\n", "theta_file", 2),
        ("[bc]\ntheta_mode = constant\ntheta1 = 1\ntheta_file = cells.txt\n", "theta_file", 4),
        ("[bc]\ntheta_mode = file\ntheta_file = cells.txt\ntheta2 = 1\n", "theta2", 4),
        ("[source]\nkind = delta_deposit\nwidth = 0.1\n", "width", 3),
        ("[init]\nvelocity = zero\nvelocity_amp = 5\n", "velocity_amp", 3),
        ("[init]\nvelocity_amp = 5\n", "velocity_amp", 2),
        ("[init]\nconcentration = zero\nblob_width = 0.3\nblob_amp = 7\n", "blob_width", 3),
        ("[init]\nblob_amp = 7\nblob_center = 0.5, 0.5, 0.5\n", "blob_amp", 2),
    ],
    ids=["theta1-zero", "theta_file-zero", "theta_file-constant", "theta2-file", "width-delta",
         "velocity_amp-zero", "velocity_amp-default", "blob-zero", "blob-default"],
)
def test_parse_rejects_ignored_keys(tmp_path, text, key, line):
    """A key that another key makes irrelevant is an error at its own line."""
    (tmp_path / "cells.txt").write_text("\n".join(_CELL_FILES["theta_file"][1]) + "\n")
    with pytest.raises(ConfigError, match="is ignored") as err:
        parse_config(GRID4 + text, base_dir=str(tmp_path))
    assert err.value.key == key and err.value.line == 4 + line


@pytest.mark.parametrize(
    "text,message",
    [
        ("[init]\nvelocity_amp = 5\n", "is ignored under velocity = zero"),
        ("[init]\nblob_center = 0.5, 0.5, 0.5\n", "is ignored under concentration = zero"),
        ("[source]\nkind = delta_deposit\nwidth = 0.1\n", "is ignored under kind = delta_deposit"),
    ],
)
def test_ignored_key_names_the_key_that_ignores_it(text, message):
    with pytest.raises(ConfigError) as err:
        parse_config(GRID4 + text)
    assert str(err.value).endswith(message)


def test_delta_width_is_refused_before_the_location():
    """The ignored-key table runs before the source is built, so a delta
    width is reported even when x_s is also bad."""
    text = "[source]\nkind = delta_deposit\nx_s = 2, 0.5, 0.5\nwidth = 0.1\n"
    with pytest.raises(ConfigError, match="is ignored under kind = delta_deposit") as err:
        parse_config(GRID4 + text)
    assert err.value.key == "width" and err.value.line == 8


def test_phys_parses_to_phys_params():
    cfg = parse_config(
        "[phys]\nnu1 = 0.02\nnu2 = 0.03\nnu3 = 0.04\nf0 = 2\n"
        "coriolis_mode = beta_plane\nl0 = 0.5\nl_slope = 0.25\n"
    )
    assert cfg.phys == PhysParams(nu1=0.02, nu2=0.03, nu3=0.04, f0=2.0, l0=0.5, l_slope=0.25)
    assert cfg.phys_params(0.25) == PhysParams(
        nu1=0.02, nu2=0.03, nu3=0.04, eps=0.25, f0=2.0, l0=0.5, l_slope=0.25
    )


_X = (0.5, 0.5, 0.5)


@pytest.mark.parametrize("intensity", [0.0, 2.0])
@pytest.mark.parametrize(
    "kind,width,mode,expected",
    [
        ("gaussian", None, "aniso", SourceSpec("gaussian", 2.0, 0.1, _X, 0.25)),
        ("gaussian", None, "hydro", SourceSpec("delta_deposit", 2.0, 0.1, _X)),
        ("gaussian", 0.3, "aniso", SourceSpec("gaussian", 2.0, 0.1, _X, 0.3)),
        ("gaussian", 0.3, "hydro", SourceSpec("gaussian", 2.0, 0.1, _X, 0.3)),
        ("lorentzian", None, "aniso", SourceSpec("lorentzian", 2.0, 0.1, _X, 0.25)),
        ("lorentzian", None, "hydro", SourceSpec("lorentzian", 2.0, 0.1, _X, 0.25)),
        ("lorentzian", 0.3, "aniso", SourceSpec("lorentzian", 2.0, 0.1, _X, 0.3)),
        ("lorentzian", 0.3, "hydro", SourceSpec("lorentzian", 2.0, 0.1, _X, 0.3)),
        ("unit_impulse", None, "aniso", SourceSpec("unit_impulse", 2.0, 0.1, _X, 0.25)),
        ("unit_impulse", None, "hydro", SourceSpec("unit_impulse", 2.0, 0.1, _X, 0.25)),
        ("unit_impulse", 0.3, "aniso", SourceSpec("unit_impulse", 2.0, 0.1, _X, 0.3)),
        ("unit_impulse", 0.3, "hydro", SourceSpec("unit_impulse", 2.0, 0.1, _X, 0.3)),
        ("delta_deposit", None, "aniso", SourceSpec("delta_deposit", 2.0, 0.1, _X)),
        ("delta_deposit", None, "hydro", SourceSpec("delta_deposit", 2.0, 0.1, _X)),
    ],
)
def test_source_spec_table(kind, width, mode, expected, intensity):
    """The parsed [source] resolved for eps = 0.25: a given width is kept, an
    omitted one is eps, and the hydrostatic run of the default gaussian takes
    the delta deposit; intensity 0 is no source."""
    text = f"[source]\nkind = {kind}\nintensity = {intensity}\n"
    cfg = parse_config(text + (f"width = {width}\n" if width is not None else ""))
    assert cfg.source == SourceSpec(kind, intensity, 0.1, _X, width)
    assert cfg.source_spec(0.25, mode) == (expected if intensity else None)


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


def _fixed_steps_run(steps: int, every: int):
    """SMALL_RUN cut to ``steps`` steps of dt = 1e-3, a snapshot every ``every``."""
    text = SMALL_RUN.replace("T = 0.1", f"T = {steps * 1e-3!r}\ndt_max = 1e-3")
    return parse_config(text.replace("snapshot_every = 2", f"snapshot_every = {every}"))


@pytest.mark.parametrize(
    "steps,every,ledger,vtk",
    [
        (33, 4, list(range(0, 33, 4)), list(range(0, 33, 4)) + [33]),  # ragged
        (33, 64, [0, 33], [0, 33]),  # shorter than one interval
    ],
)
def test_ledger_spacing_is_uniform(tmp_path, steps, every, ledger, vtk):
    """The history keeps a state every min(snapshot_every, N) steps; the VTK
    snapshots add the final state when it is off that spacing."""
    res = run_simulation(_fixed_steps_run(steps, every), 0.5, "aniso", out_dir=str(tmp_path))
    assert res.n_steps == steps and res.dt == 1e-3
    assert [s.step for s in res.history.states] == ledger
    assert res.history.dt == 1e-3 * (ledger[1] - ledger[0])
    assert sorted(os.listdir(tmp_path / "snapshots")) == [f"step_{n:06d}.vtk" for n in vtk]
    assert f"snapshots={len(ledger)}\n" in (tmp_path / "run.txt").read_text()


def test_run_reports_its_steps_before_the_first(monkeypatch, capsys):
    """A run that is not quiet prints its step count and dt before stepping,
    so a run too long to wait for says so at once; a quiet one prints nothing."""

    def fail(*args, **kwargs):
        raise NumericsError("stopped at the first step")

    monkeypatch.setattr(harness, "step", fail)
    cfg = _fixed_steps_run(33, 4)
    for quiet, out in ((True, ""), (False, "[aniso eps=0.5] starting 33 steps, dt=1.000e-03\n")):
        with pytest.raises(NumericsError):
            run_simulation(cfg, 0.5, "aniso", quiet=quiet)
        assert capsys.readouterr().out == out


def _manifest(path) -> dict:
    return dict(ln.split("=", 1) for ln in path.read_text().splitlines())


def test_aborted_run_leaves_a_manifest(tmp_path, monkeypatch):
    """An error at step 3, a NumericsError or any other, leaves run.txt with
    status=aborted, the cause and the step and t of the last good state,
    which is also last_good.vtk; the error reaches the caller unchanged."""
    real = harness.step
    good = run_simulation(_fixed_steps_run(3, 4), 0.5, "aniso").history.states[-1]
    for error in (NumericsError("non-finite state after step 4"), RuntimeError("injected")):

        def step(state, *args, **kwargs):
            if state.step == 3:
                raise error
            return real(state, *args, **kwargs)

        monkeypatch.setattr(harness, "step", step)
        out = tmp_path / type(error).__name__
        with pytest.raises(type(error)) as err:
            run_simulation(_fixed_steps_run(33, 4), 0.5, "aniso", out_dir=str(out))
        assert err.value is error
        manifest = _manifest(out / "run.txt")
        assert manifest["status"] == "aborted"
        assert manifest["cause"] == f"{type(error).__name__}: {error}"
        assert (manifest["step"], manifest["t"]) == ("3", repr(good.t))
        assert (manifest["steps"], manifest["dt"]) == ("33", "0.001")
        _, C, _, _ = _read_vtk(out / "snapshots" / "last_good.vtk", 8 * 8 * 6)
        assert np.array_equal(C, good.C.ravel(order="F"))
        assert not (out / "energy.csv").exists()


def test_error_after_the_last_step_leaves_an_aborted_manifest(tmp_path, monkeypatch):
    """An error in the ledger, after every step has run, names the final
    state as the last good one."""

    def fail(history):
        raise ValueError("ledger refused")

    monkeypatch.setattr(harness, "energy_balance", fail)
    with pytest.raises(ValueError, match="^ledger refused$"):
        run_simulation(_fixed_steps_run(5, 4), 0.5, "aniso", out_dir=str(tmp_path))
    manifest = _manifest(tmp_path / "run.txt")
    assert manifest["status"] == "aborted" and manifest["cause"] == "ValueError: ledger refused"
    assert manifest["step"] == "5"
    assert (tmp_path / "snapshots" / "last_good.vtk").exists()


def test_non_finite_abort_names_the_field_and_cell(tmp_path, monkeypatch):
    """A NaN put into C at a known cell through the forcing hook is named,
    with that cell, in the step's error and in the aborted run's manifest."""
    real = harness.step

    def nan_in_c(t, grid):
        fC = np.zeros(grid.shape_cells)
        fC[3, 2, 0] = np.nan
        return np.zeros(grid.shape_u1), np.zeros(grid.shape_u2), np.zeros(grid.shape_u3), fC

    def step(state, *args, **kwargs):
        return real(state, *args, forcing=nan_in_c if state.step == 2 else None, **kwargs)

    monkeypatch.setattr(harness, "step", step)
    with pytest.raises(NumericsError, match=r"^non-finite C at \(3, 2, 0\) after step 3$"):
        run_simulation(_fixed_steps_run(33, 4), 0.5, "aniso", out_dir=str(tmp_path))
    manifest = _manifest(tmp_path / "run.txt")
    assert manifest["cause"] == "NumericsError: non-finite C at (3, 2, 0) after step 3"
    assert manifest["step"] == "2"


def test_sweep_member_error_leaves_its_aborted_manifest(tmp_path, monkeypatch):
    """A member whose run raises an error other than a NumericsError
    leaves its run.txt with status=aborted, the cause and the last good
    step; the error reaches the caller with its type and message."""
    real = harness.step

    def step(state, params, *args, **kwargs):
        if params.eps == 0.25 and state.step == 3:
            raise ValueError("injected at eps=0.25")
        return real(state, params, *args, **kwargs)

    monkeypatch.setattr(harness, "step", step)
    out = tmp_path / "sweep"
    with pytest.raises(ValueError, match="^injected at eps=0.25$"):
        epsilon_sweep(parse_config(THREE_MEMBERS), out_dir=str(out))
    manifest = _manifest(out / "aniso_eps0.25" / "run.txt")
    assert manifest["status"] == "aborted"
    assert manifest["cause"] == "ValueError: injected at eps=0.25"
    assert manifest["step"] == "3"
    assert (out / "aniso_eps0.25" / "snapshots" / "last_good.vtk").exists()


def _listing(run_dir) -> list:
    return sorted(os.listdir(run_dir)) + sorted(os.listdir(run_dir / "snapshots"))


def test_rerun_leaves_only_its_own_files(tmp_path, monkeypatch):
    """A run into a directory that holds an earlier run's files removes
    them first: an aborted rerun leaves no earlier energy.csv, norms.csv or
    snapshot, a shorter one no later snapshot, and a completed one no
    last_good.vtk.  A sweep whose first member fails leaves no earlier
    sweep.csv.  Files that no run writes stay."""
    out = tmp_path / "run"
    run_simulation(_fixed_steps_run(3, 2), 0.5, "aniso", out_dir=str(out))
    (out / "notes.txt").write_text("kept\n")
    real = harness.step

    def fail_at(step_no):
        def step(state, params, *args, **kwargs):
            if state.step == step_no and params.eps == 0.5:
                raise NumericsError("injected")
            return real(state, params, *args, **kwargs)

        return step

    monkeypatch.setattr(harness, "step", fail_at(1))
    with pytest.raises(NumericsError):
        run_simulation(_fixed_steps_run(3, 2), 0.5, "aniso", out_dir=str(out))
    manifest = _manifest(out / "run.txt")
    assert (manifest["status"], manifest["step"]) == ("aborted", "1")
    assert _listing(out) == ["notes.txt", "run.txt", "snapshots", "last_good.vtk", "step_000000.vtk"]
    monkeypatch.setattr(harness, "step", real)
    run_simulation(_fixed_steps_run(3, 2), 0.5, "aniso", out_dir=str(out))
    run_simulation(_fixed_steps_run(2, 2), 0.5, "aniso", out_dir=str(out))
    assert _manifest(out / "run.txt")["status"] == "completed"
    assert _listing(out) == [
        "energy.csv", "norms.csv", "notes.txt", "run.txt", "snapshots",
        "step_000000.vtk", "step_000002.vtk",
    ]

    sweep = tmp_path / "sweep"
    cfg = parse_config(SMALL_SWEEP.replace("T = 0.1", "T = 0.004\ndt_max = 1e-3"))
    epsilon_sweep(cfg, out_dir=str(sweep))
    assert (sweep / "sweep.csv").exists()
    monkeypatch.setattr(harness, "step", fail_at(2))
    with pytest.raises(NumericsError, match="^injected$"):
        epsilon_sweep(cfg, out_dir=str(sweep))
    assert not (sweep / "sweep.csv").exists()


def test_run_evaluates_its_start_limits_once(tmp_path, monkeypatch):
    """A run evaluates the stability limits of its start once, and the
    CLI's preflight once more; every other evaluation is a step's own check
    of the state it advances."""
    calls = []
    real = harness.stability_limits

    def counting(state, *args):
        calls.append(state.step)
        return real(state, *args)

    monkeypatch.setattr(aniso, "stability_limits", counting)
    monkeypatch.setattr(harness, "stability_limits", counting)
    text = SMALL_RUN.replace("T = 0.1", "T = 0.005\ndt_max = 1e-3")
    res = run_simulation(parse_config(text), 0.5, "aniso", out_dir=str(tmp_path / "run"))
    assert res.n_steps == 5 and calls == [0, 0, 1, 2, 3, 4]
    calls.clear()
    (tmp_path / "run.cfg").write_text(text)
    assert cli_main([str(tmp_path / "run.cfg"), "--out", str(tmp_path / "cli"), "--quiet"]) == 0
    assert calls == [0, 0, 0, 1, 2, 3, 4]


@pytest.mark.parametrize(
    "phys, time, bound",
    [
        ("", "", "concentration_diffusive"),
        ("f0 = 1e4", "", "rotation"),
        ("", "dt_max = 1e-4", "dt_max"),
        pytest.param(
            "[init]\nvelocity = taylor_green_h\nvelocity_amp = 200", "", "advective", id="advective"
        ),
        pytest.param(
            "nu1 = 1\nnu2 = 1\nnu3 = 1\n[diffusion]\nm11 = 0.1\nm22 = 0.1\nm33 = 0.1",
            "",
            "momentum_diffusive",
            id="momentum_diffusive",
        ),
    ],
)
def test_manifest_names_the_limit_that_fixed_dt(tmp_path, phys, time, bound):
    """run.txt lists the four stability limits times cfl, inf where absent
    (a zero velocity has no advective limit), and the one that bound dt:
    each name that ``_schedule`` can return."""
    cfg = parse_config(f"[grid]\nnx = 8\nny = 8\nnz = 6\n[phys]\n{phys}\n[time]\nT = 0.002\n{time}\n")
    res = run_simulation(cfg, 0.5, "aniso", out_dir=str(tmp_path))
    manifest = _manifest(tmp_path / "run.txt")
    names = ("advective", "momentum_diffusive", "concentration_diffusive", "rotation")
    limits = {n: float(manifest[f"limit_{n}"]) for n in names}
    assert manifest["dt_limit"] == bound and manifest["status"] == "completed"
    assert (limits["advective"] == math.inf) == (bound != "advective")
    assert min(min(limits.values()), cfg.time.dt_max) * (1 + 1e-12) >= res.dt
    if bound != "dt_max":
        assert min(limits, key=limits.get) == bound and limits[bound] < cfg.time.dt_max


def test_schedule_caps_dt_at_dt_max():
    """``_schedule`` takes the fewest equal steps no longer than the smallest
    limit and dt_max, and names the bound: dt_max when the cap is strictly
    smaller, the named limit when the two tie."""
    limits = {
        "advective": math.inf,
        "momentum_diffusive": 2e-3,
        "concentration_diffusive": 1e-3,
        "rotation": 0.5,
    }
    for cap, want in (
        ("", (10, 1e-3, 4, "concentration_diffusive")),
        ("dt_max = 1e-4", (100, 1e-4, 4, "dt_max")),
        ("dt_max = 1e-3", (10, 1e-3, 4, "concentration_diffusive")),
        ("dt_max = 2.5e-3", (10, 1e-3, 4, "concentration_diffusive")),
    ):
        cfg = parse_config(f"[time]\nT = 0.01\nsnapshot_every = 4\n{cap}\n")
        assert harness._schedule(cfg, limits) == want, cap
    short = parse_config("[time]\nT = 0.002\nsnapshot_every = 4\n")
    assert harness._schedule(short, limits) == (2, 1e-3, 2, "concentration_diffusive")


_FRESH_BOX = """
import resource
from hydrolimit import aniso, harness
from hydrolimit.config import parse_config

BOX = '''
[grid]
nx = 32
ny = 32
nz = 16
[phys]
f0 = 1.0
[init]
velocity = taylor_green_h
[time]
T = {T!r}
dt_max = 1e-4
snapshot_every = {every}
'''
"""


def _in_fresh_process(code: str) -> str:
    """stdout of ``python -c`` running ``_FRESH_BOX`` and then ``code``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_BOX + code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _glibc() -> bool:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the heap policy acts on glibc only")
def test_steps_reuse_freed_heap():
    """After a warm-up run, 32 steps at 32x32x16 take almost no minor page
    faults: the heap a step frees stays mapped for the next one.  Without
    the policy they took 22,600-24,000 (about 700 per step); with it, 0-4.
    The bound of 500 leaves a margin of over 40x on each side.  A fresh
    process, since this one's allocator history can hide the faults."""
    out = _in_fresh_process(
        """
for mode in ("aniso", "hydro"):
    harness.run_simulation(parse_config(BOX.format(T=4e-4, every=64)), 0.25, mode)
    cfg = parse_config(BOX.format(T=32e-4, every=64))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    res = harness.run_simulation(cfg, 0.25, mode)
    print(mode, res.n_steps, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    )
    runs = [line.split() for line in out.splitlines()]
    assert [run[:2] for run in runs] == [["aniso", "32"], ["hydro", "32"]]
    assert all(int(run[2]) < 500 for run in runs), out


def test_heap_policy_does_not_move_a_payload(tmp_path):
    """The same 16-step 32x32x16 runs, with the heap policy and with it
    replaced by a no-op, write byte-identical energy.csv and norms.csv."""
    runs = """
for mode in ("aniso", "hydro"):
    cfg = parse_config(BOX.format(T=16e-4, every=4))
    harness.run_simulation(cfg, 0.25, mode, out_dir=os.path.join(out, mode))
"""
    for policy in ("on", "off"):
        off = "harness._keep_freed_heap = lambda: None\n" if policy == "off" else ""
        _in_fresh_process(f"import os\nout = {str(tmp_path / policy)!r}\n{off}{runs}")
    for mode in ("aniso", "hydro"):
        for name in ("energy.csv", "norms.csv"):
            on, off = (tmp_path / p / mode / name for p in ("on", "off"))
            assert on.read_bytes() == off.read_bytes(), (mode, name)


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


def test_gaussian_blob_is_sampled_at_the_cell_centres():
    """blob_amp * exp(-|x - c|^2 / w^2) at the cell centres of a non-unit
    box, and a run's first history state holds that field."""
    cfg = parse_config(
        "[grid]\nnx = 8\nny = 4\nnz = 6\nlx = 2.0\nly = 0.5\nh = 1.5\n"
        "[source]\nintensity = 0\n"
        "[init]\nconcentration = gaussian_blob\nblob_amp = 0.7\n"
        "blob_center = 1.2, 0.2, 0.5\nblob_width = 0.4\n[time]\nT = 0.01\n"
    )
    x = (np.arange(8) + 0.5) * 2.0 / 8
    y = (np.arange(4) + 0.5) * 0.5 / 4
    z = (np.arange(6) + 0.5) * 1.5 / 6
    X, Y, Z = np.meshgrid(x, y, z, indexing="ij")
    want = 0.7 * np.exp(-((X - 1.2) ** 2 + (Y - 0.2) ** 2 + (Z - 0.5) ** 2) / 0.4**2)
    C0 = harness.initial_concentration(cfg)
    np.testing.assert_allclose(C0, want, rtol=1e-14, atol=0)
    assert C0.max() > 1e5 * C0.min()  # the box holds the blob, not its flat tail
    assert np.array_equal(run_simulation(cfg, 0.5, "aniso").history.states[0].C, C0)


def test_taylor_green_preset_nontrivial():
    cfg = parse_config(SMALL_RUN)
    u = initial_velocity(cfg)
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
    """The parsed config holds the one grid, tensor and traction that every
    run and history uses, and every history's source sample is read-only,
    also for the members that ran in forked processes."""
    cfg = parse_config(SMALL_SWEEP + "[bc]\ntheta_mode = constant\ntheta1 = 0.01\n")
    res = epsilon_sweep(cfg)
    runs = [res.hydro, *res.aniso.values(), run_simulation(cfg, 0.5, "aniso")]
    assert len(res.aniso) == 2 and cfg.theta is not None
    for r in runs:
        h = r.history
        assert h.grid is cfg.grid and h.M is cfg.diffusion and h.theta is cfg.theta
        assert not h.source.values.flags.writeable


THREE_MEMBERS = SMALL_SWEEP.replace("eps_list = 0.5, 0.25", "eps_list = 0.5, 0.25, 0.125")


@pytest.mark.parametrize("cpus", [1, 2])
def test_sweep_equals_its_members_run_one_by_one(tmp_path, monkeypatch, cpus):
    """The forked members give the files, errors, report rows and translation
    modulus of the same runs made one by one in this process."""
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    cfg = parse_config(THREE_MEMBERS)
    out = tmp_path / "sweep"
    res = epsilon_sweep(cfg, out_dir=str(out))

    eps_list = [0.5, 0.25, 0.125]
    runs = [(e, "aniso") for e in eps_list] + [(0.5, "hydro")]
    shared = replace(cfg, time=replace(cfg.time, dt_max=preflight(cfg, runs)))
    hydro = run_simulation(shared, 0.5, "hydro")
    rows = []
    for eps in eps_list:
        run_dir = tmp_path / "one_by_one" / f"aniso_eps{eps:g}"
        member = run_simulation(shared, eps, "aniso", out_dir=str(run_dir))
        for name in ("energy.csv", "norms.csv"):
            assert (out / f"aniso_eps{eps:g}" / name).read_bytes() == (run_dir / name).read_bytes()
        rows.append([eps, *spacetime_errors(member.history, hydro.history),
                     float(np.min(member.energy.slack))])
        if eps == eps_list[0]:
            modulus = translation_modulus(member.history)

    header, got = read_csv(str(out / "sweep.csv"))
    assert header[-1] == "runtime_s" and [r[:-1] for r in got] == rows
    assert [[r.eps, r.err_uH, r.err_u3, r.err_C] for r in res.report.rows] == [r[:4] for r in rows]
    assert list(res.translation.h) == list(modulus.h)
    assert list(res.translation.modulus) == list(modulus.modulus)
    assert res.translation.exponent == modulus.exponent


def _fail_member(monkeypatch, started, failing, error):
    """Make the aniso run of eps ``failing`` raise ``error`` at once; every
    aniso run that starts first records its eps as a file under ``started``
    (forked members inherit the patch)."""
    real = harness.run_simulation

    def run(cfg, eps, mode, out_dir=None, quiet=True):
        if mode == "aniso":
            (started / f"{eps:g}").touch()
            if eps == failing:
                raise error(f"injected at eps={eps:g}")
        return real(cfg, eps, mode, out_dir=out_dir, quiet=quiet)

    monkeypatch.setattr(harness, "run_simulation", run)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("failing", [0.5, 0.25, 0.125], ids=["first", "middle", "smallest"])
def test_sweep_member_failure(tmp_path, monkeypatch, capfd, cpus, failing):
    """A member's NumericsError reaches the caller with its type and message,
    after the rows of the members before it in eps order, and no member
    starts once the failure is seen."""
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    started = tmp_path / "started"
    started.mkdir()
    _fail_member(monkeypatch, started, failing, NumericsError)
    out = tmp_path / "sweep"
    with pytest.raises(NumericsError) as err:
        epsilon_sweep(parse_config(THREE_MEMBERS), out_dir=str(out))
    assert type(err.value) is NumericsError and str(err.value) == f"injected at eps={failing:g}"
    assert "Traceback" not in capfd.readouterr().err

    eps_list = [0.5, 0.25, 0.125]
    before = eps_list[: eps_list.index(failing)]
    if before:
        _, rows = read_csv(str(out / "sweep.csv"))
        assert [r[0] for r in rows] == before
    else:
        assert not (out / "sweep.csv").exists()
    # The failing member and those started with it or before it, and no
    # other: each of these runs for longer than the failure takes to reach
    # the parent.  One started beside the failing member may be terminated
    # before it records itself.
    may_start = eps_list[: max(eps_list.index(failing) + 1, cpus)]
    recorded = {float(n) for n in os.listdir(started)}
    assert failing in recorded and recorded <= set(may_start)


def test_sweep_member_that_exits_before_sending_its_result(tmp_path, monkeypatch):
    """A member that exits without sending a result fails the sweep with its
    exit code, after the rows of the members before it, and no later member
    starts."""
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    real = harness.run_simulation

    def run(cfg, eps, mode, out_dir=None, quiet=True):
        if mode == "aniso" and eps == 0.25:
            os._exit(3)
        return real(cfg, eps, mode, out_dir=out_dir, quiet=quiet)

    monkeypatch.setattr(harness, "run_simulation", run)
    out = tmp_path / "sweep"
    with pytest.raises(RuntimeError) as err:
        epsilon_sweep(parse_config(THREE_MEMBERS), out_dir=str(out))
    assert str(err.value) == "sweep member eps=0.25 exited with code 3 before sending a result"
    _, rows = read_csv(str(out / "sweep.csv"))
    assert [r[0] for r in rows] == [0.5]
    assert not (out / "aniso_eps0.125").exists()


def test_terminated_member_leaves_its_aborted_manifest(tmp_path, monkeypatch, capfd):
    """A member that the sweep terminates after another member failed writes
    run.txt with status=aborted and that cause, and its last good state,
    and prints no traceback; the caller gets the failing member's error."""
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    out = tmp_path / "sweep"
    first_snapshot = out / "aniso_eps0.25" / "snapshots" / "step_000000.vtk"
    real = harness.step

    def step(state, params, M, theta, source, dt, grid, mode, **kwargs):
        if mode == "aniso" and params.eps == 0.5 and state.step == 2:
            # wait until the eps = 0.25 run writes its first snapshot, so
            # that the sweep terminates it while it steps
            deadline = time.monotonic() + 60.0
            while not first_snapshot.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise NumericsError("injected at step 3")
        if mode == "aniso" and params.eps == 0.25:
            time.sleep(0.05)
        return real(state, params, M, theta, source, dt, grid, mode, **kwargs)

    monkeypatch.setattr(harness, "step", step)
    with pytest.raises(NumericsError, match="^injected at step 3$"):
        epsilon_sweep(parse_config(THREE_MEMBERS), out_dir=str(out))
    manifest = _manifest(out / "aniso_eps0.25" / "run.txt")
    assert manifest["status"] == "aborted"
    assert manifest["cause"] == (
        "MemberStopped: the sweep stopped this member after another member failed"
    )
    assert (out / "aniso_eps0.25" / "snapshots" / "last_good.vtk").exists()
    assert not (out / "aniso_eps0.125").exists()
    assert "Traceback" not in capfd.readouterr().err


def test_member_terminated_while_sending_its_result_exits(monkeypatch):
    """A member whose run has ended and which is blocked sending a result
    larger than the pipe's buffer, that no one reads, dies of SIGTERM: it
    has no manifest left to write and must not block again sending one."""
    cfg = parse_config(SMALL_RUN)
    hydro = run_simulation(cfg, 0.5, "hydro")
    res = run_simulation(cfg, 0.5, "aniso")
    res.padding = np.zeros(1 << 17)  # 1 MiB pickled, far above a pipe's 64 KiB
    monkeypatch.setattr(harness, "run_simulation", lambda *args, **kwargs: res)
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    args = (send, cfg, 0.5, hydro.history, None, True, False)
    proc = ctx.Process(target=harness._sweep_member, args=args)
    proc.start()
    send.close()
    try:
        assert recv.poll(60.0)  # the member has begun to send
        time.sleep(0.2)
        proc.terminate()
        proc.join(10.0)
        assert proc.exitcode == -signal.SIGTERM
    finally:
        if proc.exitcode is None:
            proc.kill()
            proc.join()
        recv.close()


def test_sweep_member_error_prints_its_traceback(tmp_path, monkeypatch, capfd):
    """An exception other than a numerical abort reaches the caller with its
    type and message, and the member prints the traceback that the
    exception loses on its way to the caller."""
    started = tmp_path / "started"
    started.mkdir()
    _fail_member(monkeypatch, started, 0.25, ValueError)
    with pytest.raises(ValueError, match="^injected at eps=0.25$"):
        epsilon_sweep(parse_config(THREE_MEMBERS))
    err = capfd.readouterr().err
    assert "Traceback" in err and "ValueError: injected at eps=0.25" in err


def test_sweep_member_history_is_spaced_by_its_two_states():
    """A member's history keeps its first and last states with dt their
    separation, so its ledger integrates over the run's whole span."""
    cfg = parse_config(SMALL_SWEEP)
    res = epsilon_sweep(cfg)
    for member in res.aniso.values():
        h = member.history
        assert h.mode == "aniso" and len(h.states) == 2 and all(s.is_finite() for s in h.states)
        assert h.dt == h.states[-1].t - h.states[0].t
        assert h.states[-1].t == pytest.approx(cfg.time.T, rel=1e-12)
    # the parent's trim kept the run's spacing with two states; it is refused
    with pytest.raises(ValueError, match="not spaced"):
        replace(h, dt=member.dt * cfg.time.snapshot_every)


# The schedule of 33 steps, 17 states, whose accumulated last time rounds
# just above 16 snapshot spacings: the shift 8 dt equals T/2.
HALF_SPAN_SWEEP = """
[grid]
nx = 8
ny = 8
nz = 6
[init]
velocity = taylor_green_h
[time]
T = 0.05
snapshot_every = 2
[run]
mode = sweep
eps_list = 0.5, 0.25
"""


def test_cli_sweep_whose_half_span_is_a_shift_completes(tmp_path):
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(HALF_SPAN_SWEEP)
    out = tmp_path / "out"
    assert cli_main([str(cfgfile), "--out", str(out), "--quiet"]) == 0
    _, rows = read_csv(str(out / "sweep.csv"))
    assert [r[0] for r in rows] == [0.5, 0.25]
    res = epsilon_sweep(parse_config(HALF_SPAN_SWEEP))
    spacing = res.hydro.history.dt
    assert len(res.hydro.history.states) == 17
    assert list(res.translation.h) == [spacing, 2 * spacing, 4 * spacing]


def test_cli_sweep_prints_its_certificates(tmp_path, capsys):
    """Without --quiet a sweep prints its convergence table (sweep.csv's
    values to the printed precision) and the report's fitted rates, every
    member's a-priori norms across eps, and the translation block; with
    --quiet it prints nothing."""
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(SMALL_SWEEP)
    out = tmp_path / "out"
    assert cli_main([str(cfgfile), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    res = epsilon_sweep(parse_config(SMALL_SWEEP))
    _, rows = read_csv(str(out / "sweep.csv"))
    i = lines.index("convergence against the hydrostatic reference") + 2
    printed = [[float(v) for v in ln.split()] for ln in lines[i : i + len(rows)]]
    assert printed == [[float(f"{r[0]:.4f}")] + [float(f"{v:.5e}") for v in r[1:4]] for r in rows]
    rep = res.report
    rates = f"fitted rates: uH {rep.rate_uH:.2f}, u3 {rep.rate_u3:.2f}, C {rep.rate_C:.2f}"
    assert lines[i + len(rows)] == rates
    j = lines.index("a-priori norms across eps (uniform boundedness check)") + 1
    assert lines[j].split() == ["norm", "0.5", "0.25"]
    table = [ln.split() for ln in lines[j + 1 : j + 1 + len(APRIORI_NORM_NAMES)]]
    assert [r[0] for r in table] == list(APRIORI_NORM_NAMES)
    assert [[float(v) for v in r[1:]] for r in table] == [
        [float(f"{res.aniso[e].norms[name]:.4e}") for e in (0.5, 0.25)] for name in APRIORI_NORM_NAMES
    ]
    assert lines[j + 1 + len(APRIORI_NORM_NAMES) :][1] == "translation modulus (eps = 0.5)"
    assert lines[-1] == f"fitted exponent: {res.translation.exponent:.3f}"
    assert cli_main([str(cfgfile), "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("every, table", [(2, True), (4, False)])
def test_cli_sweep_prints_the_modulus_or_why_not(tmp_path, capsys, every, table):
    """Shifts in spacings, h and moduli behind the exponent; with 8
    spacings (33 steps, one state every 4) there is no modulus."""
    text = HALF_SPAN_SWEEP.replace("snapshot_every = 2", f"snapshot_every = {every}")
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(text)
    assert cli_main([str(cfgfile), "--out", str(tmp_path / "out")]) == 0
    printed = capsys.readouterr().out
    res = epsilon_sweep(parse_config(text))
    lines = printed[printed.index("translation modulus") :].strip().split("\n")
    assert lines[0] == "translation modulus (eps = 0.5)"
    if table:
        rows = [ln.split() for ln in lines[2:-1]]
        assert [int(r[0]) for r in rows] == [1, 2, 4]
        assert [float(r[1]) for r in rows] == [float(f"{h:.5e}") for h in res.translation.h]
        assert lines[-1] == f"fitted exponent: {res.translation.exponent:.3f}"
    else:
        assert res.translation is None
        assert lines[1:] == ["  none: the largest-eps run spans fewer than 9 snapshot spacings"]


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
    """A CFL blow-up aborts with exit code 2, flushes the last good state and
    names the limit that broke: the traction drives the velocity past the
    advective one."""
    cfgfile = tmp_path / "abort.cfg"
    cfgfile.write_text(ABORT_RUN)
    out = tmp_path / "aborted"
    rc = cli_main([str(cfgfile), "--out", str(out), "--quiet"])
    assert rc == 2
    header, _, _, _ = _read_vtk(out / "snapshots" / "last_good.vtk", 8 * 8 * 6)
    assert header[1].endswith("aborted")
    manifest = _manifest(out / "run.txt")
    assert manifest["status"] == "aborted"
    assert re.fullmatch(
        r"CFLError: dt=\S+ exceeds the advective limit \S+ at step \d+", manifest["cause"]
    )
    assert manifest["cause"].endswith(f"at step {manifest['step']}")


def test_cli_config_error_exit_code(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("[phys]\nnu1 = -3\n")
    assert cli_main([str(cfgfile)]) == 1


@pytest.mark.parametrize("text", [SMALL_RUN, SMALL_SWEEP], ids=["single", "sweep"])
def test_cli_unwritable_output_exit_code(tmp_path, capfd, text):
    """An output directory under a regular file ends the run with exit code
    1 and one stderr line naming the error and the path, not a traceback."""
    (tmp_path / "run.cfg").write_text(text)
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub"
    assert cli_main([str(tmp_path / "run.cfg"), "--out", str(out), "--quiet"]) == 1
    err = capfd.readouterr().err
    assert err.count("\n") == 1 and "Not a directory" in err and str(out) in err
    assert "Traceback" not in err


def test_cli_missing_file_exit_code(tmp_path):
    assert cli_main([str(tmp_path / "absent.cfg")]) == 1
