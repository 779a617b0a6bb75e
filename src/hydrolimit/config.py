"""Line-oriented run configuration: [section] headers, key = value pairs.

Comments start with '#', lists are comma separated.  Unknown sections or keys
are hard errors, as are invariant violations; every error carries the line
number it came from.  An empty config is valid and yields the documented
defaults.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .core import BoundaryForcing, DiffusionTensor, Grid, GridSpec, PhysParams
from .sources import SourceSpec

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config"]


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        loc = f"line {line}" if line is not None else "config"
        kk = f" key '{key}'" if key else ""
        super().__init__(f"{loc}:{kk} {message}")
        self.line = line
        self.key = key


@dataclass(frozen=True)
class SourceConfig:
    kind: str = "gaussian"
    intensity: float = 1.0
    t_s: float = 0.1
    x_s: tuple = (0.5, 0.5, 0.5)
    width: float | None = None  # None: use the run's eps


@dataclass(frozen=True)
class BCConfig:
    theta_mode: str = "zero"  # zero | constant | file
    theta1: float = 0.0
    theta2: float = 0.0
    theta_file: str | None = None


@dataclass(frozen=True)
class InitConfig:
    velocity: str = "zero"  # zero | taylor_green_h
    velocity_amp: float = 1.0
    concentration: str = "zero"  # zero | gaussian_blob
    blob_amp: float = 1.0
    blob_center: tuple = (0.5, 0.5, 0.5)
    blob_width: float = 0.1


@dataclass(frozen=True)
class TimeConfig:
    T: float = 1.0
    cfl: float = 0.5
    dt_max: float = math.inf
    snapshot_every: int = 4


@dataclass(frozen=True)
class RunBlock:
    mode: str = "aniso"  # aniso | hydro | sweep
    eps_list: tuple = (0.5,)
    output_dir: str = "out"
    tol: float = 1e-8


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec = field(default_factory=lambda: GridSpec(32, 32, 16))
    nu1: float = 1e-2
    nu2: float = 1e-2
    nu3: float = 1e-2
    f0: float = 1.0
    coriolis_mode: str = "f_plane"
    l0: float = math.pi / 4.0
    l_slope: float = 0.0
    diffusion: DiffusionTensor = field(default_factory=DiffusionTensor.identity)
    source: SourceConfig = field(default_factory=SourceConfig)
    bc: BCConfig = field(default_factory=BCConfig)
    init: InitConfig = field(default_factory=InitConfig)
    time: TimeConfig = field(default_factory=TimeConfig)
    run: RunBlock = field(default_factory=RunBlock)

    def phys_params(self, eps: float) -> PhysParams:
        return PhysParams(
            nu1=self.nu1,
            nu2=self.nu2,
            nu3=self.nu3,
            eps=eps,
            f0=self.f0,
            coriolis_mode=self.coriolis_mode,
            l0=self.l0,
            l_slope=self.l_slope,
        )

    def source_spec(self, eps: float, mode: str) -> SourceSpec | None:
        s = self.source
        if s.intensity == 0.0:
            return None
        if mode == "hydro" and s.kind == "gaussian" and s.width is None:
            # Default pairing: the hydrostatic reference takes the limit
            # (single-cell deposit) form of the source.
            return SourceSpec("delta_deposit", s.intensity, s.t_s, s.x_s)
        width = s.width if s.width is not None else eps
        if s.kind == "delta_deposit":
            return SourceSpec(s.kind, s.intensity, s.t_s, s.x_s)
        return SourceSpec(s.kind, s.intensity, s.t_s, s.x_s, width)

    def boundary_forcing(self, grid: Grid) -> BoundaryForcing | None:
        bc = self.bc
        if bc.theta_mode == "zero":
            return None
        if bc.theta_mode == "constant":
            return BoundaryForcing.constant(grid, bc.theta1, bc.theta2)
        t1, t2 = _read_theta_file(bc.theta_file, grid)
        return BoundaryForcing(t1, t2)


_CHOICES = {
    ("phys", "coriolis_mode"): ("f_plane", "beta_plane"),
    ("source", "kind"): ("gaussian", "unit_impulse", "lorentzian", "delta_deposit"),
    ("bc", "theta_mode"): ("zero", "constant", "file"),
    ("init", "velocity"): ("zero", "taylor_green_h"),
    ("init", "concentration"): ("zero", "gaussian_blob"),
    ("run", "mode"): ("aniso", "hydro", "sweep"),
}

_SCHEMA = {
    "grid": {"nx": "int", "ny": "int", "nz": "int", "lx": "float", "ly": "float", "h": "float"},
    "phys": {
        "nu1": "float",
        "nu2": "float",
        "nu3": "float",
        "f0": "float",
        "coriolis_mode": "choice",
        "l0": "float",
        "l_slope": "float",
    },
    "diffusion": {
        "m11": "float",
        "m12": "float",
        "m13": "float",
        "m22": "float",
        "m23": "float",
        "m33": "float",
        "tensor_file": "str",
    },
    "source": {
        "kind": "choice",
        "intensity": "float",
        "t_s": "float",
        "x_s": "float3",
        "width": "float",
    },
    "bc": {"theta_mode": "choice", "theta1": "float", "theta2": "float", "theta_file": "str"},
    "init": {
        "velocity": "choice",
        "velocity_amp": "float",
        "concentration": "choice",
        "blob_amp": "float",
        "blob_center": "float3",
        "blob_width": "float",
    },
    "time": {"T": "float", "cfl": "float", "dt_max": "float", "snapshot_every": "int"},
    "run": {
        "mode": "choice",
        "eps_list": "floats",
        "output_dir": "str",
        "tol": "float",
    },
}


def _convert(section: str, key: str, raw: str, line: int):
    kind = _SCHEMA[section][key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "str":
            return raw
        if kind == "floats":
            return tuple(float(x.strip()) for x in raw.split(",") if x.strip())
        if kind == "float3":
            vals = tuple(float(x.strip()) for x in raw.split(",") if x.strip())
            if len(vals) != 3:
                raise ValueError(f"expected 3 comma-separated values, got {len(vals)}")
            return vals
        if kind == "choice":
            if raw not in _CHOICES[(section, key)]:
                raise ValueError(f"must be one of {_CHOICES[(section, key)]}")
            return raw
    except ValueError as exc:
        raise ConfigError(str(exc), line, key) from None
    raise ConfigError(f"unhandled schema kind {kind}", line, key)  # pragma: no cover


def parse_config(text: str, base_dir: str = ".") -> RunConfig:
    """Parse and fully validate a configuration.

    Never returns a partially applied configuration: any unknown key, type
    mismatch, or invariant violation raises ConfigError with a line number.
    """
    values: dict = {}
    lines_of: dict = {}
    section = None
    for ln, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]", ln)
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", ln)
        if section is None:
            raise ConfigError("key outside of any [section]", ln)
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key '{key}' in section [{section}]", ln, key)
        if (section, key) in values:
            raise ConfigError("duplicate key", ln, key)
        values[(section, key)] = _convert(section, key, raw, ln)
        lines_of[(section, key)] = ln

    def get(section, key, default):
        return values.get((section, key), default)

    def line(section, key):
        return lines_of.get((section, key))

    def fail(section, key, msg):
        raise ConfigError(msg, line(section, key), key)

    # grid
    gdef = GridSpec(32, 32, 16)
    try:
        grid_spec = GridSpec(
            nx=get("grid", "nx", gdef.nx),
            ny=get("grid", "ny", gdef.ny),
            nz=get("grid", "nz", gdef.nz),
            lx=get("grid", "lx", gdef.lx),
            ly=get("grid", "ly", gdef.ly),
            h=get("grid", "h", gdef.h),
        )
    except ValueError as exc:
        ln = next((line("grid", k) for k in ("nx", "ny", "nz", "lx", "ly", "h") if line("grid", k)), None)
        raise ConfigError(str(exc), ln) from None

    # phys
    for key in ("nu1", "nu2", "nu3"):
        v = get("phys", key, 1e-2)
        if not (v > 0 and math.isfinite(v)):
            fail("phys", key, f"{key} must be positive, got {v}")

    # diffusion
    if ("diffusion", "tensor_file") in values:
        path = os.path.join(base_dir, values[("diffusion", "tensor_file")])
        if not os.path.exists(path):
            fail("diffusion", "tensor_file", f"file not found: {path}")
        diffusion = _read_tensor_file(path, grid_spec, line("diffusion", "tensor_file"))
    else:
        try:
            diffusion = DiffusionTensor.from_upper(
                get("diffusion", "m11", 1.0),
                get("diffusion", "m12", 0.0),
                get("diffusion", "m13", 0.0),
                get("diffusion", "m22", 1.0),
                get("diffusion", "m23", 0.0),
                get("diffusion", "m33", 1.0),
            )
        except ValueError as exc:
            # Non-finite or non-coercive entries; the defaults are neither,
            # so some m* key was given: report the first one.
            ln, key = min(
                (ln, key) for (sec, key), ln in lines_of.items() if sec == "diffusion"
            )
            raise ConfigError(str(exc), ln, key) from None

    # source
    src_kind = get("source", "kind", "gaussian")
    intensity = get("source", "intensity", 1.0)
    if intensity < 0:
        fail("source", "intensity", f"intensity must be >= 0, got {intensity}")
    t_s = get("source", "t_s", 0.1)
    if t_s < 0:
        fail("source", "t_s", f"switch time must be >= 0, got {t_s}")
    x_s = get("source", "x_s", (0.5, 0.5, 0.5))
    width = get("source", "width", None)
    if width is not None and not width > 0:
        fail("source", "width", f"width must be positive, got {width}")
    dgx, dgy, dgz = grid_spec.lx / grid_spec.nx, grid_spec.ly / grid_spec.ny, grid_spec.h / grid_spec.nz
    margins = (
        min(x_s[0], grid_spec.lx - x_s[0]) / dgx,
        min(x_s[1], grid_spec.ly - x_s[1]) / dgy,
        min(x_s[2], grid_spec.h - x_s[2]) / dgz,
    )
    if intensity > 0 and min(margins) < 2.0:
        fail("source", "x_s", f"source location {x_s} closer than two cell widths to the boundary")
    source = SourceConfig(src_kind, intensity, t_s, tuple(x_s), width)

    # bc
    theta_mode = get("bc", "theta_mode", "zero")
    theta_file = get("bc", "theta_file", None)
    if theta_mode == "file":
        if theta_file is None:
            raise ConfigError("theta_mode = file requires theta_file", line("bc", "theta_mode"), "theta_file")
        path = os.path.join(base_dir, theta_file)
        if not os.path.exists(path):
            fail("bc", "theta_file", f"file not found: {path}")
        theta_file = path
    bc = BCConfig(theta_mode, get("bc", "theta1", 0.0), get("bc", "theta2", 0.0), theta_file)

    # init
    blob_center = tuple(get("init", "blob_center", (0.5, 0.5, 0.5)))
    blob_width = get("init", "blob_width", 0.1)
    if blob_width <= 0:
        fail("init", "blob_width", f"blob width must be positive, got {blob_width}")
    init = InitConfig(
        velocity=get("init", "velocity", "zero"),
        velocity_amp=get("init", "velocity_amp", 1.0),
        concentration=get("init", "concentration", "zero"),
        blob_amp=get("init", "blob_amp", 1.0),
        blob_center=blob_center,
        blob_width=blob_width,
    )

    # time
    T = get("time", "T", 1.0)
    if not T > 0:
        fail("time", "T", f"T must be positive, got {T}")
    cfl = get("time", "cfl", 0.5)
    if not (0 < cfl <= 1):
        fail("time", "cfl", f"cfl must lie in (0, 1], got {cfl}")
    dt_max = get("time", "dt_max", math.inf)
    if not dt_max > 0:
        fail("time", "dt_max", f"dt_max must be positive, got {dt_max}")
    snapshot_every = get("time", "snapshot_every", 4)
    if snapshot_every < 1:
        fail("time", "snapshot_every", f"snapshot_every must be >= 1, got {snapshot_every}")
    time_cfg = TimeConfig(T, cfl, dt_max, snapshot_every)

    # run
    eps_list = tuple(get("run", "eps_list", (0.5,)))
    if not eps_list:
        fail("run", "eps_list", "eps_list must be nonempty")
    for e in eps_list:
        if not (0 < e <= 1):
            fail("run", "eps_list", f"every eps must lie in (0, 1], got {e}")
    tol = get("run", "tol", 1e-8)
    if not tol > 0:
        fail("run", "tol", f"tol must be positive, got {tol}")
    run = RunBlock(
        mode=get("run", "mode", "aniso"),
        eps_list=eps_list,
        output_dir=get("run", "output_dir", "out"),
        tol=tol,
    )

    return RunConfig(
        grid=grid_spec,
        nu1=get("phys", "nu1", 1e-2),
        nu2=get("phys", "nu2", 1e-2),
        nu3=get("phys", "nu3", 1e-2),
        f0=get("phys", "f0", 1.0),
        coriolis_mode=get("phys", "coriolis_mode", "f_plane"),
        l0=get("phys", "l0", math.pi / 4.0),
        l_slope=get("phys", "l_slope", 0.0),
        diffusion=diffusion,
        source=source,
        bc=bc,
        init=init,
        time=time_cfg,
        run=run,
    )


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))


def _read_tensor_file(path: str, spec: GridSpec, ln: int | None) -> DiffusionTensor:
    """Per-cell tensor file: header 'nx ny nz', then nx*ny*nz rows of the six
    upper-triangle entries m11 m12 m13 m22 m23 m33, k fastest, then j, then i."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 3:
        raise ConfigError(f"tensor file {path} is truncated", ln, "tensor_file")
    nx, ny, nz = (int(t) for t in tokens[:3])
    if (nx, ny, nz) != (spec.nx, spec.ny, spec.nz):
        raise ConfigError(
            f"tensor file grid {(nx, ny, nz)} does not match config grid "
            f"{(spec.nx, spec.ny, spec.nz)}",
            ln,
            "tensor_file",
        )
    need = nx * ny * nz * 6
    data = tokens[3:]
    if len(data) != need:
        raise ConfigError(
            f"tensor file has {len(data)} entries, expected {need}", ln, "tensor_file"
        )
    vals = np.array([float(t) for t in data]).reshape(nx, ny, nz, 6)
    m = np.empty((nx, ny, nz, 3, 3))
    m[..., 0, 0] = vals[..., 0]
    m[..., 0, 1] = m[..., 1, 0] = vals[..., 1]
    m[..., 0, 2] = m[..., 2, 0] = vals[..., 2]
    m[..., 1, 1] = vals[..., 3]
    m[..., 1, 2] = m[..., 2, 1] = vals[..., 4]
    m[..., 2, 2] = vals[..., 5]
    try:
        return DiffusionTensor(m)
    except ValueError as exc:
        raise ConfigError(str(exc), ln, "tensor_file") from None


def _read_theta_file(path: str, grid: Grid):
    """Traction file: header 'nx ny', then nx*ny rows 'theta1 theta2', j fastest."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    nx, ny = int(tokens[0]), int(tokens[1])
    if (nx, ny) != (grid.nx, grid.ny):
        raise ConfigError(f"traction file grid {(nx, ny)} does not match {(grid.nx, grid.ny)}")
    data = np.array([float(t) for t in tokens[2:]])
    if data.size != nx * ny * 2:
        raise ConfigError(f"traction file has {data.size} values, expected {nx * ny * 2}")
    pairs = data.reshape(nx, ny, 2)
    return pairs[..., 0], pairs[..., 1]
