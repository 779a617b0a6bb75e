"""Line-oriented run configuration: [section] headers, key = value pairs.

Comments start with '#', lists are comma separated.  Unknown sections or keys
are hard errors, as are invariant violations; every error carries the line
number it came from.  An empty config is valid and yields the documented
defaults.

``_KEYS`` is the one place where a key's type, default and admissible range
are written.  Every float must be finite.  The files a config names (tensor,
traction) are read and checked while it is parsed, so a parsed config holds
no path that a run still has to open.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .core import BoundaryForcing, DiffusionTensor, GridSpec, PhysParams, cell_size
from .sources import SourceSpec, check_location

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
    kind: str
    intensity: float
    t_s: float
    x_s: tuple
    width: float | None  # None: use the run's eps


@dataclass(frozen=True)
class InitConfig:
    velocity: str
    velocity_amp: float
    concentration: str
    blob_amp: float
    blob_center: tuple
    blob_width: float


@dataclass(frozen=True)
class TimeConfig:
    T: float
    cfl: float
    dt_max: float
    snapshot_every: int


@dataclass(frozen=True)
class RunBlock:
    mode: str
    eps_list: tuple
    output_dir: str
    tol: float


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec
    nu1: float
    nu2: float
    nu3: float
    f0: float
    coriolis_mode: str
    l0: float
    l_slope: float
    diffusion: DiffusionTensor
    source: SourceConfig
    theta: BoundaryForcing | None  # ground traction; None for theta_mode = zero
    init: InitConfig
    time: TimeConfig
    run: RunBlock

    def phys_params(self, eps: float) -> PhysParams:
        return PhysParams(eps=eps, **{key: getattr(self, key) for key in _KEYS["phys"]})

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


# A rule is (predicate, what it requires); it applies to every number of a
# value, so to each entry of a list.
_POSITIVE = (lambda v: v > 0, "must be positive")
_NONNEGATIVE = (lambda v: v >= 0, "must be >= 0")
_UNIT = (lambda v: 0 < v <= 1, "must lie in (0, 1]")
_CELLS = (lambda v: v >= 4, "must be at least 4 cells")
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")

# section -> key -> (kind, default, rule).  A kind is "int", "float",
# "float3" (exactly three floats), "floats" (one or more), "str", or the tuple
# of admissible words.  A default is used as written, without the rule.
_KEYS = {
    "grid": {
        "nx": ("int", 32, _CELLS),
        "ny": ("int", 32, _CELLS),
        "nz": ("int", 16, _CELLS),
        "lx": ("float", 1.0, _POSITIVE),
        "ly": ("float", 1.0, _POSITIVE),
        "h": ("float", 1.0, _POSITIVE),
    },
    "phys": {
        "nu1": ("float", 1e-2, _POSITIVE),
        "nu2": ("float", 1e-2, _POSITIVE),
        "nu3": ("float", 1e-2, _POSITIVE),
        "f0": ("float", 1.0, None),
        "coriolis_mode": (("f_plane", "beta_plane"), "f_plane", None),
        "l0": ("float", math.pi / 4.0, None),
        "l_slope": ("float", 0.0, None),
    },
    "diffusion": {
        "m11": ("float", 1.0, None),
        "m12": ("float", 0.0, None),
        "m13": ("float", 0.0, None),
        "m22": ("float", 1.0, None),
        "m23": ("float", 0.0, None),
        "m33": ("float", 1.0, None),
        "tensor_file": ("str", None, None),
    },
    "source": {
        "kind": (("gaussian", "unit_impulse", "lorentzian", "delta_deposit"), "gaussian", None),
        "intensity": ("float", 1.0, _NONNEGATIVE),
        "t_s": ("float", 0.1, _NONNEGATIVE),
        "x_s": ("float3", (0.5, 0.5, 0.5), None),
        "width": ("float", None, _POSITIVE),
    },
    "bc": {
        "theta_mode": (("zero", "constant", "file"), "zero", None),
        "theta1": ("float", 0.0, None),
        "theta2": ("float", 0.0, None),
        "theta_file": ("str", None, None),
    },
    "init": {
        "velocity": (("zero", "taylor_green_h"), "zero", None),
        "velocity_amp": ("float", 1.0, None),
        "concentration": (("zero", "gaussian_blob"), "zero", None),
        "blob_amp": ("float", 1.0, None),
        "blob_center": ("float3", (0.5, 0.5, 0.5), None),
        "blob_width": ("float", 0.1, _POSITIVE),
    },
    "time": {
        "T": ("float", 1.0, _POSITIVE),
        "cfl": ("float", 0.5, _UNIT),
        "dt_max": ("float", math.inf, _POSITIVE),  # default: no cap
        "snapshot_every": ("int", 4, _AT_LEAST_ONE),
    },
    "run": {
        "mode": (("aniso", "hydro", "sweep"), "aniso", None),
        "eps_list": ("floats", (0.5,), _UNIT),
        "output_dir": ("str", "out", None),
        "tol": ("float", 1e-8, _POSITIVE),
    },
}


# theta_mode -> the [bc] keys it leaves unused.
_IGNORED_BC_KEYS = {
    "zero": ("theta1", "theta2", "theta_file"),
    "constant": ("theta_file",),
    "file": ("theta1", "theta2"),
}


def _convert(section: str, key: str, raw: str, line: int):
    kind, _, rule = _KEYS[section][key]
    try:
        if isinstance(kind, tuple):
            if raw not in kind:
                raise ValueError(f"must be one of {kind}")
            return raw
        if kind == "str":
            return raw
        if kind == "int":
            value = int(raw)
        elif kind == "float":
            value = float(raw)
        else:
            value = tuple(float(x) for x in raw.split(",") if x.strip())
            if kind == "float3" and len(value) != 3:
                raise ValueError(f"expected 3 comma-separated values, got {len(value)}")
            if not value:
                raise ValueError("expected at least one value")
        for v in value if isinstance(value, tuple) else (value,):
            if not math.isfinite(v):
                raise ValueError(f"must be finite, got {raw}")
            if rule is not None and not rule[0](v):
                raise ValueError(f"{rule[1]}, got {v}")
        return value
    except (ValueError, OverflowError) as exc:  # OverflowError: an int beyond float range
        raise ConfigError(str(exc), line, key) from None


def parse_config(text: str, base_dir: str = ".") -> RunConfig:
    """Parse and fully validate a configuration.

    Never returns a partially applied configuration: any unknown key, type
    mismatch, invariant violation, contradiction between keys or bad input
    file raises ConfigError with a line number.
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
            if section not in _KEYS:
                raise ConfigError(f"unknown section [{section}]", ln)
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", ln)
        if section is None:
            raise ConfigError("key outside of any [section]", ln)
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS[section]:
            raise ConfigError(f"unknown key '{key}' in section [{section}]", ln, key)
        if (section, key) in values:
            raise ConfigError("duplicate key", ln, key)
        values[(section, key)] = _convert(section, key, raw, ln)
        lines_of[(section, key)] = ln

    def section_values(name):
        return {key: values.get((name, key), spec[1]) for key, spec in _KEYS[name].items()}

    def first_given(name, keys):
        """(line, key) of the first of ``keys`` the config sets, or None."""
        return min(((lines_of[(name, k)], k) for k in keys if (name, k) in lines_of), default=None)

    grid = GridSpec(**section_values("grid"))
    if (grid.nx + 2) * (grid.ny + 2) * (grid.nz + 2) * 8 > np.iinfo(np.intp).max:
        key = max(("nx", "ny", "nz"), key=lambda k: getattr(grid, k))
        message = "makes a ghost-extended float64 field larger than numpy can index"
        raise ConfigError(message, lines_of.get(("grid", key)), key)
    for key, n in (("lx", grid.nx), ("ly", grid.ny), ("h", grid.nz)):
        try:
            cell_size(getattr(grid, key), n)
        except ValueError as exc:
            raise ConfigError(str(exc), lines_of.get(("grid", key)), key) from None

    phys = section_values("phys")
    if phys["coriolis_mode"] == "f_plane" and phys["l_slope"] != 0.0:
        raise ConfigError(
            "is ignored on the f-plane; set coriolis_mode = beta_plane",
            lines_of[("phys", "l_slope")],
            "l_slope",
        )

    entries = section_values("diffusion")
    tensor_file = entries.pop("tensor_file")
    if tensor_file is None:
        try:
            diffusion = DiffusionTensor.from_upper(**entries)
        except ValueError as exc:
            # The defaults are coercive, so some m* key was given: report the first.
            raise ConfigError(str(exc), *first_given("diffusion", entries)) from None
    else:
        ignored = first_given("diffusion", entries)
        if ignored is not None:
            raise ConfigError("is ignored when tensor_file sets the tensor", *ignored)
        ln = lines_of[("diffusion", "tensor_file")]
        cells = _read_cell_file(
            os.path.join(base_dir, tensor_file), (grid.nx, grid.ny, grid.nz), 6, ln, "tensor_file"
        )
        try:
            diffusion = DiffusionTensor.from_upper(*np.moveaxis(cells, -1, 0))
        except ValueError as exc:
            raise ConfigError(str(exc), ln, "tensor_file") from None

    source = SourceConfig(**section_values("source"))
    if source.kind == "delta_deposit" and source.width is not None:
        raise ConfigError("is ignored for kind = delta_deposit", *first_given("source", ["width"]))
    if source.intensity > 0:
        try:
            check_location(source.x_s, grid)
        except ValueError as exc:
            raise ConfigError(str(exc), lines_of.get(("source", "x_s")), "x_s") from None

    bc = section_values("bc")
    ignored = first_given("bc", _IGNORED_BC_KEYS[bc["theta_mode"]])
    if ignored is not None:
        raise ConfigError(f"is ignored under theta_mode = {bc['theta_mode']}", *ignored)
    theta = None
    if bc["theta_mode"] == "constant":
        theta = BoundaryForcing.constant(grid, bc["theta1"], bc["theta2"])
    elif bc["theta_mode"] == "file":
        if bc["theta_file"] is None:
            raise ConfigError(
                "theta_mode = file requires theta_file", lines_of[("bc", "theta_mode")], "theta_file"
            )
        pairs = _read_cell_file(
            os.path.join(base_dir, bc["theta_file"]),
            (grid.nx, grid.ny),
            2,
            lines_of[("bc", "theta_file")],
            "theta_file",
        )
        theta = BoundaryForcing(pairs[..., 0], pairs[..., 1])

    return RunConfig(
        grid=grid,
        **phys,
        diffusion=diffusion,
        source=source,
        theta=theta,
        init=InitConfig(**section_values("init")),
        time=TimeConfig(**section_values("time")),
        run=RunBlock(**section_values("run")),
    )


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))


def _read_cell_file(path: str, dims: tuple, width: int, ln: int, key: str) -> np.ndarray:
    """Read a per-cell input file; return its values with shape dims + (width,).

    The file holds a header equal to the grid's cell counts ``dims``, then
    ``width`` finite values per cell, the last index of ``dims`` fastest:
    'nx ny nz' and the six upper-triangle entries m11 m12 m13 m22 m23 m33 of a
    tensor file, 'nx ny' and 'theta1 theta2' of a traction file.
    """

    def error(message):
        return ConfigError(f"{path}: {message}", ln, key)

    if not os.path.isfile(path):
        raise error("file not found")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tokens = fh.read().split()
        header = tuple(int(t) for t in tokens[: len(dims)])
        vals = np.array(tokens[len(dims) :], dtype=float)
    except (OSError, ValueError) as exc:
        raise error(str(exc)) from None
    if header != dims:
        raise error(f"header {header} does not match the grid {dims}")
    need = width * math.prod(dims)
    if vals.size != need:
        raise error(f"has {vals.size} values, expected {need}")
    if not np.all(np.isfinite(vals)):
        raise error("values must be finite")
    return vals.reshape(dims + (width,))
