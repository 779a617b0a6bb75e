"""Time stepping and experiment orchestration: the one-step integrator of both
models, single runs, eps sweeps, field and report output.

A run projects its initial velocity to the divergence-free space of its mode,
steps with a fixed dt chosen once from the initial stability limit (so
snapshots are uniformly spaced and schedules are shared across a sweep),
writes binary legacy-VTK snapshots (for viewing) and the energy/norm CSV
ledgers, and returns the in-memory history for diagnostics.  Outputs are
deterministic for a fixed configuration; a numerical abort flushes the last
good snapshot.
"""

from __future__ import annotations

import math
import os
import time as _time
from dataclasses import dataclass, replace

import numpy as np

from .aniso import (
    CFLError,
    NumericsError,
    SimState,
    pressure_projection_anisotropic,
    stable_dt,
)
from .config import RunConfig
from .core import BoundaryForcing, DiffusionTensor, Grid, PhysParams, build_grid, coriolis_at
from .diagnostics import (
    ConvergenceReport,
    ConvergenceRow,
    EnergyReport,
    RunHistory,
    apriori_norms,
    convergence_report,
    energy_balance,
    spacetime_errors,
    translation_modulus,
    APRIORI_NORM_NAMES,
)
from .hydro import hydrostatic_velocity, surface_pressure_projection
from .operators import (
    StaggeredVelocity,
    advect_scalar,
    advect_velocity,
    anisotropic_laplacian,
    apply_velocity_bcs,
    diffuse_concentration,
    divergence,
    extend_velocity,
)
from .sources import Source

__all__ = [
    "project",
    "step",
    "RunResult",
    "SweepResult",
    "initial_velocity",
    "initial_concentration",
    "run_simulation",
    "epsilon_sweep",
    "write_vtk",
    "write_csv",
    "read_csv",
]


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_csv(path: str, header, rows) -> None:
    """RFC-4180-style CSV: header row, '.' decimals, '\\n' newlines.

    Floats are written with repr (shortest round-trip), so parsing the file
    back reproduces the values exactly.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_cell(v: str):
    try:
        return float(v)
    except ValueError:
        return v


def read_csv(path: str):
    """Header and rows of a ``write_csv`` file; numeric cells come back as
    float (exactly, since they were written with repr), others as str."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln]
    header = lines[0].split(",")
    rows = [[_parse_cell(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


def _be_block(a: np.ndarray) -> bytes:
    """One data block: the values as big-endian float64 bits, then a newline."""
    return a.astype(">f8").tobytes() + b"\n"


def write_vtk(state: SimState, path: str, grid: Grid, title: str = "hydrolimit") -> None:
    """Legacy BINARY VTK snapshot, STRUCTURED_POINTS on the cell centres.

    An ASCII header, then SCALARS C and p and VECTORS velocity (face values
    averaged to centres, the three components interleaved per point) as
    POINT_DATA, each one block of big-endian float64 followed by a newline.
    Point order is x-fastest per the VTK convention.  The values are stored
    bit for bit, so the file is exact and deterministic.
    """
    nx, ny, nz = grid.nx, grid.ny, grid.nz
    p3 = state.p if state.p.ndim == 3 else np.broadcast_to(state.p[:, :, None], (nx, ny, nz))
    velocity = np.stack([v.ravel(order="F") for v in state.u.center_components()], axis=1)
    header = (
        f"# vtk DataFile Version 3.0\n{title}\nBINARY\nDATASET STRUCTURED_POINTS\n"
        f"DIMENSIONS {nx} {ny} {nz}\n"
        f"ORIGIN {_fmt(grid.dx / 2)} {_fmt(grid.dy / 2)} {_fmt(grid.dz / 2)}\n"
        f"SPACING {_fmt(grid.dx)} {_fmt(grid.dy)} {_fmt(grid.dz)}\n"
        f"POINT_DATA {nx * ny * nz}\nSCALARS C double 1\nLOOKUP_TABLE default\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(_be_block(state.C.ravel(order="F")))
        fh.write(b"SCALARS p double 1\nLOOKUP_TABLE default\n")
        fh.write(_be_block(p3.ravel(order="F")))
        fh.write(b"VECTORS velocity double\n")
        fh.write(_be_block(velocity))


def initial_velocity(cfg: RunConfig, grid: Grid) -> StaggeredVelocity:
    """Velocity preset sampled on the faces (before projection)."""
    kind = cfg.init.velocity
    if kind == "zero":
        return StaggeredVelocity.zeros(grid)
    if kind == "taylor_green_h":
        c = cfg.init.velocity_amp
        ax, ay, az = math.pi / grid.lx, math.pi / grid.ly, math.pi / grid.h
        X1, X2, X3 = grid.u1_positions()
        u1 = -c * np.cos(ax * X1) * np.sin(ay * X2) * np.sin(az * X3)
        Y1, Y2, Y3 = grid.u2_positions()
        u2 = c * np.sin(ax * Y1) * np.cos(ay * Y2) * np.sin(az * Y3)
        u1 = np.broadcast_to(u1, grid.shape_u1).copy()
        u2 = np.broadcast_to(u2, grid.shape_u2).copy()
        return StaggeredVelocity(u1, u2, np.zeros(grid.shape_u3))
    raise ValueError(f"unknown velocity preset {kind!r}")


def initial_concentration(cfg: RunConfig, grid: Grid) -> np.ndarray:
    kind = cfg.init.concentration
    if kind == "zero":
        return np.zeros(grid.shape_cells)
    if kind == "gaussian_blob":
        c = cfg.init.blob_center
        w = cfg.init.blob_width
        X1, X2, X3 = grid.centers()
        r2 = (X1 - c[0]) ** 2 + (X2 - c[1]) ** 2 + (X3 - c[2]) ** 2
        return cfg.init.blob_amp * np.exp(-r2 / w**2)
    raise ValueError(f"unknown concentration preset {kind!r}")


def project(u_star: StaggeredVelocity, mode: str, eps: float, dt: float, grid: Grid, tol: float):
    """Project u* onto the divergence-free space of ``mode``.

    "aniso": the eps-weighted 3-D projection, p the 3-D pressure.  "hydro":
    the barotropic surface projection of (u1, u2) followed by the diagnosed
    u3 (u*'s own u3 is ignored), p the 2-D surface pressure.  Returns
    (u, p, info) with the projection's info dict; in both modes
    info["max_abs_div"] is max|div u| of the returned 3-D field.
    """
    if mode == "aniso":
        return pressure_projection_anisotropic(u_star, eps, dt, grid, tol)
    u1, u2, ps, info = surface_pressure_projection(u_star.u1, u_star.u2, dt, grid, tol)
    u, info["max_abs_div"] = hydrostatic_velocity(u1, u2, grid)
    return u, ps, info


def _corner_average(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """0.25*(((a + b) + c) + d) in one fresh array."""
    out = a + b
    out += c
    out += d
    out *= 0.25
    return out


def _interp_u2_to_u1(u2: np.ndarray) -> np.ndarray:
    return _corner_average(u2[:-1, :-1], u2[:-1, 1:], u2[1:, :-1], u2[1:, 1:])


def _interp_u3_to_u1(u3: np.ndarray) -> np.ndarray:
    return _corner_average(u3[:-1, :, :-1], u3[:-1, :, 1:], u3[1:, :, :-1], u3[1:, :, 1:])


def _interp_u1_to_u2(u1: np.ndarray) -> np.ndarray:
    return _corner_average(u1[:-1, :-1], u1[1:, :-1], u1[:-1, 1:], u1[1:, 1:])


def _interp_u1_to_u3(u1: np.ndarray) -> np.ndarray:
    return _corner_average(u1[:-1, :, :-1], u1[1:, :, :-1], u1[:-1, :, 1:], u1[1:, :, 1:])


def step(
    state: SimState,
    params: PhysParams,
    M: DiffusionTensor,
    theta: BoundaryForcing | None,
    source: Source | None,
    dt: float,
    grid: Grid,
    mode: str,
    tol: float = 1e-8,
    forcing=None,
) -> tuple:
    """Advance the state of the ``mode`` ("aniso" | "hydro") model by one
    explicit step; return (new state, the projection's info dict).

    Forward-Euler momentum predictor (advection, anisotropic diffusion,
    rotation), projection (``project``), then the concentration update with
    the projected velocity:  C += dt * (-u.grad C + div(M grad C) + S(t)),
    with S(t) = ``source.at(t)`` sampled once per run.
    Predictor signs follow the momentum equations: the u1 equation carries
    -alpha*u2 + eps*beta*u3, the u2 equation +alpha*u1.  Only the
    anisotropic model advances u3: its equation (divided through by eps^2)
    gains +(beta/eps)*u1 while its pressure term moves into the projection;
    the hydrostatic model drops the beta terms and diagnoses u3.

    ``forcing`` is an optional callable t -> (f1, f2, f3, fC) of extra
    face/cell forcings (manufactured-solution hook); f3 acts only in "aniso".
    Each right-hand side is summed in the order written above.
    """
    aniso = mode == "aniso"
    eps = params.eps
    if dt > stable_dt(state, params, M, grid, cfl=1.0) * (1.0 + 1e-9):
        raise CFLError(f"dt={dt:.3e} exceeds the stability limit at step {state.step}")

    # u holds this step's own copies of the velocity (its boundary faces
    # zeroed), so it becomes u* in place once every right-hand side has read
    # it; only interior faces change, so u* keeps the boundary conditions.
    u = apply_velocity_bcs(state.u)
    ext = extend_velocity(u, theta, params.nu3, grid, mode)
    adv = advect_velocity(u, grid, ext=ext, components=(0, 1, 2) if aniso else (0, 1))
    alpha_c, beta_c = coriolis_at(params, grid.x2c)
    alpha_f, _ = coriolis_at(params, grid.x2f)

    rhs1 = anisotropic_laplacian(ext.u1e, params.nu, grid)[1:-1] - adv.u1[1:-1]
    cor = _interp_u2_to_u1(u.u2)
    cor *= alpha_c[None, :, None]
    rhs1 += cor
    if aniso:
        cor = _interp_u3_to_u1(u.u3)
        cor *= eps * beta_c[None, :, None]
        rhs1 -= cor
    rhs2 = anisotropic_laplacian(ext.u2e, params.nu, grid)[:, 1:-1] - adv.u2[:, 1:-1]
    cor = _interp_u1_to_u2(u.u1)
    cor *= alpha_f[None, 1:-1, None]
    rhs2 -= cor
    rhs = [rhs1, rhs2]
    if aniso:
        rhs3 = anisotropic_laplacian(ext.u3e, params.nu, grid)[:, :, 1:-1] - adv.u3[:, :, 1:-1]
        cor = _interp_u1_to_u3(u.u1)
        cor *= beta_c[None, :, None] / eps
        rhs3 += cor
        rhs.append(rhs3)
    interior = (np.s_[1:-1], np.s_[:, 1:-1], np.s_[:, :, 1:-1])
    for u_d, r, idx in zip(u.components(), rhs, interior):
        r *= dt
        u_d[idx] += r
    if forcing is not None:
        *f, f_c = forcing(state.t, grid)
        for u_d, f_d, idx in zip(u.components()[: len(rhs)], f, interior):
            u_d[idx] += dt * f_d[idx]

    u_new, p, info = project(u, mode, eps, dt, grid, tol)

    c_new = advect_scalar(u_new, state.C, grid)
    np.subtract(diffuse_concentration(state.C, M, grid), c_new, out=c_new)
    if source is not None:
        c_new += source.at(state.t)
    if forcing is not None:
        c_new += f_c
    c_new *= dt
    c_new += state.C

    new = SimState(t=state.t + dt, step=state.step + 1, u=u_new, p=p, C=c_new)
    if not new.is_finite():
        raise NumericsError(f"non-finite state after step {new.step}")
    return new, info


def _project_initial(u0: StaggeredVelocity, mode: str, eps: float, cfg: RunConfig, grid: Grid):
    """Enforce the divergence-free initial hypothesis of the respective mode."""
    u, _, _ = project(apply_velocity_bcs(u0), mode, eps, 1.0, grid, cfg.run.tol)
    return u, np.zeros(grid.shape_cells if mode == "aniso" else (grid.nx, grid.ny))


def _schedule(T: float, limit: float) -> tuple:
    """(n_steps, dt) of a run to T: the fewest equal steps no longer than
    ``limit``.  More than 2**53 steps is a NumericsError: past that, t + dt
    stops advancing."""
    steps = T / limit
    if not steps <= 2.0**53:
        raise NumericsError(
            f"T = {T!r} takes {steps:.3e} steps of dt <= {limit!r}, "
            "more than 2**53: t + dt would stop advancing"
        )
    n_steps = max(1, math.ceil(steps - 1e-12))
    return n_steps, T / n_steps


@dataclass
class RunResult:
    history: RunHistory
    energy: EnergyReport
    norms: dict
    dt: float
    n_steps: int
    max_div: float
    runtime_s: float


def run_simulation(
    cfg: RunConfig,
    eps: float,
    mode: str,
    out_dir: str | None = None,
    quiet: bool = True,
) -> RunResult:
    """Run one simulation to T and persist its artifacts.

    The time step is fixed up front: dt = T/N with N chosen so dt does not
    exceed the initial stability limit; every step re-checks the limit and a
    violation aborts the run.  ``out_dir`` is created only once the run is
    scheduled, so a refused run leaves no directory.  Snapshots are taken
    every ``snapshot_every`` steps (plus the initial and final states).
    """
    if mode not in ("aniso", "hydro"):
        raise ValueError(f"unknown mode {mode!r}")
    grid = build_grid(cfg.grid)
    params = cfg.phys_params(eps)
    M = cfg.diffusion
    theta = cfg.theta
    spec = cfg.source_spec(eps, mode)
    source = Source(spec, grid) if spec is not None else None

    u0 = initial_velocity(cfg, grid)
    u0, p0 = _project_initial(u0, mode, eps, cfg, grid)
    state = SimState(0.0, 0, u0, p0, initial_concentration(cfg, grid))

    limit = stable_dt(state, params, M, grid, cfl=cfg.time.cfl, dt_max=cfg.time.dt_max)
    n_steps, step_dt = _schedule(cfg.time.T, limit)

    if out_dir is not None:
        os.makedirs(os.path.join(out_dir, "snapshots"), exist_ok=True)

    def snap(s: SimState):
        if out_dir is not None:
            write_vtk(
                s,
                os.path.join(out_dir, "snapshots", f"step_{s.step:06d}.vtk"),
                grid,
                title=f"hydrolimit {mode} eps={eps:g} step={s.step}",
            )

    states = [state]
    snap(state)
    max_div = float(np.max(np.abs(divergence(state.u, grid))))
    t0 = _time.perf_counter()
    try:
        for n in range(1, n_steps + 1):
            state, info = step(state, params, M, theta, source, step_dt, grid, mode, tol=cfg.run.tol)
            max_div = max(max_div, info["max_abs_div"])
            if n % cfg.time.snapshot_every == 0 or n == n_steps:
                states.append(state)
                snap(state)
    except NumericsError:
        if out_dir is not None and states:
            write_vtk(
                states[-1],
                os.path.join(out_dir, "snapshots", "last_good.vtk"),
                grid,
                title=f"hydrolimit {mode} eps={eps:g} aborted",
            )
        raise
    runtime = _time.perf_counter() - t0

    snap_dt = step_dt * cfg.time.snapshot_every
    # The final snapshot may sit closer than one full interval to its
    # predecessor; drop it from the uniform ledger if the spacing is ragged.
    if n_steps % cfg.time.snapshot_every != 0:
        if len(states) > 2:
            states = states[:-1]
        else:
            snap_dt = n_steps * step_dt  # single interval: its actual length
    history = RunHistory(
        mode=mode,
        grid=grid,
        params=params,
        M=M,
        theta=theta,
        source=source,
        dt=snap_dt,
        states=states,
    )

    energy = energy_balance(history)
    norms = apriori_norms(history)

    if out_dir is not None:
        write_csv(
            os.path.join(out_dir, "energy.csv"),
            ["t", "E", "D", "W", "Q", "slack"],
            energy.rows(),
        )
        write_csv(
            os.path.join(out_dir, "norms.csv"),
            ["quantity", "value"],
            [(k, norms[k]) for k in APRIORI_NORM_NAMES],
        )
        _write_manifest(
            os.path.join(out_dir, "run.txt"),
            {
                "mode": mode,
                "eps": eps,
                "nx": grid.nx,
                "ny": grid.ny,
                "nz": grid.nz,
                "T": cfg.time.T,
                "dt": step_dt,
                "steps": n_steps,
                "snapshots": len(history.states),
                "cfl": cfg.time.cfl,
                "tol": cfg.run.tol,
                "max_div": max_div,
                "status": "completed",
            },
        )

    if not quiet:
        print(
            f"[{mode} eps={eps:g}] {n_steps} steps, dt={step_dt:.3e}, "
            f"max|div|={max_div:.3e}, {runtime:.1f}s"
        )
    return RunResult(history, energy, norms, step_dt, n_steps, max_div, runtime)


def _write_manifest(path: str, entries: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for k, v in entries.items():
            fh.write(f"{k}={v}\n")


@dataclass
class SweepResult:
    report: ConvergenceReport
    hydro: RunResult
    aniso: dict  # eps -> RunResult
    translation: object
    norm_table: dict  # eps -> norms dict, plus "hydro"
    out_dir: str | None


def epsilon_sweep(cfg: RunConfig, out_dir: str | None = None, quiet: bool = True) -> SweepResult:
    """Hydrostatic reference plus one anisotropic run per eps in eps_list.

    All runs share dt: each is capped at the minimum of the per-run initial
    limits, so all take the same T/n steps and their snapshot schedules line
    up for the convergence metrics.  Writes sweep.csv with one row per eps;
    partial results are flushed per completed run.
    """
    grid = build_grid(cfg.grid)
    eps_list = sorted(cfg.run.eps_list, reverse=True)

    # Common schedule: all runs start from the same initial data, so their
    # limits differ only through the eps-dependent rotation bound and the
    # mode of the initial projection.
    c0 = initial_concentration(cfg, grid)
    dts = []
    for eps, mode in [(e, "aniso") for e in eps_list] + [(eps_list[0], "hydro")]:
        u0p, _ = _project_initial(initial_velocity(cfg, grid), mode, eps, cfg, grid)
        s0 = SimState(0.0, 0, u0p, np.zeros(grid.shape_cells), c0)
        dts.append(
            stable_dt(
                s0, cfg.phys_params(eps), cfg.diffusion, grid,
                cfl=cfg.time.cfl, dt_max=cfg.time.dt_max,
            )
        )
    cfg = replace(cfg, time=replace(cfg.time, dt_max=min(dts)))

    hydro_dir = os.path.join(out_dir, "hydro") if out_dir is not None else None
    hydro = run_simulation(cfg, eps_list[0], "hydro", out_dir=hydro_dir, quiet=quiet)

    sweep_rows = []
    aniso_results = {}
    errors = {}
    norm_table = {"hydro": hydro.norms}
    translation = None
    for eps in eps_list:
        run_dir = os.path.join(out_dir, f"aniso_eps{eps:g}") if out_dir is not None else None
        res = run_simulation(cfg, eps, "aniso", out_dir=run_dir, quiet=quiet)
        errs = spacetime_errors(res.history, hydro.history)
        errors[eps] = errs
        norm_table[eps] = res.norms
        slack_min = float(np.min(res.energy.slack))
        sweep_rows.append((eps, errs[0], errs[1], errs[2], slack_min, res.runtime_s))
        if out_dir is not None:
            write_csv(
                os.path.join(out_dir, "sweep.csv"),
                ["eps", "err_uH", "err_u3", "err_C", "energy_slack_min", "runtime_s"],
                sweep_rows,
            )
        if eps == eps_list[0]:
            # Translation-modulus certificate on the largest-eps run.
            hs = _translation_shifts(res.history)
            if hs is not None:
                translation = translation_modulus(
                    [s.C for s in res.history.states], res.history.dt, grid, hs
                )
        # Free the bulky history once its metrics are extracted.
        res.history.states = [res.history.states[0], res.history.states[-1]]
        aniso_results[eps] = res

    report = convergence_report([ConvergenceRow(eps, *errors[eps]) for eps in eps_list])
    return SweepResult(report, hydro, aniso_results, translation, norm_table, out_dir)


def _translation_shifts(history: RunHistory):
    """Shifts {1,2,4,8}*dt_snap intersected with (0, T/2)."""
    T = history.T
    hs = [m * history.dt for m in (1, 2, 4, 8) if m * history.dt < T / 2]
    return hs if len(hs) >= 3 else None
