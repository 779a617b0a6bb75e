"""Time stepping and experiment orchestration: the one-step integrator of both
models, single runs, eps sweeps, field and report output.

A run projects its initial velocity to the divergence-free space of its mode,
steps with a fixed dt chosen once from the initial stability limit (so
snapshots are uniformly spaced and schedules are shared across a sweep),
writes binary legacy-VTK snapshots (for viewing) and the energy/norm CSV
ledgers, and returns the in-memory history for diagnostics.  Outputs are
deterministic for a fixed configuration; an abort flushes the last good
snapshot and an aborted manifest.  An eps sweep runs its anisotropic members
side by side in forked processes, and its outputs equal those of the members
run one by one.
"""

from __future__ import annotations

import contextlib
import fnmatch
import math
import os
import time as _time
from dataclasses import dataclass, replace

import numpy as np

from .aniso import CFLError, NumericsError, ProjectionError, SimState, stability_limits
from .config import RunConfig, eps_label
from .core import BoundaryForcing, DiffusionTensor, Grid, PhysParams, coriolis_at
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
from .hydro import hydrostatic_velocity
from .operators import (
    StaggeredVelocity,
    advect_scalar,
    advect_velocity,
    anisotropic_laplacian,
    apply_velocity_bcs,
    centre_average,
    diffuse_concentration,
    extend_velocity,
    flux_divergence,
    solve_separable,
)
from .sources import Source

__all__ = [
    "project",
    "step",
    "RunResult",
    "SweepResult",
    "initial_velocity",
    "initial_concentration",
    "preflight",
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


def initial_velocity(cfg: RunConfig) -> StaggeredVelocity:
    """Velocity preset sampled on the faces of ``cfg.grid`` (before projection)."""
    grid = cfg.grid
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


def initial_concentration(cfg: RunConfig) -> np.ndarray:
    grid = cfg.grid
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

    Both models constrain a flux F of the velocity: one Neumann solve
    div(A grad p) = div(F*)/dt, then u_d -= dt*(p[+1] - p)/s_d on interior
    faces.  p is mean-zero.
      "aniso": F = u, A = diag(1, 1, eps^-2), s = (dx, dy, eps^2*dz), and p
        is the 3-D rescaled pressure.
      "hydro": F = (dz*sum_k u1, dz*sum_k u2), the depth integral of the
        horizontal velocity, A = the depth h, s = (dx, dy), and p is the
        2-D surface pressure; its correction is the same on every level
        (d3 p = 0).  u*'s own u3 is ignored: u3 is diagnosed afterwards
        (``hydrostatic_velocity``).
    The solve is direct (``solve_separable``); ``tol`` bounds the
    post-correction divergence of F, recomputed from the returned velocity,
    and a larger one raises ProjectionError.  An input whose divergence of F
    already lies within tol of its mean is returned unchanged with p = 0.

    Returns (u, p, max|div u| of the returned 3-D velocity).
    """
    if mode not in ("aniso", "hydro") or not (tol > 0 and dt > 0 and 0 < eps <= 1):
        raise ValueError(
            f"mode must be 'aniso' or 'hydro', tol and dt positive and eps in (0, 1]; "
            f"got mode={mode!r}, tol={tol!r}, dt={dt!r}, eps={eps!r}"
        )
    aniso = mode == "aniso"
    dx, dy, dz = grid.spacing
    if aniso:
        weights = (1.0 / dx**2, 1.0 / dy**2, 1.0 / (eps * dz) ** 2)
        spacings = (dx, dy, eps**2 * dz)
    else:
        weights = (grid.h / dx**2, grid.h / dy**2)
        spacings = (dx, dy)
    u = [c.copy() for c in u_star.components()[: len(spacings)]]

    def flux():
        return u if aniso else [np.sum(u_d, axis=2) * dz for u_d in u]

    f_star = flux()
    div = flux_divergence(f_star, grid)
    mean = float(np.mean(div))
    # Compatibility: the mean divergence is the net boundary flux per volume.
    # Measure it against the natural divergence magnitude of an O(|F|) field,
    # so an already-projected input (divergence at roundoff) still passes.
    scale = sum(float(np.max(np.abs(f))) / h for f, h in zip(f_star, grid.spacing))
    if scale > 0 and abs(mean) > 1e-10 * scale:
        raise ProjectionError(
            f"incompatible right-hand side: mean divergence {mean:.3e} "
            f"(velocity divergence scale {scale:.3e})"
        )

    b = div  # b = -(div - mean)/dt, in div's buffer
    b -= mean
    np.negative(b, out=b)
    b /= dt
    if np.max(np.abs(b)) <= tol / dt:
        p = np.zeros(b.shape)
    else:
        p = solve_separable(b, [(c, "neumann", "neumann") for c in weights])

    # A 2-D surface pressure gets a level axis of length 1, so its
    # correction broadcasts over every level.
    p_levels = p.reshape(grid.nx, grid.ny, -1)
    for axis, (u_d, s) in enumerate(zip(u, spacings)):
        corr = np.diff(p_levels, axis=axis)
        corr *= dt
        corr /= s
        u_d[(slice(None),) * axis + (slice(1, -1),)] -= corr
    div = flux_divergence(flux(), grid)
    if aniso:
        u_new, max_abs_div = StaggeredVelocity(*u), float(np.max(np.abs(div)))
    else:
        u_new, max_abs_div = hydrostatic_velocity(*u, grid)
    div -= mean
    np.abs(div, out=div)
    residual = float(np.max(div))
    if residual > tol:
        raise ProjectionError(
            f"projected divergence {residual:.3e} exceeds tol {tol:.3e} ({mode}, eps={eps:g})"
        )
    return u_new, p, max_abs_div


def _predict(
    state: SimState,
    params: PhysParams,
    theta: BoundaryForcing | None,
    dt: float,
    grid: Grid,
    mode: str,
    f=None,
) -> StaggeredVelocity:
    """The forward-Euler momentum predictor u* of ``step``.

    One loop over the prognostic components, those that ``extend_velocity``
    extends (u3 only in "aniso"; "hydro" diagnoses it).  Each right-hand side
    is the viscous Laplacian minus advection plus the rotation couplings of
    its equation, summed in that order: +alpha*u2 - eps*beta*u3 for u1,
    -alpha*u1 for u2 and +(beta/eps)*u1 for u3 (its equation divided through
    by eps^2, its pressure term moved into the projection).  A coupling
    carries its source component to the cell centres and on to the
    equation's faces (``centre_average`` twice); one with a diagnosed
    component drops, so "hydro" keeps the alpha pair only.  ``f`` holds the
    optional face forcings (f1, f2, f3).

    Its temporaries (the ghost-extended copies, the advection terms and the
    cell-centred coupling sources) are freed on return, before the
    projection.
    """
    eps = params.eps
    # u holds this step's own copies of the velocity (its boundary faces
    # zeroed) and becomes u* in place, one component at a time: every term
    # reads u before the loop (advection, the ghost-extended copies and the
    # cell-centred couplings' sources), and only interior faces change, so u*
    # keeps the boundary conditions.
    u = apply_velocity_bcs(state.u)
    ext = extend_velocity(u, theta, params.nu3, grid, mode)
    prognostic = [d for d, e in enumerate(ext) if e is not None]
    adv = advect_velocity(u, grid, ext=ext).components()
    alpha_c, beta_c = coriolis_at(params, grid.x2c)
    alpha_f = coriolis_at(params, grid.x2f)[0][1:-1]
    # (equation d, source s, coefficient along x2 at d's interior faces)
    rotation = (
        (0, 1, alpha_c),
        (0, 2, -eps * beta_c),
        (1, 0, -alpha_f),
        (2, 0, beta_c / eps),
    )
    centres = {s: centre_average(u.components()[s], s) for s in prognostic}
    for d in prognostic:
        interior = (slice(None),) * d + (slice(1, -1),)
        r = anisotropic_laplacian(ext[d], params.nu, grid)[interior] - adv[d][interior]
        for e, s, c in rotation:
            if e == d and s in centres:
                cor = centre_average(centres[s], d)
                cor *= c[:, None]
                r += cor
        r *= dt
        u_d = u.components()[d]
        u_d[interior] += r
        if f is not None:
            u_d[interior] += dt * f[d][interior]
    return u


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
    explicit step; return (new state, max|div u| of its velocity).

    Forward-Euler momentum predictor (``_predict``), projection
    (``project``), then the concentration update with the projected
    velocity: C += dt * (-u.grad C + div(M grad C) + S(t)), with S(t) =
    ``source.at(t)`` sampled once per run.

    ``forcing`` is an optional callable t -> (f1, f2, f3, fC) of extra
    face/cell forcings (manufactured-solution hook); f_d acts on the
    prognostic components only.  A dt above the smallest of the state's
    ``stability_limits`` raises CFLError naming that limit, and a new state
    with a non-finite entry raises NumericsError naming each field that holds
    one and its first index.
    """
    limits = stability_limits(state, params, M, grid)
    name = min(limits, key=limits.get)
    if dt > limits[name] * (1.0 + 1e-9):
        raise CFLError(
            f"dt={dt:.3e} exceeds the {name} limit {limits[name]:.3e} at step {state.step}"
        )
    f = f_c = None
    if forcing is not None:
        *f, f_c = forcing(state.t, grid)

    u_new, p, max_div = project(
        _predict(state, params, theta, dt, grid, mode, f), mode, params.eps, dt, grid, tol
    )

    c_new = advect_scalar(u_new, state.C, grid)
    np.subtract(diffuse_concentration(state.C, M, grid), c_new, out=c_new)
    if source is not None:
        c_new += source.at(state.t)
    if f_c is not None:
        c_new += f_c
    c_new *= dt
    c_new += state.C

    new = SimState(t=state.t + dt, step=state.step + 1, u=u_new, p=p, C=c_new)
    if not new.is_finite():
        bad = [
            f"{name} at {tuple(int(i) for i in np.argwhere(~np.isfinite(a))[0])}"
            for name, a in zip(("u1", "u2", "u3", "p", "C"), (*u_new.components(), p, c_new))
            if not np.all(np.isfinite(a))
        ]
        raise NumericsError(f"non-finite {', '.join(bad)} after step {new.step}")
    return new, max_div


def _start(cfg: RunConfig, eps: float, mode: str) -> tuple:
    """(source, initial state, its max|div u|, its limits): the one set-up of
    a run.  The source sampled (a width whose sample is not finite is a
    NumericsError), the initial velocity projected with a zero pressure of
    the mode's shape, and that state's ``stability_limits`` times cfl."""
    spec = cfg.source_spec(eps, mode)
    try:
        source = None if spec is None else Source(spec, cfg.grid)
    except ValueError as exc:
        raise NumericsError(str(exc)) from None
    u0 = apply_velocity_bcs(initial_velocity(cfg))
    u, p, max_div = project(u0, mode, eps, 1.0, cfg.grid, cfg.run.tol)
    state = SimState(0.0, 0, u, np.zeros(p.shape), initial_concentration(cfg))
    limits = stability_limits(state, cfg.phys_params(eps), cfg.diffusion, cfg.grid)
    return source, state, max_div, {k: cfg.time.cfl * v for k, v in limits.items()}


def _schedule(cfg: RunConfig, limits: dict) -> tuple:
    """(n_steps, dt, spacing, bound) of a run to T whose start has ``limits``:
    the fewest equal steps no longer than min(limits, dt_max), a history
    state every min(snapshot_every, n_steps) steps, and the name of the bound
    that fixed dt, "dt_max" only when the cap is strictly smaller.  More than
    2**53 steps is a NumericsError: past that, t + dt stops advancing."""
    T, dt_max = cfg.time.T, cfg.time.dt_max
    bound = min(limits, key=limits.get)
    if dt_max < limits[bound]:
        bound = "dt_max"
    limit = limits.get(bound, dt_max)
    steps = T / limit
    if not steps <= 2.0**53:
        raise NumericsError(
            f"T = {T!r} takes {steps:.3e} steps of dt <= {limit!r}, "
            "more than 2**53: t + dt would stop advancing"
        )
    n_steps = max(1, math.ceil(steps - 1e-12))
    return n_steps, T / n_steps, min(cfg.time.snapshot_every, n_steps), bound


def preflight(cfg: RunConfig, runs) -> float:
    """The smallest bound on dt of ``runs``, (eps, mode) pairs.

    Starts and schedules each run in turn and drops it, so that a run that
    would be refused (a source that cannot be sampled, a start that cannot
    be projected, more than 2**53 steps) raises NumericsError before any run
    writes, while only one start is held at a time.
    """
    bounds = []
    for eps, mode in runs:
        limits = _start(cfg, eps, mode)[3]
        bounds.append(limits.get(_schedule(cfg, limits)[3], cfg.time.dt_max))
    return min(bounds)


def _keep_freed_heap() -> None:
    """Keep the memory that a step frees in the heap for the next step.

    glibc serves a block at or above its mmap threshold (initially 128 KiB,
    exactly one 32x32x16 field) by mmap, and returns free heap above its trim
    threshold to the kernel; both thresholds then move with the blocks freed
    so far.  A step's arrays, about 3 MiB at 32x32x16, were thus given back
    and faulted in again on every step.  This fixes the mmap threshold at 32
    MiB, the ceiling of glibc's own dynamic threshold on 64-bit, and the trim
    threshold at 64 MiB, the value glibc sets after freeing such a block.
    The setting is process-wide and inherited by forked sweep members.  On
    any other libc, or if ``mallopt`` refuses, nothing changes; calling it
    again is harmless.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    if not libc or not libc.startswith("glibc"):
        return
    import ctypes  # here, not at import: it would add to every start-up

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(-3, 32 << 20):  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


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

    The schedule is fixed up front, from the start's limits (``_start``,
    ``_schedule``): N steps of dt = T/N, no longer than the initial stability
    limit or dt_max; every step re-checks the limit and a violation aborts
    the run.  ``out_dir`` is created, and the files of an earlier run there
    removed, only once the run is started and scheduled, so a refused run
    touches nothing.  ``run.txt`` names the bound that fixed dt.  Any
    exception raised once the directory exists writes it with
    status=aborted, the cause and the step and t of the last good state,
    which it also writes as ``snapshots/last_good.vtk``, and is re-raised
    unchanged.  The initial state and every min(snapshot_every, N)-th step
    are both a VTK snapshot and a history state, so the history's spacing
    is uniform; a ragged final step is a VTK snapshot only.  Unless
    ``quiet``, the run prints its step count and dt before its first step,
    and one line when it ends.
    """
    if mode not in ("aniso", "hydro"):
        raise ValueError(f"unknown mode {mode!r}")
    _keep_freed_heap()
    grid = cfg.grid
    params = cfg.phys_params(eps)
    M = cfg.diffusion
    theta = cfg.theta
    source, state, max_div, limits = _start(cfg, eps, mode)
    n_steps, step_dt, spacing, bound = _schedule(cfg, limits)

    if out_dir is not None:
        _clear_run_dir(out_dir)
        manifest = {
            "mode": mode,
            "eps": eps,
            "nx": grid.nx,
            "ny": grid.ny,
            "nz": grid.nz,
            "T": cfg.time.T,
            "dt": step_dt,
            "steps": n_steps,
            "cfl": cfg.time.cfl,
            "tol": cfg.run.tol,
            **{f"limit_{k}": v for k, v in limits.items()},
            "dt_limit": bound,
        }

    def snap(s: SimState):
        if out_dir is not None:
            write_vtk(
                s,
                os.path.join(out_dir, "snapshots", f"step_{s.step:06d}.vtk"),
                grid,
                title=f"hydrolimit {mode} eps={eps:g} step={s.step}",
            )

    if not quiet:
        print(f"[{mode} eps={eps:g}] starting {n_steps} steps, dt={step_dt:.3e}", flush=True)
    states = [state]
    try:
        snap(state)
        t0 = _time.perf_counter()
        for n in range(1, n_steps + 1):
            state, div = step(state, params, M, theta, source, step_dt, grid, mode, tol=cfg.run.tol)
            max_div = max(max_div, div)
            if n % spacing == 0:
                states.append(state)
            if n % spacing == 0 or n == n_steps:
                snap(state)
        runtime = _time.perf_counter() - t0

        history = RunHistory(
            mode=mode,
            grid=grid,
            params=params,
            M=M,
            theta=theta,
            source=source,
            dt=step_dt * spacing,
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
                    **manifest,
                    "snapshots": len(history.states),
                    "max_div": max_div,
                    "status": "completed",
                },
            )
    except Exception as exc:
        if out_dir is not None:
            write_vtk(
                state,
                os.path.join(out_dir, "snapshots", "last_good.vtk"),
                grid,
                title=f"hydrolimit {mode} eps={eps:g} aborted",
            )
            _write_manifest(
                os.path.join(out_dir, "run.txt"),
                {
                    **manifest,
                    "status": "aborted",
                    "cause": f"{type(exc).__name__}: {exc}".replace("\n", " "),
                    "step": state.step,
                    "t": state.t,
                },
            )
        raise

    if not quiet:
        print(
            f"[{mode} eps={eps:g}] {n_steps} steps, dt={step_dt:.3e}, "
            f"max|div|={max_div:.3e}, {runtime:.1f}s"
        )
    return RunResult(history, energy, norms, step_dt, n_steps, max_div, runtime)


def _clear_run_dir(out_dir: str) -> None:
    """Create ``out_dir`` and its ``snapshots/``, and remove the files that
    an earlier run wrote there, so that the directory holds only the files
    of the run about to start.  Other files stay."""
    snapshots = os.path.join(out_dir, "snapshots")
    os.makedirs(snapshots, exist_ok=True)
    names = ["run.txt", "energy.csv", "norms.csv", "snapshots/last_good.vtk"]
    names += [f"snapshots/{n}" for n in fnmatch.filter(os.listdir(snapshots), "step_*.vtk")]
    for name in names:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))


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
    out_dir: str | None


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity query on this platform
        return os.cpu_count() or 1


class MemberStopped(Exception):
    """Raised by SIGTERM in a sweep member, so that its run leaves an aborted manifest."""


def _sweep_member(conn, cfg: RunConfig, eps: float, hydro: RunHistory, out_dir, quiet, translate):
    """One anisotropic member of a sweep, in a forked process.

    Runs eps into ``aniso_eps<label>/`` under ``out_dir``, measures it
    against the hydrostatic history, takes the translation modulus if
    ``translate``, trims its history to its first and last states, with dt
    their separation, and sends (result, errors, modulus) through ``conn``;
    an exception is sent in their place.  SIGTERM raises ``MemberStopped`` while the run steps.
    """
    import signal  # loaded already by multiprocessing

    def stop(signum, frame):
        raise MemberStopped("the sweep stopped this member after another member failed")

    try:
        run_dir = None if out_dir is None else os.path.join(out_dir, f"aniso_eps{eps_label(eps)}")
        signal.signal(signal.SIGTERM, stop)
        try:
            res = run_simulation(cfg, eps, "aniso", out_dir=run_dir, quiet=quiet)
        finally:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)  # so a blocked send cannot hang
        errs = spacetime_errors(res.history, hydro)
        modulus = translation_modulus(res.history) if translate else None
        first, last = res.history.states[0], res.history.states[-1]
        res.history = replace(res.history, dt=last.t - first.t, states=[first, last])
        conn.send((res, errs, modulus))
    except Exception as exc:
        if not isinstance(exc, (NumericsError, MemberStopped)):
            import traceback  # here, not at import: it would add to every start-up

            traceback.print_exc()  # the member's frames do not travel with exc
        conn.send(exc)
    finally:
        conn.close()


def epsilon_sweep(cfg: RunConfig, out_dir: str | None = None, quiet: bool = True) -> SweepResult:
    """Hydrostatic reference plus one anisotropic run per eps in eps_list.

    All runs share dt: each is capped at the minimum of the per-run initial
    limits, so all take the same T/n steps and their snapshot schedules line
    up for the convergence metrics.  The hydrostatic run goes first, in this
    process; then each anisotropic member runs in a forked process
    (``_sweep_member``), as many at once as this process has usable CPUs.
    Results are taken in eps order, and sweep.csv is rewritten with one more
    row after each.  Once a member has failed no other member starts; the
    first failure in eps order is raised after the rows before it are
    written; members still running are terminated and leave aborted manifests.
    An earlier sweep's sweep.csv in ``out_dir`` is removed after
    ``preflight``, so no row of it outlives this sweep.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    eps_list = sorted(cfg.run.eps_list, reverse=True)
    runs = [(e, "aniso") for e in eps_list] + [(eps_list[0], "hydro")]
    # Common schedule: all runs start from the same initial data, so their
    # limits differ only through the eps-dependent rotation bound and the
    # mode of the initial projection.  A run that would be refused is
    # refused before any run writes.
    cfg = replace(cfg, time=replace(cfg.time, dt_max=preflight(cfg, runs)))
    if out_dir is not None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, "sweep.csv"))

    hydro_dir = os.path.join(out_dir, "hydro") if out_dir is not None else None
    hydro = run_simulation(cfg, eps_list[0], "hydro", out_dir=hydro_dir, quiet=quiet)

    ctx = multiprocessing.get_context("fork")
    workers = min(len(eps_list), _usable_cpus())
    unstarted = list(eps_list)
    running = {}  # receiving end -> (eps, process)
    received = {}  # eps -> (result, errors, modulus), or the member's exception
    sweep_rows = []
    aniso_results = {}
    translation = None
    try:
        for eps in eps_list:
            while eps not in received:
                failed = any(isinstance(r, Exception) for r in received.values())
                while unstarted and len(running) < workers and not failed:
                    e = unstarted.pop(0)
                    recv, send = ctx.Pipe(duplex=False)
                    proc = ctx.Process(
                        target=_sweep_member,
                        args=(send, cfg, e, hydro.history, out_dir, quiet, e == eps_list[0]),
                    )
                    proc.start()
                    send.close()
                    running[recv] = (e, proc)
                for recv in wait(list(running)):
                    e, proc = running.pop(recv)
                    try:
                        received[e] = recv.recv()
                    except EOFError:
                        proc.join()
                        received[e] = RuntimeError(
                            f"sweep member eps={e:g} exited with code {proc.exitcode} "
                            "before sending a result"
                        )
                    recv.close()
                    proc.join()
            got = received.pop(eps)
            if isinstance(got, Exception):
                raise got
            res, errs, modulus = got
            # The member's config objects came back as pickled copies, and
            # its source sample as a writeable one.
            res.history = replace(res.history, grid=cfg.grid, M=cfg.diffusion, theta=cfg.theta)
            if res.history.source is not None:
                res.history.source.values.flags.writeable = False
            slack_min = float(np.min(res.energy.slack))
            sweep_rows.append((eps, errs[0], errs[1], errs[2], slack_min, res.runtime_s))
            if out_dir is not None:
                write_csv(
                    os.path.join(out_dir, "sweep.csv"),
                    ["eps", "err_uH", "err_u3", "err_C", "energy_slack_min", "runtime_s"],
                    sweep_rows,
                )
            if modulus is not None:
                translation = modulus
            aniso_results[eps] = res
    finally:
        for recv, (_, proc) in running.items():
            proc.terminate()
            proc.join()
            recv.close()

    report = convergence_report([ConvergenceRow(*row[:4]) for row in sweep_rows])
    return SweepResult(report, hydro, aniso_results, translation, out_dir)
