"""Explicit time integrator for the hydrostatic (primitive-equation) system.

Only the horizontal momentum is prognostic.  Pressure is a 2-D surface field
enforcing the barotropic constraint div_H of the depth-integrated horizontal
velocity = 0; the vertical velocity is diagnosed from the divergence-free
condition by vertical integration from the ground, which makes the full 3-D
discrete divergence vanish identically (telescoping).
"""

from __future__ import annotations

import numpy as np

from .core import BoundaryForcing, DiffusionTensor, Grid, PhysParams, coriolis_at
from .operators import (
    StaggeredVelocity,
    advect_scalar,
    advect_velocity,
    anisotropic_laplacian,
    apply_velocity_bcs,
    diffuse_concentration,
    extend_velocity,
    solve_separable,
)
from .aniso import (
    CFLError,
    NumericsError,
    ProjectionError,
    SimState,
    _interp_u1_to_u2,
    _interp_u2_to_u1,
    stable_dt,
)
from .sources import SourceSpec, evaluate_source

__all__ = ["surface_pressure_projection", "diagnose_w", "step_hydrostatic"]


def diagnose_w(u1: np.ndarray, u2: np.ndarray, grid: Grid) -> np.ndarray:
    """Diagnostic vertical velocity from the horizontal components.

    u3 at level interface k is minus the cumulative sum of the horizontal
    divergence below, times dz, starting from u3 = 0 at the ground.  The
    construction telescopes the MAC divergence exactly; after the surface
    projection the top value is automatically at the projection tolerance.
    """
    div_h = (u1[1:] - u1[:-1]) / grid.dx + (u2[:, 1:] - u2[:, :-1]) / grid.dy
    u3 = np.zeros((grid.nx, grid.ny, grid.nz + 1))
    u3[:, :, 1:] = -np.cumsum(div_h, axis=2) * grid.dz
    return u3


def surface_pressure_projection(
    u1_star: np.ndarray,
    u2_star: np.ndarray,
    dt: float,
    grid: Grid,
    tol: float = 1e-8,
):
    """Barotropic projection of the horizontal velocity.

    Solves div_H(h grad_H ps) = div_H(int_0^h u_H* dz)/dt with homogeneous
    Neumann lateral walls and subtracts dt*grad_H ps at every vertical level
    (the correction is level-independent, consistent with d3 p = 0).  ps is
    mean-zero.  The solve is direct (``solve_separable``); ``tol`` bounds the
    post-correction depth-integrated divergence, recomputed from the returned
    velocity, and a larger one raises ProjectionError.  An input whose
    depth-integrated divergence already lies within tol of its mean is
    returned unchanged with ps = 0.

    Returns (u1, u2, ps, info) with info = {"iterations", "max_div"} as for
    ``pressure_projection_anisotropic``.
    """
    if not (tol > 0 and dt > 0):
        raise ValueError("tol and dt must be positive")
    dx, dy = grid.dx, grid.dy

    def depth_integrated(u1, u2):
        int_u1 = np.sum(u1, axis=2) * grid.dz
        int_u2 = np.sum(u2, axis=2) * grid.dz
        div_h = (int_u1[1:] - int_u1[:-1]) / dx + (int_u2[:, 1:] - int_u2[:, :-1]) / dy
        return int_u1, int_u2, div_h

    int_u1, int_u2, div_h = depth_integrated(u1_star, u2_star)
    mean = float(np.mean(div_h))
    scale = float(np.max(np.abs(int_u1)) / dx + np.max(np.abs(int_u2)) / dy)
    if scale > 0 and abs(mean) > 1e-10 * scale:
        raise ProjectionError(
            f"incompatible right-hand side: mean divergence {mean:.3e} "
            f"(velocity divergence scale {scale:.3e})"
        )
    b = -(div_h - mean) / dt
    if np.max(np.abs(b)) <= tol / dt:
        ps, iters = np.zeros((grid.nx, grid.ny)), 0
    else:
        weights = (grid.h / dx**2, grid.h / dy**2)
        ps, iters = solve_separable(b, [(c, "neumann", "neumann") for c in weights]), 1

    u1 = u1_star.copy()
    u2 = u2_star.copy()
    u1[1:-1] -= dt * ((ps[1:] - ps[:-1]) / dx)[:, :, None]
    u2[:, 1:-1] -= dt * ((ps[:, 1:] - ps[:, :-1]) / dy)[:, :, None]
    _, _, div_new = depth_integrated(u1, u2)
    max_div = float(np.max(np.abs(div_new - mean)))
    if max_div > tol:
        raise ProjectionError(
            f"projected depth-integrated divergence {max_div:.3e} exceeds tol {tol:.3e}"
        )
    return u1, u2, ps, {"iterations": iters, "max_div": max_div}


def step_hydrostatic(
    state: SimState,
    params: PhysParams,
    M: DiffusionTensor,
    theta: BoundaryForcing | None,
    source: SourceSpec | None,
    dt: float,
    grid: Grid,
    tol: float = 1e-8,
    scheme: str = "upwind1",
    forcing=None,
) -> SimState:
    """Advance the hydrostatic state by one explicit step.

    Horizontal predictor (advection by the full 3-D velocity with the
    diagnosed u3, anisotropic diffusion, -/+ alpha coupling), barotropic
    projection, vertical-velocity diagnosis, then the concentration update
    with the new velocity.
    """
    if dt > stable_dt(state, params, M, grid, cfl=1.0) * (1.0 + 1e-9):
        raise CFLError(f"dt={dt:.3e} exceeds the stability limit at step {state.step}")

    u = apply_velocity_bcs(state.u, theta, params.nu3, grid, mode="hydrostatic")
    ext = extend_velocity(u, theta, params.nu3, grid, mode="hydrostatic")
    adv = advect_velocity(u, grid, scheme=scheme, ext=ext, components=(0, 1))
    lap1 = anisotropic_laplacian(ext.u1e, params.nu, grid)
    lap2 = anisotropic_laplacian(ext.u2e, params.nu, grid)

    alpha_c, _ = coriolis_at(params, grid.x2c)
    alpha_f, _ = coriolis_at(params, grid.x2f)

    u1s = u.u1.copy()
    u2s = u.u2.copy()
    u1s[1:-1] += dt * (
        -adv.u1[1:-1] + lap1[1:-1] + alpha_c[None, :, None] * _interp_u2_to_u1(u.u2)
    )
    u2s[:, 1:-1] += dt * (
        -adv.u2[:, 1:-1] + lap2[:, 1:-1] - alpha_f[None, 1:-1, None] * _interp_u1_to_u2(u.u1)
    )
    if forcing is not None:
        f1, f2, _, _ = forcing(state.t, grid)
        u1s[1:-1] += dt * f1[1:-1]
        u2s[:, 1:-1] += dt * f2[:, 1:-1]

    u1s[0] = 0.0
    u1s[-1] = 0.0
    u2s[:, 0] = 0.0
    u2s[:, -1] = 0.0
    u1n, u2n, ps, _ = surface_pressure_projection(u1s, u2s, dt, grid, tol)
    u3n = diagnose_w(u1n, u2n, grid)
    u_new = StaggeredVelocity(u1n, u2n, u3n)

    rhs_c = -advect_scalar(u_new, state.C, grid, scheme) + diffuse_concentration(
        state.C, M, grid
    )
    if source is not None:
        rhs_c = rhs_c + evaluate_source(source, state.t, grid)
    if forcing is not None:
        rhs_c = rhs_c + forcing(state.t, grid)[3]
    c_new = state.C + dt * rhs_c

    new = SimState(t=state.t + dt, step=state.step + 1, u=u_new, p=ps, C=c_new)
    if not new.is_finite():
        raise NumericsError(f"non-finite state after step {new.step}")
    return new
