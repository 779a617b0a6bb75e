"""Pressure constraint of the hydrostatic (primitive-equation) system.

Only the horizontal momentum is prognostic.  Pressure is a 2-D surface field
enforcing the barotropic constraint div_H of the depth-integrated horizontal
velocity = 0; the vertical velocity is diagnosed from the divergence-free
condition by vertical integration from the ground, which makes the full 3-D
discrete divergence vanish identically (telescoping).  The stepper shared
with the anisotropic model is ``harness.step``.
"""

from __future__ import annotations

import numpy as np

from .aniso import ProjectionError
from .core import Grid
from .operators import solve_separable

__all__ = ["surface_pressure_projection", "diagnose_w"]


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
