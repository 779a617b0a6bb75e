"""Run state, time-step limit and pressure projection of the rescaled
anisotropic system.

The epsilon^2 factor multiplying the vertical momentum equation is divided
out (legitimate for eps > 0), which moves the stiffness into the projection:
the pressure Poisson problem acquires the mobility A = diag(1, 1, eps^-2).
On the uniform grid with Neumann walls that operator is separable, so a
direct tensor-product eigen-solve (``operators.solve_separable``) handles it
at a cost independent of eps.  The stepper shared with the hydrostatic model
is ``harness.step``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DiffusionTensor, Grid, PhysParams, coriolis_at
from .operators import StaggeredVelocity, divergence, solve_separable

__all__ = [
    "SimState",
    "NumericsError",
    "ProjectionError",
    "CFLError",
    "stable_dt",
    "pressure_projection_anisotropic",
]


class NumericsError(RuntimeError):
    """A run became numerically invalid (NaN/Inf or solver failure)."""


class ProjectionError(NumericsError):
    """A projection left a divergence above its tolerance, or its right-hand
    side was incompatible with the Neumann walls."""


class CFLError(NumericsError):
    """A step was attempted with dt above the stability limit."""


@dataclass(frozen=True)
class SimState:
    """Simulation snapshot: time, step index, velocity, pressure, concentration.

    ``p`` is the 3-D rescaled pressure for the anisotropic solver and the 2-D
    surface pressure for the hydrostatic one.
    """

    t: float
    step: int
    u: StaggeredVelocity
    p: np.ndarray
    C: np.ndarray

    @classmethod
    def zeros(cls, grid: Grid, mode: str = "aniso") -> "SimState":
        p = np.zeros(grid.shape_cells) if mode == "aniso" else np.zeros((grid.nx, grid.ny))
        return cls(0.0, 0, StaggeredVelocity.zeros(grid), p, np.zeros(grid.shape_cells))

    def is_finite(self) -> bool:
        return bool(
            self.u.is_finite() and np.all(np.isfinite(self.p)) and np.all(np.isfinite(self.C))
        )


def stable_dt(
    state: SimState,
    params: PhysParams,
    M: DiffusionTensor,
    grid: Grid,
    cfl: float,
    dt_max: float = math.inf,
) -> float:
    """Explicit-step time limit.

    cfl times the minimum of the advective limits dx/|u1|max (etc.), the
    momentum diffusive limit 1/(2 sum nu_d/h_d^2), the concentration diffusive
    limit with tensor absolute row sums, and the rotation limit
    1/(|alpha|max + eps*|beta|max); capped by dt_max.
    """
    if not (0.0 < cfl <= 1.0):
        raise ValueError(f"cfl must lie in (0, 1], got {cfl!r}")
    dx, dy, dz = grid.spacing
    limits = [math.inf]

    for h, umax in zip((dx, dy, dz), state.u.max_abs()):
        if umax > 0.0:
            limits.append(h / umax)

    limits.append(1.0 / (2.0 * (params.nu1 / dx**2 + params.nu2 / dy**2 + params.nu3 / dz**2)))

    rows = M.row_sums
    denom_c = 2.0 * (rows[0] / dx**2 + rows[1] / dy**2 + rows[2] / dz**2)
    if denom_c > 0.0:
        limits.append(1.0 / denom_c)

    x2 = np.concatenate([grid.x2c, grid.x2f])
    alpha, beta = coriolis_at(params, x2)
    denom_r = float(np.max(np.abs(alpha)) + params.eps * np.max(np.abs(beta)))
    if denom_r > 0.0:
        limits.append(1.0 / denom_r)

    return min(cfl * min(limits), dt_max)


# --------------------------------------------------------------------------
# Anisotropic pressure projection
# --------------------------------------------------------------------------


def pressure_projection_anisotropic(
    u_star: StaggeredVelocity,
    eps: float,
    dt: float,
    grid: Grid,
    tol: float = 1e-8,
):
    """Project u* onto the discretely divergence-free space.

    Solves div(A grad p) = div(u*)/dt with A = diag(1, 1, eps^-2) and
    homogeneous Neumann walls, then corrects u1 -= dt*d1p, u2 -= dt*d2p,
    u3 -= dt*eps^-2*d3p on interior faces.  p is returned mean-zero.  The
    solve is direct (``solve_separable``); ``tol`` bounds the post-correction
    divergence, recomputed from the returned velocity, and a larger one raises
    ProjectionError.  An input whose divergence already lies within tol of its
    mean is returned unchanged with p = 0.

    Returns (u, p, info) with info = {"iterations", "max_div"}: iterations is
    0 for that pass-through and 1 for a solve; max_div is max|div u - mean|
    of the returned u.
    """
    if not (tol > 0 and dt > 0 and 0 < eps <= 1):
        raise ValueError("tol, dt must be positive and eps in (0, 1]")
    dx, dy, dz = grid.spacing

    div_star = divergence(u_star, grid)
    mean = float(np.mean(div_star))
    # Compatibility: the mean divergence is the net boundary flux per volume.
    # Measure it against the natural divergence magnitude of an O(|u|) field,
    # so an already-projected input (divergence at roundoff) still passes.
    m1, m2, m3 = u_star.max_abs()
    scale = m1 / grid.dx + m2 / grid.dy + m3 / grid.dz
    if scale > 0 and abs(mean) > 1e-10 * scale:
        raise ProjectionError(
            f"incompatible right-hand side: mean divergence {mean:.3e} "
            f"(velocity divergence scale {scale:.3e})"
        )

    b = -(div_star - mean) / dt
    if np.max(np.abs(b)) <= tol / dt:
        p, iters = np.zeros(grid.shape_cells), 0
    else:
        weights = (1.0 / dx**2, 1.0 / dy**2, 1.0 / (eps * dz) ** 2)
        p, iters = solve_separable(b, [(c, "neumann", "neumann") for c in weights]), 1

    u1 = u_star.u1.copy()
    u2 = u_star.u2.copy()
    u3 = u_star.u3.copy()
    u1[1:-1] -= dt * (p[1:] - p[:-1]) / dx
    u2[:, 1:-1] -= dt * (p[:, 1:] - p[:, :-1]) / dy
    u3[:, :, 1:-1] -= dt * (p[:, :, 1:] - p[:, :, :-1]) / (eps**2 * dz)
    u_new = StaggeredVelocity(u1, u2, u3)
    max_div = float(np.max(np.abs(divergence(u_new, grid) - mean)))
    if max_div > tol:
        raise ProjectionError(
            f"projected divergence {max_div:.3e} exceeds tol {tol:.3e} at eps={eps:g}"
        )
    return u_new, p, {"iterations": iters, "max_div": max_div}
