"""Run state, named stability limits and numerical errors of both models.

The epsilon^2 factor multiplying the vertical momentum equation of the
rescaled anisotropic system is divided out (legitimate for eps > 0), which
moves the stiffness into the projection: the pressure Poisson problem
acquires the mobility A = diag(1, 1, eps^-2).  That projection, and the
surface one of the hydrostatic model, is ``harness.project``; the stepper
shared by both models is ``harness.step``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DiffusionTensor, Grid, PhysParams, coriolis_at
from .operators import StaggeredVelocity

__all__ = [
    "SimState",
    "NumericsError",
    "ProjectionError",
    "CFLError",
    "stability_limits",
]


class NumericsError(RuntimeError):
    """A run became numerically invalid (NaN/Inf or solver failure)."""


class ProjectionError(NumericsError):
    """A projection left a divergence above its tolerance, or its right-hand
    side was incompatible with the Neumann walls."""


class CFLError(NumericsError):
    """A step was attempted with dt above its smallest stability limit."""


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


def stability_limits(state: SimState, params: PhysParams, M: DiffusionTensor, grid: Grid) -> dict:
    """The named explicit-step limits of ``state``, before cfl; inf where a
    limit is absent.  ``harness.step`` refuses a dt above the smallest.

    "advective": the minimum of dx/|u1|max, dy/|u2|max and dz/|u3|max;
    "momentum_diffusive": 1/(2 sum nu_d/h_d^2); "concentration_diffusive":
    the same with the tensor's absolute row sums; "rotation":
    1/(|alpha|max + eps*|beta|max).
    """
    dx, dy, dz = grid.spacing
    advective = math.inf
    for h, umax in zip((dx, dy, dz), state.u.max_abs()):
        if umax > 0.0:
            advective = min(advective, h / umax)

    momentum = 1.0 / (2.0 * (params.nu1 / dx**2 + params.nu2 / dy**2 + params.nu3 / dz**2))

    rows = M.row_sums
    denom_c = 2.0 * (rows[0] / dx**2 + rows[1] / dy**2 + rows[2] / dz**2)

    x2 = np.concatenate([grid.x2c, grid.x2f])
    alpha, beta = coriolis_at(params, x2)
    denom_r = float(np.max(np.abs(alpha)) + params.eps * np.max(np.abs(beta)))

    return {
        "advective": advective,
        "momentum_diffusive": momentum,
        "concentration_diffusive": 1.0 / denom_c if denom_c > 0.0 else math.inf,
        "rotation": 1.0 / denom_r if denom_r > 0.0 else math.inf,
    }
