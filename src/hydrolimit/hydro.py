"""Diagnosed vertical velocity of the hydrostatic (primitive-equation) system.

Only the horizontal momentum is prognostic.  Its projection
(``harness.project`` in mode "hydro") enforces the barotropic constraint
div_H of the depth-integrated horizontal velocity = 0 with a 2-D surface
pressure; the vertical velocity is then diagnosed from the divergence-free
condition by vertical integration from the ground, which makes the full 3-D
discrete divergence vanish identically (telescoping).  The stepper shared
with the anisotropic model is ``harness.step``.
"""

from __future__ import annotations

import numpy as np

from .core import Grid
from .operators import StaggeredVelocity, flux_divergence

__all__ = ["hydrostatic_velocity"]


def hydrostatic_velocity(u1: np.ndarray, u2: np.ndarray, grid: Grid) -> tuple:
    """(u, max|div u|): the 3-D velocity (u1, u2, diagnosed u3) and the
    largest magnitude of its divergence.

    u3 at level interface k is minus the cumulative sum of the horizontal
    divergence below, times dz, starting from u3 = 0 at the ground.  The
    construction telescopes the MAC divergence exactly; after the surface
    projection the top value is automatically at the projection tolerance.

    The divergence reuses the horizontal divergence that u3 integrates and
    adds (u3[k+1] - u3[k])/dz to it, in the order ``divergence`` sums, so the
    figure equals max|divergence(u)| bit for bit.
    """
    div = flux_divergence((u1, u2), grid)
    u3 = np.zeros((grid.nx, grid.ny, grid.nz + 1))
    w = u3[:, :, 1:]
    np.cumsum(div, axis=2, out=w)
    np.negative(w, out=w)
    w *= grid.dz
    t = u3[:, :, 1:] - u3[:, :, :-1]
    t /= grid.dz
    div += t
    return StaggeredVelocity(u1, u2, u3), float(np.max(np.abs(div)))
