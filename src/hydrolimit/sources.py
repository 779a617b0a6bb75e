"""Pollution source terms.

An emission of intensity I switches on at t_s (right-continuous Heaviside,
H(0) = 1) at location x_s.  The pulse shape is one of

  gaussian      gamma * eps^-3 * exp(-|x-x_s|^2/eps^2), gamma = pi^-3/2 so the
                full-space integral is 1 (total emission rate I),
  lorentzian    eps / (1 + pi^2 eps^2 |x-x_s|^2), normalised numerically over
                the domain (its full-space integral diverges),
  unit_impulse  eps/2 on the ball |x-x_s| < 1/eps (kept verbatim; its support
                grows as eps -> 0, so it is excluded from convergence runs),
  delta_deposit I/cell_volume in the single cell containing x_s: the discrete
                stand-in for the limit Dirac source of the hydrostatic model.

A run samples its source once: ``Source(spec, grid)`` checks the location and
holds I * pulse(x) at the cell centres, and ``Source.at(t)`` switches it on.
``evaluate_source`` and ``source_norm_bound`` are one-off uses of the same
sampling.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .core import Grid, GridSpec

__all__ = ["SourceSpec", "Source", "check_location", "evaluate_source", "source_norm_bound",
           "GAUSSIAN_NORM"]

_KINDS = ("gaussian", "unit_impulse", "lorentzian", "delta_deposit")

GAUSSIAN_NORM = math.pi ** (-1.5)


@dataclass(frozen=True)
class SourceSpec:
    """Pulse kind, intensity, switch-on time, location and width parameter.

    ``width`` is the eps of the gaussian/lorentzian pulse (support radius
    1/width for the unit impulse); it is ignored by delta_deposit.
    """

    kind: str
    intensity: float = 1.0
    t_s: float = 0.0
    x_s: tuple = (0.5, 0.5, 0.5)
    width: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown source kind {self.kind!r}")
        if not (self.intensity >= 0 and math.isfinite(self.intensity)):
            raise ValueError(f"intensity must be >= 0, got {self.intensity!r}")
        if not (self.t_s >= 0 and math.isfinite(self.t_s)):
            raise ValueError(f"switch time must be >= 0, got {self.t_s!r}")
        if len(self.x_s) != 3:
            raise ValueError("x_s must be a 3-tuple")
        object.__setattr__(self, "x_s", tuple(float(c) for c in self.x_s))
        if self.kind != "delta_deposit":
            if self.width is None or not (self.width > 0 and math.isfinite(self.width)):
                raise ValueError(f"{self.kind} source requires a positive width")


def check_location(x_s: tuple, grid: Grid | GridSpec) -> None:
    """Require x_s inside the domain and at least two cell widths from its walls."""
    for c, length, n in zip(x_s, (grid.lx, grid.ly, grid.h), (grid.nx, grid.ny, grid.nz)):
        if not (0.0 < c < length):
            raise ValueError(f"source location {x_s} lies outside the domain")
        if min(c, length - c) < 2.0 * (length / n):
            raise ValueError(
                f"source location {x_s} is closer than two cell widths to the boundary"
            )


def _r2_at_centers(spec: SourceSpec, grid: Grid) -> np.ndarray:
    X1, X2, X3 = grid.centers()
    return (
        (X1 - spec.x_s[0]) ** 2 + (X2 - spec.x_s[1]) ** 2 + (X3 - spec.x_s[2]) ** 2
    )


def _lorentzian_domain_integral(eps: float, x_s: tuple, grid: Grid, nq: int = 2048) -> float:
    """Integral over Omega of eps / (1 + pi^2 eps^2 r^2).

    The vertical integral has the closed form arctan(z*sqrt(a/b))/sqrt(a*b)
    with a = pi^2 eps^2 and b = 1 + a*rho^2; the horizontal integral is a fine
    midpoint rule.  The integrand is filled in blocks of rows, so only one
    nq x nq array is alive, and summed once.
    """
    a = (math.pi * eps) ** 2
    x = (np.arange(nq) + 0.5) * (grid.lx / nq)
    y = (np.arange(nq) + 0.5) * (grid.ly / nq)
    zpart = np.empty((nq, nq))
    for i in range(0, nq, 64):
        rho2 = (x[i : i + 64, None] - x_s[0]) ** 2 + (y[None, :] - x_s[1]) ** 2
        b = 1.0 + a * rho2
        sab = np.sqrt(a * b)
        zpart[i : i + 64] = (
            np.arctan((grid.h - x_s[2]) * np.sqrt(a / b)) + np.arctan(x_s[2] * np.sqrt(a / b))
        ) / sab
    return float(eps * np.sum(zpart) * (grid.lx / nq) * (grid.ly / nq))


def _spatial_profile(spec: SourceSpec, grid: Grid) -> np.ndarray:
    """Unit-intensity pulse sampled at cell centres."""
    if spec.kind == "delta_deposit":
        pulse = np.zeros(grid.shape_cells)
        pulse[grid.cell_index(spec.x_s)] = 1.0 / grid.cell_volume
    elif spec.kind == "gaussian":
        eps = spec.width
        pulse = GAUSSIAN_NORM * eps**-3 * np.exp(-_r2_at_centers(spec, grid) / eps**2)
    elif spec.kind == "lorentzian":
        eps = spec.width
        raw = eps / (1.0 + (math.pi * eps) ** 2 * _r2_at_centers(spec, grid))
        pulse = raw / _lorentzian_domain_integral(eps, spec.x_s, grid)
    elif spec.kind == "unit_impulse":
        eps = spec.width
        inside = _r2_at_centers(spec, grid) < (1.0 / eps) ** 2
        pulse = np.where(inside, eps / 2.0, 0.0)
    else:  # pragma: no cover
        raise ValueError(spec.kind)
    return pulse


@dataclass(frozen=True, eq=False)
class Source:
    """A source spec sampled once on a grid.

    Construction checks the location (``check_location``) and stores
    ``values``, the read-only field I * pulse(x) at the cell centres.
    """

    spec: SourceSpec
    grid: InitVar[Grid]
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, grid: Grid):
        check_location(self.spec.x_s, grid)
        values = self.spec.intensity * _spatial_profile(self.spec, grid)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def at(self, t: float) -> np.ndarray:
        """Source field at time t: I * H(t - t_s) * pulse(x), H(0) = 1; a
        fresh zero field before t_s, ``values`` itself from t_s on."""
        if t < 0:
            raise ValueError(f"time must be >= 0, got {t!r}")
        if t < self.spec.t_s:
            return np.zeros(self.values.shape)
        return self.values


def evaluate_source(spec: SourceSpec, t: float, grid: Grid) -> np.ndarray:
    """Source field at time t: I * H(t - t_s) * pulse(x), H(0) = 1."""
    return Source(spec, grid).at(t)


def source_norm_bound(spec: SourceSpec, grid: Grid, T: float) -> float:
    """Discrete L^2((0,T) x Omega) norm of the sampled source.

    The Heaviside time profile integrates exactly to (T - t_s)+ times the
    squared spatial norm.
    """
    if not T > 0:
        raise ValueError(f"T must be positive, got {T!r}")
    values = Source(spec, grid).values
    active = max(T - spec.t_s, 0.0)
    return float(np.sqrt(active * np.sum(values**2) * grid.cell_volume))
