"""Pollution source terms.

An emission of intensity I switches on at t_s (right-continuous Heaviside,
H(0) = 1) at location x_s.  The pulse shape is one of

  gaussian      gamma * eps^-3 * exp(-|x-x_s|^2/eps^2), gamma = pi^-3/2 so the
                full-space integral is 1 (total emission rate I),
  lorentzian    eps / (1 + pi^2 eps^2 |x-x_s|^2), normalised by its integral
                over the domain (its full-space integral diverges): closed
                form in z, a tensor Gauss-Legendre rule in x and y graded
                toward x_s down to the pulse scale 1/(pi eps); the factor
                eps cancels and neither side carries it,
  unit_impulse  eps/2 on the ball |x-x_s| < 1/eps (kept verbatim; its support
                grows as eps -> 0, so it is excluded from convergence runs),
  delta_deposit I/cell_volume in the single cell containing x_s: the discrete
                stand-in for the limit Dirac source of the hydrostatic model.

A run samples its source once: ``Source(spec, grid)`` checks the location and
holds I * pulse(x) at the cell centres, or refuses a width whose sample is not
finite in double precision; ``Source.at(t)`` switches it on.
``source_norm_bound`` is a one-off use of the same sampling.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .core import Grid

__all__ = ["SourceSpec", "Source", "check_location", "source_norm_bound", "GAUSSIAN_NORM"]

_KINDS = ("gaussian", "unit_impulse", "lorentzian", "delta_deposit")

GAUSSIAN_NORM = math.pi ** (-1.5)


@dataclass(frozen=True)
class SourceSpec:
    """Pulse kind, intensity, switch-on time, location and width parameter.

    ``width`` is the eps of the gaussian/lorentzian pulse (support radius
    1/width for the unit impulse); delta_deposit takes none.  A width of None
    on another kind is unresolved: ``Source`` refuses it.
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
        if self.width is not None:
            if self.kind == "delta_deposit":
                raise ValueError("delta_deposit source takes no width")
            if not (self.width > 0 and math.isfinite(self.width)):
                raise ValueError(f"{self.kind} source requires a positive width")


def check_location(x_s: tuple, grid: Grid) -> None:
    """Require x_s inside the domain and at least two cell widths from its walls."""
    for c, length, d in zip(x_s, (grid.lx, grid.ly, grid.h), grid.spacing):
        if not (0.0 < c < length):
            raise ValueError(f"source location {x_s} lies outside the domain")
        if min(c, length - c) < 2.0 * d:
            raise ValueError(
                f"source location {x_s} is closer than two cell widths to the boundary"
            )


def _r2_at_centers(spec: SourceSpec, grid: Grid) -> np.ndarray:
    X1, X2, X3 = grid.centers()
    return (
        (X1 - spec.x_s[0]) ** 2 + (X2 - spec.x_s[1]) ** 2 + (X3 - spec.x_s[2]) ** 2
    )


# The composite Gauss-Legendre rule of the Lorentzian normaliser: nodes per
# panel, the width ratio of neighbouring panels toward x_s, and the deepest
# grading level.  At twice the order and half the ratio the integral moves by
# less than 1e-14 relative for widths 1e-12 to 1e6.  The level cap binds only
# beyond widths of about 1e12, where the core left unresolved at 4^-20 of the
# side costs about 1e-15 relative.
_GL_ORDER = 16
_GL_RATIO = 0.25
_GL_LEVELS = 20


def _graded_rule(length: float, c: float, k: float) -> tuple:
    """Nodes and weights of a composite Gauss-Legendre rule on [0, length].

    The panels split at c and shrink geometrically toward it, on each side,
    until the innermost is no wider than 1/k (or _GL_LEVELS levels deep).
    """
    t, w = np.polynomial.legendre.leggauss(_GL_ORDER)
    ends = []  # distances of the panel ends from c, innermost first
    for d in (c, length - c):
        levels = math.ceil(math.log(k * d) / -math.log(_GL_RATIO)) if k * d > 1.0 else 0
        ends.append(d * _GL_RATIO ** np.arange(min(levels, _GL_LEVELS), -1, -1))
    edges = np.concatenate((c - ends[0][::-1], [c], c + ends[1]))
    lo, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
    return (lo + half * (1.0 + t)).ravel(), (half * w).ravel()


def _atanc(y: np.ndarray) -> np.ndarray:
    """arctan(y)/y, 1 at y = 0."""
    return np.divide(np.arctan(y), y, out=np.ones_like(y), where=y != 0.0)


def _lorentzian_domain_integral(eps: float, x_s: tuple, grid: Grid) -> float:
    """Integral over Omega of 1 / (1 + k^2 r^2), k = pi eps: the pulse's
    normaliser with the factor eps cancelled.

    With b = 1 + k^2 rho^2 and r = k/sqrt(b), the vertical integral has the
    closed form (hi*atanc(hi*r) + lo*atanc(lo*r)) / b, lo = z_s and
    hi = h - z_s, which keeps full precision for every k down to 0 (the
    integral tends to |Omega|).  The horizontal one is a tensor product of
    ``_graded_rule`` in x and y, graded toward (x_s, y_s) down to the pulse
    scale 1/k: 384 nodes per axis at width 1e6 in the unit cube.
    """
    k = math.pi * eps
    x, wx = _graded_rule(grid.lx, x_s[0], k)
    y, wy = _graded_rule(grid.ly, x_s[1], k)
    b = 1.0 + k**2 * ((x[:, None] - x_s[0]) ** 2 + (y[None, :] - x_s[1]) ** 2)
    r = k / np.sqrt(b)
    lo, hi = x_s[2], grid.h - x_s[2]
    zpart = (hi * _atanc(hi * r) + lo * _atanc(lo * r)) / b
    return float(wx @ zpart @ wy)


def _spatial_profile(spec: SourceSpec, grid: Grid) -> np.ndarray:
    """Unit-intensity pulse sampled at cell centres."""
    if spec.kind == "delta_deposit":
        pulse = np.zeros(grid.shape_cells)
        pulse[grid.cell_index(spec.x_s)] = 1.0 / grid.cell_volume
    elif spec.kind == "gaussian":
        eps = spec.width
        amp = GAUSSIAN_NORM * eps**-3
        # amp underflows to 0 from widths of about 1e107, before eps**2
        # overflows: the sample is 0 there
        if amp == 0.0:
            pulse = np.zeros(grid.shape_cells)
        else:
            pulse = amp * np.exp(-_r2_at_centers(spec, grid) / eps**2)
    elif spec.kind == "lorentzian":
        # eps / (1 + (pi eps)^2 r^2) normalised: eps cancels, so a
        # subnormal width loses no precision
        eps = spec.width
        pulse = 1.0 / (1.0 + (math.pi * eps) ** 2 * _r2_at_centers(spec, grid))
        pulse /= _lorentzian_domain_integral(eps, spec.x_s, grid)
    else:  # unit_impulse
        eps = spec.width
        inside = eps * np.sqrt(_r2_at_centers(spec, grid)) < 1.0
        pulse = np.where(inside, eps / 2.0, 0.0)
    return pulse


@dataclass(frozen=True, eq=False)
class Source:
    """A source spec sampled once on a grid.

    Construction refuses an unresolved width, checks the location
    (``check_location``) and stores ``values``, the read-only field
    I * pulse(x) at the cell centres.  A sample that overflows or is not
    finite (a width too far from the grid scale for double precision) is a
    ValueError naming the kind and width.
    """

    spec: SourceSpec
    grid: InitVar[Grid]
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, grid: Grid):
        if self.spec.width is None and self.spec.kind != "delta_deposit":
            raise ValueError(f"{self.spec.kind} source width is unresolved")
        check_location(self.spec.x_s, grid)
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                values = self.spec.intensity * _spatial_profile(self.spec, grid)
            finite = bool(np.isfinite(values).all())
        except ArithmeticError:
            finite = False
        if not finite:
            raise ValueError(
                f"{self.spec.kind} source of width {self.spec.width!r} has no finite "
                "sample in double precision on this grid"
            )
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
