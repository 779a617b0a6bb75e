"""Domain geometry, physical parameters, the diffusion tensor and the ground
traction.

Everything downstream lives on the rescaled box Omega = (0,lx) x (0,ly) x (0,h)
discretised by a uniform staggered (MAC) grid: scalars at cell centres,
velocity components on cell faces.  Nothing maps back to physical units: the
certificates are all stated on the rescaled box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GridSpec",
    "Grid",
    "build_grid",
    "cell_size",
    "PhysParams",
    "coriolis_at",
    "DiffusionTensor",
    "face_average",
    "coercivity_constant",
    "BoundaryForcing",
]


@dataclass(frozen=True)
class GridSpec:
    """Cell counts and extents of the rescaled domain (all nondimensional)."""

    nx: int
    ny: int
    nz: int
    lx: float = 1.0
    ly: float = 1.0
    h: float = 1.0

    def __post_init__(self):
        for name in ("nx", "ny", "nz"):
            n = getattr(self, name)
            if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 4:
                raise ValueError(f"{name} must be an integer >= 4, got {n!r}")
        for name in ("lx", "ly", "h"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float, np.floating)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform MAC grid over Omega.

    Cell centres carry scalars (shape ``(nx,ny,nz)``); the velocity component
    u_d lives on the faces normal to direction d, e.g. u1 has shape
    ``(nx+1,ny,nz)`` at positions ``(i*dx, (j+1/2)*dy, (k+1/2)*dz)``.
    Boundary labels: ground Gamma_G (x3=0), top Gamma_U (x3=h), lateral
    Gamma_L, and Gamma_A = Gamma_U + Gamma_L.
    """

    spec: GridSpec
    dx: float
    dy: float
    dz: float
    x1c: np.ndarray
    x2c: np.ndarray
    x3c: np.ndarray
    x1f: np.ndarray
    x2f: np.ndarray
    x3f: np.ndarray

    @property
    def nx(self) -> int:
        return self.spec.nx

    @property
    def ny(self) -> int:
        return self.spec.ny

    @property
    def nz(self) -> int:
        return self.spec.nz

    @property
    def lx(self) -> float:
        return self.spec.lx

    @property
    def ly(self) -> float:
        return self.spec.ly

    @property
    def h(self) -> float:
        return self.spec.h

    @property
    def cell_volume(self) -> float:
        return self.dx * self.dy * self.dz

    @property
    def shape_cells(self) -> tuple:
        return (self.nx, self.ny, self.nz)

    @property
    def shape_u1(self) -> tuple:
        return (self.nx + 1, self.ny, self.nz)

    @property
    def shape_u2(self) -> tuple:
        return (self.nx, self.ny + 1, self.nz)

    @property
    def shape_u3(self) -> tuple:
        return (self.nx, self.ny, self.nz + 1)

    @property
    def spacing(self) -> tuple:
        return (self.dx, self.dy, self.dz)

    def centers(self):
        """Sparse broadcastable (X1, X2, X3) at cell centres."""
        return np.meshgrid(self.x1c, self.x2c, self.x3c, indexing="ij", sparse=True)

    def u1_positions(self):
        return np.meshgrid(self.x1f, self.x2c, self.x3c, indexing="ij", sparse=True)

    def u2_positions(self):
        return np.meshgrid(self.x1c, self.x2f, self.x3c, indexing="ij", sparse=True)

    def u3_positions(self):
        return np.meshgrid(self.x1c, self.x2c, self.x3f, indexing="ij", sparse=True)

    def cell_index(self, point) -> tuple:
        """Index of the cell containing an interior point."""
        x1, x2, x3 = point
        if not (0.0 < x1 < self.lx and 0.0 < x2 < self.ly and 0.0 < x3 < self.h):
            raise ValueError(f"point {point!r} is outside the domain")
        i = min(int(x1 / self.dx), self.nx - 1)
        j = min(int(x2 / self.dy), self.ny - 1)
        k = min(int(x3 / self.dz), self.nz - 1)
        return (i, j, k)


def cell_size(length: float, n: int) -> float:
    """Width length/n of one of n cells; raises ValueError unless it is a
    positive finite number (a tiny length underflows to 0)."""
    d = length / n
    if not (math.isfinite(d) and d > 0):
        raise ValueError(f"degenerate cell size {length!r}/{n} = {d!r}")
    return d


def build_grid(spec: GridSpec) -> Grid:
    """Build the uniform staggered grid for a validated spec."""
    dx = cell_size(spec.lx, spec.nx)
    dy = cell_size(spec.ly, spec.ny)
    dz = cell_size(spec.h, spec.nz)
    x1f = np.linspace(0.0, spec.lx, spec.nx + 1)
    x2f = np.linspace(0.0, spec.ly, spec.ny + 1)
    x3f = np.linspace(0.0, spec.h, spec.nz + 1)
    return Grid(
        spec=spec,
        dx=dx,
        dy=dy,
        dz=dz,
        x1c=0.5 * (x1f[:-1] + x1f[1:]),
        x2c=0.5 * (x2f[:-1] + x2f[1:]),
        x3c=0.5 * (x3f[:-1] + x3f[1:]),
        x1f=x1f,
        x2f=x2f,
        x3f=x3f,
    )


@dataclass(frozen=True)
class PhysParams:
    """Rescaled viscosities, aspect ratio and rotation profile.

    nu3 is the already-rescaled vertical viscosity (the physical vertical
    viscosity is eps^2 * nu3).  The latitude profile is affine,
    l(x2) = l0 + l_slope*x2, which covers both the f-plane (l_slope = 0,
    mode "f_plane") and the beta-plane.
    """

    nu1: float
    nu2: float
    nu3: float
    eps: float = 1.0
    f0: float = 0.0
    coriolis_mode: str = "f_plane"
    l0: float = 0.0
    l_slope: float = 0.0

    def __post_init__(self):
        for name in ("nu1", "nu2", "nu3"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive, got {v!r}")
        if not (0.0 < self.eps <= 1.0):
            raise ValueError(f"eps must lie in (0, 1], got {self.eps!r}")
        if self.coriolis_mode not in ("f_plane", "beta_plane"):
            raise ValueError(f"unknown coriolis_mode {self.coriolis_mode!r}")

    @property
    def nu(self) -> tuple:
        return (self.nu1, self.nu2, self.nu3)

    def latitude(self, x2):
        if self.coriolis_mode == "f_plane":
            return self.l0 + np.zeros_like(np.asarray(x2, dtype=float))
        return self.l0 + self.l_slope * np.asarray(x2, dtype=float)


def coriolis_at(params: PhysParams, x2):
    """Rotation coefficients alpha = 2 f0 sin(l(x2)), beta = 2 f0 cos(l(x2))."""
    lat = params.latitude(x2)
    return 2.0 * params.f0 * np.sin(lat), 2.0 * params.f0 * np.cos(lat)


@dataclass(frozen=True, eq=False)
class DiffusionTensor:
    """Symmetric 3x3 diffusivity tensor, constant or one matrix per cell.

    ``m`` has shape (3,3) for the constant variant or (nx,ny,nz,3,3) for the
    spatially varying one.  Symmetry and coercivity (smallest eigenvalue > 0
    everywhere, see ``coercivity_constant``) are required at construction, so
    the solvers never re-check them.  ``m`` is a read-only copy, so what is
    derived from it at construction stays valid: ``coercivity``;
    ``row_sums``, the max over cells of sum_j |M_dj| for d = 0, 1, 2 (the
    explicit-diffusion stability bound); and the operands of the diffusion
    stencil, ``entry(i, j)`` and ``face_diagonal``, M_dd averaged to the
    faces normal to axis d (``face_average``).  A per-cell tensor keeps its
    one copy as a C-contiguous (3,3,nx,ny,nz) array, so each entry is a
    contiguous field, and ``m`` is the (nx,ny,nz,3,3) view of it.
    """

    m: np.ndarray
    coercivity: float = field(init=False)
    row_sums: tuple = field(init=False)
    face_diagonal: tuple = field(init=False, repr=False)
    _cells: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.shape[-2:] != (3, 3) or m.ndim not in (2, 5):
            raise ValueError(f"tensor must have shape (3,3) or (nx,ny,nz,3,3), got {m.shape}")
        if m.ndim == 5:
            cells = np.array(np.moveaxis(m, (-2, -1), (0, 1)), order="C")
            faces = tuple(face_average(cells[d, d], d) for d in range(3))
            for a in (cells, *faces):
                a.flags.writeable = False
            m = np.moveaxis(cells, (0, 1), (-2, -1))
        else:
            cells, m = None, m.copy()
            faces = tuple(float(m[d, d]) for d in range(3))
        if not np.all(np.isfinite(m)):
            raise ValueError("tensor entries must be finite")
        scale = max(float(np.max(np.abs(m))), 1e-300)
        asym = float(np.max(np.abs(m - np.swapaxes(m, -1, -2))))
        if asym > 1e-12 * scale:
            raise ValueError(f"tensor asymmetry {asym:.3e} exceeds 1e-12 relative")
        m.flags.writeable = False
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coercivity", coercivity_constant(self))
        rows = tuple(float(np.max(np.sum(np.abs(m[..., d, :]), axis=-1))) for d in range(3))
        object.__setattr__(self, "row_sums", rows)
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "face_diagonal", faces)

    @property
    def is_spatial(self) -> bool:
        return self.m.ndim == 5

    def entry(self, i: int, j: int):
        """Entry M_ij: a float (constant) or a read-only C-contiguous
        (nx,ny,nz) array (spatial)."""
        if self._cells is not None:
            return self._cells[i, j]
        return float(self.m[i, j])

    @classmethod
    def identity(cls) -> "DiffusionTensor":
        return cls(np.eye(3))

    @classmethod
    def from_upper(cls, m11, m12, m13, m22, m23, m33) -> "DiffusionTensor":
        """From the six upper-triangle entries: floats, or (nx,ny,nz) arrays."""
        rows = ((m11, m12, m13), (m12, m22, m23), (m13, m23, m33))
        return cls(np.stack([np.stack(r, axis=-1) for r in rows], axis=-2))


def face_average(cell_field: np.ndarray, axis: int) -> np.ndarray:
    """Average a cell-centred field to the faces normal to ``axis``.

    Interior faces take the two-cell mean; boundary faces copy the single
    adjacent cell (one-sided).
    """
    shape = list(cell_field.shape)
    shape[axis] += 1
    out = np.empty(shape)
    c = np.moveaxis(cell_field, axis, 0)
    f = np.moveaxis(out, axis, 0)
    np.add(c[:-1], c[1:], out=f[1:-1])
    f[1:-1] *= 0.5
    f[0] = c[0]
    f[-1] = c[-1]
    return out


def _sym3_eigen_min(m: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of symmetric 3x3 matrices, closed form.

    Trigonometric solution of the characteristic cubic, followed by two
    Newton polish steps on the characteristic polynomial to recover full
    precision near clustered spectra.
    """
    a11 = m[..., 0, 0]
    a22 = m[..., 1, 1]
    a33 = m[..., 2, 2]
    a12 = m[..., 0, 1]
    a13 = m[..., 0, 2]
    a23 = m[..., 1, 2]

    q = (a11 + a22 + a33) / 3.0
    p1 = a12**2 + a13**2 + a23**2
    p2 = (a11 - q) ** 2 + (a22 - q) ** 2 + (a33 - q) ** 2 + 2.0 * p1
    p = np.sqrt(p2 / 6.0)
    safe = p > 0
    ps = np.where(safe, p, 1.0)

    b11 = (a11 - q) / ps
    b22 = (a22 - q) / ps
    b33 = (a33 - q) / ps
    b12 = a12 / ps
    b13 = a13 / ps
    b23 = a23 / ps
    detb = (
        b11 * (b22 * b33 - b23**2)
        - b12 * (b12 * b33 - b23 * b13)
        + b13 * (b12 * b23 - b22 * b13)
    )
    r = np.clip(detb / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    lam = np.where(safe, q + 2.0 * ps * np.cos(phi + 2.0 * np.pi / 3.0), q)

    # Newton polish on p(x) = det(M - x I); exact invariants of M.
    c2 = a11 + a22 + a33
    c1 = a11 * a22 + a11 * a33 + a22 * a33 - p1
    c0 = (
        a11 * (a22 * a33 - a23**2)
        - a12 * (a12 * a33 - a23 * a13)
        + a13 * (a12 * a23 - a22 * a13)
    )
    for _ in range(2):
        pv = ((-lam + c2) * lam - c1) * lam + c0
        dpv = (-3.0 * lam + 2.0 * c2) * lam - c1
        lam = lam - np.where(np.abs(dpv) > 0, pv / np.where(dpv == 0, 1.0, dpv), 0.0)
    return lam


def coercivity_constant(M: DiffusionTensor) -> float:
    """Smallest eigenvalue of M (minimum over cells for the spatial variant).

    Raises if it is not strictly positive.  Symmetry is checked by the
    ``DiffusionTensor`` constructor, which calls this function.
    """
    lam = float(np.min(_sym3_eigen_min(M.m)))
    if not lam > 0.0:
        raise ValueError(f"coercivity violated: smallest eigenvalue {lam:.6e} <= 0")
    return lam


@dataclass(frozen=True, eq=False)
class BoundaryForcing:
    """Steady wind-traction components theta_H on the ground Gamma_G.

    Cell-centred (nx, ny) fields; the ground boundary condition reads
    nu3 * d(u_H)/dx3 = theta_H.
    """

    theta1: np.ndarray
    theta2: np.ndarray

    def __post_init__(self):
        t1 = np.asarray(self.theta1, dtype=float)
        t2 = np.asarray(self.theta2, dtype=float)
        if t1.ndim != 2 or t1.shape != t2.shape:
            raise ValueError("theta1/theta2 must be matching 2-D arrays")
        if not (np.all(np.isfinite(t1)) and np.all(np.isfinite(t2))):
            raise ValueError("traction fields must be finite")
        object.__setattr__(self, "theta1", t1)
        object.__setattr__(self, "theta2", t2)

    @classmethod
    def constant(cls, grid: Grid | GridSpec, c1: float, c2: float) -> "BoundaryForcing":
        return cls(np.full((grid.nx, grid.ny), float(c1)), np.full((grid.nx, grid.ny), float(c2)))
