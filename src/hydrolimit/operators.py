"""Discrete vector calculus on the staggered grid.

Scalar fields are plain ``(nx, ny, nz)`` ndarrays at cell centres; velocity
components live on faces (see ``core.Grid``).  Stencil operators are pure:
they allocate and return new arrays.

Boundary conditions enter through ghost layers.  ``extend_velocity`` /
``apply_concentration_bcs`` build ghost-extended arrays realising the model's
boundary conditions (Dirichlet 0 on Gamma_A, traction Neumann / no-flux Robin
on the ground Gamma_G); ``anisotropic_laplacian`` and the advection operators
consume extended arrays, so tests may substitute analytic ghost values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import BoundaryForcing, Grid

__all__ = [
    "StaggeredVelocity",
    "VelocityExtension",
    "divergence",
    "grad_pressure",
    "anisotropic_laplacian",
    "solve_separable",
    "apply_velocity_bcs",
    "extend_velocity",
    "theta_faces",
    "apply_concentration_bcs",
    "diffuse_concentration",
    "advect_scalar",
    "advect_velocity",
]

_SCHEMES = ("upwind1", "centered2")


@dataclass(frozen=True, eq=False)
class StaggeredVelocity:
    """Face-centred velocity components (u1, u2, u3) on a MAC grid."""

    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray

    def __post_init__(self):
        u1, u2, u3 = (np.asarray(a, dtype=float) for a in (self.u1, self.u2, self.u3))
        if u1.ndim != 3 or u2.ndim != 3 or u3.ndim != 3:
            raise ValueError("velocity components must be 3-D arrays")
        nx = u1.shape[0] - 1
        ny, nz = u1.shape[1], u1.shape[2]
        if u2.shape != (nx, ny + 1, nz) or u3.shape != (nx, ny, nz + 1):
            raise ValueError(
                f"inconsistent staggered shapes {u1.shape}, {u2.shape}, {u3.shape}"
            )
        object.__setattr__(self, "u1", u1)
        object.__setattr__(self, "u2", u2)
        object.__setattr__(self, "u3", u3)

    @classmethod
    def zeros(cls, grid: Grid) -> "StaggeredVelocity":
        return cls(
            np.zeros(grid.shape_u1), np.zeros(grid.shape_u2), np.zeros(grid.shape_u3)
        )

    def copy(self) -> "StaggeredVelocity":
        return StaggeredVelocity(self.u1.copy(), self.u2.copy(), self.u3.copy())

    def components(self) -> tuple:
        return (self.u1, self.u2, self.u3)

    def max_abs(self) -> tuple:
        return (
            float(np.max(np.abs(self.u1))),
            float(np.max(np.abs(self.u2))),
            float(np.max(np.abs(self.u3))),
        )

    def center_components(self) -> tuple:
        """Components averaged to cell centres (for output and quadrature)."""
        return (
            0.5 * (self.u1[:-1] + self.u1[1:]),
            0.5 * (self.u2[:, :-1] + self.u2[:, 1:]),
            0.5 * (self.u3[:, :, :-1] + self.u3[:, :, 1:]),
        )

    def is_finite(self) -> bool:
        return bool(
            np.all(np.isfinite(self.u1))
            and np.all(np.isfinite(self.u2))
            and np.all(np.isfinite(self.u3))
        )


class VelocityExtension(NamedTuple):
    """Ghost-extended velocity components (one layer per side, every axis)."""

    u1e: np.ndarray
    u2e: np.ndarray
    u3e: np.ndarray


def divergence(u: StaggeredVelocity, grid: Grid) -> np.ndarray:
    """Cell-centred divergence of a staggered velocity field."""
    if u.u1.shape != grid.shape_u1:
        raise ValueError(f"velocity shaped {u.u1.shape} does not fit grid {grid.shape_u1}")
    return (
        (u.u1[1:] - u.u1[:-1]) / grid.dx
        + (u.u2[:, 1:] - u.u2[:, :-1]) / grid.dy
        + (u.u3[:, :, 1:] - u.u3[:, :, :-1]) / grid.dz
    )


def grad_pressure(p: np.ndarray, grid: Grid) -> tuple:
    """Pressure gradient on faces.

    Interior faces carry the two-point difference of adjacent cells; boundary
    faces carry 0, consistent with the homogeneous Neumann condition of the
    pressure projection.
    """
    if p.shape != grid.shape_cells:
        raise ValueError(f"pressure shaped {p.shape} does not fit grid {grid.shape_cells}")
    gx = np.zeros(grid.shape_u1)
    gy = np.zeros(grid.shape_u2)
    gz = np.zeros(grid.shape_u3)
    gx[1:-1] = (p[1:] - p[:-1]) / grid.dx
    gy[:, 1:-1] = (p[:, 1:] - p[:, :-1]) / grid.dy
    gz[:, :, 1:-1] = (p[:, :, 1:] - p[:, :, :-1]) / grid.dz
    return gx, gy, gz


def anisotropic_laplacian(f_ext: np.ndarray, nu, grid: Grid) -> np.ndarray:
    """7-point Laplacian nu1*d11 + nu2*d22 + nu3*d33 of a ghost-extended field.

    ``f_ext`` carries one ghost layer on every side; the result has the
    unextended shape.  Ghost values encode whatever boundary condition the
    caller is imposing.
    """
    c = f_ext[1:-1, 1:-1, 1:-1]
    return (
        nu[0] * (f_ext[2:, 1:-1, 1:-1] - 2.0 * c + f_ext[:-2, 1:-1, 1:-1]) / grid.dx**2
        + nu[1] * (f_ext[1:-1, 2:, 1:-1] - 2.0 * c + f_ext[1:-1, :-2, 1:-1]) / grid.dy**2
        + nu[2] * (f_ext[1:-1, 1:-1, 2:] - 2.0 * c + f_ext[1:-1, 1:-1, :-2]) / grid.dz**2
    )


# Diagonal change at an end cell of -D2: a Neumann end mirrors the cell value
# into the ghost, a Dirichlet end negates it (zero on the wall face).
_END_SHIFT = {"neumann": -1.0, "dirichlet": 1.0}


@functools.lru_cache(maxsize=64)
def _second_difference_basis(n: int, lo_bc: str, hi_bc: str) -> tuple:
    """Eigenpairs (w, V) of the unit-spacing 1-D operator -D2 on n cells.

    w ascends, so an axis with Neumann at both ends has its constant null mode
    first.  Both arrays are read-only: every caller shares them.
    """
    t = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    t[0, 0] += _END_SHIFT[lo_bc]
    t[-1, -1] += _END_SHIFT[hi_bc]
    w, v = np.linalg.eigh(t)
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


def solve_separable(g: np.ndarray, axes, shift: float = 0.0) -> np.ndarray:
    """Solve (shift*I + sum_d c_d*(-D2_d)) x = g directly.

    ``axes`` holds one (c_d, lo_bc, hi_bc) per axis of g: the weight of the
    unit-spacing second difference along that axis (1/h_d^2 times any
    mobility) and its end conditions, "neumann" or "dirichlet".  The operator
    is diagonal in the tensor product of the 1-D eigenbases, so the solve is
    one basis change per axis each way and a division (Schumann & Sweet,
    J. Comput. Phys. 75, 1988).  When shift is 0 and every end is Neumann the
    operator is singular on constants: that mode is zeroed, so x is mean-zero
    and solves the system for the mean-zero part of g.
    """
    if len(axes) != g.ndim:
        raise ValueError(f"{len(axes)} axis specs for a {g.ndim}-D field")
    bases = [_second_difference_basis(n, lo, hi) for n, (_, lo, hi) in zip(g.shape, axes)]
    lam = np.full(g.shape, float(shift))
    for d, ((c, _, _), (w, _)) in enumerate(zip(axes, bases)):
        lam += c * w.reshape([-1 if k == d else 1 for k in range(g.ndim)])
    # Each contraction over axis 0 appends the new axis last, so after one
    # pass per axis the axes are back in their original order.
    t = g
    for _, v in bases:
        t = np.tensordot(t, v, axes=(0, 0))
    if shift == 0.0 and all(lo == hi == "neumann" for _, lo, hi in axes):
        origin = (0,) * g.ndim
        t[origin] = 0.0
        lam[origin] = 1.0
    t /= lam
    for _, v in bases:
        t = np.tensordot(t, v, axes=(0, 1))
    return t


def theta_faces(theta: BoundaryForcing | None, grid: Grid) -> tuple:
    """Traction components interpolated to the u1/u2 horizontal face positions.

    Interior faces average the two adjacent cells; edge faces copy the single
    adjacent cell.  Returns (theta1 on (nx+1,ny), theta2 on (nx,ny+1)).
    """
    if theta is None:
        return np.zeros((grid.nx + 1, grid.ny)), np.zeros((grid.nx, grid.ny + 1))
    t1, t2 = theta.theta1, theta.theta2
    if t1.shape != (grid.nx, grid.ny):
        raise ValueError(f"traction shaped {t1.shape} does not fit grid {(grid.nx, grid.ny)}")
    t1f = np.empty((grid.nx + 1, grid.ny))
    t1f[1:-1] = 0.5 * (t1[:-1] + t1[1:])
    t1f[0] = t1[0]
    t1f[-1] = t1[-1]
    t2f = np.empty((grid.nx, grid.ny + 1))
    t2f[:, 1:-1] = 0.5 * (t2[:, :-1] + t2[:, 1:])
    t2f[:, 0] = t2[:, 0]
    t2f[:, -1] = t2[:, -1]
    return t1f, t2f


def apply_velocity_bcs(
    u: StaggeredVelocity,
    theta: BoundaryForcing | None,
    nu3: float,
    grid: Grid,
    mode: str = "anisotropic",
) -> StaggeredVelocity:
    """Zero the stored boundary-face values of u.

    Gamma_A is no-slip for u1/u2 (faces on the lateral walls) and u3 vanishes
    on both horizontal boundaries.  The traction condition on the ground and
    the Dirichlet conditions at non-face-aligned walls act through ghost
    layers; see ``extend_velocity``.
    """
    if mode not in ("anisotropic", "hydrostatic"):
        raise ValueError(f"unknown mode {mode!r}")
    u1 = u.u1.copy()
    u2 = u.u2.copy()
    u3 = u.u3.copy()
    u1[0] = 0.0
    u1[-1] = 0.0
    u2[:, 0] = 0.0
    u2[:, -1] = 0.0
    u3[:, :, 0] = 0.0
    u3[:, :, -1] = 0.0
    return StaggeredVelocity(u1, u2, u3)


def extend_velocity(
    u: StaggeredVelocity,
    theta: BoundaryForcing | None,
    nu3: float,
    grid: Grid,
    mode: str = "anisotropic",
) -> VelocityExtension:
    """Ghost-extend the velocity components per the model boundary conditions.

    Transverse ghosts of u1/u2: reflection through 0 at Dirichlet walls
    (lateral, top); below the ground the ghost solves the one-sided traction
    relation nu3*(u_H[first interior] - u_H[ghost])/dz = theta_H, so theta = 0
    reduces to a homogeneous Neumann mirror.  u3 lateral ghosts are Dirichlet
    reflections in anisotropic mode; in hydrostatic mode u3 carries no lateral
    condition and the ghosts are plain copies (the hydrostatic solver never
    differentiates u3 across the walls).  Normal-direction ghosts are linear
    extrapolations through the stored boundary faces; they only feed stencil
    rows that the solvers discard.
    """
    if mode not in ("anisotropic", "hydrostatic"):
        raise ValueError(f"unknown mode {mode!r}")
    t1f, t2f = theta_faces(theta, grid)
    u1, u2, u3 = u.u1, u.u2, u.u3

    u1e = np.zeros((u1.shape[0] + 2, u1.shape[1] + 2, u1.shape[2] + 2))
    u1e[1:-1, 1:-1, 1:-1] = u1
    u1e[0, 1:-1, 1:-1] = 2.0 * u1[0] - u1[1]
    u1e[-1, 1:-1, 1:-1] = 2.0 * u1[-1] - u1[-2]
    u1e[1:-1, 0, 1:-1] = -u1[:, 0]
    u1e[1:-1, -1, 1:-1] = -u1[:, -1]
    u1e[1:-1, 1:-1, -1] = -u1[:, :, -1]
    u1e[1:-1, 1:-1, 0] = u1[:, :, 0] - grid.dz * t1f / nu3

    u2e = np.zeros((u2.shape[0] + 2, u2.shape[1] + 2, u2.shape[2] + 2))
    u2e[1:-1, 1:-1, 1:-1] = u2
    u2e[1:-1, 0, 1:-1] = 2.0 * u2[:, 0] - u2[:, 1]
    u2e[1:-1, -1, 1:-1] = 2.0 * u2[:, -1] - u2[:, -2]
    u2e[0, 1:-1, 1:-1] = -u2[0]
    u2e[-1, 1:-1, 1:-1] = -u2[-1]
    u2e[1:-1, 1:-1, -1] = -u2[:, :, -1]
    u2e[1:-1, 1:-1, 0] = u2[:, :, 0] - grid.dz * t2f / nu3

    u3e = np.zeros((u3.shape[0] + 2, u3.shape[1] + 2, u3.shape[2] + 2))
    u3e[1:-1, 1:-1, 1:-1] = u3
    u3e[1:-1, 1:-1, 0] = 2.0 * u3[:, :, 0] - u3[:, :, 1]
    u3e[1:-1, 1:-1, -1] = 2.0 * u3[:, :, -1] - u3[:, :, -2]
    if mode == "anisotropic":
        u3e[0, 1:-1, 1:-1] = -u3[0]
        u3e[-1, 1:-1, 1:-1] = -u3[-1]
        u3e[1:-1, 0, 1:-1] = -u3[:, 0]
        u3e[1:-1, -1, 1:-1] = -u3[:, -1]
    else:
        u3e[0, 1:-1, 1:-1] = u3[0]
        u3e[-1, 1:-1, 1:-1] = u3[-1]
        u3e[1:-1, 0, 1:-1] = u3[:, 0]
        u3e[1:-1, -1, 1:-1] = u3[:, -1]
    return VelocityExtension(u1e, u2e, u3e)


def _edge_extension(u: StaggeredVelocity) -> VelocityExtension:
    """Constant (edge-replicated) extension, used when no BC ghosts are given."""
    return VelocityExtension(
        np.pad(u.u1, 1, mode="edge"),
        np.pad(u.u2, 1, mode="edge"),
        np.pad(u.u3, 1, mode="edge"),
    )


def apply_concentration_bcs(C: np.ndarray, M, grid: Grid) -> np.ndarray:
    """Ghost-extended concentration field realising its boundary conditions.

    Gamma_A ghosts reflect through 0 (Dirichlet C = 0); the ghost below the
    ground solves the discrete no-flux relation

        M31*d1C + M32*d2C + M33*(C_int - C_ghost)/dz = 0

    with the horizontal derivatives lagged from the first interior layer (a
    diagonal tensor therefore reduces to the pure Neumann mirror).  Returned
    shape is (nx+2, ny+2, nz+2); corner/edge ghosts are zero and no supported
    stencil touches them.
    """
    if C.shape != grid.shape_cells:
        raise ValueError(f"field shaped {C.shape} does not fit grid {grid.shape_cells}")
    Ce = np.zeros((grid.nx + 2, grid.ny + 2, grid.nz + 2))
    Ce[1:-1, 1:-1, 1:-1] = C
    Ce[0, 1:-1, 1:-1] = -C[0]
    Ce[-1, 1:-1, 1:-1] = -C[-1]
    Ce[1:-1, 0, 1:-1] = -C[:, 0]
    Ce[1:-1, -1, 1:-1] = -C[:, -1]
    Ce[1:-1, 1:-1, -1] = -C[:, :, -1]

    m31 = M.entry(2, 0)
    m32 = M.entry(2, 1)
    m33 = M.entry(2, 2)
    if np.ndim(m31) > 0:
        m31, m32, m33 = m31[..., 0], m32[..., 0], m33[..., 0]
    d1 = (Ce[2:, 1:-1, 1] - Ce[:-2, 1:-1, 1]) / (2.0 * grid.dx)
    d2 = (Ce[1:-1, 2:, 1] - Ce[1:-1, :-2, 1]) / (2.0 * grid.dy)
    Ce[1:-1, 1:-1, 0] = C[:, :, 0] + grid.dz * (m31 * d1 + m32 * d2) / m33
    return Ce


def _face_average(cell_field: np.ndarray, axis: int) -> np.ndarray:
    """Average a cell-centred field to the faces along one axis.

    Interior faces take the two-cell mean; boundary faces copy the single
    adjacent cell (one-sided).
    """
    n = cell_field.shape[axis]
    shape = list(cell_field.shape)
    shape[axis] = n + 1
    out = np.empty(shape)
    lo = [slice(None)] * 3
    hi = [slice(None)] * 3
    mid = [slice(None)] * 3
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    mid[axis] = slice(1, -1)
    out[tuple(mid)] = 0.5 * (cell_field[tuple(lo)] + cell_field[tuple(hi)])
    first = [slice(None)] * 3
    first[axis] = 0
    last = [slice(None)] * 3
    last[axis] = -1
    cfirst = [slice(None)] * 3
    cfirst[axis] = 0
    clast = [slice(None)] * 3
    clast[axis] = -1
    out[tuple(first)] = cell_field[tuple(cfirst)]
    out[tuple(last)] = cell_field[tuple(clast)]
    return out


def _maybe_face_average(entry, axis: int):
    if np.ndim(entry) == 0:
        return entry
    return _face_average(entry, axis)


def diffuse_concentration(C: np.ndarray, M, grid: Grid) -> np.ndarray:
    """Conservative full-tensor diffusion div(M grad C).

    Fluxes are assembled on faces: the normal derivative is the two-point face
    difference (using the BC ghosts), cross derivatives are cell-centred
    central differences averaged onto the face.  The ground flux is imposed
    exactly zero (no-flux); Gamma_A fluxes see Dirichlet C = 0 ghosts.
    """
    from .core import coercivity_constant

    coercivity_constant(M)  # raises on violation
    Ce = apply_concentration_bcs(C, M, grid)
    dx, dy, dz = grid.spacing

    if not M.is_spatial and np.count_nonzero(M.m - np.diag(np.diag(M.m))) == 0:
        # diagonal tensor: the cross-derivative machinery contributes nothing
        m1, m2, m3 = M.m[0, 0], M.m[1, 1], M.m[2, 2]
        fx = m1 * (Ce[1:, 1:-1, 1:-1] - Ce[:-1, 1:-1, 1:-1]) / dx
        fy = m2 * (Ce[1:-1, 1:, 1:-1] - Ce[1:-1, :-1, 1:-1]) / dy
        fz = m3 * (Ce[1:-1, 1:-1, 1:] - Ce[1:-1, 1:-1, :-1]) / dz
        fz[:, :, 0] = 0.0
        return (
            (fx[1:] - fx[:-1]) / dx
            + (fy[:, 1:] - fy[:, :-1]) / dy
            + (fz[:, :, 1:] - fz[:, :, :-1]) / dz
        )

    dCdx_c = (Ce[2:, 1:-1, 1:-1] - Ce[:-2, 1:-1, 1:-1]) / (2.0 * dx)
    dCdy_c = (Ce[1:-1, 2:, 1:-1] - Ce[1:-1, :-2, 1:-1]) / (2.0 * dy)
    dCdz_c = (Ce[1:-1, 1:-1, 2:] - Ce[1:-1, 1:-1, :-2]) / (2.0 * dz)

    dCdx_f = (Ce[1:, 1:-1, 1:-1] - Ce[:-1, 1:-1, 1:-1]) / dx
    dCdy_f = (Ce[1:-1, 1:, 1:-1] - Ce[1:-1, :-1, 1:-1]) / dy
    dCdz_f = (Ce[1:-1, 1:-1, 1:] - Ce[1:-1, 1:-1, :-1]) / dz

    m11 = _maybe_face_average(M.entry(0, 0), 0)
    m22 = _maybe_face_average(M.entry(1, 1), 1)
    m33 = _maybe_face_average(M.entry(2, 2), 2)
    m12 = M.entry(0, 1)
    m13 = M.entry(0, 2)
    m23 = M.entry(1, 2)

    fx = m11 * dCdx_f + _face_average(m12 * dCdy_c + m13 * dCdz_c, 0)
    fy = m22 * dCdy_f + _face_average(m12 * dCdx_c + m23 * dCdz_c, 1)
    fz = m33 * dCdz_f + _face_average(m13 * dCdx_c + m23 * dCdy_c, 2)
    fz[:, :, 0] = 0.0

    return (
        (fx[1:] - fx[:-1]) / dx
        + (fy[:, 1:] - fy[:, :-1]) / dy
        + (fz[:, :, 1:] - fz[:, :, :-1]) / dz
    )


def _donor(lo: np.ndarray, hi: np.ndarray, speed: np.ndarray, scheme: str) -> np.ndarray:
    if scheme == "upwind1":
        return np.where(speed > 0.0, lo, hi)
    if scheme == "centered2":
        return 0.5 * (lo + hi)
    raise ValueError(f"unknown scheme {scheme!r}")


def advect_scalar(
    u: StaggeredVelocity, C: np.ndarray, grid: Grid, scheme: str = "upwind1"
) -> np.ndarray:
    """Advection term u . grad C in conservative donor-cell form.

    Returns div(u C); the two forms agree up to the divergence tolerance of
    the projected velocity.  Boundary-face fluxes use the edge cell as donor;
    they vanish identically once the velocity boundary conditions hold.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    Cp = np.pad(C, 1, mode="edge")
    fx = u.u1 * _donor(Cp[:-1, 1:-1, 1:-1], Cp[1:, 1:-1, 1:-1], u.u1, scheme)
    fy = u.u2 * _donor(Cp[1:-1, :-1, 1:-1], Cp[1:-1, 1:, 1:-1], u.u2, scheme)
    fz = u.u3 * _donor(Cp[1:-1, 1:-1, :-1], Cp[1:-1, 1:-1, 1:], u.u3, scheme)
    return (
        (fx[1:] - fx[:-1]) / grid.dx
        + (fy[:, 1:] - fy[:, :-1]) / grid.dy
        + (fz[:, :, 1:] - fz[:, :, :-1]) / grid.dz
    )


def _sl(a: np.ndarray, axis: int, start, stop) -> np.ndarray:
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    return a[tuple(idx)]


def _advect_face_component(
    f: np.ndarray,
    axis: int,
    u_raw: tuple,
    f_ext: np.ndarray,
    grid: Grid,
    scheme: str,
) -> np.ndarray:
    """Donor-cell advection of one face component on its native control volume.

    The advecting normal speed on a control-volume face is the two-point mean
    of the neighbouring stored values of the corresponding component; donor
    values of ``f`` across transverse directions come from the ghost-extended
    array.  Output is zero on the component's own boundary faces.
    """
    h = grid.spacing
    total = None
    for d in range(3):
        if d == axis:
            speed = 0.5 * (_sl(f, d, None, -1) + _sl(f, d, 1, None))
            flux = speed * _donor(_sl(f, d, None, -1), _sl(f, d, 1, None), speed, scheme)
            term = (_sl(flux, d, 1, None) - _sl(flux, d, None, -1)) / h[d]
        else:
            ud = u_raw[d]
            speed = 0.5 * (_sl(ud, axis, None, -1) + _sl(ud, axis, 1, None))
            idx_lo = [slice(1, -1)] * 3
            idx_lo[axis] = slice(2, -2)
            idx_hi = list(idx_lo)
            idx_lo[d] = slice(None, -1)
            idx_hi[d] = slice(1, None)
            lo = f_ext[tuple(idx_lo)]
            hi = f_ext[tuple(idx_hi)]
            flux = speed * _donor(lo, hi, speed, scheme)
            term = (_sl(flux, d, 1, None) - _sl(flux, d, None, -1)) / h[d]
        total = term if total is None else total + term
    adv = np.zeros_like(f)
    interior = [slice(None)] * 3
    interior[axis] = slice(1, -1)
    adv[tuple(interior)] = total
    return adv


def advect_velocity(
    u: StaggeredVelocity,
    grid: Grid,
    scheme: str = "upwind1",
    ext: VelocityExtension | None = None,
    components: tuple = (0, 1, 2),
) -> StaggeredVelocity:
    """Self-advection u . grad u, componentwise on face-native stencils.

    ``ext`` supplies the ghost-extended components (from ``extend_velocity``);
    without it a constant edge extension is used, which is adequate for
    interior verification against analytic fields.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if ext is None:
        ext = _edge_extension(u)
    raw = u.components()
    exts = (ext.u1e, ext.u2e, ext.u3e)
    out = []
    for axis in range(3):
        if axis in components:
            out.append(_advect_face_component(raw[axis], axis, raw, exts[axis], grid, scheme))
        else:
            out.append(np.zeros_like(raw[axis]))
    return StaggeredVelocity(*out)
