"""Discrete vector calculus on the staggered grid.

Scalar fields are plain ``(nx, ny, nz)`` ndarrays at cell centres; velocity
components live on faces (see ``core.Grid``).  Stencil operators never
write their inputs.  Each returns a freshly allocated array or a view of one:
``anisotropic_laplacian`` and the diagonal-tensor branch of
``diffuse_concentration`` run each pass over one contiguous window of the
ghost-extended array's flat view and return the interior of their buffer.
``divergence`` returns a C-contiguous array, because the projection's
``np.mean`` over it must sum in the same order whatever produced the field.

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

from .core import BoundaryForcing, Grid, face_average

__all__ = [
    "StaggeredVelocity",
    "VelocityExtension",
    "divergence",
    "horizontal_divergence",
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
    """Ghost-extended velocity components (one layer per side, every axis);
    ``u3e`` is None for the hydrostatic model (see ``extend_velocity``)."""

    u1e: np.ndarray
    u2e: np.ndarray
    u3e: np.ndarray | None


def horizontal_divergence(f1: np.ndarray, f2: np.ndarray, grid: Grid) -> np.ndarray:
    """(f1[1:] - f1[:-1])/dx + (f2[:, 1:] - f2[:, :-1])/dy of x- and y-face
    fields (3-D, or depth-integrated 2-D), summed in that order into one
    fresh C-contiguous array."""
    out = np.subtract(f1[1:], f1[:-1], order="C")
    out /= grid.dx
    t = f2[:, 1:] - f2[:, :-1]
    t /= grid.dy
    out += t
    return out


def _flux_divergence(f1: np.ndarray, f2: np.ndarray, f3: np.ndarray, grid: Grid) -> np.ndarray:
    """``horizontal_divergence(f1, f2)`` + (f3[:, :, 1:] - f3[:, :, :-1])/dz,
    summed in that order into one fresh C-contiguous array."""
    out = horizontal_divergence(f1, f2, grid)
    t = f3[:, :, 1:] - f3[:, :, :-1]
    t /= grid.dz
    out += t
    return out


def divergence(u: StaggeredVelocity, grid: Grid) -> np.ndarray:
    """Cell-centred divergence of a staggered velocity field (C-contiguous)."""
    if u.u1.shape != grid.shape_u1:
        raise ValueError(f"velocity shaped {u.u1.shape} does not fit grid {grid.shape_u1}")
    return _flux_divergence(u.u1, u.u2, u.u3, grid)


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
    caller is imposing.  Per axis d the term is nu_d*(f[+d] - 2f + f[-d])/h_d^2,
    evaluated over the interior window of the flat view (``_interior_window``)
    and summed in axis order; the result is the interior view of that buffer.
    """
    f = f_ext.ravel()
    lo, hi, shifts = _interior_window(f_ext.shape)
    buf = np.empty(f.size)
    out = buf[lo:hi]
    c2 = 2.0 * f[lo:hi]
    t = np.empty_like(c2)
    for d, (s, h) in enumerate(zip(shifts, grid.spacing)):
        r = out if d == 0 else t
        np.subtract(f[lo + s:hi + s], c2, out=r)
        r += f[lo - s:hi - s]
        r *= nu[d]
        r /= h**2
        if d > 0:
            out += t
    return buf.reshape(f_ext.shape)[1:-1, 1:-1, 1:-1]


def _interior_window(shape: tuple) -> tuple:
    """(lo, hi, (sx, sy, 1)) of a C-ordered ghost-extended array of ``shape``.

    [lo, hi) is the flat index range from its first interior cell to its
    last, and s_d the flat offset of one step along axis d.  Shifting the
    window by +-s_d stays inside the array, so a stencil over the window is
    one contiguous pass per operand.  Window entries on ghost rows hold
    values nobody reads.
    """
    sy = shape[2]
    sx = shape[1] * sy
    lo = sx + sy + 1
    return lo, shape[0] * sx - lo, (sx, sy, 1)


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


def apply_velocity_bcs(u: StaggeredVelocity) -> StaggeredVelocity:
    """Zero the stored boundary-face values of u (both models).

    Gamma_A is no-slip for u1/u2 (faces on the lateral walls) and u3 vanishes
    on both horizontal boundaries.  The traction condition on the ground and
    the Dirichlet conditions at non-face-aligned walls act through ghost
    layers; see ``extend_velocity``.
    """
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
    mode: str = "aniso",
) -> VelocityExtension:
    """Ghost-extend the velocity components per the model boundary conditions.

    Transverse ghosts of u1/u2: reflection through 0 at Dirichlet walls
    (lateral, top); below the ground the ghost solves the one-sided traction
    relation nu3*(u_H[first interior] - u_H[ghost])/dz = theta_H, so theta = 0
    reduces to a homogeneous Neumann mirror.  u3 lateral ghosts are Dirichlet
    reflections in mode "aniso"; in mode "hydro" u3 is diagnosed, carries no
    lateral condition and no momentum stencil reads it, so it is not extended
    and ``u3e`` is None.  Normal-direction ghosts are linear extrapolations
    through the stored boundary faces; they only feed stencil rows that the
    solvers discard.
    """
    if mode not in ("aniso", "hydro"):
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

    if mode == "hydro":
        return VelocityExtension(u1e, u2e, None)
    u3e = np.zeros((u3.shape[0] + 2, u3.shape[1] + 2, u3.shape[2] + 2))
    u3e[1:-1, 1:-1, 1:-1] = u3
    u3e[1:-1, 1:-1, 0] = 2.0 * u3[:, :, 0] - u3[:, :, 1]
    u3e[1:-1, 1:-1, -1] = 2.0 * u3[:, :, -1] - u3[:, :, -2]
    u3e[0, 1:-1, 1:-1] = -u3[0]
    u3e[-1, 1:-1, 1:-1] = -u3[-1]
    u3e[1:-1, 0, 1:-1] = -u3[:, 0]
    u3e[1:-1, -1, 1:-1] = -u3[:, -1]
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


def diffuse_concentration(C: np.ndarray, M, grid: Grid) -> np.ndarray:
    """Conservative full-tensor diffusion div(M grad C).

    Fluxes are assembled on faces: the normal derivative is the two-point face
    difference (using the BC ghosts), cross derivatives are cell-centred
    central differences averaged onto the face.  The ground flux is imposed
    exactly zero (no-flux); Gamma_A fluxes see Dirichlet C = 0 ghosts.  M is
    coercive by construction (``DiffusionTensor`` checks it once).  The face
    values of the diagonal entries come from ``M.face_diagonal``.
    """
    Ce = apply_concentration_bcs(C, M, grid)

    if not M.is_spatial and np.count_nonzero(M.m - np.diag(np.diag(M.m))) == 0:
        # Diagonal tensor: no cross derivatives.  The flux through the face
        # below flat index p along axis d is m_d*(Ce[p] - Ce[p - s_d])/h_d,
        # over the interior window extended by s_d; the ground faces are
        # every sy-th entry of the z flux.
        f = Ce.ravel()
        lo, hi, shifts = _interior_window(Ce.shape)
        buf = np.empty(f.size)
        out = buf[lo:hi]
        flux = np.empty(hi - lo + shifts[0])
        t = np.empty_like(out)
        for d, (s, m, h) in enumerate(zip(shifts, M.face_diagonal, grid.spacing)):
            fd = flux[: hi - lo + s]
            np.subtract(f[lo:hi + s], f[lo - s:hi], out=fd)
            fd *= m
            fd /= h
            if d == 2:
                fd[:: shifts[1]] = 0.0
            r = out if d == 0 else t
            np.subtract(fd[s:], fd[:-s], out=r)
            r /= h
            if d > 0:
                out += t
        return buf.reshape(Ce.shape)[1:-1, 1:-1, 1:-1]

    dC_c = []  # central differences at the cells
    for d, h in enumerate(grid.spacing):
        g = _inner(Ce, d, 2, None) - _inner(Ce, d, None, -2)
        g /= 2.0 * h
        dC_c.append(g)
    # flux_d = M_dd*(face difference)/h_d + the face average of the two
    # cross terms M_da*dC_c[a] + M_db*dC_c[b]
    m12, m13, m23 = M.entry(0, 1), M.entry(0, 2), M.entry(1, 2)
    crosses = ((m12, 1, m13, 2), (m12, 0, m23, 2), (m13, 0, m23, 1))
    t = np.empty(grid.shape_cells)
    fluxes = []
    for d, (h, m_dd, (ma, a, mb, b)) in enumerate(zip(grid.spacing, M.face_diagonal, crosses)):
        fd = _inner(Ce, d, 1, None) - _inner(Ce, d, None, -1)
        fd /= h
        fd *= m_dd
        cross = ma * dC_c[a]
        np.multiply(mb, dC_c[b], out=t)
        cross += t
        fd += face_average(cross, d)
        fluxes.append(fd)
    fluxes[2][:, :, 0] = 0.0  # no flux through the ground
    return _flux_divergence(*fluxes, grid)


def _inner(a: np.ndarray, axis: int, start, stop) -> np.ndarray:
    """a[1:-1, 1:-1, 1:-1] of a ghost-extended array, with slice(start, stop)
    on ``axis``."""
    idx = [slice(1, -1)] * 3
    idx[axis] = slice(start, stop)
    return a[tuple(idx)]


def _donor_flux(speed: np.ndarray, C: np.ndarray, axis: int) -> np.ndarray:
    """speed times the upwind cell value of C on each face normal to ``axis``;
    a boundary face takes its one adjacent cell as donor."""
    flux = np.empty(speed.shape)
    f, s, c = (np.moveaxis(a, axis, 0) for a in (flux, speed, C))
    f[1:-1] = np.where(s[1:-1] > 0.0, c[:-1], c[1:])
    f[0] = c[0]
    f[-1] = c[-1]
    flux *= speed
    return flux


def advect_scalar(u: StaggeredVelocity, C: np.ndarray, grid: Grid) -> np.ndarray:
    """Advection term u . grad C in conservative first-order upwind form.

    Returns div(u C); the two forms agree up to the divergence tolerance of
    the projected velocity.  Boundary-face fluxes use the edge cell as donor;
    they vanish identically once the velocity boundary conditions hold.
    """
    return _flux_divergence(*(_donor_flux(v, C, d) for d, v in enumerate(u.components())), grid)


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
) -> np.ndarray:
    """Upwind advection of one face component on its native control volume.

    The advecting normal speed on a control-volume face is the two-point mean
    of the neighbouring stored values of the corresponding component; donor
    values of ``f`` across transverse directions come from the ghost-extended
    array.  The terms of the three directions are summed in axis order into
    the interior of the output, which is zero on the component's own
    boundary faces.
    """
    adv = np.zeros_like(f)
    total = _sl(adv, axis, 1, -1)
    t = np.empty_like(total)
    for d, h in enumerate(grid.spacing):
        if d == axis:
            lo, hi = _sl(f, d, None, -1), _sl(f, d, 1, None)
            speed = lo + hi
        else:
            ud = u_raw[d]
            speed = _sl(ud, axis, None, -1) + _sl(ud, axis, 1, None)
            idx_lo = [slice(1, -1)] * 3
            idx_lo[axis] = slice(2, -2)
            idx_hi = list(idx_lo)
            idx_lo[d] = slice(None, -1)
            idx_hi[d] = slice(1, None)
            lo = f_ext[tuple(idx_lo)]
            hi = f_ext[tuple(idx_hi)]
        speed *= 0.5
        flux = np.where(speed > 0.0, lo, hi)
        flux *= speed
        term = total if d == 0 else t
        np.subtract(_sl(flux, d, 1, None), _sl(flux, d, None, -1), out=term)
        term /= h
        if d > 0:
            total += t
    return adv


def advect_velocity(
    u: StaggeredVelocity,
    grid: Grid,
    ext: VelocityExtension | None = None,
    components: tuple = (0, 1, 2),
) -> StaggeredVelocity:
    """Self-advection u . grad u, componentwise on face-native stencils, in
    first-order upwind form.

    ``ext`` supplies the ghost-extended components (from ``extend_velocity``);
    without it a constant edge extension is used, which is adequate for
    interior verification against analytic fields.
    """
    if ext is None:
        ext = _edge_extension(u)
    raw = u.components()
    exts = (ext.u1e, ext.u2e, ext.u3e)
    out = []
    for axis in range(3):
        if axis in components:
            out.append(_advect_face_component(raw[axis], axis, raw, exts[axis], grid))
        else:
            out.append(np.zeros_like(raw[axis]))
    return StaggeredVelocity(*out)
