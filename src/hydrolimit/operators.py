"""Discrete vector calculus on the staggered grid.

Scalar fields are plain ``(nx, ny, nz)`` ndarrays at cell centres; velocity
components live on faces (see ``core.Grid``).  Stencil operators never
write their inputs.  Each returns a freshly allocated array or a view of one:
``anisotropic_laplacian`` runs each pass over one contiguous window of the
ghost-extended array's flat view and returns the interior of its buffer.
``flux_divergence`` returns a C-contiguous array, because the projection's
``np.mean`` over it must sum in the same order whatever produced the field.
The centred difference of a ghost-extended field (``centred_difference``)
and the face-to-centre average (``centre_average``) are written once here,
for the operators and the diagnostics alike.

Boundary conditions are written once, in ``BOUNDARY_CONDITIONS``: no slip
(Dirichlet 0) on Gamma_A, the wind traction for u_H and no flux for C on the
ground Gamma_G.  The ghost layers of ``extend_velocity`` and
``apply_concentration_bcs``, the stored faces that ``apply_velocity_bcs``
zeroes, the wall terms of ``diagnostics.velocity_dissipation`` and the end
conditions of the translation modulus's smoothing solve all derive from it.
``anisotropic_laplacian`` and the advection operators consume extended
arrays, so tests may substitute analytic ghost values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .core import BoundaryForcing, Grid, face_average

__all__ = [
    "BOUNDARY_CONDITIONS",
    "StaggeredVelocity",
    "VelocityExtension",
    "divergence",
    "flux_divergence",
    "grad_pressure",
    "centred_difference",
    "centre_average",
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

# Per field and axis (x, y, z), the condition at the (low, high) end: "face"
# (stored boundary faces, held at 0; ghosts extrapolate through them),
# "dirichlet" (Gamma_A: ghosts reflect through 0) or "neumann" (the ground:
# traction for u_H, no flux for C, whose ghosts ``extend_velocity`` and
# ``apply_concentration_bcs`` write), as ``solve_separable`` names its ends.
BOUNDARY_CONDITIONS = MappingProxyType({
    "u1": (("face", "face"), ("dirichlet", "dirichlet"), ("neumann", "dirichlet")),
    "u2": (("dirichlet", "dirichlet"), ("face", "face"), ("neumann", "dirichlet")),
    "u3": (("dirichlet", "dirichlet"), ("dirichlet", "dirichlet"), ("face", "face")),
    "C": (("dirichlet", "dirichlet"), ("dirichlet", "dirichlet"), ("neumann", "dirichlet")),
})


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
        return tuple(centre_average(f, d) for d, f in enumerate(self.components()))

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


def flux_divergence(fluxes, grid: Grid) -> np.ndarray:
    """(f1[1:] - f1[:-1])/dx + (f2[:, 1:] - f2[:, :-1])/dy, plus
    (f3[:, :, 1:] - f3[:, :, :-1])/dz when a third face field is given,
    summed in that order into one fresh C-contiguous array.  Two fields may
    be 3-D or depth-integrated 2-D."""
    f1 = fluxes[0]
    out = np.subtract(f1[1:], f1[:-1], order="C")
    out /= grid.dx
    for axis, (f, h) in enumerate(zip(fluxes[1:], grid.spacing[1:]), start=1):
        t = np.diff(f, axis=axis)
        t /= h
        out += t
    return out


def divergence(u: StaggeredVelocity, grid: Grid) -> np.ndarray:
    """Cell-centred divergence of a staggered velocity field (C-contiguous)."""
    if u.u1.shape != grid.shape_u1:
        raise ValueError(f"velocity shaped {u.u1.shape} does not fit grid {grid.shape_u1}")
    return flux_divergence(u.components(), grid)


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


def _along(axis: int, i, trim: int = 0) -> tuple:
    """Index of a 3-D array: position or slice i on ``axis``, the other two
    axes trimmed by ``trim`` cells at both ends (1: the interior of a
    ghost-extended array)."""
    idx = [slice(trim, -trim or None)] * 3
    idx[axis] = i
    return tuple(idx)


def centred_difference(f_ext: np.ndarray, axis: int, h: float) -> np.ndarray:
    """(f[+axis] - f[-axis]) / (2h) at the interior cells of a ghost-extended
    field: the unextended shape, freshly allocated."""
    d = f_ext[_along(axis, slice(2, None), 1)] - f_ext[_along(axis, slice(None, -2), 1)]
    d /= 2.0 * h
    return d


def centre_average(a: np.ndarray, axis: int) -> np.ndarray:
    """0.5 * (a[lo] + a[hi]) of neighbours along ``axis``: face values to the
    cell centres between them (one entry fewer on that axis)."""
    s = a[_along(axis, slice(None, -1))] + a[_along(axis, slice(1, None))]
    s *= 0.5
    return s


def anisotropic_laplacian(f_ext: np.ndarray, nu, grid: Grid) -> np.ndarray:
    """7-point Laplacian nu1*d11 + nu2*d22 + nu3*d33 of a ghost-extended field.

    ``f_ext`` carries one ghost layer on every side; the result has the
    unextended shape.  Ghost values encode whatever boundary condition the
    caller is imposing.  Per axis d the term is nu_d*(f[+d] - 2f + f[-d])/h_d^2,
    summed in axis order.  Each pass runs over [lo, hi), the flat indices
    from the first interior cell to the last, and each operand is that window
    shifted by s_d, the flat offset of one step along axis d, so it stays
    inside the array and is contiguous.  Window entries on ghost rows hold
    values nobody reads; the result is the interior view of the buffer.
    """
    f = f_ext.ravel()
    sy = f_ext.shape[2]
    shifts = (f_ext.shape[1] * sy, sy, 1)
    lo = shifts[0] + sy + 1
    hi = f.size - lo
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
    """Traction components on the u1/u2 horizontal face positions.

    Interior faces average the two adjacent cells; edge faces copy the single
    adjacent cell.  Returns (theta1 on (nx+1,ny), theta2 on (nx,ny+1)): the
    read-only ``theta.faces``, or zeros without a traction.
    """
    if theta is None:
        return np.zeros((grid.nx + 1, grid.ny)), np.zeros((grid.nx, grid.ny + 1))
    shape = (grid.nx, grid.ny)
    if theta.theta1.shape != shape:
        raise ValueError(f"traction shaped {theta.theta1.shape} does not fit grid {shape}")
    return theta.faces


def _ghost_extend(f: np.ndarray, ends: tuple) -> np.ndarray:
    """f with one ghost layer per side, the face and wall planes filled per
    ``ends`` (a row of ``BOUNDARY_CONDITIONS``).

    A "face" ghost extrapolates linearly through the stored boundary value, a
    "dirichlet" ghost reflects the adjacent value through 0.  "neumann"
    planes and the edge/corner ghosts stay 0: the caller writes the ground
    relation, and no supported stencil reads the rest.
    """
    fe = np.zeros((f.shape[0] + 2, f.shape[1] + 2, f.shape[2] + 2))
    fe[1:-1, 1:-1, 1:-1] = f
    for d, bcs in enumerate(ends):
        for bc, side, inner in zip(bcs, (0, -1), (1, -2)):
            if bc == "face":
                fe[_along(d, side, 1)] = 2.0 * f[_along(d, side)] - f[_along(d, inner)]
            elif bc == "dirichlet":
                fe[_along(d, side, 1)] = -f[_along(d, side)]
    return fe


def apply_velocity_bcs(u: StaggeredVelocity) -> StaggeredVelocity:
    """Zero the stored boundary-face values of u (the "face" ends of
    ``BOUNDARY_CONDITIONS``); the other conditions act through ghost layers,
    see ``extend_velocity``."""
    out = []
    for name, f in zip(("u1", "u2", "u3"), u.components()):
        f = f.copy()
        for d, bcs in enumerate(BOUNDARY_CONDITIONS[name]):
            for bc, side in zip(bcs, (0, -1)):
                if bc == "face":
                    f[_along(d, side)] = 0.0
        out.append(f)
    return StaggeredVelocity(*out)


def extend_velocity(
    u: StaggeredVelocity,
    theta: BoundaryForcing | None,
    nu3: float,
    grid: Grid,
    mode: str = "aniso",
) -> VelocityExtension:
    """Ghost-extend the velocity components per ``BOUNDARY_CONDITIONS``.

    Below the ground the ghost of u1/u2 solves the one-sided traction
    relation nu3*(u_H[first interior] - u_H[ghost])/dz = theta_H, so
    theta = 0 reduces to a homogeneous Neumann mirror.  Normal-direction
    ("face") ghosts only feed stencil rows that the solvers discard.  In mode
    "hydro" u3 is diagnosed, carries no lateral condition and no momentum
    stencil reads it, so it is not extended and ``u3e`` is None.
    """
    if mode not in ("aniso", "hydro"):
        raise ValueError(f"unknown mode {mode!r}")
    horizontal = []
    for name, f, tf in zip(("u1", "u2"), (u.u1, u.u2), theta_faces(theta, grid)):
        fe = _ghost_extend(f, BOUNDARY_CONDITIONS[name])
        fe[1:-1, 1:-1, 0] = f[:, :, 0] - grid.dz * tf / nu3
        horizontal.append(fe)
    u3e = None if mode == "hydro" else _ghost_extend(u.u3, BOUNDARY_CONDITIONS["u3"])
    return VelocityExtension(*horizontal, u3e)


def apply_concentration_bcs(C: np.ndarray, M, grid: Grid) -> np.ndarray:
    """Ghost-extended concentration field per ``BOUNDARY_CONDITIONS``.

    Gamma_A ghosts reflect through 0 (Dirichlet C = 0); the ghost below the
    ground, written last because it reads the lateral ghosts of the first
    layer, solves the discrete no-flux relation

        M31*d1C + M32*d2C + M33*(C_int - C_ghost)/dz = 0

    with the horizontal derivatives lagged from the first interior layer (a
    diagonal tensor therefore reduces to the pure Neumann mirror).  Returned
    shape is (nx+2, ny+2, nz+2); corner/edge ghosts are zero and no supported
    stencil touches them.
    """
    if C.shape != grid.shape_cells:
        raise ValueError(f"field shaped {C.shape} does not fit grid {grid.shape_cells}")
    Ce = _ghost_extend(C, BOUNDARY_CONDITIONS["C"])

    m31 = M.entry(2, 0)
    m32 = M.entry(2, 1)
    m33 = M.entry(2, 2)
    if np.ndim(m31) > 0:
        m31, m32, m33 = m31[..., 0], m32[..., 0], m33[..., 0]
    # the first interior layer is the interior of the bottom three layers
    bottom = Ce[:, :, :3]
    d1, d2 = (centred_difference(bottom, d, grid.spacing[d])[:, :, 0] for d in (0, 1))
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

    A constant diagonal tensor (``M.constant_diagonal``) has no cross terms
    and a ground ghost that mirrors the first layer, so the flux form is the
    momentum stencil ``anisotropic_laplacian`` with weights (m11, m22, m33)
    over C's ghosts, and that stencil is what is evaluated.
    """
    Ce = apply_concentration_bcs(C, M, grid)
    if M.constant_diagonal:
        return anisotropic_laplacian(Ce, M.face_diagonal, grid)

    dC_c = [centred_difference(Ce, d, h) for d, h in enumerate(grid.spacing)]
    # flux_d = M_dd*(face difference)/h_d + the face average of the two
    # cross terms M_da*dC_c[a] + M_db*dC_c[b]
    m12, m13, m23 = M.entry(0, 1), M.entry(0, 2), M.entry(1, 2)
    crosses = ((m12, 1, m13, 2), (m12, 0, m23, 2), (m13, 0, m23, 1))
    t = np.empty(grid.shape_cells)
    fluxes = []
    for d, (h, m_dd, (ma, a, mb, b)) in enumerate(zip(grid.spacing, M.face_diagonal, crosses)):
        fd = Ce[_along(d, slice(1, None), 1)] - Ce[_along(d, slice(None, -1), 1)]
        fd /= h
        fd *= m_dd
        cross = ma * dC_c[a]
        np.multiply(mb, dC_c[b], out=t)
        cross += t
        fd += face_average(cross, d)
        fluxes.append(fd)
    fluxes[2][:, :, 0] = 0.0  # no flux through the ground
    return flux_divergence(fluxes, grid)


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
    return flux_divergence([_donor_flux(v, C, d) for d, v in enumerate(u.components())], grid)


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
    total = adv[_along(axis, slice(1, -1))]
    t = np.empty_like(total)
    for d, h in enumerate(grid.spacing):
        if d == axis:
            speed, donors = centre_average(f, d), f
        else:
            # f_ext over the interior faces of f on ``axis``, the interior
            # cells on the third axis and all of axis d, ghosts included
            speed = centre_average(u_raw[d], axis)
            donors = f_ext[_along(d, slice(None), 1)][_along(axis, slice(1, -1))]
        lo, hi = donors[_along(d, slice(None, -1))], donors[_along(d, slice(1, None))]
        flux = np.where(speed > 0.0, lo, hi)
        flux *= speed
        term = total if d == 0 else t
        np.subtract(flux[_along(d, slice(1, None))], flux[_along(d, slice(None, -1))], out=term)
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
        ext = VelocityExtension(*(np.pad(c, 1, mode="edge") for c in u.components()))
    raw = u.components()
    exts = (ext.u1e, ext.u2e, ext.u3e)
    out = []
    for axis in range(3):
        if axis in components:
            out.append(_advect_face_component(raw[axis], axis, raw, exts[axis], grid))
        else:
            out.append(np.zeros_like(raw[axis]))
    return StaggeredVelocity(*out)
