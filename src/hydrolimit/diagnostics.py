"""Certificates extracted from solver runs.

All checks the analysis provides are computed here as runnable numbers: the
energy-inequality ledger, a-priori norm tables (uniform-in-eps boundedness),
the time-translation modulus in a computable dual-norm surrogate, residuals
of the weak-form identities against analytic test functions, and the
space-time distances between anisotropic runs and the hydrostatic reference
with their fitted eps-rates.

Space quadrature is midpoint (cell centres, face fields averaged to centres
where needed); time quadrature is trapezoidal at snapshot resolution.  A
history carries its run's sampled ``Source``, so no diagnostic resamples it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BoundaryForcing,
    DiffusionTensor,
    Grid,
    PhysParams,
    coriolis_at,
)
from .operators import (
    StaggeredVelocity,
    apply_concentration_bcs,
    diffuse_concentration,
    extend_velocity,
    solve_separable,
    theta_faces,
)
from .sources import Source

__all__ = [
    "RunHistory",
    "EnergyReport",
    "energy_balance",
    "velocity_dissipation",
    "boundary_pairing",
    "concentration_dissipation",
    "diffusion_quadratic_form",
    "apriori_norms",
    "APRIORI_NORM_NAMES",
    "TranslationReport",
    "translation_modulus",
    "StreamTestVelocity",
    "VerticalTestVelocity",
    "ScalarTestFunction",
    "default_test_family",
    "WeakResidualRecord",
    "weak_residual",
    "ConvergenceRow",
    "ConvergenceReport",
    "spacetime_errors",
    "convergence_report",
]


@dataclass
class RunHistory:
    """Uniformly spaced snapshots of one run plus everything diagnostics need,
    including the source as the run sampled it."""

    mode: str  # "aniso" | "hydro"
    grid: Grid
    params: PhysParams
    M: DiffusionTensor
    theta: BoundaryForcing | None
    source: Source | None
    dt: float
    states: list

    def __post_init__(self):
        if self.mode not in ("aniso", "hydro"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not self.states:
            raise ValueError("empty history")

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    @property
    def T(self) -> float:
        return float(self.states[-1].t)


def _l2sq(f: np.ndarray, dV: float) -> float:
    return float(np.sum(f * f) * dV)


def _trapz_cumsum(values: np.ndarray, dt: float) -> np.ndarray:
    out = np.zeros_like(values)
    if len(values) > 1:
        out[1:] = np.cumsum(0.5 * dt * (values[:-1] + values[1:]))
    return out


# --------------------------------------------------------------------------
# Discrete dissipation quadratics
# --------------------------------------------------------------------------


def _grad_sq_axis(f: np.ndarray, axis: int, h: float, wall_lo: str | None, wall_hi: str | None) -> float:
    """Sum of squared face differences along one axis.

    Consecutive stored values contribute (df/h)^2 with full weight; a
    "dirichlet" wall adds the ghost-reflection difference (2 f_adj / h)^2 with
    weight 1/2 (the half-cell the wall face owns).  ``None`` walls (stored
    boundary values, or the homogeneous Neumann ground) add nothing.  These
    conventions make  -<f, Lap_nu f> dV  an exact identity against
    ``anisotropic_laplacian`` with the matching ghosts.
    """
    d = np.diff(f, axis=axis) / h
    s = float(np.sum(d * d))
    if wall_lo == "dirichlet":
        first = np.take(f, 0, axis=axis)
        s += 0.5 * float(np.sum((2.0 * first / h) ** 2))
    if wall_hi == "dirichlet":
        last = np.take(f, -1, axis=axis)
        s += 0.5 * float(np.sum((2.0 * last / h) ** 2))
    return s


def velocity_dissipation(u: StaggeredVelocity, nu, grid: Grid) -> tuple:
    """(|grad_nu u_H|^2, |grad_nu u3|^2) in the scheme-exact discretisation.

    Uses the homogeneous (theta = 0) ground convention; the traction's
    boundary work is accounted separately by ``boundary_pairing``.
    """
    dx, dy, dz = grid.spacing
    dV = grid.cell_volume
    d1 = (
        nu[0] * _grad_sq_axis(u.u1, 0, dx, None, None)
        + nu[1] * _grad_sq_axis(u.u1, 1, dy, "dirichlet", "dirichlet")
        + nu[2] * _grad_sq_axis(u.u1, 2, dz, None, "dirichlet")
    )
    d2 = (
        nu[0] * _grad_sq_axis(u.u2, 0, dx, "dirichlet", "dirichlet")
        + nu[1] * _grad_sq_axis(u.u2, 1, dy, None, None)
        + nu[2] * _grad_sq_axis(u.u2, 2, dz, None, "dirichlet")
    )
    d3 = (
        nu[0] * _grad_sq_axis(u.u3, 0, dx, "dirichlet", "dirichlet")
        + nu[1] * _grad_sq_axis(u.u3, 1, dy, "dirichlet", "dirichlet")
        + nu[2] * _grad_sq_axis(u.u3, 2, dz, None, None)
    )
    return (d1 + d2) * dV, d3 * dV


def boundary_pairing(u: StaggeredVelocity, theta: BoundaryForcing | None, grid: Grid) -> float:
    """Discrete <theta_H, u_H> over the ground: traction interpolated to the
    horizontal faces, paired with the first interior horizontal velocities."""
    if theta is None:
        return 0.0
    t1f, t2f = theta_faces(theta, grid)
    da = grid.dx * grid.dy
    return float(np.sum(t1f * u.u1[:, :, 0]) * da + np.sum(t2f * u.u2[:, :, 0]) * da)


def concentration_dissipation(C: np.ndarray, M: DiffusionTensor, grid: Grid) -> float:
    """Scheme-exact diffusion quadratic form -<C, div(M grad C)> dV."""
    return -float(np.sum(C * diffuse_concentration(C, M, grid)) * grid.cell_volume)


def diffusion_quadratic_form(C: np.ndarray, M: DiffusionTensor, grid: Grid) -> tuple:
    """Cell-centred ((M grad C, grad C), |grad C|^2) pair.

    Both sides use the same central-difference gradient (with the model's BC
    ghosts), so the coercivity bound (M g, g) >= lambda |g|^2 holds cellwise
    for any SPD tensor, up to roundoff.
    """
    Ce = apply_concentration_bcs(C, M, grid)
    dx, dy, dz = grid.spacing
    g1 = (Ce[2:, 1:-1, 1:-1] - Ce[:-2, 1:-1, 1:-1]) / (2.0 * dx)
    g2 = (Ce[1:-1, 2:, 1:-1] - Ce[1:-1, :-2, 1:-1]) / (2.0 * dy)
    g3 = (Ce[1:-1, 1:-1, 2:] - Ce[1:-1, 1:-1, :-2]) / (2.0 * dz)
    qm = (
        M.entry(0, 0) * g1 * g1
        + M.entry(1, 1) * g2 * g2
        + M.entry(2, 2) * g3 * g3
        + 2.0 * (M.entry(0, 1) * g1 * g2 + M.entry(0, 2) * g1 * g3 + M.entry(1, 2) * g2 * g3)
    )
    qg = g1 * g1 + g2 * g2 + g3 * g3
    dV = grid.cell_volume
    return float(np.sum(qm) * dV), float(np.sum(qg) * dV)


# --------------------------------------------------------------------------
# Energy ledger
# --------------------------------------------------------------------------


@dataclass
class EnergyReport:
    """Per-snapshot energy-inequality ledger.

    slack(t) = E(0) + W(t) + Q(t) - E(t) - D(t) is the discrete analogue of
    the energy inequality; the scheme direction makes it nonnegative for
    traction-free, source-free upwind runs (up to roundoff).
    """

    t: np.ndarray
    E: np.ndarray
    D: np.ndarray
    W: np.ndarray
    Q: np.ndarray
    slack: np.ndarray

    def rows(self):
        return list(zip(self.t, self.E, self.D, self.W, self.Q, self.slack))


def energy_balance(history: RunHistory) -> EnergyReport:
    """Energy ledger of a run.

    E = (|u_H|^2 + eps^2 |u3|^2 + |C|^2)/2 for the anisotropic mode; the
    hydrostatic mode drops the u3 terms from both E and the dissipation.
    Dissipation uses the scheme-exact quadratics, boundary work enters in
    absolute value, source work pairs S(t) with C(t); time integrals are
    trapezoidal at snapshot spacing.
    """
    grid = history.grid
    params = history.params
    eps = params.eps
    aniso = history.mode == "aniso"
    dV = grid.cell_volume

    n = len(history.states)
    E = np.zeros(n)
    diss = np.zeros(n)
    work = np.zeros(n)
    src = np.zeros(n)
    for m, s in enumerate(history.states):
        e = 0.5 * (_l2sq(s.u.u1, dV) + _l2sq(s.u.u2, dV) + _l2sq(s.C, dV))
        if aniso:
            e += 0.5 * eps**2 * _l2sq(s.u.u3, dV)
        E[m] = e
        dH, d3 = velocity_dissipation(s.u, params.nu, grid)
        d = dH + concentration_dissipation(s.C, history.M, grid)
        if aniso:
            d += eps**2 * d3
        diss[m] = d
        work[m] = abs(boundary_pairing(s.u, history.theta, grid))
        if history.source is not None:
            src[m] = float(np.sum(history.source.at(s.t) * s.C) * dV)

    D = _trapz_cumsum(diss, history.dt)
    W = _trapz_cumsum(work, history.dt)
    Q = _trapz_cumsum(src, history.dt)
    slack = E[0] + W + Q - E - D
    return EnergyReport(
        t=history.times,
        E=E,
        D=D,
        W=W,
        Q=Q,
        slack=slack,
    )


# --------------------------------------------------------------------------
# A-priori norms
# --------------------------------------------------------------------------

APRIORI_NORM_NAMES = (
    "sup_L2_u1",
    "sup_L2_u2",
    "sup_L2_eps_u3",
    "sup_L2_C",
    "L2H1_u1",
    "L2H1_u2",
    "L2H1_eps_u3",
    "L2H1_C",
    "L2L2_u3",
)


def _h1_sq(f: np.ndarray, grid: Grid) -> float:
    """Plain discrete H^1 seminorm-plus-L2: interior differences only."""
    dV = grid.cell_volume
    s = _l2sq(f, dV)
    for axis, h in enumerate(grid.spacing):
        d = np.diff(f, axis=axis) / h
        s += float(np.sum(d * d) * dV)
    return s


def apriori_norms(history: RunHistory) -> dict:
    """Norm table mirroring the uniform-in-eps a-priori bounds.

    sup-in-time L2 of u1, u2, eps*u3, C; L2-in-time H1 of the same; and
    L2-in-time L2 of u3 itself.  Cross-eps tabulation of these values is the
    checkable boundedness claim.
    """
    grid = history.grid
    eps = history.params.eps
    dV = grid.cell_volume
    dt = history.dt

    l2 = {k: [] for k in ("u1", "u2", "u3", "C")}
    h1 = {k: [] for k in ("u1", "u2", "u3", "C")}
    for s in history.states:
        fields = {"u1": s.u.u1, "u2": s.u.u2, "u3": s.u.u3, "C": s.C}
        for k, f in fields.items():
            l2[k].append(_l2sq(f, dV))
            h1[k].append(_h1_sq(f, grid))
    l2 = {k: np.array(v) for k, v in l2.items()}
    h1 = {k: np.array(v) for k, v in h1.items()}

    def sup(v):
        return float(np.sqrt(np.max(v)))

    def l2t(v):
        return float(np.sqrt(np.trapezoid(v, dx=dt))) if len(v) > 1 else 0.0

    return {
        "sup_L2_u1": sup(l2["u1"]),
        "sup_L2_u2": sup(l2["u2"]),
        "sup_L2_eps_u3": eps * sup(l2["u3"]),
        "sup_L2_C": sup(l2["C"]),
        "L2H1_u1": l2t(h1["u1"]),
        "L2H1_u2": l2t(h1["u2"]),
        "L2H1_eps_u3": eps * l2t(h1["u3"]),
        "L2H1_C": l2t(h1["C"]),
        "L2L2_u3": l2t(l2["u3"]),
    }


# --------------------------------------------------------------------------
# Translation modulus (time equicontinuity surrogate)
# --------------------------------------------------------------------------


@dataclass
class TranslationReport:
    h: np.ndarray
    modulus: np.ndarray
    exponent: float


def translation_modulus(C_history: list, dt: float, grid: Grid, h_list) -> TranslationReport:
    """Time-translation modulus of the concentration in an H^2-dual surrogate.

    For each shift h: solve (I - Lap_h) N = C(t+h) - C(t), with Dirichlet
    (reflection) walls on Gamma_A and a homogeneous Neumann ground, take the
    L^2 norm of N, then the L^2(0, T-h) norm in time; fit log(modulus)
    against log(h).  The smoothing solve is the standard computable proxy for
    the negative norm, so the fitted exponent is a soft certificate.
    """
    if len(h_list) < 3:
        raise ValueError("need at least 3 shift values h")
    n = len(C_history)
    T = (n - 1) * dt
    dV = grid.cell_volume
    walls = ("dirichlet", "dirichlet")
    axes = (
        (1.0 / grid.dx**2, *walls),
        (1.0 / grid.dy**2, *walls),
        (1.0 / grid.dz**2, "neumann", "dirichlet"),
    )

    hs = []
    moduli = []
    for h in h_list:
        s = int(round(h / dt))
        if s < 1 or abs(s * dt - h) > 1e-9 * max(dt, h):
            raise ValueError(f"shift {h} is not a positive multiple of the spacing {dt}")
        if h >= T / 2:
            raise ValueError(f"shift {h} must be below T/2 = {T / 2}")
        vals = np.empty(n - s)
        for m in range(n - s):
            d = C_history[m + s] - C_history[m]
            nn = solve_separable(d, axes, shift=1.0)
            vals[m] = np.sum(nn * nn) * dV
        modulus = math.sqrt(float(np.trapezoid(vals, dx=dt))) if len(vals) > 1 else math.sqrt(vals[0] * dt)
        hs.append(h)
        moduli.append(modulus)

    hs = np.array(hs)
    moduli = np.array(moduli)
    if np.all(moduli > 0):
        exponent = float(np.polyfit(np.log(hs), np.log(moduli), 1)[0])
    else:
        exponent = float("nan")
    return TranslationReport(h=hs, modulus=moduli, exponent=exponent)


# --------------------------------------------------------------------------
# Weak-formulation residuals
# --------------------------------------------------------------------------


def _envelope(t: float, t_cut: float) -> float:
    if t >= t_cut:
        return 0.0
    return (1.0 - t / t_cut) ** 2


def _envelope_dt(t: float, t_cut: float) -> float:
    if t >= t_cut:
        return 0.0
    return -2.0 * (1.0 - t / t_cut) / t_cut


@dataclass(frozen=True)
class StreamTestVelocity:
    """Divergence-free test velocity from a horizontal streamfunction.

    u~_H = (d2 psi, -d1 psi) * phi(x3) * eta(t) with psi built from squared
    sines (zero with zero gradient on the lateral walls) and
    phi = cos^2(pi x3 / 2h) (zero at the top, active at the ground so the
    traction term is exercised); u~_3 = 0, so the field is solenoidal
    pointwise and lies in both test spaces.
    """

    t_cut: float
    kx: int = 1
    ky: int = 1
    amp: float = 1.0

    def _pieces(self, grid: Grid):
        a = self.kx * math.pi / grid.lx
        b = self.ky * math.pi / grid.ly
        q = math.pi / (2.0 * grid.h)
        X1, X2, X3 = grid.centers()
        A = np.sin(a * X1) ** 2
        dA = a * np.sin(2.0 * a * X1)
        d2A = 2.0 * a**2 * np.cos(2.0 * a * X1)
        B = np.sin(b * X2) ** 2
        dB = b * np.sin(2.0 * b * X2)
        d2B = 2.0 * b**2 * np.cos(2.0 * b * X2)
        phi = np.cos(q * X3) ** 2
        dphi = -q * np.sin(2.0 * q * X3)
        return A, dA, d2A, B, dB, d2B, phi, dphi

    def uH(self, grid: Grid, t: float):
        A, dA, _, B, dB, _, phi, _ = self._pieces(grid)
        e = self.amp * _envelope(t, self.t_cut)
        return e * A * dB * phi, -e * dA * B * phi

    def dt_uH(self, grid: Grid, t: float):
        A, dA, _, B, dB, _, phi, _ = self._pieces(grid)
        de = self.amp * _envelope_dt(t, self.t_cut)
        return de * A * dB * phi, -de * dA * B * phi

    def u3(self, grid: Grid, t: float):
        return np.zeros((1, 1, 1))

    def dt_u3(self, grid: Grid, t: float):
        return np.zeros((1, 1, 1))

    def grad_uH(self, grid: Grid, t: float):
        A, dA, d2A, B, dB, d2B, phi, dphi = self._pieces(grid)
        e = self.amp * _envelope(t, self.t_cut)
        g1 = (e * dA * dB * phi, e * A * d2B * phi, e * A * dB * dphi)
        g2 = (-e * d2A * B * phi, -e * dA * dB * phi, -e * dA * B * dphi)
        return g1, g2

    def grad_u3(self, grid: Grid, t: float):
        z = np.zeros((1, 1, 1))
        return (z, z, z)

    def ground_uH(self, grid: Grid, t: float):
        a = self.kx * math.pi / grid.lx
        b = self.ky * math.pi / grid.ly
        x1 = grid.x1c[:, None]
        x2 = grid.x2c[None, :]
        e = self.amp * _envelope(t, self.t_cut)  # phi(0) = 1
        return (
            e * np.sin(a * x1) ** 2 * b * np.sin(2.0 * b * x2),
            -e * a * np.sin(2.0 * a * x1) * np.sin(b * x2) ** 2,
        )

    def max_divergence(self, grid: Grid, t: float) -> float:
        (g11, _, _), (_, g22, _) = self.grad_uH(grid, t)
        return float(np.max(np.abs(g11 + g22)))


@dataclass(frozen=True)
class VerticalTestVelocity:
    """Test velocity with active vertical component, u~ = curl(chi, 0, 0).

    chi = g(x1) s(x2) q(x3) with squared-sine factors gives
    u~ = (0, g s q', -g s' q): solenoidal pointwise, u~_2 zero on Gamma_A
    (q'(h) = 0), u~_3 zero on the whole boundary.  Exercises the eps- and
    eps^2-weighted vertical terms of the anisotropic identity.
    """

    t_cut: float
    kx: int = 1
    ky: int = 1
    amp: float = 1.0

    def _pieces(self, grid: Grid):
        a = self.kx * math.pi / grid.lx
        b = self.ky * math.pi / grid.ly
        c = math.pi / grid.h
        X1, X2, X3 = grid.centers()
        g = np.sin(a * X1) ** 2
        dg = a * np.sin(2.0 * a * X1)
        s = np.sin(b * X2) ** 2
        ds = b * np.sin(2.0 * b * X2)
        d2s = 2.0 * b**2 * np.cos(2.0 * b * X2)
        q = np.sin(c * X3) ** 2
        dq = c * np.sin(2.0 * c * X3)
        d2q = 2.0 * c**2 * np.cos(2.0 * c * X3)
        return g, dg, s, ds, d2s, q, dq, d2q

    def uH(self, grid: Grid, t: float):
        g, _, s, _, _, _, dq, _ = self._pieces(grid)
        e = self.amp * _envelope(t, self.t_cut)
        return np.zeros((1, 1, 1)), e * g * s * dq

    def dt_uH(self, grid: Grid, t: float):
        g, _, s, _, _, _, dq, _ = self._pieces(grid)
        de = self.amp * _envelope_dt(t, self.t_cut)
        return np.zeros((1, 1, 1)), de * g * s * dq

    def u3(self, grid: Grid, t: float):
        g, _, _, ds, _, q, _, _ = self._pieces(grid)
        e = self.amp * _envelope(t, self.t_cut)
        return -e * g * ds * q

    def dt_u3(self, grid: Grid, t: float):
        g, _, _, ds, _, q, _, _ = self._pieces(grid)
        de = self.amp * _envelope_dt(t, self.t_cut)
        return -de * g * ds * q

    def grad_uH(self, grid: Grid, t: float):
        g, dg, s, ds, _, _, dq, d2q = self._pieces(grid)
        e = self.amp * _envelope(t, self.t_cut)
        z = np.zeros((1, 1, 1))
        g1 = (z, z, z)
        g2 = (e * dg * s * dq, e * g * ds * dq, e * g * s * d2q)
        return g1, g2

    def grad_u3(self, grid: Grid, t: float):
        g, dg, _, ds, d2s, q, dq, _ = self._pieces(grid)
        e = self.amp * _envelope(t, self.t_cut)
        return (-e * dg * ds * q, -e * g * d2s * q, -e * g * ds * dq)

    def ground_uH(self, grid: Grid, t: float):
        # q'(0) = 0: both horizontal components vanish at the ground.
        z = np.zeros((grid.nx, grid.ny))
        return z, z

    def max_divergence(self, grid: Grid, t: float) -> float:
        _, (_, g22, _) = self.grad_uH(grid, t)
        g3 = self.grad_u3(grid, t)[2]
        return float(np.max(np.abs(g22 + g3)))


@dataclass(frozen=True)
class ScalarTestFunction:
    """Scalar test function, zero on Gamma_A, active at the ground."""

    t_cut: float
    kx: int = 1
    ky: int = 1
    amp: float = 1.0

    def _pieces(self, grid: Grid):
        a = self.kx * math.pi / grid.lx
        b = self.ky * math.pi / grid.ly
        q = math.pi / (2.0 * grid.h)
        X1, X2, X3 = grid.centers()
        return a, b, q, np.sin(a * X1), np.sin(b * X2), np.cos(q * X3)

    def value(self, grid: Grid, t: float):
        _, _, _, sx, sy, cz = self._pieces(grid)
        return self.amp * _envelope(t, self.t_cut) * sx * sy * cz

    def dt_value(self, grid: Grid, t: float):
        _, _, _, sx, sy, cz = self._pieces(grid)
        return self.amp * _envelope_dt(t, self.t_cut) * sx * sy * cz

    def grad(self, grid: Grid, t: float):
        a, b, q, sx, sy, cz = self._pieces(grid)
        X1, X2, X3 = grid.centers()
        e = self.amp * _envelope(t, self.t_cut)
        return (
            e * a * np.cos(a * X1) * sy * cz,
            e * b * sx * np.cos(b * X2) * cz,
            -e * q * sx * sy * np.sin(q * X3),
        )

    def value_at(self, point, grid: Grid, t: float) -> float:
        a = self.kx * math.pi / grid.lx
        b = self.ky * math.pi / grid.ly
        q = math.pi / (2.0 * grid.h)
        return (
            self.amp
            * _envelope(t, self.t_cut)
            * math.sin(a * point[0])
            * math.sin(b * point[1])
            * math.cos(q * point[2])
        )


def default_test_family(T: float, dt_snap: float) -> tuple:
    """Small analytic test family; envelopes vanish for t >= T - dt_snap."""
    tc = T - dt_snap
    velocity = [
        StreamTestVelocity(t_cut=tc, kx=1, ky=1),
        StreamTestVelocity(t_cut=tc, kx=2, ky=1, amp=0.5),
        VerticalTestVelocity(t_cut=tc, kx=1, ky=1),
    ]
    scalar = [
        ScalarTestFunction(t_cut=tc, kx=1, ky=1),
        ScalarTestFunction(t_cut=tc, kx=2, ky=2, amp=0.5),
    ]
    return velocity, scalar


@dataclass
class WeakResidualRecord:
    kind: str
    label: str
    lhs: dict
    rhs: dict
    residual: float


def _solution_center_gradients(u: StaggeredVelocity, history: RunHistory):
    """Gradients of the solution components interpolated to cell centres."""
    grid = history.grid
    dx, dy, dz = grid.spacing
    ext = extend_velocity(u, history.theta, history.params.nu3, grid, history.mode)

    def avg(a, axis):
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        return 0.5 * (a[tuple(lo)] + a[tuple(hi)])

    e1 = ext.u1e
    g11 = (u.u1[1:] - u.u1[:-1]) / dx
    g12 = avg((e1[1:-1, 2:, 1:-1] - e1[1:-1, :-2, 1:-1]) / (2 * dy), 0)
    g13 = avg((e1[1:-1, 1:-1, 2:] - e1[1:-1, 1:-1, :-2]) / (2 * dz), 0)
    e2 = ext.u2e
    g21 = avg((e2[2:, 1:-1, 1:-1] - e2[:-2, 1:-1, 1:-1]) / (2 * dx), 1)
    g22 = (u.u2[:, 1:] - u.u2[:, :-1]) / dy
    g23 = avg((e2[1:-1, 1:-1, 2:] - e2[1:-1, 1:-1, :-2]) / (2 * dz), 1)
    # The hydrostatic u3 has no lateral condition: edge copies are its ghosts.
    e3 = ext.u3e if history.mode == "aniso" else np.pad(u.u3, 1, mode="edge")
    g31 = avg((e3[2:, 1:-1, 1:-1] - e3[:-2, 1:-1, 1:-1]) / (2 * dx), 2)
    g32 = avg((e3[1:-1, 2:, 1:-1] - e3[1:-1, :-2, 1:-1]) / (2 * dy), 2)
    g33 = (u.u3[:, :, 1:] - u.u3[:, :, :-1]) / dz
    return (g11, g12, g13), (g21, g22, g23), (g31, g32, g33)


def _concentration_center_gradient(C: np.ndarray, M, grid: Grid):
    Ce = apply_concentration_bcs(C, M, grid)
    dx, dy, dz = grid.spacing
    return (
        (Ce[2:, 1:-1, 1:-1] - Ce[:-2, 1:-1, 1:-1]) / (2 * dx),
        (Ce[1:-1, 2:, 1:-1] - Ce[1:-1, :-2, 1:-1]) / (2 * dy),
        (Ce[1:-1, 1:-1, 2:] - Ce[1:-1, 1:-1, :-2]) / (2 * dz),
    )


def weak_residual(
    history: RunHistory,
    velocity_tests=None,
    scalar_tests=None,
    forcing=None,
) -> list:
    """Residuals of the weak-form identities against analytic test functions.

    Every term of the velocity and concentration identities (including the
    traction boundary term and initial-data terms) is evaluated by midpoint
    quadrature in space and trapezoid in time; the returned records carry the
    per-term values and |LHS - RHS|.  ``forcing``: optional callable
    t -> dict with keys "f1","f2","f3","fC" of centre-evaluated extra
    forcings, added to the right-hand sides (manufactured solutions).

    Test functions must satisfy their constraints (vanish at the final time,
    solenoidal velocity); both are checked numerically.
    """
    grid = history.grid
    params = history.params
    eps = params.eps
    aniso = history.mode == "aniso"
    dV = grid.cell_volume
    dA = grid.dx * grid.dy
    nu = params.nu

    if velocity_tests is None or scalar_tests is None:
        vel_def, sca_def = default_test_family(history.T, history.dt)
        velocity_tests = vel_def if velocity_tests is None else velocity_tests
        scalar_tests = sca_def if scalar_tests is None else scalar_tests

    states = history.states
    times = [s.t for s in states]
    T_end = times[-1]

    alpha_c, beta_c = coriolis_at(params, grid.x2c)
    alpha_3d = alpha_c[None, :, None]
    beta_3d = beta_c[None, :, None]
    t1c = history.theta.theta1 if history.theta is not None else None
    t2c = history.theta.theta2 if history.theta is not None else None

    def tw(m):
        return history.dt * (0.5 if m in (0, len(states) - 1) else 1.0)

    records = []

    for iv, v in enumerate(velocity_tests):
        dv = v.max_divergence(grid, 0.0)
        if dv > 1e-10 * max(1.0, abs(v.amp)):
            raise ValueError(f"velocity test {iv} is not divergence-free: max div {dv:.3e}")
        vT1, vT2 = v.uH(grid, T_end)
        if max(float(np.max(np.abs(vT1))), float(np.max(np.abs(vT2)))) > 1e-12:
            raise ValueError(f"velocity test {iv} does not vanish at the final time")

        lhs = {"time": 0.0, "viscous": 0.0, "advection": 0.0, "coriolis": 0.0}
        if aniso:
            lhs.update({"beta": 0.0, "w_time": 0.0, "w_advection": 0.0, "w_viscous": 0.0})
        rhs = {"initial": 0.0, "traction": 0.0}
        if forcing is not None:
            rhs["forcing"] = 0.0

        for m, s in enumerate(states):
            w = tw(m)
            u1c, u2c, u3c = s.u.center_components()
            te1, te2 = v.uH(grid, s.t)
            dte1, dte2 = v.dt_uH(grid, s.t)
            (tg1, tg2) = v.grad_uH(grid, s.t)

            lhs["time"] += -w * float(np.sum(u1c * dte1 + u2c * dte2) * dV)

            g1, g2, g3 = _solution_center_gradients(s.u, history)
            lhs["viscous"] += w * float(
                np.sum(
                    nu[0] * (g1[0] * tg1[0] + g2[0] * tg2[0])
                    + nu[1] * (g1[1] * tg1[1] + g2[1] * tg2[1])
                    + nu[2] * (g1[2] * tg1[2] + g2[2] * tg2[2])
                )
                * dV
            )

            adv1 = u1c * tg1[0] + u2c * tg1[1] + u3c * tg1[2]
            adv2 = u1c * tg2[0] + u2c * tg2[1] + u3c * tg2[2]
            lhs["advection"] += -w * float(np.sum(u1c * adv1 + u2c * adv2) * dV)

            lhs["coriolis"] += w * float(
                np.sum(alpha_3d * (-u2c * te1 + u1c * te2)) * dV
            )

            if aniso:
                te3 = v.u3(grid, s.t)
                dte3 = v.dt_u3(grid, s.t)
                tg3 = v.grad_u3(grid, s.t)
                lhs["beta"] += w * eps * float(
                    np.sum(beta_3d * (u3c * te1 - u1c * te3)) * dV
                )
                lhs["w_time"] += -w * eps**2 * float(np.sum(u3c * dte3) * dV)
                adv3 = u1c * g3[0] + u2c * g3[1] + u3c * g3[2]
                lhs["w_advection"] += w * eps**2 * float(np.sum(adv3 * te3) * dV)
                lhs["w_viscous"] += w * eps**2 * float(
                    np.sum(nu[0] * g3[0] * tg3[0] + nu[1] * g3[1] * tg3[1] + nu[2] * g3[2] * tg3[2])
                    * dV
                )

            if t1c is not None:
                tr1, tr2 = v.ground_uH(grid, s.t)
                rhs["traction"] += -w * float(np.sum(t1c * tr1 + t2c * tr2) * dA)

            if forcing is not None:
                f = forcing(s.t, grid)
                val = float(np.sum(f["f1"] * te1 + f["f2"] * te2) * dV)
                if aniso:
                    val += eps**2 * float(np.sum(f["f3"] * v.u3(grid, s.t)) * dV)
                rhs["forcing"] += w * val

        u0 = states[0].u
        u01c, u02c, u03c = u0.center_components()
        te1, te2 = v.uH(grid, times[0])
        rhs["initial"] = float(np.sum(u01c * te1 + u02c * te2) * dV)
        if aniso:
            rhs["initial"] += eps**2 * float(np.sum(u03c * v.u3(grid, times[0])) * dV)

        residual = abs(sum(lhs.values()) - sum(rhs.values()))
        records.append(
            WeakResidualRecord("velocity", f"velocity[{iv}]", lhs, rhs, residual)
        )

    for ic, c in enumerate(scalar_tests):
        vT = c.value(grid, T_end)
        if float(np.max(np.abs(vT))) > 1e-12:
            raise ValueError(f"scalar test {ic} does not vanish at the final time")

        lhs = {"time": 0.0, "advection": 0.0, "diffusion": 0.0}
        rhs = {"initial": 0.0, "source": 0.0}
        if forcing is not None:
            rhs["forcing"] = 0.0

        for m, s in enumerate(states):
            w = tw(m)
            u1c, u2c, u3c = s.u.center_components()
            tv = c.value(grid, s.t)
            dtv = c.dt_value(grid, s.t)
            tg = c.grad(grid, s.t)

            lhs["time"] += -w * float(np.sum(s.C * dtv) * dV)
            lhs["advection"] += -w * float(
                np.sum(s.C * (u1c * tg[0] + u2c * tg[1] + u3c * tg[2])) * dV
            )

            cg = _concentration_center_gradient(s.C, history.M, grid)
            M = history.M
            mg1 = M.entry(0, 0) * cg[0] + M.entry(0, 1) * cg[1] + M.entry(0, 2) * cg[2]
            mg2 = M.entry(0, 1) * cg[0] + M.entry(1, 1) * cg[1] + M.entry(1, 2) * cg[2]
            mg3 = M.entry(0, 2) * cg[0] + M.entry(1, 2) * cg[1] + M.entry(2, 2) * cg[2]
            lhs["diffusion"] += w * float(np.sum(mg1 * tg[0] + mg2 * tg[1] + mg3 * tg[2]) * dV)

            if history.source is not None:
                src = history.source.spec
                if src.kind == "delta_deposit":
                    if s.t >= src.t_s:
                        rhs["source"] += w * src.intensity * c.value_at(src.x_s, grid, s.t)
                else:
                    rhs["source"] += w * float(np.sum(history.source.at(s.t) * tv) * dV)

            if forcing is not None:
                rhs["forcing"] += w * float(np.sum(forcing(s.t, grid)["fC"] * tv) * dV)

        rhs["initial"] = float(np.sum(states[0].C * c.value(grid, times[0])) * dV)
        residual = abs(sum(lhs.values()) - sum(rhs.values()))
        records.append(
            WeakResidualRecord("concentration", f"concentration[{ic}]", lhs, rhs, residual)
        )

    return records


# --------------------------------------------------------------------------
# eps-convergence
# --------------------------------------------------------------------------


@dataclass
class ConvergenceRow:
    eps: float
    err_uH: float
    err_u3: float
    err_C: float


@dataclass
class ConvergenceReport:
    rows: list
    rate_uH: float
    rate_u3: float
    rate_C: float


def spacetime_errors(run: RunHistory, ref: RunHistory) -> tuple:
    """L^2((0,T) x Omega) distances (u_H, u3, C) between two runs.

    Both runs must share the grid and the snapshot schedule.
    """
    if len(run.states) != len(ref.states) or abs(run.dt - ref.dt) > 1e-12 * max(run.dt, 1.0):
        raise ValueError("histories have mismatched snapshot schedules")
    if run.grid.spec != ref.grid.spec:
        raise ValueError("histories live on different grids")
    dV = run.grid.cell_volume
    n = len(run.states)
    eh = np.empty(n)
    e3 = np.empty(n)
    ec = np.empty(n)
    for m, (a, b) in enumerate(zip(run.states, ref.states)):
        eh[m] = _l2sq(a.u.u1 - b.u.u1, dV) + _l2sq(a.u.u2 - b.u.u2, dV)
        e3[m] = _l2sq(a.u.u3 - b.u.u3, dV)
        ec[m] = _l2sq(a.C - b.C, dV)
    dt = run.dt

    def tint(v):
        return float(np.sqrt(np.trapezoid(v, dx=dt))) if n > 1 else float(np.sqrt(v[0] * dt))

    return tint(eh), tint(e3), tint(ec)


def convergence_report(rows) -> ConvergenceReport:
    """Rows sorted by decreasing eps plus their log-log fitted rates.

    Raises on a non-finite error; the rates are reported, not asserted (the
    limit statement comes with no rate).
    """
    rows = sorted(rows, key=lambda r: -r.eps)
    for r in rows:
        if not all(map(math.isfinite, (r.err_uH, r.err_u3, r.err_C))):
            raise ValueError(f"non-finite error at eps={r.eps}")

    def fit(vals):
        eps = np.array([r.eps for r in rows])
        vals = np.asarray(vals)
        if len(rows) >= 2 and np.all(vals > 0):
            return float(np.polyfit(np.log(eps), np.log(vals), 1)[0])
        return float("nan")

    return ConvergenceReport(
        rows=rows,
        rate_uH=fit([r.err_uH for r in rows]),
        rate_u3=fit([r.err_u3 for r in rows]),
        rate_C=fit([r.err_C for r in rows]),
    )

