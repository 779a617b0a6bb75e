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
from typing import NamedTuple

import numpy as np

from .core import (
    BoundaryForcing,
    DiffusionTensor,
    Grid,
    PhysParams,
    coriolis_at,
)
from .operators import (
    BOUNDARY_CONDITIONS,
    StaggeredVelocity,
    apply_concentration_bcs,
    centre_average,
    centred_difference,
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
    "max_divergence",
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
        if len(self.states) < 2:
            raise ValueError(f"a history needs at least two states, got {len(self.states)}")

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
    out[1:] = np.cumsum(0.5 * dt * (values[:-1] + values[1:]))
    return out


def _l2_in_time(values, dt: float) -> float:
    """sqrt of the trapezoid integral of squared norms sampled every dt."""
    return float(np.sqrt(np.trapezoid(values, dx=dt)))


# --------------------------------------------------------------------------
# Discrete dissipation quadratics
# --------------------------------------------------------------------------


def _grad_sq_axis(f: np.ndarray, axis: int, h: float, wall_lo: str, wall_hi: str) -> float:
    """Sum of squared face differences along one axis.

    Consecutive stored values contribute (df/h)^2 with full weight; a
    "dirichlet" end adds the ghost-reflection difference (2 f_adj / h)^2 with
    weight 1/2 (the half-cell the wall face owns).  Every other end (stored
    boundary faces, the homogeneous Neumann ground) adds nothing.  These
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
    """(|grad_nu u_H|^2, |grad_nu u3|^2) in the scheme-exact discretisation,
    with the wall terms of ``BOUNDARY_CONDITIONS``.

    Uses the homogeneous (theta = 0) ground convention; the traction's
    boundary work is accounted separately by ``boundary_pairing``.
    """
    d1, d2, d3 = (
        sum(
            n * _grad_sq_axis(f, axis, h, *ends)
            for axis, (n, h, ends) in enumerate(zip(nu, grid.spacing, BOUNDARY_CONDITIONS[name]))
        )
        for name, f in zip(("u1", "u2", "u3"), u.components())
    )
    dV = grid.cell_volume
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


def _concentration_center_gradient(C: np.ndarray, M: DiffusionTensor, grid: Grid):
    """Central-difference grad C at cell centres, with the model's BC ghosts."""
    Ce = apply_concentration_bcs(C, M, grid)
    return tuple(centred_difference(Ce, d, h) for d, h in enumerate(grid.spacing))


def diffusion_quadratic_form(C: np.ndarray, M: DiffusionTensor, grid: Grid) -> tuple:
    """Cell-centred ((M grad C, grad C), |grad C|^2) pair.

    Both sides use the same central-difference gradient (with the model's BC
    ghosts), so the coercivity bound (M g, g) >= lambda |g|^2 holds cellwise
    for any SPD tensor, up to roundoff.
    """
    g1, g2, g3 = _concentration_center_gradient(C, M, grid)
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
        return _l2_in_time(v, dt)

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

    For each shift h: solve (I - Lap_h) N = C(t+h) - C(t) with C's ends in
    ``BOUNDARY_CONDITIONS`` (Dirichlet on Gamma_A, Neumann on the ground),
    take the L^2 norm of N, then the L^2(0, T-h) norm in time; fit
    log(modulus) against log(h).  The solve is linear, so each snapshot is solved once
    and N is the difference of two solutions.  The smoothing solve is the
    standard computable proxy for the negative norm, so the fitted exponent
    is a soft certificate.
    """
    if len(h_list) < 3:
        raise ValueError("need at least 3 shift values h")
    n = len(C_history)
    T = (n - 1) * dt
    dV = grid.cell_volume
    axes = [(1.0 / h**2, *ends) for h, ends in zip(grid.spacing, BOUNDARY_CONDITIONS["C"])]

    smoothed = [solve_separable(c, axes, shift=1.0) for c in C_history]
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
            nn = smoothed[m + s] - smoothed[m]
            vals[m] = np.sum(nn * nn) * dV
        hs.append(h)
        moduli.append(_l2_in_time(vals, dt))

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


class VelocityFields(NamedTuple):
    """A test velocity's spatial factor at unit amplitude, at cell centres.

    ``grad_uH`` is ((d1, d2, d3) u~1, (d1, d2, d3) u~2), ``ground_uH`` the
    pair u~_H on the ground; zero components are broadcastable zeros.
    """

    uH: tuple
    u3: np.ndarray
    grad_uH: tuple
    grad_u3: tuple
    ground_uH: tuple


class ScalarFields(NamedTuple):
    """A scalar test function's spatial factor at unit amplitude."""

    value: np.ndarray
    grad: tuple


@dataclass(frozen=True)
class _AnalyticTest:
    """amp * eta(t) times a spatial factor with horizontal wave numbers
    (kx, ky); eta = (1 - t/t_cut)^2 vanishes from t_cut on."""

    t_cut: float
    kx: int = 1
    ky: int = 1
    amp: float = 1.0

    def envelope(self, t: float) -> tuple:
        """(amp * eta(t), amp * eta'(t))."""
        if t >= self.t_cut:
            return 0.0, 0.0
        r = 1.0 - t / self.t_cut
        return self.amp * r**2, self.amp * (-2.0 * r / self.t_cut)

    def _waves(self, grid: Grid) -> tuple:
        """(kx pi / lx, ky pi / ly, X1, X2, X3) with the cell centres X."""
        return (self.kx * math.pi / grid.lx, self.ky * math.pi / grid.ly, *grid.centers())


class StreamTestVelocity(_AnalyticTest):
    """Divergence-free test velocity from a horizontal streamfunction.

    u~_H = (d2 psi, -d1 psi) * phi(x3) * eta(t) with psi built from squared
    sines (zero with zero gradient on the lateral walls) and
    phi = cos^2(pi x3 / 2h) (zero at the top, active at the ground so the
    traction term is exercised); u~_3 = 0, so the field is solenoidal
    pointwise and lies in both test spaces.
    """

    def fields(self, grid: Grid) -> VelocityFields:
        a, b, X1, X2, X3 = self._waves(grid)
        q = math.pi / (2.0 * grid.h)
        A = np.sin(a * X1) ** 2
        dA = a * np.sin(2.0 * a * X1)
        d2A = 2.0 * a**2 * np.cos(2.0 * a * X1)
        B = np.sin(b * X2) ** 2
        dB = b * np.sin(2.0 * b * X2)
        d2B = 2.0 * b**2 * np.cos(2.0 * b * X2)
        phi = np.cos(q * X3) ** 2
        dphi = -q * np.sin(2.0 * q * X3)
        z = np.zeros((1, 1, 1))
        return VelocityFields(
            uH=(A * dB * phi, -dA * B * phi),
            u3=z,
            grad_uH=(
                (dA * dB * phi, A * d2B * phi, A * dB * dphi),
                (-d2A * B * phi, -dA * dB * phi, -dA * B * dphi),
            ),
            grad_u3=(z, z, z),
            ground_uH=((A * dB)[..., 0], (-dA * B)[..., 0]),  # phi(0) = 1
        )


class VerticalTestVelocity(_AnalyticTest):
    """Test velocity with active vertical component, u~ = curl(chi, 0, 0).

    chi = g(x1) s(x2) q(x3) with squared-sine factors gives
    u~ = (0, g s q', -g s' q): solenoidal pointwise, u~_2 zero on Gamma_A
    (q'(h) = 0), u~_3 zero on the whole boundary.  Exercises the eps- and
    eps^2-weighted vertical terms of the anisotropic identity.
    """

    def fields(self, grid: Grid) -> VelocityFields:
        a, b, X1, X2, X3 = self._waves(grid)
        c = math.pi / grid.h
        g = np.sin(a * X1) ** 2
        dg = a * np.sin(2.0 * a * X1)
        s = np.sin(b * X2) ** 2
        ds = b * np.sin(2.0 * b * X2)
        d2s = 2.0 * b**2 * np.cos(2.0 * b * X2)
        q = np.sin(c * X3) ** 2
        dq = c * np.sin(2.0 * c * X3)
        d2q = 2.0 * c**2 * np.cos(2.0 * c * X3)
        z = np.zeros((1, 1, 1))
        return VelocityFields(
            uH=(z, g * s * dq),
            u3=-g * ds * q,
            grad_uH=((z, z, z), (dg * s * dq, g * ds * dq, g * s * d2q)),
            grad_u3=(-dg * ds * q, -g * d2s * q, -g * ds * dq),
            ground_uH=(z[..., 0], z[..., 0]),  # q'(0) = 0
        )


class ScalarTestFunction(_AnalyticTest):
    """Scalar test function sin(a x1) sin(b x2) cos(pi x3 / 2h): zero on
    Gamma_A, active at the ground."""

    def fields(self, grid: Grid) -> ScalarFields:
        a, b, X1, X2, X3 = self._waves(grid)
        q = math.pi / (2.0 * grid.h)
        sx, sy, cz = np.sin(a * X1), np.sin(b * X2), np.cos(q * X3)
        return ScalarFields(
            sx * sy * cz,
            (
                a * np.cos(a * X1) * sy * cz,
                b * sx * np.cos(b * X2) * cz,
                -q * sx * sy * np.sin(q * X3),
            ),
        )

    def value_at(self, point, grid: Grid, t: float) -> float:
        a = self.kx * math.pi / grid.lx
        b = self.ky * math.pi / grid.ly
        q = math.pi / (2.0 * grid.h)
        return (
            self.envelope(t)[0]
            * math.sin(a * point[0])
            * math.sin(b * point[1])
            * math.cos(q * point[2])
        )


def max_divergence(f: VelocityFields) -> float:
    """Largest |div u~| of a test velocity's fields."""
    (g11, _, _), (_, g22, _) = f.grad_uH
    return float(np.max(np.abs(g11 + g22 + f.grad_u3[2])))


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


def _dot(a, b):
    """sum_i a_i * b_i of two sequences of arrays."""
    return sum(x * y for x, y in zip(a, b))


def _solution_center_gradients(u: StaggeredVelocity, history: RunHistory):
    """Gradients of the solution components interpolated to cell centres:
    d_d u_c is the face difference for d = c, else the centred difference
    on the ghost-extended u_c averaged to the centres along c."""
    grid = history.grid
    ext = extend_velocity(u, history.theta, history.params.nu3, grid, history.mode)
    # The hydrostatic u3 has no lateral condition: edge copies are its ghosts.
    e3 = ext.u3e if history.mode == "aniso" else np.pad(u.u3, 1, mode="edge")
    return tuple(
        tuple(
            np.diff(f, axis=c) / h if d == c else centre_average(centred_difference(e, d, h), c)
            for d, h in enumerate(grid.spacing)
        )
        for c, (f, e) in enumerate(zip(u.components(), (ext.u1e, ext.u2e, e3)))
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

    Each test is sampled once as its spatial ``fields``; one walk over the
    snapshots computes the solution's centre values and gradients and
    M grad C, and each term is an inner product with those fields weighted
    by the test's envelope or its time derivative.

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
    M = history.M
    source = history.source
    theta = history.theta

    if velocity_tests is None or scalar_tests is None:
        vel_def, sca_def = default_test_family(history.T, history.dt)
        velocity_tests = vel_def if velocity_tests is None else velocity_tests
        scalar_tests = sca_def if scalar_tests is None else scalar_tests

    def integral(f) -> float:
        return float(np.sum(f) * dV)

    def peak(arrays) -> float:
        return max(float(np.max(np.abs(f))) for f in arrays)

    states = history.states
    vel = [(v, v.fields(grid)) for v in velocity_tests]
    sca = [(c, c.fields(grid)) for c in scalar_tests]
    for iv, (v, f) in enumerate(vel):
        dv = abs(v.amp) * max_divergence(f)
        if dv > 1e-10 * max(1.0, abs(v.amp)):
            raise ValueError(f"velocity test {iv} is not divergence-free: max div {dv:.3e}")
        if abs(v.envelope(history.T)[0]) * peak(f.uH) > 1e-12:
            raise ValueError(f"velocity test {iv} does not vanish at the final time")
    for ic, (c, f) in enumerate(sca):
        if abs(c.envelope(history.T)[0]) * peak([f.value]) > 1e-12:
            raise ValueError(f"scalar test {ic} does not vanish at the final time")

    alpha_c, beta_c = coriolis_at(params, grid.x2c)
    alpha_3d = alpha_c[None, :, None]
    beta_3d = beta_c[None, :, None]
    delta = source is not None and source.spec.kind == "delta_deposit"

    extra = ("forcing",) if forcing is not None else ()
    vel_keys = ("time", "viscous", "advection", "coriolis")
    if aniso:
        vel_keys += ("beta", "w_time", "w_advection", "w_viscous")
    vel_sums = [
        (dict.fromkeys(vel_keys, 0.0), dict.fromkeys(("initial", "traction") + extra, 0.0))
        for _ in vel
    ]
    sca_sums = [
        (dict.fromkeys(("time", "advection", "diffusion"), 0.0),
         dict.fromkeys(("initial", "source") + extra, 0.0))
        for _ in sca
    ]

    for m, s in enumerate(states):
        w = history.dt * (0.5 if m in (0, len(states) - 1) else 1.0)
        u1c, u2c, u3c = uc = s.u.center_components()
        g1, g2, g3 = _solution_center_gradients(s.u, history)
        cg = _concentration_center_gradient(s.C, M, grid)
        mg = (
            M.entry(0, 0) * cg[0] + M.entry(0, 1) * cg[1] + M.entry(0, 2) * cg[2],
            M.entry(0, 1) * cg[0] + M.entry(1, 1) * cg[1] + M.entry(1, 2) * cg[2],
            M.entry(0, 2) * cg[0] + M.entry(1, 2) * cg[1] + M.entry(2, 2) * cg[2],
        )
        S = source.at(s.t) if source is not None and not delta else None
        fs = forcing(s.t, grid) if forcing is not None else None

        for (v, f), (lhs, rhs) in zip(vel, vel_sums):
            e, de = v.envelope(s.t)
            (te1, te2), te3 = f.uH, f.u3
            tg1, tg2 = f.grad_uH
            uH_test = integral(_dot(uc[:2], f.uH))
            if m == 0:
                rhs["initial"] = e * uH_test
            lhs["time"] -= w * de * uH_test
            lhs["viscous"] += w * e * integral(
                _dot(nu, [g1[k] * tg1[k] + g2[k] * tg2[k] for k in range(3)])
            )
            lhs["advection"] -= w * e * integral(_dot(uc[:2], (_dot(uc, tg1), _dot(uc, tg2))))
            lhs["coriolis"] += w * e * integral(alpha_3d * (-u2c * te1 + u1c * te2))
            if aniso:
                u3_test = eps**2 * integral(u3c * te3)
                if m == 0:
                    rhs["initial"] += e * u3_test
                lhs["beta"] += w * e * eps * integral(beta_3d * (u3c * te1 - u1c * te3))
                lhs["w_time"] -= w * de * u3_test
                lhs["w_advection"] += w * e * eps**2 * integral(_dot(uc, g3) * te3)
                lhs["w_viscous"] += w * e * eps**2 * integral(
                    _dot(nu, [g3[k] * f.grad_u3[k] for k in range(3)])
                )
            if theta is not None:
                ground = _dot((theta.theta1, theta.theta2), f.ground_uH)
                rhs["traction"] -= w * e * float(np.sum(ground) * dA)
            if fs is not None:
                val = integral(_dot((fs["f1"], fs["f2"]), f.uH))
                if aniso:
                    val += eps**2 * integral(fs["f3"] * te3)
                rhs["forcing"] += w * e * val

        for (c, f), (lhs, rhs) in zip(sca, sca_sums):
            e, de = c.envelope(s.t)
            C_test = integral(s.C * f.value)
            if m == 0:
                rhs["initial"] = e * C_test
            lhs["time"] -= w * de * C_test
            lhs["advection"] -= w * e * integral(s.C * _dot(uc, f.grad))
            lhs["diffusion"] += w * e * integral(_dot(mg, f.grad))
            if delta:
                if s.t >= source.spec.t_s:
                    point = c.value_at(source.spec.x_s, grid, s.t)
                    rhs["source"] += w * source.spec.intensity * point
            elif S is not None:
                rhs["source"] += w * e * integral(S * f.value)
            if fs is not None:
                rhs["forcing"] += w * e * integral(fs["fC"] * f.value)

    return [
        WeakResidualRecord(
            kind, f"{kind}[{i}]", lhs, rhs, abs(sum(lhs.values()) - sum(rhs.values()))
        )
        for kind, sums in (("velocity", vel_sums), ("concentration", sca_sums))
        for i, (lhs, rhs) in enumerate(sums)
    ]


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
    if run.grid != ref.grid:
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
    return tuple(_l2_in_time(v, run.dt) for v in (eh, e3, ec))


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

