"""Anisotropic stepper: stability limit, the projection of both modes,
dense-operator oracle."""

import numpy as np
import pytest

from hydrolimit.core import (
    BoundaryForcing,
    DiffusionTensor,
    Grid,
    PhysParams,
    coriolis_at,
)
from hydrolimit.operators import (
    StaggeredVelocity,
    apply_velocity_bcs,
    divergence,
    grad_pressure,
    theta_faces,
)
from hydrolimit.sources import Source, SourceSpec
from hydrolimit.aniso import (
    CFLError,
    ProjectionError,
    SimState,
    stability_limits,
)
from hydrolimit.harness import project, step

from conftest import default_params, projected_velocity, smooth_field, smooth_velocity


# ---------------------------------------------------------------------------
# stability_limits
# ---------------------------------------------------------------------------


def test_stability_limits_diffusive_limit():
    g = Grid(4, 4, 4)
    params = PhysParams(1.0, 1.0, 1.0, eps=0.5, f0=0.0)
    st0 = SimState.zeros(g)
    dt = min(stability_limits(st0, params, DiffusionTensor.identity(), g).values())
    assert dt == pytest.approx(1.0 / 96.0, rel=1e-12)


def test_stability_limits_halve_with_doubled_viscosity():
    g = Grid(4, 4, 4)
    st0 = SimState.zeros(g)
    M = DiffusionTensor(1e-6 * np.eye(3))  # concentration limit inactive
    dt1 = min(stability_limits(st0, PhysParams(1.0, 1.0, 1.0, f0=0.0), M, g).values())
    dt2 = min(stability_limits(st0, PhysParams(2.0, 2.0, 2.0, f0=0.0), M, g).values())
    assert dt2 == pytest.approx(dt1 / 2.0, rel=1e-12)


def test_stability_limits_advective_limit():
    g = Grid(4, 4, 4)
    u = StaggeredVelocity.zeros(g)
    u.u1[2, 2, 2] = 10.0  # dx/|u1| = 0.025 dominates
    st0 = SimState(0.0, 0, u, np.zeros(g.shape_cells), np.zeros(g.shape_cells))
    M = DiffusionTensor(1e-9 * np.eye(3))
    dt = min(stability_limits(st0, PhysParams(1e-6, 1e-6, 1e-6, f0=0.0), M, g).values())
    assert dt == pytest.approx(0.25 / 10.0, rel=1e-12)


def test_step_rejects_cfl_violation(grid8):
    params = default_params()
    M = DiffusionTensor.identity()
    st0 = SimState.zeros(grid8)
    limits = stability_limits(st0, params, M, grid8)
    limit = limits["concentration_diffusive"]
    assert limit == min(limits.values())
    with pytest.raises(CFLError) as err:
        step(st0, params, M, None, None, 2.0 * limit, grid8, "aniso")
    assert str(err.value) == (
        f"dt={2.0 * limit:.3e} exceeds the concentration_diffusive limit {limit:.3e} at step 0"
    )


# ---------------------------------------------------------------------------
# pressure projection
# ---------------------------------------------------------------------------


def _constrained_divergence(u, mode, grid):
    """Divergence of the flux a projection constrains: div u in "aniso", and
    div_H of the depth integral (dz*sum_k u1, dz*sum_k u2) in "hydro"."""
    if mode == "aniso":
        return divergence(u, grid)
    int1 = np.sum(u.u1, axis=2) * grid.dz
    int2 = np.sum(u.u2, axis=2) * grid.dz
    return (int1[1:] - int1[:-1]) / grid.dx + (int2[:, 1:] - int2[:, :-1]) / grid.dy


def _random_wall_velocity(grid, seed):
    rng = np.random.default_rng(seed)
    return apply_velocity_bcs(
        StaggeredVelocity(
            rng.normal(size=grid.shape_u1),
            rng.normal(size=grid.shape_u2),
            rng.normal(size=grid.shape_u3),
        )
    )


def _smooth_wall_velocity(grid):
    rng = np.random.default_rng(22)
    return apply_velocity_bcs(smooth_velocity(rng, grid))


# eps cases of the anisotropic projection, plus the hydrostatic one (eps unused)
MODE_EPS3 = [pytest.param("aniso", e, id=str(e)) for e in (1.0, 0.25, 0.0625)] + [
    pytest.param("hydro", 1.0, id="hydro")
]


@pytest.mark.parametrize("mode, eps", MODE_EPS3)
def test_projection_divergence_tolerance(grid8, mode, eps):
    u = _random_wall_velocity(grid8, 21)
    tol = 1e-9
    up, p, _ = project(u, mode, eps, 0.01, grid8, tol)
    assert np.max(np.abs(_constrained_divergence(up, mode, grid8))) <= 10.0 * tol
    assert np.max(np.abs(divergence(up, grid8))) <= 10.0 * tol
    assert abs(np.mean(p)) < 1e-12
    # in "hydro" the diagnosed top interface value inherits the tolerance
    assert np.max(np.abs(up.u3[:, :, -1])) <= 10.0 * tol / grid8.h


@pytest.mark.parametrize("mode, eps", MODE_EPS3)
def test_projection_reports_true_divergence(grid8, mode, eps):
    """tol bounds the divergence of the returned field's constrained flux
    about the (conserved) mean, not an estimate carried by the solver: the
    projection passes at tol just above that figure and refuses just below."""
    u = _smooth_wall_velocity(grid8)
    up, _, _ = project(u, mode, eps, 1.0, grid8, 1e-10)
    mean = np.mean(_constrained_divergence(u, mode, grid8))
    true = np.max(np.abs(_constrained_divergence(up, mode, grid8) - mean))
    assert true > 0.0
    project(u, mode, eps, 1.0, grid8, true * (1.0 + 1e-9))
    with pytest.raises(ProjectionError, match="exceeds tol"):
        project(u, mode, eps, 1.0, grid8, true * (1.0 - 1e-9))


@pytest.mark.parametrize(
    "mode, solve", [("aniso", True), ("aniso", False), ("hydro", True), ("hydro", False)]
)
def test_projection_info_contract(grid8, mode, solve):
    """Both modes return max|div u| of the returned 3-D field exactly
    (run_simulation's max_div relies on it), and pass an already projected
    field through unchanged with p = 0."""
    u = _smooth_wall_velocity(grid8)
    if not solve:
        u, _, _ = project(u, mode, 0.5, 1.0, grid8, 1e-10)
    up, p, max_div = project(u, mode, 0.5, 1.0, grid8, 1e-10)
    assert max_div == float(np.max(np.abs(divergence(up, grid8))))
    passed = all(np.array_equal(a, b) for a, b in zip(up.components(), u.components()))
    assert passed == (not p.any()) == (not solve)


def test_projection_tolerance_below_roundoff_raises(grid8):
    """At eps = 1/16 double precision leaves a divergence near 1e-11 on grid8;
    asking for 1e-13 must fail loudly instead of returning that field."""
    u = _smooth_wall_velocity(grid8)
    with pytest.raises(ProjectionError, match="exceeds tol"):
        project(u, "aniso", 0.0625, 1.0, grid8, 1e-13)


def test_projection_divfree_input_is_fixed_point(grid8):
    """A divergence-free input passes through unchanged with p = 0."""
    rng = np.random.default_rng(22)
    u = projected_velocity(rng, grid8, eps=1.0, tol=1e-12)
    up, p, _ = project(u, "aniso", 1.0, 0.01, grid8, 1e-8)
    assert not p.any()
    assert np.array_equal(up.u1, u.u1)


@pytest.mark.parametrize(
    "mode, eps",
    [pytest.param("aniso", e, id=str(e)) for e in (1.0, 0.25)]
    + [pytest.param("hydro", 1.0, id="hydro")],
)
def test_projection_recovers_potential(grid8, mode, eps):
    """u* = dt * A grad(phi) makes the solver return phi - mean(phi); in
    "hydro" phi is level-independent and p is its 2-D surface value."""
    X1, X2, X3 = grid8.centers()
    z = np.cos(np.pi * X3) if mode == "aniso" else 1.0
    phi = np.broadcast_to(np.cos(np.pi * X1) * np.cos(2 * np.pi * X2) * z, grid8.shape_cells)
    dt = 0.01
    gx, gy, gz = grad_pressure(phi.copy(), grid8)
    u_star = StaggeredVelocity(dt * gx, dt * gy, dt * gz / eps**2)
    up, p, _ = project(u_star, mode, eps, dt, grid8, 1e-12)
    want = phi - phi.mean()
    assert np.allclose(p, want if mode == "aniso" else want[:, :, 0], atol=1e-8)
    for comp in up.components():
        assert np.max(np.abs(comp)) < 1e-8


def test_projection_idempotent(grid8):
    u = _random_wall_velocity(grid8, 23)
    tol = 1e-9
    for mode in ("aniso", "hydro"):
        u1p, _, _ = project(u, mode, 0.25, 0.01, grid8, tol)
        u2p, _, _ = project(u1p, mode, 0.25, 0.01, grid8, tol)
        for a, b in zip(u1p.components(), u2p.components()):
            assert np.max(np.abs(a - b)) <= 10.0 * tol


def test_projection_eps_one_matches_plain_poisson(grid8):
    """At eps = 1 the scheme is a standard projection; compare with an
    unpreconditioned CG on the plain Poisson problem."""
    u = _random_wall_velocity(grid8, 24)
    dt = 0.02
    up, p, _ = project(u, "aniso", 1.0, dt, grid8, 1e-12)

    # plain CG on -lap p = -div(u*)/dt with Neumann walls
    def apply_neg_lap(q):
        out = np.zeros_like(q)
        for axis, h in enumerate(grid8.spacing):
            qp = np.swapaxes(q, 0, axis)
            o = np.zeros_like(qp)
            o[1:-1] = (2.0 * qp[1:-1] - qp[2:] - qp[:-2]) / h**2
            o[0] = (qp[0] - qp[1]) / h**2
            o[-1] = (qp[-1] - qp[-2]) / h**2
            out += np.swapaxes(o, 0, axis)
        return out

    b = -divergence(u, grid8) / dt
    b -= b.mean()
    x = np.zeros_like(b)
    r = -b.copy() * -1.0
    r = b - apply_neg_lap(x)
    pvec = r.copy()
    rs = float(np.vdot(r, r))
    for _ in range(20000):
        ap = apply_neg_lap(pvec)
        alpha = rs / float(np.vdot(pvec, ap))
        x += alpha * pvec
        r -= alpha * ap
        rs_new = float(np.vdot(r, r))
        if np.max(np.abs(r)) * dt < 1e-12:
            break
        pvec = r + (rs_new / rs) * pvec
        rs = rs_new
    x -= x.mean()
    assert np.allclose(p, x, atol=1e-8)


def test_projection_incompatible_rhs_rejected(grid8):
    u = StaggeredVelocity.zeros(grid8)
    u.u1[0, :, :] = 1.0  # net inflow through a wall: incompatible
    for mode in ("aniso", "hydro"):
        with pytest.raises(ProjectionError, match="incompatible"):
            project(u, mode, 1.0, 0.01, grid8, 1e-8)


# ---------------------------------------------------------------------------
# step, mode "aniso": basics
# ---------------------------------------------------------------------------


def test_zero_state_is_fixed_point(grid8):
    params = default_params(eps=0.5)
    M = DiffusionTensor.identity()
    st0 = SimState.zeros(grid8)
    dt = 0.5 * min(stability_limits(st0, params, M, grid8).values())
    st = st0
    for _ in range(5):
        st, _ = step(st, params, M, None, None, dt, grid8, "aniso")
    assert np.max(np.abs(st.u.u1)) == 0.0
    assert np.max(np.abs(st.C)) == 0.0
    assert np.max(np.abs(st.p)) == 0.0


def test_one_way_coupling_velocity_stays_zero(grid8):
    """The source feeds C only; with u0 = 0 the velocity never moves."""
    params = default_params(eps=0.5)
    M = DiffusionTensor.identity()
    src = SourceSpec("gaussian", 1.0, t_s=0.0, x_s=(0.5, 0.5, 0.5), width=0.25)
    st = SimState.zeros(grid8)
    dt = 0.5 * min(stability_limits(st, params, M, grid8).values())
    for _ in range(10):
        st, _ = step(st, params, M, None, Source(src, grid8), dt, grid8, "aniso")
    assert np.max(np.abs(st.u.u1)) == 0.0
    assert np.max(np.abs(st.u.u3)) == 0.0
    assert st.C.max() > 0.0


def test_step_keeps_divergence_small(grid8):
    rng = np.random.default_rng(31)
    params = default_params(eps=0.25)
    M = DiffusionTensor.identity()
    u0 = projected_velocity(rng, grid8, eps=0.25, tol=1e-12)
    st = SimState(0.0, 0, u0, np.zeros(grid8.shape_cells), smooth_field(rng, grid8))
    dt = 0.4 * min(stability_limits(st, params, M, grid8).values())
    tol = 1e-9
    for _ in range(5):
        st, _ = step(st, params, M, None, None, dt, grid8, "aniso", tol=tol)
        assert np.max(np.abs(divergence(st.u, grid8))) <= 10.0 * tol


def test_energy_nonincreasing_unforced(grid8):
    rng = np.random.default_rng(32)
    params = default_params(eps=0.25, nu=0.02)
    M = DiffusionTensor.identity()
    u0 = projected_velocity(rng, grid8, eps=0.25, tol=1e-12)
    C0 = smooth_field(rng, grid8)
    st = SimState(0.0, 0, u0, np.zeros(grid8.shape_cells), C0)
    dt = 0.4 * min(stability_limits(st, params, M, grid8).values())
    dV = grid8.cell_volume

    def energy(s):
        return 0.5 * dV * (
            np.sum(s.u.u1**2)
            + np.sum(s.u.u2**2)
            + params.eps**2 * np.sum(s.u.u3**2)
            + np.sum(s.C**2)
        )

    e_prev = energy(st)
    for _ in range(30):
        st, _ = step(st, params, M, None, None, dt, grid8, "aniso", tol=1e-11)
        e = energy(st)
        assert e <= e_prev + 1e-12
        e_prev = e


# ---------------------------------------------------------------------------
# dense-operator oracle (one full step on a 6^3 grid)
# ---------------------------------------------------------------------------


def _dense_neumann_solve(shape, weights, rhs):
    """Mean-zero least-squares solution of the dense Neumann problem
    sum_d w_d (p[+d] - 2p + p[-d]) = rhs, cells outside the box omitted."""
    cells = list(np.ndindex(*shape))
    index = {c: n for n, c in enumerate(cells)}
    L = np.zeros((len(cells), len(cells)))
    for c, row in index.items():
        for d, w in enumerate(weights):
            for step_ in (1, -1):
                nb = list(c)
                nb[d] += step_
                col = index.get(tuple(nb))
                if col is not None:
                    L[row, col] += w
                    L[row, row] -= w
    p_flat, *_ = np.linalg.lstsq(L, rhs.ravel(), rcond=None)
    p = p_flat.reshape(shape)
    p -= p.mean()
    return p


def _dense_projection_aniso(u1s, u2s, u3s, eps, dt, grid):
    """The 3-D eps-weighted projection: L = D A G on cell unknowns."""
    nx, ny, nz = grid.nx, grid.ny, grid.nz
    dx, dy, dz = grid.spacing
    rhs = np.zeros((nx, ny, nz))
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                div = (
                    (u1s[i + 1, j, k] - u1s[i, j, k]) / dx
                    + (u2s[i, j + 1, k] - u2s[i, j, k]) / dy
                    + (u3s[i, j, k + 1] - u3s[i, j, k]) / dz
                )
                rhs[i, j, k] = div / dt
    weights = (1.0 / dx**2, 1.0 / dy**2, 1.0 / (eps**2 * dz**2))
    p = _dense_neumann_solve((nx, ny, nz), weights, rhs)

    u1n = u1s.copy()
    u2n = u2s.copy()
    u3n = u3s.copy()
    for i in range(1, nx):
        u1n[i] -= dt * (p[i] - p[i - 1]) / dx
    for j in range(1, ny):
        u2n[:, j] -= dt * (p[:, j] - p[:, j - 1]) / dy
    for k in range(1, nz):
        u3n[:, :, k] -= dt * (p[:, :, k] - p[:, :, k - 1]) / (eps**2 * dz)
    return u1n, u2n, u3n, p


def _dense_projection_hydro(u1s, u2s, dt, grid):
    """The surface projection: the depth-integrated Neumann problem with
    mobility h for a 2-D pressure, the same correction on every level, and
    u3 summed up from the ground."""
    nx, ny, nz = grid.nx, grid.ny, grid.nz
    dx, dy, dz = grid.spacing
    rhs = np.zeros((nx, ny))
    for i in range(nx):
        for j in range(ny):
            div = sum(
                (u1s[i + 1, j, k] - u1s[i, j, k]) * dz / dx
                + (u2s[i, j + 1, k] - u2s[i, j, k]) * dz / dy
                for k in range(nz)
            )
            rhs[i, j] = div / dt
    p = _dense_neumann_solve((nx, ny), (grid.h / dx**2, grid.h / dy**2), rhs)

    u1n = u1s.copy()
    u2n = u2s.copy()
    for i in range(1, nx):
        u1n[i] -= dt * (p[i] - p[i - 1])[:, None] / dx
    for j in range(1, ny):
        u2n[:, j] -= dt * (p[:, j] - p[:, j - 1])[:, None] / dy
    u3n = np.zeros((nx, ny, nz + 1))
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                div_h = (u1n[i + 1, j, k] - u1n[i, j, k]) / dx + (u2n[i, j + 1, k] - u2n[i, j, k]) / dy
                u3n[i, j, k + 1] = u3n[i, j, k] - dz * div_h
    return u1n, u2n, u3n, p


def dense_step_oracle(state, params, M, theta, source, dt, grid, mode="aniso"):
    """Independent loop/dense-matrix implementation of one step of ``mode``.

    "hydro" drops the beta couplings and the u3 predictor, projects with the
    depth-integrated Neumann problem (mobility h) and diagnoses u3 by the
    cumulative sum of the horizontal divergence from the ground."""
    aniso = mode == "aniso"
    nx, ny, nz = grid.nx, grid.ny, grid.nz
    dx, dy, dz = grid.spacing
    eps = params.eps
    nu = params.nu

    u1 = state.u.u1.copy()
    u2 = state.u.u2.copy()
    u3 = state.u.u3.copy()
    u1[0] = u1[-1] = 0.0
    u2[:, 0] = u2[:, -1] = 0.0
    u3[:, :, 0] = u3[:, :, -1] = 0.0

    t1f, t2f = theta_faces(theta, grid)

    def u1v(i, j, k):
        if j < 0:
            return -u1v(i, 0, k)
        if j >= ny:
            return -u1v(i, ny - 1, k)
        if k >= nz:
            return -u1v(i, j, nz - 1)
        if k < 0:
            return u1v(i, j, 0) - dz * t1f[i, j] / nu[2]
        return u1[i, j, k]

    def u2v(i, j, k):
        if i < 0:
            return -u2v(0, j, k)
        if i >= nx:
            return -u2v(nx - 1, j, k)
        if k >= nz:
            return -u2v(i, j, nz - 1)
        if k < 0:
            return u2v(i, j, 0) - dz * t2f[i, j] / nu[2]
        return u2[i, j, k]

    def u3v(i, j, k):
        if i < 0:
            return -u3v(0, j, k)
        if i >= nx:
            return -u3v(nx - 1, j, k)
        if j < 0:
            return -u3v(i, 0, k)
        if j >= ny:
            return -u3v(i, ny - 1, k)
        return u3[i, j, k]

    def donor(lo, hi, s):
        return lo if s > 0 else hi

    # predictor for u1
    u1s = u1.copy()
    for i in range(1, nx):
        for j in range(ny):
            for k in range(nz):
                ue = 0.5 * (u1[i, j, k] + u1[i + 1, j, k])
                uw = 0.5 * (u1[i - 1, j, k] + u1[i, j, k])
                adv = (ue * donor(u1[i, j, k], u1[i + 1, j, k], ue)
                       - uw * donor(u1[i - 1, j, k], u1[i, j, k], uw)) / dx
                vn = 0.5 * (u2[i - 1, j + 1, k] + u2[i, j + 1, k])
                vs = 0.5 * (u2[i - 1, j, k] + u2[i, j, k])
                adv += (vn * donor(u1v(i, j, k), u1v(i, j + 1, k), vn)
                        - vs * donor(u1v(i, j - 1, k), u1v(i, j, k), vs)) / dy
                wt = 0.5 * (u3[i - 1, j, k + 1] + u3[i, j, k + 1])
                wb = 0.5 * (u3[i - 1, j, k] + u3[i, j, k])
                adv += (wt * donor(u1v(i, j, k), u1v(i, j, k + 1), wt)
                        - wb * donor(u1v(i, j, k - 1), u1v(i, j, k), wb)) / dz
                lap = (
                    nu[0] * (u1v(i + 1, j, k) - 2 * u1v(i, j, k) + u1v(i - 1, j, k)) / dx**2
                    + nu[1] * (u1v(i, j + 1, k) - 2 * u1v(i, j, k) + u1v(i, j - 1, k)) / dy**2
                    + nu[2] * (u1v(i, j, k + 1) - 2 * u1v(i, j, k) + u1v(i, j, k - 1)) / dz**2
                )
                x2 = grid.x2c[j]
                alpha, beta = coriolis_at(params, x2)
                v_at = 0.25 * (u2[i - 1, j, k] + u2[i - 1, j + 1, k]
                               + u2[i, j, k] + u2[i, j + 1, k])
                w_at = 0.25 * (u3[i - 1, j, k] + u3[i - 1, j, k + 1]
                               + u3[i, j, k] + u3[i, j, k + 1])
                rhs = -adv + lap + alpha * v_at
                if aniso:
                    rhs -= eps * beta * w_at
                u1s[i, j, k] += dt * rhs

    # predictor for u2
    u2s = u2.copy()
    for i in range(nx):
        for j in range(1, ny):
            for k in range(nz):
                vn = 0.5 * (u2[i, j, k] + u2[i, j + 1, k])
                vs = 0.5 * (u2[i, j - 1, k] + u2[i, j, k])
                adv = (vn * donor(u2[i, j, k], u2[i, j + 1, k], vn)
                       - vs * donor(u2[i, j - 1, k], u2[i, j, k], vs)) / dy
                ue = 0.5 * (u1[i + 1, j - 1, k] + u1[i + 1, j, k])
                uw = 0.5 * (u1[i, j - 1, k] + u1[i, j, k])
                adv += (ue * donor(u2v(i, j, k), u2v(i + 1, j, k), ue)
                        - uw * donor(u2v(i - 1, j, k), u2v(i, j, k), uw)) / dx
                wt = 0.5 * (u3[i, j - 1, k + 1] + u3[i, j, k + 1])
                wb = 0.5 * (u3[i, j - 1, k] + u3[i, j, k])
                adv += (wt * donor(u2v(i, j, k), u2v(i, j, k + 1), wt)
                        - wb * donor(u2v(i, j, k - 1), u2v(i, j, k), wb)) / dz
                lap = (
                    nu[0] * (u2v(i + 1, j, k) - 2 * u2v(i, j, k) + u2v(i - 1, j, k)) / dx**2
                    + nu[1] * (u2v(i, j + 1, k) - 2 * u2v(i, j, k) + u2v(i, j - 1, k)) / dy**2
                    + nu[2] * (u2v(i, j, k + 1) - 2 * u2v(i, j, k) + u2v(i, j, k - 1)) / dz**2
                )
                x2 = grid.x2f[j]
                alpha, _ = coriolis_at(params, x2)
                u_at = 0.25 * (u1[i, j - 1, k] + u1[i + 1, j - 1, k]
                               + u1[i, j, k] + u1[i + 1, j, k])
                u2s[i, j, k] += dt * (-adv + lap - alpha * u_at)

    # predictor for u3 (equation divided by eps^2), "aniso" only
    u3s = u3.copy()
    for i in range(nx if aniso else 0):
        for j in range(ny):
            for k in range(1, nz):
                wt = 0.5 * (u3[i, j, k] + u3[i, j, k + 1])
                wb = 0.5 * (u3[i, j, k - 1] + u3[i, j, k])
                adv = (wt * donor(u3[i, j, k], u3[i, j, k + 1], wt)
                       - wb * donor(u3[i, j, k - 1], u3[i, j, k], wb)) / dz
                ue = 0.5 * (u1[i + 1, j, k - 1] + u1[i + 1, j, k])
                uw = 0.5 * (u1[i, j, k - 1] + u1[i, j, k])
                adv += (ue * donor(u3v(i, j, k), u3v(i + 1, j, k), ue)
                        - uw * donor(u3v(i - 1, j, k), u3v(i, j, k), uw)) / dx
                vn = 0.5 * (u2[i, j + 1, k - 1] + u2[i, j + 1, k])
                vs = 0.5 * (u2[i, j, k - 1] + u2[i, j, k])
                adv += (vn * donor(u3v(i, j, k), u3v(i, j + 1, k), vn)
                        - vs * donor(u3v(i, j - 1, k), u3v(i, j, k), vs)) / dy
                lap = (
                    nu[0] * (u3v(i + 1, j, k) - 2 * u3v(i, j, k) + u3v(i - 1, j, k)) / dx**2
                    + nu[1] * (u3v(i, j + 1, k) - 2 * u3v(i, j, k) + u3v(i, j - 1, k)) / dy**2
                    + nu[2] * (u3v(i, j, k + 1) - 2 * u3v(i, j, k) + u3v(i, j, k - 1)) / dz**2
                )
                x2 = grid.x2c[j]
                _, beta = coriolis_at(params, x2)
                u_at = 0.25 * (u1[i, j, k - 1] + u1[i + 1, j, k - 1]
                               + u1[i, j, k] + u1[i + 1, j, k])
                u3s[i, j, k] += dt * (-adv + lap + (beta / eps) * u_at)

    u1s[0] = u1s[-1] = 0.0
    u2s[:, 0] = u2s[:, -1] = 0.0
    u3s[:, :, 0] = u3s[:, :, -1] = 0.0

    if aniso:
        u1n, u2n, u3n, p = _dense_projection_aniso(u1s, u2s, u3s, eps, dt, grid)
    else:
        u1n, u2n, u3n, p = _dense_projection_hydro(u1s, u2s, dt, grid)

    # concentration update with the corrected velocity
    C = state.C

    def cv(i, j, k):
        # ghost values of C per the concentration boundary conditions
        if i < 0:
            return -cv(0, j, k)
        if i >= nx:
            return -cv(nx - 1, j, k)
        if j < 0:
            return -cv(i, 0, k)
        if j >= ny:
            return -cv(i, ny - 1, k)
        if k >= nz:
            return -cv(i, j, nz - 1)
        if k < 0:
            d1 = (cv(i + 1, j, 0) - cv(i - 1, j, 0)) / (2 * dx)
            d2 = (cv(i, j + 1, 0) - cv(i, j - 1, 0)) / (2 * dy)
            return C[i, j, 0] + dz * (M.entry(2, 0) * d1 + M.entry(2, 1) * d2) / M.entry(2, 2)
        return C[i, j, k]

    def dcx(i, j, k):
        return (cv(i + 1, j, k) - cv(i - 1, j, k)) / (2 * dx)

    def dcy(i, j, k):
        return (cv(i, j + 1, k) - cv(i, j - 1, k)) / (2 * dy)

    def dcz(i, j, k):
        return (cv(i, j, k + 1) - cv(i, j, k - 1)) / (2 * dz)

    def favg(fn, idx_lo, idx_hi, lo_edge, hi_edge):
        if lo_edge:
            return fn(*idx_hi)
        if hi_edge:
            return fn(*idx_lo)
        return 0.5 * (fn(*idx_lo) + fn(*idx_hi))

    Cn = C.copy()
    Cp = np.pad(C, 1, mode="edge")
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                # donor-cell advection with the projected velocity
                fe = u1n[i + 1, j, k] * donor(Cp[i + 1, j + 1, k + 1], Cp[i + 2, j + 1, k + 1], u1n[i + 1, j, k])
                fw = u1n[i, j, k] * donor(Cp[i, j + 1, k + 1], Cp[i + 1, j + 1, k + 1], u1n[i, j, k])
                fn_ = u2n[i, j + 1, k] * donor(Cp[i + 1, j + 1, k + 1], Cp[i + 1, j + 2, k + 1], u2n[i, j + 1, k])
                fs = u2n[i, j, k] * donor(Cp[i + 1, j, k + 1], Cp[i + 1, j + 1, k + 1], u2n[i, j, k])
                ft = u3n[i, j, k + 1] * donor(Cp[i + 1, j + 1, k + 1], Cp[i + 1, j + 1, k + 2], u3n[i, j, k + 1])
                fb = u3n[i, j, k] * donor(Cp[i + 1, j + 1, k], Cp[i + 1, j + 1, k + 1], u3n[i, j, k])
                adv = (fe - fw) / dx + (fn_ - fs) / dy + (ft - fb) / dz

                # tensor-diffusion flux divergence
                def flux_x(iface):
                    lo_edge = iface == 0
                    hi_edge = iface == nx
                    normal = M.entry(0, 0) * (cv(iface, j, k) - cv(iface - 1, j, k)) / dx
                    cross = favg(
                        lambda a, b, c: M.entry(0, 1) * dcy(a, b, c) + M.entry(0, 2) * dcz(a, b, c),
                        (iface - 1, j, k),
                        (iface, j, k),
                        lo_edge,
                        hi_edge,
                    )
                    return normal + cross

                def flux_y(jf):
                    lo_edge = jf == 0
                    hi_edge = jf == ny
                    normal = M.entry(1, 1) * (cv(i, jf, k) - cv(i, jf - 1, k)) / dy
                    cross = favg(
                        lambda a, b, c: M.entry(0, 1) * dcx(a, b, c) + M.entry(1, 2) * dcz(a, b, c),
                        (i, jf - 1, k),
                        (i, jf, k),
                        lo_edge,
                        hi_edge,
                    )
                    return normal + cross

                def flux_z(kf):
                    if kf == 0:
                        return 0.0
                    lo_edge = False
                    hi_edge = kf == nz
                    normal = M.entry(2, 2) * (cv(i, j, kf) - cv(i, j, kf - 1)) / dz
                    cross = favg(
                        lambda a, b, c: M.entry(0, 2) * dcx(a, b, c) + M.entry(1, 2) * dcy(a, b, c),
                        (i, j, kf - 1),
                        (i, j, kf),
                        lo_edge,
                        hi_edge,
                    )
                    return normal + cross

                diff = (
                    (flux_x(i + 1) - flux_x(i)) / dx
                    + (flux_y(j + 1) - flux_y(j)) / dy
                    + (flux_z(k + 1) - flux_z(k)) / dz
                )
                Cn[i, j, k] += dt * (-adv + diff)

    if source is not None:
        Cn += dt * Source(source, grid).at(state.t)

    return u1n, u2n, u3n, p, Cn


def test_step_matches_dense_oracle():
    g = Grid(6, 6, 6)
    rng = np.random.default_rng(99)
    params = PhysParams(
        0.05, 0.04, 0.06, eps=0.5, f0=1.2, l0=0.5, l_slope=0.3
    )
    M = DiffusionTensor(np.array([[1.0, 0.2, 0.1], [0.2, 0.8, 0.15], [0.1, 0.15, 1.2]]))
    theta = BoundaryForcing.constant(g, 0.3, -0.2)
    src = SourceSpec("gaussian", 1.0, t_s=0.1, x_s=(0.5, 0.5, 0.5), width=0.3)

    u0 = projected_velocity(rng, g, eps=0.5, tol=1e-13)
    C0 = np.abs(smooth_field(rng, g))
    st = SimState(0.2, 0, u0, np.zeros(g.shape_cells), C0)
    dt = 0.5 * min(stability_limits(st, params, M, g).values())

    new, _ = step(st, params, M, theta, Source(src, g), dt, g, "aniso", tol=1e-13)
    o1, o2, o3, op, oc = dense_step_oracle(st, params, M, theta, src, dt, g)

    def relmax(a, b):
        scale = max(np.max(np.abs(b)), 1e-14)
        return np.max(np.abs(a - b)) / scale

    assert relmax(new.u.u1, o1) < 1e-12
    assert relmax(new.u.u2, o2) < 1e-12
    assert relmax(new.u.u3, o3) < 1e-12
    assert relmax(new.p, op) < 1e-10
    assert relmax(new.C, oc) < 1e-12


def test_hydro_step_matches_dense_oracle():
    """The hydrostatic step on the same beta-plane config: a hydrostatic
    start (u3 diagnosed), the alpha couplings only, the surface projection."""
    g = Grid(6, 6, 6)
    rng = np.random.default_rng(99)
    params = PhysParams(
        0.05, 0.04, 0.06, eps=0.5, f0=1.2, l0=0.5, l_slope=0.3
    )
    M = DiffusionTensor(np.array([[1.0, 0.2, 0.1], [0.2, 0.8, 0.15], [0.1, 0.15, 1.2]]))
    theta = BoundaryForcing.constant(g, 0.3, -0.2)
    src = SourceSpec("gaussian", 1.0, t_s=0.1, x_s=(0.5, 0.5, 0.5), width=0.3)

    u0, _, _ = project(apply_velocity_bcs(smooth_velocity(rng, g)), "hydro", 0.5, 1.0, g, 1e-13)
    C0 = np.abs(smooth_field(rng, g))
    st = SimState(0.2, 0, u0, np.zeros((g.nx, g.ny)), C0)
    dt = 0.5 * min(stability_limits(st, params, M, g).values())

    new, _ = step(st, params, M, theta, Source(src, g), dt, g, "hydro", tol=1e-13)
    o1, o2, o3, op, oc = dense_step_oracle(st, params, M, theta, src, dt, g, mode="hydro")

    def relmax(a, b):
        scale = max(np.max(np.abs(b)), 1e-14)
        return np.max(np.abs(a - b)) / scale

    assert new.p.shape == op.shape == (g.nx, g.ny)
    assert relmax(new.u.u1, o1) < 1e-12
    assert relmax(new.u.u2, o2) < 1e-12
    assert relmax(new.u.u3, o3) < 1e-12
    assert relmax(new.p, op) < 1e-10
    assert relmax(new.C, oc) < 1e-12
