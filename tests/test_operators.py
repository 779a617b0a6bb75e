"""Stencil operators versus naive loop oracles and analytic fields."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hydrolimit.core import BoundaryForcing, DiffusionTensor, Grid
from hydrolimit.operators import (
    BOUNDARY_CONDITIONS,
    StaggeredVelocity,
    VelocityExtension,
    advect_scalar,
    advect_velocity,
    anisotropic_laplacian,
    apply_concentration_bcs,
    apply_velocity_bcs,
    diffuse_concentration,
    divergence,
    extend_velocity,
    grad_pressure,
    solve_separable,
    theta_faces,
)

from conftest import projected_velocity, smooth_field, smooth_velocity


def sample_velocity(grid, f1, f2, f3):
    X = grid.u1_positions()
    Y = grid.u2_positions()
    Z = grid.u3_positions()
    return StaggeredVelocity(
        np.broadcast_to(f1(*X), grid.shape_u1).copy(),
        np.broadcast_to(f2(*Y), grid.shape_u2).copy(),
        np.broadcast_to(f3(*Z), grid.shape_u3).copy(),
    )


# ---------------------------------------------------------------------------
# divergence
# ---------------------------------------------------------------------------


def test_divergence_solenoidal_linear(grid8):
    u = sample_velocity(grid8, lambda x, y, z: x, lambda x, y, z: -y, lambda x, y, z: 0 * z)
    assert np.max(np.abs(divergence(u, grid8))) < 1e-13


def test_divergence_linear_unit(grid8):
    u = sample_velocity(
        grid8, lambda x, y, z: x, lambda x, y, z: 0 * y, lambda x, y, z: 0 * z
    )
    assert np.allclose(divergence(u, grid8), 1.0, rtol=0, atol=1e-13)


def test_divergence_matches_loop_oracle(grid_small):
    g = grid_small
    rng = np.random.default_rng(0)
    u = StaggeredVelocity(
        rng.normal(size=g.shape_u1),
        rng.normal(size=g.shape_u2),
        rng.normal(size=g.shape_u3),
    )
    got = divergence(u, g)
    want = np.zeros(g.shape_cells)
    for i in range(g.nx):
        for j in range(g.ny):
            for k in range(g.nz):
                want[i, j, k] = (
                    (u.u1[i + 1, j, k] - u.u1[i, j, k]) / g.dx
                    + (u.u2[i, j + 1, k] - u.u2[i, j, k]) / g.dy
                    + (u.u3[i, j, k + 1] - u.u3[i, j, k]) / g.dz
                )
    assert np.array_equal(got, want)


def test_divergence_rejects_mismatched_shapes(grid8, grid_small):
    u = StaggeredVelocity.zeros(grid_small)
    with pytest.raises(ValueError):
        divergence(u, grid8)


# ---------------------------------------------------------------------------
# grad_pressure
# ---------------------------------------------------------------------------


def test_grad_pressure_constant(grid8):
    p = np.full(grid8.shape_cells, 3.7)
    gx, gy, gz = grad_pressure(p, grid8)
    for comp in (gx, gy, gz):
        assert np.max(np.abs(comp)) < 1e-14


def test_grad_pressure_linear(grid8):
    X1, _, _ = grid8.centers()
    p = np.broadcast_to(X1, grid8.shape_cells).copy()
    gx, gy, gz = grad_pressure(p, grid8)
    assert np.allclose(gx[1:-1], 1.0, atol=1e-13)
    assert np.max(np.abs(gx[0])) == 0.0 and np.max(np.abs(gx[-1])) == 0.0
    assert np.max(np.abs(gy)) < 1e-13 and np.max(np.abs(gz)) < 1e-13


def test_grad_pressure_matches_loop_oracle(grid_small):
    g = grid_small
    rng = np.random.default_rng(1)
    p = rng.normal(size=g.shape_cells)
    gx, gy, gz = grad_pressure(p, g)
    for i in range(1, g.nx):
        for j in range(g.ny):
            for k in range(g.nz):
                assert gx[i, j, k] == (p[i, j, k] - p[i - 1, j, k]) / g.dx
    for i in range(g.nx):
        for j in range(1, g.ny):
            for k in range(g.nz):
                assert gy[i, j, k] == (p[i, j, k] - p[i, j - 1, k]) / g.dy
    for i in range(g.nx):
        for j in range(g.ny):
            for k in range(1, g.nz):
                assert gz[i, j, k] == (p[i, j, k] - p[i, j, k - 1]) / g.dz


def test_discrete_duality_div_grad(grid_small):
    """<div u, p> = -<u, grad p> for velocities vanishing on the boundary."""
    g = grid_small
    rng = np.random.default_rng(2)
    u = apply_velocity_bcs(
        StaggeredVelocity(
            rng.normal(size=g.shape_u1),
            rng.normal(size=g.shape_u2),
            rng.normal(size=g.shape_u3),
        )
    )
    p = rng.normal(size=g.shape_cells)
    gx, gy, gz = grad_pressure(p, g)
    lhs = np.sum(divergence(u, g) * p)
    rhs = -(np.sum(u.u1 * gx) + np.sum(u.u2 * gy) + np.sum(u.u3 * gz))
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# anisotropic_laplacian
# ---------------------------------------------------------------------------


def _sample_extended_cells(grid, f):
    """Sample an analytic function at cell centres including one ghost ring."""
    x1 = np.concatenate(([grid.x1c[0] - grid.dx], grid.x1c, [grid.x1c[-1] + grid.dx]))
    x2 = np.concatenate(([grid.x2c[0] - grid.dy], grid.x2c, [grid.x2c[-1] + grid.dy]))
    x3 = np.concatenate(([grid.x3c[0] - grid.dz], grid.x3c, [grid.x3c[-1] + grid.dz]))
    X1, X2, X3 = np.meshgrid(x1, x2, x3, indexing="ij", sparse=True)
    return np.broadcast_to(f(X1, X2, X3), (grid.nx + 2, grid.ny + 2, grid.nz + 2)).copy()


def test_laplacian_quadratic_x(grid8):
    fe = _sample_extended_cells(grid8, lambda x, y, z: x**2)
    lap = anisotropic_laplacian(fe, (3.0, 1.0, 1.0), grid8)
    assert np.allclose(lap, 6.0, rtol=1e-10)


def test_laplacian_quadratic_z(grid8):
    fe = _sample_extended_cells(grid8, lambda x, y, z: z**2)
    lap = anisotropic_laplacian(fe, (1.0, 1.0, 2.0), grid8)
    assert np.allclose(lap, 4.0, rtol=1e-10)


def test_laplacian_sine_second_order():
    errs = []
    hs = []
    for n in (8, 16, 32):
        g = Grid(n, n, n)
        fe = _sample_extended_cells(
            g, lambda x, y, z: np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z / g.h)
        )
        nu = (1.0, 2.0, 0.5)
        lap = anisotropic_laplacian(fe, nu, g)
        exact = -(np.pi**2) * (nu[0] + nu[1] + nu[2] / g.h**2) * fe[1:-1, 1:-1, 1:-1]
        errs.append(np.max(np.abs(lap - exact)))
        hs.append(g.dx)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


# ---------------------------------------------------------------------------
# solve_separable
# ---------------------------------------------------------------------------


def _dense_second_difference(n, lo, hi):
    """-D2 on n unit cells: a Neumann end mirrors the ghost (diagonal 1), a
    Dirichlet end negates it (diagonal 3)."""
    t = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    t[0, 0] = 1.0 if lo == "neumann" else 3.0
    t[-1, -1] = 1.0 if hi == "neumann" else 3.0
    return t


def _dense_separable(shape, axes, shift):
    a = shift * np.eye(int(np.prod(shape)))
    for d, (c, lo, hi) in enumerate(axes):
        factors = [np.eye(n) for n in shape]
        factors[d] = _dense_second_difference(shape[d], lo, hi)
        k = factors[0]
        for f in factors[1:]:
            k = np.kron(k, f)
        a += c * k
    return a


_G8 = Grid(8, 8, 8)
_NN = ("neumann", "neumann")
_DD = ("dirichlet", "dirichlet")


@pytest.mark.parametrize(
    "shape, axes, shift",
    [
        pytest.param(
            _G8.shape_cells,
            ((1 / _G8.dx**2, *_NN), (1 / _G8.dy**2, *_NN), (1 / (0.0625 * _G8.dz) ** 2, *_NN)),
            0.0,
            id="pressure",
        ),
        pytest.param(
            (_G8.nx, _G8.ny),
            ((_G8.h / _G8.dx**2, *_NN), (_G8.h / _G8.dy**2, *_NN)),
            0.0,
            id="surface",
        ),
        pytest.param(
            _G8.shape_cells,
            ((1 / _G8.dx**2, *_DD), (1 / _G8.dy**2, *_DD), (1 / _G8.dz**2, "neumann", "dirichlet")),
            1.0,
            id="helmholtz",
        ),
    ],
)
def test_solve_separable_inverts_dense_operator(shape, axes, shift):
    """The tensor-product solve against the assembled dense operator: the
    eps^-2 = 256 pressure problem, the 2-D surface problem and the
    translation-modulus smoother (I - Lap)."""
    rng = np.random.default_rng(60)
    g = rng.normal(size=shape)
    singular = shift == 0.0
    if singular:
        g -= g.mean()
    x = solve_separable(g, axes, shift)
    residual = _dense_separable(shape, axes, shift) @ x.ravel() - g.ravel()
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(g))
    if singular:
        assert abs(np.mean(x)) <= 1e-15


def test_concentration_ghosts_match_separable_end_conditions():
    """C's row of BOUNDARY_CONDITIONS read two ways agrees: the Helmholtz
    solve with C's ends, checked by C - Lap_h C with Lap_h the stencil over
    the ghosts of ``apply_concentration_bcs`` (identity tensor), returns g."""
    grid = Grid(7, 5, 6, lx=1.3, ly=0.7, h=0.45)
    g = np.random.default_rng(61).normal(size=grid.shape_cells)
    axes = [(1.0 / h**2, *ends) for h, ends in zip(grid.spacing, BOUNDARY_CONDITIONS["C"])]
    x = solve_separable(g, axes, shift=1.0)
    Ce = apply_concentration_bcs(x, DiffusionTensor(np.eye(3)), grid)
    back = x - anisotropic_laplacian(Ce, (1.0, 1.0, 1.0), grid)
    assert np.max(np.abs(back - g)) <= 1e-12 * np.max(np.abs(g))


# ---------------------------------------------------------------------------
# diffuse_concentration
# ---------------------------------------------------------------------------


def test_diffuse_constant_field(grid8):
    M = DiffusionTensor(
        np.array([[2.0, 0.4, 0.2], [0.4, 1.5, 0.1], [0.2, 0.1, 1.0]])
    )
    C = np.full(grid8.shape_cells, 2.2)
    out = diffuse_concentration(C, M, grid8)
    # Interior rows see a constant field; Gamma_A rows see the Dirichlet wall.
    assert np.max(np.abs(out[2:-2, 2:-2, 1:-2])) < 1e-12


def test_diffuse_identity_reduces_to_laplacian(grid8):
    rng = np.random.default_rng(3)
    C = rng.normal(size=grid8.shape_cells)
    M = DiffusionTensor.identity()
    got = diffuse_concentration(C, M, grid8)
    want = anisotropic_laplacian(apply_concentration_bcs(C, M, grid8), (1, 1, 1), grid8)
    assert np.array_equal(got, want)


def test_diffuse_cross_term_bilinear():
    g = Grid(16, 16, 16)
    M = DiffusionTensor(np.array([[1.0, 0.0, 0.2], [0.0, 1.0, 0.0], [0.2, 0.0, 1.0]]))
    X1, _, X3 = g.centers()
    C = np.broadcast_to(X1 * X3, g.shape_cells).copy()
    out = diffuse_concentration(C, M, g)
    assert np.allclose(out[2:-2, 2:-2, 2:-2], 0.4, atol=1e-10)


def test_diffuse_ground_flux_exactly_zero(grid8):
    """The column sums of the z-flux divergence telescope to the top flux
    alone: the ground flux is imposed exactly zero."""
    rng = np.random.default_rng(4)
    M = DiffusionTensor(np.array([[1.0, 0.1, 0.2], [0.1, 2.0, 0.3], [0.2, 0.3, 1.5]]))
    C = rng.normal(size=grid8.shape_cells)
    dz = grid8.dz
    Ce = apply_concentration_bcs(C, M, grid8)
    d1c = (Ce[2:, 1:-1, 1:-1] - Ce[:-2, 1:-1, 1:-1]) / (2 * grid8.dx)
    d2c = (Ce[1:-1, 2:, 1:-1] - Ce[1:-1, :-2, 1:-1]) / (2 * grid8.dy)
    dCdz_f = (Ce[1:-1, 1:-1, 1:] - Ce[1:-1, 1:-1, :-1]) / dz
    crossz = M.entry(0, 2) * d1c + M.entry(1, 2) * d2c
    fz = M.entry(2, 2) * dCdz_f + _face_avg_axis2(crossz)
    fz[:, :, 0] = 0.0
    zdiv_colsum = np.sum((fz[:, :, 1:] - fz[:, :, :-1]) / dz, axis=2) * dz
    assert np.allclose(zdiv_colsum, fz[:, :, -1], atol=1e-12)
    assert float(np.sum(np.abs(fz[:, :, 0]))) == 0.0


def _face_avg_axis2(c):
    out = np.empty(c.shape[:2] + (c.shape[2] + 1,))
    out[:, :, 1:-1] = 0.5 * (c[:, :, :-1] + c[:, :, 1:])
    out[:, :, 0] = c[:, :, 0]
    out[:, :, -1] = c[:, :, -1]
    return out


def test_diffuse_rejects_noncoercive():
    """diffuse_concentration never sees a non-coercive tensor: the
    constructor refuses it, with the error the config parser reports."""
    with pytest.raises(ValueError, match="coercivity violated"):
        DiffusionTensor(np.diag([1.0, 1.0, -1.0]))


# ---------------------------------------------------------------------------
# apply_concentration_bcs
# ---------------------------------------------------------------------------


def test_concentration_ghosts_diagonal_tensor(grid8):
    rng = np.random.default_rng(5)
    C = rng.normal(size=grid8.shape_cells)
    Ce = apply_concentration_bcs(C, DiffusionTensor.identity(), grid8)
    assert np.array_equal(Ce[1:-1, 1:-1, 0], C[:, :, 0])  # pure Neumann ground
    assert np.array_equal(Ce[0, 1:-1, 1:-1], -C[0])  # Dirichlet walls
    assert np.array_equal(Ce[1:-1, 1:-1, -1], -C[:, :, -1])


def test_concentration_ghosts_constant_field(grid8):
    M = DiffusionTensor(np.array([[1.0, 0.0, 0.3], [0.0, 1.0, 0.1], [0.3, 0.1, 2.0]]))
    C = np.full(grid8.shape_cells, 1.5)
    Ce = apply_concentration_bcs(C, M, grid8)
    assert np.allclose(Ce[1:-1, 1:-1, 0][2:-2, 2:-2], 1.5)  # interior columns
    assert np.allclose(Ce[0, 1:-1, 1:-1], -1.5)


def test_concentration_ground_ghost_solves_robin(grid8):
    """With M31 = M33 and d1C = 1 near the ground the ghost is C_int + dz."""
    M = DiffusionTensor(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 3.0]]))
    # eigenvalues of this matrix: 1 and 2 +- sqrt(2), all positive
    X1, _, _ = grid8.centers()
    C = np.broadcast_to(X1 + 0.0 * X1, grid8.shape_cells).copy()
    Ce = apply_concentration_bcs(C, M, grid8)
    ghost = Ce[1:-1, 1:-1, 0]
    # interior columns have central d1C = 1: ghost = C_int + dz*M31/M33
    want = C[:, :, 0] + grid8.dz * (1.0 / 3.0)
    assert np.allclose(ghost[1:-1, :], want[1:-1, :], atol=1e-12)


# ---------------------------------------------------------------------------
# advect_scalar
# ---------------------------------------------------------------------------


def test_advect_scalar_zero_velocity(grid8):
    rng = np.random.default_rng(6)
    C = rng.normal(size=grid8.shape_cells)
    out = advect_scalar(StaggeredVelocity.zeros(grid8), C, grid8)
    assert np.max(np.abs(out)) == 0.0


def test_advect_scalar_linear_profile(grid8):
    u = sample_velocity(
        grid8,
        lambda x, y, z: 1.0 + 0 * x,
        lambda x, y, z: 0 * y,
        lambda x, y, z: 0 * z,
    )
    X1, _, _ = grid8.centers()
    C = np.broadcast_to(X1 + 0 * X1, grid8.shape_cells).copy()
    out = advect_scalar(u, C, grid8)
    assert np.allclose(out[1:-1], 1.0, atol=1e-13)


def test_advect_scalar_upwind_dissipative(grid8):
    """<C, upwind advection> >= 0 for a divergence-free velocity: the donor
    scheme removes energy, matching the inequality direction of the ledger."""
    rng = np.random.default_rng(7)
    u = projected_velocity(rng, grid8, eps=1.0, tol=1e-12)
    C = smooth_field(rng, grid8, "cells")
    adv = advect_scalar(u, C, grid8)
    val = float(np.sum(C * adv) * grid8.cell_volume)
    assert val >= -1e-12


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 1000))
def test_advect_scalar_upwind_monotone(seed):
    """One donor-cell step with sum-CFL <= 1 keeps C inside its initial range."""
    g = Grid(6, 6, 6)
    rng = np.random.default_rng(seed)
    u = projected_velocity(rng, g, eps=1.0, tol=1e-12)
    C = rng.uniform(0.0, 1.0, size=g.shape_cells)
    speed = (
        np.max(np.abs(u.u1)) / g.dx + np.max(np.abs(u.u2)) / g.dy + np.max(np.abs(u.u3)) / g.dz
    )
    dt = 0.9 / max(speed, 1e-12)
    C1 = C - dt * advect_scalar(u, C, g)
    assert C1.min() >= C.min() - 1e-10
    assert C1.max() <= C.max() + 1e-10


# ---------------------------------------------------------------------------
# advect_velocity
# ---------------------------------------------------------------------------


def _edge_extension(u):
    """Constant edge extension of every component: adequate for interior
    verification against analytic fields."""
    return VelocityExtension(*(np.pad(c, 1, mode="edge") for c in u.components()))


def test_advect_velocity_constant_field(grid8):
    u = sample_velocity(
        grid8,
        lambda x, y, z: 0.7 + 0 * x,
        lambda x, y, z: -0.4 + 0 * y,
        lambda x, y, z: 0.2 + 0 * z,
    )
    adv = advect_velocity(u, grid8, _edge_extension(u))
    assert np.max(np.abs(adv.u1)) < 1e-14
    assert np.max(np.abs(adv.u2)) < 1e-14
    assert np.max(np.abs(adv.u3)) < 1e-14


def test_advect_velocity_rigid_rotation_centripetal():
    g = Grid(16, 16, 8, lx=2.0, ly=2.0, h=1.0)
    # centred rotation (-(y-1), (x-1), 0); interior faces see exact donors
    u = sample_velocity(
        g,
        lambda x, y, z: -(y - 1.0) + 0 * x,
        lambda x, y, z: (x - 1.0) + 0 * y,
        lambda x, y, z: 0 * z,
    )
    adv = advect_velocity(u, g, _edge_extension(u))
    X = g.u1_positions()
    want1 = np.broadcast_to(-(X[0] - 1.0) + 0 * X[1], g.shape_u1)
    Y = g.u2_positions()
    want2 = np.broadcast_to(-(Y[1] - 1.0) + 0 * Y[0], g.shape_u2)
    sl = (slice(2, -2), slice(2, -2), slice(2, -2))
    assert np.allclose(adv.u1[sl], want1[sl], atol=1e-12)
    assert np.allclose(adv.u2[sl], want2[sl], atol=1e-12)


def _naive_advect_u1(u, g):
    """Upwind loop oracle for the u1 component with edge-replicated ghosts."""
    nx, ny, nz = g.nx, g.ny, g.nz
    u1p = np.pad(u.u1, 1, mode="edge")

    def donor(lo, hi, s):
        return lo if s > 0 else hi

    adv = np.zeros_like(u.u1)
    for i in range(1, nx):
        for j in range(ny):
            for k in range(nz):
                # x-direction
                ue = 0.5 * (u.u1[i, j, k] + u.u1[i + 1, j, k])
                uw = 0.5 * (u.u1[i - 1, j, k] + u.u1[i, j, k])
                fe = ue * donor(u.u1[i, j, k], u.u1[i + 1, j, k], ue)
                fw = uw * donor(u.u1[i - 1, j, k], u.u1[i, j, k], uw)
                total = (fe - fw) / g.dx
                # y-direction
                vn = 0.5 * (u.u2[i - 1, j + 1, k] + u.u2[i, j + 1, k])
                vs = 0.5 * (u.u2[i - 1, j, k] + u.u2[i, j, k])
                fn = vn * donor(u1p[i + 1, j + 1, k + 1], u1p[i + 1, j + 2, k + 1], vn)
                fs = vs * donor(u1p[i + 1, j, k + 1], u1p[i + 1, j + 1, k + 1], vs)
                total += (fn - fs) / g.dy
                # z-direction
                wt = 0.5 * (u.u3[i - 1, j, k + 1] + u.u3[i, j, k + 1])
                wb = 0.5 * (u.u3[i - 1, j, k] + u.u3[i, j, k])
                ft = wt * donor(u1p[i + 1, j + 1, k + 1], u1p[i + 1, j + 1, k + 2], wt)
                fb = wb * donor(u1p[i + 1, j + 1, k], u1p[i + 1, j + 1, k + 1], wb)
                total += (ft - fb) / g.dz
                adv[i, j, k] = total
    return adv


def test_advect_velocity_matches_loop_oracle(grid_small):
    g = grid_small
    rng = np.random.default_rng(8)
    u = StaggeredVelocity(
        rng.normal(size=g.shape_u1),
        rng.normal(size=g.shape_u2),
        rng.normal(size=g.shape_u3),
    )
    adv = advect_velocity(u, g, _edge_extension(u))
    want = _naive_advect_u1(u, g)
    assert np.allclose(adv.u1, want, rtol=1e-12, atol=1e-13)


def test_advect_velocity_solenoidal_stretching(grid8):
    """Stretching field (x, -y, 0): the upwind self-advection of a linear
    field is the exact c^2*(x, y, 0) shifted by half a cell upwind, i.e.
    c^2*(x - dx/2, y + dy/2, 0) in the interior, and matches the loop oracle."""
    c = 0.5
    u = sample_velocity(
        grid8,
        lambda x, y, z: c * x,
        lambda x, y, z: -c * y,
        lambda x, y, z: 0 * z,
    )
    adv = advect_velocity(u, grid8, _edge_extension(u))
    X = grid8.u1_positions()
    Y = grid8.u2_positions()
    want1 = np.broadcast_to(c**2 * (X[0] - grid8.dx / 2) + 0 * X[1], grid8.shape_u1)
    want2 = np.broadcast_to(c**2 * (Y[1] + grid8.dy / 2) + 0 * Y[0], grid8.shape_u2)
    sl = (slice(2, -2), slice(2, -2), slice(2, -2))
    assert np.allclose(adv.u1[sl], want1[sl], atol=1e-12)
    assert np.allclose(adv.u2[sl], want2[sl], atol=1e-12)
    assert np.allclose(adv.u1, _naive_advect_u1(u, grid8), rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# velocity boundary conditions and ghosts
# ---------------------------------------------------------------------------


def test_apply_velocity_bcs_zeroes_boundary_faces(grid8):
    rng = np.random.default_rng(9)
    u = apply_velocity_bcs(
        StaggeredVelocity(
            rng.normal(size=grid8.shape_u1),
            rng.normal(size=grid8.shape_u2),
            rng.normal(size=grid8.shape_u3),
        )
    )
    assert np.all(u.u1[0] == 0.0) and np.all(u.u1[-1] == 0.0)
    assert np.all(u.u2[:, 0] == 0.0) and np.all(u.u2[:, -1] == 0.0)
    assert np.all(u.u3[:, :, 0] == 0.0) and np.all(u.u3[:, :, -1] == 0.0)


def test_ghost_zero_traction_is_neumann(grid8):
    rng = np.random.default_rng(10)
    u = smooth_velocity(rng, grid8)
    ext = extend_velocity(u, None, 0.3, grid8)
    assert np.array_equal(ext.u1e[1:-1, 1:-1, 0], u.u1[:, :, 0])
    assert np.array_equal(ext.u2e[1:-1, 1:-1, 0], u.u2[:, :, 0])


def test_ghost_traction_shift(grid8):
    """theta1 = nu3/dz makes the ground ghost exactly interior - 1."""
    nu3 = 0.7
    theta = BoundaryForcing.constant(grid8, nu3 / grid8.dz, 0.0)
    rng = np.random.default_rng(11)
    u = smooth_velocity(rng, grid8)
    ext = extend_velocity(u, theta, nu3, grid8)
    assert np.allclose(ext.u1e[1:-1, 1:-1, 0], u.u1[:, :, 0] - 1.0, atol=1e-13)


def test_ghost_dirichlet_walls(grid8):
    rng = np.random.default_rng(12)
    u = smooth_velocity(rng, grid8)
    ext = extend_velocity(u, None, 1.0, grid8, "aniso")
    assert np.array_equal(ext.u1e[1:-1, 0, 1:-1], -u.u1[:, 0])
    assert np.array_equal(ext.u1e[1:-1, 1:-1, -1], -u.u1[:, :, -1])
    assert np.array_equal(ext.u3e[0, 1:-1, 1:-1], -u.u3[0])
    ext_h = extend_velocity(u, None, 1.0, grid8, "hydro")
    assert np.array_equal(ext_h.u1e, ext.u1e) and ext_h.u3e is None


def test_theta_faces_interpolation(grid8):
    t1 = np.arange(grid8.nx * grid8.ny, dtype=float).reshape(grid8.nx, grid8.ny)
    theta = BoundaryForcing(t1, np.zeros_like(t1))
    t1f, _ = theta_faces(theta, grid8)
    assert np.allclose(t1f[1:-1], 0.5 * (t1[:-1] + t1[1:]))
    assert np.array_equal(t1f[0], t1[0])
    assert np.array_equal(t1f[-1], t1[-1])
