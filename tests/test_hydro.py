"""Hydrostatic stepper: barotropic projection, diagnostic w, energy decay."""

import numpy as np
import pytest

from hydrolimit.core import DiffusionTensor, PhysParams
from hydrolimit.operators import StaggeredVelocity, apply_velocity_bcs, divergence
from hydrolimit.aniso import ProjectionError, SimState, stable_dt
from hydrolimit.harness import step
from hydrolimit.hydro import hydrostatic_velocity, surface_pressure_projection

from conftest import default_params, smooth_field, smooth_velocity


def hydro_state(grid, u1, u2, C=None):
    u3 = hydrostatic_velocity(u1, u2, grid)[0].u3
    C = np.zeros(grid.shape_cells) if C is None else C
    return SimState(0.0, 0, StaggeredVelocity(u1, u2, u3), np.zeros((grid.nx, grid.ny)), C)


# ---------------------------------------------------------------------------
# diagnosed w
# ---------------------------------------------------------------------------


def test_diagnose_w_zero(grid8):
    u1, u2 = np.zeros(grid8.shape_u1), np.zeros(grid8.shape_u2)
    u3 = hydrostatic_velocity(u1, u2, grid8)[0].u3
    assert np.max(np.abs(u3)) == 0.0


def test_diagnose_w_linear_profile(grid8):
    """uH = (-c*x1, 0): div_H = -c so u3 = c*x3 at the interfaces."""
    c = 0.8
    X = grid8.u1_positions()
    u1 = np.broadcast_to(-c * X[0] + 0 * X[1], grid8.shape_u1).copy()
    u2 = np.zeros(grid8.shape_u2)
    u3 = hydrostatic_velocity(u1, u2, grid8)[0].u3
    want = np.broadcast_to(c * grid8.x3f[None, None, :], grid8.shape_u3)
    assert np.allclose(u3, want, atol=1e-13)


def test_diagnose_w_solenoidal_horizontal(grid8):
    """uH = (-x2, x1) has div_H = 0, so u3 stays identically zero."""
    X = grid8.u1_positions()
    u1 = np.broadcast_to(-(X[1]) + 0 * X[0], grid8.shape_u1).copy()
    Y = grid8.u2_positions()
    u2 = np.broadcast_to(Y[0] + 0 * Y[1], grid8.shape_u2).copy()
    u3 = hydrostatic_velocity(u1, u2, grid8)[0].u3
    assert np.max(np.abs(u3)) < 1e-13


def test_diagnose_w_exact_3d_divergence(grid8):
    rng = np.random.default_rng(40)
    u = smooth_velocity(rng, grid8)
    u3 = hydrostatic_velocity(u.u1, u.u2, grid8)[0].u3
    full = StaggeredVelocity(u.u1, u.u2, u3)
    assert np.max(np.abs(divergence(full, grid8))) < 1e-12


# ---------------------------------------------------------------------------
# surface_pressure_projection
# ---------------------------------------------------------------------------


def _depth_integrated_divergence(u1, u2, grid):
    int1 = np.sum(u1, axis=2) * grid.dz
    int2 = np.sum(u2, axis=2) * grid.dz
    return (int1[1:] - int1[:-1]) / grid.dx + (int2[:, 1:] - int2[:, :-1]) / grid.dy


def _smooth_wall_horizontal_velocity(grid):
    u = smooth_velocity(np.random.default_rng(41), grid)
    u1 = u.u1.copy()
    u2 = u.u2.copy()
    u1[0] = u1[-1] = 0.0
    u2[:, 0] = u2[:, -1] = 0.0
    return u1, u2


def test_surface_projection_nondivergent_input(grid8):
    """Depth-integrated solenoidal uH passes through unchanged.

    A discrete corner streamfunction gives an exactly divergence-free sample.
    """
    xc = grid8.x1f[:, None]
    yc = grid8.x2f[None, :]
    psi = np.sin(np.pi * xc / grid8.lx) ** 2 * np.sin(np.pi * yc / grid8.ly) ** 2
    u1 = np.broadcast_to(((psi[:, 1:] - psi[:, :-1]) / grid8.dy)[:, :, None], grid8.shape_u1).copy()
    u2 = np.broadcast_to((-(psi[1:] - psi[:-1]) / grid8.dx)[:, :, None], grid8.shape_u2).copy()
    u1n, u2n, ps, info = surface_pressure_projection(u1, u2, 0.01, grid8, tol=1e-10)
    assert info["iterations"] == 0
    assert np.max(np.abs(ps)) < 1e-12
    assert np.array_equal(u1n, u1)


def test_surface_projection_recovers_potential(grid8):
    """Level-independent uH* = grad_H(phi) returns ps = phi - mean."""
    x1 = grid8.x1c
    x2 = grid8.x2c
    phi = np.cos(np.pi * x1 / grid8.lx)[:, None] * np.cos(np.pi * x2 / grid8.ly)[None, :]
    dt = 0.02
    u1 = np.zeros(grid8.shape_u1)
    u2 = np.zeros(grid8.shape_u2)
    u1[1:-1] = dt * ((phi[1:] - phi[:-1]) / grid8.dx)[:, :, None]
    u2[:, 1:-1] = dt * ((phi[:, 1:] - phi[:, :-1]) / grid8.dy)[:, :, None]
    u1n, u2n, ps, _ = surface_pressure_projection(u1, u2, dt, grid8, tol=1e-13)
    assert np.allclose(ps, (phi - phi.mean()) / grid8.h, atol=1e-8)
    assert np.max(np.abs(u1n)) < 1e-8


def test_surface_projection_divergence_tolerance(grid8):
    u1, u2 = _smooth_wall_horizontal_velocity(grid8)
    tol = 1e-9
    u1n, u2n, ps, _ = surface_pressure_projection(u1, u2, 0.01, grid8, tol=tol)
    div_h = _depth_integrated_divergence(u1n, u2n, grid8)
    assert np.max(np.abs(div_h)) <= 10.0 * tol
    # diagnosed top interface value inherits the projection tolerance
    u3 = hydrostatic_velocity(u1n, u2n, grid8)[0].u3
    assert np.max(np.abs(u3[:, :, -1])) <= 10.0 * tol / grid8.h


def test_surface_projection_reports_true_divergence(grid8):
    u1, u2 = _smooth_wall_horizontal_velocity(grid8)
    u1n, u2n, _, info = surface_pressure_projection(u1, u2, 0.01, grid8, tol=1e-12)
    mean = np.mean(_depth_integrated_divergence(u1, u2, grid8))
    true = np.max(np.abs(_depth_integrated_divergence(u1n, u2n, grid8) - mean))
    assert info["max_div"] == pytest.approx(true, rel=1e-12, abs=0.0)


def test_surface_projection_tolerance_below_roundoff_raises(grid8):
    """Double precision leaves a depth-integrated divergence near 3e-14 here."""
    u1, u2 = _smooth_wall_horizontal_velocity(grid8)
    with pytest.raises(ProjectionError, match="exceeds tol"):
        surface_pressure_projection(u1, u2, 0.01, grid8, tol=1e-16)


# ---------------------------------------------------------------------------
# step, mode "hydro"
# ---------------------------------------------------------------------------


def test_hydro_zero_state_fixed_point(grid8):
    params = default_params(eps=0.5)
    M = DiffusionTensor.identity()
    st = SimState.zeros(grid8, mode="hydro")
    dt = stable_dt(st, params, M, grid8, cfl=0.5)
    for _ in range(5):
        st, _ = step(st, params, M, None, None, dt, grid8, "hydro")
    assert np.max(np.abs(st.u.u1)) == 0.0
    assert np.max(np.abs(st.C)) == 0.0


def test_hydro_pure_decay_without_rotation(grid8):
    rng = np.random.default_rng(42)
    params = PhysParams(0.02, 0.02, 0.02, eps=0.5, f0=0.0)
    M = DiffusionTensor.identity()
    u = apply_velocity_bcs(smooth_velocity(rng, grid8))
    u1n, u2n, _, _ = surface_pressure_projection(u.u1, u.u2, 1.0, grid8, tol=1e-11)
    st = hydro_state(grid8, u1n, u2n)
    dt = stable_dt(st, params, M, grid8, cfl=0.4)
    dV = grid8.cell_volume

    def uh_norm(s):
        return np.sqrt(dV * (np.sum(s.u.u1**2) + np.sum(s.u.u2**2)))

    n_prev = uh_norm(st)
    for _ in range(25):
        st, _ = step(st, params, M, None, None, dt, grid8, "hydro", tol=1e-11)
        n = uh_norm(st)
        assert n <= n_prev + 1e-13
        n_prev = n


def test_hydro_pressure_is_2d_and_reconstruction_constant(grid8):
    rng = np.random.default_rng(43)
    params = default_params(eps=0.5)
    M = DiffusionTensor.identity()
    u = apply_velocity_bcs(smooth_velocity(rng, grid8))
    u1n, u2n, _, _ = surface_pressure_projection(u.u1, u.u2, 1.0, grid8, tol=1e-11)
    st = hydro_state(grid8, u1n, u2n, smooth_field(rng, grid8))
    dt = stable_dt(st, params, M, grid8, cfl=0.4)
    st, _ = step(st, params, M, None, None, dt, grid8, "hydro")
    assert st.p.shape == (grid8.nx, grid8.ny)
    p3 = np.broadcast_to(st.p[:, :, None], grid8.shape_cells)
    assert np.max(np.abs(np.diff(p3, axis=2))) == 0.0


def test_hydro_steps_preserve_exact_3d_divergence(grid8):
    rng = np.random.default_rng(44)
    params = default_params(eps=0.5)
    M = DiffusionTensor.identity()
    u = apply_velocity_bcs(smooth_velocity(rng, grid8))
    u1n, u2n, _, _ = surface_pressure_projection(u.u1, u.u2, 1.0, grid8, tol=1e-10)
    st = hydro_state(grid8, u1n, u2n, smooth_field(rng, grid8))
    dt = stable_dt(st, params, M, grid8, cfl=0.4)
    for _ in range(10):
        st, _ = step(st, params, M, None, None, dt, grid8, "hydro", tol=1e-10)
        assert np.max(np.abs(divergence(st.u, grid8))) < 1e-12


def test_hydro_differs_from_aniso_at_eps_one(grid8):
    """Sanity anti-test: the systems differ even at eps = 1."""
    rng = np.random.default_rng(45)
    params = default_params(eps=1.0, nu=0.02)
    M = DiffusionTensor.identity()
    u = apply_velocity_bcs(smooth_velocity(rng, grid8))
    C0 = np.abs(smooth_field(rng, grid8))

    from hydrolimit.aniso import pressure_projection_anisotropic

    ua, _, _ = pressure_projection_anisotropic(u, 1.0, 1.0, grid8, tol=1e-11)
    st_a = SimState(0.0, 0, ua, np.zeros(grid8.shape_cells), C0.copy())

    u1h, u2h, _, _ = surface_pressure_projection(u.u1, u.u2, 1.0, grid8, tol=1e-11)
    st_h = hydro_state(grid8, u1h, u2h, C0.copy())

    dt = 0.5 * min(
        stable_dt(st_a, params, M, grid8, cfl=1.0), stable_dt(st_h, params, M, grid8, cfl=1.0)
    )
    for _ in range(10):
        st_a, _ = step(st_a, params, M, None, None, dt, grid8, "aniso", tol=1e-11)
        st_h, _ = step(st_h, params, M, None, None, dt, grid8, "hydro", tol=1e-11)
    diff = np.max(np.abs(st_a.u.u1 - st_h.u.u1))
    assert diff > 1e-6
