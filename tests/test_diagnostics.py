"""Energy ledger, norm tables, translation modulus, weak residuals, metrics."""

import math

import numpy as np
import pytest

from hydrolimit.core import BoundaryForcing, DiffusionTensor
from hydrolimit.operators import (
    StaggeredVelocity,
    anisotropic_laplacian,
    apply_velocity_bcs,
    extend_velocity,
    solve_separable,
)
from hydrolimit.aniso import SimState, stable_dt
from hydrolimit.harness import step
from hydrolimit.diagnostics import (
    ConvergenceRow,
    RunHistory,
    ScalarTestFunction,
    StreamTestVelocity,
    VerticalTestVelocity,
    apriori_norms,
    boundary_pairing,
    concentration_dissipation,
    convergence_report,
    diffusion_quadratic_form,
    energy_balance,
    max_divergence,
    spacetime_errors,
    translation_modulus,
    velocity_dissipation,
    weak_residual,
)
from hydrolimit.sources import Source, SourceSpec

from conftest import default_params, projected_velocity, random_spd_tensor, smooth_field, smooth_velocity


def make_history(grid, params, M, states, dt, mode="aniso", theta=None, source=None):
    return RunHistory(mode, grid, params, M, theta, source, dt, states)


def zero_history(grid, params, M, n=4, mode="aniso"):
    states = [
        SimState(m * 0.1, m, StaggeredVelocity.zeros(grid),
                 np.zeros(grid.shape_cells) if mode == "aniso" else np.zeros((grid.nx, grid.ny)),
                 np.zeros(grid.shape_cells))
        for m in range(n)
    ]
    return make_history(grid, params, M, states, 0.1, mode)


def run_aniso(grid, params, M, steps, theta=None, source=None, cfl=0.4, seed=1, tol=1e-11):
    rng = np.random.default_rng(seed)
    u0 = projected_velocity(rng, grid, eps=params.eps, tol=1e-12)
    C0 = np.abs(smooth_field(rng, grid))
    st = SimState(0.0, 0, u0, np.zeros(grid.shape_cells), C0)
    dt = stable_dt(st, params, M, grid, cfl=cfl)
    states = [st]
    for _ in range(steps):
        st, _ = step(st, params, M, theta, source, dt, grid, "aniso", tol=tol)
        states.append(st)
    return make_history(grid, params, M, states, dt, "aniso", theta, source)


# ---------------------------------------------------------------------------
# dissipation quadratics: exactness identities
# ---------------------------------------------------------------------------


def test_velocity_dissipation_is_exact_laplacian_pairing(grid8):
    """-<u_H, Lap_nu u_H> dV = |grad_nu u_H|^2 - <theta, u_H>_ground exactly."""
    rng = np.random.default_rng(50)
    nu = (0.03, 0.05, 0.02)
    theta = BoundaryForcing.constant(grid8, 0.4, -0.3)
    u = apply_velocity_bcs(smooth_velocity(rng, grid8))
    ext = extend_velocity(u, theta, nu[2], grid8, "aniso")
    dV = grid8.cell_volume

    lap1 = anisotropic_laplacian(ext.u1e, nu, grid8)
    lap2 = anisotropic_laplacian(ext.u2e, nu, grid8)
    pair = float(np.sum(u.u1 * lap1) * dV + np.sum(u.u2 * lap2) * dV)

    diss_h, _ = velocity_dissipation(u, nu, grid8)
    work = boundary_pairing(u, theta, grid8)
    assert pair == pytest.approx(-diss_h - work, rel=1e-12)


def test_u3_dissipation_identity(grid8):
    rng = np.random.default_rng(51)
    nu = (0.03, 0.05, 0.02)
    u = apply_velocity_bcs(smooth_velocity(rng, grid8))
    ext = extend_velocity(u, None, nu[2], grid8, "aniso")
    lap3 = anisotropic_laplacian(ext.u3e, nu, grid8)
    pair = float(np.sum(u.u3 * lap3) * grid8.cell_volume)
    _, diss_3 = velocity_dissipation(u, nu, grid8)
    assert pair == pytest.approx(-diss_3, rel=1e-12)


def test_concentration_dissipation_positive_diagonal(grid8):
    rng = np.random.default_rng(52)
    C = smooth_field(rng, grid8)
    M = DiffusionTensor(np.diag([1.0, 2.0, 0.5]))
    assert concentration_dissipation(C, M, grid8) > 0.0


# ---------------------------------------------------------------------------
# coercivity of the quadratic form
# ---------------------------------------------------------------------------


def test_quadratic_form_coercivity_random_tensors(grid_small):
    from hydrolimit.core import coercivity_constant

    rng = np.random.default_rng(53)
    for _ in range(100):
        M, _ = random_spd_tensor(rng)
        lam = coercivity_constant(M)
        C = rng.normal(size=grid_small.shape_cells)
        qm, qg = diffusion_quadratic_form(C, M, grid_small)
        assert qm >= lam * qg * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# energy_balance
# ---------------------------------------------------------------------------


def test_energy_zero_history(grid8):
    params = default_params()
    hist = zero_history(grid8, params, DiffusionTensor.identity())
    rep = energy_balance(hist)
    assert np.all(rep.E == 0.0)
    assert np.all(rep.slack == 0.0)
    assert np.all(rep.D == 0.0)


def test_energy_empty_history_rejected(grid8):
    """A history needs two states: no time integral exists over one."""
    one = zero_history(grid8, default_params(), DiffusionTensor.identity(), n=2).states[:1]
    for states in ([], one):
        with pytest.raises(ValueError, match="at least two states"):
            RunHistory("aniso", grid8, default_params(), DiffusionTensor.identity(),
                       None, None, 0.1, states)


def test_energy_slack_nonnegative_unforced(grid8):
    params = default_params(eps=0.25, nu=0.02)
    M = DiffusionTensor.identity()
    hist = run_aniso(grid8, params, M, steps=25)
    rep = energy_balance(hist)
    assert np.min(rep.slack) >= -1e-13


def test_energy_coercivity_bound_below_dissipation_term(grid8):
    """(M grad C, grad C) >= lambda |grad C|^2 holds for the reported pair."""
    from hydrolimit.core import coercivity_constant

    rng = np.random.default_rng(54)
    M, _ = random_spd_tensor(rng)
    lam = coercivity_constant(M)
    C = smooth_field(rng, grid8)
    qm, qg = diffusion_quadratic_form(C, M, grid8)
    assert qm >= lam * qg * (1 - 1e-12)


# ---------------------------------------------------------------------------
# apriori_norms
# ---------------------------------------------------------------------------


def test_apriori_zero_history(grid8):
    hist = zero_history(grid8, default_params(), DiffusionTensor.identity())
    norms = apriori_norms(hist)
    assert all(v == 0.0 for v in norms.values())


def test_apriori_constant_concentration_closed_form(grid8):
    params = default_params(eps=0.5)
    rng = np.random.default_rng(55)
    C = smooth_field(rng, grid8)
    n = 6
    dt = 0.05
    states = [
        SimState(m * dt, m, StaggeredVelocity.zeros(grid8), np.zeros(grid8.shape_cells), C)
        for m in range(n)
    ]
    hist = make_history(grid8, params, DiffusionTensor.identity(), states, dt)
    norms = apriori_norms(hist)
    dV = grid8.cell_volume
    l2C = math.sqrt(np.sum(C**2) * dV)
    T = (n - 1) * dt
    assert norms["sup_L2_C"] == pytest.approx(l2C, rel=1e-12)
    # H1 norm of a time-constant field: L2-in-time gives sqrt(T) * value
    h1 = norms["L2H1_C"]
    from hydrolimit.diagnostics import _h1_sq

    assert h1 == pytest.approx(math.sqrt(T * _h1_sq(C, grid8)), rel=1e-12)


def test_apriori_eps_weighting(grid8):
    rng = np.random.default_rng(56)
    params = default_params(eps=0.25)
    u = smooth_velocity(rng, grid8)
    states = [SimState(0.0, 0, u, np.zeros(grid8.shape_cells), np.zeros(grid8.shape_cells)),
              SimState(0.1, 1, u, np.zeros(grid8.shape_cells), np.zeros(grid8.shape_cells))]
    hist = make_history(grid8, params, DiffusionTensor.identity(), states, 0.1)
    norms = apriori_norms(hist)
    dV = grid8.cell_volume
    assert norms["sup_L2_eps_u3"] == pytest.approx(
        0.25 * math.sqrt(np.sum(u.u3**2) * dV), rel=1e-12
    )


# ---------------------------------------------------------------------------
# translation_modulus
# ---------------------------------------------------------------------------


def test_translation_modulus_time_constant_zero(grid8):
    rng = np.random.default_rng(57)
    C = smooth_field(rng, grid8)
    dt = 0.05
    history = [C] * 21
    rep = translation_modulus(history, dt, grid8, [dt, 2 * dt, 4 * dt])
    assert np.all(rep.modulus == 0.0)


def test_translation_modulus_linear_growth_closed_form(grid8):
    """C(t) = t*g: modulus(h) = h * |N_g| * sqrt(T - h), exponent 1."""
    rng = np.random.default_rng(58)
    g = smooth_field(rng, grid8)
    dt = 0.05
    n = 21
    T = (n - 1) * dt
    history = [m * dt * g for m in range(n)]
    hs = [dt, 2 * dt, 4 * dt]
    rep = translation_modulus(history, dt, grid8, hs)
    walls = ("dirichlet", "dirichlet")
    axes = (
        (1.0 / grid8.dx**2, *walls),
        (1.0 / grid8.dy**2, *walls),
        (1.0 / grid8.dz**2, "neumann", "dirichlet"),
    )
    ng = math.sqrt(np.sum(solve_separable(g, axes, shift=1.0) ** 2) * grid8.cell_volume)
    for h, mod in zip(rep.h, rep.modulus):
        assert mod == pytest.approx(h * ng * math.sqrt(T - h), rel=1e-12)
    # raw fit carries the slowly varying sqrt(T - h) factor
    assert rep.exponent == pytest.approx(1.0, abs=0.1)
    compensated = rep.modulus / np.sqrt(T - rep.h)
    slope = np.polyfit(np.log(rep.h), np.log(compensated), 1)[0]
    assert slope == pytest.approx(1.0, abs=1e-9)


def test_translation_modulus_time_reversal_symmetric(grid8):
    rng = np.random.default_rng(59)
    dt = 0.05
    history = [smooth_field(rng, grid8) for _ in range(16)]
    hs = [dt, 2 * dt, 3 * dt]
    a = translation_modulus(history, dt, grid8, hs)
    b = translation_modulus(history[::-1], dt, grid8, hs)
    assert np.allclose(a.modulus, b.modulus, rtol=1e-12)


def test_translation_modulus_requires_three_shifts(grid8):
    with pytest.raises(ValueError, match="3"):
        translation_modulus([np.zeros(grid8.shape_cells)] * 10, 0.1, grid8, [0.1, 0.2])


# ---------------------------------------------------------------------------
# weak_residual
# ---------------------------------------------------------------------------


def test_weak_residual_zero_solution(grid8):
    params = default_params(eps=0.5)
    hist = zero_history(grid8, params, DiffusionTensor.identity(), n=6)
    records = weak_residual(hist)
    for rec in records:
        assert rec.residual <= 1e-14


def test_weak_residual_zero_solution_hydro(grid8):
    params = default_params(eps=0.5)
    hist = zero_history(grid8, params, DiffusionTensor.identity(), n=6, mode="hydro")
    records = weak_residual(hist)
    for rec in records:
        assert rec.residual <= 1e-14


def test_weak_residual_linear_in_test_function(grid8):
    params = default_params(eps=0.5, nu=0.02)
    hist = run_aniso(grid8, params, DiffusionTensor.identity(), steps=10)
    tc = hist.T - hist.dt
    v1 = StreamTestVelocity(t_cut=tc, kx=1, ky=1, amp=1.0)
    v3 = StreamTestVelocity(t_cut=tc, kx=1, ky=1, amp=3.0)
    c1 = ScalarTestFunction(t_cut=tc, amp=1.0)
    c3 = ScalarTestFunction(t_cut=tc, amp=3.0)
    r1, rc1 = weak_residual(hist, [v1], [c1])
    r3, rc3 = weak_residual(hist, [v3], [c3])
    for key in r1.lhs:
        assert r3.lhs[key] == pytest.approx(3.0 * r1.lhs[key], rel=1e-10, abs=1e-15)
    for key in r1.rhs:
        assert r3.rhs[key] == pytest.approx(3.0 * r1.rhs[key], rel=1e-10, abs=1e-15)
    for key in rc1.lhs:
        assert rc3.lhs[key] == pytest.approx(3.0 * rc1.lhs[key], rel=1e-10, abs=1e-15)


def test_weak_residual_delta_source_uses_point_value(grid8):
    """For the deposit source the RHS term is the test function at x_s."""
    params = default_params(eps=0.5)
    src = SourceSpec("delta_deposit", 2.0, t_s=0.0, x_s=(0.5, 0.5, 0.5))
    n = 6
    dt = 0.02
    states = [
        SimState(m * dt, m, StaggeredVelocity.zeros(grid8),
                 np.zeros((grid8.nx, grid8.ny)), np.zeros(grid8.shape_cells))
        for m in range(n)
    ]
    hist = make_history(grid8, params, DiffusionTensor.identity(), states, dt, "hydro",
                        source=Source(src, grid8))
    tc = hist.T - dt
    c = ScalarTestFunction(t_cut=tc, kx=1, ky=1)
    (rec,) = [r for r in weak_residual(hist, [], [c]) if r.kind == "concentration"]
    # trapezoid of 2 * C~(x_s, t) over the snapshots
    want = 0.0
    for m in range(n):
        w = dt * (0.5 if m in (0, n - 1) else 1.0)
        want += w * 2.0 * c.value_at((0.5, 0.5, 0.5), grid8, m * dt)
    assert rec.rhs["source"] == pytest.approx(want, rel=1e-12)


def test_weak_residual_rejects_bad_test_function(grid8):
    params = default_params(eps=0.5)
    hist = zero_history(grid8, params, DiffusionTensor.identity(), n=4)
    bad = StreamTestVelocity(t_cut=10.0 * hist.T)  # does not vanish at T
    with pytest.raises(ValueError, match="vanish"):
        weak_residual(hist, [bad], [])


def test_test_velocities_divergence_free(grid8):
    for v in (StreamTestVelocity(t_cut=1.0), VerticalTestVelocity(t_cut=1.0, kx=2)):
        assert max_divergence(v.fields(grid8)) < 1e-12


# ---------------------------------------------------------------------------
# convergence metrics
# ---------------------------------------------------------------------------


def test_convergence_self_comparison_zero(grid8):
    params = default_params(eps=0.5, nu=0.02)
    hist = run_aniso(grid8, params, DiffusionTensor.identity(), steps=8)
    errs = spacetime_errors(hist, hist)
    assert errs == (0.0, 0.0, 0.0)
    rep = convergence_report([ConvergenceRow(hist.params.eps, *errs)])
    assert rep.rows[0].err_uH == 0.0


def test_convergence_rows_sorted_and_schedule_checked(grid8):
    params_a = default_params(eps=0.5, nu=0.02)
    params_b = default_params(eps=0.25, nu=0.02)
    M = DiffusionTensor.identity()
    ha = run_aniso(grid8, params_a, M, steps=8, seed=3)
    hb = run_aniso(grid8, params_b, M, steps=8, seed=3)
    # identical schedule required by the metric: force matching dt
    hb.dt = ha.dt
    rep = convergence_report(
        [ConvergenceRow(h.params.eps, *spacetime_errors(h, ha)) for h in (hb, ha)]
    )
    assert rep.rows[0].eps == 0.5
    assert rep.rows[1].eps == 0.25
    bad = make_history(grid8, params_b, M, hb.states[:-2], ha.dt)
    with pytest.raises(ValueError, match="schedule"):
        spacetime_errors(bad, ha)
