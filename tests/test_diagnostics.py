"""Energy ledger, norm tables, translation modulus, weak residuals, metrics."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hydrolimit.core import BoundaryForcing, DiffusionTensor, Grid
from hydrolimit.operators import (
    StaggeredVelocity,
    anisotropic_laplacian,
    apply_velocity_bcs,
    extend_velocity,
    solve_separable,
)
from hydrolimit.aniso import SimState, stability_limits
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
    dt = cfl * min(stability_limits(st, params, M, grid).values())
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


def test_hydrostatic_dissipation_and_gradients_skip_the_diagnosed_u3(grid8):
    """In "hydro" u3 is diagnosed and not extended: its dissipation is 0.0
    and it has no gradients, while u_H's terms are those of "aniso"."""
    from hydrolimit.diagnostics import _solution_center_gradients

    rng = np.random.default_rng(52)
    nu = (0.03, 0.05, 0.02)
    u = apply_velocity_bcs(smooth_velocity(rng, grid8))
    hydro = velocity_dissipation(u, nu, grid8, "hydro")
    aniso = velocity_dissipation(u, nu, grid8)
    assert hydro[1] == 0.0 and aniso[1] > 0.0
    assert hydro[0] == aniso[0]

    states = [SimState(m * 0.1, m, u, np.zeros((grid8.nx, grid8.ny)), np.zeros(grid8.shape_cells))
              for m in range(2)]
    hist = make_history(grid8, default_params(), DiffusionTensor.identity(), states, 0.1, "hydro")
    g1, g2, g3 = _solution_center_gradients(u, hist)
    assert g3 is None
    a1, a2, _ = _solution_center_gradients(u, replace(hist, mode="aniso"))
    for a, b in zip(g1 + g2, a1 + a2):
        assert np.array_equal(a, b)


# Per component and axis (x, y, z), the (low, high) wall of the velocity
# conditions: "face" (stored boundary faces, zero), "dirichlet" (no slip
# half a cell beyond the last stored value) or "neumann" (the theta = 0
# ground).
_VELOCITY_WALLS = (
    (("face", "face"), ("dirichlet", "dirichlet"), ("neumann", "dirichlet")),
    (("dirichlet", "dirichlet"), ("face", "face"), ("neumann", "dirichlet")),
    (("dirichlet", "dirichlet"), ("dirichlet", "dirichlet"), ("face", "face")),
)


def _grad_sq_by_parts(f, h, walls):
    """Summation-by-parts form of sum_d |d_d f|^2 for unit nu along one axis
    at a time: squared differences of consecutive stored values, plus, at a
    "dirichlet" wall, the ghost-reflection difference (2 f_adj / h)^2 with
    the half weight of the half cell the wall owns."""
    out = []
    for axis, (hd, ends) in enumerate(zip(h, walls)):
        s = float(np.sum((np.diff(f, axis=axis) / hd) ** 2))
        for end, side in zip(ends, (0, -1)):
            if end == "dirichlet":
                s += 0.5 * float(np.sum((2.0 * np.take(f, side, axis=axis) / hd) ** 2))
        out.append(s)
    return out


def _random_velocity_with_bcs(rng, grid):
    """Random entries with the stored boundary faces zeroed."""
    shapes = (grid.shape_u1, grid.shape_u2, grid.shape_u3)
    return apply_velocity_bcs(StaggeredVelocity(*(rng.normal(size=s) for s in shapes)))


@pytest.mark.parametrize("seed", [60, 61, 62])
def test_velocity_dissipation_matches_summation_by_parts(seed):
    """Per component, on a non-unit box: the Laplacian pairing equals the
    summation-by-parts form with the wall terms written out."""
    grid = Grid(8, 7, 6, lx=1.3, ly=0.7, h=0.45)
    rng = np.random.default_rng(seed)
    nu = (0.03, 0.05, 0.02)
    full = _random_velocity_with_bcs(rng, grid)
    for c in range(3):
        comps = [np.zeros_like(f) for f in full.components()]
        comps[c] = full.components()[c]
        per_axis = _grad_sq_by_parts(comps[c], grid.spacing, _VELOCITY_WALLS[c])
        want = sum(n * s for n, s in zip(nu, per_axis)) * grid.cell_volume
        d_h, d_3 = velocity_dissipation(StaggeredVelocity(*comps), nu, grid)
        got, other = (d_3, d_h) if c == 2 else (d_h, d_3)
        assert want > 0.0
        assert got == pytest.approx(want, rel=1e-12)
        assert other == 0.0


def test_velocity_dissipation_of_zero_field_is_zero():
    grid = Grid(8, 7, 6, lx=1.3, ly=0.7, h=0.45)
    assert velocity_dissipation(StaggeredVelocity.zeros(grid), (0.03, 0.05, 0.02), grid) == (0.0, 0.0)


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


def concentration_history(grid, fields, dt):
    """A history at rest whose states hold ``fields`` as C, spaced dt."""
    states = [
        SimState(m * dt, m, StaggeredVelocity.zeros(grid), np.zeros(grid.shape_cells), C)
        for m, C in enumerate(fields)
    ]
    return make_history(grid, default_params(), DiffusionTensor.identity(), states, dt)


def test_translation_modulus_time_constant_zero(grid8):
    rng = np.random.default_rng(57)
    C = smooth_field(rng, grid8)
    dt = 0.05
    rep = translation_modulus(concentration_history(grid8, [C] * 21, dt))
    assert np.all(rep.modulus == 0.0)


def test_translation_modulus_linear_growth_closed_form(grid8):
    """C(t) = t*g: modulus(h) = h * |N_g| * sqrt(T - h), exponent 1."""
    rng = np.random.default_rng(58)
    g = smooth_field(rng, grid8)
    dt = 0.05
    n = 17
    T = (n - 1) * dt
    rep = translation_modulus(concentration_history(grid8, [m * dt * g for m in range(n)], dt))
    assert list(rep.h) == [dt, 2 * dt, 4 * dt]
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
    fields = [smooth_field(rng, grid8) for _ in range(16)]
    a = translation_modulus(concentration_history(grid8, fields, dt))
    # the reversed fields, re-timed forward from t = 0
    b = translation_modulus(concentration_history(grid8, fields[::-1], dt))
    assert np.allclose(a.modulus, b.modulus, rtol=1e-12)


def test_translation_modulus_matches_per_pair_solves():
    """Differencing one smoothing solve per snapshot gives the moduli of one
    solve per pair of snapshots, (I - Lap) N = C(t+h) - C(t)."""
    grid = Grid(16, 16, 8)
    rng = np.random.default_rng(60)
    dt = 0.05
    steps = 0.1 * rng.standard_normal((40,) + grid.shape_cells)
    history = [smooth_field(rng, grid)]
    for d in steps:
        history.append(history[-1] + d)
    rep = translation_modulus(concentration_history(grid, history, dt))
    assert list(rep.h) == [s * dt for s in (1, 2, 4, 8)]
    walls = ("dirichlet", "dirichlet")
    axes = (
        (1.0 / grid.dx**2, *walls),
        (1.0 / grid.dy**2, *walls),
        (1.0 / grid.dz**2, "neumann", "dirichlet"),
    )
    for k, s in enumerate((1, 2, 4, 8)):
        vals = [
            np.sum(solve_separable(history[m + s] - history[m], axes, shift=1.0) ** 2)
            * grid.cell_volume
            for m in range(len(history) - s)
        ]
        assert rep.modulus[k] == pytest.approx(math.sqrt(np.trapezoid(vals, dx=dt)), rel=1e-12)


def test_translation_modulus_requires_three_shifts(grid8):
    """Nine states (eight spacings) fit only the shifts 1 and 2: no fit."""
    zeros = [np.zeros(grid8.shape_cells)] * 9
    assert translation_modulus(concentration_history(grid8, zeros, 0.1)) is None


@pytest.mark.parametrize("n, shifts", [(10, (1, 2, 4)), (17, (1, 2, 4)), (18, (1, 2, 4, 8))])
def test_translation_modulus_shifts_are_whole_spacings_below_half_the_span(grid8, n, shifts):
    """s in {1, 2, 4, 8} with 2s < n - 1, at the boundaries of the counts
    (nine states, the case above, fit only two)."""
    dt = 0.1
    rng = np.random.default_rng(61)
    fields = [smooth_field(rng, grid8) for _ in range(n)]
    rep = translation_modulus(concentration_history(grid8, fields, dt))
    assert list(rep.h) == [s * dt for s in shifts]


def test_history_refuses_a_spacing_its_states_do_not_have(grid8):
    """n states must span (n - 1) dt to within half a spacing; a history
    cut to its ends that keeps the run's spacing is refused."""
    hist = zero_history(grid8, default_params(), DiffusionTensor.identity(), n=5)
    ends = [hist.states[0], hist.states[-1]]
    with pytest.raises(ValueError, match="not spaced"):
        replace(hist, states=ends)
    for dt in (0.0, -0.1, 0.08, 0.12):
        with pytest.raises(ValueError, match="not spaced"):
            replace(hist, dt=dt)
    assert replace(hist, dt=0.4, states=ends).dt == 0.4


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


def test_weak_residual_traction_term():
    """The traction term of a stream test velocity is the trapezoid sum
    -sum_m w_m eta(t_m) sum theta . u~_H(x3 = 0) dA, and with its sign flipped
    the velocity residual grows.  The traction is sheared: a uniform one does
    no work against a stream test velocity, whose ground values sum to zero."""
    from hydrolimit.config import parse_config
    from hydrolimit.harness import run_simulation

    cfg = parse_config(
        "[grid]\nnx = 8\nny = 8\nnz = 6\n[source]\nintensity = 0\n"
        "[time]\nT = 0.1\nsnapshot_every = 1\n"
    )
    g = cfg.grid
    x, y = np.meshgrid(g.x1c, g.x2c, indexing="ij")
    theta1, theta2 = 0.5 * (y - 0.5), -0.5 * (x - 0.5)
    hist = run_simulation(replace(cfg, theta=BoundaryForcing(theta1, theta2)), 0.5, "aniso").history
    rec = weak_residual(hist)[0]  # StreamTestVelocity(t_cut=T - dt), kx = ky = 1
    a, b = math.pi / g.lx, math.pi / g.ly
    ground1 = np.sin(a * x) ** 2 * b * np.sin(2 * b * y)  # phi(0) = 1
    ground2 = -a * np.sin(2 * a * x) * np.sin(b * y) ** 2
    pairing = float(np.sum(theta1 * ground1 + theta2 * ground2)) * g.dx * g.dy
    t_cut, n = hist.T - hist.dt, len(hist.states)
    want = 0.0
    for m, s in enumerate(hist.states):
        w = hist.dt * (0.5 if m in (0, n - 1) else 1.0)
        want -= w * max(0.0, 1.0 - s.t / t_cut) ** 2 * pairing
    assert rec.label == "velocity[0]" and abs(want) > 1e-3
    assert rec.rhs["traction"] == pytest.approx(want, rel=1e-12)
    flipped = abs(sum(rec.lhs.values()) - sum(rec.rhs.values()) + 2.0 * rec.rhs["traction"])
    assert rec.residual < flipped


def test_weak_residual_anisotropic_forcing_term():
    """The forcing term of a vertical test velocity is the trapezoid sum
    sum_m w_m eta(t_m) [int (f1 u~1 + f2 u~2) + eps^2 int f3 u~3] dV, and f3
    enters it through that eps^2 term alone.  The forcing is affine: a
    constant one is a gradient, which no divergence-free test velocity that
    is tangent on the boundary sees."""
    from hydrolimit.config import parse_config
    from hydrolimit.harness import run_simulation

    cfg = parse_config(
        "[grid]\nnx = 8\nny = 8\nnz = 6\n[source]\nintensity = 0\n"
        "[time]\nT = 0.1\nsnapshot_every = 1\n"
    )
    g = cfg.grid
    hist = run_simulation(cfg, 0.5, "aniso").history
    eps, t_cut, n = hist.params.eps, hist.T - hist.dt, len(hist.states)
    X1, X2, X3 = g.centers()
    f1 = np.full(g.shape_cells, 0.3)
    f2 = np.broadcast_to(X3 - 0.5 * g.h, g.shape_cells)
    f3 = np.broadcast_to(X2 - 0.5 * g.ly, g.shape_cells)

    def forcing(vertical_force):
        fields = {"f1": f1, "f2": f2, "f3": vertical_force, "fC": np.full(g.shape_cells, 0.1)}
        return lambda t, grid: fields

    a, b, c = math.pi / g.lx, math.pi / g.ly, math.pi / g.h
    u2 = np.sin(a * X1) ** 2 * np.sin(b * X2) ** 2 * c * np.sin(2 * c * X3)  # u~1 = 0
    u3 = -np.sin(a * X1) ** 2 * b * np.sin(2 * b * X2) * np.sin(c * X3) ** 2
    horizontal = float(np.sum(f2 * u2)) * g.cell_volume
    vertical = eps**2 * float(np.sum(f3 * u3)) * g.cell_volume
    envelope = sum(
        hist.dt * (0.5 if m in (0, n - 1) else 1.0) * max(0.0, 1.0 - s.t / t_cut) ** 2
        for m, s in enumerate(hist.states)
    )
    test = [VerticalTestVelocity(t_cut=t_cut)]
    got = weak_residual(hist, test, [], forcing=forcing(f3))[0].rhs["forcing"]
    without = weak_residual(hist, test, [], forcing=forcing(0.0 * f3))[0].rhs["forcing"]
    assert abs(vertical) > 0.1 * abs(horizontal) > 1e-4
    assert got == pytest.approx(envelope * (horizontal + vertical), rel=1e-12)
    assert without == pytest.approx(envelope * horizontal, rel=1e-12)
    assert got - without == pytest.approx(envelope * vertical, rel=1e-9)


def test_weak_residual_rejects_bad_test_function(grid8):
    params = default_params(eps=0.5)
    hist = zero_history(grid8, params, DiffusionTensor.identity(), n=4)
    bad = StreamTestVelocity(t_cut=10.0 * hist.T)  # does not vanish at T
    with pytest.raises(ValueError, match="vanish"):
        weak_residual(hist, [bad], [])


class _CompressedStreamVelocity(StreamTestVelocity):
    """A stream test velocity with u~1 doubled: not divergence-free."""

    def fields(self, grid):
        f = super().fields(grid)
        (g11, g12, g13), g2 = f.grad_uH
        return f._replace(uH=(2.0 * f.uH[0], f.uH[1]),
                          grad_uH=((2.0 * g11, 2.0 * g12, 2.0 * g13), g2))


@pytest.mark.parametrize(
    "tests, message",
    [
        (([_CompressedStreamVelocity(t_cut=0.2)], []), "velocity test 0 is not divergence-free"),
        (([], [ScalarTestFunction(t_cut=10.0)]), "scalar test 0 does not vanish at the final time"),
    ],
    ids=["velocity-divergent", "scalar-not-vanishing"],
)
def test_weak_residual_refuses_unconstrained_tests(grid8, tests, message):
    params = default_params(eps=0.5)
    hist = zero_history(grid8, params, DiffusionTensor.identity(), n=4)
    with pytest.raises(ValueError, match=message):
        weak_residual(hist, *tests)


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


@pytest.mark.parametrize("field", [0, 1, 2], ids=["err_uH", "err_u3", "err_C"])
def test_convergence_report_refuses_non_finite_error(field):
    errs = [1e-3, 2e-3, 3e-3]
    errs[field] = math.nan
    with pytest.raises(ValueError, match=r"^non-finite error at eps=0\.25$"):
        convergence_report([ConvergenceRow(0.5, 1e-3, 2e-3, 3e-3), ConvergenceRow(0.25, *errs)])


def test_spacetime_errors_compares_grids_by_value():
    """Histories on separately built equal grids compare; a history on a box
    of other extents but the same cell counts is refused."""
    params, M = default_params(eps=0.5), DiffusionTensor.identity()
    ref = zero_history(Grid(8, 8, 6, lx=2.0), params, M)
    assert spacetime_errors(zero_history(Grid(8, 8, 6, lx=2.0), params, M), ref) == (0.0,) * 3
    other = zero_history(Grid(8, 8, 6, lx=2.0, h=0.5), params, M)
    with pytest.raises(ValueError, match="different grids"):
        spacetime_errors(other, ref)
