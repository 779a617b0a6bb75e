"""Pulse shapes, normalisation, switch-on behaviour, and norm bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hydrolimit.core import GridSpec, build_grid
from hydrolimit.sources import GAUSSIAN_NORM, Source, SourceSpec, evaluate_source, source_norm_bound


def centered_grid(n=5):
    # odd counts put a cell centre exactly at the midpoint (0.5, 0.5, 0.5)
    return build_grid(GridSpec(n, n, n))


@pytest.mark.parametrize("kind", ["gaussian", "unit_impulse", "lorentzian", "delta_deposit"])
def test_source_off_before_switch(kind):
    g = build_grid(GridSpec(8, 8, 8))
    spec = SourceSpec(kind, 1.0, t_s=0.5, x_s=(0.5, 0.5, 0.5), width=0.3)
    assert np.max(np.abs(evaluate_source(spec, 0.49, g))) == 0.0


@pytest.mark.parametrize("kind", ["gaussian", "delta_deposit"])
def test_source_on_at_switch_time(kind):
    g = build_grid(GridSpec(8, 8, 8))
    spec = SourceSpec(kind, 2.0, t_s=0.5, x_s=(0.5, 0.5, 0.5), width=0.3)
    assert np.max(evaluate_source(spec, 0.5, g)) > 0.0  # H(0) = 1


def test_gaussian_peak_value():
    g = centered_grid(5)
    eps = 0.3
    spec = SourceSpec("gaussian", 2.0, 0.0, (0.5, 0.5, 0.5), eps)
    field = evaluate_source(spec, 0.0, g)
    assert field.max() == pytest.approx(2.0 * GAUSSIAN_NORM * eps**-3, rel=1e-12)
    assert field[2, 2, 2] == field.max()


def test_gaussian_mass_resolved():
    """With sigma spanning >= 4 cells the cell sum captures I within 2%."""
    g = build_grid(GridSpec(32, 32, 32))
    eps = 0.2  # sigma = eps/sqrt(2) ~ 0.141 ~ 4.5 cells
    spec = SourceSpec("gaussian", 3.0, 0.0, (0.5, 0.5, 0.5), eps)
    mass = float(np.sum(evaluate_source(spec, 0.0, g)) * g.cell_volume)
    assert abs(mass - 3.0) / 3.0 < 0.02


def test_gaussian_mass_quadrature_oracle():
    """Cell sum agrees with an independent midpoint quadrature of the density."""
    g = build_grid(GridSpec(16, 16, 16))
    eps = 0.25
    spec = SourceSpec("gaussian", 1.0, 0.0, (0.5, 0.5, 0.5), eps)
    mass = float(np.sum(evaluate_source(spec, 0.0, g)) * g.cell_volume)
    # brute-force: same density integrated on a finer midpoint grid
    n = 96
    x = (np.arange(n) + 0.5) / n
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij", sparse=True)
    r2 = (X - 0.5) ** 2 + (Y - 0.5) ** 2 + (Z - 0.5) ** 2
    oracle = float(np.sum(GAUSSIAN_NORM * eps**-3 * np.exp(-r2 / eps**2)) / n**3)
    assert mass == pytest.approx(oracle, rel=5e-3)


@pytest.mark.parametrize("kind", ["gaussian", "lorentzian"])
def test_normalisation_refines_monotonically(kind):
    """Cell sums converge to I under grid refinement at fixed eps."""
    eps = 0.25
    errs = []
    for n in (12, 24, 48):
        g = build_grid(GridSpec(n, n, n))
        spec = SourceSpec(kind, 1.0, 0.0, (0.5, 0.5, 0.5), eps)
        mass = float(np.sum(evaluate_source(spec, 0.0, g)) * g.cell_volume)
        target = 1.0
        if kind == "gaussian":
            # remove the (grid-independent) domain-truncation deficit
            target = math.erf(0.5 / eps) ** 3
        errs.append(abs(mass - target))
    assert errs[1] < errs[0]
    assert errs[2] < errs[1]


@pytest.mark.parametrize("kind", ["gaussian", "unit_impulse", "lorentzian", "delta_deposit"])
def test_pulses_nonnegative(kind):
    g = build_grid(GridSpec(9, 9, 9))
    spec = SourceSpec(kind, 1.3, 0.0, (0.47, 0.52, 0.5), width=0.35)
    assert np.min(evaluate_source(spec, 1.0, g)) >= 0.0


def test_delta_deposit_single_cell():
    g = build_grid(GridSpec(8, 8, 8))
    spec = SourceSpec("delta_deposit", 2.5, 0.0, (0.51, 0.51, 0.51))
    field = evaluate_source(spec, 0.0, g)
    assert np.count_nonzero(field) == 1
    assert field[4, 4, 4] == pytest.approx(2.5 / g.cell_volume)
    assert float(np.sum(field) * g.cell_volume) == pytest.approx(2.5)


def test_unit_impulse_verbatim_shape():
    g = build_grid(GridSpec(16, 16, 16))
    eps = 4.0  # width parameter: support radius 1/eps = 0.25
    spec = SourceSpec("unit_impulse", 1.0, 0.0, (0.5, 0.5, 0.5), eps)
    field = evaluate_source(spec, 0.0, g)
    X1, X2, X3 = g.centers()
    r = np.sqrt((X1 - 0.5) ** 2 + (X2 - 0.5) ** 2 + (X3 - 0.5) ** 2)
    inside = np.broadcast_to(r < 0.25, g.shape_cells)
    assert np.all(field[inside] == eps / 2.0)
    assert np.all(field[~inside] == 0.0)


def test_source_rejects_near_boundary_location():
    g = build_grid(GridSpec(8, 8, 8))
    spec = SourceSpec("gaussian", 1.0, 0.0, (0.1, 0.5, 0.5), 0.2)  # 0.1 < 2*dx
    with pytest.raises(ValueError, match="two cell widths"):
        evaluate_source(spec, 0.0, g)


def test_source_rejects_outside_domain():
    g = build_grid(GridSpec(8, 8, 8))
    spec = SourceSpec("gaussian", 1.0, 0.0, (1.5, 0.5, 0.5), 0.2)
    with pytest.raises(ValueError):
        evaluate_source(spec, 0.0, g)


# ---------------------------------------------------------------------------
# Source: one sample per run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["gaussian", "unit_impulse", "lorentzian", "delta_deposit"])
def test_source_samples_once_and_switches_on(kind):
    g = build_grid(GridSpec(8, 8, 8))
    spec = SourceSpec(kind, 2.0, 0.5, (0.5, 0.5, 0.5), None if kind == "delta_deposit" else 0.3)
    src = Source(spec, g)
    assert not src.values.flags.writeable
    assert np.array_equal(src.values, evaluate_source(spec, 0.5, g))
    assert src.at(0.5) is src.values and src.at(0.7) is src.values
    before = src.at(0.49)
    assert before.shape == g.shape_cells and np.all(before == 0.0) and before.flags.writeable
    with pytest.raises(ValueError, match="time"):
        src.at(-1.0)


def test_source_checks_location_at_construction():
    g = build_grid(GridSpec(8, 8, 8))
    with pytest.raises(ValueError, match="two cell widths"):
        Source(SourceSpec("gaussian", 1.0, 0.0, (0.1, 0.5, 0.5), 0.2), g)


# ---------------------------------------------------------------------------
# source_norm_bound
# ---------------------------------------------------------------------------


def test_norm_bound_zero_intensity():
    g = build_grid(GridSpec(8, 8, 8))
    spec = SourceSpec("gaussian", 0.0, 0.0, (0.5, 0.5, 0.5), 0.2)
    assert source_norm_bound(spec, g, 1.0) == 0.0


def test_norm_bound_delta_closed_form():
    g = build_grid(GridSpec(8, 8, 8))
    spec = SourceSpec("delta_deposit", 1.0, 0.0, (0.5, 0.5, 0.5))
    T = 0.7
    want = math.sqrt(T / g.cell_volume)
    assert source_norm_bound(spec, g, T) == pytest.approx(want, rel=1e-12)


def test_norm_bound_gaussian_eps_scaling():
    """||delta_eps||_L2 scales like eps^-3/2: halving eps multiplies the norm
    by 2^(3/2) within 10% once sigma is resolved."""
    g = build_grid(GridSpec(64, 64, 64))
    n1 = source_norm_bound(SourceSpec("gaussian", 1.0, 0.0, (0.5, 0.5, 0.5), 0.4), g, 1.0)
    n2 = source_norm_bound(SourceSpec("gaussian", 1.0, 0.0, (0.5, 0.5, 0.5), 0.2), g, 1.0)
    assert n2 / n1 == pytest.approx(2.0**1.5, rel=0.10)


def test_norm_bound_heaviside_window():
    g = build_grid(GridSpec(8, 8, 8))
    spec1 = SourceSpec("delta_deposit", 1.0, t_s=0.0, x_s=(0.5, 0.5, 0.5))
    spec2 = SourceSpec("delta_deposit", 1.0, t_s=0.5, x_s=(0.5, 0.5, 0.5))
    full = source_norm_bound(spec1, g, 1.0)
    half = source_norm_bound(spec2, g, 1.0)
    assert half == pytest.approx(full / math.sqrt(2.0), rel=1e-12)
    assert source_norm_bound(spec2, g, 0.4) == 0.0


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["gaussian", "lorentzian"]),
    width=st.floats(0.15, 0.6),
    i0=st.floats(0.0, 5.0),
)
def test_norm_bound_linear_in_intensity(kind, width, i0):
    g = build_grid(GridSpec(8, 8, 8))
    base = source_norm_bound(SourceSpec(kind, 1.0, 0.0, (0.5, 0.5, 0.5), width), g, 1.0)
    scaled = source_norm_bound(SourceSpec(kind, i0, 0.0, (0.5, 0.5, 0.5), width), g, 1.0)
    assert scaled == pytest.approx(i0 * base, rel=1e-10, abs=1e-12)


def _lorentzian_integral_full_array(eps, x_s, grid, nq=2048):
    """Reference: the normaliser's quadrature evaluated on one nq x nq array."""
    a = (math.pi * eps) ** 2
    x = (np.arange(nq) + 0.5) * (grid.lx / nq)
    y = (np.arange(nq) + 0.5) * (grid.ly / nq)
    b = 1.0 + a * ((x[:, None] - x_s[0]) ** 2 + (y[None, :] - x_s[1]) ** 2)
    zpart = (
        np.arctan((grid.h - x_s[2]) * np.sqrt(a / b)) + np.arctan(x_s[2] * np.sqrt(a / b))
    ) / np.sqrt(a * b)
    return float(eps * np.sum(zpart) * (grid.lx / nq) * (grid.ly / nq))


@pytest.mark.parametrize("eps, x_s", [(0.5, (0.5, 0.5, 0.5)), (0.0625, (0.3, 0.7, 0.4))])
def test_lorentzian_normaliser_blocked_memory(eps, x_s):
    """The blocked quadrature keeps one 2048^2 array alive (32 MiB) and gives
    the same value, bit for bit, as the full-array evaluation."""
    import tracemalloc

    from hydrolimit import sources

    g = build_grid(GridSpec(8, 8, 8))
    tracemalloc.start()
    try:
        val = sources._lorentzian_domain_integral(eps, x_s, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert val == _lorentzian_integral_full_array(eps, x_s, g)
