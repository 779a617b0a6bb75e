"""Pulse shapes, normalisation, switch-on behaviour, and norm bounds."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hydrolimit.core import Grid
from hydrolimit.sources import GAUSSIAN_NORM, Source, SourceSpec, source_norm_bound


def centered_grid(n=5):
    # odd counts put a cell centre exactly at the midpoint (0.5, 0.5, 0.5)
    return Grid(n, n, n)


def _width(kind, width):
    """``width``, or None for delta_deposit, which takes none."""
    return None if kind == "delta_deposit" else width


@pytest.mark.parametrize("kind", ["gaussian", "unit_impulse", "lorentzian", "delta_deposit"])
def test_source_off_before_switch(kind):
    g = Grid(8, 8, 8)
    spec = SourceSpec(kind, 1.0, t_s=0.5, x_s=(0.5, 0.5, 0.5), width=_width(kind, 0.3))
    assert np.max(np.abs(Source(spec, g).at(0.49))) == 0.0


@pytest.mark.parametrize("kind", ["gaussian", "delta_deposit"])
def test_source_on_at_switch_time(kind):
    g = Grid(8, 8, 8)
    spec = SourceSpec(kind, 2.0, t_s=0.5, x_s=(0.5, 0.5, 0.5), width=_width(kind, 0.3))
    assert np.max(Source(spec, g).at(0.5)) > 0.0  # H(0) = 1


def test_gaussian_peak_value():
    g = centered_grid(5)
    eps = 0.3
    spec = SourceSpec("gaussian", 2.0, 0.0, (0.5, 0.5, 0.5), eps)
    field = Source(spec, g).at(0.0)
    assert field.max() == pytest.approx(2.0 * GAUSSIAN_NORM * eps**-3, rel=1e-12)
    assert field[2, 2, 2] == field.max()


def test_gaussian_mass_resolved():
    """With sigma spanning >= 4 cells the cell sum captures I within 2%."""
    g = Grid(32, 32, 32)
    eps = 0.2  # sigma = eps/sqrt(2) ~ 0.141 ~ 4.5 cells
    spec = SourceSpec("gaussian", 3.0, 0.0, (0.5, 0.5, 0.5), eps)
    mass = float(np.sum(Source(spec, g).at(0.0)) * g.cell_volume)
    assert abs(mass - 3.0) / 3.0 < 0.02


def test_gaussian_mass_quadrature_oracle():
    """Cell sum agrees with an independent midpoint quadrature of the density."""
    g = Grid(16, 16, 16)
    eps = 0.25
    spec = SourceSpec("gaussian", 1.0, 0.0, (0.5, 0.5, 0.5), eps)
    mass = float(np.sum(Source(spec, g).at(0.0)) * g.cell_volume)
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
        g = Grid(n, n, n)
        spec = SourceSpec(kind, 1.0, 0.0, (0.5, 0.5, 0.5), eps)
        mass = float(np.sum(Source(spec, g).at(0.0)) * g.cell_volume)
        target = 1.0
        if kind == "gaussian":
            # remove the (grid-independent) domain-truncation deficit
            target = math.erf(0.5 / eps) ** 3
        errs.append(abs(mass - target))
    assert errs[1] < errs[0]
    assert errs[2] < errs[1]


@pytest.mark.parametrize("kind", ["gaussian", "unit_impulse", "lorentzian", "delta_deposit"])
def test_pulses_nonnegative(kind):
    g = Grid(9, 9, 9)
    spec = SourceSpec(kind, 1.3, 0.0, (0.47, 0.52, 0.5), width=_width(kind, 0.35))
    assert np.min(Source(spec, g).at(1.0)) >= 0.0


def test_delta_deposit_single_cell():
    g = Grid(8, 8, 8)
    spec = SourceSpec("delta_deposit", 2.5, 0.0, (0.51, 0.51, 0.51))
    field = Source(spec, g).at(0.0)
    assert np.count_nonzero(field) == 1
    assert field[4, 4, 4] == pytest.approx(2.5 / g.cell_volume)
    assert float(np.sum(field) * g.cell_volume) == pytest.approx(2.5)


def test_unit_impulse_verbatim_shape():
    g = Grid(16, 16, 16)
    eps = 4.0  # width parameter: support radius 1/eps = 0.25
    spec = SourceSpec("unit_impulse", 1.0, 0.0, (0.5, 0.5, 0.5), eps)
    field = Source(spec, g).at(0.0)
    X1, X2, X3 = g.centers()
    r = np.sqrt((X1 - 0.5) ** 2 + (X2 - 0.5) ** 2 + (X3 - 0.5) ** 2)
    inside = np.broadcast_to(r < 0.25, g.shape_cells)
    assert np.all(field[inside] == eps / 2.0)
    assert np.all(field[~inside] == 0.0)


def test_source_rejects_near_boundary_location():
    g = Grid(8, 8, 8)
    spec = SourceSpec("gaussian", 1.0, 0.0, (0.1, 0.5, 0.5), 0.2)  # 0.1 < 2*dx
    with pytest.raises(ValueError, match="two cell widths"):
        Source(spec, g).at(0.0)


def test_source_rejects_outside_domain():
    g = Grid(8, 8, 8)
    spec = SourceSpec("gaussian", 1.0, 0.0, (1.5, 0.5, 0.5), 0.2)
    with pytest.raises(ValueError):
        Source(spec, g).at(0.0)


# ---------------------------------------------------------------------------
# Source: one sample per run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["gaussian", "unit_impulse", "lorentzian", "delta_deposit"])
def test_source_samples_once_and_switches_on(kind):
    g = Grid(8, 8, 8)
    spec = SourceSpec(kind, 2.0, 0.5, (0.5, 0.5, 0.5), _width(kind, 0.3))
    src = Source(spec, g)
    assert not src.values.flags.writeable
    assert np.array_equal(src.values, Source(spec, g).at(0.5))
    assert src.at(0.5) is src.values and src.at(0.7) is src.values
    before = src.at(0.49)
    assert before.shape == g.shape_cells and np.all(before == 0.0) and before.flags.writeable
    with pytest.raises(ValueError, match="time"):
        src.at(-1.0)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"kind": "plume"}, "unknown source kind 'plume'"),
        ({"kind": "gaussian", "intensity": -1.0}, "intensity must be >= 0, got -1.0"),
        ({"kind": "gaussian", "t_s": -0.1}, "switch time must be >= 0, got -0.1"),
        ({"kind": "gaussian", "x_s": (0.5, 0.5)}, "x_s must be a 3-tuple"),
        ({"kind": "gaussian", "width": 0.0}, "gaussian source requires a positive width"),
        ({"kind": "lorentzian", "width": -0.2}, "lorentzian source requires a positive width"),
    ],
    ids=["kind", "intensity", "t_s", "x_s", "width-zero", "width-negative"],
)
def test_source_spec_refuses_bad_fields(kwargs, message):
    """A spec built without the parser is checked by itself."""
    with pytest.raises(ValueError) as err:
        SourceSpec(**kwargs)
    assert str(err.value) == message


def test_delta_deposit_takes_no_width():
    with pytest.raises(ValueError, match="delta_deposit source takes no width"):
        SourceSpec("delta_deposit", width=0.3)


@pytest.mark.parametrize("kind", ["gaussian", "unit_impulse", "lorentzian"])
def test_source_refuses_unresolved_width(kind):
    """A width of None, which a config leaves to the run's eps, must be
    resolved before the pulse is sampled."""
    with pytest.raises(ValueError, match=f"{kind} source width is unresolved"):
        Source(SourceSpec(kind), Grid(8, 8, 8))


def test_source_checks_location_at_construction():
    g = Grid(8, 8, 8)
    with pytest.raises(ValueError, match="two cell widths"):
        Source(SourceSpec("gaussian", 1.0, 0.0, (0.1, 0.5, 0.5), 0.2), g)


# ---------------------------------------------------------------------------
# source_norm_bound
# ---------------------------------------------------------------------------


def test_norm_bound_zero_intensity():
    g = Grid(8, 8, 8)
    spec = SourceSpec("gaussian", 0.0, 0.0, (0.5, 0.5, 0.5), 0.2)
    assert source_norm_bound(spec, g, 1.0) == 0.0


def test_norm_bound_delta_closed_form():
    g = Grid(8, 8, 8)
    spec = SourceSpec("delta_deposit", 1.0, 0.0, (0.5, 0.5, 0.5))
    T = 0.7
    want = math.sqrt(T / g.cell_volume)
    assert source_norm_bound(spec, g, T) == pytest.approx(want, rel=1e-12)


def test_norm_bound_gaussian_eps_scaling():
    """||delta_eps||_L2 scales like eps^-3/2: halving eps multiplies the norm
    by 2^(3/2) within 10% once sigma is resolved."""
    g = Grid(64, 64, 64)
    n1 = source_norm_bound(SourceSpec("gaussian", 1.0, 0.0, (0.5, 0.5, 0.5), 0.4), g, 1.0)
    n2 = source_norm_bound(SourceSpec("gaussian", 1.0, 0.0, (0.5, 0.5, 0.5), 0.2), g, 1.0)
    assert n2 / n1 == pytest.approx(2.0**1.5, rel=0.10)


def test_norm_bound_heaviside_window():
    g = Grid(8, 8, 8)
    spec1 = SourceSpec("delta_deposit", 1.0, t_s=0.0, x_s=(0.5, 0.5, 0.5))
    spec2 = SourceSpec("delta_deposit", 1.0, t_s=0.5, x_s=(0.5, 0.5, 0.5))
    full = source_norm_bound(spec1, g, 1.0)
    half = source_norm_bound(spec2, g, 1.0)
    assert half == pytest.approx(full / math.sqrt(2.0), rel=1e-12)
    assert source_norm_bound(spec2, g, 0.4) == 0.0


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["gaussian", "lorentzian"]),
    width=st.floats(0.15, 0.6),
    i0=st.floats(0.0, 5.0),
)
def test_norm_bound_linear_in_intensity(kind, width, i0):
    g = Grid(8, 8, 8)
    base = source_norm_bound(SourceSpec(kind, 1.0, 0.0, (0.5, 0.5, 0.5), width), g, 1.0)
    scaled = source_norm_bound(SourceSpec(kind, i0, 0.0, (0.5, 0.5, 0.5), width), g, 1.0)
    assert scaled == pytest.approx(i0 * base, rel=1e-10, abs=1e-12)


def _lorentzian_integral_full_array(eps, x_s, grid, nq=2048):
    """Oracle: the integral of 1 / (1 + (pi eps)^2 r^2), the closed vertical
    integral under a 2048^2 horizontal midpoint rule on one array,
    independent of the normaliser's graded rule."""
    a = (math.pi * eps) ** 2
    x = (np.arange(nq) + 0.5) * (grid.lx / nq)
    y = (np.arange(nq) + 0.5) * (grid.ly / nq)
    b = 1.0 + a * ((x[:, None] - x_s[0]) ** 2 + (y[None, :] - x_s[1]) ** 2)
    zpart = (
        np.arctan((grid.h - x_s[2]) * np.sqrt(a / b)) + np.arctan(x_s[2] * np.sqrt(a / b))
    ) / np.sqrt(a * b)
    return float(np.sum(zpart) * (grid.lx / nq) * (grid.ly / nq))


@pytest.mark.parametrize("x_s", [(1.0, 0.25, 0.15), (0.5, 0.125, 0.075)], ids=["centre", "margin"])
@pytest.mark.parametrize("eps", [1e-12, 1e-3, 0.0625, 0.5, 2.0, 8.0, 64.0, 1e3, 1e6])
def test_lorentzian_normaliser_converged_in_small_memory(monkeypatch, eps, x_s):
    """On a 2 x 0.5 x 0.3 box, with x_s at the centre or two cells from the
    walls, the graded Gauss-Legendre normaliser agrees within 1e-12 with
    itself at twice the order and half the grading ratio, and its arrays
    peak under 8 MiB (the 2048^2 midpoint rule it replaced held 32 MiB)."""
    import tracemalloc

    from hydrolimit import sources

    g = Grid(8, 8, 8, lx=2.0, ly=0.5, h=0.3)
    tracemalloc.start()
    try:
        val = sources._lorentzian_domain_integral(eps, x_s, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(sources, "_GL_ORDER", 2 * sources._GL_ORDER)
    monkeypatch.setattr(sources, "_GL_RATIO", sources._GL_RATIO / 2)
    assert val == pytest.approx(sources._lorentzian_domain_integral(eps, x_s, g), rel=1e-12)
    assert peak < 8 * 2**20


@pytest.mark.parametrize("eps, x_s", [(0.5, (0.5, 0.5, 0.5)), (0.0625, (0.3, 0.7, 0.4))])
def test_lorentzian_normaliser_matches_midpoint_oracle(eps, x_s):
    """The graded rule agrees with the 2048^2 midpoint oracle within 1e-7,
    the oracle's own error being 1.5e-9 to 5e-8 at these widths."""
    from hydrolimit import sources

    g = Grid(8, 8, 8)
    want = _lorentzian_integral_full_array(eps, x_s, g)
    assert sources._lorentzian_domain_integral(eps, x_s, g) == pytest.approx(want, rel=1e-7)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "kind, width",
    [
        ("lorentzian", 1e200),  # (pi eps)^2 overflows
        ("gaussian", 1e-110),  # eps^-3 overflows
    ],
)
def test_source_refuses_width_without_finite_sample(kind, width):
    """A width whose sample overflows or is not finite is a ValueError that
    names the kind and the width, raised without a warning."""
    g = Grid(8, 8, 6)
    spec = SourceSpec(kind, 1.0, 0.0, (0.5, 0.5, 0.5), width)
    with pytest.raises(ValueError, match=re.escape(f"{kind} source of width {width!r} has no finite")):
        Source(spec, g)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "kind, width",
    [
        ("lorentzian", 1e150),
        ("lorentzian", 1e-162),
        ("lorentzian", 1e-163),
        ("lorentzian", 1e-200),
        ("lorentzian", 1e-300),
        ("lorentzian", 1e-310),  # pi eps is subnormal
        ("lorentzian", 1e-315),
        ("lorentzian", 1e-320),
        ("lorentzian", 5e-324),  # the smallest positive double
        ("gaussian", 1e155),
        ("gaussian", 1e300),
        ("unit_impulse", 1e-200),
        ("unit_impulse", 1e200),
    ],
)
def test_source_samples_extreme_finite_width(kind, width):
    """Widths whose sample is finite are sampled, without a warning, even
    where eps^2 or (1/eps)^2 leaves double precision.  A Lorentzian this wide
    is r^-2 normalised, the same sample as at width 1e50; this narrow, where
    (pi eps)^2 is subnormal or 0 (pi eps too, from 1e-310), it is flat at
    1/|Omega|.  A Gaussian this wide is 0, since eps^-3 underflows.  The
    unit impulse's ball of radius 1/eps covers the whole domain with eps/2 at
    width 1e-200, and holds no cell centre at 1e200."""
    g = Grid(8, 8, 6, lx=1.3, ly=0.7, h=0.9)
    values = Source(SourceSpec(kind, 1.0, 0.0, (0.5, 0.4, 0.45), width), g).values
    if kind == "unit_impulse":
        assert np.all(values == (width / 2.0 if width < 1.0 else 0.0))
    elif kind == "gaussian":
        assert np.all(values == 0.0)
    elif width < 1.0:
        np.testing.assert_allclose(values, 1.0 / (g.lx * g.ly * g.h), rtol=1e-12)
    else:
        wide = Source(SourceSpec(kind, 1.0, 0.0, (0.5, 0.4, 0.45), 1e50), g).values
        assert np.all(values > 0.0)
        np.testing.assert_allclose(values, wide, rtol=1e-12)
