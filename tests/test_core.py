"""Grid construction, eigenvalue/coercivity machinery, and physical parameters."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hydrolimit.core import (
    BoundaryForcing,
    DiffusionTensor,
    Grid,
    PhysParams,
    coercivity_constant,
    coriolis_at,
)

from conftest import random_spd_tensor


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------


def test_grid_spacing_unit_cube():
    g = Grid(4, 4, 4)
    assert g.dx == g.dy == g.dz == 0.25


def test_grid_spacing_anisotropic_box():
    g = Grid(8, 4, 4, lx=2.0, ly=1.0, h=2.0)
    assert g.dx == 0.25
    assert g.dy == 0.25
    assert g.dz == 0.5


@pytest.mark.parametrize("bad", [dict(nx=3), dict(ny=0), dict(nz=-2), dict(ny=8.0)])
def test_grid_rejects_small_counts(bad):
    kw = dict(nx=8, ny=8, nz=8)
    kw.update(bad)
    with pytest.raises(ValueError):
        Grid(**kw)


@pytest.mark.parametrize("bad", [dict(lx=0.0), dict(ly=-1.0), dict(h=float("nan"))])
def test_grid_rejects_nonpositive_extents(bad):
    kw = dict(nx=8, ny=8, nz=8)
    kw.update(bad)
    with pytest.raises(ValueError):
        Grid(**kw)


def test_grid_equality_and_hash_cover_counts_and_extents():
    a, b = Grid(8, 8, 6, lx=2.0), Grid(8, 8, 6, lx=2.0)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != Grid(8, 8, 6, lx=2.0, h=0.5)
    assert np.array_equal(a.x1f, np.linspace(0.0, 2.0, 9))


def test_grid_coordinates_are_read_only():
    g = Grid(8, 8, 6, lx=2.0)
    with pytest.raises(ValueError):
        g.x2c[0] = 1.0
    assert not any(getattr(g, f"x{d}{s}").flags.writeable for d in "123" for s in "fc")


def test_cell_index_and_rejection():
    g = Grid(8, 8, 8)
    assert g.cell_index((0.51, 0.51, 0.51)) == (4, 4, 4)
    with pytest.raises(ValueError):
        g.cell_index((1.5, 0.5, 0.5))


# ---------------------------------------------------------------------------
# coercivity_constant
# ---------------------------------------------------------------------------


def _char_poly(m, lam):
    return float(np.linalg.det(m - lam * np.eye(3)))


def _bisect_smallest_eigenvalue(m, tol=1e-13):
    """Oracle: bracket the roots of det(M - lam I) and bisect each."""
    radius = np.max(np.sum(np.abs(m), axis=1)) + 1.0
    xs = np.linspace(-radius, radius, 20001)
    vals = np.array([_char_poly(m, x) for x in xs])
    roots = []
    for i in range(len(xs) - 1):
        if vals[i] == 0.0:
            roots.append(xs[i])
        elif vals[i] * vals[i + 1] < 0:
            lo, hi = xs[i], xs[i + 1]
            flo = _char_poly(m, lo)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fm = _char_poly(m, mid)
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
                if hi - lo < tol:
                    break
            roots.append(0.5 * (lo + hi))
    assert roots, "oracle found no eigenvalues"
    return min(roots)


def test_coercivity_identity():
    assert coercivity_constant(DiffusionTensor.identity()) == pytest.approx(1.0, rel=1e-14)


def test_coercivity_diagonal():
    assert coercivity_constant(DiffusionTensor(np.diag([2.0, 3.0, 4.0]))) == pytest.approx(
        2.0, rel=1e-14
    )


def test_coercivity_matches_bisection_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        M, _ = random_spd_tensor(rng)
        lam = coercivity_constant(M)
        oracle = _bisect_smallest_eigenvalue(M.m)
        assert lam == pytest.approx(oracle, rel=1e-10)


def test_coercivity_rejects_indefinite():
    m = np.diag([1.0, 1.0, -0.5])
    with pytest.raises(ValueError, match="coercivity"):
        coercivity_constant(DiffusionTensor(m))


def test_coercivity_rejects_asymmetric():
    m = np.eye(3)
    m[0, 1] = 1e-6
    with pytest.raises(ValueError, match="asymmetry|symmetric"):
        DiffusionTensor(m)


def test_coercivity_spatial_variant_takes_minimum():
    rng = np.random.default_rng(3)
    cells = np.empty((4, 4, 4, 3, 3))
    mins = []
    for i in range(4):
        for j in range(4):
            for k in range(4):
                M, eigs = random_spd_tensor(rng)
                cells[i, j, k] = M.m
                mins.append(eigs[0])
    lam = coercivity_constant(DiffusionTensor(cells))
    assert lam == pytest.approx(min(mins), rel=1e-10)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(c=st.floats(1e-3, 1e3))
def test_coercivity_homogeneous_in_scaling(c):
    m = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])
    lam1 = coercivity_constant(DiffusionTensor(m))
    lam2 = coercivity_constant(DiffusionTensor(c * m))
    assert lam2 == pytest.approx(c * lam1, rel=1e-10)


def test_row_sums_match_per_cell_loop():
    rng = np.random.default_rng(11)
    cells = np.empty((4, 5, 3, 3, 3))
    for idx in np.ndindex(cells.shape[:3]):
        cells[idx] = random_spd_tensor(rng)[0].m
    M = DiffusionTensor(cells)
    for d in range(3):
        loop = max(
            abs(cells[idx][d, 0]) + abs(cells[idx][d, 1]) + abs(cells[idx][d, 2])
            for idx in np.ndindex(cells.shape[:3])
        )
        assert M.row_sums[d] == loop


def test_tensor_is_a_read_only_copy():
    """The stored constants cannot go stale: M owns its entries and they are frozen."""
    m = np.diag([2.0, 3.0, 4.0])
    M = DiffusionTensor(m)
    m[0, 0] = -1.0
    assert M.m[0, 0] == 2.0 and M.row_sums == (2.0, 3.0, 4.0)
    with pytest.raises(ValueError, match="read-only"):
        M.m[0, 0] = -1.0


# ---------------------------------------------------------------------------
# coriolis_at
# ---------------------------------------------------------------------------


def test_coriolis_f_plane_pole():
    p = PhysParams(1, 1, 1, f0=1.0, l0=math.pi / 2)
    a, b = coriolis_at(p, 0.3)
    assert a == pytest.approx(2.0)
    assert b == pytest.approx(0.0, abs=1e-15)


def test_coriolis_f_plane_equator():
    p = PhysParams(1, 1, 1, f0=1.0, l0=0.0)
    a, b = coriolis_at(p, 0.9)
    assert a == pytest.approx(0.0, abs=1e-15)
    assert b == pytest.approx(2.0)


def test_coriolis_beta_plane():
    p = PhysParams(1, 1, 1, f0=1.0, l0=math.pi / 6, l_slope=0.1)
    a, b = coriolis_at(p, 1.0)
    assert a == pytest.approx(2.0 * math.sin(math.pi / 6 + 0.1), rel=1e-14)
    assert b == pytest.approx(2.0 * math.cos(math.pi / 6 + 0.1), rel=1e-14)


def test_phys_params_validation():
    with pytest.raises(ValueError):
        PhysParams(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        PhysParams(1.0, 1.0, 1.0, eps=0.0)
    with pytest.raises(ValueError):
        PhysParams(1.0, 1.0, 1.0, eps=1.5)


def test_boundary_forcing_validation():
    with pytest.raises(ValueError):
        BoundaryForcing(np.zeros((4, 4)), np.zeros((4, 5)))
    with pytest.raises(ValueError):
        BoundaryForcing(np.full((4, 4), np.nan), np.zeros((4, 4)))
