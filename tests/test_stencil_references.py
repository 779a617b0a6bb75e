"""Stencil operators against their plain slice formulas, bit for bit.

The operators evaluate their stencils with in-place temporaries and, where a
ghost-extended array is the input, over windows of its flat view.  Each
reference below is the direct slice expression of the same stencil, written
out with the same operand order, so every result must be exactly equal:
``np.array_equal``, no tolerance.  The grid is non-cubic and none of its
spacings is a power of two, so a reordered or re-associated expression shows.
The flux form of constant diagonal diffusion is the one reference that is a
second discretisation: the operator evaluates that case as the Laplacian
stencil, and the flux form is pinned to it within 1e-15 relative.
"""

import numpy as np
import pytest

from hydrolimit.core import DiffusionTensor, Grid
from hydrolimit.operators import (
    StaggeredVelocity,
    advect_scalar,
    advect_velocity,
    anisotropic_laplacian,
    apply_concentration_bcs,
    diffuse_concentration,
    divergence,
    extend_velocity,
)

from conftest import random_spd_tensor


@pytest.fixture
def grid():
    return Grid(7, 5, 6, lx=1.3, ly=0.7, h=0.9)


def _random_velocity(rng, g):
    return StaggeredVelocity(
        rng.normal(size=g.shape_u1), rng.normal(size=g.shape_u2), rng.normal(size=g.shape_u3)
    )


# ---------------------------------------------------------------------------
# references: the slice formulas
# ---------------------------------------------------------------------------


def ref_divergence(u, grid):
    return (
        (u.u1[1:] - u.u1[:-1]) / grid.dx
        + (u.u2[:, 1:] - u.u2[:, :-1]) / grid.dy
        + (u.u3[:, :, 1:] - u.u3[:, :, :-1]) / grid.dz
    )


def ref_anisotropic_laplacian(f_ext, nu, grid):
    c = f_ext[1:-1, 1:-1, 1:-1]
    return (
        nu[0] * (f_ext[2:, 1:-1, 1:-1] - 2.0 * c + f_ext[:-2, 1:-1, 1:-1]) / grid.dx**2
        + nu[1] * (f_ext[1:-1, 2:, 1:-1] - 2.0 * c + f_ext[1:-1, :-2, 1:-1]) / grid.dy**2
        + nu[2] * (f_ext[1:-1, 1:-1, 2:] - 2.0 * c + f_ext[1:-1, 1:-1, :-2]) / grid.dz**2
    )


def ref_advect_scalar(u, C, grid):
    Cp = np.pad(C, 1, mode="edge")
    fx = u.u1 * np.where(u.u1 > 0.0, Cp[:-1, 1:-1, 1:-1], Cp[1:, 1:-1, 1:-1])
    fy = u.u2 * np.where(u.u2 > 0.0, Cp[1:-1, :-1, 1:-1], Cp[1:-1, 1:, 1:-1])
    fz = u.u3 * np.where(u.u3 > 0.0, Cp[1:-1, 1:-1, :-1], Cp[1:-1, 1:-1, 1:])
    return (
        (fx[1:] - fx[:-1]) / grid.dx
        + (fy[:, 1:] - fy[:, :-1]) / grid.dy
        + (fz[:, :, 1:] - fz[:, :, :-1]) / grid.dz
    )


def _ref_face_average(a, axis):
    shape = list(a.shape)
    shape[axis] += 1
    out = np.empty(shape)
    lo = [slice(None)] * 3
    hi = [slice(None)] * 3
    mid = [slice(None)] * 3
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    mid[axis] = slice(1, -1)
    out[tuple(mid)] = 0.5 * (a[tuple(lo)] + a[tuple(hi)])
    first = [slice(None)] * 3
    first[axis] = 0
    last = [slice(None)] * 3
    last[axis] = -1
    out[tuple(first)] = a[tuple(first)]
    out[tuple(last)] = a[tuple(last)]
    return out


def ref_diffuse_concentration(C, M, grid):
    """Entries are read straight from ``M.m`` (strided views for a per-cell
    tensor), and the diagonal is face-averaged here."""
    Ce = apply_concentration_bcs(C, M, grid)
    dx, dy, dz = grid.spacing
    m = M.m
    if m.ndim == 2 and np.count_nonzero(m - np.diag(np.diag(m))) == 0:
        fx = m[0, 0] * (Ce[1:, 1:-1, 1:-1] - Ce[:-1, 1:-1, 1:-1]) / dx
        fy = m[1, 1] * (Ce[1:-1, 1:, 1:-1] - Ce[1:-1, :-1, 1:-1]) / dy
        fz = m[2, 2] * (Ce[1:-1, 1:-1, 1:] - Ce[1:-1, 1:-1, :-1]) / dz
        fz[:, :, 0] = 0.0
    else:
        def entry(i, j):
            return m[..., i, j] if m.ndim == 5 else float(m[i, j])

        def face(i, axis):
            e = entry(i, i)
            return e if np.ndim(e) == 0 else _ref_face_average(e, axis)

        dCdx_c = (Ce[2:, 1:-1, 1:-1] - Ce[:-2, 1:-1, 1:-1]) / (2.0 * dx)
        dCdy_c = (Ce[1:-1, 2:, 1:-1] - Ce[1:-1, :-2, 1:-1]) / (2.0 * dy)
        dCdz_c = (Ce[1:-1, 1:-1, 2:] - Ce[1:-1, 1:-1, :-2]) / (2.0 * dz)
        dCdx_f = (Ce[1:, 1:-1, 1:-1] - Ce[:-1, 1:-1, 1:-1]) / dx
        dCdy_f = (Ce[1:-1, 1:, 1:-1] - Ce[1:-1, :-1, 1:-1]) / dy
        dCdz_f = (Ce[1:-1, 1:-1, 1:] - Ce[1:-1, 1:-1, :-1]) / dz
        m12, m13, m23 = entry(0, 1), entry(0, 2), entry(1, 2)
        fx = face(0, 0) * dCdx_f + _ref_face_average(m12 * dCdy_c + m13 * dCdz_c, 0)
        fy = face(1, 1) * dCdy_f + _ref_face_average(m12 * dCdx_c + m23 * dCdz_c, 1)
        fz = face(2, 2) * dCdz_f + _ref_face_average(m13 * dCdx_c + m23 * dCdy_c, 2)
        fz[:, :, 0] = 0.0
    return (
        (fx[1:] - fx[:-1]) / dx
        + (fy[:, 1:] - fy[:, :-1]) / dy
        + (fz[:, :, 1:] - fz[:, :, :-1]) / dz
    )


def _sl(a, axis, start, stop):
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    return a[tuple(idx)]


def ref_advect_velocity(u, grid, ext, components):
    raw = u.components()
    exts = (ext.u1e, ext.u2e, ext.u3e)
    h = grid.spacing
    out = []
    for axis in components:
        f, f_ext = raw[axis], exts[axis]
        total = None
        for d in range(3):
            if d == axis:
                lo, hi = _sl(f, d, None, -1), _sl(f, d, 1, None)
                speed = 0.5 * (lo + hi)
            else:
                speed = 0.5 * (_sl(raw[d], axis, None, -1) + _sl(raw[d], axis, 1, None))
                idx_lo = [slice(1, -1)] * 3
                idx_lo[axis] = slice(2, -2)
                idx_hi = list(idx_lo)
                idx_lo[d] = slice(None, -1)
                idx_hi[d] = slice(1, None)
                lo, hi = f_ext[tuple(idx_lo)], f_ext[tuple(idx_hi)]
            flux = speed * np.where(speed > 0.0, lo, hi)
            term = (_sl(flux, d, 1, None) - _sl(flux, d, None, -1)) / h[d]
            total = term if total is None else total + term
        adv = np.zeros_like(f)
        _sl(adv, axis, 1, -1)[...] = total
        out.append(adv)
    return out


# ---------------------------------------------------------------------------
# exact equality
# ---------------------------------------------------------------------------


def test_divergence_exact_and_c_contiguous(grid):
    u = _random_velocity(np.random.default_rng(1), grid)
    got = divergence(u, grid)
    assert np.array_equal(got, ref_divergence(u, grid))
    # The projection's np.mean sums in memory order: the layout is part of
    # the result.
    assert got.flags.c_contiguous


@pytest.mark.parametrize("component", [0, 1, 2])
def test_anisotropic_laplacian_exact(grid, component):
    rng = np.random.default_rng(2 + component)
    ext = extend_velocity(_random_velocity(rng, grid), None, 0.3, grid)
    nu = (0.013, 0.021, 0.007)
    f_ext = ext[component]
    before = f_ext.copy()
    assert np.array_equal(
        anisotropic_laplacian(f_ext, nu, grid), ref_anisotropic_laplacian(f_ext, nu, grid)
    )
    assert np.array_equal(f_ext, before)


def test_advect_scalar_exact(grid):
    rng = np.random.default_rng(5)
    u = _random_velocity(rng, grid)
    C = rng.normal(size=grid.shape_cells)
    assert np.array_equal(advect_scalar(u, C, grid), ref_advect_scalar(u, C, grid))


@pytest.mark.parametrize("mode", ["aniso", "hydro"])
def test_advect_velocity_exact(grid, mode):
    rng = np.random.default_rng(6)
    u = _random_velocity(rng, grid)
    ext = extend_velocity(u, None, 0.3, grid, mode)
    components = (0, 1, 2) if mode == "aniso" else (0, 1)
    got = advect_velocity(u, grid, ext=ext, components=components)
    for d, r in zip(components, ref_advect_velocity(u, grid, ext, components)):
        assert np.array_equal(got.components()[d], r)


def _tensors(grid):
    rng = np.random.default_rng(7)
    A = rng.normal(size=grid.shape_cells + (3, 3))
    cells = A @ np.swapaxes(A, -1, -2) + 0.1 * np.eye(3)
    return {
        "identity": DiffusionTensor.identity(),
        "diagonal": DiffusionTensor(np.diag([0.3, 0.11, 0.05])),
        "full": random_spd_tensor(rng)[0],
        "per-cell": DiffusionTensor(cells),
    }


@pytest.mark.parametrize("kind", ["identity", "diagonal", "full", "per-cell"])
def test_diffuse_concentration_exact(grid, kind):
    """A constant diagonal tensor diffuses with the momentum stencil over C's
    ghosts, bit for bit; the flux form stays within 1e-15 relative of it."""
    M = _tensors(grid)[kind]
    C = np.random.default_rng(8).normal(size=grid.shape_cells)
    before = C.copy()
    got = diffuse_concentration(C, M, grid)
    flux_form = ref_diffuse_concentration(C, M, grid)
    if kind in ("identity", "diagonal"):
        Ce = apply_concentration_bcs(C, M, grid)
        assert np.array_equal(got, ref_anisotropic_laplacian(Ce, np.diag(M.m), grid))
        assert np.max(np.abs(got - flux_form)) <= 1e-15 * np.max(np.abs(flux_form))
    else:
        assert np.array_equal(got, flux_form)
    assert np.array_equal(C, before)


def test_constant_diagonal_is_recorded_at_construction(grid):
    flags = {kind: M.constant_diagonal for kind, M in _tensors(grid).items()}
    assert flags == {"identity": True, "diagonal": True, "full": False, "per-cell": False}
    # one diagonal matrix per cell is not constant: it takes the flux form
    cells = np.broadcast_to(np.diag([0.3, 0.11, 0.05]), grid.shape_cells + (3, 3))
    assert DiffusionTensor(cells).constant_diagonal is False


def test_per_cell_tensor_entries_are_contiguous_copies(grid):
    M = _tensors(grid)["per-cell"]
    for i in range(3):
        for j in range(3):
            e = M.entry(i, j)
            assert e.flags.c_contiguous and not e.flags.writeable
            assert np.array_equal(e, M.m[..., i, j])
    for d, f in enumerate(M.face_diagonal):
        assert not f.flags.writeable
        assert np.array_equal(f, _ref_face_average(M.m[..., d, d], d))
