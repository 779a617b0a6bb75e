"""Shared helpers: small grids, smooth random fields, divergence-free samples."""

import numpy as np
import pytest

from hydrolimit.core import DiffusionTensor, Grid, PhysParams
from hydrolimit.operators import StaggeredVelocity, apply_velocity_bcs
from hydrolimit.harness import project


@pytest.fixture
def grid8():
    return Grid(8, 8, 8)


@pytest.fixture
def grid_small():
    return Grid(6, 5, 4, lx=1.0, ly=1.0, h=1.0)


def smooth_field(rng, grid, kind="cells", kmax=2):
    """Random low-mode field (sum of sine products), zero on the boundary."""
    mesh = {
        "cells": grid.centers,
        "u1": grid.u1_positions,
        "u2": grid.u2_positions,
        "u3": grid.u3_positions,
    }[kind]()
    shape = {
        "cells": grid.shape_cells,
        "u1": grid.shape_u1,
        "u2": grid.shape_u2,
        "u3": grid.shape_u3,
    }[kind]
    X1, X2, X3 = mesh
    out = np.zeros(shape)
    for kx in range(1, kmax + 1):
        for ky in range(1, kmax + 1):
            for kz in range(1, kmax + 1):
                out += (
                    rng.normal()
                    * np.sin(np.pi * kx * X1 / grid.lx)
                    * np.sin(np.pi * ky * X2 / grid.ly)
                    * np.sin(np.pi * kz * X3 / grid.h)
                )
    return out


def smooth_velocity(rng, grid, kmax=2):
    return StaggeredVelocity(
        smooth_field(rng, grid, "u1", kmax),
        smooth_field(rng, grid, "u2", kmax),
        smooth_field(rng, grid, "u3", kmax),
    )


def projected_velocity(rng, grid, eps=1.0, tol=1e-12, kmax=2):
    """Smooth random velocity made divergence-free by the eps-projection."""
    u = apply_velocity_bcs(smooth_velocity(rng, grid, kmax))
    up, _, _ = project(u, "aniso", eps, 1.0, grid, tol)
    return up


def random_spd_tensor(rng, spread=1.0):
    """Random SPD tensor with well-separated eigenvalues."""
    a = rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(a)
    eigs = np.sort(rng.uniform(0.2, 0.2 + 3.0 * spread, size=3))
    eigs[1] = eigs[0] * 1.5 + 0.1
    eigs[2] = eigs[0] * 2.5 + 0.3
    return DiffusionTensor(q @ np.diag(eigs) @ q.T), eigs


def default_params(eps=0.5, nu=0.01, f0=1.0):
    return PhysParams(nu, nu, nu, eps=eps, f0=f0, l0=np.pi / 4)
