"""Manufactured solution for the hydrostatic system (weak-residual slopes).

The velocity comes from a horizontal streamfunction, so it satisfies the
barotropic constraint pointwise with u3 = 0:

    u1 =  eta(t) A(x1) B'(x2) phi(x3),   u2 = -eta(t) A'(x1) B(x2) phi(x3)

with A, B squared sines and phi = cos(pi x3 / 2h).  The factors are odd
across the Dirichlet walls, even across the ground (so theta_H = 0) and odd
across the top, making every ghost convention of the solver exact for the
sampled fields.  The concentration
C = eta_c(t) P(x1) Q(x2) R(x3) uses plain sines and R = cos(pi x3 / 2h),
compatible with a diagonal tensor's no-flux ground condition, with exact
ghosts on every boundary.  Defect forcings are hand-differentiated and
verified against finite differences in the test suite.
"""

import math

import numpy as np

from hydrolimit.aniso import SimState
from hydrolimit.operators import StaggeredVelocity


class Factor:
    """1-D factor with derivatives up to third order."""

    def __init__(self, f0, f1, f2, f3):
        self.f = (f0, f1, f2, f3)

    def __call__(self, order, x):
        return self.f[order](x)


def sin2(a):
    return Factor(
        lambda x: np.sin(a * x) ** 2,
        lambda x: a * np.sin(2.0 * a * x),
        lambda x: 2.0 * a * a * np.cos(2.0 * a * x),
        lambda x: -4.0 * a**3 * np.sin(2.0 * a * x),
    )


def sin1(a):
    return Factor(
        lambda x: np.sin(a * x),
        lambda x: a * np.cos(a * x),
        lambda x: -a * a * np.sin(a * x),
        lambda x: -a**3 * np.cos(a * x),
    )


def cos1(a):
    return Factor(
        lambda x: np.cos(a * x),
        lambda x: -a * np.sin(a * x),
        lambda x: -a * a * np.cos(a * x),
        lambda x: a**3 * np.sin(a * x),
    )


class ManufacturedHydro:
    """Forced hydrostatic solution with hand-coded defect forcings."""

    def __init__(self, grid, params, M, amp_u=0.05, amp_c=0.4, omega=3.0):
        if params.l_slope != 0.0:
            raise ValueError("manufactured solution assumes an f-plane")
        m = M.m
        if M.is_spatial or np.count_nonzero(m - np.diag(np.diag(m))) != 0:
            raise ValueError("manufactured solution assumes a diagonal constant tensor")
        self.grid = grid
        self.params = params
        self.mdiag = (float(m[0, 0]), float(m[1, 1]), float(m[2, 2]))
        self.alpha = 2.0 * params.f0 * math.sin(params.l0)
        self.amp_u = amp_u
        self.amp_c = amp_c
        self.omega = omega
        self.A = sin2(math.pi / grid.lx)
        self.B = sin2(math.pi / grid.ly)
        self.phi = cos1(math.pi / (2.0 * grid.h))
        self.P = sin1(math.pi / grid.lx)
        self.Q = sin1(math.pi / grid.ly)
        self.R = cos1(math.pi / (2.0 * grid.h))

    # time envelopes
    def eta(self, t):
        return self.amp_u * (1.0 + 0.3 * math.cos(self.omega * t))

    def deta(self, t):
        return -0.3 * self.amp_u * self.omega * math.sin(self.omega * t)

    def eta_c(self, t):
        return self.amp_c * (1.0 + 0.5 * math.sin(self.omega * t))

    def deta_c(self, t):
        return 0.5 * self.amp_c * self.omega * math.cos(self.omega * t)

    # exact fields
    def u1(self, t, X1, X2, X3, d=(0, 0, 0)):
        return self.eta(t) * self.A(d[0], X1) * self.B(d[1] + 1, X2) * self.phi(d[2], X3)

    def u2(self, t, X1, X2, X3, d=(0, 0, 0)):
        return -self.eta(t) * self.A(d[0] + 1, X1) * self.B(d[1], X2) * self.phi(d[2], X3)

    def conc(self, t, X1, X2, X3, d=(0, 0, 0)):
        return self.eta_c(t) * self.P(d[0], X1) * self.Q(d[1], X2) * self.R(d[2], X3)

    def _momentum_defect(self, t, X1, X2, X3):
        e = self.eta(t)
        de = self.deta(t)
        nu = self.params.nu
        A, B, phi = self.A, self.B, self.phi
        a0, a1, a2, a3 = (A(k, X1) for k in range(4))
        b0, b1, b2, b3 = (B(k, X2) for k in range(4))
        p0, p1, p2 = phi(0, X3), phi(1, X3), phi(2, X3)

        v1 = e * a0 * b1 * p0
        v2 = -e * a1 * b0 * p0
        f1 = (
            de * a0 * b1 * p0
            + v1 * (e * a1 * b1 * p0)
            + v2 * (e * a0 * b2 * p0)
            - nu[0] * e * a2 * b1 * p0
            - nu[1] * e * a0 * b3 * p0
            - nu[2] * e * a0 * b1 * p2
            - self.alpha * v2
        )
        f2 = (
            -de * a1 * b0 * p0
            + v1 * (-e * a2 * b0 * p0)
            + v2 * (-e * a1 * b1 * p0)
            + nu[0] * e * a3 * b0 * p0
            + nu[1] * e * a1 * b2 * p0
            + nu[2] * e * a1 * b0 * p2
            + self.alpha * v1
        )
        return f1, f2

    def _concentration_defect(self, t, X1, X2, X3):
        ec = self.eta_c(t)
        m1, m2, m3 = self.mdiag
        q0 = self.P(0, X1) * self.Q(0, X2) * self.R(0, X3)
        v1 = self.u1(t, X1, X2, X3)
        v2 = self.u2(t, X1, X2, X3)
        return (
            self.deta_c(t) * q0
            + v1 * ec * self.P(1, X1) * self.Q(0, X2) * self.R(0, X3)
            + v2 * ec * self.P(0, X1) * self.Q(1, X2) * self.R(0, X3)
            - m1 * ec * self.P(2, X1) * self.Q(0, X2) * self.R(0, X3)
            - m2 * ec * self.P(0, X1) * self.Q(2, X2) * self.R(0, X3)
            - m3 * ec * self.P(0, X1) * self.Q(0, X2) * self.R(2, X3)
        )

    # hooks for the solver and the weak-residual quadrature
    def forcing_staggered(self, t, grid):
        X = grid.u1_positions()
        f1, _ = self._momentum_defect(t, *X)
        Y = grid.u2_positions()
        _, f2 = self._momentum_defect(t, *Y)
        Zc = grid.centers()
        fC = self._concentration_defect(t, *Zc)
        return (
            np.broadcast_to(f1, grid.shape_u1),
            np.broadcast_to(f2, grid.shape_u2),
            np.zeros((1, 1, 1)),
            np.broadcast_to(fC, grid.shape_cells),
        )

    def forcing_centers(self, t, grid):
        Xc = grid.centers()
        f1, f2 = self._momentum_defect(t, *Xc)
        fC = self._concentration_defect(t, *Xc)
        z = np.zeros((1, 1, 1))
        return {
            "f1": np.broadcast_to(f1, grid.shape_cells),
            "f2": np.broadcast_to(f2, grid.shape_cells),
            "f3": z,
            "fC": np.broadcast_to(fC, grid.shape_cells),
        }

    def initial_state(self, grid) -> SimState:
        X = grid.u1_positions()
        Y = grid.u2_positions()
        Zc = grid.centers()
        u1 = np.broadcast_to(self.u1(0.0, *X), grid.shape_u1).copy()
        u2 = np.broadcast_to(self.u2(0.0, *Y), grid.shape_u2).copy()
        u3 = np.zeros(grid.shape_u3)
        C = np.broadcast_to(self.conc(0.0, *Zc), grid.shape_cells).copy()
        return SimState(
            0.0, 0, StaggeredVelocity(u1, u2, u3), np.zeros((grid.nx, grid.ny)), C
        )

    def velocity_error(self, t, u: StaggeredVelocity, grid) -> float:
        X = grid.u1_positions()
        Y = grid.u2_positions()
        e1 = np.max(np.abs(u.u1 - self.u1(t, *X)))
        e2 = np.max(np.abs(u.u2 - self.u2(t, *Y)))
        return max(float(e1), float(e2))
