"""Numerical laboratory for the hydrostatic limit of a polluted shallow atmosphere.

Rescaled anisotropic Navier-Stokes + pollutant transport on a staggered grid,
its hydrostatic (primitive-equation) limit, and the diagnostics that turn the
limit analysis into runnable checks: energy ledger, a-priori norms, a
time-translation modulus, weak-form residuals, and eps-sweep convergence
metrics.
"""

from .core import (
    BoundaryForcing,
    DiffusionTensor,
    Grid,
    PhysParams,
    coercivity_constant,
    coriolis_at,
)
from .operators import (
    StaggeredVelocity,
    advect_scalar,
    advect_velocity,
    anisotropic_laplacian,
    apply_concentration_bcs,
    apply_velocity_bcs,
    diffuse_concentration,
    divergence,
    extend_velocity,
    grad_pressure,
)
from .sources import Source, SourceSpec, source_norm_bound
from .aniso import (
    CFLError,
    NumericsError,
    ProjectionError,
    SimState,
    stability_limits,
)
from .diagnostics import (
    ConvergenceReport,
    EnergyReport,
    RunHistory,
    apriori_norms,
    convergence_report,
    energy_balance,
    translation_modulus,
    weak_residual,
)
from .config import ConfigError, RunConfig, load_config, parse_config
from .harness import epsilon_sweep, project, run_simulation, step, write_csv, write_vtk

__version__ = "0.1.0"
