"""Incompressible flow through multiply connected domains, with the
certificate tooling that checks the discrete difference estimates.

The package splits along the same seams as the underlying problem:

- :mod:`euler_ss.mesh` — conforming triangulations with loop-ordered
  boundary components and role tags,
- :mod:`euler_ss.fem` — P1 stiffness machinery, constrained solves, and
  consistent boundary fluxes; every P1 and P0 field is a plain float64
  array, (V,), (T,) or (T, 2),
- :mod:`euler_ss.hodge` — harmonic stream basis, circulation matrix, and
  velocity reconstruction from vorticity plus boundary data,
- :mod:`euler_ss.transport` — scenarios as parsed immutable values,
  conservative upwind transport, and circulation bookkeeping,
- :mod:`euler_ss.zaremba` — the auxiliary mixed problem of a difference
  state and its reversed-flux law,
- :mod:`euler_ss.certificates` — twin-run identities, the Lamb identity
  and the growth-inequality ledger,
- :mod:`euler_ss.osgood` — the comparison bound and the
  perturbation-ladder experiment,
- :mod:`euler_ss.cli` — batch entry points (``euler-ss``).
"""

from .errors import PreconditionError, SolverError, UsageError
from .fem import (StiffnessOperator, consistent_flux, consistent_fluxes,
                  solve_constrained, solve_dirichlet, solve_mixed,
                  solve_neumann)
from .hodge import (HarmonicBasis, greens_operator, reconstruct_velocity,
                    validate_sign_condition)
from .mesh import (BoundaryComponent, Mesh, generate_annulus, load_mesh,
                   save_mesh, uniform_refine)
from .osgood import mu, osgood_bound, stability_experiment
from .transport import (Scenario, Trajectory, load_scenario, parse_scenario,
                        run)
from .zaremba import reversed_flux_residuals, solve_auxiliary
from .certificates import TwinRun, lamb_identity

__version__ = "0.1.0"

__all__ = [
    "BoundaryComponent", "HarmonicBasis", "Mesh", "PreconditionError",
    "Scenario", "SolverError", "StiffnessOperator", "Trajectory", "TwinRun",
    "UsageError",
    "consistent_flux", "consistent_fluxes", "generate_annulus",
    "greens_operator", "lamb_identity", "load_mesh", "load_scenario", "mu",
    "osgood_bound", "parse_scenario", "reconstruct_velocity",
    "reversed_flux_residuals", "run", "save_mesh", "solve_auxiliary",
    "solve_constrained", "solve_dirichlet", "solve_mixed", "solve_neumann",
    "stability_experiment", "uniform_refine", "validate_sign_condition",
]
