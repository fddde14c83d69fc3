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

import importlib

__version__ = "0.1.0"

# each exported name and its module, imported on first read (PEP 562), so
# importing the package loads neither numpy nor scipy
_HOME = {name: module for module, names in {
    "errors": "PreconditionError SolverError UsageError",
    "fem": "StiffnessOperator consistent_flux consistent_fluxes "
           "solve_constrained solve_dirichlet solve_mixed solve_neumann",
    "hodge": "HarmonicBasis greens_operator reconstruct_velocity "
             "validate_sign_condition",
    "mesh": "BoundaryComponent Mesh generate_annulus load_mesh save_mesh "
            "uniform_refine",
    "osgood": "mu osgood_bound stability_experiment",
    "transport": "Scenario Trajectory load_scenario parse_scenario run",
    "zaremba": "reversed_flux_residuals solve_auxiliary",
    "certificates": "TwinRun lamb_identity",
}.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return [*globals(), *__all__]
