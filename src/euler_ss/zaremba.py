"""Auxiliary potential of a difference state (a mixed boundary problem).

Given the stream field psi of a velocity difference and the vorticity
difference omega, the auxiliary potential solves

    integral(grad(phi) . grad(chi)) = -integral(grad(psi) . grad(chi))
                                      - integral(omega chi)

for every test function chi vanishing on the outflow and wall components;
phi itself is pinned to zero there, free on the inflow components and in
the interior.  Its perp-gradient v = grad_perp(phi) is the reversed-flow
field used by the difference estimates: v is discrete-divergence-free by
construction and its consistent fluxes D_i through the inflow components
reproduce the negated circulations of the difference state.

The right-hand side vanishes at interior rows (the stream equation), so
phi is discrete harmonic away from the boundary data; everything it knows
about the difference state enters through the inflow components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .errors import PreconditionError
from .fem import ScalarFieldP1, VelocityP0, VorticityP0
from .hodge import HarmonicBasis


@dataclass
class AuxiliaryState:
    """Solved auxiliary potential with its flux and trace diagnostics."""

    phi: ScalarFieldP1
    v: VelocityP0                  # grad_perp(phi)
    D: np.ndarray                  # (ncomp,) consistent fluxes of phi

    def normal_trace(self, comp) -> np.ndarray:
        """Per-edge v . n on a boundary component (outward normal).

        For v = grad_perp(phi) this is the exact P1 trace
        -d(phi)/d(tau) = -(phi_b - phi_a)/len on the directed edge.
        """
        a, b = comp.edges[:, 0], comp.edges[:, 1]
        return -(self.phi.values[b] - self.phi.values[a]) / comp.length


def solve_auxiliary(basis: HarmonicBasis, psi: ScalarFieldP1,
                    omega: VorticityP0) -> AuxiliaryState:
    """Solve the mixed problem for the auxiliary potential of a
    difference state (psi, omega)."""
    mesh = basis.mesh
    pinned = [c.comp for c in mesh.components if c.role != "inflow"]
    if not pinned:
        raise PreconditionError(
            "auxiliary problem needs at least one wall or outflow "
            "component to pin (every component is an inflow)")

    load = -(basis.op.matrix @ psi.values) \
        - fem.p0_load_vector(mesh, omega.values)
    nodes = mesh.nodes_of(pinned)
    phi = fem.solve_constrained(basis.op, load, nodes,
                                np.zeros(len(nodes)))
    # consistent fluxes of phi with a zero pairing load
    D = fem.consistent_fluxes(basis.op, phi, np.zeros(mesh.num_vertices))
    v = fem.perp_gradient(mesh, phi)
    return AuxiliaryState(phi=phi, v=v, D=D)


def reversed_flux_residuals(aux: AuxiliaryState, basis: HarmonicBasis,
                            circulations: np.ndarray) -> np.ndarray:
    """Per-inflow-component residual |D_i + C_i| of the reversed-flux law.

    ``circulations`` lists C_i of the difference state for the inner
    components in basis order; the law only constrains inflow components.
    """
    mesh = basis.mesh
    C = np.asarray(circulations, dtype=np.float64)
    out = []
    for c in mesh.components:
        if c.role != "inflow" or c.comp == 0:
            continue
        idx = basis.inner.index(c.comp)
        out.append(abs(aux.D[c.comp] + C[idx]))
    return np.array(out)
