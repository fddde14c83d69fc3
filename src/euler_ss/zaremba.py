"""Auxiliary potential of a difference state (a mixed boundary problem).

Given the stream field psi of a velocity difference and the vorticity
difference omega, the auxiliary potential solves

    integral(grad(phi) . grad(chi)) = -integral(grad(psi) . grad(chi))
                                      - integral(omega chi)

for every test function chi vanishing on the outflow and wall components;
phi itself is pinned to zero there, free on the inflow components and in
the interior.  Its perp-gradient v = grad_perp(phi) is the reversed-flow
field used by the difference estimates (``hodge.stream_velocity`` of phi
with no through-flow): v is discrete-divergence-free by construction and
its consistent fluxes D_i through the inflow components reproduce the
negated circulations of the difference state.

The potentials of a block of difference states are kept as they are
solved, one column each: a (V, n) array of phi and an (ncomp, n) array of
D.

The right-hand side vanishes at interior rows (the stream equation), so
phi is discrete harmonic away from the boundary data; everything it knows
about the difference state enters through the inflow components.
"""

from __future__ import annotations

import numpy as np

from . import fem
from .errors import PreconditionError
from .hodge import HarmonicBasis


def solve_auxiliary(basis: HarmonicBasis, psi: np.ndarray, omega: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Solve the mixed problem for the auxiliary potentials of a block of
    difference states: the (V, n) array of their stream functions with the
    (T, n) array of their vorticities, one column per state.

    One load product per operator, one multi-column solve with the cached
    factor of the pinned set, and one flux product.  Returns the (V, n)
    potentials phi and their (ncomp, n) consistent fluxes D."""
    mesh = basis.mesh
    pinned = [c.comp for c in mesh.components if c.role != "inflow"]
    if not pinned:
        raise PreconditionError(
            "auxiliary problem needs at least one wall or outflow "
            "component to pin (every component is an inflow)")

    # -(A psi) - b(omega), negated in place: one buffer
    load = basis.op.matrix @ psi
    load += fem.p0_load_vector(mesh, omega)
    np.negative(load, out=load)
    nodes = mesh.nodes_of(pinned)
    phi = fem.solve_constrained(basis.op, load, nodes, np.zeros(len(nodes)))
    # consistent fluxes of phi, which is harmonic: no pairing load
    return phi, fem.consistent_fluxes(basis.op, phi)


def reversed_flux_residuals(D: np.ndarray, basis: HarmonicBasis,
                            C: np.ndarray) -> np.ndarray:
    """Residuals |D_i + C_i| of the reversed-flux law: one row per state,
    one column per inflow component.

    ``D`` holds the (ncomp, n) consistent fluxes of ``solve_auxiliary``
    and ``C`` the (n, m) circulations of the difference states for the
    inner components in basis order; the law only constrains inflow
    components.
    """
    comps = [c.comp for c in basis.mesh.components
             if c.role == "inflow" and c.comp != 0]
    idx = [basis.inner.index(cid) for cid in comps]
    return np.abs(D[comps].T + np.asarray(C, dtype=np.float64)[:, idx])
