"""Hodge-type velocity reconstruction on multiply connected domains.

A flow state is (vorticity, boundary flux g, circulations C_i on the inner
components).  The velocity splits as

    u = mult * grad(phi_g) + grad_perp(G[omega] + sum_i psi_i f^i)

where phi_g is the mean-zero potential carrying the through-flow, G is the
Green operator (laplace(G[omega]) = omega, zero trace), f^i is the harmonic
basis field of inner component i (trace 1 there, 0 elsewhere), and the
constants psi_i solve the circulation system

    sum_j M_ij psi_j = C_i - flux_i(G[omega]),   M_ij = flux_i(f^j).

All fluxes are consistent (variational) fluxes with the outward normal; for
a stream function the flux through component i equals the circulation along
it with the fluid kept on the left (outer loop counterclockwise, hole loops
clockwise).  On the annulus with radii (1, 2) this gives M_11 = 2*pi/ln 2
(positive), and a positive prescribed circulation on the inner component
drives flow that is clockwise around the hole.

Per reconstruction this is one load, one Green solve, one boundary-row
product for the Green fluxes, the m-term sum of the stream function, and
one product with ``HarmonicBasis.stream_operator``, a stack of the
perp-gradient and the edge jumps: it yields the velocity and the
rotational edge fluxes of the transport step, each to the last bit of its
own map.  ``reconstruct_velocity`` returns plain arrays: the stream
function, its harmonic coefficients, the velocity and the edge jumps.
Whatever a saved snapshot reports beyond them is derived from its
trajectory row: ``stream_velocity`` gives the velocity from the row's
stream function and multiplier and the shared through-flow gradient, to
the bits of the stacked product (``traj.velocity(k)``), and the
consistent circulations pair the row's stream function with the boundary
rows of its load (``traj.boundary_load(k)``).  The through-flow, g with
phi_g and its gradient at unit multiplier, is owned by
``transport.FluxAssembler``, one per g cached on the basis.

The boundary data g, one (E,) array over ``Mesh.edges``, must satisfy the
sign condition: g <= 0 on inflow components, g >= 0 on outflow components,
g = 0 on walls.  Violations are hard errors naming the offending edge.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import fem
from .errors import PreconditionError, UsageError
from .mesh import Mesh

SIGN_TOL = 1e-12


def validate_sign_condition(mesh: Mesh, g: np.ndarray) -> None:
    """Enforce the sign condition on (E,) edge data, per component at its
    ``edge_ids`` (tolerance 1e-12 relative to the largest |g|)."""
    g = fem.edge_data(mesh, g)
    tol = SIGN_TOL * float(np.abs(g).max(initial=0.0))
    for comp in mesh.components:
        loop = g[comp.edge_ids]
        if comp.role == "inflow":
            bad = np.nonzero(loop > tol)[0]
            kind = "inflow data must satisfy g <= 0"
        elif comp.role == "outflow":
            bad = np.nonzero(loop < -tol)[0]
            kind = "outflow data must satisfy g >= 0"
        else:
            bad = np.nonzero(np.abs(loop) > tol)[0]
            kind = "wall data must vanish"
        if bad.size:
            e = int(bad[0])
            x, y = mesh.vertices[comp.edges[e]].mean(axis=0)
            raise PreconditionError(
                f"sign condition violated on component {comp.comp} "
                f"({comp.role}): {kind}, but edge {e} at "
                f"({x:.6g}, {y:.6g}) carries g = {loop[e]:.6e}")


class HarmonicBasis:
    """Harmonic fields of the inner components plus the flux matrix.

    ``fields[i]`` has trace 1 on inner component ``inner[i]`` and 0 on every
    other component.  ``flux_rows`` holds the consistent flux of each basis
    field through every component; ``M`` is its restriction to the inner
    components (symmetric positive definite up to solver tolerance).
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.op = fem.StiffnessOperator(mesh)
        self.inner = [c.comp for c in mesh.components[1:]]
        zero_load = np.zeros(mesh.num_vertices)
        self.fields: list[np.ndarray] = []
        for cid in self.inner:
            bc = {c.comp: (1.0 if c.comp == cid else 0.0)
                  for c in mesh.components}
            self.fields.append(fem.solve_dirichlet(self.op, zero_load, bc))
        m = len(self.inner)
        self.flux_rows = np.zeros((len(mesh.components), m))
        for j, f in enumerate(self.fields):
            self.flux_rows[:, j] = fem.consistent_fluxes(self.op, f)
        self.M = self.flux_rows[self.inner, :].copy() if m \
            else np.zeros((0, 0))
        # ``transport.FluxAssembler`` per g's bytes (``transport.flow_setup``)
        self.flows: dict[bytes, object] = {}

    @property
    def num_inner(self) -> int:
        return len(self.inner)

    @cached_property
    def stream_operator(self) -> sp.csr_matrix:
        """(2T + E, V) stack of the maps a velocity reconstruction applies
        to its stream function: the perp-gradient (the velocity) and the
        edge jumps (the rotational edge fluxes).  The rows are those of
        the two maps, so one product gives each of them to the last bit.
        Built on first use."""
        mesh = self.mesh
        return sp.vstack([mesh.perp_gradient_operator,
                          mesh.edge_jump_operator], format="csr")

    @cached_property
    def green_trace(self) -> dict[int, float]:
        """The zero Dirichlet trace {component id: 0.0} of every Green
        solve, built on first use."""
        return {c.comp: 0.0 for c in self.mesh.components}


def greens_operator(basis: HarmonicBasis, omega: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Zero-trace stream potential of a (T,) vorticity field.

    Returns (psi0, load) with laplace(psi0) = omega weakly, psi0 = 0 on the
    whole boundary; ``load`` is the right-hand side for flux pairings.
    Every call reuses the operator's cached all-boundary factor.
    """
    load = fem.p0_load_vector(basis.mesh, omega)
    np.negative(load, out=load)
    return fem.solve_dirichlet(basis.op, load, basis.green_trace), load


def stream_velocity(mesh: Mesh, psi: np.ndarray, multiplier,
                    phi_grad: np.ndarray | None) -> np.ndarray:
    """(T, 2) P0 velocity grad_perp(psi) + multiplier * phi_grad of a (V,)
    stream function, one product with the mesh's perp-gradient operator."""
    u = (mesh.perp_gradient_operator @ psi).reshape(-1, 2)
    if phi_grad is not None:
        u += multiplier * phi_grad
    return u


def reconstruct_velocity(basis: HarmonicBasis, omega: np.ndarray,
                         circulations: np.ndarray,
                         multiplier: float = 1.0,
                         phi_grad: np.ndarray | None = None
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                    np.ndarray]:
    """Assemble the velocity of a (T,) vorticity ``omega``, g and C;
    return the (V,) stream function G[omega] + sum_i psi_i f^i, its (m,)
    harmonic coefficients psi_i, the (T, 2) velocity and the (E,) stream
    jumps psi_a - psi_b across every edge a -> b, zero on boundary edges
    (the rotational edge fluxes of a transport step).

    ``circulations`` lists C_i for the inner components in order.
    ``phi_grad`` is the gradient of the unit-multiplier through-flow
    potential of g (``transport.FluxAssembler.phi_grad``), None when
    nothing flows; the velocity adds ``multiplier`` times it.

    Past the Green solve, the stream function meets one product with
    ``basis.stream_operator``, which gives the velocity and the edge
    jumps.
    """
    C = np.asarray(circulations, dtype=np.float64)
    if C.shape != (basis.num_inner,):
        raise UsageError(
            f"need {basis.num_inner} circulation value(s), got {C.shape}")

    psi, load = greens_operator(basis, omega)
    g0_flux = fem.consistent_fluxes(basis.op, psi, load)
    coeffs = np.linalg.solve(basis.M, C - g0_flux[basis.inner]) \
        if basis.num_inner else np.zeros(0)

    # a sum per field, into the Green part's own buffer: a product with
    # the stacked fields would change the summation order when there are
    # two or more
    for c_i, f in zip(coeffs, basis.fields):
        psi += c_i * f

    stream = basis.stream_operator @ psi
    nu = 2 * basis.mesh.num_triangles
    # the perp-gradient rows are those of ``stream_velocity``
    u = stream[:nu].reshape(-1, 2)
    if phi_grad is not None:
        u += multiplier * phi_grad
    return psi, coeffs, u, stream[nu:]
