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
perp-gradient, the edge jumps and the stiffness boundary rows: it yields
the velocity, the rotational edge fluxes of the transport step and the
consistent circulations, each to the last bit of its own map.
``reconstruct_velocity`` returns the assembly with the velocity and the
edge jumps beside it: the step reads them once, and a saved snapshot
keeps the assembly as built.  The assembly stores no velocity: its ``u``
is the perp-gradient product of its stream function plus the multiplier
times the shared through-flow gradient, the bits of the stacked product
(``stream_velocity``).  The through-flow, g with phi_g and its gradient
at unit multiplier, is owned by ``transport.FluxAssembler``, one per g
cached on the basis.

The boundary data g must satisfy the sign condition: g <= 0 on inflow
components, g >= 0 on outflow components, g = 0 on walls.  Violations are
hard errors naming the offending edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import fem
from .errors import PreconditionError, UsageError
from .mesh import Mesh

SIGN_TOL = 1e-12
# exponents of the p-growth checks: the elliptic estimate here and the
# growth ledger of ``certificates.TwinRun``
P_GRID = (2, 4, 8, 16, 32)


def validate_sign_condition(mesh: Mesh, g_edges: dict[int, np.ndarray]
                            ) -> None:
    """Enforce the sign condition on per-edge boundary data (tolerance
    1e-12 relative to the largest |g|, at every data scale)."""
    scale = max((float(np.abs(np.asarray(g)).max(initial=0.0))
                 for g in g_edges.values()), default=0.0)
    tol = SIGN_TOL * scale
    for comp in mesh.components:
        g = np.asarray(g_edges.get(comp.comp, np.zeros(len(comp.length))),
                       dtype=np.float64)
        if comp.role == "inflow":
            bad = np.nonzero(g > tol)[0]
            kind = "inflow data must satisfy g <= 0"
        elif comp.role == "outflow":
            bad = np.nonzero(g < -tol)[0]
            kind = "outflow data must satisfy g >= 0"
        else:
            bad = np.nonzero(np.abs(g) > tol)[0]
            kind = "wall data must vanish"
        if bad.size:
            e = int(bad[0])
            x, y = comp.midpoint[e]
            raise PreconditionError(
                f"sign condition violated on component {comp.comp} "
                f"({comp.role}): {kind}, but edge {e} at "
                f"({x:.6g}, {y:.6g}) carries g = {g[e]:.6e}")


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
        # ``transport.FluxAssembler`` per g (``transport.flow_setup``)
        self.flows: dict[tuple, object] = {}

    @property
    def num_inner(self) -> int:
        return len(self.inner)

    @cached_property
    def stream_operator(self) -> sp.csr_matrix:
        """(2T + E + B, V) stack of the maps a velocity reconstruction
        applies to its stream function: the perp-gradient (the velocity),
        the edge jumps (the rotational edge fluxes) and the boundary rows
        of the stiffness matrix (the consistent circulations).  The rows
        are those of the three maps, so one product gives each of them to
        the last bit.  Built on first use."""
        mesh = self.mesh
        return sp.vstack([mesh.perp_gradient_operator,
                          mesh.edge_jump_operator, self.op.boundary_rows],
                         format="csr")


def greens_operator(basis: HarmonicBasis, omega: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Zero-trace stream potential of a (T,) vorticity field.

    Returns (psi0, load) with laplace(psi0) = omega weakly, psi0 = 0 on the
    whole boundary; ``load`` is the right-hand side for flux pairings.
    Every call reuses the operator's cached all-boundary factor.
    """
    load = -fem.p0_load_vector(basis.mesh, omega)
    bc = {c.comp: 0.0 for c in basis.mesh.components}
    return fem.solve_dirichlet(basis.op, load, bc), load


def stream_velocity(mesh: Mesh, psi: np.ndarray, multiplier,
                    phi_grad: np.ndarray | None) -> np.ndarray:
    """(T, 2) P0 velocity grad_perp(psi) + multiplier * phi_grad of a (V,)
    stream function, one product with the mesh's perp-gradient operator."""
    u = (mesh.perp_gradient_operator @ psi).reshape(-1, 2)
    if phi_grad is not None:
        u += multiplier * phi_grad
    return u


@dataclass
class VelocityAssembly:
    """Stream data and flux diagnostics of a reconstructed velocity, all
    of which a saved snapshot keeps.  The velocity itself is derived on
    read (``u``); the step gets it and the edge jumps beside the assembly
    (``reconstruct_velocity``)."""

    mesh: Mesh
    psi_coeffs: np.ndarray         # (m,) harmonic-basis constants
    psi_total: np.ndarray          # (V,) G[omega] + sum_i psi_i f^i
    multiplier: float              # of the through-flow potential
    circulation_consistent: np.ndarray   # per component, consistent flux
    # the through-flow gradient at unit multiplier, shared with its
    # ``transport.FluxAssembler`` (None when nothing flows)
    phi_grad: np.ndarray | None

    @property
    def u(self) -> np.ndarray:
        """The (T, 2) P0 velocity, to the bit the one the step used."""
        return stream_velocity(self.mesh, self.psi_total, self.multiplier,
                               self.phi_grad)

    @property
    def circulation_trace(self) -> np.ndarray:
        """Per-component circulation by the one-sided quadrature of the
        tangential velocity (first order; a diagnostic only)."""
        u = self.u
        out = np.empty(len(self.mesh.components))
        for comp in self.mesh.components:
            ut = np.einsum("ed,ed->e", u[comp.tri], comp.tangent)
            out[comp.comp] = float(ut @ comp.length)
        return out


def reconstruct_velocity(basis: HarmonicBasis, omega: np.ndarray,
                         circulations: np.ndarray,
                         multiplier: float = 1.0,
                         phi_grad: np.ndarray | None = None
                         ) -> tuple[VelocityAssembly, np.ndarray, np.ndarray]:
    """Assemble the velocity of a (T,) vorticity ``omega``, g and C;
    return the assembly, the (T, 2) velocity and the (E,) stream jumps
    psi_a - psi_b across every edge a -> b, zero on boundary edges (the
    rotational edge fluxes of a transport step).

    ``circulations`` lists C_i for the inner components in order.
    ``phi_grad`` is the gradient of the unit-multiplier through-flow
    potential of g (``transport.FluxAssembler.phi_grad``), None when
    nothing flows; the velocity adds ``multiplier`` times it, and the
    assembly keeps a reference to it.

    Past the Green solve, the stream function meets one product with
    ``basis.stream_operator``, which gives the velocity, the edge jumps
    and the boundary rows of the consistent circulations.
    """
    mesh = basis.mesh
    C = np.asarray(circulations, dtype=np.float64)
    if C.shape != (basis.num_inner,):
        raise UsageError(
            f"need {basis.num_inner} circulation value(s), got {C.shape}")

    psi_total, load = greens_operator(basis, omega)
    g0_flux = fem.consistent_fluxes(basis.op, psi_total, load)
    coeffs = np.linalg.solve(basis.M, C - g0_flux[basis.inner]) \
        if basis.num_inner else np.zeros(0)

    # a sum per field, into the Green part's own buffer: a product with
    # the stacked fields would change the summation order when there are
    # two or more
    for c_i, f in zip(coeffs, basis.fields):
        psi_total += c_i * f

    stream = basis.stream_operator @ psi_total
    nu = 2 * mesh.num_triangles
    nj = nu + len(mesh.edges)
    # the perp-gradient rows are those of ``stream_velocity``
    u = stream[:nu].reshape(-1, 2)
    if phi_grad is not None:
        u = u + multiplier * phi_grad
    # the potential part contributes exactly zero circulation (telescoping
    # tangential P1 trace), so the stream flux is the whole consistent
    # circulation
    circ_cons = basis.op.boundary_fluxes(stream[nj:], load)

    asm = VelocityAssembly(
        mesh=mesh, psi_coeffs=coeffs, psi_total=psi_total,
        multiplier=multiplier, circulation_consistent=circ_cons,
        phi_grad=phi_grad)
    return asm, u, stream[nu:nj]


def check_elliptic_growth(basis: HarmonicBasis, assembly: VelocityAssembly,
                          omega: np.ndarray,
                          g_edges: dict[int, np.ndarray] | None,
                          circulations: np.ndarray) -> dict:
    """Report the p-growth of the W^{1,p} proxy of u against
    p * (|omega|_p + |g|_inf + sum|C_i|) for every p of ``P_GRID``; the
    flag asserts the whole sequence stays within twice its p = 2 value."""
    mesh = basis.mesh
    g_inf = 0.0
    if g_edges:
        g_inf = max(float(np.abs(np.asarray(g)).max(initial=0.0))
                    for g in g_edges.values()) * abs(assembly.multiplier)
    c_sum = float(np.abs(np.asarray(circulations)).sum())
    rows = []
    u = assembly.u
    semis = fem.w1p_seminorms_p0(mesh, u, P_GRID)
    for p, semi in zip(P_GRID, semis):
        up = fem.lp_norm_p0(mesh, u, p)
        proxy = (up ** p + semi ** p) ** (1.0 / p)
        data = fem.lp_norm_p0(mesh, omega, p) + g_inf + c_sum
        rows.append({"p": p, "proxy": proxy,
                     "ratio": proxy / (p * data) if data > 0 else np.inf})
    base = rows[0]["ratio"]
    flag = all(r["ratio"] <= 2.0 * base + 1e-300 for r in rows)
    return {"rows": rows, "bounded": flag}
