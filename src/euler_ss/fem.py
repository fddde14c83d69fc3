"""P1 Lagrange finite elements on triangle meshes.

Fields are plain arrays: a float64 ``np.ndarray`` of shape (V,) for a P1
field (one value per vertex, linear on each triangle), (T,) for a P0
scalar such as a vorticity and (T, 2) for a P0 vector such as a velocity
or the gradient of a P1 field.  The mesh is passed beside the array
where it is needed.

The stiffness matrix discretizes the Dirichlet energy: entry (a, b) is
sum_T grad(lambda_a) . grad(lambda_b) |T|.  Every boundary-value solver
pins a node set (a Dirichlet trace; one node for the pure Neumann problem,
with the mean-zero gauge), eliminates it and solves the rest directly with
a sparse LU factor.  Every matrix so factored is exactly symmetric: each
off-diagonal stiffness entry sums at most two triangle terms, and IEEE
addition of two terms commutes; the cell-graph Laplacian has integer
entries.  So every solve runs through the transposed factor, A^T x = b:
on the same factor SuperLU's transposed triangular solves take about 0.7
of the time of the plain ones.  A factor is only made once its reduced
matrix is checked to equal its transpose entry for entry.  Dirichlet data
is one dict {component id: constant} (``solve_dirichlet``,
``solve_mixed``), Neumann data one (E,) array over ``Mesh.edges``
(``edge_data``).  The factor of a pinned set that
serves many solves is cached on the ``StiffnessOperator``: the
all-boundary set of the basis and of every step's Green solve, and the
auxiliary set of every twin snapshot, so those cost one factorization
each and then only triangular solves.  A pure Neumann system
(``solve_mean_zero``: the through-flow potential and the cell-graph
equilibration, each solved once per g) is factored, solved and its factor
released, since keeping it would hold its fill for the process's lifetime
with no second solve to serve.  A zero trace (every Green, auxiliary and
gauge solve) writes no trace values and adds no coupling product.

Every per-step kernel on cells and vertices is one product with a fixed
linear map of the mesh, built once on first use (``Mesh``):

* ``gradient`` and the differentiation in ``velocity_gradient`` multiply
  by ``Mesh.gradient_operator``, the (2T, V) matrix of the barycentric
  gradients (``hodge.stream_velocity`` multiplies by
  ``Mesh.perp_gradient_operator``, the same entries with the rows of each
  triangle swapped and one negated);
* ``p0_load_vector`` and ``p0_to_p1`` sum cells around each vertex with
  ``Mesh.vertex_cells``, the 0/1 vertex x cell incidence whose rows keep
  the order of a scatter loop over the three corners, so the sums are
  those of the loop to the last bit; the averaging divides by the cached
  ``Mesh.vertex_area``.

``DEFAULT_RTOL`` is the relative accuracy the certificate checks assume of
a solved field: the reversed-flux tolerance and the identity-rate floor
scale with it.

The consistent fluxes of a solved field pair one residual with the
indicator extension of every boundary component at once:

    flux(psi) = X (A psi - load),   flux_comp(psi) = integral_comp dpsi/dn

where X is the component x node indicator, with the outward normal of the
mesh (out of the fluid, into holes).  For the stream function of a flow
this equals the circulation along the component in the fluid-on-the-left
orientation; it is superconvergent compared with the one-sided trace
quadrature.  X is zero off the boundary nodes, so only the boundary rows
of the residual are formed, and every flux reads them in one convention:
``boundary_residual(op, psi, load_rows)`` is
``boundary_rows @ psi - load_rows`` with ``load_rows`` the rows of the
load at ``Mesh.boundary_nodes`` (a caller that keeps no full load, such
as a saved snapshot's ``traj.boundary_load(k)``, forms only those rows).
``boundary_indicator @`` that residual (``StiffnessOperator``, both
factors built once per operator) sums the same terms in the same order as
X (A psi - load), without the V x V product.  The edge flux density
(``edge_flux_density``) reads the same boundary residual: each boundary
vertex's row divided by the boundary length it owns
(``Mesh.boundary_lumped_length``), averaged over the two end vertices of
each boundary edge asked for, for one field or for the residual rows of
several fields stacked as (B, n) columns.
Outside this module no code multiplies the stiffness matrix to read a flux.

perp-gradient convention: grad_perp(psi) = (-d_y psi, d_x psi), so
curl(grad_perp(psi)) = laplace(psi) and grad_perp(psi) . n = -d_tau(psi).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import PreconditionError, SolverError, UsageError
from .mesh import Mesh

DEFAULT_RTOL = 1e-10


def rot90(v: np.ndarray) -> np.ndarray:
    """Rotate 2-vectors by +90 degrees: (x, y) -> (-y, x)."""
    out = np.empty_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


# -- assembly -----------------------------------------------------------


class StiffnessOperator:
    """Sparse stiffness matrix of a mesh with its cached solve data.

    The matrix is exactly symmetric (each off-diagonal entry sums at
    most two triangle terms), which lets every pinned solve run through
    the transposed factor (``_pinned_solve``).  ``factors`` holds the
    sparse LU factor of every Dirichlet or auxiliary pinned node set
    solved on this operator, with the free-node indices it acts on, keyed
    by the set; the matrix never changes, so a factor stays valid for the
    operator's lifetime.  The single-use Neumann factor is not kept
    (``solve_mean_zero``).  ``boundary_rows`` and ``boundary_indicator``
    are the two factors of the consistent fluxes, built on first use.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        grads = mesh.barycentric_gradients
        area = mesh.tri_area
        rows, cols, vals = [], [], []
        for i in range(3):
            for j in range(3):
                rows.append(mesh.triangles[:, i])
                cols.append(mesh.triangles[:, j])
                vals.append(np.einsum("td,td->t", grads[:, i],
                                      grads[:, j]) * area)
        n = mesh.num_vertices
        self.matrix = sp.csr_matrix(
            (np.concatenate(vals),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n))
        self.matrix.sum_duplicates()
        self.factors: dict[bytes, tuple[spla.SuperLU, np.ndarray]] = {}

    @cached_property
    def boundary_rows(self) -> sp.csr_matrix:
        """The rows of the matrix at ``Mesh.boundary_nodes``: the only
        rows of the residual that a consistent flux reads."""
        return self.matrix[self.mesh.boundary_nodes]

    @cached_property
    def boundary_indicator(self) -> sp.csr_matrix:
        """Component x boundary-node indicator: row c sums the entries of
        ``boundary_rows`` at the nodes of component c, in node order."""
        mesh = self.mesh
        nodes = [mesh.component_nodes(c.comp) for c in mesh.components]
        comp_of = np.concatenate([np.full(len(nd), c)
                                  for c, nd in enumerate(nodes)])
        return sp.csr_matrix(
            (np.ones(len(comp_of)),
             (comp_of, np.searchsorted(mesh.boundary_nodes,
                                       np.concatenate(nodes)))),
            shape=(len(nodes), len(mesh.boundary_nodes)))


def p0_load_vector(mesh: Mesh, cell_values: np.ndarray) -> np.ndarray:
    """Nodal load b_a = integral(f * lambda_a) for piecewise constant f."""
    weighted = np.asarray(cell_values, dtype=np.float64) * mesh.tri_area
    weighted /= 3.0
    return mesh.vertex_cells @ weighted


def edge_data(mesh: Mesh, q) -> np.ndarray:
    """``q`` as float64 data on ``Mesh.edges``, a component's values the
    slice at its ``edge_ids``; a shape other than (E,) is a UsageError."""
    q = np.asarray(q)
    if q.shape != (len(mesh.edges),):
        raise UsageError(f"boundary data: expected {len(mesh.edges)} edge "
                         f"values, got shape {q.shape}")
    return q.astype(np.float64, copy=False)


def boundary_load_vector(mesh: Mesh, q) -> np.ndarray:
    """Nodal load b_a = integral_Gamma(q * lambda_a) from midpoint values
    q on the boundary edges (trapezoid, exact for P1 traces)."""
    q = edge_data(mesh, q)
    bd = np.flatnonzero(~mesh.interior_edge)
    w = 0.5 * q[bd] * mesh.edge_length[bd]
    # every boundary vertex heads one boundary edge and tails one, so
    # each sums 0 + w_head + w_tail
    return np.bincount(mesh.edges[bd].T.ravel(), weights=np.tile(w, 2),
                       minlength=mesh.num_vertices)


# -- pinned solves ------------------------------------------------------


def _pinned_solve(A: sp.csr_matrix, load: np.ndarray, pinned: np.ndarray,
                  x: np.ndarray, factors: dict) -> np.ndarray:
    """Solve A x = load at the free nodes with x fixed at the pinned nodes.

    ``pinned`` is a sorted array of distinct nodes and ``x`` holds their
    values and zero elsewhere; the free entries of ``x`` are filled in
    place and ``x`` is returned.  The pinned nodes are eliminated
    symmetrically and A[free][:, free] is factored by sparse LU (SuperLU,
    minimum-degree ordering on A^T + A).  ``factors`` caches the factor
    per pinned node set, together with the free-node indices it acts on.

    The reduced matrix must equal its transpose exactly, which every
    stiffness and cell-graph system does; each solve then reads the
    factor transposed (``trans="T"``), the faster of SuperLU's two
    triangular solves.  Raises SolverError when the reduced matrix is
    not symmetric, checked when its factor is made, or is singular.
    """
    key = pinned.tobytes()
    cached = factors.get(key)
    if cached is None:
        mask = np.ones(A.shape[0], dtype=bool)
        mask[pinned] = False
        free = np.flatnonzero(mask)
        reduced = A[free][:, free].tocsc()
        asymmetric = (reduced != reduced.T).nnz
        if asymmetric:
            raise SolverError(
                f"reduced matrix is not symmetric: {asymmetric} entries "
                "differ from their transposes")
        try:
            lu = spla.splu(reduced, permc_spec="MMD_AT_PLUS_A") \
                if free.size else None
        except RuntimeError as exc:
            raise SolverError(f"sparse factorization failed: {exc}") \
                from None
        cached = factors[key] = (lu, free)
    lu, free = cached
    if free.size:
        # a zero trace (every Green, auxiliary and gauge solve) couples
        # nothing into the free rows
        rhs = (load - A @ x)[free] if x[pinned].any() else load[free]
        x[free] = lu.solve(rhs, trans="T")
    return x


def solve_mean_zero(A: sp.csr_matrix, load: np.ndarray) -> np.ndarray:
    """Mean-zero solution of a pure-Neumann system A x = load, where A is
    symmetric with the constants as its only null space (a connected
    stiffness or graph Laplacian).  The load loses its nodal mean, node 0
    is pinned to 0, and the result loses its nodal mean.  Each caller
    solves once per g, so the factor is released on return."""
    x = _pinned_solve(A, load - load.mean(), np.zeros(1, dtype=np.int64),
                      np.zeros(A.shape[0]), {})
    return x - x.mean()


# -- boundary-value solvers --------------------------------------------


def _dirichlet_trace(mesh: Mesh, bc: dict[int, float]
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Normalize a non-empty Dirichlet spec {component id: constant} to
    (sorted pinned nodes, nodal array holding the trace there and zero
    elsewhere).

    The pinned node sets are the mesh's cached ones; a zero constant
    (every Green solve) leaves its nodes untouched.
    """
    if not isinstance(bc, dict):
        raise UsageError("Dirichlet trace must be a dict {component id: "
                         f"constant}}, got {type(bc).__name__}")
    if not bc:
        raise UsageError("empty Dirichlet specification")
    x = np.zeros(mesh.num_vertices)
    nodes = mesh.nodes_of(bc)
    for cid, val in bc.items():
        if float(val):
            x[mesh.component_nodes(cid)] = float(val)
    return nodes, x


def solve_dirichlet(op: StiffnessOperator, load: np.ndarray,
                    bc: dict[int, float]) -> np.ndarray:
    """Solve A u = load with the trace pinned on every boundary component.

    ``load`` is the right-hand side of the variational problem
    integral(grad u . grad chi) = load(chi); for the Poisson problem
    laplace(u) = f it is ``-p0_load_vector(mesh, f)``.
    """
    mesh = op.mesh
    nodes, x = _dirichlet_trace(mesh, bc)
    # the components' node sets are disjoint, so the union covers the
    # boundary exactly when every component is named
    if len(nodes) != len(mesh.boundary_nodes):
        raise UsageError("Dirichlet solve requires data on every component")
    return _pinned_solve(op.matrix, load, nodes, x, op.factors)


def solve_neumann(op: StiffnessOperator, g) -> np.ndarray:
    """Solve the pure Neumann problem integral(grad u . grad chi) =
    integral_Gamma(g chi) with the mean-zero gauge.

    ``g`` holds midpoint values of the normal derivative (outward normal)
    on the boundary edges of ``Mesh.edges``.  The data must be compatible:
    the total boundary integral of g vanishes up to 1e-10 * |Gamma| * max|g|.
    """
    mesh = op.mesh
    bd = np.flatnonzero(~mesh.interior_edge)
    q, length = edge_data(mesh, g)[bd], mesh.edge_length[bd]
    total = float(q @ length)
    bound = float(length.sum()) * float(np.abs(q).max(initial=0.0))
    if abs(total) > 1e-10 * max(bound, 1e-300):
        raise PreconditionError(
            f"incompatible Neumann data: net boundary flux {total:.6e} "
            f"exceeds 1e-10 * {bound:.6e}")
    return solve_mean_zero(op.matrix, boundary_load_vector(mesh, g))


def solve_mixed(op: StiffnessOperator, dirichlet: dict[int, float],
                neumann) -> np.ndarray:
    """Zaremba problem: constants pinned on the Dirichlet components,
    normal-derivative edge data on the others (non-zero on a Dirichlet
    component is a UsageError)."""
    mesh = op.mesh
    nodes, x = _dirichlet_trace(mesh, dirichlet)
    neumann = edge_data(mesh, neumann)
    both = [cid for cid in dirichlet
            if np.any(neumann[mesh.component(cid).edge_ids] != 0.0)]
    if both:
        raise UsageError(f"components {both} carry both Dirichlet and "
                         "non-zero Neumann data")
    load = boundary_load_vector(mesh, neumann)
    return _pinned_solve(op.matrix, load, nodes, x, op.factors)


def solve_constrained(op: StiffnessOperator, load: np.ndarray,
                      pinned_nodes: np.ndarray, pinned_values: np.ndarray
                      ) -> np.ndarray:
    """General solve with an explicit pinned-node set (used by the
    auxiliary-function machinery, where only some components are pinned).

    Each pinned node is a vertex id in [0, V), named once; a repeated,
    non-integer, negative or out-of-range id is a UsageError.  A sorted
    set (such as ``Mesh.nodes_of`` gives) is used as it is."""
    load = np.asarray(load, dtype=np.float64)
    nodes = np.asarray(pinned_nodes)
    values = np.asarray(pinned_values, dtype=np.float64)
    if nodes.dtype.kind not in "iu":
        nodes = nodes.astype(np.float64)
        bad = nodes[~np.isfinite(nodes) | (nodes != np.floor(nodes))]
        if bad.size:
            raise UsageError(f"pinned node {float(bad[0])!r} is not an "
                             "integer vertex id")
    nv = op.mesh.num_vertices
    bad = nodes[(nodes < 0) | (nodes >= nv)]
    if bad.size:
        raise UsageError(f"pinned node {int(bad[0])} is not a vertex id "
                         f"in [0, {nv})")
    nodes = nodes.astype(np.int64, copy=False)
    pinned = nodes
    if np.any(nodes[1:] <= nodes[:-1]):
        pinned = np.sort(nodes)
        repeated = pinned[1:][pinned[1:] == pinned[:-1]]
        if repeated.size:
            raise UsageError(f"pinned node {int(repeated[0])} is named "
                             "more than once")
    x = np.zeros(load.shape)
    x[nodes] = values
    return _pinned_solve(op.matrix, load, pinned, x, op.factors)


# -- consistent fluxes --------------------------------------------------


def boundary_residual(op: StiffnessOperator, x: np.ndarray,
                      load_rows: np.ndarray) -> np.ndarray:
    """Rows of the residual A x - load at ``Mesh.boundary_nodes``: all of
    it that a consistent flux or a loop flux density reads.
    ``load_rows`` holds the rows of the load at the boundary nodes."""
    return op.boundary_rows @ x - load_rows


def consistent_fluxes(op: StiffnessOperator, field: np.ndarray,
                      load: np.ndarray | None = None) -> np.ndarray:
    """(ncomp,) variational fluxes integral_comp(dfield/dn), outward
    normal, of every component from one residual.

    ``load`` must be the load vector of the system the field solves (None
    for a harmonic field).  The pairing with the component indicators makes
    the fluxes superconvergent.
    """
    load_rows = 0.0 if load is None else load[op.mesh.boundary_nodes]
    return op.boundary_indicator @ boundary_residual(op, field, load_rows)


def consistent_flux(op: StiffnessOperator, field: np.ndarray,
                    load: np.ndarray, comp: int) -> float:
    """Consistent flux through one component (see ``consistent_fluxes``)."""
    return float(consistent_fluxes(op, field, load)[comp])


def edge_flux_density(mesh: Mesh, residual: np.ndarray, ids: np.ndarray
                      ) -> np.ndarray:
    """Normal derivative on the boundary edges ``ids`` from a
    ``boundary_residual`` (of one field, or of n fields stacked as (B, n)
    columns): the mean, over each edge's two end vertices, of the nodal
    residual divided by the boundary length the vertex owns
    (``Mesh.boundary_lumped_length``)."""
    lumped = mesh.boundary_lumped_length
    dn = residual / lumped.reshape((-1,) + (1,) * (residual.ndim - 1))
    a, b = np.searchsorted(mesh.boundary_nodes, mesh.edges[ids]).T
    return 0.5 * (dn[a] + dn[b])


# -- discrete calculus --------------------------------------------------


def gradient(mesh: Mesh, field: np.ndarray) -> np.ndarray:
    """(T, 2) per-triangle gradient of a P1 field (one product with the
    mesh's gradient operator)."""
    return (mesh.gradient_operator @ field).reshape(-1, 2)


def p0_to_p1(mesh: Mesh, cell_values: np.ndarray) -> np.ndarray:
    """(V, 2) area-weighted nodal averages of a (T, 2) cell field, the
    recovery used for gradients of P0 velocities."""
    weighted = cell_values * mesh.tri_area[:, None]
    return (mesh.vertex_cells @ weighted) / mesh.vertex_area[:, None]


def velocity_gradient(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """(T, 2, 2) recovered Jacobian J[t, k, d] = d_d(u_k) of a (T, 2)
    velocity: each component is averaged to the vertices, then
    differentiated per triangle."""
    # row 2t + d, column k of the product is d_d(u_k) on triangle t
    return (mesh.gradient_operator @ p0_to_p1(mesh, u)).reshape(
        -1, 2, 2).swapaxes(1, 2)


def convective_term(a: np.ndarray, jac_b: np.ndarray) -> np.ndarray:
    """(T, 2) cellwise (a . grad) b of a (T, 2) velocity a, given the
    recovered Jacobian of b."""
    return np.einsum("tkd,td->tk", jac_b, a)


# -- norms --------------------------------------------------------------


def sq_norm_p0(mesh: Mesh, vel: np.ndarray) -> float:
    """Squared L2 norm of a (T, 2) cell field."""
    return float(np.einsum("td,td,t->", vel, vel, mesh.tri_area))


# -- VTK output ---------------------------------------------------------


def write_vtk(path, mesh: Mesh, point_data: dict, cell_data: dict) -> None:
    """Legacy ASCII VTK unstructured grid; scalars and 2-vectors (padded to
    3 components) on points (P1) and cells (P0)."""
    lines = ["# vtk DataFile Version 3.0", "euler-ss fields", "ASCII",
             "DATASET UNSTRUCTURED_GRID",
             f"POINTS {mesh.num_vertices} double"]
    for x, y in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g} 0")
    nt = mesh.num_triangles
    lines.append(f"CELLS {nt} {4 * nt}")
    for a, b, c in mesh.triangles:
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {nt}")
    lines.extend(["5"] * nt)

    def emit(block, count, data):
        lines.append(f"{block} {count}")
        for name, arr in data.items():
            arr = np.asarray(arr, dtype=np.float64)
            if arr.ndim == 1:
                lines.append(f"SCALARS {name} double 1")
                lines.append("LOOKUP_TABLE default")
                lines.extend(f"{v:.17g}" for v in arr)
            else:
                lines.append(f"VECTORS {name} double")
                lines.extend(f"{v[0]:.17g} {v[1]:.17g} 0" for v in arr)

    emit("POINT_DATA", mesh.num_vertices, point_data)
    emit("CELL_DATA", nt, cell_data)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
