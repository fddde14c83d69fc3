"""Unstructured triangle meshes of multiply connected planar domains.

Conventions used throughout the package:

* triangles are stored counterclockwise (positive signed area);
* the boundary splits into closed loops ("components"), component 0 is the
  outer loop; every other component bounds a hole;
* boundary edges are directed so the fluid lies on the left; the outer loop
  then runs counterclockwise and hole loops run clockwise;
* the unit normal of a directed edge (a -> b) is the tangent rotated by -90
  degrees, which points out of the fluid everywhere (into the holes on inner
  components);
* each boundary edge carries a role: "wall", "inflow" or "outflow".

Boundary data lives on the mesh-wide edge table, where a boundary edge
occurs once, directed fluid-left, with its cell ``edge_left``, length,
normal, component ``edge_comp`` and role ``edge_role`` (both -1 inside),
constant on a component: the slice of the table at its ``edge_ids`` in
loop order, the order that a tabulated g's arclength runs in.

Text format (one mesh per file)::

    V T B K
    x y            (V vertex lines)
    i j k          (T triangle lines, 0-based, counterclockwise)
    i j comp_id    (B boundary edge lines)
    comp_id role   (K component role lines)

The fixed linear maps of a mesh (the cell x edge and vertex x cell
incidences, the P1 gradient and perp-gradient operators, the edge-jump map
of a stream function) are built once, on first use, and shared by every
run on it.  Each is laid out so that its product sums the same terms in
the same order as the loop or gather it replaces: the results are equal
to the last bit.  The cell-graph Laplacian is not among them: it serves
one solve per g, so ``transport.FluxAssembler`` builds it from
``incidence``, solves and lets it go.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import UsageError

ROLES = ("wall", "inflow", "outflow")
WALL, INFLOW, OUTFLOW = range(3)        # the codes of ``Mesh.edge_role``


@dataclass
class BoundaryComponent:
    """One closed boundary loop: the ids of its edges in the mesh-wide edge
    table, in loop order, with the table's vertex pairs and lengths at
    those ids.  A boundary edge occurs in the table once, directed with
    the fluid on its left, so each pair is the loop's own directed edge."""

    comp: int
    edges: np.ndarray        # (E, 2) directed vertex pairs, loop order
    edge_ids: np.ndarray     # (E,) indices into the mesh-wide edge table
    length: np.ndarray       # (E,) edge lengths

    @property
    def nodes(self) -> np.ndarray:
        """Loop vertices in traversal order (first vertex of each edge)."""
        return self.edges[:, 0]

    @property
    def total_length(self) -> float:
        return float(self.length.sum())


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class Mesh:
    """Triangle mesh with validated boundary structure and edge tables."""

    def __init__(self, vertices, triangles, boundary_edges, roles):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise UsageError("vertices must be an (V, 2) array")
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if bad.size:
            raise UsageError(f"vertex {int(bad[0])} has non-finite "
                             f"coordinates {self.vertices[bad[0]].tolist()}")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise UsageError("triangles must be a (T, 3) array")

        # finite coordinates can overflow the geometry: checked as formed
        with np.errstate(over="ignore", invalid="ignore"):
            self._build_triangle_data()
            self._build_edge_table()
            self._build_components(
                np.asarray(boundary_edges, dtype=np.int64), dict(roles))
            self._validate_global()

    # -- construction ---------------------------------------------------

    def _build_triangle_data(self) -> None:
        v = self.vertices[self.triangles]          # (T, 3, 2)
        d1 = v[:, 1] - v[:, 0]
        d2 = v[:, 2] - v[:, 0]
        signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        # an area that overflowed to NaN compares false: checked below
        bad = np.flatnonzero(signed <= 0.0)
        if bad.size:
            t = int(bad[0])
            kind = "degenerate" if signed[t] == 0.0 else "inverted"
            raise UsageError(f"{kind} triangle {t} (signed area "
                             f"{signed[t]:.3e}; must be counterclockwise)")
        self.tri_area = signed
        self.centroid = v.mean(axis=1)
        perimeter = np.linalg.norm(v[:, 2] - v[:, 1], axis=1) \
            + np.linalg.norm(v[:, 0] - v[:, 2], axis=1) \
            + np.linalg.norm(d1, axis=1)
        # incircle diameter 4*area / perimeter, used by the CFL cap
        self.incircle_diameter = 4.0 * signed / perimeter
        geometry = np.column_stack([signed, perimeter, self.centroid,
                                    self.incircle_diameter])
        bad = np.flatnonzero(~np.isfinite(geometry).all(axis=1))
        if bad.size:
            raise UsageError(
                f"triangle {int(bad[0])}: area, edge lengths or centroid "
                "overflow float64 (coordinates too large)")

    def _build_edge_table(self) -> None:
        t = self.triangles
        # directed edges (a -> b) as they appear counterclockwise in each
        # triangle; the triangle interior lies on the left of each
        directed = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        owner = np.concatenate([np.arange(len(t))] * 3)
        # one edge per undirected vertex pair, numbered by first occurrence
        # and directed as it first occurs; the left cell is that occurrence's
        key = directed.min(axis=1) * max(self.num_vertices, 1) \
            + directed.max(axis=1)
        _, first, inverse = np.unique(key, return_index=True,
                                      return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        eid = rank[inverse]                 # edge id of every occurrence
        first = first[order]
        self.edges = directed[first]                 # directed a->b
        self.edge_left = owner[first]                # fluid left of a->b
        # the first reversed occurrence of an edge gives its right cell
        same = directed[:, 0] == self.edges[eid, 0]
        rev = np.flatnonzero(~same)
        rev_edges, rev_first = np.unique(eid[rev], return_index=True)
        self.edge_right = np.full(len(first), -1, dtype=np.int64)
        self.edge_right[rev_edges] = owner[rev[rev_first]]  # -1 on boundary
        # every other occurrence is an error; report the earliest one
        extra = np.ones(len(directed), dtype=bool)
        extra[first] = False
        extra[rev[rev_first]] = False
        if extra.any():
            p = int(np.flatnonzero(extra)[0])
            a, b = (int(v) for v in self.edges[eid[p]])
            if same[p]:
                raise UsageError(
                    f"edge ({a}, {b}) traversed twice in the same direction "
                    "(inconsistent orientation)")
            raise UsageError(
                f"edge ({a}, {b}) shared by more than two triangles")
        # edges (0, 1), (1, 2), (2, 0) of every triangle
        self.tri_edges = eid.reshape(3, -1).T
        vec = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        self.edge_length = np.linalg.norm(vec, axis=1)
        # normal = tangent rotated -90 degrees: points right of a->b, i.e.
        # away from edge_left and out of the domain on boundary edges
        self.edge_normal = np.empty_like(vec)
        self.edge_normal[:, 0] = vec[:, 1]
        self.edge_normal[:, 1] = -vec[:, 0]
        self.edge_normal /= self.edge_length[:, None]
        self.interior_edge = self.edge_right >= 0

    def _build_components(self, bedges: np.ndarray, roles: dict) -> None:
        """Each component: the ids of its boundary edges, in either
        direction in the file, walked as a loop from the first one declared
        (the arclength origin of tabulated g), and the edge table's rows at
        those ids."""
        boundary = np.flatnonzero(~self.interior_edge).tolist()
        edge_of = {(a, b): e for (a, b), e
                   in zip(self.edges[boundary].tolist(), boundary)}

        comp_of = {}    # boundary edge id -> component, in file order
        bedges = bedges.reshape(-1, 3)
        if len(bedges) == 0 and edge_of:
            raise UsageError("mesh has boundary edges but none were declared")
        for i, j, c in bedges.tolist():
            # accept either order; the edge table holds the fluid-left one
            pair = (i, j) if (i, j) in edge_of else (j, i)
            e = edge_of.get(pair)
            if e is None:
                raise UsageError(f"orphan boundary edge ({i}, {j})")
            if e in comp_of:
                raise UsageError(f"boundary edge {pair} declared twice")
            comp_of[e] = c
        if len(comp_of) < len(edge_of):
            pair = min(p for p, e in edge_of.items() if e not in comp_of)
            raise UsageError(f"undeclared boundary edge {pair}")

        comp_ids = sorted(set(comp_of.values()))
        if comp_ids != list(range(len(comp_ids))):
            raise UsageError(
                f"component ids must be 0..{len(comp_ids) - 1}, got {comp_ids}")
        extra = sorted(set(roles) - set(comp_ids))
        if extra:
            raise UsageError(f"role for component {extra[0]}, which no "
                             "boundary edge names")
        for c in comp_ids:
            if c not in roles:
                raise UsageError(f"missing role for component {c}")
            if roles[c] not in ROLES:
                raise UsageError(
                    f"component {c}: unknown role {roles[c]!r} "
                    f"(expected one of {ROLES})")

        self.components: list[BoundaryComponent] = []
        for c in comp_ids:
            ids = [e for e, cc in comp_of.items() if cc == c]
            heads, tails = self.edges[ids].T.tolist()
            succ = {}       # vertex -> (edge id, next vertex)
            for a, b, e in zip(heads, tails, ids):
                if a in succ:
                    raise UsageError(
                        f"open boundary loop, component {c} "
                        f"(vertex {a} has two outgoing edges)")
                succ[a] = (e, b)
            loop = []
            node = heads[0]
            for _ in ids:
                if node not in succ:
                    raise UsageError(f"open boundary loop, component {c}")
                e, node = succ.pop(node)
                loop.append(e)
            if node != heads[0]:
                raise UsageError(f"open boundary loop, component {c}")
            ids = np.asarray(loop, dtype=np.int64)
            self.components.append(BoundaryComponent(
                comp=c, edges=self.edges[ids], edge_ids=ids,
                length=self.edge_length[ids]))
        edge_comp = np.full(len(self.edges), -1, dtype=np.int64)
        edge_comp[list(comp_of)] = list(comp_of.values())
        self.edge_comp = _read_only(edge_comp)
        codes = [ROLES.index(roles[c]) for c in comp_ids] + [-1]
        self.edge_role = _read_only(np.array(codes, np.int8)[edge_comp])

        # node sets are built once: every pinned solve asks for them
        self._component_nodes = [_read_only(np.unique(c.nodes))
                                 for c in self.components]
        self._boundary_nodes = _read_only(
            np.unique(np.concatenate(self._component_nodes))
            if self.components else np.empty(0, dtype=np.int64))
        self._node_sets: dict[tuple[int, ...], np.ndarray] = {}

        if self.components:
            # component 0 must be the outer loop: with fluid on the left it
            # is the unique loop of positive signed area
            areas = [self._loop_area(comp) for comp in self.components]
            outer = int(np.argmax(areas))
            if areas[outer] <= 0:
                raise UsageError("no outer boundary loop found")
            if outer != 0:
                raise UsageError(
                    f"component 0 must be the outer boundary "
                    f"(outer loop is component {outer})")
            for comp, a in zip(self.components[1:], areas[1:]):
                if a >= 0:
                    raise UsageError(
                        f"component {comp.comp} is not a hole loop "
                        "(clockwise traversal expected)")

    def _loop_area(self, comp: BoundaryComponent) -> float:
        p = self.vertices[comp.edges[:, 0]]
        q = self.vertices[comp.edges[:, 1]]
        area = float(0.5 * np.sum(p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]))
        if not np.isfinite(area):
            raise UsageError(f"component {comp.comp}: loop area overflows "
                             "float64 (coordinates too large)")
        return area

    def _validate_global(self) -> None:
        n_holes = max(len(self.components) - 1, 0)
        chi = self.euler_characteristic
        if chi != 1 - n_holes:
            raise UsageError(
                f"Euler characteristic {chi} does not match "
                f"{1 - n_holes} for {n_holes} hole(s)")
        loop_total = sum(self._loop_area(c) for c in self.components)
        tri_total = float(self.tri_area.sum())
        if not np.isfinite(tri_total) \
                or abs(loop_total - tri_total) > 1e-12 * max(tri_total, 1.0):
            raise UsageError(
                f"triangle area {tri_total!r} does not match "
                f"boundary loop area {loop_total!r}")

    # -- queries --------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @property
    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.triangles)

    def _comp_index(self, comp) -> int:
        """``comp`` as an index into ``components``; a negative or
        out-of-range id is a usage error, never a wrapped index."""
        if not 0 <= comp < len(self.components):
            raise UsageError(f"no boundary component {comp}")
        return comp

    def component(self, comp: int) -> BoundaryComponent:
        return self.components[self._comp_index(comp)]

    @property
    def boundary_nodes(self) -> np.ndarray:
        """Sorted, read-only array of all vertices lying on the boundary."""
        return self._boundary_nodes

    @cached_property
    def boundary_lumped_length(self) -> np.ndarray:
        """Read-only boundary length owned by each of ``boundary_nodes``:
        half of each of its two boundary edges.  Built on first use."""
        bd = np.flatnonzero(self.edge_comp >= 0)
        owned = np.bincount(self.edges[bd].ravel(),
                            weights=np.repeat(0.5 * self.edge_length[bd], 2),
                            minlength=self.num_vertices)
        return _read_only(owned[self.boundary_nodes])

    def component_nodes(self, comp: int) -> np.ndarray:
        """Sorted, read-only array of the vertices of one component."""
        return self._component_nodes[self._comp_index(comp)]

    def nodes_of(self, comps) -> np.ndarray:
        """Sorted, read-only union of the vertices of several components,
        built once per set."""
        key = tuple(sorted(set(comps)))
        if key not in self._node_sets:
            self._node_sets[key] = _read_only(np.unique(np.concatenate(
                [self._component_nodes[self._comp_index(c)]
                 for c in key])))
        return self._node_sets[key]

    # -- fixed linear maps, each built once on first use ----------------

    @cached_property
    def incidence(self) -> sp.csr_matrix:
        """Signed cell x edge incidence over all edges: +1 at the left cell
        of each directed edge, -1 at its right cell (interior edges only).
        For edge fluxes counted out of the left cell, ``incidence @ f`` is
        the net outflux of every cell."""
        interior = np.flatnonzero(self.interior_edge)
        ne = len(self.edges)
        return sp.csr_matrix(
            (np.concatenate([np.ones(ne), -np.ones(len(interior))]),
             (np.concatenate([self.edge_left, self.edge_right[interior]]),
              np.concatenate([np.arange(ne), interior]))),
            shape=(self.num_triangles, ne))

    @cached_property
    def vertex_cells(self) -> sp.csr_matrix:
        """0/1 vertex x cell incidence.  Each row lists the cells of its
        vertex corner by corner (every cell at its corner 0, then at its
        corner 1, then at corner 2), so ``vertex_cells @ x`` sums the cells
        around a vertex in the order of a scatter loop over the three
        corners: the sums are equal to the last bit."""
        nt = self.num_triangles
        corner_major = self.triangles.T.ravel()
        order = np.argsort(corner_major, kind="stable")
        indptr = np.concatenate([[0], np.cumsum(np.bincount(
            corner_major, minlength=self.num_vertices))])
        return sp.csr_matrix(
            (np.ones(3 * nt), np.tile(np.arange(nt), 3)[order], indptr),
            shape=(self.num_vertices, nt))

    @cached_property
    def boundary_vertex_cells(self) -> sp.csr_matrix:
        """The rows of ``vertex_cells`` at ``boundary_nodes``: a P0 load's
        boundary rows, to the last bit of the full product's."""
        return self.vertex_cells[self.boundary_nodes]

    @cached_property
    def vertex_area(self) -> np.ndarray:
        """Area of the cells around each vertex (``vertex_cells`` sums)."""
        return _read_only(self.vertex_cells @ self.tri_area)

    @cached_property
    def barycentric_gradients(self) -> np.ndarray:
        """Read-only (T, 3, 2) array: the gradient of the hat function
        lambda_i on each triangle.  For a counterclockwise triangle
        (p0, p1, p2), grad(lambda_i) = rot90(p_{i+2} - p_{i+1}) / (2 |T|),
        with rot90 (x, y) -> (-y, x)."""
        v = self.vertices[self.triangles]
        opposite = v[:, [2, 0, 1]] - v[:, [1, 2, 0]]
        g = np.empty((self.num_triangles, 3, 2))
        g[..., 0] = -opposite[..., 1]
        g[..., 1] = opposite[..., 0]
        g /= (2.0 * self.tri_area)[:, None, None]
        return _read_only(g)

    @cached_property
    def gradient_operator(self) -> sp.csr_matrix:
        """(2T, V) P1 gradient: row 2t + d of ``gradient_operator @ f`` is
        d_d f on triangle t, a sum over its three corners in order."""
        nt = self.num_triangles
        g = self.barycentric_gradients
        return sp.csr_matrix(
            (g.transpose(0, 2, 1).ravel(),
             np.repeat(self.triangles, 2, axis=0).ravel(),
             np.arange(0, 6 * nt + 1, 3)),
            shape=(2 * nt, self.num_vertices))

    @cached_property
    def perp_gradient_operator(self) -> sp.csr_matrix:
        """(2T, V) P1 perp-gradient (-d_y, d_x): ``gradient_operator`` with
        the two rows of each triangle swapped and the new x row negated.
        It reuses the gradient's entries in their column order, so its
        product is ``rot90`` of the gradient's to the last bit."""
        g = self.gradient_operator
        nt = self.num_triangles
        data = g.data.reshape(nt, 2, 3)[:, ::-1].copy()
        data[:, 0] *= -1.0
        return sp.csr_matrix(
            (data.ravel(), g.indices.reshape(nt, 2, 3)[:, ::-1].ravel(),
             g.indptr.copy()),
            shape=g.shape)

    @cached_property
    def edge_jump_operator(self) -> sp.csr_matrix:
        """(E, V) stream jump across each edge: +1 at its first vertex, -1
        at its second, and an empty row on boundary edges (a stream trace
        is constant along a component).  Its product with psi equals
        ``psi[a] - psi[b]`` on every interior edge a -> b to the last
        bit."""
        interior = self.interior_edge
        counts = np.where(interior, 2, 0)
        return sp.csr_matrix(
            (np.tile([1.0, -1.0], int(interior.sum())),
             self.edges[interior].ravel(),
             np.concatenate([[0], np.cumsum(counts)])),
            shape=(len(self.edges), self.num_vertices))

    def roles(self) -> dict[int, str]:
        return {c.comp: ROLES[self.edge_role[c.edge_ids[0]]]
                for c in self.components}


# -- generators ---------------------------------------------------------


def generate_annulus(r0: float, r1: float, nr: int, ntheta: int,
                     roles: tuple[str, str] = ("wall", "wall")) -> Mesh:
    """Structured triangulation of the annulus r0 < |x| < r1.

    nr radial layers and ntheta sectors give (nr+1)*ntheta vertices and
    2*nr*ntheta triangles.  Component 0 is the outer circle, component 1 the
    inner circle; ``roles`` assigns their roles in that order.  Every
    argument is checked here, for the CLI and scenario files alike.
    """
    for name, n in (("nr", nr), ("ntheta", ntheta)):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise UsageError(f"{name} must be an integer, got {n!r}")
    if not 0 < r0 < r1 < np.inf:
        raise UsageError(f"need 0 < r0 < r1 < inf, got r0={r0}, r1={r1}")
    if nr < 1 or ntheta < 3:
        raise UsageError(f"need nr >= 1 and ntheta >= 3, got {nr}, {ntheta}")
    if not (isinstance(roles, (tuple, list)) and len(roles) == 2
            and all(r in ROLES for r in roles)):
        raise UsageError(f"roles must be two of {ROLES} (outer first), "
                         f"got {roles!r}")
    radii = np.linspace(r0, r1, nr + 1)
    theta = 2.0 * np.pi * np.arange(ntheta) / ntheta
    vx = np.outer(radii, np.cos(theta)).ravel()
    vy = np.outer(radii, np.sin(theta)).ravel()
    vertices = np.column_stack([vx, vy])

    # vertex (k, j) of ring k and sector j is k * ntheta + j; cell (k, j)
    # splits into (a, b, c) and (a, c, d) with a = (k, j), b = (k + 1, j),
    # c = (k + 1, j + 1), d = (k, j + 1), sectors cyclic
    j = np.arange(ntheta)
    jn = (j + 1) % ntheta
    a = (np.arange(nr)[:, None] * ntheta + j).ravel()
    d = (np.arange(nr)[:, None] * ntheta + jn).ravel()
    tris = np.stack([a, a + ntheta, d + ntheta, a, d + ntheta, d],
                    axis=1).reshape(-1, 3)
    # outer circle counterclockwise, inner circle clockwise (fluid on the
    # left)
    bedges = np.concatenate([
        np.stack([nr * ntheta + j, nr * ntheta + jn, np.zeros_like(j)],
                 axis=1),
        np.stack([jn, j, np.ones_like(j)], axis=1)])

    return Mesh(vertices, tris, bedges, {0: roles[0], 1: roles[1]})


def uniform_refine(mesh: Mesh) -> Mesh:
    """Midpoint refinement: every triangle splits into four, and new
    boundary vertices stay at chord midpoints.  A refined annulus is
    therefore a polygon, not a finer circle: ``Scenario.refined``
    regenerates an annulus instead."""
    nv = mesh.num_vertices
    mid_id = nv + np.arange(len(mesh.edges))
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]]
                  + mesh.vertices[mesh.edges[:, 1]])

    vertices = np.vstack([mesh.vertices, mids])

    a, b, c = mesh.triangles.T
    mab, mbc, mca = mid_id[mesh.tri_edges].T
    tris = np.stack([a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca],
                    axis=1).reshape(-1, 3)

    bedges = []
    for comp in mesh.components:
        for (a, b), e in zip(comp.edges.tolist(), comp.edge_ids.tolist()):
            m = int(mid_id[e])
            bedges.append((a, m, comp.comp))
            bedges.append((m, b, comp.comp))

    return Mesh(vertices, tris, np.asarray(bedges), mesh.roles())


# -- text format --------------------------------------------------------


def save_mesh(mesh: Mesh, path) -> None:
    lines = [f"{mesh.num_vertices} {mesh.num_triangles} "
             f"{sum(len(c.edges) for c in mesh.components)} "
             f"{len(mesh.components)}"]
    for x, y in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g}")
    for i, j, k in mesh.triangles:
        lines.append(f"{i} {j} {k}")
    for comp in mesh.components:
        for a, b in comp.edges:
            lines.append(f"{a} {b} {comp.comp}")
    lines += [f"{c} {role}" for c, role in mesh.roles().items()]
    try:
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write mesh file {path}: {exc}") from None


def load_mesh(path) -> Mesh:
    try:
        with open(path) as f:
            raw = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read mesh file {path}: {exc}") from None

    def fail(lineno, msg):
        raise UsageError(f"{path}: line {lineno}: {msg}")

    if not raw:
        fail(1, "empty file")
    head = raw[0].split()
    if len(head) != 4:
        fail(1, f"expected header 'V T B K', got {raw[0]!r}")
    try:
        nv, nt, nb, nk = (int(x) for x in head)
    except ValueError:
        fail(1, f"non-integer header field in {raw[0]!r}")
    if min(nv, nt, nb, nk) < 0:
        fail(1, f"negative count in header {raw[0]!r}")
    need = 1 + nv + nt + nb + nk
    # (file line number, text) of the non-empty lines
    body = [(n, ln) for n, ln in enumerate(raw, start=1) if ln.strip()]
    if len(body) != need:
        fail(len(raw), f"expected {need} lines, found {len(body)} non-empty")

    def rows(start, count, what, fields, kinds):
        """Body lines start .. start + count - 1, one token per kind, each
        parsed by its kind (np.int64 rejects what overflows)."""
        out = []
        for lineno, line in body[start:start + count]:
            tokens = line.split()
            if len(tokens) != len(kinds):
                fail(lineno, f"{what} line needs '{fields}', got {line!r}")
            try:
                out.append(tuple(k(x) for k, x in zip(kinds, tokens)))
            except (ValueError, OverflowError):
                fail(lineno, f"bad {what} line {line!r}")
        return out

    index3 = (np.int64,) * 3
    vertices = rows(1, nv, "vertex", "x y", (float, float))
    triangles = rows(1 + nv, nt, "triangle", "i j k", index3)
    for (lineno, line), tri in zip(body[1 + nv:], triangles):
        if min(tri) < 0 or max(tri) >= nv:
            fail(lineno, f"triangle index out of range in {line!r}")
    bedges = rows(1 + nv + nt, nb, "boundary", "i j comp", index3)
    roles = rows(1 + nv + nt + nb, nk, "component", "comp role", (int, str))
    for i, (lineno, _) in enumerate(body[1 + nv + nt + nb:]):
        if roles[i][0] in dict(roles[:i]):
            fail(lineno, f"second role line for component {roles[i][0]}")
    return Mesh(np.array(vertices, dtype=np.float64).reshape(nv, 2),
                np.array(triangles, dtype=np.int64).reshape(nt, 3),
                np.array(bedges, dtype=np.int64).reshape(nb, 3), dict(roles))
