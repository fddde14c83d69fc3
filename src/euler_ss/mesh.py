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
* each boundary component carries a role: "wall", "inflow" or "outflow".

Text format (one mesh per file)::

    V T B K
    x y            (V vertex lines)
    i j k          (T triangle lines, 0-based, counterclockwise)
    i j comp_id    (B boundary edge lines)
    comp_id role   (K component role lines)

Circles produced by the annulus generator remember their radii so midpoint
refinement can project new boundary vertices back onto the circle.

The fixed linear maps of a mesh (the cell x edge and vertex x cell
incidences, the P1 gradient and perp-gradient operators, the edge-jump map
of a stream function, the cell graph with its Laplacian factor) are built
once, on first use, and shared by every run on it.  Each is laid out so
that its product sums the same terms in the same order as the loop or
gather it replaces: the results are equal to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import UsageError

ROLES = ("wall", "inflow", "outflow")


@dataclass
class BoundaryComponent:
    """One closed boundary loop with its directed edge data."""

    comp: int
    role: str
    edges: np.ndarray        # (E, 2) directed vertex pairs, loop order
    tri: np.ndarray          # (E,) adjacent triangle per edge
    edge_ids: np.ndarray     # (E,) indices into the mesh-wide edge table
    length: np.ndarray       # (E,) edge lengths
    midpoint: np.ndarray     # (E, 2)
    tangent: np.ndarray      # (E, 2) unit, fluid on the left
    normal: np.ndarray       # (E, 2) unit, out of the fluid

    @property
    def nodes(self) -> np.ndarray:
        """Loop vertices in traversal order (first vertex of each edge)."""
        return self.edges[:, 0]

    @property
    def total_length(self) -> float:
        return float(self.length.sum())

    @property
    def lumped_length(self) -> np.ndarray:
        """Boundary length owned by each loop vertex (``nodes`` order):
        half of each of its two adjacent edges."""
        return 0.5 * (self.length + np.roll(self.length, 1))


@dataclass
class CellGraph:
    """The cell graph of a mesh: cells joined across interior edges.

    ``incidence`` holds the columns of ``Mesh.incidence`` at the interior
    edges ``interior``; ``laplacian`` is incidence @ incidence^T.  The
    matrix never changes, so ``factors`` caches the sparse LU factor of
    its pinned solves (``fem.solve_mean_zero``) for the mesh's lifetime.
    """

    interior: np.ndarray
    incidence: sp.csr_matrix
    laplacian: sp.csr_matrix
    factors: dict


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class Mesh:
    """Triangle mesh with validated boundary structure and edge tables."""

    def __init__(self, vertices, triangles, boundary_edges, roles,
                 radii=None):
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
        self.radii = dict(radii) if radii else None

        self._build_triangle_data()
        self._build_edge_table()
        self._build_components(np.asarray(boundary_edges, dtype=np.int64),
                               dict(roles))
        self._validate_global()

    # -- construction ---------------------------------------------------

    def _build_triangle_data(self) -> None:
        v = self.vertices[self.triangles]          # (T, 3, 2)
        d1 = v[:, 1] - v[:, 0]
        d2 = v[:, 2] - v[:, 0]
        signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        bad = np.nonzero(signed <= 0.0)[0]
        if bad.size:
            raise UsageError(
                f"inverted triangle {int(bad[0])} "
                f"(signed area {signed[bad[0]]:.3e}; must be counterclockwise)")
        self.tri_area = signed
        self.centroid = v.mean(axis=1)
        l0 = np.linalg.norm(v[:, 2] - v[:, 1], axis=1)
        l1 = np.linalg.norm(v[:, 0] - v[:, 2], axis=1)
        l2 = np.linalg.norm(d1, axis=1)
        # incircle diameter 4*area / perimeter, used by the CFL cap
        self.incircle_diameter = 4.0 * signed / (l0 + l1 + l2)

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
        boundary_ids = np.nonzero(~self.interior_edge)[0]
        derived = {}
        for e in boundary_ids:
            a, b = (int(x) for x in self.edges[e])
            derived[(a, b)] = int(e)

        comp_of = {}
        bedges = bedges.reshape(-1, 3)
        if len(bedges) == 0 and derived:
            raise UsageError("mesh has boundary edges but none were declared")
        for i, j, c in bedges.tolist():
            i, j, c = int(i), int(j), int(c)
            if (i, j) in derived:
                pair = (i, j)
            elif (j, i) in derived:
                pair = (j, i)   # accept either order, store fluid-left
            else:
                raise UsageError(f"orphan boundary edge ({i}, {j})")
            if pair in comp_of:
                raise UsageError(f"boundary edge {pair} declared twice")
            comp_of[pair] = c
        missing = set(derived) - set(comp_of)
        if missing:
            pair = sorted(missing)[0]
            raise UsageError(f"undeclared boundary edge {pair}")

        comp_ids = sorted(set(comp_of.values()))
        if comp_ids != list(range(len(comp_ids))):
            raise UsageError(
                f"component ids must be 0..{len(comp_ids) - 1}, got {comp_ids}")
        for c in comp_ids:
            if c not in roles:
                raise UsageError(f"missing role for component {c}")
            if roles[c] not in ROLES:
                raise UsageError(
                    f"component {c}: unknown role {roles[c]!r} "
                    f"(expected one of {ROLES})")

        self.components: list[BoundaryComponent] = []
        for c in comp_ids:
            pairs = [p for p, cc in comp_of.items() if cc == c]
            succ = {}
            for a, b in pairs:
                if a in succ:
                    raise UsageError(
                        f"open boundary loop, component {c} "
                        f"(vertex {a} has two outgoing edges)")
                succ[a] = b
            start = pairs[0][0]
            loop = []
            node = start
            for _ in range(len(pairs)):
                if node not in succ:
                    raise UsageError(f"open boundary loop, component {c}")
                nxt = succ.pop(node)
                loop.append((node, nxt))
                node = nxt
            if node != start or succ:
                raise UsageError(f"open boundary loop, component {c}")
            edges = np.asarray(loop, dtype=np.int64)
            ids = np.asarray([derived[(int(a), int(b))] for a, b in loop],
                             dtype=np.int64)
            vec = self.vertices[edges[:, 1]] - self.vertices[edges[:, 0]]
            length = np.linalg.norm(vec, axis=1)
            tangent = vec / length[:, None]
            normal = np.empty_like(tangent)
            normal[:, 0] = tangent[:, 1]
            normal[:, 1] = -tangent[:, 0]
            self.components.append(BoundaryComponent(
                comp=c, role=roles[c], edges=edges, tri=self.edge_left[ids],
                edge_ids=ids, length=length,
                midpoint=0.5 * (self.vertices[edges[:, 0]]
                                + self.vertices[edges[:, 1]]),
                tangent=tangent, normal=normal))

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
        return float(0.5 * np.sum(p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]))

    def _validate_global(self) -> None:
        n_holes = max(len(self.components) - 1, 0)
        chi = len(self.vertices) - len(self.edges) + len(self.triangles)
        if chi != 1 - n_holes:
            raise UsageError(
                f"Euler characteristic {chi} does not match "
                f"{1 - n_holes} for {n_holes} hole(s)")
        loop_total = sum(self._loop_area(c) for c in self.components)
        tri_total = float(self.tri_area.sum())
        if abs(loop_total - tri_total) > 1e-12 * max(tri_total, 1.0):
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
    def cell_graph(self) -> CellGraph:
        """Interior-edge incidence and Laplacian of the cell graph, with
        the factor cache of its pinned solves (see ``CellGraph``)."""
        interior = np.flatnonzero(self.interior_edge)
        D_int = self.incidence[:, interior].tocsr()
        return CellGraph(interior=interior, incidence=D_int,
                         laplacian=(D_int @ D_int.T).tocsr(), factors={})

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
        return {c.comp: c.role for c in self.components}


# -- generators ---------------------------------------------------------


def generate_annulus(r0: float, r1: float, nr: int, ntheta: int,
                     roles: tuple[str, str] = ("wall", "wall")) -> Mesh:
    """Structured triangulation of the annulus r0 < |x| < r1.

    nr radial layers and ntheta sectors give (nr+1)*ntheta vertices and
    2*nr*ntheta triangles.  Component 0 is the outer circle, component 1 the
    inner circle; ``roles`` assigns their roles in that order.  The mesh
    remembers both radii so refinement re-projects boundary midpoints.
    Every argument is checked here, for the CLI and scenario files alike.
    """
    for name, n in (("nr", nr), ("ntheta", ntheta)):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise UsageError(f"{name} must be an integer, got {n!r}")
    if not 0 < r0 < r1:
        raise UsageError(f"need 0 < r0 < r1, got r0={r0}, r1={r1}")
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

    def vid(k, j):
        return k * ntheta + (j % ntheta)

    tris = []
    for k in range(nr):
        for j in range(ntheta):
            a = vid(k, j)
            b = vid(k + 1, j)
            c = vid(k + 1, j + 1)
            d = vid(k, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))

    bedges = []
    # outer circle, counterclockwise (fluid on the left)
    for j in range(ntheta):
        bedges.append((vid(nr, j), vid(nr, j + 1), 0))
    # inner circle, clockwise (fluid on the left)
    for j in range(ntheta):
        bedges.append((vid(0, j + 1), vid(0, j), 1))

    return Mesh(vertices, np.asarray(tris), np.asarray(bedges),
                {0: roles[0], 1: roles[1]}, radii={0: r1, 1: r0})


def uniform_refine(mesh: Mesh) -> Mesh:
    """Midpoint refinement: every triangle splits into four.

    New boundary vertices are projected onto the generating circle when the
    mesh carries radii metadata; otherwise they stay at chord midpoints.
    """
    nv = mesh.num_vertices
    mid_id = nv + np.arange(len(mesh.edges))
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]]
                  + mesh.vertices[mesh.edges[:, 1]])

    comp_of_edge = {}
    for comp in mesh.components:
        for e in comp.edge_ids:
            comp_of_edge[int(e)] = comp.comp
    if mesh.radii:
        for e, c in comp_of_edge.items():
            r = mesh.radii.get(c)
            if r is not None:
                mids[e] *= r / np.linalg.norm(mids[e])

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

    return Mesh(vertices, tris, np.asarray(bedges), mesh.roles(),
                radii=mesh.radii)


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
    for comp in mesh.components:
        lines.append(f"{comp.comp} {comp.role}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


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
    return Mesh(np.array(vertices, dtype=np.float64).reshape(nv, 2),
                np.array(triangles, dtype=np.int64).reshape(nt, 3),
                np.array(bedges, dtype=np.int64).reshape(nb, 3), dict(roles))
