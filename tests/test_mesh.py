import math
from dataclasses import fields

import numpy as np
import pytest

from euler_ss import mesh as mesh_module
from euler_ss.errors import UsageError
from euler_ss.mesh import (BoundaryComponent, Mesh, generate_annulus,
                           load_mesh, save_mesh, uniform_refine)

from test_two_holes import two_hole_mesh


def test_annulus_counts():
    m = generate_annulus(1.0, 2.0, 2, 8)
    assert m.num_vertices == 24          # (nr+1) * ntheta
    assert m.num_triangles == 32         # 2 * nr * ntheta
    assert len(m.components) == 2
    assert m.euler_characteristic == 0


def test_annulus_roles_and_radii():
    m = generate_annulus(1.0, 2.0, 2, 8, roles=("outflow", "inflow"))
    assert m.component(0).role == "outflow"
    assert m.component(1).role == "inflow"
    for comp, r in ((0, 2.0), (1, 1.0)):
        rad = np.hypot(*m.vertices[m.component(comp).nodes].T)
        np.testing.assert_allclose(rad, r, atol=1e-12)


@pytest.mark.parametrize("args,kwargs,name", [
    ((1.0, 2.0, 2.0, 8), {}, "nr"),
    ((1.0, 2.0, 2, True), {}, "ntheta"),
    ((2.0, 1.0, 2, 8), {}, "r0 < r1"),
    ((math.nan, 2.0, 2, 8), {}, "r0 < r1"),
    ((1.0, 2.0, 2, 2), {}, "ntheta >= 3"),
    ((1.0, 2.0, 2, 8), {"roles": ("wall", "lava")}, "roles"),
    # a longer tuple is not cut to its first two roles
    ((1.0, 2.0, 2, 8), {"roles": ("wall", "wall", "wall")}, "roles"),
])
def test_annulus_arguments_checked(args, kwargs, name):
    with pytest.raises(UsageError, match=name):
        generate_annulus(*args, **kwargs)


def test_triangle_orientation_and_area():
    m = generate_annulus(1.0, 2.0, 4, 16)
    assert np.all(m.tri_area > 0)
    # inscribed polygons: area below pi (r1^2 - r0^2), converging from below
    exact = math.pi * 3.0
    assert m.tri_area.sum() < exact
    assert m.tri_area.sum() > 0.97 * exact


def test_degenerate_and_inverted_triangles_are_told_apart():
    # areas that underflow to zero are degenerate, not inverted
    with pytest.raises(UsageError,
                       match=r"degenerate triangle 0 \(signed area 0\.0"):
        generate_annulus(1e-200, 2e-200, 2, 8)
    # the annulus mirrored in the x axis: every triangle runs clockwise
    m = generate_annulus(1.0, 2.0, 2, 8)
    with pytest.raises(UsageError,
                       match=r"inverted triangle 0 \(signed area -"):
        Mesh(m.vertices * [1.0, -1.0], m.triangles, np.empty((0, 3)),
             m.roles())


def test_boundary_loops_are_closed_chains():
    m = generate_annulus(1.0, 2.0, 3, 12)
    for c in m.components:
        a, b = c.edges[:, 0], c.edges[:, 1]
        assert np.array_equal(np.roll(a, -1), b)
        r = np.hypot(*m.vertices[c.nodes].T)
        np.testing.assert_allclose(r, {0: 2.0, 1: 1.0}[c.comp],
                                   atol=1e-12)


def test_boundary_orientation_fluid_left():
    # outer loop counterclockwise, inner loop clockwise; outward normals
    m = generate_annulus(1.0, 2.0, 2, 16)
    for c in m.components:
        p, q = m.vertices[c.edges[:, 0]], m.vertices[c.edges[:, 1]]
        mid, tangent = 0.5 * (p + q), q - p
        sign = np.einsum("ed,ed->e", mid, m.edge_normal[c.edge_ids])
        if c.comp == 0:
            assert np.all(sign > 0)
        else:
            assert np.all(sign < 0)
        cross = mid[:, 0] * tangent[:, 1] - mid[:, 1] * tangent[:, 0]
        assert np.all(cross > 0) if c.comp == 0 else np.all(cross < 0)


def declared(m: Mesh) -> list[list[int]]:
    """Rows [a, b, comp] in the order ``save_mesh`` writes them."""
    return [[a, b, c.comp] for c in m.components for a, b in c.edges.tolist()]


@pytest.mark.parametrize("build", [
    lambda: generate_annulus(1.0, 2.0, 3, 12), two_hole_mesh],
    ids=["annulus", "two_holes"])
def test_component_is_its_edge_table_rows(build):
    m = build()
    assert [f.name for f in fields(BoundaryComponent)] == \
        ["comp", "role", "edges", "edge_ids", "length"]
    for c in m.components:
        for got, table in ((c.edges, m.edges), (c.length, m.edge_length)):
            assert np.array_equal(got, table[c.edge_ids])
        # the rows are the loop's own geometry, to the last bit
        vec = m.vertices[c.edges[:, 1]] - m.vertices[c.edges[:, 0]]
        length = np.linalg.norm(vec, axis=1)
        tangent = vec / length[:, None]
        normal = m.edge_normal[c.edge_ids]
        assert np.array_equal(c.length, length)
        assert np.array_equal(normal[:, 0], tangent[:, 1])
        assert np.array_equal(normal[:, 1], -tangent[:, 0])


@pytest.mark.parametrize("build", [
    lambda: generate_annulus(1.0, 2.0, 3, 12), two_hole_mesh],
    ids=["annulus", "two_holes"])
def test_edge_comp_and_lumped_length_read_the_loops(build):
    # every boundary edge names its component, every interior edge -1; each
    # loop vertex owns half of each of its two loop edges, to the bit
    m = build()
    assert not m.edge_comp.flags.writeable
    assert not m.boundary_lumped_length.flags.writeable
    assert np.all(m.edge_comp[m.interior_edge] == -1)
    for c in m.components:
        assert np.all(m.edge_comp[c.edge_ids] == c.comp)
        at = np.searchsorted(m.boundary_nodes, c.nodes)
        assert np.array_equal(m.boundary_lumped_length[at],
                              0.5 * (c.length + np.roll(c.length, 1)))


@pytest.mark.parametrize("build", [
    lambda: generate_annulus(1.0, 2.0, 3, 12), two_hole_mesh],
    ids=["annulus", "two_holes"])
def test_loop_order_does_not_depend_on_the_declaration_order(build):
    # each loop declared from its fourth edge: that line stays first, the
    # others follow shuffled, the loops interleaved, and about half of the
    # lines (one first line among them) written as ``j i``
    m = build()
    rng = np.random.default_rng(5)
    loops = [np.roll(np.column_stack([c.edges, np.full(len(c.edges), c.comp)]),
                     -3, axis=0).tolist() for c in m.components]
    rest = [row for rows in loops for row in rows[1:]]
    rest = [rest[i] for i in rng.permutation(len(rest))]
    for row in rest:
        if rng.random() < 0.5:
            row[:2] = row[1::-1]
    first = [rows[0] for rows in loops]
    first[-1][:2] = first[-1][1::-1]
    got = Mesh(m.vertices, m.triangles, np.array(first + rest), m.roles())
    for c, d in zip(got.components, m.components):
        assert np.array_equal(c.edge_ids, np.roll(d.edge_ids, -3))
        assert np.array_equal(c.edges, np.roll(d.edges, -3, axis=0))


@pytest.mark.parametrize("edit,message", [
    (lambda rows: [], "mesh has boundary edges but none were declared"),
    # the first of two orphans is named
    (lambda rows: rows[:3] + [[0, 20, 0]] + rows[4:10] + [[1, 21, 1]]
     + rows[11:], "orphan boundary edge (0, 20)"),
    # named in its fluid-left order
    (lambda rows: rows[:5] + [[17, 16, 0]] + rows[6:],
     "boundary edge (16, 17) declared twice"),
    # the smallest of the undeclared fluid-left pairs
    (lambda rows: rows[:2] + rows[3:9] + rows[11:],
     "undeclared boundary edge (0, 7)"),
    # the walk from 16 runs out at 20, which is no head of component 0
    (lambda rows: rows[:4] + [r[:2] + [2] for r in rows[4:8]] + rows[8:],
     "open boundary loop, component 0"),
    # the walk from 16 covers every edge and ends at 18, not 16
    (lambda rows: rows[:2] + [r[:2] + [2] for r in rows[2:8]] + rows[8:],
     "open boundary loop, component 0"),
])
def test_each_declaration_error_names_its_first_offender(edit, message):
    m = generate_annulus(1.0, 2.0, 2, 8)
    # rows 0-7 are (16 + j, 16 + (j + 1) % 8, 0); rows 8-15 are
    # (1, 0, 1), (0, 7, 1), (7, 6, 1), ..., (2, 1, 1)
    rows = edit(declared(m))
    roles = {c: "wall" for c in {0, 1} | {r[2] for r in rows}}
    with pytest.raises(UsageError) as exc:
        Mesh(m.vertices, m.triangles, np.array(rows, dtype=np.int64), roles)
    assert str(exc.value) == message


def test_pinched_loop_has_two_outgoing_edges():
    # two triangles that share only vertex 0, one loop declared: no
    # annulus declaration gives a loop vertex two outgoing edges
    vertices = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [-1.0, 0.0],
                [-1.0, -1.0]]
    bedges = [[0, 1, 0], [1, 2, 0], [2, 0, 0], [0, 3, 0], [3, 4, 0],
              [4, 0, 0]]
    with pytest.raises(UsageError) as exc:
        Mesh(vertices, [[0, 1, 2], [0, 3, 4]], np.array(bedges),
             {0: "wall"})
    assert str(exc.value) == ("open boundary loop, component 0 (vertex 0 "
                              "has two outgoing edges)")


def test_edge_table_consistency():
    m = generate_annulus(1.0, 2.0, 3, 12)
    nb = np.zeros(m.num_triangles)
    for e in range(len(m.edges)):
        nb[m.edge_left[e]] += 1
        if m.edge_right[e] >= 0:
            nb[m.edge_right[e]] += 1
    assert np.all(nb == 3)
    n_bdry = sum(len(c.edges) for c in m.components)
    assert (~m.interior_edge).sum() == n_bdry


def _loop_edge_table(triangles):
    """Reference: the edge table by a dictionary loop over the directed
    edges (edge 0 of every triangle, then edge 1, then edge 2)."""
    t = np.asarray(triangles)
    directed = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    owner = np.concatenate([np.arange(len(t))] * 3)
    key, edges, left, right = {}, [], [], []
    for (a, b), tri in zip(directed.tolist(), owner.tolist()):
        if (b, a) in key:
            e = key[(b, a)]
            if right[e] != -1:
                raise UsageError(
                    f"edge ({b}, {a}) shared by more than two triangles")
            right[e] = tri
        else:
            if (a, b) in key:
                raise UsageError(
                    f"edge ({a}, {b}) traversed twice in the same direction "
                    "(inconsistent orientation)")
            key[(a, b)] = len(edges)
            edges.append((a, b))
            left.append(tri)
            right.append(-1)
    return np.array(edges), np.array(left), np.array(right)


def test_edge_table_matches_loop_reference():
    coarse = generate_annulus(1.0, 2.0, 3, 12)
    for m in (coarse, uniform_refine(coarse)):
        edges, left, right = _loop_edge_table(m.triangles)
        np.testing.assert_array_equal(m.edges, edges)
        np.testing.assert_array_equal(m.edge_left, left)
        np.testing.assert_array_equal(m.edge_right, right)
        # tri_edges lists the edges (0, 1), (1, 2), (2, 0) of each triangle
        for i in range(3):
            pair = np.sort(m.triangles[:, [i, (i + 1) % 3]], axis=1)
            np.testing.assert_array_equal(
                np.sort(m.edges[m.tri_edges[:, i]], axis=1), pair)


@pytest.mark.parametrize("triangles", [
    [[0, 1, 2], [1, 0, 3], [1, 0, 5]],     # edge (0, 1) in three cells
    [[0, 1, 2], [0, 1, 4], [1, 0, 3]],     # edge (0, 1) twice forward
    [[0, 1, 2], [1, 0, 3], [0, 1, 4]],     # a reversed pair, then forward
])
def test_edge_table_errors_match_loop_reference(triangles):
    vertices = [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0],
                [0.5, 2.0], [0.5, -2.0]]
    with pytest.raises(UsageError) as ref:
        _loop_edge_table(triangles)
    with pytest.raises(UsageError) as got:
        Mesh(vertices, triangles, np.zeros((0, 3), dtype=int), {})
    assert str(got.value) == str(ref.value)


def test_negative_component_id_is_usage_error():
    m = generate_annulus(1.0, 2.0, 2, 8)
    for query in (m.component, m.component_nodes,
                  lambda c: m.nodes_of([c])):
        for bad in (-1, 2):
            with pytest.raises(UsageError, match=f"no boundary component "
                                                 f"{bad}"):
                query(bad)


def test_component_nodes_match_loops():
    m = generate_annulus(1.0, 2.0, 2, 8)
    assert set(m.component_nodes(0)) == set(m.component(0).nodes)
    assert len(m.boundary_nodes) == 16


def test_node_sets_are_cached_sorted_and_read_only():
    m = generate_annulus(1.0, 2.0, 2, 8)
    for nodes in (m.boundary_nodes, m.component_nodes(0),
                  m.component_nodes(1), m.nodes_of([1, 0])):
        assert np.all(np.diff(nodes) > 0)
        assert not nodes.flags.writeable
    assert m.boundary_nodes is m.boundary_nodes
    assert m.component_nodes(1) is m.component_nodes(1)
    assert m.nodes_of([1, 0]) is m.nodes_of((0, 1))
    assert np.array_equal(
        m.boundary_nodes,
        np.union1d(m.component_nodes(0), m.component_nodes(1)))
    assert np.array_equal(m.nodes_of([0, 1]), m.boundary_nodes)
    assert np.array_equal(m.nodes_of([1]), m.component_nodes(1))


def test_incidence_signs_and_telescoping():
    m = generate_annulus(1.0, 2.0, 3, 12)
    assert m.incidence is m.incidence
    D = m.incidence.toarray()
    ne = len(m.edges)
    assert D.shape == (m.num_triangles, ne)
    assert np.all(D[m.edge_left, np.arange(ne)] == 1.0)
    inner = np.flatnonzero(m.interior_edge)
    assert np.all(D[m.edge_right[inner], inner] == -1.0)
    assert np.array_equal(np.abs(D).sum(axis=0),
                          np.where(m.interior_edge, 2.0, 1.0))
    # node-value jumps along the edges telescope around every cell
    psi = np.random.default_rng(2).standard_normal(m.num_vertices)
    jump = psi[m.edges[:, 0]] - psi[m.edges[:, 1]]
    assert np.abs(D @ jump).max() < 1e-14


def test_uniform_refine_counts_and_keeps_the_polygon():
    m = generate_annulus(1.0, 2.0, 2, 8)
    r1 = uniform_refine(m)
    assert r1.num_triangles == 4 * m.num_triangles
    assert r1.num_vertices == m.num_vertices + len(m.edges)
    # every boundary edge splits at its chord midpoint: the refined mesh
    # covers the same polygon
    for c, c1 in zip(m.components, r1.components):
        mids = 0.5 * (m.vertices[c.edges[:, 0]] + m.vertices[c.edges[:, 1]])
        np.testing.assert_array_equal(r1.vertices[c1.nodes[1::2]], mids)
    assert r1.tri_area.sum() == pytest.approx(m.tri_area.sum(), rel=1e-14)


def test_refine_preserves_roles():
    m = generate_annulus(1.0, 2.0, 2, 8, roles=("wall", "inflow"))
    r = uniform_refine(m)
    assert [c.role for c in r.components] == ["wall", "inflow"]


def test_save_load_round_trip(tmp_path):
    m = generate_annulus(1.0, 2.0, 3, 8, roles=("outflow", "inflow"))
    path = tmp_path / "m.txt"
    save_mesh(m, path)
    back = load_mesh(path)
    np.testing.assert_array_equal(back.vertices, m.vertices)
    np.testing.assert_array_equal(back.triangles, m.triangles)
    assert [c.role for c in back.components] == \
        [c.role for c in m.components]


def test_load_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.txt"
    m = generate_annulus(1.0, 2.0, 2, 8)
    save_mesh(m, path)
    lines = path.read_text().splitlines()
    lines[1] = "not-a-number 0.5"
    path.write_text("\n".join(lines))
    with pytest.raises(UsageError, match="line 2"):
        load_mesh(path)


@pytest.mark.parametrize("lineno,text", [
    (0, "-1 57 16 2"),                      # the line total still matches
    (25, "0 99999999999999999999 9"),       # triangle index past int64
    (57, "99999999999999999999 17 0"),      # boundary vertex past int64
])
def test_load_rejects_negative_counts_and_huge_indices(tmp_path, lineno,
                                                        text):
    path = tmp_path / "bad.txt"
    save_mesh(generate_annulus(1.0, 2.0, 2, 8), path)
    lines = path.read_text().splitlines()
    lines[lineno] = text
    path.write_text("\n".join(lines))
    with pytest.raises(UsageError, match=f"line {lineno + 1}"):
        load_mesh(path)


def test_load_errors_count_blank_lines(tmp_path):
    path = tmp_path / "bad.txt"
    save_mesh(generate_annulus(1.0, 2.0, 2, 8), path)
    lines = path.read_text().splitlines()
    lines[2] = "x 0.5"
    lines.insert(1, "")
    path.write_text("\n".join(lines))
    with pytest.raises(UsageError, match="line 4: bad vertex"):
        load_mesh(path)


@pytest.mark.parametrize("roles,match", [
    # two role lines for component 1: the inflow line would win
    (["0 wall", "1 wall", "1 inflow"], "line {last}: second role line "
                                       "for component 1"),
    # a role for a component that no boundary edge names
    (["0 wall", "1 wall", "7 inflow"], "role for component 7"),
])
def test_load_rejects_repeated_and_orphan_roles(tmp_path, capsys, roles,
                                                match):
    path = tmp_path / "bad.txt"
    save_mesh(generate_annulus(1.0, 2.0, 2, 8), path)
    lines = path.read_text().splitlines()
    head = lines[0].split()
    lines[0] = " ".join(head[:3] + [str(len(roles))])
    lines = lines[:-2] + roles
    path.write_text("\n".join(lines) + "\n")
    match = match.format(last=len(lines))
    with pytest.raises(UsageError, match=match):
        load_mesh(path)
    from euler_ss.cli import main
    assert main(["mesh", "info", str(path)]) == 2
    assert match.split(":")[-1].strip() in capsys.readouterr().err


def test_mesh_rejects_role_of_unnamed_component():
    m = generate_annulus(1.0, 2.0, 2, 8)
    bedges = np.array([(a, b, c.comp) for c in m.components
                       for a, b in c.edges])
    with pytest.raises(UsageError, match="component 7"):
        Mesh(m.vertices, m.triangles, bedges,
             {0: "wall", 1: "wall", 7: "inflow"})


def test_load_rejects_truncation(tmp_path):
    path = tmp_path / "short.txt"
    m = generate_annulus(1.0, 2.0, 2, 8)
    save_mesh(m, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:10]))
    with pytest.raises(UsageError):
        load_mesh(path)


def test_incircle_diameter_positive():
    m = generate_annulus(1.0, 2.0, 4, 16)
    assert np.all(m.incircle_diameter > 0)
    assert np.all(m.incircle_diameter < np.sqrt(m.tri_area.max()) * 2)


def annulus_arrays_by_loop(nr, ntheta):
    """The triangles and boundary edges of ``generate_annulus``, built one
    tuple at a time."""
    def vid(k, j):
        return k * ntheta + (j % ntheta)

    tris = []
    for k in range(nr):
        for j in range(ntheta):
            a, b = vid(k, j), vid(k + 1, j)
            c, d = vid(k + 1, j + 1), vid(k, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    bedges = [(vid(nr, j), vid(nr, j + 1), 0) for j in range(ntheta)]
    bedges += [(vid(0, j + 1), vid(0, j), 1) for j in range(ntheta)]
    return np.asarray(tris), np.asarray(bedges)


@pytest.mark.parametrize("nr, ntheta", [(1, 3), (2, 8), (4, 16), (32, 128)])
def test_annulus_arrays_match_loop_reference(monkeypatch, nr, ntheta):
    built = {}

    def capture(vertices, triangles, boundary_edges, roles):
        built.update(tris=triangles, bedges=boundary_edges)

    monkeypatch.setattr(mesh_module, "Mesh", capture)
    generate_annulus(1.0, 2.0, nr, ntheta)
    tris, bedges = annulus_arrays_by_loop(nr, ntheta)
    for got, want in ((built["tris"], tris), (built["bedges"], bedges)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
