import math

import numpy as np
import pytest

from euler_ss.errors import UsageError
from euler_ss.mesh import (Mesh, generate_annulus, load_mesh, save_mesh,
                           uniform_refine)


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
    assert m.radii == {0: 2.0, 1: 1.0}


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


def test_boundary_loops_are_closed_chains():
    m = generate_annulus(1.0, 2.0, 3, 12)
    for c in m.components:
        a, b = c.edges[:, 0], c.edges[:, 1]
        assert np.array_equal(np.roll(a, -1), b)
        r = np.hypot(*m.vertices[c.nodes].T)
        np.testing.assert_allclose(r, m.radii[c.comp], atol=1e-12)


def test_boundary_orientation_fluid_left():
    # outer loop counterclockwise, inner loop clockwise; outward normals
    m = generate_annulus(1.0, 2.0, 2, 16)
    for c in m.components:
        mid, nrm = c.midpoint, c.normal
        sign = np.einsum("ed,ed->e", mid, nrm)
        if c.comp == 0:
            assert np.all(sign > 0)
        else:
            assert np.all(sign < 0)
        cross = (c.midpoint[:, 0] * c.tangent[:, 1]
                 - c.midpoint[:, 1] * c.tangent[:, 0])
        assert np.all(cross > 0) if c.comp == 0 else np.all(cross < 0)


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


def test_uniform_refine_counts_and_projection():
    m = generate_annulus(1.0, 2.0, 2, 8)
    r1 = uniform_refine(m)
    assert r1.num_triangles == 4 * m.num_triangles
    assert r1.num_vertices == m.num_vertices + len(m.edges)
    for c in r1.components:
        rad = np.hypot(*r1.vertices[c.nodes].T)
        np.testing.assert_allclose(rad, r1.radii[c.comp], atol=1e-12)
    # refinement tightens the polygonal area defect
    exact = math.pi * 3.0
    assert exact - r1.tri_area.sum() < 0.3 * (exact - m.tri_area.sum())


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
    # analytic radii are generator metadata, not part of the file format
    assert back.radii is None


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
