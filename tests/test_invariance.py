"""A run does not depend on how its mesh is written down: renumbering the
vertices and triangles, rotating each triangle's corners, turning the
whole domain rigidly, or declaring each boundary loop from another edge
leaves the step count, the circulations, the energies and the multiset
of cell vorticities as they were, to round-off."""

import json

import numpy as np
import pytest

from euler_ss import transport
from euler_ss.mesh import Mesh, generate_annulus, save_mesh

RTOL = 1e-13
CONSTANT_G = {"type": "constant", "value": 0.25}
# periodic in arclength with mean 0.25: it balances the inner loop's g as
# the constant does, but reads where the outer loop starts
TABULATED_G = {"type": "tabulated", "s": [0.0, 0.5], "values": [0.2, 0.3]}


def declared_edges(mesh: Mesh) -> np.ndarray:
    """(B, 3) rows (a, b, comp) in the order ``save_mesh`` writes them."""
    return np.array([(a, b, c.comp) for c in mesh.components
                     for a, b in c.edges.tolist()])


def renumbered(mesh: Mesh, omega: np.ndarray, rng, angle: float = 0.0):
    """The mesh with its vertices and triangles in a random order, each
    triangle's corners rotated by a random cyclic shift, and the domain
    turned by ``angle``; ``omega`` follows its cells."""
    nv, nt = mesh.num_vertices, mesh.num_triangles
    vperm, tperm = rng.permutation(nv), rng.permutation(nt)
    new_id = np.empty(nv, dtype=np.int64)
    new_id[vperm] = np.arange(nv)
    c, s = np.cos(angle), np.sin(angle)
    verts = mesh.vertices[vperm] @ np.array([[c, s], [-s, c]])
    tris = new_id[mesh.triangles[tperm]]
    shift = rng.integers(0, 3, nt)
    tris = np.take_along_axis(
        tris, (np.arange(3)[None, :] + shift[:, None]) % 3, axis=1)
    bedges = declared_edges(mesh)
    bedges[:, :2] = new_id[bedges[:, :2]]
    return Mesh(verts, tris, bedges, mesh.roles()), omega[tperm]


def loops_started_later(mesh: Mesh, omega: np.ndarray, by: int = 5):
    """The mesh with each boundary loop declared starting ``by`` edges
    later: every loop then runs from another vertex."""
    bedges = np.concatenate([
        np.roll(np.column_stack([c.edges, np.full(len(c.edges), c.comp)]),
                -by, axis=0)
        for c in mesh.components])
    return Mesh(mesh.vertices, mesh.triangles, bedges, mesh.roles()), omega


def run_on(tmp_path, name: str, mesh: Mesh, omega: np.ndarray,
           g0: dict = CONSTANT_G):
    """A run of the flow scenario on ``mesh``, saved and read back, with
    ``g0`` the g of the outer loop."""
    save_mesh(mesh, tmp_path / f"{name}.mesh")
    np.savetxt(tmp_path / f"{name}.txt", omega)
    doc = {"mesh": f"{name}.mesh",
           "omega0": {"type": "file", "path": f"{name}.txt"},
           "C0": {"1": 0.3},
           "g": {"0": g0,
                 "1": {"type": "constant", "value": -0.5}},
           "omega_in": {"1": {"type": "constant", "value": 0.8}},
           "T": 0.5, "cfl": 0.4, "snapshots": 4}
    (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    return transport.run(transport.parse_scenario(doc, base_dir=tmp_path))


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The 8x32 flow annulus with a modulated band, and its run."""
    mesh = generate_annulus(1.0, 2.0, 8, 32, ("outflow", "inflow"))
    x, y = mesh.centroid[:, 0], mesh.centroid[:, 1]
    r = np.hypot(x, y)
    omega = np.where((r > 1.25) & (r < 1.75), 1.0, 0.0) \
        * (1.0 + 0.3 * np.cos(np.arctan2(y, x)))
    tmp = tmp_path_factory.mktemp("invariance")
    return tmp, mesh, omega, run_on(tmp, "base", mesh, omega)


def assert_same_run(got, want):
    assert got.total_steps == want.total_steps
    for key in ("C", "energy"):
        a, b = getattr(got, key), getattr(want, key)
        assert np.abs(a - b).max() <= RTOL * np.abs(b).max(), key
    a, b = np.sort(got.omega, axis=1), np.sort(want.omega, axis=1)
    assert np.abs(a - b).max() <= RTOL * np.abs(b).max()


@pytest.mark.parametrize("angle", [0.0, np.pi / 6])
def test_run_ignores_the_numbering_and_a_rigid_turn(base, angle):
    tmp, mesh, omega, want = base
    rng = np.random.default_rng(11)
    name = f"renumbered_{round(np.degrees(angle))}"
    got = run_on(tmp, name, *renumbered(mesh, omega, rng, angle))
    assert_same_run(got, want)


def test_run_ignores_where_each_loop_is_declared_to_start(base):
    # with a constant g no arclength origin enters the data
    tmp, mesh, omega, want = base
    moved, omega = loops_started_later(mesh, omega)
    assert all(int(c.edges[0, 0]) != int(d.edges[0, 0])
               for c, d in zip(moved.components, mesh.components))
    assert_same_run(run_on(tmp, "later", moved, omega), want)


@pytest.fixture(scope="module")
def base_tabulated(base):
    """The run of ``base`` with the tabulated g on the outer loop."""
    tmp, mesh, omega, _ = base
    return run_on(tmp, "base_tabulated", mesh, omega, TABULATED_G)


@pytest.mark.parametrize("angle", [0.0, np.pi / 6])
def test_run_with_tabulated_g_ignores_the_numbering_and_a_rigid_turn(
        base, base_tabulated, angle):
    # the loops keep their declared order, so the arclength origin of g
    # stays at the same vertex
    tmp, mesh, omega, _ = base
    g = base_tabulated.scenario.g_edges()[mesh.component(0).edge_ids]
    assert g.max() - g.min() > 0.09
    rng = np.random.default_rng(11)
    name = f"renumbered_tabulated_{round(np.degrees(angle))}"
    got = run_on(tmp, name, *renumbered(mesh, omega, rng, angle),
                 TABULATED_G)
    assert_same_run(got, base_tabulated)
