"""A domain with two holes: the m x m circulation system, the transport
contract on three boundary components, and the twin certificates of an
m = 2 difference."""

import numpy as np
import pytest

from euler_ss import transport
from euler_ss.certificates import TwinRun
from euler_ss.hodge import HarmonicBasis
from euler_ss.mesh import Mesh, save_mesh

from einsum_twin import EinsumTwin, assert_matches_reference

NX, NY = 24, 12                       # cells of the [0, 2] x [0, 1] grid
HOLES = ((4, 8), (16, 20))            # hole cell columns; rows [4, 8)


def two_hole_mesh(roles=("outflow", "inflow", "wall")) -> Mesh:
    """Structured grid of [0, 2] x [0, 1] with two square holes that are
    mirror images in x = 1 (the diagonals are mirrored too), unused
    vertices dropped and boundary edges tagged by position."""
    h = 1.0 / NY
    gx, gy = np.meshgrid(np.arange(NX + 1) * h, np.arange(NY + 1) * h,
                         indexing="ij")
    vid = np.arange((NX + 1) * (NY + 1)).reshape(NX + 1, NY + 1)
    tris = []
    for i in range(NX):
        for j in range(NY):
            if 4 <= j < 8 and any(a <= i < b for a, b in HOLES):
                continue
            a, b = vid[i, j], vid[i + 1, j]
            c, d = vid[i + 1, j + 1], vid[i, j + 1]
            tris += [(a, b, c), (a, c, d)] if i < NX // 2 \
                else [(a, b, d), (b, c, d)]
    tris = np.array(tris)
    used, tris = np.unique(tris, return_inverse=True)
    tris = tris.reshape(-1, 3)
    verts = np.column_stack([gx.ravel(), gy.ravel()])[used]

    directed = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]],
                               tris[:, [2, 0]]])
    pairs = {tuple(e) for e in directed.tolist()}
    bedges = []
    for a, b in directed.tolist():
        if (b, a) in pairs:
            continue
        mx, my = 0.5 * (verts[a] + verts[b])
        outer = min(mx, 2.0 - mx, my, 1.0 - my) < 1e-12
        bedges.append((a, b, 0 if outer else 1 if mx < 1.0 else 2))
    return Mesh(verts, tris, np.array(bedges), dict(enumerate(roles)))


@pytest.fixture(scope="module")
def mesh():
    return two_hole_mesh()


@pytest.fixture(scope="module")
def basis(mesh):
    return HarmonicBasis(mesh)


def test_mesh_has_two_holes(mesh):
    assert (mesh.num_vertices, mesh.num_triangles) == (307, 512)
    assert mesh.euler_characteristic == -1
    assert [c.role for c in mesh.components] == ["outflow", "inflow",
                                                 "wall"]
    assert [c.total_length for c in mesh.components] == \
        pytest.approx([6.0, 4 / 3, 4 / 3])


def test_circulation_matrix_spd_and_mirror_symmetric(basis):
    M = basis.M
    assert M.shape == (2, 2)
    assert np.abs(M - M.T).max() <= 1e-12 * np.abs(M).max()
    assert np.all(np.linalg.eigvalsh(0.5 * (M + M.T)) > 0)
    # mirror-image holes have equal self-coupling
    assert abs(M[0, 0] - M[1, 1]) <= 1e-12 * M[0, 0]
    # each harmonic field's fluxes sum to zero over all components
    assert np.abs(basis.flux_rows.sum(axis=0)).max() \
        <= 1e-12 * np.abs(basis.flux_rows).max()


def flow_scenario(tmp_path, mesh):
    """Through-flow from the inflow holes to the outer boundary, past a
    wall hole if there is one, with a smooth initial vorticity."""
    save_mesh(mesh, tmp_path / "two_holes.mesh")
    x, y = mesh.centroid.T
    np.savetxt(tmp_path / "omega0.txt",
               np.sin(np.pi * x) * np.cos(np.pi * y))
    outer = mesh.component(0)
    inflows = [c.comp for c in mesh.components if c.role == "inflow"]
    g_in = -0.5
    inflow_length = sum(mesh.component(cid).total_length for cid in inflows)
    g = {0: {"type": "constant",
             "value": -g_in * inflow_length / outer.total_length}}
    g.update({cid: {"type": "constant", "value": g_in} for cid in inflows})
    doc = {
        "mesh": "two_holes.mesh",
        "omega0": {"type": "file", "path": "omega0.txt"},
        "T": 0.2, "cfl": 0.4, "snapshots": 4,
        "C0": {1: 0.3, 2: -0.2},
        "g": g,
        "omega_in": {cid: {"type": "constant", "value": 0.8}
                     for cid in inflows},
    }
    return transport.parse_scenario(doc, base_dir=tmp_path)


def test_three_component_run_closes_to_round_off(tmp_path, mesh, basis):
    sc = flow_scenario(tmp_path, mesh)
    run_basis = HarmonicBasis(sc.mesh)
    traj = transport.run(sc, run_basis)
    assert traj.total_steps > 0
    assert traj.budget_defect < 1e-12
    assert traj.max_principle_defect < 1e-12
    assert transport.kelvin_consistency(traj) < 1e-13
    assert traj.flux.div_defect < 1e-13
    # the wall hole neither gains nor loses vorticity through its boundary
    assert np.all(np.array([s.B[2] for s in traj.states]) == 0.0)


@pytest.mark.parametrize("size", [1, None])
def test_twin_blocks_match_the_per_snapshot_formulas(tmp_path, mesh, size):
    # both holes' circulations and the inflow trace perturbed: an m = 2
    # difference, pinned on the outer boundary and the wall hole; the
    # identities read over blocks of one snapshot interval and the run
    sc = flow_scenario(tmp_path, mesh)
    run_basis = HarmonicBasis(sc.mesh)
    pair = (transport.run(sc, run_basis),
            transport.run(sc.perturbed(C0={1: 0.1, 2: -0.05},
                                       omega_in={1: 0.05}), run_basis))
    twin = TwinRun(*pair)
    assert all(c.shape == (2,) for c in twin.C_d)
    assert np.abs(np.array(twin.C_d)).min() > 0.0
    assert_matches_reference(twin, EinsumTwin(*pair), block=size)
