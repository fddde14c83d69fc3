"""What snapshots and twin runs keep, that what they derive on read is
bit-for-bit what the live step used, and that the block kernels of a twin
agree with the per-snapshot formulas."""

import tracemalloc

import numpy as np
import pytest

from euler_ss import certificates, fem, hodge, transport, zaremba
from euler_ss.certificates import TwinRun
from euler_ss.hodge import HarmonicBasis

from conftest import modulated_band_scenario
from einsum_twin import EinsumTwin, assert_matches_reference, block_bytes
from test_two_holes import flow_scenario as two_hole_scenario
from test_two_holes import two_hole_mesh


@pytest.fixture(scope="module")
def small_pair(tmp_path_factory):
    """Circulation- and inflow-perturbed twins on a 4x16 flow annulus."""
    sc = modulated_band_scenario(tmp_path_factory.mktemp("small"),
                                 nr=4, ntheta=16)
    basis = HarmonicBasis(sc.mesh)
    base = transport.run(sc, basis)
    pert = transport.run(sc.perturbed(C0={1: 0.1}, omega_in={1: 0.05}),
                         basis)
    return base, pert


@pytest.fixture(scope="module", params=["annulus", "two_holes"])
def any_pair(request, small_pair, tmp_path_factory):
    """``small_pair``, and twins of both circulations on the two-hole
    mesh."""
    if request.param == "annulus":
        return small_pair
    sc = two_hole_scenario(tmp_path_factory.mktemp("two_holes"),
                           two_hole_mesh())
    basis = HarmonicBasis(sc.mesh)
    return (transport.run(sc, basis),
            transport.run(sc.perturbed(C0={1: 0.1, 2: -0.05}), basis))


def live_velocity(traj, state):
    """The velocity the step read at this snapshot, reconstructed again."""
    _, u, _ = hodge.reconstruct_velocity(
        traj.basis, state.omega, state.C,
        multiplier=state.assembly.multiplier, phi_grad=traj.flux.phi_grad)
    return u


def live_load(traj, state):
    """The stream load the reconstruction of this snapshot solved with."""
    return hodge.greens_operator(
        traj.basis, state.omega)[1]


def test_snapshots_derive_the_live_step_velocity(any_pair):
    T = any_pair[0].mesh.num_triangles
    live = [np.stack([live_velocity(traj, s) for s in traj.states])
            for traj in any_pair]
    for traj, u in zip(any_pair, live):
        assert traj.flux.phi_grad is not None
        for k, s in enumerate(traj.states):
            # one snapshot: the derived velocity, to the bit
            assert np.array_equal(s.assembly.u, u[k])
            # and no (T, 2) array of its own: the through-flow gradient
            # is the assembler's, not a copy
            for name, val in vars(s.assembly).items():
                if name == "phi_grad":
                    assert val is traj.flux.phi_grad
                    continue
                val = getattr(val, "values", val)
                assert not (isinstance(val, np.ndarray)
                            and val.shape == (T, 2)), name
    # blocks of snapshots: one product per run gives every column's bits,
    # and the norms of the block's columns are those of single fields
    twin = TwinRun(*any_pair)
    n = len(twin.times)
    for size in (1, 3, n):
        for k0 in range(0, n, size):
            k1 = min(n, k0 + size)
            u_hat, u_d = twin._velocity_block(twin._gather(k0, k1), k0, k1)
            diff = live[0][k0:k1] - live[1][k0:k1]
            assert np.array_equal(np.moveaxis(u_hat, -1, 0),
                                  live[0][k0:k1])
            assert np.array_equal(np.moveaxis(u_d, -1, 0), diff)
            assert twin._norms(u_d) == [fem.sq_norm_p0(twin.mesh, ud)
                                        for ud in diff]


def test_block_fields_are_the_bits_of_single_fields(any_pair):
    # the auxiliary fields of a block are each potential's perp-gradient,
    # and the load rows of a block are the boundary rows of the loads the
    # live reconstructions solved with
    twin = TwinRun(*any_pair)
    mesh = twin.mesh
    bn = mesh.boundary_nodes
    n = len(twin.times)
    single = [(mesh.perp_gradient_operator @ twin.phi[:, k]).reshape(-1, 2)
              for k in range(n)]
    for size in (1, 3, n):
        for k0 in range(0, n, size):
            k1 = min(n, k0 + size)
            v = hodge.stream_velocity(mesh, twin.phi[:, k0:k1], None, None)
            assert np.array_equal(np.moveaxis(v, -1, 0), single[k0:k1])
            loads = [np.array([live_load(traj, s)[bn]
                               for s in traj.states[k0:k1]]).T
                     for traj in any_pair]
            load1, load_d = twin._load_rows(k0, k1)
            assert np.array_equal(load1, loads[0])
            assert np.array_equal(load_d, loads[0] - loads[1])


class StoredDifferenceTwin(TwinRun):
    """A twin that stores the velocities and stream loads of the live
    reconstructions of every snapshot, and feeds those stored fields
    through the same block kernels in place of the fields the twin forms
    on read: the reference the derived-on-read twin must match bit for
    bit."""

    def __init__(self, traj1, traj2):
        self.u_hat, self.u_d, self.loads = [], [], []
        bn = traj1.mesh.boundary_nodes
        for s1, s2 in zip(traj1.states, traj2.states):
            load1 = live_load(traj1, s1)
            load2 = live_load(traj2, s2)
            u1 = live_velocity(traj1, s1)
            self.u_hat.append(u1)
            self.u_d.append(u1 - live_velocity(traj2, s2))
            self.loads.append((load1[bn], (load1 - load2)[bn]))
        super().__init__(traj1, traj2)

    def _velocity_block(self, psi, k0, k1):
        return np.stack(self.u_hat[k0:k1], axis=-1), \
            np.stack(self.u_d[k0:k1], axis=-1)

    def _load_rows(self, k0, k1):
        load1, load_d = zip(*self.loads[k0:k1])
        return np.stack(load1, axis=-1), np.stack(load_d, axis=-1)


def test_twin_matches_the_stored_difference_reference(small_pair):
    twin = TwinRun(*small_pair)
    ref = StoredDifferenceTwin(*small_pair)
    assert np.array_equal(twin.z_u, ref.z_u)
    assert np.array_equal(twin.z_v, ref.z_v)
    assert twin.z_u.max() > 0.0 and twin.z_v.max() > 0.0
    assert np.array_equal(twin.D, ref.D)
    assert np.array_equal(twin.phi, ref.phi)
    assert np.array_equal(twin.coeff_d, ref.coeff_d)
    assert np.array_equal(twin.C_d, ref.C_d)
    # the inflow-trace difference reaches the data term
    assert np.any(twin._integrands["aux"]["inflow_data"] != 0.0)
    assert twin.energy_identity() == ref.energy_identity()
    assert twin.aux_identity() == ref.aux_identity()
    ledger, ref_ledger = twin.inequality_ledger(), ref.inequality_ledger()
    assert ledger["rows"] == ref_ledger["rows"]
    assert ledger["C_hat"] == ref_ledger["C_hat"]


def test_auxiliary_state_keeps_only_phi_and_fluxes(small_pair):
    # one column of potentials and one of fluxes per snapshot, as solved
    twin = TwinRun(*small_pair)
    mesh, n = twin.mesh, len(twin.times)
    assert twin.phi.shape == (mesh.num_vertices, n)
    assert twin.D.shape == (len(mesh.components), n)
    for name in ("aux", "omega_d", "u_d", "psi_d", "load_d"):
        assert not hasattr(twin, name)


def test_twin_keeps_vertex_sized_state_per_snapshot(tmp_path):
    # T = 2 nr ntheta is nearly twice V = (nr + 1) ntheta, and V is large
    # enough that the fixed overhead per snapshot is small next to it
    sc = modulated_band_scenario(tmp_path, nr=16, ntheta=64, snapshots=8)
    basis = HarmonicBasis(sc.mesh)
    pair = (transport.run(sc, basis),
            transport.run(sc.perturbed(C0={1: 0.1}), basis))
    TwinRun(*pair).energy_identity()     # warm the solver and mesh caches
    n = len(pair[0].states)
    V, T = sc.mesh.num_vertices, sc.mesh.num_triangles

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        twin = TwinRun(*pair)
        built = tracemalloc.get_traced_memory()[0] - before
        twin.energy_identity()
        twin.aux_identity()
        read = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # phi (V floats) per snapshot, plus object overhead under half an
    # array of T floats: one more array of T floats per snapshot exceeds it
    allowance = n * (8 * V + 4 * T)
    assert built < allowance, (built, allowance)
    assert read < allowance, (read, allowance)


@pytest.mark.parametrize("size", [1, 3, None])
def test_block_kernels_match_the_per_snapshot_formulas(small_pair,
                                                       monkeypatch, size):
    # blocks of one, uneven blocks of three (7 snapshots), the default
    mesh = small_pair[0].mesh
    if size is not None:
        monkeypatch.setattr(certificates, "BLOCK_BYTES",
                            block_bytes(mesh, size))
    blocks = certificates._blocks(len(small_pair[0].states), mesh)
    assert len(blocks) == {1: 7, 3: 3, None: 1}[size]
    solves = []
    real = zaremba.solve_auxiliary

    def counted(*args):
        solves.append(args[1].shape[1])
        return real(*args)

    monkeypatch.setattr(zaremba, "solve_auxiliary", counted)
    twin = TwinRun(*small_pair)
    assert solves == [k1 - k0 for k0, k1 in blocks]
    monkeypatch.undo()
    assert_matches_reference(twin, EinsumTwin(*small_pair))


def test_norms_read_alone_build_no_integrands(any_pair, monkeypatch):
    # the stability ladder reads only the norms: they take no velocity
    # gradient, and their bits do not depend on which pass built them
    calls = []
    real = fem.velocity_gradient

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fem, "velocity_gradient", counted)
    twin = TwinRun(*any_pair)
    z_u, z_v = twin.z_u, twin.z_v
    assert calls == []
    assert "_integrands" not in vars(twin)
    monkeypatch.undo()
    after = TwinRun(*any_pair)
    after.energy_identity()
    assert "_integrands" in vars(after)
    assert np.array_equal(after.z_u, z_u)
    assert np.array_equal(after.z_v, z_v)


def test_twin_takes_one_load_product_per_block(any_pair, monkeypatch):
    # blocks of three; over the identities and the ledger, the auxiliary
    # solve is the only full P0 load of a block
    mesh = any_pair[0].mesh
    monkeypatch.setattr(certificates, "BLOCK_BYTES", block_bytes(mesh, 3))
    calls = []
    real = fem.p0_load_vector

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fem, "p0_load_vector", counted)
    twin = TwinRun(*any_pair)
    twin.energy_identity()
    twin.aux_identity()
    twin.inequality_ledger()
    blocks = certificates._blocks(len(twin.times), mesh)
    assert len(blocks) >= 2
    assert len(calls) == len(blocks)
