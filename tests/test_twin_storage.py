"""What trajectories and twin runs keep, that what they derive on read is
bit-for-bit what the live step used, and that the kernels of a twin
agree with the per-snapshot formulas."""

import copy
import tracemalloc

import numpy as np
import pytest

from euler_ss import fem, hodge, transport, zaremba
from euler_ss.certificates import TwinRun
from euler_ss.hodge import HarmonicBasis

from conftest import modulated_band_scenario
from einsum_twin import EinsumTwin, assert_matches_reference
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


def live_velocity(traj, k):
    """The velocity the step read at snapshot k, reconstructed again."""
    _, _, u, _ = hodge.reconstruct_velocity(
        traj.basis, traj.omega[k], traj.C[k],
        multiplier=traj.multiplier[k], phi_grad=traj.flux.phi_grad)
    return u


def live_load(traj, k):
    """The stream load the reconstruction of snapshot k solved with."""
    return hodge.greens_operator(traj.basis, traj.omega[k])[1]


def test_snapshots_derive_the_live_step_velocity(any_pair):
    T = any_pair[0].mesh.num_triangles
    live = [np.stack([live_velocity(traj, k)
                      for k in range(len(traj.times))])
            for traj in any_pair]
    for traj, u in zip(any_pair, live):
        assert traj.flux.phi_grad is not None
        for k in range(len(traj.times)):
            # one snapshot: the derived velocity, to the bit
            assert np.array_equal(traj.velocity(k), u[k])
        # and no (T, 2) rows of its own: the through-flow gradient is
        # the assembler's, not a copy
        for name, val in vars(traj).items():
            assert not (isinstance(val, np.ndarray)
                        and val.shape[-2:] == (T, 2)), name
    # the twin's fields of a snapshot: the live velocities and their
    # difference, the norm of that difference and its jump from the
    # previous snapshot, and the boundary rows of the loads the live
    # reconstructions solved with
    twin = TwinRun(*any_pair)
    bn = twin.mesh.boundary_nodes
    for k in range(len(twin.times)):
        u_hat, u_d = twin._velocities(k)
        assert np.array_equal(u_hat, live[0][k])
        assert np.array_equal(u_d, live[0][k] - live[1][k])
        assert twin.z_u[k] == fem.sq_norm_p0(twin.mesh, u_d)
        if k:
            assert twin.dz_u[k - 1] == fem.sq_norm_jump_p0(
                twin.mesh, live[0][k - 1] - live[1][k - 1], u_d)
        load1, load2 = (live_load(traj, k)[bn] for traj in any_pair)
        got1, got2 = (traj.boundary_load(k) for traj in any_pair)
        assert np.array_equal(got1, load1)
        assert np.array_equal(got1 - got2, load1 - load2)


def test_boundary_load_is_the_rows_of_the_stream_load(any_pair):
    # the boundary rows of the load each reconstruction solved with,
    # formed from the saved vorticity alone
    for traj in any_pair:
        mesh = traj.mesh
        for k in range(len(traj.times)):
            load = -fem.p0_load_vector(mesh, traj.omega[k])
            assert np.array_equal(traj.boundary_load(k),
                                  load[mesh.boundary_nodes])


def test_saved_circulations_are_the_consistent_fluxes_of_the_row(any_pair):
    # one boundary residual of the saved stream function and the
    # boundary rows of its load give the consistent fluxes of the full
    # residual, to the bit
    for traj in any_pair:
        mesh, op = traj.mesh, traj.basis.op
        for k in range(len(traj.times)):
            full = fem.consistent_fluxes(
                op, traj.psi[k], -fem.p0_load_vector(mesh, traj.omega[k]))
            assert np.array_equal(traj.circulations[k], full)
            assert np.array_equal(
                traj.circulations[k],
                op.boundary_indicator @ fem.boundary_residual(
                    op, traj.psi[k], traj.boundary_load(k)))


class StoredDifferenceTwin(TwinRun):
    """A twin that stores the velocities and stream loads of the live
    reconstructions of every snapshot, and feeds those stored fields
    through the same kernels in place of the fields the twin forms on
    read: the reference the derived-on-read twin must match bit for
    bit.  The stored loads stand in for each run's ``boundary_load`` on
    a shallow copy of the run, so the shared trajectories are left as
    they are."""

    def __init__(self, traj1, traj2):
        self.u_hat, self.u_d = [], []
        bn = traj1.mesh.boundary_nodes
        copies = []
        for traj in (traj1, traj2):
            loads = [live_load(traj, k)[bn] for k in range(len(traj.times))]
            traj = copy.copy(traj)
            traj.boundary_load = loads.__getitem__
            copies.append(traj)
        for k in range(len(traj1.times)):
            u1 = live_velocity(traj1, k)
            self.u_hat.append(u1)
            self.u_d.append(u1 - live_velocity(traj2, k))
        super().__init__(*copies)

    def _velocities(self, k):
        return self.u_hat[k], self.u_d[k]


def test_twin_matches_the_stored_difference_reference(small_pair):
    twin = TwinRun(*small_pair)
    ref = StoredDifferenceTwin(*small_pair)
    assert np.array_equal(twin.z_u, ref.z_u)
    assert np.array_equal(twin.z_v, ref.z_v)
    assert np.array_equal(twin.dz_u, ref.dz_u)
    assert np.array_equal(twin.dz_v, ref.dz_v)
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
    n = len(pair[0].times)
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


def test_block_kernels_match_the_per_snapshot_formulas(small_pair):
    # the twin's kernels, each over the (N, ...) block of all snapshots,
    # against the einsum formulas of one snapshot at a time
    assert_matches_reference(TwinRun(*small_pair), EinsumTwin(*small_pair))


def test_norms_read_alone_build_no_integrands(any_pair, monkeypatch):
    # the stability ladder reads only the norms and their jumps: they are
    # formed at construction and take no velocity gradient, and reading
    # the identities afterwards leaves their bits as they were
    calls = []
    real = fem.velocity_gradient

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fem, "velocity_gradient", counted)
    twin = TwinRun(*any_pair)
    z_u, z_v, dz_u, dz_v = twin.z_u, twin.z_v, twin.dz_u, twin.dz_v
    assert calls == []
    assert "_integrands" not in vars(twin)
    monkeypatch.undo()
    after = TwinRun(*any_pair)
    after.energy_identity()
    assert "_integrands" in vars(after)
    assert np.array_equal(after.z_u, z_u)
    assert np.array_equal(after.z_v, z_v)
    assert np.array_equal(after.dz_u, dz_u)
    assert np.array_equal(after.dz_v, dz_v)
    assert np.any(dz_u != 0.0) and np.any(dz_v != 0.0)


def test_twin_takes_one_load_product_per_block(any_pair, monkeypatch):
    # the counts the benchmark tracer reads: one auxiliary solve per
    # snapshot, one reference velocity gradient per snapshot once the
    # identities run and none for the norms alone; the auxiliary load is
    # the only full P0 load of a snapshot, however often the identities
    # are read
    calls = {"solve_auxiliary": 0, "velocity_gradient": 0,
             "p0_load_vector": 0}
    for mod, name in ((zaremba, "solve_auxiliary"),
                      (fem, "velocity_gradient"), (fem, "p0_load_vector")):
        def counted(*args, _real=getattr(mod, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    twin = TwinRun(*any_pair)
    n = len(twin.times)
    assert twin.z_u.shape == twin.z_v.shape == (n,)
    assert twin.dz_u.shape == twin.dz_v.shape == (n - 1,)
    assert calls == {"solve_auxiliary": n, "velocity_gradient": 0,
                     "p0_load_vector": n}
    for _ in range(2):
        twin.energy_identity()
        twin.aux_identity()
    twin.inequality_ledger()
    assert calls == {"solve_auxiliary": n, "velocity_gradient": n,
                     "p0_load_vector": n}
