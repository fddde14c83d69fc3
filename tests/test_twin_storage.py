"""What snapshots and twin runs keep, that what they derive on read is
bit-for-bit what the live step used, and that the kernels of a twin
agree with the per-snapshot formulas."""

import tracemalloc

import numpy as np
import pytest

from euler_ss import fem, hodge, transport, zaremba
from euler_ss.certificates import TwinRun
from euler_ss.hodge import HarmonicBasis

from conftest import modulated_band_scenario
from einsum_twin import (EinsumTwin, assert_matches_reference,
                         snapshot_blocks)
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
    # the twin's fields of a snapshot: the live velocities and their
    # difference, the norm of that difference, and the boundary rows of
    # the loads the live reconstructions solved with
    twin = TwinRun(*any_pair)
    bn = twin.mesh.boundary_nodes
    for k in range(len(twin.times)):
        u_hat, u_d = twin._velocities(k)
        assert np.array_equal(u_hat, live[0][k])
        assert np.array_equal(u_d, live[0][k] - live[1][k])
        assert twin.z_u[k] == fem.sq_norm_p0(twin.mesh, u_d)
        load1, load2 = (live_load(traj, traj.states[k])[bn]
                        for traj in any_pair)
        got1, got_d = twin._stream_loads(k)
        assert np.array_equal(got1, load1)
        assert np.array_equal(got_d, load1 - load2)


class StoredDifferenceTwin(TwinRun):
    """A twin that stores the velocities and stream loads of the live
    reconstructions of every snapshot, and feeds those stored fields
    through the same kernels in place of the fields the twin forms on
    read: the reference the derived-on-read twin must match bit for
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

    def _velocities(self, k):
        return self.u_hat[k], self.u_d[k]

    def _stream_loads(self, k):
        return self.loads[k]


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
def test_block_kernels_match_the_per_snapshot_formulas(small_pair, size):
    # the identities read over blocks of one snapshot interval, uneven
    # blocks of three (6 intervals: the last block is [3, 6]) and the
    # whole run, each against the einsum formulas of the same window
    n = len(small_pair[0].states)
    assert len(snapshot_blocks(n, size)) == {1: 6, 3: 2, None: 1}[size]
    assert_matches_reference(TwinRun(*small_pair), EinsumTwin(*small_pair),
                             block=size)


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
    # the counts the benchmark tracer reads: one auxiliary solve per
    # snapshot, one reference velocity gradient per snapshot once the
    # identities run and none for the norms alone; the auxiliary load is
    # the only full P0 load of a snapshot, however many blocks of
    # snapshots the identities are read over
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
    assert calls == {"solve_auxiliary": n, "velocity_gradient": 0,
                     "p0_load_vector": n}
    for k0, k1 in snapshot_blocks(n, 3) + snapshot_blocks(n, None):
        twin.energy_identity(k0, k1)
        twin.aux_identity(k0, k1)
    twin.inequality_ledger()
    assert calls == {"solve_auxiliary": n, "velocity_gradient": n,
                     "p0_load_vector": n}
