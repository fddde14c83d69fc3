"""What snapshots and twin runs keep, and that what they derive on read is
bit-for-bit what they used to store."""

import tracemalloc
from functools import cached_property

import numpy as np
import pytest

from euler_ss import fem, hodge, transport, zaremba
from euler_ss.certificates import TwinRun
from euler_ss.fem import ScalarFieldP1, VelocityP0, VorticityP0
from euler_ss.hodge import HarmonicBasis

from conftest import modulated_band_scenario


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


def live_assembly(traj, state):
    """The reconstruction the run made at this snapshot, made again."""
    return hodge.reconstruct_velocity(
        traj.basis, VorticityP0(traj.mesh, state.omega), state.C,
        multiplier=state.assembly.multiplier, phi_grad=traj.flux.phi_grad)


def test_stored_snapshot_derives_the_live_stream_load(small_pair):
    for traj in small_pair:
        for s in traj.states:
            assert s.assembly.stream_load is None
            live = live_assembly(traj, s)
            assert np.array_equal(live.u.values, s.assembly.u.values)
            assert np.array_equal(s.stream_load, live.stream_load)


class StoredDifferenceTwin(TwinRun):
    """A twin built by storing every difference field of every snapshot
    and the auxiliary field of each, with the stream loads of the live
    reconstructions: the reference the derived-on-read twin must match."""

    def __init__(self, traj1, traj2):
        self.traj1, self.traj2 = traj1, traj2
        self.mesh = mesh = traj1.mesh
        self.basis = traj1.basis
        self.times = traj1.times
        self.mult = np.array([s.assembly.multiplier for s in traj1.states])
        area = mesh.tri_area
        self.u_d, self.psi_d, self.load_d, self.load1 = [], [], [], []
        self.coeff_d, self.C_d, self.aux, self.aux_v = [], [], [], []
        self.z_u = np.empty(len(self.times))
        self.z_v = np.empty(len(self.times))
        for k, (s1, s2) in enumerate(zip(traj1.states, traj2.states)):
            load1 = live_assembly(traj1, s1).stream_load
            load2 = live_assembly(traj2, s2).stream_load
            ud = s1.assembly.u.values - s2.assembly.u.values
            psi = ScalarFieldP1(mesh, s1.assembly.psi_total.values
                                - s2.assembly.psi_total.values)
            aux = zaremba.solve_auxiliary(
                self.basis, psi, VorticityP0(mesh, s1.omega - s2.omega))
            v = fem.perp_gradient(mesh, aux.phi)
            self.u_d.append(ud)
            self.psi_d.append(psi)
            self.load1.append(load1)
            self.load_d.append(load1 - load2)
            self.coeff_d.append(s1.assembly.psi_coeffs
                                - s2.assembly.psi_coeffs)
            self.C_d.append(s1.C - s2.C)
            self.aux.append(aux)
            self.aux_v.append(v)
            self.z_u[k] = float(np.einsum("td,td,t->", ud, ud, area))
            self.z_v[k] = float(np.einsum("td,td,t->", v.values, v.values,
                                          area))

    @cached_property
    def _integrands(self):
        mesh = self.mesh
        area = mesh.tri_area
        rows = []
        for k in range(len(self.times)):
            ud, aux, v = self.u_d[k], self.aux[k], self.aux_v[k]
            vv = v.values
            mult, t = self.mult[k], self.times[k]
            eb = bl = bo = bi = bp = 0.0
            for comp, g in self._flow_components():
                ut = self._edge_density(self.psi_d[k], self.load_d[k], comp)
                eb += float(np.sum(ut * ut * g * comp.length)) * mult
                if comp.role == "inflow":
                    bl += float(np.sum(ut * ut * (-g) * comp.length)) * mult
                    hat_t = self._hat_tau_edges(k, self.load1[k], comp)
                    vn = aux.normal_trace(comp)
                    bi += float(np.sum(ut * hat_t * vn * comp.length))
                    phim = 0.5 * (aux.phi.values[comp.edges[:, 0]]
                                  + aux.phi.values[comp.edges[:, 1]])
                    om_in = self.omega_in_diff(comp.comp, t)
                    bp += float(np.sum(phim * om_in * g * comp.length)) \
                        * mult
                elif comp.role == "outflow":
                    vt = self._edge_density(aux.phi,
                                            np.zeros(mesh.num_vertices),
                                            comp)
                    bo += float(np.sum(ut * vt * (-g) * comp.length)) * mult
            jac_hat = fem.velocity_gradient(
                mesh, self.traj1.states[k].assembly.u)
            adv_u = fem.convective_term(mesh, VelocityP0(mesh, ud), jac_hat)
            adv_v = fem.convective_term(mesh, v, jac_hat)
            om_hat = self.traj1.states[k].omega
            rows.append((
                0.5 * eb, np.einsum("td,td,t->", ud, adv_u, area),
                bl, bo, bi,
                -float(np.einsum("td,td,t->", ud, adv_v, area)
                       + np.einsum("td,td,t->", vv, adv_u, area)),
                np.einsum("t,td,td,t->", om_hat, ud, fem.rot90(vv), area),
                bp))
        cols = np.array(rows).T
        return {"energy": dict(zip(("boundary", "convective"), cols[:2])),
                "aux": dict(zip(("inflow_energy", "outflow_cross",
                                 "inflow_cross", "convective", "vortical",
                                 "inflow_data"), cols[2:]))}


def test_twin_matches_the_stored_difference_reference(small_pair):
    twin = TwinRun(*small_pair)
    ref = StoredDifferenceTwin(*small_pair)
    assert np.array_equal(twin.z_u, ref.z_u)
    assert np.array_equal(twin.z_v, ref.z_v)
    assert twin.z_u.max() > 0.0 and twin.z_v.max() > 0.0
    for k in range(len(twin.times)):
        assert np.array_equal(twin.aux[k].D, ref.aux[k].D)
        assert np.array_equal(twin.aux[k].phi.values, ref.aux[k].phi.values)
        assert np.array_equal(twin.coeff_d[k], ref.coeff_d[k])
        assert np.array_equal(twin.C_d[k], ref.C_d[k])
    # the inflow-trace difference reaches the data term
    assert np.any(twin._integrands["aux"]["inflow_data"] != 0.0)
    assert twin.energy_identity() == ref.energy_identity()
    assert twin.aux_identity() == ref.aux_identity()
    ledger, ref_ledger = twin.inequality_ledger(), ref.inequality_ledger()
    assert ledger["rows"] == ref_ledger["rows"]
    assert ledger["C_hat"] == ref_ledger["C_hat"]


def test_auxiliary_state_keeps_only_phi_and_fluxes(small_pair):
    twin = TwinRun(*small_pair)
    aux = twin.aux[-1]
    assert set(vars(aux)) == {"phi", "D"}
    assert np.array_equal(aux.v.values,
                          fem.perp_gradient(twin.mesh, aux.phi).values)
    for name in ("omega_d", "u_d", "psi_d", "load_d"):
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
