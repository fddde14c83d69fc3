"""The fused time step: each per-step stream product is one product with a
cached operator, and one flow set-up serves every run of a (mesh, g)
pair.  Both must leave every number of the step unchanged to the bit."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from euler_ss import fem, hodge, transport
from euler_ss.hodge import HarmonicBasis
from euler_ss.mesh import generate_annulus
from euler_ss.osgood import stability_experiment

from conftest import modulated_band_scenario
from oracles import edge_array
from test_two_holes import two_hole_mesh

LADDER = [1e-3, 3e-3, 1e-2, 3e-2, 1e-1]


def annulus_flow():
    mesh = generate_annulus(1.0, 2.0, 8, 32, roles=("outflow", "inflow"))
    return mesh, edge_array(mesh, {0: np.full(32, 0.25),
                                   1: np.full(32, -0.5)}), \
        np.array([0.0, 0.8])


def two_hole_flow():
    mesh = two_hole_mesh()
    outer, inflow = mesh.component(0), mesh.component(1)
    g_out = 0.5 * inflow.total_length / outer.total_length
    return mesh, edge_array(mesh, {0: np.full(len(outer.length), g_out),
                                   1: np.full(len(inflow.length), -0.5)}), \
        np.array([0.0, 0.8, 0.0])


def reference_step(basis, omega, g, C, mult, flux, trace):
    """The step as it was computed before the fused products: a Green
    solve, consistent fluxes from the full residual, rot90 of the
    gradient, gathered stream jumps, separate cell and component sums,
    and the upwind select and CFL rates in their first form."""
    mesh, op = basis.mesh, basis.op
    load = -fem.p0_load_vector(mesh, omega)
    psi0 = fem.solve_dirichlet(op, load,
                               {c.comp: 0.0 for c in mesh.components})

    nodes = [mesh.component_nodes(c.comp) for c in mesh.components]
    indicator = sp.csr_matrix(
        (np.ones(sum(map(len, nodes))),
         (np.repeat(np.arange(len(nodes)), list(map(len, nodes))),
          np.concatenate(nodes))),
        shape=(len(nodes), mesh.num_vertices))

    def fluxes_of(values):
        return indicator @ (op.matrix @ values - load)

    coeffs = np.linalg.solve(basis.M, C - fluxes_of(psi0)[basis.inner])
    total = psi0.copy()
    for c_i, f in zip(coeffs, basis.fields):
        total += c_i * f
    phi_grad = fem.gradient(mesh, fem.solve_neumann(op, g))
    u = fem.rot90(fem.gradient(mesh, total)) + mult * phi_grad
    ia = mesh.edges[:, 0]
    ib = np.where(mesh.interior_edge, mesh.edges[:, 1], ia)
    jumps = total[ia] - total[ib]
    f = jumps + mult * flux.pot
    bd = np.concatenate([c.edge_ids for c in mesh.components])
    comp_of = np.concatenate([np.full(len(c.edge_ids), c.comp)
                              for c in mesh.components])
    comp_edges = sp.csr_matrix((np.ones(len(bd)), (comp_of, bd)),
                               shape=(len(mesh.components), len(mesh.edges)))
    # upwind values by two gathers and a float select
    far = mesh.edge_right.copy()
    far[bd] = mesh.num_triangles + comp_of
    outside = np.concatenate([omega, trace])[far]
    cf = f * np.where(f >= 0, omega[mesh.edge_left], outside)
    # CFL rates from separate squares, the half outside the product
    D = mesh.incidence
    ux, uy = u[:, 0], u[:, 1]
    adv2 = float(np.max((ux * ux + uy * uy) * mesh.incircle_diameter ** -2))
    outflux = 0.5 * (abs(D) @ np.abs(f) + D @ f)
    rate = max(math.sqrt(adv2),
               float(np.max(outflux * (1.0 / mesh.tri_area))))
    return {"u": u, "psi_total": total, "coeffs": coeffs,
            "circulation": fluxes_of(total),
            "jumps": jumps, "f": f, "div": D @ cf, "rates": comp_edges @ cf,
            "dt": 0.4 / rate}


@pytest.mark.parametrize("flow", [annulus_flow, two_hole_flow],
                         ids=["annulus", "two_holes"])
def test_fused_step_is_bit_identical_to_reference(flow):
    mesh, g, trace = flow()
    basis = HarmonicBasis(mesh)
    x, y = mesh.centroid.T
    omega = np.sin(3.0 * x) * np.cos(2.0 * y) + 0.5
    C = np.linspace(0.3, -0.2, basis.num_inner)
    mult = 0.9
    flux = transport.flow_setup(basis, g)
    psi, coeffs, u, jumps = hodge.reconstruct_velocity(
        basis, omega, C, multiplier=mult, phi_grad=flux.phi_grad)
    ref = reference_step(basis, omega, g, C, mult, flux, trace)

    f = flux.fluxes(jumps, mult)
    div, rates = flux.upwind_rates(omega, f, trace)
    assert np.array_equal(u, ref["u"])
    # and so is the velocity a saved snapshot derives on read
    assert np.array_equal(hodge.stream_velocity(
        mesh, psi, mult, flux.phi_grad), ref["u"])
    assert np.array_equal(psi, ref["psi_total"])
    assert np.array_equal(coeffs, ref["coeffs"])
    # and so are the circulations a saved snapshot derives: one boundary
    # residual of its stream function and its load's boundary rows
    load_rows = (-fem.p0_load_vector(mesh, omega))[mesh.boundary_nodes]
    assert np.array_equal(basis.op.boundary_indicator @ fem.boundary_residual(
        basis.op, psi, load_rows), ref["circulation"])
    # the jumps of the fused product are those of the jump operator alone
    assert np.array_equal(jumps, mesh.edge_jump_operator @ psi)
    assert np.array_equal(jumps, ref["jumps"])
    assert np.array_equal(f, ref["f"])
    assert np.array_equal(div, ref["div"])
    assert np.array_equal(rates, ref["rates"])
    assert flux.stable_dt(u, f, 0.4) == ref["dt"]
    # the flux of every component from the boundary rows alone
    load = hodge.greens_operator(basis, omega)[1]
    assert np.array_equal(fem.consistent_fluxes(basis.op, psi, load),
                          ref["circulation"])


def test_stream_operators_are_built_on_first_use():
    mesh, g, _ = annulus_flow()
    basis = HarmonicBasis(mesh)
    for name in ("perp_gradient_operator", "edge_jump_operator"):
        assert name not in vars(mesh)
    # no step-only operator is built with the basis or the flow set-up,
    # so no step work is timed as set-up
    step_only = ("stream_operator", "green_trace")
    assert not set(step_only) & set(vars(basis))
    flux = transport.flow_setup(basis, g)
    assert not set(step_only) & set(vars(basis))
    hodge.reconstruct_velocity(basis, np.ones(mesh.num_triangles),
                               np.zeros(1), phi_grad=flux.phi_grad)
    assert set(step_only) <= set(vars(basis))
    # the perp-gradient and edge-jump rows only: no boundary rows
    assert basis.stream_operator.shape == (
        2 * mesh.num_triangles + len(mesh.edges), mesh.num_vertices)


def test_saved_snapshots_hold_no_jump_buffer(flow_pair):
    # a reconstruction returns plain arrays: the stream function, its
    # harmonic coefficients, the velocity and the edge jumps
    traj = flow_pair[0]
    mesh = traj.mesh
    out = hodge.reconstruct_velocity(traj.basis, traj.omega[0], traj.C[0],
                                     multiplier=traj.multiplier[0],
                                     phi_grad=traj.flux.phi_grad)
    assert [type(a) for a in out] == [np.ndarray] * 4
    assert [a.shape for a in out] == [
        (mesh.num_vertices,), (traj.basis.num_inner,),
        (mesh.num_triangles, 2), (len(mesh.edges),)]
    rows = {"times", "omega", "C", "B", "psi", "psi_coeffs", "multiplier",
            "circulations", "energy", "dt"}
    for traj in flow_pair:
        arrays = {name: val for name, val in vars(traj).items()
                  if isinstance(val, np.ndarray)}
        assert set(arrays) == rows
        assert {val.shape[0] for val in arrays.values()} \
            == {len(traj.times)}


class CountingMatrix:
    """A sparse matrix that counts the products taken with it."""

    def __init__(self, matrix):
        self.matrix, self.products = matrix, 0

    def __matmul__(self, x):
        self.products += 1
        return self.matrix @ x


@pytest.mark.parametrize("scheme", ["euler", "rk2"])
def test_run_forms_one_circulation_residual_per_saved_snapshot(
        tmp_path, monkeypatch, scheme):
    # a reconstruction forms the residual of its Green fluxes; the
    # consistent circulations come from one more residual per saved
    # snapshot, not from a second residual of every reconstruction
    sc = modulated_band_scenario(tmp_path, nr=4, ntheta=16, scheme=scheme)
    basis = HarmonicBasis(sc.mesh)
    indicator = basis.op.__dict__["boundary_indicator"] = CountingMatrix(
        basis.op.boundary_indicator)
    counts = {"reconstruct_velocity": 0, "boundary_residual": 0}
    for mod, name in ((hodge, "reconstruct_velocity"),
                      (fem, "boundary_residual")):
        def counted(*args, _real=getattr(mod, name), _name=name,
                    **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    traj = transport.run(sc, basis)
    per_step = 2 if scheme == "rk2" else 1
    assert counts["reconstruct_velocity"] \
        == 1 + per_step * traj.total_steps
    expected = counts["reconstruct_velocity"] + len(traj.times)
    assert counts["boundary_residual"] == expected
    assert indicator.products == expected


def test_ladder_does_one_flow_setup(tmp_path, monkeypatch):
    counts = {"neumann": 0, "assembler": 0}
    real_neumann = fem.solve_neumann
    real_init = transport.FluxAssembler.__init__

    def neumann(*args, **kwargs):
        counts["neumann"] += 1
        return real_neumann(*args, **kwargs)

    def init(self, *args, **kwargs):
        counts["assembler"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(fem, "solve_neumann", neumann)
    monkeypatch.setattr(transport.FluxAssembler, "__init__", init)
    sc = modulated_band_scenario(tmp_path, nr=4, ntheta=16)
    rep = stability_experiment(sc, LADDER)
    assert all(r.failed is None for r in rep.rungs)
    # six runs on one mesh and one g
    assert counts == {"neumann": 1, "assembler": 1}


def test_flow_setups_are_keyed_by_g():
    mesh, g, _ = annulus_flow()
    basis = HarmonicBasis(mesh)
    first = transport.flow_setup(basis, g)
    assert transport.flow_setup(basis, g.copy()) is first
    other = transport.flow_setup(basis, 2.0 * g)
    assert other is not first
    assert len(basis.flows) == 2
    assert not first.pot.flags.writeable


def test_ladder_reads_omega0_file_once(tmp_path, monkeypatch):
    calls = []
    real = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(transport.np, "loadtxt", counted)
    sc = modulated_band_scenario(tmp_path, nr=4, ntheta=16)
    rep = stability_experiment(sc, LADDER)
    assert len(rep.rungs) == 5
    assert len(calls) == 1
    # the shared values are read-only and every copy still adds its shift
    shifted = sc.perturbed(omega0=0.25)
    np.testing.assert_array_equal(shifted.initial_omega(),
                                  sc.initial_omega() + 0.25)
    assert len(calls) == 1
