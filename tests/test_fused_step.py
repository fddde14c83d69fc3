"""The fused time step: each per-step stream product is one product with a
cached operator, and one flow set-up serves every run of a (mesh, g)
pair.  Both must leave every number of the step unchanged to the bit."""

import numpy as np
import pytest
import scipy.sparse as sp

from euler_ss import fem, hodge, transport
from euler_ss.fem import ScalarFieldP1, VorticityP0
from euler_ss.hodge import HarmonicBasis
from euler_ss.mesh import generate_annulus
from euler_ss.osgood import stability_experiment

from conftest import modulated_band_scenario
from test_two_holes import two_hole_mesh

LADDER = [1e-3, 3e-3, 1e-2, 3e-2, 1e-1]


def annulus_flow():
    mesh = generate_annulus(1.0, 2.0, 8, 32, roles=("outflow", "inflow"))
    return mesh, {0: np.full(32, 0.25), 1: np.full(32, -0.5)}, {1: 0.8}


def two_hole_flow():
    mesh = two_hole_mesh()
    outer, inflow = mesh.component(0), mesh.component(1)
    g_out = 0.5 * inflow.total_length / outer.total_length
    return mesh, {0: np.full(len(outer.length), g_out),
                  1: np.full(len(inflow.length), -0.5)}, {1: 0.8}


def reference_step(basis, omega, g, C, mult, flux, in_vals):
    """The step as it was computed before the fused products: a Green
    solve with an array trace, consistent fluxes from the full residual,
    rot90 of the gradient, gathered stream jumps, and separate cell and
    component sums."""
    mesh, op = basis.mesh, basis.op
    load = -fem.p0_load_vector(mesh, omega)
    psi0 = fem.solve_dirichlet(op, load, np.zeros(mesh.num_vertices))

    nodes = [mesh.component_nodes(c.comp) for c in mesh.components]
    indicator = sp.csr_matrix(
        (np.ones(sum(map(len, nodes))),
         (np.repeat(np.arange(len(nodes)), list(map(len, nodes))),
          np.concatenate(nodes))),
        shape=(len(nodes), mesh.num_vertices))

    def fluxes_of(values):
        return indicator @ (op.matrix @ values - load)

    coeffs = np.linalg.solve(basis.M, C - fluxes_of(psi0.values)[basis.inner])
    total = psi0.values.copy()
    for c_i, f in zip(coeffs, basis.fields):
        total += c_i * f.values
    phi_grad = fem.gradient(mesh, fem.solve_neumann(op, g))
    u = fem.rot90(fem.gradient(mesh, ScalarFieldP1(mesh, total)).values) \
        + mult * phi_grad.values
    ia = mesh.edges[:, 0]
    ib = np.where(mesh.interior_edge, mesh.edges[:, 1], ia)
    jumps = total[ia] - total[ib]
    f = jumps + mult * flux.pot
    bd = np.concatenate([c.edge_ids for c in mesh.components])
    comp_of = np.concatenate([np.full(len(c.edge_ids), c.comp)
                              for c in mesh.components])
    comp_edges = sp.csr_matrix((np.ones(len(bd)), (comp_of, bd)),
                               shape=(len(mesh.components), len(mesh.edges)))
    cf = flux.vorticity_flux(omega, f, in_vals)
    return {"u": u, "psi_total": total, "circulation": fluxes_of(total),
            "jumps": jumps, "f": f, "div": mesh.incidence @ cf,
            "rates": comp_edges @ cf,
            "dt": flux.stable_dt(fem.VelocityP0(mesh, u), f, 0.4)}


@pytest.mark.parametrize("flow", [annulus_flow, two_hole_flow],
                         ids=["annulus", "two_holes"])
def test_fused_step_is_bit_identical_to_reference(flow):
    mesh, g, in_vals = flow()
    basis = HarmonicBasis(mesh)
    x, y = mesh.centroid.T
    omega = np.sin(3.0 * x) * np.cos(2.0 * y) + 0.5
    C = np.linspace(0.3, -0.2, basis.num_inner)
    mult = 0.9
    flux = transport.flow_setup(basis, g)
    asm = hodge.reconstruct_velocity(basis, VorticityP0(mesh, omega), C,
                                     multiplier=mult,
                                     phi_grad=flux.phi_grad)
    ref = reference_step(basis, omega, g, C, mult, flux, in_vals)

    f = flux.fluxes(asm)
    div, rates = flux.upwind_rates(omega, f, in_vals)
    assert np.array_equal(asm.u.values, ref["u"])
    assert np.array_equal(asm.psi_total.values, ref["psi_total"])
    assert np.array_equal(asm.circulation_consistent, ref["circulation"])
    assert np.array_equal(asm.edge_jumps, ref["jumps"])
    assert np.array_equal(f, ref["f"])
    assert np.array_equal(div, ref["div"])
    assert np.array_equal(rates, ref["rates"])
    assert flux.stable_dt(asm.u, f, 0.4) == ref["dt"]
    # a stored snapshot recomputes its jumps to the same bits
    stored = asm.without_step_jumps()
    assert stored.step_jumps is None
    assert np.array_equal(stored.edge_jumps, ref["jumps"])
    # the flux of every component from the boundary rows alone
    assert np.array_equal(
        fem.consistent_fluxes(basis.op, asm.psi_total, asm.stream_load),
        ref["circulation"])


def test_stream_operators_are_built_on_first_use():
    mesh, g, _ = annulus_flow()
    basis = HarmonicBasis(mesh)
    for name in ("perp_gradient_operator", "edge_jump_operator"):
        assert name not in vars(mesh)
    assert "stream_operator" not in vars(basis)
    flux = transport.flow_setup(basis, g)
    assert "stream_operator" not in vars(basis)
    hodge.reconstruct_velocity(basis, VorticityP0(
        mesh, np.ones(mesh.num_triangles)), np.zeros(1),
        phi_grad=flux.phi_grad)
    assert basis.stream_operator.shape == (
        2 * mesh.num_triangles + len(mesh.edges) + len(mesh.boundary_nodes),
        mesh.num_vertices)


def test_saved_snapshots_hold_no_jump_buffer(flow_pair):
    for traj in flow_pair:
        assert all(s.assembly.step_jumps is None for s in traj.states)


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
    assert transport.flow_setup(basis, {c: v.copy() for c, v in g.items()}) \
        is first
    other = transport.flow_setup(basis, {c: 2.0 * v for c, v in g.items()})
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
