"""Every P1 and P0 field the package hands out is a plain float64 array of
its documented shape: (V,) per vertex, (T,) or (T, 2) per cell."""

import numpy as np
import pytest

from euler_ss import fem, hodge, transport
from euler_ss.mesh import generate_annulus

from test_two_holes import two_hole_mesh


@pytest.fixture(scope="module", params=["annulus", "two_holes"])
def basis(request):
    mesh = generate_annulus(1.0, 2.0, 4, 16, roles=("outflow", "inflow")) \
        if request.param == "annulus" else two_hole_mesh()
    return hodge.HarmonicBasis(mesh)


@pytest.fixture(scope="module")
def g_edges(basis):
    # unit through-flow: out of the outer component, into component 1
    c0, c1 = basis.mesh.components[:2]
    return {0: np.full(len(c0.length), 1.0 / c0.total_length),
            1: np.full(len(c1.length), -1.0 / c1.total_length)}


def assert_field(x, shape):
    assert type(x) is np.ndarray
    assert x.dtype == np.float64
    assert x.shape == shape


def test_solvers_return_arrays(basis, g_edges):
    op, mesh = basis.op, basis.mesh
    V = mesh.num_vertices
    bc = {c.comp: float(c.comp == 1) for c in mesh.components}
    assert_field(fem.solve_dirichlet(op, np.zeros(V), bc), (V,))
    assert_field(fem.solve_neumann(op, g_edges), (V,))
    assert_field(fem.solve_mixed(op, {0: 0.0}, {1: g_edges[1]}), (V,))
    nodes = mesh.component_nodes(0)
    vals = np.full(len(nodes), 0.5)
    load = np.random.default_rng(1).standard_normal(V)
    assert_field(fem.solve_constrained(op, load, nodes, vals), (V,))


def test_stream_and_velocity_fields_are_arrays(basis, g_edges):
    mesh = basis.mesh
    V, T = mesh.num_vertices, mesh.num_triangles
    for f in basis.fields:
        assert_field(f, (V,))
    omega = np.random.default_rng(2).uniform(-1.0, 1.0, T)
    psi0, _ = hodge.greens_operator(basis, omega)
    assert_field(psi0, (V,))
    assert_field(fem.gradient(mesh, psi0), (T, 2))
    flux = transport.flow_setup(basis, g_edges)
    assert_field(flux.phi, (V,))
    assert_field(flux.phi_grad, (T, 2))
    asm, u, _ = hodge.reconstruct_velocity(
        basis, omega, np.full(basis.num_inner, 0.2), multiplier=0.5,
        phi_grad=flux.phi_grad)
    assert_field(u, (T, 2))
    assert_field(asm.u, (T, 2))
    assert_field(asm.psi_total, (V,))
