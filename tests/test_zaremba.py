import numpy as np
import pytest

from euler_ss import fem
from euler_ss.errors import PreconditionError
from euler_ss.hodge import HarmonicBasis
from euler_ss.mesh import generate_annulus
from euler_ss.zaremba import reversed_flux_residuals, solve_auxiliary


@pytest.fixture(scope="module")
def flow_mesh():
    return generate_annulus(1.0, 2.0, 8, 32, roles=("outflow", "inflow"))


@pytest.fixture(scope="module")
def flow_basis(flow_mesh):
    return HarmonicBasis(flow_mesh)


def test_manufactured_harmonic_difference(flow_basis):
    # psi = c f^1 carries circulation -c M_11 ... but as a difference
    # stream field its auxiliary potential must be -psi: both solve the
    # same mixed problem with opposite boundary data
    m = flow_basis.mesh
    c = 0.37
    psi = fem.ScalarFieldP1(m, c * flow_basis.fields[0].values)
    omega = fem.VorticityP0(m, np.zeros(m.num_triangles))
    aux = solve_auxiliary(flow_basis, psi, omega)
    assert np.abs(aux.phi.values + psi.values).max() < 1e-11


def test_pinned_trace_is_exactly_zero(flow_basis):
    m = flow_basis.mesh
    rng = np.random.default_rng(2)
    psi = fem.ScalarFieldP1(m, flow_basis.fields[0].values * 0.2)
    omega = fem.VorticityP0(m, rng.standard_normal(m.num_triangles) * 0.1)
    aux = solve_auxiliary(flow_basis, psi, omega)
    assert np.abs(aux.phi.values[m.component(0).nodes]).max() == 0.0


def test_flux_sum_vanishes_for_harmonic_data(flow_basis):
    # with no vorticity the load is supported on the boundary rows, so the
    # fluxes telescope: sum_i D_i = 1^T A phi = 0
    m = flow_basis.mesh
    psi = fem.ScalarFieldP1(m, flow_basis.fields[0].values * -0.4)
    omega = fem.VorticityP0(m, np.zeros(m.num_triangles))
    aux = solve_auxiliary(flow_basis, psi, omega)
    assert abs(aux.D.sum()) < 1e-12


def test_reversed_flux_matches_negated_circulation(flow_basis):
    m = flow_basis.mesh
    c = 0.37
    psi = fem.ScalarFieldP1(m, c * flow_basis.fields[0].values)
    omega = fem.VorticityP0(m, np.zeros(m.num_triangles))
    aux = solve_auxiliary(flow_basis, psi, omega)
    # circulation of psi = c f^1 around the inner component is c M_11
    C1 = c * flow_basis.M[0, 0]
    res = reversed_flux_residuals(aux, flow_basis, np.array([C1]))
    assert res.shape == (1,)
    assert res[0] < 1e-10


def test_normal_trace_matches_cell_velocity(flow_basis):
    m = flow_basis.mesh
    rng = np.random.default_rng(5)
    psi = fem.ScalarFieldP1(m, flow_basis.fields[0].values * 0.1)
    omega = fem.VorticityP0(m, rng.standard_normal(m.num_triangles) * 0.2)
    aux = solve_auxiliary(flow_basis, psi, omega)
    for comp in m.components:
        tr = aux.normal_trace(comp)
        cell = np.einsum("ed,ed->e", aux.v.values[comp.tri], comp.normal)
        assert np.abs(tr - cell).max() < 1e-13


def test_all_inflow_rejected():
    m = generate_annulus(1.0, 2.0, 4, 16, roles=("inflow", "inflow"))
    b = HarmonicBasis(m)
    psi = fem.ScalarFieldP1(m, np.zeros(m.num_vertices))
    omega = fem.VorticityP0(m, np.zeros(m.num_triangles))
    with pytest.raises(PreconditionError, match="inflow"):
        solve_auxiliary(b, psi, omega)


def test_vortical_difference_state(flow_twin):
    """The auxiliary flux law holds for a genuine twin difference."""
    base, pert = flow_twin.traj1, flow_twin.traj2
    m = base.mesh
    basis = base.basis
    k = len(base.states) - 1
    sa, sb = base.states[k], pert.states[k]
    psi = fem.ScalarFieldP1(
        m, sa.assembly.psi_total.values - sb.assembly.psi_total.values)
    omega = fem.VorticityP0(m, sa.omega - sb.omega)
    aux = solve_auxiliary(basis, psi, omega)
    dC = (sa.assembly.circulation_consistent
          - sb.assembly.circulation_consistent)[1:]
    res = reversed_flux_residuals(aux, basis, dC)
    scale = max(1.0, float(np.abs(dC).max()))
    assert res.max() < 1e-9 * scale


def test_block_solve_matches_single_solves(flow_basis):
    # one multi-column solve for a block of difference states agrees with
    # the solve of each state on its own, to round-off
    m = flow_basis.mesh
    rng = np.random.default_rng(3)
    psi = rng.standard_normal((m.num_vertices, 4))
    omega = rng.standard_normal((m.num_triangles, 4))
    block = solve_auxiliary(flow_basis, psi, omega)
    assert len(block) == 4
    for j, aux in enumerate(block):
        one = solve_auxiliary(flow_basis, fem.ScalarFieldP1(m, psi[:, j]),
                              fem.VorticityP0(m, omega[:, j]))
        assert aux.phi.values.flags.c_contiguous
        scale = np.abs(one.phi.values).max()
        assert np.abs(aux.phi.values - one.phi.values).max() \
            <= 1e-14 * scale
        assert np.abs(aux.D - one.D).max() <= 1e-12 * np.abs(one.D).max()
