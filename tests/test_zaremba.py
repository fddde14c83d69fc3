import numpy as np
import pytest

from euler_ss import fem, hodge, transport
from euler_ss.certificates import TwinRun
from euler_ss.errors import PreconditionError
from euler_ss.hodge import HarmonicBasis
from euler_ss.mesh import generate_annulus
from euler_ss.zaremba import reversed_flux_residuals, solve_auxiliary

from test_two_holes import flow_scenario, two_hole_mesh


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
    psi = c * flow_basis.fields[0]
    phi, _ = solve_auxiliary(flow_basis, psi, np.zeros(m.num_triangles))
    assert phi.shape == (m.num_vertices,)
    assert np.abs(phi + psi).max() < 1e-11


def test_pinned_trace_is_exactly_zero(flow_basis):
    m = flow_basis.mesh
    rng = np.random.default_rng(2)
    psi = flow_basis.fields[0] * 0.2
    omega = rng.standard_normal(m.num_triangles) * 0.1
    phi, _ = solve_auxiliary(flow_basis, psi, omega)
    assert np.abs(phi[m.component(0).nodes]).max() == 0.0


def test_flux_sum_vanishes_for_harmonic_data(flow_basis):
    # with no vorticity the load is supported on the boundary rows, so the
    # fluxes telescope: sum_i D_i = 1^T A phi = 0
    m = flow_basis.mesh
    psi = flow_basis.fields[0] * -0.4
    _, D = solve_auxiliary(flow_basis, psi, np.zeros(m.num_triangles))
    assert D.shape == (len(m.components),)
    assert abs(D.sum()) < 1e-12


def test_reversed_flux_matches_negated_circulation(flow_basis):
    m = flow_basis.mesh
    c = 0.37
    psi = c * flow_basis.fields[0]
    _, D = solve_auxiliary(flow_basis, psi, np.zeros(m.num_triangles))
    # circulation of psi = c f^1 around the inner component is c M_11
    C1 = c * flow_basis.M[0, 0]
    res = reversed_flux_residuals(D[:, None], flow_basis, np.array([[C1]]))
    assert res.shape == (1, 1)
    assert res[0, 0] < 1e-10


def test_normal_trace_matches_cell_velocity(flow_basis):
    # the exact P1 trace -(phi_b - phi_a) / len of each directed boundary
    # edge, the v . n the twin's inflow integrands read, is the v . n of
    # the edge's cell
    m = flow_basis.mesh
    rng = np.random.default_rng(5)
    for scale in (0.1, -0.3):
        omega = rng.standard_normal(m.num_triangles) * 0.2
        phi, _ = solve_auxiliary(flow_basis, flow_basis.fields[0] * scale,
                                 omega)
        v = hodge.stream_velocity(m, phi, None, None)
        for comp in m.components:
            a, b = comp.edges[:, 0], comp.edges[:, 1]
            tr = -(phi[b] - phi[a]) / comp.length
            cell = np.einsum("ed,ed->e", v[comp.tri], comp.normal)
            assert np.abs(tr - cell).max() < 1e-13


def test_all_inflow_rejected():
    m = generate_annulus(1.0, 2.0, 4, 16, roles=("inflow", "inflow"))
    b = HarmonicBasis(m)
    with pytest.raises(PreconditionError, match="inflow"):
        solve_auxiliary(b, np.zeros(m.num_vertices),
                        np.zeros(m.num_triangles))


def test_vortical_difference_state(flow_twin):
    """The auxiliary flux law holds for a genuine twin difference."""
    base, pert = flow_twin.traj1, flow_twin.traj2
    basis = base.basis
    k = len(base.states) - 1
    sa, sb = base.states[k], pert.states[k]
    _, D = solve_auxiliary(basis,
                           sa.assembly.psi_total - sb.assembly.psi_total,
                           sa.omega - sb.omega)
    dC = (sa.assembly.circulation_consistent
          - sb.assembly.circulation_consistent)[1:]
    res = reversed_flux_residuals(D[:, None], basis, dC[None, :])
    scale = max(1.0, float(np.abs(dC).max()))
    assert res.max() < 1e-9 * scale


def test_both_holes_inflow_reversed_flux_rows(tmp_path):
    # both holes inflow: the law constrains two components, and each
    # inflow id maps to its own column of the circulations
    sc = flow_scenario(tmp_path, two_hole_mesh(("outflow", "inflow",
                                                "inflow")))
    basis = HarmonicBasis(sc.mesh)
    twin = TwinRun(transport.run(sc, basis),
                   transport.run(sc.perturbed(C0={1: 0.1, 2: -0.05},
                                              omega_in={1: 0.05, 2: -0.03}),
                                 basis))
    n = len(twin.times)
    assert twin.C_d.shape == (n, 2)
    assert np.abs(twin.C_d).min() > 0.0
    res = reversed_flux_residuals(twin.D, basis, twin.C_d)
    assert res.shape == (n, 2)
    tol = 100 * fem.DEFAULT_RTOL * np.maximum(1.0, np.abs(twin.C_d))
    assert np.all(res < tol)
    for k in range(n):
        one = reversed_flux_residuals(twin.D[:, [k]], basis, twin.C_d[[k]])
        assert np.array_equal(res[[k]], one)
