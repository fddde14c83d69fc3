import math

import numpy as np
import pytest

from euler_ss import fem, transport
from euler_ss.errors import PreconditionError, UsageError
from euler_ss.certificates import P_GRID
from euler_ss.hodge import (HarmonicBasis, greens_operator,
                            reconstruct_velocity, stream_velocity,
                            validate_sign_condition)
from euler_ss.mesh import INFLOW, OUTFLOW, generate_annulus

from oracles import (check_elliptic_growth, circulation_trace,
                     consistent_circulations, edge_array, lp_norm_p0,
                     w1p_seminorms_p0)
from test_two_holes import two_hole_mesh

LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def fine():
    return generate_annulus(1.0, 2.0, 16, 64)


@pytest.fixture(scope="module")
def fine_basis(fine):
    return HarmonicBasis(fine)


def test_basis_fields_pinned_exactly(basis_mid):
    m = basis_mid.mesh
    f = basis_mid.fields[0]
    assert np.all(f[m.component(1).nodes] == 1.0)
    assert np.all(f[m.component(0).nodes] == 0.0)
    inside = np.setdiff1d(np.arange(m.num_vertices), m.boundary_nodes)
    assert np.all((f[inside] > 0) & (f[inside] < 1))


def test_flux_rows_balance(basis_mid):
    # each basis field is discretely harmonic: its fluxes sum to zero
    col_sums = basis_mid.flux_rows.sum(axis=0)
    assert np.abs(col_sums).max() < 1e-10


def test_period_matrix_value(fine_basis):
    M = fine_basis.M
    assert M.shape == (1, 1)
    exact = 2 * math.pi / LN2
    assert M[0, 0] > 0
    assert abs(M[0, 0] - exact) < 0.01 * exact
    # symmetric positive definite
    assert np.all(np.linalg.eigvalsh(M) > 0)


def test_outer_flux_matches_criterion(fine_basis):
    # flux of the inner-component basis field through the outer boundary
    m = fine_basis.mesh
    z = np.zeros(m.num_vertices)
    fl = fem.consistent_flux(fine_basis.op, fine_basis.fields[0], z, 0)
    exact = -2 * math.pi / LN2
    assert abs(fl - exact) < 0.01 * abs(exact)


def test_greens_flux_sum_equals_vorticity_integral(basis_mid):
    m = basis_mid.mesh
    rng = np.random.default_rng(11)
    w = rng.standard_normal(m.num_triangles)
    psi0, load = greens_operator(basis_mid, w)
    for c in m.components:
        assert np.abs(psi0[c.nodes]).max() == 0.0
    total = sum(fem.consistent_flux(basis_mid.op, psi0, load, c.comp)
                for c in m.components)
    integral = w @ m.tri_area
    assert abs(total - integral) < 1e-9 * max(1.0, abs(integral))


def test_biot_savart_no_slip_walls(basis_mid):
    # the Green part's velocity has zero normal trace on every wall
    m = basis_mid.mesh
    w = np.ones(m.num_triangles)
    psi0, _ = greens_operator(basis_mid, w)
    u = stream_velocity(m, psi0, None, None)
    for c in m.components:
        un = np.einsum("ed,ed->e", u[m.edge_left[c.edge_ids]],
                       m.edge_normal[c.edge_ids])
        assert np.abs(un).max() < 1e-13


def test_positive_circulation_flows_clockwise(basis_mid):
    m = basis_mid.mesh
    w = np.zeros(m.num_triangles)
    _, _, u, _ = reconstruct_velocity(basis_mid, w, np.array([0.4]))
    cen = m.centroid
    th = np.arctan2(cen[:, 1], cen[:, 0])
    u_theta = -np.sin(th) * u[:, 0] + np.cos(th) * u[:, 1]
    assert np.all(u_theta < 0)


def test_circulation_bookkeeping(basis_mid):
    m = basis_mid.mesh
    w = np.full(m.num_triangles, 0.5)
    psi, _, _, _ = reconstruct_velocity(basis_mid, w, np.array([0.7]))
    circ = consistent_circulations(basis_mid, w, psi)
    # prescribed inner circulation is honoured to solver accuracy
    assert abs(circ[1] - 0.7) < 1e-10
    integral = w @ m.tri_area
    assert abs(circ.sum() - integral) < 1e-9


def test_circulation_trace_first_order():
    # the one-sided boundary quadrature converges linearly to the
    # variational circulation
    defects = []
    for nr in (8, 16):
        m = generate_annulus(1.0, 2.0, nr, 4 * nr)
        b = HarmonicBasis(m)
        w = np.full(m.num_triangles, 0.5)
        psi, _, u, _ = reconstruct_velocity(b, w, np.array([0.7]))
        defects.append(np.abs(circulation_trace(m, u)
                              - consistent_circulations(b, w, psi)).max())
    assert defects[0] < 0.4
    assert defects[1] < 0.7 * defects[0]


def test_stream_velocity_tangent_to_walls(basis_mid):
    m = basis_mid.mesh
    rng = np.random.default_rng(5)
    w = rng.standard_normal(m.num_triangles)
    _, _, u, _ = reconstruct_velocity(basis_mid, w, np.array([0.3]))
    for c in m.components:
        un = np.einsum("ed,ed->e", u[m.edge_left[c.edge_ids]],
                       m.edge_normal[c.edge_ids])
        assert np.abs(un).max() < 1e-13


def test_wrong_circulation_count_rejected(basis_mid):
    w = np.zeros(basis_mid.mesh.num_triangles)
    with pytest.raises(UsageError, match="circulation"):
        reconstruct_velocity(basis_mid, w, np.array([0.1, 0.2]))


def test_sign_condition_wall_must_vanish():
    m = generate_annulus(1.0, 2.0, 4, 16)
    g = edge_array(m, {0: np.full(len(m.component(0).edges), 0.1)})
    with pytest.raises(PreconditionError) as exc:
        validate_sign_condition(m, g)
    msg = str(exc.value)
    assert "component 0" in msg and "wall" in msg and "edge" in msg


def test_sign_condition_inflow_sign():
    m = generate_annulus(1.0, 2.0, 4, 16, roles=("outflow", "inflow"))
    g = edge_array(m, {0: np.full(len(m.component(0).edges), 0.1),
                       1: np.full(len(m.component(1).edges), 0.1)})
    with pytest.raises(PreconditionError, match="inflow.*g <= 0"):
        validate_sign_condition(m, g)


def test_sign_condition_outflow_sign():
    m = generate_annulus(1.0, 2.0, 4, 16, roles=("outflow", "inflow"))
    g = edge_array(m, {0: np.full(len(m.component(0).edges), -0.1),
                       1: np.full(len(m.component(1).edges), -0.1)})
    with pytest.raises(PreconditionError, match="outflow"):
        validate_sign_condition(m, g)


def test_sign_condition_accepts_valid_data():
    m = generate_annulus(1.0, 2.0, 4, 16, roles=("outflow", "inflow"))
    g = edge_array(m, {0: np.full(len(m.component(0).edges), 0.1),
                       1: np.full(len(m.component(1).edges), -0.1)})
    validate_sign_condition(m, g)
    # tiny values below the relative tolerance are treated as zero
    m2 = generate_annulus(1.0, 2.0, 4, 16, roles=("outflow", "wall"))
    g2 = edge_array(m2, {0: np.full(len(m2.component(0).edges), 0.1),
                         1: np.full(len(m2.component(1).edges), 1e-18)})
    validate_sign_condition(m2, g2)


@pytest.mark.parametrize("scale", [1.0, 1e-14, 1e-30])
def test_sign_condition_is_relative_at_every_scale(scale):
    m = generate_annulus(1.0, 2.0, 4, 16, roles=("outflow", "inflow"))
    g = edge_array(m, {0: np.full(len(m.component(0).edges), 0.1 * scale),
                       1: np.full(len(m.component(1).edges), -0.1 * scale)})
    e3 = m.component(1).edge_ids[3]     # the fourth edge of loop 1
    g[e3] = 1e-14 * scale      # below the relative tolerance: zero
    validate_sign_condition(m, g)
    g[e3] = 1e-3 * scale
    with pytest.raises(PreconditionError, match="edge 3"):
        validate_sign_condition(m, g)


@pytest.mark.parametrize("comp, role, rule, bad", [
    (0, "inflow", "inflow data must satisfy g <= 0", 0.2),
    (1, "wall", "wall data must vanish", -0.2),
    (2, "outflow", "outflow data must satisfy g >= 0", -0.2)])
def test_sign_condition_names_the_first_offender(comp, role, rule, bad):
    # two bad edges on one loop, the later one with the smaller edge id,
    # and one on every later component: the first in component order, then
    # loop order, is named
    m = two_hole_mesh(("inflow", "wall", "outflow"))
    g = np.zeros(len(m.edges))
    g[m.edge_role == INFLOW] = -0.1
    g[m.edge_role == OUTFLOW] = 0.1
    ids = m.component(comp).edge_ids
    first = int(np.argmax(ids))
    assert ids[-1] < ids[first]
    g[ids[[first, -1]]] = bad
    for c in m.components[comp + 1:]:
        g[c.edge_ids[1]] = 0.5
    x, y = m.vertices[m.edges[ids[first]]].mean(axis=0)
    with pytest.raises(PreconditionError) as exc:
        validate_sign_condition(m, g)
    assert str(exc.value) == (
        f"sign condition violated on component {comp} ({role}): {rule}, "
        f"but edge {first} at ({x:.6g}, {y:.6g}) carries g = {bad:.6e}")


def test_sign_condition_needs_one_edge_array():
    m = generate_annulus(1.0, 2.0, 4, 16, roles=("outflow", "inflow"))
    loop = np.full(len(m.component(1).edges), -0.1)
    for g in (loop, {1: loop}, np.zeros(len(m.edges) + 1)):
        with pytest.raises(UsageError, match="edge values"):
            validate_sign_condition(m, g)


def test_elliptic_growth_proxy_bounded(basis_mid, flow_scenario):
    m = basis_mid.mesh
    rng = np.random.default_rng(9)
    w = rng.uniform(-1.0, 1.0, m.num_triangles)
    _, _, u, _ = reconstruct_velocity(basis_mid, w, np.array([0.2]))
    rep = check_elliptic_growth(basis_mid, u, 1.0, w, None, np.array([0.2]))
    assert rep["bounded"]
    proxies = [row["proxy"] for row in rep["rows"]]
    assert all(np.isfinite(p) and p > 0 for p in proxies)
    # the p-scaled norms must not blow up with p
    assert max(proxies) < 50.0

    # with through-flow, each row's data term adds |g|_inf * |multiplier|
    basis = HarmonicBasis(flow_scenario.mesh)
    flow = transport.flow_setup(basis, flow_scenario.g_edges())
    m = basis.mesh
    w = rng.uniform(-1.0, 1.0, m.num_triangles)
    mult = 0.7
    _, _, u, _ = reconstruct_velocity(basis, w, np.array([0.2]),
                                      multiplier=mult,
                                      phi_grad=flow.phi_grad)
    dry = check_elliptic_growth(basis, u, mult, w, None, np.array([0.2]))
    rep = check_elliptic_growth(basis, u, mult, w, flow.g_edges,
                                np.array([0.2]))
    assert rep["bounded"]
    g_inf = float(np.abs(flow.g_edges).max())
    assert g_inf > 0
    for r0, r in zip(dry["rows"], rep["rows"]):
        assert r["proxy"] == r0["proxy"]
        data0 = r0["proxy"] / (r0["p"] * r0["ratio"])
        data = r["proxy"] / (r["p"] * r["ratio"])
        assert data - data0 == pytest.approx(g_inf * mult, rel=1e-12)


def test_elliptic_growth_takes_one_velocity_gradient(basis_mid,
                                                     monkeypatch):
    m = basis_mid.mesh
    w = np.random.default_rng(11).uniform(-1.0, 1.0, m.num_triangles)
    _, _, u, _ = reconstruct_velocity(basis_mid, w, np.array([0.2]))
    calls = []
    real = fem.velocity_gradient

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(fem, "velocity_gradient", counted)
    rep = check_elliptic_growth(basis_mid, u, 1.0, w, None, np.array([0.2]))
    assert len(calls) == 1
    monkeypatch.setattr(fem, "velocity_gradient", real)
    # every row is the proxy of the per-p seminorm, bit for bit
    for row, p in zip(rep["rows"], P_GRID, strict=True):
        assert row["p"] == p
        semi = w1p_seminorms_p0(m, u, (p,))[0]
        up = lp_norm_p0(m, u, p)
        assert row["proxy"] == (up ** p + semi ** p) ** (1.0 / p)
