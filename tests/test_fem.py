import math

import numpy as np
import pytest
import scipy.sparse as sp

from euler_ss import fem, hodge, zaremba
from euler_ss.errors import PreconditionError, SolverError, UsageError
from euler_ss.mesh import Mesh, generate_annulus

from oracles import (edge_array, lp_norm_p0, nodal_flux_density,
                     trace_inequality, w1p_seminorms_p0)

LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def annulus():
    return generate_annulus(1.0, 2.0, 8, 32)


@pytest.fixture(scope="module")
def stiffness(annulus):
    return fem.StiffnessOperator(annulus)


def test_stiffness_symmetric_with_constant_kernel(stiffness):
    A = stiffness.matrix
    asym = abs(A - A.T).max()
    assert asym < 1e-14
    ones = np.ones(A.shape[0])
    assert np.abs(A @ ones).max() < 1e-13


def test_dirichlet_harmonic_annulus(annulus, stiffness):
    f = fem.solve_dirichlet(stiffness, np.zeros(annulus.num_vertices),
                            {0: 0.0, 1: 1.0})
    r = np.hypot(*annulus.vertices.T)
    exact = np.log(2.0 / r) / LN2
    assert np.abs(f - exact).max() < 5e-4
    # discrete harmonic to 10 * DEFAULT_RTOL: the trace oracle's
    # precondition accepts it
    trace_inequality(stiffness, f, np.zeros(annulus.num_vertices), 1)


def test_dirichlet_rate():
    errs = []
    for nr in (4, 8):
        m = generate_annulus(1.0, 2.0, nr, 4 * nr)
        op = fem.StiffnessOperator(m)
        f = fem.solve_dirichlet(op, np.zeros(m.num_vertices), {0: 0.0, 1: 1.0})
        r = np.hypot(*m.vertices.T)
        errs.append(np.abs(f - np.log(2.0 / r) / LN2).max())
    assert math.log2(errs[0] / errs[1]) > 1.8


def test_poisson_unit_source(annulus, stiffness):
    load = fem.p0_load_vector(annulus, np.ones(annulus.num_triangles))
    u = fem.solve_dirichlet(stiffness, load, {0: 0.0, 1: 0.0})
    r = np.hypot(*annulus.vertices.T)
    exact = -r ** 2 / 4 + (3.0 / (4.0 * LN2)) * np.log(r) + 0.25
    assert np.abs(u - exact).max() < 5e-3


def test_consistent_flux_balance_and_value(annulus, stiffness):
    f = fem.solve_dirichlet(stiffness, np.zeros(annulus.num_vertices),
                            {0: 0.0, 1: 1.0})
    z = np.zeros(annulus.num_vertices)
    fl0 = fem.consistent_flux(stiffness, f, z, 0)
    fl1 = fem.consistent_flux(stiffness, f, z, 1)
    # discrete harmonic balance is exact, not just O(h)
    assert abs(fl0 + fl1) < 1e-12
    assert fl1 > 0
    assert abs(fl0 - (-2 * math.pi / LN2)) < 0.01 * (2 * math.pi / LN2)


def stretched_annulus(sx=1.5):
    """The 8x32 annulus stretched by ``sx`` in x: unequal boundary edges."""
    m = generate_annulus(1.0, 2.0, 8, 32)
    bedges = [(a, b, c.comp) for c in m.components for a, b in c.edges]
    return Mesh(m.vertices * [sx, 1.0], m.triangles, np.array(bedges),
                m.roles())


def test_flux_density_integrates_to_flux():
    # the density is in loop order, so it pairs with loop-order weights
    mesh = stretched_annulus()
    op = fem.StiffnessOperator(mesh)
    z = np.zeros(mesh.num_vertices)
    f = fem.solve_dirichlet(op, z, {0: 0.0, 1: 1.0})
    for comp in (0, 1):
        dens = nodal_flux_density(op, f, z, comp)
        c = mesh.component(comp)
        w = fem.boundary_load_vector(
            mesh, edge_array(mesh, {comp: np.ones(len(c.edges))}))
        total = dens @ w[c.nodes]
        assert abs(total - fem.consistent_flux(op, f, z, comp)) < 1e-10


def test_consistent_fluxes_take_one_residual(annulus, stiffness):
    rng = np.random.default_rng(3)
    load = fem.p0_load_vector(annulus,
                              rng.standard_normal(annulus.num_triangles))
    f = fem.solve_dirichlet(stiffness, load, {0: 0.0, 1: 0.5})
    residual = stiffness.matrix @ f - load
    ref = [residual[annulus.component_nodes(c)].sum() for c in (0, 1)]
    got = fem.consistent_fluxes(stiffness, f, load)
    np.testing.assert_allclose(got, ref, rtol=1e-13,
                               atol=1e-15 * np.abs(residual).max())
    assert fem.consistent_flux(stiffness, f, load, 1) == got[1]


def test_nodal_sums_match_loop_reference(annulus):
    # same summation order as a scatter loop, so equal to the last bit
    rng = np.random.default_rng(4)
    tri, nv = annulus.triangles, annulus.num_vertices
    cell = rng.standard_normal(annulus.num_triangles)
    ref = np.zeros(nv)
    for i in range(3):
        np.add.at(ref, tri[:, i], cell * annulus.tri_area / 3.0)
    np.testing.assert_array_equal(fem.p0_load_vector(annulus, cell), ref)

    vec = rng.standard_normal((annulus.num_triangles, 2))
    num, den = np.zeros((nv, 2)), np.zeros(nv)
    for i in range(3):
        np.add.at(num, tri[:, i], vec * annulus.tri_area[:, None])
        np.add.at(den, tri[:, i], annulus.tri_area)
    np.testing.assert_array_equal(fem.p0_to_p1(annulus, vec),
                                  num / den[:, None])

    q = {c.comp: rng.standard_normal(len(c.edges))
         for c in annulus.components}
    ref = np.zeros(nv)
    for c in annulus.components:
        np.add.at(ref, c.edges[:, 0], 0.5 * q[c.comp] * c.length)
        np.add.at(ref, c.edges[:, 1], 0.5 * q[c.comp] * c.length)
    np.testing.assert_array_equal(
        fem.boundary_load_vector(annulus, edge_array(annulus, q)), ref)


def test_dirichlet_needs_every_component(annulus, stiffness):
    load = np.zeros(annulus.num_vertices)
    with pytest.raises(UsageError, match="every component"):
        fem.solve_dirichlet(stiffness, load, {0: 0.0})


@pytest.mark.parametrize("solve", [
    lambda op, bc: fem.solve_dirichlet(op, np.zeros(op.mesh.num_vertices),
                                       bc),
    lambda op, bc: fem.solve_mixed(op, bc, {})], ids=["dirichlet", "mixed"])
def test_dirichlet_trace_must_be_a_dict(stiffness, solve):
    with pytest.raises(UsageError, match="must be a dict"):
        solve(stiffness, np.zeros(stiffness.mesh.num_vertices))
    with pytest.raises(UsageError, match="empty Dirichlet"):
        solve(stiffness, {})


def test_neumann_radial_source(annulus, stiffness):
    Q = 1.0
    g = {}
    for c in annulus.components:
        sgn = 1.0 if c.comp == 0 else -1.0
        g[c.comp] = np.full(len(c.edges), sgn * Q / c.total_length)
    u = fem.solve_neumann(stiffness, edge_array(annulus, g))
    r = np.hypot(*annulus.vertices.T)
    shape = (Q / (2 * math.pi)) * np.log(r)
    err = (u - u.mean()) - (shape - shape.mean())
    assert np.abs(err).max() < 1e-3
    assert abs(u.mean()) < 1e-10


def test_neumann_incompatible_data_rejected(annulus, stiffness):
    bad = {0: np.ones(len(annulus.component(0).edges)),
           1: np.ones(len(annulus.component(1).edges))}
    with pytest.raises(PreconditionError, match="[Nn]eumann|flux"):
        fem.solve_neumann(stiffness, edge_array(annulus, bad))


def test_mixed_matches_harmonic(annulus, stiffness):
    # normal derivative of -ln(2/r)/ln 2 on the unit circle is -1/ln 2
    g = {1: np.full(len(annulus.component(1).edges), -1.0 / LN2)}
    u = fem.solve_mixed(stiffness, {0: 0.0}, edge_array(annulus, g))
    r = np.hypot(*annulus.vertices.T)
    exact = -np.log(2.0 / r) / LN2
    # data sits on polygon edge midpoints, slightly inside the circle
    assert np.abs(u - exact).max() < 1e-2
    outer = annulus.component(0).nodes
    assert np.abs(u[outer]).max() == 0.0


def test_solve_constrained_free_rows(annulus, stiffness):
    rng = np.random.default_rng(3)
    load = fem.p0_load_vector(annulus, rng.standard_normal(annulus.num_triangles))
    pin = np.array([0, 5, 40])
    vals = np.array([0.3, -0.2, 1.1])
    u = fem.solve_constrained(stiffness, load, pin, vals)
    np.testing.assert_allclose(u[pin], vals, atol=1e-14)
    res = stiffness.matrix @ u - load
    free = np.setdiff1d(np.arange(annulus.num_vertices), pin)
    scale = max(np.abs(load).max(), 1.0)
    assert np.abs(res[free]).max() < 1e-8 * scale


def test_solve_constrained_rejects_a_node_pinned_twice(stiffness):
    # two values for one node are a usage error, not the last one kept
    load = np.zeros(stiffness.mesh.num_vertices)
    with pytest.raises(UsageError, match="node 16 is named more than once"):
        fem.solve_constrained(stiffness, load, [3, 16, 16],
                              [0.0, 0.0, 5.0])


def test_solve_constrained_rejects_a_negative_node(stiffness):
    # -1 must not wrap around to the last vertex
    load = np.zeros(stiffness.mesh.num_vertices)
    with pytest.raises(UsageError, match="pinned node -1 is not a vertex"):
        fem.solve_constrained(stiffness, load, [-1, 3], [1.0, 0.0])


def test_solve_constrained_rejects_a_non_integer_node(stiffness):
    # 16.7 must not be truncated to vertex 16; an integral float is an id
    V = stiffness.mesh.num_vertices
    with pytest.raises(UsageError, match="pinned node 16.7 is not an integ"):
        fem.solve_constrained(stiffness, np.zeros(V), [0, 1, 16.7],
                              [1.0, 1.0, 5.0])
    with pytest.raises(UsageError, match="pinned node nan is not an integ"):
        fem.solve_constrained(stiffness, np.zeros(V), [0.0, np.nan],
                              [1.0, 0.0])
    x = fem.solve_constrained(stiffness, np.zeros(V), [0.0, 1.0, 16.0],
                              [1.0, 1.0, 5.0])
    assert np.array_equal(x, fem.solve_constrained(
        stiffness, np.zeros(V), [0, 1, 16], [1.0, 1.0, 5.0]))


def test_solve_constrained_rejects_a_node_past_the_mesh(stiffness):
    V = stiffness.mesh.num_vertices
    with pytest.raises(UsageError, match=f"pinned node {V} is not a vertex"):
        fem.solve_constrained(stiffness, np.zeros(V), [3, V], [0.0, 1.0])


def test_gradients_exact_for_linear_fields(annulus):
    v = annulus.vertices
    f = 2.0 + 3.0 * v[:, 0] - 1.5 * v[:, 1]
    g = fem.gradient(annulus, f)
    np.testing.assert_allclose(g, np.tile([3.0, -1.5],
                                                 (annulus.num_triangles, 1)),
                               atol=1e-12)
    pg = (annulus.perp_gradient_operator @ f).reshape(-1, 2)
    np.testing.assert_allclose(pg, np.tile([1.5, 3.0],
                                                  (annulus.num_triangles, 1)),
                               atol=1e-12)


def test_gradient_operators_match_einsum_reference(annulus):
    m, tri = annulus, annulus.triangles
    v = m.vertices[tri]
    grads = m.barycentric_gradients
    for i in range(3):
        np.testing.assert_array_equal(
            grads[:, i], fem.rot90(v[:, (i + 2) % 3] - v[:, (i + 1) % 3])
            / (2.0 * m.tri_area)[:, None])
    rng = np.random.default_rng(9)
    f = rng.standard_normal(m.num_vertices)
    ref = np.einsum("tid,ti->td", grads, f[tri])
    tol = 1e-14 * np.abs(ref).max()
    assert np.abs(fem.gradient(m, f) - ref).max() <= tol
    assert np.abs((m.perp_gradient_operator @ f).reshape(-1, 2)
                  - fem.rot90(ref)).max() <= tol
    u = rng.standard_normal((m.num_triangles, 2))
    ref_j = np.einsum("tid,tik->tkd", grads,
                      fem.p0_to_p1(m, u)[tri])
    assert np.abs(fem.velocity_gradient(m, u) - ref_j).max() \
        <= 1e-14 * np.abs(ref_j).max()


def test_rot90_convention():
    np.testing.assert_allclose(fem.rot90(np.array([[1.0, 0.0]])),
                               [[0.0, 1.0]])
    np.testing.assert_allclose(fem.rot90(np.array([[0.0, 1.0]])),
                               [[-1.0, 0.0]])


def test_velocity_gradient_and_convective_term(annulus):
    const = np.tile([1.0, 2.0], (annulus.num_triangles, 1))
    assert np.abs(fem.velocity_gradient(annulus, const)).max() < 1e-12
    J = np.tile(np.array([[3.0, 4.0], [5.0, 6.0]]),
                (annulus.num_triangles, 1, 1))
    conv = fem.convective_term(const, J)
    np.testing.assert_allclose(conv, np.tile([11.0, 17.0],
                                             (annulus.num_triangles, 1)),
                               atol=1e-12)


def test_lp_norms_on_constants(annulus):
    area = annulus.tri_area.sum()
    ones = np.ones(annulus.num_triangles)
    for p in (1.0, 2.0, 3.5):
        assert abs(lp_norm_p0(annulus, ones, p) - area ** (1 / p)) < 1e-12
    assert lp_norm_p0(annulus, 3.0 * ones, np.inf) == 3.0


def test_w1p_seminorm_rotation_field(annulus):
    cen = annulus.centroid
    u = np.stack([cen[:, 1], -cen[:, 0]], axis=1)
    # exact Jacobian [[0,1],[-1,0]] has Frobenius norm sqrt(2)
    exact = math.sqrt(2.0 * annulus.tri_area.sum())
    got = w1p_seminorms_p0(annulus, u, (2.0,))[0]
    assert abs(got - exact) < 0.05 * exact


def test_p0_to_p1_preserves_constants(annulus):
    out = fem.p0_to_p1(annulus, np.full((annulus.num_triangles, 2), 2.5))
    np.testing.assert_allclose(out, 2.5, atol=1e-12)


def _dense_pinned(A, load, pinned, values):
    """Reference: dense elimination of the pinned nodes."""
    x = np.zeros(len(load))
    x[pinned] = values
    free = np.setdiff1d(np.arange(len(load)), pinned)
    x[free] = np.linalg.solve(A[np.ix_(free, free)], (load - A @ x)[free])
    return x


@pytest.mark.parametrize("kind",
                         ["dirichlet", "mixed", "constrained", "neumann"])
def test_direct_solve_matches_dense_reference(annulus, kind):
    op = fem.StiffnessOperator(annulus)
    A = op.matrix.toarray()
    rng = np.random.default_rng(11)
    outer, inner = annulus.component_nodes(0), annulus.component_nodes(1)
    c0, c1 = annulus.component(0), annulus.component(1)
    if kind == "dirichlet":
        load = fem.p0_load_vector(
            annulus, rng.standard_normal(annulus.num_triangles))
        got = fem.solve_dirichlet(op, load, {0: 0.0, 1: 1.0})
        ref = _dense_pinned(A, load, np.concatenate([outer, inner]),
                            np.r_[np.zeros(len(outer)), np.ones(len(inner))])
    elif kind == "mixed":
        q = rng.standard_normal(len(c1.length))
        q = edge_array(annulus, {1: q})
        got = fem.solve_mixed(op, {0: 0.5}, q)
        ref = _dense_pinned(A, fem.boundary_load_vector(annulus, q),
                            outer, np.full(len(outer), 0.5))
    elif kind == "constrained":
        load = rng.standard_normal(annulus.num_vertices)
        vals = rng.standard_normal(len(inner))
        got = fem.solve_constrained(op, load, inner, vals)
        ref = _dense_pinned(A, load, inner, vals)
    else:
        q0 = rng.standard_normal(len(c0.length))
        q1 = rng.standard_normal(len(c1.length))
        q1 -= (q0 @ c0.length + q1 @ c1.length) / c1.total_length
        g = edge_array(annulus, {0: q0, 1: q1})
        got = fem.solve_neumann(op, g)
        load = fem.boundary_load_vector(annulus, g)
        ref = _dense_pinned(A, load - load.mean(), [0], [0.0])
        ref -= ref.mean()
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_repeated_solves_reuse_cached_factors():
    mesh = generate_annulus(1.0, 2.0, 4, 16, roles=("outflow", "inflow"))
    basis = hodge.HarmonicBasis(mesh)
    rng = np.random.default_rng(5)
    for _ in range(3):
        omega = rng.standard_normal(mesh.num_triangles)
        psi0, _ = hodge.greens_operator(basis, omega)
    assert len(basis.op.factors) == 1      # basis and Green: all boundary
    _, free = next(iter(basis.op.factors.values()))
    np.testing.assert_array_equal(
        free, np.setdiff1d(np.arange(mesh.num_vertices), mesh.boundary_nodes))
    zaremba.solve_auxiliary(basis, psi0, omega)
    assert len(basis.op.factors) == 2      # auxiliary: non-inflow pinned


def test_negative_component_id_is_usage_error(stiffness):
    # a negative id must not wrap around to the last component
    with pytest.raises(UsageError, match="no boundary component -1"):
        fem.solve_mixed(stiffness, {-1: 1.0}, {})
    with pytest.raises(UsageError, match="no boundary component -1"):
        fem.solve_dirichlet(stiffness, np.zeros(stiffness.mesh.num_vertices),
                            {0: 0.0, 1: 0.0, -1: 1.0})


def test_singular_system_is_solver_error():
    # two disconnected pairs: pinning one node leaves the other pair free
    pair = np.array([[1.0, -1.0], [-1.0, 1.0]])
    L = sp.csr_matrix(np.kron(np.eye(2), pair))
    with pytest.raises(SolverError, match="singular"):
        fem.solve_mean_zero(L, np.array([1.0, -1.0, 0.0, 0.0]))


def test_asymmetric_system_is_solver_error(annulus, stiffness):
    # every solve reads its factor transposed, which answers A x = b only
    # for a symmetric A: one entry a rounding step off its mirror is
    # refused before a factor is made
    V = annulus.num_vertices
    pinned = annulus.boundary_nodes
    free = np.ones(V, dtype=bool)
    free[pinned] = False
    A = stiffness.matrix.tocoo()
    k = np.flatnonzero((A.row != A.col) & free[A.row] & free[A.col])[0]
    data = A.data.copy()
    data[k] = np.nextafter(data[k], np.inf)
    bad = sp.csr_matrix((data, (A.row, A.col)), shape=A.shape)
    factors = {}
    with pytest.raises(SolverError, match="not symmetric"):
        fem._pinned_solve(bad, np.ones(V), pinned, np.zeros(V), factors)
    assert not factors
    # the same call on the matrix itself solves
    x = fem._pinned_solve(stiffness.matrix, np.ones(V), pinned,
                          np.zeros(V), factors)
    assert len(factors) == 1 and np.isfinite(x).all()


def test_boundary_load_sums_to_length(annulus):
    for comp in (0, 1):
        c = annulus.component(comp)
        bl = fem.boundary_load_vector(
            annulus, edge_array(annulus, {comp: np.ones(len(c.edges))}))
        assert abs(bl.sum() - c.total_length) < 1e-12
        outside = np.setdiff1d(np.arange(annulus.num_vertices), c.nodes)
        assert np.abs(bl[outside]).max() == 0.0


@pytest.mark.parametrize("q", [
    "per_component", "one_loop", "short", "dict"])
def test_boundary_data_must_be_one_edge_array(annulus, q):
    # boundary data is one value per edge of the mesh's edge table; a
    # component's loop, one edge short, or the per-component dict is not
    c = annulus.component(1)
    q = {"per_component": np.ones((2, len(c.length))),
         "one_loop": np.ones(len(c.length)),
         "short": np.ones(len(annulus.edges) - 1),
         "dict": {1: np.ones(len(c.length))}}[q]
    with pytest.raises(UsageError, match="edge values"):
        fem.boundary_load_vector(annulus, q)


def test_mixed_rejects_neumann_data_on_a_dirichlet_component(annulus,
                                                            stiffness):
    q = edge_array(annulus, {1: np.full(len(annulus.component(1).length),
                                        -1.0)})
    with pytest.raises(UsageError, match=r"components \[1\] carry both"):
        fem.solve_mixed(stiffness, {0: 0.0, 1: 1.0}, q)
    # zero data there is no data: the pure Dirichlet solve
    u = fem.solve_mixed(stiffness, {0: 0.0, 1: 1.0}, np.zeros_like(q))
    ref = fem.solve_dirichlet(stiffness, np.zeros(annulus.num_vertices),
                              {0: 0.0, 1: 1.0})
    assert np.array_equal(u, ref)


def test_write_vtk_structure(tmp_path, annulus):
    path = tmp_path / "out.vtk"
    fem.write_vtk(path, annulus,
                  point_data={"stream": np.zeros(annulus.num_vertices)},
                  cell_data={"vorticity": np.ones(annulus.num_triangles)})
    text = path.read_text()
    assert text.startswith("# vtk DataFile")
    assert f"POINTS {annulus.num_vertices}" in text
    assert "stream" in text and "vorticity" in text
    assert f"CELL_DATA {annulus.num_triangles}" in text


def test_block_forms_match_single_column_calls(annulus, stiffness):
    # the boundary residual rows of n fields, stacked as (B, n) columns,
    # give each column's per-loop edge mean of the nodal flux density to
    # the bit, on the annulus and on the two-hole mesh
    from test_two_holes import two_hole_mesh

    rng = np.random.default_rng(7)
    holes = two_hole_mesh()
    for op in (stiffness, fem.StiffnessOperator(holes)):
        mesh = op.mesh
        V = mesh.num_vertices
        fields = rng.standard_normal((V, 5))
        loads = rng.standard_normal((V, 5))
        bn = mesh.boundary_nodes
        rows = np.column_stack([
            fem.boundary_residual(op, fields[:, j], loads[bn, j])
            for j in range(5)])
        for c in mesh.components:
            dens = fem.edge_flux_density(mesh, rows, c.edge_ids)
            for j in range(5):
                dn = nodal_flux_density(op, fields[:, j], loads[:, j],
                                        c.comp)
                assert np.array_equal(dens[:, j],
                                      0.5 * (dn + np.roll(dn, -1)))


@pytest.mark.parametrize("which", ["annulus", "two_holes"])
def test_stiffness_and_cell_graph_laplacian_exactly_symmetric(annulus,
                                                              which):
    # the pure-Neumann solves factor these as symmetric systems
    from test_two_holes import two_hole_mesh

    mesh = annulus if which == "annulus" else two_hole_mesh()
    A = fem.StiffnessOperator(mesh).matrix
    assert (A != A.T).nnz == 0
    D_int = mesh.incidence[:, np.flatnonzero(mesh.interior_edge)].tocsr()
    L = (D_int @ D_int.T).tocsr()
    assert (L != L.T).nnz == 0
    assert L.shape == (mesh.num_triangles, mesh.num_triangles)


def test_norm_jump_is_the_difference_of_the_norms(annulus):
    # the jump of two nearby fields agrees with the difference of their
    # norms to the rounding of the norms, and is odd in its arguments
    rng = np.random.default_rng(5)
    a = rng.standard_normal((annulus.num_triangles, 2))
    b = a + 1e-6 * rng.standard_normal(a.shape)
    jump = fem.sq_norm_jump_p0(annulus, a, b)
    diff = fem.sq_norm_p0(annulus, b) - fem.sq_norm_p0(annulus, a)
    assert jump != 0.0
    assert abs(jump - diff) <= 1e-13 * fem.sq_norm_p0(annulus, a)
    assert fem.sq_norm_jump_p0(annulus, b, a) == -jump
    assert fem.sq_norm_jump_p0(annulus, a, a) == 0.0
