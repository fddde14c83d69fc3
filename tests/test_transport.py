import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from euler_ss import fem, transport
from euler_ss.errors import PreconditionError, UsageError
from euler_ss.fem import VelocityP0
from euler_ss.hodge import HarmonicBasis
from euler_ss.mesh import generate_annulus, save_mesh

from conftest import modulated_band_scenario


def wall_doc(**extra):
    doc = {
        "mesh": {"annulus": {"r0": 1.0, "r1": 2.0, "nr": 4, "ntheta": 16}},
        "omega0": {"type": "constant", "value": 1.0},
        "T": 0.1, "cfl": 0.4, "snapshots": 3,
    }
    doc.update(extra)
    return doc


def flow_doc(**extra):
    doc = wall_doc(**extra)
    doc["mesh"]["annulus"]["roles"] = ["outflow", "inflow"]
    doc.setdefault("g", {0: {"type": "constant", "value": 0.2},
                         1: {"type": "constant", "value": -0.4}})
    doc.setdefault("omega_in", {1: {"type": "constant", "value": 0.5}})
    return doc


# -- parsing and validation --------------------------------------------


def test_unknown_top_level_key_rejected():
    with pytest.raises(UsageError, match="unknown key"):
        transport.parse_scenario(wall_doc(extra_key=1))


def test_missing_required_key_rejected():
    doc = wall_doc()
    del doc["T"]
    with pytest.raises(UsageError, match="T"):
        transport.parse_scenario(doc)


@pytest.mark.parametrize("field,value,match", [
    ("T", 0.0, "T must be positive"),
    ("T", -1.0, "T must be positive"),
    ("cfl", 0.0, "cfl"),
    ("cfl", 1.5, "cfl"),
    ("snapshots", 0, "snapshots"),
    ("snapshots", 2.5, "snapshots"),
    ("scheme", "ab2", "scheme"),
])
def test_scalar_field_validation(field, value, match):
    with pytest.raises(UsageError, match=match):
        transport.parse_scenario(wall_doc(**{field: value}))


def test_g_on_wall_rejected():
    doc = wall_doc(g={0: {"type": "constant", "value": 0.1}})
    with pytest.raises(UsageError, match="wall"):
        transport.parse_scenario(doc)


def test_missing_g_on_flow_component_rejected():
    doc = flow_doc()
    del doc["g"][0]
    with pytest.raises(UsageError, match="no boundary data"):
        transport.parse_scenario(doc)


def test_omega_in_on_non_inflow_rejected():
    doc = flow_doc()
    doc["omega_in"] = {0: {"type": "constant", "value": 0.5}}
    with pytest.raises(UsageError, match="not an inflow"):
        transport.parse_scenario(doc)


def test_missing_omega_in_rejected():
    doc = flow_doc()
    del doc["omega_in"]
    with pytest.raises(UsageError, match="needs trace data"):
        transport.parse_scenario(doc)


def test_c0_on_outer_component_rejected():
    with pytest.raises(UsageError, match="C0"):
        transport.parse_scenario(wall_doc(C0={0: 0.1}))


def test_c0_unknown_component_rejected():
    with pytest.raises(UsageError, match="C0"):
        transport.parse_scenario(wall_doc(C0={7: 0.1}))


def test_omega0_unknown_type_rejected():
    with pytest.raises(UsageError, match="omega0"):
        transport.parse_scenario(wall_doc(omega0={"type": "blob"}))


def test_omega0_file_wrong_count(tmp_path):
    np.savetxt(tmp_path / "w.txt", np.ones(7))
    doc = wall_doc(omega0={"type": "file", "path": "w.txt"})
    sc = transport.parse_scenario(doc, base_dir=tmp_path)
    with pytest.raises(UsageError, match="cell values"):
        sc.initial_omega()


def test_mesh_spec_exactly_one_source():
    doc = wall_doc()
    doc["mesh"] = {"annulus": doc["mesh"]["annulus"], "path": "x.txt"}
    with pytest.raises(UsageError, match="exactly one"):
        transport.parse_scenario(doc)


def test_bad_roles_rejected():
    doc = wall_doc()
    doc["mesh"]["annulus"]["roles"] = ["wall", "lava"]
    with pytest.raises(UsageError, match="roles"):
        transport.parse_scenario(doc)


def test_negative_multiplier_rejected():
    doc = flow_doc(g_multiplier={"type": "tabulated",
                                 "times": [0.0, 1.0], "values": [1.0, -0.5]})
    with pytest.raises(UsageError, match="nonnegative"):
        transport.parse_scenario(doc)


# -- accepted spellings ------------------------------------------------


def test_g_list_form_and_profile_alias():
    doc = flow_doc(g=[{"comp": 0, "profile": "constant", "value": 0.2},
                      {"comp": 1, "type": "constant", "value": -0.4}])
    sc = transport.parse_scenario(doc)
    ge = sc.g_edges()
    assert np.all(ge[0] == 0.2)
    assert np.all(ge[1] == -0.4)


def test_g_duplicate_component_rejected():
    doc = flow_doc(g=[{"comp": 0, "type": "constant", "value": 0.2},
                      {"comp": 0, "type": "constant", "value": 0.3},
                      {"comp": 1, "type": "constant", "value": -0.4}])
    with pytest.raises(UsageError, match="twice"):
        transport.parse_scenario(doc)


def test_mesh_bare_string_path(tmp_path):
    m = generate_annulus(1.0, 2.0, 3, 12)
    save_mesh(m, tmp_path / "disk.txt")
    doc = wall_doc()
    doc["mesh"] = "disk.txt"
    sc = transport.parse_scenario(doc, base_dir=tmp_path)
    assert sc.mesh.num_triangles == m.num_triangles


def test_tabulated_g_is_periodic():
    doc = flow_doc()
    doc["g"][0] = {"type": "tabulated", "s": [0.0, 0.5],
                   "values": [0.1, 0.3]}
    sc = transport.parse_scenario(doc)
    prof = sc.g[0]
    assert prof(0.25) == pytest.approx(0.2)
    # wraps around: s=0.75 interpolates between 0.3 at 0.5 and 0.1 at 1.0
    assert prof(0.75) == pytest.approx(0.2)
    assert prof(1.0) == pytest.approx(prof(0.0))


def test_perturbed_is_additive():
    sc = transport.parse_scenario(flow_doc(C0={1: 0.3}))
    pert = sc.perturbed(C0={1: 0.1})
    assert pert.C0[1] == pytest.approx(0.4)
    assert sc.C0[1] == pytest.approx(0.3)
    assert pert.mesh is sc.mesh
    for bad in (0, 5):
        with pytest.raises(UsageError, match="not an inner"):
            sc.perturbed(C0={bad: 0.1})


def test_perturbed_shifts_omega0_and_omega_in():
    sc = transport.parse_scenario(flow_doc())
    pert = sc.perturbed(omega0=0.1, omega_in={1: -0.2})
    np.testing.assert_array_equal(pert.initial_omega(),
                                  sc.initial_omega() + 0.1)
    assert pert.omega_in_value(1, 0.05) == pytest.approx(0.3)
    assert sc.omega_in_value(1, 0.05) == 0.5
    twice = pert.perturbed(omega0=0.1, omega_in={1: 0.2})
    np.testing.assert_allclose(twice.initial_omega(), 1.2)
    assert twice.omega_in_value(1, 0.0) == pytest.approx(0.5)
    with pytest.raises(UsageError, match="not an inflow"):
        sc.perturbed(omega_in={0: 0.1})


def test_perturbed_then_refined_shifts_the_fine_mesh():
    sc = transport.parse_scenario(flow_doc())
    fine = sc.perturbed(omega0=0.1).refined(2)
    np.testing.assert_array_equal(fine.initial_omega(),
                                  sc.refined(2).initial_omega() + 0.1)


def test_refined_scales_annulus(tmp_path):
    # a generated annulus, and a mesh file refined by midpoints
    save_mesh(generate_annulus(1.0, 2.0, 4, 16), tmp_path / "m.mesh")
    on_file = wall_doc(mesh={"path": "m.mesh"},
                       omega0={"type": "annular_band", "r0": 1.25,
                               "r1": 1.75, "value": 1.0})
    for doc in (wall_doc(), on_file):
        sc = transport.parse_scenario(doc, base_dir=tmp_path)
        fine = sc.refined(2)
        assert fine.mesh.num_triangles == 4 * sc.mesh.num_triangles
        assert fine.T == sc.T
        assert fine.initial_omega().shape == (fine.mesh.num_triangles,)
        with pytest.raises(UsageError, match="power of two"):
            sc.refined(3)


def test_refined_rejects_file_omega0(tmp_path):
    np.savetxt(tmp_path / "w.txt", np.ones(128))
    sc = transport.parse_scenario(
        wall_doc(omega0={"type": "file", "path": "w.txt"}), base_dir=tmp_path)
    with pytest.raises(UsageError, match="per-cell file cannot be refined"):
        sc.refined(2)


def test_scenario_is_immutable():
    sc = transport.parse_scenario(flow_doc())
    with pytest.raises(FrozenInstanceError):
        sc.mesh = None
    # copies share what they do not change
    pert = sc.perturbed(C0={1: 0.1})
    assert pert.mesh is sc.mesh and pert.g is sc.g
    assert pert.C0 is not sc.C0


def test_constant_profile_is_exact():
    sc = transport.parse_scenario(flow_doc())
    s = np.linspace(-3.0, 3.0, 1000)
    for prof, value in ((sc.g[0], 0.2), (sc.g[1], -0.4),
                        (sc.omega_in[1], 0.5), (sc.g_multiplier, 1.0)):
        assert np.all(prof(s) == value)
        assert prof(0.3) == value


# -- discrete structure ------------------------------------------------


def test_flux_assembler_divergence_free(flow_scenario):
    basis = HarmonicBasis(flow_scenario.mesh)
    traj = transport.run(flow_scenario, basis)
    assert traj.flux.div_defect < 1e-13


def test_flux_sums_match_scatter_reference(flow_pair):
    traj, _ = flow_pair
    mesh, flux, s = traj.mesh, traj.flux, traj.states[2]
    mult = s.assembly.multiplier
    f = flux.fluxes(s.assembly)
    for c in mesh.components:
        assert np.array_equal(f[c.edge_ids],
                              mult * traj.flux.g_edges[c.comp] * c.length)
    div, rates = flux.upwind_rates(s.omega, f, {1: 0.8})
    dt = flux.stable_dt(s.assembly.u, f, 1.0)

    L, R, inner = mesh.edge_left, mesh.edge_right, mesh.interior_edge
    comp_of = np.full(len(mesh.edges), -1)
    for c in mesh.components:
        comp_of[c.edge_ids] = c.comp
    up = np.where(f >= 0, s.omega[L],
                  np.where(inner, s.omega[R], np.where(comp_of == 1, 0.8,
                                                       0.0)))
    cf = f * up
    ref_div = np.zeros(mesh.num_triangles)
    np.add.at(ref_div, L, cf)
    np.add.at(ref_div, R[inner], -cf[inner])
    ref_rates = np.zeros(len(mesh.components))
    np.add.at(ref_rates, comp_of[~inner], cf[~inner])
    out = np.zeros(mesh.num_triangles)
    np.add.at(out, L, np.maximum(f, 0.0))
    np.add.at(out, R[inner], np.maximum(-f[inner], 0.0))
    speed = np.linalg.norm(s.assembly.u.values, axis=1)
    ref_dt = min((mesh.incircle_diameter / speed).min(),
                 (mesh.tri_area[out > 0] / out[out > 0]).min())

    tol = 1e-15 * np.abs(cf).max()
    assert np.abs(div - ref_div).max() <= 4 * tol
    assert np.abs(rates - ref_rates).max() <= len(cf) * tol
    assert dt == pytest.approx(ref_dt, rel=1e-14)


def test_stable_dt_matches_norm_formula(flow_pair):
    traj, _ = flow_pair
    mesh, flux = traj.mesh, traj.flux
    for s in traj.states:
        u = s.assembly.u
        f = flux.fluxes(s.assembly)
        speed = np.linalg.norm(u.values, axis=1)
        outflux = 0.5 * (flux.abs_D @ np.abs(f) + flux.D @ f)
        with np.errstate(divide="ignore"):
            adv = np.min(np.where(speed > 0, mesh.incircle_diameter
                                  / np.maximum(speed, 1e-300), np.inf))
            pos = np.min(np.where(outflux > 0, mesh.tri_area
                                  / np.maximum(outflux, 1e-300), np.inf))
        assert flux.stable_dt(u, f, 0.4) == \
            pytest.approx(0.4 * min(adv, pos), rel=1e-14)
    still = VelocityP0(mesh, np.zeros((mesh.num_triangles, 2)))
    assert flux.stable_dt(still, np.zeros(len(mesh.edges)), 0.4) == math.inf


def test_flux_assemblers_share_the_graph_factor(monkeypatch):
    calls = []
    real = fem.spla.splu

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(fem.spla, "splu", counted)
    mesh = generate_annulus(1.0, 2.0, 4, 16, roles=("outflow", "inflow"))
    basis = HarmonicBasis(mesh)
    g = {0: np.full(16, 0.25), 1: np.full(16, -0.5)}
    fem.solve_neumann(basis.op, g)
    solver_calls = len(calls)
    a = transport.FluxAssembler(basis, g)
    g2 = {c: 2.0 * v for c, v in g.items()}
    b = transport.FluxAssembler(basis, g2)
    assert calls[solver_calls:] == [(mesh.num_triangles - 1,) * 2]
    assert len(mesh.cell_graph.factors) == 1
    assert max(a.div_defect, b.div_defect) < 1e-13
    np.testing.assert_allclose(b.pot, 2.0 * a.pot, rtol=1e-12,
                               atol=1e-14 * np.abs(a.pot).max())


def test_snapshots_land_exactly(flow_scenario):
    basis = HarmonicBasis(flow_scenario.mesh)
    traj = transport.run(flow_scenario, basis)
    times = np.array([s.t for s in traj.states])
    expected = np.array([k * flow_scenario.T / flow_scenario.snapshots
                         for k in range(flow_scenario.snapshots + 1)])
    # snapshots land on their targets bit-exactly, no drift accumulation
    assert np.array_equal(times, expected)
    assert traj.total_steps >= flow_scenario.snapshots


def test_constant_state_is_steady():
    sc = transport.parse_scenario(wall_doc(T=0.2, snapshots=4))
    traj = transport.run(sc)
    for s in traj.states:
        assert np.abs(s.omega - 1.0).max() < 1e-12
    assert traj.max_principle_defect < 1e-12
    assert traj.budget_defect < 1e-12


def test_kelvin_consistency(flow_scenario):
    basis = HarmonicBasis(flow_scenario.mesh)
    traj = transport.run(flow_scenario, basis)
    assert transport.kelvin_consistency(traj) < 1e-13


def test_flow_run_defects_small(flow_scenario):
    basis = HarmonicBasis(flow_scenario.mesh)
    traj = transport.run(flow_scenario, basis)
    scale = max(abs(s.omega).max() for s in traj.states)
    assert traj.max_principle_defect <= 1e-12 * max(scale, 1.0)
    assert traj.budget_defect <= 1e-11 * max(scale, 1.0)


def test_max_principle_bounds_range(flow_scenario):
    basis = HarmonicBasis(flow_scenario.mesh)
    traj = transport.run(flow_scenario, basis)
    w0 = traj.states[0].omega
    lo = min(w0.min(), 0.8)     # inflow trace value sits in the hull
    hi = max(w0.max(), 0.8)
    for s in traj.states:
        assert s.omega.min() >= lo - 1e-11
        assert s.omega.max() <= hi + 1e-11


def test_rk2_scheme_runs(tmp_path):
    sc = modulated_band_scenario(tmp_path, scheme="rk2", T=0.2,
                                 snapshots=3)
    traj = transport.run(sc)
    assert traj.states[-1].t == pytest.approx(0.2)
    assert np.isfinite(traj.states[-1].omega).all()
    assert traj.max_principle_defect < 1e-10


def test_circulation_evolution_kelvin_closed_form():
    # uniform radial flow, constant unit vorticity: the outer circulation
    # drops at exactly the polygonal flux rate
    ntheta = 24
    Q = 1.0
    doc = {
        "mesh": {"annulus": {"r0": 1.0, "r1": 2.0, "nr": 6,
                             "ntheta": ntheta,
                             "roles": ["outflow", "inflow"]}},
        "omega0": {"type": "constant", "value": 1.0},
        "T": 0.5, "cfl": 0.4, "snapshots": 5,
        "g": {0: {"type": "constant", "value": Q / (2 * math.pi * 2.0)},
              1: {"type": "constant", "value": -Q / (2 * math.pi * 1.0)}},
        "omega_in": {1: {"type": "constant", "value": 1.0}},
        "C0": {1: 0.3},
    }
    sc = transport.parse_scenario(doc)
    traj = transport.run(sc)
    # vorticity advects inward across the inner circle at the polygonal
    # rate w * Q * ntheta sin(pi/ntheta) / pi
    rate = Q * ntheta * math.sin(math.pi / ntheta) / math.pi
    C1_t = np.array([s.C[0] for s in traj.states])
    t = np.array([s.t for s in traj.states])
    np.testing.assert_allclose(C1_t, C1_t[0] + rate * t, atol=1e-10)


def test_weak_residual_exact_for_constant_test_function(flow_pair):
    base, _ = flow_pair
    from euler_ss import fem
    phi = fem.ScalarFieldP1(base.mesh, np.ones(base.mesh.num_vertices))
    rep = transport.weak_residual(base, phi)
    # conservation against phi == 1 is the per-step accumulator identity
    assert rep["exact_boundary"]
    assert rep["residual"] < 1e-12
    assert abs(rep["jump"] + rep["boundary"]) < 1e-12


def test_weak_residual_consistent_for_smooth_test_function(flow_pair):
    base, _ = flow_pair
    m = base.mesh
    from euler_ss import fem
    r = np.hypot(*m.vertices.T)
    phi = fem.ScalarFieldP1(m, np.sin(math.pi * (r - 1.0)) ** 2)
    rep = transport.weak_residual(base, phi)
    # upwind diffusion leaves an O(h) defect; terms must still mostly cancel
    scale = max(abs(rep["volume"]), abs(rep["jump"]))
    assert rep["residual"] <= 0.5 * scale


def test_trajectory_csv_deterministic(tmp_path, flow_scenario):
    basis = HarmonicBasis(flow_scenario.mesh)
    t1 = transport.run(flow_scenario, basis)
    t2 = transport.run(flow_scenario, basis)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    transport.write_trajectory_csv(t1, p1)
    transport.write_trajectory_csv(t2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert "t" in header and "energy" in header
