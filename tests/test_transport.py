import gc
import json
import math
import weakref
from dataclasses import FrozenInstanceError, fields
from types import SimpleNamespace

import numpy as np
import pytest

from euler_ss import fem, transport
from euler_ss.certificates import TwinRun
from euler_ss.errors import PreconditionError, SolverError, UsageError
from euler_ss.hodge import HarmonicBasis
from euler_ss.mesh import generate_annulus, save_mesh

from conftest import modulated_band_scenario
from test_two_holes import flow_doc as two_hole_doc
from test_two_holes import flow_scenario as two_hole_scenario
from test_two_holes import two_hole_mesh
from oracles import edge_array, weak_residual


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
    with pytest.raises(UsageError, match="cell values"):
        transport.parse_scenario(doc, base_dir=tmp_path)


def test_omega0_file_non_finite_is_usage_error(tmp_path):
    # malformed like a non-finite constant omega0: exit 2, naming the cell
    vals = np.ones(128)
    vals[5] = np.nan
    np.savetxt(tmp_path / "w.txt", vals)
    doc = wall_doc(omega0={"type": "file", "path": "w.txt"})
    with pytest.raises(UsageError, match="non-finite value in cell 5"):
        transport.parse_scenario(doc, base_dir=tmp_path)


def test_omega0_band_needs_r0_at_most_r1():
    band = {"type": "annular_band", "r0": 1.75, "r1": 1.25, "value": 1.0}
    with pytest.raises(UsageError, match="r0 <= r1"):
        transport.parse_scenario(wall_doc(omega0=band))
    # an empty band of one radius is valid
    sc = transport.parse_scenario(wall_doc(omega0={**band, "r1": 1.75}))
    assert sc.omega0.band == (1.75, 1.75, 1.0)


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


def test_g_list_form():
    doc = flow_doc(g=[{"comp": 0, "type": "constant", "value": 0.2},
                      {"comp": 1, "type": "constant", "value": -0.4}])
    sc = transport.parse_scenario(doc)
    ge = sc.g_edges()
    assert np.all(ge[sc.mesh.component(0).edge_ids] == 0.2)
    assert np.all(ge[sc.mesh.component(1).edge_ids] == -0.4)


@pytest.mark.parametrize("form", ["dict", "list"])
def test_g_edges_is_one_array_over_the_edge_table(tmp_path, form):
    # zero on interior and wall edges; on each flow component's edge ids,
    # in loop order, its profile at the edge midpoints
    doc = two_hole_doc(tmp_path, two_hole_mesh())
    doc["g"][0] = {"type": "tabulated", "s": [0.0, 0.5],
                   "values": [0.4, 0.6]}
    if form == "list":
        doc["g"] = [{"comp": cid, **spec}
                    for cid, spec in reversed(doc["g"].items())]
    sc = transport.parse_scenario(doc, base_dir=tmp_path)
    mesh = sc.mesh
    ge = sc.g_edges()
    assert ge.shape == (len(mesh.edges),) and ge.dtype == np.float64
    assert np.all(ge[mesh.interior_edge] == 0.0)
    for c in mesh.components:
        if c.role == "wall":
            assert np.all(ge[c.edge_ids] == 0.0)
            continue
        s = (np.cumsum(c.length) - 0.5 * c.length) / c.total_length
        assert np.array_equal(ge[c.edge_ids], sc.g[c.comp](s))
    assert np.ptp(ge[mesh.component(0).edge_ids]) > 0.1


def test_g_duplicate_component_rejected():
    doc = flow_doc(g=[{"comp": 0, "type": "constant", "value": 0.2},
                      {"comp": 0, "type": "constant", "value": 0.3},
                      {"comp": 1, "type": "constant", "value": -0.4}])
    with pytest.raises(UsageError, match="twice"):
        transport.parse_scenario(doc)


@pytest.mark.parametrize("key, entries", [
    ("g", {"0": {"type": "constant", "value": 0.2},
           "1": {"type": "constant", "value": -0.4},
           "+1": {"type": "constant", "value": -0.3}}),
    ("omega_in", {"1": {"type": "constant", "value": 0.5},
                  "+1": {"type": "constant", "value": 0.6}}),
    ("C0", {"1": 0.3, "01": 0.7})], ids=["g", "omega_in", "C0"])
def test_component_named_twice_rejected(key, entries):
    # two spellings of one id would silently keep the second value
    with pytest.raises(UsageError,
                       match=f"^{key}: component 1 given twice$"):
        transport.parse_scenario(flow_doc(**{key: entries}))


@pytest.mark.parametrize("text, key", [
    ('"omega0": {"type": "constant", "value": 1.0}, "T": 0.1, "T": 50.0',
     "'T'"),
    ('"omega0": {"type": "constant", "value": 1.0, "value": 2.0}, "T": 0.1',
     "'value'")], ids=["top_level", "nested"])
def test_json_key_given_twice_rejected(tmp_path, text, key):
    # json.loads would keep the last value of a repeated key
    path = tmp_path / "dup.json"
    path.write_text('{"mesh": {"annulus": {"r0": 1.0, "r1": 2.0, "nr": 4, '
                    '"ntheta": 16}}, "cfl": 0.4, "snapshots": 3, '
                    + text + "}")
    with pytest.raises(UsageError, match=f"{path}: key {key} given twice"):
        transport.load_scenario(path)
    path.write_text(json.dumps(wall_doc()))
    assert transport.load_scenario(path).T == 0.1


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
    assert pert.inflow_trace(0.05)[1] == pytest.approx(0.3)
    assert sc.inflow_trace(0.05)[1] == 0.5
    twice = pert.perturbed(omega0=0.1, omega_in={1: 0.2})
    np.testing.assert_allclose(twice.initial_omega(), 1.2)
    assert twice.inflow_trace(0.0)[1] == pytest.approx(0.5)
    with pytest.raises(UsageError, match="not an inflow"):
        sc.perturbed(omega_in={0: 0.1})


def test_perturbed_scenario_holds_its_values(tmp_path):
    # a perturbed copy keeps no shift for its readers to add: its omega0
    # and omega_in hold the shifted values
    assert not [f.name for f in fields(transport.Scenario)
                if "shift" in f.name]
    doc = flow_doc(omega_in={1: {"type": "tabulated", "times": [0.0, 1.0],
                                 "values": [0.5, 1.5]}})
    sc = transport.parse_scenario(doc)
    prof = sc.perturbed(omega_in={1: 0.25}).omega_in[1]
    assert np.array_equal(prof.x, sc.omega_in[1].x)
    assert np.array_equal(prof.y, [0.75, 1.75])
    assert prof(0.5) == pytest.approx(1.25)
    band = transport.parse_scenario(wall_doc(
        omega0={"type": "annular_band", "r0": 1.25, "r1": 1.75,
                "value": 1.0, "background": -1.0})).perturbed(omega0=0.5)
    assert band.omega0.background == -0.5 and band.omega0.band[2] == 1.5
    # file cells stay read-only; initial_omega is a fresh, writable copy
    np.savetxt(tmp_path / "w.txt", np.arange(128.0))
    on_file = transport.parse_scenario(
        wall_doc(omega0={"type": "file", "path": "w.txt"}),
        base_dir=tmp_path).perturbed(omega0=0.5)
    assert not on_file.omega0.cells.flags.writeable
    w = on_file.initial_omega()
    assert w.flags.writeable
    assert not np.shares_memory(w, on_file.omega0.cells)
    assert np.array_equal(w, np.arange(128.0) + 0.5)


@pytest.mark.parametrize("omega0", [
    {"type": "constant", "value": 1e308},
    {"type": "annular_band", "r0": 1.25, "r1": 1.75, "value": 1e308},
    {"type": "file", "path": "w.txt"}])
def test_overflowing_omega0_shift_stops_before_any_step(tmp_path, omega0):
    # the shifted value is inf: the run's finiteness check stops it
    np.savetxt(tmp_path / "w.txt", np.full(128, 1e308))
    sc = transport.parse_scenario(wall_doc(omega0=omega0), base_dir=tmp_path)
    with pytest.raises(PreconditionError, match="non-finite"):
        transport.run(sc.perturbed(omega0=1.7e308))


def test_overflowing_omega_in_shift_stops_before_any_step(monkeypatch):
    # the shifted samples are inf, not a numpy warning; the run's
    # finiteness check stops it before the first flux is formed
    sc = transport.parse_scenario(flow_doc(
        omega_in={1: {"type": "constant", "value": 1e308}}))
    shifted = sc.perturbed(omega_in={1: 1.7e308})
    assert np.isinf(shifted.omega_in[1].y).all()

    def no_step(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(transport.FluxAssembler, "upwind_rates", no_step)
    with pytest.raises(PreconditionError, match="entering vorticity"):
        transport.run(shifted)


def test_inflow_trace_is_one_array_of_components():
    # zero off the inflow component, one row per time of an array, and
    # each row the trace at that one time
    doc = flow_doc(omega_in={1: {"type": "tabulated", "times": [0.0, 1.0],
                                 "values": [0.5, 1.5]}})
    sc = transport.parse_scenario(doc).perturbed(omega_in={1: 0.25})
    assert sc.inflow_trace(0.5).shape == (2,)
    times = np.array([0.0, 0.25, 0.5])
    trace = sc.inflow_trace(times)
    assert trace.shape == (3, 2)
    np.testing.assert_array_equal(trace[:, 0], 0.0)
    np.testing.assert_allclose(trace[:, 1], [0.75, 1.0, 1.25])
    for t, row in zip(times, trace):
        assert np.array_equal(sc.inflow_trace(t), row)
    wall = transport.parse_scenario(wall_doc())
    assert np.array_equal(wall.inflow_trace(times), np.zeros((3, 2)))


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
    mesh, flux, omega = traj.mesh, traj.flux, traj.omega[2]
    mult = traj.multiplier[2]
    f = flux.fluxes(mesh.edge_jump_operator @ traj.psi[2], mult)
    for c in mesh.components:
        assert np.array_equal(f[c.edge_ids],
                              mult * traj.flux.g_edges[c.edge_ids] * c.length)
    div, rates = flux.upwind_rates(omega, f, np.array([0.0, 0.8]))
    dt = flux.stable_dt(traj.velocity(2), f, 1.0)

    L, R, inner = mesh.edge_left, mesh.edge_right, mesh.interior_edge
    comp_of = np.full(len(mesh.edges), -1)
    for c in mesh.components:
        comp_of[c.edge_ids] = c.comp
    up = np.where(f >= 0, omega[L],
                  np.where(inner, omega[R], np.where(comp_of == 1, 0.8,
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
    speed = np.linalg.norm(traj.velocity(2), axis=1)
    ref_dt = min((mesh.incircle_diameter / speed).min(),
                 (mesh.tri_area[out > 0] / out[out > 0]).min())

    tol = 1e-15 * np.abs(cf).max()
    assert np.abs(div - ref_div).max() <= 4 * tol
    assert np.abs(rates - ref_rates).max() <= len(cf) * tol
    assert dt == pytest.approx(ref_dt, rel=1e-14)


def test_stable_dt_matches_norm_formula(flow_pair):
    traj, _ = flow_pair
    mesh, flux = traj.mesh, traj.flux
    for k in range(len(traj.times)):
        u = traj.velocity(k)
        f = flux.fluxes(mesh.edge_jump_operator @ traj.psi[k],
                        traj.multiplier[k])
        speed = np.linalg.norm(u, axis=1)
        outflux = 0.5 * (flux.abs_D @ np.abs(f) + flux.D @ f)
        with np.errstate(divide="ignore"):
            adv = np.min(np.where(speed > 0, mesh.incircle_diameter
                                  / np.maximum(speed, 1e-300), np.inf))
            pos = np.min(np.where(outflux > 0, mesh.tri_area
                                  / np.maximum(outflux, 1e-300), np.inf))
        assert flux.stable_dt(u, f, 0.4) == \
            pytest.approx(0.4 * min(adv, pos), rel=1e-14)
    still = np.zeros((mesh.num_triangles, 2))
    assert flux.stable_dt(still, np.zeros(len(mesh.edges)), 0.4) == math.inf


def test_stable_dt_rejects_a_nan_velocity(flow_pair):
    # max(nan, x) is nan, which compares neither equal to inf nor above 0:
    # it must not read as a flow in which nothing moves
    traj, _ = flow_pair
    u = traj.velocity(0).copy()
    u[3, 1] = np.nan
    f = traj.flux.fluxes(traj.mesh.edge_jump_operator @ traj.psi[0],
                         traj.multiplier[0])
    with pytest.raises(SolverError, match="velocity overflow"):
        traj.flux.stable_dt(u, f, 0.4)


def test_flow_setup_factors_single_use_systems_once_per_g(monkeypatch):
    calls = []
    real = fem.spla.splu

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(fem.spla, "splu", counted)
    mesh = generate_annulus(1.0, 2.0, 4, 16, roles=("outflow", "inflow"))
    basis = HarmonicBasis(mesh)
    g = edge_array(mesh, {0: np.full(16, 0.25), 1: np.full(16, -0.5)})
    a = transport.flow_setup(basis, g)
    setup_calls = len(calls)
    # the cached assembler of a g is reused: no second factorization
    assert transport.flow_setup(basis, g.copy()) is a
    assert len(calls) == setup_calls
    # a new g factors its Neumann and cell-graph systems once each
    b = transport.flow_setup(basis, 2.0 * g)
    assert calls[setup_calls:] == [(mesh.num_vertices - 1,) * 2,
                                   (mesh.num_triangles - 1,) * 2]
    assert max(a.div_defect, b.div_defect) < 1e-13
    np.testing.assert_allclose(b.pot, 2.0 * a.pot, rtol=1e-12,
                               atol=1e-14 * np.abs(a.pot).max())


class WeakFactor:
    """A SuperLU factor behind a Python object that takes weak references
    (SuperLU objects do not)."""

    def __init__(self, lu):
        self.lu = lu

    def solve(self, rhs, **kwargs):
        return self.lu.solve(rhs, **kwargs)


def through_flow_scenario(kind, tmp_path):
    if kind == "annulus":
        return transport.parse_scenario(flow_doc())
    return two_hole_scenario(tmp_path, two_hole_mesh())


@pytest.mark.parametrize("kind", ["annulus", "two_holes"])
def test_single_use_factors_are_released(kind, tmp_path, monkeypatch):
    factors = []
    real = fem.spla.splu

    def weak(*args, **kwargs):
        lu = WeakFactor(real(*args, **kwargs))
        factors.append((args[0].shape[0], weakref.ref(lu)))
        return lu

    monkeypatch.setattr(fem.spla, "splu", weak)
    sc = through_flow_scenario(kind, tmp_path)
    mesh = sc.mesh
    basis = HarmonicBasis(mesh)
    transport.flow_setup(basis, sc.g_edges())
    gc.collect()
    interior = mesh.num_vertices - len(mesh.boundary_nodes)
    # Green (all boundary pinned), Neumann, cell graph
    assert [(n, ref() is not None) for n, ref in factors] == \
        [(interior, True), (mesh.num_vertices - 1, False),
         (mesh.num_triangles - 1, False)]
    assert list(basis.op.factors) == [mesh.boundary_nodes.tobytes()]
    # a twin's runs reuse the through-flow and add the auxiliary set
    TwinRun(transport.run(sc, basis),
            transport.run(sc.perturbed(C0={1: 0.1}), basis))
    gc.collect()
    green, neumann, graph, aux = [ref() for _, ref in factors]
    assert neumann is None and graph is None
    assert [lu for lu, _ in basis.op.factors.values()] == [green, aux]


@pytest.mark.parametrize("kind", ["annulus", "two_holes"])
def test_every_factored_system_is_exactly_symmetric(kind, tmp_path,
                                                    monkeypatch):
    # every pinned solve reads its factor transposed, which answers
    # A x = b because each reduced matrix equals its transpose
    factored = []
    real = fem.spla.splu

    def recorded(*args, **kwargs):
        factored.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(fem.spla, "splu", recorded)
    sc = through_flow_scenario(kind, tmp_path)
    mesh = sc.mesh
    basis = HarmonicBasis(mesh)
    TwinRun(transport.run(sc, basis),
            transport.run(sc.perturbed(C0={1: 0.1}), basis))
    pinned_aux = mesh.nodes_of(
        [c.comp for c in mesh.components if c.role != "inflow"])
    # Green (all boundary pinned), Neumann, cell graph, auxiliary
    V = mesh.num_vertices
    assert [R.shape for R in factored] == [
        (n, n) for n in (V - len(mesh.boundary_nodes), V - 1,
                         mesh.num_triangles - 1, V - len(pinned_aux))]
    for R in factored:
        assert (R != R.T).nnz == 0


def cached_solve_mean_zero(A, load, factors):
    """``fem.solve_mean_zero`` as it was with a kept factor cache."""
    x = fem._pinned_solve(A, load - load.mean(), np.zeros(1, dtype=np.int64),
                          np.zeros(A.shape[0]), factors)
    return x - x.mean()


def cached_graph_through_flow(basis, g_edges):
    """``FluxAssembler``'s phi, phi_grad, pot and div_defect as built with
    the Neumann factor cached on the operator and the cell graph, with its
    factor cache, cached on the mesh (``Mesh.cell_graph``)."""
    mesh, op = basis.mesh, basis.op
    phi = cached_solve_mean_zero(
        op.matrix, fem.boundary_load_vector(mesh, g_edges), op.factors)
    gv = fem.gradient(mesh, phi)
    interior = np.flatnonzero(mesh.interior_edge)
    D_int = mesh.incidence[:, interior].tocsr()
    graph = SimpleNamespace(interior=interior, incidence=D_int,
                            laplacian=(D_int @ D_int.T).tocsr(), factors={})
    pot = np.zeros(len(mesh.edges))
    for c in mesh.components:
        pot[c.edge_ids] = g_edges[c.edge_ids] * c.length
    ids = graph.interior
    n = mesh.edge_normal[ids]
    ln = mesh.edge_length[ids]
    pot[ids] = 0.5 * np.einsum(
        "ed,ed->e", gv[mesh.edge_left[ids]] + gv[mesh.edge_right[ids]],
        n) * ln
    y = cached_solve_mean_zero(graph.laplacian, -(mesh.incidence @ pot),
                               graph.factors)
    pot[ids] += graph.incidence.T @ y
    return phi, gv, pot, float(np.abs(mesh.incidence @ pot).max())


@pytest.mark.parametrize("kind", ["annulus", "two_holes"])
def test_released_factors_keep_the_through_flow_bits(kind, tmp_path):
    sc = through_flow_scenario(kind, tmp_path)
    basis = HarmonicBasis(sc.mesh)
    flux = transport.FluxAssembler(basis, sc.g_edges())
    phi, phi_grad, pot, div_defect = cached_graph_through_flow(
        HarmonicBasis(sc.mesh), sc.g_edges())
    assert np.array_equal(flux.phi, phi)
    assert np.array_equal(flux.phi_grad, phi_grad)
    assert np.array_equal(flux.pot, pot)
    assert flux.div_defect == div_defect


def test_snapshots_land_exactly(flow_scenario):
    basis = HarmonicBasis(flow_scenario.mesh)
    traj = transport.run(flow_scenario, basis)
    times = traj.times
    expected = np.array([k * flow_scenario.T / flow_scenario.snapshots
                         for k in range(flow_scenario.snapshots + 1)])
    # snapshots land on their targets bit-exactly, no drift accumulation
    assert np.array_equal(times, expected)
    assert traj.total_steps >= flow_scenario.snapshots


def test_constant_state_is_steady():
    sc = transport.parse_scenario(wall_doc(T=0.2, snapshots=4))
    traj = transport.run(sc)
    for omega in traj.omega:
        assert np.abs(omega - 1.0).max() < 1e-12
    assert traj.max_principle_defect < 1e-12
    assert traj.budget_defect < 1e-12


def test_kelvin_consistency(flow_scenario):
    basis = HarmonicBasis(flow_scenario.mesh)
    traj = transport.run(flow_scenario, basis)
    assert transport.kelvin_consistency(traj) < 1e-13


def test_flow_run_defects_small(flow_scenario):
    basis = HarmonicBasis(flow_scenario.mesh)
    traj = transport.run(flow_scenario, basis)
    scale = np.abs(traj.omega).max()
    assert traj.max_principle_defect <= 1e-12 * max(scale, 1.0)
    assert traj.budget_defect <= 1e-11 * max(scale, 1.0)


def test_max_principle_bounds_range(flow_scenario):
    basis = HarmonicBasis(flow_scenario.mesh)
    traj = transport.run(flow_scenario, basis)
    w0 = traj.omega[0]
    lo = min(w0.min(), 0.8)     # inflow trace value sits in the hull
    hi = max(w0.max(), 0.8)
    for omega in traj.omega:
        assert omega.min() >= lo - 1e-11
        assert omega.max() <= hi + 1e-11


def test_rk2_scheme_runs(tmp_path):
    sc = modulated_band_scenario(tmp_path, scheme="rk2", T=0.2,
                                 snapshots=3)
    traj = transport.run(sc)
    assert traj.times[-1] == pytest.approx(0.2)
    assert np.isfinite(traj.omega[-1]).all()
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
    C1_t = traj.C[:, 0]
    t = traj.times
    np.testing.assert_allclose(C1_t, C1_t[0] + rate * t, atol=1e-10)


def test_entering_front_converges_to_the_exact_jump():
    # unit vorticity enters an empty annulus through the inner circle; the
    # exact solution is 1 inside the front r_f^2 = 1 + s Q t / pi and 0
    # beyond, with inner circulation s Q t (s: the polygon's flux factor)
    Q, T = 1.0, 3.0
    errs = []
    for nr in (8, 16, 32):
        ntheta = 4 * nr
        sc = transport.parse_scenario({
            "mesh": {"annulus": {"r0": 1.0, "r1": 2.0, "nr": nr,
                                 "ntheta": ntheta,
                                 "roles": ["outflow", "inflow"]}},
            "omega0": {"type": "constant", "value": 0.0},
            "g": {0: {"type": "constant", "value": Q / (4 * math.pi)},
                  1: {"type": "constant", "value": -Q / (2 * math.pi)}},
            "omega_in": {1: {"type": "constant", "value": 1.0}},
            "C0": {1: 0.0}, "T": T, "cfl": 0.4, "snapshots": 3})
        traj = transport.run(sc)
        m = sc.mesh
        s = ntheta * math.sin(math.pi / ntheta) / math.pi
        exact = (m.centroid ** 2).sum(axis=1) < 1.0 + s * Q * T / math.pi
        errs.append(float(m.tri_area @ np.abs(traj.omega[-1] - exact)))
        C_err = np.abs(traj.C[:, 0] - s * Q * traj.times).max()
        assert C_err <= 1e-14 * s * Q * T
        assert traj.max_principle_defect <= 1e-12
        assert traj.budget_defect <= 1e-13
    # a monotone scheme converges at h^(1/2) in L1 at a jump: 0.508 and
    # 0.508 measured
    rates = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(rates) >= 0.45, (errs, rates)


def test_weak_residual_exact_for_constant_test_function(flow_pair):
    base, _ = flow_pair
    from euler_ss import fem
    phi = np.ones(base.mesh.num_vertices)
    rep = weak_residual(base, phi)
    # conservation against phi == 1 is the per-step accumulator identity
    assert rep["exact_boundary"]
    assert rep["residual"] < 1e-12
    assert abs(rep["jump"] + rep["boundary"]) < 1e-12


def test_weak_residual_consistent_for_smooth_test_function(flow_pair):
    base, _ = flow_pair
    m = base.mesh
    from euler_ss import fem
    r = np.hypot(*m.vertices.T)
    phi = np.sin(math.pi * (r - 1.0)) ** 2
    rep = weak_residual(base, phi)
    # upwind diffusion leaves an O(h) defect; terms must still mostly cancel
    scale = max(abs(rep["volume"]), abs(rep["jump"]))
    assert rep["residual"] <= 0.5 * scale


@pytest.mark.parametrize("window", [(3, 1), (-2, None), (0, 99)])
def test_weak_residual_windows_are_validated(flow_pair, window):
    # reversed, a negative start, an end past the last snapshot
    base, _ = flow_pair
    phi = np.ones(base.mesh.num_vertices)
    with pytest.raises(UsageError, match="snapshot window"):
        weak_residual(base, phi, *window)


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
