import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from euler_ss import fem, transport
from euler_ss.certificates import (P_GRID, TwinRun, lamb_check,
                                   lamb_identity)
from euler_ss.errors import PreconditionError, UsageError
from euler_ss.hodge import HarmonicBasis
from euler_ss.mesh import generate_annulus
from euler_ss.osgood import stability_experiment

from conftest import modulated_band_scenario
from oracles import interpolation_inequality, trace_inequality

LN2 = math.log(2.0)


# -- twin construction rules -------------------------------------------


def test_twin_requires_shared_mesh(flow_pair, tmp_path):
    base, _ = flow_pair
    other = modulated_band_scenario(tmp_path)
    t2 = transport.run(other, HarmonicBasis(other.mesh))
    with pytest.raises(UsageError, match="mesh"):
        TwinRun(base, t2)


def test_twin_requires_shared_basis(flow_scenario):
    t1 = transport.run(flow_scenario, HarmonicBasis(flow_scenario.mesh))
    t2 = transport.run(flow_scenario, HarmonicBasis(flow_scenario.mesh))
    with pytest.raises(UsageError, match="basis"):
        TwinRun(t1, t2)


def test_twin_requires_equal_snapshot_count(flow_pair, flow_scenario,
                                            tmp_path):
    base, _ = flow_pair
    short = replace(modulated_band_scenario(tmp_path, snapshots=3),
                    mesh=flow_scenario.mesh)
    t2 = transport.run(short, base.basis)
    with pytest.raises(UsageError, match="snapshot"):
        TwinRun(base, t2)


def test_twin_requires_equal_g(flow_pair, flow_scenario, tmp_path):
    base, _ = flow_pair
    other = modulated_band_scenario(
        tmp_path, g={0: {"type": "constant", "value": 0.26},
                     1: {"type": "constant", "value": -0.52}})
    other = replace(other, mesh=flow_scenario.mesh)
    t2 = transport.run(other, base.basis)
    with pytest.raises(UsageError, match="boundary data"):
        TwinRun(base, t2)


# -- identical twins ----------------------------------------------------


def test_identical_twin_is_exactly_null(flow_scenario):
    basis = HarmonicBasis(flow_scenario.mesh)
    t1 = transport.run(flow_scenario, basis)
    t2 = transport.run(flow_scenario, basis)
    twin = TwinRun(t1, t2)
    assert np.all(twin.z_u == 0.0)
    assert np.all(twin.z_v == 0.0)
    assert abs(twin.energy_identity()["residual"]) < 1e-300
    d = twin.psi_prime_diagnostic()
    assert d["satisfied"]
    assert d["lhs_max"] == 0.0


# -- genuine difference states ------------------------------------------


def test_energy_identity_small_on_twin(flow_twin):
    rep = flow_twin.energy_identity()
    assert rep["relative"] < 0.02
    assert {"kinetic_jump", "boundary", "convective"} <= set(rep)


def test_aux_identity_small_on_twin(flow_twin):
    rep = flow_twin.aux_identity()
    assert rep["relative"] < 0.05


def test_identity_residuals_refine_at_first_order(flow_twin, tmp_path):
    fine_sc = modulated_band_scenario(tmp_path, nr=12, ntheta=48)
    basis = HarmonicBasis(fine_sc.mesh)
    t1 = transport.run(fine_sc, basis)
    t2 = transport.run(fine_sc.perturbed(C0={1: 0.1}), basis)
    fine = TwinRun(t1, t2)
    for name in ("energy_identity", "aux_identity"):
        coarse_res = getattr(flow_twin, name)()["relative"]
        fine_res = getattr(fine, name)()["relative"]
        rate = math.log2(coarse_res / fine_res)
        assert rate > 0.9, (name, coarse_res, fine_res)


def test_psi_prime_bound_holds(flow_twin):
    rep = flow_twin.psi_prime_diagnostic()
    assert rep["satisfied"]
    assert rep["lhs_max"] > 0.0
    assert rep["max_ratio"] <= 1.0 + 1e-9


def test_inequality_ledger_structure(flow_twin):
    led = flow_twin.inequality_ledger()
    n_int = len(flow_twin.times) - 1
    assert len(led["rows"]) == n_int * len(P_GRID)
    assert [r["p"] for r in led["rows"][:len(P_GRID)]] == list(P_GRID)
    assert led["flags"] == []
    for fam in ("energy", "aux"):
        c = led["C_hat"][fam]
        assert np.isfinite(c) and c >= 0.0
    row = led["rows"][0]
    assert {"interval", "p", "lhs_energy", "rhs_energy",
            "lhs_aux", "rhs_aux"} <= set(row)


def test_data_term_is_the_squared_shift(flow_scenario, flow_pair):
    # on the 6x24 flow annulus, shifting C0 of the inflow hole keeps the
    # circulation difference: the data term is len(comps) delta^2 on
    # every interval
    base, pert = flow_pair
    tw = TwinRun(base, pert)
    assert tw.data2.shape == (len(tw.times) - 1,)
    assert np.abs(tw.data2 - 0.1 ** 2).max() <= 1e-12 * 0.1 ** 2
    # an omega_in shift adds delta^2 to the larger end value of |C_d|^2,
    # which grows as the shifted vorticity enters through the hole
    inflow = TwinRun(base, transport.run(
        flow_scenario.perturbed(omega_in={1: 0.05}), base.basis))
    c2 = (inflow.C_d ** 2).sum(axis=1)
    assert c2[0] == 0.0 and np.all(np.diff(c2) > 0.0)
    want = c2[1:] + 0.05 ** 2
    assert np.abs(inflow.data2 - want).max() <= 1e-12 * want.max()


def test_ledger_reads_the_twin_data_term(flow_pair):
    # the aux rows add data2 dt to what the norms give
    tw = TwinRun(*flow_pair)
    rows = tw.inequality_ledger()["rows"]
    data2, tw.data2 = tw.data2, np.zeros_like(tw.data2)
    bare = tw.inequality_ledger()["rows"]
    dt = np.diff(tw.times)
    for row, row0 in zip(rows, bare):
        k = row["interval"]
        added = row["rhs_aux"] - row0["rhs_aux"]
        assert added == pytest.approx(data2[k] * dt[k], rel=1e-12)
        assert row["rhs_energy"] == row0["rhs_energy"]


def test_integrands_take_one_velocity_gradient_per_block(flow_pair,
                                                         monkeypatch):
    # both identities, each read twice, and the ledger share one
    # integrands pass over the run, its one block of snapshots: one
    # velocity gradient per snapshot, none for the twin alone
    calls = []
    real = fem.velocity_gradient

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fem, "velocity_gradient", counted)
    twin = TwinRun(*flow_pair)
    n = len(twin.times)
    assert len(calls) == 0
    for _ in range(2):
        twin.energy_identity()
        twin.aux_identity()
    twin.inequality_ledger()
    assert len(calls) == n == 7


def test_growth_rows_do_not_read_the_rounding_of_the_norms(tmp_path,
                                                           monkeypatch):
    # one step per snapshot interval: the norms are some 1e5 times their
    # jumps, so rows that differenced two norms would carry the norms'
    # rounding magnified that much; summed by BLAS dots in place of
    # np.einsum, the norms move by a few 1e-15, and every jump-read
    # quantity must stay within 1e-13 of itself
    sc = modulated_band_scenario(tmp_path, nr=12, ntheta=48, T=0.2,
                                 snapshots=30)
    basis = HarmonicBasis(sc.mesh)
    pair = (transport.run(sc, basis),
            transport.run(sc.perturbed(C0={1: 0.1}), basis))
    assert pair[0].total_steps == 30

    def readings():
        tw = TwinRun(*pair)
        rows = tw.inequality_ledger()["rows"]
        rung = stability_experiment(sc, [1e-2]).rungs[0]
        return {"lhs_energy": np.array([r["lhs_energy"] for r in rows]),
                "lhs_aux": np.array([r["lhs_aux"] for r in rows]),
                "kinetic_jump": tw.energy_identity()["kinetic_jump"],
                "aux_jump": tw.aux_identity()["jump"],
                "C_hat": rung.C_hat, "z_u": tw.z_u}

    def blas_norm(mesh, vel):
        area = mesh.tri_area
        return float(area @ (vel[:, 0] * vel[:, 0])
                     + area @ (vel[:, 1] * vel[:, 1]))

    want = readings()
    monkeypatch.setattr(fem, "sq_norm_p0", blas_norm)
    got = readings()
    # the norms themselves do move
    assert not np.array_equal(got["z_u"], want["z_u"])
    del got["z_u"], want["z_u"]
    for key, val in want.items():
        scale = np.abs(val).max()
        assert scale > 0.0, key
        assert np.abs(got[key] - val).max() <= 1e-13 * scale, key


# -- velocity-triple identity -------------------------------------------


def _constant_triple(m):
    """``lamb_identity`` of three constant fields, whose curls and
    Jacobian vanish."""
    mk = lambda vec: np.tile(vec, (m.num_triangles, 1))
    nt = m.num_triangles
    return lamb_identity(m, mk([1.0, 0.0]), mk([0.0, 1.0]), mk([1.0, 1.0]),
                         curl_u=np.zeros(nt), curl_v=np.zeros(nt),
                         jac_w=np.zeros((nt, 2, 2)))


def test_lamb_identity_trivial_on_constants(annulus_mid):
    res = _constant_triple(annulus_mid)
    assert abs(res["residual"]) < 1e-14


def test_lamb_identity_canonical_triple(annulus_mid):
    res = lamb_check(annulus_mid)
    # source field is divergence free away from the origin; vortex is
    # irrotational, so only one curl term and the two convective terms act
    assert res["div"] == 0.0
    assert res["curl_v"] == 0.0
    assert abs(res["curl_u"] - 4 * math.pi * LN2) < 0.02 * 4 * math.pi * LN2
    for key in ("conv_u", "conv_v"):
        assert abs(res[key] + 2 * math.pi * LN2) < 0.02 * 2 * math.pi * LN2
    assert res["relative"] < 0.05


def test_lamb_identity_rate():
    rels = [lamb_check(generate_annulus(1.0, 2.0, nr, 4 * nr))["relative"]
            for nr in (8, 16)]
    assert math.log2(rels[0] / rels[1]) > 0.9


def test_lamb_identity_on_three_loops():
    # on the two-hole mesh the constants balance to round-off, and the
    # boundary side of smooth polynomial fields is the sum, loop by loop,
    # of their one-sided edge samples
    from test_two_holes import two_hole_mesh

    m = two_hole_mesh()
    res = _constant_triple(m)
    assert abs(res["residual"]) < 1e-14

    x, y = m.centroid.T
    u = np.column_stack([x * y, 1.0 - x * x])
    v = np.column_stack([y * y, x + y])
    w = np.column_stack([x - 2.0 * y * y, x * y])

    def pair_normal(a, b, c):
        """oint (a . b)(c . n), one component at a time."""
        parts = []
        for comp in m.components:
            cells = m.edge_left[comp.edge_ids]
            parts.append(np.einsum("ed,ed,ef,ef,e->", a[cells], b[cells],
                                   c[cells], m.edge_normal[comp.edge_ids],
                                   comp.length))
        return sum(parts)

    pairs = (pair_normal(u, v, w), pair_normal(u, w, v), pair_normal(v, w, u))
    want = pairs[0] - pairs[1] - pairs[2]
    # the analytic curls and Jacobian of w; the boundary side reads none
    jac = np.empty((m.num_triangles, 2, 2))
    jac[:, 0] = np.column_stack([np.ones_like(x), -4.0 * y])
    jac[:, 1] = np.column_stack([y, x])
    res = lamb_identity(m, u, v, w, curl_u=-3.0 * x, curl_v=1.0 - 2.0 * y,
                        jac_w=jac)
    assert abs(res["lhs"] - want) <= 1e-14 * max(map(abs, pairs))


# -- boundary trace inequality ------------------------------------------


def test_trace_inequality_harmonic_values():
    m = generate_annulus(1.0, 2.0, 16, 64)
    op = fem.StiffnessOperator(m)
    f = fem.solve_dirichlet(op, np.zeros(m.num_vertices), {0: 0.0, 1: 1.0})
    rep = trace_inequality(op, f, np.zeros(m.num_vertices), 1)
    exact_lhs = 2 * math.pi / LN2 ** 2
    exact_energy = 2 * math.pi / LN2
    exact_c = 1.0 / LN2
    assert abs(rep["lhs"] - exact_lhs) < 0.02 * exact_lhs
    assert abs(rep["energy"] - exact_energy) < 0.02 * exact_energy
    assert abs(rep["c_required"] - exact_c) < 0.02 * exact_c
    # axisymmetric trace: no tangential variation at all
    assert rep["tangential"] < 1e-12


def test_trace_inequality_needs_harmonic_field(annulus_mid):
    op = fem.StiffnessOperator(annulus_mid)
    r = np.hypot(*annulus_mid.vertices.T)
    bumpy = r ** 2
    with pytest.raises(PreconditionError, match="harmonic"):
        trace_inequality(op, bumpy, np.zeros(annulus_mid.num_vertices), 0)


# -- interpolation inequality -------------------------------------------

_prop_mesh = generate_annulus(1.0, 2.0, 2, 8)


@settings(max_examples=60, deadline=None)
@given(values=arrays(np.float64, _prop_mesh.num_triangles,
                     elements=st.floats(-1e6, 1e6)),
       p=st.floats(1.0001, 64.0))
def test_interpolation_inequality_property(values, p):
    rep = interpolation_inequality(_prop_mesh, values, p)
    assert rep["satisfied"]


def test_interpolation_inequality_tight_for_constants():
    rep = interpolation_inequality(_prop_mesh,
                                   np.full(_prop_mesh.num_triangles, 2.0),
                                   3.0)
    assert rep["lhs"] == pytest.approx(rep["rhs"], rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 0.5, -2.0])
def test_interpolation_inequality_rejects_bad_exponent(p):
    with pytest.raises(UsageError, match="p > 1"):
        interpolation_inequality(_prop_mesh,
                                 np.ones(_prop_mesh.num_triangles), p)
