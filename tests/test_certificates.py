import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from euler_ss import fem, transport
from euler_ss.certificates import (TwinRun, interpolation_inequality,
                                   lamb_identity, trace_inequality)
from euler_ss.errors import PreconditionError, UsageError
from euler_ss.hodge import P_GRID, HarmonicBasis
from euler_ss.mesh import generate_annulus

from conftest import modulated_band_scenario
from einsum_twin import snapshot_blocks

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


def test_integrands_take_one_velocity_gradient_per_block(flow_pair,
                                                         monkeypatch):
    # the identities read over uneven blocks of three snapshot intervals
    # (7 snapshots make the blocks [0, 3] and [3, 6]), over the whole run
    # and by the ledger share one integrands pass: one velocity gradient
    # per snapshot, none for the twin alone
    calls = []
    real = fem.velocity_gradient

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fem, "velocity_gradient", counted)
    twin = TwinRun(*flow_pair)
    n = len(twin.times)
    assert len(calls) == 0
    blocks = snapshot_blocks(n, 3)
    assert blocks == [(0, 3), (3, 6)]
    for k0, k1 in blocks + snapshot_blocks(n, None):
        twin.energy_identity(k0, k1)
        twin.aux_identity(k0, k1)
    twin.inequality_ledger()
    assert len(calls) == n == 7


# pieces that are time integrals or jumps over the window; the coupling
# term differentiates psi inside the window, so it does not telescope
ENERGY_PIECES = ("kinetic_jump", "boundary", "convective")
AUX_PIECES = ("jump", "inflow_energy", "outflow_cross", "inflow_cross",
              "convective", "vortical", "inflow_data")


@pytest.mark.parametrize("name, pieces", [("energy_identity", ENERGY_PIECES),
                                          ("aux_identity", AUX_PIECES)])
def test_identity_pieces_telescope_over_intervals(flow_twin, name, pieces):
    identity = getattr(flow_twin, name)
    whole = identity()
    parts = [identity(k, k + 1) for k in range(len(flow_twin.times) - 1)]
    for key in pieces:
        total = sum(p[key] for p in parts)
        assert total == pytest.approx(whole[key], rel=1e-12, abs=1e-300), key


@pytest.mark.parametrize("window", [(3, 1), (-1, None), (0, 7), (-2, 3),
                                    (7, None)])
@pytest.mark.parametrize("name", ["energy_identity", "aux_identity",
                                  "psi_prime_diagnostic"])
def test_identity_windows_are_validated(flow_twin, name, window):
    assert len(flow_twin.times) == 7
    with pytest.raises(UsageError, match="window"):
        getattr(flow_twin, name)(*window)


# -- velocity-triple identity -------------------------------------------


def test_lamb_identity_trivial_on_constants(annulus_mid):
    m = annulus_mid
    mk = lambda vec: np.tile(vec, (m.num_triangles, 1))
    res = lamb_identity(m, mk([1.0, 0.0]), mk([0.0, 1.0]), mk([1.0, 1.0]))
    assert abs(res["residual"]) < 1e-14


def test_lamb_identity_canonical_triple(annulus_mid):
    m = annulus_mid
    x, y = m.centroid[:, 0], m.centroid[:, 1]
    r2 = x * x + y * y
    u = np.column_stack([-y, x])
    v = np.column_stack([-y, x]) / r2[:, None]
    w = np.column_stack([x, y]) / r2[:, None]
    jac = np.empty((m.num_triangles, 2, 2))
    jac[:, 0, 0] = (y * y - x * x) / r2 ** 2
    jac[:, 0, 1] = -2 * x * y / r2 ** 2
    jac[:, 1, 0] = -2 * x * y / r2 ** 2
    jac[:, 1, 1] = (x * x - y * y) / r2 ** 2
    res = lamb_identity(m, u, v, w, curl_u=np.full(len(x), 2.0),
                        curl_v=np.zeros(len(x)), jac_w=jac)
    # source field is divergence free away from the origin; vortex is
    # irrotational, so only one curl term and the two convective terms act
    assert res["div"] == 0.0
    assert res["curl_v"] == 0.0
    assert abs(res["curl_u"] - 4 * math.pi * LN2) < 0.02 * 4 * math.pi * LN2
    for key in ("conv_u", "conv_v"):
        assert abs(res[key] + 2 * math.pi * LN2) < 0.02 * 2 * math.pi * LN2
    assert res["relative"] < 0.05


def test_lamb_identity_rate():
    rels = []
    for nr in (8, 16):
        m = generate_annulus(1.0, 2.0, nr, 4 * nr)
        x, y = m.centroid[:, 0], m.centroid[:, 1]
        r2 = x * x + y * y
        u = np.column_stack([-y, x])
        v = np.column_stack([-y, x]) / r2[:, None]
        w = np.column_stack([x, y]) / r2[:, None]
        jac = np.empty((m.num_triangles, 2, 2))
        jac[:, 0, 0] = (y * y - x * x) / r2 ** 2
        jac[:, 0, 1] = -2 * x * y / r2 ** 2
        jac[:, 1, 0] = -2 * x * y / r2 ** 2
        jac[:, 1, 1] = (x * x - y * y) / r2 ** 2
        res = lamb_identity(m, u, v, w, curl_u=np.full(len(x), 2.0),
                            curl_v=np.zeros(len(x)), jac_w=jac)
        rels.append(res["relative"])
    assert math.log2(rels[0] / rels[1]) > 0.9


# -- boundary trace inequality ------------------------------------------


def test_trace_inequality_harmonic_values():
    m = generate_annulus(1.0, 2.0, 16, 64)
    op = fem.StiffnessOperator(m)
    f = fem.solve_dirichlet(op, np.zeros(m.num_vertices), {0: 0.0, 1: 1.0})
    rep = trace_inequality(op, f, np.zeros(m.num_vertices), 1)
    exact_lhs = 2 * math.pi / LN2 ** 2
    exact_energy = 2 * math.pi / LN2
    exact_c = 1.0 / LN2
    assert abs(rep.lhs - exact_lhs) < 0.02 * exact_lhs
    assert abs(rep.energy - exact_energy) < 0.02 * exact_energy
    assert abs(rep.c_required - exact_c) < 0.02 * exact_c
    # axisymmetric trace: no tangential variation at all
    assert rep.tangential < 1e-12


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
