import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from euler_ss import fem, osgood
from euler_ss.errors import UsageError
from euler_ss.osgood import (calibrate_constant, interval_trapezoid, mu,
                             osgood_bound, smallest_constant,
                             stability_experiment)

from conftest import modulated_band_scenario
from oracles import (P_SWITCH, choose_p, exact_comparison, growth_F,
                     lemma_envelope_check, ode_oracle,
                     riemann_telescoping_check)

E = math.e


# -- modulus and envelope ----------------------------------------------


def test_mu_normalization():
    assert mu(1.0, 3.5) == 3.5
    assert mu(0.0, 7.0) == 0.0
    assert mu(-1.0, 7.0) == 0.0
    # symmetric factor around 1: same log magnitude either side
    assert mu(E, 1.0) == pytest.approx(2 * E)
    vals = mu(np.array([0.0, 1.0, E]), 2.0)
    np.testing.assert_allclose(vals, [0.0, 2.0, 4 * E])


def test_choose_p_values():
    assert choose_p(math.exp(-4.0)) == pytest.approx(4.0)
    assert choose_p(0.5) == 2.0
    assert choose_p(1.0) == 2.0
    assert P_SWITCH == pytest.approx(math.exp(-2.0))
    # continuous at the switch: cap and minimizer agree there
    assert choose_p(P_SWITCH) == pytest.approx(2.0, abs=1e-12)
    assert choose_p(P_SWITCH * (1 - 1e-12)) == pytest.approx(2.0, abs=1e-9)


def test_envelope_identity_value():
    x = math.exp(-4.0)
    # F at the optimal exponent collapses to x (1 + 4 e)
    assert growth_F(choose_p(x), x) == pytest.approx(x * (1 + 4 * E),
                                                     rel=1e-13)
    assert growth_F(2.0, 0.0) == 0.0


def test_envelope_approaches_modulus_shape():
    # along x = exp(-k) the minimized envelope is x (1 + k e), so the
    # ratio to mu climbs monotonically to e
    ratios = []
    for k in (10.0, 50.0, 400.0):
        x = math.exp(-k)
        ratios.append(growth_F(choose_p(x), x) / mu(x))
    assert ratios[0] < ratios[1] < ratios[2] < E
    assert abs(ratios[2] - E) < 0.01 * E


def test_lemma_envelope_check_passes():
    rep = lemma_envelope_check()
    assert rep["identity_ok"]
    assert rep["envelope_ok"]
    assert rep["identity_defect"] < 1e-12
    assert rep["envelope_min_margin"] >= 0.0
    assert rep["kappa_large"] == 3.0


def test_riemann_telescoping():
    rep = riemann_telescoping_check()
    assert rep["nonnegative"]
    assert rep["decreasing"]
    d = rep["defects"]
    assert np.all(d >= 0)
    assert np.all(np.diff(d) < 0)


# -- closed-form bound --------------------------------------------------


def test_bound_uniqueness_branch_exactly_zero():
    assert osgood_bound(0.0, 0.0, 3.0, 5.0) == 0.0
    t = np.linspace(0.0, 10.0, 7)
    assert np.all(osgood_bound(0.0, 0.0, 1.0, t) == 0.0)


def test_bound_at_time_zero():
    assert osgood_bound(0.5, 2.0, 1.0, 0.0) == pytest.approx(E * 0.5)


def test_bound_rejects_negative_data():
    for bad in ((-1.0, 0.0, 1.0), (0.0, -1.0, 1.0), (0.0, 0.0, -1.0)):
        with pytest.raises(UsageError, match="nonnegative"):
            osgood_bound(*bad, 1.0)


@settings(max_examples=80, deadline=None)
@given(y0=st.floats(0.0, 1.0), a=st.floats(0.0, 1.0),
       C=st.floats(0.0, 10.0), t=st.floats(0.0, 5.0),
       bump=st.floats(1e-12, 1.0))
def test_bound_monotone_in_initial_data(y0, a, C, t, bump):
    base = osgood_bound(y0, a, C, t)
    assert osgood_bound(y0 + bump, a, C, t) >= base
    assert osgood_bound(y0, a + bump, C, t) >= base


@settings(max_examples=80, deadline=None)
@given(y0=st.floats(1e-30, 0.1), a=st.floats(0.0, 0.1),
       C=st.floats(0.0, 5.0), t=st.floats(0.0, 4.0),
       bump=st.floats(1e-9, 1.0))
def test_bound_monotone_in_time_small_regime(y0, a, C, t, bump):
    # keep y0 + t a inside the regime where the bound means anything
    t2 = min(t + bump, 4.0)
    if y0 + t2 * a > 1.0:
        return
    assert osgood_bound(y0, a, C, t2) >= osgood_bound(y0, a, C, t) \
        * (1 - 1e-12)


@pytest.mark.parametrize("y0,expect_growing", [(1e-6, True), (3.0, False)])
def test_bound_C_dependence_splits_at_one(y0, expect_growing):
    lo = osgood_bound(y0, 0.0, 0.5, 1.0)
    hi = osgood_bound(y0, 0.0, 2.0, 1.0)
    if expect_growing:
        assert hi > lo
    else:
        assert hi < lo


# -- oracles ------------------------------------------------------------


def test_exact_comparison_domain():
    with pytest.raises(UsageError, match="z0"):
        exact_comparison(0.0, 1.0, 1.0)
    with pytest.raises(UsageError, match="z0"):
        exact_comparison(1.5, 1.0, 1.0)
    assert exact_comparison(1.0, 2.0, 0.0) == pytest.approx(1.0)


def test_exact_comparison_against_oracle():
    z0, C = 1e-55, 4.8
    t = np.linspace(0.0, 1.0, 9)
    closed = exact_comparison(z0, C, t)
    numeric = ode_oracle(z0, 0.0, C, t)
    rel = np.abs(closed - numeric) / np.maximum(np.abs(closed), 1e-300)
    assert rel.max() < 1e-7


def test_ode_oracle_reduces_to_comparison():
    # no forcing: the comparison ODE z' = C mu(z) and its closed form
    t = np.linspace(0.0, 0.5, 5)
    np.testing.assert_allclose(ode_oracle(1e-4, 0.0, 2.0, t),
                               exact_comparison(1e-4, 2.0, t), rtol=1e-9)


def test_ode_oracle_resolves_tiny_scales():
    # a fixed absolute tolerance would flatline these magnitudes
    t = np.array([0.0, 1.0])
    out = ode_oracle(1e-100, 0.0, 1.0, t)
    assert out[-1] > out[0] > 0.0


def test_bound_dominates_oracle_inhomogeneous():
    y0, a, C, T = 0.0, 1e-55, 1.0, 4.8
    t = np.linspace(0.0, T, 9)
    y = ode_oracle(y0, a, C, t)
    b = osgood_bound(y0, a, C, t)
    assert np.all(y[1:] <= b[1:])
    assert b[-1] <= 1.0      # still inside the small regime


# -- constant calibration ----------------------------------------------


def test_calibrate_constant_recovers_rate():
    C = 1.7
    t = np.linspace(0.0, 1.0, 400)
    y = exact_comparison(1e-3, C, t)
    c_hat = calibrate_constant(t, y, np.diff(y), 0.0)
    assert abs(c_hat - C) < 0.01 * C


def test_calibrate_constant_zero_for_decay():
    t = np.linspace(0.0, 1.0, 20)
    y = np.exp(-t)
    assert calibrate_constant(t, y, np.diff(y), 0.0) == 0.0


def test_calibrate_constant_data_absorbs_growth():
    t = np.linspace(0.0, 1.0, 50)
    y = 1e-6 * t          # linear growth from zero needs the data term
    c_small = calibrate_constant(t, y, np.diff(y), 1e-3)
    c_big = calibrate_constant(t, y, np.diff(y), 1.0)
    assert c_big < c_small


def test_interval_trapezoid_sums_to_numpy_trapezoid():
    rng = np.random.default_rng(3)
    t = np.cumsum(rng.uniform(0.01, 0.2, 30))
    v = rng.standard_normal(30)
    parts = interval_trapezoid(t, v)
    assert parts.shape == (29,)
    assert float(parts.sum()) == float(np.trapezoid(v, t))


def test_smallest_constant_reads_rows_with_positive_rhs():
    lhs = np.array([1.0, -5.0, 3.0, 2.0])
    rhs = np.array([[2.0, 4.0], [1.0, 1.0], [0.0, 6.0], [-1.0, 0.0]])
    # the largest ratio is 1 / 2 (row 0 against 2, row 2 against 6); the
    # negative lhs and the entries with rhs <= 0 add nothing
    assert smallest_constant(lhs[:, None], rhs) == 0.5
    assert smallest_constant(np.ones(3), np.zeros(3)) == 0.0
    assert smallest_constant(np.ones(0), np.ones(0)) == 0.0


def test_calibrate_constant_matches_its_interval_loop():
    rng = np.random.default_rng(4)
    t = np.cumsum(rng.uniform(0.01, 0.1, 40))
    y = np.maximum.accumulate(rng.uniform(1e-8, 1e-2, 40))
    for data2 in (0.0, 1e-6, 1e-2):
        c = 0.0
        for k in range(len(t) - 1):
            inc = y[k + 1] - y[k]
            dt = t[k + 1] - t[k]
            den = 0.5 * dt * float(mu(y[k]) + mu(y[k + 1])) + data2 * dt
            if inc > 0 and den > 0:
                c = max(c, inc / den)
        assert calibrate_constant(t, y, np.diff(y), data2) == c


# -- twin-run stability experiment --------------------------------------


@pytest.fixture(scope="module")
def stability_report(tmp_path_factory):
    sc = modulated_band_scenario(tmp_path_factory.mktemp("stab"))
    return stability_experiment(sc, [0.0, 1e-2, 1e-1])


def test_stability_zero_rung_is_exact(stability_report):
    r0 = stability_report.rungs[0]
    assert r0.delta == 0.0
    assert r0.y_final == 0.0
    assert r0.bound_ok


def test_stability_rungs_carry_series(stability_report):
    for r in stability_report.rungs:
        assert r.failed is None
        assert r.times is not None and len(r.times) == len(r.y_series)
        assert len(r.bound_series) == len(r.y_series)
        assert r.bound_ok


def test_stability_scaling_and_constants(stability_report):
    rep = stability_report
    assert rep.monotone
    assert rep.beta_ok
    assert 0.0 < rep.beta <= 1.05
    assert rep.C_dev <= 0.5
    assert rep.C_spread >= 1.0
    assert osgood.NOISE_FLOOR < 1e-20


def test_identical_twin_differs_by_exact_zeros(flow_pair):
    # the premise of the constant noise floor: a run twinned with itself
    # has no measured noise to add to it
    from euler_ss.certificates import TwinRun
    base, _ = flow_pair
    tw = TwinRun(base, base)
    assert np.array_equal(tw.z_u, np.zeros(len(base.times)))
    assert np.array_equal(tw.z_v, np.zeros(len(base.times)))
    assert osgood.NOISE_FLOOR == 1e-28


def test_ladder_factors_each_system_once(tmp_path, monkeypatch):
    calls = []
    real = fem.spla.splu

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(fem.spla, "splu", counted)
    sc = modulated_band_scenario(tmp_path, nr=4, ntheta=16)
    stability_experiment(sc, [1e-3, 3e-3, 1e-2, 3e-2, 1e-1])
    # six runs share one mesh: the Dirichlet (basis and Green), Neumann,
    # auxiliary and cell-graph systems are factored once each
    assert len(calls) == 4


def test_ladder_reads_the_twin_data_term(tmp_path, monkeypatch):
    # each rung is calibrated against its twin's data2, the array the
    # growth ledger reads, and its forcing is a = C_hat max(data2)
    from euler_ss import certificates
    twins = []

    class Recorded(certificates.TwinRun):
        def __init__(self, *args):
            super().__init__(*args)
            twins.append(self)

    monkeypatch.setattr(certificates, "TwinRun", Recorded)
    sc = modulated_band_scenario(tmp_path, nr=4, ntheta=16)
    rep = stability_experiment(sc, [1e-2, 1e-1])
    assert len(twins) == len(rep.rungs) == 2
    for r, tw in zip(rep.rungs, twins):
        assert r.a > 0.0
        assert r.a == r.C_hat * tw.data2.max()
        rise = r.y_series - r.y_series[0]
        assert r.C_hat == pytest.approx(calibrate_constant(
            tw.times, r.y_series, np.diff(rise), tw.data2), rel=1e-12)


def test_stability_rejects_negative_delta(tmp_path):
    sc = modulated_band_scenario(tmp_path)
    with pytest.raises(UsageError, match="delta"):
        stability_experiment(sc, [-0.1, 0.1])


@pytest.mark.parametrize("deltas", [[1e-3, 1e-3], [0.1, 1e-2, 0.1]])
def test_stability_rejects_repeated_deltas(tmp_path, deltas):
    sc = modulated_band_scenario(tmp_path)
    with pytest.raises(UsageError, match="distinct"):
        stability_experiment(sc, deltas)


def test_stability_accepts_component_list(tmp_path):
    sc = modulated_band_scenario(tmp_path, T=0.25, snapshots=3)
    rep = stability_experiment(sc, [1e-2], comp=[1])
    assert len(rep.rungs) == 1
    assert rep.rungs[0].failed is None


def test_stability_rejects_empty_component_list(tmp_path):
    # a ladder that perturbs nothing has nothing to certify
    sc = modulated_band_scenario(tmp_path)
    with pytest.raises(UsageError, match="inner component"):
        stability_experiment(sc, [1e-2], comp=[])


def test_stability_rejects_repeated_components(tmp_path):
    # [1, 1] names component 1 twice: a malformed request, not a larger
    # shift
    sc = modulated_band_scenario(tmp_path, nr=4, ntheta=16)
    with pytest.raises(UsageError, match="distinct"):
        stability_experiment(sc, [1e-2], comp=[1, 1])
