"""Acceptance gate: the numbered checks the package must pass end to end.

Each test prints exactly one verdict line (criterion number, PASS/FAIL,
the measured figures, wall time) straight to the terminal, then asserts.
Tolerances and time limits are stated inline; nothing here is tuned to
the mesh seeds beyond the stated rates.
"""

import math
import time

import numpy as np

from conftest import modulated_band_scenario
from oracles import (choose_p, consistent_circulations, edge_array,
                     growth_F, lp_norm_p0, ode_oracle, trace_inequality)
from euler_ss import fem, hodge, transport
from euler_ss.certificates import TwinRun, lamb_identity
from euler_ss.hodge import HarmonicBasis
from euler_ss.mesh import generate_annulus
from euler_ss.osgood import osgood_bound, stability_experiment
from euler_ss.zaremba import reversed_flux_residuals, solve_auxiliary

LN2 = math.log(2.0)


def _verdict(capsys, num, label, ok, detail, t0, limit):
    elapsed = time.perf_counter() - t0
    ok = bool(ok) and elapsed < limit
    with capsys.disabled():
        print(f"\ncriterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}"
              f" ({detail}; {elapsed:.1f}s/{limit:.0f}s)")
    assert ok, f"criterion {num:02d} {label}: {detail}"


def _rate(errs):
    """Mean dyadic convergence rate over a refinement ladder."""
    return math.log2(errs[0] / errs[-1]) / (len(errs) - 1)


def test_criterion_01_harmonic_basis_oracle(capsys):
    t0 = time.perf_counter()
    errs = []
    for nr in (4, 8, 16):
        m = generate_annulus(1.0, 2.0, nr, 4 * nr)
        basis = HarmonicBasis(m)
        r = np.hypot(m.vertices[:, 0], m.vertices[:, 1])
        exact = np.log(2.0 / r) / LN2
        errs.append(float(np.abs(basis.fields[0] - exact).max()))
    rate = _rate(errs)
    _verdict(capsys, 1, "harmonic basis vs ln(2/r)/ln 2", rate >= 1.8,
             f"Linf errs {errs[0]:.2e}->{errs[-1]:.2e}, rate {rate:.2f}"
             f" >= 1.8", t0, 10.0)


def test_criterion_02_flux_and_green_oracle(capsys):
    t0 = time.perf_counter()
    m = generate_annulus(1.0, 2.0, 16, 64)
    basis = HarmonicBasis(m)
    zeros = np.zeros(m.num_vertices)
    # flux of the inner harmonic field through the outer component
    fl = fem.consistent_flux(basis.op, basis.fields[0], zeros, 0)
    target = -2.0 * math.pi / LN2
    rel_fl = abs(fl - target) / abs(target)

    errs = []
    for nr in (4, 8, 16):
        mm = generate_annulus(1.0, 2.0, nr, 4 * nr)
        b = HarmonicBasis(mm)
        ones = np.ones(mm.num_triangles)
        psi0, _ = hodge.greens_operator(b, ones)
        r = np.hypot(mm.vertices[:, 0], mm.vertices[:, 1])
        exact = 0.25 * (r * r - 1.0) - 0.75 * np.log(r) / LN2
        errs.append(float(np.abs(psi0 - exact).max()))
    rate = _rate(errs)
    _verdict(capsys, 2, "consistent flux and Green operator",
             rel_fl <= 0.01 and rate >= 1.8,
             f"flux {fl:.4f} vs {target:.4f} (rel {rel_fl:.1e} <= 1e-2), "
             f"G[1] rate {rate:.2f} >= 1.8", t0, 10.0)


def test_criterion_03_velocity_oracle(capsys):
    t0 = time.perf_counter()
    errs_src, errs_circ, circ_defect = [], [], 0.0
    C = 0.7
    for nr in (8, 16, 32):
        nt = 4 * nr
        m = generate_annulus(1.0, 2.0, nr, nt, roles=("outflow", "inflow"))
        basis = HarmonicBasis(m)
        cen = m.centroid
        r2 = np.einsum("td,td->t", cen, cen)

        # radial source, unit pumping rate; the polygon boundary carries
        # the slightly smaller total flux s = sinc(pi/ntheta)
        s = math.sin(math.pi / nt) * nt / math.pi
        g = edge_array(m, {0: np.full(nt, 1.0 / (4.0 * math.pi)),
                           1: np.full(nt, -1.0 / (2.0 * math.pi))})
        zero_w = np.zeros(m.num_triangles)
        _, _, u, _ = hodge.reconstruct_velocity(
            basis, zero_w, np.zeros(1),
            phi_grad=transport.flow_setup(basis, g).phi_grad)
        ex = s / (2.0 * math.pi) * cen / r2[:, None]
        errs_src.append(lp_norm_p0(m, u - ex, 2.0)
                        / lp_norm_p0(m, ex, 2.0))

        # pure circulation: positive C spins the flow clockwise
        psi2, _, u2, _ = hodge.reconstruct_velocity(basis, zero_w,
                                                    np.array([C]))
        ex2 = C / (2.0 * math.pi) \
            * np.column_stack([cen[:, 1], -cen[:, 0]]) / r2[:, None]
        errs_circ.append(lp_norm_p0(m, u2 - ex2, 2.0)
                         / lp_norm_p0(m, ex2, 2.0))
        circ = consistent_circulations(basis, zero_w, psi2)
        circ_defect = max(circ_defect, abs(float(circ[1]) - C))
    r_src, r_circ = _rate(errs_src), _rate(errs_circ)
    _verdict(capsys, 3, "velocity reconstruction oracle",
             r_src >= 0.9 and r_circ >= 0.9 and circ_defect <= 1e-8,
             f"L2 rates source {r_src:.2f}, circulation {r_circ:.2f} "
             f">= 0.9, circulation defect {circ_defect:.1e} <= 1e-8",
             t0, 20.0)


def test_criterion_04_transport_exactness(capsys, tmp_path):
    t0 = time.perf_counter()
    # radial through-flow with the vorticity pinned at the inflow trace:
    # the state is a steady constant, so one run exercises constancy,
    # the budget, the maximum principle, and the circulation drain
    nr, nt, Q, w = 6, 24, 1.0, 1.0
    doc = {
        "mesh": {"annulus": {"r0": 1.0, "r1": 2.0, "nr": nr, "ntheta": nt,
                             "roles": ["outflow", "inflow"]}},
        "omega0": {"type": "constant", "value": w},
        "omega_in": {1: {"type": "constant", "value": w}},
        "C0": {1: 0.3},
        "g": {0: {"type": "constant", "value": Q / (4.0 * math.pi)},
              1: {"type": "constant", "value": -Q / (2.0 * math.pi)}},
        "T": 0.5, "cfl": 0.004, "snapshots": 5,
    }
    sc = transport.parse_scenario(doc, base_dir=tmp_path)
    traj = transport.run(sc)
    const_defect = float(np.abs(traj.omega - w).max())
    c_out = traj.circulations[:, 0]
    times = traj.times
    rate = Q * w * nt * math.sin(math.pi / nt) / math.pi
    # Kelvin drain of the outer circulation against the continuum -wQt
    drift_rel = max(abs((c_out[k] - c_out[0]) + w * Q * times[k])
                    / (w * Q * times[k]) for k in range(1, len(times)))
    h = float(traj.mesh.incircle_diameter.max())
    dt = traj.dt[-1]
    ok = (traj.total_steps >= 500 and const_defect <= 1e-12
          and traj.budget_defect <= 1e-12
          and traj.max_principle_defect <= 1e-12
          and drift_rel <= 5.0 * (h + dt))
    _verdict(capsys, 4, "transport exactness and Kelvin drain", ok,
             f"{traj.total_steps} steps, const {const_defect:.1e}, budget "
             f"{traj.budget_defect:.1e}, max-principle "
             f"{traj.max_principle_defect:.1e} <= 1e-12, drift rel "
             f"{drift_rel:.1e} <= {5.0 * (h + dt):.1e} "
             f"(polygon rate {rate:.4f})", t0, 60.0)


def _canonical_triple(m):
    """Rigid rotation, point vortex, point source on the annulus, with
    their analytic curls and Jacobian."""
    cen = m.centroid
    x, y = cen[:, 0], cen[:, 1]
    r2 = x * x + y * y
    u = np.column_stack([-y, x])
    v = np.column_stack([-y, x]) / r2[:, None]
    wf = np.column_stack([x, y]) / r2[:, None]
    curl_u = np.full(m.num_triangles, 2.0)
    curl_v = np.zeros(m.num_triangles)
    jac = np.empty((m.num_triangles, 2, 2))
    jac[:, 0, 0] = y * y - x * x
    jac[:, 0, 1] = -2.0 * x * y
    jac[:, 1, 0] = -2.0 * x * y
    jac[:, 1, 1] = x * x - y * y
    jac /= (r2 * r2)[:, None, None]
    return u, v, wf, curl_u, curl_v, jac


def test_criterion_05_lamb_identity(capsys):
    t0 = time.perf_counter()
    m8 = generate_annulus(1.0, 2.0, 8, 32)
    ones = np.ones(m8.num_triangles)
    zeros = np.zeros(m8.num_triangles)
    triv = lamb_identity(m8, np.column_stack([ones, zeros]),
                         np.column_stack([zeros, ones]),
                         np.column_stack([ones, ones]), curl_u=zeros,
                         curl_v=zeros, jac_w=np.zeros((len(ones), 2, 2)))
    closed = {"div": 0.0, "curl_u": 4.0 * math.pi * LN2,
              "curl_v": 0.0, "conv_u": -2.0 * math.pi * LN2,
              "conv_v": -2.0 * math.pi * LN2}
    errs = []
    for nr in (8, 16):
        m = generate_annulus(1.0, 2.0, nr, 4 * nr)
        u, v, wf, cu, cv, jac = _canonical_triple(m)
        rep = lamb_identity(m, u, v, wf, curl_u=cu, curl_v=cv, jac_w=jac)
        errs.append(max(abs(rep[k] - val) for k, val in closed.items()))
    rate = _rate(errs)
    ok = abs(triv["residual"]) <= 1e-14 and rate >= 0.9
    _verdict(capsys, 5, "velocity-triple boundary identity", ok,
             f"trivial residual {abs(triv['residual']):.1e} <= 1e-14, "
             f"term errs {errs[0]:.2e}->{errs[-1]:.2e}, rate {rate:.2f} "
             f">= 0.9", t0, 20.0)


def test_criterion_06_energy_and_auxiliary_identities(capsys, tmp_path):
    t0 = time.perf_counter()
    rel_e, rel_a = [], []
    twin0 = None
    for nr in (6, 12, 24):
        d = tmp_path / f"lvl{nr}"
        d.mkdir()
        sc = modulated_band_scenario(d, nr=nr, ntheta=4 * nr)
        basis = HarmonicBasis(sc.mesh)
        base = transport.run(sc, basis)
        pert = transport.run(sc.perturbed(C0={1: 0.1}), basis)
        tw = TwinRun(base, pert)
        rel_e.append(tw.energy_identity()["relative"])
        rel_a.append(tw.aux_identity()["relative"])
        if twin0 is None:
            twin0 = TwinRun(base, base)
    r_e, r_a = _rate(rel_e), _rate(rel_a)
    null_res = max(abs(twin0.energy_identity()["residual"]),
                   abs(twin0.aux_identity()["residual"]))
    ok = r_e >= 0.8 and r_a >= 0.8 and null_res <= 1e-10
    _verdict(capsys, 6, "energy and auxiliary balance certificates", ok,
             f"energy rel {rel_e[0]:.1e}->{rel_e[-1]:.1e} rate {r_e:.2f}, "
             f"auxiliary rate {r_a:.2f} >= 0.8, identical-twin residual "
             f"{null_res:.1e} <= 1e-10", t0, 300.0)


def test_criterion_07_reversed_flux_relation(capsys, tmp_path):
    t0 = time.perf_counter()
    res = {}
    for nr in (8, 16):
        d = tmp_path / f"lvl{nr}"
        d.mkdir()
        sc = modulated_band_scenario(d, nr=nr, ntheta=4 * nr)
        m = sc.mesh
        basis = HarmonicBasis(m)
        om = sc.initial_omega()
        phi_grad = transport.flow_setup(basis, sc.g_edges()).phi_grad
        c0 = sc.initial_C()
        psi1 = hodge.reconstruct_velocity(basis, om, c0,
                                          phi_grad=phi_grad)[0]
        psi2 = hodge.reconstruct_velocity(basis, om, c0 + 0.1,
                                          phi_grad=phi_grad)[0]
        psi_d = psi2 - psi1
        _, D = solve_auxiliary(basis, psi_d, np.zeros(m.num_triangles))
        res[nr] = float(reversed_flux_residuals(D[:, None], basis,
                                                np.array([[0.1]])).max())
    # tolerance halves twice with h; the measured values sit at the
    # linear-solver floor, far below either bound
    ok = res[8] <= 1e-3 and res[16] <= 2.5e-4
    _verdict(capsys, 7, "reversed-flux circulation relation", ok,
             f"|D+C| mid {res[8]:.1e} <= 1e-3, fine {res[16]:.1e} "
             f"<= 2.5e-4", t0, 60.0)


def _fourier_trace(theta, coef):
    out = np.zeros_like(theta)
    for k in range(coef.shape[1]):
        out += coef[0, k] * np.cos((k + 1) * theta) / (k + 1)
        out += coef[1, k] * np.sin((k + 1) * theta) / (k + 1)
    return out


def test_criterion_08_trace_inequality(capsys):
    t0 = time.perf_counter()
    coefs = np.random.default_rng(7).normal(size=(6, 2, 2, 3))
    level_max = {}
    rel_inner = None
    for nr in (8, 16):
        m = generate_annulus(1.0, 2.0, nr, 4 * nr)
        basis = HarmonicBasis(m)
        zeros = np.zeros(m.num_vertices)
        if nr == 16:
            rep = trace_inequality(basis.op, basis.fields[0], zeros, 1)
            rel_inner = abs(rep["c_required"] - 1.0 / LN2) * LN2
        nodes = [m.component_nodes(c) for c in (0, 1)]
        theta = [np.arctan2(m.vertices[n, 1], m.vertices[n, 0])
                 for n in nodes]
        cmax = 0.0
        for sample in coefs:
            vals = [_fourier_trace(theta[c], sample[c]) for c in (0, 1)]
            f = fem.solve_constrained(basis.op, zeros,
                                      np.concatenate(nodes),
                                      np.concatenate(vals))
            cmax = max(cmax,
                       trace_inequality(basis.op, f, zeros, 0)["c_required"],
                       trace_inequality(basis.op, f, zeros, 1)["c_required"])
        level_max[nr] = cmax
    ratio = level_max[16] / level_max[8]
    ok = rel_inner <= 0.02 and 1.0 / 1.3 <= ratio <= 1.3
    _verdict(capsys, 8, "boundary trace constant", ok,
             f"annulus C {1 / LN2:.3f} rel err {rel_inner:.1e} <= 2e-2, "
             f"random-harmonic max C ratio {ratio:.2f} in [0.77, 1.3]",
             t0, 60.0)


def test_criterion_09_osgood_machinery(capsys):
    t0 = time.perf_counter()
    # 100-point grid inside the closed form's sharp window: Ct >= 5 keeps
    # the built-in slack exp(exp(-Ct)) under one percent, while
    # Ct <= ln(1 + |ln y0|) keeps the solution below 1, away from the
    # double-exponential branch of the modulus
    worst_rel, dominated, n = 0.0, True, 0
    for y0 in np.logspace(-130.0, -100.0, 5):
        for a in (0.0, 0.3 * y0):
            for C in (5.0, 5.08, 5.16, 5.24, 5.32):
                for t in (1.0, 1.02):
                    b = osgood_bound(y0, a, C, t)
                    num = float(ode_oracle(y0, a, C, [0.0, t])[-1])
                    worst_rel = max(worst_rel, abs(b - num) / num)
                    dominated &= b >= num * (1.0 - 1e-5)
                    n += 1
    xs = np.append(np.logspace(-280.0, -1.0, 99), math.exp(-2.0))
    f_rel = max(abs(growth_F(choose_p(x), x) - (x + math.e * x * abs(math.log(x))))
                / (x + math.e * x * abs(math.log(x))) for x in xs)
    zero = osgood_bound(0.0, 0.0, 3.7, 2.5)
    ok = (n == 100 and worst_rel <= 0.01 and dominated
          and f_rel <= 1e-12 and zero == 0.0)
    _verdict(capsys, 9, "growth bound vs ODE oracle", ok,
             f"{n} grid points, worst rel {worst_rel:.2e} <= 1e-2 with "
             f"domination, envelope identity {f_rel:.1e} <= 1e-12, "
             f"zero branch {zero!r}", t0, 5.0)


def test_criterion_10_stability_experiment(capsys, tmp_path):
    t0 = time.perf_counter()
    sc = modulated_band_scenario(tmp_path)
    rep = stability_experiment(sc, [0.0, 1e-3, 1e-2, 1e-1])
    live = all(r.failed is None for r in rep.rungs)
    zero_final = rep.rungs[0].y_final
    bounds_ok = all(r.bound_ok for r in rep.rungs)
    ok = (live and rep.monotone and rep.beta_ok
          and 0.0 < rep.beta <= 1.05 and zero_final <= 1e-10
          and bounds_ok and rep.C_dev <= 0.5)
    _verdict(capsys, 10, "circulation-perturbation stability ladder", ok,
             f"monotone {rep.monotone}, beta {rep.beta:.3f} in (0, 1.05], "
             f"zero rung {zero_final:.1e} <= 1e-10, bounds hold "
             f"{bounds_ok}, C-hat dev {rep.C_dev:.2f} <= 0.5", t0, 600.0)
