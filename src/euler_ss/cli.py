"""Batch entry points: mesh tools, simulation runs, certificate suites,
and the perturbation-ladder experiment.

Everything is written as CSV or legacy VTK for offline plotting; there is
no interactive mode.  Invocations are deterministic: the
same command on the same inputs produces byte-identical files.

Exit codes: 0 success, 1 failed certificate checks, 2 usage or
configuration errors, 3 precondition violations, 4 solver failures.
``main`` returns the code; ``console_entry`` (the ``euler-ss`` script and
``python -m euler_ss.cli``) exits the process with it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import fem, transport, zaremba
from .certificates import TwinRun, lamb_identity
from .errors import PreconditionError, SolverError, UsageError
from .hodge import HarmonicBasis
from .mesh import (Mesh, generate_annulus, load_mesh, save_mesh,
                   uniform_refine)
from .osgood import NOISE_FLOOR, stability_experiment


def _g17(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, str):
                cells.append(v)
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(_g17(v))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _outdir(args) -> Path:
    out = Path(args.output)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {out}: {exc}") \
            from None
    return out


def _check(lines: list, name: str, value: float, tol: float) -> bool:
    ok = value <= tol
    lines.append(f"{'PASS' if ok else 'FAIL'} {name}: "
                 f"{value:.3e} (tol {tol:.1e})")
    return ok


# -- mesh ---------------------------------------------------------------


def _min_angle_deg(mesh: Mesh) -> float:
    v = mesh.vertices[mesh.triangles]        # (T, 3, 2)
    worst = math.pi
    for k in range(3):
        e1 = v[:, (k + 1) % 3] - v[:, k]
        e2 = v[:, (k + 2) % 3] - v[:, k]
        num = np.einsum("td,td->t", e1, e2)
        den = np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1)
        ang = np.arccos(np.clip(num / den, -1.0, 1.0))
        worst = min(worst, float(ang.min()))
    return math.degrees(worst)


def cmd_mesh(args) -> int:
    if args.mesh_cmd == "annulus":
        m = generate_annulus(args.r0, args.r1, args.nr, args.ntheta,
                             roles=tuple(args.roles.split(",")))
        save_mesh(m, args.output)
        print(f"wrote {args.output}: {m.num_vertices} vertices, "
              f"{m.num_triangles} triangles")
        return 0
    if args.mesh_cmd == "refine":
        if args.times < 1:
            raise UsageError(f"--times must be a positive integer, got "
                             f"{args.times}")
        m = load_mesh(args.input)
        for _ in range(args.times):
            m = uniform_refine(m)
        save_mesh(m, args.output)
        print(f"wrote {args.output}: {m.num_vertices} vertices, "
              f"{m.num_triangles} triangles")
        return 0
    # info
    m = load_mesh(args.input)
    print(f"vertices: {m.num_vertices}")
    print(f"triangles: {m.num_triangles}")
    print(f"components: {len(m.components)}, chi: {m.euler_characteristic}")
    for c in m.components:
        print(f"  component {c.comp}: role={c.role}, "
              f"edges={len(c.edges)}, length={c.total_length:.6g}")
    print(f"min angle: {_min_angle_deg(m):.2f} deg")
    return 0


# -- simulate -----------------------------------------------------------


def _write_snapshots(outdir: Path, traj: transport.Trajectory) -> None:
    for k, s in enumerate(traj.states):
        fem.write_vtk(outdir / f"snap_{k:03d}.vtk", traj.mesh,
                      point_data={"stream": s.assembly.psi_total.values},
                      cell_data={"vorticity": s.omega,
                                 "velocity": s.assembly.u.values})


def cmd_simulate(args) -> int:
    sc = transport.load_scenario(args.scenario)
    traj = transport.run(sc)
    outdir = _outdir(args)
    transport.write_trajectory_csv(traj, outdir / "trajectory.csv")
    if args.vtk:
        _write_snapshots(outdir, traj)
    last = traj.states[-1]
    print(f"ran {traj.total_steps} steps to t={last.t:.6g} "
          f"({len(traj.states)} snapshots)")
    print(f"final energy {last.energy:.12g}, "
          f"vorticity range [{last.omega.min():.6g}, {last.omega.max():.6g}]")
    print(f"max principle defect {traj.max_principle_defect:.3e}, "
          f"budget defect {traj.budget_defect:.3e}")
    print(f"wrote {outdir / 'trajectory.csv'}")
    return 0


# -- certify ------------------------------------------------------------


def _parse_comp_val(text: str, flag: str) -> tuple[int, float]:
    comp, sep, val = text.partition("=")
    if not sep:
        raise UsageError(f"{flag} expects COMP=VALUE, got {text!r}")
    try:
        return int(comp), float(val)
    except ValueError:
        raise UsageError(f"{flag} expects COMP=VALUE with an integer "
                         f"component and numeric value, got {text!r}") \
            from None


def _align_pair(sc1: transport.Scenario,
                sc2: transport.Scenario) -> transport.Scenario:
    """``sc2`` on the mesh object of ``sc1`` (twins must share it)."""
    m1, m2 = sc1.mesh, sc2.mesh
    same = np.array_equal(m1.vertices, m2.vertices) \
        and np.array_equal(m1.triangles, m2.triangles) \
        and [c.role for c in m1.components] \
        == [c.role for c in m2.components]
    if not same:
        raise UsageError("certify: the two scenarios describe different "
                         "meshes")
    return replace(sc2, mesh=m1)


def _perturbation(args) -> dict:
    delta = {}
    if args.delta_c0:
        delta["C0"] = dict(_parse_comp_val(s, "--delta-c0")
                           for s in args.delta_c0)
    if args.delta_omega0 is not None:
        delta["omega0"] = args.delta_omega0
    if args.delta_omega_in:
        delta["omega_in"] = dict(_parse_comp_val(s, "--delta-omega-in")
                                 for s in args.delta_omega_in)
    return delta


_LAMB_RATE_MIN = 0.9
_IDENTITY_RATE_MIN = 0.9


def _lamb_on(mesh: Mesh) -> float:
    """Relative closure defect of the boundary/volume exchange identity
    for the canonical rotation / vortex / source triple on this geometry
    (needs the origin outside the fluid)."""
    x, y = mesh.centroid[:, 0], mesh.centroid[:, 1]
    r2 = x * x + y * y
    if r2.min() < 1e-12:
        raise PreconditionError("lamb check needs the origin outside "
                                "the fluid")
    u = fem.VelocityP0(mesh, np.column_stack([-y, x]))   # rotation, curl 2
    v = fem.VelocityP0(mesh, np.column_stack([-y, x])    # vortex, curl 0
                       / r2[:, None])
    w = fem.VelocityP0(mesh, np.column_stack([x, y])     # source, div 0
                       / r2[:, None])
    jac = np.empty((mesh.num_triangles, 2, 2))
    jac[:, 0, 0] = (y * y - x * x) / r2 ** 2
    jac[:, 0, 1] = -2 * x * y / r2 ** 2
    jac[:, 1, 0] = -2 * x * y / r2 ** 2
    jac[:, 1, 1] = (x * x - y * y) / r2 ** 2
    res = lamb_identity(mesh, u, v, w, curl_u=np.full(len(x), 2.0),
                        curl_v=np.zeros(len(x)), jac_w=jac)
    return res["relative"]


def _certify_level(sc1, delta, sc2_file) -> dict:
    if sc2_file is not None:
        sc2 = _align_pair(sc1, sc2_file)
    elif delta:
        sc2 = sc1.perturbed(**delta)
    else:
        sc2 = sc1
    basis = HarmonicBasis(sc1.mesh)
    traj1 = transport.run(sc1, basis)
    traj2 = transport.run(sc2, basis) if sc2 is not sc1 else traj1
    tw = TwinRun(traj1, traj2)
    energy = tw.energy_identity()
    aux = tw.aux_identity()
    return {"basis": basis, "tw": tw, "trajs": (traj1, traj2),
            "energy": energy, "aux": aux, "lamb": _lamb_on(sc1.mesh)}


def cmd_certify(args) -> int:
    sc1 = transport.load_scenario(args.scenario)
    sc2 = transport.load_scenario(args.pair) if args.pair else None
    delta = _perturbation(args)
    if args.refine < 1:
        raise UsageError(f"--refine must be a positive integer, got "
                         f"{args.refine}")
    if sc2 is not None and delta:
        raise UsageError("certify: give either a second scenario or "
                         "perturbation flags, not both")
    if args.refine > 1 and sc2 is not None:
        # a paired file only describes one mesh, so rates need the
        # perturbation form
        raise UsageError("certify: --refine needs a perturbation, "
                         "not a scenario pair")
    # every level's scenario before the first run, so that one which
    # cannot be refined fails first
    scs = [sc1.refined(2 ** lvl) if lvl else sc1
           for lvl in range(args.refine)]
    outdir = _outdir(args)
    levels = [_certify_level(scl, delta, sc2 if lvl == 0 else None)
              for lvl, scl in enumerate(scs)]

    fine = levels[-1]
    tw, (traj1, traj2) = fine["tw"], fine["trajs"]
    basis = fine["basis"]

    lines: list[str] = []
    ok = True
    scale = max(1.0, max(float(np.abs(s.omega).max(initial=0.0))
                         for s in traj1.states))
    for tag, tr in (("run1", traj1), ("run2", traj2)):
        ok &= _check(lines, f"{tag} max principle defect",
                     tr.max_principle_defect, 1e-11 * scale)
        ok &= _check(lines, f"{tag} vorticity budget defect",
                     tr.budget_defect, 1e-11 * scale)
        ok &= _check(lines, f"{tag} circulation bookkeeping",
                     transport.kelvin_consistency(tr), 1e-13)
    rtol = fem.DEFAULT_RTOL
    cds = [float(np.abs(c).max(initial=0.0)) for c in tw.C_d]
    rg_tol = 100 * rtol * max(1.0, max(cds, default=0.0))
    rg = 0.0
    for k in range(len(tw.times)):
        resid = zaremba.reversed_flux_residuals(tw.aux[k], basis,
                                                tw.C_d[k])
        rg = max(rg, float(resid.max(initial=0.0)))
    ok &= _check(lines, "reversed-flux law |D_i + C_i|", rg, rg_tol)
    diag = tw.psi_prime_diagnostic()
    ok &= _check(lines, "stream coefficient bound ratio",
                 diag["max_ratio"], 1.0 + 1e-9)
    ledger = tw.inequality_ledger()
    ok &= _check(lines, "growth ledger flagged rows",
                 float(len(ledger["flags"])), 0.0)

    rate_rows = []
    if len(levels) >= 2:
        for key in ("energy", "aux"):
            res = [abs(lv[key]["residual"]) for lv in levels]
            rates = [math.log2(max(res[i], 1e-300)
                               / max(res[i + 1], 1e-300))
                     for i in range(len(res) - 1)]
            rate_rows.append((key, res, rates))
        lres = [lv["lamb"] for lv in levels]
        lrates = [math.log2(max(lres[i], 1e-300)
                            / max(lres[i + 1], 1e-300))
                  for i in range(len(lres) - 1)]
        rate_rows.append(("lamb", lres, lrates))
        for key, res, rates in rate_rows:
            floor = 10 * rtol
            if max(res) <= floor:       # identical pair: nothing to rate
                lines.append(f"PASS {key} identity residual at solver "
                             f"floor ({max(res):.3e})")
                continue
            need = _IDENTITY_RATE_MIN if key != "lamb" else _LAMB_RATE_MIN
            got = min(rates)
            okr = got >= need
            ok &= okr
            lines.append(f"{'PASS' if okr else 'FAIL'} {key} identity "
                         f"rate: {got:.2f} (need >= {need})")
    else:
        for key in ("energy", "aux"):
            lines.append(f"info {key} identity relative residual: "
                         f"{abs(fine[key]['relative']):.3e}")
        lines.append(f"info lamb identity relative residual: "
                     f"{fine['lamb']:.3e}")

    header = ["interval", "p", "lhs_energy", "rhs_energy",
              "lhs_aux", "rhs_aux"]
    _write_csv(outdir / "ledger.csv", header,
               [[r[k] for k in header] for r in ledger["rows"]])
    chat = ledger["C_hat"]
    print(f"calibrated constants: energy {chat['energy']:.6g}, "
          f"aux {chat['aux']:.6g}")
    print("\n".join(lines))
    print(f"wrote {outdir / 'ledger.csv'}")
    print("certify:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


# -- stability ----------------------------------------------------------


def cmd_stability(args) -> int:
    sc = transport.load_scenario(args.scenario)
    try:
        ladder = [float(x) for x in args.ladder.split(",")]
    except ValueError:
        raise UsageError(f"--ladder expects comma separated numbers, "
                         f"got {args.ladder!r}") from None
    comp: int | list[int] | None
    if args.perturb is None:
        comp = None
    elif args.perturb == "all":
        comp = [c.comp for c in sc.mesh.components if c.comp != 0]
    else:
        try:
            comp = int(args.perturb)
        except ValueError:
            raise UsageError("--perturb takes a component id or 'all', "
                             f"got {args.perturb!r}") from None
    outdir = _outdir(args)

    rep = stability_experiment(sc, ladder, comp=comp)

    rows = []
    for i, rung in enumerate(rep.rungs):
        bound_T = rung.bound_series[-1] if rung.bound_series is not None \
            else math.nan
        rows.append([rung.delta, sc.T, rung.y_final, bound_T,
                     rep.beta, rung.C_hat, rung.y0, rung.a,
                     rung.bound_margin])
        if rung.times is not None:
            _write_csv(outdir / f"rung_{i:02d}.csv", ["t", "y", "bound"],
                       zip(rung.times, rung.y_series, rung.bound_series))
    _write_csv(outdir / "report.csv",
               ["delta", "T", "y_T", "bound_T", "beta_fit", "C_hat", "y0",
                "a", "bound_margin"], rows)

    failed = [r for r in rep.rungs if r.failed is not None]
    for r in failed:
        print(f"rung delta={r.delta:g} failed: {r.failed}")
    print(f"beta {rep.beta:.4f} (ok: {rep.beta_ok}), "
          f"C spread {rep.C_spread:.3f}, C deviation {rep.C_dev:.3f}")
    print(f"monotone y_T: {rep.monotone}, noise floor {NOISE_FLOOR:.1e}")
    print(f"wrote {outdir / 'report.csv'}")
    bounds_ok = all(r.bound_ok for r in rep.rungs if r.failed is None)
    beta_fail = math.isfinite(rep.beta) and not rep.beta_ok
    ok = bounds_ok and not failed and not beta_fail and rep.monotone
    print("stability:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


# -- parser -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="euler-ss",
        description="Incompressible flow through multiply connected "
                    "domains: simulation and certificate tooling.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    pm = sub.add_parser("mesh", help="generate, refine, or inspect meshes")
    msub = pm.add_subparsers(dest="mesh_cmd", required=True)
    pa = msub.add_parser("annulus", help="structured annulus")
    pa.add_argument("--r0", type=float, required=True)
    pa.add_argument("--r1", type=float, required=True)
    pa.add_argument("--nr", type=int, required=True)
    pa.add_argument("--ntheta", type=int, required=True)
    pa.add_argument("--roles", default="wall,wall",
                    help="outer,inner roles (default wall,wall)")
    pa.add_argument("-o", "--output", required=True)
    pr = msub.add_parser("refine", help="uniform refinement")
    pr.add_argument("input")
    pr.add_argument("--times", type=int, default=1)
    pr.add_argument("-o", "--output", required=True)
    pi = msub.add_parser("info", help="counts, topology, and quality")
    pi.add_argument("input")
    pm.set_defaults(func=cmd_mesh)

    ps = sub.add_parser("simulate", help="run one scenario")
    ps.add_argument("scenario")
    ps.add_argument("-o", "--output", required=True)
    ps.add_argument("--vtk", action="store_true",
                    help="also write per-snapshot VTK files")
    ps.set_defaults(func=cmd_simulate)

    pc = sub.add_parser("certify",
                        help="twin-run certificate suite on a scenario "
                             "pair or a scenario plus a perturbation")
    pc.add_argument("scenario")
    pc.add_argument("pair", nargs="?", default=None,
                    help="second scenario on the same mesh")
    pc.add_argument("--delta-c0", action="append", metavar="COMP=VAL",
                    help="perturb an initial circulation")
    pc.add_argument("--delta-omega0", type=float, default=None,
                    help="shift the initial vorticity by a constant")
    pc.add_argument("--delta-omega-in", action="append",
                    metavar="COMP=VAL", help="shift an inflow trace")
    pc.add_argument("--refine", type=int, default=1,
                    help="number of refinement levels for rate checks")
    pc.add_argument("-o", "--output", required=True)
    pc.set_defaults(func=cmd_certify)

    pt = sub.add_parser("stability", help="perturbation ladder experiment")
    pt.add_argument("scenario")
    pt.add_argument("--ladder", default="1e-1,1e-2,1e-3",
                    help="comma separated perturbation sizes")
    pt.add_argument("--perturb", default=None,
                    help="inner component id or 'all' (default: first "
                         "inner component)")
    pt.add_argument("-o", "--output", required=True)
    pt.set_defaults(func=cmd_stability)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4


def console_entry() -> None:
    """Run ``main`` on the command line and end the process with its code.

    Every output file is closed before ``main`` returns, so once stdout
    and stderr are flushed nothing is left for interpreter teardown to
    do but free modules, 0.05-0.13 s on a 2-vCPU machine once scipy is
    imported: ``os._exit`` skips it.  A reader that closed stdout early
    (``euler-ss mesh info m.mesh | head -1``) ends the process quietly
    with 141, the 128 + SIGPIPE a shell reports for a filter killed by
    SIGPIPE.  Any other exception escaping ``main`` or the flush
    (argparse's ``SystemExit`` included) takes the normal exit.
    """
    try:
        code = main()
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:      # None when the descriptor is closed
                stream.flush()
    except BrokenPipeError:
        code = 141
    os._exit(code)


if __name__ == "__main__":
    console_entry()
