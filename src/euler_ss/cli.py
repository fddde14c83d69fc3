"""Batch entry points: mesh tools, simulation runs, certificate suites,
and the perturbation-ladder experiment.

Everything is written as CSV or legacy VTK for offline plotting; there is
no interactive mode.  Invocations are deterministic: the
same command on the same inputs produces byte-identical files.

Exit codes: 0 success, 1 failed certificate checks, 2 usage or
configuration errors, 3 precondition violations, 4 solver failures.
``main`` returns the code; ``console_entry`` (the ``euler-ss`` script and
``python -m euler_ss.cli``) exits the process with it.

BLAS runs on one thread: unless the caller sets ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS``, importing this module before
numpy sets all three to 1.  Nothing here is threaded, each BLAS thread
pool costs start-up time, and one thread keeps BLAS sums independent of
the machine's core count.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and os.environ.keys().isdisjoint(_THREAD_VARS):
    os.environ.update(dict.fromkeys(_THREAD_VARS, "1"))

import numpy as np  # noqa: E402

from . import fem, transport, zaremba
from .certificates import TwinRun, lamb_check
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
        lines.append(",".join(
            str(int(v)) if isinstance(v, (int, np.integer)) else _g17(v)
            for v in row))
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
    for c, role in zip(m.components, m.roles().values()):
        print(f"  component {c.comp}: role={role}, "
              f"edges={len(c.edges)}, length={c.total_length:.6g}")
    print(f"min angle: {_min_angle_deg(m):.2f} deg")
    return 0


# -- simulate -----------------------------------------------------------


def _write_snapshots(outdir: Path, traj: transport.Trajectory) -> None:
    for k in range(len(traj.times)):
        fem.write_vtk(outdir / f"snap_{k:03d}.vtk", traj.mesh,
                      point_data={"stream": traj.psi[k]},
                      cell_data={"vorticity": traj.omega[k],
                                 "velocity": traj.velocity(k)})


def cmd_simulate(args) -> int:
    sc = transport.load_scenario(args.scenario)
    traj = transport.run(sc)
    outdir = _outdir(args)
    transport.write_trajectory_csv(traj, outdir / "trajectory.csv")
    if args.vtk:
        _write_snapshots(outdir, traj)
    last = traj.omega[-1]
    print(f"ran {traj.total_steps} steps to t={traj.times[-1]:.6g} "
          f"({len(traj.times)} snapshots)")
    print(f"final energy {traj.energy[-1]:.12g}, "
          f"vorticity range [{last.min():.6g}, {last.max():.6g}]")
    print(f"max principle defect {traj.max_principle_defect:.3e}, "
          f"budget defect {traj.budget_defect:.3e}")
    print(f"through-flow divergence defect {traj.flux.div_defect:.3e}")
    print(f"wrote {outdir / 'trajectory.csv'}")
    return 0


# -- certify ------------------------------------------------------------


def _comp_values(texts: list[str], flag: str) -> dict[int, float]:
    """The COMP=VALUE arguments of a repeated flag, one per component."""
    out: dict[int, float] = {}
    for text in texts:
        comp, sep, val = text.partition("=")
        if not sep:
            raise UsageError(f"{flag} expects COMP=VALUE, got {text!r}")
        try:
            cid, value = int(comp), float(val)
        except ValueError:
            raise UsageError(f"{flag} expects COMP=VALUE with an integer "
                             f"component and numeric value, got {text!r}") \
                from None
        if cid in out:
            raise UsageError(f"{flag}: component {cid} given twice")
        out[cid] = value
    return out


def _align_pair(sc1: transport.Scenario,
                sc2: transport.Scenario) -> transport.Scenario:
    """``sc2`` on the mesh object of ``sc1`` (twins must share it), checked
    before either run against what ``TwinRun`` needs of a pair: each
    boundary component keeps its id, role and loop from the same start
    (g's arclength origin), and ``Scenario.twin_mismatch`` finds nothing."""
    m1, m2 = sc1.mesh, sc2.mesh
    same = np.array_equal(m1.vertices, m2.vertices) \
        and np.array_equal(m1.triangles, m2.triangles) \
        and np.array_equal(m1.edge_comp, m2.edge_comp) \
        and np.array_equal(m1.edge_role, m2.edge_role) \
        and all(np.array_equal(c1.edge_ids, c2.edge_ids)
                for c1, c2 in zip(m1.components, m2.components))
    if not same:
        raise UsageError("certify: the two scenarios describe different "
                         "meshes")
    sc2 = replace(sc2, mesh=m1)
    mismatch = sc1.twin_mismatch(sc2)
    if mismatch is not None:
        raise UsageError(f"certify: the two scenarios have different "
                         f"{mismatch}")
    return sc2


def _perturbation(args) -> dict:
    delta = {}
    if args.delta_c0:
        delta["C0"] = _comp_values(args.delta_c0, "--delta-c0")
    if args.delta_omega0 is not None:
        delta["omega0"] = args.delta_omega0
    if args.delta_omega_in:
        delta["omega_in"] = _comp_values(args.delta_omega_in,
                                         "--delta-omega-in")
    return delta


_RATE_MIN = 0.9     # least convergence rate of every identity residual


def _certify_level(sc1, delta, sc2) -> dict:
    """One level of ``certify``: the twin of ``sc1`` and its aligned pair
    ``sc2``, or of ``sc1`` and its perturbation when ``sc2`` is None."""
    if sc2 is None:
        sc2 = sc1.perturbed(**delta) if delta else sc1
    lamb = lamb_check(sc1.mesh)["relative"]
    basis = HarmonicBasis(sc1.mesh)
    traj1 = transport.run(sc1, basis)
    traj2 = transport.run(sc2, basis) if sc2 is not sc1 else traj1
    tw = TwinRun(traj1, traj2)
    energy = tw.energy_identity()
    aux = tw.aux_identity()
    return {"basis": basis, "tw": tw, "trajs": (traj1, traj2),
            "energy": energy, "aux": aux, "lamb": lamb}


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
    if sc2 is not None:
        sc2 = _align_pair(sc1, sc2)
    # every level's scenario before the first run, so that one which
    # cannot be refined fails first
    scs = [sc1.refined(2 ** lvl) if lvl else sc1
           for lvl in range(args.refine)]
    # the rate checks read only the residuals of a coarser level: keep
    # those, and free its basis, runs and twin before the next level runs
    levels = []
    for lvl, scl in enumerate(scs):
        fine = None     # frees the coarser level before this one runs
        fine = _certify_level(scl, delta, sc2 if lvl == 0 else None)
        levels.append({"energy": abs(fine["energy"]["residual"]),
                       "aux": abs(fine["aux"]["residual"]),
                       "lamb": fine["lamb"]})
    outdir = _outdir(args)      # a failed run above leaves no directory

    tw, (traj1, traj2) = fine["tw"], fine["trajs"]
    basis = fine["basis"]

    lines: list[str] = []
    ok = True
    scale = max(1.0, float(np.abs(traj1.omega).max(initial=0.0)))
    for tag, tr in (("run1", traj1), ("run2", traj2)):
        ok &= _check(lines, f"{tag} max principle defect",
                     tr.max_principle_defect, 1e-11 * scale)
        ok &= _check(lines, f"{tag} vorticity budget defect",
                     tr.budget_defect, 1e-11 * scale)
        ok &= _check(lines, f"{tag} circulation bookkeeping",
                     transport.kelvin_consistency(tr), 1e-13)
    lines.append(f"info through-flow divergence defect "
                 f"{traj1.flux.div_defect:.3e}")
    rtol = fem.DEFAULT_RTOL
    rg_tol = 100 * rtol * max(1.0, float(np.abs(tw.C_d).max(initial=0.0)))
    rg = float(zaremba.reversed_flux_residuals(tw.D, basis, tw.C_d)
               .max(initial=0.0))
    ok &= _check(lines, "reversed-flux law |D_i + C_i|", rg, rg_tol)
    diag = tw.psi_prime_diagnostic()
    ok &= _check(lines, "stream coefficient bound ratio",
                 diag["max_ratio"], 1.0 + 1e-9)
    ledger = tw.inequality_ledger()
    ok &= _check(lines, "growth ledger flagged rows",
                 float(len(ledger["flags"])), 0.0)

    if len(levels) >= 2:
        for key in ("energy", "aux", "lamb"):
            res = [lv[key] for lv in levels]
            if max(res) <= 10 * rtol:   # identical pair: nothing to rate
                lines.append(f"PASS {key} identity residual at solver "
                             f"floor ({max(res):.3e})")
                continue
            got = min(math.log2(max(coarse, 1e-300) / max(finer, 1e-300))
                      for coarse, finer in zip(res, res[1:]))
            okr = got >= _RATE_MIN
            ok &= okr
            lines.append(f"{'PASS' if okr else 'FAIL'} {key} identity "
                         f"rate: {got:.2f} (need >= {_RATE_MIN})")
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
    comp = None
    if args.perturb == "all":
        comp = [c.comp for c in sc.mesh.components if c.comp != 0]
    elif args.perturb is not None:
        try:
            comp = [int(args.perturb)]
        except ValueError:
            raise UsageError("--perturb takes a component id or 'all', "
                             f"got {args.perturb!r}") from None

    rep = stability_experiment(sc, ladder, comp=comp)
    outdir = _outdir(args)      # a usage error above leaves no directory

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
