"""End-to-end and per-layer benchmark of the euler-ss command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Each run writes a seeded ``scenario.json`` and ``omega0.txt`` for the
workload, then runs the CLI on them the way a user does: one fresh
``python3 -m euler_ss.cli`` process at a time (a closed loop with one
client), checking every invocation's outputs.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: means over
rounds of a calibration, a set-up probe and a CLI invocation, with times
scaled to a reference machine speed by the calibration.
``--trace 1`` alternates untraced invocations with traced ones (the CLI
called in process with bench/tracer.py installed) and reports the
per-layer metrics.  The last line of standard output is one JSON object;
the full record of the run, with the input hash, is written under
``.bench_work/results/``.

``--smoke`` runs every workload once at a tiny size through the same code
and fails unless every metric of BENCHMARK.json is printed with its unit.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

DEFAULT_SEED = 0
MIN_ROUNDS = 3            # calibration, set-up and CLI rounds per trace-0 run
MIN_INVOCATIONS = 2       # traced CLI invocations per trace-1 run, at least
# Mean wall time of ``child.py calibrate`` on the baseline machine: trace-0
# times are scaled to the machine speed at which the calibration takes this
# long (README.md, "Machine speed").
CALIBRATION_REF_S = 1.0
CHILD_TIMEOUT_S = 150.0
# trajectory.csv on the default seed must match bench/reference/ to
# REF_TOL_FACTOR * fem.DEFAULT_RTOL * max(1, max |reference column|); the
# CLI runs at DEFAULT_RTOL (child_env drops EULER_SS_RTOL).  See README.md.
REF_TOL_FACTOR = 10.0
LADDER = "1e-3,3e-3,1e-2,3e-2,1e-1"
LEDGER_EXPONENTS = 5      # rows per interval in certify's ledger.csv
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """Fixed scenario and CLI invocation; only the seeded data varies."""

    name: str
    command: str               # simulate | certify | stability
    nr: int
    ntheta: int
    T: float
    snapshots: int
    scheme: str = "euler"
    tabulated: bool = False    # seeded g_multiplier and omega_in tables
    flags: tuple = ()

    def smoke(self) -> "Workload":
        return replace(self, name=f"{self.name}-smoke", nr=4, ntheta=16,
                       T=min(self.T, 1.0),
                       snapshots=min(self.snapshots, 4))


WORKLOADS = {w.name: w for w in (
    Workload("simulate_fine", "simulate", 64, 256, 0.5, 6,
             flags=("--vtk",)),
    Workload("transport_long", "simulate", 16, 64, 8.0, 16, scheme="rk2",
             tabulated=True),
    Workload("certify_ledger", "certify", 32, 128, 0.2, 48,
             flags=("--delta-c0", "1=0.1")),
    Workload("stability_ladder", "stability", 32, 128, 0.5, 6,
             flags=("--ladder", LADDER, "--perturb", "1")),
)}


# -- inputs -------------------------------------------------------------


def generate_inputs(w: Workload, seed: int, dest: Path) -> dict:
    """Write scenario.json and omega0.txt for ``w`` into ``dest``.

    The seed picks the vorticity modulation band(r) (1 + a cos(k theta +
    theta0)) and, on tabulated workloads, the g_multiplier and omega_in
    tables.  Mesh, T, cfl and snapshot count are fixed per workload.
    """
    import numpy as np
    from euler_ss.mesh import generate_annulus

    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    a = float(rng.uniform(0.1, 0.3))
    theta0 = float(rng.uniform(0.0, 2.0 * np.pi))
    mesh = generate_annulus(1.0, 2.0, w.nr, w.ntheta)
    x, y = mesh.centroid[:, 0], mesh.centroid[:, 1]
    r = np.hypot(x, y)
    band = ((r >= 1.25) & (r <= 1.75)).astype(float)
    omega0 = band * (1.0 + a * np.cos(k * np.arctan2(y, x) + theta0))

    doc = {
        "mesh": {"annulus": {"r0": 1.0, "r1": 2.0, "nr": w.nr,
                             "ntheta": w.ntheta,
                             "roles": ["outflow", "inflow"]}},
        "omega0": {"type": "file", "path": "omega0.txt"},
        "C0": {"1": 0.3},
        "g": {"0": {"type": "constant", "value": 0.25},
              "1": {"type": "constant", "value": -0.5}},
        "omega_in": {"1": {"type": "constant", "value": 0.8}},
        "T": w.T, "cfl": 0.4, "snapshots": w.snapshots, "scheme": w.scheme,
    }
    if w.tabulated:
        times = [float(t) for t in np.linspace(0.0, w.T, 9)]
        doc["g_multiplier"] = {
            "type": "tabulated", "times": times,
            "values": [float(v) for v in rng.uniform(0.95, 1.05, 9)]}
        doc["omega_in"]["1"] = {
            "type": "tabulated", "times": times,
            "values": [float(v) for v in rng.uniform(0.75, 0.85, 9)]}

    dest.mkdir(parents=True, exist_ok=True)
    scenario = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    omega_txt = "".join(f"{v:.17g}\n" for v in omega0)
    (dest / "scenario.json").write_text(scenario)
    (dest / "omega0.txt").write_text(omega_txt)
    digest = hashlib.sha256((scenario + omega_txt).encode()).hexdigest()
    return {"sha256": digest, "V": mesh.num_vertices,
            "cells": mesh.num_triangles, "k": k, "a": a, "theta0": theta0}


def cli_args(w: Workload, scenario: Path, out: Path) -> list[str]:
    return [w.command, str(scenario), "-o", str(out), *w.flags]


# -- processes ----------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("EULER_SS_RTOL", None)   # the default tolerance is timed and checked
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


@dataclass
class Proc:
    wall_s: float
    code: int | None           # None: killed at the timeout
    peak_rss_mb: float
    stdout: str


def spawn(argv: list[str], cwd: Path, log: Path) -> Proc:
    """Run ``argv`` to completion; wall time from start to exit and the
    child's own peak resident memory (from wait4)."""
    with open(log, "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Proc(wall_s=wall, code=None if code < 0 else code,
                peak_rss_mb=usage.ru_maxrss / 1024.0,
                stdout=log.read_text(errors="replace"))


# -- output checks ------------------------------------------------------


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _check_reference(w: Workload, header, rows) -> list[str]:
    from euler_ss.fem import DEFAULT_RTOL
    ref_header, ref_rows = _read_csv(BENCH / "reference" / f"{w.name}.csv")
    if header != ref_header or len(rows) != len(ref_rows):
        return ["trajectory.csv layout differs from the reference"]
    bad = []
    for j, name in enumerate(header):
        ref = [r[j] for r in ref_rows]
        tol = REF_TOL_FACTOR * DEFAULT_RTOL \
            * max(1.0, max(abs(v) for v in ref))
        err = max(abs(r[j] - v) for r, v in zip(rows, ref))
        if not err <= tol:
            bad.append(f"column {name} differs from the reference by "
                       f"{err:.3e} (tol {tol:.1e})")
    return bad


def check_outputs(w: Workload, out: Path, proc: Proc,
                  reference: bool) -> list[str]:
    """Problems with one invocation's outputs; empty when it passed."""
    if proc.code != 0:
        return [f"exit code {proc.code}"]
    lines = proc.stdout.strip().splitlines()
    if w.command == "simulate":
        path = out / "trajectory.csv"
        if not path.is_file():
            return ["missing trajectory.csv"]
        header, rows = _read_csv(path)
        problems = []
        if len(rows) != w.snapshots + 1:
            problems.append(f"trajectory.csv has {len(rows)} rows, "
                            f"expected {w.snapshots + 1}")
        m = re.search(r"max principle defect (\S+), budget defect (\S+)",
                      proc.stdout)
        if m is None:
            return problems + ["no defect line in the output"]
        lo, hi = header.index("vort_min"), header.index("vort_max")
        scale = max([1.0] + [max(abs(r[lo]), abs(r[hi])) for r in rows])
        for what, val in zip(("max principle", "budget"), m.groups()):
            if not float(val) <= 1e-11 * scale:
                problems.append(f"{what} defect {val} above "
                                f"{1e-11 * scale:.1e}")
        if "--vtk" in w.flags:
            missing = [k for k in range(w.snapshots + 1)
                       if not (out / f"snap_{k:03d}.vtk").is_file()]
            if missing:
                problems.append(f"missing VTK snapshots {missing}")
        if reference:
            problems += _check_reference(w, header, rows)
        return problems
    if w.command == "certify":
        table, expected = "ledger.csv", w.snapshots * LEDGER_EXPONENTS
    else:
        table, expected = "report.csv", len(LADDER.split(","))
    problems = []
    if not lines or lines[-1] != f"{w.command}: PASS":
        problems.append(f"no final '{w.command}: PASS' line")
    if not (out / table).is_file():
        return problems + [f"missing {table}"]
    _, rows = _read_csv(out / table)
    if len(rows) != expected:
        problems.append(f"{table} has {len(rows)} rows, expected {expected}")
    return problems


# -- one run ------------------------------------------------------------


@dataclass
class Run:
    """State of one benchmark run: its inputs, samples and failures."""

    w: Workload
    seed: int
    work: Path
    inputs: dict
    reference: bool
    attempted: int = 0
    failures: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)

    @property
    def scenario(self) -> Path:
        return self.work / "scenario.json"

    def _checked(self, proc: Proc, out: Path, label: str) -> Proc:
        self.attempted += 1
        problems = check_outputs(self.w, out, proc, self.reference)
        if problems:
            self.failures.append({"invocation": label,
                                  "problems": problems})
        shutil.rmtree(out, ignore_errors=True)
        return proc

    def invoke(self) -> Proc:
        """One untraced CLI invocation in a fresh process."""
        i = self.attempted
        out = self.work / f"out{i}"
        proc = spawn([sys.executable, "-m", "euler_ss.cli",
                      *cli_args(self.w, self.scenario, out)],
                     self.work, self.work / f"cli{i}.log")
        return self._checked(proc, out, f"cli{i}")

    def traced(self) -> tuple[Proc, dict | None]:
        """One CLI invocation in a fresh process with the tracer installed;
        returns the process and its trace (None if none was written)."""
        i = self.attempted
        out = self.work / f"out{i}"
        spans = self.work / f"trace{i}.json"
        run_id = f"{self.w.name}-seed{self.seed}-{i}"
        proc = spawn([sys.executable, str(BENCH / "child.py"), "trace",
                      str(spans), run_id, "--",
                      *cli_args(self.w, self.scenario, out)],
                     self.work, self.work / f"trace{i}.log")
        self._checked(proc, out, f"trace{i}")
        if not spans.is_file():
            return proc, None
        return proc, json.loads(spans.read_text())

    def probe(self, *args: str) -> float:
        """Wall time of one fresh ``bench/child.py`` process: ``setup
        SCENARIO`` (the set-up probe) or ``calibrate``."""
        i = self.attempted
        self.attempted += 1
        label = f"{args[0]}{i}"
        proc = spawn([sys.executable, str(BENCH / "child.py"), *args],
                     self.work, self.work / f"{label}.log")
        if proc.code != 0:
            self.failures.append({"invocation": label,
                                  "problems": [f"exit code {proc.code}"]})
        return proc.wall_s

    def transport_steps(self, proc: Proc | None) -> list[int]:
        """Steps of each transport run in one invocation: printed by
        simulate, counted by a traced invocation otherwise."""
        if self.w.command == "simulate":
            m = re.search(r"^ran (\d+) steps", proc.stdout if proc else "",
                          re.M)
            return [int(m.group(1))] if m else []
        _, trace = self.traced()
        return trace["run_steps"] if trace else []


def measure_end_to_end(run: Run, seconds: float, min_rounds: int) -> dict:
    """Rounds of one calibration, one set-up probe and one CLI invocation
    until ``seconds`` have passed.  Times are means over the rounds, which
    weigh every second of the run alike, scaled by CALIBRATION_REF_S over
    the mean calibration time (see README.md, "Machine speed")."""
    start = time.perf_counter()
    steps = None if run.w.command == "simulate" else run.transport_steps(None)
    cal, setup, procs = [], [], []
    while len(procs) < min_rounds or time.perf_counter() - start \
            + statistics.median(cal) + statistics.median(setup) \
            + statistics.median(p.wall_s for p in procs) <= seconds:
        cal.append(run.probe("calibrate"))
        setup.append(run.probe("setup", str(run.scenario)))
        procs.append(run.invoke())
    if steps is None:
        steps = run.transport_steps(procs[0])
    run.samples["calibration_s"] = cal
    run.samples["setup_s"] = setup
    run.samples["wall_s"] = [p.wall_s for p in procs]
    run.samples["peak_rss_mb"] = [p.peak_rss_mb for p in procs]
    run.samples["transport_steps"] = steps
    scale = CALIBRATION_REF_S / statistics.fmean(cal)
    wall = statistics.fmean(run.samples["wall_s"]) * scale
    setup_s = statistics.fmean(setup) * scale
    work = run.inputs["cells"] * sum(steps)
    return {"wall_s": wall, "setup_s": setup_s,
            "cell_steps_per_s": work / (wall - setup_s)
            if wall > setup_s else 0.0,
            "peak_rss_mb": statistics.median(run.samples["peak_rss_mb"])}


def measure_layers(run: Run, seconds: float,
                   min_invocations: int) -> tuple[dict, dict | None]:
    """Per-layer medians over traced invocations, and the last trace.

    One untraced invocation and ``min_invocations`` traced ones, so the
    check that counts repeat across them can fail on every workload; then
    rounds of one untraced and one traced invocation until ``seconds``
    have passed."""
    from tracer import COUNT_METRICS, layer_metrics
    start = time.perf_counter()
    plain, traced, per_trace, last = [run.invoke().wall_s], [], [], None
    while len(traced) < min_invocations or time.perf_counter() - start \
            + plain[-1] + traced[-1] <= seconds:
        if len(traced) >= min_invocations:
            plain.append(run.invoke().wall_s)
        proc, trace = run.traced()
        traced.append(proc.wall_s)
        if trace is not None:
            per_trace.append(layer_metrics(trace, proc.wall_s))
            last = trace
    run.samples["wall_s"] = plain
    run.samples["traced_wall_s"] = traced
    if last is not None:
        run.samples["transport_steps"] = last["run_steps"]
    if not per_trace:
        return {}, None
    for name in COUNT_METRICS:
        if len({m[name] for m in per_trace}) > 1:
            run.failures.append({"invocation": "trace", "problems": [
                f"{name} differs between traced invocations"]})
    metrics = {name: statistics.median(m[name] for m in per_trace)
               for name in per_trace[0]}
    metrics["trace_overhead_s"] = statistics.median(traced) \
        - statistics.median(plain)
    return metrics, last


# -- run record and report ----------------------------------------------


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return res.stdout.strip() or None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_record(run: Run) -> dict:
    import numpy
    import scipy
    return {
        "git_commit": _git_commit(),
        "seed": run.seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": run.w.name,
        "V": run.inputs["V"],
        "cells": run.inputs["cells"],
        "transport_steps": run.samples.get("transport_steps"),
        "inputs_sha256": run.inputs["sha256"],
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(result: dict, spec: dict) -> str:
    """Human-readable lines: every metric by name with its unit."""
    kind = "per_layer" if result["trace"] else "end_to_end"
    lines = [f"# {result['workload']} seed {result['seed']} trace "
             f"{result['trace']}: {result['attempted']} processes, "
             f"{result['failed']} failed"]
    for m in spec[kind]:
        val = result["metrics"].get(m["name"], {}).get("value")
        lines.append(f"{m['name']:<38} {val!r:>24} {m['unit']}")
    lines.append(f"{'fail_ratio':<38} "
                 f"{result['failed'] / result['attempted']!r:>24} ratio")
    if "calibration_s" in result["samples"]:
        for name in ("calibration_s", "wall_s", "setup_s"):
            val = statistics.fmean(result["samples"][name])
            lines.append(f"{name + ' (unscaled mean)':<38} {val!r:>24} s")
    for f in result["failures"]:
        lines.append(f"FAILED {f['invocation']}: {'; '.join(f['problems'])}")
    return "\n".join(lines)


def measure(w: Workload, seed: int, seconds: float, trace: bool,
            spec: dict, min_rounds: int = MIN_ROUNDS,
            min_invocations: int = MIN_INVOCATIONS,
            reference: bool = True) -> dict:
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{w.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = Run(w, seed, work, generate_inputs(w, seed, work),
                  reference=reference and seed == DEFAULT_SEED)
        last_trace = None
        if trace:
            values, last_trace = measure_layers(run, seconds,
                                                min_invocations)
        else:
            values = measure_end_to_end(run, seconds, min_rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    kind = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind] if m["name"] in values}
    failed = len({f["invocation"] for f in run.failures})
    result = {"workload": w.name, "seed": seed, "trace": int(trace),
              "record": run_record(run), "samples": run.samples,
              "failures": run.failures, "attempted": run.attempted,
              "failed": failed, "metrics": metrics,
              "correct": failed == 0 and len(metrics) == len(spec[kind])}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{seed}-trace{int(trace)}-{time.time_ns()}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if last_trace is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(last_trace))
    return result


# -- entry points -------------------------------------------------------


def smoke(spec: dict, seed: int) -> int:
    """Every workload once at a tiny size, untraced and traced; fails
    unless each metric of BENCHMARK.json is printed with its unit."""
    ok = True
    for w in WORKLOADS.values():
        for trace in (False, True):
            res = measure(w.smoke(), seed, 0.0, trace, spec, min_rounds=1,
                          min_invocations=1, reference=False)
            text = report(res, spec)
            print(text)
            kind = "per_layer" if trace else "end_to_end"
            for m in spec[kind]:
                if not re.search(rf"^{re.escape(m['name'])} .* "
                                 rf"{re.escape(m['unit'])}$", text, re.M):
                    print(f"smoke: {m['name']} not printed with unit "
                          f"{m['unit']}", file=sys.stderr)
                    ok = False
            ok &= res["correct"]
    print("smoke:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def record_references() -> int:
    """Write bench/reference/<workload>.csv: the trajectory of each simulate
    workload on the default seed, against which later runs are checked."""
    for w in WORKLOADS.values():
        if w.command != "simulate":
            continue
        work = WORK / f"reference-{w.name}"
        shutil.rmtree(work, ignore_errors=True)
        generate_inputs(w, DEFAULT_SEED, work)
        out = work / "out"
        proc = spawn([sys.executable, "-m", "euler_ss.cli",
                      *cli_args(w, work / "scenario.json", out)],
                     work, work / "cli.log")
        if proc.code != 0:
            print(f"{w.name}: exit code {proc.code}", file=sys.stderr)
            return 1
        dest = BENCH / "reference" / f"{w.name}.csv"
        dest.parent.mkdir(exist_ok=True)
        shutil.copyfile(out / "trajectory.csv", dest)
        shutil.rmtree(work)
        print(f"wrote {dest}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite bench/reference/ from this checkout")
    args = ap.parse_args(argv)
    if not (SRC / "euler_ss" / "cli.py").is_file():
        print(f"error: no euler_ss package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    if args.smoke:
        return smoke(spec, args.seed)
    if args.record_reference:
        return record_references()
    if args.workload is None:
        ap.error("--workload is required (or --smoke)")
    res = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace), spec)
    print(report(res, spec))
    print("record", json.dumps(res["record"]))
    print(json.dumps({k: res[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
