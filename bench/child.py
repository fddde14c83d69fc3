"""Fresh-process probes started by bench/run.py.

  child.py setup SCENARIO
      import euler_ss.cli, load the scenario and build its harmonic basis:
      everything a run pays before its first step.
  child.py calibrate
      a fixed amount of work of the kind the CLI does, independent of the
      code under test: its wall time measures how fast the machine runs at
      the moment (see bench/README.md, "Machine speed").
  child.py trace OUT RUN_ID -- CLI_ARGS...
      run ``euler_ss.cli.main(CLI_ARGS)`` in this process with the tracer
      installed, write the spans and counts to OUT as JSON and exit with
      the CLI's exit code.

The package must be importable (bench/run.py puts the checkout's src/ on
PYTHONPATH).
"""

from __future__ import annotations

import json
import sys
import time

CALIBRATE_CG_ITERATIONS = 1500
CALIBRATE_LOOP = 100000


def setup(scenario: str) -> int:
    from euler_ss import cli  # noqa: F401  (the import is being timed)
    from euler_ss.hodge import HarmonicBasis
    from euler_ss.transport import load_scenario
    HarmonicBasis(load_scenario(scenario).mesh)
    return 0


def calibrate() -> int:
    import numpy as np
    import scipy.sparse as sp
    n = 96
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    a = (sp.kron(sp.eye(n), t) + sp.kron(t, sp.eye(n))).tocsr()
    # plain conjugate gradients for a fixed number of iterations, so the
    # work does not depend on rounding
    x = np.zeros(n * n)
    r = np.ones(n * n)
    p = r.copy()
    rr = r @ r
    for _ in range(CALIBRATE_CG_ITERATIONS):
        ap = a @ p
        alpha = rr / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        rr, rr_old = r @ r, rr
        p = r + (rr / rr_old) * p
    # per-element bookkeeping on small arrays, as in the time loop
    v = np.linspace(0.0, 1.0, 64)
    acc = 0.0
    for i in range(CALIBRATE_LOOP):
        acc += float(np.maximum(v * i, 0.5).sum())
    return 0 if np.isfinite(x).all() and np.isfinite(acc) else 1


def trace(out: str, run_id: str, argv: list[str]) -> int:
    from tracer import Tracer
    tracer = Tracer(run_id)
    start = time.perf_counter()
    from euler_ss import cli
    tracer.record("cli.import", start, time.perf_counter())
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w") as f:
            json.dump(tracer.dump(), f)
    return code


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        return setup(argv[1])
    if argv == ["calibrate"]:
        return calibrate()
    if argv[:1] == ["trace"] and argv[3:4] == ["--"]:
        return trace(argv[1], argv[2], argv[4:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
