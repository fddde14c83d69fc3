"""Median and quartiles of each metric over saved benchmark results.

    python3 bench/summarize.py [RESULTS_DIR]

Reads the result records bench/run.py writes (default
``.bench_work/results``), groups them by commit, workload and trace mode,
and prints for every metric the run count, median, and, from
MIN_QUARTILE_RUNS runs on, the first and third quartile and the spread
(q3 - q1) / median.  Runs of one group that used
different inputs for the same seed are reported, since their numbers are
not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# statistics.quantiles extrapolates beyond the data for fewer values
MIN_QUARTILE_RUNS = 4


def summarize(results: Path) -> dict:
    groups: dict = {}
    for path in sorted(results.glob("*.json")):
        if path.name.endswith("-spans.json"):
            continue
        res = json.loads(path.read_text())
        rec = res["record"]
        key = (str(rec["git_commit"]), res["workload"], f"trace{res['trace']}")
        g = groups.setdefault(key, {"runs": 0, "failed": 0, "metrics": {},
                                    "inputs": {}})
        g["runs"] += 1
        g["failed"] += res["failed"]
        g["inputs"].setdefault(str(res["seed"]), set()).add(
            rec["inputs_sha256"])
        for name, m in res["metrics"].items():
            g["metrics"].setdefault(name, ([], m["unit"]))[0].append(
                m["value"])
    out: dict = {}
    for (commit, workload, mode), g in sorted(groups.items()):
        stats = {}
        for name, (vals, unit) in g["metrics"].items():
            stats[name] = s = {"unit": unit, "n": len(vals),
                               "median": statistics.median(vals)}
            if len(vals) >= MIN_QUARTILE_RUNS:
                s["q1"], _, s["q3"] = statistics.quantiles(vals, n=4)
                s["spread"] = (s["q3"] - s["q1"]) / s["median"] \
                    if s["median"] else None
        out.setdefault(commit, {}).setdefault(workload, {})[mode] = {
            "runs": g["runs"], "failed": g["failed"],
            "mixed_inputs": sorted(s for s, h in g["inputs"].items()
                                   if len(h) > 1),
            "metrics": stats}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("results", nargs="?", type=Path,
                    default=ROOT / ".bench_work" / "results")
    args = ap.parse_args(argv)
    summary = summarize(args.results)
    for commit, workloads in summary.items():
        for workload, modes in workloads.items():
            for mode, g in modes.items():
                print(f"# {commit[:12]} {workload} {mode}: {g['runs']} runs, "
                      f"{g['failed']} failed invocations")
                if g["mixed_inputs"]:
                    print(f"  seeds with differing inputs: "
                          f"{', '.join(g['mixed_inputs'])}")
                for name, s in g["metrics"].items():
                    line = f"  {name:<38} {s['median']:>12.6g} {s['unit']:<6}"
                    if "q1" in s:
                        spread = "-" if s["spread"] is None \
                            else f"{s['spread']:.3f}"
                        line += (f" q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                                 f"spread {spread}")
                    print(f"{line} n {s['n']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
