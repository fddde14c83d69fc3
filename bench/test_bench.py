"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run as bench  # noqa: E402
from tracer import COUNT_METRICS, Tracer, layer_metrics  # noqa: E402

TINY = {name: w.smoke() for name, w in bench.WORKLOADS.items()}


def _run(tmp_path: Path, name: str, seed: int = 0) -> bench.Run:
    w = TINY[name]
    return bench.Run(w, seed, tmp_path, bench.generate_inputs(w, seed,
                                                             tmp_path),
                     reference=False)


def test_inputs_depend_only_on_seed(tmp_path):
    w = TINY["transport_long"]
    a = bench.generate_inputs(w, 3, tmp_path / "a")
    b = bench.generate_inputs(w, 3, tmp_path / "b")
    c = bench.generate_inputs(w, 4, tmp_path / "c")
    assert a == b
    assert a["sha256"] != c["sha256"]
    for name in ("scenario.json", "omega0.txt"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()


def test_bad_input_counts_as_failure(tmp_path):
    run = _run(tmp_path, "simulate_fine")
    doc = json.loads(run.scenario.read_text())
    # outflow on the outer circle with inward g: the sign condition fails
    doc["g"] = {"0": {"type": "constant", "value": -0.25},
                "1": {"type": "constant", "value": 0.5}}
    run.scenario.write_text(json.dumps(doc))
    proc = run.invoke()
    assert proc.code == 3
    assert run.attempted == 1
    assert run.failures == [{"invocation": "cli0",
                             "problems": ["exit code 3"]}]


@pytest.mark.parametrize("name", sorted(TINY))
def test_counts_repeat_across_traced_runs(tmp_path, name):
    run = _run(tmp_path, name, seed=5)
    traces = []
    for _ in range(2):
        proc, trace = run.traced()
        assert proc.code == 0 and trace is not None
        traces.append(trace)
    assert run.failures == []
    first, second = (layer_metrics(t, 1.0) for t in traces)
    assert first["transport.steps"] > 0
    assert {k: first[k] for k in COUNT_METRICS} \
        == {k: second[k] for k in COUNT_METRICS}
    assert traces[0]["counts"] == traces[1]["counts"]
    assert traces[0]["run_steps"] == traces[1]["run_steps"]


def test_tracer_wraps_where_callers_look_up_and_restores():
    import euler_ss.cli as cli
    import euler_ss.fem as fem
    from euler_ss.certificates import TwinRun
    before = (cli.stability_experiment, fem.solve_dirichlet,
              TwinRun.__dict__["__init__"])
    tracer = Tracer("restore")
    tracer.install()
    try:
        assert cli.stability_experiment is not before[0]
        assert fem.solve_dirichlet is not before[1]
        assert TwinRun.__dict__["__init__"] is not before[2]
    finally:
        tracer.uninstall()
    assert (cli.stability_experiment, fem.solve_dirichlet,
            TwinRun.__dict__["__init__"]) == before


def test_smoke_prints_every_metric():
    assert bench.smoke(bench.load_spec(), seed=0) == 0
