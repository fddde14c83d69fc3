"""Outside-in tracer for the euler_ss package.

The tracer times calls into each module's public functions without
touching the package source: it replaces module attributes and class
methods in the running process and restores them on ``uninstall``.  A
function is replaced in every ``euler_ss`` module that holds it under its
name, because a caller looks a function up in its own namespace (``cli``
imports ``TwinRun`` and ``stability_experiment`` by name); methods are
replaced on their class.

Each wrapped call records a span (id, parent id, group, start, end, self
time) in memory.  Self time is the span's duration minus the part of it
that child spans cover.  Spans nest on one stack, which holds because the
CLI runs single-threaded at its default settings.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

LAYERS = ("mesh", "fem", "hodge", "transport", "zaremba", "certificates",
          "osgood", "cli")


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module.name`` (``Class.method`` for a
    method), the span group it reports under (``<layer>.<part>``), and
    whether it opens a span or is only counted."""

    module: str
    name: str
    group: str
    span: bool = True


TARGETS = (
    Target("mesh", "Mesh.__init__", "mesh.build"),
    Target("mesh", "generate_annulus", "mesh.build"),
    Target("mesh", "uniform_refine", "mesh.build"),
    Target("mesh", "load_mesh", "mesh.build"),
    Target("mesh", "Mesh.component_nodes", "mesh.component_nodes",
           span=False),
    Target("fem", "StiffnessOperator.__init__", "fem.stiffness"),
    Target("fem", "solve_dirichlet", "fem.green_solve"),
    Target("fem", "solve_constrained", "fem.mixed_solve"),
    Target("fem", "solve_mixed", "fem.mixed_solve"),
    Target("fem", "solve_neumann", "fem.neumann_solve"),
    Target("fem", "consistent_flux", "fem.flux"),
    Target("fem", "velocity_gradient", "fem.velocity_gradient"),
    Target("fem", "write_vtk", "fem.vtk"),
    Target("hodge", "HarmonicBasis.__init__", "hodge.basis"),
    Target("hodge", "reconstruct_velocity", "hodge.reconstruct"),
    Target("transport", "load_scenario", "transport.scenario"),
    Target("transport", "Scenario.perturbed", "transport.scenario"),
    Target("transport", "run", "transport.loop"),
    Target("transport", "FluxAssembler.__init__", "transport.flux_setup"),
    Target("transport", "FluxAssembler.fluxes", "transport.kernel"),
    Target("transport", "FluxAssembler.stable_dt", "transport.kernel"),
    Target("transport", "FluxAssembler.upwind_rates", "transport.kernel"),
    Target("transport", "kelvin_consistency", "transport.check"),
    # the trajectory CSV is written by the CLI's output step
    Target("transport", "write_trajectory_csv", "cli.output"),
    Target("zaremba", "solve_auxiliary", "zaremba.aux"),
    Target("zaremba", "reversed_flux_residuals", "zaremba.check"),
    Target("certificates", "TwinRun.__init__", "certificates.twin"),
    Target("certificates", "TwinRun.energy_identity",
           "certificates.identity"),
    Target("certificates", "TwinRun.aux_identity", "certificates.identity"),
    Target("certificates", "TwinRun.inequality_ledger",
           "certificates.ledger"),
    Target("certificates", "TwinRun.psi_prime_diagnostic",
           "certificates.check"),
    Target("certificates", "lamb_identity", "certificates.check"),
    Target("osgood", "stability_experiment", "osgood.self"),
    Target("cli", "main", "cli.main"),
    Target("cli", "_write_csv", "cli.output"),
    Target("cli", "_write_snapshots", "cli.output"),
)

SOLVE_GROUPS = ("fem.green_solve", "fem.mixed_solve", "fem.neumann_solve")


class Tracer:
    """Span and count recorder for one traced CLI invocation."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # (span id, parent id, group, start, end, self seconds)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.run_steps: list[int] = []   # total_steps of each transport.run
        self._stack: list[list] = []     # [span id, child seconds]
        self._undo: list[tuple] = []

    # -- recording ------------------------------------------------------

    def record(self, group: str, start: float, end: float) -> None:
        """Add a finished top-level span measured outside any wrapper."""
        self.spans.append((len(self.spans), -1, group, start, end,
                           end - start))
        self.counts[group] += 1

    def _after(self, group: str, args, result) -> None:
        if group == "transport.loop":
            self.run_steps.append(int(result.total_steps))
        elif group == "fem.vtk":
            self.counts["fem.vtk_bytes"] += os.path.getsize(args[0])
        elif group == "certificates.twin":
            self.counts["certificates.twinned_snapshots"] += \
                len(args[0].times)

    def _wrap(self, fn, target: Target):
        group = target.group
        counts = self.counts
        if not target.span:
            def counted(*args, **kwargs):
                counts[group] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)           # reserve the id in call order
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans[sid] = (sid, parent, group, start, end, dur - frame[1])
                counts[group] += 1
            self._after(group, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        pkg = [m for name, m in sys.modules.items()
               if name == "euler_ss" or name.startswith("euler_ss.")]
        for t in TARGETS:
            mod = importlib.import_module(f"euler_ss.{t.module}")
            cls_name, _, meth = t.name.rpartition(".")
            if cls_name:
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, t))
                continue
            orig = getattr(mod, t.name)
            wrapped = self._wrap(orig, t)
            for m in pkg:
                if getattr(m, t.name, None) is orig:
                    self._undo.append((m, t.name, orig))
                    setattr(m, t.name, wrapped)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans,
                "counts": dict(self.counts), "run_steps": self.run_steps}


# -- per-layer metrics --------------------------------------------------


def _self_by_group(spans) -> defaultdict:
    out: defaultdict = defaultdict(float)
    for _sid, _parent, group, _start, _end, self_s in spans:
        out[group] += self_s
    return out


def layer_metrics(trace: dict, traced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (see bench/README.md).

    ``traced_wall_s`` is the wall time of the traced process measured by
    its parent; the difference to the summed self times is ``other_s``.
    """
    spans, counts = trace["spans"], Counter(trace["counts"])
    self_s = _self_by_group(spans)
    solve_ms = [1e3 * (end - start) for _s, _p, g, start, end, _x in spans
                if g in SOLVE_GROUPS]
    twinned = counts["certificates.twinned_snapshots"]
    bases = counts["hodge.basis"]
    m = {
        "mesh.build_s": self_s["mesh.build"],
        "mesh.component_nodes_calls": counts["mesh.component_nodes"],
        "fem.green_solve_s": self_s["fem.green_solve"],
        "fem.green_solves": counts["fem.green_solve"],
        "fem.mixed_solve_s": self_s["fem.mixed_solve"],
        "fem.mixed_solves": counts["fem.mixed_solve"],
        "fem.neumann_solve_s": self_s["fem.neumann_solve"],
        "fem.neumann_solves": counts["fem.neumann_solve"],
        "fem.solve_ms_p50": statistics.median(solve_ms) if solve_ms else 0.0,
        "fem.stiffness_s": self_s["fem.stiffness"],
        "fem.flux_s": self_s["fem.flux"],
        "fem.flux_calls": counts["fem.flux"],
        "fem.velocity_gradient_s": self_s["fem.velocity_gradient"],
        "fem.velocity_gradient_calls": counts["fem.velocity_gradient"],
        "fem.vtk_s": self_s["fem.vtk"],
        "fem.vtk_bytes": counts["fem.vtk_bytes"],
        "hodge.basis_s": self_s["hodge.basis"],
        "hodge.reconstruct_s": self_s["hodge.reconstruct"],
        "hodge.reconstructs": counts["hodge.reconstruct"],
        "transport.steps": sum(trace["run_steps"]),
        "transport.runs": counts["transport.loop"],
        "transport.kernel_s": self_s["transport.kernel"],
        "transport.flux_setup_s": self_s["transport.flux_setup"],
        "transport.flux_setups": counts["transport.flux_setup"],
        "transport.loop_s": self_s["transport.loop"],
        "transport.scenario_s": self_s["transport.scenario"],
        "zaremba.aux_s": self_s["zaremba.aux"],
        "zaremba.aux_solves": counts["zaremba.aux"],
        "certificates.twin_s": self_s["certificates.twin"],
        "certificates.identity_s": self_s["certificates.identity"],
        "certificates.identity_calls": counts["certificates.identity"],
        "certificates.ledger_s": self_s["certificates.ledger"],
        "certificates.vel_grad_per_snapshot":
            counts["fem.velocity_gradient"] / twinned if twinned else 0.0,
        "osgood.self_s": self_s["osgood.self"],
        "osgood.runs_per_basis":
            counts["transport.loop"] / bases if bases else 0.0,
        "cli.import_s": self_s["cli.import"],
        "cli.output_s": self_s["cli.output"],
        "other_s": traced_wall_s - sum(self_s.values()),
    }
    for layer in LAYERS:
        busy = sum(v for g, v in self_s.items()
                   if g.split(".", 1)[0] == layer)
        m[f"{layer}.share"] = 100.0 * busy / traced_wall_s
    return m


COUNT_METRICS = ("mesh.component_nodes_calls", "fem.green_solves",
                 "fem.mixed_solves", "fem.neumann_solves", "fem.flux_calls",
                 "fem.velocity_gradient_calls", "fem.vtk_bytes",
                 "hodge.reconstructs", "transport.steps", "transport.runs",
                 "transport.flux_setups", "zaremba.aux_solves",
                 "certificates.identity_calls",
                 "certificates.vel_grad_per_snapshot",
                 "osgood.runs_per_basis")
