"""Malformed input files fail at the boundary with an exit code, never with
a traceback: mutated scenario files make ``simulate`` return 0, 2 or 3,
and corrupted mesh files make ``mesh info`` return 0 or 2.  Valid
scenarios with drawn values run to the end within the solver's defect
bounds."""

import copy
import io
import json
import math
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import accumulate
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from euler_ss.cli import main
from euler_ss.mesh import generate_annulus, save_mesh

FUZZ = settings(derandomize=True, deadline=None, max_examples=60)

# wrong types, non-finite, negative, zero and empty values; no huge finite
# magnitudes, which are valid input and only make runs long
BAD_VALUES = [None, True, "", "x", [], [1.0], {}, {"k": 1.0}, math.nan,
              math.inf, -math.inf, -1, -0.5, 0, 0.0]

OMEGA0 = [
    {"type": "annular_band", "r0": 1.25, "r1": 1.75, "value": 1.0,
     "background": 0.1},
    {"type": "file", "path": "omega0.txt"},
]


def scenario_doc(omega0: dict) -> dict:
    """A valid 2x8 flow annulus using every optional key."""
    return {
        "mesh": {"annulus": {"r0": 1.0, "r1": 2.0, "nr": 2, "ntheta": 8,
                             "roles": ["outflow", "inflow"]}},
        "omega0": copy.deepcopy(omega0),
        "T": 0.05, "cfl": 0.5, "snapshots": 2, "scheme": "rk2",
        "g": [{"comp": 0, "type": "constant", "value": 0.25},
              {"comp": 1, "type": "tabulated", "s": [0.0, 1.0],
               "values": [-0.5, -0.5]}],
        "g_multiplier": {"type": "tabulated", "times": [0.0, 0.05],
                         "values": [1.0, 0.9]},
        "omega_in": {"1": {"type": "constant", "value": 0.8}},
        "C0": {"1": 0.3},
    }


def draw_path(data, doc) -> tuple:
    """A key path into the document, drawn top-down: each step goes one
    level deeper with even odds, so keys near the top (the containers
    and scalars of the scenario) are drawn most often."""
    path, node = (), doc
    while isinstance(node, (dict, list)) and node:
        key = data.draw(st.sampled_from(
            list(node) if isinstance(node, dict) else range(len(node))))
        path, node = path + (key,), node[key]
        if not data.draw(st.booleans()):
            break
    return path


def mutate(doc, path, op, value):
    """Drop the entry at ``path``, add an unknown key to it, or replace
    it with ``value`` (the root is only replaced); returns the new
    document."""
    if not path:
        return value if op == "set" else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "drop":
        del parent[key]
    elif op == "extra" and isinstance(parent[key], dict):
        parent[key]["unknown"] = value
    else:
        parent[key] = value
    return doc


@FUZZ
@given(data=st.data())
def test_mutated_scenario_exits_cleanly(data):
    doc = scenario_doc(data.draw(st.sampled_from(OMEGA0)))
    for _ in range(data.draw(st.integers(1, 3))):
        path = draw_path(data, doc)
        op = data.draw(st.sampled_from(["drop", "extra", "set"]))
        value = copy.deepcopy(data.draw(st.sampled_from(BAD_VALUES)))
        doc = mutate(doc, path, op, value)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "omega0.txt").write_text("0.5\n" * 32)
        (tmp / "scenario.json").write_text(json.dumps(doc))
        rc = main(["simulate", str(tmp / "scenario.json"),
                   "-o", str(tmp / "out")])
    assert rc in (0, 2, 3)


def valid_doc(data, tmp: Path) -> dict:
    """A valid 2-3 x 8-12 flow annulus with drawn values and a balanced
    through-flow g = +-Q / (2 pi r); a file omega0 is written to ``tmp``."""
    nr = data.draw(st.integers(2, 3))
    ntheta = data.draw(st.integers(8, 12))
    T = data.draw(st.floats(0.01, 0.1))
    k = data.draw(st.integers(2, 4))
    times = [T * i / (k - 1) for i in range(k)]

    def table(lo, hi):
        values = data.draw(st.lists(st.floats(lo, hi), min_size=k,
                                    max_size=k))
        return {"type": "tabulated", "times": times, "values": values}

    if data.draw(st.booleans()):
        r0, r1 = sorted(data.draw(st.floats(1.0, 2.0)) for _ in range(2))
        omega0 = {"type": "annular_band", "r0": r0, "r1": r1,
                  "value": data.draw(st.floats(-2.0, 2.0)),
                  "background": data.draw(st.floats(-2.0, 2.0))}
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        np.savetxt(tmp / "omega0.txt",
                   rng.uniform(-2.0, 2.0, 2 * nr * ntheta))
        omega0 = {"type": "file", "path": "omega0.txt"}
    Q = data.draw(st.floats(0.0, 1.0))
    omega_in = table(-2.0, 2.0) if data.draw(st.booleans()) else \
        {"type": "constant", "value": data.draw(st.floats(-2.0, 2.0))}
    return {
        "mesh": {"annulus": {"r0": 1.0, "r1": 2.0, "nr": nr,
                             "ntheta": ntheta,
                             "roles": ["outflow", "inflow"]}},
        "omega0": omega0,
        "T": T, "cfl": data.draw(st.floats(0.05, 1.0)),
        "snapshots": data.draw(st.integers(1, 4)),
        "scheme": data.draw(st.sampled_from(["euler", "rk2"])),
        "g": {"0": {"type": "constant", "value": Q / (2 * math.pi * 2.0)},
              "1": {"type": "constant", "value": -Q / (2 * math.pi)}},
        "g_multiplier": table(0.0, 2.0),
        "omega_in": {"1": omega_in},
        "C0": {"1": data.draw(st.floats(-1.0, 1.0))},
    }


def simulate(tmp: Path, doc: dict) -> tuple[int, str]:
    """``simulate`` on ``doc`` in process: (exit code, stdout)."""
    (tmp / "scenario.json").write_text(json.dumps(doc))
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = main(["simulate", str(tmp / "scenario.json"),
                   "-o", str(tmp / "out")])
    return rc, out.getvalue()


@FUZZ
@given(data=st.data())
def test_valid_scenario_runs_to_the_end(data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        doc = valid_doc(data, tmp)
        rc, out = simulate(tmp, doc)
        assert rc == 0
        header, *rows = (tmp / "out" / "trajectory.csv").read_text() \
            .splitlines()
        assert len(rows) == doc["snapshots"] + 1
        cols = header.split(",")
        extremes = [abs(float(row.split(",")[cols.index(name)]))
                    for row in rows for name in ("vort_min", "vort_max")]
        bound = 1e-11 * max([1.0] + extremes)
        defects = re.search(r"max principle defect (\S+), "
                            r"budget defect (\S+)", out).groups()
        assert all(float(d) <= bound for d in defects)
        # the through-flow against the roles: one g of the wrong sign
        g = doc["g"][data.draw(st.sampled_from(["0", "1"]))]
        if g["value"] != 0.0:
            g["value"] = -g["value"]
            assert simulate(tmp, doc)[0] == 3


def mesh_sections() -> list[list[str]]:
    """The lines of a saved 2x8 annulus: header, vertices, triangles,
    boundary edges and component roles."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "annulus.mesh"
        save_mesh(generate_annulus(1.0, 2.0, 2, 8,
                                   roles=("outflow", "inflow")), path)
        lines = path.read_text().splitlines()
    ends = list(accumulate([1, *map(int, lines[0].split())]))
    return [lines[a:b] for a, b in zip([0] + ends, ends)]


SECTIONS = mesh_sections()
TOKENS = ["nan", "inf", "-1", "0", "7", "0.5", "1e400",
          "99999999999999999999", "x", "é"]


@FUZZ
@given(data=st.data())
def test_corrupted_mesh_file_exits_cleanly(data):
    # one defect per file, so that no earlier one masks it
    sections = [list(lines) for lines in SECTIONS]
    lines = data.draw(st.sampled_from(sections))
    i = data.draw(st.integers(0, len(lines) - 1))
    tokens = lines[i].split()
    op = data.draw(st.sampled_from(["token", "drop", "duplicate", "append",
                                    "truncate"]))
    if op == "token":
        k = data.draw(st.integers(0, len(tokens) - 1))
        tokens[k] = data.draw(st.sampled_from(TOKENS))
        lines[i] = " ".join(tokens)
    elif op == "drop":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "append":
        lines[i] += " " + data.draw(st.sampled_from(TOKENS))
    else:
        del lines[i:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corrupt.mesh"
        path.write_text("\n".join(sum(sections, [])) + "\n",
                        encoding="utf-8")
        rc = main(["mesh", "info", str(path)])
    assert rc in (0, 2)
