"""Malformed input files fail at the boundary with an exit code, never with
a traceback: mutated scenario files make ``simulate`` return 0, 2 or 3,
and corrupted mesh files make ``mesh info`` return 0 or 2."""

import copy
import json
import math
import tempfile
from itertools import accumulate
from pathlib import Path

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
