"""Runs compared with stored ones: the trajectory of two small simulate
runs, the ledger of a small certify run and the report of a small
stability ladder, against the CSVs under ``tests/data/``.

A column matches when it is within 10 * ``fem.DEFAULT_RTOL`` * max
|reference column| of the stored one: each column on its own scale, so
a column of small entries (a ladder's ``a`` of 3e-10 to 5e-6) is held
to its own digits, and a column of zeros must stay zero.  A bytewise
match would tie the files to one platform's last-bit rounding.  Re-record the files, or
only the named cases, with

    PYTHONPATH=src python tests/test_reference.py [NAME ...]
"""

import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from euler_ss.cli import main
from euler_ss.fem import DEFAULT_RTOL

DATA = Path(__file__).resolve().parent / "data"
TOL_FACTOR = 10.0


def flow_doc(scheme: str, tabulated: bool) -> dict:
    """Flow-through annulus with a modulated vorticity band in
    ``omega0.txt``; ``tabulated`` adds g_multiplier and omega_in tables."""
    doc = {
        "mesh": {"annulus": {"r0": 1.0, "r1": 2.0, "nr": 6, "ntheta": 24,
                             "roles": ["outflow", "inflow"]}},
        "omega0": {"type": "file", "path": "omega0.txt"},
        "C0": {"1": 0.3},
        "g": {"0": {"type": "constant", "value": 0.25},
              "1": {"type": "constant", "value": -0.5}},
        "omega_in": {"1": {"type": "constant", "value": 0.8}},
        "T": 1.0, "cfl": 0.4, "snapshots": 5, "scheme": scheme,
    }
    if tabulated:
        times = [0.0, 0.25, 0.5, 0.75, 1.0]
        doc["g_multiplier"] = {"type": "tabulated", "times": times,
                               "values": [1.0, 1.04, 0.97, 1.02, 0.99]}
        doc["omega_in"]["1"] = {"type": "tabulated", "times": times,
                                "values": [0.8, 0.76, 0.83, 0.79, 0.81]}
    return doc


def write_scenario(dest: Path, doc: dict) -> Path:
    """``doc`` and its omega0 file in ``dest``: the band 1.25 < r < 1.75
    times 1 + 0.3 cos(theta) at the cell centroids."""
    from euler_ss.mesh import generate_annulus

    ann = doc["mesh"]["annulus"]
    m = generate_annulus(ann["r0"], ann["r1"], ann["nr"], ann["ntheta"])
    x, y = m.centroid[:, 0], m.centroid[:, 1]
    r = np.hypot(x, y)
    omega0 = np.where((r > 1.25) & (r < 1.75), 1.0, 0.0) \
        * (1.0 + 0.3 * np.cos(np.arctan2(y, x)))
    dest.mkdir(parents=True, exist_ok=True)
    (dest / "omega0.txt").write_text("".join(f"{v:.17g}\n" for v in omega0))
    path = dest / "scenario.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


# name -> (scenario document, command, command-line arguments after the
# scenario, the output file compared)
CASES = {
    "simulate_euler": (flow_doc("euler", False), "simulate", [],
                       "trajectory.csv"),
    "simulate_rk2_tabulated": (flow_doc("rk2", True), "simulate", [],
                               "trajectory.csv"),
    "certify_delta_c0": (flow_doc("euler", False), "certify",
                         ["--delta-c0", "1=0.1"], "ledger.csv"),
    "stability_ladder": (flow_doc("euler", False), "stability",
                         ["--ladder", "1e-3,1e-2,1e-1", "--perturb", "1"],
                         "report.csv"),
}


def run_case(name: str, work: Path) -> Path:
    """Run one case in ``work``; the path of the file it compares."""
    doc, command, flags, table = CASES[name]
    scenario = write_scenario(work, doc)
    out = work / "out"
    assert main([command, str(scenario), "-o", str(out), *flags]) == 0
    return out / table


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=np.float64)


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_the_stored_reference(tmp_path, name):
    header, got = read_table(run_case(name, tmp_path))
    ref_header, ref = read_table(DATA / f"{name}.csv")
    assert header == ref_header
    assert got.shape == ref.shape
    tol = TOL_FACTOR * DEFAULT_RTOL * np.abs(ref).max(axis=0)
    err = np.abs(got - ref).max(axis=0)
    bad = {h: (e, t) for h, e, t in zip(header, err, tol) if not e <= t}
    assert not bad, bad


def record(names: list[str]) -> None:
    import shutil
    import tempfile

    DATA.mkdir(exist_ok=True)
    for name in names or sorted(CASES):
        with tempfile.TemporaryDirectory() as work:
            shutil.copyfile(run_case(name, Path(work)),
                            DATA / f"{name}.csv")
        print(f"wrote {DATA / f'{name}.csv'}", file=sys.stderr)


if __name__ == "__main__":
    record(sys.argv[1:])
