import csv
import gc
import json
import math
import os
import subprocess
import sys
import time
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import euler_ss
from euler_ss.cli import main
from euler_ss.mesh import Mesh, load_mesh, save_mesh

from test_two_holes import two_hole_mesh


def radial_doc():
    """Flow-through annulus whose circulation history has a closed form."""
    Q = 1.0
    return {
        "mesh": {"annulus": {"r0": 1.0, "r1": 2.0, "nr": 6, "ntheta": 24,
                             "roles": ["outflow", "inflow"]}},
        "omega0": {"type": "constant", "value": 1.0},
        "T": 0.5, "cfl": 0.4, "snapshots": 5,
        "g": [{"comp": 0, "type": "constant",
               "value": Q / (2 * math.pi * 2.0)},
              {"comp": 1, "type": "constant",
               "value": -Q / (2 * math.pi * 1.0)}],
        "omega_in": {1: {"type": "constant", "value": 1.0}},
        "C0": {1: 0.3},
    }


@pytest.fixture()
def scenario_file(tmp_path):
    p = tmp_path / "radial.json"
    p.write_text(json.dumps(radial_doc()))
    return p


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- mesh subcommands ---------------------------------------------------


def test_mesh_annulus_writes_file(tmp_path):
    out = tmp_path / "m.txt"
    rc = main(["mesh", "annulus", "--r0", "1", "--r1", "2",
               "--nr", "2", "--ntheta", "8", "-o", str(out)])
    assert rc == 0
    m = load_mesh(out)
    assert m.num_vertices == 24
    assert m.num_triangles == 32


def test_mesh_info_reports_topology(tmp_path, capsys):
    out = tmp_path / "m.txt"
    main(["mesh", "annulus", "--r0", "1", "--r1", "2",
          "--nr", "2", "--ntheta", "8", "-o", str(out)])
    rc = main(["mesh", "info", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "components: 2" in text
    assert "chi: 0" in text


def test_mesh_refine_twice(tmp_path):
    src = tmp_path / "m.txt"
    dst = tmp_path / "fine.txt"
    main(["mesh", "annulus", "--r0", "1", "--r1", "2",
          "--nr", "2", "--ntheta", "8", "-o", str(src)])
    rc = main(["mesh", "refine", str(src), "--times", "2", "-o", str(dst)])
    assert rc == 0
    assert load_mesh(dst).num_triangles == 16 * 32


def test_mesh_annulus_bad_roles(tmp_path, capsys):
    rc = main(["mesh", "annulus", "--r0", "1", "--r1", "2",
               "--nr", "2", "--ntheta", "8", "--roles", "wall,lava",
               "-o", str(tmp_path / "m.txt")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_mesh_annulus_infinite_radius_is_usage_error(tmp_path, capsys):
    out = tmp_path / "m.mesh"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["mesh", "annulus", "--r0", "1", "--r1", "inf",
                   "--nr", "2", "--ntheta", "8", "-o", str(out)])
    assert rc == 2
    assert "r1=inf" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("r1, rc, message", [
    ("1e200", 2, "triangle 0: area, edge lengths or centroid overflow"),
    ("1e154", 2, "component 0: loop area overflows"),
    ("1e153", 0, ""), ("1e150", 0, "")])
def test_mesh_annulus_overflowing_geometry_is_usage_error(tmp_path, capsys,
                                                          r1, rc, message):
    # finite radii whose areas or loop-area sums overflow float64 exit 2,
    # writing nothing, with no numpy warning (the tests turn any
    # RuntimeWarning into an error); a smaller one still makes a mesh
    out = tmp_path / "m.mesh"
    assert main(["mesh", "annulus", "--r0", "1", "--r1", r1, "--nr", "2",
                 "--ntheta", "8", "-o", str(out)]) == rc
    assert message in capsys.readouterr().err
    assert out.exists() == (rc == 0)


def test_mesh_info_on_overflowing_coordinates_is_usage_error(tmp_path,
                                                             capsys):
    # a hand-written unit square, two triangles, scaled by 1e200
    mesh_file = tmp_path / "big.mesh"
    mesh_file.write_text("4 2 4 1\n0 0\n1e200 0\n1e200 1e200\n0 1e200\n"
                         "0 1 2\n0 2 3\n0 1 0\n1 2 0\n2 3 0\n3 0 0\n"
                         "0 wall\n")
    assert main(["mesh", "info", str(mesh_file)]) == 2
    assert "overflow" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["annulus", "refine"])
def test_mesh_into_missing_directory_is_usage_error(tmp_path, capsys,
                                                    command):
    src = tmp_path / "m.mesh"
    main(["mesh", "annulus", "--r0", "1", "--r1", "2",
          "--nr", "2", "--ntheta", "8", "-o", str(src)])
    out = tmp_path / "missing" / "m.mesh"
    if command == "annulus":
        argv = ["mesh", "annulus", "--r0", "1", "--r1", "2",
                "--nr", "2", "--ntheta", "8", "-o", str(out)]
    else:
        argv = ["mesh", "refine", str(src), "-o", str(out)]
    assert main(argv) == 2
    assert "cannot write mesh file" in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize("command", ["mesh info", "simulate"])
def test_nan_vertex_is_usage_error(tmp_path, capsys, command):
    mesh_file = tmp_path / "m.txt"
    main(["mesh", "annulus", "--r0", "1", "--r1", "2", "--nr", "2",
          "--ntheta", "8", "--roles", "outflow,inflow",
          "-o", str(mesh_file)])
    lines = mesh_file.read_text().splitlines()
    lines[1] = "nan " + lines[1].split()[1]
    mesh_file.write_text("\n".join(lines) + "\n")
    if command == "mesh info":
        rc = main(["mesh", "info", str(mesh_file)])
    else:
        doc = radial_doc()
        doc["mesh"] = "m.txt"
        scenario = tmp_path / "radial.json"
        scenario.write_text(json.dumps(doc))
        rc = main(["simulate", str(scenario), "-o", str(tmp_path / "run")])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err


# -- simulate -----------------------------------------------------------


def test_simulate_kelvin_drop(tmp_path, scenario_file):
    out = tmp_path / "run"
    rc = main(["simulate", str(scenario_file), "-o", str(out)])
    assert rc == 0
    rows = read_csv(out / "trajectory.csv")
    assert len(rows) == 6
    ntheta = 24
    rate = ntheta * math.sin(math.pi / ntheta) / math.pi
    first, last = rows[0], rows[-1]
    drop = float(first["C_0"]) - float(last["C_0"])
    assert drop == pytest.approx(0.5 * rate, abs=1e-9)
    rise = float(last["C_1"]) - float(first["C_1"])
    assert rise == pytest.approx(0.5 * rate, abs=1e-9)


def test_simulate_missing_scenario(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    rc = main(["simulate", str(missing), "-o", str(tmp_path / "run")])
    assert rc == 2
    assert "nope.json" in capsys.readouterr().err


def test_simulate_vtk_snapshots(tmp_path, scenario_file):
    out = tmp_path / "run"
    rc = main(["simulate", str(scenario_file), "-o", str(out), "--vtk"])
    assert rc == 0
    vtks = sorted(out.glob("snap_*.vtk"))
    assert len(vtks) == 6
    head = vtks[0].read_text()
    assert "vorticity" in head and "stream" in head


def test_simulate_deterministic(tmp_path, scenario_file):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", str(scenario_file), "-o", str(a)]) == 0
    assert main(["simulate", str(scenario_file), "-o", str(b)]) == 0
    assert (a / "trajectory.csv").read_bytes() \
        == (b / "trajectory.csv").read_bytes()


@pytest.mark.parametrize("field", ["C0", "omega0", "g"])
def test_simulate_velocity_overflow_is_solver_error(tmp_path, capsys,
                                                    field):
    # the squared velocity of the CFL rate overflows; under the tests'
    # error::RuntimeWarning filter a numpy warning would escape main
    doc = radial_doc()
    if field == "C0":
        doc["C0"] = {1: 1e300}
    elif field == "omega0":
        doc["omega0"]["value"] = 1e300
    else:
        for item in doc["g"]:
            item["value"] *= 1e300
    scenario = tmp_path / "huge.json"
    scenario.write_text(json.dumps(doc))
    rc = main(["simulate", str(scenario), "-o", str(tmp_path / "run")])
    assert rc == 4
    assert "velocity overflow" in capsys.readouterr().err


@pytest.mark.parametrize("value", [1e308, 5e307])
def test_simulate_vorticity_mass_overflow_is_solver_error(tmp_path, capsys,
                                                          value):
    # each value is finite, its mass over the annulus is not: the run
    # stops before the first stream function turns every row into NaN
    doc = {"mesh": {"annulus": {"r0": 1, "r1": 2, "nr": 4, "ntheta": 16}},
           "omega0": {"type": "constant", "value": value},
           "T": 0.5, "cfl": 0.4, "snapshots": 4}
    scenario = tmp_path / "huge.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["simulate", str(scenario), "-o", str(out)]) == 4
    assert "vorticity overflow" in capsys.readouterr().err
    assert not out.exists()


def entering_doc(value: float, scheme: str = "euler") -> dict:
    """The 4x16 flow annulus (outflow outside, inflow inside) with a
    constant entering vorticity ``value``."""
    return {"mesh": {"annulus": {"r0": 1, "r1": 2, "nr": 4, "ntheta": 16,
                                 "roles": ["outflow", "inflow"]}},
            "omega0": {"type": "constant", "value": 1.0}, "C0": {"1": 0.3},
            "g": {"0": {"type": "constant", "value": 0.25},
                  "1": {"type": "constant", "value": -0.5}},
            "omega_in": {"1": {"type": "constant", "value": value}},
            "T": 2.0, "cfl": 0.4, "snapshots": 4, "scheme": scheme}


@pytest.mark.parametrize("scheme", ["euler", "rk2"])
def test_simulate_entering_vorticity_overflow_is_solver_error(
        tmp_path, capsys, scheme):
    # the entering vorticity is finite, the component rate of its flux is
    # not: the run stops on it rather than let it reach a circulation, a
    # stage reconstruction or the budget as a numpy warning (an error
    # under the tests' error::RuntimeWarning filter)
    doc = entering_doc(1e308, scheme)
    scenario = tmp_path / "huge_in.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["simulate", str(scenario), "-o", str(out)]) == 4
    assert "vorticity overflow" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_collapsed_time_step_is_solver_error(tmp_path, capsys,
                                                      monkeypatch):
    # an entering vorticity of 1e150 drives dt to 4.6e-150 near t = 0.098:
    # the run stops at the first step whose dt could not reach the next
    # snapshot within the per-interval step limit, instead of stepping
    # to that limit
    scenario = tmp_path / "collapse.json"
    scenario.write_text(json.dumps(entering_doc(1e150)))
    out = tmp_path / "run"
    assert main(["simulate", str(scenario), "-o", str(out)]) == 4
    assert "time step collapsed: dt = 4.609e-150 at t = 0.0980785 needs " \
        "more than 2000000 steps" in capsys.readouterr().err
    assert not out.exists()
    # with no practical limit, the step that would leave t where it is
    # stops the run
    monkeypatch.setattr(euler_ss.transport, "MAX_STEPS_PER_INTERVAL",
                        10 ** 300)
    assert main(["simulate", str(scenario), "-o", str(out)]) == 4
    assert "time step collapsed: dt = 4.609e-150 leaves t = 0.0980785" \
        in capsys.readouterr().err
    assert not out.exists()


def test_certify_collapsed_time_step_of_the_perturbed_run(tmp_path, capsys):
    # a circulation shift of 1e150 collapses the perturbed run's first
    # step: from t = 0 a dt of 4.7e-151 still moves t, and the run stops
    # at once rather than stepping to the per-interval limit
    doc = entering_doc(0.8)
    doc["T"] = 0.5
    scenario = tmp_path / "flow.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "cert"
    start = time.perf_counter()
    assert main(["certify", str(scenario), "--delta-c0", "1=1e150",
                 "-o", str(out)]) == 4
    assert time.perf_counter() - start < 30.0
    assert "time step collapsed: dt = 4.703e-151 at t = 0 " \
        in capsys.readouterr().err
    assert not out.exists()


def test_certify_overflowing_omega_in_shift_is_precondition_error(
        tmp_path, capsys):
    # run 1 reads only the finite samples before T; the shift makes the
    # last sample inf, which the second run rejects before any step
    doc = radial_doc()
    doc["omega_in"] = {1: {"type": "tabulated", "times": [0.0, 1.0, 2.0],
                           "values": [1.0, 1.0, 1e308]}}
    scenario = tmp_path / "shift.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "cert"
    assert main(["certify", str(scenario), "--delta-omega-in", "1=1.7e308",
                 "-o", str(out)]) == 3
    assert "entering vorticity" in capsys.readouterr().err
    assert not out.exists()


# -- certify ------------------------------------------------------------


def test_certify_identical_pair_passes(tmp_path, scenario_file, capsys):
    pair = tmp_path / "same.json"
    pair.write_text(scenario_file.read_text())
    out = tmp_path / "cert"
    rc = main(["certify", str(scenario_file), str(pair), "-o", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text
    assert (out / "ledger.csv").exists()


def test_certify_perturbation_with_rates(tmp_path, scenario_file, capsys):
    out = tmp_path / "cert"
    rc = main(["certify", str(scenario_file), "--delta-c0", "1=0.1",
               "--refine", "2", "-o", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "rate" in text
    assert "PASS" in text and "FAIL" not in text


def test_certify_pair_plus_refine_rejected(tmp_path, scenario_file, capsys):
    pair = tmp_path / "same.json"
    pair.write_text(scenario_file.read_text())
    rc = main(["certify", str(scenario_file), str(pair), "--refine", "2",
               "-o", str(tmp_path / "cert")])
    assert rc == 2
    assert "refine" in capsys.readouterr().err


def test_certify_refine_of_file_omega0_fails_first(tmp_path, capsys,
                                                  monkeypatch):
    np.savetxt(tmp_path / "w.txt", np.ones(288))
    doc = radial_doc()
    doc["omega0"] = {"type": "file", "path": "w.txt"}
    scenario = tmp_path / "file.json"
    scenario.write_text(json.dumps(doc))
    runs = []
    monkeypatch.setattr(euler_ss.transport, "run",
                        lambda *a: runs.append(a))
    out = tmp_path / "cert"
    rc = main(["certify", str(scenario), "--delta-c0", "1=0.1",
               "--refine", "2", "-o", str(out)])
    assert rc == 2
    assert "cannot be refined" in capsys.readouterr().err
    assert runs == []
    assert not (out / "ledger.csv").exists()


@pytest.mark.parametrize("case, code, message", [
    ("sign", 3, "precondition"), ("short", 2, "288 cell values"),
    ("nan", 2, "non-finite"), ("band", 2, "r0 <= r1")],
    ids=["sign", "short", "nan", "band"])
def test_certify_failure_leaves_no_output_directory(tmp_path, capsys, case,
                                                    code, message):
    # a sign-condition violation in the runs, an omega0 file one value
    # short, one holding a NaN and a band with r0 > r1: the command fails
    # before it writes
    doc = radial_doc()
    if case == "sign":
        doc["g"] = [{**item, "value": -item["value"]} for item in doc["g"]]
    elif case == "band":
        doc["omega0"] = {"type": "annular_band", "r0": 1.75, "r1": 1.25,
                         "value": 1.0}
    else:
        vals = np.ones(288 - (case == "short"))
        vals[0] = np.nan if case == "nan" else 1.0
        np.savetxt(tmp_path / "w.txt", vals)
        doc["omega0"] = {"type": "file", "path": "w.txt"}
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "cert"
    rc = main(["certify", str(scenario), "--delta-c0", "1=0.1",
               "-o", str(out)])
    assert rc == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, old, new, message", [
    ("C0", '"C0": {"1": 0.3}', '"C0": {"1": 0.3, "01": 0.7}',
     "C0: component 1 given twice"),
    ("omega_in", '"omega_in": {"1": {"type": "constant", "value": 1.0}}',
     '"omega_in": {"1": {"type": "constant", "value": 1.0}, '
     '"+1": {"type": "constant", "value": 2.0}}',
     "omega_in: component 1 given twice"),
    ("T", '"T": 0.5', '"T": 0.5, "T": 50.0', "key 'T' given twice")],
    ids=["C0", "omega_in", "T"])
def test_repeated_scenario_entry_is_usage_error(tmp_path, capsys, key, old,
                                                new, message):
    # a second spelling of one component, or a JSON key given twice,
    # would silently overwrite the first value
    text = json.dumps(radial_doc())
    assert old in text
    scenario = tmp_path / "twice.json"
    scenario.write_text(text.replace(old, new))
    out = tmp_path / "cert"
    rc = main(["certify", str(scenario), "--delta-c0", "1=0.1",
               "-o", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_certify_broken_sign_condition(tmp_path, capsys):
    doc = radial_doc()
    # outflow data with the wrong sign violates the flow preconditions
    doc["g"] = [{"comp": 0, "type": "constant", "value": -0.05},
                {"comp": 1, "type": "constant", "value": 0.05}]
    del doc["omega_in"]
    doc["mesh"]["annulus"]["roles"] = ["inflow", "outflow"]
    doc["omega_in"] = {0: {"type": "constant", "value": 1.0}}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["certify", str(bad), "--delta-c0", "1=0.1",
               "-o", str(tmp_path / "cert")])
    assert rc == 3
    assert "precondition" in capsys.readouterr().err


@pytest.mark.parametrize("Q", [1.0, 1e-14])
def test_swapped_roles_fail_the_sign_check_at_every_scale(tmp_path, capsys,
                                                          Q):
    # balanced data on swapped roles: flow enters through the outflow
    doc = radial_doc()
    doc["mesh"]["annulus"].update(nr=2, ntheta=8,
                                  roles=["inflow", "outflow"])
    doc["g"] = [{"comp": 0, "type": "constant",
                 "value": Q / (4 * math.pi)},
                {"comp": 1, "type": "constant",
                 "value": -Q / (2 * math.pi)}]
    doc["omega_in"] = {0: {"type": "constant", "value": 1.0}}
    bad = tmp_path / "swapped.json"
    bad.write_text(json.dumps(doc))
    rc = main(["simulate", str(bad), "-o", str(tmp_path / "out")])
    assert rc == 3
    assert "sign condition" in capsys.readouterr().err


def test_certify_refine_frees_coarse_levels(tmp_path, scenario_file,
                                            monkeypatch):
    runs = []               # (level, weak reference) per transport run
    real = euler_ss.transport.run

    def tracked(sc, basis=None):
        level = sc.mesh.num_triangles
        if runs and runs[-1][0] != level:
            # the first run of a finer level: every coarser run is gone
            gc.collect()
            assert [ref() for _, ref in runs] == [None] * len(runs)
        traj = real(sc, basis)
        runs.append((level, weakref.ref(traj)))
        return traj

    monkeypatch.setattr(euler_ss.transport, "run", tracked)
    rc = main(["certify", str(scenario_file), "--delta-c0", "1=0.1",
               "--refine", "3", "-o", str(tmp_path / "cert")])
    assert rc == 0
    assert len({level for level, _ in runs}) == 3
    assert len(runs) == 6


def test_certify_malformed_delta(tmp_path, scenario_file, capsys):
    rc = main(["certify", str(scenario_file), "--delta-c0", "banana",
               "-o", str(tmp_path / "cert")])
    assert rc == 2


def test_certify_delta_omega_in_needs_inflow(tmp_path, scenario_file,
                                             capsys):
    rc = main(["certify", str(scenario_file), "--delta-omega-in", "0=0.1",
               "-o", str(tmp_path / "cert")])
    assert rc == 2
    assert "not an inflow" in capsys.readouterr().err


def test_certify_inflow_trace_twin_passes(tmp_path, scenario_file, capsys):
    # the difference enters only through the inflow trace; the
    # reversed-flux law holds on it to round-off
    rc = main(["certify", str(scenario_file), "--delta-omega-in", "1=0.1",
               "-o", str(tmp_path / "cert")])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "PASS reversed-flux law" in out


@pytest.mark.parametrize("delta", ["5=0.1", "0=0.1"])
def test_certify_delta_c0_needs_inner_component(tmp_path, scenario_file,
                                                capsys, delta):
    rc = main(["certify", str(scenario_file), "--delta-c0", delta,
               "-o", str(tmp_path / "cert")])
    assert rc == 2
    assert "not an inner component" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,message", [
    ("g", 2.5, "g: expected an object or a list, got float"),
    ("g", True, "g: expected an object or a list, got bool"),
    ("g", None, "g: expected an object or a list, got NoneType"),
    ("C0", [1.0, 2.0], "C0: expected an object, got list"),
    ("C0", None, "C0: expected an object, got NoneType"),
    ("omega_in", "x", "omega_in: expected an object, got str"),
])
def test_scenario_container_of_wrong_type_is_usage_error(
        tmp_path, capsys, key, value, message):
    doc = radial_doc()
    doc[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc = main(["simulate", str(path), "-o", str(tmp_path / "out")])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["certify", "--delta-c0", "1=nan"],
    ["certify", "--delta-c0", "1=inf"],
    ["certify", "--delta-omega-in", "1=inf"],
    ["certify", "--delta-omega0", "nan"],
    ["stability", "--ladder", "nan"],
    ["stability", "--ladder", "inf"],
    ["stability", "--ladder", "0.01,-inf"],
], ids=" ".join)
def test_non_finite_perturbation_is_usage_error(tmp_path, scenario_file,
                                                capsys, argv):
    out = tmp_path / "out"
    rc = main([argv[0], str(scenario_file), *argv[1:], "-o", str(out)])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("argv", [
    ["certify", "SCENARIO", "--delta-c0", "1=0.1", "--refine", "0"],
    ["certify", "SCENARIO", "--delta-c0", "1=0.1", "--refine", "-2"],
    ["mesh", "refine", "MESH", "--times", "-1"],
    ["mesh", "refine", "MESH", "--times", "0"],
], ids=" ".join)
def test_count_out_of_range_is_usage_error(tmp_path, scenario_file, capsys,
                                           argv):
    mesh_file = tmp_path / "m.txt"
    main(["mesh", "annulus", "--r0", "1", "--r1", "2", "--nr", "2",
          "--ntheta", "8", "-o", str(mesh_file)])
    out = tmp_path / "out"
    names = {"SCENARIO": str(scenario_file), "MESH": str(mesh_file)}
    rc = main([names.get(a, a) for a in argv] + ["-o", str(out)])
    assert rc == 2
    assert "positive integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("T, snapshots", [(5e-324, 2), (1e-323, 3)])
def test_t_too_small_for_the_snapshots_is_usage_error(tmp_path, capsys, T,
                                                      snapshots):
    # 5e-324 / 2 rounds to 0, the start time; 1e-323 / 3 and
    # 2e-323 / 3 both round to 5e-324
    doc = radial_doc()
    doc.update(T=T, snapshots=snapshots)
    scenario = tmp_path / "tiny.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = main(["simulate", str(scenario), "-o", str(out)])
    assert rc == 2
    assert "must increase" in capsys.readouterr().err
    assert not out.exists()


def test_certify_pair_with_renumbered_holes_is_usage_error(tmp_path,
                                                           capsys):
    # one mesh saved twice, the second with hole ids 1 and 2 swapped: the
    # same C0 by id gives each hole a different circulation in the two
    # files, so the pair does not describe one domain
    mesh = two_hole_mesh(roles=("wall", "wall", "wall"))
    swap = {1: 2, 2: 1}
    bedges = np.concatenate([
        np.column_stack([c.edges, np.full(len(c.edges),
                                          swap.get(c.comp, c.comp))])
        for c in mesh.components])
    save_mesh(mesh, tmp_path / "a.mesh")
    save_mesh(Mesh(mesh.vertices, mesh.triangles, bedges, mesh.roles()),
              tmp_path / "b.mesh")
    files = []
    for name in ("a", "b"):
        doc = {"mesh": f"{name}.mesh",
               "omega0": {"type": "constant", "value": 1.0},
               "T": 0.1, "cfl": 0.4, "snapshots": 2,
               "C0": {1: 0.3, 2: -0.2}}
        files.append(tmp_path / f"{name}.json")
        files[-1].write_text(json.dumps(doc))
    out = tmp_path / "cert"
    rc = main(["certify", *map(str, files), "-o", str(out)])
    assert rc == 2
    assert "different meshes" in capsys.readouterr().err
    assert not (out / "ledger.csv").exists()


def test_certify_pair_with_shifted_loop_start_is_usage_error(tmp_path,
                                                              capsys):
    # one 3x12 flow annulus saved twice, the second with the inner loop
    # starting 5 edges later: a tabulated g on that loop reads its
    # arclength from the loop's start, so the two files give that loop
    # different data, and the pair does not describe one flow
    mesh = euler_ss.generate_annulus(1.0, 2.0, 3, 12,
                                     roles=("outflow", "inflow"))
    bedges = np.concatenate([
        np.column_stack([np.roll(c.edges, -5 * c.comp, axis=0),
                         np.full(len(c.edges), c.comp)])
        for c in mesh.components])
    save_mesh(mesh, tmp_path / "a.mesh")
    save_mesh(Mesh(mesh.vertices, mesh.triangles, bedges, mesh.roles()),
              tmp_path / "b.mesh")
    files = []
    for name in ("a", "b"):
        doc = {"mesh": f"{name}.mesh",
               "omega0": {"type": "constant", "value": 1.0},
               "T": 0.1, "cfl": 0.4, "snapshots": 2, "C0": {1: 0.3},
               "g": {0: {"type": "constant", "value": 0.25},
                     1: {"type": "tabulated", "s": [0.0, 0.5],
                         "values": [-1.0, 0.0]}},
               "omega_in": {1: {"type": "constant", "value": 0.8}}}
        files.append(tmp_path / f"{name}.json")
        files[-1].write_text(json.dumps(doc))
    a, b = (euler_ss.load_scenario(f) for f in files)
    assert np.abs(a.g_edges() - b.g_edges()).max() > 0.4
    out = tmp_path / "cert"
    rc = main(["certify", *map(str, files), "-o", str(out)])
    assert rc == 2
    assert "different meshes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("change, message", [
    ({"T": 0.6}, "different T (0.5 and 0.6)"),
    ({"snapshots": 4}, "different snapshot counts (5 and 4)"),
    ({"g": [{**item, "value": 2.0 * item["value"]}
            for item in radial_doc()["g"]]}, "different boundary data g"),
    ({"g_multiplier": {"type": "tabulated", "times": [0.0, 1.0],
                       "values": [1.0, 2.0]}},
     "different g multipliers on [0, T]"),
    # equal at the snapshots 0, 0.1, ..., 0.5, different between them
    ({"g_multiplier": {"type": "tabulated",
                       "times": [0.0, 0.1, 0.15, 0.2, 0.5],
                       "values": [1.0, 1.0, 1.8, 1.0, 1.0]}},
     "different g multipliers on [0, T]"),
], ids=["T", "snapshots", "g", "g_multiplier", "g_multiplier_between"])
def test_certify_mismatched_pair_fails_before_the_runs(
        tmp_path, scenario_file, capsys, monkeypatch, change, message):
    runs = []
    monkeypatch.setattr(euler_ss.transport, "run",
                        lambda *a: runs.append(a))
    doc = radial_doc()
    doc.update(change)
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(doc))
    out = tmp_path / "cert"
    rc = main(["certify", str(scenario_file), str(pair), "-o", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err == f"error: certify: the two scenarios have {message}"
    assert runs == []
    assert not out.exists()
    # a twin of the two runs rejects the pair by the same rule, in the
    # same words
    monkeypatch.undo()
    sc1 = euler_ss.load_scenario(scenario_file)
    sc2 = replace(euler_ss.load_scenario(pair), mesh=sc1.mesh)
    basis = euler_ss.HarmonicBasis(sc1.mesh)
    trajs = [euler_ss.run(sc, basis) for sc in (sc1, sc2)]
    with pytest.raises(euler_ss.UsageError) as exc:
        euler_ss.TwinRun(*trajs)
    assert str(exc.value) == f"twin runs have {message}"


@pytest.mark.parametrize("flag", ["--delta-c0", "--delta-omega-in"])
def test_certify_repeated_delta_component_is_usage_error(
        tmp_path, scenario_file, capsys, monkeypatch, flag):
    runs = []
    monkeypatch.setattr(euler_ss.transport, "run",
                        lambda *a: runs.append(a))
    out = tmp_path / "cert"
    rc = main(["certify", str(scenario_file), flag, "1=0.1", flag, "1=0.2",
               "-o", str(out)])
    assert rc == 2
    assert f"{flag}: component 1 given twice" in capsys.readouterr().err
    assert runs == []
    assert not out.exists()


# -- stability ----------------------------------------------------------


def test_stability_single_zero_rung(tmp_path, scenario_file, capsys):
    out = tmp_path / "stab"
    rc = main(["stability", str(scenario_file), "--ladder", "0",
               "-o", str(out)])
    assert rc == 0
    rows = read_csv(out / "report.csv")
    assert len(rows) == 1
    assert float(rows[0]["y_T"]) == 0.0


def test_stability_ladder_monotone(tmp_path, scenario_file):
    out = tmp_path / "stab"
    rc = main(["stability", str(scenario_file),
               "--ladder", "0.001,0.01,0.1", "-o", str(out)])
    assert rc == 0
    rows = read_csv(out / "report.csv")
    y = [float(r["y_T"]) for r in rows]
    assert y == sorted(y)
    assert all((out / f"rung_{i:02d}.csv").exists()
               for i in range(len(rows)))
    beta = float(rows[0]["beta_fit"])
    assert 0.0 < beta <= 1.05
    # every rung is live here: its envelope inputs and margin are written
    for r in rows:
        assert all(math.isfinite(float(r[k]))
                   for k in ("y0", "a", "bound_margin"))


def test_stability_repeated_ladder_delta_is_usage_error(tmp_path,
                                                        scenario_file,
                                                        capsys):
    out = tmp_path / "stab"
    rc = main(["stability", str(scenario_file), "--ladder", "1e-3,1e-3",
               "-o", str(out)])
    assert rc == 2
    assert "distinct" in capsys.readouterr().err
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("comp", ["0", "5"])
def test_stability_perturb_of_no_inner_component_fails_before_the_runs(
        tmp_path, scenario_file, capsys, monkeypatch, comp):
    runs = []
    monkeypatch.setattr(euler_ss.transport, "run",
                        lambda *a: runs.append(a))
    out = tmp_path / "stab"
    rc = main(["stability", str(scenario_file), "--perturb", comp,
               "-o", str(out)])
    assert rc == 2
    assert f"component {comp} is not an inner component" \
        in capsys.readouterr().err
    assert runs == []
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("flags", [["--perturb", "0"],
                                   ["--ladder", "1e-3,1e-3"]])
def test_stability_usage_error_leaves_no_output_directory(tmp_path,
                                                          scenario_file,
                                                          capsys, flags):
    out = tmp_path / "stab"
    rc = main(["stability", str(scenario_file), *flags, "-o", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_stability_bad_ladder(tmp_path, scenario_file, capsys):
    rc = main(["stability", str(scenario_file), "--ladder", "0.1,fish",
               "-o", str(tmp_path / "stab")])
    assert rc == 2
    assert "ladder" in capsys.readouterr().err


def two_triangle_square(tmp_path, lo: float) -> Path:
    """Scenario on the square [lo, 1]^2 split along its diagonal from
    (lo, lo) to (1, 1) into two triangles, one wall component."""
    verts = np.array([[lo, lo], [1.0, lo], [1.0, 1.0], [lo, 1.0]])
    bedges = np.array([[0, 1, 0], [1, 2, 0], [2, 3, 0], [3, 0, 0]])
    save_mesh(Mesh(verts, np.array([[0, 1, 2], [0, 2, 3]]), bedges,
                   {0: "wall"}), tmp_path / "square.mesh")
    doc = {"mesh": "square.mesh",
           "omega0": {"type": "constant", "value": 1.0},
           "T": 0.1, "cfl": 0.4, "snapshots": 2}
    path = tmp_path / "square.json"
    path.write_text(json.dumps(doc))
    return path


def test_stability_perturb_all_without_hole_is_usage_error(tmp_path,
                                                           capsys):
    # no inner component: --perturb all names none, and a ladder that
    # perturbs nothing certifies nothing
    out = tmp_path / "stab"
    rc = main(["stability", str(two_triangle_square(tmp_path, 0.0)),
               "--perturb", "all", "-o", str(out)])
    assert rc == 2
    assert "inner component" in capsys.readouterr().err
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("refine, code", [("1", 0), ("3", 1)],
                         ids=["1", "3"])
def test_certify_origin_in_the_fluid_moves_the_lamb_centre(
        tmp_path, capsys, refine, code):
    # the origin lies on the shared edge of the two triangles: the Lamb
    # triple is centred beyond the bounding box instead, and certify runs.
    # One level passes; the Lamb rate of three levels of 2, 8 and 32
    # triangles fails
    out = tmp_path / "cert"
    rc = main(["certify", str(two_triangle_square(tmp_path, -1.0)),
               "--delta-omega0", "0.1", "--refine", refine, "-o", str(out)])
    stdout = capsys.readouterr().out
    assert rc == code
    assert (out / "ledger.csv").exists()
    if code:
        assert "FAIL lamb identity rate: -1.75 (need >= 0.9)" in stdout
    else:
        assert "certify: PASS" in stdout.splitlines()


# -- start-up and exit --------------------------------------------------


def child_env() -> dict:
    """This checkout's package on the path, and stdout block buffered."""
    src = str(Path(euler_ss.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_cli_import_skips_ode_integrators():
    # only the ODE oracles need scipy.integrate; the CLI must not pay for it
    code = ("import sys, euler_ss.cli; "
            "sys.exit('scipy.integrate' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env())
    assert proc.returncode == 0


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_python(code: str, **env_vars) -> dict:
    """Run ``code`` in a fresh interpreter whose environment has none of
    the BLAS thread variables but ``env_vars``; returns the JSON the code
    prints."""
    env = {k: v for k, v in child_env().items() if k not in THREAD_VARS}
    env.update(env_vars)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_package_import_loads_no_numpy():
    assert run_python("import json, sys, euler_ss; "
                      "print(json.dumps('numpy' in sys.modules))") is False


def test_package_exports_resolve_on_first_read():
    out = run_python("""
import json, sys, euler_ss
wrong = [n for n in euler_ss.__all__ if getattr(euler_ss, n) is not
         vars(sys.modules[getattr(euler_ss, n).__module__]).get(n)]
try:
    euler_ss.no_such_name
    unknown = "no error"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"wrong": wrong, "missing": sorted(
    set(euler_ss.__all__) - set(dir(euler_ss))), "unknown": unknown}))
""")
    assert out == {"wrong": [], "missing": [], "unknown":
                   "module 'euler_ss' has no attribute 'no_such_name'"}


THREADS_AFTER_CLI_IMPORT = (
    "import json, os, sys, euler_ss.cli; print(json.dumps({"
    "'env': {v: os.environ.get(v) for v in %r}, 'threads': "
    "len(os.listdir('/proc/self/task')) if sys.platform == 'linux' "
    "else 1}))" % (THREAD_VARS,))


def test_cli_import_runs_blas_on_one_thread():
    out = run_python(THREADS_AFTER_CLI_IMPORT)
    assert out == {"env": dict.fromkeys(THREAD_VARS, "1"), "threads": 1}


def test_callers_thread_variable_wins():
    out = run_python(THREADS_AFTER_CLI_IMPORT, OMP_NUM_THREADS="2")
    assert out["env"] == {"OPENBLAS_NUM_THREADS": None,
                          "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None}


def run_module(tmp_path, args):
    """``python -m euler_ss.cli ARGS`` with stdout and stderr sent to
    files; returns (exit code, stdout, stderr)."""
    out, err = tmp_path / "stdout.txt", tmp_path / "stderr.txt"
    with open(out, "wb") as fo, open(err, "wb") as fe:
        code = subprocess.run([sys.executable, "-m", "euler_ss.cli", *args],
                              env=child_env(), stdout=fo, stderr=fe,
                              timeout=120).returncode
    return code, out.read_text(), err.read_text()


def test_module_entry_flushes_before_exit(tmp_path, scenario_file, capsys):
    # in process, main returns its code and leaves the interpreter running
    assert main(["simulate", str(scenario_file),
                 "-o", str(tmp_path / "inproc")]) == 0
    expected = capsys.readouterr().out
    code, out, _ = run_module(tmp_path, ["simulate", str(scenario_file),
                                         "-o", str(tmp_path / "child")])
    assert code == 0
    # the block-buffered stdout reaches its file whole
    assert out == expected.replace("inproc", "child")
    assert (tmp_path / "child" / "trajectory.csv").read_bytes() \
        == (tmp_path / "inproc" / "trajectory.csv").read_bytes()


@pytest.mark.parametrize("case", ["flag", "ladder", "sign"])
def test_module_entry_error_codes(tmp_path, scenario_file, case):
    if case == "flag":          # argparse exits from inside main
        args, want, text = ["simulate", "--no-such-flag"], 2, "usage:"
    elif case == "ladder":
        args = ["stability", str(scenario_file), "--ladder", "0.1,fish",
                "-o", str(tmp_path / "stab")]
        want, text = 2, "error: --ladder"
    else:
        doc = radial_doc()
        doc["g"][0]["value"] = -0.05        # outflow data with g < 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        args = ["simulate", str(bad), "-o", str(tmp_path / "run")]
        want, text = 3, "precondition violated: sign condition"
    code, out, err = run_module(tmp_path, args)
    assert code == want
    assert text in err
    assert out == ""


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["block-buffered", "unbuffered"])
def test_closed_stdout_pipe_exits_quietly(tmp_path, unbuffered):
    # the reader closes its end long before the child, still importing
    # scipy, prints: the print (unbuffered) or the final flush (block
    # buffered) meets a broken pipe
    mesh_file = tmp_path / "m.mesh"
    main(["mesh", "annulus", "--r0", "1", "--r1", "2", "--nr", "2",
          "--ntheta", "8", "-o", str(mesh_file)])
    env = child_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "euler_ss.cli", "mesh", "info",
         str(mesh_file)], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_simulate_and_certify_report_the_divergence_defect(
        tmp_path, scenario_file, capsys):
    traj = euler_ss.transport.run(euler_ss.load_scenario(scenario_file))
    defect = traj.flux.div_defect
    assert 0.0 < defect < 1e-13
    assert main(["simulate", str(scenario_file),
                 "-o", str(tmp_path / "sim")]) == 0
    lines = capsys.readouterr().out.splitlines()
    # after the defect line, which stays as it was
    at = next(i for i, line in enumerate(lines)
              if line.startswith("max principle defect "))
    assert lines[at + 1] == f"through-flow divergence defect {defect:.3e}"
    assert main(["certify", str(scenario_file), "--delta-c0", "1=0.1",
                 "-o", str(tmp_path / "cert")]) == 0
    assert f"info through-flow divergence defect {defect:.3e}" \
        in capsys.readouterr().out.splitlines()
