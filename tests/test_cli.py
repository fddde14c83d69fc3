import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import euler_ss
from euler_ss.cli import main
from euler_ss.mesh import load_mesh


def radial_doc():
    """Flow-through annulus whose circulation history has a closed form."""
    Q = 1.0
    return {
        "mesh": {"annulus": {"r0": 1.0, "r1": 2.0, "nr": 6, "ntheta": 24,
                             "roles": ["outflow", "inflow"]}},
        "omega0": {"type": "constant", "value": 1.0},
        "T": 0.5, "cfl": 0.4, "snapshots": 5,
        "g": [{"comp": 0, "profile": "constant",
               "value": Q / (2 * math.pi * 2.0)},
              {"comp": 1, "profile": "constant",
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


def test_certify_broken_sign_condition(tmp_path, capsys):
    doc = radial_doc()
    # outflow data with the wrong sign violates the flow preconditions
    doc["g"] = [{"comp": 0, "profile": "constant", "value": -0.05},
                {"comp": 1, "profile": "constant", "value": 0.05}]
    del doc["omega_in"]
    doc["mesh"]["annulus"]["roles"] = ["inflow", "outflow"]
    doc["omega_in"] = {0: {"type": "constant", "value": 1.0}}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["certify", str(bad), "--delta-c0", "1=0.1",
               "-o", str(tmp_path / "cert")])
    assert rc == 3
    assert "precondition" in capsys.readouterr().err


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


def test_stability_bad_ladder(tmp_path, scenario_file, capsys):
    rc = main(["stability", str(scenario_file), "--ladder", "0.1,fish",
               "-o", str(tmp_path / "stab")])
    assert rc == 2
    assert "ladder" in capsys.readouterr().err


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
