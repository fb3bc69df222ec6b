import contextlib
import csv
import io
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wcbsim
from wcbsim.cli import (EXIT_DESIGN, EXIT_OK, EXIT_SCENARIO, load_scenario, main,
                        parse_seeds, scenario_from_ini, scenario_to_ini)
from wcbsim.harness import PRESET_NAMES, Scenario, ScenarioError, scenario_preset
from wcbsim.triggers import DEFAULT_TRIGGERS

SMALL = ["--override", "run.duration_epochs=40", "--override", "run.traj_every=200"]


def test_seed_specs():
    assert parse_seeds("1..8") == [1, 2, 3, 4, 5, 6, 7, 8]
    assert parse_seeds("3,5,9") == [3, 5, 9]
    assert parse_seeds("2") == [2]
    for bad in ("-2", "0..-1", "x", "1..2..3", ""):
        with pytest.raises(ScenarioError):
            parse_seeds(bad)


def test_scenario_ini_round_trip():
    for name in PRESET_NAMES:
        sc = scenario_preset(name, seed=4)
        text = scenario_to_ini(sc)
        again = scenario_from_ini(text)
        assert again == sc
        assert scenario_to_ini(again) == text


def test_overrides_keep_the_file_values(tmp_path):
    ini = tmp_path / "fine.ini"
    ini.write_text("[run]\nt_epoch_s = 1\n\n[plant]\ndt_min = 0.000333333333333\n"
                   "initial_level_m = 0.0512345678\n")
    sc = load_scenario(str(ini), ["run.seed=2"])
    assert (sc.seed, sc.t_epoch_s) == (2, 1.0)
    assert sc.dt_min == 0.000333333333333
    assert sc.initial_level_m == 0.0512345678


def test_overrides_keep_the_params_file(tmp_path):
    params = tmp_path / "triggers.txt"
    blocks = []
    for j, (m, n, idx) in enumerate(zip(DEFAULT_TRIGGERS.M, DEFAULT_TRIGGERS.N,
                                        DEFAULT_TRIGGERS.index_sets)):
        rows = [" / ".join(" ".join(repr(float(v)) for v in row) for row in a)
                for a in (m, n)]
        theta = 0.5 if j == 0 else DEFAULT_TRIGGERS.theta[j]
        blocks.append(f"node {j + 1} states {' '.join(map(str, idx))}\n"
                      f"M {rows[0]}\nN {rows[1]}\ntheta {theta!r}\n")
    params.write_text("".join(blocks))
    ini = tmp_path / "custom.ini"
    ini.write_text(f"[trigger]\nparams_file = {params}\n")
    assert load_scenario(str(ini), []).trigger_params.theta[0] == 0.5
    sc = load_scenario(str(ini), ["run.seed=2"])
    assert sc.seed == 2
    assert sc.trigger_params.theta == (0.5,) + DEFAULT_TRIGGERS.theta[1:]


def test_unknown_keys_rejected():
    with pytest.raises(Exception):
        scenario_from_ini("[run]\ntestbed = dept\nwarp_factor = 9\n")


def test_run_batch_writes_csvs(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--scenario", "dept_etc_noiseless", "--seeds", "1,2",
               "--out", str(out)] + SMALL)
    assert rc == EXIT_OK
    with open(out / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {r["seed"] for r in rows} == {"1", "2"}
    assert (out / "trajectory_dept_etc_seed1.csv").exists()
    assert (out / "trace_dept_etc_seed2.csv").exists()


def test_run_periodic_counts_epochs(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--scenario", "hall_periodic_noiseless", "--seeds", "1",
               "--out", str(out)] + SMALL)
    assert rc == EXIT_OK
    with open(out / "summary.csv") as fh:
        row = next(csv.DictReader(fh))
    assert row["sample_count"] == "40"
    assert row["variant"] == "WCB-P"


def test_malformed_scenario_exits_2_without_output(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\ntestbed = atlantis\n")
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(bad), "--out", str(out)])
    assert rc == EXIT_SCENARIO
    assert not out.exists()
    assert "scenario error" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["plant.disturbances=5:0:1",
                                      "plant.disturbances=5:6:1",
                                      "trigger.scale=1,2",
                                      "network.n_ctrl_slots=0",
                                      "network.max_recovery_pairs=-1",
                                      "network.fp_rate=2",
                                      "run.t_epoch_s=0.24",
                                      "run.t_epoch_s=-60",
                                      "run.t_epoch_s=nan",
                                      "noise.level_std_m=nan",
                                      "noise.level_std_m=inf",
                                      "noise.flow_std=nan",
                                      "plant.initial_level_m=inf",
                                      "plant.dt_min=0",
                                      "plant.dt_min=-0.001",
                                      "run.t_epoch_s=45 plant.dt_min=0.75",
                                      "run.seed=5%",
                                      "trigger.params_file=a%b",
                                      "plant.dt_min=1e-320",
                                      "run.t_epoch_s=1e308",
                                      "plant.disturbances=1e308:1:1",
                                      "trigger.scale=1,nan,1",
                                      "run.seed=-1",
                                      "--seeds=-2",
                                      "--seeds=1..x",
                                      "run.duration_epochs=1000000000",
                                      *(f"network.{key}={count}"
                                        for key in ("n_event_slots", "max_recovery_pairs",
                                                    "n_ctrl_slots")
                                        for count in ("100000000", "9" * 400))])
def test_out_of_range_override_exits_2_without_output(tmp_path, capsys, override):
    out = tmp_path / "out"
    argv = ["run", "--scenario", "dept_etc_noiseless", "--out", str(out)] + SMALL
    for item in override.split():
        argv += [item] if item.startswith("--") else ["--override", item]
    rc = main(argv)
    assert rc == EXIT_SCENARIO
    assert not out.exists()
    assert "scenario error" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, "node 1 states 0 10\nM 0.6 x / 0 1\n",
                                     "node 1 states 0 10\nM 1 0 0 / 0 1 0 / 0 0 1\n"
                                     "N 0 0 0 / 0 0 0 / 0 0 0\ntheta 0.5\n"],
                         ids=["missing", "malformed", "3x3-for-2-states"])
def test_bad_params_file_exits_2_without_output(tmp_path, capsys, content):
    params = tmp_path / "triggers.txt"
    if content is not None:
        params.write_text(content)
    out = tmp_path / "out"
    rc = main(["run", "--scenario", "dept_etc_noiseless", "--out", str(out),
               "--override", f"trigger.params_file={params}"] + SMALL)
    assert rc == EXIT_SCENARIO
    assert not out.exists()
    assert "trigger parameters" in capsys.readouterr().err


def test_percent_sign_in_a_scenario_file_exits_2_without_output(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nseed = 5%\n")
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(bad), "--out", str(out)])
    assert rc == EXIT_SCENARIO
    assert not out.exists()
    assert "scenario error" in capsys.readouterr().err


def test_run_defaults_to_the_scenario_seed(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--scenario", "dept_etc_noiseless", "--out", str(out),
               "--override", "run.seed=7"] + SMALL)
    assert rc == EXIT_OK
    with open(out / "summary.csv") as fh:
        assert [row["seed"] for row in csv.DictReader(fh)] == ["7"]
    assert (out / "trajectory_dept_etc_seed7.csv").exists()
    assert capsys.readouterr().out.startswith("7,")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([f.metadata["ini"] for f in fields(Scenario) if f.metadata["ini"]]
                       + [("trigger", "params_file")]),
       st.sampled_from(["%", "5%", "nan", "-nan", "inf", "1e-320", "1e308", "-1", "0",
                        "", "1,nan,1", "1e308:1:1", "1:9:1"])
       | st.text(alphabet="0123456789-.,:%eE naiftrue", max_size=5))
def test_validate_exits_0_or_2_for_any_override(key, value):
    # validate simulates nothing, so no drawn value can start a long run
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["validate", "--override", f"{key[0]}.{key[1]}={value}"])
    assert rc in (EXIT_OK, EXIT_SCENARIO)
    if rc == EXIT_SCENARIO:
        assert err.getvalue().startswith("violation: ")


@pytest.mark.parametrize("inside", [False, True], ids=["file", "inside-file"])
def test_run_refuses_an_out_file_before_simulating(tmp_path, monkeypatch, capsys, inside):
    from wcbsim import cli

    def boom(scenario):
        raise AssertionError("simulated although --out is a file")

    monkeypatch.setattr(cli.harness, "run_experiment", boom)
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    out = taken / "out" if inside else taken
    rc = main(["run", "--scenario", "dept_etc_noiseless", "--out", str(out)] + SMALL)
    assert rc == EXIT_SCENARIO
    assert "scenario error" in capsys.readouterr().err
    assert taken.read_text() == "keep me\n"


def test_energy_model_refuses_an_out_file(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    assert main(["energy-model", "--out", str(taken)]) == EXIT_SCENARIO
    assert "scenario error" in capsys.readouterr().err
    assert taken.read_text() == "keep me\n"


def test_run_with_epochs_that_do_not_divide_the_delays(tmp_path):
    # 45 s epochs: the 2-6 min pool delays are 2.67-8 epochs
    out = tmp_path / "out"
    rc = main(["run", "--scenario", "dept_etc_noisy", "--out", str(out),
               "--override", "run.t_epoch_s=45"] + SMALL)
    assert rc == EXIT_OK
    with open(out / "trace_dept_etc_seed1.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 40


def test_import_does_not_load_scipy_signal():
    # the interpreter must find the package under test, not an installed copy
    src = str(Path(wcbsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, wcbsim.cli; print('scipy.signal' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_unknown_preset_exits_2(tmp_path):
    rc = main(["run", "--scenario", "nonexistent_preset",
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_SCENARIO
    assert not (tmp_path / "o").exists()


def test_override_changes_behavior(tmp_path):
    out = tmp_path / "o"
    rc = main(["run", "--scenario", "dept_etc_noiseless", "--seeds", "1",
               "--out", str(out), "--override", "run.duration_epochs=25",
               "--override", "run.traj_every=500",
               "--override", "run.variant=periodic"])
    assert rc == EXIT_OK
    with open(out / "summary.csv") as fh:
        row = next(csv.DictReader(fh))
    assert row["sample_count"] == "25"


def test_design_reports_decay_rate(capsys):
    assert main(["design"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    rho = float(lines[-1])
    assert rho >= 0.006
    k_rows = [l for l in lines if not l.startswith("#")][:5]
    K = np.array([[float(v) for v in row.split(",")] for row in k_rows])
    assert K.shape == (5, 15)


def test_design_pade_variant(capsys):
    assert main(["design", "--delay-approx", "pade"]) == EXIT_OK
    rho = float(capsys.readouterr().out.splitlines()[-1])
    assert rho >= 0.006


def test_design_synthesis_failure_exits_4(monkeypatch, capsys):
    from wcbsim import cli
    from wcbsim.control import NoStabilizingSolution

    def boom(model, weights):
        raise NoStabilizingSolution("synthetic")

    monkeypatch.setattr(cli.control, "lqr_gain", boom)
    assert main(["design"]) == EXIT_DESIGN
    assert "synthesis failed" in capsys.readouterr().err


def test_energy_model_outputs(tmp_path):
    out = tmp_path / "em"
    assert main(["energy-model", "--profile", "hall", "--out", str(out)]) == EXIT_OK
    with open(out / "dc_vs_event_rate_hall.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 101
    savings = [float(r["savings_pct"]) for r in rows]
    assert all(a >= b - 1e-12 for a, b in zip(savings, savings[1:]))
    assert savings[-1] <= 0.0  # always-event epochs make ETC strictly worse

    with open(out / "dc_vs_epoch_duration_hall.csv") as fh:
        sweep = {int(r["T_epoch_s"]): r for r in csv.DictReader(fh)}
    assert float(sweep[60]["DC_etc_pct"]) == pytest.approx(0.034, abs=0.002)
    assert float(sweep[60]["DC_periodic_pct"]) == pytest.approx(0.099, abs=0.002)
    assert float(sweep[60]["savings_pct"]) == pytest.approx(65.7, abs=1.0)
    assert float(sweep[1]["savings_pct"]) == pytest.approx(76.5, abs=1.0)


def test_energy_model_event_override(tmp_path):
    out = tmp_path / "em"
    rc = main(["energy-model", "--profile", "dept", "--out", str(out),
               "--events", "60=300"])
    assert rc == EXIT_OK
    with open(out / "dc_vs_epoch_duration_dept.csv") as fh:
        sweep = {int(r["T_epoch_s"]): r for r in csv.DictReader(fh)}
    assert int(sweep[60]["events"]) == 300


@pytest.mark.parametrize("events", ["15=abc", "15", "0=5", "60=5000"])
def test_energy_model_bad_events_exit_2_and_write_nothing(tmp_path, capsys, events):
    out = tmp_path / "em"
    assert main(["energy-model", "--out", str(out), "--events", events]) == EXIT_SCENARIO
    assert "scenario error" in capsys.readouterr().err
    assert not out.exists()


def test_energy_model_unknown_profile(tmp_path):
    out = tmp_path / "em"
    rc = main(["energy-model", "--profile", "basement", "--out", str(out)])
    assert rc == EXIT_SCENARIO
    assert not out.exists()


def test_numeric_divergence_exits_3(tmp_path, monkeypatch, capsys):
    from wcbsim import cli
    from wcbsim.plant import NonFiniteState

    def boom(scenario):
        raise NonFiniteState("synthetic divergence")

    monkeypatch.setattr(cli.harness, "run_experiment", boom)
    out = tmp_path / "o"
    rc = main(["run", "--scenario", "dept_etc_noiseless", "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    assert "divergence" in capsys.readouterr().err


def test_validate_default_ok(capsys):
    assert main(["validate"]) == EXIT_OK
    assert "ok" in capsys.readouterr().out


def test_validate_rejects_tiny_epoch(capsys):
    # 180 ms epochs still divide dt but cannot hold the active portion
    rc = main(["validate", "--override", "run.t_epoch_s=0.18"])
    assert rc == EXIT_SCENARIO
    assert "violation" in capsys.readouterr().err
