import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wcbsim
from wcbsim.cli import (EXIT_DESIGN, EXIT_OK, EXIT_SCENARIO, load_scenario,
                        main, parse_seeds, scenario_from_ini, scenario_to_ini)
from wcbsim.harness import Scenario, scenario_preset

SMALL = ["--override", "run.duration_epochs=40", "--override", "run.traj_every=200"]


def test_seed_specs():
    assert parse_seeds("1..8") == [1, 2, 3, 4, 5, 6, 7, 8]
    assert parse_seeds("3,5,9") == [3, 5, 9]
    assert parse_seeds("2") == [2]


def test_scenario_ini_round_trip():
    sc = scenario_preset("hall_etc_noisy", seed=4)
    text = scenario_to_ini(sc)
    again = scenario_from_ini(text)
    assert again == sc
    assert scenario_to_ini(again) == text


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
                                      "trigger.scale=1,2"])
def test_out_of_range_override_exits_2_without_output(tmp_path, capsys, override):
    out = tmp_path / "out"
    rc = main(["run", "--scenario", "dept_etc_noiseless", "--out", str(out),
               "--override", override] + SMALL)
    assert rc == EXIT_SCENARIO
    assert not out.exists()
    assert "scenario error" in capsys.readouterr().err


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


def test_energy_model_unknown_profile(tmp_path):
    rc = main(["energy-model", "--profile", "basement", "--out", str(tmp_path)])
    assert rc == EXIT_SCENARIO


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
