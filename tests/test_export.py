"""The block trajectory writer against the per-row writer it replaced."""

import io
import math
from dataclasses import replace

import numpy as np
import pytest

from wcbsim import plant
from wcbsim.harness import (TRAJ_BLOCK_ROWS, SwitchLog, _fmt, run_experiment,
                            scenario_preset, write_trajectory_csv)
from wcbsim.pools import N_POOLS


def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if math.isnan(v):
            return "nan"
        return repr(v)
    return str(v)


def reference_trajectory_csv(report, fh) -> None:
    """One row at a time, every cell formatted on its own. The row at
    t = g*dt holds the levels at the end of step g-1 and the flows and
    off-take during that step."""
    cols = ["t_min"] + [f"y{i+1}" for i in range(N_POOLS)] \
        + [f"u{i+1}" for i in range(N_POOLS)] + ["d5"]
    fh.write(",".join(cols) + "\n")
    sc = report.scenario
    dist = plant.DisturbanceSchedule(list(sc.disturbances))
    steps = np.rint(report.t_min / sc.dt_min).astype(np.int64) - 1
    for step, t, y, u in zip(steps, report.t_min, report.levels,
                             report.switch_log.flows_at(steps)):
        d5 = dist.disturbance_at((step + 0.5) * sc.dt_min)[4]
        fh.write(",".join([_cell(t)] + [_cell(v) for v in y]
                          + [_cell(v) for v in u] + [_cell(d5)]) + "\n")


def _both(report) -> tuple[str, str]:
    got, expected = io.StringIO(), io.StringIO()
    write_trajectory_csv(report, got)
    reference_trajectory_csv(report, expected)
    return got.getvalue(), expected.getvalue()


# (preset, overrides, least and most data rows)
RUNS = {
    # the benchmark's `wcbsim run` export: full resolution, a partial last block
    "cli-export": ("dept_etc_noiseless", dict(duration_epochs=60, traj_every=1),
                   60000, 60000),
    # rows on every in-epoch offset, actuation switch steps and block edges
    "stride-7": ("dept_etc_noisy", dict(duration_epochs=300, traj_every=7),
                 300000 // 7, 300000 // 7),
    "epoch-45s": ("dept_etc_noisy", dict(duration_epochs=80, traj_every=1,
                                         t_epoch_s=45.0), 60000, 60000),
    "periodic": ("hall_periodic_noisy", dict(duration_epochs=30, traj_every=3),
                 10000, 10000),
    "under-one-block": ("dept_etc_noiseless", dict(duration_epochs=1, traj_every=7),
                        1, TRAJ_BLOCK_ROWS - 1),
    "header-only": ("dept_etc_noiseless", dict(duration_epochs=1, traj_every=1001),
                    0, 0),
}


@pytest.mark.parametrize("run", RUNS)
def test_block_writer_matches_row_writer(run):
    name, overrides, least, most = RUNS[run]
    report = run_experiment(scenario_preset(name, **overrides))
    got, expected = _both(report)
    assert least <= got.count("\n") - 1 <= most
    assert got == expected


def test_signed_zero_inputs_keep_their_sign():
    # held inputs 0.0 and -0.0 compare equal, but are written differently
    report = run_experiment(scenario_preset("dept_etc_noiseless", duration_epochs=1,
                                            traj_every=1))
    log = SwitchLog(N_POOLS)
    for step, flow in ((100, -0.0), (101, 0.0), (300, -0.0), (301, -0.0), (700, 0.0)):
        log.log(0, step, flow)
    report = replace(report, switch_log=log, scenario=replace(
        report.scenario, disturbances=((0.2004, 4, -0.0), (0.5004, 4, 0.0))))
    got, expected = _both(report)
    assert got == expected
    # row k holds step k
    rows = [row.split(",") for row in got.splitlines()[1:]]
    u1 = [row[6] for row in rows]
    assert u1[99:103] == ["0.0", "-0.0", "0.0", "0.0"]
    assert u1[299:302] == ["0.0", "-0.0", "-0.0"]
    assert u1[699:701] == ["-0.0", "0.0"]
    d5 = [row[11] for row in rows]
    assert d5[199:201] == ["0.0", "-0.0"]
    assert d5[499:501] == ["-0.0", "0.0"]


@pytest.mark.parametrize("value", [0.1, -0.0, 1e-300, math.nan, math.inf, -math.inf,
                                   np.float64(2.5e-12), 3])
def test_fmt_matches_row_writer_cells(value):
    assert _fmt(value) == _cell(value)


def test_d5_is_the_offtake_of_the_step_that_ends_at_the_row(monkeypatch):
    # on-grid step at 3 min; off-grid steps that snap to the step boundary
    # after (6.0006 min) and before (9.0004 min) their time
    integrated = []

    class Recording(plant.PlantStepper):
        def advance(self, x, v, n):
            integrated.extend([v[-1]] * n)
            return super().advance(x, v, n)

    monkeypatch.setattr(plant, "PlantStepper", Recording)
    report = run_experiment(scenario_preset(
        "dept_etc_noiseless", duration_epochs=12, traj_every=1,
        disturbances=((3.0, 4, 16.0), (6.0006, 4, 34.0), (9.0004, 4, 5.0))))
    got, expected = _both(report)
    assert got == expected
    rows = [row.split(",") for row in got.splitlines()[1:]]
    assert [float(row[11]) for row in rows] == integrated
    around = {row[0]: row[11] for row in rows[2998:3001] + rows[5999:6002] + rows[8998:9001]}
    assert around == {"2.999": "0.0", "3.0": "0.0", "3.001": "16.0",
                      "6.0": "16.0", "6.001": "16.0", "6.002": "34.0",
                      "8.999": "34.0", "9.0": "34.0", "9.001": "5.0"}
