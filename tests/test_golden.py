"""Short runs of every preset must reproduce the pinned output in golden.json,
and two full days their per-epoch integer sequence."""

import json
import math

import pytest

from make_golden import GOLDEN, RUNS, epoch_seq_sha256, observe
from wcbsim.harness import run_experiment, scenario_preset

PIN = json.loads(GOLDEN.read_text())
REL = 1e-9
# `epoch_seq_sha256` of a whole day (1440 epochs, seed 1). Only integers are
# pinned: float bytes can differ across BLAS builds, the protocol draws cannot.
FULL_DAY = {
    "dept_etc_noisy": "4ecdd323ac6d5290c82f8c5b105313b6a010aa35fcbf94f78de378cd78bd7d10",
    "dept_periodic_noisy": "2b41a5d20ad142380d7ba7664e774a20fb433c3f3a766bb8dbb8a4180e35e1c0",
}


def _close(got: float, expected: float) -> bool:
    if math.isnan(expected):
        return math.isnan(got)
    return math.isclose(got, expected, rel_tol=REL, abs_tol=0.0)


@pytest.mark.parametrize("name,seed", RUNS, ids=[f"{n}:{s}" for n, s in RUNS])
def test_matches_golden(name, seed):
    expected = PIN[f"{name}:{seed}"]
    got = observe(name, seed)
    assert got["epoch_seq_sha256"] == expected["epoch_seq_sha256"]
    assert got["sample_count"] == expected["sample_count"]
    for key, value in expected["summary"].items():
        assert _close(got["summary"][key], value), key
    for table in ("levels", "u"):
        for stat, values in expected[table].items():
            for pool, value in enumerate(values):
                assert _close(got[table][stat][pool], value), (table, stat, pool + 1)


def test_pin_covers_every_run():
    assert sorted(PIN) == sorted(f"{n}:{s}" for n, s in RUNS)


@pytest.mark.parametrize("name", sorted(FULL_DAY))
def test_full_day_epoch_sequence(name):
    # every epoch's random streams feed this sequence, the ones after the
    # 300 epochs of golden.json included; the stride only bounds the memory
    report = run_experiment(scenario_preset(name, seed=1, duration_epochs=1440,
                                            traj_every=1000))
    assert epoch_seq_sha256(report) == FULL_DAY[name]
