"""Short runs of every preset must reproduce the pinned output in golden.json."""

import json
import math

import pytest

from make_golden import GOLDEN, RUNS, observe

PIN = json.loads(GOLDEN.read_text())
REL = 1e-9


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
