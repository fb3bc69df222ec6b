"""Generate `golden.json`, the pinned output of short runs of every preset.

    PYTHONPATH=src python tests/make_golden.py

Each preset runs for 300 epochs with seed 1, noisy presets also with
seed 2. The pin holds, per run, the SHA-256 of the per-epoch protocol
sequence (event flag, trigger count, participants, recovery rounds,
unresolved readings), the sample count, the summary floats, and per-pool
sum, abs-sum, min and max of the recorded levels and of the u1..u5
columns of the exported trajectory. Refactors and speed-ups must
reproduce it; regenerating it is a behaviour change.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import numpy as np

from wcbsim.harness import (PRESET_NAMES, run_experiment, scenario_preset,
                            write_trajectory_csv)

GOLDEN = Path(__file__).with_name("golden.json")
EPOCHS = 300
# coprime with the 1000 steps of a 60 s epoch, so the recorded rows fall on
# every in-epoch step offset, actuation switch steps included
TRAJ_EVERY = 7
SUMMARY_FLOATS = ("IAE_sum", "IAE_max", "DC_pct", "mean_latency_ms")
RUNS = tuple((name, seed) for name in PRESET_NAMES
             for seed in ((1, 2) if name.endswith("_noisy") else (1,)))


def _column_stats(table: np.ndarray) -> dict:
    return {"sum": table.sum(axis=0).tolist(),
            "abs_sum": np.abs(table).sum(axis=0).tolist(),
            "min": table.min(axis=0).tolist(),
            "max": table.max(axis=0).tolist()}


def epoch_seq_sha256(report) -> str:
    """SHA-256 of the per-epoch integer sequence: event flag, trigger count,
    participants, recovery rounds and unresolved readings."""
    seq = [[int(tr.event_flag), tr.n_triggered, list(tr.participants),
            tr.recovery_rounds_used, list(tr.unresolved)] for tr in report.traces]
    return hashlib.sha256(json.dumps(seq).encode()).hexdigest()


def observe(name: str, seed: int) -> dict:
    report = run_experiment(scenario_preset(
        name, seed=seed, duration_epochs=EPOCHS, traj_every=TRAJ_EVERY))
    buf = io.StringIO()
    write_trajectory_csv(report, buf)
    exported = np.loadtxt(io.StringIO(buf.getvalue()), delimiter=",", skiprows=1)
    row = report.summary_row()
    return {
        "epoch_seq_sha256": epoch_seq_sha256(report),
        "sample_count": report.sample_count,
        "summary": {k: float(row[k]) for k in SUMMARY_FLOATS},
        "levels": _column_stats(report.levels),
        "u": _column_stats(exported[:, 6:11]),
    }


def main() -> None:
    pin = {f"{name}:{seed}": observe(name, seed) for name, seed in RUNS}
    GOLDEN.write_text(json.dumps(pin, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pin)} runs to {GOLDEN}")


if __name__ == "__main__":
    main()
