"""One benchmark repetition, run in a fresh interpreter by perfbench/run.py.

Usage: python3 child.py JOB_JSON

JOB_JSON is an object with keys `workload`, `seeds` (simulator seeds),
`trace` (bool) and `out` (a fresh directory owned by this repetition).
The child times the import of `wcbsim.cli` and everything it pulls in
(set-up), then runs the workload's top-level calls and writes `result.json`
into `out`. With `trace` it first wraps the public entry points of each
layer (module attributes and `PlantStepper.advance`, in this process only)
and also writes every recorded span to `trace.json`.

A seed that raises is recorded as failed; the remaining seeds still run.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

TRAJ_EVERY = 60            # decimated trajectory: one sample per simulated minute
CLI_EPOCHS = 60            # shortened cli-export run


class Tracer:
    """Records one span per wrapped call: (name, start, end, parent, group).

    `parent` is the index of the enclosing span (-1 at top level) and
    `group` names the seed the call belongs to. Spans stay in memory until
    `dump` writes them out.
    """

    def __init__(self):
        self.spans: list = []
        self.group = None
        self._stack: list[int] = []
        self.counters = {"triggers.fired": 0, "plant.steps": 0,
                         "protocol.event_epochs": 0, "protocol.recovery_rounds": 0,
                         "protocol.unresolved_readings": 0,
                         "protocol.missed_actuations": 0}
        self.segment_lengths: set[int] = set()

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.group)
            if after is not None:
                after(args, result)
            return result
        return traced

    def install(self) -> None:
        from wcbsim import cli, control, harness, plant, protocol, triggers
        c = self.counters

        def fired(args, result):
            c["triggers.fired"] += bool(result)

        def stepped(args, result):
            c["plant.steps"] += args[3]
            self.segment_lengths.add(args[3])

        def finished(args, report):
            for key, value in protocol_counts(report).items():
                c["protocol." + key] += value

        for owner, attr, name, after in (
                (cli, "main", "cli.main", None),
                (cli, "load_scenario", "cli.load_scenario", None),
                (harness, "run_experiment", "harness.run", finished),
                (control, "lqr_gain", "control.synth", None),
                (triggers, "node_trigger", "triggers.eval", fired),
                (protocol, "event_phase", "protocol.event_phase", None),
                (protocol, "run_epoch", "protocol.run_epoch", None),
                (protocol, "quiet_trace", "protocol.quiet_trace", None),
                (harness, "stream_rng", "rng.stream", None),
                (plant.PlantStepper, "advance", "plant.advance", stepped),
                (harness, "write_summary_csv", "harness.summary_csv", None),
                (harness, "write_trajectory_csv", "harness.traj_csv", None),
                (harness, "write_trace_csv", "harness.trace_csv", None)):
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def dump(self, path: Path) -> None:
        counters = dict(self.counters, **{"plant.segment_lengths": len(self.segment_lengths)})
        path.write_text(json.dumps({"spans": self.spans, "counters": counters}))


def protocol_counts(report) -> dict:
    """Exact per-run protocol counters taken from the returned traces."""
    import numpy as np
    events = [tr for tr in report.traces if tr.event_flag]
    return {
        "event_epochs": len(events),
        "recovery_rounds": sum(tr.recovery_rounds_used for tr in report.traces),
        "unresolved_readings": sum(len(tr.unresolved) for tr in report.traces),
        "missed_actuations": sum(int((~np.isfinite(tr.act_latency_ms)).sum())
                                 for tr in events),
    }


def observe_report(report) -> dict:
    """What the reference pins for one in-process run."""
    seq = [(int(tr.event_flag), tr.n_triggered, len(tr.participants),
            tr.recovery_rounds_used, len(tr.unresolved)) for tr in report.traces]
    row = report.summary_row()
    return {
        "epochs": len(seq),
        "sample_count": report.sample_count,
        "int_seq_sha256": hashlib.sha256(json.dumps(seq).encode()).hexdigest(),
        "triggers": sum(s[1] for s in seq),
        "participants": sum(s[2] for s in seq),
        **protocol_counts(report),
        "floats": {k: float(row[k]) for k in ("IAE_sum", "IAE_max", "DC_pct",
                                             "mean_latency_ms")},
    }


def _timed(fn, *args):
    t0 = time.perf_counter()
    try:
        return fn(*args), None, time.perf_counter() - t0
    except Exception:
        return None, traceback.format_exc(), time.perf_counter() - t0


def run_presets(presets, seeds, tracer):
    """In-process batch: load each preset once, then run every seed."""
    from dataclasses import replace

    from wcbsim import cli, harness
    results, work_s = [], 0.0
    for preset in presets:
        if tracer:
            tracer.group = preset
        scenario, err, dt = _timed(cli.load_scenario, preset,
                                   [f"run.traj_every={TRAJ_EVERY}"])
        work_s += dt
        for seed in seeds:
            key = f"{preset}:{seed}"
            if tracer:
                tracer.group = key
            report, error, dt = (None, err, 0.0) if err else \
                _timed(harness.run_experiment, replace(scenario, seed=seed))
            work_s += dt
            results.append({"key": key, "error": error,
                            "epochs": scenario.duration_epochs if report else 0,
                            "obs": observe_report(report) if report else None})
    return results, work_s


def etc_batch(seeds, out, tracer):
    return run_presets(("dept_etc_noisy", "hall_etc_noisy"), seeds, tracer)


def periodic_day(seeds, out, tracer):
    return run_presets(("dept_periodic_noisy",), seeds, tracer)


def cli_export(seeds, out, tracer):
    """`wcbsim run` through cli.main, one seed per call, full-resolution CSVs."""
    from wcbsim import cli
    preset = "dept_etc_noiseless"
    results, work_s = [], 0.0
    for seed in seeds:
        key = f"{preset}:{seed}"
        if tracer:
            tracer.group = key
        argv = ["run", "--scenario", preset, "--seeds", str(seed),
                "--out", str(out / f"seed{seed}"),
                "--override", f"run.duration_epochs={CLI_EPOCHS}"]
        rc, error, dt = _timed(cli.main, argv)
        work_s += dt
        if error is None and rc != 0:
            error = f"wcbsim run exited with code {rc}"
        results.append({"key": key, "error": error, "out": f"seed{seed}",
                        "epochs": 0 if error else CLI_EPOCHS, "obs": None})
    return results, work_s


WORKLOADS = {"etc-batch": etc_batch, "periodic-day": periodic_day,
             "cli-export": cli_export}


def main() -> int:
    job = json.loads(sys.argv[1])
    out = Path(job["out"])
    t0 = time.perf_counter()
    import wcbsim.cli  # noqa: F401  set-up: the CLI and everything it imports
    setup_s = time.perf_counter() - t0

    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    seeds, work_s = WORKLOADS[job["workload"]](job["seeds"], out, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.dump(out / "trace.json")
    (out / "result.json").write_text(json.dumps({
        "setup_s": setup_s, "work_s": work_s, "peak_rss_mb": peak_rss_mb,
        "epochs": sum(s["epochs"] for s in seeds), "seeds": seeds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
