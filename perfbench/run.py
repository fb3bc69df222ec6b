#!/usr/bin/env python3
"""wcbsim benchmark: end-to-end timings, per-layer trace and output check.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--pool dev|heldout]
    python3 perfbench/run.py --record-reference

Run from the root of a source checkout; the simulator is imported from
`src/`. Workloads and metrics are declared in `BENCHMARK.json`; which layer
metric should move which end-to-end metric, on which workload, is in
`perfbench/predictions.json`.

Load is closed-loop with one client: a repetition starts only after the
previous one has exited. Every repetition is a fresh interpreter with a
fresh working and output directory that is deleted afterwards, and runs
with one BLAS/OpenMP thread. Repetitions are started until the next one
would end after `--seconds` (at least three are always run).

`--seed` picks the simulator seed of the run from a seed pool: `dev`
(1..12, the default) or `heldout` (101..106), kept for confirming a claim on
seeds that were not used while the change was written. Every repetition of
a run uses the same simulator seed, so per-repetition counts are exact.

With `--trace 0` the run reports the end-to-end metrics (median over
repetitions). With `--trace 1` it alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones, plus
`trace.overhead_frac`, the traced work time over the untraced one minus 1.

Every seed's outputs are compared with `perfbench/reference.json`, recorded
by `--record-reference`: integer sequences and counts exactly, floats to
1e-9 relative (absolute floor 1e-12). A mismatch, an exception or a non-zero
exit counts as a failed seed and the run goes on. Each run also checks that
deliberately altered copies of a reference entry are reported as failures.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"

POOLS = {"dev": tuple(range(1, 13)), "heldout": tuple(range(101, 107))}
WORKLOADS = ("etc-batch", "periodic-day", "cli-export")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")
MIN_REPS = 3
HARD_STOP_S = 120.0          # start no repetition after this; the run must end by 180 s
CHILD_TIMEOUT_S = 150.0
REL_TOL, ABS_TOL = 1e-9, 1e-12
SAMPLE_ROWS = 16


class BenchError(RuntimeError):
    """The benchmark cannot measure at all (no result line is printed)."""


# ------------------------------------------------------------------ children

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(argv: list[str], cwd: Path, timeout: float):
    """Run one fresh interpreter; returns (exit code, wall seconds, log text)."""
    log_path = cwd / "child.log"
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            rc = -9
        wall = time.perf_counter() - t0
    return rc, wall, log_path.read_text(errors="replace")


def run_rep(tmp: Path, workload: str, seeds: list[int], trace: bool,
            timeout: float) -> dict:
    """Run one repetition's child; its directory stays for `check_rep`."""
    job_dir = Path(tempfile.mkdtemp(prefix="rep-", dir=tmp))
    job = {"workload": workload, "seeds": seeds, "trace": trace, "out": str(job_dir)}
    rc, wall, log = run_child([str(CHILD), json.dumps(job)], job_dir, timeout)
    rep = {"dir": job_dir, "workload": workload, "traced": trace, "ok": False,
           "wall_s": wall, "log": log[-2000:],
           "seeds": [{"key": f"?:{s}", "error": f"child exited with {rc}"} for s in seeds]}
    result_path = job_dir / "result.json"
    if rc == 0 and result_path.exists():
        rep.update(json.loads(result_path.read_text()), ok=True)
    return rep


def check_rep(rep: dict, reference: dict) -> None:
    """Compare a repetition's outputs with the reference, read its trace,
    and delete its directory."""
    job_dir = rep.pop("dir")
    try:
        if not rep["ok"]:
            return
        for seed in rep["seeds"]:
            if seed["error"] is None and "out" in seed:
                seed["obs"] = observe_csv_dir(job_dir / seed["out"])
            seed["mismatch"] = [] if seed["error"] else \
                compare(reference.get(rep["workload"], {}).get(seed["key"]), seed["obs"])
        csv_bytes = sum(p.stat().st_size for p in job_dir.rglob("*.csv"))
        if rep["traced"]:
            rep["layers"] = layer_metrics(json.loads((job_dir / "trace.json").read_text()),
                                          csv_bytes)
    finally:
        shutil.rmtree(job_dir, ignore_errors=True)


def seed_failed(seed: dict) -> bool:
    return bool(seed.get("error") or seed.get("mismatch"))


# ------------------------------------------------------------ output checks

def _cell(text: str):
    try:
        v = float(text)
    except ValueError:
        return text
    return v if math.isfinite(v) else text


def _parse_row(cells: list[str]) -> list:
    """Finite numbers as floats, anything else as its text."""
    try:
        row = [float(c) for c in cells]
        total = sum(row)
        if total - total == 0:
            return row
    except ValueError:
        pass
    return [_cell(c) for c in cells]


def observe_table(path: Path) -> dict:
    """Row count, per-column sums and extremes, and a stride sample of rows."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], [_parse_row(r) for r in rows[1:]]
    columns = {}
    for j, name in enumerate(header):
        col = [r[j] for r in body]
        nums = [v for v in col if type(v) is float]
        text = [f"{i}:{v}" for i, v in enumerate(col) if type(v) is str]
        columns[name] = {
            "n_num": len(nums), "sum": math.fsum(nums),
            "abs_sum": math.fsum(map(abs, nums)),
            "min": min(nums, default=0.0), "max": max(nums, default=0.0),
            "text_sha256": hashlib.sha256("\n".join(text).encode()).hexdigest()}
    stride = max(1, len(body) // SAMPLE_ROWS)
    picks = sorted(set(range(0, len(body), stride)) | {len(body) - 1}) if body else []
    return {"header": header, "rows": len(body), "columns": columns,
            "sample": {str(i): body[i] for i in picks}}


def observe_csv_dir(out: Path) -> dict:
    """Observation of one `wcbsim run` output directory, keyed by file kind."""
    names = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    obs = {"files": names}
    for name in names:
        obs[name.split("_")[0].removesuffix(".csv")] = observe_table(out / name)
    return obs


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def compare(ref, obs, path: str = "") -> list[str]:
    """Differences between a reference and an observation; [] if they match.

    Integers, strings and booleans must be equal; a float on either side
    makes the comparison numeric with the module's tolerances."""
    if ref is None:
        return [f"{path or 'seed'}: no reference recorded"]
    if isinstance(ref, dict) and isinstance(obs, dict):
        if ref.keys() != obs.keys():
            return [f"{path}: keys {sorted(ref)} != {sorted(obs)}"]
        return [d for k in ref for d in compare(ref[k], obs[k], f"{path}.{k}")]
    if isinstance(ref, list) and isinstance(obs, list):
        if len(ref) != len(obs):
            return [f"{path}: length {len(ref)} != {len(obs)}"]
        return [d for i, (r, o) in enumerate(zip(ref, obs))
                for d in compare(r, o, f"{path}[{i}]")]
    numbers = (int, float)
    if isinstance(ref, numbers) and isinstance(obs, numbers) \
            and not isinstance(ref, bool) and not isinstance(obs, bool) \
            and (isinstance(ref, float) or isinstance(obs, float)):
        return [] if _close(float(ref), float(obs)) else [f"{path}: {ref!r} != {obs!r}"]
    return [] if type(ref) is type(obs) and ref == obs else [f"{path}: {ref!r} != {obs!r}"]


def _leaves(tree, path=()):
    if isinstance(tree, dict):
        for k, v in tree.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(tree, list):
        for i, v in enumerate(tree):
            yield from _leaves(v, path + (i,))
    else:
        yield path, tree


def self_check(ref: dict, obs: dict) -> tuple[int, int]:
    """Alter one integer, one float and one string of a matching reference
    entry; return (alterations reported as failures, alterations made)."""
    if compare(ref, obs):
        return 0, 1
    firsts = {}
    for path, value in _leaves(ref):
        kind = "float" if isinstance(value, float) else \
            "int" if isinstance(value, int) and not isinstance(value, bool) else \
            "str" if isinstance(value, str) else None
        if kind and kind not in firsts:
            firsts[kind] = path
    caught = 0
    for kind, path in firsts.items():
        altered = copy.deepcopy(ref)
        node = altered
        for k in path[:-1]:
            node = node[k]
        v = node[path[-1]]
        node[path[-1]] = {"int": lambda: v + 1, "str": lambda: v + "x",
                          "float": lambda: v * (1 + 1e-6) if v else 1e-6}[kind]()
        caught += bool(compare(altered, obs))
    return caught, len(firsts)


# ------------------------------------------------------------------ tracing

def layer_metrics(trace: dict, csv_bytes: int) -> dict:
    """Per-layer busy time, call counts and exact counters of one traced rep."""
    spans = trace["spans"]
    busy, calls = defaultdict(float), Counter()
    covered = [0.0] * len(spans)
    for name, t0, t1, parent, _group in spans:
        busy[name] += t1 - t0
        calls[name] += 1
        if parent >= 0:
            covered[parent] += t1 - t0
    loop_self = sum(t1 - t0 - covered[i] for i, (name, t0, t1, _, _) in enumerate(spans)
                    if name == "harness.run")
    c = trace["counters"]
    m = {}
    for layer in ("control.synth", "triggers.eval", "protocol.run_epoch",
                  "protocol.event_phase", "protocol.quiet_trace", "rng.stream",
                  "plant.advance"):
        m[layer + "_s"] = busy[layer]
        m[layer + "_calls"] = calls[layer]
    m["triggers.fire_ratio"] = c["triggers.fired"] / calls["triggers.eval"] \
        if calls["triggers.eval"] else 0.0
    for key in ("protocol.event_epochs", "protocol.recovery_rounds",
                "protocol.unresolved_readings", "protocol.missed_actuations",
                "plant.steps", "plant.segment_lengths"):
        m[key] = c[key]
    m["harness.run_s"] = busy["harness.run"]
    m["harness.loop_self_s"] = loop_self
    for layer in ("harness.traj_csv", "harness.trace_csv", "harness.summary_csv",
                  "cli.load_scenario"):
        m[layer + "_s"] = busy[layer]
    m["harness.csv_bytes"] = csv_bytes
    return m


# -------------------------------------------------------------- environment

def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None
    return {
        "commit": commit, "src_sha256": src.hexdigest(),
        "python": sys.version.split()[0], "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "loadavg": os.getloadavg(),
        "thread_env": {v: child_env()[v] for v in THREAD_VARS},
    }


# -------------------------------------------------------------------- runs

def pick_seed(workload: str, pool: str, seed: int) -> int:
    return random.Random(f"{workload}:{pool}:{seed}").choice(POOLS[pool])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(reps: list[dict]) -> dict:
    """Per-rep end-to-end values of the repetitions whose child finished."""
    done = [r for r in reps if r["ok"] and r["epochs"] > 0]
    return {
        "wall_s": [r["wall_s"] for r in done],
        "setup_s": [r["setup_s"] for r in done],
        "epochs_per_s": [r["epochs"] / r["work_s"] for r in done],
        "peak_rss_mb": [r["peak_rss_mb"] for r in done],
    }


def preflight(tmp: Path) -> None:
    if not (ROOT / "src" / "wcbsim").is_dir():
        raise BenchError(f"no simulator sources under {ROOT / 'src'}")
    # warm the file cache and fail early if the package cannot be imported
    rc, _, log = run_child(["-c", "import wcbsim.cli"], tmp, 120)
    if rc != 0:
        raise BenchError("cannot import wcbsim.cli:\n" + log[-2000:])


def measure(args, tmp: Path, spec: dict, reference: dict) -> int:
    seeds = [pick_seed(args.workload, args.pool, args.seed)]
    trace = bool(args.trace)
    print(f"perfbench workload={args.workload} seed={args.seed} pool={args.pool} "
          f"sim_seeds={seeds} seconds={args.seconds} trace={int(trace)}")
    print("env " + json.dumps(environment()))
    if args.workload not in reference:
        raise BenchError(f"no reference outputs for {args.workload} in {REFERENCE}")
    start = time.perf_counter()
    preflight(tmp)
    reps: list[dict] = []
    plan = [False, True] if trace else [False]
    min_reps = MIN_REPS * len(plan)
    # outputs are checked after the measuring window, so checking takes no rep's slot
    while True:
        elapsed = time.perf_counter() - start
        cycle = statistics.median(r["wall_s"] for r in reps) * len(plan) if reps else 0.0
        if len(reps) % len(plan) == 0 and (
                elapsed > HARD_STOP_S or
                (len(reps) >= min_reps and elapsed + cycle > args.seconds)):
            break
        traced = plan[len(reps) % len(plan)]
        rep = run_rep(tmp, args.workload, seeds, traced, max(10.0, CHILD_TIMEOUT_S - elapsed))
        reps.append(rep)
        print(f"rep {len(reps)} traced={int(traced)} wall_s={rep['wall_s']:.4f} "
              + (f"setup_s={rep['setup_s']:.4f} work_s={rep['work_s']:.4f} "
                 f"peak_rss_mb={rep['peak_rss_mb']:.1f}" if rep["ok"] else
                 "child failed: " + rep["log"].strip().replace("\n", " | ")[-1500:]))

    for i, rep in enumerate(reps, 1):
        check_rep(rep, reference)
        for seed in rep["seeds"]:
            if seed_failed(seed):
                why = seed.get("error") or "; ".join(seed["mismatch"][:3])
                print(f"rep {i} FAILED {seed['key']}: " + why.strip().replace("\n", " | ")[:1500])

    attempted = sum(len(r["seeds"]) for r in reps)
    failed = sum(seed_failed(s) for r in reps for s in r["seeds"])
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:.4f}")

    # an altered reference entry must be reported as a failure
    checked = next(((s["key"], s["obs"]) for r in reps if r["ok"] for s in r["seeds"]
                    if not seed_failed(s)), None)
    if checked:
        caught, made = self_check(reference[args.workload][checked[0]], checked[1])
        print(f"self-check: {caught} of {made} alterations of the reference entry "
              f"{checked[0]} reported as failures")
    else:
        caught, made = 0, 1
        print("self-check: not run, no seed matched its reference")
    correct = failed == 0 and caught == made

    untraced = end_to_end([r for r in reps if not r["traced"]])
    if not untraced["wall_s"]:
        raise BenchError("no repetition finished")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = {}
    for name, values in untraced.items():
        q1, med, q3 = _quartiles(values)
        e2e[name] = med
        print(f"metric {name} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"n={len(values)} unit={units[name]}")

    if trace:
        layers = [r["layers"] for r in reps if r["traced"] and r["ok"]]
        if not layers:
            raise BenchError("no traced repetition finished")
        work = statistics.median(r["work_s"] for r in reps if r["traced"] and r["ok"])
        base = statistics.median(r["work_s"] for r in reps if not r["traced"] and r["ok"])
        metrics = {}
        for name in layers[0]:
            values = [lay[name] for lay in layers]
            if name.endswith("_s"):
                metrics[name] = statistics.median(values)
            else:
                if len(set(values)) != 1:
                    print(f"count {name} differs between repetitions: {values}")
                    correct = False
                metrics[name] = values[0]
        metrics["trace.overhead_frac"] = work / base - 1.0
        for name, value in metrics.items():
            print(f"layer {name} = {value:.6g} {units[name]}")
    else:
        metrics = e2e

    expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(metrics) != sorted(expected):
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {expected}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": metrics[n], "unit": units[n]}
                                  for n in expected}}))
    return 0


def record_reference(tmp: Path) -> int:
    """Run every pool seed of every workload once and store its outputs."""
    preflight(tmp)
    env = environment()
    reference = {"recorded_from": {k: env[k] for k in ("commit", "src_sha256", "python",
                                                       "numpy", "scipy")}}
    for workload in WORKLOADS:
        entries = {}
        for seed in sorted(POOLS["dev"] + POOLS["heldout"]):
            rep = run_rep(tmp, workload, [seed], False, CHILD_TIMEOUT_S)
            check_rep(rep, {})
            for s in rep["seeds"]:
                if s.get("error"):
                    raise BenchError(f"{workload} {s['key']} failed:\n{s['error']}")
                entries[s["key"]] = s["obs"]
            print(f"recorded {workload} seed {seed}", flush=True)
        reference[workload] = entries
    REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1,
                    help="picks the simulator seed from the pool (default 1)")
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="measuring time of one run (default 40)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pool", choices=sorted(POOLS), default="dev")
    ap.add_argument("--record-reference", action="store_true",
                    help="re-record perfbench/reference.json from this checkout")
    args = ap.parse_args(argv)
    if not args.record_reference and not args.workload:
        ap.error("--workload is required")

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.record_reference:
            return record_reference(tmp)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        return measure(args, tmp, spec, reference)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
