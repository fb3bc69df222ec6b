#!/usr/bin/env python3
"""Re-run the full experiment grid and print consolidated result tables:
control quality (sample counts, error integrals), network performance
(actuation latency), and energy (radio-on time, duty cycle, savings).

Roughly one minute of compute for the full grid; use --seeds to shrink it.
"""

import argparse
import math
import sys

import numpy as np

from wcbsim.harness import run_experiment, scenario_preset
from wcbsim.profiles import EPOCH_SWEEP_EVENTS, TESTBEDS, epoch_sweep_row


def fmt_ms(mean, std):
    return f"{mean:9.3f} ({std:.3f})"


def batch(name, seeds, **kw):
    return [run_experiment(scenario_preset(name, seed=s, traj_every=2000, **kw))
            for s in seeds]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=8,
                    help="seeds per noisy configuration (default 8)")
    args = ap.parse_args()
    seeds = list(range(1, args.seeds + 1))

    print("== control quality (1-day runs) ==")
    print(f"{'scenario':34s} {'samples':>16s} {'IAE_sum [m]':>14s} {'IAE_max [m]':>12s}")
    grid = {}
    for tb in ("hall", "dept"):
        for sampling in ("etc", "periodic"):
            for noise in ("noiseless", "noisy"):
                name = f"{tb}_{sampling}_{noise}"
                reps = batch(name, seeds if noise == "noisy" else [1])
                grid[name] = reps
                counts = np.array([r.sample_count for r in reps], dtype=float)
                iae_s = np.array([r.iae_sum for r in reps])
                iae_m = np.array([r.iae_max for r in reps])
                cnt = (f"{counts.mean():6.1f} ({counts.std(ddof=1):.2f})"
                       if len(reps) > 1 else f"{int(counts[0]):6d}")
                print(f"{name:34s} {cnt:>16s} {iae_s.mean():>14.4f} {iae_m.mean():>12.5f}")

    print("\n== actuation latency of the last command [ms] ==")
    for tb in ("hall", "dept"):
        for sampling in ("etc", "periodic"):
            rep = grid[f"{tb}_{sampling}_noiseless"][0]
            lats = [tr.last_latency_ms for tr in rep.traces
                    if tr.event_flag and math.isfinite(tr.last_latency_ms)]
            print(f"{tb:5s} {sampling:9s} {fmt_ms(float(np.mean(lats)), float(np.std(lats)))}")

    print("\n== duty cycle [%] and reduction ==")
    for tb in ("hall", "dept"):
        for noise in ("noiseless", "noisy"):
            dc_e = np.mean([r.dc_pct for r in grid[f"{tb}_etc_{noise}"]])
            dc_p = np.mean([r.dc_pct for r in grid[f"{tb}_periodic_{noise}"]])
            n_e = np.mean([r.sample_count for r in grid[f"{tb}_etc_{noise}"]])
            print(f"{tb:5s} {noise:10s} DC_etc={dc_e:.4f} DC_periodic={dc_p:.4f} "
                  f"DC_reduction={100 * (1 - dc_e / dc_p):5.2f}%  "
                  f"sampling_reduction={100 * (1 - n_e / 1440):5.2f}%")

    print("\n== per-epoch radio-on time [ms], event-triggered variant ==")
    for tb in ("hall", "dept"):
        rep = grid[f"{tb}_etc_noiseless"][0]
        quiet = [tr.radio_on_ms.mean() for tr in rep.traces if not tr.event_flag]
        event = [tr.radio_on_ms.mean() for tr in rep.traces if tr.event_flag]
        day = np.mean([tr.radio_on_ms.mean() for tr in rep.traces])
        print(f"{tb:5s} quiet={np.mean(quiet):6.2f} event={np.mean(event):6.2f} "
              f"1-day avg={day:6.2f}")

    print("\n== epoch duration sweep (hall radio calibration) ==")
    print("T_epoch_s  events  epochs  F_ev%   DC_etc%  DC_per%  savings%")
    for dur in sorted(EPOCH_SWEEP_EVENTS, reverse=True):
        ev, ep = EPOCH_SWEEP_EVENTS[dur]
        f_ev, dc_e, dc_p, savings = epoch_sweep_row(TESTBEDS["hall"], dur, ev, ep)
        print(f"{dur:9d}  {ev:6d}  {ep:6d}  {f_ev:5.1f}  "
              f"{dc_e:8.3f} {dc_p:8.3f} {savings:9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
