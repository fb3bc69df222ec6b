"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line with the measured values (run with -s to see
them on success). Reference values are measurements from the two hardware
deployments that the simulator is expected to reproduce at desk scale.
"""

import math

import numpy as np
import pytest

from wcbsim import control, protocol, triggers
from wcbsim.harness import run_experiment, scenario_preset
from wcbsim.plant import PlantStepper
from wcbsim.pools import DEFAULT_POOLS
from wcbsim.profiles import EPOCH_SWEEP_EVENTS, HALL, make_epoch_config
from wcbsim.protocol import EV, T, WCB_E, WCB_P, analytic_ton
from wcbsim.rng import stream_rng

REF = {
    ("hall", WCB_E): dict(latency=192.021),
    ("hall", WCB_P): dict(latency=180.023),
    ("dept", WCB_E): dict(latency=253.0),
    ("dept", WCB_P): dict(latency=237.017),
}
REF_IAE_SUM = 0.1085
REF_IAE_MAX = 0.0329
REF_DC = {"hall": dict(etc=0.0319, periodic=0.0992),
          "dept": dict(etc=0.0413, periodic=0.1166)}

_cache = {}


def noiseless(testbed, sampling, seed=1):
    key = (testbed, sampling, seed)
    if key not in _cache:
        _cache[key] = run_experiment(
            scenario_preset(f"{testbed}_{sampling}_noiseless", seed=seed,
                            traj_every=1000))
    return _cache[key]


def noisy_batch(testbed):
    key = ("noisy", testbed)
    if key not in _cache:
        _cache[key] = [run_experiment(scenario_preset(f"{testbed}_etc_noisy",
                                                      seed=s, traj_every=1000))
                       for s in range(1, 9)]
    return _cache[key]


def ok(criterion, detail):
    print(f"[criterion {criterion}] PASS: {detail}")


def test_criterion_1_controller_design():
    model = control.build_state_space(DEFAULT_POOLS, "lag")
    Q, R = control.DEFAULT_WEIGHTS.Q, control.DEFAULT_WEIGHTS.R
    P = control.solve_care(model.A, model.B, Q, R)
    resid = np.linalg.norm(
        model.A.T @ P + P @ model.A
        - P @ model.B @ np.linalg.solve(R, model.B.T @ P) + Q, "fro")
    gain = control.lqr_gain(model, control.DEFAULT_WEIGHTS)
    abscissa = -gain.rho
    assert abscissa <= -0.006
    assert resid <= 1e-8 * np.linalg.norm(Q, "fro")
    ok(1, f"closed-loop abscissa {abscissa:.6f} 1/min <= -0.006; "
          f"CARE residual {resid:.2e} <= 1e-8*||Q||")


def test_criterion_2_noiseless_etc_both_profiles():
    for tb in ("hall", "dept"):
        rep = noiseless(tb, "etc")
        assert 135 <= rep.sample_count <= 165
        assert abs(rep.iae_sum - REF_IAE_SUM) <= 0.10 * REF_IAE_SUM
        assert abs(rep.iae_max - REF_IAE_MAX) <= 0.10 * REF_IAE_MAX
        ok(2, f"{tb}: samples={rep.sample_count} in [135,165], "
              f"IAE_sum={rep.iae_sum:.4f} (ref {REF_IAE_SUM}+-10%), "
              f"IAE_max={rep.iae_max:.5f} (ref {REF_IAE_MAX}+-10%)")


def test_criterion_3_noisy_etc_statistics():
    counts = [r.sample_count for r in noisy_batch("dept")]
    mean = float(np.mean(counts))
    std = float(np.std(counts, ddof=1))
    assert 165 <= mean <= 210
    assert std > 0
    quiet = [noiseless("dept", "etc", seed=s).sample_count for s in (1, 2, 3, 4)]
    assert len(set(quiet)) == 1
    ok(3, f"noisy mean={mean:.1f} in [165,210], std={std:.2f} > 0; "
          f"noiseless counts {quiet} identical across seeds")


def test_criterion_4_periodic_baseline():
    for tb in ("hall", "dept"):
        per = noiseless(tb, "periodic")
        etc = noiseless(tb, "etc")
        assert per.sample_count == 1440
        assert abs(per.iae_sum - REF_IAE_SUM) <= 0.10 * REF_IAE_SUM
        gap = abs(etc.iae_sum / per.iae_sum - 1.0)
        assert gap <= 0.01
        ok(4, f"{tb}: periodic samples=1440, IAE_sum={per.iae_sum:.4f}, "
              f"ETC-vs-periodic gap {100 * gap:.2f}% <= 1%")


def test_criterion_5_sampling_reduction():
    for tb in ("hall", "dept"):
        r_quiet = 1.0 - noiseless(tb, "etc").sample_count / 1440.0
        assert r_quiet >= 0.85
    noisy_mean = np.mean([r.sample_count for r in noisy_batch("dept")])
    r_noisy = 1.0 - noisy_mean / 1440.0
    assert r_noisy >= 0.83
    ok(5, f"sampling reduction: noiseless {100 * r_quiet:.2f}% >= 85%, "
          f"noisy {100 * r_noisy:.2f}% >= 83%")


def test_criterion_6_reliability():
    for tb in ("hall", "dept"):
        cfg = make_epoch_config(tb, variant=WCB_E)
        unresolved = missed = 0
        for run in range(16):
            for epoch in range(1440):
                tr = protocol.run_epoch(
                    set(cfg.sensor_ids()), cfg,
                    stream_rng(4000 + run, "network", epoch), epoch=epoch)
                unresolved += len(tr.unresolved)
                missed += int(np.isnan(tr.act_latency_ms).sum())
        assert unresolved == 0
        assert missed == 0
        ok(6, f"{tb}: 23040 event epochs, 0 unrecovered readings, "
              f"0 actuators missing all command floods")
    tail = 1.0 - protocol.collection_success_prob(HALL.slots[T].pdr, 10, 3)
    assert tail < 1e-7
    ok(6, f"analytic P(lose >3 of 10) = {tail:.2e} < 1e-7")


def test_criterion_7_latency_structure():
    for tb in ("hall", "dept"):
        cfg_e = make_epoch_config(tb, variant=WCB_E)
        cfg_p = make_epoch_config(tb, variant=WCB_P)
        s_e = cfg_e.ctrl_ends_ms[0]
        s_p = cfg_p.ctrl_ends_ms[0]
        expected = cfg_e.n_event_slots * (cfg_e.slots[EV].duration_ms + 2.0)
        assert s_e - s_p == pytest.approx(expected, abs=1e-12)

        for variant, sched_end in ((WCB_E, s_e), (WCB_P, s_p)):
            rep = noiseless(tb, "etc" if variant == WCB_E else "periodic")
            lats = np.array([tr.last_latency_ms for tr in rep.traces
                             if tr.event_flag and math.isfinite(tr.last_latency_ms)])
            assert abs(rep.mean_latency_ms - REF[(tb, variant)]["latency"]) <= 1.0
            lossless = lats[lats == sched_end]
            assert lossless.size > 0.95 * lats.size
            assert np.all(lossless == lossless[0])  # zero jitter, bitwise
        ok(7, f"{tb}: WCB-E minus WCB-P = {s_e - s_p:.3f} ms exact; "
              f"means within +-1 ms of reference; zero lossless jitter")


def test_criterion_8_energy():
    for tb in ("hall", "dept"):
        dc_e = noiseless(tb, "etc").dc_pct
        dc_p = noiseless(tb, "periodic").dc_pct
        assert abs(dc_e - REF_DC[tb]["etc"]) <= 0.10 * REF_DC[tb]["etc"]
        reduction = 1.0 - dc_e / dc_p
        assert reduction >= 0.60
        cfg = make_epoch_config(tb, variant=WCB_E)
        lo, hi = 0.0, 1.0
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            t_e, t_p, _, _ = analytic_ton(cfg, mid)
            lo, hi = (mid, hi) if t_e < t_p else (lo, mid)
        assert 0.85 <= lo <= 0.95
        ok(8, f"{tb}: DC={dc_e:.4f}% (ref {REF_DC[tb]['etc']}+-10%), "
              f"reduction {100 * reduction:.1f}% >= 60%, break-even "
              f"F_ev={lo:.3f} in [0.85,0.95]")


def test_criterion_9_epoch_duration_sweep():
    ref_savings = {60: 65.7, 45: 68.2, 30: 70.2, 15: 73.3, 5: 75.6, 1: 76.5}
    rows = []
    for dur in sorted(EPOCH_SWEEP_EVENTS, reverse=True):
        events, epochs = EPOCH_SWEEP_EVENTS[dur]
        cfg = make_epoch_config(HALL, variant=WCB_E, t_epoch_s=float(dur))
        t_e, t_p, _, _ = analytic_ton(cfg, events / epochs)
        savings = 100.0 * (1.0 - t_e / t_p)
        assert abs(savings - ref_savings[dur]) <= 3.0
        rows.append(savings)
    assert all(b > a for a, b in zip(rows, rows[1:]))
    ok(9, "epoch sweep savings " +
       ", ".join(f"{d}s:{s:.1f}%" for d, s in
                 zip(sorted(EPOCH_SWEEP_EVENTS, reverse=True), rows))
       + " all within +-3pp and monotone")


def test_criterion_10_property_suites():
    params = triggers.DEFAULT_TRIGGERS
    rng = np.random.default_rng(2024)

    # no retrigger right after an update, 1e5 random states per node
    for j in range(params.n_nodes):
        dim = len(params.index_sets[j])
        x = rng.normal(0.0, 10.0, size=(100_000, dim))
        lhs = -np.einsum("ki,ij,kj->k", x, params.N[j], x)
        assert np.all(lhs <= params.theta[j])

    # centralized violation implies some node fires, 1e5 samples
    M, N = triggers.assemble_centralized(params)
    e = rng.normal(0.0, 4.0, size=(100_000, 15))
    x = rng.normal(0.0, 4.0, size=(100_000, 15))
    central = (np.einsum("ki,ij,kj->k", e, M, e)
               - np.einsum("ki,ij,kj->k", x, N, x)) > params.epsilon_sq
    fired = np.zeros(100_000, dtype=bool)
    for j in range(params.n_nodes):
        idx = list(params.index_sets[j])
        ej, xj = e[:, idx], x[:, idx]
        fired |= (np.einsum("ki,ij,kj->k", ej, params.M[j], ej)
                  - np.einsum("ki,ij,kj->k", xj, params.N[j], xj)) > params.theta[j]
    assert central.sum() > 1000
    assert np.all(~central | fired)
    ok(10, f"trigger properties over 1e5 samples ({int(central.sum())} "
           f"centralized violations all covered)")

    # RK4 order-four convergence on the plant
    x0 = np.zeros(25)
    x0[0::5] = 0.05
    u = np.array([20.0, 15.0, 10.0, 5.0, 25.0])
    v = np.concatenate([u, u, np.zeros(5)])

    def endpoint(dt):
        stepper = PlantStepper(DEFAULT_POOLS, dt)
        xe = stepper.advance(x0.copy(), v, int(round(2.0 / dt)))
        return xe

    ref = endpoint(0.0125)
    ratio = (np.linalg.norm(endpoint(0.2) - ref)
             / np.linalg.norm(endpoint(0.1) - ref))
    assert 11.0 < ratio < 21.0
    ok(10, f"RK4 halving-ratio {ratio:.1f} (order four)")

    # Bernoulli flood rate within 3 sigma over 1e6 trials
    n, p = 1_000_000, HALL.slots[T].pdr
    hits = int(protocol.flood_outcome(p, n, stream_rng(7, "network", 0)).sum())
    assert abs(hits - n * p) < 3.0 * math.sqrt(n * p * (1 - p))
    ok(10, f"flood empirical rate {hits / n:.6f} vs {p} within 3 sigma")

    # bit-identical reports for identical seeds
    a = run_experiment(scenario_preset("dept_etc_noisy", seed=77, traj_every=500))
    b = run_experiment(scenario_preset("dept_etc_noisy", seed=77, traj_every=500))
    assert a.digest() == b.digest()
    ok(10, f"identical seeds give identical reports ({a.digest()[:12]}...)")

    # periodic variant is the always-triggered degenerate case
    forced = run_experiment(scenario_preset(
        "dept_etc_noiseless", seed=3, traj_every=500,
        force_trigger=True, n_event_slots=0))
    per = run_experiment(scenario_preset("dept_periodic_noiseless", seed=3,
                                         traj_every=500))
    assert forced.sample_count == per.sample_count == 1440
    assert np.array_equal(forced.levels, per.levels)
    for ta, tb_ in zip(forced.traces, per.traces):
        assert np.array_equal(ta.radio_on_ms, tb_.radio_on_ms)
        assert np.array_equal(ta.act_latency_ms, tb_.act_latency_ms,
                              equal_nan=True)
    ok(10, "forced-trigger event variant with no EV slots matches the "
           "periodic variant trace for trace")
