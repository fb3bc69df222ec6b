import io
import math

import numpy as np
import pytest

from wcbsim.harness import (EmptyGrid, Scenario, ScenarioError, iae,
                            run_experiment, scenario_preset,
                            write_summary_csv, write_trace_csv,
                            write_trajectory_csv)
from wcbsim.protocol import WCB_E, WCB_P


def short(name="dept_etc_noiseless", **kw):
    kw.setdefault("duration_epochs", 120)
    kw.setdefault("traj_every", 100)
    return scenario_preset(name, **kw)


# ------------------------------------------------------------- iae oracle

def test_iae_constant_signal():
    assert iae(np.full(1001, -0.3), 0.0, 10.0) == pytest.approx(0.3)


def test_iae_exponential_closed_form():
    t = np.linspace(0.0, 10.0, 20001)
    got = iae(np.exp(-t), 0.0, 10.0)
    assert got == pytest.approx((1.0 - math.exp(-10.0)) / 10.0, rel=1e-6)


def test_iae_rectified_sine():
    t = np.linspace(0.0, 2.0 * math.pi, 40001)
    got = iae(np.sin(t), 0.0, 2.0 * math.pi)
    assert got == pytest.approx(2.0 / math.pi, rel=1e-6)


def test_iae_rejects_empty_grid():
    with pytest.raises(EmptyGrid):
        iae(np.array([1.0]), 0.0, 1.0)


# ------------------------------------------------------------- experiments

def test_equilibrium_never_triggers():
    rep = run_experiment(short(initial_level_m=0.0, disturbances=()))
    assert rep.sample_count == 1          # bootstrap collection only
    assert rep.iae_sum == 0.0
    assert all(not tr.event_flag for tr in rep.traces[1:])


def test_periodic_counts_every_epoch():
    rep = run_experiment(short("dept_periodic_noiseless"))
    assert rep.sample_count == rep.scenario.duration_epochs


def test_reports_are_bit_reproducible():
    a = run_experiment(short("dept_etc_noisy", seed=5))
    b = run_experiment(short("dept_etc_noisy", seed=5))
    assert a.digest() == b.digest()
    c = run_experiment(short("dept_etc_noisy", seed=6))
    assert a.digest() != c.digest()


def test_hold_between_collections():
    rep = run_experiment(short())
    for e, tr in enumerate(rep.traces[:-1]):
        assert np.array_equal(rep.u_post[e], rep.u_pre[e + 1])
        if not tr.participants:
            assert np.array_equal(rep.u_pre[e], rep.u_post[e])
            assert np.all(rep.u_switch_step[e] == -1)


def test_forced_trigger_with_no_event_slots_matches_periodic():
    etc = run_experiment(short(force_trigger=True, n_event_slots=0,
                               duration_epochs=200))
    per = run_experiment(short("dept_periodic_noiseless", duration_epochs=200))
    assert etc.sample_count == per.sample_count == 200
    assert np.array_equal(etc.levels, per.levels)
    assert np.array_equal(etc.u_post, per.u_post)
    for a, b in zip(etc.traces, per.traces):
        assert np.array_equal(a.radio_on_ms, b.radio_on_ms)
        assert np.array_equal(a.act_latency_ms, b.act_latency_ms, equal_nan=True)
        assert a.received == b.received


def test_noise_streams_align_across_variants():
    # the same epoch sees the same measurement-noise realization no matter
    # which variant runs, so comparisons isolate protocol effects
    etc = run_experiment(short("dept_etc_noisy", seed=9, duration_epochs=60))
    per = run_experiment(short("dept_periodic_noisy", seed=9, duration_epochs=60))
    assert etc.traces[0].received[1] == per.traces[0].received[1]


def test_scenario_validation_errors():
    with pytest.raises(ScenarioError):
        Scenario(testbed="atrium").validate()
    with pytest.raises(ScenarioError):
        Scenario(level_std_m=-1.0).validate()
    with pytest.raises(ScenarioError):
        Scenario(duration_epochs=0).validate()
    with pytest.raises(ScenarioError):
        Scenario(dt_min=0.0007).validate()
    with pytest.raises(ScenarioError):
        Scenario(disturbances=((0.0, -1, 1.0),)).validate()
    with pytest.raises(ScenarioError):
        Scenario(disturbances=((0.0, 5, 1.0),)).validate()
    with pytest.raises(ScenarioError):
        Scenario(trigger_scale=(1.0, 2.0)).validate()
    with pytest.raises(ScenarioError):
        scenario_preset("dept_etc_quiet")


def test_summary_row_columns():
    rep = run_experiment(short(duration_epochs=30))
    row = rep.summary_row()
    assert list(row) == ["seed", "variant", "testbed", "sample_count",
                         "IAE_sum", "IAE_max", "DC_pct", "mean_latency_ms"]


def test_csv_exports_shape_and_hold(tmp_path):
    rep = run_experiment(short(duration_epochs=40, traj_every=250))
    buf = io.StringIO()
    write_summary_csv([rep], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "seed,variant,testbed,sample_count,IAE_sum,IAE_max,DC_pct,mean_latency_ms"
    assert len(lines) == 2

    buf = io.StringIO()
    write_trajectory_csv(rep, buf)
    rows = buf.getvalue().splitlines()
    assert rows[0] == "t_min,y1,y2,y3,y4,y5,u1,u2,u3,u4,u5,d5"
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert data.shape[1] == 12
    # flows in the export are piecewise constant between collections
    u1 = data[:, 6]
    assert np.unique(u1).size <= rep.sample_count + 1

    buf = io.StringIO()
    write_trace_csv(rep, buf)
    head = buf.getvalue().splitlines()[0].split(",")
    assert head[:4] == ["epoch", "event_flag", "U", "recovery_rounds"]
    assert head[4] == "lat_act1_ms"
    assert head[-1] == "missing_after_recovery"
    assert len(buf.getvalue().splitlines()) == 41


def test_quiet_epochs_have_no_dissemination_latency():
    rep = run_experiment(short())
    for tr in rep.traces:
        if not tr.event_flag:
            assert math.isnan(tr.last_latency_ms)


def test_discrete_integrator_mode_runs():
    rep = run_experiment(short(x3_mode="discrete", duration_epochs=60))
    assert rep.sample_count >= 1


def test_event_variant_latency_exceeds_periodic():
    etc = run_experiment(short(duration_epochs=50))
    per = run_experiment(short("dept_periodic_noiseless", duration_epochs=50))
    assert etc.mean_latency_ms > per.mean_latency_ms


def test_replay_against_independent_integration():
    # rebuild the gate-flow step functions from the run logs and integrate
    # the plant independently; the recorded trajectory must match, which
    # exercises epoch anchoring, actuation offsets, and the delayed replay
    from scipy.integrate import solve_ivp
    from wcbsim.plant import plant_matrices
    from wcbsim.pools import DEFAULT_POOLS

    sc_kwargs = dict(duration_epochs=12, traj_every=1,
                     disturbances=((3.0, 4, 16.0),))
    rep = run_experiment(scenario_preset("dept_etc_noiseless", **sc_kwargs))
    sc = rep.scenario
    dt = sc.dt_min
    spe = int(round(sc.t_epoch_s / 60.0 / dt))
    taus = [p.tau for p in DEFAULT_POOLS]

    def u_at(step):
        epoch = min(step // spe, sc.duration_epochs - 1)
        k = step - epoch * spe
        return np.array([
            rep.u_post[epoch, i]
            if 0 <= rep.u_switch_step[epoch, i] <= k else rep.u_pre[epoch, i]
            for i in range(5)])

    def v_at(step):
        delayed = np.array([
            u_at(step - int(round(taus[i] / dt)))[i]
            if step - int(round(taus[i] / dt)) >= 0 else 0.0
            for i in range(5)])
        t = step * dt
        d = np.array([16.0 if (i == 4 and t >= 3.0) else 0.0 for i in range(5)])
        return np.concatenate([delayed, u_at(step), d])

    A, B = plant_matrices(DEFAULT_POOLS, sc.delay_approx)
    n_steps = sc.duration_epochs * spe
    x = np.zeros(25)
    x[0::5] = sc.initial_level_m
    levels = np.empty((n_steps, 5))
    step = 0
    while step < n_steps:
        v = v_at(step)
        nxt = step + 1
        while nxt < n_steps and np.array_equal(v_at(nxt), v):
            nxt += 1
        seg_t = np.arange(step + 1, nxt + 1) * dt
        sol = solve_ivp(lambda t, y: A @ y + B @ v,
                        [step * dt, nxt * dt], x, t_eval=seg_t,
                        rtol=1e-10, atol=1e-13)
        levels[step:nxt] = sol.y[0::5].T
        x = sol.y[:, -1]
        step = nxt

    assert rep.levels.shape == levels.shape
    assert np.allclose(rep.levels, levels, atol=5e-9)
