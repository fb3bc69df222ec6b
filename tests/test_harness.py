import io
import math
import tracemalloc
from bisect import bisect_right
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wcbsim import harness, plant
from wcbsim.control import NoStabilizingSolution
from wcbsim.harness import (Scenario, ScenarioError, SwitchLog, run_experiment,
                            scenario_preset, write_summary_csv,
                            write_trace_csv, write_trajectory_csv)
from wcbsim.pools import DEFAULT_POOLS, N_POOLS
from wcbsim.protocol import WCB_E, WCB_P


def short(name="dept_etc_noiseless", **kw):
    kw.setdefault("duration_epochs", 120)
    kw.setdefault("traj_every", 100)
    return scenario_preset(name, **kw)


def window(log, gate, lo, n):
    """Bisect reference for `SwitchLog.windows`: the gate's flow at step lo,
    and its switches in (lo, lo + n] as (steps after lo, flow) pairs in the
    order they were logged."""
    steps, flows = log._steps[gate], log._flows[gate]
    k = bisect_right(steps, lo)
    end = bisect_right(steps, lo + n, k)
    return (flows[k - 1] if k else 0.0), [(steps[m] - lo, flows[m]) for m in range(k, end)]


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
    # gates switch only at the actuation step of an epoch with a collection
    # and hold their flow everywhere else
    rep = run_experiment(short())
    sc = rep.scenario
    spe = int(round(sc.t_epoch_s / 60.0 / sc.dt_min))
    expected = [set() for _ in range(5)]
    for e, tr in enumerate(rep.traces):
        if tr.controller_on and tr.participants:
            for a, lat in enumerate(tr.act_latency_ms):
                if math.isfinite(lat):
                    expected[a].add(e * spe + int(round(lat / (sc.dt_min * 60000.0))))
    n_steps = sc.duration_epochs * spe
    assert any(expected)
    for a in range(5):
        flow0, switched = window(rep.switch_log, a, -1, n_steps + 1)
        assert flow0 == 0.0
        assert {step - 1 for step, _ in switched} == expected[a]
    steps = np.arange(-1, n_steps)
    flows = rep.switch_log.flows_at(steps)
    assert np.all(flows[0] == 0.0)
    changed = np.nonzero(np.diff(flows, axis=0))
    for row, a in zip(*changed):
        assert steps[row + 1] in expected[a]


# epoch e logs switches at steps e*n + offset, offset in 0..n, as run_experiment
# does; an offset of n and the next epoch's offset of 0 tie on one step
@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 6), lag=st.integers(0, 15),
       epochs=st.lists(st.lists(st.tuples(st.integers(0, 6), st.floats(-10, 10)),
                                max_size=3), max_size=12))
@example(n=4, lag=3, epochs=[[(0, 1.0), (4, 2.0)], [(0, 3.0), (0, -0.0)], [], [(4, 5.0)]])
def test_windows_match_bisect_reference(n, lag, epochs):
    log = SwitchLog(1)
    # a delayed column starts at a negative step, an applied one at step 0
    readers = [(delay, log.windows(0, -delay, n)) for delay in (lag, 0)]
    for e, logged in enumerate(epochs):
        g0 = e * n
        for offset, flow in sorted(logged, key=lambda entry: min(entry[0], n)):
            log.log(0, g0 + min(offset, n), flow)
        for delay, reader in readers:
            # repr tells -0.0 from 0.0
            assert repr(next(reader)) == repr(window(log, 0, g0 - delay, n))


def test_forced_trigger_with_no_event_slots_matches_periodic():
    etc = run_experiment(short(force_trigger=True, n_event_slots=0,
                               duration_epochs=200))
    per = run_experiment(short("dept_periodic_noiseless", duration_epochs=200))
    assert etc.sample_count == per.sample_count == 200
    assert np.array_equal(etc.levels, per.levels)
    assert etc.switch_log.tobytes() == per.switch_log.tobytes()
    for a, b in zip(etc.traces, per.traces):
        assert np.array_equal(a.radio_on_ms, b.radio_on_ms)
        assert np.array_equal(a.act_latency_ms, b.act_latency_ms, equal_nan=True)
        assert a.received == b.received


def test_noise_streams_align_across_variants():
    # the same epoch sees the same measurement-noise realization no matter
    # which variant runs, so comparisons isolate protocol effects
    etc = run_experiment(short("dept_etc_noisy", seed=9, duration_epochs=60))
    per = run_experiment(short("dept_periodic_noisy", seed=9, duration_epochs=60))
    # both collect every sample in the bootstrap epoch, so each gate's first
    # command is the same function of the same noisy samples
    assert etc.traces[0].received == per.traces[0].received == tuple(range(1, 11))
    for gate in range(N_POOLS):
        (_, first_e), *_ = window(etc.switch_log, gate, -1, 10**6)[1]
        (_, first_p), *_ = window(per.switch_log, gate, -1, 10**6)[1]
        assert first_e == first_p


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
    for bad in (dict(n_ctrl_slots=0), dict(max_recovery_pairs=-1), dict(fp_rate=2.0),
                dict(t_epoch_s=0.24), dict(t_epoch_s=-60.0), dict(t_epoch_s=math.nan),
                dict(level_std_m=math.nan), dict(level_std_m=math.inf),
                dict(flow_std=math.nan), dict(initial_level_m=math.inf),
                dict(dt_min=0.0), dict(dt_min=-0.001),
                dict(t_epoch_s=45.0, dt_min=0.75),
                dict(n_event_slots=0), dict(seed=-1),
                dict(dt_min=1e-320), dict(t_epoch_s=1e308),
                dict(disturbances=((1e308, 4, 1.0),)),
                dict(trigger_scale=(1.0, math.nan, 1.0))):
        with pytest.raises(ScenarioError):
            Scenario(**bad).validate()
    # forced triggering skips the event phase and needs no EV slot
    Scenario(force_trigger=True, n_event_slots=0).validate()
    with pytest.raises(ScenarioError):
        scenario_preset("dept_etc_quiet")


def test_oversized_slot_plan_is_refused_in_constant_memory():
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioError):
            Scenario(n_event_slots=300000).validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_runs_too_large_to_record_are_refused():
    # only validated: none of these runs is started
    for bad in (dict(duration_epochs=10**9), dict(duration_epochs=10**9, traj_every=10**9),
                dict(duration_epochs=int("9" * 400)), dict(t_epoch_s=1e306),
                dict(duration_epochs=4 * 86400, t_epoch_s=1.0, dt_min=0.000333333333333)):
        with pytest.raises(ScenarioError, match="a run may record"):
            Scenario(**bad).validate()
    # a 1 s-epoch day at full resolution: 86 400 epochs, 4.32 M trajectory rows
    Scenario(duration_epochs=86400, t_epoch_s=1.0, dt_min=0.000333333333333).validate()


# inputs that the Python API once ran reinterpreted (force_trigger="false" ran
# forced, n_event_slots=1.5 ran, seed=True ran as seed 1) or that ended in a
# traceback from deep inside a run
MISUSED_FIELDS = [("force_trigger", "false"), ("n_event_slots", 1.5), ("seed", True),
                  ("q_diag", (1.0, 1.0, 1.0)), ("q_diag", (-1.0,) + (1.0,) * 14),
                  ("q_diag", (math.nan,) + (1.0,) * 14),
                  ("pools", DEFAULT_POOLS + DEFAULT_POOLS[:1]), ("duration_epochs", 5.5),
                  ("traj_every", 2.5), ("seed", 1.0), ("n_ctrl_slots", 2.0),
                  ("fp_rate", "0.1"), ("testbed", ["dept"]),
                  ("disturbances", ((180.0, 1.5, 16.0),))]


@pytest.mark.parametrize("name, value", MISUSED_FIELDS)
def test_misused_fields_are_refused_by_name(name, value):
    with pytest.raises(ScenarioError, match=f"^{name} must be "):
        replace(scenario_preset("dept_etc_noisy"), **{name: value}).validate()


def test_zero_q_passes_validation_and_fails_synthesis():
    sc = replace(scenario_preset("dept_etc_noisy"), q_diag=(0.0,) * 15)
    sc.validate()
    with pytest.raises(NoStabilizingSolution):
        run_experiment(sc)


def test_every_field_has_an_ini_key_but_three():
    keys = [f.metadata["ini"] for f in fields(Scenario) if f.metadata["ini"]]
    assert {f.name for f in fields(Scenario) if not f.metadata["ini"]} \
        == {"pools", "q_diag", "trigger_params"}
    assert len(set(keys)) == len(keys)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([f.name for f in fields(Scenario)]),
       st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
       | st.lists(st.floats() | st.integers(-1, 5), max_size=3).map(tuple)
       | st.lists(st.tuples(st.floats(), st.integers(-1, 5), st.floats()), max_size=2))
def test_validate_refuses_any_value_with_scenario_error(name, value):
    # validate only: no drawn value starts a run
    try:
        replace(scenario_preset("dept_etc_noisy"), **{name: value}).validate()
    except ScenarioError:
        pass


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


class _PrescribedLevels:
    """Stands in for plant.PlantStepper: every pool's level follows f(t)."""

    def __init__(self, f, pools, dt, x2_realization=None):
        self.f, self.dt, self.k, self.drained = f, dt, 0, 0

    def advance(self, x, v, n):
        self.k += n
        x = x.copy()
        x[0::plant.STATES_PER_POOL] = self.f(np.array([self.k * self.dt]))[0]
        return x

    def levels(self):
        t = (self.drained + 1 + np.arange(self.k - self.drained)) * self.dt
        self.drained = self.k
        return np.repeat(self.f(t)[:, None], N_POOLS, axis=1)


def iae_of_prescribed_levels(monkeypatch, f, duration_epochs=10):
    # run_experiment on a plant whose levels are f(t) [min]: the report's IAE
    # must be the closed-form mean of |f| over the run
    monkeypatch.setattr(plant, "PlantStepper",
                        lambda *a, **kw: _PrescribedLevels(f, *a, **kw))
    sc = short("dept_periodic_noiseless", duration_epochs=duration_epochs,
               initial_level_m=float(f(np.zeros(1))[0]), disturbances=())
    return run_experiment(sc).iae_per_pool


def test_iae_constant_signal(monkeypatch):
    got = iae_of_prescribed_levels(monkeypatch, lambda t: np.full(t.shape, -0.3))
    np.testing.assert_allclose(got, 0.3, rtol=1e-12)


def test_iae_exponential_closed_form(monkeypatch):
    # 10 one-minute epochs, time constant 1 min
    got = iae_of_prescribed_levels(monkeypatch, lambda t: np.exp(-t))
    np.testing.assert_allclose(got, (1.0 - math.exp(-10.0)) / 10.0, rtol=1e-6)


def test_iae_rectified_sine(monkeypatch):
    # one full period over the 10-minute run
    got = iae_of_prescribed_levels(monkeypatch, lambda t: np.sin(2.0 * math.pi * t / 10.0))
    np.testing.assert_allclose(got, 2.0 / math.pi, rtol=1e-6)


def test_iae_per_pool_matches_trapezoid_rule():
    rep = run_experiment(short(duration_epochs=30, traj_every=1))
    sc = rep.scenario
    levels = np.vstack([np.full(5, sc.initial_level_m), rep.levels])
    t_exp = sc.duration_epochs * sc.t_epoch_s / 60.0
    expected = np.trapezoid(np.abs(levels), dx=sc.dt_min, axis=0) / t_exp
    np.testing.assert_allclose(rep.iae_per_pool, expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("t_epoch_s", [60.0, 45.0])
def test_replay_against_independent_integration(t_epoch_s):
    # rebuild the gate-flow step functions from the switch log and integrate
    # the plant independently; the recorded trajectory must match, which
    # exercises epoch anchoring, actuation offsets, and the delayed inputs
    # (45 s epochs do not divide the 2-6 min transport delays)
    from scipy.integrate import solve_ivp
    from wcbsim.plant import plant_matrices
    from wcbsim.pools import DEFAULT_POOLS

    sc_kwargs = dict(duration_epochs=12, traj_every=1, t_epoch_s=t_epoch_s,
                     disturbances=((3.0, 4, 16.0),))
    rep = run_experiment(scenario_preset("dept_etc_noiseless", **sc_kwargs))
    sc = rep.scenario
    dt = sc.dt_min
    spe = int(round(sc.t_epoch_s / 60.0 / dt))
    lags = [int(round(p.tau / dt)) for p in DEFAULT_POOLS]
    n_steps = sc.duration_epochs * spe
    first = -max(lags)
    flows = rep.switch_log.flows_at(np.arange(first, n_steps))

    def v_at(step):
        delayed = [flows[step - lags[i] - first, i] for i in range(5)]
        t = step * dt
        d = [16.0 if (i == 4 and t >= 3.0) else 0.0 for i in range(5)]
        return np.concatenate([delayed, flows[step - first], d])

    A, B = plant_matrices(DEFAULT_POOLS, sc.delay_approx)
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


@pytest.mark.parametrize("block_steps", [harness.LEVEL_BLOCK_STEPS, 997])
def test_level_blocks_match_per_segment_recording(monkeypatch, block_steps):
    # the levels drained in blocks of steps give the rows, times and IAE of a
    # reference that takes each segment's levels right after its advance and
    # records them with per-segment bookkeeping; 100 epochs of 750 steps
    # cross the default block size four times
    segments = []
    stepper_class = plant.PlantStepper

    class Recording(stepper_class):
        def advance(self, x, v, n):
            segments.append((x.copy(), v.copy(), n))
            return super().advance(x, v, n)

    monkeypatch.setattr(plant, "PlantStepper", Recording)
    monkeypatch.setattr(harness, "LEVEL_BLOCK_STEPS", block_steps)
    spe = 750
    for every in (1, 7, 1000, 1001, spe + 1):
        segments.clear()
        rep = run_experiment(short("dept_etc_noisy", t_epoch_s=45.0, duration_epochs=100,
                                   traj_every=every))
        sc = rep.scenario
        ref_stepper = stepper_class(sc.pools, sc.dt_min, sc.delay_approx)
        t_ref, y_ref, g = [], [], 0
        iae = np.zeros(N_POOLS)
        for x, v, n in segments:
            ref_stepper.advance(x, v, n)
            levels = ref_stepper.levels()
            iae += np.abs(levels).sum(axis=0)
            ks = np.arange((-(g + 1)) % every, n, every)
            t_ref.append((g + 1 + ks) * sc.dt_min)
            y_ref.append(levels[ks])
            g += n
        assert g == sc.duration_epochs * spe
        y_ref = np.concatenate(y_ref)
        assert rep.t_min.tobytes() == np.concatenate(t_ref).tobytes()
        assert rep.levels.shape == y_ref.shape == (g // every, N_POOLS)
        assert np.abs(rep.levels - y_ref).max() <= 1e-15 * np.abs(y_ref).max()
        first = sc.initial_level_m
        t_exp = sc.duration_epochs * sc.t_epoch_s / 60.0
        iae = (iae + 0.5 * (first - np.abs(levels[-1]))) * sc.dt_min / t_exp
        np.testing.assert_allclose(rep.iae_per_pool, iae, rtol=1e-14, atol=0)
