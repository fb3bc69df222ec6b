"""Epoch-loop co-simulation binding plant, triggers, protocol, and controller.

Timing semantics: sensors sample the (paused) plant exactly at each epoch
start; the protocol decides which readings reach the controller and when
each actuator hears the new command; the plant then integrates across the
epoch with every gate flow switching at the integration step nearest its
command arrival time. Gate flows are held between successful
disseminations, and each sensor's held reference updates only in epochs in
which it participated in a collection.
"""

from __future__ import annotations

import hashlib
import io
import math
from dataclasses import dataclass

import numpy as np

from . import control, plant, protocol, triggers
from .pools import DEFAULT_POOLS, N_POOLS, PoolParams
from .profiles import (DEFAULT_FP_RATE, DEFAULT_TRIGGER_SCALE, TESTBEDS,
                       make_epoch_config)
from .protocol import WCB_E, WCB_P
from .rng import stream_rng

SEC_TO_MIN = 1.0 / 60.0


class ScenarioError(ValueError):
    pass


class EmptyGrid(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
    testbed: str = "dept"
    variant: str = WCB_E
    duration_epochs: int = 1440
    t_epoch_s: float = 60.0
    dt_min: float = 0.001
    initial_level_m: float = 0.05
    disturbances: tuple[tuple[float, int, float], ...] = ((180.0, 4, 16.0),
                                                          (450.0, 4, 34.0),
                                                          (600.0, 4, 0.0))
    level_std_m: float = 0.0
    flow_std: float = 0.0
    flow_noise_mode: str = "filtered"      # filtered through the x2 stage, or direct
    x3_mode: str = "continuous"            # node integral: continuous or discrete sum
    seed: int = 1
    delay_approx: str = "lag"
    trigger_params: triggers.TriggerParams = triggers.DEFAULT_TRIGGERS
    trigger_scale: tuple[float, float, float] = DEFAULT_TRIGGER_SCALE
    fp_rate: float = 0.0
    force_trigger: bool = False
    n_event_slots: int = 2
    max_recovery_pairs: int = 3
    n_ctrl_slots: int = 2
    pools: tuple[PoolParams, ...] = DEFAULT_POOLS
    q_diag: tuple[float, ...] = tuple(control.DEFAULT_Q_DIAG)
    traj_every: int = 1

    def validate(self) -> None:
        if self.testbed not in TESTBEDS:
            raise ScenarioError(f"unknown testbed {self.testbed!r}")
        if self.variant not in (WCB_E, WCB_P):
            raise ScenarioError(f"unknown variant {self.variant!r}")
        if self.duration_epochs < 1:
            raise ScenarioError("duration must be at least one epoch")
        if self.level_std_m < 0 or self.flow_std < 0:
            raise ScenarioError("noise standard deviations must be >= 0")
        if self.flow_noise_mode not in ("filtered", "direct"):
            raise ScenarioError(f"unknown flow noise mode {self.flow_noise_mode!r}")
        if self.x3_mode not in ("continuous", "discrete"):
            raise ScenarioError(f"unknown x3 mode {self.x3_mode!r}")
        if self.delay_approx not in ("pade", "lag"):
            raise ScenarioError(f"unknown delay approximation {self.delay_approx!r}")
        if self.traj_every < 1:
            raise ScenarioError("traj_every must be >= 1")
        for _, pool, _ in self.disturbances:
            if not 0 <= pool < len(self.pools):
                raise ScenarioError(
                    f"disturbance pool {pool + 1} is outside 1..{len(self.pools)}")
        if len(self.trigger_scale) != 3:
            raise ScenarioError("trigger scale needs exactly 3 values "
                                "(level, flow filter, level integral)")
        steps = self.t_epoch_s * SEC_TO_MIN / self.dt_min
        if abs(steps - round(steps)) > 1e-9:
            raise ScenarioError("dt must divide the epoch duration")
        violations = triggers.validate_params(self.trigger_params)
        if violations:
            raise ScenarioError("bad trigger parameters: " + "; ".join(violations))


def scenario_preset(name: str, seed: int = 1, **overrides) -> Scenario:
    """Named presets: {hall|dept}_{etc|periodic}_{noiseless|noisy}."""
    try:
        testbed, sampling, noise = name.split("_")
        variant = {"etc": WCB_E, "periodic": WCB_P}[sampling]
        noisy = {"noiseless": False, "noisy": True}[noise]
        if testbed not in TESTBEDS:
            raise KeyError(testbed)
    except (ValueError, KeyError):
        raise ScenarioError(f"unknown scenario preset {name!r}")
    fields = dict(
        testbed=testbed, variant=variant, seed=seed,
        level_std_m=0.001 if noisy else 0.0,
        flow_std=1.0 if noisy else 0.0,
        fp_rate=DEFAULT_FP_RATE if noisy else 0.0,
    )
    fields.update(overrides)
    return Scenario(**fields)


PRESET_NAMES = tuple(f"{t}_{s}_{n}" for t in ("hall", "dept")
                     for s in ("etc", "periodic") for n in ("noiseless", "noisy"))


@dataclass
class RunReport:
    scenario: Scenario
    t_min: np.ndarray                 # decimated time grid
    levels: np.ndarray                # decimated level deviations (n, 5) [m]
    u_pre: np.ndarray                 # per-epoch gate flow entering the epoch (E, 5)
    u_post: np.ndarray                # per-epoch gate flow after actuation (E, 5)
    u_switch_step: np.ndarray         # per-epoch per-gate switch step, -1 = none
    traces: list[protocol.EpochTrace]
    iae_per_pool: np.ndarray          # [m]
    sample_count: int
    dc_pct: float
    mean_latency_ms: float
    max_latency_ms: float

    @property
    def iae_sum(self) -> float:
        return float(self.iae_per_pool.sum())

    @property
    def iae_max(self) -> float:
        return float(self.iae_per_pool.max())

    def summary_row(self) -> dict:
        return {
            "seed": self.scenario.seed,
            "variant": self.scenario.variant,
            "testbed": self.scenario.testbed,
            "sample_count": self.sample_count,
            "IAE_sum": self.iae_sum,
            "IAE_max": self.iae_max,
            "DC_pct": self.dc_pct,
            "mean_latency_ms": self.mean_latency_ms,
        }

    def digest(self) -> str:
        """Stable fingerprint of everything the run produced."""
        h = hashlib.sha256()
        for arr in (self.t_min, self.levels, self.u_pre, self.u_post,
                    self.u_switch_step.astype(np.int64), self.iae_per_pool):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr(sorted(self.summary_row().items())).encode())
        for tr in self.traces:
            h.update(repr((tr.epoch, tr.event_flag, tr.n_triggered,
                           tr.participants, tr.recovery_rounds_used,
                           tr.unresolved)).encode())
            h.update(tr.act_latency_ms.tobytes())
            h.update(tr.radio_on_ms.tobytes())
        return h.hexdigest()


def iae(values: np.ndarray, x_star: float, t_exp: float) -> float:
    """Time-normalized integral of |x - x*| by the trapezoidal rule on a
    uniform grid covering [0, t_exp]."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise EmptyGrid("need a grid of at least two samples")
    dt = t_exp / (values.size - 1)
    dev = np.abs(values - x_star)
    return float(np.trapezoid(dev, dx=dt) / t_exp)


def run_experiment(scenario: Scenario) -> RunReport:
    scenario.validate()
    sc = scenario
    pools = sc.pools
    dt = sc.dt_min
    epoch_min = sc.t_epoch_s * SEC_TO_MIN
    steps_per_epoch = int(round(epoch_min / dt))
    n_epochs = sc.duration_epochs

    model = control.build_state_space(pools, sc.delay_approx)
    weights = control.LqrWeights(Q=np.diag(np.asarray(sc.q_diag, dtype=float)),
                                 R=np.eye(N_POOLS))
    gain = control.lqr_gain(model, weights)

    stepper = plant.PlantStepper(pools, dt, x2_realization=sc.delay_approx)
    x = np.zeros(plant.N_STATES)
    for i in range(N_POOLS):
        x[plant.STATES_PER_POOL * i] = sc.initial_level_m

    cfg = make_epoch_config(
        TESTBEDS[sc.testbed], variant=sc.variant, t_epoch_s=sc.t_epoch_s,
        n_event_slots=sc.n_event_slots if sc.variant == WCB_E else 0,
        max_recovery_pairs=sc.max_recovery_pairs, n_ctrl_slots=sc.n_ctrl_slots,
        fp_rate=sc.fp_rate)
    schedule = protocol.build_schedule(cfg)
    dist = plant.DisturbanceSchedule(list(sc.disturbances))

    # delay replay in whole epochs: every pool delay must be a multiple of the epoch
    delay_epochs = []
    for p in pools:
        ratio = p.tau / epoch_min
        if abs(ratio - round(ratio)) > 1e-9:
            raise ScenarioError("transport delays must be whole epochs for replay")
        delay_epochs.append(int(round(ratio)))

    s_level, s_flow, s_integ = sc.trigger_scale
    # x2 filter DC gain maps a flow error onto the filter state
    x2_dc = np.array([plant.X2_GAIN_NUMERATOR[sc.delay_approx] * p.tau / (2.0 * p.alpha)
                      for p in pools])

    xhat_ctrl = np.zeros(3 * N_POOLS)           # controller-held design state
    xhat_node = np.zeros(3 * N_POOLS)           # sensor-held references (same layout)
    node_x3 = np.zeros(N_POOLS)                 # discrete-mode node integrators
    u_held = np.zeros(N_POOLS)

    u_pre = np.zeros((n_epochs, N_POOLS))
    u_post = np.zeros((n_epochs, N_POOLS))
    u_switch = np.full((n_epochs, N_POOLS), -1, dtype=int)

    traces: list[protocol.EpochTrace] = []
    iae_acc = np.zeros(N_POOLS)
    first_abs = np.abs(x[0::plant.STATES_PER_POOL][:N_POOLS]).copy()
    last_abs = first_abs.copy()

    rec_stride = sc.traj_every
    n_rec = (n_epochs * steps_per_epoch) // rec_stride
    rec_t = np.empty(n_rec)
    rec_y = np.empty((n_rec, N_POOLS))
    rec_i = 0

    radio_total = np.zeros(cfg.n_nodes)
    latencies: list[float] = []
    sample_count = 0

    for epoch in range(n_epochs):
        t_s = epoch * epoch_min

        # --- sensor acquisition at the epoch start ---
        y_now = x[0::plant.STATES_PER_POOL][:N_POOLS].copy()
        x2_now = x[3::plant.STATES_PER_POOL][:N_POOLS].copy()
        x3_now = x[4::plant.STATES_PER_POOL][:N_POOLS].copy()
        if sc.level_std_m > 0 or sc.flow_std > 0:
            nrng = stream_rng(sc.seed, "noise", epoch)
            x1_meas = y_now + nrng.normal(0.0, sc.level_std_m, N_POOLS)
            sig = sc.flow_std * (x2_dc if sc.flow_noise_mode == "filtered" else np.ones(N_POOLS))
            x2_meas = x2_now + nrng.normal(0.0, 1.0, N_POOLS) * sig
        else:
            x1_meas = y_now
            x2_meas = x2_now
        if sc.x3_mode == "discrete":
            x3_meas = node_x3.copy()
            node_x3 += epoch_min * x1_meas
        else:
            x3_meas = x3_now

        # --- triggering and event phase ---
        if sc.variant == WCB_P:
            participants = set(cfg.sensor_ids())
            controller_on = True
            actuators_on = set(cfg.actuator_ids())
            n_triggered = cfg.n_sensors
            fire = True
        elif epoch == 0 or sc.force_trigger:
            # bootstrap: all nodes report so the controller has a full state
            participants = set(cfg.sensor_ids())
            controller_on = True
            actuators_on = set(cfg.actuator_ids())
            n_triggered = cfg.n_sensors
            fire = True
        else:
            fired = []
            for j in range(N_POOLS):
                xv = np.array([s_level * x1_meas[j], s_integ * x3_meas[j]])
                xh = np.array([s_level * xhat_node[j], s_integ * xhat_node[2 * N_POOLS + j]])
                if triggers.node_trigger(j, xv, xh, sc.trigger_params):
                    fired.append(1 + j)
            for j in range(N_POOLS):
                xv = np.array([s_flow * x2_meas[j]])
                xh = np.array([s_flow * xhat_node[N_POOLS + j]])
                if triggers.node_trigger(N_POOLS + j, xv, xh, sc.trigger_params):
                    fired.append(1 + N_POOLS + j)
            n_triggered = len(fired)
            if n_triggered > 0:
                erng = stream_rng(sc.seed, "event", epoch)
            else:
                erng = stream_rng(sc.seed, "falsepos", epoch)
            detected = protocol.event_phase(set(fired), cfg, erng)
            participants = {sid for sid in cfg.sensor_ids() if detected[sid]}
            controller_on = bool(detected[0])
            actuators_on = {aid for aid in cfg.actuator_ids() if detected[aid]}
            fire = bool(detected.any())

        # --- network epoch ---
        if fire:
            readings = {}
            for j in range(N_POOLS):
                readings[1 + j] = (x1_meas[j], x3_meas[j])
                readings[1 + N_POOLS + j] = (x2_meas[j],)
            trace = protocol.run_epoch(
                schedule, participants, readings, cfg,
                stream_rng(sc.seed, "network", epoch), epoch=epoch,
                controller_on=controller_on, actuators_on=actuators_on,
                n_triggered=n_triggered, event_flag=True)
        else:
            trace = protocol.quiet_trace(epoch, cfg)
        traces.append(trace)
        radio_total += trace.radio_on_ms
        if trace.participants:
            sample_count += 1

        # --- controller update and actuation ---
        u_pre[epoch] = u_held
        u_cmd = None
        if trace.controller_on and trace.participants:
            for sid, payload in trace.received.items():
                j = sid - 1
                if j < N_POOLS:
                    xhat_ctrl[j] = payload[0]
                    xhat_ctrl[2 * N_POOLS + j] = payload[1]
                else:
                    xhat_ctrl[N_POOLS + (j - N_POOLS)] = payload[0]
            u_cmd = control.control_law(gain, xhat_ctrl)
            lat = trace.last_latency_ms
            if math.isfinite(lat):
                latencies.append(lat)
        new_u = u_held.copy()
        for a in range(N_POOLS):
            delta = trace.act_latency_ms[a]
            if u_cmd is not None and math.isfinite(delta):
                step = int(round(delta / (dt * 60000.0)))
                u_switch[epoch, a] = min(step, steps_per_epoch)
                new_u[a] = u_cmd[a]
        u_post[epoch] = new_u

        # sensors that took part hold the value they transmitted
        for sid in trace.participants:
            j = sid - 1
            if j < N_POOLS:
                xhat_node[j] = x1_meas[j]
                xhat_node[2 * N_POOLS + j] = x3_meas[j]
            else:
                xhat_node[N_POOLS + (j - N_POOLS)] = x2_meas[j - N_POOLS]

        # --- plant integration across the epoch ---
        breaks = {0, steps_per_epoch}
        for a in range(N_POOLS):
            if u_switch[epoch, a] >= 0:
                breaks.add(int(u_switch[epoch, a]))
        replay = []
        for i in range(N_POOLS):
            e_src = epoch - delay_epochs[i]
            if e_src < 0:
                replay.append((0.0, 0.0, -1))
            else:
                replay.append((u_pre[e_src, i], u_post[e_src, i],
                               int(u_switch[e_src, i])))
                if u_switch[e_src, i] >= 0:
                    breaks.add(int(u_switch[e_src, i]))
        for t_d, _, _ in sc.disturbances:
            # snap off-grid step times to the nearest integration boundary
            step = int(round((t_d - t_s) / dt))
            if 0 < step < steps_per_epoch:
                breaks.add(step)

        bounds = sorted(b for b in breaks if 0 <= b <= steps_per_epoch)
        for a_step, b_step in zip(bounds, bounds[1:]):
            n = b_step - a_step
            if n == 0:
                continue
            u_app = np.array([u_post[epoch, i] if 0 <= u_switch[epoch, i] <= a_step
                              else u_pre[epoch, i] for i in range(N_POOLS)])
            u_dly = np.array([(post if 0 <= sw <= a_step else pre)
                              for (pre, post, sw) in replay])
            d = dist.disturbance_at(t_s + (a_step + 0.5) * dt)
            v = np.concatenate([u_dly, u_app, d])
            x, levels = stepper.advance(x, v, n)
            iae_acc += np.abs(levels).sum(axis=0)
            last_abs = np.abs(levels[-1])
            # decimated trajectory recording
            g0 = epoch * steps_per_epoch + a_step + 1
            k0 = (-g0) % rec_stride
            ks = np.arange(k0, n, rec_stride)
            if ks.size:
                take = min(ks.size, n_rec - rec_i)
                rec_t[rec_i:rec_i + take] = (g0 + ks[:take]) * dt
                rec_y[rec_i:rec_i + take] = levels[ks[:take]]
                rec_i += take
        u_held = new_u

    t_exp = n_epochs * epoch_min
    iae_per_pool = (iae_acc + 0.5 * (first_abs - last_abs)) * dt / t_exp
    duration_ms = t_exp * 60000.0
    dc_pct = float(100.0 * radio_total.mean() / duration_ms)

    return RunReport(
        scenario=sc,
        t_min=rec_t[:rec_i].copy(), levels=rec_y[:rec_i].copy(),
        u_pre=u_pre, u_post=u_post, u_switch_step=u_switch,
        traces=traces, iae_per_pool=iae_per_pool,
        sample_count=sample_count, dc_pct=dc_pct,
        mean_latency_ms=float(np.mean(latencies)) if latencies else math.nan,
        max_latency_ms=float(np.max(latencies)) if latencies else math.nan,
    )


# ---------------------------------------------------------------- exports

SUMMARY_COLUMNS = ("seed", "variant", "testbed", "sample_count", "IAE_sum",
                   "IAE_max", "DC_pct", "mean_latency_ms")


def write_summary_csv(reports: list[RunReport], fh: io.TextIOBase) -> None:
    fh.write(",".join(SUMMARY_COLUMNS) + "\n")
    for rep in reports:
        row = rep.summary_row()
        fh.write(",".join(_fmt(row[c]) for c in SUMMARY_COLUMNS) + "\n")


def write_trajectory_csv(report: RunReport, fh: io.TextIOBase) -> None:
    cols = ["t_min"] + [f"y{i+1}" for i in range(N_POOLS)] \
        + [f"u{i+1}" for i in range(N_POOLS)] + ["d5"]
    fh.write(",".join(cols) + "\n")
    sc = report.scenario
    dist = plant.DisturbanceSchedule(list(sc.disturbances))
    epoch_min = sc.t_epoch_s * SEC_TO_MIN
    steps_per_epoch = int(round(epoch_min / sc.dt_min))
    for t, y in zip(report.t_min, report.levels):
        g = int(round(t / sc.dt_min))
        epoch = min((g - 1) // steps_per_epoch, report.u_pre.shape[0] - 1)
        step = g - epoch * steps_per_epoch
        u = np.array([report.u_post[epoch, i]
                      if 0 <= report.u_switch_step[epoch, i] < step
                      else report.u_pre[epoch, i] for i in range(N_POOLS)])
        d5 = dist.disturbance_at(t)[4]
        fh.write(",".join([_fmt(t)] + [_fmt(v) for v in y]
                          + [_fmt(v) for v in u] + [_fmt(d5)]) + "\n")


def write_trace_csv(report: RunReport, fh: io.TextIOBase) -> None:
    n_act = report.traces[0].act_latency_ms.size if report.traces else 5
    n_nodes = report.traces[0].radio_on_ms.size if report.traces else 16
    cols = ["epoch", "event_flag", "U", "recovery_rounds"] \
        + [f"lat_act{i+1}_ms" for i in range(n_act)] \
        + [f"radio_on_n{i}_ms" for i in range(n_nodes)] \
        + ["missing_after_recovery"]
    fh.write(",".join(cols) + "\n")
    for tr in report.traces:
        lat = ["MISSED" if not math.isfinite(v) else _fmt(v)
               for v in tr.act_latency_ms]
        missing = ";".join(str(s) for s in tr.unresolved) if tr.event_flag else ""
        fh.write(",".join([str(tr.epoch), str(int(tr.event_flag)),
                           str(tr.n_triggered), str(tr.recovery_rounds_used)]
                          + lat + [_fmt(v) for v in tr.radio_on_ms]
                          + [missing]) + "\n")


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if math.isnan(v):
            return "nan"
        return repr(v)
    return str(v)
