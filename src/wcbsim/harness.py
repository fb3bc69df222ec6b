"""Epoch-loop co-simulation binding plant, triggers, protocol, and controller.

Timing semantics: sensors sample the (paused) plant exactly at each epoch
start; the protocol decides which samples reach the controller and when
each actuator hears the new command; the plant then integrates across the
epoch with every gate flow switching at the integration step nearest its
command arrival time. Gate flows are held between successful
disseminations, and each sensor's held reference updates only in epochs in
which it participated in a collection.

Every flow change is one entry of a `SwitchLog` on the global step grid.
The plant sees gate i's flow at step g as the applied input and its flow
at step g - tau_i/dt as the delayed inflow, so transport delays must be
multiples of dt but not of the epoch. The epoch loop reads those ten input
columns (gate, lag) through one forward cursor each, `SwitchLog.windows`:
the log is append-only with nondecreasing steps and each column's window
moves by exactly one epoch of steps, so an index that only moves forward
replaces two bisections per column and epoch. The trajectory export reads
the same log.

The loop needs only each segment's end state; the per-step levels feed the
error integrals and the recorded trajectory and nothing else. So the loop
advances the plant's state path segment by segment and drains its level
path (`PlantStepper.levels`) whenever LEVEL_BLOCK_STEPS steps are queued,
and once at the end. Each block adds its absolute levels to the IAE sums
and writes the recorded rows by global step: the level after step G, at
t = G*dt, is row G/traj_every - 1 when traj_every divides G.

The controller and the sensors update their held design states through
boolean masks over the states, one per set of sensor ids.
"""

from __future__ import annotations

import functools
import hashlib
import io
import math
import numbers
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from . import control, plant, protocol, triggers
from .pools import DEFAULT_POOLS, N_POOLS, PoolParams
from .profiles import (DEFAULT_FP_RATE, DEFAULT_TRIGGER_SCALE, TESTBEDS,
                       make_epoch_config)
from .protocol import WCB_E, WCB_P
from .rng import stream_rng

SEC_TO_MIN = 1.0 / 60.0

# plant-state rows of the design state z = (x1_1..x1_5, x2_1..x2_5, x3_1..x3_5)
DESIGN_ROWS = np.concatenate([np.arange(N_POOLS) * plant.STATES_PER_POOL + k
                              for k in (0, 3, 4)])


# the most memory one run may record: 48 B per trajectory row (time and five
# levels) plus about TRACE_BYTES per epoch trace. A 1 s-epoch day at
# dt = 20 ms (86 400 epochs, 4.32 M rows) records 0.3 GB.
MAX_RECORD_BYTES = 2**30
TRACE_BYTES = 1100


class ScenarioError(ValueError):
    pass


class SwitchLog:
    """Per-gate log of (global step, flow) switches.

    A switch logged at step g applies from step g on; a gate holds 0 before
    its first switch. Steps are logged in nondecreasing order per gate.
    """

    def __init__(self, n_gates: int):
        self._steps = [[] for _ in range(n_gates)]
        self._flows = [[] for _ in range(n_gates)]

    def log(self, gate: int, step: int, flow: float) -> None:
        self._steps[gate].append(step)
        self._flows[gate].append(float(flow))

    def windows(self, gate: int, lo: int, n: int):
        """Generator over the gate's windows (lo, lo + n], (lo + n, lo + 2n], ...

        Each next() gives the flow at the window start and the window's
        switches as (steps after its start, flow) pairs in logged order. One
        forward index reads the live log, so switches logged between two
        reads count as long as the steps stay nondecreasing; among equal
        steps the later log wins.
        """
        steps, flows = self._steps[gate], self._flows[gate]
        k = 0
        while True:
            end = len(steps)
            while k < end and steps[k] <= lo:
                k += 1
            flow = flows[k - 1] if k else 0.0
            switched = []
            while k < end and steps[k] <= lo + n:
                switched.append((steps[k] - lo, flows[k]))
                k += 1
            lo += n
            yield flow, switched

    def flows_at(self, steps: np.ndarray) -> np.ndarray:
        """Flow of every gate at each of `steps`, shape (len(steps), n_gates)."""
        return np.stack([np.concatenate([[0.0], f])[np.searchsorted(s, steps, side="right")]
                         for s, f in zip(self._steps, self._flows)], axis=1)

    def tobytes(self) -> bytes:
        return repr((self._steps, self._flows)).encode()


class Kind(NamedTuple):
    """The values a Scenario field accepts, and how its INI text parses and formats."""
    what: str                                   # the accepted values, for messages
    accepts: Callable[[object], bool]
    parse: Callable[[str], object] = str
    fmt: Callable[[object], str] = str


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    # finite also as a float: an int beyond the float range is not
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _choice(values: tuple[str, ...], labels: tuple[str, ...] | None = None) -> Kind:
    """One of `values`, written in INI as the label at the same position."""
    labels = labels or values
    return Kind("one of " + ", ".join(labels), lambda v: isinstance(v, str) and v in values,
                lambda s: values[labels.index(s)], lambda v: labels[values.index(v)])


def _integer(lo: int) -> Kind:
    return Kind(f"an integer >= {lo}", lambda v: _is_int(v) and v >= lo, int)


def _real(what: str = "a finite real", ok=lambda v: True) -> Kind:
    return Kind(what, lambda v: _is_real(v) and ok(v), float, lambda v: repr(float(v)))


def _reals(n: int, what: str, ok=lambda v: True) -> Kind:
    return Kind(f"{n} finite reals {what}",
                lambda v: (isinstance(v, (tuple, list)) and len(v) == n
                           and all(_is_real(x) and ok(x) for x in v)),
                lambda s: tuple(float(x) for x in s.split(",")),
                lambda v: ", ".join(repr(float(x)) for x in v))


_POSITIVE = _real("a finite real > 0", lambda v: v > 0)
_NON_NEGATIVE = _real("a finite real >= 0", lambda v: v >= 0)
_STEPS = Kind(f"(time [min], pool, flow) steps of finite reals, with the pools "
              f"counted 0..{N_POOLS - 1} (1..{N_POOLS} in INI files)",
              lambda v: isinstance(v, (tuple, list)) and all(
                  isinstance(s, (tuple, list)) and len(s) == 3 and _is_real(s[0])
                  and _is_int(s[1]) and 0 <= s[1] < N_POOLS and _is_real(s[2]) for s in v),
              lambda s: tuple((float(t), int(pool) - 1, float(flow)) for t, pool, flow
                              in (item.split(":") for item in s.split(",") if item.strip())),
              lambda v: ", ".join(f"{float(t)!r}:{pool + 1}:{float(flow)!r}"
                                  for t, pool, flow in v))
VARIANT = _choice((WCB_E, WCB_P), ("etc", "periodic"))
_FLAG = Kind("True or False (in INI: true/false, yes/no, 1/0)", lambda v: isinstance(v, bool),
             lambda s: ("false", "true", "no", "yes", "0", "1").index(s.lower()) % 2 == 1,
             lambda v: str(v).lower())


def _field(default, ini: tuple[str, str] | None, kind: Kind):
    """A Scenario field that INI files set as [section] key `ini`, if given."""
    return field(default=default, metadata={"ini": ini, "kind": kind})


@dataclass(frozen=True)
class Scenario:
    """One simulated setting; INI files list the fields' keys in field order."""
    testbed: str = _field("dept", ("run", "testbed"), _choice(tuple(TESTBEDS)))
    variant: str = _field(WCB_E, ("run", "variant"), VARIANT)
    duration_epochs: int = _field(1440, ("run", "duration_epochs"), _integer(1))
    t_epoch_s: float = _field(60.0, ("run", "t_epoch_s"), _POSITIVE)
    dt_min: float = _field(0.001, ("plant", "dt_min"), _POSITIVE)
    initial_level_m: float = _field(0.05, ("plant", "initial_level_m"), _real())
    delay_approx: str = _field("lag", ("plant", "delay_approx"), _choice(("pade", "lag")))
    disturbances: tuple[tuple[float, int, float], ...] = _field(
        ((180.0, 4, 16.0), (450.0, 4, 34.0), (600.0, 4, 0.0)), ("plant", "disturbances"), _STEPS)
    level_std_m: float = _field(0.0, ("noise", "level_std_m"), _NON_NEGATIVE)
    flow_std: float = _field(0.0, ("noise", "flow_std"), _NON_NEGATIVE)
    # flow noise filtered through the x2 stage, or direct
    flow_noise_mode: str = _field("filtered", ("noise", "flow_noise_mode"),
                                  _choice(("filtered", "direct")))
    # node integral: continuous, or a discrete sum
    x3_mode: str = _field("continuous", ("noise", "x3_mode"), _choice(("continuous", "discrete")))
    seed: int = _field(1, ("run", "seed"), _integer(0))
    trigger_params: triggers.TriggerParams = _field(triggers.DEFAULT_TRIGGERS, None, Kind(
        "a TriggerParams", lambda v: isinstance(v, triggers.TriggerParams)))
    trigger_scale: tuple[float, float, float] = _field(
        DEFAULT_TRIGGER_SCALE, ("trigger", "scale"),
        _reals(3, "(level, flow filter, level integral)"))
    n_event_slots: int = _field(2, ("network", "n_event_slots"), _integer(0))
    max_recovery_pairs: int = _field(3, ("network", "max_recovery_pairs"), _integer(0))
    n_ctrl_slots: int = _field(2, ("network", "n_ctrl_slots"), _integer(1))
    fp_rate: float = _field(0.0, ("network", "fp_rate"),
                            _real("a real in [0, 1]", lambda v: 0 <= v <= 1))
    force_trigger: bool = _field(False, ("network", "force_trigger"), _FLAG)
    pools: tuple[PoolParams, ...] = _field(DEFAULT_POOLS, None, Kind(
        f"{N_POOLS} PoolParams", lambda v: (isinstance(v, (tuple, list)) and len(v) == N_POOLS
                                            and all(isinstance(p, PoolParams) for p in v))))
    q_diag: tuple[float, ...] = _field(tuple(control.DEFAULT_Q_DIAG), None,
                                       _reals(3 * N_POOLS, ">= 0", lambda v: v >= 0))
    traj_every: int = _field(1, ("run", "traj_every"), _integer(1))

    def validate(self) -> None:
        for f in fields(self):
            if not f.metadata["kind"].accepts(getattr(self, f.name)):
                raise ScenarioError(f"{f.name} must be {f.metadata['kind'].what}")
        steps = self.t_epoch_s * SEC_TO_MIN / self.dt_min
        step_times = [steps] + [t / self.dt_min for t, _, _ in self.disturbances]
        if not all(math.isfinite(v) for v in step_times):
            raise ScenarioError("the epoch and disturbance times must be finite in steps of dt")
        try:
            plant.DisturbanceSchedule(list(self.disturbances))
            plant.check_dt(self.pools, self.dt_min)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        if abs(steps - round(steps)) > 1e-9:
            raise ScenarioError("dt must divide the epoch duration")
        n_rows = self.duration_epochs * round(steps) // self.traj_every
        if n_rows * 8 * (1 + N_POOLS) + self.duration_epochs * TRACE_BYTES > MAX_RECORD_BYTES:
            raise ScenarioError(f"{self.duration_epochs} epochs with {n_rows} trajectory rows "
                                f"exceed the {MAX_RECORD_BYTES} B a run may record")
        violations = triggers.validate_params(self.trigger_params)
        if violations:
            raise ScenarioError("bad trigger parameters: " + "; ".join(violations))
        covered = sorted(i for idx in self.trigger_params.index_sets for i in idx)
        if self.trigger_params.n_nodes != 2 * N_POOLS or covered != list(range(3 * N_POOLS)):
            raise ScenarioError(f"trigger nodes must be {2 * N_POOLS} and measure each "
                                f"of the {3 * N_POOLS} design states once")
        self.epoch_config()

    def epoch_config(self) -> protocol.EpochConfig:
        """The scenario's bus configuration; ScenarioError if it cannot run."""
        cfg = make_epoch_config(
            TESTBEDS[self.testbed], variant=self.variant, t_epoch_s=self.t_epoch_s,
            n_event_slots=self.n_event_slots, max_recovery_pairs=self.max_recovery_pairs,
            n_ctrl_slots=self.n_ctrl_slots, fp_rate=self.fp_rate)
        # forced triggering never runs the event phase, so it needs no EV slot:
        # without one, the slot plan is that of the periodic variant
        forced = self.force_trigger and cfg.n_event_slots == 0
        try:
            (replace(cfg, variant=WCB_P) if forced else cfg).validate()
        except protocol.ConfigError as exc:
            raise ScenarioError(f"{self.variant}: {exc}") from None
        return cfg


def scenario_preset(name: str, seed: int = 1, **overrides) -> Scenario:
    """Named presets: {hall|dept}_{etc|periodic}_{noiseless|noisy}."""
    if name not in PRESET_NAMES:
        raise ScenarioError(f"unknown scenario preset {name!r}")
    testbed, sampling, noise = name.split("_")
    noisy = noise == "noisy"
    values = dict(
        testbed=testbed, variant=VARIANT.parse(sampling), seed=seed,
        level_std_m=0.001 if noisy else 0.0,
        flow_std=1.0 if noisy else 0.0,
        fp_rate=DEFAULT_FP_RATE if noisy else 0.0,
    )
    values.update(overrides)
    return Scenario(**values)


PRESET_NAMES = tuple(f"{t}_{s}_{n}" for t in ("hall", "dept")
                     for s in ("etc", "periodic") for n in ("noiseless", "noisy"))


@dataclass
class RunReport:
    scenario: Scenario
    t_min: np.ndarray                 # decimated time grid
    levels: np.ndarray                # decimated level deviations (n, 5) [m]
    switch_log: SwitchLog             # gate flows on the global step grid
    traces: list[protocol.EpochTrace]
    iae_per_pool: np.ndarray          # [m]
    sample_count: int
    dc_pct: float
    mean_latency_ms: float

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
        for arr in (self.t_min, self.levels, self.iae_per_pool):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(self.switch_log.tobytes())
        h.update(repr(sorted(self.summary_row().items())).encode())
        for tr in self.traces:
            h.update(repr((tr.epoch, tr.event_flag, tr.n_triggered,
                           tr.participants, tr.recovery_rounds_used,
                           tr.unresolved)).encode())
            h.update(tr.act_latency_ms.tobytes())
            h.update(tr.radio_on_ms.tobytes())
        return h.hexdigest()


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

    cfg = sc.epoch_config()
    dist = plant.DisturbanceSchedule(list(sc.disturbances))
    switches = SwitchLog(N_POOLS)
    # per input column, the gate's flow over each epoch's window of steps:
    # delayed by the pool's transport lag into column i, applied into 5 + i
    windows = [(col, switches.windows(i, -delay, steps_per_epoch))
               for i, p in enumerate(pools)
               for col, delay in ((i, int(round(p.tau / dt))), (N_POOLS + i, 0))]

    # sensor j + 1 measures the design states index_sets[j] (state_sensor maps
    # each state to that id); its trigger sees them scaled per state kind
    # (level, flow filter, level integral)
    state_sensor = sc.trigger_params.block_form[2] + 1

    @functools.lru_cache(maxsize=None)
    def state_mask(sensor_ids: tuple[int, ...]) -> np.ndarray:
        """Design states measured by the sensors `sensor_ids`."""
        mask = np.isin(state_sensor, sensor_ids)
        mask.flags.writeable = False
        return mask

    state_scale = np.repeat(np.asarray(sc.trigger_scale, dtype=float), N_POOLS)
    # x2 filter DC gain maps a flow error onto the filter state
    x2_dc = np.array([plant.X2_GAIN_NUMERATOR[sc.delay_approx] * p.tau / (2.0 * p.alpha)
                      for p in pools])
    flow_sig = sc.flow_std * (x2_dc if sc.flow_noise_mode == "filtered" else np.ones(N_POOLS))
    all_sensors = set(cfg.sensor_ids())
    all_actuators = set(cfg.actuator_ids())

    xhat_ctrl = np.zeros(3 * N_POOLS)           # controller-held design state
    xhat_node = np.zeros(3 * N_POOLS)           # sensor-held references, scaled
    node_x3 = np.zeros(N_POOLS)                 # discrete-mode node integrators

    traces: list[protocol.EpochTrace] = []
    iae_acc = np.zeros(N_POOLS)
    first_abs = np.abs(x[0::plant.STATES_PER_POOL][:N_POOLS]).copy()
    last_abs = first_abs.copy()

    # the level of global step G (at t = G*dt) is recorded in row G/traj_every - 1
    rec_stride = sc.traj_every
    n_rec = (n_epochs * steps_per_epoch) // rec_stride
    rec_y = np.empty((n_rec, N_POOLS))
    done_steps = 0                              # steps whose levels were drained
    queued_steps = 0

    def drain_levels():
        nonlocal last_abs, done_steps, queued_steps
        levels = stepper.levels()
        if levels.size:
            iae_acc[:] += np.abs(levels).sum(axis=0)
            last_abs = np.abs(levels[-1])
            k0 = (-(done_steps + 1)) % rec_stride
            first_row = (done_steps + 1 + k0) // rec_stride - 1
            rows = levels[k0::rec_stride]
            rec_y[first_row:first_row + len(rows)] = rows
        done_steps += len(levels)
        queued_steps = 0

    radio_total = np.zeros(cfg.n_nodes)
    latencies: list[float] = []
    sample_count = 0

    for epoch in range(n_epochs):
        t_s = epoch * epoch_min
        g0 = epoch * steps_per_epoch

        # --- sensor acquisition at the epoch start: measured design state z ---
        z = x[DESIGN_ROWS]
        if sc.level_std_m > 0 or sc.flow_std > 0:
            nrng = stream_rng(sc.seed, "noise", epoch)
            z[:N_POOLS] += nrng.normal(0.0, sc.level_std_m, N_POOLS)
            z[N_POOLS:2 * N_POOLS] += nrng.normal(0.0, 1.0, N_POOLS) * flow_sig
        if sc.x3_mode == "discrete":
            z[2 * N_POOLS:] = node_x3
            node_x3 += epoch_min * z[:N_POOLS]
        z_scaled = state_scale * z

        # --- triggering and event phase ---
        if sc.variant == WCB_P or epoch == 0 or sc.force_trigger:
            # periodic sampling, or a bootstrap in which all nodes report so
            # the controller has a full state
            participants = all_sensors
            controller_on = True
            actuators_on = all_actuators
            n_triggered = cfg.n_sensors
            fire = True
        else:
            fired = triggers.node_trigger(sc.trigger_params, z_scaled, xhat_node)
            n_triggered = len(fired)
            erng = stream_rng(sc.seed, "event" if fired else "falsepos", epoch)
            detected = protocol.event_phase(fired, cfg, erng).nonzero()[0].tolist()
            participants = {sid for sid in detected if 0 < sid <= cfg.n_sensors}
            controller_on = 0 in detected
            actuators_on = {aid for aid in detected if aid > cfg.n_sensors}
            fire = bool(detected)

        # --- network epoch ---
        if fire:
            trace = protocol.run_epoch(participants, cfg, stream_rng(sc.seed, "network", epoch),
                                       epoch=epoch, controller_on=controller_on,
                                       actuators_on=actuators_on, n_triggered=n_triggered)
        else:
            trace = protocol.quiet_trace(epoch, cfg)
        traces.append(trace)
        radio_total += trace.radio_on_ms
        if trace.participants:
            sample_count += 1

        # --- controller update and actuation ---
        if trace.controller_on and trace.participants:
            states = state_mask(trace.received)
            xhat_ctrl[states] = z[states]
            u_cmd = control.control_law(gain, xhat_ctrl).tolist()
            lat = trace.act_latency_ms
            acts = np.isfinite(lat).nonzero()[0]
            if acts.size:
                latencies.append(float(lat[acts].max()))
            # np.rint rounds half to even, as round() does
            offsets = np.rint(lat[acts] / (dt * 60000.0)).tolist()
            for a, step in zip(acts.tolist(), offsets):
                switches.log(a, g0 + min(int(step), steps_per_epoch), u_cmd[a])

        # sensors that took part hold the value they transmitted
        if trace.participants:
            states = state_mask(trace.participants)
            xhat_node[states] = z_scaled[states]

        # --- plant integration across the epoch ---
        # v = (delayed flows, applied flows, disturbances) at the epoch start;
        # segments break wherever one of the flows switches
        v = np.zeros(plant.N_INPUTS)
        moves = []
        for col, window in windows:
            v[col], switched = next(window)
            if switched:
                moves += [(off, col, flow) for off, flow in switched]
        moves.sort(key=lambda move: move[0])     # stable: the later log wins a tie
        breaks = {0, steps_per_epoch}
        breaks.update(off for off, _, _ in moves)
        for t_d, _, _ in sc.disturbances:
            # snap off-grid step times to the nearest integration boundary
            step = int(round((t_d - t_s) / dt))
            if 0 < step < steps_per_epoch:
                breaks.add(step)

        bounds = sorted(breaks)
        m = 0
        for a_step, b_step in zip(bounds, bounds[1:]):
            while m < len(moves) and moves[m][0] <= a_step:
                _, col, flow = moves[m]
                v[col] = flow
                m += 1
            n = b_step - a_step
            v[2 * N_POOLS:] = dist.disturbance_at(t_s + (a_step + 0.5) * dt)
            x = stepper.advance(x, v, n)
            queued_steps += n
            if queued_steps >= LEVEL_BLOCK_STEPS:
                drain_levels()

    drain_levels()
    t_exp = n_epochs * epoch_min
    iae_per_pool = (iae_acc + 0.5 * (first_abs - last_abs)) * dt / t_exp
    duration_ms = t_exp * 60000.0
    dc_pct = float(100.0 * radio_total.mean() / duration_ms)

    return RunReport(
        scenario=sc,
        t_min=np.arange(1, n_rec + 1) * rec_stride * dt, levels=rec_y,
        switch_log=switches,
        traces=traces, iae_per_pool=iae_per_pool,
        sample_count=sample_count, dc_pct=dc_pct,
        mean_latency_ms=float(np.mean(latencies)) if latencies else math.nan,
    )


# ---------------------------------------------------------------- exports

SUMMARY_COLUMNS = ("seed", "variant", "testbed", "sample_count", "IAE_sum",
                   "IAE_max", "DC_pct", "mean_latency_ms")
# steps of levels drained per block, whatever the epoch length: 4096 steps
# are 160 kB of levels, which stay in cache; 2**13 and 2**14 ran slower
LEVEL_BLOCK_STEPS = 2**12
# trajectory rows formatted and written per call: 4096-row blocks, or the
# whole file at once, raise the peak memory of a full-resolution export
TRAJ_BLOCK_ROWS = 256


def write_summary_csv(reports: list[RunReport], fh: io.TextIOBase) -> None:
    fh.write(",".join(SUMMARY_COLUMNS) + "\n")
    for rep in reports:
        row = rep.summary_row()
        fh.write(",".join(_fmt(row[c]) for c in SUMMARY_COLUMNS) + "\n")


def write_trajectory_csv(report: RunReport, fh: io.TextIOBase) -> None:
    """Write `t_min,y1..y5,u1..u5,d5`, one row per recorded step, every
    number as its shortest round-trip repr."""
    cols = ["t_min"] + [f"y{i+1}" for i in range(N_POOLS)] \
        + [f"u{i+1}" for i in range(N_POOLS)] + ["d5"]
    fh.write(",".join(cols) + "\n")
    sc = report.scenario
    dist = plant.DisturbanceSchedule(list(sc.disturbances))
    # the level recorded at t = g*dt ends step g-1, which ran under the flows of
    # step g-1 and the off-take at its midpoint, as run_experiment samples it
    steps = np.rint(report.t_min / sc.dt_min).astype(np.int64) - 1
    for lo in range(0, steps.size, TRAJ_BLOCK_ROWS):
        hi = lo + TRAJ_BLOCK_ROWS
        block = steps[lo:hi]
        d5 = dist.disturbance_at((block + 0.5) * sc.dt_min)[:, N_POOLS - 1]
        held = np.column_stack([report.switch_log.flows_at(block), d5])
        # the held inputs are piecewise constant: format each run of rows with
        # the same bit pattern once (-0.0 == 0.0, but their reprs differ)
        bits = held.view(np.int64)
        starts = np.ones(len(held), dtype=bool)
        starts[1:] = (bits[1:] != bits[:-1]).any(axis=1)
        tails = ["," + ",".join(map(repr, row)) + "\n" for row in held[starts].tolist()]
        run_of_row = (np.cumsum(starts) - 1).tolist()
        lead = np.column_stack([report.t_min[lo:hi], report.levels[lo:hi]]).tolist()
        fh.writelines([",".join(map(repr, row)) + tails[r]
                       for row, r in zip(lead, run_of_row)])


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
        return repr(float(v))
    return str(v)
