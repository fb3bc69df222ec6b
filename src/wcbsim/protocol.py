"""Discrete-event model of one bus epoch.

An epoch's active portion is a fixed slot plan: a synchronization flood S,
(event-triggered variant only) E shared event-notification slots EV, K
dedicated sensor collection slots T, a cumulative acknowledgment flood A,
R contention/acknowledgment pairs for recovery, and C repeated command
dissemination slots CTRL. The recovery pairs sit at fixed offsets whether
used or not, so `EpochConfig` computes every CTRL slot end from the counts
alone and dissemination timing never depends on losses. Per-slot flood
outcomes are i.i.d. Bernoulli draws at empirically measured delivery rates;
the PHY is abstracted away.

Node ids: 0 is the controller, 1..K the sensors, K+1..K+n_actuators the
actuators. All awake nodes relay every flood, so radio-on time is charged
per scheduled slot to every node participating in that phase; nodes sleep
as soon as the protocol permits (quiet epochs end after the EV phase,
acknowledged sensors skip recovery, everything sleeps after the last CTRL).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

S, EV, T, A, CTRL = "S", "EV", "T", "A", "CTRL"

WCB_E = "WCB-E"
WCB_P = "WCB-P"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SlotConfig:
    """One slot type: duration, network-mean delivery rate, and the per-node
    radio-on charge for taking part in the slot."""

    duration_ms: float
    pdr: float
    t_on_ms: float

    def __post_init__(self):
        if not (0.0 <= self.pdr <= 1.0):
            raise ConfigError(f"pdr must be a probability, got {self.pdr}")
        if self.duration_ms <= 0:
            raise ConfigError("slot duration must be positive")


@dataclass(frozen=True)
class EpochConfig:
    variant: str
    t_epoch_s: float
    n_sensors: int
    n_actuators: int
    slots: dict[str, SlotConfig]
    n_event_slots: int            # E
    max_recovery_pairs: int       # R
    n_ctrl_slots: int             # C
    gap_ms: float
    preamble_ms: float
    fp_rate: float = 0.0
    sdr_table: dict[int, dict[int, float]] = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return 1 + self.n_sensors + self.n_actuators

    def sensor_ids(self):
        return range(1, 1 + self.n_sensors)

    def actuator_ids(self):
        return range(1 + self.n_sensors, self.n_nodes)

    def validate(self) -> None:
        if self.variant not in (WCB_E, WCB_P):
            raise ConfigError(f"unknown variant {self.variant}")
        if self.n_sensors < 1 or self.n_ctrl_slots < 1 or self.max_recovery_pairs < 0:
            raise ConfigError("need K >= 1, C >= 1, R >= 0")
        if self.variant == WCB_E and self.n_event_slots < 1:
            raise ConfigError("event-triggered variant needs at least one EV slot")
        if not 0.0 <= self.fp_rate <= 1.0:
            raise ConfigError(f"fp_rate must be a probability, got {self.fp_rate}")
        epoch_ms = self.t_epoch_s * 1000.0
        # each slot takes at least the shortest duration plus a gap, so a plan
        # with more slots than fit is refused before any count meets a float:
        # a count of any size is refused at once, and none overflows
        n_slots = sum(n for _, n in self._plan()) + self.n_ctrl_slots
        shortest = min(s.duration_ms for s in self.slots.values()) + self.gap_ms
        if not n_slots < epoch_ms / shortest < math.inf or self.active_end_ms >= epoch_ms:
            raise ConfigError(f"{n_slots} slots do not fit in the {epoch_ms:.0f} ms epoch")

    def _plan(self) -> tuple[tuple[str, int], ...]:
        """(kind, count) of the slots before the first CTRL slot."""
        r = self.max_recovery_pairs
        return ((S, 1), (EV, self.n_event_slots if self.variant == WCB_E else 0),
                (T, self.n_sensors + r), (A, 1 + r))

    @property
    def _ctrl_start_ms(self) -> float:
        return self.preamble_ms + sum(n * (self.slots[kind].duration_ms + self.gap_ms)
                                      for kind, n in self._plan())

    @cached_property
    def ctrl_ends_ms(self) -> tuple[float, ...]:
        """End of each CTRL slot, measured from the epoch start."""
        start, w = self._ctrl_start_ms, self.slots[CTRL].duration_ms
        return tuple(start + j * (w + self.gap_ms) + w for j in range(self.n_ctrl_slots))

    @cached_property
    def listen_on_ms(self) -> float:
        """Per-node radio-on of every epoch: sync, and EV if event-triggered."""
        ev = self.n_event_slots * self.slots[EV].t_on_ms if self.variant == WCB_E else 0.0
        return self.slots[S].t_on_ms + ev

    @cached_property
    def quiet_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (act_latency_ms, radio_on_ms) shared by every quiet epoch."""
        arrays = (np.full(self.n_actuators, np.nan), np.full(self.n_nodes, self.listen_on_ms))
        for arr in arrays:
            arr.flags.writeable = False
        return arrays

    @property
    def active_end_ms(self) -> float:
        """End of the active portion: the last CTRL slot plus one gap."""
        w = self.slots[CTRL].duration_ms
        return self._ctrl_start_ms + self.n_ctrl_slots * (w + self.gap_ms)

    def sdr(self, n_senders: int) -> float:
        """Signal detection probability for the whole EV phase, interpolated
        in the concurrent-sender count."""
        table = self.sdr_table.get(self.n_event_slots)
        if table is None:
            # no measurement for this EV-slot count; fall back to the pdr
            return self.slots[EV].pdr
        us = sorted(table)
        i = bisect_left(us, n_senders)
        if i == 0 or n_senders >= us[-1]:
            return table[us[0] if i == 0 else us[-1]]
        lo, hi = us[i - 1], us[i]
        return table[lo] + (n_senders - lo) / (hi - lo) * (table[hi] - table[lo])


def flood_outcome(pdr: float, n_receivers: int | tuple[int, ...],
                  rng: np.random.Generator) -> np.ndarray:
    """Independent per-receiver reception flags for one flood, or for a
    block of floods given a shape (drawn in C order)."""
    if pdr >= 1.0:
        return np.ones(n_receivers, dtype=bool)
    if pdr <= 0.0:
        return np.zeros(n_receivers, dtype=bool)
    return rng.random(n_receivers) < pdr


def event_phase(triggered: set[int], cfg: EpochConfig,
                rng: np.random.Generator) -> np.ndarray:
    """Per-node event detection after the EV slots.

    With U > 0 concurrent notifiers every node detects with the measured
    phase-aggregate probability (notifiers always self-detect); with U = 0
    each node may still falsely detect a corrupted frame.
    """
    detected = np.zeros(cfg.n_nodes, dtype=bool)
    u = len(triggered)
    if u > 0:
        p = cfg.sdr(u)
        detected = flood_outcome(p, cfg.n_nodes, rng)
        for sid in triggered:
            detected[sid] = True
    elif cfg.fp_rate > 0.0:
        detected = flood_outcome(cfg.fp_rate, cfg.n_nodes, rng)
    return detected


@dataclass
class EpochTrace:
    epoch: int
    event_flag: bool
    n_triggered: int
    participants: tuple[int, ...]
    controller_on: bool
    received: tuple[int, ...]           # sensors whose sample reached the controller
    recovery_rounds_used: int
    unresolved: tuple[int, ...]
    act_latency_ms: np.ndarray          # per actuator; nan = missed all CTRL floods
    radio_on_ms: np.ndarray             # per node id

    @property
    def last_latency_ms(self) -> float:
        lat = self.act_latency_ms[np.isfinite(self.act_latency_ms)]
        return float(lat.max()) if lat.size else math.nan


def quiet_trace(epoch: int, cfg: EpochConfig) -> EpochTrace:
    """Epoch in which nobody detected an event: sync plus EV listening only.
    Its arrays are the configuration's read-only `quiet_arrays`."""
    act_latency_ms, radio_on_ms = cfg.quiet_arrays
    return EpochTrace(
        epoch=epoch, event_flag=False, n_triggered=0, participants=(), controller_on=False,
        received=(), recovery_rounds_used=0, unresolved=(),
        act_latency_ms=act_latency_ms, radio_on_ms=radio_on_ms)


def run_epoch(participants: set[int], cfg: EpochConfig,
              rng: np.random.Generator, epoch: int = 0,
              controller_on: bool = True, actuators_on: set[int] | None = None,
              n_triggered: int | None = None) -> EpochTrace:
    """Execute collection, recovery, and dissemination for one epoch.

    `participants` are the sensors awake for the collection phase;
    `controller_on`/`actuators_on` cover the rare case that a node missed
    the event notification and sleeps through the whole epoch (a sleeping
    controller never acknowledges or disseminates).
    """
    slots = cfg.slots
    k = cfg.n_sensors
    senders = np.array(sorted(participants), dtype=np.intp)
    awake = np.zeros(cfg.n_nodes, dtype=bool)
    awake[list(cfg.actuator_ids() if actuators_on is None else actuators_on)] = True
    act_awake = awake[k + 1:].copy()
    awake[senders] = True
    awake[0] = controller_on

    # collection: one dedicated flood per participating sensor, in id order
    received = np.zeros(k + 1, dtype=bool)     # by sensor id; 0 is unused
    got = flood_outcome(slots[T].pdr, senders.size, rng)
    if controller_on:
        received[senders[got]] = True

    # everyone sat through sync (and, in the event-triggered variant, EV);
    # the awake nodes also through the K collection slots and the A slot
    radio = np.where(awake, cfg.listen_on_ms + k * slots[T].t_on_ms + slots[A].t_on_ms,
                     cfg.listen_on_ms)

    # cumulative acknowledgment; per-node Bernoulli reception of the bitmap
    ack_rx = flood_outcome(slots[A].pdr, k, rng) if controller_on \
        else np.zeros(k, dtype=bool)
    contenders = senders[~(ack_rx[senders - 1] & received[senders])]

    # recovery: contenders compete in shared T slots until acknowledged;
    # the controller keeps listening while any of the K sensors is unheard
    rounds_used = 0
    pair_cost = slots[T].t_on_ms + slots[A].t_on_ms
    for _ in range(cfg.max_recovery_pairs):
        controller_needs = controller_on and not received[1:].all()
        if not contenders.size and not controller_needs:
            break
        rounds_used += 1
        if controller_on:
            radio[0] += pair_cost
        radio[contenders] += pair_cost
        if contenders.size and controller_on:
            if flood_outcome(slots[T].pdr, 1, rng)[0]:
                received[contenders[int(rng.integers(contenders.size))]] = True
        if controller_on:
            ack_rx = flood_outcome(slots[A].pdr, k, rng)
            contenders = contenders[~(ack_rx[contenders - 1] & received[contenders])]
        # without the controller no bitmap arrives; contenders keep trying

    # dissemination: C repeated command floods, drawn as one (C, actuators)
    # block; each actuator logs the end of the first flood it hears awake
    act_latency = np.full(cfg.n_actuators, np.nan)
    if controller_on:
        hits = flood_outcome(slots[CTRL].pdr, (cfg.n_ctrl_slots, cfg.n_actuators), rng) \
            & act_awake
        heard = hits.any(axis=0)
        act_latency[heard] = np.asarray(cfg.ctrl_ends_ms)[hits.argmax(axis=0)[heard]]
        radio[awake] += cfg.n_ctrl_slots * slots[CTRL].t_on_ms

    return EpochTrace(
        epoch=epoch, event_flag=True,
        n_triggered=len(participants) if n_triggered is None else n_triggered,
        participants=tuple(senders.tolist()), controller_on=controller_on,
        received=tuple(received.nonzero()[0].tolist()),
        recovery_rounds_used=rounds_used,
        unresolved=tuple(((received[1:] == 0).nonzero()[0] + 1).tolist()),
        act_latency_ms=act_latency, radio_on_ms=radio)


def collection_success_prob(pdr: float, k: int, max_lost: int) -> float:
    """P(at most max_lost of k independent floods fail)."""
    if not (0.0 <= pdr <= 1.0) or k < 1:
        raise ValueError("need 0 <= pdr <= 1 and k >= 1")
    q = 1.0 - pdr
    return sum(math.comb(k, j) * q**j * pdr**(k - j)
               for j in range(min(max_lost, k) + 1))


def analytic_ton(cfg: EpochConfig, f_ev: float):
    """Closed-form per-epoch radio-on time and duty cycle for both variants.

    The periodic variant pays for every phase each epoch; the event-triggered
    one pays the full schedule plus the EV slots in event epochs and only
    sync + EV otherwise. Recovery is excluded (scheduled but rarely used).
    Returns (T_on_E, T_on_P, DC_E, DC_P); radio-on in ms, duty cycles in %.
    """
    if not (0.0 <= f_ev <= 1.0):
        raise ValueError("event-epoch frequency must lie in [0, 1]")
    slots = cfg.slots
    t_on_p = (slots[S].t_on_ms + cfg.n_sensors * slots[T].t_on_ms
              + slots[A].t_on_ms + cfg.n_ctrl_slots * slots[CTRL].t_on_ms)
    ev_cost = cfg.n_event_slots * slots[EV].t_on_ms
    t_on_e = f_ev * (t_on_p + ev_cost) + (1.0 - f_ev) * (slots[S].t_on_ms + ev_cost)
    epoch_ms = cfg.t_epoch_s * 1000.0
    return t_on_e, t_on_p, 100.0 * t_on_e / epoch_ms, 100.0 * t_on_p / epoch_ms
