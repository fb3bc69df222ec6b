import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcbsim.profiles import DEPT, HALL, make_epoch_config
from wcbsim.protocol import (A, CTRL, EV, S, T, WCB_E, WCB_P, ConfigError,
                             EpochTrace, SlotConfig, analytic_ton,
                             collection_success_prob, event_phase,
                             flood_outcome, quiet_trace, run_epoch)
from wcbsim.rng import stream_rng


@dataclass(frozen=True)
class Slot:
    kind: str
    start_ms: float
    end_ms: float


def enumerated_plan(cfg):
    """Reference slot plan, one slot at a time: S, E x EV (event-triggered
    only), K x T, A, R x (T, A), C x CTRL. Returns (slots, active end)."""
    slots, cursor = [], cfg.preamble_ms
    kinds = [S] + [EV] * (cfg.n_event_slots if cfg.variant == WCB_E else 0) \
        + [T] * cfg.n_sensors + [A] + [T, A] * cfg.max_recovery_pairs \
        + [CTRL] * cfg.n_ctrl_slots
    for kind in kinds:
        w = cfg.slots[kind].duration_ms
        slots.append(Slot(kind, cursor, cursor + w))
        cursor += w + cfg.gap_ms
    return slots, slots[-1].end_ms + cfg.gap_ms


def lossless_config(variant=WCB_E, **kw):
    slots = {k: SlotConfig(duration_ms=s.duration_ms, pdr=1.0,
                           t_on_ms=s.t_on_ms) for k, s in HALL.slots.items()}
    cfg = make_epoch_config(HALL, variant=variant, **kw)
    return replace(cfg, slots=slots,
                   sdr_table={1: {1: 1.0, 10: 1.0}, 2: {1: 1.0, 10: 1.0}})


class ScriptedRng:
    """Deterministic stand-in for a Generator: pops scripted uniforms."""

    def __init__(self, uniforms, ints=()):
        self.uniforms = list(uniforms)
        self.ints = list(ints)

    def random(self, n=None):
        count = 1 if n is None else n
        vals = [self.uniforms.pop(0) if self.uniforms else 0.0
                for _ in range(count)]
        return np.array(vals)

    def integers(self, n):
        return self.ints.pop(0) if self.ints else 0


# ------------------------------------------------------------- schedules

def test_minimal_schedule_slot_count():
    cfg = make_epoch_config(HALL, variant=WCB_E, n_sensors=1, n_event_slots=1,
                            max_recovery_pairs=0, n_ctrl_slots=1)
    slots, _ = enumerated_plan(cfg)
    assert [s.kind for s in slots] == [S, EV, T, A, CTRL]


@pytest.mark.parametrize("profile,delta", [(HALL, 12.0), (DEPT, 16.0)])
def test_event_slots_shift_dissemination(profile, delta):
    first_ctrl_e = make_epoch_config(profile, variant=WCB_E).ctrl_ends_ms[0]
    first_ctrl_p = make_epoch_config(profile, variant=WCB_P).ctrl_ends_ms[0]
    assert first_ctrl_e - first_ctrl_p == pytest.approx(delta, abs=1e-9)


def test_schedule_monotone_and_recovery_reserved():
    slots, _ = enumerated_plan(make_epoch_config(HALL, variant=WCB_P))
    ends = 0.0
    for slot in slots:
        assert slot.start_ms >= ends
        ends = slot.end_ms
    # 10 dedicated + 3 reserved recovery T slots
    assert [s.kind for s in slots].count(T) == 13
    assert [s.kind for s in slots].count(A) == 4


def test_closed_form_plan_equals_the_enumerated_one():
    # exact equality: actuation latencies are these floats bit for bit
    for profile, variant, e, r, c in itertools.product(
            (HALL, DEPT), (WCB_E, WCB_P), range(6), range(6), range(1, 6)):
        if variant == WCB_E and e == 0:
            continue
        cfg = make_epoch_config(profile, variant=variant, n_event_slots=e,
                                max_recovery_pairs=r, n_ctrl_slots=c)
        slots, active_end = enumerated_plan(cfg)
        assert cfg.ctrl_ends_ms == tuple(s.end_ms for s in slots if s.kind == CTRL)
        assert cfg.active_end_ms == active_end


def test_reference_latencies_from_schedule():
    # end of the first command slot, measured from the epoch start
    for profile, variant, expected in [
            (HALL, WCB_E, 192.023), (HALL, WCB_P, 180.023),
            (DEPT, WCB_E, 253.017), (DEPT, WCB_P, 237.017)]:
        cfg = make_epoch_config(profile, variant=variant)
        assert cfg.ctrl_ends_ms[0] == pytest.approx(expected, abs=1e-9)


def test_active_portion_must_fit():
    with pytest.raises(ConfigError):
        make_epoch_config(HALL, variant=WCB_P, t_epoch_s=0.15).validate()
    make_epoch_config(HALL, variant=WCB_P, t_epoch_s=0.25).validate()
    # a count too large for a float is refused, not overflowed
    with pytest.raises(ConfigError):
        make_epoch_config(HALL, n_ctrl_slots=int("9" * 400)).validate()


# ------------------------------------------------------------- floods

def test_flood_outcome_extremes():
    rng = stream_rng(0, "network", 0)
    assert flood_outcome(1.0, 50, rng).all()
    assert not flood_outcome(0.0, 50, rng).any()


def test_flood_outcome_binomial_rate():
    # 1e6 draws at the dedicated-slot delivery rate, within 3 sigma
    rng = stream_rng(123, "network", 0)
    n, p = 1_000_000, 0.9994
    hits = int(flood_outcome(p, n, rng).sum())
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(hits - n * p) < 3 * sigma


# ------------------------------------------------------------- event phase

def test_event_phase_quiet_without_false_positives():
    cfg = make_epoch_config(HALL, variant=WCB_E, fp_rate=0.0)
    detected = event_phase(set(), cfg, stream_rng(0, "falsepos", 0))
    assert not detected.any()


def test_event_phase_single_sender_detected_everywhere():
    cfg = make_epoch_config(DEPT, variant=WCB_E)
    assert cfg.sdr(1) == 1.0
    detected = event_phase({3}, cfg, stream_rng(0, "event", 0))
    assert detected.all()


def test_sdr_table_reference_points():
    cfg = make_epoch_config(DEPT, variant=WCB_E)
    assert cfg.sdr(10) == 0.998
    assert cfg.sdr(25) == 0.998          # clamped above the table
    assert cfg.sdr(2) == 0.999997
    assert 0.99998 < cfg.sdr(4) < 0.999993  # interpolated between 3 and 5
    hall = make_epoch_config(HALL, variant=WCB_E)
    assert hall.sdr(10) == 0.999


def test_event_phase_senders_always_self_detect():
    cfg = make_epoch_config(HALL, variant=WCB_E)
    low_sdr = replace(cfg, sdr_table={2: {1: 0.0, 10: 0.0}})
    detected = event_phase({1, 7}, low_sdr, stream_rng(0, "event", 0))
    assert detected[1] and detected[7]
    assert not detected[0]


# ------------------------------------------------------------- epochs

def test_lossless_epoch_accounting():
    cfg = lossless_config()
    tr = run_epoch(set(cfg.sensor_ids()), cfg, stream_rng(0, "network", 0))
    assert tr.recovery_rounds_used == 0
    assert tr.unresolved == ()
    assert np.all(tr.act_latency_ms == cfg.ctrl_ends_ms[0])
    slots = cfg.slots
    expected = (slots[S].t_on_ms + 2 * slots[EV].t_on_ms
                + 10 * slots[T].t_on_ms + slots[A].t_on_ms
                + 2 * slots[CTRL].t_on_ms)
    assert np.allclose(tr.radio_on_ms, expected)


def test_quiet_epoch_radio_formula():
    cfg = lossless_config()
    tr = quiet_trace(7, cfg)
    expected = cfg.slots[S].t_on_ms + 2 * cfg.slots[EV].t_on_ms
    assert np.allclose(tr.radio_on_ms, expected)
    assert tr.radio_on_ms.max() <= cfg.active_end_ms


def test_quiet_traces_share_read_only_arrays():
    cfg = lossless_config()
    a, b = quiet_trace(1, cfg), quiet_trace(2, cfg)
    assert np.array_equal(a.act_latency_ms, np.full(cfg.n_actuators, np.nan), equal_nan=True)
    assert np.array_equal(a.radio_on_ms, np.full(cfg.n_nodes, cfg.listen_on_ms))
    assert a.radio_on_ms is b.radio_on_ms and a.act_latency_ms is b.act_latency_ms
    for arr in (a.act_latency_ms, a.radio_on_ms):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def scripted_loss_config():
    # lossy T slots so reception draws are actually consumed; perfect A/CTRL
    base = lossless_config()
    slots = dict(base.slots)
    slots[T] = SlotConfig(duration_ms=6.0, pdr=0.9, t_on_ms=slots[T].t_on_ms)
    return replace(base, slots=slots)


def test_scripted_single_loss_recovers_in_one_round():
    cfg = scripted_loss_config()
    # collection draws: sensor 4's flood lost (draw above pdr); the single
    # recovery contention succeeds with the T-slot probability
    uniforms = [0.0] * 3 + [0.95] + [0.0] * 6 + [0.0]
    tr = run_epoch(set(cfg.sensor_ids()), cfg, ScriptedRng(uniforms))
    assert tr.recovery_rounds_used == 1
    assert tr.unresolved == ()
    assert 4 in tr.received
    # the recovering sensor paid for one extra T/A pair
    extra = cfg.slots[T].t_on_ms + cfg.slots[A].t_on_ms
    assert tr.radio_on_ms[4] == pytest.approx(tr.radio_on_ms[3] + extra)
    assert tr.radio_on_ms[0] == pytest.approx(tr.radio_on_ms[4])


def test_recovery_exhausts_after_r_rounds():
    cfg = scripted_loss_config()
    # sensor 1's flood lost; every recovery contention also lost
    uniforms = [0.95] + [0.0] * 9 + [0.95, 0.95, 0.95]
    tr = run_epoch(set(cfg.sensor_ids()), cfg, ScriptedRng(uniforms))
    assert tr.recovery_rounds_used == cfg.max_recovery_pairs
    assert tr.unresolved == (1,)


def test_sleeping_controller_collects_nothing():
    cfg = lossless_config()
    tr = run_epoch(set(cfg.sensor_ids()), cfg, stream_rng(0, "network", 0),
                   controller_on=False)
    assert tr.received == ()
    assert tr.unresolved == tuple(cfg.sensor_ids())
    assert np.all(np.isnan(tr.act_latency_ms))
    assert tr.recovery_rounds_used == cfg.max_recovery_pairs


def test_epoch_determinism():
    cfg = make_epoch_config(HALL, variant=WCB_E)

    def once():
        return run_epoch(set(cfg.sensor_ids()), cfg, stream_rng(99, "network", 5), epoch=5)

    a, b = once(), once()
    assert a.received == b.received
    assert a.recovery_rounds_used == b.recovery_rounds_used
    assert np.array_equal(a.act_latency_ms, b.act_latency_ms, equal_nan=True)
    assert np.array_equal(a.radio_on_ms, b.radio_on_ms)


def test_recovery_monotone_in_delivery_rate():
    # raising the T-slot pdr must not increase expected recovery rounds;
    # checked over 1e4 epochs with a 3-sigma guard band
    n_epochs = 10_000

    def rounds(pdr_t, seed):
        base = make_epoch_config(HALL, variant=WCB_P)
        slots = dict(base.slots)
        slots[T] = SlotConfig(duration_ms=6.0, pdr=pdr_t, t_on_ms=slots[T].t_on_ms)
        cfg = replace(base, slots=slots)
        return np.array([
            run_epoch(set(cfg.sensor_ids()), cfg, stream_rng(seed, "network", epoch),
                      epoch=epoch).recovery_rounds_used
            for epoch in range(n_epochs)])

    low = rounds(0.95, seed=11)
    high = rounds(0.995, seed=12)
    guard = 3.0 * math.sqrt((low.var() + high.var()) / n_epochs)
    assert high.mean() < low.mean() - guard
    assert low.mean() > 0.2


def test_recovery_rounds_never_exceed_r():
    cfg = make_epoch_config(HALL, variant=WCB_P)
    slots = dict(cfg.slots)
    slots[T] = SlotConfig(duration_ms=6.0, pdr=0.5, t_on_ms=slots[T].t_on_ms)
    lossy = replace(cfg, slots=slots)
    for epoch in range(300):
        tr = run_epoch(set(lossy.sensor_ids()), lossy, stream_rng(5, "network", epoch),
                       epoch=epoch)
        assert tr.recovery_rounds_used <= lossy.max_recovery_pairs
        if tr.unresolved:
            assert tr.recovery_rounds_used == lossy.max_recovery_pairs
        assert tr.radio_on_ms.max() <= lossy.active_end_ms


def loop_run_epoch(participants, cfg, rng, epoch=0, controller_on=True,
                   actuators_on=None, n_triggered=None):
    """Reference epoch, one flood draw per sensor and per CTRL slot, as
    Python loops over node ids."""
    slots = cfg.slots
    if actuators_on is None:
        actuators_on = set(cfg.actuator_ids())
    awake = np.zeros(cfg.n_nodes, dtype=bool)
    awake[[*participants, *actuators_on]] = True
    awake[0] = controller_on
    radio = np.full(cfg.n_nodes, cfg.listen_on_ms)

    received = set()
    for sid in cfg.sensor_ids():
        if sid in participants:
            got = flood_outcome(slots[T].pdr, 1, rng)[0]
            if got and controller_on:
                received.add(sid)
    radio[awake] += cfg.n_sensors * slots[T].t_on_ms

    ack_rx = flood_outcome(slots[A].pdr, cfg.n_sensors, rng) if controller_on \
        else np.zeros(cfg.n_sensors, dtype=bool)
    radio[awake] += slots[A].t_on_ms
    contenders = [sid for sid in sorted(participants)
                  if not (ack_rx[sid - 1] and sid in received)]

    rounds_used = 0
    for _ in range(cfg.max_recovery_pairs):
        controller_needs = controller_on and len(received) < cfg.n_sensors
        if not contenders and not controller_needs:
            break
        rounds_used += 1
        pair_cost = slots[T].t_on_ms + slots[A].t_on_ms
        if controller_on:
            radio[0] += pair_cost
        for sid in contenders:
            radio[sid] += pair_cost
        if contenders and controller_on:
            if flood_outcome(slots[T].pdr, 1, rng)[0]:
                winner = contenders[int(rng.integers(len(contenders)))]
                received.add(winner)
        if controller_on:
            ack_rx = flood_outcome(slots[A].pdr, cfg.n_sensors, rng)
            contenders = [sid for sid in contenders
                          if not (ack_rx[sid - 1] and sid in received)]

    unresolved = tuple(sid for sid in cfg.sensor_ids() if sid not in received)

    act_latency = np.full(cfg.n_actuators, np.nan)
    if controller_on:
        for end_ms in cfg.ctrl_ends_ms:
            got = flood_outcome(slots[CTRL].pdr, cfg.n_actuators, rng)
            for a, aid in enumerate(cfg.actuator_ids()):
                if got[a] and aid in actuators_on and math.isnan(act_latency[a]):
                    act_latency[a] = end_ms
        radio[awake] += cfg.n_ctrl_slots * slots[CTRL].t_on_ms

    return EpochTrace(
        epoch=epoch, event_flag=True,
        n_triggered=len(participants) if n_triggered is None else n_triggered,
        participants=tuple(sorted(participants)), controller_on=controller_on,
        received=tuple(sorted(received)), recovery_rounds_used=rounds_used,
        unresolved=unresolved, act_latency_ms=act_latency, radio_on_ms=radio)


PDRS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99))


@settings(max_examples=400, deadline=None)
@given(k=st.integers(1, 12), n_act=st.integers(1, 6), c=st.integers(1, 4),
       r=st.integers(0, 4), variant=st.sampled_from([WCB_E, WCB_P]),
       pdr=st.fixed_dictionaries({T: PDRS, A: PDRS, CTRL: PDRS}), data=st.data())
def test_run_epoch_matches_the_per_node_loops(k, n_act, c, r, variant, pdr, data):
    # the same PCG64 doubles in the same order, so every field and the
    # generator state after the epoch agree exactly
    cfg = make_epoch_config(DEPT, variant=variant, n_sensors=k, n_actuators=n_act,
                            max_recovery_pairs=r, n_ctrl_slots=c)
    cfg = replace(cfg, slots={kind: replace(slot, pdr=pdr.get(kind, slot.pdr))
                              for kind, slot in cfg.slots.items()})
    participants = data.draw(st.sets(st.sampled_from(list(cfg.sensor_ids()))))
    controller_on = data.draw(st.booleans())
    actuators_on = data.draw(st.none() | st.sets(st.sampled_from(list(cfg.actuator_ids()))))
    seed, epoch = data.draw(st.integers(0, 2**32)), data.draw(st.integers(0, 10**6))
    args = (participants, cfg)
    kwargs = dict(epoch=epoch, controller_on=controller_on, actuators_on=actuators_on)
    rng_got, rng_ref = stream_rng(seed, "network", epoch), stream_rng(seed, "network", epoch)
    got = run_epoch(*args, rng_got, **kwargs)
    ref = loop_run_epoch(*args, rng_ref, **kwargs)
    for name in ("epoch", "event_flag", "n_triggered", "participants", "controller_on",
                 "received", "recovery_rounds_used", "unresolved"):
        assert repr(getattr(got, name)) == repr(getattr(ref, name)), name
    assert got.act_latency_ms.tobytes() == ref.act_latency_ms.tobytes()
    assert got.radio_on_ms.tobytes() == ref.radio_on_ms.tobytes()
    assert rng_got.bit_generator.state == rng_ref.bit_generator.state


# ------------------------------------------------------------- analytics

def test_collection_success_prob_reference_values():
    assert collection_success_prob(1.0, 10, 3) == 1.0
    assert collection_success_prob(0.5, 2, 0) == pytest.approx(0.25)
    tail = 1.0 - collection_success_prob(0.9994, 10, 3)
    assert tail < 1e-7
    assert tail == pytest.approx(2.71e-11, rel=0.05)


def test_analytic_ton_boundaries_and_references():
    cfg = make_epoch_config(HALL, variant=WCB_E)
    t_e, t_p, dc_e, dc_p = analytic_ton(cfg, 1.0)
    assert t_e == pytest.approx(t_p + 2 * cfg.slots[EV].t_on_ms)
    # calibration anchors: periodic epoch budget and quiet-epoch budget
    assert t_p == pytest.approx(59.50, abs=1e-9)
    t_e0, _, _, _ = analytic_ton(cfg, 0.0)
    assert t_e0 == pytest.approx(13.81, abs=1e-9)
    # one-day duty cycles at the observed event-epoch frequency
    _, _, dc_e, dc_p = analytic_ton(cfg, 149.0 / 1440.0)
    assert dc_e == pytest.approx(0.0319, rel=0.02)
    assert dc_p == pytest.approx(0.0992, rel=0.001)

    dept = make_epoch_config(DEPT, variant=WCB_E)
    _, _, dc_e, dc_p = analytic_ton(dept, 148.0 / 1440.0)
    assert dc_e == pytest.approx(0.0413, rel=0.02)
    assert dc_p == pytest.approx(0.1166, rel=0.001)


def test_break_even_event_frequency():
    for profile in (HALL, DEPT):
        cfg = make_epoch_config(profile, variant=WCB_E)
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            t_e, t_p, _, _ = analytic_ton(cfg, mid)
            if t_e < t_p:
                lo = mid
            else:
                hi = mid
        assert 0.85 <= lo <= 0.95


def test_analytic_ton_rejects_bad_frequency():
    cfg = make_epoch_config(HALL, variant=WCB_E)
    with pytest.raises(ValueError):
        analytic_ton(cfg, 1.5)
