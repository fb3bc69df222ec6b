from dataclasses import dataclass

import numpy as np
import pytest

from wcbsim.plant import (N_INPUTS, N_STATES, STATES_PER_POOL, DisturbanceSchedule,
                          NonFiniteState, PlantStepper, check_dt, plant_matrices,
                          rk4_affine_maps)
from wcbsim.pools import DEFAULT_POOLS, N_POOLS, PoolParams

POOLS = DEFAULT_POOLS


# ---------------------------------------- step-by-step reference integrator

@dataclass
class WisPlantState:
    """Plant state plus per-gate delay ring buffers of applied flows."""

    pools: tuple[PoolParams, ...]
    dt: float
    y: np.ndarray
    ydot: np.ndarray
    yddot: np.ndarray
    x2: np.ndarray
    x3: np.ndarray
    delay_buffers: list[np.ndarray]
    t: float = 0.0
    x2_realization: str = "pade"

    @classmethod
    def initial(cls, pools: tuple[PoolParams, ...], dt: float, y0=0.0,
                u0: float = 0.0, x2_realization: str = "pade") -> "WisPlantState":
        check_dt(pools, dt)
        y = np.full(N_POOLS, y0, dtype=float) if np.isscalar(y0) else np.asarray(y0, dtype=float).copy()
        buffers = [np.full(_delay_steps(p, dt) + 1, u0, dtype=float) for p in pools]
        return cls(pools=pools, dt=dt, y=y,
                   ydot=np.zeros(N_POOLS), yddot=np.zeros(N_POOLS),
                   x2=np.zeros(N_POOLS), x3=np.zeros(N_POOLS),
                   delay_buffers=buffers, x2_realization=x2_realization)

    def delayed_inputs(self) -> np.ndarray:
        # buffer[1] is the flow applied tau minutes ago on the step grid
        return np.array([buf[1] for buf in self.delay_buffers])

    def as_vector(self) -> np.ndarray:
        x = np.empty(N_STATES)
        for i in range(N_POOLS):
            o = STATES_PER_POOL * i
            x[o:o + 5] = (self.y[i], self.ydot[i], self.yddot[i], self.x2[i], self.x3[i])
        return x

    def set_vector(self, x: np.ndarray) -> None:
        for i in range(N_POOLS):
            o = STATES_PER_POOL * i
            self.y[i], self.ydot[i], self.yddot[i], self.x2[i], self.x3[i] = x[o:o + 5]


def _delay_steps(pool: PoolParams, dt: float) -> int:
    return int(round(pool.tau / dt))


def wis_step(state: WisPlantState, u_applied: np.ndarray, d: np.ndarray,
             dt: float | None = None) -> WisPlantState:
    """Advance the plant one RK4 step with flows and disturbances held.

    Returns a new state; the input ring buffers are shifted by one step.
    """
    if dt is None:
        dt = state.dt
    elif abs(dt - state.dt) > 1e-12:
        raise ValueError("step size must match the state's delay-buffer grid")
    u_applied = np.asarray(u_applied, dtype=float)
    d = np.asarray(d, dtype=float)

    A, B = plant_matrices(state.pools, state.x2_realization)
    Phi, Gam = rk4_affine_maps(A, B, dt)
    v = np.concatenate([state.delayed_inputs(), u_applied, d])
    if not np.all(np.isfinite(v)):
        raise NonFiniteState(f"non-finite inputs at t={state.t}")
    x_new = Phi @ state.as_vector() + Gam @ v
    if not np.all(np.isfinite(x_new)):
        raise NonFiniteState(f"plant state diverged at t={state.t}")

    new = WisPlantState(
        pools=state.pools, dt=state.dt,
        y=state.y.copy(), ydot=state.ydot.copy(), yddot=state.yddot.copy(),
        x2=state.x2.copy(), x3=state.x3.copy(),
        delay_buffers=[np.concatenate([buf[1:], [u]]) for buf, u in zip(state.delay_buffers, u_applied)],
        t=state.t + dt, x2_realization=state.x2_realization,
    )
    new.set_vector(x_new)
    return new


def advance(state, u, d, n):
    for _ in range(n):
        state = wis_step(state, u, d)
    return state


def test_equilibrium_stays_zero():
    s = WisPlantState.initial(POOLS, dt=0.05)
    s = advance(s, np.zeros(5), np.zeros(5), 40)
    for arr in (s.y, s.ydot, s.yddot, s.x2, s.x3):
        assert np.all(arr == 0.0)
    assert s.t == pytest.approx(2.0)


def test_mass_balance_steady_state_keeps_levels():
    # u_i = u_{i+1} + d_i with zero derivatives: net forcing vanishes
    # (u_6 = 0, so the last pool's inflow must leave via its off-take)
    c = 12.5
    s = WisPlantState.initial(POOLS, dt=0.05, u0=c)
    s = advance(s, np.full(5, c), np.array([0, 0, 0, 0, c]), 60)
    assert np.allclose(s.y, 0.0, atol=1e-12)
    assert np.allclose(s.ydot, 0.0, atol=1e-12)


def test_steady_slope_matches_mass_balance():
    # constant inflow at gate 1 only: once the (lightly damped) wave mode
    # dies out, the level rate approaches delta/alpha_1
    delta = 30.0
    dt = 0.01
    stepper = PlantStepper(POOLS, dt)
    x = np.zeros(25)
    v = np.concatenate([[delta, 0, 0, 0, 0], [delta, 0, 0, 0, 0], np.zeros(5)])
    for _ in range(40):  # 2000 min in reusable 50-min segments
        x = stepper.advance(x, v, 5000)
    rate = x[1]  # ydot of pool 1
    assert rate == pytest.approx(delta / POOLS[0].alpha, rel=1e-4)


def test_rk4_order_four_convergence():
    # halving dt shrinks the endpoint error ~16x against a dt/8 reference
    x0 = np.zeros(25)
    for i in range(5):
        x0[5 * i] = 0.05
        x0[5 * i + 1] = 0.01
    u = np.array([20.0, 15.0, 10.0, 5.0, 25.0])
    v = np.concatenate([u, u, np.zeros(5)])
    horizon = 2.0

    def endpoint(dt):
        stepper = PlantStepper(POOLS, dt)
        x = stepper.advance(x0.copy(), v, int(round(horizon / dt)))
        return x

    ref = endpoint(0.0125)
    err_coarse = np.linalg.norm(endpoint(0.2) - ref)
    err_fine = np.linalg.norm(endpoint(0.1) - ref)
    ratio = err_coarse / err_fine
    assert 11.0 < ratio < 21.0


def test_delay_fidelity_impulse_timing():
    # a one-step pulse at the gate reaches the pool exactly tau later
    dt = 0.05
    pool = (PoolParams(tau=2.0, alpha=100.0, phi=0.5),) + POOLS[1:]
    s = WisPlantState.initial(pool, dt=dt)
    pulse = np.array([50.0, 0, 0, 0, 0])
    s = wis_step(s, pulse, np.zeros(5))
    steps_to_tau = int(round(pool[0].tau / dt))
    for _ in range(steps_to_tau - 1):
        s = wis_step(s, np.zeros(5), np.zeros(5))
        assert s.y[0] == 0.0 and s.ydot[0] == 0.0 and s.yddot[0] == 0.0
    s = wis_step(s, np.zeros(5), np.zeros(5))
    s = wis_step(s, np.zeros(5), np.zeros(5))
    assert abs(s.yddot[0]) > 0.0


def test_linearity_of_response():
    dt = 0.01
    stepper = PlantStepper(POOLS, dt)
    u1 = np.array([10.0, 0, 5.0, 0, 0])
    u2 = np.array([0.0, 8.0, 0, 0, 12.0])
    n = 2000

    def response(u):
        v = np.concatenate([u, u, np.zeros(5)])
        stepper.advance(np.zeros(25), v, n)
        return stepper.levels()

    combined = response(u1 + u2)
    superposed = response(u1) + response(u2)
    assert np.allclose(combined, superposed, rtol=1e-9, atol=1e-15)


def test_x3_exact_on_constant_deviation():
    c = 0.37
    dt = 0.05
    s = WisPlantState.initial(POOLS, dt=dt, y0=c)
    s = advance(s, np.zeros(5), np.zeros(5), 100)
    assert np.allclose(s.x3, c * 5.0, rtol=1e-12)


def test_stepper_matches_single_steps():
    dt = 0.05
    u0 = 6.0  # every delay buffer still holds u0 for these steps
    s = WisPlantState.initial(POOLS, dt=dt, y0=0.02, u0=u0)
    u = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    d = np.array([1.0, 0, 0.5, 0, 2.0])
    n = 35  # stay inside the shortest delay
    looped_y = np.empty((n, N_POOLS))
    for k in range(n):
        s = wis_step(s, u, d)
        looped_y[k] = s.y
    looped = s.as_vector()

    stepper = PlantStepper(POOLS, dt)
    x0 = WisPlantState.initial(POOLS, dt=dt, y0=0.02).as_vector()
    v = np.concatenate([np.full(5, u0), u, d])
    fast = stepper.advance(x0, v, n)
    levels = stepper.levels()
    assert np.allclose(looped, fast, rtol=1e-11, atol=1e-14)
    assert levels.shape == (n, N_POOLS)
    assert np.allclose(looped_y, levels, rtol=1e-11, atol=1e-14)


def test_level_table_prefix():
    # the level table only ever appends rows, so a segment's levels do not
    # depend on the lengths the stepper advanced before
    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 0.05, N_STATES)
    v = rng.uniform(0.0, 20.0, N_INPUTS)
    dt, N = 0.001, 1000

    def levels(stepper, n):
        stepper.advance(x, v, n)
        return stepper.levels()

    grown_first = PlantStepper(POOLS, dt)
    long = levels(grown_first, N)
    for n in (1, 2, 35, 64, 65, 999):
        fresh = PlantStepper(POOLS, dt)
        short = levels(fresh, n)
        assert np.array_equal(levels(grown_first, n), short)
        assert np.array_equal(levels(fresh, N), long)


def segment_levels(stepper, x, v, n):
    """Reference level path, one segment at a time: the (n, 5) levels of a
    segment as the product of the first n rows of each pool's prefix table
    with that pool's (y, ydot, yddot) and three inputs."""
    K = stepper._K[:, :n]
    q = np.concatenate((x[STATES_PER_POOL * np.arange(N_POOLS)[:, None] + np.arange(3)],
                        v[[[i, N_POOLS + i + 1 if i + 1 < N_POOLS else 2 * N_POOLS + i,
                            2 * N_POOLS + i] for i in range(N_POOLS)]]), axis=1)
    return np.matmul(K, q[:, :, None])[:, :, 0].T, np.matmul(abs(K), abs(q)[:, :, None])[:, :, 0].T


def test_levels_match_the_per_segment_product():
    # mixed lengths, repeats, length 1, lengths past the table size reached
    # so far, and a drain between advances; v is reused and changed in place
    # as the epoch loop does, so the queue must hold copies
    rng = np.random.default_rng(11)
    stepper = PlantStepper(POOLS, dt=0.001)
    x = rng.normal(0.0, 0.05, N_STATES)
    v = np.empty(N_INPUTS)
    for lengths in ((1, 7, 1, 300, 7, 64, 65), (2000,), (1, 3, 3000, 1, 5)):
        segments = []
        for n in lengths:
            v[:] = rng.uniform(0.0, 20.0, N_INPUTS)
            segments.append((x, v.copy(), n))
            x = stepper.advance(x, v, n)
        got = stepper.levels()
        refs = [segment_levels(stepper, *seg) for seg in segments]
        ref = np.concatenate([r for r, _ in refs])
        scale = np.concatenate([s for _, s in refs])
        assert got.shape == (sum(lengths), N_POOLS)
        assert np.all(np.abs(got - ref) <= 1e-15 * scale)


def test_empty_drain_returns_no_rows():
    stepper = PlantStepper(POOLS, dt=0.05)
    assert stepper.levels().shape == (0, N_POOLS)
    stepper.advance(np.zeros(N_STATES), np.ones(N_INPUTS), 4)
    assert stepper.levels().shape == (4, N_POOLS)
    assert stepper.levels().shape == (0, N_POOLS)


def test_delay_buffer_length_and_prefill():
    dt = 0.05
    s = WisPlantState.initial(POOLS, dt=dt, u0=7.0)
    for p, buf in zip(POOLS, s.delay_buffers):
        assert len(buf) == int(round(p.tau / dt)) + 1
        assert np.all(buf == 7.0)
    assert np.allclose(s.delayed_inputs(), 7.0)


def test_dt_must_divide_delays():
    with pytest.raises(ValueError):
        check_dt(POOLS, 0.7)


def test_non_finite_state_raises():
    s = WisPlantState.initial(POOLS, dt=0.05)
    with pytest.raises(NonFiniteState):
        wis_step(s, np.full(5, np.inf), np.zeros(5))


def test_stepper_raises_on_non_finite_state():
    stepper = PlantStepper(POOLS, dt=0.05)
    for where, value in (("x", np.nan), ("v", np.inf), ("x", 1e10)):
        x, v = np.zeros(N_STATES), np.zeros(N_INPUTS)
        {"x": x, "v": v}[where][0] = value
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteState):
            stepper.advance(x, v, 10)


def test_disturbance_schedule_reference_points():
    sched = DisturbanceSchedule([(180.0, 4, 16.0), (450.0, 4, 34.0), (600.0, 4, 0.0)])
    assert np.array_equal(sched.disturbance_at(100.0), np.zeros(5))
    assert np.array_equal(sched.disturbance_at(200.0), [0, 0, 0, 0, 16.0])
    assert np.array_equal(sched.disturbance_at(500.0), [0, 0, 0, 0, 34.0])
    assert np.array_equal(sched.disturbance_at(700.0), np.zeros(5))
    t = np.array([0.0, 179.999, 180.0, 449.0, 450.0, 599.0, 600.0, 700.0])
    assert np.array_equal(sched.disturbance_at(t)[:, 4],
                          [0.0, 0.0, 16.0, 16.0, 34.0, 34.0, 0.0, 0.0])
    assert np.array_equal(sched.disturbance_at(t)[:, :4], np.zeros((t.size, 4)))
    assert np.array_equal(DisturbanceSchedule([]).disturbance_at(t), np.zeros((t.size, 5)))


def test_disturbance_schedule_validation():
    with pytest.raises(ValueError):
        DisturbanceSchedule([(10.0, 0, 1.0), (10.0, 0, 2.0)])
    with pytest.raises(ValueError):
        DisturbanceSchedule([(10.0, 0, -1.0)])


def test_rk4_path_matches_independent_integrator():
    # cross-check the LTI realization against scipy's adaptive integrator
    from scipy.integrate import solve_ivp

    A, B = plant_matrices(POOLS, "pade")
    x0 = np.zeros(25)
    x0[0::5] = 0.04
    x0[1::5] = -0.002
    v = np.concatenate([[22.0, 3.0, 0.0, 7.0, 1.0],
                        [5.0, 0.0, 11.0, 2.0, 9.0],
                        [0.0, 0.0, 4.0, 0.0, 16.0]])
    horizon = 3.0

    sol = solve_ivp(lambda t, x: A @ x + B @ v, [0.0, horizon], x0,
                    rtol=1e-11, atol=1e-12, dense_output=True)
    stepper = PlantStepper(POOLS, dt=0.001)
    got = stepper.advance(x0.copy(), v, int(horizon / 0.001))
    assert np.allclose(got, sol.y[:, -1], rtol=1e-8, atol=1e-12)
