"""Continuous-time simulation of the pool string.

Each pool follows the third-order wave model

    (alpha/w^2) (y''' + 2 zeta w y'' + w^2 y') = u_i(t - tau_i) - u_{i+1}(t) - d_i(t)

with w the natural wave frequency, u_i the controlled flow over gate i
(u_6 = 0) and d_i the off-take disturbance. Levels y are deviations from
setpoint. Two auxiliary states are co-integrated for the benefit of the
sensor stubs: x2 (a low-pass filter on the gate flow) and x3 (the running
integral of the level deviation).

Integration is classical fixed-step RK4. Because the dynamics are LTI and
all inputs are zero-order held on the step grid, one RK4 step is an affine
map; `PlantStepper` exploits this to advance whole constant-input segments
with cached matrix powers while producing the same trajectory as repeated
single steps (up to float round-off). Transport delays are not plant
states: the caller supplies each gate's flow from tau_i earlier as an
input, so dt must divide every delay (`check_dt`). The tests keep a
step-by-step reference integrator with per-gate delay ring buffers.

The stepper has two paths. The state path advances the end state of each
segment at once, because the next epoch's samples, triggers and controller
read it. The level path gives the per-step levels, which feed only the
error integrals and the recorded trajectory and never the loop, so they
can wait: each segment queues its few level inputs and `levels()` later
evaluates many segments together from one pool-local prefix table. A
pool's level reads only its own y, ydot, yddot and three inputs, and row
j-1 of the table gives it after j steps, so segments of every length share
the table and all queued segments of one length cost one matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .pools import N_POOLS, PoolParams

STATES_PER_POOL = 5          # y, ydot, yddot, x2, x3
N_STATES = N_POOLS * STATES_PER_POOL
N_INPUTS = 3 * N_POOLS       # delayed gate flows, applied gate flows, disturbances

X2_GAIN_NUMERATOR = {"pade": 4.0, "lag": 2.0}

# pool i's level reads its own y, ydot, yddot and three inputs: its delayed
# inflow, the downstream gate's applied flow and its off-take (pool 5 has no
# downstream gate, so that slot reads its off-take again with a zero weight)
_LEVEL_STATES = STATES_PER_POOL * np.arange(N_POOLS)[:, None] + np.arange(3)
_LEVEL_INPUTS = np.array([[i, N_POOLS + i + 1 if i + 1 < N_POOLS else 2 * N_POOLS + i,
                           2 * N_POOLS + i] for i in range(N_POOLS)])
# the same six per pool as columns of the concatenated (x, v)
_LEVEL_COLUMNS = np.concatenate((_LEVEL_STATES, N_STATES + _LEVEL_INPUTS), axis=1)


class NonFiniteState(RuntimeError):
    """The plant state left the finite range (diverged or NaN)."""


@dataclass
class DisturbanceSchedule:
    """Piecewise-constant off-take steps: (time [min], pool index 0-based, flow)."""

    steps: list[tuple[float, int, float]] = field(default_factory=list)

    def __post_init__(self):
        times = [t for t, _, _ in self.steps]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("disturbance step times must be strictly increasing")
        if any(flow < 0 for _, _, flow in self.steps):
            raise ValueError("off-take flows must be non-negative")
        # row k holds every pool's off-take once the first k steps have happened
        self._times = np.array(times, dtype=float)
        self._table = np.zeros((len(self.steps) + 1, N_POOLS))
        for k, (_, pool, flow) in enumerate(self.steps):
            self._table[k + 1:, pool] = flow

    def disturbance_at(self, t) -> np.ndarray:
        """Off-take of every pool at time t [min]: shape (5,) for a scalar t,
        (len(t), 5) for an array of times."""
        return self._table[np.searchsorted(self._times, t, side="right")]


def plant_matrices(pools: tuple[PoolParams, ...], x2_realization: str = "pade"):
    """Continuous-time (A, B) of the stacked pool dynamics.

    State order is pool-major (y, ydot, yddot, x2, x3); input order is
    [u_delayed(1..5), u_applied(1..5), d(1..5)].
    """
    A = np.zeros((N_STATES, N_STATES))
    B = np.zeros((N_STATES, N_INPUTS))
    x2_num = X2_GAIN_NUMERATOR[x2_realization]
    for i, p in enumerate(pools):
        o = STATES_PER_POOL * i
        w = p.omega_n
        A[o, o + 1] = 1.0
        A[o + 1, o + 2] = 1.0
        A[o + 2, o + 1] = -(w**2)
        A[o + 2, o + 2] = -2.0 * p.zeta * w
        g = w**2 / p.alpha
        B[o + 2, i] = g                          # delayed inflow raises the level
        if i + 1 < N_POOLS:
            B[o + 2, N_POOLS + i + 1] = -g       # downstream gate drains instantly
        B[o + 2, 2 * N_POOLS + i] = -g           # off-take withdrawal
        A[o + 3, o + 3] = -2.0 / p.tau
        B[o + 3, N_POOLS + i] = x2_num / p.alpha
        A[o + 4, o] = 1.0                        # x3 integrates the level deviation
    return A, B


def check_dt(pools, dt: float) -> None:
    if dt <= 0:
        raise ValueError("dt must be positive")
    for p in pools:
        ratio = p.tau / dt
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-6 * ratio:
            raise ValueError(f"dt={dt} does not divide transport delay tau={p.tau}")


def rk4_affine_maps(A: np.ndarray, B: np.ndarray, dt: float):
    """One RK4 step on an LTI system with held inputs: x+ = Phi x + Gam v.

    Phi and Gam are the degree-4 Taylor truncations of the exact maps;
    this is algebraically identical to classical RK4 on xdot = Ax + Bv.
    """
    n = A.shape[0]
    hA = dt * A
    hA2 = hA @ hA
    hA3 = hA2 @ hA
    Phi = np.eye(n) + hA + hA2 / 2.0 + hA3 / 6.0 + hA3 @ hA / 24.0
    Gam = (dt * (np.eye(n) + hA / 2.0 + hA2 / 6.0 + hA3 / 24.0)) @ B
    return Phi, Gam


class PlantStepper:
    """Segment integrator equivalent to repeated single RK4 steps.

    State path: for a segment of n steps with constant inputs v the state
    advances as x <- Phi^n x + S_n Gam v with S_n = I + Phi + ... +
    Phi^(n-1), from maps cached per segment length; `advance` returns it.

    Level path: `advance` also queues the segment's level inputs, and
    `levels()` returns the per-step levels of every queued step and clears
    the queue. Pool i's level after j steps is row j-1 of the prefix table
    K[i] applied to its own (y, ydot, yddot) and three inputs, so the queued
    segments of one length n form one (5, S, 6) @ (5, 6, n) product against
    the table. The queue holds 40 floats per segment until it is drained;
    the caller bounds it by draining after a fixed number of steps.
    """

    def __init__(self, pools: tuple[PoolParams, ...], dt: float,
                 x2_realization: str = "pade"):
        check_dt(pools, dt)
        self.pools = pools
        self.dt = dt
        A, B = plant_matrices(pools, x2_realization)
        self.Phi, self.Gam = rk4_affine_maps(A, B, dt)
        self._seg_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # y does not read x2 or x3 and Phi is block-diagonal by pool, so each
        # pool's level follows its own 3x3 block of Phi and three inputs
        rows = _LEVEL_STATES[:, :, None]
        self._Phi_m = self.Phi[rows, _LEVEL_STATES[:, None, :]]
        self._Gam_y = self.Gam[rows, _LEVEL_INPUTS[:, None, :]]
        self._Gam_y[-1, :, 1] = 0.0              # pool 5 has no downstream gate
        # level table: row j-1 of K[i] is [e1 Phi^j, S_j Gam] for pool i, with
        # S_j = e1 (I + Phi + ... + Phi^(j-1)); it starts at m = 1 row, and
        # _Phi_m holds Phi^m
        self._K = np.concatenate((self._Phi_m[:, :1], self._Gam_y[:, :1]), axis=2)
        self._S = np.zeros((N_POOLS, 1, 3))
        self._S[:, 0, 0] = 1.0
        self._queue: list[np.ndarray] = []       # concatenated (x, v) per segment
        self._queue_n: list[int] = []

    def _segment_maps(self, n: int):
        if n not in self._seg_cache:
            Phi_n = np.linalg.matrix_power(self.Phi, n)
            S = np.zeros_like(self.Phi)
            P = np.eye(N_STATES)
            for _ in range(n):
                S += P
                P = self.Phi @ P
            self._seg_cache[n] = (Phi_n, S @ self.Gam)
        return self._seg_cache[n]

    def _grow_level_table(self, n: int) -> None:
        # append rows m+1..2m until n fit: e1 Phi^(m+k) = (e1 Phi^k) Phi^m and
        # S_(m+k) = S_m + S_k Phi^m. Doubling computes every row the same way
        # whatever length was asked for first.
        while self._K.shape[1] < n:
            R = self._K[:, :, :3] @ self._Phi_m
            S = self._S[:, -1:] + self._S @ self._Phi_m
            self._K = np.concatenate(
                (self._K, np.concatenate((R, S @ self._Gam_y), axis=2)), axis=1)
            self._S = np.concatenate((self._S, S), axis=1)
            self._Phi_m = self._Phi_m @ self._Phi_m

    def advance(self, x: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
        """Advance n steps under constant inputs and return the end state;
        the n per-step levels wait in the queue for `levels()`."""
        Phi_n, G = self._segment_maps(n)
        x_end = Phi_n @ x + G @ v
        if not abs(x_end).max() < 1e9:           # also False for NaN and inf
            raise NonFiniteState("plant state diverged during segment advance")
        self._queue.append(np.concatenate((x, v)))
        self._queue_n.append(n)
        return x_end

    def levels(self) -> np.ndarray:
        """Per-step levels (steps, 5) of every step advanced since the last
        call, in time order; empties the queue."""
        ns = self._queue_n
        if not ns:
            return np.empty((0, N_POOLS))
        if self._K.shape[1] < max(ns):
            self._grow_level_table(max(ns))
        q = np.array(self._queue)[:, _LEVEL_COLUMNS].transpose(1, 0, 2)   # (5, S, 6)
        by_length: dict[int, list[int]] = {}
        for i, n in enumerate(ns):
            by_length.setdefault(n, []).append(i)
        pieces = [None] * len(ns)
        for n, group in by_length.items():
            # K[i, :n].T as a view: a segment's operand is laid out the same
            # whatever the table size, so its levels do not depend on it
            block = q[:, group] @ self._K[:, :n].transpose(0, 2, 1)     # (5, S_n, n)
            for j, i in enumerate(group):
                pieces[i] = block[:, j]
        self._queue, self._queue_n = [], []
        return np.concatenate(pieces, axis=1).T
