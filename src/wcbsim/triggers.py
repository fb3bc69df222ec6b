"""Decentralized periodic event-triggering conditions.

Ten sensor nodes guard the 15 design states: height nodes 1..5 each own the
pair (x1_j, x3_j) of their pool, flow nodes 6..10 own x2_j. Node j fires
when the quadratic test

    e_j' M_j e_j - x_j' N_j x_j > theta_j,      e_j = xhat_j - x_j

holds at a sampling instant; the per-node budgets theta_j sum to the
centralized budget epsilon^2. N_j acts only on states whose reference is
known (the level deviations), which keeps the test implementable under
unknown step disturbances; flow nodes have N_j = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

PSD_TOL = -1e-12  # absorbs rounding in 4-significant-digit reference matrices


@dataclass(frozen=True)
class TriggerParams:
    """Per-node triggering matrices and budgets.

    index_sets[j] lists the design-state indices measured by node j
    (0-based into the 15-vector (x1_1..x1_5, x2_1..x2_5, x3_1..x3_5)).
    The centralized budget epsilon^2 is the sum of the per-node budgets.
    """

    M: tuple[np.ndarray, ...]
    N: tuple[np.ndarray, ...]
    theta: tuple[float, ...]
    index_sets: tuple[tuple[int, ...], ...]

    @property
    def n_nodes(self) -> int:
        return len(self.M)

    @property
    def epsilon_sq(self) -> float:
        return float(sum(self.theta))

    @cached_property
    def block_form(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(M, N, owner, theta): the block-diagonal matrices over all states,
        the 0-based node that measures each state, and the budgets."""
        n_states = sum(len(idx) for idx in self.index_sets)
        owner = np.empty(n_states, dtype=np.intp)
        for j, idx in enumerate(self.index_sets):
            owner[list(idx)] = j
        M, N = assemble_centralized(self, n_states)
        return M, N, owner, np.asarray(self.theta, dtype=float)


def _sym(rows) -> np.ndarray:
    return np.asarray(rows, dtype=float)


# height nodes: matrices over [x1_j, x3_j]; flow nodes: scalars over x2_j
DEFAULT_M = (
    _sym([[0.621, 0.0030], [0.003, 0.0001]]),
    _sym([[0.414, 0.003], [0.003, 0.0002]]),
    _sym([[1.854, -0.083], [-0.083, 0.13]]),
    _sym([[2.48, 0.012], [0.012, 0.001]]),
    _sym([[7.639, 0.027], [0.027, 0.006]]),
    _sym([[0.1147]]),
    _sym([[0.0841]]),
    _sym([[0.2337]]),
    _sym([[0.5352]]),
    _sym([[1.4786]]),
)
DEFAULT_N = (
    _sym([[2.5e-8, 0.0], [0.0, 0.0]]),
    _sym([[0.0503, 0.0], [0.0, 0.0]]),
    _sym([[1.2e-8, 0.0], [0.0, 0.0]]),
    _sym([[1e-6, 0.0], [0.0, 0.0]]),
    _sym([[0.9497, 0.0], [0.0, 0.0]]),
    _sym([[0.0]]),
    _sym([[0.0]]),
    _sym([[0.0]]),
    _sym([[0.0]]),
    _sym([[0.0]]),
)
DEFAULT_THETA = (0.415, 0.24, 0.987, 1.18, 2.15, 9.0, 9.0, 9.0, 9.0, 9.0)

# node j<5 measures (x1_j, x3_j); node j>=5 measures x2_{j-5}
DEFAULT_INDEX_SETS = tuple(
    (j, 10 + j) if j < 5 else (5 + (j - 5),) for j in range(10)
)

DEFAULT_TRIGGERS = TriggerParams(M=DEFAULT_M, N=DEFAULT_N, theta=DEFAULT_THETA,
                               index_sets=DEFAULT_INDEX_SETS)


def node_trigger(params: TriggerParams, x: np.ndarray, xhat: np.ndarray) -> tuple[int, ...]:
    """1-based ids of the nodes whose test fires, given the current values x
    and the held values xhat of all design states.

    The index sets must partition the states 0..n-1, as Scenario.validate
    checks; shapes are checked once there, by validate_params.
    """
    M, N, owner, theta = params.block_form
    e = xhat - x
    n = params.n_nodes
    value = np.bincount(owner, e * (M @ e), n) - np.bincount(owner, x * (N @ x), n)
    return tuple(((value > theta).nonzero()[0] + 1).tolist())


def assemble_centralized(params: TriggerParams, n_states: int = 15):
    """Embed the per-node blocks into full-size M and N."""
    M = np.zeros((n_states, n_states))
    N = np.zeros((n_states, n_states))
    for j, idxs in enumerate(params.index_sets):
        for a, ia in enumerate(idxs):
            for b, ib in enumerate(idxs):
                M[ia, ib] = params.M[j][a, b]
                N[ia, ib] = params.N[j][a, b]
    return M, N


def validate_params(params: TriggerParams) -> list[str]:
    """Structural checks; returns human-readable violations, never raises."""
    violations = []
    for j in range(params.n_nodes):
        M, N = params.M[j], params.N[j]
        if M.shape != N.shape or M.shape[0] != M.shape[1]:
            violations.append(f"node {j + 1}: M/N shape mismatch")
            continue
        if M.shape[0] != len(params.index_sets[j]):
            violations.append(f"node {j + 1}: matrix size does not match index set")
        if not np.allclose(M, M.T):
            violations.append(f"node {j + 1}: M not symmetric")
        if not np.allclose(N, N.T):
            violations.append(f"node {j + 1}: N not symmetric")
        elif np.linalg.eigvalsh(N).min() < PSD_TOL:
            violations.append(f"node {j + 1}: N not PSD")
    seen = {}
    for j, idxs in enumerate(params.index_sets):
        for i in idxs:
            if i in seen:
                violations.append(
                    f"state {i} measured by nodes {seen[i] + 1} and {j + 1}")
            seen[i] = j
    return violations


def load_params(path) -> TriggerParams:
    """Read trigger parameters from a plain-text file.

    Format, one block per node:

        node 1 states 0 10
        M 0.621 0.0030 / 0.003 0.0001
        N 2.5e-8 0 / 0 0
        theta 0.415
    """
    Ms, Ns, thetas, idxs = [], [], [], []
    cur = {}

    def flush():
        if cur:
            for key in ("states", "M", "N", "theta"):
                if key not in cur:
                    raise ValueError(f"node block missing '{key}'")
            idxs.append(tuple(cur["states"]))
            Ms.append(cur["M"])
            Ns.append(cur["N"])
            thetas.append(cur["theta"])
            cur.clear()

    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, *rest = line.split()
            if head == "node":
                flush()
                cur["states"] = [int(t) for t in rest[rest.index("states") + 1:]]
            elif head in ("M", "N"):
                rows = " ".join(rest).split("/")
                cur[head] = _sym([[float(t) for t in row.split()] for row in rows])
            elif head == "theta":
                cur["theta"] = float(rest[0])
            else:
                raise ValueError(f"unrecognized line: {raw.strip()!r}")
    flush()
    return TriggerParams(M=tuple(Ms), N=tuple(Ns), theta=tuple(thetas),
                         index_sets=tuple(idxs))
