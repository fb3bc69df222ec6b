"""Controller design for the pool string.

The design model has 15 states ordered (x1_1..x1_5, x2_1..x2_5, x3_1..x3_5):
level deviation, a first-order surrogate for the delayed inflow, and the
level integral. Two delay surrogates are supported:

  "pade"  x1' = (1/tau) x2 - (1/alpha)(u_i + u_{i+1} + d_i),
          x2' = -(2/tau) x2 + (4/alpha) u_i
          (Pade(1,1) of the transport delay; non-minimum-phase)

  "lag"   x1' = (1/tau) x2 - (1/alpha)(u_{i+1} + d_i),
          x2' = -(2/tau) x2 + (2/alpha) u_i
          (first-order lag; the variant shipped in the presets, see README)

Both give the same DC mass balance: a steady inflow u_i raises pool i at
u_i/alpha_i and drains it through gate i+1 at u_{i+1}/alpha_i. The gain is
synthesized from the stabilizing solution of the continuous algebraic
Riccati equation, computed by the Schur method (Laub 1979).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .pools import N_POOLS, PoolParams

N_DESIGN_STATES = 3 * N_POOLS


class NoStabilizingSolution(RuntimeError):
    """The continuous algebraic Riccati equation has no usable stabilizing solution."""


@dataclass(frozen=True)
class StateSpaceModel:
    A: np.ndarray
    B: np.ndarray
    E: np.ndarray
    delay_approx: str = "pade"


@dataclass(frozen=True)
class LqrWeights:
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        qd = np.diag(self.Q)
        rd = np.diag(self.R)
        if not (np.allclose(self.Q, np.diag(qd)) and np.allclose(self.R, np.diag(rd))):
            raise ValueError("Q and R must be diagonal")
        if (qd < 0).any() or (rd <= 0).any():
            raise ValueError("Q must be PSD and R PD")


@dataclass(frozen=True)
class ControllerGain:
    """Raw Riccati gain K = R^-1 B' P plus the sign making u = sign*K*x stabilizing."""

    K: np.ndarray
    sign: float
    rho: float

    @property
    def effective(self) -> np.ndarray:
        return self.sign * self.K


# LQR weights: level deviations, nothing on the flow surrogates, gentle integral action
DEFAULT_Q_DIAG = np.array([1250.0, 1250.0, 2500.0, 5000.0, 7500.0]
                          + [0.0] * 5
                          + [1.25, 1.25, 2.5, 5.0, 7.5])
DEFAULT_WEIGHTS = LqrWeights(Q=np.diag(DEFAULT_Q_DIAG), R=np.eye(N_POOLS))


def build_state_space(pools: tuple[PoolParams, ...], delay_approx: str = "pade") -> StateSpaceModel:
    if delay_approx not in ("pade", "lag"):
        raise ValueError(f"unknown delay approximation {delay_approx!r}")
    A = np.zeros((N_DESIGN_STATES, N_DESIGN_STATES))
    B = np.zeros((N_DESIGN_STATES, N_POOLS))
    E = np.zeros((N_DESIGN_STATES, N_POOLS))
    for i, p in enumerate(pools):
        A[i, N_POOLS + i] = 1.0 / p.tau
        A[N_POOLS + i, N_POOLS + i] = -2.0 / p.tau
        A[2 * N_POOLS + i, i] = 1.0
        if delay_approx == "pade":
            B[i, i] += -1.0 / p.alpha
            B[N_POOLS + i, i] = 4.0 / p.alpha
        else:
            B[N_POOLS + i, i] = 2.0 / p.alpha
        if i + 1 < N_POOLS:
            B[i, i + 1] += -1.0 / p.alpha
        E[i, i] = -1.0 / p.alpha
    return StateSpaceModel(A=A, B=B, E=E, delay_approx=delay_approx)


def spectral_abscissa(M: np.ndarray) -> float:
    return float(np.max(np.linalg.eigvals(M).real))


def solve_care(A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Stabilizing solution of A'P + PA - P B R^-1 B' P + Q = 0.

    Schur method (Laub 1979) via scipy.linalg.solve_continuous_are,
    followed by checks that the closed loop is Hurwitz and the residual is
    small. Raises NoStabilizingSolution when no stabilizing P exists
    (including the degenerate Q=0 case with a non-Hurwitz plant).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    try:
        P = scipy.linalg.solve_continuous_are(A, B, Q, R)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NoStabilizingSolution(f"Schur solver failed: {exc}") from exc

    Rinv = np.linalg.inv(R)
    if spectral_abscissa(A - B @ (Rinv @ B.T @ P)) >= 0:
        raise NoStabilizingSolution("Riccati solution is not stabilizing")
    resid = A.T @ P + P @ A - P @ B @ Rinv @ B.T @ P + Q
    if np.linalg.norm(resid, "fro") > 1e-8 * max(np.linalg.norm(Q, "fro"), 1e-300):
        raise NoStabilizingSolution(
            f"CARE residual too large: {np.linalg.norm(resid, 'fro'):.3e}")
    return P


def lqr_gain(model: StateSpaceModel, weights: LqrWeights) -> ControllerGain:
    P = solve_care(model.A, model.B, weights.Q, weights.R)
    K = np.linalg.solve(weights.R, model.B.T @ P)
    # resolve the application sign by checking which loop is Hurwitz
    for sign in (-1.0, 1.0):
        abscissa = spectral_abscissa(model.A + sign * model.B @ K)
        if abscissa < 0:
            return ControllerGain(K=K, sign=sign, rho=-abscissa)
    raise NoStabilizingSolution("neither sign of the gain stabilizes the loop")


def control_law(gain: ControllerGain, xhat: np.ndarray) -> np.ndarray:
    xhat = np.asarray(xhat, dtype=float)
    if xhat.shape != (gain.K.shape[1],):
        raise ValueError(f"state estimate must have shape ({gain.K.shape[1]},)")
    if not np.all(np.isfinite(xhat)):
        raise ValueError("state estimate contains non-finite entries")
    return gain.effective @ xhat
