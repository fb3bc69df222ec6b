"""Physical parameters of the five-pool irrigation channel.

Pool data (transport delay, surface area, dominant wave frequency) for a
string of five pools of an open water channel in New South Wales; the wave
damping ratio is 0.0151 for every pool. Levels are handled as deviations
from the (constant) setpoints throughout, flows in m^3/min, time in minutes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PoolParams:
    """One pool: delay tau [min], area alpha [m^2], wave frequency phi
    [rad/min], damping ratio zeta."""

    tau: float
    alpha: float
    phi: float
    zeta: float = 0.0151

    def __post_init__(self):
        if not (self.tau > 0 and self.alpha > 0 and self.phi > 0):
            raise ValueError(f"pool parameters must be positive: {self}")
        if not (0 <= self.zeta < 1):
            raise ValueError(f"damping ratio must lie in [0,1): {self.zeta}")

    @property
    def omega_n(self) -> float:
        """Natural frequency of the dominant wave mode, phi / sqrt(1 - zeta^2)."""
        return self.phi / math.sqrt(1.0 - self.zeta**2)


# delay [min], area [m^2], wave frequency [rad/min] for pools 1..5
DEFAULT_POOLS: tuple[PoolParams, ...] = (
    PoolParams(tau=4.0, alpha=6492.0, phi=0.48),
    PoolParams(tau=2.0, alpha=2478.0, phi=1.05),
    PoolParams(tau=4.0, alpha=6084.0, phi=0.48),
    PoolParams(tau=4.0, alpha=5658.0, phi=0.48),
    PoolParams(tau=6.0, alpha=7650.0, phi=0.42),
)

N_POOLS = len(DEFAULT_POOLS)
