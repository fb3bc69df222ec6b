"""Co-simulation of event-triggered control over a slotted
concurrent-transmission wireless bus, coupled to a five-pool
water-irrigation plant."""

from .harness import (RunReport, Scenario, ScenarioError, run_experiment,
                      scenario_preset)
from .pools import DEFAULT_POOLS, PoolParams
from .protocol import WCB_E, WCB_P

__all__ = [
    "DEFAULT_POOLS", "PoolParams", "RunReport", "Scenario", "ScenarioError",
    "WCB_E", "WCB_P", "run_experiment", "scenario_preset",
]

__version__ = "0.1.0"
