"""Packet-level simulator of lower-than-best-effort transport protocols
(TCP-LP, TCP-NICE, LEDBAT) competing with TCP Reno on a dumbbell
bottleneck, with a metrics harness and a scenario catalog."""

from .controllers import (LedbatController, LpController, NiceController,
                          RenoController)
from .engine import Simulator
from .harness import (FlowConfig, ScenarioConfig, SweepSpec,
                      expand_experiment, load_scenario, make_controller,
                      run_scenario, run_sweep)
from .metrics import (MetricsReport, efficiency, jain_index, loss_rate,
                      queue_occupancy, short_term_fairness, tcp_breakdown)

__all__ = [
    "FlowConfig", "LedbatController", "LpController", "MetricsReport",
    "NiceController", "RenoController", "ScenarioConfig", "Simulator",
    "SweepSpec", "efficiency", "expand_experiment", "jain_index",
    "load_scenario", "loss_rate", "make_controller", "queue_occupancy",
    "run_scenario", "run_sweep", "short_term_fairness", "tcp_breakdown",
]

__version__ = "0.1.0"
