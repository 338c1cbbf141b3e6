"""Discrete-event simulator for staged, hardware-gated power management
on photovoltaic energy-harvesting sensor nodes."""

from .analysis import ComparisonError, SweepError, compare_dpm, sweep_lux
from .engine import SimulationError, format_trace, run
from .oracle import OracleError, compare_with_engine, run_oracle
from .quantities import Illuminance
from .report import emit_report
from .scenario import ScenarioError, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "ComparisonError",
    "Illuminance",
    "OracleError",
    "ScenarioError",
    "SimulationError",
    "SweepError",
    "compare_dpm",
    "compare_with_engine",
    "emit_report",
    "format_trace",
    "parse_scenario",
    "run",
    "run_oracle",
    "sweep_lux",
    "__version__",
]
