"""Exact throughput analysis for spectrum sharing between a channel-inverting
primary user and an energy-harvesting secondary user, validated against a
seeded slot-level Monte Carlo simulator."""

from .config import (DerivedConstants, ParameterError, SystemParams, dbm_to_watts,
                     default_params, derive, load_params, validate)
from .harvest import HarvestPmf, arrival_pmfs, combined_pmf, nature_pmf, rf_pmf
from .energy_chain import (EnergyChain, ReducibleChainWarning, ThroughputReport,
                           build_chain, mu_e, optimize_g, optimize_many, stationary,
                           success_probability, su_throughput)
from .simulator import SimConfig, SimResult, run_many
from .simulator import run as simulate

__version__ = "0.1.0"

__all__ = [
    "DerivedConstants", "ParameterError", "SystemParams", "dbm_to_watts",
    "default_params", "derive", "load_params", "validate",
    "HarvestPmf", "arrival_pmfs", "combined_pmf", "nature_pmf", "rf_pmf",
    "EnergyChain", "ReducibleChainWarning", "ThroughputReport", "build_chain",
    "mu_e", "optimize_g", "optimize_many", "stationary",
    "success_probability", "su_throughput",
    "SimConfig", "SimResult", "run_many", "simulate",
    "__version__",
]
