"""Exact throughput analysis for spectrum sharing between a channel-inverting
primary user and an energy-harvesting secondary user, validated against a
seeded slot-level Monte Carlo simulator, which is imported on first use."""

from .config import (DerivedConstants, ParameterError, SimConfig, SystemParams, dbm_to_watts,
                     default_params, derive, load_params, validate)
from .harvest import HarvestPmf, arrival_pmfs, combined_pmf, nature_pmf, rf_pmf
from .energy_chain import (EnergyChain, ReducibleChainWarning, ThroughputReport,
                           build_chain, mu_e, optimize_g, optimize_many, stationary,
                           success_probability, su_throughput)

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


def __getattr__(name):
    """The simulator module, SimResult, run_many and simulate, imported on first use."""
    if name not in ("simulator", "SimResult", "run_many", "simulate"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    sim = importlib.import_module(".simulator", __name__)  # `from . import` would recurse
    return sim if name == "simulator" else getattr(sim, {"simulate": "run"}.get(name, name))
