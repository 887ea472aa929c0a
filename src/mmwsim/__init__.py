"""System-level mmWave urban-micro downlink simulator.

Monte Carlo evaluation of coupling-loss and geometry-metric (long-term
SINR) distributions over a 19-site hexagonal deployment with wrap-around,
for outdoor or indoor stations at 2-100 GHz under scaled or constant
transmit-power allocation.
"""

from .antenna import AntennaPattern, sector_gain
from .checks import ConfigError
from .deployment import MobileDrop, drop_mobiles, in_footprint, wrap_displacements
from .engine import (DeploymentParams, RunResult, ScenarioConfig, SweepEntry,
                     link_budget, load_config, run_scenario, run_sweep, save_results)
from .linkbudget import (PowerAllocation, associate, cl_snr0_threshold, coupling_loss,
                         noise_power, power_allocation)
from .metrics import CdfSeries, empirical_cdf, geometry_metric
from .propagation import (PropagationParams, ShadowDraws, draw_shadows, fspl,
                          los_probability, material_loss, o2i_loss, oxygen_absorption,
                          pl_los_ci, pl_nlos_abg)

__version__ = "0.1.0"

__all__ = [
    "AntennaPattern", "CdfSeries", "ConfigError", "DeploymentParams",
    "MobileDrop", "PowerAllocation",
    "PropagationParams", "RunResult", "ScenarioConfig", "ShadowDraws",
    "SweepEntry", "associate", "cl_snr0_threshold", "coupling_loss",
    "draw_shadows", "drop_mobiles", "empirical_cdf", "fspl", "geometry_metric",
    "in_footprint", "link_budget", "load_config", "los_probability",
    "material_loss", "noise_power", "o2i_loss", "oxygen_absorption",
    "pl_los_ci", "pl_nlos_abg", "power_allocation", "run_scenario", "run_sweep",
    "save_results", "sector_gain", "wrap_displacements",
]
