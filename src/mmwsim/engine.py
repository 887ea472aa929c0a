"""Scenario configuration, seeded Monte Carlo orchestration and result persistence.

A scenario is one (carrier, power scheme, environment) experiment.  Each of
its drops derives independent named random substreams from the master seed,
so results are bit-identical regardless of worker count or drop execution
order.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import dataclasses
import functools
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from . import antenna as antenna_mod
from . import deployment as deployment_mod
from . import linkbudget, metrics, propagation
from .antenna import AntennaPattern
from .errors import ConfigError
from .metrics import INTERFERENCE_LIMITED, NOISE_LIMITED, CdfSeries
from .propagation import PropagationParams

STANDARD_FREQS_GHZ = (2.0, 10.0, 30.0, 60.0, 100.0)
SUMMARY_PERCENTILES = (5, 20, 35, 48, 50, 75, 90, 95)


@dataclass(frozen=True)
class DeploymentParams:
    """Layout and drop geometry knobs."""

    isd_m: float = 200.0
    bs_height_m: float = 10.0
    ms_height_m: float = 1.5
    min_distance_m: float = 10.0
    indoor_depth_max_m: float = 25.0
    floor_count_min: int = 4
    floor_count_max: int = 8


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one reproducible experiment."""

    f_c_ghz: float = 2.0
    power_scheme: str = "scaled"
    environment: str = "outdoor"
    n_drops: int = 20
    ms_per_sector: int = 10
    seed: int = 1
    oxygen_absorption: bool = True
    noise_figure_db: float = 9.0
    g_sm_db: float = 0.0
    ms_gain_dbi: float = 0.0
    bandwidth_hz: float | None = None  # required for non-standard carriers
    tx_power_dbm: float | None = None
    o2i_sigma_as_stddev: bool = False  # read the O2I spreads 3/5 as sigmas, not variances
    deployment: DeploymentParams = field(default_factory=DeploymentParams)
    propagation: PropagationParams = field(default_factory=PropagationParams)
    antenna: AntennaPattern = field(default_factory=AntennaPattern)

    def validate(self):
        dep = self.deployment
        for obj, prefix in ((self, ""), (dep, "deployment."),
                            (self.propagation, "propagation."), (self.antenna, "antenna.")):
            for f in dataclasses.fields(obj):
                rule, value = _FIELD_TYPES.get(f.type), getattr(obj, f.name)
                if rule is not None and not rule[0](value):
                    raise ConfigError(f"{prefix}{f.name} must be {rule[1]}, got {value!r}")
        for name, (low, high, open_low) in _RANGES.items():
            value = self
            for attr in name.split("."):
                value = getattr(value, attr)
            numbers = (value.values() if isinstance(value, dict)
                       else value if isinstance(value, tuple) else (value,))
            if not all(v is None or (low < v if open_low else low <= v) and v <= high
                       for v in numbers):
                raise ConfigError(f"{name} must lie in {'(' if open_low else '['}"
                                  f"{low:g}, {high:g}{']' if high < math.inf else ')'}, "
                                  f"got {value!r}")
        # a carrier off the table needs bandwidth_hz and, scaled, tx_power_dbm
        linkbudget.power_allocation(self.power_scheme, self.f_c_ghz, self.bandwidth_hz,
                                    self.tx_power_dbm)
        if self.environment not in ("outdoor", "indoor"):
            raise ConfigError(
                f"environment must be 'outdoor' or 'indoor', got {self.environment!r}")
        circumradius = dep.isd_m / np.sqrt(3.0)
        if dep.min_distance_m >= circumradius:
            raise ConfigError(
                f"deployment.min_distance_m must be below the cell circumradius "
                f"isd_m/sqrt(3) = {circumradius:g} m, got {dep.min_distance_m}")
        budget = deployment_mod._MAX_SAMPLE_ROUNDS
        if deployment_mod._expected_sample_rounds(
                dep.isd_m, dep.min_distance_m, self.ms_per_sector) > budget:
            raise ConfigError(
                f"deployment.min_distance_m={dep.min_distance_m:g} at isd_m={dep.isd_m:g} "
                f"leaves so little of the footprint that {self.ms_per_sector} stations "
                f"per sector need more than {budget} sampling rounds per drop")
        if not 1 <= dep.floor_count_min <= dep.floor_count_max:
            raise ConfigError("deployment.floor_count_min/max must satisfy "
                              "1 <= min <= max")
        # The shortest link pairs min_distance_m with the station height
        # closest to the BS: ms_height_m outdoors, 3k + ms_height_m indoors
        # for floors k + 1 = 1..floor_count_max.
        heights = np.array([dep.ms_height_m])
        if self.environment == "indoor":
            k = np.floor((dep.bs_height_m - dep.ms_height_m) / 3.0) + np.arange(2.0)
            heights = 3.0 * np.clip(k, 0, dep.floor_count_max - 1) + dep.ms_height_m
        d3d_min = np.hypot(dep.min_distance_m, np.abs(dep.bs_height_m - heights).min())
        if d3d_min < 1.0:
            raise ConfigError(
                f"deployment.min_distance_m={dep.min_distance_m:g} with bs_height_m="
                f"{dep.bs_height_m:g} admits links with d_3d = {d3d_min:g} m, below the "
                f"1 m close-in reference distance")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a mapping, got {type(data).__name__}")
        d = dict(data)
        _reject_unknown(cls, d, "")
        for name, sub in (("deployment", DeploymentParams),
                          ("propagation", PropagationParams), ("antenna", AntennaPattern)):
            if name in d:
                d[name] = _sub_from_dict(sub, d[name], name)
        return cls(**d)


# Bound on the dB settings that reach 10 ** (x / 10): far inside the float
# range (overflow near 3,080 dB), far outside any physical setting.
_DB_LIMIT = 1000.0

# (low, high, low bound open) of every number in each bounded setting and
# model constant, checked by validate so that an absurd magnitude is refused
# before the run: carrier and bandwidth positive, layout lengths positive and
# at most 1,000 km (far beyond any cell layout, far inside the range where the
# sampler's squared lengths overflow, near 1.3e154 m), counts from 1, the seed
# and clearances from 0, dB values within +-_DB_LIMIT (spreads and attenuation
# ceilings from 0), path-loss exponents and the ABG frequency slope up to 10
# (ci_ple_coeff is 10 times its exponent), beamwidths within the circle and the
# downtilt a zenith angle.  None leaves bandwidth_hz and tx_power_dbm to the
# carrier table.
_RANGES = {
    "f_c_ghz": (0.0, math.inf, True),
    "bandwidth_hz": (0.0, math.inf, True),
    **dict.fromkeys(("deployment.isd_m", "deployment.bs_height_m",
                     "deployment.ms_height_m"), (0.0, 1.0e6, True)),
    "n_drops": (1, math.inf, False),
    "ms_per_sector": (1, math.inf, False),
    "seed": (0, math.inf, False),
    **dict.fromkeys(("deployment.min_distance_m", "deployment.indoor_depth_max_m"),
                    (0.0, math.inf, False)),
    **dict.fromkeys(("noise_figure_db", "g_sm_db", "ms_gain_dbi", "tx_power_dbm",
                     "antenna.g_max_dbi", "propagation.abg_beta_db",
                     "propagation.glass_loss_db", "propagation.irr_glass_loss_db",
                     "propagation.concrete_loss_db",
                     "propagation.indoor_loss_rate_db_per_m",
                     "propagation.oxygen_delta_db_per_km"), (-_DB_LIMIT, _DB_LIMIT, False)),
    **dict.fromkeys(("propagation.sigma_los_db", "propagation.sigma_nlos_db",
                     "propagation.sigma_o2i_low_db", "propagation.sigma_o2i_high_db",
                     "antenna.sla_v_db", "antenna.front_back_db"), (0.0, _DB_LIMIT, False)),
    "propagation.ci_ple_coeff": (0.0, 100.0, False),
    "propagation.abg_alpha": (0.0, 10.0, True),
    "propagation.abg_gamma": (0.0, 10.0, True),
    "antenna.hpbw_v_deg": (0.0, 360.0, True),
    "antenna.hpbw_h_deg": (0.0, 360.0, True),
    "antenna.downtilt_deg": (0.0, 180.0, False),
}


def _is_real(value) -> bool:
    """A finite float, or an int (not bool) in float range."""
    return (isinstance(value, float) and math.isfinite(value)) or (
        isinstance(value, int) and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max)


# field checks by annotation string; a bool passes only as bool, and every
# number, also inside the loss pairs and the oxygen table, is finite
_FIELD_TYPES = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (_is_real, "a finite number"),
    "float | None": (lambda v: v is None or _is_real(v), "a finite number or null"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "tuple[float, float]": (lambda v: isinstance(v, tuple) and len(v) == 2
                            and all(map(_is_real, v)), "a pair of finite numbers"),
    "dict[float, float]": (lambda v: isinstance(v, dict)
                           and all(map(_is_real, [*v, *v.values()])),
                           "a mapping of finite numbers"),
}


def _propagation_values(data: dict) -> dict:
    """A propagation block with its YAML lists and mappings as float pairs and dicts."""
    data = dict(data)
    for name, value in list(data.items()):
        try:
            if name == "oxygen_delta_db_per_km":
                data[name] = {float(k): float(v) for k, v in value.items()}
            elif name in ("glass_loss_db", "irr_glass_loss_db", "concrete_loss_db"):
                intercept, slope = map(float, value)
                data[name] = (intercept, slope)
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid propagation.{name}: {value!r} ({exc})") from exc
    return data


def _reject_unknown(cls, data: dict, prefix: str):
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        where = f"{prefix}." if prefix else ""
        raise ConfigError(f"unknown config field(s): {[where + u for u in unknown]}")


def _sub_from_dict(cls, data, prefix: str):
    if data is None:  # a YAML block whose children are all commented out
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{prefix} must be a mapping, got {type(data).__name__}")
    if cls is PropagationParams:
        data = _propagation_values(data)
    _reject_unknown(cls, data, prefix)
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {prefix} config: {exc}") from exc


def load_config(path) -> ScenarioConfig:
    """Read a YAML (or JSON) scenario file and validate it."""
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path} is not valid YAML: {exc}") from exc
    cfg = ScenarioConfig.from_dict(data)
    cfg.validate()
    return cfg


@dataclass
class RunResult:
    """Everything produced by one scenario run.

    ``runtime_s`` is the wall time from the start of the run's setup to the
    end of its finish.  A sweep sets up every run at its start, so there an
    entry's ``runtime_s`` runs from the sweep's start to that run's finish,
    at any worker count.  ``links``, when collected, holds the ``links.csv``
    columns in file order, one entry per (station, sector) link: the arrays
    the drops wrote into, not copies.
    """

    config: ScenarioConfig
    cl_cdf: CdfSeries
    gm_cdf: CdfSeries
    drop_seeds: list[int]
    regime_fractions: dict[str, float]
    power: linkbudget.PowerAllocation
    noise_total_dbm: float
    cl_snr0_threshold_db: float
    runtime_s: float
    links: dict[str, np.ndarray] | None = None


@dataclass
class SweepEntry:
    f_c_ghz: float
    scheme: str
    result: RunResult | None
    error: str | None

    @property
    def key(self):
        return (self.f_c_ghz, self.scheme)


def _stream(seed: int, drop_index: int, purpose: int) -> np.random.Generator:
    # named substream per (drop, purpose): 0 positions, 1 LoS states, 2 shadows
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(drop_index, purpose)))


def drop_seed_id(seed: int, drop_index: int) -> int:
    """Stable identifier of a drop's substream family, for result metadata."""
    return int(np.random.SeedSequence(seed, spawn_key=(drop_index,))
               .generate_state(1, np.uint64)[0])


def sweep_seed(seed: int, f_c_ghz: float) -> int:
    """Per-run seed for sweeps: a pure function of (master seed, carrier).

    The power scheme does not enter, so scheme pairs at one carrier share
    identical geometry and draws.
    """
    key = int(round(f_c_ghz * 1e6))
    return int(np.random.SeedSequence(seed, spawn_key=(key,))
               .generate_state(1, np.uint64)[0])


def _resolved_propagation(config: ScenarioConfig) -> PropagationParams:
    params = config.propagation
    if config.o2i_sigma_as_stddev:
        params = replace(params, sigma_o2i_low_db=3.0, sigma_o2i_high_db=5.0)
    if not config.oxygen_absorption:
        params = replace(params, oxygen_delta_db_per_km={})
    return params


def link_budget(config: ScenarioConfig, params: PropagationParams, dep, drop,
                los_u, draws) -> dict:
    """Every link-budget term of one drop: a pure function of the stations,
    the ``(n, n_sites)`` LoS uniforms ``los_u`` and the shadow ``draws``.

    A link is LoS where ``los_u`` is below ``los_probability`` of d_2D-out;
    indoor links add O2I loss over the in-building depth clipped to d_2D;
    CL = G_tx + G_rx - (PL + L_O2I + L_OA - G_sm).  Returns arrays keyed by
    ``links.csv`` column: ``d_2d``, ``d_3d``, ``is_los``, ``pl``, ``l_o2i``,
    ``l_oa`` per site ``(n, n_sites)``, ``g_tx`` ``(n, n_sites, 3)`` and
    ``coupling_loss`` ``(n, n_sectors)``, whose column ``3i + k`` is sector
    ``k`` of site ``i``.
    """
    f_hz = config.f_c_ghz * 1e9
    disp, d2d = deployment_mod.wrap_displacements(dep, drop.xy)  # (n, s, 2), (n, s)
    is_los = los_u < propagation.los_probability(
        np.maximum(d2d - drop.indoor_depth_m[:, None], 0.0))

    dz = drop.height_m[:, None] - dep.bs_height_m
    d3d = np.hypot(d2d, dz)
    pl = np.where(is_los,
                  propagation.pl_los_ci(f_hz, d3d, draws.x_los_db, params),
                  propagation.pl_nlos_abg(config.f_c_ghz, d3d, draws.x_nlos_db, params))
    if config.environment == "indoor":
        # keep the in-building segment within the link's horizontal distance
        d2din_link = np.minimum(drop.indoor_depth_m[:, None], d2d)
        l_o2i = propagation.o2i_loss(config.f_c_ghz, d2din_link,
                                     draws.x_o2i_low_db, draws.x_o2i_high_db, params)
    else:
        l_o2i = np.zeros_like(d3d)
    l_oa = propagation.oxygen_absorption(f_hz, d3d, params)

    theta = np.degrees(np.arccos(np.clip(dz / d3d, -1.0, 1.0)))
    azimuth = np.degrees(np.arctan2(disp[:, :, 1], disp[:, :, 0]))
    boresights = np.asarray(deployment_mod.SECTOR_BORESIGHTS_DEG)
    # azimuth off each boresight, wrapped to (-180, 180]: y = 180 - (azimuth -
    # boresight) lies in [30, 630], where y - 360 is exact (Sterbenz) and
    # equals np.mod(y, 360), so one in-place subtract stands in for the mod
    y = np.subtract(azimuth[:, :, None], boresights)
    np.subtract(180.0, y, out=y)
    np.subtract(y, 360.0, out=y, where=y >= 360.0)
    phi = np.subtract(180.0, y, out=y)
    g_tx = antenna_mod.sector_gain(config.antenna, theta[:, :, None], phi)  # (n, s, 3)
    cl = linkbudget.coupling_loss(g_tx, config.ms_gain_dbi, pl[:, :, None],
                                  l_o2i[:, :, None], l_oa[:, :, None], config.g_sm_db)
    return {"d_2d": d2d, "d_3d": d3d, "is_los": is_los, "pl": pl, "l_o2i": l_o2i,
            "l_oa": l_oa, "g_tx": g_tx, "coupling_loss": cl.reshape(len(d2d), -1)}


# Cap on the stations `_simulate_drop` evaluates at once.  Its largest
# temporaries are (block, 19, 3) and (block, 57) float64 arrays, 0.26 MB each
# at 570 stations, so a block's working set stays within a 2 MB L2 cache
# where a whole dense drop's (5,700 stations, 2.6 MB each) does not.  Chosen
# by measurement (CHANGES.md); 570 stations, the default density, stay whole.
_BLOCK_STATIONS = 600


def _simulate_drop(run: _Run, drop_index: int) -> None:
    """Write one drop of ``run`` into the run's arrays: the serving CL, GM
    and noise-limited flag of each station and, if the run collects them,
    its ``links.csv`` rows.

    The stations, LoS uniforms and shadow terms are drawn for the whole
    drop, each on its own substream.  The link budget, association, GM and
    the finite checks of CL and GM then run on ``ceil(count /
    _BLOCK_STATIONS)`` near-equal contiguous blocks of stations, each
    writing its own rows.  Each of those steps is elementwise per
    station-site pair or reduces over one station's own row (the argmax of
    association, the interference sum of GM), so every station gets the
    same bits in a block as in a whole-drop call; blocking only bounds the
    working set.  A block raises on its first non-finite CL, then GM, so a
    run's error is that of its first failing drop in drop order.
    """
    config, dep, params = run.config, run.dep, run.params
    depcfg = config.deployment
    count = config.ms_per_sector * dep.n_sectors
    drop = deployment_mod.drop_mobiles(
        dep, config.environment, count, _stream(config.seed, drop_index, 0),
        ms_height_m=depcfg.ms_height_m, min_distance_m=depcfg.min_distance_m,
        indoor_depth_max_m=depcfg.indoor_depth_max_m,
        floor_count_min=depcfg.floor_count_min,
        floor_count_max=depcfg.floor_count_max)
    shape = (count, dep.n_sites)
    los_u = _stream(config.seed, drop_index, 1).uniform(size=shape)
    draws = propagation.draw_shadows(_stream(config.seed, drop_index, 2), shape, params,
                                     o2i=config.environment == "indoor")

    n_blocks = -(-count // _BLOCK_STATIONS)
    edges = [count * k // n_blocks for k in range(n_blocks + 1)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        rows = slice(lo, hi)  # basic slices: views, no copies
        block_draws = replace(draws, **{name: value[rows] for name, value
                                        in vars(draws).items() if np.ndim(value)})
        budget = link_budget(config, params, dep,
                             deployment_mod.MobileDrop(*(a[rows] for a in drop)),
                             los_u[rows], block_draws)
        cl = budget["coupling_loss"]
        if not np.isfinite(cl).all():
            ms_i, sec_i = np.argwhere(~np.isfinite(cl))[0]
            raise RuntimeError(f"non-finite coupling loss "
                               f"(drop {drop_index}, ms {lo + ms_i}, sector {sec_i})")
        p_rx = run.alloc.p_tx_dbm + cl
        first, last = drop_index * count + lo, drop_index * count + hi
        serving, run.serving_cl[first:last], run.noise_limited[first:last] = (
            linkbudget.associate(cl, run.threshold_db))
        gm = run.gm[first:last] = metrics.geometry_metric(p_rx, serving, run.noise_total_dbm)
        bad = np.flatnonzero(~np.isfinite(gm))
        if bad.size:
            raise RuntimeError(
                f"non-finite geometry metric (drop {drop_index}, ms {lo + bad[0]}): "
                f"the linear powers overflow; lower tx_power_dbm or the antenna gains")
        if run.links is not None:
            # each column as (station, site, sector); per-site terms span the sectors
            block = (hi - lo, dep.n_sites, 3)
            values = {"ms_id": np.arange(first, last)[:, None, None],
                      "sector_id": np.arange(dep.n_sectors).reshape(block[1:]),
                      "g_sm": config.g_sm_db, "p_rx": p_rx.reshape(block)}
            values.update((key, budget[key].reshape(hi - lo, dep.n_sites, -1))
                          for key in budget)
            for key, value in values.items():
                run.links[key].reshape(-1, *block[1:])[first:last] = value


# glibc mallopt parameters.  Arrays up to 1 MB come from a heap the process
# keeps: every array of a block ((600, 57) float64 is 0.27 MB) and the
# per-drop draws up to 6,900 stations ((n, 19) float64).  Larger ones, such
# as the links.csv columns of long runs, are mapped and unmapped as before.
# 64 MB is the highest trim threshold glibc's own dynamic rule sets.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 1 << 20
_TRIM_THRESHOLD_BYTES = 64 << 20


@functools.cache
def _pin_heap_thresholds() -> None:
    """Keep the process heap across drops instead of trimming it.

    glibc raises its mmap threshold to the largest block it has unmapped
    so far and sets its trim threshold to twice that.  Under that rule,
    whether the heap top freed at the end of a drop goes back to the OS,
    and is faulted in again by the next drop, flips from call to call with
    the heap's layout: repeats of one 3-drop run of 5,700-station drops
    took about 0 or about 5,600 minor faults each.  Pinned thresholds make
    every call keep its heap (0 to 100 faults).  A no-op where the C
    library has no ``mallopt``.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


class _Run(NamedTuple):
    """What every drop of one run shares, fixed by ``_setup_run``, and the
    arrays its drops fill in drop-major station order: ``serving_cl``,
    ``gm``, ``noise_limited`` and, unless ``None``, the ``links`` columns,
    one entry per link.  Each drop writes only its own rows, so the worker
    threads need no lock."""

    config: ScenarioConfig
    t0: float  # perf_counter() at the start of setup
    dep: deployment_mod.Deployment
    alloc: linkbudget.PowerAllocation
    noise_total_dbm: float
    threshold_db: float
    params: PropagationParams
    serving_cl: np.ndarray
    gm: np.ndarray
    noise_limited: np.ndarray
    links: dict[str, np.ndarray] | None


def _setup_run(config: ScenarioConfig, collect_links: bool) -> _Run:
    """Validate ``config``, fix the layout, power, noise and threshold that
    all its drops share, and allocate the arrays they fill."""
    t0 = time.perf_counter()
    config.validate()
    _pin_heap_thresholds()
    dep = deployment_mod.generate_layout(config.deployment.isd_m,
                                         config.deployment.bs_height_m)
    alloc = linkbudget.power_allocation(config.power_scheme, config.f_c_ghz,
                                        config.bandwidth_hz, config.tx_power_dbm)
    noise_total = linkbudget.noise_power(alloc.bandwidth_hz, config.noise_figure_db)
    threshold = linkbudget.cl_snr0_threshold(alloc.p_tx_dbm, noise_total)
    n_ms = config.n_drops * config.ms_per_sector * dep.n_sectors
    links = {key: np.empty(n_ms * dep.n_sectors,
                           int if key in ("ms_id", "sector_id", "is_los") else float)
             for key in linkbudget.LINK_CSV_COLUMNS} if collect_links else None
    return _Run(config, t0, dep, alloc, noise_total, threshold,
                _resolved_propagation(config), np.empty(n_ms), np.empty(n_ms),
                np.empty(n_ms, bool), links)


def _finish_run(run: _Run, drops) -> RunResult:
    """Wait for ``drops``, the run's drops in drop order, and build the
    run's result from the arrays they filled."""
    collections.deque(drops, maxlen=0)
    config = run.config
    frac_nl = float(run.noise_limited.mean())
    return RunResult(
        config=config,
        cl_cdf=metrics.empirical_cdf(run.serving_cl),
        gm_cdf=metrics.empirical_cdf(run.gm),
        drop_seeds=[drop_seed_id(config.seed, d) for d in range(config.n_drops)],
        regime_fractions={NOISE_LIMITED: frac_nl,
                          INTERFERENCE_LIMITED: 1.0 - frac_nl},
        power=run.alloc,
        noise_total_dbm=float(run.noise_total_dbm),
        cl_snr0_threshold_db=float(run.threshold_db),
        runtime_s=time.perf_counter() - run.t0,
        links=run.links,
    )


def _run_all(configs, workers: int, collect_links: bool) -> list[tuple]:
    """Run each config as one scenario; ``(RunResult, None)`` or ``(None,
    exception)`` per config, in order.

    Every run is set up first.  With ``workers > 1`` the drops of all runs
    then go, in (run, drop) order, to one pool of ``workers`` threads, and
    the runs are finished in order while the workers go on with later
    drops; with one worker no pool is made and each run's drops are
    simulated as it is finished.  An exception in a run's setup, drops or
    finish fails that run only and cancels its drops not yet started.
    Each drop draws from its own substreams, so results and errors are the
    same at any worker count.  Anything else that escapes, such as a
    ``KeyboardInterrupt``, cancels the queued drops and joins the pool's
    threads before it propagates.
    """
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        started = collections.deque()  # (run or setup error, drop futures)
        for config in configs:
            try:
                run = _setup_run(config, collect_links)
            except Exception as exc:  # reported per run
                started.append((exc, []))
                continue
            # _simulate_drop is looked up at submit or call time
            started.append((run, [] if pool is None else
                            [pool.submit(_simulate_drop, run, d)
                             for d in range(config.n_drops)]))
        outcomes = []
        while started:
            # popped, so each run's _Run and futures are freed once it is finished
            run, futures = started.popleft()
            if isinstance(run, Exception):
                outcomes.append((None, run))
                continue
            drops = ((f.result() for f in futures) if pool is not None else
                     (_simulate_drop(run, d) for d in range(run.config.n_drops)))
            try:
                outcomes.append((_finish_run(run, drops), None))
            except Exception as exc:  # reported per run
                for f in futures:
                    f.cancel()
                outcomes.append((None, exc))
        return outcomes
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def run_scenario(config: ScenarioConfig, workers: int = 1,
                 collect_links: bool = False) -> RunResult:
    """Run all drops of one scenario and aggregate CL and GM CDFs.

    ``workers`` threads simulate the drops (``_run_all``); any worker count
    yields bit-identical results.  Raises what the run raised.
    """
    [(result, error)] = _run_all([config], workers, collect_links)
    if error is not None:
        raise error
    return result


def run_sweep(base_config: ScenarioConfig, frequencies, schemes,
              workers: int = 1) -> list[SweepEntry]:
    """Cartesian product of scenario runs over carriers and power schemes.

    Each run's seed derives from (base seed, carrier).  The runs go, in
    (carrier, scheme) order, through the same scheduler as ``run_scenario``
    (``_run_all``), so at more than one worker the drops of all runs share
    one pool.  A failing run is recorded in its entry as
    ``"ExceptionType: message"`` and the sweep continues; the entries,
    their results and their errors are the same at any worker count.
    """
    frequencies = [float(f_c) for f_c in frequencies]
    schemes = list(schemes)
    if not frequencies or not schemes:
        raise ConfigError("frequencies and schemes must be non-empty")
    if not all(math.isfinite(f_c) and f_c > 0 for f_c in frequencies):
        raise ConfigError(f"frequencies must be positive and finite, got {frequencies}")
    keys = [(f_c, scheme) for f_c in frequencies for scheme in schemes]
    configs = [replace(base_config, f_c_ghz=f_c, power_scheme=scheme,
                       seed=sweep_seed(base_config.seed, f_c)) for f_c, scheme in keys]
    return [SweepEntry(*key, result,
                       None if exc is None else f"{type(exc).__name__}: {exc}")
            for key, (result, exc) in zip(keys, _run_all(configs, workers, False))]


# Rows per formatting call of _write_table: large enough that the per-call
# cost vanishes, small enough that one block's Python floats stay a few MB.
_WRITE_BLOCK_ROWS = 4096


@contextlib.contextmanager
def _replacing(path: Path):
    """A text file opened under a temporary name beside ``path`` and moved
    onto ``path`` once written whole; on any error the temporary file is
    removed and ``path`` is left as it was."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _run_groups(block) -> list:
    """Adjacent columns of one block joined while their runs stay long.

    Returns ``(columns, changed)`` per field of the block's row: ``changed``
    is ``None`` for a column formatted row by row, else a bool per row, true
    at row 0 and where any of the group's columns differs from the row
    above.  Rows are compared by bit pattern, so ``0.0`` and ``-0.0`` differ
    and a NaN matches the same NaN.
    """
    n_rows = len(block[0])
    fields, cols, changed = [], [], None
    for j, col in enumerate(block):
        bits = col.view(f"i{col.itemsize}") if col.dtype.kind == "f" else col
        diff = np.empty(n_rows, bool)
        diff[:1] = True
        np.not_equal(bits[1:], bits[:-1], out=diff[1:])
        # a group pays one format per run head and one %s per row
        if 2 * np.count_nonzero(diff) > n_rows:
            diff = None
        elif cols and 2 * np.count_nonzero(diff | changed) <= n_rows:
            cols.append(j)
            changed |= diff
            continue
        if cols:
            fields.append((cols, changed))
            cols = []
        if diff is None:
            fields.append(([j], None))
        else:
            cols, changed = [j], diff
    if cols:
        fields.append((cols, changed))
    return fields


def _write_table(path: Path, header, columns):
    """Write equal-length 1-D ``columns`` as CSV rows under a ``header`` line.

    Integer and bool columns print as ``%d`` and float columns as ``%.10g``.
    The rows go out a block at a time: the block's values are interleaved
    by row from ``ndarray.tolist()`` and formatted by one ``%`` call on the
    row format repeated once per row.  Within a block, adjacent columns
    whose values repeat down the rows are joined into a group while the
    group's rows change on at most half the block's rows (``_run_groups``).
    A group's text is formatted once per run, from the run's first row
    with the group's own ``%.10g``/``%d`` fields, split on newlines,
    repeated over the run's rows and put into the row as one ``%s`` field.
    Runs are found by bit pattern, so only rows that format alike share a
    text, and each value is still formatted by its column's own field from
    the same Python float or int; a formatted number holds no newline.
    The bytes therefore equal those of formatting each value alone with
    ``f"{v:.10g}"`` or ``str(int(v))``: ``%`` and ``format`` share
    CPython's float-to-text conversion (``nan``, ``inf`` and ``-0``
    included), and ``%d`` of a Python int or bool is its decimal digits.
    The file is written under a temporary name and moved into place whole.
    """
    fmts = ["%.10g" if col.dtype.kind == "f" else "%d" for col in columns]
    with _replacing(path) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _WRITE_BLOCK_ROWS):
            block = [col[start:start + _WRITE_BLOCK_ROWS] for col in columns]
            n_rows = len(block[0])
            fields = _run_groups(block)
            n_fields = len(fields)
            values = [None] * (n_rows * n_fields)
            for k, (cols, changed) in enumerate(fields):
                if changed is None:
                    values[k::n_fields] = block[cols[0]].tolist()
                    continue
                heads = np.flatnonzero(changed)
                head_vals = [None] * (len(heads) * len(cols))
                for i, j in enumerate(cols):
                    head_vals[i::len(cols)] = block[j][heads].tolist()
                group_fmt = ",".join(fmts[j] for j in cols) + "\n"
                texts = (group_fmt * len(heads) % tuple(head_vals)).split("\n")
                values[k::n_fields] = [texts[i] for i in (np.cumsum(changed) - 1).tolist()]
            row_fmt = ",".join(fmts[cols[0]] if changed is None else "%s"
                               for cols, changed in fields) + "\n"
            fh.write(row_fmt * n_rows % tuple(values))


def save_results(result: RunResult, outdir) -> list[Path]:
    """Write cl_cdf.csv, gm_cdf.csv, summary.json (and links.csv when
    collected) into ``outdir``; returns the written paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    for name, series in (("cl_cdf.csv", result.cl_cdf), ("gm_cdf.csv", result.gm_cdf)):
        path = outdir / name
        _write_table(path, ("value_db", "cdf"),
                     (series.samples, np.arange(1, series.n + 1) / series.n))
        written.append(path)

    summary = {
        "config": result.config.to_dict(),
        "seed": result.config.seed,
        "drop_seeds": result.drop_seeds,
        "n_samples": result.cl_cdf.n,
        "power": dataclasses.asdict(result.power),
        "noise_total_dbm": result.noise_total_dbm,
        "cl_snr0_threshold_db": result.cl_snr0_threshold_db,
        "cl_percentiles_db": {str(p): result.cl_cdf.percentile(p / 100.0)
                              for p in SUMMARY_PERCENTILES},
        "gm_percentiles_db": {str(p): result.gm_cdf.percentile(p / 100.0)
                              for p in SUMMARY_PERCENTILES},
        "gm_fraction_below_0db": result.gm_cdf.fraction_below(0.0),
        "regime_fractions": result.regime_fractions,
    }
    path = outdir / "summary.json"
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with _replacing(path) as fh:
        fh.write(text)
    written.append(path)

    if result.links is not None:
        path = outdir / "links.csv"
        cols = linkbudget.LINK_CSV_COLUMNS
        _write_table(path, cols, [result.links[c] for c in cols])
        written.append(path)
    return written
