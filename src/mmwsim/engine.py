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
import os
import stat
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from . import antenna as antenna_mod
from . import deployment as deployment_mod
from . import linkbudget, metrics, propagation
from .antenna import AntennaPattern
from .checks import PAIR, check_environment, check_fields, check_power
from .deployment import DeploymentParams
from .errors import ConfigError
from .metrics import INTERFERENCE_LIMITED, NOISE_LIMITED, CdfSeries
from .propagation import PropagationParams

SUMMARY_PERCENTILES = (5, 20, 35, 48, 50, 75, 90, 95)


# the blocks of ScenarioConfig, by annotation string
_BLOCKS = {cls.__name__: cls for cls in (DeploymentParams, PropagationParams, AntennaPattern)}


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one reproducible experiment, checked as it is
    built (``ScenarioConfig(...)``, ``replace``, ``load_config``)."""

    f_c_ghz: float = 2.0
    power_scheme: str = "scaled"
    environment: str = "outdoor"
    n_drops: int = 20
    ms_per_sector: int = 10
    seed: int = 1
    noise_figure_db: float = 9.0
    g_sm_db: float = 0.0
    ms_gain_dbi: float = 0.0
    bandwidth_hz: float | None = None  # required for non-standard carriers
    tx_power_dbm: float | None = None
    deployment: DeploymentParams = field(default_factory=DeploymentParams)
    propagation: PropagationParams = field(default_factory=PropagationParams)
    antenna: AntennaPattern = field(default_factory=AntennaPattern)

    def __post_init__(self):
        check_fields(ScenarioConfig, vars(self), "")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type in _BLOCKS and not isinstance(value, _BLOCKS[f.type]):
                raise ConfigError(f"{f.name} must be a {f.type}, got {type(value).__name__}")
        check_power(self.power_scheme, self.f_c_ghz, self.bandwidth_hz, self.tx_power_dbm)
        check_environment(self.environment)
        dep = self.deployment
        budget = deployment_mod._MAX_SAMPLE_ROUNDS
        if deployment_mod._expected_sample_rounds(
                dep.isd_m, dep.min_distance_m, self.ms_per_sector) > budget:
            raise ConfigError(
                f"deployment.min_distance_m={dep.min_distance_m:g} at isd_m={dep.isd_m:g} "
                f"leaves so little of the footprint that {self.ms_per_sector} stations "
                f"per sector need more than {budget} sampling rounds per drop")
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
        data = dataclasses.asdict(self)
        # the read-only oxygen table as the plain dict that YAML writes
        propagation = data["propagation"]
        propagation["oxygen_delta_db_per_km"] = dict(propagation["oxygen_delta_db_per_km"])
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """The config of a parsed YAML mapping (``_read_block``)."""
        return _read_block(cls, data, "")


def _read_block(cls, data, prefix: str):
    """``cls`` built, and so checked, from the mapping ``data`` of a config
    file.  A block is read the same way, a null one (a YAML block whose
    children are all commented out) as its defaults; a YAML list stands
    for a loss pair."""
    if not isinstance(data, dict):
        raise ConfigError(f"{prefix[:-1] or 'config'} must be a mapping, "
                          f"got {type(data).__name__}")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(f"{prefix}{name}" for name in data.keys() - types.keys())
    if unknown:
        raise ConfigError(f"unknown config field(s): {unknown}")
    values = {name: data[name] for name in types if name in data}
    for name, value in values.items():
        if types[name] in _BLOCKS:
            values[name] = _read_block(_BLOCKS[types[name]], {} if value is None else value,
                                       f"{prefix}{name}.")
        elif types[name] == PAIR and isinstance(value, list):
            values[name] = tuple(value)
    return cls(**values)


def load_config(path) -> ScenarioConfig:
    """The config of a YAML (or JSON) scenario file, checked as it is built."""
    try:
        # as bytes, so that text that is not UTF-8 is YAML's ReaderError
        with open(path, "rb") as fh:
            data = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path} is not valid YAML: {exc}") from exc
    return ScenarioConfig.from_dict(data)


@dataclass(eq=False)  # array fields: compare them with np.array_equal
class RunResult:
    """Everything produced by one scenario run.

    ``runtime_s`` is the wall time from the start of the run's setup to the
    end of its finish.  A sweep sets up every run at its start, so there an
    entry's ``runtime_s`` runs from the sweep's start to that run's finish,
    at any worker count.  ``links``, when collected, holds the link terms
    at the shapes ``link_budget`` returns them, one row per station in
    drop-major order: the arrays the drops wrote into, not copies.
    ``d_2d``, ``d_3d``, ``is_los`` (bool), ``pl``, ``l_o2i`` and ``l_oa``
    are ``(n_ms, n_sites)``; ``g_tx``, ``coupling_loss`` and ``p_rx`` are
    ``(n_ms, n_sectors)``, whose column ``3i + k`` is sector ``k`` of site
    ``i``.  The other ``links.csv`` columns are derived: ``ms_id`` is the
    row, ``sector_id`` the sector column and ``g_sm`` is ``config.g_sm_db``.
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


@dataclass(eq=False)  # holds a RunResult
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
    identical geometry and draws.  The carrier enters in whole kHz, so
    carriers within 0.5 kHz of one whole kHz share a seed.
    """
    key = int(round(f_c_ghz * 1e6))
    return int(np.random.SeedSequence(seed, spawn_key=(key,))
               .generate_state(1, np.uint64)[0])


def link_budget(config: ScenarioConfig, dep, drop, los_u, draws) -> dict:
    """Every link-budget term of one drop: a pure function of the stations,
    the ``(n, n_sites)`` LoS uniforms ``los_u`` and the shadow ``draws``.

    ``dep`` gives only the site lattice; every setting, the BS height and
    the propagation constants included, is read from ``config``.

    A link is LoS where ``los_u`` is below ``los_probability`` of d_2D-out;
    indoor links add O2I loss over the in-building depth clipped to d_2D;
    CL = G_tx + G_rx - (PL + L_O2I + L_OA - G_sm).  Every carrier stage
    takes ``config.f_c_ghz``.  Returns arrays keyed by ``links.csv`` column:
    ``d_2d``, ``d_3d``, ``is_los``, ``pl``, ``l_o2i`` and ``l_oa`` per site
    ``(n, n_sites)``, and ``g_tx`` and ``coupling_loss`` per sector
    ``(n, n_sectors)``, whose column ``3i + k`` is sector ``k`` of site ``i``.
    """
    f_c, params = config.f_c_ghz, config.propagation
    disp, d2d = deployment_mod.wrap_displacements(dep, drop.xy)  # (2, n, s), (n, s)
    is_los = los_u < propagation.los_probability(
        np.maximum(d2d - drop.indoor_depth_m[:, None], 0.0))

    dz = drop.height_m[:, None] - config.deployment.bs_height_m
    d3d = np.hypot(d2d, dz)
    pl = np.where(is_los,
                  propagation.pl_los_ci(f_c, d3d, draws.x_los_db, params),
                  propagation.pl_nlos_abg(f_c, d3d, draws.x_nlos_db, params))
    if config.environment == "indoor":
        # keep the in-building segment within the link's horizontal distance
        d2din_link = np.minimum(drop.indoor_depth_m[:, None], d2d)
        l_o2i = propagation.o2i_loss(f_c, d2din_link,
                                     draws.x_o2i_low_db, draws.x_o2i_high_db, params)
    else:
        l_o2i = np.zeros_like(d3d)
    l_oa = propagation.oxygen_absorption(f_c, d3d, params)

    theta = np.degrees(np.arccos(np.clip(dz / d3d, -1.0, 1.0)))
    azimuth = np.degrees(np.arctan2(disp[1], disp[0]))
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
    n = len(d2d)
    return {"d_2d": d2d, "d_3d": d3d, "is_los": is_los, "pl": pl, "l_o2i": l_o2i,
            "l_oa": l_oa, "g_tx": g_tx.reshape(n, -1), "coupling_loss": cl.reshape(n, -1)}


# The terms of RunResult.links, in links.csv order: per (station, site) and
# per (station, sector)
_SITE_TERMS = ("d_2d", "d_3d", "is_los", "pl", "l_o2i", "l_oa")
_SECTOR_TERMS = ("g_tx", "coupling_loss", "p_rx")


# Cap on the stations `_simulate_drop` evaluates at once.  Its largest
# temporaries are (block, 19, 3) and (block, 57) float64 arrays, 0.26 MB each
# at 570 stations, so a block's working set stays within a 2 MB L2 cache
# where a whole dense drop's (5,700 stations, 2.6 MB each) does not.  Chosen
# by measurement (CHANGES.md); 570 stations, the default density, stay whole.
_BLOCK_STATIONS = 600


def _simulate_drop(run: _Run, drop_index: int) -> None:
    """Write one drop of ``run`` into the run's arrays: the serving CL, GM
    and noise-limited flag of each station and, if the run collects them,
    its ``links.csv`` terms, each at the shape ``link_budget`` returns.

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
    config, dep = run.config, run.dep
    count = config.ms_per_sector * dep.n_sectors
    drop = deployment_mod.drop_mobiles(dep, config.environment, count,
                                       _stream(config.seed, drop_index, 0), config.deployment)
    shape = (count, dep.n_sites)
    los_u = _stream(config.seed, drop_index, 1).uniform(size=shape)
    draws = propagation.draw_shadows(_stream(config.seed, drop_index, 2), shape,
                                     config.propagation, o2i=config.environment == "indoor")

    n_blocks = -(-count // _BLOCK_STATIONS)
    edges = [count * k // n_blocks for k in range(n_blocks + 1)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        rows = slice(lo, hi)  # basic slices: views, no copies
        block_draws = replace(draws, **{name: value[rows] for name, value
                                        in vars(draws).items() if np.ndim(value)})
        budget = link_budget(config, dep, deployment_mod.MobileDrop(*(a[rows] for a in drop)),
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
        # errstate is per thread, so it sits here, on the drop's thread: the
        # finite check below is the one report of an overflow
        with np.errstate(over="ignore", invalid="ignore"):
            gm = run.gm[first:last] = metrics.geometry_metric(p_rx, serving,
                                                               run.noise_total_dbm)
        bad = np.flatnonzero(~np.isfinite(gm))
        if bad.size:
            raise RuntimeError(
                f"non-finite geometry metric (drop {drop_index}, ms {lo + bad[0]}): "
                f"the linear powers overflow; lower tx_power_dbm or the antenna gains")
        if run.links is not None:
            for key, value in {**budget, "p_rx": p_rx}.items():
                run.links[key][first:last] = value


# glibc mallopt parameters.  Arrays up to 1 MB come from a heap the process
# keeps: every array of a block ((600, 57) float64 is 0.27 MB) and the
# per-drop draws up to 6,900 stations ((n, 19) float64).  Larger ones, such
# as the links.csv columns of long runs, are mapped and unmapped as before.
# 64 MB is the highest trim threshold glibc's own dynamic rule sets.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 1 << 20
_TRIM_THRESHOLD_BYTES = 64 << 20


@functools.cache
def _libc_function(name: str):
    """The C library's function ``name`` through ``ctypes``, or ``None`` off
    Linux, where the C library cannot be opened, or where it has no such
    symbol.  The one place where the package reaches into the C library."""
    if not sys.platform.startswith("linux"):
        return None
    try:
        return getattr(ctypes.CDLL(None, use_errno=True), name)
    except (OSError, AttributeError):
        return None


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
    mallopt = _libc_function("mallopt")
    if mallopt is None:
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


class _Run(NamedTuple):
    """What every drop of one run shares, fixed by ``_setup_run``, and the
    arrays its drops fill in drop-major station order: ``serving_cl``,
    ``gm``, ``noise_limited`` and, unless ``None``, the ``links`` terms,
    one row per station (``RunResult``).  Each drop writes only its own
    rows, so the worker threads need no lock."""

    config: ScenarioConfig
    t0: float  # perf_counter() at the start of setup
    dep: deployment_mod.Deployment
    alloc: linkbudget.PowerAllocation
    noise_total_dbm: float
    threshold_db: float
    serving_cl: np.ndarray
    gm: np.ndarray
    noise_limited: np.ndarray
    links: dict[str, np.ndarray] | None


def _setup_run(config: ScenarioConfig, collect_links: bool) -> _Run:
    """Fix the layout, power, noise and threshold that all drops of ``config``
    share, and allocate the arrays they fill (a ``ConfigError`` if too large)."""
    t0 = time.perf_counter()
    _pin_heap_thresholds()
    dep = deployment_mod.generate_layout(config.deployment.isd_m)
    alloc = linkbudget.power_allocation(config.power_scheme, config.f_c_ghz,
                                        config.bandwidth_hz, config.tx_power_dbm)
    noise_total = linkbudget.noise_power(alloc.bandwidth_hz, config.noise_figure_db)
    threshold = linkbudget.cl_snr0_threshold(alloc.p_tx_dbm, noise_total)
    n_ms = config.n_drops * config.ms_per_sector * dep.n_sectors
    try:
        links = {key: np.empty((n_ms, dep.n_sites if key in _SITE_TERMS else dep.n_sectors),
                               bool if key == "is_los" else float)
                 for key in _SITE_TERMS + _SECTOR_TERMS} if collect_links else None
        arrays = np.empty(n_ms), np.empty(n_ms), np.empty(n_ms, bool)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's largest size
        raise ConfigError(f"n_drops={config.n_drops}, ms_per_sector={config.ms_per_sector}: "
                          f"{n_ms} stations are too many to allocate") from exc
    return _Run(config, t0, dep, alloc, noise_total, threshold, *arrays, links)


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


def _run_all(make_configs, workers: int, collect_links: bool) -> list[tuple]:
    """Build and run each config of ``make_configs``, zero-argument callables,
    as one scenario; ``(RunResult, None)`` or ``(None, exception)`` per
    config, in order.

    Every run is set up first.  With ``workers > 1`` the drops of all runs
    then go, in (run, drop) order, to one pool of ``workers`` threads, and
    the runs are finished in order while the workers go on with later
    drops; with one worker no pool is made and each run's drops are
    simulated as it is finished.  An exception in a run's config, setup,
    drops or finish fails that run only and cancels its drops not yet
    started.  Each drop draws from its own substreams, so results and errors
    are the same at any worker count.  Anything else that escapes, such as a
    ``KeyboardInterrupt``, cancels the queued drops and joins the pool's
    threads before it propagates.  The pool class is looked up as
    ``concurrent.futures.ThreadPoolExecutor`` when the pool is built.
    """
    pool = None
    if workers > 1:
        # imported here: it loads logging, which a one-worker run never needs
        import concurrent.futures
        pool = concurrent.futures.ThreadPoolExecutor(max_workers=workers)
    try:
        started = collections.deque()  # (run or setup error, drop futures)
        for make_config in make_configs:
            try:
                run = _setup_run(make_config(), collect_links)
            except Exception as exc:  # reported per run
                started.append((exc, []))
                continue
            # _simulate_drop is looked up at submit or call time
            started.append((run, [] if pool is None else
                            [pool.submit(_simulate_drop, run, d)
                             for d in range(run.config.n_drops)]))
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
    [(result, error)] = _run_all([lambda: config], workers, collect_links)
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
    frequencies, schemes = list(frequencies), list(schemes)
    if not frequencies or not schemes:
        raise ConfigError("frequencies and schemes must be non-empty")
    try:  # by the config's own rule, so that "60" and True are refused as there
        for f_c in frequencies:
            check_fields(ScenarioConfig, {"f_c_ghz": f_c}, "")
    except ConfigError:
        raise ConfigError(f"frequencies must be positive and finite, got {frequencies}") from None
    keys = [(float(f_c), scheme) for f_c in frequencies for scheme in schemes]
    configs = [functools.partial(replace, base_config, f_c_ghz=f_c, power_scheme=scheme,
                                 seed=sweep_seed(base_config.seed, f_c))
               for f_c, scheme in keys]
    return [SweepEntry(*key, result,
                       None if exc is None else f"{type(exc).__name__}: {exc}")
            for key, (result, exc) in zip(keys, _run_all(configs, workers, False))]


# Rows per formatting call of _write_links and _write_cdf: large enough that
# the per-call cost vanishes, small enough that one block's Python floats
# stay a few MB.
_WRITE_BLOCK_ROWS = 4096


# renameat2 arguments: paths relative to the working directory, and swap
# the two names instead of moving one onto the other
_AT_FDCWD, _RENAME_EXCHANGE = -100, 2


@contextlib.contextmanager
def _replacing(path: Path):
    """A text file opened under a temporary name beside ``path`` and moved
    onto ``path`` once written whole; on any error the temporary file is
    removed and ``path`` is left as it was.

    Where ``path`` is a regular file, the two names are swapped in one step
    by Linux ``renameat2`` with ``RENAME_EXCHANGE`` and the temporary name,
    which then holds the old file, is unlinked; should something other than
    a regular file have taken ``path`` after that check, it is swapped back
    first.  In every other case (no file, a directory or a symlink at
    ``path``, no ``renameat2``, or a filesystem that cannot swap) the file
    is moved by ``os.replace``, which raises as it always has.  Either way
    readers see the old file or the new one, never a part of one, and a
    failed save leaves the old one.

    No file is flushed (no ``fsync``), and the two moves differ after a
    crash.  A rename onto an existing file makes ext4 (``auto_da_alloc``)
    start writing the new file's data before the rename returns, so a power
    loss or kernel crash just after it leaves the old file or the new one;
    that took a median of 45 ms for one 1,710-row CDF file on a shared
    2-core host's ext4 disk, against 0.6-0.9 ms for the same write to a new
    name or by the swap.  The swap skips that step: a crash before the
    kernel writes the data back (by default within 30 s) can leave an empty
    file at ``path``.  The writeback is deferred, not saved.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        try:
            swap = stat.S_ISREG(os.lstat(path).st_mode) and _libc_function("renameat2")
        except OSError:  # no file: os.replace moves it, or raises as it did
            swap = None
        names = (_AT_FDCWD, os.fsencode(tmp), _AT_FDCWD, os.fsencode(path), _RENAME_EXCHANGE)
        if swap and swap(*names) == 0:
            if stat.S_ISREG(os.lstat(tmp).st_mode):
                tmp.unlink()
                return
            # a directory or link took the name after the check: put it back
            # and let os.replace raise or move, as when the check sees it
            if swap(*names) != 0:
                err = ctypes.get_errno()
                raise OSError(err, os.strerror(err), os.fsdecode(tmp), None, os.fsdecode(path))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_links(path: Path, links: dict, g_sm_db: float):
    """Write the links table ``links`` (``RunResult``) as ``links.csv``.

    Each row reads ``ms_id,sector_id`` as ``%d``, the six per-site terms
    of the sector's site, ``g_tx``, ``g_sm``, ``coupling_loss`` and
    ``p_rx``, every float as ``%.10g`` and ``is_los`` as ``%d``.  The rows
    go out in blocks of whole stations, about ``_WRITE_BLOCK_ROWS`` rows
    each.  A block formats the per-site text of each (station, site) pair
    once, by one ``%`` call, and puts it into the rows of the site's
    sectors as one ``%s`` field; ``g_sm`` is formatted once, into the row
    format.  The block's rows are then formatted by one ``%`` call on the
    row format repeated once per row, from ``ndarray.tolist()`` values.
    Every value is thus formatted by its column's own field from a Python
    float, int or bool, so the bytes equal those of formatting each value
    alone with ``f"{v:.10g}"`` or ``str(int(v))``: ``%`` and ``format``
    share CPython's float-to-text conversion (``nan``, ``inf`` and ``-0``
    included), and ``%d`` of a Python int or bool is its decimal digits.
    A formatted number holds no ``%`` or line break, so the ``g_sm`` text
    is safe in a format and each pair's text is one line of its block's.
    The file is written under a temporary name and moved into place whole.
    """
    n_ms, n_sites = links["d_2d"].shape
    n_sectors = links["g_tx"].shape[1]
    per_site = n_sectors // n_sites
    site_fmt = "%.10g,%.10g,%d,%.10g,%.10g,%.10g\n"
    row_fmt = "%d,%d,%s,%.10g," + "%.10g" % float(g_sm_db) + ",%.10g,%.10g\n"
    step = max(1, _WRITE_BLOCK_ROWS // n_sectors)
    with _replacing(path) as fh:
        fh.write(",".join(linkbudget.LINK_CSV_COLUMNS) + "\n")
        for lo in range(0, n_ms, step):
            hi = min(lo + step, n_ms)
            n_pairs, n_rows = (hi - lo) * n_sites, (hi - lo) * n_sectors
            site_values = [None] * (n_pairs * 6)
            for k, key in enumerate(_SITE_TERMS):
                site_values[k::6] = links[key][lo:hi].ravel().tolist()
            texts = (site_fmt * n_pairs % tuple(site_values)).splitlines()
            # six fields a row: ms_id, sector_id, site text and the sector terms
            values = [None] * (n_rows * 6)
            values[0::6] = [ms for ms in range(lo, hi) for _ in range(n_sectors)]
            values[1::6] = list(range(n_sectors)) * (hi - lo)
            for k in range(per_site):  # sector k of each site takes the site's text
                values[6 * k + 2::6 * per_site] = texts
            for k, key in enumerate(_SECTOR_TERMS, 3):
                values[k::6] = links[key][lo:hi].ravel().tolist()
            fh.write(row_fmt * n_rows % tuple(values))


@functools.lru_cache(maxsize=1)
def _cdf_rows(n: int) -> tuple[str, ...]:
    """Row formats of a CDF file of ``n`` samples, one per block of
    ``_WRITE_BLOCK_ROWS`` rows: each row reads ``%.10g,<cdf>\n`` with the
    ``cdf`` text ``i / n`` already formatted by ``%.10g``, a block at a
    time (the samples' field escaped as ``%%``).  A formatted float holds
    no ``%``, so the text is safe inside a format string.  One size is
    kept, about 20 bytes per sample: a run's two CDF files share ``n``, as
    do a sweep's runs."""
    cdf = np.arange(1, n + 1) / n
    return tuple("%%.10g,%.10g\n" * len(block) % tuple(block.tolist())
                 for block in (cdf[lo:lo + _WRITE_BLOCK_ROWS]
                               for lo in range(0, n, _WRITE_BLOCK_ROWS)))


def _write_cdf(path: Path, series: CdfSeries):
    """Write ``series`` as ``value_db,cdf`` rows, each value as
    ``%.10g``: each block's samples are formatted by one ``%`` over the
    block's cached row format (``_cdf_rows``).  The file is written under
    a temporary name and moved into place whole."""
    samples = series.samples
    with _replacing(path) as fh:
        fh.write("value_db,cdf\n")
        for lo, rows in zip(range(0, series.n, _WRITE_BLOCK_ROWS), _cdf_rows(series.n)):
            fh.write(rows % tuple(samples[lo:lo + _WRITE_BLOCK_ROWS].tolist()))


def save_results(result: RunResult, outdir) -> list[Path]:
    """Write cl_cdf.csv, gm_cdf.csv, summary.json (and links.csv when
    collected) into ``outdir``; returns the written paths.

    The CDF files are written by ``_write_cdf``, whose row formats, with
    the ``cdf`` column already formatted, are cached for the last sample
    count: the first save of a size builds them, and every later file of
    that size (both files of a run, all runs of a sweep) reuses them.
    ``links.csv`` is written by ``_write_links``."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    for name, series in (("cl_cdf.csv", result.cl_cdf), ("gm_cdf.csv", result.gm_cdf)):
        path = outdir / name
        _write_cdf(path, series)
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
        _write_links(path, result.links, result.config.g_sm_db)
        written.append(path)
    return written
