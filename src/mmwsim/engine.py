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
import re
import stat
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from . import antenna as antenna_mod
from . import deployment as deployment_mod
from . import linkbudget, metrics, propagation
from .antenna import AntennaPattern
from .checks import (ConfigError, _is_int, check_block, check_environment, check_fields,
                     check_scheme)
from .deployment import DeploymentParams
from .linkbudget import check_power
from .metrics import CdfSeries
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
        check_block(self, "")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type in _BLOCKS and not isinstance(value, _BLOCKS[f.type]):
                raise ConfigError(f"{f.name} must be a {f.type}, got {type(value).__name__}")
        check_power(self.power_scheme, self.f_c_ghz, self.bandwidth_hz, self.tx_power_dbm)
        self.propagation.check_carrier(self.f_c_ghz)
        check_environment(self.environment)
        self.deployment.check_drop(self.environment, self.ms_per_sector)

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
    file.  A block is read the same way.  A null, the file's or a block's
    (an empty file, or a YAML block whose children are all commented out),
    reads as ``{}``, the defaults."""
    data = {} if data is None else data
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
            values[name] = _read_block(_BLOCKS[types[name]], value, f"{prefix}{name}.")
    return cls(**values)


class _ConfigLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that also reads the exponent forms of JSON and YAML
    1.2, such as ``1e9``, ``5e-05`` and ``1.5E3``, as floats; YAML 1.1 reads
    a float only with a dot, and with a sign in its exponent.  It refuses a
    key given twice in one mapping, where PyYAML keeps the last value."""

    def construct_mapping(self, node, deep=False):
        # the keys as written, before a merge (``<<``) adds keys they override
        written = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
        mapping, seen = super().construct_mapping(node, deep), {}
        for k in written:  # 60 and 60.0 are one key
            if seen.setdefault(key := self.construct_object(k), k) is not k:
                raise ConfigError(f"key {key!r} is given twice (line {k.start_mark.line + 1})")
        return mapping


_ConfigLoader.add_implicit_resolver(  # on a copy of the resolvers: SafeLoader's stay
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"), list("-+.0123456789"))


def load_config(path) -> ScenarioConfig:
    """The config of a YAML (or JSON) scenario file, checked as it is built."""
    try:
        # as bytes, so that text that is not UTF-8 is YAML's ReaderError
        with open(path, "rb") as fh:
            data = yaml.load(fh, Loader=_ConfigLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path} is not valid YAML: {exc}") from exc
    return ScenarioConfig.from_dict(data)


@dataclass(eq=False)  # array fields: compare them with np.array_equal
class RunResult:
    """The one record of a scenario run: ``_setup_run`` builds it and the
    drops write into it.  ``cl_cdf`` and ``gm_cdf`` are the CDFs of
    ``serving_cl`` and ``gm``, each formed once, on its first read.

    ``serving_cl`` and ``gm`` hold each station's serving CL and GM,
    ``(n_drops * count,)`` in drop-major order (station ``s`` of drop ``d``
    at row ``d * count + s``), and ``links``, when collected, the terms
    that ``link_budget`` returns, at its shapes, one row per station in the
    same order.  Each drop writes only its own rows, so the worker threads
    need no lock.  Of the links, ``d_2d``, ``d_3d``, ``is_los`` (bool),
    ``pl``, ``l_o2i`` and ``l_oa`` are ``(n_ms, n_sites)``; ``g_tx`` and
    ``coupling_loss`` are ``(n_ms, n_sectors)``, whose column ``3i + k`` is
    sector ``k`` of site ``i``.  The other ``links.csv`` columns are
    derived: ``ms_id`` is the row, ``sector_id`` the column's sector,
    ``g_sm`` is ``config.g_sm_db`` and ``p_rx`` is ``coupling_loss +
    power.p_tx_dbm``.
    """

    config: ScenarioConfig
    power: linkbudget.PowerAllocation
    noise_total_dbm: float
    cl_snr0_threshold_db: float
    serving_cl: np.ndarray
    gm: np.ndarray
    links: dict[str, np.ndarray] | None

    @functools.cached_property
    def cl_cdf(self) -> CdfSeries:
        return metrics.empirical_cdf(self.serving_cl)

    @functools.cached_property
    def gm_cdf(self) -> CdfSeries:
        return metrics.empirical_cdf(self.gm)

    @property
    def drop_seeds(self) -> list[int]:
        return [drop_seed_id(self.config.seed, d) for d in range(self.config.n_drops)]

    @property
    def noise_limited(self) -> np.ndarray:
        """Each station's flag by the one CL_SNR=0 rule: noise-limited where its
        serving CL is strictly below ``cl_snr0_threshold_db``, else interference-limited."""
        return self.serving_cl < self.cl_snr0_threshold_db

    @property
    def regime_fractions(self) -> dict[str, float]:
        frac_nl = float(self.noise_limited.mean())
        return {"noise_limited": frac_nl, "interference_limited": 1.0 - frac_nl}


@dataclass(eq=False)  # holds a RunResult
class SweepEntry:
    """One (carrier, scheme) run of a sweep: its ``result``, equal field for
    field and in its CDFs to that of ``run_scenario`` on the base config at
    this carrier and scheme, or the ``error`` it failed with."""

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


def link_budget(config: ScenarioConfig, drop, los_u, draws) -> dict:
    """Every link-budget term of one drop: a pure function of the stations,
    the ``(n, n_sites)`` LoS uniforms ``los_u`` and the shadow ``draws``.

    Every setting, the site lattice and BS height of ``config.deployment``
    and the propagation constants included, is read from ``config``.

    A link is LoS where ``los_u`` is below ``los_probability`` of d_2D-out;
    indoor links add O2I loss over the in-building depth clipped to d_2D;
    CL = G_tx + G_rx - (PL + L_O2I + L_OA - G_sm).  Every carrier stage
    takes ``config.f_c_ghz``.  Returns arrays keyed by ``links.csv`` column:
    ``d_2d``, ``d_3d``, ``is_los``, ``pl``, ``l_o2i`` and ``l_oa`` per site
    ``(n, n_sites)``, and ``g_tx`` and ``coupling_loss`` per sector
    ``(n, n_sectors)``, whose column ``3i + k`` is sector ``k`` of site ``i``.

    Inside, the sector axis is outermost: the angles, gains and CL are
    ``(3, n, n_sites)``, so every per-site term broadcasts over that outer
    axis and each loop runs at unit stride, not over a 3-long inner axis.
    ``g_tx`` and CL are copied once each to their ``3i + k`` columns on
    return; each element goes through the same operations either way.
    """
    f_c, params, dep = config.f_c_ghz, config.propagation, config.deployment
    disp, d2d = deployment_mod.wrap_displacements(dep, drop.xy)  # (2, n, s), (n, s)
    is_los = los_u < propagation.los_probability(
        np.maximum(d2d - drop.indoor_depth_m[:, None], 0.0))

    dz = drop.height_m[:, None] - dep.bs_height_m
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

    # np.degrees is a scalar loop over x * (180 / pi): one in-place SIMD
    # multiply by that constant gives the same bits
    theta = np.arccos(np.clip(dz / d3d, -1.0, 1.0))
    np.multiply(theta, 180.0 / np.pi, out=theta)
    azimuth = np.arctan2(disp[1], disp[0])
    np.multiply(azimuth, 180.0 / np.pi, out=azimuth)
    del disp  # each array is released once its last step has read it
    boresights = np.asarray(deployment_mod.SECTOR_BORESIGHTS_DEG)[:, None, None]
    # azimuth off each boresight, wrapped to (-180, 180]: y = 180 - (azimuth -
    # boresight) lies in [30, 630], where y - 360 is exact (Sterbenz) and
    # equals np.mod(y, 360), so one in-place subtract stands in for the mod
    y = np.subtract(azimuth, boresights)  # (3, n, s): sector axis outermost
    del azimuth
    np.subtract(180.0, y, out=y)
    # subtract 360 or 0 (y - 0 is y): a where= mask set at random would run
    # numpy's masked loop
    np.subtract(y, np.multiply(y >= 360.0, 360.0), out=y)
    phi = np.subtract(180.0, y, out=y)
    gain = antenna_mod.sector_gain(config.antenna, theta, phi)
    del theta, y, phi
    cl = _sector_columns(linkbudget.coupling_loss(gain, config.ms_gain_dbi, pl, l_o2i, l_oa,
                                                  config.g_sm_db))
    return {"d_2d": d2d, "d_3d": d3d, "is_los": is_los, "pl": pl, "l_o2i": l_o2i,
            "l_oa": l_oa, "g_tx": _sector_columns(gain), "coupling_loss": cl}


def _sector_columns(per_sector: np.ndarray) -> np.ndarray:
    """The ``(n, n_sites * 3)`` copy of a ``(3, n, n_sites)`` array, whose
    column ``3i + k`` is ``per_sector[k, :, i]``: one strided copy per sector,
    cheaper than ``transpose().reshape()``."""
    n_per_site, n, n_sites = per_sector.shape
    out = np.empty((n, n_sites, n_per_site))
    for k in range(n_per_site):
        np.copyto(out[:, :, k], per_sector[k])
    return out.reshape(n, -1)


# The terms of RunResult.links, in links.csv order: per (station, site) and
# per (station, sector); the columns of links.csv, as _write_links writes them
_SITE_TERMS = ("d_2d", "d_3d", "is_los", "pl", "l_o2i", "l_oa")
_SECTOR_TERMS = ("g_tx", "coupling_loss")
LINK_CSV_COLUMNS = ("ms_id", "sector_id", *_SITE_TERMS, "g_tx", "g_sm", "coupling_loss", "p_rx")


# Cap on the stations `_simulate_drop` evaluates at once.  Its largest
# temporaries are (3, block, 19) and (block, 57) float64 arrays, 0.26 MB each
# at 570 stations, so a block's working set stays within a 2 MB L2 cache
# where a whole dense drop's (5,700 stations, 2.6 MB each) does not.  Chosen
# by measurement (CHANGES.md); 570 stations, the default density, stay whole.
_BLOCK_STATIONS = 600


def _simulate_drop(run: RunResult, drop_index: int) -> None:
    """Write one drop of ``run`` into the run's own rows of its record: the
    serving CL and GM of each station and, if the run collects them, its
    ``link_budget`` terms, each at the shape ``link_budget`` returns.  The
    stations are ``drop_mobiles`` of the config's ``deployment`` block.

    The stations and shadow terms are drawn for the whole drop, each on its
    own substream.  The link budget, association, GM and the finite checks
    of CL and GM then run on ``ceil(count / _BLOCK_STATIONS)`` near-equal
    contiguous blocks of stations, each writing its own rows.  Each of
    those steps is elementwise per station-site pair or reduces over one
    station's own row (the argmax of association, the interference sum of
    GM), so every station gets the same bits in a block as in a whole-drop
    call; blocking only bounds the working set.  Each block draws its LoS
    uniforms from the drop's LoS substream in turn: a uniform takes one
    64-bit output, so the blocks' draws are the whole drop's draw.  A block
    holds only what its next step reads: once its terms are stored, or
    when no links are collected, it keeps CL alone, and forms GM's P_rx,
    which the table derives, in CL's buffer.  A block raises on its first
    non-finite CL, then GM, so a run's error is its first failing drop's.
    numpy's floating-point errors are ignored throughout the drop, on its own
    thread (errstate is per thread): those two checks are the one report.
    """
    with np.errstate(all="ignore"):
        config = run.config
        dep = config.deployment
        count = config.ms_per_sector * dep.n_sectors
        drop = deployment_mod.drop_mobiles(dep, config.environment, count,
                                           _stream(config.seed, drop_index, 0))
        los_rng = _stream(config.seed, drop_index, 1)
        draws = propagation.draw_shadows(_stream(config.seed, drop_index, 2), (count, dep.n_sites),
                                         config.propagation, o2i=config.environment == "indoor")

        n_blocks = -(-count // _BLOCK_STATIONS)
        edges = [count * k // n_blocks for k in range(n_blocks + 1)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            rows = slice(lo, hi)  # basic slices: views, no copies
            block_draws = replace(draws, **{name: value[rows] for name, value
                                            in vars(draws).items() if np.ndim(value)})
            budget = link_budget(config, deployment_mod.MobileDrop(*(a[rows] for a in drop)),
                                 los_rng.uniform(size=(hi - lo, dep.n_sites)), block_draws)
            cl = budget["coupling_loss"]
            if not np.isfinite(cl).all():
                ms_i, sec_i = np.argwhere(~np.isfinite(cl))[0]
                raise RuntimeError(f"non-finite coupling loss "
                                   f"(drop {drop_index}, ms {lo + ms_i}, sector {sec_i})")
            first, last = drop_index * count + lo, drop_index * count + hi
            if run.links is not None:
                for key, value in budget.items():
                    run.links[key][first:last] = value
            del budget  # from here the block reads CL alone
            serving, run.serving_cl[first:last] = linkbudget.associate(cl)
            p_rx = np.add(cl, run.power.p_tx_dbm, out=cl)  # the bits of p_tx + cl
            gm = run.gm[first:last] = metrics.geometry_metric(p_rx, serving, run.noise_total_dbm)
            bad = np.flatnonzero(~np.isfinite(gm))
            if bad.size:
                ms, ten = bad[0], np.float64(10.0)
                raise RuntimeError(
                    f"non-finite geometry metric (drop {drop_index}, ms {lo + ms}): " + (
                        "the linear serving power underflows to 0; raise tx_power_dbm or the "
                        "antenna gains" if ten ** (p_rx[ms, serving[ms]] / 10.0) == 0.0 else
                        "the linear powers overflow; lower tx_power_dbm or the antenna gains"))
            del cl, p_rx  # one buffer, released before the next block's budget


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


def _setup_run(config: ScenarioConfig, collect_links: bool) -> RunResult:
    """The record of a run of ``config``: the power, noise and threshold that
    all its drops share, and the arrays they fill (a ``ConfigError`` if too large)."""
    _pin_heap_thresholds()
    dep = config.deployment
    power = linkbudget.power_allocation(config.power_scheme, config.f_c_ghz,
                                        config.bandwidth_hz, config.tx_power_dbm)
    noise_total = float(linkbudget.noise_power(power.bandwidth_hz, config.noise_figure_db))
    threshold = float(linkbudget.cl_snr0_threshold(power.p_tx_dbm, noise_total))
    n_ms = config.n_drops * config.ms_per_sector * dep.n_sectors
    try:
        links = {key: np.empty((n_ms, dep.n_sites if key in _SITE_TERMS else dep.n_sectors),
                               bool if key == "is_los" else float)
                 for key in _SITE_TERMS + _SECTOR_TERMS} if collect_links else None
        arrays = np.empty(n_ms), np.empty(n_ms)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's largest size
        raise ConfigError(f"n_drops={config.n_drops}, ms_per_sector={config.ms_per_sector}: "
                          f"{n_ms} stations are too many to allocate") from exc
    return RunResult(config, power, noise_total, threshold, *arrays, links)


def _run_all(make_configs, workers: int, collect_links: bool) -> list[tuple]:
    """Build and run each config of ``make_configs``, zero-argument callables,
    as one scenario; ``(RunResult, None)`` or ``(None, exception)`` per
    config, in order.

    Every run is set up first, and its drops made one ``map`` of
    ``_simulate_drop`` over its drop indices: the builtin ``map`` at one
    worker, which simulates each drop as the run is drained, and at more the
    ``map`` of one pool of ``workers`` threads, which queues the drops of all
    runs in (run, drop) order as they are mapped.  Each run is then drained
    in drop order.  An exception in a run's config, setup or drops fails
    that run only; its ``map`` stops there, and the pool's cancels the run's
    drops not yet started.  Each drop draws from its own substreams, so
    results and errors are the same at any worker count.  Anything else that
    escapes, such as a ``KeyboardInterrupt``, cancels the queued drops and
    joins the pool's threads before it propagates.  The pool class is looked
    up as ``concurrent.futures.ThreadPoolExecutor`` when the pool is built.
    A ``workers`` that is not a positive integer is a ``ConfigError``.
    """
    if not _is_int(workers) or workers < 1:
        raise ConfigError(f"workers must be a positive integer, got {workers!r}")
    pool = None
    if workers > 1:
        # imported here: it loads logging, which a one-worker run never needs
        import concurrent.futures
        pool = concurrent.futures.ThreadPoolExecutor(max_workers=workers)
    try:
        started = collections.deque()  # (run, its drops) or (None, setup error)
        for make_config in make_configs:
            try:
                run = _setup_run(make_config(), collect_links)
            except Exception as exc:  # reported per run
                started.append((None, exc))
                continue
            # _simulate_drop is looked up here, as the run's drops are mapped
            started.append((run, (map if pool is None else pool.map)(
                functools.partial(_simulate_drop, run), range(run.config.n_drops))))
        outcomes = []
        while started:
            # popped, so each run's futures are freed once it is drained
            run, drops = started.popleft()
            if run is None:
                outcomes.append((None, drops))
                continue
            try:
                collections.deque(drops, maxlen=0)
                outcomes.append((run, None))
            except Exception as exc:  # reported per run
                outcomes.append((None, exc))
        return outcomes
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def run_scenario(config: ScenarioConfig, workers: int = 1,
                 collect_links: bool = False) -> RunResult:
    """Run all drops of one scenario; its CL and GM CDFs are formed from the
    stations' rows on first read (``RunResult``).

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

    Each run is the base config at one carrier and scheme, at the base
    seed, so all runs are on the same drops and each entry's result equals
    ``run_scenario`` of its config.  The runs go, in (carrier, scheme)
    order, through the same scheduler as ``run_scenario`` (``_run_all``),
    so at more than one worker the drops of all runs share one pool.  A
    carrier or scheme its own config rule refuses is a ``ConfigError``
    before any run; a rule that also reads the base config (an off-table
    carrier's overrides, its oxygen key) is checked per run.  A
    failing run is recorded in its entry as ``"ExceptionType: message"``
    and the sweep continues; the entries, their results and their errors
    are the same at any worker count.
    """
    for name, value in (("frequencies", frequencies), ("schemes", schemes)):
        if isinstance(value, str):
            raise ConfigError(f"{name} must be a list, not the string {value!r}")
    frequencies, schemes = list(frequencies), list(schemes)
    if not frequencies or not schemes:
        raise ConfigError("frequencies and schemes must be non-empty")
    for name, values, rule in (
            ("frequencies", frequencies,
             lambda f_c: check_fields(ScenarioConfig, {"f_c_ghz": f_c}, "")),
            ("schemes", schemes, check_scheme)):
        try:  # by the config's own rules, so that "60" and True are refused as there
            for value in values:
                rule(value)
        except ConfigError as exc:
            raise ConfigError(f"{name} {values}: {exc}") from None
    keys = [(float(f_c), scheme) for f_c in frequencies for scheme in schemes]
    configs = [functools.partial(replace, base_config, f_c_ghz=f_c, power_scheme=scheme)
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
    onto ``path`` once written whole; on any error but a failed swap back
    the temporary file is removed and ``path`` is left as it was.

    Where ``path`` is a regular file, the two names are swapped in one step
    by Linux ``renameat2`` with ``RENAME_EXCHANGE`` and the temporary name,
    which then holds the old file, is unlinked; should something other than
    a regular file have taken ``path`` after that check, it is swapped back
    first.  If that swap back fails, ``path`` holds the new file, the entry
    that took it stays under the temporary name, and the ``OSError`` names
    both.  In every other case (no file, a directory or a symlink at
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
    tmp_is_new = True  # the temporary name holds the new file, which a failure removes
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
                tmp_is_new = False
                raise OSError(err, os.strerror(err), os.fsdecode(tmp), None, os.fsdecode(path))
        os.replace(tmp, path)
    except BaseException:
        if tmp_is_new:
            tmp.unlink(missing_ok=True)
        raise


def _write_links(path: Path, links: dict, g_sm_db: float, p_tx_dbm: float):
    """Write the links table ``links`` (``RunResult``) as ``links.csv``.

    Each row reads ``ms_id,sector_id`` as ``%d``, the six per-site terms of
    the sector's site, ``g_tx``, ``g_sm``, ``coupling_loss`` and ``p_rx``,
    every float as ``%.10g`` and ``is_los`` as ``%d``.  ``p_rx``, derived as
    the ids and ``g_sm`` are, is ``coupling_loss + p_tx_dbm``: the add by
    which the drops form GM's P_rx, so its bits.  The rows go out in blocks
    of whole stations, about ``_WRITE_BLOCK_ROWS`` rows each.  A block
    formats the per-site text of each (station, site) pair once, by one
    ``%`` call, and puts it into the rows of the site's sectors as one
    ``%s`` field.  The block's rows are then formatted by one ``%`` call
    that fills four fields a row, the site text, ``g_tx``, ``coupling_loss``
    and ``p_rx``, from ``ndarray.tolist()`` values.  The rest of each row is
    literal text of the block's format: the ``sector_id`` digits and the
    ``g_sm`` text, written once per call into the row tails of one station,
    and the ``ms_id``, joined as ``str(ms)`` in front of each tail once per
    station.  ``str`` of a Python int is the text ``%d`` gives it.  The id
    goes in as the separator of a join, not in place of a placeholder, so no
    formatted number can be taken for where it goes.  Every value is thus
    formatted by its column's own field from a Python float, int or bool, so
    the bytes equal those of formatting each value alone with
    ``f"{v:.10g}"`` or ``str(int(v))``: ``%`` and ``format`` share CPython's
    float-to-text conversion (``nan``, ``inf`` and ``-0`` included), and
    ``%d`` of a Python int or bool is its decimal digits.  A formatted number
    holds no ``%`` or line break, so the ids and the ``g_sm`` text are safe
    in a format and each pair's text is one line of its block's.
    The file is written under a temporary name and moved into place whole.
    """
    n_ms, n_sites = links["d_2d"].shape
    n_sectors = links["g_tx"].shape[1]
    per_site = n_sectors // n_sites
    site_fmt = "%.10g,%.10g,%d,%.10g,%.10g,%.10g\n"
    g_sm = "%.10g" % float(g_sm_db)
    # a station's rows but their ms_id: str(ms).join(tails) puts the id in
    # front of each tail, the leading "" giving the first row its id
    tails = ["", *(f",{s},%s,%.10g,{g_sm},%.10g,%.10g\n" for s in range(n_sectors))]
    step = max(1, _WRITE_BLOCK_ROWS // n_sectors)
    with _replacing(path) as fh:
        fh.write(",".join(LINK_CSV_COLUMNS) + "\n")
        for lo in range(0, n_ms, step):
            hi = min(lo + step, n_ms)
            n_pairs, n_rows = (hi - lo) * n_sites, (hi - lo) * n_sectors
            site_values = [None] * (n_pairs * 6)
            for k, key in enumerate(_SITE_TERMS):
                site_values[k::6] = links[key][lo:hi].ravel().tolist()
            texts = (site_fmt * n_pairs % tuple(site_values)).splitlines()
            # four fields a row: the site text and the sector terms
            values = [None] * (n_rows * 4)
            for k in range(per_site):  # sector k of each site takes the site's text
                values[4 * k::4 * per_site] = texts
            for k, key in enumerate(_SECTOR_TERMS, 1):
                values[k::4] = links[key][lo:hi].ravel().tolist()
            values[3::4] = (links["coupling_loss"][lo:hi] + p_tx_dbm).ravel().tolist()
            rows = "".join([str(ms).join(tails) for ms in range(lo, hi)])
            fh.write(rows % tuple(values))


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
        _write_links(path, result.links, result.config.g_sm_db, result.power.p_tx_dbm)
        written.append(path)
    return written
