"""Scenario configuration, seeded Monte Carlo orchestration and result persistence.

A scenario is one (carrier, power scheme, environment) experiment.  Each of
its drops derives independent named random substreams from the master seed,
so results are bit-identical regardless of worker count or drop execution
order.
"""

from __future__ import annotations

import dataclasses
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

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
        # None leaves bandwidth_hz and tx_power_dbm to the carrier table
        for name, value in (("f_c_ghz", self.f_c_ghz),
                            ("bandwidth_hz", self.bandwidth_hz),
                            ("deployment.isd_m", dep.isd_m),
                            ("deployment.bs_height_m", dep.bs_height_m),
                            ("deployment.ms_height_m", dep.ms_height_m)):
            if value is not None and not (np.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if self.power_scheme not in ("scaled", "constant"):
            raise ConfigError(
                f"power_scheme must be 'scaled' or 'constant', got {self.power_scheme!r}")
        if self.environment not in ("outdoor", "indoor"):
            raise ConfigError(
                f"environment must be 'outdoor' or 'indoor', got {self.environment!r}")
        if self.n_drops < 1:
            raise ConfigError(f"n_drops must be >= 1, got {self.n_drops}")
        if self.ms_per_sector < 1:
            raise ConfigError(f"ms_per_sector must be >= 1, got {self.ms_per_sector}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name in ("noise_figure_db", "g_sm_db", "ms_gain_dbi", "tx_power_dbm"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        for name in ("min_distance_m", "indoor_depth_max_m"):
            value = getattr(dep, name)
            if not (np.isfinite(value) and value >= 0):
                raise ConfigError(
                    f"deployment.{name} must be non-negative and finite, got {value}")
        circumradius = dep.isd_m / np.sqrt(3.0)
        if dep.min_distance_m >= circumradius:
            raise ConfigError(
                f"deployment.min_distance_m must be below the cell circumradius "
                f"isd_m/sqrt(3) = {circumradius:g} m, got {dep.min_distance_m}")
        if not 1 <= dep.floor_count_min <= dep.floor_count_max:
            raise ConfigError("deployment.floor_count_min/max must satisfy "
                              "1 <= min <= max")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a mapping, got {type(data).__name__}")
        d = dict(data)
        _reject_unknown(cls, d, "")
        if "deployment" in d and d["deployment"] is not None:
            d["deployment"] = _sub_from_dict(DeploymentParams, d["deployment"], "deployment")
        if "propagation" in d and d["propagation"] is not None:
            sub = dict(d["propagation"])
            for pair in ("glass_loss_db", "irr_glass_loss_db", "concrete_loss_db"):
                if pair in sub:
                    sub[pair] = tuple(float(v) for v in sub[pair])
            if sub.get("oxygen_delta_db_per_km") is not None:
                sub["oxygen_delta_db_per_km"] = {
                    float(k): float(v)
                    for k, v in sub["oxygen_delta_db_per_km"].items()}
            d["propagation"] = _sub_from_dict(PropagationParams, sub, "propagation")
        if "antenna" in d and d["antenna"] is not None:
            d["antenna"] = _sub_from_dict(AntennaPattern, d["antenna"], "antenna")
        return cls(**d)


def _reject_unknown(cls, data: dict, prefix: str):
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        where = f"{prefix}." if prefix else ""
        raise ConfigError(f"unknown config field(s): {[where + u for u in unknown]}")


def _sub_from_dict(cls, data, prefix: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{prefix} must be a mapping, got {type(data).__name__}")
    _reject_unknown(cls, data, prefix)
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {prefix} config: {exc}") from exc


def load_config(path) -> ScenarioConfig:
    """Read a YAML (or JSON) scenario file and validate it."""
    with open(path) as fh:
        data = yaml.safe_load(fh)
    cfg = ScenarioConfig.from_dict(data)
    cfg.validate()
    return cfg


@dataclass
class RunResult:
    """Everything produced by one scenario run."""

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


def _wrap_angle_deg(x):
    # wrap to (-180, 180]
    return 180.0 - np.mod(180.0 - np.asarray(x, dtype=float), 360.0)


def _simulate_drop(config: ScenarioConfig, dep, alloc, noise_total_dbm: float,
                   threshold_db: float, params: PropagationParams,
                   drop_index: int, collect_links: bool) -> dict:
    depcfg = config.deployment
    count = config.ms_per_sector * dep.n_sectors
    indoor = config.environment == "indoor"
    f_hz = config.f_c_ghz * 1e9

    mss = deployment_mod.drop_mobiles(
        dep, config.environment, count, _stream(config.seed, drop_index, 0),
        ms_height_m=depcfg.ms_height_m, min_distance_m=depcfg.min_distance_m,
        indoor_depth_max_m=depcfg.indoor_depth_max_m,
        floor_count_min=depcfg.floor_count_min,
        floor_count_max=depcfg.floor_count_max)
    ms_xy = np.array([m.position for m in mss])
    h_ms = np.array([m.height_m for m in mss])
    d2din = np.array([m.indoor_depth_m for m in mss])

    disp, d2d = deployment_mod.wrap_displacements(dep, ms_xy)  # (n, s, 2), (n, s)
    # LoS is drawn on the outdoor distance d_2D-out (TR 38.901 Table 7.4.2-1)
    is_los = (_stream(config.seed, drop_index, 1).uniform(size=d2d.shape)
              < propagation.los_probability(np.maximum(d2d - d2din[:, None], 0.0)))
    draws = propagation.draw_shadows(_stream(config.seed, drop_index, 2),
                                     d2d.shape, params)

    dz = h_ms[:, None] - dep.sites[0].height_m
    d3d = np.hypot(d2d, dz)
    pl = np.where(is_los,
                  propagation.pl_los_ci(f_hz, d3d, draws.x_los_db, params),
                  propagation.pl_nlos_abg(config.f_c_ghz, d3d, draws.x_nlos_db, params))
    if indoor:
        # keep the in-building segment within the link's horizontal distance
        d2din_link = np.minimum(d2din[:, None], d2d)
        l_o2i = propagation.o2i_loss(config.f_c_ghz, d2din_link,
                                     draws.x_o2i_low_db, draws.x_o2i_high_db, params)
    else:
        l_o2i = np.zeros_like(d3d)
    l_oa = propagation.oxygen_absorption(f_hz, d3d, params)

    theta = np.degrees(np.arccos(np.clip(dz / d3d, -1.0, 1.0)))
    azimuth = np.degrees(np.arctan2(disp[:, :, 1], disp[:, :, 0]))
    boresights = np.asarray(deployment_mod.SECTOR_BORESIGHTS_DEG)
    phi = _wrap_angle_deg(azimuth[:, :, None] - boresights[None, None, :])
    g_tx = antenna_mod.sector_gain(config.antenna, theta[:, :, None], phi)  # (n, s, 3)
    g_rx = antenna_mod.ms_gain(config.ms_gain_dbi)

    # sector axis is site-major so flattening matches global sector ids
    cl = linkbudget.coupling_loss(g_tx, g_rx, pl[:, :, None], l_o2i[:, :, None],
                                  l_oa[:, :, None], config.g_sm_db)
    cl = cl.reshape(count, -1)
    if not np.isfinite(cl).all():
        ms_i, sec_i = np.argwhere(~np.isfinite(cl))[0]
        raise RuntimeError(
            f"non-finite coupling loss (drop {drop_index}, ms {ms_i}, sector {sec_i})")

    p_rx = alloc.p_tx_dbm + cl
    serving = np.argmax(cl, axis=1)  # ties resolve to the lowest sector id
    serving_cl = np.take_along_axis(cl, serving[:, None], axis=1)[:, 0]
    gm = metrics.geometry_metric(p_rx, serving, noise_total_dbm)
    out = {
        "serving_cl": serving_cl,
        "gm": gm,
        "noise_limited": serving_cl < threshold_db,
        "serving": serving,
    }
    if collect_links:
        n_sec = cl.shape[1]

        def rep(a):  # expand per-site columns to the 3 sectors of each site
            return np.repeat(a, 3, axis=1).reshape(-1)

        out["links"] = {
            "ms_id": np.repeat(drop_index * count + np.arange(count), n_sec),
            "sector_id": np.tile(np.arange(n_sec), count),
            "d_2d": rep(d2d),
            "d_3d": rep(d3d),
            "is_los": rep(is_los).astype(int),
            "pl": rep(pl),
            "l_o2i": rep(l_o2i),
            "l_oa": rep(l_oa),
            "g_tx": g_tx.reshape(-1),
            "g_sm": np.full(count * n_sec, config.g_sm_db),
            "coupling_loss": cl.reshape(-1),
            "p_rx": p_rx.reshape(-1),
        }
    return out


def run_scenario(config: ScenarioConfig, workers: int = 1,
                 collect_links: bool = False) -> RunResult:
    """Run all drops of one scenario and aggregate CL and GM CDFs.

    ``workers`` parallelises over drops; any worker count yields
    bit-identical results.
    """
    config.validate()
    t0 = time.perf_counter()
    dep = deployment_mod.generate_layout(
        config.deployment.isd_m, config.deployment.bs_height_m,
        config.antenna.downtilt_deg)
    alloc = linkbudget.power_allocation(config.power_scheme, config.f_c_ghz,
                                        config.bandwidth_hz, config.tx_power_dbm)
    noise_total = linkbudget.noise_power(alloc.bandwidth_hz, config.noise_figure_db)
    threshold = linkbudget.cl_snr0_threshold(alloc.p_tx_dbm, noise_total)
    params = _resolved_propagation(config)

    def one(drop_index):
        return _simulate_drop(config, dep, alloc, noise_total, threshold,
                              params, drop_index, collect_links)

    drop_ids = range(config.n_drops)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_drop = list(pool.map(one, drop_ids))
    else:
        per_drop = [one(d) for d in drop_ids]

    cl_samples = np.concatenate([r["serving_cl"] for r in per_drop])
    gm_samples = np.concatenate([r["gm"] for r in per_drop])
    noise_limited = np.concatenate([r["noise_limited"] for r in per_drop])
    links = None
    if collect_links:
        links = {
            key: np.concatenate([r["links"][key] for r in per_drop])
            for key in linkbudget.LINK_CSV_COLUMNS
        }
    frac_nl = float(noise_limited.mean())
    return RunResult(
        config=config,
        cl_cdf=metrics.empirical_cdf(cl_samples),
        gm_cdf=metrics.empirical_cdf(gm_samples),
        drop_seeds=[drop_seed_id(config.seed, d) for d in drop_ids],
        regime_fractions={NOISE_LIMITED: frac_nl,
                          INTERFERENCE_LIMITED: 1.0 - frac_nl},
        power=alloc,
        noise_total_dbm=float(noise_total),
        cl_snr0_threshold_db=float(threshold),
        runtime_s=time.perf_counter() - t0,
        links=links,
    )


def run_sweep(base_config: ScenarioConfig, frequencies, schemes,
              workers: int = 1) -> list[SweepEntry]:
    """Cartesian product of scenario runs over carriers and power schemes.

    Each run's seed derives from (base seed, carrier); a failing run is
    recorded in its entry and the sweep continues.
    """
    frequencies = list(frequencies)
    schemes = list(schemes)
    if not frequencies or not schemes:
        raise ConfigError("frequencies and schemes must be non-empty")
    entries = []
    for f_c in frequencies:
        for scheme in schemes:
            cfg = replace(base_config, f_c_ghz=float(f_c), power_scheme=scheme,
                          seed=sweep_seed(base_config.seed, float(f_c)))
            try:
                entries.append(SweepEntry(float(f_c), scheme,
                                          run_scenario(cfg, workers=workers), None))
            except Exception as exc:  # keep sweeping, report per run
                entries.append(SweepEntry(float(f_c), scheme, None,
                                          f"{type(exc).__name__}: {exc}"))
    return entries


# Rows per formatting call of _write_table: large enough that the per-call
# cost vanishes, small enough that one block's Python floats stay a few MB.
_WRITE_BLOCK_ROWS = 4096


def _write_table(path: Path, header, columns):
    """Write equal-length 1-D ``columns`` as CSV rows under a ``header`` line.

    Integer and bool columns print as ``%d`` and float columns as ``%.10g``.
    The rows go out a block at a time: the block's values are interleaved
    by row from ``ndarray.tolist()`` and formatted by one ``%`` call on the
    row format repeated once per row.  The bytes equal those of formatting
    each value alone with ``f"{v:.10g}"`` or ``str(int(v))``: ``%`` and
    ``format`` share CPython's float-to-text conversion (``nan``, ``inf``
    and ``-0`` included), and ``%d`` of a Python int or bool is its
    decimal digits.
    """
    n_cols = len(columns)
    row_fmt = ",".join("%.10g" if col.dtype.kind == "f" else "%d"
                       for col in columns) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _WRITE_BLOCK_ROWS):
            block = [col[start:start + _WRITE_BLOCK_ROWS].tolist() for col in columns]
            values = [None] * (len(block[0]) * n_cols)
            for j, vals in enumerate(block):
                values[j::n_cols] = vals
            fh.write(row_fmt * len(block[0]) % tuple(values))


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
    path.write_text(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
                    + "\n")
    written.append(path)

    if result.links is not None:
        path = outdir / "links.csv"
        cols = linkbudget.LINK_CSV_COLUMNS
        _write_table(path, cols, [result.links[c] for c in cols])
        written.append(path)
    return written
