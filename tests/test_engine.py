import collections
import concurrent.futures
import dataclasses
import importlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from numpy.testing import assert_allclose

import mmwsim
import mmwsim.engine as engine
from mmwsim import checks, linkbudget, propagation
from mmwsim import (AntennaPattern, ConfigError, MobileDrop, PropagationParams,
                    ScenarioConfig, ShadowDraws, drop_mobiles, generate_layout, in_footprint,
                    link_budget, load_config, los_probability, run_scenario, run_sweep,
                    save_results, sector_gain, wrap_displacements)
from mmwsim.deployment import _MAX_SAMPLE_ROUNDS, SECTOR_BORESIGHTS_DEG, _expected_sample_rounds
from mmwsim.engine import (_SECTOR_TERMS, _SITE_TERMS, _WRITE_BLOCK_ROWS, DeploymentParams,
                           _stream, _write_links, sweep_seed)
from mmwsim.linkbudget import LINK_CSV_COLUMNS
from mmwsim.metrics import CdfSeries


def small(**kw):
    base = dict(f_c_ghz=30.0, n_drops=3, seed=11)
    base.update(kw)
    return ScenarioConfig(**base)


def test_validation_messages():
    # each case builds its kwargs lazily: an invalid block refuses itself
    cases = [
        (lambda: dict(f_c_ghz=0.0), "f_c_ghz"),
        (lambda: dict(power_scheme="boosted"), "power_scheme"),
        (lambda: dict(environment="space"), "environment"),
        (lambda: dict(n_drops=0), "n_drops"),
        (lambda: dict(ms_per_sector=0), "ms_per_sector"),
        (lambda: dict(seed=-1), "seed"),
        (lambda: dict(g_sm_db=float("inf")), "g_sm_db"),
        (lambda: dict(deployment=DeploymentParams(isd_m=-1.0)), "isd_m"),
        (lambda: dict(deployment=DeploymentParams(floor_count_min=9)), "floor_count"),
        (lambda: dict(bandwidth_hz=0.0), "bandwidth_hz"),
        (lambda: dict(deployment=DeploymentParams(ms_height_m=0.0)), "ms_height_m"),
        (lambda: dict(deployment=DeploymentParams(min_distance_m=115.5)), "min_distance_m"),
        (lambda: dict(deployment=DeploymentParams(min_distance_m=-1.0)),
         r"deployment.min_distance_m must lie in \[0, inf\)"),
        (lambda: dict(deployment=DeploymentParams(indoor_depth_max_m=-0.5)),
         r"deployment.indoor_depth_max_m must lie in \[0, inf\)"),
        # links below the 1 m close-in reference distance: d_3d = 0.1 m, a
        # station on floor 4 level with a 10.5 m BS, and 0.943 m indoors
        (lambda: dict(deployment=DeploymentParams(bs_height_m=1.6, ms_height_m=1.5,
                                                  min_distance_m=0.0)), "min_distance_m"),
        (lambda: dict(environment="indoor",
                      deployment=DeploymentParams(bs_height_m=10.5, min_distance_m=0.0)),
         "min_distance_m"),
        (lambda: dict(environment="indoor", deployment=DeploymentParams(min_distance_m=0.8)),
         "min_distance_m"),
        # each int and float field holds its type, nested blocks included
        (lambda: dict(n_drops=True), "n_drops"),
        (lambda: dict(bandwidth_hz="1e9"), "bandwidth_hz"),
        (lambda: dict(deployment=DeploymentParams(isd_m="200")), "deployment.isd_m"),
        (lambda: dict(propagation=PropagationParams(ci_ple_coeff="21")),
         "propagation.ci_ple_coeff"),
        (lambda: dict(antenna=AntennaPattern(g_max_dbi=True)), "antenna.g_max_dbi"),
        # dB settings that reach 10 ** (x / 10) stay within +-1000 dB
        (lambda: dict(tx_power_dbm=1.0e20), "tx_power_dbm"),
        (lambda: dict(noise_figure_db=-1001.0), "noise_figure_db"),
        (lambda: dict(g_sm_db=1.0e4), "g_sm_db"),
        (lambda: dict(ms_gain_dbi=float("nan")), "ms_gain_dbi"),
        (lambda: dict(antenna=AntennaPattern(g_max_dbi=1.0e300)), "antenna.g_max_dbi"),
        # every number is finite, the loss pairs and oxygen table included
        (lambda: dict(propagation=PropagationParams(sigma_nlos_db=float("nan"))),
         "propagation.sigma_nlos_db"),
        (lambda: dict(antenna=AntennaPattern(downtilt_deg=float("inf"))),
         "antenna.downtilt_deg"),
        (lambda: dict(propagation=PropagationParams(glass_loss_db=(2.0, float("inf")))),
         "propagation.glass_loss_db"),
        (lambda: dict(propagation=PropagationParams(irr_glass_loss_db=[23.0, 0.3])),
         "propagation.irr_glass_loss_db"),
        (lambda: dict(propagation=PropagationParams(
            oxygen_delta_db_per_km={float("nan"): 1.0})),
         "propagation.oxygen_delta_db_per_km"),
        (lambda: dict(deployment=DeploymentParams(indoor_depth_max_m=float("inf"))),
         "deployment.indoor_depth_max_m"),
        # layout lengths stay within 1,000 km
        (lambda: dict(deployment=DeploymentParams(isd_m=1.0e7, min_distance_m=0.0)),
         "deployment.isd_m"),
        (lambda: dict(deployment=DeploymentParams(bs_height_m=2.0e6)),
         "deployment.bs_height_m"),
        # a carrier off the table needs its bandwidth and, scaled, its power
        (lambda: dict(f_c_ghz=73.0), "bandwidth_hz"),
        (lambda: dict(f_c_ghz=73.0, bandwidth_hz=2e9), "tx_power_dbm"),
        # each propagation and antenna constant lies in its physical range
        (lambda: dict(propagation=PropagationParams(abg_beta_db=-1.0e300)),
         "propagation.abg_beta_db"),
        (lambda: dict(propagation=PropagationParams(abg_alpha=1.0e300)),
         "propagation.abg_alpha"),
        (lambda: dict(propagation=PropagationParams(abg_gamma=10.5)), "propagation.abg_gamma"),
        (lambda: dict(propagation=PropagationParams(ci_ple_coeff=-5.0)),
         "propagation.ci_ple_coeff"),
        (lambda: dict(propagation=PropagationParams(ci_ple_coeff=100.5)),
         "propagation.ci_ple_coeff"),
        (lambda: dict(propagation=PropagationParams(sigma_nlos_db=1000.5)),
         "propagation.sigma_nlos_db"),
        (lambda: dict(propagation=PropagationParams(sigma_o2i_high_db=1.0e4)),
         "propagation.sigma_o2i_high_db"),
        (lambda: dict(propagation=PropagationParams(concrete_loss_db=(5.0, -1.0e4))),
         "propagation.concrete_loss_db"),
        (lambda: dict(propagation=PropagationParams(indoor_loss_rate_db_per_m=1.0e6)),
         "propagation.indoor_loss_rate_db_per_m"),
        (lambda: dict(propagation=PropagationParams(oxygen_delta_db_per_km={60.0: -1.0e4})),
         "propagation.oxygen_delta_db_per_km"),
        (lambda: dict(antenna=AntennaPattern(hpbw_v_deg=360.5)), "antenna.hpbw_v_deg"),
        (lambda: dict(antenna=AntennaPattern(hpbw_h_deg=1.0e300)), "antenna.hpbw_h_deg"),
        (lambda: dict(antenna=AntennaPattern(downtilt_deg=-10.0)), "antenna.downtilt_deg"),
        (lambda: dict(antenna=AntennaPattern(downtilt_deg=270.0)), "antenna.downtilt_deg"),
        (lambda: dict(antenna=AntennaPattern(sla_v_db=1.0e300)), "antenna.sla_v_db"),
        (lambda: dict(antenna=AntennaPattern(front_back_db=1000.5)), "antenna.front_back_db"),
        # a block field holds its block; it used to end in a raw TypeError
        (lambda: dict(deployment={"isd_m": 100.0}),
         "^deployment must be a DeploymentParams, got dict$"),
    ]
    for kw, field in cases:
        with pytest.raises(ConfigError, match=field):
            small(**kw())


def test_construction_accepts_the_length_bound_and_carriers_off_the_table():
    small(deployment=DeploymentParams(isd_m=1.0e6, bs_height_m=1.0e6))
    small(deployment=DeploymentParams(ms_height_m=1.0e6))
    small(f_c_ghz=73.0, bandwidth_hz=2e9, tx_power_dbm=50.0)
    small(f_c_ghz=73.0, bandwidth_hz=2e9, power_scheme="constant")


def test_construction_accepts_links_of_1m_and_more():
    # the default indoor layout: the closest floor (10.5 m) is 0.5 m from the
    # 10 m BS, and 10 m clearance keeps every d_3d above 10 m
    small(environment="indoor")
    near = DeploymentParams(bs_height_m=1.6, ms_height_m=1.5, min_distance_m=1.0)
    small(deployment=near)
    small(environment="indoor", deployment=near)
    # floor 4 (10.5 m) meets a 10.5 m BS only where buildings reach it
    level = DeploymentParams(bs_height_m=10.5, min_distance_m=0.0)
    small(deployment=level)
    small(environment="indoor",
          deployment=replace(level, floor_count_min=3, floor_count_max=3))


def test_construction_refuses_bad_values_through_replace():
    cfg = small()
    for kw, field in ((dict(seed=-1), r"^seed must lie in \[0, inf\), got -1$"),
                      (dict(f_c_ghz=73.0), "set bandwidth_hz$"),
                      (dict(power_scheme="boosted"), "^power_scheme must be ")):
        with pytest.raises(ConfigError, match=field):
            replace(cfg, **kw)
    assert replace(cfg, seed=12).seed == 12


def test_construction_calls_no_layer_function(monkeypatch, tmp_path):
    # perfbench's tracer wraps every public function of a layer module in a
    # span, so building a config outside a traced run must call none of them
    from mmwsim import linkbudget

    def refuse(*args, **kwargs):
        raise AssertionError("power_allocation called while building a config")

    monkeypatch.setattr(linkbudget, "power_allocation", refuse)
    cfg = small(f_c_ghz=73.0, bandwidth_hz=2e9, tx_power_dbm=50.0)
    replace(cfg, power_scheme="constant", tx_power_dbm=None)
    with pytest.raises(ConfigError, match="set tx_power_dbm$"):
        replace(cfg, tx_power_dbm=None)
    with pytest.raises(ConfigError, match="^power_scheme must be "):
        small(power_scheme="boosted")
    path = tmp_path / "s.yaml"
    path.write_text("f_c_ghz: 60.0\nenvironment: indoor\n")
    assert load_config(path).f_c_ghz == 60.0
    path.write_text("f_c_ghz: 73.0\n")
    with pytest.raises(ConfigError, match="set bandwidth_hz$"):
        load_config(path)


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="carrier"):
        ScenarioConfig.from_dict({"carrier": 2.0})
    with pytest.raises(ConfigError, match="antenna.tilt"):
        ScenarioConfig.from_dict({"antenna": {"tilt": 90.0}})
    # YAML keys need not be strings; they used to end in a raw TypeError
    with pytest.raises(ConfigError, match=r"\['1', 'carrier'\]"):
        ScenarioConfig.from_dict({1: 2.0, "carrier": 2.0})


@pytest.mark.parametrize("key, value", [("oxygen_absorption", False),
                                        ("o2i_sigma_as_stddev", True)])
def test_from_dict_refuses_the_removed_propagation_switches(key, value):
    # oxygen off and the stddev reading of the O2I spreads are block fields
    with pytest.raises(ConfigError, match=rf"unknown config field\(s\): \['{key}'\]"):
        ScenarioConfig.from_dict({key: value})


def test_checked_oxygen_table_is_read_only():
    # a changed table would make the checked config invalid after the fact
    cfg = ScenarioConfig(f_c_ghz=60.0, n_drops=1, ms_per_sector=1)
    table = cfg.propagation.oxygen_delta_db_per_km
    with pytest.raises(TypeError, match="read-only"):
        table[60.0] = float("nan")
    for change in (lambda: table.update({60.0: 1.0}), lambda: table.pop(60.0),
                   lambda: table.clear(), lambda: table.setdefault(2.0, 1.0),
                   lambda: table.popitem(), lambda: table.__delitem__(60.0),
                   lambda: table.__ior__({2.0: 1.0})):
        with pytest.raises(TypeError, match="read-only"):
            change()
    assert table == {60.0: 15.0}
    assert hash(cfg) == hash(ScenarioConfig(f_c_ghz=60.0, n_drops=1, ms_per_sector=1))
    assert type(cfg.to_dict()["propagation"]["oxygen_delta_db_per_km"]) is dict


def test_config_yaml_roundtrip(tmp_path):
    cfg = ScenarioConfig(f_c_ghz=60.0, environment="indoor", seed=77,
                         propagation=PropagationParams(sigma_o2i_low_db=3.0,
                                                       sigma_o2i_high_db=5.0))
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(cfg.to_dict()))
    assert load_config(path) == cfg


def test_partial_config_file(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text("f_c_ghz: 10.0\nenvironment: indoor\nseed: 3\n")
    cfg = load_config(path)
    assert cfg.f_c_ghz == 10.0
    assert cfg.environment == "indoor"
    assert cfg.n_drops == 20  # default


def test_documented_configs_load(tmp_path):
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    section = readme[readme.index("## Running scenarios"):]
    start = section.index("```yaml\n") + len("```yaml\n")
    example = tmp_path / "readme.yaml"
    example.write_text(section[start:section.index("```", start)])
    configs = sorted((root / "configs").glob("*.yaml"))
    assert configs
    for path in [*configs, example]:
        load_config(path)


def test_every_config_field_has_a_rule_and_every_range_a_field():
    # check_fields looks each range up by dotted name, so a misspelt
    # RANGES key would leave its field unbounded without any error
    blocks = [("", ScenarioConfig)] + [(f"{f.name}.", engine._BLOCKS[f.type])
                                       for f in dataclasses.fields(ScenarioConfig)
                                       if f.type in engine._BLOCKS]
    assert [prefix for prefix, _ in blocks] == ["", "deployment.", "propagation.",
                                                "antenna."]
    names = {prefix + f.name for prefix, cls in blocks for f in dataclasses.fields(cls)}
    assert set(checks.RANGES) <= names, set(checks.RANGES) - names
    # ScenarioConfig.__post_init__ checks the two str fields itself
    unruled = [prefix + f.name for prefix, cls in blocks for f in dataclasses.fields(cls)
               if f.type not in checks.FIELD_TYPES and f.type not in engine._BLOCKS]
    assert unruled == ["power_scheme", "environment"]
    # and every rule is some field's: a rule left behind by a deleted field is dead
    used = {f.type for _, cls in blocks for f in dataclasses.fields(cls)}
    assert set(checks.FIELD_TYPES) <= used, set(checks.FIELD_TYPES) - used


def test_sample_counts():
    res = run_scenario(small(n_drops=4))
    assert res.cl_cdf.n == 4 * 57 * 10
    assert res.gm_cdf.n == 4 * 57 * 10
    res = run_scenario(small(n_drops=2, ms_per_sector=3))
    assert res.gm_cdf.n == 2 * 57 * 3


def test_worker_count_does_not_change_results():
    cfg = small(n_drops=5)
    a = run_scenario(cfg, workers=1)
    b = run_scenario(cfg, workers=4)
    assert np.array_equal(a.cl_cdf.samples, b.cl_cdf.samples)
    assert np.array_equal(a.gm_cdf.samples, b.gm_cdf.samples)
    assert a.regime_fractions == b.regime_fractions
    assert a.drop_seeds == b.drop_seeds


def test_seed_changes_results():
    a = run_scenario(small(seed=1))
    b = run_scenario(small(seed=2))
    assert not np.array_equal(a.cl_cdf.samples, b.cl_cdf.samples)
    assert a.drop_seeds != b.drop_seeds


def test_schemes_identical_at_2ghz():
    a = run_scenario(small(f_c_ghz=2.0, power_scheme="scaled"))
    b = run_scenario(small(f_c_ghz=2.0, power_scheme="constant"))
    assert np.array_equal(a.gm_cdf.samples, b.gm_cdf.samples)
    assert np.array_equal(a.cl_cdf.samples, b.cl_cdf.samples)


def test_coupling_loss_is_scheme_independent():
    a = run_scenario(small(f_c_ghz=60.0, power_scheme="scaled"))
    b = run_scenario(small(f_c_ghz=60.0, power_scheme="constant"))
    assert np.array_equal(a.cl_cdf.samples, b.cl_cdf.samples)
    assert not np.array_equal(a.gm_cdf.samples, b.gm_cdf.samples)


def test_received_power_shifts_by_tx_power_between_schemes():
    a = run_scenario(small(f_c_ghz=60.0, power_scheme="scaled", n_drops=1),
                     collect_links=True)
    b = run_scenario(small(f_c_ghz=60.0, power_scheme="constant", n_drops=1),
                     collect_links=True)
    delta = a.power.p_tx_dbm - b.power.p_tx_dbm
    assert delta == 61.0 - 44.0
    assert np.array_equal(a.links["p_rx"] - b.links["p_rx"],
                          np.full_like(a.links["p_rx"], delta))


def test_oxygen_toggle_shifts_cl_down():
    on = run_scenario(small(f_c_ghz=60.0))
    off = run_scenario(small(f_c_ghz=60.0,
                             propagation=PropagationParams(oxygen_delta_db_per_km={})))
    assert on.cl_cdf.median() < off.cl_cdf.median()
    # same geometry and draws: every sample is weaker with absorption on
    assert np.all(on.cl_cdf.samples <= off.cl_cdf.samples + 1e-12)


def test_o2i_sigma_reading_switch():
    # the stddev reading of the O2I spreads 3 and 5 against the default variances
    stddev = PropagationParams(sigma_o2i_low_db=3.0, sigma_o2i_high_db=5.0)
    a = run_scenario(small(environment="indoor"))
    b = run_scenario(small(environment="indoor", propagation=stddev))
    assert not np.array_equal(a.cl_cdf.samples, b.cl_cdf.samples)
    # outdoors the O2I spread never enters
    c = run_scenario(small(environment="outdoor"))
    d = run_scenario(small(environment="outdoor", propagation=stddev))
    assert np.array_equal(c.cl_cdf.samples, d.cl_cdf.samples)


def test_threshold_matches_power_and_noise():
    res = run_scenario(small(f_c_ghz=60.0, power_scheme="constant", n_drops=1))
    assert res.cl_snr0_threshold_db == res.noise_total_dbm - res.power.p_tx_dbm


def test_links_table_invariants():
    res = run_scenario(small(environment="indoor", f_c_ghz=60.0, n_drops=2),
                       collect_links=True)
    L = res.links
    n_ms = 2 * 570
    assert {c: L[c].shape for c in L} == {**dict.fromkeys(_SITE_TERMS, (n_ms, 19)),
                                          **dict.fromkeys(_SECTOR_TERMS, (n_ms, 57))}
    # the per-site terms span the 3 sectors of their site
    pl, l_o2i, l_oa = (np.repeat(L[c], 3, axis=1) for c in ("pl", "l_o2i", "l_oa"))
    lhs = L["coupling_loss"]
    rhs = L["g_tx"] + 0.0 - (pl + l_o2i + l_oa - res.config.g_sm_db)
    assert np.array_equal(lhs, rhs)
    assert np.array_equal(L["p_rx"], res.power.p_tx_dbm + L["coupling_loss"])
    assert np.all(L["d_3d"] >= L["d_2d"])
    assert L["is_los"].dtype == bool and set(np.unique(L["is_los"])) <= {0, 1}
    # serving samples are the per-station maxima of the link table
    cl = L["coupling_loss"]
    per_ms_max = cl.max(axis=1)
    assert np.array_equal(np.sort(per_ms_max), res.cl_cdf.samples)
    # every station associates to exactly one sector: 10 per sector on average
    serving = cl.argmax(axis=1)
    counts = np.bincount(serving, minlength=57)
    assert counts.sum() == cl.shape[0]
    assert_allclose(counts.mean(), 10.0 * 2)  # 2 drops pooled here


def test_los_is_drawn_on_outdoor_distance():
    # in-building depths far beyond every d_2d (about 500 m at most across the
    # wrap-around cluster) put each whole link indoors: d_2D-out = 0, P_LoS = 1
    deep = DeploymentParams(indoor_depth_max_m=1e9)
    res = run_scenario(small(environment="indoor", n_drops=1, deployment=deep),
                       collect_links=True)
    assert np.all(res.links["is_los"] == 1)
    # outdoor stations have no in-building segment: LoS stays drawn on d_2d
    cfg = small(n_drops=1)
    res = run_scenario(cfg, collect_links=True)
    d2d = res.links["d_2d"]
    assert d2d.shape == (570, 19)
    u = _stream(cfg.seed, 0, 1).uniform(size=d2d.shape)
    assert np.array_equal(res.links["is_los"], u < los_probability(d2d))


def test_saved_outputs(tmp_path):
    res = run_scenario(small(n_drops=2), collect_links=True)
    written = save_results(res, tmp_path)
    names = sorted(p.name for p in written)
    assert names == ["cl_cdf.csv", "gm_cdf.csv", "links.csv", "summary.json"]
    cl_lines = (tmp_path / "cl_cdf.csv").read_text().strip().splitlines()
    assert cl_lines[0] == "value_db,cdf"
    assert len(cl_lines) == res.cl_cdf.n + 1
    assert float(cl_lines[-1].split(",")[1]) == 1.0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["seed"] == 11
    assert summary["n_samples"] == res.cl_cdf.n
    assert set(summary["cl_percentiles_db"]) == {"5", "20", "35", "48", "50",
                                                 "75", "90", "95"}
    assert 0.0 <= summary["gm_fraction_below_0db"] <= 1.0
    fr = summary["regime_fractions"]
    assert_allclose(fr["noise_limited"] + fr["interference_limited"], 1.0)
    header = (tmp_path / "links.csv").read_text().splitlines()[0]
    assert header == ("ms_id,sector_id,d_2d,d_3d,is_los,pl,l_o2i,l_oa,"
                      "g_tx,g_sm,coupling_loss,p_rx")


def reference_csv(header, columns) -> bytes:
    """The per-value formatting rule the CSV writers must reproduce."""
    lines = [",".join(header)]
    lines += [",".join(f"{v:.10g}" if isinstance(v, (float, np.floating))
                       else str(int(v)) for v in row) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode()


def reference_links_csv(links, g_sm_db) -> bytes:
    """``reference_csv`` of the links table ``links``, one entry per
    (station, sector) row: ``ms_id`` and ``sector_id`` from the row and
    column, the per-site terms over the sectors of each site and ``g_sm``
    from the config."""
    n_ms, n_sectors = links["g_tx"].shape
    derived = {"ms_id": np.repeat(np.arange(n_ms), n_sectors),
               "sector_id": np.tile(np.arange(n_sectors), n_ms),
               "g_sm": np.full(n_ms * n_sectors, float(g_sm_db))}
    return reference_csv(LINK_CSV_COLUMNS, [
        derived[c] if c in derived else
        np.repeat(links[c], n_sectors // links[c].shape[1], axis=1).reshape(-1)
        for c in LINK_CSV_COLUMNS])


# the stations of one block of links.csv rows
STATION_BLOCK = _WRITE_BLOCK_ROWS // 57


def random_links(n_stations: int, seed: int) -> dict:
    """A links table of ``n_stations`` stations: magnitudes over 60 decades
    with NaN, infinities, signed zeros and 1e-300 in front."""
    rng = np.random.default_rng(seed)

    def terms(width):
        x = rng.normal(0.0, 1e3, (n_stations, width)) * 10.0 ** rng.integers(
            -30, 30, (n_stations, width))
        x.flat[:6] = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300][:x.size]
        return x
    links = {c: terms(19) for c in _SITE_TERMS}
    links["is_los"] = rng.uniform(size=(n_stations, 19)) < 0.5
    links.update((c, terms(57)) for c in _SECTOR_TERMS)
    return links


def reference_cdf(samples) -> bytes:
    """The per-value rule the CDF files must reproduce."""
    n = len(samples)
    lines = ["value_db,cdf"]
    lines += [f"{v:.10g},{(i + 1) / n:.10g}" for i, v in enumerate(samples)]
    return ("\n".join(lines) + "\n").encode()


def test_saved_outputs_golden_bytes(tmp_path):
    res = run_scenario(small(n_drops=2), collect_links=True)
    save_results(res, tmp_path)
    assert len(res.links["g_tx"]) % STATION_BLOCK != 0  # the last block is short
    assert (tmp_path / "links.csv").read_bytes() == reference_links_csv(
        res.links, res.config.g_sm_db)
    for name, series in (("cl_cdf.csv", res.cl_cdf), ("gm_cdf.csv", res.gm_cdf)):
        assert (tmp_path / name).read_bytes() == reference_cdf(series.samples)


def cdf_samples(n: int) -> np.ndarray:
    """``n`` values, each twice in a row, with signed zeros, NaN and
    infinities first and further NaNs scattered."""
    rng = np.random.default_rng(n)
    samples = np.repeat(rng.normal(80.0, 30.0, n), 2)[:n]
    samples[:6] = [0.0, -0.0, np.nan, np.inf, -np.inf, -0.0][:n]
    samples[rng.integers(0, n, n // 100)] = np.nan
    return samples


@pytest.mark.parametrize("n", [1, _WRITE_BLOCK_ROWS, _WRITE_BLOCK_ROWS + 1,
                               2 * _WRITE_BLOCK_ROWS + 3])
def test_cdf_file_matches_per_value_rule(tmp_path, n):
    samples = cdf_samples(n)
    engine._write_cdf(tmp_path / "cdf.csv", CdfSeries(samples))
    assert (tmp_path / "cdf.csv").read_bytes() == reference_cdf(samples)


def test_cdf_rows_keep_one_size(tmp_path):
    engine._cdf_rows.cache_clear()
    for misses, n in enumerate((_WRITE_BLOCK_ROWS + 1, 7, _WRITE_BLOCK_ROWS + 1), 1):
        samples = cdf_samples(n)
        engine._write_cdf(tmp_path / "cdf.csv", CdfSeries(samples))
        assert (tmp_path / "cdf.csv").read_bytes() == reference_cdf(samples)
        info = engine._cdf_rows.cache_info()
        assert (info.misses, info.currsize) == (misses, 1)


def test_failed_cdf_save_keeps_the_old_file(tmp_path):
    path = tmp_path / "cdf.csv"
    path.write_text("old\n")
    # formatting fails in the second block: %.10g of None
    samples = cdf_samples(2 * _WRITE_BLOCK_ROWS).astype(object)
    samples[_WRITE_BLOCK_ROWS + 2] = None
    with pytest.raises(TypeError):
        engine._write_cdf(path, CdfSeries(samples))
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["cdf.csv"]


def test_sweep_saves_build_the_cdf_rows_once(tmp_path):
    # the 20 CDF files of a 5 x 2 sweep share one sample count
    entries = run_sweep(small(n_drops=1), [2.0, 10.0, 30.0, 60.0, 100.0],
                        ["scaled", "constant"])
    engine._cdf_rows.cache_clear()
    for k, entry in enumerate(entries):
        save_results(entry.result, tmp_path / str(k))
    info = engine._cdf_rows.cache_info()
    assert (info.misses, info.hits) == (1, 19)


@pytest.mark.parametrize("n_stations", [0, 1, STATION_BLOCK, STATION_BLOCK + 1])
def test_write_table_matches_per_value_rule(tmp_path, n_stations):
    links = random_links(n_stations, n_stations)
    path = tmp_path / "links.csv"
    for g_sm_db in (0.0, -0.0, 1e-300, -7.25):
        _write_links(path, links, g_sm_db)
        assert path.read_bytes() == reference_links_csv(links, g_sm_db), g_sm_db


def test_write_table_formats_runs_like_single_values(tmp_path):
    # 2.5 blocks of stations whose terms repeat down the stations in runs
    # of every length from 1 to 9, runs that cross the block edges, signed
    # zeros, NaN, infinities and strides
    n = 2 * STATION_BLOCK + STATION_BLOCK // 2
    rng = np.random.default_rng(8)
    run_of_station = np.repeat(np.arange(n), rng.integers(1, 10, n))[:n]
    assert run_of_station[STATION_BLOCK] == run_of_station[STATION_BLOCK - 1]
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, -2.5, 1 / 3])

    def runs(width):
        return specials[rng.integers(0, len(specials), (n, width))][run_of_station]
    links = {c: runs(19) for c in _SITE_TERMS}
    links["is_los"] = runs(19) > 0
    links["pl"][:3, :2] = [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]]  # zeros of both signs
    links["l_o2i"] = np.zeros((n, 19))
    links["l_oa"] = runs(38)[:, ::2]  # strided
    links.update((c, runs(57)) for c in _SECTOR_TERMS)
    links["p_rx"][:, 3:9] = np.nan  # a run of NaN along a station's sectors
    assert not links["l_oa"].flags.c_contiguous
    for stations in (0, 1, 2, 3, n):
        path = tmp_path / f"t{stations}.csv"
        part = {c: a[:stations] for c, a in links.items()}
        _write_links(path, part, -0.0)
        assert path.read_bytes() == reference_links_csv(part, -0.0), stations


def test_write_table_replaces_files_whole(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("old\n")
    # formatting fails in the second block: %.10g of None
    links = random_links(STATION_BLOCK + 5, 1)
    bad = {**links, "p_rx": links["p_rx"].astype(object)}
    bad["p_rx"][STATION_BLOCK + 2, 7] = None
    with pytest.raises(TypeError):
        _write_links(path, bad, 0.0)
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["t.csv"]
    new = tmp_path / "new.csv"
    with pytest.raises(TypeError):
        _write_links(new, bad, 0.0)
    assert os.listdir(tmp_path) == ["t.csv"]
    one = random_links(1, 2)
    _write_links(path, one, 0.0)
    assert path.read_bytes() == reference_links_csv(one, 0.0)
    assert os.listdir(tmp_path) == ["t.csv"]


def test_failed_save_leaves_no_partial_file(tmp_path):
    res = run_scenario(small(n_drops=1), collect_links=True)
    # formatting fails in the second block of links.csv: %.10g of None
    res.links["p_rx"] = res.links["p_rx"].astype(object)
    res.links["p_rx"][STATION_BLOCK + 1, 0] = None
    with pytest.raises(TypeError):
        save_results(res, tmp_path)
    # the files before links.csv are complete, links.csv is absent
    assert sorted(os.listdir(tmp_path)) == ["cl_cdf.csv", "gm_cdf.csv", "summary.json"]
    assert json.loads((tmp_path / "summary.json").read_text())["n_samples"] == 570


OUTPUT_NAMES = ["cl_cdf.csv", "gm_cdf.csv", "links.csv", "summary.json"]


def _saved_bytes(result, outdir) -> dict:
    save_results(result, outdir)
    assert sorted(os.listdir(outdir)) == OUTPUT_NAMES
    return {name: (outdir / name).read_bytes() for name in OUTPUT_NAMES}


@pytest.fixture(scope="module")
def two_runs():
    return [run_scenario(small(n_drops=1, seed=seed), collect_links=True) for seed in (3, 4)]


@pytest.fixture
def swaps(monkeypatch):
    """The temporary names of the swaps that succeed, where the C library
    has renameat2."""
    done = []
    lookup = engine._libc_function

    def spy(name):
        fn = lookup(name)
        if name != "renameat2" or fn is None:
            return fn

        def counted(*args):
            status = fn(*args)
            if status == 0:
                done.append(Path(os.fsdecode(args[1])).name)
            return status
        return counted

    monkeypatch.setattr(engine, "_libc_function", spy)
    return done


def test_second_save_swaps_in_the_new_bytes(tmp_path, two_runs, swaps):
    old, new = two_runs
    want = _saved_bytes(new, tmp_path / "fresh")
    assert swaps == []  # new names are moved by os.replace
    out = tmp_path / "out"
    first = _saved_bytes(old, out)
    assert _saved_bytes(new, out) == want != first
    # no temporary file and no old content left behind
    assert sorted(os.listdir(out)) == OUTPUT_NAMES
    if engine._libc_function("renameat2") is not None:
        assert sorted(swaps) == [f".{name}.{os.getpid()}.tmp" for name in OUTPUT_NAMES]


@pytest.mark.parametrize("renameat2", [None, lambda *args: -1],
                         ids=["no_renameat2", "swap_fails"])
def test_save_without_exchange_writes_the_same_bytes(tmp_path, monkeypatch, two_runs,
                                                     renameat2):
    # no renameat2 in the C library, or a filesystem that cannot swap
    old, new = two_runs
    want = _saved_bytes(new, tmp_path / "fresh")
    lookup = engine._libc_function
    monkeypatch.setattr(engine, "_libc_function",
                        lambda name: renameat2 if name == "renameat2" else lookup(name))
    out = tmp_path / "out"
    _saved_bytes(old, out)
    assert _saved_bytes(new, out) == want


@pytest.mark.parametrize("race", [False, True], ids=["before_the_save", "after_the_check"])
def test_directory_at_output_name_raises_and_stays(tmp_path, monkeypatch, two_runs, swaps,
                                                   race):
    target = tmp_path / "cl_cdf.csv"
    target.mkdir()
    (target / "keep.txt").write_text("keep\n")
    if race:
        # the check reads a regular file, as if the directory had been made
        # between the check and the swap: the swap is undone
        lstat, file_stat = os.lstat, os.lstat(__file__)
        monkeypatch.setattr(engine.os, "lstat",
                            lambda p, *args, **kw: file_stat if p == target
                            else lstat(p, *args, **kw))
    with pytest.raises(IsADirectoryError):
        save_results(two_runs[0], tmp_path)
    assert os.listdir(tmp_path) == ["cl_cdf.csv"]
    assert os.listdir(target) == ["keep.txt"]
    assert (target / "keep.txt").read_text() == "keep\n"
    if race and engine._libc_function("renameat2") is not None:
        assert swaps == [f".cl_cdf.csv.{os.getpid()}.tmp"] * 2


def test_symlink_at_output_name_becomes_a_file(tmp_path, two_runs):
    want = _saved_bytes(two_runs[0], tmp_path / "fresh")
    target = tmp_path / "target.csv"
    target.write_text("target\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "cl_cdf.csv").symlink_to(target)
    save_results(two_runs[0], out)
    assert not (out / "cl_cdf.csv").is_symlink()
    assert (out / "cl_cdf.csv").read_bytes() == want["cl_cdf.csv"]
    assert target.read_text() == "target\n"
    assert sorted(os.listdir(out)) == OUTPUT_NAMES


def test_links_write_memory_stays_per_block(tmp_path):
    # 2 drops, 64,980 rows: the whole table's text is 6.8 MB
    res = run_scenario(small(f_c_ghz=60.0, environment="indoor", n_drops=2),
                       collect_links=True)
    assert res.links["g_tx"].size == 64_980
    tracemalloc.start()
    try:
        _write_links(tmp_path / "links.csv", res.links, res.config.g_sm_db)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "links.csv").stat().st_size
    assert size > 6e6
    # one block of 71 stations, 4,047 rows, is 0.42 MB of text; with its row
    # format, Python values and site texts the writer peaks at 1.7 MB
    assert peak < 2.5e6, peak


def test_cdf_write_memory_stays_per_block(tmp_path):
    # 3 blocks, 12,288 rows: the file's text is 0.3 MB
    series = CdfSeries(np.sort(np.random.default_rng(1).normal(80.0, 20.0,
                                                               3 * _WRITE_BLOCK_ROWS)))
    path = tmp_path / "cdf.csv"
    engine._write_cdf(path, series)  # builds the cached row formats
    tracemalloc.start()
    try:
        engine._write_cdf(path, series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 3e5
    # one block's 4,096 Python floats with their list and tuple are 0.16 MB
    # and its text 0.1 MB: the writer peaks at 0.26 MB, and at 0.99 MB when
    # it formats the whole file at once
    assert peak < 0.4e6, peak


def test_infeasible_min_distance_raises():
    # min_distance_m above the 115.5 m circumradius at ISD 200 m admits no
    # point: validation rejects it, and the sampler's round budget stops a
    # direct call instead of looping for ever
    with pytest.raises(ConfigError, match="min_distance_m"):
        run_scenario(small(deployment=DeploymentParams(min_distance_m=150.0)))
    with pytest.raises(ConfigError, match="min_distance_m"):
        drop_mobiles(generate_layout(200.0), "outdoor", 57, np.random.default_rng(0),
                     DeploymentParams(min_distance_m=150.0))


@pytest.mark.parametrize("workers", [1, 2])
def test_nonfinite_link_aborts_with_provenance(monkeypatch, workers):
    import mmwsim.propagation as prop

    real = prop.pl_nlos_abg

    def poisoned(f_c_ghz, d_m, x_nlos_db=0.0, params=prop.DEFAULT_PARAMS):
        out = np.asarray(real(f_c_ghz, d_m, x_nlos_db, params), dtype=float).copy()
        out.flat[0] = np.nan
        return out

    monkeypatch.setattr(prop, "pl_nlos_abg", poisoned)
    with pytest.raises(RuntimeError,
                       match=r"^non-finite coupling loss \(drop 0, ms 0, sector 0\)$"):
        run_scenario(small(n_drops=1), workers=workers)


def test_construction_accepts_db_settings_up_to_the_bound():
    small(tx_power_dbm=1000.0, noise_figure_db=-1000.0, g_sm_db=1000.0,
          ms_gain_dbi=-1000.0, antenna=AntennaPattern(g_max_dbi=1000.0))


def test_construction_accepts_model_constants_up_to_their_bounds():
    for prop in (PropagationParams(abg_beta_db=-1000.0, abg_alpha=10.0, abg_gamma=10.0,
                                   ci_ple_coeff=0.0, sigma_los_db=0.0,
                                   sigma_nlos_db=1000.0, glass_loss_db=(-1000.0, 1000.0),
                                   indoor_loss_rate_db_per_m=-1000.0,
                                   oxygen_delta_db_per_km={60.0: 1000.0}),
                 PropagationParams(abg_beta_db=1000.0, abg_alpha=1e-3, abg_gamma=1e-3,
                                   ci_ple_coeff=100.0, oxygen_delta_db_per_km={})):
        small(propagation=prop)
    for ant in (AntennaPattern(hpbw_v_deg=360.0, hpbw_h_deg=1e-3, downtilt_deg=0.0,
                               sla_v_db=0.0, front_back_db=1000.0),
                AntennaPattern(hpbw_h_deg=360.0, downtilt_deg=180.0, sla_v_db=1000.0)):
        small(antenna=ant)


@pytest.mark.parametrize("workers", [1, 2])
def test_nonfinite_geometry_metric_aborts_before_any_output(workers):
    # every dB setting within its bound, yet the received powers overflow
    cfg = small(n_drops=1, tx_power_dbm=1000.0, g_sm_db=1000.0, ms_gain_dbi=1000.0,
                antenna=AntennaPattern(g_max_dbi=1000.0))  # a valid config
    with pytest.raises(RuntimeError, match=r"^non-finite geometry metric \(drop 0, ms 0\): "
                       r"the linear powers overflow; lower tx_power_dbm or the antenna "
                       r"gains$"):
        run_scenario(cfg, workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_first_failing_drop_decides_the_error(monkeypatch, workers):
    import mmwsim.propagation as prop

    # GM overflows in every drop and CL turns NaN from drop 1 on: drop 0
    # fails first, on its GM
    real = prop.draw_shadows

    def poisoned(rng, shape, params=prop.DEFAULT_PARAMS, o2i=True):
        draws = real(rng, shape, params, o2i)
        if rng.bit_generator.seed_seq.spawn_key[0] >= 1:
            draws.x_los_db[5, 3] = draws.x_nlos_db[5, 3] = np.nan
        return draws

    monkeypatch.setattr(prop, "draw_shadows", poisoned)
    cfg = small(n_drops=3, tx_power_dbm=1000.0, g_sm_db=1000.0, ms_gain_dbi=1000.0,
                antenna=AntennaPattern(g_max_dbi=1000.0))
    with pytest.raises(RuntimeError, match=r"^non-finite geometry metric \(drop 0, ms 0\)"):
        run_scenario(cfg, workers=workers)
    with pytest.raises(RuntimeError, match=r"^non-finite coupling loss \(drop 1, ms 5, "):
        run_scenario(small(n_drops=3), workers=workers)


def test_sampling_acceptance_matches_closed_form():
    # count the share of the sampler's box it keeps on uniform points, and run
    # the sampler's average schedule on it, for 57 stations
    dep = generate_layout(200.0)
    margin = 200.0 / np.sqrt(3.0)
    lo, hi = dep.site_xy.min(axis=0) - margin, dep.site_xy.max(axis=0) + margin
    pts = np.random.default_rng(5).uniform(lo, hi, size=(1_000_000, 2))
    pts = pts[in_footprint(pts, dep)]
    nearest = np.full(len(pts), np.inf)
    for site in dep.site_xy:
        np.minimum(nearest, np.hypot(*(pts - site).T), out=nearest)
    for r in (10.0, 50.0, 100.0, 110.0):
        keep = np.count_nonzero(nearest >= r) / 1_000_000
        missing, rounds = 57.0, 0
        while missing > 0:
            missing -= keep * max(2.0 * missing, 64.0)
            rounds += 1
        assert abs(_expected_sample_rounds(200.0, r, 1) - rounds) <= max(1, 0.05 * rounds), r


def test_near_infeasible_min_distance_is_refused_by_expected_rounds():
    # at ISD 200 m the 570-station sampler needs ~751 rounds on average at
    # 112 m and ~1,498 at 113 m, against a budget of 1,000 rounds
    ok = small(n_drops=1, ms_per_sector=10, deployment=DeploymentParams(min_distance_m=112.0))
    assert _expected_sample_rounds(200.0, 112.0, 10) <= _MAX_SAMPLE_ROUNDS
    assert run_scenario(ok).cl_cdf.n == 570
    for kw in (dict(ms_per_sector=10, deployment=DeploymentParams(min_distance_m=113.0)),
               dict(ms_per_sector=100, deployment=DeploymentParams(min_distance_m=112.0))):
        with pytest.raises(ConfigError, match="deployment.min_distance_m"):
            small(**kw)
    assert _expected_sample_rounds(200.0, 113.0, 10) > _MAX_SAMPLE_ROUNDS


def test_azimuth_wrap_matches_mod_rule():
    cfg = small(f_c_ghz=60.0)
    dep = generate_layout(200.0)
    s = dep.site_xy[4]
    # with y = 180 - (azimuth - boresight): due west of site 4 (y = 30 for
    # the 30-degree sector), due north (y = 360 for 270), just south of due
    # west (y -> 630 from below) and, -0.0 against the centre site's +0.0,
    # exactly west of the centre site (y = 630)
    edges = np.array([[s[0] - 40.0, s[1]], [s[0], s[1] + 40.0],
                      [s[0] - 40.0, s[1] - 1e-9], [-40.0, -0.0]])
    xy = np.vstack([edges, drop_mobiles(dep, "outdoor", 570, np.random.default_rng(3)).xy])
    n = len(xy)
    drop = MobileDrop(xy, np.full(n, 1.5), np.zeros(n), np.ones(n, dtype=int))

    # the reference rule: phi = 180 - mod(180 - (azimuth - boresight), 360)
    disp, d2d = wrap_displacements(dep, xy)
    dz = drop.height_m[:, None] - cfg.deployment.bs_height_m
    theta = np.degrees(np.arccos(np.clip(dz / np.hypot(d2d, dz), -1.0, 1.0)))
    azimuth = np.degrees(np.arctan2(disp[1], disp[0]))
    y = 180.0 - (azimuth[:, :, None] - np.asarray(SECTOR_BORESIGHTS_DEG))
    assert (y[0, 4, 0], y[1, 4, 2], y[3, 0, 2]) == (30.0, 360.0, 630.0)
    assert 629.0 < y[2, 4, 2] < 630.0
    want = sector_gain(cfg.antenna, theta[:, :, None], 180.0 - np.mod(y, 360.0))

    budget = link_budget(cfg, dep, drop, np.zeros((n, 19)), ShadowDraws())
    assert np.array_equal(budget["g_tx"], want.reshape(n, -1))


def test_one_rule_matches_a_carrier_to_the_power_and_oxygen_tables():
    dep = generate_layout(200.0)
    drop = drop_mobiles(dep, "outdoor", 57, np.random.default_rng(5))
    los_u = np.zeros((57, 19))
    # within 1e-9 GHz of 60 GHz both the power table and oxygen apply ...
    near = ScenarioConfig(f_c_ghz=60.0 + 5e-10)
    alloc = linkbudget.power_allocation("scaled", near.f_c_ghz)
    assert (alloc.bandwidth_hz, alloc.p_tx_dbm) == (1e9, 61.0)
    budget = link_budget(near, dep, drop, los_u, ShadowDraws())
    assert np.array_equal(budget["l_oa"], 15.0 * budget["d_3d"] / 1000.0)
    # ... and 5e-7 GHz off neither does: a carrier off the power table gets
    # no oxygen absorption either
    off = 60.0 + 5e-7
    with pytest.raises(ConfigError, match="is not a standard carrier"):
        ScenarioConfig(f_c_ghz=off)
    cfg = ScenarioConfig(f_c_ghz=off, bandwidth_hz=1e9, tx_power_dbm=61.0)
    assert checks.carrier_key(cfg.propagation.oxygen_delta_db_per_km, off) is None
    assert np.all(link_budget(cfg, dep, drop, los_u, ShadowDraws())["l_oa"] == 0.0)


@pytest.mark.parametrize("environment", ["outdoor", "indoor"])
def test_link_budget_returns_each_term_at_its_links_shape(environment):
    # per-site terms (n, n_sites) and per-sector terms (n, n_sectors), the
    # shapes of RunResult.links, so that a drop writes them as they are
    dep, rng = generate_layout(200.0), np.random.default_rng(2)
    drop = drop_mobiles(dep, environment, 60, rng)
    draws = propagation.draw_shadows(rng, (60, 19), o2i=environment == "indoor")
    budget = link_budget(small(environment=environment), dep, drop,
                         rng.uniform(size=(60, 19)), draws)
    assert {key: value.shape for key, value in budget.items()} == {
        **dict.fromkeys(_SITE_TERMS, (60, 19)), "g_tx": (60, 57), "coupling_loss": (60, 57)}


def test_every_benchmark_stage_is_called_through_its_module(monkeypatch):
    # the benchmark's tracer times the stages by patching their module
    # attributes, so the engine must reach each one through its module
    spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    stages = sorted({m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]
                     if m["name"].count(".") == 2
                     and m["name"].split(".")[0] not in ("engine", "trace")})
    assert len(stages) == 13
    calls = dict.fromkeys(stages, 0)

    def counting(stage, fn):
        def wrapper(*args, **kwargs):
            calls[stage] += 1
            return fn(*args, **kwargs)
        return wrapper

    for stage in stages:
        module, name = stage.split(".")
        module = importlib.import_module(f"mmwsim.{module}")
        monkeypatch.setattr(module, name, counting(stage, getattr(module, name)))
    run_scenario(small(f_c_ghz=60.0, environment="indoor", n_drops=1))
    assert [s for s, n in calls.items() if n == 0] == []


def test_public_names_resolve_once():
    assert len(mmwsim.__all__) == len(set(mmwsim.__all__))
    for name in mmwsim.__all__:
        assert getattr(mmwsim, name) is not None, name
    for gone in ("link_loss", "LinkGeometry", "LinkRecord", "GeometryResult",
                 "classify_regime", "wrap_displacement", "ms_gain", "Site", "Sector"):
        assert not hasattr(mmwsim, gone), gone
    assert not hasattr(ScenarioConfig, "validate")  # a config is checked as it is built


def test_sweep_degenerate_equals_run():
    base = small(n_drops=2)
    entries = run_sweep(base, [30.0], ["scaled"])
    assert len(entries) == 1
    entry = entries[0]
    assert entry.error is None and entry.key == (30.0, "scaled")
    direct = run_scenario(small(n_drops=2, seed=sweep_seed(base.seed, 30.0)))
    assert np.array_equal(entry.result.gm_cdf.samples, direct.gm_cdf.samples)


def test_sweep_scheme_pairs_share_seeds():
    entries = run_sweep(small(n_drops=2, f_c_ghz=2.0), [2.0],
                        ["scaled", "constant"])
    a, b = entries
    assert a.result.config.seed == b.result.config.seed
    assert np.array_equal(a.result.gm_cdf.samples, b.result.gm_cdf.samples)


def test_sweep_continues_past_failure():
    # 7 GHz is not a standard carrier and has no overrides: that run fails
    entries = run_sweep(small(n_drops=1), [2.0, 7.0, 30.0], ["scaled"])
    status = {e.f_c_ghz: e.error is None for e in entries}
    assert status == {2.0: True, 7.0: False, 30.0: True}
    failed = [e for e in entries if e.error][0]
    assert "bandwidth_hz" in failed.error


def test_sweep_requires_nonempty_lists():
    with pytest.raises(ConfigError):
        run_sweep(small(), [], ["scaled"])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -4.0, 0.0, "x", None, 10 ** 400,
                                 "60", True])
def test_sweep_refuses_carriers_that_are_not_positive_and_finite(bad):
    # nan, inf and -4 used to end in a traceback from sweep_seed, and "x",
    # None and 10 ** 400 in a raw error from float(); "60" used to run at
    # 60 GHz and True at 1 GHz, though a config refuses both
    with pytest.raises(ConfigError, match="frequencies must be positive and finite"):
        run_sweep(small(n_drops=1), [2.0, bad], ["scaled"])


def test_sweep_carriers_stay_floats():
    [entry] = run_sweep(small(n_drops=1), [30], ["scaled"])
    assert type(entry.f_c_ghz) is type(entry.result.config.f_c_ghz) is float


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_sweep_checks_the_base_seed(seed):
    # sweep_seed reads the base seed: -1 and 1.5 must not reach numpy, and
    # True must not pass as 1; the base config refuses them as it is built
    with pytest.raises(ConfigError, match="^seed must "):
        run_sweep(small(n_drops=1, seed=seed), [2.0], ["scaled"])


def _assert_same_run(a, b):
    """Every field of two RunResults equal, arrays bit for bit, but runtime_s."""
    for f in dataclasses.fields(engine.RunResult):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, CdfSeries):
            x, y = x.samples, y.samples
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        elif f.name != "runtime_s":
            assert x == y, f.name


def test_sweep_gives_the_same_bits_at_any_worker_count(monkeypatch):
    import mmwsim.propagation as prop

    base = small(n_drops=3, ms_per_sector=1)
    schemes = ["scaled", "constant"]
    clean = run_sweep(base, [2.0, 30.0], schemes, workers=2)
    # 7 GHz has no overrides and fails in setup; 60 GHz gets NaN shadows
    # in drops 1 and 2 of 3 and fails inside a drop, reported for drop 1
    real, poisoned_seed = prop.draw_shadows, sweep_seed(base.seed, 60.0)

    def poisoned(rng, shape, params=prop.DEFAULT_PARAMS, o2i=True):
        draws = real(rng, shape, params, o2i)
        seq = rng.bit_generator.seed_seq
        if seq.entropy == poisoned_seed and seq.spawn_key[0] >= 1:
            draws.x_los_db[5, 3] = draws.x_nlos_db[5, 3] = np.nan
        return draws

    monkeypatch.setattr(prop, "draw_shadows", poisoned)
    sweeps = {w: run_sweep(base, [2.0, 7.0, 30.0, 60.0], schemes, workers=w)
              for w in (1, 2, 3)}
    serial = sweeps[1]
    assert [e.key for e in serial] == [(f, s) for f in (2.0, 7.0, 30.0, 60.0)
                                       for s in schemes]
    for e in serial[2:4]:
        assert e.result is None and e.error.startswith("ConfigError: f_c_ghz=7")
    for e in serial[6:]:
        assert e.result is None and e.error.startswith(
            "RuntimeError: non-finite coupling loss (drop 1, ms 5, ")
    for entries in sweeps.values():
        assert [(e.key, e.error) for e in entries] == [(e.key, e.error) for e in serial]
        ok = [e for e in entries if e.error is None]
        assert [e.key for e in ok] == [e.key for e in clean]
        for e, want, c in zip(ok, [e for e in serial if e.error is None], clean):
            _assert_same_run(e.result, want.result)
            _assert_same_run(e.result, c.result)


def test_sweep_schedules_all_its_drops_on_one_pool(monkeypatch):
    pools = []

    class Counting(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counting)
    base = small(n_drops=3, ms_per_sector=1)
    for workers, want in ((1, 0), (2, 1), (3, 1)):
        pools.clear()
        run_sweep(base, [2.0, 30.0, 60.0], ["scaled", "constant"], workers=workers)
        assert len(pools) == want and all(p._max_workers == workers for p in pools)
    for workers, want in ((1, 0), (2, 1), (4, 1)):
        pools.clear()
        run_scenario(base, workers=workers)
        assert len(pools) == want


def test_sweep_interrupt_cancels_queued_drops_and_joins_the_pool(monkeypatch):
    real, calls, threads = engine._simulate_drop, [], set()

    def interrupted(*args):
        config, drop_index = args[0].config, args[1]
        calls.append((config.f_c_ghz, config.power_scheme, drop_index))
        threads.add(threading.current_thread())
        if calls[-1] == (2.0, "scaled", 0):  # the sweep's first drop
            raise KeyboardInterrupt
        time.sleep(0.2)
        return real(*args)

    monkeypatch.setattr(engine, "_simulate_drop", interrupted)
    workers = 2
    with pytest.raises(KeyboardInterrupt):
        run_sweep(small(n_drops=3, ms_per_sector=1), [2.0, 10.0, 30.0, 60.0, 100.0],
                  ["scaled", "constant"], workers=workers)
    assert 1 <= len(threads) <= workers
    assert not any(t.is_alive() for t in threads)
    # of the sweep's 30 drops, only those a worker took before the
    # interrupt reached the sweep ran; the queued ones were cancelled
    assert len(calls) <= 1 + 2 * workers, calls


def test_sweep_run_that_fails_cancels_its_queued_drops(monkeypatch):
    real, calls = engine._simulate_drop, []

    def failing(run, drop_index):
        calls.append((run.config.power_scheme, drop_index))
        if run.config.power_scheme == "scaled":
            if drop_index == 0:
                raise RuntimeError("drop 0 failed")
            time.sleep(0.1)
        return real(run, drop_index)

    monkeypatch.setattr(engine, "_simulate_drop", failing)
    workers = 2
    failed, ok = run_sweep(small(n_drops=8, ms_per_sector=1), [2.0], ["scaled", "constant"],
                           workers=workers)
    assert failed.error == "RuntimeError: drop 0 failed" and ok.error is None
    assert sorted(d for scheme, d in calls if scheme == "constant") == list(range(8))
    # of the failed run's 8 drops, only those a worker took before the
    # failure reached the sweep ran; the queued ones were cancelled
    assert len([d for scheme, d in calls if scheme == "scaled"]) <= 1 + 2 * workers, calls


@pytest.mark.parametrize("workers", [1, 2])
def test_run_rejects_invalid_config(workers):
    with pytest.raises(ConfigError, match=r"^n_drops must lie in \[1, inf\), got 0$"):
        run_scenario(small(n_drops=0), workers=workers)


def _drops_by_cap(monkeypatch, cap, cfg, workers):
    """The ``_Run`` every ``_simulate_drop`` call wrote into, the number of
    ``link_budget`` calls of each drop, and the result, with blocks of at
    most ``cap`` stations."""
    monkeypatch.setattr(engine, "_BLOCK_STATIONS", cap)
    real_drop, real_budget = engine._simulate_drop, engine.link_budget
    runs, budget_drops, current = [], [], threading.local()

    def recording(run, drop_index):
        runs.append(run)
        current.drop = drop_index
        return real_drop(run, drop_index)

    def counting(*args):
        budget_drops.append(current.drop)
        return real_budget(*args)

    monkeypatch.setattr(engine, "_simulate_drop", recording)
    monkeypatch.setattr(engine, "link_budget", counting)
    result = run_scenario(cfg, workers=workers, collect_links=True)
    monkeypatch.setattr(engine, "_simulate_drop", real_drop)
    monkeypatch.setattr(engine, "link_budget", real_budget)
    assert len(runs) == cfg.n_drops and all(run is runs[0] for run in runs)
    return runs[0], collections.Counter(budget_drops), result


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("environment", ["outdoor", "indoor"])
def test_station_blocks_give_the_bits_of_whole_drops(monkeypatch, environment, workers):
    # 171 stations per drop: a cap of 7 cuts each drop into 25 blocks of 6
    # or 7 stations, a cap of 1,000 leaves it whole
    cfg = small(f_c_ghz=60.0, environment=environment, n_drops=3, ms_per_sector=3)
    whole, whole_blocks, whole_run = _drops_by_cap(monkeypatch, 1000, cfg, workers)
    blocked, blocked_blocks, blocked_run = _drops_by_cap(monkeypatch, 7, cfg, workers)
    assert whole_blocks == {0: 1, 1: 1, 2: 1} and blocked_blocks == {0: 25, 1: 25, 2: 25}
    for key in ("serving_cl", "gm", "noise_limited"):
        a, b = getattr(whole, key), getattr(blocked, key)
        assert a.dtype == b.dtype and a.shape == (3 * 171,) and a.tobytes() == b.tobytes(), key
    assert whole_run.links.keys() == blocked_run.links.keys()
    for key in whole_run.links:
        a, b = whole_run.links[key], blocked_run.links[key]
        assert a.dtype == b.dtype and np.array_equal(a, b), key
    # one row per station, in drop order
    assert whole_run.links["g_tx"].shape == (3 * 171, 57)
    for series in ("cl_cdf", "gm_cdf"):
        assert np.array_equal(getattr(whole_run, series).samples,
                              getattr(blocked_run, series).samples)
    assert whole_run.regime_fractions == blocked_run.regime_fractions


def test_block_sizes_are_near_equal_and_cover_the_drop(monkeypatch):
    sizes = []
    real = engine.link_budget

    def recording(config, dep, drop, los_u, draws):
        sizes.append(len(drop.xy))
        assert los_u.shape == draws.x_los_db.shape == (len(drop.xy), 19)
        return real(config, dep, drop, los_u, draws)

    monkeypatch.setattr(engine, "link_budget", recording)
    cap = engine._BLOCK_STATIONS
    for c, mps, want in ((7, 1, [6, 6, 7, 6, 6, 7, 6, 6, 7]), (57, 1, [57]),
                         (1024, 100, [950] * 6),
                         (cap, 10, [570])):  # the default density stays one block
        monkeypatch.setattr(engine, "_BLOCK_STATIONS", c)
        sizes.clear()
        run_scenario(small(environment="indoor", n_drops=1, ms_per_sector=mps))
        assert sizes == want, c
    # the benchmark's dense drop: near-equal blocks under the module's cap
    sizes.clear()
    run_scenario(small(environment="indoor", n_drops=1, ms_per_sector=100))
    assert sum(sizes) == 5700 and max(sizes) <= cap and max(sizes) - min(sizes) <= 1


def test_nonfinite_link_past_the_first_block_names_its_station(monkeypatch):
    import mmwsim.propagation as prop

    real = prop.draw_shadows

    def poisoned(rng, shape, params=prop.DEFAULT_PARAMS, o2i=True):
        draws = real(rng, shape, params, o2i)
        draws.x_los_db[100, 5] = draws.x_nlos_db[100, 5] = np.nan
        return draws

    monkeypatch.setattr(prop, "draw_shadows", poisoned)
    for cap in (7, 1000):  # station 100 lies in block 14 of 25, or in the only one
        monkeypatch.setattr(engine, "_BLOCK_STATIONS", cap)
        with pytest.raises(RuntimeError, match=r"drop 0, ms 100, sector 15\)"):
            run_scenario(small(n_drops=1, ms_per_sector=3))


@pytest.mark.parametrize("environment", ["outdoor", "indoor"])
def test_o2i_shadows_are_drawn_indoors_only(monkeypatch, environment):
    import mmwsim.propagation as prop

    real, seen = prop.draw_shadows, []

    def recording(rng, shape, params=prop.DEFAULT_PARAMS, o2i=True):
        seen.append(o2i)
        return real(rng, shape, params, o2i)

    monkeypatch.setattr(prop, "draw_shadows", recording)
    run_scenario(small(environment=environment, n_drops=2))
    assert seen == [environment == "indoor"] * 2


def test_dense_drop_working_set_stays_bounded():
    # one indoor 60 GHz drop of 5,700 stations: evaluated whole, its
    # (5,700, 19, 3) and (5,700, 57) temporaries peaked at 24.7 MB
    cfg = ScenarioConfig(f_c_ghz=60.0, environment="indoor", n_drops=1, ms_per_sector=100)
    tracemalloc.start()
    try:
        run_scenario(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6, peak


def test_links_run_holds_its_table_once():
    # 4 indoor 60 GHz drops of 570 stations: a 4.9 MB links table, written
    # in place by the drops; joined from per-block copies it peaked at 2.01x
    # the table, and a second copy of the table passes the bound
    cfg = ScenarioConfig(f_c_ghz=60.0, environment="indoor", n_drops=4, ms_per_sector=10)
    tracemalloc.start()
    try:
        res = run_scenario(cfg, collect_links=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = sum(a.nbytes for a in res.links.values())
    # per station: 5 float and 1 bool per-site terms, 3 float per-sector terms
    assert table == 4 * 570 * (5 * 19 * 8 + 19 + 3 * 57 * 8)
    assert peak - table < 5.0e6, peak - table


_FAULTS_PER_RUN = """
import resource, sys
from mmwsim import ScenarioConfig, run_scenario
cfg = ScenarioConfig(f_c_ghz=60.0, environment="indoor", n_drops=1, ms_per_sector=100)
for _ in range(8):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_scenario(cfg)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's malloc")
def test_repeated_runs_keep_their_heap():
    # a fresh process, so no earlier run has pinned the heap; under glibc's
    # dynamic thresholds every repeat of this 5,700-station drop took about
    # 1,800 minor faults, the heap freed by one run faulted in by the next
    src = str(Path(mmwsim.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _FAULTS_PER_RUN], check=True,
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    faults = [int(line) for line in out.stdout.split()]
    assert np.median(faults[2:]) < 100, faults


def test_array_results_compare_by_identity():
    # generated __eq__ compared the arrays' truth values and raised, and a
    # generated __hash__ (frozen) hashed an ndarray
    cfg = small(n_drops=1, ms_per_sector=1)
    a, b = run_scenario(cfg), run_scenario(cfg)
    assert a == a and a != b
    entry = engine.SweepEntry(30.0, "scaled", a, None)
    assert entry == entry and entry != engine.SweepEntry(30.0, "scaled", a, None)
    assert len({a.cl_cdf, a.cl_cdf, b.cl_cdf}) == 2
    draws = ShadowDraws(np.zeros(3))
    assert draws == draws and draws != ShadowDraws(np.zeros(3)) and hash(draws)


_POOL_ON_DEMAND = """
import json, sys
pool_modules = ("concurrent.futures", "logging")
loaded = lambda: [m for m in pool_modules if m in sys.modules]
before = loaded()
import mmwsim
cfg = mmwsim.load_config(sys.argv[1])
serial = mmwsim.run_scenario(cfg)
mmwsim.save_results(serial, sys.argv[2])
one_worker = loaded()
pooled = mmwsim.run_scenario(cfg, workers=2)
same = [a.samples.tobytes() == b.samples.tobytes()
        for a, b in ((serial.cl_cdf, pooled.cl_cdf), (serial.gm_cdf, pooled.gm_cdf))]
print(json.dumps([before, one_worker, loaded(), same]))
"""


def test_one_worker_run_does_not_load_the_pool(tmp_path):
    # a fresh process, since pytest itself loads logging
    cfg_path = tmp_path / "scenario.yaml"
    cfg_path.write_text(yaml.safe_dump(small(n_drops=2, ms_per_sector=1).to_dict()))
    src = str(Path(mmwsim.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _POOL_ON_DEMAND, str(cfg_path),
                          str(tmp_path / "out")], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    before, one_worker, pooled, same = json.loads(out.stdout)
    if before:
        pytest.skip(f"the interpreter loads {before} at startup")
    assert one_worker == []
    assert pooled == ["concurrent.futures", "logging"]
    assert same == [True, True]


_LINKS_AT_DISPATCH_LEVEL = """
import sys
import numpy as np
from numpy._core import _multiarray_umath as umath
from mmwsim import ScenarioConfig, run_scenario
arrays = {"disabled_still_on": np.array([umath.__cpu_features__[f] for f in sys.argv[2:]])}
for env in ("outdoor", "indoor"):
    res = run_scenario(ScenarioConfig(f_c_ghz=60.0, environment=env, n_drops=2, seed=7),
                       collect_links=True)
    arrays.update({f"{env}/{k}": v for k, v in res.links.items()})
    arrays[f"{env}/cl_cdf"], arrays[f"{env}/gm_cdf"] = res.cl_cdf.samples, res.gm_cdf.samples
np.savez(sys.argv[1], **arrays)
"""


def _dispatched_above_x86_v3():
    from numpy._core import _multiarray_umath as umath
    order = [*umath.__cpu_baseline__, *umath.__cpu_dispatch__]
    if "X86_V3" not in order:
        return []
    return [f for f in order[order.index("X86_V3") + 1:]
            if f in umath.__cpu_dispatch__ and umath.__cpu_features__.get(f)]


def test_links_agree_to_rounding_across_dispatch_levels(tmp_path):
    # numpy picks SIMD loops for log10, exp, arctan2 ... by CPU feature, and
    # they differ in the last bits: 8.5e-14 dB at most, measured at seed 7
    features = _dispatched_above_x86_v3()
    if not features:
        pytest.skip("numpy dispatches no CPU feature above X86_V3 on this host")
    src = str(Path(mmwsim.__file__).resolve().parents[1])
    path = tmp_path / "links.npz"
    subprocess.run([sys.executable, "-c", _LINKS_AT_DISPATCH_LEVEL, str(path), *features],
                   check=True, env={**os.environ, "PYTHONPATH": src,
                                    "NPY_DISABLE_CPU_FEATURES": " ".join(features)})
    with np.load(path) as other:
        assert not other["disabled_still_on"].any(), features
        for env in ("outdoor", "indoor"):
            res = run_scenario(ScenarioConfig(f_c_ghz=60.0, environment=env, n_drops=2,
                                              seed=7), collect_links=True)
            want = {**res.links, "cl_cdf": res.cl_cdf.samples, "gm_cdf": res.gm_cdf.samples}
            for key, value in want.items():
                assert_allclose(other[f"{env}/{key}"].astype(float), value,
                                rtol=0, atol=1e-11, err_msg=key)
            assert np.array_equal(other[f"{env}/coupling_loss"].argmax(axis=1),
                                  res.links["coupling_loss"].argmax(axis=1))
