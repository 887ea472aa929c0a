"""Seeded config fuzz: every drawn config is refused with a ``ConfigError``
as it is built, or runs through the CLI to finite outputs with exit code 0.

Each config sets a few fields, each to a value from its physical range or,
one time in three, to an edge value: a bound, zero, a sign flip, NaN,
infinity, an absurd magnitude or a value of the wrong type.  Every run is
one drop of one station per sector.

One refusal comes after construction.  The config bounds each dB setting
and model constant alone, so settings that are each in bounds can still
overflow or underflow the linear received powers together (``test_cli``'s
``received_power_overflow`` probe).  The run's finite-CL and finite-GM
checks then stop it with exit code 2, before any file is written.
"""

import dataclasses
import json
import math
import re
import time

import numpy as np
import yaml

from mmwsim import ConfigError, ScenarioConfig, load_config
from mmwsim.cli import main

N_CONFIGS = 400
NAN, INF = float("nan"), float("inf")


def _uniform(lo, hi):
    return lambda rng: float(rng.uniform(lo, hi))


def _choice(*values):
    return lambda rng: values[rng.integers(len(values))]


def _loss_pair(rng):
    return [float(rng.uniform(0.0, 25.0)), float(rng.uniform(0.0, 5.0))]


DB_EDGES = (-1000.0, 1000.0, -1000.5, 1000.5, 0.0, NAN, INF, -INF, "9")
LENGTH_EDGES = (0.0, -1.0, 1e-3, 1e6, NAN, INF, 1e300, "10")
SIGMA_EDGES = (0.0, -1.0, 1e3, NAN, INF, "3")
PAIR_EDGES = ([NAN, 0.2], [2.0, INF], 5.0, [1.0, 2.0, 3.0], ["a", 1.0], None, [-5.0, -1.0])

# field path -> (draw from the physical range, edge values)
FIELDS = {
    ("f_c_ghz",): (_choice(2.0, 10.0, 30.0, 60.0, 100.0),
                   (0.0, -2.0, 1e-3, 0.4999, 73.0, 100.001, 300.0, NAN, INF, "60", True)),
    ("power_scheme",): (_choice("scaled", "constant"), ("boosted", 1, None)),
    ("environment",): (_choice("outdoor", "indoor"), ("space", None, 0)),
    ("n_drops",): (_choice(1), (0, -1, 1.5, True, "1", None)),
    ("ms_per_sector",): (_choice(1), (0, -3, 2.5, False, "1")),
    ("seed",): (lambda rng: int(rng.integers(0, 2**31)),
                (0, 2**64, 2**100, -1, True, 1.5, "7", None)),
    ("noise_figure_db",): (_uniform(0.0, 20.0), DB_EDGES),
    ("g_sm_db",): (_uniform(-20.0, 20.0), DB_EDGES),
    ("ms_gain_dbi",): (_uniform(-10.0, 30.0), DB_EDGES),
    ("bandwidth_hz",): (lambda rng: float(10.0 ** rng.uniform(3.0, 10.0)),
                        (None, 0.0, -1.0, 1e-300, 1e300, NAN, INF, "1e9")),
    ("tx_power_dbm",): (_uniform(-30.0, 70.0), (None, 1e20, 10**400) + DB_EDGES),
    ("deployment", "isd_m"): (_uniform(20.0, 2000.0), LENGTH_EDGES),
    ("deployment", "bs_height_m"): (_uniform(1.0, 50.0), LENGTH_EDGES),
    ("deployment", "ms_height_m"): (_uniform(1.0, 3.0), LENGTH_EDGES),
    ("deployment", "min_distance_m"): (_uniform(0.0, 120.0), LENGTH_EDGES + (113.0, 115.4)),
    ("deployment", "indoor_depth_max_m"): (_uniform(0.0, 50.0), LENGTH_EDGES),
    ("deployment", "floor_count_min"): (lambda rng: int(rng.integers(1, 9)),
                                        (0, -1, 9, 2.5, True, 10**6)),
    ("deployment", "floor_count_max"): (lambda rng: int(rng.integers(1, 12)),
                                        (0, 100, 1.5, 10**6, None)),
    ("propagation", "ci_ple_coeff"): (_uniform(15.0, 40.0), (0.0, -5.0, NAN, INF, "21")),
    ("propagation", "sigma_los_db"): (_uniform(0.0, 10.0), SIGMA_EDGES),
    ("propagation", "abg_alpha"): (_uniform(1.0, 5.0), (0.0, -1.0, NAN, INF, 1e300)),
    ("propagation", "abg_beta_db"): (_uniform(0.0, 50.0), (NAN, -INF, -1e300, "22")),
    ("propagation", "abg_gamma"): (_uniform(1.0, 3.0), (0.0, -1.0, NAN, INF)),
    ("propagation", "sigma_nlos_db"): (_uniform(0.0, 12.0), SIGMA_EDGES),
    ("propagation", "sigma_o2i_low_db"): (_uniform(0.0, 5.0), SIGMA_EDGES),
    ("propagation", "sigma_o2i_high_db"): (_uniform(0.0, 5.0), SIGMA_EDGES),
    ("propagation", "glass_loss_db"): (_loss_pair, PAIR_EDGES),
    ("propagation", "irr_glass_loss_db"): (_loss_pair, PAIR_EDGES),
    ("propagation", "concrete_loss_db"): (_loss_pair, PAIR_EDGES),
    ("propagation", "indoor_loss_rate_db_per_m"): (_uniform(0.0, 1.0),
                                                   (-0.5, NAN, INF, 1e6)),
    ("propagation", "oxygen_delta_db_per_km"): (
        lambda rng: {60.0: float(rng.uniform(0.0, 20.0))},
        ({}, {60.0: NAN}, {60.0: -5.0}, {60.0: INF}, {"x": 1.0}, [1, 2], None, 15.0)),
    ("antenna", "g_max_dbi"): (_uniform(0.0, 25.0), DB_EDGES),
    ("antenna", "hpbw_v_deg"): (_uniform(1.0, 90.0), (0.0, -5.0, NAN, INF, 1e300)),
    ("antenna", "downtilt_deg"): (_uniform(80.0, 120.0), (NAN, INF, -10.0, 270.0, 1e300)),
    ("antenna", "hpbw_h_deg"): (_uniform(10.0, 120.0), (0.0, -5.0, NAN, INF)),
    ("antenna", "sla_v_db"): (_uniform(0.0, 30.0), (-1.0, NAN, INF, 1e300)),
    ("antenna", "front_back_db"): (_uniform(0.0, 40.0), (-1.0, NAN, INF, 1e300)),
}
PATHS = list(FIELDS)


def draw_config(rng) -> dict:
    """One drop of one station per sector, with a few fields drawn; every
    tenth config draws every field."""
    cfg = {"n_drops": 1, "ms_per_sector": 1}
    everything = rng.uniform() < 0.1
    k = len(PATHS) if everything else int(rng.integers(1, 5))
    for i in rng.choice(len(PATHS), size=k, replace=False):
        path = PATHS[i]
        draw, edges = FIELDS[path]
        value = edges[rng.integers(len(edges))] if rng.uniform() < 1 / 3 else draw(rng)
        block = cfg
        for key in path[:-1]:
            block = block.setdefault(key, {})
        block[path[-1]] = value
    return cfg


def _no_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _finite_table(path, rows):
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table.shape == (rows, 2) and np.isfinite(table).all()


def test_fuzz_draws_every_config_field():
    paths = {(f.name,) for f in dataclasses.fields(ScenarioConfig)}
    for block in ("deployment", "propagation", "antenna"):
        sub = type(getattr(ScenarioConfig(), block))
        paths.remove((block,))
        paths |= {(block, f.name) for f in dataclasses.fields(sub)}
    assert set(FIELDS) == paths


def test_fuzzed_configs_fail_validation_or_run_clean(tmp_path, capsys):
    rng = np.random.default_rng(20261018)
    ran = refused = late = 0
    for i in range(N_CONFIGS):
        cfg = draw_config(rng)
        path = tmp_path / f"c{i}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / f"o{i}"
        try:
            load_config(path)
        except ConfigError:
            refused += 1
            assert main(["run", "-c", str(path), "-o", str(out)]) == 2, cfg
            assert not out.exists(), cfg
            continue
        start = time.perf_counter()
        code = main(["run", "-c", str(path), "-o", str(out)])
        if code == 2:
            err = capsys.readouterr().err
            assert re.search(r"non-finite (coupling loss|geometry metric) \(drop", err), (cfg, err)
            assert not out.exists(), cfg
            late += 1
            continue
        assert code == 0, (cfg, capsys.readouterr().err)
        assert time.perf_counter() - start < 5.0, cfg
        assert _finite_table(out / "cl_cdf.csv", 57), cfg
        assert _finite_table(out / "gm_cdf.csv", 57), cfg
        summary = json.loads((out / "summary.json").read_text(), parse_constant=_no_constant)
        assert summary["n_samples"] == 57, cfg
        assert all(math.isfinite(v) for key in ("cl_percentiles_db", "gm_percentiles_db")
                   for v in summary[key].values()), cfg
        ran += 1
    capsys.readouterr()
    # both main outcomes are exercised; the late refusal stays rare
    assert ran >= N_CONFIGS // 4 and refused >= N_CONFIGS // 4, (ran, refused, late)
    assert late <= N_CONFIGS // 50, late
