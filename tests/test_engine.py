import json

import numpy as np
import pytest
import yaml
from numpy.testing import assert_allclose

from mmwsim import (ConfigError, ScenarioConfig, drop_mobiles, generate_layout,
                    load_config, los_probability, run_scenario, run_sweep, save_results)
from mmwsim.engine import (_WRITE_BLOCK_ROWS, DeploymentParams, _stream, _write_table,
                           sweep_seed)
from mmwsim.linkbudget import LINK_CSV_COLUMNS


def small(**kw):
    base = dict(f_c_ghz=30.0, n_drops=3, seed=11)
    base.update(kw)
    return ScenarioConfig(**base)


def test_validation_messages():
    cases = [
        (dict(f_c_ghz=0.0), "f_c_ghz"),
        (dict(power_scheme="boosted"), "power_scheme"),
        (dict(environment="space"), "environment"),
        (dict(n_drops=0), "n_drops"),
        (dict(ms_per_sector=0), "ms_per_sector"),
        (dict(seed=-1), "seed"),
        (dict(g_sm_db=float("inf")), "g_sm_db"),
        (dict(deployment=DeploymentParams(isd_m=-1.0)), "isd_m"),
        (dict(deployment=DeploymentParams(floor_count_min=9)), "floor_count"),
        (dict(bandwidth_hz=0.0), "bandwidth_hz"),
        (dict(deployment=DeploymentParams(ms_height_m=0.0)), "ms_height_m"),
        (dict(deployment=DeploymentParams(min_distance_m=115.5)), "min_distance_m"),
    ]
    for kw, field in cases:
        with pytest.raises(ConfigError, match=field):
            small(**kw).validate()


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="carrier"):
        ScenarioConfig.from_dict({"carrier": 2.0})
    with pytest.raises(ConfigError, match="antenna.tilt"):
        ScenarioConfig.from_dict({"antenna": {"tilt": 90.0}})


def test_config_yaml_roundtrip(tmp_path):
    cfg = ScenarioConfig(f_c_ghz=60.0, environment="indoor", seed=77,
                         o2i_sigma_as_stddev=True)
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
    on = run_scenario(small(f_c_ghz=60.0, oxygen_absorption=True))
    off = run_scenario(small(f_c_ghz=60.0, oxygen_absorption=False))
    assert on.cl_cdf.median() < off.cl_cdf.median()
    # same geometry and draws: every sample is weaker with absorption on
    assert np.all(on.cl_cdf.samples <= off.cl_cdf.samples + 1e-12)


def test_o2i_sigma_reading_switch():
    a = run_scenario(small(environment="indoor"))
    b = run_scenario(small(environment="indoor", o2i_sigma_as_stddev=True))
    assert not np.array_equal(a.cl_cdf.samples, b.cl_cdf.samples)
    # outdoors the O2I spread never enters
    c = run_scenario(small(environment="outdoor"))
    d = run_scenario(small(environment="outdoor", o2i_sigma_as_stddev=True))
    assert np.array_equal(c.cl_cdf.samples, d.cl_cdf.samples)


def test_threshold_matches_power_and_noise():
    res = run_scenario(small(f_c_ghz=60.0, power_scheme="constant", n_drops=1))
    assert res.cl_snr0_threshold_db == res.noise_total_dbm - res.power.p_tx_dbm


def test_links_table_invariants():
    res = run_scenario(small(environment="indoor", f_c_ghz=60.0, n_drops=2),
                       collect_links=True)
    L = res.links
    n_links = 2 * 570 * 57
    assert all(len(L[c]) == n_links for c in L)
    lhs = L["coupling_loss"]
    rhs = L["g_tx"] + 0.0 - (L["pl"] + L["l_o2i"] + L["l_oa"] - L["g_sm"])
    assert np.array_equal(lhs, rhs)
    assert np.array_equal(L["p_rx"], res.power.p_tx_dbm + L["coupling_loss"])
    assert np.all(L["d_3d"] >= L["d_2d"])
    assert set(np.unique(L["is_los"])) <= {0, 1}
    # serving samples are the per-station maxima of the link table
    cl = L["coupling_loss"].reshape(-1, 57)
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
    d2d = res.links["d_2d"].reshape(-1, 57)[:, ::3]  # one column per site
    u = _stream(cfg.seed, 0, 1).uniform(size=d2d.shape)
    expected = np.repeat(u < los_probability(d2d), 3, axis=1).reshape(-1)
    assert np.array_equal(res.links["is_los"], expected.astype(int))


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


def test_saved_outputs_golden_bytes(tmp_path):
    res = run_scenario(small(n_drops=2), collect_links=True)
    save_results(res, tmp_path)
    cols = LINK_CSV_COLUMNS
    assert len(res.links["ms_id"]) % _WRITE_BLOCK_ROWS != 0
    assert (tmp_path / "links.csv").read_bytes() == reference_csv(
        cols, [res.links[c] for c in cols])
    for name, series in (("cl_cdf.csv", res.cl_cdf), ("gm_cdf.csv", res.gm_cdf)):
        n = series.n
        lines = ["value_db,cdf"]
        lines += [f"{v:.10g},{(i + 1) / n:.10g}" for i, v in enumerate(series.samples)]
        assert (tmp_path / name).read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("n_rows", [0, 1, _WRITE_BLOCK_ROWS, 2 * _WRITE_BLOCK_ROWS + 3])
def test_write_table_matches_per_value_rule(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    floats = rng.normal(0.0, 1e3, n_rows) * 10.0 ** rng.integers(-30, 30, n_rows)
    floats[:4] = [np.nan, np.inf, -np.inf, -0.0][:n_rows]
    columns = [np.arange(n_rows) - 7, floats, rng.uniform(size=n_rows) < 0.5,
               rng.integers(0, 2, n_rows).astype(np.uint8), np.full(n_rows, -3.5)]
    header = ("a", "b", "c", "d", "e")
    path = tmp_path / "t.csv"
    _write_table(path, header, columns)
    assert path.read_bytes() == reference_csv(header, columns)


def test_infeasible_min_distance_raises():
    # min_distance_m above the 115.5 m circumradius at ISD 200 m admits no
    # point: validation rejects it, and the sampler's round budget stops a
    # direct call instead of looping for ever
    with pytest.raises(ConfigError, match="min_distance_m"):
        run_scenario(small(deployment=DeploymentParams(min_distance_m=150.0)))
    with pytest.raises(ConfigError, match="min_distance_m"):
        drop_mobiles(generate_layout(200.0), "outdoor", 57, np.random.default_rng(0),
                     min_distance_m=150.0)


def test_nonfinite_link_aborts_with_provenance(monkeypatch):
    import mmwsim.propagation as prop

    real = prop.pl_nlos_abg

    def poisoned(f_c_ghz, d_m, x_nlos_db=0.0, params=prop.DEFAULT_PARAMS):
        out = np.asarray(real(f_c_ghz, d_m, x_nlos_db, params), dtype=float).copy()
        out.flat[0] = np.nan
        return out

    monkeypatch.setattr(prop, "pl_nlos_abg", poisoned)
    with pytest.raises(RuntimeError, match=r"drop \d+, ms \d+, sector \d+"):
        run_scenario(small(n_drops=1))


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


def test_run_rejects_invalid_config():
    with pytest.raises(ConfigError, match="n_drops"):
        run_scenario(small(n_drops=0))
