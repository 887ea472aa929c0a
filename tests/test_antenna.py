import numpy as np
import pytest
from numpy.testing import assert_allclose

from mmwsim import AntennaPattern, ScenarioConfig, run_scenario, sector_gain

PATTERN = AntennaPattern()


def test_boresight_gain():
    assert_allclose(sector_gain(PATTERN, 102.0, 0.0), 17.6, atol=1e-12)


def test_half_power_offsets():
    # -3 dB at downtilt +- hpbw_v/2 and at +- hpbw_h/2 in azimuth
    assert_allclose(sector_gain(PATTERN, 107.1, 0.0), 14.6, atol=1e-9)
    assert_allclose(sector_gain(PATTERN, 96.9, 0.0), 14.6, atol=1e-9)
    assert_allclose(sector_gain(PATTERN, 102.0, 35.0), 14.6, atol=1e-9)
    assert_allclose(sector_gain(PATTERN, 102.0, -35.0), 14.6, atol=1e-9)


def test_even_symmetry(rng):
    dt = rng.uniform(0.0, 60.0, size=1000)
    phi = rng.uniform(0.0, 180.0, size=1000)
    theta_hi = np.clip(102.0 + dt, 0.0, 180.0)
    theta_lo = np.clip(102.0 - dt, 0.0, 180.0)
    assert_allclose(sector_gain(PATTERN, theta_hi, 0.0),
                    sector_gain(PATTERN, theta_lo, 0.0), atol=1e-9)
    assert_allclose(sector_gain(PATTERN, 102.0, phi),
                    sector_gain(PATTERN, 102.0, -phi), atol=1e-9)


def test_gain_bounds(rng):
    theta = rng.uniform(0.0, 180.0, size=2000)
    phi = rng.uniform(-179.999, 180.0, size=2000)
    g = sector_gain(PATTERN, theta, phi)
    assert np.all(g <= 17.6)
    floor = 17.6 - PATTERN.front_back_db  # TR 36.814 total cap A_m
    assert np.all(g >= floor)
    assert np.all(g >= 17.6 - 45.0)


def test_attenuation_floors():
    deep = AntennaPattern(sla_v_db=20.0)
    for pattern in (PATTERN, deep):
        # far off beam in both planes the summed attenuation is capped at A_m
        assert_allclose(sector_gain(pattern, 0.0, 180.0),
                        17.6 - pattern.front_back_db, atol=1e-12)
        # on the azimuth boresight the elevation cap acts alone
        assert_allclose(sector_gain(pattern, 0.0, 0.0),
                        17.6 - pattern.sla_v_db, atol=1e-12)


def test_unique_maximum(rng):
    theta = rng.uniform(0.0, 180.0, size=5000)
    phi = rng.uniform(-179.0, 180.0, size=5000)
    g = sector_gain(PATTERN, theta, phi)
    assert np.all(g < 17.6 - 1e-9)  # random angles never hit the exact peak


def test_angle_domain_errors():
    with pytest.raises(ValueError):
        sector_gain(PATTERN, -0.1, 0.0)
    with pytest.raises(ValueError):
        sector_gain(PATTERN, 180.1, 0.0)
    with pytest.raises(ValueError):
        sector_gain(PATTERN, 90.0, -180.0)
    with pytest.raises(ValueError):
        sector_gain(PATTERN, 90.0, 200.0)


def test_ms_gain():
    # the isotropic station gain adds to every link's CL
    cfg = ScenarioConfig(f_c_ghz=30.0, n_drops=1, seed=3)
    assert cfg.ms_gain_dbi == 0.0
    base = run_scenario(cfg, collect_links=True)
    gain = run_scenario(ScenarioConfig(f_c_ghz=30.0, n_drops=1, seed=3, ms_gain_dbi=3.0),
                        collect_links=True)
    assert_allclose(gain.links["coupling_loss"], base.links["coupling_loss"] + 3.0,
                    atol=1e-9)
    assert_allclose(gain.cl_cdf.samples, base.cl_cdf.samples + 3.0, atol=1e-9)


def test_pattern_validation():
    with pytest.raises(ValueError):
        AntennaPattern(hpbw_v_deg=0.0)
    with pytest.raises(ValueError):
        AntennaPattern(sla_v_db=-1.0)
    with pytest.raises(ValueError):
        AntennaPattern(g_max_dbi=float("nan"))
