import numpy as np
import pytest
from numpy.testing import assert_allclose

from mmwsim import (AntennaPattern, DeploymentParams, ScenarioConfig, drop_mobiles, run_scenario,
                    sector_gain, wrap_displacements)
from mmwsim.deployment import SECTOR_BORESIGHTS_DEG

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


def _minimum_rule_gain(pattern, theta, phi):
    # sector_gain with both caps as np.minimum against the scalar bound
    a_v = np.minimum(12.0 * ((theta - pattern.downtilt_deg) / pattern.hpbw_v_deg) ** 2,
                     pattern.sla_v_db)
    att = np.minimum(a_v + 12.0 * (phi / pattern.hpbw_h_deg) ** 2, pattern.front_back_db)
    return pattern.g_max_dbi - att


def test_sector_gain_bit_identical_to_minimum_rule():
    # the angles of a 600-station drop, at the shapes a drop's link budget
    # passes: theta (n, 19) against phi (3, n, 19)
    dep = DeploymentParams()
    drop = drop_mobiles(dep, "indoor", 600, np.random.default_rng(11))
    disp, d2d = wrap_displacements(dep, drop.xy)
    dz = drop.height_m[:, None] - ScenarioConfig().deployment.bs_height_m
    theta = np.degrees(np.arccos(np.clip(dz / np.hypot(d2d, dz), -1.0, 1.0)))
    azimuth = np.degrees(np.arctan2(disp[1], disp[0]))
    y = 180.0 - (azimuth - np.asarray(SECTOR_BORESIGHTS_DEG)[:, None, None])
    phi = 180.0 - np.mod(y, 360.0)
    # a pattern whose caps are met exactly: A_V = 12 (1 / 1)^2 = SLA_v at
    # theta = 90 +- 10, and A_V + A_H = 12 + 12 = A_m there at phi = +-10
    exact = AntennaPattern(downtilt_deg=90.0, hpbw_v_deg=10.0, sla_v_db=12.0,
                           hpbw_h_deg=10.0, front_back_db=24.0)
    edges_theta = np.array([80.0, 100.0, np.nextafter(100.0, 0.0), np.nextafter(100.0, 180.0),
                            np.nan, 0.0, 180.0, 90.0])
    edges_phi = np.array([10.0, -10.0, np.nextafter(10.0, 0.0), np.nextafter(-10.0, 0.0),
                          0.0, 180.0, np.nextafter(-180.0, 0.0), np.nan])
    cases = [(theta, phi), (theta[0], phi[:, 0]), (edges_theta, edges_phi),
             (edges_theta[:, None], edges_phi), (100.0, 10.0), (np.nan, 0.0), (90.0, -0.0)]
    for pattern in (AntennaPattern(), exact):
        for t, p in cases:
            got = sector_gain(pattern, t, p)
            want = _minimum_rule_gain(pattern, np.asarray(t, dtype=float),
                                      np.asarray(p, dtype=float))
            assert type(got) is (float if np.ndim(want) == 0 else np.ndarray)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    # the exact pattern meets both caps with equality, so these edges test them
    assert _minimum_rule_gain(exact, 100.0, 0.0) == exact.g_max_dbi - exact.sla_v_db
    assert _minimum_rule_gain(exact, 100.0, 10.0) == exact.g_max_dbi - exact.front_back_db
