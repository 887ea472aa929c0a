import inspect
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mmwsim import linkbudget, propagation
from mmwsim import (DeploymentParams, FrequencyRangeWarning, MobileDrop, PropagationParams,
                    ScenarioConfig, ShadowDraws, draw_shadows, fspl, generate_layout,
                    link_budget, los_probability, material_loss, o2i_loss,
                    oxygen_absorption, pl_los_ci, pl_nlos_abg)

# expected values frozen from an independent high-precision evaluation of the
# model formulas (mpmath script, 40 digits)
FSPL_2GHZ = 38.46838314
FSPL_30GHZ = 61.99020832
CI_30GHZ_100M = 103.9902083
CI_2GHZ_100M_X5 = 85.46838314
ABG_30GHZ_100M = 124.4626827
ABG_2GHZ_100M = 99.41193891
PLOS_36 = 0.6839397206
PLOS_180 = 0.1060641523
O2I28_LOW = 17.82878745
O2I28_HIGH = 37.94901959
O2I28_COMBINED = 34.98075913


def test_fspl_values():
    assert_allclose(fspl(2.0), FSPL_2GHZ, atol=1e-6)
    assert_allclose(fspl(30.0), FSPL_30GHZ, atol=1e-6)
    # argument of the log is 1 at f = c / (4 pi)
    assert_allclose(fspl(299792458.0 / (4.0 * math.pi) / 1e9), 0.0, atol=1e-9)


def test_fspl_errors():
    with pytest.raises(ValueError):
        fspl(0.0)
    with pytest.raises(ValueError):
        fspl(-1.0)


def test_ci_los_values():
    assert_allclose(pl_los_ci(30.0, 100.0), CI_30GHZ_100M, atol=1e-6)
    assert_allclose(pl_los_ci(2.0, 100.0, 5.0), CI_2GHZ_100M_X5, atol=1e-6)
    # log term vanishes at the 1 m reference distance
    assert_allclose(pl_los_ci(17.0, 1.0), fspl(17.0), atol=1e-12)


def test_ci_los_reference_distance_error():
    with pytest.raises(ValueError):
        pl_los_ci(30.0, 0.5)


def test_abg_nlos_values():
    assert_allclose(pl_nlos_abg(30.0, 100.0), ABG_30GHZ_100M, atol=1e-6)
    assert_allclose(pl_nlos_abg(2.0, 100.0), ABG_2GHZ_100M, atol=1e-6)
    # both log terms vanish, leaving beta
    assert_allclose(pl_nlos_abg(1.0, 1.0), 22.4, atol=1e-12)


def test_abg_frequency_slope_exact(rng):
    # pl(f2) - pl(f1) = 10 * gamma * log10(f2 / f1) for any distance
    d = rng.uniform(1.0, 2000.0, size=1000)
    diff = pl_nlos_abg(100.0, d) - pl_nlos_abg(2.0, d)
    assert_allclose(diff, 21.3 * math.log10(50.0), atol=1e-9)


def test_frequency_validity_warning():
    with pytest.warns(FrequencyRangeWarning):
        pl_los_ci(0.2, 10.0)
    with pytest.warns(FrequencyRangeWarning):
        pl_nlos_abg(150.0, 10.0)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pl_los_ci(100.0, 10.0)  # boundary of the validity range is fine
        pl_nlos_abg(0.5, 10.0)


def test_monotonic_in_distance_and_frequency(rng):
    d = np.sort(rng.uniform(1.0, 5000.0, size=1000))
    for fn in (lambda dd: pl_los_ci(30.0, dd), lambda dd: pl_nlos_abg(30.0, dd)):
        pl = fn(d)
        assert np.all(np.diff(pl) > 0)
    f = np.sort(rng.uniform(0.5, 100.0, size=1000))
    assert np.all(np.diff(pl_los_ci(f, 100.0)) > 0)
    assert np.all(np.diff(pl_nlos_abg(f, 100.0)) > 0)


def test_los_probability_values():
    assert los_probability(10.0) == 1.0
    assert_allclose(los_probability(36.0), PLOS_36, atol=1e-6)
    assert_allclose(los_probability(180.0), PLOS_180, atol=1e-6)


def test_los_probability_shape(rng):
    d = rng.uniform(0.0, 18.0, size=1000)
    assert np.all(los_probability(d) == 1.0)
    d = np.sort(rng.uniform(18.0, 5000.0, size=1000))
    p = los_probability(d)
    assert np.all(np.diff(p) <= 1e-15)
    assert los_probability(1e6) < 1e-4
    with pytest.raises(ValueError):
        los_probability(-1.0)


def test_material_loss():
    assert_allclose(material_loss("glass", 28.0), 7.6, atol=1e-12)
    assert_allclose(material_loss("concrete", 28.0), 117.0, atol=1e-12)
    assert_allclose(material_loss("irr_glass", 0.0), 23.0, atol=1e-12)
    with pytest.raises(ValueError):
        material_loss("wood", 28.0)


def test_o2i_values():
    assert_allclose(o2i_loss(28.0, 0.0), O2I28_COMBINED, atol=1e-6)
    # the in-building term adds exactly 0.5 dB/m
    assert_allclose(o2i_loss(28.0, 10.0) - o2i_loss(28.0, 0.0), 5.0, atol=1e-12)


def test_o2i_branches_against_oracle():
    # reproduce the two wall models independently and combine them by hand
    l_g, l_irr, l_c = 7.6, 31.4, 117.0
    low = 5 - 10 * math.log10(0.3 * 10 ** (-l_g / 10) + 0.7 * 10 ** (-l_c / 10))
    high = 5 - 10 * math.log10(0.7 * 10 ** (-l_irr / 10) + 0.3 * 10 ** (-l_c / 10))
    assert_allclose(low, O2I28_LOW, atol=1e-6)
    assert_allclose(high, O2I28_HIGH, atol=1e-6)
    combined = 10 * math.log10(0.5 * 10 ** (low / 10) + 0.5 * 10 ** (high / 10))
    assert_allclose(o2i_loss(28.0, 0.0), combined, atol=1e-9)


def test_o2i_composite_between_branches(rng):
    # with random shadow draws the composite sits strictly between the noisy
    # branches and within 3.02 dB of the larger one
    f = rng.uniform(0.5, 100.0, size=1000)
    x_low = rng.normal(0, math.sqrt(3.0), size=1000)
    x_high = rng.normal(0, math.sqrt(5.0), size=1000)
    for fi, xl, xh in zip(f[:200], x_low[:200], x_high[:200]):
        l_g = material_loss("glass", fi)
        l_irr = material_loss("irr_glass", fi)
        l_c = material_loss("concrete", fi)
        low = 5 - 10 * math.log10(0.3 * 10 ** (-l_g / 10) + 0.7 * 10 ** (-l_c / 10)) + xl
        high = 5 - 10 * math.log10(0.7 * 10 ** (-l_irr / 10) + 0.3 * 10 ** (-l_c / 10)) + xh
        combined = o2i_loss(fi, 0.0, xl, xh)
        assert min(low, high) < combined < max(low, high)
        assert combined > max(low, high) - 3.02


def test_oxygen_absorption():
    assert oxygen_absorption(60.0, 200.0) == 3.0
    assert oxygen_absorption(60.0, 0.0) == 0.0
    assert oxygen_absorption(2.0, 1000.0) == 0.0
    assert oxygen_absorption(100.0, 1000.0) == 0.0
    with pytest.raises(ValueError):
        oxygen_absorption(60.0, -1.0)


def test_every_stage_takes_the_carrier_in_ghz():
    # one unit at every stage boundary: a carrier parameter is f_c_ghz
    takes_carrier = set()
    for module in (propagation, linkbudget):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != module.__name__:
                continue
            params = set(inspect.signature(fn).parameters)
            assert not {p for p in params - {"f_c_ghz"}
                        if p.startswith("f_") or "freq" in p or "carrier" in p}, name
            if "f_c_ghz" in params:
                takes_carrier.add(name)
    assert takes_carrier == {"fspl", "pl_los_ci", "pl_nlos_abg", "material_loss",
                             "o2i_loss", "oxygen_absorption", "power_allocation"}


def test_shadow_draw_statistics():
    params = PropagationParams()
    draws = draw_shadows(np.random.default_rng(99), 1_000_000, params)
    for arr, sigma in (
        (draws.x_los_db, params.sigma_los_db),
        (draws.x_nlos_db, params.sigma_nlos_db),
        (draws.x_o2i_low_db, params.sigma_o2i_low_db),
        (draws.x_o2i_high_db, params.sigma_o2i_high_db),
    ):
        assert abs(arr.mean()) < 0.02
        assert abs(arr.std() - sigma) / sigma < 0.01


@pytest.mark.parametrize("sigma", [0.0, 1e-300, PropagationParams().sigma_nlos_db, 1000.0])
def test_shadow_draw_has_the_bits_of_rng_normal(sigma):
    params = PropagationParams(sigma_los_db=sigma, sigma_nlos_db=sigma,
                               sigma_o2i_low_db=sigma, sigma_o2i_high_db=sigma)
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    draws = draw_shadows(rng, (570, 19), params)
    for arr in (draws.x_los_db, draws.x_nlos_db, draws.x_o2i_low_db, draws.x_o2i_high_db):
        expected = ref.normal(0.0, sigma, (570, 19))
        assert np.array_equal(arr.view(np.int64), expected.view(np.int64))
    assert rng.uniform() == ref.uniform()  # the same stream position after


def test_outdoor_shadow_draw_skips_only_the_o2i_terms():
    params = PropagationParams()
    full = draw_shadows(np.random.default_rng(7), (570, 19), params)
    outdoor = draw_shadows(np.random.default_rng(7), (570, 19), params, o2i=False)
    assert np.array_equal(outdoor.x_los_db, full.x_los_db)
    assert np.array_equal(outdoor.x_nlos_db, full.x_nlos_db)
    assert outdoor.x_o2i_low_db == 0.0 and outdoor.x_o2i_high_db == 0.0


DEP = generate_layout(200.0)


def budget_at(cfg, xy, los_u, depth=0.0, draws=ShadowDraws()):
    """link_budget of stations at ``xy`` (1.5 m high, floor 1, in-building
    depth ``depth``) with LoS uniforms ``los_u``: 0 makes every link LoS,
    1 every link NLoS."""
    n = len(xy)
    drop = MobileDrop(np.asarray(xy, dtype=float), np.full(n, 1.5),
                      np.broadcast_to(np.asarray(depth, dtype=float), (n,)),
                      np.ones(n, dtype=int))
    return link_budget(cfg, DEP, drop,
                       np.broadcast_to(np.asarray(los_u, dtype=float), (n, 19)), draws)


def test_bs_height_is_read_from_the_config():
    # the layout holds no height: a 25 m BS gives a 23.5 m vertical offset
    cfg = ScenarioConfig(f_c_ghz=30.0, deployment=DeploymentParams(bs_height_m=25.0))
    budget = budget_at(cfg, [[50.0, 20.0], [-130.0, 75.0]], 0.0)
    assert np.array_equal(budget["d_3d"], np.hypot(budget["d_2d"], 23.5))


def link_loss_db(budget):
    # PL + L_O2I + L_OA - G_sm per station, site and sector: G_tx - CL at 0 dBi G_rx
    n = len(budget["d_2d"])
    return (budget["g_tx"] - budget["coupling_loss"]).reshape(n, 19, 3)


def test_link_loss_composition():
    # a station with d_3d = 100 m to the centre site (BS 10 m, station 1.5 m)
    xy = [[math.sqrt(100.0 ** 2 - 8.5 ** 2), 0.0]]
    cfg = ScenarioConfig(f_c_ghz=30.0)
    b = budget_at(cfg, xy, 0.0)
    assert_allclose(b["d_3d"][0, 0], 100.0, atol=1e-12)
    assert_allclose(link_loss_db(b)[0, 0], CI_30GHZ_100M, atol=1e-6)
    b = budget_at(ScenarioConfig(f_c_ghz=30.0, g_sm_db=3.0), xy, 0.0)
    assert_allclose(link_loss_db(b)[0, 0], CI_30GHZ_100M - 3.0, atol=1e-6)

    # indoor NLoS at 60 GHz, d_3d = 200 m, no in-building depth, 15 dB/km oxygen
    xy = [[math.sqrt(200.0 ** 2 - 8.5 ** 2), 0.0]]
    b = budget_at(ScenarioConfig(f_c_ghz=60.0, environment="indoor"), xy, 1.0)
    want = pl_nlos_abg(60.0, 200.0) + o2i_loss(60.0, 0.0) + 3.0
    assert_allclose(link_loss_db(b)[0, 0], want, atol=1e-9)


def test_link_loss_selects_by_los_state(rng):
    xy = rng.uniform(-400.0, 400.0, size=(50, 2))
    draws = draw_shadows(rng, (50, 19))
    cfg = ScenarioConfig(f_c_ghz=30.0)
    for los_u in (0.0, 1.0, rng.uniform(size=(50, 19))):
        b = budget_at(cfg, xy, los_u, draws=draws)
        assert np.array_equal(b["is_los"], los_u < los_probability(b["d_2d"]))
        want = np.where(b["is_los"], pl_los_ci(30.0, b["d_3d"], draws.x_los_db),
                        pl_nlos_abg(30.0, b["d_3d"], draws.x_nlos_db))
        assert_allclose(b["pl"], want, atol=1e-12)
        # outdoors at 30 GHz the path loss is the whole link loss
        assert_allclose(link_loss_db(b), np.repeat(want[:, :, None], 3, axis=2), atol=1e-9)
    assert np.all(budget_at(cfg, xy, 0.0)["is_los"])
    assert not np.any(budget_at(cfg, xy, 1.0)["is_los"])


def test_o2i_depth_is_clipped_to_d2d(rng):
    # stations 20-60 m from the centre site, 100-300 m deep in their
    # buildings: the depth exceeds d_2d on the links to the nearest sites
    r = rng.uniform(20.0, 60.0, size=40)
    a = rng.uniform(0.0, 2.0 * np.pi, size=40)
    xy = np.stack([r * np.cos(a), r * np.sin(a)], axis=1)
    depth = rng.uniform(100.0, 300.0, size=40)
    draws = draw_shadows(rng, (40, 19))
    cfg = ScenarioConfig(f_c_ghz=60.0, environment="indoor")
    b = budget_at(cfg, xy, rng.uniform(size=(40, 19)), depth=depth, draws=draws)
    clipped = o2i_loss(60.0, np.minimum(depth[:, None], b["d_2d"]),
                       draws.x_o2i_low_db, draws.x_o2i_high_db, cfg.propagation)
    assert np.array_equal(b["l_o2i"], clipped)
    deep = depth[:, None] > b["d_2d"]
    assert deep.sum() >= 40  # every station reaches past its nearest site
    unclipped = o2i_loss(60.0, np.broadcast_to(depth[:, None], deep.shape),
                         draws.x_o2i_low_db, draws.x_o2i_high_db, cfg.propagation)
    assert np.all(b["l_o2i"][deep] < unclipped[deep])
    assert np.array_equal(b["l_o2i"][~deep], unclipped[~deep])


def test_params_validation():
    with pytest.raises(ValueError):
        PropagationParams(sigma_los_db=-1.0)
    with pytest.raises(ValueError):
        PropagationParams(abg_alpha=0.0)
    # every field is checked, by its dotted name: the sigmas used to let NaN through
    with pytest.raises(ValueError, match=r"^propagation\.sigma_nlos_db must "):
        PropagationParams(sigma_nlos_db=float("nan"))


def test_params_hold_loss_pairs_and_oxygen_table_as_floats():
    # as a config file's integers are read
    params = PropagationParams(glass_loss_db=(2, 0), oxygen_delta_db_per_km={60: 15})
    assert params.glass_loss_db == (2.0, 0.0)
    assert all(type(v) is float for v in (*params.glass_loss_db,
                                           *params.oxygen_delta_db_per_km,
                                           *params.oxygen_delta_db_per_km.values()))
