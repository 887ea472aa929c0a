import numpy as np
import pytest
from numpy.testing import assert_allclose

from mmwsim import (RunResult, ScenarioConfig, associate, empirical_cdf, geometry_metric,
                    power_allocation)


def test_geometry_metric_example():
    p = np.full(57, -np.inf)
    p[0], p[1] = -80.0, -90.0
    # 1e-8 / (1e-10 + 1e-9) mW, hand-checked
    assert_allclose(geometry_metric(p, 0, -100.0), 9.586073148, atol=1e-6)


def test_geometry_metric_equal_cells_no_noise():
    p = np.array([-80.0, -80.0])
    assert_allclose(geometry_metric(p, 0, -np.inf), 0.0, atol=1e-12)


def test_geometry_metric_no_interferers_is_snr():
    p = np.full(57, -np.inf)
    p[5] = -75.0
    assert_allclose(geometry_metric(p, 5, -100.0), 25.0, atol=1e-12)


def test_geometry_metric_needs_two_links():
    with pytest.raises(RuntimeError):
        geometry_metric(np.array([-80.0]), 0, -100.0)


def test_geometry_metric_ratio_invariance(rng):
    for _ in range(1000):
        p = rng.uniform(-130.0, -60.0, size=57)
        serving = int(np.argmax(p))
        noise = rng.uniform(-120.0, -80.0)
        shift = rng.uniform(-40.0, 40.0)
        a = geometry_metric(p, serving, noise)
        b = geometry_metric(p + shift, serving, noise + shift)
        assert_allclose(a, b, atol=1e-9)


def test_geometry_metric_bounded_by_snr_and_sir(rng):
    p = rng.uniform(-130.0, -60.0, size=(1000, 57))
    serving = np.argmax(p, axis=1)
    noise = -95.0
    gm = geometry_metric(p, serving, noise)
    p_serv = np.take_along_axis(p, serving[:, None], axis=1)[:, 0]
    snr = p_serv - noise
    sir = geometry_metric(p, serving, -np.inf)
    assert np.all(gm <= snr + 1e-9)
    assert np.all(gm <= sir + 1e-9)


def test_removing_interferer_never_decreases_gm(rng):
    for _ in range(200):
        p = rng.uniform(-130.0, -60.0, size=57)
        serving = int(np.argmax(p))
        base = geometry_metric(p, serving, -95.0)
        k = int(rng.integers(0, 57))
        if k == serving:
            continue
        q = p.copy()
        q[k] = -np.inf
        assert geometry_metric(q, serving, -95.0) >= base - 1e-12


def test_geometry_metric_vectorised_matches_scalar(rng):
    p = rng.uniform(-130.0, -60.0, size=(50, 57))
    serving = np.argmax(p, axis=1)
    gm = geometry_metric(p, serving, -95.0)
    for i in range(50):
        assert_allclose(gm[i], geometry_metric(p[i], int(serving[i]), -95.0),
                        atol=1e-12)


def _onehot_geometry_metric(p_rx_dbm, serving, noise_total_dbm):
    # the reference rule: mask the serving power out of the sum with a one-hot
    p = np.atleast_2d(np.asarray(p_rx_dbm, dtype=float))
    serv = np.asarray(serving, dtype=int).reshape(p.shape[:-1])
    lin = 10.0 ** (p / 10.0)
    onehot = np.zeros_like(lin)
    np.put_along_axis(onehot, serv[..., None], 1.0, axis=-1)
    serving_lin = np.take_along_axis(lin, serv[..., None], axis=-1)[..., 0]
    interference = (lin * (1.0 - onehot)).sum(axis=-1)
    gm = 10.0 * np.log10(serving_lin / (10.0 ** (noise_total_dbm / 10.0) + interference))
    return float(gm[0]) if np.ndim(p_rx_dbm) == 1 else gm


def test_geometry_metric_bit_identical_to_onehot_rule(rng):
    p = rng.uniform(-140.0, -40.0, size=(400, 57))
    p[rng.uniform(size=p.shape) < 0.2] = -np.inf  # absent contributions
    for serving in (np.argmax(p, axis=1), rng.integers(0, 57, size=400)):
        serving[::50] = 3
        p[::50, 3] = -60.0
        p[::97] = -np.inf  # only the serving sector reaches these stations
        p[::97, serving[::97]] = -70.0
        for noise in (-95.0, -np.inf):
            with np.errstate(divide="ignore"):
                got = geometry_metric(p, serving, noise)
                assert np.array_equal(got, _onehot_geometry_metric(p, serving, noise))
                for i in range(0, 400, 13):  # the 1-D scalar path
                    one = geometry_metric(p[i], int(serving[i]), noise)
                    assert isinstance(one, float)
                    assert one == _onehot_geometry_metric(p[i], int(serving[i]), noise)


def test_empirical_cdf_counting():
    cdf = empirical_cdf([3.0, 1.0, 2.0])
    assert cdf.n == 3
    assert_allclose(cdf.fraction_below(2.0), 2.0 / 3.0)
    assert cdf.percentile(0.5) == 2.0
    assert cdf.percentile(0.0) == 1.0
    assert cdf.percentile(1.0) == 3.0
    assert cdf.fraction_below(0.5) == 0.0
    assert cdf.fraction_below(99.0) == 1.0


def test_empirical_cdf_median_of_normal():
    rng = np.random.default_rng(31)
    cdf = empirical_cdf(rng.normal(0.0, 1.0, size=10_000))
    assert abs(cdf.percentile(0.5)) < 0.05


def test_empirical_cdf_permutation_invariant(rng):
    x = rng.normal(size=500)
    a = empirical_cdf(x)
    b = empirical_cdf(rng.permutation(x))
    c = empirical_cdf(a.samples)  # idempotent on sorted input
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.samples, c.samples)


def test_empirical_cdf_consistency(rng):
    x = rng.normal(size=257)
    cdf = empirical_cdf(x)
    for p in rng.uniform(0.0, 1.0, size=1000):
        assert cdf.fraction_below(cdf.percentile(p)) >= p - 1e-12


def test_empirical_cdf_empty():
    with pytest.raises(ValueError):
        empirical_cdf([])


def test_percentile_domain():
    cdf = empirical_cdf([1.0, 2.0])
    with pytest.raises(ValueError):
        cdf.percentile(1.5)


def _record(serving_cl):
    """A hand-built run record of these serving CLs, its CL_SNR=0 threshold
    at -135.99 dB."""
    config = ScenarioConfig()
    power = power_allocation(config.power_scheme, config.f_c_ghz)
    serving_cl = np.asarray(serving_cl, dtype=float)
    return RunResult(config, power, -135.99 + power.p_tx_dbm, -135.99,
                     serving_cl, np.zeros_like(serving_cl), None)


def test_classify_regime():
    res = _record([-140.0, -120.0, -135.99])
    # noise-limited below the threshold, interference-limited above it
    assert res.noise_limited.tolist()[:2] == [True, False]
    # boundary goes to interference-limited
    assert not res.noise_limited[2]
    assert res.regime_fractions == {"noise_limited": 1 / 3, "interference_limited": 1 - 1 / 3}


def test_associate_serving_record():
    cl = np.full((1, 57), -150.0)
    cl[0, 17] = -140.0
    serving, serving_cl = associate(cl)
    assert serving[0] == 17
    assert serving_cl[0] == -140.0
    assert _record(serving_cl).noise_limited[0]
