import numpy as np
import pytest
from numpy.testing import assert_allclose

from mmwsim import (ConfigError, associate, cl_snr0_threshold, coupling_loss,
                    noise_power, power_allocation)

# Table values: (f_c GHz, bandwidth MHz, scaled P_Tx dBm)
TABLE = [
    (2.0, 20.0, 44.0),
    (10.0, 300.0, 55.8),
    (30.0, 500.0, 58.0),
    (60.0, 1000.0, 61.0),
    (100.0, 2000.0, 64.0),
]


@pytest.mark.parametrize("f_c,bw_mhz,ptx", TABLE)
def test_power_allocation_scaled(f_c, bw_mhz, ptx):
    alloc = power_allocation("scaled", f_c)
    assert alloc.bandwidth_hz == bw_mhz * 1e6
    assert alloc.p_tx_dbm == ptx


@pytest.mark.parametrize("f_c,bw_mhz,ptx", TABLE)
def test_power_allocation_constant(f_c, bw_mhz, ptx):
    alloc = power_allocation("constant", f_c)
    assert alloc.bandwidth_hz == bw_mhz * 1e6
    assert alloc.p_tx_dbm == 44.0


def test_schemes_agree_at_2ghz():
    a = power_allocation("scaled", 2.0)
    b = power_allocation("constant", 2.0)
    assert (a.bandwidth_hz, a.p_tx_dbm) == (b.bandwidth_hz, b.p_tx_dbm)


def test_power_allocation_errors_and_overrides():
    with pytest.raises(ConfigError):
        power_allocation("scaled", 7.0)
    with pytest.raises(ConfigError):
        power_allocation("boosted", 2.0)
    alloc = power_allocation("scaled", 7.0, bandwidth_hz=100e6, p_tx_dbm=50.0)
    assert alloc.bandwidth_hz == 100e6 and alloc.p_tx_dbm == 50.0
    # constant scheme only needs the bandwidth override
    alloc = power_allocation("constant", 7.0, bandwidth_hz=100e6)
    assert alloc.p_tx_dbm == 44.0


def test_noise_power():
    assert_allclose(noise_power(20e6, 9.0), -91.98970004, atol=1e-6)
    assert_allclose(noise_power(2e9, 9.0), -71.98970004, atol=1e-6)
    assert_allclose(noise_power(1.0, 0.0), -174.0, atol=1e-12)
    with pytest.raises(ValueError):
        noise_power(0.0, 9.0)


def test_coupling_loss_arithmetic():
    assert coupling_loss(17.6, 0.0, 100.0) == -82.4
    assert coupling_loss(0.0, 0.0, 0.0) == 0.0
    assert_allclose(coupling_loss(17.6, 0.0, 124.46, 34.98, 3.0), -144.84, atol=1e-12)


def test_coupling_plus_link_loss_identity(rng):
    # CL + link loss = g_tx + g_rx, exactly, for any loss mix
    g_tx = rng.uniform(-30, 20, 1000)
    g_rx = rng.uniform(-5, 5, 1000)
    pl = rng.uniform(40, 170, 1000)
    o2i = rng.uniform(0, 80, 1000)
    oa = rng.uniform(0, 10, 1000)
    g_sm = rng.uniform(-5, 5, 1000)
    cl = coupling_loss(g_tx, g_rx, pl, o2i, oa, g_sm)
    ll = pl + o2i + oa - g_sm
    assert_allclose(cl + ll, g_tx + g_rx, atol=1e-10)


def test_cl_snr0_threshold():
    assert_allclose(cl_snr0_threshold(44.0, noise_power(20e6, 9.0)),
                    -135.9897, atol=1e-4)
    assert_allclose(cl_snr0_threshold(44.0, noise_power(2e9, 9.0)),
                    -115.9897, atol=1e-4)
    assert cl_snr0_threshold(61.0, -81.0) == -142.0


def test_associate_dominant():
    cl = np.full((1, 57), -120.0)
    cl[0, 13] = -110.0
    serving, serving_cl = associate(cl)
    assert serving.tolist() == [13]
    assert serving_cl.tolist() == [-110.0]


def test_associate_tie_breaks_low_id():
    cl = np.full((1, 57), -120.0)
    cl[0, [20, 41]] = -105.0
    assert associate(cl)[0].tolist() == [20]


def test_associate_empty():
    with pytest.raises(RuntimeError):
        associate(np.empty((1, 0)))
    with pytest.raises(RuntimeError):
        associate(np.empty((0, 0)))


def test_associate_matches_brute_force(rng):
    cls = rng.uniform(-160.0, -60.0, size=(1000, 57))
    cls[::7, 40] = cls[::7, 3] = cls[::7].max(axis=1)  # exact ties on every 7th row
    serving, serving_cl = associate(cls)
    noise_limited = serving_cl < -110.0  # RunResult.noise_limited's rule
    for row, got, got_cl, got_nl in zip(cls, serving, serving_cl, noise_limited):
        # oracle: exhaustive scan for the maximum, first index wins
        best = 0
        for i in range(57):
            if row[i] > row[best]:
                best = i
        assert got == best
        assert got_cl == row[best]
        assert got_nl == (row[best] < -110.0)


def test_associate_serving_cl_bit_identical_to_take_along_axis_rule(rng):
    cls = rng.uniform(-160.0, -60.0, size=(600, 57))
    cls[::7, 40] = cls[::7, 3] = cls[::7].max(axis=1)  # exact ties
    cls[1::7, :] = -np.inf
    cls[2::7, 9] = np.nan
    cls[3::7, :] = -1.0
    cls[3::7, 5], cls[3::7, 6] = -0.0, 0.0  # a tie of signed zeros: -0.0 serves
    cls[4::7, 56] = np.inf
    for cl in (cls, cls[:1], cls[:0], np.asfortranarray(cls), cls[:, ::2], cls[:, :1]):
        serving, serving_cl = associate(cl)
        noise_limited = serving_cl < -110.0  # RunResult.noise_limited's rule
        want = np.take_along_axis(cl, np.argmax(cl, axis=1)[:, None], axis=1)[:, 0]
        assert serving_cl.shape == want.shape == (len(cl),)
        assert serving_cl.tobytes() == want.tobytes()
        assert noise_limited.tobytes() == (want < -110.0).tobytes()
    assert np.signbit(associate(cls)[1][3::7]).all()


def test_associate_shift_invariance(rng):
    cls = rng.uniform(-160.0, -60.0, size=(100, 57))
    a = associate(cls)
    b = associate(cls + 23.4)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1] < -110.0, b[1] < -110.0 + 23.4)
