"""Per-link budget: the paper's two power allocation schemes (``scaled``, per
carrier from ``BANDWIDTH_HZ`` and ``SCALED_PTX_DBM``, and ``constant``, at
``CONSTANT_PTX_DBM``), noise, coupling loss and cell association."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import ConfigError, check_range, check_scheme

#: (bandwidth Hz, scaled-scheme transmit power dBm) per standard carrier, GHz keyed
BANDWIDTH_HZ = {2.0: 20e6, 10.0: 300e6, 30.0: 500e6, 60.0: 1000e6, 100.0: 2000e6}
SCALED_PTX_DBM = {2.0: 44.0, 10.0: 55.8, 30.0: 58.0, 60.0: 61.0, 100.0: 64.0}
CONSTANT_PTX_DBM = 44.0

NOISE_DENSITY_DBM_HZ = -174.0


def check_power(scheme, f_c_ghz, bandwidth_hz, tx_power_dbm):
    """Refuse a scheme other than ``scaled`` or ``constant``, and a carrier equal to
    no table key without ``bandwidth_hz`` or, scaled, ``tx_power_dbm``."""
    check_scheme(scheme)
    if f_c_ghz not in BANDWIDTH_HZ and bandwidth_hz is None:
        raise ConfigError(f"f_c_ghz={f_c_ghz!r} is not a standard carrier; set bandwidth_hz")
    if f_c_ghz not in BANDWIDTH_HZ and tx_power_dbm is None and scheme == "scaled":
        raise ConfigError(f"f_c_ghz={f_c_ghz!r} is not a standard carrier; set tx_power_dbm")


@dataclass(frozen=True)
class PowerAllocation:
    scheme: str  # "scaled" | "constant"
    f_c_ghz: float
    bandwidth_hz: float
    p_tx_dbm: float


def power_allocation(scheme: str, f_c_ghz: float, bandwidth_hz: float | None = None,
                     p_tx_dbm: float | None = None) -> PowerAllocation:
    """Bandwidth and transmit power for a carrier under one allocation scheme.

    The five standard carriers (2/10/30/60/100 GHz) resolve from the
    built-in table; any other frequency requires explicit ``bandwidth_hz``
    and, for the scaled scheme, ``p_tx_dbm`` overrides (``check_power``).
    """
    check_power(scheme, f_c_ghz, bandwidth_hz, p_tx_dbm)
    if bandwidth_hz is None:
        bandwidth_hz = BANDWIDTH_HZ[f_c_ghz]
    if p_tx_dbm is None:
        p_tx_dbm = CONSTANT_PTX_DBM if scheme == "constant" else SCALED_PTX_DBM[f_c_ghz]
    return PowerAllocation(scheme=scheme, f_c_ghz=f_c_ghz,
                           bandwidth_hz=float(bandwidth_hz), p_tx_dbm=float(p_tx_dbm))


def noise_power(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Receiver noise power in dBm over ``bandwidth_hz`` at ``NOISE_DENSITY_DBM_HZ``."""
    b = check_range("bandwidth_hz", bandwidth_hz, 0.0, open_low=True)
    return NOISE_DENSITY_DBM_HZ + 10.0 * np.log10(b) + noise_figure_db


def coupling_loss(g_tx_dbi, g_rx_dbi, pl_db, l_o2i_db=0.0, l_oa_db=0.0, g_sm_db=0.0):
    """Net gain minus loss between sector and station in dB:
    ``g_tx + g_rx - (pl + l_o2i + l_oa - g_sm)``."""
    return g_tx_dbi + g_rx_dbi - (pl_db + l_o2i_db + l_oa_db - g_sm_db)


def cl_snr0_threshold(p_tx_dbm: float, noise_total_dbm: float) -> float:
    """Coupling loss at which received power equals total noise power.

    Links with coupling loss below this value operate noise-limited,
    at or above it interference-limited; ``RunResult.noise_limited`` is
    where that rule is applied.
    """
    return noise_total_dbm - p_tx_dbm


def associate(cl):
    """Serving sector of every station from its coupling losses.

    Parameters
    ----------
    cl : (n, n_sectors) coupling losses in dB, sector ids along axis 1.

    Returns
    -------
    serving : (n,) sector of maximum CL; ties go to the lowest sector id.
    serving_cl : (n,) the serving CL in dB.
    """
    cl = np.asarray(cl, dtype=float)
    if cl.ndim != 2 or cl.shape[1] == 0:
        raise RuntimeError(f"associate needs an (n, n_sectors >= 1) CL matrix, "
                           f"got shape {cl.shape}")
    serving = np.argmax(cl, axis=1)
    # direct fancy indexing: take_along_axis builds its index in Python
    return serving, cl[np.arange(len(cl)), serving]
