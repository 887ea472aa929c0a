"""Per-link budget: power allocation, noise, coupling loss and cell association."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import BANDWIDTH_HZ, SCALED_PTX_DBM, check_power

CONSTANT_PTX_DBM = 44.0

NOISE_DENSITY_DBM_HZ = -174.0

#: links.csv column order
LINK_CSV_COLUMNS = ("ms_id", "sector_id", "d_2d", "d_3d", "is_los", "pl",
                    "l_o2i", "l_oa", "g_tx", "g_sm", "coupling_loss", "p_rx")


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
    key = check_power(scheme, f_c_ghz, bandwidth_hz, p_tx_dbm)
    if bandwidth_hz is None:
        bandwidth_hz = BANDWIDTH_HZ[key]
    if p_tx_dbm is None:
        p_tx_dbm = CONSTANT_PTX_DBM if scheme == "constant" else SCALED_PTX_DBM[key]
    return PowerAllocation(scheme=scheme, f_c_ghz=f_c_ghz,
                           bandwidth_hz=float(bandwidth_hz), p_tx_dbm=float(p_tx_dbm))


def noise_power(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Receiver noise power in dBm over ``bandwidth_hz`` at ``NOISE_DENSITY_DBM_HZ``."""
    if bandwidth_hz <= 0:
        raise ValueError(f"bandwidth_hz must be positive, got {bandwidth_hz}")
    return NOISE_DENSITY_DBM_HZ + 10.0 * np.log10(bandwidth_hz) + noise_figure_db


def coupling_loss(g_tx_dbi, g_rx_dbi, pl_db, l_o2i_db=0.0, l_oa_db=0.0, g_sm_db=0.0):
    """Net gain minus loss between sector and station in dB:
    ``g_tx + g_rx - (pl + l_o2i + l_oa - g_sm)``."""
    return g_tx_dbi + g_rx_dbi - (pl_db + l_o2i_db + l_oa_db - g_sm_db)


def cl_snr0_threshold(p_tx_dbm: float, noise_total_dbm: float) -> float:
    """Coupling loss at which received power equals total noise power.

    Links with coupling loss below this value operate noise-limited,
    at or above it interference-limited.
    """
    return noise_total_dbm - p_tx_dbm


def associate(cl, threshold_db: float):
    """Serving sector of every station from its coupling losses.

    Parameters
    ----------
    cl : (n, n_sectors) coupling losses in dB, sector ids along axis 1.
    threshold_db : the CL_SNR=0 threshold (see ``cl_snr0_threshold``).

    Returns
    -------
    serving : (n,) sector of maximum CL; ties go to the lowest sector id.
    serving_cl : (n,) the serving CL in dB.
    noise_limited : (n,) True where the serving CL is strictly below the
        threshold; at or above it the station is interference-limited.
    """
    cl = np.asarray(cl, dtype=float)
    if cl.ndim != 2 or cl.shape[1] == 0:
        raise RuntimeError(f"associate needs an (n, n_sectors >= 1) CL matrix, "
                           f"got shape {cl.shape}")
    serving = np.argmax(cl, axis=1)
    serving_cl = np.take_along_axis(cl, serving[:, None], axis=1)[:, 0]
    return serving, serving_cl, serving_cl < threshold_db
