"""Sector transmit antenna pattern (stations are isotropic, ``ms_gain_dbi`` dBi)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import check_block, check_range


@dataclass(frozen=True)
class AntennaPattern:
    """Synthesised vertical-beam sector pattern, parabolic in dB.

    Defaults model a 10-element uniform vertical array: 17.6 dBi peak
    gain, 10.2 degree elevation HPBW, electrically tilted to 102 degrees
    from zenith, with a 70 degree azimuth HPBW.  The elevation attenuation
    ceiling is the first-sidelobe level of a uniform 10-element array
    (13 dB below the main lobe).  ``front_back_db`` is the maximum
    attenuation A_m of the 3GPP TR 36.814 3D sector pattern: it caps the
    azimuth attenuation and also the sum of the elevation and azimuth
    attenuations, so no direction falls more than A_m below the peak.
    """

    g_max_dbi: float = 17.6
    hpbw_v_deg: float = 10.2
    downtilt_deg: float = 102.0
    hpbw_h_deg: float = 70.0
    sla_v_db: float = 13.0
    front_back_db: float = 25.0

    def __post_init__(self):
        check_block(self, "antenna.")


def sector_gain(pattern: AntennaPattern, theta_deg, phi_deg):
    """Gain in dBi toward (theta, phi).

    theta is measured from zenith in [0, 180]; phi from the sector
    boresight in (-180, 180].  Elevation and azimuth attenuations A_V and
    A_H are parabolic in the angle offset, A_V capped at ``sla_v_db``.  As
    in the 3GPP TR 36.814 3D pattern, ``front_back_db`` (A_m) caps A_H and
    the sum A_V + A_H, giving ``g_max_dbi - min(A_V + A_H, A_m)``.
    """
    theta = check_range("theta_deg", theta_deg, 0.0, 180.0)
    phi = check_range("phi_deg", phi_deg, -180.0, 180.0, open_low=True)
    # each cap a clip with no lower bound: with AVX-512, numpy runs minimum
    # against a scalar in a non-SIMD loop and clip in a SIMD one (same bits)
    a_v = np.clip(12.0 * ((theta - pattern.downtilt_deg) / pattern.hpbw_v_deg) ** 2,
                  -np.inf, pattern.sla_v_db)
    att = np.asarray(a_v + 12.0 * (phi / pattern.hpbw_h_deg) ** 2)  # A_V + A_H
    # A_m caps the sum, and with it A_H alone; worked in place because in a
    # drop the grid spans every station-sector pair
    np.clip(att, -np.inf, pattern.front_back_db, out=att)
    gain = np.subtract(pattern.g_max_dbi, att, out=att)
    return gain if gain.ndim else float(gain)
