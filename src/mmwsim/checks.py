"""The rules a scenario config's values must meet: each field's type by its
annotation and each number's range by the field's dotted name, applied by one
walker, ``check_fields``, the environment by ``check_environment``, the power
scheme by ``check_power`` and a carrier's table key by ``carrier_key``.  Each
config block checks itself with them as it is built; ``generate_layout``,
``drop_mobiles`` and ``power_allocation`` check their bare values the same way."""

from __future__ import annotations

import dataclasses
import math
import sys

from .errors import ConfigError

# Bound on the dB settings that reach 10 ** (x / 10): far inside the float
# range (overflow near 3,080 dB), far outside any physical setting.
_DB_LIMIT = 1000.0

# (low, high, low bound open) of every number in each bounded setting and
# model constant, checked once, as the config block holding it is built, so
# that an absurd magnitude is refused before the run: carrier and bandwidth
# positive, layout lengths positive and at most 1,000 km (far beyond any cell
# layout, far inside the range where the sampler's squared lengths overflow,
# near 1.3e154 m), counts from 1, the seed and clearances from 0, dB values
# within +-_DB_LIMIT (spreads and attenuation ceilings from 0), path-loss
# exponents and the ABG frequency slope up to 10 (ci_ple_coeff is 10 times its
# exponent), beamwidths within the circle and the downtilt a zenith angle.
# None leaves bandwidth_hz and tx_power_dbm to the carrier table.
RANGES = {
    "f_c_ghz": (0.0, math.inf, True),
    "bandwidth_hz": (0.0, math.inf, True),
    **dict.fromkeys(("deployment.isd_m", "deployment.bs_height_m",
                     "deployment.ms_height_m"), (0.0, 1.0e6, True)),
    "n_drops": (1, math.inf, False),
    "ms_per_sector": (1, math.inf, False),
    "seed": (0, math.inf, False),
    **dict.fromkeys(("deployment.min_distance_m", "deployment.indoor_depth_max_m"),
                    (0.0, math.inf, False)),
    **dict.fromkeys(("noise_figure_db", "g_sm_db", "ms_gain_dbi", "tx_power_dbm",
                     "antenna.g_max_dbi", "propagation.abg_beta_db",
                     "propagation.glass_loss_db", "propagation.irr_glass_loss_db",
                     "propagation.concrete_loss_db",
                     "propagation.indoor_loss_rate_db_per_m",
                     "propagation.oxygen_delta_db_per_km"), (-_DB_LIMIT, _DB_LIMIT, False)),
    **dict.fromkeys(("propagation.sigma_los_db", "propagation.sigma_nlos_db",
                     "propagation.sigma_o2i_low_db", "propagation.sigma_o2i_high_db",
                     "antenna.sla_v_db", "antenna.front_back_db"), (0.0, _DB_LIMIT, False)),
    "propagation.ci_ple_coeff": (0.0, 100.0, False),
    "propagation.abg_alpha": (0.0, 10.0, True),
    "propagation.abg_gamma": (0.0, 10.0, True),
    "antenna.hpbw_v_deg": (0.0, 360.0, True),
    "antenna.hpbw_h_deg": (0.0, 360.0, True),
    "antenna.downtilt_deg": (0.0, 180.0, False),
}


def _is_real(value) -> bool:
    """A finite float, or an int (not bool) in float range."""
    return (isinstance(value, float) and math.isfinite(value)) or (
        isinstance(value, int) and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max)


# field checks by annotation string; every number, also inside the loss
# pairs and the oxygen table, is finite
PAIR, TABLE = "tuple[float, float]", "dict[float, float]"
FIELD_TYPES = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (_is_real, "a finite number"),
    "float | None": (lambda v: v is None or _is_real(v), "a finite number or null"),
    PAIR: (lambda v: isinstance(v, tuple) and len(v) == 2 and all(map(_is_real, v)),
           "a pair of finite numbers"),
    TABLE: (lambda v: isinstance(v, dict) and all(map(_is_real, [*v, *v.values()])),
            "a mapping of finite numbers"),
}


#: (bandwidth Hz, scaled-scheme transmit power dBm) per standard carrier, GHz keyed
BANDWIDTH_HZ = {2.0: 20e6, 10.0: 300e6, 30.0: 500e6, 60.0: 1000e6, 100.0: 2000e6}
SCALED_PTX_DBM = {2.0: 44.0, 10.0: 55.8, 30.0: 58.0, 60.0: 61.0, 100.0: 64.0}


def carrier_key(table, f_c_ghz):
    """The key of ``table`` (carriers in GHz) within 1e-9 GHz of ``f_c_ghz``, or None."""
    return next((k for k in table if abs(f_c_ghz - k) < 1e-9), None)


def check_power(scheme, f_c_ghz, bandwidth_hz, tx_power_dbm):
    """Refuse a scheme other than ``scaled`` or ``constant``, and a carrier off the
    table without ``bandwidth_hz`` or, scaled, ``tx_power_dbm``; its table key or None."""
    if scheme not in ("scaled", "constant"):
        raise ConfigError(f"power_scheme must be 'scaled' or 'constant', got {scheme!r}")
    key = carrier_key(BANDWIDTH_HZ, f_c_ghz)
    if key is None and bandwidth_hz is None:
        raise ConfigError(f"f_c_ghz={f_c_ghz:g} is not a standard carrier; set bandwidth_hz")
    if key is None and tx_power_dbm is None and scheme == "scaled":
        raise ConfigError(f"f_c_ghz={f_c_ghz:g} is not a standard carrier; set tx_power_dbm")
    return key


def check_environment(environment):
    """Refuse a station environment other than ``outdoor`` or ``indoor``."""
    if environment not in ("outdoor", "indoor"):
        raise ConfigError(f"environment must be 'outdoor' or 'indoor', got {environment!r}")


def check_fields(cls, values: dict, prefix: str):
    """Check each entry of ``values`` that names a field of ``cls`` against
    its ``FIELD_TYPES`` rule, then its ``RANGES`` row, in field order.
    ``prefix`` is the block's dotted path: empty, or ending in a dot."""
    for f in dataclasses.fields(cls):
        if f.name not in values:
            continue
        name, value, rule = prefix + f.name, values[f.name], FIELD_TYPES.get(f.type)
        if rule is not None and not rule[0](value):
            raise ConfigError(f"{name} must be {rule[1]}, got {value!r}")
        if name not in RANGES:
            continue
        low, high, open_low = RANGES[name]
        numbers = (value.values() if isinstance(value, dict)
                   else value if isinstance(value, tuple) else (value,))
        if not all(v is None or (low < v if open_low else low <= v) and v <= high
                   for v in numbers):
            raise ConfigError(f"{name} must lie in {'(' if open_low else '['}"
                              f"{low:g}, {high:g}{']' if high < math.inf else ')'}, "
                              f"got {value!r}")
