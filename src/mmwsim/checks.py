"""The rules a scenario config's values must meet, and ``ConfigError``: each
field's type by its annotation and each number's range by the field's dotted
name, applied by one walker, ``check_fields``, the environment by
``check_environment`` and the power scheme by ``check_scheme``, which a sweep
also applies to its schemes before any run.  Each config block checks itself
with them as it is built (``check_block``, which also stores each value at its
field's type), so the ``deployment`` block that ``drop_mobiles`` and
``wrap_displacements`` take is checked once; ``drop_mobiles`` checks its
environment with ``check_environment``, and the engine its ``workers`` with
``_is_int``.  The link-budget stages refuse an argument outside their domain
by one rule, ``check_range``, whose message writes the interval as
``check_fields``' does."""

from __future__ import annotations

import dataclasses
import math
import numbers
import sys

import numpy as np


class ConfigError(ValueError):
    """Invalid scenario or model configuration; message names the offending field."""


# Bound on the dB settings that reach 10 ** (x / 10): far inside the float
# range (overflow near 3,080 dB), far outside any physical setting.
_DB_LIMIT = 1000.0

# (low, high, low bound open) of every number in each bounded setting and
# model constant, checked once, as the config block holding it is built, so
# that an absurd magnitude is refused before the run: carrier in the 0.5-100 GHz
# for which the CI and ABG path-loss models are stated (3GPP TR 38.901 §7.4),
# bandwidth positive and at most 1e15 Hz (its noise power, at most 976 dBm,
# is finite as a linear power), layout lengths positive and at most 1,000 km
# (far beyond any cell layout, far inside the range where the sampler's
# squared lengths overflow, near 1.3e154 m), counts from 1, floor counts up to
# 333,334 (their 3 m storeys within that 1,000 km), the seed and clearances
# from 0, dB values within +-_DB_LIMIT (spreads and attenuation ceilings from
# 0), path-loss exponents and the ABG frequency slope up to 10 (ci_ple_coeff
# is 10 times its exponent), beamwidths within the circle and the downtilt a
# zenith angle.  None leaves bandwidth_hz and tx_power_dbm to the carrier table.
RANGES = {
    "f_c_ghz": (0.5, 100.0, False),
    "bandwidth_hz": (0.0, 1.0e15, True),
    **dict.fromkeys(("deployment.isd_m", "deployment.bs_height_m",
                     "deployment.ms_height_m"), (0.0, 1.0e6, True)),
    "n_drops": (1, math.inf, False),
    "ms_per_sector": (1, math.inf, False),
    "seed": (0, math.inf, False),
    **dict.fromkeys(("deployment.floor_count_min", "deployment.floor_count_max"),
                    (1, 333_334, False)),
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


def _is_int(value) -> bool:
    """An integer, a numpy one included, that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A real number, a numpy one included, that is finite as a float: an
    integer (not a bool) within float range, or any other finite real."""
    if isinstance(value, numbers.Integral):
        return _is_int(value) and abs(int(value)) <= sys.float_info.max
    return isinstance(value, numbers.Real) and math.isfinite(value)


# field rules by annotation string: test, description, and how a value that
# passed is stored; every number, also inside the loss pairs (a tuple or a
# list) and the oxygen table, is finite and stored as a Python int or float
PAIR, TABLE = "tuple[float, float]", "dict[float, float]"
FIELD_TYPES = {
    "int": (_is_int, "an integer", int),
    "float": (_is_real, "a finite number", float),
    "float | None": (lambda v: v is None or _is_real(v), "a finite number or null",
                     lambda v: None if v is None else float(v)),
    PAIR: (lambda v: isinstance(v, (tuple, list)) and len(v) == 2 and all(map(_is_real, v)),
           "a pair of finite numbers", lambda v: tuple(map(float, v))),
    TABLE: (lambda v: isinstance(v, dict) and all(map(_is_real, [*v, *v.values()]))
            and all(k > 0 for k in v), "a mapping of finite numbers at positive keys",
            lambda v: {float(k): float(x) for k, x in v.items()}),
}


def check_environment(environment):
    """Refuse a station environment other than ``outdoor`` or ``indoor``."""
    if environment not in ("outdoor", "indoor"):
        raise ConfigError(f"environment must be 'outdoor' or 'indoor', got {environment!r}")


def check_scheme(scheme):
    """Refuse a power scheme other than ``scaled`` or ``constant``."""
    if scheme not in ("scaled", "constant"):
        raise ConfigError(f"power_scheme must be 'scaled' or 'constant', got {scheme!r}")


def check_block(block, prefix: str):
    """Check the fields of the frozen dataclass ``block`` (``check_fields``), then
    store each at its type by its ``FIELD_TYPES`` rule (``60`` or ``np.int64(60)`` in
    a float field as ``60.0``, a list pair as a tuple), so equal configs save equal bytes."""
    check_fields(type(block), vars(block), prefix)
    for f in dataclasses.fields(block):
        if f.type in FIELD_TYPES:
            object.__setattr__(block, f.name, FIELD_TYPES[f.type][2](getattr(block, f.name)))


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
        keys = sorted(value) if f.type == TABLE else ()  # keys on one float sort side by side
        for low, high in zip(keys, keys[1:]):
            if float(low) == float(high):
                raise ConfigError(f"{name} keys {low!r} and {high!r} round to one float")
        if name not in RANGES:
            continue
        low, high, open_low = RANGES[name]
        numbers = (value.values() if isinstance(value, dict)
                   else value if isinstance(value, (tuple, list)) else (value,))
        if not all(v is None or (low < v if open_low else low <= v) and v <= high
                   for v in numbers):
            raise ConfigError(f"{name} must lie in {_interval(*RANGES[name])}, got {value!r}")


def _interval(low, high, open_low) -> str:
    return f"{'(' if open_low else '['}{low:g}, {high:g}{']' if high < math.inf else ')'}"


def check_range(name: str, value, low: float, high: float = math.inf, open_low: bool = False):
    """``value`` as a float array, or a ``ValueError`` if a non-NaN element is out of range."""
    x = np.asarray(value, dtype=float)
    v = np.fmin.reduce(x, axis=None, initial=math.inf)
    if (v <= low if open_low else v < low) or high < math.inf and (
            v := np.fmax.reduce(x, axis=None, initial=-math.inf)) > high:
        raise ValueError(f"{name} must lie in {_interval(low, high, open_low)}, got {float(v)!r}")
    return x
