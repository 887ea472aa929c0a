"""Large-scale propagation models for 2-100 GHz urban-micro links.

Implements the close-in (CI) line-of-sight path loss, the alpha-beta-gamma
(ABG) non-line-of-sight path loss, a distance-based LoS probability,
composite outdoor-to-indoor penetration loss and oxygen absorption, each
with its log-normal shadow term.  All functions accept scalars or numpy
arrays, take the carrier in GHz (``f_c_ghz``) and return dB values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .checks import carrier_key, check_fields
from .errors import FrequencyRangeWarning

SPEED_OF_LIGHT_M_S = 299_792_458.0

#: validity range of the path-loss models, in GHz
FREQ_VALID_GHZ = (0.5, 100.0)

_MATERIALS = ("glass", "irr_glass", "concrete")


class _FrozenTable(dict):
    """A ``dict`` that refuses every change once built, hashed by its items."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("oxygen_delta_db_per_km is read-only; "
                        "build a new PropagationParams to change it")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __reduce__(self):  # copies and pickles rebuild it whole, not item by item
        return type(self), (dict(self),)


@dataclass(frozen=True)
class PropagationParams:
    """Model constants; defaults reproduce the standard urban-micro fit.

    Material losses are linear in frequency, ``intercept + slope * f_GHz``
    dB.  ``sigma_o2i_low_db`` / ``sigma_o2i_high_db`` default to the
    variance reading of the in-building shadow spread (variances 3 and 5);
    the standard-deviation reading sets them to 3.0 and 5.0.  An empty
    ``oxygen_delta_db_per_km`` switches oxygen absorption off.
    """

    ci_ple_coeff: float = 21.0  # 10 * path-loss exponent of the LoS model
    sigma_los_db: float = 3.76
    abg_alpha: float = 3.53
    abg_beta_db: float = 22.4
    abg_gamma: float = 2.13
    sigma_nlos_db: float = 7.82
    sigma_o2i_low_db: float = math.sqrt(3.0)
    sigma_o2i_high_db: float = math.sqrt(5.0)
    glass_loss_db: tuple[float, float] = (2.0, 0.2)
    irr_glass_loss_db: tuple[float, float] = (23.0, 0.3)
    concrete_loss_db: tuple[float, float] = (5.0, 4.0)
    indoor_loss_rate_db_per_m: float = 0.5
    oxygen_delta_db_per_km: dict[float, float] = field(
        default_factory=lambda: {60.0: 15.0})

    def __post_init__(self):
        check_fields(PropagationParams, vars(self), "propagation.")
        # the loss pairs and oxygen table as floats: YAML's {60: 15} echoes as
        # floats; the table read-only, so that the checked config stays valid
        for name in (f"{material}_loss_db" for material in _MATERIALS):
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        object.__setattr__(self, "oxygen_delta_db_per_km", _FrozenTable(
            (float(k), float(v)) for k, v in self.oxygen_delta_db_per_km.items()))


DEFAULT_PARAMS = PropagationParams()


@dataclass(frozen=True, eq=False)  # array fields: compare them with np.array_equal
class ShadowDraws:
    """Zero-mean Gaussian shadow terms in dB, one set per station-site pair."""

    x_los_db: float | np.ndarray = 0.0
    x_nlos_db: float | np.ndarray = 0.0
    x_o2i_low_db: float | np.ndarray = 0.0
    x_o2i_high_db: float | np.ndarray = 0.0


def draw_shadows(rng: np.random.Generator, shape,
                 params: PropagationParams = DEFAULT_PARAMS,
                 o2i: bool = True) -> ShadowDraws:
    """Draw one set of shadow terms; the draw order is fixed.

    The two O2I terms come last, so ``o2i=False`` (outdoor stations, which
    have no O2I loss) skips them, leaves them 0.0 and draws the LoS and
    NLoS terms bit for bit as a full draw does.  Each term is a standard
    normal draw scaled in place: numpy's ``normal(0.0, sigma)`` computes
    ``0.0 + sigma * z`` from the same draws, so the bits (``+0.0`` at
    ``sigma == 0`` included) and the stream position are those of
    ``rng.normal(0.0, sigma, shape)``.
    """
    def normal(sigma):
        z = rng.standard_normal(shape)
        z *= sigma
        z += 0.0
        return z

    x_los_db = normal(params.sigma_los_db)
    x_nlos_db = normal(params.sigma_nlos_db)
    if not o2i:
        return ShadowDraws(x_los_db=x_los_db, x_nlos_db=x_nlos_db)
    return ShadowDraws(
        x_los_db=x_los_db,
        x_nlos_db=x_nlos_db,
        x_o2i_low_db=normal(params.sigma_o2i_low_db),
        x_o2i_high_db=normal(params.sigma_o2i_high_db),
    )


def _check_freq_validity(f_c_ghz):
    lo, hi = FREQ_VALID_GHZ
    f = np.asarray(f_c_ghz)
    if np.any(f < lo) or np.any(f > hi):
        warnings.warn(
            f"carrier frequency outside the {lo}-{hi} GHz model validity "
            "range", FrequencyRangeWarning, stacklevel=3)


def fspl(f_c_ghz: float) -> float:
    """Free-space path loss at the 1 m reference distance.

    Parameters
    ----------
    f_c_ghz : carrier frequency in GHz.

    Returns
    -------
    20 * log10(4 * pi * f_c / c) in dB, with f_c in Hz.
    """
    if np.any(np.asarray(f_c_ghz) <= 0):
        raise ValueError(f"f_c_ghz must be positive, got {f_c_ghz}")
    return 20.0 * np.log10(4.0 * np.pi * (f_c_ghz * 1e9) / SPEED_OF_LIGHT_M_S)


def pl_los_ci(f_c_ghz: float, d_m, x_los_db=0.0,
              params: PropagationParams = DEFAULT_PARAMS):
    """Close-in reference-distance LoS path loss.

    Parameters
    ----------
    f_c_ghz : carrier frequency in GHz.
    d_m : 3D transmitter-receiver distance in metres, >= 1 (model
        reference distance).
    x_los_db : shadow term in dB.

    Returns
    -------
    FSPL(f_c) + ci_ple_coeff * log10(d) + x_los in dB.
    """
    d = np.asarray(d_m, dtype=float)
    if np.any(d < 1.0):
        raise ValueError("d_m below the 1 m close-in reference distance")
    _check_freq_validity(f_c_ghz)
    return fspl(f_c_ghz) + params.ci_ple_coeff * np.log10(d) + x_los_db


def pl_nlos_abg(f_c_ghz: float, d_m, x_nlos_db=0.0,
                params: PropagationParams = DEFAULT_PARAMS):
    """Alpha-beta-gamma NLoS path loss.

    Parameters
    ----------
    f_c_ghz : carrier frequency in GHz (the frequency slope of this model
        is defined on GHz).
    d_m : 3D transmitter-receiver distance in metres, >= 1.
    x_nlos_db : shadow term in dB.

    Returns
    -------
    10*alpha*log10(d) + beta + 10*gamma*log10(f_GHz) + x_nlos in dB.
    """
    d = np.asarray(d_m, dtype=float)
    if np.any(d < 1.0):
        raise ValueError("d_m below the 1 m reference distance")
    _check_freq_validity(f_c_ghz)
    return (10.0 * params.abg_alpha * np.log10(d) + params.abg_beta_db
            + 10.0 * params.abg_gamma * np.log10(f_c_ghz) + x_nlos_db)


def los_probability(d_2d_m):
    """Line-of-sight probability versus horizontal distance.

    Equals 1 up to 18 m and decays as
    ``(18/d) * (1 - exp(-d/36)) + exp(-d/36)`` beyond.  Each link's LoS
    state is a Bernoulli draw with this probability, fixed per
    station-site pair per drop.  As in 3GPP TR 38.901 Table 7.4.2-1, ``d``
    is the outdoor distance d_2D-out: for an indoor station that is the
    link's d_2D minus its in-building depth (clipped to d_2D), so a link
    that lies wholly inside the building is LoS with probability 1.
    """
    d = np.asarray(d_2d_m, dtype=float)
    if np.any(d < 0):
        raise ValueError("d_2d_m must be non-negative")
    ratio = 18.0 / np.maximum(d, 18.0)  # 1 for d <= 18, collapses p to 1
    decay = np.exp(-d / 36.0)
    p = ratio * (1.0 - decay) + decay
    return p if p.ndim else float(p)


def material_loss(material: str, f_c_ghz: float,
                  params: PropagationParams = DEFAULT_PARAMS):
    """Penetration loss of one building material in dB, linear in f_GHz."""
    if material not in _MATERIALS:
        raise ValueError(f"unknown material {material!r}, expected one of {_MATERIALS}")
    if np.any(np.asarray(f_c_ghz) < 0):
        raise ValueError("f_c_ghz must be non-negative")
    intercept, slope = {
        "glass": params.glass_loss_db,
        "irr_glass": params.irr_glass_loss_db,
        "concrete": params.concrete_loss_db,
    }[material]
    return intercept + slope * f_c_ghz


def o2i_loss(f_c_ghz: float, d_2d_in_m, x_low_db=0.0, x_high_db=0.0,
             params: PropagationParams = DEFAULT_PARAMS):
    """Composite outdoor-to-indoor penetration loss.

    Combines a low-loss wall model (30% glass / 70% concrete) and a
    high-loss wall model (70% IRR glass / 30% concrete), each carrying its
    own shadow term, via a 50/50 power average of the two wall losses, and
    adds the in-building loss ``indoor_loss_rate * d_2d_in``.  Outdoor
    stations bypass this entirely (loss 0).
    """
    d_in = np.asarray(d_2d_in_m, dtype=float)
    if np.any(d_in < 0):
        raise ValueError("d_2d_in_m must be non-negative")
    l_g = material_loss("glass", f_c_ghz, params)
    l_irr = material_loss("irr_glass", f_c_ghz, params)
    l_c = material_loss("concrete", f_c_ghz, params)
    low = 5.0 - 10.0 * np.log10(0.3 * 10.0 ** (-l_g / 10.0)
                                + 0.7 * 10.0 ** (-l_c / 10.0)) + x_low_db
    high = 5.0 - 10.0 * np.log10(0.7 * 10.0 ** (-l_irr / 10.0)
                                 + 0.3 * 10.0 ** (-l_c / 10.0)) + x_high_db
    tw = 10.0 * np.log10(0.5 * 10.0 ** (low / 10.0) + 0.5 * 10.0 ** (high / 10.0))
    return tw + params.indoor_loss_rate_db_per_m * d_in


def oxygen_absorption(f_c_ghz: float, d_m,
                      params: PropagationParams = DEFAULT_PARAMS):
    """Atmospheric oxygen loss, delta(f_c) dB/km over the full travel distance;
    delta is 0 where ``carrier_key`` finds no key for f_c."""
    d = np.asarray(d_m, dtype=float)
    if np.any(d < 0):
        raise ValueError("d_m must be non-negative")
    table = params.oxygen_delta_db_per_km
    out = table.get(carrier_key(table, f_c_ghz), 0.0) * d / 1000.0
    return out if out.ndim else float(out)
