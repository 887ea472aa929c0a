"""An independent oracle for one drop: every link term, serving sector and GM
of drop 0 of a run, recomputed in plain Python with ``math`` alone from the
model as README and the stage docstrings state it, and compared with what
``run_scenario(..., collect_links=True)`` wrote.

The oracle's inputs are the run's own: the stations, LoS uniforms and
shadows of drop 0, redrawn from the engine's named substreams as the drop
draws them (positions 0, LoS uniforms 1, shadows 2), and the site lattice of
the config's ``deployment`` block.  Everything computed from them is the
oracle's own.
"""

import math

import pytest

from mmwsim import ScenarioConfig, associate, drop_mobiles, run_scenario
from mmwsim.engine import _stream

TOL = 1e-9  # dB, m and degrees alike
LOS_TIE = 1e-12  # a LoS uniform this near its probability decides no state

SPEED_OF_LIGHT_M_S = 299_792_458.0
BS_HEIGHT_M = 10.0
BORESIGHTS_DEG = (30.0, 150.0, 270.0)  # sector k of site i is column 3i + k
# README's carrier table: (bandwidth Hz, scaled-scheme P_Tx dBm); the
# constant scheme transmits CONSTANT_PTX_DBM at every carrier
CARRIERS = {2.0: (20e6, 44.0), 60.0: (1000e6, 61.0), 100.0: (2000e6, 64.0)}
CONSTANT_PTX_DBM = 44.0
OXYGEN_DB_PER_KM = {60.0: 15.0}
NOISE_FIGURE_DB = 9.0
G_RX_DBI = 0.0  # stations are single-element
G_SM_DB = 0.0  # the multipath-gain hook's default


def nearest_image(x, y, images):
    """(d_2D, dx, dy) from the nearest image to the station; ties to the lowest."""
    best = None
    for ix, iy in images:
        dx, dy = x - ix, y - iy
        d = math.hypot(dx, dy)
        if best is None or d < best[0]:
            best = (d, dx, dy)
    return best


def los_probability(d_out):
    """TR 38.901 Table 7.4.2-1, UMi street canyon, on the outdoor distance."""
    if d_out <= 18.0:
        return 1.0
    return 18.0 / d_out + math.exp(-d_out / 36.0) * (1.0 - 18.0 / d_out)


def pl_ci(f_ghz, d3d, x):
    """CI LoS: FSPL(f) at 1 m + 21 log10(d) + shadow."""
    fspl = 20.0 * math.log10(4.0 * math.pi * f_ghz * 1e9 / SPEED_OF_LIGHT_M_S)
    return fspl + 21.0 * math.log10(d3d) + x


def pl_abg(f_ghz, d3d, x):
    """ABG NLoS: 35.3 log10(d) + 22.4 + 21.3 log10(f_GHz) + shadow."""
    return 35.3 * math.log10(d3d) + 22.4 + 21.3 * math.log10(f_ghz) + x


def o2i(f_ghz, d_in, x_low, x_high):
    """TR 38.901 7.4.3 composite: low-loss (30% glass, 70% concrete) and high-loss
    (70% IRR glass, 30% concrete) walls, each with its shadow, power-averaged
    50/50, plus 0.5 dB/m over the in-building depth."""
    glass, irr_glass, concrete = 2.0 + 0.2 * f_ghz, 23.0 + 0.3 * f_ghz, 5.0 + 4.0 * f_ghz
    low = 5.0 - 10.0 * math.log10(0.3 * 10.0 ** (-glass / 10.0)
                                  + 0.7 * 10.0 ** (-concrete / 10.0)) + x_low
    high = 5.0 - 10.0 * math.log10(0.7 * 10.0 ** (-irr_glass / 10.0)
                                   + 0.3 * 10.0 ** (-concrete / 10.0)) + x_high
    return 10.0 * math.log10(0.5 * 10.0 ** (low / 10.0) + 0.5 * 10.0 ** (high / 10.0)) \
        + 0.5 * d_in


def sector_gain(theta, phi):
    """TR 36.814 3D sector pattern: A_V capped at 13 dB, A_H at A_m = 25 dB, and
    A_m capping their sum, below 17.6 dBi at a 102 degree tilt."""
    a_v = min(12.0 * ((theta - 102.0) / 10.2) ** 2, 13.0)
    a_h = min(12.0 * (phi / 70.0) ** 2, 25.0)
    return 17.6 - min(a_v + a_h, 25.0)


def oracle_drop(environment, f_ghz, xy, height, depth, los_u, shadows, images, engine_los):
    """Per station: per site ``(d2d, d3d, los, pl, l_o2i, l_oa)``, per
    sector ``(g_tx, cl)``; and the number of pairs whose LoS state is the run's.
    ``images[i]`` are site i's 7 images, itself first."""
    skipped, out = 0, []
    for m, (x, y) in enumerate(xy):
        sites, sectors = [], []
        for i, site_images in enumerate(images):
            d2d, dx, dy = nearest_image(x, y, site_images)
            dz = height[m] - BS_HEIGHT_M
            d3d = math.sqrt(d2d * d2d + dz * dz)
            d_in = min(depth[m], d2d) if environment == "indoor" else 0.0
            d_out = d2d - d_in
            p = los_probability(d_out)
            los = los_u[m][i] < p
            if abs(los_u[m][i] - p) < LOS_TIE:
                skipped += 1
                los = engine_los[m][i]
            x_los, x_nlos, *x_o2i = (s[m][i] for s in shadows)
            pl = pl_ci(f_ghz, d3d, x_los) if los else pl_abg(f_ghz, d3d, x_nlos)
            l_o2i = o2i(f_ghz, d_in, *x_o2i) if environment == "indoor" else 0.0
            l_oa = OXYGEN_DB_PER_KM.get(f_ghz, 0.0) * d3d / 1000.0
            sites.append((d2d, d3d, los, pl, l_o2i, l_oa))
            theta = math.degrees(math.acos(dz / d3d))
            azimuth = math.degrees(math.atan2(dy, dx))
            for boresight in BORESIGHTS_DEG:
                phi = 180.0 - (180.0 - (azimuth - boresight)) % 360.0  # (-180, 180]
                g = sector_gain(theta, phi)
                sectors.append((g, g + G_RX_DBI - (pl + l_o2i + l_oa - G_SM_DB)))
        out.append((sites, sectors))
    return out, skipped


CASES = [("outdoor", 60.0), ("indoor", 60.0), ("outdoor", 2.0), ("indoor", 100.0)]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("environment,f_ghz", CASES)
def test_drop_matches_the_documented_model(environment, f_ghz, seed):
    config = ScenarioConfig(f_c_ghz=f_ghz, environment=environment, n_drops=1,
                            ms_per_sector=2, seed=seed)
    check_drop_0(config, *CARRIERS[f_ghz])


# off the table, the power is the config's own; the constant scheme keeps the
# table's bandwidth and transmits CONSTANT_PTX_DBM, so GM meets another P_Tx
# and noise than the scaled scheme's at the same carrier
POWER_CASES = [
    ("indoor", 28.0, "scaled", dict(bandwidth_hz=850e6, tx_power_dbm=57.5), 850e6, 57.5),
    ("outdoor", 60.0, "constant", {}, CARRIERS[60.0][0], CONSTANT_PTX_DBM),
    ("indoor", 60.0, "constant", {}, CARRIERS[60.0][0], CONSTANT_PTX_DBM),
]


@pytest.mark.parametrize("environment,f_ghz,scheme,settings,bandwidth,p_tx", POWER_CASES,
                         ids=["indoor-28-off-table", "outdoor-60-constant", "indoor-60-constant"])
def test_drop_matches_the_documented_model_at_its_power(environment, f_ghz, scheme, settings,
                                                        bandwidth, p_tx):
    config = ScenarioConfig(f_c_ghz=f_ghz, power_scheme=scheme, environment=environment,
                            n_drops=1, ms_per_sector=2, seed=3, **settings)
    check_drop_0(config, bandwidth, p_tx)


def check_drop_0(config, bandwidth, p_tx):
    """Drop 0 of ``config``'s run, every link term, serving sector and GM,
    against the oracle's, at the oracle's ``bandwidth`` (Hz) and ``p_tx`` (dBm)."""
    environment, f_ghz, seed = config.environment, config.f_c_ghz, config.seed
    res = run_scenario(config, collect_links=True)
    links = res.links

    dep = config.deployment
    count = config.ms_per_sector * dep.n_sectors
    drop = drop_mobiles(dep, environment, count, _stream(seed, 0, 0))
    los_u = _stream(seed, 0, 1).uniform(size=(count, dep.n_sites))
    shadow_rng, params = _stream(seed, 0, 2), config.propagation
    # draw_shadows' documented order: LoS, NLoS, then the O2I pair indoors only
    sigmas = [params.sigma_los_db, params.sigma_nlos_db]
    if environment == "indoor":
        sigmas += [params.sigma_o2i_low_db, params.sigma_o2i_high_db]
    shadows = [shadow_rng.normal(0.0, s, (count, dep.n_sites)).tolist() for s in sigmas]

    wraps = [(0.0, 0.0)] + dep.wrap_vectors.tolist()
    for wx, wy in wraps[1:]:  # the six sqrt(19) * ISD cluster translations
        assert math.isclose(math.hypot(wx, wy), math.sqrt(19.0) * config.deployment.isd_m)
    images = [[(sx + wx, sy + wy) for wx, wy in wraps] for sx, sy in dep.site_xy.tolist()]
    oracle, skipped = oracle_drop(environment, f_ghz, drop.xy.tolist(), drop.height_m.tolist(),
                                  drop.indoor_depth_m.tolist(), los_u.tolist(), shadows,
                                  images, links["is_los"].tolist())
    print(f"{environment} {f_ghz:g} GHz seed {seed}: {skipped} of "
          f"{count * dep.n_sites} pairs skipped (LoS uniform within {LOS_TIE:g})")

    noise_dbm = -174.0 + 10.0 * math.log10(bandwidth) + NOISE_FIGURE_DB
    worst = dict.fromkeys(("d_2d", "d_3d", "pl", "l_o2i", "l_oa", "g_tx",
                           "coupling_loss", "serving_cl", "gm"), 0.0)
    engine_serving = associate(links["coupling_loss"])[0].tolist()
    for m, (sites, sectors) in enumerate(oracle):
        for i, (d2d, d3d, los, pl, l_o2i, l_oa) in enumerate(sites):
            assert bool(links["is_los"][m, i]) == los, (m, i)
            for key, value in (("d_2d", d2d), ("d_3d", d3d), ("pl", pl),
                               ("l_o2i", l_o2i), ("l_oa", l_oa)):
                worst[key] = max(worst[key], abs(links[key][m, i] - value))
        for j, (g, cl) in enumerate(sectors):
            worst["g_tx"] = max(worst["g_tx"], abs(links["g_tx"][m, j] - g))
            worst["coupling_loss"] = max(worst["coupling_loss"],
                                         abs(links["coupling_loss"][m, j] - cl))
        cls = [cl for _, cl in sectors]
        serving = cls.index(max(cls))  # the first maximum: ties to the lowest id
        assert serving == engine_serving[m], m
        worst["serving_cl"] = max(worst["serving_cl"], abs(res.serving_cl[m] - cls[serving]))
        mw = [10.0 ** ((p_tx + cl) / 10.0) for cl in cls]
        interference = math.fsum(mw[:serving] + mw[serving + 1:])
        gm = 10.0 * math.log10(mw[serving] / (10.0 ** (noise_dbm / 10.0) + interference))
        worst["gm"] = max(worst["gm"], abs(res.gm[m] - gm))
    assert all(err <= TOL for err in worst.values()), worst
