"""Hexagonal 19-site / 57-sector layout with wrap-around and mobile-station drops."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Axial (i, j) lattice coordinates of the 19-site cluster: centre, ring 1, ring 2.
_SITE_COORDS = (
    (0, 0),
    (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1),
    (2, 0), (1, 1), (0, 2), (-1, 2), (-2, 2), (-2, 1),
    (-2, 0), (-1, -1), (0, -2), (1, -2), (2, -2), (2, -1),
)

# Wrap translation 3a + 2b and its five 60-degree lattice rotations, as axial
# coordinates; a 60-degree rotation maps (i, j) -> (-j, i + j).  Because
# 3^2 + 3*2 + 2^2 = 19 each vector has norm sqrt(19) * ISD.
_WRAP_COORDS = ((3, 2), (-2, 5), (-5, 3), (-3, -2), (2, -5), (5, -3))

SECTOR_BORESIGHTS_DEG = (30.0, 150.0, 270.0)

# Unit normals of the three hexagon edge-pair directions (toward lattice
# neighbours at 0, 60 and 120 degrees); a point is inside a cell iff all three
# projections onto these axes stay within half the ISD.
_HEX_AXES = np.array([
    [1.0, 0.0],
    [0.5, math.sqrt(3.0) / 2.0],
    [-0.5, math.sqrt(3.0) / 2.0],
])


@dataclass(frozen=True)
class Sector:
    site_index: int
    sector_id: int  # global id = site_index * 3 + local ordinal
    boresight_azimuth_deg: float
    downtilt_deg: float


@dataclass(frozen=True)
class Site:
    position: tuple[float, float]
    height_m: float
    sectors: tuple[Sector, ...]


@dataclass(frozen=True)
class MobileStation:
    position: tuple[float, float]
    height_m: float
    indoor: bool
    indoor_depth_m: float  # d_2D-in; 0 for outdoor stations
    floor_index: int  # 1 for outdoor stations


@dataclass(frozen=True)
class Deployment:
    sites: tuple[Site, ...]
    isd_m: float
    wrap_vectors: tuple[tuple[float, float], ...]

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def n_sectors(self) -> int:
        return sum(len(s.sectors) for s in self.sites)

    def site_positions(self) -> np.ndarray:
        """Site coordinates as an (n_sites, 2) array in metres."""
        return np.array([s.position for s in self.sites])

    def all_sectors(self) -> list[Sector]:
        """Sectors of all sites ordered by global sector_id."""
        return [sec for site in self.sites for sec in site.sectors]

    def to_dict(self) -> dict:
        return {
            "isd_m": self.isd_m,
            "wrap_vectors": [list(v) for v in self.wrap_vectors],
            "sites": [
                {
                    "position": list(site.position),
                    "height_m": site.height_m,
                    "sectors": [
                        {
                            "site_index": sec.site_index,
                            "sector_id": sec.sector_id,
                            "boresight_azimuth_deg": sec.boresight_azimuth_deg,
                            "downtilt_deg": sec.downtilt_deg,
                        }
                        for sec in site.sectors
                    ],
                }
                for site in self.sites
            ],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def _lattice_xy(i: int, j: int, isd_m: float) -> tuple[float, float]:
    # basis a = isd * (1, 0), b = isd * (1/2, sqrt(3)/2)
    return (isd_m * (i + 0.5 * j), isd_m * (math.sqrt(3.0) / 2.0) * j)


def generate_layout(isd_m: float, bs_height_m: float = 10.0,
                    downtilt_deg: float = 102.0) -> Deployment:
    """Build the 19-site hexagonal cluster with three sectors per site.

    Sites sit on a hex lattice with nearest-neighbour spacing ``isd_m``:
    the centre site at the origin, six ring-1 sites at ``isd_m`` and twelve
    ring-2 sites at ``sqrt(3) * isd_m`` and ``2 * isd_m``.  Sector boresights
    point at 30, 150 and 270 degrees.  The six wrap-around translation
    vectors tile the plane with copies of the cluster.
    """
    if not isd_m > 0:
        raise ConfigError(f"isd_m must be positive, got {isd_m}")
    sites = []
    for idx, (i, j) in enumerate(_SITE_COORDS):
        sectors = tuple(
            Sector(site_index=idx, sector_id=3 * idx + k,
                   boresight_azimuth_deg=SECTOR_BORESIGHTS_DEG[k],
                   downtilt_deg=downtilt_deg)
            for k in range(3)
        )
        sites.append(Site(position=_lattice_xy(i, j, isd_m),
                          height_m=bs_height_m, sectors=sectors))
    wrap = tuple(_lattice_xy(i, j, isd_m) for i, j in _WRAP_COORDS)
    return Deployment(sites=tuple(sites), isd_m=isd_m, wrap_vectors=wrap)


def wrap_displacement(site_pos, ms_pos, deployment: Deployment) -> np.ndarray:
    """Minimum-norm displacement from a site (or one of its six wrap images) to a station."""
    site = np.asarray(site_pos, dtype=float)
    ms = np.asarray(ms_pos, dtype=float)
    shifts = np.vstack([np.zeros((1, 2)), np.asarray(deployment.wrap_vectors, dtype=float)])
    disp = ms[None, :] - (site[None, :] + shifts)
    return disp[np.argmin(np.linalg.norm(disp, axis=1))]


def wrap_displacements(deployment: Deployment, ms_xy: np.ndarray):
    """Vectorised wrap_displacement for all site/station pairs.

    Parameters
    ----------
    ms_xy : (n, 2) array of station positions in metres.

    Returns
    -------
    disp : (n, n_sites, 2) minimum-norm displacement vectors (site to station)
    d2d : (n, n_sites) horizontal distances in metres
    """
    sites = deployment.site_positions()
    shifts = np.vstack([np.zeros((1, 2)), np.asarray(deployment.wrap_vectors, dtype=float)])
    images = sites[None, :, :] + shifts[:, None, :]  # (7, s, 2)
    diff = ms_xy[:, None, None, :] - images[None, :, :, :]  # (n, 7, s, 2)
    norms = np.linalg.norm(diff, axis=3)
    best = norms.argmin(axis=1)  # (n, s)
    d2d = np.take_along_axis(norms, best[:, None, :], axis=1)[:, 0, :]
    disp = np.take_along_axis(diff, best[:, None, :, None], axis=1)[:, 0, :, :]
    return disp, d2d


def in_footprint(points, deployment: Deployment) -> np.ndarray:
    """True for points inside the union of the 19 hexagonal cells."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    diff = pts[:, None, :] - deployment.site_positions()[None, :, :]
    proj = np.abs(diff @ _HEX_AXES.T)  # (n, s, 3)
    half = 0.5 * deployment.isd_m * (1.0 + 1e-12)
    return (proj <= half).all(axis=2).any(axis=1)


# Rejection-sampling rounds before a drop gives up.  Each round draws twice
# the stations still missing, so feasible layouts finish within a few dozen
# rounds; the budget only stops layouts that no point or almost none fits.
_MAX_SAMPLE_ROUNDS = 1000


def _sample_positions(deployment: Deployment, count: int, min_distance_m: float,
                      rng: np.random.Generator) -> np.ndarray:
    sites = deployment.site_positions()
    margin = deployment.isd_m / math.sqrt(3.0)  # hex circumradius
    lo = sites.min(axis=0) - margin
    hi = sites.max(axis=0) + margin
    out = np.empty((0, 2))
    for _ in range(_MAX_SAMPLE_ROUNDS):
        m = max(2 * (count - len(out)), 64)
        pts = rng.uniform(lo, hi, size=(m, 2))
        keep = in_footprint(pts, deployment)
        # Inside the footprint the nearest of the 19 sites is also the nearest
        # wrap image, so plain distances enforce the wrapped minimum too.
        d = np.linalg.norm(pts[:, None, :] - sites[None, :, :], axis=2)
        keep &= d.min(axis=1) >= min_distance_m
        out = np.concatenate([out, pts[keep]])
        if len(out) >= count:
            return out[:count]
    raise ConfigError(
        f"min_distance_m={min_distance_m:g} leaves too little of the footprint: "
        f"{len(out)} of {count} stations placed in {_MAX_SAMPLE_ROUNDS} sampling rounds "
        f"(the cell circumradius is {margin:g} m)")


def drop_mobiles(deployment: Deployment, environment: str, count: int,
                 rng: np.random.Generator, ms_height_m: float = 1.5,
                 min_distance_m: float = 10.0, indoor_depth_max_m: float = 25.0,
                 floor_count_min: int = 4, floor_count_max: int = 8) -> list[MobileStation]:
    """Drop stations uniformly over the cluster footprint.

    Positions are rejection-sampled over the union of the 19 cells, keeping
    at least ``min_distance_m`` horizontal clearance from every site.  For
    ``environment="indoor"`` each station draws a building floor count
    uniformly in {floor_count_min..floor_count_max}, its floor uniformly
    within the building, and an in-building depth uniform on
    [0, indoor_depth_max_m]; station height is 3*(floor-1) + ms_height_m.
    """
    if environment not in ("outdoor", "indoor"):
        raise ConfigError(f"environment must be 'outdoor' or 'indoor', got {environment!r}")
    if count <= 0:
        raise ConfigError(f"count must be positive, got {count}")

    pos = _sample_positions(deployment, count, min_distance_m, rng)
    if environment == "outdoor":
        return [
            MobileStation(position=(float(x), float(y)), height_m=ms_height_m,
                          indoor=False, indoor_depth_m=0.0, floor_index=1)
            for x, y in pos
        ]

    n_floors = rng.integers(floor_count_min, floor_count_max + 1, size=count)
    floor = rng.integers(1, n_floors + 1)
    depth = rng.uniform(0.0, indoor_depth_max_m, size=count)
    return [
        MobileStation(position=(float(x), float(y)),
                      height_m=float(3.0 * (fl - 1) + ms_height_m),
                      indoor=True, indoor_depth_m=float(dd), floor_index=int(fl))
        for (x, y), fl, dd in zip(pos, floor, depth)
    ]
