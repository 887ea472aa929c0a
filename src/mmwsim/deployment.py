"""Hexagonal 19-site / 57-sector layout with wrap-around and mobile-station drops."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .checks import check_environment, check_fields
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


@dataclass(frozen=True)
class DeploymentParams:
    """Layout and drop geometry knobs."""

    isd_m: float = 200.0
    bs_height_m: float = 10.0
    ms_height_m: float = 1.5
    min_distance_m: float = 10.0
    indoor_depth_max_m: float = 25.0
    floor_count_min: int = 4
    floor_count_max: int = 8

    def __post_init__(self):
        check_fields(DeploymentParams, vars(self), "deployment.")
        circumradius = self.isd_m / math.sqrt(3.0)
        if self.min_distance_m >= circumradius:
            raise ConfigError(
                f"deployment.min_distance_m must be below the cell circumradius "
                f"isd_m/sqrt(3) = {circumradius:g} m, got {self.min_distance_m}")
        if not 1 <= self.floor_count_min <= self.floor_count_max:
            raise ConfigError("deployment.floor_count_min/max must satisfy 1 <= min <= max")


class MobileDrop(NamedTuple):
    """Stations of one drop, one array entry per station."""

    xy: np.ndarray  # (n, 2) positions in metres
    height_m: np.ndarray  # (n,) antenna heights in metres
    indoor_depth_m: np.ndarray  # (n,) d_2D-in; 0 for outdoor stations
    floor: np.ndarray  # (n,) floor index; 1 for outdoor stations


@dataclass(frozen=True, eq=False)  # array fields: compare them with np.array_equal
class Deployment:
    """The 19-site cluster as arrays.

    Site ``i`` sits at ``site_xy[i]`` and carries sectors ``3i``, ``3i + 1``
    and ``3i + 2``, whose boresights are ``SECTOR_BORESIGHTS_DEG``.
    ``wrap_vectors`` are the six wrap-around translations ``(6, 2)`` of the
    cluster, in metres.  It holds the lattice only: ``link_budget`` reads
    the BS height from the run's config.
    """

    site_xy: np.ndarray  # (n_sites, 2) site positions in metres
    isd_m: float
    wrap_vectors: np.ndarray

    @property
    def n_sites(self) -> int:
        return len(self.site_xy)

    @property
    def n_sectors(self) -> int:
        return 3 * self.n_sites


def _lattice_xy(i, j, isd_m: float):
    # basis a = isd * (1, 0), b = isd * (1/2, sqrt(3)/2); i, j scalars or arrays
    return (isd_m * (i + 0.5 * j), isd_m * (math.sqrt(3.0) / 2.0) * j)


def generate_layout(isd_m: float) -> Deployment:
    """Build the 19-site hexagonal cluster with three sectors per site.

    Sites sit on a hex lattice with nearest-neighbour spacing ``isd_m``:
    the centre site at the origin, six ring-1 sites at ``isd_m`` and twelve
    ring-2 sites at ``sqrt(3) * isd_m`` and ``2 * isd_m``.  Sector boresights
    point at 30, 150 and 270 degrees.  The six wrap-around translation
    vectors tile the plane with copies of the cluster.  The BS height is no
    part of the layout: ``link_budget`` reads ``config.deployment.bs_height_m``.
    ``isd_m`` is checked as a config's ``deployment.isd_m`` is.
    """
    check_fields(DeploymentParams, {"isd_m": isd_m}, "deployment.")
    sites = np.array([_lattice_xy(i, j, isd_m) for i, j in _SITE_COORDS])
    wrap = np.array([_lattice_xy(i, j, isd_m) for i, j in _WRAP_COORDS])
    return Deployment(site_xy=sites, isd_m=isd_m, wrap_vectors=wrap)


def wrap_displacements(deployment: Deployment, ms_xy: np.ndarray):
    """Minimum-norm wrap-around displacements for all site/station pairs.

    Parameters
    ----------
    ms_xy : (n, 2) array of station positions in metres.

    Returns
    -------
    disp : (2, n, n_sites) x and y of the minimum-norm displacements (site to station)
    d2d : (n, n_sites) horizontal distances in metres, the norms of ``disp``

    The images are scanned in order (the site itself, then each wrap
    vector) keeping the running best in ``disp``; an image replaces it only
    when strictly closer, so on ties the lowest image index wins.
    """
    shifts = np.vstack([np.zeros((1, 2)), deployment.wrap_vectors])
    images = deployment.site_xy[None, :, :] + shifts[:, None, :]  # (7, s, 2)
    ms_x = ms_xy[:, 0, None]
    ms_y = ms_xy[:, 1, None]
    disp = np.empty((2, len(ms_xy), deployment.n_sites))
    best_dx = np.subtract(ms_x, images[0, :, 0], out=disp[0])
    best_dy = np.subtract(ms_y, images[0, :, 1], out=disp[1])
    best_d = np.sqrt(best_dx * best_dx + best_dy * best_dy)
    for image in images[1:]:
        dx = ms_x - image[:, 0]
        dy = ms_y - image[:, 1]
        d = np.sqrt(dx * dx + dy * dy)
        closer = d < best_d
        np.copyto(best_dx, dx, where=closer)
        np.copyto(best_dy, dy, where=closer)
        np.copyto(best_d, d, where=closer)
    return disp, best_d


def _axial_cells(points, isd_m: float):
    """Axial ``(i, j)`` of the lattice site nearest each point, by cube rounding."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    fj = pts[:, 1] / (isd_m * (math.sqrt(3.0) / 2.0))  # inverts _lattice_xy
    fi = pts[:, 0] / isd_m - 0.5 * fj
    i, j, k = np.rint(fi), np.rint(fj), np.rint(-fi - fj)
    di, dj, dk = np.abs(i - fi), np.abs(j - fj), np.abs(k + fi + fj)
    fix_i = (di > dj) & (di > dk)  # recompute the one that moved furthest
    i = np.where(fix_i, -j - k, i)
    return i, np.where(~fix_i & (dj > dk), -i - k, j)


def in_footprint(points, deployment: Deployment) -> np.ndarray:
    """True for points inside the 19 cells: the cube-rounded cell ``(i, j)`` of
    the nearest site has ``|i|, |j|, |i + j| <= 2``.  Points on an edge between
    two of the cells are inside; points on the outer boundary may round either way."""
    i, j = _axial_cells(points, deployment.isd_m)
    return (np.abs(i) <= 2) & (np.abs(j) <= 2) & (np.abs(i + j) <= 2)


# Rejection-sampling rounds before a drop gives up; see _expected_sample_rounds.
_MAX_SAMPLE_ROUNDS = 1000


def _expected_sample_rounds(isd_m: float, min_distance_m: float, ms_per_sector: int) -> int:
    """Rounds ``_sample_positions`` needs for ``ms_per_sector`` stations per sector
    when each round keeps its expected share, or ``_MAX_SAMPLE_ROUNDS + 1`` for more.

    A candidate is kept with probability ``(footprint / box) * (1 - A / A_hex)``
    where A is the part of a cell within ``r = min_distance_m`` of its site:
    ``pi r^2`` up to the inradius ``a = isd/2``, less six circular segments
    ``r^2 acos(a/r) - a sqrt(r^2 - a^2)`` beyond the cell edges above it.
    Each round draws ``max(2 * missing, 64)`` candidates.  A ``ScenarioConfig``
    that needs more rounds than the budget is refused as it is built.
    """
    n_sites, a, r = len(_SITE_COORDS), isd_m / 2.0, min_distance_m
    hex_area = math.sqrt(3.0) / 2.0 * isd_m ** 2
    near = math.pi * r * r
    if r > a:
        near -= 6.0 * (r * r * math.acos(a / r) - a * math.sqrt(r * r - a * a))
    # the sampler's box: the sites span 4 isd by 2 sqrt(3) isd, plus the
    # circumradius on every side
    c = isd_m / math.sqrt(3.0)
    keep = n_sites * (hex_area - near) / ((4.0 * isd_m + 2.0 * c)
                                          * (2.0 * math.sqrt(3.0) * isd_m + 2.0 * c))
    # a count beyond float range reads as 10**300, itself far too many to allocate
    missing, rounds = float(3 * n_sites * min(ms_per_sector, 10**300)), 0
    while missing > 0 and rounds <= _MAX_SAMPLE_ROUNDS:
        missing -= keep * max(2.0 * missing, 64.0)
        rounds += 1
    return rounds


def _sample_positions(deployment: Deployment, count: int, min_distance_m: float,
                      rng: np.random.Generator) -> np.ndarray:
    margin = deployment.isd_m / math.sqrt(3.0)  # hex circumradius
    lo, hi = deployment.site_xy.min(axis=0) - margin, deployment.site_xy.max(axis=0) + margin
    out = np.empty((0, 2))
    for _ in range(_MAX_SAMPLE_ROUNDS):
        m = max(2 * (count - len(out)), 64)
        pts = rng.uniform(lo, hi, size=(m, 2))
        pts = pts[in_footprint(pts, deployment)]
        # the cell names the nearest site, in the footprint also the nearest wrap image
        i, j = _axial_cells(pts, deployment.isd_m)
        site_x, site_y = _lattice_xy(i, j, deployment.isd_m)  # same bits as site_xy
        dx, dy = pts[:, 0] - site_x, pts[:, 1] - site_y
        out = np.concatenate([out, pts[np.sqrt(dx * dx + dy * dy) >= min_distance_m]])
        if len(out) >= count:
            return out[:count]
    raise ConfigError(
        f"min_distance_m={min_distance_m:g} leaves too little of the footprint: "
        f"{len(out)} of {count} stations placed in {_MAX_SAMPLE_ROUNDS} sampling rounds "
        f"(the cell circumradius is {margin:g} m)")


def drop_mobiles(deployment: Deployment, environment: str, count: int,
                 rng: np.random.Generator,
                 params: DeploymentParams = DeploymentParams()) -> MobileDrop:
    """Drop stations uniformly over the cluster footprint.

    ``params`` gives the drop geometry; its ``isd_m`` and ``bs_height_m``
    are not read, as ``deployment`` fixes the layout and ``link_budget``
    reads the BS height.  Positions are rejection-sampled over the union
    of the 19 cells, keeping at least ``min_distance_m`` horizontal
    clearance from every site.  For
    ``environment="indoor"`` each station draws a building floor count
    uniformly in {floor_count_min..floor_count_max}, its floor uniformly
    within the building, and an in-building depth uniform on
    [0, indoor_depth_max_m]; station height is 3*(floor-1) + ms_height_m.
    Outdoor stations stand at ``ms_height_m`` on floor 1 with zero depth.

    Returns a ``MobileDrop`` of arrays ``(xy (n, 2), height_m (n,),
    indoor_depth_m (n,), floor (n,))`` with ``n = count``.
    """
    check_environment(environment)
    if count <= 0:
        raise ConfigError(f"count must be positive, got {count}")

    xy = _sample_positions(deployment, count, params.min_distance_m, rng)
    if environment == "outdoor":
        return MobileDrop(xy, np.full(count, params.ms_height_m, dtype=float),
                          np.zeros(count), np.ones(count, dtype=np.int64))

    n_floors = rng.integers(params.floor_count_min, params.floor_count_max + 1, size=count)
    floor = rng.integers(1, n_floors + 1)
    depth = rng.uniform(0.0, params.indoor_depth_max_m, size=count)
    return MobileDrop(xy, 3.0 * (floor - 1) + params.ms_height_m, depth, floor)
