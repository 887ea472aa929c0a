import collections
import copy
import dataclasses
import inspect
import itertools
import math
import os
import pickle
import re
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import mmwsim
from mmwsim import (AntennaPattern, ConfigError, DeploymentParams, MobileDrop,
                    PropagationParams, ScenarioConfig, ShadowDraws, coupling_loss,
                    deployment, drop_mobiles, engine, in_footprint,
                    link_budget, wrap_displacements)
from mmwsim.deployment import SECTOR_BORESIGHTS_DEG

ISD = 200.0


@pytest.fixture(scope="module")
def dep():
    return DeploymentParams(isd_m=ISD)


def test_layout_counts(dep):
    assert dep.n_sites == 19
    assert dep.n_sectors == 57
    assert dep.site_xy.shape == (19, 2)
    assert dep.n_sectors == 3 * dep.n_sites


def test_center_site_at_origin(dep):
    assert tuple(dep.site_xy[0]) == (0.0, 0.0)


def test_ring_distances(dep):
    center = np.zeros(2)
    d = np.linalg.norm(dep.site_xy - center, axis=1)
    assert_allclose(np.sort(d[1:7]), np.full(6, ISD), atol=1e-9)
    ring2 = np.sort(d[7:])
    # ring 2 alternates sqrt(3)*ISD and 2*ISD
    assert_allclose(ring2[:6], np.full(6, math.sqrt(3.0) * ISD), atol=1e-9)
    assert_allclose(ring2[6:], np.full(6, 2.0 * ISD), atol=1e-9)


def test_nearest_neighbour_spacing_is_isd(dep):
    pos = dep.site_xy
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    d[d == 0] = np.inf
    assert_allclose(d.min(), ISD, atol=1e-9)


def test_boresights_and_downtilt(dep):
    assert SECTOR_BORESIGHTS_DEG == (30.0, 150.0, 270.0)
    assert AntennaPattern().downtilt_deg == 102.0
    # column 3i + k of the CL matrix is sector k of site i: a station 30 m
    # out along boresight k of site 4 is served by sector 3 * 4 + k ...
    cfg = ScenarioConfig(f_c_ghz=30.0)
    az = np.radians(SECTOR_BORESIGHTS_DEG)
    xy = dep.site_xy[4] + 30.0 * np.stack([np.cos(az), np.sin(az)], axis=1)
    drop = MobileDrop(xy, np.full(3, 1.5), np.zeros(3))
    budget = link_budget(cfg, drop, np.zeros((3, 19)), ShadowDraws())
    cl = budget["coupling_loss"]
    assert cl.shape == (3, 57)
    assert list(np.argmax(cl, axis=1)) == [12, 13, 14]
    # ... and every sector of site i carries site i's path loss
    per_site = coupling_loss(budget["g_tx"].reshape(3, 19, 3), 0.0, budget["pl"][:, :, None],
                             budget["l_o2i"][:, :, None], budget["l_oa"][:, :, None])
    assert np.array_equal(cl, per_site.reshape(3, 57))


def test_wrap_vector_magnitude(dep):
    norms = [math.hypot(*v) for v in dep.wrap_vectors]
    assert_allclose(norms, ISD * math.sqrt(19.0), atol=1e-9)
    # six distinct directions, 60 degrees apart
    angles = sorted(math.degrees(math.atan2(v[1], v[0])) % 360 for v in dep.wrap_vectors)
    diffs = np.diff(angles)
    assert_allclose(diffs, np.full(5, 60.0), atol=1e-9)


def test_layout_deterministic(dep):
    other = DeploymentParams(isd_m=ISD)
    assert_array_equal(other.site_xy, dep.site_xy)
    assert_array_equal(other.wrap_vectors, dep.wrap_vectors)
    assert other.isd_m == dep.isd_m


def test_lattice_is_read_only(dep):
    for array in (dep.site_xy, dep.wrap_vectors):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
    assert dep.site_xy[0, 0] == 0.0


def test_configs_replaced_from_one_base_share_one_lattice():
    base = ScenarioConfig(n_drops=1, ms_per_sector=1)
    other = replace(base, f_c_ghz=60.0, power_scheme="constant")
    assert other.deployment.site_xy is base.deployment.site_xy
    assert other.deployment.wrap_vectors is base.deployment.wrap_vectors
    # so the 10 runs of a 5 x 2 sweep build the lattice once: one site and
    # one wrap array
    deployment._lattice.cache_clear()
    fresh = ScenarioConfig(n_drops=1, ms_per_sector=1)
    entries = engine.run_sweep(fresh, [2.0, 10.0, 30.0, 60.0, 100.0], ["scaled", "constant"])
    assert [e.error for e in entries] == [None] * 10
    assert deployment._lattice.cache_info().misses == 1
    site_xy, wrap_vectors = deployment._lattice(fresh.deployment.isd_m)
    assert site_xy.shape == (len(deployment._SITE_COORDS), 2)
    assert wrap_vectors.shape == (len(deployment._WRAP_COORDS), 2)


def test_blocks_of_one_isd_share_one_lattice_and_hold_only_their_fields():
    a, b = ScenarioConfig().deployment, ScenarioConfig().deployment
    assert a is not b
    assert a.site_xy is b.site_xy and a.wrap_vectors is b.wrap_vectors
    # a block stores no lattice, so copies and pickles need no special case
    assert "__getstate__" not in vars(DeploymentParams)
    assert list(vars(a)) == [f.name for f in dataclasses.fields(DeploymentParams)]
    assert len(vars(a)) == 7
    assert DeploymentParams(isd_m=150.0).site_xy is not a.site_xy


def test_lattice_first_built_on_many_threads_reads_the_same(dep):
    # a run builds its block's lattice on first use, on whichever drop worker
    # gets there first: more threads than cores, switching as often as they can
    block = DeploymentParams(isd_m=ISD)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            seen = list(pool.map(lambda _: (block.site_xy, block.wrap_vectors), range(64),
                                 timeout=60))
    finally:
        sys.setswitchinterval(old)
    for site_xy, wrap_vectors in seen:
        assert np.array_equal(site_xy, dep.site_xy) and not site_xy.flags.writeable
        assert np.array_equal(wrap_vectors, dep.wrap_vectors)
        assert not wrap_vectors.flags.writeable


def test_copies_and_pickles_keep_the_config():
    cfg = ScenarioConfig(deployment=DeploymentParams(isd_m=150.0))
    site_xy = cfg.deployment.site_xy  # built before the copies are made
    for clone in (copy.copy(cfg), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
        assert clone == cfg and hash(clone) == hash(cfg)
        assert clone.deployment == cfg.deployment
        assert hash(clone.deployment) == hash(cfg.deployment)
        assert_array_equal(clone.deployment.site_xy, site_xy)
        assert_array_equal(clone.deployment.wrap_vectors, cfg.deployment.wrap_vectors)
        assert not clone.deployment.site_xy.flags.writeable
        assert not clone.deployment.wrap_vectors.flags.writeable
    assert clone.to_dict() == cfg.to_dict()


def test_invalid_isd():
    with pytest.raises(ConfigError):
        DeploymentParams(isd_m=0.0)
    with pytest.raises(ConfigError):
        DeploymentParams(isd_m=-5.0)


@pytest.mark.parametrize("isd", [float("inf"), float("nan"), 0, 2.0e6])
def test_layout_checks_isd_as_the_config_does(isd):
    # inf used to give a layout of infinite coordinates
    with pytest.raises(ConfigError, match=r"^deployment\.isd_m must "):
        DeploymentParams(isd_m=isd)
    with pytest.raises(ConfigError, match=r"^deployment\.isd_m must "):
        ScenarioConfig(deployment=DeploymentParams(isd_m=isd, min_distance_m=0.0))


@pytest.mark.parametrize("environment", ["space", None, "Indoor"])
def test_drop_checks_the_environment_as_the_config_does(dep, environment):
    message = f"^environment must be 'outdoor' or 'indoor', got {environment!r}$"
    with pytest.raises(ConfigError, match=message):
        drop_mobiles(dep, environment, 57, np.random.default_rng(0))
    with pytest.raises(ConfigError, match=message):
        ScenarioConfig(environment=environment)


def test_wrap_displacement_coincident(dep):
    disp, _ = wrap_displacements(dep, dep.site_xy[3][None])
    assert_allclose(np.linalg.norm(disp[:, 0, 3]), 0.0, atol=1e-12)


def test_wrap_displacement_close_point(dep):
    # 50 m < half the wrap distance, so no image is closer than the site itself
    disp, _ = wrap_displacements(dep, np.array([[50.0, 0.0]]))
    assert_allclose(disp[:, 0, 0], [50.0, 0.0], atol=1e-12)


def test_wrap_shortens_far_links(dep):
    # a point beyond half the wrap distance along a wrap vector direction
    v = np.asarray(dep.wrap_vectors[0])
    far = 0.62 * v
    direct = np.linalg.norm(far)
    wrapped = np.linalg.norm(wrap_displacements(dep, far[None])[0][:, 0, 0])
    assert wrapped < direct


def _brute_force_displacement(site, ms, dep):
    # independent oracle: scan the original and all six images explicitly
    candidates = [np.asarray(ms) - np.asarray(site)]
    for v in dep.wrap_vectors:
        candidates.append(np.asarray(ms) - (np.asarray(site) + np.asarray(v)))
    return min(candidates, key=lambda c: float(np.hypot(*c)))


def test_wrap_displacement_matches_brute_force(dep, rng):
    pts = rng.uniform(-600, 600, size=(200, 2))
    sites = dep.site_xy
    for ms in pts:
        s = rng.integers(0, 19)
        got = wrap_displacements(dep, ms[None])[0][:, 0, s]
        want = _brute_force_displacement(sites[s], ms, dep)
        assert_allclose(np.hypot(*got), np.hypot(*want), atol=1e-9)


def test_wrap_displacements_vectorised_matches_scalar(dep, rng):
    ms = rng.uniform(-500, 500, size=(50, 2))
    disp, d2d = wrap_displacements(dep, ms)
    assert disp.shape == (2, 50, 19)
    for i in range(0, 50, 7):
        one_disp, one_d2d = wrap_displacements(dep, ms[i][None])
        assert np.array_equal(one_disp[:, 0], disp[:, i])
        assert np.array_equal(one_d2d[0], d2d[i])
        for s in range(0, 19, 5):
            want = _brute_force_displacement(dep.site_xy[s], ms[i], dep)
            assert_allclose(d2d[i, s], np.hypot(*want), atol=1e-9)


def test_wrapped_distance_never_exceeds_direct(dep, rng):
    ms = rng.uniform(-700, 700, size=(300, 2))
    _, d2d = wrap_displacements(dep, ms)
    direct = np.linalg.norm(
        ms[:, None, :] - dep.site_xy[None, :, :], axis=2)
    assert np.all(d2d <= direct + 1e-9)


def _argmin_wrap_displacements(dep, ms):
    # the reference rule: every (station, image, site) difference, their
    # norms, the argmin over images and take_along_axis
    shifts = np.vstack([np.zeros((1, 2)), np.asarray(dep.wrap_vectors, dtype=float)])
    images = dep.site_xy[None, :, :] + shifts[:, None, :]
    diff = ms[:, None, None, :] - images[None, :, :, :]
    norms = np.linalg.norm(diff, axis=3)
    best = norms.argmin(axis=1)
    d2d = np.take_along_axis(norms, best[:, None, :], axis=1)[:, 0, :]
    disp = np.take_along_axis(diff, best[:, None, :, None], axis=1)[:, 0, :, :]
    return np.moveaxis(disp, -1, 0), d2d, norms


def _assert_wrap_bit_identical(dep, ms):
    disp, d2d = wrap_displacements(dep, ms)
    want_disp, want_d2d, _ = _argmin_wrap_displacements(dep, ms)
    assert np.array_equal(disp, want_disp)
    assert np.array_equal(d2d, want_d2d)


def test_wrap_displacements_bit_identical_to_argmin_rule(dep):
    rng = np.random.default_rng(314)
    inside = rng.uniform(-700, 700, size=(6000, 2))
    inside = inside[in_footprint(inside, dep)]
    outside = rng.uniform(-2000, 2000, size=(2000, 2))
    outside = outside[~in_footprint(outside, dep)]
    assert len(inside) > 1000 and len(outside) > 1000
    for ms in (inside, outside, dep.site_xy):
        _assert_wrap_bit_identical(dep, ms)


def test_wrap_displacements_ties_pick_lowest_image(dep):
    # q = v/2 lies exactly halfway between the centre site (image 0) and its
    # image at v: q - 0 and q - v are exact negatives of each other
    v = np.asarray(dep.wrap_vectors)
    ms = v / 2.0
    _, _, norms = _argmin_wrap_displacements(dep, ms)
    for k in range(6):
        assert norms[k, 0, 0] == norms[k, k + 1, 0] == norms[k, :, 0].min()
    _assert_wrap_bit_identical(dep, ms)
    disp, _ = wrap_displacements(dep, ms)
    assert np.array_equal(disp[:, :, 0].T, ms)  # the site itself wins
    # two neighbouring images tie on integer wrap vectors (halves are exact)
    idep = SimpleNamespace(site_xy=dep.site_xy, n_sites=dep.n_sites, isd_m=dep.isd_m,
                           wrap_vectors=np.round(dep.wrap_vectors))
    iv = np.asarray(idep.wrap_vectors)
    ms = (iv + np.roll(iv, -1, axis=0)) / 2.0  # between images k+1 and k+2 (mod 6)
    _, _, norms = _argmin_wrap_displacements(idep, ms)
    for k in range(6):
        a, b = k + 1, (k + 1) % 6 + 1
        assert norms[k, a, 0] == norms[k, b, 0] == norms[k, :, 0].min()
    _assert_wrap_bit_identical(idep, ms)
    disp, _ = wrap_displacements(idep, ms)
    lower = np.minimum(np.arange(6), (np.arange(6) + 1) % 6)
    assert np.array_equal(disp[:, :, 0].T, ms - iv[lower])
    # one station at a time gives the same ties
    for k in range(6):
        assert np.array_equal(wrap_displacements(idep, ms[k][None])[0][:, 0, 0],
                              ms[k] - iv[lower[k]])


def _axial_box():
    # the 25 cells of axial (i, j), |i|, |j| <= 2, around the centre site
    return [(i, j) for i in range(-2, 3) for j in range(-2, 3)]


def _cell_corners(d, i, j):
    # the six corners of the cell of axial (i, j), counter-clockwise, as floats
    cx, cy = d.isd_m * (i + j / 2.0), d.isd_m * math.sqrt(3.0) / 2.0 * j
    r = d.isd_m / math.sqrt(3.0)
    return [(cx + r * math.cos((k + 0.5) * math.pi / 3.0),
             cy + r * math.sin((k + 0.5) * math.pi / 3.0)) for k in range(6)]


def _clip(polygon, nx, ny, offset, tol):
    # Sutherland-Hodgman: the part of a convex polygon with n . p <= offset + tol
    out = []
    for k, (px, py) in enumerate(polygon):
        qx, qy = polygon[(k + 1) % len(polygon)]
        fp = nx * px + ny * py - offset - tol
        fq = nx * qx + ny * qy - offset - tol
        if fp <= 0.0:
            out.append((px, py))
        if fp * fq < 0.0:
            t = fp / (fp - fq)
            out.append((px + t * (qx - px), py + t * (qy - py)))
    return out


def _clipped_candidates(d, corners):
    # for each site, the images nearest somewhere in the closed cell: the cell
    # clipped by every half-plane where the image is no farther than another
    # image (|p - a| <= |p - b| is (b - a) . p <= (|b|^2 - |a|^2) / 2) keeps a
    # point, an edge or an area
    shifts = [(0.0, 0.0)] + [tuple(map(float, v)) for v in d.wrap_vectors]
    tol = 1e-9 * d.isd_m ** 2
    found = []
    for sx, sy in d.site_xy:
        images = [(sx + vx, sy + vy) for vx, vy in shifts]
        keep = []
        for k, (ax, ay) in enumerate(images):
            poly = corners
            for m, (bx, by) in enumerate(images):
                if m != k and poly:
                    poly = _clip(poly, bx - ax, by - ay,
                                 (bx * bx + by * by - ax * ax - ay * ay) / 2.0, tol)
            if poly:
                keep.append(k)
        found.append(keep)
    return found


@pytest.mark.parametrize("isd", [1.0, 200.0, 333.3, 1e5])
def test_wrap_candidate_table_is_every_image_nearest_in_each_cell(isd):
    d = DeploymentParams(isd_m=isd, min_distance_m=0.1 * isd)
    table, depth = deployment._wrap_candidates()
    assert table.shape == (7, 26, 19) and not table.flags.writeable
    counts = collections.Counter()
    for i, j in _axial_box():
        for s, keep in enumerate(_clipped_candidates(d, _cell_corners(d, i, j))):
            # ascending, then the first repeated, so a strict < keeps the best
            assert table[:, 5 * i + j + 12, s].tolist() == keep + keep[:1] * (7 - len(keep))
            if max(abs(i), abs(j), abs(i + j)) <= 2:
                counts[len(keep)] += 1
    assert np.array_equal(table[:, 25], np.broadcast_to(np.arange(7)[:, None], (7, 19)))
    assert counts == {1: 133, 2: 114, 3: 114} and depth == 3  # over 19 cells x 19 sites


@pytest.mark.parametrize("isd", [1.0, 200.0, 333.3, 1e5])
def test_wrap_displacements_bit_identical_at_nudged_cell_corners_and_edges(isd):
    # where images tie or nearly tie: every corner and edge midpoint of the 25
    # cells, and each moved one ulp either way in x and in y
    d = DeploymentParams(isd_m=isd, min_distance_m=0.1 * isd)
    pts = []
    for i, j in _axial_box():
        corners = np.array(_cell_corners(d, i, j))
        pts += [corners, (corners + np.roll(corners, -1, axis=0)) / 2.0]
    pts = np.concatenate(pts)
    nudged = [pts]
    for axis in (0, 1):
        for to in (-np.inf, np.inf):
            moved = pts.copy()
            moved[:, axis] = np.nextafter(pts[:, axis], to)
            nudged.append(moved)
    pts = np.concatenate(nudged)
    i, j = deployment._axial_cells(pts, isd)
    in_box = (np.abs(i) <= 2) & (np.abs(j) <= 2)
    assert in_box.sum() > 1200 and (~in_box).sum() > 100
    # the points of the 25 cells scan only their cells' images; the others all 7
    _assert_wrap_bit_identical(d, pts[in_box])
    _assert_wrap_bit_identical(d, pts[~in_box])


def test_wrap_displacements_mixed_call_matches_one_station_calls(dep):
    # inside the footprint, at sites, in the axial box beyond the footprint,
    # far outside it, and at non-finite positions: one call, no numpy warning
    ms = np.array([[50.0, 20.0], [-310.0, 95.0], *dep.site_xy[[0, 7, 12]],
                   [3.0 * ISD, math.sqrt(3.0) * ISD], [-2.9 * ISD, -1.8 * ISD],
                   [5000.0, -3000.0], [-1e7, 2e6], [np.nan, 0.0], [0.0, np.nan],
                   [np.inf, 0.0], [-np.inf, np.inf], [np.nan, np.inf], [np.inf, np.inf],
                   [np.nan, np.nan]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        disp, d2d = wrap_displacements(dep, ms)
        want_disp, want_d2d, _ = _argmin_wrap_displacements(dep, ms)
        for k, station in enumerate(ms):
            one_disp, one_d2d = wrap_displacements(dep, station[None])
            assert np.array_equal(one_disp[:, 0], disp[:, k], equal_nan=True), station
            assert np.array_equal(one_d2d[0], d2d[k], equal_nan=True), station
    assert np.array_equal(disp, want_disp, equal_nan=True)
    assert np.array_equal(d2d, want_d2d, equal_nan=True)
    assert not in_footprint(ms[5:7], dep).any()


_WRAP_TABLE_ON_FIRST_USE = """
import sys
import numpy as np
import mmwsim
from mmwsim import deployment
cfg = mmwsim.load_config(sys.argv[1])
misses = [deployment._wrap_candidates.cache_info().misses]
for _ in range(2):
    mmwsim.wrap_displacements(cfg.deployment, np.zeros((3, 2)))
    misses.append(deployment._wrap_candidates.cache_info().misses)
print(*misses)
"""


def test_loading_a_config_builds_no_wrap_table(tmp_path):
    # a run's setup imports the package and loads its config: the candidate
    # table waits for the first wrap call, which builds it once
    path = tmp_path / "scenario.yaml"
    path.write_text("f_c_ghz: 60.0\nenvironment: indoor\n")
    src = str(Path(mmwsim.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _WRAP_TABLE_ON_FIRST_USE, str(path)],
                         check=True, capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["0", "1", "1"]

def _projection_in_footprint(pts, dep):
    # the independent footprint rule: a point is in a site's cell when its
    # offset projects to within isd/2 on the three lattice-neighbour
    # directions (0, 60 and 120 degrees); the tolerance keeps shared edges in
    half = 0.5 * dep.isd_m * (1.0 + 1e-12)
    c = math.sqrt(3.0) / 2.0
    inside = np.zeros(len(pts), dtype=bool)
    for sx, sy in dep.site_xy:
        dx, dy = pts[:, 0] - sx, pts[:, 1] - sy
        inside |= ((np.abs(dx) <= half) & (np.abs(0.5 * dx + c * dy) <= half)
                   & (np.abs(c * dy - 0.5 * dx) <= half))
    return inside


@pytest.mark.parametrize("isd", [200.0, 173.2])
def test_in_footprint_matches_projection_rule(isd):
    d = DeploymentParams(isd_m=isd)
    rng = np.random.default_rng(int(isd * 10))
    pts = rng.uniform(-3.5 * isd, 3.5 * isd, size=(1_000_000, 2))
    got = in_footprint(pts, d)
    assert 0.3 < got.mean() < 0.7
    assert np.array_equal(got, _projection_in_footprint(pts, d))


def _cell_edges_and_vertices(d):
    # every edge midpoint and vertex of every site's cell, with the centres
    # of the other cells that meet there
    def unit(a):
        return np.stack([np.cos(a), np.sin(a)], axis=1)

    to_edge, to_vertex = unit(np.arange(6) * np.pi / 3), unit((np.arange(6) + 0.5) * np.pi / 3)
    for s in d.site_xy:
        for e in range(6):
            across, nxt = s + d.isd_m * to_edge[e], s + d.isd_m * to_edge[(e + 1) % 6]
            yield s + 0.5 * d.isd_m * to_edge[e], [across]
            yield s + d.isd_m / math.sqrt(3.0) * to_vertex[e], [across, nxt]


@pytest.mark.parametrize("isd", [200.0, 173.2])
def test_in_footprint_edges_and_vertices(isd):
    d = DeploymentParams(isd_m=isd)
    assert in_footprint(d.site_xy, d).all()

    def is_site(xy):
        return np.linalg.norm(d.site_xy - xy, axis=1).min() < 0.5 * isd

    interior, outward = [], []
    for point, others in _cell_edges_and_vertices(d):
        beyond = [c for c in others if not is_site(c)]
        if not beyond:
            interior.append(point)  # every cell meeting here is a site
        else:
            # 1e-9 isd off the outer boundary toward the centre of a cell
            # beyond it; a point exactly on it may round either way
            step = beyond[0] - point
            outward.append(point + 1e-9 * isd * step / np.linalg.norm(step))
    interior, outward = np.array(interior), np.array(outward)
    # each point is seen from every site cell it touches: 42 interior edges and
    # 24 interior vertices; 30 outer edges, and 30 outer vertices of which 12
    # touch two cells
    assert len(interior) == 2 * 42 + 3 * 24
    assert len(outward) == 30 + 18 + 2 * 12
    assert in_footprint(interior, d).all()
    assert _projection_in_footprint(interior, d).all()
    assert not in_footprint(outward, d).any()
    assert not _projection_in_footprint(outward, d).any()


def _reference_sample_positions(dep, count, min_distance_m, rng):
    # the reference sampler measures the 19 site distances of every candidate
    sites = dep.site_xy
    margin = dep.isd_m / math.sqrt(3.0)
    lo = sites.min(axis=0) - margin
    hi = sites.max(axis=0) + margin
    out = np.empty((0, 2))
    while len(out) < count:
        m = max(2 * (count - len(out)), 64)
        pts = rng.uniform(lo, hi, size=(m, 2))
        keep = _projection_in_footprint(pts, dep)
        d = np.linalg.norm(pts[:, None, :] - sites[None, :, :], axis=2)
        keep &= d.min(axis=1) >= min_distance_m
        out = np.concatenate([out, pts[keep]])
    return out[:count]


@pytest.mark.parametrize("count, min_distance_m, seed", [
    (5, 10.0, 0), (31, 0.0, 3), (57, 60.0, 1), (570, 10.0, 42), (1000, 100.0, 7),
    (5700, 10.0, 5), (570, 110.0, 2)])
def test_drop_matches_reference_sampler(dep, count, min_distance_m, seed):
    want = _reference_sample_positions(dep, count, min_distance_m, np.random.default_rng(seed))
    params = DeploymentParams(min_distance_m=min_distance_m)
    got = drop_mobiles(params, "outdoor", count, np.random.default_rng(seed))
    assert np.array_equal(got.xy, want)
    # indoor draws follow the positions on the same generator
    rng = np.random.default_rng(seed)
    want = _reference_sample_positions(dep, count, min_distance_m, rng)
    n_floors = rng.integers(4, 9, size=count)
    floor = rng.integers(1, n_floors + 1)
    depth = rng.uniform(0.0, 25.0, size=count)
    got = drop_mobiles(params, "indoor", count, np.random.default_rng(seed))
    assert np.array_equal(got.xy, want)
    assert np.array_equal(_floors(got), floor)
    assert np.array_equal(got.indoor_depth_m, depth)
    assert np.array_equal(got.height_m, [float(3.0 * (f - 1) + 1.5) for f in floor])


def _floors(drop):
    """Each station's floor, read from its height at the default 1.5 m
    ``ms_height_m`` and 3 m storeys: floor f stands f - 1 storeys up."""
    return (drop.height_m - 1.5) / 3.0 + 1


def test_drop_outdoor_attributes(dep, rng):
    drop = drop_mobiles(dep, "outdoor", 300, rng)
    assert drop.xy.shape == (300, 2)
    assert all(len(a) == 300 for a in drop)
    # outdoor stations have no in-building segment
    assert np.all(drop.height_m == 1.5)
    assert np.all(drop.indoor_depth_m == 0.0)
    assert np.all(_floors(drop) == 1)


def test_drop_positions_inside_footprint(dep, rng):
    drop = drop_mobiles(dep, "outdoor", 500, rng)
    assert in_footprint(drop.xy, dep).all()


def test_drop_min_distance(dep, rng):
    drop = drop_mobiles(dep, "outdoor", 2000, rng)
    _, d2d = wrap_displacements(dep, drop.xy)
    assert d2d.min() >= 10.0


def test_drop_indoor_attributes(dep, rng):
    drop = drop_mobiles(dep, "indoor", 2000, rng)
    floors, depth, heights = _floors(drop), drop.indoor_depth_m, drop.height_m
    assert np.array_equal(floors, np.rint(floors))  # integral, and exact
    assert floors.min() >= 1 and floors.max() <= 8
    assert floors.max() >= 5  # floor counts reach 8, so top floors occur
    assert depth.min() >= 0.0 and depth.max() <= 25.0
    assert_allclose(heights, 3.0 * (floors - 1) + 1.5)
    # every indoor station has an in-building segment
    assert np.all(depth > 0.0)


def test_drop_indoor_depth_mean(dep):
    # mean of Uniform(0, 25) is 12.5
    rng = np.random.default_rng(2024)
    drop = drop_mobiles(dep, "indoor", 100_000, rng)
    mean = np.mean(drop.indoor_depth_m)
    assert abs(mean - 12.5) < 0.1


def test_drop_uniformity_per_cell(dep):
    # per-cell counts of 1e5 drops stay within 3 sigma of multinomial noise
    rng = np.random.default_rng(77)
    pts = drop_mobiles(dep, "outdoor", 100_000, rng).xy
    nearest = np.linalg.norm(
        pts[:, None, :] - dep.site_xy[None, :, :], axis=2).argmin(axis=1)
    counts = np.bincount(nearest, minlength=19)
    p = 1.0 / 19.0
    sigma = math.sqrt(len(pts) * p * (1 - p))
    assert np.abs(counts - len(pts) * p).max() <= 3.0 * sigma


def test_drop_deterministic(dep):
    a = drop_mobiles(dep, "indoor", 50, np.random.default_rng(5))
    b = drop_mobiles(dep, "indoor", 50, np.random.default_rng(5))
    assert a._fields == b._fields
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_drop_errors(dep, rng):
    with pytest.raises(ConfigError):
        drop_mobiles(dep, "outdoor", 0, rng)
    with pytest.raises(ConfigError):
        drop_mobiles(dep, "underwater", 10, rng)


def _reference_drop_refusal(params, environment, ms_per_sector):
    """The message of the numpy rule by which a config refused a drop before
    ``check_drop``, or None: the sampler's round budget, then the shortest
    link over the floor at or below the BS and the floor above it."""
    budget = deployment._MAX_SAMPLE_ROUNDS
    if deployment._expected_sample_rounds(params.isd_m, params.min_distance_m,
                                          ms_per_sector) > budget:
        return (f"deployment.min_distance_m={params.min_distance_m:g} at "
                f"isd_m={params.isd_m:g} leaves so little of the footprint that "
                f"{ms_per_sector} stations per sector need more than {budget} sampling "
                f"rounds per drop")
    heights = np.array([params.ms_height_m])
    if environment == "indoor":
        storey = deployment.STOREY_HEIGHT_M
        k = np.floor((params.bs_height_m - params.ms_height_m) / storey) + np.arange(2.0)
        heights = storey * np.clip(k, 0, params.floor_count_max - 1) + params.ms_height_m
    d3d_min = np.hypot(params.min_distance_m, np.abs(params.bs_height_m - heights).min())
    if d3d_min < 1.0:
        return (f"deployment.min_distance_m={params.min_distance_m:g} with bs_height_m="
                f"{params.bs_height_m:g} admits links with d_3d = {d3d_min:g} m, below "
                f"the 1 m close-in reference distance")
    return None


def test_check_drop_matches_the_numpy_rule():
    # the pinned cases (112 and 113 m at ISD 200 m, 115.4 m, a 1.6 m BS over a
    # 1.5 m station, an indoor 10.5 m BS, indoor 0.8 m) among half storeys
    # (BS 3 and 6 m over 1.5 m), clipped floors and both refusals
    outcomes = collections.Counter()
    for isd, min_d, bs, ms, (f_min, f_max), environment, ms_per_sector in itertools.product(
            (200.0, 20.0), (0.0, 0.6, 0.8, 1.0, 10.0, 112.0, 113.0, 115.4),
            (1.0, 1.6, 2.3, 3.0, 6.0, 10.0, 10.5, 40.0), (0.5, 1.5), ((1, 1), (3, 3), (4, 8)),
            ("outdoor", "indoor"), (1, 10, 100)):
        try:
            params = DeploymentParams(isd_m=isd, min_distance_m=min_d, bs_height_m=bs,
                                      ms_height_m=ms, floor_count_min=f_min,
                                      floor_count_max=f_max)
        except ConfigError:  # min_distance_m beyond the circumradius
            continue
        want = _reference_drop_refusal(params, environment, ms_per_sector)
        try:
            params.check_drop(environment, ms_per_sector)
            got = None
        except ConfigError as exc:
            got = str(exc)
        assert got == want, (params, environment, ms_per_sector)
        outcomes["ok" if want is None else want.split(" ")[-1]] += 1
    assert set(outcomes) == {"ok", "drop", "distance"}, outcomes
    assert min(outcomes.values()) >= 50, outcomes


def test_config_construction_calls_no_numpy():
    # a config's checks are plain Python, and only deployment knows its drop rules
    checks = (ScenarioConfig.__post_init__, DeploymentParams.__post_init__,
              DeploymentParams.check_drop, deployment._expected_sample_rounds,
              PropagationParams.__post_init__, PropagationParams.check_carrier,
              AntennaPattern.__post_init__)
    for check in checks:
        assert "np" not in check.__code__.co_names, check.__qualname__
    names = set(re.findall(r"\w+", inspect.getsource(engine)))
    assert not names & {"_MAX_SAMPLE_ROUNDS", "_expected_sample_rounds", "STOREY_HEIGHT_M"}
