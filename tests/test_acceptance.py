"""Acceptance suite: every exit criterion at its stated tolerance.

Runs at desk scale (20 drops x 570 stations per scenario, fixed seed) and
prints one pass/fail line per criterion; run with ``pytest -s`` to see the
lines for passing criteria too.
"""

import math

import numpy as np

from mmwsim import (ScenarioConfig, drop_mobiles, empirical_cdf, fspl,
                    generate_layout, geometry_metric, noise_power, o2i_loss,
                    oxygen_absorption, pl_nlos_abg, run_scenario,
                    save_results, wrap_displacements)

from conftest import ACCEPT_DROPS, ACCEPT_SEED


def report(cid, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {cid:>2}: {detail}")
    assert ok, f"criterion {cid}: {detail}"


def serving_distance(res):
    """Median serving-link d_3d of a links run and the 60 GHz oxygen loss
    delta(60 GHz) x d over that distance, as a report fragment."""
    serving = res.links["coupling_loss"].argmax(axis=1)
    d = float(np.median(res.links["d_3d"][np.arange(len(serving)), serving // 3]))
    return (f"median serving d_3d = {d:.0f} m, "
            f"delta(60 GHz) x d = {oxygen_absorption(60.0, d):.2f} dB")


def test_criterion_01_deterministic_oracles():
    checks = [
        ("fspl(2 GHz)", fspl(2.0), 38.47),
        ("pl_nlos_abg(30 GHz, 100 m)", pl_nlos_abg(30.0, 100.0), 124.46),
        ("noise_power(20 MHz, 9 dB)", noise_power(20e6, 9.0), -91.99),
        ("o2i composite(28 GHz)", o2i_loss(28.0, 0.0), 34.98),
    ]
    ok = all(abs(got - want) <= 0.01 for _, got, want in checks)
    detail = "; ".join(f"{name}={got:.4f} (want {want}±0.01)"
                       for name, got, want in checks)
    report(1, ok, detail)


def test_criterion_02_abg_frequency_slope():
    # expected value from the slope identity itself: 21.3 * log10(50)
    expected = 21.3 * math.log10(50.0)
    dep = generate_layout(200.0)
    drop = drop_mobiles(dep, "outdoor", 570, np.random.default_rng(ACCEPT_SEED))
    _, d2d = wrap_displacements(dep, drop.xy)
    d3d = np.hypot(d2d, 1.5 - 10.0)
    diff = pl_nlos_abg(100.0, d3d) - pl_nlos_abg(2.0, d3d)
    ok = bool(np.allclose(diff, expected, atol=1e-9))
    report(2, ok, f"per-link pl(100 GHz)-pl(2 GHz) = {diff.flat[0]:.5f} dB on all "
                  f"{diff.size} links (identity value {expected:.5f})")


def test_criterion_03_oxygen_point_value():
    got = oxygen_absorption(60.0, 200.0)
    ok = got == 3.0
    report(3, ok, f"oxygen_absorption(60 GHz, 200 m) = {got} dB (want exactly 3.0)")


def test_criterion_04_byte_identical_outputs(tmp_path):
    cfg = ScenarioConfig(f_c_ghz=60.0, environment="outdoor", n_drops=ACCEPT_DROPS,
                         seed=ACCEPT_SEED)
    dirs = []
    for name, workers in (("a", 1), ("b", 1), ("c", 4)):
        res = run_scenario(cfg, workers=workers, collect_links=True)
        save_results(res, tmp_path / name)
        dirs.append(tmp_path / name)
    names = ("cl_cdf.csv", "gm_cdf.csv", "summary.json", "links.csv")
    ok = all((dirs[0] / n).read_bytes() == (d / n).read_bytes()
             for n in names for d in dirs[1:])
    report(4, ok, "repeat run and 4-worker run byte-identical across "
                  f"{', '.join(names)}")


def test_criterion_05_outdoor_cl_gap(scenario_runner):
    lo = scenario_runner("outdoor", "scaled", 2.0)
    hi = scenario_runner("outdoor", "scaled", 100.0)
    gap = lo.cl_cdf.median() - hi.cl_cdf.median()
    ok = abs(gap - 35.0) <= 5.0
    report(5, ok, f"outdoor median CL gap 2 vs 100 GHz = {gap:.2f} dB (want 35±5)")


def test_criterion_06_outdoor_oxygen_penalty(scenario_runner):
    on = scenario_runner("outdoor", "scaled", 60.0, oxygen=True, links=True)
    off = scenario_runner("outdoor", "scaled", 60.0, oxygen=False)
    penalty = off.cl_cdf.median() - on.cl_cdf.median()
    ok = abs(penalty - 3.0) <= 1.0
    report(6, ok, f"outdoor 60 GHz median CL oxygen penalty = {penalty:.2f} dB "
                  f"(want 3±1); {serving_distance(on)}")


def test_criterion_07_indoor_cl_gap(scenario_runner):
    lo = scenario_runner("indoor", "scaled", 2.0)
    hi = scenario_runner("indoor", "scaled", 100.0)
    gap = lo.cl_cdf.median() - hi.cl_cdf.median()
    ok = abs(gap - 70.0) <= 8.0
    report(7, ok, f"indoor median CL gap 2 vs 100 GHz = {gap:.2f} dB (want 70±8)")


def test_criterion_08_indoor_oxygen_penalty(scenario_runner):
    on = scenario_runner("indoor", "scaled", 60.0, oxygen=True, links=True)
    off = scenario_runner("indoor", "scaled", 60.0, oxygen=False)
    penalty = off.cl_cdf.median() - on.cl_cdf.median()
    ok = abs(penalty - 4.0) <= 1.5
    report(8, ok, f"indoor 60 GHz median CL oxygen penalty = {penalty:.2f} dB "
                  f"(want 4±1.5); {serving_distance(on)}")


def test_criterion_09_outdoor_scaled_gm(scenario_runner):
    fracs = {f: scenario_runner("outdoor", "scaled", f).gm_cdf.fraction_below(0.0)
             for f in (2.0, 10.0, 30.0, 60.0, 100.0)}
    ok = all(abs(v - 0.20) <= 0.07 for v in fracs.values())
    detail = ", ".join(f"{f:g} GHz: {v:.3f}" for f, v in fracs.items())
    report(9, ok, f"outdoor scaled GM<0 fractions (want 0.20±0.07 each): {detail}")


def test_criterion_10_outdoor_constant_gm(scenario_runner):
    fracs = {f: scenario_runner("outdoor", "constant", f).gm_cdf.fraction_below(0.0)
             for f in (2.0, 10.0, 30.0, 60.0, 100.0)}
    bounds = {2.0: (0.13, 0.27), 10.0: (0.13, 0.27), 30.0: (0.13, 0.27),
              60.0: (0.25, 0.45), 100.0: (0.38, 0.58)}
    ok = all(bounds[f][0] <= v <= bounds[f][1] for f, v in fracs.items())
    detail = ", ".join(
        f"{f:g} GHz: {v:.3f} (want {bounds[f][0]:.2f}-{bounds[f][1]:.2f})"
        for f, v in fracs.items())
    report(10, ok, f"outdoor constant GM<0 fractions: {detail}")


def test_criterion_11_indoor_scaled_gm(scenario_runner):
    fracs = {f: scenario_runner("indoor", "scaled", f).gm_cdf.fraction_below(0.0)
             for f in (30.0, 60.0, 100.0)}
    ok = (abs(fracs[30.0] - 0.75) <= 0.10 and abs(fracs[60.0] - 0.90) <= 0.07
          and fracs[100.0] >= 0.97)
    detail = (f"30 GHz: {fracs[30.0]:.3f} (want 0.75±0.10), "
              f"60 GHz: {fracs[60.0]:.3f} (want 0.90±0.07), "
              f"100 GHz: {fracs[100.0]:.3f} (want >=0.97)")
    report(11, ok, f"indoor scaled GM<0 fractions: {detail}")


def test_criterion_12_indoor_constant_noise_limited(scenario_runner):
    fracs = {f: scenario_runner("indoor", "constant", f)
             .regime_fractions["noise_limited"] for f in (60.0, 100.0)}
    ok = all(v >= 0.95 for v in fracs.values())
    detail = ", ".join(f"{f:g} GHz: {v:.3f}" for f, v in fracs.items())
    report(12, ok, f"indoor constant noise-limited serving fractions "
                   f"(want >=0.95): {detail}")


def test_criterion_13_property_suite():
    rng = np.random.default_rng(ACCEPT_SEED)
    cases = 1000

    # path-loss monotonicity in distance and frequency
    d = np.sort(rng.uniform(1.0, 5000.0, size=cases))
    f = np.sort(rng.uniform(0.5, 100.0, size=cases))
    mono = (np.all(np.diff(pl_nlos_abg(30.0, d)) > 0)
            and np.all(np.diff(pl_nlos_abg(f, 100.0)) > 0)
            and np.all(np.diff(fspl(f)) > 0))

    # association argmax is invariant to a common offset
    cls = rng.uniform(-160.0, -60.0, size=(cases, 57))
    shifts = rng.uniform(-40.0, 40.0, size=(cases, 1))
    argmax_inv = bool(np.all(np.argmax(cls, axis=1)
                             == np.argmax(cls + shifts, axis=1)))

    # geometry metric is invariant to a common dB shift of powers and noise
    p = rng.uniform(-130.0, -60.0, size=(cases, 57))
    serving = np.argmax(p, axis=1)
    shift = rng.uniform(-40.0, 40.0, size=cases)
    gm_a = geometry_metric(p, serving, -95.0)
    gm_b = np.array([geometry_metric(p[i] + shift[i], int(serving[i]),
                                     -95.0 + shift[i]) for i in range(cases)])
    ratio_inv = bool(np.allclose(gm_a, gm_b, atol=1e-9))

    # CDF consistency: fraction_below(percentile(p)) >= p
    cdf = empirical_cdf(rng.normal(size=337))
    ps = rng.uniform(0.0, 1.0, size=cases)
    cdf_ok = all(cdf.fraction_below(cdf.percentile(q)) >= q - 1e-12 for q in ps)

    ok = mono and argmax_inv and ratio_inv and cdf_ok
    report(13, ok, f"randomized invariants over {cases} cases each: "
                   f"monotonicity={mono}, argmax-invariance={argmax_inv}, "
                   f"GM-ratio-invariance={ratio_inv}, CDF-consistency={cdf_ok}")


def test_criterion_14_2ghz_scheme_degeneracy(scenario_runner):
    a = scenario_runner("outdoor", "scaled", 2.0)
    b = scenario_runner("outdoor", "constant", 2.0)
    ok = (np.array_equal(a.gm_cdf.samples, b.gm_cdf.samples)
          and np.array_equal(a.cl_cdf.samples, b.cl_cdf.samples))
    report(14, ok, "2 GHz scaled vs constant GM and CL CDFs bit-identical "
                   f"({a.gm_cdf.n} samples)")
