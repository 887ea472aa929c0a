"""Tolerance golden: the summary statistics of a few seeded 2-drop runs.

``golden_summary.json`` holds every ``summary.json`` percentile and the
fraction of GM below 0 dB, outdoor and indoor at 2, 60 and 100 GHz, seed 7.
The test reruns those runs and compares to 1e-9 dB: wide enough for the
last-bit differences between numpy's SIMD dispatch levels (8.5e-14 dB at
most), narrow enough to catch a numpy upgrade or a rewrite that moves values
beyond rounding.  It is written by this code, so it is a regression anchor,
not an independent oracle.  Rewrite it with ``python tests/test_golden.py``
only when a change of values is intended, and say so.
"""

import json
from pathlib import Path

import pytest

from mmwsim import ScenarioConfig, run_scenario, save_results

GOLDEN = Path(__file__).with_name("golden_summary.json")
CASES = [(env, f_c) for env in ("outdoor", "indoor") for f_c in (2.0, 60.0, 100.0)]
STATISTICS = ("cl_percentiles_db", "gm_percentiles_db", "gm_fraction_below_0db")


def summary_statistics(environment: str, f_c_ghz: float, outdir: Path) -> dict:
    res = run_scenario(ScenarioConfig(f_c_ghz=f_c_ghz, environment=environment,
                                      n_drops=2, seed=7))
    save_results(res, outdir)
    summary = json.loads((outdir / "summary.json").read_text())
    return {key: summary[key] for key in STATISTICS}


@pytest.mark.parametrize("environment, f_c_ghz", CASES)
def test_summary_matches_the_golden_to_1e_9_db(tmp_path, environment, f_c_ghz):
    want = json.loads(GOLDEN.read_text())[f"{environment}/{f_c_ghz:g}"]
    got = summary_statistics(environment, f_c_ghz, tmp_path)
    assert got["gm_fraction_below_0db"] == pytest.approx(want["gm_fraction_below_0db"],
                                                         rel=0, abs=1e-9)
    for key in STATISTICS[:2]:
        assert got[key].keys() == want[key].keys(), key
        for p, value in want[key].items():
            assert got[key][p] == pytest.approx(value, rel=0, abs=1e-9), (key, p)


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        golden = {f"{env}/{f_c:g}": summary_statistics(env, f_c, Path(tmp))
                  for env, f_c in CASES}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
