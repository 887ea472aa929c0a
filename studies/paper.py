"""The paper's results as one table: ``python3 studies/paper.py``.

Runs the 20 (environment, power scheme, carrier) scenarios of the paper at
the acceptance suite's scale (seed 42, 20 drops of 570 stations) as one
``run_sweep`` per environment, so every carrier and scheme of an
environment runs on the same drops, and writes ``PAPER_TABLE.md`` at the
root of the checkout: one row per run with its CL and GM statistics, the
claim of the PAPER.md abstract on it, and the band of each acceptance
criterion (``tests/test_acceptance.py``) that reads it.  Values are printed
to 0.01 dB and 0.001, coarse enough that the text is the same at every
numpy CPU dispatch level.  A Tier-1 test regenerates the table and compares
it with the committed file.

The package is imported from ``src/`` of the checkout this file sits in.
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from mmwsim import ScenarioConfig, run_sweep  # noqa: E402

TABLE_PATH = REPO / "PAPER_TABLE.md"
SEED, N_DROPS = 42, 20  # tests/conftest.py: ACCEPT_SEED, ACCEPT_DROPS
ENVIRONMENTS = ("outdoor", "indoor")
SCHEMES = ("scaled", "constant")
CARRIERS_GHZ = (2.0, 10.0, 30.0, 60.0, 100.0)

# (environment, scheme) -> {carrier: text}: what the abstract says of a row
CLAIMS = {
    ("outdoor", "scaled"): dict.fromkeys((10.0, 30.0, 60.0, 100.0),
                                         "GM < 0 dB for 20% (all mmWave carriers)"),
    ("outdoor", "constant"): {**dict.fromkeys((2.0, 10.0, 30.0), "GM < 0 dB for 20% (to 30 GHz)"),
                              60.0: "GM < 0 dB for 35%", 100.0: "GM < 0 dB for 48%"},
    ("indoor", "scaled"): {2.0: "favorable GM only here",
                           **dict.fromkeys((10.0, 30.0, 60.0, 100.0), "GM not favorable")},
}

# (environment, scheme) -> {carrier: [criterion: band]}, as tests/test_acceptance.py
# states them
_GM_SCALED = "C9: GM<0 0.20±0.07"
_OUTDOOR_CONSTANT = "C10: GM<0 0.13-0.27"
BANDS = {
    ("outdoor", "scaled"): {
        2.0: ["C5: median CL 35±5 dB above 100 GHz", _GM_SCALED, "C14: = constant, bit for bit"],
        10.0: [_GM_SCALED], 30.0: [_GM_SCALED],
        60.0: ["C6: oxygen costs 3±1 dB of median CL", _GM_SCALED],
        100.0: ["C5: median CL 35±5 dB below 2 GHz", _GM_SCALED]},
    ("outdoor", "constant"): {
        2.0: [_OUTDOOR_CONSTANT, "C14: = scaled, bit for bit"],
        10.0: [_OUTDOOR_CONSTANT], 30.0: [_OUTDOOR_CONSTANT],
        60.0: ["C10: GM<0 0.25-0.45"], 100.0: ["C10: GM<0 0.38-0.58"]},
    ("indoor", "scaled"): {
        2.0: ["C7: median CL 70±8 dB above 100 GHz"],
        30.0: ["C11: GM<0 0.75±0.10"],
        60.0: ["C8: oxygen costs 4±1.5 dB of median CL", "C11: GM<0 0.90±0.07"],
        100.0: ["C7: median CL 70±8 dB below 2 GHz", "C11: GM<0 >= 0.97"]},
    ("indoor", "constant"): dict.fromkeys((60.0, 100.0), ["C12: noise-limited >= 0.95"]),
}

HEADER = """\
# The paper's table, regenerated

Written by `python3 studies/paper.py`; do not edit. Each row is one run of
{n_drops} drops of 570 stations at seed {seed}, the acceptance suite's
scale; the runs of an environment share their drops. CL is the serving
coupling loss and GM the geometry metric; "GM < 0" is the fraction of
stations at or below 0 dB and "noise-limited" the fraction whose serving CL
is below the SNR = 0 dB threshold. The abstract's claims are quoted from
PAPER.md; each band is that of the acceptance criterion (C*n*) of
`tests/test_acceptance.py` that reads the row. C6 and C8 compare the row
with its oxygen-free twin, which this table does not show.

| environment | scheme | f_c (GHz) | CL 5% (dB) | median CL (dB) | CL 95% (dB) | median GM (dB) | GM < 0 | noise-limited | abstract | acceptance bands |
|---|---|---:|---:|---:|---:|---:|---:|---:|---|---|
"""


def run_rows() -> list[str]:
    """One Markdown row per (environment, scheme, carrier), in that order."""
    rows = []
    for environment in ENVIRONMENTS:
        base = ScenarioConfig(environment=environment, n_drops=N_DROPS, seed=SEED)
        entries = {entry.key: entry for entry in
                   run_sweep(base, CARRIERS_GHZ, SCHEMES, workers=2)}
        for scheme in SCHEMES:
            for f_c in CARRIERS_GHZ:
                entry = entries[(f_c, scheme)]
                if entry.error is not None:
                    raise RuntimeError(f"{environment} {scheme} {f_c:g} GHz: {entry.error}")
                res = entry.result
                cl = res.cl_cdf
                rows.append(
                    f"| {environment} | {scheme} | {f_c:g} | {cl.percentile(0.05):.2f} "
                    f"| {cl.median():.2f} | {cl.percentile(0.95):.2f} "
                    f"| {res.gm_cdf.median():.2f} | {res.gm_cdf.fraction_below(0.0):.3f} "
                    f"| {res.regime_fractions['noise_limited']:.3f} "
                    f"| {CLAIMS.get((environment, scheme), {}).get(f_c, '—')} "
                    f"| {'; '.join(BANDS[(environment, scheme)].get(f_c, ['—']))} |")
    return rows


def render() -> str:
    """The text of ``PAPER_TABLE.md``."""
    return HEADER.format(n_drops=N_DROPS, seed=SEED) + "\n".join(run_rows()) + "\n"


if __name__ == "__main__":
    TABLE_PATH.write_text(render(), encoding="utf-8")
    print(f"wrote {TABLE_PATH}")
