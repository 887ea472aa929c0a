"""Command-line entry point: `mmwsim run` and `mmwsim sweep`."""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from .checks import ConfigError
from .engine import load_config, run_scenario, run_sweep, save_results
from .linkbudget import BANDWIDTH_HZ


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _parse_names(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _sweep_tag(f_c_ghz: float, scheme: str) -> str:
    """Name of the output directory of one sweep run."""
    return f"f{f_c_ghz:g}ghz_{scheme}"


def _check_outdirs(outdirs) -> None:
    """Refuse, before the run, an output directory that cannot be made: one
    that exists and is not a directory, or whose nearest existing ancestor is not.
    A dangling symlink exists here (``lexists``) and is no directory."""
    for outdir in outdirs:
        path = next(p for p in (outdir, *outdir.parents) if os.path.lexists(p))
        if not path.is_dir():
            raise ConfigError(f"output directory {outdir}: {path} is not a directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmwsim",
        description="System-level mmWave urban-micro coupling-loss / "
                    "geometry-metric simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-c", "--config", required=True, help="scenario YAML file")
    common.add_argument("-o", "--output", required=True, help="output directory")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed; a sweep runs every carrier "
                             "and scheme at this seed, on the same drops")
    common.add_argument("--workers", type=int, default=1,
                        help="worker threads over drops; a sweep schedules the "
                             "drops of all its runs on one pool (results are "
                             "identical for any count)")

    run_p = sub.add_parser("run", parents=[common], help="run one scenario")
    run_p.add_argument("--links", action="store_true",
                       help="also dump the full per-link table to links.csv")

    sweep_p = sub.add_parser("sweep", parents=[common],
                             help="run a carrier x power-scheme sweep")
    sweep_p.add_argument("--frequencies", type=_parse_floats,
                         default=list(BANDWIDTH_HZ),
                         help="comma-separated carriers in GHz, 0.5-100 "
                              "(default: 2,10,30,60,100)")
    sweep_p.add_argument("--schemes", type=_parse_names, default=None,
                         help="comma-separated power schemes "
                              "(default: the config's scheme)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:  # checked by replace, as every config is
            config = replace(config, seed=args.seed)
        outdir = Path(args.output)

        if args.command == "run":
            _check_outdirs([outdir])
            t0 = time.perf_counter()
            result = run_scenario(config, workers=args.workers,
                                  collect_links=args.links)
            runtime_s = time.perf_counter() - t0
            written = save_results(result, outdir)
            print(f"run f_c={config.f_c_ghz:g} GHz {config.power_scheme} "
                  f"{config.environment}: {result.cl_cdf.n} samples, "
                  f"median CL {result.cl_cdf.median():.2f} dB, "
                  f"median GM {result.gm_cdf.median():.2f} dB "
                  f"({runtime_s:.2f}s)")
            for path in written:
                print(f"  wrote {path}")
            return 0

        # only an absent --schemes falls back; an empty list is refused
        schemes = [config.power_scheme] if args.schemes is None else args.schemes
        tags = [_sweep_tag(f, s) for f in args.frequencies for s in schemes]
        shared = sorted({tag for tag in tags if tags.count(tag) > 1})
        if shared:
            raise ConfigError(f"sweep runs would share the output directory "
                              f"{', '.join(shared)}: give each carrier (to 6 "
                              f"significant digits) and scheme once")
        _check_outdirs(outdir / tag for tag in tags)
        entries = run_sweep(config, args.frequencies, schemes,
                            workers=args.workers)
        failures = 0
        for entry in entries:
            tag = _sweep_tag(entry.f_c_ghz, entry.scheme)
            if entry.error is not None:
                failures += 1
                print(f"sweep {tag}: FAILED: {entry.error}", file=sys.stderr)
                continue
            save_results(entry.result, outdir / tag)
            print(f"sweep {tag}: {entry.result.gm_cdf.n} samples, "
                  f"median GM {entry.result.gm_cdf.median():.2f} dB -> {outdir / tag}")
        if failures:
            print(f"{failures} of {len(entries)} sweep runs failed", file=sys.stderr)
            return 3
        return 0
    except Exception as exc:  # any failure, as run_sweep records each run's
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
