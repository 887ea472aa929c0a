"""End-to-end and per-layer benchmark of mmwsim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, both modes

Each run writes a scenario file made from ``--seed`` and then drives the
package the way the CLI does: ``load_config`` -> ``run_scenario`` or
``run_sweep`` -> ``save_results``.  It repeats that for ``--seconds``
seconds, checks every output, and prints the metrics one per line with
their units.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics with tracing off; iteration
times are scaled to a reference machine speed (see REFERENCE_KERNELS).
``--trace 1`` spends half the time untraced and half traced, and reports
the per-layer metrics of the median traced iteration (see tracer.py) plus
the tracing overhead.  Details, output digests and machine facts go to
``perfbench/.out/<workload>-seed<N>-trace<T>/result.json``, and the spans of
a traced run to ``trace.jsonl`` beside it.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

import os

# Pinned before numpy loads: in_footprint does a matmul, and OpenBLAS would
# otherwise start its own threads next to the engine's drop workers.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT = HERE / ".out"

N_SECTORS = 57
SWEEP_FREQS_GHZ = (2.0, 10.0, 30.0, 60.0, 100.0)
SWEEP_SCHEMES = ("scaled", "constant")
LINK_COLUMNS = ("ms_id,sector_id,d_2d,d_3d,is_los,pl,l_o2i,l_oa,g_tx,g_sm,"
                "coupling_loss,p_rx")

# Why each workload exists is recorded in BENCHMARK.json.  n_drops sizes one
# iteration to about half a second on a 2-core Xeon, so that a run holds
# dozens of iterations and each sits close in time to its reference timings.
# `reference` names the kernels that stand for what the workload spends its
# time on (see REFERENCE_KERNELS).
WORKLOADS = {
    "scenario_indoor_dense": dict(
        sweep=False, workers=1, links=False, reference=("numeric",),
        config=dict(f_c_ghz=60.0, power_scheme="scaled", environment="indoor",
                    n_drops=3, ms_per_sector=100)),
    "sweep_outdoor_5x2": dict(
        sweep=True, workers=2, links=False, reference=("numeric",),
        config=dict(f_c_ghz=60.0, power_scheme="scaled", environment="outdoor",
                    n_drops=3, ms_per_sector=10)),
    "links_dump": dict(
        sweep=False, workers=1, links=True, reference=("numeric", "formatting"),
        config=dict(f_c_ghz=60.0, power_scheme="scaled", environment="indoor",
                    n_drops=1, ms_per_sector=10)),
}
TINY = dict(n_drops=1, ms_per_sector=2)  # --tiny: the self-test's scale

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("links_per_s", "links/s"),
              ("peak_rss_mb", "MB"))

# Shared hosts slow down by 30-40% for stretches of many seconds when other
# tenants load the cores, which moves a run's median wall time by 20%.  Fixed
# reference kernels, timed just before and just after each iteration and
# each setup probe, slow down with them, so those times are reported at the
# kernels' nominal speed: seconds * nominal / reference.  Float formatting
# tracks the writer-bound links_dump; on the simulations it adds noise, so
# they use the numpy kernel alone.  The raw times are printed and kept in
# result.json.
REFERENCE_DATA = np.random.default_rng(0).uniform(1.0, 2.0, 250_000)


def _numeric_kernel():
    for _ in range(3):
        np.hypot(np.log10(REFERENCE_DATA) * 21.0, REFERENCE_DATA)


def _formatting_kernel():
    ",".join([f"{v:.10g}" for v in REFERENCE_DATA[:20000]])


# name -> (kernel, its seconds on a quiet 2-core Xeon)
REFERENCE_KERNELS = {"numeric": (_numeric_kernel, 0.015),
                     "formatting": (_formatting_kernel, 0.012)}


def reference_seconds(kernels) -> float:
    t0 = time.perf_counter()
    for name in kernels:
        REFERENCE_KERNELS[name][0]()
    return time.perf_counter() - t0


def normalize(pairs, kernels) -> list[float]:
    """(raw seconds, reference seconds) pairs -> seconds at nominal speed."""
    nominal = sum(REFERENCE_KERNELS[name][1] for name in kernels)
    return [t * nominal / ref for t, ref in pairs]


# Fresh interpreter to ready: import the package and load the scenario file.
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mmwsim
mmwsim.load_config(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one drop of 2 stations per sector (self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "mmwsim" / "__init__.py").is_file():
        print(f"error: no mmwsim package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


def run_all(args) -> int:
    """Run every workload untraced then traced, one child process at a time."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.rstrip("\n").split("\n")
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"error: {name} --trace {trace} exited {proc.returncode}",
                      file=sys.stderr)
                return proc.returncode or 1
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import mmwsim
    from mmwsim import engine

    if Path(mmwsim.__file__).resolve().parent != SRC / "mmwsim":
        print(f"error: imported mmwsim from {mmwsim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario = dict(spec["config"], seed=args.seed, **(TINY if args.tiny else {}))
    cfg_path = work / "scenario.yaml"
    cfg_path.write_text(json.dumps(scenario, indent=2) + "\n")  # JSON is YAML
    cfg = engine.load_config(cfg_path)

    runs_per_iter = len(SWEEP_FREQS_GHZ) * len(SWEEP_SCHEMES) if spec["sweep"] else 1
    stations = cfg.n_drops * cfg.ms_per_sector * N_SECTORS
    bench = Bench(engine, spec, cfg, work / "out", stations)

    bench.iterate()  # warm-up: first-touch allocations and lazy imports
    bench.first_digests = bench.last_digests
    bench.clear()

    tracer = None
    setups = []  # (raw seconds, reference seconds) of each setup probe
    if args.trace:
        bench.loop(args.seconds / 2)
        untraced = bench.normalized()
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        bench.tracer = tracer
        bench.clear()
        bench.loop(args.seconds / 2)
        metrics, units = traced_metrics(tracer, bench, untraced), tracing.UNITS
    else:
        # one setup probe after each iteration spreads them over the run
        bench.loop(args.seconds, between=lambda: setups.append(
            setup_probe(cfg_path, spec["reference"])))
        metrics, units = {}, dict(END_TO_END)
        if bench.walls:  # else every iteration raised
            wall = statistics.median(bench.normalized())
            metrics = {
                "setup_s": statistics.median(normalize(setups, spec["reference"])),
                "wall_s": wall,
                "links_per_s": stations * N_SECTORS * runs_per_iter / wall,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }

    attempted = bench.iterations * runs_per_iter
    machine = machine_facts()
    report(args, bench, metrics, units, attempted, setups, machine)
    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "scenario": scenario,
        "workers": spec["workers"], "iterations": bench.iterations,
        "attempted": attempted, "failed": bench.failed, "problems": bench.problems,
        "iteration_wall_s": bench.walls, "iteration_reference_s": bench.refs,
        "reference": spec["reference"], "setup_probe_s": setups,
        "digests": bench.first_digests,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "machine": machine,
    }
    (work / "result.json").write_text(json.dumps(facts, indent=2) + "\n")
    if tracer is not None:
        with open(work / "trace.jsonl", "w") as fh:
            t0 = min(s.start for s in tracer.spans)
            for s in tracer.spans:
                fh.write(json.dumps({
                    "run": s.run, "id": s.id, "parent": s.parent, "thread": s.thread,
                    "name": s.name, "start_s": s.start - t0, "end_s": s.end - t0}) + "\n")
    print(json.dumps({
        "correct": bench.failed == 0, "attempted": attempted, "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


class Bench:
    """Repeats one CLI-equivalent workload run and checks its outputs."""

    def __init__(self, engine, spec, cfg, outdir: Path, stations: int):
        self.engine, self.spec, self.cfg = engine, spec, cfg
        self.outdir, self.stations = outdir, stations
        self.tracer = None
        self.walls: list[float] = []  # raw seconds of each timed iteration
        self.refs: list[float] = []  # reference_seconds() around each
        self.iterations = self.failed = 0
        self.problems: list[str] = []
        self.first_digests = self.last_digests = None
        self.run_counts = []  # (run id, counts) of each traced iteration

    def clear(self):
        self.walls.clear()
        self.refs.clear()

    def normalized(self) -> list[float]:
        return normalize(zip(self.walls, self.refs), self.spec["reference"])

    def loop(self, seconds: float, between=None):
        start = time.perf_counter()
        while True:
            self.iterate()
            if between is not None:
                between()
            if time.perf_counter() - start >= seconds:
                return

    def iterate(self):
        expected = ([f"f{f:g}ghz_{s}" for f in SWEEP_FREQS_GHZ for s in SWEEP_SCHEMES]
                    if self.spec["sweep"] else ["run"])
        self.iterations += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.run_id = self.iterations
        try:
            before = reference_seconds(self.spec["reference"])
            t0 = time.perf_counter()
            if tracer is None:
                runs = self.simulate_and_save()
            else:
                with tracer.span(tracing.ROOT):
                    runs = self.simulate_and_save()
            self.walls.append(time.perf_counter() - t0)
            self.refs.append((before + reference_seconds(self.spec["reference"])) / 2)
        except Exception as exc:  # an iteration that raises fails all its runs
            self.fail(len(expected), f"iteration {self.iterations}: "
                                     f"{type(exc).__name__}: {exc}")
            return
        if tracer is not None:
            self.run_counts.append((self.iterations, tracer.take_counts()))

        digests, bad = {}, 0
        for tag in expected:
            problems = self.check(tag, runs.get(tag), digests)
            if problems:
                bad += 1
                self.problems += [f"iteration {self.iterations} {tag}: {p}"
                                  for p in problems]
        if self.first_digests is not None and digests != self.first_digests and not bad:
            self.fail(1, f"iteration {self.iterations}: outputs differ from the "
                         "first iteration")
        self.failed += bad
        self.last_digests = digests

    def fail(self, n: int, problem: str):
        self.failed += n
        self.problems.append(problem)

    def simulate_and_save(self) -> dict:
        """tag -> (result, written paths) or error text, as the CLI would write."""
        engine, spec = self.engine, self.spec
        if not spec["sweep"]:
            result = engine.run_scenario(self.cfg, workers=spec["workers"],
                                         collect_links=spec["links"])
            return {"run": (result, engine.save_results(result, self.outdir))}
        runs = {}
        entries = engine.run_sweep(self.cfg, SWEEP_FREQS_GHZ, SWEEP_SCHEMES,
                                   workers=spec["workers"])
        for e in entries:
            tag = f"f{e.f_c_ghz:g}ghz_{e.scheme}"
            runs[tag] = e.error if e.error is not None else (
                e.result, engine.save_results(e.result, self.outdir / tag))
        return runs

    def check(self, tag: str, run, digests: dict) -> list[str]:
        """Problems with one run's result and files; records their digests."""
        if run is None:
            return ["missing from the sweep"]
        if isinstance(run, str):
            return [f"sweep entry error: {run}"]
        result, paths = run
        problems = []
        for label, cdf in (("CL", result.cl_cdf), ("GM", result.gm_cdf)):
            if not np.isfinite(cdf.samples).all():
                problems.append(f"{label} samples not finite")
            if cdf.n != self.stations:
                problems.append(f"{label} has {cdf.n} samples, "
                                f"{self.stations} stations simulated")
        files = {p.name: p.read_bytes() for p in paths}
        for name, data in files.items():
            digests[f"{tag}/{name}"] = hashlib.sha256(data).hexdigest()
        names = {"cl_cdf.csv", "gm_cdf.csv", "summary.json"}
        if self.spec["links"]:
            names.add("links.csv")
        if set(files) != names:
            return problems + [f"wrote {sorted(files)}, expected {sorted(names)}"]

        for name in ("cl_cdf.csv", "gm_cdf.csv"):
            text = files[name].decode()
            header, _, body = text.partition("\n")
            table = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
            if header != "value_db,cdf" or table.shape != (self.stations, 2):
                problems.append(f"{name}: header {header!r}, shape {table.shape}")
            elif not ((np.diff(table[:, 0]) >= 0).all()
                      and (np.diff(table[:, 1]) > 0).all()
                      and abs(table[-1, 1] - 1.0) < 1e-9):
                problems.append(f"{name}: columns not monotone")

        def no_constant(token):
            raise ValueError(f"non-standard JSON constant {token}")
        try:
            summary = json.loads(files["summary.json"], parse_constant=no_constant)
            if summary.get("n_samples") != self.stations:
                problems.append(f"summary.json n_samples {summary.get('n_samples')}")
        except ValueError as exc:
            problems.append(f"summary.json is not strict JSON: {exc}")

        if "links.csv" in files:
            data = files["links.csv"]
            header = data[:data.index(b"\n")].decode()
            rows = data.count(b"\n") - 1
            if header != LINK_COLUMNS or rows != self.stations * N_SECTORS:
                problems.append(f"links.csv: header {header!r}, {rows} rows, "
                                f"expected {self.stations * N_SECTORS}")
        return problems


def traced_metrics(tracer, bench: Bench, untraced: list[float]):
    """Per-layer metrics of the median traced iteration."""
    if not bench.run_counts:  # every traced iteration raised
        return {}
    by_run = {}
    for s in tracer.spans:
        by_run.setdefault(s.run, []).append(s)
    walls = dict(zip((run for run, _ in bench.run_counts), bench.normalized()))
    order = sorted(walls, key=walls.get)
    median_run = order[(len(order) - 1) // 2]
    counts = dict(bench.run_counts)
    first = bench.run_counts[0][1]
    if any(c != first for c in counts.values()):
        bench.fail(1, "work counts differ between traced iterations")
    metrics = tracing.layer_metrics(tracer, by_run[median_run], counts[median_run])
    if untraced:
        base = statistics.median(untraced)
        metrics["trace.overhead_frac"] = (statistics.median(walls.values()) - base) / base
    print("# deployment.sample_acceptance = deployment.drop_mobiles.stations"
          " / deployment.in_footprint.points")
    print("# propagation.pathloss_useful_ratio = deployment.wrap_displacements.pairs"
          " / (propagation.pl_los_ci.elements + propagation.pl_nlos_abg.elements)")
    if tracer.count_errors:
        print(f"# counts absent, the wrapped function changed: "
              f"{sorted(tracer.count_errors)}")
    return {name: metrics[name] for name, _ in tracing.PER_LAYER if name in metrics}


def setup_probe(cfg_path: Path, kernels) -> tuple[float, float]:
    """Seconds from a fresh interpreter to a loaded config, and the
    reference time around it."""
    before = reference_seconds(kernels)
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(cfg_path)],
        capture_output=True, text=True, timeout=120, check=True, cwd=REPO)
    return float(proc.stdout), (before + reference_seconds(kernels)) / 2


def report(args, bench: Bench, metrics: dict, units: dict, attempted: int,
           setups: list, machine: dict):
    print("# machine: " + ", ".join(f"{k} {v}" for k, v in machine.items()))
    mode = "traced" if args.trace else "untraced"
    print(f"# {args.workload} seed {args.seed}: {bench.iterations} iterations, "
          f"{len(bench.walls)} {mode} timed, {len(setups)} setup probes")
    for label, times in (("raw iteration wall", bench.walls),
                         ("normalized iteration wall", bench.normalized()),
                         ("raw setup", [t for t, _ in setups]),
                         ("normalized setup", normalize(setups, bench.spec["reference"]))):
        if times:
            q = (statistics.quantiles(times, n=4, method="inclusive")
                 if len(times) > 1 else times * 3)
            print(f"# {label}: median {statistics.median(times):.4f} s, "
                  f"quartiles {q[0]:.4f}..{q[2]:.4f} s, max {max(times):.4f} s")
    for name, value in metrics.items():
        print(f"{name:48s} {value!r:>24} {units[name]}")
    print(f"{'failed_frac':48s} {bench.failed / attempted!r:>24} ratio "
          f"({bench.failed}/{attempted})")
    for problem in bench.problems[:20]:
        print(f"# FAILED {problem}")
    for path, digest in sorted((bench.first_digests or {}).items()):
        print(f"# sha256 {digest} {path}")


def machine_facts() -> dict:
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        if kind != "Instruction":
            caches[f"L{level}"] = read(index / "size")
    meminfo = read("/proc/meminfo") or ""
    ram = next((line.split(":", 1)[1].strip() for line in meminfo.splitlines()
                if line.startswith("MemTotal")), None)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (REPO / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "mmwsim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
        "L2": caches.get("L2"), "L3": caches.get("L3"), "ram": ram,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "git_commit": commit, "source_sha256": source.hexdigest(),
    }


if __name__ == "__main__":
    sys.exit(main())
