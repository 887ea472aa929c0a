import json
import os
import subprocess
import sys
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import mmwsim
import mmwsim.cli as cli
from mmwsim.cli import main


def write_config(tmp_path, **kw):
    cfg = dict(f_c_ghz=30.0, power_scheme="scaled", environment="outdoor",
               n_drops=2, seed=5)
    cfg.update(kw)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


# every dB setting within its bound, yet the linear received powers overflow
OVERFLOW = dict(n_drops=1, tx_power_dbm=1000.0, g_sm_db=1000.0, ms_gain_dbi=1000.0,
                antenna=dict(g_max_dbi=1000.0))
# configs that each ended a run in a raw traceback or printed a numpy
# RuntimeWarning before its one report, with the start of that report now:
# a floor count beyond int64, a bandwidth whose linear noise power overflowed
# and carriers far outside the path-loss models' range, whose reports named
# the linear powers (all refused as the config is built), and settings within
# their bounds whose linear concrete wall loss, serving received power
# (underflow) or O2I shadow leave the float range
ONE_STATION = dict(n_drops=1, ms_per_sector=1)
REPROS = {
    "floor_count_beyond_int64": (
        dict(ONE_STATION, environment="indoor", deployment=dict(floor_count_max=10**20)),
        "deployment.floor_count_max must lie in [1, 333334], got 100000000000000000000"),
    "noise_power_overflow": (
        dict(ONE_STATION, f_c_ghz=60.0, bandwidth_hz=1.0e300, noise_figure_db=1000.0),
        "bandwidth_hz must lie in (0, 1e+15], got 1e+300"),
    **{f"carrier_{f_c:g}": (
        dict(ONE_STATION, f_c_ghz=f_c, bandwidth_hz=1e9, tx_power_dbm=30.0),
        f"f_c_ghz must lie in [0.5, 100], got {f_c!r}") for f_c in (1e-300, 1e300)},
    "concrete_loss_overflow": (
        dict(ONE_STATION, f_c_ghz=10.0, environment="indoor",
             propagation=dict(concrete_loss_db=[5.0, -1000.0])),
        "non-finite coupling loss (drop 0, "),
    "received_power_underflow": (
        dict(ONE_STATION, f_c_ghz=60.0, tx_power_dbm=-1000.0, g_sm_db=-1000.0,
             ms_gain_dbi=-1000.0, antenna=dict(g_max_dbi=-1000.0)),
        "non-finite geometry metric (drop 0, ms 0): the linear serving power underflows "
        "to 0; raise tx_power_dbm or the antenna gains"),
    "o2i_shadow_overflow": (
        dict(ONE_STATION, f_c_ghz=60.0, environment="indoor",
             propagation=dict(sigma_o2i_low_db=1000.0, sigma_o2i_high_db=1000.0)),
        "non-finite coupling loss (drop 0, "),
}


def test_run_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "-c", str(cfg), "-o", str(out)]) == 0
    for name in ("cl_cdf.csv", "gm_cdf.csv", "summary.json"):
        assert (out / name).exists()
    assert not (out / "links.csv").exists()
    assert "median CL" in capsys.readouterr().out


def test_run_prints_the_seconds_of_its_own_clock(tmp_path, capsys, monkeypatch):
    # the clock is read around run_scenario, and only there
    clock = iter([100.0, 103.25])
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
    cfg = write_config(tmp_path, n_drops=1)
    assert main(["run", "-c", str(cfg), "-o", str(tmp_path / "out")]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("run f_c=30 GHz scaled outdoor: 570 samples, median CL ")
    assert first.endswith(" dB (3.25s)")
    assert next(clock, None) is None


def test_run_links_flag(tmp_path):
    cfg = write_config(tmp_path, n_drops=1)
    out = tmp_path / "out"
    assert main(["run", "-c", str(cfg), "-o", str(out), "--links"]) == 0
    assert (out / "links.csv").exists()


def test_run_seed_override(tmp_path):
    cfg = write_config(tmp_path)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["run", "-c", str(cfg), "-o", str(a)]) == 0
    assert main(["run", "-c", str(cfg), "-o", str(b), "--seed", "99"]) == 0
    assert main(["run", "-c", str(cfg), "-o", str(c), "--seed", "99"]) == 0
    read = lambda d: (d / "cl_cdf.csv").read_bytes()
    assert read(a) != read(b)
    assert read(b) == read(c)
    assert json.loads((b / "summary.json").read_text())["seed"] == 99


def test_run_worker_flag_identical_output(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "w1", tmp_path / "w4"
    assert main(["run", "-c", str(cfg), "-o", str(a), "--workers", "1"]) == 0
    assert main(["run", "-c", str(cfg), "-o", str(b), "--workers", "4"]) == 0
    for name in ("cl_cdf.csv", "gm_cdf.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_bad_config_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("f_c_ghz: -4.0\n")
    assert main(["run", "-c", str(path), "-o", str(tmp_path / "o")]) == 2
    assert "f_c_ghz" in capsys.readouterr().err


@pytest.mark.parametrize("override, field", [
    (dict(tx_power_dbm=float("nan")), "tx_power_dbm"),
    (dict(tx_power_dbm=float("inf")), "tx_power_dbm"),
    (dict(bandwidth_hz=-5), "bandwidth_hz"),
    (dict(bandwidth_hz=float("nan")), "bandwidth_hz"),
    (dict(deployment=dict(bs_height_m=-3.0)), "bs_height_m"),
    (dict(deployment=dict(ms_height_m=-1.5)), "ms_height_m"),
    (dict(deployment=dict(min_distance_m=150.0)), "min_distance_m"),
    (dict(ms_per_sector=100, deployment=dict(bs_height_m=1.6, ms_height_m=1.5,
                                             min_distance_m=0.0)), "min_distance_m"),
    # values of the wrong type
    (dict(n_drops="abc"), "n_drops"),
    (dict(n_drops=1.5), "n_drops"),
    (dict(ms_per_sector=2.5), "ms_per_sector"),
    (dict(f_c_ghz="60"), "f_c_ghz"),
    (dict(ms_gain_dbi="3"), "ms_gain_dbi"),
    ("f_c_ghz: 30.0\nnoise_figure_db: 1e308\n", "noise_figure_db"),  # YAML 1.1: a string
    (dict(propagation=dict(glass_loss_db=5)), "glass_loss_db"),
    (dict(propagation=dict(oxygen_delta_db_per_km=[1, 2])), "oxygen_delta_db_per_km"),
    (": : :\n", "YAML"),
    ("f_c_ghz: 60.0\nf_c_ghz: 2.0\n", "key 'f_c_ghz' is given twice (line 2)"),
    (dict(environment="indoor", deployment=dict(floor_count_max=8.5)), "floor_count_max"),
    (dict(seed=True), "seed"),
    (dict(tx_power_dbm=10 ** 400), "tx_power_dbm"),
    (dict(tx_power_dbm=1.0e20), "tx_power_dbm"),
    (dict(deployment=dict(min_distance_m=115.0)), "deployment.min_distance_m"),
    (OVERFLOW, "geometry metric"),
    # non-finite model constants ran to a traceback after writing the CDF files
    (dict(n_drops=1, antenna=dict(hpbw_h_deg=float("inf"))), "antenna.hpbw_h_deg"),
    (dict(n_drops=1, propagation=dict(concrete_loss_db=[float("nan"), 0.2])),
     "propagation.concrete_loss_db"),
    (dict(n_drops=1, propagation=dict(oxygen_delta_db_per_km={60.0: float("inf")})),
     "propagation.oxygen_delta_db_per_km"),
    (dict(n_drops=1, propagation=dict(sigma_los_db=float("nan"))), "propagation.sigma_los_db"),
    (dict(deployment=dict(isd_m=1e300)), "deployment.isd_m"),
    (dict(f_c_ghz=73.0), "bandwidth_hz"),
    # a carrier in the oxygen complex without its own oxygen key used to get 0 dB/km
    (dict(f_c_ghz=59.0, bandwidth_hz=1e9, tx_power_dbm=60.0),
     "propagation.oxygen_delta_db_per_km has no key"),
    # a model constant in float range that overflowed the linear powers late
    (dict(propagation=dict(abg_beta_db=-1.0e300)), "propagation.abg_beta_db"),
    # each value is typed and bounded as it is read, and named by its dotted path
    (dict(propagation=dict(sigma_los_db="abc")), "propagation.sigma_los_db"),
    (dict(propagation=dict(sigma_los_db=-1)), "propagation.sigma_los_db"),
    (dict(antenna=dict(g_max_dbi=None)), "antenna.g_max_dbi"),
    (dict(antenna=dict(hpbw_v_deg=0)), "antenna.hpbw_v_deg"),
    # the loss pairs and the oxygen table take numbers only
    (dict(propagation=dict(glass_loss_db=["2", 0.2])), "propagation.glass_loss_db"),
    (dict(propagation=dict(glass_loss_db=[True, 0.2])), "propagation.glass_loss_db"),
    (dict(propagation=dict(oxygen_delta_db_per_km={60: "15"})),
     "propagation.oxygen_delta_db_per_km"),
    # each of these used to end in a raw ValueError or OverflowError
    *(REPROS[name] for name in ("floor_count_beyond_int64", "noise_power_overflow",
                                "concrete_loss_overflow")),
    # a carrier outside the path-loss models' 0.5-100 GHz used to warn and run, and
    # far outside it to fail in the drop, reported as overflowing linear powers
    *(REPROS[name] for name in ("carrier_1e-300", "carrier_1e+300")),
    (dict(f_c_ghz=300.0), "f_c_ghz must lie in [0.5, 100], got 300.0"),
    (dict(f_c_ghz=0.4999, bandwidth_hz=1e9, tx_power_dbm=30.0), "f_c_ghz must lie in [0.5, 100]"),
], ids=["tx_nan", "tx_inf", "bw_negative", "bw_nan", "bs_height_negative",
        "ms_height_negative", "min_distance_infeasible", "d3d_below_1m",
        "n_drops_str", "n_drops_float", "ms_per_sector_float", "f_c_str", "ms_gain_str",
        "noise_figure_1e308", "glass_loss_scalar", "oxygen_list", "malformed_yaml",
        "duplicate_key", "floor_count_float", "seed_bool", "tx_int_beyond_float", "tx_1e20",
        "min_distance_near_infeasible", "received_power_overflow", "hpbw_inf",
        "loss_pair_nan", "oxygen_inf", "sigma_nan", "isd_1e300", "carrier_off_table",
        "carrier_in_oxygen_complex",
        "abg_beta_1e300", "sigma_str", "sigma_negative", "g_max_null", "hpbw_zero",
        "loss_pair_str", "loss_pair_bool", "oxygen_str", "floor_count_beyond_int64",
        "noise_power_overflow", "concrete_loss_overflow", "carrier_1e-300", "carrier_1e+300",
        "carrier_above_range", "carrier_below_range"])
def test_invalid_value_exits_2_without_output(tmp_path, capsys, override, field):
    if isinstance(override, str):
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text(override)
    else:
        cfg = write_config(tmp_path, **override)
    out = tmp_path / "out"
    t0 = time.perf_counter()
    assert main(["run", "-c", str(cfg), "-o", str(out)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("table", [{59.0: 14.0}, {}], ids=["own_key", "oxygen_off"])
def test_carrier_in_the_oxygen_complex_runs_with_its_own_key_or_oxygen_off(tmp_path, table):
    cfg = write_config(tmp_path, f_c_ghz=59.0, bandwidth_hz=1e9, tx_power_dbm=60.0, n_drops=1,
                       propagation=dict(oxygen_delta_db_per_km=table))
    out = tmp_path / "out"
    assert main(["run", "-c", str(cfg), "-o", str(out), "--links"]) == 0
    d_3d, l_oa = np.loadtxt(out / "links.csv", delimiter=",", skiprows=1, usecols=(3, 7)).T
    assert np.allclose(l_oa, 14.0 * d_3d / 1000.0 if table else 0.0, rtol=1e-9, atol=0.0)


def test_sweep_reports_a_carrier_in_the_oxygen_complex_per_entry(tmp_path, capsys):
    cfg = write_config(tmp_path, n_drops=1, bandwidth_hz=1e9, tx_power_dbm=60.0)
    out = tmp_path / "sweep"
    assert main(["sweep", "-c", str(cfg), "-o", str(out), "--frequencies", "59,60"]) == 3
    assert "sweep f59ghz_scaled: FAILED: ConfigError: f_c_ghz=59.0 lies in the 50-70 GHz" \
        in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["f60ghz_scaled"]


@pytest.mark.parametrize("n_drops, ms_per_sector", [(20, 10**13), (10**20, 1), (1, 10**400)],
                         ids=["stations_81_pib", "beyond_numpy_dimension", "beyond_float"])
def test_unallocatable_station_count_exits_2_without_output(tmp_path, capsys, n_drops,
                                                            ms_per_sector):
    # each used to end in a raw MemoryError, ValueError or OverflowError
    cfg = write_config(tmp_path, n_drops=n_drops, ms_per_sector=ms_per_sector)
    out = tmp_path / "out"
    assert main(["run", "-c", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: n_drops={n_drops}, ms_per_sector={ms_per_sector}: ")
    assert err.endswith(" stations are too many to allocate\n")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_negative_seed_override_exits_2_without_output(tmp_path, capsys, command):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main([command, "-c", str(cfg), "-o", str(out), "--seed", "-1"]) == 2
    assert "seed must lie in [0, inf), got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_overflow_is_reported_once_without_numpy_warnings(tmp_path, capsys, workers):
    # the finite-CL or finite-GM check is the one report, at any worker count
    for name, (override, report) in [
            ("received_power_overflow",
             (OVERFLOW, "non-finite geometry metric (drop 0, ms 0): the linear powers "
                        "overflow; lower tx_power_dbm or the antenna gains")),
            *((name, REPROS[name]) for name in ("received_power_underflow",
                                                "o2i_shadow_overflow"))]:
        (tmp_path / name).mkdir()
        cfg = write_config(tmp_path / name, **override)
        out = tmp_path / name / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "-c", str(cfg), "-o", str(out), "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {report}") and err.count("\n") == 1, name
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("name", list(REPROS))
def test_repro_reaches_stderr_as_one_error_line(tmp_path, name, workers):
    # only a child process shows all that reaches stderr, numpy's warnings
    # included; -W error would turn any warning outside a drop into the report
    override, report = REPROS[name]
    cfg = write_config(tmp_path, **override)
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, "-W", "error", "-m", "mmwsim.cli", "run", "-c",
                           str(cfg), "-o", str(out), "--workers", workers],
                          env=_child_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith(f"error: {report}") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr and done.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_drop_that_cannot_allocate_exits_2_without_output(tmp_path, capsys, monkeypatch,
                                                          workers):
    # a run whose rows fit but whose drop does not used to end in a raw traceback
    message = "Unable to allocate 165. MiB for an array with shape (1140000, 19)"

    def draw_shadows(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(mmwsim.propagation, "draw_shadows", draw_shadows)
    cfg = write_config(tmp_path, n_drops=2)
    out = tmp_path / "out"
    assert main(["run", "-c", str(cfg), "-o", str(out), "--workers", workers]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    # a sweep records it per run, as any other failure
    assert main(["sweep", "-c", str(cfg), "-o", str(out), "--frequencies", "2",
                 "--workers", workers]) == 3
    assert f"sweep f2ghz_scaled: FAILED: MemoryError: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_any_failure_exits_2_without_output(tmp_path, capsys, monkeypatch, workers):
    # not only the exception types the CLI once listed: any failure is one error line
    def coupling_loss(*args, **kwargs):
        raise ValueError("a stage failed")

    monkeypatch.setattr(mmwsim.linkbudget, "coupling_loss", coupling_loss)
    cfg = write_config(tmp_path, n_drops=2)
    out = tmp_path / "out"
    assert main(["run", "-c", str(cfg), "-o", str(out), "--workers", workers]) == 2
    assert capsys.readouterr() == ("", "error: a stage failed\n")
    assert not out.exists()


def _child_env():
    """This process's environment, with the tested package first on PYTHONPATH."""
    src = str(Path(mmwsim.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_runs_as_a_script():
    done = subprocess.run([sys.executable, "-m", "mmwsim.cli", "--help"], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: mmwsim ")


def test_summary_echoes_the_config_as_read(tmp_path):
    # each value is stored, and so echoed, at its field's type: a float field
    # written as an integer echoes as a float, as do loss pairs and oxygen tables
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text("f_c_ghz: 30.0\nn_drops: 1\ndeployment:\n  isd_m: 200\n"
                   "propagation:\n  glass_loss_db: [2, 0]\n"
                   "  oxygen_delta_db_per_km: {60: 15}\n")
    out = tmp_path / "out"
    assert main(["run", "-c", str(cfg), "-o", str(out)]) == 0
    echo = json.loads((out / "summary.json").read_text())["config"]
    assert json.dumps(echo["deployment"]["isd_m"]) == "200.0"
    assert json.dumps(echo["propagation"]["glass_loss_db"]) == "[2.0, 0.0]"
    assert json.dumps(echo["propagation"]["oxygen_delta_db_per_km"]) == '{"60.0": 15.0}'


@pytest.mark.parametrize("workers", ["1", "2"])
def test_run_and_sweep_write_equal_bytes_for_integer_written_floats(tmp_path, workers):
    # each sweep directory holds the bytes that `run` writes for its config,
    # however the file spells the numbers: `run` echoed 60 and 200 as written
    # where the sweep, whose carriers are floats, echoed 60.0
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text("f_c_ghz: 60\nn_drops: 2\nms_per_sector: 2\ndeployment: {isd_m: 200}\n"
                   "propagation: {glass_loss_db: [2, 0]}\n")
    run, sweep = tmp_path / "run", tmp_path / "sweep"
    assert main(["run", "-c", str(cfg), "-o", str(run), "--workers", workers]) == 0
    assert main(["sweep", "-c", str(cfg), "-o", str(sweep), "--frequencies", "60",
                 "--workers", workers]) == 0
    for name in ("summary.json", "cl_cdf.csv", "gm_cdf.csv"):
        assert (run / name).read_bytes() == (sweep / "f60ghz_scaled" / name).read_bytes(), name


@pytest.mark.parametrize("workers", ["0", "-3", "two"])
def test_workers_below_1_exit_2(tmp_path, capsys, workers):
    # argparse refuses a non-integer; the run refuses an integer below 1, by
    # the rule of run_scenario and run_sweep
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    try:
        code = main(["run", "-c", str(cfg), "-o", str(out), "--workers", workers])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "workers" in err
    if workers != "two":
        assert err == f"error: workers must be a positive integer, got {workers}\n"
    assert not out.exists()


@pytest.mark.parametrize("text", [b"\xff\xfe\x00\x81garbage: 1\n", b"f_c_ghz: 30.0\n\x81: 1\n"],
                         ids=["utf16_bom", "bad_utf8_byte"])
def test_config_that_is_not_utf8_exits_2_without_output(tmp_path, capsys, text):
    # used to end in a raw UnicodeDecodeError
    cfg = tmp_path / "scenario.yaml"
    cfg.write_bytes(text)
    out = tmp_path / "out"
    assert main(["run", "-c", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "is not valid YAML" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_missing_config_exits_nonzero(tmp_path, capsys):
    assert main(["run", "-c", str(tmp_path / "nope.yaml"),
                 "-o", str(tmp_path / "o")]) == 2
    assert "error" in capsys.readouterr().err


def test_sweep_command(tmp_path, capsys):
    cfg = write_config(tmp_path, n_drops=1)
    out = tmp_path / "sweep"
    assert main(["sweep", "-c", str(cfg), "-o", str(out),
                 "--frequencies", "2,60", "--schemes", "scaled,constant"]) == 0
    for tag in ("f2ghz_scaled", "f2ghz_constant", "f60ghz_scaled",
                "f60ghz_constant"):
        assert (out / tag / "summary.json").exists()
    assert capsys.readouterr().out.count("sweep f") == 4


def test_sweep_run_writes_what_run_writes(tmp_path):
    # a sweep's run is its base config at the carrier and scheme, at the
    # config seed: here the base config differs from the run's in just those two
    sweep_dir, run_dir = tmp_path / "sweep", tmp_path / "run"
    sweep_dir.mkdir()
    run_dir.mkdir()
    base = write_config(sweep_dir, f_c_ghz=30.0, power_scheme="constant", ms_per_sector=2)
    single = write_config(run_dir, f_c_ghz=60.0, power_scheme="scaled", ms_per_sector=2)
    assert main(["sweep", "-c", str(base), "-o", str(sweep_dir / "out"), "--seed", "42",
                 "--frequencies", "60", "--schemes", "scaled"]) == 0
    assert main(["run", "-c", str(single), "-o", str(run_dir / "out"), "--seed", "42"]) == 0
    names = ["cl_cdf.csv", "gm_cdf.csv", "summary.json"]
    assert sorted(p.name for p in (run_dir / "out").iterdir()) == names
    for name in names:
        swept = (sweep_dir / "out" / "f60ghz_scaled" / name).read_bytes()
        assert swept == (run_dir / "out" / name).read_bytes(), name


def test_sweep_reports_failures(tmp_path, capsys):
    cfg = write_config(tmp_path, n_drops=1)
    out = tmp_path / "sweep"
    code = main(["sweep", "-c", str(cfg), "-o", str(out),
                 "--frequencies", "2,7"])
    assert code == 3
    captured = capsys.readouterr()
    assert "FAILED" in captured.err
    assert (out / "f2ghz_scaled" / "summary.json").exists()


@pytest.mark.parametrize("frequencies, schemes, tag", [
    ("2,2", "scaled", "f2ghz_scaled"),
    # two different carriers that print alike at %g
    ("28.00001,28", "scaled,constant", "f28ghz_constant"),
    ("30", "constant,constant", "f30ghz_constant"),
])
def test_sweep_refuses_runs_that_share_a_directory(tmp_path, capsys, frequencies,
                                                   schemes, tag):
    cfg = write_config(tmp_path, n_drops=1, bandwidth_hz=1e9, tx_power_dbm=30.0)
    out = tmp_path / "sweep"
    code = main(["sweep", "-c", str(cfg), "-o", str(out), "--frequencies", frequencies,
                 "--schemes", schemes])
    assert code == 2
    assert tag in capsys.readouterr().err
    assert not out.exists()


OUT_OF_RANGE = ("-4", "2,0", "2,150", "0.4999", "100.0001")


@pytest.mark.parametrize("frequencies", ["nan", "inf", *OUT_OF_RANGE])
def test_sweep_refuses_carriers_that_are_not_positive_and_finite(tmp_path, capsys, monkeypatch,
                                                                 frequencies):
    # a carrier outside the path-loss models' range is refused before any run
    runs = []
    monkeypatch.setattr(mmwsim.engine, "_run_all", lambda *args: runs.append(args))
    cfg = write_config(tmp_path, n_drops=1)
    out = tmp_path / "sweep"
    assert main(["sweep", "-c", str(cfg), "-o", str(out),
                 "--frequencies", frequencies]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: frequencies [") and err.count("\n") == 1
    assert ("f_c_ghz must lie in [0.5, 100], got " if frequencies in OUT_OF_RANGE
            else "f_c_ghz must be a finite number, got ") in err
    assert runs == [] and not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("dangling, below", [(False, False), (False, True), (True, False),
                                             (True, True)],
                         ids=["file", "below_a_file", "dangling_link", "below_a_dangling_link"])
def test_output_path_that_cannot_be_a_directory_exits_2_before_the_run(
        tmp_path, capsys, monkeypatch, command, dangling, below):
    # refused before the run is simulated, not when its first save fails;
    # a dangling symlink is an entry that is no directory
    calls = []
    monkeypatch.setattr(cli, "run_scenario", lambda *args, **kw: calls.append(args))
    monkeypatch.setattr(cli, "run_sweep", lambda *args, **kw: calls.append(args))
    cfg = write_config(tmp_path, n_drops=1)
    blocker, missing = tmp_path / "blocker", tmp_path / "missing"
    if dangling:
        blocker.symlink_to(missing)
    else:
        blocker.write_text("kept\n")
    out = blocker / "out" if below else blocker
    assert main([command, "-c", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: output directory {out}")
    assert err.endswith(f": {blocker} is not a directory\n") and err.count("\n") == 1
    assert calls == []
    if dangling:
        assert blocker.readlink() == missing and not os.path.exists(missing)
    else:
        assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_output_into_a_symlinked_directory_is_written(tmp_path, command):
    cfg = write_config(tmp_path, n_drops=1, ms_per_sector=1)
    real, link = tmp_path / "real", tmp_path / "link"
    real.mkdir()
    link.symlink_to(real)
    args = [command, "-c", str(cfg), "-o", str(link)]
    assert main(args + (["--frequencies", "30"] if command == "sweep" else [])) == 0
    summary = real / ("" if command == "run" else "f30ghz_scaled") / "summary.json"
    assert json.loads(summary.read_text())["config"]["f_c_ghz"] == 30.0


def test_sweep_refuses_an_unknown_scheme_before_any_run(tmp_path, capsys, monkeypatch):
    # a scheme's rule reads only the scheme, as the carrier's range reads only the carrier
    runs = []
    monkeypatch.setattr(mmwsim.engine, "_run_all", lambda *args: runs.append(args))
    cfg = write_config(tmp_path, n_drops=1)
    out = tmp_path / "sweep"
    assert main(["sweep", "-c", str(cfg), "-o", str(out), "--frequencies", "2,60",
                 "--schemes", "scaled,bogus"]) == 2
    assert capsys.readouterr().err == ("error: schemes ['scaled', 'bogus']: power_scheme "
                                       "must be 'scaled' or 'constant', got 'bogus'\n")
    assert runs == [] and not out.exists()


def test_sweep_worker_counts_write_identical_directories(tmp_path):
    # 7 GHz has no overrides: its runs fail and the others are still written
    cfg = write_config(tmp_path, n_drops=3, ms_per_sector=1)
    trees = []
    for workers in (1, 2, 4):
        out = tmp_path / f"w{workers}"
        assert main(["sweep", "-c", str(cfg), "-o", str(out), "--frequencies", "2,7,60",
                     "--schemes", "scaled,constant", "--workers", str(workers)]) == 3
        trees.append({p.relative_to(out): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert len(trees[0]) == 12
    assert trees[0] == trees[1] == trees[2]


@pytest.mark.parametrize("block", ["deployment", "propagation", "antenna"])
def test_empty_config_block_reads_as_its_defaults(tmp_path, block):
    # a block whose children are all commented out loads as null, and
    # reads as the block's defaults instead of ending in a raw TypeError
    summaries = []
    for name, body in (("absent", ""), ("null", f"{block}:\n  # isd_m: 200.0\n"),
                       ("empty", f"{block}: {{}}\n")):
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text("f_c_ghz: 30.0\nn_drops: 1\n" + body)
        out = tmp_path / name
        assert main(["run", "-c", str(cfg), "-o", str(out)]) == 0, name
        summaries.append((out / "summary.json").read_bytes())
    assert summaries[0] == summaries[1] == summaries[2]


def test_null_config_file_reads_as_the_defaults(tmp_path):
    # an empty or fully commented-out file loads as null and reads as {},
    # as a null block does; it used to exit 2 ("got NoneType")
    summaries = []
    for name, text in (("mapping", "{}\n"), ("empty", ""),
                       ("commented_out", "# f_c_ghz: 30.0\n# n_drops: 1\n")):
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(text)
        out = tmp_path / name
        assert main(["run", "-c", str(cfg), "-o", str(out)]) == 0, name
        summaries.append((out / "summary.json").read_bytes())
    assert summaries[0] == summaries[1] == summaries[2]
    assert json.loads(summaries[0])["config"]["n_drops"] == 20


@pytest.mark.parametrize("text, kind", [("[1, 2]\n", "list"), ("30.0\n", "float"),
                                        ("run\n", "str")], ids=["list", "number", "string"])
def test_config_that_is_not_a_mapping_exits_2_without_output(tmp_path, capsys, text, kind):
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["run", "-c", str(cfg), "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: config must be a mapping, got {kind}\n"
    assert not out.exists()


def test_sweep_refuses_an_empty_scheme_list(tmp_path, capsys):
    # "," parses to no scheme; it used to run the config's scheme and exit 0
    cfg = write_config(tmp_path, n_drops=1)
    out = tmp_path / "sweep"
    assert main(["sweep", "-c", str(cfg), "-o", str(out), "--frequencies", "2",
                 "--schemes", ","]) == 2
    assert "must be non-empty" in capsys.readouterr().err
    assert not out.exists()
