import json

import pytest
import yaml

from mmwsim.cli import main


def write_config(tmp_path, **kw):
    cfg = dict(f_c_ghz=30.0, power_scheme="scaled", environment="outdoor",
               n_drops=2, seed=5)
    cfg.update(kw)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def test_run_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "-c", str(cfg), "-o", str(out)]) == 0
    for name in ("cl_cdf.csv", "gm_cdf.csv", "summary.json"):
        assert (out / name).exists()
    assert not (out / "links.csv").exists()
    assert "median CL" in capsys.readouterr().out


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
], ids=["tx_nan", "tx_inf", "bw_negative", "bw_nan", "bs_height_negative",
        "ms_height_negative", "min_distance_infeasible"])
def test_invalid_value_exits_2_without_output(tmp_path, capsys, override, field):
    cfg = write_config(tmp_path, **override)
    out = tmp_path / "out"
    assert main(["run", "-c", str(cfg), "-o", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not (out / "summary.json").exists()


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


def test_sweep_reports_failures(tmp_path, capsys):
    cfg = write_config(tmp_path, n_drops=1)
    out = tmp_path / "sweep"
    code = main(["sweep", "-c", str(cfg), "-o", str(out),
                 "--frequencies", "2,7"])
    assert code == 3
    captured = capsys.readouterr()
    assert "FAILED" in captured.err
    assert (out / "f2ghz_scaled" / "summary.json").exists()
