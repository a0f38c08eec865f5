import dataclasses
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import branchwiener
from branchwiener import cli
from branchwiener import expansion as xp
from branchwiener import inference as inf
from branchwiener import kernel_expansion as kx
from branchwiener import martingales as mg
from branchwiener import regions as rg
from branchwiener import simulator as sim
from branchwiener.errors import PopulationCapError
from branchwiener.martingales import NTable

import oracles


@pytest.fixture()
def doubling_config(tmp_path):
    cfg = {
        "d": 1,
        "pmf": [0.0, 0.0, 1.0],
        "seed": 424242,
        "t_max": 6,
        "snapshot_times": [0, 3, 6],
        "test_mode": True,
    }
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return str(p)


def write_regions(path, regions):
    objs = [oracles.region_to_dict(r) for r in regions]
    payload = objs[0] if len(objs) == 1 else objs
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------- simulate


def test_simulate_writes_file_and_sidecar(doubling_config, tmp_path, capsys):
    out = tmp_path / "snaps.jsonl"
    rc = cli.main(["simulate", "--config", doubling_config, "--out", str(out)])
    assert rc == 0
    assert "final t=6 n=64" in capsys.readouterr().out
    header, snaps = sim.read_snapshot_file(str(out))
    assert header["sampler"] == sim.SAMPLER_NAME
    assert [s.t for s in snaps] == [0, 3, 6]
    manifest = json.loads((tmp_path / "snaps.jsonl.manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["outputs"] == [str(out)]
    assert manifest["tool"] == "branchwiener"
    assert "aborted" not in manifest


def test_simulate_reruns_are_byte_identical(doubling_config, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    c = tmp_path / "c.jsonl"
    assert cli.main(["simulate", "--config", doubling_config, "--out", str(a)]) == 0
    assert cli.main(["simulate", "--config", doubling_config, "--out", str(b)]) == 0
    assert cli.main(["simulate", "--config", doubling_config, "--out", str(c),
                     "--workers", "4"]) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_simulate_seed_override(doubling_config, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    cli.main(["simulate", "--config", doubling_config, "--out", str(a),
              "--seed", "7"])
    cli.main(["simulate", "--config", doubling_config, "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()
    assert json.loads(a.read_bytes().split(b"\n", 1)[0])["seed"] == 7


def test_simulate_bad_config_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"d": 1, "pmf": [0.5, 0.5], "seed": 1, "t_max": 2}')
    rc = cli.main(["simulate", "--config", str(p), "--out",
                   str(tmp_path / "x.jsonl")])
    assert rc == cli.EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field, message", [
    ({"t_max": 2.5}, "t_max must be an integer"),
    ({"pmf": [0, "x"]}, "pmf must be a sequence of reals"),
    ({"pmf": "1", "test_mode": True}, "pmf must be a sequence of reals"),
    ({"snapshot_times": ["a"]}, "snapshot time must be an integer"),
    ({"snapshot_times": [1.7]}, "snapshot time must be an integer"),
    ({"initial_position": ["a"]}, "initial_position must be a sequence of reals"),
    ({"population_cap": 100.5}, "population_cap must be an integer"),
    ({"test_mode": "false"}, "test_mode must be a boolean"),
    ({"pmf": [0, "0.5", 0.5]}, "pmf must be a sequence of reals"),
    ({"pmf": [0, True, 0], "test_mode": True}, "pmf must be a sequence of reals"),
    ({"initial_position": [10**400]}, "entry 0 does not fit a float"),
], ids=["t_max-float", "pmf-string-entry", "pmf-string", "time-string", "time-float",
        "position-string", "cap-float", "test_mode-string", "pmf-numeric-string",
        "pmf-bool", "position-huge-int"])
def test_simulate_bad_config_field_types_exit_2(field, message, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"d": 1, "pmf": [0.0, 0.5, 0.5], "seed": 1, "t_max": 3,
                             **field}))
    rc = cli.main(["simulate", "--config", str(p), "--out", str(tmp_path / "x.snap")])
    assert rc == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("d", [0, -1, 2**64, 10**12])
def test_commands_refuse_a_dimension_out_of_range(d, tmp_path, capsys):
    # Beyond MAX_DIM a d is refused by name before anything the size of d
    # is made: 2^64 fits no index and 10^12 coordinates no memory.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"d": d, "pmf": [0.0, 0.5, 0.5], "seed": 1, "t_max": 2}))
    for argv in (["simulate", "--config", str(config), "--out", str(tmp_path / "run.snap")],
                 ["diagnose", "--config", str(config), "--out", str(tmp_path / "diag"),
                  "--runs", "2", "--replicas", "10"],
                 ["kernel-check", f"--d={d}"]):
        assert cli.main(argv) == cli.EXIT_VALIDATION, argv
        assert capsys.readouterr() == ("", f"error: dimension d {d} outside [1, "
                                           f"{rg.MAX_DIM + 1})\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_simulate_takes_the_largest_dimension(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"d": rg.MAX_DIM, "pmf": [0.0, 0.5, 0.5], "seed": 1,
                                  "t_max": 2}))
    out = tmp_path / "run.snap"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    _, (snap,) = sim.read_snapshot_file(str(out))
    assert snap.positions.shape[1] == rg.MAX_DIM


def test_simulate_population_cap_exits_4(tmp_path, capsys):
    cfg = {"d": 1, "pmf": [0.0, 0.0, 1.0], "seed": 1, "t_max": 9,
           "population_cap": 3, "snapshot_times": [0, 1],
           "test_mode": True}
    p = tmp_path / "cap.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "cap.jsonl"
    rc = cli.main(["simulate", "--config", str(p), "--out", str(out)])
    assert rc == cli.EXIT_CAP
    assert "partial result" in capsys.readouterr().err
    # the already-streamed snapshots stay readable, with their sidecar
    _, snaps = sim.read_snapshot_file(str(out))
    assert [s.t for s in snaps] == [0, 1]
    manifest = json.loads((tmp_path / "cap.jsonl.manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["outputs"] == [str(out)]
    # the sidecar says where the cap hit: 2**2 > 3 at generation 2
    assert manifest["aborted"] == {"t": 2, "population": 4, "cap": 3}


def test_simulate_population_cap_in_parts(tmp_path, capsys, monkeypatch):
    # In parts of 3 parents the abort comes mid-walk, with parts of several
    # generations written: the file keeps exactly the generations that have
    # an end record, and the sidecar's population can be a lower bound.
    monkeypatch.setattr(sim, "_RUN_CHUNK", 3)
    cfg = {"d": 1, "pmf": [0.0, 0.0, 1.0], "seed": 5, "t_max": 9,
           "population_cap": 63, "snapshot_times": list(range(10)), "test_mode": True}
    p = tmp_path / "cap.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "cap.snap"
    assert cli.main(["simulate", "--config", str(p), "--out", str(out)]) == cli.EXIT_CAP
    assert "partial result" in capsys.readouterr().err
    records = [r for _, r in oracles.snapshot_records(out.read_bytes())][1:]
    ended = [r["t"] for r in records if r["type"] == "end"]
    assert {r["t"] for r in records} - set(ended)  # parts with no end record
    snaps = sim.replay_ids(*sim.read_snapshot_file(str(out)))
    # t=3 waits on the rest of t=2 while the walk goes deeper
    assert [s.t for s in snaps] == ended == [0, 1, 2]
    whole = oracles.whole_generation_run(sim.SimConfig(**{**cfg, "population_cap": 10**8}))
    for s in snaps:
        assert s.positions.tobytes() == whole[s.t].positions.tobytes()
        assert s.id_lo.tobytes() == whole[s.t].id_lo.tobytes()
    aborted = json.loads((tmp_path / "cap.snap.manifest.json").read_text())["aborted"]
    assert aborted["cap"] == 63 and aborted["t"] >= 6
    assert 63 < aborted["population"] <= 2 ** aborted["t"]


def test_simulate_zero_workers_exits_2(doubling_config, tmp_path, capsys):
    rc = cli.main(["simulate", "--config", doubling_config, "--out",
                   str(tmp_path / "x.snap"), "--workers", "0"])
    assert rc == cli.EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


def test_simulate_unwritable_out_exits_5(doubling_config, tmp_path):
    rc = cli.main(["simulate", "--config", doubling_config, "--out",
                   str(tmp_path / "no" / "such" / "dir.jsonl")])
    assert rc == cli.EXIT_IO


# -------------------------------------------------------------------- count


def test_count_formats(doubling_config, tmp_path, capsys):
    out = tmp_path / "snaps.jsonl"
    cli.main(["simulate", "--config", doubling_config, "--out", str(out)])
    capsys.readouterr()  # drop the simulate summary line
    region = '{"type": "box", "lower": [-1.0], "upper": [1.0]}'
    rc = cli.main(["count", str(out), "--region", region, "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["t"] == 6
    assert 0 <= payload["count"] <= 64
    # earlier snapshot, csv to file, sidecar written
    csv_path = tmp_path / "count.csv"
    rc = cli.main(["count", str(out), "--region", region, "--t", "3",
                   "--format", "csv", "--out", str(csv_path)])
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "t,count"
    assert data[1].startswith("3,")
    assert (tmp_path / "count.csv.manifest.json").exists()
    # missing time: the refusal names the times the file holds
    assert cli.main(["count", str(out), "--region", region, "--t", "5"]) == 2
    assert capsys.readouterr().err == "error: no snapshot at t=5; file holds t in [0, 3, 6]\n"


@pytest.mark.parametrize("command, argv", [
    ("count", ["--region", '{"type": "box", "lower": [-1.0], "upper": [1.0]}']),
    ("count", ["--region", '{"type": "box", "lower": [-1.0], "upper": [1.0]}', "--t", "5"]),
    ("estimate-n", ["--k", "1", "--out", "t.json"]),
], ids=["count", "count-t", "estimate-n"])
def test_commands_refuse_a_file_capped_before_its_first_snapshot(command, argv, tmp_path,
                                                                 capsys, monkeypatch):
    # 2^4 > 10 at t=4, before the first snapshot time: the file is its header.
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps({
        "d": 1, "pmf": [0.0, 0.0, 1.0], "seed": 3, "t_max": 6, "population_cap": 10,
        "snapshot_times": [5, 6], "test_mode": True}))
    assert cli.main(["simulate", "--config", "cfg.json", "--out", "run.snap"]) == cli.EXIT_CAP
    capsys.readouterr()
    assert cli.main([command, "run.snap", *argv]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == "error: run.snap holds no snapshots\n"
    assert not Path("t.json").exists()


def test_a_damaged_snapshot_the_command_skips_still_exits_2(tmp_path, capsys):
    # One particle, or a few, at t=21..23; a data byte of t=21 is damaged,
    # though `count --t 23` and `estimate-n` use t=23 only.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 1, "pmf": [0.0, 0.99, 0.01], "seed": 5, "t_max": 23,
                               "snapshot_times": [21, 22, 23]}))
    out = tmp_path / "run.snap"
    cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
    good = out.read_bytes()
    at, recs = zip(*oracles.snapshot_records(good))
    assert (recs[1]["type"], recs[1]["t"], recs[2]["type"]) == ("part", 21, "end")
    region = '{"type": "box", "lower": [-100.0], "upper": [100.0]}'
    argvs = [["count", str(out), "--region", region, "--t", "23"],
             ["estimate-n", str(out), "--k", "1", "--out", str(tmp_path / "t.json")]]
    for argv in argvs:
        assert cli.main(argv) == cli.EXIT_OK
    damaged = bytearray(good)
    damaged[at[2] - 1] ^= 0x01  # the last data byte of t=21's one part
    out.write_bytes(bytes(damaged))
    capsys.readouterr()
    for argv in argvs:
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert "record 1: crc32 mismatch" in capsys.readouterr().err


def test_count_region_errors(doubling_config, tmp_path, capsys):
    out = tmp_path / "snaps.jsonl"
    cli.main(["simulate", "--config", doubling_config, "--out", str(out)])
    assert cli.main(["count", str(out), "--region", '{"type": "cone"}']) == 2
    two = json.dumps([
        {"type": "box", "lower": [0.0], "upper": [1.0]},
        {"type": "box", "lower": [2.0], "upper": [3.0]},
    ])
    assert cli.main(["count", str(out), "--region", two]) == 2


def test_count_damaged_file_exits_2(doubling_config, tmp_path, capsys):
    out = tmp_path / "snaps.snap"
    cli.main(["simulate", "--config", doubling_config, "--out", str(out)])
    good = out.read_bytes()
    flipped = bytearray(good)
    flipped[-3] ^= 0x40
    region = '{"type": "box", "lower": [-1.0], "upper": [1.0]}'
    nested = good.split(b"\n", 1)[0] + b"\n" + b"[" * 100_000 + b"\n"
    for content in (good[:-7], bytes(flipped), nested):
        out.write_bytes(content)
        capsys.readouterr()
        assert cli.main(["count", str(out), "--region", region]) == cli.EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------- unreadable input

NOT_UTF8 = b"\xff\xfe{"
NESTED = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize("bad, content", [
    ("config", NOT_UTF8),
    ("config", NESTED),
    ("region", NOT_UTF8),
    ("region", NESTED),
    ("table", NOT_UTF8),
    ("table", NESTED),
    ("counts", b"region_id,count\n0,\xff\n"),
    ("counts", b"region_id,count\n0," + b"1" * 140_000 + b"\n"),
], ids=["config-not-utf8", "config-nested", "region-not-utf8", "region-nested",
        "table-not-utf8", "table-nested", "counts-not-utf8", "counts-field-too-long"])
def test_unreadable_input_exits_2(bad, content, doubling_config, tmp_path, capsys):
    # Each file is readable but for the one replaced by ``content``: bytes
    # that are not UTF-8, JSON nested beyond the parser's recursion limit,
    # or a CSV field beyond csv's 131072-character limit.
    files = {"config": doubling_config,
             "region": write_regions(tmp_path / "region.json", [rg.Box((0.0,), (1.0,))]),
             "sets": write_regions(tmp_path / "sets.json", inf.default_sets(0, 1, 2.0)),
             "table": str(tmp_path / "table.json"),
             "counts": str(tmp_path / "counts.csv")}
    NTable(d=1, m=1.5, entries={(0,): 1.0}, k=0).save(files["table"])
    Path(files["counts"]).write_text("region_id,count\n0,5.0\n")
    Path(files[bad]).write_bytes(content)
    out = str(tmp_path / "out")
    argv = {
        "config": ["simulate", "--config", files["config"], "--out", out],
        "region": ["predict", "--table", files["table"], "--region", files["region"],
                   "--T", "30"],
        "counts": ["infer", "--counts", files["counts"], "--sets", files["sets"],
                   "--T0", "25", "--k", "0", "--m", "1.5", "--out", out],
    }
    argv["table"] = argv["region"]
    assert cli.main(argv[bad]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.glob("out*"))


# ------------------------------------------------------------- kernel-check


def test_kernel_check_csv(tmp_path):
    out = tmp_path / "scan.csv"
    rc = cli.main(["kernel-check", "--d", "1", "--t", "1.0", "--k", "1",
                   "--T", "64,128,256", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == f"# branchwiener {branchwiener.__version__} kernel-check"
    data = [ln for ln in lines if not ln.startswith("#")]
    assert lines[len(lines) - len(data)] == data[0] == "k,T,error,fitted_slope"
    # one row per (k, T); repr floats parse back to the scan's values exactly
    scan = kx.truncation_error_scan(1, 1.0, [0.7], 1, [64.0, 128.0, 256.0])
    assert [tuple(ln.split(",")) for ln in data[1:]] == [
        (str(r.k), f"{r.T:g}", repr(r.error), repr(scan.slopes[r.k]))
        for r in scan.rows
    ]
    assert [float(ln.split(",")[2]) for ln in data[1:]] == [r.error for r in scan.rows]
    manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
    assert manifest["outputs"] == [str(out)]
    assert cli.main(["kernel-check", "--T", "  "]) == 2
    assert cli.main(["kernel-check", "--T", "64,banana"]) == 2
    # horizons that are not comfortably beyond t are refused outright
    assert cli.main(["kernel-check", "--t", "40.0", "--T", "64"]) == 2


@pytest.mark.parametrize("raw", [[], ["--raw"]], ids=["scaled", "raw"])
def test_kernel_check_overflowing_scale_exits_2(raw, capsys):
    # (2 pi 64)^125 is beyond float range, so the scale overflows and the
    # raw kernel underflows to 0.
    argv = ["kernel-check", "--d", "250", "--k", "0", "--T", "64,128", *raw]
    assert cli.main(argv) == 2
    assert "d=250, T=64.0" in capsys.readouterr().err


def test_kernel_check_prints_no_slope_from_rows_at_the_float_floor(capsys):
    assert cli.main(["kernel-check", "--d", "1", "--t", "1", "--k", "6",
                     "--T", "64,128,256,512", "--raw"]) == 0
    rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()
            if ln[:1].isdigit()]
    slopes = {k: s for k, _, _, s in rows}
    assert slopes["6"] == ""
    assert [float(slopes[k]) for k in "012345"] == pytest.approx(
        [-1.5009, -2.4865, -3.5123, -4.5084, -5.5102, -6.5149], abs=1e-4)


def _d300_files(tmp_path):
    """A unit box and a k=0 table in d=300, and one count for the box."""
    box = rg.Box((0.0,) * 300, (1.0,) * 300)
    NTable(d=300, m=1.5, entries={(0,) * 300: 1.0}, k=0).save(str(tmp_path / "table.json"))
    (tmp_path / "counts.csv").write_text("region_id,count\n0,5\n")
    write_regions(tmp_path / "box.json", [box])


@pytest.mark.parametrize("argv, named", [
    (["infer", "--counts", "{dir}/counts.csv", "--sets", "{dir}/box.json", "--T0", "25",
      "--k", "0", "--m", "1.5", "--out", "{dir}/t.json"], "d=300, T=25.0"),
    (["predict", "--table", "{dir}/table.json", "--region", "{dir}/box.json",
      "--T", "0.001"], "d=300, T=0.001"),
    (["kernel-check", "--d", "700", "--t", "0", "--T", "0.01,0.02", "--k", "0", "--raw"],
     "d=700, T=0.01"),
    (["kernel-check", "--d", "2", "--T", "1e308,1.5e308", "--k", "0"], "d=2, T=1e+308"),
], ids=["infer", "predict", "kernel-check-raw", "kernel-check-split"])
def test_overflowing_gauss_factor_exits_2(argv, named, tmp_path, capsys):
    # (2 pi T)^(d/2) at d=300, T0=25 and (2 pi T)^(-d/2) at d=300,
    # T=0.001 or d=700, T=0.01 are beyond float range; at T=1e308 2 pi T
    # is, and of the split form (2 pi)^1 T^1 only the product overflows.
    _d300_files(tmp_path)
    rc = cli.main([a.format(dir=tmp_path) for a in argv])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "overflows a float" in err and named in err
    assert not (tmp_path / "t.json").exists()


def _main_without_warnings(argv) -> int:
    """cli.main(argv), checking that it raised no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(argv)
    assert [str(w.message) for w in caught] == []
    return rc


def test_predict_in_700_dimensions(tmp_path, capsys):
    # d Gamma(d/2) overflows from d=341 on; a box needs no Gamma and forecasts
    # (the density underflows to 0), a ball is refused by name.
    table = tmp_path / "table.json"
    NTable(d=700, m=1.5, entries={(0,) * 700: 1.0}, k=0).save(str(table))
    box = json.dumps({"type": "box", "lower": [0.0] * 700, "upper": [1.0] * 700})
    assert cli.main(["predict", "--table", str(table), "--region", box, "--T", "30"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0,30,0,1.0,0.0,0.0"
    ball = json.dumps({"type": "ball", "center": [0.0] * 700, "radius": 1.0})
    rc = _main_without_warnings(["predict", "--table", str(table), "--region", ball, "--T", "30"])
    assert rc == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == ("error: region 0: a ball's moment of order 0 in 700 "
                                       "dimensions needs 700 Gamma(350), beyond float64\n")


@pytest.mark.parametrize("command", ["predict", "expand"])
@pytest.mark.parametrize("k, lower", [(2, 1e5), (1, 1e7)], ids=["inf-minus-inf", "minus-inf"])
def test_overflowing_s_k_exits_2(command, k, lower, tmp_path, capsys):
    # Entries of 1e300 times the box's moments overflow S_k's terms: at k=2
    # to +inf and -inf, which fsum refuses, and at k=1 to -inf alone.
    table = tmp_path / "table.json"
    NTable(d=1, m=1.5, entries=dict.fromkeys(xp.required_indices(k, 1), 1e300), k=k).save(
        str(table))
    box = json.dumps({"type": "box", "lower": [lower], "upper": [lower + 1.0]})
    rc = _main_without_warnings([command, "--table", str(table), "--region", box, "--T", "30"])
    assert rc == cli.EXIT_VALIDATION
    out = capsys.readouterr()
    assert out.err == (f"error: region 0: S_{k} at T=30.0 overflows float64 "
                       "(coefficients or moments too large)\n")
    assert out.out == ""


def test_infer_overflowing_right_hand_side_names_the_set(tmp_path, capsys):
    # (2 pi 25)^100 is finite, and so is the table it would give, but times
    # a count of 1e100 it overflows: the set is named, not the table.
    write_regions(tmp_path / "box.json", [rg.Box((0.0,) * 200, (1.0,) * 200)])
    (tmp_path / "counts.csv").write_text("region_id,count\n0,1e100\n")
    rc = _main_without_warnings(
        ["infer", "--counts", str(tmp_path / "counts.csv"), "--sets", str(tmp_path / "box.json"),
         "--T0", "25", "--k", "0", "--m", "1.5", "--out", str(tmp_path / "t.json")])
    assert rc == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: observation set 0: its normalized count (2 pi T0)^(d/2) count / m^T0 "
        "is not a finite float (d=200, T0=25.0)\n")
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["predict", "--region", "{unit}", "--T", "1e-200"],
     "the series factor (-T)^-2 overflows a float at T=1e-200"),
    (["expand", "--region", "{unit}", "--T", "1e-200"],
     "the series factor (-T)^-2 overflows a float at T=1e-200"),
    (["predict", "--region", "{far}", "--T", "1e-150"],
     "region 0: the density (2 pi T)^(-d/2) S_2 at T=1e-150 overflows a float"),
    (["predict", "--region", "{wide}", "--T", "1e-100"],
     "region 0: S_2 at T=1e-100 overflows float64 (coefficients or moments too large)"),
    (["predict", "--region", "{far}", "--T", "1e-150", "--format", "json"],
     "region 0: the density (2 pi T)^(-d/2) S_2 at T=1e-150 overflows a float"),
    (["infer", "--counts", "{dir}/counts.csv", "--sets", "{dir}/sets.json", "--T0", "1e-320",
      "--k", "1", "--m", "2", "--out", "{dir}/t.json"],
     "the series factor (-T)^-1 overflows a float at T=1e-320"),
    (["kernel-check", "--d", "1", "--t", "0", "--k", "2", "--T", "1e-200,2e-200",
      "--offset", "0"], "the series factor (-T)^-2 overflows a float at T=1e-200"),
    (["kernel-check", "--d", "3", "--t", "0", "--k", "0", "--T", "1e-20,1e20,1e300",
      "--offset=1e300,-0.0,-1.0", "--raw"],
     "the Gaussian kernel is 0.0 in floating point at d=3, T=1e-20, so the scan would "
     "measure nothing"),
    (["kernel-check", "--d", "1", "--t", "1e218", "--k", "2", "--T", "1e225,1e242",
      "--offset", "1", "--raw"],
     "the order-2 truncation at T=1e+225, t=1e+218 overflows float64"),
], ids=["predict-series", "expand-series", "density-csv", "weights", "density-json",
        "infer-series",
        "kernel-check-series", "kernel-check-matmul", "kernel-check-hermite"])
def test_forecast_and_scan_overflows_exit_2(argv, message, tmp_path, capsys):
    # At T = 1e-200 (-T)^-2 is beyond float; at T = 1e-150 S_2 on [10, 11)
    # is finite but (2 pi T)^(-1/2) S_2 is not; on [0, 1e60) at T = 1e-100
    # a weight of S_2 overflows before S_2 does; |x|^2 = inf makes the
    # kernel 0.0 without numpy's overflow warning; H_4(x, t) holds t^2, and
    # at t = 1e218 the order-2 scan printed nan errors after a warning.
    table = tmp_path / "table.json"
    NTable(d=1, m=1.5, entries=dict.fromkeys(xp.required_indices(2, 1), 1.0), k=2).save(
        str(table))
    write_regions(tmp_path / "sets.json", [rg.Box((i,), (i + 1.0,)) for i in range(3)])
    (tmp_path / "counts.csv").write_text("region_id,count\n0,1\n1,2\n2,3\n")
    argv = [a.format(dir=tmp_path, unit='{"type": "box", "lower": [0.0], "upper": [1.0]}',
                     far='{"type": "box", "lower": [10.0], "upper": [11.0]}',
                     wide='{"type": "box", "lower": [0.0], "upper": [1e60]}') for a in argv]
    if argv[0] in ("predict", "expand"):
        argv[1:1] = ["--table", str(table)]
    assert _main_without_warnings(argv) == cli.EXIT_VALIDATION
    out = capsys.readouterr()
    assert out.err == f"error: {message}\n" and out.out == ""
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize("sets, counts, T0, k, message", [
    ([(0.0, 1e10), (1e10, 2e10), (2e10, 3e10)], [1, 2, 3], "1e-300", "1",
     "error: observation set 0: its row of S_1 at T0=1e-300 overflows float64"),
    ([(0.0, 1.0), (1.0, 2.0)], [1e300, -1e300], "1", "0",
     "error: the squared residual norm of the fit at T0=1.0 overflows float64 "
     "(counts too large)"),
    ([(0.0, 1e-150)], [1e160], "1", "0",
     "error: N-table value inf for index (0,) is not finite"),
], ids=["row", "residual-norm", "coefficient"])
def test_infer_refuses_a_system_beyond_float64(sets, counts, T0, k, message, tmp_path,
                                               capsys):
    # Without these refusals the row case printed LAPACK's complaints and
    # exited 3, the residual case wrote "residual_norm": Infinity, which is
    # not JSON, and the coefficient case warned before refusing.
    sets_path = write_regions(tmp_path / "sets.json", [rg.Box((a,), (b,)) for a, b in sets])
    (tmp_path / "counts.csv").write_text(
        "region_id,count\n" + "".join(f"{i},{c!r}\n" for i, c in enumerate(counts)))
    rc = _main_without_warnings(["infer", "--counts", str(tmp_path / "counts.csv"), "--sets",
                                 sets_path, "--T0", T0, "--k", k, "--m", "1",
                                 "--out", str(tmp_path / "t.json")])
    assert rc == (cli.EXIT_NUMERIC if message.startswith("numeric") else cli.EXIT_VALIDATION)
    assert capsys.readouterr().err == f"{message}\n"
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize("lower, upper, count", [
    (-1e155, -1.0, -1.0),
    (0.0, 1e-170, 1e100),
], ids=["column-norm", "column-underflow"])
def test_infer_solves_a_system_whose_column_norm_squares_beyond_float64(lower, upper, count,
                                                                        tmp_path):
    # Each column is scaled by its largest |entry|, which takes no square:
    # the squares of a 2-norm would overflow for the wide set and underflow
    # to 0.0 for the narrow one, though both 1x1 systems are exact.
    sets_path = write_regions(tmp_path / "sets.json", [rg.Box((lower,), (upper,))])
    (tmp_path / "counts.csv").write_text(f"region_id,count\n0,{count!r}\n")
    rc = _main_without_warnings(["infer", "--counts", str(tmp_path / "counts.csv"), "--sets",
                                 sets_path, "--T0", "1", "--k", "0", "--m", "1",
                                 "--out", str(tmp_path / "t.json")])
    assert rc == 0
    table = NTable.load(str(tmp_path / "t.json"))
    assert table.entries[(0,)] == pytest.approx(math.sqrt(2 * math.pi) * count / (upper - lower),
                                                rel=1e-15)
    assert table.meta["residual_norm"] == 0.0 and table.meta["condition_number"] == 1.0


@pytest.mark.parametrize("m", ["-1.5", "0", "1e-10", "nan"])
def test_infer_refuses_an_m_whose_m_pow_T0_is_not_positive_and_finite(m, tmp_path, capsys):
    # A non-positive or NaN m, and an m whose m^T0 underflows to 0.
    sets_path = write_regions(tmp_path / "sets.json", inf.default_sets(0, 1, 2.0))
    (tmp_path / "counts.csv").write_text("region_id,count\n0,5.0\n")
    rc = _main_without_warnings(["infer", "--counts", str(tmp_path / "counts.csv"), "--sets",
                                 sets_path, "--T0", "100", "--k", "0", "--m", m,
                                 "--out", str(tmp_path / "t.json")])
    assert rc == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (f"error: need 0 < m**T0 < inf; "
                                       f"got T0=100.0, m={float(m)}\n")
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["--offset", "nan"], "offset must be finite"),
    (["--d", "2", "--offset", "0.3,inf"], "offset must be finite"),
    (["--T", "64,64"], "2 distinct T"),
], ids=["nan-offset", "inf-offset", "repeated-horizon"])
def test_kernel_check_bad_offset_or_horizons_exit_2(argv, message, tmp_path, capsys):
    # A non-finite offset would give nan errors; one distinct horizon, a
    # slope fitted through a single point.
    out = tmp_path / "scan.csv"
    argv = ["kernel-check", "--t", "1", "--k", "1", "--T", "64,128", *argv]
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k", ["-1", "65"])
def test_kernel_check_refuses_an_order_out_of_range(k, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert cli.main(["kernel-check", "--k", k, "--T", "64,128", "--out", str(out)]) == 2
    assert f"k={k}" in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------------------------- estimate-n / predict


def test_estimate_then_predict_pipeline(doubling_config, tmp_path, capsys):
    snaps_path = tmp_path / "snaps.jsonl"
    cli.main(["simulate", "--config", doubling_config, "--out", str(snaps_path)])
    table_path = tmp_path / "table.json"
    rc = cli.main(["estimate-n", str(snaps_path), "--k", "1",
                   "--out", str(table_path)])
    assert rc == 0
    table = NTable.load(str(table_path))
    assert table.m == 2.0  # offspring mean taken from the file header
    assert table.k == 1 and table.d == 1
    assert table.covers(1, 1)
    assert table.meta["source_t"] == 6

    region = '{"type": "box", "lower": [-2.0], "upper": [2.0]}'
    capsys.readouterr()  # drop the simulate/estimate summary lines
    rc = cli.main(["predict", "--table", str(table_path), "--region", region,
                   "--T", "40", "--format", "json"])
    assert rc == 0
    pred = json.loads(capsys.readouterr().out)[0]
    assert pred["T"] == 40.0 and pred["k"] == 1
    assert pred["raw_count"] == pytest.approx(
        2.0**40 * pred["normalized_density"]
    )

    # expand agrees with predict on the same inputs
    rc = cli.main(["expand", "--table", str(table_path), "--region", region,
                   "--T", "40", "--format", "json"])
    expanded = json.loads(capsys.readouterr().out)[0]
    assert expanded["s_value"] == pred["s_value"]
    assert expanded["normalized_density"] == pred["normalized_density"]

    # asking beyond the table's coverage fails loudly
    assert cli.main(["predict", "--table", str(table_path), "--region", region,
                     "--T", "40", "--k", "3"]) == 2


def test_predict_overflowing_raw_count_is_left_empty(tmp_path, capsys):
    table = NTable(d=1, m=1e12, entries={(0,): 1.0}, k=0)
    path = tmp_path / "table.json"
    table.save(str(path))
    rc = cli.main(["predict", "--table", str(path), "--region",
                   '{"type": "box", "lower": [-2.0], "upper": [2.0]}',
                   "--T", "39", "--format", "json"])
    assert rc == 0
    pred = json.loads(capsys.readouterr().out)[0]
    assert pred["raw_count"] is None  # 1e12**39 overflows a float
    assert math.isfinite(pred["normalized_density"]) and pred["s_value"] > 0


@pytest.mark.parametrize("subcommand", ["predict", "expand"])
def test_predict_checks_the_table(subcommand, tmp_path, capsys):
    region = '{"type": "box", "lower": [-2.0], "upper": [2.0]}'
    table = NTable(d=1, m=1.5, entries={(0,): 1.0, (1,): 0.2, (2,): 0.5}, k=1,
                   meta={"T0": 25.0})
    good = tmp_path / "table.json"
    table.save(str(good))

    def run(path, T="30"):
        return cli.main([subcommand, "--table", str(path), "--region", region,
                         "--T", T])

    assert run(good) == 0
    # A horizon before the observation time is refused, for expand as well.
    assert run(good, T="10") == cli.EXIT_VALIDATION
    assert "precedes the observation time" in capsys.readouterr().err
    # Non-finite values or errors are refused rather than printed as nan.
    for field, bad in (("value", "NaN"), ("value", "Infinity"), ("err", "-Infinity")):
        obj = table.to_dict()
        obj["entries"][1][field] = float(bad)
        path = tmp_path / f"bad-{field}-{bad}.json"
        path.write_text(json.dumps(obj))
        assert run(path) == cli.EXIT_VALIDATION
        assert "not finite" in capsys.readouterr().err
    # A non-positive m would make m**T complex.
    path = tmp_path / "negative-m.json"
    path.write_text(json.dumps(dict(table.to_dict(), m=-1.5)))
    assert run(path, T="30.5") == cli.EXIT_VALIDATION
    assert "must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("region", [
    '{"type": "box", "lower": ["a"], "upper": [1]}',
    '{"type": "ball", "center": [0.0], "radius": "x"}',
    '{"type": "union", "members": 5}',
], ids=["box-lower", "ball-radius", "union-members"])
def test_predict_non_numeric_region_field_exits_2(region, tmp_path, capsys):
    path = tmp_path / "table.json"
    NTable(d=1, m=1.5, entries={(0,): 1.0}, k=0).save(str(path))
    rc = cli.main(["predict", "--table", str(path), "--region", region, "--T", "30"])
    assert rc == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("region, message", [
    ('{"type": "box", "lower": [1e100, 0, 0], "upper": [2e100, 1, 1]}',
     "a moment overflows"),
    ('{"type": "union", "members": [{"type": "box", "lower": [0, 0, 0], '
     '"upper": [1, 1, 1]}, {"type": "ball", "center": [5, 0, 0], "radius": 1e200}]}',
     "overlap"),
    ('{"type": "union", "members": [{"type": "box", "lower": [0, 0, 0], '
     '"upper": [1, 1, 1]}, {"type": "ball", "center": [0.5, 2e154, 0], "radius": 1}]}',
     "a moment overflows"),
    ('{"type": "box", "lower": "000", "upper": "111"}', "sequence of reals"),
    ('{"type": "ball", "center": [0], "radius": "1"}', "radius must be a number"),
    ('{"type": "box", "lower": [true], "upper": [2]}', "lower must be a sequence of reals"),
], ids=["box-1e100", "ball-radius-1e200", "gap-2e154", "string-lower", "string-radius",
        "bool-lower"])
def test_predict_huge_or_string_coordinates_exit_2(region, message, tmp_path, capsys):
    path = tmp_path / "table.json"
    entries = {a: 1.0 for a in xp.required_indices(2, 3)}
    NTable(d=3, m=2.0, entries=entries, k=2).save(str(path))
    rc = cli.main(["predict", "--table", str(path), "--region", region, "--T", "30"])
    assert rc == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("k", [1, 2])
def test_predict_union_of_opposite_infinite_moments_exits_2(k, tmp_path, capsys):
    # The members' moments of (1, 0, 0) are +inf and -inf, whose fsum once
    # escaped as a traceback at k=1; at k=2 a power overflows first.
    region = json.dumps({"type": "union", "members": [
        {"type": "box", "lower": [1e100] * 3, "upper": [2e100] * 3},
        {"type": "box", "lower": [-2e100, 1e100, 1e100], "upper": [-1e100, 2e100, 2e100]}]})
    path = tmp_path / "table.json"
    NTable(d=3, m=1.5, entries={a: 1.0 for a in xp.required_indices(k, 3)}, k=k).save(str(path))
    rc = cli.main(["predict", "--table", str(path), "--region", region, "--T", "30"])
    assert rc == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: region 0: a moment overflows float64 (coordinates too large)\n")


def test_infer_sets_with_overflowing_moments_exit_2(tmp_path, capsys):
    # infer names the first set whose moments overflow, by its place in --sets.
    sets = [rg.Box((0.0,), (1.0,)), rg.Box((2.0,), (3.0,)), rg.Ball((1e300,), 1e10)]
    sets_path = write_regions(tmp_path / "sets.json", sets)
    counts_path = tmp_path / "counts.csv"
    counts_path.write_text("region_id,count\n0,1.0\n1,1.0\n2,1.0\n")
    rc = cli.main(["infer", "--counts", str(counts_path), "--sets", sets_path,
                   "--T0", "25", "--k", "1", "--m", "1.5", "--out", str(tmp_path / "t.json")])
    assert rc == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: region 2: a moment overflows float64 (coordinates too large)\n")
    assert not (tmp_path / "t.json").exists()


def test_count_in_a_huge_ball(doubling_config, tmp_path, capsys):
    out = tmp_path / "run.snap"
    assert cli.main(["simulate", "--config", doubling_config, "--out", str(out)]) == 0
    capsys.readouterr()
    ball = '{"type": "ball", "center": [0.0], "radius": 1e200}'
    assert cli.main(["count", str(out), "--region", ball, "--t", "6"]) == 0
    assert capsys.readouterr().out.strip() == "64"


def test_predict_empty_region_list_writes_only_the_header(tmp_path, capsys):
    path = tmp_path / "table.json"
    NTable(d=1, m=1.5, entries={(0,): 1.0}, k=0).save(str(path))
    rc = cli.main(["predict", "--table", str(path), "--region", "[]", "--T", "30"])
    assert rc == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    assert lines == ["region_id,T,k,s_value,normalized_density,raw_count"]


@pytest.mark.parametrize("edit, field", [
    (lambda o: o["entries"][1].update(alpha=["a"]), "entry 1 field alpha"),
    (lambda o: o["entries"][1].update(alpha=["INF"]), "entry 1 field alpha"),
    (lambda o: o["entries"][1].update(value="x"), "entry 1 field value"),
    (lambda o: o.update(d="x"), "field d"),
    (lambda o: o.update(k="z"), "field k"),
    (lambda o: o.update(m=True), "field m"),
    (lambda o: o["entries"].append({"alpha": [1], "value": 2.0}), "entry 3 field alpha"),
    (lambda o: o["entries"][1].update(err=-0.5), "error -0.5 for index (1,) is negative"),
    (lambda o: o["meta"].update(T0="x"), "field meta.T0"),
], ids=["alpha-string", "alpha-1e400", "value-string", "d-string", "k-string",
        "m-bool", "alpha-twice", "err-negative", "T0-string"])
def test_predict_malformed_table_field_exits_2(edit, field, tmp_path, capsys):
    obj = NTable(d=1, m=1.5, entries={(0,): 1.0, (1,): 0.2, (2,): 0.5}, k=1).to_dict()
    edit(obj)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(obj).replace('"INF"', "1e400"))
    rc = cli.main(["predict", "--table", str(path), "--region",
                   '{"type": "box", "lower": [-2.0], "upper": [2.0]}', "--T", "30"])
    assert rc == cli.EXIT_VALIDATION
    assert f"N-table {field}" in capsys.readouterr().err


def test_predict_mixed_dimensions_exit_2(tmp_path, capsys):
    path = tmp_path / "table.json"
    NTable(d=1, m=1.5, entries={(0,): 1.0}, k=0).save(str(path))
    regions = write_regions(tmp_path / "regions.json", [
        rg.Box((0.0,), (1.0,)), rg.Box((0.0, 0.0), (1.0, 1.0))])
    rc = cli.main(["predict", "--table", str(path), "--region", regions, "--T", "30"])
    assert rc == cli.EXIT_VALIDATION
    assert "table does not cover required_indices(k=0, d=2)" in capsys.readouterr().err


@pytest.mark.parametrize("pmf", [["x"], None], ids=["string", "missing"])
def test_estimate_n_bad_header_pmf_exits_2(pmf, doubling_config, tmp_path, capsys):
    snaps = tmp_path / "snaps.bin"
    assert cli.main(["simulate", "--config", doubling_config, "--out", str(snaps)]) == 0
    head, rest = snaps.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header.pop("pmf")
    if pmf is not None:
        header["pmf"] = pmf
    snaps.write_bytes(json.dumps(header).encode() + b"\n" + rest)
    capsys.readouterr()
    out = str(tmp_path / "t.json")
    assert cli.main(["estimate-n", str(snaps), "--k", "1", "--out", out]) == 2
    assert "record 0: pmf" in capsys.readouterr().err
    # The law comes from the header alone: there is no --m to fall back on.
    with pytest.raises(SystemExit) as e:
        cli.main(["estimate-n", str(snaps), "--k", "1", "--out", out, "--m", "2"])
    assert e.value.code == 2


@pytest.mark.parametrize("key, value, msg", [
    ("seed", "a", "seed must be an integer"),
    ("seed", -1, r"seed -1 outside \[0, "),
    ("seed", 3.5, "seed must be an integer"),
    ("seed", 2**64, "outside"),
    ("seed", None, "seed must be an integer"),
    ("pmf", None, "pmf must be a sequence"),
    ("pmf", [0.5, 0.4], "pmf sums to"),
    ("sampler", 4, "sampler 4 is not a string"),
    ("sampler", None, "sampler None is not a string"),
    ("d", 2**64, r"dimension d 18446744073709551616 outside \[1, 1025\)"),
], ids=["seed-string", "seed-negative", "seed-float", "seed-2^64", "seed-missing",
        "pmf-missing", "pmf-sum", "sampler-int", "sampler-missing", "d-2^64"])
def test_commands_refuse_a_header_that_could_not_make_the_run(
        key, value, msg, doubling_config, tmp_path, capsys):
    # The CRC covers only data bytes, so the reader checks the header's
    # seed, pmf and sampler itself.  None drops the key.
    snaps = tmp_path / "snaps.bin"
    assert cli.main(["simulate", "--config", doubling_config, "--out", str(snaps)]) == 0
    head, rest = snaps.read_bytes().split(b"\n", 1)
    header = {k: v for k, v in json.loads(head).items() if k != key}
    if value is not None:
        header[key] = value
    snaps.write_bytes(json.dumps(header).encode() + b"\n" + rest)
    capsys.readouterr()
    for args in (["estimate-n", str(snaps), "--k", "1", "--out", str(tmp_path / "t.json")],
                 ["count", str(snaps), "--region", '{"type": "box", "lower": [-1.0], '
                  '"upper": [1.0]}']):
        assert cli.main(args) == cli.EXIT_VALIDATION, args
        err = capsys.readouterr().err
        assert "record 0" in err and re.search(msg, err), err
    assert not (tmp_path / "t.json").exists()


def write_snapshots(path, times, pmf=(0.0, 0.0, 1.0)):
    with sim.SnapshotWriter(str(path), d=1, pmf=pmf, seed=0) as w:
        for t in times:
            w.write(sim.Snapshot(t=t, positions=np.zeros((2, 1))))
            w.end(t)
    return str(path)


@pytest.mark.parametrize("pmf", [(0.5, 0.0, 0.5), (0.5, 0.5)],
                         ids=["critical", "subcritical"])
def test_estimate_n_refuses_a_law_with_m_at_most_1(pmf, tmp_path, capsys):
    snaps = write_snapshots(tmp_path / "snaps.bin", [3], pmf)
    out = tmp_path / "t.json"
    assert cli.main(["estimate-n", snaps, "--k", "1", "--out", str(out)]) == 2
    assert "supercritical" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["count", "estimate-n"])
def test_out_of_order_snapshot_file_exits_2(command, tmp_path, capsys):
    snaps = write_snapshots(tmp_path / "snaps.bin", [5, 3, 3])
    argv = {
        "count": [snaps, "--region", '{"type": "ball", "center": [0.0], "radius": 1.0}'],
        "estimate-n": [snaps, "--k", "1", "--out", str(tmp_path / "t.json")],
    }[command]
    assert cli.main([command, *argv]) == 2
    # records 1 and 2 are the part and end of t=5, record 3 the part of t=3
    assert "record 3: t=3 does not follow" in capsys.readouterr().err


def test_estimate_n_missing_file_exits_5(tmp_path):
    rc = cli.main(["estimate-n", str(tmp_path / "absent.jsonl"), "--k", "1",
                   "--out", str(tmp_path / "t.json")])
    assert rc == cli.EXIT_IO


# -------------------------------------------------------------------- infer


def test_infer_round_trip(tmp_path, capsys):
    sets = inf.default_sets(1, 1, 2.0)
    sets_path = write_regions(tmp_path / "sets.json", sets)
    system = inf.design_matrix(sets, 25.0, 1, 1)
    true = {(0,): 1.0, (1,): 0.4, (2,): 1.6}
    m = 1.5
    scale = (2 * math.pi * 25.0) ** 0.5
    counts_path = tmp_path / "counts.csv"
    with open(counts_path, "w") as fh:
        fh.write("region_id,count\n")
        for i, a in enumerate(sets):
            s_val = xp.expansion_value(a, 25.0, 1, true)
            fh.write(f"{i},{s_val / scale * m**25.0!r}\n")
    out = tmp_path / "solved.json"
    rc = cli.main(["infer", "--counts", str(counts_path), "--sets", sets_path,
                   "--T0", "25", "--k", "1", "--m", "1.5", "--out", str(out)])
    assert rc == 0
    assert "condition number" in capsys.readouterr().out
    got = NTable.load(str(out))
    for g, v in true.items():
        assert got[g] == pytest.approx(v, abs=1e-8)
    assert got.meta["T0"] == 25.0

    # missing rows are rejected
    (tmp_path / "short.csv").write_text("region_id,count\n0,5.0\n")
    assert cli.main(["infer", "--counts", str(tmp_path / "short.csv"),
                     "--sets", sets_path, "--T0", "25", "--k", "1",
                     "--m", "1.5", "--out", str(out)]) == 2


def test_infer_rejects_duplicate_region_id(tmp_path, capsys):
    sets = inf.default_sets(1, 1, 2.0)
    sets_path = write_regions(tmp_path / "sets.json", sets)
    counts_path = tmp_path / "counts.csv"
    counts_path.write_text("region_id,count\n0,5.0\n1,7.0\n2,-1.5\n1,9.0\n")
    rc = cli.main(["infer", "--counts", str(counts_path), "--sets", sets_path,
                   "--T0", "25", "--k", "1", "--m", "1.5",
                   "--out", str(tmp_path / "t.json")])
    assert rc == cli.EXIT_VALIDATION
    assert "region_id 1 appears more than once" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


def test_infer_overflowing_m_pow_T0_exits_2(tmp_path, capsys):
    sets_path = write_regions(tmp_path / "sets.json", inf.default_sets(0, 1, 2.0))
    counts_path = tmp_path / "counts.csv"
    counts_path.write_text("region_id,count\n0,5.0\n")
    rc = cli.main(["infer", "--counts", str(counts_path), "--sets", sets_path,
                   "--T0", "3000", "--k", "0", "--m", "1.5",
                   "--out", str(tmp_path / "t.json")])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "T0=3000" in err and "m=1.5" in err
    assert not (tmp_path / "t.json").exists()


def test_infer_ill_conditioned_exits_3(tmp_path, capsys):
    eps = 1e-6
    sets = [rg.Box((i * 2 * eps,), (i * 2 * eps + eps,)) for i in range(3)]
    sets_path = write_regions(tmp_path / "sets.json", sets)
    counts_path = tmp_path / "counts.csv"
    counts_path.write_text("region_id,count\n0,0.0\n1,0.0\n2,0.0\n")
    rc = cli.main(["infer", "--counts", str(counts_path), "--sets", sets_path,
                   "--T0", "25", "--k", "1", "--m", "1.5",
                   "--out", str(tmp_path / "t.json")])
    assert rc == cli.EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err


def test_infer_overlapping_sets_exit_2(tmp_path):
    sets = [rg.Box((0.0,), (2.0,)), rg.Box((1.0,), (3.0,)),
            rg.Box((5.0,), (6.0,))]
    sets_path = write_regions(tmp_path / "sets.json", sets)
    counts_path = tmp_path / "counts.csv"
    counts_path.write_text("region_id,count\n0,1\n1,1\n2,1\n")
    assert cli.main(["infer", "--counts", str(counts_path), "--sets", sets_path,
                     "--T0", "25", "--k", "1", "--m", "1.5",
                     "--out", str(tmp_path / "t.json")]) == 2


def test_infer_accepts_union_sets(tmp_path, capsys):
    # A union set is one observation set: its members are checked against
    # the other sets, not against each other as if each were a set.
    sets = [rg.UnionRegion((rg.Box((0.0,), (1.0,)), rg.Box((5.0,), (6.0,)))),
            rg.Box((1.0,), (2.0,)), rg.Box((2.5,), (3.0,))]
    sets_path = write_regions(tmp_path / "sets.json", sets)
    counts_path = tmp_path / "counts.csv"
    counts_path.write_text("region_id,count\n0,900\n1,400\n2,250\n")
    rc = cli.main(["infer", "--counts", str(counts_path), "--sets", sets_path,
                   "--T0", "25", "--k", "1", "--m", "1.5",
                   "--out", str(tmp_path / "t.json")])
    assert rc == cli.EXIT_OK, capsys.readouterr().err
    assert sorted(NTable.load(str(tmp_path / "t.json")).entries) == [(0,), (1,), (2,)]


def test_infer_names_the_overlapping_observation_sets(tmp_path, capsys):
    sets = [rg.UnionRegion((rg.Box((0.0,), (1.0,)), rg.Box((5.0,), (6.0,)))),
            rg.Box((1.0,), (2.0,)), rg.Box((5.5,), (7.0,))]
    sets_path = write_regions(tmp_path / "sets.json", sets)
    counts_path = tmp_path / "counts.csv"
    counts_path.write_text("region_id,count\n0,1\n1,1\n2,1\n")
    rc = cli.main(["infer", "--counts", str(counts_path), "--sets", sets_path,
                   "--T0", "25", "--k", "1", "--m", "1.5",
                   "--out", str(tmp_path / "t.json")])
    assert rc == cli.EXIT_VALIDATION
    assert "observation sets 0 and 2 overlap" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


def test_infer_empty_sets_exits_2(tmp_path, capsys):
    counts_path = tmp_path / "counts.csv"
    counts_path.write_text("region_id,count\n")
    rc = cli.main(["infer", "--counts", str(counts_path), "--sets", "[]",
                   "--T0", "25", "--k", "1", "--m", "1.5",
                   "--out", str(tmp_path / "t.json")])
    assert rc == cli.EXIT_VALIDATION
    assert "holds no regions" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


# ------------------------------------------------------------- csv comments


@pytest.mark.parametrize("command",
                         ["count", "predict", "expand", "kernel-check", "diagnose"])
def test_csv_comments_escape_line_breaks(command, doubling_config, tmp_path):
    # A line break inside an argument would end its "# arg" comment, and a
    # reader that skips comments would read the rest as a row.
    region = '{"type": "box",\n "lower": [-1.0],\r\n "upper": [1.0]}'
    out = str(tmp_path / "out.csv")
    table = tmp_path / "table.json"
    NTable(d=1, m=1.5, entries={(0,): 1.0, (1,): 0.2, (2,): 0.5}, k=1).save(str(table))
    snaps = tmp_path / "snaps.bin"
    assert cli.main(["simulate", "--config", doubling_config, "--out", str(snaps)]) == 0
    inline_config = json.dumps(json.loads(Path(doubling_config).read_text()), indent=1)
    argv, headers = {
        "count": (["count", str(snaps), "--region", region, "--format", "csv",
                   "--out", out], {out: "t,count"}),
        "predict": (["predict", "--table", str(table), "--region", region, "--T", "30",
                     "--out", out],
                    {out: "region_id,T,k,s_value,normalized_density,raw_count"}),
        "kernel-check": (["kernel-check", "--T", "64\n128", "--out", out],
                         {out: "k,T,error,fitted_slope"}),
        "diagnose": (["diagnose", "--config", inline_config, "--out", out,
                      "--runs", "1", "--replicas", "10"],
                     {f"{out}.radius.csv": "run,seed,t,max_radius,bound,ok",
                      f"{out}.increments.csv": "alpha,p,t,empirical_norm,exact_norm",
                      f"{out}.moments.csv": "alpha,limit_second_moment"}),
    }[command.replace("expand", "predict")]
    argv[0] = command
    assert cli.main(argv) == 0
    for path, header in headers.items():
        lines = Path(path).read_text().splitlines()
        comments = lines[:lines.index(header)]
        assert len(comments) == len(vars(cli.build_parser().parse_args(argv))), path
        assert all(ln.startswith("# ") for ln in comments), comments
        assert "\\n" in "".join(comments), path  # the break, escaped


# ----------------------------------------------------------------- diagnose


def test_diagnose_outputs(doubling_config, tmp_path, capsys):
    prefix = tmp_path / "diag"
    rc = cli.main(["diagnose", "--config", doubling_config, "--out",
                   str(prefix), "--runs", "3", "--replicas", "60"])
    assert rc == 0
    assert "worst radius/bound ratio" in capsys.readouterr().out
    radius = (tmp_path / "diag.radius.csv").read_text().splitlines()
    rows = [ln for ln in radius if not ln.startswith("#")]
    assert rows[0] == "run,seed,t,max_radius,bound,ok"
    assert len(rows) == 1 + 3 * 7  # runs x (t_max + 1)
    # t^2 only bounds the radius *eventually*; tiny generations overshoot
    # with appreciable probability, so only the later rows must pass.
    for ln in rows[1:]:
        run, seed, t, radius_v, bound, ok = ln.split(",")
        assert ok in ("0", "1")
        if int(t) == 0 or int(t) >= 3:
            assert ok == "1", ln
    increments = (tmp_path / "diag.increments.csv").read_text()
    assert "mean successive ratio" in increments
    moments = (tmp_path / "diag.moments.csv").read_text().splitlines()
    rows = [ln for ln in moments if not ln.startswith("#")]
    assert rows[0] == "alpha,limit_second_moment"
    assert len(rows) == 4  # alpha = 0, e1, 2e1
    sidecar = json.loads((tmp_path / "diag.manifest.json").read_text())
    assert len(sidecar["outputs"]) == 3


def test_diagnose_honours_the_population_cap(tmp_path, capsys):
    # 500 replicas of a m=1.5 law outgrow a cap of 50 at once.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"d": 1, "pmf": [0.0, 0.5, 0.5], "seed": 1, "t_max": 8,
                               "population_cap": 50}))
    rc = cli.main(["diagnose", "--config", str(cfg), "--out", str(tmp_path / "diag"),
                   "--runs", "0", "--replicas", "500"])
    assert rc == cli.EXIT_CAP
    err = capsys.readouterr().err
    assert "cap 50" in err
    assert "snapshots" not in err  # diagnose writes none
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


#: The seeds of the radius runs `_counted_radius_profile` made in this process.
_RUNS_HERE = []
_RADIUS_PROFILE = sim.radius_profile


def _counted_radius_profile(cfg):
    # Module-level, so that diagnose's pool can pickle a call of it; a
    # forked worker counts into its own copy of the list.
    _RUNS_HERE.append(cfg.seed)
    return _RADIUS_PROFILE(cfg)


def _diagnose_on(cpus, argv, prefix, capsys, monkeypatch):
    """exit code, stdout, stderr and CSV texts of `diagnose` run as if on
    ``cpus`` CPUs; also the number of radius runs made in this process."""
    monkeypatch.setattr(cli, "_cpus", lambda: cpus)
    monkeypatch.setattr(sim, "radius_profile", _counted_radius_profile)
    _RUNS_HERE.clear()
    rc = cli.main(["diagnose", "--out", str(prefix), *argv])
    out, err = capsys.readouterr()
    texts = {}
    for part in ("radius", "increments", "moments"):
        path = Path(f"{prefix}.{part}.csv")
        if path.exists():
            texts[part] = path.read_text()
            path.unlink()
    return rc, out, err, texts, len(_RUNS_HERE)


@pytest.mark.parametrize("runs", [0, 1, 4])
@pytest.mark.parametrize("seed", [11, 2024])
def test_diagnose_is_the_same_on_one_or_two_processes(runs, seed, tmp_path, capsys,
                                                      monkeypatch):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"d": 2, "pmf": [0.0, 0.5, 0.5], "seed": seed,
                               "t_max": 9}))
    argv = ["--config", str(cfg), "--runs", str(runs), "--replicas", "300"]
    prefix = tmp_path / "diag"
    one = _diagnose_on(1, argv, prefix, capsys, monkeypatch)
    two = _diagnose_on(2, argv, prefix, capsys, monkeypatch)
    assert one[0] == two[0] == 0
    assert one[1:4] == two[1:4]
    assert len(one[3]["radius"].splitlines()) > 10 * runs
    # One CPU runs every radius run here; two run them all in workers,
    # except that a lone task (--runs 0) stays in this process.
    assert one[4] == runs
    assert two[4] == 0


def test_diagnose_raises_the_first_radius_run_cap_abort(tmp_path, capsys, monkeypatch):
    # Runs 1, 2 and 3 of base seed 6 outgrow a cap of 100, each at another
    # generation, and so does the ensemble; run 1's abort is the one a
    # sequential diagnose would meet first.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"d": 1, "pmf": [0.25, 0.25, 0.5], "seed": 6,
                               "t_max": 40, "population_cap": 100}))
    config = sim.SimConfig.from_json(str(cfg))
    aborts = []
    for r in range(4):
        try:
            sim.radius_profile(dataclasses.replace(config, seed=6 + r))
            aborts.append(None)
        except PopulationCapError as exc:
            aborts.append(str(exc))
    assert aborts[0] is None and len(set(aborts[1:])) == 3
    with pytest.raises(PopulationCapError):
        mg.l2_increment_diagnostic(500, [(0,)], 8, config.law, seed=6, population_cap=100)
    argv = ["--config", str(cfg), "--runs", "4", "--replicas", "500"]
    for cpus in (1, 2):
        rc, out, err, texts, _ = _diagnose_on(cpus, argv, tmp_path / "diag", capsys,
                                              monkeypatch)
        assert rc == cli.EXIT_CAP
        assert (out, err) == ("", f"aborted: {aborts[1]}\n")
        assert texts == {}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def _die_in_a_worker(cfg):
    # Module-level, so that diagnose's pool can pickle a call of it.
    assert multiprocessing.parent_process() is not None, "a radius run ran in the test's process"
    os._exit(1)


def test_diagnose_exits_4_when_a_worker_process_dies(tmp_path, capsys, monkeypatch):
    # A worker killed abruptly (for memory, say) breaks the pool: one line
    # on stderr, no traceback, and no output file.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"d": 1, "pmf": [0.0, 0.5, 0.5], "seed": 3, "t_max": 6}))
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    monkeypatch.setattr(sim, "radius_profile", _die_in_a_worker)
    rc = cli.main(["diagnose", "--config", str(config), "--out", str(tmp_path / "diag"),
                   "--runs", "2", "--replicas", "50"])
    out, err = capsys.readouterr()
    assert rc == cli.EXIT_CAP
    assert out == ""
    assert err.startswith("aborted: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-2", "1e308"])
def test_diagnose_refuses_a_bad_epsilon(epsilon, doubling_config, tmp_path, capsys):
    # nan and inf have no meaning, t^-1 is infinite at t=0 and t^(1+1e308)
    # overflows a float.
    rc = cli.main(["diagnose", "--config", doubling_config, "--out", str(tmp_path / "diag"),
                   "--runs", "1", "--replicas", "10", f"--epsilon={epsilon}"])
    assert rc == cli.EXIT_VALIDATION
    assert "--epsilon" in capsys.readouterr().err
    assert not list(tmp_path.glob("diag*"))


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_diagnose_checks_the_seed_before_it_runs(seed, doubling_config, tmp_path,
                                                 capsys, monkeypatch):
    def no_run(cfg):
        raise AssertionError("radius_profile ran before --seed was checked")

    monkeypatch.setattr(sim, "radius_profile", no_run)
    rc = cli.main(["diagnose", "--config", doubling_config, "--out",
                   str(tmp_path / "diag"), "--runs", "2", "--replicas", "10",
                   "--seed", seed])
    assert rc == cli.EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("diag*"))


@pytest.mark.parametrize("replicas", ["0", "-3"])
def test_diagnose_refuses_an_empty_ensemble(replicas, doubling_config, tmp_path, capsys):
    rc = cli.main(["diagnose", "--config", doubling_config, "--out", str(tmp_path / "diag"),
                   "--runs", "1", "--replicas", replicas])
    assert rc == cli.EXIT_VALIDATION
    assert "need at least one replica" in capsys.readouterr().err
    assert not list(tmp_path.glob("diag*"))


def test_diagnose_checks_the_replicas_before_it_runs(doubling_config, tmp_path,
                                                    capsys, monkeypatch):
    def no_run(cfg):
        raise AssertionError("radius_profile ran before --replicas was checked")

    monkeypatch.setattr(sim, "radius_profile", no_run)
    rc = cli.main(["diagnose", "--config", doubling_config, "--out",
                   str(tmp_path / "diag"), "--runs", "30", "--replicas", "0"])
    assert rc == cli.EXIT_VALIDATION
    assert "--replicas 0" in capsys.readouterr().err
    assert not list(tmp_path.glob("diag*"))


def test_diagnose_refuses_negative_runs(doubling_config, tmp_path, capsys):
    rc = cli.main(["diagnose", "--config", doubling_config, "--out", str(tmp_path / "diag"),
                   "--runs", "-2", "--replicas", "10"])
    assert rc == cli.EXIT_VALIDATION
    assert "--runs -2" in capsys.readouterr().err
    assert not list(tmp_path.glob("diag*"))


@pytest.mark.parametrize("d, pmf, t_max, m", [
    (2, [1.0], 3, "0.0"),  # 0.0 ** -4 raises ZeroDivisionError
    (1, [1 - 1e-40, 1e-40], 8, "1e-40"),  # 1e-40 ** -9 raises OverflowError
], ids=["mean-0", "mean-1e-40"])
def test_diagnose_refuses_a_mean_whose_increment_scale_overflows(d, pmf, t_max, m,
                                                                 tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"d": d, "pmf": pmf, "seed": 3, "t_max": t_max,
                               "test_mode": True}))
    rc = cli.main(["diagnose", "--config", str(cfg), "--out", str(tmp_path / "diag"),
                   "--runs", "2", "--replicas", "10"])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_VALIDATION, err
    assert f"m^-(t+1) overflows a float at offspring mean m={m}, t={t_max}" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("diag*"))


def test_diagnose_of_a_subcritical_law_keeps_its_increment_rows(tmp_path, capsys):
    # m = 0.1, whose scale m^-(t+1) is at most 1e9: the rows are those of
    # the increment law and of the ensemble, scaled by numpy's power.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"d": 1, "pmf": [0.9, 0.1], "seed": 3, "t_max": 8,
                               "test_mode": True}))
    rc = cli.main(["diagnose", "--config", str(cfg), "--out", str(tmp_path / "diag"),
                   "--runs", "2", "--replicas", "10"])
    assert rc == 0, capsys.readouterr().err
    law = sim.OffspringLaw((0.9, 0.1), test_mode=True)
    m, var = law.mean, law.variance
    v = oracles.whole_batch_v_matrix(law, 1, [(0,), (1,)], 8, 10, seed=3)
    want = ["alpha,p,t,empirical_norm,exact_norm"]
    for a, q in ((0,), 0), ((1,), 1):
        x = v[a] * m ** (-np.arange(9, dtype=np.float64))
        for t in range(1, 9):
            diff = x[:, t] - x[:, t - 1]
            exact = math.sqrt(m ** (-t - 1) * (m * (t**q - (t - 1) ** q) + var * (t - 1) ** q))
            want.append(f"{q},2,{t},{float(np.mean(diff * diff) ** 0.5)!r},{exact!r}")
    text = (tmp_path / "diag.increments.csv").read_text()
    assert [ln for ln in text.splitlines() if not ln.startswith("#")] == want


# --------------------------------------------------------------- cold start

# The test modules import scipy themselves, so each check runs in a fresh
# interpreter and reports the scipy modules it loaded.
_SCIPY_MODULES = (
    "import json, sys\n"
    "{body}\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
)


def _scipy_loaded_by(body: str) -> list[str]:
    src = str(Path(branchwiener.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_MODULES.format(body=body)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert _scipy_loaded_by("import branchwiener") == []


def test_package_source_never_names_scipy():
    package = Path(branchwiener.__file__).resolve().parent
    for path in sorted(package.rglob("*.py")):
        assert "scipy" not in path.read_text(encoding="utf-8"), path


@pytest.mark.parametrize("command", ["simulate", "diagnose"])
def test_sampling_commands_load_no_scipy(command, doubling_config, tmp_path):
    argv = {
        "simulate": ["--config", doubling_config, "--out", str(tmp_path / "snaps.bin")],
        "diagnose": ["--config", doubling_config, "--out", str(tmp_path / "diag"),
                     "--runs", "1", "--replicas", "20"],
    }[command]
    body = f"from branchwiener.cli import main\nassert main({[command, *argv]!r}) == 0"
    assert _scipy_loaded_by(body) == []


@pytest.mark.parametrize("command", ["count", "estimate-n", "predict"])
def test_reading_commands_load_no_scipy(command, doubling_config, tmp_path):
    snaps = tmp_path / "snaps.bin"
    table = tmp_path / "table.json"
    assert cli.main(["simulate", "--config", doubling_config, "--out", str(snaps)]) == 0
    assert cli.main(["estimate-n", str(snaps), "--k", "1", "--out", str(table)]) == 0
    region = '{"type": "box", "lower": [-2.0], "upper": [2.0]}'
    argv = {
        "count": [str(snaps), "--region", region],
        "estimate-n": [str(snaps), "--k", "1", "--out", str(tmp_path / "t2.json")],
        "predict": ["--table", str(table), "--region", region, "--T", "30"],
    }[command]
    body = f"from branchwiener.cli import main\nassert main({[command, *argv]!r}) == 0"
    assert _scipy_loaded_by(body) == []


# ------------------------------------------------------------------ parser


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["--version"])
    assert e.value.code == 0
    assert "branchwiener" in capsys.readouterr().out


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as e:
        cli.main(["frobnicate"])
    assert e.value.code == 2
