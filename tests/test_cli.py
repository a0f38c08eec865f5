import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import branchwiener
from branchwiener import cli
from branchwiener import expansion as xp
from branchwiener import inference as inf
from branchwiener import regions as rg
from branchwiener import simulator as sim
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
], ids=["t_max-float", "pmf-string-entry", "pmf-string", "time-string", "time-float",
        "position-string", "cap-float", "test_mode-string"])
def test_simulate_bad_config_field_types_exit_2(field, message, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"d": 1, "pmf": [0.0, 0.5, 0.5], "seed": 1, "t_max": 3,
                             **field}))
    rc = cli.main(["simulate", "--config", str(p), "--out", str(tmp_path / "x.snap")])
    assert rc == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err


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
    # the already-streamed snapshots stay readable
    _, snaps = sim.read_snapshot_file(str(out))
    assert [s.t for s in snaps] == [0, 1]


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
    # missing time
    assert cli.main(["count", str(out), "--region", region, "--t", "5"]) == 2


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
    for content in (good[:-7], bytes(flipped)):
        out.write_bytes(content)
        capsys.readouterr()
        assert cli.main(["count", str(out), "--region", region]) == cli.EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------- kernel-check


def test_kernel_check_csv(tmp_path):
    out = tmp_path / "scan.csv"
    rc = cli.main(["kernel-check", "--d", "1", "--t", "1.0", "--k", "1",
                   "--T", "64,128,256", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "k,T,error,fitted_slope,flagged"
    assert len(data) == 1 + 6
    assert all(ln.endswith(",0") for ln in data[1:])  # t/T far below 1/2
    assert cli.main(["kernel-check", "--T", "  "]) == 2
    assert cli.main(["kernel-check", "--T", "64,banana"]) == 2
    # horizons that are not comfortably beyond t are refused outright
    assert cli.main(["kernel-check", "--t", "40.0", "--T", "64"]) == 2


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
], ids=["box-1e100", "ball-radius-1e200", "gap-2e154", "string-lower"])
def test_predict_huge_or_string_coordinates_exit_2(region, message, tmp_path, capsys):
    path = tmp_path / "table.json"
    entries = {a: 1.0 for a in xp.required_indices(2, 3)}
    NTable(d=3, m=2.0, entries=entries, k=2).save(str(path))
    rc = cli.main(["predict", "--table", str(path), "--region", region, "--T", "30"])
    assert rc == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err


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
    assert "error: pmf" in capsys.readouterr().err
    # With --m the header pmf is not read.
    assert cli.main(["estimate-n", str(snaps), "--k", "1", "--out", out, "--m", "2"]) == 0


@pytest.mark.parametrize("m", ["1e200", "1e-200"])
def test_estimate_n_overflowing_m_pow_t_exits_2(m, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"d": 1, "pmf": [0.0, 0.0, 1.0], "seed": 3, "t_max": 4,
                               "test_mode": True}))
    snaps = tmp_path / "snaps.bin"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(snaps)]) == 0
    out = tmp_path / "t.json"
    rc = cli.main(["estimate-n", str(snaps), "--k", "1", "--m", m, "--out", str(out)])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"m={float(m)}" in err and "t=4" in err
    assert not out.exists()


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


def test_infer_empty_sets_exits_2(tmp_path, capsys):
    counts_path = tmp_path / "counts.csv"
    counts_path.write_text("region_id,count\n")
    rc = cli.main(["infer", "--counts", str(counts_path), "--sets", "[]",
                   "--T0", "25", "--k", "1", "--m", "1.5",
                   "--out", str(tmp_path / "t.json")])
    assert rc == cli.EXIT_VALIDATION
    assert "holds no regions" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


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
    assert rows[0] == "alpha,limit_second_moment,variant_closed_form"
    assert len(rows) == 4  # alpha = 0, e1, 2e1
    sidecar = json.loads((tmp_path / "diag.manifest.json").read_text())
    assert len(sidecar["outputs"]) == 3


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


def test_package_source_never_names_scipy_stats():
    package = Path(branchwiener.__file__).resolve().parent
    for path in sorted(package.rglob("*.py")):
        assert "scipy.stats" not in path.read_text(encoding="utf-8"), path


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
