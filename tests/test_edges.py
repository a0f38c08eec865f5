"""The forecast and kernel commands over the whole float range, the file
commands over damaged snapshot files, and `simulate` and `diagnose` over
configs at and beyond their limits.

Every float a command takes (horizons, observation times, offspring means,
offsets, coordinates, radii, coefficients and counts) is drawn
log-uniformly over [5e-324, 1.78e308], in both signs.  Each call of
``cli.main`` must end with a documented exit code and raise no exception
and no warning.  An exit-0 ``predict``, ``expand`` or ``infer`` must also
write only finite numbers, in JSON that parses without NaN or Infinity, and
an exit-0 ``kernel-check`` finite errors and slopes, or an empty slope.
``count`` and ``estimate-n`` on a cut or damaged file exit 0, or 2 with
one line that names the record at fault.  ``simulate`` and ``diagnose``
exit 0, 2 or 4, with one line on stderr when they fail.
"""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from branchwiener import cli
from branchwiener import regions as rg
from branchwiener import simulator as sim
from branchwiener.expansion import required_indices

import oracles

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_NUMERIC, cli.EXIT_CAP,
              cli.EXIT_IO}

#: log10 of 5e-324, the least subnormal, and of 1.78e308, near the largest float.
LOG_MIN, LOG_MAX = math.log10(5e-324), 308.25

REALS = st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]),
                  st.floats(LOG_MIN, LOG_MAX))
SWEEP = settings(derandomize=True, deadline=None, max_examples=300)


def _run(argv) -> tuple[int, str, str]:
    """cli.main(argv) with warnings as errors: its exit code, stdout and
    stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        rc = cli.main(argv)
    assert rc in EXIT_CODES
    return rc, out.getvalue(), err.getvalue()


def _refuse(constant):
    raise AssertionError(f"non-finite number {constant} in JSON output")


def _finite_json(text: str) -> None:
    """text parses as JSON without NaN or Infinity, and every number in it
    is finite."""
    def walk(value):
        if isinstance(value, float):
            assert math.isfinite(value)
        for item in value.values() if isinstance(value, dict) else (
                value if isinstance(value, list) else ()):
            walk(item)
    walk(json.loads(text, parse_constant=_refuse))


def _finite_csv(text: str) -> None:
    """Every field of every data row is empty, text, or a finite number."""
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    for row in rows[1:]:
        for cell in row.split(","):
            with contextlib.suppress(ValueError):
                assert math.isfinite(float(cell)), row


def _region(kind, coords, width):
    if kind == "ball":
        return {"type": "ball", "center": coords, "radius": width}
    return {"type": "box", "lower": coords, "upper": [c + abs(width) for c in coords]}


@st.composite
def tables(draw, d: int, k: int):
    """An N-table object of order k in d dimensions, with drawn m, entries
    and, half the time, an observation time."""
    entries = [{"alpha": list(a), "value": draw(REALS), "err": None}
               for a in required_indices(k, d)]
    meta = {"T0": draw(REALS)} if draw(st.booleans()) else {}
    return {"k": k, "d": d, "m": draw(REALS), "entries": entries, "meta": meta}


@SWEEP
@given(data=st.data(), command=st.sampled_from(["predict", "expand"]),
       d=st.integers(1, 2), k=st.integers(0, 2), fmt=st.sampled_from(["csv", "json"]))
def test_predict_and_expand_over_the_float_range(data, command, d, k, fmt):
    table = data.draw(tables(d, k))
    regions = data.draw(st.lists(st.builds(
        _region, st.sampled_from(["box", "ball"]), st.lists(REALS, min_size=d, max_size=d),
        REALS), min_size=1, max_size=3))
    T = data.draw(REALS)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        path.write_text(json.dumps(table))
        rc, out, _ = _run([command, "--table", str(path), "--region", json.dumps(regions),
                           f"--T={T!r}", "--format", fmt])
    if rc == cli.EXIT_OK:
        _finite_json(out) if fmt == "json" else _finite_csv(out)


@SWEEP
@given(edges=st.lists(REALS, min_size=2, max_size=4, unique=True),
       counts=st.lists(REALS, min_size=3, max_size=3), T0=REALS, m=REALS,
       k=st.integers(0, 1))
def test_infer_over_the_float_range(edges, counts, T0, m, k):
    edges = sorted(edges)
    sets = [{"type": "box", "lower": [lo], "upper": [hi]}
            for lo, hi in zip(edges, edges[1:])]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "table.json"
        counts_path = Path(tmp) / "counts.csv"
        counts_path.write_text("region_id,count\n" + "".join(
            f"{i},{c!r}\n" for i, c in zip(range(len(sets)), counts)))
        rc, _, _ = _run(["infer", "--counts", str(counts_path), "--sets", json.dumps(sets),
                         f"--T0={T0!r}", "--k", str(k), f"--m={m!r}", "--out", str(out)])
        if rc == cli.EXIT_OK:
            _finite_json(out.read_text())
        else:
            assert not out.exists()


@SWEEP
@given(data=st.data(), d=st.integers(1, 3), k=st.integers(0, 3), raw=st.booleans(),
       t=st.one_of(st.just(0.0), REALS))
def test_kernel_check_over_the_float_range(data, d, k, raw, t):
    # An exit-0 scan prints finite errors, and a finite slope or, for a k
    # whose errors sit at the float floor, none.
    horizons = data.draw(st.lists(REALS, min_size=1, max_size=3))
    offset = data.draw(st.lists(REALS, min_size=d, max_size=d))
    rc, out, _ = _run(["kernel-check", "--d", str(d), f"--t={t!r}", "--k", str(k),
                       "--T=" + ",".join(map(repr, horizons)),
                       "--offset=" + ",".join(map(repr, offset)), *(["--raw"] if raw else [])])
    rows = [line.split(",") for line in out.splitlines() if line[:1].isdigit()]
    assert rc != cli.EXIT_OK or rows
    for _, _, error, slope in rows:
        assert math.isfinite(float(error)) and (slope == "" or math.isfinite(float(slope)))


#: One line on stderr, naming the record at fault, or the snapshot the
#: command asked for and the file lacks.
FILE_REFUSAL = re.compile(r"error: (.*: record \d+: .*|no snapshot at t=\d+; file holds t in "
                          r"\[[\d, ]*\]|.* holds no snapshots)\n")


@SWEEP
@given(d=st.integers(1, 2), pmf=st.sampled_from([(0.0, 0.0, 1.0), (0.0, 0.5, 0.5)]),
       seed=st.integers(0, 2**64 - 1), chunk=st.sampled_from([1, 3, 1 << 15]),
       times=st.sets(st.integers(0, 4), min_size=1), data=st.data(),
       where=st.sampled_from(["cut", "header", "part", "data", "end"]))
def test_file_commands_on_damaged_files(d, pmf, seed, chunk, times, data, where):
    # A run's file, cut at a drawn offset or with one drawn byte of a
    # drawn kind changed: `count`, with and without `--t`, and
    # `estimate-n` exit 0, or 2 with one line that names the record.
    cfg = sim.SimConfig(d=d, pmf=pmf, seed=seed, t_max=max(times),
                        snapshot_times=tuple(times), test_mode=True)
    region = json.dumps({"type": "box", "lower": [-1.0] * d, "upper": [1.0] * d})
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(sim, "_RUN_CHUNK", chunk):
        path = Path(tmp) / "run.snap"
        sim.run(cfg, out=str(path))
        good = path.read_bytes()
        if where == "cut":
            path.write_bytes(good[:data.draw(st.integers(0, len(good) - 1))])
        else:
            spans = {"header": [], "part": [], "data": [], "end": []}
            for at, rec in oracles.snapshot_records(good):
                line = good.index(b"\n", at) + 1
                spans[rec["type"]].append((at, line))
                if rec["type"] == "part":
                    spans["data"].append((line, line + rec["nbytes"]))
            start, stop = data.draw(st.sampled_from(spans[where]))
            damaged = bytearray(good)
            i = data.draw(st.integers(start, stop - 1))
            # Digits and JSON punctuation more often than other bytes, so
            # that a changed record still parses as often as not.
            byte = data.draw(st.one_of(st.sampled_from(b'0123456789.-e",]'), st.integers(0, 255)))
            damaged[i] = byte if byte != damaged[i] else byte ^ 0x01
            path.write_bytes(bytes(damaged))
        for argv in (["count", str(path), "--region", region],
                     ["count", str(path), "--region", region, "--t",
                      str(data.draw(st.sampled_from(sorted(times))))],
                     ["estimate-n", str(path), "--k", "1", "--out", str(Path(tmp) / "t.json")]):
            rc, _, err = _run(argv)
            assert rc in (cli.EXIT_OK, cli.EXIT_VALIDATION), (argv, err)
            if rc == cli.EXIT_VALIDATION:
                assert FILE_REFUSAL.fullmatch(err), err
            if where == "data":
                assert "crc32 mismatch" in err, err


#: Leaves a config key out.
ABSENT = object()

#: Laws that grow, die or stay critical; none keeps one particle forever,
#: so that a run to a far t_max ends by extinction or by its cap.
LAWS = [[0.0, 0.5, 0.5], [0.25, 0.25, 0.5], [0.0, 0.0, 1.0], [1.0], [0.5, 0.5],
        [0.5, 0.0, 0.5], [1e-300, 0.0, 1.0 - 1e-300]]

#: Values that break one config field, or one diagnose argument.
BREAKS = {
    "d": [0, -1, rg.MAX_DIM + 1, 2**64, 10**12, 1.0, True, "2", ABSENT],
    "pmf": [[0.5, 0.4], [-0.5, 1.5], [], [math.nan, 1.0], [0.0, "0.5", 0.5], "x", ABSENT],
    "seed": [2**64, -1, 1.5, "7", True, ABSENT],
    "t_max": [-1, 2.0, "3", ABSENT],
    "population_cap": [0, -1, 1.5, None],
    "snapshot_times": [[2**64], [-1], [1, 1], [], "x", [1.5]],
    "initial_position": [[math.nan], [0.0] * (rg.MAX_DIM + 1), ["a"], [10**400]],
    "test_mode": [1, "yes", None],
    "speed": [1],  # an unknown key
    "--runs": [-1],
    "--replicas": [0, -3],
    "--epsilon": [-2.0, math.nan, math.inf],
}


@st.composite
def configs(draw) -> tuple[dict, list[str]]:
    """A config for simulate and diagnose, with its fields at their limits,
    and diagnose's arguments; now and then one of them broken."""
    d = draw(st.sampled_from([1, 2, 3, rg.MAX_DIM]))
    t_max = draw(st.sampled_from([0, 1, 2, 5, 2**64 - 1, 10**12]))
    values = {
        "d": d,
        "pmf": draw(st.sampled_from(LAWS)),
        "seed": draw(st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))),
        "t_max": t_max,
        # A run to a far t_max is bounded by a small cap.
        "population_cap": draw(st.sampled_from([1, 2, 64] + [2**64, ABSENT] * (t_max <= 5))),
        "snapshot_times": draw(st.sampled_from([ABSENT, [0], sorted({0, min(t_max, 2)}),
                                                [t_max]])),
        "initial_position": draw(st.sampled_from([ABSENT, [0.0] * d, [1e308] * d,
                                                  [-1e308] * d, [5e-324] * d])),
        "test_mode": draw(st.sampled_from([True, True, False, ABSENT])),
        "--runs": draw(st.sampled_from([0, 1, 3])),
        "--replicas": draw(st.sampled_from([1, 2, 50])),
        "--epsilon": draw(st.sampled_from([-1.0, -0.5, 0.0, 5e-324, 1.0, 1e308])),
    }
    broken = draw(st.sampled_from([None] * len(BREAKS) + list(BREAKS)))
    if broken is not None:
        values[broken] = draw(st.sampled_from(BREAKS[broken]))
    config = {k: v for k, v in values.items() if v is not ABSENT and not k.startswith("-")}
    return config, [f"{k}={values[k]!r}" for k in ("--runs", "--replicas", "--epsilon")]


@settings(derandomize=True, deadline=None, max_examples=400)
@given(drawn=configs())
def test_simulate_and_diagnose_on_configs_at_their_limits(drawn):
    # One CPU, so that every run stays in this process.
    config, options = drawn
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_cpus", lambda: 1):
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        for argv in (["simulate", "--config", str(path), "--out", str(Path(tmp) / "run.snap")],
                     ["diagnose", "--config", str(path), "--out", str(Path(tmp) / "diag"),
                      *options]):
            rc, _, err = _run(argv)
            assert rc in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_CAP), (argv, err)
            if rc == cli.EXIT_OK:
                assert err == "", (config, err)
            else:
                assert err.count("\n") == 1 and err.endswith("\n"), (config, err)
