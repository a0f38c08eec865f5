"""The forecast and kernel commands over the whole float range.

Every float a command takes (horizons, observation times, offspring means,
offsets, coordinates, radii, coefficients and counts) is drawn
log-uniformly over [5e-324, 1.78e308], in both signs.  Each call of
``cli.main`` must end with a documented exit code and raise no exception
and no warning.  An exit-0 ``predict``, ``expand`` or ``infer`` must also
write only finite numbers, in JSON that parses without NaN or Infinity.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from branchwiener import cli
from branchwiener.expansion import required_indices

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_NUMERIC, cli.EXIT_CAP,
              cli.EXIT_IO}

#: log10 of 5e-324, the least subnormal, and of 1.78e308, near the largest float.
LOG_MIN, LOG_MAX = math.log10(5e-324), 308.25

REALS = st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]),
                  st.floats(LOG_MIN, LOG_MAX))
SWEEP = settings(derandomize=True, deadline=None, max_examples=300)


def _run(argv) -> tuple[int, str]:
    """cli.main(argv) with warnings as errors: its exit code and stdout."""
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        rc = cli.main(argv)
    assert rc in EXIT_CODES
    return rc, out.getvalue()


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
        rc, out = _run([command, "--table", str(path), "--region", json.dumps(regions),
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
        rc, _ = _run(["infer", "--counts", str(counts_path), "--sets", json.dumps(sets),
                      f"--T0={T0!r}", "--k", str(k), f"--m={m!r}", "--out", str(out)])
        if rc == cli.EXIT_OK:
            _finite_json(out.read_text())
        else:
            assert not out.exists()


@SWEEP
@given(data=st.data(), d=st.integers(1, 3), k=st.integers(0, 3), raw=st.booleans(),
       t=st.one_of(st.just(0.0), REALS))
def test_kernel_check_over_the_float_range(data, d, k, raw, t):
    # Only the exit code: an exit-0 scan may still print -inf slopes from
    # rows whose errors sit at the float floor.
    horizons = data.draw(st.lists(REALS, min_size=1, max_size=3))
    offset = data.draw(st.lists(REALS, min_size=d, max_size=d))
    _run(["kernel-check", "--d", str(d), f"--t={t!r}", "--k", str(k),
          "--T=" + ",".join(map(repr, horizons)), "--offset=" + ",".join(map(repr, offset)),
          *(["--raw"] if raw else [])])
