"""Benchmark of the branchwiener command-line workflows.

Usage::

    python3 perfbench/run.py --workload {pipeline,forecast,diagnose} \\
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke

Run from the root of a source checkout: the program is imported from
``src/`` as it stands, and the run fails (exit 2, no result) when there is
none.  Each workload is a closed loop of real ``python -m branchwiener``
commands, one at a time, each in a fresh interpreter; its inputs are
generated from ``--seed`` and every output is checked (see workloads.py).
Command sequences repeat for about ``--seconds`` and the metrics are
medians over the repeats: ``wall_s`` sums each command's median wall time,
so a burst of load from other tenants of a shared host that slows one
command in one repeat and another in the next moves neither median.

Times are in *reference seconds*.  On a shared host the speed of every
instruction drifts by a third or more for minutes at a time as other
tenants' load changes, which no median over one run evens out.  So the
run also times calibrate.py, a fixed job that imports nothing from the
program, several times, and scales its wall times by ``REFERENCE_CAL_S``
over the job's median time: they read as seconds on a host where the job
takes ``REFERENCE_CAL_S``.  The raw wall times stay in the report and the
record.  Span times from the traced run are raw.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced sequences with traced ones, where each command runs under
tracer.py, and reports the per-layer metrics (see layers.py) together with
the import breakdown and the tracing overhead.  ``--smoke`` runs every
workload once, traced and untraced, at tiny sizes to check the harness
itself.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A human-readable
report precedes it, and the full record goes to
``.perfbench/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import workloads
from workloads import Command, Result

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: End-to-end metrics: name -> unit.  All lower is better.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
}

#: Calibration jobs timed before the first command sequence; one more
#: follows the references and every sequence.
CAL_PROBES = 2
#: Reference seconds are seconds on a host where the calibration job takes
#: this long.  It took 0.5 to 1.1 s on a shared 2-vCPU x86-64 VM with
#: Python 3.11, numpy 2.4 and scipy 1.17.
REFERENCE_CAL_S = 1.0
#: ``-X importtime`` runs for the import breakdown (trace runs only).
IMPORT_PROBES = 3
#: A run ends by this many seconds after it starts, whatever --seconds says.
RUN_LIMIT_S = 170.0

PROBE = (
    "import json, sys, branchwiener\n"
    "m = sys.modules\n"
    "print(json.dumps({\n"
    "    'file': branchwiener.__file__,\n"
    "    'sampler': getattr(m.get('branchwiener.simulator'), 'SAMPLER_NAME', None),\n"
    "    'numpy': getattr(m.get('numpy'), '__version__', None),\n"
    "    'scipy': getattr(m.get('scipy'), '__version__', None),\n"
    "}))\n"
)


def spec() -> dict:
    """BENCHMARK.json, which names the workloads and metrics."""
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def spec_workloads() -> dict[str, str]:
    return {w["name"]: w["why"] for w in spec().get("workloads", [])}


class SetupError(Exception):
    """The checkout cannot run the benchmark at all; no result is printed."""


class Runner:
    """Runs CLI commands one at a time and tallies attempts and failures."""

    def __init__(self, env: dict, work: Path, deadline: float):
        self.env = env
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.cal: list[float] = []

    def calibrate(self) -> None:
        """Time one run of calibrate.py."""
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "calibrate.py")], env=self.env,
                              cwd=self.work, capture_output=True, text=True, timeout=60)
        self.cal.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SetupError(f"calibration job failed:\n{proc.stderr[-2000:]}")

    def run(self, cmd: Command, spans: Path | None = None) -> Result:
        if spans is None:
            argv = [sys.executable, "-m", "branchwiener", *cmd.args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), *cmd.args]
        for path in cmd.outputs:
            path.unlink(missing_ok=True)
        err_path = self.work / f"{cmd.label}.stderr"
        timed_out = []
        with open(os.devnull, "wb") as out, open(err_path, "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.work)

            def kill():
                timed_out.append(True)
                proc.kill()

            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), kill)
            timer.start()
            try:
                # wait4 gives this child's own rusage; RUSAGE_CHILDREN would
                # be a running maximum over every command so far.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode(errors="replace")[-2000:]
        self.attempted += 1
        rc = proc.returncode if not timed_out else -9
        if rc != 0:
            self.failed += 1
        return Result(cmd.label, wall, usage.ru_maxrss, rc, stderr)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def probe_setup(env: dict, count: int) -> tuple[list[float], dict]:
    times, info = [], {}
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SetupError(f"import branchwiener failed:\n{proc.stderr[-2000:]}")
        info = json.loads(proc.stdout.splitlines()[-1])
    if not Path(info["file"]).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"branchwiener imported from {info['file']}, not from {SRC}")
    return times, info


def probe_imports(env: dict, count: int) -> list[dict[str, float]]:
    out = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import branchwiener"],
                              env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        out.append(layers.import_metrics(proc.stderr))
    return out


def environment(info: dict) -> dict:
    src_lines = sum(
        len(p.read_bytes().splitlines()) for p in sorted((SRC / "branchwiener").rglob("*.py"))
    )
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": info.get("numpy"),
        "scipy": info.get("scipy"),
        "sampler": info.get("sampler"),
        "src_lines": src_lines,
        "commit": commit,
    }


def run_sequence(wl, runner: Runner, repeat: int, traced: bool) -> dict:
    """One pass over the workload's commands, then the output checks."""
    cmds = wl.commands(repeat)
    results, spans, problems = [], [], []
    for cmd in cmds:
        span_path = wl.work / f"spans-{repeat}-{cmd.label}.npz" if traced else None
        res = runner.run(cmd, span_path)
        results.append(res)
        if res.returncode != 0:
            problems.append(f"{cmd.label} exited {res.returncode}: {res.stderr.strip()[-300:]}")
            break
        if traced:
            spans.append(str(span_path))
    if not problems:
        try:
            problems = wl.check()
        except Exception as exc:  # a malformed output is a failed check
            problems = [f"output check failed: {exc!r}"]
        # A failed check counts against the commands whose output it read.
        runner.failed += min(len(problems), len(cmds))
    ok = not problems
    return {
        "traced": traced,
        "commands": [vars(r) | {"stderr": r.stderr[-300:]} for r in results],
        "walls": {r.label: r.wall_s for r in results} if ok else {},
        "wall_s": sum(r.wall_s for r in results),
        "peak_rss_kb": max(r.maxrss_kb for r in results),
        "output_bytes": sum(p.stat().st_size for c in cmds for p in c.outputs if p.is_file()),
        "problems": problems,
        "spans": spans if ok else [],
    }


def median_of(dicts: list[dict]) -> dict[str, float]:
    keys = {k for d in dicts for k in d}
    return {k: statistics.median(d[k] for d in dicts if k in d) for k in sorted(keys)}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    start = time.monotonic()
    work = OUT / (f"smoke-{name}" if smoke else name)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    # setup_s is the median of one interpreter start-up timed here and one
    # after every command sequence, so the probes span the whole run.
    setup, info = probe_setup(env, 1)
    nproc = len(os.sched_getaffinity(0))
    wl = workloads.make(name, work, seed, smoke, workers=min(2, nproc))
    runner = Runner(env, work, start + RUN_LIMIT_S)
    for _ in range(1 if smoke else CAL_PROBES):
        runner.calibrate()
    try:
        problems = wl.prepare(runner.run)
    except Exception as exc:  # a malformed reference output is a failed check
        problems = [f"reference failed: {exc!r}"]
    if problems and not runner.failed:
        runner.failed = 1
    runner.calibrate()

    imports = probe_imports(env, 1 if smoke else IMPORT_PROBES) if trace else []
    repeats = []
    loop_start = time.monotonic()
    repeat = 0
    while not problems:
        t0 = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            repeats.append(run_sequence(wl, runner, repeat, traced))
        setup += probe_setup(env, 1)[0]
        runner.calibrate()
        repeat += 1
        now = time.monotonic()
        if any(r["problems"] for r in repeats):
            break
        if now + (now - t0) > start + RUN_LIMIT_S:
            break
        # Start no sequence that would end more than half a sequence past
        # --seconds, so that runs last about --seconds on average, but
        # take the median of at least two untraced repeats.
        if (trace or smoke or repeat >= 2) and now + (now - t0) / 2 >= loop_start + seconds:
            break

    plain = [r for r in repeats if not r["traced"]]
    traced_runs = [r for r in repeats if r["traced"]]
    # Reference seconds per wall-clock second in this run.
    scale = REFERENCE_CAL_S / statistics.median(runner.cal)
    walls = median_of([r["walls"] for r in plain if r["walls"]])
    stages = wl.stages({k: v * scale for k, v in walls.items()}) if walls else {}
    e2e = {}
    if plain:
        e2e = {
            "setup_s": statistics.median(setup) * scale,
            "wall_s": sum(walls.values()) * scale,
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in plain) / 1024,
            "output_mb": statistics.median(r["output_bytes"] for r in plain) / 1e6,
        }
    per_layer, leaders, layer_table = {}, [], {}
    span_sets = [layers.Spans(r["spans"]) for r in traced_runs if r["spans"]]
    if trace and plain and span_sets:
        span_runs = [layers.span_metrics(s, wl.snapshot_bytes) for s in span_sets]
        per_layer = {k: 0.0 for k in layers.PER_LAYER}
        per_layer |= stages
        per_layer |= median_of(imports)
        per_layer |= median_of(span_runs)
        # Counts come from the first traced repeat, so that they repeat
        # exactly for a seed however many repeats the time allowed.
        per_layer |= {k: v for k, v in span_runs[0].items()
                      if layers.PER_LAYER[k][0] == "count"}
        per_layer["trace.overhead_s"] = (
            sum(median_of([r["walls"] for r in traced_runs if r["walls"]]).values()) * scale
            - e2e["wall_s"]
        )
        last = span_sets[-1]
        layer_table = {
            "total_self_s": last.total_self,
            "by_layer": {k: v for k, v in last.self_by("layer").items() if v},
            "by_function": {k: v for k, v in
                            list(last.self_by("function").items())[:12] if v},
        }
        # At smoke sizes the workloads are too small to have their leader.
        leaders = [] if smoke else list(layers.leader_check(name, last))
    all_problems = problems + [p for r in repeats for p in r["problems"]]
    return {
        "workload": name,
        "why": spec_workloads().get(name, ""),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(info),
        "setup_probes_s": setup,
        "calibration_s": runner.cal,
        "scale": scale,
        "repeats": repeats,
        "end_to_end": e2e,
        "command_walls": walls,
        "stages": stages,
        "per_layer": per_layer,
        "layer_self_time": layer_table,
        "leader": leaders,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": all_problems,
        "correct": not all_problems and bool(plain),
    }


def report(res: dict) -> list[str]:
    env = res["environment"]
    lines = [
        f"workload {res['workload']}  seed {res['seed']}  seconds {res['seconds']}  "
        f"trace {res['trace']}",
        f"  why: {res['why']}",
        "environment: " + "  ".join(f"{k}={v}" for k, v in env.items()),
    ]
    for i, r in enumerate(res["repeats"]):
        cmds = "  ".join(
            f"{c['label']} {c['wall_s']:.3f}s {c['maxrss_kb'] / 1024:.0f}MB"
            for c in r["commands"]
        )
        tag = "traced" if r["traced"] else "plain "
        lines.append(f"  repeat {i} {tag} wall {r['wall_s']:.3f}s | {cmds}")
    plain = sum(not r["traced"] for r in res["repeats"])
    cal = res["calibration_s"]
    lines.append(f"calibration job: median {statistics.median(cal):.3f}s of {len(cal)}, "
                 f"so times below are scaled by {res['scale']:.4f}")
    lines.append(f"end-to-end (medians of {plain} untraced repeats, "
                 f"{len(res['setup_probes_s'])} setup probes; reference seconds):")
    for k, v in res["end_to_end"].items():
        lines.append(f"  {k:<28} {v:12.4f} {END_TO_END[k]}")
    if res["command_walls"]:
        lines.append(f"  {'raw setup_s, wall_s':<28} {statistics.median(res['setup_probes_s']):12.4f}"
                     f" {sum(res['command_walls'].values()):10.4f} s (wall clock)")
    for k, v in res["stages"].items():
        lines.append(f"  {k:<28} {v:12.4f} {layers.PER_LAYER[k][0]}")
    ratio = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    lines.append(f"  {'failed_ratio':<28} {ratio:12.4f} ({res['failed']}/{res['attempted']})")
    if res["per_layer"]:
        lines.append("per-layer (median of traced repeats):")
        for k, v in res["per_layer"].items():
            lines.append(f"  {k:<40} {v:14.6f} {layers.PER_LAYER[k][0]}")
    table = res["layer_self_time"]
    if table:
        total = table["total_self_s"]
        lines.append(f"self time by layer (last traced repeat, {total:.3f}s in spans):")
        for k, v in table["by_layer"].items():
            lines.append(f"  {k:<40} {v:10.4f}s {100 * v / total:6.1f}%")
        lines.append("largest self times by function:")
        for k, v in table["by_function"].items():
            lines.append(f"  {k:<40} {v:10.4f}s {100 * v / total:6.1f}%")
    if res["leader"]:
        label, value, rival, rival_s = res["leader"]
        verdict = "holds" if value > rival_s else "does NOT hold"
        lines.append(f"expected leader {label} = {value:.3f}s vs next {rival} "
                     f"= {rival_s:.3f}s: {verdict}")
    for p in res["problems"]:
        lines.append(f"PROBLEM: {p}")
    return lines


def result_line(res: dict) -> dict:
    if res["trace"]:
        metrics = {k: {"value": res["per_layer"].get(k, 0.0), "unit": unit}
                   for k, (unit, _) in layers.PER_LAYER.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in res["end_to_end"].items()}
    return {"correct": res["correct"], "attempted": max(res["attempted"], 1),
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny sizes, traced and untraced")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or pass --smoke)")
    try:
        if not (SRC / "branchwiener" / "__init__.py").is_file():
            raise SetupError(f"no branchwiener sources under {SRC}; run from a source checkout")
        sys.path.insert(0, str(SRC))
        OUT.mkdir(exist_ok=True)
        if args.smoke:
            return smoke(args.seed)
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), False)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(res, indent=1) + "\n"
    )
    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    print("\n".join(report(res)))
    print(json.dumps(result_line(res)))
    return 0 if res["correct"] else 1


def smoke(seed: int) -> int:
    """Every workload path and output check at tiny sizes."""
    declared = spec()
    ok = (
        {m["name"]: m["unit"] for m in declared.get("end_to_end", [])} == END_TO_END
        and {m["name"]: (m["unit"], m["better"]) for m in declared.get("per_layer", [])}
        == layers.PER_LAYER
        and set(spec_workloads()) == set(workloads.WORKLOADS)
    )
    if not ok:
        print("PROBLEM: BENCHMARK.json does not declare the metrics and workloads run.py reports")
    for name in workloads.WORKLOADS:
        t0 = time.monotonic()
        res = run_workload(name, seed, 0.0, trace=True, smoke=True)
        print("\n".join(report(res)))
        missing = set(layers.PER_LAYER) - set(res["per_layer"])
        if missing or set(res["end_to_end"]) != set(END_TO_END):
            res["correct"] = False
            print(f"PROBLEM: metrics missing: {sorted(missing)}")
        print(f"smoke {name}: {'ok' if res['correct'] else 'FAILED'} "
              f"in {time.monotonic() - t0:.1f}s\n")
        ok &= res["correct"]
        shutil.rmtree(OUT / f"smoke-{name}", ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
