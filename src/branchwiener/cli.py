"""Batch command-line front end.

Subcommands: simulate, count, kernel-check, estimate-n, expand, infer,
predict, diagnose.  Every run that writes a file also writes a
``<out>.manifest.json`` sidecar recording the subcommand, arguments, inputs
and a timestamp; the data files themselves contain no timestamps, so a
rerun with the same inputs and seed is byte-identical.

Exit codes: 0 success; 2 validation error (bad config, region, arguments);
3 numeric failure (ill-conditioned system); 4 resource cap exceeded, or a
worker process killed; 5 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from functools import partial

import numpy as np

from . import __version__
from . import expansion as xp
from . import inference as inf
from . import kernel_expansion as kx
from . import martingales as mg
from . import regions as rg
from . import simulator as sim
from .errors import ConditioningError, PopulationCapError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_CAP = 4
EXIT_IO = 5


def _manifest(args: argparse.Namespace, inputs, outputs) -> dict:
    arg_view = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    return {
        "tool": "branchwiener",
        "version": __version__,
        "subcommand": args.subcommand,
        "arguments": arg_view,
        "inputs": list(inputs),
        "outputs": list(outputs),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _write_sidecar(out_path: str, manifest: dict) -> None:
    with open(f"{out_path}.manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, default=str)
        fh.write("\n")


def _csv_text(manifest: dict, header: str, rows) -> str:
    """A CSV table headed by the deterministic manifest fields as ``# ``
    comments (the timestamp stays in the sidecar).  Line breaks inside an
    argument are escaped, so every comment stays one line."""
    comments = [f"{manifest['tool']} {manifest['version']} {manifest['subcommand']}"]
    for key, value in manifest["arguments"].items():
        value = str(value).replace("\r", "\\r").replace("\n", "\\n")
        comments.append(f"arg {key}: {value}")
    return "".join(f"# {line}\n" for line in comments) + "".join(
        f"{line}\n" for line in [header, *rows])


def _emit(path: str | None, manifest: dict, text: str) -> None:
    """Write ``text`` to stdout, or to ``path`` and its manifest sidecar."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    _write_sidecar(path, {**manifest, "outputs": [*manifest["outputs"], path]})


def _config(args) -> sim.SimConfig:
    """The config of ``--config``, with ``--seed`` applied through its checks."""
    cfg = sim.SimConfig.from_json(args.config)
    return cfg if args.seed is None else dataclasses.replace(cfg, seed=args.seed)


def _parse_float_list(text: str, what: str) -> list[float]:
    items = [p for p in text.replace(",", " ").split() if p]
    if not items:
        raise ValidationError(f"empty {what} list")
    try:
        return [float(p) for p in items]
    except ValueError as exc:
        raise ValidationError(f"bad {what} entry: {exc}") from exc


def _load_regions(path_or_json: str):
    """A region file may hold one region object or a JSON list of them."""
    obj = rg.load_json(path_or_json, "region")
    return [rg.region_from_dict(o) for o in (obj if isinstance(obj, list) else [obj])]


# ---------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    cfg = _config(args)
    if args.workers < 1:
        raise ValidationError(f"--workers {args.workers} must be >= 1")
    manifest = _manifest(args, [args.config], [args.out])
    try:
        written = sim.run(cfg, out=args.out)
    except PopulationCapError as exc:
        # The partial result keeps its manifest, which records the abort.
        manifest["aborted"] = {"t": exc.t, "population": exc.population, "cap": exc.cap}
        _write_sidecar(args.out, manifest)
        raise
    _write_sidecar(args.out, manifest)
    print(f"{args.out}: {len(written)} snapshots"
          + (", final t={} n={}".format(*written[-1]) if written else ""))
    return EXIT_OK


# ------------------------------------------------------------------- count


def cmd_count(args) -> int:
    _, (snap,) = sim.read_snapshot_file(
        args.snapshots, only="last" if args.t is None else args.t)
    region = _load_regions(args.region)
    if len(region) != 1:
        raise ValidationError("count expects exactly one region")
    value = sim.count(snap, region[0])
    manifest = _manifest(args, [args.snapshots], [])
    if args.format == "json":
        text = json.dumps({"t": snap.t, "count": value}) + "\n"
    elif args.format == "csv":
        text = _csv_text(manifest, "t,count", [f"{snap.t},{value}"])
    else:
        text = f"{value}\n"
    _emit(args.out, manifest, text)
    return EXIT_OK


# ------------------------------------------------------------ kernel-check


def cmd_kernel_check(args) -> int:
    T_list = _parse_float_list(args.T, "T")
    offset = ([0.7] * rg._check_dim(args.d) if args.offset is None
              else _parse_float_list(args.offset, "offset"))
    scan = kx.truncation_error_scan(
        args.d, args.t, offset, args.k, T_list, scaled=not args.raw
    )
    # One row per grid point; the slope column repeats the per-k fit, or is
    # empty where the errors at the float floor leave fewer than two T.
    slope = {k: "" if s is None else repr(s) for k, s in scan.slopes.items()}
    rows = [f"{r.k},{r.T:g},{r.error!r},{slope[r.k]}" for r in scan.rows]
    manifest = _manifest(args, [], [])
    _emit(args.out, manifest,
          _csv_text(manifest, "k,T,error,fitted_slope", rows))
    return EXIT_OK


# -------------------------------------------------------------- estimate-n


def cmd_estimate_n(args) -> int:
    header, (last,) = sim.read_snapshot_file(args.snapshots, only="last")
    law = sim.OffspringLaw(header.get("pmf"), test_mode=True)
    alphas = xp.required_indices(args.k, last.d)
    table = mg.estimate_n(last, alphas, law, k=args.k, seed=header.get("seed"))
    manifest = _manifest(args, [args.snapshots], [args.out])
    table.save(args.out)
    _write_sidecar(args.out, manifest)
    print(f"{args.out}: {len(table.entries)} coefficients from t={last.t}")
    return EXIT_OK


# ---------------------------------------------------------- expand/predict


def cmd_predict(args) -> int:
    """predict and expand: the same evaluation and checks."""
    table = mg.NTable.load(args.table)
    regions = _load_regions(args.region)
    preds = inf.predict_all(regions, args.T, table, k=args.k)
    manifest = _manifest(args, [args.table], [])
    if args.format == "json":
        text = json.dumps([
            {"region_id": i, "T": p.T, "k": p.k, "s_value": p.s_value,
             "normalized_density": p.normalized_density, "raw_count": p.raw_count}
            for i, p in enumerate(preds)
        ], indent=1) + "\n"
    else:
        text = _csv_text(manifest, "region_id,T,k,s_value,normalized_density,raw_count", [
            f"{i},{p.T:g},{p.k},{p.s_value!r},{p.normalized_density!r},"
            + ("" if p.raw_count is None else repr(p.raw_count))
            for i, p in enumerate(preds)
        ])
    _emit(args.out, manifest, text)
    return EXIT_OK


# ------------------------------------------------------------------- infer


def _read_counts_csv(path: str, n_sets: int) -> np.ndarray:
    counts = np.full(n_sets, np.nan)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            rows = [
                row for row in csv.reader(fh)
                if row and not row[0].lstrip().startswith("#")
            ]
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ValidationError(f"bad counts file {path}: {exc}") from None
    if rows and rows[0][:2] == ["region_id", "count"]:
        rows = rows[1:]
    seen = set()
    for row in rows:
        if len(row) < 2:
            raise ValidationError(f"bad counts row: {row}")
        try:
            idx = int(row[0])
            value = float(row[1])
        except ValueError as exc:
            raise ValidationError(f"bad counts row {row}: {exc}") from exc
        if not 0 <= idx < n_sets:
            raise ValidationError(
                f"region_id {idx} outside 0..{n_sets - 1}"
            )
        if idx in seen:
            raise ValidationError(f"region_id {idx} appears more than once")
        if not math.isfinite(value):
            raise ValidationError(f"count {value} for region_id {idx} is not finite")
        seen.add(idx)
        counts[idx] = value
    if np.isnan(counts).any():
        missing = np.nonzero(np.isnan(counts))[0].tolist()
        raise ValidationError(f"counts missing for region_ids {missing}")
    return counts


def cmd_infer(args) -> int:
    sets = _load_regions(args.sets)
    if not sets:
        raise ValidationError(f"--sets {args.sets} holds no regions")
    d = sets[0].dim
    system = inf.design_matrix(sets, args.T0, args.k, d)
    counts = _read_counts_csv(args.counts, len(sets))
    table = inf.solve_n(counts, system, args.m)
    table.save(args.out)
    manifest = _manifest(args, [args.sets, args.counts], [args.out])
    _write_sidecar(args.out, manifest)
    print(
        f"{args.out}: {len(table.entries)} coefficients, "
        f"condition number {system.condition_number:.4g}"
    )
    return EXIT_OK


# ----------------------------------------------------------------- diagnose


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_tasks(tasks):
    """The results of ``tasks``, zero-argument calls that pickle, in task
    order: on one forked process per available CPU, starting with the last
    task, which `cmd_diagnose` makes its longest, or with one CPU, one task
    or no fork, in turn in this process.  Every task is a pure function of
    its seed, so the path does not change the results, and either way the
    first failure in task order is raised.  Returns None, having said why
    on stderr, when a worker process dies abruptly (killed for memory, say)."""
    procs = min(_cpus(), len(tasks))
    if procs > 1:
        import multiprocessing
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
        # Forked workers start with the package imported, where spawned ones
        # would each pay an interpreter start-up.
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            try:
                # Leaving the block waits for every worker process to exit;
                # a broken pool has ended the others first.
                with ProcessPoolExecutor(procs, mp_context=context) as pool:
                    futures = [pool.submit(task) for task in reversed(tasks)]
                    return [f.result() for f in reversed(futures)]
            except BrokenExecutor as exc:
                print(f"aborted: {exc}", file=sys.stderr)
                return None
    return [task() for task in tasks]


def cmd_diagnose(args) -> int:
    cfg = _config(args)
    if args.runs < 0:
        raise ValidationError(f"--runs {args.runs} must be >= 0")
    if args.replicas < 1:
        raise ValidationError(f"--replicas {args.replicas}: need at least one replica")
    eps = args.epsilon
    if not (math.isfinite(eps) and eps >= -1.0):
        raise ValidationError(f"--epsilon {eps} must be a finite real >= -1")
    what = f"--epsilon {eps}: the bound t^(1+epsilon) overflows a float at t_max={cfg.t_max}"
    kx._power(cfg.t_max, 1.0 + eps, what)  # the largest bound, so no run is wasted
    law = cfg.law
    e1 = tuple([1] + [0] * (cfg.d - 1))
    alphas = ((0,) * cfg.d, e1)
    # Everything is computed before any file is opened, so a run stopped by
    # the population cap leaves no output behind.  The first failure in task
    # order is raised: the radius runs', then the ensemble's.
    seeds = [(cfg.seed + r) % 2**64 for r in range(args.runs)]
    tasks = [partial(sim.radius_profile, dataclasses.replace(cfg, seed=s)) for s in seeds]
    tasks.append(partial(mg.l2_increment_diagnostic, args.replicas, alphas,
                         min(cfg.t_max, 8), law, seed=cfg.seed,
                         population_cap=cfg.population_cap))
    results = _run_tasks(tasks)
    if results is None:
        return EXIT_CAP
    *profiles, tables = results

    # Radius-versus-t^(1+eps) check over independent runs.
    radius = []
    worst = 0.0
    for r, (seed, profile) in enumerate(zip(seeds, profiles)):
        for t, rad in profile:
            bound = kx._power(float(t), 1.0 + eps, what)
            ok = int(t == 0 or rad <= bound)
            if t > 0:
                worst = max(worst, rad / bound)
            radius.append(f"{r},{seed},{t},{rad!r},{bound!r},{ok}")

    # L^2 increment decay of the normalized statistics.
    increments = []
    for alpha, table in zip(alphas, tables):
        tag = "+".join(str(c) for c in alpha)
        for row in table.rows:
            increments.append(
                f"{tag},2,{row.t},{row.empirical_norm!r},{row.exact_norm!r}")
        ratio = table.mean_successive_ratio()
        increments.append(f"# mean successive ratio alpha=({tag}) t in [2,8]: {ratio!r}")

    # Closed-form limit second moments E[N_alpha^2].
    moments = []
    if law.mean > 1.0:
        moments.append(f"{'+'.join('0' * cfg.d)},{mg.n0_second_moment(law)!r}")
        for alpha in (e1, tuple(2 * c for c in e1)):
            tag = "+".join(str(c) for c in alpha)
            moments.append(f"{tag},{mg.n_second_moment(alpha, law)!r}")
    else:
        moments.append("# law is not supercritical; limit moments undefined")

    manifest = _manifest(args, [args.config], [])
    for part, header, rows in (
        ("radius", "run,seed,t,max_radius,bound,ok", radius),
        ("increments", "alpha,p,t,empirical_norm,exact_norm", increments),
        ("moments", "alpha,limit_second_moment", moments),
    ):
        path = f"{args.out}.{part}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_csv_text(manifest, header, rows))
        manifest["outputs"].append(path)
    _write_sidecar(args.out, manifest)
    print(f"{args.out}.{{radius,increments,moments}}.csv written; "
          f"worst radius/bound ratio {worst:.4g}")
    return EXIT_OK


# ------------------------------------------------------------------ parser


def _add_predict_parser(sub, name: str, help_text: str) -> None:
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--table", required=True, help="coefficient table JSON")
    p.add_argument("--region", required=True,
                   help="region JSON (object or list; path or inline)")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--k", type=int, default=None, help="order (default: table's)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_predict)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchwiener",
        description=(
            "Branching Wiener process simulation, Hermite-expansion density "
            "analysis, and count-based coefficient inference."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="run the particle process from a config")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", required=True, help="snapshot file to write")
    p.add_argument("--workers", type=int, default=1,
                   help="no effect: steps run on the calling thread (must be >= 1)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("count", help="count particles of a snapshot in a region")
    p.add_argument("snapshots", help="snapshot file")
    p.add_argument("--region", required=True, help="region JSON (path or inline)")
    p.add_argument("--t", type=int, default=None, help="snapshot time (default last)")
    p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("kernel-check", help="measure kernel truncation error decay")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--k", type=int, default=2, help="largest truncation order")
    p.add_argument("--T", default="64,128,256,512", help="comma-separated horizons")
    p.add_argument("--offset", default=None,
                   help="evaluation point, comma-separated (default 0.7 per axis)")
    p.add_argument("--raw", action="store_true",
                   help="report raw errors instead of (2 pi T)^(d/2)-scaled")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_kernel_check)

    p = sub.add_parser("estimate-n",
                       help="estimate coefficients from the last snapshot of a file")
    p.add_argument("snapshots", help="snapshot file; its header pmf gives the law")
    p.add_argument("--k", type=int, required=True, help="expansion order to cover")
    p.add_argument("--out", required=True, help="coefficient table JSON to write")
    p.set_defaults(func=cmd_estimate_n)

    _add_predict_parser(sub, "expand", "evaluate the density expansion for "
                        "regions (same as predict)")

    p = sub.add_parser("infer", help="solve for coefficients from observed counts")
    p.add_argument("--counts", required=True, help="CSV region_id,count")
    p.add_argument("--sets", required=True, help="JSON list of observation regions")
    p.add_argument("--T0", type=float, required=True, help="observation time")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=float, required=True, help="offspring mean")
    p.add_argument("--out", required=True, help="coefficient table JSON to write")
    p.set_defaults(func=cmd_infer)

    _add_predict_parser(sub, "predict", "forecast normalized counts from a table")

    p = sub.add_parser("diagnose", help="radius, increment, and moment diagnostics")
    p.add_argument("--config", required=True, help="simulation config JSON")
    p.add_argument("--seed", type=int, default=None, help="base seed override")
    p.add_argument("--out", required=True, help="output prefix")
    p.add_argument("--runs", type=int, default=20, help="radius-check runs")
    p.add_argument("--epsilon", type=float, default=1.0,
                   help="radius bound exponent: t^(1+epsilon)")
    p.add_argument("--replicas", type=int, default=400,
                   help="replicas for the increment norms")
    p.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConditioningError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except PopulationCapError as exc:
        partial = ("; the snapshots completed before it remain valid as a "
                   "partial result" if args.subcommand == "simulate" else "")
        print(f"aborted: {exc}{partial}", file=sys.stderr)
        return EXIT_CAP
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
