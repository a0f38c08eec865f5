"""Batch command-line front end.

Subcommands: simulate, count, kernel-check, estimate-n, expand, infer,
predict, diagnose.  Every run that writes a file also writes a
``<out>.manifest.json`` sidecar recording the subcommand, arguments, inputs
and a timestamp; the data files themselves contain no timestamps, so a
rerun with the same inputs and seed is byte-identical.

Exit codes: 0 success; 2 validation error (bad config, region, arguments);
3 numeric failure (ill-conditioned system); 4 resource cap exceeded;
5 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

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


def _manifest(subcommand: str, args: argparse.Namespace, inputs, outputs) -> dict:
    skip = {"func"}
    arg_view = {
        k: v for k, v in sorted(vars(args).items()) if k not in skip
    }
    return {
        "tool": "branchwiener",
        "version": __version__,
        "subcommand": subcommand,
        "arguments": arg_view,
        "inputs": list(inputs),
        "outputs": list(outputs),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _write_sidecar(out_path: str, manifest: dict) -> None:
    with open(f"{out_path}.manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, default=str)
        fh.write("\n")


def _comment_lines(manifest: dict) -> list[str]:
    """Deterministic manifest fields embedded as CSV comments (the
    timestamp stays in the sidecar only)."""
    lines = [f"{manifest['tool']} {manifest['version']} {manifest['subcommand']}"]
    for key, value in manifest["arguments"].items():
        lines.append(f"arg {key}: {value}")
    return lines


class _OutSink:
    """Either a real file (plus manifest sidecar) or stdout."""

    def __init__(self, path: str | None, manifest: dict):
        self.path = path
        self.manifest = manifest

    def __enter__(self):
        if self.path is None:
            return sys.stdout
        self._fh = open(self.path, "w", encoding="utf-8")
        return self._fh

    def __exit__(self, exc_type, *rest):
        if self.path is not None:
            self._fh.close()
            if exc_type is None:
                manifest = dict(self.manifest)
                manifest["outputs"] = list(manifest["outputs"]) + [self.path]
                _write_sidecar(self.path, manifest)


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


def _pick_snapshot(snaps, t):
    if t is None:
        return snaps[-1]
    for s in snaps:
        if s.t == t:
            return s
    raise ValidationError(
        f"no snapshot at t={t}; file holds t in {[s.t for s in snaps]}"
    )


# ---------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    cfg = sim.SimConfig.from_json(args.config)
    if args.seed is not None:
        d = cfg.to_dict()
        d["seed"] = args.seed
        cfg = sim.SimConfig.from_dict(d)
    manifest = _manifest("simulate", args, [args.config], [args.out])
    kept = sim.run(cfg, out=args.out, workers=args.workers)
    _write_sidecar(args.out, manifest)
    final = kept[-1] if kept else None
    print(
        f"{args.out}: {len(kept)} snapshots"
        + (f", final t={final.t} n={final.n}" if final else "")
    )
    return EXIT_OK


# ------------------------------------------------------------------- count


def cmd_count(args) -> int:
    _, snaps = sim.read_snapshot_file(args.snapshots)
    if not snaps:
        raise ValidationError(f"{args.snapshots} holds no snapshots")
    region = _load_regions(args.region)
    if len(region) != 1:
        raise ValidationError("count expects exactly one region")
    snap = _pick_snapshot(snaps, args.t)
    value = sim.count(snap, region[0])
    manifest = _manifest("count", args, [args.snapshots], [])
    with _OutSink(args.out, manifest) as fh:
        if args.format == "json":
            fh.write(json.dumps({"t": snap.t, "count": value}) + "\n")
        elif args.format == "csv":
            for line in _comment_lines(manifest):
                fh.write(f"# {line}\n")
            fh.write("t,count\n")
            fh.write(f"{snap.t},{value}\n")
        else:
            fh.write(f"{value}\n")
    return EXIT_OK


# ------------------------------------------------------------ kernel-check


def cmd_kernel_check(args) -> int:
    T_list = _parse_float_list(args.T, "T")
    offset = (
        [0.7] * args.d if args.offset is None
        else _parse_float_list(args.offset, "offset")
    )
    scan = kx.truncation_error_scan(
        args.d, args.t, offset, args.k, T_list, scaled=not args.raw
    )
    manifest = _manifest("kernel-check", args, [], [])
    with _OutSink(args.out, manifest) as fh:
        scan.write_csv(fh, comments=_comment_lines(manifest))
    return EXIT_OK


# -------------------------------------------------------------- estimate-n


def cmd_estimate_n(args) -> int:
    header, snaps = sim.read_snapshot_file(args.snapshots)
    if not snaps:
        raise ValidationError(f"{args.snapshots} holds no snapshots")
    m = args.m
    if m is None:
        m = sim.OffspringLaw(header.get("pmf"), test_mode=True).mean
    d = snaps[-1].d
    alphas = xp.required_indices(args.k, d)
    table = mg.estimate_n(snaps, alphas, m, k=args.k, seed=header.get("seed"))
    manifest = _manifest("estimate-n", args, [args.snapshots], [args.out])
    table.save(args.out)
    _write_sidecar(args.out, manifest)
    print(f"{args.out}: {len(table.entries)} coefficients from t={snaps[-1].t}")
    return EXIT_OK


# ---------------------------------------------------------- expand/predict


def _emit_predictions(args, preds, manifest) -> None:
    with _OutSink(args.out, manifest) as fh:
        if args.format == "json":
            payload = [
                {
                    "region_id": i,
                    "T": p.T,
                    "k": p.k,
                    "s_value": p.s_value,
                    "normalized_density": p.normalized_density,
                    "raw_count": p.raw_count,
                }
                for i, p in enumerate(preds)
            ]
            fh.write(json.dumps(payload, indent=1) + "\n")
        else:
            for line in _comment_lines(manifest):
                fh.write(f"# {line}\n")
            fh.write("region_id,T,k,s_value,normalized_density,raw_count\n")
            for i, p in enumerate(preds):
                raw = "" if p.raw_count is None else repr(p.raw_count)
                fh.write(
                    f"{i},{p.T:g},{p.k},{p.s_value!r},"
                    f"{p.normalized_density!r},{raw}\n"
                )


def cmd_predict(args) -> int:
    """predict and expand: the same evaluation and checks."""
    table = mg.NTable.load(args.table)
    regions = _load_regions(args.region)
    preds = inf.predict_all(regions, args.T, table, k=args.k)
    manifest = _manifest(args.subcommand, args, [args.table], [])
    _emit_predictions(args, preds, manifest)
    return EXIT_OK


# ------------------------------------------------------------------- infer


def _read_counts_csv(path: str, n_sets: int) -> np.ndarray:
    counts = np.full(n_sets, np.nan)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [
            row for row in csv.reader(fh)
            if row and not row[0].lstrip().startswith("#")
        ]
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
    manifest = _manifest("infer", args, [args.sets, args.counts], [args.out])
    _write_sidecar(args.out, manifest)
    print(
        f"{args.out}: {len(table.entries)} coefficients, "
        f"condition number {system.condition_number:.4g}"
    )
    return EXIT_OK


# ----------------------------------------------------------------- diagnose


def cmd_diagnose(args) -> int:
    cfg = sim.SimConfig.from_json(args.config)
    base_seed = cfg.seed if args.seed is None else args.seed
    manifest = _manifest("diagnose", args, [args.config], [])
    law = cfg.law
    outputs = []

    # Radius-versus-t^(1+eps) check over independent runs.
    radius_path = f"{args.out}.radius.csv"
    worst = 0.0
    with open(radius_path, "w", encoding="utf-8") as fh:
        for line in _comment_lines(manifest):
            fh.write(f"# {line}\n")
        fh.write("run,seed,t,max_radius,bound,ok\n")
        for r in range(args.runs):
            seed = (base_seed + r) % 2**64
            d = cfg.to_dict()
            d["seed"] = seed
            profile = sim.radius_profile(sim.SimConfig.from_dict(d))
            for t, radius in profile:
                bound = float(t) ** (1.0 + args.epsilon)
                ok = int(t == 0 or radius <= bound)
                if t > 0:
                    worst = max(worst, radius / bound)
                fh.write(f"{r},{seed},{t},{radius!r},{bound!r},{ok}\n")
    outputs.append(radius_path)

    # L^2 increment decay of the normalized statistics.
    inc_path = f"{args.out}.increments.csv"
    e1 = tuple([1] + [0] * (cfg.d - 1))
    with open(inc_path, "w", encoding="utf-8") as fh:
        for line in _comment_lines(manifest):
            fh.write(f"# {line}\n")
        fh.write("alpha,p,t,empirical_norm,exact_norm\n")
        alphas = ((0,) * cfg.d, e1)
        tables = mg.lp_increment_diagnostic(
            args.replicas, alphas, 2, min(cfg.t_max, 8), law, seed=base_seed
        )
        for alpha, table in zip(alphas, tables):
            tag = "+".join(str(c) for c in alpha)
            for row in table.rows:
                exact = "" if row.exact_norm is None else repr(row.exact_norm)
                fh.write(f"{tag},2,{row.t},{row.empirical_norm!r},{exact}\n")
            ratio = table.mean_successive_ratio()
            fh.write(f"# mean successive ratio alpha=({tag}) t in [2,8]: {ratio!r}\n")
    outputs.append(inc_path)

    # Limit second moments: recursion-consistent value vs. the variant
    # closed form (they disagree; both are reported on purpose).
    mom_path = f"{args.out}.moments.csv"
    with open(mom_path, "w", encoding="utf-8") as fh:
        for line in _comment_lines(manifest):
            fh.write(f"# {line}\n")
        fh.write("alpha,limit_second_moment,variant_closed_form\n")
        if law.mean > 1.0:
            zero = "+".join("0" * cfg.d)
            fh.write(f"{zero},{mg.n0_second_moment(law)!r},\n")
            for alpha in (e1, tuple(2 * c for c in e1)):
                tag = "+".join(str(c) for c in alpha)
                fh.write(
                    f"{tag},{mg.n_second_moment(alpha, law)!r},"
                    f"{mg.n_second_moment_alt(alpha, law)!r}\n"
                )
        else:
            fh.write("# law is not supercritical; limit moments undefined\n")
    outputs.append(mom_path)

    manifest["outputs"] = outputs
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
                   help="worker threads (output is identical for any value)")
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

    p = sub.add_parser("estimate-n", help="estimate coefficients from a trajectory")
    p.add_argument("snapshots", help="snapshot file with one or more times")
    p.add_argument("--k", type=int, required=True, help="expansion order to cover")
    p.add_argument("--m", type=float, default=None,
                   help="offspring mean (default: from the file header pmf)")
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
        print(
            f"aborted: {exc}; snapshots before generation {exc.t} "
            "remain valid as a partial result",
            file=sys.stderr,
        )
        return EXIT_CAP
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
