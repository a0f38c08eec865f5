"""The benchmark's three workloads: their generated inputs, their command
sequences and the checks on every output.

Each workload is one closed loop of real ``branchwiener`` commands, run one
at a time.  Inputs are generated from the benchmark seed and the program
receives only those files.  Checks test exact invariants (doubling law,
recounts, an independent expansion and the moment oracles), never stored
output bytes, so a change of sampler or file format needs no edit here.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

@dataclass
class Command:
    label: str
    args: list[str]
    outputs: list[Path]


@dataclass
class Result:
    label: str
    wall_s: float
    maxrss_kb: int
    returncode: int
    stderr: str


#: Runs one CLI command untimed (for references) and returns its result.
RunCommand = Callable[[Command], Result]


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, separators=(",", ":")) + "\n", encoding="utf-8")


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.work = work
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.snapshot_bytes = 0

    def prepare(self, run: RunCommand) -> list[str]:
        """Write inputs and make the references; returns problems found."""
        raise NotImplementedError

    def commands(self, repeat: int) -> list[Command]:
        raise NotImplementedError

    def check(self) -> list[str]:
        """Problems in the outputs of the last command sequence."""
        raise NotImplementedError

    def stages(self, walls: dict[str, float]) -> dict[str, float]:
        """Per-command stage metrics of one untraced sequence."""
        return {}


class Pipeline(Workload):
    """simulate (a11 config) -> estimate-n --k 2 -> count one box."""

    name = "pipeline"

    def __init__(self, work, seed, smoke, workers: int):
        super().__init__(work, seed, smoke)
        self.d, self.t_max, self.times = (1, 6, [3, 5, 6]) if smoke else (3, 20, [10, 15, 20])
        self.workers = workers
        self.config = work / "a11.json"
        self.box_path = work / "box.json"
        self.snap = work / "run.snap"
        self.table = work / "table.json"
        self.count_out = work / "count.json"

    def prepare(self, run):
        scale = math.sqrt(self.t_max)
        lower = self.rng.uniform(-0.8, -0.2, self.d) * scale
        upper = lower + self.rng.uniform(0.6, 1.2, self.d) * scale
        self.box = {"type": "box", "lower": lower.tolist(), "upper": upper.tolist()}
        _write_json(self.box_path, self.box)
        _write_json(self.config, {
            "d": self.d,
            "pmf": [0.0, 0.0, 1.0],
            "seed": int(self.rng.integers(2**63)),
            "t_max": self.t_max,
            "snapshot_times": self.times,
            "test_mode": True,
        })
        # Worker-invariance reference: the same run on one worker.
        ref_snap = self.work / "ref-w1.snap"
        res = run(Command("simulate-w1", self._simulate_args(ref_snap, 1), [ref_snap]))
        if res.returncode != 0:
            return [f"reference simulate exited {res.returncode}"]
        self.ref_digest = _digest(ref_snap)
        problems = self._decode_reference(ref_snap)
        ref_snap.unlink()
        return problems

    def _decode_reference(self, path: Path) -> list[str]:
        # Decoding goes through the program's own reader so that a new
        # file format needs no benchmark change; the invariants are ours.
        from branchwiener.simulator import read_snapshot_file

        _, snaps = read_snapshot_file(str(path))
        problems = []
        if [s.t for s in snaps] != self.times:
            problems.append(f"snapshot times {[s.t for s in snaps]} != {self.times}")
        for s in snaps:
            if s.n != 2**s.t:
                problems.append(f"n_{s.t} = {s.n}, doubling law says {2**s.t}")
        last = snaps[-1].positions
        inside = np.all((last >= self.box["lower"]) & (last < self.box["upper"]), axis=1)
        self.expected_count = int(np.count_nonzero(inside))
        return problems

    def _simulate_args(self, out: Path, workers: int) -> list[str]:
        return ["simulate", "--config", str(self.config), "--out", str(out),
                "--workers", str(workers)]

    def commands(self, repeat):
        return [
            Command("simulate", self._simulate_args(self.snap, self.workers), [self.snap]),
            Command("estimate-n", ["estimate-n", str(self.snap), "--k", "2",
                                   "--out", str(self.table)], [self.table]),
            Command("count", ["count", str(self.snap), "--region", str(self.box_path),
                              "--format", "json", "--out", str(self.count_out)],
                    [self.count_out]),
        ]

    def check(self):
        problems = []
        self.snapshot_bytes = self.snap.stat().st_size
        if _digest(self.snap) != self.ref_digest:
            problems.append(f"--workers {self.workers} snapshot differs from --workers 1")
        table = json.loads(self.table.read_text())
        n0 = [e["value"] for e in table["entries"] if not any(e["alpha"])]
        if n0 != [1.0]:
            problems.append(f"estimate-n N_0 = {n0}, doubling law says exactly 1")
        got = json.loads(self.count_out.read_text())
        if got != {"t": self.t_max, "count": self.expected_count}:
            problems.append(f"count {got} != recount {self.expected_count}")
        return problems

    def stages(self, walls):
        simulate_s = walls["simulate"]
        return {
            "simulate_s": simulate_s,
            "analyze_s": walls["estimate-n"] + walls["count"],
            # Doubling law: n_t = 2^t, so sum_{t=1..t_max} n_t = 2^(t_max+1) - 2.
            "particles_per_s": (2 ** (self.t_max + 1) - 2) / simulate_s,
            "snapshot_mb": self.snapshot_bytes / 1e6,
        }


class Forecast(Workload):
    """infer (d=1 boxes) -> predict --T 30 -> expand --T 60 (d=3 regions)."""

    name = "forecast"
    K, M, T0, T_PREDICT, T_EXPAND = 2, 1.5, 25.0, 30.0, 60.0

    def __init__(self, work, seed, smoke):
        super().__init__(work, seed, smoke)
        self.n_sets, self.n_regions, self.d = (20, 30, 1) if smoke else (1000, 2000, 3)
        self.sets_path = work / "sets.json"
        self.counts_path = work / "counts.csv"
        self.table_path = work / "table.json"
        self.regions_path = work / "regions.json"
        self.inferred = work / "inferred.json"
        self.predict_out = work / "predict.csv"
        self.expand_out = work / "expand.csv"

    def _table(self, d: int) -> dict:
        gammas = ref.required_indices(self.K, d)
        signs = self.rng.choice([-1.0, 1.0], len(gammas))
        values = signs * self.rng.uniform(0.2, 1.5, len(gammas))
        values[0] = abs(values[0])  # N_0 > 0
        return dict(zip(gammas, values.tolist()))

    @staticmethod
    def _table_json(table: dict, d: int, k: int, m: float) -> dict:
        entries = [{"alpha": list(g), "value": v, "err": None} for g, v in table.items()]
        return {"k": k, "d": d, "m": m, "entries": entries, "meta": {}}

    def _sets(self) -> list[dict]:
        """Disjoint d=1 intervals with random widths and gaps, covering
        about [-10, 10] whatever their number (condition number ~2e4)."""
        unit = 20.0 / (1.45 * self.n_sets)
        widths = self.rng.uniform(0.4, 1.6, self.n_sets) * unit
        gaps = self.rng.uniform(0.1, 0.8, self.n_sets) * unit
        edges = np.cumsum(widths + gaps)
        lower = edges - widths - edges[-1] / 2.0
        upper = lower + widths
        return [{"type": "box", "lower": [a], "upper": [b]} for a, b in zip(lower, upper)]

    def _leaf(self, d: int, center: np.ndarray) -> dict:
        if self.rng.random() < 0.5:
            half = self.rng.uniform(0.1, 1.0, d)
            return {"type": "box", "lower": (center - half).tolist(),
                    "upper": (center + half).tolist()}
        return {"type": "ball", "center": center.tolist(),
                "radius": float(self.rng.uniform(0.2, 1.2))}

    def _regions(self, d: int) -> list[dict]:
        """Distinct boxes, balls and two-member unions; union members sit
        10 apart along the first axis, so they never overlap."""
        out = []
        for _ in range(self.n_regions):
            center = self.rng.uniform(-5.0, 5.0, d)
            if self.rng.random() < 0.2:
                far = center.copy()
                far[0] += 10.0
                out.append({"type": "union",
                            "members": [self._leaf(d, center), self._leaf(d, far)]})
            else:
                out.append(self._leaf(d, center))
        return out

    def prepare(self, run):
        self.truth = self._table(1)
        sets = self._sets()
        s_values, _ = ref.Expansion(sets, self.K, 1).values(self.T0, self.truth)
        counts = (2 * math.pi * self.T0) ** -0.5 * self.M**self.T0 * s_values
        _write_json(self.sets_path, sets)
        with open(self.counts_path, "w", encoding="utf-8") as fh:
            fh.write("region_id,count\n")
            fh.writelines(f"{i},{c!r}\n" for i, c in enumerate(counts.tolist()))

        table = self._table(self.d)
        _write_json(self.table_path, self._table_json(table, self.d, self.K, self.M))
        regions = self._regions(self.d)
        _write_json(self.regions_path, regions)
        expansion = ref.Expansion(regions, self.K, self.d)
        self.expected = {T: expansion.values(T, table) for T in (self.T_PREDICT, self.T_EXPAND)}

        # expand is checked against a predict run at its own horizon.
        ref_out = self.work / "predict-ref.csv"
        res = run(Command("predict-ref", self._predict_args("predict", self.T_EXPAND, ref_out),
                          [ref_out]))
        if res.returncode != 0:
            return [f"reference predict exited {res.returncode}"]
        self.predict_ref = _read_rows(ref_out)
        return self._check_predictions(self.predict_ref, self.T_EXPAND, "predict --T 60")

    def _predict_args(self, cmd: str, T: float, out: Path) -> list[str]:
        return [cmd, "--table", str(self.table_path), "--region", str(self.regions_path),
                "--T", repr(T), "--out", str(out)]

    def commands(self, repeat):
        return [
            Command("infer", ["infer", "--counts", str(self.counts_path),
                              "--sets", str(self.sets_path), "--T0", repr(self.T0),
                              "--k", str(self.K), "--m", repr(self.M),
                              "--out", str(self.inferred)], [self.inferred]),
            Command("predict", self._predict_args("predict", self.T_PREDICT, self.predict_out),
                    [self.predict_out]),
            Command("expand", self._predict_args("expand", self.T_EXPAND, self.expand_out),
                    [self.expand_out]),
        ]

    def _check_predictions(self, rows: list[dict], T: float, what: str) -> list[str]:
        """s_value against the independent S_k to 1e-10 of the sum of |terms|,
        and the density column against its definition."""
        value, scale = self.expected[T]
        if [int(r["region_id"]) for r in rows] != list(range(self.n_regions)):
            return [f"{what}: region ids are not 0..{self.n_regions - 1}"]
        bad = 0
        for r, v, sc in zip(rows, value.tolist(), scale.tolist()):
            s = float(r["s_value"])
            density = (2 * math.pi * T) ** (-self.d / 2) * s
            bad += not (_close(s, v, 1e-10 * sc)
                        and _close(float(r["normalized_density"]), density, 1e-12 * abs(density)))
        return [f"{what}: {bad} of {len(rows)} rows disagree with S_k"] if bad else []

    def check(self):
        problems = []
        inferred = json.loads(self.inferred.read_text())
        got = {tuple(e["alpha"]): e["value"] for e in inferred["entries"]}
        if set(got) != set(self.truth):
            problems.append(f"infer returned indices {sorted(got)}")
        else:
            worst = max(abs(got[g] - v) / abs(v) for g, v in self.truth.items())
            if not worst <= 1e-8:
                problems.append(f"infer recovers the truth only to {worst:.3g} relative")
        problems += self._check_predictions(_read_rows(self.predict_out), self.T_PREDICT,
                                            "predict --T 30")
        expand = _read_rows(self.expand_out)
        _, scale = self.expected[self.T_EXPAND]
        if len(expand) != len(self.predict_ref):
            problems.append("expand and predict return different row counts")
        else:
            bad = sum(
                not (_close(float(e["s_value"]), float(p["s_value"]), 1e-10 * sc)
                     and _close(float(e["normalized_density"]), float(p["normalized_density"]),
                                1e-10 * sc)
                     and (e["raw_count"] == "") == (p["raw_count"] == ""))
                for e, p, sc in zip(expand, self.predict_ref, scale.tolist())
            )
            if bad:
                problems.append(f"expand disagrees with predict at T=60 on {bad} rows")
        return problems

    def stages(self, walls):
        predict_s = walls["predict"] + walls["expand"]
        return {
            "infer_s": walls["infer"],
            "predict_s": predict_s,
            "regions_per_s": 2 * self.n_regions / predict_s,
        }


class Diagnose(Workload):
    """diagnose --runs 30 --replicas 20000 on a d=2, pmf [0,.5,.5] config."""

    name = "diagnose"
    PMF = [0.0, 0.5, 0.5]
    INCREMENT_T_MAX = 8  # diagnose caps the increment table at t = 8

    def __init__(self, work, seed, smoke):
        super().__init__(work, seed, smoke)
        self.d, self.t_max, self.runs, self.replicas = (
            (1, 6, 2, 50) if smoke else (2, 30, 30, 20000)
        )
        # The radius runs' population varies with the seed (N_0 has
        # variance 1/3 here), so repeats cycle through several base seeds
        # and the median evens the work out.
        self.seeds = [int(s) for s in self.rng.integers(2**62, size=8)]
        self.config = work / "diag.json"
        self.prefix = work / "diag"
        self.outputs = [Path(f"{self.prefix}.{part}.csv")
                        for part in ("radius", "increments", "moments")]

    def prepare(self, run):
        _write_json(self.config, {"d": self.d, "pmf": self.PMF, "seed": self.seeds[0],
                                  "t_max": self.t_max})
        return []

    def commands(self, repeat):
        self.base_seed = self.seeds[repeat % len(self.seeds)]
        return [Command("diagnose", [
            "diagnose", "--config", str(self.config), "--seed", str(self.base_seed),
            "--out", str(self.prefix), "--runs", str(self.runs),
            "--replicas", str(self.replicas)], self.outputs)]

    def check(self):
        missing = [p.name for p in self.outputs if not p.is_file()]
        if missing:
            return [f"diagnose did not write {missing}"]
        problems = []
        m, var = ref.law_moments(self.PMF)
        radius = _read_rows(self.outputs[0])
        expected = [(r, (self.base_seed + r) % 2**64, t)
                    for r in range(self.runs) for t in range(self.t_max + 1)]
        if [(int(x["run"]), int(x["seed"]), int(x["t"])) for x in radius] != expected:
            problems.append("radius table does not cover every run and generation")
        zero = "+".join("0" * self.d)
        e1 = "+".join(["1"] + ["0"] * (self.d - 1))
        increments = _read_rows(self.outputs[1])
        for row in increments:
            alpha = tuple(int(c) for c in row["alpha"].split("+"))
            exact = ref.increment_norm(alpha, int(row["t"]), m, var)
            if not _close(float(row["exact_norm"]), exact, 1e-12 * exact):
                problems.append(f"exact_norm {row['alpha']} t={row['t']} != oracle {exact!r}")
        tags = [r["alpha"] for r in increments]
        t_inc = min(self.t_max, self.INCREMENT_T_MAX)
        if sorted(tags) != sorted([zero] * t_inc + [e1] * t_inc):
            problems.append(f"increment table rows {sorted(set(tags))} incomplete")
        moments = {r["alpha"]: r for r in _read_rows(self.outputs[2])}
        n0 = ref.n0_second_moment(m, var)
        if zero not in moments or not _close(
            float(moments[zero]["limit_second_moment"]), n0, 1e-12 * n0
        ):
            problems.append(f"moments row {zero} != E[N_0^2] = {n0!r}")
        return problems


WORKLOADS = {"pipeline": Pipeline, "forecast": Forecast, "diagnose": Diagnose}


def make(name: str, work: Path, seed: int, smoke: bool, workers: int) -> Workload:
    if name == "pipeline":
        return Pipeline(work, seed, smoke, workers)
    return WORKLOADS[name](work, seed, smoke)
