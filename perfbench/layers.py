"""Per-layer metrics from the spans that tracer.py records.

Definitions used throughout:

* a span's *duration* is end - start;
* its *self time* is the duration minus the time its direct child spans
  cover (calls are sequential on one thread, so children never overlap);
* a function's *inclusive time* sums the durations of its outermost spans
  only, so recursion (``contains`` on a union, ``region_from_dict`` on a
  union) is not counted twice;
* a span's *layer time* is the self time of the span plus that of every
  descendant reached through spans of the same module: the time the layer
  spent on behalf of that call, excluding calls into other layers.

The layer of a span is the module part of its name (``simulator`` for
``simulator.step``).
"""

from __future__ import annotations

import re

import numpy as np

#: Per-layer metrics: name -> (unit, better).  Stage metrics (per CLI
#: command, untraced) come first; the rest come from spans and
#: ``python -X importtime``.
PER_LAYER = {
    "simulate_s": ("s", "lower"),
    "analyze_s": ("s", "lower"),
    "particles_per_s": ("1/s", "higher"),
    "snapshot_mb": ("MB", "lower"),
    "infer_s": ("s", "lower"),
    "predict_s": ("s", "lower"),
    "regions_per_s": ("1/s", "higher"),
    "import.total_s": ("s", "lower"),
    "import.scipy_stats_s": ("s", "lower"),
    "import.scipy_special_s": ("s", "lower"),
    "import.branchwiener_self_s": ("s", "lower"),
    "simulator.step.s": ("s", "lower"),
    "simulator.step.calls": ("count", "lower"),
    "simulator.step.particles": ("count", "higher"),
    "simulator.step.ns_per_particle": ("ns", "lower"),
    "simulator.step.small_ms": ("ms", "lower"),
    "simulator.radius_profile.s": ("s", "lower"),
    "simulator.ensemble_states.s": ("s", "lower"),
    "simulator.write.s": ("s", "lower"),
    "simulator.write.mb_per_s": ("MB/s", "higher"),
    "simulator.read.s": ("s", "lower"),
    "simulator.read.mb_per_s": ("MB/s", "higher"),
    "simulator.read.rss_mb": ("MB", "lower"),
    "simulator.count.s": ("s", "lower"),
    "hermite.hermite_table.s": ("s", "lower"),
    "hermite.hermite_table.calls": ("count", "lower"),
    "martingales.estimate_n.s": ("s", "lower"),
    "martingales.ensemble_v_matrix.s": ("s", "lower"),
    "martingales.oracles.s": ("s", "lower"),
    "regions.region_from_dict.s": ("s", "lower"),
    "regions.moment.s": ("s", "lower"),
    "regions.moment.calls": ("count", "lower"),
    "regions.contains.s": ("s", "lower"),
    "expansion.expansion_value.s": ("s", "lower"),
    "expansion.expansion_value.us_per_call": ("us", "lower"),
    "expansion.required_indices.calls": ("count", "lower"),
    "inference.design_matrix.s": ("s", "lower"),
    "inference.solve_n.s": ("s", "lower"),
    "inference.predict.s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

ORACLES = (
    "martingales.second_moment_oracle",
    "martingales.n0_second_moment",
    "martingales.n_second_moment",
    "martingales.n_second_moment_alt",
    "martingales.gw_second_moment",
)

#: Parents with at most this many particles count as small steps, where
#: the per-generation fixed cost (thread pool set-up) dominates.
SMALL_STEP_N = 4096

#: Upper bound on the nesting depth of traced calls, to stop the ancestor
#: walk on a malformed span file.
MAX_DEPTH = 64


class Spans:
    """The spans of one or more traced commands, concatenated."""

    def __init__(self, files: list[str]):
        names: list[str] = []
        parts = []
        base = 0
        for path in files:
            with np.load(path, allow_pickle=False) as z:
                ids = np.array([_intern(names, str(n)) for n in z["names"]], dtype=np.int64)
                parent = z["parent"].astype(np.int64)
                parts.append((
                    ids[z["name"]],
                    np.where(parent >= 0, parent + base, -1),
                    z["start"],
                    z["end"],
                    z["extras"] + np.array([base, 0, 0]),
                ))
                base += len(parent)

        def cat(i, empty):
            return np.concatenate([p[i] for p in parts]) if parts else empty

        self.names = names
        self.name = cat(0, np.zeros(0, np.int64))
        self.parent = cat(1, np.zeros(0, np.int64))
        self.dur = cat(3, np.zeros(0)) - cat(2, np.zeros(0))
        self.extras = cat(4, np.zeros((0, 3), np.int64))
        n = len(self.dur)
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=n
        )
        self.self_time = self.dur - covered
        modules = sorted({nm.split(".", 1)[0] for nm in names})
        module_of_name = np.array(
            [modules.index(nm.split(".", 1)[0]) for nm in names], dtype=np.int64
        )
        self.module_names = modules
        self.module = module_of_name[self.name]
        self.outermost = np.ones(n, dtype=bool)
        anc = self.parent.copy()
        for _ in range(MAX_DEPTH):
            live = anc >= 0
            if not live.any():
                break
            same = np.zeros(n, dtype=bool)
            same[live] = self.name[anc[live]] == self.name[live]
            self.outermost &= ~same
            anc[live] = self.parent[anc[live]]
        # Layer root: the nearest ancestor-or-self whose parent is in
        # another module.  Parents precede children, so one pass suffices.
        root = list(range(n))
        parent, module = self.parent.tolist(), self.module.tolist()
        for i in range(n):
            p = parent[i]
            if p >= 0 and module[p] == module[i]:
                root[i] = root[p]
        self.layer_time = np.bincount(
            np.array(root, dtype=np.int64), weights=self.self_time, minlength=n
        )

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def inclusive(self, *names: str) -> float:
        mask = np.zeros(len(self.dur), dtype=bool)
        for name in names:
            mask |= self._mask(name)
        return float(self.dur[mask & self.outermost].sum())

    def self_of(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def layer_of(self, name: str) -> float:
        return float(self.layer_time[self._mask(name)].sum())

    def extras_of(self, name: str) -> np.ndarray:
        mask = self._mask(name)
        return self.extras[mask[self.extras[:, 0]]] if len(self.extras) else self.extras

    def self_by(self, key: str) -> dict[str, float]:
        """Self time summed by function name or by module ("layer")."""
        if key == "layer":
            ids, labels = self.module, self.module_names
        else:
            ids, labels = self.name, self.names
        sums = np.bincount(ids, weights=self.self_time, minlength=len(labels))
        out = {label: float(s) for label, s in zip(labels, sums)}
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    @property
    def total_self(self) -> float:
        return float(self.self_time.sum())


def _intern(names: list[str], name: str) -> int:
    if name not in names:
        names.append(name)
    return names.index(name)


def span_metrics(spans: Spans, snapshot_bytes: int) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced command sequence.

    ``snapshot_bytes`` is the size of the snapshot file the sequence wrote
    (0 when it wrote none); the write rate is taken against it.
    """
    m: dict[str, float] = {}
    step_s = spans.inclusive("simulator.step")
    step_ex = spans.extras_of("simulator.step")
    particles = int(step_ex[:, 2].sum())
    small = spans.dur[step_ex[step_ex[:, 1] <= SMALL_STEP_N, 0]]
    m["simulator.step.s"] = step_s
    m["simulator.step.calls"] = spans.calls("simulator.step")
    m["simulator.step.particles"] = particles
    m["simulator.step.ns_per_particle"] = step_s / particles * 1e9 if particles else 0.0
    m["simulator.step.small_ms"] = float(np.median(small)) * 1e3 if len(small) else 0.0
    m["simulator.radius_profile.s"] = spans.inclusive("simulator.radius_profile")
    m["simulator.ensemble_states.s"] = spans.inclusive("simulator.ensemble_states")
    write_s = spans.inclusive("simulator.SnapshotWriter.write")
    m["simulator.write.s"] = write_s
    m["simulator.write.mb_per_s"] = snapshot_bytes / 1e6 / write_s if write_s else 0.0
    read_s = spans.inclusive("simulator.read_snapshot_file")
    read_ex = spans.extras_of("simulator.read_snapshot_file")
    m["simulator.read.s"] = read_s
    m["simulator.read.mb_per_s"] = read_ex[:, 1].sum() / 1e6 / read_s if read_s else 0.0
    m["simulator.read.rss_mb"] = read_ex[:, 2].max() / 1024 if len(read_ex) else 0.0
    m["simulator.count.s"] = spans.inclusive("simulator.count")
    m["hermite.hermite_table.s"] = spans.inclusive("hermite.hermite_table")
    m["hermite.hermite_table.calls"] = spans.calls("hermite.hermite_table")
    m["martingales.estimate_n.s"] = spans.layer_of("martingales.estimate_n")
    m["martingales.ensemble_v_matrix.s"] = spans.inclusive("martingales.ensemble_v_matrix")
    m["martingales.oracles.s"] = spans.inclusive(*ORACLES)
    m["regions.region_from_dict.s"] = spans.inclusive("regions.region_from_dict")
    m["regions.moment.s"] = spans.inclusive("regions.moment")
    m["regions.moment.calls"] = spans.calls("regions.moment")
    m["regions.contains.s"] = spans.inclusive("regions.contains")
    ev_s = spans.inclusive("expansion.expansion_value")
    ev_calls = spans.calls("expansion.expansion_value")
    m["expansion.expansion_value.s"] = ev_s
    m["expansion.expansion_value.us_per_call"] = ev_s / ev_calls * 1e6 if ev_calls else 0.0
    m["expansion.required_indices.calls"] = spans.calls("expansion.required_indices")
    m["inference.design_matrix.s"] = spans.inclusive("inference.design_matrix")
    m["inference.solve_n.s"] = spans.inclusive("inference.solve_n")
    m["inference.predict.s"] = spans.layer_of("inference.predict")
    m["cli.main.self_s"] = spans.self_of("cli.main")
    return m


#: What each workload was chosen to stress, as (description, the spans
#: whose time is grouped, function names excluded from the competitors
#: because they are children of the group).  A share check passes when
#: the group's time exceeds the self time of every other function.
EXPECTED_LEADER = {
    "pipeline": (
        "simulator.write.s + simulator.read.s",
        ("simulator.SnapshotWriter.write", "simulator.read_snapshot_file"),
        (),
    ),
    "forecast": (
        "expansion.expansion_value.s (with regions.moment)",
        ("expansion.expansion_value",),
        ("regions.moment",),
    ),
    "diagnose": ("simulator.step.s", ("simulator.step",), ()),
}


def leader_check(workload: str, spans: Spans) -> tuple[str, float, str, float]:
    """(group, group seconds, strongest competitor, its self seconds)."""
    label, group, children = EXPECTED_LEADER[workload]
    value = spans.inclusive(*group)
    others = {
        k: v for k, v in spans.self_by("function").items()
        if k not in group and k not in children
    }
    rival = max(others, key=others.get) if others else "-"
    return label, value, rival, others.get(rival, 0.0)


_IMPORT_LINE = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def import_metrics(stderr: str) -> dict[str, float]:
    """The import breakdown of ``python -X importtime -c 'import branchwiener'``."""
    total = stats = special = own = 0
    for line in stderr.splitlines():
        hit = _IMPORT_LINE.match(line)
        if not hit:
            continue
        self_us, cum_us, name = int(hit.group(1)), int(hit.group(2)), hit.group(3)
        if name == "branchwiener":
            total = cum_us
        elif name == "scipy.stats":
            stats = cum_us
        elif name == "scipy.special":
            special = cum_us
        if name == "branchwiener" or name.startswith("branchwiener."):
            own += self_us
    return {
        "import.total_s": total / 1e6,
        "import.scipy_stats_s": stats / 1e6,
        "import.scipy_special_s": special / 1e6,
        "import.branchwiener_self_s": own / 1e6,
    }
