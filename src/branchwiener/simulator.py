"""Branching Wiener process simulator.

The process starts from one particle. Each generation, every particle dies
and leaves Y offspring (Y drawn from a finite offspring law), and each
offspring immediately diffuses for one unit of time: its position is the
parent's death position plus an independent standard d-dimensional Gaussian.
Snapshots are taken after displacement, so siblings are conditionally
independent given the parent's position.

Every draw comes from the counter-based stream of `sampler`.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import zlib
from dataclasses import MISSING, dataclass, fields
from typing import Iterator

import numpy as np

from .errors import PopulationCapError, ValidationError
from . import regions as _regions
from . import sampler
from .sampler import SAMPLER_NAME

DEFAULT_POPULATION_CAP = 10**8
SNAPSHOT_FORMAT_VERSION = 4
# Longest header or record line the reader accepts (records are ~100 bytes).
_MAX_RECORD_LINE = 1 << 20

#: Parents per block of the branching kernel.  Also the largest leaf of
#: `martingales.v_alpha_many`, whose sums keep the bits of `np.sum` only
#: while it is at least 128.
BLOCK = 1 << 13
#: Parents per part of a run, which `run` and `radius_profile` walk depth
#: first; `martingales.ensemble_v_matrix`, whose generations are all wide,
#: walks its replicas in parts of BLOCK parents.
_RUN_CHUNK = 4 * BLOCK


def _check_int(value, what: str, low: int, high: int | None = None) -> int:
    """value as an int in [low, high); bools, floats and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if value < low or (high is not None and value >= high):
        top = "inf" if high is None else high
        raise ValidationError(f"{what} {value} outside [{low}, {top})")
    return int(value)


@dataclass(frozen=True)
class OffspringLaw:
    """Finite offspring distribution p_0..p_L.

    Strict (production) laws must be supercritical with spread: mean > 1 and
    variance > 0.  ``test_mode=True`` admits any valid pmf — deterministic
    doubling, pure death, critical laws — for controlled experiments.
    """

    pmf: tuple[float, ...]
    test_mode: bool = False

    def __post_init__(self):
        pmf = _regions._as_float_tuple(self.pmf, "pmf")
        object.__setattr__(self, "pmf", pmf)
        if any(p < 0 for p in pmf):
            raise ValidationError("pmf entries must be >= 0")
        if abs(math.fsum(pmf) - 1.0) > 1e-12:
            raise ValidationError(f"pmf sums to {math.fsum(pmf)!r}, not 1")
        mean = math.fsum(ell * p for ell, p in enumerate(pmf))
        var = math.fsum((ell - mean) ** 2 * p for ell, p in enumerate(pmf))
        if not self.test_mode:
            if not mean > 1.0:
                raise ValidationError(
                    f"offspring mean {mean} is not supercritical (need > 1, "
                    "or pass test_mode=True)"
                )
            if not var > 0.0:
                raise ValidationError(
                    "offspring variance is 0 (need > 0, or pass test_mode=True)"
                )
        object.__setattr__(self, "_mean", mean)
        object.__setattr__(self, "_variance", var)
        cum = np.cumsum(np.asarray(pmf, dtype=np.float64))
        cum[-1] = 1.0
        cum.setflags(write=False)
        object.__setattr__(self, "_cumulative", cum)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._variance


@dataclass(eq=False)
class Snapshot:
    """The particle population at one generation.

    ``positions`` has shape (n, d).  ``id_hi``/``id_lo`` hold the two words
    of each particle's 128-bit lineage id.  Snapshots from `run` and `step`
    carry them.  A snapshot file stores positions only, and `replay_ids`
    gives the snapshots read from it their ids, so that `step` advances them
    exactly as the in-memory ones.  Without ids it can be analyzed but not
    advanced.  ``root``, when set, holds each particle's root: the row of
    the generation-0 population it descends from, which `step` carries to
    the children.
    """

    t: int
    positions: np.ndarray
    id_hi: np.ndarray | None = None
    id_lo: np.ndarray | None = None
    root: np.ndarray | None = None

    def __post_init__(self):
        self.positions = np.ascontiguousarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 2:
            raise ValidationError("positions must have shape (n, d)")
        if self.t < 0:
            raise ValidationError(f"negative generation index {self.t}")
        if (self.id_hi is None) != (self.id_lo is None):
            raise ValidationError("id_hi and id_lo must be set together")
        if self.id_hi is not None:
            self.id_hi = np.ascontiguousarray(self.id_hi, dtype=np.uint64)
            self.id_lo = np.ascontiguousarray(self.id_lo, dtype=np.uint64)
            if self.id_hi.shape != (self.n,) or self.id_lo.shape != (self.n,):
                raise ValidationError("lineage id arrays must match positions")
        if self.root is not None:
            self.root = np.ascontiguousarray(self.root, dtype=np.int64)
            if self.root.shape != (self.n,):
                raise ValidationError("root array must match positions")

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def d(self) -> int:
        return self.positions.shape[1]

    @property
    def has_ids(self) -> bool:
        return self.id_hi is not None


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce a run."""

    d: int
    pmf: tuple[float, ...]
    seed: int
    t_max: int
    population_cap: int = DEFAULT_POPULATION_CAP
    snapshot_times: tuple[int, ...] | None = None
    initial_position: tuple[float, ...] | None = None
    test_mode: bool = False

    def __post_init__(self):
        _check_int(self.d, "dimension d", 1)
        _check_int(self.seed, "seed", 0, 2**64)
        _check_int(self.t_max, "t_max", 0)
        _check_int(self.population_cap, "population_cap", 1)
        if not isinstance(self.test_mode, bool):
            raise ValidationError(f"test_mode must be a boolean, got {self.test_mode!r}")
        # Validates the pmf eagerly so bad configs fail at construction.
        object.__setattr__(self, "pmf", self.law.pmf)
        times = self.snapshot_times
        if times is None:
            times = (self.t_max,)
        times = tuple(sorted(
            _check_int(t, "snapshot time", 0, self.t_max + 1) for t in times
        ))
        if len(set(times)) != len(times):
            raise ValidationError("snapshot_times contains duplicates")
        object.__setattr__(self, "snapshot_times", times)
        pos = self.initial_position
        if pos is None:
            pos = (0.0,) * self.d
        pos = _regions._as_float_tuple(pos, "initial_position")
        if len(pos) != self.d:
            raise ValidationError(
                f"initial_position has dim {len(pos)}, config says {self.d}"
            )
        object.__setattr__(self, "initial_position", pos)

    @property
    def law(self) -> OffspringLaw:
        return OffspringLaw(self.pmf, test_mode=self.test_mode)

    @classmethod
    def from_dict(cls, obj: dict) -> "SimConfig":
        if not isinstance(obj, dict):
            raise ValidationError("config must be a JSON object")
        keys = fields(cls)
        unknown = set(obj) - {f.name for f in keys}
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        missing = {f.name for f in keys if f.default is MISSING} - set(obj)
        if missing:
            raise ValidationError(f"config missing keys: {sorted(missing)}")
        try:
            return cls(**obj)
        except TypeError as exc:
            raise ValidationError(str(exc)) from exc

    @classmethod
    def from_json(cls, text_or_path) -> "SimConfig":
        return cls.from_dict(_regions.load_json(text_or_path, "config"))


def initial_snapshot(cfg: SimConfig) -> Snapshot:
    hi, lo = sampler.root_ids(cfg.seed, 1)
    pos = np.asarray([cfg.initial_position], dtype=np.float64)
    return Snapshot(t=0, positions=pos, id_hi=hi, id_lo=lo)


def _offspring_counts(law: OffspringLaw, seed: int, hi, lo) -> np.ndarray:
    """Each parent's offspring count: the number of cut points of the law's
    cumulative pmf at or below its uniform, one comparison per cut point
    (as ``searchsorted(cum, u, "right")``, since u < 1 = cum[-1]).  A
    point mass at l has cut points 0.0 up to l and 1.0 after, so every
    parent draws l: the uniforms lie strictly inside (0, 1)."""
    counts = np.zeros(hi.shape[0], dtype=np.int64)
    for a in range(0, hi.shape[0], BLOCK):
        u = sampler.offspring_uniforms(seed, hi[a:a + BLOCK], lo[a:a + BLOCK])
        c = counts[a:a + BLOCK]
        for cut in law._cumulative[:-1]:
            c += u >= cut
    return counts


def _branch(positions, id_hi, id_lo, counts, seed: int, d: int):
    """(positions, id_hi, id_lo) of all children, in parent order, written
    BLOCK parents at a time into arrays made once, so that the scratch is
    one block's: each child's parent position and id words, gathered with
    one parent index, then in place its own id and displacement."""
    pos = np.empty((int(counts.sum()), d), dtype=np.float64)
    hi = np.empty(pos.shape[0], dtype=np.uint64)
    lo = np.empty(pos.shape[0], dtype=np.uint64)
    end = 0
    for a in range(0, counts.shape[0], BLOCK):
        c = counts[a:a + BLOCK]
        start, end = end, end + int(c.sum())
        chi, clo, p = hi[start:end], lo[start:end], pos[start:end]
        parent = np.repeat(np.arange(c.shape[0]), c)
        # mode="clip" lets take write into out unbuffered (every row is valid).
        np.take(positions[a:a + BLOCK], parent, axis=0, out=p, mode="clip")
        np.take(id_hi[a:a + BLOCK], parent, out=chi, mode="clip")
        np.take(id_lo[a:a + BLOCK], parent, out=clo, mode="clip")
        sampler.child_ids(seed, c, parent, chi, clo)
        sampler.displace(seed, p, chi, clo)
    return pos, hi, lo


def step(
    s: Snapshot,
    law: OffspringLaw,
    seed: int,
    *,
    population_cap: int = DEFAULT_POPULATION_CAP,
) -> Snapshot:
    """Advance one generation: branch at the parent position, then diffuse.

    The one place that draws offspring, applies the population cap and
    branches; children inherit their parent's root.  Output is a pure
    function of (snapshot, law, seed).
    """
    if not s.has_ids:
        raise ValidationError("snapshot has no lineage ids to advance (see `replay_ids`)")
    seed = _check_int(seed, "seed", 0, 2**64)
    counts = _offspring_counts(law, seed, s.id_hi, s.id_lo)
    total = int(counts.sum())
    if total > population_cap:
        raise PopulationCapError(s.t + 1, total, population_cap)
    pos, hi, lo = _branch(s.positions, s.id_hi, s.id_lo, counts, seed, s.d)
    root = None if s.root is None else np.repeat(s.root, counts)
    return Snapshot(t=s.t + 1, positions=pos, id_hi=hi, id_lo=lo, root=root)


def _generations(cfg: SimConfig, chunk: int,
                 start: Snapshot | None = None) -> Iterator[tuple[Snapshot, int]]:
    """The run of cfg walked depth first, as (part, done): a part of
    generation part.t, generation 0 first and whole, and the number of
    generations now complete, those that no parent waiting on the stack can
    add to.  Generation 0 is ``start`` (one row per root, the roots of
    independent runs of cfg's law and seed) or else `initial_snapshot`.  A
    part holds the children of at most ``chunk`` parents.  The stack holds
    only rows still to step: an entry's first ``chunk`` rows are stepped and
    a copy of the rest goes back, so an entry is freed once its first chunk
    is stepped and the walk holds about one chunk of rows per generation.
    It advances no empty part.  The parts of a generation come in the order
    of its rows made whole.  The cap applies to each generation's total; an
    abort names a generation over it and the count made by then, which can
    be below that total (and the generation later than the first over the
    cap).

    Every generation is made by the public `step`, so that wrapping `step`
    (as a profiler or tracer does) sees every one.
    """
    law, cap = cfg.law, cfg.population_cap
    made = [0] * (cfg.t_max + 1)
    s = initial_snapshot(cfg) if start is None else start
    yield s, 1
    todo = [s] if cfg.t_max else []
    while todo:
        part = todo.pop()
        if part.n > chunk:
            todo.append(_rows(part, slice(chunk, None), copy=True))
            part = _rows(part, slice(chunk))
        try:
            s = step(part, law, cfg.seed, population_cap=cap - made[part.t + 1])
        except PopulationCapError as exc:
            raise PopulationCapError(exc.t, made[exc.t] + exc.population, cap) from None
        made[s.t] += s.n
        if s.t < cfg.t_max and s.n:
            todo.append(s)
        # Remainders and children go on top of their parents, so t never
        # falls up the stack: the bottom entry's generation, and every one
        # before it, can gain no more parts.
        yield s, todo[0].t + 1 if todo else cfg.t_max + 1


def _rows(s: Snapshot, rows: slice, copy: bool = False) -> Snapshot:
    """The given rows of s, as views or, with ``copy``, as copies."""
    return Snapshot(s.t, *(None if a is None else np.array(a[rows], copy=copy)
                           for a in (s.positions, s.id_hi, s.id_lo, s.root)))


def _append(arrays: tuple[np.ndarray, ...], s: Snapshot) -> None:
    """Copy the positions and ids of s onto the ends of arrays, which grow
    by reallocation (`ndarray.resize`), so a generation joined from its
    parts is held once plus the part being added."""
    row = arrays[1].shape[0]
    # Indexed, so that no loop variable adds a reference that resize refuses.
    for i, new in enumerate((s.positions, s.id_hi, s.id_lo)):
        arrays[i].resize((row + s.n, *new.shape[1:]))
        arrays[i][row:] = new


def _json_line(obj: dict) -> bytes:
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")


class SnapshotWriter:
    """Single-owner snapshot file writer (format version 4).

    The first line is a JSON header record.  A snapshot is written in parts,
    which may interleave with other snapshots' parts.  Each `write` adds one
    part: a JSON record line ``{"type": "part", "t", "n", "nbytes",
    "crc32"}`` followed by exactly ``nbytes`` = n*d*8 raw bytes, the
    positions as little-endian float64, row-major; ``crc32`` (zlib) covers
    them.  `end` closes a snapshot with a record line ``{"type": "end", "t",
    "n"}``, where n counts the rows of its parts; the snapshot is its parts
    joined in file order.  Positions are stored bit for bit.  Lineage ids
    are not stored: they are a function of the header's seed and pmf, which
    `replay_ids` replays.
    """

    def __init__(self, path, *, d: int, pmf, seed: int):
        self._fh = open(path, "wb")
        self._rows: dict[int, int] = {}
        header = {
            "type": "header",
            "version": SNAPSHOT_FORMAT_VERSION,
            "d": d,
            "pmf": [float(p) for p in pmf],
            "seed": int(seed),
            "sampler": SAMPLER_NAME,
        }
        self._fh.write(_json_line(header))

    def write(self, s: Snapshot) -> None:
        """Write s as one part of the snapshot at s.t."""
        data = s.positions.astype("<f8", copy=False)
        record = {
            "type": "part",
            "t": s.t,
            "n": s.n,
            "nbytes": data.nbytes,
            "crc32": zlib.crc32(data),
        }
        self._fh.write(_json_line(record))
        self._fh.write(data)
        self._rows[s.t] = self._rows.get(s.t, 0) + s.n

    def end(self, t: int) -> int:
        """Close the snapshot at t, which may have no parts; returns its n."""
        n = self._rows.pop(t, 0)
        self._fh.write(_json_line({"type": "end", "t": t, "n": n}))
        return n

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "SnapshotWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _is_count(x) -> bool:
    return type(x) is int and x >= 0


def read_snapshot_file(path, *, only=None) -> tuple[dict, list[Snapshot]]:
    """Read a snapshot file written by `SnapshotWriter`.

    Returns (header, snapshots): one snapshot per end record, in strictly
    increasing t, of positions only (`replay_ids` adds the lineage ids).
    With ``only`` a generation t, or ``"last"``, the list holds just that
    snapshot, and a file without it is refused.  Parts that no end record
    closes, the tail of a run stopped by the population cap, are dropped.
    The record lines are indexed first, seeking past the data; then each
    snapshot returned is allocated once and each of its parts read straight
    into its rows, while the other snapshots' parts pass through one buffer
    of 1 MiB for their crc32, so the reader holds little more than what it
    returns.
    Any malformed, truncated, corrupted or out-of-order content, a file in
    another format version, and a header seed, pmf or sampler that could
    not have made a run, raises `ValidationError` naming the record (the
    header is record 0) and the last complete snapshot time before it.
    """
    ends: list[tuple[int, int, int]] = []  # (record, t, n) of each end record
    # t -> (record, n, data offset, crc32) of each of its parts
    parts: dict[int, list[tuple[int, int, int, int]]] = {}

    def fail(index: int, msg: str):
        done = [t for i, t, _ in ends if i < index]
        last = f"t={done[-1]}" if done else "none"
        return ValidationError(
            f"{path}: record {index}: {msg} (last complete snapshot: {last})"
        )

    def json_record(fh, index: int):
        line = fh.readline(_MAX_RECORD_LINE)
        if not line:
            return None
        if not line.endswith(b"\n"):
            raise fail(index, "record line is truncated or too long")
        try:
            rec = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # also UnicodeDecodeError
            raise fail(index, f"not a JSON record: {exc}") from exc
        if not isinstance(rec, dict):
            raise fail(index, "record is not a JSON object")
        return rec

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = json_record(fh, 0)
        if header is None or header.get("type") != "header":
            raise fail(0, "file does not start with a snapshot header")
        if header.get("version") != SNAPSHOT_FORMAT_VERSION:
            raise fail(
                0,
                f"snapshot format version {header.get('version')!r} is not "
                f"supported (this version reads {SNAPSHOT_FORMAT_VERSION}); "
                "re-run `simulate` to write the file again",
            )
        try:
            d = _check_int(header.get("d"), "header dimension d", 1)
            _check_int(header.get("seed"), "header seed", 0, 2**64)
            OffspringLaw(header.get("pmf"), test_mode=True)
        except ValidationError as exc:
            raise fail(0, str(exc)) from None
        if not isinstance(header.get("sampler"), str):
            raise fail(0, f"header sampler {header.get('sampler')!r} is not a string")
        index = 1
        while (rec := json_record(fh, index)) is not None:
            kind, t, n = rec.get("type"), rec.get("t"), rec.get("n")
            if kind not in ("part", "end"):
                raise fail(index, f"unexpected record type {kind!r}")
            if not (_is_count(t) and _is_count(n)):
                raise fail(index, f"t={t!r} and n={n!r} must be integers >= 0")
            if ends and t <= ends[-1][1]:
                raise fail(index, f"t={t} does not follow the last end record's t")
            mine = parts.setdefault(t, [])
            if kind == "end":
                rows = sum(p[1] for p in mine)
                if n != rows:
                    raise fail(index, f"end record n={n}, but the parts of t={t} hold {rows}")
                ends.append((index, t, n))
                index += 1
                continue
            nbytes, crc = rec.get("nbytes"), rec.get("crc32")
            if not _is_count(crc):
                raise fail(index, "record needs an integer 'crc32'")
            if nbytes != n * d * 8:
                raise fail(index, f"nbytes={nbytes!r}, but n={n}, d={d} need {n * d * 8}")
            # Checked before anything is allocated, so a damaged n cannot ask
            # for the memory; a file shrinking under the reader fails below.
            left = size - fh.tell()
            if nbytes > left:
                raise fail(index, f"truncated: {left} of {nbytes} data bytes present")
            mine.append((index, n, fh.tell(), crc))
            fh.seek(nbytes, os.SEEK_CUR)
            index += 1

        times = [t for _, t, _ in ends]
        if only is not None and not times:
            raise ValidationError(f"{path} holds no snapshots")
        only = times[-1] if only == "last" else only
        if only is not None and only not in times:
            raise ValidationError(f"no snapshot at t={only}; file holds t in {times}")
        snaps, buf = [], np.empty(0 if only is None else 1 << 20, np.uint8)
        for _, t, n in ends:
            keep = only is None or t == only
            positions = np.empty((n, d), dtype="<f8") if keep else None
            row = 0
            for index, m, offset, crc in parts[t]:
                fh.seek(offset)
                nbytes, value = m * d * 8, 0
                for block in ([positions[row:row + m].view(np.uint8).reshape(-1)] if keep else
                              [buf[:nbytes - a] for a in range(0, nbytes, buf.size)]):
                    if fh.readinto(block) != block.size:
                        raise fail(index, "truncated: the file shrank while it was read")
                    value = zlib.crc32(block, value)
                if value != crc:
                    raise fail(index, "crc32 mismatch: the data bytes are corrupted")
                row += m
            if keep:
                snaps.append(Snapshot(t, positions))
    return header, snaps


def run(cfg: SimConfig, out=None) -> list:
    """Run the process to t_max, walked depth first (see `_generations`).

    Without ``out``, returns the requested snapshots, each joined from the
    parts of the walk as they are made, so that it holds each generation
    once plus one part.  With ``out`` set, each part of a requested snapshot
    is written to that path as it is made and none is kept; returns the
    (t, n) of each snapshot written.  On a population-cap abort the
    snapshots completed so far remain in the file as a valid partial result.
    """
    wanted = list(cfg.snapshot_times)
    kept = {t: (np.empty((0, cfg.d)), np.empty(0, "u8"), np.empty(0, "u8")) for t in wanted}
    result = []
    with (contextlib.nullcontext() if out is None
          else SnapshotWriter(out, d=cfg.d, pmf=cfg.pmf, seed=cfg.seed)) as writer:
        for s, done in _generations(cfg, _RUN_CHUNK):
            if s.n and s.t in kept:
                if writer:
                    writer.write(s)
                else:
                    _append(kept[s.t], s)
            while wanted and wanted[0] < done:
                t = wanted.pop(0)
                result.append((t, writer.end(t)) if writer else Snapshot(t, *kept.pop(t)))
    return result


def replay_ids(header: dict, snapshots: list[Snapshot]) -> list[Snapshot]:
    """The snapshots read with ``header`` from a snapshot file, given the
    lineage ids of the run that wrote them, so that `step` can advance them.

    A run's ids are a function of its seed and pmf alone.  One walk of
    `_generations` from the run's root to the largest t, on positions of
    width 0 (so `sampler.displace` draws nothing), replays them.  It is
    uncapped: the file's end records show that the run passed its cap.  A
    header of another sampler, or a snapshot whose n is not its
    generation's, raises `ValidationError`."""
    if header.get("sampler") != SAMPLER_NAME:
        raise ValidationError(f"snapshot file sampler {header.get('sampler')!r} is not "
                              f"{SAMPLER_NAME!r}, so its lineage ids cannot be replayed")
    kept = {s.t: (np.empty((0, 0)), np.empty(0, "u8"), np.empty(0, "u8")) for s in snapshots}
    cfg = SimConfig(d=header.get("d"), pmf=header.get("pmf"), seed=header.get("seed"),
                    t_max=max(kept, default=0), population_cap=2**64, test_mode=True)
    root = Snapshot(0, np.empty((1, 0)), *sampler.root_ids(cfg.seed, 1))
    for part, _ in _generations(cfg, _RUN_CHUNK, root):
        if part.n and part.t in kept:
            _append(kept[part.t], part)
    for s in snapshots:
        if kept[s.t][1].shape[0] != s.n:
            raise ValidationError(f"snapshot t={s.t} holds {s.n} particles, but the run "
                                  f"of the header's seed and pmf makes {kept[s.t][1].shape[0]}")
    return [Snapshot(s.t, s.positions, *kept[s.t][1:], s.root) for s in snapshots]


def count(s: Snapshot, region) -> int:
    """ψ(A, t): number of particles of the snapshot inside the region."""
    if s.d != region.dim:
        raise ValidationError(f"snapshot dim {s.d} != region dim {region.dim}")
    return int(np.count_nonzero(_regions.contains(region, s.positions)))


def max_radius(s: Snapshot) -> float:
    """Largest particle distance from the origin."""
    if s.n == 0:
        raise ValidationError("empty snapshot has no radius")
    sq = np.einsum("ij,ij->i", s.positions, s.positions)
    return float(math.sqrt(float(sq.max())))


def radius_profile(cfg: SimConfig) -> list[tuple[int, float]]:
    """(t, max_radius) for every generation up to t_max (stops at extinction).

    The run is walked depth first, `_RUN_CHUNK` parents at a time; the
    largest radius of a generation is the largest over its parts, so the
    profile is the whole run's bit for bit.
    """
    top: dict[int, float] = {}
    for s, _ in _generations(cfg, _RUN_CHUNK):
        if s.n:
            top[s.t] = max(top.get(s.t, 0.0), max_radius(s))
    return sorted(top.items())
