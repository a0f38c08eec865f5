"""Branching Wiener process simulator.

The process starts from one particle. Each generation, every particle dies
and leaves Y offspring (Y drawn from a finite offspring law), and each
offspring immediately diffuses for one unit of time: its position is the
parent's death position plus an independent standard d-dimensional Gaussian.
Snapshots are taken after displacement, so siblings are conditionally
independent given the parent's position.

Randomness is counter-based rather than sequential: every draw is a pure
hash of (seed, particle lineage id, purpose tag), where a child's 128-bit
lineage id is itself a hash of (parent id, birth rank).  Two consequences:

* runs are bitwise reproducible for a fixed seed regardless of worker count
  or particle processing order, and
* a stored snapshot can be continued under a fresh seed with randomness
  independent of the original run.

The hash is the splitmix64 finalizer; uniforms feed the exact inverse
Gaussian CDF (scipy's ndtri).  The sampler name recorded in snapshot file
headers is ``splitmix64-ndtri``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import PopulationCapError, ValidationError
from . import regions as _regions

SAMPLER_NAME = "splitmix64-ndtri"
DEFAULT_POPULATION_CAP = 10**8
SNAPSHOT_FORMAT_VERSION = 2
# Longest header or record line the reader accepts (records are ~100 bytes).
_MAX_RECORD_LINE = 1 << 20

_U64 = np.uint64
_MASK = (1 << 64) - 1
_M1 = _U64(0xBF58476D1CE4E5B9)
_M2 = _U64(0x94D049BB133111EB)
_GOLDEN = 0x9E3779B97F4A7C15
_SALT = 0xC2B2AE3D27D4EB4F
_TAG_OFFSPRING = 0x01D306AA5F35F1D1
_TAG_POSITION = 0x7C15E4D5B9A30001
_TAG_STRIDE = 0x636F6F7264313375

_INV_2_53 = 2.0**-53

#: Parents per block of the branching kernel, and the one threshold for
#: threads: a step of fewer than two blocks runs on the calling thread.
BLOCK = 1 << 16


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise on uint64 arrays.

    Scalar keys go through :func:`_mix_int` instead — numpy warns on scalar
    uint64 wraparound but is silent (and correct) for arrays.
    """
    x = (x ^ (x >> _U64(30))) * _M1
    x = (x ^ (x >> _U64(27))) * _M2
    return x ^ (x >> _U64(31))


def _mix_int(x: int) -> int:
    """splitmix64 finalizer on a Python int (explicit 64-bit masking)."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _draw_u01(seed: int, id_hi, id_lo, tag: int):
    """Uniform(0,1) keyed by (seed, lineage id, tag); never returns 0 or 1."""
    key = _U64((seed * _GOLDEN + tag) & _MASK)
    h = _mix(id_lo ^ key)
    h = _mix(h + id_hi)
    h = _mix(h ^ _U64(tag & _MASK))
    return ((h >> _U64(11)).astype(np.float64) + 0.5) * _INV_2_53


def _child_ids(parent_hi, parent_lo, rank):
    """128-bit id of the rank-th child (rank counts from 0 among siblings);
    rank is a uint64 array."""
    r = rank + _U64(1)
    a = _mix(parent_lo ^ (_U64(_GOLDEN) * r))
    b = _mix(parent_hi ^ (_U64(_SALT) * r))
    return _mix(b + parent_lo), _mix(a + parent_hi)


def _root_ids(seed: int, count: int):
    idx = np.arange(1, count + 1, dtype=np.uint64)
    s0 = _U64(_mix_int(seed * _GOLDEN + 1))
    s1 = _U64(_mix_int(seed * _SALT + 2))
    return _mix(s0 ^ (idx * _M1)), _mix(s1 ^ (idx * _M2))


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
        det = None
        for ell, p in enumerate(pmf):
            if p == 1.0:
                det = ell
        object.__setattr__(self, "_deterministic", det)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._variance

    @property
    def max_children(self) -> int:
        return len(self.pmf) - 1

    @property
    def deterministic_value(self):
        """The fixed offspring count when the pmf is a point mass, else None."""
        return self._deterministic

    def factorial_moment(self, k: int) -> float:
        """E[Y (Y-1) ... (Y-k+1)] for k <= 8."""
        if not 0 <= k <= 8:
            raise ValidationError(f"factorial moment order {k} outside [0, 8]")
        return math.fsum(
            p * math.perm(ell, k)
            for ell, p in enumerate(self.pmf)
            if ell >= k
        )


@dataclass(eq=False)
class Snapshot:
    """The particle population at one generation.

    ``positions`` has shape (n, d).  ``id_hi``/``id_lo`` hold the two words
    of each particle's 128-bit lineage id.  Snapshots from `run` and `step`
    carry them, and the snapshot file stores them, so a snapshot read back
    from disk can be advanced with `step` exactly as the in-memory one.
    Without ids (e.g. a snapshot built from bare positions) it can be
    analyzed but not advanced.
    """

    t: int
    positions: np.ndarray
    id_hi: np.ndarray | None = None
    id_lo: np.ndarray | None = None

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

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def d(self) -> int:
        return self.positions.shape[1]

    @property
    def has_ids(self) -> bool:
        return self.id_hi is not None


_CONFIG_KEYS = {
    "d",
    "pmf",
    "seed",
    "t_max",
    "population_cap",
    "snapshot_times",
    "initial_position",
    "test_mode",
}


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

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "pmf": list(self.pmf),
            "seed": self.seed,
            "t_max": self.t_max,
            "population_cap": self.population_cap,
            "snapshot_times": list(self.snapshot_times),
            "initial_position": list(self.initial_position),
            "test_mode": self.test_mode,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "SimConfig":
        if not isinstance(obj, dict):
            raise ValidationError("config must be a JSON object")
        unknown = set(obj) - _CONFIG_KEYS
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        missing = {"d", "pmf", "seed", "t_max"} - set(obj)
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
    hi, lo = _root_ids(cfg.seed, 1)
    pos = np.asarray([cfg.initial_position], dtype=np.float64)
    return Snapshot(t=0, positions=pos, id_hi=hi, id_lo=lo)


def _offspring_counts(law: OffspringLaw, seed: int, hi, lo) -> np.ndarray:
    det = law.deterministic_value
    if det is not None:
        # Point-mass law: the draw would be constant; skipping it changes
        # nothing because counter-based draws consume no shared state.
        return np.full(hi.shape[0], det, dtype=np.int64)
    counts = np.empty(hi.shape[0], dtype=np.int64)
    for a in range(0, hi.shape[0], BLOCK):
        u = _draw_u01(seed, hi[a:a + BLOCK], lo[a:a + BLOCK], _TAG_OFFSPRING)
        counts[a:a + BLOCK] = np.searchsorted(law._cumulative, u, side="right")
    return counts


def _make_children(positions, hi, lo, counts, seed: int, d: int, pos, chi, clo):
    """Write the children of one block of parents into pos, chi and clo,
    whose length is counts.sum()."""
    # Lazy: ~0.3 s to import; only sampling and the Gaussian-mass oracles use it.
    from scipy.special import ndtri
    parents = np.repeat(np.arange(counts.shape[0]), counts)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    ranks = (np.arange(pos.shape[0], dtype=np.int64) - offsets).astype(np.uint64)
    chi[:], clo[:] = _child_ids(hi[parents], lo[parents], ranks)
    pos[:] = positions[parents]
    tag = _TAG_POSITION
    for j in range(d):
        pos[:, j] += ndtri(_draw_u01(seed, chi, clo, tag))
        tag = (tag + _TAG_STRIDE) & _MASK


def _branch(positions, id_hi, id_lo, counts, seed: int, d: int, workers: int):
    """(positions, id_hi, id_lo) of all children, in parent order, filled
    BLOCK parents at a time, on up to ``workers`` threads when there are at
    least two blocks; draws are counter-based, so threads change nothing."""
    firsts = range(0, counts.shape[0], BLOCK)
    ends = [0, *itertools.accumulate(int(counts[a:a + BLOCK].sum()) for a in firsts)]
    pos = np.empty((ends[-1], d), dtype=np.float64)
    hi = np.empty(ends[-1], dtype=np.uint64)
    lo = np.empty(ends[-1], dtype=np.uint64)

    def build(b: int) -> None:
        p, c = slice(firsts[b], firsts[b] + BLOCK), slice(ends[b], ends[b + 1])
        _make_children(positions[p], id_hi[p], id_lo[p], counts[p], seed, d,
                       pos[c], hi[c], lo[c])

    if workers > 1 and len(firsts) >= 2:
        with ThreadPoolExecutor(max_workers=min(workers, len(firsts))) as pool:
            list(pool.map(build, range(len(firsts))))
    else:
        list(map(build, range(len(firsts))))
    return pos, hi, lo


def step(
    s: Snapshot,
    law: OffspringLaw,
    seed: int,
    *,
    population_cap: int | None = DEFAULT_POPULATION_CAP,
    workers: int = 1,
) -> Snapshot:
    """Advance one generation: branch at the parent position, then diffuse.

    Output is a pure function of (snapshot, law, seed).  ``workers`` caps
    the threads that build the children; a step of fewer than two blocks
    of BLOCK parents runs on the calling thread.
    """
    if not s.has_ids:
        raise ValidationError("snapshot has no lineage ids and cannot be advanced")
    seed = _check_int(seed, "seed", 0, 2**64)
    _check_int(workers, "workers", 1)
    counts = _offspring_counts(law, seed, s.id_hi, s.id_lo)
    total = int(counts.sum())
    if population_cap is not None and total > population_cap:
        raise PopulationCapError(s.t + 1, total, population_cap)
    pos, hi, lo = _branch(s.positions, s.id_hi, s.id_lo, counts, seed, s.d, workers)
    return Snapshot(t=s.t + 1, positions=pos, id_hi=hi, id_lo=lo)


def _json_line(obj: dict) -> bytes:
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")


def _record_nbytes(n: int, d: int, ids: bool) -> int:
    return n * d * 8 + (16 * n if ids else 0)


class SnapshotWriter:
    """Single-owner snapshot file writer (format version 2).

    The first line is a JSON header record.  Each snapshot becomes one JSON
    record line ``{"type", "t", "n", "ids", "nbytes", "crc32"}`` followed by
    exactly ``nbytes`` raw little-endian bytes: the positions as float64,
    row-major, then the lineage-id words ``id_hi`` and ``id_lo`` as uint64
    when ``ids`` is true.  ``crc32`` (zlib) covers those raw bytes.  Values
    are stored bit for bit, and a snapshot written with its lineage ids reads
    back as one that can be advanced.
    """

    def __init__(self, path, *, d: int, pmf, seed: int):
        self._fh = open(path, "wb")
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
        arrays = [s.positions.astype("<f8", copy=False)]
        if s.has_ids:
            arrays += [a.astype("<u8", copy=False) for a in (s.id_hi, s.id_lo)]
        crc = 0
        for a in arrays:
            crc = zlib.crc32(a, crc)
        record = {
            "type": "snapshot",
            "t": s.t,
            "n": s.n,
            "ids": s.has_ids,
            "nbytes": _record_nbytes(s.n, s.d, s.has_ids),
            "crc32": crc,
        }
        self._fh.write(_json_line(record))
        for a in arrays:
            self._fh.write(a)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "SnapshotWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _is_count(x) -> bool:
    return type(x) is int and x >= 0


def read_snapshot_file(path) -> tuple[dict, list[Snapshot]]:
    """Read a snapshot file written by `SnapshotWriter`.

    Returns (header, snapshots); a snapshot keeps its lineage ids when its
    record stored them.  Any malformed, truncated or corrupted content, and
    a file in an older format version, raises `ValidationError` naming the
    record (the header is record 0) and the last complete snapshot time.
    """
    snaps: list[Snapshot] = []

    def fail(index: int, msg: str):
        last = f"t={snaps[-1].t}" if snaps else "none"
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
        except ValueError as exc:  # also covers UnicodeDecodeError
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
        d = header.get("d")
        if not (_is_count(d) and d >= 1):
            raise fail(0, f"header dimension {d!r} is not an integer >= 1")
        index = 1
        while (rec := json_record(fh, index)) is not None:
            if rec.get("type") != "snapshot":
                raise fail(index, f"unexpected record type {rec.get('type')!r}")
            t, n, ids = rec.get("t"), rec.get("n"), rec.get("ids")
            nbytes, crc = rec.get("nbytes"), rec.get("crc32")
            if not (_is_count(t) and _is_count(n)):
                raise fail(index, f"t={t!r} and n={n!r} must be integers >= 0")
            if type(ids) is not bool or not _is_count(crc):
                raise fail(index, "record needs a boolean 'ids' and an integer 'crc32'")
            want = _record_nbytes(n, d, ids)
            if nbytes != want:
                raise fail(index, f"nbytes={nbytes!r}, but n={n}, d={d}, ids={ids} "
                           f"need {want}")
            # Checked before allocating, so a damaged n cannot ask for the
            # memory; a file shrinking under the reader fails the crc.
            left = size - fh.tell()
            if nbytes > left:
                raise fail(index, f"truncated: {left} of {nbytes} data bytes present")
            buf = bytearray(nbytes)
            fh.readinto(buf)
            if zlib.crc32(buf) != crc:
                raise fail(index, "crc32 mismatch: the data bytes are corrupted")
            positions = np.frombuffer(buf, dtype="<f8", count=n * d).reshape(n, d)
            id_hi = id_lo = None
            if ids:
                off = n * d * 8
                id_hi = np.frombuffer(buf, dtype="<u8", count=n, offset=off)
                id_lo = np.frombuffer(buf, dtype="<u8", count=n, offset=off + 8 * n)
            snaps.append(Snapshot(t=t, positions=positions, id_hi=id_hi, id_lo=id_lo))
            index += 1
    return header, snaps


def run(cfg: SimConfig, out=None, *, workers: int = 1) -> list[Snapshot]:
    """Run the process to t_max; returns the requested snapshots.

    With ``out`` set, snapshots stream to that path as they are produced;
    on a population-cap abort the already-written times remain in the file
    as a valid partial result.
    """
    _check_int(workers, "workers", 1)
    law = cfg.law
    wanted = set(cfg.snapshot_times)
    kept: list[Snapshot] = []
    writer = None
    try:
        if out is not None:
            writer = SnapshotWriter(out, d=cfg.d, pmf=cfg.pmf, seed=cfg.seed)
        s = initial_snapshot(cfg)
        if 0 in wanted:
            kept.append(s)
            if writer:
                writer.write(s)
        for _ in range(cfg.t_max):
            s = step(
                s,
                law,
                cfg.seed,
                population_cap=cfg.population_cap,
                workers=workers,
            )
            if s.t in wanted:
                kept.append(s)
                if writer:
                    writer.write(s)
    finally:
        if writer:
            writer.close()
    return kept


def count(s: Snapshot, region) -> int:
    """ψ(A, t): number of particles of the snapshot inside the region."""
    if s.d != region.dim:
        raise ValidationError(f"snapshot dim {s.d} != region dim {region.dim}")
    if s.n == 0:
        return 0
    return int(np.count_nonzero(_regions.contains(region, s.positions)))


def max_radius(s: Snapshot) -> float:
    """Largest particle distance from the origin."""
    if s.n == 0:
        raise ValidationError("empty snapshot has no radius")
    sq = np.einsum("ij,ij->i", s.positions, s.positions)
    return float(math.sqrt(float(sq.max())))


def radius_profile(cfg: SimConfig, *, workers: int = 1) -> list[tuple[int, float]]:
    """(t, max_radius) for every generation up to t_max (stops at extinction).

    Memory-light: nothing is retained beyond the current generation.
    """
    law = cfg.law
    s = initial_snapshot(cfg)
    out = [(0, max_radius(s))]
    for _ in range(cfg.t_max):
        s = step(s, law, cfg.seed, population_cap=cfg.population_cap, workers=workers)
        if s.n == 0:
            break
        out.append((s.t, max_radius(s)))
    return out


def ensemble_states(
    law: OffspringLaw,
    d: int,
    n_replicas: int,
    t_max: int,
    seed: int,
    *,
    population_cap: int | None = DEFAULT_POPULATION_CAP,
    initial_position=None,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Advance ``n_replicas`` independent runs in lockstep.

    Yields (t, positions, replica_index) for t = 0..t_max, where
    ``replica_index[i]`` says which replica particle row i belongs to.  The
    population cap applies to the whole batch.  Replicas get distinct root
    lineages derived from (seed, replica), so the batch is statistically
    identical to independent single runs; use `run` when one trajectory must
    be reproduced exactly.
    """
    if n_replicas < 1:
        raise ValidationError("need at least one replica")
    if d < 1:
        raise ValidationError(f"dimension {d} must be >= 1")
    seed = _check_int(seed, "seed", 0, 2**64)
    hi, lo = _root_ids(seed, n_replicas)
    if initial_position is None:
        pos = np.zeros((n_replicas, d))
    else:
        pos = np.tile(np.asarray(initial_position, dtype=np.float64), (n_replicas, 1))
    rep = np.arange(n_replicas, dtype=np.int64)
    yield 0, pos, rep
    for t in range(1, t_max + 1):
        counts = _offspring_counts(law, seed, hi, lo)
        total = int(counts.sum())
        if population_cap is not None and total > population_cap:
            raise PopulationCapError(t, total, population_cap)
        rep = np.repeat(rep, counts)
        pos, hi, lo = _branch(pos, hi, lo, counts, seed, d, 1)
        yield t, pos, rep
