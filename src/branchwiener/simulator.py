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

The hash is the splitmix64 finalizer, one mix per draw: each word of a
child's id is one mix of both parent words and the rank, and each draw is
one mix of the id folded to one word (hi ^ lo) XOR a scalar key of (seed,
purpose).  Uniforms feed the inverse Gaussian CDF `_ndtri`, Wichura's
AS241 in numpy: within 2e-15 relative of the exact quantile, and built from
+, -, *, / and sqrt alone, so its bits depend on neither libm nor numpy's
SIMD paths.  The sampler name recorded in snapshot file headers is
``splitmix64-as241-v3``.
"""

from __future__ import annotations

import contextlib
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

SAMPLER_NAME = "splitmix64-as241-v3"
DEFAULT_POPULATION_CAP = 10**8
SNAPSHOT_FORMAT_VERSION = 3
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

# Bits of the float 1.0: OR-ed onto 52 random mantissa bits, a float in [1, 2).
_ONE_BITS = _U64(0x3FF0000000000000)

#: Parents per block of the branching kernel, and the one threshold for
#: threads: a step of fewer than two blocks runs on the calling thread.
#: Also the largest leaf of `martingales.v_alpha_many`, whose sums keep the
#: bits of `np.sum` only while it is at least 128.
BLOCK = 1 << 13
#: Parents per part of a run, which `run` and `radius_profile` walk depth
#: first; `martingales.ensemble_v_matrix`, whose generations are all wide,
#: walks its replicas in parts of BLOCK parents.
_RUN_CHUNK = 4 * BLOCK


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise and in place on a uint64 array
    (callers pass a temporary of their own); returns x.

    Scalar keys go through :func:`_mix_int` instead — numpy warns on scalar
    uint64 wraparound but is silent (and correct) for arrays.
    """
    x ^= x >> _U64(30)
    x *= _M1
    x ^= x >> _U64(27)
    x *= _M2
    x ^= x >> _U64(31)
    return x


def _mix_int(x: int) -> int:
    """splitmix64 finalizer on a Python int (explicit 64-bit masking)."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _key(seed: int, tag: int) -> np.uint64:
    """Scalar key of one purpose (the offspring draw, or one axis) under seed."""
    return _U64(_mix_int(seed * _GOLDEN + tag))


def _u01(h: np.ndarray) -> np.ndarray:
    """Uniform(0,1) in place of uint64 hashes: the midpoint (k + 1/2)/2^52
    of the cell that the top 52 bits k pick.  Exact, never 0 or 1: the bits
    become the float 1 + k/2^52, and the subtraction is exact (Sterbenz)."""
    h >>= _U64(12)
    h |= _ONE_BITS
    u = h.view(np.float64)
    u -= 1.0 - 2.0**-53
    return u


# Wichura, "Algorithm AS 241" (Applied Statistics 37, 1988), PPND16:
# numerator and denominator of each rational branch, lowest power first.
_AS241_CENTRE = (
    (3.3871328727963666080e0, 1.3314166789178437745e+2, 1.9715909503065514427e+3,
     1.3731693765509461125e+4, 4.5921953931549871457e+4, 6.7265770927008700853e+4,
     3.3430575583588128105e+4, 2.5090809287301226727e+3),
    (1.0, 4.2313330701600911252e+1, 6.8718700749205790830e+2, 5.3941960214247511077e+3,
     2.1213794301586595867e+4, 3.9307895800092710610e+4, 2.8729085735721942674e+4,
     5.2264952788528545610e+3),
)
_AS241_TAIL = (
    (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
     3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
     1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
     1.05075007164441684324e-9),
)
_AS241_FAR = (
    (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
     2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
     2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
     7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
     2.04426310338993978564e-15),
)
# fdlibm e_log.c: Lg1..Lg7, and ln 2 split so that k * _LN2_HI is exact.
_LG = (6.666666666666735130e-01, 3.999999999940941908e-01, 2.857142874366239149e-01,
       2.222219843214978396e-01, 1.818357216161805012e-01, 1.531383769920937332e-01,
       1.479819860511658591e-01)
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_MANTISSA = _U64((1 << 52) - 1)


def _ratio(coefs, x):
    """num(x) / den(x) for coefs = (num, den), by Horner's rule in two new
    arrays."""
    num, den = coefs
    p = x * num[-1]
    q = x * den[-1]
    for a, b in zip(num[-2:0:-1], den[-2:0:-1]):
        p += a
        p *= x
        q += b
        q *= x
    p += num[0]
    q += den[0]
    p /= q
    return p


def _neg_log(x: np.ndarray) -> np.ndarray:
    """-log x of positive normal floats, overwriting x; fdlibm's log.

    The bits give x = 2^k (1 + f) with sqrt(1/2) <= 1 + f < sqrt(2), and
    log(1 + f) = f - f^2/2 + s (f^2/2 + R(s^2)) with s = f / (2 + f) and R
    fdlibm's polynomial, here by Horner's rule in s^2."""
    b = x.view(_U64)
    big = b & _MANTISSA
    big += _U64(0x00095F6400000000)
    big &= _U64(1 << 52)  # 2^52 where the mantissa is at least about sqrt(2)
    k = b + big
    k >>= _U64(52)
    b &= _MANTISSA
    b |= _ONE_BITS
    b -= big  # halves 1 + f where big is set, as k + 1 doubles 2^k
    k = k.view(np.int64).astype(np.float64)
    k -= 1023.0
    f = x
    f -= 1.0
    s = f + 2.0
    np.divide(f, s, out=s)
    z = s * s
    r = z * _LG[-1]
    for c in _LG[-2::-1]:
        r += c
        r *= z
    h = f * f
    h *= 0.5
    r += h
    r *= s
    r += np.multiply(k, _LN2_LO, out=z)
    h -= r
    h -= f
    k *= _LN2_HI
    h -= k
    return h


def _ndtri(u: np.ndarray) -> np.ndarray:
    """The standard normal quantile of each u, overwriting u: the sampler's
    uniforms, multiples of 2^-53 in (0, 1), so that u - 1/2 is exact.

    Wichura's AS241 (PPND16): on the centre, a rational function of
    r = 0.180625 - q^2 with q = u - 1/2, computed over the whole array and
    kept where r >= 0 (|q| <= 0.425, 85% of draws).  On the tails, with
    s = sqrt(-log(1/2 - |q|)) and 1/2 - |q| = min(u, 1 - u), one of s - 1.6
    where s <= 5, and of s - 5 beyond (u within e^-25 of 0 or 1).  Within
    2e-15 relative of the exact quantile, and ``_ndtri(1 - u) == -_ndtri(u)``.
    At its peak it holds four arrays of u's shape: q, r and the two Horner
    accumulators."""
    q = np.subtract(u, 0.5, out=u)
    r = q * q
    np.subtract(0.180625, r, out=r)
    z = _ratio(_AS241_CENTRE, r)
    z *= q
    tail = np.flatnonzero(r < 0.0)
    if tail.size:
        p = np.take(q, tail)
        np.abs(p, out=p)
        np.subtract(0.5, p, out=p)
        s = _neg_log(p)
        np.sqrt(s, out=s)
        x = _ratio(_AS241_TAIL, s - 1.6)
        far = np.flatnonzero(s > 5.0)
        if far.size:
            x[far] = _ratio(_AS241_FAR, s[far] - 5.0)
        np.put(z, tail, np.copysign(x, np.take(q, tail)))
    return z


def _child_ids(parent_hi, parent_lo, rank):
    """128-bit ids of children, one mix per word; rank is a uint64 array
    counting from 1 among siblings, and each word depends on both parent
    words and the rank."""
    hi = rank * _U64(_SALT)
    hi ^= parent_hi
    hi += parent_lo
    lo = rank * _U64(_GOLDEN)
    lo ^= parent_lo
    lo += parent_hi
    return _mix(hi), _mix(lo)


def _root_ids(seed: int, n: int):
    """The 128-bit ids of the first n roots under seed; `run` has the first."""
    idx = np.arange(1, n + 1, dtype=np.uint64)
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
    def deterministic_value(self):
        """The fixed offspring count when the pmf is a point mass, else None."""
        return self._deterministic


@dataclass(eq=False)
class Snapshot:
    """The particle population at one generation.

    ``positions`` has shape (n, d).  ``id_hi``/``id_lo`` hold the two words
    of each particle's 128-bit lineage id.  Snapshots from `run` and `step`
    carry them, and the snapshot file stores them, so a snapshot read back
    from disk can be advanced with `step` exactly as the in-memory one.
    Without ids (e.g. a snapshot built from bare positions) it can be
    analyzed but not advanced.  ``root``, when set, holds each particle's
    root: the row of the generation-0 population it descends from, which
    `step` carries to the children.
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
    """Each parent's offspring count: the number of cut points of the law's
    cumulative pmf at or below its uniform, one comparison per cut point
    (as ``searchsorted(cum, u, "right")``, since u < 1 = cum[-1])."""
    det = law.deterministic_value
    if det is not None:
        # Point-mass law: the draw would be constant; skipping it changes
        # nothing because counter-based draws consume no shared state.
        return np.full(hi.shape[0], det, dtype=np.int64)
    key = _key(seed, _TAG_OFFSPRING)
    cum = law._cumulative
    counts = np.zeros(hi.shape[0], dtype=np.int64)
    for a in range(0, hi.shape[0], BLOCK):
        h = hi[a:a + BLOCK] ^ lo[a:a + BLOCK]
        h ^= key
        u = _u01(_mix(h))
        c = counts[a:a + BLOCK]
        for cut in cum[:-1]:
            c += u >= cut
    return counts


def _make_children(positions, hi, lo, counts, axis_keys, pos, chi, clo):
    """Write the children of one block of parents into pos, chi and clo,
    whose length is counts.sum().  Coordinate j of a child's displacement
    is drawn from its id folded to one word, XOR axis_keys[j]."""
    starts = (np.cumsum(counts) - counts).astype(np.uint64)
    rank = np.arange(1, pos.shape[0] + 1, dtype=np.uint64)
    rank -= np.repeat(starts, counts)
    chi[:], clo[:] = _child_ids(np.repeat(hi, counts), np.repeat(lo, counts), rank)
    pos[:] = np.repeat(positions, counts, axis=0)
    pos += _ndtri(_u01(_mix(axis_keys[:, None] ^ (chi ^ clo)))).T


def _branch(positions, id_hi, id_lo, counts, seed: int, d: int, workers: int):
    """(positions, id_hi, id_lo) of all children, in parent order, filled
    BLOCK parents at a time, on up to ``workers`` threads when there are at
    least two blocks; draws are counter-based, so threads change nothing."""
    axis_keys = np.array([_key(seed, _TAG_POSITION + j * _TAG_STRIDE) for j in range(d)])
    firsts = range(0, counts.shape[0], BLOCK)
    ends = [0, *itertools.accumulate(int(counts[a:a + BLOCK].sum()) for a in firsts)]
    pos = np.empty((ends[-1], d), dtype=np.float64)
    hi = np.empty(ends[-1], dtype=np.uint64)
    lo = np.empty(ends[-1], dtype=np.uint64)

    def build(b: int) -> None:
        p, c = slice(firsts[b], firsts[b] + BLOCK), slice(ends[b], ends[b + 1])
        _make_children(positions[p], id_hi[p], id_lo[p], counts[p], axis_keys,
                       pos[c], hi[c], lo[c])

    if workers > 1 and len(firsts) >= 2:
        with ThreadPoolExecutor(max_workers=min(workers, len(firsts))) as pool:
            list(pool.map(build, range(len(firsts))))
    else:
        list(map(build, range(len(firsts))))
    return pos, hi, lo


def _advance(s: Snapshot, law: OffspringLaw, seed: int, population_cap: int,
             workers: int) -> Snapshot:
    """The next generation of s: the one place that draws offspring, applies
    the population cap and branches.  Children inherit their parent's root."""
    counts = _offspring_counts(law, seed, s.id_hi, s.id_lo)
    total = int(counts.sum())
    if total > population_cap:
        raise PopulationCapError(s.t + 1, total, population_cap)
    pos, hi, lo = _branch(s.positions, s.id_hi, s.id_lo, counts, seed, s.d, workers)
    root = None if s.root is None else np.repeat(s.root, counts)
    return Snapshot(t=s.t + 1, positions=pos, id_hi=hi, id_lo=lo, root=root)


def step(
    s: Snapshot,
    law: OffspringLaw,
    seed: int,
    *,
    population_cap: int = DEFAULT_POPULATION_CAP,
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
    return _advance(s, law, seed, population_cap, workers)


def _generations(cfg: SimConfig, workers: int, chunk: int,
                 start: Snapshot | None = None) -> Iterator[tuple[Snapshot, int]]:
    """The run of cfg walked depth first, as (part, done): a part of
    generation part.t, generation 0 first and whole, and the number of
    generations now complete, those that no parent waiting on the stack can
    add to.  Generation 0 is ``start`` (one row per root, the roots of
    independent runs of cfg's law and seed) or else `initial_snapshot`.  A
    part holds the children of at most ``chunk`` parents, so the walk holds
    one step's children per generation, and it advances no empty part.  The
    parts of a generation come in the order of its rows made whole.  The cap
    applies to each generation's total; an abort names a generation over it
    and the count made by then, which can be below that total (and the
    generation later than the first over the cap).

    Generations are made by the public `step` rather than `_advance`, so
    that wrapping `step` (as a profiler or tracer does) sees every one.
    """
    law, cap = cfg.law, cfg.population_cap
    made = [0] * (cfg.t_max + 1)
    s = initial_snapshot(cfg) if start is None else start
    yield s, 1
    todo = [(s, 0)] if cfg.t_max else []
    while todo:
        s, a = todo.pop()
        b = a + chunk
        if b < s.n:
            todo.append((s, b))
        part = Snapshot(s.t, s.positions[a:b], s.id_hi[a:b], s.id_lo[a:b],
                        None if s.root is None else s.root[a:b])
        try:
            s = step(part, law, cfg.seed, population_cap=cap - made[s.t + 1], workers=workers)
        except PopulationCapError as exc:
            raise PopulationCapError(exc.t, made[exc.t] + exc.population, cap) from None
        made[s.t] += s.n
        if s.t < cfg.t_max and s.n:
            todo.append((s, 0))
        # Remainders and children go on top of their parents, so t never
        # falls up the stack: the bottom entry's generation, and every one
        # before it, can gain no more parts.
        yield s, todo[0][0].t + 1 if todo else cfg.t_max + 1


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


def _record_nbytes(n: int, d: int, ids: bool) -> int:
    return n * d * 8 + (16 * n if ids else 0)


class SnapshotWriter:
    """Single-owner snapshot file writer (format version 3).

    The first line is a JSON header record.  A snapshot is written in parts,
    which may interleave with other snapshots' parts.  Each `write` adds one
    part: a JSON record line ``{"type": "part", "t", "n", "ids", "nbytes",
    "crc32"}`` followed by exactly ``nbytes`` raw little-endian bytes, the
    positions as float64, row-major, then the lineage-id words ``id_hi`` and
    ``id_lo`` as uint64 when ``ids`` is true.  ``crc32`` (zlib) covers those
    raw bytes.  `end` closes a snapshot with a record line ``{"type": "end",
    "t", "n"}``, where n counts the rows of its parts; the snapshot is its
    parts joined in file order.  Values are stored bit for bit, and a
    snapshot written with its lineage ids reads back as one that can be
    advanced.
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
        arrays = [s.positions.astype("<f8", copy=False)]
        if s.has_ids:
            arrays += [a.astype("<u8", copy=False) for a in (s.id_hi, s.id_lo)]
        crc = 0
        for a in arrays:
            crc = zlib.crc32(a, crc)
        record = {
            "type": "part",
            "t": s.t,
            "n": s.n,
            "ids": s.has_ids,
            "nbytes": _record_nbytes(s.n, s.d, s.has_ids),
            "crc32": crc,
        }
        self._fh.write(_json_line(record))
        for a in arrays:
            self._fh.write(a)
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


def read_snapshot_file(path) -> tuple[dict, list[Snapshot]]:
    """Read a snapshot file written by `SnapshotWriter`.

    Returns (header, snapshots): one snapshot per end record, in strictly
    increasing t, with lineage ids when its parts stored them.  Parts that
    no end record closes, the tail of a run stopped by the population cap,
    are dropped.  The record lines are indexed first, seeking past the
    data; then each snapshot is allocated once and each part read straight
    into its rows, so the reader holds little more than what it returns.
    Any malformed, truncated, corrupted or out-of-order content, and a file
    in another format version, raises `ValidationError` naming the record
    (the header is record 0) and the last complete snapshot time before it.
    """
    ends: list[tuple[int, int, int]] = []  # (record, t, n) of each end record
    # t -> (record, n, ids, data offset, crc32) of each of its parts
    parts: dict[int, list[tuple[int, int, bool, int, int]]] = {}

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
        d = header.get("d")
        if not (_is_count(d) and d >= 1):
            raise fail(0, f"header dimension {d!r} is not an integer >= 1")
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
            ids, nbytes, crc = rec.get("ids"), rec.get("nbytes"), rec.get("crc32")
            if type(ids) is not bool or not _is_count(crc):
                raise fail(index, "record needs a boolean 'ids' and an integer 'crc32'")
            if mine and ids != mine[0][2]:
                raise fail(index, f"'ids' differs between the parts of t={t}")
            want = _record_nbytes(n, d, ids)
            if nbytes != want:
                raise fail(index, f"nbytes={nbytes!r}, but n={n}, d={d}, ids={ids} "
                           f"need {want}")
            # Checked before anything is allocated, so a damaged n cannot ask
            # for the memory; a file shrinking under the reader fails below.
            left = size - fh.tell()
            if nbytes > left:
                raise fail(index, f"truncated: {left} of {nbytes} data bytes present")
            mine.append((index, n, ids, fh.tell(), crc))
            fh.seek(nbytes, os.SEEK_CUR)
            index += 1

        snaps = []
        for _, t, n in ends:
            mine = parts[t]
            ids = mine[0][2] if mine else True
            arrays = [np.empty((n, d), dtype="<f8")]
            if ids:
                arrays += [np.empty(n, dtype="<u8"), np.empty(n, dtype="<u8")]
            row = 0
            for index, m, _, offset, crc in mine:
                fh.seek(offset)
                got = 0
                for a in arrays:
                    rows = a[row:row + m]
                    if fh.readinto(rows) != rows.nbytes:
                        raise fail(index, "truncated: the file shrank while it was read")
                    got = zlib.crc32(rows, got)
                if got != crc:
                    raise fail(index, "crc32 mismatch: the data bytes are corrupted")
                row += m
            snaps.append(Snapshot(t, *arrays))
    return header, snaps


def run(cfg: SimConfig, out=None, *, workers: int = 1) -> list:
    """Run the process to t_max, walked depth first (see `_generations`).

    Without ``out``, returns the requested snapshots, each joined from the
    parts of the walk as they are made, so that it holds each generation
    once plus one part.  With ``out`` set, each part of a requested snapshot
    is written to that path as it is made and none is kept; returns the
    (t, n) of each snapshot written.  On a population-cap abort the
    snapshots completed so far remain in the file as a valid partial result.
    """
    _check_int(workers, "workers", 1)
    wanted = list(cfg.snapshot_times)
    kept = {t: (np.empty((0, cfg.d)), np.empty(0, _U64), np.empty(0, _U64)) for t in wanted}
    result = []
    with (contextlib.nullcontext() if out is None
          else SnapshotWriter(out, d=cfg.d, pmf=cfg.pmf, seed=cfg.seed)) as writer:
        for s, done in _generations(cfg, workers, _RUN_CHUNK):
            if s.n and s.t in kept:
                if writer:
                    writer.write(s)
                else:
                    _append(kept[s.t], s)
            while wanted and wanted[0] < done:
                t = wanted.pop(0)
                result.append((t, writer.end(t)) if writer else Snapshot(t, *kept.pop(t)))
    return result


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


def radius_profile(cfg: SimConfig) -> list[tuple[int, float]]:
    """(t, max_radius) for every generation up to t_max (stops at extinction).

    The run is walked depth first, `_RUN_CHUNK` parents at a time; the
    largest radius of a generation is the largest over its parts, so the
    profile is the whole run's bit for bit.
    """
    top: dict[int, float] = {}
    for s, _ in _generations(cfg, 1, _RUN_CHUNK):
        if s.n:
            top[s.t] = max(top.get(s.t, 0.0), max_radius(s))
    return sorted(top.items())
