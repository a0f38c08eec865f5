"""Bounded regions of R^d with membership tests and exact moments.

Three variants: axis-aligned boxes (half-open, [lower, upper)), closed
balls, and disjoint unions of those.  The half-open box convention makes
tilings partition space, so particle counts over a tiling add up exactly.

Moments M_beta(A) = integral over A of x^beta dx are closed-form in every
case: a product formula for boxes, the Dirichlet integral for centered
balls (odd components integrate to zero), and a binomial change of variables
for off-center balls.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .errors import ValidationError
from .multiindex import as_multiindex

#: Largest |beta| served by moment(); expansion orders k <= 8 need at most
#: |beta| = 2k.
MOMENT_CAP = 16


def _real(value, what: str) -> float:
    """value as a float; bools, strings and numbers beyond float are refused,
    numpy integer and floating scalars accepted."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{what} does not fit a float") from None


def _as_float_tuple(v, what: str) -> tuple[float, ...]:
    if isinstance(v, (str, bytes)):
        raise ValidationError(f"{what} must be a sequence of reals, got {v!r}")
    try:
        out = tuple(_real(c, f"entry {i}") for i, c in enumerate(v))
    except (TypeError, ValidationError) as exc:
        raise ValidationError(f"{what} must be a sequence of reals: {exc}") from None
    if len(out) == 0:
        raise ValidationError(f"{what} must be non-empty")
    if not all(math.isfinite(c) for c in out):
        raise ValidationError(f"{what} must be finite")
    return out


@dataclass(frozen=True)
class Box:
    """Axis-aligned half-open box  prod_i [lower_i, upper_i)."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lower", _as_float_tuple(self.lower, "lower"))
        object.__setattr__(self, "upper", _as_float_tuple(self.upper, "upper"))
        if len(self.lower) != len(self.upper):
            raise ValidationError("lower/upper dimension mismatch")
        for lo, hi in zip(self.lower, self.upper):
            if not lo < hi:
                raise ValidationError(f"box side [{lo}, {hi}) is empty")

    @property
    def dim(self) -> int:
        return len(self.lower)


@dataclass(frozen=True)
class Ball:
    """Closed ball { x : |x - center| <= radius }."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_float_tuple(self.center, "center"))
        object.__setattr__(self, "radius", _real(self.radius, "radius"))
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValidationError(f"radius must be positive, got {self.radius}")

    @property
    def dim(self) -> int:
        return len(self.center)


def _separated(a, b) -> bool:
    """Conservative pairwise disjointness test for union members."""
    if isinstance(a, Box) and isinstance(b, Box):
        # Half-open boxes: touching faces do not overlap.
        return any(
            au <= bl or bu <= al
            for al, au, bl, bu in zip(a.lower, a.upper, b.lower, b.upper)
        )
    if isinstance(a, Ball) and isinstance(b, Ball):
        gap = math.dist(a.center, b.center)
        return gap > a.radius + b.radius
    if isinstance(a, Ball):
        a, b = b, a
    # a: Box, b: Ball — distance from the center to the closed box, by
    # hypot, which neither overflows nor underflows as squares would.
    gaps = (max(lo - c, c - hi, 0.0) for lo, hi, c in zip(a.lower, a.upper, b.center))
    return math.hypot(*gaps) > b.radius


def _axis0_extent(m) -> tuple[float, float]:
    """[lo, hi] on axis 0, a ball's widened by 1e-12 (radius + |center_0|),
    far above rounding."""
    if isinstance(m, Box):
        return m.lower[0], m.upper[0]
    reach = m.radius + 1e-12 * (m.radius + abs(m.center[0]))
    return m.center[0] - reach, m.center[0] + reach


def _check_disjoint(regions, what: str) -> None:
    """Refuse the first two of ``regions`` found to meet, naming them as
    ``what`` i and j; a union takes part through its members.  Sweep along
    axis 0: only members whose extents there meet get the exact test;
    every pair skipped is one _separated accepts."""
    leaves = [(i, m) for i, region in enumerate(regions)
              for m in (region.members if isinstance(region, UnionRegion) else (region,))]
    ext = [_axis0_extent(m) for _, m in leaves]
    active = []
    for j in sorted(range(len(leaves)), key=lambda i: ext[i][0]):
        active = [i for i in active if ext[i][1] > ext[j][0]]
        for i in active:
            (a, x), (b, y) = leaves[min(i, j)], leaves[max(i, j)]
            if not _separated(x, y):
                raise ValidationError(f"{what} {a} and {b} overlap (or touch in a way "
                                      "the separation test cannot certify)")
        active.append(j)


@dataclass(frozen=True)
class UnionRegion:
    """Disjoint union of boxes and balls; members are validated pairwise."""

    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if len(members) == 0:
            raise ValidationError("union needs at least one member")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise ValidationError(f"union members mix dimensions {sorted(dims)}")
        for m in members:
            if not isinstance(m, (Box, Ball)):
                raise ValidationError("union members must be boxes or balls")
        _check_disjoint(members, "union members")

    @property
    def dim(self) -> int:
        return self.members[0].dim


def contains(region, x):
    """Membership test; x of shape (d,) gives a bool, (N, d) a bool array."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.ndim != 2 or pts.shape[1] != region.dim:
        raise ValidationError(
            f"points of shape {x.shape} do not match region dim {region.dim}"
        )
    if isinstance(region, Box):
        # One axis at a time into one mask: no (N, d) temporaries.
        mask = np.ones(pts.shape[0], dtype=bool)
        for j, (lo, hi) in enumerate(zip(region.lower, region.upper)):
            mask &= pts[:, j] >= lo
            mask &= pts[:, j] < hi
    elif isinstance(region, Ball):
        c = np.asarray(region.center)
        # radius**2 overflows above 1.3e154, where any finite distance**2 is inside.
        r2 = region.radius**2 if region.radius < 1e154 else math.inf
        mask = np.einsum("ij,ij->i", pts - c, pts - c) <= r2
    elif isinstance(region, UnionRegion):
        mask = np.zeros(pts.shape[0], dtype=bool)
        for m in region.members:
            mask |= contains(m, pts)
    else:
        raise ValidationError(f"not a region: {region!r}")
    return bool(mask[0]) if single else mask


@lru_cache(maxsize=64)
def _moment_plan(betas: tuple[tuple[int, ...], ...]):
    """moment_matrix's arrays from the beta list alone.  Cores, per even
    gamma <= some beta: the centered ball's Dirichlet integral is 2 R^nds
    times gam's rows over den.  Terms, per beta (spans) and even gamma <=
    beta: its core, C(beta, gamma) and exps = beta - gamma, which expand
    (c + y)^beta for an off-center ball."""
    d = len(betas[0])
    if max(map(sum, betas)) > MOMENT_CAP:
        raise ValidationError(f"moment order exceeds cap {MOMENT_CAP}")
    core_of, terms, spans = {}, [], []
    for beta in betas:
        spans.append((len(terms), len(terms) + math.prod(b // 2 + 1 for b in beta)))
        for g in itertools.product(*(range(0, b + 1, 2) for b in beta)):
            terms.append((core_of.setdefault(g, len(core_of)),
                          math.prod(map(math.comb, beta, g)), *(b - c for b, c in zip(beta, g))))
    nds, terms = [sum(g) + d for g in core_of], np.array(terms)
    return SimpleNamespace(
        d=d, betas=np.array(betas).T, spans=spans, core=terms[:, 0], exps=terms[:, 2:].T,
        choose=terms[:, 1].astype(np.float64), nds=nds,
        gam=np.array([[math.gamma((c + 1) / 2.0) for c in g] for g in core_of]).T,
        # Gamma(nd/2) overflows from nd = 344: NaN there refuses a ball, not a box.
        den=np.array([nd * math.gamma(nd / 2.0) if nd < 344 else math.nan for nd in nds]),
        centered=np.array([core_of.get(b, -1) for b in betas]))


def _powers(values, exps) -> np.ndarray:
    """t[i, j] = values[i] ** exps[j] by Python's float **, which raises
    OverflowError (numpy's power can differ from it in the last bit)."""
    return np.array([[v ** e for v in values] for e in exps]).T


def _box_moments(boxes, plan) -> np.ndarray:
    """Per axis (hi^(e+1) - lo^(e+1))/(e+1), multiplied left to right."""
    lower, upper = zip(*((b.lower, b.upper) for b in boxes))
    return math.prod(((_powers(hi, e) - _powers(lo, e)) / np.array(e))[:, col]
                     for lo, hi, col, e in zip(zip(*lower), zip(*upper), plan.betas,
                                               (range(1, max(col) + 2) for col in plan.betas)))


def _ball_moments(balls, plan) -> np.ndarray:
    """Centered rows pick their core; off-center rows fsum choose * shift *
    core over their terms, with 0.0 (which fsum ignores) for a zero core."""
    radii = _powers([b.radius for b in balls], plan.nds)
    core = math.prod(plan.gam, start=2.0 * radii) / plan.den
    centers = [b.center for b in balls]
    shift = math.prod(_powers(c, range(max(e) + 1))[:, e]
                      for c, e in zip(zip(*centers), plan.exps))
    k = core[:, plan.core]
    terms = np.where(k != 0.0, plan.choose * shift * k, 0.0)
    out = np.where(plan.centered >= 0, core[:, plan.centered], 0.0)
    off = np.flatnonzero(np.any(centers, axis=1))
    out[off] = np.array([list(map(math.fsum, terms[off, s:t].tolist())) for s, t in plan.spans]).T
    return out


def _rows(regions, plan) -> np.ndarray:
    """moment_matrix's rows; an overflowing power or fsum raises."""
    leaves, first = [], []
    for region in regions:
        first.append(len(leaves))
        leaves += region.members if isinstance(region, UnionRegion) else (region,)
    rows = np.empty((len(leaves), len(plan.spans)))
    for kind, moments in ((Box, _box_moments), (Ball, _ball_moments)):
        idx = [j for j, m in enumerate(leaves) if isinstance(m, kind)]
        if idx:
            rows[idx] = moments([leaves[j] for j in idx], plan)
    out = rows[first]
    for i, (region, j) in enumerate(zip(regions, first)):
        if isinstance(region, UnionRegion):
            out[i] = list(map(math.fsum, rows[j:j + len(region.members)].T.tolist()))
    return out


def moment_matrix(regions, betas) -> np.ndarray:
    """M[i, j] = moment(regions[i], betas[j]) for distinct betas of one
    dimension.  Unions are taken apart, each beta is one column over all
    boxes, then all balls, and a union's row is the fsum of its members'.
    The first region with an overflowing power or moment is refused."""
    plan = _moment_plan(tuple(map(tuple, betas)))
    for region in regions:
        if not isinstance(region, (Box, Ball, UnionRegion)):
            raise ValidationError(f"not a region: {region!r}")
        if region.dim != plan.d:
            raise ValidationError(f"moment index dim {plan.d} != region dim {region.dim}")
    with np.errstate(all="ignore"):
        try:
            out = _rows(regions, plan)
        except (OverflowError, ValueError):  # one region at a time, to name it
            out = np.full((len(regions), len(plan.spans)), math.nan)
            for i, region in enumerate(regions):
                with contextlib.suppress(OverflowError, ValueError):
                    out[i] = _rows([region], plan)
    bad = ~np.isfinite(out).all(axis=1)
    if bad.any():
        raise ValidationError(
            f"region {bad.argmax()}: a moment overflows float64 (coordinates too large)")
    return out


def moment(region, beta) -> float:
    """M_beta(A) = integral over A of x^beta dx (exact closed forms)."""
    return float(moment_matrix([region], [as_multiindex(beta)])[0, 0])


def region_from_dict(obj) -> Box | Ball | UnionRegion:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValidationError("region object needs a 'type' field")
    kind = obj["type"]
    try:
        if kind == "box":
            return Box(obj["lower"], obj["upper"])
        if kind == "ball":
            return Ball(obj["center"], obj["radius"])
        if kind == "union":
            return UnionRegion(tuple(region_from_dict(m) for m in obj["members"]))
    except KeyError as exc:
        raise ValidationError(f"region object missing field {exc}") from exc
    except TypeError as exc:
        raise ValidationError(f"bad {kind} region field: {exc}") from exc
    raise ValidationError(f"unknown region type {kind!r}")


def _parse_json(data, what: str):
    """The JSON value of str or UTF-8 bytes; undecodable bytes, malformed
    JSON, numbers too long to parse and nesting too deep to parse raise
    ValidationError naming ``what``."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"bad {what} JSON: {exc}") from None


def _read_json(path, what: str):
    """The JSON value of the file at ``path``; see _parse_json."""
    with open(path, "rb") as fh:
        return _parse_json(fh.read(), what)


def load_json(text_or_path, what: str):
    """Parse JSON given inline or as a file path.

    Text starting with ``{`` or ``[`` (after whitespace) is the JSON itself;
    anything else names a file to read.  ``what`` names the content in the
    error raised on malformed JSON.
    """
    text = str(text_or_path)
    if text.lstrip().startswith(("{", "[")):
        return _parse_json(text, what)
    return _read_json(text, what)
