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

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .multiindex import MultiIndex, as_multiindex

#: Largest |beta| served by moment(); expansion orders k <= 8 need at most
#: |beta| = 2k.
MOMENT_CAP = 16


def _as_float_tuple(v, what: str) -> tuple[float, ...]:
    if isinstance(v, (str, bytes)):
        raise ValidationError(f"{what} must be a sequence of reals, got {v!r}")
    try:
        out = tuple(float(c) for c in v)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be a sequence of reals") from exc
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
        try:
            object.__setattr__(self, "radius", float(self.radius))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"radius must be a real, got {self.radius!r}") from exc
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
        # Sweep along axis 0: only members whose extents there meet get
        # the exact test; every pair skipped is one _separated accepts.
        ext = [_axis0_extent(m) for m in members]
        active = []
        for j in sorted(range(len(members)), key=lambda i: ext[i][0]):
            active = [i for i in active if ext[i][1] > ext[j][0]]
            for i in active:
                if not _separated(members[min(i, j)], members[max(i, j)]):
                    raise ValidationError(
                        f"union members {min(i, j)} and {max(i, j)} overlap (or "
                        "touch in a way the separation test cannot certify)"
                    )
            active.append(j)

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
        lo = np.asarray(region.lower)
        hi = np.asarray(region.upper)
        mask = np.all((pts >= lo) & (pts < hi), axis=1)
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
    """What moment_matrix needs from the beta list alone, as ints and floats.

    ``cores``: per even gamma <= some beta, (|gamma|+d, Gamma((g_i+1)/2) per
    axis, (|gamma|+d) Gamma((|gamma|+d)/2)); the centered ball's Dirichlet
    integral (zero for odd gamma) is 2 R^(|gamma|+d) times them over the
    last.  ``shifted[j]``: (core, C(beta, gamma), beta - gamma) over the even
    gamma <= beta_j, expanding (c + y)^beta for an off-center ball."""
    d = len(betas[0])
    if max(map(sum, betas)) > MOMENT_CAP:
        raise ValidationError(f"moment order exceeds cap {MOMENT_CAP}")
    cores, core_of, shifted = [], {}, []
    for beta in betas:
        terms = []
        for g in itertools.product(*(range(0, b + 1, 2) for b in beta)):
            if g not in core_of:
                nd, core_of[g] = sum(g) + d, len(cores)
                gammas = [math.gamma((c + 1) / 2.0) for c in g]
                cores.append((nd, gammas, nd * math.gamma(nd / 2.0)))
            choose = math.prod(map(math.comb, beta, g))
            terms.append((core_of[g], choose, tuple(b - c for b, c in zip(beta, g))))
        shifted.append(terms)
    tops = tuple(max(col) for col in zip(*betas))
    return d, tops, betas, cores, [core_of.get(b) for b in betas], shifted


def _moment_row(region, plan) -> list[float]:
    """One region's moments for every beta of the plan; math.prod multiplies
    left to right, as the closed forms read."""
    _, tops, betas, cores, centered, shifted = plan
    if isinstance(region, Box):
        f = [[(hi ** (e + 1) - lo ** (e + 1)) / (e + 1) for e in range(top + 1)]
             for lo, hi, top in zip(region.lower, region.upper, tops)]
        return [math.prod(fi[b] for fi, b in zip(f, beta)) for beta in betas]
    if isinstance(region, Ball):
        core = [math.prod(g, start=2.0 * region.radius**nd) / den for nd, g, den in cores]
        if all(c == 0.0 for c in region.center):
            return [0.0 if j is None else core[j] for j in centered]
        # Shift to the centered case: x = c + y, expand x^beta binomially.
        powers = [[c**e for e in range(top + 1)] for c, top in zip(region.center, tops)]
        return [math.fsum(choose * math.prod(p[e] for p, e in zip(powers, exps)) * core[j]
                          for j, choose, exps in terms if core[j] != 0.0)
                for terms in shifted]
    if isinstance(region, UnionRegion):
        return [math.fsum(c) for c in zip(*(_moment_row(m, plan) for m in region.members))]
    raise ValidationError(f"not a region: {region!r}")


def _finite_row(i: int, region, plan) -> list[float]:
    try:
        row = _moment_row(region, plan)
        if all(map(math.isfinite, row)):
            return row
    except OverflowError:
        pass
    raise ValidationError(f"region {i}: a moment overflows float64 (coordinates too large)")


def moment_matrix(regions, betas) -> np.ndarray:
    """M[i, j] = moment(regions[i], betas[j]) for distinct betas of one
    dimension; each region computes each beta once."""
    plan = _moment_plan(tuple(map(tuple, betas)))
    for region in regions:
        if region.dim != plan[0]:
            raise ValidationError(f"moment index dim {plan[0]} != region dim {region.dim}")
    rows = [_finite_row(i, r, plan) for i, r in enumerate(regions)]
    return np.array(rows, dtype=np.float64).reshape(len(rows), len(plan[2]))


def moment(region, beta) -> float:
    """M_beta(A) = integral over A of x^beta dx (exact closed forms)."""
    return float(moment_matrix([region], [as_multiindex(beta)])[0, 0])


def volume(region) -> float:
    """Lebesgue volume, i.e. the zero moment."""
    return moment(region, MultiIndex([0] * region.dim))


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


def load_json(text_or_path, what: str):
    """Parse JSON given inline or as a file path.

    Text starting with ``{`` or ``[`` (after whitespace) is the JSON itself;
    anything else names a file to read.  ``what`` names the content in the
    error raised on malformed JSON.
    """
    text = str(text_or_path)
    if not text.lstrip().startswith(("{", "[")):
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad {what} JSON: {exc}") from exc


def region_from_json(text_or_path) -> Box | Ball | UnionRegion:
    """Parse a region from a JSON string or a path to a JSON file."""
    return region_from_dict(load_json(text_or_path, "region"))
