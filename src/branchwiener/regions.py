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

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .multiindex import MultiIndex, as_multiindex, choose, sub_indices

#: Largest |beta| served by moment(); expansion orders k <= 8 need at most
#: |beta| = 2k.
MOMENT_CAP = 16


def _as_float_tuple(v, what: str) -> tuple[float, ...]:
    try:
        out = tuple(float(c) for c in v)
    except TypeError as exc:
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
        object.__setattr__(self, "radius", float(self.radius))
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
    # a: Box, b: Ball — distance from the center to the closed box.
    dist_sq = 0.0
    for lo, hi, c in zip(a.lower, a.upper, b.center):
        if c < lo:
            dist_sq += (lo - c) ** 2
        elif c > hi:
            dist_sq += (c - hi) ** 2
    return dist_sq > b.radius**2


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
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if not _separated(members[i], members[j]):
                    raise ValidationError(
                        f"union members {i} and {j} overlap (or touch in a "
                        "way the separation test cannot certify)"
                    )

    @property
    def dim(self) -> int:
        return self.members[0].dim


Region = (Box, Ball, UnionRegion)


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
        mask = np.einsum("ij,ij->i", pts - c, pts - c) <= region.radius**2
    elif isinstance(region, UnionRegion):
        mask = np.zeros(pts.shape[0], dtype=bool)
        for m in region.members:
            mask |= contains(m, pts)
    else:
        raise ValidationError(f"not a region: {region!r}")
    return bool(mask[0]) if single else mask


def _centered_ball_moment(radius: float, beta: MultiIndex) -> float:
    """Dirichlet integral over the centered ball; zero if any component is
    odd.  For even beta:

        M_beta = 2 R^(|beta|+d) * prod_i Gamma((beta_i+1)/2)
                 / ((|beta|+d) * Gamma((|beta|+d)/2))
    """
    if any(b % 2 for b in beta):
        return 0.0
    d = beta.dim
    n = beta.order
    num = 2.0 * radius ** (n + d)
    for b in beta:
        num *= math.gamma((b + 1) / 2.0)
    return num / ((n + d) * math.gamma((n + d) / 2.0))


@lru_cache(maxsize=65536)
def _moment_cached(region, beta: MultiIndex) -> float:
    if isinstance(region, Box):
        out = 1.0
        for lo, hi, b in zip(region.lower, region.upper, beta):
            out *= (hi ** (b + 1) - lo ** (b + 1)) / (b + 1)
        return out
    if isinstance(region, Ball):
        if all(c == 0.0 for c in region.center):
            return _centered_ball_moment(region.radius, beta)
        # Shift to the centered case: x = c + y, expand x^beta binomially.
        acc = []
        for gamma in sub_indices(beta):
            core = _centered_ball_moment(region.radius, gamma)
            if core == 0.0:
                continue
            shift = 1.0
            for c, b, g in zip(region.center, beta, gamma):
                shift *= c ** (b - g)
            acc.append(choose(beta, gamma) * shift * core)
        return math.fsum(acc)
    if isinstance(region, UnionRegion):
        return math.fsum(_moment_cached(m, beta) for m in region.members)
    raise ValidationError(f"not a region: {region!r}")


def moment(region, beta) -> float:
    """M_beta(A) = integral over A of x^beta dx (exact closed forms)."""
    b = as_multiindex(beta)
    if b.dim != region.dim:
        raise ValidationError(f"moment index dim {b.dim} != region dim {region.dim}")
    if b.order > MOMENT_CAP:
        raise ValidationError(f"moment order {b.order} exceeds cap {MOMENT_CAP}")
    return _moment_cached(region, b)


def volume(region) -> float:
    """Lebesgue volume, i.e. the zero moment."""
    return moment(region, MultiIndex([0] * region.dim))


def region_to_dict(region) -> dict:
    if isinstance(region, Box):
        return {"type": "box", "lower": list(region.lower), "upper": list(region.upper)}
    if isinstance(region, Ball):
        return {"type": "ball", "center": list(region.center), "radius": region.radius}
    if isinstance(region, UnionRegion):
        return {"type": "union", "members": [region_to_dict(m) for m in region.members]}
    raise ValidationError(f"not a region: {region!r}")


def region_from_dict(obj) -> Box | Ball | UnionRegion:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValidationError("region object needs a 'type' field")
    kind = obj["type"]
    try:
        if kind == "box":
            return Box(tuple(obj["lower"]), tuple(obj["upper"]))
        if kind == "ball":
            return Ball(tuple(obj["center"]), obj["radius"])
        if kind == "union":
            return UnionRegion(tuple(region_from_dict(m) for m in obj["members"]))
    except KeyError as exc:
        raise ValidationError(f"region object missing field {exc}") from exc
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
