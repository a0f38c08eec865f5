"""Population statistics V_alpha, their limits, and moment oracles.

For a snapshot at generation t define

    V_alpha(t) = sum over particles y of H_alpha(y, t).

With offspring mean m, the normalized process V_alpha(t)/m^t is a martingale
whose almost-sure limit N_alpha exists for every multi-index; V_0(t) is just
the population count Z_t, and N_0 = lim Z_t/m^t is the classical branching
normalization.  This module computes V_alpha from snapshots, estimates the
N_alpha, evaluates the exact conditional expectation of future region counts
given a snapshot, and carries the exact second-moment recursion

    E[V_a(t)^2] = m^(t-1) a! ( m (t^|a| - (t-1)^|a|) + sigma^2 (t-1)^|a| )
                  + m^2 E[V_a(t-1)^2],      E[V_a(0)^2] = [a == 0],

(with 0^0 = 1) that anchors all Monte Carlo second-moment checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .hermite import hermite_products
from .multiindex import MultiIndex, as_multiindex, factorial
from .regions import Ball, Box, UnionRegion
from .simulator import OffspringLaw, Snapshot, ensemble_states

#: Exponent in the reported N-estimate error heuristic m^(-t/2.5).
ERROR_HEURISTIC_EXPONENT = 1 / 2.5


def v_alpha_many(s: Snapshot, alphas: Sequence) -> dict[MultiIndex, float]:
    """V_alpha of a snapshot for each given index: the sum over particles of
    H_alpha(position, t)."""
    alphas = [as_multiindex(a) for a in alphas]
    products = hermite_products(s.positions, float(s.t), alphas)
    return {a: float(np.sum(w)) for a, w in zip(alphas, products)}


def _times_power(x: float, m: float, t: float) -> float | None:
    """m**t * x, or None where that is not a finite float."""
    try:
        value = m**t * x
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _growth(m: float, t: float, name: str = "t") -> float:
    """m**t, refused unless it is a positive finite float; ``name`` is what
    the error calls t."""
    growth = _times_power(1.0, m, t) if m > 0 else None
    if not growth:
        raise ValidationError(f"need 0 < m**{name} < inf; got {name}={t}, m={m}")
    return growth


@dataclass
class NTable:
    """Estimated (or synthetic) martingale limits N_alpha.

    ``entries`` maps MultiIndex -> value; ``errors`` optionally carries a
    per-index error heuristic; ``meta`` records provenance (source time,
    seed, solver condition number, caveats).
    """

    d: int
    m: float
    entries: dict[MultiIndex, float]
    errors: dict[MultiIndex, float] | None = None
    k: int | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.entries = {as_multiindex(a): float(v) for a, v in self.entries.items()}
        if self.errors is not None:
            self.errors = {as_multiindex(a): float(v) for a, v in self.errors.items()}
        if not (self.m > 0 and math.isfinite(self.m)):
            raise ValidationError(f"m={self.m} must be positive and finite")
        for a in self.entries:
            if a.dim != self.d:
                raise ValidationError(f"entry {a} does not have dim {self.d}")
        for what, values in (("value", self.entries), ("error", self.errors or {})):
            for a, v in values.items():
                if not math.isfinite(v):
                    raise ValidationError(
                        f"{what} {v} for index {tuple(a)} is not finite"
                    )

    def __getitem__(self, alpha) -> float:
        return self.entries[as_multiindex(alpha)]

    def __contains__(self, alpha) -> bool:
        return as_multiindex(alpha) in self.entries

    def covers(self, k: int, d: int) -> bool:
        from .expansion import _required_indices

        return d == self.d and all(g in self.entries for g in _required_indices(k, d))

    def to_dict(self) -> dict:
        entries = []
        for a in sorted(self.entries, key=lambda a: (a.order, tuple(-c for c in a))):
            err = None if self.errors is None else self.errors.get(a)
            entries.append({"alpha": list(a), "value": self.entries[a], "err": err})
        return {
            "k": self.k,
            "d": self.d,
            "m": self.m,
            "entries": entries,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "NTable":
        try:
            entries = {
                MultiIndex(e["alpha"]): float(e["value"]) for e in obj["entries"]
            }
            errors = {
                MultiIndex(e["alpha"]): float(e["err"])
                for e in obj["entries"]
                if e.get("err") is not None
            }
            return cls(
                d=int(obj["d"]),
                m=float(obj["m"]),
                entries=entries,
                errors=errors or None,
                k=None if obj.get("k") is None else int(obj["k"]),
                meta=dict(obj.get("meta", {})),
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad N-table object: {exc!r}") from exc

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "NTable":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"bad N-table JSON: {exc}") from exc
        return cls.from_dict(obj)


def estimate_n(
    snapshots: Sequence[Snapshot],
    alphas: Sequence,
    m: float,
    *,
    k: int | None = None,
    seed: int | None = None,
) -> NTable:
    """Estimate every N_alpha from the last snapshot of a trajectory.

    The estimate is the current martingale value V_alpha(t_last)/m^t_last —
    later snapshots strictly dominate earlier ones, so no cross-time
    averaging is done.  The reported error is the heuristic
    c_alpha * m^(-t_last/2.5) with c_alpha calibrated from the observed
    increment sizes when at least two snapshots are available.  An m for
    which m**t_last is not a positive finite float is refused.
    """
    if not snapshots:
        raise ValidationError("empty trajectory")
    times = [s.t for s in snapshots]
    if any(a >= b for a, b in zip(times, times[1:])):
        raise ValidationError("snapshots must be at strictly increasing times")
    t_last = times[-1]
    _growth(m, t_last)
    alphas = [as_multiindex(a) for a in alphas]
    # V_alpha(t)/m^t per snapshot, one Hermite table pass per snapshot.
    values = [v_alpha_many(s, alphas) for s in snapshots]
    decay = m ** (-t_last * ERROR_HEURISTIC_EXPONENT)
    entries = {}
    errors = {}
    for a in alphas:
        xs = [v[a] / m**t for v, t in zip(values, times)]
        entries[a] = xs[-1]
        if len(xs) >= 2:
            scale = max(
                abs(xs[i] - xs[i - 1]) * m ** (times[i] * ERROR_HEURISTIC_EXPONENT)
                for i in range(1, len(xs))
            )
            scale = max(scale, 1e-12)
        else:
            scale = max(abs(xs[-1]), 1.0)
        errors[a] = scale * decay
    meta = {
        "source_t": t_last,
        "m": m,
        "error_heuristic": "scale * m^(-t/2.5)",
    }
    if seed is not None:
        meta["seed"] = seed
    return NTable(
        d=snapshots[-1].d, m=float(m), entries=entries, errors=errors, k=k, meta=meta
    )


def _box_gauss_mass(box: Box, positions: np.ndarray, s: float) -> np.ndarray:
    """P(position + sqrt(s) G in box) per particle, G standard Gaussian."""
    # Lazy: ~0.3 s to import; only sampling and the Gaussian-mass oracles use it.
    from scipy.special import ndtr
    sd = math.sqrt(s)
    lo = (np.asarray(box.lower) - positions) / sd
    hi = (np.asarray(box.upper) - positions) / sd
    return np.prod(ndtr(hi) - ndtr(lo), axis=1)


def _ball_gauss_mass(ball: Ball, positions: np.ndarray, s: float) -> np.ndarray:
    """P(position + sqrt(s) G in ball): |x + sqrt(s) G - c|^2 / s is
    noncentral chi-square with d degrees of freedom and noncentrality
    |x - c|^2 / s, so the mass is its CDF at radius^2/s."""
    # Lazy: ~0.3 s to import; only sampling and the Gaussian-mass oracles use it.
    from scipy.special import chndtr
    d = positions.shape[1]
    delta = positions - np.asarray(ball.center)
    nc = np.einsum("ij,ij->i", delta, delta) / s
    return chndtr(ball.radius**2 / s, d, nc)


def _region_gauss_mass(region, positions: np.ndarray, s: float) -> np.ndarray:
    if isinstance(region, Box):
        return _box_gauss_mass(region, positions, s)
    if isinstance(region, Ball):
        return _ball_gauss_mass(region, positions, s)
    if isinstance(region, UnionRegion):
        return sum(_region_gauss_mass(m, positions, s) for m in region.members)
    raise ValidationError(f"not a region: {region!r}")


def conditional_expectation_field(s: Snapshot, region, T: float, m: float) -> float:
    """E[psi(A, T) | snapshot at t] / m^T, computed exactly.

    Each particle's descendants at time T are centered Gaussians around the
    particle (variance T - t per coordinate), so the value is

        m^(-t) * sum_particles P(y + sqrt(T-t) G in A).
    """
    if region.dim != s.d:
        raise ValidationError(f"region dim {region.dim} != snapshot dim {s.d}")
    if not T > s.t:
        raise ValidationError(f"need T > t, got T={T}, t={s.t}")
    if s.n == 0:
        return 0.0
    mass = _region_gauss_mass(region, s.positions, float(T) - s.t)
    return float(np.sum(mass)) * m ** (-s.t)


def second_moment_oracle(alpha, t: int, law: OffspringLaw) -> float:
    """Exact E[V_alpha(t)^2] by the one-step recursion (see module docs).

    The 0^0 = 1 convention applies inside the bracket, which makes the t=1,
    alpha=0 value equal E[Y^2] = sigma^2 + m^2 as a direct computation gives.
    """
    a = as_multiindex(alpha)
    if t < 0:
        raise ValidationError("t must be >= 0")
    m, var = law.mean, law.variance
    q = a.order
    fact = factorial(a)
    acc = 1.0 if q == 0 else 0.0  # E[V_alpha(0)^2]
    for s in range(1, t + 1):
        bracket = m * (float(s) ** q - float(s - 1) ** q) + var * float(s - 1) ** q
        acc = m ** (s - 1) * fact * bracket + m**2 * acc
    return acc


def n0_second_moment(law: OffspringLaw) -> float:
    """E[N_0^2] = 1 + sigma^2/(m^2 - m); the limit of E[Z_t^2]/m^(2t)."""
    m, var = law.mean, law.variance
    if not m > 1.0:
        raise ValidationError("N_0 second moment requires a supercritical law")
    return 1.0 + var / (m * m - m)


def _power_series(m: float, q: int, weight) -> float:
    """sum_{j>=1} m^(-j) * weight(j), summed until the absolute tail is
    below 1e-12 (geometric bound past the hump of j^q m^-j)."""
    acc = 0.0
    j = 0
    while True:
        j += 1
        term = m ** (-j) * weight(j)
        acc += term
        # Past j ~ q/ln(m) the terms decay at least geometrically with
        # ratio r < 1; bound the tail by term * r/(1-r).
        if j > 1 and j >= q / math.log(m):
            r = (1.0 / m) * ((j + 1) / j) ** q
            if r < 1.0 and abs(term) * r / (1.0 - r) < 1e-12:
                return acc
        if j > 100000:
            raise ValidationError("second-moment series failed to converge")


def n_second_moment(alpha, law: OffspringLaw) -> float:
    """E[N_alpha^2] for alpha != 0, as the limit of the recursion:

        alpha! * ( sum_{j>=1} m^-j (j^q - (j-1)^q)
                   + sigma^2 m^-2 sum_{j>=1} m^-j j^q ),   q = |alpha|.

    This is the t -> infinity limit of second_moment_oracle(alpha,t)/m^(2t),
    which matches direct small-t computations.  An alternative closed form
    whose sigma^2 term carries one extra factor of m disagrees with the
    recursion and with direct computation; it is kept as
    :func:`n_second_moment_alt` for diagnostic comparison only.  For
    alpha = 0 use :func:`n0_second_moment`.
    """
    a = as_multiindex(alpha)
    if a.order == 0:
        raise ValidationError(
            "alpha = 0 has the closed form n0_second_moment(law); this "
            "routine handles alpha != 0"
        )
    m, var = law.mean, law.variance
    if not m > 1.0:
        raise ValidationError("requires a supercritical law")
    q = a.order
    s_jump = _power_series(m, q, lambda j: float(j) ** q - float(j - 1) ** q)
    s_poly = _power_series(m, q, lambda j: float(j) ** q)
    return factorial(a) * (s_jump + var * s_poly / (m * m))


def n_second_moment_alt(alpha, law: OffspringLaw) -> float:
    """Variant closed form m^-1 alpha! (sigma^2 S_poly + m S_jump).

    Differs from :func:`n_second_moment` by a factor m on the sigma^2 term;
    kept (and surfaced by the diagnose command) so the discrepancy stays
    visible rather than silently patched.  Do not use as an oracle.
    """
    a = as_multiindex(alpha)
    if a.order == 0:
        raise ValidationError("defined for alpha != 0")
    m, var = law.mean, law.variance
    if not m > 1.0:
        raise ValidationError("requires a supercritical law")
    q = a.order
    s_jump = _power_series(m, q, lambda j: float(j) ** q - float(j - 1) ** q)
    s_poly = _power_series(m, q, lambda j: float(j) ** q)
    return factorial(a) * (var * s_poly + m * s_jump) / m


def ensemble_v_matrix(
    law: OffspringLaw,
    d: int,
    alphas: Sequence,
    t_max: int,
    n_replicas: int,
    seed: int,
    *,
    population_cap: int | None = 10**8,
) -> dict[MultiIndex, np.ndarray]:
    """Raw V_alpha(t) for a batch of independent replicas.

    Returns alpha -> array of shape (n_replicas, t_max+1); column t holds
    V_alpha(t) per replica (0 for extinct replicas).  All replicas advance
    in lockstep so the Hermite tables and offspring draws vectorize.
    """
    alphas = [as_multiindex(a) for a in alphas]
    for a in alphas:
        if a.dim != d:
            raise ValidationError(f"index dim {a.dim} != d={d}")
    out = {a: np.zeros((n_replicas, t_max + 1)) for a in alphas}
    for t, pos, rep in ensemble_states(
        law, d, n_replicas, t_max, seed, population_cap=population_cap
    ):
        if pos.shape[0] == 0:
            continue
        for a, w in zip(alphas, hermite_products(pos, float(t), alphas)):
            out[a][:, t] = np.bincount(rep, weights=w, minlength=n_replicas)
    return out


@dataclass(frozen=True)
class IncrementRow:
    t: int
    empirical_norm: float
    exact_norm: float | None


@dataclass(frozen=True)
class IncrementTable:
    """Empirical L^p norms of the martingale increments per generation."""

    rows: tuple[IncrementRow, ...]

    def mean_successive_ratio(self, t_lo: int = 2, t_hi: int = 8) -> float:
        """Mean of norm(t)/norm(t-1) over the window [t_lo, t_hi]."""
        norms = {r.t: r.empirical_norm for r in self.rows}
        ratios = [
            norms[t] / norms[t - 1]
            for t in range(t_lo + 1, t_hi + 1)
            if t in norms and t - 1 in norms and norms[t - 1] > 0
        ]
        if not ratios:
            return float("nan")
        return float(np.mean(ratios))


def lp_increment_diagnostic(
    replicas: int,
    alphas: Sequence,
    p: int,
    t_max: int,
    law: OffspringLaw,
    *,
    seed: int = 0,
) -> list[IncrementTable]:
    """Empirical p-norms of X_t - X_{t-1} with X_t = V_alpha(t)/m^t, one
    table per index in ``alphas``, all from one ensemble of replicas.

    For p = 2 an exact column accompanies the estimate: martingale
    increments are orthogonal, so E[(X_t - X_{t-1})^2] =
    E[X_t^2] - E[X_{t-1}^2], both available from the recursion oracle.
    """
    if p not in (2, 4):
        raise ValidationError(f"p must be 2 or 4, got {p}")
    alphas = [as_multiindex(a) for a in alphas]
    if not alphas:
        raise ValidationError("need at least one index")
    m = law.mean
    mats = ensemble_v_matrix(law, alphas[0].dim, alphas, t_max, replicas, seed)
    scale = m ** (-np.arange(t_max + 1, dtype=np.float64))
    tables = []
    for a in alphas:
        x = mats[a] * scale
        rows = []
        for t in range(1, t_max + 1):
            diff = x[:, t] - x[:, t - 1]
            emp = float(np.mean(np.abs(diff) ** p) ** (1.0 / p))
            exact = None
            if p == 2:
                e_t = second_moment_oracle(a, t, law) / m ** (2 * t)
                e_prev = second_moment_oracle(a, t - 1, law) / m ** (2 * (t - 1))
                exact = math.sqrt(max(e_t - e_prev, 0.0))
            rows.append(IncrementRow(t=t, empirical_norm=emp, exact_norm=exact))
        tables.append(IncrementTable(rows=tuple(rows)))
    return tables
