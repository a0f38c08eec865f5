"""Population statistics V_alpha, their limits, and moment oracles.

For a snapshot at generation t define

    V_alpha(t) = sum over particles y of H_alpha(y, t).

With offspring mean m, the normalized process V_alpha(t)/m^t is a martingale
whose almost-sure limit N_alpha exists for every multi-index; V_0(t) is just
the population count Z_t, and N_0 = lim Z_t/m^t is the classical branching
normalization.  This module computes V_alpha from snapshots, estimates the
N_alpha, and carries the exact size of one increment of X_a(s) = V_a(s)/m^s,

    E[(X_a(s) - X_a(s-1))^2] = a! m^(-s-1) ( m (s^q - (s-1)^q) + sigma^2 (s-1)^q ),

with q = |a| and 0^0 = 1, for a process started at the origin, where
X_a(0) = [a == 0].  The increments are orthogonal, so every second moment
reported here is a sum of these steps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .hermite import hermite_products
from .kernel_expansion import _power
from .multiindex import MultiIndex, as_multiindex, factorial
from .regions import _read_json, _real
from .sampler import root_ids
from .simulator import (BLOCK, DEFAULT_POPULATION_CAP, OffspringLaw, SimConfig, Snapshot,
                        _check_int, _generations)


def v_alpha_many(s: Snapshot, alphas: Sequence) -> dict[MultiIndex, float]:
    """V_alpha of a snapshot for each given index: the sum over particles of
    H_alpha(position, t), with the bits of `np.sum` over the whole product."""
    alphas = [as_multiindex(a) for a in alphas]
    return dict(zip(alphas, _pairwise_v(s.positions, float(s.t), alphas).tolist()))


def _pairwise_v(x, t: float, alphas) -> np.ndarray:
    """`np.sum` of each H_alpha product over the rows of x, one leaf of at
    most BLOCK rows at a time.  numpy's pairwise sum splits n rows at
    n//2 - (n//2) % 8 until a part has at most 128; splitting the same way,
    with leaves of at least 128 rows, adds in its order and gives its bits."""
    n = x.shape[0]
    if n <= BLOCK:
        return np.array([np.sum(w) for w in hermite_products(x, t, alphas)])
    half = n // 2 - (n // 2) % 8
    return _pairwise_v(x[:half], t, alphas) + _pairwise_v(x[half:], t, alphas)


@dataclass
class NTable:
    """Estimated (or synthetic) martingale limits N_alpha.

    ``entries`` maps MultiIndex -> value; ``errors`` optionally carries a
    per-index error bar; ``meta`` records provenance (source time,
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
                        f"N-table {what} {v} for index {tuple(a)} is not finite"
                    )
                if what == "error" and v < 0:
                    raise ValidationError(
                        f"N-table error {v} for index {tuple(a)} is negative"
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
        """The table of a `to_dict` object.  A missing or mistyped field and
        an index given twice raise `ValidationError` naming the field."""
        if not isinstance(obj, dict):
            raise ValidationError("an N-table must be a JSON object")
        k, meta, rows = obj.get("k"), obj.get("meta") or {}, obj.get("entries")
        if not (isinstance(meta, dict) and isinstance(rows, list)):
            raise ValidationError("N-table fields entries and meta must be a list "
                                  "and an object")
        if meta.get("T0") is not None:
            _real(meta["T0"], "N-table field meta.T0")
        entries, errors = {}, {}
        for i, e in enumerate(rows):
            where = f"N-table entry {i} field"
            alpha = e.get("alpha") if isinstance(e, dict) else None
            if not isinstance(alpha, list):
                raise ValidationError(f"{where} alpha must be a list, got {alpha!r}")
            a = MultiIndex(_check_int(c, f"{where} alpha", 0) for c in alpha)
            if a in entries:
                raise ValidationError(f"{where} alpha: {list(a)} appears twice")
            entries[a] = _real(e.get("value"), f"{where} value")
            if e.get("err") is not None:
                errors[a] = _real(e["err"], f"{where} err")
        return cls(
            d=_check_int(obj.get("d"), "N-table field d", 1),
            m=_real(obj.get("m"), "N-table field m"),
            entries=entries,
            errors=errors or None,
            k=None if k is None else _check_int(k, "N-table field k", 0),
            meta=dict(meta),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "NTable":
        return cls.from_dict(_read_json(path, "N-table"))


def estimate_n(s: Snapshot, alphas: Sequence, law: OffspringLaw, *,
               k: int | None = None, seed: int | None = None) -> NTable:
    """Estimate every N_alpha from one snapshot as V_alpha(t)/m^t, with the
    exact `l2_remainder` as its error.  A law with m <= 1, whose N_alpha are
    not L^2 limits, and a t where m**t is not a finite float are refused."""
    m = law.mean
    if not m > 1.0:
        raise ValidationError(f"estimate_n needs a supercritical law; got m={m}")
    growth = _power(m, s.t, f"need 0 < m**t < inf; got t={s.t}, m={m}")
    alphas = [as_multiindex(a) for a in alphas]
    errors = {a: l2_remainder(a, s.t, law) for a in alphas}
    values = v_alpha_many(s, alphas)
    entries = {a: values[a] / growth for a in alphas}
    meta = {"source_t": s.t, "m": m,
            "err": "exact L2 remainder sqrt(E[(N_alpha - V_alpha(t)/m^t)^2])"}
    if seed is not None:
        meta["seed"] = seed
    return NTable(d=s.d, m=m, entries=entries, errors=errors, k=k, meta=meta)


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


def _increment_bracket(q: int, s: int, m: float, var: float) -> float:
    """The bracket of the increment law (module docs):
    E[(X_s - X_{s-1})^2] = alpha! m^(-s-1) times this, for q = |alpha|."""
    return m * (s**q - (s - 1) ** q) + var * (s - 1) ** q


def l2_remainder(alpha, t: int, law: OffspringLaw) -> float:
    """sqrt(E[(N_alpha - V_alpha(t)/m^t)^2]).  Martingale increments are
    orthogonal, so its square sums the increments after t,

        alpha! * sum_{s>t} m^(-s-1) ( m (s^q - (s-1)^q) + sigma^2 (s-1)^q ),

    over j = s - t (as E[N^2] - E[X_t^2] it would cancel at large t).
    """
    a = as_multiindex(alpha)
    m, var, q = law.mean, law.variance, a.order
    if not m > 1.0:
        raise ValidationError(f"requires a supercritical law; got m={m}")
    tail = _power_series(m, q, lambda j: _increment_bracket(q, t + j, m, var))
    return math.sqrt(factorial(a) * m ** (-t - 1) * tail)


def n_second_moment(alpha, law: OffspringLaw) -> float:
    """E[N_alpha^2] for alpha != 0: X_alpha(0) = 0, so it is the squared
    remainder at t = 0.  For alpha = 0 use :func:`n0_second_moment`."""
    if as_multiindex(alpha).order == 0:
        raise ValidationError(
            "alpha = 0 has the closed form n0_second_moment(law); this "
            "routine handles alpha != 0"
        )
    return l2_remainder(alpha, 0, law) ** 2


def ensemble_v_matrix(
    law: OffspringLaw,
    d: int,
    alphas: Sequence,
    t_max: int,
    n_replicas: int,
    seed: int,
    *,
    population_cap: int = DEFAULT_POPULATION_CAP,
) -> dict[MultiIndex, np.ndarray]:
    """Raw V_alpha(t) for a batch of independent replicas.

    Returns alpha -> array of shape (n_replicas, t_max+1); column t holds
    V_alpha(t) per replica (0 for extinct replicas).  Replica r is the run
    of the r-th root id of the seed at the origin, so replica 0 is `run`'s
    under the same seed, and the population cap applies to the whole batch.
    The batch is walked depth first in parts of BLOCK parents; the parts of
    a generation come in its row order, so adding each part's terms with
    `np.add.at` gives the sums of one `np.bincount` over the generation.
    """
    alphas = [as_multiindex(a) for a in alphas]
    for a in alphas:
        if a.dim != d:
            raise ValidationError(f"index dim {a.dim} != d={d}")
    cfg = SimConfig(d, law.pmf, seed, t_max, population_cap, test_mode=law.test_mode)
    n_replicas = _check_int(n_replicas, "number of replicas", 1)
    hi, lo = root_ids(cfg.seed, n_replicas)
    roots = Snapshot(0, np.zeros((n_replicas, d)), hi, lo, np.arange(n_replicas))
    out = {a: np.zeros((n_replicas, t_max + 1)) for a in alphas}
    for part, _ in _generations(cfg, BLOCK, roots):
        for a, w in zip(alphas, hermite_products(part.positions, float(part.t), alphas)):
            np.add.at(out[a][:, part.t], part.root, w)
    return out


@dataclass(frozen=True)
class IncrementRow:
    t: int
    empirical_norm: float
    exact_norm: float


@dataclass(frozen=True)
class IncrementTable:
    """Empirical L^2 norms of the martingale increments per generation."""

    rows: tuple[IncrementRow, ...]

    def mean_successive_ratio(self) -> float:
        """Mean of norm(t)/norm(t-1) over the window t in [2, 8]."""
        norms = {r.t: r.empirical_norm for r in self.rows}
        ratios = [
            norms[t] / norms[t - 1]
            for t in range(3, 9)
            if t in norms and t - 1 in norms and norms[t - 1] > 0
        ]
        if not ratios:
            return float("nan")
        return float(np.mean(ratios))


def l2_increment_diagnostic(
    replicas: int,
    alphas: Sequence,
    t_max: int,
    law: OffspringLaw,
    *,
    seed: int = 0,
    population_cap: int = DEFAULT_POPULATION_CAP,
) -> list[IncrementTable]:
    """Empirical L^2 norms of X_t - X_{t-1} with X_t = V_alpha(t)/m^t, one
    table per index in ``alphas``, all from one ensemble of replicas whose
    total population is capped at ``population_cap``.

    An exact column accompanies the estimate: the norm of the increment
    law (module docs) at each t.
    """
    alphas = [as_multiindex(a) for a in alphas]
    if not alphas:
        raise ValidationError("need at least one index")
    m, var = law.mean, law.variance
    # The largest scale below, checked first: m^-(t+1) grows with t for m < 1.
    _power(m, -(t_max + 1), f"the increment scale m^-(t+1) overflows a float at "
           f"offspring mean m={m!r}, t={t_max}")
    mats = ensemble_v_matrix(law, alphas[0].dim, alphas, t_max, replicas, seed,
                             population_cap=population_cap)
    scale = m ** (-np.arange(t_max + 1, dtype=np.float64))
    tables = []
    for a in alphas:
        x = mats[a] * scale
        fact, q = factorial(a), a.order
        rows = []
        for t in range(1, t_max + 1):
            diff = x[:, t] - x[:, t - 1]
            exact_sq = fact * m ** (-t - 1) * _increment_bracket(q, t, m, var)
            rows.append(IncrementRow(
                t=t, empirical_norm=float(np.mean(diff * diff) ** 0.5),
                exact_norm=math.sqrt(exact_sq)))
        tables.append(IncrementTable(rows=tuple(rows)))
    return tables
