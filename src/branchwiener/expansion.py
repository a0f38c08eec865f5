"""Order-k asymptotic expansion of the normalized particle density.

The central object is

    S_k(A, T) = sum_{n=0}^{k} (-T)^(-n) / 2^n  sum_{|alpha|=n} (1/alpha!)
                sum_{beta <= 2 alpha} C(2 alpha, beta) (-1)^|beta|
                M_beta(A) N_{2 alpha - beta}

where M_beta(A) are region moments and the N_gamma are the martingale
limits (or any supplied coefficient table).  The expected particle count in
A at a late time T is then m^T (2 pi T)^(-d/2) S_k(A, T) up to an error
that shrinks like T^-(k+1) relative to S_0.

This module returns S_k itself; callers apply the m^T (2 pi T)^(-d/2)
prefactor (m^T overflows quickly, so raw counts are only materialized for
small T — see inference.predict_all).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import multiindex as mi
from . import regions as rg
from .errors import ValidationError
from .multiindex import MultiIndex

#: Largest expansion order; moments beyond |beta| = 2k hit the region cap.
MAX_ORDER = rg.MOMENT_CAP // 2


def required_indices(k: int, d: int) -> list[MultiIndex]:
    """The coefficient indices appearing in S_k for dimension d.

    Exactly { 2 alpha - beta : |alpha| <= k, beta <= 2 alpha }, deduplicated,
    in a fixed order: ascending total order, then the lexicographic
    (leading-component-largest) order used by enumerate_order.  Note this is
    a strict subset of all indices of order <= 2k once d > 1: for k=1, d=2
    the index (1,1) never arises.
    """
    return list(_required_indices(k, d))


@lru_cache(maxsize=16)
def _required_indices(k: int, d: int) -> tuple[MultiIndex, ...]:
    if not 0 <= k <= MAX_ORDER:
        raise ValidationError(f"order k={k} outside [0, {MAX_ORDER}]")
    if d < 1:
        raise ValidationError(f"dimension {d} must be >= 1")
    gammas = {term[5] for term in mi.expansion_terms(k, d)}
    return tuple(sorted(gammas, key=lambda g: (g.order, tuple(-c for c in g))))


def _weight_matrix(regions, T: float, k: int, d: int):
    """(W, gammas) with W[i, t] = (-T)^-n / 2^n / alpha! * C(2 alpha, beta)
    * (-1)^|beta| * M_beta(regions[i]) for term t of S_k, so that
    S_k(regions[i], T) is the sum over t of W[i, t] * N_{gammas[t]}."""
    if not (T > 0 and math.isfinite(T)):
        raise ValidationError(f"T must be positive and finite, got {T}")
    if not 0 <= k <= MAX_ORDER:
        raise ValidationError(f"order k={k} outside [0, {MAX_ORDER}]")
    terms = mi.expansion_terms(k, d)
    col = {b: j for j, b in enumerate(dict.fromkeys(t[4] for t in terms))}
    factors = [(-T) ** (-n) / 2.0**n for n in range(k + 1)]
    q = [factors[n] / fact * c * sign for n, fact, c, sign, _, _ in terms]
    moments = rg.moment_matrix(regions, list(col))
    return moments[:, [col[t[4]] for t in terms]] * q, [t[5] for t in terms]


def expansion_values(regions, T: float, k: int, table) -> list[float]:
    """S_k(A, T) for regions A of one dimension d, each the correctly rounded
    sum of its terms, for an NTable or any mapping from multi-index to value
    covering required_indices(k, d)."""
    if not regions:
        return []
    weights, gammas = _weight_matrix(regions, T, k, regions[0].dim)
    try:
        n = np.array([float(table[g]) for g in gammas])
    except KeyError as exc:
        missing = tuple(exc.args[0])
        raise ValidationError(f"coefficient table is missing index {missing}") from None
    return [math.fsum(row) for row in (weights * n).tolist()]


def expansion_value(region, T: float, k: int, table) -> float:
    """S_k(A, T) for one region; see expansion_values."""
    return expansion_values([region], T, k, table)[0]
