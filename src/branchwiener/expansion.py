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
small T — see inference.predict).
"""

from __future__ import annotations

import math
import warnings

from . import multiindex as mi
from . import regions as rg
from .errors import ValidationError
from .martingales import v_alpha_many
from .multiindex import MultiIndex
from .simulator import Snapshot

#: Largest expansion order; moments beyond |beta| = 2k hit the region cap.
MAX_ORDER = rg.MOMENT_CAP // 2


class PluginTimeWarning(UserWarning):
    """Emitted when a plug-in evaluation uses a snapshot with t >= T/2."""


def required_indices(k: int, d: int) -> list[MultiIndex]:
    """The coefficient indices appearing in S_k for dimension d.

    Exactly { 2 alpha - beta : |alpha| <= k, beta <= 2 alpha }, deduplicated,
    in a fixed order: ascending total order, then the lexicographic
    (leading-component-largest) order used by enumerate_order.  Note this is
    a strict subset of all indices of order <= 2k once d > 1: for k=1, d=2
    the index (1,1) never arises.
    """
    if not 0 <= k <= MAX_ORDER:
        raise ValidationError(f"order k={k} outside [0, {MAX_ORDER}]")
    if d < 1:
        raise ValidationError(f"dimension {d} must be >= 1")
    gammas = {term[5] for term in mi.expansion_terms(k, d)}
    return sorted(gammas, key=lambda g: (g.order, tuple(-c for c in g)))


def _term_weights(region, T: float, k: int):
    """Yield (gamma, w) per term of S_k(region, T), so that S_k is the sum
    of w * N_gamma: w = (-T)^-n / 2^n / alpha! * C(2 alpha, beta)
    * (-1)^|beta| * M_beta(region)."""
    factors = [(-T) ** (-n) / 2.0**n for n in range(k + 1)]
    for n, fact, c, sign, beta, gamma in mi.expansion_terms(k, region.dim):
        yield gamma, factors[n] / fact * c * sign * rg.moment(region, beta)


def _table_value(table, gamma: MultiIndex) -> float:
    try:
        return float(table[gamma])
    except KeyError:
        raise ValidationError(
            f"coefficient table is missing index {tuple(gamma)}"
        ) from None


def expansion_value(region, T: float, k: int, table) -> float:
    """S_k(A, T) for a coefficient table (NTable or any mapping from
    multi-index to value covering required_indices(k, d))."""
    if not (T > 0 and math.isfinite(T)):
        raise ValidationError(f"T must be positive and finite, got {T}")
    if not 0 <= k <= MAX_ORDER:
        raise ValidationError(f"order k={k} outside [0, {MAX_ORDER}]")
    return math.fsum(
        w * _table_value(table, gamma) for gamma, w in _term_weights(region, T, k)
    )


def theorem_a_form(region, T: float, n0: float, n1, n2: float) -> float:
    """Two-term form of the order-1 expansion:

        N0 * vol(A) - (1/2T) * integral_A (N0 |x|^2 - 2 N1.x + N2) dx

    with N1 a d-vector.  Algebraically identical to expansion_value at k=1
    when N1 = (N_{e_i})_i and N2 = sum_i N_{2 e_i}.
    """
    d = region.dim
    n1 = [float(c) for c in n1]
    if len(n1) != d:
        raise ValidationError(f"N1 has dim {len(n1)}, region has {d}")
    vol = rg.volume(region)
    unit = [0] * d
    quad = 0.0
    lin = 0.0
    for i in range(d):
        e_i = unit.copy()
        e_i[i] = 1
        lin += n1[i] * rg.moment(region, MultiIndex(e_i))
        e_i[i] = 2
        quad += rg.moment(region, MultiIndex(e_i))
    return n0 * vol - (n0 * quad - 2.0 * lin + n2 * vol) / (2.0 * T)


def plugin_expansion(s: Snapshot, region, T: float, k: int, m: float) -> float:
    """S_k with each N_gamma replaced by the snapshot value
    V_gamma(t)/m^t.

    Deterministic given the snapshot.  The substitution is only an
    approximation of the limits when t is well below T; t >= T/2 is flagged
    with a warning rather than rejected.
    """
    if s.d != region.dim:
        raise ValidationError(f"snapshot dim {s.d} != region dim {region.dim}")
    if s.t >= T / 2.0:
        warnings.warn(
            f"plug-in time t={s.t} is not below T/2 = {T / 2}; the "
            "approximation quality degrades",
            PluginTimeWarning,
            stacklevel=2,
        )
    gammas = required_indices(k, s.d)
    scale = m ** (-s.t)
    vs = v_alpha_many(s, gammas)
    table = {g: v * scale for g, v in vs.items()}
    return expansion_value(region, T, k, table)


def plugin_time(T: float, k: int) -> int:
    """A safe snapshot time for plug-in use at horizon T and order k.

    Picks floor(T^gamma) with gamma = 0.9/(2(k+1)), strictly inside the
    t < T^(1/(2(k+1))) window where the substitution error stays below the
    truncation error; never below 1.
    """
    if T <= 1:
        raise ValidationError("T must exceed 1")
    gamma = 0.9 / (2.0 * (k + 1))
    return max(1, int(math.floor(T**gamma)))
