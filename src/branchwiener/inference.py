"""Estimating the expansion coefficients N_gamma from observed counts.

Counting particles in several disjoint regions at one observation time T0
gives a linear system: each normalized count (2 pi T0)^(d/2) count_A / m^T0
approximately equals S_k(A, T0), which is linear in the unknown N_gamma.
With at least as many well-chosen regions as unknowns the system pins the
N_gamma down, and the fitted table then predicts counts at any later time.

The matrix columns carry T0^(-n) factors spanning several orders of
magnitude, so the solver normalizes columns before least squares and
surfaces the (raw) 2-norm condition number; systems above the threshold are
refused rather than silently solved.

A structural caveat for d >= 2: at order k >= 1 some coefficients enter
S_k only through identical per-region factors — at k=1 every N_{2 e_i}
multiplies -vol(A)/(2 T0), so the d columns for those indices coincide for
*every* choice of sets and only their sum is identifiable.  Such systems
are singular by construction and are refused; full entry-wise recovery is
available for d=1 (any k) and k=0 (any d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import regions as rg
from .errors import ConditioningError, ValidationError
from .expansion import _weight_matrix, expansion_values, required_indices
from .kernel_expansion import _gauss_factor, _power, _times_power
from .martingales import NTable
from .multiindex import MultiIndex

#: solve_n refuses systems whose 2-norm condition number exceeds this.
CONDITION_THRESHOLD = 1e8

#: default_sets validation time and retry budget.
VALIDATION_T0 = 25.0
MAX_PATTERN_TRIES = 10


@dataclass(frozen=True)
class DesignSystem:
    """The linear map from coefficient tables to normalized counts.

    ``matrix[i, j]`` is the coefficient of N_{indices[j]} in
    S_k(sets[i], T0); ``condition_number`` is sigma_max/sigma_min of the
    raw matrix.
    """

    sets: tuple
    T0: float
    k: int
    d: int
    indices: tuple[MultiIndex, ...]
    matrix: np.ndarray = field(compare=False)
    condition_number: float


def design_matrix(sets, T0: float, k: int, d: int) -> DesignSystem:
    """Build the system for the given observation sets.

    Requires |sets| >= |required_indices(k, d)| and pairwise-disjoint
    bounded sets (duplicated or overlapping sets are rejected here, before
    they can produce a silently rank-deficient solve).
    """
    sets = tuple(sets)
    cols = tuple(required_indices(k, d))
    if len(sets) < len(cols):
        raise ValidationError(
            f"{len(sets)} sets cannot determine {len(cols)} unknowns "
            f"(order k={k}, dimension {d})"
        )
    for a in sets:
        if a.dim != d:
            raise ValidationError(f"set dimension {a.dim} != {d}")
    rg._check_disjoint(sets, "observation sets")
    weights, gammas = _weight_matrix(sets, T0, k, d)
    col_pos = {g: j for j, g in enumerate(cols)}
    matrix = np.zeros((len(sets), len(cols)))
    with np.errstate(over="ignore", invalid="ignore"):
        for t, gamma in enumerate(gammas):  # term order, as in S_k
            matrix[:, col_pos[gamma]] += weights[:, t]
    if not np.isfinite(matrix).all():
        raise ValidationError(f"observation set {(~np.isfinite(matrix)).any(axis=1).argmax()}: "
                              f"its row of S_{k} at T0={T0} overflows float64")
    cond = float(np.linalg.cond(matrix, 2))
    return DesignSystem(
        sets=sets,
        T0=float(T0),
        k=k,
        d=d,
        indices=cols,
        matrix=matrix,
        condition_number=cond,
    )


def solve_n(observed_counts, system: DesignSystem, m: float) -> NTable:
    """Recover the N_gamma from counts observed at T0.

    Right-hand side: b_A = (2 pi T0)^(d/2) count_A / m^T0.  Solves by
    column-normalized least squares.  Counts are real particle counts in
    production; synthetic/validation callers may pass floats.
    """
    counts = np.asarray(observed_counts, dtype=np.float64)
    if counts.shape != (len(system.sets),):
        raise ValidationError(
            f"{counts.size} counts for {len(system.sets)} observation sets"
        )
    what = f"need 0 < m**T0 < inf; got T0={system.T0}, m={m}"
    growth = _power(m, system.T0, what) if m > 0 else 0.0
    if growth == 0.0:
        raise ValidationError(what)
    if system.condition_number > CONDITION_THRESHOLD:
        raise ConditioningError(
            f"design matrix condition number {system.condition_number:.3e} "
            f"exceeds {CONDITION_THRESHOLD:.1e}; choose observation sets "
            "with more varied geometry (or a larger scale) and retry"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        b = _gauss_factor(system.d, system.T0, 1) * counts / growth
    if not np.isfinite(b).all():
        raise ValidationError(
            f"observation set {(~np.isfinite(b)).argmax()}: its normalized count "
            f"(2 pi T0)^(d/2) count / m^T0 is not a finite float (d={system.d}, T0={system.T0})")
    with np.errstate(over="ignore"):
        col_scale = np.linalg.norm(system.matrix, axis=0)
    bad = (col_scale == 0.0) | (col_scale == math.inf)
    if bad.any():
        cols = [tuple(system.indices[j]) for j in np.nonzero(bad)[0]]
        raise ConditioningError(f"columns {cols} cannot be scaled: their squared norms are "
                                "0.0 or beyond float64")
    scaled = system.matrix / col_scale
    solution, residuals, rank, _ = np.linalg.lstsq(scaled, b, rcond=None)
    if rank < len(system.indices):
        raise ConditioningError(
            f"design matrix rank {rank} < {len(system.indices)} unknowns"
        )
    with np.errstate(over="ignore"):  # a value beyond float64 is refused by NTable
        values = solution / col_scale
        residual_norm = (
            float(np.sqrt(residuals[0])) if residuals.size else
            float(np.linalg.norm(scaled @ solution - b))
        )
    if residual_norm == math.inf:
        raise ValidationError(f"the squared residual norm of the fit at T0={system.T0} "
                              "overflows float64 (counts too large)")
    entries = {g: float(v) for g, v in zip(system.indices, values)}
    meta = {
        "T0": system.T0,
        "condition_number": system.condition_number,
        "residual_norm": residual_norm,
        "caveat": f"systematic truncation error o(T0^-{system.k}) not modeled",
    }
    return NTable(
        d=system.d, m=float(m), entries=entries, errors=None, k=system.k, meta=meta
    )


@dataclass(frozen=True)
class Prediction:
    """A forecast for one region at horizon T."""

    region: object
    T: float
    k: int
    s_value: float
    normalized_density: float
    raw_count: float | None


#: Raw m^T counts are only materialized up to this horizon.
RAW_COUNT_MAX_T = 40.0


def predict_all(
    regions, T: float, table: NTable, k: int | None = None
) -> list[Prediction]:
    """Forecast the normalized count (2 pi T)^(-d/2) S_k, i.e. the expected
    psi(A, T)/m^T, for each region A; the raw count, if finite, is attached
    only for T <= 40.  The table is checked, and (2 pi T)^(-d/2) taken, once
    per dimension."""
    if k is None:
        k = table.k
    if k is None:
        raise ValidationError("no expansion order: pass k or use a table that has one")
    t0 = table.meta.get("T0")
    if t0 is not None and T < t0:
        raise ValidationError(
            f"prediction horizon T={T} precedes the observation time T0={t0}"
        )
    dims = dict.fromkeys(region.dim for region in regions)
    for d in dims:
        if not table.covers(k, d):
            raise ValidationError(f"table does not cover required_indices(k={k}, d={d})")
    values = expansion_values(regions, T, k, table)
    factors = {d: _gauss_factor(d, T, -1) for d in dims}
    preds = []
    for i, (region, s_value) in enumerate(zip(regions, values)):
        density = factors[region.dim] * s_value
        if not math.isfinite(density):
            raise ValidationError(f"region {i}: the density (2 pi T)^(-d/2) S_{k} at T={T} "
                                  "overflows a float")
        raw = _times_power(density, table.m, T) if T <= RAW_COUNT_MAX_T else None
        preds.append(Prediction(region=region, T=float(T), k=int(k), s_value=s_value,
                                normalized_density=density, raw_count=raw))
    return preds


def predict(region, T: float, table: NTable, k: int | None = None) -> Prediction:
    """The forecast of predict_all for one region."""
    return predict_all([region], T, table, k)[0]


def _box_grid(n_sets: int, d: int, scale: float) -> list[rg.Box]:
    """n disjoint half-open cubes of side `scale` on a lattice around the
    origin, filled row-major.  Offsetting the lattice by a fixed irrational
    fraction keeps the boxes asymmetric, which the odd-moment columns need."""
    side = math.ceil(n_sets ** (1.0 / d))
    boxes = []
    shift = 0.318  # fixed lattice offset, breaks x -> -x symmetry

    def edge(c: int) -> float:
        return scale * (c - side / 2.0 + shift)

    for i in range(n_sets):
        cell = []
        rest = i
        for _ in range(d):
            cell.append(rest % side)
            rest //= side
        # Adjacent cells must share the *same float* boundary; computing
        # upper as lower + scale can overshoot the neighbour's lower by one
        # ulp and fail the disjointness check.
        lower = tuple(edge(c) for c in cell)
        upper = tuple(edge(c + 1) for c in cell)
        boxes.append(rg.Box(lower, upper))
    return boxes


def default_sets(k: int, d: int, scale: float) -> list[rg.Box]:
    """A validated layout of |required_indices(k,d)| disjoint boxes.

    Starts from a cube lattice of the requested scale and grows the scale
    (up to 10 patterns) until the design matrix at time ``VALIDATION_T0``
    is within CONDITION_THRESHOLD; raises ConditioningError when no pattern
    qualifies.  The accepted pattern's condition number is recomputable via
    design_matrix.  For d >= 2 with k >= 1 no pattern can qualify (see the
    module docstring); the error then says so instead of suggesting retries.
    """
    if scale <= 0:
        raise ValidationError("scale must be positive")
    n_sets = len(required_indices(k, d))
    last = None
    for attempt in range(MAX_PATTERN_TRIES):
        s = scale * 1.25**attempt
        boxes = _box_grid(n_sets, d, s)
        system = design_matrix(boxes, VALIDATION_T0, k, d)
        last = system.condition_number
        if system.condition_number <= CONDITION_THRESHOLD:
            return boxes
    hint = "pass a different scale"
    if d > 1 and k >= 1:
        hint = (
            "no set choice can help: for d >= 2 several N_gamma enter S_k "
            "with proportional coefficients (e.g. every N_{2 e_i} multiplies "
            "-vol/(2 T0)), so the system is singular by construction"
        )
    raise ConditioningError(
        f"no box pattern reached condition number <= {CONDITION_THRESHOLD:.1e} "
        f"after {MAX_PATTERN_TRIES} tries (last: {last:.3e}); {hint}"
    )
