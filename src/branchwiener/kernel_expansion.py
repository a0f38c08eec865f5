"""The Gaussian transition kernel and its Hermite-series truncations.

For 0 <= t < T the d-dimensional Gaussian kernel admits the expansion

    p_{T-t}(x) = (2 pi T)^(-d/2) * sum_{n>=0} (-T)^(-n) / 2^n
                 * sum_{|alpha|=n} H_{2 alpha}(x, t) / alpha!

Truncating the outer sum at n = k gives an order-k approximation whose
error decays like T^(-(k+1)) (after scaling out the (2 pi T)^(-d/2)
prefactor); `truncation_error_scan` measures that decay.

The series converges for t < T but is only numerically useful well inside
that range; results with t/T > 1/2 are flagged with a warning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import multiindex as mi
from .errors import ValidationError
from .hermite import hermite_table

#: t/T at or below this ratio is the validated regime; beyond it the series
#: still evaluates but results carry a warning flag.
VALIDATED_RATIO = 0.5

#: Largest truncation order accepted (the long closed-form checks need 60).
MAX_ORDER = 64


class ConvergenceRegionWarning(UserWarning):
    """Emitted when a kernel truncation is evaluated with t/T > 1/2."""


@dataclass(frozen=True)
class KernelExpansionParams:
    """Parameters of a truncated kernel expansion.

    d : spatial dimension; T : terminal time (> 0); t : early time in
    [0, T); k : truncation order (the outer sum runs n = 0..k).
    """

    d: int
    T: float
    t: float
    k: int

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError(f"dimension {self.d} must be >= 1")
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ValidationError(f"T must be a positive finite real, got {self.T}")
        if not (0.0 <= self.t < self.T):
            raise ValidationError(f"t={self.t} outside [0, T={self.T})")
        if not (0 <= self.k <= MAX_ORDER):
            raise ValidationError(f"order k={self.k} outside [0, {MAX_ORDER}]")

    @property
    def flagged(self) -> bool:
        """True when t/T lies outside the validated convergence region."""
        return self.t / self.T > VALIDATED_RATIO


def _as_point(x, d: int) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.shape != (d,):
        raise ValidationError(f"point shape {x.shape} does not match d={d}")
    return x


def gauss_kernel(d: int, t: float, x) -> float:
    """Gaussian density (2 pi t)^(-d/2) exp(-|x|^2 / 2t); factorizes over
    coordinates."""
    if t <= 0:
        raise ValidationError(f"kernel time must be positive, got {t}")
    x = _as_point(x, d)
    return (2.0 * math.pi * t) ** (-d / 2.0) * math.exp(-float(x @ x) / (2.0 * t))


def _warn_if_flagged(params: KernelExpansionParams) -> None:
    if params.flagged:
        warnings.warn(
            f"t/T = {params.t / params.T:.3f} exceeds validated ratio "
            f"{VALIDATED_RATIO}; truncation quality is not guaranteed",
            ConvergenceRegionWarning,
            stacklevel=3,
        )


def truncated_kernel(params: KernelExpansionParams, x) -> float:
    """Order-k truncation of the kernel series at the point x.

    Terms are generated in increasing n and combined with exact compensated
    summation (math.fsum); the alternating (-T)^(-n) signs make naive
    accumulation lossy.
    """
    x = _as_point(x, params.d)
    _warn_if_flagged(params)
    tables = [hermite_table(2 * params.k, x[i], params.t) for i in range(params.d)]
    terms = []
    for n in range(params.k + 1):
        factor = (-params.T) ** (-n) / 2.0**n
        for alpha in mi.enumerate_order(params.d, n):
            h = 1.0
            for i, a in enumerate(alpha):
                h *= float(tables[i][2 * a])
            terms.append(factor * h / mi.factorial(alpha))
    return (2.0 * math.pi * params.T) ** (-params.d / 2.0) * math.fsum(terms)


def fit_loglog_slope(T_values, errors) -> float:
    """Least-squares slope of log(error) against log(T).

    Zero errors are clipped to the smallest positive entry to keep the fit
    defined when a truncation happens to be exact.
    """
    T_values = np.asarray(T_values, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if T_values.shape != errors.shape or T_values.size < 2:
        raise ValidationError("need matching T/error arrays with >= 2 points")
    positive = errors[errors > 0]
    if positive.size == 0:
        return float("-inf")
    clipped = np.maximum(errors, positive.min())
    slope, _ = np.polyfit(np.log(T_values), np.log(clipped), 1)
    return float(slope)


@dataclass(frozen=True)
class ScanRow:
    k: int
    T: float
    error: float
    flagged: bool


@dataclass(frozen=True)
class ScanTable:
    """Truncation errors on a (k, T) grid plus per-k log-log slopes."""

    rows: tuple[ScanRow, ...]
    slopes: dict[int, float] = field(compare=False)


def truncation_error_scan(
    d: int,
    t: float,
    offset,
    k_max: int,
    T_list,
    *,
    scaled: bool = True,
) -> ScanTable:
    """Measure |exact - truncated| on a grid of (k, T).

    With ``scaled=True`` (default) both kernels are multiplied by
    (2 pi T)^(d/2) before differencing, so the fitted slope isolates the
    T^-(k+1) truncation decay; the raw difference carries an extra
    T^(-d/2) roll-off from the prefactor.
    """
    if not (0 <= k_max <= MAX_ORDER):
        raise ValidationError(f"largest order k={k_max} outside [0, {MAX_ORDER}]")
    offset = _as_point(offset, d)
    T_arr = [float(T) for T in np.atleast_1d(np.asarray(T_list, dtype=np.float64))]
    if len(T_arr) == 0:
        raise ValidationError("empty T list")
    scales, exacts = [], []
    for T in T_arr:
        if not T > 2 * t:
            raise ValidationError(f"scan requires T > 2t, got T={T}, t={t}")
        try:
            scales.append((2.0 * math.pi * T) ** (d / 2.0) if scaled else 1.0)
        except OverflowError:
            msg = f"the scale (2 pi T)^(d/2) overflows a float at d={d}, T={T}"
            raise ValidationError(msg) from None
        exacts.append(gauss_kernel(d, T - t, offset))
        if exacts[-1] == 0.0:
            raise ValidationError(f"the Gaussian kernel is 0.0 in floating point at "
                                  f"d={d}, T={T}, so the scan would measure nothing")
    rows = []
    slopes: dict[int, float] = {}
    for k in range(k_max + 1):
        errs = []
        for T, scale, exact in zip(T_arr, scales, exacts):
            params = KernelExpansionParams(d=d, T=T, t=t, k=k)
            approx = truncated_kernel(params, offset)
            err = abs(exact - approx) * scale
            rows.append(ScanRow(k=k, T=T, error=err, flagged=params.flagged))
            errs.append(err)
        slopes[k] = fit_loglog_slope(T_arr, errs)
    return ScanTable(rows=tuple(rows), slopes=slopes)

