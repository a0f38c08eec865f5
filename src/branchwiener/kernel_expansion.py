"""The Gaussian transition kernel and its Hermite-series truncations.

For 0 <= t < T the d-dimensional Gaussian kernel admits the expansion

    p_{T-t}(x) = (2 pi T)^(-d/2) * sum_{n>=0} (-T)^(-n) / 2^n
                 * sum_{|alpha|=n} H_{2 alpha}(x, t) / alpha!

together with a shifted two-argument form obtained by binomially expanding
each H_{2 alpha}.  Truncating the outer sum at n = k gives an order-k
approximation whose error decays like T^(-(k+1)) (after scaling out the
(2 pi T)^(-d/2) prefactor); `truncation_error_scan` measures that decay.

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


def truncated_kernel_shifted(params: KernelExpansionParams, x, y) -> float:
    """Two-point order-k truncation: each H_{2 alpha} is expanded binomially
    around the source point x, i.e. the summand becomes

        sum_{beta <= 2 alpha} C(2 alpha, beta) (-x)^beta H_{2 alpha - beta}(y, t).

    Equals ``truncated_kernel(params, y - x)`` term by term.
    """
    x = _as_point(x, params.d)
    y = _as_point(y, params.d)
    _warn_if_flagged(params)
    tables = [hermite_table(2 * params.k, y[i], params.t) for i in range(params.d)]
    factors = [(-params.T) ** (-n) / 2.0**n for n in range(params.k + 1)]
    terms = []
    # The S_k term list, with (-x)^beta H_gamma(y, t) in place of
    # (-1)^|beta| M_beta N_gamma.
    for n, fact, c, _, beta, gamma in mi.expansion_terms(params.k, params.d):
        xb = 1.0
        h = 1.0
        for i in range(params.d):
            xb *= (-x[i]) ** beta[i]
            h *= float(tables[i][gamma[i]])
        terms.append(factors[n] / fact * c * xb * h)
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

    d: int
    t: float
    offset: tuple[float, ...]
    scaled: bool
    rows: tuple[ScanRow, ...]
    slopes: dict[int, float] = field(compare=False)

    def write_csv(self, dest, comments: list[str] | None = None) -> None:
        """Emit columns k, T, error, fitted_slope, flagged (one row per grid
        point; the slope column repeats the per-k fit)."""
        own = isinstance(dest, (str, bytes))
        fh = open(dest, "w", encoding="utf-8") if own else dest
        try:
            for line in comments or []:
                fh.write(f"# {line}\n")
            fh.write("k,T,error,fitted_slope,flagged\n")
            for row in self.rows:
                fh.write(
                    f"{row.k},{row.T:g},{row.error!r},"
                    f"{self.slopes[row.k]!r},{int(row.flagged)}\n"
                )
        finally:
            if own:
                fh.close()


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
    offset = _as_point(offset, d)
    T_arr = [float(T) for T in np.atleast_1d(np.asarray(T_list, dtype=np.float64))]
    if len(T_arr) == 0:
        raise ValidationError("empty T list")
    for T in T_arr:
        if not T > 2 * t:
            raise ValidationError(f"scan requires T > 2t, got T={T}, t={t}")
    rows = []
    slopes: dict[int, float] = {}
    for k in range(k_max + 1):
        errs = []
        for T in T_arr:
            params = KernelExpansionParams(d=d, T=T, t=t, k=k)
            exact = gauss_kernel(d, T - t, offset)
            approx = truncated_kernel(params, offset)
            err = abs(exact - approx)
            if scaled:
                err *= (2.0 * math.pi * T) ** (d / 2.0)
            rows.append(ScanRow(k=k, T=T, error=err, flagged=params.flagged))
            errs.append(err)
        slopes[k] = fit_loglog_slope(T_arr, errs)
    return ScanTable(
        d=d, t=t, offset=tuple(offset), scaled=scaled, rows=tuple(rows), slopes=slopes
    )

