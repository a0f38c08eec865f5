"""The Gaussian transition kernel and its Hermite-series truncations.

For 0 <= t < T the d-dimensional Gaussian kernel admits the expansion

    p_{T-t}(x) = (2 pi T)^(-d/2) * sum_{n>=0} (-T)^(-n) / 2^n
                 * sum_{|alpha|=n} H_{2 alpha}(x, t) / alpha!

Truncating the outer sum at n = k gives an order-k approximation whose
error decays like T^(-(k+1)) (after scaling out the (2 pi T)^(-d/2)
prefactor); `truncation_error_scan` measures that decay.

The series converges for 0 <= t < T but is only numerically useful well
inside that range, so the scan keeps to T > 2t >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import multiindex as mi
from . import regions as rg
from .errors import ValidationError
from .hermite import hermite_products

#: Largest truncation order accepted (the long closed-form checks need 60).
MAX_ORDER = 64
#: A scan row's error enters its k's slope fit only above this many floors.
FLOOR_MULTIPLE = 16.0


def _as_point(x, what: str, d: int | None = None) -> np.ndarray:
    """x as an array of finite floats, of length d when d is given."""
    x = np.array(rg._as_float_tuple(np.atleast_1d(x), what))
    if d is not None and x.shape != (d,):
        raise ValidationError(f"{what} shape {x.shape} does not match d={d}")
    return x


def _times_power(x: float, m: float, t: float) -> float | None:
    """m**t * x by Python's float **, or None where that is not a finite
    float (0.0 to a negative power included): a raw count beyond float is
    left blank, not refused."""
    try:
        value = m**t * x
    except (OverflowError, ZeroDivisionError):
        return None
    return value if math.isfinite(value) else None


def _power(base: float, e: float, what: str) -> float:
    """base ** e, unchanged while that is a finite float (times 1.0 is
    exact); beyond, ValidationError(what), where ``what`` names the quantity
    and its operands."""
    out = _times_power(1.0, base, e)
    if out is None:
        raise ValidationError(what)
    return out


def _fsum(terms) -> float:
    """math.fsum(terms), or nan where its partials overflow or meet inf - inf."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return math.nan


def _gauss_factor(d: int, T: float, sign: int) -> float:
    """(2 pi T)^(sign d/2): (2.0 * math.pi * T) ** e while 2 pi T is finite,
    (2 pi)^e T^e beyond, whose product is checked like a power.  A factor
    that overflows a float is refused, naming d and T."""
    e, two_pi_t = sign * d / 2.0, 2.0 * math.pi * T
    what = f"the factor (2 pi T)^{e:g} overflows a float at d={d}, T={T}"
    if two_pi_t < math.inf:
        return _power(two_pi_t, e, what)
    return _power(_power(2.0 * math.pi, e, what) * _power(T, e, what), 1.0, what)


def _series_factors(T: float, k: int) -> list[float]:
    """(-T)^(-n) / 2^n for n = 0..k, for a positive finite T; a factor that
    overflows a float is refused, naming n and T."""
    if not (T > 0.0 and math.isfinite(T)):
        raise ValidationError(f"T must be a positive finite real, got {T}")
    return [_power(-T, -n, f"the series factor (-T)^-{n} overflows a float at T={T}")
            / 2.0**n for n in range(k + 1)]


def gauss_kernel(d: int, t: float, x) -> float:
    """Gaussian density (2 pi t)^(-d/2) exp(-|x|^2 / 2t); factorizes over
    coordinates."""
    if t <= 0:
        raise ValidationError(f"kernel time must be positive, got {t}")
    x = _as_point(x, "point", d)
    with np.errstate(over="ignore"):  # |x|^2 = inf gives exp(-inf) = 0.0
        return _gauss_factor(d, t, -1) * math.exp(-float(x @ x) / (2.0 * t))


def truncated_kernel(x, T: float, t: float, k: int) -> float:
    """Order-k truncation of the kernel series at the point x of dimension
    d = len(x): terminal time T > 0, early time t in [0, T), and the outer
    sum running n = 0..k.

    Terms are generated in increasing n and combined with exact compensated
    summation (math.fsum); the alternating (-T)^(-n) signs make naive
    accumulation lossy.
    """
    return _truncation(x, T, t, k)[0]


def _truncation(x, T: float, t: float, k: int) -> tuple[float, float, list[float]]:
    """(value, factor, terms) of `truncated_kernel`: the value is the
    Gaussian factor (2 pi T)^(-d/2) times the math.fsum of the terms."""
    x = _as_point(x, "point")
    if not (0 <= k <= MAX_ORDER):
        raise ValidationError(f"order k={k} outside [0, {MAX_ORDER}]")
    factors = _series_factors(T, k)
    if not (0.0 <= t < T):
        raise ValidationError(f"t={t} outside [0, T={T})")
    alphas = [a for n in range(k + 1) for a in mi.enumerate_order(len(x), n)]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        hs = hermite_products(x[None, :], t, [[2 * c for c in a] for a in alphas])
        terms = [factors[a.order] * float(h[0]) / mi.factorial(a) for a, h in zip(alphas, hs)]
    factor = _gauss_factor(len(x), T, -1)
    out = factor * _fsum(terms)
    if not math.isfinite(out):
        raise ValidationError(f"the order-{k} truncation at T={T}, t={t} overflows float64")
    return out, factor, terms


def fit_loglog_slope(T_values, errors) -> float:
    """Least-squares slope of log(error) against log(T), for positive errors."""
    T_values = np.asarray(T_values, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if T_values.shape != errors.shape or np.unique(T_values).size < 2:
        raise ValidationError("need matching T/error arrays with >= 2 distinct T values")
    if not (errors > 0).all():
        raise ValidationError("a log-log slope needs positive errors")
    slope, _ = np.polyfit(np.log(T_values), np.log(errors), 1)
    return float(slope)


@dataclass(frozen=True)
class ScanRow:
    """One (k, T) of a scan: its error, and the float floor of that error,
    2^-52 (|factor| sum |terms| + |exact|) scale, which bounds the rounding
    of the truncation and of the closed form."""

    k: int
    T: float
    error: float
    floor: float


@dataclass(frozen=True)
class ScanTable:
    """Truncation errors on a (k, T) grid plus per-k log-log slopes, each
    fitted over the rows above FLOOR_MULTIPLE floors, or None where fewer
    than two distinct T are."""

    rows: tuple[ScanRow, ...]
    slopes: dict[int, float | None] = field(compare=False)


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
    d = rg._check_dim(d)
    if not (0 <= k_max <= MAX_ORDER):
        raise ValidationError(f"largest order k={k_max} outside [0, {MAX_ORDER}]")
    offset = _as_point(offset, "offset", d)
    T_arr = [float(T) for T in np.atleast_1d(np.asarray(T_list, dtype=np.float64))]
    scales, exacts = [], []
    for T in T_arr:
        if not T > 2 * t >= 0.0:
            raise ValidationError(f"scan requires T > 2t >= 0, got T={T}, t={t}")
        scales.append(_gauss_factor(d, T, 1) if scaled else 1.0)
        exacts.append(gauss_kernel(d, T - t, offset))
        if exacts[-1] == 0.0:
            raise ValidationError(f"the Gaussian kernel is 0.0 in floating point at "
                                  f"d={d}, T={T}, so the scan would measure nothing")
    if len(set(T_arr)) < 2:
        raise ValidationError(f"a scan needs >= 2 distinct T values, got {T_arr}")
    rows = []
    slopes: dict[int, float | None] = {}
    for k in range(k_max + 1):
        fit = []
        for T, scale, exact in zip(T_arr, scales, exacts):
            value, factor, terms = _truncation(offset, T, t, k)
            floor = 2.0**-52 * (abs(factor) * _fsum(map(abs, terms)) + abs(exact)) * scale
            rows.append(ScanRow(k=k, T=T, error=abs(exact - value) * scale, floor=floor))
            if rows[-1].error > FLOOR_MULTIPLE * floor:
                fit.append((T, rows[-1].error))
        slopes[k] = fit_loglog_slope(*zip(*fit)) if len({T for T, _ in fit}) >= 2 else None
    return ScanTable(rows=tuple(rows), slopes=slopes)

