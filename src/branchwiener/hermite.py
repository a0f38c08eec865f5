"""Heat-calculus Hermite polynomials.

The family H_n(x, t) is defined by

    H_n(x, t) = sum_{j=0}^{floor(n/2)} n! / (j! (n-2j)!) * (-t/2)^j * x^(n-2j)

so that H_n(x, 0) = x^n and, for t > 0,

    H_n(x, t) = (t/2)^(n/2) * H_n^phys(x / sqrt(2 t))
              = t^(n/2)     * He_n(x / sqrt(t))

with H_n^phys the physicists' and He_n the probabilists' classical Hermite
polynomials.  Along a standard
Brownian path W, H_n(W(t), t) is a martingale in t, which is what makes the
family the right basis for everything in this package.

Evaluation uses the three-term recurrence

    H_{n+1}(x, t) = x * H_n(x, t) - t * n * H_{n-1}(x, t)

instead of the defining sum: the sum alternates in sign and loses digits
catastrophically for large n, while the recurrence is stable (and at x = 0 it
is exactly cancellation-free).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .multiindex import as_multiindex

#: Highest degree accepted by the evaluators.  Series checks need degrees up
#: to 120 (60 even-order terms); beyond ~150 the values overflow float64 for
#: moderate t anyway.
MAX_DEGREE = 130

#: Longest generating-function partial sum; n! in the denominator makes
#: longer sums pointless in double precision.
MAX_GENERATING_TERMS = 64


def _check_degree(n: int) -> int:
    if not isinstance(n, (int, np.integer)):
        raise ValidationError(f"degree must be an integer, got {n!r}")
    if n < 0 or n > MAX_DEGREE:
        raise ValidationError(f"degree {n} outside [0, {MAX_DEGREE}]")
    return int(n)


def _rows(x, t: float, top: int):
    """Yield H_2(x,t) ... H_top(x,t) by the recurrence, each a new array;
    H_0 enters as the scalar 1.0, which gives the floats a row of ones does."""
    prev, cur = 1.0, x
    for j in range(1, top):
        prev, cur = cur, x * cur - (t * j) * prev
        yield cur


def hermite_1d(n: int, x, t: float):
    """Evaluate H_n(x, t).

    Parameters
    ----------
    n : int
        Degree, 0 <= n <= MAX_DEGREE.
    x : float or ndarray
        Evaluation point(s).
    t : float
        Time parameter (any real; t=0 gives plain powers x**n).

    Returns
    -------
    float or ndarray, matching the shape of ``x``.
    """
    n = _check_degree(n)
    x = np.asarray(x, dtype=np.float64)
    h = np.ones_like(x) if n == 0 else x.copy()
    for h in _rows(x, t, n):
        pass
    return float(h) if x.ndim == 0 else h


def hermite_table(n_max: int, x, t: float) -> np.ndarray:
    """All of H_0(x,t) ... H_{n_max}(x,t) stacked along a new first axis.

    Shares the recurrence work across degrees; the workhorse behind
    multi-index products over particle clouds.
    """
    n_max = _check_degree(n_max)
    x = np.asarray(x, dtype=np.float64)
    return np.array([np.ones_like(x), x, *_rows(x, t, n_max)][:n_max + 1])


def hermite_multi(alpha, x, t: float):
    """Product polynomial H_alpha(x, t) = prod_i H_{alpha_i}(x_i, t).

    ``x`` is a point of shape (d,) or a batch of shape (N, d); returns a
    float or an (N,) array accordingly.
    """
    a = as_multiindex(alpha)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        return next(hermite_products(x, t, [a]))
    if x.shape[0] != a.dim:
        raise ValidationError(f"point has dim {x.shape[0]}, index {a.dim}")
    return float(next(hermite_products(x[None, :], t, [a]))[0])


def hermite_products(x, t: float, alphas):
    """Yield H_alpha(x_j, t) over the rows x_j of the (N, d) array x, one
    (N,) array per alpha, in the order given.

    Per coordinate, the rows H_2..H_top up to the largest degree any alpha
    asks of it serve every index; H_1 is the column view of x, and H_0 is
    skipped in the product, since multiplying by 1.0 is exact.  Each yielded
    array is a fresh product, built in place: one (N,) array per alpha.
    """
    x = np.asarray(x, dtype=np.float64)
    alphas = [as_multiindex(a) for a in alphas]
    d = x.shape[1] if x.ndim == 2 else None
    for a in alphas:
        if a.dim != d:
            raise ValidationError(f"batch shape {x.shape} does not match dim {a.dim}")
    if not alphas:
        return
    tops = [_check_degree(max(a[i] for a in alphas)) for i in range(d)]
    rows = [[None, x[:, i], *_rows(x[:, i], t, top)] for i, top in enumerate(tops)]
    for a in alphas:
        factors = [rows[i][ai] for i, ai in enumerate(a) if ai]
        w = factors[0].copy() if factors else np.ones(x.shape[0])
        for f in factors[1:]:
            w *= f
        yield w


def hermite_sum_formula(n: int, x: float, t: float) -> float:
    """H_n by the defining alternating sum with exact integer coefficients.

    Slow and (for large n) numerically poor; kept as an independent
    cross-check of the recurrence.
    """
    n = _check_degree(n)
    acc = []
    for j in range(n // 2 + 1):
        coeff = math.factorial(n) // (math.factorial(j) * math.factorial(n - 2 * j))
        acc.append(coeff * (-t / 2.0) ** j * x ** (n - 2 * j))
    return math.fsum(acc)


def addition_shift(n: int, x: float, y, t: float):
    """Binomial shift sum_{j<=n} C(n,j) x^(n-j) H_j(y, t).

    Equals H_n(x + y, t); exposed so the identity can be exercised directly.
    """
    n = _check_degree(n)
    table = hermite_table(n, np.asarray(y, dtype=np.float64), t)
    acc = [math.comb(n, j) * x ** (n - j) * table[j] for j in range(n + 1)]
    if table.ndim == 1:
        return math.fsum(acc)
    return np.sum(acc, axis=0)


def generating_sum(s: float, x: float, t: float, n_terms: int) -> float:
    """Partial sum sum_{n<n_terms} s^n/n! * H_n(x,t).

    Converges to exp(s*x - t*s**2/2) as n_terms grows.
    """
    if not 1 <= n_terms <= MAX_GENERATING_TERMS:
        raise ValidationError(f"n_terms {n_terms} outside [1, {MAX_GENERATING_TERMS}]")
    table = hermite_table(n_terms - 1, np.float64(x), t)
    return math.fsum(
        s**n / math.factorial(n) * float(table[n]) for n in range(n_terms)
    )


def generating_closed_form(s: float, x: float, t: float) -> float:
    """exp(s*x - t*s^2/2), the limit of :func:`generating_sum`."""
    return math.exp(s * x - t * s * s / 2.0)


@dataclass(frozen=True)
class LinearizationTerm:
    """One term c * t^t_power * H_degree(x,t) of a product linearization."""

    degree: int
    t_power: int
    coefficient: int


@dataclass(frozen=True)
class HermiteLinearization:
    """H_n * H_m rewritten in the H basis.

    H_n(x,t) H_m(x,t) = sum_{k=0}^{min(n,m)} t^k * n! m! /
                        (k! (n-k)! (m-k)!) * H_{n+m-2k}(x,t)

    Coefficients are exact integers.
    """

    n: int
    m: int
    terms: tuple[LinearizationTerm, ...]

    def evaluate(self, x: float, t: float) -> float:
        top = max(term.degree for term in self.terms)
        table = hermite_table(top, np.float64(x), t)
        return math.fsum(
            term.coefficient * t**term.t_power * float(table[term.degree])
            for term in self.terms
        )


def product_linearize(n: int, m: int) -> HermiteLinearization:
    """Exact linearization of the product H_n * H_m."""
    n = _check_degree(n)
    m = _check_degree(m)
    terms = []
    for k in range(min(n, m) + 1):
        coeff = (
            math.factorial(n)
            * math.factorial(m)
            // (math.factorial(k) * math.factorial(n - k) * math.factorial(m - k))
        )
        terms.append(LinearizationTerm(degree=n + m - 2 * k, t_power=k, coefficient=coeff))
    return HermiteLinearization(n=n, m=m, terms=tuple(terms))


def hermite_even_at_zero(n: int, t: float) -> float:
    """Closed form H_{2n}(0, t) = (2n)!/n! * (-t/2)**n."""
    if n < 0 or 2 * n > MAX_DEGREE:
        raise ValidationError(f"2n = {2*n} outside [0, {MAX_DEGREE}]")
    return math.factorial(2 * n) / math.factorial(n) * (-t / 2.0) ** n
