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

import numpy as np

from .errors import ValidationError
from .multiindex import as_multiindex
from .regions import _check_int

#: Highest degree accepted by the evaluators.  Series checks need degrees up
#: to 120 (60 even-order terms); beyond ~150 the values overflow float64 for
#: moderate t anyway.
MAX_DEGREE = 130


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
    n = _check_int(n, "degree", 0, MAX_DEGREE + 1)
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
    n_max = _check_int(n_max, "degree", 0, MAX_DEGREE + 1)
    x = np.asarray(x, dtype=np.float64)
    return np.array([np.ones_like(x), x, *_rows(x, t, n_max)][:n_max + 1])


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
    tops = [_check_int(max(a[i] for a in alphas), "degree", 0, MAX_DEGREE + 1)
            for i in range(d)]
    rows = [[None, x[:, i], *_rows(x[:, i], t, top)] for i, top in enumerate(tops)]
    for a in alphas:
        factors = [rows[i][ai] for i, ai in enumerate(a) if ai]
        w = factors[0].copy() if factors else np.ones(x.shape[0])
        for f in factors[1:]:
            w *= f
        yield w

