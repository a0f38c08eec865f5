"""Independent references that the tests compare the package against.

Each is a closed form or identity of the heat-calculus Hermite family, of
the Galton-Watson process or of the region JSON, written directly rather
than through the package's recurrences, so that agreement is evidence.  No
workflow runs them, so they live here and not in ``src/``.
"""

import dataclasses
import math

import numpy as np

from branchwiener import hermite as hm
from branchwiener import regions as rg
from branchwiener import simulator as sim


def hermite_sum_formula(n: int, x: float, t: float) -> float:
    """H_n(x, t) by the defining alternating sum with exact integer
    coefficients n! / (j! (n-2j)!)."""
    return math.fsum(
        math.factorial(n) // (math.factorial(j) * math.factorial(n - 2 * j))
        * (-t / 2.0) ** j * x ** (n - 2 * j)
        for j in range(n // 2 + 1)
    )


def addition_shift(n: int, x: float, y: float, t: float) -> float:
    """Binomial shift sum_{j<=n} C(n,j) x^(n-j) H_j(y, t), which equals
    H_n(x + y, t)."""
    table = hm.hermite_table(n, np.float64(y), t)
    return math.fsum(math.comb(n, j) * x ** (n - j) * float(h) for j, h in enumerate(table))


def generating_sum(s: float, x: float, t: float, n_terms: int) -> float:
    """Partial sum sum_{n<n_terms} s^n/n! H_n(x, t) of the generating
    function."""
    table = hm.hermite_table(n_terms - 1, np.float64(x), t)
    return math.fsum(s**n / math.factorial(n) * float(h) for n, h in enumerate(table))


def generating_closed_form(s: float, x: float, t: float) -> float:
    """exp(s x - t s^2 / 2), the limit of :func:`generating_sum`."""
    return math.exp(s * x - t * s * s / 2.0)


def product_linearize(n: int, m: int, x: float, t: float) -> float:
    """H_n(x,t) H_m(x,t) rewritten in the H basis and evaluated:

        sum_{k<=min(n,m)} t^k n! m! / (k! (n-k)! (m-k)!) H_{n+m-2k}(x, t).
    """
    table = hm.hermite_table(n + m, np.float64(x), t)
    fn, fm = math.factorial(n), math.factorial(m)
    return math.fsum(
        fn * fm // (math.factorial(k) * math.factorial(n - k) * math.factorial(m - k))
        * t**k * float(table[n + m - 2 * k])
        for k in range(min(n, m) + 1)
    )


def hermite_even_at_zero(n: int, t: float) -> float:
    """Closed form H_{2n}(0, t) = (2n)!/n! (-t/2)^n."""
    return math.factorial(2 * n) / math.factorial(n) * (-t / 2.0) ** n


def gw_second_moment(t: int, law: sim.OffspringLaw) -> float:
    """Galton-Watson population second moment E[Z_t^2] =
    sigma^2 m^(t-1) (m^t - 1)/(m - 1) + m^(2t), or sigma^2 t + 1 at m = 1."""
    m, var = law.mean, law.variance
    if m == 1.0:
        return var * t + 1.0
    return var * m ** (t - 1) * (m**t - 1.0) / (m - 1.0) + m ** (2 * t)


def region_to_dict(region) -> dict:
    """The JSON object that ``regions.region_from_dict`` reads back."""
    if isinstance(region, rg.Box):
        return {"type": "box", "lower": list(region.lower), "upper": list(region.upper)}
    if isinstance(region, rg.Ball):
        return {"type": "ball", "center": list(region.center), "radius": region.radius}
    return {"type": "union", "members": [region_to_dict(m) for m in region.members]}


def surviving_run(cfg: sim.SimConfig) -> list[sim.Snapshot]:
    """The snapshots of the first run, under seeds cfg.seed, cfg.seed + 1,
    ..., whose last snapshot is not empty: a run conditioned on survival."""
    for seed in range(cfg.seed, cfg.seed + 100):
        snaps = sim.run(dataclasses.replace(cfg, seed=seed))
        if snaps[-1].n > 0:
            return snaps
    raise AssertionError(f"no surviving run in 100 seeds from {cfg.seed}")
