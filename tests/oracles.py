"""Independent references that the tests compare the package against.

Each is a closed form, identity or recursion of the heat-calculus Hermite
family, of the Gaussian kernel and the density expansion, of the
Galton-Watson process and its Hermite martingales, or of the region JSON
and the snapshot file's record lines, written directly rather than through
the package's code, so that agreement is evidence.  No workflow runs them,
so they live here and not in ``src/``.
"""

import dataclasses
import json
import math

import numpy as np
from scipy.special import chndtr, ndtr

from branchwiener import hermite as hm
from branchwiener import multiindex as mi
from branchwiener import regions as rg
from branchwiener import sampler
from branchwiener import simulator as sim
from branchwiener.errors import ValidationError


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


def second_moment_oracle(alpha, t: int, law: sim.OffspringLaw) -> float:
    """Exact E[V_alpha(t)^2] by the one-step recursion

        E[V_a(t)^2] = m^(t-1) a! ( m (t^|a| - (t-1)^|a|) + sigma^2 (t-1)^|a| )
                      + m^2 E[V_a(t-1)^2],      E[V_a(0)^2] = [a == 0].

    The 0^0 = 1 convention applies inside the bracket, which makes the t=1,
    alpha=0 value equal E[Y^2] = sigma^2 + m^2 as a direct computation gives.
    """
    a = mi.as_multiindex(alpha)
    if t < 0:
        raise ValidationError("t must be >= 0")
    m, var = law.mean, law.variance
    q = a.order
    fact = mi.factorial(a)
    acc = 1.0 if q == 0 else 0.0  # E[V_alpha(0)^2]
    for s in range(1, t + 1):
        bracket = m * (float(s) ** q - float(s - 1) ** q) + var * float(s - 1) ** q
        acc = m ** (s - 1) * fact * bracket + m**2 * acc
    return acc


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


def whole_generation_run(cfg: sim.SimConfig) -> list[sim.Snapshot]:
    """Every generation of cfg's run, t = 0..t_max, each made whole from the
    last by one `simulator.step`, which checks the cap on the whole
    generation: the run that `run` and `radius_profile` walk depth first in
    parts.  An abort names the first generation over the cap and its size."""
    snaps = [sim.initial_snapshot(cfg)]
    while snaps[-1].t < cfg.t_max:
        snaps.append(sim.step(snaps[-1], cfg.law, cfg.seed,
                              population_cap=cfg.population_cap))
    return snaps


def snapshot_records(data: bytes) -> list[tuple[int, dict]]:
    """(offset, record) of each record line of a snapshot file's bytes, the
    header first, found by skipping each part's ``nbytes`` data bytes."""
    out, at = [], 0
    while at < len(data):
        end = data.index(b"\n", at) + 1
        rec = json.loads(data[at:end])
        out.append((at, rec))
        at = end + rec.get("nbytes", 0)
    return out


def whole_batch(law, d, n_replicas, t_max, seed, population_cap=sim.DEFAULT_POPULATION_CAP):
    """Generations t = 0..t_max of n_replicas independent runs from the
    origin, as one population whose ``root`` is each row's replica, each
    made whole from the last by one `simulator.step`, which checks the cap
    on the whole batch: the batch that ``martingales.ensemble_v_matrix``
    walks depth first in parts.  Replica r has the r-th root id of the seed,
    so replica 0 has the root of `simulator.run`."""
    hi, lo = sampler.root_ids(seed, n_replicas)
    s = sim.Snapshot(0, np.zeros((n_replicas, d)), hi, lo, np.arange(n_replicas))
    yield s
    while s.t < t_max:
        s = sim.step(s, law, seed, population_cap=population_cap)
        yield s


def whole_batch_v_matrix(law, d, alphas, t_max, n_replicas, seed,
                         population_cap=sim.DEFAULT_POPULATION_CAP) -> dict:
    """V_alpha(t) per replica, as ``martingales.ensemble_v_matrix`` returns
    it, from the generations of `whole_batch` and one ``np.bincount`` over
    all of a generation's particles per index."""
    alphas = [mi.as_multiindex(a) for a in alphas]
    out = {a: np.zeros((n_replicas, t_max + 1)) for a in alphas}
    for s in whole_batch(law, d, n_replicas, t_max, seed, population_cap):
        for a, w in zip(alphas, hm.hermite_products(s.positions, float(s.t), alphas)):
            out[a][:, s.t] = np.bincount(s.root, weights=w, minlength=n_replicas)
    return out


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
    eye = np.eye(d, dtype=int).tolist()
    betas = [[0] * d] + eye + [[2 * c for c in e] for e in eye]
    m = rg.moment_matrix([region], betas)[0].tolist()
    vol, quad, lin = m[0], 0.0, 0.0
    for i in range(d):
        lin += n1[i] * m[1 + i]
        quad += m[1 + d + i]
    return n0 * vol - (n0 * quad - 2.0 * lin + n2 * vol) / (2.0 * T)


def truncated_kernel_shifted(x, y, T: float, t: float, k: int) -> float:
    """Two-point order-k truncation: each H_{2 alpha} is expanded binomially
    around the source point x, i.e. the summand becomes

        sum_{beta <= 2 alpha} C(2 alpha, beta) (-x)^beta H_{2 alpha - beta}(y, t).

    Equals ``truncated_kernel(y - x, T, t, k)`` term by term.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    d = len(y)
    tables = [hm.hermite_table(2 * k, y[i], t) for i in range(d)]
    factors = [(-T) ** (-n) / 2.0**n for n in range(k + 1)]
    terms = []
    # The S_k term list, with (-x)^beta H_gamma(y, t) in place of
    # (-1)^|beta| M_beta N_gamma.
    for n, fact, c, _, beta, gamma in mi.expansion_terms(k, d):
        xb = 1.0
        h = 1.0
        for i in range(d):
            xb *= (-x[i]) ** beta[i]
            h *= float(tables[i][gamma[i]])
        terms.append(factors[n] / fact * c * xb * h)
    return (2.0 * math.pi * T) ** (-d / 2.0) * math.fsum(terms)


def _box_gauss_mass(box: rg.Box, positions: np.ndarray, s: float) -> np.ndarray:
    """P(position + sqrt(s) G in box) per particle, G standard Gaussian."""
    sd = math.sqrt(s)
    lo = (np.asarray(box.lower) - positions) / sd
    hi = (np.asarray(box.upper) - positions) / sd
    return np.prod(ndtr(hi) - ndtr(lo), axis=1)


def _ball_gauss_mass(ball: rg.Ball, positions: np.ndarray, s: float) -> np.ndarray:
    """P(position + sqrt(s) G in ball): |x + sqrt(s) G - c|^2 / s is
    noncentral chi-square with d degrees of freedom and noncentrality
    |x - c|^2 / s, so the mass is its CDF at radius^2/s."""
    d = positions.shape[1]
    delta = positions - np.asarray(ball.center)
    nc = np.einsum("ij,ij->i", delta, delta) / s
    return chndtr(ball.radius**2 / s, d, nc)


def _region_gauss_mass(region, positions: np.ndarray, s: float) -> np.ndarray:
    if isinstance(region, rg.Box):
        return _box_gauss_mass(region, positions, s)
    if isinstance(region, rg.Ball):
        return _ball_gauss_mass(region, positions, s)
    if isinstance(region, rg.UnionRegion):
        return sum(_region_gauss_mass(m, positions, s) for m in region.members)
    raise ValidationError(f"not a region: {region!r}")


def conditional_expectation_field(s: sim.Snapshot, region, T: float, m: float) -> float:
    """E[psi(A, T) | snapshot at t] / m^T, computed exactly.

    Each particle's descendants at time T are centered Gaussians around the
    particle (variance T - t per coordinate), so the value is

        m^(-t) * sum_particles P(y + sqrt(T-t) G in A).
    """
    if region.dim != s.d:
        raise ValidationError(f"region dim {region.dim} != snapshot dim {s.d}")
    if not T > s.t:
        raise ValidationError(f"need T > t, got T={T}, t={s.t}")
    if s.n == 0:
        return 0.0
    mass = _region_gauss_mass(region, s.positions, float(T) - s.t)
    return float(np.sum(mass)) * m ** (-s.t)
