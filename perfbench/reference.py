"""Reference values for the benchmark's output checks, computed without
importing branchwiener.

Each function restates a closed form from the package documentation in
plain numpy, so a check compares the program against an independent
derivation rather than against stored output bytes:

* the order-k expansion S_k(A, T) over region moments and a coefficient
  table (used to make the ``infer`` counts and to check ``predict`` and
  ``expand``);
* the exact second-moment recursion for V_alpha(t) and the closed form of
  E[N_0^2] (used to check ``diagnose``).
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def multi_indices(d: int, n: int) -> list[tuple[int, ...]]:
    """All d-tuples of non-negative integers summing to n."""
    return [a for a in itertools.product(range(n + 1), repeat=d) if sum(a) == n]


def sub_indices(alpha) -> list[tuple[int, ...]]:
    return list(itertools.product(*(range(c + 1) for c in alpha)))


def expansion_terms(k: int, d: int) -> list[tuple[int, tuple, tuple, float]]:
    """(n, beta, gamma, c) for every term of

        S_k(A, T) = sum_n (-T)^-n sum_{|alpha|=n} sum_{beta <= 2 alpha}
                    c * M_beta(A) * N_gamma,   gamma = 2 alpha - beta,
        c = 2^-n / alpha! * C(2 alpha, beta) * (-1)^|beta|.
    """
    terms = []
    for n in range(k + 1):
        for alpha in multi_indices(d, n):
            two = tuple(2 * a for a in alpha)
            fa = 0.5**n / math.prod(math.factorial(a) for a in alpha)
            for beta in sub_indices(two):
                c = fa * math.prod(math.comb(t, b) for t, b in zip(two, beta))
                c *= -1.0 if sum(beta) % 2 else 1.0
                gamma = tuple(t - b for t, b in zip(two, beta))
                terms.append((n, beta, gamma, c))
    return terms


def required_indices(k: int, d: int) -> list[tuple[int, ...]]:
    """The coefficient indices S_k reads, sorted by order then value."""
    gammas = {g for _, _, g, _ in expansion_terms(k, d)}
    return sorted(gammas, key=lambda g: (sum(g), tuple(-c for c in g)))


def _centered_ball_factor(beta) -> float:
    """M_beta of the unit ball centred at 0 (Dirichlet integral); zero when
    a component is odd.  M_beta of radius R is this times R^(|beta|+d)."""
    if any(b % 2 for b in beta):
        return 0.0
    d, n = len(beta), sum(beta)
    num = 2.0 * math.prod(math.gamma((b + 1) / 2.0) for b in beta)
    return num / ((n + d) * math.gamma((n + d) / 2.0))


def _leaf_moments(leaves: list[dict], betas: list[tuple]) -> np.ndarray:
    """Moments of boxes and balls, shape (len(leaves), len(betas))."""
    out = np.zeros((len(leaves), len(betas)))
    boxes = [i for i, r in enumerate(leaves) if r["type"] == "box"]
    balls = [i for i, r in enumerate(leaves) if r["type"] == "ball"]
    if boxes:
        lo = np.array([leaves[i]["lower"] for i in boxes])
        hi = np.array([leaves[i]["upper"] for i in boxes])
        for j, beta in enumerate(betas):
            col = np.ones(len(boxes))
            for axis, b in enumerate(beta):
                col *= (hi[:, axis] ** (b + 1) - lo[:, axis] ** (b + 1)) / (b + 1)
            out[boxes, j] = col
    if balls:
        c = np.array([leaves[i]["center"] for i in balls])
        r = np.array([leaves[i]["radius"] for i in balls])
        d = c.shape[1]
        for j, beta in enumerate(betas):
            col = np.zeros(len(balls))
            # Binomial shift x = c + y onto the centred ball.
            for gamma in sub_indices(beta):
                core = _centered_ball_factor(gamma)
                if core == 0.0:
                    continue
                shift = np.ones(len(balls))
                for axis in range(d):
                    shift *= c[:, axis] ** (beta[axis] - gamma[axis])
                coef = math.prod(math.comb(b, g) for b, g in zip(beta, gamma))
                col += coef * core * r ** (sum(gamma) + d) * shift
            out[balls, j] = col
    return out


def region_moments(regions: list[dict], betas: list[tuple]) -> np.ndarray:
    """Moments of region objects (box, ball, or union of those)."""
    leaves, owner = [], []
    for i, region in enumerate(regions):
        members = region["members"] if region["type"] == "union" else [region]
        leaves.extend(members)
        owner.extend([i] * len(members))
    out = np.zeros((len(regions), len(betas)))
    np.add.at(out, np.array(owner), _leaf_moments(leaves, betas))
    return out


class Expansion:
    """S_k(A, T) for a fixed region list, order and dimension."""

    def __init__(self, regions: list[dict], k: int, d: int):
        self.terms = expansion_terms(k, d)
        self.betas = sorted({beta for _, beta, _, _ in self.terms})
        self.moments = region_moments(regions, self.betas)

    def _weights(self, T: float, table: dict, absolute: bool) -> np.ndarray:
        col = {beta: j for j, beta in enumerate(self.betas)}
        w = np.zeros(len(self.betas))
        for n, beta, gamma, c in self.terms:
            term = c * (-T) ** (-n) * table[gamma]
            w[col[beta]] += abs(term) if absolute else term
        return w

    def values(self, T: float, table: dict) -> tuple[np.ndarray, np.ndarray]:
        """(S_k per region, sum of |terms| per region).  The second array
        is the scale that rounding error in any summation order of S_k is
        proportional to, so comparisons use it as their tolerance unit."""
        value = self.moments @ self._weights(T, table, absolute=False)
        scale = np.abs(self.moments) @ self._weights(T, table, absolute=True)
        return value, scale


def second_moment(alpha, t: int, m: float, var: float) -> float:
    """E[V_alpha(t)^2] by the one-step recursion (0^0 = 1)."""
    q = sum(alpha)
    fact = math.prod(math.factorial(a) for a in alpha)
    acc = 1.0 if q == 0 else 0.0
    for s in range(1, t + 1):
        bracket = m * (float(s) ** q - float(s - 1) ** q) + var * float(s - 1) ** q
        acc = m ** (s - 1) * fact * bracket + m**2 * acc
    return acc


def increment_norm(alpha, t: int, m: float, var: float) -> float:
    """Exact L^2 norm of X_t - X_{t-1}, X_t = V_alpha(t) / m^t."""
    e_t = second_moment(alpha, t, m, var) / m ** (2 * t)
    e_prev = second_moment(alpha, t - 1, m, var) / m ** (2 * (t - 1))
    return math.sqrt(max(e_t - e_prev, 0.0))


def n0_second_moment(m: float, var: float) -> float:
    """E[N_0^2] = 1 + sigma^2 / (m^2 - m)."""
    return 1.0 + var / (m * m - m)


def law_moments(pmf) -> tuple[float, float]:
    mean = math.fsum(ell * p for ell, p in enumerate(pmf))
    var = math.fsum((ell - mean) ** 2 * p for ell, p in enumerate(pmf))
    return mean, var
