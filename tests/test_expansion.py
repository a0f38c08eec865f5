import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchwiener.errors import ValidationError
from branchwiener import expansion as xp
from branchwiener import martingales as mg
from branchwiener import multiindex as mi
from branchwiener import regions as rg
from branchwiener import simulator as sim
from branchwiener.martingales import NTable
from branchwiener.simulator import Snapshot

import oracles


def test_required_indices_small_cases():
    assert xp.required_indices(0, 1) == [(0,)]
    assert xp.required_indices(0, 3) == [(0, 0, 0)]
    assert xp.required_indices(1, 1) == [(0,), (1,), (2,)]
    # d=2, k=1: (1,1) never arises even though its order is <= 2
    got = xp.required_indices(1, 2)
    assert got == [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2)]
    assert (1, 1) not in got
    assert len(xp.required_indices(2, 2)) == 13
    # d=1 the gaps close: every order <= 2k appears
    assert xp.required_indices(2, 1) == [(0,), (1,), (2,), (3,), (4,)]
    with pytest.raises(ValidationError):
        xp.required_indices(-1, 1)
    with pytest.raises(ValidationError):
        xp.required_indices(xp.MAX_ORDER + 1, 1)
    with pytest.raises(ValidationError):
        xp.required_indices(1, 0)


def test_required_indices_ordering():
    got = xp.required_indices(2, 2)
    orders = [g.order for g in got]
    assert orders == sorted(orders)


def test_expansion_hand_value():
    # d=1, A=[0,1), T=10, coefficients (N_0, N_1, N_2) = (1, 2, 3):
    #   S_1 = 1 - (1/20) * (1/3 - 2*2*(1/2) + 3) = 14/15
    table = NTable(d=1, m=2.0, entries={(0,): 1.0, (1,): 2.0, (2,): 3.0})
    box = rg.Box((0.0,), (1.0,))
    val = xp.expansion_value(box, 10.0, 1, table)
    assert val == pytest.approx(14.0 / 15.0, abs=1e-15)
    # k = 0 keeps only N_0 * vol
    assert xp.expansion_value(box, 10.0, 0, table) == pytest.approx(1.0)


def test_expansion_accepts_plain_mappings():
    box = rg.Box((0.0,), (1.0,))
    mapping = {(0,): 1.0, (1,): 2.0, (2,): 3.0}
    # plain dict keys are coerced through as_multiindex lookups by NTable
    # only; expansion_value must work with any mapping of MultiIndex keys
    from branchwiener.multiindex import as_multiindex

    coerced = {as_multiindex(a): v for a, v in mapping.items()}
    assert xp.expansion_value(box, 10.0, 1, coerced) == pytest.approx(14 / 15)


def test_expansion_missing_coefficient():
    table = NTable(d=1, m=2.0, entries={(0,): 1.0, (1,): 2.0})
    box = rg.Box((0.0,), (1.0,))
    with pytest.raises(ValidationError, match="missing index"):
        xp.expansion_value(box, 10.0, 1, table)
    with pytest.raises(ValidationError):
        xp.expansion_value(box, -1.0, 1, table)
    with pytest.raises(ValidationError):
        xp.expansion_value(box, math.inf, 1, table)


def test_theorem_a_form_identity_random():
    rng = np.random.default_rng(31)
    for _ in range(25):
        d = int(rng.integers(1, 4))
        lo = rng.uniform(-2, 0, size=d)
        hi = lo + rng.uniform(0.2, 2.0, size=d)
        region = rg.Box(tuple(lo), tuple(hi))
        T = float(rng.uniform(3, 50))
        entries = {g: float(rng.normal()) for g in xp.required_indices(1, d)}
        table = NTable(d=d, m=2.0, entries=entries)
        n0 = entries[(0,) * d]
        n1 = []
        n2 = 0.0
        for i in range(d):
            e = [0] * d
            e[i] = 1
            n1.append(entries[tuple(e)])
            e[i] = 2
            n2 += entries[tuple(e)]
        a = xp.expansion_value(region, T, 1, table)
        b = oracles.theorem_a_form(region, T, n0, n1, n2)
        assert a == pytest.approx(b, abs=1e-12, rel=1e-12)


def test_theorem_a_form_dim_check():
    with pytest.raises(ValidationError):
        oracles.theorem_a_form(rg.Box((0.0,), (1.0,)), 10.0, 1.0, [1.0, 2.0], 3.0)


def test_plugin_single_particle_at_origin():
    # V_gamma(0) of a single particle at the origin is 1{gamma = 0}, so the
    # expansion of its estimated table must equal the expansion with table
    # {0: 1, others: 0}.
    law = sim.OffspringLaw((0.0, 0.0, 1.0), test_mode=True)
    for d in (1, 2):
        s = Snapshot(t=0, positions=np.zeros((1, d)))
        region = rg.Box((-0.5,) * d, (1.0,) * d)
        table = {g: (1.0 if g.order == 0 else 0.0)
                 for g in xp.required_indices(2, d)}
        for k in (0, 1, 2):
            estimated = mg.estimate_n(s, xp.required_indices(k, d), law)
            a = xp.expansion_value(region, 40.0, k, estimated)
            b = xp.expansion_value(region, 40.0, k, table)
            assert a == pytest.approx(b, rel=1e-13, abs=1e-15)


def test_plugin_matches_manual_table():
    cfg = sim.SimConfig(d=2, pmf=(0.25, 0.25, 0.5), seed=1999, t_max=4)
    s = oracles.surviving_run(cfg)[-1]
    m = cfg.law.mean
    gammas = xp.required_indices(2, 2)
    table = {g: v / m**s.t for g, v in mg.v_alpha_many(s, gammas).items()}
    estimated = mg.estimate_n(s, gammas, cfg.law)
    box = rg.Box((-1.0, -1.0), (1.0, 1.0))
    a = xp.expansion_value(box, 200.0, 2, estimated)
    b = xp.expansion_value(box, 200.0, 2, table)
    assert a == pytest.approx(b, rel=1e-12)


# ------------------------------------------------------------- properties


coord = st.floats(-4, 4, allow_nan=False)


@st.composite
def expansion_case(draw):
    """(regions, T, k, table) with boxes, balls and two-member unions."""
    d, k = draw(st.integers(1, 3)), draw(st.integers(0, 2))

    def leaf(shift):
        point = [draw(coord) for _ in range(d)]
        point[0] += shift
        if draw(st.booleans()):
            return rg.Box(tuple(point), tuple(p + draw(st.floats(0.1, 3)) for p in point))
        return rg.Ball(tuple(point), draw(st.floats(0.1, 3)))

    regions = [
        rg.UnionRegion((leaf(0.0), leaf(20.0))) if draw(st.booleans()) else leaf(0.0)
        for _ in range(draw(st.integers(1, 4)))
    ]
    values = st.floats(-2, 2, allow_nan=False)
    table = {g: draw(values) for g in xp.required_indices(k, d)}
    return regions, draw(st.floats(1.0, 200.0)), k, table


@settings(max_examples=60, deadline=None)
@given(case=expansion_case())
def test_expansion_values_are_fsum_of_per_term_products(case):
    regions, T, k, table = case
    want = []
    for region in regions:
        factors = [(-T) ** (-n) / 2.0**n for n in range(k + 1)]
        want.append(math.fsum(
            factors[n] / fact * c * sign * rg.moment(region, beta) * table[gamma]
            for n, fact, c, sign, beta, gamma in mi.expansion_terms(k, region.dim)
        ))
    assert xp.expansion_values(regions, T, k, table) == want
    assert [xp.expansion_value(r, T, k, table) for r in regions] == want


@settings(max_examples=60, deadline=None)
@given(case=expansion_case(), a=st.floats(-3, 3), b=st.floats(-3, 3), seed=st.integers(0, 99))
def test_expansion_is_linear_in_the_table(case, a, b, seed):
    regions, T, k, first = case
    rng = np.random.default_rng(seed)
    second = {g: float(rng.uniform(-2, 2)) for g in first}
    mixed = {g: a * first[g] + b * second[g] for g in first}
    weights, gammas = xp._weight_matrix(regions, T, k, regions[0].dim)
    size = np.abs(weights) @ np.array(
        [abs(a * first[g]) + abs(b * second[g]) + abs(mixed[g]) for g in gammas]
    )
    got = xp.expansion_values(regions, T, k, mixed)
    s1 = xp.expansion_values(regions, T, k, first)
    s2 = xp.expansion_values(regions, T, k, second)
    for value, v1, v2, tol in zip(got, s1, s2, size.tolist()):
        assert abs(value - (a * v1 + b * v2)) <= 1e-13 * tol + 1e-300
