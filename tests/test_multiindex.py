import itertools
import math

import pytest

from branchwiener.errors import ValidationError
from branchwiener import multiindex as mi
from branchwiener.multiindex import MultiIndex


def test_construction_and_validation():
    a = MultiIndex((2, 0, 1))
    assert a.dim == 3
    assert a.order == 3
    assert a == (2, 0, 1)
    with pytest.raises(ValidationError):
        MultiIndex(())
    with pytest.raises(ValidationError):
        MultiIndex((1, -1))
    with pytest.raises(ValidationError):
        MultiIndex((0.5,))
    # integer-valued floats are accepted
    assert MultiIndex((2.0, 1.0)) == (2, 1)
    # + and * are the tuple's own: concatenation and repetition
    assert a + (4,) == (2, 0, 1, 4)
    assert 2 * MultiIndex((1,)) == (1, 1)


def test_hashable_as_dict_key():
    table = {MultiIndex((1, 0)): 5.0}
    assert table[mi.as_multiindex((1, 0))] == 5.0


def test_factorial():
    assert mi.factorial((3, 2)) == 12
    assert mi.factorial((0, 0, 0)) == 1
    assert mi.factorial((20,)) == math.factorial(20)


def test_enumerate_order():
    assert mi.enumerate_order(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert mi.enumerate_order(1, 5) == [(5,)]
    assert mi.enumerate_order(3, 0) == [(0, 0, 0)]
    # count is the stars-and-bars binomial
    for d in (1, 2, 3, 4):
        for n in (0, 1, 2, 5):
            got = mi.enumerate_order(d, n)
            assert len(got) == math.comb(n + d - 1, d - 1)
            assert len(set(got)) == len(got)
            assert all(g.order == n for g in got)


def test_expansion_terms():
    terms = mi.expansion_terms(2, 2)
    assert terms is mi.expansion_terms(2, 2)  # cached
    # One term per (alpha, beta <= 2 alpha): sum over |alpha| <= 2 of
    # prod_i (2 alpha_i + 1).
    assert len(terms) == 1 + 2 * 3 + 2 * 5 + 9
    assert terms[0] == (0, 1, 1, 1.0, (0, 0), (0, 0))
    with pytest.raises(ValidationError):
        mi.expansion_terms(-1, 2)
    # math.comb is the oracle: per alpha the betas run over the box
    # beta <= 2 alpha in odometer order (last component fastest, each
    # counting up), beta + gamma = 2 alpha, and the C(2 alpha, beta) sum
    # to 2^|2 alpha| = 4^|alpha|.
    for k, d in ((2, 2), (4, 1), (2, 3)):
        groups, alpha_of_term = {}, []
        for n, fact, c, sign, beta, gamma in mi.expansion_terms(k, d):
            assert [type(v) for v in (n, fact, c, sign)] == [int, int, int, float]
            assert isinstance(beta, MultiIndex) and isinstance(gamma, MultiIndex)
            two_alpha = [b + g for b, g in zip(beta, gamma)]
            assert all(a % 2 == 0 for a in two_alpha) and sum(two_alpha) == 2 * n
            alpha = tuple(a // 2 for a in two_alpha)
            assert fact == mi.factorial(alpha)
            assert c == math.prod(math.comb(a, b) for a, b in zip(two_alpha, beta))
            assert sign == (-1.0) ** beta.order
            groups.setdefault(alpha, []).append((tuple(beta), c))
            alpha_of_term.append(alpha)
        assert list(groups) == [a for n in range(k + 1) for a in mi.enumerate_order(d, n)]
        assert alpha_of_term == [a for a, group in groups.items() for _ in group]
        for alpha, group in groups.items():
            betas = [b for b, _ in group]
            assert betas == list(itertools.product(*(range(2 * a + 1) for a in alpha)))
            assert len(betas) == math.prod(2 * a + 1 for a in alpha)
            assert sum(c for _, c in group) == 4 ** sum(alpha)
