import math

import pytest
from hypothesis import given, strategies as st

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


def test_arithmetic():
    a = MultiIndex((2, 1))
    b = MultiIndex((1, 1))
    assert a + b == (3, 2)
    assert a - b == (1, 0)
    assert 2 * a == (4, 2)
    assert a * 3 == (6, 3)
    with pytest.raises(ValidationError):
        b - a
    with pytest.raises(ValidationError):
        a + MultiIndex((1,))
    with pytest.raises(ValidationError):
        -1 * a


def test_hashable_as_dict_key():
    table = {MultiIndex((1, 0)): 5.0}
    assert table[mi.as_multiindex((1, 0))] == 5.0


def test_factorial():
    assert mi.factorial((3, 2)) == 12
    assert mi.factorial((0, 0, 0)) == 1
    assert mi.factorial((20,)) == math.factorial(20)


def test_choose():
    assert mi.choose((4, 2), (2, 1)) == 12
    assert mi.choose((5,), (0,)) == 1
    with pytest.raises(ValidationError):
        mi.choose((1, 1), (2, 0))  # not a sub-index


def test_is_sub_index():
    assert mi.is_sub_index((1, 0), (2, 1))
    assert not mi.is_sub_index((3, 0), (2, 1))
    with pytest.raises(ValidationError):
        mi.is_sub_index((1,), (1, 0))


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


def test_sub_indices_odometer_order():
    got = mi.sub_indices((1, 1))
    assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert mi.sub_indices((0, 0)) == [(0, 0)]
    got = mi.sub_indices((2, 1))
    assert len(got) == 6
    assert got[0] == (0, 0) and got[-1] == (2, 1)


small_indices = st.lists(st.integers(0, 4), min_size=1, max_size=4).map(MultiIndex)


@given(small_indices)
def test_choose_sums_to_power_of_two(alpha):
    total = sum(mi.choose(alpha, beta) for beta in mi.sub_indices(alpha))
    assert total == 2**alpha.order


@given(small_indices)
def test_sub_index_count(alpha):
    count = 1
    for c in alpha:
        count *= c + 1
    subs = mi.sub_indices(alpha)
    assert len(subs) == count
    assert all(mi.is_sub_index(b, alpha) for b in subs)


def test_expansion_terms():
    terms = mi.expansion_terms(2, 2)
    assert terms is mi.expansion_terms(2, 2)  # cached
    # One term per (alpha, beta <= 2 alpha): sum over |alpha| <= 2 of
    # prod_i (2 alpha_i + 1).
    assert len(terms) == 1 + 2 * 3 + 2 * 5 + 9
    assert terms[0] == (0, 1, 1, 1.0, (0, 0), (0, 0))
    for n, fact, c, sign, beta, gamma in terms:
        two_alpha = beta + gamma
        assert two_alpha.order == 2 * n
        alpha = MultiIndex(a // 2 for a in two_alpha)
        assert fact == mi.factorial(alpha)
        assert c == mi.choose(two_alpha, beta)
        assert sign == (-1.0) ** beta.order
    assert [t[0] for t in terms] == sorted(t[0] for t in terms)
    with pytest.raises(ValidationError):
        mi.expansion_terms(-1, 2)
