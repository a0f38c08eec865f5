import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_hermite, eval_hermitenorm
from scipy.integrate import quad

from branchwiener.errors import ValidationError
from branchwiener import hermite as hm

import oracles


XS = [-3.0, -1.3, -0.4, 0.0, 0.7, 1.9, 3.0]
TS = [0.5, 1.0, 2.0, 5.0]


def test_low_degree_closed_forms():
    for x in XS:
        for t in TS:
            assert hm.hermite_1d(0, x, t) == 1.0
            assert hm.hermite_1d(1, x, t) == x
            assert hm.hermite_1d(2, x, t) == pytest.approx(x * x - t, rel=1e-14)
            assert hm.hermite_1d(3, x, t) == pytest.approx(x**3 - 3 * t * x, rel=1e-13)
            assert hm.hermite_1d(4, x, t) == pytest.approx(
                x**4 - 6 * t * x**2 + 3 * t * t, rel=1e-13, abs=1e-13
            )
            assert hm.hermite_1d(6, x, t) == pytest.approx(
                x**6 - 15 * t * x**4 + 45 * t**2 * x**2 - 15 * t**3,
                rel=1e-12, abs=1e-12,
            )


def test_t_zero_gives_plain_powers():
    for n in range(9):
        for x in XS:
            assert hm.hermite_1d(n, x, 0.0) == pytest.approx(x**n, rel=1e-14)


def test_recurrence_matches_sum_formula():
    for n in range(13):
        for x in XS:
            for t in TS:
                ref = oracles.hermite_sum_formula(n, x, t)
                got = hm.hermite_1d(n, x, t)
                assert got == pytest.approx(ref, rel=1e-11, abs=1e-11)


def test_scaling_to_classical_polynomials():
    # Two independent classical evaluators (scipy): physicists' and
    # probabilists' Hermite, under the matching change of variables.
    for n in range(11):
        for x in XS:
            for t in TS:
                ours = hm.hermite_1d(n, x, t)
                phys = (t / 2.0) ** (n / 2.0) * eval_hermite(n, x / math.sqrt(2 * t))
                prob = t ** (n / 2.0) * eval_hermitenorm(n, x / math.sqrt(t))
                assert ours == pytest.approx(phys, rel=1e-10, abs=1e-10)
                assert ours == pytest.approx(prob, rel=1e-10, abs=1e-10)


def test_hermite_table_consistent_with_single_degree():
    x = np.asarray(XS)
    table = hm.hermite_table(8, x, 1.7)
    assert table.shape == (9, len(XS))
    for n in range(9):
        np.testing.assert_allclose(table[n], hm.hermite_1d(n, x, 1.7), rtol=1e-14)


def test_hermite_multi_factorizes():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(40, 3))
    alpha = (2, 0, 3)
    got = hm.hermite_multi(alpha, pts, 1.3)
    ref = (
        hm.hermite_1d(2, pts[:, 0], 1.3)
        * hm.hermite_1d(3, pts[:, 2], 1.3)
    )
    np.testing.assert_allclose(got, ref, rtol=1e-13)
    # single-point form
    assert hm.hermite_multi(alpha, pts[0], 1.3) == pytest.approx(got[0], rel=1e-13)


def test_hermite_products_one_array_per_index():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(30, 2))
    alphas = [(0, 0), (3, 1), (0, 2)]
    got = list(hm.hermite_products(pts, 0.9, alphas))
    assert len(got) == len(alphas)
    for a, w in zip(alphas, got):
        ref = hm.hermite_1d(a[0], pts[:, 0], 0.9) * hm.hermite_1d(a[1], pts[:, 1], 0.9)
        np.testing.assert_allclose(w, ref, rtol=1e-13)
    # Each array is the caller's own.
    got[0][:] = 5.0
    np.testing.assert_array_equal(next(hm.hermite_products(pts, 0.9, [(0, 0)])), 1.0)
    assert list(hm.hermite_products(pts, 0.9, [])) == []
    with pytest.raises(ValidationError):
        next(hm.hermite_products(pts, 0.9, [(1,)]))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_hermite_products_equal_products_of_table_rows_bitwise(d):
    # H_0 is skipped and H_1 is the column itself, yet every product is
    # the left-to-right product of hermite_table rows, bit for bit.
    rng = np.random.default_rng(d)
    pts = rng.normal(scale=2.0, size=(200, d))
    pts[:3] = 0.0
    alphas = [a for a in itertools.product(range(7), repeat=d) if sum(a) <= 6]
    assert alphas[0] == (0,) * d
    for t in (0.0, 0.8, 9.0):
        tables = [hm.hermite_table(6, pts[:, i], t) for i in range(d)]
        for a, w in zip(alphas, hm.hermite_products(pts, t, alphas)):
            ref = tables[0][a[0]].copy()
            for i in range(1, d):
                ref *= tables[i][a[i]]
            assert w.tobytes() == ref.tobytes(), (a, t)


def test_addition_shift_equals_shifted_polynomial():
    for n in range(9):
        for x in (-1.1, 0.25, 2.0):
            for y in (-0.7, 0.4, 1.5):
                for t in TS:
                    lhs = oracles.addition_shift(n, x, y, t)
                    rhs = hm.hermite_1d(n, x + y, t)
                    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_generating_function_partial_sums():
    for s in (0.3, -0.8):
        for x in (0.0, 1.2):
            for t in (0.5, 2.0):
                closed = oracles.generating_closed_form(s, x, t)
                partial = oracles.generating_sum(s, x, t, 40)
                assert partial == pytest.approx(closed, rel=1e-12)


def test_product_linearization_structure():
    for n in range(7):
        for m in range(7):
            for x in (-2.0, 0.3, 1.7):
                for t in TS:
                    direct = hm.hermite_1d(n, x, t) * hm.hermite_1d(m, x, t)
                    assert oracles.product_linearize(n, m, x, t) == pytest.approx(
                        direct, rel=1e-11, abs=1e-11
                    )


def test_even_at_zero():
    for n in range(10):
        for t in TS:
            closed = oracles.hermite_even_at_zero(n, t)
            assert closed == pytest.approx(
                math.factorial(2 * n) / math.factorial(n) * (-t / 2) ** n
            )
            assert hm.hermite_1d(2 * n, 0.0, t) == pytest.approx(
                closed, rel=1e-13
            )
        # odd degrees vanish at x=0
        assert hm.hermite_1d(2 * n + 1, 0.0, 1.0) == 0.0


def test_second_moment_under_heat_kernel_by_quadrature():
    # integral of H_n(x,t)^2 against the N(0,t) density is n! t^n
    for n in range(5):
        for t in (0.7, 2.0):
            sd = math.sqrt(t)

            def f(x):
                phi = math.exp(-x * x / (2 * t)) / (sd * math.sqrt(2 * math.pi))
                return hm.hermite_1d(n, x, t) ** 2 * phi

            val, err = quad(f, -12 * sd, 12 * sd, limit=200)
            assert val == pytest.approx(math.factorial(n) * t**n, rel=1e-8)


def test_degree_validation():
    with pytest.raises(ValidationError):
        hm.hermite_1d(-1, 0.0, 1.0)
    with pytest.raises(ValidationError):
        hm.hermite_1d(hm.MAX_DEGREE + 1, 0.0, 1.0)
    with pytest.raises(ValidationError):
        hm.hermite_1d(2.5, 0.0, 1.0)
    # the cap itself works (cancellation-free at x=0)
    assert math.isfinite(hm.hermite_1d(hm.MAX_DEGREE, 0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 10),
    x=st.floats(-5, 5),
    t=st.floats(0.05, 5),
)
def test_recurrence_property(n, x, t):
    ref = oracles.hermite_sum_formula(n, x, t)
    got = hm.hermite_1d(n, x, t)
    assert got == pytest.approx(ref, rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 10),
    x=st.floats(-3, 3),
    t=st.floats(0.1, 5),
)
def test_recurrence_step_property(n, x, t):
    # H_{n+1} = x H_n - t n H_{n-1}
    lhs = hm.hermite_1d(n + 1, x, t)
    rhs = x * hm.hermite_1d(n, x, t) - t * n * hm.hermite_1d(n - 1, x, t)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)
