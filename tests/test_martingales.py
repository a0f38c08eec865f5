import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from branchwiener.errors import ValidationError
from branchwiener import hermite as hm
from branchwiener import martingales as mg
from branchwiener import regions as rg
from branchwiener import simulator as sim
from branchwiener.martingales import NTable
from branchwiener.simulator import BLOCK as B, OffspringLaw, SimConfig, Snapshot, run

import oracles


def snap(t, positions):
    return Snapshot(t=t, positions=np.asarray(positions, dtype=np.float64))


# ------------------------------------------------------------- V statistics


def test_v_alpha_single_particle():
    s = snap(3, [[2.0]])
    v = mg.v_alpha_many(s, [(2,), (0,)])
    assert v[(2,)] == pytest.approx(2.0**2 - 3.0)  # H_2(2,3) = 1
    assert v[(0,)] == 1.0
    assert mg.v_alpha_many(snap(3, np.zeros((0, 1))), [(2,)]) == {(2,): 0.0}


def test_v_alpha_many_matches_individuals():
    # Bit for bit, also when the population spans several leaves of BLOCK rows.
    rng = np.random.default_rng(5)
    alphas = [(0, 0), (1, 0), (0, 2), (2, 1)]
    for n in (50, 3 * B + 5):
        s = snap(4, rng.normal(scale=2.0, size=(n, 2)))
        table = mg.v_alpha_many(s, alphas)
        for a in alphas:
            naive = np.sum(
                hm.hermite_1d(a[0], s.positions[:, 0], 4.0)
                * hm.hermite_1d(a[1], s.positions[:, 1], 4.0)
            )
            assert table[a] == naive
        with pytest.raises(ValidationError):
            mg.v_alpha_many(s, [(1,)])


@pytest.mark.parametrize(
    "n", [0, 1, 7, 8, 127, 128, 129, B - 1, B + 1, 2 * B + 1, 2**20 + 3, 3_000_017],
    ids=["0", "1", "7", "8", "127", "128", "129", "B-1", "B+1", "2B+1", "2^20+3", "3000017"])
def test_leaf_sums_have_the_bits_of_np_sum(n):
    # V_(1) at t=0 is the sum of the coordinates, taken leaf by leaf in
    # numpy's pairwise order; a numpy whose np.sum adds in another order
    # fails here first.
    for seed in (0, 1):
        rng = np.random.default_rng([n, seed])
        x = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, size=n)
        got = mg.v_alpha_many(snap(0, x[:, None]), [(1,)])[(1,)]
        assert np.float64(got).tobytes() == np.sum(x).tobytes()


def test_v_alpha_many_scratch_is_bounded_by_leaves():
    # One leaf of BLOCK rows at a time: the scratch is a few rows per index
    # of one leaf, whatever n is; the whole-population products hold n-row
    # arrays.
    alphas = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    s = snap(5, np.random.default_rng(1).normal(size=(16 * B, 2)))
    bound = 8 * B * len(alphas)

    def peak(build):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            build()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    whole = lambda: [np.sum(w) for w in hm.hermite_products(s.positions, 5.0, alphas)]
    assert peak(whole) > bound
    assert peak(lambda: mg.v_alpha_many(s, alphas)) <= bound


def test_estimate_n_validation(binary_law):
    s = snap(2, [[0.2], [0.9], [-0.3], [0.4]])
    table = mg.estimate_n(s, [(0,), (1,)], binary_law)
    # V_alpha(2)/2^2: N_0 = 4/4 exactly, and V_1 = 1.2.
    assert table[(0,)] == 1.0
    assert table[(1,)] == pytest.approx(1.2 / 4)
    # Doubling has no offspring variance: N_0 is exact, and the e1 remainder
    # is sum_{s>2} 2^-s = 1/4.
    assert table.errors == pytest.approx({(0,): 0.0, (1,): 0.5})
    assert table.meta["err"].startswith("exact L2 remainder")
    # m <= 1: the N_alpha are not L^2 limits.
    for pmf in [(0.5, 0.0, 0.5), (0.5, 0.5)]:
        with pytest.raises(ValidationError, match="supercritical"):
            mg.estimate_n(s, [(1,)], OffspringLaw(pmf, test_mode=True))


@pytest.mark.parametrize("pmf, t", [((0.0, 0.0, 1.0), 1100), ((0.25, 0.25, 0.5), 4000)],
                         ids=["doubling", "mixed"])
def test_estimate_n_refuses_an_overflowing_m_pow_t(pmf, t):
    law = OffspringLaw(pmf, test_mode=True)
    with pytest.raises(ValidationError, match=f"t={t}, m={law.mean}"):
        mg.estimate_n(snap(t, [[0.0]]), [(0,), (1,)], law)


# ------------------------------------------------------------ L^2 remainder


@pytest.mark.parametrize("pmf", [(0.25, 0.25, 0.5), (0.0, 0.5, 0.5)],
                         ids=["mixed", "one-or-two"])
def test_remainder_equals_the_moment_difference_at_small_t(pmf):
    # Up to t = 12, E[N^2] - E[X_t^2] has not yet cancelled away.
    law = OffspringLaw(pmf)
    m = law.mean
    for alpha in [(0,), (1,), (2,), (3,), (1, 1)]:
        if sum(alpha) == 0:
            limit = mg.n0_second_moment(law)
        else:
            limit = mg.n_second_moment(alpha, law)
        for t in range(13):
            x_t = oracles.second_moment_oracle(alpha, t, law) / m ** (2 * t)
            assert mg.l2_remainder(alpha, t, law) == pytest.approx(
                math.sqrt(limit - x_t), rel=1e-9
            ), (alpha, t)


@pytest.mark.parametrize("pmf", [(0.25, 0.25, 0.5), (0.0, 0.5, 0.5), (0.1, 0.2, 0.3, 0.4)],
                         ids=["mixed", "one-or-two", "up-to-three"])
def test_remainder_by_the_addition_formula(pmf):
    # N_alpha - X_alpha(t) = m^-t sum_i sum_{beta<=alpha} C(alpha,beta)
    # H_{alpha-beta}(x_i, t) (N^i_beta - [beta = 0]) over the particles i at
    # t, whose subtrees are independent copies.  Its mean square is
    # m^-t sum_beta C(alpha,beta)^2 Var(N_beta) (alpha-beta)! t^|alpha-beta|,
    # as E[sum_i H_gamma(x_i, t)^2] = m^t gamma! t^|gamma|.
    law = OffspringLaw(pmf)
    m = law.mean
    for alpha in [(0,), (1,), (2,), (3,), (1, 1), (2, 1)]:
        for t in (1, 4, 9):
            total = 0.0
            for beta in itertools.product(*(range(a + 1) for a in alpha)):
                if sum(beta) == 0:
                    var = mg.n0_second_moment(law) - 1.0
                else:
                    var = mg.n_second_moment(beta, law)
                gamma = [a - b for a, b in zip(alpha, beta)]
                total += (math.prod(map(math.comb, alpha, beta)) ** 2 * var
                          * math.prod(map(math.factorial, gamma)) * t ** sum(gamma))
            assert m ** -t * total == pytest.approx(
                mg.l2_remainder(alpha, t, law) ** 2, rel=1e-10
            ), (alpha, t)


def test_remainder_under_doubling(binary_law):
    for t in (0, 5, 20, 100):
        assert mg.l2_remainder((0,), t, binary_law) == 0.0
        assert mg.l2_remainder((1,), t, binary_law) ** 2 == pytest.approx(2.0**-t, rel=1e-11)


def test_remainder_at_large_t_where_the_difference_cancels():
    law = OffspringLaw((0.0, 0.5, 0.5))
    m, t = law.mean, 100
    exact = law.variance * m ** (-t - 1) / (m - 1)
    assert mg.l2_remainder((0,), t, law) ** 2 == pytest.approx(exact, rel=1e-11)
    # The difference of second moments reads 0.0 here.
    x_t = oracles.second_moment_oracle((0,), t, law) / m ** (2 * t)
    assert mg.n0_second_moment(law) - x_t == 0.0


def test_remainder_steps_are_the_exact_increments(mixed_law):
    alphas = [(0,), (1,), (2,)]
    tables = mg.l2_increment_diagnostic(10, alphas, 8, mixed_law, seed=1)
    for a, table in zip(alphas, tables):
        for row in table.rows:
            step = (mg.l2_remainder(a, row.t - 1, mixed_law) ** 2
                    - mg.l2_remainder(a, row.t, mixed_law) ** 2)
            assert step == pytest.approx(row.exact_norm**2, rel=0, abs=1e-12), (a, row.t)


@pytest.mark.parametrize("t", [2, 3])
def test_remainder_against_replicas(t, vmat_mixed, mixed_law):
    # E[(X_6 - X_t)^2] = err(t)^2 - err(6)^2 by orthogonal increments.
    m = mixed_law.mean
    for a, mat in vmat_mixed.items():
        x = mat / m ** np.arange(mat.shape[1])
        sq = (x[:, 6] - x[:, t]) ** 2
        want = mg.l2_remainder(a, t, mixed_law) ** 2 - mg.l2_remainder(a, 6, mixed_law) ** 2
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - want) < 4 * se, (a, sq.mean(), want, se)


def test_readme_quick_start_error_bars():
    cfg = SimConfig(d=1, pmf=(0.0, 0.5, 0.5), seed=42, t_max=12,
                    snapshot_times=(0, 6, 12))
    final = run(cfg)[-1]
    alphas = [(0,), (1,), (2,)]
    table = mg.estimate_n(final, alphas, cfg.law, k=1)
    assert [table.errors[a] for a in alphas] == pytest.approx([0.0507, 0.2267, 1.390], rel=1e-3)


# ------------------------------------------------------------ second moments


def test_recursion_oracle_base_cases():
    law = OffspringLaw((0.25, 0.25, 0.5))
    m, var = law.mean, law.variance
    assert oracles.second_moment_oracle((0,), 0, law) == 1.0
    assert oracles.second_moment_oracle((1,), 0, law) == 0.0
    assert oracles.second_moment_oracle((0,), 1, law) == pytest.approx(var + m * m)
    assert oracles.second_moment_oracle((2,), 1, law) == pytest.approx(2 * m)
    # direct conditioning: E[V_(1)(2)^2] = m sigma^2 + m^2 + m^3
    assert oracles.second_moment_oracle((1,), 2, law) == pytest.approx(
        m * var + m**2 + m**3
    )


def test_recursion_matches_classical_population_formula():
    for pmf in [(0.25, 0.25, 0.5), (0.1, 0.2, 0.3, 0.4), (0.5, 0.0, 0.0, 0.5)]:
        law = OffspringLaw(pmf, test_mode=True)
        for t in range(11):
            a = oracles.second_moment_oracle((0,), t, law)
            b = oracles.gw_second_moment(t, law)
            assert a == pytest.approx(b, rel=1e-10)


def test_limit_moments_match_recursion_tail():
    # m = 2, sigma^2 = 0.5
    law = OffspringLaw((0.0, 0.25, 0.5, 0.25))
    assert law.mean == pytest.approx(2.0)
    assert law.variance == pytest.approx(0.5)
    assert mg.n0_second_moment(law) == pytest.approx(1.25)
    assert mg.n_second_moment((1,), law) == pytest.approx(1.25, abs=1e-10)
    assert mg.n_second_moment((2,), law) == pytest.approx(7.5, abs=1e-9)
    # the recursion at large t converges to the same limits
    for alpha, limit in [((0,), 1.25), ((1,), 1.25), ((2,), 7.5)]:
        at_40 = oracles.second_moment_oracle(alpha, 40, law) / 2.0 ** (2 * 40)
        assert at_40 == pytest.approx(limit, abs=1e-8)
    binary = OffspringLaw((0.0, 0.0, 1.0), test_mode=True)
    assert mg.n_second_moment((1,), binary) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValidationError):
        mg.n_second_moment((0,), law)
    with pytest.raises(ValidationError):
        mg.n_second_moment((1,), OffspringLaw((1.0,), test_mode=True))


# -------------------------------------------------------- conditional field


def test_field_over_huge_box_is_normalized_population():
    cfg = SimConfig(d=2, pmf=(0.25, 0.25, 0.5), seed=88, t_max=5)
    s = oracles.surviving_run(cfg)[-1]
    m = cfg.law.mean
    box = rg.Box((-1e9, -1e9), (1e9, 1e9))
    field = oracles.conditional_expectation_field(s, box, 12.0, m)
    assert field == pytest.approx(s.n / m**5, rel=1e-9)


def test_field_box_matches_quadrature():
    s = snap(2, [[0.3, -0.5], [1.0, 0.2]])
    box = rg.Box((-0.5, -1.0), (1.5, 1.0))
    T, m = 6.0, 1.5
    var = T - 2.0

    def mass(y):
        out = 1.0
        for lo, hi, c in zip(box.lower, box.upper, y):
            a = (lo - c) / math.sqrt(var)
            b = (hi - c) / math.sqrt(var)
            out *= (math.erf(b / math.sqrt(2)) - math.erf(a / math.sqrt(2))) / 2
        return out

    ref = sum(mass(y) for y in s.positions) / m**2
    assert oracles.conditional_expectation_field(s, box, T, m) == pytest.approx(
        ref, rel=1e-12
    )


def test_field_ball_matches_radial_quadrature():
    # independent oracle for the ball mass: radial integral of the
    # noncentral-Gaussian mass in d=2 via Bessel I_0
    s = snap(1, [[0.8, -0.4]])
    ball = rg.Ball((0.25, 0.5), 1.2)
    T, m = 4.0, 2.0
    var = T - 1.0
    delta = math.dist(s.positions[0], ball.center)

    def integrand(r):
        bessel = np.i0(r * delta / var)
        return (
            r / var * math.exp(-(r * r + delta * delta) / (2 * var)) * bessel
        )

    ref, err = integrate.quad(integrand, 0.0, ball.radius, limit=300)
    got = oracles.conditional_expectation_field(s, ball, T, m)
    assert got == pytest.approx(ref / m, rel=1e-8)


def test_field_union_is_additive():
    s = snap(2, [[0.5], [-1.0], [2.5]])
    a = rg.Box((-2.0,), (0.0,))
    b = rg.Ball((3.0,), 0.75)
    u = rg.UnionRegion((a, b))
    fa = oracles.conditional_expectation_field(s, a, 9.0, 1.25)
    fb = oracles.conditional_expectation_field(s, b, 9.0, 1.25)
    fu = oracles.conditional_expectation_field(s, u, 9.0, 1.25)
    assert fu == pytest.approx(fa + fb, rel=1e-12)
    with pytest.raises(ValidationError):
        oracles.conditional_expectation_field(s, a, 2.0, 1.25)  # T <= t
    assert oracles.conditional_expectation_field(
        snap(2, np.zeros((0, 1))), a, 9.0, 1.25
    ) == 0.0


def test_tower_property_on_ensemble(vmat_mixed, mixed_law):
    # E[V_alpha(t)]/m^t = E[N-ish] is 1 for alpha = 0 at every t; combined
    # with the huge-box test this checks the field normalization end to end.
    m = mixed_law.mean
    z = vmat_mixed[(0,)]
    n = z.shape[0]
    for t in range(1, 7):
        x = z[:, t] / m**t
        se = x.std(ddof=1) / math.sqrt(n)
        assert abs(x.mean() - 1.0) <= 4 * se


# ------------------------------------------------------------------- tables


def test_ntable_round_trip(tmp_path):
    table = NTable(
        d=2,
        m=1.5,
        entries={(0, 0): 1.0, (1, 0): -0.25, (0, 2): 3.5},
        errors={(0, 0): 0.01, (1, 0): 0.02, (0, 2): 0.03},
        k=1,
        meta={"source_t": 9},
    )
    p = tmp_path / "table.json"
    table.save(str(p))
    back = NTable.load(str(p))
    assert back.entries == table.entries
    assert back.errors == table.errors
    assert back.k == 1 and back.d == 2 and back.m == 1.5
    assert back.meta["source_t"] == 9
    assert (1, 0) in back and (5, 5) not in back
    assert back[(0, 2)] == 3.5


def test_ntable_covers_and_validation(tmp_path):
    entries = {(0, 0): 1.0, (1, 0): 0.0, (0, 1): 0.0, (2, 0): 1.0, (0, 2): 1.0}
    table = NTable(d=2, m=2.0, entries=entries)
    assert table.covers(1, 2)
    assert not table.covers(2, 2)
    assert not table.covers(1, 1)
    with pytest.raises(ValidationError):
        NTable(d=1, m=2.0, entries={(0, 0): 1.0})
    p = tmp_path / "bad.json"
    p.write_text("{\"k\": 1}\n")
    with pytest.raises(ValidationError):
        NTable.load(str(p))
    p.write_text("not json\n")
    with pytest.raises(ValidationError):
        NTable.load(str(p))


def test_estimate_n_uses_last_snapshot():
    cfg = SimConfig(d=1, pmf=(0.25, 0.25, 0.5), seed=404, t_max=8,
                    snapshot_times=(2, 5, 8))
    last = oracles.surviving_run(cfg)[-1]
    m = cfg.law.mean
    alphas = [(0,), (1,), (2,)]
    table = mg.estimate_n(last, alphas, cfg.law, k=1, seed=404)
    for a in alphas:
        v = np.sum(hm.hermite_1d(a[0], last.positions[:, 0], last.t))
        assert table[a] == pytest.approx(v / m**last.t)
        assert table.errors[a] == mg.l2_remainder(a, 8, cfg.law)
    assert table.meta["source_t"] == 8
    assert table.meta["seed"] == 404
    assert table.k == 1


# --------------------------------------------------------------- increments


def test_increment_table_p2_exact_column(binary_law):
    [table] = mg.l2_increment_diagnostic(400, [(1,)], 5, binary_law, seed=3)
    assert [r.t for r in table.rows] == [1, 2, 3, 4, 5]
    for row in table.rows:
        # crude sanity: the empirical norm sits within a factor 2 of exact
        assert row.empirical_norm == pytest.approx(row.exact_norm, rel=1.0)
    ratio = table.mean_successive_ratio()
    assert 0.0 < ratio < 1.0


def test_increment_exact_column_is_the_closed_form_step():
    # For alpha = 0 the step of the increment law is sigma^2 m^(-t-1); the
    # difference of two second moments loses digits as m^t grows.
    law = OffspringLaw((0.0, 0.5, 0.5))
    m, var = law.mean, law.variance
    [table] = mg.l2_increment_diagnostic(10, [(0,)], 8, law, seed=2)
    for row in table.rows:
        want = math.sqrt(var * m ** (-row.t - 1))
        assert row.exact_norm == pytest.approx(want, rel=1e-15, abs=0), row.t


def test_increment_table_validation(binary_law):
    with pytest.raises(ValidationError, match="at least one index"):
        mg.l2_increment_diagnostic(10, [], 3, binary_law)


@pytest.mark.parametrize("t_max, cap", [(-1, 10**6), (3, "10"), (3, 1.5)],
                         ids=["negative-t_max", "cap-string", "cap-float"])
def test_ensemble_checks_its_inputs(t_max, cap, binary_law):
    with pytest.raises(ValidationError):
        mg.ensemble_v_matrix(binary_law, 1, [(0,)], t_max, 10, seed=1, population_cap=cap)
    with pytest.raises(ValidationError):
        mg.l2_increment_diagnostic(10, [(0,)], t_max, binary_law, seed=1,
                                   population_cap=cap)


def test_increment_tables_share_one_ensemble(mixed_law):
    # One call over several indices runs one ensemble; each table equals
    # the one a single-index call with the same seed gives.
    alphas = [(0, 0), (1, 0), (0, 2)]
    tables = mg.l2_increment_diagnostic(300, alphas, 5, mixed_law, seed=12)
    assert len(tables) == 3
    for a, table in zip(alphas, tables):
        assert [table] == mg.l2_increment_diagnostic(300, [a], 5, mixed_law, seed=12)


B = sim.BLOCK  # parents per part of the ensemble's depth-first walk


# Up to 4099 replicas, a generation fits one or two parts; B - 1 to B + 1
# put the edge of a part at the last root, and at 3 B + 5 every generation
# spans at least three parts.
@pytest.mark.parametrize("n_replicas", [1, 2047, 2048, 2049, 4099,
                                        B - 1, B, B + 1, 3 * B + 5])
def test_ensemble_v_matrix_is_the_whole_batch_bit_for_bit(n_replicas):
    # Half the replicas of this law die out, so parts also end in replicas
    # with no particles left.
    law = OffspringLaw((0.25, 0.25, 0.5))
    alphas = [(0, 0), (1, 0), (0, 2), (2, 1)]
    got = mg.ensemble_v_matrix(law, 2, alphas, 5, n_replicas, seed=8080)
    want = oracles.whole_batch_v_matrix(law, 2, alphas, 5, n_replicas, seed=8080)
    assert sorted(got) == sorted(want)
    for a in want:
        assert got[a].tobytes() == want[a].tobytes(), a
    if n_replicas > 2048:
        assert (want[(0, 0)][:, -1] == 0).any()
    if n_replicas > 3 * B:
        assert want[(0, 0)].sum(axis=0).min() > 3 * B


def test_ensemble_v_matrix_memory_is_bounded_in_parts():
    # Beyond their output and roots, doubling replicas walked depth first
    # hold one step's children (two parts) per generation, so the peak grows
    # by about two parts each time t_max does; the batch made whole holds
    # its last two generations.
    law = OffspringLaw((0.0, 0.0, 1.0), test_mode=True)
    alphas = [(0,), (1,)]
    n = 2 * B
    part = B * (8 + 16 + 8)  # bytes of B particles at d=1 with their root

    def beyond_output(build):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = build()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak - sum(a.nbytes for a in out.values())

    peaks = [beyond_output(lambda: mg.ensemble_v_matrix(law, 1, alphas, t, n, seed=3))
             for t in (5, 6, 7)]  # last generation of 64, 128 and 256 parts
    assert max(peaks) <= 24 * part, peaks
    assert all(0 < b - a <= 3 * part for a, b in zip(peaks, peaks[1:])), peaks
    whole = beyond_output(lambda: oracles.whole_batch_v_matrix(law, 1, alphas, 5, n,
                                                               seed=3))
    assert whole > 4 * peaks[0]


def test_ensemble_v_matrix_shape_and_integrality(mixed_law):
    # V_0 is a population count, so every entry must be a whole number
    mat = mg.ensemble_v_matrix(mixed_law, 1, [(0,)], 4, 300, seed=55)[(0,)]
    assert mat.shape == (300, 5)
    np.testing.assert_array_equal(mat[:, 0], np.ones(300))
    # population sizes are integers >= 0
    assert np.all(mat >= 0)
    assert np.all(mat == np.round(mat))
