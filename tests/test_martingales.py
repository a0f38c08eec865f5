import math

import numpy as np
import pytest
from scipy import integrate

from branchwiener.errors import ValidationError
from branchwiener import hermite as hm
from branchwiener import martingales as mg
from branchwiener import regions as rg
from branchwiener.martingales import NTable
from branchwiener.simulator import OffspringLaw, SimConfig, Snapshot

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
    rng = np.random.default_rng(5)
    s = snap(4, rng.normal(scale=2.0, size=(50, 2)))
    alphas = [(0, 0), (1, 0), (0, 2), (2, 1)]
    table = mg.v_alpha_many(s, alphas)
    for a in alphas:
        naive = np.sum(
            hm.hermite_1d(a[0], s.positions[:, 0], 4.0)
            * hm.hermite_1d(a[1], s.positions[:, 1], 4.0)
        )
        assert table[a] == pytest.approx(naive, rel=1e-12)
    with pytest.raises(ValidationError):
        mg.v_alpha_many(s, [(1,)])


def test_estimate_n_trajectory_validation():
    snaps = [snap(0, [[0.0]]), snap(1, [[0.5], [1.0]]), snap(2, [[0.2], [0.9]])]
    table = mg.estimate_n(snaps, [(1,)], 2.0)
    # V_1(t)/2^t along the trajectory: 0 (H_1(0,0) = 0), 1.5/2, 1.1/4.
    xs = [0.0, 0.75, 0.275]
    assert table[(1,)] == pytest.approx(xs[-1])
    scale = max(abs(xs[t] - xs[t - 1]) * 2.0 ** (t / 2.5) for t in (1, 2))
    assert table.errors[(1,)] == pytest.approx(scale * 2.0 ** (-2 / 2.5))
    with pytest.raises(ValidationError):
        mg.estimate_n([], [(1,)], 2.0)
    with pytest.raises(ValidationError):
        mg.estimate_n([snaps[1], snaps[0]], [(1,)], 2.0)
    with pytest.raises(ValidationError):
        mg.estimate_n([snaps[1], snaps[1]], [(1,)], 2.0)


# ------------------------------------------------------------ second moments


def test_recursion_oracle_base_cases():
    law = OffspringLaw((0.25, 0.25, 0.5))
    m, var = law.mean, law.variance
    assert mg.second_moment_oracle((0,), 0, law) == 1.0
    assert mg.second_moment_oracle((1,), 0, law) == 0.0
    assert mg.second_moment_oracle((0,), 1, law) == pytest.approx(var + m * m)
    assert mg.second_moment_oracle((2,), 1, law) == pytest.approx(2 * m)
    # direct conditioning: E[V_(1)(2)^2] = m sigma^2 + m^2 + m^3
    assert mg.second_moment_oracle((1,), 2, law) == pytest.approx(
        m * var + m**2 + m**3
    )


def test_recursion_matches_classical_population_formula():
    for pmf in [(0.25, 0.25, 0.5), (0.1, 0.2, 0.3, 0.4), (0.5, 0.0, 0.0, 0.5)]:
        law = OffspringLaw(pmf, test_mode=True)
        for t in range(11):
            a = mg.second_moment_oracle((0,), t, law)
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
        at_40 = mg.second_moment_oracle(alpha, 40, law) / 2.0 ** (2 * 40)
        assert at_40 == pytest.approx(limit, abs=1e-8)


def test_variant_closed_form_disagrees_by_design():
    law = OffspringLaw((0.0, 0.25, 0.5, 0.25))
    assert mg.n_second_moment_alt((1,), law) == pytest.approx(1.5, abs=1e-10)
    assert mg.n_second_moment_alt((1,), law) > mg.n_second_moment((1,), law)
    # with sigma^2 = 0 the two coincide
    binary = OffspringLaw((0.0, 0.0, 1.0), test_mode=True)
    assert mg.n_second_moment((1,), binary) == pytest.approx(
        mg.n_second_moment_alt((1,), binary), abs=1e-12
    )
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
    field = mg.conditional_expectation_field(s, box, 12.0, m)
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
    assert mg.conditional_expectation_field(s, box, T, m) == pytest.approx(
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
    got = mg.conditional_expectation_field(s, ball, T, m)
    assert got == pytest.approx(ref / m, rel=1e-8)


def test_field_union_is_additive():
    s = snap(2, [[0.5], [-1.0], [2.5]])
    a = rg.Box((-2.0,), (0.0,))
    b = rg.Ball((3.0,), 0.75)
    u = rg.UnionRegion((a, b))
    fa = mg.conditional_expectation_field(s, a, 9.0, 1.25)
    fb = mg.conditional_expectation_field(s, b, 9.0, 1.25)
    fu = mg.conditional_expectation_field(s, u, 9.0, 1.25)
    assert fu == pytest.approx(fa + fb, rel=1e-12)
    with pytest.raises(ValidationError):
        mg.conditional_expectation_field(s, a, 2.0, 1.25)  # T <= t
    assert mg.conditional_expectation_field(
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
    snaps = oracles.surviving_run(cfg)
    m = cfg.law.mean
    alphas = [(0,), (1,), (2,)]
    table = mg.estimate_n(snaps, alphas, m, k=1, seed=404)
    last = snaps[-1]
    for a in alphas:
        v = np.sum(hm.hermite_1d(a[0], last.positions[:, 0], last.t))
        assert table[a] == pytest.approx(v / m**last.t)
        assert table.errors[a] > 0
    assert table.meta["source_t"] == 8
    assert table.meta["seed"] == 404
    assert table.k == 1
    with pytest.raises(ValidationError):
        mg.estimate_n([], alphas, m)


# --------------------------------------------------------------- increments


def test_increment_table_p2_exact_column(binary_law):
    [table] = mg.lp_increment_diagnostic(400, [(1,)], 2, 5, binary_law, seed=3)
    assert [r.t for r in table.rows] == [1, 2, 3, 4, 5]
    for row in table.rows:
        assert row.exact_norm is not None
        # crude sanity: the empirical norm sits within a factor 2 of exact
        assert row.empirical_norm == pytest.approx(row.exact_norm, rel=1.0)
    ratio = table.mean_successive_ratio(2, 5)
    assert 0.0 < ratio < 1.0


def test_increment_table_p4_and_validation(binary_law):
    [table] = mg.lp_increment_diagnostic(100, [(1,)], 4, 3, binary_law, seed=4)
    assert all(r.exact_norm is None for r in table.rows)
    with pytest.raises(ValidationError):
        mg.lp_increment_diagnostic(10, [(1,)], 3, 3, binary_law)
    with pytest.raises(ValidationError, match="at least one index"):
        mg.lp_increment_diagnostic(10, [], 2, 3, binary_law)


def test_increment_tables_share_one_ensemble(mixed_law):
    # One call over several indices runs one ensemble; each table equals
    # the one a single-index call with the same seed gives.
    alphas = [(0, 0), (1, 0), (0, 2)]
    tables = mg.lp_increment_diagnostic(300, alphas, 2, 5, mixed_law, seed=12)
    assert len(tables) == 3
    for a, table in zip(alphas, tables):
        assert [table] == mg.lp_increment_diagnostic(300, [a], 2, 5, mixed_law, seed=12)


def test_ensemble_v_matrix_shape_and_integrality(mixed_law):
    # V_0 is a population count, so every entry must be a whole number
    mat = mg.ensemble_v_matrix(mixed_law, 1, [(0,)], 4, 300, seed=55)[(0,)]
    assert mat.shape == (300, 5)
    np.testing.assert_array_equal(mat[:, 0], np.ones(300))
    # population sizes are integers >= 0
    assert np.all(mat >= 0)
    assert np.all(mat == np.round(mat))
