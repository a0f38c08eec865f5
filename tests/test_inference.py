import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchwiener.errors import ConditioningError, ValidationError
from branchwiener import expansion as xp
from branchwiener import inference as inf
from branchwiener import regions as rg
from branchwiener.martingales import NTable


def unit_boxes_1d(n):
    return [rg.Box((float(i),), (float(i) + 1.0,)) for i in range(n)]


def synthetic_counts(system, table, m):
    """Counts that make the linear model exact: invert the b_A map."""
    scale = (2.0 * math.pi * system.T0) ** (system.d / 2.0)
    return [
        xp.expansion_value(a, system.T0, system.k, table) / scale * m**system.T0
        for a in system.sets
    ]


def test_design_matrix_shape_and_rows():
    sets = unit_boxes_1d(3)
    system = inf.design_matrix(sets, 25.0, 1, 1)
    assert system.matrix.shape == (3, 3)
    assert system.indices == ((0,), (1,), (2,))
    assert math.isfinite(system.condition_number)
    # each row is the linear functional itself: probing with unit tables
    # must reproduce the matrix entries exactly
    for j, gamma in enumerate(system.indices):
        probe = {g: (1.0 if g == gamma else 0.0) for g in system.indices}
        for i, region in enumerate(sets):
            want = xp.expansion_value(region, 25.0, 1, probe)
            assert system.matrix[i, j] == pytest.approx(want, rel=1e-13, abs=1e-16)


def test_design_matrix_validation():
    sets = unit_boxes_1d(3)
    with pytest.raises(ValidationError):
        inf.design_matrix(sets[:2], 25.0, 1, 1)  # fewer sets than unknowns
    with pytest.raises(ValidationError):
        inf.design_matrix(sets, -1.0, 1, 1)
    with pytest.raises(ValidationError):
        inf.design_matrix(sets, 25.0, 1, 2)  # dim mismatch
    overlapping = [rg.Box((0.0,), (2.0,)), rg.Box((1.0,), (3.0,)),
                   rg.Box((4.0,), (5.0,))]
    with pytest.raises(ValidationError):
        inf.design_matrix(overlapping, 25.0, 1, 1)
    duplicated = [sets[0], sets[0], sets[2]]
    with pytest.raises(ValidationError):
        inf.design_matrix(duplicated, 25.0, 1, 1)


def test_solve_round_trip_exact():
    true = NTable(d=1, m=1.5, entries={(0,): 1.0, (1,): 0.3, (2,): 2.2}, k=1)
    system = inf.design_matrix(unit_boxes_1d(3), 25.0, 1, 1)
    assert system.condition_number < 1e6
    counts = synthetic_counts(system, true, 1.5)
    got = inf.solve_n(counts, system, 1.5)
    for g in system.indices:
        assert got[g] == pytest.approx(true[g], abs=1e-8, rel=1e-8)
    assert got.meta["T0"] == 25.0
    assert got.meta["condition_number"] == system.condition_number
    assert "truncation" in got.meta["caveat"]
    assert got.k == 1 and got.d == 1


def test_solve_round_trip_overdetermined():
    # more observation sets than unknowns: least squares, residual ~ 0
    true = NTable(d=1, m=2.0, entries={(0,): 1.0, (1,): -0.4, (2,): 1.7}, k=1)
    system = inf.design_matrix(unit_boxes_1d(5), 30.0, 1, 1)
    counts = synthetic_counts(system, true, 2.0)
    got = inf.solve_n(counts, system, 2.0)
    for g in system.indices:
        assert got[g] == pytest.approx(true[g], abs=1e-8)
    assert got.meta["residual_norm"] == pytest.approx(0.0, abs=1e-10)


def test_structural_aliasing_is_refused_for_plane_order1():
    # at k=1 in d=2 both N_(2,0) and N_(0,2) multiply -vol(A)/(2 T0), so
    # their columns coincide for every set choice; the solve must refuse
    # and default_sets must say the failure is structural
    sets = [rg.Box((2.0 * i, 0.0), (2.0 * i + 1.5, 1.5)) for i in range(5)]
    system = inf.design_matrix(sets, 25.0, 1, 2)
    cols = {tuple(g): j for j, g in enumerate(system.indices)}
    assert np.array_equal(
        system.matrix[:, cols[(2, 0)]], system.matrix[:, cols[(0, 2)]]
    )
    assert system.condition_number > inf.CONDITION_THRESHOLD
    with pytest.raises(ConditioningError):
        inf.solve_n([1.0] * 5, system, 1.5)
    with pytest.raises(ConditioningError, match="singular by construction"):
        inf.default_sets(1, 2, 1.5)


def test_solve_count_shape_check():
    system = inf.design_matrix(unit_boxes_1d(3), 25.0, 1, 1)
    with pytest.raises(ValidationError):
        inf.solve_n([1.0, 2.0], system, 1.5)


def test_solve_names_an_identically_zero_column():
    # design_matrix's condition number is inf for such a column, so only a
    # system built by hand reaches the scaling with one.
    system = inf.design_matrix(unit_boxes_1d(3), 25.0, 1, 1)
    matrix = system.matrix.copy()
    matrix[:, 1] = 0.0
    system = dataclasses.replace(system, matrix=matrix, condition_number=1.0)
    with pytest.raises(ConditioningError, match=r"^columns \[\(1,\)\] are identically zero$"):
        inf.solve_n([1.0, 2.0, 3.0], system, 1.5)


def test_clustered_tiny_sets_are_ill_conditioned():
    # three nearly identical observation sets cannot separate three
    # functionals: the solver must refuse rather than return noise
    eps = 1e-6
    sets = [
        rg.Box((0.0,), (eps,)),
        rg.Box((2 * eps,), (3 * eps,)),
        rg.Box((4 * eps,), (5 * eps,)),
    ]
    system = inf.design_matrix(sets, 25.0, 1, 1)
    assert system.condition_number > inf.CONDITION_THRESHOLD
    with pytest.raises(ConditioningError, match="condition number"):
        inf.solve_n([0.0, 0.0, 0.0], system, 1.5)


def test_predict_round_trip_on_observation_set():
    true = NTable(d=1, m=1.5, entries={(0,): 1.1, (1,): 0.2, (2,): 1.9}, k=1)
    system = inf.design_matrix(unit_boxes_1d(3), 25.0, 1, 1)
    counts = synthetic_counts(system, true, 1.5)
    table = inf.solve_n(counts, system, 1.5)
    # predicting at T = T0 on an observation set must reproduce the
    # normalized count that generated it
    pred = inf.predict(system.sets[1], 25.0, table)
    observed_normalized = counts[1] / 1.5**25.0
    assert pred.normalized_density == pytest.approx(observed_normalized, rel=1e-9)
    assert pred.raw_count == pytest.approx(counts[1], rel=1e-9)
    assert pred.k == 1 and pred.T == 25.0


def test_predict_validation_and_raw_cutoff():
    table = NTable(d=1, m=1.5, entries={(0,): 1.0, (1,): 0.0, (2,): 1.0},
                   k=1, meta={"T0": 25.0})
    box = rg.Box((0.0,), (1.0,))
    with pytest.raises(ValidationError):
        inf.predict(box, 20.0, table)  # before observation time
    pred = inf.predict(box, 50.0, table)
    assert pred.raw_count is None  # beyond the overflow guard
    assert pred.normalized_density == pytest.approx(
        (2 * math.pi * 50.0) ** -0.5 * pred.s_value
    )
    bare = NTable(d=1, m=1.5, entries={(0,): 1.0, (1,): 0.0, (2,): 1.0})
    with pytest.raises(ValidationError):
        inf.predict(box, 30.0, bare)  # no order anywhere
    assert inf.predict(box, 30.0, bare, k=1).k == 1
    small = NTable(d=1, m=1.5, entries={(0,): 1.0}, k=1)
    with pytest.raises(ValidationError):
        inf.predict(box, 30.0, small)  # does not cover k=1


def test_predict_at_horizons_where_2_pi_T_overflows():
    # Above T ~ 2.9e307, 2 pi T is inf; the scale is then (2 pi)^(-d/2)
    # T^(-d/2), and below that it stays the one power it always was.
    table = NTable(d=1, m=1.5, entries={(0,): 1.0}, k=0)
    box = rg.Box((-1.0,), (1.0,))
    far = inf.predict(box, 1e308, table)
    assert far.s_value == 2.0 and far.raw_count is None
    assert far.normalized_density == (2 * math.pi) ** -0.5 * 1e308**-0.5 * 2.0
    assert far.normalized_density == pytest.approx(7.978845608028654e-155, rel=1e-15)
    assert inf.predict(box, 1e300, table).normalized_density == (
        (2 * math.pi * 1e300) ** -0.5 * 2.0)


def test_default_sets_counts_and_conditioning():
    for k, d, expected in [(0, 1, 1), (1, 1, 3), (2, 1, 5), (0, 2, 1)]:
        boxes = inf.default_sets(k, d, 1.0)
        assert len(boxes) == expected
        assert len(boxes) == len(xp.required_indices(k, d))
        rg.UnionRegion(tuple(boxes))  # pairwise disjoint by construction
        system = inf.design_matrix(boxes, 25.0, k, d)
        assert system.condition_number <= inf.CONDITION_THRESHOLD
    with pytest.raises(ValidationError):
        inf.default_sets(1, 1, -1.0)


def test_default_sets_impossible_threshold():
    # A scale this small leaves every grown pattern ill conditioned.
    with pytest.raises(ConditioningError, match="after 10 tries.*pass a different scale"):
        inf.default_sets(1, 1, 1e-4)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(0, 2),
    extra=st.integers(0, 6),
    values=st.lists(st.floats(-2, 2, allow_nan=False), min_size=5, max_size=5),
    T0=st.floats(5.0, 60.0),
    m=st.floats(1.1, 2.0),
    seed=st.integers(0, 999),
)
def test_design_matrix_and_solve_recover_a_d1_table(k, extra, values, T0, m, seed):
    gammas = xp.required_indices(k, 1)
    true = NTable(d=1, m=m, entries=dict(zip(gammas, values)), k=k)
    # Disjoint intervals of random widths and gaps spread over about [-6, 6].
    rng = np.random.default_rng(seed)
    n = len(gammas) + extra
    widths = rng.uniform(0.4, 1.6, n) * 12.0 / (1.45 * n)
    edges = np.cumsum(widths + rng.uniform(0.1, 0.8, n) * 12.0 / (1.45 * n)) - 6.0
    sets = [rg.Box((a - w,), (a,)) for a, w in zip(edges.tolist(), widths.tolist())]
    system = inf.design_matrix(sets, T0, k, 1)
    got = inf.solve_n(synthetic_counts(system, true, m), system, m)
    for g in gammas:
        assert got[g] == pytest.approx(true[g], abs=1e-6)
