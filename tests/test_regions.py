import hashlib
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from branchwiener.errors import ValidationError
from branchwiener import regions as rg
from branchwiener.regions import Ball, Box, UnionRegion

import oracles


# ------------------------------------------------------------ construction


def test_box_validation():
    Box((0.0, 0.0), (1.0, 2.0))
    with pytest.raises(ValidationError):
        Box((0.0,), (0.0,))  # empty side
    with pytest.raises(ValidationError):
        Box((0.0, 0.0), (1.0,))
    with pytest.raises(ValidationError):
        Box((), ())
    with pytest.raises(ValidationError):
        Box((0.0,), (math.inf,))


def test_ball_validation():
    Ball((0.0,), 1.0)
    with pytest.raises(ValidationError):
        Ball((0.0,), 0.0)
    with pytest.raises(ValidationError):
        Ball((0.0,), -2.0)
    with pytest.raises(ValidationError):
        Ball((0.0,), math.nan)


def test_union_accepts_disjoint_and_rejects_overlap():
    UnionRegion((Box((0.0,), (1.0,)), Box((1.0,), (2.0,))))  # touching is fine
    UnionRegion((Ball((0.0, 0.0), 1.0), Ball((3.0, 0.0), 1.0)))
    UnionRegion((Box((0.0, 0.0), (1.0, 1.0)), Ball((5.0, 5.0), 1.0)))
    with pytest.raises(ValidationError):
        UnionRegion((Box((0.0,), (2.0,)), Box((1.0,), (3.0,))))
    with pytest.raises(ValidationError):
        # closed balls: tangency means a shared point
        UnionRegion((Ball((0.0,), 1.0), Ball((2.0,), 1.0)))
    with pytest.raises(ValidationError):
        UnionRegion((Box((0.0, 0.0), (1.0, 1.0)), Ball((0.5, 0.5), 0.1)))
    with pytest.raises(ValidationError):
        UnionRegion(())
    with pytest.raises(ValidationError):
        UnionRegion((Box((0.0,), (1.0,)), Ball((0.0, 0.0), 1.0)))  # mixed dims


# ----------------------------------------------------------------- contains


def test_contains_box_half_open():
    box = Box((0.0, 0.0), (1.0, 1.0))
    assert rg.contains(box, [(0.0, 0.0)]).tolist() == [True]
    assert rg.contains(box, [(1.0, 0.5)]).tolist() == [False]
    assert rg.contains(box, [(0.5, 1.0)]).tolist() == [False]
    pts = np.array([[0.5, 0.5], [1.0, 1.0], [-0.1, 0.2]])
    np.testing.assert_array_equal(rg.contains(box, pts), [True, False, False])
    # Each axis is tested against its own bounds: a point on each face.
    cell = Box((0.0, -1.0, 2.0), (1.0, 0.0, 3.0))
    pts = np.array([[0.0, -1.0, 2.0], [1.0, -0.5, 2.5], [0.5, 0.0, 2.5],
                    [0.5, -0.5, 3.0], [0.5, -1.5, 2.5], [0.5, -0.5, 2.5]])
    np.testing.assert_array_equal(rg.contains(cell, pts),
                                  [True, False, False, False, False, True])


def test_contains_ball_closed():
    ball = Ball((1.0, 0.0), 1.0)
    assert rg.contains(ball, [(2.0, 0.0)]).tolist() == [True]  # boundary included
    assert rg.contains(ball, [(2.0 + 1e-12, 0.0)]).tolist() == [False]
    assert rg.contains(ball, [(1.0, -1.0)]).tolist() == [True]


def test_contains_union_and_shape_checks():
    u = UnionRegion((Box((0.0,), (1.0,)), Box((2.0,), (3.0,))))
    np.testing.assert_array_equal(
        rg.contains(u, np.array([[0.5], [1.5], [2.5]])), [True, False, True]
    )
    with pytest.raises(ValidationError):
        rg.contains(u, np.array([[0.5, 1.5]]))  # dim mismatch
    with pytest.raises(ValidationError):
        rg.contains(u, np.array([0.5]))  # one point needs shape (1, d)
    assert rg.contains(u, np.empty((0, 1))).shape == (0,)


# ------------------------------------------------------------------ moments


def test_box_moments_are_products():
    box = Box((0.0,), (1.0,))
    assert rg.moment(box, (0,)) == pytest.approx(1.0)
    assert rg.moment(box, (1,)) == pytest.approx(0.5)
    assert rg.moment(box, (2,)) == pytest.approx(1 / 3)
    shifted = Box((1.0,), (2.0,))
    assert rg.moment(shifted, (1,)) == pytest.approx(3 / 2)
    assert rg.moment(shifted, (2,)) == pytest.approx(7 / 3)
    assert rg.moment(Box((2.0,), (3.0,)), (2,)) == pytest.approx(19 / 3)
    box2 = Box((0.0, -1.0), (1.0, 1.0))
    assert rg.moment(box2, (3, 1)) == pytest.approx((1 / 4) * 0.0, abs=1e-15)
    assert rg.moment(box2, (1, 2)) == pytest.approx(0.5 * (2 / 3))


def test_centered_ball_moments():
    ball = Ball((0.0, 0.0), 1.0)
    assert rg.moment(ball, (0, 0)) == pytest.approx(math.pi)
    assert rg.moment(ball, (2, 0)) == pytest.approx(math.pi / 4)
    assert rg.moment(ball, (0, 2)) == pytest.approx(math.pi / 4)
    assert rg.moment(ball, (1, 0)) == 0.0
    assert rg.moment(ball, (1, 1)) == 0.0
    # d=3 volume
    assert rg.moment(Ball((0.0, 0.0, 0.0), 2.0), (0, 0, 0)) == pytest.approx(
        4 / 3 * math.pi * 8
    )


#: sha256 of moment_matrix's bytes for the centred balls of each d below
#: and a union with a centred member, at every beta in {0..4}^d; recorded
#: when centred balls still had a path of their own.
_CENTRED_DIGESTS = {
    1: "07f2b8ea953ba93ae09f8c1ad722691a0f9d5d629b1f806c51ede9781e1eddd4",
    2: "d14f143fe48764d2abc149c01797dd0c5612105f47675808f4d9ac1bdf8e952e",
    3: "e37444847fa5a19903659044a5c3deb75d7951eb23351972a6c1cfa46e85879b",
}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_centred_ball_moments_keep_their_bits(d):
    # Centres of 0.0 and -0.0 go through the one binomial fsum: only the
    # term of shift 0.0 ** 0 = 1 is nonzero, and fsum ignores the zeros.
    balls = [Ball((0.0,), 1.0), Ball((-0.0,), 0.7), Ball((0.0, -0.0), 1.5),
             Ball((-0.0, -0.0), 1e-120), Ball((-0.0, 0.0, -0.0), 2.5), Ball((0.0,) * 3, 0.3)]
    regions = [b for b in balls if b.dim == d]
    regions.append(UnionRegion((Ball((-0.0,) * d, 0.5), Ball((4.0,) * d, 1.0))))
    got = rg.moment_matrix(regions, list(itertools.product(range(5), repeat=d)))
    assert hashlib.sha256(got.tobytes()).hexdigest() == _CENTRED_DIGESTS[d]
    if d == 1:
        assert got[:2].tolist() == [[2.0, 0.0, 0.6666666666666667, 0.0, 0.4],
                                    [1.4, 0.0, 0.22866666666666663, 0.0, 0.06722799999999998]]


def test_ball_moments_beyond_gamma_range_name_dimension_and_order():
    # nd Gamma(nd/2) overflows from nd = 341: the ball's moments of orders 4
    # and 2 in 340 dimensions need 344 Gamma(172) and 342 Gamma(171), where
    # 342 Gamma(171) once made the moment 0.0; order 1 needs 340 Gamma(170),
    # and a box needs no Gamma at all.
    ball, beta = Ball((0.0,) * 340, 1.0), (4,) + (0,) * 339
    message = r"^region 0: a ball's moment of order 4 in 340 dimensions needs 344 Gamma\(172\)"
    with pytest.raises(ValidationError, match=message):
        rg.moment(ball, beta)
    with pytest.raises(ValidationError, match=message):
        rg.moment(UnionRegion((Box((5.0,) * 340, (6.0,) * 340), ball)), beta)
    with pytest.raises(ValidationError, match=r"order 2 in 340 dimensions needs 342 Gamma\(171\),"):
        rg.moment(ball, (2,) + (0,) * 339)
    assert rg.moment(ball, (1,) + (0,) * 339) == 0.0
    assert 0.0 < rg.moment(ball, (0,) * 340) < math.inf
    assert rg.moment(Box((0.0,) * 340, (1.0,) * 340), beta) == 0.2
    # A box whose coordinates overflow is still named for them.
    big = Box((1e100,) + (0.0,) * 339, (2e100,) + (1.0,) * 339)
    with pytest.raises(ValidationError, match=r"^region 0: .*\(coordinates too large\)$"):
        rg.moment_matrix([big, ball], [beta])


def test_off_center_ball_first_moment_is_center_times_volume():
    ball = Ball((0.7, -1.2), 1.3)
    vol = rg.moment(ball, (0, 0))
    assert rg.moment(ball, (1, 0)) == pytest.approx(0.7 * vol, rel=1e-12)
    assert rg.moment(ball, (0, 1)) == pytest.approx(-1.2 * vol, rel=1e-12)


def test_ball_moment_against_quadrature():
    # independent route: iterated integral with exact variable limits
    ball = Ball((0.4, -0.3), 1.1)
    c1, c2 = ball.center
    R = ball.radius
    for beta in [(0, 0), (2, 0), (1, 1), (2, 1), (0, 3)]:
        def inner(x):
            half = math.sqrt(max(R * R - (x - c1) ** 2, 0.0))
            lo, hi = c2 - half, c2 + half
            b2 = beta[1]
            return x ** beta[0] * (hi ** (b2 + 1) - lo ** (b2 + 1)) / (b2 + 1)

        ref, err = integrate.quad(inner, c1 - R, c1 + R, limit=400)
        assert rg.moment(ball, beta) == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_ball_moment_against_monte_carlo():
    rng = np.random.default_rng(2024)
    ball = Ball((0.5,) * 3, 1.2)
    n = 200_000
    cube = rng.uniform(-0.7, 1.7, size=(n, 3))
    inside = rg.contains(ball, cube)
    beta = (2, 1, 0)
    vals = np.where(inside, cube[:, 0] ** 2 * cube[:, 1], 0.0) * 2.4**3
    est, se = vals.mean(), vals.std(ddof=1) / math.sqrt(n)
    assert abs(rg.moment(ball, beta) - est) <= 4 * se


def test_union_moment_is_sum():
    a = Box((0.0,), (1.0,))
    b = Ball((5.0,), 1.0)
    u = UnionRegion((a, b))
    for beta in [(0,), (1,), (2,)]:
        assert rg.moment(u, beta) == pytest.approx(
            rg.moment(a, beta) + rg.moment(b, beta), rel=1e-13
        )


def test_moment_cap_and_dim_checks():
    box = Box((0.0,), (1.0,))
    with pytest.raises(ValidationError):
        rg.moment(box, (rg.MOMENT_CAP + 1,))
    with pytest.raises(ValidationError):
        rg.moment(box, (1, 1))
    assert math.isfinite(rg.moment(box, (rg.MOMENT_CAP,)))


def test_the_cached_moment_plans_are_read_only():
    # lru_cache hands every caller the same plan, so no caller may change it.
    plan = rg._moment_plan(((0, 2), (1, 1), (3, 0)))
    arrays = {k: v for k, v in vars(plan).items() if isinstance(v, np.ndarray)}
    assert sorted(arrays) == ["betas", "choose", "core", "den", "exps", "gam"]
    for name, array in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    assert isinstance(plan.spans, tuple) and isinstance(plan.nds, tuple)


def test_separation_test_never_overflows():
    # A huge radius overlaps the box; a gap above 1.3e154 once overflowed
    # as a square, and is a plain separation.
    with pytest.raises(ValidationError, match="overlap"):
        UnionRegion((Box((0.0,), (1.0,)), Ball((5.0,), 1e200)))
    assert rg._separated(Box((0.0, 0.0), (1.0, 1.0)), Ball((0.5, 2e154), 1.0))
    UnionRegion((Box((0.0, 0.0), (1.0, 1.0)), Ball((0.5, 2e154), 1.0)))
    assert not rg._separated(Box((0.0, 0.0), (1.0, 1.0)), Ball((0.5, 2e154), 3e154))
    assert rg.contains(Ball((0.0,), 1e200), np.array([[0.0], [1e150]])).all()


@pytest.mark.parametrize("field", ["000", b"000"])
def test_string_coordinates_are_rejected(field):
    # A string is not read as a list of digits.
    with pytest.raises(ValidationError, match="sequence of reals"):
        Box(field, (1.0, 1.0, 1.0))
    with pytest.raises(ValidationError, match="sequence of reals"):
        Ball(field, 1.0)
    with pytest.raises(ValidationError, match="sequence of reals"):
        rg.region_from_dict({"type": "box", "lower": field, "upper": "111"})


# ------------------------------------------------------------ serialization


def test_round_trip_dicts():
    regions = [
        Box((0.0, -1.0), (1.0, 1.5)),
        Ball((0.25,), 2.0),
        UnionRegion((Box((0.0,), (1.0,)), Ball((4.0,), 0.5))),
    ]
    for region in regions:
        obj = oracles.region_to_dict(region)
        back = rg.region_from_dict(json.loads(json.dumps(obj)))
        assert back == region


def test_region_from_json_inline_and_path(tmp_path):
    def region_from_json(text):
        return rg.region_from_dict(rg.load_json(text, "region"))

    text = '{"type": "ball", "center": [0.0, 0.0], "radius": 1.5}'
    assert region_from_json(text) == Ball((0.0, 0.0), 1.5)
    p = tmp_path / "region.json"
    p.write_text(text)
    assert region_from_json(str(p)) == Ball((0.0, 0.0), 1.5)
    with pytest.raises(ValidationError):
        region_from_json('{"type": "cone", "apex": [0]}')
    with pytest.raises(ValidationError):
        region_from_json('{"not json')
    with pytest.raises(ValidationError):
        region_from_json('{"type": "box", "lower": [0.0]}')


def test_load_json_inline_and_path_agree(tmp_path):
    from branchwiener import cli
    from branchwiener.simulator import SimConfig

    regions = ('[{"type": "box", "lower": [0.0], "upper": [1.0]},'
               ' {"type": "ball", "center": [3.0], "radius": 0.5}]')
    config = '{"d": 1, "pmf": [0.0, 0.5, 0.5], "seed": 3, "t_max": 4}'
    for text, load in ((regions, cli._load_regions), (config, SimConfig.from_json)):
        p = tmp_path / "obj.json"
        p.write_text(text)
        assert rg.load_json(text, "x") == rg.load_json(str(p), "x") == json.loads(text)
        assert load(text) == load(str(p))
    assert cli._load_regions(regions) == [Box((0.0,), (1.0,)), Ball((3.0,), 0.5)]
    with pytest.raises(ValidationError, match="bad config JSON"):
        rg.load_json('[1, 2', "config")


# ------------------------------------------------------------- properties


finite = st.floats(-5, 5, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    lower=st.lists(finite, min_size=1, max_size=3),
    widths=st.lists(st.floats(0.1, 3), min_size=1, max_size=3),
)
def test_box_volume_property(lower, widths):
    d = min(len(lower), len(widths))
    lo = tuple(lower[:d])
    hi = tuple(l + w for l, w in zip(lo, widths[:d]))
    box = Box(lo, hi)
    vol = rg.moment(box, (0,) * d)
    expected = math.prod(h - l for l, h in zip(lo, hi))
    assert vol == pytest.approx(expected, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(center=st.lists(finite, min_size=1, max_size=3), radius=st.floats(0.1, 3))
def test_ball_odd_central_moment_property(center, radius):
    ball = Ball(tuple(center), radius)
    d = ball.dim
    beta = (1,) + (0,) * (d - 1)
    # integral of x_1 over the ball = c_1 * volume
    assert rg.moment(ball, beta) == pytest.approx(
        center[0] * rg.moment(ball, (0,) * d), rel=1e-10, abs=1e-10
    )


# A grid with optional one-ulp nudges makes touching and nearly touching
# members common; the scale checks that the sweep's padding is relative.
grid = st.integers(-12, 12)
nudge = st.sampled_from([0, -1, 1])


def _near(x, step):
    return x if step == 0 else math.nextafter(x, step * math.inf)


@st.composite
def union_member(draw, d, scale):
    point = [_near(draw(grid) * 0.5 * scale, draw(nudge)) for _ in range(d)]
    if draw(st.booleans()):
        upper = [_near(p + draw(st.integers(1, 4)) * 0.5 * scale, draw(nudge)) for p in point]
        return Box(tuple(point), tuple(upper))
    return Ball(tuple(point), _near(draw(st.integers(1, 4)) * 0.5 * scale, draw(nudge)))


@st.composite
def member_chain(draw, d, scale):
    """Members laid end to end along axis 0, mostly touching, in any order."""
    members, edge = [], draw(grid) * 0.5 * scale
    for _ in range(draw(st.integers(1, 8))):
        start = _near(edge + draw(st.sampled_from([0, 0, 1, -1])) * 0.5 * scale,
                      draw(nudge))
        width = draw(st.integers(1, 4)) * scale
        rest = [draw(st.integers(-2, 2)) * 0.5 * scale for _ in range(d - 1)]
        if draw(st.booleans()):
            members.append(Box((start, *rest), (_near(start + width, draw(nudge)),
                                                *(r + scale for r in rest))))
        else:
            radius = _near(width / 2, draw(nudge))
            members.append(Ball((start + width / 2, *rest), radius))
        edge = start + width
    return draw(st.permutations(members))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_union_sweep_matches_all_pairs(data):
    d = data.draw(st.integers(1, 3))
    scale = data.draw(st.sampled_from([1e-170, 1e-9, 1.0, 1e7, 1e170]))
    members = data.draw(st.one_of(
        st.lists(union_member(d, scale), min_size=1, max_size=8),
        member_chain(d, scale),
    ))
    bad = [
        (i, j)
        for i in range(len(members))
        for j in range(i + 1, len(members))
        if not rg._separated(members[i], members[j])
    ]
    if not bad:
        UnionRegion(tuple(members))
        return
    with pytest.raises(ValidationError, match="overlap") as err:
        UnionRegion(tuple(members))
    named = re.search(r"members (\d+) and (\d+)", str(err.value))
    assert (int(named[1]), int(named[2])) in bad


def _moment_by_closed_form(region, beta):
    """Term by term, in the float operations of the closed forms."""
    if isinstance(region, UnionRegion):
        return math.fsum(_moment_by_closed_form(m, beta) for m in region.members)
    if isinstance(region, Box):
        out = 1.0
        for lo, hi, b in zip(region.lower, region.upper, beta):
            out *= (hi ** (b + 1) - lo ** (b + 1)) / (b + 1)
        return out

    def core(gamma):
        if any(g % 2 for g in gamma):
            return 0.0
        nd = sum(gamma) + len(gamma)
        num = 2.0 * region.radius**nd
        for g in gamma:
            num *= math.gamma((g + 1) / 2.0)
        return num / (nd * math.gamma(nd / 2.0))

    if all(c == 0.0 for c in region.center):
        return core(beta)
    acc = []
    for gamma in itertools.product(*(range(b + 1) for b in beta)):
        if core(gamma) == 0.0:
            continue
        shift = 1.0
        for c, b, g in zip(region.center, beta, gamma):
            shift *= c ** (b - g)
        acc.append(math.prod(map(math.comb, beta, gamma)) * shift * core(gamma))
    return math.fsum(acc)


coord = st.floats(-4, 4, allow_nan=False)
# Radii whose R^(|gamma|+d) underflows to 0.0 drop terms from an off-center
# ball's sum (the closed form skips a zero core).
radius = st.one_of(st.floats(0.1, 3), st.sampled_from([1e-120, 1e-200, 1e-310]))


@st.composite
def any_region(draw, d):
    def leaf(shift):
        point = [draw(st.one_of(coord, st.just(0.0), st.just(-0.0))) for _ in range(d)]
        if shift:
            point[0] += shift
        if draw(st.booleans()):
            return Box(tuple(point), tuple(p + draw(st.floats(0.1, 3)) for p in point))
        return Ball(tuple(point), draw(radius))

    if draw(st.booleans()):
        return leaf(0.0)
    return UnionRegion(tuple(leaf(20.0 * j) for j in range(draw(st.integers(1, 5)))))


def _bits(rows, shape) -> list:
    return np.array(rows, dtype=np.float64).reshape(shape).view(np.uint64).tolist()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_moment_matrix_matches_closed_forms_bitwise(data):
    # Boxes, balls (centered ones with -0.0 coordinates among them) and
    # unions of up to five members in one call; bits compared, so a -0.0
    # where the closed form has 0.0 fails.
    d = data.draw(st.integers(1, 3))
    regions = data.draw(st.lists(any_region(d), min_size=0, max_size=40))
    betas = data.draw(st.lists(st.tuples(*[st.integers(0, 4)] * d), min_size=1,
                               max_size=12, unique=True))
    got = rg.moment_matrix(regions, betas)
    assert got.shape == (len(regions), len(betas))
    want = [[_moment_by_closed_form(region, b) for b in betas] for region in regions]
    assert got.view(np.uint64).tolist() == _bits(want, got.shape)


def test_moment_matrix_keeps_centered_signs_and_underflowing_cores():
    # Every core of the second and third balls underflows; the third's
    # shifts reach inf, which the closed form never multiplies by 0.
    regions = [Ball((-0.0, 0.0, -0.0), 1.5), Ball((-0.0, 2.0, 0.0), 1e-120),
               Ball((1e100, 1e100, 0.0), 1e-120), UnionRegion((Ball((-0.0,) * 3, 1.0),)),
               Box((-1.0, -2.0, 0.0), (0.0, 0.0, 1.0))]
    betas = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 1), (2, 2, 0), (3, 0, 1)]
    got = rg.moment_matrix(regions, betas)
    want = [[_moment_by_closed_form(region, b) for b in betas] for region in regions]
    assert got.view(np.uint64).tolist() == _bits(want, got.shape)
    assert got[1:3].tolist() == [[0.0] * len(betas)] * 2


def _first_bad(regions, betas):
    """Index of the first region whose closed forms raise or are not finite."""
    for i, region in enumerate(regions):
        try:
            if all(math.isfinite(_moment_by_closed_form(region, b)) for b in betas):
                continue
        except (OverflowError, ValueError):
            pass
        return i
    return None


# Each overflows at these betas in its own way; the union's members are
# finite until their moments of (1, 0, 0), +inf and -inf, are added.
_OVERFLOW_BETAS = [(0, 0, 0), (1, 0, 0), (0, 4, 0), (0, 0, 3)]
_OVERFLOWING = {
    "box end power": Box((0.0, 1e100, 0.0), (1.0, 2e100, 1.0)),
    "ball centre power": Ball((0.5, 2e154, 0.0), 1.0),
    "radius power": Ball((0.0, 0.0, 0.0), 1e200),
    "product to +inf": Box((1e60,) * 3, (2e60,) * 3),
    "product to -inf": Box((1e60, 1e60, -2e60), (2e60, 2e60, -1e60)),
    "union inf - inf": UnionRegion((Ball((1e300, 0.0, 0.0), 1e10),
                                    Ball((-1e300, 0.0, 0.0), 1e10))),
}


def test_overflowing_moments_raise_validation_error():
    # Finite coordinates whose moments exceed float64, by each path: a
    # raised OverflowError (hi ** 5, c ** 4, radius ** 3), a silent inf, and
    # an fsum of +inf and -inf; all exit 2.
    for path, region in _OVERFLOWING.items():
        regions = [Box((0.0,) * 3, (1.0,) * 3), region]
        assert _first_bad(regions, _OVERFLOW_BETAS) == 1, path
        with pytest.raises(ValidationError, match="^region 1: a moment overflows"):
            rg.moment_matrix(regions, _OVERFLOW_BETAS)
    assert rg.moment(Box((1e100,), (2e100,)), (0,)) == 1e100


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_overflowing_moments_name_the_first_bad_region(data):
    regions = data.draw(st.lists(any_region(3), max_size=12))
    for _ in range(data.draw(st.integers(1, 3))):
        bad = _OVERFLOWING[data.draw(st.sampled_from(sorted(_OVERFLOWING)))]
        regions.insert(data.draw(st.integers(0, len(regions))), bad)
    first = _first_bad(regions, _OVERFLOW_BETAS)
    with pytest.raises(ValidationError, match=f"^region {first}: a moment overflows"):
        rg.moment_matrix(regions, _OVERFLOW_BETAS)
