import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from branchwiener.errors import PopulationCapError, ValidationError
from branchwiener import regions as rg
from branchwiener import simulator as sim
from branchwiener.simulator import OffspringLaw, SimConfig, Snapshot

import oracles


# ------------------------------------------------------------ offspring law


def test_law_validation():
    law = OffspringLaw((0.25, 0.25, 0.5))
    assert law.mean == pytest.approx(1.25)
    assert law.variance == pytest.approx(0.6875)
    assert law.max_children == 2
    assert law.deterministic_value is None
    with pytest.raises(ValidationError):
        OffspringLaw((0.5, 0.4))  # does not sum to 1
    with pytest.raises(ValidationError):
        OffspringLaw((-0.1, 1.1))
    with pytest.raises(ValidationError):
        OffspringLaw((0.5, 0.5))  # m = 0.5, subcritical
    with pytest.raises(ValidationError):
        OffspringLaw((0.0, 0.0, 1.0))  # zero variance
    # ... but test mode admits both
    assert OffspringLaw((0.5, 0.5), test_mode=True).mean == pytest.approx(0.5)
    assert OffspringLaw((0.0, 0.0, 1.0), test_mode=True).deterministic_value == 2


def test_factorial_moments():
    law = OffspringLaw((0.1, 0.2, 0.3, 0.4), test_mode=True)
    ys = np.arange(4)
    p = np.asarray(law.pmf)
    for k in range(5):
        direct = float(sum(pi * math.perm(int(y), k) for y, pi in zip(ys, p)))
        assert law.factorial_moment(k) == pytest.approx(direct)
    assert law.factorial_moment(0) == 1.0
    assert law.factorial_moment(1) == pytest.approx(law.mean)
    with pytest.raises(ValidationError):
        law.factorial_moment(9)


# ------------------------------------------------------------------- config


def test_config_round_trip_and_validation():
    cfg = SimConfig(d=2, pmf=(0.25, 0.25, 0.5), seed=11, t_max=4)
    assert cfg.snapshot_times == (4,)
    assert cfg.initial_position == (0.0, 0.0)
    back = SimConfig.from_dict(cfg.to_dict())
    assert back == cfg
    assert SimConfig.from_json(json.dumps(cfg.to_dict())) == cfg
    with pytest.raises(ValidationError):
        SimConfig.from_dict({**cfg.to_dict(), "mystery": 1})
    with pytest.raises(ValidationError):
        SimConfig.from_dict({"d": 1, "pmf": [0.25, 0.25, 0.5]})  # missing keys
    with pytest.raises(ValidationError):
        SimConfig(d=1, pmf=(0.25, 0.25, 0.5), seed=1, t_max=3, snapshot_times=(4,))
    with pytest.raises(ValidationError):
        SimConfig(d=1, pmf=(0.25, 0.25, 0.5), seed=1, t_max=3, snapshot_times=(1, 1))
    with pytest.raises(ValidationError):
        SimConfig(d=1, pmf=(0.25, 0.25, 0.5), seed=-1, t_max=3)
    with pytest.raises(ValidationError):
        SimConfig(d=2, pmf=(0.25, 0.25, 0.5), seed=1, t_max=3,
                  initial_position=(1.0,))
    # t_max = 0 is legal: the run is just the initial snapshot
    cfg0 = SimConfig(d=1, pmf=(0.25, 0.25, 0.5), seed=5, t_max=0)
    snaps = sim.run(cfg0)
    assert len(snaps) == 1 and snaps[0].t == 0 and snaps[0].n == 1


# ---------------------------------------------------------------- dynamics


def test_deterministic_doubling_counts():
    cfg = SimConfig(d=1, pmf=(0.0, 0.0, 1.0), seed=7, t_max=5, test_mode=True,
                    snapshot_times=tuple(range(6)))
    snaps = sim.run(cfg)
    assert [s.n for s in snaps] == [1, 2, 4, 8, 16, 32]
    assert [s.t for s in snaps] == list(range(6))


def test_pure_death_law():
    cfg = SimConfig(d=1, pmf=(1.0,), seed=7, t_max=2, test_mode=True,
                    snapshot_times=(0, 1, 2))
    snaps = sim.run(cfg)
    assert [s.n for s in snaps] == [1, 0, 0]


def test_initial_position_offsets_everything():
    cfg = SimConfig(d=2, pmf=(0.0, 1.0), seed=3, t_max=3, test_mode=True,
                    initial_position=(10.0, -4.0))
    base = SimConfig(d=2, pmf=(0.0, 1.0), seed=3, t_max=3, test_mode=True)
    a = sim.run(cfg)[-1]
    b = sim.run(base)[-1]
    np.testing.assert_allclose(a.positions, b.positions + [10.0, -4.0], atol=1e-12)


def test_worker_count_does_not_change_output():
    cfg = SimConfig(d=2, pmf=(0.25, 0.25, 0.5), seed=42, t_max=6)
    ref = sim.run(cfg, workers=1)[-1]
    for workers in (2, 3, 8):
        got = sim.run(cfg, workers=workers)[-1]
        assert got.n == ref.n
        np.testing.assert_array_equal(got.positions, ref.positions)
        np.testing.assert_array_equal(got.id_hi, ref.id_hi)
        np.testing.assert_array_equal(got.id_lo, ref.id_lo)


def _whole_population_step(s, law, seed):
    """The children of every parent built in one pass, as one array per
    field: the reference the block kernel must match bit for bit."""
    from scipy.special import ndtri
    u = sim._draw_u01(seed, s.id_hi, s.id_lo, sim._TAG_OFFSPRING)
    counts = np.searchsorted(law._cumulative, u, side="right")
    parents = np.repeat(np.arange(s.n), counts)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    ranks = (np.arange(parents.shape[0]) - offsets).astype(np.uint64)
    hi, lo = sim._child_ids(s.id_hi[parents], s.id_lo[parents], ranks)
    pos = s.positions[parents].copy()
    tag = sim._TAG_POSITION
    for j in range(s.d):
        pos[:, j] += ndtri(sim._draw_u01(seed, hi, lo, tag))
        tag = (tag + sim._TAG_STRIDE) & sim._MASK
    return pos, hi, lo


def _parents(n, d, seed=5):
    hi, lo = sim._root_ids(seed, n)
    pos = np.random.default_rng(n).normal(size=(n, d))
    return Snapshot(t=3, positions=pos, id_hi=hi, id_lo=lo)


B = sim.BLOCK


@pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 1])
def test_block_kernel_matches_whole_population_build(n):
    law = OffspringLaw((0.3, 0.2, 0.3, 0.2), test_mode=True)
    s = _parents(n, 2)
    pos, hi, lo = _whole_population_step(s, law, 77)
    for workers in (1, 2, 4):
        got = sim.step(s, law, 77, workers=workers)
        assert got.t == 4
        np.testing.assert_array_equal(got.positions, pos)
        np.testing.assert_array_equal(got.id_hi, hi)
        np.testing.assert_array_equal(got.id_lo, lo)


def test_threads_start_only_on_steps_of_two_blocks(monkeypatch):
    opened = []

    class Pool(sim.ThreadPoolExecutor):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(sim, "ThreadPoolExecutor", Pool)
    law = OffspringLaw((0.0, 1.0), test_mode=True)
    sim.step(_parents(B, 1), law, 3, workers=4)
    assert opened == []
    sim.step(_parents(B + 1, 1), law, 3, workers=4)
    sim.step(_parents(5 * B, 1), law, 3, workers=4)
    sim.step(_parents(5 * B, 1), law, 3, workers=1)
    assert opened == [2, 4]


@pytest.mark.parametrize("workers", [1, 2])
def test_step_scratch_memory_is_bounded_by_blocks(workers):
    # Besides its outputs and the counts, a step holds a constant times
    # BLOCK per running block (under 200 bytes per parent of a doubling
    # law); building all children at once held about 1000.
    law = OffspringLaw((0.0, 0.0, 1.0), test_mode=True)
    s = _parents(8 * B, 1)
    bound = 256 * workers * B + 8 * s.n  # scratch, and the counts

    def peak(build):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = build()
            return tracemalloc.get_traced_memory()[1] - base - sum(a.nbytes for a in out)
        finally:
            tracemalloc.stop()

    def step():
        c = sim.step(s, law, 9, workers=workers)
        return c.positions, c.id_hi, c.id_lo

    assert peak(lambda: _whole_population_step(s, law, 9)) > bound
    assert peak(step) <= bound


def test_same_seed_reproduces_different_seed_differs():
    cfg = SimConfig(d=1, pmf=(0.25, 0.25, 0.5), seed=1234, t_max=5)
    a = sim.run(cfg)[-1]
    b = sim.run(cfg)[-1]
    np.testing.assert_array_equal(a.positions, b.positions)
    other = SimConfig(d=1, pmf=(0.25, 0.25, 0.5), seed=1235, t_max=5)
    c = sim.run(other)[-1]
    assert a.n != c.n or not np.array_equal(a.positions, c.positions)


def test_lineage_ids_unique():
    cfg = SimConfig(d=1, pmf=(0.0, 0.0, 1.0), seed=21, t_max=8, test_mode=True)
    s = sim.run(cfg)[-1]
    ids = set(zip(s.id_hi.tolist(), s.id_lo.tolist()))
    assert len(ids) == s.n == 256


def test_worker_count_must_be_positive(tmp_path):
    cfg = SimConfig(d=1, pmf=(0.25, 0.25, 0.5), seed=42, t_max=2)
    s = sim.initial_snapshot(cfg)
    for bad in (0, -1):
        with pytest.raises(ValidationError, match="workers"):
            sim.step(s, cfg.law, cfg.seed, workers=bad)
        with pytest.raises(ValidationError, match="workers"):
            sim.run(cfg, out=str(tmp_path / "w.snap"), workers=bad)
    assert not (tmp_path / "w.snap").exists()


def test_step_requires_ids():
    s = Snapshot(t=2, positions=np.zeros((3, 1)))
    law = OffspringLaw((0.25, 0.25, 0.5))
    with pytest.raises(ValidationError):
        sim.step(s, law, 1)


def test_population_cap():
    cfg = SimConfig(d=1, pmf=(0.0, 0.0, 1.0), seed=9, t_max=10,
                    population_cap=31, test_mode=True)
    with pytest.raises(PopulationCapError) as exc_info:
        sim.run(cfg)
    err = exc_info.value
    assert err.t == 5
    assert err.population == 32
    assert err.cap == 31


def test_population_cap_leaves_partial_file(tmp_path):
    out = tmp_path / "partial.jsonl"
    cfg = SimConfig(d=1, pmf=(0.0, 0.0, 1.0), seed=9, t_max=10,
                    population_cap=7, test_mode=True,
                    snapshot_times=(0, 1, 2, 3, 10))
    with pytest.raises(PopulationCapError):
        sim.run(cfg, out=str(out))
    header, snaps = sim.read_snapshot_file(str(out))
    assert [s.t for s in snaps] == [0, 1, 2]
    assert [s.n for s in snaps] == [1, 2, 4]


# -------------------------------------------------------------- statistics


def test_population_mean_and_variance(vmat_mixed, mixed_law):
    z = vmat_mixed[(0,)]  # V_0 is the population size
    m = mixed_law.mean
    n = z.shape[0]
    for t in (1, 3, 6):
        sample = z[:, t]
        se = sample.std(ddof=1) / math.sqrt(n)
        assert abs(sample.mean() - m**t) <= 4 * se
        second = sample**2
        se2 = second.std(ddof=1) / math.sqrt(n)
        assert abs(second.mean() - oracles.gw_second_moment(t, mixed_law)) <= 4 * se2


def test_single_particle_positions_are_brownian():
    # p_1 = 1: one particle forever, position is a t-step Gaussian walk
    law = OffspringLaw((0.0, 1.0), test_mode=True)
    t_max = 4
    final = {}
    for t, pos, rep in sim.ensemble_states(law, 2, 4000, t_max, seed=77):
        assert pos.shape == (4000, 2)
        np.testing.assert_array_equal(rep, np.arange(4000))
        final[t] = pos
    x = final[t_max][:, 0]
    se_mean = x.std(ddof=1) / math.sqrt(x.size)
    assert abs(x.mean()) <= 4 * se_mean
    v = x**2
    se_var = v.std(ddof=1) / math.sqrt(v.size)
    assert abs(v.mean() - t_max) <= 4 * se_var


# ------------------------------------------------------------------ file IO


def test_snapshot_file_round_trip(tmp_path):
    cfg = SimConfig(d=3, pmf=(0.25, 0.25, 0.5), seed=5150, t_max=4,
                    snapshot_times=(0, 2, 4))
    out = tmp_path / "snaps.jsonl"
    kept = sim.run(cfg, out=str(out))
    header, snaps = sim.read_snapshot_file(str(out))
    assert header["d"] == 3
    assert header["pmf"] == [0.25, 0.25, 0.5]
    assert header["seed"] == 5150
    assert header["sampler"] == sim.SAMPLER_NAME
    assert [s.t for s in snaps] == [0, 2, 4]
    for mem, disk in zip(kept, snaps):
        # raw little-endian bytes are exactly round-trippable
        np.testing.assert_array_equal(mem.positions, disk.positions)
        np.testing.assert_array_equal(mem.id_hi, disk.id_hi)
        np.testing.assert_array_equal(mem.id_lo, disk.id_lo)


def test_extinct_snapshot_round_trips(tmp_path):
    cfg = SimConfig(d=2, pmf=(1.0,), seed=3, t_max=2, test_mode=True,
                    snapshot_times=(0, 1, 2))
    out = tmp_path / "extinct.snap"
    sim.run(cfg, out=str(out))
    _, snaps = sim.read_snapshot_file(str(out))
    assert [(s.t, s.n, s.d) for s in snaps] == [(0, 1, 2), (1, 0, 2), (2, 0, 2)]
    assert all(s.has_ids for s in snaps)


@pytest.mark.parametrize("workers", [1, 2])
def test_snapshot_read_from_file_advances_like_in_memory(tmp_path, workers):
    cfg = SimConfig(d=2, pmf=(0.0, 0.5, 0.5), seed=2718, t_max=20,
                    snapshot_times=(15, 20))
    out = tmp_path / "run.snap"
    kept = sim.run(cfg, out=str(out), workers=workers)
    _, snaps = sim.read_snapshot_file(str(out))
    s = snaps[0]
    assert s.t == 15
    for _ in range(5):
        s = sim.step(s, cfg.law, cfg.seed, workers=workers)
    mem = kept[-1]
    assert s.t == mem.t == 20 and s.n == mem.n
    assert s.positions.tobytes() == mem.positions.tobytes()
    assert s.id_hi.tobytes() == mem.id_hi.tobytes()
    assert s.id_lo.tobytes() == mem.id_lo.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    t=st.integers(0, 10**6),
    n=st.integers(0, 8),
    d=st.integers(1, 4),
    with_ids=st.booleans(),
)
def test_snapshot_file_is_bit_exact(tmp_path_factory, data, t, n, d, with_ids):
    # st.floats() covers -0.0, subnormals, +-max, infinities and NaNs
    pos = data.draw(hnp.arrays(np.float64, (n, d), elements=st.floats()))
    ids = {}
    if with_ids:
        ids = {k: data.draw(hnp.arrays(np.uint64, n)) for k in ("id_hi", "id_lo")}
    snap = Snapshot(t=t, positions=pos, **ids)
    out = tmp_path_factory.mktemp("bitexact") / "s.snap"
    with sim.SnapshotWriter(str(out), d=d, pmf=(0.0, 1.0), seed=1) as w:
        w.write(snap)
    _, (back,) = sim.read_snapshot_file(str(out))
    assert back.t == t
    assert back.positions.shape == (n, d)
    assert back.positions.tobytes() == pos.tobytes()
    assert back.has_ids == with_ids
    if with_ids:
        assert back.id_hi.tobytes() == ids["id_hi"].tobytes()
        assert back.id_lo.tobytes() == ids["id_lo"].tobytes()


def test_read_rejects_garbage(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text("not json\n")
    with pytest.raises(ValidationError):
        sim.read_snapshot_file(str(p))
    p.write_text('{"type":"snapshot"}\n')
    with pytest.raises(ValidationError):
        sim.read_snapshot_file(str(p))
    p.write_text('{"type":"header","version":99,"d":1,"pmf":[1.0],"seed":0}\n')
    with pytest.raises(ValidationError):
        sim.read_snapshot_file(str(p))

    p.write_bytes(b"\xff\xfe\n")
    with pytest.raises(ValidationError, match="record 0"):
        sim.read_snapshot_file(str(p))
    # a format version 1 file (JSON positions) asks for a re-run
    p.write_text('{"type":"header","version":1,"d":1,"pmf":[0.0,1.0],"seed":0}\n'
                 '{"type":"snapshot","t":0,"n":1,"positions":[0.0]}\n')
    with pytest.raises(ValidationError, match="re-run `simulate`"):
        sim.read_snapshot_file(str(p))

    # records 1 (t=1, n=2) and 2 (t=3, n=8) of a d=2 doubling run with ids
    cfg = SimConfig(d=2, pmf=(0.0, 0.0, 1.0), seed=8, t_max=3, test_mode=True,
                    snapshot_times=(1, 3))
    good_path = tmp_path / "good.snap"
    sim.run(cfg, out=str(good_path))
    good = good_path.read_bytes()
    header_line, first = good.split(b"\n", 1)
    second_at = len(header_line) + 1 + first.index(b"\n") + 1 + 64
    assert b'"t":3' in good[second_at:]
    first_bad = [
        (b'"t":1,', b'"t":-1,', "integers >= 0"),
        (b'"n":2,', b'"n":-2,', "integers >= 0"),
        (b'"nbytes":64,', b'"nbytes":63,', "nbytes=63"),
        # a damaged n with a matching nbytes must not allocate 32 TB
        (b'"n":2,"ids":true,"nbytes":64,',
         b'"n":1000000000000,"ids":true,"nbytes":32000000000000,', "truncated"),
    ]
    for old, new, msg in first_bad:
        p.write_bytes(good.replace(old, new, 1))
        with pytest.raises(ValidationError, match=msg) as info:
            sim.read_snapshot_file(str(p))
        assert "record 1" in str(info.value)
        assert "last complete snapshot: none" in str(info.value)
    flipped = bytearray(good)
    flipped[-1] ^= 0x01
    second_bad = [
        (good[:-5], "truncated"),
        (good[:second_at + 10], "truncated"),
        (bytes(flipped), "crc32 mismatch"),
        (good[:second_at] + b"\xff{not json}\n", "not a JSON record"),
    ]
    for content, msg in second_bad:
        p.write_bytes(content)
        with pytest.raises(ValidationError, match=msg) as info:
            sim.read_snapshot_file(str(p))
        assert "record 2" in str(info.value)
        assert "last complete snapshot: t=1" in str(info.value)
    # a file cut right after a complete record is a valid partial result
    p.write_bytes(good[:second_at])
    _, snaps = sim.read_snapshot_file(str(p))
    assert [s.t for s in snaps] == [1]


# ------------------------------------------------------------ snapshot ops


def test_count_against_manual_mask():
    cfg = SimConfig(d=2, pmf=(0.25, 0.25, 0.5), seed=31337, t_max=6)
    s = oracles.surviving_run(cfg)[-1]
    box = rg.Box((-1.0, -1.0), (1.0, 1.0))
    manual = int(
        np.sum(
            np.all((s.positions >= -1.0) & (s.positions < 1.0), axis=1)
        )
    )
    assert sim.count(s, box) == manual
    with pytest.raises(ValidationError):
        sim.count(s, rg.Box((-1.0,), (1.0,)))


@st.composite
def disjoint_members(draw, d):
    """Members in distinct cells of the unit grid: a cell's half-open box,
    or a closed ball strictly inside it, so they never meet."""
    cells = draw(st.lists(st.tuples(*[st.integers(-2, 1)] * d),
                          min_size=1, max_size=6, unique=True))
    members = []
    for cell in cells:
        if draw(st.booleans()):
            members.append(rg.Box(cell, tuple(c + 1 for c in cell)))
        else:
            radius = draw(st.floats(0.05, 0.49))
            members.append(rg.Ball(tuple(c + 0.5 for c in cell), radius))
    return members


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(1, 3))
def test_union_count_is_the_sum_of_member_counts(data, d):
    members = data.draw(disjoint_members(d))
    # Points on the grid and its half-steps lie on box faces and ball
    # centres; the rest are spread over the grid.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pts = np.concatenate([rng.uniform(-2.5, 2.5, size=(300, d)),
                          rng.integers(-6, 6, size=(100, d)) * 0.5])
    s = Snapshot(t=1, positions=pts)
    union = rg.UnionRegion(tuple(members))
    assert sim.count(s, union) == sum(sim.count(s, m) for m in members)


def test_max_radius():
    a = Snapshot(t=3, positions=np.array([[3.0, 4.0]]))
    assert sim.max_radius(a) == pytest.approx(5.0)
    with pytest.raises(ValidationError):
        sim.max_radius(Snapshot(t=0, positions=np.zeros((0, 1))))


def test_radius_profile_monotone_time():
    cfg = SimConfig(d=1, pmf=(0.0, 0.0, 1.0), seed=13, t_max=6, test_mode=True)
    profile = sim.radius_profile(cfg)
    assert [t for t, _ in profile] == list(range(7))
    assert profile[0][1] == 0.0
    assert all(r >= 0 for _, r in profile)


def test_ensemble_population_cap():
    law = OffspringLaw((0.0, 0.0, 1.0), test_mode=True)
    gen = sim.ensemble_states(law, 1, 100, 10, seed=4, population_cap=500)
    with pytest.raises(PopulationCapError):
        for _ in gen:
            pass
