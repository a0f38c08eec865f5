import dataclasses
import hashlib
import json
import math
import pickle
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from branchwiener.errors import PopulationCapError, ValidationError
from branchwiener import martingales as mg
from branchwiener import regions as rg
from branchwiener import sampler
from branchwiener import simulator as sim
from branchwiener.simulator import OffspringLaw, SimConfig, Snapshot

import oracles


# ------------------------------------------------------------ offspring law


def test_law_validation():
    law = OffspringLaw((0.25, 0.25, 0.5))
    assert law.mean == pytest.approx(1.25)
    assert law.variance == pytest.approx(0.6875)
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
    assert OffspringLaw((0.0, 0.0, 1.0), test_mode=True).mean == 2.0


# ------------------------------------------------------------------- config


def test_config_round_trip_and_validation():
    cfg = SimConfig(d=2, pmf=(0.25, 0.25, 0.5), seed=11, t_max=4)
    assert cfg.snapshot_times == (4,)
    assert cfg.initial_position == (0.0, 0.0)
    back = SimConfig.from_dict(dataclasses.asdict(cfg))
    assert back == cfg
    assert SimConfig.from_json(json.dumps(dataclasses.asdict(cfg))) == cfg
    with pytest.raises(ValidationError):
        SimConfig.from_dict({**dataclasses.asdict(cfg), "mystery": 1})
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


def _whole_population_step(s, law, seed):
    """The children of every parent built in one pass, as one array per
    field, with the draws of sampler v4 written out: the reference the
    block kernel must match bit for bit."""

    def key(tag):
        return np.uint64(sampler._mix_int(seed * sampler._GOLDEN + tag))

    def uniform(h):
        return ((h >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52

    def draw(fold, tag):
        return uniform(sampler._mix(fold ^ key(tag)))

    counts = np.searchsorted(law._cumulative, draw(s.id_hi ^ s.id_lo, sampler._TAG_OFFSPRING),
                             side="right")
    parents = np.repeat(np.arange(s.n), counts)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    # the birth rank, counting from 1 among siblings, plus the seed's id key
    rank = (np.arange(1, parents.shape[0] + 1) - offsets).astype(np.uint64) + key(sampler._TAG_ID)
    phi, plo = s.id_hi[parents], s.id_lo[parents]
    hi = sampler._mix((phi ^ (rank * np.uint64(sampler._SALT))) + plo)
    lo = sampler._mix((plo ^ (rank * np.uint64(sampler._GOLDEN))) + phi)
    pos = s.positions[parents].copy()
    for j in range(s.d):
        tag = sampler._TAG_POSITION + j * sampler._TAG_STRIDE
        u = uniform((hi, lo)[j]) if j < 2 else draw(hi ^ lo, tag)
        pos[:, j] += sampler._ndtri(u)
    return pos, hi, lo


def _parents(n, d, seed=5):
    hi, lo = sampler.root_ids(seed, n)
    pos = np.random.default_rng(n).normal(size=(n, d))
    return Snapshot(t=3, positions=pos, id_hi=hi, id_lo=lo)


B = sim.BLOCK


@pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 1], ids=["B-1", "B", "B+1", "2B+1"])
def test_block_kernel_matches_whole_population_build(n):
    law = OffspringLaw((0.3, 0.2, 0.3, 0.2), test_mode=True)
    s = _parents(n, 2)
    pos, hi, lo = _whole_population_step(s, law, 77)
    got = sim.step(s, law, 77)
    assert got.t == 4
    np.testing.assert_array_equal(got.positions, pos)
    np.testing.assert_array_equal(got.id_hi, hi)
    np.testing.assert_array_equal(got.id_lo, lo)


@pytest.mark.parametrize("d", [1, 3])
def test_block_kernel_matches_whole_population_build_in_other_dimensions(d):
    # d=1 draws from id_hi alone; d=3 also draws axis 2 from the folded id.
    law = OffspringLaw((0.3, 0.2, 0.3, 0.2), test_mode=True)
    s = _parents(B + 1, d)
    pos, hi, lo = _whole_population_step(s, law, 78)
    got = sim.step(s, law, 78)
    for field, want in (("positions", pos), ("id_hi", hi), ("id_lo", lo)):
        assert getattr(got, field).tobytes() == want.tobytes(), field


def test_a_fresh_seed_gives_fresh_ids_and_displacements():
    # One snapshot stepped under two seeds: the ids mix in the seed, so the
    # children's ids differ, and so do the displacements that axes 0 and 1
    # read from the id words.  Doubling, so child i has parent i // 2 under
    # both seeds.
    law = OffspringLaw((0.0, 0.0, 1.0), test_mode=True)
    s = _parents(50_000, 3)
    a, b = (sim.step(s, law, seed) for seed in (41, 42))
    assert not np.any(a.id_hi == b.id_hi) and not np.any(a.id_lo == b.id_lo)
    start = np.repeat(s.positions, 2, axis=0)
    za, zb = a.positions - start, b.positions - start
    for j in range(3):
        _assert_uncorrelated(za[:, j], zb[:, j])


@pytest.mark.parametrize("chunks", [1, 2])
def test_step_scratch_memory_is_bounded_by_blocks(chunks):
    # Besides its outputs and the counts, a step holds one block's scratch,
    # a constant times BLOCK (about 89, 135 and 203 bytes per parent of a
    # doubling law at d = 1, 2 and 3); building all children at once held
    # about 1000 at d = 1. The bound does not grow with the parents: a
    # step of one run chunk (what the depth-first walk hands to step) and
    # a step of two are held to the same scratch.
    law = OffspringLaw((0.0, 0.0, 1.0), test_mode=True)

    def peak(build):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = build()
            return tracemalloc.get_traced_memory()[1] - base - sum(a.nbytes for a in out)
        finally:
            tracemalloc.stop()

    for d in (1, 2, 3):
        s = _parents(chunks * sim._RUN_CHUNK, d)
        bound = 256 * B + 8 * s.n  # scratch, and the counts

        def step():
            c = sim.step(s, law, 9)
            return c.positions, c.id_hi, c.id_lo

        assert peak(lambda: _whole_population_step(s, law, 9)) > bound
        assert peak(step) <= bound, d


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


def test_population_cap_error_survives_pickling():
    # A worker process hands its abort to the parent by pickling it.
    err = pickle.loads(pickle.dumps(PopulationCapError(5, 123, 50)))
    assert type(err) is PopulationCapError
    assert (err.t, err.population, err.cap) == (5, 123, 50)
    assert str(err) == "population 123 at generation 5 exceeds cap 50"


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
    for s in oracles.whole_batch(law, 2, 4000, t_max, seed=77):
        assert s.positions.shape == (4000, 2)
        np.testing.assert_array_equal(s.root, np.arange(4000))
        final[s.t] = s.positions
    x = final[t_max][:, 0]
    se_mean = x.std(ddof=1) / math.sqrt(x.size)
    assert abs(x.mean()) <= 4 * se_mean
    v = x**2
    se_var = v.std(ddof=1) / math.sqrt(v.size)
    assert abs(v.mean() - t_max) <= 4 * se_var


# ------------------------------------------------------------ hash quality

# Each check is a 4-SE band at a fixed seed.  Doubling runs put child i of
# generation t under parent i // 2, so displacements line up by index.


def _doubling_generations(t_max, d, seed):
    cfg = SimConfig(d=d, pmf=(0.0, 0.0, 1.0), seed=seed, t_max=t_max, test_mode=True,
                    snapshot_times=(t_max - 2, t_max - 1, t_max))
    return sim.run(cfg)


def _assert_uncorrelated(x, y):
    r = np.corrcoef(x, y)[0, 1]
    assert abs(r) <= 4 / math.sqrt(x.size), r


def _assert_uniform(u, what):
    n = u.size
    assert abs(u.mean() - 0.5) <= 4 * math.sqrt(1 / 12 / n), what
    # Var (u - 1/2)^2 = 1/80 - 1/144 = 1/180
    assert abs(((u - 0.5) ** 2).mean() - 1 / 12) <= 4 * math.sqrt(1 / 180 / n), what


def test_draws_are_uniform_and_uncorrelated_across_purposes():
    from scipy.special import ndtr
    seed = 101
    _, parent, child = _doubling_generations(17, 3, seed)
    z = child.positions - np.repeat(parent.positions, 2, axis=0)
    # The offspring uniforms of the children, and the counts they give
    # under a law of eight equally likely outcomes.
    key = sampler._key(seed, sampler._TAG_OFFSPRING)
    _assert_uniform(sampler._u01(sampler._mix(child.id_hi ^ child.id_lo ^ key)), "offspring")
    law = OffspringLaw((0.125,) * 8, test_mode=True)
    draws = [sim._offspring_counts(law, seed, child.id_hi, child.id_lo)]
    for j in range(3):
        _assert_uniform(ndtr(z[:, j]), f"axis {j}")
        draws.append(z[:, j])
    for i, a in enumerate(draws):
        for b in draws[i + 1:]:
            _assert_uncorrelated(a, b)


@pytest.mark.parametrize("power", [1, 2], ids=["z", "z^2"])
def test_displacements_of_siblings_and_of_parent_and_child_are_uncorrelated(power):
    grand, parent, child = _doubling_generations(16, 2, 202)
    z_child = child.positions - np.repeat(parent.positions, 2, axis=0)
    z_parent = parent.positions - np.repeat(grand.positions, 2, axis=0)
    for j in range(2):
        first, second = z_child[0::2, j], z_child[1::2, j]
        _assert_uncorrelated(first ** power, second ** power)
        # one child per parent, so the pairs are independent
        _assert_uncorrelated(z_parent[:, j] ** power, first ** power)


@pytest.mark.parametrize("outcomes", [2, 3, 9, 33])
def test_offspring_counts_are_a_binary_search_also_at_the_cut_points(outcomes):
    seed = 31
    hi, lo = sampler.root_ids(7, 2 * B + 5)
    u = sampler._u01(sampler._mix(hi ^ lo ^ sampler._key(seed, sampler._TAG_OFFSPRING)))
    # Cut points at the first uniforms: multiples of 2^-53, so the pmf
    # entries and their running sums are exact.
    cuts = np.sort(u[:outcomes - 1])
    law = OffspringLaw(tuple(np.diff(cuts, prepend=0.0, append=1.0)), test_mode=True)
    np.testing.assert_array_equal(law._cumulative[:-1], cuts)
    counts = sim._offspring_counts(law, seed, hi, lo)
    np.testing.assert_array_equal(counts, np.searchsorted(law._cumulative, u, side="right"))
    assert sorted(counts[:outcomes - 1]) == list(range(1, outcomes))


@pytest.mark.parametrize("pmf", [(1.0,), (0.0, 1.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0),
                                 (0.0, 1.0, 0.0, 0.0)])
def test_point_mass_laws_draw_their_count_through_the_cut_points(pmf):
    # Cut points 0.0 up to l and 1.0 after it, against uniforms strictly
    # inside (0, 1): every parent draws l, with no path of its own.
    ell = pmf.index(1.0)
    law = OffspringLaw(pmf, test_mode=True)
    hi, lo = sampler.root_ids(19, 2 * B + 5)
    for seed in (0, 1, 2**64 - 1):
        assert set(sim._offspring_counts(law, seed, hi, lo).tolist()) == {ell}
    s = sim.step(Snapshot(0, np.zeros((2 * B + 5, 2)), hi, lo), law, 5)
    assert s.n == ell * (2 * B + 5)


def test_ids_and_draw_keys_of_a_million_children_are_distinct():
    s = _doubling_generations(20, 1, 404)[-1]
    assert s.n == 1 << 20
    order = np.lexsort((s.id_lo, s.id_hi))
    hi, lo = s.id_hi[order], s.id_lo[order]
    assert not np.any((hi[1:] == hi[:-1]) & (lo[1:] == lo[:-1]))
    assert np.unique(s.id_hi ^ s.id_lo).size == s.n


# ------------------------------------------------------- inverse normal CDF


def _midpoints(k):
    """The sampler's uniforms (k + 1/2) / 2^52 for top-52-bit values k."""
    return (np.asarray(k, dtype=np.float64) + 0.5) * 2.0**-52


# The 10^5 smallest and largest, which hold the edge of the far tails
# (u = e^-25 from 0 or 1, k = 62546), and 2000 each side of the edges of
# the centre (u = 0.075 and 0.925).
_EDGES = np.concatenate([np.arange(10**5), 337769972052787 + np.arange(-1000, 1000)])
_ENDS = _midpoints(np.concatenate([_EDGES, (1 << 52) - 1 - _EDGES]))


def test_ndtri_is_within_2e_15_of_scipy():
    from scipy.special import ndtri
    k = np.random.default_rng(14).integers(0, 1 << 52, size=1 << 20, dtype=np.uint64)
    u = np.concatenate([_midpoints(k), _ENDS])
    with np.errstate(all="raise"):
        got = sampler._ndtri(u.copy())
    want = ndtri(u)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 2e-15


def test_ndtri_is_antisymmetric_bit_for_bit():
    k = np.random.default_rng(15).integers(0, 1 << 52, size=1 << 16, dtype=np.uint64)
    u = np.concatenate([_midpoints(k), _ENDS]).reshape(2, -1)
    np.testing.assert_array_equal(sampler._ndtri(1.0 - u).view(np.uint64),
                                  (-sampler._ndtri(u)).view(np.uint64))


# Pins the stream: k of the midpoint, and the float's bits.  Both tail
# branches, both sides of each edge, and the centre.
_NDTRI_PINS = [
    (0, "-0x1.06b48528cea51p+3"),
    (62545, "-0x1.aa1b1e6eab81fp+2"),  # s = 5.000000, far tail
    (62546, "-0x1.aa1b1492d018dp+2"),  # s = 4.999999
    (1000000000, "-0x1.43231838a6e8ep+2"),
    (337769972052786, "-0x1.7085226d3e528p+0"),  # tail
    (337769972052787, "-0x1.7085226d3e521p+0"),  # centre
    (2251799813685247, "-0x1.40d931ff62707p-52"),
    (2351799813685248, "0x1.c8304e4f62900p-5"),
    (4165829655317709, "0x1.7085226d3e528p+0"),
    (4503599627370495, "0x1.06b48528cea51p+3"),
]


def test_ndtri_pinned_bits():
    k, bits = zip(*_NDTRI_PINS)
    assert [float(z).hex() for z in sampler._ndtri(_midpoints(k))] == list(bits)


# ------------------------------------------------------------------ file IO


def test_snapshot_file_round_trip(tmp_path):
    cfg = SimConfig(d=3, pmf=(0.25, 0.25, 0.5), seed=5150, t_max=4,
                    snapshot_times=(0, 2, 4))
    out = tmp_path / "snaps.jsonl"
    written = sim.run(cfg, out=str(out))
    kept = sim.run(cfg)
    assert written == [(s.t, s.n) for s in kept]
    header, snaps = sim.read_snapshot_file(str(out))
    snaps = sim.replay_ids(header, snaps)
    assert header["d"] == 3
    assert header["pmf"] == [0.25, 0.25, 0.5]
    assert header["seed"] == 5150
    assert header["sampler"] == sim.SAMPLER_NAME == "splitmix64-as241-v4"
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
    snaps = sim.replay_ids(*sim.read_snapshot_file(str(out)))
    assert [(s.t, s.n, s.d) for s in snaps] == [(0, 1, 2), (1, 0, 2), (2, 0, 2)]
    assert all(s.has_ids for s in snaps)


@pytest.mark.parametrize("d", [1, 2])
def test_snapshot_read_from_file_advances_like_in_memory(tmp_path, d):
    cfg = SimConfig(d=d, pmf=(0.0, 0.5, 0.5), seed=2718, t_max=20,
                    snapshot_times=(15, 20))
    out = tmp_path / "run.snap"
    sim.run(cfg, out=str(out))
    kept = sim.run(cfg)
    snaps = sim.replay_ids(*sim.read_snapshot_file(str(out)))
    s = snaps[0]
    assert s.t == 15
    for _ in range(5):
        s = sim.step(s, cfg.law, cfg.seed)
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
)
def test_snapshot_file_is_bit_exact(tmp_path_factory, data, t, n, d):
    # st.floats() covers -0.0, subnormals, +-max, infinities and NaNs
    pos = data.draw(hnp.arrays(np.float64, (n, d), elements=st.floats()))
    snap = Snapshot(t=t, positions=pos)
    out = tmp_path_factory.mktemp("bitexact") / "s.snap"
    with sim.SnapshotWriter(str(out), d=d, pmf=(0.0, 1.0), seed=1) as w:
        w.write(snap)
        assert w.end(t) == n
    _, (back,) = sim.read_snapshot_file(str(out))
    assert back.t == t
    assert back.positions.shape == (n, d)
    assert back.positions.tobytes() == pos.tobytes()
    assert not back.has_ids


def test_read_rejects_garbage(tmp_path, monkeypatch):
    p = tmp_path / "bad.jsonl"
    p.write_text("not json\n")
    with pytest.raises(ValidationError):
        sim.read_snapshot_file(str(p))
    p.write_text('{"type":"part"}\n')
    with pytest.raises(ValidationError):
        sim.read_snapshot_file(str(p))
    p.write_text('{"type":"header","version":99,"d":1,"pmf":[1.0],"seed":0}\n')
    with pytest.raises(ValidationError):
        sim.read_snapshot_file(str(p))

    p.write_bytes(b"\xff\xfe\n")
    with pytest.raises(ValidationError, match="record 0"):
        sim.read_snapshot_file(str(p))
    # files of format version 1 (JSON positions) and 2 (one record per
    # snapshot) ask for a re-run
    for old in ['{"type":"header","version":1,"d":1,"pmf":[0.0,1.0],"seed":0}\n'
                '{"type":"snapshot","t":0,"n":1,"positions":[0.0]}\n',
                '{"type":"header","version":2,"d":1,"pmf":[0.0,1.0],"seed":0}\n'
                '{"type":"snapshot","t":0,"n":0,"ids":true,"nbytes":0,"crc32":0}\n']:
        p.write_text(old)
        with pytest.raises(ValidationError, match="re-run `simulate`"):
            sim.read_snapshot_file(str(p))

    # A d=2 doubling run, in parts of 2 parents: records 1 and 2
    # are the part (n=2) and end of t=1, records 3 and 4 the two parts
    # (n=4 each) of t=3, and record 5 its end.
    monkeypatch.setattr(sim, "_RUN_CHUNK", 2)
    cfg = SimConfig(d=2, pmf=(0.0, 0.0, 1.0), seed=8, t_max=3, test_mode=True,
                    snapshot_times=(1, 3))
    good_path = tmp_path / "good.snap"
    sim.run(cfg, out=str(good_path))
    good = good_path.read_bytes()
    at, recs = zip(*oracles.snapshot_records(good))
    assert [(r["type"], r["t"], r["n"]) for r in recs[1:]] == [
        ("part", 1, 2), ("end", 1, 2), ("part", 3, 4), ("part", 3, 4), ("end", 3, 8)]
    first_bad = [
        (b'"t":1,', b'"t":-1,', "integers >= 0"),
        (b'"n":2,', b'"n":-2,', "integers >= 0"),
        (b'"nbytes":32,', b'"nbytes":31,', "nbytes=31"),
        # a damaged n with a matching nbytes must not allocate 16 TB
        (b'"n":2,"nbytes":32,', b'"n":1000000000000,"nbytes":16000000000000,', "truncated"),
    ]
    for old, new, msg in first_bad:
        p.write_bytes(good.replace(old, new, 1))
        with pytest.raises(ValidationError, match=msg) as info:
            sim.read_snapshot_file(str(p))
        assert "record 1" in str(info.value)
        assert "last complete snapshot: none" in str(info.value)
    flipped = bytearray(good)
    flipped[at[5] - 1] ^= 0x01  # the last data byte of record 4
    fourth_bad = [
        (good[:at[5] - 5], "truncated"),
        (good[:at[4] + 10], "truncated"),
        (bytes(flipped), "crc32 mismatch"),
        (good[:at[4]] + b"\xff{not json}\n", "not a JSON record"),
    ]
    for content, msg in fourth_bad:
        p.write_bytes(content)
        with pytest.raises(ValidationError, match=msg) as info:
            sim.read_snapshot_file(str(p))
        assert "record 4" in str(info.value)
        assert "last complete snapshot: t=1" in str(info.value)
    # a file cut at a record boundary is a valid partial result: the parts
    # of t=3 that no end record closes are dropped
    for cut in (at[3], at[4], at[5]):
        p.write_bytes(good[:cut])
        _, snaps = sim.read_snapshot_file(str(p))
        assert [(s.t, s.n) for s in snaps] == [(1, 2)]
    # an end record with no parts is an empty snapshot
    p.write_bytes(good + b'{"type":"end","t":5,"n":0}\n')
    _, snaps = sim.read_snapshot_file(str(p))
    assert [(s.t, s.n, s.d, s.has_ids) for s in snaps][1:] == [(3, 8, 2, False), (5, 0, 2, False)]
    # ... and must count the rows of its parts, and follow the last end
    ends_bad = [
        (b'{"type":"end","t":5,"n":2}\n', "parts of t=5 hold 0"),
        (b'{"type":"end","t":3,"n":0}\n', "does not follow the last end"),
        (good[at[3]:at[4]], "does not follow the last end"),  # a part of t=3
    ]
    for extra, msg in ends_bad:
        p.write_bytes(good + extra)
        with pytest.raises(ValidationError, match=msg) as info:
            sim.read_snapshot_file(str(p))
        assert "record 6" in str(info.value)
        assert "last complete snapshot: t=3" in str(info.value)


def test_read_returns_only_the_snapshot_asked_for(tmp_path):
    # t=0's one part spans two blocks of the 1 MiB buffer that checks it
    # when it is not returned.
    rng = np.random.default_rng(5)
    big, small = rng.standard_normal((150_000, 1)), rng.standard_normal((3, 1))
    out = tmp_path / "two.snap"
    with sim.SnapshotWriter(str(out), d=1, pmf=(0.0, 1.0), seed=0) as w:
        for t, pos in ((0, big), (2, small)):
            w.write(Snapshot(t=t, positions=pos))
            w.end(t)
    for only, want in ((0, big), (2, small), ("last", small)):
        _, (s,) = sim.read_snapshot_file(str(out), only=only)
        assert s.positions.tobytes() == want.tobytes()
    with pytest.raises(ValidationError, match=r"^no snapshot at t=1; file holds t in \[0, 2\]$"):
        sim.read_snapshot_file(str(out), only=1)
    at = [offset for offset, _ in oracles.snapshot_records(out.read_bytes())]
    damaged = bytearray(out.read_bytes())
    damaged[at[2] - 1] ^= 0x01  # the last data byte of t=0, in its second block
    out.write_bytes(bytes(damaged))
    with pytest.raises(ValidationError, match="record 1: crc32 mismatch"):
        sim.read_snapshot_file(str(out), only=2)


def test_read_asks_to_rerun_a_version_3_file(tmp_path):
    # Version 3 stored each part's lineage ids after its positions.
    data = np.zeros(3).tobytes()
    p = tmp_path / "v3.snap"
    p.write_bytes(b'{"type":"header","version":3,"d":1,"pmf":[0.0,1.0],"seed":0,'
                  b'"sampler":"splitmix64-as241-v4"}\n'
                  b'{"type":"part","t":0,"n":1,"ids":true,"nbytes":24,"crc32":%d}\n'
                  % zlib.crc32(data) + data + b'{"type":"end","t":0,"n":1}\n')
    with pytest.raises(ValidationError, match="re-run `simulate`") as info:
        sim.read_snapshot_file(str(p))
    assert "record 0" in str(info.value)


def test_step_refusal_names_the_replay():
    s = Snapshot(t=0, positions=np.zeros((1, 1)))
    with pytest.raises(ValidationError, match="replay_ids"):
        sim.step(s, OffspringLaw((0.0, 1.0), test_mode=True), 0)


def test_replay_refuses_a_foreign_sampler(tmp_path):
    cfg = SimConfig(d=1, pmf=(0.0, 0.5, 0.5), seed=3, t_max=4)
    out = tmp_path / "run.snap"
    sim.run(cfg, out=str(out))
    out.write_bytes(out.read_bytes().replace(b"-v4", b"-v3", 1))
    header, snaps = sim.read_snapshot_file(str(out))
    assert header["sampler"] == "splitmix64-as241-v3"
    with pytest.raises(ValidationError, match="'splitmix64-as241-v3' is not"):
        sim.replay_ids(header, snaps)


def test_replay_refuses_a_snapshot_that_is_not_the_runs(tmp_path):
    # A doubling run holds 4 particles at t=2 and 8 at t=3, not 7.
    out = tmp_path / "odd.snap"
    with sim.SnapshotWriter(str(out), d=1, pmf=(0.0, 0.0, 1.0), seed=0) as w:
        for t, n in ((2, 4), (3, 7)):
            w.write(Snapshot(t=t, positions=np.zeros((n, 1))))
            w.end(t)
    header, snaps = sim.read_snapshot_file(str(out))
    with pytest.raises(ValidationError, match="t=3 holds 7 particles, but .* makes 8"):
        sim.replay_ids(header, snaps)
    assert [(s.t, s.n, s.has_ids) for s in sim.replay_ids(header, snaps[:1])] == [(2, 4, True)]


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
    empty = Snapshot(6, np.empty((0, 2)))
    union = rg.UnionRegion((box, rg.Ball((3.0, 0.0), 1.0)))
    assert [sim.count(empty, a) for a in (box, rg.Ball((0.0, 0.0), 1.0), union)] == [0, 0, 0]


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
    # The cap counts the particles of all replicas together.
    law = OffspringLaw((0.0, 0.0, 1.0), test_mode=True)
    with pytest.raises(PopulationCapError):
        list(oracles.whole_batch(law, 1, 100, 10, seed=4, population_cap=500))
    with pytest.raises(PopulationCapError):
        mg.ensemble_v_matrix(law, 1, [(0,)], 10, 100, seed=4, population_cap=500)


# ---------------------------------------------------- one generation path

# Seed 18 survives to t=10 under the branching law; seed 5 dies out at t=3.
RUNS = {
    "branching": SimConfig(d=2, pmf=(0.25, 0.25, 0.5), seed=18, t_max=10,
                           snapshot_times=tuple(range(11))),
    "branching-extinct": SimConfig(d=2, pmf=(0.25, 0.25, 0.5), seed=5, t_max=10,
                                   snapshot_times=tuple(range(11))),
    "doubling": SimConfig(d=2, pmf=(0.0, 0.0, 1.0), seed=17, t_max=8,
                          snapshot_times=tuple(range(9)), test_mode=True),
}


@pytest.mark.parametrize("name", ["branching", "doubling"])
def test_one_replica_ensemble_is_the_run(name):
    cfg = RUNS[name]
    snaps = sim.run(cfg)
    assert snaps[-1].n > 8
    states = list(oracles.whole_batch(cfg.law, cfg.d, 1, cfg.t_max, cfg.seed))
    assert [b.t for b in states] == [s.t for s in snaps]
    for b, s in zip(states, snaps):
        for field in ("positions", "id_hi", "id_lo"):
            assert getattr(b, field).tobytes() == getattr(s, field).tobytes()
        assert b.root.tolist() == [0] * s.n




# ------------------------------------------------------- depth-first runs

# Runs whose generations span 3 or more chunks, as (config, parents per
# chunk, or None for the package's): the last generations of the wide run
# span 3, 4 and 5 chunks, and the critical run grows to 14 particles (5
# chunks of 3) and dies out at t=26.
CHUNKED_RUNS = {
    "wide-in-chunks": (SimConfig(d=2, pmf=(0.0, 0.5, 0.5), seed=1, t_max=30), None),
    "extinct-in-chunks": (SimConfig(d=2, pmf=(0.5, 0.0, 0.5), seed=297, t_max=40,
                                    test_mode=True), 3),
    "doubling-in-chunks": (SimConfig(d=1, pmf=(0.0, 0.0, 1.0), seed=5, t_max=17,
                                     test_mode=True), None),
    "doubling-in-small-chunks": (SimConfig(d=1, pmf=(0.0, 0.0, 1.0), seed=5, t_max=9,
                                           test_mode=True), 3),
}


def _walked(name, monkeypatch) -> SimConfig:
    """The run of RUNS or CHUNKED_RUNS called name, with its chunk set."""
    cfg, chunk = CHUNKED_RUNS[name] if name in CHUNKED_RUNS else (RUNS[name], None)
    if chunk is not None:
        monkeypatch.setattr(sim, "_RUN_CHUNK", chunk)
    return cfg


@pytest.mark.parametrize("name", sorted([*RUNS, *CHUNKED_RUNS]))
def test_radius_profile_is_max_radius_until_extinction(name, monkeypatch):
    cfg = _walked(name, monkeypatch)
    snaps = oracles.whole_generation_run(cfg)
    alive = [s for s in snaps if s.n > 0]
    assert [s.t for s in alive] == list(range(len(alive)))
    if name in CHUNKED_RUNS:
        assert max(s.n for s in snaps) >= 3 * sim._RUN_CHUNK
    assert sim.radius_profile(cfg) == [(s.t, sim.max_radius(s)) for s in alive]


@pytest.mark.parametrize("name", sorted([*RUNS, *CHUNKED_RUNS]))
def test_run_is_the_whole_generation_run(name, monkeypatch, tmp_path):
    # In memory the parts are joined; in the file each part is its own
    # record, and the reader joins them.
    cfg = _walked(name, monkeypatch)
    cfg = dataclasses.replace(cfg, snapshot_times=tuple(range(cfg.t_max + 1)))
    want = oracles.whole_generation_run(cfg)
    out = tmp_path / "run.snap"
    assert sim.run(cfg, out=str(out)) == [(s.t, s.n) for s in want]
    for got in (sim.run(cfg), sim.replay_ids(*sim.read_snapshot_file(str(out)))):
        assert [s.t for s in got] == [s.t for s in want]
        for g, w in zip(got, want):
            for field in ("positions", "id_hi", "id_lo"):
                assert getattr(g, field).tobytes() == getattr(w, field).tobytes()


def _cap_error(build):
    """The PopulationCapError that build() raises, or None."""
    try:
        build()
    except PopulationCapError as exc:
        return exc
    return None


def _caps_as_the_whole_run(walk, chunk, t_max, monkeypatch):
    # Doubling: generation t holds 2^t particles.  Walked depth first, an
    # abort can be found in a later generation than the first over the cap,
    # with the count made so far, but only when the whole run aborts.
    if chunk is not None:
        monkeypatch.setattr(sim, "_RUN_CHUNK", chunk)
    for t in range(1, t_max + 1):
        for cap in (2**t - 1, 2**t):
            cfg = SimConfig(d=1, pmf=(0.0, 0.0, 1.0), seed=7, t_max=t_max,
                            population_cap=cap, test_mode=True)
            want = _cap_error(lambda: oracles.whole_generation_run(cfg))
            got = _cap_error(lambda: walk(cfg))
            assert (got is None) == (want is None) == (cap >= 2**t_max), cap
            if got is not None:
                assert got.cap == cap and got.t >= want.t
                assert cap < got.population <= 2**got.t


@pytest.mark.parametrize("chunk, t_max", [(None, 17), (3, 8)])
def test_radius_profile_caps_as_the_whole_run(chunk, t_max, monkeypatch):
    _caps_as_the_whole_run(sim.radius_profile, chunk, t_max, monkeypatch)


@pytest.mark.parametrize("chunk, t_max", [(None, 17), (3, 8)])
def test_run_caps_as_the_whole_run(chunk, t_max, monkeypatch, tmp_path):
    _caps_as_the_whole_run(sim.run, chunk, t_max, monkeypatch)
    _caps_as_the_whole_run(lambda cfg: sim.run(cfg, out=str(tmp_path / "cap.snap")),
                           chunk, t_max, monkeypatch)


def test_ensemble_v_matrix_caps_the_whole_batch():
    # Doubling replicas: generation t holds n 2^t particles, in parts of
    # BLOCK parents from t=2 on.  Walked depth first, an abort can be found
    # in a later generation than the first over the cap, with the count
    # made so far, but only when the whole batch aborts.
    law = OffspringLaw((0.0, 0.0, 1.0), test_mode=True)
    n, t_max = sim.BLOCK // 2 + 3, 4
    for t in range(1, t_max + 1):
        for cap in (n * 2**t - 1, n * 2**t):
            want = _cap_error(lambda: list(oracles.whole_batch(
                law, 1, n, t_max, seed=6, population_cap=cap)))
            got = _cap_error(lambda: mg.ensemble_v_matrix(
                law, 1, [(0,), (1,)], t_max, n, seed=6, population_cap=cap))
            assert (got is None) == (want is None) == (cap >= n * 2**t_max), cap
            if got is not None:
                assert got.cap == cap and got.t >= want.t
                assert cap < got.population <= n * 2**got.t


def _traced_peak(build) -> int:
    """Peak of the memory that tracemalloc sees while build() runs, above
    what was allocated before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_radius_profile_memory_is_bounded_in_chunks(monkeypatch):
    # Depth first, a doubling run holds about one chunk per generation past
    # its first full chunk, so its peak grows by about one chunk each time
    # the last generation doubles; whole generations hold the last two, and
    # their peak doubles.
    chunk = sim._RUN_CHUNK * (8 + 16)  # bytes of one chunk of particles at d=1

    def peak(cfg):
        return _traced_peak(lambda: sim.radius_profile(cfg))

    runs = {t: SimConfig(d=1, pmf=(0.0, 0.0, 1.0), seed=5, t_max=t, test_mode=True)
            for t in (18, 19, 20)}  # last generation of 8, 16 and 32 chunks
    for cfg in runs.values():
        assert peak(cfg) <= 14 * chunk, cfg.t_max
    monkeypatch.setattr(sim, "_RUN_CHUNK", 2**62)
    assert peak(runs[19]) > 28 * chunk


def test_radius_profile_memory_grows_one_chunk_per_doubling():
    # Only rows still to step wait on the stack: a step's children less the
    # chunk stepped first, so at most one chunk per generation.  A doubling
    # run's peak then grows by about one chunk each time its last generation
    # doubles.
    chunk = sim._RUN_CHUNK * (8 + 16)  # bytes of one chunk of particles at d=1
    peaks = [_traced_peak(lambda: sim.radius_profile(
        SimConfig(d=1, pmf=(0.0, 0.0, 1.0), seed=5, t_max=t, test_mode=True)))
        for t in (18, 19, 20, 21)]  # last generation of 8 to 64 chunks
    growth = [(b - a) / chunk for a, b in zip(peaks, peaks[1:])]
    assert all(g <= 1.2 for g in growth), growth


def test_run_to_a_file_memory_is_bounded_in_chunks(monkeypatch, tmp_path):
    # Writing each part as it is made, a doubling run holds about one chunk
    # per generation, so its peak grows by about one chunk each time the
    # last generation doubles; whole generations double it.
    chunk = sim._RUN_CHUNK * (8 + 16)  # bytes of one chunk of particles at d=1
    out = str(tmp_path / "run.snap")
    runs = {t: SimConfig(d=1, pmf=(0.0, 0.0, 1.0), seed=5, t_max=t, test_mode=True)
            for t in (18, 19, 20)}  # last generation of 8, 16 and 32 chunks
    peaks = [_traced_peak(lambda: sim.run(cfg, out=out)) for cfg in runs.values()]
    assert max(peaks) <= 14 * chunk, peaks
    assert all(0 < b - a <= 3 * chunk for a, b in zip(peaks, peaks[1:])), peaks
    monkeypatch.setattr(sim, "_RUN_CHUNK", 2**62)
    assert _traced_peak(lambda: sim.run(runs[19], out=out)) > 24 * chunk


def test_read_allocates_the_snapshots_once(monkeypatch, tmp_path):
    # t=15 is 16 parts of 2048 rows; joining them after reading would hold
    # its 0.5 MB twice.
    monkeypatch.setattr(sim, "_RUN_CHUNK", 1024)
    cfg = SimConfig(d=2, pmf=(0.0, 0.0, 1.0), seed=5, t_max=15, test_mode=True,
                    snapshot_times=(10, 15))
    out = str(tmp_path / "run.snap")
    sim.run(cfg, out=out)
    snaps = []
    peak = _traced_peak(lambda: snaps.extend(sim.read_snapshot_file(out)[1]))
    data = sum(s.positions.nbytes for s in snaps)
    assert data == 2**15 * 16 + 2**10 * 16
    assert peak <= data + 2**16, peak - data
    # Asked for t=15 only, it allocates t=15's positions and one buffer of
    # 1 MiB for the crc32 of t=10's parts, and never t=10's positions.
    shapes, empty = [], np.empty
    monkeypatch.setattr(np, "empty", lambda shape, *a, **k: shapes.append(shape) or
                        empty(shape, *a, **k))
    snaps = []
    peak = _traced_peak(lambda: snaps.extend(sim.read_snapshot_file(out, only=15)[1]))
    assert [(s.t, s.positions.nbytes) for s in snaps] == [(15, 2**15 * 16)]
    assert peak <= 2**15 * 16 + 2**20 + 2**16, peak - 2**15 * 16
    assert (2**15, 2) in shapes and (2**10, 2) not in shapes, shapes


def test_run_in_memory_holds_the_generation_once(monkeypatch):
    # t=15 is 16 parts of 2048 rows.  Joined as it is made, it is held
    # once, besides what the walk itself holds and one part; joining the
    # parts at the end would hold its 1 MB twice.
    monkeypatch.setattr(sim, "_RUN_CHUNK", 1024)
    cfg = SimConfig(d=2, pmf=(0.0, 0.0, 1.0), seed=5, t_max=15, test_mode=True)
    walk = _traced_peak(lambda: sim.radius_profile(cfg))
    snaps = []
    peak = _traced_peak(lambda: snaps.extend(sim.run(cfg)))
    data = snaps[0].positions.nbytes + snaps[0].id_hi.nbytes + snaps[0].id_lo.nbytes
    assert data == 2**15 * 32
    assert peak <= data + walk + 2048 * 32, (peak - data, walk)


# ------------------------------------------------------------ golden streams

# sha256 of the positions, id_hi and id_lo bytes of each snapshot of a run,
# in order, under SAMPLER_NAME splitmix64-as241-v4, as (config, parents per
# part or None, digest); the file's snapshots take their ids from the
# replay.  A stream change without a SAMPLER_NAME bump fails here.  The d=3 run's last generations span 9 to 19 parts of 5 parents.
GOLDEN = {
    "d2": (SimConfig(d=2, pmf=(0.0, 0.5, 0.5), seed=2024, t_max=12,
                     snapshot_times=(0, 6, 12)), None,
           "64884c9ad41bdc4c42a9e401e84e1fd92cb0389bf92b425567aec3e5254a150d"),
    "d3-in-parts": (SimConfig(d=3, pmf=(0.0, 0.5, 0.5), seed=77, t_max=11,
                              snapshot_times=(4, 9, 10, 11)), 5,
                    "9228adeafeedce5db486157bfcece3a39c3ca3be3a2a91060fcc912d663aca48"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_streams(name, monkeypatch, tmp_path):
    cfg, chunk, digest = GOLDEN[name]
    if chunk is not None:
        monkeypatch.setattr(sim, "_RUN_CHUNK", chunk)
    assert sim.SAMPLER_NAME == "splitmix64-as241-v4"
    out = str(tmp_path / "run.snap")
    sim.run(cfg, out=out)
    for snaps in (sim.run(cfg), sim.replay_ids(*sim.read_snapshot_file(out))):
        h = hashlib.sha256()
        for s in snaps:
            for a in (s.positions, s.id_hi, s.id_lo):
                h.update(a.astype(a.dtype.newbyteorder("<"), copy=False).tobytes())
        assert h.hexdigest() == digest
