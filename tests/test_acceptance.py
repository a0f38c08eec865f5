"""Acceptance gate: one test per release criterion.

Every ``test_aNN_*`` function is one criterion; its ``pytest -v`` line is
the pass/fail record.  Tolerances are pinned in the assertions.  The
statistical criteria use frozen seeds and four-standard-error bands
(per-assertion false-failure rate about 6e-5); the deterministic ones use
fixed relative tolerances.  Wall-clock budgets are asserted where a
criterion includes one.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.special import eval_hermite

from branchwiener import expansion as xp
from branchwiener import hermite as hm
from branchwiener import inference as inf
from branchwiener import kernel_expansion as kx
from branchwiener import martingales as mg
from branchwiener import multiindex as mi
from branchwiener import regions as rg
from branchwiener import simulator as sim
from branchwiener.errors import ConditioningError

import oracles
from conftest import ALPHAS_1D, BINARY_PMF


def _close(a: float, b: float, rel: float) -> None:
    assert abs(a - b) <= rel * max(1.0, abs(a), abs(b)), (a, b)


def _band(slope: float, target: float, width: float = 0.5) -> None:
    assert target - width <= slope <= target + width, (slope, target)


def _within_4se(sample: np.ndarray, target: float) -> None:
    mean = float(np.mean(sample))
    se = float(np.std(sample, ddof=1)) / math.sqrt(sample.size)
    if se == 0.0:
        assert mean == target
    else:
        assert abs(mean - target) <= 4.0 * se, (mean, target, se)


# -------------------------------------------------------------------------
# 1. One-dimensional Hermite identities: recurrence agrees with the
#    explicit sum, the classical-polynomial rescaling, the binomial shift,
#    the generating function, the product linearization, and the
#    even-degree value at zero, all to 1e-9 relative, in under 5 s.
# -------------------------------------------------------------------------


def test_a01_hermite_identity_battery():
    t0 = time.monotonic()
    XS = (-3.0, -1.2, 0.0, 0.7, 2.5)
    TS = (0.5, 1.0, 2.0, 5.0)
    for x in XS:
        for t in TS:
            for n in range(9):
                rec = hm.hermite_1d(n, x, t)
                _close(rec, oracles.hermite_sum_formula(n, x, t), 1e-9)
                classical = (t / 2.0) ** (n / 2.0) * float(
                    eval_hermite(n, x / math.sqrt(2.0 * t))
                )
                _close(rec, classical, 1e-9)
                for y in (-1.1, 0.6):
                    _close(
                        oracles.addition_shift(n, x, y, t),
                        hm.hermite_1d(n, x + y, t),
                        1e-9,
                    )
            for s in (0.4, -0.9):
                _close(
                    oracles.generating_sum(s, x, t, 40),
                    oracles.generating_closed_form(s, x, t),
                    1e-9,
                )
            for n, m in ((2, 3), (4, 4), (5, 2)):
                _close(
                    oracles.product_linearize(n, m, x, t),
                    hm.hermite_1d(n, x, t) * hm.hermite_1d(m, x, t),
                    1e-9,
                )
    for t in TS:
        for half in range(7):
            _close(
                hm.hermite_1d(2 * half, 0.0, t),
                oracles.hermite_even_at_zero(half, t),
                1e-9,
            )
    assert time.monotonic() - t0 < 5.0


# -------------------------------------------------------------------------
# 2. At the origin the scaled order-60 truncation matches the closed form
#    (1 - t/T)^(-d/2) to 1e-10 relative for t/T up to 0.45, in under 1 s.
# -------------------------------------------------------------------------


def test_a02_origin_series_closed_form():
    t0 = time.monotonic()
    T = 10.0
    for d in (1, 2):
        for ratio in (0.05, 0.2, 0.45):
            t = ratio * T
            params = kx.KernelExpansionParams(d=d, T=T, t=t, k=60)
            scaled = (2.0 * math.pi * T) ** (d / 2.0) * kx.truncated_kernel(
                params, [0.0] * d
            )
            _close(scaled, (1.0 - t / T) ** (-d / 2.0), 1e-10)
    assert time.monotonic() - t0 < 1.0


# -------------------------------------------------------------------------
# 3. Scaled truncation error decays like T^-(k+1): fitted log-log slope
#    within +-0.5 of -(k+1) for d in {1,2}, t in {1,2}, k <= 2 over
#    T in {64,...,512}; the raw (unscaled) error adds the d/2 prefactor
#    roll-off.  Under 5 s.
# -------------------------------------------------------------------------


def test_a03_truncation_slope_scan():
    t0 = time.monotonic()
    T_grid = [64.0, 128.0, 256.0, 512.0]
    for d in (1, 2):
        for t in (1.0, 2.0):
            scan = kx.truncation_error_scan(d, t, [0.7] * d, 2, T_grid)
            for k in (0, 1, 2):
                _band(scan.slopes[k], -(k + 1))
    raw = kx.truncation_error_scan(1, 1.0, [0.7], 2, T_grid, scaled=False)
    for k in (0, 1, 2):
        _band(raw.slopes[k], -(k + 1) - 0.5)
    assert time.monotonic() - t0 < 5.0


# -------------------------------------------------------------------------
# 4. The shifted two-point truncation equals the one-point truncation at
#    the displacement, |difference| <= 1e-10, over 100 random cases with
#    d <= 3 and k <= 3.
# -------------------------------------------------------------------------


def test_a04_shifted_equals_displaced():
    rng = np.random.default_rng(20260825)
    for case in range(100):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(0, 4))
        T = float(rng.uniform(20.0, 200.0))
        t = float(rng.uniform(0.0, T / 4.0))
        x = rng.normal(0.0, 0.8, size=d)
        y = rng.normal(0.0, 0.8, size=d)
        params = kx.KernelExpansionParams(d=d, T=T, t=t, k=k)
        direct = kx.truncated_kernel(params, y - x)
        shifted = kx.truncated_kernel_shifted(params, x, y)
        assert abs(direct - shifted) <= 1e-10, (case, direct, shifted)


# -------------------------------------------------------------------------
# 5. Against a fixed 1024-particle population at t=3, the plug-in order-k
#    expansion approaches the exact conditional-expectation field with the
#    T^-(k+1) rate: fitted slope within +-0.5 over T in {1e2,1e3,1e4},
#    for d in {1,2} and k <= 2.  Under 30 s.
# -------------------------------------------------------------------------


def test_a05_plugin_tracks_exact_field(merged_1024):
    t0 = time.monotonic()
    T_grid = [1e2, 1e3, 1e4]
    for d in (1, 2):
        snap = merged_1024[d]
        box = rg.Box((0.0,) * d, (1.0,) * d)
        for k in (0, 1, 2):
            errs = []
            for T in T_grid:
                scaled_field = (2.0 * math.pi * T) ** (d / 2.0) * (
                    mg.conditional_expectation_field(snap, box, T, 2.0)
                )
                plugin = xp.plugin_expansion(snap, box, T, k, 2.0)
                errs.append(abs(scaled_field - plugin))
            _band(kx.fit_loglog_slope(T_grid, errs), -(k + 1))
    assert time.monotonic() - t0 < 30.0


# -------------------------------------------------------------------------
# 6. Martingale property of V_alpha(t)/m^t: the ensemble mean stays at its
#    t=0 value (1 for alpha=0, else 0) within 4 standard errors for both
#    offspring laws, alpha order <= 2, t <= 6.  Under 60 s including the
#    shared 20k-replica ensembles.
# -------------------------------------------------------------------------


def test_a06_normalized_mean_is_initial_value(
    binary_law, mixed_law, vmat_binary, vmat_mixed
):
    t0 = time.monotonic()
    for law, vmat in ((binary_law, vmat_binary), (mixed_law, vmat_mixed)):
        m = law.mean
        for alpha in ALPHAS_1D:
            target = 1.0 if sum(alpha) == 0 else 0.0
            mat = vmat[alpha]
            for t in range(mat.shape[1]):
                _within_4se(mat[:, t] / m**t, target)
    assert time.monotonic() - t0 < 60.0


# -------------------------------------------------------------------------
# 7. Second moments: (a) ensemble E[V_alpha(t)^2] matches the recursion
#    oracle within 4 SE for t <= 5 and both laws; (b) for alpha = 0 the
#    recursion equals the Galton-Watson closed form to 1e-10 relative for
#    t <= 10 on three laws.
# -------------------------------------------------------------------------


def test_a07_second_moment_recursion(
    binary_law, mixed_law, vmat_binary, vmat_mixed
):
    for law, vmat in ((binary_law, vmat_binary), (mixed_law, vmat_mixed)):
        for alpha in ALPHAS_1D:
            mat = vmat[alpha]
            for t in range(6):
                _within_4se(
                    mat[:, t] ** 2, mg.second_moment_oracle(alpha, t, law)
                )
    heavy_law = sim.OffspringLaw((0.5, 0.0, 0.0, 0.5))
    for law in (binary_law, mixed_law, heavy_law):
        for t in range(11):
            _close(
                mg.second_moment_oracle((0,), t, law),
                oracles.gw_second_moment(t, law),
                1e-10,
            )


# -------------------------------------------------------------------------
# 8. Against a pure-diffusion ensemble (one particle per replica, d=2,
#    100k replicas): E[H_alpha(W(t), t)^2] = alpha! t^|alpha| within 4 SE
#    for |alpha| <= 3 and t in {1, 2, 5}.
# -------------------------------------------------------------------------


def test_a08_hermite_second_moment_along_diffusion():
    law = sim.OffspringLaw((0.0, 1.0), test_mode=True)
    n_rep = 100_000
    want = {1, 2, 5}
    alphas = [a for n in range(4) for a in mi.enumerate_order(2, n)]
    for t, pos, rep in sim.ensemble_states(law, 2, n_rep, 5, seed=777001):
        if t not in want:
            continue
        assert pos.shape == (n_rep, 2)
        cols = [hm.hermite_table(3, pos[:, i], float(t)) for i in range(2)]
        for alpha in alphas:
            h = cols[0][alpha[0]] * cols[1][alpha[1]]
            target = mi.factorial(alpha) * float(t) ** alpha.order
            _within_4se(h**2, target)


# -------------------------------------------------------------------------
# 9. The order-1 expansion equals the explicit two-term volume/quadratic
#    form to 1e-12 relative over 50 random cases (boxes, balls, unions;
#    d <= 3).
# -------------------------------------------------------------------------


def test_a09_order1_two_term_form():
    rng = np.random.default_rng(424243)
    for case in range(50):
        d = int(rng.integers(1, 4))
        T = float(rng.uniform(30.0, 300.0))
        kind = case % 3
        if kind == 0:
            lower = rng.uniform(-2.0, 0.0, size=d)
            region = rg.Box(lower, lower + rng.uniform(0.5, 2.0, size=d))
        elif kind == 1:
            region = rg.Ball(
                rng.uniform(-1.0, 1.0, size=d), float(rng.uniform(0.5, 1.5))
            )
        else:
            lower = rng.uniform(-2.0, 0.0, size=d)
            upper = lower + rng.uniform(0.5, 2.0, size=d)
            shift = np.zeros(d)
            shift[0] = 10.0
            region = rg.UnionRegion(
                [rg.Box(lower, upper), rg.Box(lower + shift, upper + shift)]
            )
        table = {
            g: float(rng.uniform(-2.0, 2.0)) for g in xp.required_indices(1, d)
        }
        zero = mi.MultiIndex((0,) * d)
        n1 = []
        n2 = 0.0
        for i in range(d):
            e_i = [0] * d
            e_i[i] = 1
            n1.append(table[mi.MultiIndex(e_i)])
            e_i[i] = 2
            n2 += table[mi.MultiIndex(e_i)]
        _close(
            xp.expansion_value(region, T, 1, table),
            xp.theorem_a_form(region, T, table[zero], n1, n2),
            1e-12,
        )


# -------------------------------------------------------------------------
# 10. Coefficient inference over k <= 2, d <= 2: (a) exact synthetic
#     counts round-trip through solve_n to 1e-8 on every identifiable
#     (k, d) via the default layouts at T0=25, and the structurally
#     singular combinations refuse loudly; (b) end-to-end on simulated
#     data (m=1.3, k=2), the T=30 forecast from counts observed at t=25
#     matches the exact conditional-expectation field at t=27 within 4 SE
#     over 200 replicas.
# -------------------------------------------------------------------------


def test_a10_inference_round_trip_and_forecast():
    rng = np.random.default_rng(515151)
    m = 1.3
    # Every (k, d) combination with k <= 2, d <= 2 whose system is
    # identifiable round-trips exactly; the remaining combinations are
    # singular for every set choice (aliased columns) and must refuse
    # loudly instead of best-fitting.
    for k, d in ((0, 1), (1, 1), (2, 1), (0, 2)):
        sets = inf.default_sets(k, d, 1.5)
        system = inf.design_matrix(sets, 25.0, k, d)
        assert system.condition_number <= inf.DEFAULT_CONDITION_THRESHOLD
        true = {g: float(rng.uniform(0.5, 2.0)) for g in system.indices}
        scale = (2.0 * math.pi * 25.0) ** (d / 2.0)
        counts = np.array(
            [
                xp.expansion_value(A, 25.0, k, true) / scale * m**25.0
                for A in sets
            ]
        )
        solved = inf.solve_n(counts, system, m)
        for g, v in true.items():
            assert solved[g] == pytest.approx(v, rel=1e-8, abs=1e-8)
    for k, d in ((1, 2), (2, 2)):
        with pytest.raises(ConditioningError):
            inf.default_sets(k, d, 1.5)

    law = sim.OffspringLaw((0.0, 0.7, 0.3))
    m = law.mean
    n_rep = 200
    sets = inf.default_sets(2, 1, 2.5)
    system = inf.design_matrix(sets, 25.0, 2, 1)
    region = rg.Box((-1.25,), (1.25,))
    counts = np.zeros((len(sets), n_rep))
    fields = np.zeros(n_rep)
    for t, pos, rep in sim.ensemble_states(law, 1, n_rep, 27, seed=31415):
        if t == 25:
            for i, A in enumerate(sets):
                mask = rg.contains(A, pos)
                counts[i] = np.bincount(rep[mask], minlength=n_rep)
        elif t == 27:
            bounds = np.searchsorted(rep, np.arange(n_rep + 1))
            for r in range(n_rep):
                snap = sim.Snapshot(t=27, positions=pos[bounds[r]:bounds[r + 1]])
                fields[r] = mg.conditional_expectation_field(
                    snap, region, 30.0, m
                )
    preds = np.zeros(n_rep)
    for r in range(n_rep):
        table = inf.solve_n(counts[:, r], system, m)
        preds[r] = inf.predict(region, 30.0, table).normalized_density
    # The whole counts->solve->predict pipeline is linear, so the mean of
    # per-replica predictions equals the prediction from mean counts, and
    # the per-replica pairing captures the count/field correlation in SE.
    _within_4se(preds - fields, 0.0)


# -------------------------------------------------------------------------
# 11. A d=3 doubling run to t_max=20 (final generation 2^20 particles)
#     completes in < 5 s wall and < 1 GiB peak memory, and the written
#     snapshot file is byte-identical for 1, 2, and 4 workers.
# -------------------------------------------------------------------------


def test_a11_throughput_and_worker_invariance(tmp_path):
    cfg = {
        "d": 3,
        "pmf": [0.0, 0.0, 1.0],
        "seed": 90210,
        "t_max": 20,
        "snapshot_times": [10, 15],
        "test_mode": True,
    }
    cfg_path = tmp_path / "big.json"
    cfg_path.write_text(json.dumps(cfg))
    wrapper = (
        "import resource, sys\n"
        "from branchwiener.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print('MAXRSS_KB', resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        "sys.exit(rc)\n"
    )
    blobs = []
    for workers in (1, 2, 4):
        out = tmp_path / f"w{workers}.jsonl"
        t0 = time.monotonic()
        proc = subprocess.run(
            [
                sys.executable, "-c", wrapper,
                "simulate", "--config", str(cfg_path), "--out", str(out),
                "--workers", str(workers),
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        wall = time.monotonic() - t0
        assert proc.returncode == 0, proc.stderr
        assert wall < 5.0, (workers, wall)
        rss_kb = int(proc.stdout.split("MAXRSS_KB")[1].split()[0])
        assert rss_kb < 1024**2, (workers, rss_kb)  # < 1 GiB
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


# -------------------------------------------------------------------------
# 12. Pathwise growth and regularity: (a) over 100 doubling runs the
#     population radius stays below t^2 for every generation t >= 3 up to
#     t_max=20; (b) the L^2 increment norms of V_alpha(t)/m^t shrink
#     geometrically (mean successive ratio < 1; for the doubling law at
#     alpha=(1,) the ratio is 2^(-1/2) within 0.1).
# -------------------------------------------------------------------------


def test_a12_radius_bound_and_increment_decay(binary_law, mixed_law):
    for i in range(100):
        cfg = sim.SimConfig(
            d=1, pmf=BINARY_PMF, seed=7000 + i, t_max=20, test_mode=True
        )
        profile = sim.radius_profile(cfg, workers=4)
        assert len(profile) == 21
        assert profile[0] == (0, 0.0)
        for t, radius in profile:
            # t^2 bounds the radius eventually, not pathwise from t=0:
            # generations 1-2 hold too few particles for the bound to be
            # likely, so the check starts at t=3.
            if t >= 3:
                assert radius <= float(t) ** 2, (i, t, radius)

    [tab1] = mg.lp_increment_diagnostic(2000, [(1,)], 2, 8, binary_law, seed=5151)
    ratio1 = tab1.mean_successive_ratio()
    assert ratio1 < 1.0
    assert abs(ratio1 - 2.0**-0.5) <= 0.1
    [tab2] = mg.lp_increment_diagnostic(2000, [(2,)], 2, 8, binary_law, seed=5252)
    assert tab2.mean_successive_ratio() < 1.0
    [tab0] = mg.lp_increment_diagnostic(4000, [(0,)], 2, 8, mixed_law, seed=6161)
    assert tab0.mean_successive_ratio() < 1.0
