import io
import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from branchwiener.errors import ValidationError
from branchwiener import kernel_expansion as kx


def test_gauss_kernel_values():
    assert kx.gauss_kernel(1, 3.0, [0.0]) == pytest.approx(0.23032943298089034)
    rng = np.random.default_rng(12)
    for d in (1, 2, 3):
        for t in (0.5, 2.0):
            x = rng.normal(size=d)
            ref = multivariate_normal(mean=np.zeros(d), cov=t * np.eye(d)).pdf(x)
            assert kx.gauss_kernel(d, t, x) == pytest.approx(ref, rel=1e-12)
    with pytest.raises(ValidationError):
        kx.gauss_kernel(1, 0.0, [0.0])
    with pytest.raises(ValidationError):
        kx.gauss_kernel(2, 1.0, [0.0])  # shape mismatch


def test_params_validation():
    kx.KernelExpansionParams(d=1, T=10.0, t=0.0, k=0)
    with pytest.raises(ValidationError):
        kx.KernelExpansionParams(d=0, T=10.0, t=0.0, k=0)
    with pytest.raises(ValidationError):
        kx.KernelExpansionParams(d=1, T=-1.0, t=0.0, k=0)
    with pytest.raises(ValidationError):
        kx.KernelExpansionParams(d=1, T=10.0, t=10.0, k=0)
    with pytest.raises(ValidationError):
        kx.KernelExpansionParams(d=1, T=10.0, t=1.0, k=kx.MAX_ORDER + 1)
    assert kx.KernelExpansionParams(d=1, T=10.0, t=6.0, k=0).flagged
    assert not kx.KernelExpansionParams(d=1, T=10.0, t=5.0, k=0).flagged


def test_truncation_t_zero_is_exact_at_origin():
    # At t=0 every H_{2a}(0,0) with a != 0 vanishes, so the k-truncation
    # collapses to the n=0 term and equals the kernel exactly at x=0.
    for d in (1, 2):
        params = kx.KernelExpansionParams(d=d, T=7.0, t=0.0, k=3)
        ref = kx.gauss_kernel(d, 7.0, np.zeros(d))
        assert kx.truncated_kernel(params, np.zeros(d)) == pytest.approx(
            ref, rel=1e-14
        )


def test_central_binomial_partial_sum():
    # scaled kernel at x=0:  sum_n C(2n,n) (t/4T)^n -> (1 - t/T)^(-1/2)
    t, T = 2.0, 16.0
    params = kx.KernelExpansionParams(d=1, T=T, t=t, k=40)
    scaled = (2 * math.pi * T) ** 0.5 * kx.truncated_kernel(params, [0.0])
    direct = math.fsum(
        math.comb(2 * n, n) * (t / (4 * T)) ** n for n in range(41)
    )
    assert scaled == pytest.approx(direct, rel=1e-13)
    assert scaled == pytest.approx((1 - t / T) ** -0.5, rel=1e-12)


def test_shifted_equals_unshifted_small():
    rng = np.random.default_rng(99)
    for d in (1, 2):
        for k in (0, 1, 2):
            params = kx.KernelExpansionParams(d=d, T=50.0, t=1.5, k=k)
            x = rng.normal(scale=0.8, size=d)
            y = rng.normal(scale=0.8, size=d)
            a = kx.truncated_kernel_shifted(params, x, y)
            b = kx.truncated_kernel(params, y - x)
            assert a == pytest.approx(b, abs=1e-12)


def test_flag_warning_outside_validated_region():
    params = kx.KernelExpansionParams(d=1, T=10.0, t=6.0, k=1)
    with pytest.warns(kx.ConvergenceRegionWarning):
        kx.truncated_kernel(params, [0.3])
    with pytest.warns(kx.ConvergenceRegionWarning):
        kx.truncated_kernel_shifted(params, [0.1], [0.3])


def test_fit_loglog_slope_recovers_power():
    T = np.array([50.0, 100.0, 200.0, 400.0])
    errs = 3.7 * T**-3.0
    assert kx.fit_loglog_slope(T, errs) == pytest.approx(-3.0, abs=1e-12)
    # zero entries are clipped, not fatal
    errs2 = errs.copy()
    errs2[-1] = 0.0
    assert math.isfinite(kx.fit_loglog_slope(T, errs2))
    with pytest.raises(ValidationError):
        kx.fit_loglog_slope([10.0], [1.0])


def test_scan_rejects_small_horizons():
    with pytest.raises(ValidationError):
        kx.truncation_error_scan(1, 2.0, [0.0], 1, [3.9])
    with pytest.raises(ValidationError):
        kx.truncation_error_scan(1, 1.0, [0.0], 1, [])


def test_scan_table_and_csv():
    scan = kx.truncation_error_scan(1, 1.0, [0.7], 1, [64.0, 128.0, 256.0])
    assert len(scan.rows) == 2 * 3
    assert [r.T for r in scan.rows if r.k == 0] == [64.0, 128.0, 256.0]
    assert all(r.error >= 0 for r in scan.rows)
    assert set(scan.slopes) == {0, 1}
    buf = io.StringIO()
    scan.write_csv(buf, comments=["demo"])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# demo"
    assert lines[1] == "k,T,error,fitted_slope,flagged"
    assert len(lines) == 2 + 6
    # round-trippable floats: shortest repr parses back exactly
    first = lines[2].split(",")
    assert float(first[2]) == scan.rows[0].error


def test_raw_scan_rolls_off_faster():
    # the unscaled error carries the (2 pi T)^(-d/2) prefactor, so its
    # fitted slope is steeper by about d/2
    Ts = [64.0, 128.0, 256.0, 512.0]
    scaled = kx.truncation_error_scan(1, 1.0, [0.0], 0, Ts, scaled=True)
    raw = kx.truncation_error_scan(1, 1.0, [0.0], 0, Ts, scaled=False)
    assert raw.slopes[0] == pytest.approx(scaled.slopes[0] - 0.5, abs=0.05)

