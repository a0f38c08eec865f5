import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from branchwiener.errors import ValidationError
from branchwiener import kernel_expansion as kx

import oracles


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
    kx.truncated_kernel([0.0], 10.0, 0.0, 0)
    with pytest.raises(ValidationError):
        kx.truncated_kernel([], 10.0, 0.0, 0)  # d = 0
    with pytest.raises(ValidationError):
        kx.truncated_kernel([0.0], -1.0, 0.0, 0)
    with pytest.raises(ValidationError):
        kx.truncated_kernel([0.0], 10.0, 10.0, 0)
    with pytest.raises(ValidationError):
        kx.truncated_kernel([0.0], 10.0, 1.0, kx.MAX_ORDER + 1)


def test_truncation_t_zero_is_exact_at_origin():
    # At t=0 every H_{2a}(0,0) with a != 0 vanishes, so the k-truncation
    # collapses to the n=0 term and equals the kernel exactly at x=0.
    for d in (1, 2):
        ref = kx.gauss_kernel(d, 7.0, np.zeros(d))
        assert kx.truncated_kernel(np.zeros(d), 7.0, 0.0, 3) == pytest.approx(
            ref, rel=1e-14
        )


def test_central_binomial_partial_sum():
    # scaled kernel at x=0:  sum_n C(2n,n) (t/4T)^n -> (1 - t/T)^(-1/2)
    t, T = 2.0, 16.0
    scaled = (2 * math.pi * T) ** 0.5 * kx.truncated_kernel([0.0], T, t, 40)
    direct = math.fsum(
        math.comb(2 * n, n) * (t / (4 * T)) ** n for n in range(41)
    )
    assert scaled == pytest.approx(direct, rel=1e-13)
    assert scaled == pytest.approx((1 - t / T) ** -0.5, rel=1e-12)


def test_shifted_equals_unshifted_small():
    rng = np.random.default_rng(99)
    for d in (1, 2):
        for k in (0, 1, 2):
            x = rng.normal(scale=0.8, size=d)
            y = rng.normal(scale=0.8, size=d)
            a = oracles.truncated_kernel_shifted(x, y, 50.0, 1.5, k)
            b = kx.truncated_kernel(y - x, 50.0, 1.5, k)
            assert a == pytest.approx(b, abs=1e-12)


def test_fit_loglog_slope_recovers_power():
    T = np.array([50.0, 100.0, 200.0, 400.0])
    errs = 3.7 * T**-3.0
    assert kx.fit_loglog_slope(T, errs) == pytest.approx(-3.0, abs=1e-12)
    # a zero error has no log: refused, not clipped to the smallest other
    errs2 = errs.copy()
    errs2[-1] = 0.0
    with pytest.raises(ValidationError, match="positive errors"):
        kx.fit_loglog_slope(T, errs2)
    with pytest.raises(ValidationError):
        kx.fit_loglog_slope([10.0], [1.0])
    # repeated horizons are one point, and one point fits no slope
    with pytest.raises(ValidationError):
        kx.fit_loglog_slope([64.0, 64.0], [1e-3, 1e-3])


def test_scan_rejects_small_horizons():
    with pytest.raises(ValidationError):
        kx.truncation_error_scan(1, 2.0, [0.0], 1, [3.9])
    with pytest.raises(ValidationError):
        kx.truncation_error_scan(1, 1.0, [0.0], 1, [])


def test_scan_table():
    scan = kx.truncation_error_scan(1, 1.0, [0.7], 1, [64.0, 128.0, 256.0])
    assert len(scan.rows) == 2 * 3
    assert [r.T for r in scan.rows if r.k == 0] == [64.0, 128.0, 256.0]
    assert all(r.error >= 0 for r in scan.rows)
    assert set(scan.slopes) == {0, 1}


def test_scan_bits_are_pinned():
    # float.hex of every error and per-k slope of this scan, recorded before
    # the truncation took its Hermite products from hermite_products.
    scan = kx.truncation_error_scan(2, 1.5, [0.7, 0.7], 3, [16, 64, 128, 256, 512])
    assert [r.error.hex() for r in scan.rows] == [
        "0x1.118a5edb43af1p-4", "0x1.0632678cf8b00p-6", "0x1.045e894b17423p-7",
        "0x1.03765c57cd57ep-8", "0x1.0302b6a1b7581p-9",
        "0x1.df605649bd800p-9", "0x1.d185b20176139p-13", "0x1.cf2d222184a32p-15",
        "0x1.ce005daf3487ep-17", "0x1.cd69e30637a63p-19",
        "0x1.28cfbc436096dp-13", "0x1.2c95defbe6114p-19", "0x1.2ce3cdfd81cd9p-22",
        "0x1.2d0329b130e1cp-25", "0x1.2d1101689e4b4p-28",
        "0x1.137a81da8ff7bp-19", "0x1.0f8e9dcfd36f7p-28", "0x1.cec2838366755p-33",
        "0x1.a7cbc2bd2c9b6p-37", "0x1.949406cf7d79ep-41",
    ]
    assert {k: s.hex() for k, s in scan.slopes.items()} == {
        0: "-0x1.03fac264c6028p+0", 1: "-0x1.0164e8e3f02a3p+1",
        2: "-0x1.7f7dac778f52bp+1", 3: "-0x1.12750895e2ceap+2",
    }


def test_scan_fits_slopes_only_above_the_float_floor():
    # Each row's error against 16 of its floors: k <= 3 keep every row, so
    # their slopes are the fits through all four; k=4 drops T=512 (11.5
    # floors), k=5 keeps T=64, 128, and k=6 keeps T=64 alone, so it fits
    # no slope.
    scan = kx.truncation_error_scan(1, 1.0, [0.7], 6, [64, 128, 256, 512], scaled=False)
    kept = {k: [r.T for r in scan.rows if r.k == k and r.error > 16 * r.floor]
            for k in scan.slopes}
    assert kept == {**dict.fromkeys(range(4), [64.0, 128.0, 256.0, 512.0]),
                    4: [64.0, 128.0, 256.0], 5: [64.0, 128.0], 6: [64.0]}
    assert [repr(scan.slopes[k]) for k in range(4)] == [
        "-1.500919080645832", "-2.4865095145022567", "-3.5122506828231166",
        "-4.508352642282166"]
    assert scan.slopes[4] == pytest.approx(-5.5102, abs=1e-4)
    assert scan.slopes[5] == pytest.approx(-6.515, abs=1e-3)
    assert scan.slopes[6] is None
    # errors of exactly 0.0 sit below any floor
    scan = kx.truncation_error_scan(1, 0.5, [0.7], 12, [1000, 2000])
    assert [k for k, s in scan.slopes.items() if s is not None] == [0, 1, 2]


@pytest.mark.parametrize("d", [0, -1, 2**64, 10**12])
def test_scan_refuses_a_dimension_out_of_range(d):
    with pytest.raises(ValidationError, match=rf"^dimension d {d} outside \[1, 1025\)$"):
        kx.truncation_error_scan(d, 1.0, [0.7], 2, [64.0, 128.0])


def test_raw_scan_rolls_off_faster():
    # the unscaled error carries the (2 pi T)^(-d/2) prefactor, so its
    # fitted slope is steeper by about d/2
    Ts = [64.0, 128.0, 256.0, 512.0]
    scaled = kx.truncation_error_scan(1, 1.0, [0.0], 0, Ts, scaled=True)
    raw = kx.truncation_error_scan(1, 1.0, [0.0], 0, Ts, scaled=False)
    assert raw.slopes[0] == pytest.approx(scaled.slopes[0] - 0.5, abs=0.05)

