"""The counter-based sampler: the stream's keys, root and child ids,
offspring uniforms and displacements, from splitmix64 hashes, their
uniforms and AS241's normal quantile.

Every draw is a pure function of (seed, particle lineage id, purpose), and
a child's 128-bit lineage id is a hash of (seed, parent id, birth rank).
So runs are bitwise reproducible for a fixed seed, however the particles
are split into blocks, parts or processes and in whatever order, and a
stored snapshot continued under a fresh seed draws independently of the
original run: its children get fresh ids.

The hash is the splitmix64 finalizer, and each key one scalar mix of
(seed, purpose).  Each word of a child's id (`child_ids`) is one mix of
both parent words and the birth rank plus the seed's id key.  The id words
are the uniforms of the displacement along axes 0 and 1 (`displace`); each
other draw (`offspring_uniforms`, axes 2 and up) is one mix of the id
folded to one word (hi ^ lo) XOR its key.  Uniforms feed the inverse
Gaussian CDF `_ndtri`, Wichura's AS241 in numpy: within 2e-15 relative of
the exact quantile, and built from +, -, *, / and sqrt alone, so its bits
depend on neither libm nor numpy's SIMD paths.  Snapshot file headers
record the sampler as ``splitmix64-as241-v4``.
"""

from __future__ import annotations

import numpy as np

SAMPLER_NAME = "splitmix64-as241-v4"

_U64 = np.uint64
_MASK = (1 << 64) - 1
_M1 = _U64(0xBF58476D1CE4E5B9)
_M2 = _U64(0x94D049BB133111EB)
_GOLDEN = 0x9E3779B97F4A7C15
_SALT = 0xC2B2AE3D27D4EB4F
_TAG_OFFSPRING = 0x01D306AA5F35F1D1
_TAG_ID = 0x5EED1D5EED1D0001
_TAG_POSITION = 0x7C15E4D5B9A30001
_TAG_STRIDE = 0x636F6F7264313375

# Bits of the float 1.0: OR-ed onto 52 random mantissa bits, a float in [1, 2).
_ONE_BITS = _U64(0x3FF0000000000000)


def _mix(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """splitmix64 finalizer, elementwise on a uint64 array, into ``out`` or
    else in place (callers pass a temporary of their own); returns it.

    Scalar keys go through :func:`_mix_int` instead — numpy warns on scalar
    uint64 wraparound but is silent (and correct) for arrays.
    """
    out = np.bitwise_xor(x, x >> _U64(30), out=x if out is None else out)
    out *= _M1
    out ^= out >> _U64(27)
    out *= _M2
    out ^= out >> _U64(31)
    return out


def _mix_int(x: int) -> int:
    """splitmix64 finalizer on a Python int (explicit 64-bit masking)."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _key(seed: int, tag: int) -> np.uint64:
    """Scalar key of one purpose (ids, offspring, or one axis) under seed."""
    return _U64(_mix_int(seed * _GOLDEN + tag))


def _u01(h: np.ndarray) -> np.ndarray:
    """Uniform(0,1) in place of uint64 hashes: the midpoint (k + 1/2)/2^52
    of the cell that the top 52 bits k pick.  Exact, never 0 or 1: the bits
    become the float 1 + k/2^52, and the subtraction is exact (Sterbenz)."""
    h >>= _U64(12)
    h |= _ONE_BITS
    u = h.view(np.float64)
    u -= 1.0 - 2.0**-53
    return u


def _fold_hash(hi, lo, key, out=None) -> np.ndarray:
    """_mix(hi ^ lo ^ key), into ``out`` or else in place; key: a scalar or one per column."""
    fold = hi ^ lo
    return _mix(np.bitwise_xor(fold, key, out=fold if out is None else out))


# Wichura, "Algorithm AS 241" (Applied Statistics 37, 1988), PPND16:
# numerator and denominator of each rational branch, lowest power first.
_AS241_CENTRE = (
    (3.3871328727963666080e0, 1.3314166789178437745e+2, 1.9715909503065514427e+3,
     1.3731693765509461125e+4, 4.5921953931549871457e+4, 6.7265770927008700853e+4,
     3.3430575583588128105e+4, 2.5090809287301226727e+3),
    (1.0, 4.2313330701600911252e+1, 6.8718700749205790830e+2, 5.3941960214247511077e+3,
     2.1213794301586595867e+4, 3.9307895800092710610e+4, 2.8729085735721942674e+4,
     5.2264952788528545610e+3),
)
_AS241_TAIL = (
    (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
     3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
     1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
     1.05075007164441684324e-9),
)
_AS241_FAR = (
    (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
     2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
     2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
     7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
     2.04426310338993978564e-15),
)
# fdlibm e_log.c: Lg1..Lg7, and ln 2 split so that k * _LN2_HI is exact.
_LG = (6.666666666666735130e-01, 3.999999999940941908e-01, 2.857142874366239149e-01,
       2.222219843214978396e-01, 1.818357216161805012e-01, 1.531383769920937332e-01,
       1.479819860511658591e-01)
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_MANTISSA = _U64((1 << 52) - 1)


def _ratio(coefs, x):
    """num(x) / den(x) for coefs = (num, den), by Horner's rule in two new
    arrays."""
    num, den = coefs
    p = x * num[-1]
    q = x * den[-1]
    for a, b in zip(num[-2:0:-1], den[-2:0:-1]):
        p += a
        p *= x
        q += b
        q *= x
    p += num[0]
    q += den[0]
    p /= q
    return p


def _neg_log(x: np.ndarray) -> np.ndarray:
    """-log x of positive normal floats, overwriting x; fdlibm's log.

    The bits give x = 2^k (1 + f) with sqrt(1/2) <= 1 + f < sqrt(2), and
    log(1 + f) = f - f^2/2 + s (f^2/2 + R(s^2)) with s = f / (2 + f) and R
    fdlibm's polynomial, here by Horner's rule in s^2."""
    b = x.view(_U64)
    big = b & _MANTISSA
    big += _U64(0x00095F6400000000)
    big &= _U64(1 << 52)  # 2^52 where the mantissa is at least about sqrt(2)
    k = b + big
    k >>= _U64(52)
    b &= _MANTISSA
    b |= _ONE_BITS
    b -= big  # halves 1 + f where big is set, as k + 1 doubles 2^k
    k = k.view(np.int64).astype(np.float64)
    k -= 1023.0
    f = x
    f -= 1.0
    s = f + 2.0
    np.divide(f, s, out=s)
    z = s * s
    r = z * _LG[-1]
    for c in _LG[-2::-1]:
        r += c
        r *= z
    h = f * f
    h *= 0.5
    r += h
    r *= s
    r += np.multiply(k, _LN2_LO, out=z)
    h -= r
    h -= f
    k *= _LN2_HI
    h -= k
    return h


def _ndtri(u: np.ndarray) -> np.ndarray:
    """The standard normal quantile of each u, overwriting u: the sampler's
    uniforms, multiples of 2^-53 in (0, 1), so that u - 1/2 is exact.

    Wichura's AS241 (PPND16): on the centre, a rational function of
    r = 0.180625 - q^2 with q = u - 1/2, computed over the whole array and
    kept where r >= 0 (|q| <= 0.425, 85% of draws).  On the tails, with
    s = sqrt(-log(1/2 - |q|)) and 1/2 - |q| = min(u, 1 - u), one of s - 1.6
    where s <= 5, and of s - 5 beyond (u within e^-25 of 0 or 1).  Within
    2e-15 relative of the exact quantile, and ``_ndtri(1 - u) == -_ndtri(u)``.
    At its peak it holds four arrays of u's shape: q, r and the two Horner
    accumulators."""
    q = np.subtract(u, 0.5, out=u)
    r = q * q
    np.subtract(0.180625, r, out=r)
    z = _ratio(_AS241_CENTRE, r)
    z *= q
    tail = np.flatnonzero(r < 0.0)
    if tail.size:
        p = np.take(q, tail)
        np.abs(p, out=p)
        np.subtract(0.5, p, out=p)
        s = _neg_log(p)
        np.sqrt(s, out=s)
        x = _ratio(_AS241_TAIL, s - 1.6)
        far = np.flatnonzero(s > 5.0)
        if far.size:
            x[far] = _ratio(_AS241_FAR, s[far] - 5.0)
        np.put(z, tail, np.copysign(x, np.take(q, tail)))
    return z


def root_ids(seed: int, n: int):
    """The 128-bit ids (hi, lo) of the first n roots under seed; a run has the first."""
    idx = np.arange(1, n + 1, dtype=np.uint64)
    return _mix(_key(seed, 1) ^ (idx * _M1)), _mix(_U64(_mix_int(seed * _SALT + 2)) ^ (idx * _M2))


def offspring_uniforms(seed: int, hi, lo) -> np.ndarray:
    """The uniform of each parent's offspring draw, from its id words."""
    return _u01(_fold_hash(hi, lo, _key(seed, _TAG_OFFSPRING)))


def child_ids(seed: int, counts, parent, hi, lo) -> None:
    """Overwrite the parent id words hi and lo of a block's children, given its
    offspring counts and each child's parent row, with their own ids."""
    first = (np.cumsum(counts) - counts).astype(np.uint64) - _key(seed, _TAG_ID)
    rank = np.arange(1, hi.shape[0] + 1, dtype=np.uint64)
    rank -= np.take(first, parent, mode="clip")  # wraps: rank from 1, plus the key
    x = rank * _U64(_GOLDEN)
    x ^= lo
    x += hi
    rank *= _U64(_SALT)
    hi ^= rank
    hi += lo
    _mix(hi)
    _mix(x, out=lo)


def displace(seed: int, p, hi, lo) -> None:
    """Add to each row of p its standard Gaussian step, drawn from its id hi, lo."""
    d = p.shape[1]
    # One row per child, as in p: numpy would buffer a transpose, 3x slower.
    w = np.empty_like(p, dtype=np.uint64)
    for j, word in enumerate((hi, lo)[:d]):
        w[:, j] = word
    if d > 2:
        keys = [_key(seed, _TAG_POSITION + j * _TAG_STRIDE) for j in range(2, d)]
        _fold_hash(hi[:, None], lo[:, None], np.array(keys, dtype=np.uint64), out=w[:, 2:])
    p += _ndtri(_u01(w))
