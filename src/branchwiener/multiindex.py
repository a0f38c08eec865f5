"""Multi-index combinatorics.

A multi-index is a vector of non-negative integers ``alpha = (a_1, ..., a_d)``
with order ``|alpha| = a_1 + ... + a_d``.  Everything downstream (Hermite
products, moment bookkeeping, the density expansion) is indexed by these, so
this module keeps the arithmetic exact: factorials and binomial products are
Python ints, never floats.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product as _cartesian
from typing import Iterable, Iterator

from .errors import ValidationError


class MultiIndex(tuple):
    """An immutable multi-index with componentwise vector arithmetic.

    Being a ``tuple`` subclass keeps instances hashable (they are used as
    dict keys throughout) while ``+`` and ``-`` act componentwise rather
    than concatenating.
    """

    __slots__ = ()

    def __new__(cls, components: Iterable[int]) -> "MultiIndex":
        comps = tuple(components)
        if len(comps) == 0:
            raise ValidationError("multi-index needs at least one component")
        out = []
        for c in comps:
            i = int(c)
            if i != c:
                raise ValidationError(f"non-integer component {c!r}")
            if i < 0:
                raise ValidationError(f"negative component {i}")
            out.append(i)
        return super().__new__(cls, out)

    @property
    def dim(self) -> int:
        return len(self)

    @property
    def order(self) -> int:
        return sum(self)

    def _check_dim(self, other: "MultiIndex") -> None:
        if len(self) != len(other):
            raise ValidationError(
                f"dimension mismatch: {len(self)} vs {len(other)}"
            )

    def __add__(self, other):  # type: ignore[override]
        other = MultiIndex(other)
        self._check_dim(other)
        return MultiIndex(a + b for a, b in zip(self, other))

    __radd__ = __add__

    def __sub__(self, other):
        other = MultiIndex(other)
        self._check_dim(other)
        diff = [a - b for a, b in zip(self, other)]
        if any(c < 0 for c in diff):
            raise ValidationError(f"{other} is not a sub-index of {self}")
        return MultiIndex(diff)

    def __mul__(self, k):  # scalar only
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValidationError("scalar multiple must be non-negative")
        return MultiIndex(k * a for a in self)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"MultiIndex({', '.join(str(c) for c in self)})"


def as_multiindex(alpha) -> MultiIndex:
    """Coerce tuples/lists/arrays to :class:`MultiIndex` (idempotent)."""
    if isinstance(alpha, MultiIndex):
        return alpha
    return MultiIndex(alpha)


def factorial(alpha) -> int:
    """alpha! = prod_i a_i!  (exact integer)."""
    a = as_multiindex(alpha)
    out = 1
    for c in a:
        out *= math.factorial(c)
    return out


def is_sub_index(beta, alpha) -> bool:
    """True when beta <= alpha componentwise."""
    b, a = as_multiindex(beta), as_multiindex(alpha)
    if b.dim != a.dim:
        raise ValidationError(f"dimension mismatch: {b.dim} vs {a.dim}")
    return all(x <= y for x, y in zip(b, a))


def choose(alpha, beta) -> int:
    """Product of componentwise binomials C(a_i, b_i); requires beta <= alpha."""
    a, b = as_multiindex(alpha), as_multiindex(beta)
    if not is_sub_index(b, a):
        raise ValidationError(f"{b} is not a sub-index of {a}")
    out = 1
    for x, y in zip(a, b):
        out *= math.comb(x, y)
    return out


def enumerate_order(d: int, n: int) -> list[MultiIndex]:
    """All multi-indices of dimension ``d`` with order exactly ``n``.

    Ordered lexicographically with the leading component largest first,
    e.g. ``enumerate_order(2, 2) == [(2,0), (1,1), (0,2)]``.  The list has
    ``C(n+d-1, d-1)`` entries.
    """
    if d < 1:
        raise ValidationError("dimension must be >= 1")
    if n < 0:
        raise ValidationError("order must be >= 0")

    def rec(dim: int, total: int) -> Iterator[tuple[int, ...]]:
        if dim == 1:
            yield (total,)
            return
        for head in range(total, -1, -1):
            for rest in rec(dim - 1, total - head):
                yield (head,) + rest

    return [MultiIndex(t) for t in rec(d, n)]


def sub_indices(alpha) -> list[MultiIndex]:
    """All beta with beta <= alpha componentwise.

    Enumerated in "odometer" order: the last component varies fastest and
    every component counts upward, so the first entry is the zero index and
    the last is ``alpha`` itself.  There are prod_i (a_i + 1) entries.
    """
    a = as_multiindex(alpha)
    ranges = [range(c + 1) for c in a]
    return [MultiIndex(t) for t in _cartesian(*ranges)]


@lru_cache(maxsize=16)
def expansion_terms(k: int, d: int) -> tuple:
    """The terms of the order-k expansion double sum in dimension d.

    One tuple ``(n, alpha!, C(2 alpha, beta), (-1)^|beta|, beta,
    2 alpha - beta)`` per pair |alpha| = n <= k, beta <= 2 alpha: n
    ascending, alpha in :func:`enumerate_order` order, beta in
    :func:`sub_indices` order.  The sign is a float, the rest exact.  Every
    sum over these pairs (the density expansion, its design rows, the
    shifted kernel) reads this one list.
    """
    if k < 0:
        raise ValidationError(f"order k={k} must be >= 0")
    terms = []
    for n in range(k + 1):
        for alpha in enumerate_order(d, n):
            two_alpha = 2 * alpha
            fact = factorial(alpha)
            for beta in sub_indices(two_alpha):
                sign = -1.0 if beta.order % 2 else 1.0
                terms.append(
                    (n, fact, choose(two_alpha, beta), sign, beta, two_alpha - beta)
                )
    return tuple(terms)
