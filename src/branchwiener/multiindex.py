"""Multi-indices and the term list of the density expansion.

A multi-index is a vector of non-negative integers ``alpha = (a_1, ..., a_d)``
with order ``|alpha| = a_1 + ... + a_d``.  Everything downstream (Hermite
products, moment bookkeeping, the density expansion) is indexed by these, so
this module keeps the arithmetic exact: factorials and binomial products are
Python ints, never floats.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator

from .errors import ValidationError


class MultiIndex(tuple):
    """An immutable multi-index: a tuple of non-negative ints, checked once.

    Being a ``tuple`` subclass keeps instances hashable (they are used as
    dict keys throughout); ``+`` and ``*`` are the tuple's concatenation
    and repetition, so componentwise sums are spelled out where needed.
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


@lru_cache(maxsize=16)
def expansion_terms(k: int, d: int) -> tuple:
    """The terms of the order-k expansion double sum in dimension d.

    One tuple ``(n, alpha!, C(2 alpha, beta), (-1)^|beta|, beta,
    2 alpha - beta)`` per pair |alpha| = n <= k, beta <= 2 alpha: n
    ascending, alpha in :func:`enumerate_order` order, beta in odometer
    order (the last component fastest, each counting up from 0).  The sign
    is a float, the rest exact, the two indices MultiIndex.  Every sum over
    these pairs (the density expansion and its design rows) reads this one
    list.
    """
    if k < 0:
        raise ValidationError(f"order k={k} must be >= 0")
    terms = []
    for n in range(k + 1):
        for alpha in enumerate_order(d, n):
            two_alpha, fact = [2 * a for a in alpha], factorial(alpha)
            for beta in product(*(range(c + 1) for c in two_alpha)):
                sign = -1.0 if sum(beta) % 2 else 1.0
                gamma = MultiIndex(c - b for c, b in zip(two_alpha, beta))
                terms.append((n, fact, math.prod(map(math.comb, two_alpha, beta)), sign,
                              MultiIndex(beta), gamma))
    return tuple(terms)
