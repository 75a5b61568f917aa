"""Numbers carrying an infinitesimal offset.

A ``Limit`` is a real value plus a tag saying whether we mean the value
itself, a point infinitesimally below it, or infinitesimally above it.
Half-open interval endpoints become exact data this way: the endpoints of
[a, b) are ``Limit(a)`` and ``Limit(b, -1)``.

Offsets saturate under arithmetic: adding two "just above" offsets still
means "just above", so eps stays in {-1, 0, +1} and ordering stays total.
"""

from __future__ import annotations

import math
from typing import NamedTuple

BELOW = -1
EXACT = 0
ABOVE = 1


def _clamp(e: int) -> int:
    return -1 if e < -1 else (1 if e > 1 else e)


def fmt_num(v: float) -> str:
    """A float as plans and limits print it: integers without a point."""
    if v != v:
        return "nan"
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    if v == int(v):
        return str(int(v))
    return repr(v)


class Limit(NamedTuple):
    """A real number nudged by -1, 0 or +1 infinitesimals.

    Ordering is lexicographic on (val, eps), which the NamedTuple base
    already provides; that order is total because eps never leaves
    {-1, 0, +1}.
    """

    val: float
    eps: int = EXACT

    # tuple.__add__ would concatenate; we want saturating arithmetic
    def __add__(self, other):  # type: ignore[override]
        o = as_limit(other)
        return Limit(self.val + o.val, _clamp(self.eps + o.eps))

    def __radd__(self, other):
        return as_limit(other) + self

    def __sub__(self, other):
        o = as_limit(other)
        return Limit(self.val - o.val, _clamp(self.eps - o.eps))

    def __rsub__(self, other):
        return as_limit(other) - self

    def __neg__(self):
        return Limit(-self.val, -self.eps)

    def __mul__(self, other):  # pragma: no cover - guard rail
        raise TypeError("Limit does not support multiplication; take .val first")

    __rmul__ = __mul__

    @property
    def above(self) -> "Limit":
        return self + EPS

    @property
    def below(self) -> "Limit":
        return self - EPS

    def __str__(self) -> str:
        if self.eps == ABOVE:
            return f"{fmt_num(self.val)}+eps"
        if self.eps == BELOW:
            return f"{fmt_num(self.val)}-eps"
        return fmt_num(self.val)


EPS = Limit(0.0, ABOVE)


def as_limit(x) -> Limit:
    """Promote a plain number to an exact Limit; Limits pass through."""
    if isinstance(x, Limit):
        return x
    if isinstance(x, (int, float)):
        return Limit(float(x), EXACT)
    raise TypeError(f"cannot treat {x!r} as a Limit")


def lim_cmp(a, b) -> int:
    """Three-way compare with plain-number promotion. NaN is a usage error."""
    la, lb = as_limit(a), as_limit(b)
    if math.isnan(la.val) or math.isnan(lb.val):
        raise ValueError("cannot order a Limit with NaN value")
    if la == lb:
        return 0
    return -1 if la < lb else 1

