"""Intervals over Limit endpoints.

Every interval is stored closed on both Limit endpoints; openness of the
underlying real interval lives in the endpoint eps tags. Intersection is
max of starts / min of stops, and emptiness is simply start > stop, so
there is no separate empty representation to normalize.
"""

from __future__ import annotations

from typing import NamedTuple

from .limits import ABOVE, BELOW, EPS, EXACT, Limit, as_limit, lim_cmp


class Interval(NamedTuple):
    start: Limit
    stop: Limit

    # -- constructors ----------------------------------------------------
    @staticmethod
    def closed(a, b) -> "Interval":
        return Interval(as_limit(a), as_limit(b))

    @staticmethod
    def right_open(a, b) -> "Interval":
        return Interval(as_limit(a), as_limit(b).below)

    @staticmethod
    def left_open(a, b) -> "Interval":
        return Interval(as_limit(a).above, as_limit(b))

    @staticmethod
    def open(a, b) -> "Interval":
        return Interval(as_limit(a).above, as_limit(b).below)

    @staticmethod
    def pinpoint(x) -> "Interval":
        lx = as_limit(x)
        return Interval(lx, lx)

    @staticmethod
    def from_kind(a, b, kind: str) -> "Interval":
        try:
            ctor = _KINDS[kind]
        except KeyError:
            raise ValueError(f"unknown interval kind {kind!r}") from None
        return ctor(a, b)

    # -- predicates ------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return self.start > self.stop

    def contains(self, x) -> bool:
        lx = as_limit(x)
        return lim_cmp(self.start, lx) <= 0 and lim_cmp(lx, self.stop) <= 0

    # -- algebra ---------------------------------------------------------
    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.start, other.start), min(self.stop, other.stop))

    def touches_below(self, other: "Interval") -> bool:
        """True when other starts exactly one eps after self ends."""
        return other.start == self.stop + EPS

    def __str__(self) -> str:
        s, e = self.start, self.stop
        if s.eps in (EXACT, ABOVE) and e.eps in (EXACT, BELOW):
            lb = "[" if s.eps == EXACT else "("
            rb = "]" if e.eps == EXACT else ")"
            return f"{lb}{Limit(s.val)!s}, {Limit(e.val)!s}{rb}"
        return f"[{s}, {e}]"


_KINDS = {
    "closed": Interval.closed,
    "right_open": Interval.right_open,
    "left_open": Interval.left_open,
    "open": Interval.open,
}
