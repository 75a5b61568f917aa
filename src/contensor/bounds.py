"""Static interval-bound analysis over lowered plans.

Harvests ordering facts from the structure of a plan (stored pieces are
well-formed and sorted, co-iteration cursors never pass a stepper's current
right end, loop conditions hold inside loop bodies) and runs a sound but
incomplete prover over them.  A proven ``start <= stop`` deletes the guard;
a proven domination deletes a redundant max/min operand.  Anything the
prover cannot decide is left untouched, so correctness never depends on
this pass.
"""

from __future__ import annotations

import math
from dataclasses import replace as dc_replace

from .ir import (
    Block, Cond, DiscLoop, EndRef, Guard, IntersectLet, IvStart, IvStop,
    LastStop, LimC, Plan, PVar, WhileCoiter,
)
from .limits import ABOVE, BELOW, EXACT, Limit, _clamp

# Atom keys: ("c", val, eps) constants, ("e", tensor, level, side, pos,
# eps_off, shift) piece endpoints, ("z", tensor, level, fiber, shift) last
# stored stops, ("a"|"b", slot) interval slot start/stop.


def _atom(e):
    if isinstance(e, LimC):
        return ("c", e.value.val, e.value.eps)
    if isinstance(e, EndRef):
        return ("e", e.tensor, e.level, e.side, e.pos, e.eps_off, e.shift)
    if isinstance(e, LastStop):
        return ("z", e.tensor, e.level, e.fiber, e.shift)
    if isinstance(e, IvStart):
        return ("a", e.slot)
    if isinstance(e, IvStop):
        return ("b", e.slot)
    return None


def _eps_variants(a, b):
    # same endpoint shifted by epsilon: x - eps <= x <= x + eps
    return a[0] == b[0] == "e" and a[1:5] == b[1:5] and a[6] == b[6] and a[5] <= b[5]


def _least(x):
    """The least value atom x can take.  Stored ends lie in [-inf, inf]; a
    last stop is also just below -inf when its fiber is empty."""
    if x[0] == "c":
        return Limit(x[1], x[2])
    if x[0] == "e":
        return Limit(-math.inf, _clamp(x[5]))
    return Limit(-math.inf, BELOW)


def _most(x):
    """The greatest value atom x can take.  A stepper past its fiber's
    last piece reads every end as inf + eps."""
    if x[0] == "c":
        return Limit(x[1], x[2])
    if x[0] == "e":
        return Limit(math.inf, _clamp(x[5] + 1))
    return Limit(math.inf, EXACT if x[0] == "z" else ABOVE)


class _Prover:
    def __init__(self):
        self.edges = {}   # atom -> set of atoms known >= it
        self.maxes = {}   # slot -> start atoms (value is their max)
        self.mins = {}    # slot -> stop atoms (value is their min)

    def copy(self):
        pv = _Prover()
        pv.edges = {a: set(bs) for a, bs in self.edges.items()}
        pv.maxes, pv.mins = dict(self.maxes), dict(self.mins)
        return pv

    def fact(self, a, b):
        if a is None or b is None:
            return
        self.edges.setdefault(a, set()).add(b)

    def le(self, a, b):
        if a is None or b is None:
            return False
        return self._le(a, b, {})

    def _le(self, a, b, memo):
        """Whether a <= b follows; memo holds each pair searched in this
        query, False while its search runs, so a cycle proves nothing and
        no pair is searched twice."""
        if a == b:
            return True
        if (a, b) not in memo:
            memo[(a, b)] = False
            memo[(a, b)] = self._search(a, b, memo)
        return memo[(a, b)]

    def _search(self, a, b, memo):
        if a[0] == "c" and b[0] == "c":
            return Limit(a[1], a[2]) <= Limit(b[1], b[2])
        if _most(a) <= _least(b):
            return True
        if _eps_variants(a, b):
            return True
        for s in self.edges.get(a, ()):
            if self._le(s, b, memo):
                return True
        if a[0] == "a" and a[1] in self.maxes:
            comps = self.maxes[a[1]]
            if all(self._le(c, b, memo) for c in comps):
                return True
        if b[0] == "b" and b[1] in self.mins:
            comps = self.mins[b[1]]
            if comps and all(self._le(a, c, memo) for c in comps):
                return True
        return False

    def lt(self, a, b):
        # strict order is only decided for constants; epsilon offsets
        # saturate, so off(a) < off(b) does not imply a < b
        if a is None or b is None:
            return False
        if a[0] == "c" and b[0] == "c":
            return Limit(a[1], a[2]) < Limit(b[1], b[2])
        return False


def _harvest(s, pv: _Prover):
    """Record what every region's definition says, wherever it is bound."""
    if isinstance(s, Block):
        for c in s.stmts:
            _harvest(c, pv)
    elif isinstance(s, IntersectLet):
        sa = [_atom(e) for e in s.starts]
        sb = [_atom(e) for e in s.stops]
        if all(x is not None for x in sa):
            pv.maxes[s.slot] = sa
        if all(x is not None for x in sb):
            pv.mins[s.slot] = sb
        for x in sa:
            pv.fact(x, ("a", s.slot))
        for x in sb:
            pv.fact(("b", s.slot), x)
    elif isinstance(s, Guard):
        # the guard's own start <= stop is deliberately NOT a fact: a
        # query about the guard would close the loop through it
        _harvest(s.body, pv)
    elif isinstance(s, (WhileCoiter, DiscLoop, Cond)):
        _harvest(s.body, pv)


def _coiter_facts(s: WhileCoiter, pv: _Prover, bindings):
    """Facts that hold inside a co-iteration's body, and only there: the
    body runs only on a non-empty range, and only a stepper that runs out
    leaves its fiber (to read inf + eps, past its last stop). A pieces
    loop has no range or segment, only its pieces."""
    ranged = s.range_slot is not None
    cur = ("a", s.curr_slot)
    stop = ("b", s.curr_slot)
    if ranged:
        pv.fact(("a", s.range_slot), cur)
        pv.fact(cur, ("b", s.range_slot))
    comps = [("b", s.range_slot)]
    for st in s.steppers:
        pp = bindings[st.tensor].levels[st.level].pinpoint
        pos = PVar(st.pos_slot, st.pos_name)
        right = ("e", st.tensor, st.level, "C" if pp else "R",
                 pos, 0, st.shift)
        if ranged:
            pv.fact(cur, right)     # seek: cursor never passes a right end
        if not st.runs_out:     # rights are sorted within a fiber
            pv.fact(right, ("z", st.tensor, st.level, st.fiber, st.shift))
        if not pp:
            left = ("e", st.tensor, st.level, "L", pos, 0, st.shift)
            pv.fact(left, right)
        comps.append(right)
    if ranged:
        pv.mins[s.curr_slot] = comps
        for c in comps:
            pv.fact(stop, c)


def _guard_state(s: Guard, pv: _Prover):
    """proven / impossible / unknown for a guard's start <= stop test."""
    starts = pv.maxes.get(s.slot)
    stops = pv.mins.get(s.slot)
    if starts is None or stops is None:
        return "unknown"
    if all(pv.le(a, b) for a in starts for b in stops):
        return "proven"
    if any(pv.lt(b, a) for a in starts for b in stops):
        return "impossible"
    return "unknown"


def _prune_operands(s: IntersectLet, pv: _Prover):
    def keep(items, dominated):
        out = list(items)
        i = 0
        while i < len(out):
            rest = out[:i] + out[i + 1:]
            if len(out) > 1 and any(dominated(out[i], o) for o in rest):
                del out[i]
            else:
                i += 1
        return out

    amap = {_atom(e): e for e in s.starts}
    bmap = {_atom(e): e for e in s.stops}
    if len(amap) == len(s.starts):
        # a start is redundant when another start is always >= it
        kept = keep(list(amap), lambda x, o: pv.le(x, o))
        if len(kept) < len(s.starts):
            s = dc_replace(s, starts=tuple(amap[k] for k in kept))
    if len(bmap) == len(s.stops):
        kept = keep(list(bmap), lambda x, o: pv.le(o, x))
        if len(kept) < len(s.stops):
            s = dc_replace(s, stops=tuple(bmap[k] for k in kept))
    return s


def _rewrite(s, pv: _Prover, bindings):
    if isinstance(s, Block):
        out = []
        for c in s.stmts:
            c = _rewrite(c, pv, bindings)
            if isinstance(c, Block):
                out.extend(c.stmts)
            else:
                out.append(c)
        return Block(tuple(out))
    if isinstance(s, IntersectLet):
        return _prune_operands(s, pv)
    if isinstance(s, Guard):
        state = _guard_state(s, pv)
        if state == "impossible":
            return Block()
        body = _rewrite(s.body, pv, bindings)
        if state == "proven":
            return body
        return dc_replace(s, body=body)
    if isinstance(s, WhileCoiter):
        inner = pv.copy()
        _coiter_facts(s, inner, bindings)
        return dc_replace(s, body=_rewrite(s.body, inner, bindings))
    if isinstance(s, (DiscLoop, Cond)):
        return dc_replace(s, body=_rewrite(s.body, pv, bindings))
    return s


def prune_bounds(plan: Plan) -> Plan:
    pv = _Prover()
    _harvest(plan.body, pv)
    return dc_replace(plan, body=_rewrite(plan.body, pv, plan.bindings))
