"""Expression folding and dead-binder removal.

Lowering folds every expression it builds with ``simplify_expr`` and
leaves out the writes ``_write_is_noop`` finds to be no-ops, so the
plans it emits hold only live regions. ``simplify_plan`` then drops the
binders nothing reads: pins of loop indices that no access or write
uses.
"""

from __future__ import annotations

import math
import operator
from dataclasses import replace

from .ir import (
    Add, And, Block, BoolC, Cmp, Cond, DiscLoop, Div, EndRef, Guard, IntersectLet,
    IvStart, IvStop, LastStop, LeafVal, LenOf, LetScalar, MaxOf, Mul, Neg, Not, Num,
    Or, PDense, PVar, Pin, Plan, Probe, Sub, Var, WhileCoiter, Write,
)

_CMP = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
}


def simplify_expr(e):
    if isinstance(e, (Num, BoolC, Var, LenOf, LeafVal)):
        return e
    if isinstance(e, (Add, Mul)):
        args = []
        for a in e.args:
            a = simplify_expr(a)
            if type(a) is type(e):
                args.extend(a.args)
            else:
                args.append(a)
        consts = [a.value for a in args if isinstance(a, Num)]
        rest = [a for a in args if not isinstance(a, Num)]
        if isinstance(e, Add):
            c = sum(consts)
            if not rest:
                return Num(c)
            if c != 0.0:
                rest.append(Num(c))
        else:
            c = math.prod(consts) if consts else 1.0
            if c == 0.0:
                return Num(0.0)
            if not rest:
                return Num(c)
            if c != 1.0:
                rest.insert(0, Num(c))
        if len(rest) == 1:
            return rest[0]
        return type(e)(tuple(rest))
    if isinstance(e, (And, Or)):
        absorb = isinstance(e, Or)  # true absorbs or, false absorbs and
        args = []
        for a in e.args:
            a = simplify_expr(a)
            if type(a) is type(e):
                args.extend(a.args)
            elif isinstance(a, BoolC):
                if a.value == absorb:
                    return BoolC(absorb)
            else:
                args.append(a)
        if not args:
            return BoolC(not absorb)
        if len(args) == 1:
            return args[0]
        return type(e)(tuple(args))
    if isinstance(e, Sub):
        a, b = simplify_expr(e.a), simplify_expr(e.b)
        if isinstance(a, Num) and isinstance(b, Num):
            return Num(a.value - b.value)
        if isinstance(b, Num) and b.value == 0.0:
            return a
        return Sub(a, b)
    if isinstance(e, Div):
        a, b = simplify_expr(e.a), simplify_expr(e.b)
        if isinstance(a, Num) and isinstance(b, Num) and b.value != 0.0:
            return Num(a.value / b.value)
        if isinstance(b, Num) and b.value == 1.0:
            return a
        return Div(a, b)
    if isinstance(e, Neg):
        a = simplify_expr(e.a)
        if isinstance(a, Num):
            return Num(-a.value)
        if isinstance(a, Neg):
            return a.a
        return Neg(a)
    if isinstance(e, Not):
        a = simplify_expr(e.a)
        if isinstance(a, BoolC):
            return BoolC(not a.value)
        if isinstance(a, Not):
            return a.a
        return Not(a)
    if isinstance(e, Cmp):
        a, b = simplify_expr(e.a), simplify_expr(e.b)
        if isinstance(a, Num) and isinstance(b, Num):
            return BoolC(_CMP[e.op](a.value, b.value))
        return Cmp(e.op, a, b)
    return e


def _write_is_noop(value, fill):
    """Whether writing value leaves a cell that holds fill, the
    operator's identity or the output's fill under "=", as it is."""
    if isinstance(value, Num):
        return not isinstance(fill, bool) and value.value == fill
    return isinstance(value, BoolC) and isinstance(fill, bool) and value.value == fill


# ---------------------------------------------------------------------------
# dead binding elimination


def _uses_pexpr(p, acc):
    if isinstance(p, PVar):
        acc.add(p.slot)
    elif isinstance(p, PDense):
        _uses_pexpr(p.parent, acc)
        _uses_expr(p.index, acc)
    # PRoot: nothing


def _uses_lexpr(e, acc):
    if isinstance(e, (IvStart, IvStop)):
        acc.add(e.slot)
    elif isinstance(e, EndRef):
        _uses_pexpr(e.pos, acc)
        if e.shift is not None:
            _uses_expr(e.shift, acc)
    elif isinstance(e, LastStop):
        _uses_pexpr(e.fiber, acc)
        if e.shift is not None:
            _uses_expr(e.shift, acc)
    elif isinstance(e, MaxOf):
        for a in e.ends:
            _uses_lexpr(a, acc)
    # LimC: nothing


def _uses_expr(e, acc):
    if isinstance(e, Var):
        acc.add(e.slot)
    elif isinstance(e, LenOf):
        acc.add(e.slot)
    elif isinstance(e, LeafVal):
        _uses_pexpr(e.pos, acc)
    elif isinstance(e, (Add, Mul, And, Or)):
        for a in e.args:
            _uses_expr(a, acc)
    elif isinstance(e, (Sub, Div)):
        _uses_expr(e.a, acc)
        _uses_expr(e.b, acc)
    elif isinstance(e, (Neg, Not)):
        _uses_expr(e.a, acc)
    elif isinstance(e, Cmp):
        _uses_expr(e.a, acc)
        _uses_expr(e.b, acc)
    # Num, BoolC: nothing


_NESTED = (DiscLoop, Guard, Cond, WhileCoiter)


def _reads(s, acc):
    """Add the slots statement s reads itself, not counting its body."""
    if isinstance(s, LetScalar):
        _uses_expr(s.expr, acc)
    elif isinstance(s, Probe):
        _uses_pexpr(s.parent, acc)
        _uses_expr(s.coord, acc)
        _uses_expr(s.shift, acc)
    elif isinstance(s, IntersectLet):
        for a in s.starts + s.stops:
            _uses_lexpr(a, acc)
    elif isinstance(s, Guard):
        acc.add(s.slot)
    elif isinstance(s, Cond):
        _uses_expr(s.test, acc)
    elif isinstance(s, Pin):
        _uses_lexpr(s.at, acc)
    elif isinstance(s, WhileCoiter):
        if s.range_slot is not None:
            acc.add(s.range_slot)
        for st in s.steppers:
            _uses_pexpr(st.fiber, acc)
            if st.shift is not None:
                _uses_expr(st.shift, acc)
    elif isinstance(s, Write):
        for c in s.path:
            if c[0] == "iv":
                acc.add(c[1])
            else:
                _uses_expr(c[1], acc)
        _uses_expr(s.value, acc)


def used_slots(s, acc=None):
    """Slots referenced anywhere below s, not counting binding positions."""
    if acc is None:
        acc = set()
    if isinstance(s, Block):
        for x in s.stmts:
            used_slots(x, acc)
        return acc
    _reads(s, acc)
    if isinstance(s, _NESTED):
        used_slots(s.body, acc)
    return acc


def _drop_dead(s, live):
    """s without the binders that nothing after them reads, or None when
    nothing is left of it. One backward sweep: live holds the slots read
    by what follows s, and gains those s reads."""
    if isinstance(s, Block):
        kept = [x for x in (_drop_dead(x, live) for x in reversed(s.stmts)) if x is not None]
        return Block(tuple(reversed(kept))) if kept else None
    if isinstance(s, (LetScalar, Probe, IntersectLet, Pin)) and s.slot not in live:
        return None
    if isinstance(s, _NESTED):
        body = _drop_dead(s.body, live)
        if body is None:
            return None
        s = replace(s, body=body)
    _reads(s, live)
    return s


def simplify_plan(plan: Plan) -> Plan:
    return replace(plan, body=_drop_dead(plan.body, set()) or Block())
