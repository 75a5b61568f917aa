"""Plan execution.

Statements compile once into Python closures over a flat slot
environment. Seeks, probes and endpoint reads go to each sparse level's
``PieceTable``, which storage built and checked when the tensor was
validated, so a run builds no per-piece data of its own. The output is
gathered into a path-keyed store and rebuilt as a tensor at the end,
with overlap checking and canonical merging of equal touching pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .intervals import Interval
from .limits import EPS, Limit
from .ir import (
    Accumulate, Add, And, Block, BoolC, Cmp, Cond, DiscLoop, Div, EmitPiece,
    EndRef, Guard, IntersectLet, IvStart, IvStop, LastStop, LeafVal, LenOf,
    LetScalar, LimC, Mul, Neg, Not, Num, Or, OutputDecl, PDense, PRoot, PVar,
    Pin, Plan, Probe, Sub, SumGuard, Var, WhileCoiter,
)
from .storage import ContTensor, OverlapError, PieceTable, build_tensor


class ExecError(RuntimeError):
    """Internal invariant breach during execution."""


@dataclass
class ExecStats:
    multiplies: int = 0
    segments_visited: int = 0
    pieces_emitted: int = 0


@dataclass
class ExecResult:
    output: object  # ContTensor, or a plain scalar for rank-0 outputs
    stats: ExecStats
    diagnostics: list = field(default_factory=list)


_CMP = {
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b, "!=": lambda a, b: a != b,
}


class _Compiler:
    def __init__(self, plan: Plan):
        self.plan = plan
        self.stats = ExecStats()
        self.store = _Store(plan.output)

    def table(self, tensor: str, level: int) -> PieceTable:
        return self.plan.bindings[tensor].levels[level].table

    # ---- position expressions: env -> entry index (or -1 for a miss)

    def pexpr(self, p):
        if isinstance(p, PRoot):
            return lambda env: 0
        if isinstance(p, PVar):
            slot = p.slot
            return lambda env: env[slot]
        if isinstance(p, PDense):
            parent = self.pexpr(p.parent)
            idx = self.expr(p.index)
            size = p.size

            def dense(env):
                f = parent(env)
                if f < 0:
                    return -1
                i = int(idx(env))
                if 0 <= i < size:
                    return f * size + i
                return -1

            return dense
        raise ExecError(f"bad position {p!r}")

    # ---- scalar expressions: env -> float | bool

    def expr(self, e):
        if isinstance(e, Num):
            v = e.value
            return lambda env: v
        if isinstance(e, BoolC):
            v = e.value
            return lambda env: v
        if isinstance(e, Var):
            slot = e.slot
            return lambda env: env[slot]
        if isinstance(e, LenOf):
            slot = e.slot

            def length(env):
                s, t = env[slot]
                return max(0.0, t.val - s.val)

            return length
        if isinstance(e, LeafVal):
            pos = self.pexpr(e.pos)
            values = self.plan.bindings[e.tensor].values
            fill = e.fill

            def leaf(env):
                p = pos(env)
                return fill if p < 0 else values[p]

            return leaf
        if isinstance(e, (Add, Mul, And, Or)):
            args = [self.expr(a) for a in e.args]
            if isinstance(e, Add):
                return lambda env: sum(a(env) for a in args)
            if isinstance(e, Mul):

                def mul(env):
                    out = 1.0
                    for a in args:
                        out *= a(env)
                    return out

                return mul
            if isinstance(e, And):
                return lambda env: all(a(env) for a in args)
            return lambda env: any(a(env) for a in args)
        if isinstance(e, Sub):
            a, b = self.expr(e.a), self.expr(e.b)
            return lambda env: a(env) - b(env)
        if isinstance(e, Div):
            a, b = self.expr(e.a), self.expr(e.b)
            return lambda env: a(env) / b(env)
        if isinstance(e, Neg):
            a = self.expr(e.a)
            return lambda env: -a(env)
        if isinstance(e, Not):
            a = self.expr(e.a)
            return lambda env: not a(env)
        if isinstance(e, Cmp):
            a, b, op = self.expr(e.a), self.expr(e.b), _CMP[e.op]
            return lambda env: op(a(env), b(env))
        raise ExecError(f"bad expression {e!r}")

    # ---- endpoint expressions: env -> Limit

    def lexpr(self, e):
        if isinstance(e, LimC):
            v = e.value
            return lambda env: v
        if isinstance(e, IvStart):
            slot = e.slot
            return lambda env: env[slot][0]
        if isinstance(e, IvStop):
            slot = e.slot
            return lambda env: env[slot][1]
        if isinstance(e, EndRef):
            t = self.table(e.tensor, e.level)
            side = t.starts if e.side in ("L", "C") else t.stops
            pos = self.pexpr(e.pos)
            shift = self.expr(e.shift) if e.shift is not None else None
            off = e.eps_off

            def endref(env):
                p = pos(env)
                if p < 0:
                    raise ExecError("endpoint of a missing entry")
                v = side[p]
                if shift is not None:
                    v = Limit(v.val - shift(env), v.eps)
                if off:
                    v = Limit(v.val, max(-1, min(1, v.eps + off)))
                return v

            return endref
        if isinstance(e, LastStop):
            t = self.table(e.tensor, e.level)
            fiber = self.pexpr(e.fiber)
            shift = self.expr(e.shift) if e.shift is not None else None
            off = e.eps_off

            def last(env):
                v = t.last_stop(fiber(env))
                if shift is not None:
                    v = Limit(v.val - shift(env), v.eps)
                if off:
                    v = Limit(v.val, max(-1, min(1, v.eps + off)))
                return v

            return last
        raise ExecError(f"bad endpoint {e!r}")

    # ---- statements: env -> None

    def stmt(self, s):
        if isinstance(s, Block):
            body = [self.stmt(x) for x in s.stmts]

            def block(env):
                for b in body:
                    b(env)

            return block
        if isinstance(s, DiscLoop):
            slot, lo, hi = s.slot, s.lo, s.hi
            body = self.stmt(s.body)

            def loop(env):
                for i in range(lo, hi + 1):
                    env[slot] = i
                    body(env)

            return loop
        if isinstance(s, LetScalar):
            slot, ex = s.slot, self.expr(s.expr)

            def let(env):
                env[slot] = ex(env)

            return let
        if isinstance(s, Probe):
            slot = s.slot
            t = self.table(s.tensor, s.level)
            parent = self.pexpr(s.parent)
            coord = self.expr(s.coord)

            def probe(env):
                env[slot] = t.probe(parent(env), Limit(coord(env)))

            return probe
        if isinstance(s, IntersectLet):
            slot = s.slot
            starts = [self.lexpr(a) for a in s.starts]
            stops = [self.lexpr(a) for a in s.stops]

            def intersect(env):
                env[slot] = (max(a(env) for a in starts),
                             min(a(env) for a in stops))

            return intersect
        if isinstance(s, Guard):
            slot = s.slot
            body = self.stmt(s.body)

            def guard(env):
                a, b = env[slot]
                if a <= b:
                    body(env)

            return guard
        if isinstance(s, Cond):
            test = self.expr(s.test)
            body = self.stmt(s.body)

            def cond(env):
                if test(env):
                    body(env)

            return cond
        if isinstance(s, Pin):
            slot, iv_slot = s.slot, s.iv_slot

            def pin(env):
                a, b = env[iv_slot]
                if a != b:
                    raise ExecError(f"pin of a non-degenerate region [{a}, {b}]")
                env[slot] = a.val

            return pin
        if isinstance(s, WhileCoiter):
            return self._coiter(s)
        if isinstance(s, (Accumulate, EmitPiece)):
            return self._write(s)
        if isinstance(s, SumGuard):
            slot = s.iv_slot
            body = self.stmt(s.body)

            def sumguard(env):
                a, b = env[slot]
                if b.val - a.val == 0.0:
                    body(env)

            return sumguard
        raise ExecError(f"bad statement {s!r}")

    def _coiter(self, s: WhileCoiter):
        range_slot, cursor_slot, curr_slot = s.range_slot, s.cursor_slot, s.curr_slot
        body = self.stmt(s.body)
        steppers = []
        for st in s.steppers:
            steppers.append((
                st.pos_slot,
                self.table(st.tensor, st.level),
                self.pexpr(st.fiber),
                self.expr(st.shift) if st.shift is not None else None,
            ))
        stats = self.stats

        def coiter(env):
            lo, hi = env[range_slot]
            if lo > hi:
                return
            live = []
            for slot, t, fiber, shift in steppers:
                f = fiber(env)
                sh = shift(env) if shift is not None else 0.0
                target = Limit(lo.val + sh, lo.eps)
                p = t.seek(f, target)
                # the shifted target can be an ulp off the loop-space
                # comparison every later step uses; settle membership
                # where the rest of the co-iteration lives
                while p > t.ptr[f] and Limit(
                        t.stops[p - 1].val - sh, t.stops[p - 1].eps) >= lo:
                    p -= 1
                while p < t.ptr[f + 1] and Limit(
                        t.stops[p].val - sh, t.stops[p].eps) < lo:
                    p += 1
                if p >= t.ptr[f + 1]:
                    raise ExecError("stepper sought past its fiber")
                env[slot] = p
                live.append((slot, t, f, sh))
            cursor = lo
            while cursor <= hi:
                stats.segments_visited += 1
                stop = hi
                for slot, t, f, sh in live:
                    r = t.stops[env[slot]]
                    r = Limit(r.val - sh, r.eps)
                    if r < stop:
                        stop = r
                env[cursor_slot] = cursor
                env[curr_slot] = (cursor, stop)
                body(env)
                for slot, t, f, sh in live:
                    r = t.stops[env[slot]]
                    if Limit(r.val - sh, r.eps) == stop:
                        env[slot] += 1
                nxt = stop + EPS
                if not nxt > cursor:
                    raise ExecError("co-iteration failed to advance")
                cursor = nxt

        return coiter

    def _write(self, s):
        value = self.expr(s.value)
        op = s.op
        store = self.store
        stats = self.stats
        leaf_pos = []
        if s.two_tensor:
            leaf_pos = [self.pexpr(l.pos) for l in _leaves(s.value)]
        if isinstance(s, Accumulate):
            path = [self.expr(c) for c in s.path]

            def acc(env):
                if leaf_pos and all(p(env) >= 0 for p in leaf_pos):
                    stats.multiplies += 1
                store.put(tuple(int(c(env)) for c in path), op, value(env))

            return acc

        comps = []
        for c in s.path:
            if c[0] == "d":
                comps.append(("d", self.expr(c[1])))
            elif c[0] == "p":
                comps.append(("p", self.expr(c[1])))
            else:
                comps.append(("iv", c[1]))

        def emit(env):
            if leaf_pos and all(p(env) >= 0 for p in leaf_pos):
                stats.multiplies += 1
            stats.pieces_emitted += 1
            key = []
            for kind, x in comps:
                if kind == "d":
                    key.append(int(x(env)))
                elif kind == "p":
                    v = x(env)
                    key.append((Limit(v), Limit(v)))
                else:
                    key.append(env[x])
            store.put(tuple(key), op, value(env))

        return emit


def _leaves(e, out=None):
    if out is None:
        out = []
    if isinstance(e, LeafVal):
        out.append(e)
    elif isinstance(e, (Add, Mul, And, Or)):
        for a in e.args:
            _leaves(a, out)
    elif isinstance(e, (Sub, Div, Cmp)):
        _leaves(e.a, out)
        _leaves(e.b, out)
    elif isinstance(e, (Neg, Not)):
        _leaves(e.a, out)
    return out


# ---------------------------------------------------------------------------
# output store


def _apply(op, old, new, path):
    if op == "+=":
        return old + new
    if op == "|=":
        return old or new
    if op == "&=":
        return old and new
    if op == "max=":
        return max(old, new)
    if op == "min=":
        return min(old, new)
    raise OverlapError(f"output cell {path} assigned twice")


class _Store:
    """Accumulates writes by full output path, then rebuilds a tensor.

    Path components are ints for dense ranks and (start, stop) Limit
    pairs for continuous ranks. Identical paths combine through the
    reduction operator; overlapping but non-identical pieces are a
    layout fault, except that equal-valued pieces that touch are merged
    back into one (finalize canonicalizes before building levels).
    """

    def __init__(self, decl: OutputDecl):
        self.decl = decl
        self.cells = {}

    def put(self, path: tuple, op: str, value):
        old = self.cells.get(path)
        if old is None:
            self.cells[path] = value if op == "=" else _apply(op, self.decl.fill, value, path)
        else:
            self.cells[path] = _apply(op, old, value, path)

    def finalize(self):
        decl = self.decl
        if not decl.comps:
            vals = list(self.cells.values())
            if len(vals) > 1:
                raise ExecError("scalar output written under distinct paths")
            return vals[0] if vals else decl.fill
        live = {k: v for k, v in self.cells.items() if v != decl.fill}
        root = self._fiber(live, 0)
        specs = []
        for comp in decl.comps:
            if comp[0] == "dense":
                specs.append(("dense", comp[1]))
            else:
                specs.append((comp[0],))
        return build_tensor(decl.name, specs, root, fill=decl.fill)

    def _default(self, depth):
        """Shape of an untouched subtree at this depth."""
        if depth == len(self.decl.comps):
            return self.decl.fill
        comp = self.decl.comps[depth]
        if comp[0] == "dense":
            return [self._default(depth + 1) for _ in range(comp[1])]
        return []

    def _fiber(self, cells, depth):
        comp = self.decl.comps[depth]
        last = depth == len(self.decl.comps) - 1
        groups = {}
        for path, v in cells.items():
            groups.setdefault(path[depth], {})[path] = v

        def child(sub):
            if last:
                (v,) = sub.values()
                return v
            return self._fiber(sub, depth + 1)

        if comp[0] == "dense":
            out = [self._default(depth + 1) for _ in range(comp[1])]
            for k in sorted(groups):
                out[k] = child(groups[k])
            return out

        entries = sorted(groups)  # (start, stop) Limit pairs sort correctly
        merged = []
        for key in entries:
            iv = Interval(*key)
            node = child(groups[key])
            if merged:
                piv, pnode = merged[-1]
                if key[0] <= piv.stop:
                    raise OverlapError(
                        f"output pieces {piv} and {iv} overlap on {self.decl.name}"
                    )
                if last and pnode == node and piv.touches_below(iv):
                    merged[-1] = (Interval(piv.start, iv.stop), pnode)
                    continue
            merged.append((iv, node))
        out = []
        for iv, node in merged:
            key = iv.start.val if comp[0] == "pinpoint" else iv
            out.append((key, node))
        return out


def run(plan: Plan) -> ExecResult:
    c = _Compiler(plan)
    body = c.stmt(plan.body)
    env = [None] * max(1, plan.n_slots)
    body(env)
    out = c.store.finalize()
    diags = []
    leaves = out.values if isinstance(out, ContTensor) else (out,)
    if any(isinstance(v, float) and math.isnan(v) for v in leaves):
        diags.append(f"output {plan.output.name} contains NaN values")
    return ExecResult(out, c.stats, diags)


__all__ = ["ExecError", "ExecResult", "ExecStats", "run"]
