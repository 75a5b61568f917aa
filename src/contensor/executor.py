"""Plan execution by generated code.

``kernel_source`` renders a plan as the source of one Python function:
every plan slot is a local, every co-iteration one ``while`` loop with
its steppers written out as int locals, and endpoints are compared
inline as ``(val, eps)`` tuples, which order exactly as the ``Limit``
entries of each sparse level's ``PieceTable`` do. The function reads
those tables and the leaf values from the bindings, keeps the
``ExecStats`` counters in local ints and sends every write to the
output store. Compiled kernels are cached by their source text, so a
plan run again (or an equal plan over new data) pays no ``compile()``,
while plans that equality would merge but that render differently
(fill ``True`` vs ``1.0``) keep separate kernels.

Writes are gathered into a path-keyed store and rebuilt as a tensor at
the end, with overlap checking, reductions combined over overlapping
pieces and canonical merging of equal touching pieces.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass, field

from .intervals import Interval
from .limits import ABOVE, BELOW, EPS, Limit
from .ir import (
    Accumulate, Add, And, Block, BoolC, Cmp, Cond, DiscLoop, Div, EmitPiece,
    EndRef, Guard, IntersectLet, IvStart, IvStop, LastStop, LeafVal, LenOf,
    LetScalar, LimC, Mul, Neg, Not, Num, Or, OutputDecl, PDense, PRoot,
    PVar, Pin, Plan, Probe, Sub, SumGuard, Var, WhileCoiter,
)
from .storage import ContTensor, OverlapError, build_tensor


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


# ---------------------------------------------------------------------------
# what generated kernels see besides their arguments

_new_tuple = tuple.__new__
_NEG_OPEN = Limit(-math.inf, ABOVE)
_POS_OPEN = Limit(math.inf, BELOW)


def _limit(t) -> Limit:
    """A (val, eps) pair as a Limit; table entries pass through unchanged."""
    return t if type(t) is Limit else _new_tuple(Limit, t)


def _piece(lo, hi):
    """A written region as a (start, stop) Limit pair in the form the oracle
    writes: an end at -inf or inf is open, since no real number lies
    there. None when no real number lies in it at all (a point at -inf
    or inf), so equal sets always give equal keys."""
    lo = _NEG_OPEN if lo[0] == -math.inf else _limit(lo)
    hi = _POS_OPEN if hi[0] == math.inf else _limit(hi)
    return (lo, hi) if lo <= hi else None


def _point(v) -> tuple:
    return Limit(v), Limit(v)


def _missing():
    raise ExecError("endpoint of a missing entry")


def _seek(table, f: int, lo: tuple, sh) -> int:
    """A stepper's first position in fiber f: the first piece whose stop,
    shifted back by sh, is at or past lo."""
    p = table.seek(f, (lo[0] + sh, lo[1]))
    ptr, stops = table.ptr, table.stops
    beg, end = ptr[f], ptr[f + 1]
    # the shifted target can be an ulp off the loop-space comparison
    # every later step uses; settle membership where the rest of the
    # co-iteration lives
    while p > beg and (stops[p - 1][0] - sh, stops[p - 1][1]) >= lo:
        p -= 1
    while p < end and (stops[p][0] - sh, stops[p][1]) < lo:
        p += 1
    if p >= end:
        raise ExecError("stepper sought past its fiber")
    return p


def _probe(table, f: int, x: float, sh) -> int:
    """Position of fiber f's piece holding x once its ends are shifted back
    by sh, compared as steppers compare them; -1 if none or f < 0."""
    if f < 0:
        return -1
    last = table.ptr[f + 1] - 1
    if last < table.ptr[f] or (table.stops[last][0] - sh, table.stops[last][1]) < (x, 0):
        return -1  # every shifted stop lies below x: _seek would pass the fiber
    p = _seek(table, f, (x, 0), sh)
    return p if (table.starts[p][0] - sh, table.starts[p][1]) <= (x, 0) else -1


def _pin_error(a, b):
    raise ExecError(f"pin of a non-degenerate region [{_limit(a)}, {_limit(b)}]")


_GLOBALS = {
    "_seek": _seek, "_probe": _probe, "_piece": _piece, "_point": _point, "_missing": _missing,
    "_pin_error": _pin_error, "_ExecError": ExecError, "_INF": math.inf, "_NAN": math.nan,
}
# Every name the generator makes ends in a suffix no other kind of name
# has, and slot locals end in "_<slot>". The kernel's temporaries (_e, _n,
# _d, _p, _t, _v, and _k<n> for the n-th region in a write's path) are
# each consumed right after they are set, before any other use of the
# same name can run, so one of each serves the kernel.
_CLAMP = {
    1: "(_v[1] + 1 if _v[1] < 1 else 1)",
    -1: "(_v[1] - 1 if _v[1] > -1 else -1)",
}


def _lit(v) -> str:
    if isinstance(v, float):
        if v != v:
            return "_NAN"
        if math.isinf(v):
            return "_INF" if v > 0 else "(-_INF)"
    s = repr(v)
    return f"({s})" if s.startswith("-") else s


def _ident(tensor: str, k: int) -> str:
    """The tensor's name if it is plain ASCII, else "<k>u": a lang
    identifier never starts with a digit, so the two cannot meet."""
    return tensor if tensor.isascii() and tensor.isidentifier() else f"{k}u"


def _simple(code: str) -> bool:
    """A local name or an int literal: safe to repeat in generated code."""
    return code.isidentifier() or code.isdigit()


_IND = "    "


class _Source:
    """Renders one plan as the source of ``kernel(_b, _put)``.

    ``_b`` maps tensor names to bound tensors and ``_put`` is the output
    store's ``put``; the kernel returns its (segments, multiplies,
    pieces emitted) counters. A region slot becomes two locals (its
    start and stop), every other slot one. Each rendering means exactly
    what its plan node means, down to value types: a ``Mul`` starts from
    1.0, ``And``/``Or`` give bools, ``Add`` is ``sum``, and a shift
    subtracts from the stored value the way ``Limit`` arithmetic does.
    """

    def __init__(self, plan: Plan):
        self.plan = plan
        self.slots = {}  # slot -> local, or (lo, hi) locals for a region
        self.tables = {}  # (tensor, level) -> "_<tag>_<level>"
        self.values = {}  # tensor -> "_<tag>_vals"
        self.dense = 0  # dense positions rendered so far
        self.leaf_pos = None  # positions of the leaves of the value being written
        self.lines = []

    def source(self) -> str:
        self.stmt(self.plan.body, _IND)
        head = ["def kernel(_b, _put):"]
        for (tensor, level), t in self.tables.items():
            head.append(f"    {t}_table = _b[{tensor!r}].levels[{level}].table\n"
                        f"    {t}_starts, {t}_stops = {t}_table.starts, {t}_table.stops")
        for tensor, vals in self.values.items():
            head.append(f"    {vals} = _b[{tensor!r}].values")
        head.append("    _seg = _mul = _emit = 0")
        return "\n".join([*head, *self.lines, "    return _seg, _mul, _emit", ""])

    # ---- names: a slot's local is "<name>_<slot>" (or "v_<slot>" for a
    # name that is not plain ASCII), so the slot number keeps it unique

    def var(self, slot: int, name: str) -> str:
        local = self.slots.get(slot)
        if local is None:
            ok = name.isascii() and name.isidentifier()
            local = self.slots[slot] = f"{name if ok else 'v'}_{slot}"
        return local

    def region(self, slot: int, name: str) -> tuple:
        pair = self.slots.get(slot)
        if pair is None:
            v = self.var(slot, name)
            pair = self.slots[slot] = (f"{v}_lo", f"{v}_hi")
        return pair

    def table(self, tensor: str, level: int) -> str:
        """Prefix of the locals of a level's PieceTable: <prefix>_table, and
        its columns <prefix>_starts and _stops."""
        t = self.tables.get((tensor, level))
        if t is None:
            t = self.tables[(tensor, level)] = f"_{_ident(tensor, len(self.tables))}_{level}"
        return t

    def vals(self, tensor: str) -> str:
        v = self.values.get(tensor)
        if v is None:
            v = self.values[tensor] = f"_{_ident(tensor, len(self.values))}_vals"
        return v

    # ---- position expressions: an int, -1 for a miss

    def pexpr(self, p) -> str:
        if type(p) is PVar:
            return self.var(p.slot, p.name)
        if type(p) is PRoot:
            return "0"
        if type(p) is PDense:
            # own temporaries: the index may itself read a dense position
            parent = self.pexpr(p.parent)
            self.dense += 1
            i, f = f"_i{self.dense}", f"_f{self.dense}"
            idx = f"0 <= ({i} := int({self.expr(p.index)})) < {p.size}"
            if parent == "0":
                return f"({i} if {idx} else -1)"
            return f"({f} * {p.size} + {i} if ({f} := {parent}) >= 0 and {idx} else -1)"
        raise ExecError(f"bad position {p!r}")

    # ---- scalar expressions

    def expr(self, e) -> str:
        return _EXPR.get(type(e), _Source.bad_expr)(self, e)

    def bad_expr(self, e):
        raise ExecError(f"bad expression {e!r}")

    def const(self, e) -> str:
        return _lit(e.value)

    def var_expr(self, e: Var) -> str:
        return self.var(e.slot, e.name)

    def leaf(self, e: LeafVal) -> str:
        vals = self.vals(e.tensor)
        p = self.pexpr(e.pos)
        if self.leaf_pos is not None:
            self.leaf_pos.append(p)
        if p == "0":
            return f"{vals}[0]"
        if _simple(p):
            return f"({vals}[{p}] if {p} >= 0 else {_lit(e.fill)})"
        return f"({vals}[_t] if (_t := {p}) >= 0 else {_lit(e.fill)})"

    def length(self, e: LenOf) -> str:
        lo, hi = self.region(e.slot, e.name)
        return f"(_d if (_d := {hi}[0] - {lo}[0]) > 0.0 else 0.0)"

    def mul(self, e: Mul) -> str:
        args = [self.expr(a) for a in e.args]
        k = len(args)
        while k and type(e.args[k - 1]) is LenOf:
            k -= 1
        if 0 < k < len(args):
            # lowering appends the region lengths last; a summand that is 0
            # adds nothing even on an infinite region, as in the oracle
            head = " * ".join(["1.0", *args[:k]])
            return f"(_p * {' * '.join(args[k:])} if (_p := {head}) else _p)"
        return "(" + " * ".join(["1.0", *args]) + ")"

    def add(self, e: Add) -> str:
        return f"sum(({', '.join(map(self.expr, e.args))},))" if e.args else "0"

    def logic(self, e) -> str:
        if not e.args:
            return "True" if type(e) is And else "False"
        op = " and " if type(e) is And else " or "
        return f"(True if {op.join(map(self.expr, e.args))} else False)"

    def binary(self, e) -> str:
        op = " - " if type(e) is Sub else " / "
        return f"({self.expr(e.a)}{op}{self.expr(e.b)})"

    def unary(self, e) -> str:
        op = "-" if type(e) is Neg else "not "
        return f"({op}{self.expr(e.a)})"

    def cmp(self, e: Cmp) -> str:
        if e.op not in ("<", "<=", ">", ">=", "==", "!="):
            self.bad_expr(e)
        return f"({self.expr(e.a)} {e.op} {self.expr(e.b)})"

    # ---- endpoint expressions: (val, eps) tuples

    def lexpr(self, e) -> str:
        t = type(e)
        if t is EndRef:
            col = self.table(e.tensor, e.level) + ("_starts" if e.side in ("L", "C") else "_stops")
            p = self.pexpr(e.pos)
            if _simple(p):
                base = f"({col}[{p}] if {p} >= 0 else _missing())"
            else:
                base = f"({col}[_t] if (_t := {p}) >= 0 else _missing())"
            if e.shift is None and not e.eps_off:
                return base
            return self.adjust(base, e.shift, e.eps_off)
        if t is IvStart:
            return self.region(e.slot, e.name)[0]
        if t is IvStop:
            return self.region(e.slot, e.name)[1]
        if t is LastStop:
            base = f"{self.table(e.tensor, e.level)}_table.last_stop({self.pexpr(e.fiber)})"
            return self.adjust(base, e.shift, e.eps_off)
        if t is LimC:
            return f"({_lit(e.value.val)}, {e.value.eps})"
        raise ExecError(f"bad endpoint {e!r}")

    def adjust(self, base: str, shift, off: int) -> str:
        """Shift an endpoint back through the access map, then nudge its eps."""
        if shift is None and not off:
            return base
        val = f"(_v := {base})[0]"
        if shift is not None:
            val += f" - {self.expr(shift)}"
        eps = _CLAMP.get(off) or (f"max(-1, min(1, _v[1] + {off}))" if off else "_v[1]")
        return f"({val}, {eps})"

    # ---- statements; pad is the indentation of the statement

    def stmt(self, s, pad: str):
        _STMT.get(type(s), _Source.bad_stmt)(self, s, pad)

    def bad_stmt(self, s, pad: str):
        raise ExecError(f"bad statement {s!r}")

    def block(self, s: Block, pad: str):
        if not s.stmts:
            self.lines.append(pad + "pass")
        for x in s.stmts:
            self.stmt(x, pad)

    def nested(self, head: str, body, pad: str):
        self.lines.append(pad + head)
        self.stmt(body, pad + _IND)

    def guard(self, s: Guard, pad: str):
        lo, hi = self.region(s.slot, s.name)
        self.nested(f"if {lo} <= {hi}:", s.body, pad)

    def cond(self, s: Cond, pad: str):
        self.nested(f"if {self.expr(s.test)}:", s.body, pad)

    def sum_guard(self, s: SumGuard, pad: str):
        lo, hi = self.region(s.iv_slot, s.iv_name)
        self.nested(f"if {hi}[0] - {lo}[0] == 0.0:", s.body, pad)

    def disc_loop(self, s: DiscLoop, pad: str):
        self.nested(f"for {self.var(s.slot, s.name)} in range({s.lo}, {s.hi + 1}):", s.body, pad)

    def let(self, s: LetScalar, pad: str):
        self.lines.append(f"{pad}{self.var(s.slot, s.name)} = {self.expr(s.expr)}")

    def pin(self, s: Pin, pad: str):
        lo, hi = self.region(s.iv_slot, s.iv_name)
        self.lines.append(f"{pad}if {lo} != {hi}:\n{pad}{_IND}_pin_error({lo}, {hi})\n"
                          f"{pad}{self.var(s.slot, s.name)} = {lo}[0]")

    def probe(self, s: Probe, pad: str):
        t, f, x = self.table(s.tensor, s.level), self.pexpr(s.parent), self.expr(s.coord)
        if s.shift == Num(0.0):
            # at shift 0 the table's own probe finds the same position without
            # _probe's shifted comparisons (genomic's grid kernel ran 8% slower
            # with every probe through _probe)
            find = f"{t}_table.probe({f}, ({x}, 0))"
        else:
            find = f"_probe({t}_table, {f}, {x}, {self.expr(s.shift)})"
        self.lines.append(f"{pad}{self.var(s.slot, s.name)} = {find}")

    def intersect(self, s: IntersectLet, pad: str):
        """Region = [max(starts), min(stops)]; ties keep the first, as max/min do."""
        if not s.starts or not s.stops:
            raise ExecError(f"region {s.name} has no start or no stop")
        lo, hi = self.region(s.slot, s.name)
        lexpr = self.lexpr
        out = []
        for target, ops, cmp in ((lo, s.starts, ">"), (hi, s.stops, "<")):
            out.append(f"{pad}{target} = {lexpr(ops[0])}")
            tail = f"\n{pad}if _e {cmp} {target}:\n{pad}{_IND}{target} = _e"
            out.extend(f"{pad}_e = {lexpr(a)}{tail}" for a in ops[1:])
        self.lines.append("\n".join(out))

    def coiter(self, s: WhileCoiter, pad: str):
        lo, hi = self.region(s.range_slot, s.range_name)
        cur = self.var(s.cursor_slot, s.cursor_name)
        seg_lo, stop = self.region(s.curr_slot, s.curr_name)
        add = self.lines.append
        add(f"{pad}if not {lo} > {hi}:")
        pad += _IND
        i = pad + _IND
        steppers = []
        for st in s.steppers:
            p = self.var(st.pos_slot, st.pos_name)
            t = self.table(st.tensor, st.level)
            sh, shift = None, "0.0"
            if st.shift is not None:
                sh = f"_{p}_sh"
                shift = f"({sh} := {self.expr(st.shift)})"
            add(f"{pad}{p} = _seek({t}_table, {self.pexpr(st.fiber)}, {lo}, {shift})")
            steppers.append((p, t, sh, f"_{p}_stop"))
        add(f"{pad}{cur} = {lo}\n{pad}while {cur} <= {hi}:\n{i}_seg += 1\n{i}{stop} = {hi}")
        pad, i = i, i + _IND
        for p, t, sh, r in steppers:
            if sh is None:
                # the stored stop in value; subtracting 0.0 gives it the
                # type a shifted stop has
                add(f"{pad}{r} = {t}_stops[{p}]\n{pad}if {r} < {stop}:\n"
                    f"{i}{stop} = ({r}[0] - 0.0, {r}[1])")
            else:
                add(f"{pad}{r} = {t}_stops[{p}]\n{pad}{r} = ({r}[0] - {sh}, {r}[1])\n"
                    f"{pad}if {r} < {stop}:\n{i}{stop} = {r}")
        add(f"{pad}{seg_lo} = {cur}")
        self.stmt(s.body, pad)
        for p, t, sh, r in steppers:
            add(f"{pad}if {r} == {stop}:\n{i}{p} += 1")
        # the cursor moves to stop + EPS, the first endpoint past the segment
        add(f"{pad}_n = ({stop}[0] + 0.0, {stop}[1] + 1 if {stop}[1] < 1 else 1)\n"
            f"{pad}if not _n > {cur}:\n"
            f'{i}raise _ExecError("co-iteration failed to advance")\n'
            f"{pad}{cur} = _n")

    def write(self, s, pad: str):
        add = self.lines.append
        # a region's key is None where its set is empty; such a write is
        # dropped, after it is counted
        key, present = [], []
        if type(s) is Accumulate:
            key = [f"int({self.expr(c)})" for c in s.path]
        else:
            for c in s.path:
                if c[0] == "d":
                    key.append(f"int({self.expr(c[1])})")
                elif c[0] == "p":
                    key.append(f"_point({self.expr(c[1])})")
                else:
                    k = f"_k{len(present)}"
                    present.append("({} := _piece({}, {})) is not None".format(
                        k, *self.region(c[1], c[2])))
                    key.append(k)
        self.leaf_pos = []
        value = self.expr(s.value)
        leaves, self.leaf_pos = self.leaf_pos, None
        if s.two_tensor and leaves:
            # a multiply is counted where every leaf is stored, not fill
            tests = " and ".join(f"{p} >= 0" for p in leaves if p != "0")
            add(f"{pad}if {tests}:\n{pad}{_IND}_mul += 1" if tests else f"{pad}_mul += 1")
        if type(s) is EmitPiece:
            add(f"{pad}_emit += 1")
        path = f"({', '.join(key)},)" if key else "()"
        if present:
            add(f"{pad}if {' and '.join(present)}:")
            pad += _IND
        add(f"{pad}_put({path}, {s.op!r}, {value})")


_EXPR = {
    Num: _Source.const, BoolC: _Source.const, Var: _Source.var_expr,
    LeafVal: _Source.leaf, LenOf: _Source.length, Mul: _Source.mul, Add: _Source.add,
    And: _Source.logic, Or: _Source.logic, Sub: _Source.binary, Div: _Source.binary,
    Neg: _Source.unary, Not: _Source.unary, Cmp: _Source.cmp,
}
_STMT = {
    Block: _Source.block, IntersectLet: _Source.intersect, Guard: _Source.guard,
    Accumulate: _Source.write, EmitPiece: _Source.write, WhileCoiter: _Source.coiter,
    DiscLoop: _Source.disc_loop, LetScalar: _Source.let, Probe: _Source.probe,
    Cond: _Source.cond, Pin: _Source.pin, SumGuard: _Source.sum_guard,
}


def kernel_source(plan: Plan) -> str:
    """The Python source ``run`` compiles and calls for this plan."""
    return _Source(plan).source()


@functools.lru_cache(maxsize=128)
def _kernel(source: str):
    namespace = dict(_GLOBALS)
    exec(compile(source, "<contensor kernel>", "exec"), namespace)
    return namespace["kernel"]


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
    pairs for continuous ranks, written in one form per set (``_piece``),
    so writes to the same set have identical paths and combine through
    the reduction operator. Overlapping but non-identical pieces are a
    layout fault under "=". Under a reduction they are split where any
    of them ends and combined through it: a loop outside a continuous
    output rank cuts each iteration's pieces differently. Finalize
    merges touching pieces with equal contents at every level, as the
    oracle does.
    """

    def __init__(self, decl: OutputDecl):
        self.decl = decl
        self.op = "="  # a plan writes with one operator
        self.cells = {}

    def put(self, path: tuple, op: str, value):
        self.op = op
        if op == "=" and value == self.decl.fill:
            return  # assigning the fill leaves the cell as it is
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

    @staticmethod
    def _group(cells, depth) -> dict:
        """Cells by their component at depth."""
        groups = {}
        for path, v in cells.items():
            groups.setdefault(path[depth], {})[path] = v
        return groups

    def _overlay(self, cells, depth) -> dict:
        """Cells with their pieces at depth split into the elementary pieces
        all their ends cut the line into, combined through the operator."""
        # a cut is the first endpoint of what follows it
        cuts = sorted({c for path in cells for c in (path[depth][0], path[depth][1] + EPS)})
        out = {}
        for path, v in cells.items():
            start, stop = path[depth]
            for k in range(bisect_left(cuts, start), bisect_left(cuts, stop + EPS)):
                sub = (*path[:depth], (cuts[k], cuts[k + 1] - EPS), *path[depth + 1:])
                out[sub] = v if sub not in out else _apply(self.op, out[sub], v, sub)
        return out

    def _fiber(self, cells, depth):
        comp = self.decl.comps[depth]
        last = depth == len(self.decl.comps) - 1
        groups = self._group(cells, depth)

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

        keys = sorted(groups)  # (start, stop) Limit pairs sort correctly
        if self.op != "=" and any(b[0] <= a[1] for a, b in zip(keys, keys[1:])):
            groups = self._group(self._overlay(cells, depth), depth)
            keys = sorted(groups)
        merged = []
        for key in keys:
            iv = Interval(*key)
            node = child(groups[key])
            if merged:
                piv, pnode = merged[-1]
                if iv.start <= piv.stop:
                    raise OverlapError(
                        f"output pieces {piv} and {iv} overlap on {self.decl.name}"
                    )
                if pnode == node and piv.touches_below(iv):
                    merged[-1] = (Interval(piv.start, iv.stop), pnode)
                    continue
            merged.append((iv, node))
        out = []
        for iv, node in merged:
            key = iv.start.val if comp[0] == "pinpoint" else iv
            out.append((key, node))
        return out


def run(plan: Plan) -> ExecResult:
    store = _Store(plan.output)
    segments, multiplies, emitted = _kernel(kernel_source(plan))(plan.bindings, store.put)
    stats = ExecStats(multiplies=multiplies, segments_visited=segments,
                      pieces_emitted=emitted)
    out = store.finalize()
    diags = []
    leaves = out.values if isinstance(out, ContTensor) else (out,)
    if any(isinstance(v, float) and math.isnan(v) for v in leaves):
        diags.append(f"output {plan.output.name} contains NaN values")
    return ExecResult(out, stats, diags)


__all__ = ["ExecError", "ExecResult", "ExecStats", "kernel_source", "run"]
