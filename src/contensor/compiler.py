"""Lowering: a validated program plus tensor bindings becomes a Plan.

Lowering reads the program and each input's format (level kinds, dense
sizes, fill), never its stored data, so inputs of one format get equal
plans; an input that stores nothing is stepped like any other, in a loop
that runs zero times. The executor renders the loops as lowered.

The strategy, per continuous loop:

1. Find the accesses the loop index drives next (its participants), and
   which of them annihilate: wherever such an access misses, its fill
   makes every write of the loop body a no-op (0 under ``*``, false
   under ``&&``). Every other one runs out (``StepperRT.runs_out``): a
   gap out to +inf past its last piece.
2. Lower the loop to one range and one co-iteration of the participants'
   pieces over it, and the body once, in its one region. The range ends
   where the first annihilating participant's fiber does, and, where
   nothing is written with all those that run out in their gaps, where
   the last of their fibers does too. A walk also ends a segment just
   before the start of one that runs out, which reads -1 (and its fill)
   in its gap, as a missed probe does. So an intersection and a union
   (``+``, ``||``) lower in a size linear in their width. A lone stepper
   over the whole line needs no range: its fiber is one.
3. A region known to be a single point pins the index to a scalar, which
   unlocks probes into the remaining accesses (so does a segment in a
   piece of a participant that runs out and stores points); otherwise
   the index stays regional and the assignment collapses it (an emitted
   piece, a length factor for d(idx), or nothing for idempotent ops).

Where some annihilating participants store only isolated points, one of
those alone is stepped and the others are probed after pinning; its gaps
write nothing, so the others are never needed there. The format picks
it: the deepest rank, then the first in program order (so write the
sparser of two tied point inputs first). Lowering picks each
co-iteration's shape (``WhileCoiter.shape``) from its steppers and range.
A pieces loop emits each stored piece as its region, unclipped and
unguarded, as no stored piece is empty; a stored point pins the index to
its coordinate, with no region at all. An annihilating stepper never
leaves its fiber inside the range.

Every lowering function emits a statement only when a write lies below
it, and folds constants as it builds each expression, so the plan needs
no cleanup beyond dropping binders nothing reads. Each write records its
path, and the output's form is decided once from all of them
(``_output_decl``). Lowering is the one judge of the rules the format
decides: a collapse of a continuous index that no d() factor, idempotent
operator or pinning makes finite is R-SUM, a value still read once
unread binders are dropped that needs an index no stored points pin is
R-PIN, and a division whose divisor folds to 0 where the kernel reads it
is R-DIV: a literal 0, the fill 0 of an access where it misses, or fills
of accesses in their gaps where no test or walk skips the segment
(``ValidityError``, its diagnostics in source order).

An ``|=`` or ``&=`` write whose path has no interval rank is marked with
the number of plan loops between it and the loop one iteration of which
fixes every index of its path (``Write.exits``): every write inside that
iteration is into the same cell, so once the cell is absorbing the
executor ends them. The loop is the deepest that binds a path index, a
discrete loop or a co-iteration whose region pins it; at rank 0 it is
the whole kernel. This reads the program and the operator only.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace as dc_replace

from .lang import (
    Diag, EAccess, EBin, EBool, EDif, ENum, EUn, EVar, IDEMPOTENT_OPS, Program,
    SAssign, SFor, SIf, SLet, affine_terms, validate,
)
from .limits import ABOVE, BELOW, EXACT, Limit
from .storage import ContTensor, DenseLevel
from .ir import (
    Add, And, Block, BoolC, Cmp, Cond, DiscLoop, Div, EndRef, Guard, IntersectLet,
    IvStart, IvStop, LastStop, LeafVal, LenOf, LetScalar, LimC, MaxOf, Mul, Namer,
    Neg, Not, Num, Or, OutputDecl, PDense, PRoot, PVar, Pin, Plan, Probe, StepperRT,
    Sub, Var, WhileCoiter, Write,
)
from .simplify import simplify_expr, simplify_plan, used_slots, _write_is_noop


class CompileError(ValueError):
    """User-level problem: bad bindings, unbound tensors, bad shapes."""


class ValidityError(CompileError):
    def __init__(self, diags):
        super().__init__("; ".join(str(d) for d in diags))
        self.diags = diags


class UnloweredError(RuntimeError):
    """Internal invariant breach: the plan would not be finite/faithful."""


@dataclass(frozen=True)
class _Access:
    tensor: ContTensor
    idx: tuple  # ((const, vars), ...) per rank
    pos: object = PRoot()
    rank: int = 0
    miss: bool = False
    gap: bool = False  # stepped by a walk that runs out: its position is -1 in its gap


class _Ctx:
    def __init__(self, namer, difs, loops, paths, marks, keys):
        self.namer = namer
        self.difs = difs
        self.loops = loops  # var -> SFor
        self.paths = paths  # the path of every write lowered, shared by forks
        self.marks = marks  # id(expr) -> (negative slot, R-PIN or R-DIV Diag), shared by forks
        self.keys = keys  # id(EAccess) -> its access's key, shared by forks
        # an if's test, or the steppers of a walk that skips its segments where
        # all of them are in their gaps, around here; None in _zero_divisor's test
        self.guards = ()
        self.scalars = {}  # var -> Var
        # (tensor, index maps) -> _Access: equal accesses read the same
        # value everywhere, so they share one stepper or probe
        self.accesses = {}
        self.pending = {}  # var -> (iv_slot, iv_name)
        self.pins = {}  # var -> StepperRT of the pinpoint stepper that pinned it
        self.depth = 0  # plan loops around what is lowered here
        self.fixed = {}  # scalar loop index -> depth of the plan loop that fixes it

    def fork(self):
        c = _Ctx(self.namer, self.difs, self.loops, self.paths, self.marks, self.keys)
        c.guards = self.guards
        c.scalars = dict(self.scalars)
        c.accesses = dict(self.accesses)
        c.pending = dict(self.pending)
        c.pins = dict(self.pins)
        c.depth = self.depth
        c.fixed = dict(self.fixed)
        return c


# ---------------------------------------------------------------------------
# collection


def _walk_lang_exprs(e, acc):
    acc.append(e)
    if isinstance(e, (EBin,)):
        _walk_lang_exprs(e.a, acc)
        _walk_lang_exprs(e.b, acc)
    elif isinstance(e, EUn):
        _walk_lang_exprs(e.a, acc)
    elif isinstance(e, EAccess):
        for ix in e.indices:
            _walk_lang_exprs(ix, acc)


def _walk_lang_stmts(body, loops, exprs, assign):
    for s in body:
        if isinstance(s, SFor):
            loops[s.var] = s
            _walk_lang_stmts(s.body, loops, exprs, assign)
        elif isinstance(s, SIf):
            _walk_lang_exprs(s.cond, exprs)
            _walk_lang_stmts(s.body, loops, exprs, assign)
        elif isinstance(s, SLet):
            _walk_lang_exprs(s.expr, exprs)
        elif isinstance(s, SAssign):
            assign[0] = s
            _walk_lang_exprs(s.rhs, exprs)


def _collect(program):
    """All input accesses, loops, differentials and the assignment."""
    loops = {}
    exprs = []
    assign = [None]
    _walk_lang_stmts(program.body, loops, exprs, assign)
    accesses = [e for e in exprs if isinstance(e, EAccess)]
    difs = {e.index for e in exprs if isinstance(e, EDif)}
    return loops, accesses, difs, assign[0]


# ---------------------------------------------------------------------------
# value building


def _affine_expr(const, vars, ctx):
    args = [ctx.scalars[v] for v in vars]
    if const != 0.0 or not args:
        args.append(Num(const))
    if len(args) == 1:
        return args[0]
    return Add(tuple(args))


def _shift_expr(entry, var, ctx):
    """Access-map shift for one rank: everything except the loop index."""
    const, vars = entry
    others = [v for v in vars if v != var]
    if const == 0.0 and not others:
        return None
    return _affine_expr(const, others, ctx)


def _fill_const(t: ContTensor):
    return BoolC(t.fill) if isinstance(t.fill, bool) else Num(t.fill)


_BIN = {"+": Add, "*": Mul, "&&": And, "||": Or}
_ZEROS = (Num(0.0), BoolC(False))  # a folded divisor that is 0


def _mark(e, ctx):
    """A slot no binder fills, for a value of e no kernel can compute: one
    that needs an index no stored points pin (R-PIN), or a division whose
    divisor folds to 0 (R-DIV). compile_program reports the rule if a read
    of the slot survives."""
    mark = ctx.marks.get(id(e))
    if mark is None:
        if isinstance(e, EBin):
            code, msg = "R-DIV", ("the divisor is the constant 0 here: a literal 0, or the "
                                  "fill 0 of an access where it misses")
        elif isinstance(e, EVar):
            code, msg = "R-PIN", (f"{e.name!r} ranges over a continuum here; only stored "
                                  "points can give it a scalar value")
        else:
            code, msg = "R-PIN", (f"{e.tensor!r} is read where an index of one of its ranks "
                                  "ranges over a continuum that no stored points pin")
        mark = ctx.marks[id(e)] = (-1 - len(ctx.marks), Diag(code, msg, *e.pos))
    return mark[0]


def _build_value(e, ctx, leaves):
    if isinstance(e, ENum):
        return Num(e.value)
    if isinstance(e, EBool):
        return BoolC(e.value)
    if isinstance(e, EVar):
        return ctx.scalars.get(e.name) or Var(_mark(e, ctx), e.name)
    if isinstance(e, EAccess):
        a = ctx.accesses[ctx.keys[id(e)]]
        if a.miss:
            return _fill_const(a.tensor)
        if a.rank != a.tensor.ndim:
            return LeafVal(a.tensor.name, PVar(_mark(e, ctx), "unresolved"), a.tensor.fill)
        leaves.append(a.pos)
        return LeafVal(a.tensor.name, a.pos, a.tensor.fill)
    if isinstance(e, EBin):
        a = _build_value(e.a, ctx, leaves)
        b = _build_value(e.b, ctx, leaves)
        if e.op in _BIN:
            return _BIN[e.op]((a, b))
        if e.op == "-":
            return Sub(a, b)
        if e.op == "/":
            if _zero_divisor(e.b, b, ctx):  # R-DIV; b keeps its R-PIN marks
                b = Add((b, Var(_mark(e, ctx), "zero")))
            return Div(a, b)
        return Cmp(e.op, a, b)
    if isinstance(e, EUn):
        a = _build_value(e.a, ctx, leaves)
        return Neg(a) if e.op == "-" else Not(a)
    raise UnloweredError(f"cannot lower {e!r} to a value")


def _zero_divisor(e, b, ctx) -> bool:
    """Whether divisor e, built as b, is 0 where the kernel reads it: b folds
    to 0, or e does with some of the accesses in their gaps that it reads
    read as their fills, where no guard skips the segment; where one does,
    fewer are tried while e still folds to 0."""
    found, tried = [], set()
    _walk_lang_exprs(e, found)
    keys = (ctx.keys[id(x)] for x in found if isinstance(x, EAccess))

    def zero_in(gaps):
        tried.add(gaps)
        test = _missing(ctx, gaps)
        test.guards = None
        less = (gaps[:i] + gaps[i + 1:] for i in range(len(gaps)))
        return simplify_expr(_build_value(e, test, [])) in _ZEROS and (
            all(not g <= set(gaps) if isinstance(g, frozenset) else _test(g, test) is not False
                for g in ctx.guards) or any(zero_in(x) for x in less if x and x not in tried))

    gaps = tuple(dict.fromkeys(k for k in keys if ctx.accesses[k].gap and not ctx.accesses[k].miss))
    return simplify_expr(b) in _ZEROS or ctx.guards is not None and bool(gaps) and zero_in(gaps)


def _flatten_mul(e):
    if isinstance(e, EBin) and e.op == "*":
        return _flatten_mul(e.a) + _flatten_mul(e.b)
    return [e]


def _summand_value(rhs, ctx):
    """Assignment value with d() factors stripped and constants folded;
    returns (expr, leaf count)."""
    leaves = []
    factors = [f for f in _flatten_mul(rhs) if not isinstance(f, EDif)]
    if not factors:
        return Num(1.0), 0
    built = [_build_value(f, ctx, leaves) for f in factors]
    value = built[0] if len(built) == 1 else Mul(tuple(built))
    return simplify_expr(value), len(leaves)


def _test(cond, ctx):
    """An if-test as an expression, or a bool when constants decide it.
    Numeric conditions follow truthiness, like the kernel."""
    test = simplify_expr(_build_value(cond, ctx, []))
    return bool(test.value) if isinstance(test, (BoolC, Num)) else test


def _writes_nothing(stmts, ctx) -> bool:
    """Whether constants alone show that no assignment below stmts writes."""
    for s in stmts:
        if isinstance(s, SFor):
            if not _writes_nothing(s.body, ctx):
                return False
        elif isinstance(s, SIf):
            if _test(s.cond, ctx) is not False and not _writes_nothing(s.body, ctx):
                return False
        elif isinstance(s, SAssign):
            value, _ = _summand_value(s.rhs, ctx)
            if not _write_is_noop(value, _op_fill(s.op, value)):
                return False
    return True


def _missing(ctx, keys):
    """A fork of ctx in which these accesses miss."""
    c = ctx.fork()
    for key in keys:
        c.accesses[key] = dc_replace(c.accesses[key], miss=True)
    return c


# ---------------------------------------------------------------------------
# advancement: resolve ranks whose index is now a scalar


def _advance(ctx, out):
    changed = True
    while changed:
        changed = False
        for key, a in list(ctx.accesses.items()):
            if a.miss or a.rank >= a.tensor.ndim:
                continue
            const, vars = a.idx[a.rank]
            if not all(v in ctx.scalars for v in vars):
                continue
            lv = a.tensor.levels[a.rank]
            if isinstance(lv, DenseLevel):
                pos = PDense(a.pos, lv.size, _affine_expr(const, vars, ctx))
            elif (pos := _pinned_at(ctx, a)) is None:
                # a pinned loop index is looked up in its own space, with
                # the stored ends shifted back, as steppers compare them
                pinned = [v for v in ctx.scalars if v in vars and v in ctx.loops
                          and ctx.loops[v].continuous]
                if pinned:
                    coord = ctx.scalars[pinned[-1]]
                    shift = _shift_expr((const, vars), pinned[-1], ctx) or Num(0.0)
                else:
                    coord, shift = simplify_expr(_affine_expr(const, vars, ctx)), Num(0.0)
                slot, name = ctx.namer.slot(f"q_{a.tensor.name}{a.rank}")
                out.append(Probe(slot, name, a.tensor.name, a.rank, a.pos, coord, shift))
                pos = PVar(slot, name)
            ctx.accesses[key] = dc_replace(a, pos=pos, rank=a.rank + 1)
            changed = True


def _pinned_at(ctx, a):
    """Where a reads, unshifted, the fiber of the pinpoint stepper whose
    stored point pinned a's index: that stepper's position, which a probe
    would find. Else None."""
    const, vars = a.idx[a.rank]
    rt = ctx.pins.get(vars[0]) if const == 0.0 and len(vars) == 1 else None
    if rt is None or (rt.tensor, rt.level, rt.fiber) != (a.tensor.name, a.rank, a.pos):
        return None
    return PVar(rt.pos_slot, rt.pos_name)


# ---------------------------------------------------------------------------
# statement lowering


def _lower_block(stmts, ctx):
    """The lowered statements, or [] when no write lies below them."""
    out = []
    for s in stmts:
        if isinstance(s, SFor):
            out.extend((_lower_cont if s.continuous else _lower_disc)(s, ctx))
        elif isinstance(s, SIf):
            c2 = ctx.fork()
            test = _test(s.cond, c2)
            c2.guards += (s.cond,)
            if test is False:
                continue  # this region misses the condition's tensor entirely
            inner = _lower_block(s.body, c2)
            if inner and test is True:
                out.extend(inner)
            elif inner:
                out.append(Cond(test, Block(tuple(inner))))
        elif isinstance(s, SLet):
            slot, name = ctx.namer.slot(s.name)
            out.append(LetScalar(slot, name, simplify_expr(_build_value(s.expr, ctx, []))))
            ctx.scalars[s.name] = Var(slot, name)
            _advance(ctx, out)
        elif isinstance(s, SAssign):
            out.extend(_lower_assign(s, ctx))
        else:
            raise UnloweredError(f"unhandled statement {s!r}")
    return out if any(not isinstance(x, (LetScalar, Probe)) for x in out) else []


def _lower_disc(s: SFor, ctx):
    if s.lo > s.hi:
        return []
    slot, name = ctx.namer.slot(s.var)
    c2 = ctx.fork()
    c2.scalars[s.var] = Var(slot, name)
    c2.depth += 1
    c2.fixed[s.var] = c2.depth
    probes = []
    _advance(c2, probes)
    body = _lower_block(s.body, c2)
    if not body:
        return []
    return [DiscLoop(slot, name, int(s.lo), int(s.hi), Block(tuple(probes + body)))]


def _participants(ctx, var):
    cands = []
    for key, a in ctx.accesses.items():
        if a.miss or a.rank >= a.tensor.ndim:
            continue
        const, vars = a.idx[a.rank]
        if var in vars and all(v in ctx.scalars for v in vars if v != var):
            cands.append(key)
    return cands


def _lower_cont(s: SFor, ctx):
    var = s.var
    # no real number lies at -inf or inf, so a loop end there is open
    lo = Limit(float(s.lo), ABOVE if s.lo == -math.inf else EXACT)
    hi = Limit(float(s.hi), BELOW if s.hi == math.inf else EXACT)
    cands = _participants(ctx, var)
    # those that annihilate: where one misses, the loop body writes nothing
    annihilating = {k for k in cands if _writes_nothing(s.body, _missing(ctx, [k]))}
    pinlike = [k for k in cands if k in annihilating
               and ctx.accesses[k].tensor.levels[ctx.accesses[k].rank].pinpoint]
    # one point-stepper pins the index; the rest get probed after the pin,
    # and are never needed in its gaps, where nothing is written. The format
    # alone picks it: the deepest rank, then the first in program order
    steppers = [max(pinlike, key=lambda k: ctx.accesses[k].rank)] if pinlike else cands
    runs_out = [k for k in steppers if k not in annihilating]

    def last(key):
        a = ctx.accesses[key]
        return LastStop(a.tensor.name, a.rank, a.pos, _shift_expr(a.idx[a.rank], var, ctx))

    # the loop ends where the first annihilating stepper's fiber does: past
    # it nothing is written. The others read as a gap past their last piece
    stops = [] if hi.val == math.inf else [LimC(hi)]
    stops += [last(k) for k in steppers if k in annihilating]
    if not steppers:
        rslot, rname = ctx.namer.slot("iv")
        inner = _finish_region(s, (rslot, rname), ctx.fork())
        return [IntersectLet(rslot, rname, (LimC(lo),), (LimC(hi),)),
                Guard(rslot, rname, Block(tuple(inner)))] if inner else []

    shifts = {k: _shift_expr(ctx.accesses[k].idx[ctx.accesses[k].rank], var, ctx)
              for k in steppers}
    # only a cursor steps past a gap, or keeps a point in one piece where a
    # shift rounds a piece's start onto the previous piece's stop. A lone
    # stepper over the whole line steps its pieces by position: its fiber
    # is the range, and each piece the region
    shape = ("walk" if runs_out or any(sh is not None for sh in shifts.values())
             else "pieces" if len(steppers) == 1 and s.lo == -math.inf and s.hi == math.inf
             else "fingers")
    whole = shape == "pieces"
    if not whole:
        rslot, rname = ctx.namer.slot("iv")
        cur_slot, cur_name = ctx.namer.slot("cur")
        seg_slot, seg_name = ctx.namer.slot("seg")
    rts = {}
    for key in steppers:
        a = ctx.accesses[key]
        rts[key] = StepperRT(*ctx.namer.slot(f"p_{a.tensor.name}{a.rank}"), a.tensor.name,
                             a.rank, a.pos, shifts[key], runs_out=key not in annihilating)

    c3 = ctx.fork()
    c3.depth += 1  # inside the co-iteration
    starts = [] if whole else [IvStart(seg_slot, seg_name)]
    ends = [] if whole else [IvStop(seg_slot, seg_name)]
    pinflag, points = False, []  # points: the steppers that run out and store points
    for key in steppers:
        a, rt = c3.accesses[key], rts[key]
        pv = PVar(rt.pos_slot, rt.pos_name)
        pp = a.tensor.levels[a.rank].pinpoint
        # one that runs out reads -1 in its gap, which lasts a whole segment
        c3.accesses[key] = dc_replace(a, pos=pv, rank=a.rank + 1, gap=rt.runs_out)
        if rt.runs_out:
            points += [key] if pp else []
            continue
        end = EndRef(a.tensor.name, a.rank, "C" if pp else "L", pv, rt.shift)
        starts.append(end)
        if whole:
            ends.append(dc_replace(end, side="C" if pp else "R"))
        pinflag = pinflag or pp
    if whole and pinflag:
        # a stored point is its own region: the pin reads its coordinate
        c3.pins[var] = rts[steppers[0]]
        body = _finish_region(s, None, c3, pin=starts[0])
    else:
        # where every stepper runs out, the region is the segment, never empty
        bare = len(starts) == 1 and not whole
        region = (seg_slot, seg_name) if bare else ctx.namer.slot("r")
        inner, silent = _region_body(s, region, c3, runs_out, points, pinflag)
        if silent:  # all in their gaps write nothing: end at the last of their stops
            lasts = tuple(last(k) for k in runs_out)
            stops.append(MaxOf(lasts) if len(lasts) > 1 else lasts[0])
        let = IntersectLet(*region, tuple(starts), tuple(ends))
        # a stored piece is never empty
        body = ([] if not inner else inner if bare else [let, *inner] if whole
                else [let, Guard(*region, Block(tuple(inner)))])
    if not body:
        return []
    if whole:
        return [WhileCoiter(tuple(rts.values()), Block(tuple(body)), shape)]
    return [IntersectLet(rslot, rname, (LimC(lo),), tuple(stops or [LimC(hi)])), WhileCoiter(
        tuple(rts.values()), Block(tuple(body)), shape,
        rslot, rname, cur_slot, cur_name, seg_slot, seg_name,
    )]


def _region_body(s: SFor, region, ctx, runs_out, points, pinned):
    """The body of a co-iteration's region, pinned if pinned, and whether the
    loop body writes nothing where all of runs_out are in their gaps (then a
    test that one is in its piece guards it). Where one of points is in its
    piece the segment is that point, pinned; elsewhere points read fills."""
    silent = bool(runs_out) and _writes_nothing(s.body, _missing(ctx, runs_out))

    def some(keys):  # whether one of them is in its piece: a position is -1 in its gap
        return Or(tuple(Cmp(">=", Var(*astuple(ctx.accesses[k].pos)), Num(0)) for k in keys))

    rest = [k for k in runs_out if k not in points]
    tests = [Not(some(points))] if points else []
    tests += [some(rest)] if silent else []
    out = []
    if points:
        c = ctx.fork()
        c.guards += (frozenset(points),)
        inner = _finish_region(s, region, c, pin=IvStart(*region))
        out += [Cond(simplify_expr(some(points)), Block(tuple(inner)))] if inner else []
        ctx = _missing(ctx, points)
    ctx.guards += (frozenset(rest),) if silent else ()
    test = simplify_expr(And(tuple(tests)))
    inner = [] if test == BoolC(False) else _finish_region(
        s, region, ctx, pin=IvStart(*region) if pinned else None)
    if inner and tests:
        inner = [Cond(test, Block(tuple(inner)))]
    return out + inner, silent


def _finish_region(s: SFor, region, ctx, pin=None):
    """Lower the loop body inside one region of the loop's index, a
    (slot, name) pair; with pin, the endpoint it holds, the region is that
    one point and the index is pinned there. [] when nothing is written."""
    var = s.var
    if pin is not None:
        if var in ctx.difs:
            return []  # a d(var) factor makes a zero-length region contribute 0
        slot, name = ctx.namer.slot(var)
        ctx.scalars[var] = Var(slot, name)
        ctx.fixed[var] = ctx.depth
        stmts = [Pin(slot, name, pin)]
    else:
        ctx.pending[var] = region
        stmts = []
    _advance(ctx, stmts)
    body = _lower_block(s.body, ctx)
    return stmts + body if body else []


def _op_fill(op, value):
    if op == "|=":
        return False
    if op == "&=":
        return True
    if op == "max=":
        return -math.inf
    if op == "min=":
        return math.inf
    if op == "+=":
        return 0.0
    boolish = isinstance(value, (And, Or, Not, Cmp, BoolC)) or (
        isinstance(value, LeafVal) and isinstance(value.fill, bool)
    )
    return False if boolish else 0.0


def _lower_assign(s: SAssign, ctx):
    value, nleaves = _summand_value(s.rhs, ctx)
    if _write_is_noop(value, _op_fill(s.op, value)):
        return []

    path = []
    outs = [ix.name for ix in s.indices]
    for v in outs:
        if v in ctx.scalars:
            loop = ctx.loops[v]
            if not loop.continuous and loop.lo < 0:
                raise CompileError(
                    f"output index {v!r} runs from {int(loop.lo)}; dense "
                    "output ranks start at 0"
                )
            path.append(("p" if loop.continuous else "d", ctx.scalars[v]))
        elif v in ctx.pending:
            path.append(("iv", *ctx.pending[v]))
        else:
            raise UnloweredError(f"output index {v!r} is neither scalar nor regional")

    for v, (slot, name) in ctx.pending.items():
        if v in outs:
            continue
        if v in ctx.difs:
            value = Mul((value, LenOf(slot, name)))
        elif s.op in IDEMPOTENT_OPS:
            pass  # constant over the region; one write stands for all of it
        else:
            raise ValidityError([Diag(
                "R-SUM", f"collapsing {v!r} over a continuum needs |=, &=, max=, min=, "
                f"or += with a d({v}) factor, or stored points that pin it", *s.pos,
            )])
    value = simplify_expr(value)

    exits = 0
    if s.op in ("|=", "&=") and all(c[0] != "iv" for c in path):
        # within one iteration of the loop that fixes the path's last-bound
        # index (the whole kernel at rank 0) every write is into this cell,
        # and once it is absorbing none of them changes it
        exits = ctx.depth - max((ctx.fixed[v] for v in outs), default=0)
    ctx.paths.append(path)
    return [Write(s.target, tuple(path), s.op, value, nleaves >= 2, exits)]


# ---------------------------------------------------------------------------
# entry


def compile_program(program: Program, bindings, *, opt_bounds=False,
                    stages=None) -> Plan:
    """Lower a program against concrete tensors.

    stages, if given, is a dict filled with the plan as lowered under
    "plan" and the final plan, with unread binders dropped, under
    "post-simplify". opt_bounds is accepted and ignored: perfbench's
    traced run still passes it.
    """
    for name, t in bindings.items():
        if not isinstance(t, ContTensor):
            raise CompileError(f"binding {name!r} is not a tensor")
    # the program's identifier is authoritative; IR refers to tensors by it
    bindings = {
        name: t if t.name == name else dc_replace(t, name=name)
        for name, t in bindings.items()
    }
    diags = validate(program, bindings)
    if diags:
        raise ValidityError(diags)

    loops, accesses, difs, assign = _collect(program)
    namer = Namer()
    ctx = _Ctx(namer, difs, loops, [], {}, {})
    for e in accesses:
        if e.tensor not in bindings:
            raise CompileError(f"tensor {e.tensor!r} is not bound")
        key = ctx.keys[id(e)] = (e.tensor, tuple(affine_terms(ix) for ix in e.indices))
        if key not in ctx.accesses:
            ctx.accesses[key] = _Access(bindings[e.tensor], key[1])
    if assign.target in bindings:
        raise CompileError(f"output {assign.target!r} is also bound as an input")

    top = []
    _advance(ctx, top)
    body = _lower_block(program.body, ctx)
    top = top + body if body else []
    plan = Plan(Block(tuple(top)), _output_decl(assign, ctx), namer.count, dict(bindings))
    if stages is not None:
        stages["plan"] = plan
    plan = simplify_plan(plan)
    unpinned = {slot for slot in used_slots(plan.body) if slot < 0}
    if unpinned:
        # in source order, whatever order lowering met them in
        raise ValidityError(sorted((d for slot, d in ctx.marks.values() if slot in unpinned),
                                   key=lambda d: (d.line, d.col)))
    if stages is not None:
        stages["post-simplify"] = plan
    return plan


def _output_decl(assign, ctx) -> OutputDecl:
    """The output's form, from every write lowering made: a continuous
    rank holds points when every write pins its index (so when nothing
    is written), and intervals otherwise."""
    comps = []
    for k, ix in enumerate(assign.indices):
        loop = ctx.loops[ix.name]
        if not loop.continuous:
            comps.append(("dense", int(loop.hi) + 1))
        else:
            comps.append(("pinpoint",) if all(p[k][0] == "p" for p in ctx.paths) else ("interval",))
    value, _ = _summand_value(assign.rhs, ctx)
    return OutputDecl(assign.target, tuple(comps), _op_fill(assign.op, value))


__all__ = [
    "CompileError", "ValidityError", "UnloweredError",
    "compile_program",
]
