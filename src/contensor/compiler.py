"""Lowering: a validated program plus tensor bindings becomes a Plan.

The strategy, per continuous loop:

1. Find the accesses the loop index drives next (its participants), and
   which of them annihilate: wherever such an access misses, its fill
   makes every write of the loop body a no-op (0 under ``*``, false
   under ``&&``).
2. Case-split the participants into stored span versus fill tail; every
   combination becomes a clipped region (IntersectLet + Guard). An
   annihilating participant only has its span.
3. Inside span regions, co-iterate the participants' pieces with one
   while loop, splitting each step into piece/gap combinations the same
   way; an annihilating participant only has its piece.
4. A region known to be a single point pins the index to a scalar,
   which unlocks probes into the remaining accesses; otherwise the index
   stays regional and the assignment collapses it (an emitted piece, a
   length factor for d(idx), or nothing for idempotent ops).

So an intersection lowers to one region, and only unions (``+``, ``||``)
pay for every combination. When an annihilating participant stores only
isolated points, it alone is stepped and the others are probed after
pinning; its gaps write nothing, so the others are never needed there.

Every lowering function emits a statement only when a write lies below
it, and folds constants as it builds each expression, so the plan needs
no cleanup beyond dropping binders nothing reads. Each write records its
path, and the output's form is decided once from all of them
(``_output_decl``). Lowering is the one judge of the rules storage
decides: a collapse of a continuous index that no d() factor, idempotent
operator or pinning makes finite is R-SUM, and a value still read once
unread binders are dropped that needs an index no stored points pin is
R-PIN (``ValidityError``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace
from itertools import product

from .lang import (
    Diag, EAccess, EBin, EBool, EDif, ENum, EUn, EVar, IDEMPOTENT_OPS, Program,
    SAssign, SFor, SIf, SLet, affine_terms, validate,
)
from .limits import ABOVE, BELOW, EXACT, Limit
from .storage import ContTensor, DenseLevel
from .ir import (
    Accumulate, Add, And, Block, BoolC, Cmp, Cond, DiscLoop, Div, EmitPiece,
    EndRef, Guard, IntersectLet, IvStart, IvStop, LastStop, LeafVal, LenOf,
    LetScalar, LimC, Mul, Namer, Neg, Not, Num, Or, OutputDecl, PDense, PRoot,
    PVar, Pin, Plan, Probe, StepperRT, Sub, Var, WhileCoiter,
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


# The most regions one continuous loop may lower. A union of u accesses
# that do not annihilate lowers about 3**u of them (every span/tail
# combination, and inside each co-iteration every piece/gap one), so
# this admits a 7-way union (2314 regions) and stops an 8-way one (6816)
# before lowering starts.
MAX_REGIONS = 4096


@dataclass(frozen=True)
class _Access:
    tensor: ContTensor
    idx: tuple  # ((const, vars), ...) per rank
    pos: object = PRoot()
    rank: int = 0
    miss: bool = False


class _Ctx:
    def __init__(self, namer, difs, loops, paths, marks):
        self.namer = namer
        self.difs = difs
        self.loops = loops  # var -> SFor
        self.paths = paths  # the path of every write lowered, shared by forks
        self.marks = marks  # id(expr) -> (negative slot, R-PIN Diag), shared by forks
        self.scalars = {}  # var -> Var
        self.accesses = {}  # id(EAccess) -> _Access
        self.pending = {}  # var -> (iv_slot, iv_name)

    def fork(self):
        c = _Ctx(self.namer, self.difs, self.loops, self.paths, self.marks)
        c.scalars = dict(self.scalars)
        c.accesses = dict(self.accesses)
        c.pending = dict(self.pending)
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


def _mark(e, ctx):
    """A slot no binder fills, for a value of e that needs an index no
    stored points pin; compile_program reports R-PIN if a read survives."""
    mark = ctx.marks.get(id(e))
    if mark is None:
        msg = (f"{e.name!r} ranges over a continuum here; only stored points can give "
               "it a scalar value" if isinstance(e, EVar) else
               f"{e.tensor!r} is read where an index of one of its ranks ranges over a "
               "continuum that no stored points pin")
        mark = ctx.marks[id(e)] = (-1 - len(ctx.marks), Diag("R-PIN", msg, *e.pos))
    return mark[0]


def _build_value(e, ctx, leaves):
    if isinstance(e, ENum):
        return Num(e.value)
    if isinstance(e, EBool):
        return BoolC(e.value)
    if isinstance(e, EVar):
        return ctx.scalars.get(e.name) or Var(_mark(e, ctx), e.name)
    if isinstance(e, EAccess):
        a = ctx.accesses[id(e)]
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
            return Div(a, b)
        return Cmp(e.op, a, b)
    if isinstance(e, EUn):
        a = _build_value(e.a, ctx, leaves)
        return Neg(a) if e.op == "-" else Not(a)
    raise UnloweredError(f"cannot lower {e!r} to a value")


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


def _annihilates(s: SFor, key, ctx) -> bool:
    """Whether the loop body writes nothing wherever this access misses."""
    c = ctx.fork()
    c.accesses[key] = dc_replace(c.accesses[key], miss=True)
    return _writes_nothing(s.body, c)


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
            else:
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


def _fiber_weight(a: _Access):
    # average entries per fiber; prefer stepping the sparsest level
    n = a.tensor.n_entries(a.rank)
    return n / max(1, a.tensor.n_fibers(a.rank))


def _lower_cont(s: SFor, ctx):
    var = s.var
    # no real number lies at -inf or inf, so a loop end there is open
    lo = Limit(float(s.lo), ABOVE if s.lo == -math.inf else EXACT)
    hi = Limit(float(s.hi), BELOW if s.hi == math.inf else EXACT)
    cands = _participants(ctx, var)
    annihilating = {k for k in cands if _annihilates(s, k, ctx)}
    pinlike = [
        k for k in cands
        if k in annihilating and ctx.accesses[k].tensor.levels[ctx.accesses[k].rank].pinpoint
    ]
    if pinlike:
        # one point-stepper pins the index; the rest get probed after the
        # pin, and are never needed in its gaps, where nothing is written
        best = min(pinlike, key=lambda k: _fiber_weight(ctx.accesses[k]))
        steppable = [best]
    else:
        steppable = cands
    # each span/tail combination is one region, and one with j steppers
    # that do not annihilate co-iterates 2**j piece/gap regions: summed
    # over the combinations, 2**u + 3**u, less the stepper-free one's
    u = sum(1 for k in steppable if k not in annihilating)
    n_regions = 2 ** u + 3 ** u - (u == len(steppable))
    if n_regions > MAX_REGIONS:
        raise CompileError(
            f"loop over {var!r} would lower {n_regions} regions, more than "
            f"MAX_REGIONS = {MAX_REGIONS}: a union of {u} accesses that do not annihilate"
        )

    def cases(keys):
        # where an annihilating access misses, nothing is written
        return product(*[(True,) if k in annihilating else (True, False) for k in keys])

    out = []
    for combo in cases(steppable):
        c2 = ctx.fork()
        starts = [] if lo.val == -math.inf else [LimC(lo)]
        stops = [] if hi.val == math.inf else [LimC(hi)]
        steppers = []
        for key, in_span in zip(steppable, combo):
            a = c2.accesses[key]
            shift = _shift_expr(a.idx[a.rank], var, c2)
            last = LastStop(a.tensor.name, a.rank, a.pos, shift)
            if in_span:
                stops.append(last)
                steppers.append(key)
            else:
                starts.append(dc_replace(last, eps_off=1))
                c2.accesses[key] = dc_replace(a, miss=True)
        rslot, rname = ctx.namer.slot("iv")
        region = IntersectLet(rslot, rname, tuple(starts or [LimC(lo)]), tuple(stops or [LimC(hi)]))

        if not steppers:
            inner = _finish_region(s, rslot, rname, False, c2)
            if inner:
                out += [region, Guard(rslot, rname, Block(tuple(inner)))]
            continue

        cur_slot, cur_name = ctx.namer.slot("cur")
        seg_slot, seg_name = ctx.namer.slot("seg")
        rts = []
        pos_vars = {}
        for key in steppers:
            a = c2.accesses[key]
            pslot, pname = ctx.namer.slot(f"p_{a.tensor.name}{a.rank}")
            rts.append(StepperRT(
                pslot, pname, a.tensor.name, a.rank, a.pos,
                _shift_expr(a.idx[a.rank], var, c2),
            ))
            pos_vars[key] = (pslot, pname)

        sub_stmts = []
        for sub in cases(steppers):
            c3 = c2.fork()
            s3 = [IvStart(seg_slot, seg_name)]
            t3 = [IvStop(seg_slot, seg_name)]
            pinflag = False
            for key, in_piece in zip(steppers, sub):
                a = c3.accesses[key]
                pv = PVar(pos_vars[key][0], pos_vars[key][1])
                shift = _shift_expr(a.idx[a.rank], var, c3)
                pp = a.tensor.levels[a.rank].pinpoint
                side = "C" if pp else "L"
                if in_piece:
                    s3.append(EndRef(a.tensor.name, a.rank, side, pv, 0, shift))
                    pinflag = pinflag or pp
                    c3.accesses[key] = dc_replace(a, pos=pv, rank=a.rank + 1)
                else:
                    t3.append(EndRef(a.tensor.name, a.rank, side, pv, -1, shift))
                    c3.accesses[key] = dc_replace(a, miss=True)
            sslot, sname = ctx.namer.slot("r")
            inner = _finish_region(s, sslot, sname, pinflag, c3)
            if inner:
                sub_stmts += [IntersectLet(sslot, sname, tuple(s3), tuple(t3), pinflag),
                              Guard(sslot, sname, Block(tuple(inner)))]
        if sub_stmts:
            out += [region, WhileCoiter(
                rslot, rname, cur_slot, cur_name, seg_slot, seg_name,
                tuple(rts), Block(tuple(sub_stmts)),
                intersection=all(k in annihilating for k in steppers),
            )]
    return out


def _finish_region(s: SFor, iv_slot, iv_name, pinpoint, ctx):
    """Lower the loop body inside one region of the loop's index; [] when
    nothing is written there."""
    var = s.var
    if pinpoint:
        if var in ctx.difs:
            return []  # a d(var) factor makes a zero-length region contribute 0
        slot, name = ctx.namer.slot(var)
        ctx.scalars[var] = Var(slot, name)
        stmts = [Pin(slot, name, iv_slot, iv_name)]
        _advance(ctx, stmts)
        body = _lower_block(s.body, ctx)
        return stmts + body if body else []
    ctx.pending[var] = (iv_slot, iv_name)
    return _lower_block(s.body, ctx)


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

    ctx.paths.append(path)
    two = nleaves >= 2
    if any(c[0] != "d" for c in path):
        node = EmitPiece(s.target, tuple(path), s.op, value, two)
    else:
        node = Accumulate(s.target, tuple(c[1] for c in path), s.op, value, two)
    return [node]


# ---------------------------------------------------------------------------
# entry


def compile_program(program: Program, bindings, *, opt_bounds=False,
                    stages=None) -> Plan:
    """Lower a program against concrete tensors.

    stages, if given, is a dict filled with the plan as lowered under
    "plan" and the final plan, with unread binders dropped (and bounds
    pruned under opt_bounds), under "post-simplify".
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
    ctx = _Ctx(namer, difs, loops, [], {})
    for e in accesses:
        if e.tensor not in bindings:
            raise CompileError(f"tensor {e.tensor!r} is not bound")
        t = bindings[e.tensor]
        idx = tuple(affine_terms(ix) for ix in e.indices)
        # a tensor with no stored pieces is its fill everywhere
        ctx.accesses[id(e)] = _Access(tensor=t, idx=idx, miss=not t.values)
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
        raise ValidityError([d for slot, d in ctx.marks.values() if slot in unpinned])
    if opt_bounds:
        from .bounds import prune_bounds

        plan = simplify_plan(prune_bounds(plan))
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
