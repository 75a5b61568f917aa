"""Plan execution by generated code.

``kernel_source`` renders a plan as the source of one Python function:
every plan slot is a local, every co-iteration one ``while`` or ``for``
loop with its steppers written out as int locals, and endpoints are compared
inline as ``(val, eps)`` tuples, the form in which each ``SparseLevel``
stores them and which orders exactly as ``Limit`` does; a finger or pieces
loop compares the floats of its levels' value columns (``los``, ``his``)
first, and those tuples only where two floats tie. The function
reads those levels and the leaf values from the bindings and keeps the
``ExecStats`` counters in local ints. Compiled kernels are cached by
``Plan.key``, the plan without its bindings, before anything is
rendered: a plan run again, or an equal plan over new data of one
format, pays neither rendering nor ``compile()``. The key is the repr of
body and output, so plans that equality would merge but that render
differently (fill ``True`` vs ``1`` vs ``1.0``, a constant ``0.0`` vs
``-0.0``) keep separate kernels, and it holds no tensor, so a cached
kernel keeps no input alive.

A co-iteration renders in the loop shape lowering chose
(``WhileCoiter.shape``); the renderer decides nothing again. A finger
loop (no stepper runs out or is shifted) writes only where all its
steppers are in a piece: each iteration is the overlap of the current
pieces, and the fingers at the least stop move on. Each finger keeps its
current stop in a local, read again when it moves on, with a float twin
read from the ``his`` column; the segment's stop has one too, and so
have a range's ends where a segment reads them (``lo[0]``, ``hi[0]``).
A region that such a loop's iteration makes of its fingers' stored ends
and the segment's ends has float twins for its start and stop. Each
compare of two ends is float-first: the least stop is ``xv < hv or xv
== hv and x < hi``, a region's start the largest of its starts' floats
(a stop the least, with the same tie test), a ``Guard`` ``lv < hv or lv
== hv and lo <= hi``, a finger moves on where ``rv == hv and (r is hi or
r == hi)``, and a ``d()`` length is ``hv - lv``. A tuple orders by its
float first, so wherever two floats differ they give the tuple order,
and only ties reach the tuples (``_PAST``, ``_NO_STOP`` and the open
-inf read as inf and -inf). A region keeps the tuple of an end only
where the plan reads it as a tuple (a write, a pin, another region, a
loop range); a ``Guard`` at a tie then takes its start as the ``max`` of
the start tuples, and a region's lone end that is a local (the segment's
stop) is that local. A write thus stores the tuple it stored before. A
pin reads a stored point from its value column. Walks, probes and
``_seek`` compare tuples. A finger loop keeps no cursor, and takes
one of two forms. Over the whole line it has no range, as its fibers
bound it: each finger starts at its fiber's first piece, the loop runs
only where every fiber has one (one ``p < end`` test per finger), the
least stop is the fingers' alone, each region's start is the fingers'
starts alone, and the loop ends when a finger that moves on reaches its
fiber's end. With a finite end (``a:b``, ``a:inf`` or ``-inf:b``) each
finger starts at its ``_seek`` of the range's start, the least stop is
that of the range's stop and theirs, and the loop ends when it is the
range's. A pieces loop is the finger loop of a lone stepper over the
whole line, run as ``for p in range(...)`` over its positions: its
fiber bounds it, each piece is the region, and its segments are counted
once, before the loop. A walk steps the segments
between consecutive stops, gaps included, with a cursor that must
advance each step. Every stepper in it keeps one state in locals: its
position, its fiber's end, and its piece's start and stop, shifted back
once, loaded where it enters and again only where it moves on, and
``_PAST`` (inf + eps) past its fiber's end. A segment compares only
those locals, and the body reads a stepper's ends from them; one that
ends at the range's stop is the last, so no stepper moves on after it.
A stepper that runs out also ends a segment just before its start, so
the body, which reads its position as -1 in its gap, sees it in one
state for the whole segment. One that annihilates, in its loop or an
enclosing one, is read unguarded: the range ends at its last stop, so
it never leaves its fiber. An endpoint of any other position is a plan fault, raised as
``ExecError`` when the kernel is rendered. An end a kernel copies from a
level, or moves by an infinitesimal, keeps the numeric type it is
stored in; a shifted end is computed in floats. A fiber's ends are read
inline from the ``ptr`` column (and its last stop from the stop
column), with an ``f >= 0`` test only where the fiber can be -1: a
probe's result, a guarded dense index or such a position, whose fiber
a pieces or rangeless finger loop then reads as an empty one. A probe at
shift 0 is inline too: a ``bisect_left`` of the stop column between the
fiber's ends, then the start's check. ``segments_visited`` counts the
iterations of walks (one more for each start a walk cuts at) and finger
loops, a walk's final all-gap segment included; in a pieces loop it
counts the pieces visited, which is what a finger loop iterates.

A value that only an outer loop changes is bound to a local once, at
the start of its home's body: the innermost loop that binds a slot it
reads (a discrete loop its index, a stepper loop its positions and the
pins at its body's start, and a region there that is a pieces loop's
stored piece, which reads only that loop's position), or the kernel's
start for none. Every dense position whose index reads only discrete
loop indices is bound there (``_pos<n>``); so are, where they would
otherwise be read inside a loop nested in their home, a fiber's ends
``ptr[f]`` and ``ptr[f + 1]`` for a pieces or rangeless finger loop that
enters it or a shift-0 probe of it (those of a fiber that can be -1
tested there, and an empty fiber's where it is -1), its last stop, a
finger's first stop and its float twin (read only where the fiber has
a piece), a constant endpoint, and a
reduction's workspace row and key (a key on such a stored piece among
them). A pieces or rangeless finger loop in the home itself reads a
fiber's ends, and a finger's first stop, from there too where a loop
inside it enters the same fiber, so the two share one binding. A
``_seek`` entry depends on the range's start and stays where it is.

An ``|=`` or ``&=`` write that lowering marked (``Write.exits`` = n)
tests its cell's combined value after it writes: once the cell is
absorbing (truthy under ``|=``, falsy under ``&=``, which ``_REDUCE``'s
``or``/``and`` leave as they are), it breaks out of its n innermost
loops, all of which lie inside the loop that fixed the cell. With no
labelled break in Python, a write that ends more than one loop sets
``_hit`` and breaks; after each of those loops, the one around it tests
``_hit`` and breaks in turn, and the outermost of them clears it. Where
n is every loop around the write (a rank-0 output), the kernel returns
at once. The counters count only the work done: segments, multiplies
and pieces emitted stop with the loops, and a pieces loop that ends
early takes back the pieces it counted up front but did not visit.

Writes are rendered for the plan's one assignment operator. A path is
a tuple with an int per dense rank, the pinned coordinate per pinpoint
rank and a ``(start, stop)`` pair of ``(val, eps)`` tuples per interval
rank, and a set holding no real number is not written. An end at -inf
or inf is stored open, and a stored level keeps every end between the
open -inf and the open inf (a regular stop that overflows to inf stays
closed, and the output's level opens it), so a write copies a region's
ends as they are where each end the region is made of is canonical
(``canon``): an unshifted stored end, a constant that is finite or the
open -inf or inf, or the start or stop of a canonical region. Such a
write tests only that its region is not empty, and not even that inside
a ``Guard`` on the same region, which has tested it, or where the region
is the piece at a pieces loop's position, which its level's checks keep
non-empty. Every other write
clamps its ends to the open -inf and inf: a shifted end can overflow to
a closed infinite one, and a walk's cursor and gap stops are a stored
end moved by an infinitesimal. A pinned coordinate x written into an
interval rank is the closed point piece ``((x, 0), (x, 0))``. Under
``|=`` and ``&=`` a value that is not a bool already is made one, as the
oracle combines truth values. Under ``=`` the kernel appends each write
that is not the fill to columns: one per dense or pinpoint rank, a start
and a stop column per interval rank, and the values. A reduction combines where it
writes: into a local for a rank-0 output; into a workspace over the
dense ranks that lead a continuous one, nested lists indexed by their
loop indices (which run from 0, as lowering requires) of a dict per cell
keyed by the rest of the path (bare where one rank remains); and into a
dict by path otherwise. ``_Store.finalize`` makes whole-column passes,
as storage's validation does. A one-rank interval output whose equal
neighbours do not touch is handed to ``ContTensor`` as its columns,
which checks them once, as it checks any level. Where that check fails
(pieces out of order, or overlapping), and for every other output, the
writes are zipped once into ``(*path, value)`` records, sorted, and
built in one pass per rank; a workspace's cells each give theirs, fill
dropped, at the first continuous rank: a cell assigned twice or
overlapping pieces under ``=`` raise ``OverlapError``, a reduction's
overlapping pieces are split and combined, and touching pieces with
equal contents merge at every rank.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass
from itertools import compress, islice, repeat
from operator import eq, itemgetter, lt, ne

from .intervals import Interval
from .lang import DivisionByZeroError
from .limits import ABOVE, BELOW, Limit
from .ir import (
    Add, And, Block, BoolC, Cmp, Cond, DiscLoop, Div, EndRef, Guard, IntersectLet,
    IvStart, IvStop, LastStop, LeafVal, LenOf, LetScalar, LimC, MaxOf, Mul, Neg, Not,
    Num, Or, OutputDecl, PDense, PRoot, PVar, Pin, Plan, Probe, Sub, Var, WhileCoiter,
    Write, render,
)
from .storage import ContTensor, OverlapError, SparseLevel, StorageError, build_tensor


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

# the canonical ends of a written piece at -inf and inf
_NEG_OPEN = (-math.inf, ABOVE)
_POS_OPEN = (math.inf, BELOW)
# every end a stepper past its fiber's last piece reads: above any loop's stop
_PAST = (math.inf, ABOVE)
# the last stop of a fiber with no pieces, or of a missing one: just below
# -inf, so a loop range that ends there is empty
_NO_STOP = (-math.inf, BELOW)


def _seek(lv, f: int, lo: tuple, sh) -> int:
    """A stepper's first position in fiber f: the first piece whose stop,
    shifted back by sh, is at or past lo, or the fiber's end, ptr[f + 1],
    where there is none (at once for a missing fiber, f = -1)."""
    ptr, stops = lv.ptr, lv.stops
    if f < 0:
        return ptr[0]
    p = lv.seek(f, (lo[0] + sh, lo[1]))
    beg, end = ptr[f], ptr[f + 1]
    # the shifted target can be an ulp off the loop-space comparison
    # every later step uses; settle membership where the rest of the
    # co-iteration lives
    while p > beg and (stops[p - 1][0] - sh, stops[p - 1][1]) >= lo:
        p -= 1
    while p < end and (stops[p][0] - sh, stops[p][1]) < lo:
        p += 1
    return p


def _probe(lv, f: int, x: float, sh) -> int:
    """Position of fiber f's piece holding x once its ends are shifted back
    by sh, compared as steppers compare them; -1 if none or f < 0."""
    p = _seek(lv, f, (x, 0), sh)
    return p if p < lv.ptr[f + 1] and (lv.starts[p][0] - sh, lv.starts[p][1]) <= (x, 0) else -1


def _pin_error(a, b):
    raise ExecError(f"pin of a non-degenerate region [{Limit(*a)}, {Limit(*b)}]")


_GLOBALS = {
    "_seek": _seek, "_probe": _probe, "_pin_error": _pin_error, "bisect_left": bisect_left,
    "_ExecError": ExecError, "_INF": math.inf, "_NAN": math.nan,
    "_NEG_OPEN": _NEG_OPEN, "_POS_OPEN": _POS_OPEN, "_PAST": _PAST, "_NO_STOP": _NO_STOP,
}
# Every name the generator makes ends in a suffix no other kind of name
# has, and slot locals end in "_<slot>". The kernel's temporaries (_e, _ev,
# _n, _d, _p, _t, _v, _f, _q, _val, _key, _ws, and _lo<n>/_hi<n> for the n-th
# region in a write's path) are each consumed right after they are set,
# before any other use of the same name can run, so one of each serves the
# kernel. The output is _out: a tuple of columns under "=" (column k
# appended through _put<k>), the workspace of a reduction whose output
# leads a continuous rank with dense ones, a dict by path under any other
# reduction (read through _get), or the value itself for a rank-0 one.
# A reduction's combine of the value already in a cell with a new one:
# rendered inline where a kernel writes, and called where finalize
# combines overlapping pieces. The first write combines with the fill,
# the operator's identity.
_REDUCE = {
    "+=": ("{} + {}", operator.add),
    "max=": ("max({}, {})", max),
    "min=": ("min({}, {})", min),
    "|=": ("{} or {}", lambda a, b: a or b),
    "&=": ("{} and {}", lambda a, b: a and b),
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


def _end(t: str, f: str) -> str:
    """The position just past the last piece of fiber f of level prefix t."""
    return f"{t}_ptr[{1 if f == '0' else f + ' + 1'}]"


def _end_reads(node, starts: set, stops: set, floats: set):
    """Add the slots of the regions whose start, or whose stop, a plan
    node reads as a ``(val, eps)`` tuple (as an end of another region, a
    pin or a loop range, or in a write's path), and of those whose ends it
    reads as floats: a ``Guard``, a ``d()`` length and another region's
    ends, which compare the floats first and the tuples only at a tie."""
    t = type(node)
    if t is IvStart or t is IvStop:
        (starts if t is IvStart else stops).add(node.slot)
        floats.add(node.slot)
    elif t is LenOf or t is Guard:
        floats.add(node.slot)
    elif t is Write:
        slots = [c[1] for c in node.path if c[0] == "iv"]
        starts.update(slots)
        stops.update(slots)
    elif t is WhileCoiter and node.range_slot is not None:
        starts.add(node.range_slot)
        stops.add(node.range_slot)
    if t is tuple:
        for x in node:
            _end_reads(x, starts, stops, floats)
    elif is_dataclass(node):
        for f in fields(node):
            _end_reads(getattr(node, f.name), starts, stops, floats)


def _enters(node, st) -> bool:
    """Whether a co-iteration in a plan statement steps the fiber that
    stepper st steps."""
    t = type(node)
    if t is Block:
        return any(_enters(x, st) for x in node.stmts)
    if t is WhileCoiter and any((x.tensor, x.level, x.fiber) == (st.tensor, st.level, st.fiber)
                                for x in node.steppers):
        return True
    return t in (WhileCoiter, DiscLoop, Guard, Cond) and _enters(node.body, st)


_IND = "    "
_RETURN = "return _seg, _mul, _emit, _out"


@dataclass
class _Loop:
    """A plan loop being rendered, or the kernel around them all: what a
    write that ends it early sees, and the values bound once at the start
    of its body."""

    # before a break out of it: a pieces loop, which counted all its pieces
    # up front, takes back those it will not visit
    uncount: tuple = ()
    # rendered right after it, in the loop around it: the break out of that
    # loop too, once an inner write has set _hit
    after: tuple = ()
    # the slots an iteration binds: its index or its steppers' positions,
    # and the pins at the start of its body; empty until the body starts
    slots: frozenset = frozenset()
    at: int = 0  # where its body starts in the lines, and its indentation
    pad: str = _IND
    # the bindings made at its body's start, in order of first use, and
    # the local of each value (a dense position, or its code) bound there
    binds: list = field(default_factory=list)
    bound: dict = field(default_factory=dict)


class _Source:
    """Renders one plan as the source of ``kernel(_b)``.

    ``_b`` maps tensor names to bound tensors; the kernel returns its
    (segments, multiplies, pieces emitted) counters and what it wrote,
    which ``_Store.finalize`` turns into the output. Once the source is
    rendered, ``op`` is the plan's assignment operator ("=" for a plan
    that writes nothing). A region slot becomes two locals (its start
    and stop), every other slot one. Each rendering means exactly
    what its plan node means, down to value types: a ``Mul`` starts from
    1.0, ``And``/``Or`` give bools, ``Add`` is ``sum``, and a shift
    subtracts from the stored value the way ``Limit`` arithmetic does.
    """

    def __init__(self, plan: Plan):
        self.plan = plan
        self.slots = {}  # slot -> local, or (lo, hi) locals for a region
        self.levels = {}  # (tensor, level) -> "_<tag>_<level>"
        self.values = {}  # tensor -> "_<tag>_vals"
        self.dense = 0  # dense positions rendered so far
        self.leaf_pos = None  # positions of the leaves of the value being written
        self.canonical = set()  # region slots a write copies as they are (see canon)
        self.guarded = set()  # region slots known not empty: a Guard's, a stored piece's
        self.piece_pos = set()  # position slots of the pieces loops
        # the region slots whose start, and whose stop, the plan reads as a
        # tuple somewhere, and those whose ends it reads as floats (see
        # _end_reads): a region compared in floats keeps only those tuples
        self.tuple_starts, self.tuple_stops, self.float_reads = set(), set(), set()
        _end_reads(plan.body, self.tuple_starts, self.tuple_stops, self.float_reads)
        self.twins = {}  # region slot -> the float twins of its start and stop
        self.floats = set()  # level prefixes whose value columns a kernel reads
        self.fingers = frozenset()  # position locals of the annihilating steppers in scope
        self.ends = {}  # a walk's annihilating stepper -> (its access, start and stop locals)
        self.missable = set()  # position locals that can be -1 (see can_miss)
        self.disc = set()  # slots of the discrete loops rendered so far
        self.top = _Loop()  # the kernel, whose values are bound at its start
        self.loops = []  # _Loop per plan loop around what is rendered
        self.names = {}  # prefix -> locals of that prefix bound so far
        self.hit = False  # whether a write ends more than one loop, through _hit
        self.op = None  # a plan writes with one operator
        self.lines = []

    def source(self) -> str:
        self.stmt(self.plan.body, _IND)
        self.lines[:0] = (_IND + b for b in self.top.binds)
        self.op = self.op or "="
        head = ["def kernel(_b):"]
        for (tensor, level), t in self.levels.items():
            head.append(f"    {t}_table = _b[{tensor!r}].levels[{level}]\n"
                        f"    {t}_starts, {t}_stops, {t}_ptr = "
                        f"{t}_table.starts, {t}_table.stops, {t}_table.ptr")
            if t in self.floats:
                head.append(f"    {t}_los, {t}_his = {t}_table.los, {t}_table.his")
        for tensor, vals in self.values.items():
            head.append(f"    {vals} = _b[{tensor!r}].values")
        if self.op == "=":
            n = sum(2 if c[0] == "interval" else 1 for c in self.plan.output.comps) + 1
            head.append(f"    _out = ({', '.join(['[]'] * n)},)\n    "
                        + ", ".join(f"_put{k}" for k in range(n)) + " = "
                        + ", ".join(f"_out[{k}].append" for k in range(n)))
        elif self.dense_lead():
            head.append(f"    _out = {self.workspace()}")
        elif self.plan.output.comps:
            head.append("    _out = {}\n    _get = _out.get")
        else:
            head.append(f"    _out = {_lit(self.plan.output.fill)}")
        head.append("    _seg = _mul = _emit = 0")
        if self.hit:
            head.append("    _hit = False")
        return "\n".join([*head, *self.lines, _IND + _RETURN, ""])

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

    def level(self, tensor: str, level: int) -> str:
        """Prefix of the locals of a stored level: <prefix>_table (the
        level), and its columns <prefix>_starts, _stops and _ptr."""
        t = self.levels.get((tensor, level))
        if t is None:
            t = self.levels[(tensor, level)] = f"_{_ident(tensor, len(self.levels))}_{level}"
        return t

    def vals(self, tensor: str) -> str:
        v = self.values.get(tensor)
        if v is None:
            v = self.values[tensor] = f"_{_ident(tensor, len(self.values))}_vals"
        return v

    def dense_lead(self) -> int:
        """How many dense ranks lead the output ahead of a continuous one: a
        reduction's workspace's (0 for an output with no continuous rank)."""
        comps = self.plan.output.comps
        return next((k for k, c in enumerate(comps) if c[0] != "dense"), 0)

    def workspace(self) -> str:
        """A reduction's _out over the output's leading dense ranks: nested
        lists of a dict per cell."""
        code = "{}"
        for c in reversed(self.plan.output.comps[:self.dense_lead()]):
            code = f"[{code} for _ in range({c[1]})]"
        return code

    # ---- values bound once, at the start of their home: the innermost
    # loop that binds a slot they read

    def home(self, slots, always=False):
        """The _Loop at whose body's start a value reading these slots is
        bound (the kernel for none), or None where it stays where it is
        used: it reads a slot no loop around binds, or, unless always, its
        home is the innermost loop around the use."""
        if slots is None or not slots <= frozenset().union(*(f.slots for f in self.loops)):
            return None
        home = next((f for f in reversed(self.loops) if f.slots & slots), self.top)
        inner = next((f for f in reversed(self.loops) if f.slots), self.top)
        return home if always or home is not inner else None

    def bind(self, home: _Loop, key, code: str, prefix: str) -> str:
        """The local that code (known as key) is bound to at home's start."""
        local = home.bound.get(key)
        if local is None:
            n = self.names[prefix] = self.names.get(prefix, 0) + 1
            local = home.bound[key] = f"{prefix}{n}"
            home.binds.append(f"{local} = {code}")
        return local

    def reads(self, x):
        """The slots a position, or a path component of constants and loop
        indices, reads; None where it reads anything else. A dense
        position's index reads only constants and discrete loop indices
        (lowering builds it as a sum of those)."""
        t = type(x)
        if t is PRoot or t is Num:
            return frozenset()
        if t is PVar or t is Var:
            return frozenset((x.slot,))
        if t is not PDense:
            return None
        up = self.reads(x.parent)
        terms = x.index.args if type(x.index) is Add else (x.index,)
        if up is None or not all(type(a) is Num or type(a) is Var and a.slot in self.disc
                                 for a in terms):
            return None
        return up.union(a.slot for a in terms if type(a) is Var)

    def index(self, e) -> str:
        """A dense index as an int: a discrete loop's index is one already."""
        if type(e) is Var and e.slot in self.disc:
            return self.var(e.slot, e.name)
        return f"int({self.expr(e)})"

    def entry(self, t: str, fiber, always=False):
        """The ends of a fiber of level prefix t, ptr[f] and ptr[f + 1], as
        locals bound at its home with that home (a missing fiber's are an
        empty one's); None where they stay inline (see home)."""
        home = self.home(self.reads(fiber), always)
        if home is None:
            return None
        f = self.pexpr(fiber)
        miss = f" if {f} >= 0 else 0" if self.can_miss(fiber, f) else ""
        return (home, self.bind(home, f"{t}_ptr[{f}]", f"{t}_ptr[{f}]{miss}", "_beg"),
                self.bind(home, _end(t, f), _end(t, f) + miss, "_end"))

    # ---- position expressions: an int, -1 for a miss

    def pexpr(self, p) -> str:
        if type(p) is PVar:
            return self.var(p.slot, p.name)
        if type(p) is PRoot:
            return "0"
        if type(p) is PDense:
            # bound at its home, evaluated once per iteration of that loop
            home = self.home(self.reads(p), always=True)
            if home is not None and p in home.bound:
                return home.bound[p]
            # own temporaries: the index may itself read a dense position
            parent = self.pexpr(p.parent)
            self.dense += 1
            i, f = f"_i{self.dense}", f"_f{self.dense}"
            idx = f"0 <= ({i} := {self.index(p.index)}) < {p.size}"
            if parent == "0":
                code = f"({i} if {idx} else -1)"
            else:
                code = f"({f} * {p.size} + {i} if ({f} := {parent}) >= 0 and {idx} else -1)"
            return code if home is None else self.bind(home, p, code, "_pos")
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
        if p == "0" or p in self.fingers:
            # a stepper's value is read only where it is in a piece
            return f"{vals}[{p}]"
        if _simple(p):
            return f"({vals}[{p}] if {p} >= 0 else {_lit(e.fill)})"
        return f"({vals}[_t] if (_t := {p}) >= 0 else {_lit(e.fill)})"

    def length(self, e: LenOf) -> str:
        twins = self.twins.get(e.slot)
        if twins is None:
            twins = (f"{x}[0]" for x in self.region(e.slot, e.name))
        lv, hv = twins
        return f"(_d if (_d := {hv} - {lv}) > 0.0 else 0.0)"

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
            start = e.side in ("L", "C")
            p = self.pexpr(e.pos)
            if p not in self.fingers:
                raise ExecError(f"endpoint {render(e)}: {p} is not a stepper in scope")
            local = self.ends.get(p)
            if local is not None and local[0] == (e.tensor, e.level, e.shift):
                return local[1 if start else 2]
            col = self.level(e.tensor, e.level) + ("_starts" if start else "_stops")
            return self.adjust(f"{col}[{p}]", e.shift)
        if t is IvStart:
            return self.region(e.slot, e.name)[0]
        if t is IvStop:
            return self.region(e.slot, e.name)[1]
        if t is LastStop:
            return self.adjust(self.last_stop(e), e.shift)
        if t is MaxOf:
            return f"max({', '.join(map(self.lexpr, e.ends))})"
        if t is LimC:
            # a constant: made once, at the kernel's start, for a use in a loop
            code = f"({_lit(e.value.val)}, {e.value.eps})"
            home = self.home(frozenset())
            return code if home is None else self.bind(home, code, code, "_lim")
        raise ExecError(f"bad endpoint {e!r}")

    def last_stop(self, e: LastStop) -> str:
        """The stop of a fiber's last piece, or _NO_STOP when it has none
        (or f = -1), read inline."""
        t = self.level(e.tensor, e.level)
        ends = self.entry(t, e.fiber)
        if ends is not None:
            home, beg, end = ends
            return self.bind(home, (t, "last", beg), f"{t}_stops[{end} - 1] if {beg} < {end} "
                             "else _NO_STOP", "_last")
        test, f = self.fiber_test(e.fiber)
        return f"({t}_stops[_q - 1] if {test}{t}_ptr[{f}] < (_q := {_end(t, f)}) else _NO_STOP)"

    def fiber_test(self, fiber) -> tuple:
        """The test, ending in " and ", that a fiber position is not -1 (""
        where it cannot be), and the code that reads the position after it."""
        f = self.pexpr(fiber)
        if not self.can_miss(fiber, f):
            return "", f
        if _simple(f):
            return f"{f} >= 0 and ", f
        return f"(_f := {f}) >= 0 and ", "_f"

    def can_miss(self, fiber, f: str) -> bool:
        """Whether a fiber position can be -1: a guarded dense index, a probe's
        result or a stepper that runs out; an annihilating one's never is."""
        return type(fiber) is PDense or f in self.missable

    def adjust(self, base: str, shift) -> str:
        """Shift an endpoint back through the access map."""
        if shift is None:
            return base
        return f"((_v := {base})[0] - {self.expr(shift)}, _v[1])"

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
        test = f"{lo} <= {hi}"
        if s.slot in self.twins:
            # the tuples decide only where the floats tie
            lv, hv = self.twins[s.slot]
            test = f"{lv} < {hv} or {lv} == {hv} and {test}"
        self.guarded.add(s.slot)
        self.nested(f"if {test}:", s.body, pad)
        self.guarded.discard(s.slot)

    def cond(self, s: Cond, pad: str):
        self.nested(f"if {self.expr(s.test)}:", s.body, pad)

    def disc_loop(self, s: DiscLoop, pad: str):
        self.disc.add(s.slot)
        with self.loop(pad):
            self.lines.append(f"{pad}for {self.var(s.slot, s.name)} in range({s.lo}, {s.hi + 1}):")
            self.scoped(s.body, pad + _IND, self.fingers, {s.slot})

    @contextmanager
    def loop(self, pad: str, uncount=()):
        """Render a plan loop's lines inside this; a write inside may end it
        early, and what it asks for after the loop is rendered at pad."""
        frame = _Loop(tuple(uncount))
        self.loops.append(frame)
        yield
        self.loops.pop()
        self.lines[frame.at:frame.at] = (frame.pad + b for b in frame.binds)
        self.lines.extend(pad + line for line in frame.after)

    def let(self, s: LetScalar, pad: str):
        self.lines.append(f"{pad}{self.var(s.slot, s.name)} = {self.expr(s.expr)}")

    def pin(self, s: Pin, pad: str):
        x = self.var(s.slot, s.name)
        if type(s.at) is IvStart:
            lo, hi = self.region(s.at.slot, s.at.name)
            self.lines.append(f"{pad}if {lo} != {hi}:\n{pad}{_IND}_pin_error({lo}, {hi})\n"
                              f"{pad}{x} = {lo}[0]")
        else:
            # a stored point's coordinate, from its value column where it
            # is a stepper's in its own loop
            used = set()
            at = self.float_end(s.at, used) or f"{self.lexpr(s.at)}[0]"
            self.floats |= used
            self.lines.append(f"{pad}{x} = {at}")

    def probe(self, s: Probe, pad: str):
        t = self.level(s.tensor, s.level)
        if s.shift == Num(0.0):
            # at shift 0, SparseLevel.probe inline: the first piece whose stop
            # is at or past x holds x if its start is at or below it. The
            # fiber's ends are read inline, or bound at their home
            ends = self.entry(t, s.parent)
            if ends is None:
                test, f = self.fiber_test(s.parent)
                beg, end = f"{t}_ptr[{f}]", f"(_q := {_end(t, f)})"
            else:
                test, (_, beg, end) = "", ends
            x = self.expr(s.coord)
            q = "_q" if ends is None else end
            find = (f"(_p if {test}(_p := bisect_left({t}_stops, (_t := ({x}, 0)), {beg}, "
                    f"{end})) < {q} and {t}_starts[_p] <= _t else -1)")
        else:
            find = (f"_probe({t}_table, {self.pexpr(s.parent)}, {self.expr(s.coord)}, "
                    f"{self.expr(s.shift)})")
        q = self.var(s.slot, s.name)
        self.missable.add(q)
        self.lines.append(f"{pad}{q} = {find}")

    def intersect(self, s: IntersectLet, pad: str):
        """Region = [max(starts), min(stops)]; ties keep the first, as max/min do."""
        if not s.starts or not s.stops:
            raise ExecError(f"region {s.name} has no start or no stop")
        lo, hi = self.region(s.slot, s.name)
        if (all(self.canon(a, True) for a in s.starts)
                and all(self.canon(a, False) for a in s.stops)):
            self.canonical.add(s.slot)
        piece = self.stored_piece(s)
        if piece:
            # never empty, as its level was checked
            self.guarded.add(s.slot)
        # compared in floats where the plan reads its floats and each of its
        # ends has one
        fstarts, fstops, used = [None], [None], set()
        if s.slot in self.float_reads:
            fstarts, fstops = ([self.float_end(a, used) for a in ops]
                               for ops in (s.starts, s.stops))
        if None in fstarts or None in fstops:
            out = self.tuple_region(lo, hi, s.starts, s.stops, pad)
        else:
            self.floats |= used
            out = self.float_region(s, fstarts, fstops, pad)
        if out and piece and self.loops[-1].at == len(self.lines):
            # at the start of a loop's body, it reads only its pieces loop's
            # position: the region is bound with the loop's slots
            self.loops[-1].slots |= {s.slot}
            self.loops[-1].at += 1
        if out:
            self.lines.append("\n".join(out))

    def tuple_region(self, lo: str, hi: str, starts, stops, pad: str) -> list:
        """A region's lines that compare its ends as tuples."""
        out = []
        for target, ops, cmp in ((lo, starts, ">"), (hi, stops, "<")):
            out.append(f"{pad}{target} = {self.lexpr(ops[0])}")
            tail = f"\n{pad}if _e {cmp} {target}:\n{pad}{_IND}{target} = _e"
            out.extend(f"{pad}_e = {self.lexpr(a)}{tail}" for a in ops[1:])
        return out

    def float_region(self, s: IntersectLet, fstarts, fstops, pad: str) -> list:
        """A region's lines that compare the floats of its ends first, and
        the tuples only where two floats tie: the region gets float twins
        for its start and stop. Where the plan reads an end of it only in a
        Guard, that end's tuple is not kept: the Guard, at a float tie,
        takes it as the max of the starts (the min of the stops). A lone
        end that is a local is used as it is."""
        twins, ends, out = [], [], []
        i = pad + _IND
        sides = ((s.starts, fstarts, ">", "max", s.slot in self.tuple_starts),
                 (s.stops, fstops, "<", "min", s.slot in self.tuple_stops))
        for end, (ops, fl, cmp, pick, keep) in zip(self.region(s.slot, s.name), sides):
            codes = [self.lexpr(a) for a in ops]
            twin = end[:-1] + "v"  # r_lo -> r_lv, r_hi -> r_hv
            if len(ops) == 1 and _simple(fl[0]):
                twin = fl[0]
            else:
                out.append(f"{pad}{twin} = {fl[0]}")
            if not keep:
                end = codes[0] if len(ops) == 1 else f"{pick}({', '.join(codes)})"
            elif len(ops) == 1 and _simple(codes[0]):
                end = codes[0]
            else:
                out.append(f"{pad}{end} = {codes[0]}")
            for code, f in zip(codes[1:], fl[1:]):
                tie = f" or _ev == {twin} and {code} {cmp} {end}" if keep else ""
                out.append(f"{pad}_ev = {f}\n{pad}if _ev {cmp} {twin}{tie}:\n{i}{twin} = _ev"
                           + (f"\n{i}{end} = {code}" if keep else ""))
            twins.append(twin)
            ends.append(end)
        self.slots[s.slot] = tuple(ends)
        self.twins[s.slot] = tuple(twins)
        return out

    def float_end(self, e, used: set):
        """The float of an end that a region made in a finger or pieces
        loop's iteration reads, or None where there is none: a stepper's
        unshifted stored end, read from its level's value column (whose
        level prefix is added to used), or a float twin of such a region's
        end, the finger loop's segment among them."""
        t = type(e)
        if t is IvStart or t is IvStop:
            twins = self.twins.get(e.slot)
            return None if twins is None else twins[t is IvStop]
        if t is not EndRef or e.shift is not None or type(e.pos) is not PVar:
            return None
        p = self.var(e.pos.slot, e.pos.name)
        if p not in self.fingers or p in self.ends:
            return None
        level = self.level(e.tensor, e.level)
        used.add(level)
        return f"{level}_{'los' if e.side in ('L', 'C') else 'his'}[{p}]"

    def stored_piece(self, s: IntersectLet) -> bool:
        """Whether a region is the piece at a pieces loop's position: its
        one start and one stop are that piece's, unshifted."""
        if len(s.starts) != 1 or len(s.stops) != 1:
            return False
        (a,), (b,) = s.starts, s.stops
        return (type(a) is EndRef and type(b) is EndRef and a.shift is None and b.shift is None
                and (a.tensor, a.level, a.pos, a.side, b.side) == (b.tensor, b.level, b.pos, "L", "R")
                and type(a.pos) is PVar and a.pos.slot in self.piece_pos)

    def canon(self, e, start: bool) -> bool:
        """Whether a region's end, among its starts or among its stops, never
        lies past the open -inf or inf, so a write need not clamp it: an
        unshifted stored end, which a level keeps between them; a constant
        that is finite or one of them; the start or stop of a canonical
        region; a MaxOf of such. A last stop, and so a region's stop, can be
        an empty fiber's, just below -inf: it counts only among stops, where
        it leaves the region empty."""
        t = type(e)
        if t is EndRef or t is LastStop:
            return e.shift is None and (t is EndRef or not start)
        if t is LimC:
            return math.isfinite(e.value.val) or e.value in (_NEG_OPEN, _POS_OPEN)
        if t is IvStart or t is IvStop:
            return e.slot in self.canonical and (t is IvStart or not start)
        return t is MaxOf and all(self.canon(a, start) for a in e.ends)

    def scoped(self, body, pad: str, fingers, slots):
        """Render the innermost loop's body with these annihilating steppers
        in scope. An iteration binds these slots and those of the pins at
        the body's start; the loop's values are bound after those pins."""
        outer, self.fingers = self.fingers, fingers
        stmts = body.stmts if type(body) is Block else ()
        n = next((k for k, x in enumerate(stmts) if type(x) is not Pin), len(stmts))
        for x in stmts[:n]:
            self.pin(x, pad)
        frame = self.loops[-1]
        frame.slots = frozenset((*slots, *(x.slot for x in stmts[:n])))
        frame.at, frame.pad = len(self.lines), pad
        self.stmt(Block(stmts[n:]) if n else body, pad)
        self.fingers = outer

    def coiter(self, s: WhileCoiter, pad: str):
        """One co-iteration, in the shape lowering chose (see the module
        notes); a pieces loop is ``pieces``'s."""
        if s.shape == "pieces":
            self.pieces(s, pad)
            return
        with self.loop(pad):
            (self.walk_loop if s.shape == "walk" else self.finger_loop)(s, pad)

    def walk_loop(self, s: WhileCoiter, pad: str):
        """A walk: its segment starts at the cursor, just past the last
        stop, and ends at the least of the range's stop and the steppers'.
        Every stepper keeps one state: its position, its fiber's end, and
        its piece's start and stop, shifted back once, in locals loaded
        where it enters and again only where it moves on (_PAST past its
        fiber's end); the body reads an annihilating stepper's ends from
        them. Each ends a segment at its stop in its piece; one that runs
        out also ends it just before its start in its gap. The walk ends
        after a segment that ends at the range's stop, before the steppers
        move on."""
        lo, hi = self.region(s.range_slot, s.range_name)
        cur = self.var(s.cursor_slot, s.cursor_name)
        seg_lo, stop = self.region(s.curr_slot, s.curr_name)
        add = self.lines.append
        add(f"{pad}if not {lo} > {hi}:")
        pad += _IND
        i = pad + _IND
        steppers = []
        fingers = set(self.fingers)
        for st in s.steppers:
            p = self.var(st.pos_slot, st.pos_name)
            t = self.level(st.tensor, st.level)
            f = self.pexpr(st.fiber)
            at, ends = f"_{p}_at" if st.runs_out else p, (f"_{p}_start", f"_{p}_stop")
            a, b = (self.adjust(f"{t}_{c}[{at}]", st.shift) for c in ("starts", "stops"))
            load = f"{ends[0]}, {ends[1]} = ({a}, {b}) if {at} < _{p}_end else (_PAST, _PAST)"
            shift = "0.0" if st.shift is None else self.expr(st.shift)
            add(f"{pad}{at} = _seek({t}_table, {f}, {lo}, {shift})\n"
                f"{pad}_{p}_end = {_end(t, f)}\n{pad}{load}")
            if st.runs_out:
                self.missable.add(p)
            else:
                fingers.add(p)
                self.ends[p] = ((st.tensor, st.level, st.shift), *ends)
            steppers.append((p, at, *ends, load, st.runs_out))
        add(f"{pad}{cur} = {lo}\n{pad}while {cur} <= {hi}:")
        add(f"{i}_seg += 1\n{i}{stop} = {hi}")
        pad, i = i, i + _IND
        for p, at, start, r, _, runs_out in steppers:
            if runs_out:
                # the body reads p, -1 in its gap
                add(f"{pad}if {start} <= {cur}:\n{i}{p} = {at}\n{i}if {r} < {stop}:\n"
                    f"{i}{_IND}{stop} = {r}\n{pad}else:\n{i}{p} = -1\n"
                    f"{i}if {start} <= {stop}:\n{i}{_IND}{stop} = ({start}[0], {start}[1] - 1)")
            else:
                add(f"{pad}if {r} < {stop}:\n{i}{stop} = {r}")
        add(f"{pad}{seg_lo} = {cur}")
        self.scoped(s.body, pad, fingers, [st.pos_slot for st in s.steppers])
        # a segment that ends at the range's stop is the last
        add(f"{pad}if {stop} is {hi}:\n{i}break")
        for _, at, _, r, load, _ in steppers:
            add(f"{pad}if {r} == {stop}:\n{i}{at} += 1\n{i}{load}")
        # the cursor moves to stop + EPS, the first endpoint past the segment;
        # adding the int 0 turns -0.0 into 0.0, as Limit arithmetic does, and
        # leaves an int-valued stop an int
        add(f"{pad}_n = ({stop}[0] + 0, {stop}[1] + 1 if {stop}[1] < 1 else 1)\n"
            f"{pad}if not _n > {cur}:\n"
            f'{i}raise _ExecError("co-iteration failed to advance")\n'
            f"{pad}{cur} = _n")

    def finger_loop(self, s: WhileCoiter, pad: str):
        """A finger loop (see the module notes), in one of two forms. With no
        range, each finger enters at its fiber's first piece, the loop runs
        only where every fiber has one, and it ends when a finger that moves
        on reaches its fiber's end: within a fiber stops strictly increase.
        With a range, each finger enters at the range's start, the range's
        stop is the first of the stops, and the loop ends after a segment
        that ends there, which no finger's last stop lies below. Its segment
        starts at the range's start: a finger that moved on starts past the
        stop it left, so max(range start, starts) is a walk's max(cursor,
        starts). Each finger's stop, and the segment's, has a float twin,
        and the loop compares those first (see the module notes)."""
        ranged = s.range_slot is not None
        _, stop = self.region(s.curr_slot, s.curr_name)
        lv, stopv = None, stop[:-1] + "v"
        add = self.lines.append
        least = []
        if ranged:
            lo, hi = self.region(s.range_slot, s.range_name)
            lv, hv = lo[:-1] + "v", hi[:-1] + "v"
            self.slots[s.curr_slot] = (lo, stop)
            least.append((hi, hv))
            add(f"{pad}if not {lo} > {hi}:")
            pad += _IND
        self.twins[s.curr_slot] = (lv, stopv)
        if not ranged or s.range_slot in self.canonical:
            # a segment ends at the range's ends or at the fingers' stops
            self.canonical.add(s.curr_slot)
        steppers, entered = [], []
        for st in s.steppers:
            if st.shift is not None or st.runs_out:
                raise ExecError(f"finger {st.pos_name} is shifted or runs out")
            p = self.var(st.pos_slot, st.pos_name)
            t = self.level(st.tensor, st.level)
            self.floats.add(t)
            r, rv = f"_{p}_stop", f"_{p}_stopv"
            first = (f"{t}_stops[{p}]", f"{t}_his[{p}]")
            end = None
            if ranged:
                add(f"{pad}{p} = _seek({t}_table, {self.pexpr(st.fiber)}, {lo}, 0.0)")
            else:
                home, beg, end = self.fiber(s, st, p, pad)
                if home is not None:
                    # its first stop, bound with its ends, where its fiber may be empty
                    first = (self.bind(home, (t, "first", beg), f"{t}_stops[{beg}] if {beg} < "
                                       f"{end} else _PAST", "_first"),
                             self.bind(home, (t, "firstv", beg), f"{t}_his[{beg}] if {beg} < "
                                       f"{end} else _INF", "_firstv"))
                    add(f"{pad}{p} = {beg}")
                entered.append(f"{p} < {end}")
            steppers.append((p, t, end, r, rv, first))
        if entered:
            add(f"{pad}if {' and '.join(entered)}:")
            pad += _IND
        i = pad + _IND
        for p, t, _, r, rv, (a, b) in steppers:
            add(f"{pad}{r} = {a}\n{pad}{rv} = {b}")
        if ranged:
            add(f"{pad}{lv} = {lo}[0]\n{pad}{hv} = {hi}[0]")
        add(f"{pad}while True:\n{i}_seg += 1")
        pad, i = i, i + _IND
        least += [(r, rv) for *_, r, rv, _ in steppers]
        add(f"{pad}{stop} = {least[0][0]}\n{pad}{stopv} = {least[0][1]}")
        for r, rv in least[1:]:
            add(f"{pad}if {rv} < {stopv} or {rv} == {stopv} and {r} < {stop}:\n"
                f"{i}{stop} = {r}\n{i}{stopv} = {rv}")
        self.scoped(s.body, pad, self.fingers | {p for p, *_ in steppers},
                    [st.pos_slot for st in s.steppers])
        if ranged:
            add(f"{pad}if {stop} is {hi}:\n{i}break")
        for p, t, end, r, rv, _ in steppers:
            last = "" if ranged else f"{i}if {p} == {end}:\n{i}{_IND}break\n"
            add(f"{pad}if {rv} == {stopv} and ({r} is {stop} or {r} == {stop}):\n{i}{p} += 1\n"
                f"{last}{i}{r} = {t}_stops[{p}]\n{i}{rv} = {t}_his[{p}]")

    def fiber(self, s: WhileCoiter, st, p: str, pad: str) -> tuple:
        """Where a pieces or rangeless finger loop's stepper, position local
        p, enters its fiber: the home of the fiber's ends and the locals of
        its first position and its end, a missing fiber's those of an empty
        one. The ends are read from locals bound at their home where a loop
        nested in that home reads them (a loop inside s enters the fiber
        again, or this loop is nested in the home), else here, into p and
        _<p>_end, with no home."""
        t = self.level(st.tensor, st.level)
        ends = self.entry(t, st.fiber, always=_enters(s.body, st))
        if ends is not None:
            return ends
        f, end = self.pexpr(st.fiber), f"_{p}_end"
        if not self.can_miss(st.fiber, f):
            self.lines.append(f"{pad}{p} = {t}_ptr[{f}]\n{pad}{end} = {_end(t, f)}")
            return None, p, end
        test, g = (f, f) if _simple(f) else (f"(_f := {f})", "_f")
        self.lines.append(f"{pad}{p}, {end} = ({t}_ptr[{g}], {_end(t, g)}) if {test} >= 0 "
                          "else (0, 0)")
        return None, p, end

    def pieces(self, s: WhileCoiter, pad: str):
        """A pieces loop: the lone stepper's positions, in a for loop. Every
        piece is a region, so the segments are counted once, before the
        loop."""
        (st,) = s.steppers
        p = self.var(st.pos_slot, st.pos_name)
        self.piece_pos.add(st.pos_slot)
        _, beg, end = self.fiber(s, st, p, pad)
        self.lines.append(f"{pad}_seg += {end} - {beg}\n{pad}for {p} in range({beg}, {end}):")
        # a write that ends the loop at p has visited the pieces up to p
        with self.loop(pad, [f"_seg -= {end} - {p} - 1"]):
            self.scoped(s.body, pad + _IND, self.fingers | {p}, [st.pos_slot])

    def write(self, s, pad: str):
        add = self.lines.append
        if self.op not in (None, s.op):
            raise ExecError(f"plan writes with both {self.op!r} and {s.op!r}")
        self.op = s.op
        # a write whose set is empty is dropped, after it is counted; each
        # rank's code per column: a start and a stop at an interval rank, as
        # the region holds them where its ends are canonical, else clamped
        # to the open -inf and inf
        cols, present = [], []
        for c, kind in zip(s.path, self.plan.output.comps):
            if c[0] == "d":
                cols.append([self.index(c[1])])
            elif c[0] == "p":
                # a pinned coordinate is a local; at an interval rank it is
                # the closed point piece
                x = self.expr(c[1])
                cols.append([x] if kind[0] == "pinpoint" else [f"({x}, 0)"] * 2)
            elif c[1] in self.canonical:
                lo, hi = self.region(c[1], c[2])
                if c[1] not in self.guarded:
                    present.append(f"{lo} <= {hi}")
                cols.append([lo, hi])
            else:
                n = len(present)
                lo, hi = self.region(c[1], c[2])
                present.append(f"(_lo{n} := _NEG_OPEN if {lo} < _NEG_OPEN else {lo}) <= "
                               f"(_hi{n} := _POS_OPEN if {hi} > _POS_OPEN else {hi})")
                cols.append([f"_lo{n}", f"_hi{n}"])
        self.leaf_pos = []
        value = self.expr(s.value)
        leaves, self.leaf_pos = self.leaf_pos, None
        if s.op in ("|=", "&=") and type(s.value) not in (And, Or, Not, Cmp, BoolC):
            value = f"(True if {value} else False)"  # the cell holds a bool
        if s.two_tensor and leaves:
            # a multiply is counted where every leaf is stored, not fill;
            # an access written twice reads one position
            tests = " and ".join(f"{p} >= 0" for p in dict.fromkeys(leaves)
                                 if p != "0" and p not in self.fingers)
            add(f"{pad}if {tests}:\n{pad}{_IND}_mul += 1" if tests else f"{pad}_mul += 1")
        if s.emits:
            add(f"{pad}_emit += 1")
        if present:
            add(f"{pad}if {' and '.join(present)}:")
            pad += _IND
        fill = _lit(self.plan.output.fill)
        if s.op == "=":
            # assigning the fill leaves the cell as it is
            puts = [*(code for rank in cols for code in rank), "_val"]
            add(f"{pad}if (_val := {value}) != {fill}:"
                + "".join(f"\n{pad}{_IND}_put{k}({code})" for k, code in enumerate(puts)))
            return
        if s.op not in _REDUCE:
            raise ExecError(f"bad assignment operator {s.op!r}")
        combine = _REDUCE[s.op][0]
        add(f"{pad}_val = {value}")
        if cols:
            # a write that may end loops keeps the cell's combined value
            cell, old = self.cell(s.path, cols, pad)
            add(f"{pad}{cell} = {'_val = ' if s.exits else ''}{combine.format(old, '_val')}")
        else:
            add(f"{pad}_out = {combine.format('_out', '_val')}")
        if s.exits:
            self.exit(s, "_val" if cols else "_out", pad)

    def cell(self, path, cols, pad: str) -> tuple:
        """A reduction's cell and its value before the write (the fill until
        it is written). The workspace row that the leading dense indices
        select, and the key of the rest of the path, are bound at their
        home where that is outside the innermost loop, else just before."""
        comps = [f"({r[0]}, {r[1]})" if len(r) == 2 else r[0] for r in cols]
        fill = _lit(self.plan.output.fill)
        n = self.dense_lead()
        # the rest of the path, bare where one rank remains in a cell's dict
        key = comps[n] if 0 < n == len(comps) - 1 else f"({', '.join(comps[n:])},)"
        key = self.local(path[n:], key, "_key", pad)
        if not n:
            return f"_out[{key}]", f"_get({key}, {fill})"
        row = self.local(path[:n], "_out" + "".join(f"[{c}]" for c in comps[:n]), "_ws", pad)
        return f"{row}[{key}]", f"{row}.get({key}, {fill})"

    def local(self, path, code: str, prefix: str, pad: str) -> str:
        """code, of these path components, as it is or in a local: bound at
        its home, or set just before its use (as the temporary prefix)."""
        if _simple(code):
            return code
        # a region's component reads its slot, bound only where a pieces
        # loop's body starts with it (see intersect)
        slots = [self.reads(c[1]) if c[0] != "iv" else frozenset((c[1],)) for c in path]
        home = None if None in slots else self.home(frozenset().union(*slots))
        if home is not None:
            return self.bind(home, code, code, prefix)
        self.lines.append(f"{pad}{prefix} = {code}")
        return prefix

    def exit(self, s: Write, cell: str, pad: str):
        """End the write's loops once its cell is absorbing: break out of
        the innermost, and set _hit for each loop around it that ends too;
        return at once when they are all the kernel's loops."""
        n, loops = s.exits, self.loops
        if n > len(loops):
            raise ExecError(f"a write ends {n} loops inside {len(loops)}")
        i = pad + _IND
        lines = [f"{pad}if {'' if s.op == '|=' else 'not '}{cell}:"]
        if n == len(loops):
            lines += [i + u for f in loops for u in f.uncount] + [i + _RETURN]
        else:
            if n > 1:
                self.hit = True
                lines.append(f"{i}_hit = True")
                for k in range(len(loops) - n + 1, len(loops)):
                    # after an inner loop ends on a hit, the loop around it
                    # breaks; the outermost of them clears the flag
                    reset = ("    _hit = False",) if k == len(loops) - n + 1 else ()
                    loops[k].after = ("if _hit:", *reset,
                                      *("    " + u for u in loops[k - 1].uncount), "    break")
            lines += [i + u for u in loops[-1].uncount] + [i + "break"]
        self.lines.append("\n".join(lines))


_EXPR = {
    Num: _Source.const, BoolC: _Source.const, Var: _Source.var_expr,
    LeafVal: _Source.leaf, LenOf: _Source.length, Mul: _Source.mul, Add: _Source.add,
    And: _Source.logic, Or: _Source.logic, Sub: _Source.binary, Div: _Source.binary,
    Neg: _Source.unary, Not: _Source.unary, Cmp: _Source.cmp,
}
_STMT = {
    Block: _Source.block, IntersectLet: _Source.intersect, Guard: _Source.guard,
    Write: _Source.write, WhileCoiter: _Source.coiter,
    DiscLoop: _Source.disc_loop, LetScalar: _Source.let, Probe: _Source.probe,
    Cond: _Source.cond, Pin: _Source.pin,
}


def kernel_source(plan: Plan) -> str:
    """The Python source ``run`` compiles and calls for this plan."""
    return _Source(plan).source()


@dataclass(frozen=True)
class _Kernel:
    fn: object  # the compiled kernel(_b)
    op: str  # the plan's assignment operator, as _Source found it
    source: str  # the text fn was compiled from


_KERNELS = {}  # Plan.key -> _Kernel, the least recently run first
_MAX_KERNELS = 128


def _kernel(plan: Plan) -> _Kernel:
    """The plan's compiled kernel, rendered and compiled only on a miss."""
    key = plan.key
    k = _KERNELS.pop(key, None)
    if k is None:
        render = _Source(plan)
        source = render.source()
        namespace = dict(_GLOBALS)
        exec(compile(source, "<contensor kernel>", "exec"), namespace)
        k = _Kernel(namespace["kernel"], render.op, source)
        if len(_KERNELS) >= _MAX_KERNELS:
            del _KERNELS[next(iter(_KERNELS))]
    _KERNELS[key] = k
    return k


# ---------------------------------------------------------------------------
# output store


def _above(t) -> tuple:
    """t + EPS, as Limit arithmetic gives it."""
    return t[0] + 0.0, t[1] + 1 if t[1] < 1 else 1


def _below(t) -> tuple:
    """t - EPS, as Limit arithmetic gives it."""
    return t[0] - 0.0, t[1] - 1 if t[1] > -1 else -1


class _Store:
    """Builds the output from what a kernel wrote (see the module notes).

    Under ``=`` the kernel's columns are stored as they are where they
    can be, and else zipped into ``(*path, value)`` records in sorted()
    order, so every fiber's records are contiguous and in order; equal
    paths are a cell assigned twice and overlapping pieces a layout
    fault. A reduction's cells keep their first-write order, the order in
    which overlapping pieces combine: a loop outside a continuous output
    rank cuts each iteration's pieces differently, and they are split
    where any of them ends and combined through the operator. Touching
    pieces with equal contents merge at every rank, as the oracle's do.
    """

    def __init__(self, decl: OutputDecl, op: str):
        self.decl, self.op = decl, op
        # under "=", the records zipped from the columns, in sorted()
        # order, for the error of a cell assigned twice
        self.records = []
        self.nan = False  # whether a NaN reached a leaf

    def finalize(self, out):
        """The output from the kernel's columns, workspace, cell dict or value."""
        decl = self.decl
        recs = None
        if self.op != "=":
            if not decl.comps:
                self.nan = out != out
                return out
            if isinstance(out, dict):  # not a workspace
                recs = [(*path, v) for path, v in out.items() if v != decl.fill]
        else:
            *cols, vals = out
            if len(decl.comps) == 1 and decl.comps[0][0] == "interval":
                # with no equal neighbours to merge, the columns are the level
                # if ContTensor finds them in order and disjoint; pieces out of
                # order are sorted below, and an overlap raised there
                starts, stops = cols
                equal = compress(range(1, len(vals)), map(eq, islice(vals, 1, None), vals))
                if not any(_touching(stops[p - 1], starts[p]) for p in equal):
                    level = SparseLevel((0, len(vals)), tuple(starts), tuple(stops))
                    try:
                        tensor = ContTensor(decl.name, (level,), tuple(vals), decl.fill)
                    except StorageError:
                        pass
                    else:
                        self.nan = any(map(ne, vals, vals))
                        return tensor
            # each rank's column, or an interval rank's (start, stop) pairs
            it = iter(cols)
            ranks = [zip(c, next(it)) if comp[0] == "interval" else c
                     for comp, c in zip(decl.comps, it)]
            recs = self.records = sorted(zip(*ranks, vals))
            if not decl.comps:
                if len(recs) > 1:
                    self._assigned_twice()
                value = vals[0] if vals else decl.fill
                self.nan = value != value
                return value
        root = self._workspace(out, 0, ()) if recs is None else self._fiber(recs, 0)
        specs = [("dense", c[1]) if c[0] == "dense" else (c[0],) for c in decl.comps]
        return build_tensor(decl.name, specs, root, fill=decl.fill)

    def _workspace(self, out, depth, cell):
        """The fiber of a reduction's workspace at a dense rank, the cell
        at which it is out: each cell's records by the rest of the path,
        fill dropped, through _fiber in their first-write order."""
        comps, fill = self.decl.comps, self.decl.fill
        if comps[depth][0] == "dense":
            return [self._workspace(x, depth + 1, (*cell, k)) for k, x in enumerate(out)]
        # a column per rank of the keys, each bare where one rank remains
        cols = (out,) if depth == len(comps) - 1 else zip(*out)
        vals = out.values()
        recs = list(compress(zip(*map(repeat, cell), *cols, vals), map(ne, vals, repeat(fill))))
        return self._fiber(recs, depth) if recs else []

    def _assigned_twice(self):
        """Raise OverlapError for the least cell written twice, if any: the
        message reads the output alone, not the order of its writes."""
        paths = [r[:-1] for r in self.records]
        for path in (a for a, b in zip(paths, paths[1:]) if a == b):
            raise OverlapError(f"output cell {self._shown(path)} assigned twice")

    def _shown(self, path) -> tuple:
        """A path with its continuous components as Limit pairs."""
        return tuple((Limit(*c[0]), Limit(*c[1])) if comp[0] == "interval"
                     else (Limit(c), Limit(c)) if comp[0] == "pinpoint" else c
                     for comp, c in zip(self.decl.comps, path))

    def _default(self, depth):
        """Shape of an untouched subtree at this depth."""
        if depth == len(self.decl.comps):
            return self.decl.fill
        comp = self.decl.comps[depth]
        if comp[0] == "dense":
            return [self._default(depth + 1) for _ in range(comp[1])]
        return []

    def _fiber(self, recs, depth):
        """The nested fiber of recs, the records under one path prefix."""
        kind = self.decl.comps[depth][0]
        if depth == len(self.decl.comps) - 1:
            return self._leaves(kind, recs, depth)
        groups = _groups(recs, depth)
        if kind == "dense":
            out = self._default(depth)
            for k in sorted(groups):
                out[k] = self._fiber(groups[k], depth + 1)
            return out
        keys = sorted(groups)
        if kind == "interval" and self.op != "=" and not _disjoint(keys):
            groups = _groups(self._overlay(recs, depth), depth)
            keys = sorted(groups)
        nodes = [self._fiber(groups[k], depth + 1) for k in keys]
        pairs = list(zip(keys, nodes))
        if kind == "interval":
            return self._line(pairs, 0, nodes)
        return pairs

    def _leaves(self, kind, recs, depth):
        """The last rank: one record per key, its value the leaf."""
        if self.op != "=":
            # cells in first-write order, which overlapping pieces combine in
            ordered = sorted(recs)
            if kind == "interval" and not _disjoint(list(map(itemgetter(depth), ordered))):
                ordered = sorted(self._overlay(recs, depth))
            recs = ordered
        vals = list(map(itemgetter(-1), recs))
        if any(map(ne, vals, vals)):
            self.nan = True  # a NaN is never merged away, so it reaches a leaf
        if kind == "interval":
            return self._line(recs, depth, vals)
        keys = list(map(itemgetter(depth), recs))
        if self.op == "=" and any(map(eq, keys, islice(keys, 1, None))):
            self._assigned_twice()
        if kind == "pinpoint":
            return list(zip(keys, vals))
        out = self._default(depth)
        for k, v in zip(keys, vals):
            out[k] = v
        return out

    def _line(self, items: list, at: int, nodes: list) -> list:
        """One interval fiber from items sorted by their piece, item[at],
        and their nodes. Equal touching pieces merge, and an overlap under
        "=" is raised."""
        out = []  # (piece, node) pairs
        hi = None  # the stop of the last piece in out
        for r, node in zip(items, nodes):
            piece = r[at]
            lo2 = piece[0]
            if hi is not None:
                if lo2 <= hi:
                    self._assigned_twice()  # a cell written twice is named first
                    raise OverlapError(
                        f"output pieces {Interval(Limit(*out[-1][0][0]), Limit(*hi))} and "
                        f"{Interval(Limit(*lo2), Limit(*piece[1]))} overlap on {self.decl.name}")
                if _touching(hi, lo2) and node == out[-1][1]:
                    hi = piece[1]  # lo2 is hi + EPS: one piece
                    out[-1] = ((out[-1][0][0], hi), node)
                    continue
            out.append((piece, node))
            hi = piece[1]
        return out

    def _overlay(self, recs, depth) -> list:
        """recs with their pieces at depth split into the elementary pieces
        all their ends cut the line into, combined through the operator in
        the order of recs; a piece combined to the fill is not stored."""
        # a cut is the first endpoint of what follows it
        cuts = sorted({c for r in recs for c in (r[depth][0], _above(r[depth][1]))})
        combine = _REDUCE[self.op][1]
        out = {}
        for r in recs:
            start, stop = r[depth]
            v = r[-1]
            for k in range(bisect_left(cuts, start), bisect_left(cuts, _above(stop))):
                sub = (*r[:depth], (cuts[k], _below(cuts[k + 1])), *r[depth + 1:-1])
                out[sub] = v if sub not in out else combine(out[sub], v)
        return [(*path, v) for path, v in out.items() if v != self.decl.fill]


def _groups(recs, depth) -> dict:
    """recs by their component at depth, each group in the order of recs."""
    groups = {}
    for r in recs:
        groups.setdefault(r[depth], []).append(r)
    return groups


_START = itemgetter(0)  # of a (start, stop) piece
_STOP = itemgetter(1)


def _touching(hi: tuple, lo: tuple) -> bool:
    """Whether a piece that starts at lo follows one that stops at hi with
    nothing between: lo is hi + EPS."""
    return lo[0] == hi[0] and lo[1] == hi[1] + 1


def _disjoint(pieces: list) -> bool:
    """Whether each of these (start, stop) pieces stops below the next
    one's start."""
    return all(map(lt, map(_STOP, pieces), map(_START, islice(pieces, 1, None))))


def run(plan: Plan) -> ExecResult:
    kernel = _kernel(plan)
    try:
        segments, multiplies, emitted, out = kernel.fn(plan.bindings)
    except ZeroDivisionError as err:
        # only a "/" divides; R-DIV has ruled out a constant 0 divisor
        raise DivisionByZeroError(plan.output.name) from err
    stats = ExecStats(multiplies=multiplies, segments_visited=segments,
                      pieces_emitted=emitted)
    store = _Store(plan.output, kernel.op)
    out = store.finalize(out)
    diags = [f"output {plan.output.name} contains NaN values"] if store.nan else []
    return ExecResult(out, stats, diags)


__all__ = ["ExecError", "ExecResult", "ExecStats", "kernel_source", "run"]
