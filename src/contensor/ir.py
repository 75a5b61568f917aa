"""Symbolic IR: scalar/endpoint expressions and finite plan statements.

A Plan is what lowering produces from a program plus tensor bindings: a
tree of discrete loops, co-iteration while loops, interval bindings,
guards and writes. Expressions reference bound tensors by name and leave
positions in runtime slots, so the same plan walks every fiber without
being re-derived per fiber.

Execution lives in executor.py; nothing here evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Union

from .limits import Limit, fmt_num


# ---------------------------------------------------------------------------
# position expressions


@dataclass(frozen=True)
class PRoot:
    def render(self) -> str:
        return "root"


@dataclass(frozen=True)
class PVar:
    slot: int
    name: str

    def render(self) -> str:
        return self.name


@dataclass(frozen=True)
class PDense:
    parent: "PExpr"
    size: int
    index: "SExpr"

    def render(self) -> str:
        return f"({self.parent.render()}*{self.size} + {render(self.index)})"


PExpr = Union[PRoot, PVar, PDense]


# ---------------------------------------------------------------------------
# scalar expressions


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class BoolC:
    value: bool


@dataclass(frozen=True)
class Var:
    slot: int
    name: str


@dataclass(frozen=True)
class LeafVal:
    tensor: str
    pos: PExpr
    fill: Union[float, bool]


@dataclass(frozen=True)
class Add:
    args: tuple


@dataclass(frozen=True)
class Mul:
    args: tuple


@dataclass(frozen=True)
class And:
    args: tuple


@dataclass(frozen=True)
class Or:
    args: tuple


@dataclass(frozen=True)
class Sub:
    a: "SExpr"
    b: "SExpr"


@dataclass(frozen=True)
class Div:
    a: "SExpr"
    b: "SExpr"


@dataclass(frozen=True)
class Neg:
    a: "SExpr"


@dataclass(frozen=True)
class Not:
    a: "SExpr"


@dataclass(frozen=True)
class Cmp:
    op: str  # < <= > >= == !=
    a: "SExpr"
    b: "SExpr"


@dataclass(frozen=True)
class LenOf:
    slot: int
    name: str


SExpr = Union[Num, BoolC, Var, LeafVal, Add, Mul, And, Or, Sub, Div, Neg, Not, Cmp, LenOf]


# ---------------------------------------------------------------------------
# endpoint expressions


@dataclass(frozen=True)
class LimC:
    value: Limit


@dataclass(frozen=True)
class EndRef:
    """One endpoint of a stored piece, shifted back through the access map."""

    tensor: str
    level: int
    side: str  # "L" | "R"
    pos: PExpr
    shift: Optional[SExpr] = None


@dataclass(frozen=True)
class LastStop:
    """Stop of a fiber's final piece; empty fibers give Limit(-inf, -1)."""

    tensor: str
    level: int
    fiber: PExpr
    shift: Optional[SExpr] = None


@dataclass(frozen=True)
class MaxOf:
    """The greatest of two or more endpoints."""

    ends: tuple  # tuple[LExpr]


@dataclass(frozen=True)
class IvStart:
    slot: int
    name: str


@dataclass(frozen=True)
class IvStop:
    slot: int
    name: str


LExpr = Union[LimC, EndRef, LastStop, MaxOf, IvStart, IvStop]


# ---------------------------------------------------------------------------
# plan statements


@dataclass(frozen=True)
class Block:
    stmts: tuple = ()


@dataclass(frozen=True)
class DiscLoop:
    slot: int
    name: str
    lo: int
    hi: int  # inclusive
    body: "Stmt"


@dataclass(frozen=True)
class LetScalar:
    slot: int
    name: str
    expr: SExpr


@dataclass(frozen=True)
class Probe:
    """Find the piece containing a pinned coordinate; -1 when in a gap.

    The stored ends are shifted back by shift before they are compared
    with coord, so a pinned loop index is looked up in its own space.
    """

    slot: int
    name: str
    tensor: str
    level: int
    parent: PExpr
    coord: SExpr
    shift: SExpr


@dataclass(frozen=True)
class IntersectLet:
    slot: int
    name: str
    starts: tuple  # tuple[LExpr]
    stops: tuple


@dataclass(frozen=True)
class Guard:
    slot: int
    name: str
    body: "Stmt"


@dataclass(frozen=True)
class Cond:
    test: SExpr
    body: "Stmt"


@dataclass(frozen=True)
class Pin:
    """Collapse a loop over a pinpoint region to a scalar binding: the
    start of a region (``IvStart``), which must equal its stop, or a
    stored point's coordinate (an ``EndRef`` of side "C"), which is one
    point by construction."""

    slot: int
    name: str
    at: "LExpr"


@dataclass(frozen=True)
class StepperRT:
    pos_slot: int
    pos_name: str
    tensor: str
    level: int
    fiber: PExpr
    shift: Optional[SExpr] = None
    runs_out: bool = False  # a gap to +inf past its last piece; -1 in a gap in a walk's body


@dataclass(frozen=True)
class WhileCoiter:
    steppers: tuple  # tuple[StepperRT]
    body: "Stmt"
    # the loop's shape, which lowering decides: "walk" over the segments
    # between consecutive stops (and starts of steppers that run out) where
    # a stepper runs out or is shifted; "pieces", one stepper's pieces by
    # position, where it is the only stepper, annihilates, is unshifted and
    # the loop runs over the whole line; "fingers" over the pieces otherwise
    shape: str
    # the range, cursor and current segment. A walk has all three, and a
    # finger loop with a finite end a range and a segment; one over the
    # whole line has only a segment (its stop), as its fibers bound it. A
    # pieces loop has none: its fiber bounds it, and each piece is the region
    range_slot: Optional[int] = None
    range_name: Optional[str] = None
    cursor_slot: Optional[int] = None
    cursor_name: Optional[str] = None
    curr_slot: Optional[int] = None
    curr_name: Optional[str] = None


@dataclass(frozen=True)
class Write:
    """One write of the assignment into the output.

    Path components: ("d", SExpr) discrete, ("p", SExpr) pinpoint,
    ("iv", slot, name) an interval region variable.
    """

    output: str
    path: tuple
    op: str  # = += |= &= max= min=
    value: SExpr
    two_tensor: bool = False
    # under |= and &=, how many of the loops around the write end once it
    # leaves its cell absorbing (true under |=, false under &=): those
    # inside the loop one iteration of which fixes the whole path, or all
    # of them for a rank-0 output; 0 where nothing ends early
    exits: int = 0

    @property
    def emits(self) -> bool:
        """Whether the write emits a piece: a path part is continuous."""
        return any(c[0] != "d" for c in self.path)


Stmt = Union[
    Block, DiscLoop, LetScalar, Probe, IntersectLet, Guard, Cond, Pin,
    WhileCoiter, Write,
]


@dataclass(frozen=True)
class OutputDecl:
    name: str
    comps: tuple  # ("dense", size) | ("pinpoint",) | ("interval",)
    fill: Union[float, bool]


@dataclass(frozen=True)
class Plan:
    body: Stmt
    output: OutputDecl
    n_slots: int
    bindings: dict = field(compare=False, default_factory=dict)

    @cached_property
    def key(self) -> str:
        """What the plan's kernel depends on: body and output, bindings
        excluded, in their repr, which tells apart what == merges (True,
        1 and 1.0; 0.0 and -0.0). Plans with equal keys render one kernel
        source. Built on first use and kept with the plan object; a str
        keeps its own hash, so a lookup by it hashes nothing again."""
        return repr((self.body, self.output))


class Namer:
    """Allocates runtime slots with unique, stable display names.

    A base that is taken gets the first free numeric suffix. Names are
    only ever added, so every suffix below a base's last one is still
    taken, and the search resumes there.
    """

    def __init__(self):
        self.names = []
        self._used = set()
        self._next = {}  # base -> first suffix not yet tried

    def slot(self, base: str) -> tuple:
        k = self._next.get(base, 0)
        name = f"{base}{k}" if k else base
        while name in self._used:
            k += 1
            name = f"{base}{k}"
        self._next[base] = k + 1
        self._used.add(name)
        self.names.append(name)
        return len(self.names) - 1, name

    @property
    def count(self) -> int:
        return len(self.names)


# ---------------------------------------------------------------------------
# rendering


_CHAIN = {Add: " + ", Mul: "*", And: " and ", Or: " or "}


def render(e) -> str:
    """Deterministic one-line form of any expression."""
    if isinstance(e, Num):
        return fmt_num(e.value)
    if isinstance(e, BoolC):
        return "true" if e.value else "false"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, LeafVal):
        return f"{e.tensor}.val[{e.pos.render()}]"
    if isinstance(e, (Add, Mul, And, Or)):
        sep = _CHAIN[type(e)]
        return "(" + sep.join(render(a) for a in e.args) + ")"
    if isinstance(e, Sub):
        return f"({render(e.a)} - {render(e.b)})"
    if isinstance(e, Div):
        return f"({render(e.a)} / {render(e.b)})"
    if isinstance(e, Neg):
        return f"(-{render(e.a)})"
    if isinstance(e, Not):
        return f"(not {render(e.a)})"
    if isinstance(e, Cmp):
        return f"({render(e.a)} {e.op} {render(e.b)})"
    if isinstance(e, LenOf):
        return f"len({e.name})"
    if isinstance(e, LimC):
        return str(e.value)
    if isinstance(e, EndRef):
        side = {"L": "left", "R": "right", "C": "crd"}[e.side]
        s = f"{e.tensor}.{side}[{e.pos.render()}]"
        return s if e.shift is None else f"({s} - {render(e.shift)})"
    if isinstance(e, LastStop):
        s = f"{e.tensor}.last_stop(lvl{e.level}, {e.fiber.render()})"
        if e.shift is not None:
            s = f"({s} - {render(e.shift)})"
        return s
    if isinstance(e, MaxOf):
        return f"max({', '.join(render(a) for a in e.ends)})"
    if isinstance(e, IvStart):
        return f"{e.name}.start"
    if isinstance(e, IvStop):
        return f"{e.name}.stop"
    if isinstance(e, (PRoot, PVar, PDense)):
        return e.render()
    raise TypeError(f"cannot render {e!r}")


def _emit_comp(c) -> str:
    if c[0] == "d":
        return render(c[1])
    if c[0] == "p":
        return f"@{render(c[1])}"
    return c[2]


def pretty(stmt, indent: int = 0) -> str:
    """Readable indented form of a plan statement tree; a Plan prints its body."""
    pad = "  " * indent
    if isinstance(stmt, Plan):
        return pretty(stmt.body, indent)
    if isinstance(stmt, Block):
        if not stmt.stmts:
            return pad + "pass"
        return "\n".join(pretty(s, indent) for s in stmt.stmts)
    if isinstance(stmt, DiscLoop):
        return (
            f"{pad}for {stmt.name} in {stmt.lo}..{stmt.hi}:\n"
            + pretty(stmt.body, indent + 1)
        )
    if isinstance(stmt, LetScalar):
        return f"{pad}let {stmt.name} = {render(stmt.expr)}"
    if isinstance(stmt, Probe):
        return (
            f"{pad}probe {stmt.name} = ({stmt.tensor}.lvl{stmt.level}"
            f"[{stmt.parent.render()}] - {render(stmt.shift)}).find({render(stmt.coord)})"
        )
    if isinstance(stmt, IntersectLet):
        starts = ", ".join(render(a) for a in stmt.starts)
        stops = ", ".join(render(a) for a in stmt.stops)
        return f"{pad}{stmt.name} = [max({starts}), min({stops})]"
    if isinstance(stmt, Guard):
        return f"{pad}guard {stmt.name}.start <= {stmt.name}.stop:\n" + pretty(stmt.body, indent + 1)
    if isinstance(stmt, Cond):
        return f"{pad}if {render(stmt.test)}:\n" + pretty(stmt.body, indent + 1)
    if isinstance(stmt, Pin):
        return f"{pad}pin {stmt.name} = {render(stmt.at)}"
    if isinstance(stmt, WhileCoiter):
        rng, cur = stmt.range_name, stmt.cursor_name
        over = (f"{cur} over {rng}" if cur else f"over {rng}" if rng
                else "over its fiber" if len(stmt.steppers) == 1 else "over their fibers")
        lines = [f"{pad}coiterate {over} ({stmt.shape}):"]
        for s in stmt.steppers:
            shift = f" - {render(s.shift)}" if s.shift is not None else ""
            tail = ", then gap" if s.runs_out else ""
            lines.append(
                f"{pad}  stepper {s.pos_name}: {s.tensor}.lvl{s.level}"
                f"[{s.fiber.render()}]{shift}{tail}"
            )
        if stmt.curr_slot is not None and rng is None:
            lines.append(f"{pad}  {stmt.curr_name}.stop = min stops")
        elif stmt.curr_slot is not None:
            cut = ", starts - eps in gaps" if any(s.runs_out for s in stmt.steppers) else ""
            lines.append(f"{pad}  {stmt.curr_name} = [{cur or rng + '.start'}, min stops{cut}]")
        lines.append(pretty(stmt.body, indent + 1))
        return "\n".join(lines)
    if isinstance(stmt, Write):
        path = ", ".join(_emit_comp(c) for c in stmt.path)
        emit = "emit " if stmt.emits else ""
        line = f"{pad}{emit}{stmt.output}[{path}] {stmt.op} {render(stmt.value)}"
        if stmt.exits:
            absorbing = "true" if stmt.op == "|=" else "false"
            line += f", then once {absorbing} exit {stmt.exits} loop{'s' * (stmt.exits > 1)}"
        return line
    raise TypeError(f"cannot pretty-print {stmt!r}")


__all__ = [
    "PRoot", "PVar", "PDense", "PExpr",
    "Num", "BoolC", "Var", "LeafVal", "Add", "Mul", "And", "Or", "Sub", "Div",
    "Neg", "Not", "Cmp", "LenOf", "SExpr",
    "LimC", "EndRef", "LastStop", "MaxOf", "IvStart", "IvStop", "LExpr",
    "Block", "DiscLoop", "LetScalar", "Probe", "IntersectLet", "Guard", "Cond",
    "Pin", "StepperRT", "WhileCoiter", "Write",
    "Stmt", "OutputDecl", "Plan", "Namer", "render", "pretty", "replace",
]
