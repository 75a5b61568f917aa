"""Surface language: parsing and validity checking.

Programs are small loop nests over tensors indexed by real or integer
coordinates, with a single assignment at the core:

    for i = -inf:inf
      s += x[i]*y[i]*d(i)
    end

Loop bounds written as decimals or inf make the loop continuous; plain
integers make it discrete (inclusive on both ends). ``d(i)`` is the
differential that turns a sum over a continuum into an integral.

Rule ids of the diagnostics (``Diag``) a program is rejected with:

  R-INV    index expressions must be sums of distinct variables plus
           constants (unit coefficients only)
  R-PIN    a continuous index may be used as a scalar, or share an index
           expression with another live index, only where stored
           structure pins it to isolated points; no index may drive two
           ranks of one access
  R-SUM    collapsing a continuous index that stored points do not pin
           needs an idempotent operator or += with a d() factor; d() is
           only meaningful there
  R-ARITY  accesses must match the tensor's rank and level kinds
  R-FORM   structure: one assignment, plain-variable output indices,
           defined names, no self-reads
  R-DIV    no value the kernel computes may divide by the constant 0,
           a literal 0 or the fill 0 of an access where it misses

``validate`` checks what the program text decides, with the level kinds
(dense or continuous) when bindings are given: R-INV, R-ARITY, R-FORM,
the d() part of R-SUM and an index driving two ranks. Whether stored
points pin an index depends on the inputs' format, so
``compiler.compile_program`` decides the rest of R-PIN and R-SUM as it
lowers, and R-DIV, since a divisor folds to 0 only in the regions where
its accesses miss.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Union


class LangError(ValueError):
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {msg}" if line else msg)
        self.line, self.col = line, col


class DivisionByZeroError(ZeroDivisionError):
    """Raised where a program divides by a stored 0 while computing its
    output, which the message names. R-DIV rejects a divisor that is 0 in
    the text or by a fill; a stored 0 shows only when the program runs."""

    def __init__(self, output: str):
        super().__init__(f"division by zero while computing {output}")
        self.output = output


# ---------------------------------------------------------------------------
# tokens

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t]+)
      | (?P<comment>\#[^\n]*)
      | (?P<nl>\r?\n)
      | (?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?|inf\b)
      | (?P<op>max=(?!=)|min=(?!=)|\+=|\|=|&=|==|!=|<=|>=|&&|\|\||[-+*/=<>!(),:\[\]])
      | (?P<ident>[A-Za-z_]\w*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Tok:
    kind: str  # num | ident | op | nl | eof
    text: str
    line: int
    col: int


def tokenize(src: str):
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if m is None:
            raise LangError(f"unexpected character {src[i]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind == "nl":
            toks.append(Tok("nl", "\n", line, col))
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                toks.append(Tok(kind, text, line, col))
            col += len(text)
        i = m.end()
    toks.append(Tok("nl", "\n", line, col))
    toks.append(Tok("eof", "", line + 1, 1))
    return toks


# ---------------------------------------------------------------------------
# AST

Pos = tuple


@dataclass(frozen=True)
class ENum:
    value: float
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class EBool:
    value: bool
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class EVar:
    name: str
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class EAccess:
    tensor: str
    indices: tuple
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class EBin:
    op: str  # + - * / && || < <= > >= == !=
    a: "Expr"
    b: "Expr"
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class EUn:
    op: str  # - !
    a: "Expr"
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class EDif:
    index: str
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ECall:
    name: str
    args: tuple
    pos: Pos = field(default=(0, 0), compare=False)


Expr = Union[ENum, EBool, EVar, EAccess, EBin, EUn, EDif, ECall]


@dataclass(frozen=True)
class SFor:
    var: str
    lo: float
    hi: float
    continuous: bool
    body: tuple
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class SIf:
    cond: Expr
    body: tuple
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class SLet:
    name: str
    expr: Expr
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class SAssign:
    target: str
    indices: tuple  # Expr per output rank; () for a scalar target
    op: str  # = += |= &= max= min=
    rhs: Expr
    pos: Pos = field(default=(0, 0), compare=False)


Stmt = Union[SFor, SIf, SLet, SAssign]


@dataclass(frozen=True)
class Program:
    body: tuple


ASSIGN_OPS = ("=", "+=", "|=", "&=", "max=", "min=")
IDEMPOTENT_OPS = ("|=", "&=", "max=", "min=")
_KEYWORDS = {"for", "if", "let", "end", "true", "false", "inf"}


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self) -> Tok:
        return self.toks[self.i]

    def next(self) -> Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, text: Optional[str] = None) -> Tok:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise LangError(f"expected {want!r}, found {t.text or t.kind!r}", t.line, t.col)
        return self.next()

    def skip_newlines(self):
        while self.peek().kind == "nl":
            self.next()

    def end_of_stmt(self):
        t = self.peek()
        if t.kind not in ("nl", "eof"):
            raise LangError(f"unexpected {t.text!r} after statement", t.line, t.col)

    # -- statements ------------------------------------------------------
    def program(self) -> Program:
        body = self.stmts(top=True)
        t = self.peek()
        if t.kind != "eof":
            raise LangError(f"unexpected {t.text!r}", t.line, t.col)
        return Program(body=tuple(body))

    def stmts(self, top: bool = False):
        out = []
        while True:
            self.skip_newlines()
            t = self.peek()
            if t.kind == "eof":
                if not top:
                    raise LangError("missing 'end'", t.line, t.col)
                return out
            if t.kind == "ident" and t.text == "end":
                if top:
                    raise LangError("'end' without an open block", t.line, t.col)
                self.next()
                self.end_of_stmt()
                return out
            out.append(self.stmt())

    def stmt(self) -> Stmt:
        t = self.peek()
        if t.kind != "ident":
            raise LangError(f"expected a statement, found {t.text!r}", t.line, t.col)
        if t.text == "for":
            return self.for_stmt()
        if t.text == "if":
            return self.if_stmt()
        if t.text == "let":
            return self.let_stmt()
        return self.assign_stmt()

    def bound(self):
        neg = False
        if self.peek().kind == "op" and self.peek().text == "-":
            self.next()
            neg = True
        t = self.expect("num")
        cont = "." in t.text or "e" in t.text or "E" in t.text or t.text == "inf"
        v = float(t.text)
        return (-v if neg else v), cont

    def for_stmt(self) -> SFor:
        t = self.expect("ident", "for")
        var = self._name(self.expect("ident"))
        self.expect("op", "=")
        lo, c1 = self.bound()
        self.expect("op", ":")
        hi, c2 = self.bound()
        if c1 != c2:
            raise LangError(
                f"loop bounds for {var!r} mix integer and real forms; "
                "write both as decimals (or inf) for a continuous loop",
                t.line, t.col,
            )
        self.end_of_stmt()
        body = self.stmts()
        return SFor(var=var, lo=lo, hi=hi, continuous=c1, body=tuple(body), pos=(t.line, t.col))

    def if_stmt(self) -> SIf:
        t = self.expect("ident", "if")
        cond = self.expr()
        self.end_of_stmt()
        body = self.stmts()
        return SIf(cond=cond, body=tuple(body), pos=(t.line, t.col))

    def let_stmt(self) -> SLet:
        t = self.expect("ident", "let")
        name = self._name(self.expect("ident"))
        self.expect("op", "=")
        e = self.expr()
        self.end_of_stmt()
        return SLet(name=name, expr=e, pos=(t.line, t.col))

    def assign_stmt(self) -> SAssign:
        t = self.expect("ident")
        target = self._name(t)
        indices = ()
        if self.peek().kind == "op" and self.peek().text == "[":
            indices = self._index_list()
        op = self.peek()
        if op.kind != "op" or op.text not in ASSIGN_OPS:
            raise LangError(
                f"expected an assignment operator, found {op.text or op.kind!r}",
                op.line, op.col,
            )
        self.next()
        rhs = self.expr()
        self.end_of_stmt()
        return SAssign(
            target=target, indices=tuple(indices), op=op.text, rhs=rhs, pos=(t.line, t.col)
        )

    def _name(self, t: Tok) -> str:
        if t.text in _KEYWORDS or t.text == "d":
            raise LangError(f"{t.text!r} is reserved", t.line, t.col)
        return t.text

    def _index_list(self):
        self.expect("op", "[")
        out = [self.expr()]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.next()
            out.append(self.expr())
        self.expect("op", "]")
        return out

    # -- expressions -----------------------------------------------------
    def expr(self) -> Expr:
        return self.or_expr()

    def _binchain(self, sub, ops):
        e = sub()
        while self.peek().kind == "op" and self.peek().text in ops:
            t = self.next()
            e = EBin(op=t.text, a=e, b=sub(), pos=(t.line, t.col))
        return e

    def or_expr(self):
        return self._binchain(self.and_expr, ("||",))

    def and_expr(self):
        return self._binchain(self.cmp_expr, ("&&",))

    def cmp_expr(self):
        e = self.add_expr()
        t = self.peek()
        if t.kind == "op" and t.text in ("<", "<=", ">", ">=", "==", "!="):
            self.next()
            return EBin(op=t.text, a=e, b=self.add_expr(), pos=(t.line, t.col))
        return e

    def add_expr(self):
        return self._binchain(self.mul_expr, ("+", "-"))

    def mul_expr(self):
        return self._binchain(self.unary, ("*", "/"))

    def unary(self):
        t = self.peek()
        if t.kind == "op" and t.text in ("-", "!"):
            self.next()
            return EUn(op=t.text, a=self.unary(), pos=(t.line, t.col))
        return self.atom()

    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return ENum(value=float(t.text), pos=(t.line, t.col))
        if t.kind == "op" and t.text == "(":
            self.next()
            e = self.expr()
            self.expect("op", ")")
            return e
        if t.kind == "ident":
            self.next()
            if t.text == "true":
                return EBool(value=True, pos=(t.line, t.col))
            if t.text == "false":
                return EBool(value=False, pos=(t.line, t.col))
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "[":
                return EAccess(
                    tensor=t.text, indices=tuple(self._index_list()), pos=(t.line, t.col)
                )
            if nxt.kind == "op" and nxt.text == "(":
                self.next()
                args = [self.expr()]
                while self.peek().kind == "op" and self.peek().text == ",":
                    self.next()
                    args.append(self.expr())
                self.expect("op", ")")
                if t.text == "d":
                    if len(args) != 1 or not isinstance(args[0], EVar):
                        raise LangError("d() takes exactly one index variable", t.line, t.col)
                    return EDif(index=args[0].name, pos=(t.line, t.col))
                return ECall(name=t.text, args=tuple(args), pos=(t.line, t.col))
            return EVar(name=t.text, pos=(t.line, t.col))
        raise LangError(f"expected an expression, found {t.text or t.kind!r}", t.line, t.col)


def parse(src: str) -> Program:
    return _Parser(tokenize(src)).program()


# ---------------------------------------------------------------------------
# validity


@dataclass(frozen=True)
class Diag:
    code: str  # R-INV R-PIN R-SUM R-ARITY R-FORM R-DIV
    msg: str
    line: int
    col: int

    def __str__(self):
        return f"{self.code} {self.line}:{self.col}: {self.msg}"


def affine_terms(e):
    """Decompose an index expression into (constant, variable names).

    Returns None when the expression is not a sum of distinct variables
    and numeric constants with unit coefficients; a constant may be
    subtracted or negated.
    """
    const = 0.0
    names = []
    todo = [e]  # left to right; a recursive closure would leave a cycle per call
    while todo:
        x = todo.pop()
        if isinstance(x, ENum):
            const += x.value
        elif isinstance(x, EUn) and x.op == "-" and isinstance(x.a, ENum):
            const -= x.a.value
        elif isinstance(x, EVar) and x.name not in names:
            names.append(x.name)
        elif isinstance(x, EBin) and x.op == "+":
            todo += (x.b, x.a)
        elif isinstance(x, EBin) and x.op == "-" and isinstance(x.b, ENum):
            todo += (EUn("-", x.b), x.a)
        else:
            return None
    return const, tuple(names)


def _norm_kinds(bindings):
    """Per-tensor tuples telling continuous ranks (True) from dense ones."""
    if bindings is None:
        return None
    return {
        name: tuple(lv.continuous for lv in b.levels) if hasattr(b, "levels")  # a tensor
        else tuple(k != "dense" for k in b)
        for name, b in bindings.items()
    }


class _Ctx:
    def __init__(self, kinds):
        self.kinds = kinds
        self.diags = []
        self.loops = {}  # name -> continuous flag
        self.lets = set()
        self.assigns = []
        self.inputs = []  # EAccess
        self.difs = []  # list[EDif] found as proper summand factors
        self.arity = {}  # tensor -> (rank, pos of first sighting)

    def err(self, code, msg, pos):
        self.diags.append(Diag(code, msg, pos[0], pos[1]))


def _walk_expr(e, ctx: _Ctx, difs_ok: bool):
    """Collect uses from a scalar-position expression."""
    if isinstance(e, (ENum, EBool)):
        return
    if isinstance(e, EVar):
        if e.name not in ctx.lets and e.name not in ctx.loops:
            ctx.err("R-FORM", f"undefined name {e.name!r}", e.pos)
        return
    if isinstance(e, EDif):
        ctx.err("R-SUM", "d() is only meaningful as a factor of a += summand", e.pos)
        return
    if isinstance(e, ECall):
        ctx.err("R-FORM", f"unknown function {e.name!r}", e.pos)
        return
    if isinstance(e, EAccess):
        _walk_access(e, ctx)
        return
    if isinstance(e, EUn):
        _walk_expr(e.a, ctx, False)
        return
    if isinstance(e, EBin):
        if e.op == "*" and difs_ok:
            _walk_summand(e, ctx)
            return
        _walk_expr(e.a, ctx, False)
        _walk_expr(e.b, ctx, False)
        return
    raise TypeError(f"unhandled expression {e!r}")


def _walk_summand(e, ctx: _Ctx):
    """Top-level product of a += right-hand side; d() factors live here."""
    factors = []

    def flat(x):
        if isinstance(x, EBin) and x.op == "*":
            flat(x.a)
            flat(x.b)
        else:
            factors.append(x)

    flat(e)
    for f in factors:
        if isinstance(f, EDif):
            if f.index not in ctx.loops:
                ctx.err("R-SUM", f"d({f.index}) does not name a loop index", f.pos)
            elif not ctx.loops[f.index]:
                ctx.err("R-SUM", f"d({f.index}) over a discrete loop", f.pos)
            elif any(d.index == f.index for d in ctx.difs):
                ctx.err("R-SUM", f"repeated differential d({f.index})", f.pos)
            else:
                ctx.difs.append(f)
        else:
            _walk_expr(f, ctx, False)


def _walk_access(e: EAccess, ctx: _Ctx):
    idx = []
    for ix in e.indices:
        at = affine_terms(ix)
        if at is None:
            ctx.err(
                "R-INV",
                f"index of {e.tensor!r} must be a sum of distinct variables "
                "and constants",
                ix.pos if hasattr(ix, "pos") else e.pos,
            )
            idx.append(None)
            continue
        const, names = at
        for n in names:
            if n not in ctx.loops and n not in ctx.lets:
                ctx.err("R-FORM", f"undefined name {n!r}", e.pos)
        idx.append((const, names))
    seen = set()
    for entry in idx:
        if entry is None:
            continue
        for n in entry[1]:
            if n in ctx.loops:
                if n in seen:
                    ctx.err("R-PIN", f"{n!r} drives more than one rank of {e.tensor!r}", e.pos)
                seen.add(n)
    rank = len(e.indices)
    if e.tensor in ctx.arity:
        r0, p0 = ctx.arity[e.tensor]
        if r0 != rank:
            ctx.err(
                "R-ARITY",
                f"{e.tensor!r} is used with {r0} and {rank} indices",
                e.pos,
            )
    else:
        ctx.arity[e.tensor] = (rank, e.pos)
    if ctx.kinds is not None and e.tensor in ctx.kinds:
        ks = ctx.kinds[e.tensor]
        if len(ks) != rank:
            ctx.err(
                "R-ARITY",
                f"{e.tensor!r} has rank {len(ks)}, access has {rank} indices",
                e.pos,
            )
        for r, (continuous, entry) in enumerate(zip(ks, idx)):
            if entry is None:
                continue
            cont_vars = [n for n in entry[1] if ctx.loops.get(n)]
            disc_vars = [n for n in entry[1] if n in ctx.loops and not ctx.loops[n]]
            if not continuous and cont_vars:
                ctx.err(
                    "R-ARITY",
                    f"rank {r} of {e.tensor!r} is discrete; index uses "
                    f"continuous {cont_vars[0]!r}",
                    e.pos,
                )
            if continuous and disc_vars:
                ctx.err(
                    "R-ARITY",
                    f"rank {r} of {e.tensor!r} is continuous; index uses "
                    f"discrete {disc_vars[0]!r}",
                    e.pos,
                )
    ctx.inputs.append(e)


def _walk_stmt(s, ctx: _Ctx):
    if isinstance(s, SFor):
        if s.var in ctx.loops or s.var in ctx.lets:
            ctx.err("R-FORM", f"{s.var!r} shadows an enclosing name", s.pos)
        ctx.loops[s.var] = s.continuous
        for b in s.body:
            _walk_stmt(b, ctx)
        return
    if isinstance(s, SIf):
        _walk_expr(s.cond, ctx, False)
        for b in s.body:
            _walk_stmt(b, ctx)
        return
    if isinstance(s, SLet):
        if s.name in ctx.loops or s.name in ctx.lets:
            ctx.err("R-FORM", f"{s.name!r} shadows an enclosing name", s.pos)
        _walk_expr(s.expr, ctx, False)
        ctx.lets.add(s.name)
        return
    if isinstance(s, SAssign):
        ctx.assigns.append(s)
        for ix in s.indices:
            if not isinstance(ix, EVar) or ix.name not in ctx.loops:
                ctx.err(
                    "R-FORM",
                    f"output index of {s.target!r} must be a plain loop variable",
                    s.pos,
                )
        if s.op == "+=":
            _walk_summand(s.rhs, ctx)
        else:
            _walk_expr(s.rhs, ctx, False)
        return
    raise TypeError(f"unhandled statement {s!r}")


def validate(program: Program, bindings=None):
    """Check the rules the program text and the level kinds decide (see
    the module docstring); an empty result means none is broken."""
    ctx = _Ctx(_norm_kinds(bindings))
    for s in program.body:
        _walk_stmt(s, ctx)

    if len(ctx.assigns) != 1:
        pos = ctx.assigns[1].pos if len(ctx.assigns) > 1 else (1, 1)
        ctx.err("R-FORM", f"need exactly one assignment, found {len(ctx.assigns)}", pos)
        return ctx.diags
    assign = ctx.assigns[0]
    out_vars = tuple(
        ix.name for ix in assign.indices if isinstance(ix, EVar) and ix.name in ctx.loops
    )
    if len(set(out_vars)) != len(out_vars):
        ctx.err("R-FORM", "output indices must be distinct", assign.pos)

    for acc in ctx.inputs:
        if acc.tensor == assign.target:
            ctx.err("R-FORM", f"{assign.target!r} is written and read in one program", acc.pos)

    for d in ctx.difs:
        if d.index in out_vars:
            ctx.err("R-SUM", f"d({d.index}) integrates along an output index", d.pos)

    return ctx.diags


__all__ = [
    "ENum", "EBool", "EVar", "EAccess", "EBin", "EUn", "EDif", "ECall",
    "SFor", "SIf", "SLet", "SAssign", "Program", "Expr", "Stmt",
    "ASSIGN_OPS", "IDEMPOTENT_OPS",
    "LangError", "DivisionByZeroError", "Diag", "tokenize", "parse", "validate",
    "affine_terms",
]
