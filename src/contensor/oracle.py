"""Brute-force reference evaluator.

Cuts every continuous loop into the finitely many regions where all the
inputs are constant -- an open gap between consecutive stored endpoints,
plus a point at each endpoint -- and interprets the body once per region.
No lowering and no co-iteration: this is the slow reference the compiled
path has to reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .intervals import Interval
from .lang import (
    DivisionByZeroError, EAccess, EBin, EBool, EDif, ENum, EUn, EVar, Program,
    SAssign, SFor, SIf, SLet,
)
from .limits import ABOVE, BELOW, EPS, Limit
from .storage import ContTensor, DenseLevel, OverlapError, build_tensor


class OracleError(RuntimeError):
    pass


@dataclass
class _Reg:
    """What a variable is bound to inside one region."""
    kind: str            # "pt" point, "iv" open interval, "int" discrete
    value: float = 0.0   # pt / int payload
    a: float = 0.0       # iv endpoints
    b: float = 0.0
    size: int = 0        # dense extent for ints
    loop: bool = False   # bound by a for (as opposed to a let)

    def rep(self):
        """A sample coordinate; inputs are constant across the region."""
        if self.kind != "iv":
            return self.value
        if self.a == -math.inf and self.b == math.inf:
            return 0.0
        if self.a == -math.inf:
            return self.b - 1.0
        if self.b == math.inf:
            return self.a + 1.0
        return (self.a + self.b) / 2.0


def _vars(e, out=None):
    if out is None:
        out = set()
    if isinstance(e, EVar):
        out.add(e.name)
    elif isinstance(e, EAccess):
        for ix in e.indices:
            _vars(ix, out)
    elif isinstance(e, EBin):
        _vars(e.a, out)
        _vars(e.b, out)
    elif isinstance(e, EUn):
        _vars(e.a, out)
    return out


def _contains_dif(e):
    if isinstance(e, EDif):
        return True
    if isinstance(e, EBin):
        return _contains_dif(e.a) or _contains_dif(e.b)
    if isinstance(e, EUn):
        return _contains_dif(e.a)
    return False


def _factors(e, out):
    if isinstance(e, EBin) and e.op == "*":
        _factors(e.a, out)
        _factors(e.b, out)
    else:
        out.append(e)


_BIN = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def _value(e, env, binds):
    if isinstance(e, ENum):
        return e.value
    if isinstance(e, EBool):
        return e.value
    if isinstance(e, EVar):
        r = env.get(e.name)
        if r is None:
            raise OracleError(f"unbound variable {e.name!r}")
        if r.kind == "iv":
            raise OracleError(f"{e.name!r} ranges over an interval here")
        return r.value
    if isinstance(e, EAccess):
        t = binds.get(e.tensor)
        if t is None:
            raise OracleError(f"unbound tensor {e.tensor!r}")
        parts = tuple(_index_part(ix, env, binds) for ix in e.indices)
        return _at(t, parts)
    if isinstance(e, EBin):
        if e.op == "&&":
            return bool(_value(e.a, env, binds)) and bool(
                _value(e.b, env, binds))
        if e.op == "||":
            return bool(_value(e.a, env, binds)) or bool(
                _value(e.b, env, binds))
        return _BIN[e.op](_value(e.a, env, binds), _value(e.b, env, binds))
    if isinstance(e, EUn):
        v = _value(e.a, env, binds)
        return (not v) if e.op == "!" else -v
    if isinstance(e, EDif):
        raise OracleError("d() only makes sense as a factor of a sum")
    raise OracleError(f"cannot evaluate {e!r}")


def _coord(e, env, binds):
    """Index expressions may mention interval-bound vars; sample them."""
    flat = {
        n: (_Reg("pt", value=r.rep(), loop=r.loop) if r.kind == "iv" else r)
        for n, r in env.items()
    }
    return _value(e, flat, binds)


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def _index_part(ix, env, binds):
    """Classify one index expression for region-space lookup.

    An index driven by a continuous loop var resolves against stored
    pieces in that loop's own space (endpoint minus shift), because the
    re-added shift need not reproduce the endpoint bit for bit. Anything
    else is just a number.
    """
    if isinstance(ix, EVar):
        r = env.get(ix.name)
        if r is not None and r.loop:
            if r.kind == "pt":
                return ("pt", r.value, 0.0)
            if r.kind == "iv":
                return ("iv", r.a, r.b, 0.0)
    active = None
    for name, r in env.items():
        if r.loop and r.kind in ("pt", "iv") and name in _vars(ix):
            active = name  # innermost wins: env preserves binding order
    if active is None:
        return ("n", _coord(ix, env, binds))
    flat = {
        n: (_Reg("pt", value=r.rep()) if n != active and r.kind == "iv"
            else r)
        for n, r in env.items()
    }
    try:
        flat[active] = _Reg("pt", value=0.0)
        s0 = _value(ix, flat, binds)
        flat[active] = _Reg("pt", value=1.0)
        s1 = _value(ix, flat, binds)
    except OracleError:
        return ("n", _coord(ix, env, binds))
    if abs((s1 - s0) - 1.0) > 1e-9:
        # not shifted-by-a-constant; no breakpoints were cut for it either
        return ("n", _coord(ix, env, binds))
    r = env[active]
    if r.kind == "pt":
        return ("pt", r.value, s0)
    return ("iv", r.a, r.b, s0)


def _covers(piece, part):
    """Does a stored piece hold the whole region one index part names?

    Every piece edge is itself a breakpoint in the active loop's space,
    so a region can never straddle an edge: the answer is a clean yes or
    no with no tolerance at all.
    """
    if part[0] == "n":
        return piece.contains(Limit(part[1]))
    sh = part[-1]
    lo = Limit(piece.start.val - sh, piece.start.eps)
    hi = Limit(piece.stop.val - sh, piece.stop.eps)
    if part[0] == "pt":
        return lo <= Limit(part[1]) <= hi
    _k, a, b, _s = part
    return lo <= Limit(a, ABOVE) and Limit(b, BELOW) <= hi


def _part_num(part):
    if part[0] == "n":
        return part[1]
    if part[0] == "pt":
        return part[1] + part[2]
    _k, a, b, s = part
    return _Reg("iv", a=a, b=b).rep() + s


def _at(t, parts):
    pos = 0
    for level, (lv, part) in enumerate(zip(t.levels, parts)):
        if isinstance(lv, DenseLevel):
            c = _part_num(part)
            ci = int(round(c))
            if not _close(ci, c) or not (0 <= ci < lv.size):
                return t.fill
            pos = pos * lv.size + ci
            continue
        hit = None
        for iv, p in t.fiber_entries(level, pos):
            if _covers(iv, part):
                hit = p
                break
        if hit is None:
            return t.fill
        pos = hit
    return t.values[pos]


def _level_edges(pieces, k, s0):
    """The coordinates of one level's piece ends under one shift."""
    edges = set()
    for path, _v in pieces:
        comp = path[k]
        if isinstance(comp, Interval):
            edges.update((comp.start.val - s0, comp.stop.val - s0))
    return edges


def _walk_accesses(stmts):
    for s in stmts:
        if isinstance(s, SFor):
            yield from _walk_accesses(s.body)
        elif isinstance(s, SIf):
            yield from _exprs(s.cond)
            yield from _walk_accesses(s.body)
        elif isinstance(s, SLet):
            yield from _exprs(s.expr)
        elif isinstance(s, SAssign):
            yield from _exprs(s.rhs)
            for ix in s.indices:
                yield from _exprs(ix)


def _exprs(e):
    if isinstance(e, EAccess):
        yield e
        for ix in e.indices:
            yield from _exprs(ix)
    elif isinstance(e, EBin):
        yield from _exprs(e.a)
        yield from _exprs(e.b)
    elif isinstance(e, EUn):
        yield from _exprs(e.a)


def _regions(lo, hi, cuts):
    if hi < lo:
        return

    def pin(p):
        return _Reg("pt", value=p, loop=True)

    if lo == hi:
        if math.isfinite(lo):
            yield pin(lo)
        return
    inner = [p for p in sorted(cuts) if lo < p < hi]
    if math.isfinite(lo):
        yield pin(lo)
    prev = lo
    for p in inner:
        yield _Reg("iv", a=prev, b=p, loop=True)
        yield pin(p)
        prev = p
    if math.isfinite(hi):
        yield _Reg("iv", a=prev, b=hi, loop=True)
        yield pin(hi)
    else:
        yield _Reg("iv", a=prev, b=math.inf, loop=True)


def _op_combine(op, old, new, key):
    if op == "+=":
        return old + new
    if op == "|=":
        return bool(old) or bool(new)
    if op == "&=":
        return bool(old) and bool(new)
    if op == "max=":
        return max(old, new)
    if op == "min=":
        return min(old, new)
    raise OverlapError(f"output cell {key} assigned twice")


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
    return False if isinstance(value, bool) else 0.0


class _OStore:
    def __init__(self, op, dense_extents=None):
        self.op = op
        self.cells = {}
        self.sizes = {}
        # extents known from the loop structure even if nothing is written
        self.dense = dense_extents or {}
        self.fill = None

    def put(self, comps, value):
        if self.fill is None:
            self.fill = _op_fill(self.op, value)
        key = []
        for depth, c in enumerate(comps):
            if c[0] == "d":
                _tag, i, size = c
                if self.sizes.setdefault(depth, size) != size:
                    raise OracleError("dense extents disagree")
                if not 0 <= i < size:
                    raise OracleError(f"dense index {i} out of range")
                key.append(i)
            elif c[0] == "pt":
                key.append(Interval.pinpoint(c[1]))
            else:
                key.append(Interval.open(c[1], c[2]))
        key = tuple(key)
        if key in self.cells:
            self.cells[key] = _op_combine(self.op, self.cells[key], value, key)
        else:
            f = self.fill
            self.cells[key] = value if self.op == "=" else _op_combine(
                self.op, f, value, key)

    def result(self, target, nd):
        if self.fill is None:
            self.fill = _op_fill(self.op, None)
        if nd == 0:
            return self.cells.get((), self.fill)
        live = {k: v for k, v in self.cells.items() if v != self.fill}
        specs = []
        for depth in range(nd):
            size = self.sizes.get(depth, self.dense.get(depth))
            if size is not None:
                specs.append(("dense", size))
            else:
                specs.append(("interval",))
        root = self._fiber(live, 0, specs)
        return build_tensor(target, specs, root, self.fill)

    def _default(self, depth, specs):
        if depth == len(specs):
            return self.fill
        if specs[depth][0] == "dense":
            return [self._default(depth + 1, specs)] * specs[depth][1]
        return []

    def _fiber(self, cells, depth, specs):
        if depth == len(specs):
            (v,) = cells.values()
            return v
        groups = {}
        for key, v in cells.items():
            groups.setdefault(key[depth], {})[key] = v
        if specs[depth][0] == "dense":
            return [
                self._fiber(groups[i], depth + 1, specs)
                if i in groups else self._default(depth + 1, specs)
                for i in range(specs[depth][1])
            ]
        entries = sorted(groups, key=lambda iv: (iv.start, iv.stop))
        if self.op != "=" and any(b.start <= a.stop for a, b in zip(entries, entries[1:])):
            # loops outside this rank cut it differently: the reduction
            # combines its pieces where they overlap
            return self._fiber(self._split(cells, depth), depth, specs)
        out = []
        for iv in entries:
            node = self._fiber(groups[iv], depth + 1, specs)
            if out:
                piv, pnode = out[-1]
                if iv.start <= piv.stop:
                    raise OverlapError(
                        f"output pieces {piv} and {iv} overlap")
                if pnode == node and piv.touches_below(iv):
                    out[-1] = (Interval(piv.start, iv.stop), pnode)
                    continue
            out.append((iv, node))
        return out

    def _split(self, cells, depth):
        """cells with their pieces at depth cut at every end of the others,
        the parts with one path combined; a part combined to the fill is
        not stored."""
        cuts = sorted({x for key in cells for x in (key[depth].start, key[depth].stop + EPS)})
        parts = {}
        for key, v in cells.items():
            iv = key[depth]
            for a, b in zip(cuts, cuts[1:]):
                if iv.start <= a and b <= iv.stop + EPS:
                    k = (*key[:depth], Interval(a, b - EPS), *key[depth + 1:])
                    parts[k] = _op_combine(self.op, parts[k], v, k) if k in parts else v
        return {k: v for k, v in parts.items() if v != self.fill}


class _Eval:
    def __init__(self, program, binds):
        self.binds = binds
        assigns = list(self._find_assigns(program.body))
        if len(assigns) != 1:
            raise OracleError("expected exactly one assignment")
        self.assign = assigns[0]
        loops = {}

        def scan(stmts):
            for s in stmts:
                if isinstance(s, SFor):
                    loops[s.var] = s
                    scan(s.body)
                elif isinstance(s, SIf):
                    scan(s.body)
        scan(program.body)
        dense = {}
        for d, ix in enumerate(self.assign.indices):
            f = loops.get(ix.name) if isinstance(ix, EVar) else None
            if f is not None and not f.continuous:
                dense[d] = int(f.hi) + 1
        self.store = _OStore(self.assign.op, dense)
        self.indet = 0  # depth of conditions that vary across the region
        self._pieces = {}  # id(tensor) -> enumerated pieces
        self._edges = {}   # (id(tensor), level, shift) -> edge coordinates

    def _find_assigns(self, stmts):
        for s in stmts:
            if isinstance(s, SAssign):
                yield s
            elif isinstance(s, (SFor, SIf)):
                yield from self._find_assigns(s.body)

    def run(self, program):
        self._block(program.body, {})
        return self.store.result(self.assign.target,
                                 len(self.assign.indices))

    def _block(self, stmts, env):
        for s in stmts:
            if isinstance(s, SFor):
                self._loop(s, env)
            elif isinstance(s, SIf):
                # a condition over an interval-bound var has no single
                # truth value here; that is fine as long as nothing
                # inside actually writes (the usual case: the body is
                # annihilated by a missing access)
                try:
                    t = _value(s.cond, env, self.binds)
                except OracleError:
                    t = None
                if t is None:
                    self.indet += 1
                    try:
                        self._block(s.body, env)
                    finally:
                        self.indet -= 1
                elif t:
                    self._block(s.body, env)
            elif isinstance(s, SLet):
                env = dict(env)
                env[s.name] = _Reg("pt", value=_value(s.expr, env, self.binds))
            elif isinstance(s, SAssign):
                self._write(s, env)

    def _loop(self, s, env):
        if not s.continuous:
            lo, hi = int(s.lo), int(s.hi)
            size = hi + 1
            for i in range(lo, hi + 1):
                e2 = dict(env)
                e2[s.var] = _Reg("int", value=i, size=size, loop=True)
                self._block(s.body, e2)
            return
        cuts = self._breaks(s.body, s.var, env)
        for reg in _regions(float(s.lo), float(s.hi), cuts):
            e2 = dict(env)
            e2[s.var] = reg
            self._block(s.body, e2)

    def _breaks(self, stmts, var, env):
        """Coordinates where some input's pieces change along `var`."""
        cuts = set()
        for acc in _walk_accesses(stmts):
            t = self.binds.get(acc.tensor)
            if t is None:
                continue
            for k, ix in enumerate(acc.indices):
                if var not in _vars(ix):
                    continue
                probe = dict(env)
                try:
                    probe[var] = _Reg("pt", value=0.0)
                    s0 = _value(ix, probe, self.binds)
                    probe[var] = _Reg("pt", value=1.0)
                    s1 = _value(ix, probe, self.binds)
                except OracleError:
                    continue  # shift depends on a not-yet-bound variable
                if abs((s1 - s0) - 1.0) > 1e-9:
                    continue  # shifted-by-a-constant is the only shape tracked
                key = (id(t), k, s0)
                edges = self._edges.get(key)
                if edges is None:
                    pieces = self._pieces.get(id(t))
                    if pieces is None:
                        pieces = self._pieces[id(t)] = list(t.pieces())
                    edges = self._edges[key] = _level_edges(pieces, k, s0)
                cuts |= edges
        return cuts

    def _write(self, s, env):
        if s.op == "+=":
            fs = []
            _factors(s.rhs, fs)
            difs = [f.index for f in fs if isinstance(f, EDif)]
            vals = [f for f in fs if not isinstance(f, EDif)]
            for f in vals:
                if _contains_dif(f):
                    raise OracleError("d() must be a bare factor of a sum")
            for dn in difs:
                r = env.get(dn)
                if r is None or not r.loop or r.kind == "int":
                    raise OracleError(
                        f"d({dn}) without an enclosing continuous loop")
            value = 1.0
            for f in vals:
                value = value * _value(f, env, self.binds)
            if not value:
                return  # an annihilated summand contributes nothing anywhere
            if any(env[dn].kind == "pt" for dn in difs):
                return  # a point contributes nothing to an integral over it
            weight = 1.0
            # an output index is not summed over: each of its points or
            # regions is a cell of its own
            outs = {ix.name for ix in s.indices}
            for name, reg in env.items():
                if name in outs or not (reg.loop and reg.kind in ("pt", "iv")):
                    continue
                if name in difs:
                    weight *= reg.b - reg.a
                elif reg.kind == "iv":
                    raise OracleError(
                        "summing over a positive-length region diverges")
            if weight == 0.0:
                return
            self._live_write()
            self.store.put(self._path(s, env), value * weight)
            return
        if _contains_dif(s.rhs):
            raise OracleError(f"d() under {s.op} has no meaning")
        value = _value(s.rhs, env, self.binds)
        if self._noop(value):
            return
        self._live_write()
        self.store.put(self._path(s, env), value)

    def _noop(self, value):
        op = self.assign.op
        if op == "|=":
            return not value
        if op == "&=":
            return bool(value)
        if op == "max=":
            return value == -math.inf
        if op == "min=":
            return value == math.inf
        if op == "=":
            return value == _op_fill("=", value)
        return False

    def _live_write(self):
        if self.indet:
            raise OracleError(
                "a condition varies across a region that writes")

    def _path(self, s, env):
        comps = []
        for ix in s.indices:
            if isinstance(ix, EVar) and ix.name in env:
                r = env[ix.name]
                if r.kind == "int":
                    comps.append(("d", r.value, r.size))
                    continue
                if r.kind == "iv":
                    comps.append(("iv", r.a, r.b))
                    continue
                comps.append(("pt", r.value))
                continue
            comps.append(("pt", float(_value(ix, env, self.binds))))
        return tuple(comps)


def evaluate(program: Program, bindings):
    """Reference result: a bare scalar, or a tensor of output pieces."""
    ev = _Eval(program, bindings)
    try:
        return ev.run(program)
    except ZeroDivisionError as err:
        raise DivisionByZeroError(ev.assign.target) from err


def outputs_match(a, b, *, rel=0.0):
    """Executor output vs oracle output, with optional relative slack."""
    def close(x, y):
        if isinstance(x, bool) or isinstance(y, bool) or rel == 0.0:
            return x == y
        return math.isclose(x, y, rel_tol=rel, abs_tol=rel)

    ta, tb = isinstance(a, ContTensor), isinstance(b, ContTensor)
    if ta != tb:
        return False
    if not ta:
        return close(a, b)
    if a.ndim != b.ndim or a.fill != b.fill:
        return False
    pa, pb = list(a.pieces()), list(b.pieces())
    if len(pa) != len(pb):
        return False
    return all(
        xp == yp and close(xv, yv) for (xp, xv), (yp, yv) in zip(pa, pb))


def intersecting_nonzero_pairs(a: ContTensor, b: ContTensor) -> int:
    """How many (piece of a, piece of b) pairs overlap with both nonzero."""
    n = 0
    for pa, va in a.pieces():
        if not va:
            continue
        for pb, vb in b.pieces():
            if vb and not pa[0].intersect(pb[0]).is_empty:
                n += 1
    return n


def riemann(program: Program, bindings, h: float) -> float:
    """Midpoint-rule approximation of a scalar integral kernel."""
    total = [0.0]

    def go(stmts, env):
        for s in stmts:
            if isinstance(s, SFor):
                if not s.continuous:
                    for i in range(int(s.lo), int(s.hi) + 1):
                        go(s.body, {**env, s.var: (float(i), None)})
                    continue
                lo, hi = float(s.lo), float(s.hi)
                if not (math.isfinite(lo) and math.isfinite(hi)):
                    raise OracleError("Riemann sums need finite loop bounds")
                n = max(1, round((hi - lo) / h))
                step = (hi - lo) / n
                for k in range(n):
                    v = lo + (k + 0.5) * step
                    go(s.body, {**env, s.var: (v, step)})
            elif isinstance(s, SIf):
                if _rval(s.cond, env):
                    go(s.body, env)
            elif isinstance(s, SLet):
                env = {**env, s.name: (_rval(s.expr, env), None)}
            elif isinstance(s, SAssign):
                if s.op != "+=" or s.indices:
                    raise OracleError("Riemann sums cover scalar sums only")
                fs = []
                _factors(s.rhs, fs)
                w = 1.0
                val = 1.0
                for f in fs:
                    if isinstance(f, EDif):
                        width = env.get(f.index, (None, None))[1]
                        if width is None:
                            raise OracleError(
                                f"d({f.index}) without a continuous loop")
                        w *= width
                    else:
                        val *= _rval(f, env)
                total[0] += val * w

    def _rval(e, env):
        flat = {n: _Reg("pt", value=v) for n, (v, _w) in env.items()}
        return _value(e, flat, bindings)

    go(program.body, {})
    return total[0]
