"""The output store, fed random write sequences through hand-built plans.

Each plan is a block of writes with constant paths and values, so the
kernel's own write code (canonical ends at -inf and inf, skipped fill
writes under "=", reductions combined where written) and finalize see
exactly the sequence drawn, with no lowering in between. The finalized
tensor is compared as a function with a fold of the writes.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from contensor import executor
from contensor.compiler import compile_program
from contensor.executor import run
from contensor.ir import Block, BoolC, IntersectLet, LimC, Num, OutputDecl, Plan, Write
from contensor.lang import parse
from contensor.limits import Limit
from contensor.storage import OverlapError, build_tensor

INF = math.inf
INTERVAL, PINPOINT, DENSE = ("interval",), ("pinpoint",), ("dense", 3)
SHAPES = [(INTERVAL,), (PINPOINT,), (DENSE, INTERVAL), (DENSE, PINPOINT), (DENSE,), ()]
# each operator with its fill, as lowering gives them, and the values it writes
# (the fill among them); numbers are halves, so every sum is exact
NUMS = [-1.5, -1.0, 0.0, 0.5, 1.0, 2.0]
OPS = {
    "=": (0.0, NUMS),
    "+=": (0.0, NUMS),
    "max=": (-INF, NUMS + [-INF]),
    "min=": (INF, NUMS + [INF]),
    "|=": (False, [False, True]),
    "&=": (True, [False, True]),
}
REDUCE = {
    "+=": lambda a, b: a + b, "max=": max, "min=": min,
    "|=": lambda a, b: a or b, "&=": lambda a, b: a and b,
}
# finite ends off each other's pitch, plus both infinities
ENDS = [-INF, -1.0, 0.0, 0.25, 1.0, 2.5, INF]


@st.composite
def pieces(draw):
    """A region's (start, stop) as lowering makes them: a start is exact or
    just above its value, a stop exact or just below. Empty ones included."""
    a, b = sorted(draw(st.lists(st.sampled_from(ENDS), min_size=2, max_size=2)))
    return (a, draw(st.sampled_from([0, 1]))), (b, draw(st.sampled_from([-1, 0])))


def components(comp):
    if comp is DENSE:
        return st.integers(0, comp[1] - 1)
    if comp is PINPOINT:
        return st.sampled_from([-1.0, 0.0, 0.25, 2.5])
    return pieces()


@st.composite
def overlapping(draw):
    """A piece that holds (0.25, 1), so any two of them overlap."""
    a = draw(st.sampled_from([-1.0, 0.0, 0.25]))
    b = draw(st.sampled_from([1.0, 2.5]))
    return (a, draw(st.sampled_from([0, 1]))), (b, draw(st.sampled_from([-1, 0])))


@st.composite
def overlays(draw):
    """Interval writes under a reduction that overlap, so that finalize
    splits and combines them: under "+=" with 1.0 and -1.0 many combine
    to the fill, which must not be stored."""
    shape = draw(st.sampled_from([(INTERVAL,), (DENSE, INTERVAL), (INTERVAL, PINPOINT)]))
    op, values = draw(st.sampled_from([("+=", [1.0, -1.0]), ("|=", [False, True])]))
    comps = [overlapping() if comp is INTERVAL else components(comp) for comp in shape]
    # every path written, each with its own value, some twice
    paths = draw(st.lists(st.tuples(*comps), min_size=2, max_size=4, unique=True))
    again = draw(st.lists(st.sampled_from(paths), max_size=2))
    writes = [(path, draw(st.sampled_from(values))) for path in draw(st.permutations(paths + again))]
    return shape, op, OPS[op][0], writes


@st.composite
def cases(draw):
    if draw(st.integers(0, 2)) == 0:
        return draw(overlays())
    shape = draw(st.sampled_from(SHAPES))
    op = draw(st.sampled_from(sorted(OPS)))
    fill, values = OPS[op]
    # a few distinct paths written again and again: repeated cells
    paths = draw(st.lists(st.tuples(*map(components, shape)), min_size=1, max_size=4))
    writes = draw(st.lists(st.tuples(st.sampled_from(paths), st.sampled_from(values)),
                           max_size=8))
    return shape, op, fill, writes


def plan_of(shape, op, fill, writes) -> Plan:
    """A plan that makes exactly these writes, in order."""
    stmts = []
    for path, value in writes:
        comps = []
        for comp, c in zip(shape, path):
            if comp is DENSE:
                comps.append(("d", Num(c)))
            elif comp is PINPOINT:
                comps.append(("p", Num(c)))
            else:
                slot = len(stmts)
                stmts.append(IntersectLet(slot, "r", (LimC(Limit(*c[0])),), (LimC(Limit(*c[1])),)))
                comps.append(("iv", slot, "r"))
        leaf = BoolC(value) if isinstance(value, bool) else Num(value)
        stmts.append(Write("Out", tuple(comps), op, leaf))
    return Plan(Block(tuple(stmts)), OutputDecl("Out", shape, fill), len(stmts))


def holds(comp, c, x) -> bool:
    if comp is INTERVAL:
        return c[0] <= (x, 0) <= c[1]
    return c == x


def disjoint(comp, a, b) -> bool:
    if comp is INTERVAL:
        return max(a[0], b[0]) > min(a[1], b[1])
    return a != b


def sample_points(shape, writes, rank):
    """Every finite end written along the rank, a point between each two
    neighbours and one beyond each side; every dense position."""
    if shape[rank] is DENSE:
        return range(DENSE[1])
    ends = {x for path, _ in writes for x in (
        (path[rank][0][0], path[rank][1][0]) if shape[rank] is INTERVAL else (path[rank],))
        if math.isfinite(x)}
    ends = sorted(ends) or [0.0]
    return sorted({ends[0] - 1.0, *ends, ends[-1] + 1.0,
                   *((a + b) / 2 for a, b in zip(ends, ends[1:]))})


def assigned_twice(shape, fill, writes) -> bool:
    """Under "=": two writes of other than the fill that meet where their
    paths first differ (or never differ)."""
    live = [path for path, v in writes if v != fill
            and all(comp is not INTERVAL or c[0] <= c[1] for comp, c in zip(shape, path))]
    for i, a in enumerate(live):
        for b in live[:i]:
            first = next((r for r in range(len(shape)) if a[r] != b[r]), None)
            if first is None or not disjoint(shape[first], a[first], b[first]):
                return True
    return False


def expected(shape, op, fill, writes, point):
    """The fold of the writes whose path holds point, in write order, from the fill."""
    acc = fill
    for path, v in writes:
        if all(holds(comp, c, x) for comp, c, x in zip(shape, path, point)):
            acc = v if op == "=" else REDUCE[op](acc, v)
    return acc


def canonical(out) -> bool:
    """At the last rank every piece holds a real number (an end at -inf or
    inf is open), no stored leaf equals the fill, and no two touching
    pieces of a fiber hold equal values."""
    last = out.ndim - 1
    for f in range(out.n_fibers(last)):
        entries = out.fiber_entries(last, f)
        for iv, p in entries:
            if iv.start < Limit(-INF, 1) or iv.stop > Limit(INF, -1) or iv.is_empty:
                return False
            if out.values[p] == out.fill:
                return False
        for (a, p), (b, q) in zip(entries, entries[1:]):
            if a.touches_below(b) and out.values[p] == out.values[q]:
                return False
    return True


@settings(max_examples=400, deadline=None, derandomize=True)
@given(cases())
def test_finalized_output_is_the_fold_of_the_writes(case):
    shape, op, fill, writes = case
    plan = plan_of(shape, op, fill, writes)
    if op == "=" and assigned_twice(shape, fill, writes):
        with pytest.raises(OverlapError):
            run(plan)
        return
    out = run(plan).output
    if not shape:
        want = expected(shape, op, fill, writes, ())
        assert out == want and type(out) is type(want)
        return
    assert out.fill == fill
    if shape[-1] is not DENSE:
        assert canonical(out), out
    grid = [sample_points(shape, writes, r) for r in range(len(shape))]
    points = [()]
    for axis in grid:
        points = [(*p, x) for p in points for x in axis]
    for pt in points:
        got, want = out.at(*pt), expected(shape, op, fill, writes, pt)
        assert got == want and type(got) is type(want), (pt, got, want)


def test_assigning_a_cell_twice_or_overlapping_pieces_raises():
    piece = ((0.0, 0), (1.0, 0))
    for shape, first, second in [
        ((INTERVAL,), (piece,), (piece,)),  # one cell twice
        ((INTERVAL,), (piece,), (((0.5, 1), (2.5, -1)),)),  # overlapping pieces
        ((PINPOINT,), (0.25,), (0.25,)),
        ((DENSE, INTERVAL), (1, piece), (1, ((1.0, 0), (2.5, 0)))),  # meet at 1.0
        ((DENSE,), (2,), (2,)),
        ((), (), ()),
    ]:
        with pytest.raises(OverlapError):
            run(plan_of(shape, "=", 0.0, [(first, 1.0), (second, 2.0)]))
        # the same writes under a reduction combine
        run(plan_of(shape, "+=", 0.0, [(first, 1.0), (second, 2.0)]))
    # a fill write changes nothing, so it cannot collide
    out = run(plan_of((INTERVAL,), "=", 0.0, [((piece,), 1.0), ((piece,), 0.0)])).output
    assert out.at(0.5) == 1.0


def test_a_cell_assigned_twice_is_named_whatever_the_order_of_the_writes():
    # cells 2 and 1 are each written twice; the least of them is named
    writes = [((2,), 1.0), ((2,), 2.0), ((1,), 1.0), ((1,), 2.0)]
    for order in (writes, writes[::-1]):
        with pytest.raises(OverlapError, match=r"cell \(1,\) assigned twice"):
            run(plan_of((DENSE,), "=", 0.0, order))


def in_order_writes(n: int, merges: bool) -> list:
    """About n rank-1 interval writes, in order, on integer ends: runs of
    equal touching pieces, NaN beside NaN, 0.0 beside -0.0, equal values
    with a point between them, and neighbours that meet at one value
    closed on one side and open on the other. Without merges every value
    differs from its neighbours', and no zero is written."""
    pattern = [
        # (start, stop) as (val, eps) offsets from the block's origin, value
        (((0, 0), (1, -1)), 1.0), (((1, 0), (2, 0)), 1.0), (((2, 1), (3, 0)), 1.0),  # one piece
        (((3, 1), (4, -1)), math.nan), (((4, 0), (5, -1)), math.nan),
        (((5, 0), (6, 0)), 0.0), (((6, 1), (7, 0)), -0.0),  # one piece
        (((8, 0), (9, -1)), 2.0), (((9, 1), (10, 0)), 2.0),  # 9 itself is the fill
        (((10, 1), (11, 0)), -1.5), (((11, 1), (11, 0)), 0.5),  # empty: not written
        (((12, 0), (12, 0)), 0.5), (((12, 1), (13, -1)), 0.5),  # a point, then one piece
    ]
    writes, k, block = [], 0, 0
    while len(writes) < n:
        for (lo, hi), v in pattern:
            if merges:
                v = v + block % 3 if v == v and v != 0 else v
            else:
                k += 1
                v = math.nan if v != v else float(k)
            piece = ((float(lo[0] + 14 * block), lo[1]), (float(hi[0] + 14 * block), hi[1]))
            writes.append(((piece,), v))
        block += 1
    return writes


def fold_at(writes, fill, x):
    """The value the last write holding x gave it, or the fill."""
    got = fill
    for (piece,), v in writes:
        if piece[0] <= (x, 0) <= piece[1]:
            got = v
    return got


@pytest.mark.parametrize("merges", [True, False])
def test_thousands_of_pieces_in_either_order_give_one_output(merges):
    fill = -9.0
    writes = in_order_writes(3000, merges)
    out = run(plan_of((INTERVAL,), "=", fill, writes)).output
    backwards = run(plan_of((INTERVAL,), "=", fill, writes[::-1])).output
    assert repr(out) == repr(backwards)
    assert canonical(out)
    live = [w for w in writes if w[0][0][0] <= w[0][0][1]]
    if not merges:
        assert len(out.values) == len(live)
    # every end, every midpoint, and the point past each piece; the
    # writes are disjoint, so only those of the same block are folded
    for block in range(0, len(writes), 13):
        near = writes[block:block + 13]
        for (piece,), _ in near:
            for x in (piece[0][0], (piece[0][0] + piece[1][0]) / 2, piece[1][0], piece[1][0] + 0.5):
                got, want = out.at(x), fold_at(near, fill, x)
                assert got == want or got != got and want != want, (x, got, want)


def test_the_overlap_messages_read_the_output_alone():
    first, second = ((((0.0, 0), (1.0, 0)),), 1.0), ((((0.5, 1), (2.5, -1)),), 2.0)
    for writes in ([first, second], [second, first]):
        with pytest.raises(OverlapError) as err:
            run(plan_of((INTERVAL,), "=", 0.0, writes))
        assert str(err.value) == "output pieces [0, 1] and (0.5, 2.5) overlap on Out"
    # meeting at 1.0, closed in both
    with pytest.raises(OverlapError) as err:
        run(plan_of((INTERVAL,), "=", 0.0, [first, ((((1.0, 0), (2.5, -1)),), 2.0)]))
    assert str(err.value) == "output pieces [0, 1] and [1, 2.5) overlap on Out"
    # a cell assigned twice is named before a piece that overlaps it
    cell = ((((-INF, 1), (1.0, -1)),), 1.0)
    with pytest.raises(OverlapError) as err:
        run(plan_of((INTERVAL,), "=", 0.0, [cell, ((((0.25, 0), (0.25, 0)),), 2.0), cell]))
    assert str(err.value) == (
        "output cell ((Limit(val=-inf, eps=1), Limit(val=1.0, eps=-1)),) assigned twice")
    # at scale: a piece written after thousands in order overlaps the last of them
    writes = in_order_writes(3000, False)
    (last,), _ = writes[-1]
    writes.append(((((last[0][0] + 0.5, 0), (last[1][0] + 1, 0)),), 1.5))
    with pytest.raises(OverlapError) as err:
        run(plan_of((INTERVAL,), "=", 0.0, writes))
    assert str(err.value) == "output pieces (3232, 3233) and [3232.5, 3234] overlap on Out"


# ---------------------------------------------------------------------------
# finalize's exits under "=": a one-rank interval output written in order,
# with no equal touching neighbours, is stored as the kernel's columns;
# every other output is zipped into records and built through build_tensor


def piece(a, b, ea=0, eb=0):
    return ((a, ea), (b, eb))


def point_between_pieces() -> Plan:
    """[0, 0.5) = 1, then the point 0.5 = 2 written as a pinned coordinate
    into the interval rank, then (0.5, 1] = 3."""
    stmts = (IntersectLet(0, "r", (LimC(Limit(0.0)),), (LimC(Limit(0.5, -1)),)),
             Write("Out", (("iv", 0, "r"),), "=", Num(1.0)),
             Write("Out", (("p", Num(0.5)),), "=", Num(2.0)),
             IntersectLet(1, "r", (LimC(Limit(0.5, 1)),), (LimC(Limit(1.0)),)),
             Write("Out", (("iv", 1, "r"),), "=", Num(3.0)))
    return Plan(Block(stmts), OutputDecl("Out", (INTERVAL,), 0.0), 2)


def closed_neg_inf_start() -> Plan:
    """Out[i] = A[i] over a stored closed -inf start, which the kernel
    writes as the open one."""
    A = build_tensor("A", [("interval",)], [(piece(-INF, 1.0), 2.0), (piece(2.0, INF), 3.0)])
    return compile_program(parse("for i = -inf:inf\n  Out[i] = A[i]\nend\n"), {"A": A})


@pytest.mark.parametrize("plan, columns, want", [
    (plan_of((INTERVAL,), "=", 0.0, [((piece(0.0, 1.0),), 1.0), ((piece(1.0, 2.0, 1),), 2.0),
                                     ((piece(3.0, INF),), 3.0)]),
     True, [(piece(0.0, 1.0), 1.0), (piece(1.0, 2.0, 1), 2.0), (piece(3.0, INF, 0, -1), 3.0)]),
    (plan_of((INTERVAL,), "=", 0.0, [((piece(0.0, 1.0, 0, -1),), 1.0), ((piece(1.0, 2.0),), 1.0),
                                     ((piece(3.0, 4.0),), 2.0)]),
     False, [(piece(0.0, 2.0), 1.0), (piece(3.0, 4.0), 2.0)]),
    (plan_of((INTERVAL,), "=", 0.0, [((piece(3.0, 4.0),), 2.0), ((piece(1.0, 2.0),), 1.5),
                                     ((piece(-INF, 1.0, 0, -1),), 1.0)]),
     False, [(piece(-INF, 1.0, 1, -1), 1.0), (piece(1.0, 2.0), 1.5), (piece(3.0, 4.0), 2.0)]),
    (plan_of((INTERVAL,), "=", 0.0, [((piece(0.0, 1.0),), math.nan),
                                     ((piece(1.0, 2.0, 1),), math.nan),
                                     ((piece(2.0, 3.0, 1),), 1.0)]),
     True, [(piece(0.0, 1.0), math.nan), (piece(1.0, 2.0, 1), math.nan),
            (piece(2.0, 3.0, 1), 1.0)]),
    (point_between_pieces(),
     True, [(piece(0.0, 0.5, 0, -1), 1.0), (piece(0.5, 0.5), 2.0), (piece(0.5, 1.0, 1), 3.0)]),
    (closed_neg_inf_start(), True, [(piece(-INF, 1.0, 1), 2.0), (piece(2.0, INF, 0, -1), 3.0)]),
    (plan_of((DENSE, INTERVAL), "=", 0.0, [((1, piece(0.0, 1.0)), 1.0), ((0, piece(0.0, 1.0)), 2.0),
                                           ((1, piece(1.0, 2.0, 1)), 1.0)]),
     False, [((0, piece(0.0, 1.0)), 2.0), ((1, piece(0.0, 2.0)), 1.0)]),
], ids=["in_order", "merge", "reverse", "nan", "point", "closed_-inf", "dense_interval"])
def test_each_exit_of_finalize(monkeypatch, plan, columns, want):
    built = []
    monkeypatch.setattr(executor, "build_tensor",
                        lambda *args, **kw: built.append(args) or build_tensor(*args, **kw))
    res = run(plan)
    assert bool(built) is not columns
    out = res.output
    got = [(path[0] if len(path) == 1 else path, v) for path, v in out.pieces()]
    assert len(got) == len(want)
    for (path, v), (wpath, wv) in zip(got, want):
        if out.ndim == 1:
            assert (tuple(path.start), tuple(path.stop)) == wpath
        else:
            assert (path[0], (tuple(path[1].start), tuple(path[1].stop))) == wpath
        assert v == wv or v != v and wv != wv
    nan = any(v != v for _, v in want)
    assert res.diagnostics == (["output Out contains NaN values"] if nan else [])
    if columns:
        # the level's columns are tuples, as every stored level's are
        level = out.levels[0]
        assert type(level.starts) is type(level.stops) is type(out.values) is tuple


@pytest.mark.parametrize("writes, message", [
    ([((piece(0.0, 1.0),), 1.0), ((piece(1.0, 2.0),), 2.0)],
     "output pieces [0, 1] and [1, 2] overlap on Out"),
    ([((piece(2.0, 3.0),), 1.0), ((piece(0.0, 2.5, 1, -1),), 2.0)],
     "output pieces (0, 2.5) and [2, 3] overlap on Out"),
], ids=["in_order", "reverse"])
def test_overlapping_pieces_take_the_record_path_and_raise(writes, message):
    with pytest.raises(OverlapError) as err:
        run(plan_of((INTERVAL,), "=", 0.0, writes))
    assert str(err.value) == message
