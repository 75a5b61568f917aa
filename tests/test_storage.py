import dataclasses
import itertools
import json
import math
import operator
import random
import re

import pytest

from contensor.intervals import Interval
from contensor.kernels import KERNELS, build_genomic_grid, random_genomic
from contensor.limits import ABOVE, BELOW, EXACT, Limit
from contensor.storage import (
    ContTensor,
    DenseLevel,
    IntervalLevel,
    InvalidPieceError,
    OverlapError,
    PinpointLevel,
    RegularLevel,
    SparseLevel,
    StorageError,
    UnsortedError,
    _EPS,
    _OPEN,
    _VAL,
    _check_ptr,
    _first_fault,
    build_level,
    build_tensor,
    tensor_1d,
)
from contensor.compiler import compile_program
from contensor.executor import run
from contensor.lang import parse
from contensor.tensorio import SchemaError, dumps_tensor, tensor_from_json, tensor_to_json


KINDS = ["pinpoint", "interval", "regular"]


def random_fiber(rng, kind):
    """(key, value) pairs of one sorted, disjoint fiber at off-pitch floats."""
    n = rng.randint(0, 6)
    if kind == "pinpoint":
        crds = sorted({rng.uniform(-5, 5) for _ in range(n)})
        return [(c, rng.randint(1, 9) * 1.0) for c in crds]
    if kind == "regular":
        xs = sorted({rng.randint(-10, 10) for _ in range(n)})
        return [(x, rng.randint(1, 9) * 1.0) for x in xs]
    out = []
    cursor, prev_rclose = rng.uniform(-5, 0), True
    for _ in range(n):
        touch = bool(out) and rng.random() < 0.3
        a = cursor if touch else cursor + rng.uniform(0.01, 2)
        lclose = not prev_rclose if touch else rng.random() < 0.5
        if lclose and rng.random() < 0.2:
            b, rclose = a, True
        else:
            b, rclose = a + rng.uniform(0.01, 2), rng.random() < 0.5
        start = Limit(a) if lclose else Limit(a, 1)
        stop = Limit(b) if rclose else Limit(b, -1)
        out.append((Interval(start, stop), rng.randint(1, 9) * 1.0))
        cursor, prev_rclose = b, rclose
    return out


def random_tensor(rng, kind):
    """Two fibers of one sparse kind under a dense rank, so ptr offsets matter."""
    if kind == "regular":
        stride = rng.uniform(0.1, 1.0)
        length = rng.choice([0.0, rng.uniform(0.0, 0.9 * stride)])
        spec = ("regular", stride, length, rng.random() < 0.5)
    else:
        spec = (kind,)
    root = [random_fiber(rng, kind), random_fiber(rng, kind)]
    return build_tensor("t", [("dense", 2), spec], root, fill=-1.0)


def probe_points(rng, t):
    """Every stored endpoint nudged by -eps, 0 and +eps, plus random reals."""
    pts = [Limit(rng.uniform(-12, 12)) for _ in range(10)]
    for f in range(2):
        for iv, _ in t.fiber_entries(1, f):
            for end in (iv.start, iv.stop):
                pts.extend(Limit(end.val, e) for e in (-1, 0, 1))
    return pts + [Limit(-math.inf), Limit(math.inf)]


def linear_seek(t, level, f, target):
    """First position of fiber f whose stop is >= target, by a scan."""
    entries = t.fiber_entries(level, f)
    end = t.levels[level].span(f)[1]
    return next((p for iv, p in entries if not iv.stop < target), end)


def fx():
    # two stored pieces on an otherwise-zero line
    return tensor_1d("f", [(Interval.closed(1, 3), 1.0), (Interval.closed(4.1, 5.1), 2.0)])


@pytest.mark.parametrize(
    "x,want",
    [(2.0, 1.0), (4.5, 2.0), (3.5, 0.0), (0.5, 0.0), (6.0, 0.0), (3.0, 1.0), (4.1, 2.0)],
)
def test_fx_point_eval(x, want):
    assert fx().at(x) == want


def test_overlap_rejected():
    with pytest.raises(OverlapError) as e:
        tensor_1d("a", [(Interval.closed(1, 3), 1.0), (Interval.closed(2, 4), 2.0)])
    assert e.value.fiber == 0 and e.value.pos == 0


def test_touching_closed_endpoints_overlap():
    with pytest.raises(OverlapError):
        tensor_1d("a", [(Interval.closed(1, 3), 1.0), (Interval.closed(3, 4), 2.0)])
    # half-open handoff is fine
    t = tensor_1d("a", [(Interval.right_open(1, 3), 1.0), (Interval.closed(3, 4), 2.0)])
    assert t.at(3.0) == 2.0
    assert t.at(2.999) == 1.0


def test_unsorted_rejected():
    with pytest.raises(UnsortedError):
        tensor_1d("a", [(Interval.closed(4, 5), 1.0), (Interval.closed(1, 2), 2.0)])


def test_duplicate_pinpoints_rejected():
    with pytest.raises(OverlapError):
        tensor_1d("a", [(3.0, 1.0), (3.0, 2.0)])


def test_backwards_interval_rejected():
    with pytest.raises(InvalidPieceError):
        ContTensor(
            "a",
            (IntervalLevel(ptr=(0, 1), left=(3.0,), right=(1.0,)),),
            (1.0,),
        )


def test_nan_endpoint_rejected():
    with pytest.raises(InvalidPieceError):
        tensor_1d("a", [(Interval.closed(float("nan"), 1), 1.0)])


def test_mixed_flags_vs_uniform_flags():
    hetero = tensor_1d(
        "a", [(Interval.right_open(0, 1), 1.0), (Interval.closed(2, 3), 2.0)]
    )
    lv = tensor_to_json(hetero)["levels"][0]
    assert lv["rclose"] == [False, True]
    uniform = tensor_1d("b", [(Interval.right_open(0, 1), 1.0), (Interval.right_open(2, 3), 2.0)])
    assert tensor_to_json(uniform)["levels"][0]["rclose"] is False
    for x in (0.0, 0.5, 1.0, 2.0, 3.0, 3.5):
        assert hetero.at(x) == {0.0: 1.0, 0.5: 1.0, 1.0: 0.0, 2.0: 2.0, 3.0: 2.0, 3.5: 0.0}[x]


def test_regular_matches_expanded_interval_level():
    reg = ContTensor(
        "r",
        (RegularLevel(stride=1.0, length=1.0, rclose=False, xs=(0, 1, 3)),),
        (1.0, 2.0, 3.0),
    )
    exp = tensor_1d(
        "e",
        [
            (Interval.right_open(0, 1), 1.0),
            (Interval.right_open(1, 2), 2.0),
            (Interval.right_open(3, 4), 3.0),
        ],
    )
    rng = random.Random(3)
    for _ in range(500):
        x = rng.uniform(-1, 5)
        assert reg.at(x) == exp.at(x)
    assert [iv for iv, _ in reg.fiber_entries(0, 0)] == [iv for iv, _ in exp.fiber_entries(0, 0)]


def test_regular_zero_length_is_pinpoint():
    reg = ContTensor(
        "r", (RegularLevel(stride=0.5, length=0.0, rclose=True, xs=(2, 4)),), (1.0, 2.0)
    )
    assert reg.at(1.0) == 1.0
    assert reg.at(2.0) == 2.0
    assert reg.at(1.5) == 0.0
    assert reg.levels[0].pinpoint


def test_regular_multi_fiber_needs_ptr():
    with pytest.raises(InvalidPieceError):
        ContTensor(
            "r",
            (
                DenseLevel(2),
                RegularLevel(stride=1.0, length=1.0, rclose=False, xs=(0, 1)),
            ),
            (1.0, 2.0),
        )
    ok = ContTensor(
        "r",
        (
            DenseLevel(2),
            RegularLevel(stride=1.0, length=1.0, rclose=False, xs=(0, 1), ptr=(0, 1, 2)),
        ),
        (1.0, 2.0),
    )
    assert ok.at(0, 0.5) == 1.0
    assert ok.at(1, 1.5) == 2.0
    assert ok.at(0, 1.5) == 0.0


def test_multirank_build_and_eval():
    # dense(2) over pinpoint over interval
    t = build_tensor(
        "m",
        [("dense", 2), ("pinpoint",), ("interval",)],
        [
            [(1.5, [(Interval.closed(0, 1), 3.0)])],
            [(2.5, [(Interval.right_open(5, 6), 4.0)]), (3.5, [])],
        ],
    )
    assert t.at(0, 1.5, 0.5) == 3.0
    assert t.at(0, 1.5, 2.0) == 0.0
    assert t.at(0, 2.5, 0.5) == 0.0
    assert t.at(1, 2.5, 5.5) == 4.0
    assert t.at(1, 3.5, 5.5) == 0.0
    for bad in (2, 0.5, math.inf, float("nan")):
        with pytest.raises(IndexError):
            t.at(bad, 0.0, 0.0)


def test_values_length_checked():
    with pytest.raises(InvalidPieceError):
        ContTensor("a", (DenseLevel(3),), (1.0, 2.0))


@pytest.mark.parametrize("make, error, msg", [
    (lambda: ContTensor("a", (DenseLevel(0),), ()),
     InvalidPieceError, "level 0: dense size must be positive"),
    (lambda: ContTensor("a", (IntervalLevel(ptr=(0, 1), left=(0.0,), right=(1.0, 2.0)),), (1.0,)),
     InvalidPieceError, "level 0: left/right length mismatch"),
    (lambda: ContTensor("a", (RegularLevel(stride=0.0, length=0.5, rclose=False, xs=(0,)),), (1.0,)),
     InvalidPieceError, "level 0: regular stride must be positive and finite"),
    (lambda: tensor_1d("a", [(0.5, 1.0)]).at(0.5, 0.5),
     TypeError, "tensor a has 1 ranks, got 2 coords"),
], ids=["dense_size_0", "left_right_lengths", "regular_stride_0", "at_arity"])
def test_a_malformed_level_or_read_is_rejected(make, error, msg):
    with pytest.raises(error) as e:
        make()
    assert (type(e.value), str(e.value)) == (error, msg)


def test_eval_matches_entry_scan_randomized():
    rng = random.Random(17)
    for kind in KINDS * 30:
        t = random_tensor(rng, kind)
        for x in probe_points(rng, t):
            for f in range(2):
                by_scan = next((t.values[p] for iv, p in t.fiber_entries(1, f) if iv.contains(x)),
                               t.fill)
                assert t.at(f, x) == by_scan


@pytest.mark.parametrize("level,want", [
    (PinpointLevel(ptr=(0, 1), crd=(1.0,)), True),
    (IntervalLevel(ptr=(0, 1), left=(1.0,), right=(1.0,)), False),
    (RegularLevel(stride=0.5, length=0.0, rclose=True, xs=(2,)), True),
    (RegularLevel(stride=0.5, length=0.0, rclose=False, xs=()), True),
    (RegularLevel(stride=0.5, length=0.5, rclose=False, xs=(2,)), False),
    (RegularLevel(stride=0.5, length=0.5, rclose=False, xs=()), False),
    (DenseLevel(3), False),
], ids=["pinpoint", "interval", "regular-0", "regular-0-empty", "regular", "regular-empty", "dense"])
def test_pinpoint_level_attribute(level, want):
    assert level.decode(0, 1).pinpoint is want


def test_table_seek():
    t = tensor_1d(
        "s",
        [((0.0, 1.0), 1.0), ((2.0, 3.0), 1.0), ((5.0, 6.0), 1.0)],
        kind="interval",
    )
    table = t.levels[0]
    for target, want in [
        (Limit(-math.inf), 0),
        (Limit(0.5), 0),
        (Limit(1.0), 0),
        (Limit(1.0, 1), 1),
        (Limit(4.0), 2),
        (Limit(6.0, 1), 3),
    ]:
        assert table.seek(0, target) == want
        assert linear_seek(t, 0, 0, target) == want


@pytest.mark.parametrize("x", [math.inf, -math.inf, float("nan"), 2.5])
def test_regular_xs_must_be_finite_integers(x):
    with pytest.raises(InvalidPieceError):
        ContTensor("r", (RegularLevel(stride=1.0, length=0.5, rclose=False, xs=(0, x)),), (1.0, 2.0))
    with pytest.raises(InvalidPieceError):
        build_level(("regular", 1.0, 0.5, False), [[0, x]])


@pytest.mark.parametrize("kind", KINDS)
def test_nan_coordinate_rejected(kind):
    t = random_tensor(random.Random(5), kind)
    with pytest.raises(ValueError, match="nan"):
        t.at(0, float("nan"))


def test_fiber_entries_on_dense_level_is_a_type_error():
    t = build_tensor("d", [("dense", 2)], [1.0, 2.0])
    with pytest.raises(TypeError, match="dense levels have no piece entries"):
        t.fiber_entries(0, 0)


def test_locate_probe_seek_match_linear_scan():
    rng = random.Random(2407)
    for kind in KINDS * 150:
        t = random_tensor(rng, kind)
        table = t.levels[1]
        for x in probe_points(rng, t):
            for f in range(2):
                entries = t.fiber_entries(1, f)
                want = next((p for iv, p in entries if iv.contains(x)), -1)
                assert table.probe(f, x) == want
                assert table.seek(f, x) == linear_seek(t, 1, f, x)
            assert table.probe(-1, x) == -1


# --- whole-column validation: same verdict and error as the per-piece scan

N, FIBERS = 1000, 10  # 100 pieces in each fiber under a dense rank
PTR = tuple(range(0, N + 1, N // FIBERS))
AT = (0, 500, 999)  # first, middle and last piece


def big_level(kind, ptr=PTR, **cols):
    """A 1000-piece level of this kind, its columns overridden by cols."""
    if kind == "pinpoint":
        return PinpointLevel(ptr=ptr, crd=cols.get("crd", tuple(j + 0.125 for j in range(N))))
    if kind == "interval":
        return IntervalLevel(
            ptr=ptr,
            left=cols.get("left", tuple(j + 0.125 for j in range(N))),
            right=cols.get("right", tuple(j + 0.5 for j in range(N))),
            lclose=cols.get("lclose", tuple(j % 2 == 0 for j in range(N))),
            rclose=cols.get("rclose", tuple(j % 3 != 0 for j in range(N))))
    return RegularLevel(stride=0.5, length=0.25, rclose=True, ptr=ptr,
                        xs=cols.get("xs", tuple(range(0, 2 * N, 2))))


def big_tensor(level):
    return ContTensor("t", (DenseLevel(FIBERS), level), tuple(j % 7 + 0.5 for j in range(N)))


def replaced(kind, field, at, bad):
    col = list(getattr(big_level(kind), field))
    col[at] = bad
    return tuple(col)


@pytest.mark.parametrize("kind, field, bad, message", [
    ("pinpoint", "crd", float("nan"), "level 1: bad coordinate nan"),
    ("pinpoint", "crd", math.inf, "level 1: bad coordinate inf"),
    ("pinpoint", "crd", -math.inf, "level 1: bad coordinate -inf"),
    ("interval", "left", float("nan"), "level 1: NaN endpoint"),
    ("interval", "right", float("nan"), "level 1: NaN endpoint"),
    ("regular", "xs", 2.5, "level 1: regular xs must be integers, got 2.5"),
    ("regular", "xs", float("nan"), "level 1: regular xs must be integers, got nan"),
    ("regular", "xs", math.inf, "level 1: regular xs must be integers, got inf"),
])
def test_a_bad_element_anywhere_is_rejected(kind, field, bad, message):
    big_tensor(big_level(kind))
    for at in AT:
        with pytest.raises(InvalidPieceError) as e:
            big_tensor(big_level(kind, **{field: replaced(kind, field, at, bad)}))
        assert str(e.value) == message


@pytest.mark.parametrize("kind", KINDS)
def test_a_ptr_running_backwards_is_rejected(kind):
    ptr = list(PTR)
    ptr[5] = 0
    with pytest.raises(InvalidPieceError) as e:
        big_tensor(big_level(kind, ptr=tuple(ptr)))
    assert str(e.value) == "level 1: ptr not monotone at fiber 4"


def swapped(col, k):
    col = list(col)
    col[k], col[k + 1] = col[k + 1], col[k]
    return tuple(col)


# (kind, columns with a fault planted in fiber 3, error, (level, fiber, pos), message)
PIECE_FAULTS = [
    ("interval", {"left": replaced("interval", "left", 340, 341.0)}, InvalidPieceError, None,
     "level 1 fiber 3: piece at position 340 is empty ([341, 340.5])"),
    ("interval", {"left": swapped(big_level("interval").left, 340),
                  "right": swapped(big_level("interval").right, 340)},
     UnsortedError, (1, 3, 341), "level 1 fiber 3: pieces out of order at position 341"),
    ("interval", {"right": replaced("interval", "right", 340, 341.25)},
     OverlapError, (1, 3, 340), "level 1 fiber 3: pieces at positions 340 and 341 overlap"),
    ("pinpoint", {"crd": swapped(big_level("pinpoint").crd, 340)},
     UnsortedError, (1, 3, 341), "level 1 fiber 3: pieces out of order at position 341"),
    ("pinpoint", {"crd": replaced("pinpoint", "crd", 341, 340.125)},
     OverlapError, (1, 3, 340), "level 1 fiber 3: pieces at positions 340 and 341 overlap"),
    ("regular", {"xs": swapped(big_level("regular").xs, 340)},
     UnsortedError, (1, 3, 341), "level 1 fiber 3: pieces out of order at position 341"),
    ("regular", {"xs": replaced("regular", "xs", 341, 680)},
     OverlapError, (1, 3, 340), "level 1 fiber 3: pieces at positions 340 and 341 overlap"),
    # two faults: the one at the lower position is reported
    ("interval", {"left": replaced("interval", "left", 360, 361.0),
                  "right": replaced("interval", "right", 340, 341.25)},
     OverlapError, (1, 3, 340), "level 1 fiber 3: pieces at positions 340 and 341 overlap"),
    ("interval", {"left": replaced("interval", "left", 740, 741.0),
                  "right": replaced("interval", "right", 999, 0.0)}, InvalidPieceError, None,
     "level 1 fiber 7: piece at position 740 is empty ([741, 740.5])"),
]


@pytest.mark.parametrize("kind, cols, error, where, message", PIECE_FAULTS,
                         ids=[f"{c[0]}-{c[2].__name__}-{i}" for i, c in enumerate(PIECE_FAULTS)])
def test_a_planted_piece_fault_is_reported_where_it_is(kind, cols, error, where, message):
    with pytest.raises(StorageError) as e:
        big_tensor(big_level(kind, **cols))
    assert type(e.value) is error
    assert str(e.value) == message
    if where is not None:
        assert (e.value.level, e.value.fiber, e.value.pos) == where


@pytest.mark.parametrize("kind", KINDS)
def test_pieces_may_descend_across_a_fiber_boundary(kind):
    # fibers 0 and 1 swap places, and fiber 2 is empty: each fiber stays
    # sorted, so this is valid although the column is not
    order = list(range(100, 200)) + list(range(100)) + list(range(200, N))
    ptr = (0, 100, 200, 200) + PTR[3:]
    base = big_level(kind)
    cols = {f: tuple(getattr(base, f)[j] for j in order)
            for f in ("crd", "left", "right", "lclose", "rclose", "xs")
            if isinstance(getattr(base, f, None), tuple)}
    t = ContTensor("t", (DenseLevel(FIBERS + 1), big_level(kind, ptr=ptr, **cols)),
                   tuple(j % 7 + 0.5 for j in range(N)))
    entries = big_tensor(base).fiber_entries
    assert t.fiber_entries(1, 0) == [(iv, p - 100) for iv, p in entries(1, 1)]
    assert t.fiber_entries(1, 1) == [(iv, p + 100) for iv, p in entries(1, 0)]
    assert t.fiber_entries(1, 2) == []


# --- the float passes of SparseLevel.checked accept, reject and return
# exactly what the tuple-only passes they replaced do; those passes are
# kept here as the spec


def tuple_decode(self, level, n_fibers):
    """SparseLevel.decode with each end column's eps set tested on its own."""
    starts, stops = self.starts, self.stops
    if not (set(map(_EPS, starts)) <= {EXACT, ABOVE} and set(map(_EPS, stops)) <= {EXACT, BELOW}):
        p = next(p for p, (a, b) in enumerate(zip(starts, stops))
                 if a[1] not in (EXACT, ABOVE) or b[1] not in (EXACT, BELOW))
        piece = Interval(Limit(*starts[p]), Limit(*stops[p]))
        raise InvalidPieceError(f"level {level}: cannot store piece {p} {piece} in "
                                f"{'a pinpoint' if self.pinpoint else 'an interval'} level")
    return self.checked(level, n_fibers)


def tuple_checked(self, level, n_fibers):
    """SparseLevel.checked comparing every neighbour as a (val, eps) tuple."""
    ptr, starts, stops = self.ptr, self.starts, self.stops
    if len(stops) != len(starts):
        raise InvalidPieceError(f"level {level}: starts/stops length mismatch")
    finite = math.isfinite(sum(map(_VAL, starts))) and (
        stops is starts or math.isfinite(sum(map(_VAL, stops))))
    if not finite and any(map(math.isnan, map(_VAL, itertools.chain(starts, stops)))):
        raise InvalidPieceError(f"level {level}: NaN endpoint")
    _check_ptr(ptr, level, n_fibers, len(starts))
    not_below_next = itertools.compress(
        range(1, len(starts)), map(operator.ge, stops, itertools.islice(starts, 1, None)))
    if (not all(map(operator.le, starts, stops)) or not set(not_below_next) <= set(ptr)
            or not finite and (math.inf in map(_VAL, starts) or -math.inf in map(_VAL, stops))):
        _first_fault(level, ptr, starts, stops)
    if not finite and self.regular is None:
        return SparseLevel(ptr, tuple(map(_OPEN.get, starts, starts)),
                           tuple(map(_OPEN.get, stops, stops)))
    return self


NAN, INF = math.nan, math.inf
# (ptr, left, right, lclose, rclose): an interval level's columns, whose
# lefts are also a pinpoint level's coordinates
HAND_COLUMNS = [
    ((0, 2), (0.0, 1.0), (1.0, 2.0), True, (False, True)),  # [0, 1) touches [1, 2]
    ((0, 2), (0.0, 1.0), (1.0, 2.0), True, True),  # [0, 1] and [1, 2] share 1
    ((0, 2), (0.0, 1.0), (1.0, 2.0), (True, False), True),  # [0, 1] touches (1, 2]
    ((0, 2), (0.0, 1.0), (1.0, 1.0), True, (False, True)),  # [0, 1) then the point [1, 1]
    ((0, 2), (1.0, 1.0), (1.0, 2.0), True, True),  # the point [1, 1] then [1, 2]
    ((0, 2), (1.0, 1.0), (1.0, 2.0), (True, False), True),  # [1, 1] then (1, 2]
    ((0, 1), (1.0,), (1.0,), True, False),  # [1, 1) is empty
    ((0, 1), (1.0,), (0.0,), True, True),  # [1, 0] is empty
    ((0, 2), (-1.0, 0.0), (-0.0, 1.0), True, (False, True)),  # [-1, -0.0) touches [0.0, 1]
    ((0, 2), (-1.0, 0.0), (-0.0, 1.0), True, True),  # [-1, -0.0] and [0.0, 1] share 0
    ((0, 2), (-1.0, -0.0), (0.0, 1.0), (True, False), True),  # [-1, 0.0] touches (-0.0, 1]
    ((0, 2), (0, 1), (1, 2), True, (False, True)),  # int ends
    ((0, 2), (0, 1), (1, 2), True, True),
    ((0, 2), (0, 1.0), (1, 2), True, True),  # an int against a float
    ((0, 2), (-INF, 0.0), (0.0, INF), (True, False), True),  # closed infinite ends
    ((0, 2), (-INF, -INF), (0.0, 1.0), True, True),  # two pieces from -inf
    ((0, 1), (INF,), (INF,), True, True),  # [inf, inf] holds no real number
    ((0, 1), (-INF,), (-INF,), True, True),  # and nor does [-inf, -inf]
    ((0, 1), (2.0,), (INF,), (False,), False),  # (2, inf)
    ((0, 1), (NAN,), (1.0,), True, True),
    ((0, 2), (0.0, 1.0), (NAN, 2.0), True, True),
    ((0, 1, 2), (2.0, 0.0), (3.0, 1.0), True, True),  # unsorted across a fiber start
    ((0, 1, 2), (0.0, 1.0), (1.0, 2.0), True, True),  # shared end across a fiber start
    ((0, 2, 2), (2.0, 0.0), (3.0, 1.0), True, True),  # unsorted inside a fiber
    ((0, 2, 3), (0.0, 2.0, 1.0), (1.0, 3.0, 5.0), True, True),
    ((0, 0, 3), (0.0, 2.0, 2.0), (1.0, 2.0, 3.0), True, (True, False, True)),
    ((0, 3, 2, 3), (0.0, 1.0, 2.0), (0.5, 1.5, 2.5), True, True),  # ptr runs backwards
    ((0, 2), (0.0,), (1.0,), True, True),  # ptr past the columns
]
# (stride, length, rclose, xs, ptr) of a regular level
HAND_REGULAR = [
    (1.0, 1.0, False, (0, 1, 2), None),  # [0, 1) touches [1, 2)
    (1.0, 1.0, True, (0, 1), None),  # [0, 1] and [1, 2] share 1
    (0.5, 0.0, True, (0, 0), None),  # one point twice
    (0.5, 0.0, True, (1, 0), None),
    (1.0, 2.0, False, (0, 3, 1), (0, 2, 3)),  # unsorted across a fiber start
    (1.0, 2.0, False, (3, 0), (0, 2)),
    (1e308, 1.0, False, (-1, 1), None),  # stops near the largest float
    (1e308, 1.0, True, (1, 2), None),  # 2e308 overflows to inf
    (1e308, 1e308, True, (1,), None),  # a stop that overflows to inf
]
VALUES = (-INF, -2.0, -1, -0.0, 0.0, 0, 0.5, 1, 1.0, 2.0, INF, NAN)


def drawn_columns(rng):
    """Columns of 1-3 fibers drawn from few values, so ends often tie;
    sorted within each fiber in most draws, so many levels are valid."""
    pool = VALUES if rng.random() < 0.3 else VALUES[1:-2]
    sizes = [rng.randint(0, 4) for _ in range(rng.randint(1, 3))]
    left, right = [], []
    for n in sizes:
        ends = [rng.choice(pool) for _ in range(2 * n)]
        if rng.random() < 0.8:
            ends.sort()
        left += ends[0::2]
        right += ends[1::2]
    def flags():
        return rng.random() < 0.5 if rng.random() < 0.3 else tuple(
            rng.random() < 0.5 for _ in left)
    return tuple(itertools.accumulate(sizes, initial=0)), tuple(left), tuple(right), flags(), flags()


def drawn_regular(rng):
    sizes = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
    xs = []
    for n in sizes:
        col = [rng.randint(-3, 3) for _ in range(n)]
        if rng.random() < 0.8:
            col.sort()
        xs += col
    ptr = tuple(itertools.accumulate(sizes, initial=0))
    return (rng.choice((0.5, 1.0, 1e308)), rng.choice((0.0, 0.5, 1.0, 2.0)),
            rng.random() < 0.5, tuple(xs), None if len(sizes) == 1 and rng.random() < 0.5 else ptr)


def tensor_of(level, n_fibers, n):
    """A tensor of the level under a dense rank of n_fibers (none for one)."""
    levels = (level,) if n_fibers == 1 else (DenseLevel(n_fibers), level)
    return ContTensor("t", levels, (1.0,) * n)


def json_of(level, n_fibers, n):
    levels = [level] if n_fibers == 1 else [{"kind": "dense", "size": n_fibers}, level]
    return {"name": "t", "fill": 0.0, "levels": levels, "values": [1.0] * n}


def ends(vals, flags, open_eps):
    flags = (flags,) * len(vals) if isinstance(flags, bool) else flags
    return tuple((v, EXACT if f else open_eps) for v, f in zip(vals, flags))


def level_builds(columns, regular):
    """(label, thunk) per way to store each level: directly as a
    SparseLevel, through its descriptor, and from JSON."""
    ptr, left, right, lclose, rclose = columns
    nf, n = len(ptr) - 1, ptr[-1]
    points = ends(left, True, ABOVE)
    # a direct pinpoint level whose last point is open: decode rejects it
    opened = points[:-1] + ((left[-1], ABOVE),) if left else points
    json_flags = [c if isinstance(c, bool) else list(c) for c in (lclose, rclose)]
    yield "direct interval", lambda: tensor_of(
        SparseLevel(ptr, ends(left, lclose, ABOVE), ends(right, rclose, BELOW)), nf, n)
    yield "descriptor interval", lambda: tensor_of(
        IntervalLevel(ptr, left, right, lclose, rclose), nf, n)
    yield "json interval", lambda: tensor_from_json(json_of(
        {"kind": "interval", "ptr": list(ptr), "left": list(left), "right": list(right),
         "lclose": json_flags[0], "rclose": json_flags[1]}, nf, n))
    yield "direct pinpoint", lambda: tensor_of(
        SparseLevel(ptr, points, points, pinpoint=True), nf, n)
    yield "direct pinpoint, an open end", lambda: tensor_of(
        SparseLevel(ptr, opened, opened, pinpoint=True), nf, n)
    yield "descriptor pinpoint", lambda: tensor_of(PinpointLevel(ptr, left), nf, n)
    yield "json pinpoint", lambda: tensor_from_json(json_of(
        {"kind": "pinpoint", "ptr": list(ptr), "crd": list(left)}, nf, n))
    stride, length, rc, xs, rptr = regular
    rnf, rn = (1, len(xs)) if rptr is None else (len(rptr) - 1, rptr[-1])
    yield "descriptor regular", lambda: tensor_of(
        RegularLevel(stride, length, rc, xs, rptr), rnf, rn)
    reg = {"kind": "regular", "stride": stride, "len": length, "rclose": rc, "xs": list(xs)}
    if rptr is not None:
        reg["ptr"] = list(rptr)
    yield "json regular", lambda: tensor_from_json(json_of(reg, rnf, rn))


def level_cases(draws=400):
    """(label, thunk) of every way to store the hand-built columns, then
    of as many seeded draws; tools/differential.py runs them too."""
    rng = random.Random(28)
    cases = list(zip(HAND_COLUMNS, itertools.cycle(HAND_REGULAR)))
    cases += [(drawn_columns(rng), drawn_regular(rng)) for _ in range(draws)]
    return [(f"case {i} {label}", build) for i, case in enumerate(cases)
            for label, build in level_builds(*case)]


def outcome(build):
    """The tensor's repr, or the class and message of the error raised."""
    try:
        return repr(build())
    except ValueError as err:  # StorageError and SchemaError
        return type(err).__name__, str(err)


def test_the_float_passes_decide_as_the_tuple_passes(monkeypatch):
    builds = level_cases()
    got = [outcome(build) for _, build in builds]
    monkeypatch.setattr(SparseLevel, "decode", tuple_decode)
    monkeypatch.setattr(SparseLevel, "checked", tuple_checked)
    want = [outcome(build) for _, build in builds]
    assert [label for (label, _), a, b in zip(builds, got, want) if a != b] == []
    # the draws reach every verdict: valid levels, some with an end opened
    # at infinity, and each fault the checks name
    shown = "\n".join(map(str, got))
    for text in ("ContTensor(", "inf, -1)", "-inf, 1)", "is empty", "holds no real number",
                 "out of order", "overlap", "NaN endpoint", "cannot store piece",
                 "ptr not monotone", "ptr must run"):
        assert text in shown, text


def test_interval_keys_as_endpoint_pairs_build_the_same_level():
    ivs = [Interval(Limit(0.5), Limit(1.0, -1)), Interval(Limit(1.0), Limit(2.0)),
           Interval(Limit(3.0, 1), Limit(4.0, -1))]
    pairs = [(tuple(iv.start), tuple(iv.stop)) for iv in ivs]
    by_iv = build_tensor("t", [("interval",)], [(iv, 1.0) for iv in ivs])
    by_pair = build_tensor("t", [("interval",)], [(k, 1.0) for k in pairs])
    assert by_pair == by_iv
    assert by_pair.levels[0].starts == tuple(pairs[i][0] for i in range(3))
    assert type(by_pair.levels[0].starts[0]) is tuple
    assert list(by_pair.pieces()) == [((iv,), 1.0) for iv in ivs]


@pytest.mark.parametrize("key", [
    Interval(Limit(1.0, -1), Limit(2.0)),
    ((1.0, 0), (2.0, 1)),
])
def test_an_end_an_interval_level_cannot_hold_is_rejected(key):
    with pytest.raises(InvalidPieceError, match="cannot store .* in an interval level"):
        build_tensor("t", [("interval",)], [(((0.0, 0), (0.5, 0)), 1.0), (key, 2.0)])


# --- a stored piece must hold a real number


@pytest.mark.parametrize("end", ["1e309", "-1e309"])  # JSON for inf and -inf
def test_a_piece_holding_no_real_number_is_rejected(end):
    x = float(end)
    message = f"level 0 fiber 0: piece at position 1 holds no real number ([{x}, {x}])"
    text = ('{"name": "A", "fill": 0.0, "values": [1.0, 5.0], "levels": [{"kind": "interval", '
            f'"ptr": [0, 2], "left": [0.0, {end}], "right": [1.0, {end}]}}]}}')
    with pytest.raises(SchemaError) as e:
        tensor_from_json(json.loads(text))
    assert str(e.value) == f"$: {message}"
    with pytest.raises(InvalidPieceError) as e:
        build_tensor("A", [("interval",)], [((0.0, 1.0), 1.0), ((x, x), 5.0)])
    assert str(e.value) == message
    with pytest.raises(InvalidPieceError) as e:
        ContTensor("A", (IntervalLevel(ptr=(0, 2), left=(0.0, x), right=(1.0, x)),), (1.0, 5.0))
    assert str(e.value) == message


def test_a_regular_piece_whose_start_overflows_is_rejected():
    x = 2 ** 1000  # stride * x is inf
    with pytest.raises(InvalidPieceError,
                       match="level 0 fiber 0: piece at position 1 holds no real number"):
        ContTensor("A", (RegularLevel(stride=1e10, length=1.0, rclose=True, xs=(0, x)),),
                   (1.0, 5.0))
    with pytest.raises(InvalidPieceError, match="level 0 fiber 0: piece at position 1 is empty"):
        build_tensor("A", [("regular", 1e10, 1.0, False)], [(0, 1.0), (x, 5.0)])
    obj = {"name": "A", "fill": 0.0, "values": [1.0, 5.0], "levels": [
        {"kind": "regular", "stride": 1e10, "len": 0.0, "rclose": True, "xs": [0, x]}]}
    with pytest.raises(SchemaError, match="position 1 holds no real number"):
        tensor_from_json(obj)


def test_a_piece_reaching_to_infinity_stays_legal():
    t = tensor_1d("A", [((-math.inf, 0.0, "open"), 2.0), ((1.0, math.inf), 5.0)])
    assert t.at(1e300) == 5.0 and t.at(-1e300) == 2.0 and t.at(0.5) == 0.0
    assert tensor_from_json(tensor_to_json(t)) == t


# --- a closed end at -inf or inf is stored as the open one


def test_a_closed_infinite_end_from_json_is_stored_and_saved_open():
    text = ('{"name": "A", "fill": 0.0, "values": [2.0, 5.0], "levels": [{"kind": "interval", '
            '"ptr": [0, 2], "left": [-1e309, 1.0], "right": [0.0, 1e309], '
            '"lclose": true, "rclose": true}]}')
    t = tensor_from_json(json.loads(text))
    lv = t.levels[0]
    assert lv.starts == ((-math.inf, 1), (1.0, 0)) and lv.stops == ((0.0, 0), (math.inf, -1))
    saved = tensor_to_json(t)["levels"][0]
    assert saved["lclose"] == [False, True] and saved["rclose"] == [True, False]
    assert tensor_from_json(tensor_to_json(t)) == t
    assert_round_trips(t)


@pytest.mark.parametrize("make", [
    lambda x: tensor_1d("A", [((0.0, 1.0), 1.0), ((x, x), 5.0)]),
    lambda x: ContTensor("A", (IntervalLevel(ptr=(0, 2), left=(0.0, x), right=(1.0, x)),),
                         (1.0, 5.0)),
    lambda x: ContTensor("A", (SparseLevel((0, 2), ((0.0, 0), (x, 0)), ((1.0, 0), (x, 0))),),
                         (1.0, 5.0)),
], ids=["build_tensor", "IntervalLevel", "SparseLevel"])
@pytest.mark.parametrize("x", [math.inf, -math.inf])
def test_a_closed_point_at_infinity_holds_no_real_number(make, x):
    # opened first, [inf, inf] would read as (inf, inf): "is empty"
    with pytest.raises(InvalidPieceError,
                       match=re.escape(f"piece at position 1 holds no real number ([{x}, {x}])")):
        make(x)


def test_at_reads_the_fill_at_an_end_given_closed_at_infinity():
    t = tensor_1d("A", [((-math.inf, 0.0), 2.0), ((1.0, math.inf), 5.0)], fill=-1.0)
    # no real number lies at -inf or inf: the pieces hold neither point
    assert t.at(-math.inf) == t.at(math.inf) == -1.0
    assert t.at(-1e308) == 2.0 and t.at(1e308) == 5.0
    assert [iv for iv, _ in t.fiber_entries(0, 0)] == [
        Interval(Limit(-math.inf, 1), Limit(0.0)), Interval(Limit(1.0), Limit(math.inf, -1))]


# --- save/load symmetry


def assert_round_trips(t):
    text = dumps_tensor(t)
    back = tensor_from_json(json.loads(text))
    assert back == t
    assert dumps_tensor(back) == text


def test_random_tensors_round_trip():
    rng = random.Random(71)
    for kind in KINDS * 30:
        assert_round_trips(random_tensor(rng, kind))


def test_kernel_fixtures_round_trip():
    # the trilinear fixture is the regular x regular x regular x dense 2 grid
    for k in KERNELS.values():
        for t in k.canonical().values():
            assert_round_trips(t)
    assert_round_trips(build_genomic_grid(random_genomic(random.Random(4))["Data"]))


def test_a_regular_level_given_float_xs_saves_int_xs():
    t = ContTensor("r", (RegularLevel(stride=1.0, length=1.0, rclose=False, xs=(0, 2.0)),),
                   (1.0, 2.0))
    assert tensor_to_json(t)["levels"][0]["xs"] == [0, 2]
    assert_round_trips(t)


def test_a_regular_level_with_a_start_off_its_stride_does_not_save():
    t = ContTensor("r", (SparseLevel((0, 1), ((0.3, 0),), ((0.3, 0),), pinpoint=True,
                                     regular=(0.5, 0.0, True)),), (1.0,))
    with pytest.raises(ValueError, match="start 0.3 is off stride 0.5"):
        tensor_to_json(t)


@pytest.mark.parametrize("level, message", [
    # a start just below 0 is no closed or open start: open means just above
    (SparseLevel((0, 1), ((0.0, -1),), ((1.0, 0),)),
     "level 0: cannot store piece 0 [0-eps, 1] in an interval level"),
    (SparseLevel((0, 2), ((0.0, 0), (2.0, 1)), ((1.0, -1), (3.0, 1))),
     "level 0: cannot store piece 1 [2+eps, 3+eps] in an interval level"),
    (SparseLevel((0, 1), ((0.5, 1),), ((0.5, 1),), pinpoint=True),
     "level 0: cannot store piece 0 [0.5+eps, 0.5+eps] in a pinpoint level"),
], ids=["interval_start", "interval_stop", "pinpoint"])
def test_an_end_no_level_can_hold_is_rejected_when_stored(level, message):
    with pytest.raises(InvalidPieceError, match=re.escape(message)):
        ContTensor("a", (level,), (1.0,) * level.ptr[-1])


@pytest.mark.parametrize("level, message", [
    (SparseLevel((0, 1), ((0.0, 1),), ((1.0, -1),), regular=(1.0, 1.0, False)),
     "regular level: piece 0 (0, 1) has a start its format cannot save"),
    (SparseLevel((0, 1), ((0.0, 0),), ((1.0, 0),), regular=(1.0, 1.0, False)),
     "regular level: piece 0 [0, 1] has a stop its format cannot save"),
])
def test_an_end_the_format_cannot_save_does_not_save(level, message):
    t = ContTensor("a", (level,), (1.0,) * level.ptr[-1])
    with pytest.raises(ValueError, match=re.escape(message)):
        tensor_to_json(t)


# --- a stored sparse level keeps only ptr, starts and stops per piece, and
# their value columns, which take no part in ==, repr or the hash


def stored_levels(t):
    return [lv for lv in t.levels if not isinstance(lv, DenseLevel)]


def test_a_stored_level_keeps_only_its_columns():
    tensors = [random_tensor(random.Random(9), kind) for kind in KINDS]
    tensors.append(tensor_from_json(tensor_to_json(fx())))
    for k in KERNELS.values():
        tensors.extend(k.canonical().values())
    tensors.append(build_genomic_grid(random_genomic(random.Random(4))["Data"]))
    for t in tensors:
        for lv in stored_levels(t):
            assert type(lv) is SparseLevel
            assert not hasattr(lv, "__dict__")
            assert [f.name for f in dataclasses.fields(lv)] == [
                "ptr", "starts", "stops", "pinpoint", "regular", "los", "his"]
            assert [f.name for f in dataclasses.fields(lv) if f.compare or f.repr] == [
                "ptr", "starts", "stops", "pinpoint", "regular"]
            assert isinstance(lv.pinpoint, bool)
            assert lv.regular is None or len(lv.regular) == 3


def value_column_tensors():
    """(label, tensor) of every way a level comes to be stored."""
    rng = random.Random(29)
    for kind in KINDS:
        t = random_tensor(rng, kind)
        yield f"descriptor {kind}", t
        yield f"json {kind}", tensor_from_json(tensor_to_json(t))
        yield f"direct {kind}", ContTensor("t", t.levels, t.values, t.fill)
    # a closed end at -inf or inf, stored open
    yield "opened", tensor_1d("A", [((-math.inf, 0.0), 2.0), ((1.0, math.inf), 5.0)])
    yield "opened json", tensor_from_json(json.loads(
        '{"name": "A", "fill": 0.0, "values": [2.0, 5.0], "levels": [{"kind": "interval", '
        '"ptr": [0, 2], "left": [-1e309, 1.0], "right": [0.0, 1e309]}]}'))
    yield "int ends", ContTensor("A", (SparseLevel((0, 2), ((1, 0), (3, 0)), ((2, 0), (4, 0))),),
                                 (5.0, 7.0))
    yield "grid", build_genomic_grid(random_genomic(random.Random(4))["Data"])
    A = tensor_1d("A", [((0.0, 2.0), 1.0), ((3.0, 5.0), 2.0)])
    B = tensor_1d("B", [((1.0, 4.0), 3.0)])
    for label, src in (("intersection", "Out[i] = A[i] * B[i]"), ("union", "Out[i] = A[i] + B[i]")):
        yield f"{label} output", run(compile_program(
            parse(f"for i = -inf:inf\n  {src}\nend\n"), {"A": A, "B": B})).output


VALUE_COLUMN_TENSORS = list(value_column_tensors())


@pytest.mark.parametrize("label, t", VALUE_COLUMN_TENSORS,
                         ids=[label for label, _ in VALUE_COLUMN_TENSORS])
def test_a_stored_level_keeps_its_value_columns_out_of_eq_and_repr(label, t):
    for lv in stored_levels(t):
        # each value the one its tuple holds, of its type and sign, and a
        # pinpoint level's column shared
        assert list(map(repr, lv.los)) == list(map(repr, map(_VAL, lv.starts)))
        assert list(map(repr, lv.his)) == list(map(repr, map(_VAL, lv.stops)))
        assert list(map(type, lv.los)) == list(map(type, map(_VAL, lv.starts)))
        assert list(map(type, lv.his)) == list(map(type, map(_VAL, lv.stops)))
        assert (lv.his is lv.los) is (lv.stops is lv.starts)
        # other columns, or none, make an equal level with the same repr
        bare = SparseLevel(lv.ptr, lv.starts, lv.stops, lv.pinpoint, lv.regular)
        zeros = [0.0] * len(lv.starts)
        wrong = dataclasses.replace(lv, los=zeros, his=zeros)
        assert bare == lv == wrong and hash(bare) == hash(lv) == hash(wrong)
        assert repr(bare) == repr(lv) == repr(wrong)
        assert "los" not in repr(lv) and "his" not in repr(lv)
        if len(lv.ptr) == 2:
            # a level given directly takes its value columns afresh
            (again,) = ContTensor("t", (wrong,), (1.0,) * len(lv.starts)).levels
            assert list(again.los) == list(lv.los) and list(again.his) == list(lv.his)


# --- pieces() walks the columns level by level, in the order of a depth-first walk


def walked(t, level=0, fiber=0, path=()):
    """(path, value) of every stored leaf, depth first, fiber by fiber."""
    if level == t.ndim:
        yield path, t.values[fiber]
        return
    lv = t.levels[level]
    if isinstance(lv, DenseLevel):
        for c in range(lv.size):
            yield from walked(t, level + 1, fiber * lv.size + c, path + (c,))
        return
    for p in range(lv.ptr[fiber], lv.ptr[fiber + 1]):
        iv = Interval(Limit(*lv.starts[p]), Limit(*lv.stops[p]))
        yield from walked(t, level + 1, p, path + (iv,))


def typed(pieces):
    """Each piece's element types, an Interval's with its ends'."""
    return [(tuple((type(c), *map(type, c)) if isinstance(c, Interval) else (type(c),)
                   for c in path), type(v)) for path, v in pieces]


def shipped_tensors():
    """Every shipped kernel's canonical and random inputs, and the outputs
    its plan makes of them that are tensors."""
    from contensor.compiler import compile_program
    from contensor.executor import run

    for k in KERNELS.values():
        program = k.program()
        for binds in [k.canonical(), *(k.random_instance(random.Random(s)) for s in range(30))]:
            yield from binds.values()
            out = run(compile_program(program, binds)).output
            if isinstance(out, ContTensor):
                yield out


def test_pieces_is_the_depth_first_walk_of_every_stored_leaf():
    dense_after_sparse = build_tensor("D", [("interval",), ("dense", 2), ("pinpoint",)], [
        ((0.0, 1.0), [[(0.5, 1.0)], []]), ((2.0, 3.0), [[], [(2.0, 2.0), (2.5, 3.0)]])])
    empty_fibers = build_tensor("E", [("dense", 3), ("pinpoint",), ("dense", 2)],
                                [[], [(1.0, [4.0, 5.0])], []])
    tensors = [
        *shipped_tensors(), dense_after_sparse, empty_fibers,
        ContTensor("s", (), (2.5,)), ContTensor("b", (), (False,), fill=False),
        build_tensor("DD", [("dense", 2), ("dense", 3)], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
        big_tensor(big_level("regular")), big_tensor(big_level("interval")),
        *(random_tensor(random.Random(s), kind) for s in range(5) for kind in KINDS),
    ]
    kinds = set()
    for t in tensors:
        got, want = list(t.pieces()), list(walked(t))
        assert got == want, t.name
        assert typed(got) == typed(want), t.name
        kinds.add(tuple("regular" if getattr(lv, "regular", None) else type(lv).__name__
                        for lv in t.levels))
    assert {(), ("SparseLevel", "DenseLevel", "SparseLevel"), ("regular",) * 3 + ("DenseLevel",),
            ("DenseLevel", "SparseLevel", "DenseLevel")} <= kinds
