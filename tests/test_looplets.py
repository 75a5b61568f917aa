"""The looplet walk over one fiber of a sparse level.

A compiled loop walks a fiber as a sequence of two phases: a stepper over
the stored pieces up to the fiber's last stop (a fill gap before each piece
whose start is not reached yet), then a fill run to +inf. ``looplet_walk``
below performs that walk straight from the stored level's columns,
which hold plain ``(val, eps)`` tuples, so it wraps each end in a ``Limit``
before stepping by ``EPS``; these tests check it against ``fiber_cover``
and ``at``.
"""

import math
import random

from contensor.intervals import Interval
from contensor.limits import EPS, Limit
from contensor.storage import FILL, build_tensor, tensor_1d


def looplet_walk(t, level, f):
    """(Interval, payload) regions of fiber f, phase by phase."""
    table = t.levels[level]
    out = []
    cursor = Limit(-math.inf)
    stop = Limit(*table.last_stop(f))
    if not Interval(cursor, stop).is_empty:
        for p in range(table.seek(f, cursor), table.span(f)[1]):
            gap_stop = Limit(*table.starts[p]) - EPS
            if not Interval(cursor, gap_stop).is_empty:
                out.append((Interval(cursor, gap_stop), FILL))
                cursor = gap_stop + EPS
            out.append((Interval(cursor, Limit(*table.stops[p])), p))
            cursor = Limit(*table.stops[p]) + EPS
        assert cursor == stop + EPS, "stepper did not consume its phase range"
    tail = Interval(cursor, Limit(math.inf))
    if not tail.is_empty:
        out.append((tail, FILL))
    return out


def fx():
    return tensor_1d("x", [((1.0, 3.0), 1.0), ((4.1, 5.1), 2.0)], kind="interval")


def random_interval_fiber(rng, max_pieces=6):
    kinds = ["closed", "right_open", "left_open", "open"]
    out = []
    cursor = rng.randint(-40, 0) / 4
    for _ in range(rng.randint(0, max_pieces)):
        a = cursor + rng.randint(1, 8) / 4
        b = a + rng.randint(0, 8) / 4
        kind = rng.choice(kinds) if b > a else "closed"
        out.append(((a, b, kind), rng.randint(1, 9) * 1.0))
        cursor = b
    return out


def test_walk_matches_cover_on_fixture():
    t = fx()
    assert looplet_walk(t, 0, 0) == t.fiber_cover(0, 0)


def test_walk_empty_fiber_is_one_full_gap():
    t = tensor_1d("e", [], kind="interval")
    assert looplet_walk(t, 0, 0) == [(Interval.full(), FILL)]
    assert t.levels[0].last_stop(0) == Limit(-math.inf, -1)


def test_last_stop_value():
    t = fx()
    assert t.levels[0].last_stop(0) == Limit(5.1)
    u = tensor_1d("u", [((0.0, 2.0, "right_open"), 1.0)], kind="interval")
    assert u.levels[0].last_stop(0) == Limit(2.0, -1)


def test_walk_matches_cover_randomized():
    rng = random.Random(11)
    for _ in range(200):
        t = tensor_1d("t", random_interval_fiber(rng), kind="interval")
        assert looplet_walk(t, 0, 0) == t.fiber_cover(0, 0)


def test_walk_matches_cover_pinpoint_and_regular():
    rng = random.Random(12)
    for _ in range(100):
        crds = sorted({rng.randint(-20, 20) / 2 for _ in range(rng.randint(0, 6))})
        tp = tensor_1d("p", [(c, 1.0) for c in crds])
        assert looplet_walk(tp, 0, 0) == tp.fiber_cover(0, 0)

        xs = sorted({rng.randint(-10, 10) for _ in range(rng.randint(0, 5))})
        length = rng.choice([0.0, 0.25, 0.5])
        tr = build_tensor(
            "r", [("regular", 0.5, length, length == 0.0)], [(x, 1.0) for x in xs]
        )
        assert looplet_walk(tr, 0, 0) == tr.fiber_cover(0, 0)


def test_walk_tiles_line_and_alternates():
    rng = random.Random(13)
    for _ in range(100):
        t = tensor_1d("t", random_interval_fiber(rng), kind="interval")
        walk = looplet_walk(t, 0, 0)
        assert walk[0][0].start == Limit(-math.inf)
        assert walk[-1][0].stop == Limit(math.inf)
        for (a, _), (b, _) in zip(walk, walk[1:]):
            assert b.start == a.stop + EPS
        # payloads: gaps never adjacent to gaps
        for (_, pa), (_, pb) in zip(walk, walk[1:]):
            assert not (pa is FILL and pb is FILL)


def test_walk_evaluates_like_at():
    rng = random.Random(14)
    for _ in range(50):
        t = tensor_1d("t", random_interval_fiber(rng), kind="interval")
        walk = looplet_walk(t, 0, 0)
        for _ in range(40):
            x = rng.randint(-60, 60) / 4
            val = next(
                (t.fill if p is FILL else t.values[p])
                for iv, p in walk
                if iv.contains(Limit(x))
            )
            assert val == t.at(x)


def test_walk_second_level_fibers():
    t = build_tensor(
        "g",
        [("dense", 2), ("interval",)],
        [[((0.0, 1.0), 5.0)], []],
    )
    w0 = looplet_walk(t, 1, 0)
    assert w0 == t.fiber_cover(1, 0)
    assert [p for _, p in w0 if p is not FILL] == [0]
    assert looplet_walk(t, 1, 1) == [(Interval.full(), FILL)]
