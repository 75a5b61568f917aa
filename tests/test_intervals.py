import random

from contensor.intervals import Interval
from contensor.limits import ABOVE, BELOW, Limit


def test_endpoint_encodings():
    assert Interval.closed(1, 3) == Interval(Limit(1.0), Limit(3.0))
    assert Interval.right_open(1, 3) == Interval(Limit(1.0), Limit(3.0, BELOW))
    assert Interval.left_open(1, 3) == Interval(Limit(1.0, ABOVE), Limit(3.0))
    assert Interval.open(1, 3) == Interval(Limit(1.0, ABOVE), Limit(3.0, BELOW))
    assert Interval.pinpoint(2) == Interval.closed(2, 2)
    assert Interval.from_kind(1, 3, "right_open") == Interval.right_open(1, 3)


def test_membership_honors_eps():
    iv = Interval.right_open(1, 3)
    assert iv.contains(1.0)
    assert iv.contains(2.999)
    assert not iv.contains(3.0)
    assert iv.contains(Limit(3.0, BELOW))
    assert Interval.pinpoint(2).contains(2.0)
    assert not Interval.pinpoint(2).contains(Limit(2.0, ABOVE))


def test_empty_iff_start_exceeds_stop():
    assert Interval.open(1, 1).is_empty
    assert not Interval.pinpoint(1).is_empty
    assert not Interval.closed(1, 1).is_empty
    assert Interval.closed(2, 1).is_empty


def test_intersection():
    a = Interval.closed(1, 5)
    b = Interval.right_open(3, 7)
    assert a.intersect(b) == Interval.closed(3, 5)
    assert b.intersect(a) == a.intersect(b)
    c = Interval.closed(6, 9)
    assert a.intersect(c).is_empty
    # touching closed/open endpoints meet in a pinpoint or nothing
    assert Interval.closed(0, 3).intersect(Interval.closed(3, 9)) == Interval.pinpoint(3)
    assert Interval.right_open(0, 3).intersect(Interval.closed(3, 9)).is_empty


def test_render():
    assert str(Interval.closed(1, 3)) == "[1, 3]"
    assert str(Interval.right_open(1, 3)) == "[1, 3)"
    assert str(Interval.left_open(1, 3)) == "(1, 3]"
    assert str(Interval.open(1, 3)) == "(1, 3)"


def test_intersection_membership_randomized():
    rng = random.Random(11)
    ks = ["closed", "right_open", "left_open", "open"]
    for _ in range(3000):
        a1, a2 = sorted((rng.randint(-6, 6), rng.randint(-6, 6)))
        b1, b2 = sorted((rng.randint(-6, 6), rng.randint(-6, 6)))
        ia = Interval.from_kind(a1, a2, rng.choice(ks))
        ib = Interval.from_kind(b1, b2, rng.choice(ks))
        both = ia.intersect(ib)
        x = Limit(rng.randint(-7, 7) * 1.0, rng.choice([-1, 0, 1]))
        assert both.contains(x) == (ia.contains(x) and ib.contains(x))
