import math
import random

import pytest
from hypothesis import example, given, strategies as st

from contensor.limits import (
    ABOVE,
    BELOW,
    EPS,
    EXACT,
    Limit,
    as_limit,
    lim_cmp,
)


def test_ordering_examples():
    assert Limit(3.0, BELOW) < Limit(3.0) < Limit(3.0, ABOVE)
    assert Limit(2.5, ABOVE) < Limit(3.0, BELOW)
    assert lim_cmp(Limit(2.0), 2.0) == 0
    assert lim_cmp(2.0, Limit(2.0, ABOVE)) == -1


def test_arithmetic_saturates():
    assert Limit(1.0, ABOVE) + Limit(2.0, ABOVE) == Limit(3.0, ABOVE)
    assert Limit(1.0, BELOW) + Limit(2.0, BELOW) == Limit(3.0, BELOW)
    assert Limit(1.0, ABOVE) + Limit(2.0, BELOW) == Limit(3.0, EXACT)
    assert Limit(5.0) - Limit(2.0, ABOVE) == Limit(3.0, BELOW)
    assert Limit(5.0) - 2 == Limit(3.0)
    assert 5 - Limit(2.0) == Limit(3.0)


def test_negation_flips_offset():
    assert -Limit(2.0, ABOVE) == Limit(-2.0, BELOW)
    assert -Limit(-1.5, BELOW) == Limit(1.5, ABOVE)


def test_successor_steps_through_offsets():
    x = Limit(4.0, BELOW)
    assert x + EPS == Limit(4.0, EXACT)
    assert x + EPS + EPS == Limit(4.0, ABOVE)
    # saturation: already above stays above
    assert Limit(4.0, ABOVE) + EPS == Limit(4.0, ABOVE)


def test_rendering():
    assert str(Limit(3.0)) == "3"
    assert str(Limit(3.0, ABOVE)) == "3+eps"
    assert str(Limit(4.1, BELOW)) == "4.1-eps"
    assert str(Limit(-math.inf)) == "-inf"
    # opposite infinities sum to a NaN val
    assert str(Limit(math.inf, -1) + Limit(-math.inf, -1)) == "nan-eps"


def test_nan_comparison_rejected():
    with pytest.raises(ValueError):
        lim_cmp(Limit(float("nan")), 1.0)


def test_no_multiplication():
    with pytest.raises(TypeError):
        Limit(2.0) * 3  # noqa: B018


def test_promotion_type_error():
    with pytest.raises(TypeError):
        as_limit("3")


limits = st.builds(
    Limit,
    st.floats(allow_nan=False, allow_infinity=True, width=64),
    st.sampled_from([-1, 0, 1]),
)


@given(limits, limits, limits)
def test_order_is_total_and_transitive(a, b, c):
    assert (lim_cmp(a, b) == 0) == (a == b)
    assert lim_cmp(a, b) == -lim_cmp(b, a)
    if lim_cmp(a, b) <= 0 and lim_cmp(b, c) <= 0:
        assert lim_cmp(a, c) <= 0


@given(limits, limits)
@example(Limit(math.inf, -1), Limit(-math.inf, -1))
def test_addition_commutes(a, b):
    # opposite infinities sum to a NaN val, which == never matches
    s, t = a + b, b + a
    assert s == t or (s.val != s.val and t.val != t.val and s.eps == t.eps)


def test_bulk_random_order_agrees_with_tuple_order():
    rng = random.Random(7)
    for _ in range(2000):
        a = Limit(rng.randint(-5, 5) / 2, rng.choice([-1, 0, 1]))
        b = Limit(rng.randint(-5, 5) / 2, rng.choice([-1, 0, 1]))
        want = (a.val, a.eps) < (b.val, b.eps)
        assert (a < b) == want
        assert (lim_cmp(a, b) < 0) == want
