"""Cross-checks between the compiled path and the region-splitting oracle.

The oracle never lowers anything, so agreement here is evidence the
rewrite pipeline preserves meaning, not just that two copies of the same
code agree.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from contensor.compiler import compile_program
from contensor.executor import run
from contensor.intervals import Interval
from contensor.lang import parse
from contensor.oracle import (
    OracleError,
    evaluate,
    intersecting_nonzero_pairs,
    outputs_match,
    riemann,
)
from contensor.storage import OverlapError, build_tensor, tensor_1d

DOT_INTEGRAL = """
for i = -inf:inf
  s += A[i] * B[i] * d(i)
end
"""

COPY = """
for x = -inf:inf
  Out[x] = A[x]
end
"""


def both(src, binds):
    ex = run(compile_program(parse(src), binds)).output
    orc = evaluate(parse(src), binds)
    return ex, orc


def test_dot_integral_agrees_exactly():
    A = tensor_1d("A", [((1.0, 3.0), 1.0), ((4.1, 5.1), 2.0)], 0.0, kind="interval")
    B = tensor_1d("B", [((2.0, 5.1), 1.5)], 0.0, kind="interval")
    ex, orc = both(DOT_INTEGRAL, {"A": A, "B": B})
    assert outputs_match(ex, orc, rel=1e-9)
    assert math.isclose(orc, 4.5, rel_tol=1e-12)


def test_empty_inputs_give_fill_scalar():
    A = build_tensor("A", [("interval",)], [], fill=0.0)
    B = build_tensor("B", [("interval",)], [], fill=0.0)
    ex, orc = both(DOT_INTEGRAL, {"A": A, "B": B})
    assert ex == orc == 0.0


def test_shifted_indices_agree():
    # pin coordinates reconstruct as (stored - shift) + shift; the oracle
    # has to tolerate the ulp drift that round trip picks up
    pts = {1.0: [(3.0, 1.0)], 2.5: [(4.5, 1.0)], 3.0: [(3.0, 1.0)], 6.0: [(1.0, 1.0)]}
    A = build_tensor("A", [("pinpoint",), ("pinpoint",)],
                     [(x, ys) for x, ys in sorted(pts.items())], fill=0.0)
    src = """
for dx = -1.7:1.7
  for dy = -1.7:1.7
    if dx*dx + dy*dy <= 2.89
      count += A[2.2 + dx, 3.9 + dy]
    end
  end
end
"""
    ex, orc = both(src, {"A": A})
    assert ex == orc == 3.0


def test_copy_preserves_piece_flavours():
    A = build_tensor("A", [("interval",)],
                     [((0.0, 1.0, "right_open"), 2.0), (1.5, 5.0),
                      ((2.0, 3.0, "left_open"), 7.0)], fill=0.0)
    ex, orc = both(COPY, {"A": A})
    assert outputs_match(ex, orc)
    assert list(orc.pieces()) == [
        ((Interval.right_open(0.0, 1.0),), 2.0),
        ((Interval.pinpoint(1.5),), 5.0),
        ((Interval.left_open(2.0, 3.0),), 7.0),
    ]


def test_oracle_merges_adjacent_equal_pieces_like_executor():
    Q = tensor_1d("Q", [((0.0, 1.0), True), ((1.0, 2.0, "left_open"), True)],
                  False, kind="interval")
    D = tensor_1d("D", [((0.0, 2.0), True)], False, kind="interval")
    ex, orc = both("""
for x = -inf:inf
  Out[x] |= Q[x] && D[x]
end
""", {"Q": Q, "D": D})
    assert outputs_match(ex, orc)
    assert list(orc.pieces()) == [((Interval.closed(0.0, 2.0),), True)]


def test_oracle_faults_on_doubly_assigned_cell():
    Q = tensor_1d("Q", [(1.0, 1.0)], 0.0, kind="pinpoint")
    A = tensor_1d("A", [(0.0, 1.0), (5.0, 2.0)], 0.0, kind="pinpoint")
    src = """
for id = -inf:inf
  for jd = -inf:inf
    Out[id] = Q[id] * A[jd]
  end
end
"""
    with pytest.raises(OverlapError):
        evaluate(parse(src), {"Q": Q, "A": A})


def test_divergent_sum_refused():
    A = tensor_1d("A", [((0.0, 4.0), 5.0)], 0.0, kind="interval")
    B = tensor_1d("B", [((0.0, 2.0), 1.0), (3.0, 4.0)], 0.0, kind="interval")
    src = """
for i = -inf:inf
  s += A[i] * B[i]
end
"""
    with pytest.raises(OracleError, match="diverges"):
        evaluate(parse(src), {"A": A, "B": B})


def test_dif_outside_a_sum_is_rejected():
    A = tensor_1d("A", [((0.0, 1.0), 1.0)], 0.0, kind="interval")
    with pytest.raises(OracleError):
        evaluate(parse("""
for i = -inf:inf
  Out[i] = A[i] * d(i)
end
"""), {"A": A})


def test_condition_varying_across_a_writing_region_faults():
    A = tensor_1d("A", [((0.0, 2.0), 5.0)], 0.0, kind="interval")
    src = """
for i = -inf:inf
  if i <= 1.5
    Out[i] = A[i]
  end
end
"""
    with pytest.raises(OracleError, match="varies"):
        evaluate(parse(src), {"A": A})


def test_outputs_match_distinguishes_shapes():
    A = tensor_1d("A", [((0.0, 1.0), 2.0)], 0.0, kind="interval")
    t = evaluate(parse(COPY), {"A": A})
    assert not outputs_match(t, 2.0)
    assert not outputs_match(2.0, t)
    assert outputs_match(2.0, 2.0 + 1e-12, rel=1e-9)
    assert not outputs_match(2.0, 2.0 + 1e-12)
    # booleans stay exact even under slack
    assert not outputs_match(True, False, rel=0.5)


def test_intersecting_pairs_counts_executor_multiplies():
    A = tensor_1d("A", [((1.0, 3.0), 1.0), ((4.1, 5.1), 2.0)], 0.0, kind="interval")
    B = tensor_1d("B", [((2.0, 5.1), 1.5)], 0.0, kind="interval")
    res = run(compile_program(parse(DOT_INTEGRAL), {"A": A, "B": B}))
    assert intersecting_nonzero_pairs(A, B) == 2 == res.stats.multiplies
    far = tensor_1d("B", [((9.0, 10.0), 1.5)], 0.0, kind="interval")
    assert intersecting_nonzero_pairs(A, far) == 0


def test_riemann_midpoint_approaches_the_oracle():
    A = tensor_1d("A", [((1.0, 3.0), 1.0), ((4.1, 5.1), 2.0)], 0.0, kind="interval")
    B = tensor_1d("B", [((2.0, 5.1), 1.5)], 0.0, kind="interval")
    src = """
for i = 0.0:6.0
  s += A[i] * B[i] * d(i)
end
"""
    exact = evaluate(parse(src), {"A": A, "B": B})
    # midpoint error comes only from cells straddling a breakpoint, so it
    # shrinks linearly with the step
    assert abs(riemann(parse(src), {"A": A, "B": B}, 0.003) - exact) < 0.05
    assert abs(riemann(parse(src), {"A": A, "B": B}, 0.0003) - exact) < 0.005


def test_riemann_needs_finite_bounds():
    A = tensor_1d("A", [((0.0, 1.0), 1.0)], 0.0, kind="interval")
    with pytest.raises(OracleError, match="finite"):
        riemann(parse(DOT_INTEGRAL), {"A": A, "B": A}, 0.1)


# random instances live on a 0.05 grid so endpoints hit float values the
# executor also lands on exactly

def _ivals(draw, lo=-40, hi=40, max_pieces=4):
    n = draw(st.integers(0, max_pieces))
    cuts = draw(st.lists(st.integers(lo, hi), min_size=2 * n, max_size=2 * n,
                         unique=True).map(sorted))
    vals = draw(st.lists(st.sampled_from([1.0, 2.0, -1.5, 0.5, 3.0]),
                         min_size=n, max_size=n))
    return [((cuts[2 * j] * 0.05, cuts[2 * j + 1] * 0.05), vals[j])
            for j in range(n)]


@st.composite
def interval_tensor(draw, name):
    return tensor_1d(name, _ivals(draw), 0.0, kind="interval")


@st.composite
def pinpoint_tensor(draw, name):
    n = draw(st.integers(0, 6))
    crds = draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n,
                         unique=True).map(sorted))
    vals = draw(st.lists(st.sampled_from([1.0, 2.0, -1.0, 4.0]),
                         min_size=n, max_size=n))
    return tensor_1d(name, [(c * 0.05, v) for c, v in zip(crds, vals)],
                     0.0, kind="pinpoint")


@settings(max_examples=40, deadline=None)
@given(interval_tensor("A"), interval_tensor("B"))
def test_random_dot_integrals_agree(A, B):
    ex, orc = both(DOT_INTEGRAL, {"A": A, "B": B})
    assert outputs_match(ex, orc, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(interval_tensor("A"))
def test_random_copies_agree(A):
    ex, orc = both(COPY, {"A": A})
    assert outputs_match(ex, orc)


@settings(max_examples=40, deadline=None)
@given(pinpoint_tensor("P"), pinpoint_tensor("Q"))
def test_random_dot_sums_agree(P, Q):
    ex, orc = both("""
for i = -inf:inf
  s += P[i] * Q[i]
end
""", {"P": P, "Q": Q})
    assert outputs_match(ex, orc)


@settings(max_examples=30, deadline=None)
@given(interval_tensor("A"), interval_tensor("B"))
def test_random_piecewise_sums_agree(A, B):
    ex, orc = both("""
for x = -inf:inf
  Out[x] = A[x] + B[x]
end
""", {"A": A, "B": B})
    assert outputs_match(ex, orc, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(pinpoint_tensor("Mask"), interval_tensor("A"), interval_tensor("B"))
def test_random_masked_convolutions_agree(Mask, A, B):
    ex, orc = both("""
for i = -inf:inf
  if Mask[i] != 0.0
    for j = -inf:inf
      Out[i] += A[i + j] * B[j] * d(j)
    end
  end
end
""", {"Mask": Mask, "A": A, "B": B})
    assert outputs_match(ex, orc, rel=1e-9)


@st.composite
def mixed_tensor(draw, name):
    """Intervals and zero-width pins interleaved on the same rank."""
    cuts = draw(st.lists(st.integers(-40, 40), min_size=0, max_size=10,
                         unique=True).map(sorted))
    keys = []
    i = 0
    while i < len(cuts):
        if i + 1 < len(cuts) and draw(st.booleans()):
            keys.append((cuts[i] * 0.05, cuts[i + 1] * 0.05))
            i += 2
        else:
            keys.append(cuts[i] * 0.05)
            i += 1
    vals = draw(st.lists(st.sampled_from([1.0, 2.0, -1.5, 3.0]),
                         min_size=len(keys), max_size=len(keys)))
    return tensor_1d(name, list(zip(keys, vals)), 0.0, kind="interval")


@settings(max_examples=40, deadline=None)
@given(mixed_tensor("A"), mixed_tensor("B"))
def test_random_guarded_sums_agree(A, B):
    # an integral over intervals and points interleaved on one rank: the
    # points weigh nothing, the intervals their length
    ex, orc = both(DOT_INTEGRAL, {"A": A, "B": B})
    assert outputs_match(ex, orc, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(interval_tensor("A"))
def test_random_max_reductions_agree(A):
    ex, orc = both("""
for i = -inf:inf
  m max= A[i]
end
""", {"A": A})
    assert outputs_match(ex, orc)
