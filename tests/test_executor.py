import gc
import math
import random
import re
import weakref

import pytest

from contensor import executor, kernels, oracle
from contensor.compiler import compile_program
from contensor.executor import ExecError, ExecStats, kernel_source, run
from contensor.intervals import Interval
from contensor.ir import (
    Block, BoolC, EndRef, IntersectLet, IvStart, LetScalar, LimC, Num, OutputDecl, Pin, Plan,
    Probe, PRoot, PVar, Write, pretty,
)
from contensor.lang import parse
from contensor.limits import Limit
from contensor.storage import ContTensor, OverlapError, SparseLevel, build_tensor, tensor_1d


def compile_run(src, bindings):
    return run(compile_program(parse(src), bindings))


DOT_INTEGRAL = """
for i = -inf:inf
  s += A[i] * B[i] * d(i)
end
"""


def test_dot_integral_fixture():
    A = tensor_1d("A", [((1.0, 3.0), 1.0), ((4.1, 5.1), 2.0)], 0.0, kind="interval")
    B = tensor_1d("B", [((2.0, 5.1), 1.0)], 0.0, kind="interval")
    res = compile_run(DOT_INTEGRAL, {"A": A, "B": B})
    assert res.output == pytest.approx(3.0)
    assert res.stats.multiplies == 2


def test_dot_integral_disjoint_runs_no_multiplies():
    A = tensor_1d("A", [((0.0, 1.0), 3.0)], 0.0, kind="interval")
    B = tensor_1d("B", [((2.0, 4.0), 2.0)], 0.0, kind="interval")
    res = compile_run(DOT_INTEGRAL, {"A": A, "B": B})
    assert res.output == 0.0
    assert res.stats.multiplies == 0


def test_dot_sum_fixture_is_44():
    A = tensor_1d("A", [(3.0, 2.0), (5.1, 8.0)], 0.0)
    B = tensor_1d("B", [(3.0, 2.0), (4.0, 7.0), (5.1, 5.0)], 0.0)
    res = compile_run("""
for i = -inf:inf
  s += A[i] * B[i]
end
""", {"A": A, "B": B})
    assert res.output == 44.0


def test_segments_bounded_by_entry_counts():
    import random

    rng = random.Random(7)
    for _ in range(50):
        def vec(name):
            xs = sorted(rng.sample(range(40), rng.randint(0, 6)))
            pieces = []
            while len(xs) >= 2:
                a, b = xs.pop(0), xs.pop(0)
                pieces.append(((float(a), float(b)), float(rng.randint(1, 5))))
            return tensor_1d(name, pieces, 0.0, kind="interval"), len(pieces)

        A, na = vec("A")
        B, nb = vec("B")
        res = compile_run(DOT_INTEGRAL, {"A": A, "B": B})
        # each segment ends at a distinct stop, and the larger last stop is
        # past the range
        assert res.stats.segments_visited <= max(0, na + nb - 1)


def test_copy_kernel_reproduces_pieces():
    A = tensor_1d("A", [((1.0, 2.0), 5.0), ((3.0, 4.0, "left_open"), 7.0)], 0.0,
                  kind="interval")
    res = compile_run("""
for x = -inf:inf
  Out[x] = A[x]
end
""", {"A": A})
    assert list(res.output.pieces()) == [
        ((Interval.closed(1.0, 2.0),), 5.0),
        ((Interval.left_open(3.0, 4.0),), 7.0),
    ]


def test_adjacent_equal_pieces_merge():
    Q = tensor_1d("Q", [((0.0, 1.0), True), ((1.0, 2.0, "left_open"), True)],
                  False, kind="interval")
    D = tensor_1d("D", [((0.0, 2.0), True)], False, kind="interval")
    res = compile_run("""
for x = -inf:inf
  Out[x] |= Q[x] && D[x]
end
""", {"Q": Q, "D": D})
    assert list(res.output.pieces()) == [((Interval.closed(0.0, 2.0),), True)]


def test_piecewise_sum_partitions_overlap():
    A = tensor_1d("A", [((0.0, 2.0), 1.0)], 0.0, kind="interval")
    B = tensor_1d("B", [((1.0, 3.0), 2.0)], 0.0, kind="interval")
    # co-iteration splits [0,2] and [1,3] into three disjoint segments
    res = compile_run("""
for x = -inf:inf
  Out[x] = A[x] + B[x]
end
""", {"A": A, "B": B})
    assert list(res.output.pieces()) == [
        ((Interval.right_open(0.0, 1.0),), 1.0),
        ((Interval.closed(1.0, 2.0),), 3.0),
        ((Interval.left_open(2.0, 3.0),), 2.0),
    ]


def test_single_assignment_to_same_cell_faults():
    Q = tensor_1d("Q", [(1.0, 1.0)], 0.0)
    A = tensor_1d("A", [(0.0, 1.0), (5.0, 2.0)], 0.0)
    # both stored points of A write Out at the same pinned id
    with pytest.raises(OverlapError):
        compile_run("""
for id = -inf:inf
  for jd = -inf:inf
    Out[id] = Q[id] * A[jd]
  end
end
""", {"Q": Q, "A": A})


def test_masked_conv_point_values():
    Mask = tensor_1d("Mask", [(0.5, True), (2.0, True)], False)
    A = tensor_1d("A", [((1.0, 3.0), 2.0)], 0.0, kind="interval")
    B = tensor_1d("B", [((0.0, 1.0), 1.0)], 0.0, kind="interval")
    res = compile_run("""
for i = -inf:inf
  if Mask[i]
    for j = -inf:inf
      Z[i] += A[i + j] * B[j] * d(j)
    end
  end
end
""", {"Mask": Mask, "A": A, "B": B})
    assert list(res.output.pieces()) == [
        ((Interval.pinpoint(0.5),), 1.0),
        ((Interval.pinpoint(2.0),), 2.0),
    ]


def test_radius_count_fixture():
    pts = {1.0: [(3.0, 1.0)], 2.5: [(4.5, 1.0)], 3.0: [(3.0, 1.0)], 6.0: [(1.0, 1.0)]}
    A = build_tensor("A", [("pinpoint",), ("pinpoint",)],
                     [(x, ys) for x, ys in sorted(pts.items())], fill=0.0)
    res = compile_run("""
for dx = -1.7:1.7
  for dy = -1.7:1.7
    if dx*dx + dy*dy <= 2.89
      count += A[2.2 + dx, 3.9 + dy]
    end
  end
end
""", {"A": A})
    assert res.output == 3.0


def test_box_search_hits_inside_points():
    N = 4
    pts = [(1.0, 2.0, 0), (2.5, 3.5, 1), (6.0, 1.0, 2), (2.6, 3.4, 3)]
    root = []
    for x, y, pid in sorted(pts):
        vals = [False] * N
        vals[pid] = True
        root.append((x, [(y, vals)]))
    Points = build_tensor("Points", [("pinpoint",), ("pinpoint",), ("dense", N)],
                          root, fill=False)
    Box = build_tensor("Box", [("interval",), ("interval",)],
                       [((2.0, 4.0), [((3.0, 4.0), True)])], fill=False)
    res = compile_run("""
for x = -inf:inf
  for y = -inf:inf
    for id = 0:3
      Out[id] |= Box[x, y] && Points[x, y, id]
    end
  end
end
""", {"Box": Box, "Points": Points})
    got = [False] * N
    for (i,), v in res.output.pieces():
        got[i] = v
    assert got == [False, True, False, True]


def test_trilinear_all_ones_partition_of_unity():
    C = 2
    root = []
    for xc in range(3):
        ys = []
        for yc in range(3):
            ys.append((yc, [(zc, [1.0] * C) for zc in range(3)]))
        root.append((xc, ys))
    Grid = build_tensor(
        "Grid",
        [("regular", 1.0, 1.0, False), ("regular", 1.0, 1.0, False),
         ("regular", 1.0, 1.0, False), ("dense", C)], root, fill=0.0)
    res = compile_run("""
for t = 0:1
  let x = 0.3 + 0.9*t
  let y = 0.2 + 0.75*t
  let z = 0.1 + 0.6*t
  for i = 0.0:1.0
    for j = 0.0:1.0
      for k = 0.0:1.0
        for c = 0:1
          Out[t, c] += Grid[x + i, y + j, z + k, c] * d(i) * d(j) * d(k)
        end
      end
    end
  end
end
""", {"Grid": Grid})
    assert all(v == 1.0 for v in res.output.values)


def test_scalar_output_defaults_to_fill_on_empty_input():
    A = build_tensor("A", [("interval",)], [], fill=0.0)
    B = build_tensor("B", [("interval",)], [], fill=0.0)
    res = compile_run(DOT_INTEGRAL, {"A": A, "B": B})
    assert res.output == 0.0
    assert res.stats.segments_visited == 0


def test_nan_output_is_diagnosed():
    A = tensor_1d("A", [((0.0, 1.0), math.inf)], 0.0, kind="interval")
    # an explicitly stored 0.0 is legal; inf * 0.0 is where NaN sneaks in
    B = tensor_1d("B", [((0.0, 1.0), 0.0)], 0.0, kind="interval")
    res = compile_run(DOT_INTEGRAL, {"A": A, "B": B})
    assert math.isnan(res.output)
    assert any("NaN" in d for d in res.diagnostics)


def test_max_reduction_over_regions():
    A = tensor_1d("A", [((0.0, 1.0), 2.0), ((2.0, 3.0), 7.0)], 0.0, kind="interval")
    res = compile_run("""
for i = -inf:inf
  m max= A[i]
end
""", {"A": A})
    assert res.output == 7.0


def test_genomic_overlap_matches_worked_layout():
    NCHR = 2

    def chr_fibers(per_chr):
        return [per_chr.get(c, []) for c in range(NCHR)]

    Query = build_tensor("Query", [("dense", NCHR), ("pinpoint",), ("interval",)],
        chr_fibers({1: [(1.0, [((0.0, 2.0), True)]),
                        (2.0, [((4.0, 7.0), True)])]}), fill=False)
    Data = build_tensor("Data", [("dense", NCHR), ("pinpoint",), ("interval",)],
        chr_fibers({1: [(1.0, [((0.5, 1.5), True)]),
                        (2.0, [((2.0, 3.0), True)]),
                        (3.0, [((3.5, 5.0), True)]),
                        (4.0, [((6.0, 7.5), True)]),
                        (5.0, [((7.6, 8.0), True)])]}), fill=False)
    Grid = build_tensor("Grid", [("dense", NCHR), ("interval",), ("pinpoint",)],
        chr_fibers({1: [((0.0, 4.0, "right_open"),
                         [(1.0, True), (2.0, True), (3.0, True)]),
                        ((4.0, 8.0, "right_open"),
                         [(3.0, True), (4.0, True), (5.0, True)])]}), fill=False)

    naive = compile_run("""
for chr = 0:1
  for id = -inf:inf
    for jd = -inf:inf
      for x = -inf:inf
        Overlap[chr, id] |= Query[chr, id, x] && Data[chr, jd, x]
      end
    end
  end
end
""", {"Query": Query, "Data": Data})
    grid = compile_run("""
for chr = 0:1
  for id = -inf:inf
    for x1 = -inf:inf
      for jd = -inf:inf
        if Query[chr, id, x1] && Grid[chr, x1, jd]
          for x2 = -inf:inf
            Overlap[chr, id] |= Query[chr, id, x2] && Data[chr, jd, x2]
          end
        end
      end
    end
  end
end
""", {"Query": Query, "Data": Data, "Grid": Grid})
    assert list(naive.output.pieces()) == list(grid.output.pieces())
    # the join form shows query 2 ([4,7]) hitting data ids 3 and 4 only
    join = compile_run("""
for chr = 0:1
  for id = -inf:inf
    for jd = -inf:inf
      for x = -inf:inf
        Join[chr, id, jd] |= Query[chr, id, x] && Data[chr, jd, x]
      end
    end
  end
end
""", {"Query": Query, "Data": Data})
    hits = {(path[1].start.val, path[2].start.val) for path, _ in join.output.pieces()}
    assert {(jd) for (q, jd) in hits if q == 2.0} == {3.0, 4.0}


def test_interval_output_carries_intersections():
    NCHR = 1
    Query = build_tensor("Query", [("dense", NCHR), ("pinpoint",), ("interval",)],
        [[(1.0, [((0.0, 5.0), True)])]], fill=False)
    Data = build_tensor("Data", [("dense", NCHR), ("pinpoint",), ("interval",)],
        [[(1.0, [((1.0, 2.0), True)]), (2.0, [((4.0, 6.0), True)])]], fill=False)
    res = compile_run("""
for chr = 0:0
  for id = -inf:inf
    for jd = -inf:inf
      for x = -inf:inf
        Intersect[chr, id, jd, x] |= Query[chr, id, x] && Data[chr, jd, x]
      end
    end
  end
end
""", {"Query": Query, "Data": Data})
    got = [(p[3], v) for p, v in res.output.pieces()]
    assert got == [(Interval.closed(1.0, 2.0), True), (Interval.closed(4.0, 5.0), True)]


# ---------------------------------------------------------------------------
# generated kernels


@pytest.mark.parametrize("name", sorted(kernels.KERNELS))
def test_kernel_source_is_deterministic_and_compiles(name):
    k = kernels.get(name)
    a = compile_program(k.program(), k.canonical())
    b = compile_program(k.program(), k.canonical())
    src = kernel_source(a)
    assert src == kernel_source(a) == kernel_source(b)
    compile(src, f"<{name} kernel>", "exec")


def test_equal_plans_share_one_kernel(monkeypatch):
    k = kernels.get("dot_integral")
    binds = k.random_instance(random.Random(3))
    first = compile_program(k.program(), k.canonical())
    other = compile_program(k.program(), binds)
    assert first.key == other.key
    monkeypatch.setattr(executor, "_KERNELS", {})
    run(first)

    def no_compile(*args):
        raise AssertionError("a cached kernel was compiled again")

    monkeypatch.setattr(executor, "compile", no_compile, raising=False)
    res = run(other)
    assert res.output == pytest.approx(oracle.evaluate(k.program(), binds))
    assert executor._kernel(other) is executor._kernel(first)


def test_a_rerun_and_an_equal_plan_render_nothing(monkeypatch):
    # every render, kernel_source's and run's, goes through _Source.source
    renders = []
    source = executor._Source.source

    def counted(self):
        renders.append(self.plan)
        return source(self)

    monkeypatch.setattr(executor, "_KERNELS", {})
    monkeypatch.setattr(executor._Source, "source", counted)
    k = kernels.get("masked_conv")
    plan = compile_program(k.program(), k.canonical())
    first = run(plan)
    assert renders == [plan]
    again = run(plan)
    assert repr(again.output) == repr(first.output) and again.stats == first.stats
    binds = k.random_instance(random.Random(5))
    other = compile_program(k.program(), binds)
    assert other is not plan and other.key == plan.key
    res = run(other)
    assert renders == [plan]
    assert oracle.outputs_match(res.output, oracle.evaluate(k.program(), binds), rel=k.rel)
    assert executor._kernel(other).source == kernel_source(other)
    assert len(renders) == 2  # kernel_source itself always renders


def test_the_kernel_cache_keeps_no_input_alive(monkeypatch):
    monkeypatch.setattr(executor, "_KERNELS", {})
    A = tensor_1d("A", [((1.0, 3.0), 1.0)], 0.0, kind="interval")
    B = tensor_1d("B", [((2.0, 5.0), 2.0)], 0.0, kind="interval")
    gone = weakref.ref(A)
    plan = compile_program(parse(DOT_INTEGRAL), {"A": A, "B": B})
    assert run(plan).output == pytest.approx(2.0)
    assert len(executor._KERNELS) == 1
    del plan, A, B
    gc.collect()
    assert gone() is None


def test_fill_true_and_one_get_separate_kernels(monkeypatch):
    # each point of M probes A; a probe that misses reads A's fill
    prog = parse("""
for i = -inf:inf
  Out[i] |= M[i] && A[i]
end
""")
    M = tensor_1d("M", [(0.5, True), (2.0, True)], False)

    def plan(fill):
        return compile_program(prog, {"M": M, "A": tensor_1d("A", [((0.0, 1.0), True)], fill,
                                                             kind="interval")})

    monkeypatch.setattr(executor, "_KERNELS", {})
    as_bool, as_float = plan(True), plan(1.0)
    assert as_bool == as_float  # dataclass equality cannot tell True from 1.0
    assert as_bool.key != as_float.key
    assert [v for _, v in run(as_bool).output.pieces()] == [True, True]
    run(as_float)
    assert len(executor._KERNELS) == 2
    for p in (as_bool, as_float):
        assert executor._kernel(p).source == kernel_source(p)
    assert executor._kernel(as_bool).source != executor._kernel(as_float).source


def test_signed_zero_constants_get_separate_sources(monkeypatch):
    def plan(zero):
        return Plan(LetScalar(0, "z", Num(zero)), OutputDecl("s", (), 0.0), 1)

    monkeypatch.setattr(executor, "_KERNELS", {})
    pos, neg = plan(0.0), plan(-0.0)
    assert pos == neg
    assert pos.key != neg.key
    for p in (pos, neg):
        assert run(p).output == 0.0
        assert executor._kernel(p).source == kernel_source(p)
    assert executor._kernel(pos).source != executor._kernel(neg).source


def test_outputs_keep_their_value_types():
    k = kernels.get("genomic_overlap")
    res = run(compile_program(k.program(), k.canonical()))
    assert res.output.values and all(v is True for v in res.output.values)
    # a product of bools is a float, as a Mul that starts from 1.0 gives
    A = tensor_1d("A", [((0.0, 2.0), True)], False, kind="interval")
    B = tensor_1d("B", [((1.0, 3.0), True)], False, kind="interval")
    res = compile_run("""
for x = -inf:inf
  Out[x] = A[x] * B[x]
end
""", {"A": A, "B": B})
    assert [type(v) for v in res.output.values] == [float]
    assert list(res.output.pieces()) == [((Interval.closed(1.0, 2.0),), 1.0)]


def test_plan_names_that_are_python_words_or_not_ascii():
    A = tensor_1d("A", [((0.0, 2.0), 3.0)], 0.0, kind="interval")
    B = tensor_1d("B", [((1.0, 3.0), 2.0)], 0.0, kind="interval")
    res = compile_run("""
for lambda = -inf:inf
  range += def[lambda] * café[lambda] * d(lambda)
end
""", {"def": A, "café": B})
    assert res.output == 6.0


def test_pin_of_a_wide_region_raises():
    plan = Plan(Block((
        IntersectLet(0, "iv", (LimC(Limit(0.0)),), (LimC(Limit(1.0)),)),
        Pin(1, "x", IvStart(0, "iv")),
    )), OutputDecl("s", (), 0.0), 2)
    with pytest.raises(ExecError, match=r"pin of a non-degenerate region \[0, 1\]"):
        run(plan)


def test_endpoint_of_a_missing_entry_raises():
    # only a stepper's position has ends to read; a probe's can be -1
    A = tensor_1d("A", [((0.0, 1.0), 1.0)], 0.0, kind="interval")
    plan = Plan(Block((
        Probe(0, "q", "A", 0, PRoot(), Num(5.0), Num(0.0)),  # 5 is in a gap: q = -1
        IntersectLet(1, "r", (EndRef("A", 0, "L", PVar(0, "q")),), (LimC(Limit(9.0)),)),
    )), OutputDecl("s", (), 0.0), 2, {"A": A})
    with pytest.raises(ExecError, match="not a stepper in scope"):
        kernel_source(plan)


def test_touching_equal_subtrees_merge_above_the_last_rank():
    A = tensor_1d("A", [((0.0, 1.0, "right_open"), 1.0), ((1.0, 2.0), 1.0)], 0.0,
                  kind="interval")
    res = compile_run("""
for i = -inf:inf
  for j = 0:1
    Out[i, j] = A[i]
  end
end
""", {"A": A})
    assert list(res.output.pieces()) == [
        ((Interval.closed(0.0, 2.0), 0), 1.0), ((Interval.closed(0.0, 2.0), 1), 1.0)]


@pytest.mark.parametrize("src, pieces", [
    ("for i = 0:1\n  for j = -inf:inf\n    Out[j] += -A[i, j] * B[i]\n  end\nend\n",
     [((Interval.right_open(0.0, 1.0),), -1.0), ((Interval.left_open(2.0, 3.0),), 1.0)]),
    ("for k = 0:1\n  for i = -inf:inf\n    for c = 0:0\n      Out[i, c] += A[k, i] * B[k]\n"
     "    end\n  end\nend\n",
     [((Interval.right_open(0.0, 1.0), 0), 1.0), ((Interval.left_open(2.0, 3.0), 0), -1.0)]),
], ids=["last_rank", "above_the_last_rank"])
def test_overlapping_pieces_that_combine_to_the_fill_are_not_stored(src, pieces):
    # on [1, 2] the two rows' pieces cancel: 1 * 1 + 1 * -1 is the fill 0
    A = build_tensor("A", [("dense", 2), ("interval",)],
                     [[((0.0, 2.0), 1.0)], [((1.0, 3.0), 1.0)]])
    B = build_tensor("B", [("dense", 2)], [1.0, -1.0])
    res = against_oracle(src, {"A": A, "B": B})
    assert list(res.output.pieces()) == pieces


def test_plan_names_cannot_shadow_generated_ones():
    # slot 0 is the loop over _A; its local must not be tensor A's table,
    # which the probe at each point of P reads
    P = tensor_1d("P", [(0.5, 2.0), (4.0, 1.0)], 0.0)
    A = tensor_1d("A", [((0.0, 2.0), 3.0)], 0.0, kind="interval")
    res = compile_run("""
for _A = 0:1
  for x = -inf:inf
    Out[_A] += P[x] * A[x]
  end
end
""", {"P": P, "A": A})
    assert list(res.output.values) == [6.0, 6.0]


def test_an_unshifted_probe_is_the_tables_probe():
    # the kernel renders a probe at shift 0 as SparseLevel.probe inline: it
    # finds the position _probe finds, and -1 for a missing fiber
    A = build_tensor("A", [("interval",)], [
        ((0.0, 1.0, "right_open"), 1.0), ((1.0, 2.0, "left_open"), 2.0),
        ((2.5, 2.5, "closed"), 3.0), ((3.0, math.inf, "open"), 4.0)])
    t = A.levels[0]
    for x in (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.25, 2.5, 3.0, 7.0):
        for f in (0, -1):
            assert executor._probe(t, f, x, 0.0) == t.probe(f, Limit(x))
    P = tensor_1d("P", [(x, 1.0) for x in (-1.0, 0.5, 1.0, 2.0, 2.25, 2.5, 7.0)], 0.0)
    src = "for x = -inf:inf\n  Out[x] = P[x] * A[x]\nend\n"
    plan = compile_program(parse(src), {"P": P, "A": A})
    # the fiber's ends are bound once, at the kernel's start
    assert re.search(r"(_beg\d+) = _A_0_ptr\[0\]\n\s+(_end\d+) = _A_0_ptr\[1\]\n(.*\n)*"
                     r"\s+q_A0_\d+ = \(_p if \(_p := bisect_left\(_A_0_stops, \(_t := \(x_\d+, 0\)\), "
                     r"\1, \2\)\) < \2 and _A_0_starts\[_p\] <= _t else -1\)", kernel_source(plan))
    res = against_oracle(src, {"P": P, "A": A})
    assert [v for _, v in res.output.pieces()] == [1.0, 2.0, 3.0, 4.0]


# ---------------------------------------------------------------------------
# loop shapes: an intersection walks the pieces alone, a union the segments


def test_an_intersection_renders_a_finger_loop():
    k = kernels.get("dot_integral")
    plan = compile_program(k.program(), k.canonical())
    assert "coiterate over their fibers (fingers):" in pretty(plan)
    assert "iv = " not in pretty(plan)
    src = kernel_source(plan)
    # no range, no cursor, no advance check, and steppers start at their fiber
    assert "co-iteration failed to advance" not in src
    assert "_seek(" not in src and "cur_" not in src and "iv_" not in src
    assert re.search(r"\bp_A0_\d+ = _A_0_ptr\[0\]", src)
    # the fibers bound the loop: it runs where each has a piece, with no
    # last stop read, the segment's stop is the least of the fingers', and
    # the loop ends when an advancing finger reaches its fiber's end
    assert re.search(r"if (p_A0_\d+) < _\1_end and (p_B0_\d+) < _\2_end:\n", src)
    assert "_NO_STOP" not in src
    assert "while True:" in src and " is iv_" not in src
    # each stop has a float twin, compared first: the tuples decide at a tie
    assert re.search(r"seg_(\d+)_hi = (_p_A0_\d+_stop)\n\s+seg_\1_hv = \2v\n"
                     r"\s+if (_p_B0_\d+_stop)v < seg_\1_hv or \3v == seg_\1_hv and \3 < seg_\1_hi:\n"
                     r"\s+seg_\1_hi = \3\n\s+seg_\1_hv = \3v\n", src)
    assert re.search(r"if _p_A0_(\d+)_stopv == (seg_\d+)_hv and \(_p_A0_\1_stop is \2_hi or "
                     r"_p_A0_\1_stop == \2_hi\):\n\s+p_A0_\1 \+= 1\n\s+if p_A0_\1 == _p_A0_\1_end:\n"
                     r"\s+break\n\s+_p_A0_\1_stop = _A_0_stops\[p_A0_\1\]\n"
                     r"\s+_p_A0_\1_stopv = _A_0_his\[p_A0_\1\]", src)
    # with no range, the region's start is the fingers' alone, the largest
    # of their values; its tuple is read only where the guard's floats tie,
    # and d(i) is the difference of the floats
    assert re.search(r"(r_\d+)_lv = _A_0_los\[p_A0_\d+\]\n\s+_ev = _B_0_los\[p_B0_\d+\]\n"
                     r"\s+if _ev > \1_lv:\n\s+\1_lv = _ev\n\s+if \1_lv < (seg_\d+)_hv or \1_lv == \2_hv "
                     r"and max\(_A_0_starts\[p_A0_\d+\], _B_0_starts\[p_B0_\d+\]\) <= \2_hi:\n"
                     r"(.*\n)*.*\(_d := \2_hv - \1_lv\)", src)
    assert "_lo = " not in src.split("while True:")[1]
    # the steppers are always in a piece, so their reads are unguarded
    assert ">= 0" not in src and "_PAST" not in src


def test_a_finite_range_end_stays_in_the_least_stop():
    program = parse("for i = -inf:0.9\n  s += A[i] * B[i] * d(i)\nend\n")
    src = kernel_source(compile_program(program, kernels.get("dot_integral").canonical()))
    assert re.search(r"seg_(\d+)_hi = (iv_\d+_hi)\n(.*\n)*\s+if seg_\1_hi is \2:\n\s+break", src)
    # a range takes the ranged form, from the open -inf too: each finger
    # enters at the range's start
    assert re.search(r"p_A0_\d+ = _seek\(_A_0_table, 0, (iv_\d+)_lo, 0\.0\)\n", src)
    # the fingers still carry their stops, but no fiber's end; the range's
    # ends have float twins, and its stop enters the least stop with its own
    assert "_end" not in src
    assert re.search(r"_p_B0_(\d+)_stop = _B_0_stops\[p_B0_\1\]\n\s+_p_B0_\1_stopv = "
                     r"_B_0_his\[p_B0_\1\]\n\s+(iv_\d+)_lv = \2_lo\[0\]\n"
                     r"\s+\2_hv = \2_hi\[0\]\n\s+while", src)
    assert re.search(r"seg_(\d+)_hi = (iv_\d+)_hi\n\s+seg_\1_hv = \2_hv\n", src)


def _ivs(name, keys, fill=0.0):
    """An interval input whose pieces, from (lo, hi[, kind]) keys, hold 1, 2, 3, ..."""
    return build_tensor(name, [("interval",)], [(k, float(j + 1)) for j, k in enumerate(keys)],
                        fill=fill)


# A and B share the stop 1 and the start 4; 3 ends A's second piece closed
# and B's open; A's last stop, 5, is B's third, and B goes on to 7.
# C starts at the open -inf, D and E at the closed one, and C's stop 1 is A's
FA = _ivs("A", [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0, "left_open")])
FB = _ivs("B", [(0.0, 1.0), (1.5, 3.0, "right_open"), (4.0, 5.0), (6.0, 7.0)])
FC = _ivs("C", [(-math.inf, 1.0, "left_open"), (1.0, 3.0, "open"), (3.0, 5.0)])
FD = _ivs("D", [(-math.inf, 0.5), (2.5, 3.0, "left_open"), (4.5, 9.0)])
FE = _ivs("E", [(-math.inf, 2.75), (4.0, 4.75)])
FINGERS = {"A": FA, "B": FB, "C": FC, "D": FD, "E": FE}
# seven inputs whose stops tie at 1 and 3, and whose last stops differ
SEVEN = {f"A{k}": _ivs(f"A{k}", [(-0.25 * k, 1.0), (1.0 + 0.1 * k, 3.0, "left_open"),
                                 (3.5, 4.0 + 0.25 * k)]) for k in range(1, 8)}
# under |=, A and B first overlap where both are false, then where both are true
OR_A = build_tensor("A", [("interval",)], [((0.0, 1.0), False), ((2.0, 3.0), True),
                                           ((4.0, 5.0), True)], fill=False)
OR_B = build_tensor("B", [("interval",)], [((0.0, 1.0), False), ((2.5, 5.0), True)], fill=False)
# ends whose values tie and whose eps differ, which the kernels compare as
# floats first and as tuples only at the tie. Stops at 1: closed in B,
# open in A and C; starts at 1: open in C, closed in A's second piece and D's
STOPS = {"A": _ivs("A", [(0.0, 1.0, "right_open"), (1.0, 3.0)]),
         "B": _ivs("B", [(0.5, 1.0), (1.5, 3.0, "right_open")]),
         "C": _ivs("C", [(0.25, 1.0, "right_open"), (1.0, 3.0, "left_open")]),
         "D": _ivs("D", [(-1.0, 0.5), (1.0, 2.0)])}
# a start at the least stop: B's closed 1 and 3 on A's closed 1 and 3, and
# B's and C's open starts on a closed stop
AT_STOP = {"A": _ivs("A", [(0.0, 1.0), (2.0, 3.0)]),
           "B": _ivs("B", [(1.0, 2.0), (3.0, 4.0, "left_open")]),
           "C": _ivs("C", [(1.0, 2.5, "left_open")])}
# -0.0 against 0.0: A stops at -0.0, where B starts at 0.0, C opens at 0.0
# and D is the point [-0.0, 0.0]
ZEROS = {"A": _ivs("A", [(-1.0, -0.0), (0.5, 1.0)]), "B": _ivs("B", [(0.0, 1.0)]),
         "C": _ivs("C", [(0.0, 2.0, "left_open")]), "D": _ivs("D", [(-0.0, 0.0), (0.75, 1.0)])}
# ends at -inf and inf, given closed in A and stored open
INFS = {"A": _ivs("A", [(-math.inf, 0.0), (1.0, math.inf)]),
        "B": _ivs("B", [(-math.inf, -1.0, "left_open"), (0.0, math.inf, "right_open")]),
        "C": _ivs("C", [(-math.inf, math.inf)])}
# rows whose fibers are empty in A (row 0) and in B (row 1)
EMPTY = {"A": build_tensor("A", [("dense", 3), ("interval",)], [
             [], [((0.0, 1.0), 2.0)], [((0.5, 2.0), 3.0), ((3.0, 4.0), 4.0)]]),
         "B": build_tensor("B", [("dense", 3), ("interval",)], [
             [((0.0, 1.0), 5.0)], [], [((1.0, 3.5), 6.0)]])}


@pytest.mark.parametrize("src, binds, stats", [
    ("for i = -inf:inf\n  s += A[i] * B[i] * d(i)\nend\n", FINGERS, ExecStats(3, 4, 0)),
    # B is tested first: its stop 5 is A's last, so A ends the loop after B moved on
    ("for i = -inf:inf\n  s += B[i] * A[i] * d(i)\nend\n", FINGERS, ExecStats(3, 4, 0)),
    ("for i = -inf:inf\n  s += A[i] * B[i] * C[i] * d(i)\nend\n", FINGERS, ExecStats(3, 4, 0)),
    ("for i = -inf:inf\n  Out[i] = A[i] * B[i] * C[i]\nend\n", FINGERS, ExecStats(3, 4, 3)),
    ("for i = -inf:inf\n  Out[i] = C[i] * D[i]\nend\n", FINGERS, ExecStats(4, 5, 4)),
    ("for i = -inf:inf\n  Out[i] = D[i] * E[i]\nend\n", FINGERS, ExecStats(3, 4, 3)),
    ("for i = -inf:inf\n  Out[i] = D[i] * C[i] * A[i]\nend\n", FINGERS, ExecStats(4, 5, 4)),
    ("for i = -inf:0.9\n  Out[i] = A[i] * B[i] * C[i]\nend\n", FINGERS, ExecStats(1, 1, 1)),
    ("for i = -0.4:inf\n  Out[i] = A[i] * B[i] * D[i]\nend\n", FINGERS, ExecStats(3, 5, 3)),
    ("for i = 0.15:1.6\n  Out[i] = B[i] * C[i]\nend\n", FINGERS, ExecStats(2, 2, 2)),
    ("for i = -inf:inf\n  s += " + " * ".join(f"A{k}[i]" for k in range(1, 8)) + " * d(i)\nend\n",
     SEVEN, ExecStats(3, 3, 0)),
    ("for i = -inf:inf\n  Out |= A[i] && B[i]\nend\n", {"A": OR_A, "B": OR_B},
     ExecStats(2, 2, 0)),
    ("for i = -inf:inf\n  s += A[i] * B[i] * d(i)\nend\n", STOPS, ExecStats(3, 3, 0)),
    ("for i = -inf:inf\n  Out[i] = A[i] * B[i] * C[i]\nend\n", STOPS, ExecStats(2, 3, 2)),
    ("for i = -inf:inf\n  Out[i] = C[i] * B[i] * A[i]\nend\n", STOPS, ExecStats(2, 3, 2)),
    ("for i = -inf:inf\n  Out[i] = B[i] * D[i]\nend\n", STOPS, ExecStats(3, 3, 3)),
    ("for i = 0.5:2.0\n  Out[i] = A[i] * C[i] * D[i]\nend\n", STOPS, ExecStats(2, 3, 2)),
    ("for i = -inf:inf\n  Out[i] = A[i] * B[i]\nend\n", AT_STOP, ExecStats(2, 3, 2)),
    ("for i = -inf:inf\n  s += A[i] * B[i] * d(i)\nend\n", AT_STOP, ExecStats(2, 3, 0)),
    ("for i = -inf:inf\n  Out[i] = A[i] * C[i]\nend\n", AT_STOP, ExecStats(1, 2, 1)),
    ("for i = 1.0:3.0\n  Out[i] = A[i] * B[i]\nend\n", AT_STOP, ExecStats(2, 3, 2)),
    ("for i = -inf:inf\n  Out[i] = A[i] * B[i]\nend\n", ZEROS, ExecStats(2, 2, 2)),
    ("for i = -inf:inf\n  Out[i] = B[i] * A[i]\nend\n", ZEROS, ExecStats(2, 2, 2)),
    ("for i = -inf:inf\n  Out[i] = A[i] * C[i]\nend\n", ZEROS, ExecStats(1, 2, 1)),
    ("for i = -inf:inf\n  Out[i] = A[i] * D[i]\nend\n", ZEROS, ExecStats(2, 2, 2)),
    ("for i = -inf:inf\n  Out[i] = A[i] * B[i]\nend\n", INFS, ExecStats(3, 3, 3)),
    ("for i = -inf:inf\n  Out[i] = A[i] * B[i] * C[i]\nend\n", INFS, ExecStats(3, 3, 3)),
    ("for i = -inf:inf\n  s += A[i] * C[i] * d(i)\nend\n", INFS, ExecStats(2, 2, 0)),
    ("for i = -1.0:inf\n  Out[i] = A[i] * B[i]\nend\n", INFS, ExecStats(3, 3, 3)),
    ("for j = 0:2\n  for i = -inf:inf\n    Out[j, i] = A[j, i] * B[j, i]\n  end\nend\n", EMPTY,
     ExecStats(2, 2, 2)),
    ("for j = 0:2\n  for i = -inf:inf\n    s += A[j, i] * B[j, i] * d(i)\n  end\nend\n", EMPTY,
     ExecStats(2, 2, 0)),
    # the fibers' entries and first stops, _PAST and inf where empty, bound under j
    ("for j = 0:2\n  for k = 0:1\n    for i = -inf:inf\n      s += A[j, i] * B[j, i] * d(i)\n"
     "    end\n  end\nend\n", EMPTY, ExecStats(4, 4, 0)),
], ids=["tied_2", "tied_2_other_order", "tied_3", "tied_3_written", "open_and_closed_-inf",
        "closed_-inf", "-inf_starts_and_a_tie", "to_0.9", "from_-0.4", "0.15_to_1.6",
        "seven_way", "or_exit", "open_and_closed_stops_2", "open_and_closed_stops_3",
        "open_and_closed_stops_3_other_order", "closed_stop_on_closed_start",
        "open_and_closed_from_0.5", "start_at_stop_closed", "start_at_stop_closed_d",
        "start_at_stop_open", "start_at_stop_from_1", "-0.0_stop_on_0.0_start",
        "-0.0_stop_on_0.0_start_other_order", "-0.0_stop_on_open_0.0_start", "-0.0_point",
        "ends_at_infinity", "ends_at_infinity_3", "infinite_length", "infinity_from_-1",
        "empty_fibers", "empty_fibers_d",
        "empty_fibers_bound_entries"])
def test_a_finger_loop_over_ties_agrees_with_the_oracle(src, binds, stats):
    binds = {name: t for name, t in binds.items() if f"{name}[" in src}
    assert "(fingers):" in pretty(compile_program(parse(src), binds))
    res = against_oracle(src, binds)
    assert res.stats == stats


UNION = """
for i = -inf:inf
  Out[i] = A[i] + B[i]
end
"""


# a union keeps the segment walk: its source, pinned byte for byte. Both
# summands run out, so each segment also ends just before the start of
# one in its gap, and reads each as its value or, in its gap (-1), its
# fill; where both are gaps nothing is written, so the walk ends at the
# later of their last stops, and a segment is written where either is in
# its piece: its start, stop and value, each appended to its own column
UNION_WALK = """\
def kernel(_b):
    _A_0_table = _b['A'].levels[0]
    _A_0_starts, _A_0_stops, _A_0_ptr = _A_0_table.starts, _A_0_table.stops, _A_0_table.ptr
    _B_0_table = _b['B'].levels[0]
    _B_0_starts, _B_0_stops, _B_0_ptr = _B_0_table.starts, _B_0_table.stops, _B_0_table.ptr
    _A_vals = _b['A'].values
    _B_vals = _b['B'].values
    _out = ([], [], [],)
    _put0, _put1, _put2 = _out[0].append, _out[1].append, _out[2].append
    _seg = _mul = _emit = 0
    iv_0_lo = ((-_INF), 1)
    iv_0_hi = max((_A_0_stops[_q - 1] if _A_0_ptr[0] < (_q := _A_0_ptr[1]) else _NO_STOP), (_B_0_stops[_q - 1] if _B_0_ptr[0] < (_q := _B_0_ptr[1]) else _NO_STOP))
    if not iv_0_lo > iv_0_hi:
        _p_A0_3_at = _seek(_A_0_table, 0, iv_0_lo, 0.0)
        _p_A0_3_end = _A_0_ptr[1]
        _p_A0_3_start, _p_A0_3_stop = (_A_0_starts[_p_A0_3_at], _A_0_stops[_p_A0_3_at]) if _p_A0_3_at < _p_A0_3_end else (_PAST, _PAST)
        _p_B0_4_at = _seek(_B_0_table, 0, iv_0_lo, 0.0)
        _p_B0_4_end = _B_0_ptr[1]
        _p_B0_4_start, _p_B0_4_stop = (_B_0_starts[_p_B0_4_at], _B_0_stops[_p_B0_4_at]) if _p_B0_4_at < _p_B0_4_end else (_PAST, _PAST)
        cur_1 = iv_0_lo
        while cur_1 <= iv_0_hi:
            _seg += 1
            seg_2_hi = iv_0_hi
            if _p_A0_3_start <= cur_1:
                p_A0_3 = _p_A0_3_at
                if _p_A0_3_stop < seg_2_hi:
                    seg_2_hi = _p_A0_3_stop
            else:
                p_A0_3 = -1
                if _p_A0_3_start <= seg_2_hi:
                    seg_2_hi = (_p_A0_3_start[0], _p_A0_3_start[1] - 1)
            if _p_B0_4_start <= cur_1:
                p_B0_4 = _p_B0_4_at
                if _p_B0_4_stop < seg_2_hi:
                    seg_2_hi = _p_B0_4_stop
            else:
                p_B0_4 = -1
                if _p_B0_4_start <= seg_2_hi:
                    seg_2_hi = (_p_B0_4_start[0], _p_B0_4_start[1] - 1)
            seg_2_lo = cur_1
            if (True if (p_A0_3 >= 0) or (p_B0_4 >= 0) else False):
                if p_A0_3 >= 0 and p_B0_4 >= 0:
                    _mul += 1
                _emit += 1
                if (_lo0 := _NEG_OPEN if seg_2_lo < _NEG_OPEN else seg_2_lo) <= (_hi0 := _POS_OPEN if seg_2_hi > _POS_OPEN else seg_2_hi):
                    if (_val := sum(((_A_vals[p_A0_3] if p_A0_3 >= 0 else 0.0), (_B_vals[p_B0_4] if p_B0_4 >= 0 else 0.0),))) != 0.0:
                        _put0(_lo0)
                        _put1(_hi0)
                        _put2(_val)
            if seg_2_hi is iv_0_hi:
                break
            if _p_A0_3_stop == seg_2_hi:
                _p_A0_3_at += 1
                _p_A0_3_start, _p_A0_3_stop = (_A_0_starts[_p_A0_3_at], _A_0_stops[_p_A0_3_at]) if _p_A0_3_at < _p_A0_3_end else (_PAST, _PAST)
            if _p_B0_4_stop == seg_2_hi:
                _p_B0_4_at += 1
                _p_B0_4_start, _p_B0_4_stop = (_B_0_starts[_p_B0_4_at], _B_0_stops[_p_B0_4_at]) if _p_B0_4_at < _p_B0_4_end else (_PAST, _PAST)
            _n = (seg_2_hi[0] + 0, seg_2_hi[1] + 1 if seg_2_hi[1] < 1 else 1)
            if not _n > cur_1:
                raise _ExecError("co-iteration failed to advance")
            cur_1 = _n
    return _seg, _mul, _emit, _out
"""


def test_a_union_keeps_the_segment_walk():
    A = tensor_1d("A", [((1.0, 2.0), 5.0), ((2.0000000000000004, 3.0), 7.0)], 0.0,
                  kind="interval")
    B = tensor_1d("B", [((1.5, 4.0), 2.0)], 0.0, kind="interval")
    plan = compile_program(parse(UNION), {"A": A, "B": B})
    assert "coiterate cur over iv (walk):" in pretty(plan)
    assert kernel_source(plan) == UNION_WALK


# an intersection with a shifted stepper walks too: its source, pinned byte
# for byte. Each stepper keeps its piece's start and stop, shifted back
# once, in locals loaded where it enters and again where it moves on (_PAST
# past its fiber's end); a segment compares only those, and the region's
# start reads them
SHIFTED_WALK = """\
def kernel(_b):
    _A_0_table = _b['A'].levels[0]
    _A_0_starts, _A_0_stops, _A_0_ptr = _A_0_table.starts, _A_0_table.stops, _A_0_table.ptr
    _B_0_table = _b['B'].levels[0]
    _B_0_starts, _B_0_stops, _B_0_ptr = _B_0_table.starts, _B_0_table.stops, _B_0_table.ptr
    _A_vals = _b['A'].values
    _B_vals = _b['B'].values
    _out = ([], [], [],)
    _put0, _put1, _put2 = _out[0].append, _out[1].append, _out[2].append
    _seg = _mul = _emit = 0
    iv_0_lo = ((-_INF), 1)
    iv_0_hi = ((_v := (_A_0_stops[_q - 1] if _A_0_ptr[0] < (_q := _A_0_ptr[1]) else _NO_STOP))[0] - 1000.0, _v[1])
    _e = (_B_0_stops[_q - 1] if _B_0_ptr[0] < (_q := _B_0_ptr[1]) else _NO_STOP)
    if _e < iv_0_hi:
        iv_0_hi = _e
    if not iv_0_lo > iv_0_hi:
        p_A0_3 = _seek(_A_0_table, 0, iv_0_lo, 1000.0)
        _p_A0_3_end = _A_0_ptr[1]
        _p_A0_3_start, _p_A0_3_stop = (((_v := _A_0_starts[p_A0_3])[0] - 1000.0, _v[1]), ((_v := _A_0_stops[p_A0_3])[0] - 1000.0, _v[1])) if p_A0_3 < _p_A0_3_end else (_PAST, _PAST)
        p_B0_4 = _seek(_B_0_table, 0, iv_0_lo, 0.0)
        _p_B0_4_end = _B_0_ptr[1]
        _p_B0_4_start, _p_B0_4_stop = (_B_0_starts[p_B0_4], _B_0_stops[p_B0_4]) if p_B0_4 < _p_B0_4_end else (_PAST, _PAST)
        cur_1 = iv_0_lo
        while cur_1 <= iv_0_hi:
            _seg += 1
            seg_2_hi = iv_0_hi
            if _p_A0_3_stop < seg_2_hi:
                seg_2_hi = _p_A0_3_stop
            if _p_B0_4_stop < seg_2_hi:
                seg_2_hi = _p_B0_4_stop
            seg_2_lo = cur_1
            r_5_lo = seg_2_lo
            _e = _p_A0_3_start
            if _e > r_5_lo:
                r_5_lo = _e
            _e = _p_B0_4_start
            if _e > r_5_lo:
                r_5_lo = _e
            r_5_hi = seg_2_hi
            if r_5_lo <= r_5_hi:
                _mul += 1
                _emit += 1
                if (_lo0 := _NEG_OPEN if r_5_lo < _NEG_OPEN else r_5_lo) <= (_hi0 := _POS_OPEN if r_5_hi > _POS_OPEN else r_5_hi):
                    if (_val := (1.0 * _A_vals[p_A0_3] * _B_vals[p_B0_4])) != 0.0:
                        _put0(_lo0)
                        _put1(_hi0)
                        _put2(_val)
            if seg_2_hi is iv_0_hi:
                break
            if _p_A0_3_stop == seg_2_hi:
                p_A0_3 += 1
                _p_A0_3_start, _p_A0_3_stop = (((_v := _A_0_starts[p_A0_3])[0] - 1000.0, _v[1]), ((_v := _A_0_stops[p_A0_3])[0] - 1000.0, _v[1])) if p_A0_3 < _p_A0_3_end else (_PAST, _PAST)
            if _p_B0_4_stop == seg_2_hi:
                p_B0_4 += 1
                _p_B0_4_start, _p_B0_4_stop = (_B_0_starts[p_B0_4], _B_0_stops[p_B0_4]) if p_B0_4 < _p_B0_4_end else (_PAST, _PAST)
            _n = (seg_2_hi[0] + 0, seg_2_hi[1] + 1 if seg_2_hi[1] < 1 else 1)
            if not _n > cur_1:
                raise _ExecError("co-iteration failed to advance")
            cur_1 = _n
    return _seg, _mul, _emit, _out
"""


@pytest.mark.parametrize("src", [UNION_WALK, SHIFTED_WALK], ids=["union", "shifted"])
def test_a_walk_reads_stored_ends_only_where_a_stepper_enters_or_moves_on(src):
    walk = src[src.index("    if not iv_0_lo > iv_0_hi:"):]
    loads = [line for line in walk.splitlines() if "_starts[" in line or "_stops[" in line]
    assert loads and all(re.fullmatch(r"\s+_(p_\w+)_start, _\1_stop = .* else \(_PAST, _PAST\)",
                                      line) for line in loads)
    # one load where each stepper enters, one where it moves on
    assert len(loads) == 2 * walk.count(" = _seek(")
    assert "- 0.0" not in walk


# A hand-built level may store int-valued ends; A_FLOAT is A_INT's float twin
A_INT = ContTensor("A", (SparseLevel((0, 2), ((1, 0), (3, 0)), ((2, 0), (4, 0))),), (5.0, 7.0))
A_FLOAT = ContTensor("A", (SparseLevel((0, 2), ((1.0, 0), (3.0, 0)), ((2.0, 0), (4.0, 0))),),
                     (5.0, 7.0))
B_OFF = tensor_1d("B", [((1.25, 3.75), 2.0)], 0.0, kind="interval")


@pytest.mark.parametrize("src, shape, copied", [
    ("for i = -inf:inf\n  Out[i] = A[i] + B[i]\nend\n", "walk", True),
    ("for i = -inf:inf\n  Out[i] = A[i] * B[i + 0.5]\nend\n", "walk", True),
    ("for i = -inf:inf\n  Out[i] = A[i + 0.5] * B[i]\nend\n", "walk", False),
    ("for i = -inf:inf\n  Out[i] = A[i] * B[i]\nend\n", "fingers", True),
], ids=["union_walk", "shifted_walk", "shifted_A", "finger_loop"])
def test_a_written_end_keeps_the_type_it_is_stored_in(src, shape, copied):
    plans = [compile_program(parse(src), {"A": a, "B": B_OFF}) for a in (A_INT, A_FLOAT)]
    assert f"({shape}):" in pretty(plans[0])
    got, want = map(run, plans)
    assert got.stats == want.stats
    # equal up to each end's numeric type: (2, 0) == (2.0, 0)
    assert list(got.output.pieces()) == list(want.output.pieces())
    # an end copied from A, or moved off one by an infinitesimal, is an int;
    # B's, a shifted end and the loop's own are floats
    ends = [end for (x,), _ in got.output.pieces() for end in (x.start, x.stop)]
    assert [type(e.val) for e in ends] == [int if copied and e.val in (1, 2, 3, 4) else float
                                           for e in ends]
    assert (int in map(type, (e.val for e in ends))) is copied


def test_a_shift_that_rounds_a_start_onto_the_previous_stop():
    # shifted back by 1000, both 2.0 and the next float round to -998.0:
    # the second piece starts where the first stops, and only the cursor
    # keeps -998 in the first
    A = tensor_1d("A", [((1.0, 2.0), 5.0), ((2.0000000000000004, 3.0), 7.0)], 0.0,
                  kind="interval")
    B = tensor_1d("B", [((-1500.0, 0.0), 2.0)], 0.0, kind="interval")
    first = Interval(Limit(-999.0), Limit(-998.0))
    second = Interval(Limit(-998.0, 1), Limit(-997.0))
    res = compile_run("for i = -inf:inf\n  Out[i] = A[i + 1000.0]\nend\n", {"A": A})
    assert list(res.output.pieces()) == [((first,), 5.0), ((second,), 7.0)]
    assert (res.stats.segments_visited, res.stats.pieces_emitted) == (2, 2)
    plan = compile_program(parse("for i = -inf:inf\n  Out[i] = A[i + 1000.0] * B[i]\nend\n"),
                           {"A": A, "B": B})
    # an intersection with a shifted stepper keeps the walk, and reads
    # its annihilating steppers unguarded, as the range ends with them
    assert "coiterate cur over iv (walk):" in pretty(plan)
    assert kernel_source(plan) == SHIFTED_WALK
    res = run(plan)
    assert list(res.output.pieces()) == [((first,), 10.0), ((second,), 14.0)]
    assert (res.stats.segments_visited, res.stats.multiplies) == (2, 2)
    res = compile_run("for i = -inf:inf\n  s += A[i + 1000.0] * d(i)\nend\n", {"A": A})
    assert res.output == 12.0


# ---------------------------------------------------------------------------
# pieces loops: a lone stepper that annihilates and is unshifted steps its
# pieces by position over the whole line. Each case's segments_visited is
# the one the finger loop it replaces counted, one per piece visited


def test_a_lone_stepper_renders_a_pieces_loop():
    k = kernels.get("genomic_overlap")
    plan = compile_program(k.program(), k.canonical())
    text = pretty(plan)
    # the id and jd loops run over their whole fibers; the x loop meets two
    assert text.count("coiterate over its fiber (pieces):") == 2
    assert text.count("coiterate over their fibers (fingers):") == 1
    assert "guard r.start" in text and text.count("guard") == 1
    src = kernel_source(plan)
    assert re.search(r"for p_Query1_\d+ in range\(p_Query1_\d+, _p_Query1_\d+_end\):", src)
    # the jd loop's fiber is chr's: its ends are bound once per chr, outside the id loop
    jd = re.search(r"for p_Data1_\d+ in range\((_beg\d+), (_end\d+)\):", src)
    assert jd and re.search(rf"for chr_0 in range\(0, 2\):\n(\s+_\w+ = .*\n)*?"
                            rf"\s+{jd[1]} = _Data_1_ptr\[.*\n\s+{jd[2]} = _Data_1_ptr\[", src)
    assert src.count("while True:") == 1 and "_seek(" not in src
    # the id is read off the stored point's value column, with no region to check
    assert re.search(r"id_\d+ = _Query_1_los\[p_Query1_\d+\]\n", src)
    assert "_pin_error" not in src and ".last_stop(" not in src
    # chr 1 holds queries 1 ([0, 2]) and 2 ([4, 7]): 2 pieces. Query 1 meets
    # data 1 ([0.5, 1.5]) in its first segment and stops there: 1 jd piece
    # and 1 segment. Query 2 visits data 1 and 2 (one segment each, no
    # overlap) and meets data 3 ([3.5, 5]) in its first: 3 jd pieces and 3
    # segments. 2 + 2 + 6 = 10 segments, and one write per query
    assert run(plan).stats == ExecStats(multiplies=2, segments_visited=10, pieces_emitted=2)


A_TWO = tensor_1d("A", [((0.0, 1.0), 2.0), ((2.0, 3.0), 5.0)], 0.0, kind="interval")
P_FIVE = tensor_1d("P", [(0.0, 1.0), (0.5, 2.0), (1.0, 3.0), (2.5, 4.0), (3.0, 5.0)], 0.0)


@pytest.mark.parametrize("src, binds, segments", [
    # A's pieces straddle both ends of the range
    ("for i = 0.5:2.5\n  Out[i] = A[i]\nend\n", {"A": A_TWO}, 2),
    ("for i = 0.5:2.5\n  s += A[i] * d(i)\nend\n", {"A": A_TWO}, 2),
    ("for i = -inf:2.5\n  Out[i] = A[i]\nend\n", {"A": A_TWO}, 2),
    ("for i = 0.5:inf\n  Out[i] = A[i]\nend\n", {"A": A_TWO}, 2),
    ("for i = 3.5:4.0\n  Out[i] = A[i]\nend\n", {"A": A_TWO}, 0),
    # points on the range's ends, and past them
    ("for i = 0.5:2.5\n  Out[i] = P[i]\nend\n", {"P": P_FIVE}, 3),
    ("for i = 1.0:2.5\n  s += P[i]\nend\n", {"P": P_FIVE}, 2),
    ("for i = 0.5:0.5\n  Out[i] = P[i]\nend\n", {"P": P_FIVE}, 1),
], ids=["straddle", "integral", "to_2.5", "from_0.5", "past", "points", "sum", "one_point"])
def test_a_lone_stepper_over_a_range_clips_each_piece(src, binds, segments):
    # over a range the lone stepper keeps the finger loop, which has no cursor
    assert "coiterate over iv (fingers):" in pretty(compile_program(parse(src), binds))
    res = against_oracle(src, binds)
    assert res.stats.segments_visited == segments


E_EMPTY = build_tensor("E", [("interval",)], [], fill=0.0)
# the piece (2, 3) of M's rank 0 holds an empty fiber
M_TWO = build_tensor("M", [("interval",), ("interval",)],
                     [((0.0, 1.0), [((0.0, 1.0), 3.0), ((2.0, 3.0), 4.0)]), ((2.0, 3.0), [])],
                     fill=0.0)
Q_TWO = build_tensor("Q", [("pinpoint",)], [(0.5, 1.0), (1.5, 2.0)], fill=0.0)
D_TWO = build_tensor("D", [("dense", 2), ("interval",)],
                     [[((0.0, 1.0), 1.0)], [((1.0, 2.0), 2.0)]], fill=0.0)


@pytest.mark.parametrize("src, binds, guard, stats", [
    ("for i = -inf:inf\n  Out[i] = E[i]\nend\n", {"E": E_EMPTY}, None, (0, 0, 0)),
    ("for i = -inf:inf\n  for j = -inf:inf\n    s += M[i, j] * d(i) * d(j)\n  end\nend\n",
     {"M": M_TWO}, None, (4, 0, 0)),
    # Q's point 1.5 misses M's rank 0: the probe gives -1, whose fiber is
    # read as an empty one
    ("for i = -inf:inf\n  for j = -inf:inf\n    Out[i, j] = Q[i] * M[i, j]\n  end\nend\n",
     {"Q": Q_TWO, "M": M_TWO}, r"p_M1_\d+, _p_M1_\d+_end = \(_M_1_ptr\[(q_M0_\d+)\], "
     r"_M_1_ptr\[\1 \+ 1\]\) if \1 >= 0 else \(0, 0\)\n", (4, 2, 2)),
    # ... and as one of two fingers, whose loop runs only where both have a piece
    ("for i = -inf:inf\n  for j = -inf:inf\n    Out[i, j] = Q[i] * M[i, j] * A[j]\n  end\n"
     "end\n", {"Q": Q_TWO, "M": M_TWO, "A": A_TWO},
     r"(p_M1_\d+), (_p_M1_\d+_end) = \(_M_1_ptr\[(q_M0_\d+)\], _M_1_ptr\[\3 \+ 1\]\) "
     r"if \3 >= 0 else \(0, 0\)\n(.*\n)*?\s+if \1 < \2 and ", (4, 2, 2)),
    # k = 2 is past D's dense rank: the guarded index gives -1
    ("for k = 0:2\n  for j = -inf:inf\n    Out[k, j] = D[k, j]\n  end\nend\n",
     {"D": D_TWO}, r"(_pos\d+) = \(_i\d+ if 0 <= .*\n\s+p_D1_\d+, _p_D1_\d+_end = "
     r"\(_D_1_ptr\[\1\], _D_1_ptr\[\1 \+ 1\]\) if \1 >= 0 else \(0, 0\)\n", (2, 0, 2)),
    ("for k = 0:2\n  for j = -inf:inf\n    Out[k, j] = D[k, j] * A[j]\n  end\nend\n",
     {"D": D_TWO, "A": A_TWO}, r"(p_D1_\d+), (_p_D1_\d+_end) = \(_D_1_ptr\[(_pos\d+)\], "
     r"_D_1_ptr\[\3 \+ 1\]\) if \3 >= 0 else \(0, 0\)\n(.*\n)*?\s+if \1 < \2 and ", (3, 3, 3)),
], ids=["empty_root", "empty_child", "missed_probe", "missed_probe_fingers", "dense_past",
        "dense_past_fingers"])
def test_an_empty_or_missing_fiber_runs_no_piece(src, binds, guard, stats):
    source = kernel_source(compile_program(parse(src), binds))
    if guard is None:
        assert ">= 0" not in source
    else:
        assert re.search(guard, source)
    res = against_oracle(src, binds)
    s = res.stats
    assert (s.segments_visited, s.multiplies, s.pieces_emitted) == stats


# ---------------------------------------------------------------------------
# fiber ends: a stepper that does not annihilate reads as a gap past its
# last piece, out to +inf


def against_oracle(src, bindings):
    """The compiled program's result, once its output equals the oracle's."""
    program = parse(src)
    res = run(compile_program(program, bindings))
    want = oracle.evaluate(program, bindings)
    assert oracle.outputs_match(res.output, want), (src, res.output, want)
    return res


def test_a_union_whose_fibers_end_apart_writes_past_both():
    # fill 1: where both summands are gaps, 2 is written
    A = tensor_1d("A", [((0.0, 1.0), 2.0)], 1.0, kind="interval")
    B = tensor_1d("B", [((0.5, 3.0), 4.0)], 1.0, kind="interval")
    res = against_oracle(UNION, {"A": A, "B": B})
    assert [v for _, v in res.output.pieces()] == [2.0, 3.0, 6.0, 5.0, 2.0]
    # up to A's start, B's start, A's stop and B's stop, then the final
    # segment, where both are gaps
    assert res.stats.segments_visited == 5


@pytest.mark.parametrize("fill", [0.0, 1.0])
@pytest.mark.parametrize("lo, hi, segments", [
    (-2.0, -1.0, {0.0: 1, 1.0: 1}),  # before every piece
    # past every piece: both steppers start at their fiber's end, and with
    # fill 0 the range ends at the later of the last stops, before lo
    (4.0, 5.0, {0.0: 0, 1.0: 1}),
    (0.6, 0.9, {0.0: 1, 1.0: 1}),  # inside a piece of each
])
def test_a_union_over_a_finite_range(lo, hi, segments, fill):
    A = tensor_1d("A", [((0.0, 1.0), 2.0)], fill, kind="interval")
    B = tensor_1d("B", [((0.5, 3.0), 4.0)], fill, kind="interval")
    res = against_oracle(f"for i = {lo}:{hi}\n  Out[i] = A[i] + B[i]\nend\n", {"A": A, "B": B})
    assert res.stats.segments_visited == segments[fill]


@pytest.mark.parametrize("fill", [0.0, 1.0])
def test_an_empty_fiber_runs_out_at_once(fill):
    A = tensor_1d("A", [((0.0, 1.0), 2.0)], fill, kind="interval")
    B = build_tensor("B", [("dense", 2), ("interval",)], [[((0.5, 3.0), 4.0)], []], fill=fill)
    src = "for j = 0:1\n  for i = -inf:inf\n    Out[j, i] = A[i] + B[j, i]\n  end\nend\n"
    res = against_oracle(src, {"A": A, "B": B})
    assert [v for (j, _), v in res.output.pieces() if j == 1] == ([2.0] if fill == 0 else
                                                                   [2.0, 3.0, 2.0])


@pytest.mark.parametrize("fill", [0.0, 1.0])
def test_a_missed_probe_is_a_fiber_that_runs_out_at_once(fill):
    # at x = 2 the probe into B's first level misses, so B's stepper over
    # the second starts at fiber -1
    P = tensor_1d("P", [(0.5, 1.0), (2.0, 1.0)], 0.0)
    A = tensor_1d("A", [((0.0, 1.0), 2.0)], fill, kind="interval")
    B = build_tensor("B", [("pinpoint",), ("interval",)], [(0.5, [((0.0, 3.0), 4.0)])],
                     fill=fill)
    src = "for x = -inf:inf\n  for i = -inf:inf\n    Out[x, i] = P[x] * (A[i] + B[x, i])\n  end\nend\n"
    plan = compile_program(parse(src), {"P": P, "A": A, "B": B})
    assert re.search(r"stepper p_B1: B\.lvl1\[q_B0\], then gap", pretty(plan))
    res = against_oracle(src, {"P": P, "A": A, "B": B})
    at_two = [v for (x, _), v in res.output.pieces() if x.start.val == 2.0]
    assert at_two == ([2.0] if fill == 0 else [2.0, 3.0, 2.0])


P_PTS = tensor_1d("P", [(0.5, 1.0), (1.5, 2.0), (3.0, 4.0)], 0.0)
Q_PTS = tensor_1d("Q", [(1.5, 3.0), (2.0, 5.0)], 0.0)


def test_a_union_of_point_inputs_keeps_a_point_output():
    # where either is stored the segment is that point, which pins i, and
    # where both are gaps nothing is written: every write is at a point
    src = "for i = -inf:inf\n  Out[i] = P[i] + Q[i]\nend\n"
    plan = compile_program(parse(src), {"P": P_PTS, "Q": Q_PTS})
    assert plan.output.comps == (("pinpoint",),)
    res = against_oracle(src, {"P": P_PTS, "Q": Q_PTS})
    assert [(x.start.val, v) for (x,), v in res.output.pieces()] == [
        (0.5, 1.0), (1.5, 5.0), (2.0, 5.0), (3.0, 4.0)]


@pytest.mark.parametrize("src, want", [
    # P's points are point pieces of the interval output, 3.0 ending A's
    # second piece
    ("for i = -inf:inf\n  Out[i] = A[i] + P[i]\nend\n",
     [((0.0, 0), (0.5, -1), 2.0), ((0.5, 0), (0.5, 0), 3.0), ((0.5, 1), (1.0, 0), 2.0),
      ((1.5, 0), (1.5, 0), 2.0), ((2.0, 0), (3.0, -1), 5.0), ((3.0, 0), (3.0, 0), 9.0)]),
    # a point adds nothing to an integral
    ("for i = -inf:inf\n  s += (A[i] + P[i]) * d(i)\nend\n", 7.0),
], ids=["assign", "integral"])
def test_a_union_of_an_interval_and_a_point_input(src, want):
    A = tensor_1d("A", [((0.0, 1.0), 2.0), ((2.0, 3.0), 5.0)], 0.0, kind="interval")
    res = against_oracle(src, {"A": A, "P": P_PTS})
    if isinstance(want, float):
        assert res.output == want
    else:
        assert [(tuple(x.start), tuple(x.stop), v) for (x,), v in res.output.pieces()] == want


def test_a_union_under_or_ends_its_loops_once_its_cell_is_true():
    # Out[k] is fixed by the k loop: once a write leaves it true, the walk
    # over i ends. Row 0 is true from its first piece on; row 1 never is
    rows = [[((0.0, 1.0), True), ((2.0, 3.0), True)], [((0.0, 1.0), False), ((2.0, 3.0), False)]]
    A = build_tensor("A", [("dense", 2), ("interval",)], rows, fill=False)
    B = build_tensor("B", [("interval",)], [((0.5, 2.5), False)], fill=False)
    src = "for k = 0:1\n  for i = -inf:inf\n    Out[k] |= A[k, i] || B[i]\n  end\nend\n"
    plan = compile_program(parse(src), {"A": A, "B": B})
    writes = [line for line in pretty(plan).splitlines() if "|=" in line]
    assert writes and all(line.endswith("then once true exit 1 loop") for line in writes)
    res = against_oracle(src, {"A": A, "B": B})
    assert list(res.output.pieces()) == [((0,), True), ((1,), False)]
    # row 1 walks every segment; row 0 stops in its first written one
    never = build_tensor("A", [("dense", 2), ("interval",)], [rows[1], rows[1]], fill=False)
    full = run(compile_program(parse(src), {"A": never, "B": B})).stats.segments_visited
    assert res.stats.segments_visited < full


def test_a_shift_that_moves_the_last_piece_past_the_loop_end():
    # in the loop's space A's pieces are [0.5, 1] and [3, 4]: the last lies past hi
    A = tensor_1d("A", [((-2.5, -2.0), 2.0), ((0.0, 1.0), 3.0)], 1.0, kind="interval")
    B = tensor_1d("B", [((0.0, 1.5), 4.0)], 0.0, kind="interval")
    res = against_oracle("for i = 0.0:2.0\n  Out[i] = A[i - 3.0] + B[i]\nend\n",
                         {"A": A, "B": B})
    assert [v for _, v in res.output.pieces()] == [5.0, 6.0, 5.0, 1.0]


@pytest.mark.parametrize("a, b", [([(0.25, 1.0)], [(0.5, 2.0)]), ([], [])])
def test_a_lone_stepper_that_runs_out_ends_the_loop_at_its_last_stop(a, b):
    # where B is a gap nothing is written, and B alone runs out: the loop
    # ends at B's last stop, not at the greatest of several
    A, B = tensor_1d("A", a, 0.0), tensor_1d("B", b, 0.0)
    res = against_oracle("for i = -inf:inf\n  for j = 0.0:2.0\n"
                         "    Out[i] += (-A[i] + -B[j]) * d(j)\n  end\nend\n", {"A": A, "B": B})
    assert [v for _, v in res.output.pieces()] == ([-2.0] if a else [])


@pytest.mark.parametrize("a, segments", [
    # the annihilating A ends before B and C do, and so does the loop: up to
    # C's start, B's start, and A's stop
    ([((0.0, 1.0), 2.0)], 3),
    # A runs on past both; where B and C are gaps nothing is written, so the
    # loop ends at C's last stop, 2, and visits none of A's pieces past it:
    # up to C's start, B's start, then the stops 0.5, 1, 1.5 and 2
    ([((k, k + 0.5), 2.0) for k in range(10)], 6),
])
def test_an_annihilating_factor_over_a_union(a, segments):
    A = tensor_1d("A", a, 0.0, kind="interval")
    B = tensor_1d("B", [((0.5, 1.0), 1.0)], 0.0, kind="interval")
    C = tensor_1d("C", [((0.25, 2.0), 5.0)], 0.0, kind="interval")
    res = against_oracle("for i = -inf:inf\n  Out[i] = A[i] * (B[i] + C[i])\nend\n",
                         {"A": A, "B": B, "C": C})
    assert res.stats.segments_visited == segments


@pytest.mark.parametrize("lo, sh, stop, step", [
    # stop < lo + 0.1 in the stored space, but stop - 0.1 == lo: seek steps back
    (-0.12, 0.1, -0.019999999999999993, -1),
    # stop >= lo + 0.37 in the stored space, but stop - 0.37 < lo: seek steps on
    (0.7, 0.37, 1.0699999999999998, 1),
])
def test_a_shifted_loop_start_that_rounds_onto_a_stored_stop(lo, sh, stop, step):
    A = tensor_1d("A", [((stop - 0.5, stop), 2.0), ((stop + 0.25, stop + 0.5), 3.0)], 0.0,
                  kind="interval")
    level = A.levels[0]
    assert executor._seek(level, 0, (lo, 0), sh) == level.seek(0, (lo + sh, 0)) + step
    B = tensor_1d("B", [((0.0, 5.0), 1.0)], 0.0, kind="interval")
    res = against_oracle(f"for i = {lo}:{lo + 1.0}\n  Out[i] = A[i + {sh}] + B[i]\nend\n",
                         {"A": A, "B": B})
    # A's first piece reaches the loop only where its stop meets lo, at lo
    first = next(iter(res.output.pieces()))
    if step < 0:
        assert first == ((Interval.closed(lo, lo),), 2.0)
    else:
        assert first[1] == 1.0  # B alone


# ---------------------------------------------------------------------------
# absorbing writes: once an |= or &= write leaves its cell true (false), the
# loops inside the one that fixed the cell end; the counters count only
# the work done. A holds three columns j over the pieces [0, 1], [2, 3] and
# [4, 5] of i, and B is true on [0.5, 4.5], so a co-iteration of both ends
# at 4.5 and meets three segments


def absorbing_inputs(rows, fill, dense_first=True):
    """A from rows, one per piece of i, each a value per j; B as above."""
    pieces = ((0.0, 1.0), (2.0, 3.0), (4.0, 5.0))
    if dense_first:
        A = build_tensor("A", [("dense", 3), ("interval",)],
                         [[(iv, row[j]) for iv, row in zip(pieces, rows)] for j in range(3)],
                         fill=fill)
    else:
        A = build_tensor("A", [("interval",), ("dense", 3)], list(zip(pieces, rows)),
                         fill=fill)
    B = tensor_1d("B", [((0.5, 4.5), True)], False, kind="interval")
    return {"A": A, "B": B}


OR_ROWS = ([True, False, False], [True, False, False], [False, True, False])


def test_an_absorbing_write_ends_the_loops_inside_the_one_that_fixed_its_cell():
    # j fixes the cell, so the first true write under a j ends the i loop:
    # j = 0 hits in its first segment, j = 1 in its third, j = 2 never
    src = "for j = 0:2\n  for i = -inf:inf\n    Out[j] |= A[j, i] && B[i]\n  end\nend\n"
    binds = absorbing_inputs(OR_ROWS, False)
    plan = compile_program(parse(src), binds)
    assert "then once true exit 1 loop" in pretty(plan) and "exits=1" in plan.key
    res = against_oracle(src, binds)
    assert list(res.output.values) == [True, True, False]
    assert res.stats == ExecStats(multiplies=7, segments_visited=7, pieces_emitted=0)


def test_a_cell_fixed_by_the_innermost_loop_ends_nothing():
    # the loops swapped: each write of a segment is into another cell, so
    # every segment writes all three
    src = "for i = -inf:inf\n  for j = 0:2\n    Out[j] |= A[i, j] && B[i]\n  end\nend\n"
    binds = absorbing_inputs(OR_ROWS, False, dense_first=False)
    plan = compile_program(parse(src), binds)
    assert "exit" not in pretty(plan) and "exits=1" not in plan.key
    assert "_hit" not in kernel_source(plan) and "if _val:" not in kernel_source(plan)
    res = against_oracle(src, binds)
    assert list(res.output.values) == [True, True, False]
    assert res.stats == ExecStats(multiplies=9, segments_visited=3, pieces_emitted=0)


def test_a_stored_false_ends_an_and_reduction_and_its_pieces_loop():
    # A alone annihilates under &= (fill true): a pieces loop, which counts
    # its 3 pieces up front and takes back those a false leaves unvisited.
    # j = 0 meets false at its third piece, j = 1 at its first: 3 + 1 + 3
    src = "for j = 0:2\n  for i = -inf:inf\n    Out[j] &= A[j, i]\n  end\nend\n"
    rows = ([True, False, True], [True, True, True], [False, True, True])
    binds = {"A": absorbing_inputs(rows, True)["A"]}
    plan = compile_program(parse(src), binds)
    assert "coiterate over its fiber (pieces):" in pretty(plan)
    assert "then once false exit 1 loop" in pretty(plan)
    assert re.search(r"if not _val:\n\s+_seg -= _p_A1_\d+_end - p_A1_\d+ - 1\n\s+break",
                     kernel_source(plan))
    res = against_oracle(src, binds)
    assert list(res.output.values) == [False, False, True]
    assert res.stats == ExecStats(multiplies=0, segments_visited=7, pieces_emitted=0)


@pytest.mark.parametrize("src, stats", [
    # the second segment, [2, 3], is the first true one
    ("for i = -inf:inf\n  Out |= A[0, i] && B[i]\nend\n", ExecStats(2, 2, 0)),
    # a pieces loop: 3 pieces counted, the third never visited
    ("for i = -inf:inf\n  Out |= A[1, i]\nend\n", ExecStats(0, 2, 0)),
], ids=["fingers", "pieces"])
def test_a_rank0_absorbing_write_returns_at_once(src, stats):
    binds = absorbing_inputs(([False, False, False], [True, True, False],
                              [True, True, False]), False)
    binds = {name: binds[name] for name in ("A", "B") if f"{name}[" in src}
    source = kernel_source(compile_program(parse(src), binds))
    assert source.count("return _seg, _mul, _emit, _out") == 2
    res = against_oracle(src, binds)
    assert res.output is True and res.stats == stats


# an |= into an interval rank: the write's cell is the region it writes,
# which no loop fixes, so no write ends a loop. The region is the outer
# pieces loop's stored piece, never empty: the write does not test it, and
# its key is bound once per outer piece
INTERVAL_OR = """\
def kernel(_b):
    _A_0_table = _b['A'].levels[0]
    _A_0_starts, _A_0_stops, _A_0_ptr = _A_0_table.starts, _A_0_table.stops, _A_0_table.ptr
    _A_1_table = _b['A'].levels[1]
    _A_1_starts, _A_1_stops, _A_1_ptr = _A_1_table.starts, _A_1_table.stops, _A_1_table.ptr
    _A_vals = _b['A'].values
    _out = {}
    _get = _out.get
    _seg = _mul = _emit = 0
    p_A0_0 = _A_0_ptr[0]
    _p_A0_0_end = _A_0_ptr[1]
    _seg += _p_A0_0_end - p_A0_0
    for p_A0_0 in range(p_A0_0, _p_A0_0_end):
        r_1_lo = _A_0_starts[p_A0_0]
        r_1_hi = _A_0_stops[p_A0_0]
        _key1 = ((r_1_lo, r_1_hi),)
        p_A1_2 = _A_1_ptr[p_A0_0]
        _p_A1_2_end = _A_1_ptr[p_A0_0 + 1]
        _seg += _p_A1_2_end - p_A1_2
        for p_A1_2 in range(p_A1_2, _p_A1_2_end):
            _emit += 1
            _val = (True if _A_vals[p_A1_2] else False)
            _out[_key1] = _get(_key1, False) or _val
    return _seg, _mul, _emit, _out
"""


def test_an_absorbing_write_into_an_interval_rank_ends_nothing():
    A = build_tensor("A", [("interval",), ("interval",)],
                     [((0.0, 1.0), [((0.0, 1.0), False), ((2.0, 3.0), True)]),
                      ((2.0, 3.0), [((1.0, 2.0), True)])], fill=False)
    src = "for i = -inf:inf\n  for j = -inf:inf\n    Out[i] |= A[i, j]\n  end\nend\n"
    assert kernel_source(compile_program(parse(src), {"A": A})) == INTERVAL_OR
    res = against_oracle(src, {"A": A})
    assert res.stats == ExecStats(multiplies=0, segments_visited=5, pieces_emitted=3)


A_ROWS = build_tensor("A", [("interval",), ("interval",)],
                     [((0.0, 1.0), [((0.0, 1.0), 1.5), ((2.0, 3.0), 2.0)]),
                      ((2.0, 3.0), [((1.0, 2.0), 3.0)])], fill=0.0)
B_ONE = tensor_1d("B", [((0.5, 2.5), 2.0)], 0.0, kind="interval")


@pytest.mark.parametrize("src, keyed", [
    ("for i = -inf:inf\n  for j = -inf:inf\n    Out[i, j] = A[i, j] * 2\n  end\nend\n", False),
    ("for i = -inf:inf\n  for j = -inf:inf\n    Out[i] += A[i, j] * B[j] * d(j)\n  end\nend\n",
     True),
], ids=["pieces_in_pieces", "fingers_in_pieces"])
def test_a_write_into_a_stored_piece_does_not_test_it(src, keyed):
    binds = {"A": A_ROWS, "B": B_ONE}
    code = kernel_source(compile_program(parse(src), binds))
    # a pieces loop's region is its stored piece, never empty; the finger
    # loop's segment region is still tested
    assert not re.search(r"if r_\d+_l[ov] ", code)
    assert bool(re.search(r"if r1_5_lv < (seg_\d+)_hv or r1_5_lv == \1_hv and .* <= \1_hi:\n",
                          code)) is keyed
    # a key on the outer piece is bound once per piece, where its region is
    assert ("        r_1_hi = _A_0_stops[p_A0_0]\n        _key1 = ((r_1_lo, r_1_hi),)\n"
            in code) is keyed
    against_oracle(src, binds)


def test_a_dense_position_is_bound_once_per_iteration_of_its_loop():
    # the grid kernel reads chr's fiber in two stepper loops, a range's last
    # stop and a probe, all through the one local bound under chr's loop
    k = kernels.get("genomic_overlap_grid")
    src = kernel_source(compile_program(k.program(), k.canonical()))
    assert src.count(" if 0 <= ") == 1
    assert re.search(r"for chr_0 in range\(0, 2\):\n\s+_pos1 = \(_i1 if 0 <= ", src)
    # the probe of every grid member reads the data fiber's ends, bound
    # under chr's loop with its test that chr's position is not -1
    at = re.search(r"for chr_0 in range\(0, 2\):\n(\s+.*\n)*?"
                   r"\s+(_beg\d+) = _Data_1_ptr\[_pos1\] if _pos1 >= 0 else 0\n"
                   r"\s+(_end\d+) = _Data_1_ptr\[_pos1 \+ 1\] if _pos1 >= 0 else 0\n", src)
    assert at and src.count(f"(_p := bisect_left(_Data_1_stops, (_t := (jd_") == 1
    assert re.search(rf"\(_p := bisect_left\(_Data_1_stops, \(_t := \(jd_\d+, 0\)\), {at[2]}, "
                     rf"{at[3]}\)\) < {at[3]} and _Data_1_starts\[_p\] <= _t else -1\)", src)
    assert "_pos1 >= 0 and" not in src and src.count("_Data_1_ptr[") == 2


# ---------------------------------------------------------------------------
# loop-invariant values bound at their home, and a reduction's workspace
# over its output's leading dense ranks


def genomic_side(name, per_chr):
    return build_tensor(name, [("dense", 2), ("pinpoint",), ("interval",)], per_chr, fill=False)


def test_the_naive_genomic_kernel_enters_a_query_fiber_once_per_id():
    k = kernels.get("genomic_overlap")
    lines = kernel_source(compile_program(k.program(), k.canonical())).splitlines()
    jd = next(n for n, line in enumerate(lines) if line.lstrip().startswith("for p_Data1_"))
    # the query fiber's ends and first stop are bound in the id loop, before
    # the jd loop, and read nowhere inside it; no last stop is read
    at = [n for n, line in enumerate(lines) if "_Query_2_ptr[" in line or "_Query_2_stops[_beg" in line]
    assert len(at) == 3 and max(at) < jd
    assert not any("_NO_STOP" in line for line in lines)
    # the write's row is chr's, bound under chr's loop, and its key the bare id
    assert "        _ws1 = _out[chr_0]" in lines
    assert lines.count(" " * 28 + "_ws1[id_2] = _val = _ws1.get(id_2, False) or _val") == 1


def test_the_grid_genomic_kernel_enters_a_query_fiber_once_per_id():
    k = kernels.get("genomic_overlap_grid")
    src = kernel_source(compile_program(k.program(), k.canonical()))
    lines = src.splitlines()
    x1 = next(n for n, line in enumerate(lines) if line.lstrip() == "while True:")
    # the x1 loop and the x2 loop inside it enter the query fiber from its
    # ends and first stop, bound once in the id loop, before x1
    at = [n for n, line in enumerate(lines) if "_Query_2_ptr[" in line or "_Query_2_stops[_beg" in line]
    assert len(at) == 3 and max(at) < x1
    beg, end = re.search(r"(_beg\d+) = _Query_2_ptr\[p_Query1_\d+\]\n\s+(_end\d+) = ", src).groups()
    assert len(re.findall(rf"p_Query2\d*_\d+ = {beg}\n", src)) == 2
    assert len(re.findall(rf"if p_Query2\d*_\d+ < {end} and ", src)) == 2


def test_an_empty_query_fiber_at_a_hoisted_entry():
    # chr 0 id 1 and chr 1 id 1 have no pieces: their hoisted entry is an
    # empty fiber's, so the x loop runs for no jd; the first stop, bound
    # with it, is never read. chr 0: 2 ids, 2 + 2 jd pieces, and id 2
    # meets jd 1 in its first segment (the second jd taken back); chr 1:
    # 1 id and 1 jd piece
    Query = genomic_side("Query", [[(1.0, []), (2.0, [((0.0, 1.0), True)])], [(1.0, [])]])
    Data = genomic_side("Data", [[(1.0, [((0.5, 2.0), True)]), (2.0, [((3.0, 4.0), True)])],
                                 [(1.0, [((0.0, 1.0), True)])]])
    res = against_oracle(kernels.get("genomic_overlap").source(), {"Query": Query, "Data": Data})
    assert list(res.output.pieces()) == [((0, Interval.closed(2.0, 2.0)), True)]
    assert res.stats == ExecStats(multiplies=1, segments_visited=8, pieces_emitted=1)


def test_a_missed_probe_under_a_hoisted_entry_ends_its_range():
    # the grid lists id 5, which Data lacks: its probe gives -1, whose fiber
    # the x2 loop, which reads the id's query fiber from the locals bound
    # per id, reads as an empty one, so it runs no segment there. Query id 2
    # then meets Data id 1
    Query = genomic_side("Query", [[(1.0, [((0.0, 1.0), True)]), (2.0, [((3.5, 3.8), True)])],
                                   []])
    Data = genomic_side("Data", [[(1.0, [((3.0, 4.0), True)])], []])
    Grid = build_tensor("Grid", [("dense", 2), ("interval",), ("pinpoint",)],
                        [[(((0.0, 0), (4.0, -1)), [(1.0, True), (5.0, True)])], []], fill=False)
    binds = {"Query": Query, "Data": Data, "Grid": Grid}
    k = kernels.get("genomic_overlap_grid")
    src = kernel_source(compile_program(k.program(), binds))
    assert re.search(r"p_Data2_(\d+), _p_Data2_\1_end = \(_Data_2_ptr\[(q_Data1_\d+)\], "
                     r"_Data_2_ptr\[\2 \+ 1\]\) if \2 >= 0 else \(0, 0\)\n(.*\n)*?"
                     r"\s+if p_Query21_\d+ < _end\d+ and p_Data2_\1 < _p_Data2_\1_end:\n", src)
    res = against_oracle(k.source(), binds)
    assert list(res.output.pieces()) == [((0, Interval.closed(2.0, 2.0)), True)]
    assert res.stats == ExecStats(multiplies=1, segments_visited=9, pieces_emitted=1)


def test_a_dense_fiber_past_its_rank_is_an_empty_one_where_it_is_hoisted():
    # k = 2 is past D's dense rank: D's fiber, bound under k's loop and read
    # in the x loop inside, keeps its test there and reads as empty
    src = ("for k = 0:2\n  for x = -inf:inf\n    for y = -inf:inf\n"
           "      Out[k] += D[k, y] * A[x] * d(x) * d(y)\n    end\n  end\nend\n")
    binds = {"D": D_TWO, "A": A_TWO}
    source = kernel_source(compile_program(parse(src), binds))
    assert re.search(r"_beg\d+ = _D_1_ptr\[(_pos\d+)\] if \1 >= 0 else 0\n", source)
    res = against_oracle(src, binds)
    assert list(res.output.values) == [7.0, 14.0, 0.0]
    assert res.stats == ExecStats(multiplies=4, segments_visited=10, pieces_emitted=0)


def test_an_absorbing_write_ends_three_loops():
    # i = 0: x's first piece, y's second and z's first make the first true
    # write, which ends the z, y and x loops; i = 1 is false everywhere
    A = build_tensor("A", [("dense", 2), ("interval",)],
                     [[((0.0, 1.0), True), ((2.0, 3.0), True)], [((0.0, 1.0), False)]], fill=False)
    B = tensor_1d("B", [((0.0, 1.0), False), ((2.0, 3.0), True)], False, kind="interval")
    C = tensor_1d("C", [((0.0, 1.0), True), ((5.0, 6.0), True)], False, kind="interval")
    src = ("for i = 0:1\n  for x = -inf:inf\n    for y = -inf:inf\n      for z = -inf:inf\n"
           "        Out[i] |= A[i, x] && B[y] && C[z]\n      end\n    end\n  end\nend\n")
    binds = {"A": A, "B": B, "C": C}
    plan = compile_program(parse(src), binds)
    assert "then once true exit 3 loops" in pretty(plan)
    assert kernel_source(plan).count("if _hit:") == 2
    res = against_oracle(src, binds)
    assert list(res.output.values) == [True, False]
    assert res.stats == ExecStats(multiplies=7, segments_visited=13, pieces_emitted=0)


def test_overlapping_pieces_in_one_dense_cell_combine_in_first_write_order():
    # cell 0 is written [1, 3] = 1, [0, 2] = 1e16, [1, 2] = -1e16 in that
    # order: on [1, 2], (1 + 1e16) - 1e16 is 0, the fill, and not stored,
    # where the reverse order would leave 1. Cell 1's pieces add on [0.5, 1]
    A = build_tensor("A", [("dense", 2), ("dense", 3), ("interval",)],
                     [[[((1.0, 3.0), 1.0)], [((0.0, 2.0), 1e16)], [((1.0, 2.0), -1e16)]],
                      [[((0.0, 1.0), 2.0)], [((0.5, 1.0), 3.0)], []]], fill=0.0)
    src = "for i = 0:1\n  for j = 0:2\n    for x = -inf:inf\n      Out[i, x] += A[i, j, x]\n    end\n  end\nend\n"
    source = kernel_source(compile_program(parse(src), {"A": A}))
    assert "_out = [{} for _ in range(2)]" in source
    res = against_oracle(src, {"A": A})
    assert list(res.output.pieces()) == [
        ((0, Interval.right_open(0.0, 1.0)), 1e16), ((0, Interval.left_open(2.0, 3.0)), 1.0),
        ((1, Interval.right_open(0.0, 0.5)), 2.0), ((1, Interval.closed(0.5, 1.0)), 5.0)]
    assert res.stats == ExecStats(multiplies=0, segments_visited=5, pieces_emitted=5)


def test_a_finger_entered_two_loops_inside_the_home_of_its_fiber():
    # D's fiber is fixed by k, two loops outside the y fingers: its ends and
    # first stop are bound under k's loop. k = 1's fiber is empty and k = 2
    # is past D's dense rank (fiber -1); both give an empty y range. k = 0:
    # D * C is 1 * 3 on [0.5, 1] and 4 * 3 on [2, 2.5], times A's integral 7
    D = build_tensor("D", [("dense", 2), ("interval",)],
                     [[((0.0, 1.0), 1.0), ((2.0, 3.0), 4.0)], []], fill=0.0)
    C = tensor_1d("C", [((0.5, 2.5), 3.0)], 0.0, kind="interval")
    src = ("for k = 0:2\n  for x = -inf:inf\n    for y = -inf:inf\n"
           "      Out[k] += D[k, y] * C[y] * A[x] * d(x) * d(y)\n    end\n  end\nend\n")
    binds = {"D": D, "C": C, "A": A_TWO}
    source = kernel_source(compile_program(parse(src), binds))
    beg, end, first = re.search(
        r"for k_0 in range\(0, 3\):\n\s+(_pos\d+) = .*\n"
        r"\s+(_beg\d+) = _D_1_ptr\[\1\] if \1 >= 0 else 0\n"
        r"\s+(_end\d+) = _D_1_ptr\[\1 \+ 1\] if \1 >= 0 else 0\n"
        r"\s+(_first\d+) = _D_1_stops\[\2\] if \2 < \3 else _PAST\n", source).groups()[1:]
    # it enters there, and takes the first stop once its loop tests that it has a piece
    assert re.search(rf"p_D1_(\d+) = {beg}\n(.*\n)*?\s+if p_D1_\1 < {end} and .*:\n"
                     rf"\s+_p_D1_\1_stop = {first}\n", source)
    assert re.search(rf"if p_D1_\d+ == {end}:", source)
    res = against_oracle(src, binds)
    assert list(res.output.values) == [52.5, 0.0, 0.0]
    assert res.stats == ExecStats(multiplies=4, segments_visited=10, pieces_emitted=0)


def test_a_nan_in_an_all_dense_output_is_diagnosed():
    # inf + -inf in cell 0. With no continuous rank, the output has no
    # workspace: its cells are a dict by path
    A = build_tensor("A", [("dense", 2), ("interval",)],
                     [[((0.0, 1.0), math.inf), ((2.0, 3.0), -math.inf)], [((0.0, 1.0), 2.0)]],
                     fill=0.0)
    src = "for i = 0:1\n  for x = -inf:inf\n    Out[i] += A[i, x] * d(x)\n  end\nend\n"
    plan = compile_program(parse(src), {"A": A})
    assert "_out = {}" in kernel_source(plan)
    res = run(plan)
    want = oracle.evaluate(parse(src), {"A": A})
    got, expect = list(res.output.values), list(want.values)
    assert got[0] != got[0] and expect[0] != expect[0] and got[1] == expect[1] == 2.0
    assert res.diagnostics == ["output Out contains NaN values"]
    assert res.stats == ExecStats(multiplies=0, segments_visited=3, pieces_emitted=0)


def test_a_dense_cell_written_only_with_the_fill_holds_an_empty_fiber():
    # cell 1's pieces sum to 0.0 and cell 2's is 0.0: both are the fill, and
    # dropped from their cells. Dense output indices run from 0 (a negative
    # start is a CompileError, see test_negative_dense_output_range_rejected),
    # so each indexes the workspace directly
    A = build_tensor("A", [("dense", 3), ("dense", 2), ("interval",)],
                     [[[((0.0, 1.0), 3.0)], []], [[((0.0, 1.0), 1.0)], [((0.0, 1.0), -1.0)]],
                      [[((0.0, 1.0), 0.0)], []]], fill=0.0)
    src = ("for i = 0:2\n  for j = 0:1\n    for x = -inf:inf\n"
           "      Out[i, x] += A[i, j, x]\n    end\n  end\nend\n")
    source = kernel_source(compile_program(parse(src), {"A": A}))
    assert re.search(r"_ws\d+ = _out\[i_0\]\n", source) and "int(" not in source
    res = against_oracle(src, {"A": A})
    assert list(res.output.pieces()) == [((0, Interval.closed(0.0, 1.0)), 3.0)]
    assert res.output.levels[1].ptr == (0, 1, 1, 1)
    assert res.stats == ExecStats(multiplies=0, segments_visited=4, pieces_emitted=4)
    # a value equal to the fill but not the fill itself is dropped from its
    # cell too, as a record path drops a record equal to it
    writes = (Write("Out", (("d", Num(0)), ("p", Num(1.0))), "|=", Num(0.0)),
              Write("Out", (("d", Num(1)), ("p", Num(2.0))), "|=", BoolC(True)))
    out = run(Plan(Block(writes), OutputDecl("Out", (("dense", 2), ("pinpoint",)), False), 0)).output
    assert out.levels[1].ptr == (0, 0, 1) and out.values == (True,)


# ---------------------------------------------------------------------------
# a write copies a region's ends as they are where no end needs the open
# -inf or inf: every stored end lies between them


INF_ENDS = {"A": tensor_1d("A", [((-math.inf, 0.0), 2.0), ((1.0, math.inf), 3.0)]),
            "B": tensor_1d("B", [((-1.0, 0.5), 5.0), ((0.75, math.inf), 7.0)])}


def test_a_finger_write_appends_its_region_ends_unclamped():
    src = "for i = -inf:inf\n  C[i] = A[i] * B[i]\nend\n"
    source = kernel_source(compile_program(parse(src), INF_ENDS))
    assert "_NEG_OPEN" not in source and "_POS_OPEN" not in source
    # the region's stop is the segment's
    r, seg = re.search(r"_put0\((r_\d+)_lo\)\n\s+_put1\((seg_\d+)_hi\)", source).groups()
    # the guard's test is the write's: it is rendered once
    assert source.count(f"if {r}_lv < {seg}_hv or {r}_lv == {seg}_hv and {r}_lo <= {seg}_hi:") == 1
    assert source.count(f"{r}_lo <= ") == 1
    res = against_oracle(src, INF_ENDS)
    assert list(res.output.pieces()) == [
        ((Interval(Limit(-1.0), Limit(0.0)),), 10.0),
        ((Interval(Limit(1.0), Limit(math.inf, -1)),), 21.0)]


def test_a_shifted_walk_write_keeps_the_clamp():
    src = "for i = -inf:inf\n  Out[i] = A[i + 1.0]\nend\n"
    assert "_NEG_OPEN if" in kernel_source(compile_program(parse(src), INF_ENDS))
    res = against_oracle(src, INF_ENDS)
    assert list(res.output.pieces()) == [
        ((Interval(Limit(-math.inf, 1), Limit(-1.0)),), 2.0),
        ((Interval(Limit(0.0), Limit(math.inf, -1)),), 3.0)]


def test_a_write_over_a_finite_range_is_unclamped():
    src = "for i = 0.5:2.5\n  Out[i] = A[i]\nend\n"
    source = kernel_source(compile_program(parse(src), INF_ENDS))
    assert "_NEG_OPEN" not in source and "_POS_OPEN" not in source
    res = against_oracle(src, INF_ENDS)
    assert list(res.output.pieces()) == [((Interval.closed(1.0, 2.5),), 3.0)]


@pytest.mark.parametrize("op", ["|=", "&="])
def test_a_logical_reduction_of_numbers_stores_bools(op):
    A = build_tensor("A", [("dense", 3)], [0.0, 2.0, 0.0])
    src = f"for i = 0:2\n  Out[i] {op} A[i]\nend\n"
    res = against_oracle(src, {"A": A})
    assert list(res.output.pieces()) == [((0,), False), ((1,), True), ((2,), False)]
    assert all(type(v) is bool for v in res.output.values)
