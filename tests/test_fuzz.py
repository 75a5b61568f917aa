"""Differential fuzzing: random programs, compiled and run, against the oracle.

The strategy draws programs of the shape the validator accepts: one or
two nested loops (continuous or discrete), or three (a dense one over
two continuous ones) for an ``|=`` or ``&=`` into a cell the outer one
fixes, accesses whose indices are shifts ``i + j + c`` (now and then two
or three unshifted ones whose fills annihilate, joined by ``*`` or
``&&``: an intersection, which a finger loop co-iterates; or three to
five in one loop joined by ``+``, ``-`` or ``||``, now and then all of
them points: a union, whose accesses all run out), right-hand
sides joined by ``*``, ``+`` and ``-`` (numeric, an operand negated or
divided by a nonzero constant) or ``&&`` and ``||`` (boolean, an operand
negated or ``true``/``false`` joined in), every assignment operator, and
inputs with pinpoint, interval, regular and dense levels (a dense one
now and then narrower than its loop), fills and off-pitch float
endpoints, now and then from a coarse grid all inputs of a program
share, so that their pieces tie. A program the compiler rejects with a
``CompileError`` (a ``ValidityError`` among them) is skipped; one it
accepts must not reach the internal errors (``UnloweredError``,
``ExecError``), and its whole output must equal the one reference,
``oracle.evaluate``: the same shape, fill and piece list, values within
a relative 1e-9. The oracle builds the canonical output the executor
builds, so no difference is excused.
"""

import math

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from contensor import executor
from contensor.compiler import CompileError, ValidityError, compile_program
from contensor.executor import kernel_source, run
from contensor.lang import parse
from contensor.limits import Limit
from contensor.oracle import OracleError, evaluate, outputs_match
from contensor.storage import OverlapError, build_tensor

INF = math.inf
CONT_BOUNDS = [(-INF, INF), (-INF, INF), (-INF, 0.9), (-0.4, INF),
               (-1.3, 2.7), (0.15, 1.6), (-2.25, 0.61)]
SHIFTS = [0.0, 0.0, 0.37, -1.1, 2.0]
NUM_VALUES = [1.0, 2.0, -1.5, 0.5, 3.0, 0.0]
DIVISORS = [2.0, -0.5, 3.0]  # never 0: "/" by 0 raises DivisionByZeroError on both sides
INTERVAL_KINDS = ["closed", "open", "left_open", "right_open"]
# finite, off the 0.05 pitch the shipped generators use
ENDPOINTS = st.integers(-3000, 3000).map(lambda k: k / 1000 + 0.0007)
# a grid every input of a program draws from now and then, so that inputs
# share endpoints: stops that tie across inputs, and one value closed in
# one input and open in another
TIED_ENDPOINTS = st.integers(-12, 12).map(lambda k: k / 4 + 0.0007)


@st.composite
def sparse_keys(draw, kind, ends):
    n = draw(st.integers(0, 4))
    if kind[0] == "regular":
        return draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n, unique=True).map(sorted))
    if kind[0] == "pinpoint":
        return draw(st.lists(ends, min_size=n, max_size=n, unique=True).map(sorted))
    cuts = draw(st.lists(ends, min_size=2 * n, max_size=2 * n, unique=True).map(sorted))
    # ends at -inf and inf, where an open and a closed end hold the same set
    if cuts and draw(st.booleans()):
        cuts[0] = -INF
    if cuts and draw(st.booleans()):
        cuts[-1] = INF
    return [(cuts[2 * j], cuts[2 * j + 1], draw(st.sampled_from(INTERVAL_KINDS)))
            for j in range(n)]


@st.composite
def fiber(draw, specs, values, ends):
    """Nested build_tensor input for the levels in specs, its sparse keys
    drawn from ends."""
    if not specs:
        return draw(values)
    spec, rest = specs[0], specs[1:]
    if spec[0] == "dense":
        return [draw(fiber(rest, values, ends)) for _ in range(spec[1])]
    return [(k, draw(fiber(rest, values, ends))) for k in draw(sparse_keys(spec, ends))]


@st.composite
def level_spec(draw):
    kind = draw(st.sampled_from(["pinpoint", "interval", "regular"]))
    if kind != "regular":
        return (kind,)
    stride = draw(st.sampled_from([0.5, 1.25]))
    length = draw(st.sampled_from([0.0, 0.3, stride]))
    # touching pieces overlap when both ends are closed
    rclose = False if length == stride else draw(st.booleans())
    return ("regular", stride, length, rclose)


@st.composite
def programs(draw):
    """(source, bindings) of a random program over random inputs."""
    loops = []
    # a dense rank over an unshifted continuous one under the whole line: a
    # lone stepper there runs over a fiber a dense index picks, -1 past the
    # rank's size
    dense_fiber = draw(st.integers(0, 7)) == 0
    if dense_fiber:
        loops = [("i", False, 0, draw(st.integers(0, 2))), ("j", True, -INF, INF)]
    # an |= or &= into a cell only a dense outer loop fixes, over two
    # continuous loops inside it: a write that leaves the cell absorbing
    # ends both
    absorbing = not dense_fiber and draw(st.integers(0, 7)) == 0
    if absorbing:
        loops = [("i", False, 0, draw(st.integers(0, 2))),
                 ("j", True, *draw(st.sampled_from(CONT_BOUNDS))),
                 ("k", True, *draw(st.sampled_from(CONT_BOUNDS)))]
    # an intersection: one continuous loop over two or three unshifted
    # interval accesses whose fills annihilate, joined by * or &&, which a
    # finger loop co-iterates
    meet = not dense_fiber and not absorbing and draw(st.integers(0, 5)) == 0
    # a union: one continuous loop over three to five accesses joined by
    # +, - or ||, none of which annihilates; now and then all of them points
    union = not dense_fiber and not absorbing and not meet and draw(st.integers(0, 5)) == 0
    points = union and draw(st.booleans())
    if meet or union:
        loops = [("i", True, *draw(st.sampled_from(CONT_BOUNDS)))]
    for var in ["i", "j"][: 0 if dense_fiber or absorbing or meet or union
                          else draw(st.integers(1, 2))]:
        if draw(st.integers(0, 3)):
            lo, hi = draw(st.sampled_from(CONT_BOUNDS))
            loops.append((var, True, lo, hi))
        else:
            loops.append((var, False, 0, draw(st.integers(0, 2))))
    cont = [l for l in loops if l[1]]
    boolean = absorbing or draw(st.booleans())
    if boolean:
        op = draw(st.sampled_from(["|=", "&="] if absorbing else ["=", "|=", "&="]))
        joins = ["&&"] if meet else ["||"] if union else ["&&", "||"]
        values = st.booleans()
    else:
        op = draw(st.sampled_from(["=", "+=", "max=", "min="]))
        joins = ["*"] if meet else ["+", "-"] if union else ["*", "+", "-"]
        values = st.sampled_from(NUM_VALUES)
    out_vars = loops[:1] if absorbing else [l for l in loops if draw(st.booleans())]
    integral = op == "+=" and any(l[1] and l not in out_vars and INF in (-l[2], l[3])
                                  for l in loops)

    ends = TIED_ENDPOINTS if draw(st.integers(0, 2)) == 0 else ENDPOINTS
    binds, accesses = {}, []
    for name in "ABCDE"[: draw(st.integers(3, 5) if union else st.integers(2 if meet else 1, 3))]:
        first = (dense_fiber or absorbing) and not accesses
        used = loops if first or meet else ([l for l in loops if draw(st.booleans())]
                                            or [draw(st.sampled_from(loops))])
        indices, specs = [], []
        for l in used:
            ix = l[0]
            if l[1]:
                # a shift by the other continuous index, then by a constant
                other = [c for c in cont if c is not l]
                if other and draw(st.integers(0, 3)) == 0:
                    ix += f" + {other[0][0]}"
                c = 0.0 if first or meet else draw(st.sampled_from(SHIFTS))
                if c:
                    ix += f" + {c}"
                specs.append(("interval",) if meet else ("pinpoint",) if points
                             else draw(level_spec()))
            else:
                specs.append(("dense", draw(st.integers(1, l[3] + 1)) if first else l[3] + 1))
            indices.append(ix)
        if meet:
            fill = False if boolean else 0.0
        elif boolean:
            fill = draw(st.booleans())
        else:
            # an integral over the whole line is only finite with fill 0
            fill = 0.0 if integral else draw(st.sampled_from([0.0, 0.0, 1.0, -2.0]))
        binds[name] = build_tensor(name, specs, draw(fiber(specs, values, ends)), fill=fill)
        access = f"{name}[{', '.join(indices)}]"
        form = 5 if meet else draw(st.integers(0, 5))
        if form == 0:
            access = ("!" if boolean else "-") + access
        elif form == 1 and not boolean:
            access = f"({access} / {draw(st.sampled_from(DIVISORS))})"
        accesses.append(access)
    if boolean and not meet and draw(st.integers(0, 3)) == 0:
        accesses.append(draw(st.sampled_from(["true", "false"])))

    rhs = accesses[0]
    for a in accesses[1:]:
        rhs = f"({rhs} {draw(st.sampled_from(joins))} {a})"
    if op == "+=":
        for l in cont:
            if l not in out_vars:
                rhs += f" * d({l[0]})"
    target = "Out" + (f"[{', '.join(l[0] for l in out_vars)}]" if out_vars else "")
    lines, pad = [], ""
    for var, continuous, lo, hi in loops:
        if continuous:
            lines.append(f"{pad}for {var} = {_bound(lo)}:{_bound(hi)}")
        else:
            lines.append(f"{pad}for {var} = {lo}:{hi}")
        pad += "  "
    lines.append(f"{pad}{target} {op} {rhs}")
    for _ in loops:
        pad = pad[:-2]
        lines.append(f"{pad}end")
    return "\n".join(lines) + "\n", binds


def _bound(v: float) -> str:
    return {INF: "inf", -INF: "-inf"}.get(v, repr(float(v)))


def outcome(fn):
    """The result, or the type of a user-level error both paths may raise."""
    try:
        return fn()
    except OverlapError as e:
        return type(e)


def same_output(got, want) -> bool:
    """Whole outputs equal: the same shape, fill and piece list, each
    value within rel 1e-9 or NaN on both sides (a divergent integral,
    inf - inf)."""
    def close(g, w):
        return outputs_match(g, w, rel=1e-9) or g != g and w != w

    if not (hasattr(got, "levels") and hasattr(want, "levels")):
        return close(got, want)
    pg, pw = list(got.pieces()), list(want.pieces())
    return ((got.ndim, got.fill) == (want.ndim, want.fill) and len(pg) == len(pw)
            and all(kg == kw and close(g, w) for (kg, g), (kw, w) in zip(pg, pw)))


def test_random_programs_agree_with_the_oracle():
    """Every valid program the strategy draws gives the oracle's whole
    output, or raises the error the oracle raises; the kernel it ran is the
    one a fresh render of its plan gives. A draw already checked in this run (the same source
    over the same inputs) is skipped, so the budget goes to new programs."""
    seen = set()

    @settings(max_examples=1000, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(programs())
    def check(case):
        src, binds = case
        key = (src, *((name, t.fill, tuple(t.pieces())) for name, t in sorted(binds.items())))
        assume(key not in seen)
        program = parse(src)
        try:
            plan = compile_program(program, binds)
        except CompileError:  # includes ValidityError
            assume(False)
        try:
            want = outcome(lambda: evaluate(program, binds))
        except OracleError:
            assume(False)  # outside what the oracle evaluates
        got = outcome(lambda: run(plan).output)
        # the kernel cache's key tells apart every pair of plans that render differently
        assert executor._kernel(plan).source == kernel_source(plan), src
        if isinstance(want, type) or isinstance(got, type):
            assert got is want, src
        else:
            assert same_output(got, want), (src, got, want)
        # only once it passed: a failing draw must fail again when replayed
        seen.add(key)

    check()
    assert len(seen) >= 100, len(seen)


def both(src, binds):
    program = parse(src)
    return run(compile_program(program, binds)).output, evaluate(program, binds)


def test_output_shape_of_nonzero_fill_points():
    # the fill tail writes intervals, so A's points join them as point pieces
    A = build_tensor("A", [("pinpoint",)], [(0.5, False)], fill=True)
    got, want = both("for i = -inf:inf\n  Out[i] = A[i]\nend\n", {"A": A})
    assert outputs_match(got, want)
    assert [v for _, v in got.pieces()] == [True, True]


@pytest.mark.parametrize("src, pieces", [
    ("for i = -inf:inf\n  Out[i] = !P[i]\nend\n",
     # the point at 2.0 is written true and merges with the gaps beside it
     [((-INF, 1), (0.5, -1), True), ((0.5, 1), (1.5, -1), True),
      ((1.5, 1), (3.0, -1), True), ((3.0, 1), (INF, -1), True)]),
    ("for i = -inf:inf\n  Out[i] = P[i] || A[i]\nend\n",
     [((0.0, 0), (1.0, 0), True), ((1.5, 0), (1.5, 0), True), ((3.0, 0), (3.0, 0), True)]),
], ids=["not", "or"])
def test_points_and_intervals_share_an_output_rank(src, pieces):
    # some regions pin i and others leave it an interval: the pinned
    # writes become point pieces of the interval rank
    P = build_tensor("P", [("pinpoint",)], [(0.5, True), (1.5, True), (2.0, False),
                                           (3.0, True)], fill=False)
    A = build_tensor("A", [("interval",)], [((0.0, 1.0), True), ((1.5, 2.5, "open"), False)],
                     fill=False)
    program = parse(src)
    plan = compile_program(program, {"P": P, "A": A})
    assert plan.output.comps == (("interval",),)
    got, want = run(plan).output, evaluate(program, {"P": P, "A": A})
    assert outputs_match(got, want)
    assert [(*(tuple(x) for x in path[0]), v) for path, v in got.pieces()] == pieces


@pytest.mark.parametrize("src, a, b", [
    # only B's fill annihilates: B pins i and A is probed at B's points
    ("for i = -inf:inf\n  Out |= A[i] && B[i]\nend\n",
     ([(0.5, False), (1.5, True)], True), ([(0.5, False), (2.5, True)], False)),
    # neither fill annihilates a sum: both point inputs are co-iterated
    ("for i = -inf:inf\n  Out += (A[i] + B[i]) * d(i)\nend\n",
     ([(0.5, 1.0), (1.5, 2.0)], 0.0), ([(0.5, 1.0), (2.5, 2.0)], 0.0)),
], ids=["and", "sum"])
def test_only_an_annihilating_point_input_pins_the_index(src, a, b):
    A = build_tensor("A", [("pinpoint",)], a[0], fill=a[1])
    B = build_tensor("B", [("pinpoint",)], b[0], fill=b[1])
    got, want = both(src, {"A": A, "B": B})
    assert outputs_match(got, want)


def rejected(src, binds):
    """The rule codes compile_program rejects the program with."""
    with pytest.raises(ValidityError) as e:
        compile_program(parse(src), binds)
    return [d.code for d in e.value.diags]


def test_a_point_input_whose_fill_does_not_annihilate_pins_nothing():
    # C's fill 1.0 leaves A[i + j] readable off C's points, so i stays a
    # continuum there and A's rank is never resolved
    A = build_tensor("A", [("interval",)], [((0.0, 1.0), 3.0)])
    C = build_tensor("C", [("pinpoint",)], [(0.5, 2.0)], fill=1.0)
    assert rejected("for i = -inf:inf\n  for j = -inf:inf\n    Out max= A[i + j] * C[i]\n"
                    "  end\nend\n", {"A": A, "C": C}) == ["R-PIN"]


def test_a_sum_over_a_continuum_needs_points_whose_fill_annihilates():
    # off C's points the summand is A's 3.0 times C's fill 1.0: the sum over i diverges
    A = build_tensor("A", [("interval",)], [((0.0, 2.0), 3.0)])
    C = build_tensor("C", [("pinpoint",)], [(0.5, 2.0)], fill=1.0)
    assert rejected("for i = -inf:inf\n  s += A[i] * C[i]\nend\n", {"A": A, "C": C}) == ["R-SUM"]


def test_an_empty_point_input_pins_nothing():
    A = build_tensor("A", [("dense", 1)], [1.0])
    C = build_tensor("C", [("pinpoint",)], [])
    assert rejected("for i = 0:0\n  for j = -inf:inf\n    Out = A[i] + C[j]\n  end\nend\n",
                    {"A": A, "C": C}) == ["R-SUM"]


def test_the_oracle_merges_pieces_above_the_last_rank():
    # the regions [0.25], (0.25, 0.75) and [0.75] of i each write one
    # piece, and equal touching pieces merge at every rank
    A = build_tensor("A", [("interval",)], [((0.25, 0.75), 1.0)])
    got, want = both("for i = -inf:inf\n  for j = 0:0\n    Out[i, j] = A[i]\n  end\nend\n",
                     {"A": A})
    assert outputs_match(got, want)


def test_the_oracle_combines_overlapping_pieces_of_a_reduction():
    # each point of P shifts A's pieces along j differently
    A = build_tensor("A", [("interval",)], [((0.0, 2.0), 3.0)], fill=1.0)
    P = build_tensor("P", [("pinpoint",)], [(0.0, True), (1.0, True)], fill=False)
    got, want = both("for i = -inf:inf\n  if P[i]\n    for j = -inf:inf\n      Out[j] max= A[j + i]\n"
                     "    end\n  end\nend\n", {"A": A, "P": P})
    assert outputs_match(got, want)


def test_a_point_adds_nothing_to_an_integral_over_an_infinite_region():
    # d(i) at a pinned i weighs 0, even beside d(j) over the whole line
    A = build_tensor("A", [("pinpoint",)], [(-2.0563, 2.0)])
    got, want = both("for i = -2.25:0.61\n  for j = -inf:inf\n    Out += A[i] * d(i) * d(j)\n"
                     "  end\nend\n", {"A": A})
    assert got == 0.0
    assert want == 0.0


def test_overlapping_reduction_pieces_agree_with_the_oracle():
    # each point of P, and each i of C, cuts Out's pieces differently
    A = build_tensor("A", [("interval",)], [((0.0, 2.0), 3.0)], fill=1.0)
    P = build_tensor("P", [("pinpoint",)], [(0.0, 1.0), (1.0, 2.0)], fill=0.0)
    got, want = both("for i = -inf:inf\n  for j = -inf:inf\n    Out[j] += P[i] * A[j + i]\n"
                     "  end\nend\n", {"A": A, "P": P})
    assert outputs_match(got, want)
    assert [v for _, v in got.pieces()] == [3.0, 7.0, 9.0, 5.0, 3.0]
    C = build_tensor("C", [("dense", 2), ("interval",)],
                     [[((-INF, 2.0, "left_open"), 1.0)], [((1.0, INF, "right_open"), 5.0)]])
    got, want = both("for i = 0:1\n  for j = -inf:inf\n    Out[j] min= C[i, j]\n  end\nend\n",
                     {"C": C})
    assert outputs_match(got, want)
    assert [v for _, v in got.pieces()] == [0.0, 1.0, 0.0]


def test_a_zero_summand_adds_nothing_on_an_infinite_region():
    A = build_tensor("A", [("dense", 1)], [0.0])
    got, want = both("for i = -inf:inf\n  for j = 0:0\n    Out[j] += A[j] * d(i)\n  end\nend\n",
                     {"A": A})
    assert outputs_match(got, want)
    assert list(got.pieces()) == [((0,), 0.0)]


def test_reductions_over_an_outer_loop_combine_overlapping_pieces():
    # each i cuts Out's pieces differently; max= combines them per region
    A = build_tensor("A", [("dense", 2), ("interval",)],
                     [[((0.0, 2.0), 1.0)], [((1.0, 3.0), 5.0)]])
    got, want = both("for i = 0:1\n  for j = -inf:inf\n    Out[j] max= A[i, j]\n  end\nend\n",
                     {"A": A})
    assert outputs_match(got, want)
    # A's fill 0.0 beats the output fill -inf off A's pieces
    assert [v for _, v in got.pieces()] == [0.0, 1.0, 5.0, 0.0]


def test_reductions_combine_overlapping_pieces_above_the_last_rank():
    # each k cuts i differently, so the pieces of Out's outer rank overlap:
    # they are split where any of them ends and combined before the rank
    # below is built
    A = build_tensor("A", [("dense", 2), ("interval",)],
                     [[((0.0, 2.0), 1.0)], [((1.0, 3.0), 5.0)]])
    B = build_tensor("B", [("dense", 2)], [1.0, 2.0])
    got, want = both("for k = 0:1\n  for i = -inf:inf\n    for c = 0:1\n"
                     "      Out[i, c] += A[k, i] * B[c]\n    end\n  end\nend\n", {"A": A, "B": B})
    assert outputs_match(got, want)
    assert [(tuple(i.start), tuple(i.stop), c, v) for (i, c), v in got.pieces()] == [
        ((0.0, 0), (1.0, -1), 0, 1.0), ((0.0, 0), (1.0, -1), 1, 2.0),
        ((1.0, 0), (2.0, 0), 0, 6.0), ((1.0, 0), (2.0, 0), 1, 12.0),
        ((2.0, 1), (3.0, 0), 0, 5.0), ((2.0, 1), (3.0, 0), 1, 10.0),
    ]


def test_assigning_the_fill_twice_is_not_a_double_assignment():
    A = build_tensor("A", [("dense", 2)], [0.0, 0.0])
    got, want = both("for i = 0:1\n  Out = A[i]\nend\n", {"A": A})
    assert got == want == 0.0


def test_pieces_reaching_infinity_are_open_there():
    A = build_tensor("A", [("pinpoint",)], [])
    got, want = both("for i = -inf:inf\n  Out[i] max= A[i]\nend\n", {"A": A})
    assert outputs_match(got, want)
    (((iv,), v),) = got.pieces()
    assert (iv.start, iv.stop, v) == (Limit(-INF, 1), Limit(INF, -1), 0.0)


@pytest.mark.parametrize("key", [(1.0, INF, "right_open"), (-INF, 1.0, "left_open")])
def test_an_open_end_at_infinity_leaves_no_empty_piece(key):
    # the fill tail past such an end is a point at inf: no real number
    A = build_tensor("A", [("interval",)], [(key, 5.0)])
    got, want = both("for x = -inf:inf\n  Out[x] max= A[x]\nend\n", {"A": A})
    assert outputs_match(got, want)
    assert [v for _, v in got.pieces()] == ([0.0, 5.0] if key[0] == 1.0 else [5.0, 0.0])


@pytest.mark.parametrize("lo, hi", [(1.0, INF), (-INF, 1.0)])
def test_closed_and_open_ends_at_infinity_write_one_piece(lo, hi):
    # written in two iterations of i, the pieces hold the same set
    kind = "right_open" if hi == INF else "left_open"
    A = build_tensor("A", [("dense", 2), ("interval",)],
                     [[((lo, hi, "closed"), 5.0)], [((lo, hi, kind), 3.0)]])
    src = "for i = 0:1\n  for j = -inf:inf\n    Out[j] {} A[i, j]\n  end\nend\n"
    got, want = both(src.format("max="), {"A": A})
    assert outputs_match(got, want)
    assert sorted(v for _, v in got.pieces()) == [0.0, 5.0]
    for run_one in (lambda p: run(compile_program(p, {"A": A})), lambda p: evaluate(p, {"A": A})):
        with pytest.raises(OverlapError):
            run_one(parse(src.format("=")))


@pytest.mark.parametrize("src, key, fill, value", [
    ("for i = -0.4:inf\n  Out |= A[i]\nend\n", (-0.4003, INF, "open"), True, False),
    ("for i = -inf:0.2\n  Out |= A[i]\nend\n", (-INF, 0.5, "open"), True, False),
    ("for i = -inf:inf\n  Out min= A[i]\nend\n", (-INF, INF, "open"), 1.0, 5.0),
], ids=["to_inf", "from_-inf", "whole_line"])
def test_a_loop_end_at_infinity_is_open(src, key, fill, value):
    # A covers the whole loop; a closed end at -inf or inf would add a
    # point there that reads A's fill
    binds = {"A": build_tensor("A", [("interval",)], [(key, value)], fill=fill)}
    program = parse(src)
    got = run(compile_program(program, binds)).output
    assert got == evaluate(program, binds) == value


@pytest.mark.parametrize("src, binds", [
    ("for i = -inf:inf\n  Out = A[i + 0.37] * B[i + 0.37]\nend\n",
     {"A": [(0.0007, 1.0)], "B": [(0.0007, 1.0)]}),
    ("for i = -inf:inf\n  Out = (A[i] + B[i + 0.37]) * C[i]\nend\n",
     {"A": [], "B": [((0.0017, 0.3857), 1.0)], "C": [(0.0157, 1.0)]}),
], ids=["stored_point", "past_the_end"])
def test_a_shifted_probe_compares_in_the_loops_space(src, binds):
    # adding the shift back to a pinned i need not give the stored end:
    # (0.0007 - 0.37) + 0.37 != 0.0007, and 0.0157 + 0.37 == 0.3857 though
    # 0.3857 - 0.37 < 0.0157; a probe compares stored ends minus the shift
    # with i, as the stepper and the oracle do
    tensors = {n: build_tensor(n, [("interval",) if v and isinstance(v[0][0], tuple)
                                   else ("pinpoint",)], v) for n, v in binds.items()}
    got, want = both(src, tensors)
    assert got == want


@pytest.mark.parametrize("index", ["i - 1.1", "i + -1.1"])
def test_an_index_may_subtract_a_constant(index):
    A = build_tensor("A", [("interval",)], [((0.25, 0.5), 2.0), ((0.75, 1.5), 3.0)])
    got, want = both(f"for i = -inf:inf\n  Out[i] = A[{index}]\nend\n", {"A": A})
    assert outputs_match(got, want)
    assert [(tuple(iv.start), tuple(iv.stop), v) for (iv,), v in got.pieces()] == [
        ((1.35, 0), (1.6, 0), 2.0), ((1.85, 0), (2.6, 0), 3.0)]


def test_a_sum_into_a_continuous_output_rank_agrees_with_the_oracle():
    # the oracle does not weigh the output's own index as a summed one
    A = build_tensor("A", [("interval",)], [((0.25, 0.5), 2.0), ((0.75, 1.5), 3.0)])
    got, want = both("for j = 0.0:1.0\n  Out[j] += A[j]\nend\n", {"A": A})
    assert outputs_match(got, want)
    assert [v for _, v in got.pieces()] == [2.0, 3.0]
