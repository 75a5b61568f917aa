import dataclasses
import math
import random
from time import perf_counter

import pytest

from contensor.compiler import CompileError, ValidityError, compile_program
from contensor.executor import run
from contensor.intervals import Interval
from contensor.ir import (
    Block, EndRef, Guard, IntersectLet, LenOf, Namer, Pin, Plan, Probe, PVar, WhileCoiter,
    Write, pretty,
)
from contensor.kernels import KERNELS
from contensor.lang import DivisionByZeroError, parse
from contensor.oracle import evaluate, outputs_match
from contensor.simplify import used_slots
from contensor.storage import build_tensor, tensor_1d


DOT_INTEGRAL = """
for i = -inf:inf
  s += A[i] * B[i] * d(i)
end
"""

DOT_SUM = """
for i = -inf:inf
  s += A[i] * B[i]
end
"""

MASKED_CONV = """
for i = -inf:inf
  if Mask[i]
    for j = -inf:inf
      Z[i] += A[i + j] * B[j] * d(j)
    end
  end
end
"""


def iv_tensors(pieces, fill=0.0):
    return tensor_1d("A", pieces, fill, kind="interval")


def collect(stmt, cls):
    found = []

    def walk(s):
        if isinstance(s, cls):
            found.append(s)
        if isinstance(s, Block):
            for x in s.stmts:
                walk(x)
        elif hasattr(s, "body"):
            walk(s.body)

    walk(stmt)
    return found


def test_dot_integral_collapses_to_one_region():
    A = tensor_1d("A", [((1.0, 3.0), 2.0)], 0.0, kind="interval")
    B = tensor_1d("B", [((2.0, 5.0), 3.0)], 0.0, kind="interval")
    stages = {}
    compile_program(parse(DOT_INTEGRAL), {"A": A, "B": B}, stages=stages)
    # both fills annihilate the product, so lowering itself emits a single
    # co-iteration with a single guarded accumulate
    plan = stages["plan"]
    loops = collect(plan.body, WhileCoiter)
    assert len(loops) == 1
    assert len(loops[0].steppers) == 2
    accs = collect(plan.body, Write)
    assert len(accs) == 1
    assert accs[0].op == "+="
    assert accs[0].two_tensor
    assert any(isinstance(a, LenOf) for a in accs[0].value.args)


def test_dot_sum_pins_one_side_and_probes_the_other():
    A = tensor_1d("A", [(1.5, 2.0), (4.0, 5.0)], 0.0)
    B = tensor_1d("B", [(1.5, 3.0)], 0.0)
    plan = compile_program(parse(DOT_SUM), {"A": A, "B": B})
    assert len(collect(plan.body, Pin)) == 1
    assert len(collect(plan.body, Probe)) == 1
    (acc,) = collect(plan.body, Write)
    # a sum at isolated points carries no region-length factor
    assert not any(isinstance(a, LenOf) for a in getattr(acc.value, "args", ()))


def test_masked_conv_shape():
    Mask = tensor_1d("Mask", [(0.5, True), (2.0, True)], False)
    A = tensor_1d("A", [((1.0, 3.0), 2.0)], 0.0, kind="interval")
    B = tensor_1d("B", [((0.0, 1.0), 1.0)], 0.0, kind="interval")
    plan = compile_program(parse(MASKED_CONV), {"Mask": Mask, "A": A, "B": B})
    pins = collect(plan.body, Pin)
    assert [p.name for p in pins] == ["i"]
    # the inner co-iteration runs the shifted A stepper against B
    inner = [w for w in collect(plan.body, WhileCoiter) if len(w.steppers) == 2]
    assert len(inner) == 1
    shifts = [st.shift for st in inner[0].steppers]
    assert sum(s is not None for s in shifts) == 1
    (emit,) = collect(plan.body, Write)
    assert emit.path[0][0] == "p"  # output written at the pinned point
    assert plan.output.comps == (("pinpoint",),)


def test_all_fill_input_gives_empty_body():
    # lowering reads no data: inputs that store nothing get the plan of
    # stored ones, whose loop runs zero times
    A = build_tensor("A", [("interval",)], [], fill=0.0)
    B = build_tensor("B", [("interval",)], [], fill=0.0)
    plan = compile_program(parse(DOT_INTEGRAL), {"A": A, "B": B})
    stored = {"A": iv_tensors([((1.0, 3.0), 2.0)]), "B": iv_tensors([((2.0, 5.0), 3.0)])}
    assert plan == compile_program(parse(DOT_INTEGRAL), stored)
    assert plan.output.comps == ()
    assert plan.output.fill == 0.0
    res = run(plan)
    assert res.output == 0.0
    assert (res.stats.segments_visited, res.stats.multiplies) == (0, 0)


def test_validity_failure_carries_diags():
    A = tensor_1d("A", [((0.0, 1.0), 1.0)], 0.0, kind="interval")
    with pytest.raises(ValidityError) as e:
        compile_program(parse(DOT_SUM), {"A": A, "B": A})
    assert any(d.code == "R-SUM" for d in e.value.diags)


@pytest.mark.parametrize("assign, kinds, code", [
    ("Out[i, j] = A[i, j]", ("pinpoint", "pinpoint"), "R-PIN"),
    ("Out[i, j] = A[i, j]", ("pinpoint", "interval"), "R-PIN"),
    ("s += A[i, j]", ("pinpoint", "pinpoint"), "R-SUM"),
], ids=["point_point", "point_interval", "sum"])
def test_a_rank_order_the_loop_nest_does_not_follow_is_rejected(assign, kinds, code):
    # j is looped first, but A's points can only pin it once i is known
    keys = {"pinpoint": [1.0, 2.0], "interval": [(1.0, 1.5), (2.0, 2.5)]}
    A = build_tensor("A", [(k,) for k in kinds],
                     [(x, [(y, 1.0) for y in keys[kinds[1]]]) for x in keys[kinds[0]]])
    src = f"for j = -inf:inf\n  for i = -inf:inf\n    {assign}\n  end\nend\n"
    with pytest.raises(ValidityError) as e:
        compile_program(parse(src), {"A": A})
    assert [d.code for d in e.value.diags] == [code]


def test_missing_binding_is_a_compile_error():
    A = tensor_1d("A", [(1.0, 1.0)], 0.0)
    with pytest.raises(CompileError, match="B"):
        compile_program(parse(DOT_SUM), {"A": A})


def test_output_cannot_be_an_input():
    A = tensor_1d("A", [(1.0, 1.0)], 0.0)
    B = tensor_1d("B", [(1.0, 1.0)], 0.0)
    s = tensor_1d("s", [(1.0, 1.0)], 0.0)
    with pytest.raises(CompileError, match="s"):
        compile_program(parse(DOT_SUM), {"A": A, "B": B, "s": s})


def test_idempotent_collapse_drops_region_var():
    A = tensor_1d("A", [((1.0, 3.0), True)], False, kind="interval")
    B = tensor_1d("B", [((2.0, 5.0), True)], False, kind="interval")
    prog = parse("""
for i = -inf:inf
  any |= A[i] && B[i]
end
""")
    plan = compile_program(prog, {"A": A, "B": B})
    (acc,) = collect(plan.body, Write)
    assert acc.op == "|="
    assert not collect(plan.body, Pin)


def test_a_sum_over_intervals_without_d_is_rejected():
    A = tensor_1d("A", [((1.0, 3.0), 2.0)], 0.0, kind="interval")
    B = tensor_1d("B", [((2.0, 5.0), 3.0)], 0.0, kind="interval")
    with pytest.raises(ValidityError):
        compile_program(parse(DOT_SUM), {"A": A, "B": B})


def test_interval_output_from_regional_index():
    Q = tensor_1d("Q", [((0.0, 2.0), True)], False, kind="interval")
    D = tensor_1d("D", [((1.0, 3.0), True)], False, kind="interval")
    prog = parse("""
for x = -inf:inf
  Out[x] |= Q[x] && D[x]
end
""")
    plan = compile_program(prog, {"Q": Q, "D": D})
    assert plan.output.comps == (("interval",),)
    (emit,) = collect(plan.body, Write)
    assert emit.path[0][0] == "iv"


def test_negative_dense_output_range_rejected():
    A = tensor_1d("A", [(1.0, 1.0)], 0.0)
    prog = parse("""
for i = -2:2
  for x = -inf:inf
    Z[i] += A[x]
  end
end
""")
    with pytest.raises(CompileError, match="-2"):
        compile_program(prog, {"A": A})


def test_plan_equality_ignores_bindings():
    A = tensor_1d("A", [(1.0, 2.0)], 0.0)
    B = tensor_1d("B", [(1.0, 3.0)], 0.0)
    p1 = compile_program(parse(DOT_SUM), {"A": A, "B": B})
    p2 = compile_program(parse(DOT_SUM), {"A": A, "B": B})
    assert isinstance(p1, Plan) and p1 == p2


def test_pretty_renders_without_crashing():
    A = tensor_1d("A", [((1.0, 3.0), 2.0)], 0.0, kind="interval")
    B = tensor_1d("B", [((2.0, 5.0), 3.0)], 0.0, kind="interval")
    plan = compile_program(parse(DOT_INTEGRAL), {"A": A, "B": B})
    text = pretty(plan.body)
    assert "coiterate" in text and "guard" in text


def test_pretty_prints_a_plan_as_its_body():
    A = tensor_1d("A", [((1.0, 3.0), 2.0)], 0.0, kind="interval")
    plan = compile_program(parse(DOT_INTEGRAL), {"A": A, "B": A})
    assert pretty(plan) == pretty(plan.body)


def test_shifted_access_uses_scalar_shift():
    Mask = tensor_1d("Mask", [(0.0, True)], False)
    A = tensor_1d("A", [((0.0, 2.0), 1.0)], 0.0, kind="interval")
    B = tensor_1d("B", [((0.0, 2.0), 1.0)], 0.0, kind="interval")
    plan = compile_program(parse(MASKED_CONV), {"Mask": Mask, "A": A, "B": B})
    text = pretty(plan.body)
    assert "- i" in text  # stored endpoints mapped back into loop coordinates


def test_finite_bounds_clip_the_top_region():
    A = tensor_1d("A", [((1.0, 3.0), 2.0)], 0.0, kind="interval")
    prog = parse("""
for i = 0.0:10.0
  s += A[i] * d(i)
end
""")
    plan = compile_program(prog, {"A": A})
    text = pretty(plan.body)
    assert "max(0" in text and "min(10" in text


MASS = """
for i = -inf:inf
  s += x[i] * d(i)
end
"""


def mass_x():
    return tensor_1d("x", [((1.0, 3.0), 1.0), ((4.1, 5.1), 2.0)], 0.0, kind="interval")


def test_a_whole_line_integral_has_no_guard():
    # over the whole line lowering emits each stored piece unguarded;
    # shifted, the loop walks and guards its region
    assert collect(compile_program(parse(MASS), {"x": mass_x()}).body, Guard) == []
    plan = compile_program(parse(MASS.replace("x[i]", "x[i + 1.0]")), {"x": mass_x()})
    assert len(collect(plan.body, Guard)) == 1
    assert run(plan).output == 4.0


@pytest.mark.parametrize("rng, want", [("0.0:2.0", 1.0), ("-9.0:-8.0", 0.0)],
                         ids=["overlapping", "disjoint"])
def test_an_integral_over_a_finite_range(rng, want):
    # a stored piece may lie past the range's ends, so the region is guarded
    plan = compile_program(parse(MASS.replace("-inf:inf", rng)), {"x": mass_x()})
    assert len(collect(plan.body, Guard)) == 1
    assert run(plan).output == want


def test_a_dot_integral_keeps_its_guard():
    # nothing orders A's left ends against B's right ends
    B = tensor_1d("B", [((2.0, 5.1), 1.0)], 0.0, kind="interval")
    plan = compile_program(parse(DOT_INTEGRAL), {"A": mass_x(), "B": B})
    assert len(collect(plan.body, Guard)) == 1
    assert run(plan).output == 3.0


def test_a_masked_convolution_pins_i_at_the_mask():
    Mask = tensor_1d("Mask", [(0.5, True), (2.0, True)], False)
    A = tensor_1d("A", [((0.0, 4.0), 1.0)], 0.0, kind="interval")
    B = tensor_1d("B", [((-0.5, 0.5), 1.0)], 0.0, kind="interval")
    binds = {"Mask": Mask, "A": A, "B": B}
    # over the whole line lowering pins i to Mask's coordinate, with no
    # point region and no guard of its own
    plan = compile_program(parse(MASKED_CONV), binds)
    assert [p.at for p in collect(plan.body, Pin)] == [EndRef("Mask", 0, "C", PVar(0, "p_Mask0"))]
    assert len(collect(plan.body, Guard)) == 1
    # shifted, Mask's loop walks and guards its point region too
    program = parse(MASKED_CONV.replace("Mask[i]", "Mask[i + 1.0]"))
    plan = compile_program(program, binds)
    assert len(collect(plan.body, Guard)) == 2
    assert outputs_match(run(plan).output, evaluate(program, binds))


def test_a_shifted_existence_write_over_a_finite_range_agrees_with_the_oracle():
    # the tail region past A's last stop may be empty, so its start keeps
    # the loop's lower bound 0.15
    A = build_tensor("A", [("interval",)], [((-math.inf, 0.9547, "right_open"), False)], fill=True)
    program = parse("for i = 0.15:1.6\n  Out[i] |= A[i + 2.0]\nend\n")
    got = run(compile_program(program, {"A": A})).output
    assert list(got.pieces()) == list(evaluate(program, {"A": A}).pieces())


def _old_slot(self, base):
    """The quadratic search Namer.slot replaced: retry base, base1, ... from 0."""
    name, k = base, 0
    while name in self._used:
        k += 1
        name = f"{base}{k}"
    self._used.add(name)
    self.names.append(name)
    return len(self.names) - 1, name


def test_namer_gives_the_old_names_when_bases_collide():
    rng = random.Random(11)
    bases = ["iv", "iv1", "iv2", "iv11", "r", "r1", "cur"]
    calls = [rng.choice(bases) for _ in range(300)]
    new, old = Namer(), Namer()
    assert [new.slot(b) for b in calls] == [_old_slot(old, b) for b in calls]
    # a loop variable named iv1 takes the name the second iv would have had
    n = Namer()
    assert [n.slot(b)[1] for b in ("iv", "iv1", "iv", "iv")] == ["iv", "iv1", "iv2", "iv3"]


def kway_product(k):
    src = "for i = -inf:inf\n  s += " + " * ".join(f"A{j}[i]" for j in range(k)) + " * d(i)\nend\n"
    binds = {f"A{j}": tensor_1d(f"A{j}", [((-1.0 - j, 1.0 + j), 1.0 + j)], 0.0, kind="interval")
             for j in range(k)}
    return parse(src), binds


def test_namer_fix_keeps_the_kway_plans(monkeypatch):
    program, binds = kway_product(7)

    def plans():
        st = {}
        compile_program(program, binds, stages=st)
        return pretty(st["plan"].body), pretty(st["post-simplify"].body)

    new = plans()
    monkeypatch.setattr(Namer, "slot", _old_slot)
    assert plans() == new


def test_a_kway_product_lowers_to_one_region():
    # every factor annihilates, so lowering visits only where all are stored:
    # the range, the co-iteration (header, k steppers, segment), one region,
    # its guard and the accumulate
    k = 10
    stages = {}
    compile_program(*kway_product(k), stages=stages)
    assert len(pretty(stages["plan"].body).splitlines()) == k + 6
    assert stages["plan"] == stages["post-simplify"]


def kway_union(k):
    src = "for i = -inf:inf\n  s += (" + " + ".join(f"A{j}[i]" for j in range(k)) + ") * d(i)\nend\n"
    binds = {f"A{j}": tensor_1d(f"A{j}", [((-1.0 - j, 1.0 + j), 1.0 + j)], 0.0, kind="interval")
             for j in range(k)}
    return parse(src), binds


@pytest.mark.parametrize("k", [2, 6, 12])
def test_a_union_lowers_one_region_per_coiteration(k):
    # no summand annihilates: one co-iteration of all k steppers, which cuts
    # its segments at their starts as well as their stops, so that each is
    # in its piece or in its gap for a whole segment; the segment is the one
    # region that reads them all (no IntersectLet of its own), and where all
    # k are gaps the summand is 0 and nothing is written
    stages = {}
    compile_program(*kway_union(k), stages=stages)
    plan = stages["plan"].body
    [coiter] = collect(plan, WhileCoiter)
    assert len(coiter.steppers) == k and all(st.runs_out for st in coiter.steppers)
    assert collect(coiter.body, IntersectLet) == []
    # the range, the co-iteration (header, k steppers, segment), the test
    # that some summand is stored, and the accumulate
    assert len(pretty(stages["plan"].body).splitlines()) == k + 5


def test_a_twelve_way_union_compiles_and_agrees_with_the_oracle():
    t0 = perf_counter()
    program, binds = kway_union(12)
    plan = compile_program(program, binds)
    assert perf_counter() - t0 < 0.5
    assert outputs_match(run(plan).output, evaluate(program, binds))


def without_pins(stmt, slots):
    """stmt with the pins of the given slots removed."""
    if isinstance(stmt, Block):
        return Block(tuple(without_pins(x, slots) for x in stmt.stmts
                           if not (isinstance(x, Pin) and x.slot in slots)))
    if hasattr(stmt, "body"):
        return dataclasses.replace(stmt, body=without_pins(stmt.body, slots))
    return stmt


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_simplify_only_drops_unused_pins(name):
    kernel = KERNELS[name]
    stages = {}
    compile_program(kernel.program(), kernel.canonical(), stages=stages)
    lowered = stages["plan"].body
    unused = {p.slot for p in collect(lowered, Pin)} - used_slots(lowered)
    assert stages["post-simplify"].body == without_pins(lowered, unused)
    # genomic_overlap pins jd at each data id but reads Data through its stepper
    assert bool(unused) == (name == "genomic_overlap")


DIV_A = tensor_1d("A", [((0.0, 1.0), 2.0)], 0.0, kind="interval")


@pytest.mark.parametrize("op, col", [("=", 17), ("max=", 20)])
def test_dividing_by_a_zero_fill_is_rejected(op, col):
    # where B misses, A[i] / B[i] divides by B's fill 0
    B = tensor_1d("B", [((0.5, 2.0), 4.0)], 0.0, kind="interval")
    src = f"for i = -inf:inf\n  Out[i] {op} A[i] / B[i]\nend\n"
    with pytest.raises(ValidityError) as err:
        compile_program(parse(src), {"A": DIV_A, "B": B})
    assert [(d.code, d.line, d.col) for d in err.value.diags] == [("R-DIV", 2, col)]


@pytest.mark.parametrize("src", [
    "for i = -inf:inf\n  Out[i] = A[i] / 0\nend\n",
    "for i = -inf:inf\n  if A[i] / (B[i] - 1) > 1\n    Out[i] = A[i]\n  end\nend\n",
    "for i = -inf:inf\n  s += A[i] / (1 - B[i] / 1) * d(i)\nend\n",
])
def test_a_divisor_that_folds_to_zero_is_rejected(src):
    B = tensor_1d("B", [((0.5, 2.0), 4.0)], 1.0, kind="interval")
    with pytest.raises(ValidityError, match="R-DIV"):
        compile_program(parse(src), {"A": DIV_A, "B": B})


UNION_B = tensor_1d("B", [((0.5, 2.0), 4.0), ((3.0, 4.0), 1.0)], 0.0, kind="interval")


def test_a_guarded_union_divisor_compiles_and_agrees_with_the_oracle():
    # A + B folds to 0 only where both are in their gaps, where the test
    # is false and nothing is written
    program = parse("for i = -inf:inf\n  if A[i] + B[i] > 0\n"
                    "    Out[i] = 1 / (A[i] + B[i])\n  end\nend\n")
    binds = {"A": DIV_A, "B": UNION_B}
    got = run(compile_program(program, binds)).output
    assert outputs_match(got, evaluate(program, binds))
    assert [v for _, v in got.pieces()] == [0.5, 1 / 6, 0.25, 1.0]


def test_a_union_divisor_that_is_0_only_where_its_write_is_0_compiles():
    # where A and B are both in their gaps the value is 0 * (1 / 0), folded
    # to the fill 0 and not written; the oracle divides there and raises
    program = parse("for i = -inf:inf\n  Out[i] = (A[i] + B[i]) * (1 / (A[i] + B[i]))\nend\n")
    got = run(compile_program(program, {"A": DIV_A, "B": UNION_B})).output
    assert [(str(iv), v) for (iv,), v in got.pieces()] == [("[0, 2]", 1.0), ("[3, 4]", 1.0)]


def test_a_union_divisor_that_is_0_where_one_access_is_in_its_gap_is_rejected():
    # where A is in its piece the test holds, and B may be in its gap
    src = "for i = -inf:inf\n  if A[i] > 0\n    Out[i] = 1 / (A[i] * B[i])\n  end\nend\n"
    with pytest.raises(ValidityError) as err:
        compile_program(parse(src), {"A": DIV_A, "B": UNION_B})
    assert [(d.code, d.line, d.col) for d in err.value.diags] == [("R-DIV", 3, 16)]


def test_a_validity_error_lists_its_diagnostics_in_source_order():
    # lowering meets the R-DIV of A / A (3:22) first, then marks the
    # accesses no stored points pin: A twice (3:14, 3:24) and B (3:36)
    A = build_tensor("A", [("interval",), ("interval",)],
                     [((0.0, 1.0), [((0.0, 1.0), 1.0)])], fill=0.0)
    B = build_tensor("B", [("interval",)], [((0.0, 1.0), True)], fill=False)
    src = ("for j = -inf:inf\n  for i = -inf:inf\n"
           "    Out |= ((A[i, j] / A[i, j]) && B[i + j])\n  end\nend\n")
    with pytest.raises(ValidityError) as err:
        compile_program(parse(src), {"A": A, "B": B})
    assert [(d.code, d.line, d.col) for d in err.value.diags] == [
        ("R-PIN", 3, 14), ("R-DIV", 3, 22), ("R-PIN", 3, 24), ("R-PIN", 3, 36)]
    assert str(err.value).startswith("R-PIN 3:14: ")


def test_dividing_by_a_nonzero_fill_compiles():
    B = tensor_1d("B", [((0.5, 2.0), 4.0)], 2.0, kind="interval")
    program = parse("for i = -inf:inf\n  Out[i] = A[i] / B[i]\nend\n")
    got = run(compile_program(program, {"A": DIV_A, "B": B})).output
    assert outputs_match(got, evaluate(program, {"A": DIV_A, "B": B}))
    assert [v for _, v in got.pieces()] == [1.0, 0.5]


# B stores 0.0 on [0.5, 2], which meets A's piece: the divisor is 0 only at run time
ZERO_B = tensor_1d("B", [((0.5, 2.0), 0.0)], 2.0, kind="interval")


@pytest.mark.parametrize("src, output", [
    ("for i = -inf:inf\n  Out[i] = A[i] / B[i]\nend\n", "Out"),
    ("for i = -inf:inf\n  s += A[i] / B[i] * d(i)\nend\n", "s"),
])
def test_dividing_by_a_stored_zero_raises_one_error_on_both_sides(src, output):
    program = parse(src)
    binds = {"A": DIV_A, "B": ZERO_B}
    messages = []
    for side in (lambda: run(compile_program(program, binds)), lambda: evaluate(program, binds)):
        with pytest.raises(DivisionByZeroError) as err:
            side()
        messages.append(str(err.value))
    assert messages == [f"division by zero while computing {output}"] * 2


def test_an_early_exit_skips_a_division_by_a_stored_zero():
    # the first segment makes Out true and the kernel returns; the
    # oracle evaluates every write, so it reaches B's stored 0 and raises
    A = tensor_1d("A", [((0.0, 1.0), 4.0), ((2.0, 3.0), 1.0)], 0.0, kind="interval")
    B = tensor_1d("B", [((0.0, 1.0), 2.0), ((2.0, 3.0), 0.0)], 1.0, kind="interval")
    program = parse("for i = -inf:inf\n  Out |= A[i] / B[i] > 1\nend\n")
    assert run(compile_program(program, {"A": A, "B": B})).output is True
    with pytest.raises(DivisionByZeroError, match="computing Out"):
        evaluate(program, {"A": A, "B": B})


def steppers_of(plan) -> list:
    return [st.pos_name for w in collect(plan.body, WhileCoiter) for st in w.steppers]


def test_a_divisor_written_again_as_a_factor_is_read_only_where_it_is_stored():
    # both B[i] are one access: its one stepper annihilates, so A / B is
    # never read in B's gap, where it would divide by B's fill 0. The
    # oracle divides there and raises, so the value is worked by hand:
    # on [0.5, 1] B * (A / B) = 4 * (2 / 4), and on (1, 2] it is the fill
    B = tensor_1d("B", [((0.5, 2.0), 4.0)], 0.0, kind="interval")
    program = parse("for i = -inf:inf\n  Out[i] = B[i] * (A[i] / B[i])\nend\n")
    plan = compile_program(program, {"A": DIV_A, "B": B})
    assert steppers_of(plan) == ["p_B0", "p_A0"]
    got = run(plan).output
    assert [(path[0], v) for path, v in got.pieces()] == [(Interval.closed(0.5, 1.0), 2.0)]


REPEAT_A = tensor_1d("A", [((0.0, 1.0), 2.0), ((1.5, 3.0), -0.5)], 0.0, kind="interval")
REPEAT_P = tensor_1d("P", [(0.5, 3.0), (2.0, 1.0), (4.0, 2.0)], 0.0)


@pytest.mark.parametrize("src, steppers, probes", [
    ("for i = -inf:inf\n  s += A[i] * A[i] * d(i)\nend\n", ["p_A0"], 0),
    ("for i = -inf:inf\n  Out[i] = A[i] * A[i]\nend\n", ["p_A0"], 0),
    ("for i = -inf:inf\n  Out[i] = A[i] + A[i]\nend\n", ["p_A0"], 0),
    ("for i = -inf:inf\n  Out[i] = A[i] + P[i] * A[i]\nend\n", ["p_A0", "p_P0"], 0),
    ("for i = -inf:inf\n  s += P[i] * A[i] * A[i]\nend\n", ["p_P0"], 1),
    # a different index map is a different access
    ("for i = -inf:inf\n  Out[i] = A[i] * A[i + 0.5]\nend\n", ["p_A0", "p_A01"], 0),
])
def test_an_access_written_twice_is_stepped_once(src, steppers, probes):
    program = parse(src)
    binds = {"A": REPEAT_A, "P": REPEAT_P} if "P[" in src else {"A": REPEAT_A}
    plan = compile_program(program, binds)
    assert steppers_of(plan) == steppers
    assert len(collect(plan.body, Probe)) == probes
    assert outputs_match(run(plan).output, evaluate(program, binds))


PIN_P = build_tensor("P", [("pinpoint",), ("interval",)],
                     [(1.0, [((0.0, 1.0), 2.0), ((2.0, 3.0), 3.0)]), (2.5, [((1.0, 4.0), -1.0)])])
PIN_Q = build_tensor("Q", [("pinpoint",), ("interval",)], [(2.5, [((0.0, 2.0), 5.0)])])


@pytest.mark.parametrize("factor, probes", [
    # the fiber the stepper over P's rank 0 pinned i in: its position
    ("P[i, y]", 0),
    ("P[i + 1.5, y]", 1),  # shifted
    ("Q[i, y]", 1),  # another tensor
])
def test_a_pinned_point_is_probed_only_off_its_own_stepper(factor, probes):
    program = parse(f"for i = -inf:inf\n  for x = -inf:inf\n    for y = -inf:inf\n"
                    f"      Out[i] += P[i, x] * {factor} * d(x) * d(y)\n    end\n  end\nend\n")
    binds = {"P": PIN_P, "Q": PIN_Q}
    plan = compile_program(program, binds)
    assert len(collect(plan.body, Pin)) == 1
    assert len(collect(plan.body, Probe)) == probes
    assert outputs_match(run(plan).output, evaluate(program, binds))


def test_a_dense_rank_after_a_stepped_rank_is_resolved_in_its_region():
    # once the stepper over A's rank 0 is in a piece, A's dense rank is read
    # at j, a scalar there
    A = build_tensor("A", [("interval",), ("dense", 3)], [((0.0, 1.0), [1.0, 2.0, 3.0])])
    program = parse("for j = 0:2\n  for i = -inf:inf\n    Out[j] += A[i, j] * d(i)\n  end\nend\n")
    got = run(compile_program(program, {"A": A})).output
    assert outputs_match(got, evaluate(program, {"A": A}))
    assert [v for _, v in got.pieces()] == [1.0, 2.0, 3.0]
