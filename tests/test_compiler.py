import dataclasses
import random
from time import perf_counter

import pytest

from contensor.compiler import MAX_REGIONS, CompileError, ValidityError, compile_program
from contensor.ir import (
    Accumulate, Block, EmitPiece, LenOf, Namer, Pin, Plan, Probe, WhileCoiter,
    pretty,
)
from contensor.kernels import KERNELS
from contensor.lang import parse
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
    accs = collect(plan.body, Accumulate)
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
    (acc,) = collect(plan.body, Accumulate)
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
    (emit,) = collect(plan.body, EmitPiece)
    assert emit.path[0][0] == "p"  # output written at the pinned point
    assert plan.output.comps == (("pinpoint",),)


def test_all_fill_input_gives_empty_body():
    A = build_tensor("A", [("interval",)], [], fill=0.0)
    B = build_tensor("B", [("interval",)], [], fill=0.0)
    plan = compile_program(parse(DOT_INTEGRAL), {"A": A, "B": B})
    assert plan.body == Block()
    assert plan.output.comps == ()
    assert plan.output.fill == 0.0


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
    (acc,) = collect(plan.body, Accumulate)
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
    (emit,) = collect(plan.body, EmitPiece)
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


def test_a_union_lowers_every_span_and_piece_combination():
    # no summand annihilates: 2**k span/tail regions, and 2**j piece/gap
    # regions inside each co-iteration of j steppers
    k = 6
    stages = {}
    compile_program(*kway_union(k), stages=stages)
    plan = stages["plan"].body
    assert len(collect(plan, WhileCoiter)) == 2 ** k - 1
    assert 2 ** k + 3 ** k - 1 <= MAX_REGIONS


def test_a_union_past_the_region_limit_is_a_compile_error():
    t0 = perf_counter()
    with pytest.raises(CompileError, match="loop over 'i' would lower 535536 regions"):
        compile_program(*kway_union(12))
    assert perf_counter() - t0 < 0.5


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
