"""Static bound analysis: guard deletion and max/min operand pruning."""

import math

from contensor.bounds import _Prover, prune_bounds
from contensor.compiler import compile_program
from contensor.executor import run
from contensor.ir import EndRef, Guard, IntersectLet, Pin, PRoot, PVar, WhileCoiter
from contensor.lang import parse
from contensor.oracle import evaluate
from contensor.storage import build_tensor, tensor_1d

MASS = """
for i = -inf:inf
  s += x[i] * d(i)
end
"""

DOT = """
for i = -inf:inf
  s += A[i] * B[i] * d(i)
end
"""

MASKED = """
for i = -inf:inf
  if Mask[i]
    for j = -inf:inf
      Z[i] += A[i + j] * B[j] * d(j)
    end
  end
end
"""


def _nodes(root, cls):
    out = []
    stack = [root]
    while stack:
        s = stack.pop()
        if isinstance(s, cls):
            out.append(s)
        for f in getattr(s, "__dataclass_fields__", ()):
            v = getattr(s, f)
            if hasattr(v, "__dataclass_fields__"):
                stack.append(v)
            elif isinstance(v, tuple):
                stack.extend(z for z in v if hasattr(z, "__dataclass_fields__"))
    return out


def _x():
    return tensor_1d(
        "x", [((1.0, 3.0), 1.0), ((4.1, 5.1), 2.0)], 0.0, kind="interval")


def test_single_tensor_integral_loses_its_guard():
    # over the whole line lowering itself emits each stored piece
    # unguarded; shifted, the walk's guard is the prover's to delete
    assert _nodes(compile_program(parse(MASS), {"x": _x()}).body, Guard) == []
    src = MASS.replace("x[i]", "x[i + 1.0]")
    plain = compile_program(parse(src), {"x": _x()})
    opt = compile_program(parse(src), {"x": _x()}, opt_bounds=True)
    assert len(_nodes(plain.body, Guard)) == 1
    assert _nodes(opt.body, Guard) == []
    assert run(plain).output == run(opt).output == 4.0


def test_finite_loop_bounds_keep_the_guard():
    # a stored piece may lie past the loop bound, so emptiness is real
    src = MASS.replace("-inf:inf", "0.0:2.0")
    opt = compile_program(parse(src), {"x": _x()}, opt_bounds=True)
    assert len(_nodes(opt.body, Guard)) == 1
    assert run(opt).output == 1.0


def test_cross_tensor_guard_survives():
    # nothing orders A's left ends against B's right ends
    A = _x()
    B = tensor_1d("B", [((2.0, 5.1), 1.0)], 0.0, kind="interval")
    plain = compile_program(parse(DOT), {"A": A, "B": B})
    opt = compile_program(parse(DOT), {"A": A, "B": B}, opt_bounds=True)
    assert len(_nodes(plain.body, Guard)) == len(_nodes(opt.body, Guard)) == 1
    assert run(plain).output == run(opt).output == 3.0


def test_pinpoint_region_prunes_cursor_and_guard():
    Mask = tensor_1d("Mask", [(0.5, True), (2.0, True)], False)
    A = tensor_1d("A", [((0.0, 4.0), 1.0)], 0.0, kind="interval")
    B = tensor_1d("B", [((-0.5, 0.5), 1.0)], 0.0, kind="interval")
    binds = {"Mask": Mask, "A": A, "B": B}
    # over the whole line lowering pins i to Mask's coordinate itself, with
    # no point region and no guard; shifted, Mask's loop walks
    plan = compile_program(parse(MASKED), binds)
    assert [p.at for p in _nodes(plan.body, Pin)] == [EndRef("Mask", 0, "C", PVar(0, "p_Mask0"))]
    assert len(_nodes(plan.body, Guard)) == 1
    src = MASKED.replace("Mask[i]", "Mask[i + 1.0]")
    plain = compile_program(parse(src), binds)
    opt = compile_program(parse(src), binds, opt_bounds=True)

    # the point region's start is its coordinate alone; the cursor can
    # never pass it, so max(cursor, crd) == crd
    (pin_iv,) = [
        iv for iv in _nodes(opt.body, IntersectLet) if iv.pinpoint]
    assert len(pin_iv.starts) == 1

    # outer guard (always true) deleted, inner A-vs-B guard kept
    assert len(_nodes(plain.body, Guard)) == 2
    assert len(_nodes(opt.body, Guard)) == 1
    assert len(_nodes(opt.body, Pin)) == 1

    assert (list(run(plain).output.pieces())
            == list(run(opt).output.pieces()))


def test_child_region_stays_inside_parent_range():
    # a loop over the whole line has no range: its regions are its pieces
    plan = compile_program(parse(MASS.replace("-inf:inf", "0.0:2.0")), {"x": _x()})
    pv = _Prover()
    from contensor.bounds import _coiter_facts, _harvest
    _harvest(plan.body, pv)
    (co,) = _nodes(plan.body, WhileCoiter)
    _coiter_facts(co, pv, plan.bindings)
    (sub,) = [iv for iv in _nodes(co.body, IntersectLet)]
    assert pv.le(("b", sub.slot), ("b", co.range_slot))
    assert pv.le(("a", co.range_slot), ("a", co.curr_slot))


def test_prover_examples():
    pv = _Prover()
    La = ("e", "A", 0, "L", PRoot(), 0, None)
    Ra = ("e", "A", 0, "R", PRoot(), 0, None)
    Rb = ("e", "B", 0, "R", PRoot(), 0, None)
    pv.fact(La, Ra)
    assert pv.le(("c", float("-inf"), 0), La)  # -inf folds away under max
    assert pv.le(La, Ra)
    assert not pv.le(La, Rb)  # underdetermined: guard must stay
    assert pv.le(("c", 1.0, 0), ("c", 2.0, 0))
    assert not pv.le(("c", 2.0, 0), ("c", 1.0, 0))
    # epsilon offsets saturate, so ordering is non-strict only
    assert pv.le(("e", "A", 0, "L", PRoot(), -1, None), La)
    assert not pv.lt(("e", "A", 0, "L", PRoot(), -1, None), La)
    assert pv.lt(("c", 1.0, 0), ("c", 1.0, 1))


def test_statically_disjoint_region_is_deleted():
    # loop range ends before the stored data begins
    src = MASS.replace("-inf:inf", "-9.0:-8.0")
    x = tensor_1d("x", [((1.0, 3.0), 1.0)], 0.0, kind="interval")
    opt = compile_program(parse(src), {"x": x}, opt_bounds=True)
    assert run(opt).output == 0.0


def test_pruned_plans_execute_identically_on_random_inputs():
    import random
    rng = random.Random(7)
    for _ in range(25):
        pieces = []
        lo = rng.uniform(-5, 0)
        for _k in range(rng.randrange(1, 5)):
            hi = lo + rng.uniform(0.1, 2.0)
            pieces.append(((lo, hi), rng.choice([1.0, 2.0, -1.5])))
            lo = hi + rng.uniform(0.1, 1.0)
        x = tensor_1d("x", pieces, 0.0, kind="interval")
        p1 = compile_program(parse(MASS), {"x": x})
        p2 = compile_program(parse(MASS), {"x": x}, opt_bounds=True)
        assert run(p1).output == run(p2).output


def test_prune_is_stable_when_nothing_applies():
    A = _x()
    B = tensor_1d("B", [((2.0, 5.1), 1.0)], 0.0, kind="interval")
    plan = compile_program(parse(DOT), {"A": A, "B": B})
    assert prune_bounds(plan).body == prune_bounds(prune_bounds(plan)).body


def test_infinite_constants_bound_only_what_storage_allows():
    pv = _Prover()
    inf = float("inf")
    last = ("z", "A", 0, PRoot(), None)
    La = ("e", "A", 0, "L", PRoot(), 0, None)
    # a last stop may be closed at inf, past a loop end open at inf
    assert not pv.le(last, ("c", inf, -1))
    assert pv.le(last, ("c", inf, 0))
    # an empty fiber's last stop lies just below -inf
    assert not pv.le(("c", -inf, 0), last)
    assert pv.le(("c", -inf, -1), last)
    # a stored piece may be closed at -inf or inf, and a stepper past its
    # fiber's last piece reads every end as inf + eps
    assert not pv.le(("c", -inf, 1), La)
    assert not pv.le(La, ("c", inf, 0))
    assert pv.le(La, ("c", inf, 1))


def test_a_coiteration_proves_nothing_past_its_body():
    # inside the co-iteration the range is non-empty and the cursor lies
    # below A's last stop; the tail region past that stop may still be
    # empty, so its start keeps the loop's lower bound 0.15
    A = build_tensor("A", [("interval",)], [((-math.inf, 0.9547, "right_open"), False)], fill=True)
    program = parse("for i = 0.15:1.6\n  Out[i] |= A[i + 2.0]\nend\n")
    opt = compile_program(program, {"A": A}, opt_bounds=True)
    assert list(run(opt).output.pieces()) == list(evaluate(program, {"A": A}).pieces())
