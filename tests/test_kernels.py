"""The shipped corpus: canonical fixtures and random-instance validity."""

import dataclasses
import math
import re
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from contensor.compiler import compile_program
from contensor.executor import ExecStats, run
from contensor.intervals import Interval
from contensor.kernels import KERNELS, build_genomic_grid, get, random_genomic
from contensor.lang import validate
from contensor.oracle import evaluate, outputs_match
from contensor.storage import ContTensor, StorageError, build_tensor


def run_kernel(name, binds, **kw):
    return run(compile_program(get(name).program(), binds, **kw))


def test_registry_lookup():
    assert get("dot_integral").name == "dot_integral"
    with pytest.raises(KeyError):
        get("nope")


def test_every_kernel_source_validates():
    for k in KERNELS.values():
        assert validate(k.program()) == [], k.name


def test_dot_integral_canonical_value():
    res = run_kernel("dot_integral", get("dot_integral").canonical())
    assert math.isclose(res.output, 4.5, rel_tol=1e-12)


def test_dot_sum_canonical_value():
    # shared pins at 2.5 and 6.0: 4*5 + 8*3
    res = run_kernel("dot_sum", get("dot_sum").canonical())
    assert res.output == 44.0


def test_masked_conv_canonical_pins():
    res = run_kernel("masked_conv", get("masked_conv").canonical())
    got = {p[0].start.val: v for p, v in res.output.pieces()}
    assert got == {0.0: 3.0, 2.5: 6.0}


def test_radius_count_canonical_is_three():
    res = run_kernel("radius_count", get("radius_count").canonical())
    assert res.output == 3.0


def test_box_and_radius_search_canonical_ids():
    res = run_kernel("box_search", get("box_search").canonical())
    assert [i for (i,), v in res.output.pieces() if v] == [1, 3]
    res = run_kernel("radius_search", get("radius_search").canonical())
    assert [i for (i,), v in res.output.pieces() if v] == [1, 3]


def test_trilinear_canonical_partition_of_unity():
    res = run_kernel("trilinear", get("trilinear").canonical())
    assert all(abs(v - 1.0) <= 1e-12 for v in res.output.values)


def test_genomic_canonical_query_two_hits_ids_three_and_four():
    binds = get("genomic_overlap_grid").canonical()
    naive = run_kernel("genomic_overlap", {k: binds[k] for k in ("Query", "Data")})
    grid = run_kernel("genomic_overlap_grid", binds)
    assert list(naive.output.pieces()) == list(grid.output.pieces())
    hit = {p[1].start.val: v for p, v in naive.output.pieces()}
    assert hit == {1.0: True, 2.0: True}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_random_instances_match_oracle(name):
    k = get(name)
    prog = k.program()
    for seed in range(12):
        binds = k.random_instance(Random(seed))
        ex = run(compile_program(prog, binds)).output
        orc = evaluate(prog, binds)
        assert outputs_match(ex, orc, rel=k.rel), (name, seed)


# per kernel, the sums of (multiplies, segments_visited, pieces_emitted)
# over the canonical instance and random instances 0..29: a change to how
# kernels are rendered that keeps these keeps the work they count
COUNTER_SUMS = {
    "box_search": (160, 284, 0),
    "dot_integral": (102, 190, 0),
    "dot_sum": (5, 115, 0),
    "genomic_overlap": (68, 1018, 68),
    "genomic_overlap_grid": (68, 777, 68),
    "masked_conv": (61, 207, 61),
    "radius_count": (0, 145, 0),
    "radius_search": (0, 144, 0),
    "trilinear": (0, 868, 0),
}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_the_shipped_kernels_counters_are_pinned(name):
    k = get(name)
    prog, sums = k.program(), [0, 0, 0]
    for binds in [k.canonical(), *(k.random_instance(Random(seed)) for seed in range(30))]:
        s = run(compile_program(prog, binds)).stats
        for j, n in enumerate((s.multiplies, s.segments_visited, s.pieces_emitted)):
            sums[j] += n
    assert tuple(sums) == COUNTER_SUMS[name]


def test_grid_builder_covers_every_data_interval():
    rng = Random(7)
    binds = random_genomic(rng, nchr=3, per_chr=8)
    grid = build_genomic_grid(binds["Data"])
    # every stored data interval must appear in at least one cell it touches
    cells = {}
    for path, v in grid.pieces():
        if v:
            cells.setdefault(path[0], []).append((path[1], path[2].start.val))
    for path, v in binds["Data"].pieces():
        if not v:
            continue
        chrno, jd, iv = path[0], path[1].start.val, path[2]
        assert any(
            jd == member and not cell.intersect(iv).is_empty
            for cell, member in cells.get(chrno, [])), path


def test_grid_builder_accelerated_equivalence_on_random_datasets():
    for seed in range(10):
        binds = random_genomic(Random(seed))
        binds["Grid"] = build_genomic_grid(binds["Data"])
        naive = run_kernel("genomic_overlap", {k: binds[k] for k in ("Query", "Data")})
        grid = run_kernel("genomic_overlap_grid", binds)
        assert list(naive.output.pieces()) == list(grid.output.pieces()), seed


def reference_grid(data, cells=0):
    """build_genomic_grid as a walk of Data.pieces(): a set of member ids
    per cell, and each cell key an Interval."""
    nchr = data.levels[0].size
    per_chr = [[] for _ in range(nchr)]
    hi = 0.0
    for path, v in data.pieces():
        if v:
            per_chr[path[0]].append((path[1].start.val, path[2].start.val, path[2].stop.val))
            hi = max(hi, path[2].stop.val)
    if cells <= 0:
        cells = max(1, math.ceil(math.sqrt(max(len(r) for r in per_chr))))
    cw = (hi / cells) if hi > 0 else 1.0
    fibers = []
    for rows in per_chr:
        members = {}
        for jd, a, b in rows:
            for k in range(int(a // cw), int(b // cw) + 1):
                members.setdefault(k, set()).add(jd)
        fibers.append([(Interval.right_open(k * cw, (k + 1) * cw),
                        [(jd, True) for jd in sorted(members[k])]) for k in sorted(members)])
    return build_tensor("Grid", [("dense", nchr), ("interval",), ("pinpoint",)],
                        fibers, fill=False)


def genomic_data(fibers):
    return build_tensor("Data", [("dense", len(fibers)), ("pinpoint",), ("interval",)],
                        fibers, fill=False)


@st.composite
def genomic_fibers(draw):
    """Per chromosome, ascending ids each holding 0-3 pieces on a 0.25 pitch
    around 0, some of them with a false value."""
    fibers = []
    for _ in range(draw(st.integers(1, 3))):
        rows = []
        for jd in sorted(draw(st.sets(st.integers(-2, 9), max_size=5))):
            cuts = sorted(draw(st.sets(st.integers(-20, 40), max_size=6)))
            rows.append((float(jd), [((cuts[j] * 0.25, cuts[j + 1] * 0.25),
                                      draw(st.sampled_from([True, True, False, 2.0, 0.0])))
                                     for j in range(0, len(cuts) - 1, 2)]))
        fibers.append(rows)
    return fibers


def random_genomic_data(seed):
    return random_genomic(Random(seed), nchr=3, per_chr=40)["Data"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(genomic_fibers().map(genomic_data), st.integers(0, 999).map(random_genomic_data)),
       st.integers(0, 4))
# id 1's two pieces share the one cell, and id 2 lies between them
@example(genomic_data([[(1.0, [((0.0, 1.0), True), ((2.0, 3.0), True)]),
                        (2.0, [((0.5, 4.0), True)])]]), 1)
@example(genomic_data([[(1.0, [((0.0, 1.0), False)]), (2.0, [((2.0, 5.0), 0.0)]),
                        (3.0, [((1.0, 2.0), True), ((3.0, 4.0), 0)])]]), 0)
@example(genomic_data([[(1.0, [((0.0, 2.0), True)])], [], [(4.0, [((1.0, 6.0), True)])]]), 0)
@example(genomic_data([[(1.0, [((-5.0, -3.0), True)]), (2.0, [((-2.5, -0.5), True)])]]), 0)
@example(genomic_data([[(float(j), [((j * 0.5, j * 0.5 + 1.5), True)]) for j in range(9)],
                       [(3.0, [((0.25, 0.75), True)])]]), 7)
def test_the_grid_read_from_columns_is_the_grid_of_the_pieces(data, cells):
    assert repr(build_genomic_grid(data, cells)) == repr(reference_grid(data, cells))


def test_the_grid_of_random_genomic_data_is_the_grid_of_its_pieces():
    for seed in range(30):
        data = random_genomic(Random(seed))["Data"]
        assert repr(build_genomic_grid(data)) == repr(reference_grid(data)), seed


@pytest.mark.parametrize("key, shown", [((3.0, math.inf), "[3, inf]"),
                                        ((-math.inf, -1.5), "[-inf, -1.5]")])
def test_the_grid_rejects_an_unbounded_piece_by_name(key, shown):
    data = genomic_data([[(1.0, [((0.0, 1.0), True)])],
                         [(1.0, [((0.0, 1.0), True)]), (2.0, [(key, True)])]])
    with pytest.raises(StorageError, match=re.escape(f"chromosome 1 id 2: piece {shown} ")):
        build_genomic_grid(data)
    # a piece with a false value is not indexed, so it may be unbounded
    data = genomic_data([[(1.0, [((0.0, 1.0), True)]), (2.0, [(key, False)])]])
    assert repr(build_genomic_grid(data)) == repr(reference_grid(data))


def format_signature(binds):
    """Per tensor: its level kinds with the dense sizes, and its fill with
    the fill's type; what lowering may read."""
    def kind(lv):
        if not lv.continuous:
            return ("dense", lv.size)
        return "regular" if lv.regular else "pinpoint" if lv.pinpoint else "interval"
    return tuple(sorted((name, tuple(map(kind, t.levels)), t.fill, type(t.fill))
                        for name, t in binds.items()))


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_a_plan_depends_only_on_the_format(name):
    k = get(name)
    prog = k.program()
    plans, shared = {}, 0
    for binds in [k.canonical(), *(k.random_instance(Random(seed)) for seed in range(30))]:
        plan = compile_program(prog, binds)
        first = plans.setdefault(format_signature(binds), plan)
        assert plan == first, name
        shared += first is not plan
    assert shared, "no two instances share a format"


def emptied(t):
    """A tensor of t's format that stores nothing."""
    levels, n = [], 1
    for lv in t.levels:
        if lv.continuous:
            lv, n = dataclasses.replace(lv, ptr=(0,) * (n + 1), starts=(), stops=()), 0
        else:
            n *= lv.size
        levels.append(lv)
    return ContTensor(t.name, tuple(levels), (t.fill,) * n, t.fill)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_an_input_that_stores_nothing_gets_the_plan_of_a_stored_one(name):
    k = get(name)
    prog, binds = k.program(), k.canonical()
    plan = compile_program(prog, binds)
    cases = [{**binds, t: emptied(binds[t])} for t in k.inputs]
    cases.append({t: emptied(binds[t]) for t in k.inputs})
    for some in cases:
        got = compile_program(prog, some)
        assert got == plan
        res = run(got)
        assert outputs_match(res.output, evaluate(prog, some), rel=k.rel)
    # with every input empty, every loop over a continuum runs zero times
    assert res.stats == ExecStats(0, 0, 0)
