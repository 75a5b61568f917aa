"""Smoke test of the benchmark: every workload at small size, oracle-gated.

    python -m pytest -q perfbench
"""

import json
from random import Random
from time import perf_counter

import run  # first: it puts the repository's src/ on the import path

import contensor.compiler
import contensor.executor
import contensor.lang
import contensor.storage
from contensor import oracle
from contensor.storage import tensor_1d
from workloads import WORKLOADS, gen_signal, merge_integral

# counts that must repeat exactly for one seed
COUNTS = ["compiler.plan_lines_pre", *(
    k for k, unit in run.LAYER_UNITS.items()
    if k.startswith("executor.") and unit == "count")]


def _counts(results):
    out = {}
    for (name, trace), r in results.items():
        keys = COUNTS if trace else ["plan_lines"]
        out.update({(name, k): r["metrics"][k]["value"] for k in keys})
    return out


def test_smoke_is_correct_fast_and_deterministic():
    t0 = perf_counter()
    first = run.smoke(seed=0)
    assert perf_counter() - t0 < 60
    for key, r in first.items():
        assert r["correct"] and r["failed"] == 0, key
    again = run.smoke(seed=0)
    assert _counts(again) == _counts(first)


def test_a_fresh_seed_passes_every_check():
    for key, r in run.smoke(seed=90210).items():
        assert r["correct"] and r["failed"] == 0, key


def test_merge_reference_counts_what_the_oracle_counts():
    rng = Random(5)
    for _ in range(20):
        a, b = gen_signal(rng, 15), gen_signal(rng, 15)
        ta = tensor_1d("A", [((l, r), v) for l, r, v in a], 0.0, kind="interval")
        tb = tensor_1d("B", [((l, r), v) for l, r, v in b], 0.0, kind="interval")
        assert merge_integral(a, b)[1] == oracle.intersecting_nonzero_pairs(ta, tb)


def test_traced_run_writes_linked_spans_and_restores_the_package(tmp_path):
    path = tmp_path / "spans.json"
    r = run.run_workload("genomic", 3, 0.2, True, small=True, spans_path=path)
    assert r["correct"] and set(r["metrics"]) == set(run.LAYER_UNITS)
    assert contensor.compiler.validate is contensor.lang.validate
    assert contensor.executor.build_tensor is contensor.storage.build_tensor
    spans = json.loads(path.read_text())
    roots = {"query", "layers"}
    for s in spans:
        assert s["query"] >= 0 and s["end"] >= s["start"]
        assert (s["parent"] is None) == (s["name"] in roots), s
    names = {s["name"] for s in spans}
    assert {"lang.validate", "simplify.simplify_plan", "executor.build_tensor",
            "kernels.grid_build"} <= names


def test_every_workload_is_listed_in_the_benchmark_file():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in spec[key]} == units
