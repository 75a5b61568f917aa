"""End-to-end and per-layer benchmark of contensor.

One query runs the whole path: seeded JSON text -> tensorio.tensor_from_json
-> compiler.compile_program -> executor.run -> a check of every output
against a reference that does not use the compiler. The load is a closed
loop of queries in one process with no extra threads.

    python3 perfbench/run.py --workload signal_dot --seed 1 --trace 0
    python3 perfbench/run.py --all [--trace 1]   # every workload, one process each
    python3 perfbench/run.py --smoke             # small sizes, oracle-gated, < 60 s

--seconds defaults to run_seconds in BENCHMARK.json. The last line of a
single-workload run is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones: a
stage shorter than MIN_TIMED_S is repeated inside each query, every
repetition is timed and scaled to a reference host speed (see REF_S), and
a stage's metric is the median of all its repetitions in the run. With --trace 1 they are the per-layer ones, taken
from spans of traced queries that alternate with untraced ones, so that the
tracing overhead is measured pair by pair in the same run. Spans are
written to perfbench/out/ at the end of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from random import Random
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "contensor").is_dir():
    sys.exit(f"perfbench: no contensor sources under {SRC}")
sys.path.insert(0, str(SRC))

from contensor import bounds, executor, ir  # noqa: E402
from contensor.compiler import compile_program  # noqa: E402
from contensor.lang import parse  # noqa: E402
from contensor.storage import ContTensor  # noqa: E402

from spans import NO_TRACE, Tracer, rebound  # noqa: E402
from workloads import WORKLOADS, Workload, make  # noqa: E402

# The host's speed drifts by up to 1.6x over tens of seconds, and a fixed
# pure-Python loop timed while a stage runs slows down with it. So every
# stage's time is scaled by REF_S / (that loop's median time during the
# stage): the times reported are seconds on a host that runs the loop in
# REF_S, about its median on the host BASELINE.md was measured on.
REF_S = 0.0006
TICK_S = 0.05  # the loop is timed this often while a stage runs
MIN_TIMED_S = 0.25  # a stage faster than this is repeated inside one query
MAX_REPS = 1000
MIN_QUERIES = 3

END_TO_END_UNITS = {
    "setup_s": "s", "compile_s": "s", "run_s": "s", "query_s": "s",
    "peak_rss_mb": "MB", "plan_lines": "lines", "pass_frac": "ratio",
}
_EXEC_UNITS = {
    "executor.segments": "count", "executor.multiplies": "count",
    "executor.us_per_segment": "us", "executor.hit_ratio": "ratio",
    "executor.pieces_emitted": "count", "executor.rebuild_s": "s",
}
LAYER_UNITS = {
    "lang.parse_s": "s", "lang.validate_s": "s",
    "tensorio.decode_s": "s", "tensorio.from_json_s": "s",
    "tensorio.bytes_in": "bytes", "storage.pieces_in": "count",
    "storage.revalidate_s": "s",
    "kernels.grid_build_s": "s", "kernels.grid_cells": "count",
    "compiler.lower_s": "s", "compiler.plan_lines_pre": "lines", "compiler.n_slots": "count",
    "simplify.simplify_s": "s", "simplify.shrink_ratio": "ratio",
    "bounds.prune_s": "s", "bounds.plan_lines": "lines", "bounds.run_s": "s",
    **_EXEC_UNITS,
    **{f"{k}.{label}": u for label in ("naive", "grid") for k, u in _EXEC_UNITS.items()},
    "storage.pieces_out": "count", "storage.output_iter_s": "s",
    "trace.overhead_s": "s", "trace.span_cost_s": "s", "host.ref_s": "s",
}
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def plan_lines(plan) -> int:
    return len(ir.pretty(plan.body).splitlines())


@dataclass
class Sample:
    reps: tuple  # (setup, compile, run): the scaled time of each repetition
    ref_s: float  # the reference loop's median time during the stages
    binds: dict
    plans: list
    results: list

    @property
    def times(self) -> tuple:
        """(setup_s, compile_s, run_s): each stage's median repetition."""
        return tuple(statistics.median(r) for r in self.reps)

    @property
    def outputs(self) -> list:
        return [r.output for r in self.results]


class _Pair:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi


_rng = Random(0)
_POOL = [(_rng.random(), _rng.random()) for _ in range(1 << 15)]  # beyond L2
_ORDER = list(range(1 << 15))
_rng.shuffle(_ORDER)
_calls = itertools.count()


def ref_time() -> float:
    """Seconds the reference loop takes now. It mixes dict and integer work
    with object allocation and scattered reads of a table larger than L2,
    so it slows down with the host as compile and run do."""
    t0 = perf_counter()
    d = {}
    for i in range(500):
        k = i % 97
        d[k] = d.get(k, 0) + (i * 3) // 7 + len((i, k))
    base, kept = next(_calls) * 200, []
    for i in range(200):
        a, b = _POOL[_ORDER[(base + i) & 0x7FFF]]
        p = _Pair(min(a, b), max(a, b))
        if p.hi - p.lo > 0.5:
            kept.append((p.lo, p.hi))
    return perf_counter() - t0


class HostSpeed:
    """Times the reference loop on entry, on exit and on a SIGALRM every
    TICK_S seconds in between. The signal handler runs between bytecodes of
    the main thread, so no thread is started."""

    def __enter__(self):
        self.samples = [ref_time()]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def _tick(self, signum, frame):
        self.samples.append(ref_time())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(ref_time())

    @property
    def scale(self) -> float:
        return REF_S / statistics.median(self.samples)


def query(w: Workload, reps=(1, 1, 1), tr=NO_TRACE, stages=None) -> Sample:
    """Setup, compile every program, run every plan; each stage repeated
    its repetition count, every repetition timed, and scaled by the
    host's speed during the stage. ``stages`` collects compile stages."""
    times = ([], [], [])
    hosts = [HostSpeed() for _ in times]
    with hosts[0]:
        for _ in range(reps[0]):
            t0 = perf_counter()
            with tr("setup"):
                binds = w.setup(tr)
            times[0].append(perf_counter() - t0)
    with hosts[1]:
        for _ in range(reps[1]):
            t0 = perf_counter()
            plans = []
            for p in w.programs:
                st = {} if stages is not None else None
                with tr("compiler.compile_program", p.label):
                    plans.append(compile_program(p.program, p.bind(binds), stages=st))
                if st is not None:
                    stages.append(st)
            times[1].append(perf_counter() - t0)
    with hosts[2]:
        for _ in range(reps[2]):
            t0 = perf_counter()
            results = []
            for p, plan in zip(w.programs, plans):
                with tr("executor.run", p.label):
                    results.append(executor.run(plan))
            times[2].append(perf_counter() - t0)
    scaled = tuple([t * h.scale for t in ts] for h, ts in zip(hosts, times))
    ref_s = statistics.median([x for h in hosts for x in h.samples])
    return Sample(scaled, ref_s, binds, plans, results)


def check_twin(name: str, seed: int) -> bool:
    """The small twin must match both its reference and the oracle."""
    twin = make(name, seed, small=True)
    s = query(twin)
    return twin.check(s.outputs) and twin.oracle_check(s.binds, s.outputs)


def span_cost(n: int = 20_000) -> float:
    """Seconds one empty span costs, timed on a throwaway Tracer."""
    tr = Tracer()
    t0 = perf_counter()
    for _ in range(n):
        with tr("x"):
            pass
    return (perf_counter() - t0) / n


def _reps(t: float) -> int:
    return max(1, min(MAX_REPS, math.ceil(MIN_TIMED_S / max(t, 1e-9))))


# --- per-layer metrics from one traced query ----------------------------------

def traced_query(w: Workload, tr: Tracer, qid: int):
    """One query under spans, then the layer calls made directly on its
    inputs and outputs. Returns (sample, ok, layer metrics)."""
    tr.query = qid
    first = len(tr.spans)
    pre = []
    with rebound(tr):
        with tr("query"):
            s = query(w, tr=tr, stages=pre)
        ok = w.check(s.outputs)
        n_spans = len(tr.spans) - first
        with tr("layers"):
            for p in w.programs:
                with tr("lang.parse"):
                    parse(p.source)
            for name in w.texts:
                t = s.binds[name]
                with tr("storage.revalidate"):
                    ContTensor(name=t.name, levels=t.levels, values=t.values, fill=t.fill)
            pieces_out = 0
            for out in s.outputs:
                if isinstance(out, ContTensor):
                    with tr("storage.output_iter"):
                        pieces_out += sum(1 for _ in out.pieces())
            bplans, bres = [], []
            for p, plan in zip(w.programs, s.plans):
                with tr("bounds.prune_bounds", p.label):
                    bounds.prune_bounds(plan)
                with tr("bounds.compile", p.label):
                    bplans.append(compile_program(p.program, p.bind(s.binds), opt_bounds=True))
                with tr("bounds.run", p.label):
                    bres.append(executor.run(bplans[-1]))
        ok = ok and w.check([r.output for r in bres])
    spans = tr.of_query(qid)

    def total(name, program=None, parent=None):
        return sum(x.dur for x in spans if x.name == name
                   and (program is None or x.program == program)
                   and (parent is None or tr.spans[x.parent].name == parent))

    pre_lines = sum(plan_lines(st["plan"]) for st in pre)
    post_lines = sum(plan_lines(p) for p in s.plans)
    compile_self = total("compiler.compile_program") - total(
        "lang.validate", parent="compiler.compile_program") - total(
        "simplify.simplify_plan", parent="compiler.compile_program")
    m = {
        "lang.parse_s": total("lang.parse"),
        "lang.validate_s": total("lang.validate", parent="compiler.compile_program"),
        "tensorio.decode_s": total("tensorio.decode"),
        "tensorio.from_json_s": total("tensorio.from_json"),
        "tensorio.bytes_in": sum(len(t.encode()) for t in w.texts.values()),
        "storage.pieces_in": sum(len(s.binds[n].values) for n in w.texts),
        "storage.revalidate_s": total("storage.revalidate"),
        "kernels.grid_build_s": total("kernels.grid_build"),
        "kernels.grid_cells": s.binds["Grid"].n_entries(1) if "Grid" in s.binds else 0,
        "compiler.lower_s": compile_self,
        "compiler.plan_lines_pre": pre_lines,
        "compiler.n_slots": sum(p.n_slots for p in s.plans),
        "simplify.simplify_s": total("simplify.simplify_plan", parent="compiler.compile_program"),
        "simplify.shrink_ratio": post_lines / pre_lines,
        "bounds.prune_s": total("bounds.prune_bounds"),
        "bounds.plan_lines": sum(plan_lines(p) for p in bplans),
        "bounds.run_s": total("bounds.run"),
        "storage.pieces_out": pieces_out,
        "storage.output_iter_s": total("storage.output_iter"),
        "trace.spans": n_spans,
        "host.ref_s": s.ref_s,
    }
    m.update(_exec_metrics(w, s, total, None))
    # genomic runs two programs; elsewhere no program has these labels
    for label in ("naive", "grid"):
        m.update({f"{k}.{label}": v for k, v in _exec_metrics(w, s, total, label).items()})
    return s, ok, m


def _exec_metrics(w: Workload, s: Sample, total, label):
    res = [r for p, r in zip(w.programs, s.results) if label in (None, p.label)]
    segs = sum(r.stats.segments_visited for r in res)
    mults = sum(r.stats.multiplies for r in res)
    run_s = total("executor.run", program=label)
    return {
        "executor.segments": segs,
        "executor.multiplies": mults,
        "executor.us_per_segment": 1e6 * run_s / segs if segs else 0.0,
        "executor.hit_ratio": mults / segs if segs else 0.0,
        "executor.pieces_emitted": sum(r.stats.pieces_emitted for r in res),
        "executor.rebuild_s": total("executor.build_tensor", program=label, parent="executor.run"),
    }


# --- one workload -------------------------------------------------------------

def _median(xs):
    return statistics.median(xs) if xs else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False, spans_path=None) -> dict:
    """The closed loop for one workload; returns the result object."""
    w = make(name, seed, small)
    twin_ok = check_twin(name, seed)
    gc.disable()
    try:
        warm = query(w)  # untimed: the first run is slower than later ones
    finally:
        gc.enable()
    warm_ok = w.check(warm.outputs)
    warm_lines = sum(plan_lines(p) for p in warm.plans)
    reps = (1, 1, 1) if trace else tuple(_reps(t) for t in warm.times)
    del warm
    tr = Tracer() if trace else None
    plain, traced, layers = [], [], []  # (setup_s, compile_s, run_s) per query
    pooled = ([], [], [])  # every timed repetition of each stage, untraced
    host = []  # the reference loop's time in each untraced query
    overheads = []  # traced query_s minus the untraced query_s just before it
    attempted = failed = 0
    prev = None  # the last untraced query's times
    wall = {}  # last wall time of each kind of query, to stay inside the window
    start = perf_counter()
    min_queries = 2 if trace else MIN_QUERIES  # a traced run needs one of each kind
    while True:
        kind = trace and attempted % 2 == 1
        if attempted >= min_queries and (
                perf_counter() - start + wall.get(kind, 0.0) > seconds):
            break
        gc.collect()
        gc.disable()  # as timeit does: collector pauses depend on heap history
        t0 = perf_counter()
        try:
            if kind:
                s, ok, m = traced_query(w, tr, attempted)
            else:
                s = query(w, reps)
                ok = w.check(s.outputs)
        except Exception:  # a failed query is counted, and the loop goes on
            traceback.print_exc(file=sys.stderr)
            s, ok = None, False
        finally:
            gc.enable()
        wall[kind] = perf_counter() - t0
        attempted += 1
        if not (ok and twin_ok and warm_ok):
            failed += 1
            prev = None
        elif kind:
            traced.append(s.times)
            layers.append(m)
            if prev is not None:
                overheads.append(sum(s.times) - sum(prev))
        else:
            plain.append(s.times)
            host.append(s.ref_s)
            for pool, r in zip(pooled, s.reps):
                pool.extend(r)
            prev = s.times
        del s  # free the query's tensors, plans and outputs before the next one
    print(f"{name}: seed {seed}, {len(plain)} untraced and {len(traced)} traced samples, "
          f"reps (setup, compile, run) = {reps}, query_s = "
          f"{[round(sum(x), 4) for x in plain + traced]}, untraced host.ref_s = "
          f"{[round(x, 6) for x in host]}", file=sys.stderr)

    if trace:
        metrics = {k: _median([m[k] for m in layers])
                   for k in LAYER_UNITS if not k.startswith("trace.")}
        metrics["trace.overhead_s"] = _median(overheads)
        metrics["trace.span_cost_s"] = _median([m["trace.spans"] for m in layers]) * span_cost()
        units = LAYER_UNITS
        if spans_path is not None:
            tr.write(spans_path)
    else:
        metrics = {
            "setup_s": _median(pooled[0]),
            "compile_s": _median(pooled[1]),
            "run_s": _median(pooled[2]),
            "query_s": _median([sum(t) for t in plain]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "plan_lines": warm_lines,
            "pass_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    return {
        "correct": twin_ok and warm_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


# --- several workloads ----------------------------------------------------------

def _table(results: dict) -> str:
    """One row per metric, one column per workload; fail_frac is failed/attempted."""
    rows = {}
    for r in results.values():
        cells = {k: (v["value"], v["unit"]) for k, v in r["metrics"].items()}
        cells["fail_frac"] = (r["failed"] / r["attempted"], "ratio")
        for k, (value, unit) in cells.items():
            text = f"{int(value)}" if float(value).is_integer() else f"{value:.5g}"
            rows.setdefault(k, []).append(f"{text:>12} {unit:<6}")
    width = max(map(len, rows)) + 2
    head = " " * width + "".join(f"{w:>12}{'':7}" for w in results)
    return "\n".join([head] + [f"{k:<{width}}" + "".join(c) for k, c in rows.items()])


def run_all(seed: int, seconds: float, trace: bool) -> bool:
    """Each workload in a fresh process, so peak memory is its own."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return False
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(_table(results))
    return all(r["correct"] for r in results.values())


def smoke(seed: int) -> dict:
    """Every workload at small size, untraced and traced, in this process."""
    return {(name, trace): run_workload(name, seed, 0.2, trace, small=True)
            for name in WORKLOADS for trace in (False, True)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--all", action="store_true", help="every workload, one process each")
    mode.add_argument("--smoke", action="store_true", help="every workload at small size")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.smoke:
        results = smoke(args.seed)
        for (name, trace), r in results.items():
            print(f"{name:<18} trace={int(trace)} correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}")
        return 0 if all(r["correct"] for r in results.values()) else 1
    if args.all:
        return 0 if run_all(args.seed, args.seconds, bool(args.trace)) else 1
    spans_path = None
    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        spans_path = out / f"spans_{args.workload}_seed{args.seed}.json"
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          spans_path=spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
