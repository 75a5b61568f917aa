"""Run two ``src`` trees on the same programs and report where they differ.

    python tools/differential.py OLD_SRC NEW_SRC [--draws 2000] [--full]

Each tree runs in a process of its own, with ``contensor`` imported from
that tree; the programs and inputs come from this checkout's ``tests/``
and ``perfbench/``, so both trees see the same ones:

- ``kernels``: the 9 shipped kernels on their canonical fixture and on
  random instances from seeds 0-29, and before each instance of a kernel
  whose inputs the system builds (``genomic_overlap_grid``'s ``Grid``)
  the tensors it binds;
- ``fuzz``: the first ``--draws`` derandomized draws of
  ``tests/test_fuzz.py::programs()``;
- ``store``: as many derandomized draws of ``tests/test_store.py::cases()``,
  plans of constant writes that reach the output store with no lowering;
- ``workloads``: every plan of perfbench's four workloads at their small
  size (``--full`` adds the full size), seeds 1-3, and before them the
  tensors each workload's setup binds (its ``Grid`` among them);
- ``levels``: ``tests/test_storage.py::level_cases()``, hand-built and
  seeded level columns stored directly, through their descriptors and
  from JSON.

Each plan is compiled once and run twice, the second time from the
kernel cache. A record holds the compile error, or the sha256 of the
kernel's source, the plan's size (the lines of ``ir.pretty``, as
perfbench's ``plan_lines`` counts them) and whether the plan walks, and
for each run the output
(``repr`` of its pieces and its fill, or of a scalar; a sha256 past 4 kB),
the ``ExecStats``, the diagnostics, or the class and message of the error
raised. A setup record holds the sha256 of the ``repr`` of each bound
tensor, so a change to how inputs are built shows here and not only in
the outputs downstream of it. A level record holds the tensor's ``repr``
(a sha256 past 4 kB) or the class and message of the error raised. A
record's results differ in three kinds:

- ``outputs``: an output, the error a compile or run raised, a setup's
  tensors, a level's tensor or error, or whether the plan walks;
- ``stats``: the ``ExecStats`` of a run;
- ``diagnostics``: the diagnostics of a run.

The report gives, per category, the records compared, how many plans
walk, how many raised, and how many differ in their source (a walking
plan's apart from the others'), in their plan's size and in each kind of
result; then, for the source, the plan size (with both trees' line
counts) and each kind of result, the label of every record that differs,
and the first such record from both trees. The exit status is 1 if any
result differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(30)
BUILT = ("genomic_overlap_grid",)  # kernels whose random instances bind a built tensor
WORKLOAD_SEEDS = (1, 2, 3)
LONG = 4096  # a repr longer than this is recorded by its sha256
# each kind of result a record holds besides its source: the record's keys
# and, within each run, the keys of that kind
RESULTS = {"outputs": (("walks", "compile", "setup", "level"), ("output", "error")),
           "stats": ((), ("stats",)), "diagnostics": ((), ("diagnostics",))}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _error(err: Exception) -> str:
    return f"{type(err).__name__}: {err}"


def _short(text: str) -> str:
    return text if len(text) <= LONG else f"sha256:{_sha(text)} ({len(text)} chars)"


def _shown(out) -> str:
    if hasattr(out, "pieces"):
        return _short(f"{type(out).__name__} fill={out.fill!r} pieces={list(out.pieces())!r}")
    return _short(f"{type(out).__name__} {out!r}")


def _record(case_id: str, compile_plan) -> dict:
    """Compile, render and run one plan twice, in the tree imported here."""
    from contensor import executor
    from contensor.ir import pretty

    rec = {"id": case_id}
    try:
        plan = compile_plan()
        text = pretty(plan)
        rec["walks"] = "(walk):" in text
        rec["plan_lines"] = len(text.splitlines())
        rec["kernel"] = _sha(executor.kernel_source(plan))
    except Exception as err:  # noqa: BLE001 - the class and message are the record
        rec["compile"] = _error(err)
        return rec
    rec["runs"] = []
    for _ in range(2):
        try:
            res = executor.run(plan)
            rec["runs"].append({"output": _shown(res.output), "stats": repr(res.stats),
                                "diagnostics": repr(res.diagnostics)})
        except Exception as err:  # noqa: BLE001
            rec["runs"].append({"error": _error(err)})
    return rec


def _setup_record(case_id: str, binds: dict) -> dict:
    return {"id": case_id, "setup": {name: _sha(repr(t)) for name, t in sorted(binds.items())}}


def _level_record(case_id: str, build) -> dict:
    try:
        return {"id": case_id, "level": _short(repr(build()))}
    except Exception as err:  # noqa: BLE001 - the class and message are the record
        return {"id": case_id, "level": _error(err)}


def _draws(strategy, n: int) -> list:
    """The first n derandomized draws of a hypothesis strategy."""
    from hypothesis import HealthCheck, Phase, given, settings

    out = []

    @settings(max_examples=n, derandomize=True, database=None, deadline=None,
              phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(strategy)
    def collect(case):
        out.append(case)

    collect()
    return out


def _cases(draws: int, full: bool):
    """(category, thunk making the record) of every case, in one fixed order."""
    sys.path[1:1] = [str(ROOT / "tests"), str(ROOT / "perfbench")]
    from contensor import kernels
    from contensor.compiler import compile_program
    from contensor.lang import parse

    def plan(category, case_id, compile_plan):
        return category, partial(_record, case_id, compile_plan)

    for name in sorted(kernels.KERNELS):
        k = kernels.get(name)
        program = k.program()
        yield plan("kernels", f"{name}/canonical", lambda p=program, b=k.canonical():
                   compile_program(p, b))
        for seed in SEEDS:
            binds = k.random_instance(Random(seed))
            if name in BUILT:
                yield "kernels", partial(_setup_record, f"{name}/{seed}/setup", binds)
            yield plan("kernels", f"{name}/{seed}", lambda p=program, b=binds:
                       compile_program(p, b))

    import test_fuzz

    for j, (src, binds) in enumerate(_draws(test_fuzz.programs(), draws) if draws else ()):
        yield plan("fuzz", f"draw {j}: {src!r}", lambda s=src, b=binds:
                   compile_program(parse(s), b))

    import test_store

    for j, case in enumerate(_draws(test_store.cases(), draws) if draws else ()):
        yield plan("store", f"draw {j}: {case!r}", lambda c=case: test_store.plan_of(*c))

    import workloads

    def null_span(*_):
        return contextlib.nullcontext()

    for small in (True, False) if full else (True,):
        for name in workloads.WORKLOADS:
            for seed in WORKLOAD_SEEDS:
                w = workloads.make(name, seed, small)
                binds = w.setup(null_span)
                size = "small" if small else "full"
                yield "workloads", partial(_setup_record, f"{name}/{size}/{seed}/setup", binds)
                for p in w.programs:
                    yield plan("workloads", f"{name}/{size}/{seed}/{p.label}",
                               lambda p=p, b=binds: compile_program(p.program, p.bind(b)))

    import test_storage

    for label, build in test_storage.level_cases():
        yield "levels", partial(_level_record, label, build)


def collect(draws: int, full: bool):
    """Print this process's records as JSON lines, after a header naming the tree."""
    import contensor

    print(json.dumps({"tree": str(Path(contensor.__file__).resolve().parent)}), flush=True)
    for category, record in _cases(draws, full):
        rec = record()
        rec["category"] = category
        print(json.dumps(rec), flush=True)


def _run_tree(src: Path, args) -> list:
    # one hash seed, so both processes iterate a set of names in one order
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--collect",
           "--draws", str(args.draws)] + (["--full"] if args.full else [])
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=False)
    if done.returncode:
        sys.exit(f"{src}: the collecting process failed\n{done.stderr}")
    head, *recs = (json.loads(line) for line in done.stdout.splitlines())
    if not head["tree"].startswith(str(src.resolve())):
        sys.exit(f"{src}: imported contensor from {head['tree']}")
    return recs


def _result(rec: dict, kind: str) -> list:
    """What a record holds of one kind of result."""
    keys, run_keys = RESULTS[kind]
    return [*(rec.get(k) for k in keys),
            *([r.get(k) for k in run_keys] for r in rec.get("runs", ()))]


def compare(old: list, new: list) -> int:
    """Print the counts, then per kind of difference the records that
    differ and the first of them; 1 if any result differs."""
    if [r["id"] for r in old] != [r["id"] for r in new]:
        print("the two trees ran different cases")
        return 1
    counts, differ = {}, {}
    for a, b in zip(old, new):
        c = counts.setdefault(a["category"], dict.fromkeys(
            ("records", "walk", "compile errors", "run errors", "walk sources differ",
             "other sources differ", "plan sizes differ", *(f"{k} differ" for k in RESULTS)), 0))
        c["records"] += 1
        c["walk"] += bool(b.get("walks"))
        c["compile errors"] += "compile" in b
        c["run errors"] += any("error" in r for r in b.get("runs", ()))
        kinds = []
        if a.get("kernel") != b.get("kernel"):
            c["walk sources differ" if a.get("walks") or b.get("walks")
              else "other sources differ"] += 1
            kinds.append("kernel source")
        if a.get("plan_lines") != b.get("plan_lines"):
            c["plan sizes differ"] += 1
            kinds.append("plan size")
        for kind in RESULTS:
            if _result(a, kind) != _result(b, kind):
                c[f"{kind} differ"] += 1
                kinds.append(kind)
        for kind in kinds:
            differ.setdefault(kind, []).append((a, b))
    for category, c in counts.items():
        print(f"{category:>9}: " + ", ".join(f"{v} {k}" for k, v in c.items()))
    for kind, pairs in differ.items():
        print(f"records that differ in {kind}:")
        for a, b in pairs:
            size = f": {a.get('plan_lines')} -> {b.get('plan_lines')} lines"
            print(f"  {a['id']}{size if kind == 'plan size' else ''}")
    for kind, pairs in differ.items():
        print(f"first of the records that differ in {kind}:")
        for side, rec in zip(("old", "new"), pairs[0]):
            print(f"  {side}: {json.dumps(rec, indent=2)}")
    return 1 if differ.keys() - {"kernel source", "plan size"} else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", nargs="?", type=Path, help="the first src tree")
    ap.add_argument("new", nargs="?", type=Path, help="the second src tree")
    ap.add_argument("--draws", type=int, default=2000,
                    help="programs() draws, and as many store cases() draws (default 2000)")
    ap.add_argument("--full", action="store_true", help="run the workloads at full size too")
    ap.add_argument("--collect", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.collect:
        collect(args.draws, args.full)
        return 0
    if args.old is None or args.new is None:
        ap.error("give two src trees")
    return compare(_run_tree(args.old, args), _run_tree(args.new, args))


if __name__ == "__main__":
    sys.exit(main())
