"""Seeded inputs, programs and reference checks for the four workloads.

Every input is generated with the stdlib ``random`` module from the seed
and serialized to JSON text before any query starts, so the system under
test sees only that text. Endpoints are uniform floats, never on a fixed
pitch. The references below read the generator's own lists and never
call the compiler or executor; the small twins are also checked against
``contensor.oracle.evaluate``.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from random import Random

from contensor import kernels, oracle, tensorio
from contensor.lang import parse
from contensor.storage import ContTensor

POINTWISE_SRC = "for i = -inf:inf\n  C[i] = A[i] * B[i]\nend\n"
REL = 1e-9  # the rel of dot_integral; products and integrals are held to it


def kway_source(k: int) -> str:
    factors = " * ".join(f"A{j}[i]" for j in range(1, k + 1))
    return f"for i = -inf:inf\n  s += {factors} * d(i)\nend\n"


class Program:
    """One program of a workload: its label, source and the inputs it reads."""

    def __init__(self, label: str, source: str, inputs):
        self.label = label
        self.source = source
        self.inputs = tuple(inputs)
        self.program = parse(source)

    def bind(self, binds: dict) -> dict:
        return {name: binds[name] for name in self.inputs}


# --- generators ------------------------------------------------------------

def _distinct_sorted(rng: Random, n: int, lo: float, hi: float) -> list:
    seen = set()
    while len(seen) < n:
        seen.add(rng.uniform(lo, hi))
    return sorted(seen)


def gen_signal(rng: Random, n: int):
    """n closed pieces with uniform endpoints on [0, n] and values in [0.5, 2]."""
    cuts = _distinct_sorted(rng, 2 * n, 0.0, float(n))
    return [(cuts[2 * j], cuts[2 * j + 1], rng.uniform(0.5, 2.0)) for j in range(n)]


def signal_json(name: str, pieces) -> str:
    return json.dumps({
        "name": name, "fill": 0.0,
        "levels": [{"kind": "interval", "ptr": [0, len(pieces)],
                    "left": [p[0] for p in pieces], "right": [p[1] for p in pieces]}],
        "values": [p[2] for p in pieces],
    })


# The geometry of kernels.random_genomic: starts in [0, 8.5), widths 0.05..1.5
GENOMIC_SPAN, GENOMIC_WMIN, GENOMIC_WMAX = 10.0, 0.05, 1.5


def gen_genomic_side(rng: Random, nchr: int, per_chr: int):
    """Per chromosome, ids 1..per_chr each holding one closed interval."""
    rows = []
    for _ in range(nchr):
        row = []
        for i in range(per_chr):
            a = rng.uniform(0.0, GENOMIC_SPAN - GENOMIC_WMAX)
            row.append((float(i + 1), a, a + rng.uniform(GENOMIC_WMIN, GENOMIC_WMAX)))
        rows.append(row)
    return rows


def genomic_json(name: str, rows) -> str:
    ids, left, right = [], [], []
    id_ptr, iv_ptr = [0], [0]
    for row in rows:
        for jd, a, b in row:
            ids.append(jd)
            left.append(a)
            right.append(b)
            iv_ptr.append(len(left))
        id_ptr.append(len(ids))
    return json.dumps({
        "name": name, "fill": False,
        "levels": [{"kind": "dense", "size": len(rows)},
                   {"kind": "pinpoint", "ptr": id_ptr, "crd": ids},
                   {"kind": "interval", "ptr": iv_ptr, "left": left, "right": right}],
        "values": [True] * len(left),
    })


# --- references ------------------------------------------------------------

def merge_integral(a, b):
    """Two-pointer merge of two sorted piece lists: (integral of a*b, pair count).

    The pair count is the number of overlapping piece pairs, both nonzero,
    which is what ``oracle.intersecting_nonzero_pairs`` counts by brute force.
    """
    i = j = pairs = 0
    terms = []
    while i < len(a) and j < len(b):
        la, ra, va = a[i]
        lb, rb, vb = b[j]
        lo, hi = max(la, lb), min(ra, rb)
        if lo <= hi and va and vb:
            pairs += 1
            terms.append(va * vb * (hi - lo))
        if ra < rb:
            i += 1
        else:
            j += 1
    return math.fsum(terms), pairs


def sweep_overlap(query_rows, data_rows) -> set:
    """(chromosome, id) of every query interval touching a data interval."""
    hits = set()
    for c, (qrow, drow) in enumerate(zip(query_rows, data_rows)):
        data = sorted((a, b) for _, a, b in drow)
        lefts = [a for a, _ in data]
        reach, top = [], -math.inf
        for _, b in data:
            top = max(top, b)
            reach.append(top)
        for jd, a, b in qrow:
            k = bisect_right(lefts, b)
            if k and reach[k - 1] >= a:
                hits.add((c, jd))
    return hits


def _close(x, y, rel=REL) -> bool:
    return math.isclose(x, y, rel_tol=rel, abs_tol=rel)


# --- workloads ---------------------------------------------------------------

class Workload:
    """Inputs as JSON text, the programs run on them, and the output check.

    ``setup`` is the timed decode-and-validate step; ``check`` compares the
    programs' outputs (in ``programs`` order) with the reference.
    """

    name = ""
    rel = REL
    texts: dict
    programs: list

    def setup(self, tr) -> dict:
        binds = {}
        for name, text in self.texts.items():
            with tr("tensorio.decode"):
                obj = json.loads(text)
            with tr("tensorio.from_json"):
                binds[name] = tensorio.tensor_from_json(obj)
        return binds

    def check(self, outputs) -> bool:
        raise NotImplementedError

    def oracle_check(self, binds: dict, outputs) -> bool:
        return all(
            oracle.outputs_match(out, oracle.evaluate(p.program, p.bind(binds)), rel=self.rel)
            for p, out in zip(self.programs, outputs))


class SignalDot(Workload):
    name = "signal_dot"

    def __init__(self, seed: int, n: int):
        rng = Random(seed)
        a, b = gen_signal(rng, n), gen_signal(rng, n)
        self.texts = {"A": signal_json("A", a), "B": signal_json("B", b)}
        k = kernels.get("dot_integral")
        self.programs = [Program("dot", k.source(), k.inputs)]
        self.integral, self.pairs = merge_integral(a, b)

    def check(self, outputs) -> bool:
        (out,) = outputs
        return isinstance(out, float) and _close(out, self.integral)


class SignalPointwise(SignalDot):
    name = "signal_pointwise"

    def __init__(self, seed: int, n: int):
        super().__init__(seed, n)
        self.programs = [Program("pointwise", POINTWISE_SRC, ("A", "B"))]

    def check(self, outputs) -> bool:
        (out,) = outputs
        if not isinstance(out, ContTensor) or len(out.values) != self.pairs:
            return False
        mass = math.fsum(v * (path[0].stop.val - path[0].start.val) for path, v in out.pieces())
        return _close(mass, self.integral)


class Genomic(Workload):
    name = "genomic"
    rel = 0.0

    def __init__(self, seed: int, per_chr: int, nchr: int = 2):
        rng = Random(seed)
        q = gen_genomic_side(rng, nchr, per_chr)
        d = gen_genomic_side(rng, nchr, per_chr)
        self.texts = {"Query": genomic_json("Query", q), "Data": genomic_json("Data", d)}
        self.programs = [
            Program(label, kernels.get(kn).source(), kernels.get(kn).inputs)
            for label, kn in (("naive", "genomic_overlap"), ("grid", "genomic_overlap_grid"))]
        self.hits = sweep_overlap(q, d)

    def setup(self, tr) -> dict:
        binds = super().setup(tr)
        with tr("kernels.grid_build"):
            binds["Grid"] = kernels.build_genomic_grid(binds["Data"])
        return binds

    def check(self, outputs) -> bool:
        for out in outputs:
            if not isinstance(out, ContTensor):
                return False
            got = {(path[0], path[1].start.val) for path, v in out.pieces() if v is True}
            if got != self.hits or len(out.values) != len(got):
                return False
        return True


class KWay(Workload):
    name = "kway_compile"

    def __init__(self, seed: int, kmax: int):
        rng = Random(seed)
        pieces = [(-rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0))
                  for _ in range(kmax)]
        self.texts = {f"A{j + 1}": signal_json(f"A{j + 1}", [p]) for j, p in enumerate(pieces)}
        self.programs = [
            Program(f"k{k}", kway_source(k), [f"A{j}" for j in range(1, k + 1)])
            for k in range(2, kmax + 1)]
        # every piece holds [-0.5, 0.5], so the product lives on their intersection
        self.answers = [
            math.prod(v for _, _, v in pieces[:k])
            * (min(r for _, r, _ in pieces[:k]) - max(l for l, _, _ in pieces[:k]))
            for k in range(2, kmax + 1)]

    def check(self, outputs) -> bool:
        return all(isinstance(o, float) and _close(o, a) for o, a in zip(outputs, self.answers))


# Full and small sizes. The small one is the oracle twin and the smoke size.
# genomic: random_genomic(per_chr=800) draws each side's id count from
# 0..800, so its work depends on the seed. The count here is fixed, so every
# seed does the same id-pair work, at 300 rather than that draw's mean of 400:
# a query then takes about 5 s instead of 11 s, and several fit one run.
SIZES = {
    "signal_dot": (lambda s: SignalDot(s, 100_000), lambda s: SignalDot(s, 40)),
    "signal_pointwise": (lambda s: SignalPointwise(s, 100_000), lambda s: SignalPointwise(s, 40)),
    "genomic": (lambda s: Genomic(s, 300), lambda s: Genomic(s, 4)),
    "kway_compile": (lambda s: KWay(s, 7), lambda s: KWay(s, 5)),
}
WORKLOADS = tuple(SIZES)


def make(name: str, seed: int, small: bool = False) -> Workload:
    return SIZES[name][1 if small else 0](seed)
