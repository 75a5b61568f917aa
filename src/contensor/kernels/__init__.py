"""Shipped kernel corpus.

Each kernel pairs a ``*.ct`` program with a canonical fixture (small,
hand-checkable bindings) and a random-instance generator used for
oracle cross-validation. Random endpoints land on a 0.05 pitch so the
coordinates the compiled plan produces are the same floats the
generators wrote down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import itemgetter, truth
from pathlib import Path
from random import Random

from ..lang import parse
from ..limits import BELOW, EXACT
from ..storage import ContTensor, DenseLevel, SparseLevel, StorageError, build_tensor, tensor_1d

_HERE = Path(__file__).parent
PITCH = 0.05

_VALS = (0.5, 1.0, 1.5, 2.0, 3.0, -1.0, -2.0)
_VAL = itemgetter(0)  # of a stored (val, eps) end


@dataclass(frozen=True)
class Kernel:
    name: str
    inputs: tuple
    rel: float = 0.0  # 0 means outputs must agree exactly

    @property
    def path(self) -> Path:
        return _HERE / f"{self.name}.ct"

    def source(self) -> str:
        return self.path.read_text()

    def program(self):
        return parse(self.source())

    def canonical(self) -> dict:
        return _CANONICAL[self.name]()

    def random_instance(self, rng: Random) -> dict:
        return _RANDOM[self.name](rng)


def _cuts(rng: Random, n, lo=-40, hi=40):
    return sorted(rng.sample(range(lo, hi), n))


def _rand_intervals(rng: Random, name, max_pieces=8, lo=-40, hi=40):
    n = rng.randint(0, max_pieces)
    c = _cuts(rng, 2 * n, lo, hi)
    keys = [(c[2 * j] * PITCH, c[2 * j + 1] * PITCH) for j in range(n)]
    return tensor_1d(name, [(k, rng.choice(_VALS)) for k in keys], 0.0,
                     kind="interval")


def _rand_pins(rng: Random, name, max_pins=8, lo=-40, hi=40):
    n = rng.randint(0, max_pins)
    return tensor_1d(name, [(c * PITCH, rng.choice(_VALS)) for c in _cuts(rng, n, lo, hi)],
                     0.0, kind="pinpoint")


def _rand_points(rng: Random, name, nid=10, vals=False):
    """Pinpoint x / pinpoint y / dense id, as the search kernels expect."""
    npts = rng.randint(1, 8)
    seen = set()
    while len(seen) < npts:
        seen.add((rng.randrange(0, 140), rng.randrange(0, 140)))
    ids = rng.sample(range(nid), npts)
    byx = {}
    for (xi, yi), pid in zip(sorted(seen), ids):
        byx.setdefault(xi, []).append((yi, pid))
    root = []
    for xi in sorted(byx):
        ys = []
        for yi, pid in sorted(byx[xi]):
            row = [False] * nid if not vals else [0.0] * nid
            row[pid] = True if not vals else 1.0
            ys.append((yi * PITCH, row))
        root.append((xi * PITCH, ys))
    return build_tensor(name, [("pinpoint",), ("pinpoint",), ("dense", nid)],
                        root, fill=False if not vals else 0.0)


# --- canonical fixtures -----------------------------------------------------

def _canon_dot_integral():
    A = tensor_1d("A", [((1.0, 3.0), 1.0), ((4.1, 5.1), 2.0)], 0.0, kind="interval")
    B = tensor_1d("B", [((2.0, 5.1), 1.5)], 0.0, kind="interval")
    return {"A": A, "B": B}


def _canon_dot_sum():
    P = tensor_1d("P", [(1.0, 2.0), (2.5, 4.0), (6.0, 8.0)], 0.0, kind="pinpoint")
    Q = tensor_1d("Q", [(2.5, 5.0), (6.0, 3.0), (7.0, 9.0)], 0.0, kind="pinpoint")
    return {"P": P, "Q": Q}


def _canon_masked_conv():
    M = tensor_1d("M", [(0.0, 1.0), (2.5, 1.0)], 0.0, kind="pinpoint")
    A = tensor_1d("A", [((-0.5, 0.5), 2.0), ((2.0, 3.0), 4.0)], 0.0, kind="interval")
    B = tensor_1d("B", [((-0.25, 0.25), 3.0)], 0.0, kind="interval")
    return {"M": M, "A": A, "B": B}


def _canon_radius_count():
    # three points inside the 1.7 circle around (2.2, 3.9), one outside
    pts = {1.0: [(3.0, 1.0)], 2.5: [(4.5, 1.0)], 3.0: [(3.0, 1.0)], 6.0: [(1.0, 1.0)]}
    A = build_tensor("A", [("pinpoint",), ("pinpoint",)],
                     [(x, ys) for x, ys in sorted(pts.items())], fill=0.0)
    return {"A": A}


def _canon_points():
    pts = [(1.0, 2.0, 0), (2.5, 3.5, 1), (6.0, 1.0, 2), (2.6, 3.4, 3)]
    root = []
    for x, y, pid in sorted(pts):
        row = [False] * 10
        row[pid] = True
        root.append((x, [(y, row)]))
    return build_tensor("Points", [("pinpoint",), ("pinpoint",), ("dense", 10)],
                        root, fill=False)


def _canon_box_search():
    Box = build_tensor("Box", [("interval",), ("interval",)],
                       [((2.0, 4.0), [((3.0, 4.0), True)])], fill=False)
    return {"Box": Box, "Points": _canon_points()}


def _canon_radius_search():
    return {"Points": _canon_points()}


def _canon_trilinear():
    root = []
    for xc in range(3):
        ys = []
        for yc in range(3):
            ys.append((yc, [(zc, [1.0, 1.0]) for zc in range(3)]))
        root.append((xc, ys))
    Grid = build_tensor(
        "Grid",
        [("regular", 1.0, 1.0, False), ("regular", 1.0, 1.0, False),
         ("regular", 1.0, 1.0, False), ("dense", 2)], root, fill=0.0)
    return {"Grid": Grid}


def _genomic_chr_fibers(per_chr, nchr=2):
    return [per_chr.get(c, []) for c in range(nchr)]


def _canon_genomic():
    Query = build_tensor(
        "Query", [("dense", 2), ("pinpoint",), ("interval",)],
        _genomic_chr_fibers({1: [(1.0, [((0.0, 2.0), True)]),
                                 (2.0, [((4.0, 7.0), True)])]}), fill=False)
    Data = build_tensor(
        "Data", [("dense", 2), ("pinpoint",), ("interval",)],
        _genomic_chr_fibers({1: [(1.0, [((0.5, 1.5), True)]),
                                 (2.0, [((2.0, 3.0), True)]),
                                 (3.0, [((3.5, 5.0), True)]),
                                 (4.0, [((6.0, 7.5), True)]),
                                 (5.0, [((7.6, 8.0), True)])]}), fill=False)
    return {"Query": Query, "Data": Data}


def _canon_genomic_grid():
    binds = _canon_genomic()
    # the two-half layout: cells [0,4) and [4,8) with their member ids
    binds["Grid"] = build_tensor(
        "Grid", [("dense", 2), ("interval",), ("pinpoint",)],
        _genomic_chr_fibers({1: [((0.0, 4.0, "right_open"),
                                  [(1.0, True), (2.0, True), (3.0, True)]),
                                 ((4.0, 8.0, "right_open"),
                                  [(3.0, True), (4.0, True), (5.0, True)])]}),
        fill=False)
    return binds


# --- random instances -------------------------------------------------------

def _rand_dot_integral(rng):
    return {"A": _rand_intervals(rng, "A"), "B": _rand_intervals(rng, "B")}


def _rand_dot_sum(rng):
    return {"P": _rand_pins(rng, "P"), "Q": _rand_pins(rng, "Q")}


def _rand_masked_conv(rng):
    return {"M": _rand_pins(rng, "M", max_pins=4),
            "A": _rand_intervals(rng, "A", max_pieces=4),
            "B": _rand_intervals(rng, "B", max_pieces=4)}


def _rand_radius_count(rng):
    npts = rng.randint(1, 8)
    seen = set()
    while len(seen) < npts:
        seen.add((rng.randrange(0, 140), rng.randrange(0, 140)))
    byx = {}
    for xi, yi in sorted(seen):
        byx.setdefault(xi, []).append(yi)
    root = [(xi * PITCH, [(yi * PITCH, float(rng.randint(1, 3)))
                          for yi in sorted(byx[xi])])
            for xi in sorted(byx)]
    return {"A": build_tensor("A", [("pinpoint",), ("pinpoint",)], root, fill=0.0)}


def _rand_box_search(rng):
    xa, xb, ya, yb = (_cuts(rng, 2, 0, 140) + _cuts(rng, 2, 0, 140))
    Box = build_tensor(
        "Box", [("interval",), ("interval",)],
        [((xa * PITCH, xb * PITCH), [((ya * PITCH, yb * PITCH), True)])],
        fill=False)
    return {"Box": Box, "Points": _rand_points(rng, "Points")}


def _rand_radius_search(rng):
    return {"Points": _rand_points(rng, "Points")}


def _rand_trilinear(rng):
    root = []
    for xc in range(3):
        ys = []
        for yc in range(3):
            ys.append((yc, [(zc, [rng.randint(1, 40) * 0.25 for _ in range(2)])
                            for zc in range(3)]))
        root.append((xc, ys))
    Grid = build_tensor(
        "Grid",
        [("regular", 1.0, 1.0, False), ("regular", 1.0, 1.0, False),
         ("regular", 1.0, 1.0, False), ("dense", 2)], root, fill=0.0)
    return {"Grid": Grid}


def random_genomic(rng: Random, nchr=2, per_chr=6, span=200, width=30):
    """Query/Data pair on ``nchr`` chromosomes, intervals on the pitch grid."""
    def side(name):
        fibers = []
        for _ in range(nchr):
            n = rng.randint(0, per_chr)
            rows = []
            for i in range(n):
                a = rng.randrange(0, span - width)
                b = a + rng.randint(1, width)
                rows.append((float(i + 1), [((a * PITCH, b * PITCH), True)]))
            fibers.append(rows)
        return build_tensor(name, [("dense", nchr), ("pinpoint",), ("interval",)],
                            fibers, fill=False)
    return {"Query": side("Query"), "Data": side("Data")}


def build_genomic_grid(data: ContTensor, cells: int = 0) -> ContTensor:
    """Cell -> member-id index over a [chr][id][interval] data tensor.

    Uniform right-open cells per chromosome; a data id is listed in every
    cell its interval touches. Empty cells are simply not stored. Cell
    count defaults to about the square root of the largest per-chromosome
    count of stored pieces with a true value, which balances cells scanned
    against ids per cell.

    Reads Data's columns as a kernel does: each id is a start of the
    pinpoint level, each piece an entry of the interval level under it,
    its value in ``values``. A piece with a true value must be bounded.
    Writes the Grid's columns the same way, cells and member ids appended
    in order, and hands them to ``ContTensor``, which checks each level
    once.
    """
    kinds = [("interval", "pinpoint")[lv.pinpoint] if lv.continuous else "dense"
             for lv in data.levels]
    if kinds != ["dense", "pinpoint", "interval"]:
        raise StorageError(f"tensor {data.name} has levels [{', '.join(kinds)}]; the grid "
                           "indexes a [dense, pinpoint, interval] tensor")
    nchr = data.levels[0].size
    id_ptr, id_crd = data.levels[1].ptr, data.levels[1].starts
    ptr, starts, stops = data.levels[2].ptr, data.levels[2].starts, data.levels[2].stops
    vals = data.values
    his = list(compress(map(_VAL, stops), vals))
    if math.inf in his or -math.inf in compress(map(_VAL, starts), vals):
        c, jd, iv = next(path for path, v in data.pieces() if v and not (
            -math.inf < path[2].start.val and path[2].stop.val < math.inf))
        raise StorageError(f"tensor {data.name} chromosome {c} id {jd.start}: piece {iv} is "
                           "unbounded, and the grid's cells cover only finite intervals")
    hi = max(chain((0.0,), his))
    if cells <= 0:
        # chromosome c's ids are id_ptr[c]..id_ptr[c+1], its pieces leaf[c]..leaf[c+1]
        leaf = [ptr[q] for q in id_ptr]
        biggest = max(sum(map(truth, vals[a:b])) for a, b in zip(leaf, leaf[1:]))
        cells = max(1, math.ceil(math.sqrt(biggest)))
    cw = (hi / cells) if hi > 0 else 1.0
    # the Grid's columns: per chromosome its cells, right-open pieces in
    # ascending order, and under each cell its member ids as points
    cell_ptr, cell_lo, cell_hi, member_ptr, member_ids = [0], [], [], [0], []
    for c in range(nchr):
        members = {}
        for q in range(id_ptr[c], id_ptr[c + 1]):
            # ids arrive in ascending order, so each member list is sorted
            # and an id already listed in a cell is its last entry; a
            # member is a float, as a pinpoint level's coordinates are
            jd = float(id_crd[q][0])
            for p in range(ptr[q], ptr[q + 1]):
                if vals[p]:
                    for k in range(int(starts[p][0] // cw), int(stops[p][0] // cw) + 1):
                        m = members.get(k)
                        if m is None:
                            members[k] = [jd]
                        elif m[-1] != jd:
                            m.append(jd)
        for k in sorted(members):
            cell_lo.append((k * cw, EXACT))
            cell_hi.append(((k + 1) * cw, BELOW))
            member_ids.extend(zip(members[k], repeat(EXACT)))
            member_ptr.append(len(member_ids))
        cell_ptr.append(len(cell_lo))
    points = tuple(member_ids)
    levels = (DenseLevel(nchr), SparseLevel(tuple(cell_ptr), tuple(cell_lo), tuple(cell_hi)),
              SparseLevel(tuple(member_ptr), points, points, pinpoint=True))
    return ContTensor("Grid", levels, (True,) * len(points), False)


def _rand_genomic(rng):
    return random_genomic(rng)


def _rand_genomic_grid(rng):
    binds = random_genomic(rng)
    binds["Grid"] = build_genomic_grid(binds["Data"])
    return binds


_CANONICAL = {
    "dot_integral": _canon_dot_integral,
    "dot_sum": _canon_dot_sum,
    "masked_conv": _canon_masked_conv,
    "radius_count": _canon_radius_count,
    "box_search": _canon_box_search,
    "radius_search": _canon_radius_search,
    "trilinear": _canon_trilinear,
    "genomic_overlap": _canon_genomic,
    "genomic_overlap_grid": _canon_genomic_grid,
}

_RANDOM = {
    "dot_integral": _rand_dot_integral,
    "dot_sum": _rand_dot_sum,
    "masked_conv": _rand_masked_conv,
    "radius_count": _rand_radius_count,
    "box_search": _rand_box_search,
    "radius_search": _rand_radius_search,
    "trilinear": _rand_trilinear,
    "genomic_overlap": _rand_genomic,
    "genomic_overlap_grid": _rand_genomic_grid,
}

KERNELS = {k.name: k for k in [
    Kernel("dot_integral", ("A", "B"), rel=1e-9),
    Kernel("dot_sum", ("P", "Q")),
    Kernel("masked_conv", ("M", "A", "B"), rel=1e-9),
    Kernel("radius_count", ("A",)),
    Kernel("box_search", ("Box", "Points")),
    Kernel("radius_search", ("Points",)),
    Kernel("trilinear", ("Grid",), rel=1e-9),
    Kernel("genomic_overlap", ("Query", "Data")),
    Kernel("genomic_overlap_grid", ("Query", "Data", "Grid")),
]}


def get(name: str) -> Kernel:
    try:
        return KERNELS[name]
    except KeyError:
        raise KeyError(f"no kernel named {name!r}; have {sorted(KERNELS)}") from None
