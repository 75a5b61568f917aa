"""Fibertree storage for piecewise-constant tensors over real indices.

A tensor is a list of per-rank levels plus one flat leaf value array.
Discrete ranks use dense levels; a continuous rank stores sorted,
pairwise disjoint pieces (points, intervals, or intervals on a regular
grid). Everything not covered by a stored piece takes the tensor's fill
value, which is how finite data denotes a function on the whole line.

Positions: level l is split into fibers, one per position of level l-1
(the root has a single fiber, position 0). A sparse fiber f owns entries
ptr[f]..ptr[f+1]; a dense fiber f owns positions f*size..(f+1)*size. Leaf
positions index ``values``.

Each continuous rank stores one ``SparseLevel``: ptr plus a start and a
stop column, whose entries are plain ``(val, eps)`` tuples that order
exactly as the ``Limit``s they stand for, and the level's value columns,
``los`` and ``his``, the floats of those ends, which generated kernels
compare before the tuples and which take no part in ``==``, ``repr`` or
the hash. Callers read a tensor through
``fiber_entries`` and ``pieces``, which hand out ``Interval``s of
``Limit``s, and ``at``, the value at one point. Generated kernels call a
level's ``seek``, a binary search of its stop column, and read its
columns directly.

``PinpointLevel``, ``IntervalLevel`` and ``RegularLevel`` are input
descriptors in the shape of the JSON schema: a ``ContTensor`` decodes
each once, with its level index, into the ``SparseLevel`` it keeps, and
a ``SparseLevel`` given directly must also have the ends they make.

Validation makes whole-column passes (``map``, ``zip``, ``all``) and
looks at single elements only once one of them fails, to name the first
bad element in the error. ``SparseLevel.checked`` takes each value
column once, or the floats a descriptor has just decoded, keeps it on
the level it returns, and orders the pieces by those floats, comparing
the ``(val, eps)`` tuples only from the first place where a float test
fails, so a level whose neighbours all touch costs one tuple pass: a
level the system builds itself (an output, the genomic grid) is checked
once, there, like any other. A closed end at -inf or inf holds the same
reals as the open one, so a level that passes stores it open (a regular
level excepted, which saves its ends as its format says): every stored
end lies between the open -inf and the open inf, and a kernel copies a
stored end into its output as it is. Only a level with an infinite end
pays for the pass that opens them, after its checks, so its errors name
the pieces as given.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from bisect import bisect_left
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, ge, indexOf, itemgetter, le, lt, mul, sub, truth
from typing import Iterator, Optional, Sequence, Union

from .intervals import Interval
from .limits import ABOVE, BELOW, EXACT, Limit, as_limit


class StorageError(ValueError):
    pass


class UnsortedError(StorageError):
    def __init__(self, level: int, fiber: int, pos: int):
        super().__init__(
            f"level {level} fiber {fiber}: pieces out of order at position {pos}"
        )
        self.level, self.fiber, self.pos = level, fiber, pos


class OverlapError(StorageError):
    def __init__(self, message: str):
        super().__init__(message)
        self.level = self.fiber = self.pos = None

    @classmethod
    def stored(cls, level: int, fiber: int, pos: int) -> "OverlapError":
        err = cls(
            f"level {level} fiber {fiber}: pieces at positions {pos} and {pos + 1} overlap"
        )
        err.level, err.fiber, err.pos = level, fiber, pos
        return err


class InvalidPieceError(StorageError):
    pass


# ---------------------------------------------------------------------------
# stored levels


@dataclass(frozen=True)
class DenseLevel:
    size: int

    continuous = False
    pinpoint = False

    def decode(self, level: int, n_fibers: int) -> "DenseLevel":
        if self.size <= 0:
            raise InvalidPieceError(f"level {level}: dense size must be positive")
        return self


@dataclass(frozen=True, slots=True)
class SparseLevel:
    """The stored pieces of one continuous level, as endpoint columns.

    Fiber f owns positions ptr[f]..ptr[f+1]; piece p covers starts[p]..
    stops[p], plain ``(val, eps)`` tuples ordered as Limits are (a
    pinpoint level shares one tuple for both). The format fields say that
    every piece is a point (``pinpoint``) and, for a level declared
    regular, give its ``(stride, length, rclose)``, which it saves as.
    A level ``checked`` returns also keeps its value columns: ``los[p]``
    equals ``starts[p][0]`` and ``his[p]`` equals ``stops[p][0]``, of the
    same type (one column for a pinpoint level), which generated kernels
    compare before the tuples. They hold what the tuples hold, so they
    take no part in ``==``, ``repr`` or the hash.
    """

    ptr: tuple
    starts: tuple
    stops: tuple
    pinpoint: bool = False
    regular: Optional[tuple] = None
    los: Optional[Sequence] = field(default=None, compare=False, repr=False)
    his: Optional[Sequence] = field(default=None, compare=False, repr=False)

    continuous = True

    def decode(self, level: int, n_fibers: int) -> "SparseLevel":
        """A level given directly: its starts must be exact or open above
        and its stops exact or open below, the only ends the descriptors
        make and the executor handles; then the column checks, which take
        its value columns afresh."""
        starts, stops = self.starts, self.stops
        # a shared column holds both ends of each point: exact ones only
        if not (set(map(_EPS, starts)) <= {EXACT} if stops is starts else
                set(map(_EPS, starts)) <= {EXACT, ABOVE}
                and set(map(_EPS, stops)) <= {EXACT, BELOW}):
            p = next(p for p, (a, b) in enumerate(zip(starts, stops))
                     if a[1] not in (EXACT, ABOVE) or b[1] not in (EXACT, BELOW))
            piece = Interval(Limit(*starts[p]), Limit(*stops[p]))
            raise InvalidPieceError(f"level {level}: cannot store piece {p} {piece} in "
                                    f"{'a pinpoint' if self.pinpoint else 'an interval'} level")
        bare = self if self.los is None else SparseLevel(
            self.ptr, starts, stops, self.pinpoint, self.regular)
        return bare.checked(level, n_fibers)

    def checked(self, level: int, n_fibers: int) -> "SparseLevel":
        """Check the columns and return the level with its value columns:
        every end a number, no piece starting at inf or stopping at -inf
        (it holds no real number), and each fiber's pieces non-empty,
        sorted and pairwise disjoint, which lets ``seek`` binary-search the
        stops. A level that passes with a closed end at -inf or inf comes
        back with it open, which holds the same reals; a regular level
        keeps the ends it saves as.

        The value columns are the ones a descriptor decoded, where it set
        them, else each is taken once (a pinpoint level's shared column
        once for both ends), and the order passes compare their floats: a
        tuple's value decides how it orders unless two values tie, so the
        ``(val, eps)`` tuples are compared only from the first place where
        a float test fails."""
        ptr, starts, stops = self.ptr, self.starts, self.stops
        if len(stops) != len(starts):
            raise InvalidPieceError(f"level {level}: starts/stops length mismatch")
        los = self.los if self.los is not None else list(map(_VAL, starts))
        his = (self.his if self.his is not None else
               los if stops is starts else list(map(_VAL, stops)))
        # a finite sum rules out NaN and infinite ends in one pass
        finite = math.isfinite(sum(los)) and (his is los or math.isfinite(sum(his)))
        if not finite and (any(map(math.isnan, los)) or any(map(math.isnan, his))):
            raise InvalidPieceError(f"level {level}: NaN endpoint")
        _check_ptr(ptr, level, n_fibers, len(starts))
        # every piece non-empty and real, and below the next one except
        # where a fiber begins: non-empty and disjoint imply sorted, so
        # this accepts exactly what _first_fault's scan accepts. A point
        # is never empty. From the first start whose value is not below
        # its stop's, or stop whose value is not below the next start's,
        # the tuples decide: touching neighbours tie everywhere, and then
        # one tuple pass is all the check costs
        fault = not finite and (math.inf in los or -math.inf in his)
        if stops is not starts and not all(map(lt, los, his)):
            k = indexOf(map(lt, los, his), False)
            fault = fault or not all(map(le, islice(starts, k, None), islice(stops, k, None)))
        nxt = islice(los, 1, None)
        if len(ptr) > 2:
            # a fiber's pieces need not lie above those of the fiber before
            # it: the start after each fiber's last piece reads as inf
            nxt = list(islice(los, 1, None))
            nxt.append(math.inf)
            for q in ptr:
                nxt[q - 1] = math.inf
        if not all(map(lt, his, nxt)):
            k = indexOf(map(lt, his, nxt if len(ptr) > 2 else islice(los, 1, None)), False)
            reach = map(ge, islice(stops, k, None), islice(starts, k + 1, None))
            fault = fault or not set(compress(range(k + 1, len(los)), reach)) <= set(ptr)
        if fault:
            _first_fault(level, ptr, starts, stops)
        if not finite and self.regular is None:
            return SparseLevel(ptr, tuple(map(_OPEN.get, starts, starts)),
                               tuple(map(_OPEN.get, stops, stops)), los=los, his=his)
        if self.los is None:
            # derived from the level's own ends, so set on it in place
            object.__setattr__(self, "los", los)
            object.__setattr__(self, "his", his)
        return self

    def span(self, f: int) -> tuple:
        if not 0 <= f < len(self.ptr) - 1:
            raise IndexError(f"fiber {f} out of range")
        return self.ptr[f], self.ptr[f + 1]

    def seek(self, f: int, target: tuple) -> int:
        """First position of fiber f whose stop is >= target."""
        return bisect_left(self.stops, target, self.ptr[f], self.ptr[f + 1])

    def probe(self, f: int, x: tuple) -> int:
        """Position of fiber f's piece containing x; -1 if none or f < 0."""
        if f < 0:
            return -1
        p = self.seek(f, x)
        if p < self.ptr[f + 1] and self.starts[p] <= x:
            return p
        return -1


# a (val, eps) tuple as a Limit, and a pair of Limits as an Interval
_limit_of = functools.partial(tuple.__new__, Limit)
_interval_of = functools.partial(tuple.__new__, Interval)
_START = _VAL = _KEY = itemgetter(0)  # of an Interval, of an endpoint, of a (key, child) pair
_STOP = _EPS = _CHILD = itemgetter(1)
# a closed end at -inf or inf as the open one: a start there is at -inf and
# a stop at inf, since checked rejects the others
_OPEN = {(-math.inf, EXACT): (-math.inf, ABOVE), (math.inf, EXACT): (math.inf, BELOW)}


def _first_fault(level: int, ptr, starts, stops):
    """Raise the error for the first empty, unreal, unsorted or
    overlapping piece."""
    for f in range(len(ptr) - 1):
        lo = ptr[f]
        for p in range(lo, ptr[f + 1]):
            if starts[p] > stops[p] or starts[p][0] == math.inf or stops[p][0] == -math.inf:
                fault = "is empty" if starts[p] > stops[p] else "holds no real number"
                raise InvalidPieceError(
                    f"level {level} fiber {f}: piece at position {p} {fault} "
                    f"({Interval(Limit(*starts[p]), Limit(*stops[p]))})"
                )
            if p > lo:
                if starts[p][0] < starts[p - 1][0]:
                    raise UnsortedError(level, f, p)
                if not stops[p - 1] < starts[p]:
                    raise OverlapError.stored(level, f, p - 1)


# ---------------------------------------------------------------------------
# input descriptors: the sparse levels in the shape of the JSON schema,
# each decoded once into a SparseLevel by the tensor that holds it


@dataclass(frozen=True)
class PinpointLevel:
    ptr: tuple
    crd: tuple

    def decode(self, level: int, n_fibers: int) -> SparseLevel:
        crd = self.crd
        if not all(map(math.isfinite, crd)):
            c = next(c for c in crd if not math.isfinite(c))
            raise InvalidPieceError(f"level {level}: bad coordinate {c!r}")
        crd = tuple(crd) if set(map(type, crd)) <= {float} else tuple(map(float, crd))
        points = tuple(zip(crd, repeat(EXACT)))
        return SparseLevel(self.ptr, points, points, pinpoint=True,
                           los=crd, his=crd).checked(level, n_fibers)


@dataclass(frozen=True)
class IntervalLevel:
    ptr: tuple
    left: tuple
    right: tuple
    lclose: Union[bool, tuple] = True
    rclose: Union[bool, tuple] = True

    def decode(self, level: int, n_fibers: int) -> SparseLevel:
        n = len(self.left)
        if len(self.right) != n:
            raise InvalidPieceError(f"level {level}: left/right length mismatch")
        for flags in (self.lclose, self.rclose):
            if not isinstance(flags, bool) and len(flags) != n:
                raise InvalidPieceError(f"level {level}: inclusiveness flag length mismatch")
        left, right = tuple(self.left), tuple(self.right)
        starts = _column(left, self.lclose, ABOVE)
        stops = _column(right, self.rclose, BELOW)
        return SparseLevel(self.ptr, starts, stops, los=left, his=right).checked(level, n_fibers)


def _column(vals, flags, open_eps: int) -> tuple:
    """Endpoint tuples: exact where the flag is set, else open_eps."""
    if isinstance(flags, bool):
        return tuple(zip(vals, repeat(EXACT if flags else open_eps)))
    return tuple(zip(vals, map((open_eps, EXACT).__getitem__, map(truth, flags))))


@dataclass(frozen=True)
class RegularLevel:
    """Evenly described pieces [stride*x, stride*x + length) for integer x.

    Decodes to the interval level it denotes (a pinpoint one for length
    0) that remembers its stride, length and rclose, so it saves as
    regular. ``ptr`` may be omitted for the single-fiber case.
    """

    stride: float
    length: float
    rclose: bool
    xs: tuple
    ptr: Optional[tuple] = None

    def decode(self, level: int, n_fibers: int) -> SparseLevel:
        if self.stride <= 0 or math.isnan(self.stride) or math.isinf(self.stride):
            raise InvalidPieceError(f"level {level}: regular stride must be positive and finite")
        if self.length < 0 or math.isnan(self.length):
            raise InvalidPieceError(f"level {level}: regular piece length must be >= 0")
        if self.ptr is None and n_fibers != 1:
            raise InvalidPieceError(f"level {level}: regular level needs ptr for {n_fibers} fibers")
        ptr = self.ptr if self.ptr is not None else (0, len(self.xs))
        lows = tuple(map(mul, repeat(self.stride), _int_xs(self.xs, f"level {level}")))
        starts = tuple(zip(lows, repeat(EXACT)))
        stops, highs = starts, lows
        if self.length != 0:
            highs = tuple(map(add, lows, repeat(self.length)))
            stops = tuple(zip(highs, repeat(EXACT if self.rclose else BELOW)))
        fmt = (self.stride, self.length, self.rclose)
        return SparseLevel(ptr, starts, stops, pinpoint=self.length == 0, regular=fmt,
                           los=lows, his=highs).checked(level, n_fibers)


def _integral(x) -> bool:
    """True for ints and for finite floats with no fractional part."""
    return isinstance(x, int) or (isinstance(x, float) and x.is_integer())


def _int_xs(xs, where: str) -> tuple:
    """xs as ints; a non-finite or fractional x is an InvalidPieceError."""
    if set(map(type, xs)) <= {int}:
        return tuple(xs)
    for x in xs:
        if not _integral(x):
            raise InvalidPieceError(f"{where}: regular xs must be integers, got {x!r}")
    return tuple(map(int, xs))


def _check_ptr(ptr, level: int, n_fibers: int, n_entries: int) -> None:
    if len(ptr) != n_fibers + 1 or ptr[0] != 0 or ptr[-1] != n_entries:
        raise InvalidPieceError(
            f"level {level}: ptr must run 0..{n_entries} over {n_fibers} fibers, got {list(ptr)}"
        )
    if not all(map(le, ptr, islice(ptr, 1, None))):
        i = next(i for i in range(n_fibers) if ptr[i + 1] < ptr[i])
        raise InvalidPieceError(f"level {level}: ptr not monotone at fiber {i}")


# ---------------------------------------------------------------------------
# tensors


@dataclass(frozen=True)
class ContTensor:
    name: str
    levels: tuple
    values: tuple
    fill: Union[float, bool] = 0.0

    def __post_init__(self):
        n = 1
        fibers, levels = [], []
        for i, lv in enumerate(self.levels):
            fibers.append(n)
            lv = lv.decode(i, n)
            levels.append(lv)
            n = n * lv.size if isinstance(lv, DenseLevel) else lv.ptr[-1]
        if len(self.values) != n:
            raise InvalidPieceError(
                f"tensor {self.name}: expected {n} leaf values, got {len(self.values)}"
            )
        object.__setattr__(self, "levels", tuple(levels))
        object.__setattr__(self, "_fiber_counts", tuple(fibers))

    @property
    def ndim(self) -> int:
        return len(self.levels)

    def n_fibers(self, level: int) -> int:
        return self._fiber_counts[level]

    def n_entries(self, level: int) -> int:
        lv = self.levels[level]
        if isinstance(lv, DenseLevel):
            return self.n_fibers(level) * lv.size
        return lv.ptr[-1]

    # -- access ----------------------------------------------------------
    def fiber_entries(self, level: int, fiber: int):
        """Stored (Interval, position) pairs of one fiber, in order."""
        lv = self.levels[level]
        if isinstance(lv, DenseLevel):
            raise TypeError("dense levels have no piece entries")
        lo, hi = lv.span(fiber)
        starts = map(_limit_of, lv.starts[lo:hi])
        stops = map(_limit_of, lv.stops[lo:hi])
        return list(zip(map(_interval_of, zip(starts, stops)), range(lo, hi)))

    def at(self, *coords):
        """Evaluate the tensor at one point; fill where nothing is stored."""
        if len(coords) != self.ndim:
            raise TypeError(f"tensor {self.name} has {self.ndim} ranks, got {len(coords)} coords")
        pos = 0
        for level, (lv, c) in enumerate(zip(self.levels, coords)):
            if isinstance(lv, DenseLevel):
                if not (_integral(c) and 0 <= c < lv.size):
                    raise IndexError(f"coordinate {c!r} outside dense rank of size {lv.size}")
                pos = pos * lv.size + int(c)
            else:
                x = as_limit(c)
                if math.isnan(x.val):
                    raise ValueError(f"tensor {self.name} level {level}: coordinate {c!r} is NaN")
                pos = lv.probe(pos, x)
                if pos < 0:
                    return self.fill
        return self.values[pos]

    def pieces(self) -> Iterator[tuple]:
        """(coordinate path, value) for every stored leaf, in order.

        Paths hold ints for dense ranks and Intervals for continuous
        ranks. Built level by level, one path per position: a dense
        level extends each parent path by each rank, a sparse one repeats
        each parent path over its fiber and adds the pieces' Intervals.
        """
        paths = [()]
        for lv in self.levels:
            if isinstance(lv, DenseLevel):
                ranks = list(zip(range(lv.size)))
                paths = [path + c for path in paths for c in ranks]
            else:
                ptr = lv.ptr
                sizes = map(sub, islice(ptr, 1, None), ptr)
                parents = chain.from_iterable(map(repeat, paths, sizes))
                ivs = map(_interval_of, zip(map(_limit_of, lv.starts), map(_limit_of, lv.stops)))
                paths = list(map(add, parents, zip(ivs)))
        return zip(paths, self.values)


# ---------------------------------------------------------------------------
# builders


def _as_interval(key) -> Interval:
    if isinstance(key, Interval):
        return key
    if isinstance(key, tuple) and len(key) == 2:
        if isinstance(key[0], tuple) and isinstance(key[1], tuple):
            return Interval(Limit(*key[0]), Limit(*key[1]))
        return Interval.closed(*key)
    if isinstance(key, tuple) and len(key) == 3:
        return Interval.from_kind(key[0], key[1], key[2])
    if isinstance(key, (int, float)):
        return Interval.pinpoint(key)
    raise TypeError(f"cannot read {key!r} as an interval")


def _ends(keys):
    """(starts, stops) as plain (val, eps) tuples, of keys that are all
    Intervals or (start, stop) pairs of (val, eps) tuples; None when any
    key is another form."""
    if not (set(map(type, keys)) <= {Interval, tuple} and set(map(len, keys)) <= {2}):
        return None
    starts, stops = tuple(map(_START, keys)), tuple(map(_STOP, keys))
    types = set(map(type, chain(starts, stops)))
    if not (types <= {Limit, tuple} and set(map(len, chain(starts, stops))) <= {2}):
        return None
    if Limit in types:
        starts, stops = tuple(map(tuple, starts)), tuple(map(tuple, stops))
    return starts, stops


def build_level(spec, fibers: Sequence[Sequence]):
    """Assemble one level from per-fiber key lists; the tensor that takes
    it checks the pieces.

    spec: ("dense", size) | ("pinpoint",) | ("interval",)
        | ("regular", stride, length, rclose)
    fibers: for sparse kinds, one key list per fiber (coords, interval
        keys, or integer xs). An interval key is an Interval, a (start,
        stop) pair of (val, eps) tuples, or a form ``_as_interval`` reads.
        Dense ignores fibers.
    """
    kind = spec[0]
    if kind == "dense":
        return DenseLevel(size=spec[1])
    ptr = tuple(accumulate(map(len, fibers), initial=0))
    keys = list(chain.from_iterable(fibers))
    if kind == "pinpoint":
        return PinpointLevel(ptr=ptr, crd=tuple(map(float, keys)))
    if kind == "interval":
        starts, stops = _ends(keys) or _ends(list(map(_as_interval, keys)))
        return SparseLevel(ptr, starts, stops)
    if kind == "regular":
        _, stride, length, rclose = spec
        return RegularLevel(
            stride=float(stride), length=float(length), rclose=bool(rclose),
            xs=_int_xs(keys, "regular level"), ptr=ptr,
        )
    raise ValueError(f"unknown level kind {kind!r}")


def build_tensor(name: str, specs: Sequence, root, fill=0.0) -> ContTensor:
    """Build a tensor from nested per-fiber structure.

    Dense fibers are plain lists (length == size) of children; sparse
    fibers are lists of (key, child) pairs. Children at the last level
    are leaf values.
    """
    levels = []
    fibers = [root]
    for spec in specs:
        kind = spec[0]
        next_fibers = []
        if kind == "dense":
            size = spec[1]
            for f in fibers:
                if len(f) != size:
                    raise InvalidPieceError(
                        f"tensor {name}: dense fiber needs exactly {size} children, got {len(f)}"
                    )
                next_fibers.extend(f)
            levels.append(build_level(spec, []))
        else:
            keys = []
            for f in fibers:
                keys.append(list(map(_KEY, f)))
                next_fibers.extend(map(_CHILD, f))
            levels.append(build_level(spec, keys))
        fibers = next_fibers
    values = tuple(fibers)
    return ContTensor(name=name, levels=tuple(levels), values=values, fill=fill)


def tensor_1d(name: str, pieces, fill=0.0, kind: str = "auto") -> ContTensor:
    """Convenience: a rank-1 tensor from (key, value) pairs.

    kind "auto" picks a pinpoint level when every key is a bare number,
    else an interval level.
    """
    if kind == "auto":
        kind = "pinpoint" if all(isinstance(k, (int, float)) for k, _ in pieces) else "interval"
    return build_tensor(name, [(kind,)], [(k, v) for k, v in pieces], fill=fill)
