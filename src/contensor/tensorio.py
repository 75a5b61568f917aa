"""JSON serialization of tensors.

The on-disk shape of a level is that of its input descriptor:

    {"name": ..., "fill": ..., "levels": [
        {"kind": "dense", "size": N},
        {"kind": "pinpoint", "ptr": [...], "crd": [...]},
        {"kind": "interval", "ptr": [...], "left": [...], "right": [...],
         "lclose": true | [...], "rclose": ...},
        {"kind": "regular", "stride": s, "len": l, "rclose": b, "xs": [...]}
     ], "values": [...]}

Regular levels additionally carry "ptr" only when they hold other than
one fiber. Loads build descriptors, checking each array in whole-array
passes and walking it element by element only once a pass fails, so the
``SchemaError`` path names the first bad element. Saves rebuild the
schema from the stored columns (a regular level's xs as start / stride)
and are canonical (fixed key order, two-space indent, trailing newline),
so a load/save round trip is byte stable.
"""

from __future__ import annotations

import json
import math
from itertools import repeat
from operator import itemgetter, mul, truediv

from .intervals import Interval
from .limits import BELOW, EXACT, Limit
from .storage import (
    ContTensor,
    DenseLevel,
    IntervalLevel,
    PinpointLevel,
    RegularLevel,
    SparseLevel,
    StorageError,
)

_VAL, _EPS = itemgetter(0), itemgetter(1)


class SchemaError(ValueError):
    """Malformed tensor JSON; the message carries the offending path."""

    def __init__(self, path: str, msg: str):
        super().__init__(f"{path}: {msg}")
        self.path = path


def _too_large(x: int, path) -> SchemaError:
    return SchemaError(path, f"integer of {x.bit_length()} bits is too large for a float")


def _num(x, path):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SchemaError(path, f"expected a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise _too_large(x, path) from None


def _value(v, path):
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, float)):
        return _num(v, path)
    raise SchemaError(path, f"expected a number or boolean, got {v!r}")


def _array(x, path):
    if not isinstance(x, list):
        raise SchemaError(path, f"expected an array, got {x!r}")
    return x


def _floats(x, kept=()):
    """x as a tuple with its ints made floats, when every element is a
    float, an int that fits one, or of a type in kept; None otherwise."""
    types = set(map(type, x))
    if types <= {float, *kept}:
        return tuple(x)
    if types <= {float, int}:
        try:
            return tuple(map(float, x))
        except OverflowError:
            pass
    return None


def _num_list(x, path):
    out = _floats(_array(x, path))
    if out is None:
        out = tuple(_num(v, f"{path}[{i}]") for i, v in enumerate(x))
    return out


def _int_list(x, path):
    if set(map(type, _array(x, path))) <= {int}:
        return tuple(x)
    for i, v in enumerate(x):
        if isinstance(v, bool) or not isinstance(v, int):
            raise SchemaError(f"{path}[{i}]", f"expected an integer, got {v!r}")
    return tuple(x)


def _flags(x, path):
    if isinstance(x, bool):
        return x
    if isinstance(x, list):
        if not set(map(type, x)) <= {bool}:
            i, v = next((i, v) for i, v in enumerate(x) if not isinstance(v, bool))
            raise SchemaError(f"{path}[{i}]", f"expected a boolean, got {v!r}")
        return tuple(x)
    raise SchemaError(path, f"expected boolean or boolean array, got {x!r}")


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(path, f"missing key {key!r}")
    return obj[key]


def level_from_json(obj, path: str):
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {obj!r}")
    kind = _require(obj, "kind", path)
    if kind == "dense":
        size = _require(obj, "size", path)
        if isinstance(size, bool) or not isinstance(size, int):
            raise SchemaError(f"{path}.size", f"expected an integer, got {size!r}")
        return DenseLevel(size=size)
    if kind == "pinpoint":
        return PinpointLevel(
            ptr=_int_list(_require(obj, "ptr", path), f"{path}.ptr"),
            crd=_num_list(_require(obj, "crd", path), f"{path}.crd"),
        )
    if kind == "interval":
        return IntervalLevel(
            ptr=_int_list(_require(obj, "ptr", path), f"{path}.ptr"),
            left=_num_list(_require(obj, "left", path), f"{path}.left"),
            right=_num_list(_require(obj, "right", path), f"{path}.right"),
            lclose=_flags(obj.get("lclose", True), f"{path}.lclose"),
            rclose=_flags(obj.get("rclose", True), f"{path}.rclose"),
        )
    if kind == "regular":
        ptr = obj.get("ptr")
        stride = _num(_require(obj, "stride", path), f"{path}.stride")
        length = _num(_require(obj, "len", path), f"{path}.len")
        rclose = _require(obj, "rclose", path)
        if not isinstance(rclose, bool):
            raise SchemaError(f"{path}.rclose", f"expected a boolean, got {rclose!r}")
        xs = _int_list(_require(obj, "xs", path), f"{path}.xs")
        if _floats(xs) is None:  # the level scales each x by the stride
            for i, x in enumerate(xs):
                _num(x, f"{path}.xs[{i}]")
        return RegularLevel(
            stride=stride, length=length, rclose=rclose, xs=xs,
            ptr=_int_list(ptr, f"{path}.ptr") if ptr is not None else None,
        )
    raise SchemaError(f"{path}.kind", f"unknown level kind {kind!r}")


def level_to_json(lv) -> dict:
    """The schema of a stored level, rebuilt from its columns."""
    if isinstance(lv, DenseLevel):
        return {"kind": "dense", "size": lv.size}
    if not isinstance(lv, SparseLevel):
        raise TypeError(f"not a stored level: {lv!r}")
    _check_saved_ends(lv)
    starts = list(map(_VAL, lv.starts))
    if lv.regular is not None:
        stride, length, rclose = lv.regular
        xs = list(map(round, map(truediv, starts, repeat(stride))))
        if list(map(mul, repeat(stride), xs)) != starts:
            bad = next(a for a, x in zip(starts, xs) if stride * x != a)
            raise ValueError(f"regular level: start {bad!r} is off stride {stride!r}")
        out = {"kind": "regular", "stride": stride, "len": length, "rclose": rclose, "xs": xs}
        if len(lv.ptr) != 2:
            out["ptr"] = list(lv.ptr)
        return out
    if lv.pinpoint:
        return {"kind": "pinpoint", "ptr": list(lv.ptr), "crd": starts}
    return {"kind": "interval", "ptr": list(lv.ptr), "left": starts,
            "right": list(map(_VAL, lv.stops)),
            "lclose": _closed_flags(lv.starts), "rclose": _closed_flags(lv.stops)}


def _check_saved_ends(lv: SparseLevel) -> None:
    """Raise ValueError naming the first piece with an end whose eps the
    level's format cannot save. An interval level saves every end a
    stored level holds (closed, or open inwards: ``SparseLevel.decode``);
    a point's ends and a regular start save as exact, and a regular stop
    as its rclose says."""
    if lv.regular is None and not lv.pinpoint:
        return
    kind = "pinpoint" if lv.regular is None else "regular"
    saved_starts, saved_stops = {EXACT}, {EXACT}
    if not lv.pinpoint and not lv.regular[2]:
        saved_stops = {BELOW}
    if set(map(_EPS, lv.starts)) <= saved_starts and set(map(_EPS, lv.stops)) <= saved_stops:
        return
    for p, (a, b) in enumerate(zip(lv.starts, lv.stops)):
        if a[1] not in saved_starts or b[1] not in saved_stops:
            side = "start" if a[1] not in saved_starts else "stop"
            raise ValueError(f"{kind} level: piece {p} {Interval(Limit(*a), Limit(*b))} "
                             f"has a {side} its format cannot save")


def _closed_flags(ends):
    """Whether each end is closed; one bool when all agree (True for none)."""
    eps = set(map(_EPS, ends))
    if len(eps) <= 1:
        return EXACT in eps or not eps
    return [e == EXACT for e in map(_EPS, ends)]


def tensor_from_json(obj, path: str = "$") -> ContTensor:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {obj!r}")
    name = _require(obj, "name", path)
    if not isinstance(name, str):
        raise SchemaError(f"{path}.name", "expected a string")
    fill = _require(obj, "fill", path)
    if not isinstance(fill, (bool, int, float)):
        raise SchemaError(f"{path}.fill", f"expected a number or boolean, got {fill!r}")
    levels_json = _require(obj, "levels", path)
    if not isinstance(levels_json, list):
        raise SchemaError(f"{path}.levels", "expected an array")
    levels = tuple(
        level_from_json(lv, f"{path}.levels[{i}]") for i, lv in enumerate(levels_json)
    )
    values_json = _require(obj, "values", path)
    if not isinstance(values_json, list):
        raise SchemaError(f"{path}.values", "expected an array")
    values = _floats(values_json, kept={bool})
    if values is None:
        values = tuple(_value(v, f"{path}.values[{i}]") for i, v in enumerate(values_json))
    try:
        return ContTensor(
            name=name,
            levels=levels,
            values=values,
            fill=fill if isinstance(fill, bool) else _num(fill, f"{path}.fill"),
        )
    except StorageError as e:
        raise SchemaError(path, str(e)) from e


def tensor_to_json(t: ContTensor) -> dict:
    for v in t.values:
        if isinstance(v, float) and (math.isinf(v) or math.isnan(v)):
            raise ValueError(f"tensor {t.name}: value {v!r} is not JSON-representable")
    return {
        "name": t.name,
        "fill": t.fill,
        "levels": [level_to_json(lv) for lv in t.levels],
        "values": list(t.values),
    }


def dumps_tensor(t: ContTensor) -> str:
    return json.dumps(tensor_to_json(t), indent=2) + "\n"


def save_tensor(t: ContTensor, path) -> None:
    with open(path, "w") as f:
        f.write(dumps_tensor(t))


def load_tensor(path) -> ContTensor:
    with open(path) as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as e:
            raise SchemaError("$", f"not valid JSON: {e}") from e
    return tensor_from_json(obj, "$")
