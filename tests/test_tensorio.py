import json

import pytest

from contensor.intervals import Interval
from contensor.storage import (
    ContTensor,
    DenseLevel,
    InvalidPieceError,
    OverlapError,
    RegularLevel,
    UnsortedError,
    tensor_1d,
)
from contensor.tensorio import (
    SchemaError,
    dumps_tensor,
    load_tensor,
    save_tensor,
    tensor_from_json,
    tensor_to_json,
)


def fx():
    return tensor_1d("f", [(Interval.closed(1, 3), 1.0), (Interval.closed(4.1, 5.1), 2.0)])


def test_round_trip_byte_stable(tmp_path):
    p = tmp_path / "f.json"
    save_tensor(fx(), p)
    first = p.read_bytes()
    save_tensor(load_tensor(p), p)
    assert p.read_bytes() == first
    assert load_tensor(p) == fx()


def test_fx_schema_shape():
    obj = tensor_to_json(fx())
    assert obj["levels"][0] == {
        "kind": "interval",
        "ptr": [0, 2],
        "left": [1.0, 4.1],
        "right": [3.0, 5.1],
        "lclose": True,
        "rclose": True,
    }
    assert obj["values"] == [1.0, 2.0]
    assert obj["fill"] == 0.0


def test_bool_tensor_round_trips():
    t = tensor_1d("m", [(2.0, True), (3.5, True)], fill=False)
    assert tensor_from_json(tensor_to_json(t)) == t


def test_regular_ptr_only_when_multi_fiber():
    single = ContTensor("r", (RegularLevel(1.0, 1.0, False, (0, 2)),), (1.0, 2.0))
    assert "ptr" not in tensor_to_json(single)["levels"][0]
    multi = ContTensor(
        "r",
        (DenseLevel(2), RegularLevel(1.0, 1.0, False, (0, 1), ptr=(0, 1, 2))),
        (1.0, 2.0),
    )
    obj = tensor_to_json(multi)
    assert obj["levels"][1]["ptr"] == [0, 1, 2]
    assert tensor_from_json(obj) == multi


def test_error_paths_name_the_spot():
    obj = tensor_to_json(fx())
    obj["levels"][0]["left"][0] = "x"
    with pytest.raises(SchemaError) as e:
        tensor_from_json(obj)
    assert "$.levels[0].left[0]" in str(e.value)

    with pytest.raises(SchemaError) as e2:
        tensor_from_json({"name": "t", "fill": 0, "levels": [{"kind": "odd"}], "values": []})
    assert "$.levels[0].kind" in str(e2.value)


def dense_json(**changes):
    return {"name": "t", "fill": 0.0, "levels": [{"kind": "dense", "size": 2}],
            "values": [1.0, 2.0], **changes}


@pytest.mark.parametrize("changes, msg", [
    ({"levels": [3]}, "$.levels[0]: expected an object, got 3"),
    ({"name": 3}, "$.name: expected a string"),
    ({"fill": "0"}, "$.fill: expected a number or boolean, got '0'"),
    ({"values": {}}, "$.values: expected an array"),
    ({"levels": [{"kind": "dense", "size": 2.0}]}, "$.levels[0].size: expected an integer, got 2.0"),
], ids=["level_not_an_object", "name_not_a_string", "string_fill", "values_not_an_array",
        "float_dense_size"])
def test_a_malformed_field_is_a_schema_error(changes, msg):
    assert tensor_from_json(dense_json()).values == (1.0, 2.0)
    with pytest.raises(SchemaError) as e:
        tensor_from_json(dense_json(**changes))
    assert str(e.value) == msg


def test_backwards_interval_is_a_load_error():
    obj = tensor_to_json(fx())
    obj["levels"][0]["left"][0] = 9.0
    with pytest.raises(SchemaError):
        tensor_from_json(obj)


def test_missing_key():
    with pytest.raises(SchemaError) as e:
        tensor_from_json({"name": "t", "levels": [], "values": [1.0]})
    assert "fill" in str(e.value)


def test_garbage_file(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    with pytest.raises(SchemaError):
        load_tensor(p)


def test_dumps_ends_with_newline():
    assert dumps_tensor(fx()).endswith("}\n")


def test_load_rejects_overlap():
    obj = json.loads(dumps_tensor(fx()))
    obj["levels"][0]["left"] = [1.0, 2.0]
    obj["levels"][0]["right"] = [3.0, 5.1]
    with pytest.raises(SchemaError):
        tensor_from_json(obj)


def regular_json(**level):
    lv = {"kind": "regular", "stride": 1.0, "len": 1.0, "rclose": False, "xs": [0, 2]}
    return {"name": "r", "fill": 0.0, "levels": [{**lv, **level}], "values": [1.0, 2.0]}


@pytest.mark.parametrize("flag", ["no", [], 0, 1, None])
def test_regular_rclose_must_be_a_boolean(flag):
    with pytest.raises(SchemaError) as e:
        tensor_from_json(regular_json(rclose=flag))
    assert e.value.path == "$.levels[0].rclose"
    assert tensor_to_json(tensor_from_json(regular_json(rclose=True)))["levels"][0]["rclose"] is True


HUGE = 10 ** 400  # an integer JSON may hold, beyond any float


@pytest.mark.parametrize("where, path", [
    (("levels", 0, "crd", 1), "$.levels[0].crd[1]"),
    (("levels", 1, "left", 0), "$.levels[1].left[0]"),
    (("levels", 1, "right", 0), "$.levels[1].right[0]"),
    (("levels", 2, "stride"), "$.levels[2].stride"),
    (("levels", 2, "len"), "$.levels[2].len"),
    (("levels", 2, "xs", 0), "$.levels[2].xs[0]"),
    (("values", 0), "$.values[0]"),
    (("fill",), "$.fill"),
])
def test_an_integer_too_large_for_a_float_is_a_schema_error(where, path):
    obj = {"name": "t", "fill": 0.0, "values": [1.0], "levels": [
        {"kind": "pinpoint", "ptr": [0, 2], "crd": [0.5, 1.5]},
        {"kind": "interval", "ptr": [0, 1, 1], "left": [0.0], "right": [1.0]},
        {"kind": "regular", "stride": 1.0, "len": 1.0, "rclose": False, "xs": [3],
         "ptr": [0, 1]},
    ]}
    tensor_from_json(obj)
    node = obj
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = HUGE
    with pytest.raises(SchemaError) as e:
        tensor_from_json(obj)
    assert e.value.path == path


# --- the whole-column fast path names the same element as the per-element path

N, FIBERS = 1000, 10  # 100 pieces in each fiber under a dense rank
AT = (0, 500, 999)  # first, middle and last piece


def big_json(kind):
    """A 1000-piece tensor: dense 10 over one sparse level of this kind."""
    ptr = list(range(0, N + 1, N // FIBERS))
    if kind == "pinpoint":
        level = {"kind": "pinpoint", "ptr": ptr, "crd": [j + 0.125 for j in range(N)]}
    elif kind == "interval":
        level = {"kind": "interval", "ptr": ptr,
                 "left": [j + 0.125 for j in range(N)], "right": [j + 0.5 for j in range(N)],
                 "lclose": [j % 2 == 0 for j in range(N)],
                 "rclose": [j % 3 != 0 for j in range(N)]}
    else:
        level = {"kind": "regular", "stride": 0.5, "len": 0.25, "rclose": True,
                 "ptr": ptr, "xs": list(range(N))}
    return {"name": "t", "fill": 0.0, "values": [j % 7 + 0.5 for j in range(N)],
            "levels": [{"kind": "dense", "size": FIBERS}, level]}


HUGE_INT = 2 ** 1100
NAN, INF = float("nan"), float("inf")
# (kind, field, bad elements, the message each gets at the element's path)
ELEMENT_CASES = [
    ("interval", "ptr", [True, "x", None, NAN, INF], "expected an integer"),
    ("pinpoint", "crd", [True, "x", None], "expected a number"),
    ("pinpoint", "crd", [HUGE_INT], "integer of 1101 bits is too large for a float"),
    ("interval", "left", [False, "x", None], "expected a number"),
    ("interval", "left", [HUGE_INT], "integer of 1101 bits is too large for a float"),
    ("interval", "right", [True, "x", None], "expected a number"),
    ("interval", "right", [HUGE_INT], "integer of 1101 bits is too large for a float"),
    ("interval", "lclose", ["x", None, HUGE_INT, NAN, INF, 1], "expected a boolean"),
    ("interval", "rclose", ["x", None, HUGE_INT, NAN, INF, 0], "expected a boolean"),
    ("regular", "xs", [True, "x", None, NAN, INF, 2.0], "expected an integer"),
    ("regular", "xs", [HUGE_INT], "integer of 1101 bits is too large for a float"),
    ("interval", "values", ["x", None], "expected a number or boolean"),
    ("interval", "values", [HUGE_INT], "integer of 1101 bits is too large for a float"),
]


def planted(kind, field, at, bad):
    obj = big_json(kind)
    arr = obj["values"] if field == "values" else obj["levels"][1][field]
    arr[at] = bad
    return obj


@pytest.mark.parametrize("kind, field, bads, message", ELEMENT_CASES,
                         ids=[f"{c[0]}-{c[1]}-{i}" for i, c in enumerate(ELEMENT_CASES)])
def test_a_bad_element_is_named_by_its_path(kind, field, bads, message):
    tensor_from_json(big_json(kind))
    base = "$.values" if field == "values" else f"$.levels[1].{field}"
    for at in AT if field != "ptr" else (0, 5, 10):
        for bad in bads:
            with pytest.raises(SchemaError) as e:
                tensor_from_json(planted(kind, field, at, bad))
            assert e.value.path == f"{base}[{at}]", (at, bad)
            assert message in str(e.value), (at, bad)


@pytest.mark.parametrize("kind, field, bad, message", [
    ("pinpoint", "crd", NAN, "level 1: bad coordinate nan"),
    ("pinpoint", "crd", INF, "level 1: bad coordinate inf"),
    ("pinpoint", "crd", -INF, "level 1: bad coordinate -inf"),
    ("interval", "left", NAN, "level 1: NaN endpoint"),
    ("interval", "right", NAN, "level 1: NaN endpoint"),
])
def test_a_non_finite_element_the_level_rejects_is_a_load_error(kind, field, bad, message):
    for at in AT:
        with pytest.raises(SchemaError) as e:
            tensor_from_json(planted(kind, field, at, bad))
        assert e.value.path == "$"
        assert str(e.value) == f"$: {message}"


@pytest.mark.parametrize("at, message", [
    (0, "level 1: ptr must run 0..1000 over 10 fibers"),
    (5, "level 1: ptr not monotone at fiber 5"),
    (10, "level 1: ptr must run 0..1000 over 10 fibers"),
])
def test_a_huge_ptr_entry_is_a_load_error(at, message):
    with pytest.raises(SchemaError) as e:
        tensor_from_json(planted("interval", "ptr", at, HUGE_INT))
    assert e.value.path == "$"
    assert str(e.value).startswith(f"$: {message}")


def interval_fault(fault):
    """The interval tensor with one fault planted at position 340 (fiber 3)."""
    obj = big_json("interval")
    lv = obj["levels"][1]
    k = 340
    if fault == "empty":
        lv["left"][k], lv["right"][k] = lv["right"][k], lv["left"][k]
    elif fault == "swapped":
        for f in ("left", "right", "lclose", "rclose"):
            lv[f][k], lv[f][k + 1] = lv[f][k + 1], lv[f][k]
    else:
        lv["right"][k] = lv["left"][k + 1] + 0.25
    return obj


@pytest.mark.parametrize("fault, error, where, message", [
    ("empty", InvalidPieceError, None,
     "level 1 fiber 3: piece at position 340 is empty ([340.5, 340.125])"),
    ("swapped", UnsortedError, (1, 3, 341),
     "level 1 fiber 3: pieces out of order at position 341"),
    ("overlapping", OverlapError, (1, 3, 340),
     "level 1 fiber 3: pieces at positions 340 and 341 overlap"),
])
def test_a_planted_piece_fault_keeps_its_error(fault, error, where, message):
    with pytest.raises(SchemaError) as e:
        tensor_from_json(interval_fault(fault))
    cause = e.value.__cause__
    assert type(cause) is error
    assert str(cause) == message
    if where is not None:
        assert (cause.level, cause.fiber, cause.pos) == where
