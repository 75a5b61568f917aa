import json

import pytest

from contensor.intervals import Interval
from contensor.storage import DenseLevel, RegularLevel, ContTensor, tensor_1d
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
    assert tensor_from_json(regular_json(rclose=True)).levels[0].rclose is True


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
