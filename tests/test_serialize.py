import dataclasses
import functools
import importlib
import json
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cndkit.graph
from cndkit.analyzer import count_params, flops_estimate
from cndkit.errors import (
    ECHO_LIMIT,
    CndkitError,
    ParseError,
    SchemaVersionError,
    ShapeMismatchError,
    UnknownInputError,
    ValidationError,
    capped,
)
from cndkit.graph import (
    Activation,
    Add,
    Conv2D,
    Dense,
    GlobalAvgPool,
    Input,
    LayerNode,
    ModelGraph,
    TensorShape,
    validate,
)
from cndkit.serialize import deserialize, load_model, save_model, serialize
from cndkit.transforms import FireModuleSpec, strategy1_replace_kernels, strategy2_insert_fire
from cndkit.zoo import build_mobilenet_v2, build_optimized_xception, build_xception
from conftest import traced
from graphgen import random_fire_graph, random_graph


def test_zoo_round_trip(xception, optimized, mobilenet):
    for graph in (xception, optimized, mobilenet):
        again = deserialize(serialize(graph))
        assert again == graph


def test_random_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        graph = random_graph(rng)
        assert deserialize(serialize(graph)) == graph


def test_serialize_is_byte_stable(xception):
    assert serialize(xception) == serialize(xception)


def test_key_order(xception):
    doc = json.loads(serialize(xception))
    assert list(doc) == ["schema_version", "name", "input_shape", "num_classes", "metadata", "nodes"]
    assert list(doc["nodes"][0]) == ["id", "kind", "attrs", "inputs", "tag"]


def test_unknown_kind_rejected(xception):
    doc = json.loads(serialize(xception))
    doc["nodes"][1]["kind"] = "FancyConv"
    with pytest.raises(ParseError) as exc:
        deserialize(json.dumps(doc))
    assert "FancyConv" in str(exc.value)


def test_unsupported_schema_version(xception):
    doc = json.loads(serialize(xception))
    doc["schema_version"] = 999
    with pytest.raises(SchemaVersionError):
        deserialize(json.dumps(doc))


@pytest.mark.parametrize("version", [True, 1.0, "1", None])
def test_schema_version_must_be_an_exact_int(xception, version):
    doc = json.loads(serialize(xception))
    doc["schema_version"] = version
    with pytest.raises(SchemaVersionError, match=f"unsupported schema_version {version!r}"):
        deserialize(json.dumps(doc))


def test_unknown_attr_rejected(xception):
    doc = json.loads(serialize(xception))
    doc["nodes"][1]["attrs"]["dilation"] = 2
    with pytest.raises(ParseError) as exc:
        deserialize(json.dumps(doc))
    assert "dilation" in str(exc.value)


def test_malformed_json_reports_line():
    with pytest.raises(ParseError) as exc:
        deserialize('{\n  "schema_version": 1,\n  oops\n}')
    assert exc.value.line == 3


def test_too_deeply_nested_json_is_a_parse_error():
    # json.loads raises RecursionError, not JSONDecodeError, past the stack limit
    with pytest.raises(ParseError, match="^invalid JSON: nested too deeply$"):
        deserialize("[" * 200_000 + "]" * 200_000)


def test_integer_past_the_digit_limit_is_a_parse_error(xception):
    # json.loads raises a plain ValueError for an int of more than 4,300 digits
    text = serialize(xception).replace('"input_shape": [\n    299', '"input_shape": [\n    ' + "9" * 5001)
    with pytest.raises(ParseError, match="^invalid JSON: an integer has more than 4300 digits$"):
        deserialize(text)


def test_load_model_rejects_an_undecodable_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_bytes(b"\xff\xfe{}")
    message = f"^{re.escape(str(path))} is not UTF-8 text: invalid start byte at byte 0$"
    with pytest.raises(ParseError, match=message):
        load_model(path)


@pytest.mark.parametrize("text, error, message, line, field", [
    ("{oops", ParseError,
     "invalid JSON: Expecting property name enclosed in double quotes (line 1)", 1, None),
    ('{"schema_version": 1}', ParseError, "missing required key 'name' (field 'name')", None, "name"),
    ('{"schema_version": 2}', SchemaVersionError, "unsupported schema_version 2, expected 1",
     None, None),
])
def test_load_model_errors_name_the_file(tmp_path, text, error, message, line, field):
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises(error) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: {message}"
    if error is ParseError:
        assert (exc.value.line, exc.value.field) == (line, field)


@pytest.mark.parametrize("value, form, shown", [
    ("abc", repr, "'abc'"), (5, repr, "5"), (["a", "b"], repr, "['a', 'b']"), ("3", str, "3"),
    ("x" * (ECHO_LIMIT - 2), repr, repr("x" * (ECHO_LIMIT - 2))),
    ("x" * (ECHO_LIMIT - 1), repr, "'" + "x" * (ECHO_LIMIT - 4) + "..."),
    ("x" * 100_000, str, "x" * (ECHO_LIMIT - 3) + "..."),
    pytest.param(10**5000, repr, "<int too large to print>", id="huge-int"),
    pytest.param(-(10**5000), str, "<int too large to print>", id="huge-negative-int-str"),
    pytest.param([1, 10**5000], repr, "<list too large to print>", id="list-of-huge-int"),
])
def test_echoed_values_are_capped(value, form, shown):
    assert capped(value, form) == shown


def test_dangling_input_rejected(xception):
    doc = json.loads(serialize(xception))
    doc["nodes"][1]["inputs"] = ["nowhere"]
    with pytest.raises(ParseError):
        deserialize(json.dumps(doc))


def test_zoo_text_round_trip(xception, optimized, mobilenet):
    for graph in (xception, optimized, mobilenet):
        text = serialize(graph)
        assert serialize(deserialize(text)) == text


def _rejection(doc: dict) -> ParseError:
    with pytest.raises(ParseError) as exc:
        deserialize(json.dumps(doc))
    return exc.value


@pytest.mark.parametrize("kind, attr, value", [
    ("SeparableConv2D", "kernel", 1.0),
    ("SeparableConv2D", "filters", True),
    ("SeparableConv2D", "stride", True),
    ("MaxPool", "pool_size", 3.0),
    ("Dense", "units", True),
])
def test_non_integer_layer_attr_rejected(xception, kind, attr, value):
    # 1.0 and True equal 1 in Python; accepted, they would make the counts floats.
    doc = json.loads(serialize(xception))
    index = next(i for i, n in enumerate(doc["nodes"]) if n["kind"] == kind)
    doc["nodes"][index]["attrs"][attr] = value
    err = _rejection(doc)
    assert err.field == f"nodes[{index}].attrs"


def test_duplicate_id_rejected_at_entry(xception):
    doc = json.loads(serialize(xception))
    doc["nodes"][2]["id"] = "stem_conv1"
    err = _rejection(doc)
    assert err.field == "nodes[2]"
    assert str(err) == "node id 'stem_conv1' already present (field 'nodes[2]')"


def test_empty_id_rejected_at_entry(xception):
    doc = json.loads(serialize(xception))
    doc["nodes"][2]["id"] = ""
    err = _rejection(doc)
    assert str(err) == "node id must be a non-empty string (field 'nodes[2].id')"


def test_unknown_input_rejected_at_entry(xception):
    doc = json.loads(serialize(xception))
    doc["nodes"][3]["inputs"] = ["nowhere"]
    err = _rejection(doc)
    assert err.field == "nodes[3]"
    assert str(err) == (
        "node 'stem_conv1_act' references unknown input 'nowhere' (field 'nodes[3]')"
    )


def test_forward_input_rejected_at_entry(xception):
    doc = json.loads(serialize(xception))
    doc["nodes"][1]["inputs"] = ["stem_conv2"]
    err = _rejection(doc)
    assert err.field == "nodes[1]"
    assert str(err) == (
        "node 'stem_conv1' references unknown input 'stem_conv2' (field 'nodes[1]')"
    )


def test_self_input_rejected_at_entry(xception):
    doc = json.loads(serialize(xception))
    doc["nodes"][4]["inputs"] = ["stem_conv2"]
    err = _rejection(doc)
    assert err.field == "nodes[4]"
    assert "references unknown input 'stem_conv2'" in str(err)


def test_wrong_arity_rejected_at_entry(xception):
    doc = json.loads(serialize(xception))
    doc["nodes"][1]["inputs"] = ["input", "input"]
    err = _rejection(doc)
    assert err.field == "nodes[1]"
    assert str(err) == "node 'stem_conv1' (Conv2D) needs 1 input(s), got 2 (field 'nodes[1]')"

    doc = json.loads(serialize(xception))
    add = next(i for i, n in enumerate(doc["nodes"]) if n["kind"] == "Add")
    doc["nodes"][add]["inputs"] = doc["nodes"][add]["inputs"][:1]
    err = _rejection(doc)
    assert err.field == f"nodes[{add}]"
    assert str(err) == (
        f"node 'entry_m2_add' (Add) needs 2 input(s), got 1 (field 'nodes[{add}]')"
    )


def test_first_bad_entry_is_reported(xception):
    doc = json.loads(serialize(xception))
    doc["nodes"][5]["id"] = "input"  # duplicate at 5
    doc["nodes"][3]["inputs"] = ["input", "input"]  # arity at 3
    doc["nodes"][7]["kind"] = "FancyConv"  # parse error after both
    assert _rejection(doc).field == "nodes[3]"


def test_equal_kinds_are_one_object_after_a_load(xception):
    loaded = deserialize(serialize(xception))
    assert loaded == xception
    distinct = {node.kind: node.kind for node in loaded.nodes}
    assert all(node.kind is distinct[node.kind] for node in loaded.nodes)
    assert len({id(node.kind) for node in loaded.nodes}) == len(distinct) < len(loaded.nodes)


def test_every_input_is_its_source_nodes_id_after_a_load(xception, optimized, mobilenet):
    for graph in (xception, optimized, mobilenet):
        loaded = deserialize(serialize(graph))
        by_id = {node.id: node for node in loaded.nodes}
        inputs = [src for node in loaded.nodes for src in node.inputs]
        assert len(inputs) > len(loaded.nodes) - 1
        assert all(src is by_id[src].id for src in inputs)


def test_a_shared_kind_does_not_stand_for_an_equal_mistyped_one(xception):
    # true and 1 are equal dict keys: a later Conv2D with "has_bias": 1 must
    # not be given the kind built for an earlier one with "has_bias": true.
    doc = json.loads(serialize(xception))
    first, later = [i for i, n in enumerate(doc["nodes"]) if n["kind"] == "Conv2D"][:2]
    doc["nodes"][first]["attrs"]["has_bias"] = True
    doc["nodes"][later]["attrs"] = {**doc["nodes"][first]["attrs"], "has_bias": 1}
    err = _rejection(doc)
    assert str(err) == (
        f"bad attrs for Conv2D: Conv2D has_bias must be a bool, got 1 (field 'nodes[{later}].attrs')"
    )


def test_a_load_builds_each_distinct_kind_once(monkeypatch):
    module = importlib.import_module("cndkit.serialize")
    calls: Counter = Counter()

    def counted(cls):
        def build(**attrs):
            calls[cls.__name__, json.dumps(attrs)] += 1
            return cls(**attrs)
        return build

    for name, cls in list(module._KIND_BY_NAME.items()):
        monkeypatch.setitem(module._KIND_BY_NAME, name, counted(cls))
    for seed in range(20):
        graph = random_fire_graph(random.Random(seed))
        text = serialize(graph)
        calls.clear()
        assert deserialize(text) == graph
        # each constructor once per distinct attrs of its kind in the file
        entries = json.loads(text)["nodes"]
        assert calls == Counter({(n["kind"], json.dumps(n["attrs"])) for n in entries})
        assert sum(calls.values()) < len(entries)


@pytest.mark.parametrize("sighting", ["first", "later"])
@pytest.mark.parametrize("bad, message", [
    ({"bogus": 1}, "unknown attrs for SeparableConv2D: ['bogus']"),
    ({"kernel": 5}, "bad attrs for SeparableConv2D: SeparableConv2D kernel must be one of (1, 3), got 5"),
    ({"filters": 0},
     "bad attrs for SeparableConv2D: SeparableConv2D filters must be >= 1, got 0"),
])
def test_bad_attrs_are_reported_on_any_sighting_of_a_kind(xception, sighting, bad, message):
    # "later": the entry repeats the attrs of a kind already built in this
    # load, plus the bad one.
    doc = json.loads(serialize(xception))
    seps = [i for i, n in enumerate(doc["nodes"]) if n["kind"] == "SeparableConv2D"]
    index = seps[0] if sighting == "first" else seps[1]
    doc["nodes"][index]["attrs"] = {**doc["nodes"][seps[0]]["attrs"], **bad}
    assert str(_rejection(doc)) == f"{message} (field 'nodes[{index}].attrs')"


def test_duplicate_checked_before_inputs(xception):
    doc = json.loads(serialize(xception))
    doc["nodes"][2]["id"] = "input"
    doc["nodes"][2]["inputs"] = ["nowhere"]
    err = _rejection(doc)
    assert err.field == "nodes[2]"
    assert str(err) == "node id 'input' already present (field 'nodes[2]')"


@pytest.mark.parametrize("faults, message, field", [
    ({"kind": "FancyConv", "attrs": []}, "unknown layer kind 'FancyConv'", "kind"),
    ({"inputs": ["input", 7], "tag": 3}, "inputs must be a list of node ids", "inputs"),
    ({"id": None, "kind": 5}, "missing required key 'id'", "id"),
    ({"id": "", "kind": None}, "node id must be a non-empty string", "id"),
    ({"id": 3, "kind": None}, "key 'id' has wrong type int", "id"),
    ({"kind": None, "attrs": {"bogus": 1}}, "missing required key 'kind'", "kind"),
    ({"kind": True, "inputs": "input"}, "key 'kind' has wrong type bool", "kind"),
    ({"attrs": None, "inputs": None}, "missing required key 'attrs'", "attrs"),
    ({"attrs": {"bogus": 1, "filters": 0}, "inputs": "x"},
     "unknown attrs for SeparableConv2D: ['bogus']", "attrs"),
    ({"attrs": {"filters": 0}, "inputs": None}, "missing required key 'inputs'", "inputs"),
    ({"attrs": {"filters": 0}, "inputs": {"a": 1}}, "key 'inputs' has wrong type dict", "inputs"),
    ({"attrs": {"filters": 0}, "tag": ["t"]}, "tag must be a string or null", "tag"),
    ({"attrs": {"filters": 0}, "inputs": ["nowhere"]},
     "bad attrs for SeparableConv2D: SeparableConv2D filters must be >= 1, got 0", "attrs"),
])
def test_first_fault_of_an_entry_is_reported(xception, faults, message, field):
    # Each entry has two faults; the check that runs first names its field.
    # A None value drops the key.
    doc = json.loads(serialize(xception))
    index = next(i for i, n in enumerate(doc["nodes"]) if n["kind"] == "SeparableConv2D")
    entry = doc["nodes"][index]
    for key, value in faults.items():
        if value is None:
            del entry[key]
        elif key == "attrs" and isinstance(value, dict):
            entry[key] = {**entry[key], **value}
        else:
            entry[key] = value
    err = _rejection(doc)
    assert (err.message, err.field) == (message, f"nodes[{index}].{field}")


def test_one_order_check_per_load(xception, monkeypatch):
    # deserialize's sweep checks each node once; the load then infers shapes
    # over that order instead of running topo_sort's sweep again.
    appended, sorts = [], []
    real_append, real_sort = cndkit.graph.check_append, cndkit.graph.topo_sort
    monkeypatch.setattr(cndkit.graph, "check_append",
                        lambda ids, node: appended.append(node.id) or real_append(ids, node))
    monkeypatch.setattr(cndkit.graph, "topo_sort",
                        lambda graph: sorts.append(graph.name) or real_sort(graph))
    text = serialize(xception)
    appended.clear()
    sorts.clear()
    loaded = deserialize(text)
    assert loaded == xception
    assert appended == [node.id for node in xception.nodes]
    assert sorts == []


def test_out_of_order_graph_not_serialized():
    graph = ModelGraph(
        name="backwards",
        input_shape=TensorShape(8, 8, 3),
        num_classes=2,
        nodes=(
            LayerNode("d", Dense(2), ("c",)),
            LayerNode("c", GlobalAvgPool(), ("in",)),
            LayerNode("in", Input()),
        ),
    )
    with pytest.raises(UnknownInputError, match="node 'd' references unknown input 'c'"):
        serialize(graph)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
def test_serialized_text_always_reads_back(seed, shuffler):
    graph = random_graph(random.Random(seed))
    nodes = list(graph.nodes)
    shuffler.shuffle(nodes)
    try:
        text = serialize(dataclasses.replace(graph, nodes=tuple(nodes)))
    except ValidationError:
        return
    assert serialize(deserialize(text)) == text


# -- memory -------------------------------------------------------------------


def test_serialize_peak_stays_under_three_times_its_text():
    # Joining the node texts into a block, then the block into the document,
    # built the text three times: a peak of 4.6x the text.
    graph = build_xception(TensorShape(299, 299, 3), 101)
    text, _, peak = traced(lambda: serialize(graph))
    assert peak <= 3 * len(text), (peak, len(text))


def test_a_loaded_graph_keeps_under_twice_its_text_alive():
    # A kind object per node and a __dict__ per node and kind kept 2.2x.
    text = serialize(build_xception(TensorShape(299, 299, 3), 101))
    _, kept, _ = traced(lambda: deserialize(text))
    assert kept <= 2 * len(text), (kept, len(text))


def test_deserialize_peak_stays_under_four_times_its_text():
    # Every parsed node entry stayed alive until the whole graph was built:
    # a peak of 4.8x the text.
    text = serialize(build_xception(TensorShape(299, 299, 3), 101))
    _, _, peak = traced(lambda: deserialize(text))
    assert peak <= 4 * len(text), (peak, len(text))


# -- the writer against json.dumps --------------------------------------------


def _assert_json_dumps_layout(text: str) -> None:
    """``serialize`` writes the text ``json.dumps(doc, indent=2)`` gives, plus a newline."""
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_writer_matches_json_dumps_on_random_graphs(seed):
    _assert_json_dumps_layout(serialize(random_graph(random.Random(seed))))


def test_writer_matches_json_dumps_on_zoo_and_pass_outputs(xception, optimized, mobilenet):
    s1, _ = strategy1_replace_kernels(xception)
    s2, _ = strategy2_insert_fire(xception, {"middle_flow/m5": FireModuleSpec(414, 600, 728)})
    for graph in (xception, optimized, mobilenet, s1, strategy1_replace_kernels(mobilenet)[0], s2):
        _assert_json_dumps_layout(serialize(graph))


ODD = 'q"b\\s \u00e9 \u2028 \x01'  # quote, backslash, non-ASCII, line separator, control


def _odd_graph(metadata: dict[str, str]) -> ModelGraph:
    """in -> conv (bias) / conv (no bias) -> Add -> gap -> dense, odd strings everywhere."""
    return ModelGraph(
        name=f"name {ODD}",
        input_shape=TensorShape(8, 6, 3),
        num_classes=3,
        metadata=metadata,
        nodes=(
            LayerNode(f"in {ODD}", Input()),
            LayerNode(f"a {ODD}", Conv2D(4, 3, has_bias=True), (f"in {ODD}",), f"flow/m1/{ODD}"),
            LayerNode("b", Conv2D(4, 1, stride=1, padding="valid"), (f"in {ODD}",), None),
            LayerNode("sum", Add(), (f"a {ODD}", "b"), ODD),
            LayerNode("act", Activation("sigmoid"), ("sum",)),
            LayerNode("gap", GlobalAvgPool(), ("act",)),
            LayerNode("fc", Dense(3, has_bias=False), ("gap",)),
        ),
    )


@pytest.mark.parametrize("metadata", [{}, {f"k {ODD}": f"v {ODD}", "plain": ""}])
def test_writer_escapes_strings_as_json_dumps(metadata):
    graph = _odd_graph(metadata)
    text = serialize(graph)
    _assert_json_dumps_layout(text)
    assert text.isascii()
    assert r'"a q\"b\\s \u00e9 \u2028 \u0001"' in text
    assert '"attrs": {},' in text and '"inputs": [],' in text
    assert '"has_bias": true' in text and '"has_bias": false' in text
    assert deserialize(text) == graph


def test_invalid_graph_not_serialized_or_saved(tmp_path):
    graph = ModelGraph(
        name="mismatch",
        input_shape=TensorShape(8, 8, 3),
        num_classes=2,
        nodes=(
            LayerNode("in", Input()),
            LayerNode("a", Conv2D(4, 1), ("in",)),
            LayerNode("b", Conv2D(8, 1), ("in",)),
            LayerNode("sum", Add(), ("a", "b")),
            LayerNode("gap", GlobalAvgPool(), ("sum",)),
            LayerNode("fc", Dense(2), ("gap",)),
        ),
    )
    with pytest.raises(ShapeMismatchError, match="Add node 'sum' inputs differ"):
        serialize(graph)
    path = tmp_path / "mismatch.json"
    with pytest.raises(ShapeMismatchError):
        save_model(graph, path)
    assert not path.exists()


@pytest.mark.parametrize("field, value", [
    ("num_classes", 2.0), ("num_classes", True), ("name", 5), ("metadata", {"a": 1}),
])
def test_mistyped_graph_field_not_serialized(mobilenet, field, value):
    # serialize validates first, so these never reach the writer, which
    # would raise a bare TypeError or, for num_classes=True, write 1.
    with pytest.raises(ValidationError, match=field):
        serialize(dataclasses.replace(mobilenet, **{field: value}))


@pytest.mark.parametrize("kind, value", [("Conv2D", 1), ("Conv2D", None), ("Dense", 0), ("Dense", "yes")])
def test_non_boolean_has_bias_rejected(xception, kind, value):
    # Read by truth value, but written back as a number, null or string.
    doc = json.loads(serialize(xception))
    index = next(i for i, n in enumerate(doc["nodes"]) if n["kind"] == kind)
    doc["nodes"][index]["attrs"]["has_bias"] = value
    err = _rejection(doc)
    assert err.field == f"nodes[{index}].attrs"
    assert f"{kind} has_bias must be a bool, got {value!r}" in str(err)


# -- attrs variants ------------------------------------------------------------

def _oracle_load(doc: dict) -> ModelGraph | ParseError:
    """What loading ``doc``, a valid document but for its attrs, must give:
    every entry's kind built by its class, the first entry whose attrs its
    class rejects reported at its ``attrs``, then the graph as ``validate``
    checks it."""
    kinds = []
    for i, entry in enumerate(doc["nodes"]):
        try:
            kinds.append(getattr(cndkit.graph, entry["kind"])(**entry["attrs"]))
        except (TypeError, CndkitError) as exc:
            return ParseError(f"bad attrs for {entry['kind']}: {exc}", field=f"nodes[{i}].attrs")
    graph = ModelGraph(
        doc["name"], TensorShape(*doc["input_shape"]), doc["num_classes"],
        tuple(LayerNode(entry["id"], kind, tuple(entry["inputs"]), entry["tag"])
              for entry, kind in zip(doc["nodes"], kinds)),
        doc["metadata"],
    )
    try:
        return validate(graph)
    except CndkitError as exc:
        return ParseError(f"graph failed validation: {exc}")


def _attrs_variant(attrs: dict, defaults: dict, how: str, rng: random.Random) -> dict:
    """``attrs`` with its keys shuffled, some attrs that have defaults
    dropped, or one value swapped for another type's."""
    items = list(attrs.items())
    if how == "shuffle":
        rng.shuffle(items)
    elif how == "drop":
        items = [(k, v) for k, v in items if k not in defaults or rng.random() < 0.5]
    else:
        index = rng.randrange(len(items))
        key, value = items[index]
        if key == "has_bias":
            variants = [1, 0, [value]]
        elif type(value) is int:
            variants = [float(value), True, [value]]
        else:
            variants = [[value]]
        items[index] = (key, rng.choice(variants))
    return dict(items)


_DEFAULTS = {cls.__name__: {f.name: f.default for f in dataclasses.fields(cls)
                            if f.default is not dataclasses.MISSING}
             for cls in cndkit.graph.KIND_CLASSES}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([random_graph, random_fire_graph]), st.integers(0, 2**32 - 1),
       st.sets(st.sampled_from(["shuffle", "drop", "variant"]), min_size=1),
       st.floats(0.05, 1.0))
def test_attrs_variants_load_as_each_entry_built_alone(generator, seed, hows, share):
    # Reordered keys, dropped defaults and mistyped values (3.0 or true for
    # an int, 1 or 0 for has_bias, a list) at random entries: the load is
    # the graph, or the ParseError, that building every entry's kind by
    # itself gives, and equal kinds are one object. Half the mistyped
    # values go into a copy of the first attrs of the entry's kind, so the
    # value may equal one of a kind already built.
    rng = random.Random(seed)
    doc = json.loads(serialize(generator(rng)))
    first: dict[str, dict] = {}
    for entry in doc["nodes"]:
        attrs = first.setdefault(entry["kind"], entry["attrs"])
        if entry["attrs"] and rng.random() < share:
            how = rng.choice(sorted(hows))
            if how != "variant" or rng.random() < 0.5:
                attrs = entry["attrs"]
            entry["attrs"] = _attrs_variant(attrs, _DEFAULTS[entry["kind"]], how, rng)
    expected = _oracle_load(doc)
    try:
        loaded = deserialize(json.dumps(doc))
    except ParseError as exc:
        assert isinstance(expected, ParseError), f"rejected: {exc}"
        assert (str(exc), exc.field) == (str(expected), expected.field)
        return
    assert loaded == expected
    distinct: dict = {}
    assert all(distinct.setdefault(node.kind, node.kind) is node.kind for node in loaded.nodes)


# -- mutated documents ---------------------------------------------------------

ODD_VALUES = (None, True, False, 0, -1, 1, 3, 2**70, 1.5, float("inf"), "", "x", "same", "relu",
              "Dense", [], [1, 2, 3], ["n0", "n0"], {}, {"a": 1})


def _paths(value, path=()):
    """Every location below the root of a JSON value, as its key path."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield path + (key,)
        yield from _paths(item, path + (key,))


@functools.cache
def _zoo_text(builder) -> str:
    return serialize(builder())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([build_xception, build_optimized_xception, build_mobilenet_v2, None]),
       st.integers(0, 2**32 - 1), st.sampled_from(["replace", "delete", "insert"]), st.data())
def test_mutated_document_loads_with_int_counts_or_is_rejected(builder, seed, mutation, data):
    # One field, value or type of a valid zoo or random document changed:
    # deserialize returns a graph whose counts are exact ints, or raises
    # ParseError or SchemaVersionError; nothing else.
    text = _zoo_text(builder) if builder else serialize(random_graph(random.Random(seed)))
    doc = json.loads(text)
    # a field first (node and list positions aside), then one place it occurs
    places: dict[tuple, list[tuple]] = {}
    for path in _paths(doc):
        places.setdefault(tuple(k if isinstance(k, str) else 0 for k in path), []).append(path)
    path = data.draw(st.sampled_from(places[data.draw(st.sampled_from(list(places)))]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    ids = [n["id"] for n in doc["nodes"]]
    value = data.draw(st.sampled_from(ODD_VALUES) | st.sampled_from(ids))
    if mutation == "replace":
        parent[key] = value
    elif mutation == "delete":
        del parent[key]
    elif isinstance(parent, dict):
        parent[f"{key}_extra"] = value
    else:
        parent.insert(key, value)
    try:
        loaded = deserialize(json.dumps(doc))
    except (ParseError, SchemaVersionError):
        return
    assert type(count_params(loaded).total) is int
    assert type(flops_estimate(loaded)) is int
