import dataclasses
import functools
import gc
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cndkit.analyzer import count_params, flops_estimate
from cndkit.errors import (
    ECHO_LIMIT,
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
)
from cndkit.serialize import deserialize, load_model, save_model, serialize
from cndkit.transforms import FireModuleSpec, strategy1_replace_kernels, strategy2_insert_fire
from cndkit.zoo import build_mobilenet_v2, build_optimized_xception, build_xception
from graphgen import random_graph


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


def _traced(call):
    """``call()``'s result, the traced bytes still allocated after it (what
    the result keeps alive) and the traced peak during it. ``gc.collect``
    before and after empties the interpreter's free lists, which tracemalloc
    would count as allocated."""
    call()  # anything made once, on a first call, is made outside the trace
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


def test_serialize_peak_stays_under_three_times_its_text():
    # Joining the node texts into a block, then the block into the document,
    # built the text three times: a peak of 4.6x the text.
    graph = build_xception(TensorShape(299, 299, 3), 101)
    text, _, peak = _traced(lambda: serialize(graph))
    assert peak <= 3 * len(text), (peak, len(text))


def test_a_loaded_graph_keeps_under_twice_its_text_alive():
    # A kind object per node and a __dict__ per node and kind kept 2.2x.
    text = serialize(build_xception(TensorShape(299, 299, 3), 101))
    _, kept, _ = _traced(lambda: deserialize(text))
    assert kept <= 2 * len(text), (kept, len(text))


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
