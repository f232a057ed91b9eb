"""Versioned JSON serialization for model graphs.

Schema v1::

    {"schema_version": 1, "name": ..., "input_shape": [H, W, C],
     "num_classes": ..., "metadata": {...},
     "nodes": [{"id": ..., "kind": ..., "attrs": {...},
                "inputs": [...], "tag": ... | null}, ...]}

Attribute keys are exactly the attr names in each layer kind's row of
``graph.KINDS``, its dataclass fields; unknown attrs are rejected. Nodes must
be listed in dependency order (every input precedes its consumer), which
serialize always produces. Output is byte-stable for a given graph.

``serialize`` writes exactly ``json.dumps(doc, indent=2)`` of that document
plus a newline, but builds the text itself: CPython's C JSON encoder is used
only when ``indent`` is None, so ``json.dumps(..., indent=2)`` runs the
pure-Python encoder, and it cost most of a save. Strings still go through
the C ``encode_basestring_ascii`` that ``json.dumps`` uses by default.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string
from pathlib import Path

from . import graph as g
from .errors import CndkitError, ParseError, SchemaVersionError, capped, parse_json, read_text

SCHEMA_VERSION = 1

_KIND_BY_NAME = {cls.__name__: cls for cls in g.KIND_CLASSES}


def _block(open_: str, close: str, items: list[str], indent: str) -> str:
    """A JSON array or object holding the rendered ``items``, laid out as
    ``json.dumps(indent=2)`` lays it out when it opens at depth ``indent``."""
    if not items:
        return open_ + close
    inner = "\n" + indent + "  "
    return open_ + inner + ("," + inner).join(items) + "\n" + indent + close


def _scalar(value: str | bool | int) -> str:
    if isinstance(value, str):
        return _string(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return int.__repr__(value)


def _kind_text(kind: g.LayerKind) -> str:
    """The text between a node's id and its input list: kind name and attrs."""
    name = type(kind).__name__
    attrs = [f"{_string(f)}: {_scalar(getattr(kind, f))}" for f in g.KINDS[type(kind)][2]]
    return (
        f',\n      "kind": {_string(name)},\n      "attrs": {_block("{", "}", attrs, "      ")}'
        ',\n      "inputs": '
    )


def serialize(graph: g.ModelGraph) -> str:
    """Render a validated graph as schema-v1 JSON text."""
    g.validate(graph)  # so there is at least the Input node
    shape = graph.input_shape
    dims = [int.__repr__(shape.height), int.__repr__(shape.width), int.__repr__(shape.channels)]
    metadata = [f"{_string(k)}: {_string(v)}" for k, v in graph.metadata.items()]
    # The document's parts go into one list and are joined once: the node
    # texts are not first gathered into a block of their own, which would
    # build the largest part of the text twice more.
    parts = [
        f'{{\n  "schema_version": {SCHEMA_VERSION},\n  "name": {_string(graph.name)},\n'
        f'  "input_shape": {_block("[", "]", dims, "  ")},\n'
        f'  "num_classes": {int.__repr__(graph.num_classes)},\n'
        f'  "metadata": {_block("{", "}", metadata, "  ")},\n  "nodes": ['
    ]
    kind_texts: dict[g.LayerKind, str] = {}  # kinds are frozen: equal kinds share one text
    sep = "\n    "
    for node in graph.nodes:
        kind_text = kind_texts.get(node.kind)
        if kind_text is None:
            kind_text = kind_texts[node.kind] = _kind_text(node.kind)
        inputs = _block("[", "]", [_string(i) for i in node.inputs], "      ")
        tag = "null" if node.tag is None else _string(node.tag)
        parts.append(
            f'{sep}{{\n      "id": {_string(node.id)}{kind_text}{inputs},\n      "tag": {tag}\n    }}'
        )
        sep = ",\n    "
    parts.append("\n  ]\n}\n")
    return "".join(parts)


def _expect(doc: dict, key: str, types, field: str):
    if key not in doc:
        raise ParseError(f"missing required key {key!r}", field=field)
    value = doc[key]
    if not isinstance(value, types) or isinstance(value, bool) and types is not bool:
        raise ParseError(f"key {key!r} has wrong type {type(value).__name__}", field=field)
    return value


def _parse_node(entry: dict, index: int, kinds: dict, ids: dict) -> g.LayerNode:
    """One node entry. ``kinds`` maps each kind built so far in this load to
    itself, so equal kinds are kept as one object; ``ids`` maps each node id
    so far to itself, so an input names its source by that id's string."""
    where = f"nodes[{index}]"
    if not isinstance(entry, dict):
        raise ParseError("node entry must be an object", field=where)
    node_id = _expect(entry, "id", str, f"{where}.id")
    if not node_id:
        raise ParseError("node id must be a non-empty string", field=f"{where}.id")
    kind_name = _expect(entry, "kind", str, f"{where}.kind")
    cls = _KIND_BY_NAME.get(kind_name)
    if cls is None:
        raise ParseError(f"unknown layer kind {capped(kind_name)}", field=f"{where}.kind")
    attrs = _expect(entry, "attrs", dict, f"{where}.attrs")
    unknown = set(attrs).difference(g.KINDS[cls][2])
    if unknown:
        raise ParseError(
            f"unknown attrs for {kind_name}: {capped(sorted(unknown))}", field=f"{where}.attrs"
        )
    inputs = _expect(entry, "inputs", list, f"{where}.inputs")
    if not all(isinstance(i, str) for i in inputs):
        raise ParseError("inputs must be a list of node ids", field=f"{where}.inputs")
    tag = entry.get("tag")
    if tag is not None and not isinstance(tag, str):
        raise ParseError("tag must be a string or null", field=f"{where}.tag")
    try:
        kind = cls(**attrs)
    except (TypeError, CndkitError) as exc:
        raise ParseError(f"bad attrs for {kind_name}: {exc}", field=f"{where}.attrs") from exc
    kind = kinds.setdefault(kind, kind)
    inputs = tuple([ids.get(i, i) for i in inputs])  # an unknown input stays for check_append
    return g.LayerNode(id=node_id, kind=kind, inputs=inputs, tag=tag)


def deserialize(text: str) -> g.ModelGraph:
    """Parse schema-v1 JSON text into a validated graph.

    One sweep over the node list parses each entry and checks it against the
    ids seen so far (duplicate id, unknown or forward input, arity), so a
    rejection names the first bad entry as ``field="nodes[i]"``. The sweep
    is O(V + E); the graph is built once after it and then validated.
    """
    doc = parse_json(text)
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # true and 1.0 equal 1
        raise SchemaVersionError(
            f"unsupported schema_version {capped(version)}, expected {SCHEMA_VERSION}"
        )
    name = _expect(doc, "name", str, "name")
    shape_raw = _expect(doc, "input_shape", list, "input_shape")
    if len(shape_raw) != 3 or not all(isinstance(v, int) and not isinstance(v, bool) for v in shape_raw):
        raise ParseError("input_shape must be [H, W, C] integers", field="input_shape")
    num_classes = _expect(doc, "num_classes", int, "num_classes")
    metadata = _expect(doc, "metadata", dict, "metadata")
    if not all(isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()):
        raise ParseError("metadata must map strings to strings", field="metadata")
    nodes_raw = _expect(doc, "nodes", list, "nodes")

    try:
        shape = g.TensorShape(*shape_raw)
    except CndkitError as exc:
        raise ParseError(str(exc), field="input_shape") from exc
    ids: dict[str, str] = {}
    nodes: list[g.LayerNode] = []
    kinds: dict[g.LayerKind, g.LayerKind] = {}
    for i, entry in enumerate(nodes_raw):
        node = _parse_node(entry, i, kinds, ids)
        try:
            g.check_append(ids, node)
        except CndkitError as exc:
            raise ParseError(str(exc), field=f"nodes[{i}]") from exc
        ids[node.id] = node.id
        nodes.append(node)
    model = g.ModelGraph(
        name=name, input_shape=shape, num_classes=num_classes, nodes=tuple(nodes),
        metadata=dict(metadata),
    )
    try:
        g.validate(model)
    except CndkitError as exc:
        raise ParseError(f"graph failed validation: {exc}") from exc
    return model


def save_model(graph: g.ModelGraph, path: str | Path) -> None:
    Path(path).write_text(serialize(graph), encoding="utf-8")


def load_model(path: str | Path) -> g.ModelGraph:
    """``deserialize`` the file's text; its errors name the file."""
    text = read_text(path)
    try:
        return deserialize(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc.message}", line=exc.line, field=exc.field) from exc
    except SchemaVersionError as exc:
        raise SchemaVersionError(f"{path}: {exc}") from exc
