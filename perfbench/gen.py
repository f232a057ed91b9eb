"""Seeded input generators for the benchmark.

Everything here is plain Python and JSON; nothing imports cndkit. The program
under test only ever sees what these functions return: schema-v1 model JSON
text and measurement CSV text. Each generator also returns the facts the
checks need (which modules were rewritten with which widths, which records
were built to sit on the Pareto front), so the checks never have to ask the
program for its own answer.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import random
from dataclasses import dataclass

# -- model JSON ---------------------------------------------------------------

# Attribute keys in the field order of each layer kind, so that generated
# text is already in the byte-stable form the program writes.
_DEFAULTS = {
    "Conv2D": (("filters", None), ("kernel", None), ("stride", 1), ("padding", "same"), ("has_bias", False)),
    "SeparableConv2D": (("filters", None), ("kernel", None), ("stride", 1), ("padding", "same")),
    "MaxPool": (("pool_size", 3), ("stride", 2), ("padding", "same")),
    "Activation": (("fn", "relu"),),
    "Dense": (("units", None), ("has_bias", True)),
    "Input": (),
    "BatchNorm": (),
    "Add": (),
    "GlobalAvgPool": (),
}


def node(node_id: str, kind: str, inputs=(), tag=None, **attrs) -> dict:
    full = {}
    for key, default in _DEFAULTS[kind]:
        full[key] = attrs.pop(key, default)
        if full[key] is None:
            raise ValueError(f"{kind} needs attr {key!r}")
    if attrs:
        raise ValueError(f"unknown attrs for {kind}: {sorted(attrs)}")
    return {"id": node_id, "kind": kind, "attrs": full, "inputs": list(inputs), "tag": tag}


def dumps(doc: dict) -> str:
    """Schema-v1 text in the program's own layout (indent 2, trailing newline)."""
    return json.dumps(doc, indent=2) + "\n"


@dataclass
class DeepCase:
    """One synthetic deep graph plus what both rewrite passes must make of it."""

    size: int                      # requested node count
    text: str                      # schema-v1 JSON handed to the program
    doc: dict                      # the same document, parsed
    specs: dict                    # module tag -> {"s1x1", "e1x1", "e3x3"} for strategy2
    first_seps: list               # node id of the first separable conv of every module
    expected_s1: dict              # document after strategy1 alone
    expected_both: dict            # document after strategy1 then strategy2


def _unit(nodes, base, kind, src, tag, **attrs):
    """conv -> BatchNorm -> relu, the way the zoo emits every separable conv."""
    nodes.append(node(base, kind, (src,), tag, **attrs))
    bn_tag, act_tag = (None, None) if tag is None else (f"{tag}_bn", f"{tag}_act")
    nodes.append(node(f"{base}_bn", "BatchNorm", (base,), bn_tag))
    nodes.append(node(f"{base}_act", "Activation", (f"{base}_bn",), act_tag, fn="relu"))
    return f"{base}_act"


POOL_MODULES = 3  # modules that change width and end in pool + projection


def deep_case(rng: random.Random, size: int) -> DeepCase:
    """A stack of tagged residual modules with at most ``size`` nodes.

    Plain modules are 3 or 2 separable conv units (alternately) closed by an
    identity Add. ``POOL_MODULES`` of them (at seeded positions) also change
    width and end in MaxPool + a strided 1x1 projection, as in the entry flow
    of the zoo's Xception. Fire widths keep each module's output width, so
    every identity residual downstream still matches after strategy2.
    """
    side = rng.choice((32, 40, 48, 56, 64))
    widths = (32, 48, 64, 96, 128)
    width = rng.choice(widths[:3])
    head_nodes = 1 + 3 + 3  # input, stem unit, gap/dense/softmax
    # Modules alternate 3 and 2 separable convs (10 and 7 nodes), so the node
    # count depends on the size alone. A pool module has 2 convs plus pool,
    # projection and its BatchNorm: 10 nodes too, so it takes a 3-conv slot.
    n_seps = []
    total = head_nodes
    while total + 3 * (3 - len(n_seps) % 2) + 1 <= size:
        n_seps.append(3 - len(n_seps) % 2)
        total += 3 * n_seps[-1] + 1
    pool_at = set(rng.sample(range(0, len(n_seps), 2), POOL_MODULES))
    plans = [(2, True) if i in pool_at else (k, False) for i, k in enumerate(n_seps)]

    fire_at = set(rng.sample(range(len(plans)), max(1, len(plans) // 4)))
    classes = rng.randint(2, 1000)
    name = f"deep{size}"
    stem = [node("input", "Input")]
    x = _unit(stem, "stem", "Conv2D", "input", None, filters=width, kernel=3, stride=2)

    plain, s1_only, both = list(stem), copy.deepcopy(stem), copy.deepcopy(stem)
    specs, first_seps = {}, []
    for i, (n_seps, pooled) in enumerate(plans):
        mod = f"m{i + 1}"
        tag = f"deep/{mod}"
        out_w = rng.choice(widths) if pooled else width
        module_input = x
        spec = None
        if i in fire_at:
            e1 = rng.choice((out_w // 2, out_w // 4 * 3))
            s = rng.choice((out_w // 8, out_w // 4))
            spec = {"s1x1": s, "e1x1": e1, "e3x3": out_w}
            specs[tag] = spec
        first_seps.append(f"{mod}_sep1")

        def body(nodes, first_kernel, fire):
            if fire is None:
                t = module_input
                for j in range(n_seps):
                    t = _unit(nodes, f"{mod}_sep{j + 1}", "SeparableConv2D", t, f"{tag}/sep{j + 1}",
                              filters=out_w, kernel=first_kernel if j == 0 else 3)
            else:
                t = module_input
                for role, w, k in (("squeeze", fire["s1x1"], 1), ("expand1", fire["e1x1"], 1),
                                   ("expand3", fire["e3x3"], 3)):
                    t = _unit(nodes, f"{mod}_fire_{role}", "SeparableConv2D", t, f"{tag}/{role}",
                              filters=w, kernel=k)
            if pooled:
                nodes.append(node(f"{mod}_pool", "MaxPool", (t,), f"{tag}/pool"))
                nodes.append(node(f"{mod}_res", "Conv2D", (module_input,), f"{tag}/residual",
                                  filters=out_w, kernel=1, stride=2))
                nodes.append(node(f"{mod}_res_bn", "BatchNorm", (f"{mod}_res",), f"{tag}/residual_bn"))
                nodes.append(node(f"{mod}_add", "Add", (f"{mod}_pool", f"{mod}_res_bn"), f"{tag}/add"))
            else:
                nodes.append(node(f"{mod}_add", "Add", (t, module_input), f"{tag}/add"))

        body(plain, 3, None)
        body(s1_only, 1, None)
        body(both, 1, spec)
        x = f"{mod}_add"
        width = out_w

    for nodes in (plain, s1_only, both):
        nodes.append(node("gap", "GlobalAvgPool", (x,)))
        nodes.append(node("classifier", "Dense", ("gap",), units=classes))
        nodes.append(node("predictions", "Activation", ("classifier",), fn="softmax"))

    def doc_of(nodes):
        return {"schema_version": 1, "name": name, "input_shape": [side, side, 3],
                "num_classes": classes, "metadata": {"family": "synthetic", "variant": "deep"},
                "nodes": nodes}

    doc = doc_of(plain)
    return DeepCase(size, dumps(doc), doc, specs, first_seps, doc_of(s1_only), doc_of(both))


# -- measurement CSV ----------------------------------------------------------

CSV_HEADER = "model,experiment,train_acc,test_acc,avg_mem_mb,avg_epoch_time_s,avg_inf_time_ms,params"


@dataclass
class MeasurementSet:
    text: str
    rows: list        # (model, experiment, test_acc, avg_mem_mb) as written
    front_rows: int   # rows built to be non-dominated, duplicates included


def measurement_set(rng: random.Random, n: int, front_share: float,
                    comma_name: bool = False) -> MeasurementSet:
    """``n`` records of which about ``front_share`` sit on the Pareto front.

    Front points lie on a strictly rising staircase (more memory buys more
    accuracy), so none dominates another. Every other record is placed at or
    beyond the memory of one front point and at or below its accuracy, with
    one inequality strict; a quarter of them share that point's memory
    exactly (memory ties). About 2% of rows are exact duplicates of earlier
    rows, front rows included.
    """
    n_dup = max(1, n // 50)
    n_front = max(1, round((n - n_dup) * front_share))
    n_dom = n - n_dup - n_front
    mem = rng.uniform(150.0, 400.0)
    acc_step = 90.0 / n_front
    acc = rng.uniform(5.0, 8.0)
    front = []
    for _ in range(n_front):
        mem = round(mem + rng.uniform(0.05, 2.0), 2)
        acc = round(acc + rng.uniform(0.2, 1.0) * acc_step, 3)
        front.append((acc, mem))
    rows = [(f"front{i}", a, m) for i, (a, m) in enumerate(front)]
    for i in range(n_dom):
        a, m = rng.choice(front)
        if rng.random() < 0.25:
            a2, m2 = round(a - rng.uniform(0.001, 5.0), 3), m
        else:
            a2 = round(a - rng.choice((0.0, rng.uniform(0.001, 10.0))), 3)
            m2 = round(m + rng.uniform(0.01, 50.0), 2)
        rows.append((f"net{i}", max(a2, 0.0), m2))
    on_front = [True] * n_front + [False] * n_dom
    for _ in range(n_dup):
        pick = rng.randrange(len(rows))
        rows.append(rows[pick])
        on_front.append(on_front[pick])
    if comma_name:
        a, m = front[len(front) // 2]
        rows[len(front) // 2] = ("resnet,v2", a, m)
    rng.shuffle(rows)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    out.write(CSV_HEADER + "\n")
    written = []
    for model, a, m in rows:
        exp = "sweep"
        train = round(min(100.0, a + rng.uniform(0.0, 10.0)), 2)
        epoch = "" if rng.random() < 0.3 else f"{rng.uniform(100, 900):.2f}"
        params = "" if rng.random() < 0.3 else str(rng.randint(10**5, 3 * 10**7))
        writer.writerow([model, exp, train, a, m, epoch, f"{rng.uniform(100, 600):.0f}", params])
        written.append((model, exp, a, m))
    return MeasurementSet(out.getvalue(), written, sum(on_front))
