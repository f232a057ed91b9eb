import dataclasses
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cndkit.analyzer
import cndkit.graph
from cndkit import transforms
from cndkit.analyzer import analyze, count_params, memory_estimate
from cndkit.errors import (
    CndkitError,
    InvalidFireSpecError,
    ModuleStructureError,
    ResidualShapeBrokenError,
    ShapeMismatchError,
    UnknownModuleTagError,
    ValidationError,
)
from cndkit.graph import (
    Activation,
    Add,
    BatchNorm,
    Conv2D,
    Dense,
    GlobalAvgPool,
    Input,
    LayerNode,
    MaxPool,
    ModelGraph,
    SeparableConv2D,
    TensorShape,
    infer_shapes,
    group_modules,
    is_conv,
    topo_sort,
    validate,
)
from cndkit.serialize import deserialize, serialize
from cndkit.transforms import (
    NodeChange,
    diff,
    percentage_reduction,
    strategy1_replace_kernels,
    strategy2_insert_fire,
    strategy3_audit,
    structurally_equal,
)
from cndkit.zoo import DEFAULT_OPTIMIZED_CONFIG, FireModuleSpec, build_optimized_xception
from graphgen import (
    _enum_dim,
    oracle_main_stack,
    oracle_params,
    oracle_shapes,
    oracle_split_tag,
    random_fire_graph,
    random_graph,
    random_tags,
    random_topological_order,
    with_off_stack_nodes,
    with_random_stack_windows,
)


def _graph(*nodes, name="g", input_shape=TensorShape(8, 8, 16), num_classes=4):
    """A graph of ``nodes`` as stored, on 8x8x16 with 4 classes unless given,
    checked by ``topo_sort``: a fragment with no head passes too."""
    graph = ModelGraph(name, input_shape, num_classes, nodes)
    topo_sort(graph)
    return graph


def default_specs():
    cfg = DEFAULT_OPTIMIZED_CONFIG
    specs = {f"entry_flow/m{i + 2}": s for i, s in enumerate(cfg.entry_fire)}
    specs.update({f"middle_flow/m{i + 5}": s for i, s in enumerate(cfg.middle_fire)})
    return specs


@pytest.fixture
def inference_calls(monkeypatch):
    """Names of the graphs ``infer_shapes`` runs on, whichever module calls it."""
    calls = []
    real = cndkit.graph.infer_shapes

    def counting(graph):
        calls.append(graph.name)
        return real(graph)

    for name, module in list(sys.modules.items()):
        if name.startswith("cndkit.") and getattr(module, "infer_shapes", None) is real:
            monkeypatch.setattr(module, "infer_shapes", counting)
    return calls


def _single_module_graph(kernels=(3, 3), filters=128, channels=64, with_residual=True):
    """input -> sepA -> bn -> sepB -> bn [-> add with 1x1 projection]."""
    nodes = [LayerNode("in", Input())]
    tip = "in"
    for i, kernel in enumerate(kernels, start=1):
        conv = f"sep{i}"
        nodes.append(LayerNode(conv, SeparableConv2D(filters, kernel), (tip,), f"flow/m1/sep{i}"))
        nodes.append(LayerNode(f"{conv}_bn", BatchNorm(), (conv,), f"flow/m1/sep{i}_bn"))
        tip = f"{conv}_bn"
    if with_residual:
        nodes.append(LayerNode("res", Conv2D(filters, 1), ("in",), "flow/m1/residual"))
        nodes.append(LayerNode("sum", Add(), (tip, "res"), "flow/m1/add"))
    return _graph(*nodes, name="module", input_shape=TensorShape(16, 16, channels), num_classes=2)


class TestStrategy1:
    def test_rewrites_first_sep_of_module(self):
        # num_classes is the 128-wide end's: the pass checks its result like validate
        graph = dataclasses.replace(_single_module_graph(), num_classes=128)
        out, report = strategy1_replace_kernels(graph)
        assert [c.node_id for c in report.nodes_changed] == ["sep1"]
        by_id = {n.id: n for n in out.nodes}
        assert by_id["sep1"].kind.kernel == 1
        assert by_id["sep2"].kind.kernel == 3
        assert by_id["sep1"].kind.filters == 128

    def test_no_matches_is_identity(self):
        graph = _single_module_graph(kernels=(1, 1))
        out, report = strategy1_replace_kernels(graph)
        assert out == graph
        assert report.nodes_changed == ()
        assert report.params_before == report.params_after

    def test_ninefold_depthwise_reduction(self):
        graph = dataclasses.replace(_single_module_graph(), num_classes=128)
        shapes = infer_shapes(graph)
        out, report = strategy1_replace_kernels(graph)
        by_id = {n.id: n for n in graph.nodes}
        for change in report.nodes_changed:
            channels = shapes[by_id[change.node_id].inputs[0]].channels
            before = channels * 9
            after = channels * 1
            assert before == 9 * after

    @pytest.mark.parametrize("kernel", [3, 1])
    def test_result_checked_like_validate(self, kernel):
        # Two terminals: the pass raises validate's error when it changes a
        # node, and returns its input as it is when it has nothing to do.
        graph = _graph(
            LayerNode("in", Input()),
            LayerNode("s1", SeparableConv2D(16, kernel), ("in",), "f/m1/sep1"),
            LayerNode("side", Activation("relu"), ("in",)),
        )
        if kernel == 1:
            assert strategy1_replace_kernels(graph)[0] is graph
            return
        with pytest.raises(ValidationError) as exc:
            strategy1_replace_kernels(graph)
        assert str(exc.value) == "graph must have exactly one terminal node, found ['s1', 'side']"

    def test_idempotent_on_baseline(self, xception):
        once, _ = strategy1_replace_kernels(xception)
        twice, report = strategy1_replace_kernels(once)
        assert twice == once
        assert report.nodes_changed == ()

    def test_changes_one_node_per_leading_sep3_module(self, xception):
        _, report = strategy1_replace_kernels(xception)
        assert len(report.nodes_changed) == 13  # every module but the stem
        assert report.params_after < report.params_before

    def test_one_new_kind_and_description_per_distinct_target(self, xception, monkeypatch):
        # 13 targets with 4 distinct kinds (128, 256, 728 and 1536 filters)
        built, described = [], []
        real_post_init, real_describe = SeparableConv2D.__post_init__, transforms._describe
        monkeypatch.setattr(SeparableConv2D, "__post_init__",
                            lambda kind: (built.append(kind), real_post_init(kind))[1])
        monkeypatch.setattr(transforms, "_describe",
                            lambda kind: (described.append(kind), real_describe(kind))[1])
        out, report = strategy1_replace_kernels(xception)
        before, after = ({n.id: n for n in g.nodes} for g in (xception, out))
        targets = [before[change.node_id].kind for change in report.nodes_changed]
        assert len(targets) == 13
        assert len(built) == len(set(targets)) == 4
        assert sorted(described, key=repr) == sorted(set(targets) | set(built), key=repr)
        # each new kind is one object, shared by every node that got it
        new_kinds = [after[change.node_id].kind for change in report.nodes_changed]
        assert {id(kind) for kind in new_kinds} == {id(kind) for kind in built}

    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_params_after_counts_the_result(self, padding):
        # Under valid padding the 1x1 kernel widens the map the Dense flattens.
        graph = _graph(
            LayerNode("in", Input()),
            LayerNode("sep1", SeparableConv2D(8, 3, padding=padding), ("in",), "flow/m1/sep1"),
            LayerNode("head", Dense(2), ("sep1",)),
            name="flat", input_shape=TensorShape(8, 8, 4), num_classes=2)
        out, report = strategy1_replace_kernels(graph)
        assert report.params_after == count_params(out).total

    def test_valid_padding_leading_conv_is_kept(self):
        # A 1x1 kernel would widen the valid-padding map to 8x8, and the
        # Dense that flattens it from 288 to 512 inputs (646 -> 1,062 params).
        graph = _graph(
            LayerNode("in", Input()),
            LayerNode("sep1", SeparableConv2D(8, 3, padding="valid"), ("in",), "flow/m1/sep1"),
            LayerNode("head", Dense(2), ("sep1",)),
            name="flat", input_shape=TensorShape(8, 8, 4), num_classes=2)
        out, report = strategy1_replace_kernels(graph)
        assert out is graph
        assert report.nodes_changed == ()
        assert report.params_before == report.params_after == 646

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_every_node_keeps_its_map_size(self, seed):
        # Random valid graphs with random module tags, valid padding included:
        # each node keeps its height and width, and the pass adds no params.
        rng = random.Random(seed)
        graph = random_tags(random_graph(rng), rng)
        out, report = strategy1_replace_kernels(graph)
        sizes = lambda g: {node_id: shape[:2] for node_id, shape in oracle_shapes(g).items()}
        assert sizes(out) == sizes(graph)
        assert count_params(out).total == report.params_after <= report.params_before

    def test_preserves_macro_structure(self, xception):
        out, _ = strategy1_replace_kernels(xception)
        assert out.num_classes == xception.num_classes
        assert out.input_shape == xception.input_shape
        count = lambda g, pred: sum(1 for n in g.nodes if pred(n))
        assert count(out, lambda n: isinstance(n.kind, Add)) == 12
        downs = lambda g: count(
            g, lambda n: isinstance(n.kind, MaxPool) or (is_conv(n.kind) and n.kind.stride == 2)
        )
        assert downs(out) == downs(xception)


class TestStrategy2:
    def test_narrows_channels_into_expand3(self):
        # num_classes is the width of the rewritten end (expand3's 256)
        graph = dataclasses.replace(_single_module_graph(channels=728, filters=728), num_classes=256)
        spec = FireModuleSpec(128, 256, 256)
        out, report = strategy2_insert_fire(graph, {"flow/m1": spec})
        shapes = infer_shapes(out)
        expand3 = next(
            n for n in out.nodes if is_conv(n.kind) and n.tag == "flow/m1/expand3"
        )
        assert shapes[expand3.inputs[0]].channels == 256 < 728
        assert report.params_after < report.params_before

    def test_invalid_spec_rejected(self):
        graph = _single_module_graph()
        with pytest.raises(InvalidFireSpecError) as exc:
            strategy2_insert_fire(graph, {"flow/m1": FireModuleSpec(128, 64, 64)})
        assert "flow/m1" in str(exc.value)

    def test_specs_must_be_a_dict(self):
        pairs = [("flow/m1", FireModuleSpec(16, 32, 32))]
        message = "specs must be a dict of module tag -> FireModuleSpec, got [('flow/m1', "
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
            strategy2_insert_fire(_single_module_graph(), pairs)

    @pytest.mark.parametrize("spec", [(4, 8, 16), None, "4,8,16"])
    def test_each_spec_must_be_a_fire_module_spec(self, spec):
        with pytest.raises(InvalidFireSpecError) as exc:
            strategy2_insert_fire(_single_module_graph(), {"flow/m1": spec})
        assert exc.value.module == "flow/m1"
        assert str(exc.value) == f"flow/m1: fire spec must be a FireModuleSpec, got {spec!r}"

    def test_unknown_tag_rejected(self):
        graph = _single_module_graph()
        with pytest.raises(UnknownModuleTagError):
            strategy2_insert_fire(graph, {"flow/m9": FireModuleSpec(16, 32, 32)})

    def test_head_module_not_rewritable(self, xception):
        from cndkit.errors import ModuleStructureError

        with pytest.raises(ModuleStructureError):
            strategy2_insert_fire(xception, {"exit_flow/m14": FireModuleSpec(64, 128, 128)})

    def test_structure_error_caps_a_long_module_tag(self, xception):
        from cndkit.errors import ModuleStructureError

        long_module = "exit_flow/" + "m" * 100_000
        m14 = {n.id for _, n in group_modules(xception.nodes)["exit_flow/m14"]}
        nodes = tuple(
            dataclasses.replace(n, tag=n.tag.replace("exit_flow/m14", long_module))
            if n.id in m14 else n
            for n in xception.nodes
        )
        graph = dataclasses.replace(xception, nodes=nodes)
        with pytest.raises(ModuleStructureError, match="contains a") as exc:
            strategy2_insert_fire(graph, {long_module: FireModuleSpec(64, 128, 128)})
        assert len(str(exc.value)) < 300

    def test_empty_specs_is_identity(self, xception):
        out, report = strategy2_insert_fire(xception, {})
        assert out == xception
        assert report.nodes_changed == ()

    def test_identity_residual_kept_when_width_matches(self):
        graph = _graph(
            LayerNode("in", Input()),
            LayerNode("sep1", SeparableConv2D(64, 3), ("in",), "flow/m1/sep1"),
            LayerNode("sum", Add(), ("sep1", "in"), "flow/m1/add"),
            name="mid", input_shape=TensorShape(16, 16, 64), num_classes=64)
        out, _ = strategy2_insert_fire(graph, {"flow/m1": FireModuleSpec(16, 32, 64)})
        add_node = {n.id: n for n in out.nodes}["sum"]
        assert "in" in add_node.inputs  # residual is still the module input itself

    def test_projection_inserted_when_width_changes(self):
        # num_classes is the width of the rewritten end (expand3's 48)
        graph = _graph(
            LayerNode("in", Input()),
            LayerNode("sep1", SeparableConv2D(64, 3), ("in",), "flow/m1/sep1"),
            LayerNode("sum", Add(), ("sep1", "in"), "flow/m1/add"),
            name="mid", input_shape=TensorShape(16, 16, 64), num_classes=48)
        out, _ = strategy2_insert_fire(graph, {"flow/m1": FireModuleSpec(16, 32, 48)})
        projs = [n for n in out.nodes if is_conv(n.kind) and n.tag == "flow/m1/residual"]
        assert len(projs) == 1 and projs[0].kind.filters == 48
        infer_shapes(out)  # wiring stays consistent

    @pytest.mark.parametrize("m2_e3x3, projection, params_after", [
        (32, [], 2092),
        (16, ["f_m2_res", "f_m2_res_bn"], 2412),
    ])
    def test_width_through_an_untagged_pool_and_add(self, m2_e3x3, projection, params_after):
        # m1 (projected) -> untagged BatchNorm -> MaxPool(3, stride=1) -> Add
        # of both -> m2, whose identity residual reads that Add. The chain
        # was 16 wide and m1 makes it 32: m2's e3x3 of 32 needs no projection
        # although the old width differed, and its old width, 16, needs one.
        graph = _graph(
            LayerNode("in", Input()),
            LayerNode("s1", SeparableConv2D(16, 3), ("in",), "f/m1/sep1"),
            LayerNode("p1", Conv2D(16, 1), ("in",), "f/m1/residual"),
            LayerNode("a1", Add(), ("s1", "p1"), "f/m1/add"),
            LayerNode("bn", BatchNorm(), ("a1",)),
            LayerNode("pool", MaxPool(3, 1), ("bn",)),
            LayerNode("mix", Add(), ("pool", "bn")),
            LayerNode("s2", SeparableConv2D(16, 3), ("mix",), "f/m2/sep1"),
            LayerNode("a2", Add(), ("s2", "mix"), "f/m2/add"),
            LayerNode("gap", GlobalAvgPool(), ("a2",)),
            LayerNode("head", Dense(4), ("gap",)),
        )
        specs = {"f/m1": FireModuleSpec(4, 8, 32), "f/m2": FireModuleSpec(4, 8, m2_e3x3)}
        report, (out, table, _) = _strategy2_table(graph, specs)
        assert table == analyze(out)
        fire = lambda m: [f"f_{m}_fire_{role}{suffix}" for role in ("squeeze", "expand1", "expand3")
                          for suffix in ("", "_bn", "_act")]
        assert [n.id for n in out.nodes] == (
            ["in"] + fire("m1") + ["p1", "a1", "bn", "pool", "mix"] + fire("m2") + projection
            + ["a2", "gap", "head"])
        assert (report.params_before, report.params_after) == (1188, params_after)

    def test_reduces_params_for_squeeze_style_specs(self, xception):
        # Random reduction specs: squeeze and expand1 stay narrower than the
        # module input, expand3 keeps the original output width.
        rng = random.Random(1234)
        inputs = {
            "entry_flow/m2": (64, 128),
            "entry_flow/m3": (128, 256),
            "entry_flow/m4": (256, 728),
            "middle_flow/m5": (728, 728),
            "middle_flow/m9": (728, 728),
        }
        for _ in range(10):
            specs = {}
            for tag, (c_in, f_out) in inputs.items():
                e1 = rng.randint(4, c_in - 1)
                s = rng.randint(2, e1)
                specs[tag] = FireModuleSpec(s, e1, f_out)
            out, report = strategy2_insert_fire(xception, specs)
            assert report.params_after < report.params_before
            assert count_params(out).total == report.params_after

    def test_params_monotone_in_squeeze_width(self, xception):
        def total(s):
            spec = FireModuleSpec(s, 600, 728)
            _, report = strategy2_insert_fire(xception, {"middle_flow/m5": spec})
            return report.params_after

        widths = [total(s) for s in (64, 128, 256, 414)]
        assert widths == sorted(widths)

    def test_residual_follows_width_of_rewritten_input(self, xception):
        # m6's input is m5's new 512-wide output, not the 728 it had before.
        specs = {
            "middle_flow/m5": FireModuleSpec(414, 600, 512),
            "middle_flow/m6": FireModuleSpec(414, 600, 728),
        }
        out, report = strategy2_insert_fire(xception, specs)
        projs = {n.tag: n.kind.filters for n in out.nodes
                 if is_conv(n.kind) and n.tag.startswith("middle_flow") and n.tag.endswith("/residual")}
        assert projs == {"middle_flow/m5/residual": 512, "middle_flow/m6/residual": 728}
        assert count_params(out).total == report.params_after

    def test_width_passes_through_untagged_nodes(self):
        # in -> m1 (sep + Add) -> relu -> m2 (sep + Add): m2 is fed m1's new
        # width (48) through the untagged relu, not the 64 it had before.
        graph = _graph(
            LayerNode("in", Input()),
            LayerNode("s1", SeparableConv2D(64, 3), ("in",), "flow/m1/sep1"),
            LayerNode("a1", Add(), ("s1", "in"), "flow/m1/add"),
            LayerNode("relu", Activation("relu"), ("a1",)),
            LayerNode("s2", SeparableConv2D(64, 3), ("relu",), "flow/m2/sep1"),
            LayerNode("a2", Add(), ("s2", "relu"), "flow/m2/add"),
            name="two", input_shape=TensorShape(16, 16, 64), num_classes=64)
        specs = {"flow/m1": FireModuleSpec(16, 32, 48), "flow/m2": FireModuleSpec(16, 32, 64)}
        out, report = strategy2_insert_fire(graph, specs)
        projs = {n.tag: n.kind.filters for n in out.nodes if n.tag and n.tag.endswith("/residual")}
        assert projs == {"flow/m1/residual": 48, "flow/m2/residual": 64}
        assert infer_shapes(out)["a2"] == TensorShape(16, 16, 64)
        assert count_params(out).total == report.params_after

    def test_broken_residual_outside_module(self):
        # The Add joining m1's output to its input is untagged, so the pass
        # leaves it alone and its inputs end up 48 vs 64 channels wide.
        graph = _graph(
            LayerNode("in", Input()),
            LayerNode("s1", SeparableConv2D(64, 3), ("in",), "flow/m1/sep1"),
            LayerNode("sum", Add(), ("s1", "in")),
            name="outside", input_shape=TensorShape(16, 16, 64), num_classes=2)
        with pytest.raises(ResidualShapeBrokenError) as exc:
            strategy2_insert_fire(graph, {"flow/m1": FireModuleSpec(16, 32, 48)})
        assert str(exc.value) == (
            "fire insertion broke residual shapes in 'outside': "
            "Add node 'sum' inputs differ: 16x16x48 vs 16x16x64"
        )

    @pytest.mark.parametrize("num_classes, message, last", [
        (2, "graph must have exactly one terminal node, found ['flow_m1_fire_expand3_act', 'side']",
         LayerNode("side", Activation("relu"), ("in",))),
        (0, "num_classes must be >= 1, got 0", LayerNode("side", Activation("relu"), ("in",))),
        (64, "terminal node 'a1' outputs 48 channels, but num_classes is 64",
         LayerNode("a1", Add(), ("s1", "in"), "flow/m1/add")),
    ])
    def test_result_checked_like_validate(self, num_classes, message, last):
        # Two terminals, and with num_classes=0 a second fault that
        # validate reports first; or one terminal, the Add, which the
        # rewrite narrows from the 64 channels num_classes asks for to 48.
        graph = _graph(
            LayerNode("in", Input()),
            LayerNode("s1", SeparableConv2D(64, 3), ("in",), "flow/m1/sep1"),
            last,
            name="ends", input_shape=TensorShape(16, 16, 64), num_classes=num_classes)
        with pytest.raises(ValidationError) as exc:
            strategy2_insert_fire(graph, {"flow/m1": FireModuleSpec(16, 32, 48)})
        assert str(exc.value) == message

    @pytest.mark.parametrize("kept, spec, added", [
        # a kept node holds the squeeze id the module's prefix would give
        ("f_m1_fire_squeeze", FireModuleSpec(4, 8, 16),
         [f"f_m1_fire_f_{role}{end}" for role in ("squeeze", "expand1", "expand3")
          for end in ("", "_bn", "_act")]),
        # ... or the projection's BatchNorm id
        ("f_m1_res_bn", FireModuleSpec(4, 8, 32),
         [f"f_m1_fire_{role}{end}" for role in ("squeeze", "expand1", "expand3")
          for end in ("", "_bn", "_act")] + ["f_m1_res_f", "f_m1_res_f_bn"]),
    ])
    def test_added_ids_never_collide(self, kept, spec, added):
        graph = _graph(
            LayerNode("in", Input()),
            LayerNode("s1", SeparableConv2D(16, 3), ("in",), "f/m1/sep1"),
            LayerNode("s1_bn", BatchNorm(), ("s1",), "f/m1/sep1_bn"),
            LayerNode("a1", Add(), ("s1_bn", "in"), "f/m1/add"),
            LayerNode(kept, Activation("relu"), ("a1",)),
            LayerNode("gap", GlobalAvgPool(), (kept,)),
            LayerNode("head", Dense(4), ("gap",)),
        )
        out, _ = strategy2_insert_fire(graph, {"f/m1": spec})
        validate(out)
        assert [n.id for n in out.nodes] == ["in", *added, "a1", kept, "gap", "head"]

    def test_inner_node_feeding_outside_is_a_structure_error(self):
        graph = _graph(
            LayerNode("in", Input()),
            LayerNode("s1", SeparableConv2D(16, 3), ("in",), "f/m1/sep1"),
            LayerNode("s2", SeparableConv2D(16, 3), ("s1",), "f/m1/sep2"),
            LayerNode("a1", Add(), ("s2", "in"), "f/m1/add"),
            LayerNode("x", Activation("relu"), ("s1",)),
            LayerNode("a2", Add(), ("a1", "x")),
            LayerNode("gap", GlobalAvgPool(), ("a2",)),
            LayerNode("head", Dense(4), ("gap",)),
        )
        with pytest.raises(ModuleStructureError) as exc:
            strategy2_insert_fire(graph, {"f/m1": FireModuleSpec(4, 8, 16)})
        assert str(exc.value) == (
            "module 'f/m1': node 's1' feeds 'x' outside the module; only its output 'a1' may"
        )

    @pytest.mark.parametrize("nodes, message", [
        # a second residual conv, chained behind the projection
        ((LayerNode("s1", SeparableConv2D(16, 3), ("in",), "f/m1/sep1"),
          LayerNode("r1", Conv2D(16, 1), ("in",), "f/m1/residual"),
          LayerNode("r2", Conv2D(16, 1), ("r1",), "f/m1/residual"),
          LayerNode("a1", Add(), ("s1", "r2"), "f/m1/add")),
         "module 'f/m1' keeps more than one conv off its main stack, found ['r1', 'r2']; "
         "only one projection can be resized"),
        # a pre-activation: the stack is fed by a node it does not replace
        ((LayerNode("pre", Activation("relu"), ("in",), "f/m1/pre_act"),
          LayerNode("s1", SeparableConv2D(16, 3), ("pre",), "f/m1/sep1"),
          LayerNode("a1", Add(), ("s1", "in"), "f/m1/add")),
         "module 'f/m1': its main stack is fed by 'pre', not by the module input 'in'"),
        # two stack nodes read off the stack
        ((LayerNode("s1", SeparableConv2D(16, 3), ("in",), "f/m1/sep1"),
          LayerNode("s2", SeparableConv2D(16, 3), ("s1",), "f/m1/sep2"),
          LayerNode("a1", Add(), ("s2", "s1"), "f/m1/add")),
         "module 'f/m1' must have one main-stack output, found ['s2', 's1']"),
        # no stack at all
        ((LayerNode("a1", Activation("relu"), ("in",), "f/m1/act"),),
         "module 'f/m1' must have one main-stack output, found []"),
    ], ids=["second-residual-conv", "pre-activation", "two-stack-outputs", "no-stack"])
    def test_module_structure_errors(self, nodes, message):
        tail = nodes[-1].id
        graph = _graph(LayerNode("in", Input()), *nodes, LayerNode("gap", GlobalAvgPool(), (tail,)),
                       LayerNode("head", Dense(4), ("gap",)))
        with pytest.raises(ModuleStructureError) as exc:
            strategy2_insert_fire(graph, {"f/m1": FireModuleSpec(4, 8, 16)})
        assert str(exc.value) == message

    def test_activation_behind_the_projection_is_kept(self):
        graph = _graph(
            LayerNode("in", Input()),
            LayerNode("s1", SeparableConv2D(16, 3), ("in",), "f/m1/sep1"),
            LayerNode("s1_bn", BatchNorm(), ("s1",), "f/m1/sep1_bn"),
            LayerNode("r", Conv2D(16, 1), ("in",), "f/m1/residual"),
            LayerNode("r_bn", BatchNorm(), ("r",), "f/m1/residual_bn"),
            LayerNode("r_act", Activation("relu"), ("r_bn",), "f/m1/residual_act"),
            LayerNode("a1", Add(), ("s1_bn", "r_act"), "f/m1/add"),
            LayerNode("gap", GlobalAvgPool(), ("a1",)),
            LayerNode("head", Dense(4), ("gap",)),
        )
        out, report = strategy2_insert_fire(graph, {"f/m1": FireModuleSpec(4, 8, 32)})
        assert [n.id for n in out.nodes][-6:] == ["r", "r_bn", "r_act", "a1", "gap", "head"]
        before, after = ({n.id: n for n in g.nodes} for g in (graph, out))
        assert after["r"].kind == Conv2D(32, 1) and after["r"].inputs == ("in",)
        assert after["r_act"] == before["r_act"]
        assert after["a1"].inputs == ("f_m1_fire_expand3_act", "r_act")
        assert report.nodes_changed[-1] == NodeChange("r", "Conv2D(f16,k1,s1)", "Conv2D(f32,k1,s1)")

    def test_residual_branch_pool_stays_on_its_branch(self):
        # The strided stack becomes a fire whose expand3 strides; the pool
        # halves the skip path on its own, so no projection is needed.
        graph = _graph(
            LayerNode("in", Input()),
            LayerNode("s1", SeparableConv2D(16, 3, stride=2), ("in",), "f/m1/sep1"),
            LayerNode("s1_bn", BatchNorm(), ("s1",), "f/m1/sep1_bn"),
            LayerNode("p", MaxPool(3, 2), ("in",), "f/m1/pool"),
            LayerNode("a1", Add(), ("s1_bn", "p"), "f/m1/add"),
            LayerNode("gap", GlobalAvgPool(), ("a1",)),
            LayerNode("head", Dense(4), ("gap",)),
        )
        out, report = strategy2_insert_fire(graph, {"f/m1": FireModuleSpec(4, 8, 16)})
        before, after = ({n.id: n for n in g.nodes} for g in (graph, out))
        assert after["p"] == before["p"]
        assert after["a1"].inputs == ("f_m1_fire_expand3_act", "p")
        assert after["f_m1_fire_expand3"].kind.stride == 2
        assert not any(n.tag == "f/m1/residual" for n in out.nodes)
        assert [c.node_id for c in report.nodes_changed] == ["s1", "f_m1_fire_expand1", "f_m1_fire_expand3"]

    @pytest.mark.parametrize("e3x3, inputs", [
        (16, ("in", "f_m1_fire_expand3_act")),  # the identity skip is kept
        (32, ("f_m1_res_bn", "f_m1_fire_expand3_act")),  # a projection takes its place
    ])
    def test_add_keeps_its_input_order(self, e3x3, inputs):
        graph = _graph(
            LayerNode("in", Input()),
            LayerNode("s1", SeparableConv2D(16, 3), ("in",), "f/m1/sep1"),
            LayerNode("a1", Add(), ("in", "s1"), "f/m1/add"),
            LayerNode("gap", GlobalAvgPool(), ("a1",)),
            LayerNode("head", Dense(4), ("gap",)),
        )
        out, _ = strategy2_insert_fire(graph, {"f/m1": FireModuleSpec(4, 8, e3x3)})
        assert {n.id: n for n in out.nodes}["a1"].inputs == inputs

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_off_stack_nodes_are_kept_as_wired(self, seed):
        # Each rewrite raises, or keeps every module node off the main stack
        # with its id, tag and kind (the projection at expand3's width) and
        # its inputs mapped: a stack node to the fire's tail, the module input
        # to what the fire reads or, in an Add, to an inserted projection.
        rng = random.Random(seed)
        graph = with_off_stack_nodes(random_fire_graph(rng), rng)
        specs = {}
        for module in group_modules(graph.nodes):
            if rng.random() < 0.7:
                s = rng.randint(1, 20)
                specs[module] = FireModuleSpec(s, rng.randint(s, 40), rng.randint(1, 40))
        try:
            out, _ = strategy2_insert_fire(graph, specs)
        except CndkitError:
            return
        result = {n.id: n for n in out.nodes}
        graph_ids = {n.id for n in graph.nodes}
        stacks = {module: oracle_main_stack(graph, module) for module in specs}
        fire_tail = {i: out_id for module, stack in stacks.items()
                     for out_id in [n.id for n in out.nodes if n.tag == f"{module}/expand3_act"]
                     for i in stack}
        for module, stack in stacks.items():
            assert not stack & result.keys()
            members = [n for _, n in group_modules(graph.nodes)[module]]
            ids = {n.id for n in members}
            (module_input,) = {src for n in members for src in n.inputs if src not in ids}
            source = next(n for n in out.nodes if n.tag == f"{module}/squeeze").inputs[0]
            assert source == fire_tail.get(module_input, module_input)
            for node in members:
                if node.id in stack:
                    continue
                kept = result[node.id]
                kind = node.kind
                if is_conv(kind):
                    kind = dataclasses.replace(kind, filters=specs[module].e3x3)
                assert (kept.kind, kept.tag) == (kind, node.tag)
                for old, new in zip(node.inputs, kept.inputs, strict=True):
                    if new != fire_tail.get(old, old):
                        projection = result[result[new].inputs[0]]
                        assert (type(node.kind), old, new in graph_ids) == (Add, module_input, False)
                        assert projection.kind == Conv2D(specs[module].e3x3, 1)
                        assert projection.inputs == (source,)

    @pytest.mark.parametrize("stack, message", [
        # two stride-2 convs: a quarter of the input's height and width
        ((LayerNode("s1", SeparableConv2D(16, 3, stride=2), ("in",), "f/m1/sep1"),
          LayerNode("s2", SeparableConv2D(16, 3, stride=2), ("s1",), "f/m1/sep2")),
         "module 'f/m1': no expand3 stride maps its input's 8x8 to its main stack's 2x2"),
        # one valid-padding 3x3 conv: two rows and columns fewer
        ((LayerNode("s1", SeparableConv2D(16, 3, padding="valid"), ("in",), "f/m1/sep1"),),
         "module 'f/m1': no expand3 stride maps its input's 8x8 to its main stack's 6x6"),
    ], ids=["quartered", "valid-padding"])
    def test_stack_size_no_stride_keeps_is_a_structure_error(self, stack, message):
        tail = stack[-1].id
        graph = _graph(LayerNode("in", Input()), *stack, LayerNode("gap", GlobalAvgPool(), (tail,)),
                       LayerNode("head", Dense(4), ("gap",)))
        with pytest.raises(ModuleStructureError) as exc:
            strategy2_insert_fire(graph, {"f/m1": FireModuleSpec(4, 8, 16)})
        assert str(exc.value) == message

    def test_xception_stem_is_a_structure_error(self, xception):
        # The stem's two valid-padding convs take 299x299 to 147x147.
        with pytest.raises(ModuleStructureError) as exc:
            strategy2_insert_fire(xception, {"entry_flow/m1": FireModuleSpec(16, 32, 64)})
        assert str(exc.value) == (
            "module 'entry_flow/m1': no expand3 stride maps its input's 299x299 to its main stack's 147x147"
        )

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_rewritten_module_keeps_its_map_size(self, seed):
        # Stacks of random strides and paddings: each fire tail has the
        # replaced stack output's height and width, at expand3's width, and
        # every kept node keeps its own; or no stride maps some module's
        # input to its stack output, and the pass names the first such module.
        rng = random.Random(seed)
        graph = with_random_stack_windows(random_fire_graph(rng), rng)
        specs = {}
        for module in group_modules(graph.nodes):
            if rng.random() < 0.7:
                s = rng.randint(1, 20)
                specs[module] = FireModuleSpec(s, rng.randint(s, 40), rng.randint(1, 40))
        shapes = oracle_shapes(graph)
        sizes = {}  # module -> (input height and width, stack output height and width)
        for module in specs:
            members = [n for _, n in group_modules(graph.nodes)[module]]
            ids = {n.id for n in members}
            (module_input,) = {src for n in members for src in n.inputs if src not in ids}
            stack = oracle_main_stack(graph, module)
            (stack_out,) = stack - {src for n in members if n.id in stack for src in n.inputs}
            sizes[module] = shapes[module_input][:2], shapes[stack_out][:2]
        unfit = [module for module, ((h, w), size) in sizes.items()
                 if all((_enum_dim(h, 3, s, "same"), _enum_dim(w, 3, s, "same")) != size for s in (1, 2))]
        try:
            out, _ = strategy2_insert_fire(graph, specs)
        except ModuleStructureError as exc:
            assert unfit
            (h, w), (h2, w2) = sizes[unfit[0]]
            assert str(exc) == (f"module '{unfit[0]}': no expand3 stride maps its input's "
                                f"{h}x{w} to its main stack's {h2}x{w2}")
            return
        assert not unfit
        shapes_out = oracle_shapes(out)
        for module, (_, size) in sizes.items():
            (tail,) = [n.id for n in out.nodes if n.tag == f"{module}/expand3_act"]
            assert shapes_out[tail] == (*size, specs[module].e3x3)
        assert all(shapes_out[i][:2] == shapes[i][:2] for i in shapes_out if i in shapes)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_result_keeps_its_oracle_shapes(self, seed):
        # Both passes' results keep their nodes' output shapes, in stored
        # order, as the index-range oracle infers them over the result.
        rng = random.Random(seed)
        graph = with_off_stack_nodes(random_fire_graph(rng), rng)
        if rng.random() < 0.5:
            graph = with_random_stack_windows(graph, rng)
        specs = {}
        for module in group_modules(graph.nodes):
            if rng.random() < 0.7:
                s = rng.randint(1, 20)
                specs[module] = FireModuleSpec(s, rng.randint(s, 40), rng.randint(1, 40))
        s1, _ = strategy1_replace_kernels(graph)
        try:
            s2, _ = strategy2_insert_fire(s1, specs)
        except (ModuleStructureError, ResidualShapeBrokenError):
            s2 = s1
        for out in (s1, s2):
            dims = [(s.height, s.width, s.channels) for s in out._shapes]
            assert dict(zip([n.id for n in out.nodes], dims)) == oracle_shapes(out)

    def test_optimized_build_keeps_its_oracle_shapes(self):
        built = build_optimized_xception()
        dims = [(s.height, s.width, s.channels) for s in built._shapes]
        assert dict(zip([n.id for n in built.nodes], dims)) == oracle_shapes(built)

    def test_one_shape_inference_per_call(self, xception, inference_calls):
        # of the input graph; the result's table is patched from the input's
        strategy2_insert_fire(xception, default_specs())
        assert inference_calls == [xception.name]

    def test_optimized_build_infers_shapes_three_times(self, inference_calls, shape_passes):
        # build_xception's validate, strategy1 and strategy2's one; only the
        # first runs the shape loop, as each pass's result keeps its shapes
        build_optimized_xception()
        assert len(inference_calls) == 3
        assert shape_passes == ["xception"]

    @pytest.mark.parametrize("seed", range(5))
    def test_deep_graphs_sequence_makes_one_shape_pass(self, seed, monkeypatch):
        # The benchmark's deep_graphs operation on a random fire graph: the
        # load infers the shapes, and the analyses, both passes and the save
        # read the shapes each graph keeps.
        rng = random.Random(seed)
        graph = random_fire_graph(rng)
        specs = {module: FireModuleSpec(4, 8, 16) for module in group_modules(graph.nodes)}
        text = serialize(graph)
        passes = []
        real = cndkit.graph.shapes_in_order
        monkeypatch.setattr(cndkit.graph, "shapes_in_order",
                            lambda g: passes.append(g.name) or real(g))
        counts = []

        def counted(call, *args):
            before = len(passes)
            out = call(*args)
            counts.append(len(passes) - before)
            return out

        loaded = counted(deserialize, text)
        counted(count_params, loaded)
        counted(memory_estimate, loaded)
        after_s1, _ = counted(strategy1_replace_kernels, loaded)
        after_s2, _ = counted(strategy2_insert_fire, after_s1, specs)
        counted(serialize, after_s2)
        assert counts == [1, 0, 0, 0, 0, 0]
        assert len(passes) == 1

    def test_untouched_nodes_kept(self, xception):
        out, _ = strategy2_insert_fire(xception, {"middle_flow/m5": FireModuleSpec(414, 600, 728)})
        before, after = ({n.id: n for n in g.nodes} for g in (xception, out))
        assert after["exit_m14_sep2"] is before["exit_m14_sep2"]

    def test_preserves_macro_structure(self, xception):
        out, _ = strategy2_insert_fire(xception, default_specs())
        assert out.num_classes == xception.num_classes
        assert out.input_shape == xception.input_shape
        adds = lambda g: sum(1 for n in g.nodes if isinstance(n.kind, Add))
        assert adds(out) == adds(xception)
        downs = lambda g: sum(
            1 for n in g.nodes
            if isinstance(n.kind, MaxPool) or (is_conv(n.kind) and n.kind.stride == 2)
        )
        assert downs(out) == downs(xception)


def _strategy2_table(graph, specs):
    """strategy2's report (None when it raised) and, when its walk built a
    table for its result, ``(result, table, row_of)``: ``result`` holds the
    nodes the walk passed to ``check_append``, ``table`` is the rows it
    summed for ``params_after`` or the shape error its walk raised, and
    ``row_of`` the input's rows by id, as summed for ``params_before``."""
    emitted, summed = [], []
    real_append, real_total = transforms.check_append, cndkit.analyzer.total_params

    def append(ids, node):
        emitted.append(node)
        real_append(ids, node)

    def total(rows):
        summed.append(rows)
        return real_total(rows)

    table = None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transforms, "check_append", append)
        patch.setattr(cndkit.analyzer, "total_params", total)
        try:
            out, report = strategy2_insert_fire(graph, specs)
        except ResidualShapeBrokenError as exc:
            report, table = None, exc.__cause__
            assert isinstance(table, ShapeMismatchError)
        except CndkitError:
            report = None
    assert len(summed) <= 2
    if len(summed) == 2:
        table = summed[1]
    if table is None:
        return report, None
    result = dataclasses.replace(graph, nodes=tuple(emitted))
    if report is not None:
        assert out == result
    return report, (result, table, {row.node.id: row for row in summed[0]})


def _random_specs(graph, rng):
    specs = {}
    for module in group_modules(graph.nodes):
        if rng.random() < 0.7:
            s = rng.randint(1, 20)
            specs[module] = FireModuleSpec(s, rng.randint(s, 40), rng.randint(1, 40))
    return specs


class TestStrategy2Table:
    """The result table strategy2 patches from its input's rows is the one
    ``analyze`` gives for its result, and its total is ``params_after``."""

    def _check(self, graph, specs):
        # The patched table equals analyze's, or both raise the same shape
        # error; with no table, the pass stopped before its rewrite.
        report, seen = _strategy2_table(graph, specs)
        if seen is None:
            return
        out, table, _ = seen
        try:
            expected = analyze(out)
        except ShapeMismatchError as exc:
            assert (type(table), str(table)) == (type(exc), str(exc))
            return
        assert table == expected
        if report is not None:  # else the result's endpoint checks failed
            assert report.params_after == count_params(out).total

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_equals_analyze_on_random_stack_windows(self, seed):
        rng = random.Random(seed)
        graph = with_random_stack_windows(random_fire_graph(rng), rng)
        self._check(graph, _random_specs(graph, rng))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_equals_analyze_on_off_stack_nodes(self, seed):
        rng = random.Random(seed)
        graph = with_off_stack_nodes(random_fire_graph(rng), rng)
        self._check(graph, _random_specs(graph, rng))

    @pytest.mark.parametrize("model", ["xception", "optimized", "mobilenet"])
    def test_equals_analyze_on_zoo_models(self, model, request):
        graph = request.getfixturevalue(model)
        if model == "mobilenet":  # every module whose rewrite keeps the Adds' shapes
            specs = {f"blocks/m{i}": FireModuleSpec(8, 16, 32) for i in (2, 4, 5, 6, 7, 11, 14, 17, 18)}
            specs["stem/m1"] = FireModuleSpec(8, 16, 32)
        else:
            specs = {tag: FireModuleSpec(s.s1x1 // 2, s.e1x1 // 2, s.e3x3)
                     for tag, s in default_specs().items()}
        report, (out, table, _) = _strategy2_table(graph, specs)
        assert report.nodes_changed
        assert table == analyze(out)
        assert report.params_after == count_params(out).total

    @staticmethod
    def _recomputed(table, row_of):
        return [row.node.id for row in table if row_of.get(row.node.id) is not row]

    def test_untagged_chain_between_rewritten_modules(self):
        # m1's new width (48) reaches m2 through an untagged BatchNorm and
        # relu, whose rows must follow it.
        graph = _graph(
            LayerNode("in", Input()),
            LayerNode("s1", SeparableConv2D(16, 3), ("in",), "f/m1/sep1"),
            LayerNode("a1", Add(), ("s1", "in"), "f/m1/add"),
            LayerNode("bn", BatchNorm(), ("a1",)),
            LayerNode("relu", Activation("relu"), ("bn",)),
            LayerNode("s2", SeparableConv2D(16, 3), ("relu",), "f/m2/sep1"),
            LayerNode("a2", Add(), ("s2", "relu"), "f/m2/add"),
            LayerNode("gap", GlobalAvgPool(), ("a2",)),
            LayerNode("head", Dense(4), ("gap",)),
        )
        specs = {"f/m1": FireModuleSpec(4, 8, 48), "f/m2": FireModuleSpec(4, 8, 16)}
        report, (out, table, row_of) = _strategy2_table(graph, specs)
        assert table == analyze(out)
        rows = {row.node.id: row for row in table}
        assert rows["bn"].params.total == 4 * 48
        assert rows["relu"].shape_out == TensorShape(8, 8, 48)
        assert {"bn", "relu"} <= set(self._recomputed(table, row_of))
        assert report.params_after == count_params(out).total

    def test_dense_head_after_width_change(self):
        graph = _graph(
            LayerNode("in", Input()),
            LayerNode("s1", SeparableConv2D(16, 3), ("in",), "f/m1/sep1"),
            LayerNode("a1", Add(), ("s1", "in"), "f/m1/add"),
            LayerNode("gap", GlobalAvgPool(), ("a1",)),
            LayerNode("head", Dense(4), ("gap",)),
        )
        report, (out, table, row_of) = _strategy2_table(graph, {"f/m1": FireModuleSpec(4, 8, 32)})
        assert table == analyze(out)
        assert table[-1].params.total == 32 * 4 + 4
        assert self._recomputed(table, row_of)[-2:] == ["gap", "head"]
        assert report.params_after == count_params(out).total

    def test_equal_width_recomputes_no_downstream_row(self):
        # e3x3 is the stack's old width: only the fire, the projection-free
        # Add that reads it and nothing after them get new rows.
        graph = _graph(
            LayerNode("in", Input()),
            LayerNode("s1", SeparableConv2D(16, 3), ("in",), "f/m1/sep1"),
            LayerNode("s1_bn", BatchNorm(), ("s1",), "f/m1/sep1_bn"),
            LayerNode("a1", Add(), ("s1_bn", "in"), "f/m1/add"),
            LayerNode("relu", Activation("relu"), ("a1",)),
            LayerNode("gap", GlobalAvgPool(), ("relu",)),
            LayerNode("head", Dense(4), ("gap",)),
        )
        report, (out, table, row_of) = _strategy2_table(graph, {"f/m1": FireModuleSpec(4, 8, 16)})
        assert table == analyze(out)
        fire = [n.id for n in out.nodes if n.id not in row_of]
        assert len(fire) == 9
        assert self._recomputed(table, row_of) == fire + ["a1"]
        assert report.params_after == count_params(out).total


class TestPassResults:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_each_pass_returns_a_valid_graph_or_raises(self, seed):
        # A random valid graph with random module tags, and a random fire spec
        # for some of its modules: each pass raises, or its result validates
        # and survives a save and load byte for byte.
        rng = random.Random(seed)
        graph = random_tags(random_graph(rng), rng)
        specs = {module: FireModuleSpec(rng.randint(1, 40), rng.randint(1, 40), rng.randint(1, 40))
                 for module in group_modules(graph.nodes) if rng.random() < 0.7}
        for run in (strategy1_replace_kernels, lambda g: strategy2_insert_fire(g, specs)):
            try:
                out, _ = run(graph)
            except CndkitError:
                continue
            validate(out)
            text = serialize(out)
            assert serialize(deserialize(text)) == text


class TestStrategy3Audit:
    def test_lists_baseline_downsamplers(self, xception):
        audit = strategy3_audit(xception)
        expected = {
            n.id for n in xception.nodes
            if isinstance(n.kind, MaxPool) or (is_conv(n.kind) and n.kind.stride == 2)
        }
        assert {e.node_id for e in audit.entries} == expected
        fractions = [e.depth_fraction for e in audit.entries]
        assert fractions == sorted(fractions)
        assert all(0.0 <= f <= 1.0 for f in fractions)

    def test_all_early_pooling_flag_false(self):
        nodes = [LayerNode("in", Input()), LayerNode("p1", MaxPool(3, 2), ("in",)),
                 LayerNode("p2", MaxPool(3, 2), ("p1",))]
        for i in range(17):
            nodes.append(LayerNode(f"c{i}", Conv2D(8, 1), (nodes[-1].id,)))
        graph = _graph(*nodes, name="early", input_shape=TensorShape(64, 64, 4), num_classes=2)
        audit = strategy3_audit(graph)
        assert audit.early_pool_count == 2
        assert audit.late_downsample_flag is False

    def test_single_final_downsample_flag_true(self):
        nodes = [LayerNode("in", Input())]
        for i in range(10):
            nodes.append(LayerNode(f"c{i}", Conv2D(8, 1), (nodes[-1].id,)))
        nodes.append(LayerNode("down", Conv2D(8, 3, stride=2), (nodes[-1].id,)))
        graph = _graph(*nodes, name="late", input_shape=TensorShape(64, 64, 4), num_classes=2)
        audit = strategy3_audit(graph)
        assert [e.node_id for e in audit.entries] == ["down"]
        assert audit.late_downsample_flag is True

    def test_no_downsampling_flag_false(self):
        graph = _graph(LayerNode("in", Input()), LayerNode("c", Conv2D(8, 1), ("in",)),
                       name="flat", input_shape=TensorShape(8, 8, 4), num_classes=2)
        audit = strategy3_audit(graph)
        assert audit.entries == ()
        assert audit.late_downsample_flag is False


def violations_of(graph):
    """The fire-rule violations of ``graph``: strategy2's report with no specs."""
    return strategy2_insert_fire(graph, {})[1].violations


class TestFireConstraints:
    def test_optimized_zoo_is_clean(self, optimized):
        assert violations_of(optimized) == ()

    def test_violating_triple_reported(self):
        graph = _graph(
            LayerNode("in", Input()),
            LayerNode("s", SeparableConv2D(64, 1), ("in",), "f/m1/squeeze"),
            LayerNode("e1", SeparableConv2D(32, 1), ("s",), "f/m1/expand1"),
            LayerNode("e3", SeparableConv2D(16, 3), ("e1",), "f/m1/expand3"),
            name="bad", input_shape=TensorShape(16, 16, 8), num_classes=2)
        violations = violations_of(graph)
        assert len(violations) == 1
        assert "64" in violations[0] and "48" in violations[0]

    def test_pass_reports_the_violations_of_its_result(self, optimized):
        # m5 is rewritten and so loses its violation; m7 is kept and keeps it.
        def widened(node):
            if node.tag in ("middle_flow/m5/squeeze", "middle_flow/m7/squeeze"):
                return dataclasses.replace(node, kind=dataclasses.replace(node.kind, filters=1400))
            return node

        graph = dataclasses.replace(optimized, nodes=tuple(widened(n) for n in optimized.nodes))
        out, report = strategy2_insert_fire(graph, {"middle_flow/m5": FireModuleSpec(414, 600, 728)})
        assert report.violations == violations_of(out) == (
            "middle_flow/m7: s1x1=1400 must be < e1x1+e3x3=1328 (e1x1=600, e3x3=728)",
        )
        # With no specs the result is the input, violations included.
        out, report = strategy2_insert_fire(graph, {})
        assert out is graph and report.nodes_changed == ()
        assert report.violations == (
            "middle_flow/m5: s1x1=1400 must be < e1x1+e3x3=1328 (e1x1=600, e3x3=728)",
            "middle_flow/m7: s1x1=1400 must be < e1x1+e3x3=1328 (e1x1=600, e3x3=728)",
        )

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_pass_reports_the_violations_of_its_result_on_random_graphs(self, seed):
        # From none to all of the modules are targeted, each with a valid spec.
        rng = random.Random(seed)
        graph = random_fire_graph(rng)
        modules = list(group_modules(graph.nodes))
        specs = {}
        for module in rng.sample(modules, rng.randint(0, len(modules))):
            s1x1 = rng.randint(1, 30)
            specs[module] = FireModuleSpec(s1x1, rng.randint(1, 30), rng.randint(s1x1, 40))
        try:
            out, report = strategy2_insert_fire(graph, specs)
        except CndkitError:
            return
        assert report.violations == violations_of(out)

    def test_spec_widths_are_at_most_max_size(self):
        big = cndkit.graph.MAX_SIZE + 1
        assert FireModuleSpec(1, 1, big - 1).is_valid()
        with pytest.raises(ValidationError,
                           match=f"^FireModuleSpec.e3x3 must be at most {big - 1}, got {big}$"):
            FireModuleSpec(1, 1, big)

    def test_untagged_graph_vacuously_clean(self):
        graph = _graph(LayerNode("in", Input()), LayerNode("c", Conv2D(4, 1), ("in",)),
                       name="plain", input_shape=TensorShape(8, 8, 3), num_classes=2)
        assert violations_of(graph) == ()


class TestDiff:
    def test_baseline_vs_optimized_reduction(self, xception, optimized):
        text = diff(xception, optimized)
        assert "parameter reduction: 25.0%" in text
        assert "entry_flow/m2" in text

    def test_self_diff_is_zero(self, xception):
        text = diff(xception, xception)
        assert "parameter reduction: 0.0%" in text
        assert "+0" in text

    def test_percentage_definition(self):
        assert percentage_reduction(200, 150) == 25.0
        assert percentage_reduction(0, 0) == 0.0

    @staticmethod
    def _params_by_module(text: str) -> tuple[dict[str, int], int]:
        """The ``params A`` column per summary row, and the total's."""
        lines = text.splitlines()
        first, last = [i for i, line in enumerate(lines) if line and set(line) == {"-"}]
        number = lambda cell: int(cell.replace(",", ""))
        rows = {line.split()[0]: number(line.split()[3]) for line in lines[first + 1:last]}
        return rows, number(lines[last + 1].split()[1])

    def test_module_params_add_up_to_the_total_on_the_zoo(self, xception, optimized, mobilenet):
        for graph in (xception, optimized, mobilenet):
            rows, total = self._params_by_module(diff(graph, graph))
            assert sum(rows.values()) == total == count_params(graph).total
            assert list(rows) == list(group_modules(graph.nodes)) + ["(untagged)"] * ("(untagged)" in rows)

    def test_module_params_match_an_oracle_on_random_tagged_graphs(self):
        rng = random.Random(16)
        for i in range(40):
            graph = random_tags(random_graph(rng, name=f"tagged{i}"), rng)
            per_node, total = oracle_params(graph)
            expected: dict[str, int] = {}
            for node in graph.nodes:
                module = oracle_split_tag(node.tag)[0] or "(untagged)"
                expected[module] = expected.get(module, 0) + per_node[node.id]
            if expected.get("(untagged)") == 0:  # diff leaves out a zero row
                del expected["(untagged)"]
            rows, shown_total = self._params_by_module(diff(graph, graph))
            assert rows == expected
            assert sum(rows.values()) == shown_total == total


class TestStructuralEquality:
    def test_id_renaming_is_ignored(self):
        a = _single_module_graph()
        b = ModelGraph(
            name="renamed",
            input_shape=a.input_shape,
            num_classes=a.num_classes,
            nodes=tuple(
                LayerNode(
                    id=f"x_{n.id}",
                    kind=n.kind,
                    inputs=tuple(f"x_{i}" for i in n.inputs),
                    tag=n.tag,
                )
                for n in a.nodes
            ),
        )
        assert structurally_equal(a, b)

    def test_kind_change_detected(self, xception):
        out, _ = strategy1_replace_kernels(xception)
        assert not structurally_equal(out, xception)

    @staticmethod
    def _twins(prefix="", tag="flow/m1/act", fn="relu"):
        """in -> relu (tagged) -> relu (untagged) -> gap -> dense: twin kinds."""
        return _graph(
            LayerNode(f"{prefix}in", Input()),
            LayerNode(f"{prefix}a", Activation(fn), (f"{prefix}in",), tag),
            LayerNode(f"{prefix}b", Activation("relu"), (f"{prefix}a",)),
            LayerNode(f"{prefix}gap", GlobalAvgPool(), (f"{prefix}b",)),
            LayerNode(f"{prefix}fc", Dense(2), (f"{prefix}gap",)),
            name="twins", input_shape=TensorShape(8, 8, 4), num_classes=2)

    def test_tagged_and_untagged_twins(self):
        twins = self._twins()
        assert structurally_equal(twins, twins)
        assert structurally_equal(twins, self._twins(prefix="x_"))
        assert not structurally_equal(twins, self._twins(tag="flow/m1/other"))
        assert not structurally_equal(twins, self._twins(fn="sigmoid"))

    @staticmethod
    def _diamond(order):
        """in -> relu a, in -> sigmoid b, Add(a, b) -> gap -> dense; in, a, b stored in ``order``."""
        head = {
            "in": LayerNode("in", Input()),
            "a": LayerNode("a", Activation("relu"), ("in",)),
            "b": LayerNode("b", Activation("sigmoid"), ("in",)),
        }
        tail = (
            LayerNode("sum", Add(), ("a", "b")),
            LayerNode("gap", GlobalAvgPool(), ("sum",)),
            LayerNode("fc", Dense(2), ("gap",)),
        )
        return ModelGraph(
            name="diamond", input_shape=TensorShape(8, 8, 4), num_classes=2,
            nodes=tuple(head[i] for i in order) + tail,
        )

    def test_stored_order_is_ignored(self):
        assert structurally_equal(self._diamond(("in", "a", "b")), self._diamond(("in", "b", "a")))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_stored_order_is_ignored(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng)
        assert structurally_equal(graph, random_topological_order(graph, rng))
