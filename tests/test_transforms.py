import dataclasses
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cndkit.graph
from cndkit.analyzer import count_params
from cndkit.errors import (
    CndkitError,
    InvalidFireSpecError,
    ModuleStructureError,
    ResidualShapeBrokenError,
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
    add_layer,
    infer_shapes,
    is_conv,
    module_groups,
    module_of,
    validate,
)
from cndkit.serialize import deserialize, serialize
from cndkit.transforms import (
    diff,
    percentage_reduction,
    strategy1_replace_kernels,
    strategy2_insert_fire,
    strategy3_audit,
    structurally_equal,
    validate_fire_constraints,
)
from cndkit.zoo import DEFAULT_OPTIMIZED_CONFIG, FireModuleSpec, build_optimized_xception
from graphgen import (
    oracle_params,
    oracle_split_tag,
    random_fire_graph,
    random_graph,
    random_tags,
    random_topological_order,
)


def _graph(*nodes):
    """``nodes`` added in order to an empty graph on 8x8x16 with 4 classes."""
    graph = ModelGraph(name="g", input_shape=TensorShape(8, 8, 16), num_classes=4)
    for node in nodes:
        graph = add_layer(graph, node)
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
    graph = ModelGraph(name="module", input_shape=TensorShape(16, 16, channels), num_classes=2)
    graph = add_layer(graph, LayerNode("in", Input()))
    tip = "in"
    for i, kernel in enumerate(kernels, start=1):
        conv = f"sep{i}"
        graph = add_layer(
            graph,
            LayerNode(conv, SeparableConv2D(filters, kernel), (tip,), f"flow/m1/sep{i}"),
        )
        graph = add_layer(graph, LayerNode(f"{conv}_bn", BatchNorm(), (conv,), f"flow/m1/sep{i}_bn"))
        tip = f"{conv}_bn"
    if with_residual:
        graph = add_layer(graph, LayerNode("res", Conv2D(filters, 1), ("in",), "flow/m1/residual"))
        graph = add_layer(graph, LayerNode("sum", Add(), (tip, "res"), "flow/m1/add"))
    return graph


class TestStrategy1:
    def test_rewrites_first_sep_of_module(self):
        # num_classes is the 128-wide end's: the pass checks its result like validate
        graph = dataclasses.replace(_single_module_graph(), num_classes=128)
        out, report = strategy1_replace_kernels(graph)
        assert [c.node_id for c in report.nodes_changed] == ["sep1"]
        assert out.node("sep1").kind.kernel == 1
        assert out.node("sep2").kind.kernel == 3
        assert out.node("sep1").kind.filters == 128

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
        for change in report.nodes_changed:
            channels = shapes[graph.node(change.node_id).inputs[0]].channels
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

    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_params_after_counts_the_result(self, padding):
        # Under valid padding the 1x1 kernel widens the map the Dense flattens.
        graph = ModelGraph(name="flat", input_shape=TensorShape(8, 8, 4), num_classes=2)
        graph = add_layer(graph, LayerNode("in", Input()))
        graph = add_layer(graph, LayerNode(
            "sep1", SeparableConv2D(8, 3, padding=padding), ("in",), "flow/m1/sep1"))
        graph = add_layer(graph, LayerNode("head", Dense(2), ("sep1",)))
        out, report = strategy1_replace_kernels(graph)
        assert report.params_after == count_params(out).total

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
        nodes = tuple(
            dataclasses.replace(n, tag=n.tag.replace("exit_flow/m14", long_module))
            if module_of(n.tag) == "exit_flow/m14" else n
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
        graph = ModelGraph(name="mid", input_shape=TensorShape(16, 16, 64), num_classes=64)
        graph = add_layer(graph, LayerNode("in", Input()))
        graph = add_layer(graph, LayerNode("sep1", SeparableConv2D(64, 3), ("in",), "flow/m1/sep1"))
        graph = add_layer(graph, LayerNode("sum", Add(), ("sep1", "in"), "flow/m1/add"))
        out, _ = strategy2_insert_fire(graph, {"flow/m1": FireModuleSpec(16, 32, 64)})
        add_node = out.node("sum")
        assert "in" in add_node.inputs  # residual is still the module input itself

    def test_projection_inserted_when_width_changes(self):
        # num_classes is the width of the rewritten end (expand3's 48)
        graph = ModelGraph(name="mid", input_shape=TensorShape(16, 16, 64), num_classes=48)
        graph = add_layer(graph, LayerNode("in", Input()))
        graph = add_layer(graph, LayerNode("sep1", SeparableConv2D(64, 3), ("in",), "flow/m1/sep1"))
        graph = add_layer(graph, LayerNode("sum", Add(), ("sep1", "in"), "flow/m1/add"))
        out, _ = strategy2_insert_fire(graph, {"flow/m1": FireModuleSpec(16, 32, 48)})
        projs = [n for n in out.nodes if is_conv(n.kind) and n.tag == "flow/m1/residual"]
        assert len(projs) == 1 and projs[0].kind.filters == 48
        infer_shapes(out)  # wiring stays consistent

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
        graph = ModelGraph(name="two", input_shape=TensorShape(16, 16, 64), num_classes=64)
        for node in (
            LayerNode("in", Input()),
            LayerNode("s1", SeparableConv2D(64, 3), ("in",), "flow/m1/sep1"),
            LayerNode("a1", Add(), ("s1", "in"), "flow/m1/add"),
            LayerNode("relu", Activation("relu"), ("a1",)),
            LayerNode("s2", SeparableConv2D(64, 3), ("relu",), "flow/m2/sep1"),
            LayerNode("a2", Add(), ("s2", "relu"), "flow/m2/add"),
        ):
            graph = add_layer(graph, node)
        specs = {"flow/m1": FireModuleSpec(16, 32, 48), "flow/m2": FireModuleSpec(16, 32, 64)}
        out, report = strategy2_insert_fire(graph, specs)
        projs = {n.tag: n.kind.filters for n in out.nodes if n.tag and n.tag.endswith("/residual")}
        assert projs == {"flow/m1/residual": 48, "flow/m2/residual": 64}
        assert infer_shapes(out)["a2"] == TensorShape(16, 16, 64)
        assert count_params(out).total == report.params_after

    def test_broken_residual_outside_module(self):
        # The Add joining m1's output to its input is untagged, so the pass
        # leaves it alone and its inputs end up 48 vs 64 channels wide.
        graph = ModelGraph(name="outside", input_shape=TensorShape(16, 16, 64), num_classes=2)
        for node in (
            LayerNode("in", Input()),
            LayerNode("s1", SeparableConv2D(64, 3), ("in",), "flow/m1/sep1"),
            LayerNode("sum", Add(), ("s1", "in")),
        ):
            graph = add_layer(graph, node)
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
        graph = ModelGraph(name="ends", input_shape=TensorShape(16, 16, 64), num_classes=num_classes)
        for node in (
            LayerNode("in", Input()),
            LayerNode("s1", SeparableConv2D(64, 3), ("in",), "flow/m1/sep1"),
            last,
        ):
            graph = add_layer(graph, node)
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

    def test_two_shape_inferences_per_call(self, xception, inference_calls):
        # one of the input graph, one of the result
        strategy2_insert_fire(xception, default_specs())
        assert inference_calls == [xception.name, xception.name]

    def test_optimized_build_infers_shapes_four_times(self, inference_calls):
        # build_xception's validate, strategy1 and strategy2's two
        build_optimized_xception()
        assert len(inference_calls) == 4

    def test_untouched_nodes_kept(self, xception):
        out, _ = strategy2_insert_fire(xception, {"middle_flow/m5": FireModuleSpec(414, 600, 728)})
        assert out.node("exit_m14_sep2") is xception.node("exit_m14_sep2")

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
                 for module in module_groups(graph) if rng.random() < 0.7}
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
        graph = ModelGraph(name="early", input_shape=TensorShape(64, 64, 4), num_classes=2)
        graph = add_layer(graph, LayerNode("in", Input()))
        graph = add_layer(graph, LayerNode("p1", MaxPool(3, 2), ("in",)))
        graph = add_layer(graph, LayerNode("p2", MaxPool(3, 2), ("p1",)))
        tip = "p2"
        for i in range(17):
            graph = add_layer(graph, LayerNode(f"c{i}", Conv2D(8, 1), (tip,)))
            tip = f"c{i}"
        audit = strategy3_audit(graph)
        assert audit.early_pool_count == 2
        assert audit.late_downsample_flag is False

    def test_single_final_downsample_flag_true(self):
        graph = ModelGraph(name="late", input_shape=TensorShape(64, 64, 4), num_classes=2)
        graph = add_layer(graph, LayerNode("in", Input()))
        tip = "in"
        for i in range(10):
            graph = add_layer(graph, LayerNode(f"c{i}", Conv2D(8, 1), (tip,)))
            tip = f"c{i}"
        graph = add_layer(graph, LayerNode("down", Conv2D(8, 3, stride=2), (tip,)))
        audit = strategy3_audit(graph)
        assert [e.node_id for e in audit.entries] == ["down"]
        assert audit.late_downsample_flag is True

    def test_no_downsampling_flag_false(self):
        graph = ModelGraph(name="flat", input_shape=TensorShape(8, 8, 4), num_classes=2)
        graph = add_layer(graph, LayerNode("in", Input()))
        graph = add_layer(graph, LayerNode("c", Conv2D(8, 1), ("in",)))
        audit = strategy3_audit(graph)
        assert audit.entries == ()
        assert audit.late_downsample_flag is False


class TestFireConstraints:
    def test_optimized_zoo_is_clean(self, optimized):
        assert validate_fire_constraints(optimized) == []

    def test_violating_triple_reported(self):
        graph = ModelGraph(name="bad", input_shape=TensorShape(16, 16, 8), num_classes=2)
        graph = add_layer(graph, LayerNode("in", Input()))
        graph = add_layer(graph, LayerNode("s", SeparableConv2D(64, 1), ("in",), "f/m1/squeeze"))
        graph = add_layer(graph, LayerNode("e1", SeparableConv2D(32, 1), ("s",), "f/m1/expand1"))
        graph = add_layer(graph, LayerNode("e3", SeparableConv2D(16, 3), ("e1",), "f/m1/expand3"))
        violations = validate_fire_constraints(graph)
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
        assert report.violations == tuple(validate_fire_constraints(out)) == (
            "middle_flow/m7: s1x1=1400 must be < e1x1+e3x3=1328 (e1x1=600, e3x3=728)",
        )

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_pass_reports_the_violations_of_its_result_on_random_graphs(self, seed):
        # With no specs the pass returns its input with an empty report, so
        # at least one module is targeted, each with a valid spec.
        rng = random.Random(seed)
        graph = random_fire_graph(rng)
        modules = list(module_groups(graph))
        if not modules:
            return
        specs = {}
        for module in rng.sample(modules, rng.randint(1, len(modules))):
            s1x1 = rng.randint(1, 30)
            specs[module] = FireModuleSpec(s1x1, rng.randint(1, 30), rng.randint(s1x1, 40))
        try:
            out, report = strategy2_insert_fire(graph, specs)
        except CndkitError:
            return
        assert report.violations == tuple(validate_fire_constraints(out))

    def test_spec_widths_are_at_most_max_size(self):
        big = cndkit.graph.MAX_SIZE + 1
        assert FireModuleSpec(1, 1, big - 1).is_valid()
        with pytest.raises(ValidationError,
                           match=f"^FireModuleSpec.e3x3 must be at most {big - 1}, got {big}$"):
            FireModuleSpec(1, 1, big)

    def test_untagged_graph_vacuously_clean(self):
        graph = ModelGraph(name="plain", input_shape=TensorShape(8, 8, 3), num_classes=2)
        graph = add_layer(graph, LayerNode("in", Input()))
        graph = add_layer(graph, LayerNode("c", Conv2D(4, 1), ("in",)))
        assert validate_fire_constraints(graph) == []


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
            assert list(rows) == list(module_groups(graph)) + ["(untagged)"] * ("(untagged)" in rows)

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
        graph = ModelGraph(name="twins", input_shape=TensorShape(8, 8, 4), num_classes=2)
        for node in (
            LayerNode(f"{prefix}in", Input()),
            LayerNode(f"{prefix}a", Activation(fn), (f"{prefix}in",), tag),
            LayerNode(f"{prefix}b", Activation("relu"), (f"{prefix}a",)),
            LayerNode(f"{prefix}gap", GlobalAvgPool(), (f"{prefix}b",)),
            LayerNode(f"{prefix}fc", Dense(2), (f"{prefix}gap",)),
        ):
            graph = add_layer(graph, node)
        return graph

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
