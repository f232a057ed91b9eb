import hashlib
import json

import pytest

from cndkit.analyzer import count_params, flops_estimate, round_params_millions
from cndkit.errors import InvalidFireSpecError, ValidationError
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
    group_modules,
    infer_shapes,
    is_conv,
    topo_sort,
)
from cndkit.serialize import save_model, serialize
from cndkit.transforms import (
    conv_unit, diff, make_fire_module, strategy1_replace_kernels, strategy2_insert_fire,
)
from cndkit.zoo import (
    DEFAULT_OPTIMIZED_CONFIG,
    FireModuleSpec,
    OptimizedConfig,
    build_mobilenet_v2,
    build_optimized_xception,
    build_xception,
)
from conftest import run_cli

XCEPTION_TOTAL = 21_068_429
OPTIMIZED_TOTAL = 15_798_273
MOBILENET_TOTAL = 2_358_821


def _module_conv_nodes(graph):
    return [
        n for members in group_modules(graph.nodes).values() for role, n in members
        if is_conv(n.kind) and role != "residual"
    ]


@pytest.mark.parametrize("build, size, digest", [
    (build_xception, 30_691, "9c5ce2d698257659b5685ea1efd89ce0fdb95c93684a82beafa86cf3e25308a8"),
    (build_optimized_xception, 35_593,
     "814e405daae6950e512e0867cb215e719c4da0fab27a3a0a83d8cf3252cf30ff"),
    (build_mobilenet_v2, 22_978, "8c141c07815c14413711633641f3f03301413c01aa378b8bd536ace6a482b3c4"),
])
def test_model_json_is_byte_stable(build, size, digest):
    data = serialize(build()).encode("utf-8")
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_diff_text_is_byte_stable(xception, optimized):
    assert _sha256(diff(xception, optimized)) == "5d10baf401e5eb24078c9355652197b30aa26b08a266a71559bb7a26ef4c20df"


def test_transform_report_is_byte_stable(xception, tmp_path):
    cfg = DEFAULT_OPTIMIZED_CONFIG
    specs = {f"entry_flow/m{i + 2}": s for i, s in enumerate(cfg.entry_fire)}
    specs.update({f"middle_flow/m{i + 5}": s for i, s in enumerate(cfg.middle_fire)})
    (tmp_path / "specs.json").write_text(json.dumps(
        {tag: {"s1x1": s.s1x1, "e1x1": s.e1x1, "e3x3": s.e3x3} for tag, s in specs.items()}))
    save_model(xception, tmp_path / "x.json")
    result = run_cli([
        "transform", "--in", str(tmp_path / "x.json"), "--pass", "all",
        "--specs", str(tmp_path / "specs.json"), "--out", str(tmp_path / "t.json"),
        "--report", str(tmp_path / "r.json")])
    assert result.exit_code == 0, result.output
    assert _sha256((tmp_path / "r.json").read_text(encoding="utf-8")) == "8fce698c35027345294eb792d7bbb6b96eebb6b7fd52fa7bedb05ba44fd3299a"


def test_diff_with_untagged_and_flat_tags_is_byte_stable():
    # "stem/conv" has two parts, so it belongs to no module: its params, the
    # untagged nodes' and the flat-tagged head's go to the (untagged) row.
    graph = ModelGraph("small", TensorShape(8, 8, 3), 4, (
        LayerNode("in", Input()),
        LayerNode("stem", Conv2D(8, 3), ("in",), "stem/conv"),
        LayerNode("stem_bn", BatchNorm(), ("stem",)),
        LayerNode("s1", SeparableConv2D(8, 3), ("stem_bn",), "body/m1/sep1"),
        LayerNode("s1_bn", BatchNorm(), ("s1",), "body/m1/sep1_bn"),
        LayerNode("s2", SeparableConv2D(16, 3), ("s1_bn",), "body/m1/sep2"),
        LayerNode("res", Conv2D(16, 1), ("stem_bn",), "body/m1/residual"),
        LayerNode("sum", Add(), ("s2", "res"), "body/m1/add"),
        LayerNode("gap", GlobalAvgPool(), ("sum",)),
        LayerNode("fc", Dense(4), ("gap",), "head"),
    ))
    text = diff(graph, strategy1_replace_kernels(graph)[0])
    assert "(untagged)" in text
    assert _sha256(text) == "26229a12922f5a499f2948183a564cd3a29bc1d92798adee8d1fa9a8b104b26b"


class TestXception:
    def test_total_params(self, xception):
        report = count_params(xception)
        assert report.total == XCEPTION_TOTAL
        assert round_params_millions(report.total) == 21.1

    def test_macro_structure(self, xception):
        assert len(_module_conv_nodes(xception)) == 36
        assert len(group_modules(xception.nodes)) == 14
        assert sum(1 for n in xception.nodes if isinstance(n.kind, Add)) == 12

    def test_head_units(self):
        graph = build_xception(TensorShape(299, 299, 3), 2)
        dense = next(n for n in graph.nodes if isinstance(n.kind, Dense))
        assert dense.kind.units == 2

    def test_rejects_single_class(self):
        with pytest.raises(ValidationError):
            build_xception(TensorShape(299, 299, 3), 1)

    def test_rejects_a_class_count_that_is_not_an_int(self):
        with pytest.raises(ValidationError, match="^num_classes must be an int, got 'a'$"):
            build_xception(num_classes="a")

    @pytest.mark.parametrize("exit_filters, message", [
        ((728, 1024, 1536), "exit_filters needs 4 counts, got 3"),
        (None, "exit_filters must be a tuple or list, got None"),
        ("7281", "exit_filters must be a tuple or list, got '7281'"),
        ((728, 1024, "1536", 2048), "exit_filters[2] must be an int, got '1536'"),
    ])
    def test_rejects_exit_filters_that_are_not_four_counts(self, exit_filters, message):
        with pytest.raises(ValidationError) as exc:
            build_xception(exit_filters=exit_filters)
        assert str(exc.value) == message

    def test_middle_flow_shape(self, xception):
        shapes = infer_shapes(xception)
        adds = [n for n in xception.nodes if isinstance(n.kind, Add) and n.tag.startswith("middle_flow")]
        assert all(shapes[n.id] == TensorShape(19, 19, 728) for n in adds)


class TestOptimizedXception:
    def test_total_params_within_band(self, optimized, xception):
        total = count_params(optimized).total
        assert total == OPTIMIZED_TOTAL
        assert abs(total - 15_800_000) <= 0.05 * 15_800_000
        assert total < count_params(xception).total

    def test_first_sep_conv_of_every_module_is_pointwise(self, optimized):
        order = {nid: i for i, nid in enumerate(topo_sort(optimized))}
        by_id = {node.id: node for node in optimized.nodes}
        for module, members in group_modules(optimized.nodes).items():
            seps = sorted(
                (n.id for _, n in members if isinstance(by_id[n.id].kind, SeparableConv2D)),
                key=order.__getitem__,
            )
            if seps:
                assert by_id[seps[0]].kind.kernel == 1, module

    def test_downsampling_positions_match_baseline(self, xception, optimized):
        def downsamplers(graph):
            module = {n.id: m for m, members in group_modules(graph.nodes).items() for _, n in members}
            return [
                (module.get(n.id), type(n.kind).__name__)
                for n in graph.nodes
                if isinstance(n.kind, MaxPool) or (is_conv(n.kind) and n.kind.stride == 2)
            ]

        assert downsamplers(xception) == downsamplers(optimized)

    def test_residual_add_count_preserved(self, xception, optimized):
        count = lambda g: sum(1 for n in g.nodes if isinstance(n.kind, Add))
        assert count(optimized) == count(xception) == 12

    # Counts of each config wired by hand (fire modules and residual
    # projections placed directly, not by the passes) at 299x299x3, 101 classes.
    @pytest.mark.parametrize("config, params, macs, nodes", [
        (OptimizedConfig(DEFAULT_OPTIMIZED_CONFIG.entry_fire,
                         (FireModuleSpec(414, 600, 512),) + DEFAULT_OPTIMIZED_CONFIG.middle_fire[1:]),
         16_328_601, 6_241_591_748, 149),
        (OptimizedConfig(DEFAULT_OPTIMIZED_CONFIG.entry_fire,
                         tuple(FireModuleSpec(300, 400, 512 if i % 2 == 0 else 728) for i in range(8))),
         15_309_585, 5_872_918_332, 161),
        (OptimizedConfig(DEFAULT_OPTIMIZED_CONFIG.entry_fire, DEFAULT_OPTIMIZED_CONFIG.middle_fire,
                         exit_filters=(512, 768, 1024, 1536)),
         12_677_577, 5_611_884_756, 145),
    ], ids=["m5-e3x3-512", "middle-alternating", "narrow-exit"])
    def test_non_default_configs_match_hand_wired_counts(self, config, params, macs, nodes):
        graph = build_optimized_xception(config=config)
        assert (count_params(graph).total, flops_estimate(graph), len(graph.nodes)) == (params, macs, nodes)

    def test_eq2_boundary_rejected(self):
        bad = OptimizedConfig(
            entry_fire=(
                FireModuleSpec(224, 96, 128),  # 224 == 96 + 128
                FireModuleSpec(128, 192, 256),
                FireModuleSpec(256, 364, 728),
            ),
            middle_fire=DEFAULT_OPTIMIZED_CONFIG.middle_fire,
        )
        with pytest.raises(InvalidFireSpecError) as exc:
            build_optimized_xception(config=bad)
        assert "entry_flow/m2" in str(exc.value)

    @pytest.mark.parametrize("build, message", [
        (lambda: OptimizedConfig(DEFAULT_OPTIMIZED_CONFIG.entry_fire, DEFAULT_OPTIMIZED_CONFIG.middle_fire,
                                 exit_filters=None),
         "exit_filters must be a tuple or list, got None"),
        (lambda: OptimizedConfig(None, DEFAULT_OPTIMIZED_CONFIG.middle_fire),
         "entry_fire must be a tuple or list, got None"),
        (lambda: build_optimized_xception(config=None), "config must be an OptimizedConfig, got None"),
    ], ids=["exit_filters", "entry_fire", "config"])
    def test_config_fields_are_typed(self, build, message):
        with pytest.raises(ValidationError) as exc:
            build()
        assert str(exc.value) == message

    def test_config_length_checked(self):
        with pytest.raises(ValidationError):
            OptimizedConfig(
                entry_fire=DEFAULT_OPTIMIZED_CONFIG.entry_fire[:2],
                middle_fire=DEFAULT_OPTIMIZED_CONFIG.middle_fire,
            ).check()

    def test_random_reduction_configs_shrink_params(self, xception):
        # Squeeze-style configs: expand1/squeeze narrower than the module
        # input, expand3 at most the original width.
        import random

        rng = random.Random(77)
        baseline_total = count_params(xception).total
        entry_inputs = ((64, 128), (128, 256), (256, 728))
        for _ in range(5):
            entry = []
            for c_in, f_out in entry_inputs:
                e1 = rng.randint(8, c_in - 1)
                entry.append(FireModuleSpec(rng.randint(2, e1), e1, f_out))
            e1 = rng.randint(64, 727)
            middle = tuple(FireModuleSpec(rng.randint(2, e1), e1, 728) for _ in range(8))
            graph = build_optimized_xception(
                config=OptimizedConfig(entry_fire=tuple(entry), middle_fire=middle)
            )
            assert count_params(graph).total < baseline_total
            assert strategy2_insert_fire(graph, {})[1].violations == ()


class TestMobileNetV2:
    def test_total_params(self, mobilenet):
        report = count_params(mobilenet)
        assert report.total == MOBILENET_TOTAL
        assert round_params_millions(report.total) == 2.4

    def test_head_units(self):
        graph = build_mobilenet_v2(TensorShape(224, 224, 3), 2)
        dense = next(n for n in graph.nodes if isinstance(n.kind, Dense))
        assert dense.kind.units == 2

    def test_validates_and_infers_end_to_end(self, mobilenet):
        shapes = infer_shapes(mobilenet)
        assert shapes[mobilenet.terminal_id()] == TensorShape(1, 1, 101)


class TestConvUnit:
    def test_ids_tags_and_wiring(self):
        nodes = []
        tail = conv_unit(nodes, "c", SeparableConv2D(8, 3), "src", "f/m1/sep1")
        assert tail == "c_act"
        assert [(n.id, n.inputs, n.tag) for n in nodes] == [
            ("c", ("src",), "f/m1/sep1"),
            ("c_bn", ("c",), "f/m1/sep1_bn"),
            ("c_act", ("c_bn",), "f/m1/sep1_act"),
        ]

    def test_no_activation_ends_at_batchnorm(self):
        nodes = []
        assert conv_unit(nodes, "r", SeparableConv2D(8, 1), "src", "f/m1/residual",
                         activation=None) == "r_bn"
        assert [n.id for n in nodes] == ["r", "r_bn"]

    def test_any_activation_is_built_and_checked(self):
        nodes = []
        conv_unit(nodes, "c", SeparableConv2D(8, 3), "src", "f/m1/sep1", activation="sigmoid")
        assert nodes[-1].kind == Activation("sigmoid")
        for bad in ("tanh", ["relu"]):
            with pytest.raises(ValidationError, match="^Activation fn must be one of "):
                conv_unit([], "c", SeparableConv2D(8, 3), "src", "f/m1/sep1", activation=bad)

    @pytest.mark.parametrize("builder", [build_xception, build_optimized_xception, build_mobilenet_v2])
    def test_every_unit_shares_one_batchnorm_and_one_relu(self, builder):
        # Kinds are frozen values: a build makes one BatchNorm and one relu
        # kind, not one per conv unit.
        graph = builder()
        for kind in (BatchNorm(), Activation("relu")):
            same = [node.kind for node in graph.nodes if node.kind == kind]
            assert len(same) > 10
            assert len({id(k) for k in same}) == 1


class TestMakeFireModule:
    def test_structure(self):
        nodes = make_fire_module("src", FireModuleSpec(16, 64, 64), module_tag="f/m1")
        convs = [n for n in nodes if isinstance(n.kind, SeparableConv2D)]
        assert [n.kind.kernel for n in convs] == [1, 1, 3]
        assert [n.kind.filters for n in convs] == [16, 64, 64]
        assert [role for role, _ in group_modules(convs)["f/m1"]] == ["squeeze", "expand1", "expand3"]

    def test_output_channels_is_e3x3(self):
        nodes = make_fire_module("src", FireModuleSpec(16, 64, 96), module_tag="f/m1")
        last_conv = [n for n in nodes if isinstance(n.kind, SeparableConv2D)][-1]
        assert last_conv.kind.filters == 96

    def test_invalid_spec_rejected(self):
        with pytest.raises(InvalidFireSpecError):
            make_fire_module("src", FireModuleSpec(128, 64, 64), module_tag="f/m1")

    def test_stride_out_lands_on_expand3(self):
        nodes = make_fire_module("src", FireModuleSpec(16, 64, 64), stride_out=2, module_tag="f/m1")
        convs = [n for n in nodes if isinstance(n.kind, SeparableConv2D)]
        assert [c.kind.stride for c in convs] == [1, 1, 2]
