import dataclasses
import random
from decimal import ROUND_HALF_UP, Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cndkit.analyzer
import cndkit.graph
from cndkit.analyzer import (
    activation_sizes,
    analyze,
    count_params,
    count_params_layer,
    flops_estimate,
    memory_estimate,
    round_params_millions,
)
from cndkit.errors import ValidationError
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
    is_conv,
    topo_sort,
    validate,
)
from cndkit.transforms import strategy3_audit
from graphgen import oracle_macs, oracle_memory, random_graph, random_topological_order, rename_ids


def _tiny(h, w, c, *nodes):
    """``in`` on ``h``x``w``x``c`` followed by ``nodes``, checked by ``topo_sort``."""
    graph = ModelGraph("t", TensorShape(h, w, c), 2, (LayerNode("in", Input()), *nodes))
    topo_sort(graph)
    return graph


class TestLayerParams:
    def test_conv(self):
        entry = count_params_layer(LayerNode("c", Conv2D(128, 3), ("x",)), 64)
        assert entry.kernel_params == 64 * 128 * 9 == 73_728
        assert entry.aux_params == 0

    def test_conv_with_bias(self):
        entry = count_params_layer(LayerNode("c", Conv2D(128, 3, has_bias=True), ("x",)), 64)
        assert entry.aux_params == 128

    def test_separable(self):
        entry = count_params_layer(LayerNode("s", SeparableConv2D(128, 3), ("x",)), 64)
        assert entry.kernel_params == 64 * 9 + 64 * 128 == 8_768

    def test_maxpool_is_parameterless(self):
        entry = count_params_layer(LayerNode("p", MaxPool(3, 2), ("x",)), 64)
        assert entry.total == 0

    def test_conv_params_linear_in_channels(self):
        def omega(c):
            return count_params_layer(LayerNode("c", Conv2D(32, 3), ("x",)), c).kernel_params

        assert omega(16) * 2 == omega(32)
        assert omega(5) + omega(7) == omega(12)

    @pytest.mark.parametrize("channels, message", [
        (2.5, "input_channels must be an int, got 2.5"),
        (True, "input_channels must be an int, got True"),
        ("4", "input_channels must be an int, got '4'"),
        (None, "input_channels must be an int, got None"),
        (-3, "input_channels must be >= 0, got -3"),
    ])
    def test_input_channels_must_be_a_count(self, channels, message):
        # 2.5 gave kernel_params=90.0 and -3 gave -108
        with pytest.raises(ValidationError, match=f"^{message}$"):
            count_params_layer(LayerNode("c", Conv2D(4, 3), ("in",)), channels)

    def test_input_channels_have_no_upper_bound(self):
        # A Dense layer's input is the flattened H*W*C of a shape whose dims
        # are each at most MAX_SIZE, so the product may exceed it.
        channels = TensorShape(50_000, 50_000, 1).elements
        params = count_params_layer(LayerNode("d", Dense(10), ("x",)), channels)
        assert params.kernel_params == 10 * channels

    def test_param_table_covers_every_kind(self):
        # analyze reads each kind's channel rule and param rule from its row of
        # graph.KINDS; the analyzer keeps no table of its own.
        assert not hasattr(cndkit.analyzer, "_PARAM_RULES")
        one_of_each = {type(k): k for k in (
            Input(), Conv2D(4, 3, has_bias=True), SeparableConv2D(4, 3), MaxPool(),
            GlobalAvgPool(), BatchNorm(), Activation(), Add(), Dense(4))}
        assert set(one_of_each) == set(cndkit.graph.KINDS)
        for cls, kind_row in cndkit.graph.KINDS.items():
            if kind_row.arity == 0:
                row = analyze(_tiny(2, 3, 5))[0]
                assert row.params == kind_row.params("in", Input(), 0) == ("in", 0, 0, 0, 0, 0)
                continue
            node = LayerNode("n", one_of_each[cls], ("in",) * kind_row.arity)
            row = analyze(_tiny(2, 3, 5, node))[-1]
            c = kind_row.channels(row.shape_in)
            assert c == (30 if cls is Dense else 5)
            assert row.params == kind_row.params("n", node.kind, c) == count_params_layer(node, c)

    @given(c=st.integers(1, 2048), m=st.integers(1, 2048), kernel=st.sampled_from([1, 3]),
           bias=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_docstring_formulas(self, c, m, kernel, bias):
        # (node_id, channels_in, filters, kernel_elems, kernel_params, aux_params)
        k = kernel * kernel
        cases = [
            (Conv2D(m, kernel, has_bias=bias), (c, m, k, c * m * k, m if bias else 0)),
            (SeparableConv2D(m, kernel), (c, m, k, c * k + c * m, 0)),
            (BatchNorm(), (c, c, 0, 0, 4 * c)),
            (Dense(m, has_bias=bias), (c, m, 1, m * c, m if bias else 0)),
        ] + [(kind, (c, 0, 0, 0, 0)) for kind in (MaxPool(), GlobalAvgPool(), Activation(), Add())]
        for kind, fields in cases:
            entry = count_params_layer(LayerNode("n", kind, ("x",) * (2 if type(kind) is Add else 1)), c)
            assert entry == ("n", *fields)  # a LayerParams equals the plain tuple of its fields
            assert entry.total == fields[3] + fields[4]


class TestCountParams:
    def test_totals_match_per_layer_sum(self, xception):
        report = count_params(xception)
        assert report.total == sum(e.total for e in report.per_layer)
        assert report.total_trainable <= report.total

    def test_batchnorm_statistics_not_trainable(self):
        graph = _tiny(8, 8, 3, LayerNode("bn", BatchNorm(), ("in",)))
        report = count_params(graph)
        assert report.total == 12
        assert report.total_trainable == 6

    def test_rounding_half_up(self):
        assert round_params_millions(21_068_429) == 21.1
        assert round_params_millions(15_750_000) == 15.8
        assert round_params_millions(15_749_999) == 15.7
        assert round_params_millions(2_358_821) == 2.4

    @staticmethod
    def _decimal_oracle(total: int) -> float:
        return float((Decimal(total) / Decimal(1_000_000)).quantize(Decimal("0.1"), ROUND_HALF_UP))

    def test_rounding_matches_decimal_on_every_boundary(self):
        # each x.x5M boundary below 10^8, and one count either side of it
        for boundary in range(50_000, 10**8, 100_000):
            for total in (boundary - 1, boundary, boundary + 1):
                assert round_params_millions(total) == self._decimal_oracle(total), total

    def test_rounding_matches_decimal_on_random_totals(self):
        rng = random.Random(91)
        for digits in range(1, 16):
            for _ in range(2_000):
                total = rng.randrange(10**digits)
                assert round_params_millions(total) == self._decimal_oracle(total), total


class TestFlops:
    def test_pointwise_conv(self):
        graph = _tiny(8, 8, 16, LayerNode("c", Conv2D(16, 1), ("in",)))
        assert flops_estimate(graph) == 8 * 8 * 16 * 16 * 1 == 16_384

    def test_pool_only_graph(self):
        graph = _tiny(8, 8, 16, LayerNode("p", MaxPool(3, 2), ("in",)))
        assert flops_estimate(graph) == 0

    def test_optimized_below_baseline(self, xception, optimized):
        assert flops_estimate(optimized) < flops_estimate(xception)


class TestActivationSizes:
    def test_input_elements(self, xception):
        sizes = dict(activation_sizes(xception, batch=1))
        assert sizes["input"] == 268_203

    def test_batch_linearity(self, xception):
        one = activation_sizes(xception, batch=1)
        two = activation_sizes(xception, batch=2)
        assert all(b == 2 * a for (_, a), (_, b) in zip(one, two))

    @pytest.mark.parametrize("batch", [1.5, 2.0, True, "2", None])
    def test_batch_must_be_an_int(self, xception, batch):
        with pytest.raises(ValidationError, match="batch must be an int, got "):
            activation_sizes(xception, batch=batch)

    def test_batch_must_be_positive(self, xception):
        with pytest.raises(ValidationError, match="batch must be >= 1, got 0"):
            activation_sizes(xception, batch=0)

    def test_decreasing_across_downsample_boundaries(self, xception):
        sizes = dict(activation_sizes(xception, batch=1))
        boundary = [
            n.id for n in xception.nodes
            if isinstance(n.kind, MaxPool) or (is_conv(n.kind) and n.kind.stride == 2)
        ]
        main_path = [i for i in boundary if not i.endswith("_res")]
        values = [sizes[i] for i in main_path]
        assert values == sorted(values, reverse=True)
        assert len(set(values)) == len(values)


class TestMemoryEstimate:
    def test_inference_zeroes_training_state(self, xception):
        est = memory_estimate(xception, batch=4, mode="inference")
        assert est.gradients_bytes == 0
        assert est.optimizer_state_bytes == 0
        assert est.total_bytes == est.weights_bytes + est.activations_bytes

    def test_training_total_is_component_sum(self, xception):
        est = memory_estimate(xception, batch=4, mode="training", overhead_bytes=1024)
        assert est.total_bytes == (
            est.weights_bytes
            + est.gradients_bytes
            + est.optimizer_state_bytes
            + est.activations_bytes
            + 1024
        )

    # Byte counts stay ints: a float or bool batch or overhead is rejected, not
    # carried into total_bytes.
    @pytest.mark.parametrize("batch", [2.5, 1.0, True, "2"])
    def test_batch_must_be_an_int(self, mobilenet, batch):
        with pytest.raises(ValidationError, match="batch must be an int, got "):
            memory_estimate(mobilenet, batch=batch)

    @pytest.mark.parametrize("overhead", [0.5, 0.0, False, None])
    def test_overhead_bytes_must_be_an_int(self, mobilenet, overhead):
        with pytest.raises(ValidationError, match="overhead_bytes must be an int, got "):
            memory_estimate(mobilenet, overhead_bytes=overhead)

    def test_counts_below_their_least_value(self, mobilenet):
        with pytest.raises(ValidationError, match="batch must be >= 1, got 0"):
            memory_estimate(mobilenet, batch=0)
        with pytest.raises(ValidationError, match="overhead_bytes must be >= 0, got -1"):
            memory_estimate(mobilenet, overhead_bytes=-1)
        assert type(memory_estimate(mobilenet, batch=2, overhead_bytes=1).total_bytes) is int

    def test_counts_above_max_size(self, mobilenet):
        # A batch of 4,299 digits made byte counts too long to print.
        big = 10**4298
        with pytest.raises(ValidationError, match="^batch must be at most 2147483647, got 1000"):
            memory_estimate(mobilenet, batch=big)
        with pytest.raises(ValidationError, match="^batch must be at most 2147483647, got "):
            activation_sizes(mobilenet, batch=2**31)
        with pytest.raises(ValidationError, match="^overhead_bytes must be at most 2147483647, got "):
            memory_estimate(mobilenet, overhead_bytes=2**31)
        assert memory_estimate(mobilenet, batch=2**31 - 1, overhead_bytes=2**31 - 1).total_bytes > 0

    def test_adam_not_below_momentum(self, xception):
        adam = memory_estimate(xception, batch=2, optimizer="adam")
        sgd = memory_estimate(xception, batch=2, optimizer="sgd_momentum")
        assert adam.total_bytes >= sgd.total_bytes

    def test_optimized_below_baseline_training(self, xception, optimized):
        for batch in (1, 16):
            a = memory_estimate(xception, batch=batch)
            b = memory_estimate(optimized, batch=batch)
            assert b.total_bytes < a.total_bytes

    def test_monotone_in_batch(self, mobilenet):
        totals = [memory_estimate(mobilenet, batch=b).total_bytes for b in (1, 2, 8)]
        assert totals == sorted(totals)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 64),
           st.sampled_from(["training", "inference"]), st.sampled_from(["sgd_momentum", "adam"]))
    def test_matches_the_oracle_on_random_graphs(self, seed, batch, mode, optimizer):
        graph = random_graph(random.Random(seed), max_layers=12)
        est = memory_estimate(graph, batch=batch, mode=mode, optimizer=optimizer)
        assert {name: value for name, value in dataclasses.asdict(est).items()
                if name != "assumptions"} == oracle_memory(graph, batch, mode, optimizer)

    # xception on 299x299x3 with 101 classes: weights, gradients, optimizer
    # state, activations and total bytes (adam; inference keeps no state), as
    # oracle_memory gives them
    @pytest.mark.parametrize("batch, mode, expected", [
        (1, "training", (84_273_716, 84_055_604, 168_111_208, 537_607_784, 874_048_312)),
        (32, "training", (84_273_716, 84_055_604, 168_111_208, 17_203_449_088, 17_539_889_616)),
        (1, "inference", (84_273_716, 0, 0, 22_127_616, 106_401_332)),
        (32, "inference", (84_273_716, 0, 0, 708_083_712, 792_357_428)),
    ])
    def test_xception_pinned(self, xception, batch, mode, expected):
        est = memory_estimate(xception, batch=batch, mode=mode)
        assert (est.weights_bytes, est.gradients_bytes, est.optimizer_state_bytes,
                est.activations_bytes, est.total_bytes) == expected

    def test_monotone_in_params(self):
        small = _tiny(8, 8, 3, LayerNode("c", Conv2D(8, 3), ("in",)))
        large = _tiny(8, 8, 3, LayerNode("c", Conv2D(32, 3), ("in",)))
        assert (
            memory_estimate(small, batch=2).total_bytes
            < memory_estimate(large, batch=2).total_bytes
        )


class TestAnalyzeTable:
    def test_flops_match_oracle_on_random_graphs(self):
        rng = random.Random(23)
        for _ in range(40):
            graph = random_graph(rng)
            assert flops_estimate(graph) == sum(row.macs for row in analyze(graph)) == oracle_macs(graph)

    def test_flops_match_oracle_on_zoo(self, xception, optimized, mobilenet):
        for graph in (xception, optimized, mobilenet):
            assert flops_estimate(graph) == sum(row.macs for row in analyze(graph)) == oracle_macs(graph)

    def test_rows_follow_topological_order(self):
        graph = random_graph(random.Random(5), max_layers=12)
        graph = random_topological_order(graph, random.Random(6))
        rows = analyze(graph)
        assert [row.node for row in rows] == list(graph.nodes)
        position = {row.node.id: i for i, row in enumerate(rows)}
        for row in rows:
            assert all(position[src] < position[row.node.id] for src in row.node.inputs)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
    def test_results_ignore_stored_order(self, seed, rng):
        graph = random_graph(random.Random(seed), max_layers=12)
        reordered = random_topological_order(graph, rng)

        def results(g):
            report = count_params(g)
            return (
                report.total,
                report.total_trainable,
                sorted(report.per_layer, key=lambda e: e.node_id),
                flops_estimate(g),
                memory_estimate(g, batch=3, mode="training"),
                memory_estimate(g, batch=3, mode="inference"),
                strategy3_audit(g),
            )

        assert results(reordered) == results(graph)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
    def test_results_ignore_id_renaming(self, seed, rng):
        graph = random_graph(random.Random(seed), max_layers=12)
        fresh = [f"r{i}" for i in range(len(graph.nodes))]
        rng.shuffle(fresh)
        names = {n.id: new for n, new in zip(graph.nodes, fresh)}
        renamed = rename_ids(graph, names)

        def results(g, name_of):
            report = count_params(g)
            audit = strategy3_audit(g)
            return (
                report.total,
                report.total_trainable,
                [e._replace(node_id=name_of(e.node_id)) for e in report.per_layer],
                flops_estimate(g),
                memory_estimate(g, batch=3, mode="training"),
                memory_estimate(g, batch=3, mode="inference"),
                audit.early_pool_count,
                audit.late_downsample_flag,
                [dataclasses.replace(e, node_id=name_of(e.node_id)) for e in audit.entries],
            )

        assert results(renamed, lambda i: i) == results(graph, names.get)

    @pytest.mark.parametrize(
        "analysis", [count_params, flops_estimate, activation_sizes, strategy3_audit, validate]
    )
    def test_one_topological_sort_per_analysis(self, analysis, xception, monkeypatch):
        # A graph not yet checked gets one topological sort in its first
        # analysis, whichever it is, and none in the five that follow.
        calls = []
        real = cndkit.graph.topo_sort

        def counting(graph):
            calls.append(graph.name)
            return real(graph)

        monkeypatch.setattr(cndkit.graph, "topo_sort", counting)
        fresh = dataclasses.replace(xception)
        analysis(fresh)
        assert calls == [xception.name]
        for each in (count_params, flops_estimate, activation_sizes, strategy3_audit, validate):
            each(fresh)
        assert calls == [xception.name]
