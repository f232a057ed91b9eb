"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; any assertion failure marks that criterion red.
"""

import random
import time

from cndkit.analyzer import count_params, round_params_millions
from cndkit.graph import (
    Add,
    group_modules,
    infer_shapes,
    is_conv,
    topo_sort,
)
from cndkit.pareto import (
    Quadrant,
    QuadrantConfig,
    classify_quadrant,
    load_fixture,
    memory_frontier,
    pareto_front,
)
from cndkit.serialize import deserialize, serialize
from cndkit.transforms import strategy1_replace_kernels, strategy2_insert_fire
from cndkit.zoo import build_mobilenet_v2, build_xception
from conftest import run_cli
from graphgen import oracle_params, oracle_pareto_front, oracle_shapes, random_graph


def _ok(criterion: int, message: str) -> None:
    print(f"[acceptance] criterion {criterion}: PASS - {message}")


def test_c01_xception_parameter_reproduction():
    start = time.perf_counter()
    result = run_cli(["build", "xception", "--classes", "101", "--input", "299x299x3"])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0
    assert "(21.1M)" in result.output
    assert elapsed < 1.0
    total = count_params(build_xception()).total
    assert round_params_millions(total) == 21.1
    _ok(1, f"xception total {total:,} rounds to 21.1M in {elapsed * 1000:.0f} ms")


def test_c02_mobilenet_parameter_reproduction():
    start = time.perf_counter()
    result = run_cli(["build", "mobilenetv2", "--classes", "101", "--input", "224x224x3"])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0
    assert "(2.4M)" in result.output
    assert elapsed < 1.0
    total = count_params(build_mobilenet_v2()).total
    assert round_params_millions(total) == 2.4
    _ok(2, f"mobilenetv2 total {total:,} rounds to 2.4M in {elapsed * 1000:.0f} ms")


def test_c03_optimized_model_target(xception, optimized):
    total = count_params(optimized).total
    target = 15_800_000
    assert abs(total - target) <= 0.05 * target
    assert total < count_params(xception).total
    assert strategy2_insert_fire(optimized, {})[1].violations == ()
    _ok(3, f"optimized total {total:,} within 15.8M +/- 5%, below baseline, fire-clean")


def test_c04_macro_structure(xception):
    modules = group_modules(xception.nodes)
    convs = [
        n for members in modules.values() for role, n in members
        if is_conv(n.kind) and role != "residual"
    ]
    adds = [n for n in xception.nodes if isinstance(n.kind, Add)]
    assert len(convs) == 36
    assert len(modules) == 14
    assert len(adds) == 12
    _ok(4, "36 module convs, 14 tagged modules, 12 residual adds")


def test_c05_figure4_reproduction():
    cfg = QuadrantConfig()
    expectations = {
        "caltech101": (
            848.8,
            {
                "Optimized": Quadrant.HIGH_ACC_LOW_MEM,
                "Xception": Quadrant.HIGH_ACC_HIGH_MEM,
                "EfficientNetV2B1": Quadrant.LOW_ACC_LOW_MEM,
                "MobileNetV2": Quadrant.LOW_ACC_LOW_MEM,
            },
        ),
        "pcb_scratch": (
            871.5,
            {
                "Optimized": Quadrant.HIGH_ACC_LOW_MEM,
                "Xception": Quadrant.HIGH_ACC_HIGH_MEM,
                "EfficientNetV2B1": Quadrant.LOW_ACC_HIGH_MEM,
                "MobileNetV2": Quadrant.LOW_ACC_LOW_MEM,
            },
        ),
    }
    for fixture, (frontier_expected, quadrants) in expectations.items():
        records = load_fixture(fixture)
        frontier = memory_frontier(records)
        assert frontier == frontier_expected
        for record in records:
            assert classify_quadrant(record, cfg, frontier) == quadrants[record.model], (
                fixture, record.model,
            )
    _ok(5, "both fixture quadrant maps exact; frontiers 848.8 and 871.5")


def test_c06_pareto_front_oracle():
    for fixture in ("caltech101", "pcb_scratch", "pcb_pretrained"):
        records = load_fixture(fixture)
        assert pareto_front(records) == oracle_pareto_front(records)
    rng = random.Random(20_240_601)
    from cndkit.pareto import ModelMeasurement

    for _ in range(1000):
        n = rng.randint(1, 100)
        records = [
            ModelMeasurement(
                model=f"m{i}",
                experiment="rand",
                train_acc=0.0,
                test_acc=round(rng.uniform(0, 100), 1),
                avg_mem_mb=round(rng.uniform(1, 1000), 1),
            )
            for i in range(n)
        ]
        assert pareto_front(records) == oracle_pareto_front(records)
    _ok(6, "front equals brute-force filter on fixtures and 1000 random instances")


def test_c07_parameter_count_oracle():
    rng = random.Random(71_717)
    for i in range(200):
        graph = random_graph(rng, max_layers=8, max_dim=8, max_channels=32, name=f"pg{i}")
        per_node, total = oracle_params(graph)
        report = count_params(graph)
        assert report.total == total
        for entry in report.per_layer:
            assert entry.total == per_node[entry.node_id], entry.node_id
    _ok(7, "count_params equals element-enumeration oracle on 200 random graphs")


def test_c08_strategy1_properties(xception):
    once, report = strategy1_replace_kernels(xception)
    twice, report2 = strategy1_replace_kernels(once)
    assert twice == once
    assert report2.nodes_changed == ()

    shapes = infer_shapes(xception)
    before, after = ({n.id: n for n in g.nodes} for g in (xception, once))
    assert len(report.nodes_changed) == 13
    for change in report.nodes_changed:
        node = before[change.node_id]
        channels = shapes[node.inputs[0]].channels
        before_depthwise = channels * node.kind.kernel ** 2
        after_depthwise = channels * after[change.node_id].kind.kernel ** 2
        assert before_depthwise == 9 * after_depthwise

    no_match, no_report = strategy1_replace_kernels(once)
    assert no_match == once and no_report.params_before == no_report.params_after
    _ok(8, "idempotent, 9x depthwise cut on all 13 rewrites, identity without matches")


def test_c09_shape_inference_oracle():
    rng = random.Random(99_999)
    for i in range(200):
        graph = random_graph(rng, max_layers=8, max_dim=16, max_channels=32, name=f"sg{i}")
        expected = oracle_shapes(graph)
        got = infer_shapes(graph)
        assert set(got) == set(expected)
        for node_id, shape in got.items():
            assert (shape.height, shape.width, shape.channels) == expected[node_id], node_id
    _ok(9, "infer_shapes equals index-range enumeration on 200 random graphs")


def test_c10_serialization_round_trip(xception, optimized, mobilenet):
    for graph in (xception, optimized, mobilenet):
        assert deserialize(serialize(graph)) == graph
    rng = random.Random(424_242)
    for i in range(100):
        graph = random_graph(rng, name=f"rt{i}")
        again = deserialize(serialize(graph))
        assert again == graph
        assert topo_sort(again) == topo_sort(graph)
    _ok(10, "round-trip identity for 3 zoo models and 100 random graphs")
