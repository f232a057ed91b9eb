"""Smoke test of the benchmark: every workload on one tiny input with all
checks on, and proof that each oracle rejects a wrong answer.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import CheckFailed  # noqa: E402


@pytest.fixture
def ctx(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return SimpleNamespace(root=ROOT, out=tmp_path, env=env)


def tiny(ctx, name):
    wl = workloads.WORKLOADS[name](ctx)
    if name == "deep_graphs":
        wl.SIZES = (60, 120)
    if name == "pareto_sweep":
        wl.RECORDS, wl.SHARES = 60, (0.1, 0.5)
    wl.setup(7)
    return wl


def run_all(wl, ops):
    """Run each operation with full checks; return the results and the
    messages of any named fault."""
    results, faults = [], []
    for op in ops:
        result = op.run()
        try:
            op.check(result, True)
        except workloads.KnownFault as exc:
            faults.append(str(exc))
        results.append((op, result))
    return results, faults


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_checks(ctx, name):
    wl = tiny(ctx, name)
    try:
        _, faults = run_all(wl, wl.round())
    finally:
        wl.close()
    if name == "pareto_sweep":
        assert faults == ["plot CSV row for 'resnet,v2' reads back with 6 cells"]
    else:
        assert faults == []


def test_seed_fixes_the_inputs():
    a = gen.deep_case(random.Random(3), 200)
    b = gen.deep_case(random.Random(3), 200)
    c = gen.deep_case(random.Random(4), 200)
    assert a.text == b.text and a.text != c.text
    assert gen.measurement_set(random.Random(3), 50, 0.2).text == \
        gen.measurement_set(random.Random(3), 50, 0.2).text


def test_count_oracle_rejects_a_wrong_count(ctx):
    wl = tiny(ctx, "zoo_roundtrip")
    (op, result), = run_all(wl, wl.round()[:1])[0]
    wrong = dict(result, params=dataclasses.replace(result["params"], total=result["params"].total + 1))
    with pytest.raises(CheckFailed, match="count_params"):
        op.check(wrong, False)
    wrong = dict(result, macs=result["macs"] - 1)
    with pytest.raises(CheckFailed, match="flops"):
        op.check(wrong, False)


def test_count_oracle_sees_a_changed_kernel():
    case = gen.deep_case(random.Random(5), 100)
    doc = json.loads(case.text)
    first = next(n for n in doc["nodes"] if n["kind"] == "SeparableConv2D")
    before = oracle.count_model(doc).params
    first["attrs"]["kernel"] = 1
    after = oracle.count_model(doc).params
    c = oracle.count_model(doc).shapes[first["inputs"][0]][2]
    assert before - after == 8 * c  # C*K depthwise term, K from 9 to 1


def test_deep_check_rejects_a_wrong_pass_result(ctx):
    wl = tiny(ctx, "deep_graphs")
    assert [op.label for op in wl.round()] == [str(len(c.doc["nodes"])) for c, _ in wl.cases]
    (op, result), = run_all(wl, wl.round()[:1])[0]
    rep2 = dataclasses.replace(result["rep2"], params_after=result["rep2"].params_after - 1)
    with pytest.raises(CheckFailed, match="strategy2"):
        op.check(dict(result, rep2=rep2), False)


def test_pareto_oracle_rejects_a_wrong_front(ctx):
    points = [(90.0, 100.0), (80.0, 50.0), (85.0, 120.0), (90.0, 100.0), (70.0, 50.0)]
    assert oracle.dominance_front(points) == [True, True, False, True, False]
    assert oracle.quadrant(70.0, 75.0, 70.0, 75.0) == "HighAccLowMem"
    assert oracle.quadrant(69.99, 75.01, 70.0, 75.0) == "LowAccHighMem"
    wl = tiny(ctx, "pareto_sweep")
    (op, result), = run_all(wl, wl.round()[:1])[0]
    records, front, frontier, quads, plot = result
    with pytest.raises(CheckFailed, match="pareto_front"):
        op.check((records, front[1:], frontier, quads, plot), False)
    flipped = [quads[-1]] + quads[1:] if quads[0] != quads[-1] else quads[::-1]
    with pytest.raises(CheckFailed, match="classify_quadrant"):
        op.check((records, front, frontier, flipped, plot), False)


def test_cli_check_rejects_a_wrong_count(ctx):
    wl = tiny(ctx, "cli_session")
    try:
        op = wl.round()[0]
        result = op.run()
        op.check(result, True)
        wrong = dataclasses.replace(result, out=result.out.replace(" params", "1 params"))
        with pytest.raises(CheckFailed, match="build"):
            op.check(wrong, False)
    finally:
        wl.close()


def test_traced_spans_give_the_layer_metrics(ctx, tmp_path):
    wl = tiny(ctx, "zoo_roundtrip")
    tracer = tracing.Tracer()
    tracer.install(layers.targets(wl.m))
    try:
        for op in wl.round()[:3]:
            tracer.op_id += 1
            with tracer.span(f"op:zoo_roundtrip:{op.label}"):
                op.run()
    finally:
        tracer.uninstall()
    assert not hasattr(wl.m["graph"].topo_sort, "__wrapped__")  # originals are back
    ops = layers.operations(tracer, "op:zoo_roundtrip:")
    found = layers.metrics(ops)
    assert found["graph.topo_sort_calls"]["value"] > 1
    table = layers.breakdown(ops)
    assert set(table) == set(workloads.ZooRoundtrip.MODELS)
    calls = [per_span["graph.topo_sort"][1] for _n, _ms, per_span in table.values()]
    assert sorted(calls)[1] == found["graph.topo_sort_calls"]["value"]  # one op per model
    assert found["serialize.bytes"]["value"] > 1000
    selfs = tracer.self_ns()
    assert all(v >= 0 for v in selfs.values())
    top = [s for s in tracer.spans if s[1] == 0]
    assert sum(selfs[s[0]] for s in tracer.spans) == sum(s[5] - s[4] for s in top)
    tracer.write(tmp_path / "trace.json")
    spans = json.loads((tmp_path / "trace.json").read_text())["spans"]
    assert len(spans) == len(tracer.spans) and {s[2] for s in spans} == {1, 2, 3}


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", ["zoo_roundtrip", "pareto_sweep"])
def test_run_prints_one_result_line(name):
    proc = run_bench("--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {"setup_s", "op_cost_mean_x", "op_cost_p50_x", "peak_mem_mb"}
    per_round = 7 if name == "pareto_sweep" else 6
    assert result["attempted"] % per_round == 0
    assert result["failed"] * per_round == (result["attempted"] if name == "pareto_sweep" else 0)


def test_traced_run_prints_every_layer_metric():
    proc = run_bench("--workload", "zoo_roundtrip", "--seed", "3", "--seconds", "0.5", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and list(result["metrics"]) == list(layers.PER_LAYER)
    assert (ROOT / ".bench_out" / "trace-zoo_roundtrip-seed3.json").is_file()


def test_run_refuses_a_tree_without_the_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "zoo_roundtrip", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode == 2 and proc.stdout == ""
