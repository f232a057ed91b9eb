"""The four benchmark workloads.

Each workload turns a seed into inputs (``setup``), and offers one *round*:
a fixed list of operations that the runner repeats, whole, until the run's
time is up. An operation's ``run`` is the only part that is timed; its
``check`` compares what the program returned against the independent answers
in ``oracle.py`` and the generator's own record of what it built. ``full``
checks add property tests that cost as much as the operation itself, so the
runner makes them in the untimed pass only.

The program is reached only through its public entry points: the ``cndkit``
command line as child processes, and module attributes looked up at call
time (``analyzer.count_params``), so the tracer's wrappers are seen.
"""

from __future__ import annotations

import csv
import importlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import oracle
from oracle import CheckFailed, expect

# Headline parameter counts of the zoo at 299x299x3 / 101 classes (the paper's
# 21.1M, 15.8M and 2.4M) minus the classifier, whose size is the only part
# that depends on the class count: (last width + 1 bias) per class.
ZOO_BODY = {
    "xception": (21_068_429 - 2049 * 101, 2048),
    "optimized-xception": (15_798_273 - 2049 * 101, 2048),
    "mobilenetv2": (2_358_821 - 1281 * 101, 1280),
}

# Fire widths of the optimized build, per module tag (entry flow m2-m4,
# middle flow m5-m12).
DEFAULT_FIRE = {
    "entry_flow/m2": (64, 96, 128),
    "entry_flow/m3": (128, 192, 256),
    "entry_flow/m4": (256, 364, 728),
    **{f"middle_flow/m{i}": (414, 600, 728) for i in range(5, 13)},
}


def zoo_params(model: str, classes: int) -> int:
    body, last = ZOO_BODY[model]
    return body + (last + 1) * classes


class KnownFault(CheckFailed):
    """The one fault the benchmark counts as a failed operation: the plot CSV
    that ``export_plot_data`` writes leaves a model name with a comma
    unquoted, so that row reads back with 6 cells instead of 5."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object, bool], None]  # (result, full) -> None or raise CheckFailed
    counted: bool = True  # False for the CLI baselines: checked, but not an operation of the workload


def program():
    """The cndkit modules, by module (the package re-exports shadow some names)."""
    names = ("graph", "serialize", "analyzer", "transforms", "zoo", "pareto")
    return {n: importlib.import_module(f"cndkit.{n}") for n in names}


class Workload:
    name = ""
    IMPORT = "cndkit"  # what a user's process imports
    probe_layers: tuple[str, ...] = ()  # metric prefixes this workload's probe supplies

    def __init__(self, ctx):
        self.ctx = ctx
        self.m = program()

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def fresh_import(self) -> None:
        """Import IMPORT in a new interpreter, the start-up every user pays.
        It is part of each set-up, so ``setup_s`` shows work moved to import
        time."""
        subprocess.run([sys.executable, "-c", f"import {self.IMPORT}"], env=self.ctx.env,
                       cwd=self.ctx.root, check=True)

    def bare_start(self) -> None:
        """A bare interpreter start (``python -c pass``)."""
        subprocess.run([sys.executable, "-c", "pass"], env=self.ctx.env, cwd=self.ctx.root,
                       check=True)

    def work_reference(self) -> None:
        """About 1.5 ms of pure Python of the kind the program does: tuples,
        string keys, a dict index, a scan and a sort."""
        items = [(f"n{i}", i % 7, (i, i + 1)) for i in range(3000)]
        index = {name: pos for pos, (name, _, _) in enumerate(items)}
        total = 0
        for name, kind, ins in items:
            if kind and name in index:
                total += ins[0] * kind
        sorted(index, reverse=True)

    # Fixed work, not the program's, that the timed phase runs after each
    # operation; the timing metrics are in units of its time.
    reference = work_reference

    def round(self) -> list[Op]:
        raise NotImplementedError

    def peak_ops(self) -> list[Op]:
        """Operations whose tracemalloc peak is reported (largest wins)."""
        raise NotImplementedError

    def probe(self) -> list[Op]:
        """A short subset used to fill this workload's layers in other traced runs."""
        raise NotImplementedError

    def trace_round(self) -> list[Op]:
        """The round a traced run repeats."""
        return self.round()

    def close(self) -> None:
        pass


# -- zoo_roundtrip -------------------------------------------------------------

class ZooRoundtrip(Workload):
    name = "zoo_roundtrip"
    probe_layers = ("zoo.", "serialize.", "graph.", "analyzer.", "transforms.")
    MODELS = ("xception", "optimized-xception", "mobilenetv2")

    def setup(self, seed):
        rng = random.Random(seed)
        zoo, graph = self.m["zoo"], self.m["graph"]
        self.specs = {tag: zoo.FireModuleSpec(*w) for tag, w in DEFAULT_FIRE.items()}
        self.cases = []
        for _ in range(2):
            for model in self.MODELS:
                side, classes = rng.randrange(71, 332), rng.randint(2, 1000)
                shape = graph.TensorShape(side, side, 3)
                ref = zoo.build_optimized_xception(shape, classes)
                self.cases.append((model, shape, classes, ref))

    def _op(self, model, shape, classes, ref) -> Op:
        m = self.m
        builders = {"xception": "build_xception", "optimized-xception": "build_optimized_xception",
                    "mobilenetv2": "build_mobilenet_v2"}

        def run():
            ser, an, tr = m["serialize"], m["analyzer"], m["transforms"]
            built = getattr(m["zoo"], builders[model])(shape, classes)
            text = ser.serialize(built)
            g = ser.deserialize(text)
            r = {"text": text, "g": g, "params": an.count_params(g), "macs": an.flops_estimate(g),
                 "mem_train": an.memory_estimate(g, mode="training", optimizer="adam"),
                 "mem_infer": an.memory_estimate(g, mode="inference"),
                 "audit": tr.strategy3_audit(g)}
            result = g
            if model == "xception":
                r["s1"], r["rep1"] = tr.strategy1_replace_kernels(g)
                result, r["rep2"] = tr.strategy2_insert_fire(r["s1"], self.specs)
            r["diff"] = tr.diff(g, ref)
            r["equal"] = tr.structurally_equal(result, ref)
            r["out"] = ser.serialize(result)
            return r

        def check(r, full):
            doc = json.loads(r["text"])
            want = oracle.count_model(doc)
            expect(want.params == zoo_params(model, classes),
                   f"{model}: document holds {want.params} params, closed form says "
                   f"{zoo_params(model, classes)}")
            p = r["params"]
            expect(p.total == want.params and p.total_trainable == want.trainable,
                   f"{model}: count_params {p.total}/{p.total_trainable}, oracle "
                   f"{want.params}/{want.trainable}")
            expect(r["macs"] == want.macs, f"{model}: flops {r['macs']}, oracle {want.macs}")
            expect(r["mem_train"].total_bytes == want.memory_total("training", "adam"),
                   f"{model}: training memory {r['mem_train'].total_bytes}")
            expect(r["mem_infer"].total_bytes == want.memory_total("inference", nodes=doc["nodes"]),
                   f"{model}: inference memory {r['mem_infer'].total_bytes}")
            downsample = [n["id"] for n in doc["nodes"] if n["kind"] == "MaxPool" or (
                n["kind"] in ("Conv2D", "SeparableConv2D") and n["attrs"]["stride"] == 2)]
            expect([e.node_id for e in r["audit"].entries] == downsample,
                   f"{model}: strategy3_audit lists other nodes")
            ref_params = zoo_params("optimized-xception", classes)
            total_line = r["diff"].splitlines()[-2]
            expect(f"{want.params:,}" in total_line and f"{ref_params:,}" in total_line,
                   f"{model}: diff totals line {total_line!r}")
            out = oracle.count_model(json.loads(r["out"]))
            if model == "xception":
                expect(r["rep2"].params_after == ref_params == out.params,
                       f"passes give {r['rep2'].params_after} params, optimized build {ref_params}")
                targets = oracle.strategy1_targets(doc)
                expect([c.node_id for c in r["rep1"].nodes_changed] == targets,
                       f"strategy1 changed {len(r['rep1'].nodes_changed)} nodes, expected {len(targets)}")
            else:
                expect(r["out"] == r["text"], f"{model}: re-serialized text differs")
            expect(r["equal"] == (model != "mobilenetv2"),
                   f"{model}: structurally_equal to the optimized build is {r['equal']}")
            if full:
                ser, tr = self.m["serialize"], self.m["transforms"]
                expect(ser.serialize(ser.deserialize(r["out"])) == r["out"],
                       f"{model}: deserialize(serialize(g)) does not re-serialize byte-identically")
                if model == "xception":
                    again, rep = tr.strategy1_replace_kernels(r["s1"])
                    expect(again == r["s1"] and not rep.nodes_changed,
                           "strategy1_replace_kernels is not idempotent")

        return Op(f"{model}", run, check)

    def round(self):
        return [self._op(*c) for c in self.cases]

    def peak_ops(self):
        return self.round()[:3]

    def probe(self):
        return self.round()[:3]


# -- deep_graphs -----------------------------------------------------------------

class DeepGraphs(Workload):
    name = "deep_graphs"
    probe_layers = ("deep.",)
    SIZES = (250, 500, 1000)

    def setup(self, seed):
        rng = random.Random(seed)
        zoo = self.m["zoo"]
        self.cases = []
        for size in self.SIZES:
            case = gen.deep_case(rng, size)
            specs = {tag: zoo.FireModuleSpec(w["s1x1"], w["e1x1"], w["e3x3"])
                     for tag, w in case.specs.items()}
            self.cases.append((case, specs))
        self._expected = {}

    def expected(self, case):
        """Oracle counts of the input, after strategy1, and after both passes."""
        if case.size not in self._expected:
            self._expected[case.size] = (oracle.count_model(case.doc),
                                         oracle.count_model(case.expected_s1),
                                         oracle.count_model(case.expected_both))
        return self._expected[case.size]

    def _op(self, case, specs) -> Op:
        m = self.m
        nodes = len(case.doc["nodes"])

        def run():
            ser, an, tr = m["serialize"], m["analyzer"], m["transforms"]
            g = ser.deserialize(case.text)
            params = an.count_params(g)
            mem = an.memory_estimate(g)
            g1, rep1 = tr.strategy1_replace_kernels(g)
            g2, rep2 = tr.strategy2_insert_fire(g1, specs)
            return {"g": g, "params": params, "mem": mem, "g1": g1, "rep1": rep1,
                    "rep2": rep2, "out": ser.serialize(g2)}

        def check(r, full):
            base, s1, both = self.expected(case)
            name = f"deep{nodes}"
            expect(r["params"].total == base.params and r["params"].total_trainable == base.trainable,
                   f"{name}: count_params {r['params'].total}, oracle {base.params}")
            expect(r["mem"].total_bytes == base.memory_total("training", "adam"),
                   f"{name}: memory_estimate {r['mem'].total_bytes}")
            expect(r["rep1"].params_after == s1.params, f"{name}: strategy1 gives "
                   f"{r['rep1'].params_after} params, expected {s1.params}")
            expect(len(r["rep1"].nodes_changed) == len(case.first_seps),
                   f"{name}: strategy1 changed {len(r['rep1'].nodes_changed)} nodes")
            expect(r["rep2"].params_after == both.params, f"{name}: strategy2 gives "
                   f"{r['rep2'].params_after} params, expected {both.params}")
            doc = json.loads(r["out"])
            out = oracle.count_model(doc)
            expect((out.params, out.macs, len(doc["nodes"])) ==
                   (both.params, both.macs, len(case.expected_both["nodes"])),
                   f"{name}: serialized result differs in params, MACs or node count")
            widths = {}
            for n in doc["nodes"]:
                tag = n["tag"] or ""
                role = tag.rsplit("/", 1)[-1]
                if role in ("squeeze", "expand1", "expand3"):
                    widths.setdefault(tag.rsplit("/", 1)[0], {})[role] = n["attrs"]["filters"]
            expect(widths == {t: {"squeeze": s["s1x1"], "expand1": s["e1x1"], "expand3": s["e3x3"]}
                              for t, s in case.specs.items()},
                   f"{name}: fire modules in the result do not match the specs")
            if full:
                ser, tr = self.m["serialize"], self.m["transforms"]
                expect(ser.serialize(r["g"]) == case.text, f"{name}: input does not re-serialize")
                expect(ser.serialize(ser.deserialize(r["out"])) == r["out"],
                       f"{name}: deserialize(serialize(g)) does not re-serialize byte-identically")
                again, rep = tr.strategy1_replace_kernels(r["g1"])
                expect(again == r["g1"] and not rep.nodes_changed,
                       f"{name}: strategy1_replace_kernels is not idempotent")

        # labelled by node count, which deep.growth_x divides by
        return Op(str(nodes), run, check)

    def round(self):
        return [self._op(*c) for c in self.cases]

    def peak_ops(self):
        return [self._op(*self.cases[-1])]

    def probe(self):
        return [self._op(*c) for c in self.cases[:2]]


# -- pareto_sweep -----------------------------------------------------------------

class ParetoSweep(Workload):
    name = "pareto_sweep"
    probe_layers = ("pareto.",)
    RECORDS = 1500
    SHARES = (0.002, 0.01, 0.1, 0.25, 0.4, 0.5)
    # The set with the comma-named model is the same in every run, so the
    # share of failed operations does not depend on the seed.
    COMMA_SET = (20240315, 0.05)

    def setup(self, seed):
        rng = random.Random(seed)
        self.sets = [gen.measurement_set(rng, self.RECORDS, s) for s in self.SHARES]
        fixed_seed, share = self.COMMA_SET
        self.sets.insert(2, gen.measurement_set(random.Random(fixed_seed), self.RECORDS, share,
                                                comma_name=True))
        self._expected = {}

    def expected(self, i):
        """Oracle answer for set ``i``: on-front flags, quadrants, memory frontier."""
        if i not in self._expected:
            rows = self.sets[i].rows
            flags = oracle.dominance_front([(a, m) for _, _, a, m in rows])
            mid = oracle.memory_midpoint([m for _, _, _, m in rows])
            quads = [oracle.quadrant(a, m, 70.0, mid) for _, _, a, m in rows]
            expect(sum(flags) == self.sets[i].front_rows,
                   f"generator built {self.sets[i].front_rows} front rows, oracle finds {sum(flags)}")
            self._expected[i] = (flags, quads, mid)
        return self._expected[i]

    def _op(self, i) -> Op:
        p = self.m["pareto"]
        mset = self.sets[i]

        def run():
            config = p.QuadrantConfig()
            records = p.load_measurements(mset.text)
            front = p.pareto_front(records)
            frontier = p.memory_frontier(records)
            quads = [p.classify_quadrant(r, config, frontier) for r in records]
            return records, front, frontier, quads, p.export_plot_data(records, config)

        def check(r, full):
            records, front, frontier, quads, plot = r
            flags, want_quads, mid = self.expected(i)
            rows = mset.rows
            expect([(x.model, x.experiment, x.test_acc, x.avg_mem_mb) for x in records] == rows,
                   "load_measurements changed the records")
            expect(sorted((x.model, x.test_acc, x.avg_mem_mb) for x in front) ==
                   sorted((m, a, mem) for (m, _, a, mem), f in zip(rows, flags) if f),
                   f"pareto_front has {len(front)} records, oracle {sum(flags)}")
            expect(frontier == mid, f"memory frontier {frontier}, oracle {mid}")
            expect([q.value for q in quads] == want_quads, "classify_quadrant disagrees")
            lines = plot.splitlines()
            expect(lines[:3] == ["# accuracy_frontier=70", f"# memory_frontier={mid:g}",
                                 "model,test_acc,avg_mem_mb,quadrant,on_front"],
                   f"plot CSV header {lines[:3]}")
            fault = None
            for cells, (m, _, a, mem), q, f in zip(csv.reader(lines[3:]), rows, want_quads, flags):
                if len(cells) == 6 and "," in m and ",".join(cells[:2]) == m:
                    fault = f"plot CSV row for {m!r} reads back with 6 cells"
                    cells = [m] + cells[2:]
                expect(len(cells) == 5, f"plot CSV row {cells} has {len(cells)} cells")
                expect(cells[0] == m and float(cells[1]) == a and float(cells[2]) == mem
                       and cells[3] == q and cells[4] == ("true" if f else "false"),
                       f"plot CSV row {cells} disagrees with the oracle")
            expect(len(lines) == 3 + len(rows), "plot CSV has the wrong number of rows")
            if fault:
                raise KnownFault(fault)

        return Op(f"set{i}", run, check)

    def round(self):
        return [self._op(i) for i in range(len(self.sets))]

    def peak_ops(self):
        return [self._op(0)]  # the peak follows the record count, not the front share

    def probe(self):
        return [self._op(0), self._op(len(self.sets) - 1)]


# -- cli_session -------------------------------------------------------------------

@dataclass
class ChildResult:
    rc: int
    out: str
    err: str
    seconds: float
    maxrss_kb: int


class CliSession(Workload):
    name = "cli_session"
    IMPORT = "cndkit.cli"
    probe_layers = ("cli.",)
    FIXTURES = ("caltech101", "pcb_scratch", "pcb_pretrained")

    def setup(self, seed):
        rng = random.Random(seed)
        self.dir = self.ctx.out / f"cli-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.models = {}
        for model, stem in (("xception", "xception"), ("optimized-xception", "optimized"),
                            ("mobilenetv2", "mobilenet")):
            self.models[model] = (rng.randrange(71, 332), rng.randint(2, 1000), self.dir / f"{stem}.json")
        self.batch = rng.randint(1, 32)
        specs = {tag: dict(zip(("s1x1", "e1x1", "e3x3"), w)) for tag, w in DEFAULT_FIRE.items()}
        (self.dir / "specs.json").write_text(json.dumps(specs), encoding="utf-8")
        self.fixtures = {}
        for name in self.FIXTURES:
            path = self.ctx.root / "src" / "cndkit" / "fixtures" / f"{name}.csv"
            rows = [(r["model"], float(r["test_acc"]), float(r["avg_mem_mb"]))
                    for r in csv.DictReader(io.StringIO(path.read_text(encoding="utf-8")))]
            self.fixtures[name] = (path, rows)

    def close(self):
        shutil.rmtree(getattr(self, "dir", self.ctx.out / "none"), ignore_errors=True)

    def child(self, *args: str) -> ChildResult:
        """Run a child with output to files, and reap it with wait4 for its max RSS."""
        out_path, err_path = self.dir / "stdout.txt", self.dir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    env=self.ctx.env, cwd=self.ctx.root)
            _pid, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t
            proc.returncode = os.waitstatus_to_exitcode(status)
        return ChildResult(proc.returncode, out_path.read_text(encoding="utf-8"),
                           err_path.read_text(encoding="utf-8"), seconds, usage.ru_maxrss)

    def _cli(self, label: str, args: list, check) -> Op:
        def run():
            return self.child("-m", "cndkit.cli", *map(str, args))

        def checked(r, full):
            expect(r.rc == 0, f"{label}: exit {r.rc}: {r.err.strip()[-300:]}")
            check(r)
        return Op(label, run, checked)

    def _doc(self, path) -> tuple[dict, oracle.ModelCounts]:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        return doc, oracle.count_model(doc)

    def round(self):
        ops = []
        for model, (side, classes, path) in self.models.items():
            def check_build(r, model=model, classes=classes, path=path):
                want = zoo_params(model, classes)
                expect(f": {want:,} params" in r.out, f"build {model}: {r.out.strip()!r}, want {want:,}")
                expect(self._doc(path)[1].params == want, f"build {model}: written JSON disagrees")
            ops.append(self._cli("build", ["build", model, "--classes", classes,
                                           "--input", f"{side}x{side}x3", "--out", path], check_build))

        analyses = (("xception", "json", "training", "adam"), ("optimized-xception", "json", "inference", "adam"),
                    ("mobilenetv2", "table", "training", "sgd"), ("xception", "table", "inference", "adam"))
        for model, fmt, mode, opt in analyses:
            path = self.models[model][2]

            def check_analyze(r, path=path, fmt=fmt, mode=mode, opt=opt):
                doc, want = self._doc(path)
                mem = want.memory_total(mode, "sgd_momentum" if opt == "sgd" else opt, self.batch,
                                        nodes=doc["nodes"])
                if fmt == "json":
                    got = json.loads(r.out)
                    seen = (got["params"]["total"], got["params"]["total_trainable"],
                            got["flops_macs"], got["memory"]["total_bytes"])
                else:
                    nums = [int(re.search(pat, r.out).group(1).replace(",", "")) for pat in
                            (r"total params: ([\d,]+)", r"trainable: ([\d,]+)",
                             r"flops \(MACs\): ([\d,]+)", r"total=([\d,]+) bytes")]
                    seen = tuple(nums)
                expect(seen == (want.params, want.trainable, want.macs, mem),
                       f"analyze {fmt} {mode}: {seen} != {(want.params, want.trainable, want.macs, mem)}")
            ops.append(self._cli("analyze", ["analyze", "--in", path, "--format", fmt, "--mode", mode,
                                             "--optimizer", opt, "--batch", self.batch], check_analyze))

        xception = self.models["xception"][2]
        transformed, report = self.dir / "transformed.json", self.dir / "report.json"

        def check_transform(r):
            want = zoo_params("optimized-xception", self.models["xception"][1])
            expect(r.out.strip().endswith(f"-> {want:,}"), f"transform: {r.out.strip()!r}, want {want:,}")
            expect(self._doc(transformed)[1].params == want, "transform: written JSON disagrees")
            passes = [p["pass_name"] for p in json.loads(report.read_text(encoding="utf-8"))]
            expect(passes == ["strategy1_replace_kernels", "strategy2_insert_fire"],
                   f"transform report lists {passes}")
        ops.append(self._cli("transform", ["transform", "--in", xception, "--pass", "all", "--specs",
                                           self.dir / "specs.json", "--out", transformed,
                                           "--report", report], check_transform))

        def check_diff(r):
            a, b = self._doc(xception)[1].params, self._doc(transformed)[1].params
            total = next((ln for ln in r.out.splitlines() if ln.startswith("total")), "")
            expect(f"{a:,}" in total and f"{b:,}" in total, f"diff totals {total!r}, want {a:,} / {b:,}")
        ops.append(self._cli("diff", ["diff", "--a", xception, "--b", transformed], check_diff))

        for name, (path, rows) in self.fixtures.items():
            plot = self.dir / f"plot_{name}.csv"

            def check_pareto(r, rows=rows, plot=plot, name=name):
                flags = oracle.dominance_front([(a, m) for _, a, m in rows])
                mid = oracle.memory_midpoint([m for _, _, m in rows])
                for (model, a, m), f in zip(rows, flags):
                    line = (f"{model}: test_acc={a:g} mem={m:g} "
                            f"quadrant={oracle.quadrant(a, m, 70.0, mid)} on_front={str(f).lower()}")
                    expect(line in r.out.splitlines(), f"pareto {name}: no line {line!r}")
                front = [model for (model, _, _), f in zip(rows, flags) if f]
                got = next(ln for ln in r.out.splitlines() if ln.startswith("pareto_front: "))
                expect(sorted(got[len("pareto_front: "):].split(", ")) == sorted(front),
                       f"pareto {name}: {got!r}, oracle front {front}")
                cells = list(csv.reader(plot.read_text(encoding="utf-8").splitlines()[2:]))
                expect(all(len(c) == 5 for c in cells) and len(cells) == len(rows) + 1,
                       f"pareto {name}: plot CSV rows do not read back with 5 cells")
            ops.append(self._cli("pareto", ["pareto", "--csv", path, "--out", plot], check_pareto))
        return ops

    # each subcommand is a process start too, and drifts with the machine the same way
    reference = Workload.bare_start

    def baselines(self) -> list[Op]:
        """Bare interpreter start and ``import cndkit.cli``, to split each call."""
        def ok(r, full):
            expect(r.rc == 0, f"baseline child exit {r.rc}: {r.err.strip()[-300:]}")
        return [Op("interpreter", lambda: self.child("-c", "pass"), ok, counted=False),
                Op("import", lambda: self.child("-c", "import cndkit.cli"), ok, counted=False)]

    def trace_round(self):
        """Each subcommand right after its own two baselines, so that machine
        speed drifts little between the calls that are subtracted."""
        return [op for cmd in self.round() for op in (*self.baselines(), cmd)]

    def peak_ops(self):
        return self.round()

    def probe(self):
        return self.trace_round()


WORKLOADS = {w.name: w for w in (ZooRoundtrip, DeepGraphs, CliSession, ParetoSweep)}
