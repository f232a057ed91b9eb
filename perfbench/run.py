"""cndkit benchmark: one command, four seeded workloads, every metric by name.

    python3 perfbench/run.py --workload zoo_roundtrip --seed 1 --seconds 10 --trace 0

Run it from a checkout of the repository. It measures the source tree under
``src/`` (put first on the path for this process and its children), never an
installed copy, and exits with code 2 when there is none.

A run sets up its inputs several times (``setup_s`` is the median), makes one
untimed pass that takes the memory peak and the costly property checks, then
repeats whole rounds of the workload's operations until ``--seconds`` have
passed. Only the program's calls are timed; after each one the workload's
reference work runs (the timing metrics are in its units, see
``end_to_end``) and the result is checked. With ``--trace 1`` the same
rounds run with a span around every public call and the per-layer metrics
are printed instead; the spans go to
``.bench_out/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import layers  # the benchmark's own modules import nothing from cndkit at load time
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 13
# After each set-up, the median of this many bare starts and work_reference
# calls scales it (see end_to_end).
SETUP_BARE_STARTS = 3
SETUP_WORK_CALLS = 15


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Tally:
    """Operations attempted and failed; ``correct`` turns false on any failure
    other than the one named fault."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.faults: dict[str, int] = {}

    def record(self, op, result, full) -> None:
        """Check one operation; only operations of the workload's rounds count."""
        if op.counted:
            self.attempted += 1
        try:
            if isinstance(result, BaseException):
                raise result
            op.check(result, full)
        except workloads.KnownFault as exc:
            self.failed += op.counted
            self.faults[str(exc)] = self.faults.get(str(exc), 0) + 1
        except Exception as exc:  # any other disagreement or crash makes the run incorrect
            self.failed += op.counted
            self.correct = False
            msg = f"{type(exc).__name__}: {exc}"
            if msg not in self.faults:
                print(f"FAILED {op.label}: {msg}", file=sys.stderr)
            self.faults[msg] = self.faults.get(msg, 0) + 1


REFERENCE_SHARE = 0.1  # reference time sampled after each operation, as a share of its time
# Set-up times are scaled to these reference times, this machine's at its fast end.
BARE_START_NOMINAL_S = 0.055
WORK_REFERENCE_NOMINAL_S = 0.0015


def sample_reference(reference, at_least: float) -> tuple[float, int]:
    """Repeat ``reference`` at least once and for at least ``at_least``
    seconds; return (total seconds, calls)."""
    total, calls = 0.0, 0
    while calls == 0 or total < at_least:
        t = time.perf_counter()
        reference()
        total += time.perf_counter() - t
        calls += 1
    return total, calls


def median_call(fn, calls: int) -> float:
    """Median seconds of ``calls`` calls of ``fn``."""
    times = []
    for _ in range(calls):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def with_reference(refs, reference):
    """A runner for ``timed_rounds`` that samples ``reference`` after each
    operation for REFERENCE_SHARE of its time, recording (seconds, calls)."""
    def run(op):
        result, dt = run_op(op)
        refs.append(sample_reference(reference, REFERENCE_SHARE * dt))
        return result, dt
    return run


def run_op(op):
    t = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # the check reports it
        result = exc
    return result, time.perf_counter() - t


def timed_rounds(ops_of_round, seconds, tally, run=run_op):
    """Repeat whole rounds until ``seconds`` of wall time have passed; check
    every result between operations. Returns (label, seconds) per counted
    operation."""
    timings = []
    start = time.perf_counter()
    while True:
        for op in ops_of_round:
            result, dt = run(op)
            if op.counted:
                timings.append((op.label, dt))
            tally.record(op, result, full=False)
        if time.perf_counter() - start >= seconds:
            return timings


def peak_pass(wl, tally):
    """Untimed pass: tracemalloc peak per operation (or child max RSS for the
    CLI), with the full property checks."""
    peak_mb = 0.0
    for op in wl.peak_ops():
        gc.collect()
        if isinstance(wl, workloads.CliSession):
            result, _ = run_op(op)
            if not isinstance(result, BaseException):
                peak_mb = max(peak_mb, result.maxrss_kb * 1024 / 1e6)
        else:
            tracemalloc.start()
            try:
                result, _ = run_op(op)
                peak_mb = max(peak_mb, tracemalloc.get_traced_memory()[1] / 1e6)
            finally:
                tracemalloc.stop()
        checked = Tally()  # checked, but not part of the timed phase's count
        checked.record(op, result, full=True)
        tally.correct &= checked.correct
    return peak_mb


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl, timings, refs, setups, peak_mb):
    """End-to-end metrics; the two costs are in units of the workload's
    reference (see ``Workload.reference``).

    A shared host changes the speed of this machine by up to 2x within
    minutes, and every call slows alike. The reference runs right after
    each operation, so dividing by its time cancels that drift, while a
    change to the program still moves the cost. ``setup_s`` stays in
    seconds, scaled to the machine's fast end: its fresh-process import by
    BARE_START_NOMINAL_S over the median bare interpreter start measured
    right after it, the rest by WORK_REFERENCE_NOMINAL_S over the median
    ``work_reference`` call.
    """
    secs = [dt for _, dt in timings]
    ref_mean = sum(t for t, _ in refs) / sum(c for _, c in refs)
    local = [dt / (t / c) for dt, (t, c) in zip(secs, refs)]
    print(f"raw: {len(secs) / sum(secs):.4f} ops/s, median operation "
          f"{statistics.median(secs) * 1000:.4f} ms, reference {ref_mean * 1000:.4f} ms, "
          f"set-up {statistics.median(imp + rest for imp, rest, _, _ in setups):.4f} s")
    nominal = [imp / start * BARE_START_NOMINAL_S + rest / work * WORK_REFERENCE_NOMINAL_S
               for imp, rest, start, work in setups]
    return {
        "setup_s": metric(statistics.median(nominal), "s"),
        "op_cost_mean_x": metric(statistics.fmean(secs) / ref_mean, "x"),
        "op_cost_p50_x": metric(statistics.median(local), "x"),
        "peak_mem_mb": metric(peak_mb, "MB"),
    }


def print_breakdown(table) -> None:
    """Per operation label: median operation time, and each traced function's
    median self time and calls per operation."""
    for label, (n_ops, op_ms, per_span) in table.items():
        print(f"{label}: {n_ops} ops, median {op_ms:.2f} ms")
        for name, (ms, calls) in sorted(per_span.items(), key=lambda kv: -kv[1][0]):
            print(f"    {name:<40} {ms:10.3f} ms self  {calls:6g} calls")


def traced_run(wl, seed, seconds, tally):
    """Trace the workload's rounds for ``seconds``, then a short probe of each
    other workload whose layers this one does not reach.

    Every counted operation also runs once untraced right before or after
    its traced run (alternately), and the tracing overhead is the median of
    those paired differences, so slow drifts in machine speed cancel.
    """
    side = Tally()  # probes and baselines are checked but not counted
    peak_pass(wl, side)  # warm-up and the full checks; the peak is not reported
    tracer = tracing.Tracer()
    targets = layers.targets(wl.m)

    def traced(op, prefix):
        tracer.install(targets)
        try:
            tracer.op_id += 1
            with tracer.span(f"op:{prefix}{op.label}"):
                return run_op(op)
        finally:
            tracer.uninstall()

    pairs = []

    def paired(op):
        if not op.counted:
            return traced(op, f"{wl.name}:")
        if len(pairs) % 2:
            result, dt = traced(op, f"{wl.name}:")
            plain = run_op(op)[1]
        else:
            plain = run_op(op)[1]
            result, dt = traced(op, f"{wl.name}:")
        pairs.append(dt - plain)
        return result, dt

    timed_rounds(wl.trace_round(), seconds, tally, paired)
    found = layers.metrics(layers.operations(tracer, f"op:{wl.name}:"))
    for other_cls in workloads.WORKLOADS.values():
        if all(any(name.startswith(p) for name in found) for p in other_cls.probe_layers):
            continue
        other = other_cls(wl.ctx)
        try:
            other.setup(seed)
            timed_rounds(other.probe(), 0, side,
                         lambda op, prefix=f"{other.name}:": traced(op, prefix))
        finally:
            other.close()
        for name, value in layers.metrics(layers.operations(tracer, f"op:{other.name}:")).items():
            found.setdefault(name, value)
    tally.correct &= side.correct
    found["trace.overhead_ms"] = metric(statistics.median(pairs) * 1000, "ms")
    path = wl.ctx.out / f"trace-{wl.name}-seed{seed}.json"
    tracer.write(path)
    print_breakdown(layers.breakdown(layers.operations(tracer, "op:")))
    print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    missing = [name for name in layers.PER_LAYER if name not in found]
    if missing:
        raise SystemExit(f"perfbench: no measurement for {missing}")
    return {name: found[name] for name in layers.PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "cndkit" / "__init__.py").is_file():
        print(f"perfbench: no cndkit source tree at {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import cndkit
    if Path(cndkit.__file__).resolve().parent != (src / "cndkit").resolve():
        print(f"perfbench: imported cndkit from {cndkit.__file__}, not from {src}", file=sys.stderr)
        return 2

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    ctx = SimpleNamespace(root=ROOT, out=out, env=env)

    wl = workloads.WORKLOADS[args.workload](ctx)
    tally = Tally()
    try:
        setups = []  # (import s, rest s, bare start s, work_reference s)
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.fresh_import()
            t1 = time.perf_counter()
            wl.setup(args.seed)
            t2 = time.perf_counter()
            start = median_call(wl.bare_start, SETUP_BARE_STARTS)
            # The collector stays off, so the reference does not pay for
            # scanning the inputs the set-up just made.
            gc.disable()
            work = median_call(wl.work_reference, SETUP_WORK_CALLS)
            gc.enable()
            setups.append((t1 - t0, t2 - t1, start, work))
        # The inputs live for the whole run: keep the collector from rescanning
        # them inside the program's calls.
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics = traced_run(wl, args.seed, args.seconds, tally)
        else:
            peak_mb = peak_pass(wl, tally)
            gc.collect()
            refs = []
            timings = timed_rounds(wl.round(), args.seconds, tally,
                                   with_reference(refs, wl.reference))
            metrics = end_to_end(wl, timings, refs, setups, peak_mb)
    finally:
        wl.close()

    for fault, count in tally.faults.items():
        print(f"failed x{count}: {fault}")
    for name, m in metrics.items():
        print(f"{name:<34} {m['value']:>14.4f} {m['unit']}")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
