"""Run a fixed list of ``cndkit`` calls and keep everything they print and write.

    python tools/cli_snapshot.py DIR [--src CHECKOUT/src]
    python tools/cli_snapshot.py DIR --against REV

Each call in ``CALLS`` runs as ``python -m cndkit.cli ARGS`` in ``DIR``, with
the package taken from ``--src`` (by default the ``src`` beside this script).
Its stdout, stderr and exit code go to ``DIR/NAME.stdout``, ``NAME.stderr`` and
``NAME.exit``; the files it writes stay in ``DIR`` under the names its
arguments give. The inputs the calls read (the bundled measurement CSVs, spec
and config files, edge-case CSVs and models) are written to ``DIR`` first.
Paths are relative to ``DIR``, so two snapshots made from two checkouts, in
two directories, compare byte for byte::

    python tools/cli_snapshot.py /tmp/old --src OLD_CHECKOUT/src
    python tools/cli_snapshot.py /tmp/new
    diff -r /tmp/old /tmp/new

A call that writes no file, such as a rejected transform, shows that too:
``diff -r`` reports a file only one side has.

``--against REV`` makes both snapshots and compares them in one run: it takes
``REV``'s ``src`` with ``git archive`` into a temporary directory, snapshots it
into ``DIR/parent`` and this checkout's ``src`` into ``DIR/change``, prints
each file that differs or that only one side has, and exits 1 if there is any
(0 when every file, exit codes included, is byte-identical, and 2 when ``REV``
cannot be archived). Neither
directory may exist yet, so no file left from an earlier run is compared::

    python tools/cli_snapshot.py /tmp/snap --against HEAD~1
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

MODELS = ("xception", "optimized-xception", "mobilenetv2")
FIXTURES = ("caltech101", "pcb_scratch", "pcb_pretrained")
CSV_HEADER = "model,experiment,train_acc,test_acc,avg_mem_mb,avg_epoch_time_s,avg_inf_time_ms,params\n"
# Names holding characters that would break an output line if printed raw.
CONTROL_NAMES = ("a\nb: test_acc=99 mem=1 quadrant=HighAccLowMem on_front=true",
                 "carriage\rreturn", "clear\x1b[2Jscreen", "line\u2028separator")

_DEFAULT_FIRE = {
    "entry_flow/m2": (64, 96, 128), "entry_flow/m3": (128, 192, 256),
    "entry_flow/m4": (256, 364, 728),
    **{f"middle_flow/m{i}": (414, 600, 728) for i in range(5, 13)},
}


def _spec(widths: tuple[int, int, int]) -> dict[str, int]:
    return dict(zip(("s1x1", "e1x1", "e3x3"), widths))


def _specs(widths: dict[str, tuple[int, int, int]]) -> str:
    return json.dumps({tag: _spec(w) for tag, w in widths.items()})


def _control_model() -> str:
    """A small valid model whose name, node ids and module tag hold control
    characters."""
    node = {"kind": "Conv2D", "attrs": {"filters": 8, "kernel": 3}, "tag": None}
    nodes = [
        {"id": "input", "kind": "Input", "attrs": {}, "inputs": [], "tag": None},
        {**node, "id": "conv\nforged", "inputs": ["input"], "tag": "flow/m\r1/main"},
        {**node, "id": "conv\x1b[2J", "inputs": ["conv\nforged"], "tag": "flow/m\u20282/main"},
        {"id": "pool", "kind": "GlobalAvgPool", "attrs": {}, "inputs": ["conv\x1b[2J"], "tag": None},
        {"id": "head", "kind": "Dense", "attrs": {"units": 10}, "inputs": ["pool"], "tag": None},
    ]
    return json.dumps({"schema_version": 1, "name": "m\ntotal params: 1 (0.0M), trainable: 1",
                       "input_shape": [32, 32, 3], "num_classes": 10, "metadata": {},
                       "nodes": nodes})


# Inputs written to DIR before the calls, by file name.
INPUTS = {
    "specs-default.json": _specs(_DEFAULT_FIRE),
    "specs-wide-m5.json": _specs({**_DEFAULT_FIRE, "middle_flow/m5": (500, 700, 728)}),
    # m6 alone narrowed: the untouched m7's residual Add then joins 700 and 728 channels
    "specs-broken-m6.json": _specs({"middle_flow/m6": (414, 600, 700)}),
    "specs-empty.json": "{}",
    "specs-m2-300.json": _specs({"entry_flow/m2": (300, 96, 128)}),
    "config.json": json.dumps({"entry_fire": [_spec(w) for w in list(_DEFAULT_FIRE.values())[:3]],
                               "middle_fire": [_spec(w) for w in list(_DEFAULT_FIRE.values())[3:]]}),
    "config-bad.json": json.dumps({"entry_fire": [], "middle_fire": [{"s1x1": 1}]}),
    "control.json": _control_model(),
    "control.csv": CSV_HEADER + "".join(
        f'"{name}",run,90,{80 - i},{10 + i},,,\n' for i, name in enumerate(CONTROL_NAMES)),
    "edge.csv": (CSV_HEADER.replace("\n", "\r\n") + 'plain,run,90,80,10,,,\r\n\r\n'
                 '"quoted\nbreak",run,90,85,20,1.5,2.5,1000\r\n"comma, name",run,90,70,5,,,\r\n'),
    "open-quote.csv": CSV_HEADER + 'plain,run,90,80,10,,,\n"open,run,90,80,10,,,\n',
    "short-row.csv": CSV_HEADER + "short,run,90\n",
    "empty.csv": "",
    "range.csv": CSV_HEADER + "bad,run,90,120,10,,,\n",
    # a UTF-8 byte-order mark at the start of a file is dropped
    "bom.csv": "\ufeff" + CSV_HEADER + 'plain,run,90,80,10,,,\n"comma, name",run,90,85,20,1.5,2.5,1000\n',
    "bom.json": "\ufeff" + _control_model(),
    "invalid.json": "{not json",
    "schema-2.json": json.dumps({"schema_version": 2}),
}

CALLS: list[tuple[str, list[str]]] = [
    *[(f"build-{m}", ["build", m, "--out", f"{m}.json"]) for m in MODELS],
    ("build-small", ["build", "xception", "--classes", "10", "--input", "71x71x3",
                     "--out", "small.json"]),
    ("build-config", ["build", "optimized-xception", "--config", "config.json",
                      "--out", "config-model.json"]),
    *[call for m in MODELS for call in [
        (f"analyze-{m}-table", ["analyze", "--in", f"{m}.json"]),
        (f"analyze-{m}-json", ["analyze", "--in", f"{m}.json", "--format", "json"]),
        (f"analyze-{m}-inference-json", ["analyze", "--in", f"{m}.json", "--mode", "inference",
                                         "--format", "json"]),
        (f"analyze-{m}-inference-table", ["analyze", "--in", f"{m}.json", "--mode", "inference",
                                          "--batch", "8", "--optimizer", "sgd"]),
        *[(f"transform-{m}-{p}", ["transform", "--in", f"{m}.json", "--pass", p,
                                  "--out", f"transform-{m}-{p}.json",
                                  "--report", f"transform-{m}-{p}.report.json"])
          for p in ("all", "strategy1", "strategy2")],
    ]],
    *[(f"transform-xception-{p}-{s}", ["transform", "--in", "xception.json", "--pass", p,
                                       "--specs", f"specs-{s}.json",
                                       "--out", f"transform-xception-{p}-{s}.json",
                                       "--report", f"transform-xception-{p}-{s}.report.json"])
      for p in ("strategy2", "all") for s in ("default", "wide-m5", "broken-m6", "empty")],
    ("transform-optimized-m2-300", ["transform", "--in", "optimized-xception.json",
                                    "--pass", "strategy2", "--specs", "specs-m2-300.json",
                                    "--out", "transform-optimized-m2-300.json"]),
    ("diff-xception-optimized", ["diff", "--a", "xception.json", "--b", "optimized-xception.json"]),
    ("diff-xception-all", ["diff", "--a", "xception.json", "--b", "transform-xception-all.json"]),
    ("diff-mobilenetv2-self", ["diff", "--a", "mobilenetv2.json", "--b", "mobilenetv2.json"]),
    ("diff-optimized-xception", ["diff", "--a", "optimized-xception.json", "--b", "xception.json"]),
    *[call for f in FIXTURES for call in [
        (f"pareto-{f}", ["pareto", "--csv", f"{f}.csv"]),
        (f"pareto-{f}-explicit", ["pareto", "--csv", f"{f}.csv", "--memory-frontier", "50",
                                  "--accuracy-frontier", "80"]),
        (f"pareto-{f}-out", ["pareto", "--csv", f"{f}.csv", "--out", f"plot-{f}.csv"]),
    ]],
    ("pareto-edge", ["pareto", "--csv", "edge.csv", "--out", "plot-edge.csv"]),
    ("pareto-open-quote", ["pareto", "--csv", "open-quote.csv"]),
    ("pareto-short-row", ["pareto", "--csv", "short-row.csv"]),
    ("pareto-empty", ["pareto", "--csv", "empty.csv", "--out", "plot-empty.csv"]),
    # names with control characters, printed escaped on one line each
    ("pareto-control", ["pareto", "--csv", "control.csv", "--out", "plot-control.csv"]),
    ("analyze-control-table", ["analyze", "--in", "control.json"]),
    ("analyze-control-json", ["analyze", "--in", "control.json", "--format", "json"]),
    ("pareto-bom", ["pareto", "--csv", "bom.csv", "--out", "plot-bom.csv"]),
    ("analyze-bom-json", ["analyze", "--in", "bom.json", "--format", "json"]),
    ("diff-control", ["diff", "--a", "control.json", "--b", "control.json"]),
    # errors: exit 1 (constraint), 2 (I/O) and 3 (parse)
    ("error-range", ["pareto", "--csv", "range.csv"]),
    ("error-missing", ["analyze", "--in", "missing.json"]),
    ("error-out-dir", ["pareto", "--csv", "caltech101.csv", "--out", "."]),
    ("error-invalid-json", ["analyze", "--in", "invalid.json"]),
    ("error-schema", ["diff", "--a", "schema-2.json", "--b", "xception.json"]),
    ("error-config", ["build", "optimized-xception", "--config", "config-bad.json"]),
    ("error-memory-frontier", ["pareto", "--csv", "caltech101.csv", "--memory-frontier", "x"]),
    # help and usage errors (exit 0 and 2)
    ("help-main", ["--help"]),
    *[(f"help-{c}", [c, "--help"]) for c in ("build", "transform", "analyze", "diff", "pareto")],
    ("usage-none", []),
    ("usage-input", ["build", "xception", "--input", "1x2"]),
    ("usage-config", ["build", "xception", "--config", "config.json"]),
    ("usage-specs", ["transform", "--in", "xception.json", "--pass", "strategy1",
                     "--specs", "specs-default.json", "--out", "never.json"]),
    ("usage-choice", ["build", "resnet"]),
    ("usage-int", ["build", "xception", "--classes", "x"]),
    ("usage-unknown", ["analyze", "--in", "xception.json", "--nope"]),
    ("usage-missing", ["analyze"]),
    ("usage-abbrev", ["analyze", "--in", "xception.json", "--form", "json"]),
    ("usage-dash-value", ["build", "xception", "--out", "-o"]),
]


def snapshot(directory: Path, src: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name in FIXTURES:
        shutil.copyfile(src / "cndkit" / "fixtures" / f"{name}.csv", directory / f"{name}.csv")
    for name, text in INPUTS.items():
        (directory / name).write_text(text, encoding="utf-8", newline="")
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), PYTHONIOENCODING="utf-8", COLUMNS="80")
    for name, args in CALLS:
        proc = subprocess.run([sys.executable, "-m", "cndkit.cli", *args], cwd=directory,
                              env=env, capture_output=True, timeout=120)
        (directory / f"{name}.stdout").write_bytes(proc.stdout)
        (directory / f"{name}.stderr").write_bytes(proc.stderr)
        (directory / f"{name}.exit").write_text(f"{proc.returncode}\n", encoding="utf-8")


def differences(old: Path, new: Path) -> list[str]:
    """One line per file, by path relative to ``old`` and ``new``, that
    differs between the two trees or that only one of them has."""
    def files(root: Path) -> set[Path]:
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

    found, ours = files(old), files(new)
    return ([f"only in {old.name}: {p}" for p in sorted(found - ours)]
            + [f"only in {new.name}: {p}" for p in sorted(ours - found)]
            + [f"differs: {p}" for p in sorted(found & ours)
               if (old / p).read_bytes() != (new / p).read_bytes()])


def against(directory: Path, rev: str, src: Path) -> int:
    """Snapshot ``rev``'s src and ``src`` into ``directory``; print each
    difference and return 1 if there is any, else 0 (2 when ``git archive``
    fails)."""
    repo = Path(__file__).resolve().parents[1]
    archive = subprocess.run(["git", "-C", str(repo), "archive", rev, "src"], capture_output=True)
    if archive.returncode:
        print(f"git archive {rev} failed: {archive.stderr.decode(errors='replace').strip()}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            # The data filter (Python 3.12, 3.11.4 and 3.10.12 on) refuses members that
            # would land outside tmp; older versions extract this repository's own archive as is.
            tar.extractall(tmp, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        snapshot(directory / "parent", Path(tmp) / "src")
    snapshot(directory / "change", src)
    lines = differences(directory / "parent", directory / "change")
    for line in lines:
        print(line)
    if not lines:
        print(f"{sum(p.is_file() for p in (directory / 'change').rglob('*'))} files, all byte-identical")
    return 1 if lines else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("dir", type=Path, help="Directory to write the snapshot into.")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="The src directory of the checkout to run (default: this one's).")
    parser.add_argument("--against", metavar="REV",
                        help="Also snapshot REV's src (by git archive) and compare the two: "
                             "DIR/parent against DIR/change.")
    args = parser.parse_args()
    if args.against is None:
        snapshot(args.dir, args.src)
        return 0
    for side in ("parent", "change"):
        if (args.dir / side).exists():
            parser.error(f"{args.dir / side} exists; give a DIR without it")
    return against(args.dir, args.against, args.src)


if __name__ == "__main__":
    sys.exit(main())
