import gc
import io
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

import pytest

from cndkit.cli import main
from cndkit.zoo import build_mobilenet_v2, build_optimized_xception, build_xception


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    exception: SystemExit | None  # the SystemExit of a non-zero exit

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def run_cli(args: list[str]) -> CliResult:
    """Run ``sys.exit(main(args))`` in this process, as ``python -m cndkit.cli``
    does, with stdout and stderr captured. Any exception but ``SystemExit``
    propagates to the test."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            sys.exit(main(args))
        except SystemExit as exc:
            ended = exc
    return CliResult(ended.code, out.getvalue(), err.getvalue(), ended if ended.code else None)


def traced(call):
    """``call()``'s result, the traced bytes still allocated after it (what
    the result keeps alive) and the traced peak during it. ``gc.collect``
    before and after empties the interpreter's free lists, which tracemalloc
    would count as allocated."""
    call()  # anything made once, on a first call, is made outside the trace
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


@pytest.fixture(scope="session")
def xception():
    return build_xception()


@pytest.fixture(scope="session")
def optimized():
    return build_optimized_xception()


@pytest.fixture(scope="session")
def mobilenet():
    return build_mobilenet_v2()
