"""One benchmark run inside a fresh interpreter.

Usage: ``python3 bench/worker.py SPEC.json RESULT.json``, started by
``bench/run.py``.  The worker times ``import bxsim.cli`` before anything
else loads numpy, then repeats the workload's CLI calls until the spec's
time is up and checks every output file after every call.  Modes:

* ``setup``: only time the import.
* ``run``: untraced repetitions; the end-to-end numbers come from these.
* ``trace``: one repetition with call counters on the hot model accessors,
  then untraced and span-traced repetitions in turn, for the per-layer
  numbers and the tracing overhead.

Each CLI call runs with its stdout and stderr captured in memory.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(1, str(BENCH))

from tracing import Tracer  # noqa: E402  (standard library only)

MIN_REPS = 3


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def output_problem(path: Path, rows: int) -> str | None:
    """Why an output file is wrong, or None: a row count other than
    ``rows``, or a number that is not finite."""
    try:
        if path.suffix == ".json":
            count = len(json.loads(path.read_text(), parse_constant=_reject_constant))
        else:
            count = -1  # the header
            with open(path, newline="") as fh:
                for row in csv.reader(fh):
                    count += 1
                    for cell in row:
                        try:
                            value = float(cell)
                        except ValueError:
                            continue
                        if not math.isfinite(value):
                            return f"{path.name}: non-finite value {cell!r} in row {count}"
    except (OSError, ValueError) as exc:
        return f"{path.name}: {exc}"
    if count != rows:
        return f"{path.name}: {count} rows, expected {rows}"
    return None


class Checker:
    """Checks each call's exit code and output files.

    Every repetition must write the same bytes as the first one; with
    ``pinned`` digests (the default seed) they must also match those."""

    def __init__(self, workdir: Path, pinned: dict[str, str] | None):
        self.workdir = workdir
        self.pinned = pinned
        self.digests: dict[str, str] = {}
        self._verdicts: dict[tuple[str, str], str | None] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, op: dict, rc, stderr: str) -> None:
        self.attempted += 1
        problems = [] if rc == 0 else [f"{op['name']}: exit {rc}: {stderr.strip()[-500:]}"]
        for out in op["outputs"]:
            path = self.workdir / out["name"]
            if not path.is_file():
                problems.append(f"{out['name']}: missing")
                continue
            digest = sha256(path)
            first = self.digests.setdefault(out["name"], digest)
            if digest != first:
                problems.append(f"{out['name']}: bytes differ from the first repetition")
            if self.pinned is not None and digest != self.pinned.get(out["name"]):
                problems.append(f"{out['name']}: sha256 {digest} is not the pinned one")
            key = (out["name"], digest)
            if key not in self._verdicts:
                self._verdicts[key] = output_problem(path, out["rows"])
            if self._verdicts[key]:
                problems.append(self._verdicts[key])
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def run_op(cli_main, argv: list[str]) -> tuple[float, object, str]:
    """Call the CLI once with its output captured: (seconds, exit code or
    error text, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli_main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a traceback is a failed op, recorded, not a crashed run
            rc = "exception"
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return elapsed, rc, err.getvalue()


def run_rep(cli_main, ops: list[dict], checker: Checker, tracer: Tracer | None = None) -> float:
    """Run every op once; returns the seconds spent inside ``cli.main``."""
    gc.collect()
    wall = 0.0
    for op in ops:
        if tracer is None:
            elapsed, rc, err = run_op(cli_main, op["argv"])
        else:
            with tracer:
                root = tracer.begin("cli.main")
                elapsed, rc, err = run_op(cli_main, op["argv"])
                tracer.end(root)
        wall += elapsed
        checker.check(op, rc, err)
    return wall


def fingerprint() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def main(spec_path: str, result_path: str) -> int:
    start = time.perf_counter()
    import bxsim.cli

    setup_s = time.perf_counter() - start
    spec = json.loads(Path(spec_path).read_text())
    result: dict = {"setup_s": setup_s}
    if spec["mode"] != "setup":
        checker = Checker(Path(spec["workdir"]), spec["pinned"])
        deadline = time.perf_counter() + spec["seconds"]
        walls: list[float] = []
        traced: list[tuple[float, dict]] = []
        tracer = None
        if spec["mode"] == "trace":
            # Counters on hot accessors would inflate every span around
            # them, so they get one repetition of their own: counts repeat
            # exactly, times do not.
            counter = Tracer(spans=[])
            run_rep(bxsim.cli.main, spec["ops"], checker, counter)
            result.update(counts=counter.counts, absent=counter.absent)
        while len(walls) < MIN_REPS or time.perf_counter() < deadline:
            walls.append(run_rep(bxsim.cli.main, spec["ops"], checker))
            if spec["mode"] == "trace":
                tracer = Tracer(counters=[])
                traced.append((run_rep(bxsim.cli.main, spec["ops"], checker, tracer), tracer.summary()))
        if tracer is not None:
            tracer.write_spans(spec["spans_path"])
            result["absent"] += tracer.absent
        result.update(
            walls=walls,
            traced=traced,
            attempted=checker.attempted,
            failed=checker.failed,
            problems=checker.problems[:50],
            digests=checker.digests,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            fingerprint=fingerprint(),
        )
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
