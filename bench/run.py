"""bxsim benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload simulate-trace --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository; the program is imported from its
``src`` directory.  The workloads are defined in ``bench/workloads.py`` and
listed with their reasons in ``BENCHMARK.json``.

The run generates the workload's inputs from ``--seed`` and then starts
fresh interpreters (``bench/worker.py``) one at a time, with BLAS/OpenMP
threads pinned to 1: several that only time ``import bxsim.cli``, and one
that calls ``bxsim.cli.main`` on the inputs for ``--seconds`` seconds and
checks every output.  It prints every metric with its unit, writes the full
record (machine fingerprint, output digests, per-repetition times) to
``.bench_results/``, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, taken untraced:

* ``wall_s``: median seconds inside ``cli.main`` per repetition of the
  workload's calls;
* ``setup_s``: median seconds to ``import bxsim.cli`` in a fresh interpreter;
* ``peak_rss_mb``: peak resident memory of the measuring interpreter.

``rounds_per_s`` (simulated rounds over ``wall_s``, simulation workloads
only) and ``error_frac`` (failed over attempted CLI calls) are printed too.
A call fails on a non-zero exit, a missing output, a wrong row count, a
non-finite number, bytes that differ between repetitions, or, at the default
seed, a SHA-256 other than the pinned one.

With ``--trace 1`` the metrics are the per-layer ones from traced
repetitions (see ``bench/tracing.py``), each the median over repetitions,
plus the tracing overhead: traced minus untraced ``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads  # bench/ is on sys.path as the script's directory
from worker import sha256

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

# Every worker gets one BLAS/OpenMP thread and one string-hash layout.
WORKER_ENV = {
    **{var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")},
    "PYTHONHASHSEED": "0",
}

SETUP_PROBES_PER_SIDE = 5  # import-only workers before and after the measuring one
RUN_LIMIT_S = 175  # a run must end within 180 s

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# Metric names are Tracer.summary() keys, except the overhead; every one is
# reported on every workload, 0 where the layer does no work.
PER_LAYER = [
    ("trace.overhead_s", "s"),
    ("cli.main.self_s", "s"),
    ("simulate.RoundEngine.play.calls", "count"),
    ("simulate.RoundEngine.play.s", "s"),
    ("simulate.sample_exponentials.calls", "count"),
    ("simulate.sample_exponentials.s", "s"),
    ("simulate.run_simulation.self_s", "s"),
    ("simulate.RoundEngine.init.calls", "count"),
    ("simulate.RoundEngine.init.s", "s"),
    ("adapt.run_adaptive_simulation.self_s", "s"),
    ("adapt.observe_and_update.calls", "count"),
    ("adapt.observe_and_update.s", "s"),
    ("adapt.floored.count", "count"),
    ("equilibrium.coded_equilibrium.calls", "count"),
    ("equilibrium.coded_equilibrium.s", "s"),
    ("linsolve.solve.calls", "count"),
    ("linsolve.solve.s", "s"),
    ("model.accessor.calls", "count"),
    ("equilibrium.node_cost_at_ne.calls", "count"),
    ("equilibrium.node_cost_at_ne.s", "s"),
    ("model.load_scenario.s", "s"),
    ("model.require_valid.calls", "count"),
    ("model.require_valid.s", "s"),
    ("cli.write_csv.calls", "count"),
    ("cli.write_csv.s", "s"),
    ("cli.write_csv.bytes", "bytes"),
    ("cli.gen_two_file.s", "s"),
    ("cli.dump_scenarios.s", "s"),
]


class BenchError(Exception):
    """The run could not take its measurement; no result is printed."""


def spawn(spec: dict, workdir: Path, tag: str, deadline: float) -> dict:
    """Run one worker interpreter to completion and return its result."""
    spec_path, result_path = workdir / f"{tag}.spec.json", workdir / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(spec_path), str(result_path)],
            cwd=ROOT, env={**os.environ, **WORKER_ENV}, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"worker {tag} ran past the time limit") from exc
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(result_path.read_text())


def measure(args, workdir: Path, results: Path) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_LIMIT_S
    ops = workloads.build(args.workload, args.seed, workdir)
    pinned = workloads.PINNED[args.workload] if args.seed == workloads.DEFAULT_SEED else None
    inputs = {p.name: sha256(p) for p in sorted(workdir.iterdir())}
    if pinned is not None:
        for name, digest in inputs.items():
            if pinned.get(name) != digest:
                raise BenchError(f"input {name} differs from the pinned default-seed input")
    spec = {
        "mode": "trace" if args.trace else "run",
        "ops": [op.to_dict() for op in ops],
        "workdir": str(workdir),
        "seconds": args.seconds,
        "pinned": pinned,
        "spans_path": str(results / f"{args.workload}-seed{args.seed}-spans.csv"),
    }
    # Set-up probes straddle the measuring worker, so their median spans
    # the machine's drift over the run rather than one moment of it.
    def probes(side: str) -> list[float]:
        count = 0 if args.trace else SETUP_PROBES_PER_SIDE
        return [spawn({"mode": "setup"}, workdir, f"setup-{side}{i}", deadline)["setup_s"] for i in range(count)]

    setups = probes("before")
    main = spawn(spec, workdir, "main", deadline)
    setups += [main["setup_s"]] + probes("after")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "shape": workloads.WORKLOADS[args.workload].shape,
        "argv": [op.argv for op in ops],
        "input_sha256": inputs,
        "output_sha256": main["digests"],
        "pinned_checked": pinned is not None,
        **{k: main[k] for k in ("fingerprint", "walls", "attempted", "failed", "problems")},
    }
    wall_q = statistics.quantiles(main["walls"], n=4)
    rounds = sum(op.rounds for op in ops)
    error_frac = main["failed"] / main["attempted"]
    report = [("error_frac", error_frac, "1", f"{main['failed']} of {main['attempted']} CLI calls failed")]
    if args.trace:
        walls_traced = [wall for wall, _ in main["traced"]]
        metrics = {"trace.overhead_s": (statistics.median(walls_traced) - wall_q[1], "s")}
        for name, unit in PER_LAYER[1:]:
            if name in main["counts"]:
                metrics[name] = (main["counts"][name], unit)
            else:
                metrics[name] = (statistics.median(layers.get(name, 0) for _, layers in main["traced"]), unit)
        report.append(("wall_s untraced", wall_q[1], "s", f"median of {len(main['walls'])}"))
        report.append(("wall_s traced", statistics.median(walls_traced), "s", f"median of {len(walls_traced)}"))
        record["walls_traced"] = walls_traced
        record["absent"] = main["absent"]
        if main["absent"]:
            report.append(("absent boundaries", len(main["absent"]), "count", ", ".join(main["absent"])))
    else:
        values = {"wall_s": wall_q[1], "setup_s": statistics.median(setups), "peak_rss_mb": main["peak_rss_mb"]}
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        record["setups"] = setups
        report.insert(0, ("wall_s first quartile", wall_q[0], "s", f"third {wall_q[2]:.6g} s, {len(main['walls'])} repetitions"))
        if rounds:
            report.append(("rounds_per_s", rounds / wall_q[1], "1/s", f"{rounds} rounds per repetition"))
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["report"] = report
    return record, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "bxsim" / "cli.py").is_file():
        print(f"bxsim sources not found under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        record, metrics = measure(args, workdir, results)
    except BenchError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    fp = record["fingerprint"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ({record['shape']})")
    print(f"machine: python {fp['python']}, numpy {fp['numpy']}, nproc {fp['nproc']}, {fp['cpu']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for name, value, unit, note in record["report"]:
        print(f"  {name:40s} {value:14.6g} {unit}  ({note})")
    for name, digest in sorted(record["output_sha256"].items()):
        print(f"  sha256 {name:32s} {digest}")
    if record["pinned_checked"]:
        print("  default seed: output digests compared with the pinned ones")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
