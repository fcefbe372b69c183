"""The benchmark's pinned outputs and traced boundaries, checked at tier 1.

``bench/workloads.py`` writes each workload's inputs at its default seed and
pins the SHA-256 of every input and output file.  Playing its operations
through ``bxsim.cli.main`` here makes a change that alters any benchmark
output fail the test suite, not only the benchmark.  ``bench/tracing.py``
names the functions it times; a change that renames one, or hands
``write_csv`` what the tracer cannot size, fails here too.  Both modules are
loaded from their files and only read.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import sys
from pathlib import Path

import pytest

import bxsim.cli
from bxsim.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up there
    spec.loader.exec_module(module)
    return module


workloads = load("bench_workloads", BENCH / "workloads.py")
tracing = load("bench_tracing", BENCH / "tracing.py")


@pytest.mark.parametrize("name", sorted(workloads.PINNED))
def test_workload_outputs_are_pinned(tmp_path, name):
    ops = workloads.build(name, workloads.DEFAULT_SEED, tmp_path)
    for op in ops:
        assert main(op.argv) == 0, op.name
    # every file present is pinned, so a stray or partial file fails too
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == workloads.PINNED[name]


# Traced boundaries gone from bxsim, which the benchmark's repair repoints or
# drops; every other boundary must resolve.
STALE_BOUNDARIES = {
    "bxsim.model.require_valid",
    "bxsim.simulate.RoundEngine.play",
    "bxsim.simulate.sample_exponentials",
    "bxsim.equilibrium.node_cost_at_ne",
    "bxsim.linsolve.solve",
    "bxsim.model.Scenario.ratio",
    "bxsim.model.Scenario.group",
    "bxsim.model.Scenario.complement",
}


def test_traced_boundaries_resolve():
    with tracing.Tracer() as tracer:
        absent = sorted(tracer.absent)
    assert absent == sorted(STALE_BOUNDARIES)


def test_write_csv_gets_the_out_path(tmp_path, monkeypatch):
    # the tracer sizes what write_csv wrote with os.path.getsize(args[0])
    paths = []
    write_csv = bxsim.cli.write_csv

    def recording(out, *rest):
        paths.append(os.fspath(out))
        write_csv(out, *rest)

    monkeypatch.setattr(bxsim.cli, "write_csv", recording)
    out = str(tmp_path / "fig3.csv")
    assert main(["fig3", "--files", "3", "--out", out]) == 0
    assert paths == [out]
