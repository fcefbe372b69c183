"""The benchmark's pinned outputs, checked at tier 1.

``bench/workloads.py`` writes each workload's inputs at its default seed and
pins the SHA-256 of every input and output file.  Playing its operations
through ``bxsim.cli.main`` here makes a change that alters any benchmark
output fail the test suite, not only the benchmark.  The module is loaded
from its file and only read.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from bxsim.cli import main

spec = importlib.util.spec_from_file_location("bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up there
spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.PINNED))
def test_workload_outputs_are_pinned(tmp_path, name):
    ops = workloads.build(name, workloads.DEFAULT_SEED, tmp_path)
    for op in ops:
        assert main(op.argv) == 0, op.name
    # every file present is pinned, so a stray or partial file fails too
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == workloads.PINNED[name]
