"""The benchmark's pinned outputs and traced boundaries, checked at tier 1.

``bench/workloads.py`` writes each workload's inputs at its default seed and
pins the SHA-256 of every input and output file.  Playing its operations
through ``bxsim.cli.main`` here makes a change that alters any benchmark
output fail the test suite, not only the benchmark.  ``bench/tracing.py``
names the functions it times; a change that renames one, or hands
``write_csv`` what the tracer cannot size, fails here too.  Both modules are
loaded from their files and only read.  The pinned digests, these and
``test_cli.TestPinnedOutputs``, must also hold on libm's ``log1p``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bxsim.cli
from bxsim.cli import main

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


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


# Turns off numpy's AVX512 kernels, so that np.log1p takes libm's values,
# which differ in the last bit for some timers.
LIBM_LOG1P = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}
LOG1P_DIGEST = (
    "import hashlib, numpy as np\n"
    "u = np.random.Generator(np.random.PCG64(0)).random(10**6)\n"
    "print(hashlib.sha256(np.log1p(-u).tobytes()).hexdigest())\n"
)


def test_pinned_digests_hold_on_the_libm_log1p_path():
    # CSV bytes (%.9g) are pinned across numpy's log1p paths; raw floats,
    # such as a run's elapsed time, only per path.
    env = {key: value for key, value in os.environ.items() if key not in LIBM_LOG1P}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    digests = []
    for path_env in (env, {**env, **LIBM_LOG1P}):
        argv = [sys.executable, "-W", "error", "-c", LOG1P_DIGEST]  # numpy warns of a feature it cannot turn off
        probe = subprocess.run(argv, env=path_env, capture_output=True, text=True, timeout=60)
        if probe.returncode:
            why = probe.stderr.strip().rpartition("\n")[2]
            pytest.skip(f"numpy does not take {LIBM_LOG1P} on this host: {why}")
        digests.append(probe.stdout)
    if digests[0] == digests[1]:
        pytest.skip(f"{LIBM_LOG1P} leaves np.log1p's bits unchanged on this host")
    pinned = ["tests/test_bench_pins.py::test_workload_outputs_are_pinned", "tests/test_cli.py::TestPinnedOutputs"]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *pinned],
        cwd=ROOT, env={**env, **LIBM_LOG1P}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0 and re.fullmatch(r"\d+ passed in .*", proc.stdout.splitlines()[-1]), proc.stdout


# Traced boundaries gone from bxsim, which the benchmark's repair repoints or
# drops; every other boundary must resolve.
STALE_BOUNDARIES = {
    "bxsim.cli.gen_two_file",
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
