"""Tests of the benchmark itself: tracing must not change what bxsim writes,
and must leave bxsim exactly as it found it.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import bxsim.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import Checker, run_rep, sha256  # noqa: E402


def small_ops(workdir: Path) -> list[workloads.Op]:
    """Every op kind of the workloads, at a size that runs in about a second."""
    rng = np.random.default_rng(7)
    sim = workloads.write_config(workdir, "sim.json", workloads.population(rng, [5, 4], workloads.W_LO, workloads.W_HI))
    coded = workloads.write_config(workdir, "coded.json", workloads.population(rng, [6, 6, 6], 1.0, 1.0))
    two = workloads.write_config(workdir, "two.json", workloads.population(rng, [8, 8], workloads.W_LO, workloads.W_HI))
    return [
        workloads.simulate_op(workdir, sim, 9, 2000, 11),
        workloads.fig2_op(workdir, 3, 2),
        workloads.ne_coded_op(workdir, coded, 3, 18),
        workloads.poa_op(workdir, two, 16),
    ]


def bxsim_bindings() -> dict:
    """Every attribute of every bxsim module and of every class it defines."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "bxsim" or name.startswith("bxsim."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, type) and value.__module__.startswith("bxsim"):
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = member
    return out


def test_traced_and_untraced_runs_write_identical_bytes(tmp_path):
    ops = [op.to_dict() for op in small_ops(tmp_path)]
    plain = Checker(tmp_path, None)
    run_rep(bxsim.cli.main, ops, plain)
    traced = Checker(tmp_path, plain.digests)  # the untraced digests, pinned
    tracer = Tracer()
    run_rep(bxsim.cli.main, ops, traced, tracer)
    assert plain.failed == 0 and traced.failed == 0, plain.problems + traced.problems
    assert traced.digests == plain.digests
    layers = tracer.summary()
    assert layers["simulate.RoundEngine.play.calls"] == 2000 + 2 * 11 * 100
    assert layers["equilibrium.coded_equilibrium.calls"] == 1
    assert layers["equilibrium.node_cost_at_ne.calls"] == 2 * 16
    assert layers["cli.write_csv.calls"] == 4
    assert layers["model.accessor.calls"] > 0
    assert layers["cli.main.calls"] == 4
    assert tracer.absent == []


def test_tracer_leaves_bxsim_unpatched():
    before = bxsim_bindings()
    handlers = list(logging.getLogger("bxsim.adapt").handlers)
    original = bxsim.model.require_valid
    with Tracer():
        # Patched in every module that imported it by name.
        for mod in (bxsim.cli, bxsim.equilibrium, bxsim.simulate, bxsim.adapt, bxsim.model):
            assert mod.require_valid is not original
        assert bxsim.simulate.RoundEngine.play.__wrapped__ is not None
    after = bxsim_bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert logging.getLogger("bxsim.adapt").handlers == handlers


def test_missing_boundary_is_absent_not_an_error():
    tracer = Tracer(
        spans=[("bxsim.no_such_module", "solve", "gone.solve"), ("bxsim.simulate", "no_such_function", "gone.fn")],
        counters=[("bxsim.model", "Scenario.no_such_method", "gone.calls")],
    )
    with tracer:
        pass
    assert tracer.absent == [
        "bxsim.no_such_module.solve",
        "bxsim.simulate.no_such_function",
        "bxsim.model.Scenario.no_such_method",
    ]


def test_checker_counts_wrong_outputs(tmp_path):
    (tmp_path / "a.csv").write_text("h1,h2\n1,2\n3,nan\n")
    (tmp_path / "b.csv").write_text("h1\n1\n")
    op = {"name": "x", "outputs": [{"name": "a.csv", "rows": 2}, {"name": "b.csv", "rows": 2}]}
    checker = Checker(tmp_path, None)
    checker.check(op, 0, "")
    checker.check({"name": "y", "outputs": []}, 3, "equilibrium does not exist")
    (tmp_path / "c.csv").write_text("h1\n1\n")
    checker.check({"name": "z", "outputs": [{"name": "c.csv", "rows": 1}]}, 0, "")
    (tmp_path / "c.csv").write_text("h1\n2\n")
    checker.check({"name": "z", "outputs": [{"name": "c.csv", "rows": 1}]}, 0, "")
    assert (checker.attempted, checker.failed) == (4, 3)
    assert any("differ from the first repetition" in p for p in checker.problems)
    assert any("non-finite" in p for p in checker.problems)
    assert any("1 rows, expected 2" in p for p in checker.problems)
    assert any("exit 3" in p for p in checker.problems)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(tmp_path, name):
    def generate(sub: str, seed: int):
        workdir = tmp_path / sub
        workdir.mkdir()
        argv = [[arg.replace(str(workdir), "") for arg in op.argv] for op in workloads.build(name, seed, workdir)]
        return argv, {path.name: sha256(path) for path in workdir.iterdir()}

    seed = workloads.DEFAULT_SEED
    first, again, other = generate("a", seed), generate("b", seed), generate("c", seed + 1)
    assert first == again != other
    for file, digest in first[1].items():
        assert workloads.PINNED[name][file] == digest


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
