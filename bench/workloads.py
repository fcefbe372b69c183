"""Benchmark workloads: inputs generated here from the workload seed, the
CLI invocations that consume them, and the outputs each one must produce.

Inputs come from this module's own numpy code, never from ``bxsim.cli``'s
generators, so a change to the program cannot change what it is fed.  The
only exception is ``fig2``, whose scenarios the command generates itself; the
benchmark controls it through the ``--seeds`` list alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 0

# Per-file cost draw for the two-file populations.  With g = 1 and w in
# [1, 1.15] a group of 8 has max/min <= 7/6, so every response rate of the
# two-file equilibrium is nonnegative for every seed.
W_LO, W_HI = 1.0, 1.15


@dataclass(frozen=True)
class Output:
    """One file a CLI call writes, and how many data rows it must hold.

    For a ``.json`` output the row count is the number of top-level keys.
    """

    name: str
    rows: int


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``argv`` for ``bxsim.cli.main`` and its outputs."""

    name: str
    argv: list[str]
    outputs: list[Output]
    rounds: int = 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "argv": self.argv,
            "outputs": [{"name": o.name, "rows": o.rows} for o in self.outputs],
            "rounds": self.rounds,
        }


@dataclass(frozen=True)
class Workload:
    """A workload; why it was chosen is recorded in BENCHMARK.json."""

    name: str
    shape: str
    build: Callable[[np.random.Generator, int, Path], list[Op]]


def population(rng: np.random.Generator, groups: list[int], w_lo: float, w_hi: float) -> dict:
    """Scenario config with ``groups[f]`` nodes needing file f, g = 1 and
    w ~ U[w_lo, w_hi] (constant when the bounds agree), in a node order
    shuffled by ``rng``."""
    needs = np.repeat(np.arange(len(groups)), groups)
    w = rng.uniform(w_lo, w_hi, size=needs.size) if w_hi > w_lo else np.full(needs.size, w_lo)
    order = rng.permutation(needs.size)
    nodes = [{"w": float(w[i]), "g": 1.0, "needs": int(needs[i])} for i in order]
    return {"files": len(groups), "nodes": nodes}


def write_config(workdir: Path, name: str, config: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(config, indent=1) + "\n")
    return str(path)


def simulate_op(workdir: Path, config: str, n_nodes: int, rounds: int, sim_seed: int) -> Op:
    argv = [
        "simulate", "--config", config, "--rounds", str(rounds), "--seeds", str(sim_seed),
        "--trace", str(workdir / "trace.csv"), "--out", str(workdir / "simulate.csv"),
    ]
    return Op("simulate", argv, [Output("simulate.csv", n_nodes + 1), Output("trace.csv", rounds)], rounds)


FIG2_EPOCHS, FIG2_EPOCH_ROUNDS = 11, 100  # the command's defaults: 10 updates, 100-round epochs


def fig2_op(workdir: Path, first_seed: int, n_seeds: int) -> Op:
    """``fig2`` at its default shape (groups of 10, w ~ U[1, 2], g = 1)
    on seeds first_seed .. first_seed + n_seeds - 1."""
    argv = ["fig2", "--seeds", f"{first_seed}-{first_seed + n_seeds - 1}", "--out", str(workdir / "fig2.csv")]
    outputs = [Output("fig2.csv", FIG2_EPOCHS), Output("fig2.csv.scenarios.json", n_seeds)]
    return Op("fig2", argv, outputs, n_seeds * FIG2_EPOCHS * FIG2_EPOCH_ROUNDS)


def ne_coded_op(workdir: Path, config: str, files: int, n_nodes: int) -> Op:
    rows = files + 1 + n_nodes * files  # Gamma rows, degenerate flag, gamma + lambda per node
    return Op("ne-coded", ["ne", "--coded", "--config", config, "--out", str(workdir / "ne.csv")],
              [Output("ne.csv", rows)])


def poa_op(workdir: Path, config: str, n_nodes: int) -> Op:
    return Op("poa", ["poa", "--config", config, "--out", str(workdir / "poa.csv")],
              [Output("poa.csv", n_nodes + 1)])


SIM_GROUPS = [12, 8]
SIM_ROUNDS = 20000
FIG2_SEEDS = 20
CODED_FILES, CODED_GROUP = 8, 300
POA_GROUPS = [500, 500]


def build_simulate_trace(rng: np.random.Generator, seed: int, workdir: Path) -> list[Op]:
    config = write_config(workdir, "simulate.json", population(rng, SIM_GROUPS, W_LO, W_HI))
    sim_seed = int(rng.integers(2**31))
    return [simulate_op(workdir, config, sum(SIM_GROUPS), SIM_ROUNDS, sim_seed)]


def build_fig2(rng: np.random.Generator, seed: int, workdir: Path) -> list[Op]:
    return [fig2_op(workdir, seed * FIG2_SEEDS, FIG2_SEEDS)]


def build_solve_large(rng: np.random.Generator, seed: int, workdir: Path) -> list[Op]:
    coded = write_config(workdir, "coded.json", population(rng, [CODED_GROUP] * CODED_FILES, 1.0, 1.0))
    two = write_config(workdir, "poa.json", population(rng, POA_GROUPS, W_LO, W_HI))
    return [
        ne_coded_op(workdir, coded, CODED_FILES, CODED_FILES * CODED_GROUP),
        poa_op(workdir, two, sum(POA_GROUPS)),
    ]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "simulate-trace",
            f"simulate --trace, 2 files of {SIM_GROUPS[0]}+{SIM_GROUPS[1]} shuffled nodes, "
            f"g=1, w~U[{W_LO},{W_HI}], {SIM_ROUNDS} rounds",
            build_simulate_trace,
        ),
        Workload(
            "fig2",
            f"fig2 defaults (groups of 10, 10 updates, 100-round epochs), {FIG2_SEEDS} seeds from the workload seed",
            build_fig2,
        ),
        Workload(
            "solve-large",
            f"ne --coded on {CODED_FILES}x{CODED_GROUP} shuffled nodes (w=g=1), "
            f"then poa on {POA_GROUPS[0]}+{POA_GROUPS[1]} nodes (w~U[{W_LO},{W_HI}])",
            build_solve_large,
        ),
    ]
}


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``
    and return its ops."""
    # The name's bytes key the stream, so adding a workload moves no other's inputs.
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *name.encode()])))
    return WORKLOADS[name].build(rng, seed, workdir)


# SHA-256 of every input and output file at DEFAULT_SEED.  Inputs depend only
# on this module; outputs pin the program's byte-identical determinism.
PINNED = {
    "simulate-trace": {
        "simulate.csv": "e582167f7279bc604f2c9d6400a8ea9eb971cbce8ba6a2a59720087472a6d27c",
        "simulate.json": "d886cff18c1e347723abbf9615a766e56fd0a3a47849d08b3f00c7e08ce8bb04",
        "trace.csv": "d3b864221b1f533d67977f7b47b63ddc3b056fce9218fc4c8a03117f53982e4e"
    },
    "fig2": {
        "fig2.csv": "dd42e31f3d538afe5d718a3de6d33919086d9eba9537aa3365b0573ecfcd7060",
        "fig2.csv.scenarios.json": "5bd6d3f7df3a0501483df6b514dd1dec0692d9804ad7e48e83b9fbfc3a46ac53"
    },
    "solve-large": {
        "coded.json": "5824c9a05b64ba027a18df2a792918c1774111af1e9ed73189e726b32b357a1c",
        "ne.csv": "5a131742f956291a84697b7d86b9a52a2a64272056c621f3d5433ef757fed40d",
        "poa.csv": "cf6b947a2b5acd6250fd3e9c7f3d12a67fe7c8083f7f3ec0e06420d7a0402eb7",
        "poa.json": "41fb0ca0dd98e71113af04cea5faa7fbfce87666541c956f08508c9d2e5c81d1"
    }
}
