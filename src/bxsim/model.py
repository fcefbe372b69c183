"""Core domain types: scenarios, strategy profiles, metrics.

Conventions used throughout the package:

* Files and nodes are dense integer indices (``FileId``, ``NodeId``); the
  lexicographic order of files is their index order.
* Every node needs exactly one file and holds full copies of all the others.
* The time unit is the transmission time of one data packet; control packets
  take zero time and cost nothing.
* A rate of exactly 0 means "never transmits" (the timer never fires).
"""

from __future__ import annotations

import json
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    BAD_FILE_ID,
    GROUP_TOO_SMALL,
    NONFINITE_COST,
    NONPOSITIVE_COST,
    TOO_FEW_FILES,
    ScenarioError,
    Violation,
)

FileId = int
NodeId = int


@dataclass(frozen=True)
class CostParams:
    """Per-node cost parameters.

    w: waiting cost per unit time while the protocol runs.
    g: transmission cost per data packet sent.
    """

    w: float
    g: float

    def ratio(self) -> float:
        """w/g, the quantity all equilibrium formulas are built from."""
        return self.w / self.g


@dataclass(frozen=True)
class Node:
    costs: CostParams
    needs: FileId


@dataclass(frozen=True)
class Scenario:
    """A node population with per-node costs and needed-file assignment."""

    files: int
    nodes: tuple[Node, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def w(self, n: NodeId) -> float:
        return self.nodes[n].costs.w

    def g(self, n: NodeId) -> float:
        return self.nodes[n].costs.g

    def ratio(self, n: NodeId) -> float:
        return self.nodes[n].costs.ratio()

    @cached_property
    def needs(self) -> np.ndarray:
        """needs[n] = file node n wants, as an int array."""
        return np.array([nd.needs for nd in self.nodes], dtype=np.int64)

    def group(self, file: FileId) -> tuple[NodeId, ...]:
        """Node ids that need ``file``, in ascending id order."""
        return tuple(n for n, nd in enumerate(self.nodes) if nd.needs == file)

    def complement(self, file: FileId) -> tuple[NodeId, ...]:
        """Node ids that possess ``file`` (i.e. need something else)."""
        return tuple(n for n, nd in enumerate(self.nodes) if nd.needs != file)

    def group_sizes(self) -> list[int]:
        sizes = [0] * self.files
        for nd in self.nodes:
            if 0 <= nd.needs < self.files:
                sizes[nd.needs] += 1
        return sizes


def validate_scenario(s: Scenario) -> list[Violation]:
    """Check all scenario invariants; return the complete violation list.

    An empty list means the scenario is valid.  The checks mirror what the
    closed forms require: at least 2 files, finite positive costs, and every
    file group of size >= 2 (group sums are divided by size minus one).
    """
    out: list[Violation] = []
    inf = float("inf")
    if s.files < 2:
        out.append(Violation(TOO_FEW_FILES, f"need at least 2 files, got {s.files}"))
    for n, nd in enumerate(s.nodes):
        if not (0 <= nd.needs < s.files):
            out.append(
                Violation(BAD_FILE_ID, f"node {n} needs file {nd.needs}, valid range is 0..{s.files - 1}")
            )
        w, g = nd.costs.w, nd.costs.g
        if not (0 < w < inf and 0 < g < inf):
            code = NONPOSITIVE_COST if w <= 0 or g <= 0 else NONFINITE_COST
            out.append(Violation(code, f"node {n} has w={w}, g={g}; both must be finite and > 0"))
    for f, size in enumerate(s.group_sizes()):
        if size < 2:
            out.append(Violation(GROUP_TOO_SMALL, f"file {f} is needed by {size} node(s); need at least 2"))
    return out


def require_valid(s: Scenario) -> Scenario:
    """Return ``s`` unchanged, or raise ScenarioError with all violations."""
    violations = validate_scenario(s)
    if violations:
        raise ScenarioError(violations)
    return s


def group_ratio_sums(s: Scenario) -> dict[FileId, tuple[int, float]]:
    """Per file: (group size I_X, sum of w/g over the nodes needing X).

    Complement sums follow by subtracting from the global total.
    """
    out: dict[FileId, tuple[int, float]] = {}
    for f in range(s.files):
        members = s.group(f)
        out[f] = (len(members), float(sum(s.ratio(n) for n in members)))
    return out


@dataclass(frozen=True)
class StrategyProfile:
    """Exponential-timer rates for every node.

    gamma[n] is node n's initiation rate.  lam[(n, X)] is node n's response
    rate when file X has been announced; it is defined only for files the
    node possesses (X != needs[n]).  A missing (n, X) key means the node
    never responds in that context, the same as an explicit 0.

    Rates must be nonnegative to be simulated.  Equilibrium constructors can
    be asked (``allow_negative=True``) to return sign-invalid profiles for
    algebraic identity checking only; the simulator rejects those.
    """

    gamma: tuple[float, ...]
    lam: Mapping[tuple[NodeId, FileId], float]

    def response_rate(self, n: NodeId, context: FileId) -> float:
        return self.lam.get((n, context), 0.0)


class Metrics:
    """Cumulative per-node accounting for a simulation run.

    Counters are maintained incrementally by the simulator; the derived
    quantities (average total cost, throughput) are recomputed from the raw
    counters on demand.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.downloads = np.zeros(scenario.n_nodes, dtype=np.int64)
        self.uploads = np.zeros(scenario.n_nodes, dtype=np.int64)
        self.elapsed = 0.0
        self.rounds = 0

    def avg_total_cost(self, n: NodeId) -> float:
        """(uploads * g + elapsed * w) / downloads for node n."""
        d = self.downloads[n]
        if d == 0:
            return float("inf")
        return (self.uploads[n] * self.scenario.g(n) + self.elapsed * self.scenario.w(n)) / d

    def per_node_throughput(self) -> float:
        """Mean over nodes of downloads/elapsed."""
        if self.elapsed == 0.0:
            return 0.0
        return float(np.mean(self.downloads / self.elapsed))


def scenario_from_dict(data: dict) -> tuple[Scenario, int | None]:
    """Build a scenario from the JSON config schema.

    Schema: {"files": int, "nodes": [{"w": float, "g": float, "needs": int},
    ...], "seed": optional int}.  Returns (scenario, seed or None).  The
    scenario is not validated here; call require_valid for that.
    """
    try:
        files = int(data["files"])
        nodes = tuple(
            Node(CostParams(w=float(nd["w"]), g=float(nd["g"])), needs=int(nd["needs"]))
            for nd in data["nodes"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError([Violation("BAD_CONFIG", f"malformed scenario config: {exc!r}")]) from exc
    seed = data.get("seed")
    return Scenario(files=files, nodes=nodes), (int(seed) if seed is not None else None)


def scenario_to_dict(s: Scenario, seed: int | None = None) -> dict:
    data: dict = {
        "files": s.files,
        "nodes": [{"w": nd.costs.w, "g": nd.costs.g, "needs": nd.needs} for nd in s.nodes],
    }
    if seed is not None:
        data["seed"] = seed
    return data


@contextmanager
def atomic_open(path: str | Path) -> Iterator[IO[str]]:
    """Open ``path`` for writing text.

    A missing or regular file (symlinks followed) is written to a temporary
    file beside it, which takes its place and mode only when the block
    completes, so an exception leaves no truncated output.  Other targets
    (/dev/stdout, a FIFO), and files in a directory where no new file may be
    made, are written in place.
    """
    path, fh = Path(path), None
    if path.is_file() or not path.exists():
        path = path.resolve()
        tmp = path.with_name(f".{path.name}.partial")
        with suppress(PermissionError):
            fh = open(tmp, "w", newline="")
    if fh is None:
        with open(path, "w", newline="") as fh:
            yield fh
        return
    try:
        with fh:
            if path.exists():
                tmp.chmod(path.stat().st_mode & 0o7777)
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    tmp.replace(path)


def load_scenario(path: str | Path) -> tuple[Scenario, int | None]:
    """Load a scenario config file (JSON text)."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError([Violation("BAD_CONFIG", f"cannot read scenario config {path}: {exc}")]) from exc
    if not isinstance(data, dict):
        raise ScenarioError([Violation("BAD_CONFIG", "scenario config must be a JSON object")])
    return scenario_from_dict(data)


def make_two_file(
    ratios_a: Iterable[float], ratios_b: Iterable[float], g: float = 1.0
) -> Scenario:
    """Two-file scenario from w/g ratios (g fixed): group 0 needs file 0."""
    nodes = [Node(CostParams(w=r * g, g=g), needs=0) for r in ratios_a]
    nodes += [Node(CostParams(w=r * g, g=g), needs=1) for r in ratios_b]
    return Scenario(files=2, nodes=tuple(nodes))
