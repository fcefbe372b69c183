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
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import (
    BAD_CONFIG,
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
    """A node population with per-node costs and needed-file assignment.

    The per-node data is also kept as arrays indexed by node id (``w``,
    ``g``, ``ratios`` and ``needs``), built once on first use.
    """

    files: int
    nodes: tuple[Node, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @cached_property
    def w(self) -> np.ndarray:
        return np.array([nd.costs.w for nd in self.nodes], dtype=float)

    @cached_property
    def g(self) -> np.ndarray:
        return np.array([nd.costs.g for nd in self.nodes], dtype=float)

    @cached_property
    def ratios(self) -> np.ndarray:
        """w/g per node; inf where the division overflows (validation rejects it)."""
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return self.w / self.g

    @cached_property
    def needs(self) -> np.ndarray:
        """needs[n] = file node n wants, as an int array."""
        return np.array([nd.needs for nd in self.nodes], dtype=np.int64)

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """validate_scenario(self), checked once: a scenario never changes."""
        return tuple(validate_scenario(self))

    def ratio(self, n: NodeId) -> float:
        return float(self.ratios[n])

    def group(self, file: FileId) -> tuple[NodeId, ...]:
        """Node ids that need ``file``, in ascending id order."""
        return tuple(np.flatnonzero(self.needs == file).tolist())

    def complement(self, file: FileId) -> tuple[NodeId, ...]:
        """Node ids that possess ``file`` (i.e. need something else)."""
        return tuple(np.flatnonzero(self.needs != file).tolist())

    def group_sizes(self) -> np.ndarray:
        """Nodes needing each file; a ``needs`` outside 0..files-1 is not counted."""
        valid = [nd.needs for nd in self.nodes if 0 <= nd.needs < self.files]
        return np.bincount(np.array(valid, dtype=np.int64), minlength=self.files)


def validate_scenario(s: Scenario) -> list[Violation]:
    """Check all scenario invariants; return the complete violation list.

    An empty list means the scenario is valid.  The checks mirror what the
    closed forms require: at least 2 files, finite positive costs whose
    ratio w/g is finite, every file group of size >= 2 (group sums are
    divided by size minus one), and a finite response duration for every
    group and complement.  More files than nodes is a single violation, so
    no check does per-file work beyond the node count.
    """
    out: list[Violation] = []
    inf = float("inf")
    if s.files < 2:
        out.append(Violation(TOO_FEW_FILES, f"need at least 2 files, got {s.files}"))
    costs_ok = ((0 < s.w) & (s.w < inf) & (0 < s.g) & (s.g < inf) & (s.ratios < inf)).tolist()
    for n, (nd, cost_ok) in enumerate(zip(s.nodes, costs_ok)):
        if not (0 <= nd.needs < s.files):
            out.append(
                Violation(BAD_FILE_ID, f"node {n} needs file {nd.needs}, valid range is 0..{s.files - 1}")
            )
        if not cost_ok:
            w, g = nd.costs.w, nd.costs.g
            code = NONPOSITIVE_COST if w <= 0 or g <= 0 else NONFINITE_COST
            why = "w/g overflows" if 0 < w < inf and 0 < g < inf else "both must be finite and > 0"
            out.append(Violation(code, f"node {n} has w={w}, g={g}; {why}"))
    if s.files > s.n_nodes:
        out.append(Violation(GROUP_TOO_SMALL, f"{s.files} files need 2 nodes each; the scenario has {s.n_nodes}"))
    elif s.files > 0:
        for f, size in enumerate(s.group_sizes().tolist()):
            if size < 2:
                out.append(Violation(GROUP_TOO_SMALL, f"file {f} is needed by {size} node(s); need at least 2"))
    if out:
        return out
    # Every response duration (count - 1) / sum(w/g) must be finite; with two
    # files the nodes that hold one file are the group that needs the other.
    for x, kind in product(range(s.files), ("need", "hold") if s.files > 2 else ("need",)):
        ratios = s.ratios[s.needs == x if kind == "need" else s.needs != x]
        with np.errstate(over="ignore"):
            total = float(np.sum(ratios))
        if not (0 < total < inf and (ratios.size - 1) / total < inf):
            why = f"the {ratios.size} nodes that {kind} file {x} have sum(w/g) = {total}"
            out.append(Violation(NONFINITE_COST, f"{why}; (count - 1) / sum(w/g) must be finite and > 0"))
    return out


def require_valid(s: Scenario) -> Scenario:
    """Return ``s`` unchanged, or raise ScenarioError with all violations."""
    if s.violations:
        raise ScenarioError(list(s.violations))
    return s


@dataclass(frozen=True)
class StrategyProfile:
    """Exponential-timer rates for every node, as arrays indexed by node id.

    gamma, shape (n_nodes,): gamma[n] is node n's initiation rate.
    lam, shape (n_nodes, files): lam[n, X] is node n's response rate when
    file X has been announced.  Only the files a node possesses are ever
    read; the entry of its own needed file is 0.  A rate of 0 means the
    node never fires in that context.

    Rates must be nonnegative to be simulated.  Equilibrium constructors can
    be asked (``allow_negative=True``) to return sign-invalid profiles for
    algebraic identity checking only; the simulator rejects those.
    """

    gamma: np.ndarray
    lam: np.ndarray


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
        return (self.uploads[n] * self.scenario.g[n] + self.elapsed * self.scenario.w[n]) / d

    def per_node_throughput(self) -> float:
        """Mean over nodes of downloads/elapsed."""
        if self.elapsed == 0.0:
            return 0.0
        return float(np.mean(self.downloads / self.elapsed))


def _json_number(value, integral: bool) -> int | float | None:
    """``value`` as an int (``integral``) or a float, or None when it is not
    a JSON number of that kind: a bool, a string, a non-integral value where
    an integer is due, or an integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if integral:
        return int(value) if isinstance(value, int) or value.is_integer() else None
    try:
        return float(value)
    except OverflowError:
        return None


def scenario_from_dict(data: dict) -> tuple[Scenario, int | None]:
    """Build a scenario from the JSON config schema.

    Schema: {"files": int, "nodes": [{"w": float, "g": float, "needs": int},
    ...], "seed": optional int}.  Returns (scenario, seed or None).  Fields
    are never coerced: a missing field, a bool or string where a number is
    due, or a non-integral ``files``, ``needs`` or ``seed`` is a BAD_CONFIG
    violation, and all of them are reported together.  The values are not
    validated here; call require_valid for that.
    """
    problems: list[str] = []

    def number(obj: dict, key: str, where: str, integral: bool = False):
        if key not in obj:
            problems.append(f"{where} has no {key!r}")
            return None
        value = _json_number(obj[key], integral)
        if value is None:
            kind = "an integer" if integral else "a number"
            problems.append(f"{where} has {key}={obj[key]!r}; it must be {kind}")
        return value

    files = number(data, "files", "config", integral=True)
    entries = data.get("nodes")
    if not isinstance(entries, (list, tuple)):
        problems.append("config has no 'nodes' list")
        entries = []
    nodes = []
    for n, nd in enumerate(entries):
        if not isinstance(nd, dict):
            problems.append(f"node {n} is {nd!r}, not an object")
            continue
        where = f"node {n}"
        w, g = number(nd, "w", where), number(nd, "g", where)
        nodes.append(Node(CostParams(w=w, g=g), needs=number(nd, "needs", where, integral=True)))
    seed = number(data, "seed", "config", integral=True) if data.get("seed") is not None else None
    if problems:
        raise ScenarioError([Violation(BAD_CONFIG, f"malformed scenario config: {p}") for p in problems])
    return Scenario(files=files, nodes=tuple(nodes)), seed


def scenario_to_dict(s: Scenario, seed: int | None = None) -> dict:
    data: dict = {
        "files": s.files,
        "nodes": [{"w": nd.costs.w, "g": nd.costs.g, "needs": nd.needs} for nd in s.nodes],
    }
    if seed is not None:
        data["seed"] = seed
    return data


def _std_stream_fd(path: Path) -> int | None:
    """1 or 2 when ``path`` is the file open as stdout or stderr, else None."""
    with suppress(OSError):
        st = path.stat()
        for fd in (1, 2):
            with suppress(OSError):
                if os.path.samestat(st, os.fstat(fd)):
                    return fd
    return None


@contextmanager
def atomic_open(path: str | Path) -> Iterator[IO[str]]:
    """Open ``path`` for writing text.

    A missing or regular file (symlinks followed) is written to a temporary
    file beside it, which takes its place and mode only when the block
    completes, so an exception leaves no truncated output.  The file open
    as stdout or stderr (``/dev/stdout``, or a file that stdout is
    redirected to) is written through that stream at its current position,
    so the program's later messages follow the data.  Other targets (a
    FIFO), and files in a directory where no new file may be made, are
    written in place.
    """
    path, fh = Path(path), None
    std = _std_stream_fd(path)
    if std is not None:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
        with open(os.dup(std), "w", newline="") as fh:
            yield fh
        return
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
        raise ScenarioError([Violation(BAD_CONFIG, f"cannot read scenario config {path}: {exc}")]) from exc
    if not isinstance(data, dict):
        raise ScenarioError([Violation(BAD_CONFIG, "scenario config must be a JSON object")])
    return scenario_from_dict(data)


def make_two_file(
    ratios_a: Iterable[float], ratios_b: Iterable[float], g: float = 1.0
) -> Scenario:
    """Two-file scenario from w/g ratios (g fixed): group 0 needs file 0."""
    nodes = [Node(CostParams(w=r * g, g=g), needs=0) for r in ratios_a]
    nodes += [Node(CostParams(w=r * g, g=g), needs=1) for r in ratios_b]
    return Scenario(files=2, nodes=tuple(nodes))
