"""Core domain types: scenarios, strategy profiles, metrics.

Conventions used throughout the package:

* Files and nodes are dense integer indices (a node is a ``NodeId``); the
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
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from pathlib import Path
from typing import IO, Iterable

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

NodeId = int


@dataclass(frozen=True, eq=False)
class Scenario:
    """A node population: per node id, its waiting cost ``w`` (per unit time
    while the protocol runs), its transmission cost ``g`` (per data packet
    sent) and the file it ``needs``.

    The columns are stored as read-only float64 (``w``, ``g``) and int64
    (``needs``) arrays.  A ``needs`` beyond int64 is kept exactly, in an
    object array, so that validation can name it.  Scenarios are equal when
    their file counts and columns are.
    """

    files: int
    w: np.ndarray
    g: np.ndarray
    needs: np.ndarray

    def __post_init__(self):
        try:
            needs = np.array(self.needs, dtype=np.int64)
        except OverflowError:
            needs = np.array(self.needs, dtype=object)
        columns = {"w": np.array(self.w, dtype=float), "g": np.array(self.g, dtype=float), "needs": needs}
        if not columns["w"].shape == columns["g"].shape == needs.shape == (needs.size,):
            raise ValueError("w, g and needs must be 1-d columns of one length")
        for name, column in columns.items():
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __eq__(self, other):
        if not isinstance(other, Scenario):
            return NotImplemented
        columns = zip((self.w, self.g, self.needs), (other.w, other.g, other.needs))
        return self.files == other.files and all(np.array_equal(a, b) for a, b in columns)

    @property
    def n_nodes(self) -> int:
        return self.needs.size

    @cached_property
    def ratios(self) -> np.ndarray:
        """w/g per node; inf where the division overflows (validation rejects it)."""
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return self.w / self.g

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """validate_scenario(self), checked once: a scenario never changes."""
        return tuple(validate_scenario(self))

    def group_sizes(self) -> np.ndarray:
        """Nodes needing each file; a ``needs`` outside 0..files-1 is not counted."""
        valid = self.needs[(0 <= self.needs) & (self.needs < self.files)]
        return np.bincount(valid.astype(np.int64), minlength=self.files)


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
    needs_ok = (0 <= s.needs) & (s.needs < s.files)
    costs_ok = (0 < s.w) & (s.w < inf) & (0 < s.g) & (s.g < inf) & (s.ratios < inf)
    bad = np.flatnonzero(~(needs_ok & costs_ok))
    columns = (s.needs, s.w, s.g, needs_ok, costs_ok)
    for n, needs, w, g, need_ok, cost_ok in zip(bad.tolist(), *(c[bad].tolist() for c in columns)):
        if not need_ok:
            out.append(Violation(BAD_FILE_ID, f"node {n} needs file {needs}, valid range is 0..{s.files - 1}"))
        if not cost_ok:
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
    columns = _node_columns(entries)
    if columns is None:  # some node fails a check: walk the nodes to name each failure
        columns = [], [], []
        for n, nd in enumerate(entries):
            if not isinstance(nd, dict):
                problems.append(f"node {n} is {nd!r}, not an object")
                continue
            for column, key in zip(columns, ("w", "g", "needs")):
                column.append(number(nd, key, f"node {n}", integral=key == "needs"))
    seed = number(data, "seed", "config", integral=True) if data.get("seed") is not None else None
    if problems:
        raise ScenarioError([Violation(BAD_CONFIG, f"malformed scenario config: {p}") for p in problems])
    return Scenario(files, *columns), seed


def _node_columns(entries) -> tuple | None:
    """The nodes' (w, g, needs) columns when every node is an object with
    int or float ``w`` and ``g`` that fit in a float and an int ``needs``;
    None when any node fails one of these checks."""
    if not {*map(type, entries)} <= {dict}:
        return None
    try:
        w, g, needs = ([nd[key] for nd in entries] for key in ("w", "g", "needs"))
        if not {*map(type, w), *map(type, g)} <= {int, float} or not set(map(type, needs)) <= {int}:
            return None
        return np.array(w, dtype=float), np.array(g, dtype=float), needs
    except (KeyError, OverflowError):  # a missing field, or an int too large for a float
        return None


def scenario_to_dict(s: Scenario, seed: int | None = None) -> dict:
    columns = zip(s.w.tolist(), s.g.tolist(), s.needs.tolist())
    data: dict = {"files": s.files, "nodes": [{"w": w, "g": g, "needs": x} for w, g, x in columns]}
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


class atomic_open:
    """Open ``path`` for writing text, at once, so a target that cannot be
    written fails before any work is done; ``with`` the object to write it.

    A missing or regular file (symlinks followed) is written to a temporary
    file beside it, which takes its place and mode only when the ``with``
    block completes, so an exception, or ``close()`` before the block,
    leaves no output.  The file open as stdout or stderr (``/dev/stdout``,
    or a file that stdout is redirected to) is written through that stream
    at its current position, so the program's later messages follow the
    data.  Other targets (a FIFO), and files in a directory where no new
    file may be made, are written in place; such a file is emptied only
    when the block starts.  The object is path-like: its path is ``path``.
    """

    def __init__(self, path: str | Path):
        self.name, path, self.tmp, fh = os.fspath(path), Path(path), None, None
        self.std = _std_stream_fd(path)
        if self.std is not None:
            fh = open(os.dup(self.std), "w", newline="")
        elif path.is_file() or not path.exists():
            self.target = path.resolve()
            tmp = self.target.with_name(f".{self.target.name}.partial")
            with suppress(PermissionError):
                fh, self.tmp = open(tmp, "w", newline=""), tmp
        self.fh = fh or open(path, "a", newline="")

    def __fspath__(self) -> str:
        return self.name

    __str__ = __fspath__

    def __enter__(self) -> IO[str]:
        if self.std is not None:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        elif self.tmp is None and os.path.isfile(self.name):
            self.fh.truncate(0)
        return self.fh

    def __exit__(self, exc_type, *_) -> None:
        self.close(keep=exc_type is None)

    def close(self, keep: bool = False) -> None:
        """Close; the target takes a temporary file's place only if ``keep``."""
        if self.fh.closed:
            return
        self.fh.close()
        if self.tmp is not None:
            try:
                if keep:
                    if self.target.exists():
                        self.tmp.chmod(self.target.stat().st_mode & 0o7777)
                    self.tmp.replace(self.target)
            finally:
                self.tmp.unlink(missing_ok=True)


def as_output(path: str | Path | atomic_open) -> atomic_open:
    """``path`` itself when it is an output already opened through
    atomic_open, else ``atomic_open(path)``."""
    return path if isinstance(path, atomic_open) else atomic_open(path)


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
    a, b = list(ratios_a), list(ratios_b)
    needs = [0] * len(a) + [1] * len(b)
    return Scenario(files=2, w=np.array(a + b, dtype=float) * g, g=np.full(len(needs), g), needs=needs)
