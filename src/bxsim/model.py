"""Core domain types: scenarios and strategy profiles, and the scenario
config and output files.  A simulation run's counts, one seed's, are
``simulate.Metrics``.

Conventions used throughout the package:

* Files and nodes are dense integer indices; the lexicographic order of
  files is their index order.
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
from typing import Iterable

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

@dataclass(frozen=True, eq=False)
class Scenario:
    """A node population: per node id, its waiting cost ``w`` (per unit time
    while the protocol runs), its transmission cost ``g`` (per data packet
    sent) and the file it ``needs``.

    The columns are stored as read-only float64 (``w``, ``g``) and int64
    (``needs``) arrays, and then checked: a population outside the closed
    forms' domain raises ScenarioError listing every violation, so a built
    scenario is valid.  The check takes ``group_sums``, each group's and
    each complement's sum(w/g), which every closed form then reads.  A
    ``needs`` beyond int64 is kept exactly, in an object array, so that its
    violation can name it.  Scenarios are equal when their file counts and
    columns are.
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
        violations = _violations(self)
        if violations:
            raise ScenarioError(violations)

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
        """w/g per node; inf where the division overflows (building rejects it)."""
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return self.w / self.g

    def group_sizes(self) -> np.ndarray:
        """Nodes needing each file."""
        return np.bincount(self.needs, minlength=self.files)

    @cached_property
    def group_sums(self) -> np.ndarray:
        """Read-only, shape (2, files): sum(w/g) over the nodes that need each
        file, then over those that hold it, in node id order.  Taken once, by
        the check that builds the scenario; inf where a sum overflows."""
        with np.errstate(over="ignore"):
            need = [np.sum(self.ratios[self.needs == x]) for x in range(self.files)]
            hold = need[::-1] if self.files == 2 else [np.sum(self.ratios[self.needs != x]) for x in range(self.files)]
        sums = np.array([need, hold])
        sums.flags.writeable = False
        return sums


def _violations(s: Scenario) -> list[Violation]:
    """Every violation of the scenario invariants by the columns ``s`` has
    stored, in a fixed order; ``Scenario`` raises them all when it is built.

    The checks mirror what the closed forms require: at least 2 files,
    finite positive costs whose ratio w/g is finite, every file group of
    size >= 2 (group sums are divided by size minus one), and a finite
    response duration for every group and complement.  More files than
    nodes is a single violation, so no check does per-file work beyond the
    node count.
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
        sizes = np.bincount(s.needs[needs_ok].astype(np.int64), minlength=s.files).tolist()
        for f, size in enumerate(sizes):
            if size < 2:
                out.append(Violation(GROUP_TOO_SMALL, f"file {f} is needed by {size} node(s); need at least 2"))
    if out:
        return out
    # Every response duration (count - 1) / sum(w/g) must be finite (``sizes``
    # counts every node now); two files' holder sums repeat the needers'.
    sums = s.group_sums.tolist()
    for x, k in product(range(s.files), range(2 if s.files > 2 else 1)):
        count, total = (sizes[x], s.n_nodes - sizes[x])[k], sums[k][x]
        if not (0 < total < inf and (count - 1) / total < inf):
            why = f"the {count} nodes that {('need', 'hold')[k]} file {x} have sum(w/g) = {total}"
            out.append(Violation(NONFINITE_COST, f"{why}; (count - 1) / sum(w/g) must be finite and > 0"))
    return out


@dataclass(frozen=True)
class StrategyProfile:
    """Exponential-timer rates for every node, as arrays indexed by node id.

    gamma, shape (n_nodes,): gamma[n] is node n's initiation rate.
    lam, shape (n_nodes, files): lam[n, X] is node n's response rate when
    file X has been announced.  Only the files a node possesses are ever
    read; the entry of its own needed file is 0.  A rate of 0 means the
    node never fires in that context.

    The equilibrium solvers return their raw closed forms, whose rates can
    be negative; ``equilibrium.require_nonnegative`` rejects those, and so
    does the simulator, which plays only finite, nonnegative rates.
    """

    gamma: np.ndarray
    lam: np.ndarray


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
    due, a non-integral ``files``, ``needs`` or ``seed``, or a negative
    ``seed`` is a BAD_CONFIG violation, and all of them are reported
    together, before the scenario is built; building it checks the values.
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
    if seed is not None and seed < 0:
        problems.append(f"config has seed={data['seed']!r}; it must be a nonnegative integer")
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
    written fails before any work is done; ``write`` writes to it.

    A missing or regular file (symlinks followed) is written to a temporary
    file beside it, which takes its place and mode only on
    ``close(keep=True)``, so ``close()`` leaves no output; where no file may
    be made beside it, opening fails.  The file open as stdout or stderr
    (``/dev/stdout``, or a file that stdout is redirected to) is written
    through that stream at its current position, after both streams are
    flushed, so the program's earlier messages precede the data and later
    ones follow it.  Other targets (a FIFO, ``/dev/null``) are written in
    place.  The object is path-like: its path is ``path``.
    """

    def __init__(self, path: str | Path):
        self.name, path, self.tmp = os.fspath(path), Path(path), None
        std = _std_stream_fd(path)
        if std is not None:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
            self.fh = open(os.dup(std), "w", newline="")
        elif path.is_file() or not path.exists():
            self.target = path.resolve()
            self.tmp = self.target.with_name(f".{self.target.name}.partial")
            self.fh = open(self.tmp, "w", newline="")
        else:
            self.fh = open(path, "a", newline="")

    def write(self, text: str) -> int:
        return self.fh.write(text)

    def __fspath__(self) -> str:
        return self.name

    __str__ = __fspath__

    def close(self, keep: bool = False) -> None:
        """Close; the target takes a temporary file's place only if ``keep``."""
        if self.fh.closed:
            return
        try:
            self.fh.close()  # flushes, so a write that fails late fails here
            if keep and self.tmp is not None:
                if self.target.exists():
                    self.tmp.chmod(self.target.stat().st_mode & 0o7777)
                self.tmp.replace(self.target)
        finally:
            if self.tmp is not None:
                self.tmp.unlink(missing_ok=True)


def load_scenario(path: str | Path) -> tuple[Scenario, int | None]:
    """Load a scenario config file (JSON text)."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError([Violation(BAD_CONFIG, f"cannot read scenario config {path}: {exc}")]) from exc
    if not isinstance(data, dict):
        raise ScenarioError([Violation(BAD_CONFIG, "scenario config must be a JSON object")])
    return scenario_from_dict(data)


def make_two_file(ratios_a: Iterable[float], ratios_b: Iterable[float]) -> Scenario:
    """Two-file scenario from w/g ratios, with g = 1: group 0 needs file 0."""
    a, b = list(ratios_a), list(ratios_b)
    needs = [0] * len(a) + [1] * len(b)
    return Scenario(files=2, w=np.array(a + b, dtype=float), g=np.ones(len(needs)), needs=needs)
