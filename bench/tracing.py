"""Per-layer tracing of bxsim from outside the package.

``Tracer.install`` replaces each boundary function below with a wrapper that
records a span (name, start, end, parent) or bumps a counter, in memory.  A
function imported by name into several modules (``require_valid`` lives in
``cli``, ``equilibrium``, ``simulate`` and ``adapt``) is replaced in every
``bxsim`` module that holds it; methods are replaced on their class.
``uninstall`` puts every original back.  A boundary whose module or function
no longer exists is listed in ``absent`` and skipped.

Only the standard library is imported here, so the benchmark's worker can
time ``import bxsim.cli`` before numpy is loaded.
"""

from __future__ import annotations

import functools
import importlib
import logging
import os
import sys
import time
from collections import defaultdict

# (home module, attribute path, span name).  Every call becomes a span.
SPANS = [
    ("bxsim.cli", "write_csv", "cli.write_csv"),
    ("bxsim.cli", "gen_two_file", "cli.gen_two_file"),
    ("bxsim.cli", "dump_scenarios", "cli.dump_scenarios"),
    ("bxsim.model", "load_scenario", "model.load_scenario"),
    ("bxsim.model", "require_valid", "model.require_valid"),
    ("bxsim.simulate", "run_simulation", "simulate.run_simulation"),
    ("bxsim.simulate", "RoundEngine.__init__", "simulate.RoundEngine.init"),
    ("bxsim.simulate", "RoundEngine.play", "simulate.RoundEngine.play"),
    ("bxsim.simulate", "sample_exponentials", "simulate.sample_exponentials"),
    ("bxsim.adapt", "run_adaptive_simulation", "adapt.run_adaptive_simulation"),
    ("bxsim.adapt", "observe_and_update", "adapt.observe_and_update"),
    ("bxsim.equilibrium", "coded_equilibrium", "equilibrium.coded_equilibrium"),
    ("bxsim.equilibrium", "node_cost_at_ne", "equilibrium.node_cost_at_ne"),
    ("bxsim.linsolve", "solve", "linsolve.solve"),
]

# Boundaries called millions of times: counted, not timed, to bound overhead.
COUNTERS = [
    ("bxsim.model", "Scenario.ratio", "model.accessor.calls"),
    ("bxsim.model", "Scenario.group", "model.accessor.calls"),
    ("bxsim.model", "Scenario.complement", "model.accessor.calls"),
]

# Logged diagnostic events, counted by a handler on the module's logger.
EVENTS = [("bxsim.adapt", "floored", "adapt.floored.count")]

# Extra counts taken after a span returns: the bytes write_csv wrote.
BYTES_WRITTEN = {"cli.write_csv": "cli.write_csv.bytes"}


class _EventCounter(logging.Handler):
    def __init__(self, word: str, key: str, counts: dict):
        super().__init__()
        self.word, self.key, self.counts = word, key, counts

    def emit(self, record: logging.LogRecord) -> None:
        if self.word in str(record.msg):
            self.counts[self.key] += 1


class Tracer:
    """Spans and counts of one traced stretch of work; use as a context
    manager, or call ``install`` and ``uninstall``."""

    def __init__(self, spans=SPANS, counters=COUNTERS, events=EVENTS):
        self.points = [(m, p, n, False) for m, p, n in spans] + [(m, p, n, True) for m, p, n in counters]
        self.events = events
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._handlers: list[tuple[logging.Logger, logging.Handler]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def _span_wrapper(self, name: str, fn):
        begin, end = self.begin, self.end
        bytes_key = BYTES_WRITTEN.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx)
            if bytes_key is not None:
                counts[bytes_key] += os.path.getsize(args[0] if args else kwargs["path"])
            return result

        return wrapper

    def _count_wrapper(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> Tracer:
        for module_name, path, name, count_only in self.points:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{path}")
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            # A method must be defined on its class itself, not inherited.
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = (self._count_wrapper if count_only else self._span_wrapper)(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                for holder in _bxsim_modules():
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, key, wrapper)
        for logger_name, word, key in self.events:
            logger = logging.getLogger(logger_name)
            handler = _EventCounter(word, key, self.counts)
            logger.addHandler(handler)
            self._handlers.append((logger, handler))
        return self

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        while self._handlers:
            logger, handler = self._handlers.pop()
            logger.removeHandler(handler)

    def __enter__(self) -> Tracer:
        try:
            return self.install()
        except BaseException:
            self.uninstall()
            raise

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per span name ``<name>.calls``, ``<name>.s`` (inclusive seconds)
        and ``<name>.self_s`` (minus the time of its child spans), plus every
        count."""
        child = [0.0] * len(self.spans)
        for name, start, stop, parent in self.spans:
            if parent >= 0:
                child[parent] += stop - start
        out: dict[str, float] = defaultdict(int)
        for (name, start, stop, _), inner in zip(self.spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += stop - start
            out[f"{name}.self_s"] += stop - start - inner
        out.update(self.counts)
        return dict(out)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent\n")
            for idx, (name, start, stop, parent) in enumerate(self.spans):
                fh.write(f"{idx},{name},{start!r},{stop!r},{parent}\n")


def _bxsim_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == "bxsim" or name.startswith("bxsim."))]
