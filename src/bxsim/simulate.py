"""Seeded simulation of the exchange protocol, played in chunks of rounds.

Randomness contract (golden traces depend on it):

* The stream is numpy's PCG64 behind ``np.random.Generator``, seeded from
  ``SimConfig.seed``.
* Each round consumes, in order: one uniform per node (ascending node id)
  for the initiation timers, then one uniform per eligible responder
  (ascending node id) for the response timers.  A uniform is consumed even
  when the node's rate is zero.
* A uniform u in [0, 1) becomes the timer -log(1 - u)/rate, i.e. inverse-CDF
  sampling with U = 1 - u in (0, 1]; rate 0 yields the NEVER sentinel
  (math.inf), which loses every minimum.  The logarithm is numpy's
  ``log1p`` (``math.log1p`` can differ in the last bit) and the timer is
  ``e / rate``, never ``e * (1 / rate)``.

Ties in sampled timers (possible in floating point, probability zero in the
model) are broken toward the lowest node id.

The uniforms are drawn in chunks of up to CHUNK_DOUBLES per ``rng.random``
call.  This does not change the stream: after each chunk the generator is
left exactly where round-by-round play would leave it, so successive runs
on one generator continue a single stream.  ``elapsed`` and the other time
totals are added in round order (a cumulative sum, never a pairwise one),
so they are bit-identical to adding one round at a time.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .errors import NegativeRateError, StallError
from .model import Metrics, Scenario, StrategyProfile, atomic_open, require_valid

NEVER = math.inf

# Uniforms drawn per chunk of rounds; bounds the engine's working set.
CHUNK_DOUBLES = 1 << 14

TRACE_HEADER = ["round", "initiator", "responder", "t_init", "t_resp", "duration"]
# One trace row in the csv module's default dialect, floats at 9 digits.
TRACE_ROW = "%d,%d,%d,%.9g,%.9g,%.9g\r\n"


@dataclass(frozen=True)
class SimConfig:
    scenario: Scenario
    profile: StrategyProfile
    rounds: int
    seed: int = 0
    coded: bool = False


class Rounds(NamedTuple):
    """Consecutive rounds, one array entry per round."""

    initiator: np.ndarray
    responder: np.ndarray
    t_init: np.ndarray
    t_resp: np.ndarray
    duration: np.ndarray  # t_init + t_resp + 2


def in_order_sum(start: float, values: np.ndarray) -> float:
    """start + values[0] + values[1] + ..., added left to right like a
    per-round loop (np.sum adds pairwise and can differ in the last bits)."""
    return float(np.cumsum(np.concatenate(([start], values)))[-1])


def _exponentials(rng: np.random.Generator, k: int) -> np.ndarray:
    """-log1p(-u) of k uniforms: unit-rate exponentials, computed in place."""
    e = rng.random(k)
    return np.negative(np.log1p(np.negative(e, out=e), out=e), out=e)


class RoundEngine:
    """Precomputed per-scenario machinery for playing rounds in chunks."""

    def __init__(self, scenario: Scenario, profile: StrategyProfile, coded: bool):
        require_valid(scenario)
        self.scenario = scenario
        self.coded = coded
        n, files, needs = scenario.n_nodes, scenario.files, scenario.needs
        self.gamma, lam = np.array(profile.gamma, dtype=float), np.asarray(profile.lam, dtype=float)
        if self.gamma.shape != (n,) or lam.shape != (n, files):
            raise ValueError("profile gamma must have shape (nodes,) and lam (nodes, files)")
        self.initiators = np.flatnonzero(self.gamma > 0)
        # Per file X, the positive-rate nodes that possess X (ascending ids),
        # padded with rate 0: their ids, their positions among the round's
        # response uniforms, and their rates.
        responders = n - np.bincount(needs, minlength=files)
        shape = (files, int(responders.max()))
        self.resp_id, self.resp_col = np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64)
        self.resp_rate = np.zeros(shape)
        for x in range(files):
            ids = np.flatnonzero(needs != x)
            rates = lam[ids, x]
            cols = np.flatnonzero(rates)
            k = cols.size
            self.resp_id[x, :k], self.resp_col[x, :k], self.resp_rate[x, :k] = ids[cols], cols, rates[cols]
        if not all(np.all((r >= 0) & (r < NEVER)) for r in (self.gamma, self.resp_rate)):
            raise NegativeRateError("profile has a negative or non-finite rate")
        # Uniforms a round consumes, by initiator; constant (fixed_step) when
        # every node that can initiate faces the same number of responders.
        self.step = n + responders[needs]
        steps = set(self.step[self.initiators].tolist())
        self.fixed_step = steps.pop() if len(steps) == 1 else 0

    def run(self, rng: np.random.Generator, rounds: int) -> Iterator[Rounds]:
        """Play ``rounds`` rounds, yielding chunks of consecutive rounds whose
        uniforms come from one ``rng.random`` call of at most CHUNK_DOUBLES
        draws (or one round's worth); the generator ends where round-by-round
        play would leave it.  Raises StallError at a round nobody can initiate
        or answer."""
        if self.initiators.size == 0:
            raise StallError("no node can initiate: all initiation rates are zero")
        while rounds > 0:
            if self.fixed_step:
                count = min(rounds, max(1, CHUNK_DOUBLES // self.fixed_step))
                e = _exponentials(rng, count * self.fixed_step)
                start = np.arange(count) * self.fixed_step
            else:
                e, start = self._walk(rng, rounds)
            # Both phases of every round at once, from each round's stream offset.
            rows = np.arange(start.size)
            t = e[start[:, None] + self.initiators] / self.gamma[self.initiators]
            pick = t.argmin(axis=1)
            initiator, t_init = self.initiators[pick], t[rows, pick]
            x = self.scenario.needs[initiator]
            rates = self.resp_rate[x]
            uniforms = e[(start + self.scenario.n_nodes)[:, None] + self.resp_col[x]]
            t = np.divide(uniforms, rates, out=np.full(rates.shape, NEVER), where=rates > 0)
            pick = t.argmin(axis=1)
            t_resp = t[rows, pick]
            stalled = ~(np.isfinite(t_init) & np.isfinite(t_resp))
            if stalled.any():
                r = int(np.argmax(stalled))
                if not math.isfinite(t_init[r]):
                    raise StallError("no node can initiate: every initiation timer is infinite")
                raise StallError(f"no eligible responder for file {x[r]} has a positive rate")
            rounds -= start.size
            yield Rounds(initiator, self.resp_id[x, pick], t_init, t_resp, t_init + t_resp + 2.0)

    def _walk(self, rng: np.random.Generator, rounds: int):
        """(uniforms, stream offsets) of the next rounds, walked one round at a
        time, as an offset depends on the file the previous initiator needed.
        Draws for the worst case, then rewinds and advances by the number used."""
        n = self.scenario.n_nodes
        longest = int(self.step.max())
        state = rng.bit_generator.state
        e = _exponentials(rng, min(rounds * longest, max(CHUNK_DOUBLES, longest)))
        gamma, step, positive = self.gamma, self.step.tolist(), self.gamma > 0
        dense = self.initiators.size == n
        timers = np.full(n, NEVER)
        start, offset = [], 0
        while len(start) < rounds and offset + longest <= e.size:
            start.append(offset)
            window = e[offset : offset + n]
            t = window / gamma if dense else np.divide(window, gamma, out=timers, where=positive)
            offset += step[t.argmin()]
        rng.bit_generator.state = state
        rng.bit_generator.advance(offset)
        return e, np.array(start)

    def account(self, metrics: Metrics, rounds: Rounds) -> None:
        """Add a chunk's downloads, uploads, rounds and elapsed time to metrics."""
        needs, senders = self.scenario.needs, np.concatenate((rounds.initiator, rounds.responder))
        if self.coded:
            metrics.downloads += rounds.initiator.size
        else:
            # A plain round serves the groups needing the two exchanged files.
            metrics.downloads += np.bincount(needs[senders], minlength=self.scenario.files)[needs]
        metrics.uploads += np.bincount(senders, minlength=self.scenario.n_nodes)
        metrics.elapsed = in_order_sum(metrics.elapsed, rounds.duration)
        metrics.rounds += rounds.initiator.size


def run_simulation(cfg: SimConfig, trace_path: str | Path | None = None) -> Metrics:
    """Run the configured number of rounds and accumulate Metrics.

    Identical seeds give identical metrics and traces.  When trace_path is
    given, one CSV row per round is streamed out (columns: round, initiator,
    responder, t_init, t_resp, duration); the file appears only once the
    run completes.
    """
    if cfg.rounds < 1:
        raise ValueError("rounds must be >= 1")
    engine = RoundEngine(cfg.scenario, cfg.profile, cfg.coded)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    metrics = Metrics(cfg.scenario)
    with atomic_open(trace_path) if trace_path is not None else nullcontext() as trace:
        if trace is not None:
            trace.write(",".join(TRACE_HEADER) + "\r\n")
        for chunk in engine.run(rng, cfg.rounds):
            if trace is not None:
                columns = [col.tolist() for col in chunk]
                rows = zip(range(metrics.rounds, metrics.rounds + len(columns[0])), *columns)
                trace.write("".join([TRACE_ROW % row for row in rows]))
            engine.account(metrics, chunk)
    return metrics
