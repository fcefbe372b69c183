"""Seeded simulation of the exchange protocol, played in chunks of rounds.

Randomness contract (golden traces depend on it):

* The stream is numpy's PCG64 behind ``np.random.Generator``, seeded from
  the run's ``seed``.
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
on one generator continue a single stream, also when ``set_profile`` changes
the rates between them (the adaptive mechanism plays every epoch of a run
on one engine this way).  ``elapsed`` and the other time totals are added in
round order (a cumulative sum, never a pairwise one), so they are
bit-identical to adding one round at a time.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .errors import NegativeRateError, StallError
from .model import Metrics, Scenario, StrategyProfile, as_output, require_valid

NEVER = math.inf

# Uniforms drawn per chunk of rounds; bounds the engine's working set.
CHUNK_DOUBLES = 1 << 14

TRACE_HEADER = ["round", "initiator", "responder", "t_init", "t_resp", "duration"]
# One trace row in the csv module's default dialect, floats at 9 digits.
TRACE_ROW = "%d,%d,%d,%.9g,%.9g,%.9g\r\n"


class Rounds(NamedTuple):
    """Consecutive rounds, one array entry per round."""

    initiator: np.ndarray
    responder: np.ndarray
    t_init: np.ndarray
    t_resp: np.ndarray
    duration: np.ndarray  # t_init + t_resp + 2


def in_order_sum(start, values) -> np.ndarray:
    """start + values[..., 0] + values[..., 1] + ..., added left to right
    along the last axis like a per-round loop (np.sum adds pairwise and can
    differ in the last bits); ``start`` is one float per row of ``values``."""
    return np.add.accumulate(np.concatenate((np.asarray(start)[..., None], values), axis=-1), axis=-1)[..., -1]


def _exponentials(rng: np.random.Generator, k: int) -> np.ndarray:
    """-log1p(-u) of k uniforms: unit-rate exponentials, computed in place."""
    e = rng.random(k)
    return np.negative(np.log1p(np.negative(e, out=e), out=e), out=e)


class RoundEngine:
    """Precomputed per-scenario machinery for playing rounds in chunks; the
    rates can be swapped between runs with ``set_profile``."""

    def __init__(self, scenario: Scenario, profile: StrategyProfile, coded: bool):
        require_valid(scenario)
        self.scenario = scenario
        self.coded = coded
        n, files, needs = scenario.n_nodes, scenario.files, scenario.needs
        # Per file X, every node that possesses X (ascending ids, so entry j
        # answers with the round's j-th response uniform), padded: which
        # entries are holders, their ids, and where lam keeps their rates.
        responders = n - np.bincount(needs, minlength=files)
        self.holds = np.arange(int(responders.max())) < responders[:, None]
        self.resp_id = np.zeros(self.holds.shape, dtype=np.int64)
        self.resp_id[self.holds] = np.nonzero(needs != np.arange(files)[:, None])[1]
        self.lam_index = self.resp_id * files + np.arange(files)[:, None]
        # Uniforms a round consumes, by initiator.
        self.step = n + responders[needs]
        self.set_profile(profile)

    def set_profile(self, profile: StrategyProfile) -> None:
        """Play the following runs at the rates of ``profile``; a zero-rate
        holder keeps its place and draws NEVER."""
        n, files = self.scenario.n_nodes, self.scenario.files
        gamma, lam = np.array(profile.gamma, dtype=float), np.asarray(profile.lam, dtype=float)
        if gamma.shape != (n,) or lam.shape != (n, files):
            raise ValueError("profile gamma must have shape (nodes,) and lam (nodes, files)")
        resp_rate = np.where(self.holds, lam.take(self.lam_index), 0.0)
        rates = np.concatenate((gamma, resp_rate.ravel()))
        if not (0 <= rates.min() and rates.max() < NEVER):  # NaN fails both
            raise NegativeRateError("profile has a negative or non-finite rate")
        self.gamma, self.resp_rate = gamma, resp_rate
        self.initiators = (gamma > 0).nonzero()[0]
        # Constant when every node that can initiate faces the same number
        # of responders.
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
        n, gamma = self.scenario.n_nodes, self.gamma[self.initiators]
        while rounds > 0:
            # Per round, the initiators' uniforms and the response uniforms
            # from the round's n-th on; past the holders of the needed file
            # the rates are 0 (padding), so what those entries read is unused.
            if self.fixed_step:
                count = min(rounds, max(1, CHUNK_DOUBLES // self.fixed_step))
                e = _exponentials(rng, count * self.fixed_step).reshape(count, self.fixed_step)
                e_init, e_resp = e[:, self.initiators], e[:, n:]
            else:  # every round has the longest step's uniforms from its start
                e, start = self._walk(rng, rounds)
                e_init = e[start[:, None] + self.initiators]
                e_resp = e[(start + n)[:, None] + np.arange(self.resp_rate.shape[1])]
            rows = np.arange(len(e_init))
            t = e_init / gamma
            pick = t.argmin(axis=1)
            initiator, t_init = self.initiators[pick], t[rows, pick]
            x = self.scenario.needs[initiator]
            rates = self.resp_rate[x, : e_resp.shape[1]]
            t = np.divide(e_resp, rates, out=np.full(rates.shape, NEVER), where=rates > 0)
            pick = t.argmin(axis=1)
            t_resp = t[rows, pick]
            duration = t_init + t_resp + 2.0  # finite unless a timer is NEVER (or overflowed)
            if not np.isfinite(duration).all():
                r = int(np.argmin(np.isfinite(duration)))
                if not math.isfinite(t_init[r]):
                    raise StallError("no node can initiate: every initiation timer is infinite")
                raise StallError(f"no eligible responder for file {x[r]} has a positive rate")
            rounds -= len(e_init)
            yield Rounds(initiator, self.resp_id[x, pick], t_init, t_resp, duration)

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
        metrics.elapsed = float(in_order_sum(metrics.elapsed, rounds.duration))
        metrics.rounds += rounds.initiator.size


def run_simulation(
    scenario: Scenario,
    profile: StrategyProfile,
    rounds: int,
    seed: int = 0,
    coded: bool = False,
    trace_path: str | Path | None = None,
) -> Metrics:
    """Play ``rounds`` rounds of ``profile`` and accumulate Metrics.

    Identical seeds give identical metrics and traces.  When trace_path is
    given, one CSV row per round is streamed out (columns: round, initiator,
    responder, t_init, t_resp, duration); the file appears only once the
    run completes.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    engine = RoundEngine(scenario, profile, coded)
    rng = np.random.Generator(np.random.PCG64(seed))
    metrics = Metrics(scenario)
    with as_output(trace_path) if trace_path is not None else nullcontext() as trace:
        if trace is not None:
            trace.write(",".join(TRACE_HEADER) + "\r\n")
        for chunk in engine.run(rng, rounds):
            if trace is not None:
                columns = [col.tolist() for col in chunk]
                rows = zip(range(metrics.rounds, metrics.rounds + len(columns[0])), *columns)
                trace.write("".join([TRACE_ROW % row for row in rows]))
            engine.account(metrics, chunk)
    return metrics
