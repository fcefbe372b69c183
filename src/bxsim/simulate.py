"""Seeded simulation of the exchange protocol, played in chunks of rounds.

Randomness contract (golden traces depend on it):

* Each seed's stream is numpy's PCG64 behind ``np.random.Generator``,
  seeded from that seed.
* Each round consumes, in order: one uniform per node (ascending node id)
  for the initiation timers, then one uniform per eligible responder
  (ascending node id) for the response timers.  A uniform is consumed even
  when the node's rate is zero.
* A uniform u in [0, 1) becomes the timer -log(1 - u)/rate, i.e. inverse-CDF
  sampling with U = 1 - u in (0, 1]; rate 0 yields the NEVER sentinel
  (math.inf), which loses every minimum.  The logarithm is numpy's
  ``log1p`` (``math.log1p`` can differ in the last bit) and the timer is
  ``e / rate``, never ``e * (1 / rate)``.
* numpy's ``log1p`` is its AVX512 kernel or libm's, by CPU, and they differ
  in the last bit of some timers: raw floats (``elapsed``, the
  ``AdaptiveRun`` arrays) are pinned per path, CSV bytes across both.

Ties in sampled timers (possible in floating point, probability zero in the
model) are broken toward the lowest node id.

The engine only plays rounds, for a batch of seeds side by side: the rates
have a leading seed axis, each seed has a generator of its own, and every
chunk of rounds has the same leading axis.  Counting them is the caller's:
``run_simulation`` plays one seed, a batch of one, and counts its rounds in
a ``Metrics`` of that seed.  Each seed draws exactly the uniforms it would
draw alone, so every seed's rounds, and the state its generator ends in, are
those of a run of that seed alone.  A batch fails as a whole: it raises if
any of its seeds would, without naming which, and a caller that needs the
failure of each seed plays the seeds alone.  A batch of several seeds needs
a fixed stride (every node that can initiate faces as many responders, as
in every adaptive epoch, where one group initiates); otherwise each round's
uniforms start where the previous initiator's file left them, and the walk
that finds them plays one seed.

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
from typing import IO, Iterator, NamedTuple

import numpy as np

from .errors import StallError
from .model import Scenario, StrategyProfile

NEVER = math.inf

# Uniforms drawn per chunk of rounds, by each seed; bounds the engine's working set.
CHUNK_DOUBLES = 1 << 14
# Uniforms a batch of seeds keeps per chunk, over all seeds; bounds a batch's working set.
BATCH_DOUBLES = 1 << 16

TRACE_HEADER = ["round", "initiator", "responder", "t_init", "t_resp", "duration"]
# One trace row in the csv module's default dialect, floats at 9 digits.
TRACE_ROW = "%d,%d,%d,%.9g,%.9g,%.9g\r\n"


class Rounds(NamedTuple):
    """Consecutive rounds of every seed of a batch: arrays of shape (seeds,
    rounds)."""

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


def _exponentials(u: np.ndarray) -> np.ndarray:
    """-log1p(-u) of uniforms u: unit-rate exponentials, computed in place."""
    return np.negative(np.log1p(np.negative(u, out=u), out=u), out=u)


class RoundEngine:
    """Precomputed per-layout machinery for playing rounds in chunks, for a
    batch of seeds side by side; the rates can be swapped between runs with
    ``set_profile``."""

    def __init__(self, scenario: Scenario, profile: StrategyProfile):
        self.scenario = scenario
        n, files, needs = scenario.n_nodes, scenario.files, scenario.needs
        # Per file X, every node that possesses X (ascending ids, so entry j
        # answers with the round's j-th response uniform), padded: which
        # entries are holders, and their ids.
        responders = n - scenario.group_sizes()
        self.holds = np.arange(int(responders.max())) < responders[:, None]
        self.resp_id = np.zeros(self.holds.shape, dtype=np.int64)
        self.resp_id[self.holds] = np.nonzero(needs != np.arange(files)[:, None])[1]
        # Uniforms a round consumes, by initiator.
        self.step = n + responders[needs]
        self.set_profile(profile)

    def set_profile(self, profile: StrategyProfile) -> None:
        """Play the following runs at the rates of ``profile``, one row per
        seed of the batch: gamma (seeds, nodes) and lam (seeds, nodes, files).
        A zero-rate holder keeps its place and draws NEVER."""
        n, files = self.scenario.n_nodes, self.scenario.files
        gamma, lam = np.array(profile.gamma, dtype=float), np.asarray(profile.lam, dtype=float)
        if gamma.ndim != 2 or not gamma.size or gamma.shape[1] != n or lam.shape != gamma.shape + (files,):
            raise ValueError("profile gamma must have shape (seeds, nodes) and lam (seeds, nodes, files)")
        resp_rate = np.where(self.holds, lam[:, self.resp_id, np.arange(files)[:, None]], 0.0)
        for rates in (gamma, resp_rate):
            if not (0 <= rates.min() and rates.max() < NEVER):  # NaN fails both
                raise ValueError("profile has a negative or non-finite rate")
        self.gamma, self.resp_rate = gamma, resp_rate
        # Any seed's positive-rate nodes; a seed's zero rates draw NEVER.
        self.initiators = (gamma > 0).any(axis=0).nonzero()[0]
        # Constant when every node that can initiate faces the same number
        # of responders.
        steps = set(self.step[self.initiators].tolist())
        self.fixed_step = steps.pop() if len(steps) == 1 else 0

    def run(self, rngs: list, rounds: int) -> Iterator[Rounds]:
        """Play ``rounds`` rounds, yielding chunks of consecutive rounds of
        shape (seeds, count).

        ``rngs`` holds one generator per seed of the batch.  Each seed draws
        what it draws alone: at most CHUNK_DOUBLES uniforms per chunk (or one
        round's worth) in one ``rng.random`` call, leaving its generator where
        round-by-round play would.  Raises StallError at a round nobody can
        initiate or answer, of any seed; for a batch of one, the message is
        that of its first such round; then ValueError for a walked batch of
        more than one seed."""
        n, needs, initiators = self.scenario.n_nodes, self.scenario.needs, self.initiators
        gamma, resp_rate, step = self.gamma[:, None, initiators], self.resp_rate, self.fixed_step
        silent = gamma == 0
        audible = ~silent if silent.any() else True  # where a division by gamma is due
        if silent.all(axis=-1).any():
            raise StallError("no node can initiate: all initiation rates are zero")
        if not step and len(rngs) > 1:
            raise ValueError("a batch of seeds needs a fixed stride of uniforms per round: walk each seed alone")
        seeds = np.arange(len(rngs))[:, None]
        if step:
            # A round reads its initiators' uniforms and the response uniforms
            # from its n-th on (past the needed file's holders the rates are 0,
            # so what those entries read is unused); only these are kept.
            size = min(rounds, max(1, min(CHUNK_DOUBLES // step, BATCH_DOUBLES // (len(rngs) * (initiators.size + step - n)))))
        while rounds > 0:
            if step:
                count = min(rounds, size)
                e_init, e_resp = np.empty((len(rngs), count, initiators.size)), np.empty((len(rngs), count, step - n))
                for row, rng in enumerate(rngs):
                    u = rng.random(count * step).reshape(count, step)
                    u.take(initiators, axis=1, out=e_init[row], mode="clip")
                    e_resp[row] = u[:, n:]
                _exponentials(e_init)
                _exponentials(e_resp)
            else:  # every round has the longest step's uniforms from its start
                e_init, e_resp = self._walk(rngs[0], rounds)
            # Timers in place of the uniforms: e / rate, NEVER at a zero rate.
            t = np.divide(e_init, gamma, out=e_init, where=audible)
            if audible is not True:
                np.copyto(t, NEVER, where=silent)
            at = seeds, np.arange(t.shape[1])  # each round of each seed
            pick = t.argmin(axis=-1)
            initiator, t_init = initiators[pick], t[(*at, pick)]
            x = needs[initiator]  # the file each round's initiator needs
            rates = resp_rate[seeds, x, : e_resp.shape[-1]]
            t = np.divide(e_resp, rates, out=e_resp, where=rates > 0)
            np.copyto(t, NEVER, where=rates == 0)
            pick = t.argmin(axis=-1)
            t_resp = t[(*at, pick)]
            duration = t_init + t_resp + 2.0  # finite unless a timer is NEVER (or overflowed)
            stalled = ~np.isfinite(duration)
            if stalled.any():
                if not math.isfinite(t_init[stalled][0]):
                    raise StallError("no node can initiate: every initiation timer is infinite")
                raise StallError(f"no eligible responder for file {x[stalled][0]} has a positive rate")
            rounds -= initiator.shape[1]
            yield Rounds(initiator, self.resp_id[x, pick], t_init, t_resp, duration)

    def _walk(self, rng, rounds: int):
        """Initiation and response exponentials of the seed's next rounds,
        shape (1, count, ...), walked one round at a time, as an offset
        depends on the file the previous initiator needed.  Draws for the
        worst case (at most CHUNK_DOUBLES uniforms, or one round's worth),
        then rewinds and advances by the number of uniforms it used."""
        n, step, gamma = self.scenario.n_nodes, self.step.tolist(), self.gamma[0]
        longest = int(self.step.max())
        state = rng.bit_generator.state
        e = _exponentials(rng.random(min(rounds * longest, max(CHUNK_DOUBLES, longest))))
        rng.bit_generator.state = state
        positive = gamma > 0
        dense = positive.all()
        timers = np.full(n, NEVER)
        start, offset = [], 0
        while len(start) < rounds and offset + longest <= e.size:
            start.append(offset)
            window = e[offset : offset + n]
            t = window / gamma if dense else np.divide(window, gamma, out=timers, where=positive)
            offset += step[t.argmin()]
        rng.bit_generator.advance(offset)
        start = np.array(start)[:, None]
        e_resp = e.take(start + n + np.arange(self.holds.shape[1]), mode="clip")
        return e.take(start + self.initiators, mode="clip")[None], e_resp[None]


class Metrics:
    """Cumulative per-node accounting of one simulation run of ``scenario``:
    ``uploads`` per node id, the ``elapsed`` time (a numpy float, added in
    round order) and the ``rounds`` played.  Every round serves every node,
    so each node has downloaded ``rounds`` packets.  The derived quantities
    (average total cost, throughput) are recomputed from these counters on
    demand."""

    def __init__(self, scenario: Scenario):
        self.w, self.g = scenario.w, scenario.g
        self.elapsed = np.float64(0.0)
        self.uploads = np.zeros(scenario.n_nodes, dtype=np.int64)
        self.rounds = 0

    def avg_total_cost(self) -> np.ndarray:
        """(uploads * g + elapsed * w) / rounds of every node."""
        return (self.uploads * self.g + self.elapsed * self.w) / self.rounds

    def per_node_throughput(self) -> float:
        """rounds / elapsed, the packets each node gets per unit time; needs
        at least one played round."""
        return float(self.rounds / self.elapsed)


def run_simulation(
    scenario: Scenario,
    profile: StrategyProfile,
    rounds: int,
    seed: int = 0,
    trace: IO[str] | None = None,
) -> Metrics:
    """Play ``rounds`` rounds of ``profile`` (gamma (nodes,), lam (nodes,
    files)) from ``seed``, as a batch of one, and return its Metrics.

    Every round, the initiator and the responder upload one packet each.
    Identical seeds give identical metrics and traces.  Given ``trace``, an
    open text stream, the header and one CSV row per round (round,
    initiator, responder, t_init, t_resp, duration) are written to it as
    the rounds are played; no file is opened here.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    engine = RoundEngine(scenario, StrategyProfile(np.asarray(profile.gamma)[None], np.asarray(profile.lam)[None]))
    rngs = [np.random.Generator(np.random.PCG64(seed))]
    metrics = Metrics(scenario)
    if trace is not None:
        trace.write(",".join(TRACE_HEADER) + "\r\n")
    for chunk in engine.run(rngs, rounds):
        chunk = Rounds(*(col[0] for col in chunk))
        if trace is not None:
            rows = zip(range(metrics.rounds, metrics.rounds + chunk.initiator.size), *(col.tolist() for col in chunk))
            trace.write("".join([TRACE_ROW % row for row in rows]))
        metrics.uploads += np.bincount(np.concatenate((chunk.initiator, chunk.responder)), minlength=scenario.n_nodes)
        metrics.elapsed = in_order_sum(metrics.elapsed, chunk.duration)
        metrics.rounds += chunk.initiator.size
    return metrics
