"""Distributed rate adaptation for the two-file game.

Files are ordered by index; the nodes needing the lower-indexed file (file
0) only respond, the others only initiate.  Each node starts from a guess of
its group's mean backoff time, derives its rate as (1 / guess) - w/g, and
every M rounds nudges its inverse guess toward the observed mean winning
backoff of its phase with a diminishing step delta_k = epsilon / k.

Each update is fed the empirical epoch averages of the winning backoffs.
The state is one array per quantity over all nodes, in id order (with a
leading seed axis for a batch of seeds), with the role groups taken from
``needs``.  A run plays all its seeds side by side on one round engine,
re-rated after every update (only one group initiates, so every round reads
the fixed stride of uniforms that a batch needs); each seed keeps its own
generator and stream, so a batch gives what its seeds give run one after
another.  A batch that fails is replayed one seed at a time, so that it
fails as those runs do.  A batch's results are one ``AdaptiveRun``: arrays
with a leading seed axis, and no accounting of packets or costs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BxsimError, StallError
from .model import Scenario, StrategyProfile
from .simulate import RoundEngine, in_order_sum

logger = logging.getLogger(__name__)

ROLES = ("response", "initiation")  # the phase each role group adapts, by the file it needs


@dataclass(frozen=True)
class AdaptConfig:
    """Knobs of the update mechanism.

    updates: number of update epochs to run.
    epoch_rounds: rounds between updates (M).
    epsilon: scale of the step schedule delta_k = epsilon / k.
    guess_factor: initial group-size overestimate; each node assumes its
        group has guess_factor times its true size, all with its own costs.

    Building a config checks the knobs and raises ValueError for the first
    one out of its range.  Each field is a CLI option, in this order.
    """

    updates: int = 10
    epoch_rounds: int = 100
    epsilon: float = 0.1
    guess_factor: float = 10.0

    def delta(self, k: int) -> float:
        if k < 1:
            raise ValueError("update index k starts at 1")
        return self.epsilon / k

    def __post_init__(self):
        if self.epoch_rounds < 1:
            raise ValueError("epoch_rounds must be >= 1")
        if not 0 < self.epsilon < float("inf"):
            raise ValueError("epsilon must be finite and positive")
        if not np.isfinite(self.guess_factor):
            raise ValueError("guess_factor must be finite")
        if self.updates < 0:
            raise ValueError("updates must be >= 0")


@dataclass(frozen=True)
class AdaptState:
    """Adaptation state of every node, in id order, for one seed or, with a
    leading seed axis on ``ratios`` and ``inv_guess``, for a batch of seeds.
    The needers of file 0 adapt their response rates to file 1; the others,
    the initiators, adapt their initiation rates."""

    ratios: np.ndarray  # w/g per node
    initiates: np.ndarray  # True for the needers of file 1
    inv_guess: np.ndarray  # 1 / That_{n,k} per node

    @property
    def rates(self) -> np.ndarray:
        """Current rates, floored at zero."""
        return np.maximum(0.0, self.inv_guess - self.ratios)

    @property
    def floored(self) -> np.ndarray:
        """Counts of the responders and of the initiators whose rate is
        floored at zero, shape (..., 2)."""
        below = self.inv_guess < self.ratios
        return np.stack(((below & ~self.initiates).sum(axis=-1), (below & self.initiates).sum(axis=-1)), axis=-1)

    def profile(self) -> StrategyProfile:
        """Initiators initiate, responders answer file 1; every other rate is 0."""
        rates = self.rates
        lam = np.zeros(rates.shape + (2,))
        lam[..., 1] = np.where(self.initiates, 0.0, rates)
        return StrategyProfile(gamma=np.where(self.initiates, rates, 0.0), lam=lam)


def init_state(s: Scenario, cfg: AdaptConfig) -> AdaptState:
    """Initial guesses and rates.

    With assumed group size G = guess_factor * true size, a node with ratio
    r guesses That_{n,0} = (G - 1) / (G r), so its starting rate is
    1/That_{n,0} - r = r / (G - 1), a factor G - 1 below its share at the
    converged point.
    """
    if s.files != 2:
        raise ValueError(f"the adaptation mechanism needs a two-file scenario; this one has {s.files} files")
    assumed = cfg.guess_factor * s.group_sizes()[s.needs]
    if np.any(assumed <= 1):
        raise ValueError("guess_factor * group size must exceed 1")
    return AdaptState(ratios=s.ratios, initiates=s.needs == 1, inv_guess=assumed * s.ratios / (assumed - 1.0))


def observe_and_update(
    state: AdaptState,
    observed_response_mean: np.typing.ArrayLike,
    observed_initiation_mean: np.typing.ArrayLike,
    k: int,
    cfg: AdaptConfig,
) -> AdaptState:
    """Apply the k-th synchronized update to both role groups, of one seed
    or, given one observed mean per seed, of every seed of a batch.

    Each node's new inverse guess is (1 + delta_k) / That_{n,k-1} -
    delta_k / observed, with its own group's observed mean; its rate is the
    inverse guess minus its own w/g, floored at zero (counted by the new
    state's ``floored``).  Raises ValueError for a mean that is not
    positive (in a batch, any seed's), else StallError when an inverse guess
    is not finite: the update diverged.
    """
    delta = cfg.delta(k)
    means = np.array((observed_response_mean, observed_initiation_mean), dtype=float)
    for label, mean in zip(ROLES, means.reshape(2, -1).tolist()):
        nonpositive = [m for m in mean if m <= 0]
        if nonpositive:
            raise ValueError(f"observed mean {label} backoff must be positive, got {nonpositive[0]}")
    observed = np.where(state.initiates, means[1][..., None], means[0][..., None])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv_guess = (1.0 + delta) * state.inv_guess - delta / observed
    if not np.isfinite(inv_guess).all():
        raise StallError(f"the update to epoch {k} diverged: an inverse guess is not finite")
    return AdaptState(state.ratios, state.initiates, inv_guess)


def log_floored(counts) -> None:
    """One warning per role group whose update floored rates at zero."""
    for label, count in zip(ROLES, counts):
        if count:
            logger.warning("%s update floored %d rate(s) at zero", label, count)


class AdaptiveRun(NamedTuple):
    """A simulation-coupled adaptive run of a batch of seeds: arrays with a
    leading seed axis, in the order of the seeds, then, per epoch, an epoch
    axis (epoch k ran after k updates).  ``observed`` holds the inverse mean
    winning backoffs of the response and initiation phases measured within
    the epoch, and its per-node download rate; ``floored`` the responders
    and initiators whose rates the update before the epoch floored at zero."""

    observed: np.ndarray  # (seeds, epochs, 3): 1/That_A, 1/That_B, throughput
    node_states: np.ndarray  # (seeds, epochs, nodes, 2): That_guess and rate of each node, in id order
    floored: np.ndarray  # (seeds, epochs, 2), 0 at epoch 0


def run_adaptive_simulation(scenarios: list[Scenario], cfg: AdaptConfig, seeds: list[int]) -> AdaptiveRun:
    """Couple the simulator with the update mechanism: seed i runs on
    scenarios[i], which share one layout (files and needs), all seeds side by
    side on one round engine.

    A run has updates + 1 epochs of epoch_rounds rounds each.  Within an
    epoch the rates are fixed; the winning backoff of each phase is averaged
    over the epoch and fed into the next update.  Each seed keeps one RNG
    stream (seeded once) for its whole run: each update re-rates the engine,
    whose next epoch continues where the previous one left the generator,
    and the epoch sums are added in round order.  Warnings and failures are
    those of the seeds run one after another: floor warnings seed by seed,
    then epoch by epoch, and the error of the first seed in list order that
    fails, after the warnings logged up to it.  The batch is played once; if
    it fails, its seeds are replayed one at a time, in list order, each
    seed's warnings logged as it ends, until one fails (one does: a batch
    fails only where one of its seeds fails alone).  A stall, a divergence
    or a numeric error then names its seed.
    """
    if len(seeds) != len(scenarios) or any(
        s.files != scenarios[0].files or not np.array_equal(s.needs, scenarios[0].needs) for s in scenarios
    ):
        raise ValueError("an adaptive batch needs one seed per scenario, and scenarios with the same files and needs")
    try:
        run = _run_batch(scenarios, cfg, seeds, [])
    except (BxsimError, ValueError, FloatingPointError):
        for s, seed in zip(scenarios, seeds):
            floors: list[np.ndarray] = []
            try:
                _run_batch([s], cfg, [seed], floors)
            except (StallError, FloatingPointError) as exc:
                raise type(exc)(f"seed {seed}: {exc}") from None
            finally:
                for counts in floors:
                    log_floored(counts[0])
        raise
    for counts in run.floored.reshape(-1, 2).tolist():
        log_floored(counts)
    return run


def _run_batch(scenarios: list[Scenario], cfg: AdaptConfig, seeds: list[int], floors: list) -> AdaptiveRun:
    """Every seed's run, side by side, logging nothing; appends each
    update's floored counts (seeds, 2) to ``floors``.  Raises the first
    failure it meets, whichever seed it is of."""
    states = [init_state(s, cfg) for s in scenarios]
    state = AdaptState(np.array([st.ratios for st in states]), states[0].initiates, np.array([st.inv_guess for st in states]))
    engine = RoundEngine(scenarios[0], state.profile())
    rngs = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
    observed, node_states = [], []  # per epoch, of every seed

    for epoch in range(cfg.updates + 1):
        sums = np.zeros((3, len(seeds)))
        for chunk in engine.run(rngs, cfg.epoch_rounds):
            sums = in_order_sum(sums, np.stack((chunk.t_init, chunk.t_resp, chunk.duration)))
        init_mean, resp_mean = sums[:2] / cfg.epoch_rounds
        observed.append((1.0 / resp_mean, 1.0 / init_mean, cfg.epoch_rounds / sums[2]))
        node_states.append(np.stack((1.0 / state.inv_guess, state.rates), axis=-1))
        if epoch < cfg.updates:
            state = observe_and_update(state, resp_mean, init_mean, epoch + 1, cfg)
            floors.append(state.floored)
            engine.set_profile(state.profile())

    floored = np.stack([np.zeros((len(seeds), 2), dtype=np.int64), *floors], axis=1)
    return AdaptiveRun(np.array(observed).transpose(2, 0, 1), np.stack(node_states, axis=1), floored)
