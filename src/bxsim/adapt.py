"""Distributed rate adaptation for the two-file game.

Files are ordered by index; the nodes needing the lower-indexed file (file
0) only respond, the others only initiate.  Each node starts from a guess of
its group's mean backoff time, derives its rate as (1 / guess) - w/g, and
every M rounds nudges its inverse guess toward the observed mean winning
backoff of its phase with a diminishing step delta_k = epsilon / k.

Two modes are provided: an analytic iteration that feeds the exact expected
backoff (1 over the current aggregate rate) back into the update, and a
simulation-coupled run that feeds the empirical epoch averages.  The state
is one array per quantity over all nodes, in id order, with the role groups
taken from ``needs``; the simulation-coupled run builds one round engine and
re-rates it after every update.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, NonpositiveObservationError, StallError
from .model import Metrics, Scenario, StrategyProfile, require_valid
from .simulate import RoundEngine, in_order_sum

logger = logging.getLogger(__name__)

ROLES = ("response", "initiation")  # the phase each role group adapts, by the file it needs


@dataclass(frozen=True)
class AdaptConfig:
    """Knobs of the update mechanism.

    epoch_rounds: rounds between updates (M).
    epsilon: scale of the step schedule delta_k = epsilon / k.
    guess_factor: initial group-size overestimate; each node assumes its
        group has guess_factor times its true size, all with its own costs.
    updates: number of update epochs to run.
    """

    epoch_rounds: int = 100
    epsilon: float = 0.1
    guess_factor: float = 10.0
    updates: int = 10

    def delta(self, k: int) -> float:
        if k < 1:
            raise ValueError("update index k starts at 1")
        return self.epsilon / k

    def validate(self) -> None:
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
    """Adaptation state of every node, in id order.  The needers of file 0
    adapt their response rates to file 1; the others, the initiators, adapt
    their initiation rates."""

    ratios: np.ndarray  # w/g per node
    initiates: np.ndarray  # True for the needers of file 1
    inv_guess: np.ndarray  # 1 / That_{n,k} per node

    @property
    def rates(self) -> np.ndarray:
        """Current rates, floored at zero."""
        return np.maximum(0.0, self.inv_guess - self.ratios)

    @property
    def aggregate_rates(self) -> tuple[float, float]:
        """Rate sums of the responders and of the initiators."""
        rates = self.rates
        return float(np.sum(rates[~self.initiates])), float(np.sum(rates[self.initiates]))

    def profile(self) -> StrategyProfile:
        """Initiators initiate, responders answer file 1; every other rate is 0."""
        rates = self.rates
        lam = np.zeros((rates.size, 2))
        lam[:, 1] = np.where(self.initiates, 0.0, rates)
        return StrategyProfile(gamma=np.where(self.initiates, rates, 0.0), lam=lam)


def init_state(s: Scenario, cfg: AdaptConfig) -> AdaptState:
    """Initial guesses and rates.

    With assumed group size G = guess_factor * true size, a node with ratio
    r guesses That_{n,0} = (G - 1) / (G r), so its starting rate is
    1/That_{n,0} - r = r / (G - 1), a factor G - 1 below its share at the
    converged point.
    """
    require_valid(s)
    cfg.validate()
    if s.files != 2:
        raise ValueError("the adaptation mechanism is defined for two-file scenarios")
    assumed = cfg.guess_factor * s.group_sizes()[s.needs]
    if np.any(assumed <= 1):
        raise ValueError("guess_factor * group size must exceed 1")
    return AdaptState(ratios=s.ratios, initiates=s.needs == 1, inv_guess=assumed * s.ratios / (assumed - 1.0))


def observe_and_update(
    state: AdaptState,
    observed_response_mean: float,
    observed_initiation_mean: float,
    k: int,
    cfg: AdaptConfig,
) -> AdaptState:
    """Apply the k-th synchronized update to both role groups.

    Each node's new inverse guess is (1 + delta_k) / That_{n,k-1} -
    delta_k / observed, with its own group's observed mean; its rate is the
    inverse guess minus its own w/g, floored at zero (with a logged warning
    per group).  Raises DivergenceError when an inverse guess is not finite.
    """
    delta = cfg.delta(k)
    for label, mean in zip(ROLES, (observed_response_mean, observed_initiation_mean)):
        if mean <= 0:
            raise NonpositiveObservationError(f"observed mean {label} backoff must be positive, got {mean}")
    observed = np.where(state.initiates, observed_initiation_mean, observed_response_mean)
    with np.errstate(over="ignore", invalid="ignore"):
        inv_guess = (1.0 + delta) * state.inv_guess - delta / observed
    if not np.isfinite(inv_guess).all():
        raise DivergenceError(f"the update to epoch {k} diverged: an inverse guess is not finite")
    floored = np.bincount(state.initiates[inv_guess < state.ratios], minlength=2)
    for label, count in zip(ROLES, floored.tolist()):
        if count:
            logger.warning("%s update floored %d rate(s) at zero", label, count)
    return AdaptState(state.ratios, state.initiates, inv_guess)


def analytic_iterate(s: Scenario, cfg: AdaptConfig) -> list[tuple[int, float, float]]:
    """Iterate the exact expectation recursion (no sampling).

    Feeds each group the true mean winning backoff implied by its current
    rates, 1 / sum(rates).  Returns rows (k, 1/That_A_k, 1/That_B_k) for
    k = 0..updates, where the aggregates are the group rate sums.
    """
    state = init_state(s, cfg)
    rows = [(0, *state.aggregate_rates)]
    for k in range(1, cfg.updates + 1):
        resp_rate, init_rate = state.aggregate_rates
        if resp_rate <= 0 or init_rate <= 0:
            raise StallError("a whole role group hit the zero-rate floor")
        state = observe_and_update(state, 1.0 / resp_rate, 1.0 / init_rate, k, cfg)
        rows.append((k, *state.aggregate_rates))
    return rows


@dataclass(frozen=True)
class EpochRecord:
    """One epoch of a simulation-coupled adaptive run.

    epoch counts the updates applied before the epoch ran; delta is the step
    used by that update (0 for the initial epoch).  The observed fields are
    the inverse mean winning backoffs measured within the epoch, and
    throughput is the per-node download rate over the epoch.
    """

    epoch: int
    delta: float
    observed_inv_that_a: float
    observed_inv_that_b: float
    throughput: float
    node_states: np.ndarray  # (nodes, 2): That_guess and rate of each node, in id order


@dataclass(frozen=True)
class AdaptiveRunResult:
    epochs: list[EpochRecord]
    metrics: Metrics
    state: AdaptState


def run_adaptive_simulation(s: Scenario, cfg: AdaptConfig, seed: int = 0) -> AdaptiveRunResult:
    """Couple the simulator with the update mechanism.

    Runs updates + 1 epochs of epoch_rounds rounds each.  Within an epoch
    the rates are fixed; the winning backoff of each phase is averaged over
    the epoch and fed into the next update.  One round engine and one RNG
    stream (seeded once) span the whole run: each update re-rates the engine,
    whose next epoch continues where the previous one left the generator,
    and the epoch sums are added in round order.
    """
    cfg.validate()
    state = init_state(s, cfg)
    engine = RoundEngine(s, state.profile(), coded=False)
    rng = np.random.Generator(np.random.PCG64(seed))
    metrics = Metrics(s)
    records: list[EpochRecord] = []

    for epoch in range(cfg.updates + 1):
        sums = np.zeros(3)
        for chunk in engine.run(rng, cfg.epoch_rounds):
            engine.account(metrics, chunk)
            sums = in_order_sum(sums, (chunk.t_init, chunk.t_resp, chunk.duration))
        init_sum, resp_sum, elapsed = sums.tolist()
        resp_mean = resp_sum / cfg.epoch_rounds
        init_mean = init_sum / cfg.epoch_rounds
        records.append(
            EpochRecord(
                epoch=epoch,
                delta=cfg.delta(epoch) if epoch >= 1 else 0.0,
                observed_inv_that_a=1.0 / resp_mean,
                observed_inv_that_b=1.0 / init_mean,
                throughput=cfg.epoch_rounds / elapsed,
                node_states=np.array((1.0 / state.inv_guess, state.rates)).T,
            )
        )
        if epoch < cfg.updates:
            try:
                state = observe_and_update(state, resp_mean, init_mean, epoch + 1, cfg)
            except DivergenceError as exc:
                raise DivergenceError(f"seed {seed}: {exc}") from None
            engine.set_profile(state.profile())

    return AdaptiveRunResult(epochs=records, metrics=metrics, state=state)
