"""Distributed rate adaptation for the two-file game.

Files are ordered by index; the nodes needing the lower-indexed file (file
0) only respond, the others only initiate.  Each node starts from a guess of
its group's mean backoff time, derives its rate as (1 / guess) - w/g, and
every M rounds nudges its inverse guess toward the observed mean winning
backoff of its phase with a diminishing step delta_k = epsilon / k.

Two modes are provided: an analytic iteration that feeds the exact expected
backoff (1 over the current aggregate rate) back into the update, and a
simulation-coupled run that feeds the empirical epoch averages.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveObservationError, StallError
from .model import Metrics, Scenario, StrategyProfile, require_valid
from .simulate import RoundEngine, in_order_sum

logger = logging.getLogger(__name__)


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
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.updates < 0:
            raise ValueError("updates must be >= 0")


@dataclass(frozen=True)
class GroupAdaptState:
    """Adaptation state of one role group (responders or initiators)."""

    nodes: tuple[int, ...]
    ratios: np.ndarray
    inv_guess: np.ndarray  # 1 / That_{n,k} per node

    @property
    def rates(self) -> np.ndarray:
        """Current rates, floored at zero."""
        return np.maximum(0.0, self.inv_guess - self.ratios)

    @property
    def aggregate_rate(self) -> float:
        return float(np.sum(self.rates))


@dataclass(frozen=True)
class AdaptState:
    responders: GroupAdaptState  # needers of file 0, adapt response rates
    initiators: GroupAdaptState  # needers of file 1, adapt initiation rates
    epoch: int = 0

    def profile(self, scenario: Scenario) -> StrategyProfile:
        """Initiators initiate, responders answer file 1; every other rate is 0."""
        gamma, lam = np.zeros(scenario.n_nodes), np.zeros((scenario.n_nodes, 2))
        gamma[list(self.initiators.nodes)] = self.initiators.rates
        lam[list(self.responders.nodes), 1] = self.responders.rates
        return StrategyProfile(gamma=gamma, lam=lam)


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

    def group_state(file: int) -> GroupAdaptState:
        nodes = s.group(file)
        ratios = s.ratios[s.needs == file]
        assumed = cfg.guess_factor * len(nodes)
        if assumed <= 1:
            raise ValueError("guess_factor * group size must exceed 1")
        inv_guess = assumed * ratios / (assumed - 1.0)
        return GroupAdaptState(nodes=nodes, ratios=ratios, inv_guess=inv_guess)

    return AdaptState(responders=group_state(0), initiators=group_state(1), epoch=0)


def _update_group(
    group: GroupAdaptState, observed_mean: float, delta: float, label: str
) -> GroupAdaptState:
    if observed_mean <= 0:
        raise NonpositiveObservationError(
            f"observed mean {label} backoff must be positive, got {observed_mean}"
        )
    new_inv = (1.0 + delta) * group.inv_guess - delta / observed_mean
    floored = int(np.sum(new_inv < group.ratios))
    if floored:
        logger.warning("%s update floored %d rate(s) at zero", label, floored)
    return GroupAdaptState(nodes=group.nodes, ratios=group.ratios, inv_guess=new_inv)


def observe_and_update(
    state: AdaptState,
    observed_response_mean: float,
    observed_initiation_mean: float,
    k: int,
    cfg: AdaptConfig,
) -> AdaptState:
    """Apply the k-th synchronized update to both role groups.

    Each node's new inverse guess is (1 + delta_k) / That_{n,k-1} -
    delta_k / observed; its rate is the inverse guess minus its own w/g,
    floored at zero (with a logged warning).
    """
    delta = cfg.delta(k)
    return AdaptState(
        responders=_update_group(state.responders, observed_response_mean, delta, "response"),
        initiators=_update_group(state.initiators, observed_initiation_mean, delta, "initiation"),
        epoch=k,
    )


def analytic_iterate(s: Scenario, cfg: AdaptConfig) -> list[tuple[int, float, float]]:
    """Iterate the exact expectation recursion (no sampling).

    Feeds each group the true mean winning backoff implied by its current
    rates, 1 / sum(rates).  Returns rows (k, 1/That_A_k, 1/That_B_k) for
    k = 0..updates, where the aggregates are the group rate sums.
    """
    state = init_state(s, cfg)
    rows = [(0, state.responders.aggregate_rate, state.initiators.aggregate_rate)]
    for k in range(1, cfg.updates + 1):
        resp_rate = state.responders.aggregate_rate
        init_rate = state.initiators.aggregate_rate
        if resp_rate <= 0 or init_rate <= 0:
            raise StallError("a whole role group hit the zero-rate floor")
        state = observe_and_update(state, 1.0 / resp_rate, 1.0 / init_rate, k, cfg)
        rows.append((k, state.responders.aggregate_rate, state.initiators.aggregate_rate))
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
    node_states: tuple[tuple[int, float, float], ...]  # (node, That_guess, rate)


@dataclass(frozen=True)
class AdaptiveRunResult:
    epochs: list[EpochRecord]
    metrics: Metrics
    state: AdaptState


def _node_states(state: AdaptState) -> tuple[tuple[int, float, float], ...]:
    groups = (state.responders, state.initiators)
    return tuple(sorted(row for g in groups for row in zip(g.nodes, (1.0 / g.inv_guess).tolist(), g.rates.tolist())))


def run_adaptive_simulation(s: Scenario, cfg: AdaptConfig, seed: int = 0) -> AdaptiveRunResult:
    """Couple the simulator with the update mechanism.

    Runs updates + 1 epochs of epoch_rounds rounds each.  Within an epoch
    the rates are fixed; the winning backoff of each phase is averaged over
    the epoch and fed into the next update.  One RNG stream (seeded once)
    spans the whole run: each epoch's engine continues where the previous
    one left the generator, and the epoch sums are added in round order.
    """
    cfg.validate()
    state = init_state(s, cfg)
    rng = np.random.Generator(np.random.PCG64(seed))
    metrics = Metrics(s)
    records: list[EpochRecord] = []

    for epoch in range(cfg.updates + 1):
        delta = cfg.delta(epoch) if epoch >= 1 else 0.0
        engine = RoundEngine(s, state.profile(s), coded=False)
        init_sum = resp_sum = elapsed = 0.0
        for chunk in engine.run(rng, cfg.epoch_rounds):
            engine.account(metrics, chunk)
            init_sum = in_order_sum(init_sum, chunk.t_init)
            resp_sum = in_order_sum(resp_sum, chunk.t_resp)
            elapsed = in_order_sum(elapsed, chunk.duration)
        resp_mean = resp_sum / cfg.epoch_rounds
        init_mean = init_sum / cfg.epoch_rounds
        records.append(
            EpochRecord(
                epoch=epoch,
                delta=delta,
                observed_inv_that_a=1.0 / resp_mean,
                observed_inv_that_b=1.0 / init_mean,
                throughput=cfg.epoch_rounds / elapsed,
                node_states=_node_states(state),
            )
        )
        if epoch < cfg.updates:
            state = observe_and_update(state, resp_mean, init_mean, epoch + 1, cfg)

    return AdaptiveRunResult(epochs=records, metrics=metrics, state=state)
