"""Oracles for the two-file game and the network-coded game.

The expected-cost oracles are the closed forms of a node's expected cost as
a function of its own timer choice.  The equilibrium tests check the solved
profiles against them; the package itself never evaluates them.  The
exponential integrals have elementary closed forms, which is what makes the
1e-9 identity tolerances attainable.

``analytic_iterate`` is the adaptation mechanism without sampling: the
exact expectation recursion that the simulation-coupled runs approximate.
"""

from __future__ import annotations

import math

import numpy as np

from bxsim.adapt import AdaptConfig, AdaptState, init_state, log_floored, observe_and_update
from bxsim.errors import BxsimError, StallError
from bxsim.model import Scenario, StrategyProfile


class DegenerateProfileError(BxsimError):
    """An expected-cost evaluation has no competing rate mass (e.g. the sum
    of the other nodes' initiation rates is zero)."""


def expected_response_cost(t: float, w: float, g: float, lam_other: float) -> float:
    """Expected additional total cost of a responder that picks timer t.

    The node pays g if nobody else fires within t, otherwise it waits for
    the earliest other firing (aggregate rate lam_other).  Closed form:
    w/L + exp(-L t) (g - w/L).  Constant in t exactly when g = w/L.
    """
    if lam_other <= 0:
        raise DegenerateProfileError("aggregate rate of the other responders must be positive")
    if t < 0:
        raise ValueError("timer must be nonnegative")
    base = w / lam_other
    return base + math.exp(-lam_other * t) * (g - base)


def expected_response_cost_under_rate(
    w: float, g: float, lam_self: float, lam_other: float
) -> float:
    """Expected response cost when the node's own timer is EXP(lam_self).

    Averages expected_response_cost over the node's own timer draw:
    w/L + (g - w/L) * lam_self / (lam_self + L).  lam_self = 0 gives the
    pure free-rider cost w/L.
    """
    if lam_other <= 0:
        raise DegenerateProfileError("aggregate rate of the other responders must be positive")
    if lam_self < 0:
        raise ValueError("own rate must be nonnegative")
    base = w / lam_other
    return base + (g - base) * lam_self / (lam_self + lam_other)


def expected_initiation_cost(
    t: float, node: int, profile: StrategyProfile, s: Scenario
) -> float:
    """Expected total cost per round for ``node`` picking initiation timer t.

    Two-file scenarios only.  The branches: if the node fires first it pays
    g plus waiting for the other group's response; if a same-group node
    fires first it free-rides; if an other-group node fires first it enters
    the response subgame, whose cost at response equilibrium is exactly its
    own g (the profile's response side is assumed to be at equilibrium).
    The 2w term is the waiting cost of the two data transmissions.

    At equilibrium initiation rates the exponential coefficient vanishes and
    the value is independent of t.
    """
    if s.files != 2:
        raise ValueError("initiation-cost closed form is defined for two-file scenarios")
    w, g = float(s.w[node]), float(s.g[node])
    needed = int(s.needs[node])
    own, other = (s.needs == needed) & (np.arange(s.n_nodes) != node), s.needs != needed
    gamma = np.asarray(profile.gamma, dtype=float)

    gamma_own_others = float(np.sum(gamma[own]))
    gamma_other = float(np.sum(gamma[other]))
    gamma_rest = gamma_own_others + gamma_other
    if gamma_rest <= 0:
        raise DegenerateProfileError("all other initiation rates are zero")

    # Response duration the node waits for after its group's announcement:
    # the other group responds, at its profile rates.
    lam_other_group = float(np.sum(np.asarray(profile.lam)[other, needed]))
    if lam_other_group <= 0:
        raise DegenerateProfileError("the responding group never fires")
    that_resp = 1.0 / lam_other_group

    p_own = gamma_own_others / gamma_rest
    p_other = gamma_other / gamma_rest
    const = w / gamma_rest + p_own * w * that_resp + p_other * g + 2.0 * w
    coeff = p_other * w * that_resp + p_own * g - w / gamma_rest
    return const + math.exp(-gamma_rest * t) * coeff


def expected_coded_round_cost(s: Scenario, profile: StrategyProfile, n: int, t: float) -> float:
    """Expected total cost of one coded round for node ``n`` fixing its
    initiation timer at t while every other node plays ``profile``; built
    from the profile's rates and the costs alone, for any file count.

    The others' initiation timers race n's at total rate Gamma, Gamma_X of
    it from group X (the nodes needing X), and n waits for the earliest
    firing: w (1 - e^{-Gamma t}) / Gamma.  If n fires first (e^{-Gamma t})
    it announces its file x_n, waits for that file's holders, whose rates
    sum to Lambda_{x_n}, and pays g for its packet:
    A = w / Lambda_{x_n} + 2w + g.  If a group X node fires first, n
    free-rides when it needs X too, B_X = w / Lambda_X + 2w, and otherwise
    plays the response subgame at its own rate lam[n, X] against the other
    holders', B_X = expected_response_cost_under_rate + 2w.  The 2w is the
    wait for the round's two data packets, which serve every node.
    """
    w, g, x_n = float(s.w[n]), float(s.g[n]), int(s.needs[n])
    others = np.asarray(profile.gamma, dtype=float).copy()
    others[n] = 0.0
    big = np.bincount(s.needs, weights=others, minlength=s.files)
    total = float(np.sum(big))
    if total <= 0:
        raise DegenerateProfileError("all other initiation rates are zero")
    lam = np.asarray(profile.lam, dtype=float)
    holders = [float(np.sum(lam[s.needs != x, x])) for x in range(s.files)]
    if min(holders) <= 0:
        raise DegenerateProfileError("the holders of some file never respond")
    initiated = w / holders[x_n] + 2.0 * w + g
    announced = [
        w / holders[x] + 2.0 * w
        if x == x_n
        else expected_response_cost_under_rate(w, g, lam[n, x], holders[x] - lam[n, x]) + 2.0 * w
        for x in range(s.files)
    ]
    decay = math.exp(-total * t)
    return w * (1.0 - decay) / total + decay * initiated + (1.0 - decay) * float(np.dot(big / total, announced))


def aggregate_rates(state: AdaptState) -> np.ndarray:
    """Rate sums of the responders and of the initiators (``ROLES`` order),
    per seed: shape (2, seeds)."""
    rates = state.rates
    return np.array((rates[:, ~state.initiates].sum(axis=-1), rates[:, state.initiates].sum(axis=-1)))


def analytic_iterate(s: Scenario, cfg: AdaptConfig) -> list[tuple[int, float, float]]:
    """Iterate the exact expectation recursion (no sampling).

    Feeds each group the true mean winning backoff implied by its current
    rates, 1 / sum(rates).  Returns rows (k, 1/That_A_k, 1/That_B_k) for
    k = 0..updates, where the aggregates are the group rate sums.
    """
    state = init_state([s], cfg)  # a batch of one seed
    rows = [(0, *aggregate_rates(state)[:, 0].tolist())]
    for k in range(1, cfg.updates + 1):
        rates = aggregate_rates(state)
        if (rates <= 0).any():
            raise StallError("a whole role group hit the zero-rate floor")
        state = observe_and_update(state, 1.0 / rates, k, cfg)
        log_floored(state.floored[0].tolist())
        rows.append((k, *aggregate_rates(state)[:, 0].tolist()))
    return rows
