"""Closed-form Nash equilibrium strategies, round durations, throughputs
and prices of anarchy for the broadcast exchange game.

Two settings are covered:

* the two-file bilateral game, which has a one-parameter family of
  equilibria indexed by ``alpha``, the share of initiations carried out by
  the group needing file 0; and
* the network-coded game with any number of files, whose per-file aggregate
  initiation rates solve a system that is a diagonal plus a rank-one term,
  solved exactly in closed form (Sherman-Morrison; two files give the
  alpha family instead).

Every response rate sum/(count - 1) - w/g and duration (count - 1)/sum
reads a group's sum of w/g from ``Scenario.group_sums``, taken once when
the scenario is built.

Every solver returns its raw closed form, whose rates go negative where
the costs are too unequal.  Whether a nonnegative equilibrium exists is
one separate check, ``require_nonnegative``.  Everything here is a pure
function of the scenario; no sampling.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NoEquilibriumError
from .model import Scenario, StrategyProfile


def _response_rates(s: Scenario) -> np.ndarray:
    """lam, shape (n_nodes, files): each file's holders at their response
    equilibrium sum(w/g)/(count - 1) - w_n/g_n, where the others' rate sum
    is node n's own ratio, so its response costs g_n whatever timer it
    draws (a rate is negative where no such equilibrium exists).  A node's
    own needed file gets 0."""
    lam = s.group_sums[1] / (s.n_nodes - s.group_sizes() - 1) - s.ratios[:, None]
    lam[np.arange(s.n_nodes), s.needs] = 0.0
    return lam


def two_file_equilibrium(s: Scenario, alpha: float = 0.5) -> StrategyProfile:
    """Closed-form equilibrium profile for a two-file scenario.

    Each group's initiation rates are its response rates scaled by alpha
    (group 0) or 1 - alpha (group 1).  The boundary values alpha in {0, 1}
    produce a one-sided profile: the silent group never announces its file,
    so nobody's response rate for it is played and it is zeroed.
    """
    if s.files != 2:
        raise ValueError(f"the plain (uncoded) game needs a two-file scenario; this one has {s.files} files")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")

    lam = _response_rates(s)
    # A node initiates at its rate for the file it holds, times its group's share.
    gamma = np.where(s.needs == 0, alpha, 1.0 - alpha) * lam[np.arange(s.n_nodes), 1 - s.needs]
    if alpha in (0.0, 1.0):  # group x = alpha never initiates, so file x is never announced
        lam[:, int(alpha)] = 0.0
    return StrategyProfile(gamma=gamma, lam=lam)


def require_nonnegative(profile: StrategyProfile) -> StrategyProfile:
    """Return ``profile``, or raise NoEquilibriumError naming every node id
    with a negative ``gamma`` or ``lam`` entry: then no nonnegative
    exponential-timer equilibrium exists.  Rates are never clamped."""
    bad = np.flatnonzero((profile.gamma < 0) | (profile.lam < 0).any(axis=1)).tolist()
    if bad:
        raise NoEquilibriumError(f"nodes {bad} get negative rates; no nonnegative equilibrium exists")
    return profile


def two_file_durations(s: Scenario) -> np.ndarray:
    """(That_A, That_B): the expected response-phase durations of the two
    groups at equilibrium, for every alpha (group 0 responds when file 1 is
    announced, and vice versa)."""
    if s.files != 2:
        raise ValueError(f"the plain (uncoded) game needs a two-file scenario; this one has {s.files} files")
    return (s.group_sizes() - 1) / s.group_sums[0]


def ne_round_duration(s: Scenario) -> float:
    """Expected duration of one equilibrium round, That_A + That_B + 2; it
    does not depend on alpha."""
    return two_file_durations(s).sum() + 2.0


def throughput_at_ne(s: Scenario) -> float:
    """Per-node packets per unit time at equilibrium: 1 / round duration."""
    return 1.0 / ne_round_duration(s)


class NodeCosts(NamedTuple):
    """Per-node equilibrium quantities of a two-file scenario, indexed by
    node id."""

    avg_cost: np.ndarray  # average total cost per downloaded packet
    transmit_prob: np.ndarray  # per-round probability that the node transmits
    poa: np.ndarray  # node-cost price of anarchy bound


def node_costs_at_ne(s: Scenario) -> NodeCosts:
    """Every node's average total cost per downloaded packet, per-round
    transmit probability and node-cost price of anarchy at equilibrium.

    avg_cost = g + w * (response duration of the other group) + 2w, the same
    for every alpha.  transmit_prob = 1 - ratio * (own group's response
    duration); within a group these probabilities sum to 1.  poa is an upper
    bound on the node-cost price of anarchy: avg_cost over the 2w floor (a
    node cannot download faster than once per 2 time units).
    """
    that = two_file_durations(s)
    avg_cost = s.g + s.w * that[1 - s.needs] + 2.0 * s.w
    return NodeCosts(avg_cost, 1.0 - s.ratios * that[s.needs], avg_cost / (2.0 * s.w))


def poa_system(s: Scenario) -> float:
    """Price of anarchy on system throughput: best-possible 0.5 packets per
    node per unit time divided by the equilibrium throughput."""
    return ne_round_duration(s) / 2.0


def coded_system(s: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """The per-file aggregate-rate system, as its coefficient vectors (c, d).

    Row X reads c_X * G_X + d_X * sum(G_Y for Y != X) = 1, where c_X is the
    response duration of group X and d_X that of the nodes that hold X: the
    matrix is diag(c - d) + d 1^T.
    """
    sizes = s.group_sizes()
    return (sizes - 1) / s.group_sums[0], (s.n_nodes - sizes - 1) / s.group_sums[1]


def solve_coded_system(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve c_X G_X + d_X sum(G_Y for Y != X) = 1 for every X, in closed form.

    Sherman-Morrison on diag(e) + d 1^T with e = c - d, pivoted on the row k
    with the smallest |e_k|: every other row gives G_Y = (1 - d_Y S) / e_Y,
    row k then fixes the total S, and G_k = S - sum of the others.  So e_k = 0
    (w = g = 1 and group k holds half the nodes) needs no special case; the
    system is singular exactly when a second e_Y or the denominator of S is
    0, and NoEquilibriumError is raised.

    The rows (c, d) scaled by s have the solution G / s, so the system is
    solved at the power of two s that brings the largest |c|, |d| to [0.5,
    1), where no intermediate can overflow, and the solution is scaled back.
    Scaling by a power of two is exact, so away from overflow and
    subnormals this changes no bit of the result.
    """
    scale = math.ldexp(1.0, -math.frexp(max(np.abs(c).max(), np.abs(d).max()))[1])
    c, d = c * scale, d * scale
    e = c - d
    k = int(np.argmin(np.abs(e)))
    rest = np.arange(e.size) != k
    if not np.all(e[rest]):
        rows = np.flatnonzero(e == 0).tolist()
        raise NoEquilibriumError(f"singular aggregate system: rows {rows} have c = d")
    q = 1.0 / e[rest]
    denom = c[k] + e[k] * float(np.sum(d[rest] * q))
    if denom == 0.0:
        raise NoEquilibriumError(f"singular aggregate system of {e.size} files: the total rate divides by 0")
    total = (1.0 + e[k] * float(np.sum(q))) / denom
    big_gamma = np.empty(e.size)
    big_gamma[rest] = (1.0 - d[rest] * total) * q
    big_gamma[k] = total - float(np.sum(big_gamma[rest]))
    return big_gamma * scale


def coded_aggregates(s: Scenario) -> np.ndarray:
    """G: G[X] is the aggregate initiation rate of the group needing X.

    With two files the two rows of the aggregate system coincide and every
    member of the bilateral alpha family solves them; G is that of the
    alpha = 0.5 member.
    """
    if s.files == 2:
        return 0.5 / two_file_durations(s)
    return solve_coded_system(*coded_system(s))


def coded_equilibrium(s: Scenario) -> StrategyProfile:
    """Solve the network-coded game.

    Two files go straight to the alpha = 0.5 member of the bilateral family.
    Otherwise solves the aggregate-rate system with solve_coded_system and
    recovers per-node initiation rates; responses are as in two files.
    """
    if s.files == 2:
        return two_file_equilibrium(s, alpha=0.5)

    c, d = coded_system(s)
    big_gamma = solve_coded_system(c, d)
    total_gamma = float(np.sum(big_gamma))
    own, d = big_gamma[s.needs], d[s.needs]
    gamma = own - s.ratios * (1.0 - d * (total_gamma - own))
    return StrategyProfile(gamma=gamma, lam=_response_rates(s))


def coded_throughput(s: Scenario) -> float:
    """Per-node throughput of the coded game: every round serves every node,
    so it is 1 over the expected round duration.  That is the
    initiation mean, 1 over the total aggregate rate, plus the response
    mean, which weights each file's complement duration by the chance that
    file is announced, plus 2."""
    big_gamma = coded_aggregates(s)
    total = np.sum(big_gamma)  # numpy floats, so an overflow obeys np.errstate
    resp_mean = np.sum(big_gamma / total * coded_system(s)[1])
    return 1.0 / (1.0 / total + resp_mean + 2.0)
