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

Every solver returns its raw closed form, whose rates go negative where
the costs are too unequal.  Whether a nonnegative equilibrium exists is
one separate check, ``require_nonnegative``.  Everything here is a pure
function of the scenario; no sampling.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NegativeRateError, SingularSystemError
from .model import Scenario, StrategyProfile


def response_equilibrium(ratios) -> np.ndarray:
    """Equilibrium response rates for one contention group.

    Given the w/g ratios of the nodes eligible to respond, returns the rate
    vector lambda with lambda_i = (sum of ratios)/(count-1) - ratio_i.  At
    these rates each node i faces an aggregate rate from the others equal to
    its own ratio, which makes its expected response cost exactly g_i no
    matter what timer it draws.  A node whose ratio exceeds the mean of the
    others' gets a negative rate.
    """
    r = np.asarray(ratios, dtype=float)
    if r.size < 2:
        raise ValueError("need at least 2 eligible responders")
    return np.sum(r) / (r.size - 1) - r


def response_phase_mean(ratios) -> float:
    """Expected response-phase duration at equilibrium: (count-1)/sum(w/g).

    Equals 1/sum(lambda) for the rates from response_equilibrium.  A numpy
    float, so that sums of durations that overflow obey np.errstate.
    """
    r = np.asarray(ratios, dtype=float)
    if r.size < 2:
        raise ValueError("need at least 2 eligible responders")
    total = np.sum(r)
    if total <= 0:
        raise ValueError("sum of ratios must be positive")
    return (r.size - 1) / total


def two_file_equilibrium(s: Scenario, alpha: float = 0.5) -> StrategyProfile:
    """Closed-form equilibrium profile for a two-file scenario.

    Initiation rates scale the group response formula by alpha (group 0) and
    1 - alpha (group 1).  The boundary values alpha in {0, 1} produce a
    one-sided profile: the silent group's response rates are zeroed as well,
    since it never gets to respond.
    """
    if s.files != 2:
        raise ValueError(f"the plain (uncoded) game needs a two-file scenario; this one has {s.files} files")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")

    lam_a = response_equilibrium(s.ratios[s.needs == 0])
    lam_b = response_equilibrium(s.ratios[s.needs == 1])
    gamma = np.empty(s.n_nodes)
    gamma[s.needs == 0] = alpha * lam_a
    gamma[s.needs == 1] = (1.0 - alpha) * lam_b
    # Group 0 possesses file 1 and responds to its announcements, which only
    # happen when group 1 initiates (weight 1 - alpha); mirrored for group 1.
    # At a boundary alpha the never-announced context gets rate 0.
    lam = np.zeros((s.n_nodes, 2))
    lam[s.needs == 0, 1] = lam_a if alpha < 1.0 else 0.0
    lam[s.needs == 1, 0] = lam_b if alpha > 0.0 else 0.0
    return StrategyProfile(gamma=gamma, lam=lam)


def require_nonnegative(profile: StrategyProfile) -> StrategyProfile:
    """Return ``profile``, or raise NegativeRateError naming every node id
    with a negative ``gamma`` or ``lam`` entry: then no nonnegative
    exponential-timer equilibrium exists.  Rates are never clamped."""
    bad = np.flatnonzero((profile.gamma < 0) | (profile.lam < 0).any(axis=1)).tolist()
    if bad:
        raise NegativeRateError(f"nodes {bad} get negative rates; no nonnegative equilibrium exists")
    return profile


def two_file_durations(s: Scenario) -> np.ndarray:
    """(That_A, That_B): the expected response-phase durations of the two
    groups at equilibrium, for every alpha (group 0 responds when file 1 is
    announced, and vice versa)."""
    if s.files != 2:
        raise ValueError(f"the plain (uncoded) game needs a two-file scenario; this one has {s.files} files")
    return np.array([response_phase_mean(s.ratios[s.needs == x]) for x in (0, 1)])


def ne_round_duration(s: Scenario) -> float:
    """Expected duration of one equilibrium round, That_A + That_B + 2; it
    does not depend on alpha."""
    that_a, that_b = two_file_durations(s)
    return that_a + that_b + 2.0


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

    Row X reads c_X * G_X + d_X * sum(G_Y for Y != X) = 1, where c_X is
    group X's own response duration and d_X is the response duration of
    X's complement (the nodes that hold X).  The matrix is thus
    diag(c - d) + d 1^T.
    """
    sums = np.bincount(s.needs, weights=s.ratios, minlength=s.files)
    # The holders' sum is that of the groups before X plus that of the groups
    # after it, never a difference that could cancel to 0.
    held = np.append(0.0, np.cumsum(sums[:-1])) + np.append(np.cumsum(sums[:0:-1])[::-1], 0.0)
    sizes = s.group_sizes()
    return (sizes - 1) / sums, (s.n_nodes - sizes - 1) / held


def solve_coded_system(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve c_X G_X + d_X sum(G_Y for Y != X) = 1 for every X, in closed form.

    Sherman-Morrison on diag(e) + d 1^T with e = c - d, pivoted on the row k
    with the smallest |e_k|: every other row gives G_Y = (1 - d_Y S) / e_Y,
    row k then fixes the total S, and G_k = S - sum of the others.  So e_k = 0
    (w = g = 1 and group k holds half the nodes) needs no special case; the
    system is singular exactly when a second e_Y or the denominator of S is
    0, and SingularSystemError is raised.

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
        raise SingularSystemError(f"singular aggregate system: rows {rows} have c = d")
    q = 1.0 / e[rest]
    denom = c[k] + e[k] * float(np.sum(d[rest] * q))
    if denom == 0.0:
        raise SingularSystemError(f"singular aggregate system of {e.size} files: the total rate divides by 0")
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
    Otherwise solves the aggregate-rate system with solve_coded_system, recovers
    per-node initiation rates, and fills the response rates of every node
    holding each announced file via response_equilibrium over the file's
    complement group.
    """
    if s.files == 2:
        return two_file_equilibrium(s, alpha=0.5)

    c, d = coded_system(s)
    big_gamma = solve_coded_system(c, d)
    total_gamma = float(np.sum(big_gamma))
    own, d = big_gamma[s.needs], d[s.needs]
    gamma = own - s.ratios * (1.0 - d * (total_gamma - own))

    lam = np.zeros((s.n_nodes, s.files))
    for x in range(s.files):
        holders = s.needs != x
        lam[holders, x] = response_equilibrium(s.ratios[holders])
    return StrategyProfile(gamma=gamma, lam=lam)


def coded_throughput(s: Scenario) -> float:
    """Per-node throughput of the coded game: every round serves every node,
    so it is 1 over the expected round duration.  That is the
    initiation mean, 1 over the total aggregate rate, plus the response
    mean, which weights each file's complement duration by the chance that
    file is announced, plus 2."""
    big_gamma = coded_aggregates(s)
    total = np.sum(big_gamma)  # numpy floats, as in response_phase_mean
    resp_mean = np.sum(big_gamma / total * coded_system(s)[1])
    return 1.0 / (1.0 / total + resp_mean + 2.0)
