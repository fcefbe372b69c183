"""Closed-form Nash equilibrium strategies, expected costs, and prices of
anarchy for the broadcast exchange game.

Two settings are covered:

* the two-file bilateral game, which has a one-parameter family of
  equilibria indexed by ``alpha``, the share of initiations carried out by
  the group needing file 0; and
* the network-coded game with any number of files, whose per-file aggregate
  initiation rates solve a system that is a diagonal plus a rank-one term,
  solved exactly in closed form (Sherman-Morrison; two files give the
  alpha family instead).

Everything here is a pure function of the scenario; no sampling.  All
expected costs are evaluated analytically (the underlying exponential
integrals have elementary closed forms), which is what makes the 1e-9
identity tolerances in the tests attainable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateProfileError, NegativeRateError, SingularSystemError
from .model import Scenario, StrategyProfile, require_valid


def response_equilibrium(ratios, allow_negative: bool = False) -> np.ndarray:
    """Equilibrium response rates for one contention group.

    Given the w/g ratios of the nodes eligible to respond, returns the rate
    vector lambda with lambda_i = (sum of ratios)/(count-1) - ratio_i.  At
    these rates each node i faces an aggregate rate from the others equal to
    its own ratio, which makes its expected response cost exactly g_i no
    matter what timer it draws.

    Raises NegativeRateError when the formula goes negative for some node
    (the exponential-form equilibrium does not exist), unless
    ``allow_negative`` is set, in which case the raw values are returned for
    identity checking.
    """
    r = np.asarray(ratios, dtype=float)
    if r.size < 2:
        raise ValueError("need at least 2 eligible responders")
    lam = np.sum(r) / (r.size - 1) - r
    if not allow_negative and np.any(lam < 0):
        worst = int(np.argmin(lam))
        raise NegativeRateError(
            f"responder {worst} gets rate {lam[worst]:.6g}; "
            "no nonnegative exponential response equilibrium exists"
        )
    return lam


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
    require_valid(s)
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


@dataclass(frozen=True)
class TwoFileEquilibrium:
    """One member of the two-file equilibrium family: its profile, and the
    expected response-phase durations that_a / that_b of the two groups
    (group 0 responds when file 1 is announced, and vice versa).
    """

    profile: StrategyProfile
    that_a: float
    that_b: float


def two_file_equilibrium(
    s: Scenario, alpha: float = 0.5, allow_negative: bool = False
) -> TwoFileEquilibrium:
    """Closed-form equilibrium profile for a two-file scenario.

    Initiation rates scale the group response formula by alpha (group 0) and
    1 - alpha (group 1).  The boundary values alpha in {0, 1} produce the
    one-sided profile used by the distributed adaptation mechanism: the
    silent group's response rates are zeroed as well, since it never gets to
    respond.
    """
    require_valid(s)
    if s.files != 2:
        raise ValueError("two_file_equilibrium requires exactly 2 files")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")

    ra, rb = s.ratios[s.needs == 0], s.ratios[s.needs == 1]
    lam_a = response_equilibrium(ra, allow_negative=allow_negative)
    lam_b = response_equilibrium(rb, allow_negative=allow_negative)
    gamma = np.empty(s.n_nodes)
    gamma[s.needs == 0] = alpha * lam_a
    gamma[s.needs == 1] = (1.0 - alpha) * lam_b
    # Group 0 possesses file 1 and responds to its announcements, which only
    # happen when group 1 initiates (weight 1 - alpha); mirrored for group 1.
    # At a boundary alpha the never-announced context gets rate 0.
    lam = np.zeros((s.n_nodes, 2))
    lam[s.needs == 0, 1] = lam_a if alpha < 1.0 else 0.0
    lam[s.needs == 1, 0] = lam_b if alpha > 0.0 else 0.0

    return TwoFileEquilibrium(
        profile=StrategyProfile(gamma=gamma, lam=lam),
        that_a=response_phase_mean(ra),
        that_b=response_phase_mean(rb),
    )


@dataclass(frozen=True)
class RoundDuration:
    t_init: float
    that_a: float
    that_b: float
    total: float


def ne_round_duration(s: Scenario, alpha: float = 0.5) -> RoundDuration:
    """Expected phase durations of one equilibrium round.

    total = that_a + that_b + 2 and does not depend on alpha; the initiation
    mean t_init does (it is 1 over the total initiation rate).
    """
    require_valid(s)
    if s.files != 2:
        raise ValueError("ne_round_duration requires exactly 2 files")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    that_a = response_phase_mean(s.ratios[s.needs == 0])
    that_b = response_phase_mean(s.ratios[s.needs == 1])
    rate = (alpha / that_a if alpha > 0 else 0.0) + ((1 - alpha) / that_b if alpha < 1 else 0.0)
    return RoundDuration(
        t_init=1.0 / rate,
        that_a=that_a,
        that_b=that_b,
        total=that_a + that_b + 2.0,
    )


def throughput_at_ne(s: Scenario) -> float:
    """Per-node packets per unit time at equilibrium: 1 / round duration."""
    return 1.0 / ne_round_duration(s).total


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
    duration = ne_round_duration(s)
    that = np.array([duration.that_a, duration.that_b])
    avg_cost = s.g + s.w * that[1 - s.needs] + 2.0 * s.w
    return NodeCosts(avg_cost, 1.0 - s.ratios * that[s.needs], avg_cost / (2.0 * s.w))


def poa_system(s: Scenario) -> float:
    """Price of anarchy on system throughput: best-possible 0.5 packets per
    node per unit time divided by the equilibrium throughput."""
    return ne_round_duration(s).total / 2.0


@dataclass(frozen=True)
class CodedEquilibrium:
    """Equilibrium of the network-coded game.

    gamma_by_file[X] is the aggregate initiation rate of the group needing
    X.  With two files the two rows of the aggregate system coincide and
    every member of the bilateral alpha family solves them; ``degenerate``
    is set and the fields hold the alpha = 0.5 member.
    """

    gamma_by_file: tuple[float, ...]
    profile: StrategyProfile
    degenerate: bool


def coded_system(s: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """The per-file aggregate-rate system, as its coefficient vectors (c, d).

    Row X reads c_X * G_X + d_X * sum(G_Y for Y != X) = 1, where c_X is
    group X's own response duration and d_X is the response duration of
    X's complement (the nodes that hold X).  The matrix is thus
    diag(c - d) + d 1^T.
    """
    require_valid(s)
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


def coded_equilibrium(s: Scenario, allow_negative: bool = False) -> CodedEquilibrium:
    """Solve the network-coded game.

    Two files go straight to the alpha = 0.5 member of the bilateral family.
    Otherwise solves the aggregate-rate system with solve_coded_system, recovers
    per-node initiation rates, and fills the response rates of every node
    holding each announced file via response_equilibrium over the file's
    complement group.
    """
    require_valid(s)
    if s.files == 2:
        eq = two_file_equilibrium(s, alpha=0.5, allow_negative=allow_negative)
        return CodedEquilibrium((0.5 / eq.that_a, 0.5 / eq.that_b), eq.profile, degenerate=True)

    c, d = coded_system(s)
    big_gamma = solve_coded_system(c, d)
    total_gamma = float(np.sum(big_gamma))
    own, d = big_gamma[s.needs], d[s.needs]
    gamma = own - s.ratios * (1.0 - d * (total_gamma - own))
    if not allow_negative:
        bad = np.flatnonzero(gamma < 0).tolist()
        if bad:
            raise NegativeRateError(
                f"nodes {bad} get negative initiation rates; "
                "no nonnegative coded equilibrium exists"
            )

    lam = np.zeros((s.n_nodes, s.files))
    for x in range(s.files):
        holders = s.needs != x
        lam[holders, x] = response_equilibrium(s.ratios[holders], allow_negative=allow_negative)

    return CodedEquilibrium(
        gamma_by_file=tuple(big_gamma.tolist()),
        profile=StrategyProfile(gamma=gamma, lam=lam),
        degenerate=False,
    )


@dataclass(frozen=True)
class CodedRoundDuration:
    t_init: float
    response_mean: float
    total: float


def coded_round_duration(s: Scenario, eq: CodedEquilibrium | None = None) -> CodedRoundDuration:
    """Expected round duration under the coded equilibrium.

    Initiation mean is 1 over the total aggregate rate; the response mean
    weights each file's complement duration by the chance that file is
    announced.
    """
    if eq is None:
        eq = coded_equilibrium(s, allow_negative=True)
    big_gamma = np.asarray(eq.gamma_by_file)
    total = np.sum(big_gamma)  # numpy floats, as in response_phase_mean
    resp_mean = np.sum(big_gamma / total * coded_system(s)[1])
    return CodedRoundDuration(
        t_init=1.0 / total,
        response_mean=resp_mean,
        total=1.0 / total + resp_mean + 2.0,
    )


def coded_throughput(s: Scenario, eq: CodedEquilibrium | None = None) -> float:
    """Per-node throughput of the coded game: every node downloads once per
    round, so it is 1 over the expected round duration."""
    return 1.0 / coded_round_duration(s, eq).total
