"""Closed-form Nash equilibrium strategies, expected costs, and prices of
anarchy for the broadcast exchange game.

Two settings are covered:

* the two-file bilateral game, which has a one-parameter family of
  equilibria indexed by ``alpha``, the share of initiations carried out by
  the group needing file 0; and
* the network-coded game with any number of files, whose per-file aggregate
  initiation rates solve a small linear system.

Everything here is a pure function of the scenario; no sampling.  All
expected costs are evaluated analytically (the underlying exponential
integrals have elementary closed forms), which is what makes the 1e-9
identity tolerances in the tests attainable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import linsolve
from .errors import DegenerateProfileError, NegativeRateError, SingularSystemError
from .model import NodeId, Scenario, StrategyProfile, require_valid


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

    Equals 1/sum(lambda) for the rates from response_equilibrium.
    """
    r = np.asarray(ratios, dtype=float)
    if r.size < 2:
        raise ValueError("need at least 2 eligible responders")
    total = float(np.sum(r))
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
    t: float, node: NodeId, profile: StrategyProfile, s: Scenario
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
    own = s.group(needed)
    other = s.group(1 - needed)

    gamma_own_others = sum(profile.gamma[m] for m in own if m != node)
    gamma_other = sum(profile.gamma[m] for m in other)
    gamma_rest = gamma_own_others + gamma_other
    if gamma_rest <= 0:
        raise DegenerateProfileError("all other initiation rates are zero")

    # Response duration the node waits for after its group's announcement:
    # the other group responds, at its profile rates.
    lam_other_group = sum(profile.response_rate(m, needed) for m in other)
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
    """One member of the two-file equilibrium family.

    alpha is the share of initiations performed by the group needing file 0;
    that_a / that_b are the expected response-phase durations of the two
    groups (group 0 responds when file 1 is announced, and vice versa).
    """

    alpha: float
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
    resp_a = lam_a if alpha < 1.0 else np.zeros_like(lam_a)
    resp_b = lam_b if alpha > 0.0 else np.zeros_like(lam_b)
    lam = dict(zip(zip(s.group(0), repeat(1)), resp_a.tolist()))
    lam.update(zip(zip(s.group(1), repeat(0)), resp_b.tolist()))

    return TwoFileEquilibrium(
        alpha=alpha,
        profile=StrategyProfile(gamma=tuple(gamma.tolist()), lam=lam),
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
    X.  For two files the linear system is rank deficient by construction
    and the whole alpha family solves it; ``degenerate`` is set, ``family``
    carries the solution set, and the point fields hold the alpha = 0.5
    representative.
    """

    gamma_by_file: tuple[float, ...]
    profile: StrategyProfile
    degenerate: bool
    family: linsolve.Family | None = None


def coded_system(s: Scenario) -> linsolve.DenseSystem:
    """The per-file aggregate-rate system.

    Row X reads c_X * G_X + d_X * sum(G_Y for Y != X) = 1, where c_X is
    group X's own response-duration coefficient and d_X is the response
    duration of X's complement (the nodes that hold X).
    """
    require_valid(s)
    f = s.files
    sums = [float(np.sum(s.ratios[s.needs == x])) for x in range(f)]
    sizes = s.group_sizes()
    total_nodes = s.n_nodes
    total_ratio = sum(sums)
    a = np.zeros((f, f))
    for x in range(f):
        c_x = (sizes[x] - 1) / sums[x]
        d_x = (total_nodes - sizes[x] - 1) / (total_ratio - sums[x])
        a[x, :] = d_x
        a[x, x] = c_x
    return linsolve.DenseSystem(a=a, b=np.ones(f))


def _complement_durations(s: Scenario) -> np.ndarray:
    """Per file X, the response duration of the nodes that hold X."""
    return np.array([response_phase_mean(s.ratios[s.needs != x]) for x in range(s.files)])


def coded_equilibrium(s: Scenario, allow_negative: bool = False) -> CodedEquilibrium:
    """Solve the network-coded game.

    Builds and solves the aggregate-rate system, recovers per-node
    initiation rates, and computes context-dependent response rates for
    every (node, announced file) pair via response_equilibrium over the
    file's complement group.
    """
    require_valid(s)
    sys = coded_system(s)
    sol = linsolve.solve(sys)

    if isinstance(sol, linsolve.Family):
        if s.files != 2:
            raise SingularSystemError(
                f"rank-deficient aggregate system with {s.files} files "
                f"(null space dimension {sol.nullspace.shape[1]})"
            )
        # Two files: the system collapses to the single line
        # That_A*G_A + That_B*G_B = 1, the bilateral alpha family.  Return
        # the alpha=0.5 representative as the point solution.
        eq = two_file_equilibrium(s, alpha=0.5, allow_negative=allow_negative)
        gamma_by_file = (0.5 / eq.that_a, 0.5 / eq.that_b)
        return CodedEquilibrium(
            gamma_by_file=gamma_by_file,
            profile=eq.profile,
            degenerate=True,
            family=sol,
        )

    big_gamma = sol.x
    total_gamma = float(np.sum(big_gamma))
    own, d = big_gamma[s.needs], _complement_durations(s)[s.needs]
    gamma = own - s.ratios * (1.0 - d * (total_gamma - own))
    if not allow_negative:
        bad = np.flatnonzero(gamma < 0).tolist()
        if bad:
            raise NegativeRateError(
                f"nodes {bad} get negative initiation rates; "
                "no nonnegative coded equilibrium exists"
            )

    lam = {}
    for x in range(s.files):
        rates = response_equilibrium(s.ratios[s.needs != x], allow_negative=allow_negative)
        lam.update(zip(zip(s.complement(x), repeat(x)), rates.tolist()))

    return CodedEquilibrium(
        gamma_by_file=tuple(big_gamma.tolist()),
        profile=StrategyProfile(gamma=tuple(gamma.tolist()), lam=lam),
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
    total = float(np.sum(big_gamma))
    resp_mean = float(np.sum(big_gamma / total * _complement_durations(s)))
    return CodedRoundDuration(
        t_init=1.0 / total,
        response_mean=resp_mean,
        total=1.0 / total + resp_mean + 2.0,
    )


def coded_throughput(s: Scenario, eq: CodedEquilibrium | None = None) -> float:
    """Per-node throughput of the coded game: every node downloads once per
    round, so it is 1 over the expected round duration."""
    return 1.0 / coded_round_duration(s, eq).total
