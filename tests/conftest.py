from __future__ import annotations

import math

import numpy as np
import pytest

from bxsim import linsolve
from bxsim.equilibrium import response_equilibrium, response_phase_mean
from bxsim.errors import StallError
from bxsim.model import CostParams, Node, Scenario, make_two_file
from bxsim.simulate import NEVER

two_file = make_two_file


def symmetric(files: int, group_size: int, w: float = 1.0, g: float = 1.0) -> Scenario:
    nodes = [
        Node(CostParams(w=w, g=g), needs=f) for f in range(files) for _ in range(group_size)
    ]
    return Scenario(files=files, nodes=tuple(nodes))


def random_two_file(rng: np.random.Generator, max_group: int = 20) -> Scenario:
    i = int(rng.integers(2, max_group + 1))
    j = int(rng.integers(2, max_group + 1))
    return two_file(rng.uniform(1.0, 2.0, size=i), rng.uniform(1.0, 2.0, size=j))


def random_coded(rng: np.random.Generator, files: int, group_size: int = 10) -> Scenario:
    nodes = [
        Node(CostParams(w=float(rng.uniform(1.0, 2.0)), g=1.0), needs=f)
        for f in range(files)
        for _ in range(group_size)
    ]
    return Scenario(files=files, nodes=tuple(nodes))


@pytest.fixture
def sym_10_10() -> Scenario:
    return symmetric(2, 10)


@pytest.fixture
def sym_2_2() -> Scenario:
    return symmetric(2, 2)


def reference_timers(rates: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One round phase's timers as the per-round engine drew them."""
    u = rng.random(rates.shape[0])
    with np.errstate(divide="ignore"):
        return np.where(rates > 0.0, -np.log1p(-u) / np.where(rates > 0.0, rates, 1.0), NEVER)


def reference_play(s: Scenario, profile, rng: np.random.Generator, rounds: int) -> list[tuple]:
    """Round-by-round play, one numpy draw per phase: the oracle for the
    batched engine.  Returns (initiator, responder, t_init, t_resp) rows."""
    gamma = np.array(profile.gamma, dtype=float)
    out = []
    for _ in range(rounds):
        t = reference_timers(gamma, rng)
        i0 = int(np.argmin(t))
        if not math.isfinite(t[i0]):
            raise StallError("no node can initiate")
        x = int(s.needs[i0])
        ids = np.flatnonzero(s.needs != x)
        th = reference_timers(np.array([profile.response_rate(int(m), x) for m in ids]), rng)
        j = int(np.argmin(th))
        if not math.isfinite(th[j]):
            raise StallError(f"no responder for file {x}")
        out.append((i0, int(ids[j]), float(t[i0]), float(th[j])))
    return out


# Scalar references: the per-node equilibrium formulas as they were written
# before the scenario kept its data in arrays, reading every value from
# ``s.nodes`` one node at a time.  The array forms must match them bit for bit.


def ref_ratio(s: Scenario, n: int) -> float:
    return s.nodes[n].costs.w / s.nodes[n].costs.g


def ref_group(s: Scenario, x: int) -> tuple[int, ...]:
    return tuple(n for n, nd in enumerate(s.nodes) if nd.needs == x)


def ref_complement(s: Scenario, x: int) -> tuple[int, ...]:
    return tuple(n for n, nd in enumerate(s.nodes) if nd.needs != x)


def reference_two_file(s: Scenario, alpha: float) -> tuple:
    """(gamma, lam, that_a, that_b) of the two-file equilibrium, raw rates."""
    group_a, group_b = ref_group(s, 0), ref_group(s, 1)
    ra = np.array([ref_ratio(s, n) for n in group_a])
    rb = np.array([ref_ratio(s, n) for n in group_b])
    lam_a = response_equilibrium(ra, allow_negative=True)
    lam_b = response_equilibrium(rb, allow_negative=True)
    gam_a = alpha * (np.sum(ra) / (ra.size - 1) - ra)
    gam_b = (1.0 - alpha) * (np.sum(rb) / (rb.size - 1) - rb)
    gamma = [0.0] * s.n_nodes
    lam = {}
    for i, n in enumerate(group_a):
        gamma[n] = float(gam_a[i])
        lam[(n, 1)] = float(lam_a[i]) if alpha < 1.0 else 0.0
    for j, n in enumerate(group_b):
        gamma[n] = float(gam_b[j])
        lam[(n, 0)] = float(lam_b[j]) if alpha > 0.0 else 0.0
    return tuple(gamma), lam, response_phase_mean(ra), response_phase_mean(rb)


def reference_round_duration(s: Scenario, alpha: float) -> tuple:
    """(t_init, that_a, that_b, total) of one two-file equilibrium round."""
    that_a = response_phase_mean([ref_ratio(s, n) for n in ref_group(s, 0)])
    that_b = response_phase_mean([ref_ratio(s, n) for n in ref_group(s, 1)])
    rate = (alpha / that_a if alpha > 0 else 0.0) + ((1 - alpha) / that_b if alpha < 1 else 0.0)
    return 1.0 / rate, that_a, that_b, that_a + that_b + 2.0


def reference_node_cost(node: int, s: Scenario) -> tuple[float, float, float]:
    """(avg_cost, transmit_prob, poa) of one node at the two-file equilibrium."""
    needed = s.nodes[node].needs
    that_own = response_phase_mean([ref_ratio(s, n) for n in ref_group(s, needed)])
    that_other = response_phase_mean([ref_ratio(s, n) for n in ref_group(s, 1 - needed)])
    w, g = s.nodes[node].costs.w, s.nodes[node].costs.g
    avg_cost = g + w * that_other + 2.0 * w
    return avg_cost, 1.0 - ref_ratio(s, node) * that_own, avg_cost / (2.0 * w)


def reference_coded(s: Scenario) -> tuple:
    """(gamma_by_file, gamma, lam) of the coded equilibrium, 3+ files, raw rates."""
    f = s.files
    sums = {x: float(np.sum([ref_ratio(s, n) for n in ref_group(s, x)])) for x in range(f)}
    sizes = [len(ref_group(s, x)) for x in range(f)]
    total_ratio = sum(sums.values())
    a = np.zeros((f, f))
    for x in range(f):
        a[x, :] = (s.n_nodes - sizes[x] - 1) / (total_ratio - sums[x])
        a[x, x] = (sizes[x] - 1) / sums[x]
    big_gamma = linsolve.solve(linsolve.DenseSystem(a=a, b=np.ones(f))).x
    total_gamma = float(np.sum(big_gamma))
    gamma = [0.0] * s.n_nodes
    for n in range(s.n_nodes):
        x = s.nodes[n].needs
        d_x = response_phase_mean([ref_ratio(s, m) for m in ref_complement(s, x)])
        gamma[n] = float(big_gamma[x] - ref_ratio(s, n) * (1.0 - d_x * (total_gamma - big_gamma[x])))
    lam = {}
    for x in range(f):
        members = ref_complement(s, x)
        rates = response_equilibrium([ref_ratio(s, m) for m in members], allow_negative=True)
        for m, rate in zip(members, rates):
            lam[(m, x)] = float(rate)
    return tuple(float(v) for v in big_gamma), tuple(gamma), lam
