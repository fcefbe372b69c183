from __future__ import annotations

import math

import numpy as np
import pytest

from bxsim.errors import StallError
from bxsim.model import CostParams, Node, Scenario
from bxsim.simulate import NEVER


def two_file(ratios_a, ratios_b, g: float = 1.0) -> Scenario:
    nodes = [Node(CostParams(w=r * g, g=g), needs=0) for r in ratios_a]
    nodes += [Node(CostParams(w=r * g, g=g), needs=1) for r in ratios_b]
    return Scenario(files=2, nodes=tuple(nodes))


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
