from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import strategies as st

from bxsim.adapt import run_adaptive_simulation
from bxsim.cli import gen_groups
from bxsim.errors import (
    BAD_CONFIG,
    BAD_FILE_ID,
    GROUP_TOO_SMALL,
    NONFINITE_COST,
    NONPOSITIVE_COST,
    TOO_FEW_FILES,
    ScenarioError,
    StallError,
    Violation,
)
from bxsim.model import Scenario, StrategyProfile, make_two_file
from bxsim.simulate import NEVER

two_file = make_two_file


def symmetric(files: int, group_size: int, w: float = 1.0, g: float = 1.0) -> Scenario:
    n = files * group_size
    return Scenario(files=files, w=np.full(n, w), g=np.full(n, g), needs=np.repeat(np.arange(files), group_size))


def random_two_file(rng: np.random.Generator, max_group: int = 20) -> Scenario:
    i = int(rng.integers(2, max_group + 1))
    j = int(rng.integers(2, max_group + 1))
    return two_file(rng.uniform(1.0, 2.0, size=i), rng.uniform(1.0, 2.0, size=j))


def random_coded(rng: np.random.Generator, files: int, group_size: int = 10) -> Scenario:
    return gen_groups([group_size] * files, 1.0, 2.0, rng)


@st.composite
def shuffled_scenarios(draw, files, max_group: int = 7, unequal: bool = False, cost=st.floats(0.05, 20.0)):
    """Groups of 2-``max_group`` nodes, not all of one size if ``unequal``, in
    shuffled order, one per file of a count drawn from ``files``, with w and g
    drawn apart from ``cost``."""
    f = draw(files)
    sizes = st.lists(st.integers(2, max_group), min_size=f, max_size=f)
    sizes = draw(sizes.filter(lambda v: len(set(v)) > 1) if unequal else sizes)
    needs = draw(st.permutations(np.repeat(np.arange(f), sizes).tolist()))
    w, g = zip(*((draw(cost), draw(cost)) for _ in needs))
    return Scenario(files=f, w=w, g=g, needs=needs)


@st.composite
def two_file_with_equilibrium(draw, max_group: int = 7):
    """Two groups of 2-``max_group`` nodes in shuffled order, with w and g
    drawn apart, whose two-file equilibrium exists: in each group of k nodes
    the largest ratio w/g is at most sum/(k - 1).  Any two ratios meet this,
    so a pair spreads over 400 times its base (the span of w/g that
    shuffled_scenarios draws); a group of k >= 3 keeps its ratios within a factor (k - 1)/(k - 2) of a
    drawn base, shrunk by 1e-9 so that rounding cannot take a rate below 0."""
    sizes = draw(st.lists(st.integers(2, max_group), min_size=2, max_size=2))
    needs = draw(st.permutations(np.repeat(np.arange(2), sizes).tolist()))
    cost = st.floats(0.05, 20.0)
    base = [draw(cost) for _ in sizes]
    spread = [400.0 if k == 2 else (k - 1) / (k - 2) * (1 - 1e-9) for k in sizes]
    g = [draw(cost) for _ in needs]
    w = [base[x] * draw(st.floats(1.0, spread[x])) * gn for x, gn in zip(needs, g)]
    return Scenario(files=2, w=w, g=g, needs=needs)


@st.composite
def coded_with_close_ratios(draw, files=st.integers(3, 6), max_group: int = 7):
    """Groups of 2-``max_group`` nodes in shuffled order, one per file of a
    count drawn from ``files``, with g drawn apart and every ratio w/g within
    10% of a drawn base: most such games have a nonnegative coded
    equilibrium."""
    f = draw(files)
    sizes = draw(st.lists(st.integers(2, max_group), min_size=f, max_size=f))
    needs = draw(st.permutations(np.repeat(np.arange(f), sizes).tolist()))
    base = draw(st.floats(0.05, 20.0))
    g = [draw(st.floats(0.05, 20.0)) for _ in needs]
    w = [base * draw(st.floats(1.0, 1.1)) * gn for gn in g]
    return Scenario(files=f, w=w, g=g, needs=needs)


def scenario_to_dict(s: Scenario) -> dict:
    """The scenario config that ``load_scenario`` reads back as ``s``."""
    columns = zip(s.w.tolist(), s.g.tolist(), s.needs.tolist())
    return {"files": s.files, "nodes": [{"w": w, "g": g, "needs": x} for w, g, x in columns]}


def dense_profile(gamma, lam: dict, files: int = 2) -> StrategyProfile:
    """A StrategyProfile from initiation rates and a sparse {(node, file): rate}
    dict of response rates; every pair the dict leaves out gets rate 0."""
    dense = np.zeros((len(gamma), files))
    for (n, x), rate in lam.items():
        dense[n, x] = rate
    return StrategyProfile(gamma=np.array(gamma, dtype=float), lam=dense)


def one_seed(profile) -> StrategyProfile:
    """``profile`` lifted to a batch of one seed, the shape RoundEngine plays."""
    return StrategyProfile(np.asarray(profile.gamma)[None], np.asarray(profile.lam)[None])


def first_seed(profile) -> StrategyProfile:
    """Seed 0 of a batch's ``profile``, the shape reference_play plays."""
    return StrategyProfile(profile.gamma[0], profile.lam[0])


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
        th = reference_timers(np.array([float(profile.lam[m, x]) for m in ids]), rng)
        j = int(np.argmin(th))
        if not math.isfinite(th[j]):
            raise StallError(f"no responder for file {x}")
        out.append((i0, int(ids[j]), float(t[i0]), float(th[j])))
    return out


# Scalar references: the per-node equilibrium formulas as they were written
# before the scenario kept its data in arrays, reading every value one node
# at a time as a Python scalar.  The array forms must match them bit for bit.


def response_equilibrium(ratios) -> np.ndarray:
    """Response rates of one contention group with these w/g ratios:
    lambda_i = sum(ratios)/(count - 1) - ratio_i."""
    r = np.asarray(ratios, dtype=float)
    return np.sum(r) / (r.size - 1) - r


def response_phase_mean(ratios):
    """Expected response-phase duration of one contention group at
    equilibrium, (count - 1)/sum(ratios), as a numpy float."""
    r = np.asarray(ratios, dtype=float)
    return (r.size - 1) / np.sum(r)


def ref_ratio(s: Scenario, n: int) -> float:
    return float(s.w[n]) / float(s.g[n])


def ref_group(s: Scenario, x: int) -> tuple[int, ...]:
    return tuple(n for n, needs in enumerate(s.needs.tolist()) if needs == x)


def ref_complement(s: Scenario, x: int) -> tuple[int, ...]:
    return tuple(n for n, needs in enumerate(s.needs.tolist()) if needs != x)


def reference_two_file(s: Scenario, alpha: float) -> tuple:
    """(gamma, lam, that_a, that_b) of the two-file equilibrium, raw rates."""
    group_a, group_b = ref_group(s, 0), ref_group(s, 1)
    ra = np.array([ref_ratio(s, n) for n in group_a])
    rb = np.array([ref_ratio(s, n) for n in group_b])
    lam_a = response_equilibrium(ra)
    lam_b = response_equilibrium(rb)
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


def reference_round_duration(s: Scenario) -> tuple:
    """(that_a, that_b, total) of one two-file equilibrium round."""
    that_a = response_phase_mean([ref_ratio(s, n) for n in ref_group(s, 0)])
    that_b = response_phase_mean([ref_ratio(s, n) for n in ref_group(s, 1)])
    return that_a, that_b, that_a + that_b + 2.0


def reference_node_cost(node: int, s: Scenario) -> tuple[float, float, float]:
    """(avg_cost, transmit_prob, poa) of one node at the two-file equilibrium."""
    needed = int(s.needs[node])
    that_own = response_phase_mean([ref_ratio(s, n) for n in ref_group(s, needed)])
    that_other = response_phase_mean([ref_ratio(s, n) for n in ref_group(s, 1 - needed)])
    w, g = float(s.w[node]), float(s.g[node])
    avg_cost = g + w * that_other + 2.0 * w
    return avg_cost, 1.0 - ref_ratio(s, node) * that_own, avg_cost / (2.0 * w)


def reference_coded_system(s: Scenario) -> tuple[list[float], list[float]]:
    """(c, d) of the coded aggregate system: per file, the response duration
    of the group that needs it and of the nodes that hold it."""
    c = [response_phase_mean([ref_ratio(s, n) for n in ref_group(s, x)]) for x in range(s.files)]
    d = [response_phase_mean([ref_ratio(s, m) for m in ref_complement(s, x)]) for x in range(s.files)]
    return c, d


def reference_coded(s: Scenario, aggregates) -> tuple:
    """(gamma, lam) of the coded equilibrium with aggregate rates
    ``aggregates``, 3+ files, raw rates."""
    _, d = reference_coded_system(s)
    big_gamma = [float(v) for v in aggregates]
    total_gamma = float(np.sum(big_gamma))
    gamma = [0.0] * s.n_nodes
    for n in range(s.n_nodes):
        x = int(s.needs[n])
        gamma[n] = float(big_gamma[x] - ref_ratio(s, n) * (1.0 - d[x] * (total_gamma - big_gamma[x])))
    lam = {}
    for x in range(s.files):
        members = ref_complement(s, x)
        rates = response_equilibrium([ref_ratio(s, m) for m in members])
        for m, rate in zip(members, rates):
            lam[(m, x)] = float(rate)
    return tuple(gamma), lam


def exact_coded_solution(c, d) -> list[Fraction] | None:
    """The exact solution of the rows c_X G_X + d_X sum(G_Y, Y != X) = 1,
    reading each float coefficient as the rational it is: Gauss-Jordan
    elimination in Fraction arithmetic.  None when the rows are singular."""
    f = len(c)
    rows = [[Fraction(c[x]) if y == x else Fraction(d[x]) for y in range(f)] + [Fraction(1)] for x in range(f)]
    for col in range(f):
        pivot = next((r for r in range(col, f) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(f):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[x][f] / rows[x][x] for x in range(f)]


# (c, d) of two singular 3-file aggregate systems: one with two rows of
# c = d, and one whose closed form has a zero denominator (column 0 is 0).
SINGULAR_CODED_ROWS = [([1.0, 1.0, 2.0], [1.0, 1.0, 1.0]), ([0.0, 1.0, 1.0], [-1.0, 0.0, 0.0])]


def coded_residuals(c, d, big_gamma) -> np.ndarray:
    """Per row X of the aggregate system, c_X G_X + d_X (S - G_X) - 1."""
    big = np.asarray(big_gamma, dtype=float)
    return np.asarray(c) * big + np.asarray(d) * (np.sum(big) - big) - 1.0


# The config reader and validation as they were before scenarios became
# columns: one node at a time, one Python call per field.  The column reader
# must give the same columns, or the same violations in the same order.


def reference_scenario_from_dict(data: dict) -> tuple:
    """(files, w, g, needs) as Python values, or ScenarioError with every
    BAD_CONFIG problem in config order."""
    problems: list[str] = []

    def number(obj: dict, key: str, where: str, integral: bool = False):
        if key not in obj:
            problems.append(f"{where} has no {key!r}")
            return None
        value = obj[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            value = None
        elif integral:
            value = int(value) if isinstance(value, int) or value.is_integer() else None
        else:
            try:
                value = float(value)
            except OverflowError:
                value = None
        if value is None:
            kind = "an integer" if integral else "a number"
            problems.append(f"{where} has {key}={obj[key]!r}; it must be {kind}")
        return value

    files = number(data, "files", "config", integral=True)
    entries = data.get("nodes")
    if not isinstance(entries, (list, tuple)):
        problems.append("config has no 'nodes' list")
        entries = []
    w, g, needs = [], [], []
    for n, nd in enumerate(entries):
        if not isinstance(nd, dict):
            problems.append(f"node {n} is {nd!r}, not an object")
            continue
        where = f"node {n}"
        w.append(number(nd, "w", where))
        g.append(number(nd, "g", where))
        needs.append(number(nd, "needs", where, integral=True))
    for key in data:
        if key not in ("files", "nodes"):
            problems.append(f"config has {key!r}; it holds only 'files' and 'nodes' (seeds are given with --seeds)")
    if problems:
        raise ScenarioError([Violation(BAD_CONFIG, f"malformed scenario config: {p}") for p in problems])
    return files, w, g, needs


def reference_violations(files: int, w: list, g: list, needs: list) -> list[Violation]:
    """validate_scenario as it was, checking each node's fields in turn."""
    out: list[Violation] = []
    inf = float("inf")
    if files < 2:
        out.append(Violation(TOO_FEW_FILES, f"need at least 2 files, got {files}"))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratios = np.array(w, dtype=float) / np.array(g, dtype=float)
    for n, (wn, gn, needed, ratio) in enumerate(zip(w, g, needs, ratios.tolist())):
        if not (0 <= needed < files):
            out.append(Violation(BAD_FILE_ID, f"node {n} needs file {needed}, valid range is 0..{files - 1}"))
        if not (0 < wn < inf and 0 < gn < inf and ratio < inf):
            code = NONPOSITIVE_COST if wn <= 0 or gn <= 0 else NONFINITE_COST
            why = "w/g overflows" if 0 < wn < inf and 0 < gn < inf else "both must be finite and > 0"
            out.append(Violation(code, f"node {n} has w={wn}, g={gn}; {why}"))
    if files > len(needs):
        out.append(Violation(GROUP_TOO_SMALL, f"{files} files need 2 nodes each; the scenario has {len(needs)}"))
    elif files > 0:
        sizes = np.bincount(np.array([x for x in needs if 0 <= x < files], dtype=np.int64), minlength=files)
        for f, size in enumerate(sizes.tolist()):
            if size < 2:
                out.append(Violation(GROUP_TOO_SMALL, f"file {f} is needed by {size} node(s); need at least 2"))
    if out:
        return out
    needs_arr = np.array(needs)
    for x, kind in product(range(files), ("need", "hold") if files > 2 else ("need",)):
        members = ratios[needs_arr == x if kind == "need" else needs_arr != x]
        with np.errstate(over="ignore"):
            total = float(np.sum(members))
        if not (0 < total < inf and (members.size - 1) / total < inf):
            why = f"the {members.size} nodes that {kind} file {x} have sum(w/g) = {total}"
            out.append(Violation(NONFINITE_COST, f"{why}; (count - 1) / sum(w/g) must be finite and > 0"))
    return out


def adaptive_run(s: Scenario, cfg, seed: int = 0):
    """One seed's adaptive run: a batch of one."""
    return run_adaptive_simulation([s], cfg, [seed])
