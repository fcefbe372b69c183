"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them).  Tolerances are fixed here and nowhere else.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from bxsim.adapt import AdaptConfig
from bxsim.cli import gen_groups, gen_rng, main
from bxsim.equilibrium import (
    coded_aggregates,
    coded_equilibrium,
    coded_system,
    coded_throughput,
    node_costs_at_ne,
    poa_system,
    require_nonnegative,
    throughput_at_ne,
    two_file_durations,
    two_file_equilibrium,
)
from bxsim.simulate import run_simulation

from conftest import (
    adaptive_run,
    coded_residuals,
    exact_coded_solution,
    random_coded,
    random_two_file,
    ref_complement,
    ref_group,
    ref_ratio,
    response_equilibrium,
    response_phase_mean,
    scenario_to_dict,
    symmetric,
)
from oracles import analytic_iterate, expected_initiation_cost, expected_response_cost, expected_response_cost_under_rate

T_GRID = [0.0, 0.1, 1.0, 5.0, 20.0]
ALPHAS = [0.25, 0.5, 0.75]


@contextmanager
def criterion(num: int, title: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {title}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {title}  ({time.perf_counter() - start:.2f}s)")


def test_01_indifference_suite():
    with criterion(1, "initiation cost constant in t; response cost equals g at equilibrium"):
        start = time.perf_counter()
        rng = np.random.default_rng(20260809)
        for _ in range(200):
            s = random_two_file(rng)
            for alpha in ALPHAS:
                profile = two_file_equilibrium(s, alpha=alpha)
                for n in range(s.n_nodes):
                    values = [expected_initiation_cost(t, n, profile, s) for t in T_GRID]
                    assert max(values) - min(values) <= 1e-9
            # response side: the aggregate rate each node faces equals its own
            # ratio, making its expected cost exactly g at every timer choice
            for f in (0, 1):
                members = ref_group(s, f)
                lam = response_equilibrium([ref_ratio(s, n) for n in members])
                total = float(np.sum(lam))
                for i, n in enumerate(members):
                    for t in T_GRID:
                        cost = expected_response_cost(t, s.w[n], s.g[n], total - lam[i])
                        assert abs(cost - s.g[n]) <= 1e-9
        assert time.perf_counter() - start < 5.0


def test_02_closed_form_residuals():
    with criterion(2, "response identity and coded-system residuals below 1e-9"):
        rng = np.random.default_rng(77)
        for files in range(3, 9):
            for _ in range(5):
                s = random_coded(rng, files)
                profile, big = coded_equilibrium(s), coded_aggregates(s)
                # every aggregate-system row residual
                assert np.max(np.abs(coded_residuals(*coded_system(s), big))) < 1e-9
                total = float(np.sum(big))
                for n in range(s.n_nodes):
                    x = int(s.needs[n])
                    d_x = response_phase_mean([ref_ratio(s, m) for m in ref_complement(s, x)])
                    # per-node ratio identity at the recovered gamma
                    implied = (big[x] - profile.gamma[n]) / (1.0 - (total - big[x]) * d_x)
                    assert abs(implied - ref_ratio(s, n)) < 1e-9
                # response identity per context
                for x in range(files):
                    members = ref_complement(s, x)
                    lam = np.array([profile.lam[(m, x)] for m in members])
                    for i, m in enumerate(members):
                        assert abs((np.sum(lam) - lam[i]) - ref_ratio(s, m)) < 1e-9


def test_03_simulation_vs_analytic():
    with criterion(3, "10^5-round symmetric run matches duration/throughput/cost oracles"):
        start = time.perf_counter()
        s = symmetric(2, 10)
        profile = two_file_equilibrium(s, alpha=0.5)
        metrics = run_simulation(scenario=s, profile=profile, rounds=100_000, seed=1)
        mean_duration = metrics.elapsed / metrics.rounds
        assert mean_duration == pytest.approx(3.8, rel=0.02)
        assert metrics.per_node_throughput() == pytest.approx(0.263158, rel=0.02)
        for cost in metrics.avg_total_cost().tolist():
            assert cost == pytest.approx(3.9, rel=0.02)
        assert time.perf_counter() - start < 10.0


def test_04_fig2_reproduction():
    with criterion(4, "adaptation reaches 80% of equilibrium throughput by update 3"):
        start = time.perf_counter()
        cfg = AdaptConfig(epoch_rounds=100, epsilon=0.1, guess_factor=10.0, updates=3)
        trajectories = []
        ne_values = []
        for seed in range(20):
            s = gen_groups([10, 10], 1.0, 2.0, gen_rng(seed, 1))
            trajectories.append(adaptive_run(s, cfg, seed=seed).observed[0, :, 2])
            ne_values.append(throughput_at_ne(s))
        data = np.array(trajectories)
        ne = np.array(ne_values)
        # normalized per seed and in raw means
        assert np.mean(data[:, 3] / ne) >= 0.8
        assert np.mean(data[:, 3]) >= 0.8 * np.mean(ne)
        means = data.mean(axis=0)
        for k in range(3):
            assert means[k + 1] >= means[k] - 0.02 * np.mean(ne)
        assert time.perf_counter() - start < 60.0


def test_05_analytic_recursion_convergence():
    with criterion(5, "homogeneous recursion sequence, exact error ratios, 1% by k=50"):
        s = symmetric(2, 10)
        cfg = AdaptConfig(epoch_rounds=100, epsilon=0.1, guess_factor=10.0, updates=50)
        rows = analytic_iterate(s, cfg)
        inv_a = [row[1] for row in rows]
        assert inv_a[0] == pytest.approx(0.10101, abs=1e-5)
        assert inv_a[1] == pytest.approx(1.01010, abs=1e-5)
        assert inv_a[2] == pytest.approx(1.05556, abs=1e-5)
        target = 10 / 9
        errors = [abs(v - target) for v in inv_a]
        for k in range(1, 51):
            factor = abs(1.0 - 9.0 * cfg.delta(k))
            assert errors[k] == pytest.approx(errors[k - 1] * factor, abs=1e-12)
        assert errors[50] / target < 0.01


def test_06_fig3_reproduction():
    with criterion(6, "coded throughput values at F=3..5 and the crossover vs 1/F"):
        expected = {3: 0.257511, 4: 1.0 / (0.95 + 29 / 30 + 2.0), 5: 0.254130}
        for f, value in expected.items():
            s = symmetric(f, 10)
            analytic = coded_throughput(s)
            assert analytic == pytest.approx(value, abs=1e-6)
            profile = require_nonnegative(coded_equilibrium(s))
            metrics = run_simulation(scenario=s, profile=profile, rounds=20_000, seed=f)
            assert metrics.per_node_throughput() == pytest.approx(analytic, rel=0.02)
        assert coded_throughput(symmetric(3, 10)) < 1 / 3
        for f in (4, 5, 6, 7, 8):
            assert coded_throughput(symmetric(f, 10)) > 1 / f


def test_07_degeneracy_detection():
    with criterion(7, "2-file systems give the rank-1 family line; 3+ files are unique"):
        rng = np.random.default_rng(13)
        for _ in range(20):
            s = random_two_file(rng, max_group=12)
            that_a = response_phase_mean([ref_ratio(s, n) for n in ref_group(s, 0)])
            that_b = response_phase_mean([ref_ratio(s, n) for n in ref_group(s, 1)])
            # both rows of the system are the line through every alpha's rates
            c, d = coded_system(s)
            for alpha in (-0.5, 0.0, 0.5, 1.0, 1.5):
                line = [alpha / that_a, (1.0 - alpha) / that_b]
                assert np.max(np.abs(coded_residuals(c, d, line))) < 1e-9
            # the degenerate family's alpha = 0.5 member
            assert np.array_equal(coded_aggregates(s), 0.5 / two_file_durations(s))
        for files in range(3, 9):
            s = random_coded(rng, files)
            assert exact_coded_solution(*coded_system(s)) is not None
            assert np.max(np.abs(coded_residuals(*coded_system(s), coded_aggregates(s)))) < 1e-9


def test_08_incentive_monotonicity():
    with criterion(8, "expected response cost non-increasing along 50 analytic updates"):
        groups = {
            "homogeneous": (1.0, [1.0] * 9),
            "heterogeneous-slow": (1.3, [1.0, 1.1, 0.9, 1.2, 1.05]),
            "heterogeneous-fast": (0.8, [1.4, 1.5, 1.3, 1.45]),
        }
        for own_ratio, other_ratios in groups.values():
            others = np.asarray(other_ratios)
            lam_others = float(np.sum(np.sum(others) / (others.size - 1) - others))
            inv_guess = 100.0 * own_ratio / 99.0
            lam_self = max(0.0, inv_guess - own_ratio)
            cost = expected_response_cost_under_rate(own_ratio, 1.0, lam_self, lam_others)
            for k in range(1, 51):
                delta = 0.1 / k
                observed = 1.0 / (lam_others + lam_self)
                inv_guess = (1.0 + delta) * inv_guess - delta / observed
                lam_self = max(0.0, inv_guess - own_ratio)
                new_cost = expected_response_cost_under_rate(own_ratio, 1.0, lam_self, lam_others)
                assert new_cost <= cost + 1e-12
                cost = new_cost


def test_09_poa_bounds():
    with criterion(9, "symmetric prices of anarchy stay below 1 + g/w on the grid"):
        for g_over_w in (0.5, 1.0, 2.0, 5.0):
            for group in (2, 5, 10):
                s = symmetric(2, group, w=1.0, g=g_over_w)
                that_a, that_b = two_file_durations(s)
                assert poa_system(s) == pytest.approx((that_a + that_b + 2) / 2, abs=1e-12)
                assert poa_system(s) <= 1.0 + g_over_w
                assert all(node_costs_at_ne(s).poa <= 1.0 + g_over_w)


def test_10_determinism_regression(tmp_path):
    with criterion(10, "simulate and adapt CSV output byte-identical across runs"):
        import json

        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(scenario_to_dict(symmetric(2, 10))))
        pairs = []
        for name, args in {
            "simulate": ["simulate", "--config", str(cfg_path), "--rounds", "2000", "--seeds", "7"],
            "adapt": ["adapt", "--config", str(cfg_path), "--updates", "3", "--seeds", "7"],
        }.items():
            a = tmp_path / f"{name}_a.csv"
            b = tmp_path / f"{name}_b.csv"
            assert main(args + ["--out", str(a)]) == 0
            assert main(args + ["--out", str(b)]) == 0
            pairs.append((a.read_bytes(), b.read_bytes()))
        for first, second in pairs:
            assert first == second and len(first) > 0
