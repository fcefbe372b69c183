from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from bxsim import equilibrium
from bxsim.adapt import AdaptConfig, run_adaptive_simulation
from bxsim.equilibrium import (
    coded_aggregates,
    coded_equilibrium,
    coded_system,
    coded_throughput,
    ne_round_duration,
    node_costs_at_ne,
    poa_system,
    require_nonnegative,
    throughput_at_ne,
    two_file_durations,
    two_file_equilibrium,
)
from bxsim.errors import NoEquilibriumError
from bxsim.cli import gen_groups, gen_rng
from bxsim.model import Scenario, StrategyProfile, make_two_file
from bxsim.simulate import run_simulation

from conftest import (
    SINGULAR_CODED_ROWS,
    coded_residuals,
    coded_with_close_ratios,
    dense_profile,
    exact_coded_solution,
    random_coded,
    random_two_file,
    ref_group,
    ref_ratio,
    reference_coded,
    reference_coded_system,
    reference_node_cost,
    reference_round_duration,
    reference_two_file,
    response_equilibrium,
    shuffled_scenarios,
    symmetric,
    two_file,
    two_file_with_equilibrium,
)
from oracles import (
    DegenerateProfileError,
    expected_coded_round_cost,
    expected_initiation_cost,
    expected_response_cost,
    expected_response_cost_under_rate,
)

T_GRID = [0.0, 0.1, 1.0, 5.0, 20.0]


def response_cost_quadrature(t, w, g, lam):
    """Independent oracle: integrate the two branches of the response-phase
    cost against the density of the earliest other firing."""
    early, _ = integrate.quad(lambda s: w * s * lam * math.exp(-lam * s), 0, t)
    late, _ = integrate.quad(lambda s: (g + w * t) * lam * math.exp(-lam * s), t, np.inf)
    return early + late


def initiation_cost_quadrature(t, w, g, gamma_rest, p_own, that_resp):
    """Independent oracle for the initiation-phase expected cost."""

    def early(s):
        free_ride = p_own * w * that_resp
        respond = (1 - p_own) * g
        return (w * (s + 2) + free_ride + respond) * gamma_rest * math.exp(-gamma_rest * s)

    def late(s):
        return (g + w * (t + that_resp) + 2 * w) * gamma_rest * math.exp(-gamma_rest * s)

    a, _ = integrate.quad(early, 0, t)
    b, _ = integrate.quad(late, t, np.inf)
    return a + b


def coded_round_cost_quadrature(s, profile, n, t):
    """Independent oracle for the coded round cost: integrate over the
    earliest other initiation, and a holder's response cost over its own
    timer, node by node from the profile."""
    w, g, x_n = float(s.w[n]), float(s.g[n]), int(s.needs[n])
    others = [m for m in range(s.n_nodes) if m != n]
    rate = [sum(profile.gamma[m] for m in others if s.needs[m] == x) for x in range(s.files)]
    total = sum(rate)
    holders = [sum(profile.lam[m, x] for m in range(s.n_nodes) if s.needs[m] != x) for x in range(s.files)]

    def respond(x):  # n's response-phase cost once file x is announced
        if x == x_n:
            return w / holders[x]
        own, rest = profile.lam[n, x], holders[x] - profile.lam[n, x]
        cost, _ = integrate.quad(lambda u: expected_response_cost(u, w, g, rest) * own * math.exp(-own * u), 0, np.inf)
        return cost

    announced = sum(rate[x] / total * (respond(x) + 2 * w) for x in range(s.files))
    early, _ = integrate.quad(lambda u: (w * u + announced) * total * math.exp(-total * u), 0, t)
    late = (w * t + w / holders[x_n] + 2 * w + g) * math.exp(-total * t)
    return early + late


def group_response(ratios) -> tuple[np.ndarray, float]:
    """The response rates and response-phase duration of a group with these
    w/g ratios: group 0, which holds file 1, of the two-file scenario whose
    groups both have them."""
    s = two_file(ratios, ratios)
    return two_file_equilibrium(s).lam[s.needs == 0, 1], two_file_durations(s)[0]


class TestResponseEquilibrium:
    def test_symmetric_ten(self):
        lam, _ = group_response([1.0] * 10)
        np.testing.assert_allclose(lam, np.full(10, 1 / 9), atol=1e-15)

    def test_two_nodes_swap(self):
        np.testing.assert_allclose(group_response([1.0, 2.0])[0], [2.0, 1.0])

    def test_strong_heterogeneity_two_nodes(self):
        np.testing.assert_allclose(group_response([1.0, 10.0])[0], [10.0, 1.0])

    def test_nonexistent(self):
        with pytest.raises(NoEquilibriumError, match=r"nodes \[2\]"):
            require_nonnegative(two_file_equilibrium(two_file([1.0, 1.0, 5.0], [1.0, 1.0])))

    def test_returns_raw_closed_form(self):
        np.testing.assert_allclose(group_response([1.0, 1.0, 5.0])[0], [2.5, 2.5, -1.5])

    def test_zero_rate_is_allowed(self):
        # boundary node exactly at the group mean threshold
        assert group_response([1.0, 1.0, 2.0])[0][2] == 0.0

    def test_others_sum_equals_own_ratio(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            r = rng.uniform(0.5, 3.0, size=int(rng.integers(2, 15)))
            lam, _ = group_response(r)
            for i in range(r.size):
                assert np.sum(lam) - lam[i] == pytest.approx(r[i], abs=1e-12)

    def test_coded_others_sum_equals_own_ratio(self):
        # every file's holders, in games of 3 to 8 files
        rng = np.random.default_rng(42)
        for files in range(3, 9):
            s = random_coded(rng, files)
            lam = coded_equilibrium(s).lam
            for x in range(files):
                rates, ratios = lam[s.needs != x, x], s.ratios[s.needs != x]
                np.testing.assert_allclose(np.sum(rates) - rates, ratios, rtol=0, atol=1e-12)


class TestResponsePhaseMean:
    def test_symmetric_ten(self):
        # matches the homogeneous shortcut (I-1)(g/w)/I
        assert group_response([1.0] * 10)[1] == pytest.approx(0.9)

    def test_heterogeneous(self):
        assert group_response([1.0, 2.0])[1] == pytest.approx(1 / 3)

    def test_two_ones(self):
        assert group_response([1.0, 1.0])[1] == pytest.approx(0.5)

    def test_equals_inverse_rate_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            lam, duration = group_response(rng.uniform(0.5, 2.0, size=int(rng.integers(2, 12))))
            assert duration == pytest.approx(1 / np.sum(lam), abs=1e-12)


class TestExpectedResponseCost:
    def test_immediate_transmission_pays_g(self):
        assert expected_response_cost(0.0, 2.0, 3.0, 0.7) == pytest.approx(3.0)

    def test_indifference_case(self):
        for t in [0.0, 0.5, 3.0, 100.0]:
            assert expected_response_cost(t, 1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        assert expected_response_cost(math.log(2), 1.0, 2.0, 1.0) == pytest.approx(1.5)

    def test_against_quadrature(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            t, w, g, lam = rng.uniform(0.1, 4.0, size=4)
            assert expected_response_cost(t, w, g, lam) == pytest.approx(
                response_cost_quadrature(t, w, g, lam), abs=1e-9
            )

    def test_against_monte_carlo(self):
        # min of the others' timers is EXP(lam); pay w*min if beaten, g + w*t if not
        rng = np.random.default_rng(99)
        t, w, g, lam = 0.8, 1.0, 2.0, 1.3
        mins = rng.exponential(1 / lam, size=400_000)
        cost = np.where(mins < t, w * mins, g + w * t)
        se = cost.std() / math.sqrt(cost.size)
        assert expected_response_cost(t, w, g, lam) == pytest.approx(cost.mean(), abs=4 * se)

    def test_monotonicity_matches_sign(self):
        # decreasing iff g > w/L, increasing iff g < w/L
        lo, hi = expected_response_cost(0.1, 1.0, 3.0, 1.0), expected_response_cost(2.0, 1.0, 3.0, 1.0)
        assert lo > hi
        lo, hi = expected_response_cost(0.1, 1.0, 0.5, 1.0), expected_response_cost(2.0, 1.0, 0.5, 1.0)
        assert lo < hi

    def test_rejects_zero_aggregate(self):
        with pytest.raises(DegenerateProfileError):
            expected_response_cost(1.0, 1.0, 1.0, 0.0)


class TestExpectedResponseCostUnderRate:
    def test_zero_rate_is_free_rider(self):
        assert expected_response_cost_under_rate(1.0, 2.0, 0.0, 0.5) == pytest.approx(2.0)

    def test_indifference(self):
        for lam_self in [0.0, 0.3, 5.0]:
            assert expected_response_cost_under_rate(1.0, 1.0, lam_self, 1.0) == pytest.approx(1.0)

    def test_matches_numeric_expectation(self):
        w, g, lam_self, lam = 1.3, 0.7, 0.9, 1.6
        val, _ = integrate.quad(
            lambda t: expected_response_cost(t, w, g, lam) * lam_self * math.exp(-lam_self * t),
            0,
            np.inf,
        )
        assert expected_response_cost_under_rate(w, g, lam_self, lam) == pytest.approx(val, abs=1e-9)


class TestExpectedInitiationCost:
    def test_small_symmetric_constant(self, sym_2_2):
        profile = two_file_equilibrium(sym_2_2, alpha=0.5)
        values = [expected_initiation_cost(t, 0, profile, sym_2_2) for t in T_GRID]
        np.testing.assert_allclose(values, 3.5, atol=1e-12)

    def test_perturbed_profile_varies(self, sym_2_2):
        eq = two_file_equilibrium(sym_2_2, alpha=0.5)
        gamma = list(eq.gamma)
        gamma[1] = 1.0  # second node of group 0
        profile = type(eq)(gamma=np.array(gamma), lam=eq.lam)
        v0 = expected_initiation_cost(0.0, 0, profile, sym_2_2)
        v1 = expected_initiation_cost(1.0, 0, profile, sym_2_2)
        assert abs(v0 - v1) > 1e-3

    def test_large_t_limit(self, sym_2_2):
        eq = two_file_equilibrium(sym_2_2, alpha=0.5)
        gamma = list(eq.gamma)
        gamma[1] = 1.0
        profile = type(eq)(gamma=np.array(gamma), lam=eq.lam)
        # free-rider-forever branch: w/rest + p_own*w*That + p_other*g + 2w
        rest = 1.0 + 0.5 + 0.5
        p_own = 1.0 / rest
        expected = 1 / rest + p_own * 1.0 * 0.5 + (1 - p_own) * 1.0 + 2.0
        assert expected_initiation_cost(700.0, 0, profile, sym_2_2) == pytest.approx(expected, abs=1e-12)

    def test_against_quadrature(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            s = random_two_file(rng, max_group=8)
            alpha = float(rng.uniform(0.2, 0.8))
            profile = two_file_equilibrium(s, alpha=alpha)
            node = int(rng.integers(0, s.n_nodes))
            needed = int(s.needs[node])
            own = [m for m in ref_group(s, needed) if m != node]
            other = ref_group(s, 1 - needed)
            rest = sum(profile.gamma[m] for m in own) + sum(profile.gamma[m] for m in other)
            p_own = sum(profile.gamma[m] for m in own) / rest
            that = 1 / sum(profile.lam[(m, needed)] for m in other)
            for t in (0.0, 0.7, 3.0):
                oracle = initiation_cost_quadrature(t, s.w[node], s.g[node], rest, p_own, that)
                assert expected_initiation_cost(t, node, profile, s) == pytest.approx(oracle, abs=1e-8)

    def test_degenerate_when_others_silent(self, sym_2_2):
        profile = two_file_equilibrium(sym_2_2, alpha=0.5)
        silent = type(profile)(gamma=np.array([0.5, 0.0, 0.0, 0.0]), lam=profile.lam)
        with pytest.raises(DegenerateProfileError):
            expected_initiation_cost(1.0, 0, silent, sym_2_2)


class TestExpectedCodedRoundCost:
    def test_against_quadrature(self):
        # at arbitrary positive profiles, where the cost depends on t
        rng = np.random.default_rng(53)
        for _ in range(10):
            s = random_coded(rng, int(rng.integers(3, 6)), group_size=int(rng.integers(2, 5)))
            lam = np.where(s.needs[:, None] != np.arange(s.files), rng.uniform(0.1, 2.0, (s.n_nodes, s.files)), 0.0)
            profile = StrategyProfile(gamma=rng.uniform(0.1, 2.0, s.n_nodes), lam=lam)
            node = int(rng.integers(0, s.n_nodes))
            for t in (0.0, 0.7, 3.0):
                oracle = coded_round_cost_quadrature(s, profile, node, t)
                assert expected_coded_round_cost(s, profile, node, t) == pytest.approx(oracle, abs=1e-8)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(s=coded_with_close_ratios())
    def test_constant_in_t_at_equilibrium_only(self, s):
        try:
            profile = require_nonnegative(coded_equilibrium(s))
        except NoEquilibriumError:
            assume(False)

        def spread(profile, n):
            values = [expected_coded_round_cost(s, profile, n, t) for t in T_GRID]
            return (max(values) - min(values)) / abs(values[0])

        assert max(spread(profile, n) for n in range(s.n_nodes)) <= 1e-9
        # a 5% faster initiator moves every other node's cost with its timer
        bumped = int(np.argmax(profile.gamma))
        gamma = profile.gamma.copy()
        gamma[bumped] *= 1.05
        perturbed = StrategyProfile(gamma=gamma, lam=profile.lam)
        assert min(spread(perturbed, n) for n in range(s.n_nodes) if n != bumped) > 1e-5


class TestTwoFileEquilibrium:
    def test_alpha_zero_silences_group_a(self, sym_10_10):
        profile = two_file_equilibrium(sym_10_10, alpha=0.0)
        assert all(profile.gamma[n] == 0.0 for n in ref_group(sym_10_10, 0))
        # one-sided profile: the initiating group's response rates are zeroed
        assert all(profile.lam[(n, 0)] == 0.0 for n in ref_group(sym_10_10, 1))
        assert all(profile.lam[(n, 1)] > 0.0 for n in ref_group(sym_10_10, 0))

    def test_small_symmetric_rates(self, sym_2_2):
        profile = two_file_equilibrium(sym_2_2, alpha=0.5)
        np.testing.assert_allclose(profile.gamma, 0.5)

    def test_heterogeneous_alpha_one(self):
        s = two_file([1.0, 2.0], [1.0, 1.0])
        profile = two_file_equilibrium(s, alpha=1.0)
        assert profile.gamma[0] == pytest.approx(2.0)
        assert profile.gamma[1] == pytest.approx(1.0)
        assert profile.gamma[2] == profile.gamma[3] == 0.0
        # indifference residual of the summed condition: ratios match
        # sum_{i != i*} gamma_a = alpha * ratio_i*
        assert profile.gamma[1] == pytest.approx(1.0 * ref_ratio(s, 0), abs=1e-12)
        assert profile.gamma[0] == pytest.approx(1.0 * ref_ratio(s, 1), abs=1e-12)

    def test_split_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = random_two_file(rng, max_group=10)
            alpha = float(rng.uniform(0.0, 1.0))
            profile = two_file_equilibrium(s, alpha=alpha)
            sum_a = sum(profile.gamma[n] for n in ref_group(s, 0))
            sum_b = sum(profile.gamma[n] for n in ref_group(s, 1))
            that_a, that_b = two_file_durations(s)
            assert sum_a * that_a == pytest.approx(alpha, abs=1e-12)
            assert sum_b * that_b == pytest.approx(1 - alpha, abs=1e-12)

    def test_negative_rate_propagates(self):
        s = two_file([1.0, 1.0, 5.0], [1.0, 1.0])
        with pytest.raises(NoEquilibriumError, match="get negative rates"):
            require_nonnegative(two_file_equilibrium(s, alpha=0.5))

    def test_alpha_out_of_range(self, sym_2_2):
        with pytest.raises(ValueError):
            two_file_equilibrium(sym_2_2, alpha=1.5)


class TestRoundDurationAndThroughput:
    def test_symmetric_ten(self, sym_10_10):
        assert (*two_file_durations(sym_10_10), ne_round_duration(sym_10_10)) == pytest.approx((0.9, 0.9, 3.8))
        assert throughput_at_ne(sym_10_10) == pytest.approx(1 / 3.8)

    def test_small_symmetric(self, sym_2_2):
        assert ne_round_duration(sym_2_2) == pytest.approx(3.0)
        assert throughput_at_ne(sym_2_2) == pytest.approx(1 / 3)

    def test_heterogeneous_sums(self):
        # group 0 has ratio sum 3 with 2 nodes; group 1 sums to 10 with 10 nodes
        s = two_file([1.0, 2.0], [1.0] * 10)
        assert ne_round_duration(s) == pytest.approx(1 / 3 + 0.9 + 2, abs=1e-12)

    def test_throughput_upper_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            assert throughput_at_ne(random_two_file(rng)) <= 0.5


class TestNodeCost:
    def test_symmetric_ten(self, sym_10_10):
        nc = node_costs_at_ne(sym_10_10)
        assert nc.avg_cost[0] == pytest.approx(3.9)
        assert nc.transmit_prob[0] == pytest.approx(0.1)

    def test_matches_initiation_cost_constant(self, sym_2_2):
        avg_cost = node_costs_at_ne(sym_2_2).avg_cost[0]
        assert avg_cost == pytest.approx(3.5)
        profile = two_file_equilibrium(sym_2_2, alpha=0.5)
        assert avg_cost == pytest.approx(expected_initiation_cost(1.0, 0, profile, sym_2_2))

    def test_cross_oracle_any_scenario(self):
        # equilibrium per-round cost equals the long-run average cost formula
        rng = np.random.default_rng(31)
        for _ in range(15):
            s = random_two_file(rng, max_group=8)
            alpha = float(rng.uniform(0.1, 0.9))
            profile = two_file_equilibrium(s, alpha=alpha)
            for node in (0, s.n_nodes - 1):
                expected = node_costs_at_ne(s).avg_cost[node]
                for t in T_GRID:
                    assert expected_initiation_cost(t, node, profile, s) == pytest.approx(
                        expected, abs=1e-9
                    )

    def test_transmit_probabilities(self):
        s = two_file([1.0, 2.0], [1.0, 1.0])
        p0, p1 = node_costs_at_ne(s).transmit_prob[:2]
        assert (p0, p1) == pytest.approx((2 / 3, 1 / 3))

    def test_probability_closure(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            s = random_two_file(rng, max_group=12)
            for f in (0, 1):
                total = sum(node_costs_at_ne(s).transmit_prob[n] for n in ref_group(s, f))
                assert total == pytest.approx(1.0, abs=1e-12)


class TestPoA:
    def test_symmetric_values(self, sym_10_10, sym_2_2):
        assert poa_system(sym_10_10) == pytest.approx(1.9)
        assert node_costs_at_ne(sym_10_10).poa[0] == pytest.approx(1.95)
        assert poa_system(sym_2_2) == pytest.approx(1.5)

    @pytest.mark.parametrize("g_over_w", [0.5, 1.0, 2.0, 5.0])
    def test_symmetric_bound(self, g_over_w):
        s = symmetric(2, 10, w=1.0, g=g_over_w)
        assert poa_system(s) <= 1 + g_over_w
        assert all(node_costs_at_ne(s).poa <= 1 + g_over_w)


class TestCodedEquilibrium:
    def test_three_file_symmetric(self):
        s = symmetric(3, 10)
        np.testing.assert_allclose(coded_aggregates(s), np.full(3, 1 / 2.8), atol=1e-12)
        np.testing.assert_allclose(coded_equilibrium(s).gamma, np.full(30, 1 / 28), atol=1e-12)

    def test_aggregate_identity(self):
        rng = np.random.default_rng(41)
        for files in (3, 5):
            s = random_coded(rng, files)
            profile, big = coded_equilibrium(s), coded_aggregates(s)
            for x in range(files):
                total = sum(profile.gamma[n] for n in ref_group(s, x))
                assert total == pytest.approx(big[x], abs=1e-12)

    def test_system_row_residuals(self):
        rng = np.random.default_rng(43)
        for files in (3, 4, 6, 8):
            s = random_coded(rng, files)
            residual = coded_residuals(*coded_system(s), coded_aggregates(s))
            assert np.max(np.abs(residual)) < 1e-9

    def test_two_file_degenerate_family(self):
        s = two_file([1.0, 1.2, 1.5], [1.1, 0.9, 1.3, 1.0])
        # the family's alpha = 0.5 member: half of each group's full rate
        assert bits(coded_aggregates(s)) == bits(0.5 / two_file_durations(s))
        # both rows are the family line That_A * G_A + That_B * G_B = 1, on
        # which every alpha's aggregate rates lie
        c, d = coded_system(s)
        for alpha in (0.0, 0.3, 0.5, 1.0):
            gamma = two_file_equilibrium(s, alpha=alpha).gamma
            point = [sum(gamma[n] for n in ref_group(s, x)) for x in (0, 1)]
            assert np.max(np.abs(coded_residuals(c, d, point))) < 1e-9
        # representative matches the alpha = 0.5 bilateral equilibrium
        np.testing.assert_allclose(coded_equilibrium(s).gamma, two_file_equilibrium(s, alpha=0.5).gamma)

    def test_unexpected_singular_raises(self, monkeypatch):
        s = symmetric(3, 10)
        for c, d in SINGULAR_CODED_ROWS:
            assert exact_coded_solution(c, d) is None
            monkeypatch.setattr(equilibrium, "coded_system", lambda s, c=c, d=d: (np.array(c), np.array(d)))
            with pytest.raises(NoEquilibriumError, match="^singular aggregate system"):
                coded_equilibrium(s)

    def test_negative_gamma_raises(self):
        rng = np.random.default_rng(4)
        # heterogeneous 10-node groups essentially always break nonnegativity
        s = random_coded(rng, 3)
        with pytest.raises(NoEquilibriumError, match="get negative rates"):
            require_nonnegative(coded_equilibrium(s))

    def test_round_duration_and_throughput(self):
        s = symmetric(3, 10)
        assert 1.0 / coded_throughput(s) == pytest.approx(3.8833333333, abs=1e-9)
        assert coded_throughput(s) == pytest.approx(0.2575107296, abs=1e-9)

    def test_response_rates_cover_all_contexts(self):
        # every node answers every file it holds; its own file's entry is 0
        s = symmetric(3, 4)
        lam = coded_equilibrium(s).lam
        assert lam.shape == (s.n_nodes, s.files)
        for n in range(s.n_nodes):
            for x in range(s.files):
                if s.needs[n] != x:
                    assert lam[n, x] > 0
                else:
                    assert lam[n, x] == 0


def bits(values) -> list[str]:
    """Each value's exact binary form (tells -0.0 from 0.0)."""
    return [float(v).hex() for v in values]


def assert_same_lam(lam, expected: dict, files: int):
    """The dense ``lam`` against a reference's sparse {(node, file): rate},
    entry by entry; a pair the reference leaves out must be +0.0."""
    want = dense_profile(np.zeros(lam.shape[0]), expected, files).lam
    assert lam.shape == want.shape
    assert bits(lam.ravel()) == bits(want.ravel())


BIT_EXACT = settings(derandomize=True, max_examples=200, deadline=None)
ALPHA = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


class TestArrayFormsMatchScalarReferences:
    """The vectorised closed forms against the per-node scalar formulas
    (conftest's references), with == on every bit, not a tolerance."""

    @BIT_EXACT
    @given(s=shuffled_scenarios(st.just(2)))
    def test_node_costs(self, s):
        costs = node_costs_at_ne(s)
        got = list(zip(*(bits(values) for values in costs)))
        assert got == [tuple(bits(reference_node_cost(n, s))) for n in range(s.n_nodes)]

    @BIT_EXACT
    @given(s=shuffled_scenarios(st.just(2)), alpha=ALPHA)
    def test_two_file_equilibrium(self, s, alpha):
        profile = two_file_equilibrium(s, alpha=alpha)
        gamma, lam, that_a, that_b = reference_two_file(s, alpha)
        assert bits(profile.gamma) == bits(gamma)
        assert_same_lam(profile.lam, lam, 2)
        assert bits(two_file_durations(s)) == bits([that_a, that_b])

    @BIT_EXACT
    @given(s=shuffled_scenarios(st.just(2)))
    def test_ne_round_duration(self, s):
        assert bits([*two_file_durations(s), ne_round_duration(s)]) == bits(reference_round_duration(s))

    @BIT_EXACT
    @given(s=shuffled_scenarios(st.integers(2, 6)))
    def test_coded_equilibrium(self, s):
        profile, big = coded_equilibrium(s), coded_aggregates(s)
        c, d = reference_coded_system(s)
        assert [bits(v) for v in coded_system(s)] == [bits(c), bits(d)]
        if s.files == 2:  # the degenerate family's alpha = 0.5 representative
            gamma, lam, that_a, that_b = reference_two_file(s, 0.5)
            assert bits(big) == bits((0.5 / that_a, 0.5 / that_b))
        else:  # the aggregate rates themselves are checked against the exact oracle
            gamma, lam = reference_coded(s, big)
        assert bits(profile.gamma) == bits(gamma)
        assert_same_lam(profile.lam, lam, s.files)
        total = float(np.sum(big))
        resp_mean = float(np.sum(big / total * np.array(d)))
        assert bits([coded_throughput(s)]) == bits([1.0 / (1.0 / total + resp_mean + 2.0)])


class TestPaperClosedForms:
    """The paper's closed forms on random valid scenarios: the equilibria
    they give are proper profiles, and both prices of anarchy are >= 1."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(s=two_file_with_equilibrium(), alpha=ALPHA)
    def test_two_file_game(self, s, alpha):
        profile = require_nonnegative(two_file_equilibrium(s, alpha=alpha))  # every draw has one
        rates = np.concatenate((profile.gamma, profile.lam.ravel()))
        assert np.all(np.isfinite(rates)) and np.all(rates >= 0)
        costs = node_costs_at_ne(s)
        assert np.abs(np.bincount(s.needs, weights=costs.transmit_prob) - 1.0).max() <= 1e-9
        assert np.all(costs.poa >= 1.0) and poa_system(s) >= 1.0

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(s=shuffled_scenarios(st.just(2)))
    def test_two_file_games_agree(self, s):
        # with two files the coded game is the alpha = 0.5 bilateral game
        assert coded_throughput(s) == pytest.approx(throughput_at_ne(s), rel=1e-12, abs=0)

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(s=shuffled_scenarios(st.integers(3, 6)))
    def test_coded_game(self, s):
        try:
            big = coded_aggregates(s)
        except NoEquilibriumError:
            return
        assert np.abs(coded_residuals(*coded_system(s), big)).max() <= 1e-9


class TestRequireNonnegative:
    """The one existence check.  The solvers return raw closed forms, and a
    profile is rejected exactly when the strict solvers used to raise: for two
    files, when either group's response closed form has a negative entry, at
    every alpha; for the coded game, when some node's initiation or response
    rate does."""

    def test_returns_the_profile(self):
        # own-file entries are 0, and -0.0 (a silent group's 0 * rate) is not < 0
        profile = StrategyProfile(gamma=np.array([-0.0, 1.0]), lam=np.array([[0.0, 1.0], [-0.0, 0.0]]))
        assert require_nonnegative(profile) is profile

    def test_names_every_node_id(self):
        gamma = np.array([1.0, -1e-300, 1.0, 1.0])
        lam = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [-2.0, 0.0]])
        with pytest.raises(NoEquilibriumError, match=r"^nodes \[1, 3\] get negative rates"):
            require_nonnegative(StrategyProfile(gamma=gamma, lam=lam))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(s=shuffled_scenarios(st.just(2)), alpha=ALPHA)
    def test_two_file_matches_the_strict_rule(self, s, alpha):
        strict = any(np.any(response_equilibrium(s.ratios[s.needs == x]) < 0) for x in (0, 1))
        profile = two_file_equilibrium(s, alpha=alpha)
        if strict:
            with pytest.raises(NoEquilibriumError, match="get negative rates"):
                require_nonnegative(profile)
        else:
            assert require_nonnegative(profile) is profile

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(s=shuffled_scenarios(st.integers(3, 6)))
    def test_coded_matches_the_strict_rule(self, s):
        try:
            profile = coded_equilibrium(s)
        except NoEquilibriumError:
            return
        holders = (s.ratios[s.needs != x] for x in range(s.files))
        strict = np.any(profile.gamma < 0) or any(np.any(response_equilibrium(r) < 0) for r in holders)
        if strict:
            with pytest.raises(NoEquilibriumError, match="get negative rates"):
                require_nonnegative(profile)
        else:
            assert require_nonnegative(profile) is profile


def existence_bound(n: int) -> float:
    """The largest w_hi / w_lo for which every draw of a group of n >= 3
    nodes has a nonnegative response rate."""
    return (n - 1) / (n - 2)


class TestExistenceRule:
    """Generated two-file games (g = 1, w ~ U[w_lo, w_hi]) have a nonnegative
    equilibrium at every draw exactly when w_hi / w_lo is at most (N - 1)/(N - 2)
    for each group of N >= 3 nodes: the worst draw is one node at w_hi and the
    rest at w_lo.  Two groups of 2 have one at any spread."""

    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(sizes=st.lists(st.integers(2, 1000), min_size=2, max_size=2), seed=st.integers(0, 2**32 - 1))
    def test_draws_within_the_bound_have_an_equilibrium(self, sizes, seed):
        bounds = [existence_bound(n) for n in sizes if n >= 3]
        w_hi = min(bounds) * (1 - 1e-9) if bounds else 4.0
        s = gen_groups(sizes, 1.0, w_hi, gen_rng(seed, 1))
        for alpha in (0.0, 0.5, 1.0):
            require_nonnegative(two_file_equilibrium(s, alpha=alpha))

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(n_a=st.integers(3, 1000), n_b=st.integers(2, 1000))
    def test_the_worst_draw_above_the_bound_has_none(self, n_a, n_b):
        s = make_two_file([existence_bound(n_a) * (1 + 1e-6)] + [1.0] * (n_a - 1), [1.0] * n_b)
        for alpha in (0.0, 0.5, 1.0):
            with pytest.raises(NoEquilibriumError, match=r"^nodes \[0\] get negative rates"):
                require_nonnegative(two_file_equilibrium(s, alpha=alpha))


def scaled(s: Scenario, k: int) -> Scenario:
    """``s`` with every w and g multiplied by 2**k, which is exact."""
    return Scenario(s.files, s.w * 2.0**k, s.g * 2.0**k, s.needs)


class TestCostScale:
    """Costs enter only through w/g: multiplying every w and g by 2**k (no
    product overflows or underflows) leaves every rate, duration, throughput
    and played round bit-identical, and scales each cost by exactly 2**k.
    So a generated scenario loses nothing with g = 1."""

    @BIT_EXACT
    @given(s=shuffled_scenarios(st.just(2)), k=st.integers(-8, 8), alpha=ALPHA)
    def test_two_file_closed_forms(self, s, k, alpha):
        t = scaled(s, k)
        assert bits(t.ratios) == bits(s.ratios)
        got, want = two_file_equilibrium(t, alpha=alpha), two_file_equilibrium(s, alpha=alpha)
        assert bits(got.gamma) == bits(want.gamma) and bits(got.lam.ravel()) == bits(want.lam.ravel())
        assert bits([throughput_at_ne(t)]) == bits([throughput_at_ne(s)])
        got, want = node_costs_at_ne(t), node_costs_at_ne(s)
        assert bits(got.transmit_prob) == bits(want.transmit_prob)
        assert bits(got.avg_cost) == bits(want.avg_cost * 2.0**k)

    @BIT_EXACT
    @given(s=shuffled_scenarios(st.integers(2, 6)), k=st.integers(-8, 8))
    def test_coded_closed_forms(self, s, k):
        t = scaled(s, k)
        assert bits(t.ratios) == bits(s.ratios)
        got, want = coded_equilibrium(t), coded_equilibrium(s)
        assert bits(got.gamma) == bits(want.gamma) and bits(got.lam.ravel()) == bits(want.lam.ravel())
        assert bits([coded_throughput(t)]) == bits([coded_throughput(s)])

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(s=two_file_with_equilibrium(max_group=5), k=st.integers(-8, 8), alpha=ALPHA, seed=st.integers(0, 2**32))
    def test_runs(self, s, k, alpha, seed):
        t = scaled(s, k)
        got, want = (run_simulation(x, two_file_equilibrium(x, alpha=alpha), 300, seed) for x in (t, s))
        assert bits([got.elapsed]) == bits([want.elapsed]) and got.uploads.tolist() == want.uploads.tolist()
        cfg = AdaptConfig(epoch_rounds=50, updates=3)
        got, want = (run_adaptive_simulation([x], cfg, [seed]).observed for x in (t, s))
        assert bits(got.ravel()) == bits(want.ravel())
