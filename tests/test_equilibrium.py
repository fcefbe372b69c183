from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from bxsim import equilibrium
from bxsim.equilibrium import (
    coded_equilibrium,
    coded_round_duration,
    coded_system,
    coded_throughput,
    expected_initiation_cost,
    expected_response_cost,
    expected_response_cost_under_rate,
    ne_round_duration,
    node_costs_at_ne,
    poa_system,
    response_equilibrium,
    response_phase_mean,
    throughput_at_ne,
    two_file_equilibrium,
)
from bxsim.errors import DegenerateProfileError, NegativeRateError, SingularSystemError
from bxsim.model import Scenario

from conftest import (
    SINGULAR_CODED_ROWS,
    coded_residuals,
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
    symmetric,
    two_file,
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


class TestResponseEquilibrium:
    def test_symmetric_ten(self):
        lam = response_equilibrium([1.0] * 10)
        np.testing.assert_allclose(lam, np.full(10, 1 / 9), atol=1e-15)

    def test_two_nodes_swap(self):
        np.testing.assert_allclose(response_equilibrium([1.0, 2.0]), [2.0, 1.0])

    def test_strong_heterogeneity_two_nodes(self):
        np.testing.assert_allclose(response_equilibrium([1.0, 10.0]), [10.0, 1.0])

    def test_nonexistent(self):
        with pytest.raises(NegativeRateError):
            response_equilibrium([1.0, 1.0, 5.0])

    def test_allow_negative_returns_raw(self):
        lam = response_equilibrium([1.0, 1.0, 5.0], allow_negative=True)
        np.testing.assert_allclose(lam, [2.5, 2.5, -1.5])

    def test_zero_rate_is_allowed(self):
        # boundary node exactly at the group mean threshold
        lam = response_equilibrium([1.0, 1.0, 2.0])
        assert lam[2] == 0.0

    def test_others_sum_equals_own_ratio(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            r = rng.uniform(0.5, 3.0, size=int(rng.integers(2, 15)))
            lam = response_equilibrium(r, allow_negative=True)
            for i in range(r.size):
                assert np.sum(lam) - lam[i] == pytest.approx(r[i], abs=1e-12)

    def test_too_few(self):
        with pytest.raises(ValueError):
            response_equilibrium([1.0])


class TestResponsePhaseMean:
    def test_symmetric_ten(self):
        # matches the homogeneous shortcut (I-1)(g/w)/I
        assert response_phase_mean([1.0] * 10) == pytest.approx(0.9)

    def test_heterogeneous(self):
        assert response_phase_mean([1.0, 2.0]) == pytest.approx(1 / 3)

    def test_two_ones(self):
        assert response_phase_mean([1.0, 1.0]) == pytest.approx(0.5)

    def test_equals_inverse_rate_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            r = rng.uniform(0.5, 2.0, size=int(rng.integers(2, 12)))
            lam = response_equilibrium(r, allow_negative=True)
            assert response_phase_mean(r) == pytest.approx(1 / np.sum(lam), abs=1e-12)


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
        eq = two_file_equilibrium(sym_2_2, alpha=0.5)
        values = [expected_initiation_cost(t, 0, eq.profile, sym_2_2) for t in T_GRID]
        np.testing.assert_allclose(values, 3.5, atol=1e-12)

    def test_perturbed_profile_varies(self, sym_2_2):
        eq = two_file_equilibrium(sym_2_2, alpha=0.5)
        gamma = list(eq.profile.gamma)
        gamma[1] = 1.0  # second node of group 0
        profile = type(eq.profile)(gamma=np.array(gamma), lam=eq.profile.lam)
        v0 = expected_initiation_cost(0.0, 0, profile, sym_2_2)
        v1 = expected_initiation_cost(1.0, 0, profile, sym_2_2)
        assert abs(v0 - v1) > 1e-3

    def test_large_t_limit(self, sym_2_2):
        eq = two_file_equilibrium(sym_2_2, alpha=0.5)
        gamma = list(eq.profile.gamma)
        gamma[1] = 1.0
        profile = type(eq.profile)(gamma=np.array(gamma), lam=eq.profile.lam)
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
            eq = two_file_equilibrium(s, alpha=alpha, allow_negative=True)
            node = int(rng.integers(0, s.n_nodes))
            needed = int(s.needs[node])
            own = [m for m in ref_group(s, needed) if m != node]
            other = ref_group(s, 1 - needed)
            rest = sum(eq.profile.gamma[m] for m in own) + sum(eq.profile.gamma[m] for m in other)
            p_own = sum(eq.profile.gamma[m] for m in own) / rest
            that = 1 / sum(eq.profile.lam[(m, needed)] for m in other)
            for t in (0.0, 0.7, 3.0):
                oracle = initiation_cost_quadrature(t, s.w[node], s.g[node], rest, p_own, that)
                assert expected_initiation_cost(t, node, eq.profile, s) == pytest.approx(oracle, abs=1e-8)

    def test_degenerate_when_others_silent(self, sym_2_2):
        profile = two_file_equilibrium(sym_2_2, alpha=0.5).profile
        silent = type(profile)(gamma=np.array([0.5, 0.0, 0.0, 0.0]), lam=profile.lam)
        with pytest.raises(DegenerateProfileError):
            expected_initiation_cost(1.0, 0, silent, sym_2_2)


class TestTwoFileEquilibrium:
    def test_alpha_zero_silences_group_a(self, sym_10_10):
        eq = two_file_equilibrium(sym_10_10, alpha=0.0)
        assert all(eq.profile.gamma[n] == 0.0 for n in ref_group(sym_10_10, 0))
        # one-sided profile: the initiating group's response rates are zeroed
        assert all(eq.profile.lam[(n, 0)] == 0.0 for n in ref_group(sym_10_10, 1))
        assert all(eq.profile.lam[(n, 1)] > 0.0 for n in ref_group(sym_10_10, 0))

    def test_small_symmetric_rates(self, sym_2_2):
        eq = two_file_equilibrium(sym_2_2, alpha=0.5)
        np.testing.assert_allclose(eq.profile.gamma, 0.5)

    def test_heterogeneous_alpha_one(self):
        s = two_file([1.0, 2.0], [1.0, 1.0])
        eq = two_file_equilibrium(s, alpha=1.0)
        assert eq.profile.gamma[0] == pytest.approx(2.0)
        assert eq.profile.gamma[1] == pytest.approx(1.0)
        assert eq.profile.gamma[2] == eq.profile.gamma[3] == 0.0
        # indifference residual of the summed condition: ratios match
        # sum_{i != i*} gamma_a = alpha * ratio_i*
        assert eq.profile.gamma[1] == pytest.approx(1.0 * ref_ratio(s, 0), abs=1e-12)
        assert eq.profile.gamma[0] == pytest.approx(1.0 * ref_ratio(s, 1), abs=1e-12)

    def test_split_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = random_two_file(rng, max_group=10)
            alpha = float(rng.uniform(0.0, 1.0))
            eq = two_file_equilibrium(s, alpha=alpha, allow_negative=True)
            sum_a = sum(eq.profile.gamma[n] for n in ref_group(s, 0))
            sum_b = sum(eq.profile.gamma[n] for n in ref_group(s, 1))
            assert sum_a * eq.that_a == pytest.approx(alpha, abs=1e-12)
            assert sum_b * eq.that_b == pytest.approx(1 - alpha, abs=1e-12)

    def test_negative_rate_propagates(self):
        s = two_file([1.0, 1.0, 5.0], [1.0, 1.0])
        with pytest.raises(NegativeRateError):
            two_file_equilibrium(s, alpha=0.5)

    def test_alpha_out_of_range(self, sym_2_2):
        with pytest.raises(ValueError):
            two_file_equilibrium(sym_2_2, alpha=1.5)


class TestRoundDurationAndThroughput:
    def test_symmetric_ten(self, sym_10_10):
        d = ne_round_duration(sym_10_10)
        assert (d.that_a, d.that_b, d.total) == pytest.approx((0.9, 0.9, 3.8))
        assert throughput_at_ne(sym_10_10) == pytest.approx(1 / 3.8)

    def test_small_symmetric(self, sym_2_2):
        assert ne_round_duration(sym_2_2).total == pytest.approx(3.0)
        assert throughput_at_ne(sym_2_2) == pytest.approx(1 / 3)

    def test_heterogeneous_sums(self):
        # group 0 has ratio sum 3 with 2 nodes; group 1 sums to 10 with 10 nodes
        s = two_file([1.0, 2.0], [1.0] * 10)
        d = ne_round_duration(s)
        assert d.total == pytest.approx(1 / 3 + 0.9 + 2, abs=1e-12)

    @pytest.mark.parametrize("alpha", [2.0, -1.0, math.nan])
    def test_alpha_out_of_range(self, sym_2_2, alpha):
        with pytest.raises(ValueError, match="alpha"):
            ne_round_duration(sym_2_2, alpha=alpha)

    def test_alpha_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            s = random_two_file(rng, max_group=10)
            totals = {ne_round_duration(s, alpha=a).total for a in (0.1, 0.5, 0.9)}
            assert max(totals) - min(totals) < 1e-12

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
        eq = two_file_equilibrium(sym_2_2, alpha=0.5)
        assert avg_cost == pytest.approx(expected_initiation_cost(1.0, 0, eq.profile, sym_2_2))

    def test_cross_oracle_any_scenario(self):
        # equilibrium per-round cost equals the long-run average cost formula
        rng = np.random.default_rng(31)
        for _ in range(15):
            s = random_two_file(rng, max_group=8)
            alpha = float(rng.uniform(0.1, 0.9))
            eq = two_file_equilibrium(s, alpha=alpha, allow_negative=True)
            for node in (0, s.n_nodes - 1):
                expected = node_costs_at_ne(s).avg_cost[node]
                for t in T_GRID:
                    assert expected_initiation_cost(t, node, eq.profile, s) == pytest.approx(
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
        eq = coded_equilibrium(s)
        np.testing.assert_allclose(eq.gamma_by_file, np.full(3, 1 / 2.8), atol=1e-12)
        np.testing.assert_allclose(eq.profile.gamma, np.full(30, 1 / 28), atol=1e-12)
        assert not eq.degenerate

    def test_aggregate_identity(self):
        rng = np.random.default_rng(41)
        for files in (3, 5):
            s = random_coded(rng, files)
            eq = coded_equilibrium(s, allow_negative=True)
            for x in range(files):
                total = sum(eq.profile.gamma[n] for n in ref_group(s, x))
                assert total == pytest.approx(eq.gamma_by_file[x], abs=1e-12)

    def test_system_row_residuals(self):
        rng = np.random.default_rng(43)
        for files in (3, 4, 6, 8):
            s = random_coded(rng, files)
            eq = coded_equilibrium(s, allow_negative=True)
            residual = coded_residuals(*coded_system(s), eq.gamma_by_file)
            assert np.max(np.abs(residual)) < 1e-9

    def test_two_file_degenerate_family(self):
        s = two_file([1.0, 1.2, 1.5], [1.1, 0.9, 1.3, 1.0])
        eq = coded_equilibrium(s)
        assert eq.degenerate
        # both rows are the family line That_A * G_A + That_B * G_B = 1, on
        # which every alpha's aggregate rates lie
        c, d = coded_system(s)
        for alpha in (0.0, 0.3, 0.5, 1.0):
            gamma = two_file_equilibrium(s, alpha=alpha).profile.gamma
            point = [sum(gamma[n] for n in ref_group(s, x)) for x in (0, 1)]
            assert np.max(np.abs(coded_residuals(c, d, point))) < 1e-9
        # representative matches the alpha = 0.5 bilateral equilibrium
        bil = two_file_equilibrium(s, alpha=0.5)
        np.testing.assert_allclose(eq.profile.gamma, bil.profile.gamma)

    def test_unexpected_singular_raises(self, monkeypatch):
        s = symmetric(3, 10)
        for c, d in SINGULAR_CODED_ROWS:
            assert exact_coded_solution(c, d) is None
            monkeypatch.setattr(equilibrium, "coded_system", lambda s, c=c, d=d: (np.array(c), np.array(d)))
            with pytest.raises(SingularSystemError):
                coded_equilibrium(s)

    def test_negative_gamma_raises(self):
        rng = np.random.default_rng(4)
        # heterogeneous 10-node groups essentially always break nonnegativity
        s = random_coded(rng, 3)
        with pytest.raises(NegativeRateError):
            coded_equilibrium(s)

    def test_round_duration_and_throughput(self):
        s = symmetric(3, 10)
        d = coded_round_duration(s)
        assert d.t_init == pytest.approx(1 / (3 / 2.8), abs=1e-12)
        assert d.response_mean == pytest.approx(19 / 20, abs=1e-12)
        assert d.total == pytest.approx(3.8833333333, abs=1e-9)
        assert coded_throughput(s) == pytest.approx(0.2575107296, abs=1e-9)

    def test_response_rates_cover_all_contexts(self):
        # every node answers every file it holds; its own file's entry is 0
        s = symmetric(3, 4)
        eq = coded_equilibrium(s)
        assert eq.profile.lam.shape == (s.n_nodes, s.files)
        for n in range(s.n_nodes):
            for x in range(s.files):
                if s.needs[n] != x:
                    assert eq.profile.lam[n, x] > 0
                else:
                    assert eq.profile.lam[n, x] == 0


@st.composite
def shuffled_scenarios(draw, files):
    """Unequal groups of 2-7 nodes in shuffled order, w and g drawn apart."""
    f = draw(files)
    sizes = draw(st.lists(st.integers(2, 7), min_size=f, max_size=f))
    needs = draw(st.permutations(np.repeat(np.arange(f), sizes).tolist()))
    cost = st.floats(0.05, 20.0)
    w, g = zip(*((draw(cost), draw(cost)) for _ in needs))
    return Scenario(files=f, w=w, g=g, needs=needs)


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
        eq = two_file_equilibrium(s, alpha=alpha, allow_negative=True)
        gamma, lam, that_a, that_b = reference_two_file(s, alpha)
        assert bits(eq.profile.gamma) == bits(gamma)
        assert_same_lam(eq.profile.lam, lam, 2)
        assert bits([eq.that_a, eq.that_b]) == bits([that_a, that_b])

    @BIT_EXACT
    @given(s=shuffled_scenarios(st.just(2)), alpha=ALPHA)
    def test_ne_round_duration(self, s, alpha):
        d = ne_round_duration(s, alpha=alpha)
        assert bits([d.t_init, d.that_a, d.that_b, d.total]) == bits(reference_round_duration(s, alpha))

    @BIT_EXACT
    @given(s=shuffled_scenarios(st.integers(2, 6)))
    def test_coded_equilibrium(self, s):
        eq = coded_equilibrium(s, allow_negative=True)
        c, d = reference_coded_system(s)
        assert [bits(v) for v in coded_system(s)] == [bits(c), bits(d)]
        if s.files == 2:  # the degenerate family's alpha = 0.5 representative
            gamma, lam, that_a, that_b = reference_two_file(s, 0.5)
            assert bits(eq.gamma_by_file) == bits((0.5 / that_a, 0.5 / that_b))
        else:  # the aggregate rates themselves are checked against the exact oracle
            gamma, lam = reference_coded(s, eq.gamma_by_file)
        assert bits(eq.profile.gamma) == bits(gamma)
        assert_same_lam(eq.profile.lam, lam, s.files)
        total = float(np.sum(eq.gamma_by_file))
        resp_mean = float(np.sum(np.asarray(eq.gamma_by_file) / total * np.array(d)))
        assert bits([coded_round_duration(s, eq).response_mean]) == bits([resp_mean])
