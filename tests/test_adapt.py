from __future__ import annotations

import logging

import numpy as np
import pytest

from bxsim.adapt import (
    AdaptConfig,
    analytic_iterate,
    init_state,
    observe_and_update,
    run_adaptive_simulation,
)
from bxsim.equilibrium import expected_response_cost_under_rate, throughput_at_ne
from bxsim.errors import NonpositiveObservationError, StallError

from conftest import reference_play, symmetric, two_file


def mech_cfg(**kw):
    defaults = dict(epoch_rounds=100, epsilon=0.1, guess_factor=10.0, updates=10)
    defaults.update(kw)
    return AdaptConfig(**defaults)


class TestInitState:
    def test_overestimated_initial_guess(self, sym_10_10):
        st = init_state(sym_10_10, mech_cfg())
        # assumed group of 100 at w = g = 1: guess 0.99, rate 1/0.99 - 1
        np.testing.assert_allclose(1 / st.responders.inv_guess, 0.99)
        np.testing.assert_allclose(st.responders.rates, 1 / 0.99 - 1.0)
        np.testing.assert_allclose(st.initiators.rates, 1 / 0.99 - 1.0)

    def test_scaled_by_ratio(self):
        s = two_file([2.0] * 10, [1.0] * 10)
        st = init_state(s, mech_cfg())
        np.testing.assert_allclose(1 / st.responders.inv_guess, 99 / 200)

    def test_true_size_guess_is_fixed_point(self, sym_10_10):
        rows = analytic_iterate(sym_10_10, mech_cfg(guess_factor=1.0, updates=5))
        for _, inv_a, inv_b in rows:
            assert inv_a == pytest.approx(10 / 9, abs=1e-12)
            assert inv_b == pytest.approx(10 / 9, abs=1e-12)

    def test_roles_follow_file_order(self, sym_10_10):
        st = init_state(sym_10_10, mech_cfg())
        assert st.responders.nodes == sym_10_10.group(0)
        assert st.initiators.nodes == sym_10_10.group(1)
        profile = st.profile(sym_10_10)
        assert all(profile.gamma[n] == 0.0 for n in sym_10_10.group(0))
        assert all(profile.gamma[n] > 0.0 for n in sym_10_10.group(1))
        assert all(profile.lam[(n, 1)] > 0.0 for n in sym_10_10.group(0))
        assert all(profile.lam[(n, 0)] == 0.0 for n in sym_10_10.group(1))

    def test_requires_two_files(self):
        with pytest.raises(ValueError):
            init_state(symmetric(3, 4), mech_cfg())


class TestObserveAndUpdate:
    def test_per_node_first_step(self, sym_10_10):
        cfg = mech_cfg()
        st = init_state(sym_10_10, cfg)
        observed = 1 / st.responders.aggregate_rate  # exact mean backoff, 9.9
        st1 = observe_and_update(st, observed, observed, k=1, cfg=cfg)
        np.testing.assert_allclose(st1.responders.inv_guess, 1.1 * (1 / 0.99) - 0.1 * (1 / 9.9))
        np.testing.assert_allclose(st1.responders.inv_guess, 1.1010101010101, atol=1e-10)
        np.testing.assert_allclose(st1.responders.rates, 0.1010101010101, atol=1e-10)

    def test_aggregate_sequence(self, sym_10_10):
        cfg = mech_cfg()
        st = init_state(sym_10_10, cfg)
        seen = [st.responders.aggregate_rate]
        for k in (1, 2):
            obs = 1 / st.responders.aggregate_rate
            st = observe_and_update(st, obs, 1 / st.initiators.aggregate_rate, k, cfg)
            seen.append(st.responders.aggregate_rate)
        np.testing.assert_allclose(seen, [0.1010101, 1.0101010, 1.0555556], atol=1e-6)

    def test_observing_own_guess_is_noop(self, sym_10_10):
        cfg = mech_cfg()
        st = init_state(sym_10_10, cfg)
        own = float(1 / st.responders.inv_guess[0])  # homogeneous: same for all
        st1 = observe_and_update(st, own, own, k=1, cfg=cfg)
        np.testing.assert_allclose(st1.responders.inv_guess, st.responders.inv_guess)
        np.testing.assert_allclose(st1.initiators.inv_guess, st.initiators.inv_guess)

    def test_nonpositive_observation(self, sym_10_10):
        cfg = mech_cfg()
        st = init_state(sym_10_10, cfg)
        with pytest.raises(NonpositiveObservationError):
            observe_and_update(st, 0.0, 1.0, k=1, cfg=cfg)

    def test_floor_logs_warning(self, sym_10_10, caplog):
        cfg = mech_cfg()
        st = init_state(sym_10_10, cfg)
        with caplog.at_level(logging.WARNING, logger="bxsim.adapt"):
            st1 = observe_and_update(st, 1e-9, 1e-9, k=1, cfg=cfg)
        assert "floored" in caplog.text
        assert st1.responders.aggregate_rate == 0.0

    def test_k_must_be_positive(self, sym_10_10):
        cfg = mech_cfg()
        st = init_state(sym_10_10, cfg)
        with pytest.raises(ValueError):
            observe_and_update(st, 1.0, 1.0, k=0, cfg=cfg)


class TestAnalyticIterate:
    def test_error_ratio_is_exact(self, sym_10_10):
        rows = analytic_iterate(sym_10_10, mech_cfg(updates=20))
        target = 10 / 9
        errors = [abs(inv_a - target) for _, inv_a, _ in rows]
        for k in range(1, 21):
            factor = abs(1 - (0.1 / k) * 9)
            assert errors[k] == pytest.approx(errors[k - 1] * factor, abs=1e-12)

    def test_one_step_cancellation(self, sym_10_10):
        # delta_1 * (I - 1) = 1 erases the error in a single update
        rows = analytic_iterate(sym_10_10, mech_cfg(epsilon=1 / 9, updates=1))
        assert rows[1][1] == pytest.approx(10 / 9, abs=1e-12)

    def test_within_one_percent_by_50(self, sym_10_10):
        rows = analytic_iterate(sym_10_10, mech_cfg(updates=50))
        assert abs(rows[-1][1] - 10 / 9) / (10 / 9) < 0.01
        assert abs(rows[-1][2] - 10 / 9) / (10 / 9) < 0.01

    def test_monotone_once_contracting(self, sym_10_10):
        rows = analytic_iterate(sym_10_10, mech_cfg(updates=30))
        target = 10 / 9
        errors = [abs(inv_a - target) for _, inv_a, _ in rows]
        # delta_k * 9 < 1 from k = 1 on here (0.9 at k = 1), so monotone throughout
        assert all(errors[k] <= errors[k - 1] for k in range(1, len(errors)))

    def test_heterogeneous_aggregate_recursion(self):
        ratios = [1.0, 1.05, 1.1, 1.05, 1.0, 1.1, 1.02, 1.08, 1.03, 1.07]
        s = two_file(ratios, list(reversed(ratios)))
        cfg = mech_cfg(updates=25)
        rows = analytic_iterate(s, cfg)
        target = sum(ratios) / 9
        inv = rows[0][1]
        for k in range(1, 26):
            inv = inv + cfg.delta(k) * 9 * (target - inv)
            assert rows[k][1] == pytest.approx(inv, abs=1e-12)

    def test_stall_after_full_floor(self, sym_10_10):
        with pytest.raises(StallError):
            analytic_iterate(sym_10_10, mech_cfg(epsilon=5.0, guess_factor=0.2, updates=3))


class TestIncentiveMonotonicity:
    @pytest.mark.parametrize(
        "own_ratio,others",
        [
            (1.0, [1.0] * 9),          # homogeneous
            (1.3, [1.0, 1.1, 0.9, 1.2, 1.05]),  # heterogeneous, others slow
            (0.8, [1.4, 1.5, 1.3]),    # heterogeneous, others fast
        ],
    )
    def test_cost_never_increases_along_updates(self, own_ratio, others):
        # one node updates analytically; every other rate stays fixed
        lam_others = float(np.sum(response_equilibrium_like(others)))
        w, g = own_ratio, 1.0
        assumed = 100.0
        inv_guess = assumed * own_ratio / (assumed - 1.0)
        cost = expected_response_cost_under_rate(w, g, max(0.0, inv_guess - own_ratio), lam_others)
        for k in range(1, 51):
            delta = 0.1 / k
            lam_self = max(0.0, inv_guess - own_ratio)
            observed = 1.0 / (lam_others + lam_self)
            inv_guess = (1 + delta) * inv_guess - delta / observed
            new_cost = expected_response_cost_under_rate(
                w, g, max(0.0, inv_guess - own_ratio), lam_others
            )
            assert new_cost <= cost + 1e-12
            cost = new_cost


def response_equilibrium_like(ratios):
    r = np.asarray(ratios, dtype=float)
    return np.sum(r) / (r.size - 1) - r


class TestAdaptiveSimulation:
    def test_shape_and_accounting(self, sym_10_10):
        cfg = mech_cfg(updates=3, epoch_rounds=50)
        result = run_adaptive_simulation(sym_10_10, cfg, seed=1)
        assert len(result.epochs) == 4
        assert result.metrics.rounds == 4 * 50
        assert (result.metrics.downloads == 200).all()
        assert [rec.epoch for rec in result.epochs] == [0, 1, 2, 3]
        assert result.epochs[0].delta == 0.0
        assert result.epochs[2].delta == pytest.approx(0.05)
        assert len(result.epochs[0].node_states) == 20

    def test_initial_guess_throughput_is_poor(self, sym_10_10):
        cfg = mech_cfg(updates=0)
        result = run_adaptive_simulation(sym_10_10, cfg, seed=2)
        assert result.epochs[0].throughput < 0.5 * throughput_at_ne(sym_10_10)

    def test_ne_start_stays_flat(self, sym_10_10):
        cfg = mech_cfg(guess_factor=1.0, updates=9)
        result = run_adaptive_simulation(sym_10_10, cfg, seed=3)
        ne = throughput_at_ne(sym_10_10)
        values = np.array([rec.throughput for rec in result.epochs])
        assert np.all(np.abs(values - ne) / ne < 0.15)
        assert abs(values.mean() - ne) / ne < 0.03

    def test_random_cost_convergence(self):
        rng = np.random.default_rng(2718)
        cfg = mech_cfg(updates=3)
        ratios = []
        for seed in range(5):
            s = two_file(rng.uniform(1, 2, size=10), rng.uniform(1, 2, size=10))
            result = run_adaptive_simulation(s, cfg, seed=seed)
            ratios.append(result.epochs[3].throughput / throughput_at_ne(s))
        assert np.mean(ratios) >= 0.8

    def test_determinism(self, sym_10_10):
        cfg = mech_cfg(updates=2, epoch_rounds=40)
        r1 = run_adaptive_simulation(sym_10_10, cfg, seed=5)
        r2 = run_adaptive_simulation(sym_10_10, cfg, seed=5)
        assert [rec.throughput for rec in r1.epochs] == [rec.throughput for rec in r2.epochs]
        assert r1.metrics.elapsed == r2.metrics.elapsed

    def test_observed_fields_feed_next_update(self, sym_10_10):
        # the state entering epoch k+1 must be the update of epoch k's observation
        cfg = mech_cfg(updates=1, epoch_rounds=30)
        result = run_adaptive_simulation(sym_10_10, cfg, seed=7)
        st0 = init_state(sym_10_10, cfg)
        rec0 = result.epochs[0]
        st1 = observe_and_update(
            st0, 1 / rec0.observed_inv_that_a, 1 / rec0.observed_inv_that_b, 1, cfg
        )
        expected = sorted(
            (n, float(1 / st1.responders.inv_guess[i]), float(st1.responders.rates[i]))
            for i, n in enumerate(st1.responders.nodes)
        )
        got = [t for t in result.epochs[1].node_states if t[0] in st1.responders.nodes]
        for (en, eg, er), (gn, gg, gr) in zip(expected, got):
            assert en == gn
            assert gg == pytest.approx(eg, abs=1e-12)
            assert gr == pytest.approx(er, abs=1e-12)

    def test_matches_round_by_round_loop(self):
        # Epochs of 3000 rounds span two engine chunks; the per-round epoch
        # loop on the reference player must be reproduced bit for bit.
        s = two_file([1.0, 1.2, 1.4], [1.1, 1.3, 1.5, 1.6, 1.7])
        cfg = mech_cfg(updates=3, epoch_rounds=3000)
        result = run_adaptive_simulation(s, cfg, seed=4)
        gen = np.random.Generator(np.random.PCG64(4))
        state = init_state(s, cfg)
        total = 0.0
        for rec in result.epochs:
            init_sum = resp_sum = elapsed = 0.0
            for _, _, t_init, t_resp in reference_play(s, state.profile(s), gen, cfg.epoch_rounds):
                duration = t_init + t_resp + 2.0
                total += duration
                init_sum += t_init
                resp_sum += t_resp
                elapsed += duration
            resp_mean, init_mean = resp_sum / cfg.epoch_rounds, init_sum / cfg.epoch_rounds
            assert (rec.observed_inv_that_a, rec.observed_inv_that_b) == (1.0 / resp_mean, 1.0 / init_mean)
            assert rec.throughput == cfg.epoch_rounds / elapsed
            if rec.epoch < cfg.updates:
                state = observe_and_update(state, resp_mean, init_mean, rec.epoch + 1, cfg)
        assert result.metrics.elapsed == total
