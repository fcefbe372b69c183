from __future__ import annotations

import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bxsim import simulate

from bxsim.adapt import (
    AdaptConfig,
    AdaptiveRunResult,
    AdaptState,
    EpochRecord,
    analytic_iterate,
    init_state,
    log_floored,
    observe_and_update,
    run_adaptive_simulation,
)
from bxsim.equilibrium import expected_response_cost_under_rate, throughput_at_ne
from bxsim.errors import BxsimError, DivergenceError, NonpositiveObservationError, StallError
from bxsim.model import Metrics, Scenario
from bxsim.simulate import RoundEngine, in_order_sum

from conftest import adaptive_run, ref_group, reference_play, symmetric, two_file


def mech_cfg(**kw):
    defaults = dict(epoch_rounds=100, epsilon=0.1, guess_factor=10.0, updates=10)
    defaults.update(kw)
    return AdaptConfig(**defaults)


class TestInitState:
    def test_overestimated_initial_guess(self, sym_10_10):
        st = init_state(sym_10_10, mech_cfg())
        # assumed group of 100 at w = g = 1: guess 0.99, rate 1/0.99 - 1
        np.testing.assert_allclose(1 / st.inv_guess[~st.initiates], 0.99)
        np.testing.assert_allclose(st.rates[~st.initiates], 1 / 0.99 - 1.0)
        np.testing.assert_allclose(st.rates[st.initiates], 1 / 0.99 - 1.0)

    def test_scaled_by_ratio(self):
        s = two_file([2.0] * 10, [1.0] * 10)
        st = init_state(s, mech_cfg())
        np.testing.assert_allclose(1 / st.inv_guess[~st.initiates], 99 / 200)

    def test_true_size_guess_is_fixed_point(self, sym_10_10):
        rows = analytic_iterate(sym_10_10, mech_cfg(guess_factor=1.0, updates=5))
        for _, inv_a, inv_b in rows:
            assert inv_a == pytest.approx(10 / 9, abs=1e-12)
            assert inv_b == pytest.approx(10 / 9, abs=1e-12)

    def test_roles_follow_file_order(self, sym_10_10):
        st = init_state(sym_10_10, mech_cfg())
        assert tuple(np.flatnonzero(~st.initiates)) == ref_group(sym_10_10, 0)
        assert tuple(np.flatnonzero(st.initiates)) == ref_group(sym_10_10, 1)
        profile = st.profile()
        assert all(profile.gamma[n] == 0.0 for n in ref_group(sym_10_10, 0))
        assert all(profile.gamma[n] > 0.0 for n in ref_group(sym_10_10, 1))
        assert all(profile.lam[(n, 1)] > 0.0 for n in ref_group(sym_10_10, 0))
        assert all(profile.lam[(n, 0)] == 0.0 for n in ref_group(sym_10_10, 1))

    def test_requires_two_files(self):
        with pytest.raises(ValueError):
            init_state(symmetric(3, 4), mech_cfg())


class TestObserveAndUpdate:
    def test_per_node_first_step(self, sym_10_10):
        cfg = mech_cfg()
        st = init_state(sym_10_10, cfg)
        observed = 1 / st.aggregate_rates[0]  # exact mean backoff, 9.9
        st1 = observe_and_update(st, observed, observed, k=1, cfg=cfg)
        np.testing.assert_allclose(st1.inv_guess[~st1.initiates], 1.1 * (1 / 0.99) - 0.1 * (1 / 9.9))
        np.testing.assert_allclose(st1.inv_guess[~st1.initiates], 1.1010101010101, atol=1e-10)
        np.testing.assert_allclose(st1.rates[~st1.initiates], 0.1010101010101, atol=1e-10)

    def test_aggregate_sequence(self, sym_10_10):
        cfg = mech_cfg()
        st = init_state(sym_10_10, cfg)
        seen = [st.aggregate_rates[0]]
        for k in (1, 2):
            obs = 1 / st.aggregate_rates[0]
            st = observe_and_update(st, obs, 1 / st.aggregate_rates[1], k, cfg)
            seen.append(st.aggregate_rates[0])
        np.testing.assert_allclose(seen, [0.1010101, 1.0101010, 1.0555556], atol=1e-6)

    def test_observing_own_guess_is_noop(self, sym_10_10):
        cfg = mech_cfg()
        st = init_state(sym_10_10, cfg)
        own = float(1 / st.inv_guess[~st.initiates][0])  # homogeneous: same for all
        st1 = observe_and_update(st, own, own, k=1, cfg=cfg)
        np.testing.assert_allclose(st1.inv_guess[~st1.initiates], st.inv_guess[~st.initiates])
        np.testing.assert_allclose(st1.inv_guess[st1.initiates], st.inv_guess[st.initiates])

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
            log_floored(st1.floored)
        assert "floored" in caplog.text
        assert st1.aggregate_rates[0] == 0.0

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

    def test_divergence_is_its_own_error(self, sym_10_10):
        # the second step overflows; no numpy warning, a named epoch instead
        with pytest.raises(DivergenceError, match="epoch 2"):
            analytic_iterate(sym_10_10, mech_cfg(epsilon=1e300, updates=3))


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
        result = adaptive_run(sym_10_10, cfg, seed=1)
        assert len(result.epochs) == 4
        assert result.metrics.rounds == 4 * 50
        assert (result.metrics.downloads == 200).all()
        assert [rec.epoch for rec in result.epochs] == [0, 1, 2, 3]
        assert result.epochs[0].delta == 0.0
        assert result.epochs[2].delta == pytest.approx(0.05)
        assert len(result.epochs[0].node_states) == 20

    def test_initial_guess_throughput_is_poor(self, sym_10_10):
        cfg = mech_cfg(updates=0)
        result = adaptive_run(sym_10_10, cfg, seed=2)
        assert result.epochs[0].throughput < 0.5 * throughput_at_ne(sym_10_10)

    def test_ne_start_stays_flat(self, sym_10_10):
        cfg = mech_cfg(guess_factor=1.0, updates=9)
        result = adaptive_run(sym_10_10, cfg, seed=3)
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
            result = adaptive_run(s, cfg, seed=seed)
            ratios.append(result.epochs[3].throughput / throughput_at_ne(s))
        assert np.mean(ratios) >= 0.8

    def test_determinism(self, sym_10_10):
        cfg = mech_cfg(updates=2, epoch_rounds=40)
        r1 = adaptive_run(sym_10_10, cfg, seed=5)
        r2 = adaptive_run(sym_10_10, cfg, seed=5)
        assert [rec.throughput for rec in r1.epochs] == [rec.throughput for rec in r2.epochs]
        assert r1.metrics.elapsed == r2.metrics.elapsed

    def test_observed_fields_feed_next_update(self, sym_10_10):
        # the state entering epoch k+1 must be the update of epoch k's observation
        cfg = mech_cfg(updates=1, epoch_rounds=30)
        result = adaptive_run(sym_10_10, cfg, seed=7)
        st0 = init_state(sym_10_10, cfg)
        rec0 = result.epochs[0]
        st1 = observe_and_update(
            st0, 1 / rec0.observed_inv_that_a, 1 / rec0.observed_inv_that_b, 1, cfg
        )
        responders = np.flatnonzero(~st1.initiates)
        expected = [(n, float(1 / st1.inv_guess[n]), float(st1.rates[n])) for n in responders]
        got = [(n, *result.epochs[1].node_states[n].tolist()) for n in responders]
        for (en, eg, er), (gn, gg, gr) in zip(expected, got):
            assert en == gn
            assert gg == pytest.approx(eg, abs=1e-12)
            assert gr == pytest.approx(er, abs=1e-12)

    def test_matches_round_by_round_loop(self):
        # Epochs of 3000 rounds span two engine chunks; the per-round epoch
        # loop on the reference player must be reproduced bit for bit.
        s = two_file([1.0, 1.2, 1.4], [1.1, 1.3, 1.5, 1.6, 1.7])
        cfg = mech_cfg(updates=3, epoch_rounds=3000)
        result = adaptive_run(s, cfg, seed=4)
        replay_round_by_round(s, cfg, 4, result)

    def test_matches_round_by_round_loop_through_floors(self, caplog):
        # The updates floor rates of both groups at exactly zero; the engine
        # keeps those nodes in its tables and must still match per-round play.
        s = two_file([1.0, 1.2, 1.7], [1.1, 1.3, 1.5, 2.0, 2.4])
        cfg = mech_cfg(updates=4, epoch_rounds=3000, epsilon=0.8, guess_factor=2.0)
        with caplog.at_level(logging.WARNING, logger="bxsim.adapt"):
            result = adaptive_run(s, cfg, seed=4)
        states = replay_round_by_round(s, cfg, 4, result)
        assert "response update floored" in caplog.text and "initiation update floored" in caplog.text
        for rec, state in zip(result.epochs, states):
            assert rec.node_states.tolist() == np.column_stack((1 / state.inv_guess, state.rates)).tolist()
        last = result.epochs[-1].node_states[:, 1]
        assert (last[s.needs == 0] == 0).any() and (last[s.needs == 1] == 0).any()


def replay_round_by_round(s, cfg, seed, result):
    """Check an adaptive run against the per-round epoch loop on the
    reference player, bit for bit; returns the state of each epoch."""
    gen = np.random.Generator(np.random.PCG64(seed))
    state = init_state(s, cfg)
    states = []
    total = 0.0
    for rec in result.epochs:
        states.append(state)
        init_sum = resp_sum = elapsed = 0.0
        for _, _, t_init, t_resp in reference_play(s, state.profile(), gen, cfg.epoch_rounds):
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
    return states


@st.composite
def adapt_batches(draw):
    """1-5 seeds of a random two-file layout (shuffled needs, groups of 2-6,
    heterogeneous w and g), with one scenario for all seeds or, as fig2 has
    it, one per seed; knobs that often floor rates, stall or diverge."""
    needs = draw(st.permutations([0] * draw(st.integers(2, 6)) + [1] * draw(st.integers(2, 6))))
    costs = st.lists(st.floats(0.5, 2.0), min_size=len(needs), max_size=len(needs))
    count = draw(st.integers(1, 5))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=count, max_size=count, unique=True))
    scenarios = [Scenario(files=2, w=draw(costs), g=draw(costs), needs=needs)]
    scenarios = [draw(st.just(scenarios[0]) | st.builds(Scenario, st.just(2), costs, costs, st.just(needs))) for _ in seeds]
    cfg = AdaptConfig(
        epoch_rounds=draw(st.integers(1, 60)),
        epsilon=draw(st.sampled_from([0.1, 0.8, 3.0, 1e300])),
        guess_factor=draw(st.sampled_from([1.2, 2.0, 10.0])),
        updates=draw(st.integers(0, 4)),
    )
    return scenarios, cfg, seeds


def sequential_runs(scenarios, cfg, seeds):
    """The oracle for a batch: each seed's adaptive run alone, one after
    another, on an engine and a generator of its own, with the per-seed epoch
    loop; each update's floor warnings are logged as soon as it is made."""
    results = []
    for s, seed in zip(scenarios, seeds):
        state = init_state(s, cfg)
        engine, rng, metrics = RoundEngine(s, state.profile(), coded=False), np.random.Generator(np.random.PCG64(seed)), Metrics(s)
        epochs, floored = [], (0, 0)
        for epoch in range(cfg.updates + 1):
            sums = np.zeros(3)
            for chunk in engine.run(rng, cfg.epoch_rounds):
                engine.account(metrics, chunk)
                sums = in_order_sum(sums, (chunk.t_init, chunk.t_resp, chunk.duration))
            init_mean, resp_mean, elapsed = sums[0] / cfg.epoch_rounds, sums[1] / cfg.epoch_rounds, sums[2]
            delta = cfg.delta(epoch) if epoch else 0.0
            node_states = np.column_stack((1.0 / state.inv_guess, state.rates))
            epochs.append(EpochRecord(epoch, delta, 1.0 / resp_mean, 1.0 / init_mean, cfg.epoch_rounds / elapsed, node_states, floored))
            if epoch < cfg.updates:
                try:
                    state = observe_and_update(state, resp_mean, init_mean, epoch + 1, cfg)
                except DivergenceError as exc:
                    raise DivergenceError(f"seed {seed}: {exc}") from None
                floored = tuple(state.floored.tolist())
                log_floored(floored)
                engine.set_profile(state.profile())
        results.append(AdaptiveRunResult(epochs, metrics))
    return results


def observed(run, *args):
    """run(*args)'s results or error, the warnings it logged, and the final
    state of every generator it made."""
    logged, made = [], []
    handler = logging.Handler()
    handler.emit = lambda record: logged.append(record.getMessage())
    real = np.random.Generator
    logger = logging.getLogger("bxsim.adapt")
    logger.addHandler(handler)
    try:
        with mock.patch.object(np.random, "Generator", lambda bits: made.append(real(bits)) or made[-1]):
            results, error = run(*args), None
    except BxsimError as exc:
        results, error = None, exc
    finally:
        logger.removeHandler(handler)
    return results, error, logged, [gen.bit_generator.state for gen in made]


def record_fields(rec):
    return (rec.epoch, rec.delta, rec.observed_inv_that_a, rec.observed_inv_that_b, rec.throughput,
            rec.node_states.tolist(), rec.floored)


class TestSeedBatch:
    """Seeds played side by side give what each seed gives alone, one after
    the other: records, metrics, generator states, warnings and failures."""

    @settings(derandomize=True, max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(batch=adapt_batches(), chunk=st.integers(16, 256))
    def test_batch_equals_seeds_alone(self, batch, chunk):
        scenarios, cfg, seeds = batch
        with mock.patch.object(simulate, "CHUNK_DOUBLES", chunk):
            want, want_error, want_logged, want_states = observed(sequential_runs, scenarios, cfg, seeds)
            results, error, logged, states = observed(run_adaptive_simulation, scenarios, cfg, seeds)
        assert logged == want_logged
        if want_error is not None:
            assert (type(error), str(error)) == (type(want_error), str(want_error))
            return
        assert error is None and states == want_states
        for result, alone in zip(results, want, strict=True):
            assert [record_fields(rec) for rec in result.epochs] == [record_fields(rec) for rec in alone.epochs]
            got_m, want_m = result.metrics, alone.metrics
            assert (got_m.downloads.tolist(), got_m.uploads.tolist()) == (want_m.downloads.tolist(), want_m.uploads.tolist())
            assert (got_m.elapsed, got_m.rounds, got_m.scenario) == (want_m.elapsed, want_m.rounds, want_m.scenario)

    def test_update_fails_at_the_first_failing_seed(self, sym_10_10):
        cfg = mech_cfg()
        st = init_state(sym_10_10, cfg)
        batch = AdaptState(st.ratios, st.initiates, np.array([st.inv_guess] * 4))
        observed_means = np.array([1.0, 1.0, 0.0, 1.0]), np.array([1.0, 1e-320, 1.0, 1e-320])  # rows 1, 3 diverge; row 2 is 0
        with pytest.raises(DivergenceError, match="epoch 1") as failed:
            observe_and_update(batch, *observed_means, k=1, cfg=cfg)
        assert failed.value.row == 1
        with pytest.raises(NonpositiveObservationError, match="response backoff") as failed:
            observe_and_update(batch, observed_means[0], np.ones(4), k=1, cfg=cfg)
        assert failed.value.row == 2

    def test_floored_counts_are_the_warnings(self, caplog):
        s = two_file([1.0, 1.2, 1.7], [1.1, 1.3, 1.5, 2.0, 2.4])
        cfg = mech_cfg(updates=4, epoch_rounds=3000, epsilon=0.8, guess_factor=2.0)
        with caplog.at_level(logging.WARNING, logger="bxsim.adapt"):
            result = adaptive_run(s, cfg, seed=4)
        states = replay_round_by_round(s, cfg, 4, result)
        assert [rec.floored for rec in result.epochs] == [(0, 0)] + [tuple(st.floored.tolist()) for st in states[1:]]
        want = [f"{label} update floored {count} rate(s) at zero"
                for rec in result.epochs for label, count in zip(("response", "initiation"), rec.floored) if count]
        assert caplog.messages == want and len(want) >= 2

    def test_scenarios_must_share_a_layout(self, sym_10_10):
        with pytest.raises(ValueError, match="same files and needs"):
            run_adaptive_simulation([sym_10_10, two_file([1.0] * 9, [1.0] * 11)], mech_cfg(), [0, 1])
        with pytest.raises(ValueError, match="one seed per scenario"):
            run_adaptive_simulation([sym_10_10], mech_cfg(), [0, 1])
