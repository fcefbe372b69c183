from __future__ import annotations

import csv
import io
import json
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bxsim import simulate
from bxsim.adapt import AdaptConfig, init_state
from bxsim.cli import main
from bxsim.equilibrium import (
    coded_equilibrium,
    coded_throughput,
    ne_round_duration,
    node_costs_at_ne,
    require_nonnegative,
    throughput_at_ne,
    two_file_equilibrium,
)
from bxsim.errors import NoEquilibriumError, StallError
from bxsim.model import Scenario, StrategyProfile, atomic_open
from bxsim.simulate import CHUNK_DOUBLES, Metrics, RoundEngine, Rounds, run_simulation

from conftest import dense_profile, one_seed, reference_play, scenario_to_dict, shuffled_scenarios, symmetric, two_file


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def joined(chunks) -> Rounds:
    """Chunks of an engine run as one Rounds, per seed."""
    return Rounds(*(np.concatenate(cols, axis=-1) for cols in zip(*chunks)))


def alone(chunks) -> Rounds:
    """Chunks of a batch of one as one Rounds of that seed's rounds."""
    return Rounds(*(col[0] for col in joined(chunks)))


def play(s, profile, rounds, seed=0) -> Rounds:
    """Every round of one engine run of one seed."""
    return alone(RoundEngine(s, one_seed(profile)).run([rng(seed)], rounds))


def chunk_lengths(chunks) -> list[int]:
    """The number of rounds in each chunk of an engine run."""
    return [chunk.duration.shape[-1] for chunk in chunks]


def small_chunks(doubles):
    """Within the block, the engine draws at most ``doubles`` uniforms per chunk."""
    return mock.patch.object(simulate, "CHUNK_DOUBLES", doubles)


class ZeroStream:
    """A seeded uniform stream in which about one draw in five is exactly 0.

    It has the parts of the Generator interface the engine uses: random(k),
    and bit_generator.state / advance(k) counted in draws."""

    def __init__(self, seed=0):
        self.uniforms = rng(seed).random(50_000)
        self.uniforms[rng(seed + 1).random(50_000) < 0.2] = 0.0
        self.state = 0
        self.bit_generator = self

    def advance(self, k):
        self.state += k

    def random(self, k):
        self.state += k
        return self.uniforms[self.state - k : self.state].copy()


def reference_metrics(s, rows) -> Metrics:
    """Per-round accounting of reference_play rows, one round at a time."""
    m = Metrics(s)
    for i0, j0, t_init, t_resp in rows:
        m.uploads[i0] += 1
        m.uploads[j0] += 1
        m.elapsed += t_init + t_resp + 2.0
        m.rounds += 1
    return m


def assert_same_rounds(got: Rounds, rows) -> None:
    """Bit-for-bit equality of a batched run with reference rows."""
    assert got.initiator.tolist() == [r[0] for r in rows]
    assert got.responder.tolist() == [r[1] for r in rows]
    assert got.t_init.tolist() == [r[2] for r in rows]
    assert got.t_resp.tolist() == [r[3] for r in rows]


class TestSampling:
    """Timer sampling inside the engine: one uniform per node, inverse CDF."""

    def test_zero_rate_is_never(self, sym_2_2):
        # zero-rate nodes never fire, in either phase
        profile = dense_profile(
            gamma=(0.0, 1.0, 1.0, 0.0), lam={(0, 1): 1.0, (1, 1): 0.0, (2, 0): 0.0, (3, 0): 2.0}
        )
        out = play(sym_2_2, profile, 2000)
        assert set(out.initiator.tolist()) == {1, 2}
        assert set(out.responder.tolist()) == {0, 3}

    def test_inverse_cdf_identity(self, sym_2_2):
        # the only initiator reads the third uniform: its timer is -log(1 - u) / rate
        profile = dense_profile(gamma=(0.0, 0.0, 2.0, 0.0), lam={(0, 1): 1.0, (1, 1): 1.0})
        out = play(sym_2_2, profile, 1)
        u = rng().random(4)[2]
        assert out.t_init[0] == -np.log1p(-u) / 2.0
        assert out.t_init[0] == pytest.approx(-math.log(1 - u) / 2)

    def test_negative_rate(self, sym_2_2):
        lam = {(0, 1): 1.0, (1, 1): 1.0, (2, 0): 1.0, (3, 0): 1.0}
        with pytest.raises(ValueError, match="negative or non-finite rate"):
            RoundEngine(sym_2_2, one_seed(dense_profile(gamma=(1.0, -1.0, 1.0, 1.0), lam=lam)))
        with pytest.raises(ValueError, match="negative or non-finite rate"):
            RoundEngine(sym_2_2, one_seed(dense_profile(gamma=(1.0,) * 4, lam={**lam, (3, 0): -0.5})))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_rate(self, sym_2_2, bad):
        lam = {(0, 1): 1.0, (1, 1): 1.0, (2, 0): 1.0, (3, 0): 1.0}
        with pytest.raises(ValueError, match="negative or non-finite rate"):
            RoundEngine(sym_2_2, one_seed(dense_profile(gamma=(1.0, bad, 1.0, 1.0), lam=lam)))
        with pytest.raises(ValueError, match="negative or non-finite rate"):
            RoundEngine(sym_2_2, one_seed(dense_profile(gamma=(1.0,) * 4, lam={**lam, (2, 0): bad})))

    def test_zero_rate_consumes_one_uniform(self, sym_2_2):
        # 4 initiation + 2 response uniforms per round, zero rates included
        profile = dense_profile(gamma=(0.0, 1.0, 0.0, 1.0), lam={(0, 1): 1.0, (2, 0): 1.0})
        gen = rng(5)
        list(RoundEngine(sym_2_2, one_seed(profile)).run([gen], 1000))
        ref = rng(5)
        ref.random(6 * 1000)
        assert gen.random() == ref.random()

    def test_empirical_mean(self, sym_2_2):
        # a lone initiator at rate 4 draws plain exponential timers
        profile = dense_profile(gamma=(4.0, 0.0, 0.0, 0.0), lam={(2, 0): 1.0, (3, 0): 1.0})
        out = play(sym_2_2, profile, 1_000_000, seed=8)
        assert out.t_init.mean() == pytest.approx(0.25, abs=0.001)

    @pytest.mark.parametrize("groups", [[2, 2], [3, 2]])
    def test_ties_break_toward_lowest_id(self, groups):
        # every uniform is 0.5, so all timers at one rate tie
        s = two_file([1.0] * groups[0], [1.0] * groups[1])
        n = s.n_nodes
        lam = {(m, x): 1.0 for m in range(n) for x in range(2) if x != s.needs[m]}
        profile = dense_profile(gamma=(0.0,) + (1.0,) * (n - 1), lam=lam)
        stub = SimpleNamespace(
            random=lambda k: np.full(k, 0.5), bit_generator=SimpleNamespace(state=None, advance=lambda k: None)
        )
        (out,) = RoundEngine(s, one_seed(profile)).run([stub], 3)
        assert out.initiator[0].tolist() == [1, 1, 1]
        assert out.responder[0].tolist() == [groups[0]] * 3

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_zero_uniform_keeps_zero_rates_silent(self):
        # u = 0 makes e = 0, and 0 / 0 would be NaN, which argmin picks first;
        # a zero rate must still lose, in both phases and in the offset walk
        s = two_file([1.0] * 3, [1.0] * 2)
        profile = dense_profile(
            gamma=(1.0, 1.0, 1.0, 1.0, 0.0), lam={(0, 1): 0.0, (1, 1): 1.0, (2, 1): 1.0, (3, 0): 1.0, (4, 0): 1.0}
        )
        got, want = ZeroStream(), ZeroStream()
        with small_chunks(64):
            out = alone(RoundEngine(s, one_seed(profile)).run([got], 500))
        assert_same_rounds(out, reference_play(s, profile, want, 500))
        assert got.state == want.state

    def test_vector_matches_scalar_stream(self, sym_2_2):
        profile = dense_profile(gamma=(0.0, 2.0, 1.5, 0.5), lam={(0, 1): 1.0, (1, 1): 0.5, (3, 0): 2.0})
        assert_same_rounds(play(sym_2_2, profile, 300, seed=3), reference_play(sym_2_2, profile, rng(3), 300))


class TestRunRound:
    """Single rounds: RoundEngine.run([rng], 1)."""

    def test_only_positive_rate_initiates(self, sym_10_10):
        profile = two_file_equilibrium(sym_10_10, alpha=0.5)
        gamma = [0.0] * 20
        gamma[13] = 1.0
        lopsided = StrategyProfile(gamma=np.array(gamma), lam=profile.lam)
        for seed in range(5):
            assert play(sym_10_10, lopsided, 1, seed=seed).initiator[0] == 13

    def test_responder_possesses_needed_file(self, sym_10_10):
        profile = two_file_equilibrium(sym_10_10, alpha=0.5)
        for seed in range(10):
            out = play(sym_10_10, profile, 1, seed=seed)
            needed = sym_10_10.needs[out.initiator[0]]
            assert sym_10_10.needs[out.responder[0]] != needed
            assert out.initiator[0] != out.responder[0]

    def test_round_accounting(self, sym_10_10):
        profile = two_file_equilibrium(sym_10_10, alpha=0.5)
        for seed in range(10):
            out = play(sym_10_10, profile, 1, seed=seed)
            m = run_simulation(sym_10_10, profile, 1, seed)
            assert m.uploads.sum() == 2
            assert m.elapsed >= 2.0
            assert m.elapsed == out.t_init[0] + out.t_resp[0] + 2.0 == out.duration[0]
            assert m.rounds == 1

    def test_coded_everyone_downloads(self):
        s = symmetric(3, 10)
        m = run_simulation(s, coded_equilibrium(s), 1, 1)
        assert m.rounds == 1
        assert m.uploads.sum() == 2

    def test_stall_no_initiator(self, sym_2_2):
        profile = dense_profile(gamma=(0.0,) * 4, lam={(0, 1): 1.0, (1, 1): 1.0})
        with pytest.raises(StallError):
            play(sym_2_2, profile, 1)

    def test_stall_no_responder(self, sym_2_2):
        profile = dense_profile(gamma=(1.0, 1.0, 1.0, 1.0), lam={})
        with pytest.raises(StallError):
            play(sym_2_2, profile, 1)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_stall_when_every_timer_overflows(self, sym_2_2):
        # a positive but subnormal rate turns every timer into inf
        profile = dense_profile(gamma=(1e-320, 0.0, 0.0, 0.0), lam={(2, 0): 1.0, (3, 0): 1.0})
        with pytest.raises(StallError, match="infinite"):
            play(sym_2_2, profile, 1)
        with pytest.raises(StallError):
            reference_play(sym_2_2, profile, rng(), 1)

    def test_mean_duration_matches_analytic(self, sym_10_10):
        profile = two_file_equilibrium(sym_10_10, alpha=0.5)
        out = play(sym_10_10, profile, 20000, seed=5)
        assert out.duration.sum() / 20000 == pytest.approx(ne_round_duration(sym_10_10), rel=0.02)


class TestRunSimulation:
    def test_determinism(self, sym_10_10):
        profile = two_file_equilibrium(sym_10_10, alpha=0.5)
        cfg = dict(scenario=sym_10_10, profile=profile, rounds=2000, seed=11)
        m1, m2 = run_simulation(**cfg), run_simulation(**cfg)
        assert (m1.elapsed, m1.rounds) == (m2.elapsed, m2.rounds)
        np.testing.assert_array_equal(m1.uploads, m2.uploads)

    def test_two_file_completeness(self, sym_10_10):
        profile = two_file_equilibrium(sym_10_10, alpha=0.5)
        cfg = dict(scenario=sym_10_10, profile=profile, rounds=500, seed=2)
        m = run_simulation(**cfg)
        assert m.rounds == 500
        assert m.uploads.sum() == 2 * 500

    def test_matches_run_round_accumulation(self, sym_10_10):
        profile = two_file_equilibrium(sym_10_10, alpha=0.5)
        cfg = dict(scenario=sym_10_10, profile=profile, rounds=300, seed=9)
        m = run_simulation(**cfg)
        ref = reference_metrics(sym_10_10, reference_play(sym_10_10, profile, rng(9), 300))
        assert m.rounds == ref.rounds
        np.testing.assert_array_equal(m.uploads, ref.uploads)
        assert m.elapsed == pytest.approx(ref.elapsed, abs=1e-9)
        for cost, want in zip(m.avg_total_cost().tolist(), ref.avg_total_cost().tolist(), strict=True):
            assert cost == pytest.approx(want, abs=1e-12)

    def test_winner_distribution(self, sym_2_2):
        gamma = (0.5, 1.0, 1.5, 2.0)
        lam = {(0, 1): 1.0, (1, 1): 1.0, (2, 0): 1.0, (3, 0): 1.0}
        profile = dense_profile(gamma=gamma, lam=lam)
        rounds = 100_000
        counts = np.bincount(play(sym_2_2, profile, rounds, seed=4).initiator, minlength=4)
        total_rate = sum(gamma)
        for n in range(4):
            p = gamma[n] / total_rate
            se = math.sqrt(p * (1 - p) / rounds)
            assert counts[n] / rounds == pytest.approx(p, abs=3 * se)

    def test_mean_initiation_duration(self, sym_10_10):
        profile = two_file_equilibrium(sym_10_10, alpha=0.5)
        rounds = 50_000
        total_init = play(sym_10_10, profile, rounds, seed=6).t_init.sum()
        total_rate = sum(profile.gamma)
        assert total_init / rounds == pytest.approx(1 / total_rate, rel=0.02)

    def test_throughput_and_cost_oracles(self, sym_10_10):
        profile = two_file_equilibrium(sym_10_10, alpha=0.5)
        cfg = dict(scenario=sym_10_10, profile=profile, rounds=30_000, seed=12)
        m = run_simulation(**cfg)
        assert m.per_node_throughput() == pytest.approx(throughput_at_ne(sym_10_10), rel=0.02)
        expected = node_costs_at_ne(sym_10_10).avg_cost[0]
        for cost in m.avg_total_cost().tolist():
            assert cost == pytest.approx(expected, rel=0.02)

    def test_coded_throughput_oracle(self):
        s = symmetric(3, 10)
        profile = coded_equilibrium(s)
        cfg = dict(scenario=s, profile=profile, rounds=30_000, seed=13)
        m = run_simulation(**cfg)
        assert m.per_node_throughput() == pytest.approx(coded_throughput(s), rel=0.02)

    def test_deterministic_bounds(self, sym_10_10):
        # duration >= 2 per round makes these hard bounds, not limits
        profile = two_file_equilibrium(sym_10_10, alpha=0.5)
        m = run_simulation(scenario=sym_10_10, profile=profile, rounds=1000, seed=3)
        assert m.per_node_throughput() <= 0.5
        assert all(m.avg_total_cost() >= 2 * sym_10_10.w)

    def test_trace_csv(self, tmp_path, sym_2_2):
        profile = two_file_equilibrium(sym_2_2, alpha=0.5)
        cfg = dict(scenario=sym_2_2, profile=profile, rounds=50, seed=1)
        path = tmp_path / "trace.csv"
        with open(path, "w", newline="") as trace:
            m = run_simulation(**cfg, trace=trace)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "initiator", "responder", "t_init", "t_resp", "duration"]
        assert len(rows) == 51
        total = sum(float(r[5]) for r in rows[1:])
        assert total == pytest.approx(m.elapsed, rel=1e-6)
        expected = reference_play(sym_2_2, profile, rng(1), 50)
        want = [
            [str(k), str(i), str(j)] + [f"{v:.9g}" for v in (t_init, t_resp, t_init + t_resp + 2.0)]
            for k, (i, j, t_init, t_resp) in enumerate(expected)
        ]
        assert rows[1:] == want
        assert list(tmp_path.iterdir()) == [path]
        # any open text stream takes the bytes that `simulate --trace` writes
        stream = io.StringIO()
        run_simulation(**cfg, trace=stream)
        cli = tmp_path / "cli"
        cli.mkdir()
        (cli / "cfg.json").write_text(json.dumps(scenario_to_dict(sym_2_2)))
        argv = ["simulate", "--config", str(cli / "cfg.json"), "--rounds", "50", "--seeds", "1"]
        assert main([*argv, "--trace", str(cli / "trace.csv"), "--out", str(cli / "out.csv")]) == 0
        assert stream.getvalue().encode() == (cli / "trace.csv").read_bytes() == path.read_bytes()

    def test_rounds_must_be_positive(self, sym_2_2):
        profile = two_file_equilibrium(sym_2_2, alpha=0.5)
        with pytest.raises(ValueError):
            run_simulation(scenario=sym_2_2, profile=profile, rounds=0, seed=1)


def groups_of(sizes, w, g) -> Scenario:
    """Groups of ``sizes`` nodes, needing file 0, 1, ... in turn."""
    return Scenario(files=len(sizes), w=w, g=g, needs=np.repeat(np.arange(len(sizes)), sizes))


class TestBatchMeans:
    """Batch means (Law & Kelton, ch. 9): over 20 fixed seeds of 5000 rounds,
    the mean of each run's estimate lies within 4 standard errors of the
    analytic value, for equal and unequal groups of both games."""

    SEEDS, ROUNDS, BOUND = range(20), 5000, 4.0

    def assert_within(self, estimates, analytic):
        """Each column's mean over seeds is within BOUND standard errors."""
        estimates = np.asarray(estimates)
        se = estimates.std(axis=0, ddof=1) / math.sqrt(len(self.SEEDS))
        assert np.all(np.abs(estimates.mean(axis=0) - analytic) <= self.BOUND * se)

    @pytest.mark.parametrize(
        "s",
        [
            groups_of([10, 10], np.ones(20), np.ones(20)),
            groups_of([12, 8], np.linspace(1.0, 1.15, 20), np.ones(20)),
            groups_of([5, 9], np.linspace(1.1, 1.0, 14), np.linspace(0.9, 1.0, 14)),
        ],
        ids=["10+10", "12+8", "5+9"],
    )
    def test_plain_cost_and_throughput(self, s):
        profile = require_nonnegative(two_file_equilibrium(s, alpha=0.5))
        runs = [run_simulation(s, profile, self.ROUNDS, seed) for seed in self.SEEDS]
        self.assert_within([m.avg_total_cost() for m in runs], node_costs_at_ne(s).avg_cost)
        self.assert_within([m.per_node_throughput() for m in runs], throughput_at_ne(s))

    @pytest.mark.parametrize(
        "sizes", [[10] * 3, [6, 9, 7, 8], [5] * 5, [4, 6, 5, 7, 4, 6], [4] * 7, [3, 4, 5, 3, 4, 5, 3, 4]], ids=str
    )
    def test_coded_throughput(self, sizes):
        s = groups_of(sizes, np.ones(sum(sizes)), np.ones(sum(sizes)))
        profile = require_nonnegative(coded_equilibrium(s))
        runs = [run_simulation(s, profile, self.ROUNDS, seed) for seed in self.SEEDS]
        self.assert_within([m.per_node_throughput() for m in runs], coded_throughput(s))


class TestMetrics:
    def test_avg_cost_formula(self, sym_2_2):
        m = Metrics(sym_2_2)
        m.uploads[0] = 2
        m.elapsed = np.float64(10.0)
        m.rounds = 4
        # (2 uploads * g + 10 time * w) / 4 rounds, a download each
        assert m.avg_total_cost()[0] == pytest.approx((2 * 1.0 + 10.0 * 1.0) / 4)


class TestStallAcrossChunks:
    """Stalls in runs longer than one chunk: StallError, and no trace file."""

    def test_no_initiator(self, tmp_path, sym_2_2):
        profile = dense_profile(gamma=(0.0,) * 4, lam={(0, 1): 1.0, (1, 1): 1.0})
        cfg = dict(scenario=sym_2_2, profile=profile, rounds=10 * CHUNK_DOUBLES, seed=0)
        trace = atomic_open(tmp_path / "trace.csv")
        with pytest.raises(StallError, match="initiate"):
            run_simulation(**cfg, trace=trace)
        trace.close()
        assert list(tmp_path.iterdir()) == []

    def test_no_responder_in_a_later_chunk(self, tmp_path, sym_2_2):
        # nodes 0 and 1 initiate about once in 10^4 rounds, and nobody
        # answers their file: the first such round stalls the run
        profile = dense_profile(gamma=(1e-4, 1e-4, 1.0, 1.0), lam={(0, 1): 1.0, (1, 1): 1.0})
        engine = RoundEngine(sym_2_2, one_seed(profile))
        played = []
        with pytest.raises(StallError, match="file 0"):
            for chunk in engine.run([rng(0)], 10 * CHUNK_DOUBLES):
                played.append(chunk)
        assert played, "the stall should come after at least one whole chunk"
        with pytest.raises(StallError, match="file 0"):
            reference_play(sym_2_2, profile, rng(0), 10 * CHUNK_DOUBLES)
        cfg = dict(scenario=sym_2_2, profile=profile, rounds=10 * CHUNK_DOUBLES, seed=0)
        trace = atomic_open(tmp_path / "trace.csv")
        with pytest.raises(StallError):
            run_simulation(**cfg, trace=trace)
        trace.close()
        assert list(tmp_path.iterdir()) == []


@st.composite
def engine_cases(draw):
    """A scenario with 2-5 files of unequal sizes and a simulable profile:
    random rates (zeros included), an equilibrium, or adaptation rates."""
    files = draw(st.one_of(st.just(2), st.integers(3, 5)))
    sizes = draw(st.lists(st.integers(2, 6), min_size=files, max_size=files))
    needs = draw(st.permutations(np.repeat(np.arange(files), sizes).tolist()))
    kind = draw(st.sampled_from(["random", "equilibrium", "adapt"] if files == 2 else ["random", "equilibrium"]))
    w = 1.0 if kind == "equilibrium" else draw(st.floats(1.0, 1.5))
    s = Scenario(files=files, w=np.full(len(needs), w), g=np.ones(len(needs)), needs=needs)
    rate = st.tuples(st.floats(0.01, 5.0), st.integers(0, 3)).map(lambda r: 0.0 if r[1] == 0 else r[0])
    if kind == "random":
        gamma = tuple(draw(rate) for _ in needs)
        lam = {(n, x): draw(rate) for n in range(len(needs)) for x in range(files) if x != needs[n]}
        profile = dense_profile(gamma=gamma, lam=lam, files=files)
    elif kind == "adapt":
        profile = init_state(s, AdaptConfig(guess_factor=draw(st.floats(1.0, 10.0)))).profile()
    elif files == 2:
        profile = two_file_equilibrium(s, alpha=draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])))
    else:
        try:
            profile = require_nonnegative(coded_equilibrium(s))
        except NoEquilibriumError:
            assume(False)
    return s, profile


ORACLE = settings(derandomize=True, max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestBatchedEngineOracle:
    """RoundEngine.run against round-by-round play, bit for bit."""

    @ORACLE
    @given(case=engine_cases(), seed=st.integers(0, 2**32 - 1), rounds=st.integers(1, 200),
           chunk=st.integers(1, 400))
    def test_matches_round_by_round_play(self, case, seed, rounds, chunk):
        s, profile = case
        engine = RoundEngine(s, one_seed(profile))
        gen, ref = rng(seed), rng(seed)
        try:
            expected = reference_play(s, profile, ref, rounds)
        except StallError:
            with pytest.raises(StallError), small_chunks(chunk):
                list(engine.run([gen], rounds))
            return
        with small_chunks(chunk):
            chunks = list(engine.run([gen], rounds))
        assert_same_rounds(alone(chunks), expected)
        assert gen.random() == ref.random()  # the generator ends where per-round play leaves it
        with small_chunks(chunk):
            m = run_simulation(s, profile, rounds, seed)
        want = reference_metrics(s, expected)
        np.testing.assert_array_equal(m.uploads, want.uploads)
        assert (m.elapsed, m.rounds) == (want.elapsed, want.rounds)

    @ORACLE
    @given(case=engine_cases(), seed=st.integers(0, 2**32 - 1),
           parts=st.lists(st.integers(1, 80), min_size=1, max_size=5), chunk=st.integers(1, 300))
    def test_successive_runs_continue_one_stream(self, case, seed, parts, chunk):
        s, profile = case
        engine = RoundEngine(s, one_seed(profile))
        whole, pieces = rng(seed), rng(seed)
        try:
            with small_chunks(chunk):
                once = list(engine.run([whole], sum(parts)))
        except StallError:
            assume(False)
        with small_chunks(chunk):
            split = [c for k in parts for c in engine.run([pieces], k)]
        for a, b in zip(joined(once), joined(split)):
            assert a.tolist() == b.tolist()
        assert whole.random() == pieces.random()

    @pytest.mark.parametrize("groups", [[12, 8], [10, 10]])
    def test_default_chunks(self, groups):
        # 3000 rounds of about 30 uniforms span several default-size chunks,
        # on the per-round walk (unequal groups) and the fixed stride
        s = two_file([1.0] * groups[0], [1.0] * groups[1])
        profile = two_file_equilibrium(s, alpha=0.5)
        gen, ref = rng(21), rng(21)
        chunks = list(RoundEngine(s, one_seed(profile)).run([gen], 3000))
        assert len(chunks) >= 3
        assert_same_rounds(alone(chunks), reference_play(s, profile, ref, 3000))
        assert gen.random() == ref.random()


@st.composite
def reuse_cases(draw):
    """A scenario with 2-4 files of (often) unequal sizes, and 2-4 profiles
    for it: random rates, about one in four exactly 0, and in some profiles
    every initiator of one file at rate 0, so the uniforms a round uses may
    change from a per-round walk to a fixed stride and back.  The never-read
    entry of a node's own file holds junk."""
    files = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(2, 5), min_size=files, max_size=files))
    needs = np.array(draw(st.permutations(np.repeat(np.arange(files), sizes).tolist())))
    s = Scenario(files=files, w=np.ones(needs.size), g=np.ones(needs.size), needs=needs)
    gen = rng(draw(st.integers(0, 2**32 - 1)))
    profiles = []
    for _ in range(draw(st.integers(2, 4))):
        gamma, lam = (gen.uniform(0.01, 5.0, shape) * (gen.random(shape) < 0.75) for shape in [needs.size, (needs.size, files)])
        gamma[needs == gen.integers(files + 1)] = 0.0  # no file, or one file's initiators
        lam[np.arange(needs.size), needs] = draw(st.sampled_from([0.0, math.nan, -1.0]))
        profiles.append(StrategyProfile(gamma=gamma, lam=lam))
    return s, profiles


def chunk_lists(chunks) -> list:
    """Every column of every chunk, as lists: equal only when bit-identical
    and cut into the same chunks."""
    return [[col.tolist() for col in chunk] for chunk in chunks]


REUSE = settings(derandomize=True, max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestEngineReuse:
    """One engine re-rated through a sequence of profiles plays what a fresh
    RoundEngine per profile plays, on one continuing stream."""

    @REUSE
    @given(case=reuse_cases(), seed=st.integers(0, 2**32 - 1), rounds=st.integers(1, 60),
           chunk=st.integers(1, 300))
    def test_rerated_engine_matches_fresh_engines(self, case, seed, rounds, chunk):
        s, profiles = case
        engine = RoundEngine(s, one_seed(profiles[-1]))
        reused, fresh = rng(seed), rng(seed)
        for profile in map(one_seed, profiles):
            engine.set_profile(profile)
            with small_chunks(chunk):
                try:
                    want = chunk_lists(RoundEngine(s, profile).run([fresh], rounds))
                except StallError:
                    with pytest.raises(StallError):
                        list(engine.run([reused], rounds))
                else:
                    assert chunk_lists(engine.run([reused], rounds)) == want
            assert reused.bit_generator.state == fresh.bit_generator.state

    @REUSE
    @given(case=reuse_cases(), bad=st.sampled_from([-1.0, -5e-324, math.nan, math.inf]), data=st.data())
    def test_swap_rejects_what_the_constructor_rejects(self, case, bad, data):
        s, (good, *_) = case
        gamma, lam = good.gamma.copy(), good.lam.copy()
        n = data.draw(st.integers(0, s.n_nodes - 1))
        if data.draw(st.booleans()):
            gamma[n] = bad
        else:  # a response rate the engine reads: for a file the node holds
            lam[n, data.draw(st.sampled_from([x for x in range(s.files) if x != s.needs[n]]))] = bad
        engine = RoundEngine(s, one_seed(good))
        broken = [(one_seed(StrategyProfile(gamma, lam)), "negative or non-finite rate")]
        broken += [(one_seed(StrategyProfile(*p)), "must have shape") for p in [(gamma[1:], lam), (gamma, lam[:, 1:]), (gamma[:, None], lam)]]
        for profile, message in broken:
            with pytest.raises(ValueError, match=message):
                RoundEngine(s, profile)
            with pytest.raises(ValueError, match=message):
                engine.set_profile(profile)
        # a rejected swap leaves the engine at the rates it had
        try:
            want = chunk_lists(RoundEngine(s, one_seed(good)).run([rng(1)], 30))
        except StallError:
            with pytest.raises(StallError):
                list(engine.run([rng(1)], 30))
        else:
            assert chunk_lists(engine.run([rng(1)], 30)) == want


@st.composite
def batch_cases(draw, fixed: bool):
    """A scenario with 2-4 files, equal in size (so every round reads a
    fixed stride of uniforms) or all of different sizes (so rounds are
    walked), and 1-4 per-seed profiles for it: random rates, about one in
    four exactly 0, in some every initiator of one file at rate 0."""
    files = draw(st.integers(2, 4))
    if fixed:
        sizes = [draw(st.integers(2, 5))] * files
    else:
        sizes = draw(st.lists(st.integers(2, 5), min_size=files, max_size=files, unique=True))
    needs = np.array(draw(st.permutations(np.repeat(np.arange(files), sizes).tolist())))
    s = Scenario(files=files, w=np.ones(needs.size), g=np.ones(needs.size), needs=needs)
    gen = rng(draw(st.integers(0, 2**32 - 1)))
    profiles = []
    for _ in range(draw(st.integers(1, 4))):
        gamma, lam = (gen.uniform(0.01, 5.0, shape) * (gen.random(shape) < 0.75) for shape in [needs.size, (needs.size, files)])
        if draw(st.booleans()):
            gamma[needs == gen.integers(files)] = 0.0
        profiles.append(StrategyProfile(gamma=gamma, lam=lam))
    return s, profiles


class TestSeedBatch:
    """Seeds played side by side on one engine, each from its own generator,
    play what each seed plays alone."""

    @REUSE
    @given(data=st.data(), fixed=st.booleans(), rounds=st.integers(1, 60), chunk=st.integers(1, 300))
    def test_batch_matches_seeds_alone(self, data, fixed, rounds, chunk):
        s, profiles = data.draw(batch_cases(fixed))
        seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=len(profiles), max_size=len(profiles)))
        batch = StrategyProfile(np.stack([p.gamma for p in profiles]), np.stack([p.lam for p in profiles]))
        engine = RoundEngine(s, batch)
        assume((engine.fixed_step > 0) == fixed or engine.initiators.size == 0)
        gens = [rng(seed) for seed in seeds]
        if not fixed and len(seeds) > 1:  # walked rounds: the walk plays one seed
            silent_seed = (batch.gamma == 0).all(axis=1).any()
            with pytest.raises(StallError if silent_seed else ValueError):
                list(engine.run(gens, rounds))
            return
        played = []  # each seed alone
        with small_chunks(chunk):
            for profile, seed in zip(profiles, seeds):
                try:
                    gen = rng(seed)
                    played.append((list(RoundEngine(s, one_seed(profile)).run([gen], rounds)), gen))
                except StallError:
                    played.append(None)
            if None in played:
                with pytest.raises(StallError):  # a seed stalls alone
                    list(engine.run(gens, rounds))
                return
            got = list(engine.run(gens, rounds))
        for row, (chunks, gen) in enumerate(played):
            want = alone(chunks)
            assert chunk_lengths(got) == chunk_lengths(chunks)  # the same rng.random calls
            assert [col[row].tolist() for col in joined(got)] == [col.tolist() for col in want]
            assert gens[row].bit_generator.state == gen.bit_generator.state

    def test_batch_chunks_as_its_seeds_do(self):
        # an adaptive epoch of fig2's groups: only the needers of file 1 initiate
        s = two_file([1.0] * 10, [1.0] * 10)
        good = two_file_equilibrium(s, alpha=0.5)
        gamma = np.where(s.needs == 1, good.gamma, 0.0)
        batch = StrategyProfile(np.stack([gamma] * 40), np.stack([good.lam] * 40))
        gens = [rng(seed) for seed in range(40)]
        got = list(RoundEngine(s, batch).run(gens, 100))
        for seed in (0, 39):
            gen = rng(seed)
            chunks = list(RoundEngine(s, StrategyProfile(gamma[None], good.lam[None])).run([gen], 100))
            assert chunk_lengths(got) == chunk_lengths(chunks) == [100]
            assert [col[seed].tolist() for col in joined(got)] == [col.tolist() for col in alone(chunks)]
            assert gens[seed].bit_generator.state == gen.bit_generator.state

    def test_walked_batch_is_refused_after_the_stall_check(self):
        # unequal groups: each round's uniforms start where the previous
        # initiator's file left them, so the rounds are walked, one seed at a time
        s = two_file([1.0] * 3, [1.0] * 5)
        good = two_file_equilibrium(s, alpha=0.5)
        gamma, lam = np.stack([good.gamma] * 2), np.stack([good.lam] * 2)
        engine = RoundEngine(s, StrategyProfile(gamma, lam))
        assert engine.fixed_step == 0
        gens = [rng(0), rng(1)]
        with pytest.raises(ValueError, match="fixed stride"):
            list(engine.run(gens, 10))
        assert [g.bit_generator.state for g in gens] == [rng(0).bit_generator.state, rng(1).bit_generator.state]
        # a seed in which no node can initiate, or every seed, is still the stall
        for silent in ([1], [0, 1]):
            gamma[silent] = 0.0
            engine.set_profile(StrategyProfile(gamma, lam))
            with pytest.raises(StallError, match="initiate"):
                list(engine.run(gens, 10))

    def test_batch_rejects_a_bad_row(self, sym_2_2):
        good = two_file_equilibrium(sym_2_2, alpha=0.5)
        gamma, lam = np.stack([good.gamma] * 3), np.stack([good.lam] * 3)
        gamma[1, 2] = -1.0
        with pytest.raises(ValueError, match="negative or non-finite rate"):
            RoundEngine(sym_2_2, StrategyProfile(gamma, lam))
        # no seed, and a profile without the seed axis
        for profile in [StrategyProfile(gamma[:0], lam[:0]), good]:
            with pytest.raises(ValueError, match=r"shape \(seeds, nodes\)"):
                RoundEngine(sym_2_2, profile)


class TestGoldenPrefix:
    """Frozen first rounds of the documented RNG stream on the symmetric
    10+10 scenario (seed 2024), regenerate only with an intentional RNG
    contract change."""

    EXPECTED = [
        # (initiator, responder, t_init, t_resp)
        (14, 9, 0.0835270797, 0.661673679),
        (19, 8, 0.434913297, 2.03002851),
        (11, 8, 0.139694338, 0.9538567),
        (16, 0, 0.356652346, 1.2353729),
    ]

    def test_prefix(self, sym_10_10):
        profile = two_file_equilibrium(sym_10_10, alpha=0.5)
        out = play(sym_10_10, profile, 4, seed=2024)
        got = list(zip(out.initiator.tolist(), out.responder.tolist(), out.t_init.tolist(), out.t_resp.tolist()))
        for (ei, er, eti, etr), (gi, gr, gti, gtr) in zip(self.EXPECTED, got):
            assert (ei, er) == (gi, gr)
            assert gti == pytest.approx(eti, rel=1e-8)
            assert gtr == pytest.approx(etr, rel=1e-8)


# Costs near w = g: every two-file game of up to 7 nodes a group has a
# nonnegative equilibrium, and about half of the coded games do.
NEAR_EQUAL = st.floats(1.0, 1.1)


class TestEveryRoundServesEveryNode:
    """The premise of counting ``rounds`` as every node's downloads: in every
    round the responder needs another file than the initiator.  So in a
    two-file game the two packets reach both groups, and in a coded game the
    responder holds the announced file and its packet, coded with the
    initiator's, lets every other node decode one."""

    @pytest.mark.parametrize(
        "scenarios",
        [
            shuffled_scenarios(st.just(2), cost=NEAR_EQUAL).filter(lambda s: len(set(s.group_sizes().tolist())) == 1),
            shuffled_scenarios(st.just(2), unequal=True, cost=NEAR_EQUAL),
            shuffled_scenarios(st.integers(3, 8), cost=NEAR_EQUAL),
        ],
        ids=["two-file-equal", "two-file-unequal", "coded-3-8"],
    )
    @settings(derandomize=True, max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_responder_needs_another_file(self, scenarios, data, seed):
        s = data.draw(scenarios)
        try:
            if s.files == 2:
                profile = require_nonnegative(two_file_equilibrium(s, alpha=data.draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))))
            else:
                profile = require_nonnegative(coded_equilibrium(s))
        except NoEquilibriumError:
            assume(False)
        out = play(s, profile, 500, seed)
        assert (s.needs[out.responder] != s.needs[out.initiator]).all()
