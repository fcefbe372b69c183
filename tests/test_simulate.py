from __future__ import annotations

import csv
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bxsim import simulate
from bxsim.adapt import AdaptConfig, init_state
from bxsim.equilibrium import (
    coded_equilibrium,
    coded_throughput,
    ne_round_duration,
    node_costs_at_ne,
    throughput_at_ne,
    two_file_equilibrium,
)
from bxsim.errors import NegativeRateError, StallError
from bxsim.model import CostParams, Metrics, Node, Scenario, StrategyProfile
from bxsim.simulate import CHUNK_DOUBLES, RoundEngine, Rounds, SimConfig, run_simulation

from conftest import dense_profile, reference_play, symmetric, two_file


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def joined(chunks) -> Rounds:
    """Chunks of an engine run as one Rounds."""
    return Rounds(*map(np.concatenate, zip(*chunks)))


def play(s, profile, rounds, seed=0, coded=False) -> Rounds:
    """Every round of one engine run."""
    return joined(RoundEngine(s, profile, coded).run(rng(seed), rounds))


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


def reference_metrics(s, rows, coded) -> Metrics:
    """Per-round accounting of reference_play rows, as the engine once did it."""
    m = Metrics(s)
    for i0, j0, t_init, t_resp in rows:
        if coded:
            m.downloads += 1
        else:
            m.downloads += (s.needs == s.needs[i0]).astype(np.int64) + (s.needs == s.needs[j0])
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
        with pytest.raises(NegativeRateError):
            RoundEngine(sym_2_2, dense_profile(gamma=(1.0, -1.0, 1.0, 1.0), lam=lam), coded=False)
        with pytest.raises(NegativeRateError):
            RoundEngine(sym_2_2, dense_profile(gamma=(1.0,) * 4, lam={**lam, (3, 0): -0.5}), coded=False)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_rate(self, sym_2_2, bad):
        lam = {(0, 1): 1.0, (1, 1): 1.0, (2, 0): 1.0, (3, 0): 1.0}
        with pytest.raises(NegativeRateError):
            RoundEngine(sym_2_2, dense_profile(gamma=(1.0, bad, 1.0, 1.0), lam=lam), coded=False)
        with pytest.raises(NegativeRateError):
            RoundEngine(sym_2_2, dense_profile(gamma=(1.0,) * 4, lam={**lam, (2, 0): bad}), coded=False)

    def test_zero_rate_consumes_one_uniform(self, sym_2_2):
        # 4 initiation + 2 response uniforms per round, zero rates included
        profile = dense_profile(gamma=(0.0, 1.0, 0.0, 1.0), lam={(0, 1): 1.0, (2, 0): 1.0})
        gen = rng(5)
        list(RoundEngine(sym_2_2, profile, coded=False).run(gen, 1000))
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
        (out,) = RoundEngine(s, profile, coded=False).run(stub, 3)
        assert out.initiator.tolist() == [1, 1, 1]
        assert out.responder.tolist() == [groups[0]] * 3

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
            out = joined(RoundEngine(s, profile, coded=False).run(got, 500))
        assert_same_rounds(out, reference_play(s, profile, want, 500))
        assert got.state == want.state

    def test_vector_matches_scalar_stream(self, sym_2_2):
        profile = dense_profile(gamma=(0.0, 2.0, 1.5, 0.5), lam={(0, 1): 1.0, (1, 1): 0.5, (3, 0): 2.0})
        assert_same_rounds(play(sym_2_2, profile, 300, seed=3), reference_play(sym_2_2, profile, rng(3), 300))


class TestRunRound:
    """Single rounds: RoundEngine.run(rng, 1)."""

    def test_only_positive_rate_initiates(self, sym_10_10):
        profile = two_file_equilibrium(sym_10_10, alpha=0.5).profile
        gamma = [0.0] * 20
        gamma[13] = 1.0
        lopsided = StrategyProfile(gamma=np.array(gamma), lam=profile.lam)
        for seed in range(5):
            assert play(sym_10_10, lopsided, 1, seed=seed).initiator[0] == 13

    def test_responder_possesses_needed_file(self, sym_10_10):
        profile = two_file_equilibrium(sym_10_10, alpha=0.5).profile
        for seed in range(10):
            out = play(sym_10_10, profile, 1, seed=seed)
            needed = sym_10_10.nodes[out.initiator[0]].needs
            assert sym_10_10.nodes[out.responder[0]].needs != needed
            assert out.initiator[0] != out.responder[0]

    def test_round_accounting(self, sym_10_10):
        profile = two_file_equilibrium(sym_10_10, alpha=0.5).profile
        engine = RoundEngine(sym_10_10, profile, coded=False)
        for seed in range(10):
            (out,) = engine.run(rng(seed), 1)
            m = Metrics(sym_10_10)
            engine.account(m, out)
            assert m.uploads.sum() == 2
            assert m.elapsed >= 2.0
            assert m.elapsed == out.t_init[0] + out.t_resp[0] + 2.0 == out.duration[0]
            # two-file plain mode: everyone downloads each round
            assert (m.downloads == 1).all()

    def test_coded_everyone_downloads(self):
        s = symmetric(3, 10)
        engine = RoundEngine(s, coded_equilibrium(s).profile, coded=True)
        m = Metrics(s)
        engine.account(m, next(engine.run(rng(1), 1)))
        assert (m.downloads == 1).all()
        assert m.uploads.sum() == 2

    def test_plain_multifile_downloads_two_groups(self):
        s = symmetric(3, 10)
        profile = coded_equilibrium(s).profile  # rates reused for a plain run
        engine = RoundEngine(s, profile, coded=False)
        out = next(engine.run(rng(1), 1))
        m = Metrics(s)
        engine.account(m, out)
        x = s.nodes[out.initiator[0]].needs
        y = s.nodes[out.responder[0]].needs
        expect = np.array([1 if nd.needs in (x, y) else 0 for nd in s.nodes])
        np.testing.assert_array_equal(m.downloads, expect)

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
        profile = two_file_equilibrium(sym_10_10, alpha=0.5).profile
        out = play(sym_10_10, profile, 20000, seed=5)
        assert out.duration.sum() / 20000 == pytest.approx(ne_round_duration(sym_10_10).total, rel=0.02)


class TestRunSimulation:
    def test_determinism(self, sym_10_10):
        profile = two_file_equilibrium(sym_10_10, alpha=0.5).profile
        cfg = SimConfig(scenario=sym_10_10, profile=profile, rounds=2000, seed=11)
        m1, m2 = run_simulation(cfg), run_simulation(cfg)
        assert m1.elapsed == m2.elapsed
        np.testing.assert_array_equal(m1.downloads, m2.downloads)
        np.testing.assert_array_equal(m1.uploads, m2.uploads)

    def test_two_file_completeness(self, sym_10_10):
        profile = two_file_equilibrium(sym_10_10, alpha=0.5).profile
        cfg = SimConfig(scenario=sym_10_10, profile=profile, rounds=500, seed=2)
        m = run_simulation(cfg)
        assert (m.downloads == 500).all()
        assert m.uploads.sum() == 2 * 500

    def test_matches_run_round_accumulation(self, sym_10_10):
        profile = two_file_equilibrium(sym_10_10, alpha=0.5).profile
        cfg = SimConfig(scenario=sym_10_10, profile=profile, rounds=300, seed=9)
        m = run_simulation(cfg)
        ref = reference_metrics(sym_10_10, reference_play(sym_10_10, profile, rng(9), 300), coded=False)
        np.testing.assert_array_equal(m.downloads, ref.downloads)
        np.testing.assert_array_equal(m.uploads, ref.uploads)
        assert m.elapsed == pytest.approx(ref.elapsed, abs=1e-9)
        for n in range(20):
            assert m.avg_total_cost(n) == pytest.approx(ref.avg_total_cost(n), abs=1e-12)

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
        profile = two_file_equilibrium(sym_10_10, alpha=0.5).profile
        rounds = 50_000
        total_init = play(sym_10_10, profile, rounds, seed=6).t_init.sum()
        total_rate = sum(profile.gamma)
        assert total_init / rounds == pytest.approx(1 / total_rate, rel=0.02)

    def test_throughput_and_cost_oracles(self, sym_10_10):
        profile = two_file_equilibrium(sym_10_10, alpha=0.5).profile
        cfg = SimConfig(scenario=sym_10_10, profile=profile, rounds=30_000, seed=12)
        m = run_simulation(cfg)
        assert m.per_node_throughput() == pytest.approx(throughput_at_ne(sym_10_10), rel=0.02)
        expected = node_costs_at_ne(sym_10_10).avg_cost[0]
        for n in range(20):
            assert m.avg_total_cost(n) == pytest.approx(expected, rel=0.02)

    def test_coded_throughput_oracle(self):
        s = symmetric(3, 10)
        profile = coded_equilibrium(s).profile
        cfg = SimConfig(scenario=s, profile=profile, rounds=30_000, seed=13, coded=True)
        m = run_simulation(cfg)
        assert m.per_node_throughput() == pytest.approx(coded_throughput(s), rel=0.02)

    def test_deterministic_bounds(self, sym_10_10):
        # duration >= 2 per round makes these hard bounds, not limits
        profile = two_file_equilibrium(sym_10_10, alpha=0.5).profile
        m = run_simulation(SimConfig(scenario=sym_10_10, profile=profile, rounds=1000, seed=3))
        assert m.per_node_throughput() <= 0.5
        assert all(m.avg_total_cost(n) >= 2 * sym_10_10.w[n] for n in range(20))

    def test_trace_csv(self, tmp_path, sym_2_2):
        profile = two_file_equilibrium(sym_2_2, alpha=0.5).profile
        cfg = SimConfig(scenario=sym_2_2, profile=profile, rounds=50, seed=1)
        path = tmp_path / "trace.csv"
        m = run_simulation(cfg, trace_path=path)
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

    def test_rounds_must_be_positive(self, sym_2_2):
        profile = two_file_equilibrium(sym_2_2, alpha=0.5).profile
        with pytest.raises(ValueError):
            run_simulation(SimConfig(scenario=sym_2_2, profile=profile, rounds=0, seed=1))


class TestStallAcrossChunks:
    """Stalls in runs longer than one chunk: StallError, and no trace file."""

    def test_no_initiator(self, tmp_path, sym_2_2):
        profile = dense_profile(gamma=(0.0,) * 4, lam={(0, 1): 1.0, (1, 1): 1.0})
        cfg = SimConfig(scenario=sym_2_2, profile=profile, rounds=10 * CHUNK_DOUBLES, seed=0)
        with pytest.raises(StallError, match="initiate"):
            run_simulation(cfg, trace_path=tmp_path / "trace.csv")
        assert list(tmp_path.iterdir()) == []

    def test_no_responder_in_a_later_chunk(self, tmp_path, sym_2_2):
        # nodes 0 and 1 initiate about once in 10^4 rounds, and nobody
        # answers their file: the first such round stalls the run
        profile = dense_profile(gamma=(1e-4, 1e-4, 1.0, 1.0), lam={(0, 1): 1.0, (1, 1): 1.0})
        engine = RoundEngine(sym_2_2, profile, coded=False)
        played = []
        with pytest.raises(StallError, match="file 0"):
            for chunk in engine.run(rng(0), 10 * CHUNK_DOUBLES):
                played.append(chunk)
        assert played, "the stall should come after at least one whole chunk"
        with pytest.raises(StallError, match="file 0"):
            reference_play(sym_2_2, profile, rng(0), 10 * CHUNK_DOUBLES)
        cfg = SimConfig(scenario=sym_2_2, profile=profile, rounds=10 * CHUNK_DOUBLES, seed=0)
        with pytest.raises(StallError):
            run_simulation(cfg, trace_path=tmp_path / "trace.csv")
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
    s = Scenario(files=files, nodes=tuple(Node(CostParams(w=w, g=1.0), needs=int(x)) for x in needs))
    rate = st.tuples(st.floats(0.01, 5.0), st.integers(0, 3)).map(lambda r: 0.0 if r[1] == 0 else r[0])
    if kind == "random":
        gamma = tuple(draw(rate) for _ in needs)
        lam = {(n, x): draw(rate) for n in range(len(needs)) for x in range(files) if x != needs[n]}
        profile = dense_profile(gamma=gamma, lam=lam, files=files)
    elif kind == "adapt":
        profile = init_state(s, AdaptConfig(guess_factor=draw(st.floats(1.0, 10.0)))).profile(s)
    elif files == 2:
        profile = two_file_equilibrium(s, alpha=draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))).profile
    else:
        try:
            profile = coded_equilibrium(s).profile
        except NegativeRateError:
            assume(False)
    return s, profile, draw(st.booleans())


ORACLE = settings(derandomize=True, max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestBatchedEngineOracle:
    """RoundEngine.run against round-by-round play, bit for bit."""

    @ORACLE
    @given(case=engine_cases(), seed=st.integers(0, 2**32 - 1), rounds=st.integers(1, 200),
           chunk=st.integers(1, 400))
    def test_matches_round_by_round_play(self, case, seed, rounds, chunk):
        s, profile, coded = case
        engine = RoundEngine(s, profile, coded)
        gen, ref = rng(seed), rng(seed)
        try:
            expected = reference_play(s, profile, ref, rounds)
        except StallError:
            with pytest.raises(StallError), small_chunks(chunk):
                list(engine.run(gen, rounds))
            return
        with small_chunks(chunk):
            chunks = list(engine.run(gen, rounds))
        assert_same_rounds(joined(chunks), expected)
        assert gen.random() == ref.random()  # the generator ends where per-round play leaves it
        m = Metrics(s)
        for c in chunks:
            engine.account(m, c)
        want = reference_metrics(s, expected, coded)
        np.testing.assert_array_equal(m.downloads, want.downloads)
        np.testing.assert_array_equal(m.uploads, want.uploads)
        assert (m.elapsed, m.rounds) == (want.elapsed, want.rounds)

    @ORACLE
    @given(case=engine_cases(), seed=st.integers(0, 2**32 - 1),
           parts=st.lists(st.integers(1, 80), min_size=1, max_size=5), chunk=st.integers(1, 300))
    def test_successive_runs_continue_one_stream(self, case, seed, parts, chunk):
        s, profile, coded = case
        engine = RoundEngine(s, profile, coded)
        whole, pieces = rng(seed), rng(seed)
        try:
            with small_chunks(chunk):
                once = list(engine.run(whole, sum(parts)))
        except StallError:
            assume(False)
        with small_chunks(chunk):
            split = [c for k in parts for c in engine.run(pieces, k)]
        for a, b in zip(joined(once), joined(split)):
            assert a.tolist() == b.tolist()
        assert whole.random() == pieces.random()

    @pytest.mark.parametrize("groups", [[12, 8], [10, 10]])
    def test_default_chunks(self, groups):
        # 3000 rounds of about 30 uniforms span several default-size chunks,
        # on the per-round walk (unequal groups) and the fixed stride
        s = two_file([1.0] * groups[0], [1.0] * groups[1])
        profile = two_file_equilibrium(s, alpha=0.5).profile
        gen, ref = rng(21), rng(21)
        chunks = list(RoundEngine(s, profile, coded=False).run(gen, 3000))
        assert len(chunks) >= 3
        assert_same_rounds(joined(chunks), reference_play(s, profile, ref, 3000))
        assert gen.random() == ref.random()


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
        profile = two_file_equilibrium(sym_10_10, alpha=0.5).profile
        out = play(sym_10_10, profile, 4, seed=2024)
        got = list(zip(out.initiator.tolist(), out.responder.tolist(), out.t_init.tolist(), out.t_resp.tolist()))
        for (ei, er, eti, etr), (gi, gr, gti, gtr) in zip(self.EXPECTED, got):
            assert (ei, er) == (gi, gr)
            assert gti == pytest.approx(eti, rel=1e-8)
            assert gtr == pytest.approx(etr, rel=1e-8)
