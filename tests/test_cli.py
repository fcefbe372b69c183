from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout, suppress
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import bxsim
import bxsim.cli
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bxsim import adapt, equilibrium, simulate
from bxsim.cli import adapt_config, build_parser, dump_scenarios, gen_groups, gen_rng, main, parse_list, write_csv
from bxsim.equilibrium import coded_throughput
from bxsim.model import Scenario, atomic_open

from conftest import SINGULAR_CODED_ROWS, scenario_to_dict, symmetric, two_file


def write_config(tmp_path, scenario, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(scenario_to_dict(scenario)))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_parse_seeds():
    assert parse_list("0,5,3", "seed") == [0, 5, 3]
    assert parse_list("0-3", "seed") == [0, 1, 2, 3]
    assert parse_list("7", "seed") == [7]
    with pytest.raises(ValueError, match="^seed -2 is negative; seeds are nonnegative integers$"):
        parse_list("-2", "seed")
    with pytest.raises(ValueError, match="^seed -3 is negative"):  # a range from a negative seed
        parse_list("0,-3-5", "seed")


def test_parse_file_counts():
    # the grammar of --seeds, with its messages naming file counts
    assert parse_list("3-5,8", "file count") == [3, 4, 5, 8]
    with pytest.raises(ValueError, match="^file count -3 is negative; file counts are nonnegative integers$"):
        parse_list("-3", "file count")
    with pytest.raises(ValueError, match="^empty file count range 5-3$"):
        parse_list("5-3", "file count")
    with pytest.raises(ValueError, match="^file count list 3-5,4 names a file count twice$"):
        parse_list("3-5,4", "file count")


class TestNe:
    def test_two_file_symmetric(self, tmp_path):
        cfg = write_config(tmp_path, symmetric(2, 10))
        out = tmp_path / "ne.csv"
        assert main(["ne", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["kind", "node", "context", "w", "g", "needs", "value"]
        gammas = [r for r in rows[1:] if r[0] == "gamma"]
        lambdas = [r for r in rows[1:] if r[0] == "lambda"]
        assert len(gammas) == 20 and len(lambdas) == 20
        assert all(float(r[6]) == pytest.approx(0.5 / 9) for r in gammas)
        assert all(float(r[6]) == pytest.approx(1 / 9) for r in lambdas)

    def test_coded(self, tmp_path):
        cfg = write_config(tmp_path, symmetric(3, 10))
        out = tmp_path / "ne.csv"
        assert main(["ne", "--config", cfg, "--coded", "--out", str(out)]) == 0
        rows = read_csv(out)
        big = [r for r in rows if r[0] == "Gamma"]
        assert len(big) == 3
        assert all(float(r[6]) == pytest.approx(0.357142857, abs=1e-9) for r in big)
        flags = [r for r in rows if r[0] == "degenerate"]
        assert flags[0][6] == "0"

    def test_coded_two_file_sets_degenerate(self, tmp_path):
        cfg = write_config(tmp_path, symmetric(2, 10))
        out = tmp_path / "ne.csv"
        assert main(["ne", "--config", cfg, "--coded", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [r for r in rows if r[0] == "degenerate"][0][6] == "1"

    def test_malformed_config(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{\"files\": 2}")
        assert main(["ne", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        assert "invalid scenario" in capsys.readouterr().err

    def test_invalid_scenario_lists_violations(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"  # two_file([1.0], [1.0]), which cannot be built
        cfg.write_text(json.dumps({"files": 2, "nodes": [{"w": 1.0, "g": 1.0, "needs": x} for x in (0, 1)]}))
        assert main(["ne", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "GROUP_TOO_SMALL" in err

    @pytest.mark.parametrize("command", [["ne"], ["poa"], ["simulate", "--rounds", "100"]])
    @pytest.mark.parametrize("field,value", [("w", float("inf")), ("g", float("inf")), ("w", float("nan"))])
    def test_non_finite_cost_exits_2(self, tmp_path, capsys, command, field, value):
        # json reads Infinity and NaN; validation must reject them by name
        data = scenario_to_dict(symmetric(2, 3))
        data["nodes"][4][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "x.csv"
        assert main([command[0], "--config", str(path), *command[1:], "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "NONFINITE_COST" in err and "node 4" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["ne"], ["poa"], ["simulate", "--rounds", "100"]])
    def test_overflowing_cost_ratio_exits_2(self, tmp_path, capsys, command):
        # w and g are finite and positive, but w/g overflows to inf
        data = scenario_to_dict(symmetric(2, 3))
        data["nodes"][4]["g"] = 1e-320
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "x.csv"
        assert main([command[0], "--config", str(path), *command[1:], "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "NONFINITE_COST" in err and "node 4" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["ne"], ["poa"], ["simulate", "--rounds", "100"]])
    def test_overflowing_response_duration_exits_2(self, tmp_path, capsys, command):
        # every w/g is finite, but group 0's (2 - 1) / sum(w/g) overflows
        data = scenario_to_dict(symmetric(2, 2))
        for node in data["nodes"][:2]:
            node["w"] = 1e-320
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "x.csv"
        assert main([command[0], "--config", str(path), *command[1:], "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "NONFINITE_COST" in err and "need file 0" in err and "Traceback" not in err
        assert not out.exists()

    def test_more_files_than_nodes_exits_2(self, tmp_path, capsys):
        data = {**scenario_to_dict(symmetric(2, 2)), "files": 10**9}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "x.csv"
        assert main(["ne", "--config", str(path), "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0] == "invalid scenario:" and len(lines) == 2
        assert "GROUP_TOO_SMALL" in lines[1] and "1000000000" in lines[1] and "4" in lines[1]
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [("needs", 0.7), ("w", True)])
    def test_coerced_field_exits_2(self, tmp_path, capsys, field, value):
        data = scenario_to_dict(symmetric(2, 3))
        data["nodes"][4][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "x.csv"
        assert main(["ne", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "BAD_CONFIG" in err and "node 4" in err and "Traceback" not in err
        assert not out.exists()

    def test_nonexistent_equilibrium_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, two_file([1.0, 1.0, 5.0], [1.0, 1.0]))
        assert main(["ne", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
        assert "equilibrium" in capsys.readouterr().err

    @pytest.mark.parametrize("w", [1e-308, 1.0, 2.5e307])
    def test_coded_solve_is_scale_free(self, tmp_path, w):
        # three groups of two at g = 1 solve to Gamma = w/2 at every scale of w
        cfg = write_config(tmp_path, symmetric(3, 2, w=w))
        out = tmp_path / "ne.csv"
        assert main(["ne", "--coded", "--config", cfg, "--out", str(out)]) == 0
        big = [float(r[6]) for r in read_csv(out) if r[0] == "Gamma"]
        assert big == pytest.approx([w / 2] * 3, rel=1e-9, abs=0)

    @pytest.mark.parametrize("c,d", SINGULAR_CODED_ROWS)
    def test_singular_coded_system_exits_3(self, tmp_path, capsys, monkeypatch, c, d):
        monkeypatch.setattr(bxsim.equilibrium, "coded_system", lambda s: (np.array(c), np.array(d)))
        cfg = write_config(tmp_path, symmetric(3, 4))
        assert main(["ne", "--coded", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert "singular" in err and "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["scenario.json"]  # no output, and no .partial file


class TestPoa:
    def test_symmetric(self, tmp_path):
        cfg = write_config(tmp_path, symmetric(2, 10))
        out = tmp_path / "poa.csv"
        assert main(["poa", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        system = [r for r in rows if r[0] == "system"][0]
        assert float(system[7]) == pytest.approx(1.9)
        node_rows = [r for r in rows if r[0] == "node"]
        assert len(node_rows) == 20
        assert all(float(r[7]) == pytest.approx(1.95) for r in node_rows)


# Nodes 0 and 1 need file 1; nodes 2, 3 and 4 need file 0, and node 4's
# w/g = 5 is more than the sum of the other two ratios of its group, so its
# closed-form response rate (1 + 1 + 5) / 2 - 5 = -1.5 is negative.
NO_EQUILIBRIUM = Scenario(files=2, w=[1.0, 1.0, 1.0, 1.0, 5.0], g=[1.0] * 5, needs=[1, 1, 0, 0, 0])


class TestNoEquilibrium:
    """A config with no nonnegative equilibrium exits 3 from every command
    that plays or prints one, naming the nodes by id, and writes nothing."""

    @pytest.mark.parametrize("command", ["ne", "ne --coded", "simulate --rounds 10", "simulate --coded --rounds 10"])
    def test_message_names_node_ids(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, NO_EQUILIBRIUM)
        assert main([*command.split(), "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert err == "equilibrium does not exist: nodes [4] get negative rates; no nonnegative equilibrium exists\n"
        assert sorted(os.listdir(tmp_path)) == ["scenario.json"]

    @pytest.mark.parametrize("group", [0, 1])
    def test_silent_group_at_boundary_alpha(self, tmp_path, capsys, group):
        # Only `group` has a negative closed form, and at alpha = group it never
        # initiates: its gamma is 0 * -1.5 = -0.0, so only its lam column
        # carries the sign.  The strict solvers raised here all the same.
        ratios = [[1.0, 1.0], [1.0, 1.0]]
        ratios[group] = [1.0, 1.0, 5.0]
        s = two_file(*ratios)
        node = 2 + 2 * group
        profile = equilibrium.two_file_equilibrium(s, alpha=float(group))
        assert math.copysign(1.0, profile.gamma[node]) == -1.0 and profile.gamma[node] == 0.0
        assert profile.lam[node, 1 - group] == -1.5
        cfg = write_config(tmp_path, s)
        assert main(["ne", "--alpha", str(group), "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
        assert f"nodes [{node}]" in capsys.readouterr().err


class TestNegativeSeed:
    """A negative seed exits 2 where it is read, naming it, before any
    solve, and writes nothing."""

    @pytest.mark.parametrize(
        "argv,seed",
        [
            ("simulate --config CFG --seeds=-3", -3),
            ("adapt --config CFG --seeds 2,-1", -1),
            ("fig2 --seeds=-4-2", -4),
            ("fig3 --seed -1", -1),
        ],
    )
    def test_argument(self, tmp_path, capsys, argv, seed):
        cfg = write_config(tmp_path, symmetric(2, 4))
        argv = [cfg if a == "CFG" else a for a in argv.split()]
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"invalid arguments: seed {seed} is negative; seeds are nonnegative integers\n"
        assert sorted(os.listdir(tmp_path)) == ["scenario.json"]

    def test_argument_before_the_solve(self, tmp_path, capsys):
        # the config has no equilibrium: the seed is named, not the solve's failure
        cfg = write_config(tmp_path, NO_EQUILIBRIUM)
        assert main(["simulate", "--config", cfg, "--seeds=-3", "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == "invalid arguments: seed -3 is negative; seeds are nonnegative integers\n"
        assert sorted(os.listdir(tmp_path)) == ["scenario.json"]

    def test_trace_before_the_solve(self, tmp_path, capsys):
        # the seed list alone refuses a trace, whether or not the config has an equilibrium
        cfg = write_config(tmp_path, NO_EQUILIBRIUM)
        argv = ["simulate", "--config", cfg, "--seeds", "0,1", "--trace", str(tmp_path / "t.csv")]
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == "invalid arguments: --trace requires a single seed\n"
        assert sorted(os.listdir(tmp_path)) == ["scenario.json"]

    @pytest.mark.parametrize("argv", ["simulate --config CFG --rounds 0", "fig3 --w-hi 3 --rounds -1"])
    def test_rounds_before_the_solve(self, tmp_path, capsys, argv):
        # neither game has an equilibrium: the rounds are named, not the solve's failure
        cfg = write_config(tmp_path, NO_EQUILIBRIUM)
        argv = [cfg if a == "CFG" else a for a in argv.split()]
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == "invalid arguments: rounds must be >= 1\n"
        assert sorted(os.listdir(tmp_path)) == ["scenario.json"]

    def test_file_count(self, tmp_path, capsys):
        assert main(["fig3", "--files=-3", "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err == "invalid arguments: file count -3 is negative; file counts are nonnegative integers\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["simulate --rounds 10", "adapt --updates 1"])
    def test_config(self, tmp_path, capsys, command):
        # a config holds no seed; it has no equilibrium either: the seed key is reported first
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({**scenario_to_dict(NO_EQUILIBRIUM), "seed": -1}))
        assert main([*command.split(), "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err == f"invalid scenario:\n  {stray_key_line('seed')}\n"
        assert sorted(os.listdir(tmp_path)) == ["scenario.json"]


def stray_key_line(key: str) -> str:
    return f"BAD_CONFIG: malformed scenario config: config has {key!r}; it holds only 'files' and 'nodes' (seeds are given with --seeds)"


class TestConfigHoldsTheGame:
    """A config holds the game, ``files`` and ``nodes``; a run's seeds are
    given with --seeds, which defaults to 0."""

    @pytest.mark.parametrize("key,value", [("seed", 7), ("sede", 3)])
    @pytest.mark.parametrize("command", ["ne", "poa", "simulate --rounds 10", "adapt --updates 1"])
    def test_any_other_key_exits_2(self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({**scenario_to_dict(symmetric(2, 4)), key: value}))
        assert main([*command.split(), "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"invalid scenario:\n  {stray_key_line(key)}\n"
        assert sorted(os.listdir(tmp_path)) == ["scenario.json"]

    @pytest.mark.parametrize("command", ["simulate --rounds 200", "adapt --updates 2"])
    def test_seeds_default_to_0(self, tmp_path, command):
        cfg = write_config(tmp_path, symmetric(2, 4))
        default, zero = tmp_path / "default.csv", tmp_path / "zero.csv"
        assert main([*command.split(), "--config", cfg, "--out", str(default)]) == 0
        assert main([*command.split(), "--config", cfg, "--seeds", "0", "--out", str(zero)]) == 0
        assert default.read_bytes() == zero.read_bytes()


class TestSimulate:
    def test_metrics_csv(self, tmp_path):
        cfg = write_config(tmp_path, symmetric(2, 4))
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", cfg, "--rounds", "500", "--seeds", "3", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0][:4] == ["seed", "kind", "node", "w"]
        node_rows = [r for r in rows if r[1] == "node"]
        assert len(node_rows) == 8
        assert all(r[6] == "500" for r in node_rows)  # downloads column
        system = [r for r in rows if r[1] == "system"]
        assert len(system) == 1 and float(system[0][9]) > 0

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, symmetric(2, 10))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", cfg, "--rounds", "300", "--seeds", "5", "--out", str(a)])
        main(["simulate", "--config", cfg, "--rounds", "300", "--seeds", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_multi_seed(self, tmp_path):
        cfg = write_config(tmp_path, symmetric(2, 4))
        out = tmp_path / "sim.csv"
        main(["simulate", "--config", cfg, "--rounds", "100", "--seeds", "0,1", "--out", str(out)])
        rows = read_csv(out)
        assert {r[0] for r in rows[1:]} == {"0", "1"}

    def test_trace(self, tmp_path):
        cfg = write_config(tmp_path, symmetric(2, 4))
        out, trace = tmp_path / "sim.csv", tmp_path / "trace.csv"
        main(
            ["simulate", "--config", cfg, "--rounds", "50", "--trace", str(trace), "--out", str(out)]
        )
        rows = read_csv(trace)
        assert rows[0] == ["round", "initiator", "responder", "t_init", "t_resp", "duration"]
        assert len(rows) == 51

    def test_trace_to_redirected_stdout(self, tmp_path):
        # stdout is redirected to a file and the trace goes to /dev/stdout:
        # the file holds the trace, then the summary line
        cfg = write_config(tmp_path, symmetric(2, 4))
        args = ["simulate", "--config", cfg, "--rounds", "50", "--seeds", "3", "--out", str(tmp_path / "sim.csv")]
        assert main([*args, "--trace", str(tmp_path / "trace.csv")]) == 0
        src = str(Path(bxsim.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        with open(tmp_path / "t.txt", "w") as stdout:
            proc = subprocess.run(
                [sys.executable, "-m", "bxsim.cli", *args, "--trace", "/dev/stdout"],
                stdout=stdout, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
            )
        assert proc.returncode == 0, proc.stderr
        summary = f"wrote 9 rows to {tmp_path / 'sim.csv'}\n".encode()
        assert (tmp_path / "t.txt").read_bytes() == (tmp_path / "trace.csv").read_bytes() + summary

    def test_trace_and_out_to_one_redirected_stdout(self, tmp_path):
        # both outputs go through the one stream, whole and in turn: the
        # trace, then the CSV, then the summary line
        cfg = write_config(tmp_path, symmetric(2, 4))
        args = ["simulate", "--config", cfg, "--rounds", "50", "--seeds", "3"]
        assert main([*args, "--trace", str(tmp_path / "trace.csv"), "--out", str(tmp_path / "sim.csv")]) == 0
        src = str(Path(bxsim.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        with open(tmp_path / "t.txt", "w") as stdout:
            proc = subprocess.run(
                [sys.executable, "-m", "bxsim.cli", *args, "--trace", "/dev/stdout", "--out", "/dev/stdout"],
                stdout=stdout, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
            )
        assert proc.returncode == 0, proc.stderr
        want = (tmp_path / "trace.csv").read_bytes() + (tmp_path / "sim.csv").read_bytes() + b"wrote 9 rows to /dev/stdout\n"
        assert (tmp_path / "t.txt").read_bytes() == want

    @pytest.mark.parametrize("groups", [[10, 10], [12, 8]], ids=["10+10", "12+8"])
    def test_coded_flag_selects_only_the_profile(self, tmp_path, groups):
        # on two files the coded profile is the plain one at alpha = 0.5, and
        # every round serves every node either way: the same bytes
        cfg = write_config(tmp_path, two_file([1.0] * groups[0], [1.0] * groups[1]))
        walk = mock.patch.object(simulate.RoundEngine, "_walk", autospec=True, side_effect=simulate.RoundEngine._walk)
        written = {}
        with walk as walked:
            for coded in ([], ["--coded"]):
                out, trace = tmp_path / f"out{len(coded)}.csv", tmp_path / f"trace{len(coded)}.csv"
                argv = ["simulate", *coded, "--config", cfg, "--rounds", "3000", "--seeds", "17"]
                assert main([*argv, "--trace", str(trace), "--out", str(out)]) == 0
                written[bool(coded)] = out.read_bytes(), trace.read_bytes()
        assert (walked.call_count > 0) == (groups == [12, 8])  # unequal groups take the per-round walk
        assert written[True] == written[False]

    def test_plain_multifile_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, symmetric(3, 4))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2

    def test_coded_multifile(self, tmp_path):
        cfg = write_config(tmp_path, symmetric(3, 4))
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", cfg, "--coded", "--rounds", "200", "--out", str(out)]) == 0
        rows = read_csv(out)
        node_rows = [r for r in rows if r[1] == "node"]
        assert all(r[6] == "200" for r in node_rows)  # coded: everyone downloads


class TestAdapt:
    def test_csv_shape(self, tmp_path):
        cfg = write_config(tmp_path, symmetric(2, 10))
        out, nodes_out = tmp_path / "adapt.csv", tmp_path / "adapt_nodes.csv"
        code = main(
            [
                "adapt", "--config", cfg, "--updates", "2", "--epoch-rounds", "50",
                "--seeds", "0", "--per-node-out", str(nodes_out), "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == [
            "seed", "epoch", "delta", "observed_inv_that_a", "observed_inv_that_b", "throughput",
        ]
        assert len(rows) == 4  # header + 3 epochs
        assert [r[2] for r in rows[1:]] == ["0", "0.1", "0.05"]  # delta_k = epsilon / k, 0 before any update
        node_rows = read_csv(nodes_out)
        assert node_rows[0] == ["seed", "epoch", "node", "that_guess", "rate"]
        assert len(node_rows) == 1 + 3 * 20

    @pytest.mark.parametrize("groups", [[12, 8], [5, 15]], ids=["12+8", "5+15"])
    def test_unequal_groups_are_never_walked(self, tmp_path, groups):
        # only the needers of file 1 initiate, so every epoch of a seed batch
        # reads a fixed stride of uniforms, even where simulate walks its rounds
        cfg = write_config(tmp_path, two_file([1.0] * groups[0], [1.0] * groups[1]))
        walk = mock.patch.object(simulate.RoundEngine, "_walk", autospec=True, side_effect=simulate.RoundEngine._walk)
        with walk as walked:
            assert main(["adapt", "--config", cfg, "--seeds", "0-4", "--out", str(tmp_path / "a.csv")]) == 0
        assert walked.call_count == 0
        with walk as walked:
            assert main(["simulate", "--config", cfg, "--rounds", "100", "--out", str(tmp_path / "s.csv")]) == 0
        assert walked.call_count > 0

    def test_stall_exits_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path, symmetric(2, 10))
        code = main(
            [
                "adapt", "--config", cfg, "--updates", "2", "--epoch-rounds", "20",
                "--epsilon", "5", "--guess-factor", "0.2", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 4
        assert "stall" in capsys.readouterr().err.lower()

    def test_stall_in_long_epoch_leaves_no_output(self, tmp_path, capsys):
        # epochs longer than one engine chunk; the update after epoch 0
        # floors every rate, so epoch 1 stalls before any CSV is written
        cfg = write_config(tmp_path, symmetric(2, 10))
        out, nodes_out = tmp_path / "x.csv", tmp_path / "nodes.csv"
        code = main(
            [
                "adapt", "--config", cfg, "--updates", "2", "--epoch-rounds", "5000",
                "--epsilon", "5", "--guess-factor", "0.2", "--per-node-out", str(nodes_out), "--out", str(out),
            ]
        )
        assert code == 4
        assert "stall" in capsys.readouterr().err.lower()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


    @pytest.mark.parametrize("command", ["adapt", "fig2"])
    def test_knob_defaults_are_the_config_defaults(self, command):
        config = ["--config", "scenario.json"] if command == "adapt" else []
        assert adapt_config(build_parser().parse_args([command, *config, "--out", "x.csv"])) == adapt.AdaptConfig()

    @pytest.mark.parametrize("command", ["adapt", "fig2"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_epsilon_exits_2(self, tmp_path, capsys, command, value):
        self.assert_invalid_argument(tmp_path, capsys, command, f"--epsilon={value}", "epsilon must be finite")

    @pytest.mark.parametrize("command", ["adapt", "fig2"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_guess_factor_exits_2(self, tmp_path, capsys, command, value):
        self.assert_invalid_argument(tmp_path, capsys, command, f"--guess-factor={value}", "guess_factor must be finite")

    @staticmethod
    def assert_invalid_argument(tmp_path, capsys, command, flag, message):
        config = ["--config", write_config(tmp_path, symmetric(2, 10))] if command == "adapt" else ["--seeds", "0"]
        out = tmp_path / "x.csv"
        assert main([command, *config, flag, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"invalid arguments: {message}" in err and "Traceback" not in err and "Warning" not in err
        assert not out.exists() and not (tmp_path / "x.csv.scenarios.json").exists()


@pytest.mark.parametrize(
    "argv,config,message",
    [
        (["adapt", "--guess-factor", "0.1"], scenario_to_dict(symmetric(2, 10)),
         "invalid arguments: guess_factor * group size must exceed 1"),
        (["adapt", "--updates", "-1"], scenario_to_dict(symmetric(2, 10)), "invalid arguments: updates must be >= 0"),
        (["ne"], [], "invalid scenario:\n  BAD_CONFIG: scenario config must be a JSON object"),
        (["adapt", "--epoch-rounds", "0"], scenario_to_dict(symmetric(2, 10)),
         "invalid arguments: epoch_rounds must be >= 1"),
    ],
)
def test_input_check_exits_2(tmp_path, capsys, argv, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr() == ("", message + "\n")
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command", ["ne", "poa", "simulate", "adapt"])
def test_two_file_games_refuse_three_files(tmp_path, capsys, command):
    # the plain game and the adaptation mechanism are defined for two files;
    # the message says so in the user's terms, not by a function's name
    cfg = write_config(tmp_path, symmetric(3, 4))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("invalid arguments: ")
    assert "needs a two-file scenario; this one has 3 files" in err and "two_file_" not in err
    assert sorted(os.listdir(tmp_path)) == ["scenario.json"]


class TestFailClosed:
    """Argument lists that would be silently wrong, outputs that cannot be
    written, and a diverging adaptation all fail before any output exists."""

    @staticmethod
    def run(tmp_path, argv):
        cfg = write_config(tmp_path, symmetric(2, 4), name="cfg.json")
        # a name with a dot, or "dir", is a file in tmp_path; "." stays the working directory
        argv = [cfg if a == "CFG" else str(tmp_path / a) if "." in a and a != "." or a == "dir" else a for a in argv]
        (tmp_path / "dir").mkdir()
        (tmp_path / "x.csv.scenarios.json").mkdir()  # fig2 and fig3 cannot dump here
        return main(argv)

    @staticmethod
    def assert_nothing_written(tmp_path):
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "dir", "x.csv.scenarios.json"]
        assert list((tmp_path / "dir").iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            "fig2 --seeds 1,3-1 --out y.csv",
            "fig2 --seeds 0,1,0 --out y.csv",
            "adapt --config CFG --seeds 2-3,5-4 --out y.csv",
            "simulate --config CFG --seeds 4,4 --out y.csv",
            "simulate --config CFG --seeds= --out y.csv",  # empty, not the config's seed
            "adapt --config CFG --seeds= --out y.csv",
            "fig3 --files 3,3 --out y.csv",
        ],
    )
    def test_bad_seed_or_file_list_exits_2(self, tmp_path, capsys, argv):
        assert self.run(tmp_path, argv.split()) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid arguments: ") and err.count("\n") == 1
        self.assert_nothing_written(tmp_path)

    @pytest.mark.parametrize(
        "argv,listed",
        [
            ("fig2 --seeds 5-", "seed list '5-'"),
            ("fig2 --seeds a", "seed list 'a'"),
            ("fig2 --seeds=", "seed list ''"),  # as --seeds ""
            ("fig2 --seeds 1,,2", "seed list '1,,2'"),
            ("fig2 --seeds 0-3x", "seed list '0-3x'"),
            ("simulate --config CFG --seeds 1-", "seed list '1-'"),
            ("fig3 --files 3,x", "file count list '3,x'"),
        ],
    )
    def test_unparsable_list_is_quoted(self, tmp_path, capsys, argv, listed):
        # the message names the list and what it must be, not int()'s complaint
        assert self.run(tmp_path, [*argv.split(), "--out", "y.csv"]) == 2
        assert capsys.readouterr().err == f"invalid arguments: {listed} must be comma-separated integers or ranges a-b of them\n"
        self.assert_nothing_written(tmp_path)

    @pytest.mark.parametrize(
        "argv,path",
        [
            ("simulate --config CFG --rounds 50 --out missing/y.csv", "missing/y.csv"),
            ("simulate --config CFG --rounds 50 --trace dir --out y.csv", "dir"),
            ("adapt --config CFG --updates 1 --per-node-out dir --out y.csv", "dir"),
            ("ne --config CFG --out dir", "dir"),
            ("fig2 --seeds 0 --updates 1 --out x.csv", "x.csv.scenarios.json"),
            ("fig3 --files 3 --out x.csv", "x.csv.scenarios.json"),
        ],
    )
    def test_unwritable_output_exits_2_before_any_work(self, tmp_path, capsys, argv, path):
        assert self.run(tmp_path, argv.split()) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid arguments: cannot write {tmp_path / path}: ") and err.count("\n") == 1
        self.assert_nothing_written(tmp_path)

    @pytest.mark.parametrize(
        "argv", ["simulate --config CFG --rounds 50 --trace", "adapt --config CFG --updates 1 --per-node-out"]
    )
    def test_empty_side_output_path_exits_2(self, tmp_path, capsys, argv):
        # an empty path names no file to write, like an empty --out
        assert self.run(tmp_path, [*argv.split(), "", "--out", "y.csv"]) == 2
        assert capsys.readouterr().err == "invalid arguments: cannot write : Is a directory\n"
        self.assert_nothing_written(tmp_path)

    @pytest.mark.parametrize("out", ["", "."])
    @pytest.mark.parametrize("argv", ["fig2 --seeds 0 --updates 1", "fig3 --files 3"])
    def test_empty_or_directory_out_of_a_generator_exits_2(self, tmp_path, capsys, monkeypatch, argv, out):
        # named as on any other command, before the scenario dump beside it
        monkeypatch.chdir(tmp_path)
        assert self.run(tmp_path, [*argv.split(), "--out", out]) == 2
        assert capsys.readouterr().err == f"invalid arguments: cannot write {out}: Is a directory\n"
        self.assert_nothing_written(tmp_path)

    @pytest.mark.parametrize("out", [os.devnull, "/dev/stdout"])
    @pytest.mark.parametrize("argv", ["fig2 --seeds 0 --updates 1", "fig3 --files 3"])
    def test_generator_out_must_be_a_file(self, tmp_path, capsys, monkeypatch, argv, out):
        # a device or a std stream has no file beside it for the scenario dump
        # (it would be made in /dev); the stand-in opens --out alone and
        # refuses any other path, so that no dump is made even where one is tried
        if not os.path.exists(out):
            pytest.skip(f"needs {out}")
        opened = []

        def open_out_only(path):
            opened.append(str(path))
            if str(path) != out:
                raise OSError(13, "refused by the test")
            return atomic_open(path)

        monkeypatch.setattr(bxsim.cli, "atomic_open", open_out_only)
        assert self.run(tmp_path, [*argv.split(), "--out", out]) == 2
        command = argv.split()[0]
        assert capsys.readouterr().err == (
            f"invalid arguments: {command} writes <out>.scenarios.json beside --out, so --out must be a file: {out}\n"
        )
        assert opened == [out]
        self.assert_nothing_written(tmp_path)

    @pytest.mark.parametrize(
        "argv",
        [
            f"fig3 --files {10**30} --out y.csv",  # beyond an index
            f"fig3 --group-size {10**15} --out y.csv",  # beyond any memory
            f"fig2 --seeds 0-{10**15} --out y.csv",
            f"simulate --config CFG --seeds 0-{10**30} --out y.csv",
        ],
    )
    def test_count_too_large_exits_2(self, tmp_path, capsys, argv):
        assert self.run(tmp_path, argv.split()) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid arguments: ") and err.count("\n") == 1
        self.assert_nothing_written(tmp_path)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            "fig3 --files 3 --out full.csv",  # after the scenarios are written
            "adapt --config CFG --updates 1 --per-node-out y.csv --out full.csv",
            "simulate --config CFG --rounds 5 --trace full.csv --out y.csv",
        ],
    )
    def test_output_failing_as_written_exits_2_and_keeps_none(self, tmp_path, capsys, argv):
        (tmp_path / "full.csv").symlink_to("/dev/full")  # every write fails when flushed
        assert self.run(tmp_path, argv.split()) == 2
        assert capsys.readouterr().err == "invalid arguments: cannot write an output: No space left on device\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "dir", "full.csv", "x.csv.scenarios.json"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_no_new_file_beside_one_output_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        # --out is written in place, and no .partial may be made beside
        # nodes.csv: the command fails at open, and nodes.csv keeps its bytes
        (tmp_path / "full.csv").symlink_to("/dev/full")
        (tmp_path / "nodes.csv").write_text("old\n")

        def no_partial(file, *args, **kwargs):
            if str(file).endswith(".nodes.csv.partial"):
                raise PermissionError(13, "Permission denied", str(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(bxsim.model, "open", no_partial, raising=False)
        assert self.run(tmp_path, "adapt --config CFG --updates 1 --per-node-out nodes.csv --out full.csv".split()) == 2
        assert capsys.readouterr().err == f"invalid arguments: cannot write {tmp_path / 'nodes.csv'}: Permission denied\n"
        assert (tmp_path / "nodes.csv").read_text() == "old\n"
        names = ["cfg.json", "dir", "full.csv", "nodes.csv", "x.csv.scenarios.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names

    def test_two_outputs_naming_one_file_exit_2(self, tmp_path, capsys):
        argv = "adapt --config CFG --updates 1 --per-node-out y.csv --out y.csv"
        assert self.run(tmp_path, argv.split()) == 2
        assert capsys.readouterr().err == f"invalid arguments: two outputs name the file {tmp_path / 'y.csv'}\n"
        self.assert_nothing_written(tmp_path)

    def test_early_exit_discards_opened_outputs(self, tmp_path, capsys):
        argv = "simulate --config CFG --seeds 1,2 --trace t.csv --out y.csv"
        assert self.run(tmp_path, argv.split()) == 2
        assert "--trace requires a single seed" in capsys.readouterr().err
        self.assert_nothing_written(tmp_path)

    def test_divergence_exits_4_naming_seed_and_epoch(self, tmp_path, capsys):
        assert self.run(tmp_path, "fig2 --seeds 7 --epsilon 1e300 --out y.csv".split()) == 4
        err = capsys.readouterr().err
        assert err == "simulation stalled: seed 7: the update to epoch 2 diverged: an inverse guess is not finite\n"
        self.assert_nothing_written(tmp_path)


    @pytest.mark.parametrize(
        "argv", ["simulate --config CFG --coded --alpha 0 --out y.csv", "ne --config CFG --coded --alpha 3e-1 --out y.csv"]
    )
    def test_alpha_with_coded_exits_2(self, tmp_path, capsys, argv):
        # the coded game has no alpha; a flag that would be ignored is an error
        with pytest.raises(SystemExit) as exc:
            self.run(tmp_path, argv.split())
        assert exc.value.code == 2
        assert "error: argument --alpha: not allowed with argument --coded\n" in capsys.readouterr().err
        self.assert_nothing_written(tmp_path)

    @pytest.mark.parametrize(
        "argv,extra",
        [
            ("fig3 --g 2 --out x.csv", "--g 2"),  # a removed option
            ("simulate --config CFG --round 5 --out x.csv", "--round 5"),  # an abbreviation
            ("ne extra --config CFG --out x.csv", "extra"),
        ],
    )
    def test_unknown_argument_exits_2_with_the_command_usage(self, tmp_path, capsys, argv, extra):
        # the command's own usage line lists the options it does take
        command = argv.split()[0]
        with pytest.raises(SystemExit) as exc:
            self.run(tmp_path, argv.split())
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"usage: bxsim {command} [-h] ")
        assert err.endswith(f"\nbxsim {command}: error: unrecognized arguments: {extra}\n")
        self.assert_nothing_written(tmp_path)


@st.composite
def extreme_layouts(draw):
    """2-4 files of 2-4 nodes each (node order by file), with w log-uniform
    within a few decades of 1e-308 or of 1e307, nearly equal or decades
    apart, and one g in [1e-2, 1e2]."""
    sizes = draw(st.lists(st.integers(2, 4), min_size=2, max_size=4))
    lo, hi = draw(st.sampled_from([(-310.0, -305.0), (304.0, 308.0)]))
    center, spread = draw(st.floats(lo, hi)), draw(st.sampled_from([0.02, 3.0]))
    exponents = st.floats(max(lo, center - spread), min(hi, center + spread))
    w = [10.0 ** draw(exponents) for _ in range(sum(sizes))]
    return sizes, w, [10.0 ** draw(st.floats(-2.0, 2.0))] * len(w)


class TestExtremeMagnitudes:
    """Costs near the ends of the float range either give finite numbers or
    fail closed (exit 2, 3 or 4, nothing written), never with a warning."""

    COMMANDS = [
        "ne", "ne --coded", "poa", "simulate --rounds 30", "simulate --rounds 30 --coded",
        *(f"adapt --updates 3 --epoch-rounds 5 --guess-factor {factor}" for factor in ("0.6", "0.75", "2", "10")),
    ]

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(layout=extreme_layouts())
    @example(layout=([2, 2, 2], [2.5e307] * 6, [1.0] * 6))  # ne --coded wrote nan and inf
    @example(layout=([2, 2, 2], [1e-308] * 6, [1.0] * 6))  # ne --coded overflowed to exit 3
    @example(layout=([4, 4], [4.5e-308] * 8, [10.0] * 8))  # poa wrote inf
    @example(layout=([4, 4], [4e306 * (1 + 0.01 * k) for k in range(8)], [1.0] * 8))  # simulate wrote inf
    @example(layout=([2, 2], [4e307 * (1 + 0.01 * k) for k in range(4)], [1.0] * 4))  # adapt wrote inf
    @example(layout=([2, 2], [1e-308] * 4, [1.0] * 4))  # simulate's overflowing timers read as a stall
    def test_finite_or_fail_closed(self, layout):
        sizes, w, g = layout
        nodes = [{"w": wk, "g": gk, "needs": x} for wk, gk, x in zip(w, g, np.repeat(np.arange(len(sizes)), sizes).tolist())]
        with tempfile.TemporaryDirectory() as tmp:
            config, out = Path(tmp) / "cfg.json", Path(tmp) / "out.csv"
            config.write_text(json.dumps({"files": len(sizes), "nodes": nodes}))
            for command in self.COMMANDS:
                with warnings.catch_warnings(record=True) as caught, redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    warnings.simplefilter("always")
                    code = main([*command.split(), "--config", str(config), "--out", str(out)])
                assert code in (0, 2, 3, 4) and [str(c.message) for c in caught] == [], command
                if code:
                    assert os.listdir(tmp) == ["cfg.json"], command  # no output, and no .partial file
                    continue
                numbers = []
                for field in (field for row in read_csv(out)[1:] for field in row):
                    with suppress(ValueError):
                        numbers.append(float(field))
                assert numbers and all(map(math.isfinite, numbers)), command
                out.unlink()

    def test_numeric_error_names_the_seed(self, tmp_path, capsys):
        nodes = [{"w": 4e307 * (1 + 0.01 * k), "g": 1.0, "needs": k // 2} for k in range(4)]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"files": 2, "nodes": nodes}))
        code = main(["adapt", "--config", str(config), "--guess-factor", "0.7", "--seeds", "3,1", "--out", str(tmp_path / "y.csv")])
        assert (code, capsys.readouterr().err) == (4, "numeric overflow: seed 3: overflow encountered in divide\n")
        assert os.listdir(tmp_path) == ["cfg.json"]


class TestFailureOrder:
    """Seeds played side by side fail as the seeds played one at a time do:
    with the error of the first listed seed that fails, after the warnings
    logged up to it, even when a later-listed seed fails at an earlier epoch."""

    KNOBS = ["--epsilon", "1e300", "--epoch-rounds", "1", "--guess-factor", "1.05"]

    def run(self, tmp_path, caplog, capsys, command, seeds, updates=4):
        """Exit code, stderr and warnings of one run; a failed run writes nothing."""
        config = ["--config", write_config(tmp_path, symmetric(2, 10), name="cfg.json")] if command == "adapt" else []
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="bxsim.adapt"):
            code = main([command, *config, "--seeds", seeds, "--updates", str(updates), *self.KNOBS, "--out", str(tmp_path / "y.csv")])
        written = list(tmp_path.glob("y.*"))
        if code:
            assert written == []  # no output, and no .partial file
        for path in written:
            path.unlink()
        return code, capsys.readouterr().err, list(caplog.messages)

    @pytest.mark.parametrize("command", ["adapt", "fig2"])
    def test_first_listed_failure_wins(self, tmp_path, caplog, capsys, command):
        def failing_epoch(seed):  # the epoch whose play or update fails, or None
            return next((u for u in range(5) if self.run(tmp_path, caplog, capsys, command, str(seed), u)[0]), None)

        epochs = {seed: failing_epoch(seed) for seed in range(16)}
        late, early = next(
            (a, b) for a in epochs for b in epochs if epochs[a] is not None and epochs[b] is not None and epochs[a] > epochs[b]
        )
        alone = self.run(tmp_path, caplog, capsys, command, str(late))
        assert alone[0] == 4 and alone[1].count("\n") == 1
        if "diverged" in alone[1]:
            assert f"seed {late}: the update to epoch {epochs[late]} diverged" in alone[1]
        for seeds in (f"{late},{early}", f"{late},{early},{max(epochs) + 1}"):
            assert self.run(tmp_path, caplog, capsys, command, seeds) == alone


class TestReplayCost:
    """A seed batch is played on one round engine; a batch that fails is
    replayed one seed at a time, up to the first seed that fails."""

    def engines_built(self, tmp_path, seeds, *knobs):
        with mock.patch.object(adapt, "RoundEngine", wraps=simulate.RoundEngine) as engine:
            code = main(["fig2", "--seeds", seeds, *knobs, "--out", str(tmp_path / "y.csv")])
        return code, engine.call_count

    def test_a_batch_that_runs_through_is_played_once(self, tmp_path):
        assert self.engines_built(tmp_path, "0-19") == (0, 1)

    def test_a_failed_batch_is_replayed_up_to_its_first_failing_seed(self, tmp_path, capsys):
        # with one-round epochs, seed 1 runs through, and seeds 0 and 2 stall
        # alone: the error names seed 0, the first of them in list order
        assert self.engines_built(tmp_path, "1,0,2", "--epoch-rounds", "1") == (4, 1 + 2)
        assert capsys.readouterr().err == "simulation stalled: seed 0: no node can initiate: all initiation rates are zero\n"


class TestFig2:
    def test_smoke(self, tmp_path):
        out = tmp_path / "fig2.csv"
        code = main(
            [
                "fig2", "--seeds", "0,1", "--updates", "2", "--epoch-rounds", "50",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["epoch", "throughput_mean", "throughput_std", "ne_throughput"]
        assert len(rows) == 4
        # reference column is constant
        assert len({r[3] for r in rows[1:]}) == 1
        scenarios = json.loads((tmp_path / "fig2.csv.scenarios.json").read_text())
        assert set(scenarios) == {"seed_0", "seed_1"}
        assert len(scenarios["seed_0"]["nodes"]) == 20

    def test_zero_updates_single_epoch(self, tmp_path):
        out = tmp_path / "fig2.csv"
        main(["fig2", "--seeds", "0", "--updates", "0", "--epoch-rounds", "30", "--out", str(out)])
        assert len(read_csv(out)) == 2

    def test_failing_dump_leaves_no_partial_json(self, tmp_path):
        # the second entry cannot be serialized (a stand-in for a scenario
        # whose file count is not a number: no Scenario has one), so the dump
        # fails after the first one has been written out
        path = tmp_path / "fig2.csv.scenarios.json"
        path.write_text("old\n")
        s = symmetric(2, 3)
        broken = SimpleNamespace(files=None, w=s.w, g=s.g, needs=s.needs)
        out = atomic_open(str(path))
        with pytest.raises(TypeError):
            dump_scenarios(out, {"seed_0": symmetric(2, 2), "seed_1": broken})
        out.close()
        assert path.read_text() == "old\n" and list(tmp_path.iterdir()) == [path]


class TestFig3:
    def test_analytic_columns(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--files", "3,4,5", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["num_files", "coded_throughput", "baseline_throughput", "simulated_throughput"]
        by_f = {int(r[0]): r for r in rows[1:]}
        for f in (3, 4, 5):
            assert float(by_f[f][2]) == pytest.approx(1 / f)
            assert float(by_f[f][1]) == pytest.approx(coded_throughput(symmetric(f, 10)), abs=1e-9)
        # crossover: below the baseline at 3 files, above from 4 on
        assert float(by_f[3][1]) < 1 / 3
        assert float(by_f[4][1]) > 1 / 4

    def test_file_count_range(self, tmp_path):
        # --files reads the --seeds grammar: a range writes the bytes of its list
        ranged, listed = tmp_path / "ranged.csv", tmp_path / "listed.csv"
        assert main(["fig3", "--files", "3-5", "--out", str(ranged)]) == 0
        assert main(["fig3", "--files", "3,4,5", "--out", str(listed)]) == 0
        assert ranged.read_bytes() == listed.read_bytes()
        dumps = [tmp_path / f"{name}.csv.scenarios.json" for name in ("ranged", "listed")]
        assert dumps[0].read_bytes() == dumps[1].read_bytes()

    def test_simulate_cross_check(self, tmp_path):
        out = tmp_path / "fig3.csv"
        code = main(["fig3", "--files", "3", "--rounds", "5000", "--out", str(out)])
        assert code == 0
        row = read_csv(out)[1]
        assert float(row[3]) == pytest.approx(float(row[1]), rel=0.02)

    @pytest.mark.parametrize("simulate,calls", [([], 6), (["--rounds", "50"], 6)])
    def test_solves_each_coded_game_once(self, tmp_path, simulate, calls):
        # every point checks that the per-node profile is nonnegative, and a
        # simulated point plays the profile it checked
        with mock.patch.object(equilibrium, "coded_equilibrium", wraps=equilibrium.coded_equilibrium) as solve:
            assert main(["fig3", *simulate, "--out", str(tmp_path / "y.csv")]) == 0
        assert solve.call_count == calls

    @pytest.mark.parametrize("argv", ["--files 3,4 --w-hi 2.0", "--w-hi 3"], ids=["w-hi-2", "w-hi-3"])
    def test_random_w_without_equilibrium_exits_3(self, tmp_path, capsys, argv):
        # heterogeneous costs give some nodes a negative rate: the per-file
        # aggregates exist, but no equilibrium has them, so no point is written
        assert main(["fig3", *argv.split(), "--out", str(tmp_path / "fig3.csv")]) == 3
        assert capsys.readouterr().err.startswith("equilibrium does not exist: nodes [")
        assert list(tmp_path.iterdir()) == []


# (w, g) of one node: g from subnormal to near the largest float, and w/g in
# [0.5, 2], so that every ratio and group sum is finite.
NODE_COSTS = st.tuples(st.floats(5e-324, 1e308), st.floats(0.5, 1.0)).map(
    lambda g_r: (g_r[0] * g_r[1] if g_r[0] > 1 else g_r[0] / g_r[1], g_r[0])
)


class TestGeneratedScenarios:
    @pytest.mark.parametrize(
        "argv",
        [["fig2", "--w-lo", "1", "--w-hi", "inf"], ["fig3", "--w-hi", "inf"], ["fig2", "--w-lo", "nan"],
         ["fig3", "--w-lo", "0", "--w-hi", "1"], ["fig2", "--w-lo", "2", "--w-hi", "1"], ["fig2", "--group-size", "-1"]],
    )
    def test_generator_arguments_are_checked(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "invalid arguments: need group sizes >= 0 and finite 0 < w_lo <= w_hi" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "out,dump", [("x.csv", "x.csv.scenarios.json"), ("x", "x.scenarios.json"), ("d/x.csv/", "d/x.csv.scenarios.json")]
    )
    def test_dump_is_named_after_out(self, tmp_path, monkeypatch, out, dump):
        # the path of --out as written, a trailing slash dropped, plus .scenarios.json
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        assert main(["fig3", "--files", "3", "--out", out]) == 0
        assert (tmp_path / out.rstrip("/")).is_file() and (tmp_path / dump).is_file()

    def test_zero_files_is_an_invalid_scenario(self, tmp_path, capsys):
        assert main(["fig3", "--files", "0", "--out", str(tmp_path / "x.csv")]) == 2
        assert "TOO_FEW_FILES: need at least 2 files, got 0" in capsys.readouterr().err

    def test_gen_groups_draws_as_scalar_draws(self):
        # one vector draw gives the floats and leaves the generator where
        # one scalar draw per node, file by file, does
        for seed in range(200):
            sizes = [2 + seed % 5, 3, 2 + seed % 3]
            scalar, vector = gen_rng(seed, 1), gen_rng(seed, 1)
            w = [float(scalar.uniform(1.0, 2.0)) for f, size in enumerate(sizes) for _ in range(size)]
            s = gen_groups(sizes, 1.0, 2.0, vector)
            assert [v.hex() for v in s.w.tolist()] == [v.hex() for v in w]
            assert s.g.tolist() == [1.0] * len(w) and s.needs.tolist() == [f for f, k in enumerate(sizes) for _ in range(k)]
            assert scalar.bit_generator.state == vector.bit_generator.state

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=6),
            st.integers(2, 4).flatmap(
                lambda files: st.tuples(st.just(files), st.lists(NODE_COSTS, min_size=2 * files, max_size=2 * files + 4))
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_dump_matches_json_dump(self, specs):
        # node n needs file n % files, so that every group has 2 nodes or more
        scenarios = {
            key: Scenario(files, *zip(*nodes), [n % files for n in range(len(nodes))]) for key, (files, nodes) in specs.items()
        }
        out = io.StringIO()
        dump_scenarios(out, scenarios)
        got = out.getvalue()
        data = {key: scenario_to_dict(s) for key, s in scenarios.items()}
        assert got == json.dumps(data, sort_keys=True, indent=2) + "\n"


def shuffled_config(groups: list[int], w_range: tuple, g_range: tuple) -> dict:
    """A config with groups[f] nodes needing file f, w and g drawn uniformly,
    in shuffled node order, from a fixed numpy stream."""
    rng = np.random.default_rng(20261018)
    needs = np.repeat(np.arange(len(groups)), groups)
    w, g = rng.uniform(*w_range, needs.size), rng.uniform(*g_range, needs.size)
    order = rng.permutation(needs.size)
    nodes = [{"w": float(w[i]), "g": float(g[i]), "needs": int(needs[i])} for i in order]
    return {"files": len(groups), "nodes": nodes}


class TestPinnedOutputs:
    """SHA-256 of every output of fixed runs on two shuffled scenarios with
    unequal groups and heterogeneous w and g, and of generated-scenario runs.
    The equilibrium digests were taken from the per-node implementation the
    array forms replaced, the others from the csv-module writer that the row
    templates replaced."""

    CONFIGS = {  # name: (shuffled_config arguments, SHA-256 of the config file)
        "two.json": (
            ([7, 5], (1.0, 1.3), (0.8, 1.2)),
            "75c29446b8621534bb1bac98e8f81cd8f471f38aa6cd3d068641fa438841b9d1",
        ),
        "coded.json": (
            ([5, 6, 7, 8], (1.0, 1.02), (0.99, 1.01)),
            "ad71eff60f075299a2b26b2be005bcc7900883b5329ccd35436392660019d9fd",
        ),
    }
    RUNS = {  # name: (arguments, {output file: SHA-256})
        "ne": (
            "ne --config two.json --out out.csv",
            {"out.csv": "b291d9ceca9cec9718a25f1cb90cc08f1a1b960f28dbe4a6fae1821597249ebf"},
        ),
        "ne-alpha": (
            "ne --alpha 0.3 --config two.json --out out.csv",
            {"out.csv": "02d63b2f65c9b18a65304bd373603a258e1aafdbb1d54077f74883cecd05477e"},
        ),
        "ne-coded-2": (
            "ne --coded --config two.json --out out.csv",
            {"out.csv": "dc39ba680af15251bb1639661adb083cb8e42f307ef7e6f20fb3134d94b8d3b7"},
        ),
        "ne-coded-4": (
            "ne --coded --config coded.json --out out.csv",
            {"out.csv": "088820807b30b51bfcb02fa39160e5c404b212552ac50490cbea2d65d0950012"},
        ),
        "poa": (
            "poa --config two.json --out out.csv",
            {"out.csv": "8503bdef51f62ead628c36e3f63f60ac7293e88e8c0106d5c7aa1c99afaa7abd"},
        ),
        "simulate-seeds": (
            "simulate --seeds 3,4 --rounds 3000 --config two.json --out out.csv",
            {"out.csv": "81a8f919282bffdf1da8a322b95b98d87e802dc839cb7e41fe6015f054e18bed"},
        ),
        "simulate-trace": (
            "simulate --seeds 5 --rounds 2000 --config two.json --trace trace.csv --out out.csv",
            {
                "out.csv": "a1b8aaf84ade8493fd6b5b1f8f83a593ece3d0d964e0592eba3aa82ade364bc8",
                "trace.csv": "23795736bf2bcc417a1fa211dc98185a4e6443bbc65a1a69eb65e55e019447ed",
            },
        ),
        "simulate-coded": (
            "simulate --coded --seeds 1 --rounds 2000 --config coded.json --out out.csv",
            {"out.csv": "979018a903a11c833116ff1df8e7ebf669f1b0baa5c4d81df02d02e249821296"},
        ),
        "adapt": (
            "adapt --updates 3 --epoch-rounds 200 --seeds 0,1 --config two.json "
            "--per-node-out nodes.csv --out out.csv",
            {
                "out.csv": "e185bd8e008ae4493c76655707ea63bd09e4d1621b3c36b715b25e2643426493",
                "nodes.csv": "906bcf3030fda96c6a1aa353c4d9fc2a57ed4652afbb63f4c8548d1854d7197d",
            },
        ),
        "fig2": (
            "fig2 --seeds 0-2 --out out.csv",
            {
                "out.csv": "e6b34c5ba182dfba9e7cb400ab1e52dfe98f9d011df09db936ab4f1b7497b65c",
                "out.csv.scenarios.json": "2b4d6998e84a68d575846072d1c642541ee13f297f7f18b0012aebc7abb44883",
            },
        ),
        "fig3": (
            "fig3 --files 3,4 --rounds 2000 --out out.csv",
            {
                "out.csv": "06f87274f09dfb33507ed9e4890a870962ca54410941d8c80d7b120caf615445",
                "out.csv.scenarios.json": "c7f6bcf96cd41c32ce2b7c56c334da875cb042908b25f02f1c71d11a89af50a2",
            },
        ),
    }

    @pytest.mark.parametrize("run", RUNS)
    def test_csv_digest(self, tmp_path, run):
        for name, (shape, config_digest) in self.CONFIGS.items():
            (tmp_path / name).write_text(json.dumps(shuffled_config(*shape)))
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == config_digest
        command, digests = self.RUNS[run]
        argv = [str(tmp_path / a) if a.endswith((".json", ".csv")) else a for a in command.split()]
        assert main(argv) == 0
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in digests}
        assert got == digests


def csv_line(fields: list[str]) -> str:
    """One row as the csv module's default writer writes it."""
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()


# Every row template the program writes, with the header of its file.
ROW_TEMPLATES = {
    **{
        name: (getattr(bxsim.cli, name), getattr(bxsim.cli, header))
        for name, header in [
            ("NE_AGGREGATE_ROW", "NE_HEADER"),
            ("NE_DEGENERATE_ROW", "NE_HEADER"),
            ("NE_GAMMA_ROW", "NE_HEADER"),
            ("NE_LAMBDA_ROW", "NE_HEADER"),
            ("POA_SYSTEM_ROW", "POA_HEADER"),
            ("POA_NODE_ROW", "POA_HEADER"),
            ("SIM_NODE_ROW", "SIM_HEADER"),
            ("SIM_SYSTEM_ROW", "SIM_HEADER"),
            ("ADAPT_ROW", "ADAPT_HEADER"),
            ("ADAPT_NODE_ROW", "ADAPT_NODE_HEADER"),
            ("FIG2_ROW", "FIG2_HEADER"),
            ("FIG3_ROW", "FIG3_HEADER"),
            ("FIG3_ANALYTIC_ROW", "FIG3_HEADER"),
        ]
    },
    "TRACE_ROW": (simulate.TRACE_ROW, simulate.TRACE_HEADER),
}
FLOATS = st.one_of(
    st.floats(),  # nan, inf and subnormals included
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1e300, 1e-9, 123456789.5]),
)
INTS = st.integers(-(2**70), 2**70)


class TestRowTemplates:
    """The row templates write the bytes the csv module's writer wrote for
    the same cells (floats as f"{x:.9g}", integers as str), with as many
    fields as the file's header."""

    def test_every_template_is_listed(self):
        assert {name for name in vars(bxsim.cli) if name.endswith("_ROW")} | {"TRACE_ROW"} == set(ROW_TEMPLATES)

    @pytest.mark.parametrize("name", ROW_TEMPLATES)
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(data=st.data())
    def test_row_matches_csv_writer(self, name, data):
        template, header = ROW_TEMPLATES[name]
        assert template.endswith("\r\n")
        values, fields = [], []
        for token in template[:-2].split(","):
            if token == "%d":
                values.append(data.draw(INTS))
                fields.append(str(values[-1]))
            elif token == "%.9g":
                values.append(data.draw(FLOATS))
                fields.append(f"{values[-1]:.9g}")
            elif token == "%s":  # a node's w, g and needs columns
                w, g, needs = data.draw(FLOATS), data.draw(FLOATS), data.draw(INTS)
                values.append(bxsim.cli.NODE_COLUMNS % (w, g, needs))
                fields += [f"{w:.9g}", f"{g:.9g}", str(needs)]
            else:
                fields.append(token)
        assert template % tuple(values) == csv_line(fields)
        assert len(fields) == len(header)

    def test_write_csv_matches_csv_writer(self):
        rows = [["0", "1.5", "", "inf"], ["-3", "nan", "-0", "5e-324"]]
        out = io.StringIO()
        write_csv(out, ["a", "b", "c", "d"], [",".join(r) + "\r\n" for r in rows])
        want = "".join(csv_line(r) for r in [["a", "b", "c", "d"], *rows])
        assert out.getvalue().encode() == want.encode()


HUGE = str(10**30)
FUZZ_NUMBERS = ["nan", "inf", "-inf", "0", "-1", "1e308", "", "0.5", "2"]
# A huge count of rounds or updates is a long run, not a fault, so the
# counts that set the amount of work are drawn without one.
FUZZ_COUNTS = ["nan", "inf", "0", "-1", "", "1", "3"]
FUZZ_SIZES = [*FUZZ_COUNTS, HUGE, str(10**15)]
FUZZ_LISTS = ["0", "1,2", "2,3", "3-1", "0,0", "3,3", "-1", "nan", "", HUGE, f"0-{HUGE}", f"0-{10**15}"]
# Paths start with @, which stands for the example's directory.
FUZZ_CONFIGS = ["@eq.json", "@none.json", "@coded.json", "@bad.json", "@missing.json", "@dir", ""]
# A path two outputs can share; unwritable ones: a missing directory, a
# directory, a path below a file, and a file whose writes fail only when
# they are flushed.
FUZZ_OUTPUTS = ["@same.csv", "@missing/x.csv", "@dir", "", "@eq.json/x.csv"] + (["@full.csv"] if os.path.exists("/dev/full") else [])


def fuzz_values(action: argparse.Action) -> list[str]:
    """The values the argv fuzzer draws for one option."""
    if action.type is float:
        return FUZZ_NUMBERS
    if action.type is int:
        return FUZZ_COUNTS if action.dest in ("rounds", "updates", "epoch_rounds") else FUZZ_SIZES
    if action.dest == "config":
        return FUZZ_CONFIGS
    if action.dest in ("seeds", "files"):
        return FUZZ_LISTS
    return [f"@{action.dest}.csv", *FUZZ_OUTPUTS]  # --out, --trace, --per-node-out


@st.composite
def fuzz_argv(draw) -> list[str]:
    """A subcommand and its options, each given or not, with values from
    fuzz_values; the required options are always given."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    command = draw(st.sampled_from(sorted(sub.choices)))
    argv = [command]
    for action in sub.choices[command]._actions:
        if not action.option_strings or action.dest == "help" or not (action.required or draw(st.booleans())):
            continue
        argv.append(action.option_strings[0])
        if action.nargs != 0:
            argv.append(draw(st.sampled_from(fuzz_values(action))))
    return argv


class TestArgvFuzz:
    """Every argument list ends in a documented exit code, with no exception
    escaping main, and a run that fails leaves no output and no .partial
    file."""

    @staticmethod
    def setup(tmp: Path) -> list[str]:
        for name, s in (("eq.json", symmetric(2, 2)), ("none.json", NO_EQUILIBRIUM), ("coded.json", symmetric(3, 2))):
            (tmp / name).write_text(json.dumps(scenario_to_dict(s)))
        (tmp / "bad.json").write_text("{")
        (tmp / "dir").mkdir()
        if os.path.exists("/dev/full"):
            (tmp / "full.csv").symlink_to("/dev/full")
        return sorted(os.listdir(tmp))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(argv=fuzz_argv())
    def test_exit_code_and_no_output_on_failure(self, argv):
        with tempfile.TemporaryDirectory() as name:
            tmp = Path(name)
            before = self.setup(tmp)
            argv = [str(tmp / a[1:]) if a.startswith("@") else a for a in argv]
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejected the argument list
                    code = exc.code
            assert code in (0, 2, 3, 4)
            if code:
                assert sorted(os.listdir(tmp)) == before and os.listdir(tmp / "dir") == []
