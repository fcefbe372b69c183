from __future__ import annotations

import csv
import json

import pytest

from bxsim.cli import main, parse_seeds
from bxsim.equilibrium import coded_throughput
from bxsim.model import scenario_to_dict

from conftest import symmetric, two_file


def write_config(tmp_path, scenario, name="scenario.json", seed=None):
    path = tmp_path / name
    path.write_text(json.dumps(scenario_to_dict(scenario, seed=seed)))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_parse_seeds():
    assert parse_seeds("0,5,3") == [0, 5, 3]
    assert parse_seeds("0-3") == [0, 1, 2, 3]
    assert parse_seeds("7") == [7]
    assert parse_seeds("-2") == [-2]


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
        cfg = write_config(tmp_path, two_file([1.0], [1.0]))
        assert main(["ne", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
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

    def test_nonexistent_equilibrium_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, two_file([1.0, 1.0, 5.0], [1.0, 1.0]))
        assert main(["ne", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
        assert "equilibrium" in capsys.readouterr().err


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


class TestSimulate:
    def test_metrics_csv(self, tmp_path):
        cfg = write_config(tmp_path, symmetric(2, 4), seed=3)
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", cfg, "--rounds", "500", "--out", str(out)]) == 0
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
        node_rows = read_csv(nodes_out)
        assert node_rows[0] == ["seed", "epoch", "node", "that_guess", "rate"]
        assert len(node_rows) == 1 + 3 * 20

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

    def test_simulate_cross_check(self, tmp_path):
        out = tmp_path / "fig3.csv"
        code = main(["fig3", "--files", "3", "--simulate", "--rounds", "5000", "--out", str(out)])
        assert code == 0
        row = read_csv(out)[1]
        assert float(row[3]) == pytest.approx(float(row[1]), rel=0.02)

    def test_random_w_uses_aggregates(self, tmp_path):
        # heterogeneous costs break per-node nonnegativity, but the analytic
        # throughput only needs the per-file aggregates
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--files", "3,4", "--w-hi", "2.0", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert all(0 < float(r[1]) < 0.5 for r in rows[1:])
