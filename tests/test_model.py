from __future__ import annotations

import json
import os
import threading

import bxsim.model
import numpy as np
import pytest

from bxsim.errors import (
    BAD_FILE_ID,
    GROUP_TOO_SMALL,
    NONFINITE_COST,
    NONPOSITIVE_COST,
    TOO_FEW_FILES,
    ScenarioError,
)
from bxsim.model import (
    CostParams,
    Metrics,
    Node,
    Scenario,
    atomic_open,
    group_ratio_sums,
    load_scenario,
    require_valid,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)

from conftest import symmetric, two_file


def codes(violations):
    return [v.code for v in violations]


class TestValidation:
    def test_symmetric_scenario_is_valid(self):
        assert validate_scenario(symmetric(2, 10)) == []

    def test_group_of_one(self):
        s = two_file([1.0], [1.0, 1.0])
        assert codes(validate_scenario(s)) == [GROUP_TOO_SMALL]

    def test_zero_transmission_cost(self):
        s = Scenario(
            files=2,
            nodes=(
                Node(CostParams(1.0, 0.0), 0),
                Node(CostParams(1.0, 1.0), 0),
                Node(CostParams(1.0, 1.0), 1),
                Node(CostParams(1.0, 1.0), 1),
            ),
        )
        assert codes(validate_scenario(s)) == [NONPOSITIVE_COST]

    @pytest.mark.parametrize("w,g", [(float("inf"), 1.0), (1.0, float("inf")), (float("nan"), 1.0)])
    def test_non_finite_cost(self, w, g):
        s = Scenario(files=2, nodes=(Node(CostParams(w, g), 0),) + symmetric(2, 2).nodes)
        assert codes(validate_scenario(s)) == [NONFINITE_COST]

    def test_single_file(self):
        s = Scenario(files=1, nodes=(Node(CostParams(1, 1), 0), Node(CostParams(1, 1), 0)))
        assert TOO_FEW_FILES in codes(validate_scenario(s))

    def test_needs_out_of_range(self):
        s = Scenario(files=2, nodes=(Node(CostParams(1, 1), 5),) + symmetric(2, 2).nodes)
        assert BAD_FILE_ID in codes(validate_scenario(s))

    def test_all_violations_reported_together(self):
        s = Scenario(
            files=1,
            nodes=(Node(CostParams(-1.0, 1.0), 0), Node(CostParams(1.0, 1.0), 0)),
        )
        got = codes(validate_scenario(s))
        assert TOO_FEW_FILES in got and NONPOSITIVE_COST in got

    def test_empty_group(self):
        # file 2 exists but nobody needs it
        s = Scenario(files=3, nodes=symmetric(2, 2).nodes)
        assert codes(validate_scenario(s)) == [GROUP_TOO_SMALL]

    def test_require_valid_raises_with_all_violations(self):
        s = two_file([1.0], [1.0])
        with pytest.raises(ScenarioError) as exc_info:
            require_valid(s)
        assert len(exc_info.value.violations) == 2

    def test_require_valid_passthrough(self, sym_10_10):
        assert require_valid(sym_10_10) is sym_10_10


class TestGroupRatioSums:
    def test_symmetric_group(self, sym_10_10):
        assert group_ratio_sums(sym_10_10)[0] == (10, 10.0)

    def test_heterogeneous_sum(self):
        s = two_file([1.0, 2.0], [1.0, 1.0])
        assert group_ratio_sums(s)[0] == (2, 3.0)

    def test_complement_by_subtraction(self):
        s = symmetric(3, 10)
        sums = group_ratio_sums(s)
        total = sum(v for _, v in sums.values())
        for f in range(3):
            assert total - sums[f][1] == pytest.approx(20.0, abs=1e-12)


class TestConfig:
    def test_round_trip(self, tmp_path, sym_2_2):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_to_dict(sym_2_2, seed=42)))
        loaded, seed = load_scenario(path)
        assert loaded == sym_2_2
        assert seed == 42

    def test_missing_field(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict({"files": 2})

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_no_seed(self, sym_2_2):
        s, seed = scenario_from_dict(scenario_to_dict(sym_2_2))
        assert seed is None and s == sym_2_2


class TestMetrics:
    def test_avg_cost_formula(self, sym_2_2):
        m = Metrics(sym_2_2)
        m.downloads += 4
        m.uploads[0] = 2
        m.elapsed = 10.0
        m.rounds = 4
        # (2 uploads * g + 10 time * w) / 4 downloads
        assert m.avg_total_cost(0) == pytest.approx((2 * 1.0 + 10.0 * 1.0) / 4)

    def test_throughput_is_mean_over_nodes(self, sym_2_2):
        m = Metrics(sym_2_2)
        m.downloads[:] = [4, 4, 2, 2]
        m.elapsed = 8.0
        assert m.per_node_throughput() == pytest.approx(np.mean([0.5, 0.5, 0.25, 0.25]))

    def test_no_downloads_gives_inf(self, sym_2_2):
        m = Metrics(sym_2_2)
        m.elapsed = 1.0
        assert m.avg_total_cost(0) == float("inf")

    def test_ratio(self):
        assert CostParams(w=3.0, g=2.0).ratio() == pytest.approx(1.5)


class TestAtomicOpen:
    def test_replaces_on_success(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        with atomic_open(path) as fh:
            fh.write("new\r\n")
            assert path.read_text() == "old\n"
        assert path.read_bytes() == b"new\r\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_error_keeps_old_file_and_removes_partial(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_open(path) as fh:
                fh.write("partial")
                raise RuntimeError("stalled")
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_keeps_mode_of_existing_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        path.chmod(0o640)
        with atomic_open(path) as fh:
            fh.write("new\n")
        assert (path.stat().st_mode & 0o777, path.read_text()) == (0o640, "new\n")

    def test_writes_through_symlink(self, tmp_path):
        target = tmp_path / "real" / "out.csv"
        target.parent.mkdir()
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        with atomic_open(link) as fh:
            fh.write("new\n")
        assert link.is_symlink() and target.read_text() == "new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real"]
        assert list(target.parent.iterdir()) == [target]

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        with atomic_open(fifo) as fh:
            fh.write("row\n")
        reader.join(timeout=10)
        assert got == ["row\n"]
        assert fifo.is_fifo() and list(tmp_path.iterdir()) == [fifo]

    def test_no_new_file_allowed_beside_target(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        path.write_text("old\n")

        def no_partial(file, *args, **kwargs):
            if str(file).endswith(".partial"):
                raise PermissionError(13, "Permission denied", str(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(bxsim.model, "open", no_partial, raising=False)
        with atomic_open(path) as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n" and list(tmp_path.iterdir()) == [path]
