from __future__ import annotations

import io
import json
import os
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import bxsim.model
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bxsim.errors import (
    BAD_CONFIG,
    BAD_FILE_ID,
    GROUP_TOO_SMALL,
    NONFINITE_COST,
    NONPOSITIVE_COST,
    TOO_FEW_FILES,
    ScenarioError,
)
from bxsim.model import (
    Scenario,
    atomic_open,
    load_scenario,
    scenario_from_dict,
)

from bxsim.cli import main
from conftest import (
    reference_scenario_from_dict,
    reference_violations,
    scenario_to_dict,
    shuffled_scenarios,
    symmetric,
    two_file,
)


def codes(violations):
    return [v.code for v in violations]


def with_first_node(w, g, needs, s: Scenario) -> Scenario:
    """``s`` with one more node, (w, g, needs), in front of its others."""
    return Scenario(files=s.files, w=[w, *s.w], g=[g, *s.g], needs=[needs, *s.needs])


def raised(build) -> list:
    """The violations of the ScenarioError that ``build()`` raises."""
    with pytest.raises(ScenarioError) as exc_info:
        build()
    return exc_info.value.violations


class TestValidation:
    def test_symmetric_scenario_is_valid(self):
        assert symmetric(2, 10).n_nodes == 20  # building raises on any violation

    def test_group_of_one(self):
        assert codes(raised(lambda: two_file([1.0], [1.0, 1.0]))) == [GROUP_TOO_SMALL]

    def test_zero_transmission_cost(self):
        violations = raised(
            lambda: Scenario(files=2, w=[1.0, 1.0, 1.0, 1.0], g=[0.0, 1.0, 1.0, 1.0], needs=[0, 0, 1, 1])
        )
        assert codes(violations) == [NONPOSITIVE_COST]

    @pytest.mark.parametrize("w,g", [(float("inf"), 1.0), (1.0, float("inf")), (float("nan"), 1.0)])
    def test_non_finite_cost(self, w, g):
        assert codes(raised(lambda: with_first_node(w, g, 0, symmetric(2, 2)))) == [NONFINITE_COST]

    def test_overflowing_ratio(self):
        # w and g are finite and positive, but w/g overflows to inf
        violations = raised(lambda: with_first_node(1.0, 1e-320, 0, symmetric(2, 2)))
        assert codes(violations) == [NONFINITE_COST]
        assert "node 0" in violations[0].message and "overflows" in violations[0].message

    def test_single_file(self):
        assert TOO_FEW_FILES in codes(raised(lambda: Scenario(files=1, w=[1, 1], g=[1, 1], needs=[0, 0])))

    def test_needs_out_of_range(self):
        assert BAD_FILE_ID in codes(raised(lambda: with_first_node(1, 1, 5, symmetric(2, 2))))

    def test_all_violations_reported_together(self):
        got = codes(raised(lambda: Scenario(files=1, w=[-1.0, 1.0], g=[1.0, 1.0], needs=[0, 0])))
        assert TOO_FEW_FILES in got and NONPOSITIVE_COST in got

    def test_empty_group(self):
        # file 2 exists but nobody needs it
        assert codes(raised(lambda: replace(symmetric(2, 2), files=3))) == [GROUP_TOO_SMALL]

    def test_require_valid_raises_with_all_violations(self):
        assert len(raised(lambda: two_file([1.0], [1.0]))) == 2

    def test_more_files_than_nodes_is_one_violation(self):
        # no per-file work: a billion files on 4 nodes is one violation
        violations = raised(lambda: replace(symmetric(2, 2), files=10**9))
        assert codes(violations) == [GROUP_TOO_SMALL]
        assert "1000000000 files" in violations[0].message and "has 4" in violations[0].message

    def test_group_sizes_skip_invalid_needs(self):
        # group sizes [1, 0, 2]: nodes 1 and 3 need no file of the 3
        violations = raised(lambda: Scenario(files=3, w=[1] * 5, g=[1] * 5, needs=[2, -1, 0, 10**30, 2]))
        assert [v.message for v in violations if v.code == GROUP_TOO_SMALL] == [
            "file 0 is needed by 1 node(s); need at least 2",
            "file 1 is needed by 0 node(s); need at least 2",
        ]

    def test_overflowing_group_response_duration(self):
        # finite w/g, but (2 - 1) / (2e-320) overflows: the group never answers in finite time
        violations = raised(lambda: two_file([1e-320, 1e-320], [1.0, 1.0]))
        assert codes(violations) == [NONFINITE_COST]
        assert "2 nodes that need file 0" in violations[0].message and "2e-320" in violations[0].message

    def test_overflowing_complement_response_duration(self):
        # groups 1 and 2 each have a finite duration 1 / (2r), but the four
        # nodes holding file 0 have 3 / (4r) > the largest float
        r = 3.5e-309
        violations = raised(lambda: Scenario(files=3, w=[1.0, 1.0, r, r, r, r], g=[1.0] * 6, needs=[0, 0, 1, 1, 2, 2]))
        assert codes(violations) == [NONFINITE_COST]
        assert "the 4 nodes that hold file 0" in violations[0].message

    def test_overflowing_ratio_sum(self):
        # each w/g is finite, their sum is not: the duration would be 0
        assert codes(raised(lambda: two_file([1e308, 1e308], [1.0, 1.0]))) == [NONFINITE_COST]


def group_ratio_sum(s: Scenario, f: int) -> tuple[int, float]:
    """(group size, sum of w/g over the nodes needing f) as the scenario keeps them."""
    return int(s.group_sizes()[f]), float(s.group_sums[0, f])


class TestGroupRatioSums:
    def test_symmetric_group(self, sym_10_10):
        assert group_ratio_sum(sym_10_10, 0) == (10, 10.0)

    def test_heterogeneous_sum(self):
        s = two_file([1.0, 2.0], [1.0, 1.0])
        assert group_ratio_sum(s, 0) == (2, 3.0)

    def test_complement_by_subtraction(self):
        s = symmetric(3, 10)
        sums = [group_ratio_sum(s, f)[1] for f in range(3)]
        for f in range(3):
            assert sum(sums) - sums[f] == pytest.approx(20.0, abs=1e-12)
            assert s.group_sums[1, f] == pytest.approx(20.0, abs=1e-12)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(s=shuffled_scenarios(st.integers(2, 6)))
    def test_sums_of_each_group_and_its_holders(self, s):
        # np.sum over each node set in id order, bit for bit; read-only
        want = [[np.sum(s.ratios[(s.needs == x) == need]) for x in range(s.files)] for need in (True, False)]
        assert s.group_sums.shape == (2, s.files) and s.group_sums.tolist() == np.array(want).tolist()
        assert not s.group_sums.flags.writeable
        if s.files == 2:
            assert s.group_sums[1].tolist() == s.group_sums[0, ::-1].tolist()


class TestArrays:
    def test_per_node_arrays(self):
        # the two nodes twice over, so that each group has the 2 it needs
        s = Scenario(files=2, w=[3.0, 1.0] * 2, g=[2.0, 4.0] * 2, needs=[1, 0] * 2)
        assert s.w.tolist() == [3.0, 1.0] * 2 and s.g.tolist() == [2.0, 4.0] * 2
        assert s.ratios.tolist() == [1.5, 0.25] * 2 and s.needs.tolist() == [1, 0] * 2

    def test_columns_are_read_only_copies(self):
        w = np.array([1.0, 2.0, 1.0, 2.0])
        s = Scenario(files=2, w=w, g=[1, 1, 1, 1], needs=[0, 0, 1, 1])
        w[0] = 5.0
        assert s.w[0] == 1.0 and (s.w.dtype, s.g.dtype, s.needs.dtype) == (np.float64, np.float64, np.int64)
        for column in (s.w, s.g, s.needs):
            with pytest.raises(ValueError):
                column[0] = 3

    def test_equality_is_on_files_and_columns(self):
        s = symmetric(2, 2)
        assert s == Scenario(files=2, w=[1, 1, 1, 1], g=[1.0] * 4, needs=np.array([0, 0, 1, 1]))
        assert s != replace(s, w=[1.0, 1.0, 1.0, 2.0]) and s != symmetric(2, 3)
        assert s != replace(s, needs=[0, 1, 0, 1]) and s != "scenario"
        # the same columns with another file count leave file 2 unneeded, so no such scenario is built
        assert codes(raised(lambda: replace(s, files=3))) == [GROUP_TOO_SMALL]

    def test_columns_must_have_one_length(self):
        with pytest.raises(ValueError):
            Scenario(files=2, w=[1.0, 1.0], g=[1.0], needs=[0, 1])

    def test_needs_beyond_int64_is_kept_exactly(self):
        (violation,) = raised(lambda: with_first_node(1.0, 1.0, 10**30, symmetric(2, 2)))
        assert str(violation) == f"{BAD_FILE_ID}: node 0 needs file {10**30}, valid range is 0..1"

    def test_messages_carry_python_numbers(self):
        violations = raised(lambda: with_first_node(float("nan"), 2.5, 7, symmetric(2, 2)))
        assert [v.message for v in violations] == [
            "node 0 needs file 7, valid range is 0..1",
            "node 0 has w=nan, g=2.5; both must be finite and > 0",
        ]


def node_config(**fields) -> dict:
    """A valid 2+2 config whose node 1 has ``fields`` replaced."""
    data = scenario_to_dict(symmetric(2, 2))
    data["nodes"][1].update(fields)
    return data


class TestConfig:
    @pytest.mark.parametrize(
        "fields",
        [{"needs": 0.7}, {"needs": True}, {"needs": "1"}, {"w": True}, {"g": False}, {"w": "1.0"}, {"w": 10**400}],
    )
    def test_field_is_never_coerced(self, fields):
        with pytest.raises(ScenarioError) as exc_info:
            scenario_from_dict(node_config(**fields))
        (violation,) = exc_info.value.violations
        assert violation.code == BAD_CONFIG and "node 1" in violation.message

    @pytest.mark.parametrize("files", [2.5, True, "2", None])
    def test_files_must_be_an_integer(self, files):
        with pytest.raises(ScenarioError) as exc_info:
            scenario_from_dict({**node_config(), "files": files})
        assert codes(exc_info.value.violations) == [BAD_CONFIG]

    def test_bad_fields_reported_together(self):
        data = node_config(needs=0.7, w=True)
        data["nodes"][3] = {"w": 1.0, "g": 1.0}
        data["seed"] = 1.5
        with pytest.raises(ScenarioError) as exc_info:
            scenario_from_dict(data)
        assert codes(exc_info.value.violations) == [BAD_CONFIG] * 4
        expected = ["node 1 has w=True", "node 1 has needs=0.7", "node 3 has no 'needs'", "config has seed=1.5"]
        assert all(part in v.message for part, v in zip(expected, exc_info.value.violations))

    def test_integral_numbers_are_kept(self):
        data = {**node_config(needs=1.0, w=2), "files": 2.0, "seed": 7.0}
        data["nodes"].append({"w": 1.0, "g": 1.0, "needs": 0})  # file 0 keeps 2 needers
        s, seed = scenario_from_dict(data)
        assert (s.files, s.needs[1], seed) == (2, 1, 7)
        assert s.needs.dtype == np.int64 and s.w.dtype == np.float64 and type(s.files) is type(seed) is int


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


# Values that no field accepts, and values that some field accepts but
# validation may reject; together with missing fields and nodes that are not
# objects they cover every BAD_CONFIG path of the reader.
WRONG_TYPES = [True, False, None, "1", [1], {}, 10**400, 2**1024 - 1, 2**1023 + 2**970]
BAD_NUMBERS = [float("inf"), 5, 0, -1, 1e-320, float("nan"), 2.0, 10**30, -0.5, 0.7, 3.5e-309, 1e30, -(10**400),
               float("-inf")]
NOT_OBJECTS = [3, 1.5, "node", [1.0, 1.0, 0], None, True]


@st.composite
def config_node(draw, n: int, files: int, bad_share: int, kinds: list[str]):
    """Node ``n``: w, g in [0.5, 2] and needs n % files; about ``bad_share``
    in 10 nodes instead lose a field, get a bad value (one of ``kinds``), or
    are not objects."""
    node = {"w": draw(st.floats(0.5, 2.0)), "g": draw(st.floats(0.5, 2.0)), "needs": n % files}
    if draw(st.integers(0, 9)) >= bad_share:
        return node
    kind, key = draw(st.sampled_from(kinds)), draw(st.sampled_from(["g", "needs", "w"]))
    if kind == "object":
        return draw(st.sampled_from(NOT_OBJECTS))
    if kind == "missing":
        del node[key]
    else:
        node[key] = draw(st.sampled_from(WRONG_TYPES if kind == "type" else BAD_NUMBERS))
    return node


@st.composite
def malformed_configs(draw) -> dict:
    """Configs that mix valid nodes with bad fields, at every level; in about
    half of them every field is a number, so validation sees them."""
    numbers_only = draw(st.booleans())
    kinds = ["number"] if numbers_only else ["number", "type", "missing", "object"]
    files, bad_share = draw(st.integers(2, 3)), draw(st.sampled_from([0, 1, 3, 6]))
    size = draw(st.integers(2 * files, 12) if draw(st.integers(0, 4)) else st.integers(0, 2 * files))
    data = {"files": files, "nodes": [draw(config_node(n, files, bad_share, kinds)) for n in range(size)]}
    if draw(st.integers(0, 5)) == 0:
        data["files"] = draw(st.sampled_from(BAD_NUMBERS + [1e300] + ([] if numbers_only else WRONG_TYPES)))
    if draw(st.integers(0, 3)) == 0:
        data["seed"] = draw(st.sampled_from([None, 7, 7.0] if numbers_only else [1.5, True, "7", 10**400, -1, -2.0]))
    if not numbers_only and draw(st.integers(0, 9)) == 0:
        data["nodes"] = draw(st.sampled_from([{}, "nodes", 4, None]))
    for key in ("files", "nodes"):
        if not numbers_only and draw(st.integers(0, 9)) == 0:
            del data[key]
    return data


def float_bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def read_and_validate(data: dict) -> tuple:
    """(violations, columns) from the column reader; columns is None when
    the config is malformed or its scenario is not valid."""
    try:
        s, seed = scenario_from_dict(data)
    except ScenarioError as exc:
        return exc.violations, None
    return [], (s.files, float_bits(s.w), float_bits(s.g), s.needs.tolist(), seed)


def reference_read_and_validate(data: dict) -> tuple:
    try:
        files, w, g, needs, seed = reference_scenario_from_dict(data)
    except ScenarioError as exc:
        return exc.violations, None
    violations = reference_violations(files, w, g, needs)
    return violations, None if violations else (files, float_bits(w), float_bits(g), needs, seed)


class TestMalformedConfigs:
    @given(malformed_configs())
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_reader_matches_per_node_reference(self, data):
        violations, columns = read_and_validate(data)
        ref_violations, ref_columns = reference_read_and_validate(data)
        assert violations == ref_violations
        assert columns == ref_columns
        if columns is not None:
            assert type(columns[0]) is int and type(columns[4]) in (int, type(None))

    def test_generator_covers_every_outcome(self):
        # the suite above must see clean configs and each kind of violation
        seen = set()

        @given(malformed_configs())
        @settings(max_examples=400, derandomize=True, deadline=None)
        def collect(data):
            violations, _ = read_and_validate(data)
            seen.update(codes(violations) or ["valid"])

        collect()
        assert seen >= {"valid", BAD_CONFIG, BAD_FILE_ID, NONPOSITIVE_COST, NONFINITE_COST, GROUP_TOO_SMALL}

    @given(malformed_configs())
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_ne_exits_2_listing_every_violation(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            config, out = Path(tmp) / "config.json", Path(tmp) / "out.csv"
            config.write_text(json.dumps(data))
            violations, _ = read_and_validate(json.loads(config.read_text()))
            err = io.StringIO()
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                code = main(["ne", "--config", str(config), "--out", str(out)])
            if violations:
                assert code == 2 and not out.exists()
                assert err.getvalue().splitlines() == ["invalid scenario:"] + [f"  {v}" for v in violations]
            else:
                assert code in (0, 2, 3)


class TestAtomicOpen:
    def test_replaces_on_success(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        out = atomic_open(path)
        out.write("new\r\n")
        assert path.read_text() == "old\n"
        out.close(keep=True)
        assert path.read_bytes() == b"new\r\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_error_keeps_old_file_and_removes_partial(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        out = atomic_open(path)
        out.write("partial")
        out.close()
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_keeps_mode_of_existing_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        path.chmod(0o640)
        out = atomic_open(path)
        out.write("new\n")
        out.close(keep=True)
        assert (path.stat().st_mode & 0o777, path.read_text()) == (0o640, "new\n")

    def test_writes_through_symlink(self, tmp_path):
        target = tmp_path / "real" / "out.csv"
        target.parent.mkdir()
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        out = atomic_open(link)
        out.write("new\n")
        out.close(keep=True)
        assert link.is_symlink() and target.read_text() == "new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real"]
        assert list(target.parent.iterdir()) == [target]

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        out = atomic_open(fifo)
        out.write("row\n")
        out.close()
        reader.join(timeout=10)
        assert got == ["row\n"]
        assert fifo.is_fifo() and list(tmp_path.iterdir()) == [fifo]

    def test_write_failing_at_close_keeps_old_file_and_removes_partial(self, tmp_path, monkeypatch):
        # a full disk fails a buffered write only when the file is closed
        path = tmp_path / "out.csv"
        path.write_text("old\n")

        class Full(io.StringIO):
            def close(self):
                super().close()
                raise OSError(28, "No space left on device")

        def full_partial(file, *args, **kwargs):
            if str(file).endswith(".partial"):
                open(file, *args, **kwargs).close()
                return Full()
            return open(file, *args, **kwargs)

        monkeypatch.setattr(bxsim.model, "open", full_partial, raising=False)
        out = atomic_open(path)
        out.write("new\n")
        with pytest.raises(OSError, match="No space left"):
            out.close(keep=True)
        assert path.read_text() == "old\n" and list(tmp_path.iterdir()) == [path]

    def test_no_new_file_allowed_beside_target(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        path.write_text("old\n")

        def no_partial(file, *args, **kwargs):
            if str(file).endswith(".partial"):
                raise PermissionError(13, "Permission denied", str(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(bxsim.model, "open", no_partial, raising=False)
        with pytest.raises(PermissionError):
            atomic_open(path)
        assert path.read_text() == "old\n" and list(tmp_path.iterdir()) == [path]
