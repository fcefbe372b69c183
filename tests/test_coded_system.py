"""The coded game's aggregate-rate system, solved in closed form: on raw
rows (c, d) and on scenarios, against its exact solution (the same float
rows eliminated in Fraction arithmetic) and numpy's dense solver."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bxsim.equilibrium import coded_aggregates, coded_system, solve_coded_system, two_file_durations
from bxsim.errors import NoEquilibriumError
from bxsim.model import Scenario

from conftest import SINGULAR_CODED_ROWS, coded_residuals, exact_coded_solution, shuffled_scenarios, two_file


def dense(c, d) -> np.ndarray:
    """The matrix diag(c - d) + d 1^T of the rows (c, d)."""
    c, d = np.asarray(c, dtype=float), np.asarray(d, dtype=float)
    return np.diag(c - d) + d[:, None]


def test_three_file_aggregate_matrix():
    # diag 0.9, off-diag 0.95: the symmetric solution is 1/(0.9 + 1.9)
    c, d = np.full(3, 0.9), np.full(3, 0.95)
    x = solve_coded_system(c, d)
    np.testing.assert_allclose(x, np.full(3, 1 / 2.8), atol=1e-12)
    assert np.max(np.abs(dense(c, d) @ x - 1.0)) < 1e-9


def test_duplicated_row_family():
    # with two files the complement of one group is the other, so the two
    # rows are the same row; the equilibrium is the degenerate family's
    # alpha = 0.5 member, which lies on it
    s = two_file([1.0, 1.2, 1.5], [1.1, 0.9, 1.3, 1.0])
    c, d = coded_system(s)
    assert (c[0], d[0]) == (d[1], c[1])
    big = coded_aggregates(s)
    assert np.array_equal(big, 0.5 / two_file_durations(s))
    assert np.max(np.abs(coded_residuals(c, d, big))) < 1e-9


def test_inconsistent():
    # column 0 is 0 and rows 1, 2 fix G_1 = G_2 = 1, so row 0 reads -2 = 1
    c, d = SINGULAR_CODED_ROWS[1]
    assert exact_coded_solution(c, d) is None
    with pytest.raises(NoEquilibriumError, match="^singular aggregate system"):
        solve_coded_system(np.array(c), np.array(d))


def test_rows_with_c_equal_d_are_named():
    c, d = SINGULAR_CODED_ROWS[0]
    with pytest.raises(NoEquilibriumError, match=r"^singular aggregate system: rows \[0, 1\] have c = d$"):
        solve_coded_system(np.array(c), np.array(d))


def test_zero_matrix():
    for f in (2, 3):
        with pytest.raises(NoEquilibriumError, match="^singular aggregate system"):
            solve_coded_system(np.zeros(f), np.zeros(f))


def test_random_well_conditioned_systems():
    rng = np.random.default_rng(1234)
    for _ in range(50):
        n = int(rng.integers(1, 11))
        c = rng.normal(size=n) + n
        d = rng.normal(size=n)
        x = solve_coded_system(c, d)
        assert np.max(np.abs(coded_residuals(c, d, x))) < 1e-9
        # independent oracles
        np.testing.assert_allclose(x, np.linalg.solve(dense(c, d), np.ones(n)), atol=1e-8)
        np.testing.assert_allclose(x, [float(v) for v in exact_coded_solution(c, d)], rtol=1e-10, atol=0)


def test_row_permutation_invariance():
    # renumbering the files permutes the rows and the unknowns alike
    rng = np.random.default_rng(5)
    c = rng.normal(size=4) + 4
    d = rng.normal(size=4)
    x0 = solve_coded_system(c, d)
    perm = rng.permutation(4)
    x1 = solve_coded_system(c[perm], d[perm])
    np.testing.assert_allclose(x1, x0[perm], atol=1e-12)


def test_family_nullspace_spans_solutions():
    # the two equal rows (That_A, That_B) leave the direction (That_B, -That_A)
    # free: every point along it from the equilibrium solves both rows
    s = two_file([1.0, 1.2, 1.5], [1.1, 0.9, 1.3, 1.0])
    c, d = coded_system(s)
    base = coded_aggregates(s)
    null = np.array([d[0], -c[0]])
    assert np.max(np.abs(dense(c, d) @ null)) < 1e-12
    for t in (-2.0, 0.0, 1.5):
        assert np.max(np.abs(coded_residuals(c, d, base + t * null))) < 1e-9


def unit_costs(sizes) -> Scenario:
    """Groups of the given sizes, in file order, at w = g = 1."""
    n = sum(sizes)
    return Scenario(files=len(sizes), w=np.ones(n), g=np.ones(n), needs=np.repeat(np.arange(len(sizes)), sizes))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(s=shuffled_scenarios(st.integers(3, 8), max_group=9, unequal=True))
def test_matches_exact_oracle(s):
    c, d = coded_system(s)
    exact = exact_coded_solution(c, d)
    if exact is None:
        with pytest.raises(NoEquilibriumError, match="^singular aggregate system"):
            coded_aggregates(s)
        return
    big = coded_aggregates(s)
    assert all(abs(float((got - want) / want)) <= 1e-10 for got, want in zip(big, exact))
    assert np.max(np.abs(coded_residuals(c, d, big))) <= 1e-9


def test_equal_groups_are_exact():
    # c = 1/2 and d = 3/4 in every row: each Gamma is exactly 1/2
    assert coded_aggregates(unit_costs([2, 2, 2])).tolist() == [0.5, 0.5, 0.5]


def test_half_group_needs_no_special_case():
    # the group of 6 holds half the nodes, so its row has c = d = 5/6
    s = unit_costs([2, 4, 6])
    c, d = coded_system(s)
    assert c[2] == d[2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = coded_aggregates(s)
    assert np.all(np.isfinite(big))
    assert big == pytest.approx([float(v) for v in exact_coded_solution(c, d)], rel=1e-12, abs=0)


def test_holder_sums_do_not_cancel():
    # group 0 holds nearly all the ratio mass: total - sum(group 0) is 0 in
    # floats, yet the nodes holding file 0 have sum(w/g) = 4
    s = Scenario(files=3, w=[1e20, 1e20, 1, 1, 1, 1], g=[1.0] * 6, needs=[0, 0, 1, 1, 2, 2])
    c, d = coded_system(s)
    assert d.tolist() == [0.75, 3 / 2e20, 3 / 2e20]
