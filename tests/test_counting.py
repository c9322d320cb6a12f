"""Closed-form counts against enumeration, and the orbit tables."""

import math
from collections import Counter

import pytest

from semipath import (
    InvariantError,
    SemigroupPair,
    Semimodule,
    catalan,
    count_ell_periodic,
    count_fixed_points,
    count_lean_sets,
    count_lean_sets_total,
    enumerate_lean_sets,
    narayana,
    orbit_count_table,
    syzygy_period,
)

S57 = SemigroupPair(5, 7)
S1516 = SemigroupPair(15, 16)


def catalan_by_recurrence(limit):
    """Oracle: C_0 = 1, C_n = sum C_i * C_(n-1-i)."""
    values = [1]
    for n in range(1, limit + 1):
        values.append(sum(values[i] * values[n - 1 - i] for i in range(n)))
    return values


def test_count_lean_sets_examples():
    assert count_lean_sets(S1516, 11) == 41405
    assert count_lean_sets(S57, 3) == 20
    assert count_lean_sets(S57, 0) == 1
    assert count_lean_sets(S57, 5) == 0
    with pytest.raises(ValueError):
        count_lean_sets(S57, -1)


def test_count_totals_examples():
    assert count_lean_sets_total(S57) == 66
    assert count_lean_sets_total(SemigroupPair(2, 3)) == 2
    assert count_lean_sets_total(SemigroupPair(4, 5)) == 14
    assert count_lean_sets_total(S57) == sum(count_lean_sets(S57, r) for r in range(5))


def test_narayana_catalan_examples():
    assert narayana(4, 1) == 6
    assert catalan(4) == 14
    for alpha in range(2, 11):
        assert narayana(alpha, 0) == 1


def test_count_ell_periodic_replicates_worked_example():
    expected = {1: 1, 2: 7, 3: 91, 4: 455, 6: 637, 12: 41405}
    for ell, value in expected.items():
        assert count_ell_periodic(S1516, 12, ell) == value


def test_count_ell_periodic_zero_extension():
    assert count_ell_periodic(S57, 4, 2) == 0
    assert count_ell_periodic(S57, 4, 1) == 0
    brute = Counter(
        syzygy_period(S57, Semimodule(S57, lean.members)).period
        for lean in enumerate_lean_sets(S57, 3)
    )
    assert brute == {4: 20}


def test_count_ell_periodic_validation():
    with pytest.raises(ValueError):
        count_ell_periodic(S57, 4, 3)
    with pytest.raises(ValueError):
        count_ell_periodic(S57, 6, 1)
    with pytest.raises(ValueError):
        count_ell_periodic(S57, 0, 1)


def test_ell_equals_n_gives_all_modules():
    for pair in (S57, SemigroupPair(4, 9), S1516):
        for n in range(1, pair.alpha + 1):
            assert count_ell_periodic(pair, n, n) == count_lean_sets(pair, n - 1)


def test_count_fixed_points_examples():
    assert count_fixed_points(S1516, 12) == 1
    assert count_fixed_points(S57, 5) == 3
    assert count_fixed_points(S57, 4) == 0
    assert count_fixed_points(S57, 5) == count_lean_sets(S57, 4)


def test_fixed_points_equal_one_periodic():
    for pair in (S57, SemigroupPair(6, 35), S1516):
        for n in range(1, pair.alpha + 1):
            assert count_fixed_points(pair, n) == count_ell_periodic(pair, n, 1)


def test_orbit_table_replicates_worked_example():
    table = orbit_count_table(S1516, 12)
    assert [row.ell for row in table.rows] == [1, 2, 3, 4, 6, 12]
    assert {row.ell: row.orbits for row in table.rows} == {
        1: 1, 2: 3, 3: 30, 4: 112, 6: 90, 12: 3360,
    }
    assert {row.ell: row.exact for row in table.rows} == {
        1: 1, 2: 6, 3: 90, 4: 448, 6: 540, 12: 40320,
    }
    assert table.to_json()["rows"][0] == {"ell": 1, "A": 1, "exact": 1, "orbits": 1}


def test_orbit_table_5_7():
    table = orbit_count_table(S57, 4)
    assert {row.ell: row.exact for row in table.rows} == {1: 0, 2: 0, 4: 20}
    assert {row.ell: row.orbits for row in table.rows} == {1: 0, 2: 0, 4: 5}


def test_exact_counts_partition_all_modules():
    for pair in (S57, SemigroupPair(6, 35), S1516):
        for n in range(1, pair.alpha + 1):
            table = orbit_count_table(pair, n)
            assert sum(row.exact for row in table.rows) == count_lean_sets(pair, n - 1)
            for row in table.rows:
                assert row.exact % row.ell == 0


def test_brute_tallies_match_tables_for_small_n_15_16():
    from semipath.verify import brute_period_tally

    for n in (2, 3):
        tally = brute_period_tally(S1516, n)
        table = orbit_count_table(S1516, n)
        for row in table.rows:
            assert tally.get(row.ell, 0) == row.exact
        assert sum(tally.values()) == count_lean_sets(S1516, n - 1)


def test_catalan_narayana_against_lean_counts():
    oracle = catalan_by_recurrence(10)
    for alpha in range(2, 11):
        pair = SemigroupPair(alpha, alpha + 1)
        assert count_lean_sets_total(pair) == oracle[alpha] == catalan(alpha)
        for r in range(alpha):
            assert count_lean_sets(pair, r) == narayana(alpha, r)
        assert sum(narayana(alpha, r) for r in range(alpha)) == catalan(alpha)


def test_formula_counts_are_integers_across_sweep():
    for alpha in range(2, 9):
        for beta in range(alpha + 1, 14):
            if math.gcd(alpha, beta) != 1:
                continue
            pair = SemigroupPair(alpha, beta)
            for n in range(1, alpha + 1):
                orbit_count_table(pair, n)
