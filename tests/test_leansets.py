"""Lean-set recognition and enumeration."""

import math
import tracemalloc
from collections import Counter, deque
from itertools import combinations

import pytest

import semipath.leansets
from semipath import (
    LeanSet,
    SemigroupPair,
    count_lean_sets,
    count_lean_sets_total,
    enumerate_lean_sets,
    gaps,
    is_lean,
    is_member,
)
from semipath.leansets import _gap_chains, _results
from semipath.verify import run_checks
from test_cli import _walk_in

S57 = SemigroupPair(5, 7)
S23 = SemigroupPair(2, 3)


def brute_lean_sets(pair):
    """Oracle: filter all subsets of the gaps by the pairwise definition."""
    gap_values = [g.value for g in gaps(pair)]
    out = []
    for size in range(len(gap_values) + 1):
        for chosen in combinations(gap_values, size):
            values = (0,) + chosen
            if all(not is_member(pair, y - x) for x, y in combinations(sorted(values), 2)):
                out.append(frozenset(values))
    return out


def successor_reach(pair):
    """The gap points in (a, b) order, the indices of each one's successors
    (the later points with smaller b), and each one's reach, the most points
    a chain from it can have, by a DP over those successors."""
    points = sorted(gaps(pair), key=lambda g: (g.a, g.b))
    count = len(points)
    succ = [
        [j for j in range(i + 1, count) if points[j].a > points[i].a and points[j].b < points[i].b]
        for i in range(count)
    ]
    reach = [1] * count
    for i in reversed(range(count)):
        reach[i] = 1 + max((reach[j] for j in succ[i]), default=0)
    return points, succ, reach


def recursive_gap_chains(pair, gap_count=None):
    """Reference walker: the depth-first recursion, one generator frame per
    level, pruned by the successor DP's reach."""
    points, succ, reach = successor_reach(pair)
    count = len(points)
    chain = []

    def walk(cands):
        depth = len(chain)
        if gap_count is None:
            yield tuple(chain)
        elif depth == gap_count:
            yield tuple(chain)
            return
        for i in cands:
            if gap_count is not None and depth + reach[i] < gap_count:
                continue
            chain.append(points[i])
            yield from walk(succ[i])
            chain.pop()

    yield from walk(range(count))


@pytest.mark.parametrize(
    "xs,expected",
    [
        ({0, 9, 6, 8}, True),
        ({0, 5}, False),
        ({0}, True),
        ({0, 23}, True),
    ],
)
def test_is_lean_examples(xs, expected):
    assert is_lean(S57, xs) is expected


def test_is_lean_requires_zero():
    with pytest.raises(ValueError):
        is_lean(S57, {6, 8, 9})
    with pytest.raises(ValueError):
        is_lean(S57, set())


def test_enumerate_2_3():
    assert [l.members for l in enumerate_lean_sets(S23)] == [(0,), (0, 1)]


def test_enumerate_5_7_counts():
    assert sum(1 for _ in enumerate_lean_sets(S57)) == 66
    assert sum(1 for _ in enumerate_lean_sets(S57, 3)) == 20
    assert [l.members for l in enumerate_lean_sets(S57, 0)] == [(0,)]


def test_enumerate_order_snapshot():
    first = [l.members for l in enumerate_lean_sets(S57)][:8]
    assert first == [
        (0,),
        (0, 23),
        (0, 16),
        (0, 16, 18),
        (0, 13, 16),
        (0, 8, 16),
        (0, 3, 16),
        (0, 9),
    ]


def test_enumerate_is_lexicographic_in_a_sequences():
    chains = [tuple(p.a for p in l.gap_points) for l in enumerate_lean_sets(S57)]
    prefix_order = [tuple((p.a, p.b) for p in l.gap_points) for l in enumerate_lean_sets(S57)]
    assert prefix_order == sorted(prefix_order)
    assert chains == [tuple(p[0] for p in c) for c in sorted(prefix_order)]


def test_enumerate_matches_brute_force():
    for pair in (S23, S57, SemigroupPair(4, 7), SemigroupPair(3, 8)):
        expected = Counter(len(s) - 1 for s in brute_lean_sets(pair))
        streamed = list(enumerate_lean_sets(pair))
        got = Counter(l.gap_count for l in streamed)
        assert got == expected
        assert {frozenset(l.members) for l in streamed} == set(brute_lean_sets(pair))


def test_stream_properties():
    seen = set()
    for lean in enumerate_lean_sets(S57):
        assert is_lean(S57, lean.members)
        assert lean.members not in seen
        seen.add(lean.members)
        avals = [p.a for p in lean.gap_points]
        bvals = [p.b for p in lean.gap_points]
        assert avals == sorted(avals) and len(set(avals)) == len(avals)
        assert bvals == sorted(bvals, reverse=True) and len(set(bvals)) == len(bvals)
        assert len(lean.members) <= S57.alpha


def test_filtered_stream_is_subsequence():
    full = [l.members for l in enumerate_lean_sets(S57)]
    for r in range(S57.alpha):
        filtered = [l.members for l in enumerate_lean_sets(S57, r)]
        assert filtered == [m for m in full if len(m) == r + 1]


def test_filter_bounds():
    with pytest.raises(ValueError):
        list(enumerate_lean_sets(S57, 5))
    with pytest.raises(ValueError):
        list(enumerate_lean_sets(S57, -1))


@pytest.mark.parametrize("gap_count", [9, -1, 1.0, True])
def test_enumerate_lean_sets_checks_its_gap_count_at_the_call(gap_count):
    # Not at the first next(): a stream handed on unread still fails here.
    with pytest.raises(ValueError, match="gap count"):
        enumerate_lean_sets(S57, gap_count)


def test_counts_match_formulas_small_sweep():
    for alpha in range(2, 9):
        for beta in range(alpha + 1, 14):
            if math.gcd(alpha, beta) != 1:
                continue
            pair = SemigroupPair(alpha, beta)
            per_r = Counter(l.gap_count for l in enumerate_lean_sets(pair))
            for r in range(alpha):
                assert per_r.get(r, 0) == count_lean_sets(pair, r)
            assert sum(per_r.values()) == count_lean_sets_total(pair)


def test_from_members_normalises_order_and_validates():
    lean = LeanSet.from_members(S57, [8, 0, 9, 6])
    assert lean.members == (0, 6, 8, 9)
    assert [(p.a, p.b) for p in lean.gap_points] == [(1, 3), (3, 2), (4, 1)]
    with pytest.raises(ValueError):
        LeanSet.from_members(S57, [0, 5])


def test_the_lean_set_constructor_checks_its_members():
    # No public call may build a set whose members and gap points disagree,
    # such as (0, 5) with no gap points: 5 lies in <5,7>.
    with pytest.raises(TypeError):
        LeanSet(S57, (0, 5), ())
    with pytest.raises(ValueError, match="is not a lean set"):
        LeanSet(S57, (0, 5))
    with pytest.raises(ValueError, match="strictly ascending tuple"):
        LeanSet(S57, (0, 9, 6, 8))
    with pytest.raises(ValueError, match="must be integers"):
        LeanSet(S57, (0, 1.0))
    with pytest.raises(ValueError, match=r"must be a SemigroupPair, got \(5, 7\)"):
        LeanSet((5, 7), (0, 6))
    lean = LeanSet(S57, (0, 6, 8, 9))
    read = LeanSet.from_members(S57, {9, 8, 6, 0})
    assert lean == read and hash(lean) == hash(read)
    assert lean.gap_points == read.gap_points == next(
        l for l in enumerate_lean_sets(S57) if l.members == (0, 6, 8, 9)
    ).gap_points


def test_gap_chains_match_the_recursive_walk():
    # Every gap_count, so that the branches the reach table prunes are covered.
    for alpha in range(2, 9):
        for beta in range(alpha + 1, 14):
            if math.gcd(alpha, beta) != 1:
                continue
            pair = SemigroupPair(alpha, beta)
            for gap_count in (None, *range(alpha)):
                assert list(_gap_chains(pair, gap_count)) == list(recursive_gap_chains(pair, gap_count))


def test_the_successor_dp_reads_the_closed_form_reach():
    # _gap_chains prunes by the closed form: the longest chain from a gap
    # point (a, b) has min(beta - a, b) points, which is b, since a*alpha +
    # b*beta < alpha*beta gives a + b < beta.  The DP over successor lists
    # must agree at every gap point of every pair with beta <= 30.
    pairs = [SemigroupPair(a, b) for b in range(3, 31) for a in range(2, b) if math.gcd(a, b) == 1]
    assert len(pairs) == 248
    for pair in pairs:
        points, _, reach = successor_reach(pair)
        assert reach == [min(pair.beta - p.a, p.b) for p in points] == [p.b for p in points], pair


def test_gap_chain_setup_keeps_no_successor_list_per_point():
    # One row per b: walking the 2,415 single-point chains of (70, 71) stays
    # under 4 MiB, where a successor list per gap point holds about 16 MiB.
    pair = SemigroupPair(70, 71)
    tracemalloc.start()
    try:
        deque(_gap_chains(pair, 1), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_a_one_point_stream_builds_only_the_row_it_walks():
    # No one-point chain is extended, so the set-up fills rows[alpha] alone:
    # up to the first of the 32,896 chains of (257, 258) it peaks near 6 MiB,
    # where every row below each gap point, 5,625,216 appends, took 52 MiB.
    tracemalloc.start()
    try:
        next(_gap_chains(SemigroupPair(257, 258), 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


@pytest.mark.parametrize("pair", [S57, SemigroupPair(7, 11)], ids=["5-7", "7-11"])
def test_gap_chains_grow_exactly_the_chains_they_extend(pair):
    # item's values are yielded; grow builds a parent's value once, before
    # its first extension, and only for chains the stream extends, from the
    # value item built for the same chain.
    for gap_count in (None, *range(pair.alpha)):
        grown = []

        def grow(parent, point, value):
            grown.append((*parent, point))
            assert value == grown[-1]
            return value

        chains = list(recursive_gap_chains(pair, gap_count))
        items = _gap_chains(pair, gap_count, (), lambda parent, point: (*parent, point), grow)
        assert list(items) == chains
        assert grown == list(dict.fromkeys(c[:d] for c in chains for d in range(1, len(c))))


@pytest.mark.parametrize("parts", [1, 2, 3])
@pytest.mark.parametrize("pair, gap_count", [((7, 11), None), ((8, 13), 4)], ids=["7-11", "8-13-gens-5"])
def test_results_come_back_run_by_run_in_walk_order(monkeypatch, pair, gap_count, parts):
    # With list as the reduce, the runs of every part, joined in the order
    # they come back, are the stream of one walk; a walk in one part is one run.
    pair = SemigroupPair(*pair)
    _walk_in(monkeypatch, parts)
    runs = _results(pair, gap_count, list)
    assert [value for run in runs for value in run] == list(_gap_chains(pair, gap_count))
    assert (len(runs) == 1) == (parts == 1)


def test_a_warmed_gap_point_memo_does_not_admit_non_ints():
    # A dict lookup reads True and 1.0 as 1, so once the gap point of 1 is
    # remembered only the integer test at the boundary can refuse them.
    assert is_lean(S57, [0, 1])
    assert 1 in S57._gap_points
    for call in (
        lambda: is_lean(S57, [0, True]),
        lambda: LeanSet.from_members(S57, [0, 1.0]),
        lambda: LeanSet.from_members(S57, [0, True]),
    ):
        with pytest.raises(ValueError, match="must be integers"):
            call()


def test_chain_criterion_presents_each_value_once_per_pair(monkeypatch):
    # verify --deep meets every lean set several times; the memo on the pair
    # bounds the presentations, one per _gap_of call, by the Frobenius
    # number, 59 on <7,11>.  One part, so that every call is made in this
    # process and counted.
    _walk_in(monkeypatch, 1)
    calls = []
    gap_of = semipath.leansets._gap_of

    def counted(semigroup, n):
        calls.append(n)
        return gap_of(semigroup, n)

    monkeypatch.setattr(semipath.leansets, "_gap_of", counted)
    pair = SemigroupPair(7, 11)
    results = run_checks(pair, deep=True)
    assert all(result.ok for result in results)
    assert 0 < len(calls) <= pair.frobenius == 59
    assert len(set(calls)) == len(calls)
    # Each pair object has its own memo, so a pair built under a patched
    # kernel never reads gap points presented by the real one.
    assert SemigroupPair(7, 11)._gap_points is not SemigroupPair(7, 11)._gap_points
