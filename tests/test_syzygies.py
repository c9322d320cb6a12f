"""Fundamental couples, syzygy routes, orbit iteration."""

import hashlib
import math
import random
import sys
import tracemalloc
from collections import Counter
from dataclasses import astuple
from itertools import combinations, islice

import pytest

import semipath.leansets
import semipath.paths
import semipath.semigroup
import semipath.semimodules
import semipath.syzygies
import semipath.verify
from semipath import (
    FundamentalCouple,
    InvariantError,
    LeanSet,
    PathMatrix,
    Presentation,
    SemigroupPair,
    Semimodule,
    admissible_rotation,
    count_lean_sets_total,
    cyclic_rotations,
    elements_up_to,
    enumerate_lean_sets,
    fundamental_couple,
    gaps,
    is_isomorphic,
    is_lean,
    is_member,
    iterated_syzygy,
    lean_set_from_path,
    membership_sieve,
    minimal_generators,
    normalize,
    orbit_count_table,
    orbit_witness,
    path_from_lean_set,
    render,
    syzygy,
    syzygy_matrix,
    syzygy_oracle,
    syzygy_period,
    validate_fundamental_couple,
)
from semipath.leansets import _gap_chains
from semipath.paths import _labels, _rows
from semipath.syzygies import _pairwise_lean, _se_labels, _steps
from semipath.verify import _definitional_cycle, brute_period_tally, run_checks

S57 = SemigroupPair(5, 7)
S23 = SemigroupPair(2, 3)
S1516 = SemigroupPair(15, 16)

FIXED_POINT_GENS = (0, 4, 5, 8, 9, 10, 12, 13, 14, 17, 18, 22)
SMALL_PAIRS = [
    SemigroupPair(alpha, beta)
    for alpha in range(2, 9)
    for beta in range(alpha + 1, 14)
    if math.gcd(alpha, beta) == 1
]


def coset_elements(pair, start, bound):
    member = membership_sieve(pair, bound)
    return {start + d for d in range(bound - start + 1) if member[d]}


def random_multigen_module(rng, pair):
    gap_values = [g.value for g in gaps(pair)]
    while True:
        xs = {0, *rng.sample(gap_values, rng.randint(1, pair.alpha - 1))}
        gens = minimal_generators(pair, xs)
        if len(gens) >= 2:
            return Semimodule(pair, gens)


def test_fundamental_couple_examples():
    couple = fundamental_couple(S57, LeanSet.from_members(S57, {0, 9, 6, 8}))
    assert couple.gens == (0, 8, 6, 9)
    assert couple.syzygy_gens == (15, 13, 16, 14)
    couple = fundamental_couple(S23, LeanSet.from_members(S23, {0, 1}))
    assert (couple.gens, couple.syzygy_gens) == ((0, 1), (4, 3))
    couple = fundamental_couple(S57, LeanSet.from_members(S57, {0}))
    assert (couple.gens, couple.syzygy_gens) == ((0,), (35,))


def test_couple_json():
    couple = fundamental_couple(S57, LeanSet.from_members(S57, {0, 9, 6, 8}))
    assert couple.to_json() == {"I": [0, 8, 6, 9], "J": [15, 13, 16, 14]}


def test_validate_examples():
    assert validate_fundamental_couple(S57, (0, 8, 6, 9), (15, 13, 16, 14))
    result = validate_fundamental_couple(S57, (0, 5), (15, 14))
    assert not result and result.clause == 1 and result.index == 1
    assert validate_fundamental_couple(S23, (0, 1), (4, 3))


def test_validate_reports_first_failure():
    result = validate_fundamental_couple(S57, (3, 8), (15, 13))
    assert not result and result.clause == 0
    result = validate_fundamental_couple(S57, (0, 8, 6, 9), (15, 13, 16))
    assert not result and result.clause is None
    result = validate_fundamental_couple(S57, (0, 8, 6, 9), (15, 12, 16, 14))
    assert not result and result.clause in (1, 2)
    result = validate_fundamental_couple(S57, (0, 8, 6, 9), (15, 13, 16, 36))
    assert not result and result.clause == 1 and result.index == 3
    result = validate_fundamental_couple(S57, (0, 8, 9, 6), (15, 13, 16, 14))
    assert not result and result.clause == 2
    result = validate_fundamental_couple(S57, (0,), (5,))
    assert (result.ok, result.clause, result.index, result.message) == (
        False, 2, 0, "need J[0] >= 0 with J[0] = 0 mod beta"
    )


def _nudged(seq):
    """seq with one entry changed by -1 or +1, entry by entry."""
    for k in range(len(seq)):
        for step in (-1, 1):
            yield seq[:k] + (seq[k] + step,) + seq[k + 1:]


def couple_variants(pair):
    """Each lean set's couple (I, J), then every +-1 change to one entry of I
    or of J, then every swap of two adjacent entries of I."""
    for lean in enumerate_lean_sets(pair):
        couple = fundamental_couple(pair, lean)
        i, j = couple.gens, couple.syzygy_gens
        yield i, j
        yield from ((changed, j) for changed in _nudged(i))
        yield from ((i, changed) for changed in _nudged(j))
        yield from ((i[:k] + (i[k + 1], i[k]) + i[k + 2:], j) for k in range(len(i) - 1))


def test_couple_verdicts_are_pinned():
    # sha256 of every verdict's repr (ok, clause, index, message), one per
    # line, over the couples of all lean sets of the small pairs and their
    # one-step corruptions: 706,585 verdicts, 29,912 of them passing.
    digest = hashlib.sha256()
    for pair in SMALL_PAIRS:
        for i, j in couple_variants(pair):
            digest.update(f"{validate_fundamental_couple(pair, i, j)!r}\n".encode())
    assert digest.hexdigest() == "535c0330f407482381f8904b95f2aea007942ec1290d2a59a5b4b1a13c5f578b"


def test_the_pairwise_gap_test_is_the_definition_of_leanness():
    # Checked against a double loop over membership by presentation, on
    # seeded lists of distinct values, seeded lists that may hold repeats and
    # negative values, and on a repeat, a span past the Frobenius number, a
    # span of exactly that number and the empty list.  verify reads this one
    # test.
    pair, rng = SemigroupPair(7, 11), random.Random(711)
    lists = [rng.sample(range(2 * pair.product), rng.randint(0, 6)) for _ in range(500)]
    loose = [[rng.randint(-9, pair.frobenius + 10) for _ in range(rng.randint(0, 7))] for _ in range(500)]
    assert any(len(set(v)) < len(v) for v in loose) and any(min(v, default=0) < 0 for v in loose)
    edges = {(0, 8, 8): False, (3, 4 + pair.frobenius): False, (3, 3 + pair.frobenius): True, (): True}
    found = set()
    for values in lists + loose + [list(v) for v in edges]:
        lean = not any(is_member(pair, abs(x - y)) for x, y in combinations(values, 2))
        assert _pairwise_lean(pair, values) is lean
        found.add(lean)
    assert found == {True, False}
    assert [_pairwise_lean(pair, v) for v in edges] == list(edges.values())
    assert semipath.verify._pairwise_lean is _pairwise_lean


def couples_conditions_0_to_2_admit(pair):
    """Every (I, J) that couple conditions 0-2 admit, by depth-first search:
    I[0] = 0, then distinct gaps; each J[k] takes every value in
    [0, alpha*beta] that its two congruences allow, and an inner J[k] must
    be a gap above I[k] and I[k + 1].  The outer J are left to the verdict.
    Neither gap points nor the chain theorem are used."""
    top, gap_values = pair.product, [g.value for g in gaps(pair)]

    def ladder(x, y):  # the values v <= alpha*beta with v = x mod alpha and v = y mod beta
        return [v for v in range(x % pair.alpha, top + 1, pair.alpha) if (v - y) % pair.beta == 0]

    def walk(iseq, inner):
        lasts = ladder(iseq[-1], 0)
        if len(iseq) == 1:
            yield from ((iseq, (last,)) for last in lasts)
        else:
            yield from ((iseq, (first, *inner, last)) for first in ladder(0, iseq[1]) for last in lasts)
        for g in gap_values:
            if g in iseq:
                continue
            if len(iseq) == 1:
                yield from walk((0, g), ())
                continue
            for j in ladder(iseq[-1], g):
                if j in gap_values and j > max(iseq[-1], g):
                    yield from walk((*iseq, g), (*inner, j))

    return walk((0,), ())


def test_conditions_0_to_2_decide_every_couple():
    # The theorem in the syzygies module docstring: what conditions 0-2
    # admit and pass is exactly the couples of the lean sets, and the
    # pairwise test they imply never raises its InvariantError.
    pairs = [(3, 4), (3, 5), (3, 7), (4, 5), (4, 7), (5, 6), (5, 7), (5, 8), (6, 7), (7, 8), (7, 9), (7, 11), (8, 9)]
    for pair in (SemigroupPair(alpha, beta) for alpha, beta in pairs):
        admitted = list(couples_conditions_0_to_2_admit(pair))
        passing = {(i, j) for i, j in admitted if validate_fundamental_couple(pair, i, j)}
        couples = {astuple(fundamental_couple(pair, lean)) for lean in enumerate_lean_sets(pair)}
        assert passing == couples and len(passing) == count_lean_sets_total(pair) < len(admitted)


def test_couple_validation_shares_no_kernel_with_presentation(monkeypatch):
    # validate_fundamental_couple cross-checks fundamental_couple and the
    # syzygy step, whose chain criterion reads presentations; a presentation
    # kernel that calls every number a gap must not sway its verdicts.
    pair = SemigroupPair(7, 11)
    couples = [fundamental_couple(pair, lean) for lean in enumerate_lean_sets(pair)]
    pairs = [(c.gens, c.syzygy_gens) for c in couples]
    for c in couples[1:80:7]:
        i, j = list(c.gens), list(c.syzygy_gens)
        pairs += [
            (c.gens, (j[0] - pair.alpha, *j[1:])),  # J[0] off its congruence mod beta
            ((0, *(g + pair.product for g in i[1:])), c.syzygy_gens),  # I above the gaps
            ((0, pair.alpha, *i[2:]), c.syzygy_gens),  # I[1] a member
        ]
        if len(j) > 2:
            pairs.append((c.gens, (j[0], j[1] + pair.product, *j[2:])))  # J[1] above the gaps
    expected = [validate_fundamental_couple(pair, i, j) for i, j in pairs]
    assert {v.clause for v in expected} == {None, 1, 2}

    def every_number_a_gap(semigroup, n):
        return Presentation(1, 1, 1)

    monkeypatch.setattr(semipath.semigroup, "presentation", every_number_a_gap)
    fresh = SemigroupPair(7, 11)  # its membership bitset is built under the patch
    assert not semipath.semigroup.is_member(fresh, 7)
    assert [validate_fundamental_couple(fresh, i, j) for i, j in pairs] == expected
    with pytest.raises(ValueError, match="must be integers"):
        validate_fundamental_couple(fresh, (0, 8.0, 6, 9), (15, 13, 16, 14))


def test_syzygy_examples():
    assert syzygy(S57, Semimodule(S57, (0, 6, 8, 9))).gens == (13, 14, 15, 16)
    assert syzygy(S57, Semimodule(S57, (0,))).gens == (35,)
    assert syzygy(S23, Semimodule(S23, (0, 1))).gens == (3, 4)


def test_syzygy_requires_normalized():
    with pytest.raises(ValueError):
        syzygy(S57, Semimodule(S57, (13, 14, 15, 16)))


@pytest.mark.parametrize("gens", [(0, 5), (0, 1, 6), (0, 1, 8)])
def test_syzygy_checks_the_chain_of_a_corrupt_module(gens):
    # 5 is no gap; the gaps 1, 6 and 8 sit at (4, 2), (3, 2) and (4, 1), so
    # neither pair has a rising and b falling (6 - 1 and 8 - 1 lie in S).
    # syzygy_period's orbit walk checks the same chain, and iterated_syzygy
    # takes at least one syzygy step however far beyond K = 2n it reaches.
    module = Semimodule._trusted(S57, gens)
    for route in (lambda: syzygy(S57, module), lambda: syzygy_period(S57, module),
                  lambda: iterated_syzygy(S57, module, 100)):
        with pytest.raises(InvariantError, match="not a monotone gap chain"):
            route()


def test_syzygy_oracle_examples():
    assert syzygy_oracle(S57, Semimodule(S57, (0, 6, 8, 9))).gens == (13, 14, 15, 16)
    assert syzygy_oracle(S23, Semimodule(S23, (0, 1))).gens == (3, 4)
    module = Semimodule(S57, (0, 23))
    assert syzygy_oracle(S57, module).gens == syzygy(S57, module).gens
    with pytest.raises(ValueError):
        syzygy_oracle(S57, Semimodule(S57, (0,)))


S49 = SemigroupPair(4, 9)

# Each call passes pair to the library together with a module or lean set of <5,7>.
PAIR_CALLS = pytest.mark.parametrize(
    "call",
    [
        lambda pair, lean: fundamental_couple(pair, lean),
        lambda pair, lean: path_from_lean_set(pair, lean),
        lambda pair, lean: render(pair, lean),
        lambda pair, lean: syzygy(pair, Semimodule._trusted(S57, lean.members)),
        lambda pair, lean: syzygy_oracle(pair, Semimodule._trusted(S57, lean.members)),
        lambda pair, lean: syzygy_period(pair, Semimodule._trusted(S57, lean.members)),
        lambda pair, lean: iterated_syzygy(pair, Semimodule._trusted(S57, lean.members), 3),
        lambda pair, lean: elements_up_to(pair, Semimodule._trusted(S57, lean.members), 40),
        lambda pair, lean: normalize(pair, Semimodule._trusted(S57, lean.members)),
        lambda pair, lean: is_isomorphic(
            S57, Semimodule._trusted(S57, lean.members), Semimodule._trusted(pair, lean.members)
        ),
    ],
    ids=[
        "fundamental_couple", "path_from_lean_set", "render", "syzygy", "syzygy_oracle",
        "syzygy_period", "iterated_syzygy", "elements_up_to", "normalize", "is_isomorphic",
    ],
)


@PAIR_CALLS
def test_a_module_or_lean_set_of_another_pair_is_refused(call):
    # Its numbers name gaps of <5,7>; read as <4,9> they gave silently wrong
    # results or an internal error, so the boundary refuses them outright.
    leans = list(enumerate_lean_sets(S57))
    assert len(leans) == 66
    for lean in leans:
        with pytest.raises(ValueError, match="built over"):
            call(S49, lean)


def _outcome(call, pair, lean):
    try:
        return call(pair, lean)
    except ValueError as exc:
        return ValueError, str(exc)


@PAIR_CALLS
def test_an_equal_pair_that_is_another_object_is_accepted(call):
    # Identity is only the fast pass of the pair check: a pair equal to the
    # module's but built apart is still compared by value, and accepted.
    fresh = SemigroupPair(5, 7)
    assert fresh == S57 and fresh is not S57
    for lean in enumerate_lean_sets(S57):
        got = _outcome(call, fresh, lean)
        assert got == _outcome(call, S57, lean)
        assert "built over" not in str(got)


def test_the_shared_pair_is_never_compared_by_value(monkeypatch):
    # Every module below shares S57, so the per-module path needs no value
    # comparison of pairs; an equal pair built apart still gets one.
    compared = []
    by_value = SemigroupPair.__eq__

    def counting(self, other):
        compared.append(other)
        return by_value(self, other)

    monkeypatch.setattr(SemigroupPair, "__eq__", counting)
    for lean in enumerate_lean_sets(S57):
        module = Semimodule(S57, lean.members)
        syzygy_period(S57, module)
        iterated_syzygy(S57, module, 2 * len(module.gens))
        is_isomorphic(S57, module, module)
    assert compared == []
    syzygy_period(SemigroupPair(5, 7), Semimodule(S57, (0, 6, 8, 9)))
    assert len(compared) == 1


def test_syzygy_oracle_shares_no_kernel_with_minimal_generators(monkeypatch):
    # minimal_generators reads the Apery tuple and the path route reads
    # presentations through the gap-chain criterion; the oracle reaches none.
    def refuse(*args):
        raise AssertionError("syzygy_oracle reached a kernel of the library's routes")

    module = Semimodule(S57, (0, 6, 8, 9))
    shifted = Semimodule(S57, (40, 46, 48, 49))
    monkeypatch.setattr(semipath.semimodules, "_apery", refuse)
    monkeypatch.setattr(semipath.semimodules, "minimal_generators", refuse)
    monkeypatch.setattr(semipath.semigroup, "presentation", refuse)
    for namespace in (semipath.leansets, semipath.semimodules, semipath.syzygies):
        monkeypatch.setattr(namespace, "_lean_chain", refuse)
    for namespace in (semipath.paths, semipath.syzygies):
        monkeypatch.setattr(namespace, "_labels", refuse)
    monkeypatch.setattr(semipath.syzygies, "_se_labels", refuse)
    fresh = SemigroupPair(5, 7)  # its membership bitset is built under the patches
    assert syzygy_oracle(fresh, module).gens == (13, 14, 15, 16)
    assert syzygy_oracle(S57, shifted).gens == (53, 54, 55, 56)


def test_definitional_orbit_walk_shares_no_kernel_with_the_rows_walk(monkeypatch):
    # period-route-equivalence compares syzygy_period's cycle, walked on
    # path-matrix rows, with verify's walk of the bitset-coset oracle; the
    # oracle walk must reach none of the rows route's kernels.
    def refuse(*args):
        raise AssertionError("the definitional orbit walk reached a kernel of the rows walk")

    pair = SemigroupPair(7, 11)
    members = [lean.members for lean in enumerate_lean_sets(pair)]
    expected = [
        [m.gens for m in syzygy_period(pair, Semimodule._trusted(pair, gens)).cycle] for gens in members
    ]
    for name in ("_steps", "_admissible_index", "_rows", "_labels", "_se_labels", "_lean_chain"):
        monkeypatch.setattr(semipath.syzygies, name, refuse)
    for name in ("_admissible_index", "_rows", "_labels"):
        monkeypatch.setattr(semipath.paths, name, refuse)
    monkeypatch.setattr(semipath.semigroup, "presentation", refuse)
    for namespace in (semipath.leansets, semipath.semimodules):
        monkeypatch.setattr(namespace, "_lean_chain", refuse)
    fresh = SemigroupPair(7, 11)  # its membership bitset is built under the patches
    walks = [_definitional_cycle(fresh, Semimodule._trusted(fresh, gens)) for gens in members]
    assert [following.gens for _, following in walks] == members  # every walk closes
    got = [[m.gens for m, _ in walk] for walk, _ in walks]
    assert got == expected
    assert {len(cycle) for cycle in got} == {1, 2, 3, 4, 5, 6}


def test_verify_deep_calls_the_oracle_once_per_module(monkeypatch):
    # Each orbit is walked once, from its greatest rows, by the definitional
    # walk, which calls syzygy_oracle once per member with two or more
    # generators; the syzygy verdicts of each member read that one result.
    pair = SemigroupPair(7, 11)
    oracle, calls = semipath.verify.syzygy_oracle, []

    def counted(semigroup, module):
        calls.append(module.gens)
        return oracle(semigroup, module)

    monkeypatch.setattr(semipath.verify, "syzygy_oracle", counted)
    results = run_checks(pair, deep=True)
    assert len(results) == 14 and all(r.ok and not r.skipped for r in results)
    multi = sum(1 for lean in enumerate_lean_sets(pair) if lean.gap_count)
    assert multi == 1767
    assert len(set(calls)) == len(calls) <= multi


def test_j_leanness_verdict_shares_no_kernel_with_presentation(monkeypatch):
    # fundamental-couples also asks whether J, shifted to 0, is lean; the
    # syzygy step it cross-checks reads presentations through the chain
    # criterion, so a presentation kernel that calls every number a gap must
    # not sway that verdict.
    pair = SemigroupPair(7, 11)
    leans = list(enumerate_lean_sets(pair))
    js = [fundamental_couple(pair, lean).syzygy_gens for lean in leans]
    for j in js[1::40]:
        for bumped in ((j[0] + pair.alpha, *j[1:]), (j[0] + pair.product, *j[1:])):
            if len(set(bumped)) == len(bumped):
                js.append(bumped)
    expected = [is_lean(pair, [v - min(j) for v in j]) for j in js]
    assert set(expected) == {True, False}

    def every_number_a_gap(semigroup, n):
        return Presentation(1, 1, 1)

    monkeypatch.setattr(semipath.semigroup, "presentation", every_number_a_gap)
    fresh = SemigroupPair(7, 11)  # its membership bitset is built under the patch
    assert not is_lean(fresh, [0, 1, 2])  # the patch sways the chain criterion
    assert [_pairwise_lean(fresh, j) for j in js] == expected
    results = run_checks(fresh, deep=True)  # every module's couple, member of a walked orbit
    assert {r.name: r.ok for r in results}["fundamental-couples"]


def comprehension_rows(semigroup, points):
    """Reference for paths._rows: the path's runs as differences of the
    padded a and b coordinates of the ES-turns."""
    avals = (0,) + tuple(p.a for p in points) + (semigroup.beta,)
    bvals = (semigroup.alpha,) + tuple(p.b for p in points) + (0,)
    down = tuple(bvals[i] - bvals[i + 1] for i in range(len(bvals) - 1))
    right = tuple(avals[i + 1] - avals[i] for i in range(len(avals) - 1))
    return down, right


def test_rows_equal_the_coordinate_differences_on_every_chain():
    for pair in SMALL_PAIRS:
        for chain in _gap_chains(pair):
            assert _rows(pair, chain) == comprehension_rows(pair, chain)


def gap_point_couple(semigroup, lean):
    """Reference for the couple's corner read _se_labels: I is 0 and the gap values
    right to left, J the SE-turn labels v(a_r, 0), v(a_{r-1}, b_r), ...,
    v(0, b_1) with v(a, b) = alpha*beta - a*alpha - b*beta, read off the
    gap points padded by a_0 = 0 and b_{r+1} = 0."""
    points = lean.gap_points
    avals = (0,) + tuple(p.a for p in points)
    bvals = tuple(p.b for p in points) + (0,)
    labels = [semigroup.product - a * semigroup.alpha - b * semigroup.beta for a, b in zip(avals, bvals)]
    return FundamentalCouple((0,) + tuple(p.value for p in points[::-1]), tuple(labels[::-1]))


def test_couple_equals_the_gap_point_labels_on_every_lean_set():
    for pair in SMALL_PAIRS:
        for lean in enumerate_lean_sets(pair):
            assert fundamental_couple(pair, lean) == gap_point_couple(pair, lean), (pair, lean.members)


def test_se_labels_equal_the_row_sum_on_every_lean_set():
    # The couple and the syzygy step read the SE labels off the chain's
    # corners; the orbit cycle sums them along the path rows.  The two routes
    # must give the same labels, and so the same couple, on every chain.
    pairs = [
        SemigroupPair(alpha, beta) for beta in range(3, 12) for alpha in range(2, beta) if math.gcd(alpha, beta) == 1
    ]
    sets = 0
    for pair in pairs:
        for lean in enumerate_lean_sets(pair):
            sets += 1
            es, se = _labels(pair, *_rows(pair, lean.gap_points))
            assert _se_labels(pair, lean.gap_points) == se, (pair, lean.members)
            couple = FundamentalCouple(tuple(es[::-1]), tuple(se[::-1]))
            assert fundamental_couple(pair, lean) == couple, (pair, lean.members)
    assert len(pairs) == 31 and sets == sum(count_lean_sets_total(pair) for pair in pairs)


def test_leader_tally_equals_the_per_module_tally():
    # brute_period_tally counts each cycle once, from its greatest rows; a walk
    # from every module, ended by _steps at its return, must give the same
    # histogram.  That end is the first return to the start.
    def period(pair, start):
        walk = list(_steps(pair.alpha, pair.beta, *start))
        assert walk[-1] == start and start not in walk[:-1]
        return len(walk)

    for pair in SMALL_PAIRS:
        for n in range(1, pair.alpha + 1):
            per_module = Counter(period(pair, comprehension_rows(pair, chain)) for chain in _gap_chains(pair, n - 1))
            assert brute_period_tally(pair, n) == per_module, (pair, n)


def test_orbit_walks_stop_at_the_first_greater_rows(monkeypatch):
    # A walk stops at the first rows greater than its start, or ends at its
    # return there.  Every leader walks its whole period and every other
    # module takes at least one step, 79,214 steps at the least on <15,16>.
    # One part, so that every step is taken in this process and counted.
    steps, calls = semipath.verify._steps, []

    def counted(*args):
        for rows in steps(*args):
            calls.append(None)
            yield rows

    monkeypatch.setattr(semipath.verify, "_part_count", lambda: 1)
    monkeypatch.setattr(semipath.verify, "_steps", counted)
    assert brute_period_tally(S1516, 12) == {1: 1, 2: 6, 3: 90, 4: 448, 6: 540, 12: 40320}
    assert len(calls) == 106841
    calls.clear()
    assert all(r.ok for r in run_checks(SemigroupPair(7, 11), deep=True))
    assert len(calls) == 3471


def test_brute_period_tally_runs_in_constant_memory(monkeypatch):
    # 41,405 modules; a set of the rows already seen would hold megabytes.
    # tracemalloc sees this process only, so the whole walk runs in it.
    monkeypatch.setattr(semipath.verify, "_part_count", lambda: 1)
    tracemalloc.start()
    try:
        tally = brute_period_tally(S1516, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(tally.values()) == 41405
    assert peak < 1 << 20, peak


def test_verify_deep_runs_in_constant_memory():
    # 1,768 modules, each checked as the lean stream passes it; a list of the
    # modules with their path matrices, or a map of their syzygies, would
    # hold more than a megabyte.
    tracemalloc.start()
    try:
        results = run_checks(SemigroupPair(7, 11), deep=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(results) == 14 and all(r.ok for r in results)
    assert peak < 1 << 20, peak


def test_verify_deep_walks_each_orbit_once(monkeypatch):
    # Only the greatest rows of a cycle start its check, so syzygy_period runs
    # once per orbit, not once per module.
    pair = SemigroupPair(7, 11)
    period, starts = semipath.verify.syzygy_period, []

    def counted(semigroup, module):
        starts.append(module.gens)
        return period(semigroup, module)

    monkeypatch.setattr(semipath.verify, "syzygy_period", counted)
    assert all(r.ok for r in run_checks(pair, deep=True))
    orbits = sum(row.orbits for n in range(1, pair.alpha + 1) for row in orbit_count_table(pair, n).rows)
    assert len(set(starts)) == len(starts) == orbits == 439


def test_verify_deep_builds_each_members_rows_once(monkeypatch):
    # check_periods builds each walk member's table chain and rows once, and
    # the matrix route reads its successor's.  That leaves _rows four builds
    # per module (the stream pass, the member, fundamental_couple, syzygy())
    # and one per orbit in syzygy_period: 4 x 1,768 + 439 = 7,511.
    pair = SemigroupPair(7, 11)
    rows, chain, calls = semipath.paths._rows, semipath.verify._table_chain, Counter()

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    namespaces = [m for key, m in sys.modules.items() if key.startswith("semipath") and getattr(m, "_rows", None) is rows]
    assert {m.__name__ for m in namespaces} >= {"semipath.paths", "semipath.syzygies", "semipath.verify"}
    for namespace in namespaces:
        monkeypatch.setattr(namespace, "_rows", counted("_rows", rows))
    monkeypatch.setattr(semipath.verify, "_table_chain", counted("_table_chain", chain))
    assert all(r.ok for r in run_checks(pair, deep=True))
    assert calls["_table_chain"] == sum(1 for _ in enumerate_lean_sets(pair)) == 1768
    assert calls["_rows"] <= 7511, calls


def test_route_equivalence_exhaustive_small_pairs():
    for pair in (S57, SemigroupPair(3, 5), SemigroupPair(4, 7)):
        for lean in enumerate_lean_sets(pair):
            if lean.gap_count == 0:
                continue
            module = Semimodule(pair, lean.members)
            assert syzygy(pair, module).gens == syzygy_oracle(pair, module).gens


def test_theorem_union_equals_consecutive_union():
    for lean in enumerate_lean_sets(S57):
        if lean.gap_count == 0:
            continue
        module = Semimodule(S57, lean.members)
        bound = 2 * S57.product + max(module.gens)
        cosets = {g: coset_elements(S57, g, bound) for g in module.gens}
        all_pairs = set()
        for x, y in combinations(module.gens, 2):
            all_pairs |= cosets[x] & cosets[y]
        order = fundamental_couple(S57, lean).gens
        consecutive = set()
        for x, y in zip(order, order[1:]):
            consecutive |= cosets[x] & cosets[y]
        consecutive |= cosets[order[0]] & cosets[order[-1]]
        assert all_pairs == consecutive
        syz = syzygy(S57, module)
        assert all_pairs == set(
            v for g in syz.gens for v in coset_elements(S57, g, bound)
        )


def test_couples_validate_and_j_is_lean_shifted():
    for lean in enumerate_lean_sets(S57):
        couple = fundamental_couple(S57, lean)
        assert validate_fundamental_couple(S57, couple.gens, couple.syzygy_gens)
        low = min(couple.syzygy_gens)
        assert is_lean(S57, [j - low for j in couple.syzygy_gens])


def test_syzygy_matrix_examples():
    assert syzygy_matrix(PathMatrix((2, 1, 1, 1), (1, 2, 1, 3))) == PathMatrix(
        (1, 1, 1, 2), (1, 2, 1, 3)
    )
    rotated = admissible_rotation(S57, syzygy_matrix(PathMatrix((2, 1, 1, 1), (1, 2, 1, 3))))[1]
    assert lean_set_from_path(S57, rotated).members == (0, 1, 2, 3)
    assert syzygy_matrix(PathMatrix((5,), (7,))) == PathMatrix((5,), (7,))
    fixed = path_from_lean_set(S1516, LeanSet.from_members(S1516, FIXED_POINT_GENS))
    assert syzygy_matrix(fixed) in cyclic_rotations(fixed)


def test_matrix_route_equals_element_route_exhaustive():
    for lean in enumerate_lean_sets(S57):
        module = Semimodule(S57, lean.members)
        matrix = path_from_lean_set(S57, lean)
        rotated = admissible_rotation(S57, syzygy_matrix(matrix))[1]
        normalized = syzygy(S57, module).normalize()
        assert rotated == path_from_lean_set(
            S57, LeanSet.from_members(S57, normalized.gens)
        )


def test_syzygy_period_examples():
    report = syzygy_period(S57, Semimodule(S57, (0, 6, 8, 9)))
    assert report.period == 4
    assert len(report.cycle) == 4
    assert len({m.gens for m in report.cycle}) == 4
    for lean in enumerate_lean_sets(S57, 4):
        assert syzygy_period(S57, Semimodule(S57, lean.members)).period == 1
    assert syzygy_period(S1516, Semimodule(S1516, FIXED_POINT_GENS)).period == 1


def test_period_divisibility_exhaustive_5_7():
    for lean in enumerate_lean_sets(S57):
        module = Semimodule(S57, lean.members)
        report = syzygy_period(S57, module)
        n = len(module.gens)
        assert report.n == n
        assert n % report.period == 0
        assert S57.product % (n // report.period) == 0
        # n steps, one lap: Syz^n(M) = M + alpha*beta
        assert iterated_syzygy(S57, module, n).gens == tuple(g + S57.product for g in module.gens)


def test_orbit_theorem_failures_are_internal_errors(monkeypatch):
    module = Semimodule(S57, (0, 6, 8, 9))  # rows (2, 1, 1, 1) / (1, 2, 1, 3), period 4
    real_steps, real_labels = semipath.syzygies._steps, semipath.syzygies._labels
    for period, message in ((3, "does not divide generator count"), (2, "lap identity fails")):
        # The true walk, except that the start recurs at step `period`.
        def recurs_early(alpha, beta, down, right, p=period):
            yield from islice(real_steps(alpha, beta, down, right), p - 1)
            yield down, right

        monkeypatch.setattr(semipath.syzygies, "_steps", recurs_early)
        with pytest.raises(InvariantError, match=message):
            syzygy_period(S57, module)
    monkeypatch.undo()
    # Every SE label one larger: the cycle is unchanged, but its shifts no
    # longer sum to period * alpha*beta / n.
    def se_one_larger(*args):
        es, se = real_labels(*args)
        return es, [j + 1 for j in se]

    monkeypatch.setattr(semipath.syzygies, "_labels", se_one_larger)
    with pytest.raises(InvariantError, match="lap identity fails: 4 x shift sum 39 != period 4 x alpha\\*beta"):
        syzygy_period(S57, module)
    monkeypatch.undo()
    # One stray rotation on the first step leaves the bottom row rotated for good.
    calls = []

    def rotate_only_once(*rows):
        calls.append(rows)
        return 1 if len(calls) == 1 else 0

    monkeypatch.setattr(semipath.syzygies, "_admissible_index", rotate_only_once)
    with pytest.raises(InvariantError, match="no syzygy recurrence within 4 steps"):
        syzygy_period(S57, module)


def test_iterated_syzygy():
    module = Semimodule(S57, (0, 6, 8, 9))
    assert iterated_syzygy(S57, module, 1).gens == (13, 14, 15, 16)
    assert iterated_syzygy(S57, module, 2).gens == (20, 21, 23, 29)
    twice = syzygy(S57, syzygy(S57, module).normalize()).gens
    assert tuple(g + 13 for g in twice) == (20, 21, 23, 29)
    with pytest.raises(ValueError):
        iterated_syzygy(S57, module, 0)


def reference_iterates(pair, module, count):
    """Syz^1 .. Syz^count of module, one public syzygy step at a time: each
    step normalizes, takes the syzygy and restores the shift."""
    out, current = [], module
    for _ in range(count):
        shift = current.gens[0]
        step = syzygy(pair, normalize(pair, current))
        current = Semimodule(pair, tuple(g + shift for g in step.gens))
        out.append(current.gens)
    return out


@pytest.mark.parametrize("pair", [S57, SemigroupPair(7, 11)], ids=str)
def test_iterated_syzygy_matches_step_by_step_iteration(pair):
    for lean in enumerate_lean_sets(pair):
        n = len(lean.members)
        # The reference normalizes before every step, so a shifted start only
        # shifts its iterates; it is walked once, from the normalized module.
        # Past K = 2n every residue of K mod n, 0 included, is met.
        reach = max(3 * n, 2 * n + 2)
        steps = reference_iterates(pair, Semimodule(pair, lean.members), reach)
        for shift in (0, 3):
            module = Semimodule(pair, tuple(g + shift for g in lean.members))
            got = [iterated_syzygy(pair, module, k).gens for k in range(1, reach + 1)]
            assert got == [tuple(g + shift for g in gens) for gens in steps], module.gens


def test_library_built_modules_pass_full_validation():
    pair = SemigroupPair(7, 11)
    derived = []
    for lean in enumerate_lean_sets(pair):
        module = Semimodule(pair, lean.members)
        derived.append(syzygy(pair, module))
        derived.extend(syzygy_period(pair, module).cycle)
        derived.append(iterated_syzygy(pair, Semimodule(pair, tuple(g + 3 for g in module.gens)), 9))
        derived.append(derived[-1].normalize())
    derived += [orbit_witness(pair, n, n) for n in range(1, pair.alpha)]
    for module in derived:
        assert Semimodule(module.semigroup, module.gens) == module
        # Semimodule(...) shares the chain criterion with the syzygy step; the
        # pairwise definition shares nothing with it.
        assert _pairwise_lean(pair, [g - module.gens[0] for g in module.gens])


def test_random_route_equivalence_8_13():
    pair = SemigroupPair(8, 13)
    rng = random.Random(2024)
    for _ in range(120):
        module = random_multigen_module(rng, pair)
        assert syzygy(pair, module).gens == syzygy_oracle(pair, module).gens


def test_orbit_witness_examples():
    witness = orbit_witness(S57, 4, 4)
    assert witness.gens == (0, 2, 4, 6)
    assert path_from_lean_set(
        S57, LeanSet.from_members(S57, witness.gens)
    ) == PathMatrix((1, 1, 1, 2), (1, 1, 1, 4))
    assert syzygy_period(S57, witness).period == 4
    fixed = orbit_witness(S1516, 12, 1)
    assert fixed.gens == FIXED_POINT_GENS
    assert syzygy_period(S1516, fixed).period == 1
    with pytest.raises(ValueError):
        orbit_witness(S57, 4, 2)
    with pytest.raises(ValueError):
        orbit_witness(S57, 5, 5)
    with pytest.raises(ValueError):
        orbit_witness(S57, 4, 3)


def test_orbit_witness_hits_every_valid_period():
    pair = SemigroupPair(8, 13)
    for n in range(1, pair.alpha):
        for ell in range(1, n + 1):
            if n % ell:
                continue
            if pair.product % (n // ell):
                continue
            witness = orbit_witness(pair, n, ell)
            assert len(witness.gens) == n
            assert syzygy_period(pair, witness).period == ell
