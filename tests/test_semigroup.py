"""Core arithmetic: presentations, membership, gap tables."""

import inspect
import math
from fractions import Fraction

import pytest

import semipath
from semipath import (
    InvariantError,
    LeanSet,
    PathMatrix,
    Presentation,
    SemigroupPair,
    Semimodule,
    catalan,
    count_ell_periodic,
    count_fixed_points,
    count_lean_sets,
    elements_up_to,
    enumerate_lean_sets,
    gap_point,
    gaps,
    is_lean,
    is_member,
    iterated_syzygy,
    membership_sieve,
    narayana,
    orbit_count_table,
    orbit_witness,
    presentation,
    syzygy,
    syzygy_oracle,
    syzygy_period,
    validate_fundamental_couple,
)
from semipath.cli import _parse_set
from semipath.semigroup import _is_int, _sorted_ints
from semipath.syzygies import _is_gap
from semipath.verify import brute_period_tally, naive_members, run_checks

S57 = SemigroupPair(5, 7)
S23 = SemigroupPair(2, 3)
M57 = Semimodule(S57, (0, 6, 8, 9))


def search_presentation(pair, n):
    """Oracle: scan the whole (p, a, b) range for the decomposition of n."""
    hits = [
        (p, a, b)
        for p in range(1, n // pair.product + 3)
        for a in range(pair.beta)
        for b in range(pair.alpha)
        if p * pair.product - a * pair.alpha - b * pair.beta == n
    ]
    assert len(hits) == 1, f"expected unique presentation for {n}, found {hits}"
    return hits[0]


def naive_member_set(pair, bound):
    """Oracle: all i*alpha + j*beta up to bound by double loop."""
    out = set()
    for i in range(bound // pair.alpha + 1):
        for j in range((bound - i * pair.alpha) // pair.beta + 1):
            out.add(i * pair.alpha + j * pair.beta)
    return out


def coprime_pairs(alpha_max, beta_max):
    return [
        SemigroupPair(a, b)
        for a in range(2, alpha_max + 1)
        for b in range(a + 1, beta_max + 1)
        if math.gcd(a, b) == 1
    ]


def test_constructor_rejects_bad_pairs():
    with pytest.raises(ValueError):
        SemigroupPair(1, 5)
    with pytest.raises(ValueError):
        SemigroupPair(4, 6)
    with pytest.raises(ValueError):
        SemigroupPair(7, 5)
    with pytest.raises(ValueError):
        SemigroupPair(3, 3)


def test_derived_constants():
    assert S57.product == 35
    assert S57.frobenius == 23
    assert S23.frobenius == 1


@pytest.mark.parametrize(
    "n,expected",
    [
        (23, (1, 1, 1)),
        (9, (1, 1, 3)),
        (12, (2, 6, 4)),
        (35, (1, 0, 0)),
    ],
)
def test_presentation_examples(n, expected):
    assert search_presentation(S57, n) == expected
    q = presentation(S57, n)
    assert (q.p, q.a, q.b) == expected


def test_presentation_rejects_nonpositive():
    with pytest.raises(ValueError):
        presentation(S57, 0)
    with pytest.raises(ValueError):
        presentation(S57, -4)


def test_presentation_round_trip_and_ranges():
    for pair in (S23, S57, SemigroupPair(4, 9)):
        for n in range(1, 3 * pair.product + 1):
            q = presentation(pair, n)
            assert q.value(pair) == n
            assert q.p >= 1
            assert 0 <= q.a < pair.beta
            assert 0 <= q.b < pair.alpha


def test_presentation_matches_search_oracle():
    for n in range(1, 2 * S57.product + 1):
        q = presentation(S57, n)
        assert (q.p, q.a, q.b) == search_presentation(S57, n)


def test_membership_examples():
    assert is_member(S57, 0)
    assert not is_member(S57, 23)
    assert is_member(S57, 12)
    with pytest.raises(ValueError):
        is_member(S57, -1)


def test_membership_agrees_with_double_loop():
    for pair in coprime_pairs(10, 13):
        bound = 3 * pair.product
        naive = naive_member_set(pair, bound)
        for n in range(bound + 1):
            assert is_member(pair, n) == (n in naive)
        sieve = membership_sieve(pair, bound)
        assert all(sieve[n] == (n in naive) for n in range(bound + 1))


def test_everything_past_frobenius_is_a_member():
    for pair in coprime_pairs(8, 13):
        for n in range(pair.frobenius + 1, pair.frobenius + 2 * pair.product):
            assert is_member(pair, n)
    assert not is_member(S57, S57.frobenius)


def test_gaps_examples():
    assert [g.value for g in gaps(S57)] == [1, 2, 3, 4, 6, 8, 9, 11, 13, 16, 18, 23]
    assert [g.value for g in gaps(S23)] == [1]
    assert len(gaps(S57)) == 12


def test_gap_points_lie_inside_triangle():
    for pair in coprime_pairs(8, 13):
        table = gaps(pair)
        assert len(table) == (pair.alpha - 1) * (pair.beta - 1) // 2
        for g in table:
            assert 1 <= g.a < pair.beta
            assert 1 <= g.b < pair.alpha
            assert g.a * pair.alpha + g.b * pair.beta < pair.product
            assert g.value == pair.product - g.a * pair.alpha - g.b * pair.beta


def test_gap_criterion_three_ways():
    # The presentation rule, read by is_member, gap_point and the chain
    # criterion through _gap_of, against the gap table and the sieve bitset.
    pairs = [SemigroupPair(a, b) for b in range(3, 14) for a in range(2, b) if math.gcd(a, b) == 1]
    for pair in pairs:
        table = {g.value: g for g in gaps(pair)}
        for n in range(1, 3 * pair.product + 1):
            q = presentation(pair, n)
            as_gap = q.p == 1 and q.a >= 1 and q.b >= 1
            assert as_gap == (not is_member(pair, n))
            assert as_gap == (n in table)
            assert as_gap == is_lean(pair, [0, n])
            assert as_gap == _is_gap(pair, n)
            if as_gap:
                assert gap_point(pair, n) == table[n]
            else:
                with pytest.raises(ValueError, match="is not a gap"):
                    gap_point(pair, n)


def test_the_integer_checks_accept_what_is_int_accepts():
    # _sorted_ints and validate_fundamental_couple accept exactly _is_int's
    # set: int and its subclasses, never bool.
    class Int(int):
        pass

    assert _is_int(Int(8)) and _sorted_ints([Int(8), 0, 8]) == [0, 8]
    assert validate_fundamental_couple(S57, (0, Int(8), 6, 9), (15, 13, 16, Int(14)))
    for bad in (True, 1.0, "1", Fraction(1)):
        assert not _is_int(bad)
        with pytest.raises(ValueError, match="must be integers"):
            _sorted_ints([0, Int(8), bad])
        with pytest.raises(ValueError, match="must be integers"):
            validate_fundamental_couple(S57, (0, 8, 6, 9), (15, 13, 16, bad))


def test_gap_point_lookup():
    assert gap_point(S57, 9) == next(g for g in gaps(S57) if g.value == 9)
    with pytest.raises(ValueError):
        gap_point(S57, 12)


def test_presentation_value_method():
    assert Presentation(1, 1, 1).value(S57) == 23


@pytest.mark.parametrize(
    "call",
    [
        lambda: LeanSet.from_members(S57, [0, True]),
        lambda: is_lean(S57, [0, True]),
        lambda: gap_point(S57, True),
        lambda: is_member(S57, True),
        lambda: presentation(S57, True),
        lambda: PathMatrix((True, 4), (3, 4)),
        lambda: list(enumerate_lean_sets(S57, 1.0)),
        lambda: validate_fundamental_couple(S57, (0, True), (8, 35)),
        lambda: count_lean_sets(S57, True),
        lambda: count_lean_sets(S57, 2.0),
        lambda: count_fixed_points(S57, 2.0),
        lambda: count_ell_periodic(S57, 4, True),
        lambda: orbit_count_table(S57, 4.0),
        lambda: narayana(4.0, 1),
        lambda: narayana(4, True),
        lambda: catalan(True),
        lambda: catalan(2.0),
        lambda: iterated_syzygy(S57, M57, True),
        lambda: iterated_syzygy(S57, M57, 2.0),
        lambda: iterated_syzygy(S57, M57, 100.0),
        lambda: membership_sieve(S57, True),
        lambda: membership_sieve(S57, 2.0),
        lambda: elements_up_to(S57, M57, True),
        lambda: elements_up_to(S57, M57, 2.5),
        lambda: orbit_witness(S57, True, True),
        lambda: orbit_witness(S57, 2.0, 1),
    ],
    ids=[
        "from_members", "is_lean", "gap_point", "is_member", "presentation",
        "PathMatrix", "enumerate_lean_sets", "validate_fundamental_couple",
        "count_lean_sets-bool", "count_lean_sets-float", "count_fixed_points",
        "count_ell_periodic", "orbit_count_table", "narayana-alpha", "narayana-r",
        "catalan-bool", "catalan-float", "iterated_syzygy-bool", "iterated_syzygy-float",
        "iterated_syzygy-float-past-2n", "membership_sieve-bool", "membership_sieve-float",
        "elements_up_to-bool", "elements_up_to-float", "orbit_witness-bool", "orbit_witness-float",
    ],
)
def test_library_boundary_refuses_non_int(call):
    # bool is an int subclass and 1.0 == 1: neither may pass as an integer,
    # be read as 1, or reach math.comb or range and raise TypeError there.
    with pytest.raises(ValueError):
        call()


# Every single-value integer guard, as (call, what, low, high, a value in
# range): each reads semigroup._require_int, so each refuses in its words.
INT_GUARDS = {
    "presentation": (lambda v: presentation(S57, v), "n", 1, None, 3),
    "is_member": (lambda v: is_member(S57, v), "n", 0, None, 3),
    "membership_sieve": (lambda v: membership_sieve(S57, v), "limit", 0, None, 10),
    "elements_up_to": (lambda v: elements_up_to(S57, M57, v), "bound", 0, None, 10),
    "enumerate_lean_sets": (lambda v: enumerate_lean_sets(S57, v), "gap count", 0, 4, 2),
    "iterated_syzygy": (lambda v: iterated_syzygy(S57, M57, v), "iteration count", 1, None, 3),
    "generator-count": (lambda v: orbit_count_table(S57, v), "generator count", 1, 5, 4),
    "count_lean_sets": (lambda v: count_lean_sets(S57, v), "gap count", 0, None, 2),
    "catalan": (catalan, "n", 0, None, 3),
    "narayana-alpha": (lambda v: narayana(v, 1), "alpha", 1, None, 4),
    "narayana-r": (lambda v: narayana(4, v), "r", 0, None, 1),
    "svg-cell": (lambda v: semipath.RenderSpec(format="svg", cell=v), "svg cell size", 4, None, 20),
    # 4 does not divide 35, so at ell = 1 only n = 1 has a witness.
    "orbit_witness": (lambda v: orbit_witness(S57, v, 1), "generator count", 1, 4, 1),
}


@pytest.mark.parametrize("call, what, low, high, good", INT_GUARDS.values(), ids=INT_GUARDS.keys())
def test_every_integer_guard_reads_one_rule(call, what, low, high, good):
    rule = f"must lie in [{low}, {high}]" if high is not None else f"must be an integer >= {low}"
    bad = [True, float(good), low - 1] + ([high + 1] if high is not None else [])
    for value in bad:
        with pytest.raises(ValueError) as refusal:
            call(value)
        assert str(refusal.value) == f"{what} {rule}, got {value!r}"
    call(good)


L57 = LeanSet(S57, (0, 6, 8, 9))
P57 = semipath.path_from_lean_set(S57, L57)
SHIFTED = Semimodule(S57, (3, 9))
# Refusal texts pinned exactly, each with a call that raises it: one rule,
# so one text, for each refused fact.
REFUSALS = {
    "LeanSet-no-0": (lambda: LeanSet(S57, (6, 8)), "the least value must be 0 (normalize first), got (6, 8)"),
    "LeanSet-negative": (
        lambda: LeanSet(S57, (-1, 0, 6)), "the least value must be 0 (normalize first), got (-1, 0, 6)"
    ),
    "is_lean-no-0": (lambda: is_lean(S57, [8, 6]), "the least value must be 0 (normalize first), got (6, 8)"),
    "syzygy-no-0": (lambda: syzygy(S57, SHIFTED), "the least value must be 0 (normalize first), got (3, 9)"),
    "syzygy_period-no-0": (
        lambda: syzygy_period(S57, SHIFTED), "the least value must be 0 (normalize first), got (3, 9)"
    ),
    "count_ell_periodic-ell": (lambda: count_ell_periodic(S57, 4, 3), "ell must be a positive divisor of n=4, got 3"),
    "orbit_witness-ell": (lambda: orbit_witness(S57, 4, 3), "ell must be a positive divisor of n=4, got 3"),
    "orbit_witness-ell-zero": (lambda: orbit_witness(S57, 4, 0), "ell must be a positive divisor of n=4, got 0"),
    "orbit_witness-none": (
        lambda: orbit_witness(S57, 4, 1), "n/ell = 4 does not divide alpha*beta = 35; no such orbit exists"
    ),
    "parse_set": (lambda: _parse_set("0,x"), "could not parse '0,x' as a comma-separated integer set"),
    "PathMatrix-lists": (
        lambda: PathMatrix([1, 4], (3, 4)), "down and right rows must be tuples, got [1, 4] and (3, 4)"
    ),
    "PathMatrix-lengths": (lambda: PathMatrix((1, 4), (7,)), "down and right rows must have equal length"),
    "PathMatrix-empty": (lambda: PathMatrix((), ()), "a path matrix needs at least one column"),
    "PathMatrix-runs": (lambda: PathMatrix((1, 0), (3, 4)), "all run lengths must be integers >= 1, got (1, 0)"),
    "lean_set_from_path": (
        lambda: semipath.lean_set_from_path(S57, PathMatrix((1, 4), (3, 4))),
        "path does not stay below the diagonal, it encodes no lean set",
    ),
    "RenderSpec-format": (
        lambda: semipath.RenderSpec(format="png"), "format must be one of ('ascii', 'svg'), got 'png'"
    ),
    "SemigroupPair-order": (lambda: SemigroupPair(7, 5), "need 2 <= alpha < beta, got (7, 5)"),
    "couple-entries": (
        lambda: validate_fundamental_couple(S57, (0, 8.0), (15, 14)),
        "couple entries must be integers, got I=(0, 8.0), J=(15, 14)",
    ),
    "syzygy_oracle-one-generator": (
        lambda: syzygy_oracle(S57, Semimodule(S57, (0,))), "the defining union is empty for a single generator"
    ),
    "gap_point": (lambda: gap_point(S57, 5), "5 is not a gap of <5,7>"),
    "LeanSet-not-lean": (lambda: LeanSet(S57, (0, 5)), "{0, 5} is not a lean set of <5,7>"),
    "kind": (lambda: syzygy(S57, [0, 6]), "input must be a Semimodule, got [0, 6]"),
    "other-pair": (
        lambda: syzygy(SemigroupPair(4, 9), M57),
        "input built over SemigroupPair(alpha=5, beta=7) was passed with SemigroupPair(alpha=4, beta=9)",
    ),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_every_refusal_reads_its_exact_text(call, message):
    with pytest.raises(ValueError) as refusal:
        call()
    assert str(refusal.value) == message


# Every public function whose first argument is the pair, each with valid
# other arguments, so that only the pair can be refused.
PAIR_CALLS = {
    "count_lean_sets": lambda p: count_lean_sets(p, 1),
    "count_lean_sets_total": lambda p: semipath.count_lean_sets_total(p),
    "count_ell_periodic": lambda p: count_ell_periodic(p, 4, 4),
    "count_fixed_points": lambda p: count_fixed_points(p, 4),
    "orbit_count_table": lambda p: orbit_count_table(p, 4),
    "LeanSet": lambda p: LeanSet(p, (0, 6)),
    "from_members": lambda p: LeanSet.from_members(p, [6, 0]),
    "is_lean": lambda p: is_lean(p, [0, 6]),
    "enumerate_lean_sets": lambda p: enumerate_lean_sets(p),
    "enumerate_lean_sets-filtered": lambda p: enumerate_lean_sets(p, 1),
    "path_from_lean_set": lambda p: semipath.path_from_lean_set(p, L57),
    "lean_set_from_path": lambda p: semipath.lean_set_from_path(p, P57),
    "es_turns": lambda p: semipath.es_turns(p, P57),
    "se_turns": lambda p: semipath.se_turns(p, P57),
    "stays_below_diagonal": lambda p: semipath.stays_below_diagonal(p, P57),
    "admissible_rotation": lambda p: semipath.admissible_rotation(p, P57),
    "render": lambda p: semipath.render(p, L57),
    "presentation": lambda p: presentation(p, 3),
    "is_member": lambda p: is_member(p, 0),
    "gaps": lambda p: gaps(p),
    "gap_point": lambda p: gap_point(p, 9),
    "membership_sieve": lambda p: membership_sieve(p, 10),
    "Semimodule": lambda p: Semimodule(p, (0, 6)),
    "minimal_generators": lambda p: semipath.minimal_generators(p, [0, 6]),
    "normalize": lambda p: semipath.normalize(p, [3, 9]),
    "normalize-module": lambda p: semipath.normalize(p, M57),
    "is_isomorphic": lambda p: semipath.is_isomorphic(p, M57, M57),
    "elements_up_to": lambda p: elements_up_to(p, M57, 10),
    "fundamental_couple": lambda p: semipath.fundamental_couple(p, L57),
    "validate_fundamental_couple": lambda p: validate_fundamental_couple(p, (0, 8, 6, 9), (15, 13, 16, 14)),
    "syzygy": lambda p: semipath.syzygy(p, M57),
    "syzygy_oracle": lambda p: semipath.syzygy_oracle(p, M57),
    "syzygy_period": lambda p: semipath.syzygy_period(p, M57),
    "iterated_syzygy": lambda p: iterated_syzygy(p, M57, 3),
    "orbit_witness": lambda p: orbit_witness(p, 4, 4),
    "naive_members": lambda p: naive_members(p, 10),
    "brute_period_tally": lambda p: brute_period_tally(p, 4),
    "run_checks": lambda p: run_checks(p),
}


@pytest.mark.parametrize("bad", [(5, 7), None], ids=["tuple", "None"])
@pytest.mark.parametrize("call", PAIR_CALLS.values(), ids=PAIR_CALLS.keys())
def test_every_pair_argument_is_refused_by_name(call, bad):
    # Refused by name at the call: not an AttributeError where the pair is
    # first read, and not silence where it is never read, as in is_member of
    # 0 or an enumerate_lean_sets stream not yet drawn from.
    call(S57)
    with pytest.raises(ValueError, match="must be a SemigroupPair"):
        call(bad)


# Every public function given a module, lean set, path matrix or render spec,
# with that argument's valid value and a call holding every other argument
# valid, so that only that one can be refused.
OBJECT_CALLS = {
    "syzygy": (M57, lambda m: semipath.syzygy(S57, m)),
    "syzygy_oracle": (M57, lambda m: semipath.syzygy_oracle(S57, m)),
    "syzygy_period": (M57, lambda m: semipath.syzygy_period(S57, m)),
    "iterated_syzygy": (M57, lambda m: iterated_syzygy(S57, m, 3)),
    "elements_up_to": (M57, lambda m: elements_up_to(S57, m, 10)),
    "fundamental_couple": (L57, lambda lean: semipath.fundamental_couple(S57, lean)),
    "path_from_lean_set": (L57, lambda lean: semipath.path_from_lean_set(S57, lean)),
    "render": (L57, lambda lean: semipath.render(S57, lean)),
    "render-spec": (semipath.RenderSpec(), lambda spec: semipath.render(S57, L57, spec)),
    "stays_below_diagonal": (P57, lambda m: semipath.stays_below_diagonal(S57, m)),
    "es_turns": (P57, lambda m: semipath.es_turns(S57, m)),
    "se_turns": (P57, lambda m: semipath.se_turns(S57, m)),
    "admissible_rotation": (P57, lambda m: semipath.admissible_rotation(S57, m)),
    "lean_set_from_path": (P57, lambda m: semipath.lean_set_from_path(S57, m)),
    "cyclic_rotations": (P57, lambda m: semipath.cyclic_rotations(m)),
    "syzygy_matrix": (P57, lambda m: semipath.syzygy_matrix(m)),
}
# A value of another of these kinds, for each kind.
OTHER_KIND = {Semimodule: L57, LeanSet: M57, PathMatrix: M57, semipath.RenderSpec: L57}


@pytest.mark.parametrize(
    "bad", [(0, 6, 8, 9), [0, 6, 8, 9], None, "other kind"], ids=["tuple", "list", "None", "other-kind"]
)
@pytest.mark.parametrize("good, call", OBJECT_CALLS.values(), ids=OBJECT_CALLS.keys())
def test_every_module_lean_set_and_matrix_argument_is_refused_by_name(good, call, bad):
    # Refused by the expected type's name at the call, not an AttributeError
    # where the argument is first read.
    call(good)
    if bad == "other kind":
        bad = OTHER_KIND[type(good)]
    with pytest.raises(ValueError, match=f"must be a {type(good).__name__}, got"):
        call(bad)


def test_the_object_calls_cover_every_public_function_given_an_object():
    given_an_object = {
        name
        for name, obj in ((name, getattr(semipath, name)) for name in semipath.__all__)
        if inspect.isfunction(obj) and {"module", "lean", "matrix", "spec"} & set(inspect.signature(obj).parameters)
    }
    assert {"render", "syzygy_matrix", "elements_up_to"} <= given_an_object
    assert given_an_object == {name.split("-")[0] for name in OBJECT_CALLS}


@pytest.mark.parametrize("deep", ["no", 1, None])
def test_run_checks_refuses_a_non_bool_deep(deep):
    # "no" is truthy: read as a switch it silently ran the deep sweep.
    with pytest.raises(ValueError, match="deep must be a bool"):
        run_checks(S57, deep=deep)


def test_the_pair_calls_cover_every_public_function_given_a_pair():
    given_a_pair = {
        name
        for name, obj in ((name, getattr(semipath, name)) for name in semipath.__all__)
        if inspect.isfunction(obj) and list(inspect.signature(obj).parameters)[:1] == ["semigroup"]
    }
    assert "presentation" in given_a_pair
    assert given_a_pair <= {name.split("-")[0] for name in PAIR_CALLS}
