"""Minimal generators, normalization, isomorphism, element windows."""

import dataclasses
import random
from itertools import combinations

import pytest

import semipath.leansets
import semipath.semigroup
import semipath.semimodules
from semipath import (
    GapPoint,
    LeanSet,
    PathMatrix,
    Presentation,
    SemigroupPair,
    Semimodule,
    elements_up_to,
    enumerate_lean_sets,
    gaps,
    is_isomorphic,
    is_lean,
    is_member,
    membership_sieve,
    minimal_generators,
    normalize,
)
from semipath.verify import _pairwise_lean, naive_members

S57 = SemigroupPair(5, 7)


def window_elements(pair, xs, bound):
    """Oracle: elements of the semimodule generated by xs, by direct union."""
    member = membership_sieve(pair, bound)
    out = set()
    for x in xs:
        out.update(x + d for d in range(bound - x + 1) if member[d])
    return out


def test_minimal_generators_examples():
    assert minimal_generators(S57, {0, 5, 8}) == (0, 8)
    assert minimal_generators(S57, {0, 8, 6, 9}) == (0, 6, 8, 9)
    assert minimal_generators(S57, {3}) == (3,)


def test_normalize_examples():
    assert normalize(S57, {15, 13, 16, 14}).gens == (0, 1, 2, 3)
    assert normalize(S57, {0, 6, 8, 9}).gens == (0, 6, 8, 9)
    assert normalize(S57, {7}).gens == (0,)


def test_is_isomorphic_examples():
    assert is_isomorphic(S57, {0, 6, 8, 9}, {3, 9, 11, 12})
    assert not is_isomorphic(S57, {0}, {0, 1})
    assert is_isomorphic(S57, {0, 1, 2, 3}, normalize(S57, {15, 13, 16, 14}))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Semimodule(S57, [0, 6]),
        lambda: PathMatrix([1, 4], [3, 4]),
        lambda: PathMatrix((1, 4), [3, 4]),
        lambda: LeanSet(S57, [0, 6]),
    ],
    ids=["module-list", "matrix-lists", "matrix-list-right", "lean-set-list"],
)
def test_frozen_constructors_refuse_a_non_tuple(build):
    # A list would make a frozen object that is unhashable and unequal to its
    # tuple twin, so it is refused, not coerced.
    with pytest.raises(ValueError, match="tuple"):
        build()


def test_elements_up_to_examples():
    assert elements_up_to(S57, Semimodule(S57, (0,)), 10) == [0, 5, 7, 10]
    assert elements_up_to(S57, Semimodule(S57, (0, 6, 8, 9)), 6) == [0, 5, 6]
    assert elements_up_to(S57, Semimodule(S57, (0,)), 0) == [0]
    assert elements_up_to(S57, Semimodule(S57, (3,)), 0) == []


def test_semimodule_validation():
    # One _sorted_ints comparison refuses a non-int, an unsorted tuple, a
    # list and an empty set alike; the negative and non-minimal refusals keep theirs.
    for gens, message in (
        ((0, 5), r"^\(0, 5\) is not minimal: a difference of two generators lies in <5,7>$"),
        ((3, 0), r"generators must be a strictly ascending tuple, got \(3, 0\)"),
        ((), "^generators must not be empty$"),
        ((0, 1.0), r"generators must be integers, got \[0, 1.0\]"),
        ((0, 6, 6), "generators must be a strictly ascending tuple"),
        ([0, 6], r"generators must be a strictly ascending tuple, got \[0, 6\]"),
        ((-3, 0), r"generators must be non-negative integers, got \(-3, 0\)$"),
    ):
        with pytest.raises(ValueError, match=message):
            Semimodule(S57, gens)
    module = Semimodule(S57, (13, 14, 15, 16))
    assert not module.is_normalized
    assert module.normalize().gens == (0, 1, 2, 3)
    # These raised AttributeError from deep inside the chain criterion.
    with pytest.raises(ValueError, match="must be a SemigroupPair, got None"):
        Semimodule(None, (0,))
    with pytest.raises(ValueError, match=r"must be a SemigroupPair, got \(5, 7\)"):
        Semimodule((5, 7), (0, 6))


@pytest.mark.parametrize(
    "trusted, checked",
    [
        (lambda: Semimodule._trusted(S57, (0, 6, 8, 9)), lambda: Semimodule(S57, (0, 6, 8, 9))),
        (
            lambda: LeanSet._from_chain(S57, (GapPoint(9, 1, 3), GapPoint(6, 3, 2), GapPoint(8, 4, 1))),
            lambda: LeanSet(S57, (0, 6, 8, 9)),
        ),
        (
            lambda: PathMatrix._trusted((2, 1, 1, 1), (1, 2, 1, 3)),
            lambda: PathMatrix((2, 1, 1, 1), (1, 2, 1, 3)),
        ),
    ],
    ids=["semimodule", "lean-set", "path-matrix"],
)
def test_trusted_objects_are_indistinguishable_from_checked_ones(trusted, checked):
    # The trusted builders fill the slots directly; what they build must be
    # the object the checking constructor builds, and as frozen.
    built, want = trusted(), checked()
    assert built == want and hash(built) == hash(want) and repr(built) == repr(want)
    for field in dataclasses.fields(built):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, field.name, getattr(want, field.name))
        assert getattr(built, field.name) == getattr(want, field.name)


def test_minimal_generators_uniqueness_property():
    rng = random.Random(5707)
    gap_values = [g.value for g in gaps(S57)]
    for _ in range(200):
        xs = sorted(rng.sample(range(0, 30), rng.randint(1, 6)))
        gens = minimal_generators(S57, xs)
        bound = max(xs) + S57.frobenius + 1
        assert window_elements(S57, gens, bound) == window_elements(S57, xs, bound)
        assert set(gens) <= set(xs)
        for size in range(len(xs) + 1):
            for subset in combinations(xs, size):
                if window_elements(S57, subset, bound) == window_elements(S57, xs, bound):
                    assert set(gens) <= set(subset)


def test_generator_differences_are_gaps():
    rng = random.Random(11)
    for _ in range(100):
        xs = sorted(rng.sample(range(0, 40), rng.randint(1, 7)))
        gens = minimal_generators(S57, xs)
        for x, y in combinations(gens, 2):
            assert not is_member(S57, y - x)


def test_lean_sets_biject_with_normalized_semimodules():
    modules = []
    for lean in enumerate_lean_sets(S57):
        assert minimal_generators(S57, lean.members) == lean.members
        modules.append(Semimodule(S57, lean.members))
    assert len(modules) == 66
    assert len({m.gens for m in modules}) == 66
    for first, second in combinations(modules, 2):
        assert not is_isomorphic(S57, first, second)


def test_json_round_trip():
    module = Semimodule(S57, (0, 6, 8, 9))
    data = module.to_json()
    assert data == {"alpha": 5, "beta": 7, "generators": [0, 6, 8, 9]}
    assert Semimodule.from_json(data) == module
    with pytest.raises(ValueError):
        Semimodule.from_json({"alpha": 5})


@pytest.mark.parametrize("gens", [[6, 0], [0, 6, 6]], ids=repr)
def test_from_json_reads_its_generators_as_a_set(gens):
    # JSON generators are a set, as --set's are; the constructor takes only
    # the strictly ascending tuple.
    assert Semimodule.from_json({"alpha": 5, "beta": 7, "generators": gens}).gens == (0, 6)
    with pytest.raises(ValueError):
        Semimodule(S57, tuple(gens))


def test_from_json_reads_the_generators_to_json_writes_once(monkeypatch):
    calls = []

    def counted(xs, *rest):
        calls.append(xs)
        return semipath.semigroup._sorted_ints(xs, *rest)

    objects = [Semimodule(S57, lean.members).to_json() for lean in enumerate_lean_sets(S57)]
    monkeypatch.setattr(semipath.semimodules, "_sorted_ints", counted)
    for data in objects:
        Semimodule.from_json(data)
    # One check per object, the constructor's; a set in another order is
    # sorted first and so read three times.
    assert len(calls) == len(objects) == 66
    calls.clear()
    assert Semimodule.from_json({"alpha": 5, "beta": 7, "generators": [6, 0, 6]}).gens == (0, 6)
    assert len(calls) == 3


@pytest.mark.parametrize("bad", [True, 6.9, 6.0, "8"], ids=repr)
def test_non_int_generators_are_refused_not_coerced(bad):
    with pytest.raises(ValueError):
        Semimodule.from_json({"alpha": 5, "beta": 7, "generators": [0, bad, 9]})
    with pytest.raises(ValueError):
        Semimodule(S57, (0, bad))


def test_from_json_refuses_a_bool_equal_to_another_generator():
    # True == 1, so a reader that merged repeats before its integer test
    # would keep the int 1 and accept (0, 1).
    for gens in ([True, 0, 1], [0, 1, True]):
        with pytest.raises(ValueError, match="generators must be integers"):
            Semimodule.from_json({"alpha": 5, "beta": 7, "generators": gens})
    with pytest.raises(ValueError, match="members must be integers"):
        LeanSet.from_members(S57, [0, 1, True])


def test_consecutive_from_json_objects_share_their_pair():
    # A stream of JSON lines over one pair reads every line on one pair
    # object, so its gap-point memo is filled once.
    first = Semimodule.from_json({"alpha": 5, "beta": 7, "generators": [0, 6, 8, 9]})
    second = Semimodule.from_json({"alpha": 5, "beta": 7, "generators": [0, 1]})
    assert second.semigroup is first.semigroup
    assert 6 in first.semigroup._gap_points
    other = Semimodule.from_json({"alpha": 7, "beta": 11, "generators": [0, 1]})
    assert other.semigroup is not first.semigroup
    # The public constructor still builds a fresh pair, with its own memo.
    assert SemigroupPair(7, 11) is not other.semigroup
    assert SemigroupPair(7, 11)._gap_points is not other.semigroup._gap_points


@pytest.mark.parametrize("alpha, beta", [(5.0, 7), (5, 7.0)], ids=repr)
def test_a_shared_from_json_pair_does_not_admit_non_int_generators(alpha, beta):
    # The cache keys are typed, so 5.0 never reads the pair of the warm (5, 7).
    Semimodule.from_json({"alpha": 5, "beta": 7, "generators": [0, 1]})
    with pytest.raises(ValueError, match="must be integers"):
        Semimodule.from_json({"alpha": alpha, "beta": beta, "generators": [0, 1]})


def test_from_json_reports_an_unhashable_pair_as_malformed():
    # The shared-pair cache hashes the pair before SemigroupPair sees it; a
    # list there is bad input (ValueError), never a TypeError.
    with pytest.raises(ValueError, match="malformed semimodule object"):
        Semimodule.from_json({"alpha": [5], "beta": 7, "generators": [0]})


@pytest.mark.parametrize("bad", [True, 6.0, "6"], ids=repr)
def test_minimal_generators_and_normalize_refuse_non_ints(bad):
    with pytest.raises(ValueError):
        minimal_generators(S57, [bad, 0, 6])
    with pytest.raises(ValueError):
        normalize(S57, [bad, 0, 6])


def _from_json(gens):
    return Semimodule.from_json({"alpha": 5, "beta": 7, "generators": gens})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: minimal_generators(S57, []), "generators must not be empty"),
        (lambda: minimal_generators(S57, [-1, 3]), "generators must be non-negative integers, got [-1, 3]"),
        (lambda: normalize(S57, []), "generators must not be empty"),
        (lambda: Semimodule(S57, ()), "generators must not be empty"),
        (lambda: is_isomorphic(S57, [], [0]), "generators must not be empty"),
        (lambda: LeanSet(S57, ()), "members must not be empty"),
        (lambda: LeanSet.from_members(S57, []), "members must not be empty"),
        (lambda: is_lean(S57, []), "members must not be empty"),
        # from_json reads a refused list once more, sorted: it raises the
        # first refusal when sorting changes nothing, and the second when the
        # sorted read refuses the list too, each on its own.
        (lambda: _from_json([]), "generators must not be empty"),
        (lambda: _from_json([0, "x"]), "generators must be integers, got [0, 'x']"),
        (lambda: _from_json([0, True]), "generators must be integers, got [0, True]"),
        (lambda: _from_json([0, 5]), "(0, 5) is not minimal: a difference of two generators lies in <5,7>"),
        (lambda: _from_json([-1, 3]), "generators must be non-negative integers, got (-1, 3)"),
    ],
    ids=[
        "minimal-empty", "minimal-negative", "normalize-empty", "Semimodule-empty", "is_isomorphic-empty",
        "LeanSet-empty", "from_members-empty", "is_lean-empty", "from_json-empty", "from_json-str",
        "from_json-bool", "from_json-not-minimal", "from_json-negative",
    ],
)
def test_empty_and_negative_generator_sets_are_refused(call, message):
    # One refusal, so a traceback prints the message once.
    with pytest.raises(ValueError) as refusal:
        call()
    assert str(refusal.value) == message
    assert refusal.value.__context__ is None


@pytest.mark.parametrize("bad", [None, 5], ids=repr)
@pytest.mark.parametrize(
    "call, what",
    [
        (normalize, "generators"),
        (lambda pair, xs: is_isomorphic(pair, xs, [0]), "generators"),
        (minimal_generators, "generators"),
        (is_lean, "members"),
        (LeanSet.from_members, "members"),
    ],
    ids=["normalize", "is_isomorphic", "minimal_generators", "is_lean", "from_members"],
)
def test_a_non_iterable_is_refused_by_name(call, what, bad):
    # A non-iterable is bad input: a ValueError naming the argument, not a TypeError.
    with pytest.raises(ValueError) as refusal:
        call(S57, bad)
    assert str(refusal.value) == f"{what} must be integers, got {bad!r}"


def test_an_error_raised_while_iterating_the_input_is_not_relabelled():
    # Only a non-iterable is refused by name; a TypeError from inside the
    # caller's own generator reaches the caller as it is.
    with pytest.raises(TypeError, match="unsupported operand"):
        normalize(S57, (x + "1" for x in [0]))


def test_the_semimodule_layer_agrees_with_the_naive_members_on_every_lean_set():
    # elements_up_to, minimal_generators and is_isomorphic all read the Apery
    # kernel _apery; naive_members reads neither it nor the sieve.  Each g + alpha
    # and g + beta is a member but no minimal generator.
    pair = SemigroupPair(7, 11)
    alpha, beta, bound = pair.alpha, pair.beta, 2 * pair.product
    members = naive_members(pair, bound)
    leans = list(enumerate_lean_sets(pair))
    assert len(leans) == 1768
    for lean in leans:
        gens = lean.members
        window = sorted({g + s for g in gens for s in members if g + s <= bound})
        assert elements_up_to(pair, Semimodule(pair, gens), bound) == window, gens
        assert minimal_generators(pair, [*gens, *(g + alpha for g in gens), *(g + beta for g in gens)]) == gens
        assert is_isomorphic(pair, gens, [g + 5 for g in gens]), gens


def test_validation_agrees_with_the_pairwise_definition():
    # Semimodule(...) checks minimality by the monotone gap-chain criterion;
    # the definition is that no difference of two generators is a member.
    for shift in (0, 4):
        for size in range(1, 6):
            for subset in combinations(range(15), size):
                gens = tuple(g + shift for g in subset)
                if _pairwise_lean(S57, gens):
                    assert Semimodule(S57, gens).gens == gens
                else:
                    with pytest.raises(ValueError, match="is not minimal"):
                        Semimodule(S57, gens)


def test_pairwise_definition_shares_no_kernel_with_the_chain_criterion(monkeypatch):
    # _pairwise_lean cross-checks _lean_chain, which reads presentations; a
    # presentation kernel that calls every number a gap must not sway it.
    pair = SemigroupPair(7, 11)
    members = naive_members(pair, 2 * pair.product)
    rng = random.Random(711)
    candidates = [lean.members for lean in enumerate_lean_sets(pair)]
    candidates += [
        (0, *sorted(rng.sample(range(1, 2 * pair.product), rng.randint(1, 5)))) for _ in range(2000)
    ]
    expected = [all(y - x not in members for x, y in combinations(c, 2)) for c in candidates]
    assert True in expected and False in expected

    def every_number_a_gap(semigroup, n):
        return Presentation(1, 1, 1)

    monkeypatch.setattr(semipath.semigroup, "presentation", every_number_a_gap)
    fresh = SemigroupPair(7, 11)  # its membership bitset is built under the patch
    assert not is_member(fresh, 7)
    assert [_pairwise_lean(fresh, c) for c in candidates] == expected
