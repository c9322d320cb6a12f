"""Property tests over random coprime pairs with beta <= 20.

The Apery-tuple kernel behind minimal_generators and elements_up_to is
checked against the double-loop membership of verify.naive_members and the
definitional filter {y : y - alpha and y - beta are not members}; the
element-route syzygy_oracle is checked against the path-route syzygy and
against a set-based reading of its definition; iterated_syzygy and
syzygy_period are checked against public syzygy steps, and the period
against the row periods of the path matrix.
"""

import itertools
import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semipath import (
    LeanSet,
    SemigroupPair,
    Semimodule,
    elements_up_to,
    iterated_syzygy,
    minimal_generators,
    normalize,
    path_from_lean_set,
    syzygy,
    syzygy_oracle,
    syzygy_period,
)
from semipath.verify import naive_members

PAIRS = [
    SemigroupPair(alpha, beta)
    for beta in range(3, 21)
    for alpha in range(2, beta)
    if math.gcd(alpha, beta) == 1
]


@st.composite
def generator_sets(draw):
    """A pair and a non-empty list of generators, reaching well above alpha*beta."""
    pair = draw(st.sampled_from(PAIRS))
    xs = draw(st.lists(st.integers(0, 3 * pair.product), min_size=1, max_size=8))
    return pair, xs


def module_elements(pair, xs, bound):
    """The semimodule generated by xs up to bound, by the double-loop members."""
    members = naive_members(pair, bound)
    return {x + s for x in xs for s in members if x + s <= bound}


@settings(max_examples=300, deadline=None)
@given(generator_sets())
def test_minimal_generators_is_the_definitional_filter(case):
    pair, xs = case
    # Every minimal generator lies in xs, and [0, max(xs)] is closed downward,
    # so the filter is exact inside it.
    elements = module_elements(pair, xs, max(xs))
    expected = tuple(
        sorted(y for y in elements if y - pair.alpha not in elements and y - pair.beta not in elements)
    )
    assert minimal_generators(pair, xs) == expected


@settings(max_examples=300, deadline=None)
@given(generator_sets(), st.integers(0, 1000))
def test_elements_up_to_is_the_double_loop_union(case, bound):
    pair, xs = case
    module = Semimodule(pair, minimal_generators(pair, xs))
    assert elements_up_to(pair, module, bound) == sorted(module_elements(pair, xs, bound))


@settings(max_examples=200, deadline=None)
@given(generator_sets())
def test_syzygy_oracle_agrees_with_the_path_route(case):
    pair, xs = case
    module = normalize(pair, xs)
    assume(len(module.gens) >= 2)
    assert syzygy_oracle(pair, module).gens == syzygy(pair, module).gens


@settings(max_examples=200, deadline=None)
@given(generator_sets(), st.integers(0, 500))
def test_syzygy_oracle_is_the_pairwise_coset_definition(case, shift):
    pair, xs = case
    low = normalize(pair, xs)
    assume(len(low.gens) >= 2)
    module = Semimodule(pair, tuple(g + shift for g in low.gens))
    # The union of the pairwise coset intersections, cut to the oracle's
    # window, and its minimal elements by the definitional filter.
    window = 2 * pair.product + max(module.gens)
    members = naive_members(pair, window)
    cosets = [{g + s for s in members if g + s <= window} for g in module.gens]
    union = set().union(*(one & other for one, other in itertools.combinations(cosets, 2)))
    expected = tuple(
        sorted(y for y in union if y - pair.alpha not in union and y - pair.beta not in union)
    )
    assert syzygy_oracle(pair, module).gens == expected


@settings(max_examples=200, deadline=None)
@given(generator_sets(), st.integers(0, 50), st.data())
def test_period_theorem_matches_public_syzygy_steps(case, shift, data):
    # Syz^(qn+r)(M) = Syz^r(M) + q*alpha*beta: beyond K = 2n, iterated_syzygy
    # takes the whole laps of n steps at once by the lap identity.
    pair, xs = case
    module = normalize(pair, xs)
    n = len(module.gens)
    times = data.draw(st.integers(2 * n + 1, 6 * n))
    current, total, iterates, totals = module, shift, [module], [shift]
    for _ in range(times):
        step = syzygy(pair, current)
        total += step.gens[0]
        current = step.normalize()
        iterates.append(current)
        totals.append(total)
    shifted = Semimodule(pair, tuple(g + shift for g in module.gens))
    assert iterated_syzygy(pair, shifted, times).gens == tuple(g + total for g in current.gens)
    period = iterates.index(module, 1)
    assert syzygy_period(pair, module).cycle == tuple(iterates[:period])
    # One lap of n public steps brings the module back, shifted by alpha*beta.
    assert iterates[n] == module and totals[n] - shift == pair.product


def row_period(row):
    """The least rotation that fixes row, by string periodicity: the first
    place after 0 where the row occurs in itself doubled."""
    text = "".join(map(chr, row))
    return (text + text).find(text, 1)


@settings(max_examples=300, deadline=None)
@given(generator_sets())
def test_period_is_the_gcd_of_the_row_periods(case):
    pair, xs = case
    module = normalize(pair, xs)
    matrix = path_from_lean_set(pair, LeanSet.from_members(pair, module.gens))
    expected = math.gcd(row_period(matrix.down), row_period(matrix.right))
    assert syzygy_period(pair, module).period == expected
