"""Lean sets: canonical labels for isomorphism classes of semimodules.

A finite set of non-negative integers containing 0 is lean when the absolute
difference of any two of its elements avoids the semigroup.  Writing each
nonzero element as a gap point (a, b), a set is lean exactly when sorting by
a makes the b coordinates strictly decrease; the enumerator walks those
monotone chains of gap points directly.  LeanSet(...) checks its members
by that criterion; a set the library derives from a gap chain, such as each
one the enumerator yields, is built unchecked by LeanSet._from_chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from .semigroup import GapPoint, SemigroupPair, _gap_of, _require_int, _require_pair, _sorted_ints, gaps

__all__ = ["LeanSet", "is_lean", "enumerate_lean_sets"]


@dataclass(frozen=True, slots=True)
class LeanSet:
    """A lean set: its members, ascending from 0, and their gap points sorted by a."""

    semigroup: SemigroupPair
    members: tuple[int, ...]
    gap_points: tuple[GapPoint, ...] = field(init=False)

    def __post_init__(self) -> None:
        pair, members = _require_pair(self.semigroup), self.members
        if not isinstance(members, tuple) or list(members) != _sorted_ints(members, "members"):
            raise ValueError(f"members must be a strictly ascending tuple, got {members!r}")
        if (chain := _lean_chain(pair, members)) is None:
            raise ValueError(f"{set(members)} is not a lean set of <{pair.alpha},{pair.beta}>")
        _set_gap_points(self, chain)

    @property
    def gap_count(self) -> int:
        return len(self.gap_points)

    @classmethod
    def from_members(cls, semigroup: SemigroupPair, xs: Iterable[int]) -> "LeanSet":
        """The lean set of the values xs, given in any order."""
        return cls(semigroup, tuple(_sorted_ints(xs, "members")))

    @classmethod
    def _from_chain(cls, semigroup: SemigroupPair, chain: tuple[GapPoint, ...]) -> "LeanSet":
        """Build without validation from a chain of gap points, ascending in a."""
        lean = object.__new__(cls)
        _set_semigroup(lean, semigroup)
        _set_members(lean, (0, *sorted([p.value for p in chain])))
        _set_gap_points(lean, chain)
        return lean


# The frozen class's slot descriptors, in field order, through which its builders fill it.
_set_semigroup, _set_members, _set_gap_points = (LeanSet.__dict__[f].__set__ for f in LeanSet.__slots__)
_by_a = itemgetter(1)  # a GapPoint's a


def _lean_chain(semigroup: SemigroupPair, values: Sequence[int]) -> tuple[GapPoint, ...] | None:
    """The gap points of the ascending values after their leading 0, sorted
    by a, when a strictly increases and b strictly decreases along them, that
    is, when the values form a lean set; else None.  It is the one rule that
    a set starts at 0; the public callers test that it is a non-empty set of
    ints.  Each value up to the Frobenius number is presented once per pair
    and remembered in its _gap_points; a larger one is no gap.
    """
    if values[0] != 0:
        raise ValueError(f"the least value must be 0 (normalize first), got {tuple(values)}")
    memo, frobenius = semigroup._gap_points, semigroup.frobenius
    points = []
    for x in values[1:]:
        if x > frobenius:
            return None
        try:
            point = memo[x]
        except KeyError:
            point = memo[x] = _gap_of(semigroup, x)
        if point is None:
            return None
        points.append(point)
    points.sort(key=_by_a)
    last_a, last_b = 0, semigroup.alpha
    for _, a, b in points:
        if a <= last_a or b >= last_b:
            return None
        last_a, last_b = a, b
    return tuple(points)


def is_lean(semigroup: SemigroupPair, xs: Iterable[int]) -> bool:
    """Whether all pairwise differences of xs miss the semigroup.

    xs must contain 0 (normalize first); every other element then has to be a
    gap, and the gap points have to form a chain with a increasing and b
    decreasing.  verify.check_lean_enumeration compares this criterion with
    the pairwise definition.
    """
    _require_pair(semigroup)
    return _lean_chain(semigroup, _sorted_ints(xs, "members")) is not None


def _gap_chains(
    semigroup: SemigroupPair,
    gap_count: int | None = None,
    root: Any = (),
    item: Callable[[Any, GapPoint], Any] = lambda chain, point: chain + (point,),
    grow: Callable[[Any, GapPoint, Any], Any] = lambda parent, point, value: value,
) -> Iterator[Any]:
    """Chains of gap points with a strictly increasing and b strictly decreasing.

    Depth-first in lexicographic (a, b) order, which yields every chain before
    its extensions.  With a gap_count filter, branches whose longest possible
    chain stays short of the target are pruned; that longest chain from a
    gap point (a, b) has b points.

    Each chain is yielded as a value built from its parent chain's value:
    root is the empty chain's value, yielded first when it is in the stream;
    then, for each chain in order, item(parent, point) builds its value, once,
    and the walk yields it when the chain is in the stream.  When the walk goes
    on to extend that chain, grow(parent, point, value) builds from it the
    value kept as the parent of its extensions.  point is the chain's last gap
    point.  Every chain the walk builds is yielded or extended.  With the
    defaults every value is the chain itself, a tuple of gap points.
    """
    # Each node is (reach, point, row, start).  rows[b] gathers, in (a, b)
    # order, the nodes below b, and rows[alpha] all of them; a node's
    # successors are the ones its row gains after it, row[start:], walked in
    # place by a list iterator set to start, with no copy.
    # reach, the most points a chain from (a, b) can have, is b exactly: b
    # falls along a chain, and the diagonal steps (a + 1, b - 1) stay gaps.
    rows = [[] for _ in range(semigroup.alpha + 1)]
    for p in sorted(gaps(semigroup), key=itemgetter(1, 2)):
        node = (p.b, p, rows[p.b], len(rows[p.b]))
        for below in rows[p.b + 1 :]:
            below.append(node)
    if not gap_count:
        yield root
        if gap_count == 0:
            return
    # Unfiltered, every chain is yielded and extended; filtered, only chains
    # of gap_count points are yielded, and a node whose reach falls short of
    # gap_count at its depth is pruned.
    need, first, last = (0, 0, len(rows[-1])) if gap_count is None else (gap_count, gap_count - 1, gap_count - 1)
    # stack[d] pairs the value of a chain of d points with an iterator over the
    # candidates that extend it: its last point's successors, or every node at d = 0.
    stack = [(root, iter(rows[-1]))]
    while stack:
        depth = len(stack) - 1
        parent, candidates = stack[-1]
        floor, emit, extend = need - depth, depth >= first, depth < last
        for reach, point, row, start in candidates:
            if reach < floor:
                continue
            value = item(parent, point)
            if emit:
                yield value
            if extend and reach > 1:
                successors = iter(row)
                successors.__setstate__(start)
                stack.append((grow(parent, point, value), successors))
                break
        else:
            stack.pop()


def enumerate_lean_sets(
    semigroup: SemigroupPair, gap_count: int | None = None
) -> Iterator[LeanSet]:
    """Every lean set exactly once, chains ordered lexicographically by (a, b).

    With gap_count = r only the sets with exactly r gaps are produced, in the
    same relative order as the unfiltered stream.  The gap count is checked
    at the call, before the first set is drawn, and so is the pair.
    """
    _require_pair(semigroup)
    if gap_count is not None:
        _require_int(gap_count, "gap count", 0, semigroup.alpha - 1)
    return (LeanSet._from_chain(semigroup, chain) for chain in _gap_chains(semigroup, gap_count))
