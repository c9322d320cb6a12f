"""Lean sets: canonical labels for isomorphism classes of semimodules.

A finite set of non-negative integers containing 0 is lean when the absolute
difference of any two of its elements avoids the semigroup.  Writing each
nonzero element as a gap point (a, b), a set is lean exactly when sorting by
a makes the b coordinates strictly decrease; the enumerator walks those
monotone chains of gap points directly.  LeanSet(...) checks its members
by that criterion; a set the library derives from a gap chain, such as each
one the enumerator yields, is built unchecked by LeanSet._from_chain.
The brute streams, and verify's exhaustive pass over the lean sets, walk
the chains here in parts split by subtrees, each but the first in a forked
child; cli and verify pass callbacks and a fork floor, not parts, and get
back one result per run of a part's chains, in walk order, or the error a
walk in one part would raise.
"""

from __future__ import annotations

import os
from contextlib import suppress
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from .counting import count_lean_sets, count_lean_sets_total
from .errors import InvariantError
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
    part: tuple[int, int] = (0, 1),
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

    part = (index, parts) walks one of parts parts, split by subtrees: the
    chains of _cut_depth points, numbered 0, 1, ... in walk order, are the
    roots of subtrees, and the walk builds subtree t, the root and its
    extensions, only when t % parts == index.  The chains above the roots
    are built in every part, to reach its subtrees, and yielded in part 0
    only.  _SUBTREE is yielded before each subtree, built here or not.
    With parts = 1 nothing is cut, and no _SUBTREE is yielded.
    """
    # Each node is (reach, point, row, start).  rows[b] gathers, in (a, b)
    # order, the nodes below b, and rows[alpha] all of them; a node's
    # successors are the ones its row gains after it, row[start:], walked in
    # place by a list iterator set to start, with no copy.
    # reach, the most points a chain from (a, b) can have, is b exactly: b
    # falls along a chain, and the diagonal steps (a + 1, b - 1) stay gaps.
    # One point: no chain is extended, so the walk reads rows[alpha] alone.
    rows = [[] for _ in range(semigroup.alpha + 1)]
    for p in sorted(gaps(semigroup), key=itemgetter(1, 2)):
        node = (p.b, p, rows[p.b], len(rows[p.b]))
        for below in rows[-1:] if gap_count == 1 else rows[p.b + 1 :]:
            below.append(node)
    index, parts = part
    if not gap_count:
        if not index:
            yield root
        if gap_count == 0:
            return
    # Unfiltered, every chain is yielded and extended; filtered, only chains
    # of gap_count points are yielded, and a node whose reach falls short of
    # gap_count at its depth is pruned.
    need, first, last = (0, 0, len(rows[-1])) if gap_count is None else (gap_count, gap_count - 1, gap_count - 1)
    cut = _cut_depth(rows, need, gap_count or semigroup.alpha - 1, parts) if parts > 1 else 0
    subtree = -1
    # levels[d] holds, for the chains of d + 1 points: the least reach that
    # escapes the prune, whether they are yielded, whether they are extended,
    # and whether they are the subtree roots.
    levels = [
        (need - d, d >= first and (d >= cut - 1 or not index), d < last, d == cut - 1) for d in range(semigroup.alpha)
    ]
    # stack[d] pairs the value of a chain of d points with an iterator over the
    # candidates that extend it: its last point's successors, or every node at d = 0.
    stack = [(root, iter(rows[-1]))]
    while stack:
        parent, candidates = stack[-1]
        floor, emit, extend, roots = levels[len(stack) - 1]
        for reach, point, row, start in candidates:
            if reach < floor:
                continue
            if roots:
                subtree += 1
                yield _SUBTREE
                if subtree % parts != index:
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


def _cut_depth(rows: list, need: int, deepest: int, parts: int) -> int:
    """The least number of points, at most deepest, of which the walk over
    rows meets at least _SUBTREES_PER_PART chains per part, or deepest.
    Each level is counted as a multiset of last nodes, under the walk's
    prune, so the count costs no more than the walk spends above the cut."""
    level = {node[1]: (node, 1) for node in rows[-1] if node[0] >= need}
    points = 1
    while points < deepest and sum(count for _, count in level.values()) < _SUBTREES_PER_PART * parts:
        below: dict = {}
        for (_, _, row, start), count in level.values():
            for node in row[start:]:
                if node[0] >= need - points:
                    below[node[1]] = node, below.get(node[1], (node, 0))[1] + count
        level, points = below, points + 1
    return points


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


# Walking one stream in parts at once, part (index, parts) of _gap_chains:
# part 0 in this process, every other in a child of os.fork, over a pipe.
_FORK_FLOOR = 1 << 15  # chains: a fork and its reap cost ~2 ms, more than a shorter walk saves
_SUBTREES_PER_PART = 64  # so the interleaved subtrees even out the parts' work
_PIPE_BYTES = 1 << 20  # the default most a pipe may hold on Linux, up from 64 KiB
_SUBTREE = "\0"  # the mark a part's walk, and text, has before each subtree; no line holds it
_LOST = "a forked part of the gap-chain walk ended before sending all it walked"


def _part_count(semigroup: SemigroupPair, gap_count: int | None, floor: int = _FORK_FLOOR) -> int:
    """How many parts walk the gap_count stream at once: one per usable CPU,
    at most 8, when the closed-form count of its chains is at least floor
    and they have more than one point, else 1.  The levels
    above the cut, built in every part, hold under 1% of the chains built
    in 8 parts of each benchmark stream, so they set no cap; the cap of 8
    is kept from the earlier interleaved walk and is timed at 2 parts only.
    1 also where os has no fork or sched_getaffinity, or where the process
    runs other threads, which a fork can deadlock."""
    chains = count_lean_sets_total(semigroup) if gap_count is None else count_lean_sets(semigroup, gap_count)
    # One point: every part sorts all the gaps and meets every chain, each the root of a subtree of its own.
    if gap_count == 1 or chains < floor or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    import threading

    return 1 if threading.active_count() > 1 else min(len(os.sched_getaffinity(0)), 8)


def _forked(parts: int, send: Callable[[int, Any], Any], use: Callable[[list], Any]) -> Any:
    """use(pipes), with pipes the binary files over the read ends of the
    pipes of children forked for the parts 1 to parts - 1.  Child index
    calls send(index, pipe) on a binary file over its pipe's write end and
    leaves by os._exit, whatever happens, so it runs no exit handler and
    flushes none of the buffers it inherited.  Where a pipe or a fork
    fails, as when the system runs out of processes, the children made so
    far are killed and use([]) runs: the walk is then one part.  Before
    this returns or raises, every child is killed and reaped: one that has
    sent all it had has ended or is ending, so the kill only stops the
    parts still walking after an error or an interrupt."""
    children, parent = [], os.getpid()

    def end() -> None:  # signal is imported with the first child
        while children:
            pid, read = children.pop()
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    try:
        try:
            for index in range(1, parts):  # a walk in one part imports nothing
                import fcntl
                import signal

                read, write = os.pipe()
                if hasattr(fcntl, "F_SETPIPE_SZ"):  # Linux: room for a part to run ahead of the reader
                    with suppress(OSError):  # over the system's limit for a pipe
                        fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
                pid = 0
                try:
                    pid = os.fork()
                    if not pid:
                        os.close(read)
                        with open(write, "wb") as pipe:
                            send(index, pipe)
                finally:
                    if os.getpid() != parent:
                        os._exit(0)
                    os.close(write)
                    if not pid:  # the fork failed
                        os.close(read)
                children.append((pid, read))
        except OSError:  # no pipe or process to be had
            end()
        return use([open(read, "rb", closefd=False) for _, read in children])
    finally:
        end()


def _results(
    semigroup: SemigroupPair,
    gap_count: int | None,
    reduce: Callable[[Iterator], Any],
    *walk,
    floor: int | None = _FORK_FLOOR,
) -> list:
    """[reduce(run) for each run of the gap_count stream], in walk order,
    walk being their root and item.  A run is what a part's walk yields
    between two _SUBTREE marks, if anything; a walk in one part is one run.
    The stream is split at floor chains, as _part_count counts them, and
    never with floor None.  An error in a part's walk or reduce ends that
    part and is the result of its run; the first such result in walk order
    is raised, the error a walk in one part raises.  Each child pickles its
    (place, result) pairs to its pipe."""
    import pickle

    parts = 1 if floor is None else _part_count(semigroup, gap_count, floor)

    def work(index: int, parts: int) -> list:
        # Each pass of the loop reads a run and the mark after it, or the end.
        # After the mark before subtree t come subtree t, built in part
        # t % parts, then the chains above the cut up to subtree t + 1, yielded
        # in part 0: places 2t and, where part 0 did not build subtree t,
        # 2t + 1.  Before subtree 0, at t = -1, only part 0 yields chains.
        chains, runs, subtree = _gap_chains(semigroup, gap_count, *walk, part=(index, parts)), [], -1
        try:
            for first in chains:
                if first is not _SUBTREE:
                    runs.append((subtree, reduce(chain((first,), iter(chains.__next__, _SUBTREE)))))
                subtree += 1
        except Exception as exc:
            runs.append((subtree, exc))
        return [(2 * t + (t % parts != index), result) for t, result in runs]

    here, sent = _forked(
        parts,
        lambda index, pipe: pipe.write(pickle.dumps(work(index, parts))),
        lambda pipes: (work(0, len(pipes) + 1), [pipe.read() for pipe in pipes]),
    )
    if not all(sent):
        raise InvariantError(_LOST)
    results = [result for _, result in sorted(chain(here, *map(pickle.loads, sent)), key=itemgetter(0))]
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def _write_in_parts(semigroup: SemigroupPair, gap_count: int | None, write, root, line, grow) -> None:
    """Write the gap_count stream in walk order: root[0], then each chain's
    line, with line and grow the walk's item and grow.  A part's text is its
    lines, 1,024 at a time, with _SUBTREE before each subtree, built in it
    or not.  Part 0 writes its text as it comes; every other part sends it,
    then one closing _SUBTREE.  At its mark before subtree t, part 0 copies
    each other part's text between that part's marks before subtrees t and
    t + 1: its subtree t or none.  Marks that run out mean a part ended early."""
    parts = _part_count(semigroup, gap_count)

    def text(part: tuple[int, int]) -> Iterator[str]:
        lines = _gap_chains(semigroup, gap_count, root, line, grow, part)
        if not gap_count and not part[0]:  # the walk yields root itself first
            yield next(lines)[0]
        yield from iter(lambda: "".join(islice(lines, 1024)), "")

    def send(index: int, pipe) -> None:
        for chunk in text((index, parts)):
            pipe.write(chunk.encode())
        pipe.write(_SUBTREE.encode())

    def splice(pipes: list) -> None:
        received = [islice(_pieces(map(bytes.decode, iter(partial(p.read1, 1 << 16), b""))), 2, None) for p in pipes]

        def copy() -> None:
            """Write the text each forked part sends up to its next _SUBTREE."""
            for pieces in received:
                for piece in pieces:
                    if piece is None:
                        break
                    write(piece)
                else:
                    raise InvariantError(_LOST)

        for piece in _pieces(text((0, len(pipes) + 1))):
            if piece is None:
                copy()
            else:
                write(piece)

    _forked(parts, send, splice)


def _pieces(chunks: Iterable[str]) -> Iterator[str | None]:
    """The text of the chunks in pieces, with None for each _SUBTREE."""
    for chunk in chunks:
        first, *rest = chunk.split(_SUBTREE)
        yield first
        for piece in rest:
            yield None
            yield piece
