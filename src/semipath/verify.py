"""Brute-force cross-checks of every closed form and every dual route.

Each check recomputes a result by the slowest credible method (double loops,
exhaustive enumeration, direct iteration) and compares it with the fast
route the library actually uses.  The CLI `verify` subcommand prints one
line per check; the heavy sweeps run only with deep=True or on request.

The module verdicts come from one pass over the lean-set stream, which
keeps no set once it is checked; an exhaustive pass runs in forked parts,
each over its own subtrees of the stream, and leansets hands back what each
run of a part's sets gives, in walk order.  Syzygy-and-normalize permutes the
modules with n generators, so they fall into disjoint cycles: each cycle
is checked once, from its greatest path-matrix rows, along the definitional
walk of syzygy_oracle, and the cycles walked must cover every module.

tests/test_mutations.py is the list of kernel -> verdict pairs: each row
breaks one kernel and pins the verdicts that then FAIL.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import combinations, product
from typing import NamedTuple

from .counting import (
    _require_generator_count,
    catalan,
    count_fixed_points,
    count_lean_sets,
    count_lean_sets_total,
    narayana,
    orbit_count_table,
)
from .errors import InvariantError
from .leansets import LeanSet, _results, enumerate_lean_sets, is_lean
from .paths import PathMatrix, _below_diagonal, _rows, admissible_rotation, lean_set_from_path
from .semigroup import GapPoint, SemigroupPair, _require_pair, gaps, is_member, membership_sieve, presentation
from .semimodules import Semimodule
from .syzygies import (
    _cosets,
    _pairwise_lean,
    _steps,
    _window_generators,
    fundamental_couple,
    syzygy,
    syzygy_matrix,
    syzygy_oracle,
    syzygy_period,
    validate_fundamental_couple,
)

__all__ = [
    "CheckResult",
    "run_checks",
    "naive_members",
    "brute_period_tally",
    "compositions",
]

ENUMERATION_CAP = 210_000
SAMPLE_SEED = 91405
# The least lean sets an exhaustive lean pass forks at.  In-process on 2 vCPUs
# (Python 3.11.7), 11 alternating runs each: a set's deep checks take 75-125 µs
# and a fork with its reap 1.7 ms; 2 parts beat 1 in 10 or 11 runs of 11 from
# 204 sets up, but for (5,11)'s 273 (1 of 11), and lost up to 3 ms below 150.
# So verify 5 7 --deep (66 sets), the benchmark's instrumented op, never forks.
_LEAN_FORK_FLOOR = 256


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    skipped: bool = False


def naive_members(semigroup: SemigroupPair, bound: int) -> set[int]:
    """{i*alpha + j*beta <= bound} by double loop; the slowest membership route."""
    _require_pair(semigroup)
    out = set()
    for i in range(bound // semigroup.alpha + 1):
        base = i * semigroup.alpha
        out.update(range(base, bound + 1, semigroup.beta))
    return out


def _composition(total: int, cuts) -> tuple[int, ...]:
    """The composition of total whose partial sums are the ascending cuts."""
    bounds = (0, *cuts, total)
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def compositions(total: int, parts: int):
    """All ordered writings of total as `parts` positive integers, lexicographically."""
    cuts = combinations(range(1, total), parts - 1) if 1 <= parts <= total else ()
    return (_composition(total, c) for c in cuts)


def _random_composition(rng: random.Random, total: int, parts: int) -> tuple[int, ...]:
    return _composition(total, sorted(rng.sample(range(1, total), parts - 1)))


def check_gap_arithmetic(semigroup: SemigroupPair) -> list[CheckResult]:
    bound = 3 * semigroup.product
    naive = naive_members(semigroup, bound)
    round_trip = all(
        (q := presentation(semigroup, n)).value(semigroup) == n
        and q.p >= 1 and 0 <= q.a < semigroup.beta and 0 <= q.b < semigroup.alpha
        for n in range(1, bound + 1)
    )
    member_match = all(is_member(semigroup, n) == (n in naive) for n in range(bound + 1))
    gap_values = [g.value for g in gaps(semigroup)]
    gap_set = set(gap_values)
    expected_gaps = sorted(set(range(1, semigroup.product)) - naive)
    sieve = membership_sieve(semigroup, bound)
    gaps_ok = (
        gap_values == expected_gaps
        and len(gap_values) == (semigroup.alpha - 1) * (semigroup.beta - 1) // 2
        and all(n in naive or n in gap_set for n in range(bound))
        and all(sieve[n] == (n in naive) for n in range(bound + 1))
        and all(is_member(semigroup, n) for n in range(semigroup.frobenius + 1, bound))
    )
    return [
        CheckResult("presentation-round-trip", round_trip, f"all n <= {bound}"),
        CheckResult("membership-vs-double-loop", member_match, f"all n <= {bound}"),
        CheckResult("gap-table", gaps_ok, f"{len(gap_values)} gaps"),
    ]


def check_cycle_lemma(semigroup: SemigroupPair) -> CheckResult:
    alpha, beta = semigroup.alpha, semigroup.beta
    total = sum(math.comb(alpha - 1, k - 1) * math.comb(beta - 1, k - 1) for k in range(1, alpha + 1))
    if total <= 100_000:
        kind = "exhaustive"
        rows = (row for k in range(1, alpha + 1) for row in product(compositions(alpha, k), compositions(beta, k)))
    else:
        total, kind, rng = 1000, "1000 sampled", random.Random(SAMPLE_SEED)
        ks = (rng.randint(1, alpha) for _ in range(total))  # drawn lazily, each before its compositions
        rows = [(_random_composition(rng, alpha, k), _random_composition(rng, beta, k)) for k in ks]
    ok = True
    for down, right in rows:
        n, downs, rights = len(down), down + down, right + right  # rotation i: [i:i + n] of each
        hits = [i for i in range(n) if _below_diagonal(alpha, beta, downs[i:i + n], rights[i:i + n])]
        # A matrix the route refuses fails the check: -1 is no hit.
        rotation = _unless_it_raises(admissible_rotation, semigroup, PathMatrix._trusted(down, right))
        index, rotated = rotation or (-1, None)
        if hits != [index] or (rotated.down, rotated.right) != (downs[index:index + n], rights[index:index + n]):
            ok = False
            break
    return CheckResult("cycle-lemma", ok, f"{total} matrices, {kind}")


def _unless_it_raises(route, *args):
    """The route's result, or None when it raises InvariantError or
    ValueError on this module; the caller fails that route's verdicts and
    goes on.  run_checks has checked the pair and deep before any route
    runs, so a ValueError here is a route refusing a value verify built."""
    try:
        return route(*args)
    except (InvariantError, ValueError):
        return None


def _table_chain(semigroup: SemigroupPair, table: dict[int, GapPoint], module: Semimodule) -> tuple:
    """(module, chain, rows): the gap points of the generators after the
    leading 0, ascending in a, looked up in a value -> GapPoint table of
    gaps(pair) rather than through presentation, and the path rows of that
    chain; both None when one of them is no gap."""
    points = [table.get(g) for g in module.gens[1:]]
    if None in points:
        return module, None, None
    chain = tuple(sorted(points, key=lambda p: p.a))
    return module, chain, _rows(semigroup, chain)


def check_syzygy_routes(
    semigroup: SemigroupPair, oracle: Semimodule | None, member: tuple, successor: tuple, failed: set[str]
) -> None:
    """The syzygy verdicts of one walk member, from its syzygy_oracle syzygy
    (None for a single generator) and the (module, chain, rows) of it and of
    its successor: fast route and consecutive coset union against the oracle,
    the couple's conditions, matrix route and normalized fast route against
    the successor.  Each failing verdict's name goes into failed."""
    module, chain, rows = member
    fast = _unless_it_raises(syzygy, semigroup, module)
    if oracle is not None and (fast is None or fast.gens != oracle.gens):
        failed.add("syzygy-route-equivalence")
    if chain is None:  # not lean, so it has no couple and no path
        failed.update(("fundamental-couples", "syzygy-matrix-route"))
        return
    couple = fundamental_couple(semigroup, LeanSet._from_chain(semigroup, chain))
    valid = _unless_it_raises(validate_fundamental_couple, semigroup, couple.gens, couple.syzygy_gens)
    if not (valid and _pairwise_lean(semigroup, couple.syzygy_gens)):  # differences ignore J's shift
        failed.add("fundamental-couples")
    if oracle is not None:
        # The oracle's cosets in couple order, relative to 0: syzygy() takes normalized modules.
        cosets = _cosets(semigroup, couple.gens)
        consecutive = 0
        for one, other in zip(cosets, cosets[1:] + cosets[:1]):
            consecutive |= one & other
        # The oracle cut the all-pairs union to this window; a cut is fixed by its generators.
        if _window_generators(semigroup, consecutive) != oracle.gens:
            failed.add("syzygy-consecutive-union")
    rotated = admissible_rotation(semigroup, syzygy_matrix(PathMatrix._trusted(*rows)))[1]
    following, _, following_rows = successor
    if (rotated.down, rotated.right) != following_rows or fast is None or fast.normalize().gens != following.gens:
        failed.add("syzygy-matrix-route")


def _definitional_cycle(semigroup: SemigroupPair, start: Semimodule) -> tuple[list, Semimodule]:
    """The orbit of a normalized module by the definition, start first: each
    member with its bitset-coset syzygy_oracle syzygy, whose shift to 0 is
    its successor, the next member, until the start recurs; and the last
    member's successor.  One oracle call per member; a single generator has
    no oracle syzygy (None) and is its own successor.  It shares no kernel
    with the rows walk.  Past n steps the walk stops with n + 1 members,
    more than any orbit has, so a missing recurrence fails the comparison."""
    walk, module = [], start
    while len(walk) <= len(start.gens):
        oracle = syzygy_oracle(semigroup, module) if len(module.gens) > 1 else None
        walk.append((module, oracle))
        module = module if oracle is None else oracle.normalize()
        if module.gens == start.gens:
            break
    return walk, module


def check_periods(
    semigroup: SemigroupPair, table: dict, start: Semimodule, failed: set[str], tallies: dict[int, Counter[int]]
) -> int:
    """One orbit, from its start: the definitional walk against the cycle of
    syzygy_period, walked on path-matrix rows, that cycle against period | n
    and the walk's oracle shifts against the lap identity (they sum to
    len(walk) * alpha*beta / n); then the syzygy verdicts of every member the
    walk met, from its oracle syzygy and its and its successor's table rows,
    each built once.  Failing names go into failed, the period into
    tallies[n] once per member; returns the members walked."""
    walk, following = _definitional_cycle(semigroup, start)
    report = _unless_it_raises(syzygy_period, semigroup, start)
    if report is None:
        failed.update(("period-divisibility", "period-route-equivalence"))
    else:
        n, period = report.n, report.period
        shift = sum(semigroup.product if oracle is None else oracle.gens[0] for _, oracle in walk)
        if n % period or shift * n != len(walk) * semigroup.product or len({m.gens for m in report.cycle}) != period:
            failed.add("period-divisibility")
        if [m.gens for m in report.cycle] != [module.gens for module, _ in walk]:
            failed.add("period-route-equivalence")
        tallies.setdefault(n, Counter())[period] += period
    built = [_table_chain(semigroup, table, module) for module, _ in walk]
    built.append(built[0] if following.gens == start.gens else _table_chain(semigroup, table, following))
    for (_, oracle), member, successor in zip(walk, built, built[1:]):
        check_syzygy_routes(semigroup, oracle, member, successor, failed)
    return len(walk)


def check_catalan_narayana(semigroup: SemigroupPair) -> CheckResult:
    alpha = semigroup.alpha
    values = [1]
    for n in range(1, alpha + 1):
        values.append(sum(values[i] * values[n - 1 - i] for i in range(n)))
    ok = count_lean_sets_total(semigroup) == values[alpha] == catalan(alpha) and all(
        count_lean_sets(semigroup, r) == narayana(alpha, r) for r in range(alpha)
    )
    return CheckResult("catalan-narayana", ok, f"C_{alpha} = {values[alpha]}")


def _leader_period(alpha: int, beta: int, start: tuple) -> int:
    """The period of the syzygy cycle through the admissible rows start when
    start is the greatest rows of that cycle, in tuple order, else 0: the
    walk stops at the first rows > start, or ends at its return to start."""
    for t, rows in enumerate(_steps(alpha, beta, *start), 1):
        if rows > start:
            return 0
    return t


def _tally_run(semigroup: SemigroupPair, n: int, chains) -> tuple[Counter[int], int]:
    """(tally, modules) of one run of the n-generator stream's chains: the
    periods its leaders count and how many modules it started from."""
    alpha, beta = semigroup.alpha, semigroup.beta
    tally: Counter[int] = Counter()
    modules = 0
    for chain in chains:
        period = _leader_period(alpha, beta, _rows(semigroup, chain))
        modules += 1
        if period:
            tally[period] += period
    return tally, modules


def brute_period_tally(semigroup: SemigroupPair, n: int) -> Counter[int]:
    """Period histogram over all n-generator semimodules, by iterating the
    syzygy operation on their path matrices.

    A walk starts from every module, but only the greatest rows of a cycle,
    in tuple order, count it: a walk that returns to its start at step t adds
    t modules of period t, and one that first meets greater rows stops
    uncounted.  The walks run in the parts of the chain stream that
    leansets._results forks, each over its own subtrees, which raises the
    error a walk in one part meets first.  Constant memory per process; a
    missing recurrence, or counted cycles that do not cover every module
    exactly, is an InvariantError.
    """
    _require_generator_count(semigroup, n)
    runs = _results(semigroup, n - 1, partial(_tally_run, semigroup, n))
    tally = sum((run_tally for run_tally, _ in runs), Counter())
    counted, modules = sum(tally.values()), sum(modules for _, modules in runs)
    if counted != modules:
        raise InvariantError(f"the counted cycles hold {counted} modules, the walks started from {modules}")
    return tally


class _LeanRun(NamedTuple):
    """What one run of the lean pass hands back (_check_lean_run)."""

    failed: set[str]
    tallies: dict[int, Counter[int]]
    per_r: Counter[int]
    covered: int
    first: list  # the (a, b) key of the run's first set
    last: list  # and of its last
    small: list[tuple]  # (members, gap points) of each set with fewer than 4 gap points


def _check_lean_run(semigroup: SemigroupPair, table: dict, sample: set | None, chains) -> _LeanRun:
    """The lean checks of one run of the lean stream's chains, as
    check_lean_enumeration describes them, but for those that compare sets
    across runs: the run's own sets must be in strictly increasing (a, b)
    order, and it hands back its first and last key and its sets of fewer
    than 4 gap points.  A sample holds stream indices, so a sampled pass
    runs in one part, which is one run."""
    alpha, beta = semigroup.alpha, semigroup.beta
    failed: set[str] = set()
    tallies: dict[int, Counter[int]] = {}
    per_r: Counter[int] = Counter()
    small = []
    covered, first, previous = 0, None, None
    for count, chain in enumerate(chains, 1):
        lean = LeanSet._from_chain(semigroup, chain)
        per_r[lean.gap_count] += 1
        rows = _rows(semigroup, lean.gap_points)
        lean_ok = is_lean(semigroup, lean.members) and _pairwise_lean(semigroup, lean.members)
        round_trip = _unless_it_raises(lean_set_from_path, semigroup, PathMatrix._trusted(*rows)) == lean
        key = [(p.a, p.b) for p in lean.gap_points]
        first = key if previous is None else first
        if not lean_ok or previous is not None and not previous < key:
            failed.add("lean-stream")
        previous = key
        if lean.gap_count < 4:
            small.append((lean.members, lean.gap_points))
        if not round_trip:
            failed.add("path-round-trip")
        starts = count - 1 in sample if sample else _unless_it_raises(_leader_period, alpha, beta, rows) != 0
        if starts or not (lean_ok and round_trip):
            start = Semimodule._trusted(semigroup, lean.members)
            covered += check_periods(semigroup, table, start, failed, tallies)
    return _LeanRun(failed, tallies, per_r, covered, first, previous, small)


def check_lean_enumeration(semigroup: SemigroupPair, total: int, deep: bool) -> list[CheckResult]:
    """Every module verdict, from one pass over the stream of lean sets.

    Each set gets its lean checks as it arrives: the chain criterion against
    the pairwise definition, the path round trip, which must return the same
    lean set (members and gap points), a count per r, its place in the r < 4
    filtered streams, and distinctness, read as strictly increasing
    (a, b)-lexicographic chain order.  Some sets start an orbit
    check (check_periods): in an exhaustive run (deep, or at most 200 sets)
    each set whose rows are the greatest of its cycle, so every cycle is
    checked once and the orbits walked must cover the stream; in a sampled
    run the seeded 200.  A set that fails its lean checks starts one too.
    The sets are used unvalidated, so one that is not lean is an internal
    error (exit 3), not bad input.  Only the sets of fewer than 4 gap points
    are kept, for the filtered streams (10,352 of the 208,012 of (12,13)).

    An exhaustive pass of at least _LEAN_FORK_FLOOR sets runs in the parts
    that leansets._results forks, each over its own subtrees.  It hands back
    the runs in walk order, which are then compared across runs: each run's
    last key with the next one's first, and the r < 4 sets with the filtered
    streams.  A check that raises stops the pass with the error a pass in one
    part meets first.
    """
    alpha = semigroup.alpha
    sample = None if deep or total <= 200 else set(random.Random(SAMPLE_SEED).sample(range(total), 200))
    table = {point.value: point for point in gaps(semigroup)}
    check = partial(_check_lean_run, semigroup, table, sample)
    runs = _results(semigroup, None, check, floor=None if sample else _LEAN_FORK_FLOOR)
    failed = set().union(*(run.failed for run in runs))
    tallies: dict[int, Counter[int]] = {}
    for run in runs:
        for n, tally in run.tallies.items():
            tallies.setdefault(n, Counter()).update(tally)
    per_r = sum((run.per_r for run in runs), Counter())
    count, covered = sum(per_r.values()), sum(run.covered for run in runs)
    small = [lean for run in runs for lean in run.small]
    if any(not before.last < after.first for before, after in zip(runs, runs[1:])) or any(
        [(members, points) for members, points in small if len(points) == r]
        != [(lean.members, lean.gap_points) for lean in enumerate_lean_sets(semigroup, r)]
        for r in range(min(alpha, 4))
    ):
        failed.add("lean-stream")
    if count != total or any(per_r[r] != count_lean_sets(semigroup, r) for r in range(alpha)):
        failed.add("lean-count-formulas")
    if sample is None and covered != count:  # every module lies in exactly one cycle
        failed.add("period-route-equivalence")
    details = {
        "lean-count-formulas": f"{count} sets, every r",
        "lean-stream": "no duplicates, filter consistent",
        "path-round-trip": "lean set -> matrix -> lean set",
        "syzygy-route-equivalence": f"{count if sample is None else len(sample)} modules",
        "fundamental-couples": "conditions hold, J lean after shift",
        "syzygy-matrix-route": "top-row rotation matches",
        "syzygy-consecutive-union": "pairwise = consecutive + outer",
        "period-divisibility": "period | n and n/period | alpha*beta",
        "period-route-equivalence": "matrix vs element iteration",
    }
    if deep:
        for n in range(1, alpha + 1):  # a cycle never walked may take its n out of tallies
            tally = tallies.get(n, Counter())
            table = _unless_it_raises(orbit_count_table, semigroup, n)
            exact = table is not None and all(tally[row.ell] == row.exact for row in table.rows)
            if not exact or tally[1] != _unless_it_raises(count_fixed_points, semigroup, n):
                failed.add("orbit-tables-vs-iteration")
        details["orbit-tables-vs-iteration"] = f"n = {sorted(tallies)}"
    return [CheckResult(name, name not in failed, detail) for name, detail in details.items()]


def run_checks(semigroup: SemigroupPair, deep: bool = False) -> list[CheckResult]:
    """Run the cross-check suite; deep means every sweep is exhaustive."""
    _require_pair(semigroup)
    if not isinstance(deep, bool):
        raise ValueError(f"deep must be a bool, got {deep!r}")
    results = check_gap_arithmetic(semigroup)
    total = count_lean_sets_total(semigroup)
    if total <= ENUMERATION_CAP:
        results += check_lean_enumeration(semigroup, total, deep)
    else:
        skipped = f"skipped: {total} lean sets exceeds cap {ENUMERATION_CAP}"
        results.append(CheckResult("lean-enumeration", True, skipped, skipped=True))
    results.append(check_cycle_lemma(semigroup))
    if semigroup.beta == semigroup.alpha + 1:
        results.append(check_catalan_narayana(semigroup))
    return results
