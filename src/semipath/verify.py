"""Brute-force cross-checks of every closed form and every dual route.

Each check recomputes a result by the slowest credible method (double loops,
exhaustive enumeration, direct iteration) and compares it with the fast
route the library actually uses.  The CLI `verify` subcommand prints one
line per check; the heavy sweeps run only with deep=True or on request.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product

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
from .leansets import LeanSet, _gap_chains, _lean_chain, enumerate_lean_sets, is_lean
from .paths import (
    PathMatrix,
    _below_diagonal,
    _rows,
    admissible_rotation,
    lean_set_from_path,
)
from .semigroup import SemigroupPair, gaps, is_member, membership_sieve, presentation
from .semimodules import Semimodule
from .syzygies import (
    _cosets,
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

ENUMERATION_CAP = 200_000
SAMPLE_SEED = 91405

# A lean set with its path matrix and validated module, derived once by run_checks.
Enumerated = tuple[LeanSet, PathMatrix, Semimodule]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    skipped: bool = False


def naive_members(semigroup: SemigroupPair, bound: int) -> set[int]:
    """{i*alpha + j*beta <= bound} by double loop; the slowest membership route."""
    out = set()
    for i in range(bound // semigroup.alpha + 1):
        base = i * semigroup.alpha
        out.update(range(base, bound + 1, semigroup.beta))
    return out


def compositions(total: int, parts: int):
    """All ordered writings of total as `parts` positive integers."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def _random_composition(rng: random.Random, total: int, parts: int) -> tuple[int, ...]:
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    bounds = [0] + cuts + [total]
    return tuple(bounds[i + 1] - bounds[i] for i in range(parts))


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


def _pairwise_lean(semigroup: SemigroupPair, values) -> bool:
    """The definition of leanness, for the values shifted to start at 0: no
    pairwise difference lies in the semigroup.  Membership is read from the
    sieve bitset, not from presentation, the kernel of the chain criterion
    this checks."""
    bits, frobenius = semigroup._member_bits, semigroup.frobenius
    return all(y - x <= frobenius and not bits >> y - x & 1 for x, y in combinations(sorted(values), 2))


def check_lean_enumeration(semigroup: SemigroupPair, modules: list[Enumerated]) -> list[CheckResult]:
    leans = [lean for lean, _, _ in modules]
    per_r = Counter(lean.gap_count for lean in leans)
    round_trip = True
    all_lean = True
    for lean, matrix, _ in modules:
        if not (is_lean(semigroup, lean.members) and _pairwise_lean(semigroup, lean.members)):
            all_lean = False
        if lean_set_from_path(semigroup, matrix).members != lean.members:
            round_trip = False
    total = len(leans)
    counts_ok = total == count_lean_sets_total(semigroup) and all(
        per_r.get(r, 0) == count_lean_sets(semigroup, r) for r in range(semigroup.alpha)
    )
    distinct = len({lean.members for lean in leans}) == total
    filtered_ok = all(
        [l.members for l in enumerate_lean_sets(semigroup, r)]
        == [l.members for l in leans if len(l.members) == r + 1]
        for r in range(min(semigroup.alpha, 4))
    )
    return [
        CheckResult("lean-count-formulas", counts_ok, f"{total} sets, every r"),
        CheckResult("lean-stream", all_lean and distinct and filtered_ok, "no duplicates, filter consistent"),
        CheckResult("path-round-trip", round_trip, "lean set -> matrix -> lean set"),
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
        index, rotated = admissible_rotation(semigroup, PathMatrix._trusted(down, right))
        if hits != [index] or (rotated.down, rotated.right) != (downs[index:index + n], rights[index:index + n]):
            ok = False
            break
    return CheckResult("cycle-lemma", ok, f"{total} matrices, {kind}")


def _unless_it_raises(route, *args):
    """The route's result, or None when it raises InvariantError on this
    module; the caller fails that route's verdicts and goes on."""
    try:
        return route(*args)
    except InvariantError:
        return None


def check_syzygy_routes(
    semigroup: SemigroupPair, modules: list[Enumerated]
) -> tuple[list[CheckResult], dict]:
    """The syzygy verdicts, and sigma: the generators of each module with two
    or more, mapped to those of its normalized syzygy_oracle syzygy."""
    routes_ok = True
    couple_ok = True
    matrix_ok = True
    consecutive_ok = True
    sigma = {}
    for lean, matrix, module in modules:
        couple = fundamental_couple(semigroup, lean)
        if not validate_fundamental_couple(semigroup, couple.gens, couple.syzygy_gens):
            couple_ok = False
        if not _pairwise_lean(semigroup, couple.syzygy_gens):  # differences ignore J's shift
            couple_ok = False
        fast = _unless_it_raises(syzygy, semigroup, module)
        if len(module.gens) >= 2:
            oracle = syzygy_oracle(semigroup, module)
            sigma[module.gens] = oracle.normalize().gens
            if fast is None or fast.gens != oracle.gens:
                routes_ok = False
            # The oracle's cosets in couple order, relative to 0: syzygy() takes normalized modules.
            cosets = _cosets(semigroup, couple.gens)
            consecutive = 0
            for one, other in zip(cosets, cosets[1:] + cosets[:1]):
                consecutive |= one & other
            # The oracle cut the all-pairs union to this window; a cut is fixed by its generators.
            if _window_generators(semigroup, consecutive) != oracle.gens:
                consecutive_ok = False
        rotated = admissible_rotation(semigroup, syzygy_matrix(matrix))[1]
        chain = None if fast is None else _lean_chain(semigroup, fast.normalize().gens)
        if chain is None or rotated != PathMatrix._trusted(*_rows(semigroup, chain)):
            matrix_ok = False
    count = len(modules)
    return [
        CheckResult("syzygy-route-equivalence", routes_ok, f"{count} modules"),
        CheckResult("fundamental-couples", couple_ok, "conditions hold, J lean after shift"),
        CheckResult("syzygy-matrix-route", matrix_ok, "top-row rotation matches"),
        CheckResult("syzygy-consecutive-union", consecutive_ok, "pairwise = consecutive + outer"),
    ], sigma


def _definitional_cycle(
    semigroup: SemigroupPair, start: Semimodule, sigma: dict | None = None
) -> list[tuple[int, ...]]:
    """Generators of the orbit of a normalized module by the definition: the
    memoized map sigma, the bitset-coset syzygy_oracle shifted to 0, followed
    until the start recurs; a module missing from sigma gets one oracle call,
    kept there.  It shares no kernel with the rows walk.  A single generator
    is its own orbit; past n steps the walk stops with n + 1 entries, longer
    than any orbit, so a missing recurrence fails the comparison."""
    cycle = [start.gens]
    if len(start.gens) == 1:
        return cycle
    sigma = {} if sigma is None else sigma
    for _ in range(len(start.gens)):
        gens = sigma.get(cycle[-1])
        if gens is None:
            module = Semimodule._trusted(semigroup, cycle[-1])
            gens = sigma[cycle[-1]] = syzygy_oracle(semigroup, module).normalize().gens
        if gens == start.gens:
            break
        cycle.append(gens)
    return cycle


def check_periods(
    semigroup: SemigroupPair, modules: list[Enumerated], deep: bool, sigma: dict
) -> list[CheckResult]:
    """Each syzygy_period cycle, walked on path-matrix rows, against the period
    theorems and the definitional walk along check_syzygy_routes' sigma map;
    deep adds the period tallies against the closed-form orbit tables."""
    division_ok = True
    matrix_ok = True
    tallies: dict[int, Counter[int]] = {}
    for _, _, module in modules:
        report = _unless_it_raises(syzygy_period, semigroup, module)
        if report is None:
            division_ok = matrix_ok = False
            continue
        n = report.n
        if n % report.period or semigroup.product % (n // report.period):
            division_ok = False
        if len({m.gens for m in report.cycle}) != report.period:
            division_ok = False
        if [m.gens for m in report.cycle] != _definitional_cycle(semigroup, module, sigma):
            matrix_ok = False
        tallies.setdefault(n, Counter())[report.period] += 1
    results = [
        CheckResult("period-divisibility", division_ok, "period | n and n/period | alpha*beta"),
        CheckResult("period-route-equivalence", matrix_ok, "matrix vs element iteration"),
    ]
    if deep:
        tables_ok = True
        for n, tally in sorted(tallies.items()):
            table = orbit_count_table(semigroup, n)
            for row in table.rows:
                if tally.get(row.ell, 0) != row.exact:
                    tables_ok = False
            if tally.get(1, 0) != count_fixed_points(semigroup, n):
                tables_ok = False
        results.append(
            CheckResult("orbit-tables-vs-iteration", tables_ok, f"n = {sorted(tallies)}")
        )
    return results


def check_catalan_narayana(semigroup: SemigroupPair) -> CheckResult:
    alpha = semigroup.alpha
    values = [1]
    for n in range(1, alpha + 1):
        values.append(sum(values[i] * values[n - 1 - i] for i in range(n)))
    ok = count_lean_sets_total(semigroup) == values[alpha] == catalan(alpha) and all(
        count_lean_sets(semigroup, r) == narayana(alpha, r) for r in range(alpha)
    )
    return CheckResult("catalan-narayana", ok, f"C_{alpha} = {values[alpha]}")


def brute_period_tally(semigroup: SemigroupPair, n: int) -> Counter[int]:
    """Period histogram over all n-generator semimodules, by iterating the
    syzygy operation on their path matrices.

    A walk starts from every module, but only the least rows of a cycle, in
    tuple order, count it: a walk that returns to its start at step t adds t
    modules of period t, and one that first meets smaller rows stops
    uncounted.  Constant memory; a missing recurrence, or counted cycles that
    do not cover every module exactly, is an InvariantError.
    """
    _require_generator_count(semigroup, n)
    alpha, beta = semigroup.alpha, semigroup.beta
    tally: Counter[int] = Counter()
    modules = 0
    for chain in _gap_chains(semigroup, n - 1):
        modules += 1
        start = _rows(semigroup, chain)
        for t, rows in enumerate(_steps(alpha, beta, *start), 1):
            if rows <= start:
                if rows == start:
                    tally[t] += t
                break
        else:
            raise InvariantError(f"no syzygy recurrence within {n} steps for {start[0]}/{start[1]}")
    counted = sum(tally.values())
    if counted != modules:
        raise InvariantError(f"the counted cycles hold {counted} modules, the walks started from {modules}")
    return tally


def run_checks(semigroup: SemigroupPair, deep: bool = False) -> list[CheckResult]:
    """Run the cross-check suite; deep means every sweep is exhaustive."""
    results = check_gap_arithmetic(semigroup)
    total = count_lean_sets_total(semigroup)
    if total <= ENUMERATION_CAP:
        # Built unvalidated: check_lean_enumeration tests every set and each
        # syzygy step re-checks its chain, so a set that is not lean is an
        # internal error (exit 3), not bad input.
        modules = [
            (
                lean,
                PathMatrix._trusted(*_rows(semigroup, lean.gap_points)),
                Semimodule._trusted(semigroup, lean.members),
            )
            for lean in enumerate_lean_sets(semigroup)
        ]
        results += check_lean_enumeration(semigroup, modules)
        if not deep and len(modules) > 200:
            modules = random.Random(SAMPLE_SEED).sample(modules, 200)
        routes, sigma = check_syzygy_routes(semigroup, modules)
        results += routes + check_periods(semigroup, modules, deep, sigma)
        del modules, sigma  # freed before the cycle lemma runs
    else:
        results.append(
            CheckResult(
                "lean-enumeration",
                True,
                f"skipped: {total} lean sets exceeds cap {ENUMERATION_CAP}",
                skipped=True,
            )
        )
    results.append(check_cycle_lemma(semigroup))
    if semigroup.beta == semigroup.alpha + 1:
        results.append(check_catalan_narayana(semigroup))
    return results
