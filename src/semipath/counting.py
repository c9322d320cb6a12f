"""Closed-form counts: lean sets per size, totals, and orbit tables.

The number of lean sets with r gaps is C(alpha-1, r) * C(beta-1, r) / (r+1),
summing to C(alpha+beta, alpha) / (alpha+beta) over all r.  For beta =
alpha + 1 these specialise to Narayana and Catalan numbers.  The number of
n-generator semimodules isomorphic to their ell-fold syzygy has a similar
binomial form; taking from each divisor's cumulative count the exact counts
of its proper divisors leaves the exact periods and the orbit tallies.

Every division performed here encodes a theorem, so a nonzero remainder is
raised as an internal error rather than rounded away.  Python integers are
exact at any size, so there is no overflow to guard against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvariantError
from .semigroup import SemigroupPair, _is_int, _require_int, _require_pair

__all__ = [
    "CountRow",
    "CountTable",
    "count_lean_sets",
    "count_lean_sets_total",
    "narayana",
    "catalan",
    "count_ell_periodic",
    "count_fixed_points",
    "orbit_count_table",
]


@dataclass(frozen=True)
class CountRow:
    """One divisor ell of n: cumulative, exact-period and orbit counts."""

    ell: int
    periodic: int
    exact: int
    orbits: int


@dataclass(frozen=True)
class CountTable:
    """Orbit statistics for the semimodules with n generators."""

    n: int
    rows: tuple[CountRow, ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "rows": [
                {"ell": row.ell, "A": row.periodic, "exact": row.exact, "orbits": row.orbits}
                for row in self.rows
            ],
        }


def _exact_div(numerator: int, divisor: int, context: str) -> int:
    quotient, remainder = divmod(numerator, divisor)
    if remainder:
        raise InvariantError(f"{context}: {numerator} is not divisible by {divisor}")
    return quotient


def _require_generator_count(semigroup: SemigroupPair, n: int) -> None:
    _require_int(n, "generator count", 1, _require_pair(semigroup).alpha)


def _require_period(n: int, ell: int) -> None:
    """The library's one period rule: ell a positive divisor of the checked n."""
    if not (_is_int(ell) and ell >= 1 and n % ell == 0):
        raise ValueError(f"ell must be a positive divisor of n={n}, got {ell!r}")


def count_lean_sets(semigroup: SemigroupPair, r: int) -> int:
    """Number of lean sets with exactly r gaps: C(alpha-1, r) C(beta-1, r) / (r+1)."""
    _require_pair(semigroup)
    _require_int(r, "gap count", 0)
    numerator = math.comb(semigroup.alpha - 1, r) * math.comb(semigroup.beta - 1, r)
    return _exact_div(numerator, r + 1, f"lean-set count for r={r}")


def count_lean_sets_total(semigroup: SemigroupPair) -> int:
    """Number of lean sets of any size: C(alpha+beta, alpha) / (alpha+beta)."""
    _require_pair(semigroup)
    total = semigroup.alpha + semigroup.beta
    return _exact_div(math.comb(total, semigroup.alpha), total, "lean-set total")


def narayana(alpha: int, r: int) -> int:
    """Narayana number N(alpha, r+1) = C(alpha, r) C(alpha, r+1) / alpha.

    Equals the count of lean sets with r gaps for the pair (alpha, alpha+1);
    computed from its own formula so the two routes stay independent.
    """
    _require_int(alpha, "alpha", 1)
    _require_int(r, "r", 0)
    numerator = math.comb(alpha, r) * math.comb(alpha, r + 1)
    return _exact_div(numerator, alpha, f"narayana({alpha}, {r})")


def catalan(n: int) -> int:
    """Catalan number C(2n, n) / (n+1); the lean-set total for (n, n+1)."""
    _require_int(n, "n", 0)
    return _exact_div(math.comb(2 * n, n), n + 1, f"catalan({n})")


def count_ell_periodic(semigroup: SemigroupPair, n: int, ell: int) -> int:
    """Semimodules with n generators isomorphic to their ell-fold syzygy.

    The matrix of such a module tiles into blocks whose shape forces
    n/ell to divide alpha*beta; when it does not, no module qualifies and
    the count is 0 by definition (the bare binomial expression would
    overcount in that case).
    """
    _require_generator_count(semigroup, n)
    _require_period(n, ell)
    alpha, beta = semigroup.alpha, semigroup.beta
    quotient = n // ell
    if semigroup.product % quotient:
        return 0
    ga = math.gcd(quotient, alpha)
    gb = math.gcd(quotient, beta)
    numerator = math.comb(alpha // ga - 1, ell * gb - 1) * math.comb(beta // gb - 1, ell * ga - 1)
    return _exact_div(numerator, n, f"ell-periodic count for n={n}, ell={ell}")


def count_fixed_points(semigroup: SemigroupPair, n: int) -> int:
    """Semimodules with n generators isomorphic to their own syzygy: the
    ell = 1 case of count_ell_periodic.

    Zero unless n divides alpha*beta; for n = alpha every module qualifies.
    """
    return count_ell_periodic(semigroup, n, 1)


def orbit_count_table(semigroup: SemigroupPair, n: int) -> CountTable:
    """Per-divisor orbit statistics for the n-generator semimodules.

    For each divisor ell of n, ascending, the cumulative count comes from
    the closed form and counts every module whose period divides ell; the
    exact-period count is what remains after subtracting the exact counts
    of ell's proper divisors, and the orbit count divides out ell.  The
    exact counts must sum to the number of all n-generator semimodules.
    """
    _require_generator_count(semigroup, n)
    rows = []
    for ell in (d for d in range(1, n + 1) if n % d == 0):
        periodic = count_ell_periodic(semigroup, n, ell)
        exact = periodic - sum(row.exact for row in rows if ell % row.ell == 0)
        if exact < 0:
            raise InvariantError(f"negative exact-period count {exact} for ell={ell}")
        orbits = _exact_div(exact, ell, f"orbit count for ell={ell}")
        rows.append(CountRow(ell=ell, periodic=periodic, exact=exact, orbits=orbits))
    total = sum(row.exact for row in rows)
    expected = count_lean_sets(semigroup, n - 1)
    if total != expected:
        raise InvariantError(
            f"exact-period counts sum to {total}, but there are {expected} modules"
        )
    return CountTable(n=n, rows=tuple(rows))
