"""Exact arithmetic in the numerical semigroup generated by two coprime integers.

The semigroup <alpha, beta> = {i*alpha + j*beta : i, j >= 0} misses finitely
many positive integers, its gaps; the largest gap is the Frobenius number
alpha*beta - alpha - beta.  Every positive integer n can be written uniquely
as n = p*alpha*beta - a*alpha - b*beta with p > 0, 0 <= a < beta and
0 <= b < alpha, and n is a gap exactly when p = 1 with a, b >= 1.  That
identifies each gap with a lattice point (a, b) strictly inside the triangle
with corners (0, 0), (beta, 0), (0, alpha), which is the bridge between the
arithmetic here and the lattice-path modules.  _gap_of is the one place that
rule is read off a presentation.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .errors import InvariantError

__all__ = [
    "SemigroupPair",
    "Presentation",
    "GapPoint",
    "presentation",
    "is_member",
    "gaps",
    "gap_point",
    "membership_sieve",
]


def _is_int(value) -> bool:
    """The library's one integer test: bool, float and str are refused, not coerced."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(value, what: str, low: int, high: int | None = None) -> None:
    """The library's one integer-argument rule: an int proper in [low, high],
    or >= low when high is None, else ValueError naming what and the value."""
    if high is not None:
        if not (_is_int(value) and low <= value <= high):
            raise ValueError(f"{what} must lie in [{low}, {high}], got {value!r}")
    elif not (_is_int(value) and value >= low):
        raise ValueError(f"{what} must be an integer >= {low}, got {value!r}")


def _sorted_ints(xs: Iterable, what: str = "generators") -> list[int]:
    """The distinct values of xs, ascending: the one rule for a set of ints proper, never empty."""
    if not isinstance(xs, Iterable):
        raise ValueError(f"{what} must be integers, got {xs!r}")
    values = list(xs)
    if not all(_is_int(v) for v in values):
        raise ValueError(f"{what} must be integers, got {values!r}")
    if not values:
        raise ValueError(f"{what} must not be empty")
    return sorted(set(values))


def _require_pair(semigroup) -> SemigroupPair:
    """The library's one pair test: the pair itself, else ValueError, (5, 7) and None included."""
    if not isinstance(semigroup, SemigroupPair):
        raise ValueError(f"semigroup must be a SemigroupPair, got {semigroup!r}")
    return semigroup


def _require_kind(obj, kind: type) -> None:
    """Refuse by kind's name an argument of another type, such as a list, tuple
    or None given for a module, lean set or path matrix."""
    if not isinstance(obj, kind):
        raise ValueError(f"input must be a {kind.__name__}, got {obj!r}")


def _require_same_pair(semigroup: SemigroupPair, obj, kind: type) -> None:
    """Refuse anything but a kind (Semimodule or LeanSet) of this pair: the
    numbers of another pair name other gaps.  The same pair object passes at
    once; any other is tested and compared by value."""
    _require_kind(obj, kind)
    if obj.semigroup is not semigroup and obj.semigroup != _require_pair(semigroup):
        raise ValueError(f"input built over {obj.semigroup!r} was passed with {semigroup!r}")


@dataclass(frozen=True)
class SemigroupPair:
    """A coprime generator pair (alpha, beta) with 2 <= alpha < beta."""

    alpha: int
    beta: int
    product: int = field(init=False, repr=False, compare=False)
    frobenius: int = field(init=False, repr=False, compare=False)
    _beta_inverse: int = field(init=False, repr=False, compare=False)  # beta^-1 mod alpha
    _alpha_inverse: int = field(init=False, repr=False, compare=False)  # alpha^-1 mod beta
    # The GapPoint, or None for no gap, of each 1 <= x <= frobenius asked for so
    # far: leansets._lean_chain's memo per pair object, one _gap_of per value.
    _gap_points: dict[int, GapPoint | None] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not _is_int(self.alpha) or not _is_int(self.beta):
            raise ValueError(f"generators must be integers, got ({self.alpha!r}, {self.beta!r})")
        if self.alpha < 2 or self.alpha >= self.beta:
            raise ValueError(f"need 2 <= alpha < beta, got ({self.alpha}, {self.beta})")
        if math.gcd(self.alpha, self.beta) != 1:
            raise ValueError(f"generators must be coprime, got ({self.alpha}, {self.beta})")
        object.__setattr__(self, "product", self.alpha * self.beta)
        object.__setattr__(self, "frobenius", self.alpha * self.beta - self.alpha - self.beta)
        object.__setattr__(self, "_beta_inverse", pow(self.beta, -1, self.alpha))
        object.__setattr__(self, "_alpha_inverse", pow(self.alpha, -1, self.beta))

    @cached_property
    def _member_bits(self) -> int:
        """Bit k is set exactly when k lies in <alpha, beta>, for k up to
        2*alpha*beta + frobenius; read off the membership sieve once per pair."""
        sieve = membership_sieve(self, 2 * self.product + self.frobenius)
        return int("".join("1" if m else "0" for m in reversed(sieve)), 2)


class Presentation(NamedTuple):
    """The unique triple (p, a, b) writing n as p*alpha*beta - a*alpha - b*beta."""

    p: int
    a: int
    b: int

    def value(self, semigroup: SemigroupPair) -> int:
        return self.p * semigroup.product - self.a * semigroup.alpha - self.b * semigroup.beta


class GapPoint(NamedTuple):
    """A gap value alpha*beta - a*alpha - b*beta together with its point (a, b), a, b >= 1."""

    value: int
    a: int
    b: int


def presentation(semigroup: SemigroupPair, n: int) -> Presentation:
    """Decompose n >= 1 as p*alpha*beta - a*alpha - b*beta.

    The residues of n determine a and b directly: b = -n/beta mod alpha and
    a = -n/alpha mod beta.  The remaining factor p is then an exact positive
    integer; anything else means the arithmetic is broken.
    """
    _require_pair(semigroup)
    _require_int(n, "n", 1)
    alpha, beta = semigroup.alpha, semigroup.beta
    b = (-n * semigroup._beta_inverse) % alpha
    a = (-n * semigroup._alpha_inverse) % beta
    p, rem = divmod(n + a * alpha + b * beta, semigroup.product)
    if rem != 0 or p <= 0:
        raise InvariantError(f"presentation of {n} failed: p={p}, remainder={rem}")
    return Presentation(p, a, b)


def is_member(semigroup: SemigroupPair, n: int) -> bool:
    """Whether n lies in <alpha, beta>."""
    _require_pair(semigroup)
    _require_int(n, "n", 0)
    return n == 0 or _gap_of(semigroup, n) is None


def gaps(semigroup: SemigroupPair) -> tuple[GapPoint, ...]:
    """All gaps in increasing value order; there are (alpha-1)(beta-1)/2 of them."""
    _require_pair(semigroup)
    alpha, beta, ab = semigroup.alpha, semigroup.beta, semigroup.product
    out = []
    for a in range(1, beta):
        for b in range(1, (ab - a * alpha - 1) // beta + 1):
            out.append(GapPoint(ab - a * alpha - b * beta, a, b))
    out.sort(key=lambda g: g.value)
    expected = (alpha - 1) * (beta - 1) // 2
    if len(out) != expected:
        raise InvariantError(f"found {len(out)} gaps, expected {expected}")
    return tuple(out)


def _gap_of(semigroup: SemigroupPair, n: int) -> GapPoint | None:
    """The gap point of n >= 1 when its presentation has p = 1 and a, b >= 1, else None."""
    q = presentation(semigroup, n)
    return GapPoint(n, q.a, q.b) if q.p == 1 and q.a and q.b else None


def gap_point(semigroup: SemigroupPair, n: int) -> GapPoint:
    """The lattice point of the gap n; raises ValueError when n is not a gap."""
    if (point := _gap_of(semigroup, n)) is None:
        raise ValueError(f"{n} is not a gap of <{semigroup.alpha},{semigroup.beta}>")
    return point


def membership_sieve(semigroup: SemigroupPair, limit: int) -> list[bool]:
    """Boolean table member[k] for 0 <= k <= limit, built by dynamic programming.

    Independent of the presentation route, which makes it a convenient second
    opinion and the workhorse for windowed semimodule computations.
    """
    _require_pair(semigroup)
    _require_int(limit, "limit", 0)
    member = [False] * (limit + 1)
    member[0] = True
    alpha, beta = semigroup.alpha, semigroup.beta
    for k in range(1, limit + 1):
        if k >= alpha and member[k - alpha]:
            member[k] = True
        elif k >= beta and member[k - beta]:
            member[k] = True
    return member
