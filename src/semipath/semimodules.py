"""Semimodules over <alpha, beta>: subsets of N closed under adding the semigroup.

A semimodule is determined by its unique minimal generating set, whose
pairwise differences are all gaps.  Two semimodules are isomorphic exactly
when one is an integer shift of the other, so subtracting the least
generator gives a canonical representative containing 0; its generator set
is lean, and that correspondence is a bijection between isomorphism classes
and lean sets.

Trust boundary: the public constructors, Semimodule(...) and
Semimodule.from_json, validate their input in full, and every public
function given a pair refuses, by name, one that is no SemigroupPair.
Every semimodule the library derives from an already-valid one (shifts,
syzygies, orbit cycles, enumerated lean sets) is built by the private
Semimodule._trusted, which skips that validation and fills the slots
directly; the syzygy step instead re-checks, in O(n), the invariant it
relies on.  Both checks read the monotone gap-chain criterion, which
presents each value once per pair and remembers its gap point on the
SemigroupPair object; consecutive from_json objects over one pair share one
such object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Union

from .leansets import _lean_chain
from .semigroup import SemigroupPair, _require_int, _require_pair, _require_same_pair, _sorted_ints

__all__ = [
    "Semimodule",
    "minimal_generators",
    "normalize",
    "is_isomorphic",
    "elements_up_to",
]


@dataclass(frozen=True, slots=True)
class Semimodule:
    """A semimodule held by its minimal generators, ascending.

    Not necessarily normalized; syzygies, for instance, are born shifted.
    Equality is literal equality of generator tuples, so use is_isomorphic
    (or compare normalizations) for shift-invariant questions.
    """

    semigroup: SemigroupPair
    gens: tuple[int, ...]

    def __post_init__(self) -> None:
        pair, gens = _require_pair(self.semigroup), self.gens
        if not isinstance(gens, tuple) or list(gens) != _sorted_ints(gens):
            raise ValueError(f"generators must be a strictly ascending tuple, got {gens!r}")
        if gens[0] < 0:
            raise ValueError(f"generators must be non-negative integers, got {gens}")
        # Minimal exactly when the shift to 0 is lean: the monotone gap-chain criterion.
        if _lean_chain(pair, [g - gens[0] for g in gens] if gens[0] else gens) is None:
            raise ValueError(
                f"{gens} is not minimal: a difference of two generators lies in <{pair.alpha},{pair.beta}>"
            )

    @classmethod
    def _trusted(cls, semigroup: SemigroupPair, gens: tuple[int, ...]) -> "Semimodule":
        """Build without validation, for minimal generators the library derived."""
        module = object.__new__(cls)
        _set_semigroup(module, semigroup)
        _set_gens(module, gens)
        return module

    @property
    def is_normalized(self) -> bool:
        return self.gens[0] == 0

    def normalize(self) -> "Semimodule":
        shift = self.gens[0]
        if not shift:
            return self
        return Semimodule._trusted(self.semigroup, tuple([g - shift for g in self.gens]))

    def to_json(self) -> dict:
        return {
            "alpha": self.semigroup.alpha,
            "beta": self.semigroup.beta,
            "generators": list(self.gens),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Semimodule":
        """The module of a to_json object.  Its generators are a set: the
        ascending list to_json writes is read once, by the constructor, and
        only a list the constructor refuses is sorted and read again.  Either
        read raises its refusal outside the other's handler, so a bad list
        is refused once."""
        try:
            pair = _shared_pair(data["alpha"], data["beta"])
            gens = tuple(data["generators"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed semimodule object: {data!r}") from exc
        try:
            return cls(pair, gens)
        except ValueError as exc:
            refusal = exc
        values = tuple(_sorted_ints(gens))
        if values == gens:
            raise refusal
        return cls(pair, values)


# The frozen class's slot descriptors, through which _trusted fills it.
_set_semigroup, _set_gens = Semimodule.__dict__["semigroup"].__set__, Semimodule.__dict__["gens"].__set__


@lru_cache(maxsize=1, typed=True)
def _shared_pair(alpha: int, beta: int) -> SemigroupPair:
    """The pair of the last from_json object, so that consecutive objects over
    one pair share its gap-point memo.  Typed keys: 5.0 never reads the pair
    of 5, so SemigroupPair still refuses it; a list is a TypeError here."""
    return SemigroupPair(alpha, beta)


def minimal_generators(semigroup: SemigroupPair, xs: Iterable[int]) -> tuple[int, ...]:
    """Minimal generating set of the semimodule generated by xs.

    An element is a minimal generator exactly when neither it minus alpha
    nor it minus beta lies in the semimodule, so the generators are the
    entries w_c of the Apery tuple with w_c - beta < w_((c - beta) mod alpha).
    """
    _require_pair(semigroup)
    values = _sorted_ints(xs)
    if values[0] < 0:
        raise ValueError(f"generators must be non-negative integers, got {values}")
    alpha, beta = semigroup.alpha, semigroup.beta
    w = _apery(semigroup, values)
    return tuple(sorted(y for c, y in enumerate(w) if y - beta < w[(c - beta) % alpha]))


def normalize(semigroup: SemigroupPair, gens: Union[Semimodule, Iterable[int]]) -> Semimodule:
    """Shift so the least generator becomes 0; a plain iterable of integers
    is re-minimalised along the way, a Semimodule is only shifted."""
    _require_pair(semigroup)
    if isinstance(gens, Semimodule):
        _require_same_pair(semigroup, gens, Semimodule)
        return gens.normalize()
    values = _sorted_ints(gens)
    low = values[0]
    return Semimodule(semigroup, minimal_generators(semigroup, (v - low for v in values)))


def is_isomorphic(
    semigroup: SemigroupPair,
    first: Union[Semimodule, Iterable[int]],
    second: Union[Semimodule, Iterable[int]],
) -> bool:
    """Whether the two semimodules differ by an integer shift."""
    return normalize(semigroup, first).gens == normalize(semigroup, second).gens


def elements_up_to(semigroup: SemigroupPair, module: Semimodule, bound: int) -> list[int]:
    """All elements of the semimodule that do not exceed bound, sorted."""
    _require_same_pair(semigroup, module, Semimodule)
    _require_int(bound, "bound", 0)
    alpha, w = semigroup.alpha, _apery(semigroup, module.gens)
    return [y for y in range(bound + 1) if y >= w[y % alpha]]


def _apery(semigroup: SemigroupPair, xs: Iterable[int]) -> list[int]:
    """The Apery tuple of the semimodule generated by the non-empty xs:
    w[c] is its least element congruent to c mod alpha, so y is a member
    exactly when y >= w[y % alpha].

    w[c] is the least x + j*beta over x in xs, where j = (c - x)*beta^-1 mod
    alpha is the one step count in [0, alpha) that reaches residue c; walking
    j over [0, alpha) meets every residue once.  O(|xs| * alpha), no sieve.
    """
    alpha = semigroup.alpha
    w = [math.inf] * alpha
    for x in xs:
        for y in range(x, x + semigroup.product, semigroup.beta):
            if y < w[y % alpha]:
                w[y % alpha] = y
    return w
