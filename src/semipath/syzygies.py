"""Syzygies of semimodules, fundamental couples, and orbit structure.

The syzygy of a semimodule generated by a lean set I is the set of elements
admitting more than one coset presentation, i.e. the union of the pairwise
intersections (i + S) with (i' + S).  On the path side the picture is crisp:
number the ES-turns of the path right to left to get I, and the SE-turn
labels (reading the two corners on the axes via the extended labelling) give
a sequence J generating the syzygy.  The pair [I, J] is a fundamental
couple, decided by conditions 0-2 of validate_fundamental_couple, which
force the paper's condition 3, I lean.  Write each gap as I[k] = alpha*beta
- a_k*alpha - b_k*beta, 0 < b_k < alpha.  For an inner k (1 <= k < m),
condition 1 makes J[k] a gap; J[k] = I[k] mod alpha fixes its b as b_k, and
J[k] = I[k+1] mod beta fixes its a as a_{k+1}.  So condition 2's I[k] < J[k]
and J[k] > I[k+1] say exactly a_{k+1} < a_k and b_k < b_{k+1}: the gap
points of I form a chain, lean by the chain theorem _lean_chain rests on.

Taking syzygies and renormalising permutes the isomorphism classes with a
fixed number of generators; on matrices it advances the top row by one
column while keeping the bottom row, followed by the admissible rotation.
Iterating yields orbits, whose minimal length p always divides the generator
count n.  Each SE label is the ES label before it plus d*beta, and the down
runs d sum to alpha, so sum J = sum I + alpha*beta; around a cycle this
telescopes to n * (sum of the p shifts min J) = p * alpha*beta, the lap
identity: Syz^n(M) = M + alpha*beta for every normalized M.

The couple and the syzygy step read J straight off the gap chain's corners
(_se_labels); the orbit cycle walks path-matrix rows and reads its labels
from the row sum paths._labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .counting import _require_period
from .errors import InvariantError
from .leansets import LeanSet, _lean_chain
from .paths import PathMatrix, _admissible_index, _labels, _rows, admissible_rotation, lean_set_from_path
from .semigroup import SemigroupPair, _is_int, _require_int, _require_kind, _require_pair, _require_same_pair
from .semimodules import Semimodule

__all__ = [
    "FundamentalCouple",
    "CoupleValidation",
    "OrbitReport",
    "fundamental_couple",
    "validate_fundamental_couple",
    "syzygy",
    "syzygy_oracle",
    "syzygy_matrix",
    "syzygy_period",
    "iterated_syzygy",
    "orbit_witness",
]


@dataclass(frozen=True)
class FundamentalCouple:
    """The paired sequences [I, J] in right-to-left turn order.

    gens is I (it generates the semimodule, gens[0] = 0) and syzygy_gens is J
    (its cosets union to the syzygy), indexed so that syzygy_gens[k] is
    congruent to gens[k] mod alpha and to gens[k+1] mod beta.
    """

    gens: tuple[int, ...]
    syzygy_gens: tuple[int, ...]

    def to_json(self) -> dict:
        return {"I": list(self.gens), "J": list(self.syzygy_gens)}


@dataclass(frozen=True)
class CoupleValidation:
    """Outcome of checking the couple conditions, first failure wins; clause is 0, 1, 2 or None."""

    ok: bool
    clause: int | None = None
    index: int | None = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class OrbitReport:
    """Result of iterating syzygy-and-normalize until the start recurs."""

    n: int
    period: int
    cycle: tuple[Semimodule, ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "period": self.period,
            "cycle": [list(module.gens) for module in self.cycle],
        }


def fundamental_couple(semigroup: SemigroupPair, lean: LeanSet) -> FundamentalCouple:
    """The couple [I, J] of a lean set.

    With gap points (a_1, b_1) .. (a_r, b_r) in ascending-a order and
    v(a, b) = alpha*beta - a*alpha - b*beta, I lists 0 followed by the turn
    values right to left, and J lists the SE-turn labels in the same
    direction: v(a_r, 0), v(a_{r-1}, b_r), ..., v(a_1, b_2), v(0, b_1).
    A gapless set gets I = [0], J = [alpha*beta].
    """
    _require_same_pair(semigroup, lean, LeanSet)
    chain = lean.gap_points
    return FundamentalCouple((0, *[p.value for p in chain[::-1]]), tuple(_se_labels(semigroup, chain)[::-1]))


def _se_labels(semigroup: SemigroupPair, chain) -> list[int]:
    """The SE-turn labels, left to right, of the path whose ES-turns are the
    chain's gap points (a_1, b_1) .. (a_r, b_r), ascending in a: the corner
    of the k-th is (a_{k-1}, b_k), with a_0 = 0 and b_{r+1} = 0, so its
    label is alpha*beta - a_{k-1}*alpha - b_k*beta.  Read off the corners,
    with no path rows built."""
    ab, alpha, beta = semigroup.product, semigroup.alpha, semigroup.beta
    labels, top = [], ab
    for _, a, b in chain:
        labels.append(top - b * beta)
        top = ab - a * alpha
    labels.append(top)
    return labels


def _is_gap(semigroup: SemigroupPair, value: int) -> bool:
    """Membership read from the sieve bitset, not from presentation, the kernel
    of the fast routes that the couple conditions and verify's leanness test check."""
    return 1 <= value <= semigroup.frobenius and not semigroup._member_bits >> value & 1


def _pairwise_lean(semigroup: SemigroupPair, values) -> bool:
    """The definition of leanness: no difference of two of the values lies in the semigroup."""
    return all(_is_gap(semigroup, abs(x - y)) for x, y in combinations(values, 2))


def validate_fundamental_couple(
    semigroup: SemigroupPair, gens, syzygy_gens
) -> CoupleValidation:
    """Check couple conditions 0-2 literally, reporting the first failure.

    Condition 0: the first entry of I is 0.  Condition 1: the inner entries
    of I and J are gaps and the outer J entries are at most alpha*beta.
    Condition 2: the congruence ladder I[k] = J[k] mod alpha with I[k] < J[k],
    J[k] = I[k+1] mod beta with J[k] > I[k+1], and J[m] = 0 mod beta with
    J[m] >= 0.  The paper's condition 3, pairwise differences within I are
    gaps, follows from these (module docstring), so it is checked as that
    theorem's invariant: its failure is an InvariantError, never a clause.
    """
    _require_pair(semigroup)
    iseq = tuple(gens)
    jseq = tuple(syzygy_gens)
    if not all(_is_int(v) for v in iseq + jseq):
        raise ValueError(f"couple entries must be integers, got I={iseq!r}, J={jseq!r}")
    if len(iseq) != len(jseq) or not iseq:
        return CoupleValidation(
            False, None, None, f"I and J must be equally long and non-empty, got {len(iseq)} and {len(jseq)}"
        )
    m = len(iseq) - 1
    if iseq[0] != 0:
        return CoupleValidation(False, 0, 0, f"I[0] must be 0, got {iseq[0]}")
    for k in range(1, m + 1):
        if not _is_gap(semigroup, iseq[k]):
            return CoupleValidation(False, 1, k, f"I[{k}]={iseq[k]} is not a gap")
    for k in range(1, m):
        if not _is_gap(semigroup, jseq[k]):
            return CoupleValidation(False, 1, k, f"J[{k}]={jseq[k]} is not a gap")
    for k in (0, m):
        if jseq[k] > semigroup.product:
            return CoupleValidation(
                False, 1, k, f"J[{k}]={jseq[k]} exceeds alpha*beta={semigroup.product}"
            )
    for k in range(m + 1):
        if (jseq[k] - iseq[k]) % semigroup.alpha != 0 or iseq[k] >= jseq[k]:
            return CoupleValidation(
                False, 2, k, f"need I[{k}] < J[{k}] with I[{k}] = J[{k}] mod alpha"
            )
    for k in range(m):
        if (jseq[k] - iseq[k + 1]) % semigroup.beta != 0 or jseq[k] <= iseq[k + 1]:
            return CoupleValidation(
                False, 2, k, f"need J[{k}] > I[{k + 1}] with J[{k}] = I[{k + 1}] mod beta"
            )
    if jseq[m] % semigroup.beta != 0 or jseq[m] < 0:
        return CoupleValidation(
            False, 2, m, f"need J[{m}] >= 0 with J[{m}] = 0 mod beta"
        )
    if not _pairwise_lean(semigroup, iseq):
        raise InvariantError(f"I={iseq} passes conditions 0-2 but is not lean")
    return CoupleValidation(True)


def syzygy(semigroup: SemigroupPair, module: Semimodule) -> Semimodule:
    """First syzygy of a normalized semimodule, via the SE-turn labels.

    Returns the semimodule generated by J, which is already its minimal
    generating set.  The result is not normalized: its least generator is
    min J.  A single-generator module (a shifted copy of the semigroup)
    gets the couple value alpha*beta, so its syzygy is the shift by
    alpha*beta, an isomorphic copy.
    """
    chain = _normalized_chain(semigroup, module)
    return Semimodule._trusted(semigroup, tuple(sorted(_se_labels(semigroup, chain))))


def _normalized_chain(semigroup: SemigroupPair, module: Semimodule) -> tuple:
    """The gap chain of a normalized module of this pair, ascending in a;
    _lean_chain refuses one not normalized.  A valid normalized module is a
    lean set, so its gap points form a chain with a rising and b falling;
    that O(n) check stands in for validating the module again, and its
    failure is an internal error."""
    _require_same_pair(semigroup, module, Semimodule)
    chain = _lean_chain(semigroup, module.gens)
    if chain is None:
        raise InvariantError(f"generators {module.gens} are not a monotone gap chain")
    return chain


def syzygy_oracle(semigroup: SemigroupPair, module: Semimodule) -> Semimodule:
    """Brute-force syzygy from the definition, independent of the path route.

    Unions the pairwise intersections of generator cosets inside the window
    [0, 2*alpha*beta + max generator] into E; the window provably contains
    every minimal generator of the syzygy, and the definitional filter
    {y in E : y - alpha not in E and y - beta not in E} keeps exactly those,
    because the window is closed downward.  The sets are bitsets read from
    the membership sieve, taken relative to the least generator, below which
    E is empty.  Refuses single-generator input, whose defining union is empty.
    """
    _require_same_pair(semigroup, module, Semimodule)
    gens = module.gens
    if len(gens) < 2:
        raise ValueError("the defining union is empty for a single generator")
    elements = 0
    for one, other in combinations(_cosets(semigroup, gens), 2):
        elements |= one & other
    return Semimodule._trusted(semigroup, tuple(y + gens[0] for y in _window_generators(semigroup, elements)))


def _cosets(semigroup: SemigroupPair, gens) -> list[int]:
    """The cosets g + <alpha, beta> of the generators, in the given order,
    as bitsets taken relative to the least generator and cut to the oracle's
    window [0, 2*alpha*beta + max - min]."""
    low = min(gens)
    bits, mask = semigroup._member_bits, (1 << 2 * semigroup.product + max(gens) - low + 1) - 1
    return [bits << g - low & mask for g in gens]


def _window_generators(semigroup: SemigroupPair, elements: int) -> tuple[int, ...]:
    """Minimal generators, ascending, of a semimodule given as a bitset cut to
    a window that holds them all: the members y with y - alpha and y - beta outside."""
    low = elements & ~(elements << semigroup.alpha) & ~(elements << semigroup.beta)
    out = []
    while low:
        bit = low & -low
        out.append(bit.bit_length() - 1)
        low ^= bit
    return tuple(out)


def syzygy_matrix(matrix: PathMatrix) -> PathMatrix:
    """Path matrix of the syzygy: top row advanced by one column, bottom row kept.

    The result is generally not below the diagonal; its admissible rotation
    is the matrix of the normalized syzygy.
    """
    _require_kind(matrix, PathMatrix)
    return PathMatrix._trusted(matrix.down[1:] + matrix.down[:1], matrix.right)


def _steps(alpha: int, beta: int, down: tuple[int, ...], right: tuple[int, ...]) -> Iterator[tuple]:
    """The successors of the admissible rows (down, right) under
    syzygy-and-normalize, ending with the start's return: the top row
    advanced one column, then the admissible rotation.  The library's one
    orbit walker; no return within n = len(down) steps is an InvariantError.
    The index k is read off the advanced top row without building it, d[1:]
    being all its columns but the last, so the top row turns by k + 1 at once."""
    d, r = down, right
    for _ in range(len(down)):
        k = _admissible_index(alpha, beta, d[1:], r)
        if k:
            r = r[k:] + r[:k]
        k += 1
        d = d[k:] + d[:k]
        yield d, r
        if d == down and r == right:
            return
    raise InvariantError(f"no syzygy recurrence within {len(down)} steps for {down}/{right}")


def syzygy_period(semigroup: SemigroupPair, module: Semimodule) -> OrbitReport:
    """The cycle of normalize(syzygy(.)) through a normalized module, start
    first, labelled off the rows of the _steps walk before its return: each
    module is 0 plus its ES-turn labels, its syzygy's shift is min J, and the
    period is the cycle's length.  Period | n = #generators and the lap
    identity n * (shift sum) = period * alpha*beta are theorems; each failure
    is an internal error."""
    rows = _rows(semigroup, _normalized_chain(semigroup, module))
    cycle, shift = [], 0
    for step in _steps(semigroup.alpha, semigroup.beta, *rows):
        es, se = _labels(semigroup, *rows)
        cycle.append(Semimodule._trusted(semigroup, tuple(sorted(es))))
        shift += min(se)
        rows = step
    n, period = len(module.gens), len(cycle)
    if n % period:
        raise InvariantError(f"period {period} does not divide generator count {n}")
    if shift * n != period * semigroup.product:
        raise InvariantError(f"lap identity fails: {n} x shift sum {shift} != period {period} x alpha*beta")
    return OrbitReport(n=n, period=period, cycle=tuple(cycle))


def iterated_syzygy(semigroup: SemigroupPair, module: Semimodule, times: int) -> Semimodule:
    """The times-fold syzygy.

    Syzygy commutes with shifts, so the walk steps normalized modules and
    adds up the shifts.  Up to times = 2n, with n = #generators, it takes
    times syzygy steps.  Beyond that the lap identity Syz^n(M) = M + alpha*beta
    takes the whole laps at once, and between 1 and n steps remain.
    """
    _require_same_pair(semigroup, module, Semimodule)
    _require_int(times, "iteration count", 1)
    current = module.normalize()
    n = len(current.gens)
    steps = times if times <= 2 * n else (times - 1) % n + 1
    shift = module.gens[0] + (times - steps) // n * semigroup.product
    for _ in range(steps):
        step = syzygy(semigroup, current)
        shift += step.gens[0]
        current = step.normalize()
    return Semimodule._trusted(semigroup, tuple(g + shift for g in current.gens))


def orbit_witness(semigroup: SemigroupPair, n: int, ell: int) -> Semimodule:
    """A semimodule with n generators whose orbit length is exactly ell.

    Requires ell | n, n < alpha and n/ell | alpha*beta.  Both matrix rows are
    tiled from blocks of the shape [1, ..., 1, tail]; such blocks cannot be
    split into smaller repeating blocks, which pins the period to ell.
    """
    alpha, beta = _require_pair(semigroup).alpha, semigroup.beta
    _require_int(n, "generator count", 1, alpha - 1)
    _require_period(n, ell)
    quotient = n // ell
    down_copies = math.gcd(alpha, quotient)
    right_copies = math.gcd(beta, quotient)
    if down_copies * right_copies != quotient:
        raise ValueError(
            f"n/ell = {quotient} does not divide alpha*beta = {semigroup.product}; "
            f"no such orbit exists"
        )
    down_len = n // down_copies
    right_len = n // right_copies
    down_block = (1,) * (down_len - 1) + (alpha // down_copies - down_len + 1,)
    right_block = (1,) * (right_len - 1) + (beta // right_copies - right_len + 1,)
    matrix = PathMatrix(down_block * down_copies, right_block * right_copies)
    _, admissible = admissible_rotation(semigroup, matrix)
    lean = lean_set_from_path(semigroup, admissible)
    return Semimodule._trusted(semigroup, lean.members)
