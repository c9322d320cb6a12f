"""Staircase lattice paths from (0, alpha) to (beta, 0) and their step matrices.

Coordinate convention, used package-wide: x runs right from 0 to beta, y runs
down from alpha to 0, and a path is encoded by a 2-row matrix whose column i
holds (down-run i, right-run i).  An ES-turn is a corner where an east run
meets a south run; an SE-turn is the opposite kind of corner.  The diagonal
is the segment from (0, alpha) to (beta, 0), i.e. the line
x*alpha + y*beta = alpha*beta.

"Stays below the diagonal" is tested on ES-turns only: every other point of
the path is weakly south-west of some ES-turn (or of an endpoint, which may
lie on the diagonal), so the ES-turns are the only candidates for a
violation.  For coprime (alpha, beta) no interior lattice point lies on the
diagonal, hence the strict inequality a*alpha + b*beta < alpha*beta.
"""

from __future__ import annotations

from dataclasses import dataclass

from .leansets import LeanSet
from .semigroup import GapPoint, SemigroupPair, _is_int, _require_kind, _require_pair, _require_same_pair

__all__ = [
    "PathMatrix",
    "path_from_lean_set",
    "lean_set_from_path",
    "es_turns",
    "se_turns",
    "stays_below_diagonal",
    "cyclic_rotations",
    "admissible_rotation",
]


@dataclass(frozen=True, slots=True)
class PathMatrix:
    """Run lengths of a staircase path: down runs on top, right runs below."""

    down: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (isinstance(self.down, tuple) and isinstance(self.right, tuple)):
            raise ValueError(f"down and right rows must be tuples, got {self.down!r} and {self.right!r}")
        if len(self.down) != len(self.right):
            raise ValueError("down and right rows must have equal length")
        if not self.down:
            raise ValueError("a path matrix needs at least one column")
        for row in (self.down, self.right):
            if any(not _is_int(v) or v < 1 for v in row):
                raise ValueError(f"all run lengths must be integers >= 1, got {row}")

    @classmethod
    def _trusted(cls, down: tuple[int, ...], right: tuple[int, ...]) -> "PathMatrix":
        """Build without validation, for rows known to be valid, such as rotated rows."""
        matrix = object.__new__(cls)
        _set_down(matrix, down)
        _set_right(matrix, right)
        return matrix


# The frozen class's slot descriptors, through which _trusted fills it.
_set_down, _set_right = PathMatrix.__dict__["down"].__set__, PathMatrix.__dict__["right"].__set__


def _require_row_sums(semigroup: SemigroupPair, matrix: PathMatrix) -> None:
    _require_pair(semigroup)
    _require_kind(matrix, PathMatrix)
    if sum(matrix.down) != semigroup.alpha or sum(matrix.right) != semigroup.beta:
        raise ValueError(
            f"row sums must be ({semigroup.alpha}, {semigroup.beta}), "
            f"got ({sum(matrix.down)}, {sum(matrix.right)})"
        )


def _rows(semigroup: SemigroupPair, points) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(down, right) runs of the path whose ES-turns are the gap points,
    given ascending in a; the one conversion from gap chains to matrix rows."""
    down, right = [], []
    last_a, last_b = 0, semigroup.alpha
    for _, a, b in points:
        down.append(last_b - b)
        right.append(a - last_a)
        last_a, last_b = a, b
    down.append(last_b)
    right.append(semigroup.beta - last_a)
    return tuple(down), tuple(right)


def _labels(semigroup: SemigroupPair, down, right) -> tuple[list[int], list[int]]:
    """(es, se): the ES- and SE-turn labels alpha*beta - a*alpha - b*beta of
    the path with these rows, left to right; the last ES label is the end's 0.
    Summed from the start's 0: a down run d adds d*beta up to an SE-turn, a
    right run r subtracts r*alpha up to an ES-turn.  The label sum over
    rows, which the orbit cycle and lean_set_from_path read; the couple and
    the syzygy step read the same SE labels off a gap chain's corners."""
    alpha, beta = semigroup.alpha, semigroup.beta
    label, es, se = 0, [], []
    for d, r in zip(down, right):
        se.append(label := label + d * beta)
        es.append(label := label - r * alpha)
    return es, se


def path_from_lean_set(semigroup: SemigroupPair, lean: LeanSet) -> PathMatrix:
    """The step matrix whose ES-turns are exactly the lean set's gap points."""
    _require_same_pair(semigroup, lean, LeanSet)
    return PathMatrix._trusted(*_rows(semigroup, lean.gap_points))


def lean_set_from_path(semigroup: SemigroupPair, matrix: PathMatrix) -> LeanSet:
    """Read the lean set off the ES-turns, each (a, b) valued by its _labels
    label; inverse of path_from_lean_set.  Rejects paths that touch or cross
    the diagonal, since their turning points do not correspond to gaps."""
    if not stays_below_diagonal(semigroup, matrix):
        raise ValueError("path does not stay below the diagonal, it encodes no lean set")
    es = _labels(semigroup, matrix.down, matrix.right)[0]  # row sums checked above
    points = tuple(GapPoint(x, a, b) for x, (a, b) in zip(es, _corners(semigroup, matrix)[1:-1:2]))
    return LeanSet._from_chain(semigroup, points)


def _corners(semigroup: SemigroupPair, matrix: PathMatrix) -> list[tuple[int, int]]:
    """Every corner after the start (0, alpha), left to right: SE-turn, ES-turn,
    ..., SE-turn, then the end (beta, 0); the one corner walk, which
    lean_set_from_path, es_turns, se_turns and render read.  The row sums are
    the caller's to check; the library's own rows already have them."""
    out = []
    a, b = 0, semigroup.alpha
    for down, right in zip(matrix.down, matrix.right):
        b -= down
        out.append((a, b))
        a += right
        out.append((a, b))
    return out


def es_turns(semigroup: SemigroupPair, matrix: PathMatrix) -> tuple[tuple[int, int], ...]:
    """East-to-south corners, left to right; one per column except the last."""
    _require_row_sums(semigroup, matrix)
    return tuple(_corners(semigroup, matrix)[1:-1:2])


def se_turns(semigroup: SemigroupPair, matrix: PathMatrix) -> tuple[tuple[int, int], ...]:
    """South-to-east corners, left to right; one per column."""
    _require_row_sums(semigroup, matrix)
    return tuple(_corners(semigroup, matrix)[0::2])


def stays_below_diagonal(semigroup: SemigroupPair, matrix: PathMatrix) -> bool:
    """Whether every ES-turn (a, b) satisfies a*alpha + b*beta < alpha*beta."""
    _require_row_sums(semigroup, matrix)
    return _below_diagonal(semigroup.alpha, semigroup.beta, matrix.down, matrix.right)


def _below_diagonal(alpha: int, beta: int, down: tuple[int, ...], right: tuple[int, ...]) -> bool:
    """stays_below_diagonal on raw rows whose sums are (alpha, beta)."""
    ab = alpha * beta
    a, b = 0, alpha
    for k in range(len(down) - 1):
        b -= down[k]
        a += right[k]
        if a * alpha + b * beta >= ab:
            return False
    return True


def _rotated(matrix: PathMatrix, k: int) -> PathMatrix:
    if k == 0:
        return matrix
    return PathMatrix._trusted(
        matrix.down[k:] + matrix.down[:k], matrix.right[k:] + matrix.right[:k]
    )


def cyclic_rotations(matrix: PathMatrix) -> tuple[PathMatrix, ...]:
    """All simultaneous column rotations of the matrix, rotation 0 first."""
    _require_kind(matrix, PathMatrix)
    return tuple(_rotated(matrix, k) for k in range(len(matrix.down)))


def _admissible_index(alpha: int, beta: int, down: tuple[int, ...], right: tuple[int, ...]) -> int:
    """Index of the unique below-diagonal rotation, given raw rows.

    Doubling the path and sliding the diagonal shows that the rotation has to
    start at the turning point maximising a*alpha + b*beta; coprimality makes
    that maximiser unique.  The score runs from the start corner (0, alpha),
    where it is 0: each column adds alpha*right - beta*down.  The end corner
    scores 0 again and never wins, so down may stop one column short.
    """
    best = best_score = score = k = 0
    for d, r in zip(down, right):
        k += 1
        score += alpha * r - beta * d
        if score > best_score:
            best_score = score
            best = k
    return best


def admissible_rotation(semigroup: SemigroupPair, matrix: PathMatrix) -> tuple[int, PathMatrix]:
    """The unique cyclic rotation staying below the diagonal, as (index, matrix).

    verify.check_cycle_lemma confirms the index against a scan of every rotation.
    """
    _require_row_sums(semigroup, matrix)
    k = _admissible_index(semigroup.alpha, semigroup.beta, matrix.down, matrix.right)
    return k, _rotated(matrix, k)
