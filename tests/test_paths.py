"""Path matrices, the lean-set bijection, and the unique admissible rotation."""

import hashlib
import math
import random
from itertools import product

import pytest

import semipath.verify
from semipath import (
    LeanSet,
    PathMatrix,
    SemigroupPair,
    admissible_rotation,
    cyclic_rotations,
    enumerate_lean_sets,
    es_turns,
    lean_set_from_path,
    path_from_lean_set,
    se_turns,
    stays_below_diagonal,
)
from semipath.verify import check_cycle_lemma, compositions

S57 = SemigroupPair(5, 7)
S23 = SemigroupPair(2, 3)


def all_matrices(pair):
    """Oracle: every pair of compositions of alpha and beta with equal length."""
    for parts in range(1, pair.alpha + 1):
        for down in compositions(pair.alpha, parts):
            for right in compositions(pair.beta, parts):
                yield PathMatrix(down, right)


def random_matrix(rng, pair):
    parts = rng.randint(1, pair.alpha)
    def cut(total):
        marks = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
        edges = [0] + marks + [total]
        return tuple(edges[i + 1] - edges[i] for i in range(parts))
    return PathMatrix(cut(pair.alpha), cut(pair.beta))


def test_matrix_validation():
    with pytest.raises(ValueError):
        PathMatrix((1, 2), (1,))
    with pytest.raises(ValueError):
        PathMatrix((1, 0), (1, 2))
    with pytest.raises(ValueError):
        PathMatrix((), ())


def test_path_from_lean_set_examples():
    lean = LeanSet.from_members(S57, {0, 9, 6, 8})
    assert path_from_lean_set(S57, lean) == PathMatrix((2, 1, 1, 1), (1, 2, 1, 3))
    assert path_from_lean_set(S57, LeanSet.from_members(S57, {0})) == PathMatrix((5,), (7,))
    assert path_from_lean_set(S23, LeanSet.from_members(S23, {0, 1})) == PathMatrix((1, 1), (1, 2))


def test_lean_set_from_path_examples():
    assert lean_set_from_path(S57, PathMatrix((2, 1, 1, 1), (1, 2, 1, 3))).members == (0, 6, 8, 9)
    assert lean_set_from_path(S57, PathMatrix((1, 2, 1, 1), (1, 3, 1, 2))).members == (0, 1, 2, 3)
    assert lean_set_from_path(S57, PathMatrix((5,), (7,))).members == (0,)


def test_lean_set_from_path_rejects_crossing():
    with pytest.raises(ValueError):
        lean_set_from_path(S57, PathMatrix((1, 1, 2, 1), (1, 3, 1, 2)))


def test_row_sum_validation():
    with pytest.raises(ValueError):
        stays_below_diagonal(S57, PathMatrix((2, 2), (3, 4)))
    with pytest.raises(ValueError):
        lean_set_from_path(S57, PathMatrix((2, 3), (3, 3)))


def test_turns_reject_bad_row_sums():
    for turns in (es_turns, se_turns):
        with pytest.raises(ValueError, match="row sums must be"):
            turns(S57, PathMatrix((2, 2), (3, 4)))
        with pytest.raises(ValueError, match="row sums must be"):
            turns(S57, PathMatrix((2, 3), (3, 3)))


def test_turn_coordinates():
    matrix = PathMatrix((2, 1, 1, 1), (1, 2, 1, 3))
    assert es_turns(S57, matrix) == ((1, 3), (3, 2), (4, 1))
    assert se_turns(S57, matrix) == ((0, 3), (1, 2), (3, 1), (4, 0))
    assert se_turns(S57, PathMatrix((5,), (7,))) == ((0, 0),)


def test_stays_below_diagonal_examples():
    assert stays_below_diagonal(S57, PathMatrix((2, 1, 1, 1), (1, 2, 1, 3)))
    assert not stays_below_diagonal(S57, PathMatrix((1, 1, 2, 1), (1, 3, 1, 2)))
    assert stays_below_diagonal(S57, PathMatrix((5,), (7,)))


def test_cyclic_rotations():
    matrix = PathMatrix((1, 1, 2, 1), (1, 3, 1, 2))
    rotations = cyclic_rotations(matrix)
    assert len(rotations) == 4
    assert rotations[0] == matrix
    assert rotations[2] == PathMatrix((2, 1, 1, 1), (1, 2, 1, 3))
    assert cyclic_rotations(PathMatrix((5,), (7,))) == (PathMatrix((5,), (7,)),)


def test_admissible_rotation_examples():
    index, rotated = admissible_rotation(S57, PathMatrix((1, 1, 2, 1), (1, 3, 1, 2)))
    assert (index, rotated) == (2, PathMatrix((2, 1, 1, 1), (1, 2, 1, 3)))
    index, rotated = admissible_rotation(S57, PathMatrix((2, 1, 1, 1), (1, 2, 1, 3)))
    assert index == 0
    index, rotated = admissible_rotation(S23, PathMatrix((1, 1), (2, 1)))
    assert (index, rotated) == (1, PathMatrix((1, 1), (1, 2)))


def test_round_trip_exhaustive_5_7():
    for lean in enumerate_lean_sets(S57):
        matrix = path_from_lean_set(S57, lean)
        assert sum(matrix.down) == 5 and sum(matrix.right) == 7
        again = lean_set_from_path(S57, matrix)
        assert again.members == lean.members
        assert path_from_lean_set(S57, again) == matrix


def test_round_trip_random_8_13():
    pair = SemigroupPair(8, 13)
    rng = random.Random(813)
    for _ in range(300):
        matrix = admissible_rotation(pair, random_matrix(rng, pair))[1]
        lean = lean_set_from_path(pair, matrix)
        assert path_from_lean_set(pair, lean) == matrix


def test_cycle_lemma_exhaustive_small():
    for alpha in range(2, 7):
        for beta in range(alpha + 1, 10):
            if math.gcd(alpha, beta) != 1:
                continue
            pair = SemigroupPair(alpha, beta)
            for matrix in all_matrices(pair):
                below = [
                    k
                    for k, rotation in enumerate(cyclic_rotations(matrix))
                    if stays_below_diagonal(pair, rotation)
                ]
                assert len(below) == 1
                assert below[0] == admissible_rotation(pair, matrix)[0]


def test_composition_pair_counts_divide_by_rotation():
    for pair in (S57, SemigroupPair(4, 9)):
        for parts in range(1, pair.alpha + 1):
            r = parts - 1
            downs = list(compositions(pair.alpha, parts))
            rights = list(compositions(pair.beta, parts))
            assert len(downs) == math.comb(pair.alpha - 1, r)
            assert len(rights) == math.comb(pair.beta - 1, r)
            admissible = sum(
                1
                for d in downs
                for x in rights
                if stays_below_diagonal(pair, PathMatrix(d, x))
            )
            assert admissible * parts == len(downs) * len(rights)


def test_compositions_are_every_composition_in_lexicographic_order():
    count = 0
    for total in range(1, 10):
        for parts in range(1, total + 1):
            largest = total - parts + 1  # the other parts are at least 1 each
            brute = sorted(c for c in product(range(1, largest + 1), repeat=parts) if sum(c) == total)
            assert list(compositions(total, parts)) == brute
            count += len(brute)
    assert count == 511


def test_sampled_cycle_lemma_draws_the_same_matrices(monkeypatch):
    # (13,14) has more than 100,000 matrices, so check_cycle_lemma draws 1,000
    # from SAMPLE_SEED; no stdout line shows which, so the rows are pinned.
    drawn = []
    rotate = semipath.verify.admissible_rotation

    def spy(semigroup, matrix):
        drawn.append((matrix.down, matrix.right))
        return rotate(semigroup, matrix)

    monkeypatch.setattr(semipath.verify, "admissible_rotation", spy)
    result = check_cycle_lemma(SemigroupPair(13, 14))
    assert result.ok and result.detail == "1000 matrices, 1000 sampled"
    assert len(drawn) == 1000
    assert hashlib.sha256(repr(drawn).encode()).hexdigest() == (
        "283d49005b21a3c568cbbb5a3d2989250550b4dba79f9abfd59d0ef5e296c167"
    )
