"""Acceptance suite: one test per criterion, exact tolerances, timed where required.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import importlib
import inspect
import math
import random
import time
from collections import Counter

import semipath
from semipath import (
    LeanSet,
    PathMatrix,
    SemigroupPair,
    Semimodule,
    admissible_rotation,
    count_ell_periodic,
    count_fixed_points,
    count_lean_sets,
    count_lean_sets_total,
    cyclic_rotations,
    enumerate_lean_sets,
    fundamental_couple,
    gaps,
    iterated_syzygy,
    lean_set_from_path,
    minimal_generators,
    narayana,
    orbit_count_table,
    path_from_lean_set,
    stays_below_diagonal,
    syzygy,
    syzygy_oracle,
    syzygy_period,
)
from semipath.verify import brute_period_tally, compositions

S57 = SemigroupPair(5, 7)
S1516 = SemigroupPair(15, 16)

EXACT_COUNTS_15_16 = {1: 1, 2: 6, 3: 90, 4: 448, 6: 540, 12: 40320}


def report(label, detail):
    print(f"PASS {label}: {detail}")


def test_criterion_1_closed_form_replication():
    start = time.monotonic()
    periodic = {ell: count_ell_periodic(S1516, 12, ell) for ell in (1, 2, 3, 4, 6, 12)}
    assert periodic == {1: 1, 2: 7, 3: 91, 4: 455, 6: 637, 12: 41405}
    table = orbit_count_table(S1516, 12)
    assert {row.ell: row.orbits for row in table.rows} == {
        1: 1, 2: 3, 3: 30, 4: 112, 6: 90, 12: 3360,
    }
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report("criterion 1", f"<15,16> n=12 closed forms replicate in {elapsed:.3f}s")


def test_criterion_2_brute_force_confirmation():
    start = time.monotonic()
    tally = brute_period_tally(S1516, 12)
    elapsed = time.monotonic() - start
    assert sum(tally.values()) == 41405 == count_lean_sets(S1516, 11)
    assert dict(tally) == EXACT_COUNTS_15_16
    table = orbit_count_table(S1516, 12)
    assert {row.ell: row.exact for row in table.rows} == dict(tally)
    assert elapsed < 60.0
    report("criterion 2", f"41405 modules iterated in {elapsed:.1f}s, tallies match")


def test_criterion_3_worked_couple():
    lean = LeanSet.from_members(S57, {0, 9, 6, 8})
    couple = fundamental_couple(S57, lean)
    assert couple.gens == (0, 8, 6, 9)
    assert couple.syzygy_gens == (15, 13, 16, 14)
    module = Semimodule(S57, lean.members)
    assert syzygy(S57, module).gens == syzygy_oracle(S57, module).gens == (13, 14, 15, 16)
    report("criterion 3", "I=[0,8,6,9], J=[15,13,16,14], both syzygy routes agree")


def test_criterion_4_fixed_point_of_15_16():
    block = PathMatrix((1, 1, 1, 2) * 3, (1, 1, 2) * 4)
    index, rotated = admissible_rotation(S1516, block)
    assert rotated == PathMatrix((2, 1, 1, 1) * 3, (1, 1, 2) * 4)
    lean = lean_set_from_path(S1516, rotated)
    assert lean.members == (0, 4, 5, 8, 9, 10, 12, 13, 14, 17, 18, 22)
    module = Semimodule(S1516, lean.members)
    assert syzygy(S1516, module).gens == (20, 24, 25, 28, 29, 30, 32, 33, 34, 37, 38, 42)
    assert syzygy_period(S1516, module).period == 1
    report("criterion 4", f"block matrix rotates by {index} onto the fixed point, period 1")


def test_criterion_5_formula_vs_enumeration_sweep():
    start = time.monotonic()
    pairs = 0
    for alpha in range(2, 9):
        for beta in range(alpha + 1, 14):
            if math.gcd(alpha, beta) != 1:
                continue
            pair = SemigroupPair(alpha, beta)
            per_r = Counter(lean.gap_count for lean in enumerate_lean_sets(pair))
            for r in range(alpha):
                assert per_r.get(r, 0) == count_lean_sets(pair, r)
            assert sum(per_r.values()) == count_lean_sets_total(pair)
            pairs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report("criterion 5", f"{pairs} pairs enumerated and matched in {elapsed:.1f}s")


def test_criterion_6_cycle_lemma():
    checked = 0
    for alpha in range(2, 7):
        for beta in range(alpha + 1, 10):
            if math.gcd(alpha, beta) != 1:
                continue
            pair = SemigroupPair(alpha, beta)
            for parts in range(1, alpha + 1):
                for down in compositions(alpha, parts):
                    for right in compositions(beta, parts):
                        matrix = PathMatrix(down, right)
                        below = [
                            k
                            for k, rotation in enumerate(cyclic_rotations(matrix))
                            if stays_below_diagonal(pair, rotation)
                        ]
                        assert len(below) == 1
                        assert below == [admissible_rotation(pair, matrix)[0]]
                        checked += 1
    pair = SemigroupPair(11, 14)
    rng = random.Random(1114)
    for _ in range(1000):
        parts = rng.randint(1, pair.alpha)

        def cut(total):
            marks = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
            edges = [0] + marks + [total]
            return tuple(edges[i + 1] - edges[i] for i in range(parts))

        matrix = PathMatrix(cut(pair.alpha), cut(pair.beta))
        below = [
            k
            for k, rotation in enumerate(cyclic_rotations(matrix))
            if stays_below_diagonal(pair, rotation)
        ]
        assert len(below) == 1
        checked += 1
    report("criterion 6", f"{checked} matrices, exactly one admissible rotation each")


def test_criterion_7_syzygy_oracle_equivalence():
    multi = 0
    for lean in enumerate_lean_sets(S57):
        if lean.gap_count == 0:
            continue
        module = Semimodule(S57, lean.members)
        assert syzygy(S57, module).gens == syzygy_oracle(S57, module).gens
        multi += 1
    assert multi == 65
    pair = SemigroupPair(8, 13)
    gap_values = [g.value for g in gaps(pair)]
    rng = random.Random(8134)
    sampled = 0
    while sampled < 500:
        xs = {0, *rng.sample(gap_values, rng.randint(1, pair.alpha - 1))}
        gens = minimal_generators(pair, xs)
        if len(gens) < 2:
            continue
        module = Semimodule(pair, gens)
        assert syzygy(pair, module).gens == syzygy_oracle(pair, module).gens
        sampled += 1
    report("criterion 7", f"{multi} modules of <5,7> plus {sampled} random of <8,13>, zero mismatches")


def test_criterion_8_periodicity_theorems():
    five_generator_fixed = 0
    for lean in enumerate_lean_sets(S57):
        module = Semimodule(S57, lean.members)
        n = len(module.gens)
        stats = syzygy_period(S57, module)
        assert n % stats.period == 0
        assert 35 % (n // stats.period) == 0
        assert iterated_syzygy(S57, module, n).normalize() == module
        if n == 5:
            assert stats.period == 1
            five_generator_fixed += 1
    assert five_generator_fixed == 3 == count_fixed_points(S57, 5)
    report("criterion 8", "all 66 modules: period | n, n/period | 35, Syz^n recurs; 3 fixed points at n=5")


def test_criterion_9_catalan_narayana():
    catalan_oracle = [1]
    for n in range(1, 11):
        catalan_oracle.append(
            sum(catalan_oracle[i] * catalan_oracle[n - 1 - i] for i in range(n))
        )
    for alpha in range(2, 11):
        pair = SemigroupPair(alpha, alpha + 1)
        assert count_lean_sets_total(pair) == catalan_oracle[alpha]
        for r in range(alpha):
            assert count_lean_sets(pair, r) == narayana(alpha, r)
    report("criterion 9", "totals are Catalan numbers, per-size counts are Narayana numbers")


# The package's public names, by the layer module that defines each.
LAYER_NAMES = {
    "counting": (
        "CountRow", "CountTable", "catalan", "count_ell_periodic", "count_fixed_points",
        "count_lean_sets", "count_lean_sets_total", "narayana", "orbit_count_table",
    ),
    "errors": ("InvariantError",),
    "leansets": ("LeanSet", "enumerate_lean_sets", "is_lean"),
    "paths": (
        "PathMatrix", "admissible_rotation", "cyclic_rotations", "es_turns",
        "lean_set_from_path", "path_from_lean_set", "se_turns", "stays_below_diagonal",
    ),
    "render": ("RenderSpec", "render"),
    "semigroup": (
        "GapPoint", "Presentation", "SemigroupPair", "gap_point", "gaps", "is_member",
        "membership_sieve", "presentation",
    ),
    "semimodules": ("Semimodule", "elements_up_to", "is_isomorphic", "minimal_generators", "normalize"),
    "syzygies": (
        "CoupleValidation", "FundamentalCouple", "OrbitReport", "fundamental_couple",
        "iterated_syzygy", "orbit_witness", "syzygy", "syzygy_matrix", "syzygy_oracle",
        "syzygy_period", "validate_fundamental_couple",
    ),
}


def test_package_api_is_pinned():
    names = sorted(name for layer in LAYER_NAMES.values() for name in layer)
    assert len(names) == 47
    assert sorted(semipath.__all__) == names
    for layer, layer_names in LAYER_NAMES.items():
        module = importlib.import_module(f"semipath.{layer}")
        for name in layer_names:
            value = getattr(semipath, name)
            assert value is getattr(module, name)
            assert value.__module__ == module.__name__
    assert inspect.isfunction(semipath.render)
    assert semipath.__version__ == "0.1.0"
