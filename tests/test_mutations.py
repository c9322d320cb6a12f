"""Broken kernels and the verdicts that catch them: one table, one test.

Each row of MUTATIONS breaks one kernel (or two) for one command line and
pins what the run then gives: exit code, FAIL verdicts, stdout line count and
stderr.  verify exits 3 and still prints every verdict; orbits --brute, which
has none, exits 3 with one internal-error line.  A run that exits 0, as a
broken enumerate or a refusal let through does, is caught by the pinned
digest its stdout must differ from.  Patches are built fresh for
each run, so a fake that keeps state starts clean.  A broken kernel that no
verdict sees is a finding: add the missing check, never drop the row.
"""

import hashlib
import os
import sys
from typing import Callable, NamedTuple

import pytest

import semipath
from semipath import InvariantError, LeanSet, PathMatrix, SemigroupPair, Semimodule
from semipath import counting, leansets, paths, semigroup, semimodules, syzygies, verify
from semipath.counting import count_ell_periodic
from semipath.leansets import _gap_chains
from semipath.syzygies import FundamentalCouple, _admissible_index, validate_fundamental_couple
from semipath.verify import _leader_period
from test_cli import STDOUT_SHA256, _walk_in, run


class Mutation(NamedTuple):
    argv: str
    patches: Callable[[], list]  # fresh (module, attribute, fake) triples for one run
    code: int
    failing: set[str]
    lines: int
    err: str
    golden: str | None = None  # the pinned sha256 that the stdout must differ from


def _patch(module, name, fake):
    """The patches of a fake that keeps no state."""
    return lambda: [(module, name, fake)]


def _non_lean_syzygy(pair, module):
    g0 = module.gens[0]
    return Semimodule._trusted(pair, (g0, g0 + pair.alpha))


def _couple_with_swapped_order(pair, lean):
    couple = semipath.fundamental_couple(pair, lean)
    gens = couple.gens
    if len(gens) >= 3:
        gens = (gens[0], gens[2], gens[1]) + gens[3:]
    return FundamentalCouple(gens, couple.syzygy_gens)


def _couple_listing_i_ascending(pair, lean):
    # I must run right to left along the path, paired with J index by index.
    couple = semipath.fundamental_couple(pair, lean)
    return FundamentalCouple(tuple(sorted(couple.gens)), couple.syzygy_gens)


def _top_row_backwards(matrix):
    return PathMatrix._trusted(matrix.down[-1:] + matrix.down[:-1], matrix.right)


def _presentation_off_at_5(pair, n):
    q = semipath.presentation(pair, n)
    return q._replace(a=q.a + 1) if n == 5 else q


def _oracle_shifted_by_one(pair, module):
    return Semimodule._trusted(pair, tuple(g + 1 for g in semipath.syzygy_oracle(pair, module).gens))


def _one_gap_stream_runs_on(pair, gap_count=None):
    yield from semipath.enumerate_lean_sets(pair, gap_count)
    if gap_count == 1:
        yield from semipath.enumerate_lean_sets(pair, 2)


def _with_one_non_lean_chain(pair, gap_count=None, *walk, part=(0, 1)):
    # 6 and 1 sit at (3, 2) and (4, 2) for <5,7>: b does not fall, and 6 - 1
    # lies in S.  Part 0's last chain is the last in walk order, in any parts.
    yield from _gap_chains(pair, gap_count, *walk, part=part)
    if gap_count is None and not part[0]:
        yield semipath.gap_point(pair, 6), semipath.gap_point(pair, 1)


def _filtered_chains_without_the_last(pair, gap_count=None, *walk, **part):
    chains = list(_gap_chains(pair, gap_count, *walk, **part))
    return iter(chains if gap_count is None else chains[:-1])


def _no_gap_at_1(pair, n):
    return None if n == 1 else semipath.semigroup._gap_of(pair, n)


def _path_reader_drops_a_gap(pair, matrix):
    return LeanSet._from_chain(pair, semipath.lean_set_from_path(pair, matrix).gap_points[:-1])


def _labels_right_run_first(pair, down, right):
    label, es, se = 0, [], []
    for d, r in zip(down, right):
        es.append(label := label - r * pair.alpha)
        se.append(label := label + d * pair.beta)
    return es, se


def _corners_from_beta(pair, matrix):
    out, a, b = [], 0, pair.beta
    for down, right in zip(matrix.down, matrix.right):
        b -= down
        out.append((a, b))
        a += right
        out.append((a, b))
    return out


def _se_labels_own_corner(pair, chain):
    # Each point's own corner (a_k, b_k), its gap value, in place of the SE
    # corner (a_{k-1}, b_k); the last label is right.
    return [p.value for p in chain] + [pair.product - (chain[-1].a if chain else 0) * pair.alpha]


def _splice_offsets_one_char_off():
    # Each line keeps the char offsets at which its extensions splice their
    # values in; grow then sets them one char late.
    walk = leansets._gap_chains

    def shifted_walk(pair, gap_count, root, item, grow, *rest):
        def shifted(parent, point, out):
            line, values, offsets = grow(parent, point, out)
            return line, values, [offset + 1 for offset in offsets]

        return walk(pair, gap_count, root, item, shifted, *rest)

    return [(leansets, "_gap_chains", shifted_walk)]


def _rows_reversed(pair, points):
    return tuple(row[::-1] for row in paths._rows(pair, points))


def _fixed_points_off(pair, n):
    return semipath.count_fixed_points(pair, n) + 1


def _both_routes_two_steps_ahead():
    # The fast and the matrix route then agree with each other; the matrix
    # route must still fail against the oracle walk's next member.
    return [
        (verify, "syzygy", lambda pair, module: semipath.syzygy(pair, semipath.syzygy(pair, module).normalize())),
        (verify, "syzygy_matrix", lambda m: PathMatrix._trusted(m.down[2:] + m.down[:2], m.right)),
    ]


def _walk_rotating_only_once():
    # Each walk rotates its bottom row on its first step and never again, so
    # some start never returns and the walker itself ends the run.
    calls = []

    def rotate_only_once(alpha, beta, down, right):
        calls.append(None)
        return 1 if len(calls) == 1 else 0

    def fresh_walk(*start):
        calls.clear()
        return syzygies._steps(*start)

    return [(syzygies, "_admissible_index", rotate_only_once), (verify, "_steps", fresh_walk)]


def _leader_once_wrong(leader, answer):
    # The leader test answers wrongly once, on the first start it would call
    # a leader (never) or not (twice), so one cycle is missed or walked twice.
    def patches():
        changed = []

        def once_wrong(alpha, beta, start):
            period = _leader_period(alpha, beta, start)
            if bool(period) == leader and not changed:
                changed.append(start)
                return answer
            return period

        return [(verify, "_leader_period", once_wrong)]

    return patches


def _rotating_one_short(alpha, beta, down, right):
    return (_admissible_index(alpha, beta, down, right) - 1) % len(right)


def _one_memo_holding_5_7():
    # One gap-point memo for every pair, as a memo keyed by the value alone
    # would be, already filled by (5,7): a pair reads another pair's points.
    seed, post_init = SemigroupPair(5, 7), SemigroupPair.__post_init__
    memo = {x: semigroup._gap_of(seed, x) for x in range(1, seed.frobenius + 1)}

    def sharing(pair):
        post_init(pair)
        object.__setattr__(pair, "_gap_points", memo)

    return [(SemigroupPair, "__post_init__", sharing)]


# The trusted builders fill each slot through the frozen class's descriptor.
_set_gap_points, _set_gens, _set_right = leansets._set_gap_points, semimodules._set_gens, paths._set_right


def _gap_points_by_value(lean, chain):
    _set_gap_points(lean, tuple(sorted(chain)))


def _gens_normalized(module, gens):
    _set_gens(module, tuple(g - gens[0] for g in gens))


def _right_row_rotated(matrix, right):
    _set_right(matrix, right[1:] + right[:1])


def _matrix_slots_swapped():
    down, right = PathMatrix.__dict__["down"].__set__, PathMatrix.__dict__["right"].__set__
    return [(paths, "_set_down", right), (paths, "_set_right", down)]


# Every module that binds semigroup._require_int, render's included, which
# the package's `render` function hides.
_INT_RULE_READERS = [
    module for name, module in sys.modules.items() if name.startswith("semipath.") and hasattr(module, "_require_int")
]


def _upper_bound_moved_by(step):
    """The one integer rule with its upper bound moved by step, in every module that reads it."""
    rule = semigroup._require_int

    def moved(value, what, low, high=None):
        rule(value, what, low, None if high is None else high + step)

    return lambda: [(module, "_require_int", moved) for module in _INT_RULE_READERS]


REFUSED = hashlib.sha256(b"").hexdigest()  # the stdout of a command line refused with exit 2


_never_rotates = _patch(syzygies, "_admissible_index", lambda alpha, beta, down, right: 0)
_one_too_many_of_period_2 = _patch(
    counting, "count_ell_periodic", lambda pair, n, ell: count_ell_periodic(pair, n, ell) + (ell == 2)
)
_non_lean_stream = _patch(leansets, "_gap_chains", _with_one_non_lean_chain)
_NON_LEAN_FAILS = {
    "lean-count-formulas", "lean-stream", "syzygy-route-equivalence", "fundamental-couples", "syzygy-matrix-route",
    "period-divisibility", "period-route-equivalence",
}
_ROUND_TRIP_FAILS = {"path-round-trip", "period-route-equivalence"}
_PERIOD_FAILS = {"period-divisibility", "period-route-equivalence", "orbit-tables-vs-iteration"}
_LEADER_FAILS = {"period-route-equivalence", "orbit-tables-vs-iteration"}

# Row id -> the command line and its patches, then the exit code, FAIL names,
# stdout line count and stderr that the run must give.
MUTATIONS = {
    "non-lean-syzygy": Mutation(
        "verify 5 7", _patch(verify, "syzygy", _non_lean_syzygy),
        3, {"syzygy-route-equivalence", "syzygy-matrix-route"}, 13, ""),
    "swapped-couple": Mutation(
        "verify 7 11", _patch(verify, "fundamental_couple", _couple_with_swapped_order),
        3, {"fundamental-couples", "syzygy-consecutive-union"}, 13, ""),
    # I ascending breaks the congruence ladder and the order in which consecutive cosets meet.
    "couple-i-ascending": Mutation(
        "verify 7 11 --deep", _patch(verify, "fundamental_couple", _couple_listing_i_ascending),
        3, {"fundamental-couples", "syzygy-consecutive-union"}, 14, ""),
    "unrotated": Mutation(
        "verify 5 7", _patch(verify, "admissible_rotation", lambda pair, matrix: (0, matrix)),
        3, {"syzygy-matrix-route", "cycle-lemma"}, 13, ""),
    "top-row-backwards": Mutation(
        "verify 5 7", _patch(verify, "syzygy_matrix", _top_row_backwards), 3, {"syzygy-matrix-route"}, 13, ""),
    "matrix-route-vs-oracle-walk": Mutation(
        "verify 5 7", _both_routes_two_steps_ahead, 3, {"syzygy-route-equivalence", "syzygy-matrix-route"}, 13, ""),
    "presentation": Mutation(
        "verify 7 11", _patch(verify, "presentation", _presentation_off_at_5), 3, {"presentation-round-trip"}, 13, ""),
    "is_member": Mutation(
        "verify 7 11", _patch(verify, "is_member", lambda pair, n: semipath.is_member(pair, n) != (n == pair.frobenius)),
        3, {"membership-vs-double-loop"}, 13, ""),
    "narayana": Mutation(
        "verify 7 8", _patch(verify, "narayana", lambda alpha, r: semipath.narayana(alpha, r) + (r == 2)),
        3, {"catalan-narayana"}, 14, ""),
    # A module holding the missing gap has no table chain, so its couple and path verdicts fail.
    "gaps": Mutation(
        "verify 7 11 --deep", _patch(verify, "gaps", lambda pair: semipath.gaps(pair)[:-1]),
        3, {"gap-table", "fundamental-couples", "syzygy-matrix-route"}, 14, ""),
    "syzygy_oracle": Mutation(
        "verify 5 7", _patch(verify, "syzygy_oracle", _oracle_shifted_by_one),
        3, {"syzygy-route-equivalence", "syzygy-consecutive-union", "period-divisibility"}, 13, ""),
    "enumerate_lean_sets": Mutation(
        "verify 5 7", _patch(verify, "enumerate_lean_sets", _one_gap_stream_runs_on), 3, {"lean-stream"}, 13, ""),
    # The syzygy step and the orbit walk refuse the non-lean set; verify fails
    # their verdicts and still prints every line.
    "non-lean-enumerated-set": Mutation("verify 5 7", _non_lean_stream, 3, _NON_LEAN_FAILS, 13, ""),
    "non-lean-enumerated-set-deep": Mutation("verify 5 7 --deep", _non_lean_stream, 3, _NON_LEAN_FAILS, 14, ""),
    "count_lean_sets": Mutation(
        "verify 5 7", _patch(verify, "count_lean_sets", lambda pair, r: semipath.count_lean_sets(pair, r) + (r == 1)),
        3, {"lean-count-formulas"}, 13, ""),
    # lean_set_from_path reads its (a, b) off _corners and its values off
    # _labels.  Every set that fails the round trip starts an orbit walk, so
    # the walks cover the modules more than once.
    "lean_set_from_path": Mutation(
        "verify 5 7", _patch(verify, "lean_set_from_path", _path_reader_drops_a_gap), 3, _ROUND_TRIP_FAILS, 13, ""),
    "corners-start-at-beta": Mutation(
        "verify 5 7", _patch(paths, "_corners", _corners_from_beta), 3, _ROUND_TRIP_FAILS, 13, ""),
    "path-labels-right-run-first": Mutation(
        "verify 5 7", _patch(paths, "_labels", _labels_right_run_first), 3, _ROUND_TRIP_FAILS, 13, ""),
    # Rows that are no path: the round trip refuses them as no lean set.
    "path-rows-reversed": Mutation(
        "verify 7 11 --deep", _patch(verify, "_rows", _rows_reversed),
        3, _ROUND_TRIP_FAILS | {"syzygy-matrix-route", "orbit-tables-vs-iteration"}, 14, ""),
    "count_fixed_points": Mutation(
        "verify 5 7 --deep", _patch(verify, "count_fixed_points", _fixed_points_off),
        3, {"orbit-tables-vs-iteration"}, 14, ""),
    # The chain criterion then refuses every lean set that holds the gap 1.
    "gap-1-is-no-gap": Mutation(
        "verify 7 11 --deep", _patch(leansets, "_gap_of", _no_gap_at_1),
        3, {"lean-stream", "syzygy-route-equivalence", "syzygy-matrix-route"} | _PERIOD_FAILS, 14, ""),
    "filtered-stream-short-by-one": Mutation(
        "verify 7 11 --deep", _patch(leansets, "_gap_chains", _filtered_chains_without_the_last),
        3, {"lean-stream"}, 14, ""),
    # Conditions 0-2 force condition 3, so a pairwise test that always fails
    # breaks the chain theorem's invariant on every passing couple.
    "pairwise-never-lean": Mutation(
        "verify 7 11 --deep", _patch(syzygies, "_pairwise_lean", lambda pair, values: False),
        3, {"fundamental-couples"}, 14, ""),
    # The couple and the syzygy step read _se_labels; the oracle, the couple
    # conditions and the matrix route share no kernel with it.
    "se-labels-own-corner": Mutation(
        "verify 7 11 --deep", _patch(syzygies, "_se_labels", _se_labels_own_corner),
        3, {"syzygy-route-equivalence", "fundamental-couples", "syzygy-matrix-route"}, 14, ""),
    # Only the orbit cycle reads _labels and _rows in syzygies: its mislabelled
    # members fail syzygy_period's lap identity, so no period reaches the table.
    "cycle-labels-right-run-first": Mutation(
        "verify 7 11 --deep", _patch(syzygies, "_labels", _labels_right_run_first), 3, _PERIOD_FAILS, 14, ""),
    "cycle-rows-reversed": Mutation(
        "verify 7 11 --deep", _patch(syzygies, "_rows", _rows_reversed), 3, _PERIOD_FAILS, 14, ""),
    # The rows walk then only cycles the top row; the definitional walk shares no kernel with it.
    "walk-never-rotates": Mutation("verify 7 11 --deep", _never_rotates, 3, _PERIOD_FAILS, 14, ""),
    "leader-never": Mutation("verify 7 11 --deep", _leader_once_wrong(True, 0), 3, _LEADER_FAILS, 14, ""),
    "leader-twice": Mutation("verify 7 11 --deep", _leader_once_wrong(False, 1), 3, _LEADER_FAILS, 14, ""),
    # One module too many with period dividing 2 leaves an odd exact count at
    # ell = 2, so orbit_count_table raises: verify fails the verdict that reads
    # the table, and orbits, which has no verdicts, reports an internal error.
    "orbit-table-odd-at-2": Mutation(
        "verify 5 8 --deep", _one_too_many_of_period_2, 3, {"orbit-tables-vs-iteration"}, 14, ""),
    "orbits-table-odd-at-2": Mutation(
        "orbits 5 8 --gens 4 --brute", _one_too_many_of_period_2,
        3, set(), 0, "internal error: orbit count for ell=2: 3 is not divisible by 2\n"),
    "orbits-walk-returns-never": Mutation(
        "orbits 5 7 --gens 4 --brute", _walk_rotating_only_once,
        3, set(), 0, "internal error: no syzygy recurrence within 4 steps for (2, 1, 1, 1)/(2, 1, 1, 3)\n"),
    # The walk from the second module is the first that never returns; in a
    # forked walk only part 1 starts it, and in two or three parts part 0
    # meets a later one.
    "orbits-walk-rotates-one-short": Mutation(
        "orbits 5 7 --gens 3 --brute", _patch(syzygies, "_admissible_index", _rotating_one_short),
        3, set(), 0, "internal error: no syzygy recurrence within 3 steps for (3, 1, 1)/(1, 2, 4)\n"),
    # The walk then leaves the admissible matrices, so the cycles counted from
    # their greatest rows cannot cover every module.
    "orbits-never-rotates-2": Mutation(
        "orbits 7 11 --gens 2 --brute", _never_rotates,
        3, set(), 0, "internal error: the counted cycles hold 44 modules, the walks started from 30\n"),
    "orbits-never-rotates-3": Mutation(
        "orbits 7 11 --gens 3 --brute", _never_rotates,
        3, set(), 0, "internal error: the counted cycles hold 399 modules, the walks started from 225\n"),
    "orbits-never-rotates-4": Mutation(
        "orbits 7 11 --gens 4 --brute", _never_rotates,
        3, set(), 0, "internal error: the counted cycles hold 1192 modules, the walks started from 600\n"),
    "orbits-never-rotates-5": Mutation(
        "orbits 7 11 --gens 5 --brute", _never_rotates,
        3, set(), 0, "internal error: the counted cycles hold 1370 modules, the walks started from 630\n"),
    "orbits-never-rotates-6": Mutation(
        "orbits 7 11 --gens 6 --brute", _never_rotates,
        3, set(), 0, "internal error: the counted cycles hold 498 modules, the walks started from 252\n"),
    # Every line is still built, but the values land one char off.
    "enumerate-splice-offsets": Mutation(
        "enumerate 7 11", _splice_offsets_one_char_off, 0, set(), 1768, "", STDOUT_SHA256["enumerate 7 11"]),
    "gap-point-memo-shared-by-pairs": Mutation(
        "verify 5 8", _one_memo_holding_5_7,
        3, {"lean-stream", "syzygy-route-equivalence", "syzygy-matrix-route", "period-divisibility",
            "period-route-equivalence"}, 13, ""),
    # Gap points kept in value order, not by a: the chain the couple and the path read is out of order.
    "lean-set-gap-points-by-value": Mutation(
        "verify 5 7", _patch(leansets, "_set_gap_points", _gap_points_by_value),
        3, {"lean-stream", "fundamental-couples", "syzygy-consecutive-union", "period-route-equivalence"}, 13, ""),
    # A module builder that normalizes: both syzygy routes build through it,
    # so only the verdicts that read a syzygy's shift see it.
    "module-built-normalized": Mutation(
        "verify 5 7", _patch(semimodules, "_set_gens", _gens_normalized),
        3, {"syzygy-consecutive-union", "period-divisibility"}, 13, ""),
    "path-matrix-right-row-rotated": Mutation(
        "verify 5 7", _patch(paths, "_set_right", _right_row_rotated),
        3, {"path-round-trip", "syzygy-matrix-route", "period-route-equivalence", "cycle-lemma"}, 13, ""),
    # Each descriptor bound to the other's slot, so every matrix has its rows
    # swapped.  Every route then refuses the matrices verify built, the
    # cycle-lemma scan's own included, and each refusal fails its verdict.
    "path-matrix-slots-swapped": Mutation(
        "verify 5 7", _matrix_slots_swapped,
        3, {"path-round-trip", "syzygy-matrix-route", "period-route-equivalence", "cycle-lemma"}, 13, ""),
    # n = alpha is a valid generator count: orbits refuses it, so the deep table fails.
    "int-rule-refuses-its-upper-bound": Mutation(
        "verify 5 7 --deep", _upper_bound_moved_by(-1), 3, {"orbit-tables-vs-iteration"}, 14, ""),
    # n = 6 > alpha has no module, so every count is a true 0 and the brute
    # walk agrees: only the refusal, exit 2 with nothing on stdout, is lost.
    "int-rule-admits-one-past-its-upper-bound": Mutation(
        "orbits 5 7 --gens 6 --brute", _upper_bound_moved_by(1), 0, set(), 5, "", REFUSED),
}


@pytest.mark.parametrize("row", MUTATIONS.values(), ids=MUTATIONS.keys())
def test_a_broken_kernel_fails_its_verdicts(capsys, monkeypatch, row):
    # A verify run gives the same stdout in 1, 2 and 3 forced parts, since its
    # exhaustive lean pass forks; every other row runs on the usable CPUs.
    outs = set()
    for parts in (1, 2, 3) if row.argv.startswith("verify") else [None]:
        if parts is not None:
            _walk_in(monkeypatch, parts)
        for module, name, fake in row.patches():
            monkeypatch.setattr(module, name, fake)
        code, out, err = run(capsys, *row.argv.split())
        lines = out.splitlines()
        failing = {line.split()[1].rstrip(":") for line in lines if line.startswith("FAIL")}
        assert (code, failing, len(lines), err) == (row.code, row.failing, row.lines, row.err), parts
        assert row.golden is None or hashlib.sha256(out.encode()).hexdigest() != row.golden
        outs.add(out)
    assert len(outs) == 1


def _errors_raised_here(monkeypatch, name):
    """The errors that verify.name raises in this process, where part 0
    runs; a forked part appends to its own copy."""
    here, reduce = [], getattr(verify, name)

    def kept(*args):
        try:
            return reduce(*args)
        except Exception as exc:
            here.append(exc)
            raise

    monkeypatch.setattr(verify, name, kept)
    return here


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("name", ["orbits-walk-returns-never", "orbits-walk-rotates-one-short"])
def test_of_the_parts_errors_the_first_in_walk_order_is_raised(capsys, monkeypatch, name, parts):
    # Part 0 fails too, at a later chain than a forked part, so an error taken
    # from part 0, or from the first part to fail, is not the serial walk's.
    row = MUTATIONS[name]
    for module, attr, fake in row.patches():
        monkeypatch.setattr(module, attr, fake)
    _walk_in(monkeypatch, parts)
    here = _errors_raised_here(monkeypatch, "_tally_run")
    assert run(capsys, *row.argv.split()) == (row.code, "", row.err)
    (error,) = here  # part 0 stops at its first
    assert f"internal error: {error}\n" != row.err


@pytest.mark.parametrize("parts", [2, 3])
def test_of_the_lean_parts_errors_the_first_in_walk_order_is_raised(capsys, monkeypatch, parts):
    # The couple of every set of six gap points raises, named by its members,
    # so each part of verify's lean pass stops at its first.  Part 0's comes
    # later than a forked part's, so an error taken from part 0, or from the
    # first part to fail, is not the serial pass's.
    def raising(pair, lean):
        if lean.gap_count == 6:
            raise InvariantError(f"couple of {lean.members}")
        return semipath.fundamental_couple(pair, lean)

    monkeypatch.setattr(verify, "fundamental_couple", raising)
    here = _errors_raised_here(monkeypatch, "_check_lean_run")
    err = "internal error: couple of (0, 4, 8, 12, 16, 20, 24)\n"
    _walk_in(monkeypatch, 1)
    assert run(capsys, "verify", "7", "11", "--deep") == (3, "", err)
    here.clear()
    _walk_in(monkeypatch, parts)
    assert run(capsys, "verify", "7", "11", "--deep") == (3, "", err)
    (error,) = here  # part 0 stops at its first
    assert f"internal error: {error}\n" != err


@pytest.mark.parametrize("parts", [2, 3])
def test_sets_out_of_walk_order_across_parts_fail_the_lean_stream(capsys, monkeypatch, parts):
    # Each forked part holds back its chains of 4 or more gap points to just
    # after its next subtree mark, so they form a run one mark late, placed
    # after the next subtree and the chains above the cut that part 0 yields
    # between.  Every run is in order on its own, the counts hold and the
    # r < 4 sets keep their places: only the order from each run to the
    # next, in walk order, sees it.
    pid, walk = os.getpid(), leansets._gap_chains

    def late(*args, **kwargs):
        held = []
        for value in walk(*args, **kwargs):
            if os.getpid() != pid and value != leansets._SUBTREE and len(value) >= 4:
                held.append(value)
                continue
            yield value
            if value == leansets._SUBTREE:
                yield from held
                held.clear()
        yield from held

    monkeypatch.setattr(leansets, "_gap_chains", late)
    _walk_in(monkeypatch, parts)
    code, out, err = run(capsys, "verify", "7", "11", "--deep")
    failing = {line.split()[1].rstrip(":") for line in out.splitlines() if line.startswith("FAIL")}
    assert (code, failing, err) == (3, {"lean-stream"}, "")


def test_every_verify_verdict_has_a_broken_route_that_fails_it(capsys):
    code, out, _ = run(capsys, "verify", "7", "8", "--deep")
    verdicts = {line.split()[1].rstrip(":") for line in out.splitlines()}
    assert code == 0 and len(verdicts) == 15
    assert verdicts <= set().union(*(row.failing for row in MUTATIONS.values()))


def test_a_failing_pairwise_test_of_a_couple_is_an_internal_error(monkeypatch):
    # Its verify run is the row pairwise-never-lean.  In the library, a couple
    # that passes conditions 0-2 raises, and one that fails them keeps its clause.
    monkeypatch.setattr(syzygies, "_pairwise_lean", lambda pair, values: False)
    pair = SemigroupPair(5, 7)
    with pytest.raises(InvariantError, match="passes conditions 0-2 but is not lean"):
        validate_fundamental_couple(pair, (0, 8, 6, 9), (15, 13, 16, 14))
    assert validate_fundamental_couple(pair, (0, 5), (15, 14)).clause == 1


def test_a_pairwise_test_that_always_passes_changes_no_verify_line(capsys, monkeypatch):
    # The argued-equivalent mutant: conditions 0-2 already decide every
    # verdict, so with the invariant's test always passing verify prints
    # the same bytes on every couple of (7,11).
    monkeypatch.setattr(syzygies, "_pairwise_lean", lambda pair, values: True)
    code, out, _ = run(capsys, "verify", "7", "11", "--deep")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, STDOUT_SHA256["verify 7 11 --deep"])
