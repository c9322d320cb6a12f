"""Command-line surface: outputs, exit codes, determinism."""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import semipath.cli
import semipath.counting
import semipath.paths
import semipath.syzygies
import semipath.verify
from semipath import InvariantError, LeanSet, PathMatrix, SemigroupPair, Semimodule, enumerate_lean_sets, gap_point
from semipath.cli import _build_parser, _handler, main
from semipath.syzygies import FundamentalCouple, fundamental_couple, syzygy, validate_fundamental_couple

SRC = Path(__file__).resolve().parents[1] / "src"
CLI_SURFACE = Path(__file__).with_name("cli_surface.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spawn(*argv, flags=()):
    """The CLI in a child interpreter that imports semipath from src/."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.Popen(
        [sys.executable, *flags, "-m", "semipath.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def test_gaps(capsys):
    code, out, _ = run(capsys, "gaps", "5", "7")
    assert code == 0
    assert out == "1 2 3 4 6 8 9 11 13 16 18 23\n"


def test_member(capsys):
    assert run(capsys, "member", "5", "7", "23")[:2] == (0, "false\n")
    assert run(capsys, "member", "5", "7", "12")[:2] == (0, "true\n")


def test_count_examples(capsys):
    assert run(capsys, "count", "2", "3")[:2] == (0, "2\n")
    assert run(capsys, "count", "5", "7")[:2] == (0, "66\n")
    assert run(capsys, "count", "5", "7", "--gens", "4")[:2] == (0, "20\n")
    assert run(capsys, "count", "5", "7", "--gens", "4", "--brute")[:2] == (0, "20\n")


def test_enumerate_pipes_into_count(capsys):
    code, out, _ = run(capsys, "enumerate", "5", "7")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 66
    assert lines[0] == "0"
    code, out, _ = run(capsys, "count", "5", "7")
    assert int(out) == 66
    code, out, _ = run(capsys, "enumerate", "5", "7", "--gens", "4")
    assert len(out.splitlines()) == 20


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "2", "3", "--json")
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows == [
        {"alpha": 2, "beta": 3, "generators": [0]},
        {"alpha": 2, "beta": 3, "generators": [0, 1]},
    ]


def test_enumerate_json_equals_validated_modules(capsys):
    pair = SemigroupPair(7, 11)
    code, out, _ = run(capsys, "enumerate", "7", "11", "--json")
    expected = [
        json.dumps(Semimodule(pair, lean.members).to_json(), separators=(",", ":"))
        for lean in enumerate_lean_sets(pair)
    ]
    assert code == 0 and out.splitlines() == expected


def test_couple(capsys):
    code, out, _ = run(capsys, "couple", "5", "7", "--set", "0,9,6,8")
    assert code == 0
    assert out == "I: 0,8,6,9\nJ: 15,13,16,14\n"
    code, reordered, _ = run(capsys, "couple", "5", "7", "--set", "8,0,6,9")
    assert reordered == out
    code, out, _ = run(capsys, "couple", "5", "7", "--set", "0,9,6,8", "--json")
    assert json.loads(out) == {"I": [0, 8, 6, 9], "J": [15, 13, 16, 14]}


@pytest.mark.parametrize("text", ["0,6", "0,,6", "0,6,6", "6,0"])
def test_set_is_read_as_a_set(capsys, text):
    # Order, repeats and empty tokens do not change the generators --set names.
    assert run(capsys, "couple", "5", "7", "--set", text, "--json")[:2] == (0, '{"I":[0,6],"J":[20,21]}\n')


def test_syzygy(capsys):
    code, out, _ = run(capsys, "syzygy", "5", "7", "--set", "0,9,6,8")
    assert (code, out) == (0, "13,14,15,16\n")
    code, out, _ = run(capsys, "syzygy", "5", "7", "--set", "0,9,6,8", "--normalize")
    assert out == "0,1,2,3\n"
    code, out, _ = run(capsys, "syzygy", "5", "7", "--set", "0,9,6,8", "--iterate", "2")
    assert out == "20,21,23,29\n"


def test_syzygy_iterate_a_million_uses_the_period(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "syzygy", "5", "7", "--set", "0,6,8,9", "--iterate", "1000000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (0, "8750000,8750006,8750008,8750009\n")


def test_orbit(capsys):
    code, out, _ = run(capsys, "orbit", "5", "7", "--set", "0,6,8,9")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "period: 4"
    assert lines[1] == "cycle[0]: 0,6,8,9"
    assert len(lines) == 5
    code, out, _ = run(capsys, "orbit", "5", "7", "--set", "0,6,8,9", "--json")
    data = json.loads(out)
    assert data["period"] == 4 and data["n"] == 4 and len(data["cycle"]) == 4


def test_orbits_table(capsys):
    code, out, _ = run(capsys, "orbits", "15", "16", "--gens", "12")
    lines = out.splitlines()
    assert code == 0
    assert lines[0].split() == ["ell", "A", "exact", "orbits"]
    body = [line.split() for line in lines[1:]]
    assert [row[3] for row in body] == ["1", "3", "30", "112", "90", "3360"]
    assert [row[1] for row in body] == ["1", "7", "91", "455", "637", "41405"]


def test_orbits_brute_small(capsys):
    code, out, _ = run(capsys, "orbits", "5", "7", "--gens", "4", "--brute")
    lines = out.splitlines()
    assert code == 0
    assert lines[-1].split() == ["4", "20", "20", "5"]


def test_fixed_points(capsys):
    code, out, _ = run(capsys, "fixed-points", "5", "7")
    assert out == "1 1\n2 0\n3 0\n4 0\n5 3\n"
    code, out, _ = run(capsys, "fixed-points", "15", "16", "--gens", "12")
    assert out == "1\n"


def test_render_ascii(capsys):
    code, out, _ = run(capsys, "render", "5", "7", "--set", "0,9,6,8")
    assert code == 0
    assert "E" in out and "S" in out and "#" in out
    code, svg, _ = run(
        capsys, "render", "5", "7", "--set", "0,9,6,8", "--format", "svg", "--labels"
    )
    assert svg.startswith("<svg") and ">23</text>" in svg


def test_ascii_render_ignores_cell(capsys):
    # --cell sizes svg pixels; an ASCII picture has one character per lattice
    # point, so any --cell, even 0, leaves it as the default picture.
    default = run(capsys, "render", "5", "7", "--set", "0,6,8,9")
    assert default[0] == 0
    assert run(capsys, "render", "5", "7", "--set", "0,6,8,9", "--cell", "0") == default


def test_verify_deep_5_7(capsys):
    code, out, _ = run(capsys, "verify", "5", "7", "--deep")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith(("ok", "skip")) for line in lines)
    names = {line.split()[1].rstrip(":") for line in lines}
    assert {
        "presentation-round-trip",
        "membership-vs-double-loop",
        "gap-table",
        "lean-count-formulas",
        "lean-stream",
        "path-round-trip",
        "syzygy-route-equivalence",
        "fundamental-couples",
        "syzygy-matrix-route",
        "syzygy-consecutive-union",
        "period-divisibility",
        "period-route-equivalence",
        "orbit-tables-vs-iteration",
        "cycle-lemma",
    } <= names


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["7", "8", "--deep"], "aa69e5b9b3f0771c6d1d9c8e417c3c50d81fe050d63387e350cecf2fa09dacea"),
        # more than 200 lean sets, so this run checks the seeded sample of modules
        (["7", "11"], "5f9d5ed5cd41e76b0f76570336f7ed9c8224bbb1beee1a3c70eb50f87c4a7a06"),
        # every module of (7,11): the benchmark's own verify input
        (["7", "11", "--deep"], "c6c89c18cd5f7fc7a00119a954427a9f350b6a0e2fb43166d6acde394ebfecfc"),
        # 742,900 lean sets, over ENUMERATION_CAP: one skip line, which prints the cap
        (["13", "14"], "3efd2e0b9dea6b23be3bb8cab3b19d1f9192d253041c2c6c83382792e069e270"),
    ],
    ids=["7-8-deep", "7-11", "7-11-deep", "13-14-over-cap"],
)
def test_verify_stdout_is_unchanged(capsys, argv, digest):
    # sha256 of the whole stdout, so no change to an oracle can alter a verdict
    # or a detail line unnoticed.
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["enumerate", "7", "11"], "6220dfff515ca8209f03cbade9da2c74f8b41f20d0658bceac9240ad8b96a118"),
        (["enumerate", "7", "11", "--json"], "add0d88996ab5c5ebc203df8359a0652814a9229402a95c27a20999671be5d6e"),
        (["enumerate", "8", "13", "--gens", "5", "--json"],
         "8a1be10e9e6caddb2fa1541162459a7f453711a72b9c8dbd469c17b7031e61b7"),
        (["enumerate", "8", "13", "--gens", "4"],
         "19f463227f89139ebfe0cb4cfb7e72c76479f7f88c2c43de082194b9cda698e1"),
        (["count", "8", "13", "--brute"], "8a9862cc81600fc3a3bb5216ecdce8d4faebe2f5929787f6f9943edf18f8fb5d"),
    ],
    ids=["enumerate-7-11", "enumerate-7-11-json", "enumerate-8-13-gens-5-json", "enumerate-8-13-gens-4",
         "count-8-13-brute"],
)
def test_enumerate_stdout_is_unchanged(capsys, argv, digest):
    # sha256 of the whole stdout: the order of the stream and every byte of each line.
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The digests the workflow's console-script step pins, by command line.
CONSOLE_PINS = {
    "render 5 7 --set 0,6,8,9": "1af56a1dd940ac93ae4925ccc31469e9a94b9ec4185da29c554703e1e2956359",
    "render 5 7 --set 0,6,8,9 --format svg --labels": "3b9a7add026b83eb26f86833287dfbbc4268f55a7e6a7738d3a4099c097c49cd",
    "gaps 9 14": "75ff49a504bc54e1d347d7a65058cbb48048f7adc8b4a3c442c1caf8ca13b5c0",
    "fixed-points 15 16": "246fb9cf6fda9a4a18217e14bdbe8fbedfb339b3c4ddd39f187f8defadedded7",
    "orbits 8 13 --gens 4 --brute": "e08ad43c5629943054dea2126c664e2ca4cc2fd301536d012e2ff7067999092a",
    "orbits 35 36 --gens 30 --json": "772465d9c5221ddbbe525bfb0a8bd0ac5efdb6a8b0c6485143d03bdac2359ea6",
    "orbits 35 36 --gens 12 --json": "ce2784cd3d35b87c28aac960d86c84a5e96e66f33cf75c2ad59e4f8976ad1945",
    "verify 5 8 --deep": "f3a0203761e85b9d9973d826e363690e3871b017227ce7fbbb0d04733898473c",
    # a chain of five gap points, pinned in the workflow by its stdout
    "couple 11 13 --set 0,1,2,3,4,5 --json": hashlib.sha256(
        b'{"I":[0,5,3,1,4,2],"J":[44,16,14,56,15,13]}\n'
    ).hexdigest(),
}


@pytest.mark.parametrize("argv", CONSOLE_PINS, ids=lambda argv: argv.replace(" ", "_"))
def test_stdout_matches_the_console_script_pins(capsys, argv):
    # Read in-process; orbits --brute and verify --deep walk every gap chain of their pair.
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CONSOLE_PINS[argv]


@pytest.mark.parametrize("alpha, beta", [(2, 5), (3, 4), (5, 7), (7, 11), (8, 13)])
def test_enumerate_lines_spell_the_lean_set_members(capsys, alpha, beta):
    # enumerate builds each line from its parent chain's line; each must read
    # as the members of the lean set that enumerate_lean_sets builds.  <2,5>
    # has chains of one gap only, and --gens 1 yields only the empty chain.
    pair = SemigroupPair(alpha, beta)
    for gens in (None, *range(1, alpha + 1)):
        flags = [] if gens is None else ["--gens", str(gens)]
        members = [
            ",".join(map(str, lean.members))
            for lean in enumerate_lean_sets(pair, None if gens is None else gens - 1)
        ]
        code, out, _ = run(capsys, "enumerate", str(alpha), str(beta), *flags)
        assert code == 0 and out.splitlines() == members
        code, out, _ = run(capsys, "enumerate", str(alpha), str(beta), *flags, "--json")
        expected = [f'{{"alpha":{alpha},"beta":{beta},"generators":[{line}]}}' for line in members]
        assert code == 0 and out.splitlines() == expected


def test_verify_treats_a_non_lean_enumerated_set_as_an_internal_error(capsys, monkeypatch):
    # 6 and 1 sit at (3, 2) and (4, 2) for <5,7>: b does not fall, and 6 - 1 lies in S.
    real = semipath.verify.enumerate_lean_sets

    def with_one_non_lean_set(semigroup, gap_count=None):
        yield from real(semigroup, gap_count)
        if gap_count is None:
            yield LeanSet._from_chain(semigroup, (gap_point(semigroup, 6), gap_point(semigroup, 1)))

    monkeypatch.setattr(semipath.verify, "enumerate_lean_sets", with_one_non_lean_set)
    # The syzygy step and the orbit walk raise on that set; verify fails their
    # verdicts and still prints every line.
    failing = {
        "lean-count-formulas",
        "lean-stream",
        "syzygy-route-equivalence",
        "fundamental-couples",
        "syzygy-matrix-route",
        "period-divisibility",
        "period-route-equivalence",
    }
    for argv, count in ((["verify", "5", "7"], 13), (["verify", "5", "7", "--deep"], 14)):
        code, out, err = run(capsys, *argv)
        lines = out.splitlines()
        assert code == 3 and err == ""
        assert len(lines) == count and "FAIL lean-stream: no duplicates, filter consistent" in lines
        assert {line.split()[1].rstrip(":") for line in lines if line.startswith("FAIL")} == failing


def _non_lean_syzygy(pair, module):
    g0 = module.gens[0]
    return Semimodule._trusted(pair, (g0, g0 + pair.alpha))


def _unrotated(pair, matrix):
    return 0, matrix


def _top_row_backwards(matrix):
    return PathMatrix._trusted(matrix.down[-1:] + matrix.down[:-1], matrix.right)


def _couple_with_swapped_order(pair, lean):
    couple = fundamental_couple(pair, lean)
    gens = couple.gens
    if len(gens) >= 3:
        gens = (gens[0], gens[2], gens[1]) + gens[3:]
    return FundamentalCouple(gens, couple.syzygy_gens)


def _presentation_off_at_5(pair, n):
    q = semipath.presentation(pair, n)
    return q._replace(a=q.a + 1) if n == 5 else q


def _membership_flipped_at_frobenius(pair, n):
    return semipath.is_member(pair, n) != (n == pair.frobenius)


def _narayana_off_at_2(alpha, r):
    return semipath.narayana(alpha, r) + (r == 2)


def _gaps_without_the_last(pair):
    return semipath.gaps(pair)[:-1]


def _oracle_shifted_by_one(pair, module):
    return Semimodule._trusted(pair, tuple(g + 1 for g in semipath.syzygy_oracle(pair, module).gens))


def _one_gap_stream_runs_on(pair, gap_count=None):
    yield from enumerate_lean_sets(pair, gap_count)
    if gap_count == 1:
        yield from enumerate_lean_sets(pair, 2)


def _count_off_at_1(pair, r):
    return semipath.count_lean_sets(pair, r) + (r == 1)


def _path_reader_drops_a_gap(pair, matrix):
    return LeanSet._from_chain(pair, semipath.lean_set_from_path(pair, matrix).gap_points[:-1])


def _fixed_points_off(pair, n):
    return semipath.count_fixed_points(pair, n) + 1


# One broken route per case, patched into semipath.verify by name: the verify
# arguments, the fake, the exact set of FAIL names and the number of lines.
BROKEN_ROUTES = {
    "non-lean-syzygy": (["5", "7"], "syzygy", _non_lean_syzygy,
                        {"syzygy-route-equivalence", "syzygy-matrix-route"}, 13),
    "swapped-couple": (["7", "11"], "fundamental_couple", _couple_with_swapped_order,
                       {"fundamental-couples", "syzygy-consecutive-union"}, 13),
    "unrotated": (["5", "7"], "admissible_rotation", _unrotated, {"syzygy-matrix-route", "cycle-lemma"}, 13),
    "top-row-backwards": (["5", "7"], "syzygy_matrix", _top_row_backwards, {"syzygy-matrix-route"}, 13),
    "presentation": (["7", "11"], "presentation", _presentation_off_at_5, {"presentation-round-trip"}, 13),
    "is_member": (["7", "11"], "is_member", _membership_flipped_at_frobenius, {"membership-vs-double-loop"}, 13),
    "narayana": (["7", "8"], "narayana", _narayana_off_at_2, {"catalan-narayana"}, 14),
    # A module holding the missing gap has no table chain, so its couple and path verdicts fail.
    "gaps": (["7", "11", "--deep"], "gaps", _gaps_without_the_last,
             {"gap-table", "fundamental-couples", "syzygy-matrix-route"}, 14),
    "syzygy_oracle": (["5", "7"], "syzygy_oracle", _oracle_shifted_by_one,
                      {"syzygy-route-equivalence", "syzygy-consecutive-union", "period-divisibility"}, 13),
    "enumerate_lean_sets": (["5", "7"], "enumerate_lean_sets", _one_gap_stream_runs_on, {"lean-stream"}, 13),
    "count_lean_sets": (["5", "7"], "count_lean_sets", _count_off_at_1, {"lean-count-formulas"}, 13),
    # Every failing set starts an orbit walk, so the walks cover the modules more than once.
    "lean_set_from_path": (["5", "7"], "lean_set_from_path", _path_reader_drops_a_gap,
                           {"path-round-trip", "period-route-equivalence"}, 13),
    "count_fixed_points": (["5", "7", "--deep"], "count_fixed_points", _fixed_points_off,
                           {"orbit-tables-vs-iteration"}, 14),
}


@pytest.mark.parametrize("argv, name, fake, failing, count", BROKEN_ROUTES.values(), ids=BROKEN_ROUTES.keys())
def test_verify_reports_a_broken_route_as_failed_checks(capsys, monkeypatch, argv, name, fake, failing, count):
    monkeypatch.setattr(semipath.verify, name, fake)
    code, out, err = run(capsys, "verify", *argv)
    lines = out.splitlines()
    assert code == 3 and err == ""
    assert len(lines) == count
    assert {line.split()[1].rstrip(":") for line in lines if line.startswith("FAIL")} == failing


def test_every_verify_verdict_has_a_broken_route_that_fails_it(capsys):
    code, out, _ = run(capsys, "verify", "7", "8", "--deep")
    verdicts = {line.split()[1].rstrip(":") for line in out.splitlines()}
    assert code == 0 and len(verdicts) == 15
    assert verdicts <= set().union(*(case[3] for case in BROKEN_ROUTES.values()))


def test_a_failing_pairwise_test_of_a_couple_is_an_internal_error(capsys, monkeypatch):
    # Conditions 0-2 force condition 3, so the couple's pairwise test is the
    # chain theorem's invariant: with it broken, a couple that passes 0-2
    # raises, one that fails them keeps its clause, and verify FAILs that
    # verdict by name and still prints every line.
    monkeypatch.setattr(semipath.syzygies, "_pairwise_lean", lambda semigroup, values: False)
    pair = SemigroupPair(5, 7)
    with pytest.raises(InvariantError, match="passes conditions 0-2 but is not lean"):
        validate_fundamental_couple(pair, (0, 8, 6, 9), (15, 13, 16, 14))
    assert validate_fundamental_couple(pair, (0, 5), (15, 14)).clause == 1
    code, out, err = run(capsys, "verify", "7", "11", "--deep")
    assert code == 3 and err == ""
    assert {line.split()[1].rstrip(":") for line in out.splitlines() if line.startswith("FAIL")} == {
        "fundamental-couples"
    }


def test_a_pairwise_test_that_always_passes_changes_no_verify_line(capsys, monkeypatch):
    # The argued-equivalent mutant: conditions 0-2 already decide every
    # verdict, so with the invariant's test always passing verify prints
    # the same bytes on every couple of (7,11).
    monkeypatch.setattr(semipath.syzygies, "_pairwise_lean", lambda semigroup, values: True)
    code, out, _ = run(capsys, "verify", "7", "11", "--deep")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "c6c89c18cd5f7fc7a00119a954427a9f350b6a0e2fb43166d6acde394ebfecfc"


def test_verify_checks_the_matrix_route_against_the_oracle_walk(capsys, monkeypatch):
    # A fast route and a matrix route that both take two syzygy steps agree
    # with each other; the matrix route must still fail, because it is
    # checked against the oracle walk's next member.
    def two_steps(pair, module):
        return syzygy(pair, syzygy(pair, module).normalize())

    def two_columns(matrix):
        return PathMatrix._trusted(matrix.down[2:] + matrix.down[:2], matrix.right)

    monkeypatch.setattr(semipath.verify, "syzygy", two_steps)
    monkeypatch.setattr(semipath.verify, "syzygy_matrix", two_columns)
    code, out, err = run(capsys, "verify", "5", "7")
    lines = out.splitlines()
    assert code == 3 and err == "" and len(lines) == 13
    assert {line.split()[1].rstrip(":") for line in lines if line.startswith("FAIL")} == {
        "syzygy-route-equivalence",
        "syzygy-matrix-route",
    }


def test_verify_catches_an_orbit_walk_that_never_rotates(capsys, monkeypatch):
    # The rows walk then only cycles the top row; the definitional walk of
    # period-route-equivalence shares no kernel with it and must disagree.
    monkeypatch.setattr(semipath.syzygies, "_admissible_index", lambda alpha, beta, down, right: 0)
    code, out, err = run(capsys, "verify", "7", "11", "--deep")
    assert code == 3 and err == ""
    assert "FAIL period-route-equivalence: matrix vs element iteration" in out.splitlines()


def test_brute_orbits_report_a_walk_that_never_returns(capsys, monkeypatch):
    # Each walk rotates its bottom row once, on its first step, and never
    # again: some start then never returns, and the walker itself, not the
    # tally's coverage check, ends the run as an internal error.
    real_steps, calls = semipath.verify._steps, []

    def rotate_only_once(alpha, beta, down, right):
        calls.append(None)
        return 1 if len(calls) == 1 else 0

    def fresh_walk(*start):
        calls.clear()
        return real_steps(*start)

    monkeypatch.setattr(semipath.syzygies, "_admissible_index", rotate_only_once)
    monkeypatch.setattr(semipath.verify, "_steps", fresh_walk)
    code, out, err = run(capsys, "orbits", "5", "7", "--gens", "4", "--brute")
    assert (code, out) == (3, "")
    assert err == "internal error: no syzygy recurrence within 4 steps for (2, 1, 1, 1)/(2, 1, 1, 3)\n"


def _labels_right_run_first(semigroup, down, right):
    label, es, se = 0, [], []
    for d, r in zip(down, right):
        es.append(label := label - r * semigroup.alpha)
        se.append(label := label + d * semigroup.beta)
    return es, se


def test_verify_catches_labels_read_right_run_first(capsys, monkeypatch):
    # Only the orbit cycle reads paths._labels in syzygies: a label sum that
    # takes each right run before its down run mislabels every cycle member,
    # and syzygy_period's lap identity refuses the cycle, so its periods
    # never reach the table.
    monkeypatch.setattr(semipath.syzygies, "_labels", _labels_right_run_first)
    code, out, err = run(capsys, "verify", "7", "11", "--deep")
    assert code == 3 and err == ""
    assert {line.split()[1].rstrip(":") for line in out.splitlines() if line.startswith("FAIL")} == {
        "period-route-equivalence",
        "period-divisibility",
        "orbit-tables-vs-iteration",
    }


def _se_labels_own_corner(semigroup, chain):
    # Each point's own corner (a_k, b_k), its gap value, in place of the SE
    # corner (a_{k-1}, b_k); the last label is right.
    return [p.value for p in chain] + [semigroup.product - (chain[-1].a if chain else 0) * semigroup.alpha]


def test_verify_catches_se_labels_read_off_the_wrong_corner(capsys, monkeypatch):
    # The couple and the syzygy step read syzygies._se_labels off the chain's
    # corners; the oracle, the couple conditions and the matrix route share
    # no kernel with it.
    monkeypatch.setattr(semipath.syzygies, "_se_labels", _se_labels_own_corner)
    code, out, err = run(capsys, "verify", "7", "11", "--deep")
    assert code == 3 and err == ""
    assert {line.split()[1].rstrip(":") for line in out.splitlines() if line.startswith("FAIL")} == {
        "syzygy-route-equivalence",
        "fundamental-couples",
        "syzygy-matrix-route",
    }


def test_verify_catches_a_couple_listing_i_ascending(capsys, monkeypatch):
    # I must run right to left along the path, paired with J index by index;
    # sorted ascending, it breaks the congruence ladder and the order in
    # which consecutive cosets meet.
    real = semipath.verify.fundamental_couple

    def ascending(semigroup, lean):
        couple = real(semigroup, lean)
        return FundamentalCouple(tuple(sorted(couple.gens)), couple.syzygy_gens)

    monkeypatch.setattr(semipath.verify, "fundamental_couple", ascending)
    code, out, err = run(capsys, "verify", "7", "11", "--deep")
    assert code == 3 and err == ""
    assert {line.split()[1].rstrip(":") for line in out.splitlines() if line.startswith("FAIL")} == {
        "fundamental-couples",
        "syzygy-consecutive-union",
    }


def _corners_from_beta(semigroup, matrix):
    out, a, b = [], 0, semigroup.beta
    for down, right in zip(matrix.down, matrix.right):
        b -= down
        out.append((a, b))
        a += right
        out.append((a, b))
    return out


@pytest.mark.parametrize(
    "name, kernel",
    [("_corners", _corners_from_beta), ("_labels", _labels_right_run_first)],
    ids=["corners-start-at-beta", "labels-right-run-first"],
)
def test_verify_catches_a_broken_path_reader_kernel(capsys, monkeypatch, name, kernel):
    # lean_set_from_path reads its (a, b) off _corners and its values off
    # _labels; the round trip must return the whole lean set, gap points and
    # all, so a broken kernel in paths alone fails path-round-trip.  Every
    # failing set then starts an orbit walk, so the walks cover the modules
    # more than once.
    monkeypatch.setattr(semipath.paths, name, kernel)
    code, out, err = run(capsys, "verify", "5", "7")
    assert code == 3 and err == ""
    assert {line.split()[1].rstrip(":") for line in out.splitlines() if line.startswith("FAIL")} == {
        "path-round-trip",
        "period-route-equivalence",
    }


@pytest.mark.parametrize("leader, answer", [(True, 0), (False, 1)], ids=["never", "twice"])
def test_verify_catches_a_cycle_not_checked_exactly_once(capsys, monkeypatch, leader, answer):
    # verify --deep checks each cycle once, from its greatest rows; the cycles
    # walked must cover the modules exactly, so a leader test that passes
    # over one cycle, or starts one a second time, fails named verdicts.
    real, changed = semipath.verify._leader_period, []

    def once_wrong(alpha, beta, start):
        period = real(alpha, beta, start)
        if bool(period) == leader and not changed:
            changed.append(start)
            return answer
        return period

    monkeypatch.setattr(semipath.verify, "_leader_period", once_wrong)
    code, out, err = run(capsys, "verify", "7", "11", "--deep")
    assert code == 3 and err == "" and changed
    assert {line.split()[1].rstrip(":") for line in out.splitlines() if line.startswith("FAIL")} == {
        "period-route-equivalence",
        "orbit-tables-vs-iteration",
    }


def test_verify_names_a_broken_orbit_table_as_failed(capsys, monkeypatch):
    # One module too many with period dividing 2 leaves an odd exact count at
    # ell = 2: orbit_count_table raises, and verify --deep fails the verdict
    # that reads the table instead of aborting.  orbits has no verdicts, so
    # it reports the same fault as an internal error.
    real = semipath.counting.count_ell_periodic
    monkeypatch.setattr(semipath.counting, "count_ell_periodic", lambda pair, n, ell: real(pair, n, ell) + (ell == 2))
    code, out, err = run(capsys, "verify", "5", "8", "--deep")
    assert code == 3 and err == ""
    assert {line.split()[1].rstrip(":") for line in out.splitlines() if line.startswith("FAIL")} == {
        "orbit-tables-vs-iteration",
    }
    code, out, err = run(capsys, "orbits", "5", "8", "--gens", "4", "--brute")
    assert code == 3 and out == "" and err.startswith("internal error: orbit count for ell=2")


def test_orbits_brute_catches_an_orbit_walk_that_never_rotates(capsys, monkeypatch):
    # The walk then only cycles the top row and leaves the admissible
    # matrices, so the cycles counted from their greatest rows cannot cover
    # every module.
    monkeypatch.setattr(semipath.syzygies, "_admissible_index", lambda alpha, beta, down, right: 0)
    for n in range(2, 7):
        code, out, err = run(capsys, "orbits", "7", "11", "--gens", str(n), "--brute")
        assert code == 3 and out == ""
        assert err.startswith("internal error: ") and err.count("\n") == 1


def test_determinism(capsys):
    first = run(capsys, "enumerate", "5", "7", "--json")
    second = run(capsys, "enumerate", "5", "7", "--json")
    assert first == second
    one = run(capsys, "render", "5", "7", "--set", "0,9,6,8", "--format", "svg")
    two = run(capsys, "render", "5", "7", "--set", "0,9,6,8", "--format", "svg")
    assert one == two


def test_invalid_inputs_exit_2(capsys):
    code, _, err = run(capsys, "gaps", "4", "6")
    assert code == 2 and "coprime" in err
    code, _, err = run(capsys, "couple", "5", "7", "--set", "0,5")
    assert code == 2
    code, _, err = run(capsys, "orbit", "5", "7", "--set", "0,5")
    assert code == 2 and "(0, 5) is not minimal" in err
    for command in ("couple", "syzygy", "orbit", "render"):
        want = (2, "", "error: the generator set must contain 0, got {3, 9}\n")
        assert run(capsys, command, "5", "7", "--set", "3,9") == want, command
    code, _, err = run(capsys, "enumerate", "5", "7", "--gens", "9")
    assert code == 2
    code, _, err = run(capsys, "couple", "5", "7", "--set", "zero")
    assert code == 2
    assert run(capsys, "couple", "5", "7", "--set", ",") == (2, "", "error: the generator set is empty\n")
    code, _, err = run(capsys, "render", "5", "7", "--set", "0,9,6,8", "--format", "svg", "--cell", "2")
    assert (code, err) == (2, "error: svg cell size must be an integer >= 4, got 2\n")
    assert run(capsys, "member", "5", "7", "--", "-1") == (2, "", "error: n must be an integer >= 0, got -1\n")
    code, _, err = run(capsys, "syzygy", "5", "7", "--set", "0", "--iterate", "0")
    assert (code, err) == (2, "error: iteration count must be an integer >= 1, got 0\n")


# Each subcommand with valid remaining options, so only the pair is wrong.
SUBCOMMANDS = {
    "gaps": [],
    "member": ["3"],
    "enumerate": ["--gens", "2"],
    "count": ["--brute"],
    "couple": ["--set", "0"],
    "syzygy": ["--set", "0"],
    "orbit": ["--set", "0"],
    "orbits": ["--gens", "1"],
    "fixed-points": [],
    "render": ["--set", "0"],
    "verify": [],
}


@pytest.mark.parametrize("alpha, beta", [(4, 6), (7, 5), (1, 2)], ids=["not-coprime", "descending", "alpha-1"])
@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_subcommand_reads_the_pair_once_and_refuses_it(capsys, command, alpha, beta):
    with pytest.raises(ValueError) as refusal:
        SemigroupPair(alpha, beta)
    got = run(capsys, command, str(alpha), str(beta), *SUBCOMMANDS[command])
    assert got == (2, "", f"error: {refusal.value}\n")


def test_a_bad_pair_is_refused_before_a_bad_set(capsys):
    got = run(capsys, "couple", "4", "6", "--set", "zero")
    assert got == (2, "", "error: generators must be coprime, got (4, 6)\n")


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["count", "5"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command", "5", "7"])
    assert info.value.code == 2


def test_verify_output_is_the_same_under_python_O():
    plain = spawn("verify", "5", "7", "--deep").communicate(timeout=60)
    optimized_proc = spawn("verify", "5", "7", "--deep", flags=("-O",))
    optimized = optimized_proc.communicate(timeout=60)
    assert optimized_proc.returncode == 0
    assert optimized == plain and plain[0].count(b"\n") >= 14


def test_package_runs_as_a_module():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "semipath", "count", "5", "7"], env=env, capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"66\n", b"")


def test_closed_pipe_exits_quietly():
    proc = spawn("enumerate", "15", "16")
    assert proc.stdout.readline() == b"0\n"
    assert proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    with proc.stderr:
        assert proc.stderr.read() == b""


def test_interrupt_exits_130_without_traceback():
    proc = spawn("enumerate", "15", "16")
    assert proc.stdout.readline() == b"0\n"
    proc.send_signal(signal.SIGINT)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 130
    assert b"Traceback" not in err


def test_orbits_checks_the_generator_count():
    proc = spawn("orbits", "15", "16", "--gens", "0")
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err == b"error: generator count must lie in [1, 15], got 0\n"


@pytest.mark.parametrize(
    "argv, name, fake",
    [
        (["orbits", "5", "7", "--gens", "4", "--brute"], "brute_period_tally", lambda pair, n: {4: 1}),
        (["count", "5", "7", "--brute"], "_gap_chains", lambda pair, r, *values: iter(())),
    ],
    ids=["orbits", "count"],
)
def test_brute_force_disagreement_is_an_internal_error(capsys, monkeypatch, argv, name, fake):
    monkeypatch.setattr(semipath.cli, name, fake)
    args = _build_parser().parse_args(argv)
    with pytest.raises(InvariantError):
        _handler(args.command)(args, SemigroupPair(args.alpha, args.beta))
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("internal error: ")


def test_one_parser_serves_every_call():
    assert _build_parser() is _build_parser()


def test_a_handler_rebound_after_the_first_call_is_the_one_that_runs(capsys, monkeypatch):
    # The cached parser names no handler; main looks cmd_* up at each call, so
    # a rebinding made after the parser was built (as a tracer makes) is seen.
    assert run(capsys, "gaps", "5", "7")[0] == 0
    calls = []
    monkeypatch.setattr(semipath.cli, "cmd_gaps", lambda args, pair: calls.append(pair) or 0)
    assert run(capsys, "gaps", "5", "7") == (0, "", "")
    assert calls == [SemigroupPair(5, 7)]


def test_consecutive_calls_share_no_options(capsys):
    code, out, _ = run(capsys, "enumerate", "5", "7", "--gens", "4", "--json")
    assert code == 0 and out.startswith('{"alpha":5,"beta":7,"generators":[0,')
    code, out, _ = run(capsys, "enumerate", "5", "7", "--gens", "4")
    assert code == 0 and out.startswith("0,") and "{" not in out
    assert len(out.splitlines()) == 20


def test_a_usage_error_reads_the_same_after_other_calls(capsys):
    def bad_flag():
        with pytest.raises(SystemExit) as exit_info:
            main(["enumerate", "5", "7", "--no-such-flag"])
        return exit_info.value.code, capsys.readouterr()

    _build_parser.cache_clear()  # so the bad call is the one that builds the parser
    first = bad_flag()
    assert first[0] == 2 and first[1].out == ""
    assert "unrecognized arguments: --no-such-flag" in first[1].err
    assert run(capsys, "count", "5", "7", "--gens", "4") == (0, "20\n", "")
    assert bad_flag() == first
    assert run(capsys, "gaps", "5", "7") == (0, "1 2 3 4 6 8 9 11 13 16 18 23\n", "")


def _actions(parser):
    """Each action of a parser as plain data, the fields its --help is made from."""
    rows = []
    for action in parser._actions:
        row = {
            name: getattr(action, name)
            for name in ("option_strings", "dest", "default", "required", "metavar", "help")
        }
        row["type"] = getattr(action.type, "__name__", None)
        row["choices"] = None if action.choices is None else list(action.choices)
        rows.append(row)
    return rows


def cli_surface():
    """The top parser's actions, and each subcommand's name, help and actions."""
    parser = _build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        "semipath": _actions(parser),
        "commands": [
            {"name": choice.dest, "help": choice.help, "actions": _actions(sub.choices[choice.dest])}
            for choice in sub._choices_actions
        ],
    }


def test_cli_surface_is_pinned():
    # Compared as data rather than as --help text, which argparse wraps to the
    # terminal width; a deliberate change to the CLI updates cli_surface.json.
    surface = cli_surface()
    assert len(surface["commands"]) == 11
    assert surface == json.loads(CLI_SURFACE.read_text())
