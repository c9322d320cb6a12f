"""Command-line surface: outputs, exit codes, determinism."""

import argparse
import errno
import hashlib
import inspect
import io
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import semipath.cli
from semipath import InvariantError, SemigroupPair, Semimodule, enumerate_lean_sets
from semipath.cli import _build_parser, _handler, main
from semipath.verify import brute_period_tally

SRC = Path(__file__).resolve().parents[1] / "src"
CLI_SURFACE = Path(__file__).with_name("cli_surface.json")
STDOUT_GOLDENS = Path(__file__).with_name("stdout_sha256.txt")


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


# The stdout goldens, command line -> sha256, the one table that the CI
# workflow also reads.
STDOUT_SHA256 = dict(
    line.split("  ", 1)[::-1] for line in STDOUT_GOLDENS.read_text().splitlines() if line and not line.startswith("#")
)


@pytest.mark.parametrize("argv", STDOUT_SHA256, ids=lambda argv: argv.replace(" ", "_"))
def test_stdout_is_unchanged(capsys, argv):
    # sha256 of the whole stdout, so no change to an oracle can alter a verdict
    # or a detail line, and no change to a stream its order or a byte of a
    # line, unnoticed.  orbits --brute and verify --deep walk every gap chain.
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv]


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
    code, _, err = run(capsys, "enumerate", "5", "7", "--gens", "9")
    assert code == 2
    code, _, err = run(capsys, "couple", "5", "7", "--set", "zero")
    assert code == 2
    code, _, err = run(capsys, "render", "5", "7", "--set", "0,9,6,8", "--format", "svg", "--cell", "2")
    assert (code, err) == (2, "error: svg cell size must be an integer >= 4, got 2\n")
    assert run(capsys, "member", "5", "7", "--", "-1") == (2, "", "error: n must be an integer >= 0, got -1\n")
    code, _, err = run(capsys, "syzygy", "5", "7", "--set", "0", "--iterate", "0")
    assert (code, err) == (2, "error: iteration count must be an integer >= 1, got 0\n")


# A --set is read only by LeanSet.from_members, so each refused set has one
# text, whichever command reads it.
SET_REFUSALS = {
    ",": "members must not be empty",
    "3,9": "the least value must be 0 (normalize first), got (3, 9)",
    "0,5": "{0, 5} is not a lean set of <5,7>",
    "-1,0": "the least value must be 0 (normalize first), got (-1, 0)",
}


@pytest.mark.parametrize("text", SET_REFUSALS)
@pytest.mark.parametrize("command", ["couple", "syzygy", "orbit", "render"])
def test_every_set_command_refuses_a_set_in_the_library_words(capsys, command, text):
    assert run(capsys, command, "5", "7", f"--set={text}") == (2, "", f"error: {SET_REFUSALS[text]}\n")


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
        (["count", "5", "7", "--brute"], "_results", lambda pair, gap_count, reduce, *walk: [0]),
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


def _walk_in(monkeypatch, parts):
    """Walk every gap-chain stream in `parts` parts, whatever its size and
    the CPUs, so that a runner with one CPU forks too."""
    monkeypatch.setattr(semipath.leansets, "_part_count", lambda semigroup, gap_count: parts)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _bench_sha256(argv: str) -> str:
    """The stdout digest that perfbench/expected.json records for argv."""
    return json.loads((SRC.parent / "perfbench" / "expected.json").read_text())["commands"][argv]["sha256"]


# Streams whose stdout must not depend on the part count: plain and --json,
# filtered and not (--gens 1 is the empty chain alone), and count --brute
# with and without --gens.
PART_STREAMS = [
    f"enumerate {pair}{flags}"
    for pair in ("7 11", "11 13")
    for flags in ("", " --json", " --gens 1", " --gens 1 --json", " --gens 5", " --gens 5 --json")
]
PART_STREAMS += ["enumerate 15 16 --gens 12", "enumerate 15 16 --gens 12 --json"]
PART_STREAMS += [
    f"count {pair} --brute{flags}" for pair in ("7 11", "11 13") for flags in ("", " --gens 1", " --gens 5")
]
PART_STREAMS += ["count 15 16 --gens 12 --brute"]


def test_brute_tallies_are_the_same_in_1_2_and_3_parts(capsys, monkeypatch):
    cases = [(SemigroupPair(alpha, beta), n) for alpha, beta in ((7, 11), (8, 13)) for n in range(1, alpha + 1)]
    cases += [(SemigroupPair(15, 16), n) for n in (2, 3, 12)]
    argv = "orbits 15 16 --gens 12 --brute"
    tallies, streams = {}, {}
    for parts in (1, 2, 3):
        _walk_in(monkeypatch, parts)
        tallies[parts] = [brute_period_tally(pair, n) for pair, n in cases]
        code, out, err = run(capsys, *argv.split())
        assert (code, _sha256(out), err) == (0, STDOUT_SHA256[argv], ""), parts
        runs = (run(capsys, *stream.split()) for stream in PART_STREAMS)
        streams[parts] = [(code, _sha256(out), err) for code, out, err in runs]
    assert tallies[1] == tallies[2] == tallies[3]
    assert streams[1] == streams[2] == streams[3]
    assert all(code == 0 and err == "" for code, _, err in streams[1])
    pinned = [STDOUT_SHA256["enumerate 7 11"], STDOUT_SHA256["enumerate 7 11 --json"]]
    assert [digest for _, digest, _ in streams[1][:2]] == pinned


def _run_sha256(argv: str):
    """A call that runs argv and gives its exit code, stdout digest and stderr."""

    def call(capsys):
        code, out, err = run(capsys, *argv.split())
        return code, _sha256(out), err

    return call


# Every command that walks the chains in forked parts, each with what it must give.
PARTED_WALKS = {
    "orbits": (lambda capsys: sum(brute_period_tally(SemigroupPair(15, 16), 12).values()), 41405),
    "count": (_run_sha256("count 12 13 --brute"), (0, STDOUT_SHA256["count 12 13 --brute"], "")),
    "enumerate": (_run_sha256("enumerate 14 15 --gens 6"), (0, _bench_sha256("enumerate 14 15 --gens 6"), "")),
}


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("command", PARTED_WALKS)
def test_each_part_walks_only_its_own_chains(capsys, monkeypatch, tmp_path, command, parts):
    # Each part's walk logs how many chains of each length it built, by the
    # calls to item.  The short chains above the cut are built in every part;
    # from the cut down, the parts together build the serial walk's chains,
    # so a part that built every chain to keep its share fails.  The caller's
    # own root, item and grow build each value, paired with its chain's
    # length, so the counts and the text stay right.
    log, walk = tmp_path / "chains", semipath.leansets._gap_chains

    def counted(*args, **kwargs):
        call = inspect.signature(walk).bind(*args, **kwargs)
        call.apply_defaults()
        semigroup, root, item, grow, mark = map(call.arguments.get, ("semigroup", "root", "item", "grow", "mark"))
        built = [0] * semigroup.alpha

        def length_item(parent, point):
            length, value = parent
            built[length] += 1
            return length + 1, item(value, point)

        def length_grow(parent, point, value):
            return value[0], grow(parent[1], point, value[1])

        call.arguments.update(root=(0, root), item=length_item, grow=length_grow)
        for value in walk(*call.args, **call.kwargs):
            yield value if value is mark else value[1]
        with open(log, "a") as file:
            file.write(json.dumps(built) + "\n")

    monkeypatch.setattr(semipath.leansets, "_gap_chains", counted)
    outcome, expected = PARTED_WALKS[command]
    _walk_in(monkeypatch, 1)
    assert outcome(capsys) == expected
    _walk_in(monkeypatch, parts)
    assert outcome(capsys) == expected
    serial, *each = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(each) == parts
    cut = next((d for d, count in enumerate(serial) if any(built[d] != count for built in each)), len(serial))
    assert all(built[:cut] == serial[:cut] for built in each)
    assert [sum(counts) for counts in zip(*each)][cut:] == serial[cut:]
    assert sum(serial[:cut]) * 100 < sum(serial), (cut, serial)


def test_a_stream_below_the_fork_floor_forks_nothing(capsys, monkeypatch):
    # The benchmark's four enumerate --json producers, each under 2**15
    # modules, run serial even with eight CPUs: a fork fails the run.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert semipath.leansets._part_count(SemigroupPair(12, 13), None) == 8

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    for argv in ("10 11 --gens 5", "10 13 --gens 5", "11 13 --gens 4", "8 13 --gens 8"):
        argv = f"enumerate {argv} --json"
        code, out, err = run(capsys, *argv.split())
        assert (code, _sha256(out), err) == (0, _bench_sha256(argv), ""), argv


def test_enumerate_in_3_parts_holds_no_part_of_its_output(monkeypatch):
    # 7.07 MB of lines: the forked parts' text passes through this process a
    # pipe read at a time, and part 0's 1,024 lines at a time.
    digest = hashlib.sha256()

    class Sink(io.RawIOBase):
        def writable(self):
            return True

        def write(self, data):
            digest.update(data)
            return len(data)

    out = io.TextIOWrapper(io.BufferedWriter(Sink(), 1 << 14), encoding="utf-8", newline="\n")
    _walk_in(monkeypatch, 3)
    monkeypatch.setattr(sys, "stdout", out)
    tracemalloc.start()
    try:
        code = main(["enumerate", "14", "15", "--gens", "6"])
        out.flush()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, digest.hexdigest()) == (0, _bench_sha256("enumerate 14 15 --gens 6"))
    assert peak < 4 << 20, peak


def _leader_period_by_process(here, there):
    """_leader_period, after here() on each start this process walks and
    there() on each start a forked part walks."""
    pid, leader = os.getpid(), semipath.verify._leader_period

    def fake(alpha, beta, start):
        (here if os.getpid() == pid else there)()
        return leader(alpha, beta, start)

    return fake


def _raise(exc):
    def raising():
        raise exc

    return raising


def _sleep_once(seconds):
    """Sleep on the first call in each process, as each forked part starts."""
    slept = []

    def sleep():
        if not slept:
            slept.append(True)
            time.sleep(seconds)

    return sleep


def _leaders(here, there):
    return semipath.verify, "_leader_period", _leader_period_by_process(here, there)


def _dies_in_a_forked_part():
    """cmd_enumerate's walk, ending the process of a forked part at its 100th line."""
    pid, walk = os.getpid(), semipath.leansets._gap_chains

    def dying(*args):
        for count, value in enumerate(walk(*args)):
            if count == 100 and os.getpid() != pid:
                os._exit(1)
            yield value

    return semipath.leansets, "_gap_chains", dying


def _drops_a_mark_in_a_forked_part():
    """cmd_enumerate's walk, leaving out in each forked part the _SUBTREE
    before its first subtree, so the part sends one mark too few."""
    pid, walk = os.getpid(), semipath.leansets._gap_chains

    def dropping(*args):
        dropped = os.getpid() == pid
        for value in walk(*args):
            if value == semipath.leansets._SUBTREE and not dropped:
                dropped = True
                continue
            yield value

    return semipath.leansets, "_gap_chains", dropping


class _HoldsBackItsLastWrite:
    """A forked part's pipe that never sends the last write: its closing _SUBTREE."""

    def __init__(self, pipe):
        self.pipe, self.held = pipe, b""

    def write(self, data):
        self.pipe.write(self.held)
        self.held = data


def _no_closing_mark_from_a_forked_part():
    forked = semipath.leansets._forked

    def unclosed(parts, send, use):
        return forked(parts, lambda index, pipe: send(index, _HoldsBackItsLastWrite(pipe)), use)

    return semipath.leansets, "_forked", unclosed


LOST = "internal error: a forked part of the gap-chain walk ended before sending all it walked\n"


@pytest.mark.parametrize(
    "argv, patch, code, err",
    [
        ("orbits 7 11 --gens 5 --brute", None, 0, ""),
        ("orbits 7 11 --gens 5 --brute", _leaders(lambda: None, _raise(InvariantError("child"))),
         3, "internal error: child\n"),
        # A child that cannot pickle its error sends nothing.
        ("orbits 7 11 --gens 5 --brute", _leaders(lambda: None, _raise(InvariantError(lambda: 0))), 3, LOST),
        # A child that dies sends nothing either.
        ("orbits 7 11 --gens 5 --brute", _leaders(lambda: None, lambda: os._exit(1)), 3, LOST),
        # The other parts would sleep for a minute: they are killed, not waited for.
        ("orbits 15 16 --gens 12 --brute", _leaders(_raise(KeyboardInterrupt()), _sleep_once(60)), 130, ""),
        ("enumerate 11 13 --json", None, 0, ""),
        ("count 12 13 --brute", None, 0, ""),
        # The stream stops short, and the run says so.
        ("enumerate 11 13", _dies_in_a_forked_part(), 3, LOST),
        # A child that sends a mark too few, a subtree's or the closing one, ended early too.
        ("enumerate 11 13", _drops_a_mark_in_a_forked_part(), 3, LOST),
        ("enumerate 11 13", _no_closing_mark_from_a_forked_part(), 3, LOST),
    ],
    ids=[
        "success", "error-in-a-child", "unpicklable-error-in-a-child", "a-child-dies", "interrupt-in-part-0",
        "enumerate", "count", "enumerate-child-dies-mid-stream", "enumerate-child-drops-a-mark",
        "enumerate-child-sends-no-closing-mark",
    ],
)
def test_a_forked_walk_leaves_no_child(capsys, monkeypatch, argv, patch, code, err):
    _walk_in(monkeypatch, 3)
    if patch is not None:
        monkeypatch.setattr(*patch)
    start = time.monotonic()
    assert run(capsys, *argv.split())[::2] == (code, err)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name", ["pipe", "fork"])
@pytest.mark.parametrize("argv", ["enumerate 7 11", "count 7 11 --brute", "orbits 7 11 --gens 5 --brute"])
def test_a_failed_fork_walks_in_one_part(capsys, monkeypatch, argv, name):
    # The second os.pipe or os.fork of 3 parts fails as it does when the
    # system runs out of processes: the child already made is killed and
    # the run gives the serial stdout, with no traceback.
    _walk_in(monkeypatch, 1)
    serial = run(capsys, *argv.split())
    calls, call = [], getattr(os, name)

    def second_fails():
        calls.append(None)
        if len(calls) == 2:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return call()

    _walk_in(monkeypatch, 3)
    monkeypatch.setattr(os, name, second_fails)
    assert run(capsys, *argv.split()) == serial
    assert (serial[0], serial[2], len(calls)) == (0, "", 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _in_a_new_session(script):
    """A Python running script, leader of a new process group."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.Popen(
        [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )


def _ends_with_its_group(proc, finish):
    """finish(proc)'s result, once proc's whole process group has ended."""
    try:
        result = finish(proc)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    return result


def _ctrl_c(proc):
    # Ctrl-C in a terminal sends SIGINT to the whole foreground process group,
    # so each forked part gets it too, not only the process that forked them.
    time.sleep(1)
    os.killpg(proc.pid, signal.SIGINT)
    return proc.communicate(timeout=60)


# A SIGINT ignored at launch stays ignored, hence the handler is set again.
IN_3_PARTS = (
    "import signal, sys, time\n"
    "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
    "from semipath import SemigroupPair, cli, leansets, verify\n"
    "leansets._part_count = lambda semigroup, gap_count: 3\n"
)


def test_ctrl_c_to_the_process_group_ends_every_part_quietly():
    script = IN_3_PARTS + (
        "leader = verify._leader_period\n"
        "def slow(*args):\n"
        "    time.sleep(0.01)\n"
        "    return leader(*args)\n"
        "verify._leader_period = slow\n"
        "sys.exit(cli.main(['orbits', '7', '11', '--gens', '5', '--brute']))\n"
    )
    proc = _in_a_new_session(script)
    out, err = _ends_with_its_group(proc, _ctrl_c)
    assert (proc.returncode, out, err) == (130, b"", b"")


def test_enumerate_in_parts_ends_quietly_on_ctrl_c_or_when_its_reader_goes():
    # The stream runs for minutes: `| head -2`, then Ctrl-C in the middle.
    script = IN_3_PARTS + "sys.exit(cli.main(['enumerate', '15', '16']))\n"

    def head_2(proc):
        lines = proc.stdout.readline(), proc.stdout.readline()
        proc.stdout.close()
        with proc.stderr:
            return proc.wait(timeout=60), lines, proc.stderr.read()

    proc = _in_a_new_session(script)
    assert _ends_with_its_group(proc, head_2) == (141, (b"0\n", b"0,209\n"), b"")
    proc = _in_a_new_session(script)
    out, err = _ends_with_its_group(proc, _ctrl_c)
    assert (proc.returncode, out[:4], err) == (130, b"0\n0,", b"")


def test_forked_parts_flush_none_of_the_buffered_stdout():
    # stdout to a pipe is block-buffered, so the line is still in the buffer
    # that each forked part inherits when the walk starts.
    script = IN_3_PARTS + (
        "print('before the walk')\n"
        "verify.brute_period_tally(SemigroupPair(7, 11), 5)\n"
        "print('between the walks')\n"
        "cli.main(['count', '11', '13', '--brute'])\n"
        "cli.main(['enumerate', '7', '11'])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=60)
    head, lines = proc.stdout.split(b"104006\n", 1)
    assert (proc.returncode, head, proc.stderr) == (0, b"before the walk\nbetween the walks\n", b"")
    assert hashlib.sha256(lines).hexdigest() == STDOUT_SHA256["enumerate 7 11"]


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
