"""The three workloads, their seeded inputs, and the correctness gate of each op.

A workload is a list of ops run in order as one round.  CLI ops call
`semipath.cli.main(argv)` in-process with stdout going to a hashing sink;
module ops call the library directly on one line of JSON a producer op wrote
earlier in the same round.  Each op returns its timed seconds and a list of
gate failures; an op that raises is a failure too, never raised out of the
round.

Workloads (see README.md for why each exists):
  stream   bulk CLI streams; no Semimodule is built.  Fixed inputs.
  modules  `enumerate --json` producers, then a seeded sample of their lines
           through from_json / syzygy_period / iterated_syzygy / is_isomorphic
           / to_json.  The seed picks the sample and each op's K.
  verify   `verify --deep` on two small pairs.  Fixed inputs.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

EXPECTED_FILE = Path(__file__).with_name("expected.json")

STREAM = [
    ["enumerate", "11", "13"],
    ["enumerate", "14", "15", "--gens", "6"],
    ["count", "12", "13", "--brute"],
    ["orbits", "15", "16", "--gens", "12", "--brute"],
]
# (alpha, beta, n): beta = alpha+1 and not; n | alpha*beta (periods below n
# occur) and not; and n = alpha, where every module is a fixed point.
PRODUCERS = [(10, 11, 5), (10, 13, 5), (11, 13, 4), (8, 13, 8)]
SAMPLE_PER_PRODUCER = 150
VERIFY = [["verify", "7", "11", "--deep"], ["verify", "7", "8", "--deep"]]
SINK_BUFFER = 1 << 14  # bytes the sink receives per write


def command_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())["commands"]


class HashSink(io.RawIOBase):
    """Raw byte sink that hashes and counts everything written to it, and
    keeps the bytes only when asked to."""

    def __init__(self, keep: bool) -> None:
        self.sha = hashlib.sha256()
        self.keep = keep
        self.chunks: list[bytes] = []
        self.newlines = 0
        self.bytes = 0
        self.last = b"\n"  # the last byte written; a newline when nothing was

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        chunk = bytes(data)
        if chunk:
            self.sha.update(chunk)
            self.newlines += chunk.count(b"\n")
            self.bytes += len(chunk)
            self.last = chunk[-1:]
            if self.keep:
                self.chunks.append(chunk)
        return len(chunk)

    @property
    def lines(self) -> int:
        return self.newlines + (self.last != b"\n")


@dataclass
class CliOp:
    argv: list[str]
    expect_lines: int | None = None
    expect_sha: str | None = None
    line_gate: Callable[[list[bytes]], str | None] | None = None
    keep_lines: bool = False

    @property
    def label(self) -> str:
        return command_key(self.argv)


@dataclass
class ModuleOp:
    source: int  # index of the producing CliOp in the round
    line: int
    k: int
    gens: int

    @property
    def label(self) -> str:
        return f"module[{self.source}:{self.line}] K={self.k}"


@dataclass
class Workload:
    ops: list
    samples: dict  # sizes recorded with the run's environment


@dataclass
class OpResult:
    seconds: float
    failures: list[str]
    fingerprint: object = None
    lines: int = 0
    bytes_out: int = 0


def _lines(chunks: list[bytes]):
    """Lines of the concatenated chunks without their newlines, one at a
    time, without joining the chunks into one copy."""
    rest = b""
    for chunk in chunks:
        parts = (rest + chunk).split(b"\n")
        rest = parts.pop()
        yield from parts
    if rest:
        yield rest


def ascending_from_zero(chunks: list[bytes]) -> str | None:
    for number, line in enumerate(_lines(chunks)):
        values = [int(token) for token in line.split(b",")]
        if values[0] != 0 or any(a >= b for a, b in zip(values, values[1:])):
            return f"line {number} is not ascending from 0: {line!r}"
    return None


def ok_or_skip(chunks: list[bytes]) -> str | None:
    if not any(chunks):
        return "no output"
    for line in _lines(chunks):
        status = line.split(None, 1)[0] if line.strip() else b""
        if status not in (b"ok", b"skip"):
            return f"line {line!r} is neither ok nor skip"
    return None


def build(name: str, seed: int, lib, expected: dict) -> Workload:
    """The ops of one round; the seed only matters for `modules`."""
    pair = lib.SemigroupPair
    if name == "stream":
        ops = [
            CliOp(STREAM[0], lib.count_lean_sets_total(pair(11, 13)), line_gate=ascending_from_zero),
            CliOp(STREAM[1], lib.count_lean_sets(pair(14, 15), 5), line_gate=ascending_from_zero),
            CliOp(STREAM[2]),
            CliOp(STREAM[3]),
        ]
        for op in ops:
            op.expect_sha = expected[op.label]["sha256"]
        return Workload(ops, {"commands": len(ops)})
    if name == "modules":
        rng = random.Random(seed)
        producers = []
        for alpha, beta, n in PRODUCERS:
            argv = ["enumerate", str(alpha), str(beta), "--gens", str(n), "--json"]
            op = CliOp(argv, lib.count_lean_sets(pair(alpha, beta), n - 1), keep_lines=True)
            op.expect_sha = expected[op.label]["sha256"]
            producers.append(op)
        consumers = []
        for source, (op, (_, _, n)) in enumerate(zip(producers, PRODUCERS)):
            picks = sorted(rng.sample(range(op.expect_lines), min(SAMPLE_PER_PRODUCER, op.expect_lines)))
            # K runs evenly over [n, 3n] and the seed deals the values out, so the
            # number of syzygy steps per round barely depends on the seed.
            ks = [n + i % (2 * n + 1) for i in range(len(picks))]
            rng.shuffle(ks)
            consumers += [ModuleOp(source, line, k, n) for line, k in zip(picks, ks)]
        return Workload(producers + consumers,
                        {"producer_lines": sum(op.expect_lines for op in producers),
                         "module_ops": len(consumers)})
    if name == "verify":
        return Workload([CliOp(argv, line_gate=ok_or_skip) for argv in VERIFY],
                        {"commands": len(VERIFY)})
    raise ValueError(f"unknown workload {name!r}")


def run_cli(lib, op: CliOp, verdicts: dict) -> tuple[OpResult, list[bytes] | None]:
    """Run one CLI op.  `verdicts` holds, per op, the digest its line gate
    was run on and the verdict.  The output is kept, and the gate run, only
    the first time; a later output with another digest fails, since the
    program is deterministic.  So a stream is held and parsed once per run."""
    gated = op.line_gate is not None and op.label not in verdicts
    sink = HashSink(keep=op.keep_lines or gated)
    out = io.TextIOWrapper(io.BufferedWriter(sink, SINK_BUFFER), encoding="utf-8", newline="\n")
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = perf_counter()
    try:
        try:
            code = lib.cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        out.flush()
    finally:
        end = perf_counter()
        sys.stdout, sys.stderr = saved
    digest = sink.sha.hexdigest()
    failures = []
    if code != 0:
        failures.append(f"exit code {code}: {err.getvalue().strip()[:200]}")
    if op.expect_lines is not None and sink.lines != op.expect_lines:
        failures.append(f"{sink.lines} lines, expected {op.expect_lines}")
    if op.expect_sha is not None and digest != op.expect_sha:
        failures.append(f"sha256 {digest[:16]}.. differs from the recorded {op.expect_sha[:16]}..")
    if op.line_gate is not None:
        if gated:
            verdicts[op.label] = digest, op.line_gate(sink.chunks)
        gated_digest, verdict = verdicts[op.label]
        if digest != gated_digest:
            failures.append(f"sha256 {digest[:16]}.. differs from this run's first output {gated_digest[:16]}..")
        elif verdict:
            failures.append(verdict)
    result = OpResult(end - start, failures, (code, digest), sink.lines, sink.bytes)
    lines = None
    if op.keep_lines:
        data = b"".join(sink.chunks)
        sink.chunks.clear()
        lines = data.splitlines()
    return result, lines


def run_module(lib, op: ModuleOp, produced: dict) -> OpResult:
    """One consumer op on one produced JSON line, timed from from_json to to_json."""
    lines = produced.get(op.source) or []
    if op.line >= len(lines):
        return OpResult(0.0, [f"producer {op.source} wrote no line {op.line}"])
    text = lines[op.line].decode()
    start = perf_counter()
    module = lib.Semimodule.from_json(json.loads(text))
    semigroup = module.semigroup
    report = lib.syzygy_period(semigroup, module)
    far = lib.iterated_syzygy(semigroup, module, op.k)
    same = lib.is_isomorphic(semigroup, far, report.cycle[op.k % report.period])
    back = json.dumps(module.to_json(), separators=(",", ":"))
    seconds = perf_counter() - start
    failures = []
    n, period = len(module.gens), report.period
    if back != text:
        failures.append(f"JSON round trip changed {text} into {back}")
    if n != op.gens:
        failures.append(f"{n} generators, expected {op.gens}")
    if n % period or semigroup.product % (n // period):
        failures.append(f"period {period} breaks period | n={n} or n/period | {semigroup.product}")
    if not same:
        failures.append(f"Syz^{op.k} is not isomorphic to cycle[{op.k % period}]")
    return OpResult(seconds, failures, (period, far.gens, same, back))


def run_op(lib, op, produced: dict, verdicts: dict, index: int) -> OpResult:
    """Run any op; exceptions become failures of that op."""
    try:
        if isinstance(op, CliOp):
            result, lines = run_cli(lib, op, verdicts)
            if lines is not None:
                produced[index] = lines
            return result
        return run_module(lib, op, produced)
    except Exception as exc:  # the gate counts it; the round goes on
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return OpResult(0.0, [f"raised {type(exc).__name__}: {exc} "
                              f"({Path(where.filename).name}:{where.lineno} in {where.name})"])
