"""Run one semipath benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 40 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory, never from an installed copy.  The workload runs in one process
on one thread.

Set-up is timed in fresh Python processes, each started, made to import
semipath from `src/` and build the workload's argv lists and seeded choices,
and then ended: SETUP_FIRST of them before the first round and
SETUP_PER_ROUND more before every round, one at a time.  The workload process sets itself up the
same way, untimed, and runs a fixed number of whole rounds of the op list:
`--seconds` / ROUND_SECONDS of the workload, never fewer than MIN_ROUNDS.
The count depends on `--seconds` only, never on how fast the program is, so
every commit's figures rest on the same number of rounds.

`--trace 0` reports the end-to-end metrics: setup_s is the median fresh
set-up; wall_s is `quiet_wall` of the rounds; peak_rss_mb is the workload
process's peak resident set.  `--trace 1` runs TRACE_SHARE of the rounds
untraced, then installs the layer tracer and runs as many traced rounds; it
reports the per-layer metrics, the tracing overhead, and counts an op as
failed if its traced output differs from the untraced one.  The last stdout
line is one JSON object: correct, attempted, failed, metrics.  A results
file and, for traced runs, a span file go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

from layers import PER_LAYER, instrument, layer_metrics
from tracer import Tracer
from workloads import CliOp, ModuleOp, Workload, build, load_expected, run_op

WORKLOADS = ("stream", "modules", "verify")
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB")]
# Seconds one round takes, gates included, at the commit the benchmark was
# defined, on 2 shared x86-64 cores with Python 3.11; a run of --seconds
# makes --seconds / ROUND_SECONDS rounds.
ROUND_SECONDS = {"stream": 6.0, "modules": 2.6, "verify": 5.5}
MIN_ROUNDS = 3
TRACE_SHARE = 0.4  # of the rounds, run untraced and then traced in a traced run
SETUP_FIRST = 3  # fresh set-ups before the first round
SETUP_PER_ROUND = 2  # and before every round
# No round starts that would likely end more than this many seconds into the
# run, so a grossly slower program still ends in time, on fewer rounds.
GUARD_SECONDS = 150.0
SETUP_CHILD = """
import sys
src, here, workload, seed = sys.argv[1:]
sys.path[:0] = [src, here]
import semipath, semipath.cli
from workloads import build, load_expected
if not semipath.__file__.startswith(src):
    sys.exit(f"imported semipath from {semipath.__file__}, not {src}")
build(workload, int(seed), semipath, load_expected())
print("ready", flush=True)
"""


class SetupError(Exception):
    pass


def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


def import_semipath(root: Path):
    """Import semipath (and semipath.cli) afresh from root/src."""
    src = root / "src"
    init = src / "semipath" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no semipath sources at {init}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "semipath" or n.startswith("semipath.")]:
        del sys.modules[name]
    lib = importlib.import_module("semipath")
    importlib.import_module("semipath.cli")
    if Path(lib.__file__).resolve() != init.resolve():
        raise SetupError(f"imported semipath from {lib.__file__}, not {init}")
    return lib


def fresh_setup_seconds(root: Path, workload: str, seed: int) -> float:
    """Seconds from starting a fresh Python process until it has imported
    semipath from src/ and built the workload: a user's process's set-up,
    interpreter start included.  The process is ended before this returns."""
    argv = [sys.executable, "-I", "-c", SETUP_CHILD, str(root / "src"),
            str(Path(__file__).resolve().parent), workload, str(seed)]
    start = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as child:
        ready = child.stdout.readline()
        seconds = perf_counter() - start
        _, err = child.communicate(timeout=60)
    if ready != "ready\n" or child.returncode != 0:
        raise SetupError(f"fresh set-up exited {child.returncode}: {err.strip()[-300:]}")
    return seconds


def git_sha(root: Path) -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest(root: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted((root / "src" / "semipath").glob("*.py")):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def environment(root: Path, args, load1: float) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": git_sha(root),
        "src_sha256": src_digest(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load1_at_start": load1,
    }


@dataclass
class Round:
    seconds: list[float]  # each op's timed interval, in op order; gates are not timed
    failed: int
    elapsed: float
    cpu: float
    fingerprints: list | None = None
    layers: dict = field(default_factory=dict)
    snapshot: dict = field(default_factory=dict)


def run_round(lib, workload: Workload, verdicts: dict, tracer: Tracer | None,
              baseline: list | None, messages: list[str]) -> Round:
    """One pass over the op list.  With `baseline` (the fingerprints of an
    untraced round), an op whose output differs from it fails too."""
    produced: dict = {}
    seconds, fingerprints, failed = [], [], 0
    cpu, start = process_time(), perf_counter()
    for index, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op += 1
        result = run_op(lib, op, produced, verdicts, index)
        if tracer is not None and isinstance(op, CliOp):
            tracer.add("cli.main.lines_out", result.lines)
            tracer.add("cli.main.bytes_out", result.bytes_out)
        failures = result.failures
        if baseline is not None and result.fingerprint != baseline[index]:
            failures = failures + ["traced output differs from the untraced output"]
        if failures:
            failed += 1
            if len(messages) < 20:
                messages.append(f"{op.label}: {'; '.join(failures)}")
        seconds.append(result.seconds)
        fingerprints.append(result.fingerprint)
    return Round(seconds, failed, perf_counter() - start, process_time() - cpu, fingerprints)


def run_phase(lib, workload: Workload, verdicts: dict, count: int, guard: float,
              messages: list[str], tracer: Tracer | None = None,
              baseline: list | None = None, before=None) -> list[Round]:
    """`count` whole rounds, each after `before()`, or fewer if the next one
    would likely end past `guard`.  Only the first round keeps its
    fingerprints, so memory does not grow with the number of rounds."""
    rounds: list[Round] = []
    while len(rounds) < count:
        if rounds and perf_counter() + max(r.elapsed for r in rounds[-3:]) > guard:
            break
        if before is not None:
            before()
        gc.collect()  # every round starts from the same heap, with no collection owed
        if tracer is not None:
            tracer.reset_aggregates()
        current = run_round(lib, workload, verdicts, tracer, baseline, messages)
        if rounds:
            current.fingerprints = None
        if tracer is not None:
            current.snapshot = tracer.snapshot()
            current.layers = layer_metrics(current.snapshot)
        rounds.append(current)
    return rounds


def quiet_wall(rounds: list[Round]) -> float:
    """Each op's fastest time over the rounds, summed over the op list.

    This is the wall time of one round with the interference of other
    processes taken out: on a shared machine interference only ever adds
    time, and it comes in bursts that rarely hit the same op in every round.
    A slower program is slower in every round, so it raises this too.  The
    number of rounds is fixed, so the minimum is taken over as many samples
    at every commit.
    """
    return sum(min(times) for times in zip(*(r.seconds for r in rounds)))


def module_latency(rounds: list[Round], workload: Workload) -> dict | None:
    """p50 and p99 of the module ops, with the sample count behind them."""
    module_ops = [i for i, op in enumerate(workload.ops) if isinstance(op, ModuleOp)]
    times = [r.seconds[i] for r in rounds for i in module_ops]
    if len(times) < 2:
        return None
    p99 = statistics.quantiles(times, n=100)[98]
    return {
        "module_p50_ms": statistics.median(times) * 1e3,
        "module_p99_ms": p99 * 1e3,
        "samples": len(times),
        "beyond_p99": sum(t > p99 for t in times),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = repo_root()
    load1 = os.getloadavg()[0]
    started = perf_counter()
    guard = started + GUARD_SECONDS
    planned = max(MIN_ROUNDS, int(args.seconds / ROUND_SECONDS[args.workload]))
    setup_times: list[float] = []

    def fresh_setups(count: int = SETUP_PER_ROUND) -> None:
        for _ in range(count):
            setup_times.append(fresh_setup_seconds(root, args.workload, args.seed))

    try:
        expected = load_expected()
        lib = import_semipath(root)
        workload = build(args.workload, args.seed, lib, expected)
        if not args.trace:
            fresh_setups(SETUP_FIRST)
    except (SetupError, ImportError, OSError, KeyError, ValueError, subprocess.SubprocessError) as exc:
        print(f"perfbench: set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    env = environment(root, args, load1)
    verdicts: dict = {}
    messages: list[str] = []
    if args.trace:
        share = max(1, int(TRACE_SHARE * planned))
        untraced = run_phase(lib, workload, verdicts, share, guard, messages)
        tracer = Tracer()
        instrument(tracer, lib)
        try:
            traced = run_phase(lib, workload, verdicts, len(untraced), guard, messages,
                               tracer, untraced[0].fingerprints)
        finally:
            tracer.uninstall()
        rounds = untraced + traced
        untraced_wall = quiet_wall(untraced)
        metrics = {name: statistics.median(r.layers[name] for r in traced) for name in traced[0].layers}
        metrics["process.cpu_s"] = statistics.median(r.cpu for r in untraced)
        # Over as many traced rounds as untraced ones, unless the guard cut the traced phase.
        metrics["trace.overhead_frac"] = (quiet_wall(traced) - untraced_wall) / untraced_wall
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        # Fresh set-ups before every round spread the set-up samples over the run.
        rounds = run_phase(lib, workload, verdicts, planned, guard, messages, before=fresh_setups)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": quiet_wall(rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
    attempted = sum(len(r.seconds) for r in rounds)
    failed = sum(r.failed for r in rounds)
    latency = module_latency(untraced if args.trace else rounds, workload)
    env["samples"] = {
        **workload.samples,
        "fresh_setups": len(setup_times),
        "rounds_planned": share * 2 if args.trace else planned,
        "rounds": len(rounds),
        "traced_rounds": len(rounds) - len(untraced) if args.trace else 0,
    }

    for message in messages:
        print(f"FAIL {message}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"fail_frac {failed / attempted} ratio ({failed} failed / {attempted} attempted ops)")
    if latency is not None:
        print(f"module_p50_ms {latency['module_p50_ms']} ms ({latency['samples']} module ops)")
        print(f"module_p99_ms {latency['module_p99_ms']} ms "
              f"({latency['samples']} module ops, {latency['beyond_p99']} beyond p99)")

    out = root / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "env": env,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": messages,
        "module_latency": latency,
        "setup_s_samples": setup_times,
        "rounds": [
            {"wall": sum(r.seconds), "elapsed": r.elapsed, "cpu": r.cpu,
             "cli_op_seconds": [t for op, t in zip(workload.ops, r.seconds) if isinstance(op, CliOp)]}
            for r in rounds
        ],
    }
    if args.trace:
        record["last_traced_round"] = traced[-1].snapshot
        record["spans"] = {"count": len(tracer.span_name), "dropped": tracer.spans_dropped}
        tracer.write_spans(out / f"spans-{stem}")
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
