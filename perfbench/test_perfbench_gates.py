"""Self-tests of the benchmark: every correctness gate fires, tracing is exact
and leaves output unchanged, and BENCHMARK.json matches the code.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
try:
    import semipath
except ImportError:
    sys.path.insert(0, str(ROOT / "src"))
    import semipath
import semipath.cli  # noqa: E402  (binds semipath.cli for the workloads)

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, load_spans  # noqa: E402
from workloads import (  # noqa: E402
    CliOp,
    ModuleOp,
    ascending_from_zero,
    ok_or_skip,
    run_cli,
    run_op,
)

PAIR = semipath.SemigroupPair(5, 7)


class Tampered:
    """semipath with some attributes replaced."""

    def __init__(self, **overrides):
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(semipath, name)


def digest_of(argv):
    result, _ = run_cli(semipath, CliOp(argv), {})
    assert result.failures == []
    return result.fingerprint[1]


def test_stream_gates_pass_then_fire_on_corrupted_expectations():
    argv = ["enumerate", "5", "7"]
    good = CliOp(argv, semipath.count_lean_sets_total(PAIR), digest_of(argv), ascending_from_zero)
    assert run_cli(semipath, good, {})[0].failures == []
    bad_sha = CliOp(argv, good.expect_lines, "0" * 64, ascending_from_zero)
    bad_count = CliOp(argv, good.expect_lines + 1, good.expect_sha, ascending_from_zero)
    for op in (bad_sha, bad_count):
        assert len(run_cli(semipath, op, {})[0].failures) == 1
    verdicts = {}
    assert run_cli(semipath, good, verdicts)[0].failures == []  # gated, verdict kept
    assert run_cli(semipath, good, verdicts)[0].failures == []  # same digest, same verdict
    verdicts[good.label] = ("another digest", None)
    assert "first output" in run_cli(semipath, good, verdicts)[0].failures[0]


def test_line_gates_fire():
    assert ascending_from_zero([b"0\n0,", b"3,8\n"]) is None
    assert ascending_from_zero([b"0,8,3\n"]) is not None
    assert ascending_from_zero([b"1,3"]) is not None
    assert ok_or_skip([b"ok   a: x\nsk", b"ip b: y\n"]) is None
    assert ok_or_skip([b"ok   a: x\nFAIL b: y\n"]) is not None
    assert ok_or_skip([]) is not None


def test_nonzero_exit_and_bad_flags_fail_the_op():
    for argv in (["enumerate", "4", "6"], ["enumerate", "5", "7", "--no-such-flag"]):
        result = run_op(semipath, CliOp(argv), {}, {}, 0)
        assert result.failures and result.failures[0].startswith("exit code 2")


def test_verify_op_passes():
    assert run_cli(semipath, CliOp(["verify", "5", "7"], line_gate=ok_or_skip), {})[0].failures == []


def _produced():
    result, lines = run_cli(semipath, CliOp(["enumerate", "5", "7", "--gens", "4", "--json"], keep_lines=True), {})
    assert result.failures == [] and len(lines) == 20
    return {0: lines}


def test_module_gates_pass_then_fire():
    produced = _produced()
    op = ModuleOp(source=0, line=3, k=6, gens=4)  # every (5,7) 4-generator module has period 4
    assert run_op(semipath, op, produced, {}, 4).failures == []

    def one_step_too_many(semigroup, module, times):
        return semipath.iterated_syzygy(semigroup, module, times + 1)

    def wrong_period(semigroup, module):
        report = semipath.syzygy_period(semigroup, module)
        return semipath.OrbitReport(report.n, 3, report.cycle[:3])

    cases = [
        (Tampered(iterated_syzygy=one_step_too_many), op, produced),
        (Tampered(syzygy_period=wrong_period), ModuleOp(0, 3, 12, 4), produced),  # 12 % 3 == 12 % 4
        (semipath, ModuleOp(0, 3, 6, gens=5), produced),
        (semipath, op, {0: [json.dumps(json.loads(produced[0][3])).encode()]}),  # spaced JSON
        (semipath, op, {0: [b"not json"]}),  # raises inside the op
        (semipath, ModuleOp(0, 99, 6, 4), produced),  # the producer wrote fewer lines
    ]
    for lib, module_op, lines in cases:
        assert len(run_op(lib, module_op, lines, {}, 4).failures) == 1


def test_traced_output_differing_from_untraced_counts_as_failure():
    workload = types.SimpleNamespace(ops=[CliOp(["gaps", "5", "7"])])
    first = run.run_round(semipath, workload, {}, None, None, [])
    assert first.failed == 0
    assert run.run_round(semipath, workload, {}, None, first.fingerprints, []).failed == 0
    messages = []
    assert run.run_round(semipath, workload, {}, None, [(0, "another digest")], messages).failed == 1
    assert "traced output differs" in messages[0]


def test_tracer_self_time_counts_and_restore(tmp_path, monkeypatch):
    toy = types.ModuleType("toypkg")
    exec(
        "import time\n"
        "def inner():\n    time.sleep(0.01)\n    return 1\n"
        "def outer():\n    time.sleep(0.02)\n    return inner() + inner()\n"
        "def hot(x):\n    return x\n"
        "def items(n):\n    yield from range(n)\n",
        toy.__dict__,
    )
    monkeypatch.setitem(sys.modules, "toypkg", toy)
    originals = dict(vars(toy))
    tracer = Tracer(span_cap=2)
    replacements = {
        toy.inner: tracer.timed("toy.inner", toy.inner),
        toy.outer: tracer.timed("toy.outer", toy.outer),
        toy.hot: tracer.counted("toy.hot", toy.hot),
        toy.items: tracer.timed("toy.items", toy.items),
    }
    tracer.install("toypkg", replacements, [])
    try:
        assert toy.outer() == 2 and toy.hot(5) == 5 and list(toy.items(4)) == [0, 1, 2, 3]
    finally:
        tracer.uninstall()
    assert all(vars(toy)[name] is originals[name] for name in ("inner", "outer", "hot", "items"))
    snap = tracer.snapshot()
    assert snap["toy.outer.calls"] == 1 and snap["toy.inner.calls"] == 2 and snap["toy.hot.calls"] == 1
    assert snap["toy.items.items"] == 4 and snap["toy.items.calls"] == 5  # the last next stops
    assert snap["toy.outer.self_s"] == pytest.approx(snap["toy.outer.total_s"] - snap["toy.inner.total_s"])
    assert 0.015 < snap["toy.outer.self_s"] < snap["toy.outer.total_s"]
    tracer.write_spans(tmp_path / "spans")
    names, spans = load_spans(tmp_path / "spans")
    assert tracer.spans_dropped == 1  # cap 2: outer and the first inner are kept
    assert [names[i] for i in spans["name"]] == ["toy.outer", "toy.inner"]
    assert list(spans["parent"]) == [-1, 0]
    assert all(end > start for start, end in zip(spans["start"], spans["end"]))


def test_instrumented_semipath_gives_identical_output():
    ops = [CliOp(["enumerate", "5", "7", "--gens", "4", "--json"], keep_lines=True),
           CliOp(["orbits", "5", "7", "--gens", "4", "--brute"]),
           CliOp(["verify", "5", "7", "--deep"], line_gate=ok_or_skip),
           ModuleOp(0, 3, 6, 4)]
    workload = types.SimpleNamespace(ops=ops)
    bindings = {(m, name): getattr(m, name) for m in (semipath, semipath.syzygies, semipath.cli)
                for name in vars(m) if not name.startswith("__")}
    untraced = run.run_round(semipath, workload, {}, None, None, [])
    tracer = Tracer()
    layers.instrument(tracer, semipath)
    try:
        assert semipath.syzygy is not bindings[(semipath, "syzygy")]
        traced = run.run_round(semipath, workload, {}, tracer, untraced.fingerprints, [])
    finally:
        tracer.uninstall()
    assert all(getattr(m, name) is value for (m, name), value in bindings.items())
    assert untraced.failed == 0 and traced.failed == 0
    metrics = layers.layer_metrics(tracer.snapshot())
    for name in ("cli.main.lines_out", "semigroup.is_member.calls", "semimodules.Semimodule.construct.calls",
                 "syzygies.syzygy_oracle.calls", "paths.admissible_rotation.calls",
                 "verify.check_periods.self_s", "verify.brute_period_tally.self_s"):
        assert metrics[name] > 0, name
    assert metrics["syzygies.iterated_syzygy.steps_per_k"] == 1.0


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_runner_refuses_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "stream",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
