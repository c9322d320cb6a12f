"""Run every workload and print every metric by name and unit, checking correctness.

    python3 perfbench/report.py                  # each workload once untraced, once traced
    python3 perfbench/report.py --runs 10        # ten seeds each: medians and spreads
    python3 perfbench/report.py --runs 10 --write perfbench/trajectory/<sha>.json

Every workload runs for BENCHMARK.json's run_seconds, untraced with seeds
1..runs and then traced with seed 1.  Workloads run one after another, each
in its own `run.py` process; nothing runs in parallel.  The spread of a metric is (q3 - q1) / median over the
untraced runs, with quartiles from `statistics.quantiles(values, n=4)`, and
is shown against the metric's bound in BENCHMARK.json.  Exits 1 if any run
fails to report or reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS, repo_root

ROOT = repo_root()
RUNNER = Path(__file__).with_name("run.py")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run.py process; its result line and its results file."""
    argv = [sys.executable, str(RUNNER), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, cwd=ROOT)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}")
    result = json.loads(lines[-1])
    record = json.loads((ROOT / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload, one seed each")
    parser.add_argument("--write", type=Path, default=None, help="write a trajectory entry here")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = range(1, 1 + args.runs)
    entry: dict = {"seconds": seconds, "seeds": list(seeds), "workloads": {}}
    all_correct = True

    for workload in WORKLOADS:
        print(f"== {workload}: {args.runs} untraced run(s) of {seconds:g} s, seeds {seeds.start}..{seeds.stop - 1}")
        runs = []
        for seed in seeds:
            try:
                result, record = run_once(workload, seed, seconds, 0)
            except (RuntimeError, subprocess.TimeoutExpired, ValueError, OSError) as exc:
                print(f"   seed {seed}: no result: {exc}")
                all_correct = False
                continue
            all_correct &= result["correct"]
            runs.append((result, record))
            values = "  ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items())
            print(f"   seed {seed}: {values}  failed {result['failed']}/{result['attempted']}"
                  f"  load1 {record['env']['load1_at_start']:.2f}")
        if not runs:
            continue
        summary = {}
        for name, unit in [(k, v["unit"]) for k, v in runs[0][0]["metrics"].items()]:
            s = summary[name] = spread([r["metrics"][name]["value"] for r, _ in runs])
            print(f"   {name:<12} median {s['median']:.6g} {unit}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.1%} (bound {bounds[name]:.0%})")
        failed = sum(r["failed"] for r, _ in runs)
        attempted = sum(r["attempted"] for r, _ in runs)
        print(f"   fail_frac {failed / attempted} ratio ({failed} failed / {attempted} attempted ops)")
        data = {"summary": summary, "failed": failed, "attempted": attempted,
                "env": runs[0][1]["env"], "loads": [rec["env"]["load1_at_start"] for _, rec in runs]}
        latencies = [rec["module_latency"] for _, rec in runs if rec["module_latency"]]
        if latencies:
            for key in ("module_p50_ms", "module_p99_ms"):
                s = data[key] = spread([lat[key] for lat in latencies])
                print(f"   {key} median {s['median']:.6g} ms  spread {s['spread']:.1%}"
                      f"  ({latencies[0]['samples']} module ops in the first run,"
                      f" {latencies[0]['beyond_p99']} beyond p99)")
        try:
            result, record = run_once(workload, 1, seconds, 1)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, OSError) as exc:
            print(f"   traced run: no result: {exc}")
            all_correct = False
        else:
            all_correct &= result["correct"]
            print(f"   traced run, seed 1: failed {result['failed']}/{result['attempted']}"
                  " (an op fails if its traced output differs from its untraced output)")
            for name, metric in result["metrics"].items():
                print(f"      {name} {metric['value']:.6g} {metric['unit']}")
            data["layers"] = {k: v["value"] for k, v in result["metrics"].items()}
            data["layer_detail"] = record["last_traced_round"]
        entry["workloads"][workload] = data

    if args.write:
        args.write.parent.mkdir(parents=True, exist_ok=True)
        args.write.write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
