"""Fixed-seed benchmark of the udbi CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload pr_merge --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one after another

Run from the root of a checkout.  Each workload runs in its own process
(perfbench/workload.py), so peak memory is per workload, after SETUP_REPS - 1
set-up-only processes that give `setup_s` its median.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones in BENCHMARK.json, with
--trace 1 the per-layer ones.  Every metric is also printed above it, with
its unit, together with the per-command figures.  Exits non-zero without a
result when the program or a workload process cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import unit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 3
TIME_LIMIT_S = 170
COMMANDS = ("integrate", "prob", "check", "decompose", "expand")
TAIL_BEYOND = 10
# `setup_s` is set-up time at the speed where a probe loop takes this long,
# about the full speed of a 2-vCPU x86 VM with Python 3.11.
REF_PROBE_S = 100e-6
# A fixed string-hash seed takes one source of run-to-run variation out:
# dict and set layouts in the program no longer differ between processes.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


def _spawn(args, workdir: Path, extra: list[str], deadline: float) -> tuple[float, dict]:
    """Run one workload process; return (its start time, its JSON result)."""
    workdir.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ] + extra
    try:
        spawned = time.monotonic()
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=CHILD_ENV,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{args.workload} process exited {proc.returncode}")
    return spawned, json.loads(lines[-1])


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    return sorted(samples)[n - TAIL_BEYOND - 1], 100 * (n - TAIL_BEYOND) / n


def cost(op) -> float:
    """An op's time in probe loops, at the mean speed its probes measured."""
    return op[3] / op[5]


def setup_seconds(spawned: float, res: dict) -> tuple[float, float]:
    """(raw seconds, seconds at REF_PROBE_S speed) from process start to ready."""
    raw = res["ready"] - spawned
    probes = res["setup_probes"]
    return raw, (raw - probes["probed"]) * REF_PROBE_S / probes["speed"]


def end_to_end(setups: list, run: dict, wl) -> tuple[dict, list[str]]:
    """End-to-end metrics {name: (value, unit)} and every printed line.

    `setups` holds (spawn time, result) for each set-up.
    """
    raw_setups, setups = zip(*(setup_seconds(*s) for s in setups))
    ops = [op for op in run["ops"] if not op[4]]
    ok = [op for op in ops if op[2] == 0]
    probe = statistics.median(op[5] for op in ops)
    rounds: dict[int, list] = {}
    for op in ops:
        rounds.setdefault(op[0], []).append(op)
    # Per complete cycle of successful rounds: (seconds, cost) per round.
    per_cycle: dict[int, list] = {}
    for r, rs in rounds.items():
        if len(rs) == len(wl.commands) and all(op[2] == 0 for op in rs):
            per_cycle.setdefault(r // wl.cycle, []).append(
                (sum(op[3] for op in rs), sum(cost(op) for op in rs))
            )
    cycles = [c for c in per_cycle.values() if len(c) == wl.cycle]
    round_s = statistics.median(sum(s for s, _ in c) / wl.cycle for c in cycles)
    round_cost = statistics.median(sum(k for _, k in c) / wl.cycle for c in cycles)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "round_cost": (round_cost, "probe"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    lines = [f"{name} = {value:.6g} {u}" for name, (value, u) in metrics.items()]
    failed = len(ops) - len(ok)
    lines += [
        f"round_ms = {1e3 * round_s:.3f} ms (median over {len(cycles)} cycles of {wl.cycle} rounds)",
        f"probe_us = {1e6 * probe:.3f} us (median of {len(ops)} op means)",
        f"setup_raw_s = {statistics.median(raw_setups):.4f} s (median of {len(raw_setups)})",
        f"ops_per_s = {len(ok) / sum(op[3] for op in ops):.6g} 1/s",
        f"failed_ratio = {failed / len(ops):.4f} ratio ({failed} of {len(ops)} ops)",
    ]
    for command in COMMANDS:
        samples = [1e3 * op[3] for op in ok if op[1] == command]
        if not samples:
            continue
        costs = [cost(op) for op in ok if op[1] == command]
        lines.append(
            f"{command}_ms = {statistics.median(samples):.3f} ms (median of {len(samples)}; "
            f"{statistics.median(costs):.1f} probe)"
        )
        t = tail(samples)
        if t is not None:
            lines.append(
                f"{command}_tail_ms = {t[0]:.3f} ms (p{t[1]:.1f} of {len(samples)} samples, "
                f"{TAIL_BEYOND} beyond)"
            )
        else:
            lines.append(
                f"{command}_tail_ms: not reported, {len(samples)} samples "
                f"(needs more than {TAIL_BEYOND})"
            )
    return metrics, lines


def run_workload(args) -> tuple[dict, dict]:
    """Set up SETUP_REPS times, run the workload once; return (summary, metrics)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    base = ROOT / ".perfbench_work"
    tag = f"{args.workload}-{args.seed}-{time.time_ns()}"
    setups = []
    for rep in range(SETUP_REPS - 1):
        spawned, res = _spawn(args, base / f"{tag}-setup{rep}", ["--setup-only"], deadline)
        setups.append((spawned, res))
    extra = []
    if args.trace:
        spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        spans.parent.mkdir(exist_ok=True)
        extra = ["--spans", str(spans)]
    spawned, run = _spawn(args, base / tag, extra, deadline)
    setups.append((spawned, run))

    wl = WORKLOADS[args.workload]
    for problem in run["problems"]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    ops = run["ops"]
    print(f"== {args.workload} (seed {args.seed}): {wl.why}")
    for note in run["notes"]:
        print(f"{args.workload}: {note}")
    if args.trace:
        traced = [op for op in ops if op[4]]
        untraced = [op for op in ops if not op[4]]
        overhead = sum(map(cost, traced)) / sum(map(cost, untraced))
        print(
            f"tracing overhead: traced op time {sum(op[3] for op in traced):.3f} s over "
            f"{len(traced)} ops, untraced {sum(op[3] for op in untraced):.3f} s over "
            f"{len(untraced)} ops; in probe cost {overhead:.3f}x"
        )
        metrics = {m: (v, unit(m)) for m, v in run["layers"].items()}
        metrics["trace.overhead"] = (overhead, "ratio")
        print("per-layer figures are per round (one run of each command)")
        lines = [f"{name} = {value:.6g} {u}" for name, (value, u) in metrics.items()]
    else:
        metrics, lines = end_to_end(setups, run, wl)
    print("\n".join(lines))
    return summarize(ops), metrics


def summarize(ops: list) -> dict:
    """correct: no output mismatched; failed: ops that exited non-zero or mismatched."""
    return {
        "correct": not any(op[2] == "mismatch" for op in ops),
        "attempted": len(ops),
        "failed": sum(op[2] != 0 for op in ops),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "udbi" / "cli.py").is_file():
        print(f"error: no udbi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        args.workload = name
        try:
            summary, metrics = run_workload(args)
        except (RuntimeError, subprocess.TimeoutExpired, statistics.StatisticsError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        total["correct"] &= summary["correct"]
        total["attempted"] += summary["attempted"]
        total["failed"] += summary["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, (value, u) in metrics.items():
            total["metrics"][prefix + metric] = {"value": value, "unit": u}
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
