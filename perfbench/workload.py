"""One workload in one process: set-up, the timed phase, then output checks.

Started by run.py; prints one JSON object on its last stdout line.  Set-up
imports `udbi` from the checkout's src/, writes the documents of as many
rounds as a run needs at today's speed (`rounds_per_s`) and collects garbage.
The timed phase is a single client in a closed loop: each op is one
in-process `udbi.cli.main(argv)` call with `--out`, timed alone, with
garbage collected before it and no other thread running.  Set-up and
every op are `Probed`: speed probes run around and during them.

Untraced, rounds run until `--seconds` have passed (and the workload's cycle
is complete).  Rounds beyond those written in set-up are generated between
ops, outside every timed interval.  Traced, a fixed number of cycles runs so
that counts repeat exactly; even cycles are traced and odd ones are not,
which gives the tracing overhead on the same process and input sizes.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# Seconds between speed probes during an op.
PROBE_INTERVAL_S = 0.05
_PROBE_KEYS = {(i, str(i)): i for i in range(64)}


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def probe() -> float:
    """Seconds one fixed pure-Python loop (about 0.2 ms) of dict, tuple and set work takes.

    On a shared or virtualised host the CPU speed a process gets can change
    by 2x within seconds.  Probes taken before, during and after an op
    measure the speed the op ran at; the loop never touches `udbi`.
    """
    start = time.perf_counter()
    total = 0
    for i in range(150):
        total += _PROBE_KEYS[(i & 63, str(i & 63))] + len(frozenset((i & 7, i & 3)))
    return time.perf_counter() - start


class Probed:
    """Times a stretch of work and measures the speed it ran at.

    Three probes run just before and three just after it, and a SIGALRM
    timer runs one every PROBE_INTERVAL_S during it (in this thread, between
    bytecodes).  `seconds` excludes the probes that ran inside the stretch;
    `probed` is their time, `speed` the mean time of all its probes.
    """

    def __enter__(self) -> "Probed":
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, lambda signum, frame: self.samples.append(probe()))
        self.before = [probe() for _ in range(3)]
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.probed = sum(self.samples)
        self.seconds = time.perf_counter() - self.start - self.probed
        after = [probe() for _ in range(3)]
        self.speed = statistics.mean(self.before + self.samples + after)


def run_round(wl, r: int, workdir: Path, ops: list, tracer=None) -> None:
    """Run each command of round r once, each op `Probed`.

    Appends [round, command, exit code, seconds, traced, mean probe seconds]
    to ops.
    """
    import udbi.cli

    if tracer is not None:
        tracer.install()
    try:
        for command in wl.commands:
            argv = wl.argv(r, command, workdir)
            gc.collect()
            if tracer is not None:
                tracer.op = len(ops)
            with Probed() as op:
                try:
                    code = udbi.cli.main(argv)
                except Exception as err:  # a crash is a counted failure, not the end of the run
                    code = f"{type(err).__name__}: {err}"
            ops.append([r, command, code, op.seconds, tracer is not None, op.speed])
    finally:
        if tracer is not None:
            tracer.remove()


def check_ops(wl, ops: list, workdir: Path) -> list[str]:
    """Check every op's output; mark a wrong one's exit as "mismatch"; list the problems."""
    problems = []
    for op in ops:
        r, command, code = op[:3]
        if code != 0:
            problems.append(f"round {r} {command}: exit {code}")
            continue
        try:
            wrong = wl.check(r, command, workdir)
        except Exception as err:
            wrong = f"output unreadable: {type(err).__name__}: {err}"
        if wrong:
            problems.append(f"round {r} {command}: MISMATCH {wrong}")
            op[2] = "mismatch"
    return problems


def main(argv=None) -> int:
    args = _args(argv)
    with Probed() as setup:
        src = HERE.parent / "src"
        sys.path.insert(0, str(src))
        import udbi.cli

        if not Path(udbi.cli.__file__).resolve().is_relative_to(src.resolve()):
            raise SystemExit(f"imported udbi from {udbi.cli.__file__}, not from {src}")
        wl = WORKLOADS[args.workload](args.seed)
        if args.trace:
            rounds = 2 * wl.traced_cycles * wl.cycle
        else:
            rounds = wl.cycle * math.ceil(args.seconds * wl.rounds_per_s / wl.cycle)
        for r in range(rounds):
            wl.write_round(r, args.workdir)
        gc.collect()
        ready = time.monotonic()
    # Probe time inside the process-start-to-ready interval run.py measures.
    setup_probes = {"probed": sum(setup.before) + setup.probed, "speed": setup.speed}
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_probes": setup_probes}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    ops: list = []
    traced_rounds = 0
    began = time.monotonic()
    r = 0
    while True:
        traced = False
        if args.trace:
            if r == rounds:
                break
            traced = (r // wl.cycle) % 2 == 0
            traced_rounds += traced
        else:
            if r % wl.cycle == 0 and time.monotonic() - began >= args.seconds:
                break
            if r >= rounds:
                wl.write_round(r, args.workdir)
        run_round(wl, r, args.workdir, ops, tracer if traced else None)
        r += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = check_ops(wl, ops, args.workdir)

    result = {
        "ready": ready,
        "setup_probes": setup_probes,
        "ops": ops,
        "peak_rss_mb": peak_rss_mb,
        "problems": problems,
        "notes": wl.notes(),
    }
    if tracer is not None:
        result["layers"] = tracer.summary(traced_rounds)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
