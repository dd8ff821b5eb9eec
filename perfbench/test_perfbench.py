"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import METRICS, Tracer, unit  # noqa: E402
from workload import check_ops, run_round  # noqa: E402
from workloads import WORKLOADS, EprExpand, PrMerge, PwJoin, _rng, constraints_match_uniquely  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, seed: int = 5):
    wl = WORKLOADS[name](seed)
    if isinstance(wl, PrMerge):
        wl.rows, wl.shared = 40, 20
    elif isinstance(wl, PwJoin):
        wl.worlds, wl.common, wl.private = 30, 4, 4
    return wl


def files(workdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_documents_and_counts(name, tmp_path):
    layers, docs = [], []
    for k in range(2):
        workdir = tmp_path / str(k)
        workdir.mkdir()
        wl = tiny(name)
        for r in range(wl.cycle):
            wl.write_round(r, workdir)
        docs.append(files(workdir))
        tracer, ops = Tracer(), []
        for r in range(wl.cycle):
            run_round(wl, r, workdir, ops, tracer)
        assert check_ops(wl, ops, workdir) == []
        layers.append({m: v for m, v in tracer.summary(wl.cycle).items() if "self_ms" not in m})
    assert docs[0] == docs[1]
    assert layers[0] == layers[1]
    assert layers[0]["documents.load_document.calls"] > 0

    other = tmp_path / "other"
    other.mkdir()
    tiny(name, seed=6).write_round(0, other)
    assert all(body != docs[0][doc] for doc, body in files(other).items())


def test_tracing_leaves_the_program_as_it_found_it(tmp_path):
    import udbi.cli
    import udbi.probcalc
    import udbi.pwdb

    before = (udbi.cli.main, udbi.pwdb.compatibility_graph, udbi.probcalc.compatibility_graph)
    wl = tiny("epr_expand")
    wl.write_round(0, tmp_path)
    tracer = Tracer()
    run_round(wl, 0, tmp_path, [], tracer)
    after = (udbi.cli.main, udbi.pwdb.compatibility_graph, udbi.probcalc.compatibility_graph)
    assert after == before
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "probcalc.epr_distribution", "pwdb.compatibility_graph"} <= names
    # Nested calls nest: the graph built inside epr_distribution has it as an ancestor.
    parents = {k: span[2] for k, span in enumerate(tracer.spans)}
    graph = next(k for k, s in enumerate(tracer.spans) if s[0] == "pwdb.compatibility_graph")
    chain = []
    while graph >= 0:
        chain.append(tracer.spans[graph][0])
        graph = parents[graph]
    assert chain[-1] == "cli.main" and "probcalc.epr_distribution" in chain


def _corrupt_pr(wl):
    sources = wl._sources
    wl._sources = lambda r: _flip_event(*sources(r))


def _flip_event(a, b):
    a["rows"][0]["event"] = "!(" + a["rows"][0]["event"] + ")"
    return a, b


def _corrupt_pw(wl):
    pair = wl._pair

    def corrupted(r, command):
        left, right, scenarios = pair(r, command)
        scenarios[0][3] /= 2
        return left, right, scenarios

    wl._pair = corrupted


def _corrupt_epr(wl):
    instance = wl._instance

    def corrupted(r, command):
        left, right, a, q = instance(r, command)
        worlds = left["worlds"]
        j = next(k for k, w in enumerate(worlds) if w["prob"] != worlds[0]["prob"])
        worlds[0]["prob"], worlds[j]["prob"] = worlds[j]["prob"], worlds[0]["prob"]
        q["rows"].pop()
        return left, right, a, q

    wl._instance = corrupted


@pytest.mark.parametrize(
    "name, corrupt",
    [("pr_merge", _corrupt_pr), ("pw_join", _corrupt_pw), ("epr_expand", _corrupt_epr)],
)
def test_a_corrupted_reference_is_a_counted_failure(name, corrupt, tmp_path):
    wl = tiny(name)
    wl.write_round(0, tmp_path)
    ops: list = []
    run_round(wl, 0, tmp_path, ops)
    corrupt(wl)
    problems = check_ops(wl, ops, tmp_path)
    summary = run.summarize(ops)
    assert problems and all("MISMATCH" in p for p in problems)
    assert summary["correct"] is False
    assert summary["failed"] == len(problems) >= 1


def test_a_failing_exit_code_is_counted(tmp_path):
    wl = tiny("pr_merge")
    wl.write_round(0, tmp_path)
    (tmp_path / "r0000-b.json").write_text('{"model": "pr", "rows": 3}')
    ops: list = []
    run_round(wl, 0, tmp_path, ops)
    check_ops(wl, ops, tmp_path)
    assert [op[2] for op in ops] == [2, 2]
    assert run.summarize(ops) == {"correct": True, "attempted": 2, "failed": 2}


FOURTEEN = ["setup_s", "setup_raw_s", "ops_per_s", "failed_ratio", "peak_rss_mb"] + [
    f"{c}_{kind}" for c in run.COMMANDS for kind in ("ms", "tail_ms")
]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_end_to_end_metric_is_printed_with_its_unit(name):
    commands = WORKLOADS[name].commands
    ops = [[r, c, 0, 0.01 * (1 + r % 3), False, 0.02] for r in range(12) for c in commands]
    run_doc = {"ops": ops, "peak_rss_mb": 20.0}
    probes = {"probed": 0.5, "speed": 2 * run.REF_PROBE_S}
    setups = [(0.0, {"ready": t, "setup_probes": probes}) for t in (1.5, 2.5, 3.5)]
    metrics, lines = run.end_to_end(setups, run_doc, WORKLOADS[name])
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for m in BENCHMARK["end_to_end"]:
        assert metrics[m["name"]][1] == m["unit"]
        assert metrics[m["name"]][0] > 0
    assert metrics["setup_s"][0] == 1.0  # (2.5 - 0.5) s at half the reference speed
    printed = dict(m.groups() for m in map(re.compile(r"(\S+) = \S+ (\S+)").match, lines) if m)
    applies = [m for m in FOURTEEN if m.split("_")[0] not in run.COMMANDS or m.split("_")[0] in commands]
    assert len(applies) == 5 + 2 * len(commands)
    for metric in applies:
        assert printed[metric] in {"s", "ms", "1/s", "MB", "ratio"}, metric
    assert metrics["round_cost"][0] == pytest.approx(len(commands) * 0.02 / 0.02)
    assert any("(p16.7 of 12 samples, 10 beyond)" in line for line in lines)


def test_per_layer_metrics_match_the_benchmark_file():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == METRICS + ["trace.overhead"]
    for m in BENCHMARK["per_layer"][:-1]:
        assert m["unit"] == unit(m["name"])


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(11))) == (0, 100 / 11)
    assert run.tail(list(range(100))) == (89, 90.0)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pr_merge", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_epr_instances_with_ambiguous_constraints_are_redrawn():
    # Seed 18's round 9 `check` instance is ambiguous on its first draw.
    wl = EprExpand(18)
    first = wl._draw(_rng(18, wl.name, 9, "check"), 9)[3]
    assert not constraints_match_uniquely(first)
    q = wl._instance(9, "check")[3]
    assert constraints_match_uniquely(q)
    assert wl.redrawn[(9, "check")] == 1
    assert wl.notes()[0].startswith("1 of 2 drawn instances redrawn")
