"""Spans and work counters around udbi's layers, installed from outside.

`Tracer.install` replaces each public function named in LAYERS at every
place a `udbi` module binds it (``udbi.pwdb.compatibility_graph`` and also
``udbi.probcalc.compatibility_graph``, ``udbi.cli.compatibility_graph``), so
nested calls nest as spans.  A span is (name, op id, parent span, start ns,
end ns, raised); spans stay in memory until `dump`.  Self time is a span's
duration minus the durations of its direct children.

`logic.evaluate` and `logic.iter_vars` run millions of times per op, so they
are not wrapped: their time stays in the caller's self time, and
`logic.evaluations` counts them as 2^n * rows over `expand_pr` calls.
`unionfind` and `errors` are charged to their callers.  `gen` is not used:
set-up builds its instances with the benchmark's own generator, before
tracing starts.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
from collections import Counter
from time import perf_counter_ns


def _load_document(counts, args, result):
    counts["documents.load_document.bytes_in"] += os.path.getsize(args[0])


def _integrate_pr(counts, args, result):
    counts["prdb.integrate_pr.rows_out"] += len(result.rows)
    counts["prdb.integrate_pr.constraints_out"] += len(result.constraints)


def _expand_pr(counts, args, result):
    rel = args[0]
    assignments = 1 << len(rel.variables())
    counts["prdb.expand_pr.assignments"] += assignments
    counts["prdb.expand_pr.worlds_out"] += len(result[0].worlds)
    counts["logic.evaluations"] += assignments * len(rel.rows)


def _compatibility_graph(counts, args, result):
    counts["pwdb.compatibility_graph.pairs_scanned"] += result.n_left * result.n_right
    counts["pwdb.compatibility_graph.edges"] += len(result.edges)
    counts["pwdb.compatibility_graph.components"] += len(result.components)


def _integrate_pw_prob(counts, args, result):
    counts["pwdb.integrate_pw_prob.worlds_out"] += len(result.worlds)


def _partition(counts, args, result):
    counts["decompose.partition.free_groups"] += len(result.free_groups)


def _enumerate_pairs(counts, args, result):
    counts["decompose.enumerate_pairs.pairs_out"] += len(result)


# Wrapped functions, each with the counter hook that reads its arguments and
# result, or None.
LAYERS = {
    "cli.main": None,
    "documents.load_document": _load_document,
    "documents.document_of": None,
    "logic.parse_formula": None,
    "logic.to_text": None,
    "prdb.integrate_pr": _integrate_pr,
    "prdb.expand_pr": _expand_pr,
    "pwdb.compatibility_graph": _compatibility_graph,
    "pwdb.check_prob_constraints": None,
    "pwdb.integrate_pw_prob": _integrate_pw_prob,
    "pwdb.validate_udb": None,
    "decompose.partition": _partition,
    "decompose.build_pair": None,
    "decompose.enumerate_pairs": _enumerate_pairs,
    "probcalc.epr_distribution": None,
    "probcalc.cross_check": None,
}

_UNITS = {"self_ms": "ms", "bytes_in": "bytes", "yield": "ratio"}

# Reported per-layer metrics, in output order.
METRICS = [
    f"{layer}.{stat}"
    for layer, stats in [
        ("cli.main", ["self_ms"]),
        ("documents.load_document", ["self_ms", "calls", "bytes_in"]),
        ("documents.document_of", ["self_ms", "calls"]),
        ("logic.parse_formula", ["self_ms", "calls"]),
        ("logic.to_text", ["self_ms", "calls"]),
        ("logic", ["evaluations"]),
        ("prdb.integrate_pr", ["self_ms", "calls", "rows_out", "constraints_out"]),
        ("prdb.expand_pr", ["self_ms", "calls", "assignments", "worlds_out", "yield"]),
        (
            "pwdb.compatibility_graph",
            ["self_ms", "calls", "pairs_scanned", "edges", "components", "yield"],
        ),
        ("pwdb.check_prob_constraints", ["self_ms", "calls"]),
        ("pwdb.integrate_pw_prob", ["self_ms", "calls", "worlds_out"]),
        ("pwdb.validate_udb", ["calls"]),
        ("decompose.partition", ["self_ms", "calls", "free_groups"]),
        ("decompose.build_pair", ["self_ms", "calls"]),
        ("decompose.enumerate_pairs", ["self_ms", "calls", "pairs_out", "errors"]),
        ("probcalc.epr_distribution", ["self_ms", "calls"]),
        ("probcalc.cross_check", ["self_ms", "calls"]),
    ]
    for stat in stats
]

# yield = numerator / denominator, both totals over the run.
_YIELDS = {
    "prdb.expand_pr.yield": ("prdb.expand_pr.worlds_out", "prdb.expand_pr.assignments"),
    "pwdb.compatibility_graph.yield": (
        "pwdb.compatibility_graph.edges",
        "pwdb.compatibility_graph.pairs_scanned",
    ),
}


def unit(metric: str) -> str:
    return _UNITS.get(metric.rsplit(".", 1)[1], "count")


class Tracer:
    """Records spans and counters while installed; `op` tags new spans."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._sites: list = []

    def install(self) -> None:
        originals = {}
        for name in LAYERS:
            module, func = name.split(".")
            originals[id(getattr(sys.modules[f"udbi.{module}"], func))] = name
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if modname != "udbi" and not modname.startswith("udbi."):
                continue
            for attr, value in list(vars(module).items()):
                name = originals.get(id(value))
                if name is None:
                    continue
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, value, LAYERS[name])
                self._sites.append((module, attr, value))
                setattr(module, attr, wrappers[name])

    def remove(self) -> None:
        for module, attr, value in self._sites:
            setattr(module, attr, value)
        self._sites.clear()

    def _wrap(self, name: str, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, self.op, parent, start, perf_counter_ns(), True)
                stack.pop()
                raise
            spans[index] = (name, self.op, parent, start, perf_counter_ns(), False)
            stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def summary(self, rounds: int) -> dict[str, float]:
        """Every metric in METRICS, per round (counts) or ms per round (self time)."""
        children = [0] * len(self.spans)
        for name, op, parent, start, end, failed in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals = Counter(self.counts)
        for (name, op, parent, start, end, failed), inner in zip(self.spans, children):
            totals[f"{name}.self_ns"] += end - start - inner
            totals[f"{name}.calls"] += 1
            totals[f"{name}.errors"] += failed
        out = {}
        for metric in METRICS:
            if metric in _YIELDS:
                num, den = (totals[m] for m in _YIELDS[metric])
                out[metric] = num / den if den else 0.0
            elif metric.endswith(".self_ms"):
                out[metric] = totals[metric[: -len("ms")] + "ns"] / 1e6 / rounds
            else:
                out[metric] = totals[metric] / rounds
        return out

    def dump(self, path) -> None:
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for k, (name, op, parent, start, end, failed) in enumerate(self.spans):
                handle.write(json.dumps([k, name, op, parent, start, end, failed]) + "\n")
