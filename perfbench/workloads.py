"""Seeded inputs, command scripts and output checks for the three workloads.

Every workload is a sequence of rounds.  A round runs each of the workload's
commands once, and every command in every round reads input documents that
no other command reads, so an in-process cache cannot turn a repeated read
into a hit.  Inputs are a pure function of (seed, round), which lets the
checks regenerate what they need after the timed phase instead of keeping it
in memory.

Checks take a different route from the command they check: text-level
integration of documents for `pr`, a closed form over trace classes for
`pw`, and `integrate_pw_prob` on the original worlds for `epr`.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:::[A-Za-z_][A-Za-z0-9_]*)*")


def _rng(seed: int, workload: str, *parts) -> random.Random:
    return random.Random(":".join(map(str, (seed, workload) + parts)))


def _prob(rng: random.Random) -> Fraction:
    den = rng.randint(2, 12)
    return Fraction(rng.randint(1, den - 1), den)


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def _read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _world_probs(doc: dict) -> dict:
    """A pw document as {frozenset of tuples: Fraction}."""
    tuples = [tuple(t) for t in doc["tuples"]]
    return {
        frozenset(tuples[k] for k in w["tuples"]): Fraction(w["prob"])
        for w in doc["worlds"]
    }


def integrate_docs(r: dict, s: dict) -> dict:
    """The epr document `integrate_pr` must produce from pr documents r and s.

    Works on document text alone, so it shares no code with the program.
    Private tuples keep their event; a common tuple keeps s's event and adds
    the constraint r-event = s-event.  The variable sets must be disjoint,
    which every pair this benchmark builds or decomposes satisfies; on a
    collision `integrate_pr` renames and this function reports a mismatch.
    """
    if _variables(r) & _variables(s):
        raise ValueError("pair sides share variable names")
    left = {tuple(row["tuple"]): row["event"] for row in r["rows"]}
    right = {tuple(row["tuple"]): row["event"] for row in s["rows"]}
    rows, constraints = [], []
    for t in sorted(set(left) | set(right)):
        rows.append({"tuple": list(t), "event": right.get(t, left.get(t))})
        if t in left and t in right:
            constraints.append({"lhs": left[t], "rhs": right[t]})
    doc = {"model": "epr", "rows": rows, "constraints": constraints}
    if "var_probs" in r or "var_probs" in s:
        merged = {**r.get("var_probs", {}), **s.get("var_probs", {})}
        doc["var_probs"] = {name: merged[name] for name in sorted(merged)}
    return doc


def canonical(q: dict):
    """An epr document up to which source each pair side came from.

    Decomposition may return the pair in either order, and then integration
    flips each constraint and keeps the other source's event on the common
    tuple.  So each constrained tuple maps to the unordered pair of its
    constraint's sides, the way the program's own tests compare relations.
    """
    first: dict[str, int] = {}
    for k, row in enumerate(q["rows"]):
        first.setdefault(row["event"], k)
    key = [row["event"] for row in q["rows"]]
    for c in q["constraints"]:
        hits = [first[e] for e in (c["lhs"], c["rhs"]) if e in first]
        if not hits:
            return None
        key[min(hits)] = frozenset((c["lhs"], c["rhs"]))
    rows = sorted((tuple(row["tuple"]), k) for row, k in zip(q["rows"], key))
    return rows, q.get("var_probs")


def _names(text: str) -> set[str]:
    return set(_NAME.findall(text)) - {"true", "false"}


def _variables(doc: dict) -> set[str]:
    names = set()
    for row in doc["rows"]:
        names |= _names(row["event"])
    for c in doc.get("constraints", ()):
        names |= _names(c["lhs"]) | _names(c["rhs"])
    return names


def free_group_count(q: dict) -> int:
    """Variable groups of an epr document that no constraint touches."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    texts = [row["event"] for row in q["rows"]]
    texts += [c[side] for c in q["constraints"] for side in ("lhs", "rhs")]
    for text in texts:
        names = sorted(_names(text))
        for name in names:
            parent[find(name)] = find(names[0])
    touched = {
        find(name)
        for c in q["constraints"]
        for name in _names(c["lhs"]) | _names(c["rhs"])
    }
    return len({find(name) for name in parent} - touched)


def constraints_match_uniquely(q: dict) -> bool:
    """Recognition's condition 3 on document text: each constraint's sides
    together match exactly one row's event."""
    events: dict[str, int] = {}
    for row in q["rows"]:
        events[row["event"]] = events.get(row["event"], 0) + 1
    return all(
        events.get(c["lhs"], 0) + (c["rhs"] != c["lhs"]) * events.get(c["rhs"], 0) == 1
        for c in q["constraints"]
    )


class Workload:
    """One workload: its commands, its per-round inputs and its checks."""

    name = ""
    why = ""
    commands: tuple[str, ...] = ()
    # A timed run stops only after a multiple of this many rounds.
    cycle = 1
    # Rounds per second reached at the parent commit on a 2-core x86 machine
    # with Python 3.11, with headroom: how many rounds set-up writes.
    rounds_per_s = 1.0
    # Cycles a traced run traces, and as many it runs untraced in between.
    traced_cycles = 3

    def __init__(self, seed: int):
        self.seed = seed

    def write_round(self, r: int, workdir: Path) -> None:
        raise NotImplementedError

    def notes(self) -> list[str]:
        """Lines about the inputs drawn so far, printed with the results."""
        return []

    def argv(self, r: int, command: str, workdir: Path) -> list[str]:
        raise NotImplementedError

    def check(self, r: int, command: str, workdir: Path) -> str | None:
        """None when the command's output is right, else what is wrong."""
        raise NotImplementedError

    def _path(self, workdir: Path, r: int, label: str) -> Path:
        return workdir / f"r{r:04d}-{label}.json"


# --- pr_merge --------------------------------------------------------------------

_CHAIN_OPS = ("&", "|")


class PrMerge(Workload):
    name = "pr_merge"
    why = (
        "large pr merge then linear-size decompose: documents, formula parse/print, "
        "integrate_pr and build_pair; no expansion and no pwdb"
    )
    commands = ("integrate", "decompose")
    rounds_per_s = 0.4
    rows = 5_000  # per source
    shared = 2_500  # tuples both sources hold

    def _sources(self, r: int) -> tuple[dict, dict]:
        rng = _rng(self.seed, self.name, r)
        ids = rng.sample(range(10 * self.rows), 2 * self.rows - self.shared)
        tuples = [[f"k{i:06d}", f"g{rng.randrange(97):02d}"] for i in ids]
        left = tuples[: self.rows]
        right = tuples[: self.shared] + tuples[self.rows :]
        return self._source(rng, left, "a"), self._source(rng, right, "b")

    @staticmethod
    def _source(rng: random.Random, tuples, base: str) -> dict:
        """Row k gets a 3-variable chain formula over base(k+1)..base(k+3)."""
        rows = []
        for k, t in enumerate(sorted(tuples)):
            lits = [("!" if rng.random() < 0.3 else "") + f"{base}{k + j}" for j in (1, 2, 3)]
            ops = [rng.choice(_CHAIN_OPS) for _ in range(2)]
            rows.append({"tuple": t, "event": f"{lits[0]} {ops[0]} {lits[1]} {ops[1]} {lits[2]}"})
        names = sorted(f"{base}{k}" for k in range(1, len(tuples) + 3))
        return {
            "model": "pr",
            "rows": rows,
            "var_probs": {name: str(_prob(rng)) for name in names},
        }

    def write_round(self, r, workdir):
        a, b = self._sources(r)
        _write(self._path(workdir, r, "a"), a)
        _write(self._path(workdir, r, "b"), b)

    def argv(self, r, command, workdir):
        q = str(self._path(workdir, r, "q"))
        if command == "integrate":
            a, b = self._path(workdir, r, "a"), self._path(workdir, r, "b")
            return ["integrate", str(a), str(b), "--model", "pr", "--out", q]
        return ["decompose", q, "--out", str(self._path(workdir, r, "pairs"))]

    def check(self, r, command, workdir):
        q = _read(self._path(workdir, r, "q"))
        if command == "integrate":
            if q != integrate_docs(*self._sources(r)):
                return "integrated relation differs from the merge of the sources"
            return None
        pairs = _read(self._path(workdir, r, "pairs"))["pairs"]
        if len(pairs) != 1:
            return f"decompose returned {len(pairs)} pairs, expected 1"
        if canonical(integrate_docs(pairs[0]["r"], pairs[0]["s"])) != canonical(q):
            return "integrating the decomposed pair does not reproduce q"
        return None


# --- consistent possible-worlds pairs ---------------------------------------------

def consistent_pw_pair(
    rng: random.Random, worlds: int, common: int, private: int
) -> tuple[dict, dict, list]:
    """Two pw documents that are marginals of one hidden joint distribution.

    Built the way `udbi.gen.gen_consistent_pw_pair` builds its pairs: draw
    scenarios (shared, left-private, right-private) with per-tuple
    probabilities 0.5, 0.4 and 0.4 and masses from weights 1..9.  A scenario
    is kept only when both its left and its right world are new, so each
    source has exactly `worlds` worlds.  Returns the two documents and the
    scenarios as (trace, left world, right world, mass).
    """
    cpool = [(f"c{i}",) for i in range(common)]
    lpool = [(f"l{i}",) for i in range(private)]
    rpool = [(f"r{i}",) for i in range(private)]
    scenarios, left_seen, right_seen = [], set(), set()
    while len(scenarios) < worlds:
        shared = frozenset(t for t in cpool if rng.random() < 0.5)
        lw = shared | frozenset(t for t in lpool if rng.random() < 0.4)
        rw = shared | frozenset(t for t in rpool if rng.random() < 0.4)
        if lw in left_seen or rw in right_seen:
            continue
        left_seen.add(lw)
        right_seen.add(rw)
        scenarios.append([shared, lw, rw])
    weights = [rng.randint(1, 9) for _ in scenarios]
    total = sum(weights)
    for sc, w in zip(scenarios, weights):
        sc.append(Fraction(w, total))
    left = pw_doc(cpool + lpool, [(lw, p) for _, lw, _, p in scenarios])
    right = pw_doc(cpool + rpool, [(rw, p) for _, _, rw, p in scenarios])
    return left, right, scenarios


def pw_doc(tuples, weighted_worlds) -> dict:
    """A pw document with worlds in canonical (sorted-tuples) order."""
    tuples = sorted(tuples)
    index = {t: k for k, t in enumerate(tuples)}
    ordered = sorted(weighted_worlds, key=lambda e: sorted(e[0]))
    return {
        "model": "pw",
        "tuples": [list(t) for t in tuples],
        "worlds": [
            {"tuples": sorted(index[t] for t in w), "prob": str(p)} for w, p in ordered
        ],
    }


# --- pw_join ----------------------------------------------------------------------


class PwJoin(Workload):
    name = "pw_join"
    why = (
        "1200x1200-world pw integrate and check: pwdb compatibility scan, "
        "union-find and balance check; no formulas and no expansion"
    )
    commands = ("integrate", "check")
    rounds_per_s = 0.6
    worlds = 1_200  # per source
    common = 10  # tuples both sources know
    private = 10  # tuples only one source knows, per source

    def _pair(self, r: int, command: str):
        rng = _rng(self.seed, self.name, r, command)
        return consistent_pw_pair(rng, self.worlds, self.common, self.private)

    def write_round(self, r, workdir):
        for command in self.commands:
            a, b, _ = self._pair(r, command)
            _write(self._path(workdir, r, f"{command}-a"), a)
            _write(self._path(workdir, r, f"{command}-b"), b)

    def argv(self, r, command, workdir):
        a = str(self._path(workdir, r, f"{command}-a"))
        b = str(self._path(workdir, r, f"{command}-b"))
        out = ["--out", str(self._path(workdir, r, f"{command}-out"))]
        if command == "integrate":
            return ["integrate", a, b, "--model", "pw"] + out
        return ["check", a, b] + out

    def check(self, r, command, workdir):
        _, _, scenarios = self._pair(r, command)
        classes: dict = {}
        for trace, lw, rw, p in scenarios:
            cls = classes.setdefault(trace, ([], [], [Fraction(0)]))
            cls[0].append((lw, p))
            cls[1].append((rw, p))
            cls[2][0] += p
        out = _read(self._path(workdir, r, f"{command}-out"))
        if command == "check":
            if out["complete_bipartite"] is not True or out["balanced"] is not True:
                return "check did not report complete-bipartite and balanced"
            if len(out["components"]) != len(classes):
                return f"{len(out['components'])} components, expected {len(classes)}"
            return None
        # P(D u D') = P(D) * P(D') / P(class) for every pair in a trace class.
        expected = {
            lw | rw: pl * pr / mass
            for lefts, rights, (mass,) in classes.values()
            for lw, pl in lefts
            for rw, pr in rights
        }
        if _world_probs(out) != expected:
            return "integrated distribution differs from the closed form"
        return None


# --- epr_expand -------------------------------------------------------------------

_BLOCK_BASES = ("x", "y")


class EprExpand(Workload):
    name = "epr_expand"
    why = (
        "small chain-encoded epr prob/check/decompose --all/expand: 2^n expand_pr, "
        "evaluate and probcalc passes; control for pw_join and pr_merge"
    )
    commands = ("prob", "check", "decompose", "expand")
    # The pool sizes of `udbi.gen.gen_consistent_pw_pair`'s defaults.
    worlds, common, private = 10, 3, 2
    # Each run of three rounds uses 0, 1 and 2 blocks once each, in an order
    # drawn from the seed, so medians do not depend on the number of rounds.
    cycle = 3
    rounds_per_s = 1.5
    traced_cycles = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        # {(round, command): instances redrawn before one had unique matches}
        self.redrawn: dict[tuple[int, str], int] = {}

    def blocks(self, r: int) -> int:
        order = [0, 1, 2]
        _rng(self.seed, self.name, "blocks", r // 3).shuffle(order)
        return order[r % 3]

    def _instance(self, r: int, command: str):
        """(left pw with its blocks, right pw, chain-encoded left, q) as documents.

        An instance whose q has a constraint side that matches more than one
        row is redrawn from the same generator, as `udbi.gen.gen_integrated_epr`
        redraws it: the benchmark's workloads must not fail, and the program
        rejects such genuine integration results (ROADMAP item 5).
        """
        rng = _rng(self.seed, self.name, r, command)
        for attempt in itertools.count():
            instance = self._draw(rng, r)
            if constraints_match_uniquely(instance[3]):
                self.redrawn[(r, command)] = attempt
                return instance

    def notes(self) -> list[str]:
        drawn = len(self.redrawn) + sum(self.redrawn.values())
        return [
            f"{sum(self.redrawn.values())} of {drawn} drawn instances redrawn: "
            "a constraint side matched more than one row (ROADMAP item 5)"
        ]

    def _draw(self, rng: random.Random, r: int):
        from udbi.documents import document_of, parse_document
        from udbi.prdb import PrRelation, encode_pw, integrate_pr

        left, right, _ = consistent_pw_pair(rng, self.worlds, self.common, self.private)
        left_pr = encode_pw(parse_document(left), "a")
        right_pr = encode_pw(parse_document(right), "b")
        tuples = {tuple(t) for t in left["tuples"]}
        joint = _world_probs(left)
        for base in _BLOCK_BASES[: self.blocks(r)]:
            block = self._block(rng, base)
            block_pr = encode_pw(parse_document(block), f"{base}v")
            left_pr = PrRelation.of(
                left_pr.rows + block_pr.rows, {**left_pr.var_probs, **block_pr.var_probs}
            )
            tuples |= {tuple(t) for t in block["tuples"]}
            joint = {
                w | bw: p * bp
                for w, p in joint.items()
                for bw, bp in _world_probs(block).items()
            }
        left_joint = pw_doc(tuples, joint.items())
        return left_joint, right, document_of(left_pr), document_of(integrate_pr(left_pr, right_pr))

    @staticmethod
    def _block(rng: random.Random, base: str) -> dict:
        """An independent 2-tuple source with 2 worlds, so one chain variable."""
        tuples = [(f"{base}0",), (f"{base}1",)]
        subsets = [frozenset(t for t, bit in zip(tuples, (m & 1, m & 2)) if bit) for m in range(4)]
        worlds = rng.sample(subsets, 2)
        weights = [rng.randint(1, 9) for _ in worlds]
        return pw_doc(tuples, [(w, Fraction(x, sum(weights))) for w, x in zip(worlds, weights)])

    def write_round(self, r, workdir):
        for command in self.commands:
            _, _, a, q = self._instance(r, command)
            _write(self._path(workdir, r, f"{command}-in"), a if command == "expand" else q)

    def argv(self, r, command, workdir):
        argv = [command, str(self._path(workdir, r, f"{command}-in"))]
        if command == "decompose":
            argv.append("--all")
        return argv + ["--out", str(self._path(workdir, r, f"{command}-out"))]

    def check(self, r, command, workdir):
        from udbi.documents import parse_document
        from udbi.pwdb import integrate_pw_prob

        left, right, _, q = self._instance(r, command)
        out = _read(self._path(workdir, r, f"{command}-out"))
        if command == "prob":
            want = integrate_pw_prob(parse_document(left), parse_document(right))
            if _world_probs(out["distribution"]) != dict(zip(want.worlds, want.probs)):
                return "distribution differs from integrate_pw_prob of the sources"
        elif command == "check":
            if out["cross_check"] is not True:
                return "cross-check did not agree"
            if not all(c["balanced"] for c in out["components"]):
                return "check reported an unbalanced component"
        elif command == "decompose":
            pairs = out["pairs"]
            want = 1 << free_group_count(q)
            if len(pairs) != want:
                return f"decompose --all returned {len(pairs)} pairs, expected {want}"
            if any(canonical(integrate_docs(p["r"], p["s"])) != canonical(q) for p in pairs):
                return "integrating a decomposed pair does not reproduce q"
        elif _world_probs(out) != _world_probs(left):
            return "expanded distribution differs from the source's"
        return None


WORKLOADS = {w.name: w for w in (PrMerge, PwJoin, EprExpand)}
