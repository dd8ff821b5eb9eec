"""Recognizing integrated epr-relations and rebuilding source pairs.

A relation q is recognized as an integration result when its event variables
split into two sides such that every row formula lives wholly on one side,
every constraint bridges the two sides, and every constraint matches exactly
one row syntactically.  Variable groups touched by no constraint are free:
either side works, and every choice yields the same distribution.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain

from .errors import NotIntegrated, ValidationError
from .logic import Formula, iter_vars
from .prdb import EprRelation, PrRelation, PrTuple
from .unionfind import UnionFind

VarSet = tuple[str, ...]


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of the variable-grouping and 2-coloring pass.

    v1/w1 are the side labels forced by constraints; free_groups are variable
    groups no constraint touches.  On failure only ``failure`` and
    ``condition3_ok`` are meaningful.
    """

    v1: VarSet
    w1: VarSet
    free_groups: tuple[VarSet, ...]
    condition3_ok: bool
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None and self.condition3_ok


@dataclass(frozen=True)
class PrPair:
    """Two pr-relations over disjoint variable sets."""

    r: PrRelation
    s: PrRelation

    @classmethod
    def of(cls, r: PrRelation, s: PrRelation) -> "PrPair":
        return cls._checked(r, s, r.variables(), s.variables())

    @classmethod
    def _checked(cls, r: PrRelation, s: PrRelation, r_names, s_names) -> "PrPair":
        """PrPair.of, given the variables of r and of s."""
        shared = set(r_names) & set(s_names)
        if shared:
            raise ValidationError(
                "pair sides share event variables: " + ", ".join(sorted(shared))
            )
        return cls(r, s)


def _variable_groups(formula_vars, stats: dict | None = None) -> list[VarSet]:
    """Groups of variables co-occurring in some formula.

    ``formula_vars`` lists each formula's variable set.  Groups are ordered by
    the first formula that uses them.  Each set is read in sorted order, so
    the union-find's work count does not depend on set iteration order.
    """
    first_use: dict[str, int] = {}
    uf = UnionFind()
    for k, used in enumerate(formula_vars):
        anchor = None
        for name in sorted(used):
            first_use.setdefault(name, k)
            if anchor is None:
                anchor = name
                uf.add(name)
            else:
                uf.union(anchor, name)
    groups = sorted(
        (tuple(members) for members in uf.groups().values()),
        key=lambda g: min(first_use[name] for name in g),
    )
    if stats is not None:
        stats["ops"] = stats.get("ops", 0) + uf.ops + len(first_use)
    return groups


def _rows_by_event(q: EprRelation) -> dict[Formula, list[PrTuple]]:
    index: dict[Formula, list[PrTuple]] = {}
    for row in q.rows:
        index.setdefault(row.event, []).append(row)
    return index


def _condition3(q: EprRelation, index, stats: dict | None = None) -> bool:
    """Each constraint must match exactly one row's formula structurally.

    ``index`` is _rows_by_event(q).
    """
    if stats is not None:
        stats["ops"] = stats.get("ops", 0) + len(q.rows) + len(q.constraints)
    for lhs, rhs in q.constraints:
        matches = len(index.get(lhs, ()))
        if rhs != lhs:
            matches += len(index.get(rhs, ()))
        if matches != 1:
            return False
    return True


def partition(q: EprRelation, stats: dict | None = None) -> PartitionResult:
    """Group co-occurring variables and 2-color the groups across constraints.

    Groups linked by a constraint must take opposite side labels; a group
    forced onto both sides is a failure.  Groups no constraint touches are
    reported as free.  ``stats`` (optional) accumulates an operation count
    under key "ops" for complexity assertions.
    """
    row_vars, constraint_vars = _formula_vars(q)
    groups = _variable_groups(chain(row_vars, *constraint_vars), stats)
    index = {name: k for k, group in enumerate(groups) for name in group}
    adjacency: dict[int, set[int]] = {k: set() for k in range(len(groups))}
    condition3_ok = _condition3(q, _rows_by_event(q), stats)
    for lv, rv in constraint_vars:
        if stats is not None:
            stats["ops"] = stats.get("ops", 0) + 1
        if not lv or not rv:
            continue
        a, b = index[next(iter(lv))], index[next(iter(rv))]
        if a == b:
            return PartitionResult(
                (), (), (), condition3_ok,
                failure="constraint links variable group "
                f"{{{', '.join(groups[a])}}} to itself",
            )
        adjacency[a].add(b)
        adjacency[b].add(a)
    labels: dict[int, str] = {}
    for seed in range(len(groups)):
        if seed in labels or not adjacency[seed]:
            continue
        labels[seed] = "V"
        queue = deque([seed])
        while queue:
            node = queue.popleft()
            want = "W" if labels[node] == "V" else "V"
            for nxt in sorted(adjacency[node]):
                if stats is not None:
                    stats["ops"] = stats.get("ops", 0) + 1
                if nxt not in labels:
                    labels[nxt] = want
                    queue.append(nxt)
                elif labels[nxt] != want:
                    return PartitionResult(
                        (), (), (), condition3_ok,
                        failure="variable group "
                        f"{{{', '.join(groups[nxt])}}} would be labeled both sides",
                    )
    v1 = sorted(n for k, g in enumerate(groups) if labels.get(k) == "V" for n in g)
    w1 = sorted(n for k, g in enumerate(groups) if labels.get(k) == "W" for n in g)
    free = tuple(g for k, g in enumerate(groups) if k not in labels)
    return PartitionResult(tuple(v1), tuple(w1), free, condition3_ok)


def _formula_vars(q: EprRelation):
    """Variable sets of each row formula and of each constraint's two sides."""
    row_vars = [frozenset(iter_vars(row.event)) for row in q.rows]
    constraint_vars = [
        (frozenset(iter_vars(lhs)), frozenset(iter_vars(rhs))) for lhs, rhs in q.constraints
    ]
    return row_vars, constraint_vars


def _sides_hold(v: frozenset, w: frozenset, row_vars, constraint_vars) -> bool:
    """The first two recognition conditions, given _formula_vars(q).

    Raises ValidationError unless v and w partition the variables.
    """
    names = set().union(*row_vars, *(lv | rv for lv, rv in constraint_vars))
    if (v & w) or (v | w) != names:
        raise ValidationError("v and w must partition the variables of the relation")
    for used in row_vars:
        if not (used <= v or used <= w):
            return False
    for lv, rv in constraint_vars:
        if not ((lv <= v and rv <= w) or (lv <= w and rv <= v)):
            return False
    return True


def check_integrated(q: EprRelation, v, w) -> bool:
    """Test the three recognition conditions for the given side split."""
    if not _sides_hold(frozenset(v), frozenset(w), *_formula_vars(q)):
        return False
    return _condition3(q, _rows_by_event(q))


def _partner_vars(q: EprRelation, constraint_vars) -> dict[Formula, frozenset[str]]:
    """Each constraint side's formula mapped to the variables of its opposite side.

    The first constraint one of whose sides equals a formula wins, and its
    lhs is tested before its rhs.
    """
    partners: dict[Formula, frozenset[str]] = {}
    for (lhs, rhs), (lv, rv) in zip(q.constraints, constraint_vars):
        partners.setdefault(lhs, rv)
        partners.setdefault(rhs, lv)
    return partners


def build_pair(q: EprRelation, v, w, stats: dict | None = None) -> PrPair:
    """Rebuild a source pair (r, s) with integrate_pr(r, s) equal to q.

    Rows route to r or s by which side owns their variables; then each
    constraint f = g adds the missing side's row: if t@f sits in r, t@g is
    added to s, and symmetrically.  Raises NotIntegrated when the
    recognition conditions fail.  Each formula's variables are collected
    once, and the work is linear in rows plus constraints.
    """
    v, w = frozenset(v), frozenset(w)
    row_vars, constraint_vars = _formula_vars(q)
    index = _rows_by_event(q)
    if not (_sides_hold(v, w, row_vars, constraint_vars) and _condition3(q, index)):
        raise NotIntegrated("the relation is not recognized as an integration result")
    partners = _partner_vars(q, constraint_vars)
    sides: dict = {}
    rows = {"r": [], "s": []}
    held = {"r": set(), "s": set()}
    names = {"r": set(), "s": set()}
    for row, used in zip(q.rows, row_vars):
        if stats is not None:
            stats["ops"] = stats.get("ops", 0) + 1
        if used:
            side = "r" if used <= v else "s"
        else:
            partner_vars = partners.get(row.event)
            side = "s" if partner_vars and partner_vars <= v else "r"
        sides[row.tuple] = side
        rows[side].append(row)
        held[side].add(row.tuple)
        names[side] |= used
    for (lhs, rhs), (lv, rv) in zip(q.constraints, constraint_vars):
        if stats is not None:
            stats["ops"] = stats.get("ops", 0) + 1
        match = index.get(lhs, []) + (index.get(rhs, []) if rhs != lhs else [])
        row = match[0]
        other, other_vars = (rhs, rv) if row.event == lhs else (lhs, lv)
        target = "s" if sides[row.tuple] == "r" else "r"
        if row.tuple in held[target]:
            raise NotIntegrated(
                "two constraints resolve to the same tuple "
                f"{row.tuple}; no source pair can produce that"
            )
        rows[target].append(PrTuple(row.tuple, other))
        held[target].add(row.tuple)
        names[target] |= other_vars
    r_rows = tuple(sorted(rows["r"], key=lambda row: row.tuple))
    s_rows = tuple(sorted(rows["s"], key=lambda row: row.tuple))
    if q.var_probs is None:
        r_probs = s_probs = None
    else:
        r_probs = {n: p for n, p in q.var_probs.items() if n in v}
        s_probs = {n: p for n, p in q.var_probs.items() if n in w}
    return PrPair._checked(
        PrRelation._checked(r_rows, r_probs, names["r"]),
        PrRelation._checked(s_rows, s_probs, names["s"]),
        names["r"],
        names["s"],
    )


def enumerate_pairs(q: EprRelation, limit: int | None = None) -> list[PrPair]:
    """All pairs reachable by assigning each free group to either side.

    Pair k sends free group i to the V side iff bit i of k is set, so pair 0
    (every free group on the W side) is the deterministic default.  Raises
    NotIntegrated when recognition fails.
    """
    part = partition(q)
    if part.failure is not None:
        raise NotIntegrated(part.failure)
    if not part.condition3_ok:
        raise NotIntegrated("some constraint does not match exactly one row")
    total = 1 << len(part.free_groups)
    count = total if limit is None else min(limit, total)
    pairs = []
    for k in range(count):
        v = set(part.v1)
        w = set(part.w1)
        for i, group in enumerate(part.free_groups):
            (v if k >> i & 1 else w).update(group)
        pairs.append(build_pair(q, v, w))
    return pairs
