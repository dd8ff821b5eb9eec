"""Recognizing integrated epr-relations and rebuilding source pairs.

A relation q is recognized as an integration result when its event variables
split into two sides such that every row formula lives wholly on one side,
every constraint bridges the two sides, and every constraint matches exactly
one row syntactically.  Variable groups touched by no constraint are free:
either side works, and every choice yields the same distribution.
partition finds the forced split or raises NotIntegrated at the first fault;
build_pair and enumerate_pairs rebuild source pairs from a split.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain

from .errors import MissingVarProb, NotIntegrated, ValidationError
from .logic import Formula, iter_vars
from .prdb import EprRelation, PrRelation, PrTuple
from .pwdb import format_tuple

VarSet = tuple[str, ...]


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of the variable-grouping and 2-coloring pass.

    v1/w1 are the side labels forced by constraints; free_groups are variable
    groups no constraint touches.  ``scan`` is _scan(q), kept so that
    enumerate_pairs builds every pair without scanning q again.
    """

    v1: VarSet
    w1: VarSet
    free_groups: tuple[VarSet, ...]
    scan: tuple = field(compare=False, repr=False)


@dataclass(frozen=True)
class PrPair:
    """Two pr-relations over disjoint variable sets.

    The constructor raises ValidationError when r and s share a variable.
    """

    r: PrRelation
    s: PrRelation

    def __post_init__(self):
        shared = self.r.names & self.s.names
        if shared:
            raise ValidationError(
                "pair sides share event variables: " + ", ".join(sorted(shared))
            )


def _variable_groups(formula_vars) -> list[VarSet]:
    """Groups of variables co-occurring in some formula, each sorted.

    ``formula_vars`` lists each formula's variable set.  The groups are the
    connected components of the formula-variable incidence, found by one
    walk each; a walk starts at the first formula with variables that no
    earlier walk reached, so groups come out ordered by first use.
    """
    formula_vars = list(formula_vars)
    uses: dict[str, list[int]] = {}
    for k, used in enumerate(formula_vars):
        for name in used:
            uses.setdefault(name, []).append(k)
    reached = [False] * len(formula_vars)
    grouped: set[str] = set()
    groups = []
    for start, used in enumerate(formula_vars):
        if reached[start] or not used:
            continue
        reached[start] = True
        stack, members = [start], []
        while stack:
            for name in formula_vars[stack.pop()]:
                if name not in grouped:
                    grouped.add(name)
                    members.append(name)
                    for k in uses[name]:
                        if not reached[k]:
                            reached[k] = True
                            stack.append(k)
        groups.append(tuple(sorted(members)))
    return groups


def _condition3(q: EprRelation) -> list[tuple[int, bool]] | None:
    """Each constraint must match exactly one row's formula structurally.

    Returns, per constraint, the position in q.rows of the row it matches and
    whether that row's formula is the lhs; None when some constraint matches
    no row or several.  Without constraints no formula is hashed, so rows too
    deep to hash still decompose.
    """
    if not q.constraints:
        return []
    index: dict[Formula, list[int]] = {}
    for k, row in enumerate(q.rows):
        index.setdefault(row.event, []).append(k)
    matches = []
    for lhs, rhs in q.constraints:
        on_lhs = index.get(lhs, ())
        on_rhs = index.get(rhs, ()) if rhs != lhs else ()
        if len(on_lhs) + len(on_rhs) != 1:
            return None
        matches.append((on_lhs[0], True) if on_lhs else (on_rhs[0], False))
    return matches


def _scan(q: EprRelation):
    """The one pass over q's formulas that partition and every pair build share.

    Returns the variable sets of each row formula and of each constraint's
    two sides, and _condition3(q).  Each distinct formula object is walked
    once: a document shares one object among equal formula texts, so a
    constraint side is often the very object of its row's formula.
    """
    walked: dict[int, frozenset[str]] = {}  # id of a formula of q -> its variables

    def variables(f: Formula) -> frozenset[str]:
        used = walked.get(id(f))
        if used is None:
            used = walked[id(f)] = frozenset(iter_vars(f))
        return used

    row_vars = [variables(row.event) for row in q.rows]
    constraint_vars = [(variables(lhs), variables(rhs)) for lhs, rhs in q.constraints]
    return row_vars, constraint_vars, _condition3(q)


def partition(q: EprRelation) -> PartitionResult:
    """Group co-occurring variables and 2-color the groups across constraints.

    Groups linked by a constraint must take opposite side labels.  Raises
    NotIntegrated at the first fault, in this order: a constraint linking a
    group to itself, a group forced onto both sides, then a constraint that
    does not match exactly one row (condition 3).  Groups no constraint
    touches are reported as free.
    """
    scan = row_vars, constraint_vars, matches = _scan(q)
    groups = _variable_groups(chain(row_vars, *constraint_vars))
    index = {name: k for k, group in enumerate(groups) for name in group}
    adjacency: dict[int, set[int]] = {k: set() for k in range(len(groups))}
    for lv, rv in constraint_vars:
        if not lv or not rv:
            continue
        a, b = index[next(iter(lv))], index[next(iter(rv))]
        if a == b:
            raise NotIntegrated(
                f"constraint links variable group {{{', '.join(groups[a])}}} to itself"
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
                if nxt not in labels:
                    labels[nxt] = want
                    queue.append(nxt)
                elif labels[nxt] != want:
                    raise NotIntegrated(
                        f"variable group {{{', '.join(groups[nxt])}}} would be labeled both sides"
                    )
    if matches is None:
        raise NotIntegrated("some constraint does not match exactly one row")
    v1 = sorted(n for k, g in enumerate(groups) if labels.get(k) == "V" for n in g)
    w1 = sorted(n for k, g in enumerate(groups) if labels.get(k) == "W" for n in g)
    free = tuple(g for k, g in enumerate(groups) if k not in labels)
    return PartitionResult(tuple(v1), tuple(w1), free, scan)


def build_pair(q: EprRelation, v, w) -> PrPair:
    """Rebuild a source pair (r, s) with integrate_pr(r, s) equal to q.

    Rows route to r or s by which side owns their variables; then each
    constraint f = g adds the missing side's row: if t@f sits in r, t@g is
    added to s, and symmetrically.  Raises ValidationError unless v and w
    partition q's variables, and NotIntegrated when a row formula spans both
    sides, a constraint stays on one side, or condition 3 fails.  Each
    formula's variables are collected once, and the work is linear in rows
    plus constraints.
    """
    v, w = frozenset(v), frozenset(w)
    scan = row_vars, constraint_vars, matches = _scan(q)
    if (v & w) or (v | w) != q.names:
        raise ValidationError("v and w must partition the variables of the relation")
    if not (
        all(used <= v or used <= w for used in row_vars)
        and all((lv <= v and rv <= w) or (lv <= w and rv <= v) for lv, rv in constraint_vars)
        and matches is not None
    ):
        raise NotIntegrated("the relation is not recognized as an integration result")
    return _build(q, scan, v, w)


def _build(q: EprRelation, scan, v: frozenset, w: frozenset) -> PrPair:
    """build_pair for a side split known to meet the three conditions.

    ``scan`` is _scan(q).  A variable-free row goes opposite the other side
    of the first constraint that matches it, or to r when none does.  Each
    side takes q's probabilities of its variables; its constructor raises
    ValidationError when one of them has none.
    """
    row_vars, constraint_vars, matches = scan
    partners: dict[int, frozenset[str]] = {}
    for (k, on_lhs), (lv, rv) in zip(matches, constraint_vars):
        partners.setdefault(k, rv if on_lhs else lv)
    sides = []
    rows = {"r": [], "s": []}
    held = {"r": set(), "s": set()}
    names = {"r": set(), "s": set()}
    for k, (row, used) in enumerate(zip(q.rows, row_vars)):
        if used:
            side = "r" if used <= v else "s"
        else:
            partner_vars = partners.get(k)
            side = "s" if partner_vars and partner_vars <= v else "r"
        sides.append(side)
        rows[side].append(row)
        held[side].add(row.tuple)
        names[side] |= used
    for (lhs, rhs), (lv, rv), (k, on_lhs) in zip(q.constraints, constraint_vars, matches):
        row = q.rows[k]
        other, other_vars = (rhs, rv) if on_lhs else (lhs, lv)
        target = "s" if sides[k] == "r" else "r"
        if row.tuple in held[target]:
            raise NotIntegrated(
                "two constraints resolve to the same tuple "
                f"{format_tuple(row.tuple)}; no source pair can produce that"
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
    return PrPair(
        PrRelation(r_rows, var_probs=r_probs, names=names["r"]),
        PrRelation(s_rows, var_probs=s_probs, names=names["s"]),
    )


def enumerate_pairs(q: EprRelation, limit: int | None = None) -> list[PrPair]:
    """All pairs reachable by assigning each free group to either side.

    Pair k sends free group i to the V side iff bit i of k is set, so pair 0
    (every free group on the W side) is the deterministic default.
    Raises MissingVarProb first, before recognition, for the variables of q
    without a probability when q carries any; then partition raises
    NotIntegrated when recognition fails.  Every pair is built from the one
    scan that partition made.
    """
    if q.var_probs is not None and not q.var_probs.keys() >= q.names:
        raise MissingVarProb(q.names - q.var_probs.keys())
    part = partition(q)
    total = 1 << len(part.free_groups)
    count = total if limit is None else min(limit, total)
    pairs = []
    for k in range(count):
        v = set(part.v1)
        w = set(part.w1)
        for i, group in enumerate(part.free_groups):
            (v if k >> i & 1 else w).update(group)
        pairs.append(_build(q, part.scan, frozenset(v), frozenset(w)))
    return pairs
