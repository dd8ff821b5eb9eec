"""Recognizing integrated epr-relations and rebuilding source pairs.

A relation q is recognized as an integration result when its event variables
split into two sides such that every row formula lives wholly on one side,
every constraint bridges the two sides, and every constraint matches exactly
one row syntactically.  Variable groups touched by no constraint are free:
either side works, and every choice yields the same distribution, since a
free group shares no variable and no tuple with the rest of its side.
partition finds the forced split, or raises at the first fault, and routes
q's rows once into parts: the two cores and each free group.  build_pair
rebuilds the source pair of a given split.  enumerate_pairs merges all 2^k
pairs of k free groups from the parts, as many as its limit allows: they are
the output of decompose --all.  probcalc needs only pair 0 and each group
flipped alone."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

from .errors import MissingVarProb, NotIntegrated, ValidationError
from .logic import Formula, iter_vars, to_text
from .prdb import EprRelation, PrRelation, PrTuple
from .pwdb import format_tuple

VarSet = tuple[str, ...]

_row_tuple = attrgetter("tuple")
_row_event = attrgetter("event")


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
    """Each constraint must match exactly one row's formula syntactically.

    Returns, per constraint, the position in q.rows of the row it matches and
    whether that row's formula is the lhs; None when some constraint matches
    no row or several.  Formulas are matched by their text (to_text), which
    parses back to the formula, so two formulas are equal exactly when their
    texts are.  No formula is hashed, and one read in the printer's form
    keeps its text, so it is not walked either; any other is rendered.
    Without constraints no text is taken, so rows too deep to render still
    decompose.
    """
    if not q.constraints:
        return []
    index: dict[str, list[int]] = {}
    for k, text in enumerate(map(to_text, map(_row_event, q.rows))):
        index.setdefault(text, []).append(k)
    matches = []
    for lhs, rhs in q.constraints:
        lhs, rhs = to_text(lhs), to_text(rhs)
        on_lhs = index.get(lhs, ())
        on_rhs = index.get(rhs, ()) if rhs != lhs else ()
        if len(on_lhs) + len(on_rhs) != 1:
            return None
        matches.append((on_lhs[0], True) if on_lhs else (on_rhs[0], False))
    return matches


def _scan(q: EprRelation):
    """The one pass over q's formulas that recognition and routing share.

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
    r, s = _route(q, scan, dict.fromkeys(v, 0) | dict.fromkeys(w, 1), 2)
    return PrPair(r, s)


def _route(q: EprRelation, scan, slot_of: dict[str, int], slots: int) -> list[PrRelation]:
    """q's rows routed in one pass to ``slots`` relations, for a split known
    to meet the three conditions.

    ``scan`` is _scan(q), and ``slot_of`` gives each variable's slot.  Slots
    come in opposite pairs 2j and 2j + 1, which always sit on opposite sides
    of a source pair.  A row with variables goes to their slot; a
    variable-free row goes opposite the slot of its partner, the other side
    of the first constraint that matches it, or to slot 0 when it has no
    partner or the partner has no variables.  A constraint matching the row t@f in one slot adds t@g
    to the opposite slot.  Each slot takes q's probabilities of its
    variables.  Raises NotIntegrated when two constraints match one row.
    """
    row_vars, constraint_vars, matches = scan
    partners: dict[int, frozenset[str]] = {}
    for (k, on_lhs), (lv, rv) in zip(matches, constraint_vars):
        if k in partners:
            raise NotIntegrated(
                "two constraints resolve to the same tuple "
                f"{format_tuple(q.rows[k].tuple)}; no source pair can produce that"
            )
        partners[k] = rv if on_lhs else lv
    rows = [[] for _ in range(slots)]
    names = [set() for _ in range(slots)]
    where = []
    for k, (row, used) in enumerate(zip(q.rows, row_vars)):
        if used:
            slot = slot_of[next(iter(used))]
        else:
            partner = partners.get(k)
            slot = slot_of[next(iter(partner))] ^ 1 if partner else 0
        where.append(slot)
        rows[slot].append(row)
        names[slot] |= used
    for (lhs, rhs), (lv, rv), (k, on_lhs) in zip(q.constraints, constraint_vars, matches):
        other, other_vars = (rhs, rv) if on_lhs else (lhs, lv)
        target = where[k] ^ 1
        rows[target].append(PrTuple(q.rows[k].tuple, other))
        names[target] |= other_vars
    probs = [None] * slots
    if q.var_probs is not None:
        probs = [{} for _ in range(slots)]
        for name, p in q.var_probs.items():
            slot = slot_of.get(name)
            if slot is not None:
                probs[slot][name] = p
    return [
        PrRelation(tuple(sorted(held, key=_row_tuple)), var_probs=p, names=used)
        for held, p, used in zip(rows, probs, names)
    ]


@dataclass(frozen=True)
class Parts:
    """partition's result: q split once into the relations its source pairs
    are merged from.

    ``v`` and ``w`` are the cores: the rows of the variables that the
    constraints force onto each side, the rows the constraints add, and the
    variable-free rows routed there.  ``free`` holds, per free group, its
    rows and the variable-free rows it sends to the other side (a row
    whose matching constraint pairs it with the group), usually none.

    Parts share no variable and no tuple, so the distribution of a pair side
    is the product of its parts' distributions; a free group shares nothing
    with the rest of either side, so its placement cannot change the
    integrated distribution.
    """

    v: PrRelation
    w: PrRelation
    free: tuple[tuple[PrRelation, PrRelation], ...]

    def sides(self, k: int) -> tuple[list[PrRelation], list[PrRelation]]:
        """The parts of pair k's r side and of its s side.  Free group i
        sits on the r side iff bit i of k is set, and the rows it sends
        across on the s side.  A part without rows is left out, unless the
        side has no other; then the side is its core alone."""
        r, s = [self.v], [self.w]
        for i, (own, across) in enumerate(self.free):
            if k >> i & 1:
                r.append(own)
                s.append(across)
            else:
                s.append(own)
                r.append(across)
        return [p for p in r if p.rows] or r[:1], [p for p in s if p.rows] or s[:1]

    @property
    def free_groups(self) -> tuple[VarSet, ...]:
        """The sorted variables of each free group, in group order."""
        return tuple(tuple(sorted(own.names)) for own, _ in self.free)

    def pair(self, k: int) -> PrPair:
        """Pair k, each side merged from its parts."""
        r, s = self.sides(k)
        return PrPair(_merge(r), _merge(s))


def _merge(parts: list[PrRelation]) -> PrRelation:
    """One relation of parts that share no variable and no tuple; a lone
    part is that relation."""
    if len(parts) == 1:
        return parts[0]
    rows = tuple(sorted(chain.from_iterable(p.rows for p in parts), key=_row_tuple))
    var_probs = None
    if parts[0].var_probs is not None:
        var_probs = {name: p for part in parts for name, p in part.var_probs.items()}
    return PrRelation(rows, var_probs=var_probs, names=frozenset().union(*(p.names for p in parts)))


def _slot_of(formula_vars, constraint_vars) -> tuple[dict[str, int], int]:
    """Each variable's slot, and the number of free groups.

    Co-occurring variables form groups, and groups linked by a constraint
    take opposite slots, 0 (the V side) and 1 (the W side); free group i,
    which no constraint touches, takes slot 2 + 2i.  Raises NotIntegrated
    for a constraint linking a group to itself, then for a group forced
    onto both sides.
    """
    groups = _variable_groups(formula_vars)
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
    slots: dict[int, int] = {}  # group -> its slot
    for seed in range(len(groups)):
        if seed in slots or not adjacency[seed]:
            continue
        slots[seed] = 0
        queue = deque([seed])
        while queue:
            node = queue.popleft()
            want = slots[node] ^ 1
            for nxt in sorted(adjacency[node]):
                if nxt not in slots:
                    slots[nxt] = want
                    queue.append(nxt)
                elif slots[nxt] != want:
                    raise NotIntegrated(
                        f"variable group {{{', '.join(groups[nxt])}}} would be labeled both sides"
                    )
    free = [k for k in range(len(groups)) if k not in slots]
    slots.update((k, 2 + 2 * i) for i, k in enumerate(free))
    return {name: slots[k] for name, k in index.items()}, len(free)


def partition(q: EprRelation) -> Parts:
    """q's cores and free groups, from one recognition and one routing pass.

    Raises MissingVarProb first, for the variables of q without a
    probability when q carries any; then NotIntegrated at the first fault,
    in this order: a constraint linking a group to itself, a group forced
    onto both sides, a constraint that does not match exactly one row
    (condition 3), then two constraints that match one row.
    """
    if q.var_probs is not None and not q.var_probs.keys() >= q.names:
        raise MissingVarProb(q.names - q.var_probs.keys())
    scan = row_vars, constraint_vars, matches = _scan(q)
    slot_of, free = _slot_of(chain(row_vars, *constraint_vars), constraint_vars)
    if matches is None:
        raise NotIntegrated("some constraint does not match exactly one row")
    v, w, *rest = _route(q, scan, slot_of, 2 + 2 * free)
    return Parts(v, w, tuple(zip(rest[::2], rest[1::2])))


def enumerate_pairs(q: EprRelation, limit: int | None = None) -> list[PrPair]:
    """All 2^k pairs of k free groups, each on either side; the first ``limit`` if given.

    Pair k sends free group i to the V side iff bit i of k is set, so pair 0
    (every free group on the W side) is the deterministic default.  Raises
    as partition does; every pair is merged from the one partition.
    """
    parts = partition(q)
    total = 1 << len(parts.free)
    count = total if limit is None else min(limit, total)
    return [parts.pair(k) for k in range(count)]
