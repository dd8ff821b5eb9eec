"""Recognizing integrated epr-relations and rebuilding source pairs.

A relation q is recognized as an integration result when its formulas split
into two sides such that every row formula lives on one side, every
constraint bridges the two sides, and every constraint matches exactly one
row syntactically.  Recognition labels formulas, not variables: a group is
the formulas linked by shared variables, and a constraint links two groups.
Groups touched by no constraint are free: either side works, and every
choice yields the same distribution, since a free group shares no variable
and no tuple with the rest of its side.  partition finds the forced split,
or raises at the first fault, and routes q's rows once into parts: the two
cores and each free group.  build_pair rebuilds the source pair of a given
split.  enumerate_pairs merges all 2^k pairs of k free groups from the
parts, as many as its limit allows: they are the output of decompose --all.
probcalc needs only pair 0 and each group flipped alone."""

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

    Returns the variable sets of q's formulas in one list, and
    _condition3(q).  The list holds the n rows' formulas first, then each
    constraint's two sides: constraint j's lhs at n + 2j and its rhs at
    n + 2j + 1.  Each distinct formula object is walked once: a document
    shares one object among equal formula texts, so a constraint side is
    often the very object of its row's formula.
    """
    walked: dict[int, frozenset[str]] = {}  # id of a formula of q -> its variables

    def variables(f: Formula) -> frozenset[str]:
        used = walked.get(id(f))
        if used is None:
            used = walked[id(f)] = frozenset(iter_vars(f))
        return used

    formulas = chain(map(_row_event, q.rows), chain.from_iterable(q.constraints))
    return list(map(variables, formulas)), _condition3(q)


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
    scan = formula_vars, matches = _scan(q)
    if (v & w) or (v | w) != q.names:
        raise ValidationError("v and w must partition the variables of the relation")
    # Each formula's side: None without variables, -1 spanning both.
    slot = [None if not f else 0 if f <= v else 1 if f <= w else -1 for f in formula_vars]
    n = len(q.rows)
    bridged = zip(slot[n::2], slot[n + 1 :: 2])
    if -1 in slot or matches is None or any(a is not None and a == b for a, b in bridged):
        raise NotIntegrated("the relation is not recognized as an integration result")
    r, s = _route(q, scan, slot, 2)
    return PrPair(r, s)


def _route(q: EprRelation, scan, slot: list[int | None], slots: int) -> list[PrRelation]:
    """q's rows routed in one pass to ``slots`` relations, for a split known
    to meet the three conditions.

    ``scan`` is _scan(q), and ``slot`` gives the slot of each formula in
    its list, None for a formula without variables.  Slots come in opposite
    pairs 2j and 2j + 1, which always sit on opposite sides of a source
    pair.  Row k goes to slot[k]; a variable-free row goes opposite the slot
    of its partner, the other side of the one constraint that matches it,
    or to slot 0 when it has no partner or the partner has no variables.  A
    constraint matching the row t@f in one slot adds t@g to the opposite
    slot.  Each slot takes q's probabilities of its own variables, so a
    variable that no formula uses goes nowhere.  Raises NotIntegrated when
    two constraints match one row.
    """
    formula_vars, matches = scan
    n = len(q.rows)
    partner: dict[int, int] = {}  # row -> position of the other side of its constraint
    for j, (k, on_lhs) in enumerate(matches):
        if k in partner:
            raise NotIntegrated(
                "two constraints resolve to the same tuple "
                f"{format_tuple(q.rows[k].tuple)}; no source pair can produce that"
            )
        partner[k] = n + 2 * j + on_lhs
    rows = [[] for _ in range(slots)]
    names = [set() for _ in range(slots)]
    where = []
    for k, row in enumerate(q.rows):
        at = slot[k]
        if at is None:
            across = slot[partner[k]] if k in partner else None
            at = 0 if across is None else across ^ 1
        where.append(at)
        rows[at].append(row)
        names[at] |= formula_vars[k]
    for j, (k, on_lhs) in enumerate(matches):
        target = where[k] ^ 1
        rows[target].append(PrTuple(q.rows[k].tuple, q.constraints[j][on_lhs]))
        names[target] |= formula_vars[n + 2 * j + on_lhs]
    probs = [None] * slots
    if q.var_probs is not None:
        probs = [{name: q.var_probs[name] for name in used & q.var_probs.keys()} for used in names]
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


def _slots(formula_vars: list[frozenset[str]], n: int) -> tuple[list[int | None], int]:
    """Each formula's slot (None without variables), and the number of free groups.

    ``formula_vars`` is _scan's list, with n rows.  A group is the formulas
    linked by shared variables, found by one walk each from the first
    formula no earlier walk reached, so groups are numbered by first use.
    Constraint j links the groups of its two sides, and linked groups take
    opposite slots, 0 (the V side) and 1 (the W side); free group i, which
    no constraint touches, takes slot 2 + 2i.  Raises NotIntegrated for a
    constraint linking a group to itself, then for a group forced onto both
    sides, naming the group by its sorted variables.
    """
    uses: dict[str, list[int]] = {}
    for k, used in enumerate(formula_vars):
        for name in used:
            uses.setdefault(name, []).append(k)
    group: list[int | None] = [None] * len(formula_vars)
    count = 0
    for start, used in enumerate(formula_vars):
        if group[start] is not None or not used:
            continue
        group[start] = count
        stack = [start]
        while stack:
            for name in formula_vars[stack.pop()]:
                for k in uses.pop(name, ()):
                    if group[k] is None:
                        group[k] = count
                        stack.append(k)
        count += 1

    def named(g: int) -> str:
        return ", ".join(sorted(set().union(*(u for u, h in zip(formula_vars, group) if h == g))))

    adjacency: list[set[int]] = [set() for _ in range(count)]
    for a, b in zip(group[n::2], group[n + 1 :: 2]):
        if a is None or b is None:
            continue
        if a == b:
            raise NotIntegrated(f"constraint links variable group {{{named(a)}}} to itself")
        adjacency[a].add(b)
        adjacency[b].add(a)
    side: dict[int, int] = {}  # group -> its slot
    for seed in range(count):
        if seed in side or not adjacency[seed]:
            continue
        side[seed] = 0
        queue = deque([seed])
        while queue:
            node = queue.popleft()
            want = side[node] ^ 1
            for nxt in sorted(adjacency[node]):
                if nxt not in side:
                    side[nxt] = want
                    queue.append(nxt)
                elif side[nxt] != want:
                    raise NotIntegrated(
                        f"variable group {{{named(nxt)}}} would be labeled both sides"
                    )
    free = [g for g in range(count) if g not in side]
    side.update((g, 2 + 2 * i) for i, g in enumerate(free))
    return [None if g is None else side[g] for g in group], len(free)


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
    scan = formula_vars, matches = _scan(q)
    slot, free = _slots(formula_vars, len(q.rows))
    if matches is None:
        raise NotIntegrated("some constraint does not match exactly one row")
    v, w, *rest = _route(q, scan, slot, 2 + 2 * free)
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
