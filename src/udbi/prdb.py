"""Probabilistic relations: tuples guarded by event formulas.

A pr-relation lists rows t@f where f is a propositional formula over
independent boolean event variables with known probabilities.  Every truth
assignment selects the set of tuples whose formulas hold, so a pr-relation
denotes an uncertain database.  An epr-relation adds event constraints
f = g that rule out assignments where the two sides disagree; constraints
are what integrating two sources produces for their common tuples.
PrRelation is the EprRelation subclass whose constraints are empty.

A relation checks its own invariants when it is built, on every route (the
constructors list them), so the functions below take their arguments as
valid.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from operator import attrgetter

from .errors import (
    ExpansionTooLarge,
    MissingVarProb,
    NoValidAssignment,
    ValidationError,
)
from .logic import (
    DEFAULT_VAR_CAP,
    Formula,
    Iff,
    Not,
    Variable,
    conjoin,
    disjoin,
    is_segment,
    is_valid_name,
    iter_vars,
    rename_vars,
    shannon_leaves,
)
from .pwdb import Tuple, UncertainDB, World, as_fraction, format_tuple, repeats


@dataclass(frozen=True, slots=True)
class PrTuple:
    """One row: a data tuple guarded by its event formula."""

    tuple: Tuple
    event: Formula


def _check_var_probs(var_probs: dict, names: Set[str]) -> None:
    """Raise ValidationError listing, in var_probs order, each name that is not
    a variable name, each probability that is not a Fraction, and each one
    outside (0, 1).  A name in ``names``, a formula variable of the relation,
    is one already.

    One pass per invariant: the names outside ``names`` are tested, and each
    distinct probability object once, as a document read shares one
    Fraction per text.  Only when a check fails are the entries gone over
    one by one, to name them in var_probs order."""
    keys, probs = var_probs.keys(), var_probs.values()
    distinct = dict(zip(map(id, probs), probs)).values()
    if (keys <= names or all(map(is_valid_name, map(str, keys - names)))) and all(
        isinstance(p, Fraction) and 0 < p.numerator < p.denominator for p in distinct
    ):
        return
    bad = []
    for name, p in var_probs.items():
        if name not in names and not is_valid_name(str(name)):
            bad.append(f"invalid variable name {name!r} in probabilities")
        elif not isinstance(p, Fraction):
            bad.append(f"probability of variable {name} is {p!r}, not a Fraction")
        elif not 0 < p.numerator < p.denominator:
            bad.append(f"probability of variable {name} is {p}, outside (0, 1)")
    raise ValidationError(bad)


def _coerce_var_probs(var_probs) -> dict | None:
    """var_probs with each valid name as a str and its probability as a
    Fraction; an invalid name, and a probability that Fraction() cannot read,
    keep their entry for the constructor to report."""
    if var_probs is None:
        return None
    coerced = {}
    for name, p in var_probs.items():
        if is_valid_name(str(name)):
            name, p = str(name), as_fraction(p)
        coerced[name] = p
    return coerced


_row_tuple = attrgetter("tuple")


def _check_rows(rows: tuple[PrTuple, ...]) -> None:
    shared = {i: first for first, i in repeats(list(map(_row_tuple, rows)))}
    bad = []
    for i, row in enumerate(rows):
        if len(row.tuple) == 0:
            bad.append(f"row {i} has an empty tuple")
        if i in shared:
            bad.append(f"rows {shared[i]} and {i} share the tuple {format_tuple(row.tuple)}")
    if bad:
        raise ValidationError(bad)


def _coerce_rows(rows) -> tuple[PrTuple, ...]:
    """Rows given as PrTuples or (tuple, formula) pairs, as PrTuples."""
    return tuple(
        row if isinstance(row, PrTuple) else PrTuple(tuple(row[0]), row[1])
        for row in rows
    )


@dataclass(frozen=True)
class EprRelation:
    """Rows, event constraints lhs = rhs, and each event variable's probability.

    Valid once built, on every route: the constructor raises ValidationError
    for a row with an empty tuple, two rows sharing a tuple, and a
    probability whose name is not a variable name, that is not a Fraction,
    or that lies outside (0, 1).  ``var_probs`` may leave variables out.

    ``names`` is the set of variables of the row formulas and constraint
    sides, fixed when the relation is built: a builder that already knows it
    passes it (a document read, integrate_pr, a decomposed pair,
    encode_pw), and otherwise __post_init__ walks the formulas once.  It is
    never mutated, and equality ignores it.
    """

    rows: tuple[PrTuple, ...]
    constraints: tuple[tuple[Formula, Formula], ...] = ()
    var_probs: dict[str, Fraction] | None = None
    names: Set[str] = field(default=None, compare=False, repr=False)  # None: walk the formulas

    def __post_init__(self):
        if self.names is None:
            formulas = [row.event for row in self.rows]
            formulas += (side for pair in self.constraints for side in pair)
            object.__setattr__(self, "names", frozenset(n for f in formulas for n in iter_vars(f)))
        tuples = set(map(_row_tuple, self.rows))
        if len(tuples) < len(self.rows) or () in tuples:
            _check_rows(self.rows)  # lists every fault in row order
        if self.var_probs is not None:
            _check_var_probs(self.var_probs, self.names)

    @classmethod
    def of(cls, rows, constraints=(), var_probs=None) -> "EprRelation":
        """Build from loose input: rows as PrTuples or (tuple, formula) pairs,
        constraints as pairs, and probabilities that Fraction() reads; one it
        cannot read is reported as not a Fraction."""
        constraints = tuple((lhs, rhs) for lhs, rhs in constraints)
        return cls(_coerce_rows(rows), constraints, _coerce_var_probs(var_probs))

    def variables(self) -> tuple[str, ...]:
        """Variables of row formulas and constraint sides, sorted."""
        return tuple(sorted(self.names))

    def tuples(self) -> frozenset[Tuple]:
        return frozenset(row.tuple for row in self.rows)


@dataclass(frozen=True)
class PrRelation(EprRelation):
    """An epr-relation with no constraints: rows plus the probability of
    each event variable being true.

    Besides EprRelation's checks, the constructor raises ValidationError for
    constraints, first, and for a variable without a probability when
    ``var_probs`` is given, last.
    """

    def __post_init__(self):
        if self.constraints:
            raise ValidationError("a pr-relation has no constraints")
        super().__post_init__()
        var_probs, names = self.var_probs, self.names
        # The keys' >= tests each name against var_probs and copies neither side.
        if var_probs is not None and not var_probs.keys() >= names:
            missing = sorted(name for name in names if name not in var_probs)
            raise ValidationError("event variables without probabilities: " + ", ".join(missing))

    @classmethod
    def of(cls, rows, var_probs=None) -> "PrRelation":
        """EprRelation.of without constraints."""
        return cls(_coerce_rows(rows), var_probs=_coerce_var_probs(var_probs))


# --- expansion ----------------------------------------------------------------

def expand_pr(
    r: PrRelation, cap: int = DEFAULT_VAR_CAP
) -> tuple[UncertainDB, tuple[tuple[World, Fraction], ...]]:
    """Every world of r with its exact probability, by Shannon expansion:
    the UncertainDB and its (world, probability) pairs, in canonical order.

    Walks logic.shannon_leaves over the rows: a leaf's mass is the product of
    P(a) or 1 - P(a) over the variables on its path, and the variables never
    branched on sum out to mass 1.  Leaves reaching the same world
    accumulate, so the cost follows the branch nodes times formula size,
    not 2^n.  Raises MissingVarProb when r has variables and no
    ``var_probs`` (the constructor refuses partial ones), and then
    ExpansionTooLarge when the variable count exceeds the cap.
    """
    names = r.variables()
    if names and r.var_probs is None:
        raise MissingVarProb(names)
    if len(names) > cap:
        raise ExpansionTooLarge(len(names), cap)
    weights = {name: (1 - r.var_probs[name], r.var_probs[name]) for name in names}
    acc: dict = {}
    for chosen, path in shannon_leaves((row.tuple, row.event) for row in r.rows):
        factors = [weights[name][value] for name, value in path]
        mass = Fraction(prod(f.numerator for f in factors), prod(f.denominator for f in factors))
        world = frozenset(chosen)
        acc[world] = acc.get(world, 0) + mass
    udb = UncertainDB.in_world_order(r.tuples(), acc.keys(), acc)
    return udb, tuple(zip(udb.worlds, udb.probs))


def expand_epr(q: EprRelation, cap: int = DEFAULT_VAR_CAP) -> UncertainDB:
    """The worlds reachable by constraint-respecting assignments, without
    probabilities: an UncertainDB over q's tuples, worlds in canonical order.

    Walks logic.shannon_leaves over the rows under the constraints lhs <-> rhs;
    leaves reaching the same world give it once.  Raises ExpansionTooLarge
    when the variable count exceeds the cap, and then NoValidAssignment when
    the constraints rule out every assignment.
    """
    if len(q.names) > cap:
        raise ExpansionTooLarge(len(q.names), cap)
    rows = ((row.tuple, row.event) for row in q.rows)
    constraints = [Iff(lhs, rhs) for lhs, rhs in q.constraints]
    worlds = {frozenset(chosen) for chosen, _ in shannon_leaves(rows, constraints)}
    if not worlds:
        raise NoValidAssignment()
    return UncertainDB.in_world_order(q.tuples(), worlds)


# --- integration ---------------------------------------------------------------

def _share_a_name(r: PrRelation, s: PrRelation) -> bool:
    """True when a variable or probability name of r is also one of s's."""
    r_sets = (r.names, (r.var_probs or {}).keys())
    s_sets = (s.names, (s.var_probs or {}).keys())
    return any(not a.isdisjoint(b) for a in r_sets for b in s_sets)


def _rename_relation(r: PrRelation, prefix: str) -> PrRelation:
    rows = tuple(PrTuple(row.tuple, rename_vars(row.event, prefix)) for row in r.rows)
    probs = None
    if r.var_probs is not None:
        probs = {f"{prefix}::{name}": p for name, p in r.var_probs.items()}
    names = frozenset(f"{prefix}::{name}" for name in r.names)
    return PrRelation(rows, var_probs=probs, names=names)


def integrate_pr(r: PrRelation, s: PrRelation) -> EprRelation:
    """Integrate two pr-relations into an epr-relation.

    Tuples private to one source keep their formulas.  Each common tuple is
    kept once, with the second source's formula, and contributes the event
    constraint f = g pairing the two sources' formulas.  When the raw
    variable sets intersect, both sides are renamed apart first.
    """
    if _share_a_name(r, s):
        r = _rename_relation(r, "s1")
        s = _rename_relation(s, "s2")
    left = {row.tuple: row for row in r.rows}
    right = {row.tuple: row for row in s.rows}
    rows = []
    constraints = []
    for t in sorted(set(left) | set(right)):
        if t in right:
            rows.append(right[t])
            if t in left:
                constraints.append((left[t].event, right[t].event))
        else:
            rows.append(left[t])
    if r.var_probs is None and s.var_probs is None:
        var_probs = None
    else:
        var_probs = {**(r.var_probs or {}), **(s.var_probs or {})}
    return EprRelation(tuple(rows), tuple(constraints), var_probs, r.names | s.names)


# --- event-variable formulas ----------------------------------------------------

def evf(rel, world) -> Formula:
    """The formula selecting exactly the assignments that yield this world.

    Constraints contribute lhs <-> rhs conjuncts first, then each row
    contributes its event or its negation depending on world membership.
    """
    world = frozenset(tuple(t) for t in world)
    extra = world - rel.tuples()
    if extra:
        raise ValidationError(
            "world uses tuples absent from the relation: "
            + ", ".join(format_tuple(t) for t in sorted(extra))
        )
    parts = [Iff(lhs, rhs) for lhs, rhs in rel.constraints]
    for row in rel.rows:
        parts.append(row.event if row.tuple in world else Not(row.event))
    return conjoin(parts)


# --- encoding a possible-worlds database ------------------------------------------

def encode_pw(u: UncertainDB, var_base: str = "x") -> PrRelation:
    """Encode a probabilistic uncertain database as an equivalent pr-relation.

    Fresh chain variables x1..x(n-1) select which world holds: world i is
    picked by !x1 & .. & !x(i-1) & xi (the last world by all-negated), with
    P(xi) = P(Di) / (1 - P(D1) - .. - P(D(i-1))) so each selector's mass is
    exactly P(Di).  A tuple's event is the disjunction of the selectors of
    the worlds containing it.  Round-tripping through expand_pr recovers the
    input distribution exactly.  u is valid once built, so the checks made
    are the variable base, that u carries probabilities, and that each
    selector probability falls in (0, 1), which valid world probabilities
    guarantee; each failure raises ValidationError.
    """
    if not is_segment(var_base):
        raise ValidationError(f"invalid variable base {var_base!r}")
    if u.probs is None:
        raise ValidationError("source carries no probabilities")
    n = len(u.worlds)
    names = [f"{var_base}{i}" for i in range(1, n)]
    var_probs = {}
    remaining = Fraction(1)
    for i, name in enumerate(names):
        p = u.probs[i] / remaining
        if not 0 < p < 1:
            raise ValidationError(
                f"selector probability of {name} is {p}, outside (0, 1)"
            )
        var_probs[name] = p
        remaining -= u.probs[i]
    selectors = []
    negated: list[Formula] = []
    for i in range(n):
        if i < n - 1:
            selectors.append(conjoin(negated + [Variable(names[i])]))
            negated.append(Not(Variable(names[i])))
        else:
            selectors.append(conjoin(negated))
    rows = tuple(
        PrTuple(t, disjoin(selectors[i] for i in range(n) if t in u.worlds[i]))
        for t in sorted(u.tuple_set)
    )
    # Every chain variable occurs: x(i+1) is in the selector of every world
    # from world i on, and two of those worlds cannot both be empty.
    return PrRelation(rows, var_probs=var_probs, names=frozenset(names))
