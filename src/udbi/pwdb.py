"""Possible-worlds model: uncertain databases and their integration.

An uncertain database is a set of tuples together with a nonempty set of
possible worlds (subsets of the tuple set), optionally weighted with exact
rational probabilities.  Two worlds from different sources are compatible
when they agree on every tuple both sources know about; integration keeps
exactly the unions of compatible world pairs.

Probabilistic integration is three steps: compatibility_graph finds the
components (the trace classes), check_prob_constraints sums each
component's two sides into a ComponentSummary, which names its violation
when the masses differ, and integrate_checked weights each compatible pair
by P(D_i) * P(D'_j) / P.  integrate_pw_prob chains the three, and
integrate_pw unions the pairs of each component, unweighted.

An UncertainDB checks its own invariants when it is built (validate_udb
lists them), so the functions below take their arguments as valid; only
check_prob_constraints checks that both sources carry probabilities.

Checks and conversions run one builtin pass per invariant or field over all
worlds (map, zip, set, min, max, sum); a failing check alone is gone over
again world by world, to name its worlds in world order, and repeats is the
one rule, here and in prdb and documents, that names what a list repeats.
No set's or dict's iteration order decides the order of worlds in a result
(UncertainDB.in_world_order, or _pairs_in_world_order for an integration)
or of the lines of a report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, count, product, repeat, starmap
from math import lcm
from operator import add, floordiv, itemgetter, mul, or_

from .errors import EmptyIntegration, ProbConstraintViolation, ValidationError

Tuple = tuple[str, ...]
World = frozenset[Tuple]


def world_key(world: World) -> tuple[Tuple, ...]:
    """Canonical sort key: the world's tuples in lexicographic order."""
    return tuple(sorted(world))


def world_ranks(worlds, tuples: list[Tuple]) -> list[list[int]]:
    """Each world as the sorted positions of its tuples in ``tuples``, a
    sorted list that holds them all.  Positions keep the order of the
    tuples, so the lists compare as the worlds' world_key does."""
    rank = dict(zip(tuples, count()))
    return list(map(sorted, map(map, repeat(rank.__getitem__), worlds)))


def repeats(items) -> list[tuple[int, int]]:
    """(first, i) for each item i of a sequence that equals an earlier one,
    in item order, first being that item's first index: the one repeat rule."""
    if len(set(items)) == len(items):
        return []
    first: dict = {}
    return [(first[item], i) for i, item in enumerate(items) if first.setdefault(item, i) != i]


def format_tuple(t: Tuple) -> str:
    return "(" + ",".join(t) + ")"


def format_world(world: World) -> str:
    return "{" + ", ".join(format_tuple(t) for t in world_key(world)) + "}"


def as_fraction(p):
    """p as a Fraction, or p itself when Fraction() cannot read it, so that
    the constructor that receives it reports it as not a Fraction."""
    if type(p) is Fraction:
        return p
    try:
        return Fraction(p)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError):
        return p


@dataclass(frozen=True)
class UncertainDB:
    """A tuple set, its possible worlds, and optional world probabilities.

    The one type for weighted worlds.  Valid once built: the constructor
    raises ValidationError carrying validate_udb's report, so every
    function here trusts its arguments.  ``integer_probs`` is computed at
    most once per value, by validate_udb's sum check; equality, hashing
    and repr ignore it.
    """

    tuple_set: frozenset[Tuple]
    worlds: tuple[World, ...]
    probs: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        report = validate_udb(self)
        if report:
            raise ValidationError(report)

    @classmethod
    def of(cls, tuple_set, worlds, probs=None) -> "UncertainDB":
        """Build from loose iterables, coercing probabilities to exact
        rationals; one that Fraction() cannot read is reported as not a
        Fraction."""
        return cls(
            frozenset(tuple(t) for t in tuple_set),
            tuple(frozenset(tuple(t) for t in w) for w in worlds),
            None if probs is None else tuple(map(as_fraction, probs)),
        )

    @classmethod
    def in_world_order(cls, tuple_set, worlds, masses=None) -> "UncertainDB":
        """A computed database: ``worlds`` in the canonical order of
        world_key, each with its mass when ``masses`` maps it to one."""
        worlds = tuple(sorted(worlds, key=world_key))
        probs = None if masses is None else tuple(map(masses.__getitem__, worlds))
        return cls(tuple_set, worlds, probs)

    @cached_property
    def integer_probs(self) -> tuple[tuple[int, ...], int]:
        """(n, d) with probs[i] == n[i] / d, d the lcm of the denominators.

        Sums and products of these integers cost no gcd; the caller builds
        one Fraction per result.  Only for a value with probabilities.
        """
        numerators, denominators = zip(*map(Fraction.as_integer_ratio, self.probs))
        denominator = lcm(*denominators)
        scales = map(floordiv, repeat(denominator), denominators)
        return tuple(map(mul, numerators, scales)), denominator


def validate_udb(u: UncertainDB) -> list[str]:
    """Every invariant u breaks, as strings, never raising.

    UncertainDB's constructor raises this report, so a built value gives [].
    Each invariant is one pass over all worlds or probabilities; only one
    that fails is gone over again, item by item, to name its culprits in
    world order.  The report lists the invariants in a fixed order, and the
    items of each in world order.
    """
    report = []
    if 0 in map(len, u.tuple_set):
        report.append("tuple set contains an empty tuple")
    if not u.worlds:
        report.append("database has no possible worlds")
    if not all(map(u.tuple_set.issuperset, u.worlds)):
        for i, w in enumerate(u.worlds):
            if not w <= u.tuple_set:
                report.append(
                    f"world {i} uses tuples outside the tuple set: "
                    + ", ".join(format_tuple(t) for t in sorted(w - u.tuple_set))
                )
    for first, i in repeats(u.worlds):
        report.append(f"worlds {first} and {i} are identical")
    if u.probs is None:
        return report
    if len(u.probs) != len(u.worlds):
        report.append(f"{len(u.probs)} probabilities given for {len(u.worlds)} worlds")
    if not u.probs:
        return report
    # integer_probs is read only once every probability is a Fraction.
    if set(map(type, u.probs)) != {Fraction} or not _in_unit_range(*u.integer_probs):
        exact = True
        for i, p in enumerate(u.probs):
            if not isinstance(p, Fraction):
                report.append(f"probability of world {i} is {p!r}, not a Fraction")
                exact = False
            elif not 0 < p.numerator <= p.denominator:
                report.append(f"probability of world {i} is {p}, outside (0, 1]")
        if not exact:
            return report
    numerators, denominator = u.integer_probs
    if sum(numerators) != denominator:
        report.append(f"probabilities sum to {Fraction(sum(numerators), denominator)} != 1")
    return report


def _in_unit_range(numerators, denominator: int) -> bool:
    """Whether every numerator / denominator lies in (0, 1]."""
    return 0 < min(numerators) and max(numerators) <= denominator


def integrate_pw(s1: UncertainDB, s2: UncertainDB) -> UncertainDB:
    """Integrate two sources world-by-world, ignoring probabilities.

    The result has tuple set T1 | T2 and one world per compatible pair: no
    two pairs give the same union, as a union's tuples in T1 and in T2 are
    its pair's two worlds.  Raises EmptyIntegration if no pair of worlds is
    compatible.  Checks nothing: both sources are valid once built.
    """
    left, right = _pairs_in_world_order(s1, s2, compatibility_graph(s1, s2).components)
    if not left:
        culprit = min((s1.worlds[0] ^ s2.worlds[0]) & s1.tuple_set & s2.tuple_set)
        raise EmptyIntegration(format_tuple(culprit))
    return UncertainDB(s1.tuple_set | s2.tuple_set, _unions(s1, s2, left, right))


def _pairs_in_world_order(s1: UncertainDB, s2: UncertainDB, components):
    """(left, right): the two world indices of each pair of left x right in
    ``components``, ordered by world_key of the pair's union.

    A union's world_ranks are its left world's and those of the tuples of
    its right world that the left source lacks, sorted together; so the
    keys come from ranks of the source worlds, and no union is built to be
    sorted.
    """
    pairs = list(chain.from_iterable(starmap(product, components)))
    left, right = list(map(itemgetter(0), pairs)), list(map(itemgetter(1), pairs))
    tuples = sorted(s1.tuple_set | s2.tuple_set)
    ranks1 = world_ranks(s1.worlds, tuples)
    ranks2 = world_ranks(map((s2.tuple_set - s1.tuple_set).__and__, s2.worlds), tuples)
    keys = list(map(sorted, map(add, map(ranks1.__getitem__, left), map(ranks2.__getitem__, right))))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return list(map(left.__getitem__, order)), list(map(right.__getitem__, order))


def _unions(s1: UncertainDB, s2: UncertainDB, left: list[int], right: list[int]):
    """The union world of each pair (left[k], right[k])."""
    return tuple(map(or_, map(s1.worlds.__getitem__, left), map(s2.worlds.__getitem__, right)))


@dataclass(frozen=True)
class CompatibilityGraph:
    """Bipartite graph over the two sources' world indices.

    ``components`` lists each connected component as (left indices, right
    indices), both sorted; isolated worlds form their own components.  Every
    component is complete bipartite: compatibility is equality of traces on
    the common tuples, so each component is one trace class.  The tests
    check components and edges against the pairwise definition.
    """

    n_left: int
    n_right: int
    components: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Every compatible pair (i, j): all of left x right in each component."""
        return frozenset(
            (i, j) for left, right in self.components for i in left for j in right
        )


def compatibility_graph(s1: UncertainDB, s2: UncertainDB) -> CompatibilityGraph:
    """Edges join compatible world pairs; components are the trace classes,
    sorted, found in O(|W1| + |W2|).

    Worlds are compatible exactly when their traces on the common tuples are
    equal, so a trace class with worlds on both sides is one component; a
    world whose trace the other side lacks is a component of its own.
    Checks nothing: both sources are valid once built.
    """
    common = s1.tuple_set & s2.tuple_set
    classes: dict = {}
    for side, u in enumerate((s1, s2)):
        for i, w in enumerate(u.worlds):
            classes.setdefault(w & common, ([], []))[side].append(i)
    components = []
    for left, right in classes.values():
        if left and right:
            components.append((tuple(left), tuple(right)))
        else:
            components.extend(((i,), ()) for i in left)
            components.extend(((), (j,)) for j in right)
    return CompatibilityGraph(len(s1.worlds), len(s2.worlds), tuple(sorted(components)))


@dataclass(frozen=True)
class ComponentSummary:
    """The two masses of component ``component`` of a compatibility graph;
    ``balanced`` and ``violation`` are read off them, never passed in."""

    component: int
    left: tuple[int, ...]
    right: tuple[int, ...]
    left_sum: Fraction
    right_sum: Fraction

    @property
    def balanced(self) -> bool:
        return self.left_sum == self.right_sum

    @property
    def constant(self) -> Fraction:
        """The shared component probability P; meaningful only when balanced."""
        return self.left_sum

    @property
    def violation(self) -> str | None:
        """Why an unbalanced component breaks integration; None if balanced."""
        if self.balanced:
            return None
        k, left, right = self.component, self.left, self.right
        if left and right:
            return (
                f"component {k}: left worlds {list(left)} sum to {self.left_sum}, "
                f"right worlds {list(right)} sum to {self.right_sum}"
            )
        side, worlds = ("left", left) if left else ("right", right)
        return (  # the side without worlds sums to 0
            f"component {k}: {side} worlds {list(worlds)} carry mass "
            f"{self.left_sum + self.right_sum} but have no compatible partner"
        )


def check_prob_constraints(
    s1: UncertainDB, s2: UncertainDB, graph: CompatibilityGraph
) -> list[ComponentSummary]:
    """Per component of ``graph``, the two sides' probability mass.

    Integration requires the sums to agree exactly, and each unbalanced
    summary names its violation.  This is the one step of the layer that
    checks for probabilities: it raises ValidationError naming the first
    source that carries none.
    """
    for u, role in ((s1, "first source"), (s2, "second source")):
        if u.probs is None:
            raise ValidationError(f"{role} carries no probabilities")
    n1, d1 = s1.integer_probs
    n2, d2 = s2.integer_probs
    out = []
    for k, (left, right) in enumerate(graph.components):
        left_sum = Fraction(sum(map(n1.__getitem__, left)), d1)
        right_sum = Fraction(sum(map(n2.__getitem__, right)), d2)
        out.append(ComponentSummary(k, left, right, left_sum, right_sum))
    return out


def integrate_pw_prob(s1: UncertainDB, s2: UncertainDB) -> UncertainDB:
    """Integrate two probabilistic sources under partial independence.

    The three steps chained: compatibility_graph, check_prob_constraints
    and integrate_checked.  Each compatible pair contributes
    P(D_i) * P(D'_j) / P, where P is the probability constant of the pair's
    component; no two pairs give the same union world.  Raises
    ProbConstraintViolation when any component is unbalanced, which
    includes the case of no compatible pairs, and ValidationError when a
    source carries no probabilities.
    """
    return integrate_checked(s1, s2, check_prob_constraints(s1, s2, compatibility_graph(s1, s2)))


def integrate_checked(s1: UncertainDB, s2: UncertainDB, checks) -> UncertainDB:
    """integrate_pw_prob of two sources, given their check_prob_constraints.

    Raises ProbConstraintViolation when any component is unbalanced, as
    every component is when no pair of worlds is compatible.  Building the
    result raises ValidationError when its probabilities do not sum to 1,
    as when ``checks`` leave out a component of the two sources.

    The arithmetic is in integers.  With P(D_i) = n1[i]/d1 and
    P(D'_j) = n2[j]/d2 over each source's common denominator, a component
    constant P = a/b, and m the lcm of every component's a, the pair (i, j)
    contributes P(D_i) * P(D'_j) / P = n1[i] * n2[j] * b * (m // a) over
    d1 * d2 * m.  Each compatible pair gives its own union world, whose
    tuples in T1 and in T2 are the pair's two worlds, so each output world
    gets one numerator and one Fraction.
    """
    failures = [c for c in checks if not c.balanced]
    if failures:
        raise ProbConstraintViolation(failures)
    n1, d1 = s1.integer_probs
    n2, d2 = s2.integer_probs
    m = lcm(*(summary.constant.numerator for summary in checks))
    # n1[i] * b * (m // a) for each left world i, a/b its component's constant
    shares = {}
    for summary in checks:
        scale = summary.constant.denominator * (m // summary.constant.numerator)
        shares.update(zip(summary.left, map(scale.__mul__, map(n1.__getitem__, summary.left))))
    components = [(summary.left, summary.right) for summary in checks]
    left, right = _pairs_in_world_order(s1, s2, components)
    numerators = list(map(mul, map(shares.__getitem__, left), map(n2.__getitem__, right)))
    # Equal masses share one Fraction.
    denominator = d1 * d2 * m
    fractions = {n: Fraction(n, denominator) for n in set(numerators)}
    return UncertainDB(
        s1.tuple_set | s2.tuple_set,
        _unions(s1, s2, left, right),
        tuple(map(fractions.__getitem__, numerators)),
    )
