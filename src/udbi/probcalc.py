"""Exact distribution of an integrated epr-relation.

The relation is partitioned once into its parts, both sides of a source
pair are expanded to possible worlds, and the integrated probabilities
follow the closed form P(D_i) * P(D'_j) / P per compatibility component.
Pairs differ only in the side each free group sits on, and a free group
shares no variable and no tuple with the rest of either side, so each
side's distribution is the product of its parts' (the
decomposable-conjunction rule) and every pair gives the identical
distribution.  epr_distribution expands each part once, the two cores and
each free group, and merges no pair; asked to compare, it checks pair 0
against each free group flipped alone, which puts every part on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from . import pwdb
from .decompose import Parts, partition
from .logic import DEFAULT_VAR_CAP
from .errors import ExpansionTooLarge, MissingVarProb
from .prdb import EprRelation, PrRelation, expand_pr
from .pwdb import (
    ComponentSummary,
    UncertainDB,
    check_prob_constraints,
    compatibility_graph,
    integrate_checked,
    integrate_pw_prob,
)


@dataclass(frozen=True)
class IntegratedDistribution:
    """Distribution plus the component balance report, the parts of q whose
    pair 0 produced it, and whether the other decompositions checked agree
    with it.

    The distribution is integrate_checked's UncertainDB: worlds in canonical
    order, probabilities summing to 1.  ``parts.pair(0)`` merges the pair
    used, for a caller that shows it.
    """

    distribution: UncertainDB
    components: tuple[ComponentSummary, ...]
    parts: Parts
    agreed: bool


def epr_distribution(
    q: EprRelation, cap: int = DEFAULT_VAR_CAP, compare: bool = False
) -> IntegratedDistribution:
    """Exact world probabilities of q under partial independence.

    Pipeline: partition q once into its parts, expand each part of pair 0
    (the default pair) once, take each side's distribution as the product
    of its parts', check the per-component probability balance, then
    weight each compatible world pair by P(D_i) * P(D'_j) / P and merge
    duplicates.  Every distribution is an UncertainDB, valid once built.
    With ``compare``, ``agreed`` is True iff each pair 1 << i, free group i
    flipped alone, gives the identical distribution in the possible-worlds
    model, each compared as it is produced from the same parts; without it
    no pair is compared and ``agreed`` is True.  Raises MissingVarProb
    first, before the cap and recognition, for the variables of q without a
    probability: when q carries none here, and through partition when it
    carries some, as an EprRelation may.  The cap counts the
    variables of a whole side, checked for pair 0's r side, then its s side,
    then each flip's r and s side in group order, each before that side is
    expanded or multiplied out.
    """
    if q.var_probs is None and q.names:
        raise MissingVarProb(q.names)
    parts = partition(q)
    expanded: dict[int, UncertainDB] = {}  # id of a part -> its worlds

    def distribution(side: list[PrRelation]) -> UncertainDB:
        size = sum(len(part.names) for part in side)
        if size > cap:
            raise ExpansionTooLarge(size, cap)
        for part in side:
            if id(part) not in expanded:
                expanded[id(part)] = expand_pr(part, cap)[0]
        # Parts share no tuple, so their integration is their product: one
        # trace class, with P = 1.  Called through pwdb, so that replacing this
        # module's integrate_pw_prob, which compares pairs, leaves the products alone.
        return reduce(pwdb.integrate_pw_prob, [expanded[id(part)] for part in side])

    r, s = parts.sides(0)
    udb_r, udb_s = distribution(r), distribution(s)
    checks = check_prob_constraints(udb_r, udb_s, compatibility_graph(udb_r, udb_s))
    joint = integrate_checked(udb_r, udb_s, checks)
    agreed = not compare or all(
        integrate_pw_prob(*map(distribution, parts.sides(1 << i))) == joint
        for i in range(len(parts.free))
    )
    return IntegratedDistribution(joint, tuple(checks), parts, agreed)


def cross_check(q: EprRelation, cap: int = DEFAULT_VAR_CAP) -> bool:
    """True iff every decomposition of q gives one distribution; see epr_distribution."""
    return epr_distribution(q, cap, compare=True).agreed
