"""Exact distribution of an integrated epr-relation.

The relation is decomposed into a source pair, both sides are expanded to
possible worlds, and the integrated probabilities follow the closed form
P(D_i) * P(D'_j) / P per compatibility component.  Every alternative
decomposition gives the identical distribution: the pairs differ only in
the side each free group sits on, and a free group shares no variable and no
tuple with the rest of either side, so each side's distribution is the
product of its parts' (the decomposable-conjunction rule).  epr_distribution
expands each part once, the two cores and each free group, and takes every
side's distribution as that product; it compares as many pairs as its limit
asks for, and cross_check compares them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from . import pwdb
from .decompose import PrPair, split
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
    """Distribution plus the component balance report, the pair that produced
    it, and whether the other decompositions checked agree with it.

    The distribution is integrate_checked's UncertainDB: worlds in canonical
    order, probabilities summing to 1.
    """

    distribution: UncertainDB
    components: tuple[ComponentSummary, ...]
    pair_used: PrPair
    agreed: bool


def epr_distribution(
    q: EprRelation, cap: int = DEFAULT_VAR_CAP, limit: int | None = 1
) -> IntegratedDistribution:
    """Exact world probabilities of q under partial independence.

    Pipeline: split q once into its parts, expand each part of pair 0 (the
    default partition) once, take each side's distribution as the product
    of its parts', check the per-component probability balance, then
    weight each compatible world pair by P(D_i) * P(D'_j) / P and merge
    duplicates.  Every distribution is an UncertainDB, valid once built.
    ``agreed`` is True iff pairs 1.. give the identical distribution in the
    possible-worlds model, each compared as it is produced from the same
    parts; the default limit compares none, as does limit 0, and None
    compares every pair.  Raises MissingVarProb first, before the cap and
    recognition, for the variables of q without a probability: an
    EprRelation may leave some out.  The cap counts the variables of a whole
    side, checked for pair 0's r side, then its s side, then each later pair
    in order, each before that side is expanded or multiplied out.
    """
    missing = q.names - (q.var_probs or {}).keys()
    if missing:
        raise MissingVarProb(missing)
    parts = split(q)
    total = 1 << len(parts.free)
    count = total if limit is None else min(limit, total)
    expanded: dict[int, UncertainDB] = {}  # id of a part -> its worlds

    def distribution(side: list[PrRelation]) -> UncertainDB:
        size = sum(len(part.names) for part in side)
        if size > cap:
            raise ExpansionTooLarge(size, cap)
        for part in side:
            if id(part) not in expanded:
                expanded[id(part)] = expand_pr(part, cap)[0]
        # Parts share no tuple, so their integration is their product: one
        # trace class, with P = 1 on both sides.  Called through pwdb, so
        # that replacing this module's integrate_pw_prob, which compares the
        # pairs, leaves the products as they are.
        return reduce(pwdb.integrate_pw_prob, [expanded[id(part)] for part in side])

    r, s = parts.sides(0)
    udb_r, udb_s = distribution(r), distribution(s)
    checks = check_prob_constraints(udb_r, udb_s, compatibility_graph(udb_r, udb_s))
    joint = integrate_checked(udb_r, udb_s, checks)
    agreed = all(
        integrate_pw_prob(*map(distribution, parts.sides(k))) == joint for k in range(1, count)
    )
    return IntegratedDistribution(joint, tuple(c for c, _ in checks), parts.pair(0), agreed)


def cross_check(q: EprRelation, cap: int = DEFAULT_VAR_CAP) -> bool:
    """True iff every decomposition of q yields the identical exact distribution."""
    return epr_distribution(q, cap, None).agreed
