"""Exact distribution of an integrated epr-relation.

The relation is decomposed into a source pair, both sides are expanded to
possible worlds, and the integrated probabilities follow the closed form
P(D_i) * P(D'_j) / P per compatibility component.  Every alternative
decomposition must give the identical distribution; epr_distribution
compares as many as its limit asks for, and cross_check compares them all.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decompose import PrPair, enumerate_pairs
from .logic import DEFAULT_VAR_CAP
from .errors import MissingVarProb
from .prdb import EprRelation, expand_pr
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

    Pipeline: decompose once with enumerate_pairs(q, limit), expand both
    sides of pair 0 (the default partition), check the per-component
    probability balance, then weight each compatible world pair by
    P(D_i) * P(D'_j) / P and merge duplicates.  Both expanded sides are
    UncertainDBs, valid once built.  ``agreed`` is True iff pairs 1.. give
    the identical distribution in the possible-worlds model; the default
    limit builds pair 0 alone, as does limit 0, and None builds every pair.
    Raises MissingVarProb first, before the cap and recognition, for the
    variables of q without a probability: an EprRelation may leave some out.
    """
    missing = q.names - (q.var_probs or {}).keys()
    if missing:
        raise MissingVarProb(missing)
    pairs = enumerate_pairs(q, None if limit is None else max(limit, 1))
    pair = pairs[0]
    udb_r, _ = expand_pr(pair.r, cap)
    udb_s, _ = expand_pr(pair.s, cap)
    checks = check_prob_constraints(udb_r, udb_s, compatibility_graph(udb_r, udb_s))
    joint = integrate_checked(udb_r, udb_s, checks)
    agreed = all(
        integrate_pw_prob(expand_pr(other.r, cap)[0], expand_pr(other.s, cap)[0]) == joint
        for other in pairs[1:]
    )
    return IntegratedDistribution(joint, tuple(c for c, _ in checks), pair, agreed)


def cross_check(q: EprRelation, cap: int = DEFAULT_VAR_CAP) -> bool:
    """True iff every decomposition of q yields the identical exact distribution."""
    return epr_distribution(q, cap, None).agreed
