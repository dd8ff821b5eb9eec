"""Exact distribution of an integrated epr-relation.

The relation is decomposed into a source pair, both sides are expanded to
possible worlds, and the integrated probabilities follow the closed form
P(D_i) * P(D'_j) / P per compatibility component.  Every alternative
decomposition must give the identical distribution; cross_check verifies
that exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decompose import PrPair, enumerate_pairs
from .logic import DEFAULT_VAR_CAP
from .prdb import EprRelation, expand_pr, require_var_probs
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
    """Distribution plus the component balance report and the pair that produced it.

    The distribution is integrate_checked's UncertainDB: worlds in canonical
    order, probabilities summing to 1.
    """

    distribution: UncertainDB
    components: tuple[ComponentSummary, ...]
    pair_used: PrPair


def epr_distribution(q: EprRelation, cap: int = DEFAULT_VAR_CAP) -> IntegratedDistribution:
    """Exact world probabilities of q under partial independence.

    Pipeline: decompose with the default partition, expand both sides,
    check the per-component probability balance, then weight each
    compatible world pair by P(D_i) * P(D'_j) / P and merge duplicates.
    Both expanded sides are UncertainDBs, valid once built.
    """
    return _distribution_and_agreement(q, cap, 1)[0]


def cross_check(
    q: EprRelation,
    var_probs=None,
    cap: int = DEFAULT_VAR_CAP,
    limit: int | None = None,
) -> bool:
    """True iff every decomposition of q yields the identical exact distribution.

    ``var_probs`` (optional) replaces the relation's own probabilities.
    Each pair from enumerate_pairs is expanded and integrated in the
    possible-worlds model and compared world-by-world against the default
    pipeline's answer.
    """
    if var_probs is not None:
        q = EprRelation.of(q.rows, q.constraints, var_probs)
    return _distribution_and_agreement(q, cap, limit)[1]


def _distribution_and_agreement(
    q: EprRelation, cap: int, limit: int | None
) -> tuple[IntegratedDistribution, bool]:
    """epr_distribution(q, cap), and whether pairs 1.. of
    enumerate_pairs(q, limit) all give its distribution.

    q is decomposed once; pair 0 is always built, even when limit is 0.
    """
    require_var_probs(q, q.variables())
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
    return IntegratedDistribution(joint, tuple(c for c, _ in checks), pair), agreed
