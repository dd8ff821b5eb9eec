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
from .errors import MissingVarProb
from .logic import DEFAULT_VAR_CAP
from .prdb import Distribution, EprRelation, expand_pr
from .pwdb import (
    ComponentSummary,
    check_prob_constraints,
    compatibility_graph,
    integrate_checked,
    integrate_pw_prob,
)


@dataclass(frozen=True)
class IntegratedDistribution:
    """Distribution plus the component balance report and the pair that produced it."""

    distribution: Distribution
    components: tuple[ComponentSummary, ...]
    pair_used: PrPair


def _require_var_probs(q: EprRelation) -> None:
    have = set() if q.var_probs is None else set(q.var_probs)
    missing = set(q.variables()) - have
    if missing:
        raise MissingVarProb(missing)


def epr_distribution(q: EprRelation, cap: int = DEFAULT_VAR_CAP) -> IntegratedDistribution:
    """Exact world probabilities of q under partial independence.

    Pipeline: decompose with the default partition, expand both sides,
    check the per-component probability balance, then weight each
    compatible world pair by P(D_i) * P(D'_j) / P and merge duplicates.
    """
    _require_var_probs(q)
    pair = enumerate_pairs(q, limit=1)[0]
    udb_r, _ = expand_pr(pair.r, cap)
    udb_s, _ = expand_pr(pair.s, cap)
    checks = check_prob_constraints(udb_r, udb_s, compatibility_graph(udb_r, udb_s))
    joint = integrate_checked(udb_r, udb_s, checks)
    distribution = Distribution.of(zip(joint.worlds, joint.probs))
    return IntegratedDistribution(distribution, tuple(c for c, _ in checks), pair)


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
    return _agrees_with(q, epr_distribution(q, cap), cap, limit)


def _agrees_with(q: EprRelation, result: IntegratedDistribution, cap: int, limit=None) -> bool:
    """True iff pairs 1.. of enumerate_pairs(q, limit) give the distribution
    that epr_distribution computed from pair 0 as ``result``."""
    baseline = result.distribution.as_dict()
    for pair in enumerate_pairs(q, limit)[1:]:
        udb_r, _ = expand_pr(pair.r, cap)
        udb_s, _ = expand_pr(pair.s, cap)
        joint = integrate_pw_prob(udb_r, udb_s)
        if dict(zip(joint.worlds, joint.probs)) != baseline:
            return False
    return True
