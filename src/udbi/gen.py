"""Seeded random sources for ``udbi gen``: formulas, pr-relation pairs, consistent pw pairs.

Everything here is deterministic in the seed, so generated cases can serve
as reproducible test corpora.  Consistency matters for probabilistic
integration: gen_consistent_pw_pair builds both sources from one hidden
joint distribution so that the per-component probability balance holds by
construction.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .logic import And, FALSE, Formula, Iff, Implies, Not, Or, TRUE, Variable
from .prdb import PrRelation, PrTuple
from .pwdb import UncertainDB, world_key


def _rng(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def gen_prob(rng: random.Random) -> Fraction:
    """A rational strictly between 0 and 1 with a small denominator."""
    den = rng.randint(2, 12)
    return Fraction(rng.randint(1, den - 1), den)


def gen_prob_vector(rng: random.Random, n: int) -> list[Fraction]:
    """n positive rationals summing exactly to 1."""
    weights = [rng.randint(1, 9) for _ in range(n)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def gen_formula(rng: random.Random, names, max_depth: int = 2) -> Formula:
    """A random formula over the given variable names (constants allowed)."""
    names = list(names)
    if max_depth == 0 or rng.random() < 0.35:
        if names and rng.random() < 0.85:
            return Variable(rng.choice(names))
        return TRUE if rng.random() < 0.5 else FALSE
    kind = rng.choices([Not, And, Or, Implies, Iff], weights=[25, 30, 30, 8, 7])[0]
    if kind is Not:
        return Not(gen_formula(rng, names, max_depth - 1))
    left = gen_formula(rng, names, max_depth - 1)
    right = gen_formula(rng, names, max_depth - 1)
    return kind(left, right)


def gen_pr_pair(
    seed,
    max_tuples: int = 4,
    max_vars: int = 3,
    max_depth: int = 2,
    overlap: float = 0.6,
) -> tuple[PrRelation, PrRelation]:
    """Two pr-relations with disjoint variables, biased toward common tuples.

    With probability ``overlap`` the sources share at least one tuple; with
    overlap 0 their tuple sets are disjoint.
    """
    rng = _rng(seed)
    common_pool = [(f"c{i}",) for i in range(max_tuples)]
    n_left = rng.randint(1, max_tuples)
    n_right = rng.randint(1, max_tuples)
    n_common = 0
    if overlap > 0 and rng.random() < overlap:
        n_common = rng.randint(1, min(n_left, n_right))
    shared = rng.sample(common_pool, n_common)
    left_tuples = shared + [(f"l{i}",) for i in range(n_left - n_common)]
    right_tuples = shared + [(f"r{i}",) for i in range(n_right - n_common)]

    def relation(tuples, base, count):
        names = [f"{base}{i + 1}" for i in range(count)]
        rows = [
            PrTuple(t, gen_formula(rng, names, max_depth))
            for t in sorted(tuples)
        ]
        probs = {name: gen_prob(rng) for name in names}
        return PrRelation.of(rows, probs)

    return (
        relation(left_tuples, "a", rng.randint(1, max_vars)),
        relation(right_tuples, "b", rng.randint(1, max_vars)),
    )


def gen_consistent_pw_pair(
    seed, max_common: int = 3, max_private: int = 2, max_scenarios: int = 4
) -> tuple[UncertainDB, UncertainDB]:
    """Two probabilistic sources whose integration constraints hold exactly.

    A hidden joint distribution over scenarios (shared part, left-private
    part, right-private part) is drawn first; each source is its marginal.
    Worlds sharing a common-tuple trace then carry equal mass on both sides
    by construction.
    """
    rng = _rng(seed)
    common_pool = [(f"c{i}",) for i in range(max_common)]
    left_pool = [(f"l{i}",) for i in range(max_private)]
    right_pool = [(f"r{i}",) for i in range(max_private)]
    scenarios = []
    seen = set()
    for _ in range(rng.randint(1, max_scenarios)):
        shared = frozenset(t for t in common_pool if rng.random() < 0.5)
        left = frozenset(t for t in left_pool if rng.random() < 0.4)
        right = frozenset(t for t in right_pool if rng.random() < 0.4)
        if (shared, left, right) not in seen:
            seen.add((shared, left, right))
            scenarios.append((shared, left, right))
    masses = gen_prob_vector(rng, len(scenarios))

    def marginal(world_of, pool) -> UncertainDB:
        acc: dict = {}
        for (shared, left, right), mass in zip(scenarios, masses):
            world = world_of(shared, left, right)
            key = world_key(world)
            if key in acc:
                acc[key] = (world, acc[key][1] + mass)
            else:
                acc[key] = (world, mass)
        ordered = [acc[key] for key in sorted(acc)]
        return UncertainDB(
            frozenset(common_pool) | frozenset(pool),
            tuple(w for w, _ in ordered),
            tuple(p for _, p in ordered),
        )

    return (
        marginal(lambda shared, left, right: shared | left, left_pool),
        marginal(lambda shared, left, right: shared | right, right_pool),
    )
