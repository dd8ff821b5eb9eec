"""End-to-end exact distributions for integrated epr-relations."""

import io
import json
import random
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    FREE_GROUP_PROBS,
    OFFICE_DISTRIBUTION,
    free_group_epr,
    free_group_relations,
    gen_integrated_epr,
    outcome,
    office_epr,
    office_pr_sources,
    roster_pr_sources,
)
from reach import tracing
from udbi import decompose, logic, prdb, probcalc, pwdb
from udbi.cli import main
from udbi.decompose import PrPair, enumerate_pairs, partition
from udbi.errors import ExpansionTooLarge, MissingVarProb, NotIntegrated, ProbConstraintViolation
from udbi.gen import gen_consistent_pw_pair, gen_pr_pair
from udbi.logic import And, Variable
from udbi.prdb import EprRelation, encode_pw, expand_epr, expand_pr, integrate_pr
from udbi.pwdb import integrate_pw_prob
from udbi.probcalc import cross_check, epr_distribution


def test_office_distribution_is_exact():
    joint = epr_distribution(office_epr()).distribution
    assert dict(zip(joint.worlds, joint.probs)) == OFFICE_DISTRIBUTION
    assert sum(joint.probs, Fraction(0)) == 1


def test_office_components_and_pair_are_reported():
    r1, r2 = office_pr_sources()
    result = epr_distribution(office_epr())
    assert [c.constant for c in result.components] == [Fraction(4, 5), Fraction(1, 5)]
    assert all(c.balanced for c in result.components)
    assert result.parts.pair(0) == PrPair(r2, r1)


def test_distribution_support_equals_the_valid_assignment_worlds():
    q = office_epr()
    assert epr_distribution(q).distribution.worlds == expand_epr(q).worlds


def test_constraint_free_relations_reduce_to_plain_expansion():
    r1, _ = office_pr_sources()
    q = EprRelation.of(r1.rows, (), r1.var_probs)
    _, expanded = expand_pr(r1)
    joint = epr_distribution(q).distribution
    assert dict(zip(joint.worlds, joint.probs)) == dict(expanded)


def test_free_groups_do_not_change_the_answer():
    q = free_group_epr(FREE_GROUP_PROBS)
    assert cross_check(q)


def test_cross_check_accepts_the_office_relation():
    assert cross_check(office_epr())


def test_cross_check_with_no_other_pair_accepts_a_recognized_relation():
    # Without compare no pair is compared; office has no free group, so
    # with compare there is no flip to compare either.
    for q in (office_epr(), free_group_epr(FREE_GROUP_PROBS)):
        assert epr_distribution(q).agreed is True
    assert epr_distribution(office_epr(), compare=True).agreed is True


def test_comparing_flips_each_free_group_alone(monkeypatch):
    # With compare, pair 0 is compared with pair 1 << i for each free group
    # i, in group order, and with no other pair.
    compared = []
    original = probcalc.integrate_pw_prob
    monkeypatch.setattr(
        probcalc, "integrate_pw_prob", lambda *sides: compared.append(sides) or original(*sides)
    )
    relations = [free_group_epr(FREE_GROUP_PROBS)]
    relations += [gen_integrated_epr(seed, blocks) for seed in range(2) for blocks in range(5)]
    for q in relations:
        pairs = enumerate_pairs(q)
        flips = [pairs[1 << i] for i in range(len(partition(q).free))]
        compared.clear()
        result = epr_distribution(q, compare=True)
        assert result.agreed is True
        assert compared == [(expand_pr(p.r)[0], expand_pr(p.s)[0]) for p in flips]
        compared.clear()
        assert epr_distribution(q) == result and compared == []
        assert cross_check(q) is True and len(compared) == len(flips)


def test_each_side_distribution_is_the_product_of_its_parts():
    # A free group shares no variable and no tuple with the rest of its
    # side, so the side's worlds are the products of its parts' worlds.
    for q in free_group_relations():
        parts = partition(q)
        for k, pair in enumerate(enumerate_pairs(q)):
            for side, merged in zip(parts.sides(k), (pair.r, pair.s)):
                product = reduce(integrate_pw_prob, [expand_pr(p)[0] for p in side])
                assert product == expand_pr(merged)[0]


def test_distribution_matches_expanding_both_sides_of_every_pair():
    # Oracle: the distribution from parts, and the agreement of every pair,
    # against integrating the two expanded sides of each pair built whole.
    for q in free_group_relations():
        got = outcome(epr_distribution, q, compare=True)
        pairs = enumerate_pairs(q)
        want = outcome(integrate_pw_prob, expand_pr(pairs[0].r)[0], expand_pr(pairs[0].s)[0])
        if isinstance(want, tuple):
            assert got == want
            continue
        assert got.distribution == want and got.agreed is True
        assert got.parts.pair(0) == pairs[0]
        for pair in pairs[1:]:
            assert integrate_pw_prob(expand_pr(pair.r)[0], expand_pr(pair.s)[0]) == want


def test_the_cap_counts_a_whole_side_of_each_pair_in_order():
    # A 3-variable core against a 1-variable one and two 1-variable free
    # groups: pair 0 splits 3 + 3 variables, and each flip (pairs 1 and 2)
    # 4 + 2.  Pair 3, which puts 5 on r, is never built.
    a1, f1, g1 = Variable("a1"), Variable("f1"), Variable("g1")
    b = And(And(Variable("b1"), Variable("b2")), Variable("b3"))
    q = EprRelation.of(
        [(("t",), b), (("u",), f1), (("v",), g1)],
        [(a1, b)],
        {"a1": "1/8", "b1": "1/2", "b2": "1/2", "b3": "1/2", "f1": "1/3", "g1": "2/5"},
    )
    assert epr_distribution(q, cap=4, compare=True).agreed is True
    assert epr_distribution(q, cap=3).agreed is True
    for cap, compare, size in ((3, True, 4), (2, False, 3), (2, True, 3)):
        with pytest.raises(ExpansionTooLarge) as err:
            epr_distribution(q, cap=cap, compare=compare)
        assert (err.value.num_vars, err.value.cap) == (size, cap)


def test_missing_probabilities_are_reported_before_recognition_fails():
    a, b = Variable("a"), Variable("b")
    rows, self_loop = [(("t",), a), (("u",), b)], [(a, And(a, b))]
    with pytest.raises(NotIntegrated):
        cross_check(EprRelation.of(rows, self_loop, {"a": "1/2", "b": "1/2"}))
    q = EprRelation.of(rows, self_loop, {"a": "1/2"})
    for run in (epr_distribution, cross_check):
        with pytest.raises(MissingVarProb):
            run(q)


def test_unbalanced_probabilities_raise_for_every_pair():
    unbalanced = dict(FREE_GROUP_PROBS, a="1/2")
    with pytest.raises(ProbConstraintViolation):
        cross_check(free_group_epr(unbalanced))
    with pytest.raises(ProbConstraintViolation):
        epr_distribution(free_group_epr(unbalanced))


def test_missing_probabilities_are_reported_by_name():
    q = EprRelation.of(
        [(("t",), Variable("a"))],
        [(Variable("a"), Variable("c"))],
        {"a": "1/2"},
    )
    with pytest.raises(MissingVarProb) as err:
        epr_distribution(q)
    assert err.value.names == ("c",)


def test_stranded_worlds_make_the_integration_undefined():
    andy, jane = roster_pr_sources()
    q = integrate_pr(andy, jane)
    for px, py in (("1/2", "1/2"), ("1/3", "2/3"), ("9/10", "1/10")):
        weighted = EprRelation.of(q.rows, q.constraints, {"x": px, "y": py})
        with pytest.raises(ProbConstraintViolation) as err:
            epr_distribution(weighted)
        assert any("no compatible partner" in c.violation for c in err.value.failures)


def test_a_source_integrated_with_itself_keeps_its_own_distribution():
    # r shares every variable name with itself, so integration renames both
    # copies apart.  Under partial independence each world of r is its own
    # component, weighted P(D) * P(D) / P(D) = P(D).  Where two rows share
    # a formula, a constraint has both rows as candidates, and each takes
    # one of its own.
    shared = 0
    for seed in range(200):
        r, _ = gen_pr_pair(seed)
        q = integrate_pr(r, r)
        assert q.names.isdisjoint(r.names)
        assert epr_distribution(q).distribution == expand_pr(r)[0]
        events = [row.event for row in r.rows]
        shared += len(set(events)) < len(events)
    assert shared == 26


def test_the_pr_route_gives_the_pw_route_on_chain_encoded_pairs():
    # A source gives one chain formula to the tuples present in the same
    # worlds, and a private row can share its text with a common one, so a
    # constraint side is often the formula of several rows.
    for m in (4, 8, 16):
        for seed in range(200):
            a, b = gen_consistent_pw_pair(
                random.Random(seed), max_common=6, max_private=6, max_scenarios=m
            )
            result = epr_distribution(
                integrate_pr(encode_pw(a, "x"), encode_pw(b, "y")), 400, compare=True
            )
            assert result.agreed, (m, seed)
            assert result.distribution == integrate_pw_prob(a, b), (m, seed)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_generated_integrations_cross_check(seed):
    q = gen_integrated_epr(seed)
    assert cross_check(q)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_generated_distributions_sum_to_one(seed):
    q = gen_integrated_epr(seed)
    result = epr_distribution(q)
    assert sum(result.distribution.probs, Fraction(0)) == 1
    assert all(c.balanced for c in result.components)


# --- the check work law --------------------------------------------------------------
#
# On k independent rows (k free groups, both cores empty), single-relation
# check compares pair 0 with each free group flipped alone: k comparisons,
# where comparing every pair would take 2^k - 1.  Its line events in the
# modules below stay within k times prob's on the same document, which
# builds pair 0 alone.

WORK_MODULES = (probcalc, pwdb, decompose, prdb, logic)


def independent_rows(tmp_path, k: int) -> str:
    path = tmp_path / f"rows{k}.json"
    rows = [{"tuple": [f"t{i}"], "event": f"x{i}"} for i in range(k)]
    probs = {f"x{i}": f"1/{i + 2}" for i in range(k)}
    path.write_text(json.dumps({"model": "pr", "rows": rows, "var_probs": probs}))
    return str(path)


def run_quietly(*argv) -> int:
    with redirect_stdout(io.StringIO()):
        return main(list(argv))


def test_check_compares_each_free_group_once(tmp_path, monkeypatch):
    calls = {"integrate_pw_prob": [], "expand_pr": []}
    for name, log in calls.items():
        fn = getattr(probcalc, name)
        monkeypatch.setattr(probcalc, name, lambda *a, fn=fn, log=log: log.append(a) or fn(*a))
    for k in range(2, 9):
        for log in calls.values():
            log.clear()
        assert run_quietly("check", independent_rows(tmp_path, k)) == 0
        assert len(calls["integrate_pw_prob"]) == k
        # Each part is expanded at most once.  The empty W core is left out
        # of every side that holds a free group, and from k = 2 on every s
        # side does, so the parts expanded are the V core and the k groups.
        expanded = [id(part) for part, *_ in calls["expand_pr"]]
        assert len(expanded) == len(set(expanded)) == 1 + k


def test_check_work_stays_within_k_times_prob(tmp_path):
    files = {m.__file__ for m in WORK_MODULES}
    for k in (4, 6, 8):
        path = independent_rows(tmp_path, k)
        work = {}
        for command in ("prob", "check"):
            counts = Counter()
            with tracing(files, counts):
                assert run_quietly(command, path) == 0
            work[command] = counts.total()
        assert work["check"] <= k * work["prob"], (k, work)
