"""Recognition of integration results and reconstruction of source pairs."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    FREE_GROUP_PROBS,
    forced_sides,
    formula_texts,
    free_group_epr,
    free_group_relations,
    gen_integrated_epr,
    gen_pw_db,
    lines_run,
    office_epr,
    office_pr_sources,
    outcome,
    reference_slots,
    roster_pr_sources,
    row_text,
    structural_condition3,
)
from udbi import decompose
from udbi.decompose import PrPair, build_pair, enumerate_pairs, partition
from udbi.documents import document_of, parse_document
from udbi.errors import MissingVarProb, NotIntegrated, ParseError, ValidationError
from udbi.gen import gen_consistent_pw_pair, gen_pr_pair
from udbi.logic import FALSE, TRUE, And, Not, Variable
from udbi.prdb import EprRelation, PrRelation, PrTuple, encode_pw, integrate_pr
from udbi.pwdb import UncertainDB


def formulas_by_tuple(q: EprRelation) -> dict:
    """Each tuple of a recognized q with the set of its formulas: its row's,
    and the other side of the constraint that matches the row, if any."""
    formulas = {row.tuple: {row.event} for row in q.rows}
    for (lhs, rhs), (k, on_lhs) in zip(q.constraints, decompose._condition3(q)):
        formulas[q.rows[k].tuple].add(rhs if on_lhs else lhs)
    return formulas


def canonical(q: EprRelation):
    """Form shared by integrations differing only in copy side and
    constraint orientation: each tuple with the set of its formulas, the
    constraints as unordered pairs, and the probabilities of its variables.
    Each constraint is matched to its row as recognition matches it."""
    probs = q.var_probs and {n: p for n, p in q.var_probs.items() if n in q.names}
    return formulas_by_tuple(q), Counter(map(frozenset, q.constraints)), probs


def reintegrated(pair: PrPair):
    """canonical of integrate_pr(pair.r, pair.s), each tuple's formulas read
    from the two sources: the integration may put one formula on two rows
    and two constraints, and then formulas alone cannot match its rows."""
    joint = integrate_pr(pair.r, pair.s)
    formulas = {row.tuple: set() for row in joint.rows}
    for row in pair.r.rows + pair.s.rows:
        formulas[row.tuple].add(row.event)
    return formulas, Counter(map(frozenset, joint.constraints)), joint.var_probs


# --- partition -----------------------------------------------------------------------

def _epr_doc(rows, constraints) -> dict:
    return {
        "model": "epr",
        "rows": [{"tuple": [f"t{k}"], "event": event} for k, event in enumerate(rows)],
        "constraints": [{"lhs": lhs, "rhs": rhs} for lhs, rhs in constraints],
    }


def test_condition_three_by_text_agrees_with_the_structural_index():
    # Oracle: matching formulas by to_text gives the matches that indexing
    # the trees themselves gives.  Relations built in memory keep no text
    # and are rendered; read back from their documents, they keep theirs.
    relations = []
    for seed in range(60):
        a, b = gen_consistent_pw_pair(seed, max_common=6, max_private=6, max_scenarios=4 << seed % 3)
        relations.append(integrate_pr(encode_pw(a, "x"), encode_pw(b, "y")))
        relations.append(integrate_pr(*gen_pr_pair(seed)))
    relations += [parse_document(document_of(q)) for q in relations]
    # Texts outside the printer's form keep no text and are rendered:
    # "(a & b)" is "a & b", and "a & (b & c)" is not "a & b & c".
    relations += [
        parse_document(_epr_doc(rows, constraints))
        for rows, constraints in [
            (["a & b", "c"], [("(a & b)", "c")]),
            (["(a & b)", "c"], [("c", "a & b")]),
            (["a & b", "(a & b)", "c"], [("a & b", "c")]),
            (["a & (b & c)", "d"], [("a & b & c", "d")]),
            (["a", "b"], [("a", "(a)")]),
        ]
    ]
    found = Counter()
    for q in relations:
        expected = structural_condition3(q)
        assert decompose._condition3(q) == expected
        found[expected is None] += 1
    assert found[True] and found[False]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(formula_texts(), min_size=1, max_size=5),
    st.lists(st.tuples(formula_texts(), formula_texts()), max_size=3),
)
def test_condition_three_by_text_agrees_on_any_formula_text(rows, constraints):
    try:
        q = parse_document(_epr_doc(rows, constraints))
    except ParseError:
        return
    assert decompose._condition3(q) == structural_condition3(q)


def test_partition_of_the_office_relation_has_no_free_groups():
    parts = partition(office_epr())
    assert forced_sides(parts) == (("b1", "b2", "b3"), ("c1", "c2"))
    assert parts.free_groups == ()


def test_partition_reports_the_free_group():
    parts = partition(free_group_epr())
    assert forced_sides(parts) == (("a",), ("c", "d"))
    assert parts.free_groups == (("b",),)


def test_constraint_free_relations_are_entirely_free():
    r1, _ = office_pr_sources()
    q = EprRelation.of(r1.rows, (), r1.var_probs)
    parts = partition(q)
    assert forced_sides(parts) == ((), ())
    assert parts.free_groups == (("c1", "c2"),)


def test_constraint_touching_one_group_is_a_self_loop():
    a, b = Variable("a"), Variable("b")
    q = EprRelation.of([(("t",), a), (("u",), b)], [(a, And(a, b))])
    with pytest.raises(
        NotIntegrated, match=r"^constraint links variable group \{a, b\} to itself$"
    ):
        partition(q)


def test_odd_constraint_cycle_cannot_be_two_colored():
    a, b, c = Variable("a"), Variable("b"), Variable("c")
    q = EprRelation.of(
        [(("t1",), a), (("t2",), b), (("t3",), c)],
        [(a, b), (b, c), (c, a)],
    )
    with pytest.raises(NotIntegrated, match=r"^variable group \{c\} would be labeled both sides$"):
        partition(q)


def test_constraint_matching_no_row_fails_condition_three():
    a, b = Variable("a"), Variable("b")
    q = EprRelation.of([(("t",), a), (("u",), b)], [(Not(a), Not(b))])
    for recognize in (partition, enumerate_pairs):
        with pytest.raises(
            NotIntegrated, match=r"^some constraint does not match exactly one row$"
        ):
            recognize(q)


def test_constraint_matching_two_rows_fails_condition_three():
    a, b = Variable("a"), Variable("b")
    q = EprRelation.of(
        [(("t",), a), (("u",), a), (("v",), b)],
        [(a, b)],
    )
    with pytest.raises(NotIntegrated, match=r"^some constraint does not match exactly one row$"):
        partition(q)


def test_a_coloring_fault_is_reported_before_condition_three():
    a, b, c = Variable("a"), Variable("b"), Variable("c")
    rows = [(("t1",), a), (("t2",), b), (("t3",), c)]
    unmatched = (Not(a), Not(b))
    self_loop = EprRelation.of(rows[:2], [(a, And(a, b)), unmatched])
    with pytest.raises(NotIntegrated, match=r"^constraint links variable group \{a, b\} to"):
        partition(self_loop)
    odd_cycle = EprRelation.of(rows, [(a, b), (b, c), (c, a), unmatched])
    with pytest.raises(NotIntegrated, match=r"^variable group \{c\} would be labeled both"):
        partition(odd_cycle)


def test_two_constraints_on_one_tuple_are_rejected():
    a, b, c = Variable("a"), Variable("b"), Variable("c")
    q = EprRelation.of([(("t",), a)], [(a, b), (a, c)])
    for recognize in (partition, enumerate_pairs):
        with pytest.raises(
            NotIntegrated,
            match=r"^two constraints resolve to the same tuple \(t\); no source pair can produce that$",
        ):
            recognize(q)


def test_missing_probabilities_are_reported_before_any_recognition_fault():
    a, b, c = Variable("a"), Variable("b"), Variable("c")
    faulty = [
        ([(("t",), a), (("u",), b), (("v",), c)], [(a, And(a, b))]),
        ([(("t1",), a), (("t2",), b), (("t3",), c)], [(a, b), (b, c), (c, a)]),
        ([(("t",), a), (("u",), b), (("v",), c)], [(Not(a), Not(b))]),
        ([(("t",), a)], [(a, b), (a, c)]),
    ]
    for rows, constraints in faulty:
        with pytest.raises(NotIntegrated):
            partition(EprRelation.of(rows, constraints, dict.fromkeys("abc", "1/2")))
        partial = EprRelation.of(rows, constraints, {"a": "1/2"})
        with pytest.raises(MissingVarProb, match="^missing probabilities for variables: b, c$"):
            partition(partial)


def placed(parts) -> dict[str, int]:
    """Each variable's slot in partition's parts: 0 and 1 for the V and W
    cores, 2 + 2i for free group i."""
    owners = [parts.v, parts.w, *(own for own, _ in parts.free)]
    slots = [0, 1, *range(2, 2 + 2 * len(parts.free), 2)]
    return {name: slot for part, slot in zip(owners, slots) for name in part.names}


def two_block_relations() -> list[EprRelation]:
    """Integrations of one chain-encoded source against two independent
    ones over its tuples: the first core is one group, and constraints link
    it to both groups of the second."""
    relations = []
    for seed in range(30):
        rng = random.Random(seed)
        t, u = gen_pw_db(rng, base="t"), gen_pw_db(rng, base="u")
        pairs = list(itertools.product(range(len(t.worlds)), range(len(u.worlds))))
        joint = UncertainDB.of(
            t.tuple_set | u.tuple_set,
            [t.worlds[i] | u.worlds[j] for i, j in pairs],
            [t.probs[i] * u.probs[j] for i, j in pairs],
        )
        b, d = encode_pw(gen_pw_db(rng, base="t"), "b"), encode_pw(gen_pw_db(rng, base="u"), "d")
        right = PrRelation.of(b.rows + d.rows, {**b.var_probs, **d.var_probs})
        relations.append(integrate_pr(encode_pw(joint, "a"), right))
    return relations


def swapped(q: EprRelation) -> list[EprRelation]:
    """q with one side of one of its first two constraints replaced by the
    formula of one of its first eight rows.  A constraint then links a
    group to itself, or, where a core has two groups, one to the other."""
    found = []
    for j, constraint in enumerate(q.constraints[:2]):
        for side in (0, 1):
            for row in q.rows[:8]:
                sides = list(constraint)
                sides[side] = row.event
                constraints = (*q.constraints[:j], tuple(sides), *q.constraints[j + 1 :])
                found.append(EprRelation(q.rows, constraints, q.var_probs))
    return found


def test_partition_places_each_variable_where_a_name_level_grouping_does():
    # Oracle: grouping variables by name, as reference_slots does, puts
    # each variable in the slot that grouping formulas puts it in, or
    # raises the same fault.
    relations = free_group_relations() + two_block_relations()
    relations += [integrate_pr(*gen_pr_pair(seed)) for seed in range(50)]
    relations += [variant for q in relations for variant in swapped(q)]
    found = Counter()
    for q in relations:
        expected = outcome(reference_slots, q)
        got = outcome(partition, q)
        if isinstance(expected, dict):
            assert placed(got) == expected
            found["recognized"] += 1
        else:
            assert got == expected
            found[expected[1].split()[1]] += 1
    # Recognized, then a self-link, an odd cycle, condition 3 and a twice
    # matched row, each named by the second word of its message.
    assert found.keys() == {"recognized", "links", "group", "constraint", "constraints"}


# --- build_pair checks a given split ------------------------------------------------------

def test_check_accepts_the_forced_partition_and_its_mirror():
    r1, r2 = office_pr_sources()
    q = office_epr()
    assert build_pair(q, {"b1", "b2", "b3"}, {"c1", "c2"}) == PrPair(r2, r1)
    assert build_pair(q, {"c1", "c2"}, {"b1", "b2", "b3"}) == PrPair(r1, r2)


def test_check_rejects_rows_split_across_sides():
    with pytest.raises(NotIntegrated, match="^the relation is not recognized"):
        build_pair(office_epr(), {"b1", "b2", "c1"}, {"b3", "c2"})


def test_check_rejects_constraints_within_one_side():
    with pytest.raises(NotIntegrated, match="^the relation is not recognized"):
        build_pair(office_epr(), {"b1", "b2", "b3", "c1", "c2"}, set())


def test_check_rejects_a_split_that_fails_condition_three():
    a, b = Variable("a"), Variable("b")
    q = EprRelation.of([(("t",), a), (("u",), b)], [(Not(a), Not(b))])
    with pytest.raises(NotIntegrated, match="^the relation is not recognized"):
        build_pair(q, {"a"}, {"b"})


def test_check_requires_a_partition_of_the_variables():
    q = office_epr()
    with pytest.raises(ValidationError, match="must partition"):
        build_pair(q, {"b1"}, {"c1", "c2"})
    with pytest.raises(ValidationError, match="must partition"):
        build_pair(q, {"b1", "b2", "b3", "c1"}, {"c1", "c2"})


def test_rebuilding_the_roster_sources_recovers_them_exactly():
    andy, jane = roster_pr_sources()
    q = integrate_pr(andy, jane)
    pair = build_pair(q, {"x"}, {"y"})
    assert pair.r.rows == andy.rows
    assert pair.s.rows == jane.rows


def test_rebuilding_with_mirrored_sides_swaps_the_roles():
    andy, jane = roster_pr_sources()
    q = integrate_pr(jane, andy)
    pair = build_pair(q, {"y"}, {"x"})
    assert pair.r.rows == jane.rows
    assert pair.s.rows == andy.rows


def test_rebuilt_office_pair_splits_rows_and_probabilities():
    r1, r2 = office_pr_sources()
    pair = build_pair(office_epr(), {"b1", "b2", "b3"}, {"c1", "c2"})
    assert pair.r == r2
    assert pair.s == r1


def test_pair_rows_and_probabilities_split_by_side():
    q = free_group_epr(FREE_GROUP_PROBS)
    pair = build_pair(q, {"a", "b"}, {"c", "d"})
    assert [row_text(row) for row in pair.r.rows] == ["(t1)@a", "(t2)@b"]
    assert [row_text(row) for row in pair.s.rows] == ["(t1)@c", "(t3)@!c | d"]
    assert set(pair.r.var_probs) == {"a", "b"}
    assert set(pair.s.var_probs) == {"c", "d"}


def test_pair_sides_share_the_relations_probabilities():
    q = free_group_epr(FREE_GROUP_PROBS)
    pair = build_pair(q, {"a", "b"}, {"c", "d"})
    for side in (pair.r, pair.s):
        assert all(p is q.var_probs[name] for name, p in side.var_probs.items())
    partial = free_group_epr({n: p for n, p in FREE_GROUP_PROBS.items() if n != "d"})
    with pytest.raises(ValidationError, match="^event variables without probabilities: d$"):
        build_pair(partial, {"a", "b"}, {"c", "d"})


def test_build_pair_rejects_unrecognizable_partitions():
    with pytest.raises(NotIntegrated, match="not recognized"):
        build_pair(office_epr(), {"b1", "b2", "b3", "c1"}, {"c2"})


def test_variable_free_row_goes_opposite_a_v_side_partner():
    a, b = Variable("a"), Variable("b")
    q = EprRelation.of([(("t",), TRUE), (("u",), b)], [(a, TRUE)])
    pair = build_pair(q, {"a"}, {"b"})
    assert [row_text(row) for row in pair.r.rows] == ["(t)@a"]
    assert [row_text(row) for row in pair.s.rows] == ["(t)@true", "(u)@b"]


def test_variable_free_row_goes_opposite_a_w_side_partner():
    a, b = Variable("a"), Variable("b")
    q = EprRelation.of([(("t",), TRUE), (("u",), b)], [(TRUE, a)])
    pair = build_pair(q, {"b"}, {"a"})
    assert [row_text(row) for row in pair.r.rows] == ["(t)@true", "(u)@b"]
    assert [row_text(row) for row in pair.s.rows] == ["(t)@a"]


def test_variable_free_row_without_a_partner_goes_to_r():
    b = Variable("b")
    q = EprRelation.of([(("t",), FALSE), (("u",), b)])
    for v, w in (({"b"}, set()), (set(), {"b"})):
        pair = build_pair(q, v, w)
        assert "(t)@false" in [row_text(row) for row in pair.r.rows]
        assert "(t)@false" not in [row_text(row) for row in pair.s.rows]


def test_pair_sides_must_not_share_variables():
    rel = PrRelation.of([(("t",), Variable("a"))])
    with pytest.raises(ValidationError, match="^pair sides share event variables: a$"):
        PrPair(rel, rel)


# --- enumerate_pairs ---------------------------------------------------------------------

def test_office_relation_has_exactly_one_pair():
    r1, r2 = office_pr_sources()
    pairs = enumerate_pairs(office_epr())
    assert pairs == [PrPair(r2, r1)]


def test_free_group_relation_has_two_pairs_in_counter_order():
    q = free_group_epr(FREE_GROUP_PROBS)
    pairs = enumerate_pairs(q)
    assert len(pairs) == 2
    assert [row_text(row) for row in pairs[0].r.rows] == ["(t1)@a"]
    assert [row_text(row) for row in pairs[0].s.rows] == [
        "(t1)@c",
        "(t2)@b",
        "(t3)@!c | d",
    ]
    assert [row_text(row) for row in pairs[1].r.rows] == ["(t1)@a", "(t2)@b"]
    assert [row_text(row) for row in pairs[1].s.rows] == ["(t1)@c", "(t3)@!c | d"]


def test_every_pair_reintegrates_to_the_same_relation():
    # The integration of gen_pr_pair(16) has the formula a1 | a1 on two
    # constraints.
    for q in (free_group_epr(FREE_GROUP_PROBS), integrate_pr(*gen_pr_pair(16))):
        for pair in enumerate_pairs(q):
            assert reintegrated(pair) == canonical(q)


def test_constraint_free_relations_decompose_into_relation_and_empty():
    r1, _ = office_pr_sources()
    q = EprRelation.of(r1.rows, (), r1.var_probs)
    pairs = enumerate_pairs(q)
    assert len(pairs) == 2
    assert pairs[0].r.rows == ()
    assert pairs[0].s.rows == q.rows
    assert pairs[1].r.rows == q.rows
    assert pairs[1].s.rows == ()


def test_three_free_groups_honor_the_limit_and_bit_order():
    rows = [((f"t{i}",), Variable(n)) for i, n in enumerate("ab")]
    rows += [((f"u{i}",), Variable(n)) for i, n in enumerate("cde")]
    q = EprRelation.of(rows, [(Not(Variable("a")), Variable("b"))])
    assert len(enumerate_pairs(q)) == 8
    limited = enumerate_pairs(q, limit=4)
    assert len(limited) == 4
    free_vars_on_v = [
        set(p.r.variables()) - {"a"} for p in limited
    ]
    assert free_vars_on_v == [set(), {"c"}, {"d"}, {"c", "d"}]


def test_enumeration_is_deterministic():
    q = free_group_epr(FREE_GROUP_PROBS)
    assert enumerate_pairs(q) == enumerate_pairs(q)


def test_self_loop_relations_raise_when_enumerated():
    a, b = Variable("a"), Variable("b")
    q = EprRelation.of([(("t",), a), (("u",), b)], [(a, And(a, b))])
    with pytest.raises(NotIntegrated, match="to itself"):
        enumerate_pairs(q)


# --- properties over generated integrations -------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_generated_integrations_decompose_and_reintegrate(seed):
    q = gen_integrated_epr(seed)
    pairs = enumerate_pairs(q, limit=4)
    assert pairs
    for pair in pairs:
        assert not set(pair.r.variables()) & set(pair.s.variables())
        assert reintegrated(pair) == canonical(q)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_partition_accepts_generated_integrations(seed):
    q = gen_integrated_epr(seed)
    v1, _ = forced_sides(partition(q))
    pair = build_pair(q, set(v1), q.names - set(v1))
    assert pair == enumerate_pairs(q, limit=1)[0]


def test_pairs_merged_from_parts_are_the_pairs_of_their_splits():
    # Oracle: each pair merged from the parts is build_pair's pair for the
    # same split, routed from q directly, and integrates back to q.
    seen = set()
    for q in free_group_relations():
        parts = partition(q)
        pairs = enumerate_pairs(q)
        assert len(pairs) == 1 << len(parts.free_groups)
        seen.add(len(parts.free_groups))
        for k, pair in enumerate(pairs):
            v = set(forced_sides(parts)[0])
            for i, group in enumerate(parts.free_groups):
                v.update(group if k >> i & 1 else ())
            assert pair == build_pair(q, v, q.names - v)
            assert reintegrated(pair) == canonical(q)
    assert seen == {0, 1, 2, 3}


def test_parts_share_no_variable_and_no_tuple():
    for q in free_group_relations():
        parts = partition(q)
        every = [parts.v, parts.w, *(p for group in parts.free for p in group)]
        names = [n for p in every for n in p.names]
        assert len(names) == len(set(names)) and set(names) == q.names
        for k in range(1 << len(parts.free)):
            for side in parts.sides(k):
                tuples = [row.tuple for p in side for row in p.rows]
                assert len(tuples) == len(set(tuples))
        # Only a free group's own part carries variables; the part it sends
        # across holds variable-free rows alone.
        assert all(not across.names for _, across in parts.free)


def chain_relation(n: int) -> EprRelation:
    rows = [((f"t{i:05d}",), Variable(f"v{i}")) for i in range(n)]
    constraints = [
        (Not(Variable(f"v{2 * k}")), Variable(f"v{2 * k + 1}"))
        for k in range(n // 2)
    ]
    return EprRelation.of(rows, constraints)


def test_partition_work_grows_linearly():
    q1, q2 = chain_relation(1000), chain_relation(2000)
    assert partition(q1).free_groups == partition(q2).free_groups == ()
    small = lines_run(decompose, partition, q1)
    large = lines_run(decompose, partition, q2)
    assert large <= 2.5 * small


def test_build_pair_work_grows_linearly():
    work = []
    for q in (chain_relation(1000), chain_relation(2000)):
        _, w1 = forced_sides(partition(q))
        work.append(lines_run(decompose, build_pair, q, q.names - set(w1), set(w1)))
    assert work[1] <= 2.5 * work[0]


def tuple_tests_in_build_pair(n: int) -> int:
    """Hash and equality tests build_pair makes on chain_relation(n)'s data tuples.

    Counts the work of the duplicate-tuple check, which the loop counts of
    test_build_pair_work_grows_linearly do not see.
    """
    tests = 0

    class CountedTuple(tuple):
        def __eq__(self, other):
            nonlocal tests
            tests += 1
            return tuple.__eq__(self, other)

        def __hash__(self):
            nonlocal tests
            tests += 1
            return tuple.__hash__(self)

    chain = chain_relation(n)
    q = EprRelation.of(
        [PrTuple(CountedTuple(row.tuple), row.event) for row in chain.rows],
        chain.constraints,
    )
    _, w1 = forced_sides(partition(q))
    tests = 0
    build_pair(q, q.names - set(w1), set(w1))
    return tests


def test_build_pair_duplicate_tuple_check_grows_linearly():
    small = tuple_tests_in_build_pair(1000)
    large = tuple_tests_in_build_pair(2000)
    assert small > 0
    assert large <= 2.5 * small
