"""pr/epr-relations: expansion, integration, event formulas, encoding."""

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    CS100,
    CS101,
    CS102,
    CS201,
    CS202,
    OFFICE_DISTRIBUTION,
    brute_expand_epr,
    brute_expand_pr,
    gen_integrated_epr,
    gen_pw_db,
    lines_run,
    office_epr,
    office_pr_sources,
    office_pw_sources,
    outcome,
    roster_pr_sources,
    roster_pw_sources,
    world,
)
from udbi.errors import (
    ExpansionTooLarge,
    MissingVarProb,
    NoValidAssignment,
    ValidationError,
)
from udbi.decompose import enumerate_pairs
from udbi.documents import document_of, dumps_json, parse_document
from udbi.gen import (
    gen_consistent_pw_pair,
    gen_formula,
    gen_pr_pair,
    gen_prob,
)
from udbi import logic, prdb
from udbi.logic import (
    FALSE,
    TRUE,
    And,
    Iff,
    Not,
    Or,
    Variable,
    equivalent,
    evaluate,
    iter_vars,
    parse_formula,
)
from udbi.prdb import (
    EprRelation,
    PrRelation,
    PrTuple,
    encode_pw,
    evf,
    expand_epr,
    expand_pr,
    integrate_pr,
)
from udbi.pwdb import UncertainDB, integrate_pw


def formula_prob(f, var_probs) -> Fraction:
    """Total mass of the assignments satisfying f, brute force."""
    names = sorted(var_probs)
    total = Fraction(0)
    for values in itertools.product((False, True), repeat=len(names)):
        mu = dict(zip(names, values))
        if evaluate(f, mu):
            mass = Fraction(1)
            for name in names:
                p = var_probs[name]
                mass *= p if mu[name] else 1 - p
            total += mass
    return total


# --- construction and validation ------------------------------------------------------

def test_duplicate_tuples_are_rejected():
    with pytest.raises(ValidationError, match="share the tuple"):
        PrRelation.of([(CS100, TRUE), (CS100, FALSE)])


def test_rows_must_be_covered_by_var_probs():
    with pytest.raises(ValidationError, match="without probabilities: x"):
        PrRelation.of([(CS100, Variable("x"))], {})


def test_var_probs_must_lie_strictly_between_zero_and_one():
    with pytest.raises(ValidationError, match="outside \\(0, 1\\)"):
        PrRelation.of([(CS100, Variable("x"))], {"x": "1"})


def test_pr_relations_reject_constraints():
    a, b = Variable("a"), Variable("b")
    with pytest.raises(ValidationError, match="no constraints"):
        PrRelation((PrTuple(CS100, a),), constraints=((a, b),))


HALF = Fraction(1, 2)
EVERY_ROUTE = ("bare", "of", "document")
# Each invalid relation: rows as (tuple, formula text), var_probs, the models
# it is invalid in, the violations that every route reports, and the routes
# that can hold it.  A document cannot hold an empty tuple (its reader
# rejects that as a format fault first) or a probability that is not a
# Fraction, which of also reads as one.
INVALID_RELATIONS = {
    "empty tuple": (
        [((), "a")], None, ("pr", "epr"), ["row 0 has an empty tuple"], ("bare", "of"),
    ),
    "shared tuple": (
        [(("t",), "a"), (("u",), "b"), (("t",), "c")],
        None,
        ("pr", "epr"),
        ["rows 0 and 2 share the tuple (t)"],
        EVERY_ROUTE,
    ),
    "invalid name": (
        [(("t",), "a")],
        {"a": HALF, "1x": HALF},
        ("pr", "epr"),
        ["invalid variable name '1x' in probabilities"],
        EVERY_ROUTE,
    ),
    "probability 0 and 1": (
        [(("t",), "a & b")],
        {"a": Fraction(0), "b": Fraction(1)},
        ("pr", "epr"),
        [
            "probability of variable a is 0, outside (0, 1)",
            "probability of variable b is 1, outside (0, 1)",
        ],
        EVERY_ROUTE,
    ),
    "not a Fraction": (
        [(("t",), "a")],
        {"a": 0.5},
        ("pr", "epr"),
        ["probability of variable a is 0.5, not a Fraction"],
        ("bare",),
    ),
    "missing probability": (
        [(("t",), "a | b")],
        {"a": HALF},
        ("pr",),
        ["event variables without probabilities: b"],
        EVERY_ROUTE,
    ),
}


def _build(route: str, model: str, rows, var_probs):
    """The relation of the given rows and var_probs, built by route."""
    cls = PrRelation if model == "pr" else EprRelation
    pairs = [(t, parse_formula(text)) for t, text in rows]
    if route == "bare":
        return cls(tuple(PrTuple(t, f) for t, f in pairs), var_probs=var_probs)
    if route == "of":
        return cls.of(pairs, var_probs=var_probs)
    doc = {"model": model, "rows": [{"tuple": list(t), "event": text} for t, text in rows]}
    if var_probs is not None:
        doc["var_probs"] = {name: str(p) for name, p in var_probs.items()}
    return parse_document(doc)


@pytest.mark.parametrize("model", ["pr", "epr"])
@pytest.mark.parametrize("case", INVALID_RELATIONS)
def test_every_route_rejects_an_invalid_relation_alike(case, model):
    rows, var_probs, invalid_in, violations, routes = INVALID_RELATIONS[case]
    for route in routes:
        if model in invalid_in:
            with pytest.raises(ValidationError) as err:
                _build(route, model, rows, var_probs)
            assert err.value.violations == violations, route
        else:
            assert _build(route, model, rows, var_probs).var_probs == var_probs, route


@pytest.mark.parametrize("p", ["x", "1/0", None, float("inf"), float("nan")])
def test_of_reports_a_probability_fraction_cannot_read_as_not_a_fraction(p):
    rows = [(("t",), Variable("a"))]
    for build in (
        lambda: PrRelation.of(rows, {"a": p}),
        lambda: EprRelation.of(rows, (), {"a": p}),
    ):
        with pytest.raises(ValidationError) as err:
            build()
        assert err.value.violations == [f"probability of variable a is {p!r}, not a Fraction"]
    with pytest.raises(ValidationError) as err:
        UncertainDB.of([CS100], [world(CS100), world()], [p, "1/2"])
    assert err.value.violations == [f"probability of world 0 is {p!r}, not a Fraction"]


def reference_var_prob_report(var_probs: dict, names) -> list[str]:
    """The relation constructor's probability report, entry by entry."""
    bad = []
    for name, p in var_probs.items():
        if name not in names and not logic.is_valid_name(str(name)):
            bad.append(f"invalid variable name {name!r} in probabilities")
        elif not isinstance(p, Fraction):
            bad.append(f"probability of variable {name} is {p!r}, not a Fraction")
        elif not 0 < p.numerator < p.denominator:
            bad.append(f"probability of variable {name} is {p}, outside (0, 1)")
    return bad


# One object each, so that entries share them as a document read's do.
SHARED_PROBS = [Fraction(1, 3), Fraction(1, 2), Fraction(0), Fraction(1), Fraction(5, 4)]


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(["a", "b", "c", "s::a", "1x", "true", "", 7]),
        st.one_of(
            st.sampled_from(SHARED_PROBS),
            st.fractions(),
            st.sampled_from([0.5, "1/2", None, 1]),
        ),
    ),
    st.sets(st.sampled_from(["a", "b", "c", "s::a"])),
)
def test_var_prob_check_reports_as_the_entry_by_entry_reference(var_probs, names):
    want = reference_var_prob_report(var_probs, names)
    if want:
        with pytest.raises(ValidationError) as err:
            prdb._check_var_probs(var_probs, frozenset(names))
        assert err.value.violations == want
    else:
        prdb._check_var_probs(var_probs, frozenset(names))


def test_a_pr_relation_is_an_epr_relation_without_constraints():
    r1, _ = office_pr_sources()
    same = EprRelation.of(r1.rows, (), r1.var_probs)
    assert isinstance(r1, EprRelation)
    assert r1.constraints == ()
    assert r1.variables() == same.variables() == ("c1", "c2")
    assert r1.tuples() == same.tuples() == frozenset([CS100, CS101])
    assert r1 != same
    for w in (world(), world(CS100), world(CS101), world(CS100, CS101)):
        assert evf(r1, w) == evf(same, w)


def walked_names(rel) -> set[str]:
    """The variables of rel's row formulas and constraint sides, by walking them."""
    formulas = [row.event for row in rel.rows] + [side for c in rel.constraints for side in c]
    return {name for f in formulas for name in iter_vars(f)}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_every_relation_carries_the_variables_its_formulas_use(seed):
    r, s = gen_pr_pair(seed)
    a, b = gen_consistent_pw_pair(random.Random(seed), max_scenarios=6)
    q = gen_integrated_epr(seed)
    x, y = encode_pw(a, "x"), encode_pw(b, "y")
    routes = {
        "PrRelation.of": r,
        "EprRelation.of": EprRelation.of(q.rows, q.constraints, q.var_probs),
        "PrRelation": PrRelation(r.rows, var_probs=r.var_probs),
        "EprRelation": EprRelation(q.rows, q.constraints, q.var_probs),
        "encode_pw": x,
        "integrate_pr renaming": integrate_pr(r, r),
        "integrate_pr": integrate_pr(x, y),
        "integrate_pr of generated sources": integrate_pr(r, s),
        "pr document": parse_document(json.loads(dumps_json(document_of(r)))),
        "epr document": parse_document(json.loads(dumps_json(document_of(q)))),
    }
    # Each value above was built through its constructor's checks, so every
    # integrate_pr result, encoding and pair here is a valid relation.
    for k, pair in enumerate(enumerate_pairs(q)):
        routes[f"pair {k} r"], routes[f"pair {k} s"] = pair.r, pair.s
    # r shares every name with itself, so both copies are renamed; x and y
    # share none, so neither is.
    renamed = routes["integrate_pr renaming"].names
    assert len(renamed) == 2 * len(r.names)
    assert all(name.startswith(("s1::", "s2::")) for name in renamed)
    assert routes["integrate_pr"].names == x.names | y.names
    for route, rel in routes.items():
        assert set(rel.names) == walked_names(rel), route
        assert rel.variables() == tuple(sorted(walked_names(rel))), route


# --- expansion -------------------------------------------------------------------------

def test_first_office_expands_to_three_worlds():
    r1, _ = office_pr_sources()
    udb, dist = expand_pr(r1)
    assert dict(dist) == {
        world(CS100): Fraction(3, 10),
        world(CS100, CS101): Fraction(1, 2),
        world(CS101): Fraction(1, 5),
    }
    assert dict(zip(udb.worlds, udb.probs)) == dict(dist)
    assert udb.tuple_set == frozenset([CS100, CS101])


def test_second_office_expands_to_four_worlds():
    _, r2 = office_pr_sources()
    _, dist = expand_pr(r2)
    assert dict(dist) == {
        world(CS100): Fraction(7, 20),
        world(CS100, CS201): Fraction(9, 20),
        world(CS201): Fraction(1, 20),
        world(CS201, CS202): Fraction(3, 20),
    }


def test_expansions_match_the_pw_sources():
    for rel, src in zip(office_pr_sources(), office_pw_sources()):
        udb, _ = expand_pr(rel)
        assert udb == src


def test_constant_rows_expand_without_probabilities():
    udb, dist = expand_pr(PrRelation.of([(CS100, TRUE), (CS101, FALSE)]))
    assert udb.worlds == (world(CS100),)
    assert dict(dist) == {world(CS100): Fraction(1)}


def test_expansion_requires_probabilities_for_used_variables():
    andy, _ = roster_pr_sources()
    with pytest.raises(MissingVarProb) as err:
        expand_pr(andy)
    assert err.value.names == ("x",)


def test_expansion_respects_the_variable_cap():
    _, r2 = office_pr_sources()
    with pytest.raises(ExpansionTooLarge) as err:
        expand_pr(r2, cap=2)
    assert (err.value.num_vars, err.value.cap) == (3, 2)


def test_semantic_tautologies_and_contradictions_are_decided():
    rows = [
        (("or",), parse_formula("x | !x")),
        (("and",), parse_formula("x & !x")),
        (("iff",), parse_formula("x <-> x")),
        (("implies",), parse_formula("x -> x")),
        (("true",), TRUE),
        (("false",), FALSE),
        (("y",), parse_formula("y")),
    ]
    rel = PrRelation.of(rows, {"x": "1/3", "y": "1/4"})
    always = world(("or",), ("iff",), ("implies",), ("true",))
    udb, dist = expand_pr(rel)
    assert udb.worlds == (always, always | {("y",)})
    assert udb.probs == (Fraction(3, 4), Fraction(1, 4))
    assert (udb, dist) == brute_expand_pr(rel)


def test_a_relation_without_rows_expands_to_one_empty_world():
    udb, dist = expand_pr(PrRelation.of([]))
    assert (udb.tuple_set, udb.worlds, udb.probs) == (frozenset(), (world(),), (Fraction(1),))
    assert dist == ((world(), Fraction(1)),)


def test_unused_probabilities_change_nothing():
    r1, _ = office_pr_sources()
    padded = PrRelation.of(r1.rows, {**r1.var_probs, "unused": "1/3"})
    assert expand_pr(padded) == expand_pr(r1)
    assert expand_pr(padded, cap=2) == expand_pr(r1, cap=2)


def test_missing_probabilities_are_reported_before_the_cap():
    _, r2 = office_pr_sources()
    with pytest.raises(MissingVarProb) as err:
        expand_pr(PrRelation(r2.rows), cap=1)
    assert err.value.names == ("b1", "b2", "b3")
    # A pr-relation given probabilities needs one for every variable.
    with pytest.raises(ValidationError) as err:
        PrRelation(r2.rows, var_probs={"b1": Fraction(1, 2)})
    assert err.value.violations == ["event variables without probabilities: b2, b3"]


def test_a_twenty_variable_chain_encoding_expands_to_its_source():
    tuples = [(f"t{i}",) for i in range(5)]
    worlds = sorted(
        (frozenset(itertools.compress(tuples, bits))
         for bits in itertools.product((0, 1), repeat=5)),
        key=lambda w: tuple(sorted(w)),
    )[:21]
    probs = tuple(Fraction(k, 231) for k in range(1, 22))
    src = UncertainDB(frozenset(tuples), tuple(worlds), probs)
    encoded = encode_pw(src)
    assert len(encoded.variables()) == 20
    udb, dist = expand_pr(encoded)
    assert udb == src
    assert dict(dist) == dict(zip(src.worlds, src.probs))


def _random_relation(rng: random.Random) -> PrRelation:
    """Rows over 1-9 variables using every connective and constant; a few
    probabilities name no variable, and when a used variable lacks one the
    relation carries none."""
    names = [f"v{i}" for i in range(rng.randint(1, 9))]
    rows = tuple(
        PrTuple((f"t{i}",), gen_formula(rng, names, rng.randint(0, 4)))
        for i in range(rng.randint(0, 5))
    )
    probs = {name: gen_prob(rng) for name in names if rng.random() < 0.97}
    if rng.random() < 0.1:
        probs["unused"] = gen_prob(rng)
    used = {name for row in rows for name in iter_vars(row.event)}
    return PrRelation(rows, var_probs=probs if probs.keys() >= used else None)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_expansion_matches_brute_force_on_random_relations(seed):
    rng = random.Random(seed)
    rel = _random_relation(rng)
    cap = rng.choice((20, rng.randint(0, 9)))
    assert outcome(expand_pr, rel, cap) == outcome(brute_expand_pr, rel, cap)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_expansion_matches_brute_force_on_generated_sources(seed):
    rels = list(gen_pr_pair(seed))
    rels += [encode_pw(src) for src in gen_consistent_pw_pair(seed, max_scenarios=8)]
    for pair in enumerate_pairs(gen_integrated_epr(seed), limit=4):
        rels += [pair.r, pair.s]
    for rel in rels:
        assert outcome(expand_pr, rel) == outcome(brute_expand_pr, rel)


def test_constrained_expansion_keeps_only_valid_assignments():
    andy, jane = roster_pr_sources()
    q = integrate_pr(andy, jane)
    assert expand_epr(q) == UncertainDB(q.tuples(), (world(CS101),))


def test_open_variant_admits_two_worlds():
    andy, jane = roster_pr_sources(denial=False)
    q = integrate_pr(andy, jane)
    assert expand_epr(q) == UncertainDB(q.tuples(), (world(CS100, CS102), world(CS101)))


def test_office_epr_expands_to_the_six_known_worlds():
    assert list(expand_epr(office_epr()).worlds) == sorted(
        OFFICE_DISTRIBUTION, key=lambda w: tuple(sorted(w))
    )


def test_unsatisfiable_constraints_raise():
    q = EprRelation.of([(CS100, TRUE)], [(TRUE, FALSE)])
    with pytest.raises(NoValidAssignment):
        expand_epr(q)


def _with_extra_constraints(rng: random.Random, q: EprRelation) -> EprRelation:
    """q plus 0-3 random constraints over its variables, using every
    connective and constant."""
    names = q.variables()
    extra = tuple(
        (gen_formula(rng, names, rng.randint(0, 3)), gen_formula(rng, names, rng.randint(0, 3)))
        for _ in range(rng.randint(0, 3))
    )
    return EprRelation(q.rows, q.constraints + extra, q.var_probs)


def test_constrained_expansion_matches_brute_force_on_pr_integrations():
    kinds = set()
    for seed in range(400):
        rng = random.Random(seed)
        q = _with_extra_constraints(rng, integrate_pr(*gen_pr_pair(seed)))
        cap = 20 if rng.random() < 0.9 else rng.randint(0, 6)
        result = outcome(expand_epr, q, cap)
        assert result == outcome(brute_expand_epr, q, cap), seed
        kinds.add(result[0] if isinstance(result, tuple) else type(result))
    assert kinds == {UncertainDB, NoValidAssignment, ExpansionTooLarge}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_constrained_expansion_matches_brute_force_on_integrated_relations(seed):
    q = gen_integrated_epr(seed)
    assert outcome(expand_epr, q) == outcome(brute_expand_epr, q)


def _chain_integration(max_scenarios: int):
    a, b = gen_consistent_pw_pair(random.Random(5), 6, 6, max_scenarios=max_scenarios)
    return a, b, integrate_pr(encode_pw(a, "x"), encode_pw(b, "y"))


def test_constrained_expansion_work_follows_the_worlds(monkeypatch):
    # Doubling the chain variables multiplies 2^n by 256; the restrictions
    # done must grow far less.
    calls = []
    restrict = logic.restrict

    def counting(*args):
        calls.append(None)
        return restrict(*args)

    monkeypatch.setattr(logic, "restrict", counting)
    work = {}
    for m in (8, 16):
        a, b, q = _chain_integration(m)
        assert len(q.variables()) == m
        calls.clear()
        assert expand_epr(q, cap=40) == integrate_pw(a, b)
        work[m] = len(calls)
    assert 0 < work[16] < 16 * work[8]


def _chain_source(n_worlds: int, n_tuples: int = 12) -> UncertainDB:
    """n_worlds distinct random worlds over n_tuples tuples, with random weights."""
    rng = random.Random(n_worlds)
    tuples = [(f"t{k}",) for k in range(n_tuples)]
    masks = rng.sample(range(1 << n_tuples), n_worlds)
    worlds = tuple(frozenset(t for k, t in enumerate(tuples) if m >> k & 1) for m in masks)
    weights = [rng.randint(1, 9) for _ in worlds]
    probs = tuple(Fraction(w, sum(weights)) for w in weights)
    return UncertainDB(frozenset(tuples), worlds, probs)


def test_chain_encoded_expansion_work_grows_under_five_fold_per_doubling():
    # A chain encoding's row is a disjunction of selectors up to n long, so
    # its tree has O(n^2) nodes and restricting all of it on each of the ~2n
    # branches is cubic (about 8x per doubling).  Shared, the selectors'
    # common prefixes are one chain, and each branch restricts O(rows * n)
    # distinct nodes: quadratic, 4x per doubling plus lower-order terms.
    work = {}
    for n in (16, 32, 64):
        r = encode_pw(_chain_source(n), "x")
        work[n] = lines_run(logic, expand_pr, r, n)
    assert work[32] < 5 * work[16]
    assert work[64] < 5 * work[32]


def test_a_thirty_two_variable_integration_expands_to_the_pw_integration():
    a, b, q = _chain_integration(32)
    assert len(q.variables()) == 32
    assert expand_epr(q, cap=40) == integrate_pw(a, b)


# --- integration ------------------------------------------------------------------------

def test_roster_integration_keeps_second_source_rows_for_common_tuples():
    andy, jane = roster_pr_sources()
    q = integrate_pr(andy, jane)
    x, y = Variable("x"), Variable("y")
    assert q.rows == (
        PrTuple(CS100, x),
        PrTuple(CS101, y),
        PrTuple(CS102, Not(y)),
    )
    assert q.constraints == ((Not(x), y), (FALSE, Not(y)))
    assert q.var_probs is None


def test_office_integration_matches_the_written_out_relation():
    r1, r2 = office_pr_sources()
    assert integrate_pr(r1, r2) == office_epr()


def test_integration_order_changes_the_copy_side_not_the_worlds():
    r1, r2 = office_pr_sources()
    forward = integrate_pr(r1, r2)
    backward = integrate_pr(r2, r1)
    common_row = next(row for row in backward.rows if row.tuple == CS100)
    assert common_row.event == parse_formula("!c1")
    assert backward.constraints == ((parse_formula("b1 | b2"), parse_formula("!c1")),)
    assert expand_epr(forward) == expand_epr(backward)


def test_colliding_variables_are_renamed_apart():
    r = PrRelation.of([(CS100, Variable("v"))], {"v": "1/3"})
    s = PrRelation.of([(CS100, Variable("v"))], {"v": "1/2"})
    q = integrate_pr(r, s)
    assert q.rows == (PrTuple(CS100, Variable("s2::v")),)
    assert q.constraints == ((Variable("s1::v"), Variable("s2::v")),)
    assert q.var_probs == {"s1::v": Fraction(1, 3), "s2::v": Fraction(1, 2)}


def test_unused_probability_keys_still_force_renaming():
    r = PrRelation.of([(CS100, Variable("a"))], {"a": "1/3", "v": "1/2"})
    s = PrRelation.of([(CS201, Variable("v"))], {"v": "1/4"})
    q = integrate_pr(r, s)
    assert q.rows == (
        PrTuple(CS100, Variable("s1::a")),
        PrTuple(CS201, Variable("s2::v")),
    )
    assert q.var_probs["s1::v"] == Fraction(1, 2)
    assert q.var_probs["s2::v"] == Fraction(1, 4)


def test_disjoint_variables_are_left_untouched():
    r = PrRelation.of([(CS100, Variable("a"))], {"a": "1/3"})
    s = PrRelation.of([(CS201, Variable("b"))], {"b": "1/4"})
    q = integrate_pr(r, s)
    assert set(q.var_probs) == {"a", "b"}
    assert q.constraints == ()


# --- event-variable formulas ---------------------------------------------------------------

def test_evf_conjoins_memberships():
    r1, _ = office_pr_sources()
    f = evf(r1, world(CS100))
    assert f == And(parse_formula("!c1"), Not(parse_formula("c1 | c2")))


def test_evf_of_a_single_row_relation_is_the_bare_negation():
    r = PrRelation.of([(CS100, Variable("x"))], {"x": "1/2"})
    assert evf(r, world()) == Not(Variable("x"))
    assert evf(r, world(CS100)) == Variable("x")


def test_evf_puts_constraints_first():
    q = office_epr()
    f = evf(q, world(CS100))
    first = f
    while isinstance(first, And):
        first = first.left
    assert first == Iff(parse_formula("!c1"), parse_formula("b1 | b2"))


def test_evf_of_an_unreachable_world_is_unsatisfiable():
    r1, _ = office_pr_sources()
    assert equivalent(evf(r1, world()), FALSE)


def test_evf_rejects_foreign_tuples():
    r1, _ = office_pr_sources()
    with pytest.raises(ValidationError, match="absent from the relation"):
        evf(r1, world(CS201))


def test_evf_mass_equals_world_probability():
    r1, r2 = office_pr_sources()
    for rel in (r1, r2):
        _, dist = expand_pr(rel)
        for w, p in dist:
            assert formula_prob(evf(rel, w), rel.var_probs) == p


# --- encoding a weighted database -----------------------------------------------------------

def test_encoding_uses_chained_selector_variables():
    s1, _ = office_pw_sources()
    encoded = encode_pw(s1)
    x1, x2 = Variable("x1"), Variable("x2")
    assert encoded.var_probs == {"x1": Fraction(3, 10), "x2": Fraction(5, 7)}
    assert encoded.rows == (
        PrTuple(CS100, Or(x1, And(Not(x1), x2))),
        PrTuple(CS101, Or(And(Not(x1), x2), And(Not(x1), Not(x2)))),
    )


def test_encoding_round_trips_exactly():
    for src in office_pw_sources():
        udb, dist = expand_pr(encode_pw(src))
        assert dict(dist) == dict(zip(src.worlds, src.probs))
        assert udb.tuple_set == src.tuple_set


def test_tuples_outside_every_world_encode_as_false():
    db = UncertainDB.of([CS100, CS201], [world(CS100)], ["1"])
    encoded = encode_pw(db)
    assert encoded.rows == (PrTuple(CS100, TRUE), PrTuple(CS201, FALSE))
    _, dist = expand_pr(encoded)
    assert dict(dist) == {world(CS100): Fraction(1)}


def test_encoding_requires_probabilities():
    bare, _ = roster_pw_sources()
    with pytest.raises(ValidationError, match="carries no probabilities"):
        encode_pw(bare)


def test_encoding_rejects_selector_probabilities_outside_the_open_interval(monkeypatch):
    monkeypatch.setattr("udbi.pwdb.validate_udb", lambda u: [])
    heavy = UncertainDB.of([CS100], [world(CS100), world()], ["1", "1/2"])
    with pytest.raises(ValidationError) as err:
        encode_pw(heavy)
    assert str(err.value) == "selector probability of x1 is 1, outside (0, 1)"


def test_encoding_validates_the_variable_base():
    s1, _ = office_pw_sources()
    with pytest.raises(ValidationError, match="invalid variable base"):
        encode_pw(s1, var_base="1x")


def test_encoded_variables_avoid_reserved_words():
    s1, _ = office_pw_sources()
    encoded = encode_pw(s1, var_base="sel_")
    assert set(encoded.var_probs) == {"sel_1", "sel_2"}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_encoding_round_trips_on_random_databases(seed):
    src = gen_pw_db(seed)
    udb, dist = expand_pr(encode_pw(src))
    assert dict(dist) == dict(zip(src.worlds, src.probs))
    assert udb.tuple_set == src.tuple_set


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_expansion_always_sums_to_one(seed):
    from udbi.gen import gen_pr_pair

    r, s = gen_pr_pair(seed)
    for rel in (r, s):
        _, dist = expand_pr(rel)
        assert sum((p for _, p in dist), Fraction(0)) == 1
