"""Possible-worlds integration: validation, compatibility, exact probabilities."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import golden
from conftest import (
    CS100,
    CS101,
    CS102,
    CS201,
    CS202,
    OFFICE_DISTRIBUTION,
    compatible,
    consistent_pw_docs,
    fraction_integrate_pw_prob,
    gen_pw_db,
    lines_run,
    office_pw_sources,
    pairwise_graph,
    roster_pw_sources,
    world,
)
from udbi import documents, pwdb
from udbi.documents import document_of, dumps_json, parse_document
from udbi.errors import EmptyIntegration, ProbConstraintViolation, ValidationError
from udbi.gen import gen_consistent_pw_pair, gen_pr_pair
from udbi.prdb import expand_pr
from udbi.pwdb import (
    ComponentSummary,
    UncertainDB,
    check_prob_constraints,
    compatibility_graph,
    format_tuple,
    integrate_checked,
    integrate_pw,
    integrate_pw_prob,
    validate_udb,
)


# --- validation --------------------------------------------------------------------

def test_validate_accepts_the_golden_sources():
    for u in (*roster_pw_sources(), *office_pw_sources()):
        assert validate_udb(u) == []


def test_integer_probabilities_are_kept_out_of_equality_hash_and_repr():
    s1, _ = office_pw_sources()
    fresh = UncertainDB(s1.tuple_set, s1.worlds, s1.probs)
    numerators, denominator = s1.integer_probs
    assert [Fraction(n, denominator) for n in numerators] == list(s1.probs)
    assert "integer_probs" in vars(s1)
    assert (fresh, hash(fresh), repr(fresh)) == (s1, hash(s1), repr(s1))


def violations(*args) -> list[str]:
    """The report UncertainDB.of(*args) raises; the test fails if it builds."""
    with pytest.raises(ValidationError) as err:
        UncertainDB.of(*args)
    return err.value.violations


def test_validate_reports_probability_sum():
    report = violations([CS100], [world(CS100), world()], ["1/2", "2/5"])
    assert report == ["probabilities sum to 9/10 != 1"]


def test_validate_reports_out_of_range_probability():
    report = violations([CS100], [world(CS100), world()], ["0", "1"])
    assert "probability of world 0 is 0, outside (0, 1]" in report


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-1, max_value=2, max_denominator=60), min_size=1, max_size=8
    )
)
def test_validate_reports_probabilities_as_fraction_arithmetic_does(probs):
    worlds = [world((f"t{i}",)) for i in range(len(probs))]
    tuples = [(f"t{i}",) for i in range(len(probs))]
    expected = [
        f"probability of world {i} is {p}, outside (0, 1]"
        for i, p in enumerate(probs)
        if not 0 < p <= 1
    ]
    total = sum(probs, Fraction(0))
    if total != 1:
        expected.append(f"probabilities sum to {total} != 1")
    if expected:
        assert violations(tuples, worlds, probs) == expected
    else:
        assert validate_udb(UncertainDB.of(tuples, worlds, probs)) == []


def test_validate_reports_probabilities_that_are_not_fractions():
    tuples = frozenset([CS100])
    worlds = (world(CS100), world())
    for p in (0.5, "1/2", None):
        with pytest.raises(ValidationError) as err:
            UncertainDB(tuples, worlds, (p, Fraction(1, 2)))
        assert err.value.violations == [f"probability of world 0 is {p!r}, not a Fraction"]
    with pytest.raises(ValidationError) as err:
        UncertainDB(tuples, worlds, (Fraction(3, 2), None))
    assert err.value.violations == [
        "probability of world 0 is 3/2, outside (0, 1]",
        "probability of world 1 is None, not a Fraction",
    ]


def test_validate_reports_foreign_tuples_and_duplicates():
    report = violations([CS100], [world(CS101), world(CS101)])
    assert any("outside the tuple set" in line for line in report)
    assert "worlds 0 and 1 are identical" in report


def test_validate_reports_empty_world_set_and_count_mismatch():
    assert violations([CS100], []) == ["database has no possible worlds"]
    report = violations([CS100], [world(CS100)], ["1/2", "1/2"])
    assert "2 probabilities given for 1 worlds" in report


def reference_report(tuple_set, worlds, probs) -> list[str]:
    """validate_udb's report, one tuple, world and probability at a time."""
    report = []
    if any(len(t) == 0 for t in tuple_set):
        report.append("tuple set contains an empty tuple")
    if not worlds:
        report.append("database has no possible worlds")
    for i, w in enumerate(worlds):
        if not w <= tuple_set:
            outside = ", ".join(format_tuple(t) for t in sorted(w - tuple_set))
            report.append(f"world {i} uses tuples outside the tuple set: {outside}")
    seen = {}
    for i, w in enumerate(worlds):
        if w in seen:
            report.append(f"worlds {seen[w]} and {i} are identical")
        else:
            seen[w] = i
    if probs is None:
        return report
    if len(probs) != len(worlds):
        report.append(f"{len(probs)} probabilities given for {len(worlds)} worlds")
    exact = True
    for i, p in enumerate(probs):
        if not isinstance(p, Fraction):
            report.append(f"probability of world {i} is {p!r}, not a Fraction")
            exact = False
        elif not 0 < p <= 1:
            report.append(f"probability of world {i} is {p}, outside (0, 1]")
    if exact and probs:
        total = sum(probs, Fraction(0))
        if total != 1:
            report.append(f"probabilities sum to {total} != 1")
    return report


FAULTS = ("empty tuple", "outside", "repeated world", "count", "not a fraction", "range", "sum")


@st.composite
def faulty_values(draw):
    """(tuple set, worlds, probs) of a valid value, with 0 to 3 faults put in."""
    tuples = [(f"t{k}",) for k in range(draw(st.integers(1, 4)))]
    worlds = draw(
        st.lists(st.frozensets(st.sampled_from(tuples)), min_size=1, max_size=6, unique=True)
    )
    weights = draw(st.lists(st.integers(1, 9), min_size=len(worlds), max_size=len(worlds)))
    probs = [Fraction(w, sum(weights)) for w in weights]
    tuple_set = set(tuples)
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=3)):
        index = st.integers(0, len(worlds) - 1)
        if fault == "empty tuple":
            tuple_set.add(())
        elif fault == "outside":
            i = draw(index)
            worlds[i] = worlds[i] | {(f"x{i}",)}
        elif fault == "repeated world":
            i, k = draw(index), draw(index)
            worlds.insert(k, worlds[i])
            probs.insert(k, probs[i])
        elif fault == "count":
            probs.append(Fraction(1, 7))
        elif fault == "not a fraction":
            probs[draw(index)] = draw(st.sampled_from([0.5, "1/2", None, 1, True]))
        elif fault == "range":
            out_of_range = [Fraction(0), Fraction(-1, 3), Fraction(3, 2)]
            probs[draw(index)] = draw(st.sampled_from(out_of_range))
        else:
            i = draw(index)
            if isinstance(probs[i], Fraction):
                probs[i] /= 2
    return frozenset(tuple_set), tuple(worlds), draw(st.sampled_from([tuple(probs), None]))


@settings(max_examples=300, deadline=None)
@given(faulty_values())
def test_the_constructor_raises_exactly_the_reference_report(value):
    expected = reference_report(*value)
    if expected:
        with pytest.raises(ValidationError) as err:
            UncertainDB(*value)
        assert err.value.violations == expected
    else:
        assert validate_udb(UncertainDB(*value)) == []


# --- compatibility -----------------------------------------------------------------

def test_compatible_agrees_on_shared_tuples_only():
    t1 = frozenset([CS100, CS101, CS102])
    t2 = frozenset([CS101, CS102])
    assert compatible(world(CS101), world(CS101), t1, t2)
    assert not compatible(world(CS100), world(CS101), t1, t2)
    assert not compatible(world(CS100), world(CS102), t1, t2)


def test_compatible_ignores_private_tuples():
    t1 = frozenset([CS100, CS101])
    t2 = frozenset([CS101, CS102])
    assert compatible(world(CS100), world(CS102), t1, t2)


# --- integration without probabilities ----------------------------------------------

def test_integrate_pins_down_the_shared_course():
    s1, s2 = roster_pw_sources(denial=True)
    result = integrate_pw(s1, s2)
    assert result.worlds == (world(CS101),)
    assert result.tuple_set == frozenset([CS100, CS101, CS102])
    assert result.probs is None


def test_integrate_keeps_both_options_without_the_denial():
    s1, s2 = roster_pw_sources(denial=False)
    result = integrate_pw(s1, s2)
    assert result.worlds == (world(CS100, CS102), world(CS101))


def test_integrate_disjoint_sources_crosses_all_worlds():
    s1 = UncertainDB.of([CS100], [world(CS100), world()])
    s2 = UncertainDB.of([CS201], [world(CS201), world()])
    result = integrate_pw(s1, s2)
    assert set(result.worlds) == {
        world(),
        world(CS100),
        world(CS201),
        world(CS100, CS201),
    }


def test_integrate_contradicting_sources_raises():
    s1 = UncertainDB.of([CS100], [world(CS100)])
    s2 = UncertainDB.of([CS100], [world()])
    with pytest.raises(EmptyIntegration, match=r"contradict.* on the tuple \(Bob,CS100\)$"):
        integrate_pw(s1, s2)
    # Worlds 0 differ on both common tuples, and the least one is named.
    s1 = UncertainDB.of([CS100, CS201], [world(CS201), world()])
    s2 = UncertainDB.of([CS100, CS201], [world(CS100), world(CS100, CS201)])
    with pytest.raises(EmptyIntegration, match=r"worlds 0 differ on the tuple \(Bob,CS100\)$"):
        integrate_pw(s1, s2)


def test_integrate_merges_duplicate_unions():
    s1 = UncertainDB.of([CS100, CS101], [world(CS100), world(CS100, CS101)])
    s2 = UncertainDB.of([CS100, CS101], [world(CS100), world(CS100, CS101)])
    result = integrate_pw(s1, s2)
    assert result.worlds == (world(CS100), world(CS100, CS101))


def test_integrate_is_commutative_on_world_sets():
    s1, s2 = office_pw_sources()
    assert set(integrate_pw(s1, s2).worlds) == set(integrate_pw(s2, s1).worlds)


# --- compatibility graph -------------------------------------------------------------

def test_graph_of_the_office_sources():
    s1, s2 = office_pw_sources()
    graph = compatibility_graph(s1, s2)
    assert graph.edges == frozenset({(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3)})
    assert graph.components == (((0, 1), (0, 1)), ((2,), (2, 3)))
    assert (graph.components, graph.edges) == pairwise_graph(s1, s2)


def test_graph_isolated_worlds_form_singleton_components():
    s1, s2 = roster_pw_sources(denial=True)
    graph = compatibility_graph(s1, s2)
    assert graph.edges == frozenset({(1, 0)})
    assert graph.components == (((), (1,)), ((0,), ()), ((1,), (0,)))
    assert (graph.components, graph.edges) == pairwise_graph(s1, s2)
    # Both left worlds lack CS100, which the only right world holds: one
    # trace, but no edges, so two components rather than one class.
    s1 = UncertainDB.of([CS100, CS101], [world(CS101), world()])
    s2 = UncertainDB.of([CS100], [world(CS100)])
    graph = compatibility_graph(s1, s2)
    assert graph.edges == frozenset()
    assert graph.components == (((), (0,)), ((0,), ()), ((1,), ()))
    assert (graph.components, graph.edges) == pairwise_graph(s1, s2)


# --- probabilistic constraints --------------------------------------------------------

def test_office_components_balance_at_known_constants():
    s1, s2 = office_pw_sources()
    checks = check_prob_constraints(s1, s2, compatibility_graph(s1, s2))
    assert [c.violation for c in checks] == [None, None]
    assert [c.constant for c in checks] == [Fraction(4, 5), Fraction(1, 5)]
    assert all(c.balanced for c in checks)


def test_reweighted_office_source_stays_balanced():
    s1, s2 = office_pw_sources()
    s1 = UncertainDB.of(sorted(s1.tuple_set), s1.worlds, ["9/25", "11/25", "1/5"])
    checks = check_prob_constraints(s1, s2, compatibility_graph(s1, s2))
    assert all(c.violation is None for c in checks)
    result = integrate_pw_prob(s1, s2)
    assert sum(result.probs, Fraction(0)) == 1


def test_unbalanced_components_are_reported_with_both_sums():
    s1, s2 = office_pw_sources()
    s2 = UncertainDB.of(
        sorted(s2.tuple_set), s2.worlds, ["7/20", "2/5", "1/10", "3/20"]
    )
    checks = check_prob_constraints(s1, s2, compatibility_graph(s1, s2))
    reasons = [c.violation for c in checks if c.violation is not None]
    assert reasons == [
        "component 0: left worlds [0, 1] sum to 4/5, right worlds [0, 1] sum to 3/4",
        "component 1: left worlds [2] sum to 1/5, right worlds [2, 3] sum to 1/4",
    ]
    with pytest.raises(ProbConstraintViolation) as err:
        integrate_pw_prob(s1, s2)
    assert [c.violation for c in err.value.failures] == reasons


def test_integration_rejects_checks_that_leave_out_a_component():
    s1, s2 = office_pw_sources()
    checks = check_prob_constraints(s1, s2, compatibility_graph(s1, s2))
    with pytest.raises(ValidationError) as err:
        integrate_checked(s1, s2, checks[:1])
    assert str(err.value) == "probabilities sum to 4/5 != 1"


def test_stranded_mass_is_reported_as_partnerless():
    s1 = UncertainDB.of([CS100], [world(CS100), world()], ["1/2", "1/2"])
    s2 = UncertainDB.of(
        [CS100, CS201], [world(CS100), world(CS100, CS201)], ["1/2", "1/2"]
    )
    checks = check_prob_constraints(s1, s2, compatibility_graph(s1, s2))
    reasons = [c.violation for c in checks if c.violation is not None]
    assert reasons == [
        "component 0: left worlds [0] sum to 1/2, right worlds [0, 1] sum to 1",
        "component 1: left worlds [1] carry mass 1/2 but have no compatible partner",
    ]
    swapped = check_prob_constraints(s2, s1, compatibility_graph(s2, s1))
    assert [c.violation for c in swapped if c.violation is not None] == [
        "component 0: right worlds [1] carry mass 1/2 but have no compatible partner",
        "component 1: left worlds [0, 1] sum to 1, right worlds [0] sum to 1/2",
    ]


def _balance_cases():
    """Source pairs whose components balance, and pairs with every kind of
    violation: consistent generated pw pairs, the expanded sources of
    generated pr pairs, and the two unbalanced pw pairs of the golden corpus."""
    for seed in range(20):
        yield gen_consistent_pw_pair(seed)
        yield tuple(expand_pr(r)[0] for r in gen_pr_pair(seed))
    for pair in (golden._UNBALANCED, golden._PARTNERLESS):
        yield tuple(map(parse_document, pair.values()))


def test_a_summary_carries_a_violation_exactly_when_it_is_unbalanced():
    kinds = set()
    for s1, s2 in _balance_cases():
        checks = check_prob_constraints(s1, s2, compatibility_graph(s1, s2))
        assert all((c.violation is None) == c.balanced for c in checks)
        failures = [c for c in checks if c.violation is not None]
        try:
            integrate_checked(s1, s2, checks)
        except ProbConstraintViolation as err:
            assert err.failures == failures
        else:
            assert failures == []
        kinds.update((bool(c.left), bool(c.right)) for c in failures)
    # Both sides unbalanced, and a partnerless side on the left and on the right.
    assert kinds == {(True, True), (True, False), (False, True)}


def test_a_summary_cannot_claim_a_balance_its_sums_lack():
    # One tuple, masses 1/2, 1/2 on the left against 1/3, 2/3 on the right:
    # both components are unbalanced.  A summary rebuilt by hand from its
    # fields reads its balance and its violation off its sums, and takes no
    # violation of its own.
    s1 = UncertainDB.of([("t",)], [world(("t",)), world()], ["1/2", "1/2"])
    s2 = UncertainDB.of([("t",)], [world(("t",)), world()], ["1/3", "2/3"])
    checks = check_prob_constraints(s1, s2, compatibility_graph(s1, s2))
    rebuilt = [ComponentSummary(c.component, c.left, c.right, c.left_sum, c.right_sum) for c in checks]
    assert [c.balanced for c in rebuilt] == [False, False]
    assert [c.violation for c in rebuilt] == [
        "component 0: left worlds [0] sum to 1/2, right worlds [0] sum to 1/3",
        "component 1: left worlds [1] sum to 1/2, right worlds [1] sum to 2/3",
    ]
    with pytest.raises(TypeError):
        ComponentSummary(0, (0,), (0,), Fraction(1, 2), Fraction(2, 3), violation=None)
    with pytest.raises(ProbConstraintViolation) as err:
        integrate_checked(s1, s2, rebuilt)
    assert err.value.failures == rebuilt == checks


def test_prob_integration_requires_probabilities_on_both_sides():
    s1, s2 = office_pw_sources()
    bare = UncertainDB(s2.tuple_set, s2.worlds)
    with pytest.raises(ValidationError, match="carries no probabilities"):
        integrate_pw_prob(s1, bare)


# --- probabilistic integration ---------------------------------------------------------

def test_office_integration_matches_the_closed_form_exactly():
    s1, s2 = office_pw_sources()
    result = integrate_pw_prob(s1, s2)
    assert result.tuple_set == frozenset([CS100, CS101, CS201, CS202])
    assert dict(zip(result.worlds, result.probs)) == OFFICE_DISTRIBUTION
    assert sum(result.probs, Fraction(0)) == 1


def test_identical_certain_sources_integrate_to_themselves():
    u = UncertainDB.of([CS100], [world(CS100)], ["1"])
    result = integrate_pw_prob(u, u)
    assert result.worlds == (world(CS100),)
    assert result.probs == (Fraction(1),)


def test_self_integration_preserves_the_distribution():
    s1, _ = office_pw_sources()
    result = integrate_pw_prob(s1, s1)
    assert dict(zip(result.worlds, result.probs)) == dict(zip(s1.worlds, s1.probs))


def tuple_prob(u: UncertainDB, t) -> Fraction:
    return sum((p for w, p in zip(u.worlds, u.probs) if t in w), Fraction(0))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_consistent_pairs_integrate_exactly(seed):
    s1, s2 = gen_consistent_pw_pair(seed)
    graph = compatibility_graph(s1, s2)
    assert (graph.components, graph.edges) == pairwise_graph(s1, s2)
    checks = check_prob_constraints(s1, s2, graph)
    assert all(c.violation is None for c in checks)
    result = integrate_pw_prob(s1, s2)
    assert sum(result.probs, Fraction(0)) == 1
    for t in s1.tuple_set:
        assert tuple_prob(result, t) == tuple_prob(s1, t)
    for t in s2.tuple_set:
        assert tuple_prob(result, t) == tuple_prob(s2, t)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_prob_integration_is_commutative(seed):
    s1, s2 = gen_consistent_pw_pair(seed)
    forward = integrate_pw_prob(s1, s2)
    backward = integrate_pw_prob(s2, s1)
    assert dict(zip(forward.worlds, forward.probs)) == dict(
        zip(backward.worlds, backward.probs)
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_generated_databases_validate(seed):
    assert validate_udb(gen_pw_db(seed)) == []


def prime_reweighting(s1: UncertainDB, s2: UncertainDB) -> tuple[UncertainDB, UncertainDB]:
    """s1 and s2 reweighted over fresh prime denominators, so little cancels.

    Every component but one takes a mass 1/q, and within it every world of a
    side but one takes a share 1/q, each q a fresh prime; the one left over
    takes the rest, as fractions over pairwise-coprime denominators never sum
    to 1.  Both sides of a component carry its mass, so the pair stays
    balanced.
    """
    primes = (q for q in itertools.count(11) if all(q % k for k in range(2, q)))

    def split(total: Fraction, n: int) -> list[Fraction]:
        shares = [Fraction(1, next(primes)) for _ in range(n - 1)]
        return [total * (1 - sum(shares))] + [total * share for share in shares]

    components = compatibility_graph(s1, s2).components
    probs = ([None] * len(s1.worlds), [None] * len(s2.worlds))
    for (left, right), mass in zip(components, split(Fraction(1), len(components))):
        for side, indices in enumerate((left, right)):
            for i, p in zip(indices, split(mass, len(indices))):
                probs[side][i] = p
    return (
        UncertainDB(s1.tuple_set, s1.worlds, tuple(probs[0])),
        UncertainDB(s2.tuple_set, s2.worlds, tuple(probs[1])),
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_integer_integration_matches_the_fraction_oracle(seed, reweight):
    s1, s2 = gen_consistent_pw_pair(seed, max_scenarios=8)
    if reweight:
        s1, s2 = prime_reweighting(s1, s2)
    for summary in check_prob_constraints(s1, s2, compatibility_graph(s1, s2)):
        assert summary.left_sum == sum((s1.probs[i] for i in summary.left), Fraction(0))
        assert summary.right_sum == sum((s2.probs[j] for j in summary.right), Fraction(0))
    result = integrate_pw_prob(s1, s2)
    oracle = fraction_integrate_pw_prob(s1, s2)
    assert result.worlds == oracle.worlds
    assert result.probs == oracle.probs


# --- work-scaling laws ---------------------------------------------------------------
#
# Each law counts line events (conftest.lines_run) at 200, 400 and 800 worlds
# per source and bounds each doubling's growth by the growth of the worlds
# read plus the worlds written.  Line events do not count the work a builtin
# does inside one line, such as a map() or sorted() over every world, so a
# law bounds the Python statements run, not the C-level passes.

PW_SIZES = (200, 400, 800)


def pw_law_runs():
    """(sources, result) at each size in PW_SIZES."""
    runs = []
    for n in PW_SIZES:
        sources = [parse_document(doc) for doc in consistent_pw_docs(n)]
        runs.append((sources, integrate_pw_prob(*sources)))
    return runs


def assert_grows_with(work, size):
    for k in (1, 2):
        assert work[k] / work[k - 1] <= size[k] / size[k - 1], (work, size)


def test_pw_integration_grows_with_the_worlds_in_and_out():
    runs = pw_law_runs()
    work = [lines_run(pwdb, integrate_pw_prob, *sources) for sources, _ in runs]
    size = [sum(len(u.worlds) for u in (*sources, result)) for sources, result in runs]
    assert_grows_with(work, size)


def test_reading_a_pw_document_grows_with_its_worlds():
    docs = [consistent_pw_docs(n)[0] for n in PW_SIZES]
    work = [sum(lines_run(m, parse_document, doc) for m in (documents, pwdb)) for doc in docs]
    assert_grows_with(work, [len(doc["worlds"]) for doc in docs])


def test_writing_a_pw_result_grows_with_its_worlds():
    results = [result for _, result in pw_law_runs()]
    work = [lines_run(documents, lambda u: dumps_json(document_of(u)), u) for u in results]
    assert_grows_with(work, [len(u.worlds) for u in results])
