"""Acceptance suite: one test per acceptance criterion, exact and timed.

Every probability comparison is exact rational equality, zero tolerance.
Each test enforces its stated wall-time bound and prints one summary line.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from conftest import (
    CS100,
    CS101,
    CS102,
    OFFICE_DISTRIBUTION,
    compatible,
    free_group_epr,
    gen_integrated_epr,
    gen_pw_db,
    lines_run,
    office_epr,
    office_pr_sources,
    office_pw_sources,
    pairwise_graph,
    roster_pr_sources,
    roster_pw_sources,
    world,
)
from udbi import prdb
from udbi.cli import main
from udbi.decompose import enumerate_pairs
from udbi.documents import document_of, dumps_json, parse_document
from udbi.errors import EmptyIntegration, NoValidAssignment
from udbi.gen import gen_pr_pair, gen_prob
from udbi.logic import And, Not, Variable, equivalent, evaluate, parse_formula
from udbi.prdb import (
    PrRelation,
    PrTuple,
    encode_pw,
    evf,
    expand_epr,
    expand_pr,
    integrate_pr,
)
from udbi.probcalc import cross_check, epr_distribution
from udbi.pwdb import (
    UncertainDB,
    check_prob_constraints,
    compatibility_graph,
    integrate_pw,
    integrate_pw_prob,
)

EXPECTED_SIX = {
    world(CS100): Fraction(21, 160),
    world(CS100, ("Bob", "CS201")): Fraction(27, 160),
    world(CS100, CS101): Fraction(35, 160),
    world(CS100, CS101, ("Bob", "CS201")): Fraction(45, 160),
    world(CS101, ("Bob", "CS201")): Fraction(1, 20),
    world(CS101, ("Bob", "CS201"), ("Bob", "CS202")): Fraction(3, 20),
}


def timed(bound: float):
    start = time.perf_counter()

    def done() -> float:
        elapsed = time.perf_counter() - start
        assert elapsed < bound, f"took {elapsed:.2f}s, bound is {bound}s"
        return elapsed

    return done


def test_criterion_1_cli_integration_yields_the_six_exact_probabilities(
    tmp_path, capsys
):
    done = timed(1.0)
    r1, r2 = office_pr_sources()
    for name, value in (("r1", r1), ("r2", r2)):
        (tmp_path / f"{name}.json").write_text(dumps_json(document_of(value)), encoding="utf-8")
    assert (
        main(
            [
                "integrate",
                str(tmp_path / "r1.json"),
                str(tmp_path / "r2.json"),
                "--model",
                "pr",
                "--out",
                str(tmp_path / "q.json"),
            ]
        )
        == 0
    )
    assert main(["prob", str(tmp_path / "q.json"), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    result = parse_document(doc["distribution"])
    assert dict(zip(result.worlds, result.probs)) == EXPECTED_SIX
    elapsed = done()
    with capsys.disabled():
        print(f"\ncriterion 1: PASS (six exact probabilities via CLI, {elapsed:.2f}s)")


def test_criterion_2_pw_route_gives_the_identical_distribution(capsys):
    done = timed(1.0)
    s1, s2 = office_pw_sources()
    pw_result = integrate_pw_prob(s1, s2)
    assert dict(zip(pw_result.worlds, pw_result.probs)) == EXPECTED_SIX
    pr_result = epr_distribution(office_epr()).distribution
    assert dict(zip(pr_result.worlds, pr_result.probs)) == dict(
        zip(pw_result.worlds, pw_result.probs)
    )
    assert pr_result.worlds == pw_result.worlds
    elapsed = done()
    with capsys.disabled():
        print(f"criterion 2: PASS (both routes agree world-by-world, {elapsed:.2f}s)")


def test_criterion_3_roster_goldens_hold_on_both_routes(capsys):
    done = timed(1.0)
    andy, jane = roster_pr_sources()
    q = integrate_pr(andy, jane)
    x, y = Variable("x"), Variable("y")
    assert q.rows == (
        PrTuple(CS100, x),
        PrTuple(CS101, y),
        PrTuple(CS102, Not(y)),
    )
    assert q.constraints == (
        (Not(x), y),
        (parse_formula("false"), Not(y)),
    )
    assert expand_epr(q) == UncertainDB(q.tuples(), (world(CS101),))
    s1, s2 = roster_pw_sources()
    assert integrate_pw(s1, s2).worlds == (world(CS101),)

    andy2, jane2 = roster_pr_sources(denial=False)
    two = set(expand_epr(integrate_pr(andy2, jane2)).worlds)
    assert two == {world(CS101), world(CS100, CS102)}
    s1, s2 = roster_pw_sources(denial=False)
    assert set(integrate_pw(s1, s2).worlds) == two
    elapsed = done()
    with capsys.disabled():
        print(f"criterion 3: PASS (roster goldens on both routes, {elapsed:.2f}s)")


def oracle_world_sets(r: PrRelation, s: PrRelation):
    """World sets via the compact route and via brute-force expansion."""
    q = integrate_pr(r, s)
    try:
        compact = frozenset(expand_epr(q).worlds)
    except NoValidAssignment:
        compact = None
    udb_r, _ = expand_pr(r)
    udb_s, _ = expand_pr(s)
    try:
        brute = frozenset(integrate_pw(udb_r, udb_s).worlds)
    except EmptyIntegration:
        brute = None
    return compact, brute


def test_criterion_4_compact_integration_matches_the_brute_force_oracle(capsys):
    done = timed(30.0)
    agree = 0
    empty = 0
    for seed in range(200):
        r, s = gen_pr_pair(seed)
        compact, brute = oracle_world_sets(r, s)
        assert compact == brute, f"seed {seed}"
        agree += 1
        empty += compact is None
    assert agree == 200
    elapsed = done()
    with capsys.disabled():
        print(
            "criterion 4: PASS (200/200 oracle agreements, "
            f"{empty} contradictions, {elapsed:.2f}s)"
        )


def consistent_free_group_probs(rng: random.Random) -> dict[str, Fraction]:
    shared = gen_prob(rng)
    return {"a": shared, "c": shared, "b": gen_prob(rng), "d": gen_prob(rng)}


def test_criterion_5_every_decomposition_yields_the_same_distribution(capsys):
    done = timed(60.0)
    for seed in range(3):
        probs = consistent_free_group_probs(random.Random(seed))
        q = free_group_epr(probs)
        pairs = enumerate_pairs(q)
        assert len(pairs) == 2
        assert cross_check(q)
    checked = 0
    for seed in range(100):
        q = gen_integrated_epr(seed)
        assert cross_check(q), f"seed {seed}"
        checked += 1
    assert checked == 100
    elapsed = done()
    with capsys.disabled():
        print(
            "criterion 5: PASS (3 reweighted + 100 generated integrations, "
            f"all pairs agree, {elapsed:.2f}s)"
        )


def assert_exact_integration_invariants(udb_r, udb_s, with_probs: bool) -> None:
    graph = compatibility_graph(udb_r, udb_s)
    assert (graph.components, graph.edges) == pairwise_graph(udb_r, udb_s)
    if with_probs:
        assert sum(udb_r.probs, Fraction(0)) == 1
        assert sum(udb_s.probs, Fraction(0)) == 1
        checks = check_prob_constraints(udb_r, udb_s, graph)
        assert all(c.violation is None for c in checks)
        joint = integrate_pw_prob(udb_r, udb_s)
        assert sum(joint.probs, Fraction(0)) == 1


def test_criterion_6_structural_invariants_hold_everywhere(capsys):
    done = timed(60.0)
    checked = 0

    r1, r2 = office_pr_sources()
    assert_exact_integration_invariants(expand_pr(r1)[0], expand_pr(r2)[0], True)
    assert_exact_integration_invariants(*office_pw_sources(), True)
    checked += 2

    for denial in (True, False):
        s1, s2 = roster_pw_sources(denial)
        assert_exact_integration_invariants(s1, s2, False)
        checked += 1

    for seed in range(100):
        r, s = gen_pr_pair(seed)
        udb_r, _ = expand_pr(r)
        udb_s, _ = expand_pr(s)
        assert sum(udb_r.probs, Fraction(0)) == 1
        assert sum(udb_s.probs, Fraction(0)) == 1
        graph = compatibility_graph(udb_r, udb_s)
        assert (graph.components, graph.edges) == pairwise_graph(udb_r, udb_s)
        checked += 1

    for seed in range(50):
        q = gen_integrated_epr(seed)
        for pair in enumerate_pairs(q):
            assert_exact_integration_invariants(
                expand_pr(pair.r)[0], expand_pr(pair.s)[0], True
            )
            checked += 1
    elapsed = done()
    with capsys.disabled():
        print(
            f"criterion 6: PASS ({checked} integrations, components complete "
            f"bipartite, balances and sums exact, {elapsed:.2f}s)"
        )


def test_criterion_7_encoding_round_trips_100_random_databases(capsys):
    done = timed(10.0)
    for seed in range(100):
        src = gen_pw_db(seed)
        assert len(src.worlds) <= 6
        udb, dist = expand_pr(encode_pw(src))
        assert dict(dist) == dict(zip(src.worlds, src.probs)), f"seed {seed}"
        assert udb.tuple_set == src.tuple_set
    elapsed = done()
    with capsys.disabled():
        print(f"criterion 7: PASS (100/100 exact encoder round-trips, {elapsed:.2f}s)")


def test_criterion_8_event_formulas_factor_across_compatible_worlds(capsys):
    done = timed(60.0)
    pairs_checked = 0
    for seed in range(100):
        r, s = gen_pr_pair(seed, max_tuples=3, max_vars=2)
        q = integrate_pr(r, s)
        names = q.variables()
        assignments = [
            dict(zip(names, values))
            for values in itertools.product((False, True), repeat=len(names))
        ]
        udb_r, _ = expand_pr(r)
        udb_s, _ = expand_pr(s)
        for w_r in udb_r.worlds:
            for w_s in udb_s.worlds:
                conj = And(evf(r, w_r), evf(s, w_s))
                if compatible(w_r, w_s, r.tuples(), s.tuples()):
                    assert equivalent(evf(q, w_r | w_s), conj)
                    satisfied = [
                        mu for mu in assignments if evaluate(conj, mu)
                    ]
                    for mu in satisfied:
                        assert all(
                            evaluate(lhs, mu) == evaluate(rhs, mu)
                            for lhs, rhs in q.constraints
                        )
                else:
                    for mu in assignments:
                        if evaluate(conj, mu):
                            assert any(
                                evaluate(lhs, mu) != evaluate(rhs, mu)
                                for lhs, rhs in q.constraints
                            )
                pairs_checked += 1
    elapsed = done()
    with capsys.disabled():
        print(
            f"criterion 8: PASS ({pairs_checked} world pairs, event formulas "
            f"factor exactly, {elapsed:.2f}s)"
        )


def synthetic_relations(n: int) -> tuple[PrRelation, PrRelation]:
    half = n // 2
    left = tuple(
        PrTuple((f"t{i:07d}",), Variable(f"a{i}")) for i in range(n)
    )
    right = tuple(
        PrTuple((f"t{i:07d}",), Variable(f"b{i}")) for i in range(half, half + n)
    )
    return PrRelation(left), PrRelation(right)


def test_criterion_9_integration_scales_near_linearithmically(capsys):
    sizes = (25_000, 50_000, 100_000)
    inputs = {n: synthetic_relations(n) for n in sizes}
    done = timed(10.0)
    times = {}
    for n in sizes:
        r, s = inputs[n]
        best = None
        for _ in range(3):
            start = time.perf_counter()
            q = integrate_pr(r, s)
            run = time.perf_counter() - start
            best = run if best is None else min(best, run)
        times[n] = best
        assert len(q.rows) == n + n // 2
        assert len(q.constraints) == n - n // 2
    assert times[50_000] < 3 * times[25_000], times
    assert times[100_000] < 3 * times[50_000], times
    elapsed = done()
    with capsys.disabled():
        print(
            "criterion 9: PASS (25k/50k/100k rows in "
            f"{times[25_000]:.2f}/{times[50_000]:.2f}/{times[100_000]:.2f}s, "
            f"ratios {times[50_000] / times[25_000]:.2f} and "
            f"{times[100_000] / times[50_000]:.2f}, total {elapsed:.2f}s)"
        )


def test_criterion_9_integration_line_count_grows_near_linearly():
    """The wall-clock test above, counted in lines run instead of seconds."""
    small = lines_run(prdb, integrate_pr, *synthetic_relations(2_000))
    large = lines_run(prdb, integrate_pr, *synthetic_relations(4_000))
    assert large <= 2.5 * small, (small, large)
