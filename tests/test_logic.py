"""Formula parsing, printing, evaluation and equivalence checking."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import udbi.logic as logic_module
from conftest import (
    brute_equivalent,
    formula_texts,
    outcome,
    tree_restrict,
    variable_nodes,
)
from udbi.errors import ExpansionTooLarge, ParseError, UnboundVariable
from udbi.logic import (
    FALSE,
    TRUE,
    And,
    Binary,
    Const,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Variable,
    conjoin,
    disjoin,
    equivalent,
    evaluate,
    iter_vars,
    parse_formula,
    rename_vars,
    restrict,
    shannon_leaves,
    to_text,
    variables,
)
from udbi.gen import gen_formula
from udbi.prdb import PrTuple


def v(name):
    return Variable(name)


# --- parsing -----------------------------------------------------------------

def test_parse_negated_variable():
    assert parse_formula("!x") == Not(v("x"))


def test_parse_iff_of_negation_and_disjunction():
    assert parse_formula("!c1 <-> (b1 | b2)") == Iff(Not(v("c1")), Or(v("b1"), v("b2")))


def test_implication_is_right_associative():
    assert parse_formula("a -> b -> c") == Implies(v("a"), Implies(v("b"), v("c")))


def test_iff_and_binary_connectives_are_left_associative():
    assert parse_formula("a <-> b <-> c") == Iff(Iff(v("a"), v("b")), v("c"))
    assert parse_formula("a & b & c") == And(And(v("a"), v("b")), v("c"))
    assert parse_formula("a | b | c") == Or(Or(v("a"), v("b")), v("c"))


def test_precedence_not_and_or_implies_iff():
    expected = Iff(
        Implies(Or(And(Not(v("a")), v("b")), v("c")), v("d")),
        v("e"),
    )
    assert parse_formula("!a & b | c -> d <-> e") == expected


def test_parse_constants_and_parens():
    assert parse_formula("true") is TRUE
    assert parse_formula("false") is FALSE
    assert parse_formula("((x))") == v("x")


def test_parse_skips_whitespace_and_comments():
    text = """
    # event for the first source
    !c1
      & (b1 | b2)   # second source
    """
    assert parse_formula(text) == And(Not(v("c1")), Or(v("b1"), v("b2")))


def test_parse_error_reports_position_and_expected_tokens():
    with pytest.raises(ParseError) as exc:
        parse_formula("a & | b")
    assert exc.value.position == 4
    assert "(" in exc.value.expected
    assert "identifier" in exc.value.expected


def test_parse_error_on_trailing_input():
    with pytest.raises(ParseError) as exc:
        parse_formula("a b")
    assert exc.value.position == 2
    assert "end of input" in exc.value.expected


def test_parse_error_on_missing_close_paren():
    with pytest.raises(ParseError) as exc:
        parse_formula("(a & b")
    assert exc.value.expected == (")",)


def test_parse_error_on_bad_character():
    with pytest.raises(ParseError) as exc:
        parse_formula("a @ b")
    assert exc.value.position == 2


ATOM = ("!", "(", "identifier", "true", "false")
INFIX = ("&", "|", "->", "<->", "end of input")
AT_ATOM = " (expected !, (, identifier, true, false)"
AT_INFIX = " (expected &, |, ->, <->, end of input)"


@pytest.mark.parametrize(
    "text, message, position, expected",
    [
        ("", "unexpected input '' at position 0" + AT_ATOM, 0, ATOM),
        ("!", "unexpected input '' at position 1" + AT_ATOM, 1, ATOM),
        ("()", "unexpected input ')' at position 1" + AT_ATOM, 1, ATOM),
        ("a)", "unexpected input ')' at position 1" + AT_INFIX, 1, INFIX),
        ("(a", "unexpected input '' at position 2 (expected ))", 2, (")",)),
        ("(a b", "unexpected input 'b' at position 3 (expected ))", 3, (")",)),
        ("a b", "unexpected input 'b' at position 2" + AT_INFIX, 2, INFIX),
        ("a & | b", "unexpected input '|' at position 4" + AT_ATOM, 4, ATOM),
        ("a @ b", "unexpected character '@' at position 2", 2, ()),
        ("café", "unexpected character 'é' at position 3", 3, ()),
        # A bad character wins over an earlier syntax error.
        ("a & | b @", "unexpected character '@' at position 8", 8, ()),
    ],
)
def test_parse_errors_name_the_token_position_and_expected(text, message, position, expected):
    with pytest.raises(ParseError) as exc:
        parse_formula(text)
    error = exc.value
    assert (str(error), error.position, error.expected) == (message, position, expected)


def test_parentheses_nest_without_limit():
    assert parse_formula("(" * 100_000 + "x" + ")" * 100_000) == v("x")


def test_a_long_chain_of_negations_parses():
    f = parse_formula("!" * 100_000 + "x")
    depth = 0
    while isinstance(f, Not):  # iterative: == on this tree would recurse
        f, depth = f.child, depth + 1
    assert (depth, f) == (100_000, v("x"))


def test_parse_qualified_names_round_trip():
    f = parse_formula("s1::x & s2::x")
    assert f == And(v("s1::x"), v("s2::x"))


def test_variable_rejects_reserved_and_malformed_names():
    for bad in ("true", "false", "1x", "a-b", ""):
        with pytest.raises(ValueError):
            Variable(bad)


def test_parsed_and_renamed_names_are_matched_once(monkeypatch):
    name_re = logic_module._NAME_RE
    matched = []

    class Counting:
        def match(self, name):
            matched.append(name)
            return name_re.match(name)

    monkeypatch.setattr(logic_module, "_NAME_RE", Counting())
    f = parse_formula("a & !b | s::c")
    renamed = rename_vars(f, "p")
    assert matched == []
    assert f == Or(And(Variable("a"), Not(Variable("b"))), Variable("s::c"))
    assert renamed == Or(And(Variable("p::a"), Not(Variable("p::b"))), Variable("p::s::c"))


def parse_outcome(text, names=None):
    """The tree parse_formula reads, or its ParseError's text, position and expected."""
    try:
        return parse_formula(text, names)
    except ParseError as err:
        return str(err), err.position, err.expected


def token_outcome(text):
    """parse_outcome of text by the token route alone."""
    try:
        return logic_module._parse_tokens(text, {})
    except ParseError as err:
        return str(err), err.position, err.expected


@given(st.lists(formula_texts(), min_size=1, max_size=8))
@settings(max_examples=300)
def test_a_shared_names_memo_parses_as_a_fresh_parse_does(texts):
    names = {}
    for text in texts:
        shared = parse_outcome(text, names)
        assert shared == parse_outcome(text) == token_outcome(text)
        if isinstance(shared, Formula):
            assert all(node is names[node.name] for node in variable_nodes(shared))
    assert all(node == v(name) for name, node in names.items())


# --- printing ----------------------------------------------------------------

def test_print_uses_minimal_parentheses():
    assert to_text(parse_formula("!a & b | c -> d <-> e")) == "!a & b | c -> d <-> e"
    assert to_text(Not(And(v("a"), v("b")))) == "!(a & b)"
    assert to_text(And(v("a"), And(v("b"), v("c")))) == "a & (b & c)"
    assert to_text(Implies(Implies(v("a"), v("b")), v("c"))) == "(a -> b) -> c"
    assert to_text(Implies(v("a"), Implies(v("b"), v("c")))) == "a -> b -> c"
    assert to_text(Iff(v("a"), Iff(v("b"), v("c")))) == "a <-> (b <-> c)"
    assert to_text(Not(Not(v("a")))) == "!!a"


# --- variables ---------------------------------------------------------------

def test_variables_of_constant_is_empty():
    assert variables(FALSE) == ()


def test_variables_sorted_without_duplicates():
    assert variables(parse_formula("!b1 & !b2 & !b3")) == ("b1", "b2", "b3")
    assert variables(parse_formula("x | (x & y)")) == ("x", "y")


def test_iter_vars_yields_in_pre_order_at_any_depth():
    assert list(iter_vars(parse_formula("(a | b) & !(c -> a)"))) == ["a", "b", "c", "a"]
    names = [f"x{i}" for i in range(5_000)]
    assert list(iter_vars(disjoin(map(v, names)))) == names


# --- evaluation ----------------------------------------------------------------

def test_evaluate_constants_and_negation():
    assert evaluate(FALSE, {}) is False
    assert evaluate(parse_formula("!x"), {"x": False}) is True


def test_evaluate_iff():
    f = parse_formula("!c1 <-> (b1 | b2)")
    assert evaluate(f, {"c1": False, "b1": True, "b2": False}) is True
    assert evaluate(f, {"c1": True, "b1": True, "b2": False}) is False


def test_evaluate_raises_on_unbound_variable():
    with pytest.raises(UnboundVariable) as exc:
        evaluate(parse_formula("x & y"), {"x": True})
    assert exc.value.name == "y"


# Each connective's value at (x, y) = (F, F), (F, T), (T, F), (T, T).
TRUTH_TABLES = {
    And: (False, False, False, True),
    Or: (False, True, True, True),
    Implies: (True, True, False, True),
    Iff: (True, False, False, True),
}
BOOL_PAIRS = list(itertools.product((False, True), repeat=2))


@pytest.mark.parametrize("kind", TRUTH_TABLES, ids=lambda kind: kind.__name__)
def test_each_connective_evaluates_to_its_truth_table(kind):
    f = kind(v("x"), v("y"))
    assert tuple(evaluate(f, {"x": x, "y": y}) for x, y in BOOL_PAIRS) == TRUTH_TABLES[kind]


@pytest.mark.parametrize("kind", TRUTH_TABLES, ids=lambda kind: kind.__name__)
def test_folding_a_constant_operand_agrees_with_evaluation(kind):
    for const, other in itertools.product((TRUE, FALSE), (parse_formula("x & !y"), TRUE, FALSE)):
        for left, right in ((const, other), (other, const)):
            folded = logic_module._fold(kind, left, right)
            assert isinstance(folded, Const) or not _has_constant(folded)
            for x, y in BOOL_PAIRS:
                a = {"x": x, "y": y}
                assert evaluate(folded, a) == evaluate(kind(left, right), a)


def test_a_deciding_left_operand_leaves_the_right_unread():
    assert evaluate(parse_formula("false & y"), {}) is False
    assert evaluate(parse_formula("true | y"), {}) is True
    assert evaluate(parse_formula("false -> y"), {}) is True
    for text, assignment in (("y & false", {}), ("x <-> y", {"x": True}), ("x <-> y", {"x": False})):
        with pytest.raises(UnboundVariable) as exc:
            evaluate(parse_formula(text), assignment)
        assert exc.value.name == "y"


def test_formula_nodes_and_rows_carry_no_instance_dict():
    a, b = v("a"), v("b")
    values = [a, TRUE, Not(a), *(kind(a, b) for kind in TRUTH_TABLES), PrTuple(("t",), a)]
    for value in values:
        assert not hasattr(value, "__dict__"), type(value).__name__


def test_connectives_keep_their_repr_equality_and_hash():
    assert repr(parse_formula("a & !b")) == (
        "And(left=Variable(name='a'), right=Not(child=Variable(name='b')))"
    )
    a, b = v("a"), v("b")
    assert And(a, b) != Or(a, b)
    assert And(a, b) == parse_formula("a & b")
    assert hash(Iff(a, b)) == hash((a, b))


# --- equivalence ---------------------------------------------------------------

def test_equivalent_reflexive():
    f = parse_formula("x | !y")
    assert equivalent(f, f)


def test_equivalent_contradiction_is_false_constant():
    assert equivalent(parse_formula("x & !x"), FALSE)


def test_equivalent_conjunct_absorbed_under_constraint():
    # With b1 true the constraint forces !c1, so the extra conjunct is redundant.
    f = parse_formula("(!c1 <-> (b1 | b2)) & !c1 & !c2 & b1")
    g = parse_formula("(!c1 <-> (b1 | b2)) & !c2 & b1")
    assert equivalent(f, g)


def test_equivalent_distinguishes_inequivalent():
    assert not equivalent(parse_formula("x | y"), parse_formula("x & y"))


def test_equivalent_respects_variable_cap():
    f = disjoin(Variable(f"x{i}") for i in range(21))
    with pytest.raises(ExpansionTooLarge) as exc:
        equivalent(f, f)
    assert exc.value.num_vars == 21
    assert exc.value.cap == 20
    with pytest.raises(ExpansionTooLarge):
        equivalent(parse_formula("a & b"), parse_formula("a"), cap=1)
    assert equivalent(f, f, cap=21)


# --- renaming ------------------------------------------------------------------

def test_rename_vars_qualifies_every_name():
    f = parse_formula("!x & (y | x)")
    assert to_text(rename_vars(f, "s1")) == "!s1::x & (s1::y | s1::x)"


def test_rename_vars_leaves_constants_alone():
    assert rename_vars(TRUE, "s1") is TRUE


def test_rename_vars_rejects_bad_prefix():
    with pytest.raises(ValueError):
        rename_vars(parse_formula("x"), "s:1")


# --- helpers -------------------------------------------------------------------

def test_conjoin_and_disjoin_fold_left():
    parts = [v("a"), v("b"), v("c")]
    assert conjoin(parts) == And(And(v("a"), v("b")), v("c"))
    assert disjoin(parts) == Or(Or(v("a"), v("b")), v("c"))
    assert conjoin([]) is TRUE
    assert disjoin([]) is FALSE


# --- properties ----------------------------------------------------------------

names = st.sampled_from(["a", "b", "c", "x", "y"])


@st.composite
def formulas(draw, max_depth=4):
    if max_depth == 0:
        return draw(st.one_of(
            st.builds(Variable, names),
            st.sampled_from([TRUE, FALSE]),
        ))
    choice = draw(st.integers(0, 6))
    if choice == 0:
        return draw(st.builds(Variable, names))
    if choice == 1:
        return draw(st.sampled_from([TRUE, FALSE]))
    sub = formulas(max_depth=max_depth - 1)
    if choice == 2:
        return Not(draw(sub))
    kind = {3: And, 4: Or, 5: Implies, 6: Iff}[choice]
    return kind(draw(sub), draw(sub))


@given(formulas())
@settings(max_examples=200)
def test_print_parse_round_trip(f):
    """Printed text parses back to the identical tree, by either route."""
    text = to_text(f)
    assert parse_formula(text) == f
    assert logic_module._parse_tokens(text, {}) == f


# --- the plain route -------------------------------------------------------------

@st.composite
def plain_texts(draw):
    """Text in the printer's form: "!*name" operands joined by " op "."""
    operand = st.builds(
        str.__add__,
        st.sampled_from(["", "!", "!!", "!!!"]),
        st.sampled_from(["a", "b", "x1", "s::a", "s::t::b", "true", "false"]),
    )
    parts = [draw(operand)]
    for _ in range(draw(st.integers(0, 7))):
        parts += [draw(st.sampled_from(["&", "|", "->", "<->"])), draw(operand)]
    return " ".join(parts)


@given(plain_texts())
@settings(max_examples=300)
def test_a_plain_text_is_kept_on_its_root_and_is_its_rendering(text):
    f = parse_formula(text)
    assert to_text(f) is text
    assert logic_module._render(f) == text
    assert f == logic_module._parse_tokens(text, {})


@pytest.mark.parametrize(
    "text",
    ["(a)", "a  & b", "a&b", "! a", " a", "a ", "a\t& b", "a & b # note", "# note\na", "café",
     "a & (b | c)", "a &", "a & | b"],
)
def test_other_texts_keep_the_token_route_and_store_no_text(text):
    outcome = parse_outcome(text, {})
    assert outcome == token_outcome(text)
    if isinstance(outcome, Formula):
        assert not hasattr(outcome, "_text")
        assert to_text(outcome) == logic_module._render(outcome)


def test_a_kept_text_changes_no_equality_hash_or_repr():
    parsed, built = parse_formula("a & !b"), And(v("a"), Not(v("b")))
    assert parsed._text == "a & !b" and not hasattr(built, "_text")
    assert (parsed, hash(parsed), repr(parsed)) == (built, hash(built), repr(built))


@given(formulas(), formulas())
@settings(max_examples=100)
def test_de_morgan(f, g):
    assert equivalent(Not(And(f, g)), Or(Not(f), Not(g)))
    assert equivalent(Not(Or(f, g)), And(Not(f), Not(g)))


@given(formulas(), formulas(), formulas())
@settings(max_examples=100)
def test_distributivity(f, g, h):
    assert equivalent(And(f, Or(g, h)), Or(And(f, g), And(f, h)))


@given(formulas(), st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_equivalent_formulas_agree_on_random_assignments(f, rng):
    """A meaning-preserving rewrite stays equivalent and agrees pointwise."""
    rewrites = [Not(Not(f)), And(f, TRUE), Or(f, FALSE), And(f, f), Iff(f, TRUE)]
    g = rng.choice(rewrites)
    assert equivalent(f, g)
    names_ = variables(f)
    for _ in range(100):
        mu = {n: rng.random() < 0.5 for n in names_}
        assert evaluate(f, mu) == evaluate(g, mu)


@given(formulas())
@settings(max_examples=100)
def test_rename_preserves_meaning_under_renamed_assignment(f):
    g = rename_vars(f, "src")
    assert variables(g) == tuple(sorted(f"src::{n}" for n in variables(f)))
    for bits in range(2 ** len(variables(f))):
        mu = {n: bool(bits >> i & 1) for i, n in enumerate(variables(f))}
        nu = {f"src::{n}": val for n, val in mu.items()}
        assert evaluate(f, mu) == evaluate(g, nu)


@given(formulas(), names, st.booleans())
@settings(max_examples=200)
def test_restriction_agrees_with_evaluation_and_folds_every_constant(f, name, value):
    g = restrict(f, name, value)
    rest = [n for n in variables(f) if n != name]
    assert name not in variables(g)
    for values in itertools.product((False, True), repeat=len(rest)):
        mu = dict(zip(rest, values))
        assert evaluate(g, mu) == evaluate(f, {**mu, name: value})
    if variables(g):
        assert not _has_constant(g)
    else:
        assert g in (TRUE, FALSE)


def _has_constant(f) -> bool:
    if isinstance(f, Const):
        return True
    if isinstance(f, Variable):
        return False
    if isinstance(f, Not):
        return _has_constant(f.child)
    return _has_constant(f.left) or _has_constant(f.right)


def test_restriction_shares_unchanged_subformulas():
    f = parse_formula("(a | b) & c")
    assert restrict(f, "d", True) is f
    assert restrict(f, "c", True) is f.left


@st.composite
def shared_formulas(draw):
    """One to three formulas over one pool of nodes.

    Each new node takes its operands from the pool, so subtrees recur within
    and across the formulas as one object; a "copy" adds a node equal to a
    pool node but distinct from it.
    """
    pool = [Variable(n) for n in "abc"] + [TRUE, FALSE]

    def pick():
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from([Not, And, Or, Implies, Iff, "copy"]))
        if kind == "copy":
            pool.append(dataclasses.replace(pick()))
        elif kind is Not:
            pool.append(Not(pick()))
        else:
            pool.append(kind(pick(), pick()))
    return [pool[-1], *draw(st.lists(st.sampled_from(pool), max_size=2))]


def distinct_nodes(formulas) -> dict:
    """The nodes reachable from formulas, by id."""
    nodes = {}
    stack = list(formulas)
    while stack:
        f = stack.pop()
        if id(f) not in nodes:
            nodes[id(f)] = f
            if isinstance(f, Not):
                stack.append(f.child)
            elif isinstance(f, Binary):
                stack += f.left, f.right
    return nodes


@settings(max_examples=200, deadline=None)
@given(shared_formulas() | st.lists(formulas(), min_size=1, max_size=3), names, st.booleans())
def test_restriction_through_one_memo_matches_a_fresh_restriction(roots, name, value):
    memo = {}
    restricted = [restrict(f, name, value, memo) for f in roots]
    assert restricted == [tree_restrict(f, name, value) for f in roots]
    assert restricted == [restrict(f, name, value) for f in roots]
    # Each node is restricted once, to one node that every result shares: a
    # node of the results is a node of the formulas, a constant, or what the
    # memo gives for a node of the formulas.
    inputs = distinct_nodes(roots)
    memoized = {id(restrict(node, name, value, memo)) for node in inputs.values()}
    assert set(distinct_nodes(restricted)) <= set(inputs) | memoized | {id(TRUE), id(FALSE)}


def test_equal_rows_are_restricted_once_per_branch(monkeypatch):
    calls = []
    inner = logic_module._restrict

    def counted(f, *args):
        calls.append(f)
        return inner(f, *args)

    monkeypatch.setattr(logic_module, "_restrict", counted)
    text = " | ".join(f"(a{i} & !b{i})" for i in range(6))
    leaves = list(shannon_leaves([(0, parse_formula(text))]))
    one = len(calls)
    calls.clear()
    # Four rows parsed apart are four equal trees; the walk makes them one
    # node, and each branch restricts it once, then finds it in its memo.
    four = list(shannon_leaves([(k, parse_formula(text)) for k in range(4)]))
    assert [path for _, path in four] == [path for _, path in leaves]
    assert len(calls) < 2 * one


@settings(max_examples=200, deadline=None)
@given(shared_formulas() | st.lists(formulas(), min_size=1, max_size=3))
@example([And(v("a"), v("b")), Or(v("a"), v("b")), Iff(v("b"), v("a")), Not(v("a")), Not(v("b"))])
def test_the_shared_form_is_equal_and_has_one_node_per_distinct_subformula(roots):
    seen, table = {}, {}
    shared = [logic_module._share(f, seen, table) for f in roots]
    assert shared == roots
    nodes = list(distinct_nodes(shared).values())
    assert len(nodes) == len(set(nodes)) == len(set(distinct_nodes(roots).values()))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_equivalence_matches_brute_force(seed):
    rng = random.Random(seed)
    names_ = [f"v{i}" for i in range(rng.randint(1, 8))]
    f = gen_formula(rng, names_, rng.randint(0, 4))
    g = rng.choice([
        gen_formula(rng, names_, rng.randint(0, 4)),
        Not(Not(f)),
        Or(f, And(f, gen_formula(rng, names_, 2))),
        Implies(Not(f), FALSE),
        Iff(f, TRUE),
    ])
    cap = rng.choice((20, rng.randint(0, 8)))
    assert outcome(equivalent, f, g, cap) == outcome(brute_equivalent, f, g, cap)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_shannon_leaves_partition_the_satisfying_assignments(seed):
    # Every assignment satisfying the constraints extends exactly one leaf's
    # path, and that leaf's tags are the rows the assignment makes true; no
    # other assignment extends any leaf's path.
    rng = random.Random(seed)
    names_ = [f"v{i}" for i in range(rng.randint(1, 6))]
    rows = [(k, gen_formula(rng, names_, rng.randint(0, 3))) for k in range(rng.randint(0, 4))]
    constraints = [gen_formula(rng, names_, rng.randint(0, 3)) for _ in range(rng.randint(0, 3))]
    leaves = list(shannon_leaves(rows, constraints))
    for values in itertools.product((False, True), repeat=len(names_)):
        mu = dict(zip(names_, values))
        extended = [sorted(tags) for tags, path in leaves if all(mu[n] == b for n, b in path)]
        if all(evaluate(c, mu) for c in constraints):
            assert extended == [[k for k, f in rows if evaluate(f, mu)]]
        else:
            assert extended == []
