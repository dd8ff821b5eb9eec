"""Document serialization and the command-line surface."""

import argparse
import gc
import json
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (
    CS100,
    CS101,
    FREE_GROUP_PROBS,
    formula_texts,
    free_group_epr,
    gen_pw_db,
    lines_run,
    office_epr,
    office_pr_sources,
    office_pw_sources,
    roster_pr_sources,
    variable_nodes,
    world,
)
from udbi import cli, decompose, documents, errors, logic, prdb, probcalc, pwdb
from udbi.cli import main
from udbi.documents import (
    _parse_prob,
    document_of,
    dumps_json,
    load_document,
    parse_document,
)
from udbi.errors import ValidationError
from udbi.gen import gen_consistent_pw_pair, gen_pr_pair
from udbi.logic import And, Not, Variable, to_text
from udbi.prdb import EprRelation, PrRelation
from udbi.pwdb import UncertainDB


def run(capsys, *args) -> tuple[int, str, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def save(tmp_path, name, value) -> str:
    path = tmp_path / name
    path.write_text(dumps_json(document_of(value)) + "\n", encoding="utf-8")
    return str(path)


# --- documents ------------------------------------------------------------------------

def test_documents_round_trip_the_golden_values():
    r1, r2 = office_pr_sources()
    s1, s2 = office_pw_sources()
    bare = UncertainDB(s1.tuple_set, s1.worlds)
    for value in (r1, r2, s1, s2, bare, office_epr()):
        assert parse_document(document_of(value)) == value


def test_probabilities_serialize_as_fraction_strings():
    _, s2 = office_pw_sources()
    doc = document_of(s2)
    assert [w["prob"] for w in doc["worlds"]] == ["7/20", "9/20", "1/20", "3/20"]


def test_numeric_probabilities_are_rejected():
    doc = document_of(office_pr_sources()[0])
    doc["var_probs"]["c1"] = 0.2
    with pytest.raises(ValidationError, match="must be strings"):
        parse_document(doc)


def test_unknown_keys_are_rejected():
    doc = document_of(office_pr_sources()[0])
    doc["extra"] = True
    with pytest.raises(ValidationError, match="unknown keys"):
        parse_document(doc)


def test_documents_need_a_model_tag():
    with pytest.raises(ValidationError, match='"model"'):
        parse_document({"rows": []})


def test_world_indices_are_checked():
    message = r'^worlds\[0\]: "tuples" must be an array of tuple indices$'
    for indices in ([2], [-1], [True], [0.0], ["0"], [None], [0, 2], 0, "0", {"0": 0}):
        doc = {"model": "pw", "tuples": [["t"], ["u"]], "worlds": [{"tuples": indices}]}
        with pytest.raises(ValidationError, match=message):
            parse_document(doc)
    doc = {"model": "pw", "tuples": [["t"]], "worlds": [{"tuples": []}]}
    assert parse_document(doc).worlds == (frozenset(),)


def test_repeated_pw_tuples_are_rejected():
    for worlds in ([[0], []], [[0], [1]]):
        doc = {
            "model": "pw",
            "tuples": [["a"], ["b"], ["a"]],
            "worlds": [{"tuples": w} for w in worlds],
        }
        with pytest.raises(ValidationError, match=r"^tuples 0 and 2 repeat the tuple \(a\)$"):
            parse_document(doc)


def test_repeated_world_indices_are_rejected():
    doc = {
        "model": "pw",
        "tuples": [["a"], ["b"]],
        "worlds": [{"tuples": [1]}, {"tuples": [0, 1, 0]}],
    }
    with pytest.raises(ValidationError, match=r"^worlds\[1\] lists tuple 0 twice$"):
        parse_document(doc)


def test_partial_world_probabilities_are_rejected():
    doc = {
        "model": "pw",
        "tuples": [["t"]],
        "worlds": [{"tuples": [0], "prob": "1/2"}, {"tuples": []}],
    }
    with pytest.raises(ValidationError, match="every world has a prob or none"):
        parse_document(doc)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_documents_round_trip_generated_values(seed):
    r, s = gen_pr_pair(seed)
    u = gen_pw_db(seed)
    for value in (r, s, u):
        assert parse_document(json.loads(dumps_json(document_of(value)))) == value


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=30,
)


# Text with every kind of character the encoder escapes or passes through:
# quotes, backslashes, control characters, DEL, non-ASCII, a lone surrogate
# and an astral character.
ESCAPED_TEXT = st.text(
    st.sampled_from('a "\\\n\t\x00\x1f\x7f\u00e9\u2603\ud800\U0001f600')
) | st.text()
STRING_LISTS = st.lists(ESCAPED_TEXT, min_size=1, max_size=6)
RELATION_ROWS = st.lists(
    st.fixed_dictionaries({"tuple": STRING_LISTS, "event": ESCAPED_TEXT}), max_size=4
)
# A list that starts with a string but does not hold only strings.
MIXED_LISTS = st.builds(
    lambda first, middle, last: [first, *middle, last],
    ESCAPED_TEXT,
    st.lists(ESCAPED_TEXT, max_size=3),
    JSON_VALUES.filter(lambda value: not isinstance(value, str)),
)


INT_LISTS = st.lists(st.integers(), max_size=5)
# pw worlds, with empty index lists among them.
PW_WORLDS = st.lists(
    st.fixed_dictionaries({"tuples": INT_LISTS, "prob": ESCAPED_TEXT}), min_size=1, max_size=4
)
# Shaped like check's components: int lists, booleans, None and an optional key.
COMPONENTS = st.lists(
    st.fixed_dictionaries(
        {
            "left": INT_LISTS,
            "right": INT_LISTS,
            "left_sum": ESCAPED_TEXT,
            "balanced": st.booleans(),
            "violation": st.none() | ESCAPED_TEXT,
        },
        optional={"constant": ESCAPED_TEXT},
    ),
    min_size=1,
    max_size=3,
)
OBJECTS = st.dictionaries(ESCAPED_TEXT, JSON_VALUES, max_size=4)
# A list that starts with an object: objects with different key sets, empty
# objects, objects nested in listed objects, and later items of any kind.
OBJECT_LISTS = st.builds(
    lambda first, rest: [first, *rest],
    OBJECTS | st.just({}) | st.fixed_dictionaries({"r": OBJECTS, "worlds": PW_WORLDS}),
    st.lists(OBJECTS | JSON_VALUES | RELATION_ROWS | st.just({}), max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(
    JSON_VALUES | STRING_LISTS | RELATION_ROWS | MIXED_LISTS | PW_WORLDS | COMPONENTS
    | OBJECT_LISTS
)
def test_json_writer_matches_json_dumps_indent_2(value):
    assert dumps_json(value) == json.dumps(value, indent=2)


def test_json_writer_escapes_and_nests_like_json_dumps_indent_2():
    value = {
        "": [],
        "empty": {},
        "text": "caf\u00e9 \u2603 \"q\" \\ \n\r\t\b\f \x00\x1f\x7f \ud800 \U0001f600",
        "caf\u00e9\n": [0, -1, 10**4299, True, False, None, ""],
        "nested": [[{"a": [{}, []]}], {"b": {"c": [[[]]]}}],
    }
    assert dumps_json(value) == json.dumps(value, indent=2)
    for leaf in (None, True, False, 0, "x", [], {}):
        assert dumps_json(leaf) == json.dumps(leaf, indent=2)


def test_json_writer_writes_lists_of_objects_with_shared_keys_like_json_dumps():
    values = [
        # Each object's list of one leaf type, but not the same type in all.
        [{"a": [1], "b": "x"}, {"a": ["s"], "b": "y"}, {"a": [], "b": "z"}],
        # Lists that mix leaf types, and leaves that are not strings or ints.
        [{"a": [1, "s"]}, {"a": [2]}],
        [{"a": [True], "b": None}, {"a": [False, True], "b": 3}],
        # Empty lists among leaf lists, and only empty lists.
        [{"t": [], "p": "1"}, {"t": [0, 2], "p": "1/2"}, {"t": []}, {"t": [1]}],
        [{"t": []}, {"t": []}],
        # Nested objects and lists of lists as member values.
        [{"r": {"x": [1]}, "s": [[0], []]}, {"r": {}, "s": [["a"]]}],
        # The same keys in another order, an empty object, and only empty objects.
        [{"a": "1", "b": "2"}, {"b": "3", "a": "4"}],
        [{"a": "1"}, {}],
        [{}, {}],
        # A member column of objects that share their keys, one object with
        # many members, and a column of lists of objects that share their keys.
        [{"r": {"x": [1], "y": "a"}}, {"r": {"x": [], "y": "b"}}],
        [{f"m{i}": [i] * i for i in range(6)}],
        [
            {"rows": [{"t": ["a"], "e": "x"}, {"t": ["b"], "e": "y"}]},
            {"rows": [{"t": [], "e": "z"}]},
        ],
    ]
    for value in values:
        assert dumps_json(value) == json.dumps(value, indent=2)
        assert dumps_json({"k": value}) == json.dumps({"k": value}, indent=2)


@pytest.mark.parametrize("digits", [4_301, 5_000])
def test_json_writer_refuses_the_ints_json_dumps_refuses(digits):
    n = 10 ** (digits - 1)
    # A lone object's int list, and an int list and an int in listed objects.
    for value in ({"n": [-n]}, [{"prob": "1", "tuples": [0, n]}], [{"a": []}, {"n": n}]):
        with pytest.raises(ValueError) as ours:
            dumps_json(value)
        with pytest.raises(ValueError) as theirs:
            json.dumps(value, indent=2)
        # main maps this ValueError to exit 2 ("a result is too long to print").
        assert str(ours.value) == str(theirs.value)
        assert "integer string conversion" in str(ours.value)


def test_out_and_json_documents_are_json_dumps_indent_2(tmp_path, capsys):
    out = tmp_path / "out.json"
    written = 0
    for seed in range(50):
        r, s = gen_pr_pair(seed)
        a, b = gen_consistent_pw_pair(seed)
        r, s = save(tmp_path, "r.json", r), save(tmp_path, "s.json", s)
        a, b = save(tmp_path, "a.json", a), save(tmp_path, "b.json", b)
        q = str(tmp_path / "q.json")
        assert run(capsys, "integrate", r, s, "--model", "pr", "--out", q)[0] == 0
        runs = [
            ["integrate", r, s, "--model", "pr"],
            ["expand", r],
            ["check", r, s],
            ["prob", q],
            ["check", q],
            ["decompose", "--all", q],
            ["expand", q],
            ["integrate", a, b, "--model", "pw"],
            ["check", a, b],
            ["gen", "--seed", str(seed)],
            ["gen", "--model", "pw", "--seed", str(seed)],
        ]
        for args in runs:
            out.unlink(missing_ok=True)
            run(capsys, *args, "--out", str(out))
            _, printed, _ = run(capsys, "--format", "json", *args)
            texts = [printed] if printed else []
            if out.exists():
                texts.append(out.read_text(encoding="utf-8"))
            for text in texts:
                assert text == json.dumps(json.loads(text), indent=2) + "\n"
                written += 1
    assert written > 900


def reference_parse_prob(value, where: str) -> Fraction:
    """The general route for every text: the exponent guard, then Fraction()
    on a text without "_" (a digit separator from Python 3.11 on only)."""
    if not isinstance(value, str):
        raise ValidationError(
            f"{where}: probabilities must be strings like \"0.3\" or \"9/13\", got {value!r}"
        )
    exponent = documents._EXPONENT_RE.search(value)
    if exponent:
        digits = exponent[1].lstrip("0")
        if len(digits) > 4 or int(digits or 0) > 4300:
            raise ValidationError(
                f"{where}: probability {value!r} has an exponent beyond 4300"
            )
    try:
        if "_" in value:
            raise ValueError(value)
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"{where}: cannot read probability {value!r}") from None


PROB_TEXTS = [
    "3/7", "06/08", "0", "1", "00", "2/4", "5/4", "1/0", "0/0", "+1/2", "-1/2",
    " 1/2", "1/2 ", "1/2\n", "1_0/3", "1/3_0", "", "/", "1/", "/2", "1/2/3", "1 / 2",
    "\u0663/\u0667", "\u0661", "\uff11/\uff12", "0.5", ".5", "1e-3", "1E3", "1e-5000",
    "1e4300", "1e0_4300", "1/2e1", "nan", "inf", "0x10",
    "1" * 5_000, "1" * 5_000 + "/3", "3/" + "7" * 5_000, "1" * 4_300 + "/" + "3" * 4_300,
    0.5, 1, None, True, ["1/2"], {"p": "1/2"},
]


@pytest.mark.parametrize("value", PROB_TEXTS, ids=range(len(PROB_TEXTS)))
def test_probabilities_read_as_the_general_route_reads_them(value):
    try:
        expected = reference_parse_prob(value, "var_probs.x")
    except ValidationError as err:
        with pytest.raises(ValidationError) as ours:
            _parse_prob(value, "var_probs.x")
        assert str(ours.value) == str(err)
    else:
        got = _parse_prob(value, "var_probs.x")
        assert type(got) is Fraction and got == expected


def test_equal_probability_texts_share_one_fraction_within_a_document(tmp_path):
    pw = {
        "model": "pw",
        "tuples": [["t"], ["u"]],
        "worlds": [
            {"tuples": [0], "prob": "1/4"},
            {"tuples": [1], "prob": "1/4"},
            {"tuples": [0, 1], "prob": "1/2"},
        ],
    }
    pr = {
        "model": "pr",
        "rows": [{"tuple": ["t"], "event": "a | b"}, {"tuple": ["u"], "event": "c"}],
        "var_probs": {"a": "1/3", "b": "1/3", "c": "1/2"},
    }
    for doc, probs in ((pw, lambda u: u.probs), (pr, lambda r: list(r.var_probs.values()))):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        first, second = probs(load_document(path)), probs(load_document(path))
        assert first[0] is first[1]
        assert first[2] is not first[0]
        # Nothing is kept across reads.
        assert not {id(p) for p in first} & {id(p) for p in second}


def reference_parse_pw_worlds(worlds: list, n: int):
    """The worlds and probabilities of a pw document's "worlds" array over n
    tuples, read one world at a time with every check of that world before
    the next world, raising the reader's messages."""
    read, probs = [], []
    for i, entry in enumerate(worlds):
        if not isinstance(entry, dict):
            raise ValidationError(f"worlds[{i}]: must be an object")
        extra = set(entry) - {"tuples", "prob"}
        if extra:
            raise ValidationError(f"worlds[{i}]: unknown keys {sorted(extra)}")
        indices = entry.get("tuples")
        if not isinstance(indices, list) or any(
            type(k) is not int or not 0 <= k < n for k in indices
        ):
            raise ValidationError(f'worlds[{i}]: "tuples" must be an array of tuple indices')
        for k, index in enumerate(indices):
            if index in indices[:k]:
                raise ValidationError(f"worlds[{i}] lists tuple {index} twice")
        read.append(frozenset(indices))
        prob = entry.get("prob", probs)  # probs stands for a missing prob
        probs.append(None if prob is probs else reference_parse_prob(prob, f"worlds[{i}]"))
    if None in probs and any(p is not None for p in probs):
        raise ValidationError("pw document: either every world has a prob or none does")
    return read, probs


# World entries: valid ones, and each fault the reader names.
WORLD_ENTRIES = st.one_of(
    st.fixed_dictionaries(
        {"tuples": st.lists(st.integers(0, 2), max_size=3)},
        optional={"prob": st.sampled_from(["1/2", "1/4", "1", "", "x", "1/0", None, 1, ["1/2"]])},
    ),
    st.fixed_dictionaries(
        {"tuples": st.sampled_from([[3], [-1], [True], [0.0], "0", None, {}])},
        optional={"prob": st.just("1/2")},
    ),
    st.fixed_dictionaries({"tuples": st.just([0]), "p": st.just("1")}),
    st.sampled_from([[], "w", None, 0]),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(WORLD_ENTRIES, max_size=5))
def test_pw_worlds_read_as_a_world_by_world_reading_reads_them(worlds):
    doc = {"model": "pw", "tuples": [["t"], ["u"], ["v"]], "worlds": worlds}
    tuples = [("t",), ("u",), ("v",)]
    try:
        indices, probs = reference_parse_pw_worlds(worlds, len(tuples))
    except ValidationError as err:
        with pytest.raises(ValidationError) as ours:
            parse_document(doc)
        assert str(ours.value) == str(err)
        return
    try:
        expected = UncertainDB(
            frozenset(tuples),
            tuple(frozenset(tuples[k] for k in w) for w in indices),
            None if not probs or probs[0] is None else tuple(probs),
        )
    except ValidationError as err:
        with pytest.raises(ValidationError) as ours:
            parse_document(doc)
        assert ours.value.violations == err.violations
    else:
        assert parse_document(doc) == expected


def test_a_repeated_bad_probability_is_reported_at_its_first_occurrence():
    worlds = [
        {"tuples": [0], "prob": "1/2"},
        {"tuples": [1], "prob": "x"},
        {"tuples": [], "prob": "x"},
    ]
    doc = {"model": "pw", "tuples": [["t"], ["u"]], "worlds": worlds}
    with pytest.raises(ValidationError, match=r"^worlds\[1\]: cannot read probability 'x'$"):
        parse_document(doc)
    rows = [{"tuple": ["t"], "event": "a & b & c"}]
    doc = {"model": "pr", "rows": rows, "var_probs": {"a": "1/2", "b": "x", "c": "x"}}
    with pytest.raises(ValidationError, match=r"^var_probs\.b: cannot read probability 'x'$"):
        parse_document(doc)
    # A text read once but out of range is reported for every variable that
    # uses it, with the other faults, in var_probs order.
    doc["var_probs"] = {"a": "2", "1x": "1/2", "b": "1/2", "c": "2"}
    with pytest.raises(ValidationError) as err:
        parse_document(doc)
    assert err.value.violations == [
        "probability of variable a is 2, outside (0, 1)",
        "invalid variable name '1x' in probabilities",
        "probability of variable c is 2, outside (0, 1)",
    ]


@pytest.mark.parametrize("value", [0.5, None, True, ["1/2"]], ids=repr)
def test_probabilities_that_are_not_strings_keep_their_messages(value):
    must = 'probabilities must be strings like "0.3" or "9/13", got '
    # The value comes after the text "1/2" and occurs twice.
    worlds = [
        {"tuples": [0], "prob": "1/2"},
        {"tuples": [1], "prob": value},
        {"tuples": [], "prob": value},
    ]
    doc = {"model": "pw", "tuples": [["t"], ["u"]], "worlds": worlds}
    with pytest.raises(ValidationError) as err:
        parse_document(doc)
    assert str(err.value) == f"worlds[1]: {must}{value!r}"
    rows = [{"tuple": ["t"], "event": "a & b & c"}]
    doc = {"model": "pr", "rows": rows, "var_probs": {"a": "1/2", "b": value, "c": value}}
    with pytest.raises(ValidationError) as err:
        parse_document(doc)
    assert str(err.value) == f"var_probs.b: {must}{value!r}"


def test_equal_formula_texts_are_parsed_once_and_shared(tmp_path, monkeypatch):
    doc = {
        "model": "epr",
        "rows": [
            {"tuple": ["t"], "event": "a & b"},
            {"tuple": ["u"], "event": "a & b"},
            {"tuple": ["v"], "event": "!c | d"},
        ],
        "constraints": [{"lhs": "!c | d", "rhs": "a & b"}],
        "var_probs": {"a": "1/2", "b": "1/3", "c": "1/5", "d": "1/7"},
    }
    path = tmp_path / "q.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    parse_formula = documents.parse_formula
    parsed = []

    def counting(text, names=None):
        parsed.append(text)
        return parse_formula(text, names)

    monkeypatch.setattr(documents, "parse_formula", counting)
    q = load_document(path)
    assert sorted(parsed) == ["!c | d", "a & b"]
    (lhs, rhs), = q.constraints
    assert q.rows[0].event is q.rows[1].event is rhs
    assert q.rows[2].event is lhs
    again = load_document(path)
    assert again == q and len(parsed) == 4

    def formula_ids(rel):
        return {id(row.event) for row in rel.rows} | {id(f) for c in rel.constraints for f in c}

    assert formula_ids(q).isdisjoint(formula_ids(again))


def test_each_variable_name_is_one_node_per_document(tmp_path):
    doc = {
        "model": "epr",
        "rows": [
            {"tuple": ["t"], "event": "a & b"},
            {"tuple": ["u"], "event": "!a | s::b"},
            {"tuple": ["v"], "event": "(b -> a) & true"},
        ],
        "constraints": [{"lhs": "a <-> s::b", "rhs": "a & b"}],
    }
    path = tmp_path / "q.json"
    path.write_text(json.dumps(doc), encoding="utf-8")

    def formulas(rel):
        return [row.event for row in rel.rows] + [f for c in rel.constraints for f in c]

    nodes = {}
    for f in formulas(load_document(path)):
        for node in variable_nodes(f):
            assert nodes.setdefault(node.name, node) is node
    assert sorted(nodes) == ["a", "b", "s::b"]
    # Another document, or another read of this one, gets nodes of its own.
    again = [node for f in formulas(load_document(path)) for node in variable_nodes(f)]
    assert all(node == nodes[node.name] and node is not nodes[node.name] for node in again)


def relation_doc(n: int, model: str) -> dict:
    """A pr or epr document of n rows over n + 2 variables: three-variable
    formulas, every fourth one parenthesized and the others in the printer's
    form, and for epr one constraint per two rows pairing their formulas."""
    rows = []
    for k in range(n):
        a, b, c = (f"v{k + j}" for j in range(3))
        event = f"({a} | !{b}) & {c}" if k % 4 == 0 else f"{a} & !{b} | {c}"
        rows.append({"tuple": [f"t{k:06d}"], "event": event})
    doc = {"model": model, "rows": rows}
    if model == "epr":
        doc["constraints"] = [
            {"lhs": rows[k]["event"], "rhs": rows[k + 1]["event"]} for k in range(0, n, 2)
        ]
    doc["var_probs"] = {f"v{k}": f"{k % 7 + 1}/9" for k in range(n + 2)}
    return doc


@pytest.mark.parametrize("model", ["pr", "epr"])
def test_loading_a_relation_document_grows_with_its_rows(tmp_path, model):
    work = []
    for n in (2_000, 4_000, 8_000):
        path = tmp_path / f"{model}{n}.json"
        path.write_text(json.dumps(relation_doc(n, model)), encoding="utf-8")
        work.append(sum(lines_run(module, load_document, path) for module in (logic, documents)))
    assert work[1] <= 2 * work[0] and work[2] <= 2 * work[1], work


# --- expand ---------------------------------------------------------------------------

def test_expand_prints_exact_fractions(tmp_path, capsys):
    r1, _ = office_pr_sources()
    code, out, _ = run(capsys, "expand", save(tmp_path, "r1.json", r1))
    assert code == 0
    assert "3/10" in out and "1/2" in out and "1/5" in out
    assert "TOTAL" in out and "1.000000" in out


def test_expand_emits_a_loadable_document(tmp_path, capsys):
    r1, _ = office_pr_sources()
    code, out, _ = run(
        capsys, "expand", save(tmp_path, "r1.json", r1), "--format", "json"
    )
    assert code == 0
    expanded = parse_document(json.loads(out))
    assert expanded == office_pw_sources()[0]


def test_expand_worlds_only_drops_probabilities(tmp_path, capsys):
    r1, _ = office_pr_sources()
    code, out, _ = run(
        capsys,
        "expand",
        save(tmp_path, "r1.json", r1),
        "--worlds-only",
        "--format",
        "json",
    )
    assert code == 0
    assert parse_document(json.loads(out)).probs is None


def test_expand_lists_constrained_worlds(tmp_path, capsys):
    andy, jane = roster_pr_sources()
    from udbi.prdb import integrate_pr

    q = integrate_pr(andy, jane)
    code, out, _ = run(capsys, "expand", save(tmp_path, "q.json", q))
    assert code == 0
    assert out.strip().splitlines() == ["WORLD", "{(Bob,CS101)}"]


# --- integrate ------------------------------------------------------------------------

def test_integrate_pr_writes_the_epr_document(tmp_path, capsys):
    r1, r2 = office_pr_sources()
    out_path = tmp_path / "q.json"
    code, out, _ = run(
        capsys,
        "integrate",
        save(tmp_path, "r1.json", r1),
        save(tmp_path, "r2.json", r2),
        "--model",
        "pr",
        "--out",
        str(out_path),
    )
    assert code == 0
    assert out == ""
    assert load_document(out_path) == office_epr()
    apart = PrRelation.of([row for row in r2.rows if row.tuple != CS100], r2.var_probs)
    code, _, _ = run(
        capsys,
        "integrate",
        save(tmp_path, "r1.json", r1),
        save(tmp_path, "apart.json", apart),
        "--model",
        "pr",
        "--out",
        str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert (doc["model"], doc["constraints"], len(doc["rows"])) == ("epr", [], 4)


def test_integrate_pw_with_probabilities_is_exact(tmp_path, capsys):
    s1, s2 = office_pw_sources()
    code, out, _ = run(
        capsys,
        "integrate",
        save(tmp_path, "s1.json", s1),
        save(tmp_path, "s2.json", s2),
        "--model",
        "pw",
        "--format",
        "json",
    )
    assert code == 0
    result = parse_document(json.loads(out))
    assert len(result.worlds) == 6
    assert sum(result.probs, Fraction(0)) == 1


def test_integrate_pw_without_probabilities_keeps_worlds_only(tmp_path, capsys):
    s1, s2 = office_pw_sources()
    bare1 = UncertainDB(s1.tuple_set, s1.worlds)
    bare2 = UncertainDB(s2.tuple_set, s2.worlds)
    code, out, _ = run(
        capsys,
        "integrate",
        save(tmp_path, "s1.json", bare1),
        save(tmp_path, "s2.json", bare2),
        "--model",
        "pw",
        "--format",
        "json",
    )
    assert code == 0
    assert parse_document(json.loads(out)).probs is None


def test_integrate_checks_the_model_flag(tmp_path, capsys):
    r1, _ = office_pr_sources()
    s1, _ = office_pw_sources()
    code, _, err = run(
        capsys,
        "integrate",
        save(tmp_path, "r1.json", r1),
        save(tmp_path, "s1.json", s1),
        "--model",
        "pw",
    )
    assert code == 2
    assert "needs two pw documents" in err
    bare = EprRelation.of(r1.rows, (), r1.var_probs)
    code, _, err = run(
        capsys,
        "integrate",
        save(tmp_path, "r1.json", r1),
        save(tmp_path, "bare.json", bare),
        "--model",
        "pr",
    )
    assert code == 2
    assert err == "error: --model pr needs two pr documents\n"


# --- prob and check --------------------------------------------------------------------

def test_prob_reports_the_six_exact_probabilities(tmp_path, capsys):
    code, out, _ = run(capsys, "prob", save(tmp_path, "q.json", office_epr()))
    assert code == 0
    for text in ("21/160", "27/160", "7/32", "9/32", "1/20", "3/20"):
        assert text in out
    assert "P=4/5 balanced" in out and "P=1/5 balanced" in out


def test_prob_json_document_carries_distribution_and_pair(tmp_path, capsys):
    q = save(tmp_path, "q.json", office_epr())
    code, out, _ = run(capsys, "prob", q, "--format", "json")
    assert code == 0
    # --format before the command prints the same bytes.
    assert run(capsys, "--format", "json", "prob", q) == (0, out, "")
    doc = json.loads(out)
    worlds = parse_document(doc["distribution"])
    assert sum(worlds.probs, Fraction(0)) == 1
    assert {c["constant"] for c in doc["components"]} == {"4/5", "1/5"}
    r1, r2 = office_pr_sources()
    assert parse_document(doc["pair"]["r"]) == r2
    assert parse_document(doc["pair"]["s"]) == r1


def test_check_single_relation_cross_checks(tmp_path, capsys):
    code, out, _ = run(capsys, "check", save(tmp_path, "q.json", office_epr()))
    assert code == 0
    assert "cross-check: ok" in out


def test_check_single_relation_exits_one_when_a_pair_disagrees(tmp_path, capsys, monkeypatch):
    q = save(tmp_path, "q.json", free_group_epr(FREE_GROUP_PROBS))
    monkeypatch.setattr(probcalc, "integrate_pw_prob", lambda r, s: None)
    code, out, err = run(capsys, "check", q)
    assert (code, err) == (1, "")
    assert out.endswith("cross-check: FAILED\n")


def test_integrate_walks_no_formula_and_decompose_walks_each_once(
    tmp_path, capsys, monkeypatch
):
    walked = []
    iter_vars = logic.iter_vars

    def counted(f):
        walked.append(to_text(f))
        return iter_vars(f)

    for module in (logic, prdb, decompose):
        monkeypatch.setattr(module, "iter_vars", counted)
    r, s = office_pr_sources()
    r_path, s_path = save(tmp_path, "r.json", r), save(tmp_path, "s.json", s)
    q = office_epr()
    q_path = save(tmp_path, "q.json", q)
    out = str(tmp_path / "out.json")
    # The second pair shares every name, so integrate_pr renames both sides.
    for argv in ([r_path, s_path], [r_path, r_path]):
        walked.clear()
        assert run(capsys, "integrate", *argv, "--model", "pr", "--out", out)[0] == 0
        assert walked == []
    # The loaded document holds one formula object per distinct text, and
    # decompose walks each object once.
    texts = {to_text(row.event) for row in q.rows}
    texts |= {to_text(side) for c in q.constraints for side in c}
    for argv in (["decompose"], ["decompose", "--all"]):
        walked.clear()
        assert run(capsys, *argv, q_path, "--out", out)[0] == 0
        assert sorted(walked) == sorted(texts)


def with_free_groups(q: EprRelation, k: int) -> EprRelation:
    """q with k more rows, each guarded by a variable of its own: k free groups."""
    rows = q.rows + tuple(((f"free{i}",), Variable(f"f{i}")) for i in range(k))
    return EprRelation.of(rows, q.constraints, {**q.var_probs, **{f"f{i}": "1/3" for i in range(k)}})


def test_single_relation_check_decomposes_once(tmp_path, capsys, monkeypatch):
    # Each part is expanded once: the two cores and each free group, not
    # both sides of all 2^k pairs.  check merges no pair, prob merges pair 0
    # to print it, and decompose --all merges each of the 2^k pairs.
    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    partition = counted("partition", decompose.partition)
    monkeypatch.setattr(decompose, "partition", partition)
    monkeypatch.setattr(probcalc, "partition", partition)
    monkeypatch.setattr(decompose, "_route", counted("route", decompose._route))
    monkeypatch.setattr(probcalc, "expand_pr", counted("expand", probcalc.expand_pr))
    monkeypatch.setattr(decompose.Parts, "pair", counted("pair", decompose.Parts.pair))
    for k in range(5):
        path = save(tmp_path, "q.json", with_free_groups(office_epr(), k))
        for argv, shown, expand, pairs in (
            (["check"], "cross-check: ok", 2 + k, 0),
            (["prob"], "pair r:", 2 + k, 1),
            (["decompose", "--all"], f"pair {(1 << k) - 1} r:", 0, 1 << k),
        ):
            calls.update(partition=0, route=0, expand=0, pair=0)
            code, out, _ = run(capsys, *argv, path)
            assert code == 0 and shown in out
            assert calls == {"partition": 1, "route": 1, "expand": expand, "pair": pairs}


def test_prob_of_a_pr_document_matches_the_epr_document_of_its_rows(tmp_path, capsys):
    r1, _ = office_pr_sources()
    bare = EprRelation.of(r1.rows, (), r1.var_probs)
    outputs = []
    for name, value in (("r1", r1), ("bare", bare)):
        out_path = tmp_path / f"{name}.prob.json"
        code, _, _ = run(
            capsys, "prob", save(tmp_path, f"{name}.json", value), "--out", str(out_path)
        )
        assert code == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]
    distribution = parse_document(json.loads(outputs[0])["distribution"])
    assert dict(zip(distribution.worlds, distribution.probs)) == {
        world(CS100): Fraction(3, 10),
        world(CS100, CS101): Fraction(1, 2),
        world(CS101): Fraction(1, 5),
    }


def test_relation_commands_reject_the_other_document_kinds(tmp_path, capsys):
    s1, _ = office_pw_sources()
    pw_path = save(tmp_path, "s1.json", s1)
    for command in ("prob", "decompose", "check"):
        code, out, err = run(capsys, command, pw_path)
        assert (code, out) == (2, "")
        assert err == "error: this command needs a pr or epr document\n"
    r1, _ = office_pr_sources()
    code, out, err = run(
        capsys,
        "check",
        save(tmp_path, "r1.json", r1),
        save(tmp_path, "q.json", office_epr()),
    )
    assert (code, out) == (2, "")
    assert err == "error: check between two sources takes pw or pr documents\n"


def test_check_two_balanced_sources(tmp_path, capsys):
    s1, s2 = office_pw_sources()
    code, out, _ = run(
        capsys,
        "check",
        save(tmp_path, "s1.json", s1),
        save(tmp_path, "s2.json", s2),
    )
    assert code == 0
    assert "balance: ok" in out
    assert "complete-bipartite: yes" in out


def test_check_mixed_models_expands_pr_sources(tmp_path, capsys):
    r1, _ = office_pr_sources()
    _, s2 = office_pw_sources()
    code, out, _ = run(
        capsys,
        "check",
        save(tmp_path, "r1.json", r1),
        save(tmp_path, "s2.json", s2),
    )
    assert code == 0
    assert "balance: ok" in out


def test_check_unbalanced_sources_exit_five(tmp_path, capsys):
    s1, s2 = office_pw_sources()
    skewed = UncertainDB.of(
        sorted(s2.tuple_set), s2.worlds, ["7/20", "2/5", "1/10", "3/20"]
    )
    code, out, _ = run(
        capsys,
        "check",
        save(tmp_path, "s1.json", s1),
        save(tmp_path, "s2.json", skewed),
    )
    assert code == 5
    assert "balance: VIOLATED" in out


def test_each_pw_value_finds_its_common_denominator_once(tmp_path, capsys, monkeypatch):
    # One lcm per source read, and for integrate one over the component
    # constants and one for the result.
    calls = []
    lcm = pwdb.lcm

    def counted(*args):
        calls.append(args)
        return lcm(*args)

    monkeypatch.setattr(pwdb, "lcm", counted)
    a, b = gen_consistent_pw_pair(5)
    paths = save(tmp_path, "a.json", a), save(tmp_path, "b.json", b)
    for argv, expected in ((["integrate", *paths, "--model", "pw"], 4), (["check", *paths], 2)):
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == expected, argv[0]


# --- decompose ---------------------------------------------------------------------------

def test_decompose_emits_the_default_pair(tmp_path, capsys):
    code, out, _ = run(
        capsys, "decompose", save(tmp_path, "q.json", office_epr()), "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["pairs"]) == 1
    r1, r2 = office_pr_sources()
    assert parse_document(doc["pairs"][0]["r"]) == r2
    assert parse_document(doc["pairs"][0]["s"]) == r1


def test_plain_documents_integrate_and_decompose_without_rendering(tmp_path, capsys, monkeypatch):
    """Every formula integrate --model pr and decompose write was read in the
    same command, so each prints the text its root kept."""
    r, s = (save(tmp_path, f"{name}.json", rel) for name, rel in zip("rs", office_pr_sources()))
    q, out = str(tmp_path / "q.json"), str(tmp_path / "out.json")
    rendered = []
    render = logic._render

    def counting(f, min_level=0):
        rendered.append(f)
        return render(f, min_level)

    monkeypatch.setattr(logic, "_render", counting)
    runs = [
        ["integrate", r, s, "--model", "pr", "--out", q],
        ["integrate", r, s, "--model", "pr"],
        ["--format", "json", "integrate", r, s, "--model", "pr"],
        ["decompose", "--all", q],
        ["--format", "json", "decompose", "--all", q],
        ["decompose", q, "--out", out],
    ]
    for argv in runs:
        assert run(capsys, *argv)[0] == 0
    assert rendered == []
    assert to_text(Not(And(Variable("a"), Variable("b")))) == "!(a & b)"
    assert rendered  # the count sees a formula built, not read


def test_decompose_names_missing_probabilities_as_prob_and_check_do(tmp_path, capsys):
    doc = document_of(office_epr())
    del doc["var_probs"]["c2"]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("prob", "check", "decompose"):
        expected = (2, "", "error: missing probabilities for variables: c2\n")
        assert run(capsys, command, str(path)) == expected


def test_decompose_all_lists_every_pair(tmp_path, capsys):
    q = free_group_epr(FREE_GROUP_PROBS)
    code, out, _ = run(
        capsys, "decompose", save(tmp_path, "q.json", q), "--all", "--format", "json"
    )
    assert code == 0
    assert len(json.loads(out)["pairs"]) == 2


def test_decompose_rejects_unrecognizable_relations(tmp_path, capsys):
    from udbi.logic import Variable
    from udbi.prdb import EprRelation

    a, b = Variable("a"), Variable("b")
    q = EprRelation.of([(("t",), a), (("u",), b)], [(a, And(a, b))])
    code, _, err = run(capsys, "decompose", save(tmp_path, "bad.json", q))
    assert code == 6
    assert "not recognized as integrated" in err


def test_decompose_rejects_a_negative_limit(tmp_path, capsys):
    path = save(tmp_path, "q.json", free_group_epr(FREE_GROUP_PROBS))
    code, out, err = run(capsys, "decompose", path, "--limit", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --limit must be 0 or more, got -1\n"
    code, out, _ = run(capsys, "decompose", path, "--limit", "0", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"pairs": []}


def test_a_negative_cap_is_rejected_for_every_document_kind(tmp_path, capsys):
    r1, _ = office_pr_sources()
    s1, _ = office_pw_sources()
    for path in (save(tmp_path, "r1.json", r1), save(tmp_path, "s1.json", s1)):
        for argv in (("--cap", "-1", "expand", path), ("expand", path, "--cap", "-1")):
            assert run(capsys, *argv) == (2, "", "error: --cap must be 0 or more, got -1\n")
    code, out, _ = run(capsys, "--cap", "0", "expand", save(tmp_path, "s1.json", s1))
    assert code == 0 and out


def test_out_and_json_output_render_no_table(tmp_path, capsys, monkeypatch):
    def no_table(*args):
        raise AssertionError("a text table was rendered")

    monkeypatch.setattr("udbi.cli._relation_table", no_table)
    monkeypatch.setattr("udbi.cli._distribution_table", no_table)
    r1, r2 = office_pr_sources()
    q_path, pairs_path = tmp_path / "q.json", tmp_path / "pairs.json"
    code, out, _ = run(
        capsys,
        "integrate",
        save(tmp_path, "r1.json", r1),
        save(tmp_path, "r2.json", r2),
        "--model",
        "pr",
        "--out",
        str(q_path),
    )
    assert (code, out) == (0, "")
    assert load_document(q_path) == office_epr()
    code, out, _ = run(capsys, "decompose", str(q_path), "--out", str(pairs_path))
    assert (code, out) == (0, "")
    pairs = json.loads(pairs_path.read_text(encoding="utf-8"))
    assert pairs == {"pairs": [{"r": document_of(r2), "s": document_of(r1)}]}
    code, out, _ = run(capsys, "decompose", str(q_path), "--format", "json")
    assert code == 0
    assert json.loads(out) == pairs
    code, out, _ = run(capsys, "prob", str(q_path), "--format", "json")
    assert code == 0
    assert json.loads(out)["pair"] == pairs["pairs"][0]


def test_table_output_builds_no_document(tmp_path, capsys, monkeypatch):
    r1, r2 = office_pr_sources()
    s1, s2 = office_pw_sources()
    pr_a, pr_b = save(tmp_path, "r1.json", r1), save(tmp_path, "r2.json", r2)
    pw_a, pw_b = save(tmp_path, "s1.json", s1), save(tmp_path, "s2.json", s2)
    q = save(tmp_path, "q.json", office_epr())
    commands = [
        ("expand", pr_a),
        ("expand", pw_a),
        ("expand", q),
        ("integrate", pr_a, pr_b, "--model", "pr"),
        ("integrate", pw_a, pw_b, "--model", "pw"),
        ("prob", q),
        ("check", q),
        ("check", pw_a, pw_b),
        ("decompose", "--all", q),
        ("gen", "--seed", "3"),
        ("gen", "--model", "pw", "--seed", "3"),
    ]
    expected = [run(capsys, *argv) for argv in commands]
    assert all(code == 0 and out for code, out, _ in expected)

    def no_document(value):
        raise AssertionError("a document was built for table output")

    monkeypatch.setattr(cli, "document_of", no_document)
    assert [run(capsys, *argv) for argv in commands] == expected


# --- one parser, one exit-code table ------------------------------------------------------

def test_main_builds_no_parser(tmp_path, capsys, monkeypatch):
    def no_parser(*args, **kwargs):
        raise AssertionError("main built an argument parser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", no_parser)
    path = save(tmp_path, "q.json", office_epr())
    code, out, _ = run(capsys, "prob", path)
    assert code == 0 and "21/160" in out
    with pytest.raises(SystemExit) as exit_:
        main(["--format", "xml", "prob", path])
    assert exit_.value.code == 2


def test_back_to_back_calls_share_no_state(tmp_path, capsys):
    q = save(tmp_path, "q.json", office_epr())
    code, out, _ = run(capsys, "--format", "json", "prob", q, "--cap", "5")
    assert code == 0 and json.loads(out)["distribution"]["model"] == "pw"
    code, out, _ = run(capsys, "prob", q)
    assert code == 0 and out.startswith("WORLD ")
    code, out, _ = run(capsys, "prob", q, "--out", str(tmp_path / "p.json"))
    assert (code, out) == (0, "")
    code, out, _ = run(capsys, "prob", q)
    assert code == 0 and out.startswith("WORLD ")
    free = save(tmp_path, "free.json", free_group_epr(FREE_GROUP_PROBS))
    code, out, _ = run(capsys, "decompose", "--all", free)
    assert code == 0 and "pair 1 s:" in out
    code, out, _ = run(capsys, "decompose", free)
    assert code == 0 and "pair 0 s:" in out and "pair 1" not in out


def test_every_error_type_has_an_exit_code():
    error_types = {
        value
        for value in vars(errors).values()
        if isinstance(value, type) and issubclass(value, errors.UdbError)
    }
    assert set(cli._EXIT_CODES) == error_types - {errors.UdbError}


# --- exit codes ---------------------------------------------------------------------------

def exit_code_cases(tmp_path) -> dict[int, list[str]]:
    """Arguments that end main in each exit code but 1."""
    a, b = Variable("a"), Variable("b")
    q = office_epr()
    skewed = EprRelation.of(q.rows, q.constraints, dict(q.var_probs, c1=Fraction(3, 10)))
    return {
        0: ["prob", save(tmp_path, "q.json", q)],
        2: ["prob", save(tmp_path, "unbound.json", EprRelation.of([(("t",), a)], []))],
        3: ["--cap", "1", "expand", save(tmp_path, "r2.json", office_pr_sources()[1])],
        4: [
            "integrate",
            save(tmp_path, "s1.json", UncertainDB.of([CS100], [world(CS100)])),
            save(tmp_path, "s2.json", UncertainDB.of([CS100], [world()])),
            "--model",
            "pw",
        ],
        5: ["prob", save(tmp_path, "skewed.json", skewed)],
        6: [
            "decompose",
            save(tmp_path, "bad.json", EprRelation.of([(("t",), a), (("u",), b)], [(a, And(a, b))])),
        ],
    }


@pytest.mark.parametrize("enabled", [True, False])
def test_main_pauses_the_garbage_collector_and_restores_the_callers_state(
    tmp_path, capsys, monkeypatch, enabled
):
    during = []
    load = cli.load_document

    def recording(path):
        during.append(gc.isenabled())
        return load(path)

    def failing(path):
        during.append(gc.isenabled())
        raise RuntimeError("not a UdbError")

    cases = exit_code_cases(tmp_path)
    monkeypatch.setattr(cli, "load_document", recording)
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for code, argv in cases.items():
            assert run(capsys, *argv)[0] == code
            assert gc.isenabled() is enabled
        with pytest.raises(SystemExit):
            main(["--format", "xml", *cases[0]])
        assert gc.isenabled() is enabled
        monkeypatch.setattr(cli, "load_document", failing)
        assert run(capsys, *cases[0])[0] == 7
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()
    assert len(during) == 8 and not any(during)


@pytest.mark.parametrize(
    "error, line",
    [
        (MemoryError(), "error: internal error: MemoryError\n"),
        (RuntimeError("two\nlines"), "error: internal error: RuntimeError: two lines\n"),
        (ValueError("not a digit limit"), "error: internal error: ValueError: not a digit limit\n"),
    ],
)
def test_a_crash_exits_seven_in_one_line_without_a_traceback(capsys, monkeypatch, error, line):
    def failing(path):
        raise error

    monkeypatch.setattr(cli, "load_document", failing)
    assert run(capsys, "expand", "r.json") == (7, "", line)


@pytest.mark.parametrize("error", [KeyboardInterrupt, SystemExit])
def test_an_interrupt_or_exit_passes_through_main(monkeypatch, error):
    def failing(path):
        raise error

    monkeypatch.setattr(cli, "load_document", failing)
    with pytest.raises(error):
        main(["expand", "r.json"])


FUZZ_NAMES = ("a", "b", "s::a")
FUZZ_PROBS = ["1/2", "1/3", "0.25", "0", "1", "3/7"]
FUZZ_BAD_PROBS = ["3/2", "-1/2", "1_0/3", "1e-5000", "x", 0.5, None]
FUZZ_COMMANDS = [
    ["expand", "A"],
    ["--format", "json", "prob", "A"],
    ["check", "A"],
    ["decompose", "--all", "A"],
    ["decompose", "A", "--out", "OUT"],
    ["--cap", "2", "check", "A", "B"],
    ["integrate", "A", "B", "--model", "pr"],
    ["integrate", "A", "B", "--model", "pw"],
]


def fuzz_documents():
    """pr, epr and pw documents with random formula texts and probabilities."""
    texts = st.one_of(formula_texts(FUZZ_NAMES), st.sampled_from(["a", "!b", "a | s::a"]))
    probs = st.one_of(st.sampled_from(FUZZ_PROBS), st.sampled_from(FUZZ_PROBS + FUZZ_BAD_PROBS))
    tuples = st.sampled_from([["t"], ["u"], ["v", "w"]])
    rows = st.lists(
        st.fixed_dictionaries({"tuple": tuples, "event": texts}),
        max_size=3,
        unique_by=lambda row: tuple(row["tuple"]),
    )
    var_probs = st.one_of(
        st.fixed_dictionaries({name: probs for name in FUZZ_NAMES}),
        st.dictionaries(st.sampled_from([*FUZZ_NAMES, "c", "true"]), probs, max_size=3),
    )
    constraints = st.lists(st.fixed_dictionaries({"lhs": texts, "rhs": texts}), max_size=3)
    worlds = st.lists(
        st.fixed_dictionaries(
            {"tuples": st.lists(st.integers(0, 2), max_size=3, unique=True)},
            optional={"prob": probs},
        ),
        min_size=1,
        max_size=4,
    )
    return st.one_of(
        st.fixed_dictionaries(
            {"model": st.just("pr"), "rows": rows}, optional={"var_probs": var_probs}
        ),
        st.fixed_dictionaries(
            {"model": st.just("epr"), "rows": rows, "constraints": constraints},
            optional={"var_probs": var_probs},
        ),
        st.fixed_dictionaries(
            {
                "model": st.just("pw"),
                "tuples": st.permutations([["t"], ["u"], ["v", "w"]]),
                "worlds": worlds,
            }
        ),
    )


@given(fuzz_documents(), fuzz_documents())
@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_any_document_ends_in_a_documented_exit_code(tmp_path, capsys, a, b):
    paths = {"OUT": str(tmp_path / "out.json")}
    for key, doc in (("A", a), ("B", b)):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths[key] = str(path)
    enabled = gc.isenabled()
    for argv in FUZZ_COMMANDS:
        code, _, err = run(capsys, *(paths.get(arg, arg) for arg in argv))
        assert 0 <= code <= 6 and "Traceback" not in err
        assert gc.isenabled() is enabled


def test_unreadable_input_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "expand", str(path))
    assert code == 2 and "not valid JSON" in err
    code, _, err = run(capsys, "expand", str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read" in err
    path.write_bytes(b'{"model": "pw\xff"}')
    code, _, err = run(capsys, "expand", str(path))
    assert code == 2 and "not valid JSON" in err and "Traceback" not in err


def test_repeated_json_keys_exit_two(tmp_path, capsys):
    path = tmp_path / "twice.json"
    path.write_text(
        '{"model": "pr", "rows": [{"tuple": ["t"], "event": "x"}],'
        ' "var_probs": {"x": "1/2", "x": "1/3"}}',
        encoding="utf-8",
    )
    assert run(capsys, "expand", str(path)) == (
        2, "", f"error: {path} is not valid JSON: repeated key 'x'\n"
    )


def test_unwritable_out_path_exits_two(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "gen", "--seed", "3", "--out", str(missing))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {missing}: [Errno 2] No such file or directory: '{missing}'\n"
    code, out, err = run(capsys, "gen", "--seed", "3", "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {tmp_path}: [Errno 21] Is a directory")
    assert "Traceback" not in err and err.count("\n") == 1


def test_bad_formula_text_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {"model": "pr", "rows": [{"tuple": ["t"], "event": "a &"}]}
        ),
        encoding="utf-8",
    )
    code, _, err = run(capsys, "expand", str(path))
    assert code == 2 and "expected" in err


def pr_event_doc(event: str, var_probs: dict) -> str:
    rows = [{"tuple": ["t"], "event": event}]
    return json.dumps({"model": "pr", "rows": rows, "var_probs": var_probs})


DEEP_INPUTS = {
    "or_chain.json": pr_event_doc(
        " | ".join(f"x{i}" for i in range(2_000)), {f"x{i}": "1/2" for i in range(2_000)}
    ),
    "not_chain.json": pr_event_doc("!" * 3_000 + "x", {"x": "1/2"}),
    "json_arrays.json": "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize("name", sorted(DEEP_INPUTS))
def test_input_nested_too_deeply_exits_two(tmp_path, capsys, name):
    path = tmp_path / name
    path.write_text(DEEP_INPUTS[name], encoding="utf-8")
    for command in ("expand", "prob", "check", "decompose"):
        code, out, err = run(capsys, "--format", "json", command, str(path))
        assert "Traceback" not in err
        if name != "json_arrays.json" and command == "decompose":
            # Both chains are plain text, so the root keeps its text and
            # nothing renders it: the one row is a free group, which pair 0
            # puts on the s side, as read.
            empty = {"model": "pr", "rows": [], "var_probs": {}}
            pairs = [{"r": empty, "s": json.loads(DEEP_INPUTS[name])}]
            assert (code, json.loads(out), err) == (0, {"pairs": pairs}, "")
            continue
        if name == "or_chain.json":
            # The long chain loads, its variables are known from the read, and
            # without constraints no row formula is hashed: it meets the cap.
            expected = (3, "", "error: expansion over 2000 variables exceeds cap of 20\n")
        else:
            expected = (2, "", "error: input nested too deeply\n")
        assert (code, out, err) == expected


def test_nested_parentheses_read_like_the_bare_formula(tmp_path, capsys):
    deep, bare = tmp_path / "deep.json", tmp_path / "bare.json"
    deep.write_text(pr_event_doc("(" * 3_000 + "x" + ")" * 3_000, {"x": "1/2"}), encoding="utf-8")
    bare.write_text(pr_event_doc("x", {"x": "1/2"}), encoding="utf-8")
    for command in ("expand", "prob", "decompose"):
        code, out, err = run(capsys, command, str(deep))
        assert (code, err) == (0, "")
        assert run(capsys, command, str(bare)) == (0, out, "")


LONG_NUMBER_INPUTS = {
    "tiny_prob.json": (
        pr_event_doc("x", {"x": "1e-5000"}),
        "error: var_probs.x: probability '1e-5000' has an exponent beyond 4300\n",
    ),
    "huge_exponent.json": (
        pr_event_doc("x", {"x": "1e100000000"}),
        "error: var_probs.x: probability '1e100000000' has an exponent beyond 4300\n",
    ),
    "tiny_product.json": (
        pr_event_doc("x & y", {"x": "1e-3000", "y": "1e-3000"}),
        "error: a result is too long to print\n",
    ),
    "long_integer.json": (
        '{"model": "pw", "tuples": [["t"]], "worlds": [{"tuples": [' + "1" * 5_000 + "]}]}",
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(LONG_NUMBER_INPUTS))
def test_numbers_too_long_to_read_or_print_exit_two(tmp_path, capsys, name):
    text, message = LONG_NUMBER_INPUTS[name]
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "expand", str(path))
    assert time.perf_counter() - start < 1
    assert "Traceback" not in err and err.count("\n") == 1
    assert (code, out) == (2, "")
    if message is None:
        assert err.startswith(f"error: {path} is not valid JSON: Exceeds the limit")
    else:
        assert err == message


def test_cap_flag_exits_three_in_both_positions(tmp_path, capsys):
    _, r2 = office_pr_sources()
    path = save(tmp_path, "r2.json", r2)
    code, _, err = run(capsys, "--cap", "1", "expand", path)
    assert code == 3 and "exceeds cap of 1" in err
    code, _, err = run(capsys, "expand", path, "--cap", "1")
    assert code == 3


def test_contradicting_pw_sources_exit_four(tmp_path, capsys):
    s1 = UncertainDB.of([CS100], [world(CS100)])
    s2 = UncertainDB.of([CS100], [world()])
    code, _, err = run(
        capsys,
        "integrate",
        save(tmp_path, "s1.json", s1),
        save(tmp_path, "s2.json", s2),
        "--model",
        "pw",
    )
    assert code == 4
    assert "contradict" in err and "on the tuple (Bob,CS100)" in err


def test_unsatisfiable_constraints_exit_four(tmp_path, capsys):
    from udbi.logic import Not, Variable
    from udbi.prdb import EprRelation

    a = Variable("a")
    q = EprRelation.of([(("t",), a)], [(a, Not(a))], {"a": "1/2"})
    code, _, err = run(capsys, "expand", save(tmp_path, "q.json", q))
    assert code == 4
    assert "no valid assignment" in err


def test_unbalanced_probabilities_exit_five(tmp_path, capsys):
    q = office_epr()
    skewed = dict(q.var_probs, c1=Fraction(3, 10))
    from udbi.prdb import EprRelation

    bad = EprRelation.of(q.rows, q.constraints, skewed)
    code, _, err = run(capsys, "prob", save(tmp_path, "q.json", bad))
    assert code == 5
    assert "probabilistic constraints violated" in err


# --- gen ----------------------------------------------------------------------------------

def test_gen_is_deterministic(capsys):
    code, first, _ = run(capsys, "gen", "--seed", "7", "--format", "json")
    assert code == 0
    code, second, _ = run(capsys, "gen", "--seed", "7", "--format", "json")
    assert first == second


def test_gen_pr_output_parses_and_integrates(capsys):
    code, out, _ = run(capsys, "gen", "--seed", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    from udbi.prdb import integrate_pr

    a = parse_document(doc["a"])
    b = parse_document(doc["b"])
    integrate_pr(a, b)


def test_gen_pw_pairs_integrate_without_violations(capsys):
    from udbi.pwdb import integrate_pw_prob

    for seed in range(8):
        code, out, _ = run(
            capsys, "gen", "--seed", str(seed), "--model", "pw", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        result = integrate_pw_prob(parse_document(doc["a"]), parse_document(doc["b"]))
        assert sum(result.probs, Fraction(0)) == 1


def test_gen_validates_its_knobs(capsys):
    code, _, err = run(capsys, "gen", "--max-tuples", "0")
    assert code == 2
    assert "--max-tuples" in err


def test_generated_pairs_share_tuples_often_enough():
    shared = sum(
        1
        for seed in range(600)
        if gen_pr_pair(seed)[0].tuples() & gen_pr_pair(seed)[1].tuples()
    )
    assert shared >= 180
