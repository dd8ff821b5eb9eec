"""Byte-identity corpus of the udbi command line.

Each case runs ``udbi.cli.main`` in process, in a scratch directory that
holds the corpus documents under fixed relative names, and records one line:
the case id, the exit code, and sha256 prefixes of stdout, stderr and the
bytes written to ``--out`` ("-" when a stream is not compared).  A case
whose text depends on the Python version records its exit code only.
``test_golden.py`` compares the lines with the committed
``golden_digests.txt``; a change that means to alter outputs regenerates it:

    PYTHONPATH=src python tests/golden.py           # list the cases that differ
    PYTHONPATH=src python tests/golden.py --write   # rewrite golden_digests.txt
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

DIGESTS = Path(__file__).with_name("golden_digests.txt")
OUT = "out.json"
# The json module's own messages in these differ between Python versions.
EXIT_ONLY = {"long_int/expand", "broken/expand"}


def _pr_doc(rows, var_probs=None, constraints=None) -> dict:
    doc = {"model": "pr" if constraints is None else "epr"}
    doc["rows"] = [{"tuple": [t], "event": event} for t, event in rows]
    if constraints is not None:
        doc["constraints"] = [{"lhs": lhs, "rhs": rhs} for lhs, rhs in constraints]
    if var_probs is not None:
        doc["var_probs"] = var_probs
    return doc


# Recognition faults: a self-linked group, an odd constraint cycle, and
# constraints matching no row or two rows; both_faults breaks both the
# 2-colouring and condition 3.
_HALVES = {"a": "1/2", "b": "1/2", "c": "1/2"}
_FREE_PROBS = {"a": "1/3", "b": "2/5", "c": "1/3", "d": "1/2"}
_RECOGNITION = {
    "self_link": _pr_doc([("t", "a"), ("u", "b")], _HALVES, [("a", "a & b")]),
    "odd_cycle": _pr_doc(
        [("t1", "a"), ("t2", "b"), ("t3", "c")], _HALVES, [("a", "b"), ("b", "c"), ("c", "a")]
    ),
    "no_match": _pr_doc([("t", "a"), ("u", "b")], _HALVES, [("!a", "!b")]),
    "two_matches": _pr_doc([("t", "a"), ("u", "a"), ("v", "b")], _HALVES, [("a", "b")]),
    "both_faults": _pr_doc([("t", "a"), ("u", "b")], _HALVES, [("a", "a & b"), ("!a", "!b")]),
    "free_group": _pr_doc([("t1", "a"), ("t2", "b"), ("t3", "!c | d")], _FREE_PROBS, [("a", "c")]),
    # The faulty group has two variables, and groups are numbered by first
    # use, not by name: {y, z} comes first, so the cycle's BFS starts there
    # and names {b, c}; numbered by name it would start at {a} and name {y, z}.
    "self_link_named": _pr_doc(
        [("t", "z & y"), ("u", "a")], {"a": "1/2", "y": "1/2", "z": "1/2"},
        [("a", "z & y"), ("y", "z & y")],
    ),
    "odd_cycle_named": _pr_doc(
        [("t1", "z & y"), ("t2", "a"), ("t3", "c | b")],
        {name: "1/2" for name in "abcyz"},
        [("z & y", "a"), ("a", "c | b"), ("c | b", "z & y")],
    ),
}

# A variable-free row whose partner, the other side of its constraint, is
# variable-free too: the row and the one its constraint adds have no
# variable to route them by.
_CONSTANT_PARTNER = _pr_doc(
    [("t", "b"), ("u", "true")], {"a": "1/2", "b": "1/2"}, [("a", "b"), ("false", "true")]
)

# The free-group relation with a probability for a variable that no formula
# uses: no part takes it.
_UNUSED_PROB = {**_RECOGNITION["free_group"], "var_probs": {**_FREE_PROBS, "e": "1/7"}}

# The worked example of the README.
_OFFICE = {
    "monday": _pr_doc([("CS100", "!c1"), ("CS101", "c1 | c2")], {"c1": "1/5", "c2": "5/8"}),
    "tuesday": _pr_doc(
        [("CS100", "b1 | b2"), ("CS201", "!b1"), ("CS202", "!b1 & !b2 & !b3")],
        {"b1": "7/20", "b2": "9/13", "b3": "1/4"},
    ),
}

# A pw pair with two components, both unbalanced: 1/2 on the left against
# 1/3 on the right, and 1/2 against 2/3.
_UNBALANCED = {
    "a": {
        "model": "pw", "tuples": [["t"], ["u"]],
        "worlds": [{"tuples": [0], "prob": "1/2"}, {"tuples": [1], "prob": "1/2"}],
    },
    "b": {
        "model": "pw", "tuples": [["t"]],
        "worlds": [{"tuples": [0], "prob": "1/3"}, {"tuples": [], "prob": "2/3"}],
    },
}

_PROB_TEXTS = [
    "3/7", "06/08", "0", "1", "2/4", "5/4", "1/0", "0/0", "+1/2", "-1/2", " 1/2",
    "1_0/3", "", "/", "1/2/3", "٣/٧", "0.5", ".5", "1e-3", "1E3", "1e-5000",
    "1e4300", "nan", "inf", "1" * 5_000, "3/" + "7" * 5_000, 0.5, 1, None, True, ["1/2"],
]

_BAD_NAMES = ["", "1x", "x y", "a-b", "true", "x::", "::x", "café"]


def _deep(event: str, names) -> dict:
    return _pr_doc([("t", event)], {name: "1/2" for name in names})


_DEEP = {
    "or_chain": _deep(" | ".join(f"x{i}" for i in range(2_000)), [f"x{i}" for i in range(2_000)]),
    "not_chain": _deep("!" * 3_000 + "x", ["x"]),
    "parens": _deep("(" * 3_000 + "x" + ")" * 3_000, ["x"]),
}

# A 2,000-term chain on each side of the one constraint, in the printer's
# form, the row holding the second: an integration of two deep sources.
_DEEP_EPR = _pr_doc(
    [("t", " | ".join(f"y{i}" for i in range(2_000)))],
    {f"{base}{i}": "1/2" for base in "xy" for i in range(2_000)},
    [(" & ".join(f"x{i}" for i in range(2_000)), " | ".join(f"y{i}" for i in range(2_000)))],
)

# Documents whose form the reader rejects, as JSON text, one message each.
_FORM_FAULTS = {
    "not_object": "[]",
    "no_model": '{"rows": []}',
    "unknown_key": '{"model": "pr", "rows": [], "extra": 1}',
    "repeated_key": '{"model": "pr", "model": "pr", "rows": []}',
    "tuples_type": '{"model": "pw", "tuples": {}, "worlds": []}',
    "worlds_type": '{"model": "pw", "tuples": [], "worlds": 1}',
    "constraints_type": '{"model": "epr", "rows": [], "constraints": {}}',
    "rows_type": '{"model": "pr", "rows": "t"}',
    "var_probs_type": '{"model": "pr", "rows": [], "var_probs": []}',
    "world_entry": '{"model": "pw", "tuples": [], "worlds": [[]]}',
    "world_key": '{"model": "pw", "tuples": [], "worlds": [{"tuples": [], "p": "1"}]}',
    "constraint_entry": '{"model": "epr", "rows": [], "constraints": ["a = b"]}',
    "row_entry": '{"model": "pr", "rows": [["t"]]}',
    "row_key": '{"model": "pr", "rows": [{"tuple": ["t"], "event": "a", "p": "1"}]}',
    "world_indices": '{"model": "pw", "tuples": [["t"]], "worlds": [{"tuples": [1]}]}',
    "repeated_index": '{"model": "pw", "tuples": [["t"]], "worlds": [{"tuples": [0, 0]}]}',
    "mixed_prob": (
        '{"model": "pw", "tuples": [["t"]],'
        ' "worlds": [{"tuples": [0], "prob": "1/2"}, {"tuples": []}]}'
    ),
    # Two faulty worlds, world 0's fault of a kind checked after world 1's:
    # the message names world 0.
    "first_world_prob": (
        '{"model": "pw", "tuples": [["t"]], "worlds": [{"tuples": [0], "prob": "1/0"}, []]}'
    ),
    "first_world_repeat": (
        '{"model": "pw", "tuples": [["t"]],'
        ' "worlds": [{"tuples": [0, 0]}, {"tuples": [0], "p": "1"}]}'
    ),
    "first_world_null": (
        '{"model": "pw", "tuples": [["t"]],'
        ' "worlds": [{"tuples": [], "prob": null}, {"tuples": [1], "prob": "1"}]}'
    ),
    "empty_tuple": '{"model": "pr", "rows": [{"tuple": [], "event": "a"}]}',
    "tuple_item": '{"model": "pw", "tuples": [[1]], "worlds": []}',
    "event_type": '{"model": "pr", "rows": [{"tuple": ["t"], "event": 1}]}',
    "lhs_type": '{"model": "epr", "rows": [], "constraints": [{"lhs": true, "rhs": "a"}]}',
    "missing_event": '{"model": "pr", "rows": [{"tuple": ["t"]}]}',
    "pw_tuples_first": '{"model": "pw", "tuples": [["t"], [], 5], "worlds": []}',
    # Relation documents with several faults, the first faulty entry's fault
    # of a kind checked after a later entry's: the message names the first.
    "first_row_parse": '{"model": "pr", "rows": [{"tuple": ["t"], "event": "a &"}, []]}',
    "first_lhs_parse": (
        '{"model": "epr", "rows": [{"tuple": "t", "event": "a"}],'
        ' "constraints": [{"lhs": "a $", "rhs": "b"}]}'
    ),
    "first_rhs_parse": (
        '{"model": "epr", "rows": [],'
        ' "constraints": [{"lhs": "a", "rhs": "(b"}, {"lhs": 2, "rhs": "a"}]}'
    ),
    "lhs_parse_rhs_type": '{"model": "epr", "rows": [], "constraints": [{"lhs": "a &", "rhs": 5}]}',
    "first_rhs_type": '{"model": "epr", "rows": [], "constraints": [{"lhs": "a", "rhs": 1}, "x"]}',
    "first_row_tuple": (
        '{"model": "pr", "rows": [{"tuple": [], "event": "a"}, {"tuple": ["u"], "event": "b", "p": "1"}]}'
    ),
    "first_row_event": (
        '{"model": "pr", "rows": [{"tuple": ["t"], "event": null}, {"tuple": [1], "event": "a"}]}'
    ),
    "row_tuple_then_parse": '{"model": "pr", "rows": [{"tuple": ["t", 2], "event": "a &"}]}',
    "first_tuple_later_parse": (
        '{"model": "pr", "rows": [{"tuple": [1], "event": "a"}, {"tuple": ["u"], "event": "b |"}]}'
    ),
    "constraint_parse_first": (
        '{"model": "epr", "rows": [{"tuple": ["t"], "event": "a $"}],'
        ' "constraints": [{"lhs": "c", "rhs": "b &"}]}'
    ),
    "constraint_before_row": '{"model": "epr", "rows": [1], "constraints": [{"rhs": "a"}]}',
    "parse_before_rows_type": (
        '{"model": "epr", "rows": 5, "constraints": [{"lhs": "a &", "rhs": "b"}]}'
    ),
}

# Documents of a valid form that a constructor or a command rejects.
_VALUE_FAULTS = {
    "parse_end": _pr_doc([("t", "a &")], {"a": "1/2"}),
    "parse_char": _pr_doc([("t", "a $ b")], {"a": "1/2", "b": "1/2"}),
    "shared_tuple": {
        "model": "pr", "rows": [{"tuple": ["t"], "event": "a"}, {"tuple": ["t"], "event": "b"}],
    },
    "partial_pr": _pr_doc([("t", "a | b")], {"a": "1/2"}),
    "no_worlds": {"model": "pw", "tuples": [["t"]], "worlds": []},
    "same_worlds": {"model": "pw", "tuples": [["t"]], "worlds": [{"tuples": [0]}, {"tuples": [0]}]},
    "no_assignment": _pr_doc([("t", "a")], {"a": "1/2"}, [("a", "!a")]),
}

# Both constraints match the one row, so decomposition would give its tuple
# twice to the side opposite the row's.
_SAME_TUPLE = _pr_doc([("t", "a")], _HALVES, [("a", "b"), ("a", "c")])

# Independent 2-world sources over their own two tuples, as (base, worlds by
# tuple index, probabilities): chain-encoded, each has one variable, and
# added to a source it becomes a free group of the integration.
_BLOCKS = [
    ("x", [[0], [0, 1]], ["1/3", "2/3"]),
    ("y", [[], [1]], ["1/4", "3/4"]),
    ("z", [[1], [0]], ["2/5", "3/5"]),
]
# The seed of the chain-encoded pw pair the blocks are added to: its q has a
# 3-variable core on each side.
_BLOCKS_SEED = 27

# A 3-variable core against a 1-variable one, P = 1/8 on both, and two
# 1-variable free groups: pair 0 splits 3 + 3 variables, and each group
# flipped alone 4 + 2, so `check` meets a cap of 4 and not one of 3.
_CAP_SOURCES = {
    "r": _pr_doc([("t", "a1")], {"a1": "1/8"}),
    "s": _pr_doc(
        [("t", "b1 & b2 & b3"), ("u", "f1"), ("v", "g1")],
        {"b1": "1/2", "b2": "1/2", "b3": "1/2", "f1": "1/3", "g1": "2/5"},
    ),
}

# Six independent one-variable rows: six free groups and empty cores.
_FREE6 = _pr_doc([(f"t{i}", f"x{i}") for i in range(6)], {f"x{i}": f"1/{i + 2}" for i in range(6)})

# A tautology over a free group {a} against the constant true on a common
# tuple: the variable-free row of q goes to the side opposite {a} in every
# pair.  {b} and {d} form the two cores, and {e} is a second free group.
_ACROSS_SOURCES = {
    "r": _pr_doc([("t", "a | !a"), ("v", "b")], {"a": "1/2", "b": "1/3"}),
    "s": _pr_doc([("t", "true"), ("v", "!d"), ("w", "e")], {"d": "2/3", "e": "1/4"}),
}

# Two pw sources without probabilities that no pair of worlds joins.
_CONTRADICTION = {
    "a": {"model": "pw", "tuples": [["t"]], "worlds": [{"tuples": [0]}]},
    "b": {"model": "pw", "tuples": [["t"]], "worlds": [{"tuples": []}]},
}


def corpus() -> tuple[dict[str, str], list[tuple[str, list[str]]]]:
    """The documents (name to text) and the cases (id, argv)."""
    from udbi.cli import main
    from udbi.documents import document_of, parse_document
    from udbi.gen import gen_consistent_pw_pair, gen_pr_pair
    from udbi.prdb import PrRelation, encode_pw, integrate_pr
    from udbi.pwdb import UncertainDB

    files: dict[str, str] = {}
    cases: list[tuple[str, list[str]]] = []

    def save(name: str, doc) -> str:
        files[name] = doc if isinstance(doc, str) else json.dumps(doc, indent=2)
        return name

    def rendered(case: str, argv: list[str]) -> None:
        cases.append((f"{case}/table", argv))
        cases.append((f"{case}/json", ["--format", "json", *argv]))
        cases.append((f"{case}/out", [*argv, "--out", OUT]))

    def relation_commands(case: str, q: str) -> None:
        rendered(f"{case}/prob", ["prob", q])
        rendered(f"{case}/check-q", ["check", q])
        rendered(f"{case}/decompose", ["decompose", q])
        rendered(f"{case}/decompose-all", ["decompose", "--all", q])
        rendered(f"{case}/expand-q", ["expand", q])

    for seed in range(50):
        r, s = gen_pr_pair(seed)
        case = f"pr{seed:02d}"
        r_doc = save(f"{case}-r.json", document_of(r))
        s_doc = save(f"{case}-s.json", document_of(s))
        q_doc = save(f"{case}-q.json", document_of(integrate_pr(r, s)))
        rendered(f"{case}/integrate", ["integrate", r_doc, s_doc, "--model", "pr"])
        rendered(f"{case}/expand-r", ["expand", r_doc])
        rendered(f"{case}/check-rs", ["check", r_doc, s_doc])
        relation_commands(case, q_doc)
        rendered(f"{case}/gen", ["gen", "--seed", str(seed)])

    for seed in range(30):
        a, b = gen_consistent_pw_pair(seed)
        case = f"pw{seed:02d}"
        a_doc = save(f"{case}-a.json", document_of(a))
        b_doc = save(f"{case}-b.json", document_of(b))
        chain = save(
            f"{case}-chain.json",
            document_of(integrate_pr(encode_pw(a, "x"), encode_pw(b, "y"))),
        )
        rendered(f"{case}/integrate", ["integrate", a_doc, b_doc, "--model", "pw"])
        rendered(f"{case}/check", ["check", a_doc, b_doc])
        rendered(f"{case}/gen", ["gen", "--model", "pw", "--seed", str(seed)])
        cases.append((f"{case}/chain-prob", ["prob", chain]))
        if seed < 5:
            # The same worlds without probabilities.
            a_plain = save(f"{case}-a-plain.json", document_of(UncertainDB(a.tuple_set, a.worlds)))
            b_plain = save(f"{case}-b-plain.json", document_of(UncertainDB(b.tuple_set, b.worlds)))
            rendered(f"{case}/integrate-plain", ["integrate", a_plain, b_plain, "--model", "pw"])
            rendered(f"{case}/check-plain", ["check", a_plain, b_plain])

    # A chain-encoded pw pair with 2 and with 3 blocks added to its left source.
    a, b = gen_consistent_pw_pair(_BLOCKS_SEED)
    left = encode_pw(a, "a")
    for count, (base, worlds, probs) in enumerate(_BLOCKS, 1):
        tuples = [(f"{base}0",), (f"{base}1",)]
        block = encode_pw(UncertainDB.of(tuples, [[tuples[i] for i in w] for w in worlds], probs), f"{base}v")
        left = PrRelation.of(left.rows + block.rows, {**left.var_probs, **block.var_probs})
        if count >= 2:
            q = save(f"blocks{count}-q.json", document_of(integrate_pr(left, encode_pw(b, "b"))))
            rendered(f"blocks{count}/prob", ["prob", q])
            rendered(f"blocks{count}/check", ["check", q])
            rendered(f"blocks{count}/decompose-all", ["decompose", "--all", q])
    cap_sources = [save(f"cap-{side}.json", doc) for side, doc in _CAP_SOURCES.items()]
    cap_q = save("cap-q.json", document_of(
        integrate_pr(*(parse_document(doc) for doc in _CAP_SOURCES.values()))
    ))
    rendered("cap/integrate", ["integrate", *cap_sources, "--model", "pr"])
    for command in ("check", "prob"):
        cases.append((f"cap/{command}", ["--cap", "4", command, cap_q]))
    for command in ("check", "prob"):
        cases.append((f"cap/{command}-cap3", ["--cap", "3", command, cap_q]))
    free6 = save("free6.json", _FREE6)
    rendered("free6/prob", ["prob", free6])
    rendered("free6/check", ["check", free6])
    across_q = save("across-q.json", document_of(
        integrate_pr(*(parse_document(doc) for doc in _ACROSS_SOURCES.values()))
    ))
    rendered("across/prob", ["prob", across_q])
    rendered("across/check", ["check", across_q])
    rendered("across/decompose-all", ["decompose", "--all", across_q])

    for seed in range(8):
        # The pair that `gen --model pw` writes, read from its own output.
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            main(["--format", "json", "gen", "--model", "pw", "--seed", str(seed)])
        pair = json.loads(stdout.getvalue())
        a_doc, b_doc = (save(f"pwgen{seed}-{side}.json", pair[side]) for side in "ab")
        cases.append((f"pwgen{seed}/integrate", ["integrate", a_doc, b_doc, "--model", "pw"]))
        cases.append((f"pwgen{seed}/check", ["check", a_doc, b_doc]))

    unbalanced = [save(f"unbalanced-{side}.json", doc) for side, doc in _UNBALANCED.items()]
    rendered("unbalanced/integrate", ["integrate", *unbalanced, "--model", "pw"])
    rendered("unbalanced/check", ["check", *unbalanced])
    # The same worlds without probabilities: nothing to balance.
    unbalanced_plain = [
        save(f"unbalanced-{side}-plain.json", {
            **doc, "worlds": [{"tuples": w["tuples"]} for w in doc["worlds"]],
        })
        for side, doc in _UNBALANCED.items()
    ]
    rendered("unbalanced/integrate-plain", ["integrate", *unbalanced_plain, "--model", "pw"])
    rendered("unbalanced/check-plain", ["check", *unbalanced_plain])

    office = {name: save(f"{name}.json", doc) for name, doc in _OFFICE.items()}
    rendered("office/integrate", ["integrate", *office.values(), "--model", "pr"])
    rendered("office/check", ["check", *office.values()])
    joint = integrate_pr(*(parse_document(doc) for doc in _OFFICE.values()))
    joint = save("office-q.json", document_of(joint))
    relation_commands("office", joint)

    for name, doc in _RECOGNITION.items():
        q = save(f"{name}.json", doc)
        for command in (["prob"], ["check"], ["decompose", "--all"]):
            cases.append((f"{name}/{command[0]}", command + [q]))

    constant_partner = save("constant_partner.json", _CONSTANT_PARTNER)
    for name, command in (("prob", ["prob"]), ("check", ["check"]), ("decompose", ["decompose"]),
                          ("decompose-all", ["decompose", "--all"])):
        cases.append((f"constant_partner/{name}", command + [constant_partner]))
    unused_prob = save("unused_prob.json", _UNUSED_PROB)
    rendered("unused_prob/prob", ["prob", unused_prob])
    rendered("unused_prob/decompose-all", ["decompose", "--all", unused_prob])

    for k, value in enumerate(_PROB_TEXTS):
        pr = save(f"prob{k:02d}-pr.json", _pr_doc([("t", "x")], {"x": value}))
        pw = save(f"prob{k:02d}-pw.json", {
            "model": "pw", "tuples": [["t"]],
            "worlds": [{"tuples": [0], "prob": value}, {"tuples": [], "prob": "1/2"}],
        })
        cases.append((f"prob{k:02d}/pr", ["expand", pr]))
        cases.append((f"prob{k:02d}/pw", ["expand", pw]))

    # A prob that cannot be read, beside a world without one and after a valid
    # world: the unreadable text is named, wherever the missing prob stands.
    for k, value in enumerate(["", None, "x"]):
        bad, missing = {"tuples": [], "prob": value}, {"tuples": [1]}
        for order, worlds in (("bad", [bad, missing]), ("missing", [missing, bad])):
            doc = save(f"no_prob{k}-{order}.json", {
                "model": "pw", "tuples": [["t"], ["u"]],
                "worlds": [{"tuples": [0], "prob": "1/2"}, *worlds],
            })
            cases.append((f"no_prob{k}/{order}-first", ["expand", doc]))

    for k, name in enumerate(_BAD_NAMES):
        doc = save(f"name{k}.json", _pr_doc([("t", "x")], {"x": "1/2", name: "1/2"}))
        cases.append((f"name{k}/expand", ["expand", doc]))

    for name, doc in _DEEP.items():
        path = save(f"{name}.json", doc)
        for command in ("expand", "prob", "check", "decompose"):
            cases.append((f"{name}/{command}", [command, path]))
    deep_epr = save("deep_epr.json", _DEEP_EPR)
    for command in ("expand", "prob", "check", "decompose"):
        cases.append((f"deep_epr/{command}", [command, deep_epr]))
    arrays = save("json_arrays.json", "[" * 100_000 + "]" * 100_000)
    cases.append(("json_arrays/expand", ["expand", arrays]))
    long_int = save(
        "long_int.json",
        '{"model": "pw", "tuples": [["t"]], "worlds": [{"tuples": [' + "1" * 5_000 + "]}]}",
    )
    cases.append(("long_int/expand", ["expand", long_int]))
    broken = save("broken.json", "{not json")
    cases.append(("broken/expand", ["expand", broken]))
    cases.append(("missing/expand", ["expand", "missing.json"]))
    cases.append(("out_missing/gen", ["gen", "--seed", "3", "--out", "missing/x.json"]))
    cases.append(("out_directory/gen", ["gen", "--seed", "3", "--out", "."]))
    for k, worlds in enumerate(([[0], []], [[0], [1]])):
        doc = save(f"repeat{k}.json", {
            "model": "pw", "tuples": [["a"], ["a"]], "worlds": [{"tuples": w} for w in worlds],
        })
        cases.append((f"repeat{k}/expand", ["expand", doc]))

    monday = office["monday"]
    rendered("office/expand-worlds-only", ["expand", "--worlds-only", monday])
    # A source integrated with itself: every variable name is shared, so both
    # copies are renamed apart.
    rendered("self/integrate", ["integrate", monday, monday, "--model", "pr"])
    monday_rel = parse_document(_OFFICE["monday"])
    relation_commands("self", save("self-q.json", document_of(integrate_pr(monday_rel, monday_rel))))
    # Constants are kept as they are when the copies are renamed apart.
    constant = save("constant.json", _pr_doc([("t", "a | false"), ("u", "true")], {"a": "1/2"}))
    rendered("constant_self/integrate", ["integrate", constant, constant, "--model", "pr"])

    # The office pair without probabilities: integration and decomposition
    # need none, expansion and the distribution do, and say so before the cap
    # and before recognition.
    stripped = {
        name: {key: value for key, value in doc.items() if key != "var_probs"}
        for name, doc in _OFFICE.items()
    }
    plain = [save(f"{name}-plain.json", doc) for name, doc in stripped.items()]
    plain_q = save("plain-q.json", document_of(integrate_pr(*map(parse_document, stripped.values()))))
    rendered("plain/integrate", ["integrate", *plain, "--model", "pr"])
    rendered("plain/decompose", ["decompose", plain_q])
    rendered("plain/decompose-all", ["decompose", "--all", plain_q])
    rendered("plain/expand-q", ["expand", plain_q])
    cases.append(("plain/expand-r", ["expand", plain[0]]))
    cases.append(("plain/expand-r-cap", ["--cap", "0", "expand", plain[0]]))
    cases.append(("plain/check-rs", ["check", *plain]))
    cases.append(("plain/prob", ["prob", plain_q]))
    cases.append(("plain/prob-cap", ["--cap", "0", "prob", plain_q]))
    cases.append(("plain/check-q", ["check", plain_q]))
    unrecognized = {k: v for k, v in _RECOGNITION["no_match"].items() if k != "var_probs"}
    cases.append(("plain/prob-unrecognized", ["prob", save("no_match-plain.json", unrecognized)]))
    partial = json.loads(files[joint])
    del partial["var_probs"]["c2"]
    partial = save("partial-q.json", partial)
    cases.append(("partial_q/prob", ["prob", partial]))
    cases.append(("partial_q/check", ["check", partial]))
    cases.append(("partial_q/decompose", ["decompose", partial]))

    for name, text in _FORM_FAULTS.items():
        cases.append((f"form_{name}/expand", ["expand", save(f"form_{name}.json", text)]))
    for name, doc in _VALUE_FAULTS.items():
        cases.append((f"{name}/expand", ["expand", save(f"{name}.json", doc)]))
    # The relation's constructor rejects these two on reading, before integration.
    for name in ("shared_tuple", "partial_pr"):
        doc = f"{name}.json"
        cases.append((f"{name}/integrate", ["integrate", doc, doc, "--model", "pr"]))
    same_tuple = save("same_tuple.json", _SAME_TUPLE)
    for command in ("decompose", "prob", "check"):
        cases.append((f"same_tuple/{command}", [command, same_tuple]))
    cases.append(("office/expand-q-cap", ["--cap", "1", "expand", joint]))
    contradiction = [save(f"contradiction-{side}.json", doc) for side, doc in _CONTRADICTION.items()]
    cases.append(("contradiction/integrate", ["integrate", *contradiction, "--model", "pw"]))
    cases.append(("mismatch/integrate-pw", ["integrate", monday, monday, "--model", "pw"]))
    cases.append(("mismatch/integrate-pr", ["integrate", *unbalanced, "--model", "pr"]))
    cases.append(("mismatch/prob", ["prob", unbalanced[0]]))
    cases.append(("mismatch/check", ["check", joint, unbalanced[0]]))
    cases.append(("negative/cap", ["--cap", "-1", "expand", monday]))
    cases.append(("negative/limit", ["decompose", "--limit", "-1", joint]))
    for flag, value in (("max-tuples", "9"), ("max-vars", "0"), ("max-depth", "4"), ("overlap", "1.5")):
        cases.append((f"gen_range/{flag}", ["gen", f"--{flag}", value]))
    return files, cases


def _digest(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()[:16]


def run_corpus(main=None) -> list[str]:
    """One line per case, in corpus order.  Each case calls ``main`` with its
    argv, ``udbi.cli.main`` unless another is given."""
    if main is None:
        from udbi.cli import main

    files, cases = corpus()
    lines = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        for name, text in files.items():
            Path(scratch, name).write_text(text, encoding="utf-8")
        os.chdir(scratch)
        try:
            for case, argv in cases:
                out_path = Path(OUT)
                out_path.unlink(missing_ok=True)
                stdout, stderr = io.StringIO(), io.StringIO()
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    try:
                        code = str(main(argv))
                    except Exception as err:  # recorded, so the diff names the case
                        code = "raised:" + type(err).__name__
                streams = [
                    stdout.getvalue().encode("utf-8", "backslashreplace"),
                    stderr.getvalue().encode("utf-8", "backslashreplace"),
                    out_path.read_bytes() if out_path.exists() else None,
                ]
                if case in EXIT_ONLY:
                    streams = [None, None, None]
                lines.append(" ".join([case, code, *map(_digest, streams)]))
        finally:
            os.chdir(here)
    return lines


STREAMS = ("exit code", "stdout", "stderr", "--out bytes")


def differences(expected: list[str], actual: list[str]) -> list[str]:
    """Each case whose line differs, with the first field that differs."""
    want = {line.split()[0]: line.split()[1:] for line in expected}
    got = {line.split()[0]: line.split()[1:] for line in actual}
    report = []
    for case in [*want, *(case for case in got if case not in want)]:
        if case not in got:
            report.append(f"{case}: missing from the run")
        elif case not in want:
            report.append(f"{case}: not in {DIGESTS.name}")
        elif want[case] != got[case]:
            stream = next(s for s, a, b in zip(STREAMS, want[case], got[case]) if a != b)
            report.append(f"{case}: {stream} differs")
    return report


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    lines = run_corpus()
    if argv == ["--write"]:
        DIGESTS.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {len(lines)} cases to {DIGESTS}")
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    report = differences(DIGESTS.read_text(encoding="utf-8").splitlines(), lines)
    print("\n".join(report) or f"all {len(lines)} cases match")
    return 1 if report else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
