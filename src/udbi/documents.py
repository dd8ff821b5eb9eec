"""JSON documents for the three source models.

A document is an object with a ``model`` tag: "pw" carries ``tuples`` plus
``worlds`` (index arrays, optional ``prob`` strings), "pr" carries ``rows``
({tuple, event}) plus optional ``var_probs``, and "epr" adds ``constraints``
({lhs, rhs} formula strings).  Probabilities are decimal or fraction
strings; numbers are rejected since binary floats are not exact.

A document with several faults raises the error for the first faulty item
in document order, with the message that item alone would give.  This holds
although each check of a "pw" document's tuples and worlds, and of a "pr"
or "epr" document's constraints and rows, is one pass over all of them
(_parse_pw, _parse_relation).  No set's or dict's iteration order decides
the order of worlds in an output or which error is raised.  pwdb.repeats
finds a repeated tuple, index or key, and _entry_fault any unknown key of a
document or an entry.
"""

from __future__ import annotations

import json
import re
from collections import deque
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import not_
from json.encoder import encode_basestring_ascii

from .errors import ParseError, UdbError, ValidationError
from .logic import parse_formula, to_text
from .prdb import EprRelation, PrRelation, PrTuple
from .pwdb import UncertainDB, format_tuple, repeats, world_ranks

# A larger exponent gives a numerator or denominator longer than Python prints
# by default (4,300 digits), and a far larger one keeps Fraction() busy
# without bound.
_MAX_EXPONENT = 4300
_EXPONENT_RE = re.compile(r"[eE][-+]?(\d+)")


def _parse_prob(value, where: str) -> Fraction:
    """value as a Fraction, by one route for every text: the exponent bound,
    the "_" rejection, then Fraction()."""
    if not isinstance(value, str):
        raise ValidationError(
            f"{where}: probabilities must be strings like \"0.3\" or \"9/13\", got {value!r}"
        )
    exponent = _EXPONENT_RE.search(value)
    if exponent:
        digits = exponent[1].lstrip("0")
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
            raise ValidationError(
                f"{where}: probability {value!r} has an exponent beyond {_MAX_EXPONENT}"
            )
    if "_" not in value:  # Fraction() reads "_" digit separators only from Python 3.11 on
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValidationError(f"{where}: cannot read probability {value!r}")


# isinstance(x, str), and for dict and list, as functions that map() calls
# without a frame.
_is_str = str.__instancecheck__
_is_dict = dict.__instancecheck__
_is_list = list.__instancecheck__

# Rows built without the frozen dataclass __init__, as logic.py builds its
# nodes: object.__new__ and the slots' own setters, each run over all rows by
# one map() that _consume drains.
_new = object.__new__
_set_tuple = PrTuple.tuple.__set__
_set_event = PrTuple.event.__set__
_consume = deque(maxlen=0).extend


def _tuple_fault(value, where: str) -> str | None:
    """The error for a value that is not a data tuple, or None for one that is."""
    if not isinstance(value, list) or not value or not all(map(_is_str, value)):
        return f"{where}: a tuple must be a nonempty array of strings"
    return None


def _all_tuples(values: list) -> bool:
    """True when every value is a data tuple: one pass per check over all of them."""
    return (
        all(map(_is_list, values))
        and all(values)
        and all(map(_is_str, chain.from_iterable(values)))
    )


def _event_fault(text, where: str) -> UdbError | None:
    """The error for text that is not formula text, or None for text that is."""
    if not isinstance(text, str):
        return ValidationError(f"{where}: event must be a formula string")
    try:
        parse_formula(text)
    except ParseError as err:
        return err
    return None


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a key given twice is an error, not overwritten."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        _, i = repeats([key for key, _ in pairs])[0]
        raise ValueError(f"repeated key {pairs[i][0]!r}")
    return obj


# The keys a document of each model may have.
_DOCUMENT_KEYS = {
    "pw": frozenset({"model", "tuples", "worlds"}),
    "pr": frozenset({"model", "rows", "var_probs"}),
    "epr": frozenset({"model", "rows", "var_probs", "constraints"}),
}
# The keys an entry of each array of objects may have.
_WORLD_KEYS = frozenset({"tuples", "prob"})
_CONSTRAINT_KEYS = frozenset({"lhs", "rhs"})
_ROW_KEYS = frozenset({"tuple", "event"})


def _entry_fault(entry, allowed: frozenset, where: str) -> str | None:
    """The error for an array entry that is not an object with keys in
    allowed, or None for one that is."""
    if not isinstance(entry, dict):
        return f"{where}: must be an object"
    if not entry.keys() <= allowed:
        return f"{where}: unknown keys {sorted(set(entry) - allowed)}"
    return None


# The checks of one world's fields, each giving the error for a faulty field
# or None; _world_fault chains them.

def _index_list_fault(indices, n: int, where: str) -> str | None:
    if not isinstance(indices, list) or indices and (
        set(map(type, indices)) != {int} or min(indices) < 0 or max(indices) >= n
    ):
        return f"{where}: \"tuples\" must be an array of tuple indices"
    return None


def _repeated_index_fault(indices: list, where: str) -> str | None:
    for _, i in repeats(indices)[:1]:
        return f"{where} lists tuple {indices[i]} twice"
    return None


def _prob_fault(entry: dict, where: str) -> str | None:
    if "prob" in entry:
        try:
            _parse_prob(entry["prob"], where)
        except ValidationError as err:
            return str(err)
    return None


def _world_fault(entries: list, n: int) -> ValidationError:
    """The error for the first faulty world in world order, from the first
    of its fields at fault; called when a pass over all worlds has failed."""
    for i, entry in enumerate(entries):
        where = f"worlds[{i}]"
        message = (
            _entry_fault(entry, _WORLD_KEYS, where)
            or _index_list_fault(entry.get("tuples"), n, where)
            or _repeated_index_fault(entry["tuples"], where)
            or _prob_fault(entry, where)
        )
        if message:
            return ValidationError(message)


def _read_probs(texts: list) -> dict | None:
    """Each distinct text to its Fraction, each read once, so equal texts
    share one; None when some item is not a text _parse_prob reads."""
    if not all(map(_is_str, texts)):
        return None
    memo = dict.fromkeys(texts)
    try:
        for text in memo:
            memo[text] = _parse_prob(text, "")
    except ValidationError:
        return None
    return memo


def _parse_pw(obj: dict) -> UncertainDB:
    """A "pw" document's UncertainDB.

    Each check of the worlds is one pass over all of them, field by field:
    each entry an object with known keys, each index list a list of ints in
    range, no index twice in one list, each prob a text Fraction() reads,
    and then a prob on every world or on none.  When a pass fails, one pass
    world by world (_world_fault) names the first faulty world in world
    order, from the first of its fields at fault, whatever else is wrong
    after it.  Equal prob texts are read once and share one Fraction.
    """
    raw_tuples = obj.get("tuples")
    if not isinstance(raw_tuples, list):
        raise ValidationError("pw document: \"tuples\" must be an array")
    if not _all_tuples(raw_tuples):
        faults = map(_tuple_fault, raw_tuples, map("tuples[{}]".format, range(len(raw_tuples))))
        raise ValidationError(next(filter(None, faults)))
    tuples = list(map(tuple, raw_tuples))
    for first, i in repeats(tuples)[:1]:
        raise ValidationError(f"tuples {first} and {i} repeat the tuple {format_tuple(tuples[i])}")
    entries = obj.get("worlds")
    if not isinstance(entries, list):
        raise ValidationError("pw document: \"worlds\" must be an array")
    n = len(tuples)
    if not (all(map(_is_dict, entries)) and all(map(_WORLD_KEYS.issuperset, entries))):
        raise _world_fault(entries, n)
    lists = list(map(dict.get, entries, repeat("tuples")))
    # Every index list is a list of ints in range when the lists are, and
    # when their concatenation is.
    if not all(map(_is_list, lists)) or _index_list_fault(
        list(chain.from_iterable(lists)), n, "worlds"
    ):
        raise _world_fault(entries, n)
    worlds = list(map(frozenset, map(map, repeat(tuples.__getitem__), lists)))
    # The tuples are distinct, so a world is shorter than its index list
    # only when the list repeats an index.
    if sum(map(len, worlds)) < sum(map(len, lists)):
        raise _world_fault(entries, n)
    given = map(dict.__contains__, entries, repeat("prob"))
    texts = list(compress(map(dict.get, entries, repeat("prob")), given))
    memo = _read_probs(texts)
    if memo is None:
        raise _world_fault(entries, n)
    if texts and len(texts) < len(worlds):
        raise ValidationError("pw document: either every world has a prob or none does")
    return UncertainDB(
        frozenset(tuples),
        tuple(worlds),
        tuple(map(memo.__getitem__, texts)) if texts else None,
    )


def _relation_fault(constraints: list, rows, where: str) -> UdbError:
    """The error for the first fault of a relation document's constraints
    and rows, in document order, from the first of an entry's fields at
    fault; called when a pass over all entries has failed.  A constraint's
    fields are its shape, lhs and rhs, a row's its shape, tuple and event,
    and each side or event is checked for type, then parsed."""
    for i, entry in enumerate(constraints):
        message = _entry_fault(entry, _CONSTRAINT_KEYS, f"constraints[{i}]")
        if message:
            return ValidationError(message)
        for side in ("lhs", "rhs"):
            fault = _event_fault(entry.get(side), f"constraints[{i}].{side}")
            if fault:
                return fault
    if not isinstance(rows, list):
        return ValidationError(f"{where}: \"rows\" must be an array")
    for i, entry in enumerate(rows):
        message = _entry_fault(entry, _ROW_KEYS, f"rows[{i}]") or _tuple_fault(
            entry.get("tuple"), f"rows[{i}].tuple"
        )
        if message:
            return ValidationError(message)
        fault = _event_fault(entry.get("event"), f"rows[{i}].event")
        if fault:
            return fault


def _parse_relation(obj: dict, model: str) -> PrRelation | EprRelation:
    """A "pr" or "epr" document's relation.

    This reader checks the form of a document whose keys parse_document has
    checked: each tuple a nonempty array of strings, each event a formula
    string, each probability a text Fraction() reads.  The relation's
    constructor then checks the relation: tuples two rows share, probability
    names and ranges, and for "pr" a probability for every variable.

    Each check of the constraints and rows is one pass over all of them,
    field by field: each entry an object with known keys, each tuple a
    nonempty list of strings, each side and event a string.  Each distinct
    text is then parsed once, in document order (constraints, lhs before
    rhs, then rows), so equal texts share one formula and one Variable per
    name serves the document; every form check has passed by then, so the
    first text that does not parse is the first fault.  When a pass fails,
    one scan entry by entry (_relation_fault) names the first faulty entry
    in document order, from the first of its fields at fault, whatever else
    is wrong after it.
    """
    where = f"{model} document"
    constraints = obj.get("constraints", [])
    if not isinstance(constraints, list):
        raise ValidationError(f"{where}: \"constraints\" must be an array")
    rows = obj.get("rows")
    if not (
        isinstance(rows, list)
        and all(map(_is_dict, constraints))
        and all(map(_CONSTRAINT_KEYS.issuperset, constraints))
        and all(map(_is_dict, rows))
        and all(map(_ROW_KEYS.issuperset, rows))
    ):
        raise _relation_fault(constraints, rows, where)
    lhs = list(map(dict.get, constraints, repeat("lhs")))
    rhs = list(map(dict.get, constraints, repeat("rhs")))
    tuples = list(map(dict.get, rows, repeat("tuple")))
    events = list(map(dict.get, rows, repeat("event")))
    if not (
        all(map(_is_str, lhs))
        and all(map(_is_str, rhs))
        and _all_tuples(tuples)
        and all(map(_is_str, events))
    ):
        raise _relation_fault(constraints, rows, where)
    # The rows and their tuples are built before the formulas: built after
    # them, they left pymalloc's pools so that a process reading pr_merge
    # documents peaked about 0.7 MB higher (Python 3.11), with no more bytes
    # allocated.
    built = list(map(_new, repeat(PrTuple, len(rows))))
    _consume(map(_set_tuple, built, map(tuple, tuples)))
    parsed = dict.fromkeys(chain(chain.from_iterable(zip(lhs, rhs)), events))
    names: dict = {}
    for text in parsed:
        parsed[text] = parse_formula(text, names)
    formula = parsed.__getitem__
    _consume(map(_set_event, built, map(formula, events)))
    var_probs = obj.get("var_probs")
    if var_probs is not None:
        if not isinstance(var_probs, dict):
            raise ValidationError(f"{where}: \"var_probs\" must be an object")
        memo = _read_probs(list(var_probs.values()))
        if memo is None:
            for name, p in var_probs.items():
                _parse_prob(p, f"var_probs.{name}")
        var_probs = {name: memo[p] for name, p in var_probs.items()}
    # names now holds every variable of the rows and constraints.
    relation = PrRelation if model == "pr" else EprRelation
    constraints = tuple(zip(map(formula, lhs), map(formula, rhs)))
    return relation(tuple(built), constraints, var_probs, names.keys())


def parse_document(obj) -> UncertainDB | PrRelation | EprRelation:
    """Turn a decoded JSON object into the model value its tag names."""
    if not isinstance(obj, dict):
        raise ValidationError("document must be a JSON object")
    model = obj.get("model")
    if model not in ("pw", "pr", "epr"):  # compared, not hashed: a tag may be any JSON value
        raise ValidationError('document needs a "model" key of "pw", "pr" or "epr"')
    message = _entry_fault(obj, _DOCUMENT_KEYS[model], f"{model} document")
    if message:
        raise ValidationError(message)
    return _parse_pw(obj) if model == "pw" else _parse_relation(obj, model)


def load_document(path) -> UncertainDB | PrRelation | EprRelation:
    try:
        with open(path, encoding="utf-8") as handle:
            obj = json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as err:
        raise ValidationError(f"cannot read {path}: {err}") from None
    except ValueError as err:  # bad JSON or UTF-8, or a number too long to convert
        raise ValidationError(f"{path} is not valid JSON: {err}") from None
    return parse_document(obj)


def document_of(value) -> dict:
    """Serialize a model value to its JSON document (inverse of parse_document)."""
    if isinstance(value, UncertainDB):
        tuples = sorted(value.tuple_set)
        lists = world_ranks(value.worlds, tuples)
        if value.probs is None:
            worlds = [{"tuples": indices} for indices in lists]
        else:
            texts = map(str, value.probs)
            worlds = [{"tuples": indices, "prob": text} for indices, text in zip(lists, texts)]
        return {"model": "pw", "tuples": list(map(list, tuples)), "worlds": worlds}
    if isinstance(value, EprRelation):
        is_pr = isinstance(value, PrRelation)
        doc = {"model": "pr" if is_pr else "epr", "rows": _rows_doc(value.rows)}
        if not is_pr:
            doc["constraints"] = [
                {"lhs": to_text(lhs), "rhs": to_text(rhs)} for lhs, rhs in value.constraints
            ]
        if value.var_probs is not None:
            doc["var_probs"] = _var_probs_doc(value.var_probs)
        return doc
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _rows_doc(rows) -> list[dict]:
    return [{"tuple": list(row.tuple), "event": to_text(row.event)} for row in rows]


def _var_probs_doc(var_probs) -> dict[str, str]:
    return {name: str(var_probs[name]) for name in sorted(var_probs)}


def dumps_json(doc) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, for the dicts (string
    keys), lists, strings, ints, booleans and None that documents hold.

    json.dumps falls back to its pure-Python encoder when indenting; this
    walks the containers in Python and hands every string to the C encoder,
    by one rule for the items of a list (_column): they are encoded in one
    pass when all are leaves of one type (strings or ints), or all lists of
    one leaf type.  Two or more objects with the same keys in the same order
    (relation rows, constraints, pw worlds, check components) are written
    member by member, each member's values a column by the same rule.  Any
    other list is written item by item, and a lone object member by member.
    An int longer than Python prints raises the same ValueError.
    """
    return _dumps(doc, "\n")


_quote = encode_basestring_ascii
_LEAF_ENCODERS = {int: int.__repr__, str: _quote}


def _dumps(value, newline: str) -> str:
    """value written after newline: its inner lines are indented two more spaces."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        members = [f"{_quote(key)}: {_dumps(item, inner)}" for key, item in value.items()]
        return f"{{{inner}{(',' + inner).join(members)}{newline}}}"
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = newline + "  "
        return f"[{inner}{(',' + inner).join(_column(value, inner))}{newline}]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _column(values: list, newline: str):
    """The texts of values, each written after newline, as a lazy iterator,
    so that a list of objects holds one object's member texts at a time."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind in _LEAF_ENCODERS:
        return map(_LEAF_ENCODERS[kind], values)
    inner = newline + "  "
    if kind is list:
        leaves = set(map(type, chain.from_iterable(values)))
        if len(leaves) == 1 and (leaf := leaves.pop()) in _LEAF_ENCODERS:
            items = map(("," + inner).join, map(map, repeat(_LEAF_ENCODERS[leaf]), values))
            texts = map("".join, zip(repeat("[" + inner), items, repeat(newline + "]")))
            # An empty list is written "[]": not_(value) picks it.
            return map(tuple.__getitem__, zip(texts, repeat("[]")), map(not_, values))
    if kind is dict and len(values) > 1 and values[0] and len(set(map(tuple, values))) == 1:
        parts = []
        before = "{" + inner
        for key in values[0]:
            members = _column(list(map(dict.__getitem__, values, repeat(key))), inner)
            parts += repeat(f"{before}{_quote(key)}: "), members
            before = "," + inner
        return map("".join, zip(*parts, repeat(newline + "}", len(values))))
    return map(_dumps, values, repeat(newline))
