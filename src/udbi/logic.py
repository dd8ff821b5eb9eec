"""Propositional event formulas: syntax tree, parser, printer, evaluation.

The concrete syntax is the connectives of the ``_PREFIX`` and ``_INFIX``
tables below, the constants ``true`` and ``false``, parentheses, and ``#``
line comments.  Text in the printer's own form is read by one split, and
the root it yields keeps that text for printing.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import reduce
from itertools import chain

from .errors import ExpansionTooLarge, ParseError, UnboundVariable

DEFAULT_VAR_CAP = 20

Assignment = Mapping[str, bool]

# Plain identifier, optionally qualified by "::" separators.  Qualified names
# arise only from rename_vars, but the parser accepts them so that printed
# formulas always parse back.
_SEGMENT = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME = rf"{_SEGMENT}(?:::{_SEGMENT})*"
_NAME_RE = re.compile(rf"{_NAME}\Z")


def is_valid_name(name: str) -> bool:
    """True for identifiers the parser accepts as variables, qualified or not."""
    return bool(_NAME_RE.match(name)) and name not in _CONSTANTS


class Formula:
    """Base class for formula nodes.  All nodes are immutable and compare structurally.

    ``_text`` is set on the root of a plain-text parse only: its rendering,
    as read.  It is no dataclass field, so ==, hash and repr ignore it.
    """

    __slots__ = ("_text",)


@dataclass(frozen=True, slots=True)
class Variable(Formula):
    name: str

    def __post_init__(self):
        if not is_valid_name(self.name):
            raise ValueError(f"invalid variable name {self.name!r}")


def _variable(name: str) -> Variable:
    """Variable(name) for a name already known to be valid, without matching it again."""
    v = _new(Variable)
    _set_name(v, name)
    return v


@dataclass(frozen=True, slots=True)
class Const(Formula):
    value: bool


TRUE = Const(True)
FALSE = Const(False)


@dataclass(frozen=True, slots=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True, slots=True)
class Binary(Formula):
    """A binary connective; its symbol and truth function are its ``_INFIX`` row."""

    left: Formula
    right: Formula


class And(Binary):
    __slots__ = ()


class Or(Binary):
    __slots__ = ()


class Implies(Binary):
    __slots__ = ()


class Iff(Binary):
    __slots__ = ()


# Node construction without the frozen dataclass __init__: object.__new__ and
# the slots' own setters, for nodes whose fields are known to be valid.
_new = object.__new__
_set_name = Variable.name.__set__
_set_child = Not.child.__set__
_set_left = Binary.left.__set__
_set_right = Binary.right.__set__
_set_text = Formula._text.__set__


# --- syntax ------------------------------------------------------------------

# Operator symbol -> (node type, binding level, right-associative, and for an
# infix operator its truth function, where a <= b is a -> b); a higher level
# binds tighter.  "(" is a sentinel: at level 0, only its ")" pops it.
_PREFIX = {"(": (None, 0, False), "!": (Not, 5, True)}
_INFIX = {
    "&": (And, 4, False, operator.and_),
    "|": (Or, 3, False, operator.or_),
    "->": (Implies, 2, True, operator.le),
    "<->": (Iff, 1, False, operator.eq),
}
_SYNTAX = {row[0]: (symbol, *row[1:3]) for symbol, row in {**_PREFIX, **_INFIX}.items()}
_TRUTH = {node: truth for node, _, _, truth in _INFIX.values()}
# Each infix symbol's _INFIX row, and the binding level down to which the
# stacked operators apply before it: an operand on the side the symbol
# associates to may bind as loosely as the symbol.
_BINDING = {symbol: (entry, entry[1] + entry[2]) for symbol, entry in _INFIX.items()}

# A match is one token, after the whitespace and comments that lead up to it;
# m.lastindex names its kind, and m.start(m.lastindex) is where it begins.
_TOKEN_RE = re.compile(
    rf"""
    \s*(?:\#[^\n]*\s*)*
    (?:
        (?P<name>{_NAME})
      | (?P<prefix>{"|".join(map(re.escape, _PREFIX))})
      | (?P<infix>{"|".join(map(re.escape, _INFIX))})  # none is a prefix of another
      | (?P<close>\))
      | (?P<end>\Z)
      | (?P<bad>.)  # any other character
    )
    """,
    re.VERBOSE | re.DOTALL,
)
_NAME_TOKEN, _PREFIX_TOKEN, _INFIX_TOKEN, _CLOSE, _END, _BAD = range(1, 7)  # the groups, in order

_CONSTANTS = {"true": TRUE, "false": FALSE}
_ATOM_EXPECTED = ("!", "(", "identifier", "true", "false")
_INFIX_EXPECTED = (*_INFIX, "end of input")

# The printer's form: operands "!*name" joined by infix symbols between
# single spaces, and nothing else.
_OPERAND = rf"!*{_NAME}"
_PLAIN_RE = re.compile(
    rf"{_OPERAND}(?: (?:{'|'.join(map(re.escape, _INFIX))}) {_OPERAND})*\Z"
)


def parse_formula(text: str, names: dict[str, Variable] | None = None) -> Formula:
    """Parse formula text into a syntax tree.  Raises ParseError on bad input.

    ``names`` maps variable names to their nodes, and the parse adds each new
    name it reads; a caller that passes one dict to many parses gets one
    Variable per name across them.

    Shunting-yard: an infix operator first applies the stacked operators that
    may stand unparenthesized as its left operand.  Nothing recurses.  Text
    in the printer's form (_PLAIN_RE) is split on its spaces, and the root
    keeps the text for to_text; any other text is read token by token.  In
    that form each "!" stands before a name, so an operand "!*name" is
    built whole, and a name already read is one lookup in ``names``.
    """
    if names is None:
        names = {}
    if not _PLAIN_RE.match(text):
        return _parse_tokens(text, names)
    parts = iter(text.split(" "))
    first = next(parts)
    operands: list[Formula] = [names.get(first) or _operand(first, names)]
    operators: list[tuple] = []
    for symbol, part in zip(parts, parts):
        entry, min_level = _BINDING[symbol]
        if operators and operators[-1][1] >= min_level:
            _reduce(operands, operators, min_level)
        operators.append(entry)
        operands.append(names.get(part) or _operand(part, names))
    _reduce(operands, operators, 1)
    _set_text(operands[0], text)
    return operands[0]


def _operand(part: str, names: dict[str, Variable]) -> Formula:
    """The operand "!*name" of printer-form text: its leaf under one Not per "!"."""
    name = part.lstrip("!")
    node = _leaf(name, names)
    for _ in range(len(part) - len(name)):
        outer = _new(Not)
        _set_child(outer, node)
        node = outer
    return node


def _leaf(name: str, names: dict[str, Variable]) -> Formula:
    """The constant or the one Variable of a name; ``names`` takes a new one."""
    node = names.get(name) or _CONSTANTS.get(name)
    if node is None:
        node = names[name] = _variable(name)
    return node


def _parse_tokens(text: str, names: dict[str, Variable]) -> Formula:
    """parse_formula of any text, token by token."""
    operands: list[Formula] = []
    operators: list[tuple] = []
    want_operand = True
    tokens = _TOKEN_RE.finditer(text)
    for m in tokens:
        kind = m.lastindex
        if want_operand:
            if kind == _NAME_TOKEN:
                operands.append(_leaf(m[kind], names))
                want_operand = False
            elif kind == _PREFIX_TOKEN:
                operators.append(_PREFIX[m[kind]])
            else:
                raise _unexpected(m, tokens, _ATOM_EXPECTED)
        elif kind == _INFIX_TOKEN:
            entry, min_level = _BINDING[m[kind]]
            _reduce(operands, operators, min_level)
            operators.append(entry)
            want_operand = True
        else:
            _reduce(operands, operators, 1)  # leaves only the open "(" sentinels
            if kind == _CLOSE and operators:
                operators.pop()
            elif kind == _END and not operators:
                break
            else:
                raise _unexpected(m, tokens, (")",) if operators else _INFIX_EXPECTED)
    return operands[0]


def _reduce(operands: list[Formula], operators: list[tuple], min_level: int) -> None:
    """Apply the stacked operators down to the first that binds looser than min_level."""
    while operators and operators[-1][1] >= min_level:
        kind = operators.pop()[0]
        node = _new(kind)
        if kind is Not:
            _set_child(node, operands[-1])
        else:
            _set_right(node, operands.pop())
            _set_left(node, operands[-1])
        operands[-1] = node


def _unexpected(m: re.Match, rest, expected: tuple[str, ...]) -> ParseError:
    """The error for token m, unless a bad character comes at or after it: that one wins."""
    for token in (m, *rest):
        if token.lastindex == _BAD:
            return ParseError(f"unexpected character {token[_BAD]!r}", token.start(_BAD))
    kind = m.lastindex
    return ParseError(f"unexpected input {m[kind]!r}", m.start(kind), expected)


def _render(f: Formula, min_level: int = 0) -> str:
    """f's text, parenthesized when f binds looser than min_level.

    The operand on the side an operator associates to may bind as loosely as
    the operator; the other must bind tighter.
    """
    if isinstance(f, Variable):
        return f.name
    if isinstance(f, Const):
        return "true" if f.value else "false"
    if type(f) not in _SYNTAX:
        raise TypeError(f"not a formula: {f!r}")
    symbol, level, right = _SYNTAX[type(f)]
    if isinstance(f, Not):
        text = symbol + _render(f.child, level)
    else:
        text = f"{_render(f.left, level + right)} {symbol} {_render(f.right, level + (not right))}"
    return f"({text})" if level < min_level else text


def to_text(f: Formula) -> str:
    """Render a formula with the minimal parentheses needed to parse back
    identically; a root that keeps its plain text returns that text."""
    text = getattr(f, "_text", None)
    return _render(f) if text is None else text


# --- semantics ---------------------------------------------------------------

def iter_vars(f: Formula) -> Iterator[str]:
    """Yield variable names in syntactic (pre-order) order, with repeats; any depth."""
    stack = [f]
    while stack:
        f = stack.pop()
        if isinstance(f, Variable):
            yield f.name
        elif isinstance(f, Not):
            stack.append(f.child)
        elif isinstance(f, Binary):
            stack += f.right, f.left


def variables(f: Formula) -> tuple[str, ...]:
    """The set of variable names occurring in f, sorted lexicographically."""
    return tuple(sorted(set(iter_vars(f))))


def evaluate(f: Formula, assignment: Assignment) -> bool:
    """Evaluate f under a truth assignment.  Raises UnboundVariable for missing names."""
    if isinstance(f, Variable):
        try:
            return assignment[f.name]
        except KeyError:
            raise UnboundVariable(f.name) from None
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Not):
        return not evaluate(f.child, assignment)
    if isinstance(f, Binary):  # the left operand's value may decide; then the right is not read
        return evaluate(_fold(type(f), _const(evaluate(f.left, assignment)), f.right), assignment)
    raise TypeError(f"not a formula: {f!r}")


def _const(value: bool) -> Const:
    return TRUE if value else FALSE


def _negate(f: Formula) -> Formula:
    return _const(not f.value) if isinstance(f, Const) else Not(f)


def _fold(kind: type, left: Formula, right: Formula) -> Formula:
    """kind(left, right) simplified, where left or right is a constant: the
    connective's values at the other operand's two values give the result."""
    truth = _TRUTH[kind]
    if isinstance(left, Const):
        other, if_true, if_false = right, truth(left.value, True), truth(left.value, False)
    else:
        other, if_true, if_false = left, truth(True, right.value), truth(False, right.value)
    if if_true == if_false:
        return _const(if_true)
    return other if if_true else _negate(other)


def restrict(f: Formula, name: str, value: bool, memo: dict | None = None) -> Formula:
    """f with the variable ``name`` set to ``value``, constants folded.

    Every constant operand is folded into its connective, so the result is
    TRUE or FALSE when no variable is left, and contains no constant
    otherwise.  Unchanged subformulas are shared with f.

    ``memo`` maps id(node) to the node's restriction under this one (name,
    value).  Formulas restricted through one memo restrict each node they
    share once, and their results share the restricted node in turn.  Its
    keys are ids, so the memo must not outlive the formulas restricted.
    """
    return _restrict(f, name, value, {} if memo is None else memo)


def _restrict(f: Formula, name: str, value: bool, memo: dict) -> Formula:
    if (kind := type(f)) is Variable:
        return _const(value) if f.name == name else f
    if kind is Const:
        return f
    out = memo.get(id(f))
    if out is not None:
        return out
    if kind is Not:
        child = _restrict(f.child, name, value, memo)
        if type(child) is Const:
            out = _negate(child)
        else:
            out = f if child is f.child else Not(child)
    elif kind in _TRUTH:
        left = _restrict(f.left, name, value, memo)
        right = _restrict(f.right, name, value, memo)
        if type(left) is Const or type(right) is Const:
            out = _fold(kind, left, right)
        elif left is f.left and right is f.right:
            out = f
        else:
            out = kind(left, right)
    else:
        raise TypeError(f"not a formula: {f!r}")
    memo[id(f)] = out
    return out


def _share(f: Formula, seen: dict, table: dict) -> Formula:
    """f, == f, with each subformula equal to one already met replaced by that one.

    ``table`` maps a node's structure to its one node: a Variable's name,
    or (type, id of each shared child) for a connective.  ``seen`` maps
    id(node) to its shared form, so a node reached twice is walked once.
    Both key by id, so they must not outlive the formulas shared.
    """
    if (kind := type(f)) is Variable:
        return table.setdefault(f.name, f)
    if kind is Const:
        return _const(f.value)
    out = seen.get(id(f))
    if out is not None:
        return out
    if kind is Not:
        child = _share(f.child, seen, table)
        key = (Not, id(child))
        out = table.get(key)
        if out is None:
            out = table[key] = f if child is f.child else Not(child)
    elif kind in _TRUTH:
        left = _share(f.left, seen, table)
        right = _share(f.right, seen, table)
        key = (kind, id(left), id(right))
        out = table.get(key)
        if out is None:
            out = table[key] = f if left is f.left and right is f.right else kind(left, right)
    else:
        raise TypeError(f"not a formula: {f!r}")
    seen[id(f)] = out
    return out


# The tag shannon_leaves gives a constraint: a formula that must hold.
_MUST_HOLD = object()


def shannon_leaves(rows, constraints=()) -> Iterator[tuple[tuple, tuple]]:
    """The leaves of a depth-first Shannon expansion of rows under constraints.

    ``rows`` are (tag, formula) pairs and ``constraints`` are formulas that
    must hold.  The walk keeps a node's open formulas in one list of (tag,
    formula) pairs: the rows, then each constraint under a tag of its own.
    Popping a node settles its list in one pass: a constraint restricted to
    false ends the node, a row restricted to true selects its tag, and every
    decided formula drops out.  A node with nothing open is a leaf; any
    other branches on the first variable of its first open formula, a row
    while any is open, and restricts every open formula both ways, false
    first.

    Yields (tags, path) per leaf: the tags of the rows that hold, in the
    order they were decided, and the (name, value) pairs branched on, root
    first.  Every assignment extending ``path`` satisfies the constraints
    and selects exactly ``tags``; the leaves' paths are disjoint and cover
    every satisfying assignment.

    At the root, equal subformulas of all the rows and constraints become
    one node (_share), and a formula that uses no variable becomes the
    constant it evaluates to; restrict leaves a formula constant exactly
    when no variable is left, so from then on the constants are the decided
    formulas.  Each branch restricts every open formula through one memo,
    so a node shared by many formulas is restricted once per branch and its
    result stays shared.  The work follows the nodes reached times the
    number of distinct open subformulas, not 2^n.
    """
    seen: dict = {}
    table: dict = {}
    formulas = []
    for tag, f in chain(rows, ((_MUST_HOLD, c) for c in constraints)):
        f = _share(f, seen, table)
        formulas.append((tag, f if next(iter_vars(f), None) else _const(evaluate(f, {}))))
    stack = [((), formulas, ())]
    while stack:
        chosen, formulas, path = stack.pop()
        open_formulas = []
        for tag, f in formulas:
            if type(f) is not Const:
                open_formulas.append((tag, f))
            elif tag is _MUST_HOLD:
                if not f.value:
                    break
            elif f.value:
                chosen += (tag,)
        else:
            if not open_formulas:
                yield chosen, path
                continue
            name = next(iter_vars(open_formulas[0][1]))
            for value in (True, False):  # the false branch is popped, and walked, first
                memo: dict = {}
                restricted = [(tag, restrict(f, name, value, memo)) for tag, f in open_formulas]
                stack.append((chosen, restricted, path + ((name, value),)))


def equivalent(f: Formula, g: Formula, cap: int = DEFAULT_VAR_CAP) -> bool:
    """Decide logical equivalence by Shannon expansion of f <-> g.

    f <-> g is the one row of shannon_leaves; a leaf where it restricts to
    false is a counterexample and ends the walk.  The work is at most 2^n
    restrictions over the n joint variables, and usually far fewer.
    Raises ExpansionTooLarge when the joint variable count exceeds the cap.
    """
    names = set(iter_vars(f)) | set(iter_vars(g))
    if len(names) > cap:
        raise ExpansionTooLarge(len(names), cap)
    return all(chosen for chosen, _ in shannon_leaves([(True, Iff(f, g))]))


def rename_vars(f: Formula, prefix: str) -> Formula:
    """Qualify every variable name with a prefix: x becomes prefix::x."""
    if not re.fullmatch(_SEGMENT, prefix):
        raise ValueError(f"invalid prefix {prefix!r}")
    return _rename(f, prefix)


def _rename(f: Formula, prefix: str) -> Formula:
    if isinstance(f, Variable):
        return _variable(f"{prefix}::{f.name}")
    if isinstance(f, Const):
        return f
    if isinstance(f, Not):
        return Not(_rename(f.child, prefix))
    if isinstance(f, Binary):
        return type(f)(_rename(f.left, prefix), _rename(f.right, prefix))
    raise TypeError(f"not a formula: {f!r}")


def conjoin(parts) -> Formula:
    """Left-fold a sequence of formulas with And; the empty conjunction is true."""
    return _left_fold(And, parts, TRUE)


def disjoin(parts) -> Formula:
    """Left-fold a sequence of formulas with Or; the empty disjunction is false."""
    return _left_fold(Or, parts, FALSE)


def _left_fold(kind: type, parts, empty: Formula) -> Formula:
    parts = iter(parts)
    return reduce(kind, parts, next(parts, empty))
