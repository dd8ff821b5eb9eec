"""Propositional event formulas: syntax tree, parser, printer, evaluation.

The concrete syntax uses ``!``, ``&``, ``|``, ``->`` and ``<->`` in decreasing
binding strength, the constants ``true`` and ``false``, parentheses, and
``#`` line comments.  ``&``, ``|`` and ``<->`` associate to the left,
``->`` to the right.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import reduce

from .errors import ExpansionTooLarge, ParseError, UnboundVariable

DEFAULT_VAR_CAP = 20

Assignment = Mapping[str, bool]

# Plain identifier, optionally qualified by "::" separators.  Qualified names
# arise only from rename_vars, but the parser accepts them so that printed
# formulas always parse back.
_SEGMENT = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(rf"{_SEGMENT}(?:::{_SEGMENT})*\Z")

_RESERVED = ("true", "false")


def is_valid_name(name: str) -> bool:
    """True for identifiers the parser accepts as variables, qualified or not."""
    return bool(_NAME_RE.match(name)) and name not in _RESERVED


class Formula:
    """Base class for formula nodes.  All nodes are immutable and compare structurally."""

    def __invert__(self) -> Formula:
        return Not(self)

    def __and__(self, other: Formula) -> Formula:
        return And(self, other)

    def __or__(self, other: Formula) -> Formula:
        return Or(self, other)

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class Variable(Formula):
    name: str

    def __post_init__(self):
        if self.name in _RESERVED or not _NAME_RE.match(self.name):
            raise ValueError(f"invalid variable name {self.name!r}")


@dataclass(frozen=True)
class Const(Formula):
    value: bool


TRUE = Const(True)
FALSE = Const(False)


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


# --- parsing -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    rf"""
      (?P<skip>\s+|\#[^\n]*)
    | (?P<name>{_SEGMENT}(?:::{_SEGMENT})*)
    | (?P<iff><->)
    | (?P<implies>->)
    | (?P<not>!)
    | (?P<and>&)
    | (?P<or>\|)
    | (?P<lparen>\()
    | (?P<rparen>\))
    """,
    re.VERBOSE,
)

_ATOM_EXPECTED = ("!", "(", "identifier", "true", "false")
_INFIX_EXPECTED = ("&", "|", "->", "<->", "end of input")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        value = m.group()
        if kind == "name" and value in _RESERVED:
            kind = value
        if kind != "skip":
            tokens.append((kind, value, pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.index = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def formula(self) -> Formula:
        node = self.iff()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected input {value!r}", pos, _INFIX_EXPECTED)
        return node

    def iff(self) -> Formula:
        node = self.implication()
        while self.peek()[0] == "iff":
            self.advance()
            node = Iff(node, self.implication())
        return node

    def implication(self) -> Formula:
        node = self.disjunction()
        if self.peek()[0] == "implies":
            self.advance()
            node = Implies(node, self.implication())
        return node

    def disjunction(self) -> Formula:
        node = self.conjunction()
        while self.peek()[0] == "or":
            self.advance()
            node = Or(node, self.conjunction())
        return node

    def conjunction(self) -> Formula:
        node = self.unary()
        while self.peek()[0] == "and":
            self.advance()
            node = And(node, self.unary())
        return node

    def unary(self) -> Formula:
        if self.peek()[0] == "not":
            self.advance()
            return Not(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind, value, pos = self.advance()
        if kind == "name":
            return Variable(value)
        if kind == "true":
            return TRUE
        if kind == "false":
            return FALSE
        if kind == "lparen":
            node = self.iff()
            kind, value, pos = self.advance()
            if kind != "rparen":
                raise ParseError(f"unexpected input {value!r}", pos, (")",))
            return node
        raise ParseError(f"unexpected input {value!r}", pos, _ATOM_EXPECTED)


def parse_formula(text: str) -> Formula:
    """Parse formula text into a syntax tree.  Raises ParseError on bad input."""
    return _Parser(_tokenize(text)).formula()


# --- printing ----------------------------------------------------------------

_LEVEL_ATOM = 6
_LEVEL_NOT = 5
_LEVEL_AND = 4
_LEVEL_OR = 3
_LEVEL_IMPLIES = 2
_LEVEL_IFF = 1


def _render(f: Formula) -> tuple[str, int]:
    if isinstance(f, Variable):
        return f.name, _LEVEL_ATOM
    if isinstance(f, Const):
        return ("true" if f.value else "false"), _LEVEL_ATOM
    if isinstance(f, Not):
        return "!" + _wrap(f.child, _LEVEL_NOT), _LEVEL_NOT
    if isinstance(f, And):
        return _wrap(f.left, _LEVEL_AND) + " & " + _wrap(f.right, _LEVEL_AND + 1), _LEVEL_AND
    if isinstance(f, Or):
        return _wrap(f.left, _LEVEL_OR) + " | " + _wrap(f.right, _LEVEL_OR + 1), _LEVEL_OR
    if isinstance(f, Implies):
        return _wrap(f.left, _LEVEL_IMPLIES + 1) + " -> " + _wrap(f.right, _LEVEL_IMPLIES), _LEVEL_IMPLIES
    if isinstance(f, Iff):
        return _wrap(f.left, _LEVEL_IFF) + " <-> " + _wrap(f.right, _LEVEL_IFF + 1), _LEVEL_IFF
    raise TypeError(f"not a formula: {f!r}")


def _wrap(f: Formula, min_level: int) -> str:
    text, level = _render(f)
    return f"({text})" if level < min_level else text


def to_text(f: Formula) -> str:
    """Render a formula with the minimal parentheses needed to parse back identically."""
    return _render(f)[0]


# --- semantics ---------------------------------------------------------------

def iter_vars(f: Formula) -> Iterator[str]:
    """Yield variable names in syntactic (pre-order) order, with repeats."""
    if isinstance(f, Variable):
        yield f.name
    elif isinstance(f, Not):
        yield from iter_vars(f.child)
    elif isinstance(f, (And, Or, Implies, Iff)):
        yield from iter_vars(f.left)
        yield from iter_vars(f.right)


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
    if isinstance(f, And):
        return evaluate(f.left, assignment) and evaluate(f.right, assignment)
    if isinstance(f, Or):
        return evaluate(f.left, assignment) or evaluate(f.right, assignment)
    if isinstance(f, Implies):
        return (not evaluate(f.left, assignment)) or evaluate(f.right, assignment)
    if isinstance(f, Iff):
        return evaluate(f.left, assignment) == evaluate(f.right, assignment)
    raise TypeError(f"not a formula: {f!r}")


def _negate(f: Formula) -> Formula:
    if isinstance(f, Const):
        return FALSE if f.value else TRUE
    return Not(f)


def _fold(kind: type, left: Formula, right: Formula) -> Formula:
    """kind(left, right) simplified, where left or right is a constant."""
    if isinstance(left, Const):
        if kind is And:
            return right if left.value else FALSE
        if kind is Or:
            return TRUE if left.value else right
        if kind is Implies:
            return right if left.value else TRUE
        return right if left.value else _negate(right)
    if kind is And:
        return left if right.value else FALSE
    if kind is Or:
        return TRUE if right.value else left
    if kind is Implies:
        return TRUE if right.value else _negate(left)
    return left if right.value else _negate(left)


def restrict(f: Formula, name: str, value: bool) -> Formula:
    """f with the variable ``name`` set to ``value``, constants folded.

    Every constant operand is folded into its connective, so the result is
    TRUE or FALSE when no variable is left, and contains no constant
    otherwise.  Unchanged subformulas are shared with f.
    """
    if isinstance(f, Variable):
        if f.name == name:
            return TRUE if value else FALSE
        return f
    if isinstance(f, Const):
        return f
    if isinstance(f, Not):
        child = restrict(f.child, name, value)
        if isinstance(child, Const):
            return _negate(child)
        return f if child is f.child else Not(child)
    if isinstance(f, (And, Or, Implies, Iff)):
        left = restrict(f.left, name, value)
        right = restrict(f.right, name, value)
        if isinstance(left, Const) or isinstance(right, Const):
            return _fold(type(f), left, right)
        if left is f.left and right is f.right:
            return f
        return type(f)(left, right)
    raise TypeError(f"not a formula: {f!r}")


def _closed(f: Formula) -> Formula:
    """f, or the constant it evaluates to when it uses no variable."""
    if next(iter_vars(f), None) is None:
        return TRUE if evaluate(f, {}) else FALSE
    return f


def _settle(chosen: tuple, rows, constraints) -> tuple | None:
    """Decide the formulas that are constants; (chosen, open rows, open constraints).

    restrict leaves a formula constant exactly when no variable is left, so
    once _closed has run at the root, the constants are the decided formulas.
    A row that holds adds its tag to ``chosen`` and one that fails drops
    out; a constraint that holds is dropped.  None when a constraint fails.
    """
    constraints = list(constraints)
    if any(isinstance(c, Const) and not c.value for c in constraints):
        return None
    rows = list(rows)
    return (
        chosen + tuple(tag for tag, f in rows if isinstance(f, Const) and f.value),
        tuple((tag, f) for tag, f in rows if not isinstance(f, Const)),
        tuple(c for c in constraints if not isinstance(c, Const)),
    )


def shannon_leaves(rows, constraints=()) -> Iterator[tuple[tuple, tuple]]:
    """The leaves of a depth-first Shannon expansion of rows under constraints.

    ``rows`` are (tag, formula) pairs and ``constraints`` are formulas that
    must hold.  Each node branches on the first variable of the first open
    row, or of the first open constraint once every row is decided, and
    restricts every open formula both ways, false first.  A row restricted
    to true selects its tag and one restricted to false drops out; a
    constraint restricted to false ends its branch, and one restricted to
    true is dropped.  A leaf is a node with nothing open.

    Yields (tags, path) per leaf: the tags of the rows that hold, in the
    order they were decided, and the (name, value) pairs branched on, root
    first.  Every assignment extending ``path`` satisfies the constraints
    and selects exactly ``tags``; the leaves' paths are disjoint and cover
    every satisfying assignment.  The work follows the nodes reached times
    the size of the open formulas, not 2^n.
    """
    node = _settle((), ((tag, _closed(f)) for tag, f in rows), map(_closed, constraints))
    stack = [] if node is None else [(*node, ())]
    while stack:
        chosen, rows, constraints, path = stack.pop()
        if not rows and not constraints:
            yield chosen, path
            continue
        name = next(iter_vars(rows[0][1] if rows else constraints[0]))
        for value in (True, False):
            node = _settle(
                chosen,
                ((tag, restrict(f, name, value)) for tag, f in rows),
                (restrict(c, name, value) for c in constraints),
            )
            if node is not None:
                stack.append((*node, path + ((name, value),)))


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
        return Variable(f"{prefix}::{f.name}")
    if isinstance(f, Const):
        return f
    if isinstance(f, Not):
        return Not(_rename(f.child, prefix))
    if isinstance(f, (And, Or, Implies, Iff)):
        return type(f)(_rename(f.left, prefix), _rename(f.right, prefix))
    raise TypeError(f"not a formula: {f!r}")


def conjoin(parts) -> Formula:
    """Left-fold a sequence of formulas with And; the empty conjunction is true."""
    parts = list(parts)
    if not parts:
        return TRUE
    return reduce(And, parts)


def disjoin(parts) -> Formula:
    """Left-fold a sequence of formulas with Or; the empty disjunction is false."""
    parts = list(parts)
    if not parts:
        return FALSE
    return reduce(Or, parts)
