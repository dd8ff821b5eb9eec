"""Command-line interface.

Commands: expand, integrate, prob, check, decompose, gen.  Global flags
--cap (expansion variable cap) and --format (json or table) may appear
before or after the subcommand.  Exit codes: 0 ok, 1 failed verdict,
2 parse/validation error, 3 expansion cap exceeded, 4 empty integration,
5 probabilistic-constraint violation, 6 not recognized as integrated,
7 internal error.  ``_EXIT_CODES`` maps each error type of this package to
its code; any other exception, a fault of this program or running out of
memory, exits 7 with a one-line message naming its type.
KeyboardInterrupt and SystemExit pass through.
Parentheses in formula text nest without limit.  Input nested deeper than
Python's recursion limit exits 2 with "error: input nested too deeply"
until the remaining traversals are iterative: deeply nested JSON under
every command, a long run of "!" under expand, prob and check, and that
run or a long chain of one connective under decompose when the text is not
in the printer's form, and under prob and check too when the relation has
a constraint, since recognition then renders it.  decompose prints a
formula read in that form by its text, and recognition matches formulas by
that text, so it exits 0 on either, with or without constraints.  expand,
prob and check read such a chain without recursion and exit 3 at the cap.
A result with a number too long to print also exits 2.
The cyclic garbage collector is paused while a command runs and ``main``
restores the caller's state; a document shares one variable node per name.
"""

from __future__ import annotations

import argparse
import gc
import sys
from collections.abc import Callable
from fractions import Fraction

from .decompose import enumerate_pairs
from .documents import document_of, dumps_json, load_document
from .errors import (
    EmptyIntegration,
    ExpansionTooLarge,
    MissingVarProb,
    NotIntegrated,
    NoValidAssignment,
    ParseError,
    ProbConstraintViolation,
    UdbError,
    UnboundVariable,
    ValidationError,
)
from .gen import gen_consistent_pw_pair, gen_pr_pair
from .logic import DEFAULT_VAR_CAP, to_text
from .prdb import (
    EprRelation,
    PrRelation,
    expand_epr,
    expand_pr,
    integrate_pr,
)
from .probcalc import epr_distribution
from .pwdb import (
    UncertainDB,
    check_prob_constraints,
    compatibility_graph,
    format_tuple,
    format_world,
    integrate_pw,
    integrate_pw_prob,
)

EXIT_OK = 0
EXIT_VERDICT_FAILED = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_EMPTY = 4
EXIT_UNBALANCED = 5
EXIT_NOT_INTEGRATED = 6
EXIT_INTERNAL = 7

# The exit code of each error type this package raises.
_EXIT_CODES = {
    **dict.fromkeys((ParseError, ValidationError, UnboundVariable, MissingVarProb), EXIT_INPUT),
    ExpansionTooLarge: EXIT_CAP,
    **dict.fromkeys((EmptyIntegration, NoValidAssignment), EXIT_EMPTY),
    ProbConstraintViolation: EXIT_UNBALANCED,
    NotIntegrated: EXIT_NOT_INTEGRATED,
}


def _build_parser() -> argparse.ArgumentParser:
    # --cap and --format are declared at the top level and, with SUPPRESS, in
    # each subcommand, so they may come before or after the subcommand.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--cap", type=int, default=argparse.SUPPRESS,
        help="variable cap for expansions (default 20)",
    )
    shared.add_argument(
        "--format", choices=("json", "table"), default=argparse.SUPPRESS,
        help="output rendering (default table)",
    )
    shared.add_argument("--out", help="write the result document to a file")
    parser = argparse.ArgumentParser(
        prog="udbi",
        description="Integrate uncertain databases and compute exact distributions.",
    )
    parser.add_argument("--cap", type=int, default=DEFAULT_VAR_CAP)
    parser.add_argument("--format", choices=("json", "table"), default="table")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, parents=[shared], help=help)
        p.set_defaults(run=run)
        return p

    p = command("expand", _cmd_expand, "expand a relation or database to its worlds")
    p.add_argument("input")
    p.add_argument("--worlds-only", action="store_true",
                   help="list worlds without probabilities")

    p = command("integrate", _cmd_integrate, "integrate two sources")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--model", choices=("pw", "pr"), required=True)

    p = command("prob", _cmd_prob, "exact distribution of an integrated relation")
    p.add_argument("input")

    p = command("check", _cmd_check, "probabilistic-constraint and consistency checks")
    p.add_argument("a")
    p.add_argument("b", nargs="?")

    p = command("decompose", _cmd_decompose,
                "recover source pairs from an integrated relation")
    p.add_argument("input")
    p.add_argument("--all", action="store_true", help="emit every pair")
    p.add_argument("--limit", type=int, help="emit at most this many pairs")

    p = command("gen", _cmd_gen, "generate a random source pair")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", choices=("pr", "pw"), default="pr")
    p.add_argument("--max-tuples", type=int, default=4)
    p.add_argument("--max-vars", type=int, default=3)
    p.add_argument("--max-depth", type=int, default=2)
    p.add_argument("--overlap", type=float, default=0.6)
    return parser


# --- rendering helpers ---------------------------------------------------------

def _decimal(p: Fraction) -> str:
    return f"{p.numerator / p.denominator:.6f}"


def _distribution_table(u: UncertainDB) -> str:
    worlds, probs = u.worlds, u.probs
    names = [format_world(w) for w in worlds]
    width = max([len(n) for n in names] + [5])
    lines = []
    if probs is None:
        lines.append("WORLD")
        lines.extend(names)
    else:
        frs = [str(p) for p in probs]
        fw = max([len(f) for f in frs] + [4])
        lines.append(f"{'WORLD':<{width}}  {'PROB':<{fw}}  DECIMAL")
        for name, p, fr in zip(names, probs, frs):
            lines.append(f"{name:<{width}}  {fr:<{fw}}  {_decimal(p)}")
        total = sum(probs, Fraction(0))
        lines.append(f"{'TOTAL':<{width}}  {str(total):<{fw}}  {_decimal(total)}")
    return "\n".join(lines)


def _relation_table(rel) -> str:
    lines = ["rows:"]
    lines.extend(f"  {format_tuple(row.tuple)} @ {to_text(row.event)}" for row in rel.rows)
    if rel.constraints:
        lines.append("constraints:")
        lines.extend(
            f"  {to_text(lhs)}  =  {to_text(rhs)}" for lhs, rhs in rel.constraints
        )
    if rel.var_probs:
        lines.append("var_probs:")
        lines.extend(
            f"  {name} = {rel.var_probs[name]}" for name in sorted(rel.var_probs)
        )
    return "\n".join(lines)


def _shown(value) -> tuple[Callable[[], dict], Callable[[], str]]:
    """The renderers of a model value's document and of its table."""
    table = _distribution_table if isinstance(value, UncertainDB) else _relation_table
    return lambda: document_of(value), lambda: table(value)


def _titled(title: str, table: str) -> list[str]:
    """The table's lines indented by two spaces, under the title."""
    return [title, *("  " + line for line in table.splitlines())]


def _component_doc(summary) -> dict:
    balanced = summary.balanced
    doc = {
        "left": list(summary.left),
        "right": list(summary.right),
        "left_sum": str(summary.left_sum),
        "right_sum": str(summary.right_sum),
        "balanced": balanced,
    }
    if balanced:
        doc["constant"] = str(summary.constant)
    else:
        doc["violation"] = summary.violation
    return doc


def _component_head(k: int, left, right) -> str:
    """Component k's line as far as its worlds, "-" for a side without any."""
    left, right = (",".join(map(str, side)) or "-" for side in (left, right))
    return f"  {k}: left=[{left}] right=[{right}]"


def _component_lines(summaries) -> list[str]:
    lines = ["components:"]
    for k, summary in enumerate(summaries):
        verdict = (
            f"P={summary.constant} balanced" if summary.balanced else "UNBALANCED"
        )
        lines.append(
            f"{_component_head(k, summary.left, summary.right)} "
            f"left_sum={summary.left_sum} right_sum={summary.right_sum} {verdict}"
        )
        if summary.violation is not None:
            lines.append(f"     {summary.violation}")
    return lines


def _emit(args, document: Callable[[], dict], table: Callable[[], str]) -> None:
    """Print the table or the JSON document; --out always writes the document.

    ``document`` and ``table`` render the two forms; each is called only
    when its form is output.  An --out path that cannot be written is an
    input error.
    """
    if args.out:
        doc = document()
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(dumps_json(doc) + "\n")
        except OSError as err:
            raise ValidationError(f"cannot write {args.out}: {err}") from None
    else:
        print(dumps_json(document()) if args.format == "json" else table())


# --- commands -------------------------------------------------------------------

# A command's result: the renderers of its document and of its table, its exit code.
_Result = tuple[Callable[[], dict], Callable[[], str], int]


def _cmd_expand(args) -> _Result:
    value = load_document(args.input)
    if isinstance(value, (UncertainDB, PrRelation)):
        expanded = _to_udb(value, args.cap)
    else:
        expanded = expand_epr(value, args.cap)
    if args.worlds_only and expanded.probs is not None:
        expanded = UncertainDB(expanded.tuple_set, expanded.worlds)
    return (*_shown(expanded), EXIT_OK)


def _cmd_integrate(args) -> _Result:
    a = load_document(args.a)
    b = load_document(args.b)
    if args.model == "pw":
        if not (isinstance(a, UncertainDB) and isinstance(b, UncertainDB)):
            raise ValidationError("--model pw needs two pw documents")
        if a.probs is not None and b.probs is not None:
            result = integrate_pw_prob(a, b)
        else:
            result = integrate_pw(a, b)
    else:
        if not (isinstance(a, PrRelation) and isinstance(b, PrRelation)):
            raise ValidationError("--model pr needs two pr documents")
        result = integrate_pr(a, b)
    return (*_shown(result), EXIT_OK)


def _load_relation(path) -> EprRelation:
    value = load_document(path)
    if not isinstance(value, EprRelation):
        raise ValidationError("this command needs a pr or epr document")
    return value


def _cmd_prob(args) -> _Result:
    q = _load_relation(args.input)
    result = epr_distribution(q, args.cap)
    joint, pair = result.distribution, result.parts.pair(0)

    def document() -> dict:
        return {
            "distribution": document_of(joint),
            "components": [_component_doc(c) for c in result.components],
            "pair": {"r": document_of(pair.r), "s": document_of(pair.s)},
        }

    def table() -> str:
        lines = [_distribution_table(joint)]
        lines.extend(_component_lines(result.components))
        lines.extend(_titled("pair r:", _relation_table(pair.r)))
        lines.extend(_titled("pair s:", _relation_table(pair.s)))
        return "\n".join(lines)

    return document, table, EXIT_OK


def _to_udb(value, cap: int) -> UncertainDB:
    if isinstance(value, UncertainDB):
        return value
    if not isinstance(value, PrRelation):
        raise ValidationError("check between two sources takes pw or pr documents")
    udb, _ = expand_pr(value, cap)
    return udb


def _cmd_check(args) -> _Result:
    if args.b is None:
        return _check_single(args)
    u1 = _to_udb(load_document(args.a), args.cap)
    u2 = _to_udb(load_document(args.b), args.cap)
    graph = compatibility_graph(u1, u2)
    have_probs = u1.probs is not None and u2.probs is not None
    checks = check_prob_constraints(u1, u2, graph) if have_probs else None
    balanced = None if checks is None else all(c.balanced for c in checks)

    def document() -> dict:
        return {
            # Constant, kept for its readers: each component is one trace class.
            "complete_bipartite": True,
            "balanced": balanced,
            "components": None if checks is None else [_component_doc(c) for c in checks],
        }

    def table() -> str:
        lines = []
        if checks is None:
            lines.append("components:")
            lines.extend(_component_head(k, *sides) for k, sides in enumerate(graph.components))
            lines.append("balance: not checked (sources carry no probabilities)")
        else:
            lines.extend(_component_lines(checks))
            lines.append("balance: ok" if balanced else "balance: VIOLATED")
        lines.append("complete-bipartite: yes")
        return "\n".join(lines)

    return document, table, EXIT_UNBALANCED if balanced is False else EXIT_OK


def _check_single(args) -> _Result:
    q = _load_relation(args.a)
    result = epr_distribution(q, args.cap, compare=True)

    def document() -> dict:
        return {
            "components": [_component_doc(c) for c in result.components],
            "cross_check": result.agreed,
        }

    def table() -> str:
        lines = _component_lines(result.components)
        lines.append(f"cross-check: {'ok' if result.agreed else 'FAILED'}")
        return "\n".join(lines)

    return document, table, EXIT_OK if result.agreed else EXIT_VERDICT_FAILED


def _cmd_decompose(args) -> _Result:
    if args.limit is not None and args.limit < 0:
        raise ValidationError(f"--limit must be 0 or more, got {args.limit}")
    q = _load_relation(args.input)
    limit = args.limit if args.all or args.limit is not None else 1
    pairs = enumerate_pairs(q, limit)

    def document() -> dict:
        return {"pairs": [{"r": document_of(p.r), "s": document_of(p.s)} for p in pairs]}

    def table() -> str:
        lines = []
        for i, p in enumerate(pairs):
            lines.extend(_titled(f"pair {i} r:", _relation_table(p.r)))
            lines.extend(_titled(f"pair {i} s:", _relation_table(p.s)))
        return "\n".join(lines)

    return document, table, EXIT_OK


def _cmd_gen(args) -> _Result:
    if not 1 <= args.max_tuples <= 8:
        raise ValidationError("--max-tuples must be between 1 and 8")
    if not 1 <= args.max_vars <= 4:
        raise ValidationError("--max-vars must be between 1 and 4")
    if not 0 <= args.max_depth <= 3:
        raise ValidationError("--max-depth must be between 0 and 3")
    if not 0 <= args.overlap <= 1:
        raise ValidationError("--overlap must be between 0 and 1")
    if args.model == "pr":
        a, b = gen_pr_pair(
            args.seed,
            max_tuples=args.max_tuples,
            max_vars=args.max_vars,
            max_depth=args.max_depth,
            overlap=args.overlap,
        )
    else:
        a, b = gen_consistent_pw_pair(args.seed, max_common=min(args.max_tuples, 4))
    (document_a, table_a), (document_b, table_b) = _shown(a), _shown(b)

    def table() -> str:
        return "\n".join(_titled("source a:", table_a()) + _titled("source b:", table_b()))

    return lambda: {"a": document_a(), "b": document_b()}, table, EXIT_OK


_PARSER = _build_parser()


def main(argv=None) -> int:
    # The cyclic garbage collector is paused while the command runs: the
    # values a command builds are acyclic, so its passes would only rescan
    # them.  The caller's collector state is restored however main ends.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _PARSER.parse_args(argv)
        if args.cap < 0:
            raise ValidationError(f"--cap must be 0 or more, got {args.cap}")
        document, table, code = args.run(args)
        _emit(args, document, table)
        return code
    except UdbError as err:
        if isinstance(err, ProbConstraintViolation):
            reasons = "".join(f"\n  {c.violation}" for c in err.failures)
            message = f"probabilistic constraints violated{reasons}"
        elif isinstance(err, NotIntegrated):
            message = f"not recognized as integrated: {err}"
        else:
            message = str(err)
        print(f"error: {message}", file=sys.stderr)
        return _EXIT_CODES[type(err)]
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_INPUT
    except Exception as err:
        if isinstance(err, ValueError) and "integer string conversion" in str(err):
            # Python's int-to-str digit limit: inputs are bounded when read,
            # but a computed probability can still outgrow it.
            print("error: a result is too long to print", file=sys.stderr)
            return EXIT_INPUT
        message = type(err).__name__
        if str(err):
            message += ": " + " ".join(str(err).split())  # on one line
        print(f"error: internal error: {message}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
