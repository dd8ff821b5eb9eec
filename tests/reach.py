"""Reach report of the golden corpus: the statements in src/udbi that no case runs.

A line tracer is installed before ``udbi`` is imported, so that what runs at
import counts as reached, and then again for each case of
``golden.run_corpus()``: a RecursionError inside the tracer removes it, and
a deep case would leave every later case untraced.  The report lists, by
module and function, each statement of a function body that ran in no case,
keyed by its own text rather than its line number, so that an edit
elsewhere in the file leaves the report as it is.  A function that never
ran is one line with its count of statements.  Each function carries a
one-line reason why no command runs that code.

``test_reach.py`` compares the report with the committed ``reach.txt`` and
fails on an entry without a reason.  A change that means to alter the
report rewrites the file; the reasons already written are kept:

    PYTHONPATH=src python tests/reach.py           # print the report
    PYTHONPATH=src python tests/reach.py --write   # rewrite reach.txt
"""

from __future__ import annotations

import ast
import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

REPORT = Path(__file__).with_name("reach.txt")
SRC = Path(__file__).resolve().parents[1] / "src" / "udbi"
HEADER = [
    "# Statements in src/udbi that no golden case runs, by module and function,",
    "# each function with the reason no command runs them.  Generated by",
    "# tests/reach.py; `--write` rewrites this file and keeps the reasons.",
]


@contextmanager
def tracing(files, counts: Counter):
    """Count in ``counts``, keyed by (file, line number), each line run in
    one of ``files`` while the block runs; the tracer installed before is
    restored afterwards.  A line is counted once each time it runs, so the
    work a builtin does inside one line (``map``, ``sorted``, ``sum``)
    counts once."""

    def local(frame, event, arg):
        if event == "line":
            counts[frame.f_code.co_filename, frame.f_lineno] += 1
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        yield counts
    finally:
        sys.settrace(previous)


def _functions(node, prefix=""):
    """(qualified name, definition) of each function under node, in source
    order; a method is Class.name and a nested function outer.name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, prefix)


def _runs(stmt) -> bool:
    """False for what compiles to no code: a declaration or a lone constant
    (a docstring)."""
    if isinstance(stmt, ast.Expr):
        return not isinstance(stmt.value, ast.Constant)
    return not isinstance(stmt, (ast.Global, ast.Nonlocal))


def _children(stmt) -> list:
    """The statements directly inside a compound statement, in source order;
    none for a nested definition, whose body is a function of its own."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    found = []
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.stmt):
            found.append(child)
        elif isinstance(child, (ast.excepthandler, ast.match_case)):
            found.extend(child.body)
    return found


def _unreached(body, ran: set, source: str) -> tuple[bool, list[str]]:
    """Whether any statement of body, nested ones included, ran in the
    traced lines ``ran``, and the text of each one that did not.

    A simple statement ran when a line of its own ran.  A compound one ran
    when a line of its header ran or a statement inside it did: ``try:``
    and ``while True:`` may compile to no code of their own."""
    any_ran, found = False, []
    for stmt in filter(_runs, body):
        children = _children(stmt)
        inside_ran, inside = _unreached(children, ran, source)
        end = max(children[0].lineno, stmt.lineno + 1) if children else stmt.end_lineno + 1
        if inside_ran or not ran.isdisjoint(range(stmt.lineno, end)):
            any_ran = True
        else:
            found.append(_text(stmt, children, source))
        found += inside
    return any_ran, found


def _text(stmt, children, source: str) -> str:
    """A statement's text on one line; a compound statement's header only."""
    lines = source.splitlines()[stmt.lineno - 1 : (children[0] if children else stmt).end_lineno]
    if children:
        # Cut at the first child statement: what comes before it is the header.
        cut = children[0].lineno - stmt.lineno
        lines = lines[:cut] + [lines[cut][: children[0].col_offset]]
    else:
        lines[-1] = lines[-1][: stmt.end_col_offset]
    lines[0] = lines[0][stmt.col_offset :]
    return " ".join(" ".join(lines).split())


def report(paths, counts: Counter, reasons: dict) -> str:
    """The report for the modules at ``paths``, given the lines that ran as
    tracing() counts them and the reasons already written, keyed as
    ``_entries`` keys them."""
    out = list(HEADER)
    for path in paths:
        source = Path(path).read_text(encoding="utf-8")
        ran = {line for file, line in counts if file == str(path)}
        module = []
        for name, definition in _functions(ast.parse(source)):
            entered, found = _unreached(definition.body, ran, source)
            if found and not entered:
                found = [f"(never entered: {len(found)} statement{'s' * (len(found) > 1)})"]
            if found:
                reason = reasons.get(f"{Path(path).name} {name}", "")
                module.append(f"  {name}: {reason}".rstrip())
                module.extend(f"    {text}" for text in found)
        if module:
            out += ["", Path(path).name, *module]
    return "\n".join(out) + "\n"


def _entries(text: str):
    """(entry, reason) of each function in a report; the entry is the
    module's file name and the function's qualified name."""
    module = None
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if not line.startswith(" "):
            module = line
        elif not line.startswith("    "):
            name, _, reason = line.strip().partition(":")
            yield f"{module} {name}", reason.strip()


def problems(committed: str, actual: str) -> list[str]:
    """What keeps a run's report from passing: a difference from the
    committed one, and each entry without a reason."""
    found = []
    if committed != actual:
        want, got = committed.splitlines(), actual.splitlines()
        line = next((k for k, (a, b) in enumerate(zip(want, got)) if a != b), min(len(want), len(got)))
        found.append(f"the report differs from {REPORT.name} at line {line + 1}")
    return found + [f"{entry}: no reason" for entry, reason in _entries(actual) if not reason]


def run() -> str:
    """The report of the golden corpus, with the reasons of ``reach.txt``."""
    paths = sorted(SRC.glob("*.py"))
    files = {str(path) for path in paths}
    counts = Counter()
    with tracing(files, counts):
        for path in paths:
            importlib.import_module("udbi" if path.stem == "__init__" else f"udbi.{path.stem}")
    import golden
    from udbi.cli import main

    def traced(argv):
        with tracing(files, counts):
            return main(argv)

    golden.run_corpus(traced)
    committed = REPORT.read_text(encoding="utf-8") if REPORT.exists() else ""
    return report(paths, counts, dict(_entries(committed)))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv not in ([], ["--write"]):
        print(__doc__, file=sys.stderr)
        return 2
    text = run()
    if argv:
        REPORT.write_text(text, encoding="utf-8")
        print(f"wrote {sum(1 for _ in _entries(text))} entries to {REPORT}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC.parent))
    sys.exit(main())
