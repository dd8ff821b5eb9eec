"""Laws between golden cases: what one case's output says about another's.

A digest pins a case's bytes, not their meaning, so a wrong output can be
recorded and kept.  These laws run the corpus's own documents and argv in
process and compare the outputs of cases that must agree.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

import golden
from udbi.cli import main
from udbi.documents import parse_document

# Cases a law leaves out, each with the reason the law does not apply.  Empty:
# every pwNN and prNN case of the corpus is checked.
SKIPPED: dict[str, str] = {}

EXIT_OK, EXIT_UNBALANCED = 0, 5


class Corpus:
    """The golden corpus's documents in a directory, and its cases by id."""

    def __init__(self, directory):
        files, cases = golden.corpus()
        for name, text in files.items():
            (directory / name).write_text(text, encoding="utf-8")
        self.files = files
        self.cases = dict(cases)
        self.directory = directory

    def run(self, case: str, *flags: str) -> tuple[int, str]:
        """The exit code and stdout of the case's argv after ``flags``, each
        document named by its path in the directory."""
        argv = [str(self.directory / a) if a in self.files else a for a in self.cases[case]]
        stdout = io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            code = main([*flags, *argv])
        return code, stdout.getvalue()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return Corpus(tmp_path_factory.mktemp("corpus"))


def checked(prefix: str, count: int) -> list[str]:
    """The case ids prefix00 … prefix{count - 1} that no law skips."""
    return [case for k in range(count) if (case := f"{prefix}{k:02d}") not in SKIPPED]


def test_skipped_cases_exist_and_give_a_reason(corpus):
    ids = {case.split("/")[0] for case in corpus.cases}
    assert all(case in ids and reason for case, reason in SKIPPED.items())


def test_the_chain_encoded_pw_pair_gives_the_distribution_of_its_pw_integration(corpus):
    # pwNN-chain.json is integrate_pr of the two chain-encoded sources of
    # pwNN/integrate: the pr route and the pw route must give one distribution.
    for case in checked("pw", 30):
        code, out = corpus.run(f"{case}/chain-prob", "--format", "json")
        assert code == EXIT_OK, case
        chain = parse_document(json.loads(out)["distribution"])
        code, out = corpus.run(f"{case}/integrate/json")
        assert code == EXIT_OK, case
        assert chain == parse_document(json.loads(out)), case


def test_the_integration_is_unbalanced_exactly_when_its_sources_are(corpus):
    # prNN-q.json is integrate_pr of prNN's sources, so the decomposed q is
    # unbalanced exactly when the sources are.
    verdicts = set()
    for case in checked("pr", 50):
        sources, _ = corpus.run(f"{case}/check-rs/table")
        assert sources in (EXIT_OK, EXIT_UNBALANCED), case
        for command in ("prob", "check-q"):
            code, _ = corpus.run(f"{case}/{command}/table")
            assert code == sources, (case, command)
        verdicts.add(sources)
    assert verdicts == {EXIT_OK, EXIT_UNBALANCED}
