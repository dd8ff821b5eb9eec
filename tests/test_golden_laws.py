"""Laws between golden cases: what one case's output says about another's.

A digest pins a case's bytes, not their meaning, so a wrong output can be
recorded and kept.  These laws run the corpus's own documents and argv in
process and compare the outputs of cases that must agree.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

import golden
from udbi import cli
from udbi.cli import EXIT_INTERNAL, EXIT_OK, EXIT_UNBALANCED, main
from udbi.documents import document_of, parse_document
from udbi.prdb import expand_pr, integrate_pr
from udbi.pwdb import integrate_pw, integrate_pw_prob

# Cases a law leaves out, each with the reason the law does not apply.  Empty:
# every pwNN and prNN case of the corpus is checked.
SKIPPED: dict[str, str] = {}


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


def document(corpus, name: str):
    """The model value of the corpus document ``name``."""
    return parse_document(json.loads(corpus.files[name]))


def expanded_sources(corpus, case: str):
    """The worlds of prNN's two sources, with their probabilities."""
    return [expand_pr(document(corpus, f"{case}-{side}.json"))[0] for side in "rs"]


def reintegration_form(relation) -> dict:
    """The relation's document with its constraints as a sorted list of
    sorted [lhs, rhs] texts: equal for two relations whose constraints
    differ only in order and orientation."""
    doc = document_of(relation)
    doc["constraints"] = sorted(sorted(c.values()) for c in doc["constraints"])
    return doc


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


def test_the_expanded_integration_has_the_worlds_of_the_pw_integration(corpus):
    # prNN-q.json is integrate_pr of prNN's sources, so its worlds are the
    # unions of the compatible pairs of the sources' worlds.
    for case in checked("pr", 50):
        code, out = corpus.run(f"{case}/expand-q/json")
        assert code == EXIT_OK, case
        worlds = integrate_pw(*expanded_sources(corpus, case))
        assert parse_document(json.loads(out)) == worlds, case


def test_a_balanced_integration_has_the_distribution_of_the_pw_integration(corpus):
    # When prNN's sources balance, q's distribution is their pw integration's.
    balanced = 0
    for case in checked("pr", 50):
        sources, _ = corpus.run(f"{case}/check-rs/table")
        if sources != EXIT_OK:
            continue
        code, out = corpus.run(f"{case}/prob/json")
        assert code == EXIT_OK, case
        distribution = parse_document(json.loads(out)["distribution"])
        assert distribution == integrate_pw_prob(*expanded_sources(corpus, case)), case
        balanced += 1
    assert balanced == 22


def test_the_decomposed_pair_reintegrates_to_the_relation(corpus):
    # integrate_pr keeps the second source's formula on a common tuple, and
    # pair 0 may hold q's sources in either order, so one of the pair's two
    # integrations is q, with its constraints in any order and orientation.
    # A pair side takes only the probabilities of its own variables, so q's
    # probabilities of variables that no formula uses are not expected back.
    for case in checked("pr", 50):
        code, out = corpus.run(f"{case}/decompose/json")
        assert code == EXIT_OK, case
        r, s = (parse_document(doc) for doc in json.loads(out)["pairs"][0].values())
        q = document(corpus, f"{case}-q.json")
        expected = reintegration_form(q)
        expected["var_probs"] = {
            name: p for name, p in expected["var_probs"].items() if name in q.names
        }
        got = [reintegration_form(integrate_pr(r, s)), reintegration_form(integrate_pr(s, r))]
        assert expected in got, case


def test_every_case_exits_with_a_code_of_the_documented_table():
    # The table in the cli module's docstring: "Exit codes: 0 ok, 1 failed
    # verdict, ... 7 internal error."  No case may crash into code 7 either.
    table = re.search(r"Exit codes: (.*?)\.  ", cli.__doc__, re.DOTALL)[1]
    codes = {int(code) for code in re.findall(r"(\d+) [a-z]", table)}
    assert codes == set(range(8))
    exits = {line.split()[0]: line.split()[1] for line in golden.run_corpus()}
    documented = {str(code) for code in codes - {EXIT_INTERNAL}}
    assert not {case: code for case, code in exits.items() if code not in documented}
