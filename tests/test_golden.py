"""The command line's outputs stay byte-identical to the committed digests."""

import golden


def test_cli_outputs_match_the_committed_digests():
    expected = golden.DIGESTS.read_text(encoding="utf-8").splitlines()
    actual = golden.run_corpus()
    report = golden.differences(expected, actual)
    assert not report, (
        f"{len(report)} of {len(actual)} cases differ from {golden.DIGESTS.name}; "
        "first: " + report[0] + ". An intended change regenerates the file with "
        "`PYTHONPATH=src python tests/golden.py --write`."
    )


def test_case_ids_are_unique():
    ids = [case for case, _ in golden.corpus()[1]]
    assert len(ids) == len(set(ids))


def test_differences_name_the_case_and_the_first_stream():
    expected = ["a 0 1 2 -", "b 0 1 2 -", "c 2 - - -"]
    actual = ["a 0 1 2 -", "b 0 1 9 -", "d 0 - - -"]
    assert golden.differences(expected, actual) == [
        "b: stderr differs",
        "c: missing from the run",
        "d: not in golden_digests.txt",
    ]


def test_no_command_hashes_a_formula(monkeypatch):
    # Commands match formulas by text and share nodes by id: with every node
    # class's __hash__ raising, the corpus still gives its digests.
    from udbi.logic import Binary, Const, Not, Variable

    hashed = []

    def refuse(node):
        hashed.append(type(node).__name__)
        raise RuntimeError("a formula was hashed")

    for kind in (Variable, Const, Not, Binary):
        monkeypatch.setattr(kind, "__hash__", refuse)
    expected = golden.DIGESTS.read_text(encoding="utf-8").splitlines()
    report = golden.differences(expected, golden.run_corpus())
    assert not hashed and not report, f"{len(report)} cases differ; first: {report[:1]}"
