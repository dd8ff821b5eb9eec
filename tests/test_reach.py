"""The golden corpus's reach report stays as committed, with a reason on every entry."""

import importlib.util
import subprocess
import sys
import textwrap
from collections import Counter

import reach


def test_reach_report_matches_the_committed_file():
    run = subprocess.run(
        [sys.executable, reach.__file__],
        capture_output=True, text=True, check=True,
    )
    found = reach.problems(reach.REPORT.read_text(encoding="utf-8"), run.stdout)
    assert not found, (
        "; ".join(found) + ". Settle each new entry: reach it with a golden case, move "
        "it out of src/, or give it a reason in `PYTHONPATH=src python tests/reach.py "
        "--write`'s output."
    )


def test_report_lists_the_unreached_branch_and_wants_a_reason(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(textwrap.dedent('''\
        def sign(x):
            """The sign of x."""
            if x < 0:
                return -1
            return 1


        def unused():
            return 0
    '''))
    spec = importlib.util.spec_from_file_location("sample", path)
    sample = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sample)
    with reach.tracing({str(path)}, Counter()) as counts:
        sample.sign(1)
    text = reach.report([path], counts, {})
    assert text.splitlines()[len(reach.HEADER):] == [
        "",
        "sample.py",
        "  sign:",
        "    return -1",
        "  unused:",
        "    (never entered: 1 statement)",
    ]
    assert reach.problems(text, text) == ["sample.py sign: no reason", "sample.py unused: no reason"]
    explained = reach.report([path], counts, {"sample.py sign": "a", "sample.py unused": "b"})
    assert reach.problems(explained, explained) == []
    assert reach.problems(explained, text) == [
        "the report differs from reach.txt at line 6",
        "sample.py sign: no reason",
        "sample.py unused: no reason",
    ]
