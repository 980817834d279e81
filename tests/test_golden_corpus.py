"""Replay of the benchmark's golden CLI corpus.

The cli_mix workload judges each of its 50 queries by the golden record
in bench/golden_cli.json and by an oracle check that does not read
isharp.  Here every query runs in process through cli.main and is judged
by the same function, bench/cli_corpus.judge, so a change whose output
the benchmark would count as incorrect fails tier-1 too.  The
known-defect queries are judged by their checks, not by their recorded
lines, as the benchmark does.  The bench files are read, never written.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from isharp import cli, datasets

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import cli_corpus  # noqa: E402
import oracle  # noqa: E402

QUERIES = cli_corpus.queries(oracle.load_tables(datasets.BUNDLED_PATH))
GOLDEN = cli_corpus.load_golden(BENCH / cli_corpus.GOLDEN_FILE)


@pytest.mark.parametrize("q", QUERIES, ids=lambda q: " ".join(q.argv)[:60])
def test_golden_query(q):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(q.argv))
        except SystemExit as e:  # argparse: 2 on a usage error
            code = e.code
    assert cli_corpus.judge(q, GOLDEN, code, out.getvalue(), err.getvalue()) is None
