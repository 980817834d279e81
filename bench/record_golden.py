"""Record the golden CLI corpus of the cli_mix workload.

    python3 bench/record_golden.py

Runs every pool query once against the checkout's src/ and writes
bench/golden_cli.json: stdout, the first stderr line and the exit code
of each.  It refuses to write when a query that has an oracle check
fails it, so the corpus never enshrines a wrong answer.  Known-defect
queries are recorded as they behave but are judged by the oracle and the
CLI contract, not by this record.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import cli_corpus  # noqa: E402
from harness import Context  # noqa: E402


def main() -> int:
    ctx = Context(ROOT)
    entries, bad = [], []
    for q in cli_corpus.queries(ctx.tables):
        proc = ctx.child(["-m", "isharp.cli", *q.argv])
        out = proc.stdout.decode("utf-8")
        err = proc.stderr.decode("utf-8")
        if q.defect is None and q.check is not None and not q.check(proc.returncode, out, err):
            bad.append(" ".join(q.argv)[:100])
        entries.append({"argv": list(q.argv), "exit": proc.returncode, "stdout": out,
                        "stderr_first_line": cli_corpus.first_line(err)})
    if bad:
        print("oracle mismatch, not recording:\n  " + "\n  ".join(bad), file=sys.stderr)
        return 1
    path = ROOT / "bench" / cli_corpus.GOLDEN_FILE
    path.write_text(json.dumps({"entries": entries}, indent=1, ensure_ascii=False) + "\n",
                    encoding="utf-8")
    print(f"recorded {len(entries)} queries to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
