"""isharp verify [TARGET]: re-derive the table cells and cross-checks; a
failed cell exits 3 after the report."""

from .values import IntegrityError
from .verify import verify_target


def run(args, ds, emit):
    report = verify_target(args.target, ds)
    # --pretty prints the report's own text, which pretty() leaves as is
    emit(report.pretty() if args.pretty else report.to_json(), args.pretty)
    if report.failed:
        raise IntegrityError(f"{len(report.failed)} of {len(report.cells)} cells failed")
