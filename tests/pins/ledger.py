"""Per-property ledgers of the pinned suite runs.

A ledger has one line per property, in the order the properties first
report: its pass, fail and skipped counts, its skips counted by the head
of their reason (the text before the first colon), and a sha256 prefix
of its report lines.  The whole-run digests in ``tests/test_suite.py``
say that a run moved; its ledger says which property moved it.

The runs are the pinned scopes of ``run_suite`` and the benchmark's
seed-0 ``sweep`` of 720 five-element posets.  After a change meant to
move reports, rewrite every ledger with

    PYTHONPATH=src python3 tests/pins/ledger.py
"""

from __future__ import annotations

import hashlib
import importlib.util
from collections import Counter
from collections.abc import Iterable
from pathlib import Path

from smyth.report import FAIL, PASS, SKIPPED, CheckReport

HERE = Path(__file__).resolve().parent
BENCH = HERE.parents[1] / "bench"
SCOPES = ("fixtures", "exhaustive-4", "exhaustive-5", "random:60:9:2024")
SWEEP = "sweep:0:720"


def bench_workloads():
    """``bench/workloads.py``, imported from its file."""
    spec = importlib.util.spec_from_file_location(
        "suite_bench_workloads", BENCH / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def sweep_outputs(workloads) -> list[list[CheckReport]]:
    """The reports of the benchmark's seed-0 ``sweep``, a list per poset."""
    return [workloads.sweep_operation(poset) for poset in workloads.sweep_setup(0, 20)]


def ledger_lines(reports: Iterable[CheckReport]) -> list[str]:
    """One line per property of ``reports``, in the order the
    properties first report."""
    groups: dict[str, list[CheckReport]] = {}
    for report in reports:
        groups.setdefault(report.property, []).append(report)
    lines = []
    for name, group in groups.items():
        verdicts = Counter(report.verdict for report in group)
        heads = Counter(report.reason.split(":", 1)[0]
                        for report in group if report.verdict == SKIPPED)
        skips = ", ".join(f"{head} {count}" for head, count in sorted(heads.items()))
        text = "\n".join(report.to_json() for report in group)
        lines.append(
            f"{name}: {verdicts[PASS]} pass, {verdicts[FAIL]} fail, "
            f"{verdicts[SKIPPED]} skipped; skipped by reason: {skips or 'none'}; "
            f"lines {hashlib.sha256(text.encode()).hexdigest()[:16]}")
    return lines


def ledger_path(run: str) -> Path:
    return HERE / (run.replace(":", "-") + ".txt")


def moved(pinned: list[str], lines: list[str]) -> list[str]:
    """The properties whose line differs between two ledgers."""
    old, new = (dict(line.split(": ", 1) for line in ledger) for ledger in (pinned, lines))
    return [name for name in dict.fromkeys([*old, *new]) if old.get(name) != new.get(name)]


def main() -> None:
    from smyth import run_suite

    for run in (*SCOPES, SWEEP):
        if run == SWEEP:
            reports = [report for batch in sweep_outputs(bench_workloads())
                       for report in batch]
        else:
            reports = run_suite(run)
        ledger_path(run).write_text("\n".join(ledger_lines(reports)) + "\n")
        print(f"wrote {ledger_path(run).name}")


if __name__ == "__main__":
    main()
