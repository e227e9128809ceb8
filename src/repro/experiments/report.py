"""Generate a markdown reproduction report from live experiment runs.

``greedwork report -o REPORT.md`` runs every registered experiment and
writes a self-contained markdown document: verdict, claim, the
regenerated tables and charts in fenced blocks, headline numbers, and
caveats — the executable counterpart of ``EXPERIMENTS.md``.  The
document depends only on the code, the mode and the seed, so a fresh
report compares line for line with a committed one; the elapsed time
goes to the "wrote" line instead.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro.experiments.base import ExperimentReport, Table
from repro.experiments.registry import all_experiments, run_experiments


def render_markdown(reports: Sequence[ExperimentReport],
                    fast: bool, seed: int) -> str:
    """Render experiment reports as a standalone markdown document."""
    n_passed = sum(1 for r in reports if r.passed)
    lines: List[str] = [
        "# Reproduction report",
        "",
        f"Mode: {'fast' if fast else 'full'}; seed {seed}; "
        f"{n_passed}/{len(reports)} experiments passed.",
        "",
        "| experiment | verdict | claim |",
        "|---|---|---|",
    ]
    for report in reports:
        verdict = "PASS" if report.passed else "**FAIL**"
        lines.append(
            f"| `{report.experiment_id}` | {verdict} | {report.claim} |")
    lines.append("")
    for report in reports:
        verdict = "PASS" if report.passed else "FAIL"
        lines.append(f"## {report.experiment_id} — {verdict}")
        lines.append("")
        lines.append(report.claim + ".")
        lines.append("")
        for table in report.tables:
            lines.append("```")
            lines.append(table.render())
            lines.append("```")
            lines.append("")
        for chart in report.charts:
            lines.append("```")
            lines.append(chart)
            lines.append("```")
            lines.append("")
        if report.summary:
            lines.append("Headline numbers:")
            lines.append("")
            for key, value in report.summary.items():
                lines.append(f"* `{key}` = {Table._format(value)}")
            lines.append("")
        for note in report.notes:
            lines.append(f"> {note}")
            lines.append("")
    return "\n".join(lines)


def generate_report(output_path: str, fast: bool = True, seed: int = 0,
                    experiment_ids: Optional[Sequence[str]] = None,
                    jobs: int = 1, echo=print) -> int:
    """Run experiments and write the markdown report.

    ``jobs > 1`` runs the experiments across a process pool (the
    report content is unchanged — experiments are deterministic in
    ``seed``).  Returns the number of failed experiments (0 = green).
    """
    ids = list(experiment_ids) if experiment_ids else all_experiments()
    started = time.monotonic()
    for experiment_id in ids:
        echo(f"running {experiment_id} ...")
    reports: List[ExperimentReport] = run_experiments(
        ids, seed=seed, fast=fast, jobs=jobs)
    elapsed = time.monotonic() - started
    document = render_markdown(reports, fast=fast, seed=seed)
    with open(output_path, "w") as handle:
        handle.write(document)
    failures = sum(1 for r in reports if not r.passed)
    echo(f"wrote {output_path}: {len(reports) - failures}/{len(reports)} "
         f"passed in {elapsed:.0f}s")
    return failures
