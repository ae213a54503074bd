"""Report rendering: human text, stable JSON, delimited rows.

The JSON schema is stable across runs: identical inputs produce byte
identical output except for the two clock fields (``timestamp`` and
``wall_time_s``).
"""

from __future__ import annotations

import io
import json
import time
from pathlib import Path

from .replay import ReplayReport
from .script import CONVENTIONS_TEXT


def render_text(reports: list[ReplayReport]) -> str:
    out = io.StringIO()
    print(f"conventions: {CONVENTIONS_TEXT}", file=out)
    for rep in reports:
        print(file=out)
        print(f"== {rep.script}  model {rep.model}  n={rep.n}  budget={rep.budget}", file=out)
        for st in rep.statements:
            mark = "ok  " if st.ok else "FAIL"
            oracle = f"  oracle={st.oracle}" if st.oracle else ""
            budget = f"  budget={st.budget_used}" if st.budget_used else ""
            print(f"  [{st.line:4}] {mark} {st.verdict:<14} {st.statement}{oracle}{budget}", file=out)
            if st.witness and not st.ok:
                print(f"         witness: {st.witness}", file=out)
        if rep.unknowns:
            lines = ", ".join(str(s.line) for s in rep.unknowns)
            print(f"  unknown verdicts at lines: {lines} (not assumed; see oracle column)", file=out)
        verdictline = "PASS" if rep.passed else f"FAIL ({len(rep.failures)} failing statements)"
        print(f"  RESULT {verdictline}  ({len(rep.statements)} statements, {rep.wall_s:.2f} s)", file=out)
    overall = all(r.passed for r in reports)
    print(file=out)
    print(f"OVERALL {'PASS' if overall else 'FAIL'}", file=out)
    return out.getvalue()


def report_json(reports: list[ReplayReport]) -> dict:
    return {
        "conventions": CONVENTIONS_TEXT,
        "result": "PASS" if all(r.passed for r in reports) else "FAIL",
        "scripts": [
            {
                "script": rep.script,
                "model": rep.model,
                "n": rep.n,
                "budget": rep.budget,
                "result": "PASS" if rep.passed else "FAIL",
                "statements": [st.json_fields() for st in rep.statements],
            }
            for rep in reports
        ],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "wall_time_s": round(sum(r.wall_s for r in reports), 3),
    }


def render_json(reports: list[ReplayReport]) -> str:
    return json.dumps(report_json(reports), indent=2, sort_keys=True) + "\n"


def write_csv(reports: list[ReplayReport], path: Path) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["script", "n", "index", "line", "kind", "verdict", "ok", "budget_used", "oracle", "statement"]
        )
        for rep in reports:
            for st in rep.statements:
                writer.writerow(
                    [
                        rep.script,
                        rep.n,
                        st.index,
                        st.line,
                        st.kind,
                        st.verdict,
                        int(st.ok),
                        st.budget_used,
                        st.oracle,
                        st.statement,
                    ]
                )


def write_report_dir(reports: list[ReplayReport], outdir: str | Path) -> list[Path]:
    """JSON and CSV, side by side."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    files = [out / "report.json", out / "statements.csv"]
    (out / "report.json").write_text(render_json(reports), encoding="utf-8")
    write_csv(reports, out / "statements.csv")
    return files
