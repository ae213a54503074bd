"""Report rendering: human text, stable JSON, delimited rows, figures.

The JSON schema is stable across runs: identical inputs produce byte
identical output except for the two clock fields (``timestamp`` and
``wall_time_s``). Figures are PNG bar charts written with the standard
library (``zlib`` and ``struct``); the same report gives the same bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import struct
import time
import zlib
from pathlib import Path

from .replay import ReplayReport
from .script import CONVENTIONS_TEXT

# one colour per verdict, so summary bars are told apart without their order
_VERDICT_COLORS = {
    "ProvedEqual": "#2a7e43",
    "Yes": "#7fbf3f",
    "bound": "#7a7a7a",
    "Unknown": "#c98a00",
    "ProvedDistinct": "#b3262a",
    "No": "#e0604a",
    "error": "#6a1b9a",
}


def render_text(reports: list[ReplayReport]) -> str:
    out = io.StringIO()
    print(f"conventions: {CONVENTIONS_TEXT}", file=out)
    for rep in reports:
        print(file=out)
        print(
            f"== {rep.script}  model {rep.model}  n={rep.n}  "
            f"budget={rep.budget}  window={rep.window}",
            file=out,
        )
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
                "window": rep.window,
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


_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_WHITE = b"\xff\xff\xff"
_AXIS = b"\x00\x00\x00"
_OTHER_COLOR = "#555555"
_MARGIN = 4
_BAR = 6  # thickness of one bar, px
_GAP = 2
_LENGTH = 320  # longest bar, px


def _rgb(color: str) -> bytes:
    return bytes.fromhex(color.lstrip("#"))


def _encode_png(rows: list[bytearray]) -> bytes:
    """8-bit RGB PNG, filter 0 on every row, one IDAT and no ancillary chunks,
    so the same pixels always give the same bytes."""

    def chunk(tag: bytes, data: bytes) -> bytes:
        return struct.pack(">I", len(data)) + tag + data + struct.pack(">I", zlib.crc32(tag + data))

    header = struct.pack(">IIBBBBB", len(rows[0]) // 3, len(rows), 8, 2, 0, 0, 0)
    raw = b"".join(b"\x00" + bytes(row) for row in rows)
    return _PNG_SIGNATURE + chunk(b"IHDR", header) + chunk(b"IDAT", zlib.compress(raw, 9)) + chunk(b"IEND", b"")


def _bar_chart(bars: list[tuple[float, str]], horizontal: bool) -> bytes:
    """One bar per (value, colour), scaled so the largest value spans _LENGTH
    px; every bar is at least 1 px long. Horizontal bars run top to bottom
    from a left axis, vertical bars left to right up from a bottom axis."""
    top = max((v for v, _ in bars), default=0.0) or 1.0
    across = 2 * _MARGIN + max(len(bars) * (_BAR + _GAP) - _GAP, 1)
    along = 2 * _MARGIN + 1 + _LENGTH
    width, height = (along, across) if horizontal else (across, along)
    rows = [bytearray(_WHITE * width) for _ in range(height)]

    def fill(x0: int, y0: int, x1: int, y1: int, rgb: bytes) -> None:
        for y in range(y0, y1):
            rows[y][3 * x0 : 3 * x1] = rgb * (x1 - x0)

    axis = _MARGIN if horizontal else height - 1 - _MARGIN  # 1 px line the bars grow from
    if horizontal:
        fill(axis, 0, axis + 1, height, _AXIS)
    else:
        fill(0, axis, width, axis + 1, _AXIS)
    for i, (value, color) in enumerate(bars):
        length = max(1, round(_LENGTH * value / top))
        lo = _MARGIN + i * (_BAR + _GAP)
        if horizontal:
            fill(axis + 1, lo, axis + 1 + length, lo + _BAR, _rgb(color))
        else:
            fill(lo, axis - length, lo + _BAR, axis, _rgb(color))
    return _encode_png(rows)


def write_figures(reports: list[ReplayReport], outdir: Path) -> list[Path]:
    """Per-script budget/verdict charts plus an overall verdict summary.

    ``<stem>-budget.png`` has one horizontal bar per non-``Let`` statement,
    top to bottom in ``statements.csv`` order, of length proportional to
    ``log10(max(budget_used, 1))`` and coloured by verdict.
    ``verdict-summary.png`` has one vertical bar per verdict, in sorted name
    order, of height proportional to its count. The figures carry no text:
    the labels are the rows of ``statements.csv``.
    """
    written: list[Path] = []
    for rep in reports:
        stem = Path(rep.script).stem + (f"-n{rep.n}" if rep.n > 2 else "")
        asserts = [st for st in rep.statements if st.kind != "Let"]
        if not asserts:
            continue
        bars = [
            (math.log10(max(st.budget_used, 1)), _VERDICT_COLORS.get(st.verdict, _OTHER_COLOR))
            for st in asserts
        ]
        path = outdir / f"{stem}-budget.png"
        path.write_bytes(_bar_chart(bars, horizontal=True))
        written.append(path)

    counts: dict[str, int] = {}
    for rep in reports:
        for st in rep.statements:
            counts[st.verdict] = counts.get(st.verdict, 0) + 1
    bars = [(float(counts[k]), _VERDICT_COLORS.get(k, _OTHER_COLOR)) for k in sorted(counts)]
    path = outdir / "verdict-summary.png"
    path.write_bytes(_bar_chart(bars, horizontal=False))
    written.append(path)
    return written


def write_report_dir(reports: list[ReplayReport], outdir: str | Path) -> list[Path]:
    """JSON + CSV + figures, side by side."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    files = [out / "report.json", out / "statements.csv"]
    (out / "report.json").write_text(render_json(reports), encoding="utf-8")
    write_csv(reports, out / "statements.csv")
    files.extend(write_figures(reports, out))
    return files
