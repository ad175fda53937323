"""Eval-report JSON writer used only by the tests.

The pipeline writes eval reports through the CLI; this standalone writer of
one EvalReport has no production caller and is kept for the report
round-trip tests.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from rodd.metrics import EvalReport


def write_report_json(path, report: EvalReport) -> None:
    Path(path).write_text(json.dumps(asdict(report), indent=2) + "\n", encoding="utf-8")
