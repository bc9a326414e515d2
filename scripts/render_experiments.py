#!/usr/bin/env python
"""Render EXPERIMENTS.md from EXPERIMENTS.md.tpl + results/*.json.

Keeps the measured numbers in EXPERIMENTS.md in sync with the last
benchmark run: each ``{{Tn}}`` placeholder is replaced by the formatted
table stored by that harness's ``ExperimentResult.save()``.
"""
import json
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.experiments.common import ExperimentResult  # noqa: E402


def load(table: str) -> str:
    path = ROOT / "results" / f"{table.lower()}.json"
    if not path.exists():
        return f"(no results for {table} — run python -m repro.experiments {table.lower()})"
    d = json.loads(path.read_text())
    return ExperimentResult(d["table"], d["title"], d["rows"], d["notes"]).format()


def main() -> None:
    tpl = (ROOT / "EXPERIMENTS.md.tpl").read_text()
    out = re.sub(r"\{\{(T\d+)\}\}", lambda m: load(m.group(1)), tpl)
    (ROOT / "EXPERIMENTS.md").write_text(out)
    print("wrote", ROOT / "EXPERIMENTS.md")


if __name__ == "__main__":
    main()
