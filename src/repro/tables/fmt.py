"""Markdown-ish table formatting for the tables CLI and EXPERIMENTS.md."""
from __future__ import annotations


def format_rows(title: str, rows: list[dict]) -> str:
    """Render a list of homogeneous dicts as a markdown table."""
    if not rows:
        return f"## {title}\n(no rows)\n"
    cols = list(rows[0].keys())
    head = "| " + " | ".join(cols) + " |"
    sep = "|" + "|".join("---" for _ in cols) + "|"
    body = "\n".join(
        "| " + " | ".join(_cell(r.get(c)) for c in cols) + " |" for r in rows
    )
    return f"## {title}\n\n{head}\n{sep}\n{body}\n"


def _cell(v: object) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        if v != 0 and (abs(v) < 0.01 or abs(v) >= 1e6):
            return f"{v:.2e}"
        return f"{v:.2f}"
    return str(v)
