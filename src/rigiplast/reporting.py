"""Deterministic artifact emission: CSV metrics and JSON summaries.

Floats are written with Python's shortest round-trip repr and JSON keys are
sorted, so byte-identical reruns are a testable contract (single-threaded).
The summary schema is versioned; golden tests pin headers and key sets.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import numpy as np

SCHEMA_VERSION = "rigiplast-summary-v2"


def _cell(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):  # before int: a CSV cell is most often a float
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def write_csv(path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(_cell(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def write_json(path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )


def config_echo(config) -> dict:
    out = {}
    for f in fields(config):
        val = getattr(config, f.name)
        if isinstance(val, tuple):
            val = list(val)
        out[f.name] = val
    return out


def summary_payload(command: str, config, body: dict) -> dict:
    return {"schema": SCHEMA_VERSION, "command": command,
            "config": config_echo(config), **body}
