"""Deterministic report documents for the command layer.

Reports are plain dicts with a stable field order; the digest covers the
canonical JSON form without the timing and trace fields, so identical inputs
give byte-identical reports apart from what those two fields measure.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any


def jsonable(value: Any) -> Any:
    """Recursively convert package values into JSON-safe structures."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((jsonable(v) for v in value), key=repr)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "serialize"):
        return jsonable(value.serialize())
    return repr(value)


def canonical_json(payload: Any) -> str:
    return json.dumps(jsonable(payload), sort_keys=True, separators=(",", ":"))


def build_report(command: str, instance_digest: str | None, results: dict, witnesses: dict | None = None, trace: dict | None = None) -> dict:
    body = {
        "command": command,
        "instance_digest": instance_digest,
        "results": jsonable(results),
        "witnesses": jsonable(witnesses or {}),
    }
    body["report_digest"] = hashlib.sha256(canonical_json(body).encode()).hexdigest()
    if trace is not None:
        body["trace"] = jsonable(trace)
    return body


def render_text(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    if report.get("instance_digest"):
        lines.append(f"instance: {report['instance_digest'][:16]}")
    for key, value in report["results"].items():
        lines.append(f"{key}: {_compact(value)}")
    if report.get("witnesses"):
        lines.append("witnesses:")
        for key, value in report["witnesses"].items():
            lines.append(f"  {key}: {_compact(value)}")
    if report.get("trace"):
        lines.append(f"trace: {_compact(report['trace'])}")
    lines.append(f"digest: {report['report_digest'][:16]}")
    return "\n".join(lines)


def _compact(value: Any) -> str:
    if isinstance(value, (dict, list)):
        return json.dumps(value, separators=(", ", ": "))
    return str(value)
