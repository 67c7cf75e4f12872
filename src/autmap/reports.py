"""Machine-readable reports: canonical JSON with a stable digest, CSV views.

The digest is the sha256 of the canonical JSON encoding (sorted keys, no
whitespace) of the result payload only; wall time and other run metadata
live in the manifest and never enter the digest, so reruns with the same
seed and version reproduce it bit for bit.  A JSON report is written in the
same canonical encoding, one line, which the C encoder produces.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys

REPORT_SCHEMA_VERSION = 1
ARTIFACT_VERSION = "0.1.0"


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def result_digest(results, table) -> str:
    blob = canonical_json({"results": results, "table": table})
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def build_report(
    command: str,
    results,
    table: list[dict],
    *,
    scope,
    seed: int | None,
    caps: dict,
    wall_time_s: float,
) -> dict:
    digest = result_digest(results, table)
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": command,
        "results": results,
        "table": table,
        "manifest": {
            "command": command,
            "scope": scope,
            "seed": seed,
            "caps": caps,
            "wall_time_s": round(wall_time_s, 3),
            "version": ARTIFACT_VERSION,
            "digest": digest,
        },
    }


def write_report(report: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = canonical_json(report) + "\n"
    elif fmt == "csv":
        text = _csv_text(report["table"])
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out is None:
        sys.stdout.write(text)
        sys.stdout.flush()  # a write error surfaces here, not at exit
    else:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def _csv_text(table: list[dict]) -> str:
    buf = io.StringIO()
    fields = sorted({k for row in table for k in row})
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in table:
        writer.writerow(row)
    return buf.getvalue()
