"""Machine-readable reports: canonical JSON with a stable digest, CSV views.

The digest is the sha256 of the canonical JSON encoding (sorted keys, no
whitespace) of the result payload only; wall time and other run metadata
live in the manifest and never enter the digest, so reruns with the same
seed and version reproduce it bit for bit.  A JSON report is written in the
same canonical encoding, one line.  The C encoder encodes the results once
and the table once, a row at a time; the digest hashes those pieces and the
writer writes them, so the payload is neither encoded twice nor copied whole.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys

REPORT_SCHEMA_VERSION = 1
ARTIFACT_VERSION = "0.1.0"


# one encoder for every call: json.dumps would build one per call, which is
# most of the cost of encoding a table a row at a time
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def canonical_json(payload) -> str:
    return _CANONICAL.encode(payload)


class Report(dict):
    """A report, which also holds its results and table as canonical JSON
    pieces, the table one piece per row: the digest hashes those pieces and
    ``write_report`` writes them, so the payload is encoded once.  A report
    is not edited once built (its digest would no longer match)."""

    __slots__ = ("encoded",)


def _encode_payload(results, table) -> dict[str, list[str]]:
    """Canonical JSON of the results, and of the table a row at a time with
    its brackets and commas as pieces of their own."""
    rows = ["["]
    for i, row in enumerate(table):
        if i:
            rows.append(",")
        rows.append(canonical_json(row))
    rows.append("]")
    return {"results": [canonical_json(results)], "table": rows}


def _json_pieces(payload: dict, encoded: dict[str, list[str]]):
    """``canonical_json(payload)`` in pieces, taking the value of each key
    in ``encoded`` from there."""
    sep = "{"
    for key in sorted(payload):
        yield f"{sep}{canonical_json(key)}:"
        sep = ","
        yield from encoded[key] if key in encoded else (canonical_json(payload[key]),)
    yield "}"


def _digest(encoded: dict[str, list[str]]) -> str:
    h = hashlib.sha256()
    for piece in _json_pieces(encoded, encoded):
        h.update(piece.encode("ascii"))
    return h.hexdigest()


def result_digest(results, table) -> str:
    return _digest(_encode_payload(results, table))


def build_report(
    command: str,
    results,
    table: list[dict],
    *,
    scope,
    seed: int | None,
    caps: dict,
    wall_time_s: float,
) -> Report:
    encoded = _encode_payload(results, table)
    report = Report({
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
            "digest": _digest(encoded),
        },
    })
    report.encoded = encoded
    return report


def write_report(report: dict, fmt: str, out: str | None) -> None:
    """Write ``report`` as one line of canonical JSON, or its table as CSV.
    A ``Report``'s encoded pieces are written as they are."""
    if fmt == "json":
        encoded = report.encoded if isinstance(report, Report) else {}
        pieces = [*_json_pieces(report, encoded), "\n"]
    elif fmt == "csv":
        pieces = [_csv_text(report["table"])]
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out is None:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()  # a write error surfaces here, not at exit
    else:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.writelines(pieces)


def _csv_text(table: list[dict]) -> str:
    buf = io.StringIO()
    fields = sorted({k for row in table for k in row})
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in table:
        writer.writerow(row)
    return buf.getvalue()
