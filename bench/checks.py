"""Correctness checks on every operation's report.

Fixed outputs (verify-theorem, psl2 witnesses) are checked by their
report digest against the reference in expected.json.  Search results are
checked by meaning, because a better searcher may visit other nodes and find
another first mapping: every resolved status must agree with Hall-Paige and
every inline mapping is re-verified against the group's own table.  Wreath
witnesses depend on the seed and are checked by their verified flags.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

EXIT_OK = 0
EXIT_CAP_EXCEEDED = 4


@dataclass
class Outcome:
    """What one operation produced: rows with a resolved verdict or witness,
    whether it failed (did not resolve), and any sign of a wrong output."""

    resolved: int = 0
    failed: bool = False
    problems: list[str] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)


def payload_digest(report: dict) -> str:
    """sha256 of the canonical JSON of results and table, computed here
    rather than by the program so that a wrong stored digest shows."""
    blob = json.dumps(
        {"results": report["results"], "table": report["table"]},
        sort_keys=True, separators=(",", ":"), ensure_ascii=True,
    )
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def report_net_bytes(text: str) -> int:
    """Size of a JSON report less the digits of its wall time, the one part
    that differs between runs of the same operation."""
    wall = json.loads(text)["manifest"]["wall_time_s"]
    return len(text) - len(json.dumps(wall))


class Checker:
    """Checks reports against the pinned digests; builds each search group
    once (outside every timed region) to re-verify mappings."""

    def __init__(self, digests: dict[str, str]):
        self.digests = digests
        self._groups: dict[str, object] = {}

    def check(self, op: dict, code: int, report: dict | None) -> Outcome:
        out = Outcome()
        if report is None:
            out.failed = True
            out.problems.append(f"{op['key']}: exit {code} and no report")
            return out
        digest = report.get("manifest", {}).get("digest")
        if digest != payload_digest(report):
            out.problems.append(f"{op['key']}: stored digest does not match the report")
        if op["pinned"]:
            want = self.digests.get(op["key"])
            if want is None:
                out.problems.append(f"{op['key']}: no reference digest in expected.json")
            elif digest != want:
                out.problems.append(f"{op['key']}: digest {digest} != reference {want}")
        command = op["argv"][0]
        if command == "mappings":
            self._check_search(op, code, report, out)
        else:
            if code != EXIT_OK:
                out.failed = True
                out.problems.append(f"{op['key']}: exit {code}")
            getattr(self, "_check_" + command.replace("-", "_"))(op, report, out)
        return out

    def _check_verify_theorem(self, op, report, out):
        results = report["results"]
        if not results.get("theorem_consistent") or not all(
            g.get("all_fail", True) and "error" not in g for g in results["groups"]
        ):
            out.problems.append(f"{op['key']}: a group is not certified")
        out.resolved = len(report["table"])
        out.counters["automorphisms.aut_total"] = sum(g.get("aut_size", 0) for g in results["groups"])
        out.counters["completeness.checks"] = len(report["table"])

    def _check_witness(self, op, report, out):
        results = report["results"]
        ok = results.get("verified") is True
        if results.get("kind") == "wreath":
            ok = ok and results.get("eq2_holds") is True
        if not ok:
            out.problems.append(f"{op['key']}: witness not verified")
        out.resolved = sum(1 for row in report["table"] if row.get("verified") is True)

    def _check_search(self, op, code, report, out):
        # imported here, so that run.py can report a checkout without sources
        from autmap.parser import elaborate_text

        results = report["results"]
        name = op["argv"][op["argv"].index("--group") + 1]
        if name not in self._groups:
            self._groups[name] = elaborate_text(name)
        G = self._groups[name]
        predicted = hall_paige_predicts_existence(G)
        if results.get("hall_paige_predicts_existence") != predicted:
            out.problems.append(f"{op['key']}: reported Hall-Paige prediction is wrong")
        indeterminate = False
        for kind in ("complete", "orthomorphism"):
            cert = results[kind]
            out.counters[f"nodes.{kind}"] = cert["nodes"]
            status = cert["status"]
            if status == "indeterminate":
                indeterminate = True
                continue
            if (status == "exists") != predicted or status not in ("exists", "nonexistent"):
                out.problems.append(f"{op['key']}: {kind} {status} contradicts Hall-Paige")
                continue
            if status == "exists":
                problem = _mapping_problem(G, kind, cert.get("mapping"))
                if problem:
                    out.problems.append(f"{op['key']}: {kind} mapping {problem}")
                    continue
            out.resolved += 1
        out.failed = indeterminate
        if code != (EXIT_CAP_EXCEEDED if indeterminate else EXIT_OK):
            out.failed = True
            out.problems.append(f"{op['key']}: exit {code} does not fit the statuses")


def hall_paige_predicts_existence(G) -> bool:
    """Complete mappings exist iff the Sylow 2-subgroup is trivial or
    noncyclic (Hall-Paige; Wilcox, Evans, Bray).  It is cyclic iff some
    element's order is divisible by the 2-part of |G|.  Computed here from
    the table, independently of the program's own oracle."""
    two = G.n & -G.n
    T = G.table
    idx = np.arange(G.n)
    cur, order = idx.copy(), np.zeros(G.n, dtype=np.int64)
    for k in range(1, G.n + 1):
        order[(cur == 0) & (order == 0)] = k
        cur = T[cur, idx]
    return two == 1 or not np.any(order % two == 0)


def _mapping_problem(G, kind: str, mapping) -> str | None:
    """Why `mapping` is not a complete mapping (or orthomorphism) of G."""
    n = G.n
    if not isinstance(mapping, list) or sorted(mapping) != list(range(n)):
        return "is not a bijection"
    T = G.table
    f = np.array(mapping, dtype=np.int64)
    left = np.arange(n) if kind == "complete" else G.inv
    if len(np.unique(T[left, f])) != n:
        return "has a non-bijective defining product"
    return None
