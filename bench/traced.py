"""Traced pass: a workload's operations run in-process through the CLI's own
code, with a span around each call into a layer of autmap.

    python3 bench/traced.py OPS_JSON OUT_JSON

OPS_JSON holds the operations (see workloads.py); OUT_JSON receives the
spans, the self time per layer, the work counters and each operation's exit
code and report size.  Run it in a fresh interpreter with autmap importable.

Each operation is `autmap.cli.main(argv)` at --jobs 1 (spans nest on one
thread).  The layer functions that autmap.cli imports are replaced by
wrappers that open a span and call the real function, so the traced pass
does exactly what the CLI does.  The cached catalog_group/catalog_aut are
replaced by per-operation caches over the wrapped elaborate_text and
compute_aut, and the program's in-process caches are emptied before each
operation, as a fresh CLI process would start.

Spans marked `probe` repeat work only to time it: a second construction of
every automorphism (validation), a rebuild of AutGroup from the validated
list, and the searcher's abelianization.  They are left out of the traced
total, so that trace overhead is not inflated by them.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from autmap import cli, witnesses
from autmap.automorphisms import (
    BRUTE_CAP,
    AutGroup,
    Automorphism,
    compute_aut,
    inner_automorphism,
)
from autmap.catalog import get_entry
from autmap.completeness import is_k_complete
from autmap.fields import field_for
from autmap.groups import build_psl2
from autmap.mappings import INDETERMINATE, find_complete_mapping, find_orthomorphism
from autmap.parser import Atom, elaborate_text, parse_group_expr
from autmap.reports import build_report, write_report
from autmap.structure import derived_subgroup, full_subgroup, is_solvable, quotient
from autmap.witnesses import WreathAut, find_inverted_witness, psl2_witness

from checks import report_net_bytes

FIELD_KINDS = ("SL2", "PSL2", "PGL2")


class Tracer:
    """Spans and counters kept in memory until the pass ends.

    A span is [name, op, parent index or -1, probe, start, end].
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, int]] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: str, probe: bool = False):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        rec = [name, op, parent, probe, time.perf_counter(), 0.0]
        self.spans.append(rec)
        self._open.append(idx)
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._open.pop()

    def count(self, op: str, name: str, k: int = 1) -> None:
        per_op = self.counts.setdefault(op, {})
        per_op[name] = per_op.get(name, 0) + k

    def summary(self) -> dict:
        """Self time per layer: a span's duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for name, op, parent, probe, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = {}
        traced_s = probe_s = 0.0
        for i, (name, op, parent, probe, start, end) in enumerate(self.spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            if probe:
                probe_s += end - start
            elif parent < 0:
                traced_s += end - start
        totals: dict[str, int] = {}
        for per_op in self.counts.values():
            for name, k in per_op.items():
                totals[name] = totals.get(name, 0) + k
        return {
            "self_s": self_s,
            "traced_s": traced_s - probe_s,
            "probe_s": probe_s,
            "counts": totals,
            "counts_by_op": self.counts,
        }


def _reset_process_caches() -> None:
    """Empty what a fresh CLI process would not have: the field cache and the
    witness module's id()-keyed dicts (looked up by name, as later versions
    may drop them)."""
    field_for.cache_clear()
    for name in ("_simple_cache", "_product_cache", "_inner_mat_cache"):
        cache = getattr(witnesses, name, None)
        if isinstance(cache, dict):
            cache.clear()


def _field_orders(expr) -> list[int]:
    if isinstance(expr, Atom):
        return [expr.param] if expr.name in FIELD_KINDS else []
    return _field_orders(expr.left) + _field_orders(expr.right)


def _aut_strategy(G, strategy: str) -> str:
    """The strategy compute_aut resolves "auto" to."""
    if strategy != "auto":
        return strategy
    if G.kind == "PSL2":
        return "psl2_structured"
    return "brute" if G.n <= BRUTE_CAP else "product"


class Layers:
    """Span-recording stand-ins for the layer functions autmap.cli calls.
    `op` is the id of the operation running."""

    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self.op = ""
        self._groups: dict = {}
        self._auts: dict = {}

    def begin(self, op: str) -> None:
        self.op = op
        self._groups.clear()
        self._auts.clear()
        _reset_process_caches()

    def install(self) -> None:
        for name in ("elaborate_text", "compute_aut", "is_solvable", "is_k_complete",
                     "find_complete_mapping", "find_orthomorphism", "psl2_witness",
                     "WreathAut", "find_inverted_witness", "build_report", "write_report",
                     "catalog_group", "catalog_aut"):
            setattr(cli, name, getattr(self, name))
        # psl2_witness builds its group itself, not through elaborate_text
        witnesses.build_psl2 = self.build_psl2

    def span(self, name: str, probe: bool = False):
        return self.tr.span(name, self.op, probe)

    def _field_for(self, q: int) -> None:
        with self.span("fields.field_for"):
            field_for(q)

    def elaborate_text(self, text, size_cap=None):
        for q in _field_orders(parse_group_expr(text)):
            self._field_for(q)
        with self.span("groups.build"):
            G = elaborate_text(text, size_cap)
        self.tr.count(self.op, "groups.table_bytes", G.n * G.n * 4)
        return G

    def build_psl2(self, q):
        with self.span("groups.build"):
            G = build_psl2(q)
        self.tr.count(self.op, "groups.table_bytes", G.n * G.n * 4)
        return G

    def catalog_group(self, name):
        if name not in self._groups:
            self._groups[name] = self.elaborate_text(get_entry(name).expr)
        return self._groups[name]

    def catalog_aut(self, name):
        if name not in self._auts:
            G = self.catalog_group(name)
            self._auts[name] = self.compute_aut(G, "psl2_structured" if G.kind == "PSL2" else "brute")
        return self._auts[name]

    def compute_aut(self, G, strategy="auto"):
        with self.span("automorphisms." + _aut_strategy(G, strategy)):
            aut = compute_aut(G, strategy)
        self.tr.count(self.op, "automorphisms.aut_total", len(aut.all))
        with self.span("automorphisms.validate", probe=True):
            for a in aut.all:
                Automorphism(G, a.images, a.provenance)
            for g in range(G.n):
                inner_automorphism(G, g)
        self.tr.count(self.op, "automorphisms.validated", len(aut.all) + G.n)
        with self.span("automorphisms.autgroup", probe=True):
            AutGroup(G, aut.all)
        return aut

    def is_solvable(self, G):
        with self.span("structure.is_solvable"):
            return is_solvable(G)

    def is_k_complete(self, alpha, k):
        with self.span("completeness.scan"):
            v = is_k_complete(alpha, k)
        self.tr.count(self.op, "completeness.checks")
        return v

    def _search(self, kind, find, G):
        with self.span("structure.abelianization", probe=True):
            quotient(G, derived_subgroup(G, full_subgroup(G)))
        with self.span("mappings.search"):
            cert = find(G)
        self.tr.count(self.op, "mappings.nodes", cert.nodes)
        self.tr.count(self.op, "mappings.unresolved", int(cert.status == INDETERMINATE))
        self.tr.count(self.op, "nodes." + kind, cert.nodes)
        return cert

    def find_complete_mapping(self, G):
        return self._search("complete", find_complete_mapping, G)

    def find_orthomorphism(self, G):
        return self._search("orthomorphism", find_orthomorphism, G)

    def psl2_witness(self, q, i, variant, group=None):
        self._field_for(q)
        with self.span("witnesses.psl2"):
            wit = psl2_witness(q, i, variant, group)
        with self.span("automorphisms.validate", probe=True):
            Automorphism(wit.group, wit.coset_rep.images, wit.coset_rep.provenance)
        self.tr.count(self.op, "automorphisms.validated")
        return wit

    def WreathAut(self, *args, **kwargs):  # noqa: N802 - stands in for the class
        with self.span("witnesses.wreath"):
            return WreathAut(*args, **kwargs)

    def find_inverted_witness(self, w):
        with self.span("witnesses.find_inverted"):
            return find_inverted_witness(w)

    def build_report(self, *args, **kwargs):
        with self.span("reports.encode"):
            return build_report(*args, **kwargs)

    def write_report(self, report, fmt, out):
        with self.span("reports.encode"):
            write_report(report, fmt, out)


def main(argv: list[str]) -> int:
    ops_path, out_path = argv
    ops = json.loads(Path(ops_path).read_text())
    tracer = Tracer()
    layers = Layers(tracer)
    layers.install()
    reports: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(dir=Path(out_path).parent) as tmp:
        path = Path(tmp) / "report.json"
        for op in ops:
            key = op["key"]
            path.unlink(missing_ok=True)
            layers.begin(key)
            with tracer.span("op", key):
                code = cli.main(op["argv"] + ["--jobs", "1", "--out", str(path)])
            text = path.read_text() if path.exists() else None
            if text is not None:
                tracer.count(key, "reports.bytes", len(text))
            reports[key] = {"code": code, "net_bytes": report_net_bytes(text) if text else None}
    out = tracer.summary()
    out["reports"] = reports
    out["spans"] = tracer.spans
    Path(out_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
