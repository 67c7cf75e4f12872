"""Tests of the benchmark's own checks.  Run with

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from autmap.cli import main as autmap_main  # noqa: E402
from autmap.mappings import hall_paige_predict  # noqa: E402
from autmap.parser import elaborate_text  # noqa: E402
from checks import (  # noqa: E402
    Checker,
    hall_paige_predicts_existence,
    payload_digest,
    report_net_bytes,
)
from workloads import WORKLOADS, operations  # noqa: E402


def _report(tmp_path: Path, args: list[str]) -> tuple[int, dict]:
    out = tmp_path / "report.json"
    code = autmap_main(args + ["--jobs", "1", "--out", str(out)])
    return code, json.loads(out.read_text())


def _op(args: list[str], pinned: bool) -> dict:
    return {"argv": args + ["--jobs", "1"], "key": " ".join(args), "jobs": 1, "pinned": pinned}


PSL2 = ["witness", "psl2", "--q", "7"]
SEARCH = ["mappings", "--group", "A4"]


@pytest.fixture(scope="module")
def psl2_report(tmp_path_factory):
    return _report(tmp_path_factory.mktemp("psl2"), PSL2)


@pytest.fixture(scope="module")
def search_report(tmp_path_factory):
    return _report(tmp_path_factory.mktemp("search"), SEARCH)


def test_pinned_digest_accepted(psl2_report):
    code, report = psl2_report
    checker = Checker({"witness psl2 --q 7": report["manifest"]["digest"]})
    out = checker.check(_op(PSL2, True), code, report)
    assert not out.problems and not out.failed and out.resolved == 1


def test_wrong_pinned_digest_rejected(psl2_report):
    code, report = psl2_report
    out = Checker({"witness psl2 --q 7": "0" * 64}).check(_op(PSL2, True), code, report)
    assert any("!= reference" in p for p in out.problems)


def test_missing_pin_rejected(psl2_report):
    code, report = psl2_report
    out = Checker({}).check(_op(PSL2, True), code, report)
    assert any("no reference digest" in p for p in out.problems)


def test_tampered_payload_rejected(psl2_report):
    code, report = psl2_report
    report = copy.deepcopy(report)
    report["table"][0]["element"] = "tampered"
    out = Checker({}).check(_op(PSL2, False), code, report)
    assert any("stored digest" in p for p in out.problems)


def test_search_report_accepted(search_report):
    code, report = search_report
    out = Checker({}).check(_op(SEARCH, False), code, report)
    assert not out.problems and not out.failed and out.resolved == 2


def _tampered_search(report: dict, kind: str, **changes) -> dict:
    """The report with `changes` made to one search result, and its stored
    digest re-stamped so that only the check by meaning can catch it."""
    report = copy.deepcopy(report)
    report["results"][kind].update(changes)
    report["manifest"]["digest"] = payload_digest(report)
    return report


def test_search_status_against_hall_paige_rejected(search_report):
    code, report = search_report
    bad = _tampered_search(report, "complete", status="nonexistent", mapping=None)
    out = Checker({}).check(_op(SEARCH, False), code, bad)
    assert any("contradicts Hall-Paige" in p for p in out.problems)


def test_wrong_hall_paige_prediction_rejected(search_report):
    code, report = search_report
    bad = copy.deepcopy(report)
    bad["results"]["hall_paige_predicts_existence"] = False
    bad["manifest"]["digest"] = payload_digest(bad)
    out = Checker({}).check(_op(SEARCH, False), code, bad)
    assert any("prediction is wrong" in p for p in out.problems)


@pytest.mark.parametrize("name", ["A4", "C22", "Q8 x C3", "SL2(3)", "C2 x C8", "S4", "C21"])
def test_hall_paige_oracle_agrees_with_the_program(name):
    G = elaborate_text(name)
    assert hall_paige_predicts_existence(G) == hall_paige_predict(G)


def test_non_bijective_mapping_rejected(search_report):
    code, report = search_report
    mapping = list(report["results"]["orthomorphism"]["mapping"])
    mapping[1] = mapping[2]
    bad = _tampered_search(report, "orthomorphism", mapping=mapping)
    out = Checker({}).check(_op(SEARCH, False), code, bad)
    assert any("not a bijection" in p for p in out.problems)


def test_mapping_with_non_bijective_product_rejected(search_report):
    code, report = search_report
    # the identity is a bijection, but g -> g*g is not on a group with
    # elements of order 2
    bad = _tampered_search(report, "complete", mapping=list(range(12)))
    out = Checker({}).check(_op(SEARCH, False), code, bad)
    assert any("non-bijective defining product" in p for p in out.problems)


def test_indeterminate_search_is_a_failure_not_a_wrong_output(search_report):
    _, report = search_report
    bad = _tampered_search(report, "orthomorphism", status="indeterminate", mapping=None)
    out = Checker({}).check(_op(SEARCH, False), 4, bad)
    assert out.failed and out.problems == [] and out.resolved == 1
    out = Checker({}).check(_op(SEARCH, False), 0, bad)
    assert any("does not fit" in p for p in out.problems)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_orders_operations(workload):
    a, b = operations(workload, 3), operations(workload, 4)
    if workload == "witness":
        # q = 16 takes i = seed mod 4, and the wreath witnesses take the seed
        assert "witness psl2 --q 16 --i 3" in {op["key"] for op in a}
        assert "witness psl2 --q 16 --i 0" in {op["key"] for op in b}
    else:
        assert sorted(op["key"] for op in a) == sorted(op["key"] for op in b)
    assert all(op["jobs"] <= 2 for op in a)


def test_smoke_mode_runs_clean():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == {"smoke": "ok"}


def test_report_size_ignores_only_the_wall_time(psl2_report):
    _, report = psl2_report
    slower = copy.deepcopy(report)
    slower["manifest"]["wall_time_s"] = 123.456789012345
    assert report_net_bytes(json.dumps(report)) == report_net_bytes(json.dumps(slower))
    slower["results"]["element_index"] = 10**6
    assert report_net_bytes(json.dumps(report)) != report_net_bytes(json.dumps(slower))


def test_traced_report_must_match_the_cli():
    import run

    log = {"ops": {"k --jobs 1": {"key": "k", "code": [0], "net_bytes": [100],
                                  "counters": [{"mappings.nodes": 7}]}}}
    trace = {"reports": {"k": {"code": 0, "net_bytes": 100}},
             "counts_by_op": {"k": {"mappings.nodes": 7}}, "counts": {}}
    assert run.trace_problems(trace, log, None) == []
    trace["reports"]["k"]["net_bytes"] = 99
    assert any("report size" in p for p in run.trace_problems(trace, log, None))
    trace["reports"]["k"] = {"code": 4, "net_bytes": 100}
    assert any("traced exit" in p for p in run.trace_problems(trace, log, None))


def test_benchmark_json_lists_every_metric():
    import run

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
