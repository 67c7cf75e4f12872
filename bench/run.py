"""Benchmark of the autmap CLI: closed-loop workloads, one client.

    python3 bench/run.py --workload catalog --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --smoke

Run from the root of a source checkout (the program is imported from
src/; nothing is installed).  Workloads and their reasons are in
workloads.py.

The client runs one `autmap` process per operation, one after another, each
with a fresh temporary directory as cwd, HOME, XDG_CACHE_HOME and TMPDIR. A
pass is one run of the workload's operations. A run makes at least
MIN_PASSES passes, and more while another one is expected to finish within
--seconds, because the host's speed drifts by up to a quarter within
minutes. A traced run (--trace 1) makes one. Wall time is taken around each
child, CPU time and peak RSS from that child's own os.wait4 rusage. Reports
are checked (checks.py) after each child has exited, outside the timed
region.

End-to-end metrics: wall_s and cpu_s are a pass's totals over its children
(median over passes); setup_s is the median time of a fresh interpreter
importing autmap.cli and building its argument parser, sampled at the start
of the run and after every operation, so that the samples follow the host's
drift over the whole run; peak_rss_mb is the largest child's peak RSS;
ok_frac is the share of operations that resolved (1 - fail_frac: a gated
metric may not read 0, and fail_frac does on most workloads). cli.fail_frac
and cli.verdicts_per_s (resolved verdict or witness rows per second of wall
time) are reported with the per-layer metrics and on the summary line: each
pass resolves a fixed number of rows, so verdicts_per_s only restates
wall_s, with a wider spread.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced pass
(for the per-operation timings and the --jobs comparison), then the traced
pass (traced.py) in a fresh interpreter, and prints the per-layer metrics.
The last line of stdout is the JSON result; earlier lines are a readable
summary and the machine record.  The full record of each run, spans
included, is written under .bench_build/results/.

--smoke runs small stand-ins of every workload, traced and untraced, with
the same checks (but no pinned digests), in well under a minute.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
sys.path[:0] = [str(BENCH), str(SRC)]

from checks import Checker, Outcome, report_net_bytes  # noqa: E402
from workloads import WORKLOADS, operations  # noqa: E402

SETUP_START = 3  # set-up samples at the start of a run
SETUP_PER_PASS = 6  # and spread over the operations of each pass
MIN_PASSES = 2
RUN_LIMIT_S = 170  # every child is killed by then, so a run ends within 180 s
SETUP_CODE = "import autmap.cli as c; c.build_arg_parser()"

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
PER_LAYER = {
    "cli.jobs1_s": "s",
    "cli.jobs2_s": "s",
    "cli.jobs_speedup": "ratio",
    "cli.verdicts_per_s": "1/s",
    "cli.fail_frac": "ratio",
    "fields.field_for_s": "s",
    "groups.build_s": "s",
    "groups.table_bytes": "B",
    "structure.is_solvable_s": "s",
    "structure.abelianization_s": "s",
    "automorphisms.brute_s": "s",
    "automorphisms.psl2_structured_s": "s",
    "automorphisms.autgroup_s": "s",
    "automorphisms.validate_s": "s",
    "automorphisms.validate_us_per_aut": "us",
    "automorphisms.validated": "count",
    "automorphisms.aut_total": "count",
    "completeness.scan_s": "s",
    "completeness.us_per_check": "us",
    "completeness.checks": "count",
    "mappings.search_s": "s",
    "mappings.nodes_per_s": "1/s",
    "mappings.nodes": "count",
    "mappings.unresolved": "count",
    "witnesses.psl2_s": "s",
    "witnesses.wreath_s": "s",
    "witnesses.find_inverted_s": "s",
    "reports.encode_s": "s",
    "reports.bytes": "B",
    "trace.overhead_s": "s",
}
# Counters fixed by the workload's mathematics: a value other than the one in
# expected.json is a wrong result.  The search counters depend on the
# searcher, which may improve, so a change there is only reported.
EXACT_COUNTERS = (
    "automorphisms.aut_total",
    "automorphisms.validated",
    "completeness.checks",
    "groups.table_bytes",
)
REFERENCE_COUNTERS = ("mappings.nodes", "mappings.unresolved")


def child_env(scratch: Path) -> dict[str, str]:
    env = {k: os.environ[k] for k in ("PATH", "LANG", "LC_ALL") if k in os.environ}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
        HOME=str(scratch),
        XDG_CACHE_HOME=str(scratch / ".cache"),
        TMPDIR=str(scratch),
    )
    return env


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], deadline: float, keep: str | None = None):
    """Run argv to completion in a fresh scratch directory, killing it at
    `deadline` (a perf_counter time).  Returns its exit code, wall time, and
    CPU time and peak RSS from its own rusage, plus the text of the file
    `keep` it left behind."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="op-", dir=WORK / "tmp"))
    try:
        with open(scratch / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=scratch, env=child_env(scratch),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            timer = threading.Timer(max(deadline - t0, 1.0), _kill, (proc.pid,))
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                _kill(proc.pid)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        res = {
            "code": proc.returncode,
            "wall_s": wall,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "rss_mb": ru.ru_maxrss / 1024.0,
        }
        text = (scratch / keep).read_text() if keep and (scratch / keep).exists() else None
        if res["code"] != 0 and not text:
            res["stderr"] = (scratch / "stderr.txt").read_text()[-2000:]
        return res, text
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure_setup(deadline: float, samples: int, warm: bool = False) -> list[float]:
    argv = [sys.executable, "-c", SETUP_CODE]
    if warm:
        first, _ = run_child(argv, deadline)  # compiles bytecode into the cache; not timed
        if first["code"] != 0:
            raise SystemExit("cannot import autmap.cli: " + first.get("stderr", ""))
    return [run_child(argv, deadline)[0]["wall_s"] for _ in range(samples)]


def run_pass(ops: list[dict], checker: Checker, log: dict, setup: list[float],
             deadline: float) -> dict:
    """Every operation once, each followed by set-up samples appended to
    `setup`; returns the pass's totals."""
    per_op = max(1, SETUP_PER_PASS // len(ops))
    totals = {"wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0, "resolved": 0, "failed": 0,
              "ops": len(ops)}
    for op in ops:
        argv = [sys.executable, "-m", "autmap.cli", *op["argv"], "--out", "report.json"]
        res, text = run_child(argv, deadline, keep="report.json")
        try:
            report = json.loads(text) if text else None
            outcome = checker.check(op, res["code"], report)
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            report = None
            outcome = Outcome(failed=True, problems=[f"{op['key']}: malformed report ({e!r})"])
        totals["wall_s"] += res["wall_s"]
        totals["cpu_s"] += res["cpu_s"]
        totals["rss_mb"] = max(totals["rss_mb"], res["rss_mb"])
        totals["resolved"] += outcome.resolved
        totals["failed"] += int(outcome.failed)
        rec = log["ops"].setdefault(op["key"] + f" --jobs {op['jobs']}", {
            "key": op["key"], "jobs": op["jobs"], "wall_s": [], "cpu_s": [], "rss_mb": [],
            "code": [], "digest": [], "counters": [], "net_bytes": [],
        })
        for k in ("wall_s", "cpu_s", "rss_mb", "code"):
            rec[k].append(res[k])
        rec["digest"].append(report.get("manifest", {}).get("digest") if report else None)
        rec["counters"].append(outcome.counters)
        rec["net_bytes"].append(report_net_bytes(text) if report else None)
        log["problems"] += outcome.problems
        if "stderr" in res:
            log["problems"].append(f"{op['key']}: {res['stderr'].strip()}")
        setup.extend(measure_setup(deadline, per_op))
    return totals


def run_traced(ops: list[dict], name: str, deadline: float) -> dict:
    results = WORK / "results"
    ops_path = results / f"{name}-ops.json"
    out_path = results / f"{name}-trace.json"
    ops_path.write_text(json.dumps(ops))
    res, _ = run_child(
        [sys.executable, str(BENCH / "traced.py"), str(ops_path), str(out_path)], deadline
    )
    if res["code"] != 0:
        return {"error": res.get("stderr", f"exit {res['code']}")}
    return json.loads(out_path.read_text())


def consistency_problems(log: dict) -> list[str]:
    """Operations with the same key must give the same digest, counters and
    report size in every pass and at every --jobs."""
    problems = []
    by_key: dict[str, list] = {}
    for rec in log["ops"].values():
        by_key.setdefault(rec["key"], []).extend(
            zip(rec["digest"], map(json.dumps, rec["counters"]), rec["net_bytes"]))
    for key, seen in by_key.items():
        if len(set(seen)) > 1:
            problems.append(f"{key}: digest or counters differ between runs of the operation")
    return problems


def end_to_end(passes: list[dict], setup: list[float], attempted: int, failed: int) -> dict:
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(trace: dict, log: dict, traced_ops: list[dict], setup_s: float) -> dict[str, float]:
    self_s = trace["self_s"]
    counts = trace["counts"]

    def layer(name: str) -> float:
        return self_s.get(name, 0.0)

    def op_median(key: str, jobs: int) -> float:
        rec = log["ops"].get(f"{key} --jobs {jobs}")
        return statistics.median(rec["wall_s"]) if rec else 0.0

    keys = sorted({rec["key"] for rec in log["ops"].values()})
    jobs1 = sum(op_median(k, 1) for k in keys)
    jobs2 = sum(op_median(k, 2) for k in keys)
    # The CLI children also start an interpreter and import autmap; the
    # traced pass does that once, so compare against their time net of setup.
    untraced = sum(op_median(op["key"], 1) - setup_s for op in traced_ops)
    validated = counts.get("automorphisms.validated", 0)
    checks = counts.get("completeness.checks", 0)
    nodes = counts.get("mappings.nodes", 0)
    return {
        "cli.jobs1_s": jobs1,
        "cli.jobs2_s": jobs2,
        "cli.jobs_speedup": jobs1 / jobs2 if jobs2 else 0.0,
        "cli.verdicts_per_s": log["verdicts_per_s"],
        "cli.fail_frac": log["fail_frac"],
        "fields.field_for_s": layer("fields.field_for"),
        "groups.build_s": layer("groups.build"),
        "groups.table_bytes": counts.get("groups.table_bytes", 0),
        "structure.is_solvable_s": layer("structure.is_solvable"),
        "structure.abelianization_s": layer("structure.abelianization"),
        "automorphisms.brute_s": layer("automorphisms.brute"),
        "automorphisms.psl2_structured_s": layer("automorphisms.psl2_structured"),
        "automorphisms.autgroup_s": layer("automorphisms.autgroup"),
        "automorphisms.validate_s": layer("automorphisms.validate"),
        "automorphisms.validate_us_per_aut":
            layer("automorphisms.validate") / validated * 1e6 if validated else 0.0,
        "automorphisms.validated": validated,
        "automorphisms.aut_total": counts.get("automorphisms.aut_total", 0),
        "completeness.scan_s": layer("completeness.scan"),
        "completeness.us_per_check": layer("completeness.scan") / checks * 1e6 if checks else 0.0,
        "completeness.checks": checks,
        "mappings.search_s": layer("mappings.search"),
        "mappings.nodes_per_s": nodes / layer("mappings.search") if nodes else 0.0,
        "mappings.nodes": nodes,
        "mappings.unresolved": counts.get("mappings.unresolved", 0),
        "witnesses.psl2_s": layer("witnesses.psl2"),
        "witnesses.wreath_s": layer("witnesses.wreath"),
        "witnesses.find_inverted_s": layer("witnesses.find_inverted"),
        "reports.encode_s": layer("reports.encode"),
        "reports.bytes": counts.get("reports.bytes", 0),
        "trace.overhead_s": trace["traced_s"] - untraced,
    }


def trace_problems(trace: dict, log: dict, expected: dict | None) -> list[str]:
    """The traced pass must do the same work as the CLI children (the same
    exit codes, report sizes, search node counts and scan sizes), and its
    exact counters must equal the reference ones."""
    problems = []
    for key, traced in trace["reports"].items():
        rec = log["ops"].get(f"{key} --jobs 1")
        if rec is None:
            problems.append(f"{key}: traced but not run by the CLI")
            continue
        if traced["code"] != rec["code"][0]:
            problems.append(f"{key}: traced exit {traced['code']} != CLI {rec['code'][0]}")
        if traced["net_bytes"] != rec["net_bytes"][0]:
            problems.append(f"{key}: traced report size {traced['net_bytes']} != CLI "
                            f"{rec['net_bytes'][0]} (less wall time digits)")
        counts = trace["counts_by_op"].get(key, {})
        for name, cli in rec["counters"][0].items():
            if counts.get(name) != cli:
                problems.append(f"{key}: traced {name} {counts.get(name)} != CLI {cli}")
    if expected is not None:
        for name in EXACT_COUNTERS:
            got = trace["counts"].get(name, 0)
            if got != expected[name]:
                problems.append(f"counter {name} = {got}, reference {expected[name]}")
    return problems


def reference_notes(trace: dict, expected: dict) -> list[str]:
    return [
        f"counter {name} = {trace['counts'].get(name, 0)}, seed-commit reference {expected[name]}"
        for name in REFERENCE_COUNTERS
        if trace["counts"].get(name, 0) != expected[name]
    ]


def machine_record() -> dict:
    import numpy

    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": os.getloadavg(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    expected = json.loads((BENCH / "expected.json").read_text())
    ops = operations(workload, seed, smoke)
    checker = Checker(expected["digests"])
    log = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "smoke": smoke, "machine": machine_record(), "ops": {}, "problems": []}
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    setup = measure_setup(deadline, SETUP_START, warm=True)
    passes: list[dict] = []
    t0 = time.perf_counter()
    min_passes = 1 if trace else MIN_PASSES
    while True:
        passes.append(run_pass(ops, checker, log, setup, deadline))
        elapsed = time.perf_counter() - t0
        if len(passes) >= min_passes and elapsed + max(p["wall_s"] for p in passes) > seconds:
            break
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    log["problems"] += consistency_problems(log)
    e2e = end_to_end(passes, setup, attempted, failed)
    log["verdicts_per_s"] = statistics.median(p["resolved"] / p["wall_s"] for p in passes)
    log["fail_frac"] = failed / attempted
    log["passes"] = passes
    log["setup_s"] = setup
    log["end_to_end"] = e2e
    if trace:
        # in-process and sequential, the traced pass runs each key once
        traced_ops = [op for op in ops if op["jobs"] == 1]
        tr = run_traced(traced_ops, f"{workload}-s{seed}", deadline)
        if "error" in tr:
            log["problems"].append("traced pass failed: " + tr["error"])
            layers = {name: 0.0 for name in PER_LAYER}
        else:
            ref = None if smoke else expected["counters"][workload]
            log["problems"] += trace_problems(tr, log, ref)
            log["notes"] = reference_notes(tr, ref) if ref else []
            layers = per_layer(tr, log, traced_ops, e2e["setup_s"])
            log["self_s"] = tr["self_s"]
            log["counts"] = tr["counts"]
        log["per_layer"] = layers
    log["machine"]["loadavg_end"] = os.getloadavg()
    log["run_s"] = time.perf_counter() - started
    metrics = log["per_layer"] if trace else e2e
    units = PER_LAYER if trace else END_TO_END
    log["result"] = {
        "correct": not log["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return log


def write_log(log: dict) -> None:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{log['workload']}-s{log['seed']}-t{int(log['trace'])}{'-smoke' if log['smoke'] else ''}"
    (results / f"{name}.json").write_text(json.dumps(log, indent=1))


def print_summary(log: dict) -> None:
    res = log["result"]
    print(f"# workload {log['workload']} seed {log['seed']} passes {len(log['passes'])} "
          f"attempted {res['attempted']} failed {res['failed']} "
          f"fail_frac {log['fail_frac']:.4f} verdicts_per_s {log['verdicts_per_s']:.6g}")
    print("# machine " + json.dumps(log["machine"]))
    for name, m in res["metrics"].items():
        print(f"#   {name:36s} {m['value']:>16.6g} {m['unit']}")
    for note in log.get("notes", []):
        print("# NOTE " + note)
    for problem in log["problems"]:
        print("# PROBLEM " + problem)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="quick run of every workload")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "autmap" / "cli.py").is_file():
        print(f"no autmap sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    if args.smoke:
        ok = True
        for workload in WORKLOADS:
            for trace in (False, True):
                log = run_workload(workload, args.seed, 0, trace, smoke=True)
                write_log(log)
                print_summary(log)
                ok &= log["result"]["correct"]
        print(json.dumps({"smoke": "ok" if ok else "failed"}))
        return 0 if ok else 1
    if args.workload is None:
        ap.error("--workload is required")
    log = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    write_log(log)
    print_summary(log)
    print(json.dumps(log["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
