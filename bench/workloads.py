"""The benchmark's workloads: the CLI operations each one runs, and why.

An operation is one `autmap` invocation, given as its argv without `--out`.
The seed only orders the operations, except where a workload says otherwise.

* catalog   `verify-theorem` over the whole nonsolvable catalog, at --jobs 1
            and --jobs 2: the paper's claim.  Thousands of small
            automorphisms, so Aut(G) computation and validation dominate.
* search    `mappings` on nine groups of order <= 24: pure-Python
            backtracking that never touches Aut(G).  Q8 x C3 is kept on
            purpose: its orthomorphism search runs out of node budget.
* witness   the psl2 witnesses for q = 16 (i = seed mod 4), 17 and 19 and
            three wreath witnesses seeded by the seed: few automorphisms of
            large groups, so group and field construction dominate.
"""

from __future__ import annotations

import random

WORKLOADS = ("catalog", "search", "witness")

SEARCH_GROUPS = ("SL2(3)", "S4", "D12", "Q8 x C3", "C2 x C8", "C21", "D10", "A4", "C22")
PSL2_QS = (16, 17, 19)
WREATHS = (("A5", 2), ("PSL2(7)", 3), ("A5", 6))


def _op(args: list[str], jobs: int, pinned: bool) -> dict:
    """`key` is the argv without --jobs: operations with equal keys must
    produce equal digests, and pinned keys must match the reference."""
    return {"argv": args + ["--jobs", str(jobs)], "key": " ".join(args), "jobs": jobs,
            "pinned": pinned}


def _full(workload: str, seed: int) -> list[dict]:
    if workload == "catalog":
        return [_op(["verify-theorem"], j, True) for j in (1, 2)]
    if workload == "search":
        return [_op(["mappings", "--group", g], 1, False) for g in SEARCH_GROUPS]
    if workload == "witness":
        ops = [
            _op(["witness", "psl2", "--q", str(q), "--i", str(seed % 4 if q == 16 else 0)], 1, True)
            for q in PSL2_QS
        ]
        ops += [
            _op(["witness", "wreath", "--base", base, "--n", str(n), "--seed", str(seed)], 1, False)
            for base, n in WREATHS
        ]
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def _smoke(workload: str, seed: int) -> list[dict]:
    """Seconds-long stand-ins that take the same code paths; not pinned."""
    if workload == "catalog":
        return [_op(["verify-theorem", "--scope", "A5"], j, False) for j in (1, 2)]
    if workload == "search":
        return [_op(["mappings", "--group", g], 1, False) for g in ("A4", "C22", "D10")]
    if workload == "witness":
        return [
            _op(["witness", "psl2", "--q", "7"], 1, False),
            _op(["witness", "wreath", "--base", "A5", "--n", "3", "--seed", str(seed)], 1, False),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def operations(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The workload's operations in the order the seed gives them."""
    ops = (_smoke if smoke else _full)(workload, seed)
    random.Random(seed).shuffle(ops)
    return ops

