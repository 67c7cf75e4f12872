"""Command-line interface.

Subcommands: verify-theorem, spectrum, witness (psl2 | wreath), mappings.
Reports are canonical JSON (or a flat CSV view) with an embedded manifest.
Witnesses are verified once, where they are built; failure certificates are
re-verified by ``_reverify_failures``, a route apart from the scan.

Exit codes: 0 success; 2 theorem-consistency violation (an implementation
bug, never new mathematics); 3 input error; 4 cap or budget exceeded.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time

import numpy as np

from .automorphisms import compute_aut, compute_inner
from .catalog import (
    NONSOLVABLE_ENTRIES,
    catalog_aut,
    catalog_group,
    catalog_names,
    get_entry,
)
from .completeness import is_k_complete, iterate_map_bijective
from .errors import (
    AutmapError,
    CapExceededError,
    GroupBuildError,
    TheoremViolationError,
)
from .groups import ORDER_CAP, check_order_cap, predicted_atomic_order
from .mappings import (
    EXISTS,
    INDETERMINATE,
    find_complete_mapping,
    find_orthomorphism,
    hall_paige_predict,
)
from .parser import elaborate_text, parse_group_expr, predicted_order
from .reports import build_report, write_report
from .structure import is_solvable
from .witnesses import (
    WITNESS_MAX_COPIES,
    WreathAut,
    find_inverted_witness,
    is_nonabelian_simple,
    psl2_variant,
    psl2_witness,
)

EXIT_OK = 0
EXIT_THEOREM_VIOLATION = 2
EXIT_INPUT_ERROR = 3
EXIT_CAP_EXCEEDED = 4

K_RANGE_LIMIT = 16


def _power_rows(G, x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """x[i]^k[i] for every i, by square-and-multiply over the arrays."""
    x = np.where(k < 0, G.inv[x], x)
    k = np.abs(k)
    result = np.zeros_like(x)
    while True:
        result = np.where(k & 1, G.mul_many(result, x), result)
        k = k >> 1
        if not k.any():
            return result
        x = G.mul_many(x, x)


def _reverify_failures(G, reps: np.ndarray, failed: np.ndarray) -> None:
    """Re-check every failure certificate of G at once, right before
    emission.  Each row of ``failed`` is (r, c, g, h, k) for a failing row
    alpha = rep_r o iota_c, whose collision at exponent k is (g, h): check
    g != h and g^k alpha(g) = h^k alpha(h), with alpha(x) = rep_r(c x c^-1)
    read from the representatives' images ``reps``, a route apart from the
    scan that found the collisions.  A success certificate was re-checked
    when its verdict was built."""
    r, c, g, h, k = failed.astype(np.int64).T

    def displaced(x):
        image = reps[r, G.mul_many(G.mul_many(c, x), G.inv[c])]
        return G.mul_many(_power_rows(G, x, k), image)

    if np.any(g == h) or not np.array_equal(displaced(g), displaced(h)):
        raise TheoremViolationError("emitted failure certificate failed re-verification")


def _certificate_text(verdict) -> str:
    """Inline certificate: the displacement image on success, the colliding
    pair on failure."""
    if verdict.verdict:
        return "image:" + ";".join(map(str, verdict.image.tolist()))
    return f"collision:{verdict.collision[0]}|{verdict.collision[1]}"


def _scan(
    G, aut, rows, ks, group: str, verdict_key: str, iterate: bool = False
) -> tuple[list[dict], dict[int, int]]:
    """The report rows of the k-completeness scan: one per k in ``ks`` for
    each position j in ``rows`` of Aut(G)'s rows ``aut[j]``.  A report row
    numbers its automorphism by its place in ``rows`` and holds the verdict
    under ``verdict_key``; with ``iterate`` it also says whether the iterate
    map is bijective.  Returns the report rows and, for each k, how many of
    the scanned automorphisms are k-complete.  Every failure certificate is
    re-checked before the rows are returned."""
    table, failed, nfail = [], np.empty((len(rows) * len(ks), 5), dtype=np.int32), 0
    complete = dict.fromkeys(ks, 0)
    for idx, j in enumerate(rows):
        alpha = aut[j]
        for k in ks:
            v = is_k_complete(alpha, k)
            complete[k] += v.verdict
            if not v.verdict:
                failed[nfail] = (*aut.parts(j), *v.collision, k)
                nfail += 1
            row = {
                "group": group,
                "aut_index": idx,
                "provenance": alpha.provenance,
                "k": k,
                verdict_key: v.verdict,
                "certificate": _certificate_text(v),
            }
            if iterate:
                row["iterate_bijective"] = iterate_map_bijective(alpha, k) if k >= 1 else None
            table.append(row)
    _reverify_failures(G, aut.reps, failed[:nfail])
    return table, complete


# ---------------------------------------------------------------------------
# verify-theorem
# ---------------------------------------------------------------------------


def cmd_verify_theorem(
    scope: list[str] | None, cap: int = ORDER_CAP
) -> tuple[dict, list[dict], int]:
    names = scope if scope else [e.name for e in NONSOLVABLE_ENTRIES]
    if len(set(names)) < len(names):
        raise ValueError(f"scope names a group more than once: {' '.join(names)}")
    # looked up before any group is built: unknown names are input errors
    entries = [get_entry(name) for name in names]

    def one_group(entry):
        name = entry.name
        try:
            check_order_cap(name, predicted_order(parse_group_expr(entry.expr)), cap)
            G = catalog_group(name)
        except CapExceededError as e:
            return {"group": name, "error": str(e)}, []
        solvable = is_solvable(G)
        if solvable != entry.solvable:
            raise TheoremViolationError(f"catalog solvability label is wrong for {name}")
        # a solvable group is a control: its identity automorphism, row 0 of
        # Inn(G), is the only row
        aut = compute_inner(G) if solvable else catalog_aut(name)
        rows, complete = _scan(G, aut, [0] if solvable else range(len(aut)), [1], name, "verdict")
        result = {"group": name, "order": G.n, "solvable": solvable}
        if solvable:
            result["control_identity_1_complete"] = complete[1] == 1
            result["odd_order"] = G.n % 2 == 1
        else:
            result["aut_size"] = len(aut)
            result["inner_size"] = len(aut) // len(aut.coset_rows)  # |Inn(G)| rows per coset
            result["one_complete_found"] = complete[1]
            result["all_fail"] = complete[1] == 0
        return result, rows

    pairs = [one_group(entry) for entry in entries]
    results = {"groups": [p[0] for p in pairs]}
    table = [row for p in pairs for row in p[1]]
    violations = [
        g["group"] for g in results["groups"] if not g.get("all_fail", True)
    ]
    cap_errors = [g["group"] for g in results["groups"] if "error" in g]
    results["theorem_consistent"] = not violations
    if violations:
        code = EXIT_THEOREM_VIOLATION
    elif cap_errors:
        code = EXIT_CAP_EXCEEDED
    else:
        code = EXIT_OK
    return results, table, code


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def cmd_spectrum(
    expr: str, k_min: int, k_max: int, iterate: bool, all_autos: bool, cap: int
) -> tuple[dict, list[dict], int]:
    if k_min > k_max:
        raise ValueError("--k-min must be <= --k-max")
    if max(abs(k_min), abs(k_max)) > K_RANGE_LIMIT:
        raise ValueError(f"|k| is limited to {K_RANGE_LIMIT}")
    G = elaborate_text(expr, cap)
    aut = compute_aut(G, "auto")
    rows = range(len(aut)) if all_autos else aut.coset_rows
    ks = list(range(k_min, k_max + 1))
    table, complete = _scan(G, aut, rows, ks, G.name, "k_complete", iterate)
    results = {
        "group": G.name,
        "order": G.n,
        "aut_size": len(aut),
        "rows_are": "all" if all_autos else "coset_reps",
        "k_range": [k_min, k_max],
        "k_complete_counts": {str(k): complete[k] for k in ks},
    }
    return results, table, EXIT_OK


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------


def cmd_witness_psl2(q: int, i: int, cap: int = ORDER_CAP) -> tuple[dict, list[dict], int]:
    check_order_cap(f"PSL2({q})", predicted_atomic_order("PSL2", q), cap)
    variant = psl2_variant(q)
    wit = psl2_witness(q, i, variant)
    G = wit.group
    elem = wit.element
    results = {
        "kind": "psl2",
        "q": q,
        "i": i,
        "variant": variant,
        "group": G.name,
        "element_index": elem,
        "element": G.labels[elem],
        "coset_rep": wit.coset_rep.provenance,
        "exponent": wit.exponent,
        "transcript": wit.transcript,
        "verified": wit.verified,
    }
    table = [
        {
            "kind": "psl2",
            "q": q,
            "i": i,
            "variant": variant,
            "element": G.labels[elem],
            "verified": wit.verified,
        }
    ]
    return results, table, EXIT_OK if wit.verified else EXIT_THEOREM_VIOLATION


def cmd_witness_wreath(base_expr: str, n: int, seed: int, cap: int) -> tuple[dict, list[dict], int]:
    # checked before n is used as a draw size
    if not 1 <= n <= WITNESS_MAX_COPIES:
        raise GroupBuildError(f"wreath witness needs 1 <= n <= {WITNESS_MAX_COPIES}, got {n}")
    S = elaborate_text(base_expr, cap)
    if not is_nonabelian_simple(S):  # before its Aut(S) is computed
        raise GroupBuildError("witness construction needs a nonabelian simple base")
    aut = compute_aut(S, "auto")
    rng = np.random.default_rng(seed)
    alphas = tuple(aut[int(j)] for j in rng.integers(0, len(aut), size=n))
    sigma = tuple(int(x) for x in rng.permutation(n))
    w = WreathAut(S, n, alphas, sigma)
    wit = find_inverted_witness(w)
    results = {
        "kind": "wreath",
        "base": S.name,
        "n": n,
        "seed": seed,
        "sigma": list(sigma),
        "alpha_provenances": [a.provenance for a in alphas],
        "cycle_used": list(wit.cycle_used),
        "twisted_coord": wit.twisted_coord,
        "vector_indices": list(wit.vector),
        "vector": [S.labels[x] for x in wit.vector],
        "eq2_holds": wit.verified,
        "verified": wit.verified,
    }
    table = [
        {
            "kind": "wreath",
            "base": S.name,
            "n": n,
            "seed": seed,
            "vector": ";".join(S.labels[x] for x in wit.vector),
            "verified": wit.verified,
        }
    ]
    return results, table, EXIT_OK


# ---------------------------------------------------------------------------
# mappings
# ---------------------------------------------------------------------------


def cmd_mappings(expr: str, cap: int) -> tuple[dict, list[dict], int]:
    G = elaborate_text(expr, cap)
    complete = find_complete_mapping(G)
    ortho = find_orthomorphism(G)
    predicted = hall_paige_predict(G)
    results = {
        "group": G.name,
        "order": G.n,
        "hall_paige_predicts_existence": predicted,
        "complete": {
            "status": complete.status,
            "nodes": complete.nodes,
            "mapping": list(complete.mapping) if complete.mapping else None,
        },
        "orthomorphism": {
            "status": ortho.status,
            "nodes": ortho.nodes,
            "mapping": list(ortho.mapping) if ortho.mapping else None,
        },
    }
    table = [
        {
            "group": G.name,
            "kind": kind,
            "status": cert.status,
            "nodes": cert.nodes,
            "prediction": predicted,
        }
        for kind, cert in (("complete", complete), ("orthomorphism", ortho))
    ]
    indeterminate = INDETERMINATE in (complete.status, ortho.status)
    mismatch = any(
        cert.status != INDETERMINATE and (cert.status == EXISTS) != predicted
        for cert in (complete, ortho)
    )
    results["matches_prediction"] = not mismatch and not indeterminate
    if mismatch:
        code = EXIT_THEOREM_VIOLATION
    elif indeterminate:
        code = EXIT_CAP_EXCEEDED
    else:
        code = EXIT_OK
    return results, table, code


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _int_at_least(low: int):
    """An argparse type: an int no less than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_arg_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="write the report here instead of stdout")
    common.add_argument(
        "--jobs", type=int, default=1, help="accepted for compatibility; has no effect"
    )
    common.add_argument("--seed", type=_int_at_least(0), default=0)
    common.add_argument(
        "--cap", type=_int_at_least(1), default=ORDER_CAP,
        help=f"group order cap, at least 1; it can only lower the built-in {ORDER_CAP}",
    )

    ap = argparse.ArgumentParser(
        prog="autmap",
        description="Verify complete-mapping properties of finite-group automorphisms.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify-theorem",
        parents=[common],
        help="exhaustively confirm that no nonsolvable catalog group has a "
        "1-complete automorphism",
    )
    p.add_argument(
        "--scope",
        nargs="+",
        default=None,
        metavar="NAME",
        help="one or more distinct catalog names (default: all nonsolvable ones "
        f"except the extended entries); known: {', '.join(catalog_names())}",
    )

    p = sub.add_parser(
        "spectrum",
        parents=[common],
        help="table of k-completeness verdicts over a k range",
    )
    p.add_argument(
        "--group",
        required=True,
        help="group expression: expr := term ('x' term)*; term := atom | '(' expr ')'; "
        "atom := NAME '(' INT ')' | NAME INT | 'Q8' with NAME in C, D, S, A, SL2, "
        "PSL2, PGL2 (case-insensitive)",
    )
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--iterate", action="store_true", help="also check the iterate maps")
    p.add_argument(
        "--all-autos",
        action="store_true",
        help="one row per automorphism instead of per Inn-coset representative",
    )

    p = sub.add_parser("witness", help="construct inverted-element witnesses")
    wsub = p.add_subparsers(dest="witness_kind", required=True)
    wp = wsub.add_parser("psl2", parents=[common])
    wp.add_argument("--q", type=int, required=True)
    wp.add_argument("--i", type=int, default=0)
    ww = wsub.add_parser("wreath", parents=[common])
    ww.add_argument("--base", required=True, help="group expression for the simple base")
    ww.add_argument("--n", type=int, required=True)

    p = sub.add_parser(
        "mappings",
        parents=[common],
        help="complete-mapping/orthomorphism existence vs the Sylow-2 characterization",
    )
    p.add_argument("--group", required=True, help="group expression (same grammar as spectrum)")
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
    except SystemExit as e:
        if e.code != 2:  # --help exits 0
            raise
        return EXIT_INPUT_ERROR  # argparse's usage-error code 2 means a violation here
    t0 = time.perf_counter()
    # every build also checks ORDER_CAP, so --cap can only lower it
    cap = min(args.cap, ORDER_CAP)
    try:
        if args.command == "verify-theorem":
            results, table, code = cmd_verify_theorem(args.scope, cap)
            scope = [g["group"] for g in results["groups"]]
        elif args.command == "spectrum":
            scope = [args.group]
            results, table, code = cmd_spectrum(
                args.group, args.k_min, args.k_max, args.iterate, args.all_autos, cap
            )
        elif args.command == "witness":
            if args.witness_kind == "psl2":
                scope = [f"PSL2({args.q})"]
                results, table, code = cmd_witness_psl2(args.q, args.i, cap)
            else:
                scope = [args.base]
                results, table, code = cmd_witness_wreath(
                    args.base, args.n, args.seed, cap
                )
        else:  # mappings: argparse requires one of the four commands
            scope = [args.group]
            results, table, code = cmd_mappings(args.group, cap)
    except CapExceededError as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except TheoremViolationError as e:
        print(f"theorem-consistency violation (bug): {e}", file=sys.stderr)
        return EXIT_THEOREM_VIOLATION
    except (ValueError, KeyError, AutmapError) as e:
        # str() of a KeyError is the repr of its message, quotes included
        print(f"input error: {e.args[0] if isinstance(e, KeyError) else e}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    report = build_report(
        args.command,
        results,
        table,
        scope=scope,
        seed=args.seed,
        caps={"order_cap": cap},
        wall_time_s=time.perf_counter() - t0,
    )
    try:
        write_report(report, args.format, args.out)
    except OSError as e:
        print(f"input error: cannot write report: {e}", file=sys.stderr)
        if args.out is None:
            # the unwritten bytes stay buffered, and the flush at exit would
            # fail again (exit 120) unless stdout goes to devnull first
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT_ERROR
    return code


def entry() -> None:
    """The process entry (``autmap``, ``python -m autmap.cli``): run main on
    ``sys.argv`` and exit with its code.  main has written the report by
    then; freezing the heap makes the interpreter's shutdown collections
    skip every object the finished command holds instead of walking them."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
