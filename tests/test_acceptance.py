"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import time
from contextlib import contextmanager
from math import gcd

import numpy as np

from autmap.automorphisms import frobenius_field_aut, identity_automorphism
from autmap.catalog import CATALOG, NONSOLVABLE_ENTRIES, catalog_aut, catalog_group
from autmap.cli import EXIT_OK, cmd_spectrum, cmd_witness_wreath
from autmap.cli import main as cli_main
from autmap.completeness import (
    inversion_criterion,
    is_antisymmetric,
    is_fixed_point_free_equiv,
    is_k_complete,
    power_map_bijective,
    suzuki_order,
)
from autmap.fields import field_for
from autmap.groups import build_psl2, conjugacy_classes
from autmap.structure import normal_subgroups, quotient, subgroup_table, transport_aut
from autmap.witnesses import WreathAut, find_inverted_witness, psl2_witness


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL [{num:02d}] {description}")
        raise
    print(f"ACCEPTANCE PASS [{num:02d}] {description}")


def _catalog_upto(order_cap):
    for entry in CATALOG:
        G = catalog_group(entry.name)
        if G.n <= order_cap:
            yield entry.name, G


def test_criterion_01_theorem_exhaustion():
    with criterion(1, "no nonsolvable catalog group has a 1-complete automorphism"):
        t0 = time.time()
        for entry in NONSOLVABLE_ENTRIES:
            aut = catalog_aut(entry.name)
            verdicts = [is_k_complete(a, 1).verdict for a in aut.all]
            assert not any(verdicts), entry.name
            assert len(verdicts) == len(aut)
        elapsed = time.time() - t0
        assert elapsed < 300, f"took {elapsed:.0f}s, budget is 5 minutes"


def test_criterion_02_inversion_criterion_equivalence():
    with criterion(2, "1-completeness == coset inversion criterion (order <= 120)"):
        checked = 0
        for name, G in _catalog_upto(120):
            aut = catalog_aut(name)
            for alpha in aut.all:
                assert is_k_complete(alpha, 1).verdict == inversion_criterion(alpha), name
                checked += 1
        assert checked > 500


def test_criterion_03_minus1_complete_iff_fixed_point_free():
    with criterion(3, "(-1)-completeness == fixed-point-freeness on the whole catalog"):
        for entry in CATALOG:
            aut = catalog_aut(entry.name)
            for alpha in aut.all:
                fpf, minus1 = is_fixed_point_free_equiv(alpha)
                assert fpf == minus1, entry.name


def test_criterion_04_identity_1_complete_iff_odd_order():
    with criterion(4, "identity automorphism is 1-complete iff |G| is odd"):
        for entry in CATALOG:
            G = catalog_group(entry.name)
            v = is_k_complete(identity_automorphism(G), 1)
            assert v.verdict == (G.n % 2 == 1), entry.name


def test_criterion_05_transport_preserves_k_completeness():
    with criterion(5, "k-completeness passes to invariant quotients and subgroups"):
        exercised = 0
        for name, G in _catalog_upto(120):
            aut = catalog_aut(name)
            normals = normal_subgroups(G)
            targets = {
                N.members: (quotient(G, N), subgroup_table(G, N)) for N in normals
            }
            for alpha in aut.all:
                for N in normals:
                    if not N.is_invariant_under(alpha):
                        continue
                    quot_t, sub_t = targets[N.members]
                    for k in (-1, 1, 3):
                        if not is_k_complete(alpha, k).verdict:
                            continue
                        induced = transport_aut(alpha, N, "induce", target=quot_t)
                        restricted = transport_aut(alpha, N, "restrict", target=sub_t)
                        assert is_k_complete(induced, k).verdict, (name, k)
                        assert is_k_complete(restricted, k).verdict, (name, k)
                        exercised += 1
        assert exercised > 100


def _partitions(n):
    if n == 0:
        yield []
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield [first] + rest


def _sigma_from_type(parts):
    sigma = []
    offset = 0
    for p in parts:
        sigma.extend(offset + (j + 1) % p for j in range(p))
        offset += p
    return tuple(sigma)


def test_criterion_06_wreath_witnesses_100_trials():
    with criterion(6, "100 seeded wreath automorphisms all yield verified witnesses"):
        t0 = time.time()
        auts = {name: catalog_aut(name) for name in ("A5", "PSL2(7)")}
        cases = []
        for name in auts:
            for n in range(1, 5):
                for parts in _partitions(n):
                    cases.append((name, n, _sigma_from_type(parts)))
        rng = np.random.default_rng(2024)
        trial = 0
        while trial < 100:
            name, n, sigma = cases[trial % len(cases)]
            aut = auts[name]
            S = aut.parent
            alphas = tuple(
                aut.all[int(j)] for j in rng.integers(0, len(aut.all), size=n)
            )
            wit = find_inverted_witness(WreathAut(S, n, alphas, sigma))
            assert wit.verified
            assert any(x != 0 for x in wit.vector)
            trial += 1
        elapsed = time.time() - t0
        assert elapsed < 60, f"took {elapsed:.0f}s, budget is 1 minute"


def test_criterion_07_psl2_witnesses_all_variants():
    with criterion(7, "PSL2(q) order-2 witnesses verify for every field power"):
        for q, variant in [(4, "char2"), (8, "char2"), (16, "char2"),
                           (5, "q1mod4"), (9, "q1mod4"), (13, "q1mod4"), (17, "q1mod4"),
                           (7, "q3mod4"), (11, "q3mod4"), (19, "q3mod4")]:
            G = build_psl2(q)
            F = field_for(q)
            for i in range(F.f):
                wit = psl2_witness(q, i, variant, group=G)
                assert wit.verified, (q, i)
                if variant == "q1mod4":
                    # the power must be precisely the class of diag(-1, 1)
                    minus_one = F.label(int(F.neg_table[1]))
                    assert G.labels[wit.element] == f"[1 0; 0 {minus_one}]", (q, i)


def test_criterion_08_frobenius_has_six_fixed_points():
    with criterion(8, "Frobenius on PSL2(4), PSL2(8), PSL2(16) fixes exactly 6 points"):
        from autmap.automorphisms import fixed_points

        for q in (4, 8, 16):
            G = build_psl2(q)
            assert len(fixed_points(frobenius_field_aut(G, 1))) == 6, q


def test_criterion_09_hall_paige_desk_scale():
    with criterion(9, "search/characterization agreement for complete mappings"):
        from autmap.mappings import EXISTS, INDETERMINATE, find_complete_mapping, hall_paige_predict

        for entry in CATALOG:
            G = catalog_group(entry.name)
            if G.n > 24:
                continue
            cert = find_complete_mapping(G)
            assert cert.status != INDETERMINATE, entry.name
            assert (cert.status == EXISTS) == hall_paige_predict(G), entry.name


def test_criterion_10_power_map_law_and_suzuki_order():
    with criterion(10, "g -> g^m bijective iff gcd(m, |G|) = 1; Suzuki order check"):
        for entry in CATALOG:
            G = catalog_group(entry.name)
            for m in range(-3, 14):
                assert power_map_bijective(G, m) == (gcd(m, G.n) == 1), (entry.name, m)
        assert suzuki_order(8) == 29120
        assert gcd(3, suzuki_order(8)) == 1


def test_criterion_11_no_antisymmetric_automorphism_on_nonsolvable():
    with criterion(11, "no automorphism of a nonsolvable catalog group is anti-symmetric"):
        for entry in NONSOLVABLE_ENTRIES:
            G = catalog_group(entry.name)
            classes = conjugacy_classes(G)
            for alpha in catalog_aut(entry.name).all:
                assert not is_antisymmetric(alpha, classes), entry.name


def test_criterion_12_exploration_commands_run_and_reverify():
    with criterion(12, "open-question exploration sweeps complete with verified reports"):
        # 3-completeness over Aut(A5) coset representatives (no expected outcome)
        results, table, code = cmd_spectrum("A5", 3, 3, False, False, 10000)
        assert code == EXIT_OK and len(table) > 0
        # even k in -12..12 (no expected outcome)
        results, table, code = cmd_spectrum("A5", -12, 12, False, False, 10000)
        assert code == EXIT_OK
        assert {r["k"] for r in table} == set(range(-12, 13))
        # iterate-map variant on a small control
        results, table, code = cmd_spectrum("C5", 1, 3, True, True, 10000)
        assert code == EXIT_OK
        assert all("iterate_bijective" in r for r in table)


def _manifest_digests(tmp_path, argv, jobs_list):
    digests = set()
    for jobs in jobs_list:
        out = tmp_path / f"report{jobs}.json"
        assert cli_main(argv + ["--jobs", str(jobs), "--out", str(out)]) == EXIT_OK
        digests.add(json.loads(out.read_text())["manifest"]["digest"])
    return digests


def test_criterion_13_deterministic_digests_across_parallelism(tmp_path):
    with criterion(13, "bit-identical report digests at any parallelism degree"):
        scope = ["A5", "SL2(5)", "PSL2(7)", "C3"]
        assert len(_manifest_digests(tmp_path, ["verify-theorem", "--scope"] + scope, (1, 2, 4))) == 1
        spectrum = ["spectrum", "--group", "S4", "--k-min", "-4", "--k-max", "4",
                    "--iterate", "--all-autos"]
        assert len(_manifest_digests(tmp_path, spectrum, (1, 4))) == 1
        w1, _, _ = cmd_witness_wreath("PSL2(7)", 3, seed=11, cap=10000)
        w2, _, _ = cmd_witness_wreath("PSL2(7)", 3, seed=11, cap=10000)
        assert w1 == w2
