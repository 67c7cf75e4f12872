import ast
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import autmap
from autmap import cli
from autmap.catalog import (
    CATALOG,
    EXTENDED_ENTRIES,
    NONSOLVABLE_ENTRIES,
    catalog_group,
    catalog_names,
    get_entry,
)
from autmap.cli import (
    EXIT_CAP_EXCEEDED,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_THEOREM_VIOLATION,
    cmd_mappings,
    cmd_spectrum,
    cmd_verify_theorem,
    cmd_witness_psl2,
    cmd_witness_wreath,
    main,
)
from autmap.completeness import CompletenessVerdict
from autmap.errors import ParseError, TheoremViolationError
from autmap.groups import ORDER_CAP
from autmap.mappings import NONEXISTENT, MappingCertificate
from autmap.parser import elaborate_text
from autmap.reports import build_report, result_digest
from autmap.structure import is_solvable
from helpers import inner_rows

# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def test_catalog_labels_match_solvability():
    for entry in CATALOG:
        G = catalog_group(entry.name)
        assert is_solvable(G) == entry.solvable, entry.name


def test_catalog_lookup():
    assert get_entry("A5").expr == "A5"
    assert get_entry("A5xC2").expr == "A5 x C2"
    with pytest.raises(KeyError):
        get_entry("M11")
    assert "PSL2(8)" in catalog_names()


def test_verify_theorem_releases_each_group(monkeypatch):
    # a scan over several entries keeps only the last one's group and Aut(G)
    import weakref

    from autmap import catalog

    built = {}

    def recording(text, size_cap=None):
        G = elaborate_text(text, size_cap)
        built[G.name] = weakref.ref(G)
        return G

    catalog.catalog_group.cache_clear()
    catalog.catalog_aut.cache_clear()
    monkeypatch.setattr(catalog, "elaborate_text", recording)
    cmd_verify_theorem(["A5", "S5", "A6"])
    gc.collect()
    assert set(built) == {"A5", "S5", "A6"}
    assert built["A5"]() is None and built["S5"]() is None


def test_extended_psl2_entries_only_by_scope():
    names = [e.name for e in EXTENDED_ENTRIES]
    assert names == [f"PSL2({q})" for q in (11, 13, 16, 17, 19, 23, 25, 27)] + list(
        EXTENDED_AUT_ORDERS
    )
    assert not set(names) & {e.name for e in CATALOG}
    assert all(
        get_entry(name).expr.replace(" ", "") == name and not get_entry(name).solvable
        for name in names
    )
    assert set(names) <= set(catalog_names())
    results, _, _ = cmd_verify_theorem(None)
    assert [g["group"] for g in results["groups"]] == [e.name for e in NONSOLVABLE_ENTRIES]


# the extended entries beyond PSL2(q), with |Aut| by theorem: Aut(S6) =
# PGammaL2(9); Aut(Sn) = Sn for n != 6; Aut(A7) = S7; Aut(SL2(q)) =
# Aut(PGL2(q)) = PGammaL2(q); Aut(A6 x C2) = Aut(A6) x Aut(C2); and
# Aut(A5 x A5) = Aut(A5) wr C2
EXTENDED_AUT_ORDERS = {
    "S6": 1440, "A7": 5040, "S7": 5040,
    "SL2(9)": 1440, "PGL2(9)": 1440, "SL2(11)": 1320, "PGL2(11)": 1320,
    "SL2(13)": 2184, "PGL2(13)": 2184, "PGL2(17)": 4896,
    "A6xC2": 1440, "A5xA5": 28800,
}


@pytest.mark.parametrize("name", EXTENDED_AUT_ORDERS)
def test_spectrum_of_extended_brute_entries(name):
    # each has its Aut(G) from the brute search, above order 512
    results, _, code = cmd_spectrum(get_entry(name).expr, 1, 1, False, False, ORDER_CAP)
    assert code == EXIT_OK
    assert results["aut_size"] == EXTENDED_AUT_ORDERS[name]
    assert results["k_complete_counts"] == {"1": 0}


def test_verify_theorem_extended_brute_entries():
    results, table, code = cmd_verify_theorem(list(EXTENDED_AUT_ORDERS))
    assert code == EXIT_OK
    assert {g["group"]: g["aut_size"] for g in results["groups"]} == EXTENDED_AUT_ORDERS
    assert all(g["all_fail"] for g in results["groups"])
    assert result_digest(results, table) == (
        "d42f53d3ef25832643e0054bcab485fca17628af16092ac73648606f4852af7b"
    )


def test_verify_theorem_extended_scope(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify-theorem", "--scope", "PSL2(11)", "PSL2(13)", "--out", str(out)]) == EXIT_OK
    groups = json.loads(out.read_text())["results"]["groups"]
    assert [(g["group"], g["aut_size"], g["all_fail"]) for g in groups] == [
        ("PSL2(11)", 1320, True),
        ("PSL2(13)", 2184, True),
    ]


def test_verify_theorem_psl2_23_without_a_table():
    # order 6072: solvability is decided through on-demand products
    results, table, code = cmd_verify_theorem(["PSL2(23)"])
    assert code == EXIT_OK
    (g,) = results["groups"]
    assert (g["order"], g["aut_size"], g["solvable"], g["all_fail"]) == (6072, 12144, False, True)
    # the rows are formed on demand, through mul_many
    assert result_digest(results, table) == (
        "6e3fc8ae19455555132d4ebdef7d73e03708cc94ec676d75c9f2a77afc55ec0f"
    )


# ---------------------------------------------------------------------------
# command functions
# ---------------------------------------------------------------------------


def test_verify_theorem_control_c3():
    results, table, code = cmd_verify_theorem(["C3"])
    assert code == EXIT_OK
    (g,) = results["groups"]
    assert g["solvable"] and g["control_identity_1_complete"] and g["odd_order"]


def test_verify_theorem_control_c4_identity_fails():
    results, _, code = cmd_verify_theorem(["C4"])
    assert code == EXIT_OK
    (g,) = results["groups"]
    assert g["solvable"] and not g["control_identity_1_complete"]


def test_verify_theorem_a5():
    results, table, code = cmd_verify_theorem(["A5"])
    assert code == EXIT_OK
    (g,) = results["groups"]
    assert g["aut_size"] == 120 and g["all_fail"]
    assert len(table) == 120
    assert all(not row["verdict"] for row in table)
    # every failure row carries a colliding pair that really collides
    G = catalog_group("A5")
    from autmap.catalog import catalog_aut

    aut = catalog_aut("A5")
    for row in table:
        g1, g2 = (int(v) for v in row["certificate"].removeprefix("collision:").split("|"))
        alpha = aut.all[row["aut_index"]]
        assert G.mul(g1, alpha(g1)) == G.mul(g2, alpha(g2))


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-theorem", "--scope", "A5"],
        ["verify-theorem", "--scope", "PSL2(23)"],
        ["spectrum", "--group", "A5", "--k-min", "-2", "--k-max", "2"],
    ],
)
def test_forged_collision_fails_the_recheck(monkeypatch, capsys, argv):
    """A verdict whose image agrees at g and h, while the row's real
    displacements there differ, is caught before the report is emitted."""
    real, calls = cli.is_k_complete, []

    def forged(alpha, k):
        v = real(alpha, k)
        calls.append(alpha)
        if len(calls) == 8:
            G = alpha.parent
            h = next(x for x in range(1, G.n) if G.mul(G.power(x, k), alpha(x)) != 0)
            image = np.zeros(h + 1, dtype=np.int32)
            v = CompletenessVerdict(False, image, (0, h))
        return v

    monkeypatch.setattr(cli, "is_k_complete", forged)
    assert main(argv) == EXIT_THEOREM_VIOLATION
    assert "re-verification" in capsys.readouterr().err
    assert len(calls) > 8  # the forged row is not the last one scanned


def test_recheck_refuses_a_collision_of_an_element_with_itself():
    G = catalog_group("A5")
    reps = np.arange(G.n)[None]
    cli._reverify_failures(G, reps, np.empty((0, 5), dtype=np.int32))
    with pytest.raises(TheoremViolationError, match="re-verification"):
        cli._reverify_failures(G, reps, np.array([[0, 0, 5, 5, 1]]))


def test_verify_theorem_control_certificate_is_the_image():
    _, table, _ = cmd_verify_theorem(["C3"])
    (row,) = table
    values = sorted(int(v) for v in row["certificate"].removeprefix("image:").split(";"))
    assert values == [0, 1, 2]


def test_spectrum_c5_gcd_pattern():
    results, table, code = cmd_spectrum("C5", -2, 3, False, False, 10000)
    assert code == EXIT_OK
    identity_rows = [r for r in table if r["provenance"] == "inner(0)"]
    assert len(identity_rows) == 6  # the identity is always the first rep
    from math import gcd

    for row in identity_rows:
        assert row["k_complete"] == (gcd(row["k"] + 1, 5) == 1)


def test_spectrum_with_iterate():
    _, table, code = cmd_spectrum("S3", 1, 3, True, True, 10000)
    assert code == EXIT_OK
    for row in table:
        assert "iterate_bijective" in row


def test_spectrum_psl2_above_the_materialization_cap():
    # PSL2(23) has 6,072 elements and no table; its Aut(G) is built from
    # entry codes and its rows through mul_many
    results, table, code = cmd_spectrum("PSL2(23)", 1, 1, False, False, ORDER_CAP)
    assert code == EXIT_OK
    assert (results["order"], results["aut_size"]) == (6072, 12144)
    assert results["k_complete_counts"] == {"1": 0}
    assert [row["provenance"] for row in table] == ["inner(0)", "diagonal"]


def test_spectrum_k_limit():
    with pytest.raises(ValueError):
        cmd_spectrum("C5", -20, 3, False, False, 10000)


def test_witness_psl2_cmd():
    results, _, code = cmd_witness_psl2(7, 0)
    assert code == EXIT_OK
    assert results["verified"]
    assert results["variant"] == "q3mod4"


def test_witness_wreath_cmd():
    results, _, code = cmd_witness_wreath("A5", 3, seed=1, cap=10000)
    assert code == EXIT_OK
    assert results["verified"] and results["eq2_holds"]


def test_witness_wreath_over_a7(tmp_path):
    # A7, order 2520, has its Aut(G) from the brute search
    out = tmp_path / "w.json"
    assert main(["witness", "wreath", "--base", "A7", "--n", "3", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["results"]["verified"]


@pytest.mark.parametrize(
    "argv",
    [["witness", "wreath", "--base", "A5", "--n", "2"], ["mappings", "--group", "A5"]],
    ids=lambda argv: argv[0],
)
def test_negative_seed_is_a_usage_error(argv, capsys):
    assert main([*argv, "--seed", "-1"]) == EXIT_INPUT_ERROR
    assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err


def test_mappings_cmd():
    results, _, code = cmd_mappings("S3", cap=10000)
    assert code == EXIT_OK
    assert results["complete"]["status"] == "nonexistent"
    assert not results["hall_paige_predicts_existence"]
    results, _, code = cmd_mappings("Q8", cap=10000)
    assert code == EXIT_OK
    assert results["complete"]["status"] == "exists"


def test_mappings_out_of_budget_is_a_cap(monkeypatch, tmp_path):
    real = cli.find_orthomorphism
    monkeypatch.setattr(cli, "find_orthomorphism", lambda G: real(G, budget=1))
    out = tmp_path / "m.json"
    assert main(["mappings", "--group", "C3", "--out", str(out)]) == EXIT_CAP_EXCEEDED
    results = json.loads(out.read_text())["results"]
    assert results["orthomorphism"]["status"] == "indeterminate"
    assert not results["matches_prediction"]


def test_mappings_against_the_prediction_is_a_violation(monkeypatch, tmp_path):
    # C3 has odd order, so Hall-Paige predicts a complete mapping
    forged = MappingCertificate("C3", "complete", NONEXISTENT, None, 0)
    monkeypatch.setattr(cli, "find_complete_mapping", lambda G: forged)
    out = tmp_path / "m.json"
    assert main(["mappings", "--group", "C3", "--out", str(out)]) == EXIT_THEOREM_VIOLATION
    results = json.loads(out.read_text())["results"]
    assert results["complete"]["status"] == "nonexistent"
    assert not results["matches_prediction"]


def test_spectrum_of_the_trivial_group():
    # C1 has no generators: its one automorphism is the identity
    _, table, code = cmd_spectrum("C1", 1, 1, False, False, ORDER_CAP)
    assert code == EXIT_OK
    assert [(row["aut_index"], row["certificate"]) for row in table] == [(0, "image:0")]


# ---------------------------------------------------------------------------
# determinism of report digests
# ---------------------------------------------------------------------------


def test_digest_stable_across_parallelism(tmp_path):
    digests = set()
    for jobs in (1, 2, 4):
        out = tmp_path / f"jobs{jobs}.json"
        argv = ["verify-theorem", "--scope", "A5", "S5", "C3", "--jobs", str(jobs)]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        digests.add(json.loads(out.read_text())["manifest"]["digest"])
    assert len(digests) == 1


def test_pinned_report_digests():
    # also pinned in bench/expected.json: any change to a verdict, a
    # certificate or the row order shows here
    results, table, code = cmd_verify_theorem(None)
    assert code == EXIT_OK
    assert result_digest(results, table) == (
        "b6f7127dbaf8295f4fa11c5a5dbc5ffa9230ca4817db2767db5a6d729a2390e6"
    )
    results, table, code = cmd_witness_psl2(7, 0)
    assert code == EXIT_OK
    assert result_digest(results, table) == (
        "a51d54473e516e01b30d04f1ef9231d72598630b1602c089cddcb8b55818679d"
    )
    # control rows, and the catalog's names in the rows
    results, table, code = cmd_verify_theorem(["C3", "S4", "A5xC2"])
    assert code == EXIT_OK
    assert result_digest(results, table) == (
        "15e2ed400e445bd9748347fe89546e087bf0b97e9f6780978052dc27787a75e8"
    )
    # certificates past the first prefix: 40 PSL2(11) rows first collide
    # beyond 70 elements, and 262, 182 and 54 PSL2(19) rows beyond 70, 140
    # and 280
    results, table, code = cmd_verify_theorem(["PSL2(11)", "PSL2(19)"])
    assert code == EXIT_OK
    assert result_digest(results, table) == (
        "ea70b7cb694dc9718a2934d306fbffeeaeac150f997e34062bf7991200266218"
    )


@pytest.mark.parametrize(
    "expr, k_min, k_max, iterate, all_autos, digest",
    [
        # coset-rep order and provenance
        ("A5", -12, 12, False, False,
         "8c01c4ca5812c3d68a031d46eef2db9a4beb4e10878c3ac191133cedb21a0651"),
        # all-rows order, brute strategy
        ("S4", -4, 4, True, True,
         "b6e253fe749124395f2c35d103de2e6063a9fd6ecc67e74db6e944356b1be7c7"),
        # all-rows order and the structured provenance tags
        ("PSL2(13)", 1, 1, False, True,
         "2b9dfad95215695ecfdc006ab8cb46e2c4649ff13e43d2405f4fe047abe619be"),
        ("PGL2(5)", -3, 3, False, True,
         "63d6b5e9f737028251e69a4ee8d07c0cab6f69c86484e6002826e51fd6cd9acf"),
        # 1,152 coset rows from the brute search, in coset order
        ("Q8 x Q8", -2, 2, False, False,
         "13a06d706644ada6ee9a636e594756fc662f7827ceb4d2a41adefc3c8c8298b7"),
    ],
)
def test_pinned_spectrum_digests(expr, k_min, k_max, iterate, all_autos, digest):
    results, table, code = cmd_spectrum(expr, k_min, k_max, iterate, all_autos, ORDER_CAP)
    assert code == EXIT_OK
    assert result_digest(results, table) == digest


# every witness psl2 report for 4 <= q <= 27, each i < f; q = 9 and 25 at
# i >= 1 are the only ones whose exponent takes gcd(f, i) < f
PSL2_WITNESS_DIGESTS = {
    (4, 0): "0a9664a72568febd450f2a7c8abb828bd9586b394ad7ab6f4f2280777704ebc6",
    (4, 1): "135dc6b2a1c75f29b0a992347d7dc37a0ff583270cfb1de6d1425336282e379a",
    (5, 0): "2fd023eebf4b2a63f9035dfdd1e58953fa4b25c457bd58918f1e88638021eea9",
    (7, 0): "a51d54473e516e01b30d04f1ef9231d72598630b1602c089cddcb8b55818679d",
    (8, 0): "c63f2869b2aced2b98b32147809eb02ec78bdce42ed7dd41c4d5c0c5bb0eb1f0",
    (8, 1): "6215fd37e0324cba28478af63475d749c1de1ae107087760f290a86caedf8a5e",
    (8, 2): "e463da3f30e23a23efdc7fd35527450f4f30cc68ab52daa2b763d6549b7718fb",
    (9, 0): "375b42ad6847cc92df0f9411b82db0e397a9f699a77f3d0eeac24969e46f7805",
    (9, 1): "dbdbcf445065b45b54404b409802689ecf9c10d5dfe70f7c4cf0a4f765ff0592",
    (11, 0): "b9a8e004a3734e9bfae7970c7fe211d24f529ebf5cfdb6379704d629dd154615",
    (13, 0): "326d4b66f8f49431259b6a53bf7e1a38a7263f416efd788b844e992cce827bc0",
    (16, 0): "e2e2642e4d37e372287cb8f09a05c0c2af136b9dbd1b53638ee2756d2121509c",
    (16, 1): "52660732a3073f314516b45d25b3358ea1d2f84595daaeee14efa667ff342f0d",
    (16, 2): "4bc2c7f02887fe7eada268c7a06ad66ec5aed639bbae9606efd10eb37423e796",
    (16, 3): "7646e89d99d6e67d546a198941ee37b2d5218f60762bfa82c414a79ea780bffb",
    (17, 0): "0fe33c0b480262be615767e6effc807c983dcd06282898887c5ba586fa94df32",
    (19, 0): "a484a43e492a0233d12945a7ed0354ba4e198257861fc68e0609cdb3743894cd",
    (23, 0): "df3de93a652b5a1038907a8fc54ab56c2abce7b033350ccd60bef0ab3bd154ab",
    (25, 0): "889833eff4888d1bcf7921810ad977201a4f78ddf29b995afe116bb837e6b705",
    (25, 1): "0045a367875e7ff37fa1891e0fe970ebb091a903a271e53eafe6122ed29937a3",
    (27, 0): "88927579c955753f2c4f74fc02fd7991b4e54927d6a990d9f57584abe038c418",
    (27, 1): "9ad2a52f97b54a4d8bcb1035021b7b6bc8431f071559b553a20522847a40c703",
    (27, 2): "445c5bef48a0a036eb2e3efc1b35e742851f5a71bbdf7256b4fffaa64e33c3fc",
}


@pytest.mark.parametrize("q, i", sorted(PSL2_WITNESS_DIGESTS), ids=str)
def test_pinned_psl2_witness_digests(q, i):
    results, table, code = cmd_witness_psl2(q, i)
    assert code == EXIT_OK
    assert result_digest(results, table) == PSL2_WITNESS_DIGESTS[q, i]


# even cycles, and odd cycles (length 1 included) with the twist folded into
# each of coordinates 0 to 4; aut.all[j] indexing: the seed picks
# automorphisms by position
WREATH_DIGESTS = {
    ("A5", 2, 0): "879bf4e7a18c16a8245e20897f71c52d48a1df51c4f2f5df43190ed9223ff151",
    ("A5", 2, 1): "de4c760e688d4fefb7c87f3159205994f961c1d341adc836f12232cd6958225e",
    ("A5", 2, 2): "e4453926df00c956d869201e63065007102f331da4d8129bbb5647a97858992f",
    ("A5", 6, 0): "64b41fb7004e301c9a7f4d6759f3f78b5b6653bd7e51bbaefd89daa3c921fd69",
    ("A5", 6, 1): "0b4694fecd9a323321fd9a48344bf14d300b3b90bf4a62e512999b88fe1bc803",
    ("A5", 6, 2): "b77c259d296443ab386670cc6fe2e63d2603bfe4804604447475d77a35354a4a",
    ("A6", 1, 0): "a8e7374f2674eeead6395fb7b5a2bbca0e59acb2429f7adbece9b42a44074a0f",
    ("A6", 1, 1): "5b1475c270910c185522187987788b95f99cb2882c61ee8c77f6b0b8aae5b15a",
    ("A6", 1, 2): "4c3783e77b9e73d54285653475d0ef6e6e6025180db87a51e20c8cca3ed430c3",
    ("PSL2(7)", 3, 0): "2dc7379a050901f99b3205d035298460f2829ce0f505166b4bf712bbfee91d70",
    ("PSL2(7)", 3, 1): "5f870385a9022e266dbf86bf790d6bca0e035c12a50c144add63c68c8a9a7e0b",
    ("PSL2(7)", 3, 2): "ceced712cc5340e194e8780b77aacb22d007f877d329b43317d31e82e13385d9",
    ("PSL2(8)", 5, 0): "cfec4dcd4f0210d97e8711fc85b7648af408b6dc2b6e62cac091f58ddbea278a",
    ("PSL2(8)", 5, 1): "838680433e9e3b791cc01492f076a7b3adf7fff87371c4eaa7077ac5cb04e34f",
    ("PSL2(8)", 5, 2): "9fe7151689a7050a0b31512bb9bf14be1eac377ff865c87b5760390158059085",
}


def test_pinned_wreath_digest():
    for (base, n, seed), digest in WREATH_DIGESTS.items():
        results, table, code = cmd_witness_wreath(base, n, seed=seed, cap=ORDER_CAP)
        assert code == EXIT_OK
        assert result_digest(results, table) == digest, (base, n, seed)


def test_digest_ignores_wall_time():
    r, t, _ = cmd_mappings("C5", cap=10000)
    a = build_report("mappings", r, t, scope=["C5"], seed=0, caps={}, wall_time_s=0.5)
    b = build_report("mappings", r, t, scope=["C5"], seed=0, caps={}, wall_time_s=9.9)
    assert a["manifest"]["digest"] == b["manifest"]["digest"]


def test_wreath_witness_reproducible():
    a, _, _ = cmd_witness_wreath("A5", 2, seed=42, cap=10000)
    b, _, _ = cmd_witness_wreath("A5", 2, seed=42, cap=10000)
    assert a == b


# ---------------------------------------------------------------------------
# the executable surface
# ---------------------------------------------------------------------------


def test_main_writes_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["mappings", "--group", "C3", "--out", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    report = json.loads(text)
    assert report["schema_version"] == 1
    assert report["manifest"]["digest"] == result_digest(report["results"], report["table"])
    assert report["results"]["complete"]["status"] == "exists"
    # compact: sorted keys, no whitespace, one line
    assert text == json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize(
    "results, table",
    [
        ({"z": [1, 2.5, None], "a": "\u00e9"}, [{"k": 1, "group": "A5"}, {"b": True}]),
        ({}, []),
        cmd_mappings("S4", cap=ORDER_CAP)[:2],
    ],
)
def test_report_pieces_are_the_canonical_encoding(tmp_path, capsys, results, table):
    # the results and each table row are encoded once, as pieces; the digest
    # and the written bytes must equal those of the whole-payload encoding
    import hashlib

    from autmap.reports import canonical_json, write_report

    blob = canonical_json({"results": results, "table": table}).encode("ascii")
    assert result_digest(results, table) == hashlib.sha256(blob).hexdigest()
    report = build_report("spectrum", results, table, scope=["S4"], seed=3, caps={}, wall_time_s=1)
    assert report["manifest"]["digest"] == hashlib.sha256(blob).hexdigest()
    expected = canonical_json(report) + "\n"
    write_report(report, "json", str(tmp_path / "r.json"))
    assert (tmp_path / "r.json").read_text() == expected
    write_report(report, "json", None)
    assert capsys.readouterr().out == expected
    write_report(json.loads(expected), "json", None)  # a plain dict, as read back
    assert capsys.readouterr().out == expected


def test_main_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    code = main(["spectrum", "--group", "C5", "--k-min", "0", "--k-max", "2",
                 "--format", "csv", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("aut_index") or "k_complete" in lines[0]
    assert len(lines) > 1


def test_main_input_errors(tmp_path):
    assert main(["spectrum", "--group", "A5 x", "--k-min", "0", "--k-max", "1"]) == EXIT_INPUT_ERROR
    assert main(["spectrum", "--group", "PSL2(6)", "--k-min", "0", "--k-max", "1"]) == EXIT_INPUT_ERROR
    assert main(["spectrum", "--group", "PSL2(30)", "--k-min", "0", "--k-max", "1"]) == EXIT_INPUT_ERROR
    assert main(["spectrum", "--group", "S0", "--k-min", "0", "--k-max", "1"]) == EXIT_INPUT_ERROR
    assert main(["verify-theorem", "--scope", "M11"]) == EXIT_INPUT_ERROR
    # an empty --scope would run the default catalog, a repeated name twice
    assert main(["verify-theorem", "--scope"]) == EXIT_INPUT_ERROR
    assert main(["verify-theorem", "--scope", "A5", "C3", "A5"]) == EXIT_INPUT_ERROR
    assert main(["verify-theorem", "--scope", "A5", "--out", str(tmp_path)]) == EXIT_INPUT_ERROR
    missing = str(tmp_path / "missing" / "r.json")
    assert main(["verify-theorem", "--scope", "A5", "--out", missing]) == EXIT_INPUT_ERROR


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_is_an_input_error():
    # a buffered stdout fails at the flush, and again at exit unless dropped
    src = str(Path(autmap.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    with open("/dev/full", "w") as full:
        run = subprocess.run(
            [sys.executable, "-m", "autmap.cli", "mappings", "--group", "C3", "--format", "csv"],
            env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    assert run.returncode == EXIT_INPUT_ERROR
    assert run.stderr == "input error: cannot write report: [Errno 28] No space left on device\n"


# the two ways a process enters the CLI: `python -m autmap.cli`, and the
# `autmap` script, which calls the function named in pyproject.toml; an atexit
# handler prints the freeze count the interpreter's shutdown starts from
_ENTRY_SCRIPTS = {
    "-m": "import runpy; runpy.run_module('autmap.cli', run_name='__main__')",
    "script": "from autmap.cli import entry; sys.exit(entry())",
}
_ENTRY_PRELUDE = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print('freeze count', gc.get_freeze_count(), file=sys.stderr))\n"
)

ENTRY_ARGV = [
    ["mappings", "--group", "S4"],
    ["verify-theorem", "--scope", "A5", "C3", "--cap", "10"],
    ["witness", "psl2", "--q", "8", "--i", "1"],
    ["mappings", "--group", "A5", "--cap", "10"],
]


def _run_entry(how: str, argv: list[str]) -> subprocess.CompletedProcess:
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-c", _ENTRY_PRELUDE + _ENTRY_SCRIPTS[how], *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("argv", [*ENTRY_ARGV, ["mappings"], ["spectrum", "--help"]])
def test_main_changes_no_collector_state(argv, tmp_path, capsys):
    before = gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()
    try:
        main([*argv, "--out", str(tmp_path / "report.json")])
    except SystemExit:  # --help
        pass
    assert (gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()) == before


@pytest.mark.parametrize("how", sorted(_ENTRY_SCRIPTS))
@pytest.mark.parametrize("argv", ENTRY_ARGV, ids=" ".join)
def test_entry_exits_as_main_does_and_freezes_the_heap(how, argv, tmp_path):
    code = main([*argv, "--out", str(tmp_path / "main.json")])
    run = _run_entry(how, [*argv, "--out", str(tmp_path / "entry.json")])
    assert run.returncode == code, run.stderr
    last = run.stderr.splitlines()[-1]
    assert last.startswith("freeze count ") and last != "freeze count 0", run.stderr
    assert (tmp_path / "main.json").exists() == (tmp_path / "entry.json").exists()
    if (tmp_path / "main.json").exists():
        reports = [json.loads((tmp_path / f).read_text()) for f in ("main.json", "entry.json")]
        for report in reports:
            del report["manifest"]["wall_time_s"]
        assert reports[0] == reports[1]


@pytest.mark.parametrize("how", sorted(_ENTRY_SCRIPTS))
def test_entry_help_exits_zero_and_usage_error_three(how):
    assert _run_entry(how, ["--help"]).returncode == EXIT_OK
    assert _run_entry(how, ["mappings"]).returncode == EXIT_INPUT_ERROR


def test_autmap_script_is_the_module_entry():
    # read as text: tomllib is 3.11+ and the package supports 3.10
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip() == 'autmap = "autmap.cli:entry"'
    tree = ast.parse(Path(cli.__file__).read_text())
    (block,) = [
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert ast.unparse(block.body) == "entry()"


@pytest.mark.parametrize(
    "group",
    ["(" * 3000 + "C2" + ")" * 3000, " x ".join(["C1"] * 3000)],
    ids=["3000 parentheses", "3000 factors"],
)
def test_too_deep_group_expression_is_an_input_error(group):
    # the parser recurses once per parenthesis, and the order prediction and
    # the build once per product factor
    with pytest.raises(ParseError, match="too deeply"):
        elaborate_text(group)
    assert main(["mappings", "--group", group]) == EXIT_INPUT_ERROR


@pytest.mark.parametrize("n", ["1000000000", "-1"])
def test_wreath_copies_are_checked_before_any_draw(n):
    # n is the size of the draw of alphas, so it is refused before the draw
    assert main(["witness", "wreath", "--base", "A5", "--n", n]) == EXIT_INPUT_ERROR


def test_wreath_base_is_checked_before_its_aut():
    # A5 x C2^3 is not simple; its brute Aut search would stop at its cap
    argv = ["witness", "wreath", "--base", "A5 x C2 x C2 x C2", "--n", "2"]
    assert main(argv) == EXIT_INPUT_ERROR


def test_main_usage_errors_exit_as_input_errors():
    # argparse's own exit code 2 would read as a theorem-consistency violation
    assert main(["spectrum", "--group", "C0"]) == EXIT_INPUT_ERROR
    assert main([]) == EXIT_INPUT_ERROR
    assert main(["spectrum", "--group", "C5", "--k-min", "x", "--k-max", "1"]) == EXIT_INPUT_ERROR
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--help"])
    assert exc.value.code == 0


def test_common_flags_go_after_the_witness_kind(capsys):
    # given before the kind, a common flag would be overwritten by the kind's
    # own default, so it is refused as a usage error
    assert main(["witness", "--cap", "100", "psl2", "--q", "16"]) == EXIT_INPUT_ERROR
    argv = ["witness", "--seed", "5", "wreath", "--base", "A5", "--n", "2"]
    assert main(argv) == EXIT_INPUT_ERROR
    assert main(["witness", "psl2", "--cap", "100", "--q", "16"]) == EXIT_CAP_EXCEEDED
    with pytest.raises(SystemExit) as exc:
        main(["witness", "--help"])
    assert exc.value.code == 0


def test_main_unknown_catalog_group_message_is_unquoted(capsys):
    assert main(["verify-theorem", "--scope", "X"]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err.startswith("input error: unknown catalog group 'X'")


def test_cap_error_names_a_matrix_atom_with_parentheses(capsys):
    argv = ["spectrum", "--group", "PSL2(31)", "--k-min", "1", "--k-max", "1"]
    assert main(argv) == EXIT_CAP_EXCEEDED
    err = capsys.readouterr().err
    assert err == "cap exceeded: PSL2(31): predicted order 14880 exceeds cap 10000\n"


def test_main_cap_exceeded():
    assert main(["mappings", "--group", "S8"]) == EXIT_CAP_EXCEEDED
    # a degree above PERM_DEGREE_CAP is too large, as S8's order is
    assert main(["mappings", "--group", "S9"]) == EXIT_CAP_EXCEEDED
    assert main(["mappings", "--group", "A9"]) == EXIT_CAP_EXCEEDED
    assert main(["mappings", "--group", "A5", "--cap", "10"]) == EXIT_CAP_EXCEEDED
    assert main(["witness", "psl2", "--q", "7", "--cap", "10"]) == EXIT_CAP_EXCEEDED


def test_verify_theorem_honours_cap(tmp_path):
    out = tmp_path / "report.json"
    argv = ["verify-theorem", "--scope", "A5", "C3", "--cap", "10", "--out", str(out)]
    assert main(argv) == EXIT_CAP_EXCEEDED
    report = json.loads(out.read_text())
    assert report["results"]["groups"][0] == {
        "group": "A5",
        "error": "A5: predicted order 60 exceeds cap 10",
    }
    assert [row["group"] for row in report["table"]] == ["C3"]
    assert report["manifest"]["caps"] == {"order_cap": 10}


def test_cap_above_the_order_cap_is_not_in_force(tmp_path, capsys):
    # ORDER_CAP still bounds every build, so the manifest records that
    out = tmp_path / "report.json"
    argv = ["spectrum", "--group", "A5", "--k-min", "1", "--k-max", "1", "--cap", "20000"]
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["manifest"]["caps"] == {"order_cap": ORDER_CAP}
    argv = ["spectrum", "--group", "PSL2(29)", "--k-min", "1", "--k-max", "1", "--cap", "20000"]
    assert main(argv) == EXIT_CAP_EXCEEDED
    assert capsys.readouterr().err.endswith(f"exceeds cap {ORDER_CAP}\n")


@pytest.mark.parametrize("cap", ["0", "-3"])
@pytest.mark.parametrize(
    "argv", [["mappings", "--group", "A5"], ["verify-theorem"]], ids=lambda argv: argv[0]
)
def test_cap_below_one_is_a_usage_error(argv, cap, capsys):
    assert main([*argv, f"--cap={cap}"]) == EXIT_INPUT_ERROR
    assert f"argument --cap: must be at least 1, got {cap}" in capsys.readouterr().err
    assert main([*argv, "--cap", "x"]) == EXIT_INPUT_ERROR
    assert "argument --cap: invalid int value: 'x'" in capsys.readouterr().err


def test_main_uncovered_aut_strategy_exits_cap_exceeded():
    # a valid expression that no Aut strategy covers is a cap, not an input error
    group = " x ".join(["C2"] * 10)
    assert main(["spectrum", "--group", group, "--k-min", "1", "--k-max", "1"]) == EXIT_CAP_EXCEEDED


def test_large_prime_field_parameter_exits_cap_exceeded():
    # a q above ORDER_CAP is not factored: its order is over every cap
    argv = ["spectrum", "--group", "SL2(1000000007)", "--k-min", "1", "--k-max", "1"]
    assert main(argv) == EXIT_CAP_EXCEEDED


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--group", "SL2(1000000000000000003)", "--k-min", "1", "--k-max", "1"],
        ["witness", "psl2", "--q", "1000000000000000003"],
    ],
    ids=lambda argv: argv[0],
)
def test_huge_field_parameter_exits_cap_exceeded_at_once(argv):
    # trial division of this prime up to its square root would never finish
    import time

    start = time.perf_counter()
    assert main(argv) == EXIT_CAP_EXCEEDED
    assert time.perf_counter() - start < 1


def test_brute_aut_search_expansion_is_capped():
    # 64 elements, but 234,360 surviving tuples times 63 candidates at the
    # fourth generator: refused before the expansion is allocated
    import time

    group = " x ".join(["C2"] * 6)
    start = time.perf_counter()
    assert main(["spectrum", "--group", group, "--k-min", "1", "--k-max", "1"]) == EXIT_CAP_EXCEEDED
    assert time.perf_counter() - start < 10


def test_main_witness_subcommands(tmp_path):
    assert main(["witness", "psl2", "--q", "5", "--i", "0", "--out",
                 str(tmp_path / "w1.json")]) == EXIT_OK
    assert main(["witness", "wreath", "--base", "A5", "--n", "2", "--seed", "3",
                 "--out", str(tmp_path / "w2.json")]) == EXIT_OK


def test_inner_size_law_across_catalog():
    # |Inn(G)| = |G| / |Z(G)| for every catalog entry, and verify-theorem
    # reports it as inner_size
    from autmap.catalog import catalog_aut
    from autmap.groups import center

    for entry in CATALOG:
        G = catalog_group(entry.name)
        aut = catalog_aut(entry.name)
        assert len(inner_rows(aut)) == G.n // len(center(G)), entry.name
    results, _, _ = cmd_verify_theorem(None)
    for g in results["groups"]:
        G = catalog_group(g["group"])
        assert g["inner_size"] == G.n // len(center(G)), g["group"]
