import json

import numpy as np
import pytest

from autmap.automorphisms import compute_aut, identity_automorphism
from autmap.errors import GroupBuildError
from autmap.groups import build_alternating, build_psl2, build_symmetric
from autmap.witnesses import (
    InvertedWitness,
    WreathAut,
    find_inverted_witness,
    psl2_witness,
)
from helpers import inner_rows


@pytest.fixture(scope="module")
def a5():
    return build_alternating(5)


@pytest.fixture(scope="module")
def aut_a5(a5):
    return compute_aut(a5, "brute")


# ---------------------------------------------------------------------------
# wreath application
# ---------------------------------------------------------------------------


def test_wreath_identity_map(a5):
    ident = identity_automorphism(a5)
    w = WreathAut(a5, 3, (ident, ident, ident), (0, 1, 2))
    assert w.apply((5, 9, 13)) == (5, 9, 13)


def test_wreath_swap_pattern(a5):
    ident = identity_automorphism(a5)
    w = WreathAut(a5, 2, (ident, ident), (1, 0))
    a = 17
    assert w.apply((a, 0)) == (0, a)


def test_wreath_respects_products(a5, aut_a5):
    rng = np.random.default_rng(7)
    alphas = tuple(aut_a5.all[i] for i in rng.integers(0, len(aut_a5.all), size=2))
    w = WreathAut(a5, 2, alphas, (1, 0))
    for _ in range(50):
        u = tuple(int(x) for x in rng.integers(0, 60, size=2))
        v = tuple(int(x) for x in rng.integers(0, 60, size=2))
        uv = tuple(a5.mul(a, b) for a, b in zip(u, v))
        wu, wv = w.apply(u), w.apply(v)
        assert w.apply(uv) == tuple(a5.mul(a, b) for a, b in zip(wu, wv))


def test_wreath_rejects_non_automorphism_alpha(a5):
    ident = identity_automorphism(a5)
    with pytest.raises(GroupBuildError):
        WreathAut(a5, 2, (ident, np.arange(60, dtype=np.int32)), (1, 0))


def test_wreath_validation(a5):
    ident = identity_automorphism(a5)
    with pytest.raises(GroupBuildError):
        WreathAut(a5, 2, (ident, ident), (0, 0))  # not a permutation
    other = build_symmetric(3)
    with pytest.raises(GroupBuildError):
        WreathAut(a5, 1, (identity_automorphism(other),), (0,))
    with pytest.raises(GroupBuildError, match="n <= 6"):
        WreathAut(a5, 7, (ident,) * 7, tuple(range(7)))  # over WITNESS_MAX_COPIES


# ---------------------------------------------------------------------------
# inverted witnesses for wreath automorphisms
# ---------------------------------------------------------------------------


def test_witness_even_cycle_identity_alphas(a5):
    ident = identity_automorphism(a5)
    w = WreathAut(a5, 2, (ident, ident), (1, 0))
    wit = find_inverted_witness(w)
    assert wit.verified
    assert wit.cycle_used == (0, 1)
    s = wit.vector[1]
    assert s != 0
    assert wit.vector[0] == a5.inverse(s)  # s_1 = id(s_2)^-1


def test_witness_single_coordinate_identity(a5):
    w = WreathAut(a5, 1, (identity_automorphism(a5),), (0,))
    wit = find_inverted_witness(w)
    assert wit.verified
    (t,) = wit.vector
    # the scan finds an involution: the identity coset member inverts it
    assert t != 0 and a5.inverse(t) == t


def test_witness_three_cycle_random_alphas(a5, aut_a5):
    rng = np.random.default_rng(3)
    alphas = tuple(aut_a5.all[i] for i in rng.integers(0, len(aut_a5.all), size=3))
    w = WreathAut(a5, 3, alphas, (1, 2, 0))
    wit = find_inverted_witness(w)
    assert wit.verified
    image = wit.wreath.apply(wit.vector)
    assert image == tuple(a5.inverse(x) for x in wit.vector)


def test_witness_mixed_cycle_types(a5, aut_a5):
    # sigma = (0 1)(2): cycle through the least moved coordinate is (0 1)
    ident = identity_automorphism(a5)
    w = WreathAut(a5, 3, (ident, ident, ident), (1, 0, 2))
    wit = find_inverted_witness(w)
    assert wit.cycle_used == (0, 1)
    assert wit.vector[2] == 0


@pytest.mark.parametrize("seed", range(12))
def test_witness_random_trials_a5(a5, aut_a5, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    alphas = tuple(aut_a5.all[i] for i in rng.integers(0, len(aut_a5.all), size=n))
    sigma = tuple(int(x) for x in rng.permutation(n))
    wit = find_inverted_witness(WreathAut(a5, n, alphas, sigma))
    assert wit.verified
    assert any(x != 0 for x in wit.vector)


def test_witness_twist_stays_in_coset(a5, aut_a5):
    # odd cycle with a non-identity alpha: the twisted coordinate still lies
    # in the original alpha's inner coset
    alpha = next(a for a in aut_a5.all if not a.is_identity())
    w = WreathAut(a5, 1, (alpha,), (0,))
    wit = find_inverted_witness(w)
    if wit.twisted_coord is not None:
        tw = wit.wreath.alphas[0]
        shift = alpha.inverse().compose(tw)
        inner_keys = {i.key for i in inner_rows(aut_a5)}
        assert shift.key in inner_keys


def test_wreath_witness_over_psl2_13():
    # PSL2(13) has 1,092 elements, past the normal-subgroup lattice cap, so
    # the simplicity test must not need the lattice
    from autmap.cli import cmd_witness_wreath

    results, _, code = cmd_witness_wreath("PSL2(13)", 2, 0, 10_000)
    assert code == 0
    assert results["verified"] and results["eq2_holds"]


@pytest.mark.parametrize(
    "text", ["A5", "PSL2(7)", "A6", "PSL2(8)", "S5", "A5 x C2", "SL2(5)", "C5"]
)
def test_simplicity_by_class_closures_matches_the_lattice(text):
    from autmap.parser import elaborate_text
    from autmap.structure import normal_subgroups
    from autmap.witnesses import is_nonabelian_simple

    S = elaborate_text(text)
    T = S.require_table()
    by_lattice = not np.array_equal(T, T.T) and len(normal_subgroups(S)) == 2
    assert is_nonabelian_simple(S) == by_lattice == (text in ("A5", "PSL2(7)", "A6", "PSL2(8)"))


def test_witness_rejects_solvable_base():
    S3 = build_symmetric(3)
    with pytest.raises(GroupBuildError):
        find_inverted_witness(WreathAut(S3, 1, (identity_automorphism(S3),), (0,)))


# ---------------------------------------------------------------------------
# PSL2 witnesses
# ---------------------------------------------------------------------------


def test_psl2_witness_q5():
    wit = psl2_witness(5, 0, "q1mod4")
    assert wit.verified
    assert wit.exponent == 2  # (5-1)/2
    # the element is the class of diag(-1,1), canonically diag(1,-1)
    assert wit.group.labels[wit.element] == "[1 0; 0 4]"


def test_psl2_witness_q7():
    wit = psl2_witness(7, 0, "q3mod4")
    assert wit.verified
    # class of [0 1; -1 0]
    assert wit.group.labels[wit.element] == "[0 1; 6 0]"
    # inverted: the representative fixes the involution
    assert wit.coset_rep(wit.element) == wit.element


def test_psl2_witness_q4_char2():
    G = build_psl2(4)
    for i in range(2):
        wit = psl2_witness(4, i, "char2", group=G)
        assert wit.verified
        assert G.labels[wit.element] == "[1 1; 0 1]"


def test_psl2_witness_q9_both_indices():
    G = build_psl2(9)
    for i in range(2):
        wit = psl2_witness(9, i, "q1mod4", group=G)
        assert wit.verified
        assert wit.exponent == (4 if i == 0 else 2)


def test_psl2_witness_runs_without_a_table():
    # the witness validates its automorphism through mul_many and makes two
    # scalar products, so its group's 32 MiB table is never built
    import tracemalloc

    from autmap.groups import blocks

    tracemalloc.start()
    try:
        wit = psl2_witness(16, 0, "char2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    G = wit.group
    assert wit.verified and not G.is_materialized
    assert peak < 8 * 2**20
    T = G.table  # a later read builds the table, equal to the on-demand products
    assert G.is_materialized
    idx = np.arange(G.n, dtype=np.int64)
    for rows in blocks(G.n, G.n):
        assert np.array_equal(T[rows], G._mul_many_fn(idx[rows, None], idx))


@pytest.mark.parametrize("q", [5, 9, 13, 17])
def test_psl2_cross_check_reads_the_representative(q, monkeypatch):
    # the identity fixes, so inverts, every involution: only the check that
    # the representative's power is conjugation by diag(-1, 1) rejects it
    import autmap.witnesses
    from autmap.errors import TheoremViolationError

    monkeypatch.setattr(autmap.witnesses, "psl2_map", lambda G, nmat, i: np.arange(G.n))
    with pytest.raises(TheoremViolationError, match="diag"):
        psl2_witness(q, 0, "q1mod4")


def test_psl2_transcript_is_formed_once(monkeypatch):
    # an element of order 3 in place of the involution fails the order
    # check: the witness records it, and the command reports it with exit 2
    import autmap.witnesses
    from autmap.cli import EXIT_THEOREM_VIOLATION, cmd_witness_psl2
    from autmap.groups import element_orders

    def order_3(G, entries):
        return int(np.flatnonzero(element_orders(G) == 3)[0])

    monkeypatch.setattr(autmap.witnesses, "matrix_index", order_3)
    wit = psl2_witness(7, 0, "q3mod4")
    assert wit.transcript["element_is_nontrivial"]
    assert not wit.transcript["element_order_2"] and not wit.verified
    results, table, code = cmd_witness_psl2(7, 0)
    assert code == EXIT_THEOREM_VIOLATION
    assert results["transcript"] == wit.transcript
    assert not results["verified"] and not table[0]["verified"]


def test_psl2_witness_variant_validation():
    with pytest.raises(ValueError):
        psl2_witness(5, 0, "q3mod4")
    with pytest.raises(ValueError):
        psl2_witness(7, 1, "q3mod4")  # i out of range (f = 1)


def test_inverted_witness_rejects_trivial(a5):
    ident = identity_automorphism(a5)
    w = WreathAut(a5, 2, (ident, ident), (1, 0))
    from autmap.errors import TheoremViolationError

    with pytest.raises(TheoremViolationError):
        InvertedWitness(wreath=w, vector=(0, 0), cycle_used=(0, 1), twisted_coord=None)


def test_wreath_witness_over_psl2_23(tmp_path):
    # PSL2(23) has 6,072 elements, past the materialization cap, so the
    # odd-cycle scan must multiply on demand
    from autmap.cli import EXIT_OK, main

    out = tmp_path / "wreath.json"
    argv = ["witness", "wreath", "--base", "PSL2(23)", "--n", "1", "--out", str(out)]
    assert main(argv) == EXIT_OK
    results = json.loads(out.read_text())["results"]
    assert results["verified"] and results["eq2_holds"]
