import numpy as np
import pytest

from autmap.automorphisms import Automorphism, compute_aut, identity_automorphism
from autmap.completeness import is_k_complete
from autmap.errors import GroupBuildError, InvarianceError
from autmap.groups import (
    build_alternating,
    build_cyclic,
    build_symmetric,
    center,
    span_mask,
)
from autmap.parser import elaborate_text
from autmap.structure import (
    Subgroup,
    derived_series,
    full_subgroup,
    is_solvable,
    normal_subgroups,
    quotient,
    socle,
    solvable_radical,
    subgroup_closure,
    subgroup_table,
    transport_aut,
    trivial_subgroup,
)
from helpers import built, closure, quotient_reference

# ---------------------------------------------------------------------------
# derived series and solvability
# ---------------------------------------------------------------------------


def test_derived_series_s4():
    assert [len(s) for s in derived_series(build_symmetric(4))] == [24, 12, 4, 1]


def test_derived_series_a5_stabilizes():
    assert [len(s) for s in derived_series(build_alternating(5))] == [60, 60]


def test_derived_series_c6():
    assert [len(s) for s in derived_series(build_cyclic(6))] == [6, 1]


def test_derived_series_without_a_table():
    G = built("PSL2(23)")
    assert not G.is_materialized
    assert [len(s) for s in derived_series(G)] == [6072, 6072]


@pytest.mark.parametrize("text", ["S4", "D8", "Q8", "A5 x C2", "SL2(5)"])
def test_derived_series_closes_each_term_once(text, monkeypatch):
    import autmap.structure as structure

    G = built(text)
    calls = []

    def counted(*args):
        calls.append(args)
        return span_mask(*args)

    monkeypatch.setattr(structure, "span_mask", counted)
    series = derived_series(G)
    assert len(calls) == len(series) - 1
    # each term is the subgroup generated by every commutator of the last
    for H, nxt in zip(series, series[1:]):
        x, y = np.array(H.members)[:, None], np.array(H.members)[None, :]
        comm = G.mul_many(G.mul_many(G.inv[x], G.inv[y]), G.mul_many(x, y))
        assert nxt.members == tuple(sorted(closure(G, np.unique(comm).tolist())))


def test_subgroup_generators_span_its_members():
    G = build_symmetric(4)
    for H in (subgroup_closure(G, [1, 6]), Subgroup(G, subgroup_closure(G, [3]).members)):
        assert np.flatnonzero(span_mask(G, H.generators)[0]).tolist() == list(H.members)


def test_solvability():
    assert is_solvable(build_symmetric(4))
    assert not is_solvable(build_alternating(5))
    assert not is_solvable(elaborate_text("A5 x C2"))


# ---------------------------------------------------------------------------
# normal subgroup lattice
# ---------------------------------------------------------------------------


def test_normal_subgroups_a5_simple():
    assert [len(N) for N in normal_subgroups(build_alternating(5))] == [1, 60]


def test_normal_subgroups_s3():
    assert [len(N) for N in normal_subgroups(build_symmetric(3))] == [1, 3, 6]


def test_normal_subgroups_c6_all_four():
    assert [len(N) for N in normal_subgroups(build_cyclic(6))] == [1, 2, 3, 6]


def test_normal_subgroups_s4():
    assert [len(N) for N in normal_subgroups(build_symmetric(4))] == [1, 4, 12, 24]


def test_subgroup_validation():
    G = build_cyclic(6)
    with pytest.raises(GroupBuildError):
        Subgroup(G, (0, 1))  # not closed
    with pytest.raises(GroupBuildError):
        Subgroup(G, (1, 5))  # no identity


@pytest.mark.parametrize("members", [(0, 1, 1, 2), (0, 2, 1), (0, 3)])
def test_subgroup_members_must_increase_within_the_group(members):
    # repeated, unsorted, and an index equal to the order
    with pytest.raises(GroupBuildError):
        Subgroup(build_cyclic(3), members)


def _normal_by_definition(N: Subgroup) -> bool:
    G = N.parent
    mask = N.member_mask()
    return all(mask[G.mul(G.mul(g, m), G.inverse(g))] for g in range(G.n) for m in N.members)


def test_is_normal_matches_the_definition():
    for text in ("S4", "A5 x C2"):
        G = elaborate_text(text)
        for N in normal_subgroups(G):
            assert N.is_normal() and _normal_by_definition(N)
        non_normal = [subgroup_closure(G, [g]) for g in range(1, G.n, 7)]
        non_normal = [H for H in non_normal if not _normal_by_definition(H)]
        assert non_normal
        assert not any(H.is_normal() for H in non_normal)


# ---------------------------------------------------------------------------
# radical and socle
# ---------------------------------------------------------------------------


def test_solvable_radical_examples():
    G = elaborate_text("A5 x C6")
    rad = solvable_radical(G)
    assert len(rad) == 6
    # the C6 factor is {(identity, j)}: indices j since index = i*6 + j
    assert rad.members == tuple(range(6))
    assert len(solvable_radical(build_symmetric(4))) == 24
    assert len(solvable_radical(build_alternating(5))) == 1


def test_socle_examples():
    A5 = build_alternating(5)
    assert len(socle(A5)) == 60
    assert len(socle(build_cyclic(6))) == 6  # join of C2 and C3
    G = elaborate_text("A5 x C2")
    assert len(socle(G)) == 120
    assert len(socle(build_cyclic(4))) == 2  # unique minimal C2


def test_radical_is_solvable_normal_and_maximal():
    for text in ("S4", "A5 x C6", "Q8", "A5"):
        G = elaborate_text(text)
        rad = solvable_radical(G)
        assert rad.is_normal()
        assert is_solvable(subgroup_table(G, rad)[0])
        assert (len(rad) == G.n) == is_solvable(G)


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, normal",
    [("S3", "(1 2 3)"), ("A5 x C2", "center"), ("SL2(17)", "center"), ("S4", "trivial"),
     ("A5", "full"), ("C4096", "full")],
)
def test_quotient_matches_the_coset_walk(text, normal):
    # C4096's one generator moves a point around one 4096-cycle
    G = built(text)
    N = {
        "center": lambda: Subgroup(G, tuple(center(G))),
        "trivial": lambda: trivial_subgroup(G),
        "full": lambda: full_subgroup(G),
    }.get(normal, lambda: subgroup_closure(G, [G.labels.index(normal)]))()
    Q, proj = quotient(G, N)
    reps, ref_proj = quotient_reference(G, N)
    assert Q.meta["coset_reps"].tolist() == reps and np.array_equal(proj, ref_proj)
    assert Q.n == G.n // len(N)


def test_quotient_s3_by_a3():
    G = build_symmetric(3)
    N = normal_subgroups(G)[1]
    Q, proj = quotient(G, N)
    assert Q.n == 2
    assert sorted(np.unique(proj)) == [0, 1]


def test_quotient_by_trivial_is_relabeling():
    G = build_symmetric(3)
    Q, proj = quotient(G, trivial_subgroup(G))
    assert Q.n == G.n
    assert np.array_equal(Q.require_table(), G.require_table())


def test_quotient_of_a5xc2_by_c2():
    G = elaborate_text("A5 x C2")
    N = next(N for N in normal_subgroups(G) if N.members == (0, 1))
    Q, _ = quotient(G, N)
    assert Q.n == 60
    assert not is_solvable(Q)


def test_quotient_of_sl2_17_by_its_center():
    G = built("SL2(17)")
    Q, _ = quotient(G, Subgroup(G, tuple(center(G))))
    assert Q.n == 2448
    assert not is_solvable(Q)


def test_quotient_requires_normal():
    G = build_symmetric(3)
    t = subgroup_closure(G, [1])  # a reflection's <(1 2)>-style subgroup
    if not t.is_normal():
        with pytest.raises(GroupBuildError):
            quotient(G, t)


# ---------------------------------------------------------------------------
# automorphism transport
# ---------------------------------------------------------------------------


def test_restrict_identity():
    G = build_cyclic(6)
    N = next(N for N in normal_subgroups(G) if len(N) == 3)
    r = transport_aut(identity_automorphism(G), N, "restrict")
    assert r.is_identity()


def test_induce_by_full_group():
    G = build_symmetric(3)
    full = normal_subgroups(G)[-1]
    q = transport_aut(identity_automorphism(G), full, "induce")
    assert q.parent.n == 1 and q.is_identity()


def test_transport_c6_inversion():
    G = build_cyclic(6)
    inv_aut = Automorphism(G, G.inv)
    N = next(N for N in normal_subgroups(G) if len(N) == 3)
    r = transport_aut(inv_aut, N, "restrict")
    assert np.array_equal(r.images, r.parent.inv)
    for k in (-1, 1):
        if is_k_complete(inv_aut, k).verdict:
            assert is_k_complete(r, k).verdict
            assert is_k_complete(transport_aut(inv_aut, N, "induce"), k).verdict


def test_transport_requires_invariance():
    G = build_cyclic(9)
    sq = Automorphism(G, [(2 * x) % 9 for x in range(9)])
    N3 = next(N for N in normal_subgroups(G) if len(N) == 3)
    assert N3.is_invariant_under(sq)  # characteristic, so fine
    S3 = build_symmetric(3)
    A = compute_aut(S3, "brute")
    N = normal_subgroups(S3)[1]
    # A3 is characteristic in S3: every automorphism keeps it
    assert N.is_characteristic(A.all)
    # a genuinely non-invariant case: swap factors is impossible here, so
    # build one on C2 x C2 where coordinate swap moves a factor
    V = elaborate_text("C2 x C2")
    swap = Automorphism(V, [0, 2, 1, 3])
    factor = next(N for N in normal_subgroups(V) if N.members == (0, 1))
    with pytest.raises(InvarianceError):
        transport_aut(swap, factor, "restrict")


def test_lemma_transport_sweep_small():
    # preservation of k-completeness under induce/restrict on a few groups
    for text in ("C6", "S3", "D4", "Q8", "C2 x C4"):
        G = elaborate_text(text)
        A = compute_aut(G, "brute")
        normals = normal_subgroups(G)
        for alpha in A.all:
            for N in normals:
                if not N.is_invariant_under(alpha):
                    continue
                targets = {
                    "induce": quotient(G, N),
                    "restrict": subgroup_table(G, N),
                }
                for k in (-1, 1, 3):
                    if not is_k_complete(alpha, k).verdict:
                        continue
                    for mode in ("induce", "restrict"):
                        moved = transport_aut(alpha, N, mode, target=targets[mode])
                        assert is_k_complete(moved, k).verdict
