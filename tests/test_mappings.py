import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import autmap
from autmap.groups import build_cyclic, build_dihedral, build_quaternion8, build_symmetric
from autmap.mappings import (
    EXISTS,
    INDETERMINATE,
    NONEXISTENT,
    find_complete_mapping,
    find_orthomorphism,
    hall_paige_predict,
)
from autmap.parser import elaborate_text


def test_c2_has_no_complete_mapping():
    assert find_complete_mapping(build_cyclic(2)).status == NONEXISTENT


def test_c3_has_complete_mapping_identity_qualifies():
    cert = find_complete_mapping(build_cyclic(3))
    assert cert.status == EXISTS
    # the very first mapping in search order is the identity (odd order)
    assert cert.mapping == (0, 1, 2)


def test_d4_has_complete_mapping():
    assert find_complete_mapping(build_dihedral(4)).status == EXISTS


def test_orthomorphism_examples():
    assert find_orthomorphism(build_cyclic(2)).status == NONEXISTENT
    c3 = find_orthomorphism(build_cyclic(3))
    assert c3.status == EXISTS
    assert find_orthomorphism(build_cyclic(5)).status == EXISTS


def test_orthomorphism_c3_doubling_qualifies():
    G = build_cyclic(3)
    f = find_orthomorphism(G).mapping
    # re-verify by hand: g^-1 f(g) runs over everything
    assert sorted(G.mul(G.inverse(g), f[g]) for g in range(3)) == [0, 1, 2]


def test_hall_paige_predictions():
    assert not hall_paige_predict(build_symmetric(3))
    assert hall_paige_predict(build_quaternion8())
    assert hall_paige_predict(build_cyclic(7))
    assert not hall_paige_predict(build_cyclic(16))


# One expression for each of the 59 isomorphism classes of groups of order
# <= 24 that the grammar can express (checked by brute-force isomorphism
# against all 267 sorted products of atoms), plus C2 x C2 x C2 x C3, a second
# table of the class of C2 x C2 x C6.
ORDER_AT_MOST_24 = [
    "C1", "C2", "C3", "C4", "C2 x C2", "C5", "C6", "S3", "C7",
    "C8", "C2 x C4", "C2 x C2 x C2", "D4", "Q8", "C9", "C3 x C3", "C10", "D5", "C11",
    "C12", "C2 x C6", "A4", "D6", "C13", "C14", "D7", "C15",
    "C16", "C2 x C8", "C4 x C4", "C2 x C2 x C4", "C2 x C2 x C2 x C2", "C2 x D4", "C2 x Q8", "D8",
    "C17", "C18", "C3 x C6", "D9", "C3 x S3", "C19", "C20", "C2 x C10", "D10",
    "C21", "C22", "D11", "C23",
    "C24", "C2 x C12", "C2 x C2 x C6", "C2 x C2 x C2 x C3", "C2 x A4", "C2 x D6", "C3 x D4",
    "Q8 x C3", "C4 x S3", "D12", "S4", "SL2(3)",
]
BEYOND_ORDER_24 = ["C25", "C45", "C99", "D30", "A5", "S5", "PSL2(7)"]


@pytest.mark.parametrize("text", ORDER_AT_MOST_24 + BEYOND_ORDER_24)
def test_search_agrees_with_characterization(text):
    G = elaborate_text(text)
    pred = hall_paige_predict(G)
    c = find_complete_mapping(G)
    o = find_orthomorphism(G)
    assert c.status != INDETERMINATE and o.status != INDETERMINATE
    assert (c.status == EXISTS) == pred
    assert (o.status == EXISTS) == pred


def test_budget_exhaustion_is_indeterminate():
    cert = find_complete_mapping(build_symmetric(4), budget=100)
    assert cert.status == INDETERMINATE
    assert cert.mapping is None


# S4 and D50, both kinds; D50's orthomorphism is found only after restarts
# (past pass 0's cutoff of 4n = 400 nodes), so the seeded shuffles count too
_DETERMINISM_SCRIPT = """
import json
from autmap.groups import build_dihedral, build_symmetric
from autmap.mappings import find_complete_mapping, find_orthomorphism
certs = [f(G) for G in (build_symmetric(4), build_dihedral(50))
         for f in (find_complete_mapping, find_orthomorphism)]
print(json.dumps([[list(c.mapping), c.nodes] for c in certs]))
"""


def test_search_is_deterministic():
    G = build_symmetric(4)
    a = find_complete_mapping(G)
    b = find_complete_mapping(G)
    assert a.mapping == b.mapping and a.nodes == b.nodes
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(_DETERMINISM_SCRIPT, {})
    assert json.loads(here.getvalue())[3][1] > 400
    src = str(Path(autmap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=src)
    there = subprocess.run(
        [sys.executable, "-c", _DETERMINISM_SCRIPT],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    assert there.stdout == here.getvalue()


def test_c1001_search_runs_without_recursion():
    G = build_cyclic(1001)
    cert = find_complete_mapping(G, budget=5000)
    assert cert.status == INDETERMINATE and cert.nodes == 5000
    cert = find_orthomorphism(G)
    assert cert.status == EXISTS
    assert sorted(G.mul(G.inverse(g), cert.mapping[g]) for g in range(G.n)) == list(range(G.n))


def test_returned_mappings_reverify():
    for text in ("C5", "D4", "Q8", "A4"):
        G = elaborate_text(text)
        cert = find_complete_mapping(G)
        f = cert.mapping
        assert sorted(f) == list(range(G.n))
        assert sorted(G.mul(g, f[g]) for g in range(G.n)) == list(range(G.n))
