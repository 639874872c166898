"""
The set-up of a decomposition against its references in oracles.py: the
simples a set of atom classes generates, read from one atom stripping, and
the quasi-central closures, read off the atom classes.
"""

import itertools
from collections import Counter

import pytest

from garside import atom_classes, build, delta_of_simple, germ_from_spec
from garside.germ import _atom_lengths

from oracles import abelian_by_braid3_germ, closure_table, generated_simples

SPECS = (["wreath"] + [f"braid:{n}" for n in range(2, 6)] + [f"abelian:{k}" for k in range(4)]
         + ["prod:braid:3,abelian:1", "prod:braid:4,braid:3", "prod:wreath,wreath",
            "prod:abelian:1,abelian:1", "prod:braid:4,abelian:4", "abelian:3><braid:3"])


@pytest.fixture(scope="module", params=SPECS)
def germ(request):
    if request.param == "abelian:3><braid:3":
        return abelian_by_braid3_germ()
    return germ_from_spec(request.param)


def test_atom_stripping_matches_generated_simples(germ):
    assert _atom_lengths(germ, germ.atoms) == germ.atom_len
    classes = atom_classes(germ).classes
    for r in range(len(classes) + 1):
        for chosen in itertools.combinations(classes, r):
            atoms = [a for block in chosen for a in block]
            lens = _atom_lengths(germ, atoms)
            assert [s for s, k in enumerate(lens) if k >= 0] == generated_simples(germ, atoms)


def test_closures_on_request_match_the_eager_table(germ):
    # atoms first, as build asks for them, then every simple
    atom_first = list(germ.atoms) + list(range(len(germ)))
    expected = closure_table(germ)
    assert [delta_of_simple(germ, s) for s in atom_first] == [expected[s] for s in atom_first]


def test_build_computes_the_closures_of_the_atoms_only(monkeypatch):
    # build asks for the atom classes; each atom's closure walk reads the
    # atom successors of what it reaches (27 of 144 simples), and no other
    # simple's closure is computed
    g = germ_from_spec("prod:braid:4,braid:3")
    reached, frontier = set(g.atoms), list(g.atoms)
    while frontier:
        x = frontier.pop()
        for a in g.atoms:
            if (y := g.lcomp(a, x)) not in reached:
                reached.add(y)
                frontier.append(y)
    reads, lcomp = Counter(), g.lcomp

    def counted(a, x):
        reads[x] += 1
        return lcomp(a, x)

    monkeypatch.setattr(g, "lcomp", counted)
    build(g, [g.simple(nm) for nm in ("1243*1", "1324*1", "2134*1")])
    assert "qz_delta" not in g._memo and len(g.atoms) == 5
    assert set(reads) == reached and len(reached) == 27
