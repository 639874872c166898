"""
The enumerators of oracles.py, which the tests enumerate through, against
the library: normal words by recursion against the words the normal-form
acceptor accepts, and elements breadth first by multiplication by atoms
against the normal forms of those words.
"""

import pytest

from garside import atom_classes, build_nf_automaton, germ_from_spec
from garside import element as el
from garside.germ import _atom_lengths

from oracles import abelian_by_braid3_germ, elements_by_levels, normal_words_recursive

SPECS = (["wreath"] + [f"braid:{n}" for n in range(2, 6)] + [f"abelian:{k}" for k in range(4)]
         + ["prod:braid:3,abelian:1", "prod:braid:4,braid:3", "abelian:3><braid:3"])


@pytest.fixture(scope="module", params=SPECS)
def germ(request):
    if request.param == "abelian:3><braid:3":
        return abelian_by_braid3_germ()
    return germ_from_spec(request.param)


def _alphabets(g):
    """The proper letters of the whole germ, of the first atom class (G) and of the rest (H)."""
    classes = atom_classes(g).classes
    first = list(classes[0]) if classes else []
    rest = [a for a in g.atoms if a not in first]
    full = [s for s in range(len(g)) if s != g.unit]
    return [full] + [[s for s, k in enumerate(_atom_lengths(g, atoms)) if k > 0]
                     for atoms in (first, rest)]


def _accepted_words(g, a, alphabet, budget):
    """The words over the alphabet with total atom length <= budget that the acceptor
    accepts, grown one letter at a time along its transitions."""
    found, stack = [], [((), 0, budget)]
    while stack:
        word, state, left = stack.pop()
        found.append(word)
        for s in alphabet:
            if g.atom_len[s] <= left and (nxt := a.step(state, s)) != a.dead:
                stack.append((word + (s,), nxt, left - g.atom_len[s]))
    return found


def test_normal_words_are_the_words_the_acceptor_accepts(germ):
    a = build_nf_automaton(germ, "full")
    for alphabet in _alphabets(germ):
        for budget in range(6):
            words = list(normal_words_recursive(germ, alphabet, budget))
            assert len(set(words)) == len(words)
            assert set(words) == set(_accepted_words(germ, a, alphabet, budget))


def test_elements_by_levels_are_the_normal_words_multiplied_out(germ):
    full = _alphabets(germ)[0]
    for n in range(5):
        elems = list(elements_by_levels(germ, n))
        assert len(set(elems)) == len(elems)
        assert all(el.is_normal(germ, x) and el.atom_length(germ, x) <= n for x in elems)
        # one normal word per element: the words and the elements are equinumerous
        words = list(normal_words_recursive(germ, full, n))
        assert len(words) == len(elems)
        assert {el.normal_form(germ, w) for w in words} == set(elems)
