"""
The enumerators of element.py against their references in oracles.py:
normal words by recursion, and elements breadth first by multiplication
by atoms.
"""

import pytest

from garside import atom_classes, germ_from_spec
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


def test_iter_elements_matches_the_breadth_first_reference(germ):
    for n in range(5):
        assert list(el.iter_elements(germ, n)) == list(elements_by_levels(germ, n))


def test_normal_words_match_the_recursive_reference(germ):
    for alphabet in _alphabets(germ):
        for budget in range(6):
            assert (list(el.normal_words(germ, alphabet, budget))
                    == list(normal_words_recursive(germ, alphabet, budget)))


def test_normal_words_are_not_bounded_by_the_recursion_limit(wreath):
    # a|a is normal, so each length up to the budget has exactly one word
    a = wreath.simple("a")
    words = list(el.normal_words(wreath, (a,), 5000))
    assert len(words) == 5001
    assert words[-1] == (a,) * 5000
