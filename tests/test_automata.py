import itertools
from pathlib import Path

import pytest

from garside import (build, build_factor_automaton, build_nf_automaton,
                     count_accepted, enumerate_accepted, export,
                     free_abelian_germ, germ_from_spec,
                     project_product_to_pair, translate_pair_to_product)

GOLDEN = Path(__file__).parent / "golden"


def test_build_wreath_proper(wreath):
    a = build_nf_automaton(wreath, "proper")
    assert len(a.letters) == 6
    assert a.n_states == 8
    s = wreath.simple
    assert a.accepts([s("c"), s("c")])
    assert not a.accepts([s("a"), s("bc")])
    assert a.accepts([])


def test_step_off_the_alphabet_goes_dead(wreath):
    a = build_nf_automaton(wreath, "proper")
    s = wreath.simple
    assert a.position == {x: i for i, x in enumerate(a.letters)}
    assert a.step(0, wreath.delta) == a.dead
    assert a.step(0, wreath.unit) == a.dead
    assert a.step(a.step(0, s("a")), len(wreath)) == a.dead
    assert not a.accepts([s("c"), wreath.delta])


def test_trivial_germ_accepts_only_empty():
    g = free_abelian_germ(0)
    a = build_nf_automaton(g, "proper")
    assert a.letters == ()
    assert a.accepts([])
    assert count_accepted(a, 0) == 1
    assert count_accepted(a, 1) == 0


def test_full_variant_keeps_delta(wreath):
    a = build_nf_automaton(wreath, "full")
    assert len(a.letters) == 7
    d = wreath.delta
    s = wreath.simple
    assert a.accepts([d, d, s("a")])
    assert not a.accepts([s("a"), d])


def test_count_and_enumerate(wreath):
    a = build_nf_automaton(wreath, "proper")
    assert count_accepted(a, 0) == 1
    assert count_accepted(a, 1) == 6
    # length-2 count against a direct pair scan over the germ
    proper = wreath.proper_simples()
    brute = sum(1 for x in proper for y in proper if wreath.normal_pair(x, y))
    assert count_accepted(a, 2) == brute
    assert len(enumerate_accepted(a, 2)) == brute
    with pytest.raises(ValueError):
        enumerate_accepted(a, 6, limit=10)


def test_language_matches_definition(wreath, b3):
    for g in (wreath, b3):
        a = build_nf_automaton(g, "proper")
        proper = g.proper_simples()
        for n in range(4):
            expected = {w for w in itertools.product(proper, repeat=n)
                        if all(g.normal_pair(w[i], w[i + 1]) for i in range(n - 1))}
            assert set(enumerate_accepted(a, n)) == expected


@pytest.mark.parametrize("spec,left_tag", [
    ("wreath", ("a", "b")),
    ("abelian:3", ("e1",)),
    ("prod:braid:3,abelian:1", ("132*1", "213*1")),
])
def test_translation_equals_direct(spec, left_tag):
    g = germ_from_spec(spec)
    zs = build(g, [g.simple(nm) for nm in left_tag])
    a_g = build_factor_automaton(zs, "G", "full")
    a_h = build_factor_automaton(zs, "H", "full")
    translated = translate_pair_to_product(zs, a_g, a_h)
    direct = build_nf_automaton(g, "full")
    assert translated.letters == direct.letters
    for n in range(7):
        assert set(enumerate_accepted(translated, n)) == \
            set(enumerate_accepted(direct, n))


def test_translation_alphabet_size(wreath, wreath_zs):
    a_g = build_factor_automaton(wreath_zs, "G", "full")
    a_h = build_factor_automaton(wreath_zs, "H", "full")
    translated = translate_pair_to_product(wreath_zs, a_g, a_h)
    assert len(translated.letters) == 4 * 2 - 1


def test_translation_rejects_proper_inputs(wreath_zs):
    a_g = build_factor_automaton(wreath_zs, "G", "proper")
    a_h = build_factor_automaton(wreath_zs, "H", "full")
    with pytest.raises(ValueError):
        translate_pair_to_product(wreath_zs, a_g, a_h)


def test_projection_round_trip(wreath, wreath_zs):
    a_g = build_factor_automaton(wreath_zs, "G", "full")
    a_h = build_factor_automaton(wreath_zs, "H", "full")
    a_k = build_nf_automaton(wreath, "full")
    back_g, back_h = project_product_to_pair(wreath_zs, a_k)
    assert back_g == a_g
    assert back_h == a_h
    translated = translate_pair_to_product(wreath_zs, a_g, a_h)
    again_g, again_h = project_product_to_pair(wreath_zs, translated)
    assert again_g == a_g and again_h == a_h


def test_factor_automaton_nearly_trivial_side():
    # an almost-trivial factor: H has a single letter, its own delta
    g = germ_from_spec("prod:braid:3,abelian:1")
    left = [a for a in g.atoms if g.names[a].endswith("*1")]
    zs = build(g, left)
    a_h = build_factor_automaton(zs, "H", "full")
    assert len(a_h.letters) == 1
    assert a_h.accepts([zs.delta_h, zs.delta_h])
    a_h_proper = build_factor_automaton(zs, "H", "proper")
    assert a_h_proper.letters == ()


def test_golden_exports(wreath, b3, ab2):
    cases = [
        (build_nf_automaton(wreath, "proper"), "dot", "wreath_proper.dot"),
        (build_nf_automaton(b3, "proper"), "tsv", "braid3_proper.tsv"),
        (build_nf_automaton(ab2, "full"), "tsv", "abelian2_full.tsv"),
    ]
    for automaton, fmt, fname in cases:
        assert export(automaton, fmt) == (GOLDEN / fname).read_text()
