import itertools
from pathlib import Path

import pytest

from garside import (NFAutomaton, automata, build, build_factor_automaton,
                     build_nf_automaton,
                     count_accepted, export, free_abelian_germ,
                     germ_from_spec, project_product_to_pair, run_suite,
                     translate_pair_to_product)
from garside.automata import _build_from_liveness

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


def test_count_matches_pair_scan(wreath):
    a = build_nf_automaton(wreath, "proper")
    assert count_accepted(a, 0) == 1
    assert count_accepted(a, 1) == 6
    # length-2 count against a direct pair scan over the germ
    proper = wreath.proper_simples()
    brute = sum(1 for x in proper for y in proper if wreath.normal_pair(x, y))
    assert count_accepted(a, 2) == brute


def _words(alphabet, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


def test_language_matches_definition(wreath, b3):
    # every word over the letters, accepted or not, up to length 3
    for g in (wreath, b3):
        a = build_nf_automaton(g, "proper")
        for w in _words(g.proper_simples(), 3):
            expected = all(g.normal_pair(w[i], w[i + 1]) for i in range(len(w) - 1))
            assert a.accepts(w) == expected, w


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
    assert translated == direct
    for w in _words(direct.letters, 3):
        assert translated.accepts(w) == direct.accepts(w), w


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


def test_translation_suite_on_a_large_product():
    # 144 product letters: millions of normal words of length 5
    g = germ_from_spec("prod:braid:4,braid:3")
    zs = build(g, [g.simple(nm) for nm in ("1243*1", "1324*1", "2134*1")])
    report = run_suite("automata-translation", zs)
    assert report.ok, str(report)


def _tampered_translation(monkeypatch, tamper):
    real = automata.translate_pair_to_product
    monkeypatch.setattr(automata, "translate_pair_to_product",
                        lambda *args: tamper(real(*args)))


def test_translation_suite_names_a_flipped_live_pair(monkeypatch, wreath, wreath_zs):
    def flip(a):
        # the first live pair after letter "a" goes dead
        state = 1 + a.position[wreath.simple("a")]
        row = list(a.transitions[state])
        pos = next(i for i, t in enumerate(row) if t != a.dead)
        row[pos] = a.dead
        rows = a.transitions[:state] + (tuple(row),) + a.transitions[state + 1:]
        return NFAutomaton(a.letters, a.letter_names, rows)

    _tampered_translation(monkeypatch, flip)
    report = run_suite("automata-translation", wreath_zs)
    assert not report.ok
    assert any(f.startswith("transitions from a differ") for f in report.failures), report


def test_translation_suite_names_a_dropped_letter(monkeypatch, wreath, wreath_zs):
    c = wreath.simple("c")

    def drop(a):
        letters = tuple(s for s in a.letters if s != c)
        return _build_from_liveness(letters, tuple(wreath.names[s] for s in letters),
                                    lambda x, y: a.step(a.step(0, x), y) != a.dead)

    _tampered_translation(monkeypatch, drop)
    report = run_suite("automata-translation", wreath_zs)
    assert not report.ok
    assert "alphabets differ: only translated -, only direct c" in report.failures
