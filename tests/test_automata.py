import functools
import itertools
import re
from pathlib import Path

import pytest

from garside import (NFAutomaton, automata, build, build_factor_automaton,
                     build_nf_automaton,
                     count_accepted, export, free_abelian_germ,
                     germ_from_spec, project_product_to_pair, run_suite,
                     translate_pair_to_product)
from garside.germ import GermError, make_germ, parse_germ
from oracles import (abelian_by_braid3_germ, build_from_liveness_by_pairs,
                     count_accepted_by_states, translate_pair_to_product_by_letters)
from test_germ import CYCLIC_FILE
from test_suites import CLOSURE, STEP_SWAPPED, _closure_zs, _tampered

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


def test_dot_export_escapes_quotes_and_backslashes():
    # the germ format allows both in a name; each quoted ID reads back as it
    p, q, d = 'x"y', "a\\", '\\"D\\'
    g = parse_germ(f"germ v1\nsimples: 1 {p} {q} {d}\ndelta: {d}\nprod {p} {q} {d}\nprod {q} {p} {d}\n")
    a = build_nf_automaton(g, "full")
    assert sorted(a.letter_names) == sorted([p, q, d])
    quoted = r'"((?:[^"\\]|\\.)*)"'

    def unquote(m):
        return re.sub(r"\\(.)", r"\1", m)

    nodes, edges = set(), set()
    for line in export(a, "dot").splitlines()[4:-1]:
        if m := re.fullmatch(f"  {quoted};", line):
            nodes.add(unquote(m[1]))
        else:
            m = re.fullmatch(f"  {quoted} -> {quoted} \\[label={quoted}\\];", line)
            assert m, line
            edges.add(tuple(map(unquote, m.groups())))
    assert nodes == set(a.letter_names)
    assert edges == {(a.state_name(s), a.state_name(a.transitions[s][pos]), a.letter_names[pos])
                     for s in range(len(a.letters) + 1) for pos in range(len(a.letters))
                     if a.transitions[s][pos] != a.dead}


@pytest.mark.parametrize("name, refused", [("start", ("dot", "tsv")), ("dead", ("tsv",))])
def test_export_refuses_a_simple_named_as_a_state(name, refused):
    # the germ format allows both names; DOT draws no dead state
    g = parse_germ(f"germ v1\nsimples: 1 {name} b D\ndelta: D\nprod {name} b D\nprod b {name} D\n")
    a = build_nf_automaton(g, "proper")
    for fmt in ("dot", "tsv"):
        if fmt in refused:
            with pytest.raises(ValueError, match=f"a simple is named '{name}'"):
                export(a, fmt)
        else:
            assert f'"{name}"' in export(a, fmt)


def test_translation_suite_on_a_large_product():
    # 144 product letters: millions of normal words of length 5
    g = germ_from_spec("prod:braid:4,braid:3")
    zs = build(g, [g.simple(nm) for nm in ("1243*1", "1324*1", "2134*1")])
    report = run_suite("automata-translation", zs)
    assert report.ok, str(report)


# -- the translation keyed by factor rows, against one read per pair of letters ---------

def _translations(zs):
    a_g = build_factor_automaton(zs, "G", "full")
    a_h = build_factor_automaton(zs, "H", "full")
    return (translate_pair_to_product(zs, a_g, a_h),
            translate_pair_to_product_by_letters(zs, a_g, a_h))


DECOMPOSITIONS = CLOSURE + [("prod:braid:5,braid:3", "1*132,1*213")]


@pytest.mark.parametrize("spec, left", DECOMPOSITIONS, ids=[f"{s}[{l}]" for s, l in DECOMPOSITIONS])
def test_translation_keyed_by_factor_rows_equals_the_per_letter_one(spec, left):
    zs = _closure_zs(spec, left)
    keyed, by_letters = _translations(zs)
    assert keyed == by_letters == build_nf_automaton(zs.germ, "full")


@pytest.mark.parametrize("step", ["rr-inv", "lr-inv"])
@pytest.mark.parametrize("spec, left", STEP_SWAPPED, ids=[s for s, _ in STEP_SWAPPED])
def test_translation_keyed_by_factor_rows_on_swapped_steps(spec, left, step):
    # the two step tables that the translation reads, every adjacent swap of
    # outputs in a row: the key is exact whatever the tables hold
    zs = _closure_zs(spec, left)
    direct, differ = build_nf_automaton(zs.germ, "full"), 0
    for carry, row in zs.steps[step].items():
        letters = sorted(row)
        for a, b in zip(letters, letters[1:]):
            keyed, by_letters = _translations(_tampered(zs, step, carry, a, b))
            assert keyed == by_letters, (carry, a, b)
            differ += keyed != direct
    assert differ > 0


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
        return build_from_liveness_by_pairs(letters, tuple(wreath.names[s] for s in letters),
                                            lambda x, y: a.step(a.step(0, x), y) != a.dead)

    _tampered_translation(monkeypatch, drop)
    report = run_suite("automata-translation", wreath_zs)
    assert not report.ok
    assert "alphabets differ: only translated -, only direct c" in report.failures


def test_translation_suite_tells_the_start_state_from_a_letter_named_start():
    # the letter state of the simple named start keeps that name; the start and
    # dead states are #start and #dead, which no simple's name can be
    g = parse_germ("germ v1\nsimples: 1 start b D\ndelta: D\nprod start b D\nprod b start D\n")
    zs = build(g, [g.simple("start")])
    report = run_suite("automata-translation",
                       _tampered(zs, "lr-inv", g.simple("start"), g.unit, g.simple("b")))
    assert report.failures[0] == ("transitions from start differ, translated != direct: "
                                  "start -> #dead != start, D -> D != #dead")


# -- acceptors against their per-pair tables, counts against the per-state loop

GERM_SPECS = ["wreath", "braid:2", "braid:3", "braid:4", "braid:5",
              "abelian:0", "abelian:1", "abelian:2", "abelian:3",
              "prod:braid:4,braid:3", "prod:braid:3,abelian:1"]


@functools.cache
def _germ(spec):
    if spec == "abelian:3><braid:3":
        return abelian_by_braid3_germ()
    if spec == "cyclic":
        return parse_germ(CYCLIC_FILE)
    return germ_from_spec(spec)


@pytest.mark.parametrize("variant", ["proper", "full"])
@pytest.mark.parametrize("spec", GERM_SPECS + ["abelian:3><braid:3", "cyclic"])
def test_nf_automaton_equals_pair_table(spec, variant):
    g = _germ(spec)
    a = build_nf_automaton(g, variant)
    assert a == build_from_liveness_by_pairs(a.letters, a.letter_names, g.normal_pair)
    assert a.letters == tuple(s for s in range(len(g)) if s != g.unit
                              and (variant == "full" or s != g.delta))


FACTORS = [("wreath", ("a", "b")),
           ("prod:braid:4,braid:3", ("1243*1", "1324*1", "2134*1")),
           ("abelian:3><braid:3", ("e1*1", "e2*1", "e3*1"))]


@pytest.mark.parametrize("variant", ["proper", "full"])
@pytest.mark.parametrize("spec, left", FACTORS, ids=[spec for spec, _ in FACTORS])
def test_factor_automaton_equals_pair_table(spec, left, variant):
    g = _germ(spec)
    zs = build(g, [g.simple(nm) for nm in left])
    for side, simples, comp in (("G", zs.g_simples, zs.comp_g),
                                ("H", zs.h_simples, zs.comp_h)):
        a = build_factor_automaton(zs, side, variant)
        assert set(a.letters) <= set(simples)
        assert a == build_from_liveness_by_pairs(
            a.letters, a.letter_names,
            lambda x, y, comp=comp: g.meet(comp(x), y) == g.unit)


@pytest.mark.parametrize("spec, left", FACTORS, ids=[spec for spec, _ in FACTORS])
def test_translation_and_projection_equal_pair_tables(spec, left):
    g = _germ(spec)
    zs = build(g, [g.simple(nm) for nm in left])
    a_g, a_h = (build_factor_automaton(zs, side, "full") for side in "GH")
    a_k = build_nf_automaton(g, "full")
    by_pairs = build_from_liveness_by_pairs(a_k.letters, a_k.letter_names, g.normal_pair)
    assert translate_pair_to_product(zs, a_g, a_h) == by_pairs
    assert translate_pair_to_product_by_letters(zs, a_g, a_h) == by_pairs
    # the product's own pairs, restricted to each factor's letters
    assert project_product_to_pair(zs, a_k) == tuple(
        build_from_liveness_by_pairs(a.letters, a.letter_names, g.normal_pair)
        for a in (a_g, a_h))


def test_nf_automaton_rejects_a_missing_meet():
    # Unvalidated: e.x = D, and x = a.b = b.a and y = a.c = b.c share the
    # prefixes a and b without a greatest one, so y after e needs the
    # missing meet of x and y.
    g = make_germ(["1", "e", "a", "b", "c", "x", "y", "D"], "D",
                  [("e", "x", "D"), ("a", "b", "x"), ("b", "a", "x"),
                   ("a", "c", "y"), ("b", "c", "y")])
    with pytest.raises(GermError, match="^no meet of 'x' and 'y': germ is not a lattice$"):
        build_nf_automaton(g, "proper")


@pytest.mark.parametrize("variant", ["proper", "full"])
@pytest.mark.parametrize("spec", GERM_SPECS + ["abelian:3><braid:3"])
def test_count_equals_per_state_loop(spec, variant):
    a = build_nf_automaton(_germ(spec), variant)
    for n in range(11):
        assert count_accepted(a, n) == count_accepted_by_states(a, n), n


def _automaton(rows):
    letters = tuple(range(1, len(rows[0]) + 1))
    return NFAutomaton(letters, tuple(f"l{x}" for x in letters),
                       tuple(tuple(list(row)) for row in rows))


HAND_MADE = {
    # equal rows, each in a tuple object of its own
    "equal-rows": _automaton([(1, 2, 3), (1, 4, 4), (1, 4, 4), (1, 2, 3), (4, 4, 4)]),
    # letter 3 kills every successor: its row equals the dead state's, but
    # it accepts
    "all-dead-row": _automaton([(1, 2, 3), (1, 2, 3), (1, 2, 3), (4, 4, 4), (4, 4, 4)]),
    # transitions that are not "the last letter read"
    "permuting": _automaton([(2, 3, 1), (3, 1, 2), (1, 2, 4), (2, 2, 2), (4, 4, 4)]),
    "empty-alphabet": NFAutomaton((), (), ((), ())),
}


@pytest.mark.parametrize("name", sorted(HAND_MADE))
def test_count_equals_per_state_loop_on_hand_made_acceptors(name):
    a = HAND_MADE[name]
    for n in range(11):
        assert count_accepted(a, n) == count_accepted_by_states(a, n), n
    assert count_accepted(a, 0) == 1


def test_count_of_a_dead_row_letter_stops_at_it():
    a = HAND_MADE["all-dead-row"]
    assert a.transitions[3] == a.transitions[a.dead]
    # any letter may follow 1 or 2, none may follow 3
    assert [count_accepted(a, n) for n in range(4)] == [1, 3, 6, 12]


def test_equal_rows_are_distinct_objects():
    a = HAND_MADE["equal-rows"]
    assert a.transitions[1] == a.transitions[2] and a.transitions[1] is not a.transitions[2]


@pytest.mark.parametrize("spec, variant, count", [
    ("braid:6", "proper", 28881794703107893283419358194922),
    ("prod:braid:4,braid:3", "full", 2758248643005636025),
])
def test_count_of_length_16_on_the_benchmark_germs(spec, variant, count):
    assert count_accepted(build_nf_automaton(germ_from_spec(spec), variant), 16) == count


def test_count_rejects_negative_length(wreath):
    a = build_nf_automaton(wreath, "proper")
    for n in (-1, -5):
        with pytest.raises(ValueError, match="^n must be non-negative$"):
            count_accepted(a, n)


def test_count_refuses_n_above_its_budget(monkeypatch):
    # braid:4's proper acceptor has R = 8 row classes, the dead one included
    a = build_nf_automaton(germ_from_spec("braid:4"), "proper")
    monkeypatch.setattr(automata, "COUNT_BUDGET", (100 * 8) ** 2)
    assert count_accepted(a, 100) == count_accepted_by_states(a, 100)
    with pytest.raises(ValueError, match=r"^n = 101 with R = 8 row classes is above the count "
                                         r"budget: n\^2\*R\^2 = 652,864 > 640,000$"):
        count_accepted(a, 101)
