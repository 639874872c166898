import copy
import random
import re

import pytest

from garside import (DecompositionFailure, NotAUnionOfClasses, Options, ZS_SUITES, build,
                     germ_from_spec, run_suite, validate_germ)
from garside import element as el
from garside import normal_forms
from garside import zappa_szep as zsm
from garside.suites import _split_by_gcd

from oracles import abelian_by_braid3_germ, element_in_g, element_in_h, zs_actions
from test_suites import CLOSURE, _closure_zs

# Germs built from a model in the tests, by the spec DECOMPOSITIONS gives them.
MODEL_GERMS = {"abelian:3><braid:3": abelian_by_braid3_germ}
N3_LEFT = ("e1*1", "e2*1", "e3*1")

DECOMPOSITIONS = [
    ("wreath", ("a", "b")),
    ("wreath", ("c",)),
    ("abelian:3", ("e1",)),
    ("prod:braid:3,abelian:1", ("132*1", "213*1")),
    ("prod:braid:4,braid:3", ("1243*1", "1324*1", "2134*1")),
    ("abelian:3><braid:3", N3_LEFT),
]


@pytest.fixture(scope="module", params=DECOMPOSITIONS,
                ids=[f"{spec}[{','.join(left)}]" for spec, left in DECOMPOSITIONS])
def decomposition(request):
    spec, left = request.param
    g = MODEL_GERMS[spec]() if spec in MODEL_GERMS else germ_from_spec(spec)
    return build(g, [g.simple(nm) for nm in left])


def test_build_wreath(wreath, wreath_zs):
    zs = wreath_zs
    assert wreath.names[zs.delta_g] == "ab"
    assert wreath.names[zs.delta_h] == "c"
    assert sorted(wreath.names[s] for s in zs.g_simples) == ["1", "a", "ab", "b"]
    assert sorted(wreath.names[s] for s in zs.h_simples) == ["1", "c"]


def test_build_mirror(wreath):
    zs = build(wreath, [wreath.simple("c")])
    assert wreath.names[zs.delta_g] == "c"
    assert wreath.names[zs.delta_h] == "ab"


def test_build_rejects_partial_class(b3, wreath):
    with pytest.raises(NotAUnionOfClasses):
        build(b3, [b3.atoms[0]])
    with pytest.raises(NotAUnionOfClasses):
        build(wreath, [wreath.simple("a")])  # splits the {a,b} class
    with pytest.raises(NotAUnionOfClasses):
        build(wreath, [wreath.simple("a"), wreath.simple("b"), wreath.simple("c")])
    with pytest.raises(NotAUnionOfClasses):
        build(wreath, [])


def test_build_rejects_an_action_that_is_not_a_bijection(wreath, wreath_zs):
    # Swapping the values of 1.ab and c.a keeps every HG-factorisation
    # unique, but then 1 |> b = 1 |> ab = b.  The copy shares the lattice
    # tables that building wreath_zs filled from the untampered products.
    s = wreath.simple
    g = copy.copy(wreath)
    g.product_rows = [dict(row) for row in wreath.product_rows]
    g.product_rows[g.unit][s("ab")] = s("bc")
    g.product_rows[s("c")][s("a")] = s("ab")
    with pytest.raises(DecompositionFailure,
                       match=r"^1 \|> \. is not a bijection of the G-simples$"):
        build(g, [s("a"), s("b")])


def test_member(wreath_zs, wreath):
    s = wreath.simple
    assert wreath_zs.member_g(s("ab"))
    assert not wreath_zs.member_g(s("ac"))
    assert wreath_zs.member_g(wreath.unit)
    assert wreath_zs.member_h(s("c"))
    assert not wreath_zs.member_h(s("a"))


def test_gh_decompose_examples(wreath, wreath_zs):
    bc = el.simple(wreath, wreath.simple("bc"))  # the element c.a
    gp, hp = zsm.gh_decompose(wreath_zs, bc)
    assert el.format_nf(wreath, gp) == "b"
    assert el.format_nf(wreath, hp) == "c"

    x = el.normal_form(wreath, [wreath.simple("a"), wreath.simple("b")])
    assert zsm.gh_decompose(wreath_zs, x) == (x, el.UNIT)

    aac = el.normal_form(wreath, [wreath.simple("a")] * 2 + [wreath.simple("c")])
    gp, hp = zsm.gh_decompose(wreath_zs, aac)
    assert el.format_nf(wreath, gp) == "a|a"
    assert el.format_nf(wreath, hp) == "c"

    hp2, gp2 = zsm.hg_decompose(wreath_zs, aac)
    assert el.multiply(wreath, hp2, gp2) == aac
    assert element_in_h(wreath_zs, hp2)
    assert element_in_g(wreath_zs, gp2)


def test_simple_actions(wreath, wreath_zs):
    s = wreath.simple
    zs = wreath_zs
    assert zs.act("rr", s("c"), s("a")) == s("b")
    assert zs.act("rl", s("c"), s("a")) == s("c")
    assert zs.act("lr", s("a"), s("c")) == s("c")
    assert zs.act("ll", s("a"), s("c")) == s("b")
    # units act trivially and are fixed
    for gs in zs.g_simples:
        assert zs.act("rr", wreath.unit, gs) == gs
    for hs in zs.h_simples:
        assert zs.act("rl", hs, wreath.unit) == hs


def test_inverse_actions(wreath, wreath_zs):
    s = wreath.simple
    zs = wreath_zs
    assert zs.act("rr-inv", s("c"), s("b")) == s("a")
    assert zs.act("rr-inv", s("c"), wreath.unit) == wreath.unit
    assert zs.act("ll-inv", s("a"), s("c")) == s("b")
    for hs in zs.h_simples:
        for gs in zs.g_simples:
            assert zs.act("rr", hs, zs.act("rr-inv", hs, gs)) == gs
            assert zs.act("rl-inv", zs.act("rl", hs, gs), gs) == hs
            assert zs.act("lr-inv", gs, zs.act("lr", gs, hs)) == hs
            assert zs.act("ll", zs.act("ll-inv", gs, hs), hs) == gs


def test_simple_actions_solve_defining_equations(decomposition):
    zs = decomposition
    nm = zs.germ.names
    acts = zs_actions(zs.germ, zs.g_simples, zs.h_simples)
    for name, table in acts.items():
        assert len(table) == len(zs.g_simples) * len(zs.h_simples)
        for (a, b), value in table.items():
            assert zs.act(name, a, b) == value, (name, nm[a], nm[b])


def _long_normal_words(g, rng, count):
    # normal words of 16-64 letters from a seeded walk over left-weighted
    # pairs, under delta^k with k = 0, 1, 2, 3 in turn
    proper = g.proper_simples()
    follow = {s: [t for t in proper if g.normal_pair(s, t)] for s in proper}
    words = []
    for i in range(count):
        factors = [rng.choice(proper)]
        n = rng.randint(16, 64)
        while len(factors) < n:
            factors.append(rng.choice(follow[factors[-1]]))
        words.append(el.NormalWord(i % 4, tuple(factors)))
    return words


def test_decompositions_match_gcd_route(decomposition):
    zs = decomposition
    g = zs.germ
    mirror = build(g, zs.right_atoms)
    rng = random.Random(5)
    short = [el.normal_form(g, [g.delta] * k
                            + [rng.randrange(len(g)) for _ in range(rng.randint(0, 4))])
             for k in range(3) for _ in range(12)]
    for x in short + _long_normal_words(g, random.Random(7), 40):
        hg = zsm.hg_decompose(zs, x)
        assert zsm.gh_decompose(zs, x) == _split_by_gcd(zs, x, zs.delta_g)
        assert hg == _split_by_gcd(zs, x, zs.delta_h)
        assert hg == zsm.gh_decompose(mirror, x)
        assert normal_forms.merge_nf(zs, normal_forms.split_nf(zs, x)) == x


def test_action_domain_errors(wreath, wreath_zs):
    with pytest.raises(ValueError):
        wreath_zs.act("rr", wreath.simple("a"), wreath.simple("a"))
    with pytest.raises(ValueError):
        zsm.act_word(wreath_zs, "rr", (wreath.simple("c"),), (wreath.simple("c"),))


def test_action_domain_errors_name_raw_ids(wreath, wreath_zs):
    zs = wreath_zs
    a = wreath.simple("a")
    cases = [
        (lambda: zs.act("rr", 10**6, 0), r"got \(simple id 1000000, '1'\)$"),
        (lambda: zs.act("rr", -1, a), r"got \(simple id -1, 'a'\)$"),
        (lambda: zs.act("ll", a, 8), r"got \('a', simple id 8\)$"),
        (lambda: zs.act("lr-inv", a, a), r"^action argument outside its simple set: "
                                         r"expected \(G-simple, H-simple\), got \('a', 'a'\)$"),
        (lambda: zsm.act_word(zs, "rr", (10**6,), ()), r"^simple id 1000000 is not a H-simple$"),
        (lambda: zsm.act_word(zs, "rr", (-1,), ()), r"^simple id -1 is not a H-simple$"),
        (lambda: zsm.act_word(zs, "lr", (a,), (0, -8)), r"^simple id -8 is not a H-simple$"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("bad", [-1, -5, "len", 10**6])
@pytest.mark.parametrize("position", [0, 1])
@pytest.mark.parametrize("name", zsm.ACTIONS)
def test_act_word_names_the_first_letter_outside_its_factor(wreath, wreath_zs, name, bad,
                                                            position):
    zs = wreath_zs
    bad = len(wreath) if bad == "len" else bad
    sides = "HG" if name[0] == "r" else "GH"
    unit_word = {"G": (wreath.unit, zs.delta_g), "H": (wreath.unit, zs.delta_h)}
    words = [unit_word[side] for side in sides]
    # a letter of the other factor follows the bad one, and the other word
    # is broken too if it comes later: the first bad letter is the one named
    other = zs.delta_h if sides[position] == "G" else zs.delta_g
    words[position] = words[position][:1] + (bad, other)
    if position == 0:
        words[1] = words[1] + (-7,)
    message = f"^simple id {bad} is not a {sides[position]}-simple$"
    with pytest.raises(ValueError, match=message):
        zsm.act_word(zs, name, *words)
    # and a letter of the wrong factor is named by its name
    words[position] = (other,)
    message = f"^'{wreath.names[other]}' is not a {sides[position]}-simple$"
    with pytest.raises(ValueError, match=message):
        zsm.act_word(zs, name, *words)


@pytest.mark.parametrize("name", ["xx", "", "r", "rr-", "RR", "rr_inv"])
def test_unknown_action_name_is_refused(wreath, wreath_zs, name):
    message = (f"^unknown action {re.escape(repr(name))}: expected one of "
               "rr, rl, lr, ll, rr-inv, rl-inv, lr-inv, ll-inv$")
    a, c = wreath.simple("a"), wreath.simple("c")
    for call in (lambda: wreath_zs.act(name, 0, 0), lambda: wreath_zs.act(name, c, a),
                 lambda: zsm.act_word(wreath_zs, name, (), ()),
                 lambda: zsm.act_word(wreath_zs, name, (c,), (a,))):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("spec, left", CLOSURE, ids=[f"{s}[{l}]" for s, l in CLOSURE])
def test_simple_and_word_actions_share_their_argument_order(spec, left):
    zs = _closure_zs(spec, left)
    G, H = zs.g_simples, zs.h_simples
    for name in zsm.ACTIONS:
        first, second = (H, G) if name[0] == "r" else (G, H)
        for x in first:
            for y in second:
                assert zs.act(name, x, y) == zsm.act_word(zs, name, (x,), (y,))[0], (name, x, y)


def test_word_actions(wreath, wreath_zs):
    s = wreath.simple
    zs = wreath_zs
    a, c = s("a"), s("c")
    assert zsm.act_word(zs, "rr", (c,), (a, a)) == (s("b"), s("b"))
    assert zsm.act_word(zs, "rr", (c,), ()) == ()
    assert zsm.act_word(zs, "lr", (a, a), (c,)) == (c,)
    assert zsm.act_word(zs, "rl", (c,), (a, a)) == (c,)


def test_delta_powers_not_factor_elements(wreath, wreath_zs):
    d = el.normal_form(wreath, [wreath.delta])
    assert not element_in_g(wreath_zs, d)
    assert not element_in_h(wreath_zs, d)
    gp, hp = zsm.gh_decompose(wreath_zs, d)
    assert el.format_nf(wreath, gp) == "ab"
    assert el.format_nf(wreath, hp) == "c"


SMOKE = Options(max_len=3, samples=40, seed=1)


@pytest.mark.parametrize("suite", sorted(ZS_SUITES))
def test_suites_wreath(wreath_zs, suite):
    report = run_suite(suite, wreath_zs, SMOKE)
    assert report.ok, str(report)


@pytest.mark.parametrize("suite", sorted(ZS_SUITES))
def test_suites_abelian3(ab3, suite):
    zs = build(ab3, [ab3.simple("e1")])
    report = run_suite(suite, zs, SMOKE)
    assert report.ok, str(report)


@pytest.mark.parametrize("suite", sorted(ZS_SUITES))
def test_suites_product(suite):
    g = germ_from_spec("prod:braid:3,abelian:1")
    left = [a for a in g.atoms if g.names[a].endswith("*1")]
    zs = build(g, left)
    report = run_suite(suite, zs, SMOKE)
    assert report.ok, str(report)


@pytest.mark.parametrize("suite", sorted(ZS_SUITES))
def test_suites_multiclass_sides(suite):
    # both sides are unions of two atom classes, with non-trivial actions
    g = germ_from_spec("prod:wreath,wreath")
    left = [g.simple(nm) for nm in ("a*1", "b*1", "1*a", "1*b")]
    zs = build(g, left)
    assert g.names[zs.delta_g] == "ab*ab"
    assert g.names[zs.delta_h] == "c*c"
    report = run_suite(suite, zs, SMOKE)
    assert report.ok, str(report)


def test_noncommuting_action_permutes_generators():
    # h.g = (p(x), 1).(0, p) for g = (x, 1) and h = (0, p): H acts through S3
    g = abelian_by_braid3_germ()
    assert validate_germ(g).ok
    zs = build(g, [g.simple(nm) for nm in N3_LEFT])
    assert g.names[zs.delta_g] == "e1e2e3*1"
    assert g.names[zs.delta_h] == "1*321"
    assert len(zs.g_simples) == 8 and len(zs.h_simples) == 6
    moved = 0
    for hs in zs.h_simples:
        p = g.names[hs].split("*")[-1]
        for gs in zs.g_simples:
            x = g.names[gs].split("*")[0]
            xs = {int(c) for c in x[1::2]} if x != "1" else set()
            image = {int(p[i - 1]) for i in xs} if p != "1" else xs
            expected = "".join(f"e{i}" for i in sorted(image)) or "1"
            assert g.names[zs.act("rr", hs, gs)].split("*")[0] == expected
            assert zs.act("rl", hs, gs) == hs
            moved += image != xs
    assert moved > 0


@pytest.mark.parametrize("suite", sorted(ZS_SUITES))
def test_suites_noncommuting_action(suite):
    # sigma_1.sigma_2 and sigma_2.sigma_1 act differently on G = N^3, so
    # the composition laws see the order of two H-simples
    g = abelian_by_braid3_germ()
    zs = build(g, [g.simple(nm) for nm in N3_LEFT])
    report = run_suite(suite, zs, SMOKE)
    assert report.ok, str(report)
