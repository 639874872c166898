import pytest

from garside import element as el
from garside import normal_forms as nfm
from garside.normal_forms import NFPair

from oracles import normal_words_recursive as normal_words
from test_suites import CLOSURE, _closure_zs


def nw(g, *names):
    return el.normal_form(g, [g.simple(nm) for nm in names])


def test_is_normal_pair_variants(wreath, wreath_zs):
    g, zs = wreath, wreath_zs
    s = g.simple
    u = g.unit
    # gh|gh with (a,c) then (b,1): product pair is ac, b -- normal
    assert nfm.is_normal_gh_gh(zs, s("a"), s("c"), s("b"), u)
    # trivial second factor is never normal
    assert not nfm.is_normal_gh_gh(zs, s("a"), s("c"), u, u)
    assert not nfm.is_normal_hg_hg(zs, s("c"), s("a"), u, u)


def test_criteria_refuse_a_first_g_simple_from_h(wreath, wreath_zs):
    # the three shapes with an h.g letter re-factor it through rr, whose read refuses it too
    s, zs = wreath.simple, wreath_zs
    a, c = s("a"), s("c")
    for criterion, args in ((nfm.is_normal_gh_gh, (c, c, a, c)), (nfm.is_normal_gh_hg, (c, c, c, a)),
                            (nfm.is_normal_hg_gh, (c, c, a, c)), (nfm.is_normal_hg_hg, (c, c, c, a))):
        with pytest.raises(ValueError, match="action argument outside its simple set"):
            criterion(zs, *args)


@pytest.mark.parametrize("spec, left", CLOSURE, ids=[f"{s}[{l}]" for s, l in CLOSURE])
def test_criteria_match_definition_exhaustively(spec, left):
    zs = _closure_zs(spec, left)
    g = zs.germ
    u = g.unit

    def oracle(k1, k2):
        return g.normal_pair(k1, k2) and k2 != u

    for g1 in zs.g_simples:
        for h1 in zs.h_simples:
            for g2 in zs.g_simples:
                for h2 in zs.h_simples:
                    assert nfm.is_normal_gh_gh(zs, g1, h1, g2, h2) == \
                        oracle(g.product(g1, h1), g.product(g2, h2))
                    assert nfm.is_normal_gh_hg(zs, g1, h1, h2, g2) == \
                        oracle(g.product(g1, h1), g.product(h2, g2))
                    assert nfm.is_normal_hg_gh(zs, h1, g1, g2, h2) == \
                        oracle(g.product(h1, g1), g.product(g2, h2))
                    assert nfm.is_normal_hg_hg(zs, h1, g1, h2, g2) == \
                        oracle(g.product(h1, g1), g.product(h2, g2))


def test_split_examples(wreath, wreath_zs):
    p = nfm.split_nf(wreath_zs, nw(wreath, "a", "a", "c"))  # ac|b
    assert el.format_nf(wreath, p.nf_g) == "a|a"
    assert p.nf_h == el.NormalWord(1, ())  # one power of delta_H = c

    w = nw(wreath, "c")
    p = nfm.split_nf(wreath_zs, w)
    assert p.nf_g == el.UNIT
    assert p.nf_h == el.NormalWord(1, ())

    p = nfm.split_nf(wreath_zs, nw(wreath, "bc"))
    assert el.format_nf(wreath, p.nf_g) == "b"
    assert p.nf_h == el.NormalWord(1, ())


def test_merge_examples(wreath, wreath_zs):
    p = NFPair(nw(wreath, "a", "a"), el.NormalWord(1, ()))
    assert el.format_nf(wreath, nfm.merge_nf(wreath_zs, p)) == "ac|b"

    hw = el.NormalWord(1, ())
    assert nfm.merge_nf(wreath_zs, NFPair(el.UNIT, hw)) == nw(wreath, "c")

    p = NFPair(nw(wreath, "a"), el.NormalWord(1, ()))
    assert el.format_nf(wreath, nfm.merge_nf(wreath_zs, p)) == "ac"

    assert nfm.merge_nf(wreath_zs, NFPair(el.UNIT, el.UNIT)) == el.UNIT


def test_merge_rejects_non_normal_input(wreath, wreath_zs):
    a = wreath.simple("a")
    bad = el.NormalWord(0, (a, wreath.simple("ab")))  # a|ab is not normal
    with pytest.raises(ValueError):
        nfm.merge_nf(wreath_zs, NFPair(bad, el.UNIT))
    with pytest.raises(ValueError):
        nfm.merge_nf(wreath_zs, NFPair(el.UNIT, el.NormalWord(0, (a,))))


def test_phi_round_trip_small(wreath, wreath_zs):
    g, zs = wreath, wreath_zs
    full = tuple(s for s in range(len(g)) if s != g.unit)
    for letters in normal_words(g, full, 4):
        w = el.normal_form(g, letters)
        assert nfm.merge_nf(zs, nfm.split_nf(zs, w)) == w


def test_psi_examples(wreath, wreath_zs):
    g, zs = wreath, wreath_zs
    a = nw(g, "a")
    c = el.NormalWord(1, ())
    assert el.format_nf(g, nfm.psi(zs, NFPair(a, c))) == "ac"
    hword = el.NormalWord(1, ())
    assert nfm.psi(zs, NFPair(el.UNIT, hword)) == nw(g, "c")
    # psi agrees with the element-level lcm on all simple pairs
    for gs in zs.g_simples:
        for hs in zs.h_simples:
            p = NFPair(el._from_letters([gs] if gs != g.unit else [], zs.delta_g),
                       el._from_letters([hs] if hs != g.unit else [], zs.delta_h))
            assert nfm.psi(zs, p) == el.lcm(g, el.simple(g, gs), el.simple(g, hs))


def test_push_lemma_exhaustive_wreath(wreath_zs):
    zs = wreath_zs
    g = zs.germ
    u = g.unit
    for h in zs.h_simples:
        for g1 in zs.g_simples:
            for h1 in zs.h_simples:
                for g2 in zs.g_simples:
                    for h2 in zs.h_simples:
                        k1 = g.product(g1, h1)
                        k2 = g.product(g2, h2)
                        if u in (k1, k2):
                            continue
                        if not g.normal_pair(k1, k2):
                            continue
                        if g.meet(zs.comp_h(h), zs.act("lr", g1, h1)) != u:
                            continue
                        out = [g.product(h, g1), g.product(h1, g2)]
                        if h2 != u:
                            out.append(h2)
                        assert all(k is not None for k in out)
                        assert all(g.normal_pair(out[i], out[i + 1])
                                   for i in range(len(out) - 1))


def test_action_preserves_normality(wreath_zs):
    zs = wreath_zs
    g = zs.germ
    from garside import zappa_szep as zsm
    g_alpha = tuple(s for s in zs.g_simples if s != g.unit)
    for letters in normal_words(g, g_alpha, 4):
        for hs in zs.h_simples:
            acted = zsm.act_word(zs, "rr", (hs,), letters)
            assert all(g.normal_pair(acted[i], acted[i + 1])
                       for i in range(len(acted) - 1))
            assert zsm.act_word(zs, "rr-inv", (hs,), acted) == letters
