"""
normal_forms: translating between normal forms of the product monoid and
pairs of normal forms of the two factors.

split_nf peels the G-part off a normal word of K factor by factor (the
GH-decomposition of zappa_szep); merge_nf pushes the G-factors of a pair
back through the H-word.  Both loops produce only words that are already
normal -- that invariant is the substance of their correctness, so it is
asserted at every step rather than repaired.  The two are mutually inverse
bijections; psi is the lcm variant, reduced to merge_nf by an inverse action.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import element, zappa_szep
from .element import NormalWord
from .zappa_szep import ZSStructure


@dataclass(frozen=True)
class NFPair:
    """Normal forms of the two components of a GH-decomposition.

    The deltas field of nf_g counts powers of delta_G (and of nf_h powers
    of delta_H): each component is normal within its parabolic factor.
    """
    nf_g: NormalWord
    nf_h: NormalWord


def _letters(delta: int, w: NormalWord) -> tuple[int, ...]:
    """The letters of a factor normal form, its Garside element `delta` spelt out."""
    return (delta,) * w.deltas + w.factors


# -- pairwise normality from factor data -------------------------------------

def is_normal_gh_gh(zs: ZSStructure, g1: int, h1: int, g2: int, h2: int) -> bool:
    """Normality of the pair g1.h1 | g2.h2, the second not 1: g1 <<| h1, the G-part of
    g1.h1 = h.g, completed in G, meets g2, and h1 completed in H meets g2 |>> h2, in 1."""
    g, act = zs.germ, zs.act
    return ((g2, h2) != (g.unit, g.unit) and g.meet(zs.comp_g(act("ll", g1, h1)), g2) == g.unit
            and g.meet(zs.comp_h(h1), act("lr", g2, h2)) == g.unit)


def _gh(zs: ZSStructure, h: int, g: int) -> tuple[int, int]:
    """h.g as (h |> g)(h <| g), one read of rr: the other shapes are gh|gh at those factors."""
    return zs.act("rr", h, g), zs.act("rl", h, g)


def is_normal_gh_hg(zs: ZSStructure, g1: int, h1: int, h2: int, g2: int) -> bool:
    return is_normal_gh_gh(zs, g1, h1, *_gh(zs, h2, g2))


def is_normal_hg_gh(zs: ZSStructure, h1: int, g1: int, g2: int, h2: int) -> bool:
    return is_normal_gh_gh(zs, *_gh(zs, h1, g1), g2, h2)


def is_normal_hg_hg(zs: ZSStructure, h1: int, g1: int, h2: int, g2: int) -> bool:
    return is_normal_gh_gh(zs, *_gh(zs, h1, g1), *_gh(zs, h2, g2))


# -- the two translation loops ------------------------------------------------

def split_nf(zs: ZSStructure, w: NormalWord) -> NFPair:
    """
    Given the normal form of k with GH-decomposition k = g.h, return the
    normal forms of g and of h: the peel of gh_decompose, with the leading
    delta_G and delta_H letters folded into the delta counts.
    """
    gpart, hpart = zappa_szep.gh_decompose(zs, w)
    return NFPair(element._from_letters(gpart.factors, zs.delta_g),
                  element._from_letters(hpart.factors, zs.delta_h))


def merge_nf(zs: ZSStructure, p: NFPair) -> NormalWord:
    """
    Normal form of g1..gm h1..hn from the factor normal forms, without any
    renormalisation: the last G-factor is pushed through the word using
    HG-decompositions of its factors, staying normal at every step.
    """
    g = zs.germ
    gw = list(_letters(zs.delta_g, p.nf_g))
    hw = list(_letters(zs.delta_h, p.nf_h))
    if not all(zs.member_g(x) for x in gw) or not element._is_normal_word(g, gw):
        raise ValueError("nf_g is not a normal word over the G-simples")
    if not all(zs.member_h(x) for x in hw) or not element._is_normal_word(g, hw):
        raise ValueError("nf_h is not a normal word over the H-simples")
    word = hw
    while gw:
        # the last G-letter re-associates as a leading factor 1.last
        pairs = [(g.unit, gw.pop())] + [zs.hg_pair[x] for x in word]
        word = zappa_szep.reassociate(g, pairs)
        assert element._is_normal_word(g, word), "merge_nf produced a non-normal word"
    return element._from_letters(word, g.delta)


# -- the lcm variant -----------------------------------------------------------

def psi(zs: ZSStructure, p: NFPair) -> NormalWord:
    """
    The normal form of lcm(product of nf_g, product of nf_h), computed by
    applying the inverse action of the G-part to the H-word (which stays
    normal) and then merging.
    """
    g = zs.germ
    gw = _letters(zs.delta_g, p.nf_g)
    hw = _letters(zs.delta_h, p.nf_h)
    acted = list(zappa_szep.act_word(zs, "lr-inv", gw, hw))
    assert element._is_normal_word(g, acted), "inverse action broke normality of the H-word"
    return merge_nf(zs, NFPair(p.nf_g, element._from_letters(acted, zs.delta_h)))
