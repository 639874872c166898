"""
normal_forms: translating between normal forms of the product monoid and
pairs of normal forms of the two factors.

split_nf is the GH-decomposition of zappa_szep, a carry through rr; merge_nf carries
each H-letter leftward through the G-word by ll.  Both check each carry step against
the product and assert their result normal, not repair it; a normal word is the one
normal form of its product, so merge_nf checks its output once.  They are mutually
inverse bijections; psi, the lcm variant, is merge_nf after an inverse action.
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
    Normal form of g1..gm h1..hn from the factor normal forms, a letter per round, without
    renormalising: the first H-letter c is carried leftward through g2..gm by ll,
    (g2..gm).c = h.(g2..gm)', and g1.h is appended.  Each checked step keeps the product,
    so the output, which only grows, multiplies to g.h; it is asserted normal once, at the
    end, as a non-normal G-word in some round leaves a non-normal pair in it or is harmless.
    """
    g, gw, hw = zs.germ, _letters(zs.delta_g, p.nf_g), _letters(zs.delta_h, p.nf_h)
    for side, w, member in (("G", gw, zs.member_g), ("H", hw, zs.member_h)):
        if not all(map(member, w)) or not element._is_normal_word(g, w):
            raise ValueError(f"nf_{side.lower()} is not a normal word over the {side}-simples")
    word, rest = [], list(reversed(gw))  # the G-word right to left, as ll carries
    for c in hw:
        a = rest.pop() if rest else g.unit
        rest, h = zappa_szep._carry(zs.steps["ll"], c, rest, lambda x, y: g.product(y, x))
        word.append(g.product(a, h))
    word += reversed(rest)
    assert element._is_normal_word(g, word), "merge_nf produced a non-normal word"
    return element._from_letters(word, g.delta)


# -- the lcm variant -----------------------------------------------------------

def psi(zs: ZSStructure, p: NFPair) -> NormalWord:
    """
    The normal form of lcm(product of nf_g, product of nf_h), computed by
    applying the inverse action of the G-part to the H-word (which stays
    normal) and then merging; asserted to be a common multiple of the two.
    """
    g, gw, hw = zs.germ, _letters(zs.delta_g, p.nf_g), _letters(zs.delta_h, p.nf_h)
    acted = zappa_szep.act_word(zs, "lr-inv", gw, hw)
    assert element._is_normal_word(g, acted), "inverse action broke normality of the H-word"
    out = merge_nf(zs, NFPair(p.nf_g, element._from_letters(acted, zs.delta_h)))
    assert all(element.divides(g, element.normal_form(g, w), out) for w in (gw, hw)), \
        "psi is not a common multiple of its two parts"
    return out
