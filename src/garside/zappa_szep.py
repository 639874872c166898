"""
zappa_szep: two-sided decompositions K = G |><| H of the monoid of a germ.

A bipartition of the atoms into unions of quasi-central classes induces
two parabolic submonoids G and H such that every element factors uniquely
as g.h and as h.g.  Rewriting one factorisation into the other defines
four actions on simples:

    h . g = (h |> g)(h <| g)        g . h = (g |>> h)(g <<| h)

written here act_rr/act_rl (h acting on g from the left / the companion)
and act_lr/act_ll.  The structure stores only the two factorisation maps
gh_pair and hg_pair.  Each action and each inverse action is one lookup
in them, at a product or at a join (v for the prefix join, v~ for the
suffix join):

    (h |> g, h <| g) = gh_pair[h.g]     (g |>> h, g <<| h) = hg_pair[g.h]
    h^-1 |> g = hg_pair[g v h][1]       g^-1 |>> h = gh_pair[g v h][1]
    h <| g^-1 = hg_pair[g v~ h][0]      g <<| h^-1 = gh_pair[g v~ h][0]

Actions of words carry one actor letter at a time through the acted word
with the simple-level actions.  The GH- and HG-decompositions of elements
peel a normal form apart through the same two maps.

build() re-verifies every structural invariant (parabolicity, unique
decompositions of all simples, bijectivity of the actions) instead of
trusting the classification; a failure raises DecompositionFailure with
a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import element, quasicenter
from .element import NormalWord
from .germ import Germ


class ZSError(Exception):
    pass


class NotAUnionOfClasses(ZSError):
    """The requested atom bipartition does not respect the class partition."""


class DecompositionFailure(ZSError):
    """A structural invariant failed while building or using a decomposition."""


@dataclass(eq=False)
class ZSStructure:
    germ: Germ
    left_atoms: tuple[int, ...]           # atom set generating G
    right_atoms: tuple[int, ...]          # atom set generating H
    g_simples: tuple[int, ...]            # simples lying in G
    h_simples: tuple[int, ...]            # simples lying in H
    delta_g: int                          # join of g_simples; product with delta_h is delta
    delta_h: int
    gh_pair: list[tuple[int, int]]        # k -> the unique (g, h) with g.h = k; (1, k) iff k in H
    hg_pair: list[tuple[int, int]]        # k -> the unique (h, g) with h.g = k; (1, k) iff k in G

    # -- membership ------------------------------------------------------

    def member_g(self, s: int) -> bool:
        """A simple lies in G exactly when it divides delta_G."""
        return self.germ.left_divides(s, self.delta_g)

    def member_h(self, s: int) -> bool:
        return self.germ.left_divides(s, self.delta_h)

    def comp_g(self, s: int) -> int:
        """Complement within the factor G: the simple u with s.u = delta_G."""
        return self.germ.lcomp(s, self.delta_g)

    def comp_h(self, s: int) -> int:
        return self.germ.lcomp(s, self.delta_h)

    # -- the four actions and their inverses, on simples ------------------

    def _domain(self, h: int, g: int, h_first: bool) -> None:
        """Reject arguments unless h is an H-simple and g a G-simple."""
        gh, unit = self.gh_pair, self.germ.unit
        if gh[h][0] == unit == gh[g][1]:
            return
        nm = self.germ.names
        if h_first:
            want, got = "H-simple, G-simple", f"{nm[h]}, {nm[g]}"
        else:
            want, got = "G-simple, H-simple", f"{nm[g]}, {nm[h]}"
        raise ValueError(
            f"action argument outside its simple set: expected ({want}), got ({got})")

    def act_rr(self, h: int, g: int) -> int:
        """h |> g."""
        self._domain(h, g, True)
        return self.gh_pair[self.germ.product_rows[h][g]][0]

    def act_rl(self, h: int, g: int) -> int:
        """h <| g."""
        self._domain(h, g, True)
        return self.gh_pair[self.germ.product_rows[h][g]][1]

    def act_lr(self, g: int, h: int) -> int:
        """g |>> h."""
        self._domain(h, g, False)
        return self.hg_pair[self.germ.product_rows[g][h]][0]

    def act_ll(self, g: int, h: int) -> int:
        """g <<| h."""
        self._domain(h, g, False)
        return self.hg_pair[self.germ.product_rows[g][h]][1]

    def act_rr_inv(self, h: int, g: int) -> int:
        """h^-1 |> g: the inverse permutation of g -> h |> g."""
        self._domain(h, g, True)
        return self.hg_pair[self.germ.join(g, h)][1]

    def act_rl_inv(self, h: int, g: int) -> int:
        """h <| g^-1."""
        self._domain(h, g, True)
        return self.hg_pair[self.germ.rjoin(g, h)][0]

    def act_lr_inv(self, g: int, h: int) -> int:
        """g^-1 |>> h."""
        self._domain(h, g, False)
        return self.gh_pair[self.germ.join(g, h)][1]

    def act_ll_inv(self, g: int, h: int) -> int:
        """g <<| h^-1."""
        self._domain(h, g, False)
        return self.gh_pair[self.germ.rjoin(g, h)][0]

    def join_gh(self, g: int, h: int) -> int:
        """lcm(g, h) computed factor-side: g.(g^-1 |>> h)."""
        k = self.germ.product(g, self.act_lr_inv(g, h))
        assert k is not None
        return k


def build(g: Germ, left_atoms: Iterable[int]) -> ZSStructure:
    """
    Build and fully verify the decomposition induced by taking G to be
    generated by `left_atoms` (a non-empty proper union of atom classes)
    and H by the remaining atoms.
    """
    germ = g
    left = tuple(sorted(set(left_atoms)))
    part = quasicenter.atom_classes(germ)
    class_of = {a: i for i, block in enumerate(part.classes) for a in block}
    for a in left:
        if a not in class_of:
            raise NotAUnionOfClasses(f"{germ.names[a]} is not an atom")
    chosen = {class_of[a] for a in left}
    covered = tuple(sorted(a for i in chosen for a in part.classes[i]))
    if covered != left:
        raise NotAUnionOfClasses(
            "the left atom set must be a union of quasi-central atom classes; "
            f"classes: {[tuple(germ.names[a] for a in c) for c in part.classes]}")
    if not chosen or len(chosen) == len(part.classes):
        raise NotAUnionOfClasses(
            "the bipartition must be non-empty and proper on both sides")
    right = tuple(a for a in germ.atoms if a not in set(left))

    in_g = _generated_simples(germ, left)
    in_h = _generated_simples(germ, right)

    delta_g = _join_all(germ, in_g)
    delta_h = _join_all(germ, in_h)

    # The class-wise construction must give the same Garside elements.
    table = quasicenter._delta_table(germ)
    if _join_all(germ, (table[a] for a in left)) != delta_g or \
            _join_all(germ, (table[a] for a in right)) != delta_h:
        raise DecompositionFailure(
            "join of generated simples disagrees with the join of the "
            "atom-class values")

    # Parabolicity: the divisors of delta_G are exactly the simples in G.
    for delta, simples, side in ((delta_g, in_g, "left"), (delta_h, in_h, "right")):
        if set(germ.left_divisors(delta)) != set(simples):
            raise DecompositionFailure(
                f"divisors of {germ.names[delta]} are not the simples "
                f"generated by the {side} atoms")

    if germ.product(delta_g, delta_h) != germ.delta or \
            germ.product(delta_h, delta_g) != germ.delta:
        raise DecompositionFailure(
            f"{germ.names[delta_g]}.{germ.names[delta_h]} is not delta")

    g_simples = tuple(sorted(in_g))
    h_simples = tuple(sorted(in_h))

    n = len(germ)
    nm = germ.names
    gh_pair: list = [None] * n
    hg_pair: list = [None] * n
    for gs in g_simples:
        for hs in h_simples:
            for pair, kind, a, b in ((gh_pair, "GH", gs, hs), (hg_pair, "HG", hs, gs)):
                k = germ.product(a, b)
                if k is None:
                    raise DecompositionFailure(f"{nm[a]}.{nm[b]} is not simple")
                if pair[k] is not None:
                    o = pair[k]
                    raise DecompositionFailure(
                        f"two {kind}-factorisations of {nm[k]}: "
                        f"({nm[o[0]]},{nm[o[1]]}) and ({nm[a]},{nm[b]})")
                pair[k] = (a, b)
    missing = [s for s in range(n) if gh_pair[s] is None or hg_pair[s] is None]
    if missing:
        raise DecompositionFailure(
            f"{nm[missing[0]]} has no factorisation over the bipartition")

    zs = ZSStructure(
        germ=germ, left_atoms=left, right_atoms=right,
        g_simples=g_simples, h_simples=h_simples,
        delta_g=delta_g, delta_h=delta_h,
        gh_pair=gh_pair, hg_pair=hg_pair,
    )

    # Each action composed with its inverse lookup is the identity, which
    # makes every action a bijection of its simple set.
    for hs in h_simples:
        for gs in g_simples:
            if zs.act_rr(hs, zs.act_rr_inv(hs, gs)) != gs:
                raise DecompositionFailure(
                    f"{nm[hs]} |> . is not a bijection of the G-simples")
            if zs.act_rl(zs.act_rl_inv(hs, gs), gs) != hs:
                raise DecompositionFailure(
                    f". <| {nm[gs]} is not a bijection of the H-simples")
            if zs.act_lr(gs, zs.act_lr_inv(gs, hs)) != hs:
                raise DecompositionFailure(
                    f"{nm[gs]} |>> . is not a bijection of the H-simples")
            if zs.act_ll(zs.act_ll_inv(gs, hs), hs) != gs:
                raise DecompositionFailure(
                    f". <<| {nm[hs]} is not a bijection of the G-simples")
    return zs


def _join_all(g: Germ, simples: Iterable[int]) -> int:
    j = g.unit
    for s in simples:
        j = g.join(j, s)
    return j


def _generated_simples(g: Germ, atoms: Sequence[int]) -> list[int]:
    # The simples generated by an atom subset, by stripping atoms in a
    # topological order of the prefix relation.
    atom_set = set(atoms)
    inv = g._row_inverses()
    member = [False] * len(g)
    member[g.unit] = True
    order = sorted(range(len(g)), key=lambda s: g.ldiv[s].bit_count())
    for s in order:
        if s == g.unit:
            continue
        for a in atom_set:
            if (g.ldiv[s] >> a) & 1 and member[inv[a][s]]:
                member[s] = True
                break
    return [s for s in range(len(g)) if member[s]]


# -- element-level decompositions -------------------------------------------

def element_in_g(zs: ZSStructure, w: NormalWord) -> bool:
    return w.deltas == 0 and all(zs.member_g(f) for f in w.factors)


def element_in_h(zs: ZSStructure, w: NormalWord) -> bool:
    return w.deltas == 0 and all(zs.member_h(f) for f in w.factors)


def gh_decompose(zs: ZSStructure, x: NormalWord) -> tuple[NormalWord, NormalWord]:
    """
    The unique (g, h) with g.h = x, both as normal words of K.  The G-part
    is peeled off one letter at a time: GH-factor every letter of the
    normal form, take the leading G-part, and re-associate each H-part
    with the following G-part.  Every intermediate word is already normal.
    """
    return _peel(zs, x, zs.gh_pair, "GH")


def hg_decompose(zs: ZSStructure, x: NormalWord) -> tuple[NormalWord, NormalWord]:
    """The unique (h, g) with h.g = x: the same peel over HG-factorisations."""
    return _peel(zs, x, zs.hg_pair, "HG")


def _peel(zs: ZSStructure, x: NormalWord, pair: list[tuple[int, int]],
          kind: str) -> tuple[NormalWord, NormalWord]:
    g = zs.germ
    assert element.is_normal(g, x), "decomposition expects a normal word"
    word = list(element.letters(g, x))
    first: list[int] = []
    while word:
        pairs = [pair[s] for s in word]
        if pairs[0][0] == g.unit:
            break
        first.append(pairs[0][0])
        new = []
        for i in range(len(pairs) - 1):
            k = g.product(pairs[i][1], pairs[i + 1][0])
            assert k is not None, "re-associated factor left the simples"
            new.append(k)
        if pairs[-1][1] != g.unit:
            new.append(pairs[-1][1])
        word = new
        assert element._is_normal_word(g, word), "peeling produced a non-normal word"
    assert element._is_normal_word(g, first), "peeling produced a non-normal first factor"
    # Neither factor contains delta, so both letter lists are normal words.
    lead, rest = NormalWord(0, tuple(first)), NormalWord(0, tuple(word))
    if any(pair[s][0] != g.unit for s in word) or element.multiply(g, lead, rest) != x:
        raise DecompositionFailure(
            f"{kind}-decomposition failed for {element.format_nf(g, x)}")
    return lead, rest


# -- actions on words --------------------------------------------------------
#
# A word acts one letter at a time, and a letter acts on a word by being
# carried through it: step(carry, letter) gives the output letter and the
# next carry.  The *_word functions take (actor word, acted word) in the
# same argument order as the simple-level actions.

def _check_words(zs: ZSStructure, sides: str, *words: Sequence[int]) -> None:
    for side, word in zip(sides, words):
        ok = zs.member_g if side == "G" else zs.member_h
        for s in word:
            if not ok(s):
                raise ValueError(f"{zs.germ.names[s]!r} is not a {side}-simple")


def _carry(step, actors: Iterable[int], word: Sequence[int],
           rightward: bool) -> tuple[int, ...]:
    """Carry each actor in turn through the word, from its left end if
    rightward, else from its right end."""
    out = list(word)
    for c in actors:
        new = []
        for x in (out if rightward else reversed(out)):
            y, c = step(c, x)
            new.append(y)
        out = new if rightward else new[::-1]
    return tuple(out)


def act_rr_word(zs: ZSStructure, hw: Sequence[int], gw: Sequence[int]) -> tuple[int, ...]:
    """(h-word) |> (g-word)."""
    _check_words(zs, "HG", hw, gw)
    return _carry(lambda h, g: zs.gh_pair[zs.germ.product(h, g)], reversed(hw), gw, True)


def act_rl_word(zs: ZSStructure, hw: Sequence[int], gw: Sequence[int]) -> tuple[int, ...]:
    """(h-word) <| (g-word)."""
    _check_words(zs, "HG", hw, gw)
    return _carry(lambda g, h: zs.gh_pair[zs.germ.product(h, g)][::-1], gw, hw, False)


def act_lr_word(zs: ZSStructure, gw: Sequence[int], hw: Sequence[int]) -> tuple[int, ...]:
    """(g-word) |>> (h-word)."""
    _check_words(zs, "GH", gw, hw)
    return _carry(lambda g, h: zs.hg_pair[zs.germ.product(g, h)], reversed(gw), hw, True)


def act_ll_word(zs: ZSStructure, gw: Sequence[int], hw: Sequence[int]) -> tuple[int, ...]:
    """(g-word) <<| (h-word)."""
    _check_words(zs, "GH", gw, hw)
    return _carry(lambda h, g: zs.hg_pair[zs.germ.product(g, h)][::-1], hw, gw, False)


def act_rr_inv_word(zs: ZSStructure, hw: Sequence[int], gw: Sequence[int]) -> tuple[int, ...]:
    """(h-word)^-1 |> (g-word)."""
    _check_words(zs, "HG", hw, gw)
    return _carry(lambda h, g: (zs.act_rr_inv(h, g), zs.act_lr_inv(g, h)), hw, gw, True)


def act_rl_inv_word(zs: ZSStructure, hw: Sequence[int], gw: Sequence[int]) -> tuple[int, ...]:
    """(h-word) <| (g-word)^-1."""
    _check_words(zs, "HG", hw, gw)
    return _carry(lambda g, h: (zs.act_rl_inv(h, g), zs.act_ll_inv(g, h)), reversed(gw), hw,
                  False)


def act_lr_inv_word(zs: ZSStructure, gw: Sequence[int], hw: Sequence[int]) -> tuple[int, ...]:
    """(g-word)^-1 |>> (h-word)."""
    _check_words(zs, "GH", gw, hw)
    return _carry(lambda g, h: (zs.act_lr_inv(g, h), zs.act_rr_inv(h, g)), gw, hw, True)


def act_ll_inv_word(zs: ZSStructure, gw: Sequence[int], hw: Sequence[int]) -> tuple[int, ...]:
    """(g-word) <<| (h-word)^-1."""
    _check_words(zs, "GH", gw, hw)
    return _carry(lambda h, g: (zs.act_ll_inv(g, h), zs.act_rl_inv(h, g)), reversed(hw), gw,
                  False)


WORD_ACTIONS = {
    "rr": act_rr_word,
    "rl": act_rl_word,
    "lr": act_lr_word,
    "ll": act_ll_word,
    "rr-inv": act_rr_inv_word,
    "rl-inv": act_rl_inv_word,
    "lr-inv": act_lr_inv_word,
    "ll-inv": act_ll_inv_word,
}
