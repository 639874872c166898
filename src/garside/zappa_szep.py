"""
zappa_szep: two-sided decompositions K = G |><| H of the monoid of a germ.

A bipartition of the atoms into unions of quasi-central classes induces
two parabolic submonoids G and H such that every element factors uniquely
as g.h and as h.g.  Rewriting one factorisation into the other defines
four actions on simples:

    h . g = (h |> g)(h <| g)        g . h = (g |>> h)(g <<| h)

written here act_rr/act_rl (h acting on g from the left / the companion)
and act_lr/act_ll.  build() stores the two factorisation maps gh_pair and
hg_pair and derives from them one step table per action, a letter-to-
letter transducer step (carry, letter) -> (output, next carry):

    rr[h][g] = (h |> g, h <| g) = gh_pair[h.g]      rl[g][h] = (h <| g, h |> g)
    lr[g][h] = (g |>> h, g <<| h) = hg_pair[g.h]    ll[h][g] = (g <<| h, g |>> h)

An inverse table is the forward one with each row inverted on its output,
e.g. rr-inv[h][g] = (h^-1 |> g, g^-1 |>> h).  An action on simples is one
read of its table; an action of a word carries the actor letters through
the acted word by the same steps.  The GH- and HG-decompositions of
elements peel a normal form apart through gh_pair and hg_pair.

build() re-verifies every structural invariant (parabolicity, unique
decompositions of all simples, and bijectivity of the actions, which is
the inversion of the step tables) instead of trusting the classification;
a failure raises DecompositionFailure with a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import element, quasicenter
from .element import NormalWord
from .germ import Germ, _atom_lengths, _join_all


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
    # action name -> carry -> letter -> (output letter, next carry)
    steps: dict[str, dict[int, dict[int, tuple[int, int]]]]

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

    def _act(self, name: str, first: int, second: int) -> int:
        """
        One read of the step table of the action `name`, with the
        arguments in the order of act_<name>: the actor comes first for
        rr and lr (and their inverses) and second for rl and ll.
        """
        try:
            if name[1] == "r":
                return self.steps[name][first][second][0]
            return self.steps[name][second][first][0]
        except KeyError:
            pass
        g = self.germ
        want = "H-simple, G-simple" if name[0] == "r" else "G-simple, H-simple"
        raise ValueError("action argument outside its simple set: "
                         f"expected ({want}), got ({_quoted(g, first)}, {_quoted(g, second)})")

    def act_rr(self, h: int, g: int) -> int:
        """h |> g."""
        return self._act("rr", h, g)

    def act_rl(self, h: int, g: int) -> int:
        """h <| g."""
        return self._act("rl", h, g)

    def act_lr(self, g: int, h: int) -> int:
        """g |>> h."""
        return self._act("lr", g, h)

    def act_ll(self, g: int, h: int) -> int:
        """g <<| h."""
        return self._act("ll", g, h)

    def act_rr_inv(self, h: int, g: int) -> int:
        """h^-1 |> g: the inverse permutation of g -> h |> g."""
        return self._act("rr-inv", h, g)

    def act_rl_inv(self, h: int, g: int) -> int:
        """h <| g^-1."""
        return self._act("rl-inv", h, g)

    def act_lr_inv(self, g: int, h: int) -> int:
        """g^-1 |>> h."""
        return self._act("lr-inv", g, h)

    def act_ll_inv(self, g: int, h: int) -> int:
        """g <<| h^-1."""
        return self._act("ll-inv", g, h)

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

    # The simples of a factor are those its atoms strip down to the unit.
    g_simples, h_simples = (tuple(s for s, k in enumerate(_atom_lengths(germ, side)) if k >= 0)
                            for side in (left, right))

    delta_g = _join_all(germ, g_simples)
    delta_h = _join_all(germ, h_simples)

    # The class-wise construction must give the same Garside elements.
    class_g = _join_all(germ, (part.class_delta[i] for i in chosen))
    class_h = _join_all(germ, (d for i, d in enumerate(part.class_delta) if i not in chosen))
    if (class_g, class_h) != (delta_g, delta_h):
        raise DecompositionFailure(
            "join of generated simples disagrees with the join of the "
            "atom-class values")

    # Parabolicity: the divisors of delta_G are exactly the simples in G.
    for delta, simples, side in ((delta_g, g_simples, "left"), (delta_h, h_simples, "right")):
        if set(germ.left_divisors(delta)) != set(simples):
            raise DecompositionFailure(
                f"divisors of {germ.names[delta]} are not the simples "
                f"generated by the {side} atoms")

    if germ.product(delta_g, delta_h) != germ.delta or \
            germ.product(delta_h, delta_g) != germ.delta:
        raise DecompositionFailure(
            f"{germ.names[delta_g]}.{germ.names[delta_h]} is not delta")

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

    # The forward steps, then their inverses: inverting a row on its output
    # finds any collision, so a step table with an inverse is a bijection.
    rr = {hs: {gs: gh_pair[germ.product(hs, gs)] for gs in g_simples} for hs in h_simples}
    lr = {gs: {hs: hg_pair[germ.product(gs, hs)] for hs in h_simples} for gs in g_simples}
    steps = {"rr": rr, "rl": {gs: {hs: rr[hs][gs][::-1] for hs in h_simples} for gs in g_simples},
             "lr": lr, "ll": {hs: {gs: lr[gs][hs][::-1] for gs in g_simples} for hs in h_simples}}
    for name, fails in (("rr", "{} |> . is not a bijection of the G-simples"),
                        ("rl", ". <| {} is not a bijection of the H-simples"),
                        ("lr", "{} |>> . is not a bijection of the H-simples"),
                        ("ll", ". <<| {} is not a bijection of the G-simples")):
        steps[name + "-inv"] = inv = {}
        for c, row in steps[name].items():
            inv[c] = {y: (x, d) for x, (y, d) in row.items()}
            if len(inv[c]) != len(row):
                raise DecompositionFailure(fails.format(nm[c]))

    return ZSStructure(
        germ=germ, left_atoms=left, right_atoms=right,
        g_simples=g_simples, h_simples=h_simples,
        delta_g=delta_g, delta_h=delta_h,
        gh_pair=gh_pair, hg_pair=hg_pair, steps=steps,
    )


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
        word = reassociate(g, pairs)
        assert element._is_normal_word(g, word), "peeling produced a non-normal word"
    assert element._is_normal_word(g, first), "peeling produced a non-normal first factor"
    # Neither factor contains delta, so both letter lists are normal words.
    lead, rest = NormalWord(0, tuple(first)), NormalWord(0, tuple(word))
    if any(pair[s][0] != g.unit for s in word) or element.multiply(g, lead, rest) != x:
        raise DecompositionFailure(
            f"{kind}-decomposition failed for {element.format_nf(g, x)}")
    return lead, rest


def reassociate(g: Germ, pairs: Sequence[tuple[int, int]]) -> list[int]:
    """
    One re-association step over a word of factored letters a_i.b_i: the
    letters b_i.a_(i+1), then b_n unless it is 1.
    """
    word = [g.product(b, a) for (_, b), (a, _) in zip(pairs, pairs[1:])]
    assert None not in word, "re-associated factor left the simples"
    if pairs[-1][1] != g.unit:
        word.append(pairs[-1][1])
    return word


# -- actions on words --------------------------------------------------------
#
# A word acts one letter at a time, and a letter acts on a word by being
# carried through it: steps[name][carry][letter] gives the output letter
# and the next carry.  act_word takes its two words in the argument order
# of the simple-level action: (h-word, g-word) for rr and rl and their
# inverses, (g-word, h-word) for lr and ll and theirs.

def _quoted(g: Germ, s: int) -> str:
    """The quoted name of simple s, or the raw id of an argument that is none."""
    return repr(g.names[s]) if 0 <= s < len(g) else f"simple id {s}"


def _check_words(zs: ZSStructure, sides: str, *words: Sequence[int]) -> None:
    for side, word in zip(sides, words):
        ok = zs.member_g if side == "G" else zs.member_h
        for s in word:
            # an id past the last simple divides nothing, so only s < 0 needs a test
            if s < 0 or not ok(s):
                raise ValueError(f"{_quoted(zs.germ, s)} is not a {side}-simple")


ACTIONS = ("rr", "rl", "lr", "ll", "rr-inv", "rl-inv", "lr-inv", "ll-inv")  # build's steps


def act_word(zs: ZSStructure, name: str, first: Sequence[int],
             second: Sequence[int]) -> tuple[int, ...]:
    """
    The action `name`, one of ACTIONS, on words: act_word(zs, "rr", hw, gw)
    is (h-word) |> (g-word), act_word(zs, "ll-inv", gw, hw) is
    (g-word) <<| (h-word)^-1.  Each actor letter is carried through the
    acted word: rightward for rr and lr, whose actor word comes first,
    leftward for rl and ll.  A word acts from its letter nearest the acted
    word, and its inverse from the other.
    """
    _check_words(zs, "HG" if name[0] == "r" else "GH", first, second)
    step = zs.steps[name]
    rightward = name[1] == "r"
    actors, out = (first, list(second)) if rightward else (second, list(first))
    if rightward != name.endswith("-inv"):
        actors = actors[::-1]
    for c in actors:
        new = []
        for x in (out if rightward else reversed(out)):
            y, c = step[c][x]
            new.append(y)
        out = new if rightward else new[::-1]
    return tuple(out)
